//! The span model: fixed-shape events on a fixed track layout.
//!
//! A [`SpanEvent`] is `Copy` and carries only `&'static str` names plus
//! numeric coordinates, so recording one is a handful of word moves — no
//! allocation on any hot path. Timestamps are **simulated seconds**
//! (converted to microseconds at export time, the unit Chrome's
//! `trace_event` format expects).

/// Sentinel for "this dimension does not apply to this span".
pub const NO_INDEX: i64 = -1;

/// One completed span. `start_s`/`dur_s` are seconds on the simulated
/// timeline.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpanEvent {
    /// Event name, e.g. `"fp:exchange"`.
    pub name: &'static str,
    /// Category, e.g. `"fp"`, `"bp"`, `"loss"`, `"update"` or `"serve"`.
    pub cat: &'static str,
    /// Track index (Chrome `tid`); see [`TrackLayout`].
    pub track: u32,
    /// Start time in seconds.
    pub start_s: f64,
    /// Duration in seconds.
    pub dur_s: f64,
    /// Epoch the span belongs to ([`NO_INDEX`] when not applicable).
    pub epoch: i64,
    /// GNN layer ([`NO_INDEX`] when not applicable).
    pub layer: i64,
    /// Within-epoch superstep index ([`NO_INDEX`] when not applicable).
    pub superstep: i64,
    /// Simulated worker ([`NO_INDEX`] for cluster-wide spans).
    pub worker: i64,
}

impl SpanEvent {
    /// A span with every optional dimension unset.
    pub fn new(
        name: &'static str,
        cat: &'static str,
        track: u32,
        start_s: f64,
        dur_s: f64,
    ) -> Self {
        Self {
            name,
            cat,
            track,
            start_s,
            dur_s,
            epoch: NO_INDEX,
            layer: NO_INDEX,
            superstep: NO_INDEX,
            worker: NO_INDEX,
        }
    }

    /// Sets the epoch dimension.
    pub fn at_epoch(mut self, epoch: usize) -> Self {
        self.epoch = epoch as i64;
        self
    }

    /// Sets the layer dimension.
    pub fn at_layer(mut self, layer: usize) -> Self {
        self.layer = layer as i64;
        self
    }

    /// Sets the superstep dimension.
    pub fn at_superstep(mut self, superstep: u32) -> Self {
        self.superstep = superstep as i64;
        self
    }

    /// Sets the worker dimension.
    pub fn at_worker(mut self, worker: usize) -> Self {
        self.worker = worker as i64;
        self
    }
}

/// The fixed track layout of one run: one track per simulated worker,
/// then the network and the engine. Exports walk tracks in ascending index
/// order — worker order first — so merged output is byte-identical however
/// the recording was threaded.
///
/// Track `W + 2`, named `"host"`, once held host-measured spans. Nothing
/// records on it any more, but it stays in [`Self::count`] and
/// [`Self::name`] because the committed trace and metrics goldens list it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TrackLayout {
    workers: usize,
}

impl TrackLayout {
    /// Layout for `workers` simulated workers.
    pub fn new(workers: usize) -> Self {
        Self { workers }
    }

    /// Number of simulated workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Track of worker `w`'s compute spans.
    pub fn worker(&self, w: usize) -> u32 {
        debug_assert!(w < self.workers, "worker out of range");
        w as u32
    }

    /// Track of modeled network time (exchange/update supersteps).
    pub fn network(&self) -> u32 {
        self.workers as u32
    }

    /// Track of cluster-wide engine phases (epochs, layers).
    pub fn engine(&self) -> u32 {
        self.workers as u32 + 1
    }

    /// Total number of tracks, the empty `"host"` track included.
    pub fn count(&self) -> usize {
        self.workers + 3
    }

    /// Human-readable track name (Chrome `thread_name` metadata).
    pub fn name(&self, track: u32) -> String {
        let t = track as usize;
        if t < self.workers {
            format!("worker {t}")
        } else if t == self.workers {
            "network".to_string()
        } else if t == self.workers + 1 {
            "engine".to_string()
        } else {
            "host".to_string()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_dimensions() {
        let ev = SpanEvent::new("fp:compute", "fp", 2, 1.5, 0.25)
            .at_epoch(3)
            .at_layer(2)
            .at_superstep(7)
            .at_worker(1);
        assert_eq!(ev.epoch, 3);
        assert_eq!(ev.layer, 2);
        assert_eq!(ev.superstep, 7);
        assert_eq!(ev.worker, 1);
        assert_eq!(SpanEvent::new("x", "fp", 0, 0.0, 0.1).epoch, NO_INDEX);
    }

    #[test]
    fn track_layout_is_worker_major() {
        let l = TrackLayout::new(4);
        assert_eq!(l.worker(0), 0);
        assert_eq!(l.worker(3), 3);
        assert_eq!(l.network(), 4);
        assert_eq!(l.engine(), 5);
        assert_eq!(l.count(), 7);
        assert_eq!(l.name(1), "worker 1");
        assert_eq!(l.name(4), "network");
        assert_eq!(l.name(5), "engine");
        assert_eq!(l.name(6), "host");
    }
}
