//! [`TelemetrySink`]: the single recording facade the engine owns.
//!
//! Every instrumentation site goes through the sink, and every recording
//! method is gated on the configured [`TelemetryLevel`] — at
//! [`TelemetryLevel::Off`] each call reduces to one enum compare. The
//! sink is deliberately lock-free and every recording method takes
//! `&mut self`: the `Fn + Sync` worker blocks of a superstep cannot hold a
//! `&mut`, so spans can only be recorded on the engine thread during its
//! deterministic ordered replay of worker results — the borrow checker,
//! not a convention, keeps telemetry off the lanes.

use crate::registry::{labels, Labels, MetricId, MetricsRegistry};
use crate::report::{MetricRow, TelemetryReport};
use crate::ring::{SpanRing, RING_CAPACITY};
use crate::span::{SpanEvent, TrackLayout};
use crate::{TelemetryConfig, TelemetryLevel};

/// Owns the span rings and the metric registry of one run.
#[derive(Clone, Debug)]
pub struct TelemetrySink {
    level: TelemetryLevel,
    layout: TrackLayout,
    registry: MetricsRegistry,
    /// One ring per track; empty below [`TelemetryLevel::Trace`].
    rings: Vec<SpanRing>,
    /// Epochs at which a crash was rolled back and replayed. Kept outside
    /// the registry because [`Self::rewind_to_epoch`] must NOT erase them:
    /// the replayed epochs re-record everything else, but the crash itself
    /// happens only once.
    crash_epochs: Vec<u32>,
}

impl TelemetrySink {
    /// A sink for `workers` simulated workers at the configured level.
    pub fn new(config: &TelemetryConfig, workers: usize) -> Self {
        let layout = TrackLayout::new(workers);
        let rings = if config.level >= TelemetryLevel::Trace {
            (0..layout.count()).map(|_| SpanRing::new(RING_CAPACITY)).collect()
        } else {
            Vec::new()
        };
        Self {
            level: config.level,
            layout,
            registry: MetricsRegistry::new(),
            rings,
            crash_epochs: Vec::new(),
        }
    }

    /// The configured recording level.
    pub fn level(&self) -> TelemetryLevel {
        self.level
    }

    /// True when recording at `at` (or deeper) is on. `Off` is never
    /// "enabled": it is the absence of recording.
    pub fn enabled(&self, at: TelemetryLevel) -> bool {
        at > TelemetryLevel::Off && self.level >= at
    }

    /// The track layout of this run.
    pub fn layout(&self) -> TrackLayout {
        self.layout
    }

    /// Adds to a counter series (no-op below [`TelemetryLevel::Epoch`]).
    pub fn add(&mut self, id: MetricId, lbl: Labels, v: u64) {
        if self.level >= TelemetryLevel::Epoch {
            self.registry.add(id, lbl, v);
        }
    }

    /// Sets a gauge series (no-op below [`TelemetryLevel::Epoch`]).
    pub fn set(&mut self, id: MetricId, lbl: Labels, v: f64) {
        if self.level >= TelemetryLevel::Epoch {
            self.registry.set(id, lbl, v);
        }
    }

    /// Observes onto a histogram series (no-op below
    /// [`TelemetryLevel::Epoch`]).
    pub fn observe(&mut self, id: MetricId, lbl: Labels, v: f64) {
        if self.level >= TelemetryLevel::Epoch {
            self.registry.observe(id, lbl, v);
        }
    }

    /// Records a completed span on its track's ring (no-op below
    /// [`TelemetryLevel::Trace`], or for an out-of-range track).
    pub fn span(&mut self, ev: SpanEvent) {
        if let Some(ring) = self.rings.get_mut(ev.track as usize) {
            ring.push(ev);
        }
    }

    /// Marks a crash rolled back and replayed at `epoch`. Survives
    /// [`Self::rewind_to_epoch`].
    pub fn note_crash(&mut self, epoch: u32) {
        if self.level >= TelemetryLevel::Epoch {
            self.crash_epochs.push(epoch);
        }
    }

    /// Crash-rollback support: discards every metric row and span
    /// belonging to epoch `epoch` or later — the restored engine replays
    /// those epochs and re-records them, and without the rewind the
    /// replayed counters would double-count.
    pub fn rewind_to_epoch(&mut self, epoch: u32) {
        self.registry.discard_from_epoch(epoch);
        for ring in &mut self.rings {
            ring.discard_from_epoch(epoch as i64);
        }
    }

    /// Snapshots everything recorded so far into an immutable report.
    pub fn report(&self) -> TelemetryReport {
        let mut registry = self.registry.clone();
        for &e in &self.crash_epochs {
            registry.add(MetricId::FaultCrashRecovered, labels(&[e]), 1);
        }
        let rows: Vec<MetricRow> = registry
            .iter()
            .map(|(id, lbl, value)| {
                let def = id.def();
                MetricRow {
                    name: def.name,
                    kind: def.kind,
                    unit: def.unit,
                    label_names: def.labels,
                    labels: *lbl,
                    value: *value,
                }
            })
            .collect();
        let mut spans = Vec::with_capacity(self.rings.iter().map(SpanRing::len).sum());
        let mut dropped_spans = 0;
        for ring in &self.rings {
            spans.extend(ring.iter().copied());
            dropped_spans += ring.dropped();
        }
        TelemetryReport {
            level: self.level,
            tracks: (0..self.layout.count()).map(|t| self.layout.name(t as u32)).collect(),
            spans,
            dropped_spans,
            rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::L_NONE;

    fn sink_at(level: TelemetryLevel) -> TelemetrySink {
        TelemetrySink::new(&TelemetryConfig::at(level), 2)
    }

    #[test]
    fn off_records_nothing() {
        let mut s = sink_at(TelemetryLevel::Off);
        assert!(!s.enabled(TelemetryLevel::Off));
        assert!(!s.enabled(TelemetryLevel::Epoch));
        s.add(MetricId::SelectorCps, labels(&[0, 1]), 5);
        s.span(SpanEvent::new("x", "fp", 0, 0.0, 1.0));
        s.note_crash(3);
        let rep = s.report();
        assert!(rep.rows.is_empty());
        assert!(rep.spans.is_empty());
    }

    #[test]
    fn epoch_level_records_metrics_but_not_spans() {
        let mut s = sink_at(TelemetryLevel::Epoch);
        assert!(s.enabled(TelemetryLevel::Epoch));
        assert!(!s.enabled(TelemetryLevel::Trace));
        s.set(MetricId::PhaseCommS, labels(&[0]), 0.5);
        s.span(SpanEvent::new("x", "fp", 0, 0.0, 1.0));
        let rep = s.report();
        assert_eq!(rep.rows.len(), 1);
        assert!(rep.spans.is_empty());
        assert_eq!(rep.tracks, vec!["worker 0", "worker 1", "network", "engine", "host"]);
    }

    #[test]
    fn spans_merge_in_ascending_track_order() {
        let mut s = sink_at(TelemetryLevel::Trace);
        let net = s.layout().network();
        s.span(SpanEvent::new("net", "fp", net, 0.0, 1.0));
        s.span(SpanEvent::new("w1", "fp", 1, 0.0, 1.0));
        s.span(SpanEvent::new("w0", "fp", 0, 0.0, 1.0));
        let names: Vec<&str> = s.report().spans.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["w0", "w1", "net"]);
    }

    #[test]
    fn rewind_discards_replayed_epochs_but_keeps_crash_marks() {
        let mut s = sink_at(TelemetryLevel::Trace);
        s.add(MetricId::SelectorCps, labels(&[0, 1]), 1);
        s.add(MetricId::SelectorCps, labels(&[1, 1]), 1);
        s.span(SpanEvent::new("e0", "fp", 0, 0.0, 1.0).at_epoch(0));
        s.span(SpanEvent::new("e1", "fp", 0, 1.0, 1.0).at_epoch(1));
        s.note_crash(1);
        s.rewind_to_epoch(1);
        s.add(MetricId::SelectorCps, labels(&[1, 1]), 1);
        let rep = s.report();
        assert_eq!(rep.spans.len(), 1);
        assert_eq!(rep.spans[0].name, "e0");
        assert_eq!(rep.counter("selector.cps", &[1, 1]), Some(1));
        assert_eq!(rep.counter("faults.crash_recovered", &[1]), Some(1));
        assert_eq!(
            rep.rows_named("faults.crash_recovered").next().map(|r| r.labels[1]),
            Some(L_NONE)
        );
    }
}
