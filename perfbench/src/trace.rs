//! The benchmark's own spans: one around every call into a product layer.
//!
//! `run_epoch`, `answer_batch` and friends are opaque from outside, so the
//! spans live here, in the benchmark, around the public entry points. They
//! are kept in memory and written out once at exit; a layer's *self time*
//! is its spans' duration minus the part their child spans cover. Every
//! call is timed whether or not spans are kept, so the traced and the
//! untraced run execute the same measuring code and differ only in the
//! bookkeeping — which is what `bench.trace_overhead` prices.

use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One completed (or still open) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Position in the recording order; parents precede children.
    pub id: usize,
    /// The span that was open when this one started.
    pub parent: Option<usize>,
    /// Product layer (crate) the call enters, e.g. `core`, `serve`.
    pub layer: &'static str,
    /// The entry point, e.g. `run_epoch`.
    pub name: &'static str,
    /// Seconds since the tracer was created.
    pub start_s: f64,
    /// Seconds since the tracer was created.
    pub end_s: f64,
    /// Work done inside the span, counted at the same boundary (messages
    /// of an epoch, requests of a loop, rows of a batch); 0 when unset.
    pub count: u64,
}

/// In-memory span recorder for one workload run.
pub struct Tracer {
    workload: &'static str,
    keep: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for `workload`; spans are kept only when `keep` is set.
    pub fn new(workload: &'static str, keep: bool) -> Self {
        Self { workload, keep, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    /// Switches span keeping on or off (the traced run turns it off for
    /// its untraced reference repetition).
    pub fn set_keep(&mut self, keep: bool) {
        self.keep = keep;
    }

    /// Opens a span that stays open until the matching [`Self::exit`];
    /// spans recorded in between become its children.
    pub fn enter(&mut self, layer: &'static str, name: &'static str) {
        if !self.keep {
            return;
        }
        let id = self.spans.len();
        let now = self.origin.elapsed().as_secs_f64();
        let parent = self.open.last().copied();
        self.spans.push(Span { id, parent, layer, name, start_s: now, end_s: now, count: 0 });
        self.open.push(id);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if let Some(id) = self.open.pop() {
            self.spans[id].end_s = self.origin.elapsed().as_secs_f64();
        }
    }

    /// Runs `f` inside a leaf span and returns its result with the host
    /// seconds it took. The clock is read either way; only the span
    /// record depends on `keep`.
    pub fn timed<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        self.enter(layer, name);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.exit();
        (out, secs)
    }

    /// Attaches a work count to the span recorded last.
    pub fn count_last(&mut self, count: u64) {
        if !self.keep {
            return;
        }
        if let Some(span) = self.spans.last_mut() {
            span.count = count;
        }
    }

    /// Spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per layer in seconds.
    pub fn self_time_by_layer(&self) -> BTreeMap<&'static str, f64> {
        self_time_by_layer(&self.spans)
    }

    /// The span file: every span with its parent id and the workload id,
    /// plus the derived per-layer self times.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .map(|s| {
                json!({
                    "id": s.id,
                    "parent": s.parent.map(|p| p as i64).unwrap_or(-1),
                    "workload": self.workload,
                    "layer": s.layer,
                    "name": s.name,
                    "start_s": s.start_s,
                    "end_s": s.end_s,
                    "count": s.count,
                })
            })
            .collect();
        let self_time: Vec<(String, Value)> =
            self.self_time_by_layer().into_iter().map(|(k, v)| (k.to_string(), json!(v))).collect();
        json!({
            "workload": self.workload,
            "spans": spans,
            "self_time_s_by_layer": Value::Object(self_time),
        })
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover (children are clipped to the parent and, as
/// they never overlap each other in this single-threaded recorder, simply
/// summed).
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| (s.end_s - s.start_s).max(0.0)).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let covered = (s.end_s.min(parent.end_s) - s.start_s.max(parent.start_s)).max(0.0);
            own[p] = (own[p] - covered).max(0.0);
        }
    }
    own
}

/// [`self_times`] summed per layer.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut by_layer = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *by_layer.entry(span.layer).or_insert(0.0) += own;
    }
    by_layer
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, layer: &'static str, start: f64, end: f64) -> Span {
        Span { id, parent, layer, name: "x", start_s: start, end_s: end, count: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, None, "bench", 0.0, 10.0),
            span(1, Some(0), "core", 1.0, 4.0),
            span(2, Some(1), "tensor", 2.0, 3.0),
            span(3, Some(0), "core", 5.0, 9.0),
        ];
        assert_eq!(self_times(&spans), vec![3.0, 2.0, 1.0, 4.0]);
        let by_layer = self_time_by_layer(&spans);
        assert_eq!(by_layer["bench"], 3.0);
        assert_eq!(by_layer["core"], 6.0);
        assert_eq!(by_layer["tensor"], 1.0);
        // Self times partition the root span.
        assert_eq!(by_layer.values().sum::<f64>(), 10.0);
    }

    #[test]
    fn children_are_clipped_to_their_parent() {
        let spans = vec![span(0, None, "a", 0.0, 2.0), span(1, Some(0), "b", 1.0, 5.0)];
        assert_eq!(self_times(&spans), vec![1.0, 4.0]);
    }

    #[test]
    fn tracer_records_parents_and_skips_when_off() {
        let mut t = Tracer::new("w", true);
        t.enter("bench", "phase");
        let (v, secs) = t.timed("core", "call", || 7);
        t.count_last(3);
        t.exit();
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].count, 3);
        assert!(t.spans()[0].end_s >= t.spans()[1].end_s);
        let doc = t.to_json().to_string();
        assert!(doc.contains("\"parent\":0") && doc.contains("\"workload\":\"w\""));

        let mut off = Tracer::new("w", false);
        off.enter("bench", "phase");
        assert_eq!(off.timed("core", "call", || 1).0, 1);
        off.exit();
        assert!(off.spans().is_empty());
    }
}
