//! Record sites for the fixture catalog in `metrics.rs`: `Alive` is
//! recorded, `DeadMetric` never is. Never compiled — only lexed and parsed.

use crate::metrics::MetricId;

pub fn record(sink: &mut Sink, lbl: Labels) {
    sink.add(MetricId::Alive, lbl, 1);
}
