//! [`TelemetryReport`]: the immutable snapshot a finished run hands back.
//!
//! The sink merges its per-track rings in ascending track order (workers
//! first, then network / engine / host) and flattens the registry into
//! [`MetricRow`]s in `BTreeMap` key order, so the report — and everything
//! exported from it — is byte-identical across thread-count matrices.

use crate::registry::{Labels, MetricKind, MetricValue};
use crate::span::SpanEvent;
use crate::TelemetryLevel;

/// One flattened metric series.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MetricRow {
    /// Dotted series name from the catalog.
    pub name: &'static str,
    /// Value kind.
    pub kind: MetricKind,
    /// Unit of the value.
    pub unit: &'static str,
    /// Names of the used label slots.
    pub label_names: &'static [&'static str],
    /// Label values ([`crate::L_NONE`] in unused slots).
    pub labels: Labels,
    /// The recorded value.
    pub value: MetricValue,
}

/// Snapshot of everything one run recorded.
#[derive(Clone, Debug, Default)]
pub struct TelemetryReport {
    /// The level the run recorded at.
    pub level: TelemetryLevel,
    /// Track names in track-index order (Chrome `tid` order).
    pub tracks: Vec<String>,
    /// Completed spans, merged in ascending track order and recording
    /// order within a track. Empty below [`TelemetryLevel::Trace`].
    pub spans: Vec<SpanEvent>,
    /// Spans overwritten because a ring filled up.
    pub dropped_spans: u64,
    /// Metric rows in deterministic catalog-then-label order.
    pub rows: Vec<MetricRow>,
}

impl TelemetryReport {
    /// Rows of the series called `name`, in label order.
    pub fn rows_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a MetricRow> + 'a {
        self.rows.iter().filter(move |r| r.name == name)
    }

    /// The single gauge value of `name` with label values `labels`
    /// (prefix match on the used slots), if recorded.
    pub fn gauge(&self, name: &str, labels: &[u32]) -> Option<f64> {
        self.rows_named(name).find(|r| r.labels.iter().zip(labels).all(|(a, b)| a == b)).and_then(
            |r| match r.value {
                MetricValue::Gauge(v) => Some(v),
                _ => None,
            },
        )
    }

    /// The single counter value of `name` with label values `labels`
    /// (prefix match on the used slots), if recorded.
    pub fn counter(&self, name: &str, labels: &[u32]) -> Option<u64> {
        self.rows_named(name).find(|r| r.labels.iter().zip(labels).all(|(a, b)| a == b)).and_then(
            |r| match r.value {
                MetricValue::Counter(v) => Some(v),
                _ => None,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{labels, L_NONE};

    fn row(name: &'static str, l: Labels, value: MetricValue) -> MetricRow {
        MetricRow {
            name,
            kind: match value {
                MetricValue::Counter(_) => MetricKind::Counter,
                MetricValue::Gauge(_) => MetricKind::Gauge,
                MetricValue::Histogram(_) => MetricKind::Histogram,
            },
            unit: "x",
            label_names: &["epoch"],
            labels: l,
            value,
        }
    }

    #[test]
    fn lookup_helpers_match_on_label_prefix() {
        let rep = TelemetryReport {
            rows: vec![
                row("phase.comm", labels(&[0]), MetricValue::Gauge(1.5)),
                row("phase.comm", labels(&[1]), MetricValue::Gauge(2.5)),
                row("faults.dropped", labels(&[1]), MetricValue::Counter(3)),
            ],
            ..TelemetryReport::default()
        };
        assert_eq!(rep.gauge("phase.comm", &[1]), Some(2.5));
        assert_eq!(rep.counter("faults.dropped", &[1]), Some(3));
        assert_eq!(rep.counter("faults.dropped", &[0]), None);
        assert_eq!(rep.gauge("missing", &[0]), None);
        assert_eq!(rep.rows_named("phase.comm").count(), 2);
        assert_eq!(rep.rows[0].labels[1], L_NONE);
    }
}
