//! Exporters: Chrome `trace_event` JSON and standalone metrics JSON.
//!
//! Both render a [`TelemetryReport`], whose spans and rows are
//! already in deterministic order — the exporters add no ordering of
//! their own, so exported bytes are identical whenever reports are.
//! Timestamps convert from the report's seconds to the microseconds
//! Chrome's `trace_event` format expects only here, at the edge.

use crate::registry::{MetricKind, MetricValue, L_NONE};
use crate::report::{MetricRow, TelemetryReport};
use crate::span::SpanEvent;
use serde_json::{json, Value};

const MICROS_PER_S: f64 = 1e6;

fn span_args(ev: &SpanEvent) -> Value {
    let mut fields = Vec::new();
    for (name, v) in [
        ("epoch", ev.epoch),
        ("layer", ev.layer),
        ("superstep", ev.superstep),
        ("worker", ev.worker),
    ] {
        if v >= 0 {
            fields.push((name.to_string(), Value::Int(v)));
        }
    }
    Value::Object(fields)
}

fn metric_kind_str(kind: MetricKind) -> &'static str {
    match kind {
        MetricKind::Counter => "counter",
        MetricKind::Gauge => "gauge",
        MetricKind::Histogram => "histogram",
    }
}

fn metric_labels(row: &MetricRow) -> Value {
    let fields = row
        .label_names
        .iter()
        .zip(row.labels.iter())
        .filter(|(_, v)| **v != L_NONE)
        .map(|(name, v)| (name.to_string(), Value::Int(*v as i64)))
        .collect();
    Value::Object(fields)
}

fn metric_value(value: &MetricValue) -> Value {
    match value {
        MetricValue::Counter(v) => json!(*v),
        MetricValue::Gauge(v) => Value::Float(*v),
        MetricValue::Histogram(h) => json!({
            "count": h.count,
            "sum": h.sum,
            "min": h.min,
            "max": h.max,
        }),
    }
}

fn metric_row(row: &MetricRow) -> Value {
    json!({
        "name": row.name,
        "kind": metric_kind_str(row.kind),
        "unit": row.unit,
        "labels": metric_labels(row),
        "value": metric_value(&row.value),
    })
}

/// Renders the report as a Chrome `trace_event` value: one
/// `thread_name` metadata event per track, then one complete (`"X"`)
/// event per span, `ts`/`dur` in microseconds. The result loads in
/// `chrome://tracing` and Perfetto.
pub fn chrome_trace(report: &TelemetryReport) -> Value {
    let mut events = vec![json!({
        "ph": "M",
        "name": "process_name",
        "pid": 0,
        "args": json!({"name": "ec-graph"}),
    })];
    for (tid, name) in report.tracks.iter().enumerate() {
        events.push(json!({
            "ph": "M",
            "name": "thread_name",
            "pid": 0,
            "tid": tid,
            "args": json!({"name": name}),
        }));
    }
    for ev in &report.spans {
        events.push(json!({
            "ph": "X",
            "name": ev.name,
            "cat": ev.cat,
            "ts": Value::Float(ev.start_s * MICROS_PER_S),
            "dur": Value::Float(ev.dur_s * MICROS_PER_S),
            "pid": 0,
            "tid": ev.track,
            "args": span_args(ev),
        }));
    }
    json!({
        "traceEvents": Value::Array(events),
        "displayTimeUnit": "ms",
        "otherData": json!({
            "level": report.level.as_str(),
            "dropped_spans": report.dropped_spans,
        }),
    })
}

/// [`chrome_trace`] rendered to a string.
pub fn chrome_trace_json(report: &TelemetryReport) -> String {
    chrome_trace(report).to_string()
}

/// Renders the metric rows (plus run-level context) as a standalone
/// metrics JSON document.
pub fn metrics_json(report: &TelemetryReport) -> String {
    let rows: Vec<Value> = report.rows.iter().map(metric_row).collect();
    json!({
        "level": report.level.as_str(),
        "tracks": report.tracks,
        "dropped_spans": report.dropped_spans,
        "metrics": Value::Array(rows),
    })
    .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{labels, MetricId};
    use crate::sink::TelemetrySink;
    use crate::{TelemetryConfig, TelemetryLevel};

    fn sample_report() -> TelemetryReport {
        let mut s = TelemetrySink::new(&TelemetryConfig::at(TelemetryLevel::Trace), 2);
        let net = s.layout().network();
        s.span(
            SpanEvent::new("fp:compute", "fp", 0, 0.5, 0.25).at_epoch(0).at_layer(1).at_worker(0),
        );
        s.span(SpanEvent::new("fp:exchange", "fp", net, 0.0, 0.5).at_epoch(0).at_superstep(0));
        s.add(MetricId::SelectorPdt, labels(&[0, 2]), 17);
        s.set(MetricId::PhaseCommS, labels(&[0]), 0.5);
        s.observe(MetricId::FpWireBytes, labels(&[0]), 128.0);
        s.observe(MetricId::FpWireBytes, labels(&[0]), 64.0);
        s.report()
    }

    #[test]
    fn chrome_trace_has_metadata_then_spans_and_validates() {
        let rep = sample_report();
        let text = chrome_trace_json(&rep);
        serde_json::from_str(&text).expect("valid JSON");
        assert!(text.starts_with(r#"{"traceEvents":[{"ph":"M","name":"process_name""#));
        assert!(text.contains(r#""name":"worker 0""#));
        assert!(text.contains(r#""name":"network""#));
        // 0.5 s start -> 500000 us; the span keeps its dimensions as args.
        assert!(text.contains(r#""ph":"X","name":"fp:compute","cat":"fp","ts":500000.0,"dur":250000.0,"pid":0,"tid":0,"args":{"epoch":0,"layer":1,"worker":0}"#));
        assert!(text.contains(r#""args":{"epoch":0,"superstep":0}"#));
    }

    #[test]
    fn metrics_json_is_standalone_and_valid() {
        let rep = sample_report();
        let text = metrics_json(&rep);
        serde_json::from_str(&text).expect("valid JSON");
        assert!(text.starts_with(r#"{"level":"trace","tracks":["worker 0","worker 1","network","engine","host"],"dropped_spans":0,"metrics":["#));
        assert!(text.contains(r#""name":"phase.comm","kind":"gauge","unit":"seconds","labels":{"epoch":0},"value":0.5"#));
    }

    #[test]
    fn empty_report_still_exports_valid_documents() {
        let rep = TelemetrySink::new(&TelemetryConfig::default(), 1).report();
        serde_json::from_str(&chrome_trace_json(&rep)).expect("valid trace");
        serde_json::from_str(&metrics_json(&rep)).expect("valid metrics");
    }
}
