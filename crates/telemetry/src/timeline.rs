//! Timeline attribution: where did the simulated time actually go?
//!
//! The span stream already records *what* happened; this module folds it
//! into *accounting* — per-track totals split into four buckets:
//!
//! * **compute** — worker compute blocks (`*:compute`, `*:pull`);
//! * **comm-serialize** — host-measured pack/unpack of wire messages
//!   (cat `"pack"`);
//! * **comm-wire** — modeled transfer time on the network track
//!   (`*:exchange`, `*:push`, `*:fetch`);
//! * **idle-wait** — time a worker spent blocked on the superstep
//!   barrier while a slower peer finished (cat `"idle"`).
//!
//! The idle total across worker tracks is the **overlap headroom**: the
//! simulated seconds an async engine with comm/compute overlap could
//! reclaim without changing any result. That number is the published
//! baseline the ROADMAP's async-superstep refactor must beat.
//!
//! Everything here is a pure function of the [`TelemetryReport`], so the
//! derived profiles inherit the report's byte-identity guarantees. Two
//! exports render the attribution: [`folded_stacks`] (the
//! flamegraph-compatible `frame;frame count` text format, counts in
//! microseconds) and [`timeline_json`] (machine-readable buckets +
//! per-phase self-time profile).

use crate::registry::MetricValue;
use crate::report::TelemetryReport;
use crate::span::SpanEvent;
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// The four attribution buckets of one track (simulated seconds).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TimeBuckets {
    /// Worker compute blocks.
    pub compute_s: f64,
    /// Host-measured message pack/unpack (serialization).
    pub comm_serialize_s: f64,
    /// Modeled wire transfer time.
    pub comm_wire_s: f64,
    /// Barrier idle-wait (reclaimable by an async engine).
    pub idle_s: f64,
}

impl TimeBuckets {
    /// Sum over all four buckets.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.comm_serialize_s + self.comm_wire_s + self.idle_s
    }

    fn accumulate(&mut self, other: &TimeBuckets) {
        self.compute_s += other.compute_s;
        self.comm_serialize_s += other.comm_serialize_s;
        self.comm_wire_s += other.comm_wire_s;
        self.idle_s += other.idle_s;
    }
}

/// Which bucket one span contributes to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bucket {
    /// Worker compute.
    Compute,
    /// Message pack/unpack.
    CommSerialize,
    /// Modeled wire time.
    CommWire,
    /// Barrier idle-wait.
    Idle,
}

/// Classifies a span by the recording conventions of the engine and the
/// serving path. Umbrella spans (the per-epoch engine span, host-side
/// preprocessing) return `None`: they aggregate other spans and would
/// double-count.
pub fn bucket_of(ev: &SpanEvent) -> Option<Bucket> {
    match ev.cat {
        "idle" => return Some(Bucket::Idle),
        "pack" => return Some(Bucket::CommSerialize),
        _ => {}
    }
    if ev.name.ends_with(":exchange") || ev.name.ends_with(":push") || ev.name.ends_with(":fetch") {
        return Some(Bucket::CommWire);
    }
    if ev.name.ends_with(":compute") || ev.name.ends_with(":pull") {
        return Some(Bucket::Compute);
    }
    None
}

/// Bucket totals of one track.
#[derive(Clone, Debug, PartialEq)]
pub struct TrackTimeline {
    /// Track index (Chrome `tid`).
    pub track: u32,
    /// Track name from the report layout.
    pub name: String,
    /// Attributed seconds.
    pub buckets: TimeBuckets,
}

/// Self-time of one span phase (all spans sharing a name).
#[derive(Clone, Debug, PartialEq)]
pub struct PhaseRow {
    /// Span category (`"fp"`, `"bp"`, `"serve"`, …).
    pub cat: &'static str,
    /// Span name (`"fp:compute"`, …).
    pub name: &'static str,
    /// Number of spans.
    pub count: u64,
    /// Summed duration in simulated seconds.
    pub total_s: f64,
}

/// The full attribution of one report.
#[derive(Clone, Debug, Default)]
pub struct Timeline {
    /// Per-track bucket totals, ascending track index, tracks with no
    /// attributed time omitted.
    pub tracks: Vec<TrackTimeline>,
    /// Per-phase self-time profile in `(cat, name)` order.
    pub phases: Vec<PhaseRow>,
    /// Bucket totals over every track.
    pub total: TimeBuckets,
    /// Idle-wait seconds across worker tracks — what an async engine
    /// could reclaim. Falls back to the recorded
    /// `timeline.overlap_headroom_s` gauges when the span stream is
    /// empty (levels below `Trace`), so the figure survives ring drops.
    pub overlap_headroom_s: f64,
}

/// Folds the report's spans into per-track buckets and a per-phase
/// self-time profile.
pub fn attribute(report: &TelemetryReport) -> Timeline {
    let mut per_track: BTreeMap<u32, TimeBuckets> = BTreeMap::new();
    let mut per_phase: BTreeMap<(&'static str, &'static str), (u64, f64)> = BTreeMap::new();
    let mut total = TimeBuckets::default();
    for ev in &report.spans {
        let entry = per_phase.entry((ev.cat, ev.name)).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += ev.dur_s;
        let Some(bucket) = bucket_of(ev) else { continue };
        let b = per_track.entry(ev.track).or_default();
        match bucket {
            Bucket::Compute => b.compute_s += ev.dur_s,
            Bucket::CommSerialize => b.comm_serialize_s += ev.dur_s,
            Bucket::CommWire => b.comm_wire_s += ev.dur_s,
            Bucket::Idle => b.idle_s += ev.dur_s,
        }
    }
    for b in per_track.values() {
        total.accumulate(b);
    }
    let span_idle = total.idle_s;
    // Below Trace there are no spans; the per-epoch headroom gauges
    // recorded by the engine still carry the figure.
    let gauge_idle: f64 = report
        .rows_named("timeline.overlap_headroom_s")
        .map(|r| match r.value {
            MetricValue::Gauge(v) => v,
            _ => 0.0,
        })
        .sum();
    let tracks = per_track
        .into_iter()
        .map(|(track, buckets)| TrackTimeline {
            track,
            name: report
                .tracks
                .get(track as usize)
                .cloned()
                .unwrap_or_else(|| format!("track {track}")),
            buckets,
        })
        .collect();
    let phases = per_phase
        .into_iter()
        .map(|((cat, name), (count, total_s))| PhaseRow { cat, name, count, total_s })
        .collect();
    Timeline {
        tracks,
        phases,
        total,
        overlap_headroom_s: if span_idle > 0.0 { span_idle } else { gauge_idle },
    }
}

/// Microsecond count for the folded-stack export (rounded, min 0).
fn folded_micros(secs: f64) -> u64 {
    if secs.is_finite() && secs > 0.0 {
        (secs * 1e6).round() as u64
    } else {
        0
    }
}

/// Renders the span stream in the folded-stack text format flamegraph
/// tools consume: one `track;cat;name count` line per distinct stack,
/// counts in microseconds, lines in deterministic (track, cat, name)
/// order. Zero-duration stacks (everything, under deterministic timing
/// with no modeled comm) are kept with count 0 so the stack *structure*
/// is still visible and byte-identical.
pub fn folded_stacks(report: &TelemetryReport) -> String {
    let mut stacks: BTreeMap<(u32, &'static str, &'static str), f64> = BTreeMap::new();
    for ev in &report.spans {
        *stacks.entry((ev.track, ev.cat, ev.name)).or_insert(0.0) += ev.dur_s;
    }
    let mut out = String::new();
    for ((track, cat, name), secs) in stacks {
        let tname =
            report.tracks.get(track as usize).cloned().unwrap_or_else(|| format!("track {track}"));
        out.push_str(&format!("{tname};{cat};{name} {}\n", folded_micros(secs)));
    }
    out
}

fn buckets_value(b: &TimeBuckets) -> Value {
    json!({
        "compute_s": Value::Float(b.compute_s),
        "comm_serialize_s": Value::Float(b.comm_serialize_s),
        "comm_wire_s": Value::Float(b.comm_wire_s),
        "idle_s": Value::Float(b.idle_s),
    })
}

/// Renders the attribution as a standalone JSON document: run level,
/// overall and per-track buckets, the overlap-headroom figure, and the
/// per-phase self-time profile.
pub fn timeline_json(report: &TelemetryReport) -> String {
    let t = attribute(report);
    let tracks: Vec<Value> = t
        .tracks
        .iter()
        .map(|tr| {
            let mut v = buckets_value(&tr.buckets);
            if let Value::Object(fields) = &mut v {
                fields.insert(0, ("track".to_string(), json!(tr.track)));
                fields.insert(1, ("name".to_string(), json!(tr.name.clone())));
            }
            v
        })
        .collect();
    let phases: Vec<Value> = t
        .phases
        .iter()
        .map(|p| {
            json!({
                "cat": p.cat,
                "name": p.name,
                "count": p.count,
                "total_s": Value::Float(p.total_s),
            })
        })
        .collect();
    json!({
        "level": report.level.as_str(),
        "overlap_headroom_s": Value::Float(t.overlap_headroom_s),
        "total": buckets_value(&t.total),
        "tracks": Value::Array(tracks),
        "phases": Value::Array(phases),
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
        s.span(SpanEvent::new("fp:compute", "fp", 0, 0.0, 0.25).at_epoch(0).at_worker(0));
        s.span(SpanEvent::new("fp:compute", "fp", 1, 0.0, 0.10).at_epoch(0).at_worker(1));
        s.span(SpanEvent::new("idle:wait", "idle", 1, 0.10, 0.15).at_epoch(0).at_worker(1));
        s.span(SpanEvent::new("comm:pack", "pack", 0, 0.25, 0.02).at_epoch(0).at_worker(0));
        s.span(SpanEvent::new("fp:exchange", "fp", net, 0.25, 0.5).at_epoch(0).at_superstep(0));
        s.set(MetricId::TimelineHeadroomS, labels(&[0]), 0.15);
        s.report()
    }

    #[test]
    fn buckets_attribute_by_span_convention() {
        let t = attribute(&sample_report());
        assert!((t.total.compute_s - 0.35).abs() < 1e-12);
        assert!((t.total.comm_serialize_s - 0.02).abs() < 1e-12);
        assert!((t.total.comm_wire_s - 0.5).abs() < 1e-12);
        assert!((t.total.idle_s - 0.15).abs() < 1e-12);
        assert!((t.overlap_headroom_s - 0.15).abs() < 1e-12);
        // Worker 1: compute 0.10, idle 0.15.
        let w1 = t.tracks.iter().find(|tr| tr.track == 1).expect("worker 1 present");
        assert!((w1.buckets.compute_s - 0.10).abs() < 1e-12);
        assert!((w1.buckets.idle_s - 0.15).abs() < 1e-12);
        assert_eq!(w1.name, "worker 1");
    }

    #[test]
    fn umbrella_spans_do_not_double_count() {
        let mut s = TelemetrySink::new(&TelemetryConfig::at(TelemetryLevel::Trace), 1);
        let engine = s.layout().engine();
        s.span(SpanEvent::new("epoch", "engine", engine, 0.0, 10.0).at_epoch(0));
        s.span(SpanEvent::new("fp:compute", "fp", 0, 0.0, 1.0).at_epoch(0).at_worker(0));
        let t = attribute(&s.report());
        assert!((t.total.total_s() - 1.0).abs() < 1e-12);
        // ... but the umbrella still shows up in the phase profile.
        assert!(t.phases.iter().any(|p| p.name == "epoch"));
    }

    #[test]
    fn headroom_falls_back_to_gauges_below_trace() {
        let mut s = TelemetrySink::new(&TelemetryConfig::at(TelemetryLevel::Epoch), 2);
        s.set(MetricId::TimelineHeadroomS, labels(&[0]), 0.25);
        s.set(MetricId::TimelineHeadroomS, labels(&[1]), 0.50);
        let t = attribute(&s.report());
        assert!((t.overlap_headroom_s - 0.75).abs() < 1e-12);
    }

    #[test]
    fn folded_stacks_are_flamegraph_lines_in_deterministic_order() {
        let text = folded_stacks(&sample_report());
        let expected = "worker 0;fp;fp:compute 250000\n\
                        worker 0;pack;comm:pack 20000\n\
                        worker 1;fp;fp:compute 100000\n\
                        worker 1;idle;idle:wait 150000\n\
                        network;fp;fp:exchange 500000\n";
        assert_eq!(text, expected);
    }

    #[test]
    fn timeline_json_validates_and_carries_headroom() {
        let text = timeline_json(&sample_report());
        serde_json::from_str(&text).expect("valid JSON");
        assert!(text.starts_with(r#"{"level":"trace","overlap_headroom_s":0.15"#));
        assert!(text.contains(r#""name":"worker 1""#));
        assert!(text.contains(r#""cat":"idle","name":"idle:wait","count":1"#));
    }

    #[test]
    fn empty_report_exports_cleanly() {
        let rep = TelemetrySink::new(&TelemetryConfig::default(), 1).report();
        assert!(folded_stacks(&rep).is_empty());
        serde_json::from_str(&timeline_json(&rep)).expect("valid JSON");
        let t = attribute(&rep);
        assert_eq!(t.total, TimeBuckets::default());
        assert_eq!(t.overlap_headroom_s, 0.0);
    }
}
