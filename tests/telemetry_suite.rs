//! Exporter golden snapshots: a tiny two-worker Trace-level run under
//! deterministic timing must serialize to byte-identical Chrome-trace,
//! metrics-JSON, timeline-JSON and folded-stack files on every machine
//! and thread count. The
//! fixtures live in `tests/golden/`; after an intentional format or
//! content change, regenerate them with
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test telemetry_suite
//! ```
//!
//! and review the diff like any other code change.

use ec_graph_repro::data::DatasetSpec;
use ec_graph_repro::ecgraph::config::{BpMode, FpMode, TrainingConfig};
use ec_graph_repro::ecgraph::trainer::train;
use ec_graph_repro::partition::hash::HashPartitioner;
use ec_graph_repro::trace::{export, timeline, TelemetryConfig, TelemetryLevel, TelemetryReport};
use std::path::PathBuf;
use std::sync::Arc;

/// The fixture run: small enough that the goldens stay reviewable, rich
/// enough to exercise every exporter code path (spans on all tracks,
/// counters, gauges and histograms).
fn trace_run() -> TelemetryReport {
    ec_comm::set_deterministic_timing(true);
    let data = Arc::new(DatasetSpec::cora().instantiate_with(60, 8, 7));
    let config = TrainingConfig {
        dims: vec![8, 6, data.num_classes],
        num_workers: 2,
        fp_mode: FpMode::ReqEc { bits: 2, t_tr: 2, adaptive: true },
        bp_mode: BpMode::ResEc { bits: 4 },
        max_epochs: 3,
        seed: 7,
        telemetry: TelemetryConfig::at(TelemetryLevel::Trace),
        ..TrainingConfig::defaults(8, data.num_classes)
    };
    let r = train(data, &HashPartitioner::default(), config, "golden");
    r.telemetry.expect("Trace run must attach a telemetry report")
}

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Compares `actual` against the stored fixture, or rewrites the fixture
/// when `UPDATE_GOLDEN` is set.
fn check_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).expect("create tests/golden");
        std::fs::write(&path, actual).expect("write golden fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "cannot read golden fixture {} ({e}); regenerate with \
             UPDATE_GOLDEN=1 cargo test --test telemetry_suite",
            path.display()
        )
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden fixture; if the change is intentional, \
         regenerate with UPDATE_GOLDEN=1 cargo test --test telemetry_suite and review the diff"
    );
}

#[test]
fn chrome_trace_matches_golden() {
    let report = trace_run();
    let text = export::chrome_trace_json(&report);
    serde_json::from_str(&text).expect("chrome trace must be valid JSON");
    // Metadata names every track; complete events carry the EC phases.
    for needle in ["thread_name", "worker 0", "worker 1", "network", "fp:exchange", "\"epoch\""] {
        assert!(text.contains(needle), "chrome trace missing {needle:?}");
    }
    check_golden("trace.json", &text);
}

#[test]
fn metrics_json_matches_golden() {
    let report = trace_run();
    let text = export::metrics_json(&report);
    serde_json::from_str(&text).expect("metrics export must be valid JSON");
    for needle in ["selector.pdt", "bittuner.bits", "resec.residual_l2sq", "resec.theorem1_bound"] {
        assert!(text.contains(needle), "metrics export missing {needle:?}");
    }
    check_golden("metrics.json", &text);
}

#[test]
fn timeline_json_matches_golden() {
    let report = trace_run();
    let text = timeline::timeline_json(&report);
    serde_json::from_str(&text).expect("timeline export must be valid JSON");
    // Deterministic timing zeroes host measurements, but the simulated
    // comm-wire seconds survive — the attribution is not all-zero.
    assert!(text.starts_with(r#"{"level":"trace","overlap_headroom_s":"#));
    for needle in ["comm_wire_s", "\"tracks\"", "\"phases\"", "fp:exchange"] {
        assert!(text.contains(needle), "timeline export missing {needle:?}");
    }
    check_golden("timeline.json", &text);
}

#[test]
fn folded_stacks_match_golden() {
    let report = trace_run();
    let text = timeline::folded_stacks(&report);
    // Flamegraph collapsed format: every line is `stack <integer>`.
    for line in text.lines() {
        let (stack, micros) = line.rsplit_once(' ').expect("line has a sample count");
        assert_eq!(stack.split(';').count(), 3, "stack is track;cat;name: {line}");
        micros.parse::<u64>().expect("integer microseconds");
    }
    assert!(text.lines().any(|l| l.contains(";fp;fp:exchange")));
    check_golden("stacks.folded", &text);
}

/// The fixture run must actually carry the EC-specific series the goldens
/// are meant to pin down (guards against a silently empty registry).
#[test]
fn fixture_run_records_ec_internals() {
    let report = trace_run();
    let decided: u64 = ["selector.cps", "selector.pdt", "selector.avg"]
        .iter()
        .flat_map(|n| report.rows_named(n))
        .filter_map(|r| match r.value {
            ec_graph_repro::trace::MetricValue::Counter(v) => Some(v),
            _ => None,
        })
        .sum();
    assert!(decided > 0, "Selector decisions must be counted");
    assert!(
        report.rows_named("bittuner.bits").next().is_some(),
        "adaptive run must log the Bit-Tuner trajectory"
    );
    assert!(
        report.gauge("resec.residual_l2sq", &[1, 2]).is_some(),
        "ResEC residual norms must be logged per layer"
    );
    assert!(
        report.gauge("resec.theorem1_bound", &[1, 2]).is_some(),
        "Theorem 1 bound must accompany the residuals"
    );
    assert!(
        report.rows_named("traffic.link_bytes").next().is_some(),
        "per-link traffic must reach the registry"
    );
    assert!(report.spans.iter().any(|s| s.name == "fp:exchange"), "spans must cover FP exchange");
    assert_eq!(report.dropped_spans, 0, "fixture run must fit in the default rings");
}
