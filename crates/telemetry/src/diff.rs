//! Cross-run regression diffing of metrics / bench JSON documents.
//!
//! The exporters' metrics documents, `ecgraph serve --report-out` reports
//! and the benchmark's result sets are point-in-time snapshots; this module
//! compares two of them structurally. Every numeric leaf becomes a dotted series path
//! (`epoch[1].compute_s_per_epoch`) and is classified as **unchanged**
//! (within a configurable relative threshold), **improved** or
//! **regressed** (when the path's name tells us which direction is
//! better), or plain **changed** (direction unknown, or a non-numeric
//! leaf differs). Added/removed paths are reported too, so schema drift
//! between runs cannot hide.
//!
//! Two identical documents always produce an all-unchanged report — the
//! `ecgraph compare` self-vs-self smoke test and the determinism suite
//! both rely on that. The classification itself is pure arithmetic over
//! the parsed values: no clocks, no environment, byte-identical output
//! for byte-identical inputs.

use serde_json::Value;
use std::fmt::Write as _;

/// Thresholds that decide when a numeric delta counts as drift.
#[derive(Clone, Copy, Debug)]
pub struct DiffConfig {
    /// Relative threshold: deltas with `|after - before| <= rel *
    /// max(|before|, |after|)` are unchanged. Timing series from real
    /// hosts are noisy; 5 % is the default.
    pub rel_threshold: f64,
    /// Absolute floor below which a delta is always noise (shields
    /// near-zero series from infinite relative deltas).
    pub abs_epsilon: f64,
}

impl Default for DiffConfig {
    fn default() -> Self {
        Self { rel_threshold: 0.05, abs_epsilon: 1e-9 }
    }
}

/// Whether a smaller value of a series is better, derived from the last
/// path segment's name.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    /// Times, byte counts, latencies, drops: smaller is better.
    LowerIsBetter,
    /// Speedups, accuracies, throughputs, hit rates: bigger is better.
    HigherIsBetter,
    /// No convention matches; deltas are reported as plain changes.
    Unknown,
}

/// Infers the improvement direction of a series from its path. When the
/// last segment is a neutral statistic name (`value`, `sum`, `mean`,
/// `min`, `max` — as in metric rows like `metrics[3].serve.qps.value`),
/// the preceding segment decides instead.
pub fn direction_of(path: &str) -> Direction {
    const NEUTRAL: &[&str] = &["value", "sum", "mean", "min", "max"];
    let mut segments = path.rsplit('.');
    let mut leaf = segments.next().unwrap_or(path);
    if NEUTRAL.contains(&leaf) {
        if let Some(parent) = segments.next() {
            leaf = parent;
        }
    }
    let leaf = leaf.split('[').next().unwrap_or(leaf);
    const LOWER: &[&str] = &[
        "_s",
        "secs",
        "_bytes",
        "latency",
        "dropped",
        "violations",
        "loss",
        "_err",
        "err_",
        "corrupted",
        "duplicated",
        "miss",
        "recovery",
        "wait",
    ];
    const HIGHER: &[&str] =
        &["speedup", "qps", "acc", "hit", "melem_per_s", "throughput", "served", "rate"];
    if HIGHER.iter().any(|k| leaf.contains(k)) {
        return Direction::HigherIsBetter;
    }
    if LOWER.iter().any(|k| leaf.contains(k) || leaf.ends_with(k)) {
        return Direction::LowerIsBetter;
    }
    Direction::Unknown
}

/// Classification of one diffed path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Equal, or numeric delta within threshold.
    Unchanged,
    /// Numeric delta beyond threshold, in the better direction.
    Improved,
    /// Numeric delta beyond threshold, in the worse direction.
    Regressed,
    /// Differs, but no direction convention applies (or non-numeric).
    Changed,
    /// Present only in the after document.
    Added,
    /// Present only in the before document.
    Removed,
}

impl Verdict {
    /// Lower-case machine name.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Unchanged => "unchanged",
            Verdict::Improved => "improved",
            Verdict::Regressed => "regressed",
            Verdict::Changed => "changed",
            Verdict::Added => "added",
            Verdict::Removed => "removed",
        }
    }
}

/// One diffed leaf path.
#[derive(Clone, Debug)]
pub struct DiffEntry {
    /// Dotted/indexed path to the leaf.
    pub path: String,
    /// Value in the before document (`None` when added).
    pub before: Option<Value>,
    /// Value in the after document (`None` when removed).
    pub after: Option<Value>,
    /// Relative delta `(after - before) / max(|before|, |after|)` for
    /// numeric pairs with a nonzero base.
    pub rel_delta: Option<f64>,
    /// Classification.
    pub verdict: Verdict,
}

/// The full structural diff of two documents.
#[derive(Clone, Debug, Default)]
pub struct DiffReport {
    /// Every compared leaf, in document walk order.
    pub entries: Vec<DiffEntry>,
}

/// Diffs two parsed JSON documents.
pub fn diff_values(before: &Value, after: &Value, cfg: &DiffConfig) -> DiffReport {
    let mut report = DiffReport::default();
    walk(String::new(), Some(before), Some(after), cfg, &mut report.entries);
    report
}

fn as_number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(_) | Value::UInt(_) | Value::Float(_) => v.as_f64(),
        _ => None,
    }
}

fn classify_numbers(path: &str, b: f64, a: f64, cfg: &DiffConfig) -> (Verdict, Option<f64>) {
    // Non-finite and subnormal operands break the threshold arithmetic
    // below: `INF - INF` and NaN deltas fail every `<=`/`>` comparison and
    // would fall through to an Improved/Regressed verdict chosen by the
    // `delta > 0.0` branch, and subnormals underflow `rel_threshold *
    // base`. Such leaves never classify as Improved/Regressed — only
    // exact-equal (covers equal infinities) counts as Unchanged, anything
    // else is Changed, and no relative delta is reported.
    let degenerate = |x: f64| !x.is_finite() || (x != 0.0 && !x.is_normal());
    if degenerate(b) || degenerate(a) {
        let verdict = if a == b { Verdict::Unchanged } else { Verdict::Changed };
        return (verdict, None);
    }
    let delta = a - b;
    let base = b.abs().max(a.abs());
    let rel = if base > 0.0 { Some(delta / base) } else { None };
    if delta.abs() <= cfg.abs_epsilon || delta.abs() <= cfg.rel_threshold * base {
        return (Verdict::Unchanged, rel);
    }
    let verdict = match (direction_of(path), delta > 0.0) {
        (Direction::LowerIsBetter, true) | (Direction::HigherIsBetter, false) => Verdict::Regressed,
        (Direction::LowerIsBetter, false) | (Direction::HigherIsBetter, true) => Verdict::Improved,
        (Direction::Unknown, _) => Verdict::Changed,
    };
    (verdict, rel)
}

fn child_path(path: &str, key: &str) -> String {
    if path.is_empty() {
        key.to_string()
    } else {
        format!("{path}.{key}")
    }
}

fn walk(
    path: String,
    before: Option<&Value>,
    after: Option<&Value>,
    cfg: &DiffConfig,
    out: &mut Vec<DiffEntry>,
) {
    match (before, after) {
        (None, None) => {}
        (Some(b), None) => out.push(DiffEntry {
            path,
            before: Some(b.clone()),
            after: None,
            rel_delta: None,
            verdict: Verdict::Removed,
        }),
        (None, Some(a)) => out.push(DiffEntry {
            path,
            before: None,
            after: Some(a.clone()),
            rel_delta: None,
            verdict: Verdict::Added,
        }),
        (Some(Value::Object(bf)), Some(Value::Object(af))) => {
            // A row-shaped object that names its own series (metric rows:
            // `{"name": "serve.qps", ..., "value": n}`) gets the name
            // spliced into its children's paths, so direction inference
            // and the human table see `metrics[3].serve.qps.value`
            // instead of an anonymous `metrics[3].value`.
            let series = bf.iter().chain(af.iter()).find_map(|(k, v)| match v {
                Value::String(s) if k == "name" => Some(s.clone()),
                _ => None,
            });
            let seg = |k: &str| match &series {
                Some(name) if k != "name" => format!("{name}.{k}"),
                _ => k.to_string(),
            };
            // Before's key order first, then after-only keys in after's
            // order — deterministic, insertion-ordered like the shim.
            for (k, bv) in bf {
                let av = af.iter().find(|(ak, _)| ak == k).map(|(_, v)| v);
                walk(child_path(&path, &seg(k)), Some(bv), av, cfg, out);
            }
            for (k, av) in af {
                if !bf.iter().any(|(bk, _)| bk == k) {
                    walk(child_path(&path, &seg(k)), None, Some(av), cfg, out);
                }
            }
        }
        (Some(Value::Array(bs)), Some(Value::Array(asv))) => {
            for i in 0..bs.len().max(asv.len()) {
                walk(format!("{path}[{i}]"), bs.get(i), asv.get(i), cfg, out);
            }
        }
        (Some(b), Some(a)) => {
            let entry = match (as_number(b), as_number(a)) {
                (Some(bn), Some(an)) => {
                    let (verdict, rel_delta) = classify_numbers(&path, bn, an, cfg);
                    DiffEntry {
                        path,
                        before: Some(b.clone()),
                        after: Some(a.clone()),
                        rel_delta,
                        verdict,
                    }
                }
                _ => {
                    let same = b.to_string() == a.to_string();
                    DiffEntry {
                        path,
                        before: Some(b.clone()),
                        after: Some(a.clone()),
                        rel_delta: None,
                        verdict: if same { Verdict::Unchanged } else { Verdict::Changed },
                    }
                }
            };
            out.push(entry);
        }
    }
}

impl DiffReport {
    /// `(unchanged, improved, regressed, changed, added, removed)` counts.
    pub fn counts(&self) -> [usize; 6] {
        let mut c = [0usize; 6];
        for e in &self.entries {
            let i = match e.verdict {
                Verdict::Unchanged => 0,
                Verdict::Improved => 1,
                Verdict::Regressed => 2,
                Verdict::Changed => 3,
                Verdict::Added => 4,
                Verdict::Removed => 5,
            };
            c[i] += 1;
        }
        c
    }

    /// True when any path is not `Unchanged`.
    pub fn has_drift(&self) -> bool {
        self.entries.iter().any(|e| e.verdict != Verdict::Unchanged)
    }

    /// True when any numeric series regressed.
    pub fn has_regressions(&self) -> bool {
        self.entries.iter().any(|e| e.verdict == Verdict::Regressed)
    }

    /// The single overall verdict: `regressed` dominates, then
    /// `changed` (schema drift counts), then `improved`, else
    /// `unchanged`.
    pub fn overall(&self) -> Verdict {
        let [_, improved, regressed, changed, added, removed] = self.counts();
        if regressed > 0 {
            Verdict::Regressed
        } else if changed + added + removed > 0 {
            Verdict::Changed
        } else if improved > 0 {
            Verdict::Improved
        } else {
            Verdict::Unchanged
        }
    }

    /// A human-readable table of every drifted path (regressions first),
    /// capped at `max_rows` detail lines, with a one-line summary.
    pub fn human_table(&self, max_rows: usize) -> String {
        let mut out = String::new();
        let [unchanged, improved, regressed, changed, added, removed] = self.counts();
        let mut drifted: Vec<&DiffEntry> =
            self.entries.iter().filter(|e| e.verdict != Verdict::Unchanged).collect();
        drifted.sort_by_key(|e| match e.verdict {
            Verdict::Regressed => 0,
            Verdict::Improved => 1,
            Verdict::Changed => 2,
            Verdict::Added => 3,
            Verdict::Removed => 4,
            Verdict::Unchanged => 5,
        });
        for e in drifted.iter().take(max_rows) {
            let before = e.before.as_ref().map_or("-".to_string(), Value::to_string);
            let after = e.after.as_ref().map_or("-".to_string(), Value::to_string);
            let delta = e.rel_delta.map(|d| format!("  ({:+.1}%)", d * 100.0)).unwrap_or_default();
            let _ = writeln!(
                out,
                "  {:<9} {:<48} {before} -> {after}{delta}",
                e.verdict.as_str().to_uppercase(),
                e.path
            );
        }
        if drifted.len() > max_rows {
            let _ = writeln!(out, "  ... and {} more drifted paths", drifted.len() - max_rows);
        }
        let _ = writeln!(
            out,
            "verdict: {} ({} unchanged, {} improved, {} regressed, {} changed, {} added, {} removed)",
            self.overall().as_str(),
            unchanged,
            improved,
            regressed,
            changed,
            added,
            removed,
        );
        out
    }

    /// The machine verdict document CI archives: overall verdict,
    /// thresholds, counts, and every drifted path.
    pub fn to_json(&self, cfg: &DiffConfig) -> Value {
        let [unchanged, improved, regressed, changed, added, removed] = self.counts();
        let entries: Vec<Value> = self
            .entries
            .iter()
            .filter(|e| e.verdict != Verdict::Unchanged)
            .map(|e| {
                let mut fields = vec![
                    ("path".to_string(), Value::String(e.path.clone())),
                    ("verdict".to_string(), Value::String(e.verdict.as_str().to_string())),
                ];
                if let Some(b) = &e.before {
                    fields.push(("before".to_string(), b.clone()));
                }
                if let Some(a) = &e.after {
                    fields.push(("after".to_string(), a.clone()));
                }
                if let Some(d) = e.rel_delta {
                    if d.is_finite() {
                        fields.push(("rel_delta".to_string(), Value::Float(d)));
                    }
                }
                Value::Object(fields)
            })
            .collect();
        serde_json::json!({
            "verdict": self.overall().as_str(),
            "thresholds": serde_json::json!({
                "rel": Value::Float(cfg.rel_threshold),
                "abs": Value::Float(cfg.abs_epsilon),
            }),
            "counts": serde_json::json!({
                "unchanged": unchanged,
                "improved": improved,
                "regressed": regressed,
                "changed": changed,
                "added": added,
                "removed": removed,
            }),
            "entries": Value::Array(entries),
        })
    }
}

/// Parses and diffs two JSON texts.
pub fn diff_texts(before: &str, after: &str, cfg: &DiffConfig) -> Result<DiffReport, String> {
    let b = serde_json::from_str(before).map_err(|e| format!("before document: {e:?}"))?;
    let a = serde_json::from_str(after).map_err(|e| format!("after document: {e:?}"))?;
    Ok(diff_values(&b, &a, cfg))
}

/// Shared compare-CLI driver behind the `trace_diff` binary and
/// `ecgraph compare`. `args` is the raw argument list after the tool /
/// subcommand name: two paths plus optional `rel=`, `abs=`,
/// `out=verdict.json`, `--quiet`. Prints the human table (unless quiet)
/// and returns the process exit code: `0` no regressions, `3` at least
/// one regressed series, `1` unreadable input, `2` bad usage.
pub fn cli_run(tool: &str, args: &[String]) -> u8 {
    match cli_inner(tool, args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{tool}: {e}");
            if e.starts_with("usage:") {
                2
            } else {
                1
            }
        }
    }
}

fn cli_inner(tool: &str, args: &[String]) -> Result<u8, String> {
    const MAX_TABLE_ROWS: usize = 100;
    let mut paths: Vec<&String> = Vec::new();
    let mut cfg = DiffConfig::default();
    let mut out_path: Option<&str> = None;
    let mut quiet = false;
    for arg in args {
        if arg == "--quiet" {
            quiet = true;
        } else if let Some(v) = arg.strip_prefix("rel=") {
            cfg.rel_threshold = v.parse().map_err(|e| format!("bad rel= threshold '{v}': {e}"))?;
        } else if let Some(v) = arg.strip_prefix("abs=") {
            cfg.abs_epsilon = v.parse().map_err(|e| format!("bad abs= epsilon '{v}': {e}"))?;
        } else if let Some(v) = arg.strip_prefix("out=") {
            out_path = Some(v);
        } else {
            paths.push(arg);
        }
    }
    let [before_path, after_path] = <[&String; 2]>::try_from(paths).map_err(|_| {
        format!(
            "usage: {tool} <before.json> <after.json> [rel=0.05] [abs=1e-9] \
             [out=verdict.json] [--quiet]"
        )
    })?;
    let before = std::fs::read_to_string(before_path)
        .map_err(|e| format!("{before_path}: read failed: {e}"))?;
    let after = std::fs::read_to_string(after_path)
        .map_err(|e| format!("{after_path}: read failed: {e}"))?;
    let report = diff_texts(&before, &after, &cfg)?;
    if !quiet {
        println!("{tool}: {before_path} -> {after_path}");
        print!("{}", report.human_table(MAX_TABLE_ROWS));
    }
    if let Some(out) = out_path {
        std::fs::write(out, report.to_json(&cfg).to_string())
            .map_err(|e| format!("{out}: write failed: {e}"))?;
        if !quiet {
            println!("wrote {out}");
        }
    }
    Ok(if report.has_regressions() { 3 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BEFORE: &str = r#"{"experiment":"x","compute_s_per_epoch":1.0,
        "speedup_vs_seq":2.0,"note":"a","epoch":[{"total_bytes":100}]}"#;

    #[test]
    fn self_diff_is_all_unchanged() {
        let r = diff_texts(BEFORE, BEFORE, &DiffConfig::default()).expect("parse");
        assert!(!r.has_drift());
        assert_eq!(r.overall(), Verdict::Unchanged);
        assert_eq!(r.counts()[0], r.entries.len());
        assert!(r.human_table(50).contains("verdict: unchanged"));
    }

    #[test]
    fn direction_aware_classification() {
        let after = r#"{"experiment":"x","compute_s_per_epoch":2.0,
            "speedup_vs_seq":1.0,"note":"a","epoch":[{"total_bytes":100}]}"#;
        let r = diff_texts(BEFORE, after, &DiffConfig::default()).expect("parse");
        let verdict_of = |p: &str| {
            r.entries.iter().find(|e| e.path == p).map(|e| e.verdict).expect("path present")
        };
        // compute seconds doubled: worse. speedup halved: worse.
        assert_eq!(verdict_of("compute_s_per_epoch"), Verdict::Regressed);
        assert_eq!(verdict_of("speedup_vs_seq"), Verdict::Regressed);
        assert_eq!(verdict_of("epoch[0].total_bytes"), Verdict::Unchanged);
        assert_eq!(r.overall(), Verdict::Regressed);
        assert!(r.has_regressions());
    }

    #[test]
    fn improvements_and_thresholds() {
        let after = r#"{"experiment":"x","compute_s_per_epoch":0.5,
            "speedup_vs_seq":2.05,"note":"a","epoch":[{"total_bytes":100}]}"#;
        let r = diff_texts(BEFORE, after, &DiffConfig::default()).expect("parse");
        let verdict_of = |p: &str| {
            r.entries.iter().find(|e| e.path == p).map(|e| e.verdict).expect("path present")
        };
        assert_eq!(verdict_of("compute_s_per_epoch"), Verdict::Improved);
        // +2.5 % speedup is inside the 5 % threshold.
        assert_eq!(verdict_of("speedup_vs_seq"), Verdict::Unchanged);
        assert_eq!(r.overall(), Verdict::Improved);
    }

    #[test]
    fn schema_drift_is_reported() {
        let after = r#"{"experiment":"y","compute_s_per_epoch":1.0,
            "speedup_vs_seq":2.0,"epoch":[{"total_bytes":100},{"total_bytes":90}],
            "extra":1}"#;
        let r = diff_texts(BEFORE, after, &DiffConfig::default()).expect("parse");
        let verdict_of = |p: &str| {
            r.entries.iter().find(|e| e.path == p).map(|e| e.verdict).expect("path present")
        };
        assert_eq!(verdict_of("experiment"), Verdict::Changed);
        assert_eq!(verdict_of("note"), Verdict::Removed);
        assert_eq!(verdict_of("extra"), Verdict::Added);
        // A whole added array element is reported at the element level.
        assert_eq!(verdict_of("epoch[1]"), Verdict::Added);
        assert_eq!(r.overall(), Verdict::Changed);
    }

    #[test]
    fn zero_base_series_use_the_absolute_floor() {
        let cfg = DiffConfig::default();
        let r = diff_texts(r#"{"recovery_s":0.0}"#, r#"{"recovery_s":0.0}"#, &cfg).expect("parse");
        assert!(!r.has_drift());
        let r = diff_texts(r#"{"recovery_s":0.0}"#, r#"{"recovery_s":1.0}"#, &cfg).expect("parse");
        assert!(r.has_regressions());
    }

    #[test]
    fn direction_heuristics() {
        assert_eq!(direction_of("epoch[0].comm_s"), Direction::LowerIsBetter);
        assert_eq!(direction_of("fetch_bytes"), Direction::LowerIsBetter);
        assert_eq!(direction_of("latency_p99_s"), Direction::LowerIsBetter);
        assert_eq!(direction_of("qps_total"), Direction::HigherIsBetter);
        assert_eq!(direction_of("best_test_acc"), Direction::HigherIsBetter);
        assert_eq!(direction_of("cache_hit_rate"), Direction::HigherIsBetter);
        assert_eq!(direction_of("workers"), Direction::Unknown);
    }

    #[test]
    fn metric_rows_classify_through_their_name_field() {
        // The metrics exporter emits anonymous `value` leaves next to a
        // `name` field; the name must drive both the path and direction.
        let before = r#"{"metrics":[
            {"name":"serve.latency_p99_s","kind":"gauge","labels":{"epoch":0},"value":1.0},
            {"name":"serve.qps","kind":"gauge","labels":{"epoch":0},"value":100.0}]}"#;
        let after = r#"{"metrics":[
            {"name":"serve.latency_p99_s","kind":"gauge","labels":{"epoch":0},"value":2.0},
            {"name":"serve.qps","kind":"gauge","labels":{"epoch":0},"value":200.0}]}"#;
        let r = diff_texts(before, after, &DiffConfig::default()).expect("parse");
        let verdict_of = |p: &str| {
            r.entries.iter().find(|e| e.path == p).map(|e| e.verdict).expect("path present")
        };
        assert_eq!(verdict_of("metrics[0].serve.latency_p99_s.value"), Verdict::Regressed);
        assert_eq!(verdict_of("metrics[1].serve.qps.value"), Verdict::Improved);
        // Identical documents still self-diff clean through the splice.
        assert!(!diff_texts(before, before, &DiffConfig::default()).expect("parse").has_drift());
    }

    #[test]
    fn machine_verdict_is_valid_json() {
        let cfg = DiffConfig::default();
        let after = r#"{"experiment":"x","compute_s_per_epoch":9.0,
            "speedup_vs_seq":2.0,"note":"a","epoch":[{"total_bytes":100}]}"#;
        let r = diff_texts(BEFORE, after, &cfg).expect("parse");
        let text = r.to_json(&cfg).to_string();
        serde_json::from_str(&text).expect("valid JSON");
        assert!(text.starts_with(r#"{"verdict":"regressed""#));
        assert!(text.contains(r#""path":"compute_s_per_epoch","verdict":"regressed""#));
    }

    /// Builds a one-leaf doc on a lower-is-better path, so any hole in
    /// the degenerate-number guard would surface as Improved/Regressed.
    fn directed(v: f64) -> Value {
        Value::Object(vec![("compute_s_per_epoch".to_string(), Value::Float(v))])
    }

    fn verdict_between(b: f64, a: f64) -> (Verdict, Option<f64>) {
        let r = diff_values(&directed(b), &directed(a), &DiffConfig::default());
        assert_eq!(r.entries.len(), 1, "{:?}", r.entries);
        (r.entries[0].verdict, r.entries[0].rel_delta)
    }

    #[test]
    fn non_finite_and_subnormal_leaves_never_improve_or_regress() {
        const SUBNORMAL: f64 = 5e-324;
        // Without the guard, 1.0 → INF computes delta = INF > 0 on a
        // lower-is-better path and reads as Regressed; NaN deltas fail
        // every comparison and fall into the direction match too.
        for (b, a) in [
            (1.0, f64::NAN),
            (f64::NAN, 1.0),
            (f64::NAN, f64::NAN), // NaN != NaN: even self-compare is Changed
            (1.0, f64::INFINITY),
            (f64::INFINITY, 1.0),
            (f64::NEG_INFINITY, f64::INFINITY),
            (f64::INFINITY, f64::NEG_INFINITY),
            (1.0, SUBNORMAL),
            (SUBNORMAL, 2.0 * SUBNORMAL),
        ] {
            let (verdict, rel) = verdict_between(b, a);
            assert_eq!(verdict, Verdict::Changed, "({b}, {a})");
            assert_eq!(rel, None, "degenerate pairs report no relative delta ({b}, {a})");
        }
        // Exact equality (covers equal infinities and bit-equal
        // subnormals) stays Unchanged so self-comparison of a document
        // with infinite leaves does not report drift.
        for v in [f64::INFINITY, f64::NEG_INFINITY, SUBNORMAL] {
            assert_eq!(verdict_between(v, v).0, Verdict::Unchanged, "{v}");
        }
    }

    /// Deterministic splitmix64 for the random-document generator.
    fn next_u64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Random JSON document biased toward the numeric edge cases and
    /// direction-carrying key names.
    fn random_doc(state: &mut u64, depth: usize) -> Value {
        const FLOATS: &[f64] = &[
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            5e-324, // subnormal
            0.0,
            -0.0,
            1.0,
            -3.25,
            1e308,
            1e-12,
        ];
        const KEYS: &[&str] =
            &["compute_s_per_epoch", "speedup_vs_seq", "total_bytes", "loss", "value", "slot"];
        match next_u64(state) % if depth == 0 { 5 } else { 7 } {
            0 => Value::Null,
            1 => Value::Bool(next_u64(state).is_multiple_of(2)),
            2 => Value::Int(next_u64(state) as i64 % 1000),
            3 => Value::Float(FLOATS[next_u64(state) as usize % FLOATS.len()]),
            4 => Value::String(format!("s{}", next_u64(state) % 4)),
            5 => {
                let n = next_u64(state) as usize % 3;
                Value::Array((0..n).map(|_| random_doc(state, depth - 1)).collect())
            }
            _ => {
                let n = next_u64(state) as usize % 4;
                Value::Object(
                    (0..n)
                        .map(|i| {
                            let key = KEYS[(next_u64(state) as usize + i) % KEYS.len()];
                            (key.to_string(), random_doc(state, depth - 1))
                        })
                        .collect(),
                )
            }
        }
    }

    fn is_degenerate_leaf(v: &Option<Value>) -> bool {
        matches!(v, Some(Value::Float(x)) if !x.is_finite() || (*x != 0.0 && !x.is_normal()))
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]
        /// Over random documents (seeded, shim proptest): diffing never
        /// panics, and no leaf touching a NaN/±Inf/subnormal value ever
        /// classifies as Improved or Regressed.
        #[test]
        fn random_documents_never_misclassify_degenerate_numbers(seed in proptest::any::<u64>()) {
            let mut s = seed;
            let before = random_doc(&mut s, 3);
            let after = if next_u64(&mut s).is_multiple_of(4) {
                before.clone() // exercise self-comparison too
            } else {
                random_doc(&mut s, 3)
            };
            let report = diff_values(&before, &after, &DiffConfig::default());
            for e in &report.entries {
                if is_degenerate_leaf(&e.before) || is_degenerate_leaf(&e.after) {
                    proptest::prop_assert!(
                        !matches!(e.verdict, Verdict::Improved | Verdict::Regressed),
                        "degenerate leaf classified directionally: {e:?}"
                    );
                    proptest::prop_assert!(
                        e.rel_delta.is_none(),
                        "degenerate leaf reported a relative delta: {e:?}"
                    );
                }
            }
            // The report must also serialize without panicking.
            let _ = report.to_json(&DiffConfig::default()).to_string();
        }
    }
}
