//! `ecgraph` — command-line front end for the EC-Graph trainer and the
//! `ec-serve` inference service.
//!
//! ```sh
//! ecgraph train dataset=cora workers=6 fp=reqec:2 bp=resec:4 epochs=100
//! ecgraph train dataset=products layers=3 fp=cp:8 partitioner=metis
//! ecgraph train dataset=cora workers=4 --trace-out trace.json --metrics-out metrics.json
//! ecgraph train dataset=cora workers=6 --timeline-out timeline.json
//! ecgraph serve dataset=cora workers=4 epochs=5 requests=500 cache=256
//! ecgraph serve dataset=cora workers=4 --trace-out serve_trace.json
//! ecgraph datasets            # list the built-in dataset replicas
//! ```
//!
//! `fp` accepts `exact`, `cp:<bits>`, `reqec:<bits>`, `reqec-adapt:<bits>`
//! or `delayed:<r>`; `bp` accepts `exact`, `cp:<bits>` or `resec:<bits>`.
//! `<bits>` is `1..=16` and `<r>` at least 1; `serve`'s `bits` is `1..=16`,
//! or `0` for exact rows.
//!
//! `serve` trains briefly (or reuses `checkpoint=<file>` if it exists),
//! reloads the checkpoint through the engine-free inference path, and
//! drives the serving cluster with the seeded closed-loop load generator;
//! `--report-out <file>` writes the run's canonical `ServeReport` JSON.
//!
//! Observability: `--trace-out <file>` writes a Chrome `trace_event` JSON
//! — for `serve` it carries the request-level spans (queue wait, fetch,
//! compute); `--timeline-out <file>` writes the compute/comm/idle
//! timeline attribution (or flamegraph folded stacks when the file ends
//! in `.folded`); `--metrics-out <file>` writes the EC-metrics registry
//! as JSON; `telemetry=off|epoch|superstep|trace` overrides the recording
//! level the flags imply. `--quiet` silences the progress output.
//!
//! `train` and `serve` accept only the keys they declare ([`TRAIN_KEYS`],
//! [`SERVE_KEYS`]): an unknown key, a value that does not parse as the key's
//! type, `layers=0` / `vertices=0` / `workers=0`, a bit width or delay out
//! of its range, a `straggler` that is neither `0` nor a finite factor
//! `≥ 1`, `clients=0`, `requests=0`, or a `zipf` exponent that is not finite
//! and `≥ 0` is a usage error that names the accepted keys and exits `2` before
//! anything runs — nothing falls back to a default. So does a missing or
//! unknown subcommand. Any other failure (an invalid configuration, an
//! unwritable file) exits `1`.

use ec_compress::MAX_BITS;
use ec_faults::FaultPlan;
use ec_graph::config::{BpMode, FpMode, ModelKind, TrainingConfig};
use ec_graph::engine::DistributedEngine;
use ec_graph::infer::ModelWeights;
use ec_graph::trainer::train;
use ec_graph_data::{normalize, DatasetSpec};
use ec_partition::hash::HashPartitioner;
use ec_partition::ldg::LdgPartitioner;
use ec_partition::metis::MetisLikePartitioner;
use ec_partition::Partitioner;
use ec_serve::{run_closed_loop, InferenceService, ServeConfig, WorkloadConfig};
use ec_tensor::isa::Tier;
use ec_trace::{TelemetryConfig, TelemetryLevel};
use std::collections::HashMap;
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

/// Flag-style (non-`key=value`) options shared by `train` and `serve`.
#[derive(Default)]
struct CliOpts {
    trace_out: Option<PathBuf>,
    timeline_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    report_out: Option<PathBuf>,
    quiet: bool,
}

/// Keys `ecgraph train` accepts, space-separated.
const TRAIN_KEYS: &str = "dataset vertices features layers hidden workers epochs seed patience \
                          fp bp model partitioner telemetry";

/// Keys `ecgraph serve` accepts, space-separated.
const SERVE_KEYS: &str = "dataset vertices features layers hidden workers epochs seed model \
                          requests clients cache pinned bits straggler zipf checkpoint telemetry";

/// Why `train` / `serve` did not finish.
#[derive(Debug)]
enum CliError {
    /// The command line is wrong; the message names the accepted keys.
    Usage(String),
    /// The command line is fine and the run failed.
    Failed(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        Self::Failed(msg)
    }
}

/// The `key=value` arguments of one `train` / `serve` invocation, checked
/// against the subcommand's declared keys.
struct Args {
    keys: &'static str,
    kv: HashMap<String, String>,
}

impl Args {
    fn usage(&self, problem: String) -> CliError {
        CliError::Usage(format!("{problem}\naccepted keys: {}", self.keys))
    }

    fn declares(&self, key: &str) -> bool {
        self.keys.split(' ').any(|k| k == key)
    }

    /// The value of `key` (else `default`) through `parse`; a value that
    /// does not parse is a usage error, never a silent default.
    fn get_with<T>(
        &self,
        key: &str,
        default: &str,
        parse: impl Fn(&str) -> Result<T, String>,
    ) -> Result<T, CliError> {
        debug_assert!(self.declares(key), "`{key}` is read but not declared");
        let text = self.kv.get(key).map_or(default, String::as_str);
        parse(text)
            .map_err(|e| self.usage(format!("`{text}` is not a valid value for `{key}`: {e}")))
    }

    fn get<T: FromStr>(&self, key: &str, default: &str) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        self.get_with(key, default, |v| v.parse::<T>().map_err(|e| e.to_string()))
    }
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some(cmd @ ("train" | "serve")) => {
            let rest: Vec<String> = args.collect();
            let (code, problem) = match run(cmd, &rest) {
                Ok(()) => return ExitCode::SUCCESS,
                Err(CliError::Usage(e)) => (2, e),
                Err(CliError::Failed(e)) => (1, e),
            };
            eprintln!("error: {problem}");
            ExitCode::from(code)
        }
        Some("datasets") => {
            println!(
                "{:<10} {:>12} {:>10} {:>8} {:>8} {:>8}",
                "name", "paper |V|", "replica", "d0", "classes", "degree"
            );
            for s in DatasetSpec::all() {
                println!(
                    "{:<10} {:>12} {:>10} {:>8} {:>8} {:>8.1}",
                    s.name,
                    s.paper_vertices,
                    s.default_vertices,
                    s.feature_dim,
                    s.num_classes,
                    s.avg_degree
                );
            }
            ExitCode::SUCCESS
        }
        other => {
            if let Some(cmd) = other {
                eprintln!("error: unknown subcommand `{cmd}`");
            }
            eprintln!(
                "usage: ecgraph <train|serve|datasets> [key=value ...] \
                 [--trace-out <file>] [--timeline-out <file>] [--metrics-out <file>] \
                 [--report-out <file>] [--quiet]"
            );
            eprintln!("  e.g. ecgraph train dataset=cora workers=6 fp=reqec:2 bp=resec:4");
            eprintln!("       ecgraph serve dataset=cora workers=4 epochs=5 requests=500");
            ExitCode::from(2)
        }
    }
}

/// `ecgraph train …` / `ecgraph serve …` with everything after the
/// subcommand in `rest`.
fn run(cmd: &str, rest: &[String]) -> Result<(), CliError> {
    let train = cmd == "train";
    let (args, opts) = parse_cli_args(if train { TRAIN_KEYS } else { SERVE_KEYS }, rest)?;
    if train {
        run_train(&args, &opts)
    } else {
        run_serve(&args, &opts)
    }
}

/// Splits the `train`/`serve` arguments into `key=value` pairs — each key
/// one of `keys` — and flags.
fn parse_cli_args(keys: &'static str, rest: &[String]) -> Result<(Args, CliOpts), CliError> {
    let mut args = Args { keys, kv: HashMap::new() };
    let mut opts = CliOpts::default();
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        let mut path = |flag: &str| {
            it.next().map(PathBuf::from).ok_or_else(|| args.usage(format!("{flag} needs a path")))
        };
        match a.as_str() {
            "--trace-out" => opts.trace_out = Some(path("--trace-out")?),
            "--timeline-out" => opts.timeline_out = Some(path("--timeline-out")?),
            "--metrics-out" => opts.metrics_out = Some(path("--metrics-out")?),
            "--report-out" => opts.report_out = Some(path("--report-out")?),
            "--quiet" => opts.quiet = true,
            other => {
                let Some((k, v)) = other.split_once('=') else {
                    return Err(args.usage(format!(
                        "unrecognized argument '{other}' (expected key=value, \
                         --trace-out <file>, --timeline-out <file>, --metrics-out <file>, \
                         --report-out <file>, or --quiet)"
                    )));
                };
                if !args.declares(k) {
                    return Err(args.usage(format!("unknown key `{k}`")));
                }
                args.kv.insert(k.to_string(), v.to_string());
            }
        }
    }
    Ok((args, opts))
}

/// The recording level of a run: the export flags imply one, and an
/// explicit `telemetry=` can deepen it further but never below what the
/// flags need.
fn telemetry_level(args: &Args, opts: &CliOpts) -> Result<TelemetryLevel, CliError> {
    let implied = if opts.trace_out.is_some() || opts.timeline_out.is_some() {
        TelemetryLevel::Trace
    } else if opts.metrics_out.is_some() {
        TelemetryLevel::Epoch
    } else {
        TelemetryLevel::Off
    };
    Ok(args.get::<TelemetryLevel>("telemetry", "off")?.max(implied))
}

fn parse_dataset(name: &str) -> Result<DatasetSpec, String> {
    DatasetSpec::all()
        .into_iter()
        .find(|s| s.name == name)
        .ok_or_else(|| "unknown dataset (try `ecgraph datasets`)".to_string())
}

fn parse_model(name: &str) -> Result<ModelKind, String> {
    match name {
        "gcn" => Ok(ModelKind::Gcn),
        "sage" => Ok(ModelKind::Sage),
        _ => Err("unknown model (gcn|sage)".to_string()),
    }
}

fn parse_partitioner(name: &str) -> Result<Box<dyn Partitioner>, String> {
    match name {
        "hash" => Ok(Box::new(HashPartitioner::default())),
        "metis" => Ok(Box::new(MetisLikePartitioner::default())),
        "ldg" => Ok(Box::new(LdgPartitioner::default())),
        _ => Err("unknown partitioner (hash|metis|ldg)".to_string()),
    }
}

fn run_train(args: &Args, opts: &CliOpts) -> Result<(), CliError> {
    if opts.report_out.is_some() {
        return Err(args.usage("--report-out only applies to `ecgraph serve`".into()));
    }
    let level = telemetry_level(args, opts)?;
    // At Superstep+ the run is being inspected through the exporters, so
    // the ad-hoc progress lines get out of the way.
    let show_progress = !opts.quiet && level < TelemetryLevel::Superstep;
    let spec = args.get_with("dataset", "cora", parse_dataset)?;
    let vertices = args.get::<NonZeroUsize>("vertices", &spec.default_vertices.to_string())?.get();
    let dims_cap =
        args.get::<NonZeroUsize>("features", &spec.feature_dim.min(256).to_string())?.get();
    let layers = args.get::<NonZeroUsize>("layers", &spec.default_layers.to_string())?.get();
    let hidden = args.get::<NonZeroUsize>("hidden", "16")?.get();
    let workers = args.get::<NonZeroUsize>("workers", "6")?.get();
    let epochs = args.get::<NonZeroUsize>("epochs", "100")?.get();
    let seed: u64 = args.get("seed", "1")?;
    let patience: usize = args.get("patience", "25")?;
    let fp_mode = args.get_with("fp", "reqec:2", parse_fp)?;
    let bp_mode = args.get_with("bp", "resec:4", parse_bp)?;
    let model = args.get_with("model", "gcn", parse_model)?;
    let partitioner = args.get_with("partitioner", "hash", parse_partitioner)?;

    if show_progress {
        print_run_banner(spec.name, vertices, dims_cap);
    }
    let data = Arc::new(spec.instantiate_with(vertices, dims_cap, seed));
    let mut dims = vec![data.feature_dim()];
    dims.extend(std::iter::repeat_n(hidden, layers - 1));
    dims.push(data.num_classes);

    let config = TrainingConfig {
        dims,
        model,
        num_workers: workers,
        fp_mode,
        bp_mode,
        max_epochs: epochs,
        patience: Some(patience),
        telemetry: TelemetryConfig::at(level),
        seed,
        ..TrainingConfig::defaults(data.feature_dim(), data.num_classes)
    };
    config.validate()?;

    if show_progress {
        println!(
            "training {layers}-layer {} on {workers} workers ({:?} / {:?}) …",
            if model == ModelKind::Gcn { "GCN" } else { "GraphSAGE" },
            config.fp_mode,
            config.bp_mode
        );
    }
    let r = train(Arc::clone(&data), partitioner.as_ref(), config, "cli");
    if show_progress {
        for e in r.epochs.iter().step_by(10.max(r.epochs.len() / 10)) {
            println!(
                "epoch {:>4}  loss {:<8.4}  val {:.4}  test {:.4}  {:>8.4}s/epoch  {:>8.2} MB",
                e.epoch,
                e.loss,
                e.val_acc,
                e.test_acc,
                e.sim_time(),
                e.total_bytes as f64 / 1e6
            );
        }
    }
    if let Some(report) = &r.telemetry {
        write_observability(report, opts)?;
    }
    if !opts.quiet {
        println!(
            "\nbest test accuracy {:.4} (epoch {}), avg epoch {:.4}s, total traffic {:.1} MB",
            r.best_test_acc,
            r.best_epoch,
            r.avg_epoch_time(),
            r.total_bytes() as f64 / 1e6
        );
    }
    Ok(())
}

/// First progress line of `train` and `serve`. Names the instruction-set
/// tier the kernels selected on this host: host seconds depend on it,
/// nothing simulated does.
fn print_run_banner(dataset: &str, vertices: usize, dims_cap: usize) {
    println!(
        "instantiating {dataset} replica (|V|={vertices}, d0={dims_cap}), kernels at {} …",
        Tier::best()
    );
}

/// Writes the `--trace-out` / `--timeline-out` / `--metrics-out` exports
/// for a finished run's telemetry report (shared by `train` and `serve`).
fn write_observability(report: &ec_trace::TelemetryReport, opts: &CliOpts) -> Result<(), String> {
    if let Some(path) = &opts.trace_out {
        std::fs::write(path, ec_trace::export::chrome_trace_json(report))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        if !opts.quiet {
            println!("wrote trace to {}", path.display());
        }
    }
    if let Some(path) = &opts.timeline_out {
        let text = if path.extension().is_some_and(|e| e == "folded") {
            ec_trace::timeline::folded_stacks(report)
        } else {
            ec_trace::timeline::timeline_json(report)
        };
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
        if !opts.quiet {
            println!("wrote timeline to {}", path.display());
        }
    }
    if let Some(path) = &opts.metrics_out {
        std::fs::write(path, ec_trace::export::metrics_json(report))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        if !opts.quiet {
            println!("wrote metrics to {}", path.display());
        }
    }
    Ok(())
}

/// `ecgraph serve`: train a small model (or reuse an existing
/// `checkpoint=` file), reload the weights through the engine-free
/// inference path, and drive the serving cluster with the closed-loop
/// load generator.
fn run_serve(args: &Args, opts: &CliOpts) -> Result<(), CliError> {
    let level = telemetry_level(args, opts)?;
    let spec = args.get_with("dataset", "cora", parse_dataset)?;
    let vertices = args.get::<NonZeroUsize>("vertices", &spec.default_vertices.to_string())?.get();
    let dims_cap =
        args.get::<NonZeroUsize>("features", &spec.feature_dim.min(256).to_string())?.get();
    let layers = args.get::<NonZeroUsize>("layers", &spec.default_layers.to_string())?.get();
    let hidden = args.get::<NonZeroUsize>("hidden", "16")?.get();
    let workers = args.get::<NonZeroUsize>("workers", "4")?.get();
    let epochs: usize = args.get("epochs", "5")?;
    let seed: u64 = args.get("seed", "1")?;
    let model = args.get_with("model", "gcn", parse_model)?;

    let requests = args.get::<NonZeroU64>("requests", "500")?.get();
    let clients = args.get::<NonZeroUsize>("clients", "16")?.get();
    let cache: usize = args.get("cache", "256")?;
    let pinned: usize = args.get("pinned", "32")?;
    let bits = args.get_with("bits", "0", parse_fetch_bits)?;
    let straggler = args.get_with("straggler", "0", parse_straggler)?;
    let zipf = args.get_with("zipf", "0.9", parse_zipf)?;
    let explicit_ckpt: Option<PathBuf> = args.kv.get("checkpoint").map(PathBuf::from);

    if !opts.quiet {
        print_run_banner(spec.name, vertices, dims_cap);
    }
    let data = Arc::new(spec.instantiate_with(vertices, dims_cap, seed));
    let mut dims = vec![data.feature_dim()];
    dims.extend(std::iter::repeat_n(hidden, layers - 1));
    dims.push(data.num_classes);
    let partition = Arc::new(HashPartitioner::default().partition(&data.graph, workers));
    let adj = Arc::new(normalize::gcn_normalized_adjacency(&data.graph));
    let adjs: Vec<_> = vec![adj; layers];

    // The serving path always goes through the on-disk checkpoint — the
    // server never holds a trainer. `checkpoint=` reuses an existing file
    // (and keeps a freshly written one); otherwise a temp file is used.
    let ckpt = explicit_ckpt.clone().unwrap_or_else(|| {
        std::env::temp_dir().join(format!("ecgraph_serve_{}.ckpt", std::process::id()))
    });
    if !ckpt.exists() {
        let config = TrainingConfig {
            dims: dims.clone(),
            model,
            num_workers: workers,
            max_epochs: epochs,
            seed,
            ..TrainingConfig::defaults(data.feature_dim(), data.num_classes)
        };
        config.validate()?;
        if !opts.quiet {
            println!("training {epochs} epochs to produce a checkpoint …");
        }
        let mut engine =
            DistributedEngine::new(Arc::clone(&data), adjs.clone(), (*partition).clone(), config);
        for _ in 0..epochs {
            engine.run_epoch();
        }
        engine.save_checkpoint(&ckpt).map_err(|e| format!("saving checkpoint: {e:?}"))?;
    } else if !opts.quiet {
        println!("reusing checkpoint {} …", ckpt.display());
    }
    let weights =
        ModelWeights::load(&ckpt, model).map_err(|e| format!("loading checkpoint: {e:?}"))?;
    if explicit_ckpt.is_none() {
        let _ = std::fs::remove_file(&ckpt);
    }

    let mut sc = ServeConfig::defaults(workers);
    sc.cache_rows = cache;
    sc.pinned_rows = pinned;
    if bits > 0 {
        sc.fetch_bits = Some(bits);
    }
    if straggler > 1.0 {
        sc.faults = FaultPlan::none().with_straggler(0, straggler);
    }
    sc.telemetry = TelemetryConfig::at(level);
    sc.validate()?;
    let workload = WorkloadConfig { clients, total_requests: requests, zipf_exponent: zipf, seed };
    workload.validate()?;

    if !opts.quiet {
        println!(
            "serving {requests} requests on {workers} workers \
             (cache {cache} rows, {pinned} pinned, fetch {}) …",
            if bits > 0 { format!("{bits}-bit") } else { "exact".to_string() }
        );
    }
    let mut svc = InferenceService::new(weights, Arc::clone(&data), adjs, partition, sc);
    let report = run_closed_loop(&mut svc, &workload);

    if !opts.quiet {
        let (hits, misses) = report
            .per_worker
            .iter()
            .fold((0u64, 0u64), |(h, m), w| (h + w.cache_hits, m + w.cache_misses));
        let hit_rate =
            if hits + misses > 0 { hits as f64 / (hits + misses) as f64 * 100.0 } else { 0.0 };
        println!(
            "\nserved {} requests in {:.3}s simulated — p50 {:.3}ms, p99 {:.3}ms, {:.0} qps",
            report.served,
            report.sim_duration_s,
            report.latency_p50_s * 1e3,
            report.latency_p99_s * 1e3,
            report.qps_total
        );
        println!(
            "cache hit rate {:.1}% ({hits} hits / {misses} misses), \
             fetched {:.1} KB over the wire",
            hit_rate,
            report.fetch_bytes as f64 / 1e3
        );
    }
    if let Some(path) = &opts.report_out {
        std::fs::write(path, report.to_json().to_string())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        if !opts.quiet {
            println!("wrote serve report to {}", path.display());
        }
    }
    if opts.trace_out.is_some() || opts.timeline_out.is_some() || opts.metrics_out.is_some() {
        let telemetry = report
            .telemetry
            .as_ref()
            .ok_or_else(|| "telemetry is off; nothing to export".to_string())?;
        write_observability(telemetry, opts)?;
    }
    Ok(())
}

/// A straggler slowdown: `0` for none, or a finite factor `≥ 1`.
fn parse_straggler(s: &str) -> Result<f64, String> {
    let factor = s.parse::<f64>().map_err(|e| e.to_string())?;
    if factor == 0.0 || (factor.is_finite() && factor >= 1.0) {
        Ok(factor)
    } else {
        Err("a straggler slowdown is 0 (none) or a finite factor ≥ 1".into())
    }
}

/// A Zipf popularity exponent: finite and `≥ 0` (`0` is uniform).
fn parse_zipf(s: &str) -> Result<f64, String> {
    let exponent = s.parse::<f64>().map_err(|e| e.to_string())?;
    // Written positively so NaN fails the check too.
    if exponent.is_finite() && exponent >= 0.0 {
        Ok(exponent)
    } else {
        Err("a Zipf exponent is finite and ≥ 0".into())
    }
}

/// A codec bit width, `1..=MAX_BITS`.
fn parse_bits(arg: &str) -> Result<u8, String> {
    match arg.parse::<u8>() {
        Ok(bits) if (1..=MAX_BITS).contains(&bits) => Ok(bits),
        _ => Err(format!("a bit width is 1..={MAX_BITS}")),
    }
}

/// `serve`'s fetch width: a codec bit width, or `0` for exact rows.
fn parse_fetch_bits(arg: &str) -> Result<u8, String> {
    if arg == "0" {
        Ok(0)
    } else {
        parse_bits(arg).map_err(|e| format!("{e}, or 0 for exact rows"))
    }
}

fn parse_fp(s: &str) -> Result<FpMode, String> {
    let (kind, arg) = s.split_once(':').unwrap_or((s, ""));
    let num = || parse_bits(arg);
    match kind {
        "exact" => Ok(FpMode::Exact),
        "cp" => Ok(FpMode::Compressed { bits: num()? }),
        "reqec" => Ok(FpMode::ReqEc { bits: num()?, t_tr: 10, adaptive: false }),
        "reqec-adapt" => Ok(FpMode::ReqEc { bits: num()?, t_tr: 10, adaptive: true }),
        "delayed" => {
            let r = arg.parse::<NonZeroUsize>().map_err(|_| "a delay period is ≥ 1".to_string())?;
            Ok(FpMode::Delayed { r: r.get() })
        }
        _ => {
            Err("unknown fp mode (exact|cp:<bits>|reqec:<bits>|reqec-adapt:<bits>|delayed:<r>)"
                .into())
        }
    }
}

fn parse_bp(s: &str) -> Result<BpMode, String> {
    let (kind, arg) = s.split_once(':').unwrap_or((s, ""));
    let num = || parse_bits(arg);
    match kind {
        "exact" => Ok(BpMode::Exact),
        "cp" => Ok(BpMode::Compressed { bits: num()? }),
        "resec" => Ok(BpMode::ResEc { bits: num()? }),
        _ => Err("unknown bp mode (exact|cp:<bits>|resec:<bits>)".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The usage message of `ecgraph <args…>`, which must fail as one.
    fn usage_error(args: &[&str]) -> String {
        let rest: Vec<String> = args[1..].iter().map(|a| a.to_string()).collect();
        match run(args[0], &rest) {
            Err(CliError::Usage(msg)) => msg,
            other => panic!("{args:?} must be a usage error, got {other:?}"),
        }
    }

    #[test]
    fn an_unknown_key_is_a_usage_error_that_names_the_accepted_keys() {
        let msg = usage_error(&["train", "dataset=cora", "vertices=200", "wrokers=3", "--quiet"]);
        assert!(msg.contains("unknown key `wrokers`"), "{msg}");
        assert!(msg.contains("accepted keys:") && msg.contains(" workers "), "{msg}");
        // `train` does not take `serve`'s keys.
        assert!(usage_error(&["train", "requests=5"]).contains("unknown key `requests`"));
    }

    #[test]
    fn an_unparsable_value_is_a_usage_error_not_a_default() {
        let msg = usage_error(&["train", "dataset=cora", "vertices=200", "hidden=abc", "--quiet"]);
        assert!(msg.contains("`abc` is not a valid value for `hidden`"), "{msg}");
        assert!(msg.contains("accepted keys:"), "{msg}");
        for bad in ["dataset=core", "fp=reqec", "bp=resec:x", "model=gat", "telemetry=loud"] {
            assert!(usage_error(&["train", bad]).contains("is not a valid value"), "{bad}");
        }
        assert!(usage_error(&["serve", "requests=-1"]).contains("`requests`"));
    }

    #[test]
    fn zero_layers_is_a_usage_error_not_a_capacity_overflow() {
        // Zero vertices would reach the graph generator, which needs at
        // least one vertex per class; zero workers the partitioner, which
        // needs at least one part.
        for cmd in ["train", "serve"] {
            for key in ["layers", "vertices", "workers"] {
                let msg = usage_error(&[cmd, &format!("{key}=0")]);
                assert!(msg.contains(&format!("`0` is not a valid value for `{key}`")), "{msg}");
                assert!(msg.contains("accepted keys:"), "{cmd}: {msg}");
            }
        }
    }

    /// A zero-width layer or a run of no epochs has nothing to train or
    /// report, so each is refused before anything is instantiated.
    #[test]
    fn zero_widths_and_zero_epochs_are_usage_errors() {
        let cases = [
            ("train", "hidden"),
            ("train", "features"),
            ("train", "epochs"),
            ("serve", "hidden"),
            ("serve", "features"),
        ];
        for (cmd, key) in cases {
            let msg = usage_error(&[cmd, &format!("{key}=0")]);
            assert!(msg.contains(&format!("`0` is not a valid value for `{key}`")), "{msg}");
            assert!(msg.contains("accepted keys:"), "{cmd}: {msg}");
        }
    }

    /// A bit width or delay the run would reject after building its replica
    /// is refused before anything is instantiated.
    #[test]
    fn out_of_range_bit_widths_and_delays_are_usage_errors() {
        let cases = [
            ("train", "fp", "cp:0"),
            ("train", "fp", "reqec:0"),
            ("train", "fp", "reqec-adapt:17"),
            ("train", "fp", "delayed:0"),
            ("train", "bp", "resec:17"),
            ("train", "bp", "cp:33"),
            ("serve", "bits", "17"),
        ];
        for (cmd, key, bad) in cases {
            let msg = usage_error(&[cmd, &format!("{key}={bad}")]);
            assert!(msg.contains(&format!("`{bad}` is not a valid value for `{key}`")), "{msg}");
            assert!(msg.contains("accepted keys:"), "{cmd}: {msg}");
        }
        assert_eq!(parse_fp("cp:16"), Ok(FpMode::Compressed { bits: 16 }));
        assert_eq!(parse_fp("delayed:1"), Ok(FpMode::Delayed { r: 1 }));
        assert_eq!(parse_bp("resec:1"), Ok(BpMode::ResEc { bits: 1 }));
        assert_eq!((parse_fetch_bits("0"), parse_fetch_bits("16")), (Ok(0), Ok(16)));
    }

    /// A workload the load generator would refuse is refused before the
    /// run trains the model it would serve.
    #[test]
    fn an_empty_workload_or_a_bad_zipf_exponent_is_a_usage_error() {
        for (key, bad) in
            [("clients", "0"), ("requests", "0"), ("zipf", "-1"), ("zipf", "inf"), ("zipf", "nan")]
        {
            let msg = usage_error(&["serve", &format!("{key}={bad}")]);
            assert!(msg.contains(&format!("`{bad}` is not a valid value for `{key}`")), "{msg}");
            assert!(msg.contains("accepted keys:"), "{msg}");
        }
        for good in ["0", "0.9", "2"] {
            assert_eq!(parse_zipf(good), Ok(good.parse().unwrap()));
        }
    }

    #[test]
    fn a_straggler_below_one_is_a_usage_error_not_silently_ignored() {
        for bad in ["0.5", "nan", "inf", "-2"] {
            let msg = usage_error(&["serve", &format!("straggler={bad}")]);
            assert!(
                msg.contains(&format!("`{bad}` is not a valid value for `straggler`")),
                "{msg}"
            );
        }
        for good in ["0", "1", "2.5"] {
            assert_eq!(parse_straggler(good), Ok(good.parse().unwrap()));
        }
    }

    /// Every key a subcommand reads is one it declares (`Args::get_with`
    /// asserts it), and a well-formed command line still runs.
    #[test]
    fn declared_keys_cover_what_a_run_reads() {
        let args = ["vertices=120", "features=8", "workers=2", "epochs=2", "--quiet"];
        let rest: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        run("train", &rest).unwrap();
        let mut rest = rest;
        rest.push("requests=20".to_string());
        run("serve", &rest).unwrap();
    }
}
