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
//! ecgraph compare before.json after.json rel=0.05 out=verdict.json
//! ecgraph datasets            # list the built-in dataset replicas
//! ```
//!
//! `fp` accepts `exact`, `cp:<bits>`, `reqec:<bits>`, `reqec-adapt:<bits>`
//! or `delayed:<r>`; `bp` accepts `exact`, `cp:<bits>` or `resec:<bits>`.
//!
//! `serve` trains briefly (or reuses `checkpoint=<file>` if it exists),
//! reloads the checkpoint through the engine-free inference path, and
//! drives the serving cluster with the seeded closed-loop load generator;
//! `--report-out <file>` writes the run's canonical `ServeReport` JSON.
//!
//! Observability: `--trace-out <file>` writes a Chrome `trace_event` JSON
//! (or a flat JSONL event log when the file ends in `.jsonl`) — for
//! `serve` it carries the request-level spans (queue wait, fetch,
//! compute); `--timeline-out <file>` writes the compute/comm/idle
//! timeline attribution (or flamegraph folded stacks when the file ends
//! in `.folded`); `--metrics-out <file>` writes the EC-metrics registry
//! as JSON; `telemetry=off|epoch|superstep|trace` overrides the recording
//! level the flags imply. `--quiet` silences the progress output.
//!
//! `compare` structurally diffs two metrics/bench JSON documents and
//! classifies every numeric series as improved / regressed / unchanged —
//! the same engine as the `trace_diff` binary (exit `3` on regression).

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
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// Flag-style (non-`key=value`) options shared by `train` and `serve`.
struct CliOpts {
    trace_out: Option<PathBuf>,
    timeline_out: Option<PathBuf>,
    metrics_out: Option<PathBuf>,
    report_out: Option<PathBuf>,
    quiet: bool,
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("train") => {
            let rest: Vec<String> = args.collect();
            match parse_cli_args(&rest).and_then(|(kv, opts)| run_train(&kv, &opts)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("serve") => {
            let rest: Vec<String> = args.collect();
            match parse_cli_args(&rest).and_then(|(kv, opts)| run_serve(&kv, &opts)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("compare") => {
            let rest: Vec<String> = args.collect();
            ExitCode::from(ec_trace::diff::cli_run("ecgraph compare", &rest))
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
        _ => {
            eprintln!(
                "usage: ecgraph <train|serve|compare|datasets> [key=value ...] \
                 [--trace-out <file>] [--timeline-out <file>] [--metrics-out <file>] \
                 [--report-out <file>] [--quiet]"
            );
            eprintln!("  e.g. ecgraph train dataset=cora workers=6 fp=reqec:2 bp=resec:4");
            eprintln!("       ecgraph serve dataset=cora workers=4 epochs=5 requests=500");
            eprintln!("       ecgraph compare before.json after.json rel=0.05 out=verdict.json");
            ExitCode::FAILURE
        }
    }
}

/// Splits the `train`/`serve` arguments into `key=value` pairs and flags.
fn parse_cli_args(rest: &[String]) -> Result<(HashMap<String, String>, CliOpts), String> {
    let mut kv = HashMap::new();
    let mut opts = CliOpts {
        trace_out: None,
        timeline_out: None,
        metrics_out: None,
        report_out: None,
        quiet: false,
    };
    let mut it = rest.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--trace-out" => {
                let path = it.next().ok_or_else(|| "--trace-out needs a path".to_string())?;
                opts.trace_out = Some(PathBuf::from(path));
            }
            "--timeline-out" => {
                let path = it.next().ok_or_else(|| "--timeline-out needs a path".to_string())?;
                opts.timeline_out = Some(PathBuf::from(path));
            }
            "--metrics-out" => {
                let path = it.next().ok_or_else(|| "--metrics-out needs a path".to_string())?;
                opts.metrics_out = Some(PathBuf::from(path));
            }
            "--report-out" => {
                let path = it.next().ok_or_else(|| "--report-out needs a path".to_string())?;
                opts.report_out = Some(PathBuf::from(path));
            }
            "--quiet" => opts.quiet = true,
            other => {
                let (k, v) = other.split_once('=').ok_or_else(|| {
                    format!(
                        "unrecognized argument '{other}' (expected key=value, \
                         --trace-out <file>, --timeline-out <file>, --metrics-out <file>, \
                         --report-out <file>, or --quiet)"
                    )
                })?;
                kv.insert(k.to_string(), v.to_string());
            }
        }
    }
    Ok((kv, opts))
}

fn run_train(kv: &HashMap<String, String>, opts: &CliOpts) -> Result<(), String> {
    if opts.report_out.is_some() {
        return Err("--report-out only applies to `ecgraph serve`".into());
    }
    let get = |k: &str, d: &str| kv.get(k).cloned().unwrap_or_else(|| d.to_string());

    // The export flags imply a recording level; an explicit `telemetry=`
    // can deepen it further but never below what the flags need.
    let mut level = match kv.get("telemetry") {
        Some(s) => s.parse::<TelemetryLevel>()?,
        None if opts.trace_out.is_some() || opts.timeline_out.is_some() => TelemetryLevel::Trace,
        None if opts.metrics_out.is_some() => TelemetryLevel::Epoch,
        None => TelemetryLevel::Off,
    };
    if opts.trace_out.is_some() || opts.timeline_out.is_some() {
        level = level.max(TelemetryLevel::Trace);
    } else if opts.metrics_out.is_some() {
        level = level.max(TelemetryLevel::Epoch);
    }
    // At Superstep+ the run is being inspected through the exporters, so
    // the ad-hoc progress lines get out of the way.
    let show_progress = !opts.quiet && level < TelemetryLevel::Superstep;
    let dataset = get("dataset", "cora");
    let spec = DatasetSpec::all()
        .into_iter()
        .find(|s| s.name == dataset)
        .ok_or_else(|| format!("unknown dataset '{dataset}' (try `ecgraph datasets`)"))?;
    let vertices: usize = get("vertices", &spec.default_vertices.to_string())
        .parse()
        .map_err(|e| format!("bad vertices: {e}"))?;
    let dims_cap: usize = get("features", &spec.feature_dim.min(256).to_string())
        .parse()
        .map_err(|e| format!("bad features: {e}"))?;
    let layers: usize = get("layers", &spec.default_layers.to_string()).parse().unwrap_or(2);
    let hidden: usize = get("hidden", "16").parse().unwrap_or(16);
    let workers: usize = get("workers", "6").parse().unwrap_or(6);
    let epochs: usize = get("epochs", "100").parse().unwrap_or(100);
    let seed: u64 = get("seed", "1").parse().unwrap_or(1);

    let fp_mode = parse_fp(&get("fp", "reqec:2"))?;
    let bp_mode = parse_bp(&get("bp", "resec:4"))?;
    let model = match get("model", "gcn").as_str() {
        "gcn" => ModelKind::Gcn,
        "sage" => ModelKind::Sage,
        other => return Err(format!("unknown model '{other}'")),
    };

    if show_progress {
        print_run_banner(&dataset, vertices, dims_cap);
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
        patience: Some(get("patience", "25").parse().unwrap_or(25)),
        telemetry: TelemetryConfig::at(level),
        seed,
        ..TrainingConfig::defaults(data.feature_dim(), data.num_classes)
    };
    config.validate()?;

    let partitioner: Box<dyn Partitioner> = match get("partitioner", "hash").as_str() {
        "hash" => Box::new(HashPartitioner::default()),
        "metis" => Box::new(MetisLikePartitioner::default()),
        "ldg" => Box::new(LdgPartitioner::default()),
        other => return Err(format!("unknown partitioner '{other}'")),
    };

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
        let text = if path.extension().is_some_and(|e| e == "jsonl") {
            ec_trace::export::jsonl(report)
        } else {
            ec_trace::export::chrome_trace_json(report)
        };
        std::fs::write(path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
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
fn run_serve(kv: &HashMap<String, String>, opts: &CliOpts) -> Result<(), String> {
    let get = |k: &str, d: &str| kv.get(k).cloned().unwrap_or_else(|| d.to_string());
    // Same rule as `train`: export flags imply a recording level, and an
    // explicit `telemetry=` can deepen but never starve an export.
    let mut level = match kv.get("telemetry") {
        Some(s) => s.parse::<TelemetryLevel>()?,
        None if opts.trace_out.is_some() || opts.timeline_out.is_some() => TelemetryLevel::Trace,
        None if opts.metrics_out.is_some() => TelemetryLevel::Epoch,
        None => TelemetryLevel::Off,
    };
    if opts.trace_out.is_some() || opts.timeline_out.is_some() {
        level = level.max(TelemetryLevel::Trace);
    } else if opts.metrics_out.is_some() {
        level = level.max(TelemetryLevel::Epoch);
    }

    let dataset = get("dataset", "cora");
    let spec = DatasetSpec::all()
        .into_iter()
        .find(|s| s.name == dataset)
        .ok_or_else(|| format!("unknown dataset '{dataset}' (try `ecgraph datasets`)"))?;
    let vertices: usize = get("vertices", &spec.default_vertices.to_string())
        .parse()
        .map_err(|e| format!("bad vertices: {e}"))?;
    let dims_cap: usize = get("features", &spec.feature_dim.min(256).to_string())
        .parse()
        .map_err(|e| format!("bad features: {e}"))?;
    let layers: usize = get("layers", &spec.default_layers.to_string()).parse().unwrap_or(2);
    let hidden: usize = get("hidden", "16").parse().unwrap_or(16);
    let workers: usize = get("workers", "4").parse().unwrap_or(4);
    let epochs: usize = get("epochs", "5").parse().unwrap_or(5);
    let seed: u64 = get("seed", "1").parse().unwrap_or(1);
    let model = match get("model", "gcn").as_str() {
        "gcn" => ModelKind::Gcn,
        "sage" => ModelKind::Sage,
        other => return Err(format!("unknown model '{other}'")),
    };

    let requests: u64 = get("requests", "500").parse().map_err(|e| format!("bad requests: {e}"))?;
    let clients: usize = get("clients", "16").parse().map_err(|e| format!("bad clients: {e}"))?;
    let cache: usize = get("cache", "256").parse().map_err(|e| format!("bad cache: {e}"))?;
    let pinned: usize = get("pinned", "32").parse().map_err(|e| format!("bad pinned: {e}"))?;
    let bits: u8 = get("bits", "0").parse().map_err(|e| format!("bad bits: {e}"))?;
    let straggler: f64 =
        get("straggler", "0").parse().map_err(|e| format!("bad straggler: {e}"))?;
    let zipf: f64 = get("zipf", "0.9").parse().map_err(|e| format!("bad zipf: {e}"))?;

    if !opts.quiet {
        print_run_banner(&dataset, vertices, dims_cap);
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
    let explicit_ckpt = kv.get("checkpoint").map(PathBuf::from);
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
    let workload = WorkloadConfig {
        clients,
        total_requests: requests,
        zipf_exponent: zipf,
        seed,
        ..WorkloadConfig::defaults()
    };
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

fn parse_fp(s: &str) -> Result<FpMode, String> {
    let (kind, arg) = s.split_once(':').unwrap_or((s, ""));
    let num = || arg.parse::<u8>().map_err(|_| format!("bad numeric argument in '{s}'"));
    match kind {
        "exact" => Ok(FpMode::Exact),
        "cp" => Ok(FpMode::Compressed { bits: num()? }),
        "reqec" => Ok(FpMode::ReqEc { bits: num()?, t_tr: 10, adaptive: false }),
        "reqec-adapt" => Ok(FpMode::ReqEc { bits: num()?, t_tr: 10, adaptive: true }),
        "delayed" => {
            Ok(FpMode::Delayed { r: arg.parse().map_err(|_| format!("bad delay in '{s}'"))? })
        }
        other => Err(format!("unknown fp mode '{other}'")),
    }
}

fn parse_bp(s: &str) -> Result<BpMode, String> {
    let (kind, arg) = s.split_once(':').unwrap_or((s, ""));
    let num = || arg.parse::<u8>().map_err(|_| format!("bad numeric argument in '{s}'"));
    match kind {
        "exact" => Ok(BpMode::Exact),
        "cp" => Ok(BpMode::Compressed { bits: num()? }),
        "resec" => Ok(BpMode::ResEc { bits: num()? }),
        other => Err(format!("unknown bp mode '{other}'")),
    }
}
