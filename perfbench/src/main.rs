//! `perf` — the repository's benchmark: host seconds per epoch, simulated
//! seconds per epoch and host microseconds per served request for every
//! dataset replica, with a row per layer beneath them.
//!
//! ```text
//! perf [--workload NAME] [--seed S] [--seeds N] [--seconds T] [--trace 0|1] [--out FILE]
//! perf --agree A.json B.json
//! perf --smoke
//! ```
//!
//! Every run prints one row per metric (`workload metric value unit`) and,
//! last, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics without `--trace`, the per-layer
//! metrics with it. The exit code is non-zero when an output check fails.
//! See `README.md` beside this package for definitions and reasons.

mod agree;
mod alloc;
mod e2e;
mod layers;
mod report;
mod serve;
mod setup;
mod stats;
mod trace;
mod traced;
mod train;
mod workloads;

use report::{RunResult, END_TO_END, PER_LAYER, THREAD_ROWS};
use serde_json::{json, Value};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{Workload, ALL};

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Seconds a run measures for when `--seconds` is not given (the
/// `run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;

struct Args {
    workload: Option<String>,
    seed: u64,
    seeds: u64,
    seconds: f64,
    trace: bool,
    out: Option<String>,
    agree: Option<(String, String)>,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seeds: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        agree: None,
        smoke: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| it.next().ok_or_else(|| format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a name")?),
            "--seed" => {
                args.seed = value("a number")?.parse().map_err(|e| format!("--seed: {e}"))?
            }
            "--seeds" => {
                args.seeds = value("a count")?.parse().map_err(|e| format!("--seeds: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--out" => args.out = Some(value("a file")?),
            "--agree" => args.agree = Some((value("two files")?, value("two files")?)),
            "--smoke" => args.smoke = true,
            // `--trace 0|1` as the driver passes it; a bare `--trace` means 1.
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") | Some("1") => it.next().as_deref() == Some("1"),
                    _ => true,
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let seconds_ok = args.seconds.is_finite() && args.seconds > 0.0;
    if !seconds_ok || args.seeds == 0 {
        return Err("--seconds and --seeds must be positive".into());
    }
    Ok(args)
}

/// First line of a command's standard output, or `unknown` when the
/// command is missing or fails (the driver's checkout is not a git
/// repository). `output()` waits for the child to end.
fn first_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".into())
}

/// The `--out` document: provenance plus every run.
fn document(args: &Args, runs: &[RunResult]) -> Value {
    let ceilings: Vec<Value> = runs
        .iter()
        .filter(|r| r.traced)
        .map(|r| {
            json!({
                "workload": r.workload,
                "host.stream_gbps": r.metrics.get("host.stream_gbps"),
                "host.fma_gflops": r.metrics.get("host.fma_gflops"),
            })
        })
        .collect();
    // The shim's `json!` takes expressions as values, not nested literals.
    let provenance = json!({
        "nproc": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "git_revision": first_line("git", &["rev-parse", "HEAD"]),
        "rustc": first_line("rustc", &["--version"]),
        "first_seed": args.seed,
        "seeds": args.seeds,
        "seconds": args.seconds,
        "compute": "end-to-end and traced runs are sequential; thread rows come from the traced run and are omitted when the default resolves to one thread",
        "host_ceilings": ceilings,
    });
    json!({
        "benchmark": "perfbench",
        "provenance": provenance,
        "runs": runs.iter().map(RunResult::to_json).collect::<Vec<_>>(),
    })
}

/// `--smoke`: every workload at about 1/20 size, end to end and traced,
/// asserting that every catalog metric is emitted exactly once, finite,
/// under a well-formed name. Returns the problems found.
fn smoke() -> Vec<String> {
    let mut problems = Vec::new();
    for w in ALL.iter().map(Workload::smoke) {
        for (traced, catalog) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let run = if traced { traced::run(&w, 1, 0.2) } else { e2e::run(&w, 1, 0.2) };
            let label = format!("{}{}", w.name, if traced { " (traced)" } else { "" });
            for c in run.checks.iter().filter(|c| !c.ok) {
                problems.push(format!("{label}: check {} failed ({})", c.name, c.detail));
            }
            if run.failed > 0 {
                problems.push(format!(
                    "{label}: {} of {} operations failed",
                    run.failed, run.attempted
                ));
            }
            for (name, _, _) in catalog {
                let hits: Vec<f64> =
                    run.metrics.0.iter().filter(|m| m.name == *name).map(|m| m.value).collect();
                match hits.as_slice() {
                    [v] if v.is_finite() => {}
                    [v] => problems.push(format!("{label}: {name} = {v} is not finite")),
                    other => {
                        problems.push(format!("{label}: {name} emitted {} times", other.len()))
                    }
                }
            }
            for m in &run.metrics.0 {
                let known = catalog.iter().chain(&THREAD_ROWS).any(|d| d.0 == m.name);
                if !known || !report::valid_name(m.name) {
                    problems.push(format!("{label}: unexpected metric {}", m.name));
                }
            }
            println!("smoke {label}: {} metrics in {:.2} s", run.metrics.0.len(), run.wall_s);
        }
    }
    problems
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.agree {
        return ExitCode::from(agree::main(a, b, "BENCHMARK.json") as u8);
    }
    if args.smoke {
        let start = Instant::now();
        let problems = smoke();
        for p in &problems {
            eprintln!("smoke: {p}");
        }
        println!("smoke: {} problems in {:.1} s", problems.len(), start.elapsed().as_secs_f64());
        return ExitCode::from(u8::from(!problems.is_empty()));
    }

    let selected: Vec<Workload> = match &args.workload {
        None => ALL.to_vec(),
        Some(name) => match Workload::find(name) {
            Some(w) => vec![w],
            None => {
                let names: Vec<&str> = ALL.iter().map(|w| w.name).collect();
                eprintln!("perf: unknown workload {name}; choose one of {}", names.join(", "));
                return ExitCode::from(2);
            }
        },
    };
    // Every run ends with the contract's result line, so the driver — one
    // workload, one seed — finds it last on standard output.
    let catalog = if args.trace { &PER_LAYER[..] } else { &END_TO_END[..] };
    let mut runs = Vec::new();
    for w in &selected {
        println!("# {}: {}", w.name, w.why);
        for seed in args.seed..args.seed + args.seeds {
            let run = if args.trace {
                traced::run(w, seed, args.seconds)
            } else {
                e2e::run(w, seed, args.seconds)
            };
            run.print_rows();
            println!("{}", run.contract_line(catalog));
            runs.push(run);
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, document(&args, &runs).to_string()) {
            eprintln!("perf: cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        eprintln!("perf: wrote {path}");
    }
    ExitCode::from(u8::from(!runs.iter().all(RunResult::correct)))
}
