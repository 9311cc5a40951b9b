//! `trace_diff`: structural regression diff of two metrics/bench JSON
//! documents (metrics exports, serve reports, benchmark result sets —
//! anything the exporters or bench bins write).
//!
//! Usage:
//! `trace_diff <before.json> <after.json> [rel=0.05] [abs=1e-9]
//! [out=verdict.json] [--quiet]`
//!
//! Prints the human table unless `--quiet`; `out=` additionally writes
//! the machine JSON verdict. Exit codes: `0` no regressions (unchanged /
//! improved / schema-only change), `3` at least one series regressed,
//! `1` unreadable or malformed input, `2` bad usage. CI runs this as a
//! *soft* gate — the verdict is archived, the job does not fail on 3.
//!
//! `ecgraph compare` is the same driver ([`ec_trace::diff::cli_run`])
//! mounted as a subcommand.

use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(ec_trace::diff::cli_run("trace_diff", &args))
}
