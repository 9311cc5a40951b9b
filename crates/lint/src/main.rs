//! `ec-lint` CLI.
//!
//! ```sh
//! cargo run -p ec-lint -- --check            # exit 1 on errors
//! ```
//!
//! Flags: `--check` (required mode), `--root <dir>` (default `.`),
//! `--config <file>` (default `<root>/lint.toml`).
//!
//! With `UPDATE_WIRE_LOCK=1` in the environment, the `wire-schema-lock`
//! rule rewrites its lockfile from the current sources instead of
//! checking against it; commit the regenerated lock with the schema
//! change that motivated it.

use ec_lint::config::LintConfig;
use ec_lint::diag::Severity;
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut root = PathBuf::from(".");
    let mut config_path: Option<PathBuf> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--root" => match it.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a value"),
            },
            "--config" => match it.next() {
                Some(v) => config_path = Some(PathBuf::from(v)),
                None => return usage("--config needs a value"),
            },
            "--help" | "-h" => return usage(""),
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }
    if !check {
        return usage("pass --check to run the analysis");
    }

    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));
    let toml = match std::fs::read_to_string(&config_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("ec-lint: cannot read {}: {e}", config_path.display());
            return ExitCode::from(2);
        }
    };
    let result = LintConfig::parse(&toml)
        .and_then(|config| Ok((config.rules.len(), ec_lint::run(&root, &config)?)));
    let (rules, diags) = match result {
        Ok(ok) => ok,
        Err(e) => {
            eprintln!("ec-lint: {e}");
            return ExitCode::from(2);
        }
    };

    for d in &diags {
        println!("{d}");
    }
    let errors = diags.iter().filter(|d| d.severity == Severity::Error).count();
    if diags.is_empty() {
        println!("ec-lint: clean ({rules} rules)");
    } else {
        println!("ec-lint: {} finding(s), {errors} error(s)", diags.len());
    }
    if errors > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("ec-lint: {err}");
    }
    eprintln!(
        "usage: ec-lint --check [--root <dir>] [--config <lint.toml>]\n\
         Runs the workspace invariant lints; exits non-zero on errors.\n\
         UPDATE_WIRE_LOCK=1 regenerates the wire-schema lockfile in place."
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    }
}
