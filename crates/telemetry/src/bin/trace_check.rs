//! `trace_check`: validates exported telemetry files.
//!
//! Usage: `trace_check <file>...` — each `.jsonl` file is checked line by
//! line, everything else as one JSON document. Exits non-zero on the
//! first malformed file. Used by `scripts/check.sh --trace-smoke`.

use std::process::ExitCode;

fn check_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("read failed: {e}"))?;
    if path.ends_with(".jsonl") {
        let lines = ec_trace::export::parse_jsonl(&text)?.len();
        Ok(format!("{lines} JSONL lines"))
    } else {
        serde_json::from_str(&text).map_err(|e| e.to_string())?;
        Ok(format!("{} bytes of JSON", text.len()))
    }
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: trace_check <file>...");
        return ExitCode::from(2);
    }
    let mut ok = true;
    for path in &paths {
        match check_file(path) {
            Ok(desc) => println!("trace_check: {path}: OK ({desc})"),
            Err(e) => {
                eprintln!("trace_check: {path}: INVALID: {e}");
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
