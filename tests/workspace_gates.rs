//! Tier-1 reach: `cargo test -q` at the root runs only the umbrella crate's
//! suites, so without this file the Tier-1 line could pass while ec-lint,
//! its fixtures or the pool's interleaving model fail. Each gate here is a
//! thin call into a check that lives elsewhere.

use ec_lint::config::LintConfig;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};

/// The pool's `JobQueue`/`Latch` interleaving explorer at its quick bounds
/// (`RUSTFLAGS="--cfg ec_loom"` widens them, as in CI's loom job).
#[path = "../crates/tensor/tests/interleave.rs"]
mod interleave;

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn lint(root: &Path) -> Vec<ec_lint::diag::Diagnostic> {
    let toml = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml");
    ec_lint::run(root, &LintConfig::parse(&toml).expect("lint.toml parses")).expect("lint runs")
}

#[test]
fn workspace_is_lint_clean() {
    let diags = lint(&workspace_root());
    let rendered: Vec<String> = diags.iter().map(ToString::to_string).collect();
    assert!(diags.is_empty(), "ec-lint findings:\n{}", rendered.join("\n"));
}

/// The fixture corpus still seeds every rule ec-lint knows, and its output
/// is the committed snapshot.
#[test]
fn lint_fixtures_fire_every_known_rule_and_match_the_snapshot() {
    let fixtures = workspace_root().join("crates/lint/tests/fixtures");
    let diags = lint(&fixtures);
    let fired: BTreeSet<&str> = diags.iter().map(|d| d.rule.as_str()).collect();
    let known: BTreeSet<&str> = ec_lint::KNOWN_RULES.iter().copied().collect();
    assert_eq!(fired, known);
    let expected = std::fs::read_to_string(fixtures.join("expected.txt")).expect("snapshot");
    let rendered: String = diags.iter().map(|d| format!("{d}\n")).collect();
    assert_eq!(rendered, expected.rsplit_once("ec-lint:").expect("summary line").0);
}

/// The compiler enforces the determinism and concurrency invariants
/// (`clippy.toml`, `forbid(unsafe_code)`); this pins the places it was told
/// to look away, so an `#[allow]` cannot quietly widen them.
#[test]
fn escape_hatches_are_a_closed_list() {
    let root = workspace_root();
    let sources: Vec<(String, String)> = ec_lint::collect_rust_files(&root)
        .expect("workspace walk")
        .into_iter()
        .filter(|rel| rel != file!())
        .map(|rel| {
            let text = std::fs::read_to_string(root.join(&rel)).expect("readable source");
            (rel, text)
        })
        .collect();
    let containing = |needle: &str| -> Vec<&str> {
        let hits = sources.iter().filter(|(_, text)| text.contains(needle));
        hits.map(|(rel, _)| rel.as_str()).collect()
    };
    assert_eq!(
        containing("clippy::disallowed_"),
        [
            "crates/comm/src/clock.rs",
            "crates/core/src/exec.rs",
            "crates/lint/tests/clippy_bans.rs",
            "crates/tensor/src/pool.rs",
            // The allocation-budget test's counting `#[global_allocator]`.
            "tests/serving_alloc.rs"
        ]
    );
    assert_eq!(containing("allow(unsafe_code"), [""; 0]);
    // The two `unsafe` sites: entering `#[target_feature]` kernel code behind
    // a detected-feature proof token, and the pool's lifetime-erased tasks.
    assert_eq!(
        containing("expect(unsafe_code"),
        ["crates/tensor/src/isa.rs", "crates/tensor/src/pool.rs"]
    );

    let roots = sources.iter().filter(|(rel, _)| rel.ends_with("src/lib.rs"));
    for (rel, text) in roots.filter(|(rel, _)| !rel.starts_with("perfbench/")) {
        let unsafe_gate = if rel == "crates/tensor/src/lib.rs" {
            "#![deny(unsafe_code, clippy::undocumented_unsafe_blocks, clippy::unnecessary_safety_comment)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        for attr in [unsafe_gate, "#![deny(clippy::iter_over_hash_type)]"] {
            assert!(text.lines().any(|l| l == attr), "{rel} must carry `{attr}`");
        }
    }
}
