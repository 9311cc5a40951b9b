//! Golden-file tests: the fixture tree under `tests/fixtures/` seeds one or
//! more violations per rule, and `expected.txt` is the snapshot of the
//! CLI's human-readable output over it. Regenerate after an intentional
//! rule change with:
//!
//! ```sh
//! cargo run -q -p ec-lint -- --check --root crates/lint/tests/fixtures \
//!     > crates/lint/tests/fixtures/expected.txt
//! ```

use ec_lint::config::LintConfig;
use ec_lint::diag::Severity;
use std::path::Path;
use std::process::Command;

fn fixtures_root() -> std::path::PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn fixture_diags() -> Vec<ec_lint::diag::Diagnostic> {
    let root = fixtures_root();
    let toml = std::fs::read_to_string(root.join("lint.toml")).unwrap();
    let config = LintConfig::parse(&toml).unwrap();
    ec_lint::run(&root, &config).unwrap()
}

#[test]
fn fixture_diagnostics_match_the_snapshot() {
    let diags = fixture_diags();
    let expected = std::fs::read_to_string(fixtures_root().join("expected.txt")).unwrap();
    // The snapshot is the CLI output: diagnostics plus a trailing summary.
    let expected_diags: Vec<&str> =
        expected.lines().filter(|l| !l.starts_with("ec-lint:")).collect();
    // Multiline messages (wire-schema-lock drift) render as several
    // output lines; flatten the same way the CLI prints them.
    let got: Vec<String> = diags
        .iter()
        .flat_map(|d| d.to_string().lines().map(str::to_owned).collect::<Vec<_>>())
        .collect();
    assert_eq!(
        got, expected_diags,
        "fixture diagnostics drifted from tests/fixtures/expected.txt; \
         regenerate it if the change is intentional"
    );
}

#[test]
fn every_rule_fires_on_the_fixtures() {
    let diags = fixture_diags();
    for rule in ec_lint::KNOWN_RULES {
        assert!(
            diags.iter().any(|d| d.rule == *rule),
            "rule {rule} produced no fixture findings — is it still wired up?"
        );
    }
    // The catalog rule is configured warn-severity in the fixture config;
    // the rest error.
    assert!(diags.iter().any(|d| d.severity == Severity::Warn));
    assert!(diags.iter().any(|d| d.severity == Severity::Error));
}

#[test]
fn exempt_fixture_lines_stay_clean() {
    let diags = fixture_diags();
    // hot_path.rs: `assert!` and the test module are allowed.
    assert!(!diags.iter().any(|d| d.path == "src/hot_path.rs" && d.line > 17), "{diags:?}");
    // wire_bad.rs: `CoveredPayload` derives both directions and round-trips.
    assert!(!diags.iter().any(|d| d.message.contains("CoveredPayload")), "{diags:?}");
    // metrics.rs: `Tolerated` is suppressed, `Alive` is recorded.
    assert!(!diags.iter().any(|d| d.message.contains("Tolerated")), "{diags:?}");
    assert!(!diags.iter().any(|d| d.message.contains("`Alive`")), "{diags:?}");
    // wire_types.rs: StableHeader matches its entry; ScratchState is not
    // a wire type at all.
    assert!(!diags.iter().any(|d| d.message.contains("StableHeader")), "{diags:?}");
    assert!(!diags.iter().any(|d| d.message.contains("ScratchState")), "{diags:?}");
    // stale_allow.rs: the suppression that covers a real unwrap is used.
    assert!(!diags.iter().any(|d| d.path == "src/stale_allow.rs" && d.line < 10), "{diags:?}");
    // lock_order.rs: the drop-then-lock sequence is clean.
    assert!(!diags.iter().any(|d| d.path == "src/lock_order.rs" && d.line > 24), "{diags:?}");
}

#[test]
fn cli_exits_nonzero_on_fixtures_and_zero_on_the_workspace() {
    let bin = env!("CARGO_BIN_EXE_ec-lint");
    let fixtures =
        Command::new(bin).args(["--check", "--root"]).arg(fixtures_root()).output().unwrap();
    assert_eq!(fixtures.status.code(), Some(1), "fixtures must fail the check");

    let workspace_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let workspace =
        Command::new(bin).args(["--check", "--root"]).arg(&workspace_root).output().unwrap();
    assert!(
        workspace.status.success(),
        "workspace must be lint-clean:\n{}",
        String::from_utf8_lossy(&workspace.stdout)
    );
}

/// Builds the call graph over a workspace root the same way `run` does,
/// so tests can inspect it directly.
fn analysis_over(root: &Path) -> (Vec<String>, ec_lint::callgraph::Analysis) {
    let files = ec_lint::collect_rust_files(root).unwrap();
    let mut lexed = std::collections::BTreeMap::new();
    for rel in &files {
        let src = std::fs::read_to_string(root.join(rel)).unwrap();
        lexed.insert(rel.clone(), ec_lint::lexer::lex(&src));
    }
    let ws = ec_lint::symbols::Workspace::build(root, &lexed).unwrap();
    (files, ec_lint::callgraph::Analysis::from_files(&ws, &lexed))
}

#[test]
fn fixture_call_graph_matches_the_snapshot() {
    let (_, analysis) = analysis_over(&fixtures_root());
    let mut dump = String::new();
    for (fq, node) in &analysis.nodes {
        let sites: Vec<&str> = node.panics.iter().map(|s| s.what.as_str()).collect();
        dump.push_str(&format!("fn {fq} panics=[{}]\n", sites.join(", ")));
        for callee in &analysis.adjacency[fq] {
            dump.push_str(&format!("  -> {callee}\n"));
        }
    }
    let snapshot = fixtures_root().join("callgraph.txt");
    if std::env::var("UPDATE_CALLGRAPH_SNAPSHOT").is_ok() {
        std::fs::write(&snapshot, &dump).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&snapshot).expect(
        "tests/fixtures/callgraph.txt missing; regenerate with \
         UPDATE_CALLGRAPH_SNAPSHOT=1 cargo test -p ec-lint --test golden",
    );
    assert_eq!(
        dump, expected,
        "fixture call graph drifted from tests/fixtures/callgraph.txt; \
         regenerate it if the change is intentional"
    );
}

/// Acceptance: the call graph is total over the real workspace — every
/// non-fixture `.rs` file parses into the symbol table and yields a
/// summary, and every summarized function landed in the graph.
#[test]
fn call_graph_covers_every_workspace_file() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let (files, analysis) = analysis_over(&root);
    let covered: std::collections::BTreeSet<&str> =
        analysis.nodes.values().map(|n| n.path.as_str()).collect();
    for rel in &files {
        if rel.starts_with("tests/fixtures/") || rel.contains("/tests/fixtures/") {
            continue;
        }
        // A file whose parse yields no `fn` items contributes no nodes —
        // e.g. one whose functions all live inside macro invocations,
        // which the tolerant parser deliberately treats as opaque. Every
        // file with at least one parsed `fn` must appear in the graph.
        let src = std::fs::read_to_string(root.join(rel)).unwrap();
        let lexed = ec_lint::lexer::lex(&src);
        let parsed = ec_lint::parser::parse(&lexed).unwrap();
        let has_fns = parsed.all_items().iter().any(|i| i.kind == ec_lint::parser::ItemKind::Fn);
        if has_fns {
            assert!(covered.contains(rel.as_str()), "no call-graph nodes from {rel}");
        }
    }
    assert!(analysis.nodes.len() > 1000, "workspace graph suspiciously small");
}
