//! # `ec-lint` — the workspace invariants neither rustc nor clippy can state
//!
//! The reproduction's claims rest on the simulated cluster being a
//! *measurement instrument*: two runs of one config must produce identical
//! traffic, losses, and reports. Most of what protects that property is the
//! compiler's job and lives elsewhere — wall-clock reads, hash-container
//! iteration, `Condvar::wait` and every interior-mutability type are
//! type-resolved bans in the root `clippy.toml`; worker blocks are
//! `Fn + Sync` while sends and telemetry writes need `&mut`, so a block that
//! touches replay-ordered state does not borrow-check; `unsafe` is
//! `forbid`den outside `ec-tensor`. DESIGN.md §8 has the full table. What is
//! left here are the six checks with no compiler equivalent, on a
//! self-contained analyzer (the offline build has no `syn`/`dylint`).
//!
//! Token-pattern rules ([`rules`]):
//!
//! * [`rules::no_panic_hot_path`] — no `unwrap`/`expect`/`panic!` in the
//!   superstep hot paths;
//! * [`rules::wire_hygiene`] — wire types derive both serde directions and
//!   have round-trip tests;
//! * [`rules::lock_then_wait_hygiene`] — no second mutex is taken while a
//!   pool guard is held.
//!
//! Semantic rules ([`sem`]), built on a recursive-descent parser
//! ([`parser`]), a workspace symbol table ([`symbols`]) and the call graph
//! ([`callgraph`]):
//!
//! * `no-panic-hot-path` with `entry_points` configured flags any
//!   panicking function reachable from a superstep/serve entry
//!   ([`sem::no_panic_reachable`]), with the call chain as a note;
//! * [`sem::metric_catalog_sync`] — every `metric_catalog!` id is recorded
//!   somewhere;
//! * [`sem::wire_schema_lock`] — `Serialize` wire types match the
//!   checked-in `wire.lock` fingerprints;
//! * `unused-suppression` (in [`run`]) — every inline allow comment must
//!   still suppress something, and must name a real rule. These findings
//!   are reported after suppression filtering, so they cannot themselves
//!   be suppressed.
//!
//! Scopes live in `lint.toml` ([`config::LintConfig`]); a scope prefix or
//! entry point that matches nothing is itself a finding. Inline escapes are
//! `// ec-lint: allow(<rule>)` on or directly above the flagged line.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]

pub mod callgraph;
pub mod config;
pub mod diag;
pub mod effects;
pub mod lexer;
pub mod parser;
pub mod rules;
pub mod sem;
pub mod symbols;

use callgraph::Analysis;
use config::LintConfig;
use diag::Diagnostic;
use lexer::LexedFile;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use symbols::Workspace;

/// Every rule this binary implements, in the order they are documented.
pub const KNOWN_RULES: &[&str] = &[
    "no-panic-hot-path",
    "wire-hygiene",
    "lock-then-wait-hygiene",
    "metric-catalog-sync",
    "wire-schema-lock",
    "unused-suppression",
];

/// Rules that need the parsed workspace symbol table.
const SEMANTIC_RULES: &[&str] = &["metric-catalog-sync", "wire-schema-lock"];

/// Directories never worth descending into.
const SKIP_DIRS: &[&str] = &["target", ".git", ".claude", "node_modules"];

/// Recursively collects `.rs` files under `root`, returned as
/// workspace-relative `/`-separated paths in sorted order.
pub fn collect_rust_files(root: &Path) -> std::io::Result<Vec<String>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push(rel);
            }
        }
    }
    out.sort();
    Ok(out)
}

/// Runs every configured rule over the workspace at `root`.
///
/// Returns unsuppressed diagnostics sorted by `(path, line, rule)`.
///
/// # Errors
/// An unknown rule name in the config, an unreadable file, or (when a
/// semantic rule is configured) a file whose item structure cannot be
/// parsed.
pub fn run(root: &Path, config: &LintConfig) -> Result<Vec<Diagnostic>, String> {
    for name in config.rules.keys() {
        if !KNOWN_RULES.contains(&name.as_str()) {
            return Err(format!("lint.toml: unknown rule [{name}]"));
        }
    }
    let files = collect_rust_files(root).map_err(|e| format!("walking {root:?}: {e}"))?;
    let mut lexed: BTreeMap<String, LexedFile> = BTreeMap::new();
    for rel in &files {
        let src =
            std::fs::read_to_string(root.join(rel)).map_err(|e| format!("reading {rel}: {e}"))?;
        lexed.insert(rel.clone(), lexer::lex(&src));
    }
    let needs_analysis =
        config.rules.get("no-panic-hot-path").is_some_and(|rc| !rc.entry_points.is_empty());
    let needs_ws =
        needs_analysis || config.rules.keys().any(|r| SEMANTIC_RULES.contains(&r.as_str()));
    let ws: Option<Workspace> = if needs_ws { Some(Workspace::build(root, &lexed)?) } else { None };
    let analysis: Option<Analysis> = match &ws {
        Some(ws) if needs_analysis => Some(Analysis::from_files(ws, &lexed)),
        _ => None,
    };

    let mut diagnostics: Vec<Diagnostic> = Vec::new();
    for (rule_name, rc) in &config.rules {
        for (key, prefix) in rc.dead_prefixes(&files) {
            diagnostics.push(rules::diag(
                rc,
                rule_name,
                "lint.toml",
                rc.line_of(key),
                format!(
                    "{key} prefix {prefix:?} matches no file in the workspace; fix or remove \
                     it — a dead scope guards nothing"
                ),
            ));
        }
        let scoped: Vec<String> = files.iter().filter(|f| rc.applies_to(f)).cloned().collect();
        match rule_name.as_str() {
            "no-panic-hot-path" => {
                // The token scan over the `include` scope always runs; with
                // `entry_points` configured, reachability findings join it.
                // Where both flag one line, the reachability finding wins —
                // it carries the call chain.
                let mut merged: BTreeMap<(String, usize), Diagnostic> = BTreeMap::new();
                if let Some(analysis) = &analysis {
                    for d in sem::no_panic_reachable(rc, analysis) {
                        if d.path == "lint.toml" {
                            diagnostics.push(d); // dead-pattern errors never merge
                        } else {
                            merged.entry((d.path.clone(), d.line)).or_insert(d);
                        }
                    }
                }
                for rel in &scoped {
                    for d in rules::no_panic_hot_path(rc, rel, &lexed[rel]) {
                        merged.entry((d.path.clone(), d.line)).or_insert(d);
                    }
                }
                diagnostics.extend(merged.into_values());
            }
            "wire-hygiene" => {
                let set: Vec<(String, LexedFile)> =
                    scoped.iter().map(|rel| (rel.clone(), lexed[rel].clone())).collect();
                diagnostics.extend(rules::wire_hygiene(rc, &set));
            }
            "lock-then-wait-hygiene" => {
                for rel in &scoped {
                    diagnostics.extend(rules::lock_then_wait_hygiene(rc, rel, &lexed[rel]));
                }
            }
            "metric-catalog-sync" => {
                let ws = ws.as_ref().expect("semantic rule implies workspace");
                diagnostics.extend(sem::metric_catalog_sync(rc, &scoped, &lexed, ws));
            }
            "wire-schema-lock" => {
                let ws = ws.as_ref().expect("semantic rule implies workspace");
                diagnostics.extend(sem::wire_schema_lock(rc, root, &scoped, ws));
            }
            "unused-suppression" => {} // runs after suppression matching below
            other => return Err(format!("lint.toml: unknown rule [{other}]")),
        }
    }

    // Drop findings the source explicitly allows: a suppression comment
    // covers its own line and the line below it. Record which suppressions
    // actually earned their keep — `unused-suppression` audits the rest.
    let mut used: BTreeSet<(String, usize, String)> = BTreeSet::new();
    let mut kept: Vec<Diagnostic> = Vec::new();
    for d in diagnostics {
        let mut suppressed = false;
        if let Some(file) = lexed.get(&d.path) {
            for s in &file.suppressions {
                if (s.rule == d.rule || s.rule == "all")
                    && (s.line == d.line || s.line + 1 == d.line)
                {
                    used.insert((d.path.clone(), s.line, s.rule.clone()));
                    suppressed = true;
                }
            }
        }
        if !suppressed {
            kept.push(d);
        }
    }
    let mut diagnostics = kept;

    if let Some(rc) = config.rules.get("unused-suppression") {
        for rel in files.iter().filter(|f| rc.applies_to(f)) {
            for s in &lexed[rel].suppressions {
                if s.rule != "all" && !KNOWN_RULES.contains(&s.rule.as_str()) {
                    diagnostics.push(rules::diag(
                        rc,
                        "unused-suppression",
                        rel,
                        s.line,
                        format!("`ec-lint: allow({})` names a rule that does not exist", s.rule),
                    ));
                } else if !used.contains(&(rel.clone(), s.line, s.rule.clone())) {
                    diagnostics.push(rules::diag(
                        rc,
                        "unused-suppression",
                        rel,
                        s.line,
                        format!(
                            "`ec-lint: allow({})` matches no finding on this or the next \
                             line; remove the stale suppression",
                            s.rule
                        ),
                    ));
                }
            }
        }
    }

    diagnostics.sort_by(|a, b| (&a.path, a.line, &a.rule).cmp(&(&b.path, b.line, &b.rule)));
    Ok(diagnostics)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The acceptance bar for the whole PR: the workspace itself is
    /// lint-clean under the checked-in `lint.toml`.
    #[test]
    fn workspace_is_lint_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let toml = std::fs::read_to_string(root.join("lint.toml")).expect("lint.toml at repo root");
        let config = LintConfig::parse(&toml).expect("lint.toml parses");
        assert_eq!(config.rules.len(), KNOWN_RULES.len(), "every rule configured");
        let diags = run(&root, &config).expect("lint run succeeds");
        assert!(
            diags.is_empty(),
            "workspace has lint violations:\n{}",
            diags.iter().map(ToString::to_string).collect::<Vec<_>>().join("\n")
        );
    }

    /// Runs `toml` over a scratch workspace holding `src/a.rs`.
    fn run_on(tag: &str, source: &str, toml: &str) -> Vec<Diagnostic> {
        let dir = std::env::temp_dir().join(format!("ec-lint-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("src")).unwrap();
        std::fs::write(dir.join("src/a.rs"), source).unwrap();
        let diags = run(&dir, &LintConfig::parse(toml).unwrap()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        diags
    }

    #[test]
    fn suppressions_silence_a_finding() {
        let diags = run_on(
            "suppr",
            "// ec-lint: allow(no-panic-hot-path)\nfn f() { a.unwrap(); }\nfn g() { b.unwrap(); }\n",
            "[no-panic-hot-path]\nseverity = \"error\"\ninclude = [\"src\"]",
        );
        // Line 2 is covered by the line-1 comment; line 3 is not.
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert_eq!(diags[0].line, 3);
    }

    #[test]
    fn unused_suppressions_are_flagged_and_used_ones_are_not() {
        let diags = run_on(
            "stale",
            "// ec-lint: allow(no-panic-hot-path)\n\
             fn f() { a.unwrap(); }\n\
             // ec-lint: allow(no-panic-hot-path)\n\
             fn nothing_to_allow() {}\n\
             // ec-lint: allow(no-such-rule)\n\
             fn bad_name() {}\n",
            "[no-panic-hot-path]\nseverity = \"error\"\ninclude = [\"src\"]\n\
             [unused-suppression]\nseverity = \"error\"\ninclude = [\"src\"]",
        );
        assert_eq!(diags.len(), 2, "{diags:?}");
        assert_eq!(diags[0].line, 3);
        assert!(diags[0].message.contains("matches no finding"));
        assert_eq!(diags[1].line, 5);
        assert!(diags[1].message.contains("does not exist"));
    }

    /// A scope that rots silently is how a rule stops guarding anything:
    /// an `include`/`exclude` prefix under which the workspace has no file
    /// is a finding on the `lint.toml` line that set it.
    #[test]
    fn scope_prefixes_that_match_no_file_are_findings() {
        let diags = run_on(
            "scope",
            "fn f() {}\n",
            "[wire-hygiene]\ninclude = [\"src\", \"crates/nope\"]\nexclude = [\"src/gone.rs\"]",
        );
        let got: Vec<_> = diags.iter().map(|d| (d.path.as_str(), d.line, &*d.rule)).collect();
        assert_eq!(got, [("lint.toml", 2, "wire-hygiene"), ("lint.toml", 3, "wire-hygiene")]);
        assert!(diags[0].message.contains("include prefix \"crates/nope\""), "{diags:?}");
        assert!(diags[1].message.contains("exclude prefix \"src/gone.rs\""), "{diags:?}");
    }
}
