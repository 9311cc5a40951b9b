//! `lint.toml` — which rules run where.
//!
//! The parser is a hand-rolled subset of TOML (the offline build has no
//! `toml` crate): `[section]` headers, `key = "string"`, and
//! `key = ["a", "b"]` single-line string arrays. Comments start with `#`.
//!
//! ```toml
//! [unused-suppression]
//! severity = "error"
//! include = ["crates", "tests"]
//! exclude = ["crates/lint/src", "crates/lint/tests/fixtures"]
//! ```
//!
//! `include`/`exclude` entries are workspace-relative path prefixes,
//! matched at component boundaries (`crates/core` matches
//! `crates/core/src/engine.rs`, not `crates/core2`). A rule only runs on
//! files under some `include` prefix and under no `exclude` prefix; a
//! prefix that matches no file at all is reported by [`crate::run`] (a
//! scope that silently rots is how a rule stops guarding anything).

use crate::diag::Severity;
use std::collections::BTreeMap;

/// Keys a rule section may set.
const KNOWN_KEYS: &[&str] = &["severity", "include", "exclude", "lock", "entry_points"];

/// Where one rule applies, and how hard it fails.
#[derive(Clone, Debug, Default)]
pub struct RuleConfig {
    /// Diagnostics from this rule carry this severity.
    pub severity: Severity,
    /// Path prefixes the rule runs on.
    pub include: Vec<String>,
    /// Path prefixes carved out of `include`.
    pub exclude: Vec<String>,
    /// Workspace-relative lockfile path (only `wire-schema-lock` uses it).
    pub lock: Option<String>,
    /// Function patterns (fully-qualified or `::`-suffixes) the
    /// reachability analysis starts from (`no-panic-hot-path`).
    pub entry_points: Vec<String>,
    /// 1-based `lint.toml` line each key of this section was set on.
    pub lines: BTreeMap<String, usize>,
}

impl RuleConfig {
    /// Whether `rel_path` (workspace-relative, `/`-separated) is in scope.
    pub fn applies_to(&self, rel_path: &str) -> bool {
        self.include.iter().any(|p| prefix_match(p, rel_path)) && !self.excludes(rel_path)
    }

    /// Whether `rel_path` is carved out by an `exclude` prefix. The
    /// reachability rules use this alone: their scope is the call graph,
    /// not the `include` list (which stays as the token-scan fallback).
    pub fn excludes(&self, rel_path: &str) -> bool {
        self.exclude.iter().any(|p| prefix_match(p, rel_path))
    }

    /// The `lint.toml` line `key` was set on (1 for hand-built configs).
    pub fn line_of(&self, key: &str) -> usize {
        self.lines.get(key).copied().unwrap_or(1)
    }

    /// `(key, prefix)` for every `include`/`exclude` prefix under which
    /// `files` has nothing — a typo or a moved directory, either of which
    /// would silently shrink (or fail to carve) the rule's scope.
    pub fn dead_prefixes(&self, files: &[String]) -> Vec<(&'static str, &str)> {
        [("include", &self.include), ("exclude", &self.exclude)]
            .into_iter()
            .flat_map(|(key, prefixes)| prefixes.iter().map(move |p| (key, p.as_str())))
            .filter(|(_, p)| !files.iter().any(|f| prefix_match(p, f)))
            .collect()
    }
}

fn prefix_match(prefix: &str, path: &str) -> bool {
    path == prefix
        || (path.len() > prefix.len()
            && path.starts_with(prefix)
            && path.as_bytes()[prefix.len()] == b'/')
}

/// The whole config: rule name → scope. `BTreeMap` so rules run (and
/// report) in a stable order.
#[derive(Clone, Debug, Default)]
pub struct LintConfig {
    /// Per-rule scopes, keyed by rule name.
    pub rules: BTreeMap<String, RuleConfig>,
}

impl LintConfig {
    /// Parses the `lint.toml` subset described in the module docs.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut rules: BTreeMap<String, RuleConfig> = BTreeMap::new();
        let mut current: Option<String> = None;
        // Fold multi-line arrays into one logical line so `include = [`
        // followed by indented entries parses like its single-line form.
        let mut logical: Vec<(usize, String)> = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some((_, buf)) = logical.last_mut() {
                if buf.contains('=') && buf.matches('[').count() > buf.matches(']').count() {
                    buf.push(' ');
                    buf.push_str(line);
                    continue;
                }
            }
            logical.push((idx, line.to_string()));
        }
        for (idx, line) in &logical {
            let line = line.as_str();
            let err = |msg: String| format!("lint.toml:{}: {msg}", idx + 1);
            if let Some(name) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
                let name = name.trim();
                if name.is_empty() {
                    return Err(err("empty section name".into()));
                }
                if !crate::KNOWN_RULES.contains(&name) {
                    return Err(err(format!(
                        "unknown rule [{name}]{}",
                        did_you_mean(name, crate::KNOWN_RULES)
                    )));
                }
                rules.entry(name.to_string()).or_default();
                current = Some(name.to_string());
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(err(format!("expected `key = value`, got {line:?}")));
            };
            let section = current.as_ref().ok_or_else(|| err("key before any [section]".into()))?;
            let rule = rules.get_mut(section).ok_or_else(|| err("unknown section".into()))?;
            let key = key.trim();
            rule.lines.insert(key.to_string(), idx + 1);
            match key {
                "severity" => {
                    rule.severity = Severity::parse(&parse_string(value.trim()).map_err(&err)?)
                        .map_err(&err)?;
                }
                "include" => rule.include = parse_string_array(value.trim()).map_err(&err)?,
                "exclude" => rule.exclude = parse_string_array(value.trim()).map_err(&err)?,
                "lock" => rule.lock = Some(parse_string(value.trim()).map_err(&err)?),
                "entry_points" => {
                    rule.entry_points = parse_string_array(value.trim()).map_err(&err)?;
                }
                other => {
                    return Err(err(format!(
                        "unknown key {other:?}{}",
                        did_you_mean(other, KNOWN_KEYS)
                    )));
                }
            }
        }
        for (name, rule) in &rules {
            if rule.include.is_empty() {
                return Err(format!("rule [{name}] has no include paths"));
            }
        }
        Ok(Self { rules })
    }
}

/// `; did you mean "…"?` when some candidate is within edit distance 3 of
/// `got` (the closest one wins; ties break toward the first candidate).
fn did_you_mean(got: &str, candidates: &[&str]) -> String {
    let mut best: Option<(usize, &str)> = None;
    for c in candidates {
        let d = edit_distance(got, c);
        if best.is_none_or(|(bd, _)| d < bd) {
            best = Some((d, c));
        }
    }
    match best {
        Some((d, c)) if d <= 3 => format!("; did you mean {c:?}?"),
        _ => String::new(),
    }
}

/// Levenshtein distance, two-row dynamic program.
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    let mut cur = vec![0usize; b.len() + 1];
    for (i, ca) in a.iter().enumerate() {
        cur[0] = i + 1;
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur[j + 1] = sub.min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[b.len()]
}

/// Cuts a trailing `# comment` — safe because values in this subset never
/// contain `#` inside strings (paths and severities).
fn strip_comment(line: &str) -> &str {
    match line.find('#') {
        Some(pos) => &line[..pos],
        None => line,
    }
}

fn parse_string(v: &str) -> Result<String, String> {
    let v = v.trim();
    v.strip_prefix('"')
        .and_then(|s| s.strip_suffix('"'))
        .map(str::to_string)
        .ok_or_else(|| format!("expected a quoted string, got {v:?}"))
}

fn parse_string_array(v: &str) -> Result<Vec<String>, String> {
    let v = v.trim();
    let inner = v
        .strip_prefix('[')
        .and_then(|s| s.strip_suffix(']'))
        .ok_or_else(|| format!("expected [\"a\", \"b\"], got {v:?}"))?;
    let inner = inner.trim();
    if inner.is_empty() {
        return Ok(Vec::new());
    }
    inner
        .split(',')
        .map(str::trim)
        .filter(|item| !item.is_empty()) // tolerate a trailing comma
        .map(parse_string)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sections_keys_and_arrays() {
        let cfg = LintConfig::parse(
            r#"
# top comment
[wire-hygiene]
severity = "error"
include = ["crates"]           # trailing comment
exclude = ["crates/bench", "crates/comm/src/clock.rs"]

[unused-suppression]
severity = "warn"
include = ["crates", "tests"]
"#,
        )
        .unwrap();
        assert_eq!(cfg.rules.len(), 2);
        let wh = &cfg.rules["wire-hygiene"];
        assert_eq!(wh.severity, Severity::Error);
        assert_eq!(wh.exclude.len(), 2);
        assert_eq!((wh.line_of("include"), wh.line_of("exclude")), (5, 6));
        assert_eq!(cfg.rules["unused-suppression"].severity, Severity::Warn);
    }

    #[test]
    fn parses_multi_line_arrays_with_trailing_commas() {
        let cfg = LintConfig::parse(
            r#"
[wire-hygiene]
severity = "error"
include = [
    "crates/core",   # comment on an entry
    "crates/comm",
]
"#,
        )
        .unwrap();
        let rule = &cfg.rules["wire-hygiene"];
        assert_eq!(rule.include, vec!["crates/core".to_string(), "crates/comm".to_string()]);
    }

    #[test]
    fn prefix_matching_respects_component_boundaries() {
        let rule = RuleConfig {
            include: vec!["crates/core".into()],
            exclude: vec!["crates/core/src/bin".into()],
            ..RuleConfig::default()
        };
        assert!(rule.applies_to("crates/core/src/engine.rs"));
        assert!(!rule.applies_to("crates/core2/src/engine.rs"));
        assert!(!rule.applies_to("crates/core/src/bin/ecgraph.rs"));
    }

    #[test]
    fn exact_file_includes_work() {
        let rule =
            RuleConfig { include: vec!["crates/comm/src/ps.rs".into()], ..RuleConfig::default() };
        assert!(rule.applies_to("crates/comm/src/ps.rs"));
        assert!(!rule.applies_to("crates/comm/src/network.rs"));
    }

    #[test]
    fn prefixes_that_match_no_file_are_dead() {
        let rule = RuleConfig {
            include: vec!["crates/core".into(), "crates/nope".into()],
            exclude: vec!["crates/core/src/gone.rs".into()],
            ..RuleConfig::default()
        };
        let files = ["crates/core/src/engine.rs".to_string()];
        assert_eq!(
            rule.dead_prefixes(&files),
            [("include", "crates/nope"), ("exclude", "crates/core/src/gone.rs")]
        );
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(LintConfig::parse("severity = \"error\"").is_err(), "key before section");
        assert!(LintConfig::parse("[wire-hygiene]\nseverity error").is_err(), "missing =");
        assert!(LintConfig::parse("[wire-hygiene]\nseverity = \"loud\"").is_err(), "bad severity");
        assert!(LintConfig::parse("[wire-hygiene]\nseverity = \"warn\"").is_err(), "no includes");
    }

    #[test]
    fn unknown_sections_are_hard_errors_with_suggestions() {
        let err = LintConfig::parse("[wire-hygeine]\ninclude = [\"crates\"]").unwrap_err();
        assert!(err.contains("unknown rule [wire-hygeine]"), "{err}");
        assert!(err.contains("did you mean \"wire-hygiene\"?"), "{err}");
        // Far from every known rule: no suggestion, still an error. A rule
        // that moved to clippy.toml is unknown like any other.
        let err = LintConfig::parse("[totally-made-up-pass-name-xyz]").unwrap_err();
        assert!(err.contains("unknown rule"), "{err}");
        assert!(!err.contains("did you mean"), "{err}");
        assert!(LintConfig::parse("[determinism-taint]\ninclude = [\"crates\"]").is_err());
    }

    #[test]
    fn unknown_keys_are_hard_errors_with_suggestions() {
        let err = LintConfig::parse("[wire-hygiene]\nincldue = [\"crates\"]").unwrap_err();
        assert!(err.contains("unknown key \"incldue\""), "{err}");
        assert!(err.contains("did you mean \"include\"?"), "{err}");
        assert!(LintConfig::parse("[wire-hygiene]\nsinks = [\"f\"]").is_err(), "retired key");
    }

    #[test]
    fn entry_points_parse() {
        let cfg = LintConfig::parse(
            "[no-panic-hot-path]\ninclude = [\"crates\"]\n\
             entry_points = [\"DistributedEngine::run_epoch\"]",
        )
        .unwrap();
        let rule = &cfg.rules["no-panic-hot-path"];
        assert_eq!(rule.entry_points, vec!["DistributedEngine::run_epoch".to_string()]);
        assert_eq!(rule.line_of("entry_points"), 3);
    }
}
