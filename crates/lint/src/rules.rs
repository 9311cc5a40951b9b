//! The token-pattern rules, as passes over [`LexedFile`]s.
//!
//! Each rule is a heuristic, not a type checker: it trades soundness for
//! zero dependencies. The escape hatch for a deliberate false positive is
//! an inline `// ec-lint: allow(<rule>)` on (or directly above) the line.

use crate::config::RuleConfig;
use crate::diag::Diagnostic;
use crate::effects::panic_sites;
use crate::lexer::{LexedFile, Tok, TokKind};
use std::collections::BTreeSet;

pub(crate) fn ident_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i).filter(|t| t.kind == TokKind::Ident).map(|t| t.text.as_str())
}

fn punct_at(toks: &[Tok], i: usize) -> Option<&str> {
    toks.get(i).filter(|t| t.kind == TokKind::Punct).map(|t| t.text.as_str())
}

pub(crate) fn is_punct(toks: &[Tok], i: usize, p: &str) -> bool {
    punct_at(toks, i) == Some(p)
}

/// Index of the token matching the `{` at `open` (which must be a `{`),
/// or `toks.len()` when unbalanced.
fn matching_brace(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == "{" {
                depth += 1;
            } else if t.text == "}" {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
        }
    }
    toks.len()
}

/// Marks every token inside a `#[test]` / `#[cfg(test)]`-annotated item.
///
/// Heuristic: an attribute whose token list mentions `test` but not `not`
/// makes the next braced item test-only.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if is_punct(toks, i, "#") && is_punct(toks, i + 1, "[") {
            // Collect the attribute's tokens up to its closing `]`.
            let mut j = i + 2;
            let mut depth = 1usize;
            let mut saw_test = false;
            let mut saw_not = false;
            while j < toks.len() && depth > 0 {
                match (toks[j].kind, toks[j].text.as_str()) {
                    (TokKind::Punct, "[") => depth += 1,
                    (TokKind::Punct, "]") => depth -= 1,
                    (TokKind::Ident, "test") => saw_test = true,
                    (TokKind::Ident, "not") => saw_not = true,
                    _ => {}
                }
                j += 1;
            }
            if saw_test && !saw_not {
                // Skip to the annotated item's body and mark it.
                let mut k = j;
                while k < toks.len() && !is_punct(toks, k, "{") {
                    // A `;` first means a braceless item (e.g. a test-only
                    // `use`): nothing more to mark.
                    if is_punct(toks, k, ";") {
                        break;
                    }
                    k += 1;
                }
                if k < toks.len() && is_punct(toks, k, "{") {
                    let end = matching_brace(toks, k);
                    for flag in &mut mask[i..=end.min(toks.len() - 1)] {
                        *flag = true;
                    }
                    i = end + 1;
                    continue;
                }
            }
            i = j;
            continue;
        }
        i += 1;
    }
    mask
}

pub(crate) fn diag(
    rc: &RuleConfig,
    rule: &str,
    path: &str,
    line: usize,
    message: String,
) -> Diagnostic {
    Diagnostic {
        rule: rule.into(),
        severity: rc.severity,
        path: path.into(),
        line,
        message,
        note: None,
    }
}

/// `no-panic-hot-path`: `.unwrap()` / `.expect()` / `panic!` / `todo!` in
/// the per-superstep code paths. A crash mid-superstep would tear down the
/// whole simulated cluster; these paths must surface `Result`s instead.
/// (`assert!` stays allowed: invariant checks on entry are not recovery
/// paths.) Test modules are exempt.
pub fn no_panic_hot_path(rc: &RuleConfig, path: &str, file: &LexedFile) -> Vec<Diagnostic> {
    let toks = &file.tokens;
    panic_sites(toks, &test_mask(toks), (0, toks.len()))
        .into_iter()
        .map(|site| {
            let message =
                format!("{} can panic mid-superstep; propagate a typed error instead", site.what);
            diag(rc, "no-panic-hot-path", path, site.line, message)
        })
        .collect()
}

/// `lock-then-wait-hygiene`: while a `lock(…)` guard binding is live (from
/// its `let` to `drop(guard)` or block end) no second `lock(` may run — the
/// static lock-order discipline that keeps the pool's `JobQueue`/`Latch`
/// pair deadlock-free. (The rule's other half, "`Condvar::wait` sits in a
/// predicate loop", is a `clippy.toml` ban on `Condvar::wait` in favour of
/// `wait_while`.)
pub fn lock_then_wait_hygiene(rc: &RuleConfig, path: &str, file: &LexedFile) -> Vec<Diagnostic> {
    let toks = &file.tokens;
    let mask = test_mask(toks);
    let mut out = Vec::new();
    for (guard, decl_end, region_end) in guard_regions(toks) {
        for j in decl_end..region_end {
            if !mask[j] && ident_at(toks, j) == Some("lock") && is_punct(toks, j + 1, "(") {
                out.push(diag(
                    rc,
                    "lock-then-wait-hygiene",
                    path,
                    toks[j].line,
                    format!(
                        "second `lock()` acquired while guard `{guard}` is still held; \
                         drop the first guard before taking another mutex (lock-order \
                         inversion deadlocks under contention)"
                    ),
                ));
            }
        }
    }
    out
}

/// Live regions of `lock(…)` guard bindings: for each
/// `let [mut] <g> = … lock(…) …;` statement, yields
/// `(name, stmt_end, region_end)` where the region closes at `drop(g)` or
/// at the end of the enclosing block, whichever comes first.
fn guard_regions(toks: &[Tok]) -> Vec<(String, usize, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if ident_at(toks, i) != Some("let") {
            continue;
        }
        let mut k = i + 1;
        if ident_at(toks, k) == Some("mut") {
            k += 1;
        }
        let Some(name) = ident_at(toks, k) else { continue };
        if !is_punct(toks, k + 1, "=") || is_punct(toks, k + 2, "=") {
            continue;
        }
        // Statement end: `;` at zero delimiter depth.
        let mut depth = 0i32;
        let mut j = k + 2;
        let mut takes_lock = false;
        while j < toks.len() {
            match punct_at(toks, j) {
                Some("(" | "[" | "{") => depth += 1,
                Some(")" | "]" | "}") => depth -= 1,
                Some(";") if depth == 0 => break,
                _ => {}
            }
            if ident_at(toks, j) == Some("lock") && is_punct(toks, j + 1, "(") {
                takes_lock = true;
            }
            j += 1;
        }
        if !takes_lock || j >= toks.len() {
            continue;
        }
        let stmt_end = j + 1;
        // Region end: `drop(name)` or the `}` closing the enclosing block.
        let mut end = toks.len();
        let mut d = 0i32;
        for m in stmt_end..toks.len() {
            match punct_at(toks, m) {
                Some("{") => d += 1,
                Some("}") => {
                    d -= 1;
                    if d < 0 {
                        end = m;
                        break;
                    }
                }
                _ => {}
            }
            if ident_at(toks, m) == Some("drop")
                && is_punct(toks, m + 1, "(")
                && ident_at(toks, m + 2) == Some(name)
                && is_punct(toks, m + 3, ")")
            {
                end = m;
                break;
            }
        }
        out.push((name.to_string(), stmt_end, end));
    }
    out
}

/// `wire-hygiene`: every type in the wire-format files that derives
/// `Serialize` must also derive `Deserialize` and be exercised by a test
/// whose name contains `round_trip`. Runs over the rule's whole file set at
/// once so a type and its round-trip test may live in different files.
pub fn wire_hygiene(rc: &RuleConfig, files: &[(String, LexedFile)]) -> Vec<Diagnostic> {
    struct WireType {
        path: String,
        line: usize,
        name: String,
        has_deserialize: bool,
    }
    let mut types: Vec<WireType> = Vec::new();
    let mut round_trip_idents: BTreeSet<String> = BTreeSet::new();

    for (path, file) in files {
        let toks = &file.tokens;
        let mut i = 0usize;
        while i < toks.len() {
            // #[derive(...)] … struct/enum NAME
            if is_punct(toks, i, "#")
                && is_punct(toks, i + 1, "[")
                && ident_at(toks, i + 2) == Some("derive")
                && is_punct(toks, i + 3, "(")
            {
                let line = toks[i].line;
                let mut j = i + 4;
                let mut depth = 1usize;
                let mut derives: BTreeSet<String> = BTreeSet::new();
                while j < toks.len() && depth > 0 {
                    match (toks[j].kind, toks[j].text.as_str()) {
                        (TokKind::Punct, "(") => depth += 1,
                        (TokKind::Punct, ")") => depth -= 1,
                        (TokKind::Ident, id) => {
                            derives.insert(id.to_string());
                        }
                        _ => {}
                    }
                    j += 1;
                }
                // Skip trailing `]`, further attributes, and visibility
                // tokens up to the item keyword.
                let mut k = j;
                let mut name = None;
                let mut guard = 0;
                while k < toks.len() && guard < 32 {
                    match ident_at(toks, k) {
                        Some("struct") | Some("enum") | Some("union") => {
                            name = ident_at(toks, k + 1).map(str::to_string);
                            break;
                        }
                        _ => {
                            k += 1;
                            guard += 1;
                        }
                    }
                }
                if let Some(name) = name {
                    if derives.contains("Serialize") {
                        types.push(WireType {
                            path: path.clone(),
                            line,
                            name,
                            has_deserialize: derives.contains("Deserialize"),
                        });
                    }
                }
                i = j;
                continue;
            }
            // fn …round_trip… { … } — collect every identifier inside.
            if ident_at(toks, i) == Some("fn") {
                if let Some(fn_name) = ident_at(toks, i + 1) {
                    if fn_name.contains("round_trip") {
                        let mut k = i + 2;
                        while k < toks.len() && !is_punct(toks, k, "{") {
                            k += 1;
                        }
                        if k < toks.len() {
                            let end = matching_brace(toks, k);
                            for t in &toks[k..end.min(toks.len())] {
                                if t.kind == TokKind::Ident {
                                    round_trip_idents.insert(t.text.clone());
                                }
                            }
                            i = end;
                            continue;
                        }
                    }
                }
            }
            i += 1;
        }
    }

    let mut out = Vec::new();
    for t in &types {
        if !t.has_deserialize {
            out.push(diag(
                rc,
                "wire-hygiene",
                &t.path,
                t.line,
                format!(
                    "`{}` derives Serialize but not Deserialize — wire types must decode \
                     everything they encode",
                    t.name
                ),
            ));
        }
        if !round_trip_idents.contains(&t.name) {
            out.push(diag(
                rc,
                "wire-hygiene",
                &t.path,
                t.line,
                format!("`{}` is a wire type but appears in no `*round_trip*` test", t.name),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn rc() -> RuleConfig {
        RuleConfig { include: vec!["".into()], ..RuleConfig::default() }
    }

    #[test]
    fn panic_rule_flags_unwrap_expect_and_macros() {
        let src = "fn f(x: Option<u32>) -> u32 { let y = x.unwrap(); panic!(\"no\"); y }";
        let d = no_panic_hot_path(&rc(), "x.rs", &lex(src));
        assert_eq!(d.len(), 2, "{d:?}");
    }

    #[test]
    fn panic_rule_allows_tests_and_asserts() {
        let src = "fn f() { assert!(true, \"fine\"); }\n\
                   #[cfg(test)] mod tests { #[test] fn t() { None::<u32>.unwrap(); } }";
        assert!(no_panic_hot_path(&rc(), "x.rs", &lex(src)).is_empty());
    }

    #[test]
    fn wire_hygiene_requires_deserialize_and_round_trip() {
        let src = "#[derive(Clone, Serialize)] struct OneWay { a: u32 }\n\
                   #[derive(Serialize, Deserialize)] struct Round { b: u32 }\n\
                   #[cfg(test)] mod tests { #[test] fn round_trips() { let _ = Round { b: 1 }; } }";
        let d = wire_hygiene(&rc(), &[("w.rs".into(), lex(src))]);
        // OneWay: missing Deserialize AND missing round-trip → 2 findings.
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().all(|x| x.message.contains("OneWay")));
    }

    #[test]
    fn cfg_not_test_is_not_a_test_region() {
        let f = lex("#[cfg(not(test))] fn prod() { x.unwrap(); }");
        assert_eq!(no_panic_hot_path(&rc(), "x.rs", &f).len(), 1);
    }

    #[test]
    fn second_lock_under_a_live_guard_is_flagged() {
        let bad = lex("fn f(&self) { let mut state = lock(&self.state); state.n += 1; \
             let other = lock(&self.other); }");
        let out = lock_then_wait_hygiene(&rc(), "src/a.rs", &bad);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("lock-order"));

        let ok =
            lex("fn f(&self) { let mut state = lock(&self.state); state.n += 1; drop(state); \
             let other = lock(&self.other); }");
        assert!(lock_then_wait_hygiene(&rc(), "src/a.rs", &ok).is_empty(), "drop ends the region");
    }
}
