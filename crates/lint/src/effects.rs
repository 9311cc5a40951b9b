//! The one effect the call graph still propagates: *may panic*.
//!
//! `no-panic-hot-path` asks whether anything reachable from a
//! superstep/serve entry point can abort the simulated cluster. This module
//! finds the direct sites syntactically ([`panic_sites`]); reachability over
//! the call graph ([`crate::callgraph::Analysis::reachable_from`]) does the
//! rest. The other determinism-relevant behaviours this module once tracked
//! (sends, telemetry writes, wall-clock reads, hash iteration, unseeded RNG)
//! are compile errors or type-resolved clippy bans now — see `clippy.toml`
//! and DESIGN.md §8.

use crate::lexer::{Tok, TokKind};
use crate::rules::is_punct;

/// One syntactic panic site inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PanicSite {
    /// 1-based source line.
    pub line: usize,
    /// Rendering of the offending call (`` `unwrap` ``) or macro
    /// (`` `panic!` ``).
    pub what: String,
}

/// Scans `[range.0, range.1)` of `toks` for `.unwrap()` / `.expect()` /
/// `panic!` / `todo!` / `unimplemented!`, skipping tokens under `mask`
/// (test regions). `assert!` stays allowed: invariant checks on entry are
/// not recovery paths.
pub(crate) fn panic_sites(toks: &[Tok], mask: &[bool], range: (usize, usize)) -> Vec<PanicSite> {
    let mut sites = Vec::new();
    for i in range.0..range.1.min(toks.len()) {
        if mask.get(i).copied().unwrap_or(false) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        let after_dot = i >= 1 && is_punct(toks, i - 1, ".");
        let after_path = i >= 2 && is_punct(toks, i - 1, ":") && is_punct(toks, i - 2, ":");
        let what = if matches!(name, "unwrap" | "expect") && (after_dot || after_path) {
            format!("`{name}`")
        } else if matches!(name, "panic" | "todo" | "unimplemented") && is_punct(toks, i + 1, "!") {
            format!("`{name}!`")
        } else {
            continue;
        };
        sites.push(PanicSite { line: toks[i].line, what });
    }
    sites
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_mask;

    fn scan_src(src: &str) -> Vec<PanicSite> {
        let file = lex(src);
        let mask = test_mask(&file.tokens);
        panic_sites(&file.tokens, &mask, (0, file.tokens.len()))
    }

    #[test]
    fn detects_calls_paths_and_macros() {
        let sites = scan_src(
            "fn f(x: Option<u32>) {\n\
             let a = x.unwrap();\n\
             let b = Option::expect(x, \"set\");\n\
             todo!();\n\
             }",
        );
        let got: Vec<_> = sites.iter().map(|s| (s.line, s.what.as_str())).collect();
        assert_eq!(got, [(2, "`unwrap`"), (3, "`expect`"), (4, "`todo!`")]);
    }

    #[test]
    fn test_regions_asserts_and_lookalikes_are_clean() {
        let sites = scan_src(
            "#[cfg(test)] mod t { fn g() { x.unwrap(); } }\n\
             fn f(v: Option<u32>) -> u32 { assert!(true); v.unwrap_or(0) }\n\
             fn panic() {}",
        );
        assert!(sites.is_empty(), "{sites:?}");
    }
}
