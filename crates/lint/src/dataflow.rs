//! Per-closure capture and write sets: the intraprocedural def-use layer
//! under the concurrency rules in [`crate::conc`].
//!
//! The lattice is deliberately small. For a token range (a closure body or
//! a function body) we compute three name sets — *parameters* (bound by
//! the `|…|` or `fn(…)` pattern), *locals* (`let`/`for`/`if let`/
//! `while let` bindings plus nested-closure parameters), and *band
//! bindings* (names bound from `split_at_mut`-family products, the
//! sanctioned disjoint output slices) — and one fact list: the *write
//! sites*, each resolved back to the root identifier of its place
//! expression (`state.jobs.push_back(j)` writes through `state`;
//! `*slot = v` writes through `slot`; `out[i].w = v` writes through
//! `out`). A write whose root is in none of the three sets mutates
//! *captured shared state*: inside a pool-dispatched closure that is a
//! data race candidate, and in a helper function it marks the helper as a
//! shared writer for the interprocedural half of `disjoint-band-writes`.
//!
//! Mutex-guarded writes wash out naturally: the guard is a `let` local
//! (`let mut state = lock(&self.state); state.pending -= 1`), so the root
//! lands in the local set. Atomics are deliberately *not* treated as
//! writes here — `store`/`fetch_*` are synchronization, and every such
//! site is separately forced through `atomics-ordering-audit`'s
//! justification-and-lockfile discipline.

use crate::lexer::{Tok, TokKind};
use crate::rules::{ident_at, is_punct, matching_delim, punct_at};
use std::collections::BTreeSet;

/// Methods that mutate their receiver in place. Kept tight: a name listed
/// here turns `root.name(…)` into a write through `root`, so ubiquitous
/// read-style names must stay out. Atomic RMW names are excluded on
/// purpose (see the module docs).
pub(crate) const MUTATING_METHODS: &[&str] = &[
    "append",
    "clear",
    "drain",
    "extend",
    "extend_from_slice",
    "fill",
    "get_or_insert",
    "get_or_insert_with",
    "insert",
    "pop",
    "pop_front",
    "push",
    "push_back",
    "push_front",
    "push_str",
    "record",
    "remove",
    "replace",
    "resize",
    "retain",
    "send",
    "set",
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "split_off",
    "swap",
    "truncate",
];

/// Slice-splitting methods whose products are the disjoint per-band
/// `&mut` views workers are allowed to write through.
pub(crate) const BAND_SOURCES: &[&str] =
    &["chunks_exact_mut", "chunks_mut", "split_at_mut", "split_first_mut", "split_last_mut"];

/// Pattern keywords and binding modes that are not binding names.
const PATTERN_NOISE: &[&str] = &["mut", "ref", "move", "box", "dyn", "impl", "_"];

/// One write through a place expression, resolved to its root identifier.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WriteSite {
    /// Root identifier of the written place (`state` in `state.jobs.push_back(j)`).
    pub root: String,
    /// 1-based source line of the write.
    pub line: usize,
    /// Short rendering of the write for diagnostics (`` `state.pending -= …` ``).
    pub what: String,
}

/// Whether `name` reads as a pattern binding: lowercase-initial (enum
/// constructors and types in patterns are uppercase-initial) and not a
/// binding-mode keyword.
fn is_binding_name(name: &str) -> bool {
    !PATTERN_NOISE.contains(&name)
        && name.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
}

/// Collects the names bound by a parameter list in `[start, end)` — the
/// token range between a closure's `|…|` bars or a signature's parens.
/// Each comma-separated chunk contributes the pattern-side idents (before
/// the chunk's top-level `:` when typed, the whole chunk otherwise), so
/// type names never leak into the set. `self` counts: a method's receiver
/// is a parameter.
pub fn param_names(toks: &[Tok], (start, end): (usize, usize)) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut depth = 0i32;
    let mut in_type = false;
    for i in start..end.min(toks.len()) {
        match punct_at(toks, i) {
            Some("(" | "[" | "{" | "<") => depth += 1,
            Some(")" | "]" | "}" | ">") => depth -= 1,
            Some(",") if depth == 0 => in_type = false,
            Some(":") if depth == 0 => in_type = true,
            _ => {}
        }
        if !in_type && toks[i].kind == TokKind::Ident {
            let name = toks[i].text.as_str();
            if name == "self" || is_binding_name(name) {
                out.insert(name.to_string());
            }
        }
    }
    out
}

/// Collects every name locally bound inside `[start, end)`: `let`-pattern
/// bindings (covers `if let` / `while let`), `for`-pattern bindings, and
/// the parameters of nested closures. Match-arm bindings are not modeled;
/// missing one only makes the analysis *stricter*, never blind.
pub fn local_names(toks: &[Tok], (start, end): (usize, usize)) -> BTreeSet<String> {
    let end = end.min(toks.len());
    let mut out = BTreeSet::new();
    let mut i = start;
    while i < end {
        if toks[i].kind == TokKind::Ident {
            match toks[i].text.as_str() {
                "let" => {
                    // Pattern runs to the binding's `:` type or `=` init.
                    let mut j = i + 1;
                    while j < end && !matches!(punct_at(toks, j), Some(":" | "=" | ";")) {
                        collect_binding(toks, j, &mut out);
                        j += 1;
                    }
                    i = j;
                    continue;
                }
                "for" => {
                    let mut j = i + 1;
                    while j < end && ident_at(toks, j) != Some("in") {
                        collect_binding(toks, j, &mut out);
                        j += 1;
                    }
                    i = j;
                    continue;
                }
                "move" if is_punct(toks, i + 1, "|") => {
                    i = collect_closure_params(toks, i + 1, end, &mut out);
                    continue;
                }
                _ => {}
            }
        }
        // A nested closure's own parameters are locals of the outer body.
        if is_punct(toks, i, "|")
            && i > 0
            && matches!(punct_at(toks, i - 1), Some("(" | "," | "=" | "{" | "&"))
        {
            i = collect_closure_params(toks, i, end, &mut out);
            continue;
        }
        i += 1;
    }
    out
}

fn collect_binding(toks: &[Tok], i: usize, out: &mut BTreeSet<String>) {
    if toks[i].kind == TokKind::Ident && is_binding_name(&toks[i].text) {
        out.insert(toks[i].text.clone());
    }
}

/// From the opening `|` at `bar`, collects the closure's parameter names
/// and returns the index just past the closing `|` (or `end`).
fn collect_closure_params(
    toks: &[Tok],
    bar: usize,
    end: usize,
    out: &mut BTreeSet<String>,
) -> usize {
    let mut j = bar + 1;
    while j < end && !is_punct(toks, j, "|") {
        collect_binding(toks, j, out);
        j += 1;
    }
    j + 1
}

/// Names in `[start, end)` bound from a [`BAND_SOURCES`] call — either
/// directly (`let (band, tail) = rest.split_at_mut(n)`) or by re-binding a
/// band name (`rest = tail`). Two propagation passes close the
/// `rest = tail` chains that the band-splitting loop idiom produces.
pub fn band_bindings(toks: &[Tok], (start, end): (usize, usize)) -> BTreeSet<String> {
    let end = end.min(toks.len());
    let mut out = BTreeSet::new();
    for i in start..end {
        if toks[i].kind != TokKind::Ident
            || !BAND_SOURCES.contains(&toks[i].text.as_str())
            || i == 0
            || !is_punct(toks, i - 1, ".")
            || !is_punct(toks, i + 1, "(")
        {
            continue;
        }
        // Walk back to the statement start; a `let` there makes every
        // pattern ident a band binding.
        let mut j = i;
        while j > start && !matches!(punct_at(toks, j - 1), Some(";" | "{" | "}")) {
            j -= 1;
        }
        if ident_at(toks, j) != Some("let") {
            continue;
        }
        let mut k = j + 1;
        while k < i && !is_punct(toks, k, "=") {
            collect_binding(toks, k, &mut out);
            k += 1;
        }
    }
    // Close simple re-binding chains: `x = band_name;` makes `x` a band.
    for _ in 0..2 {
        for i in start..end {
            if !is_punct(toks, i, "=")
                || matches!(punct_at(toks, i + 1), Some("=" | ">"))
                || (i > 0 && matches!(punct_at(toks, i - 1), Some("=" | "<" | ">" | "!")))
            {
                continue;
            }
            let (Some(lhs), Some(rhs)) = (ident_at(toks, i.wrapping_sub(1)), ident_at(toks, i + 1))
            else {
                continue;
            };
            if is_punct(toks, i + 2, ";") && out.contains(rhs) && is_binding_name(lhs) {
                out.insert(lhs.to_string());
            }
        }
    }
    out
}

/// Finds every write in `[start, end)` and resolves each to the root
/// identifier of its place expression. Covered forms: plain assignment
/// (`x = v`, `x.f = v`, `x[i] = v`, `*x = v`), compound assignment
/// (`x += v` and friends), and in-place [`MUTATING_METHODS`] calls
/// (`x.push(v)`). `let` initializers are declarations, not writes.
pub fn write_sites(toks: &[Tok], (start, end): (usize, usize)) -> Vec<WriteSite> {
    let end = end.min(toks.len());
    let mut out = Vec::new();
    for i in start..end {
        // In-place mutating method call: `<place>.name(…)`.
        if toks[i].kind == TokKind::Ident
            && MUTATING_METHODS.contains(&toks[i].text.as_str())
            && is_punct(toks, i + 1, "(")
            && i >= 1
            && is_punct(toks, i - 1, ".")
        {
            if let Some(root) = place_root(toks, i.wrapping_sub(2), start) {
                out.push(WriteSite {
                    root: toks[root].text.clone(),
                    line: toks[i].line,
                    what: format!("`{}.{}(…)`", render_place(toks, root, i - 1), toks[i].text),
                });
            }
            continue;
        }
        if !is_punct(toks, i, "=") {
            continue;
        }
        // Rule out `==`, `=>`, `<=`, `>=`, `!=`, and the tail of `==`.
        if matches!(punct_at(toks, i + 1), Some("=" | ">")) {
            continue;
        }
        let prev = if i > start { punct_at(toks, i - 1) } else { None };
        if matches!(prev, Some("=" | "<" | ">" | "!" | ".")) {
            continue;
        }
        let compound = matches!(prev, Some("+" | "-" | "*" | "/" | "%" | "&" | "|" | "^"));
        let target_end = if compound { i - 2 } else { i - 1 };
        let Some(root) = place_root(toks, target_end, start) else { continue };
        // `let x = …` / `for … =` declare; they are not writes (and the
        // binding is already in the local set).
        if is_declaration(toks, root, start) {
            continue;
        }
        let op =
            if compound { format!("{}=", punct_at(toks, i - 1).unwrap_or("")) } else { "=".into() };
        out.push(WriteSite {
            root: toks[root].text.clone(),
            line: toks[target_end.min(toks.len() - 1)].line,
            what: format!("`{} {op} …`", render_place(toks, root, target_end + 1)),
        });
    }
    out
}

/// Walks a place expression backwards from its last token to the root
/// identifier: through `.field` chains, `[index]` groups, and `::` paths.
/// Anything else — a call result, a tuple pattern, a parenthesized
/// receiver — bails with `None`: those are not simple writes this layer
/// models, and bailing under-approximates (never false-flags).
fn place_root(toks: &[Tok], mut j: usize, lo: usize) -> Option<usize> {
    loop {
        if j >= toks.len() || j < lo {
            return None;
        }
        if is_punct(toks, j, "]") {
            // Jump over the `[…]` index group.
            let mut depth = 0i32;
            let mut k = j;
            loop {
                match punct_at(toks, k) {
                    Some("]") => depth += 1,
                    Some("[") => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                if k == lo {
                    return None;
                }
                k -= 1;
            }
            if k <= lo {
                return None;
            }
            j = k - 1;
            continue;
        }
        if toks[j].kind == TokKind::Ident {
            if j >= 1 && is_punct(toks, j - 1, ".") {
                if j < 2 {
                    return None;
                }
                j -= 2;
                continue;
            }
            if j >= 2 && is_punct(toks, j - 1, ":") && is_punct(toks, j - 2, ":") {
                if j < 3 {
                    return None;
                }
                j -= 3;
                continue;
            }
            return Some(j);
        }
        return None;
    }
}

/// Whether the place rooted at `root` is being declared: directly preceded
/// by `let` / `mut` / `ref` (modulo `*`/`&` sigils), or by the lone `:` of
/// a typed `let x: T = …`, where the "place" is the annotation `T` itself
/// (`place_root` has already walked through any `::` path).
fn is_declaration(toks: &[Tok], root: usize, lo: usize) -> bool {
    let mut k = root;
    while k > lo {
        let before = k - 1;
        if matches!(punct_at(toks, before), Some("*" | "&")) {
            k = before;
            continue;
        }
        return is_punct(toks, before, ":")
            || matches!(ident_at(toks, before), Some("let" | "mut" | "ref"));
    }
    false
}

/// Renders the tokens of `[from, to)` for a diagnostic, compacting
/// whitespace the way the token stream sees it.
fn render_place(toks: &[Tok], from: usize, to: usize) -> String {
    let mut s = String::new();
    for t in &toks[from..to.min(toks.len())] {
        match t.kind {
            TokKind::Punct => s.push_str(&t.text),
            _ => {
                if !s.is_empty()
                    && s.chars().last().is_some_and(|c| c.is_alphanumeric() || c == '_')
                {
                    s.push(' ');
                }
                s.push_str(&t.text);
            }
        }
    }
    s
}

/// Finds the first closure literal in `[from, until)` and returns its
/// parameter-list range (between the bars) and body range (after the
/// closing bar). Zero-parameter closures (`||`) work because the
/// parameter range is simply empty.
pub fn closure_in(
    toks: &[Tok],
    from: usize,
    until: usize,
) -> Option<((usize, usize), (usize, usize))> {
    let until = until.min(toks.len());
    let mut j = from;
    while j < until {
        if is_punct(toks, j, "|") {
            let mut k = j + 1;
            while k < until && !is_punct(toks, k, "|") {
                k += 1;
            }
            if k >= until {
                return None;
            }
            // A `{`-braced body narrows to the brace interior; expression
            // bodies run to the caller-supplied boundary.
            let body_end = if is_punct(toks, k + 1, "{") {
                matching_delim(toks, k + 1, "{", "}")
            } else {
                until
            };
            return Some(((j + 1, k), (k + 1, body_end.min(until))));
        }
        j += 1;
    }
    None
}

/// Locates the parameter-list token range of the `fn` declared at
/// `fn_line` whose body interior starts at `body_start`. Walks forward
/// from the `fn` keyword over the name and an optional generic list
/// (angle-bracket matching is `->`-tolerant) to the signature parens.
pub fn fn_param_range(toks: &[Tok], fn_line: usize, body_start: usize) -> Option<(usize, usize)> {
    let mut i = body_start.min(toks.len());
    // Find the `fn` keyword on the declaration line, scanning back from
    // the body.
    loop {
        if i == 0 {
            return None;
        }
        i -= 1;
        if toks[i].kind == TokKind::Ident && toks[i].text == "fn" && toks[i].line == fn_line {
            break;
        }
        if toks[i].line < fn_line {
            return None;
        }
    }
    let mut j = i + 2; // past `fn name`
    if is_punct(toks, j, "<") {
        j = crate::sem::angle_close(toks, j) + 1;
    }
    if !is_punct(toks, j, "(") {
        return None;
    }
    Some((j + 1, matching_delim(toks, j, "(", ")")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn set(names: &[&str]) -> BTreeSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn param_names_take_patterns_not_types() {
        let f = lex("out: &mut [f32], (i, x): (usize, Vec<Band>), n: usize");
        let all = (0, f.tokens.len());
        assert_eq!(param_names(&f.tokens, all), set(&["out", "i", "x", "n"]));
    }

    #[test]
    fn param_names_keep_self() {
        let f = lex("&mut self, job: Job");
        assert_eq!(param_names(&f.tokens, (0, f.tokens.len())), set(&["self", "job"]));
    }

    #[test]
    fn local_names_cover_let_for_and_nested_closures() {
        let f = lex("let (a, b) = pair(); for (i, slot) in band.iter_mut().enumerate() { }\n\
             if let Some(x) = opt { } items.map(|it| it + 1); move || other;");
        let got = local_names(&f.tokens, (0, f.tokens.len()));
        for name in ["a", "b", "i", "slot", "x", "it"] {
            assert!(got.contains(name), "{name} missing from {got:?}");
        }
        assert!(!got.contains("band"), "iterated source is not a binding");
    }

    #[test]
    fn band_bindings_track_split_products_and_rebinds() {
        let f = lex("let mut rest = out; let (band, tail) = rest.split_at_mut(n); rest = tail;\n\
             let other = q.len();");
        let got = band_bindings(&f.tokens, (0, f.tokens.len()));
        assert_eq!(got, set(&["band", "tail", "rest"]));
    }

    #[test]
    fn write_sites_resolve_roots_through_fields_indexes_and_derefs() {
        let f = lex("state.pending -= 1; *slot = Some(v); out[i * c + j] = 0.0;\n\
             shared_log.push(w); let fresh = 1; total == limit; x <= y;\n\
             lock(&self.state).closed = true;");
        let got = write_sites(&f.tokens, (0, f.tokens.len()));
        let roots: Vec<&str> = got.iter().map(|w| w.root.as_str()).collect();
        assert_eq!(roots, ["state", "slot", "out", "shared_log"], "{got:?}");
    }

    #[test]
    fn write_sites_skip_declarations_and_comparisons() {
        let f = lex("let mut acc = 0.0; acc += x; if acc >= cap { acc = cap; }\n\
             let job: Job = build(); let n: std::num::Wrapping = w;");
        let got = write_sites(&f.tokens, (0, f.tokens.len()));
        assert_eq!(got.len(), 2, "{got:?}");
        assert!(got.iter().all(|w| w.root == "acc"));
    }

    #[test]
    fn closure_in_finds_params_and_braced_bodies() {
        let f = lex("tasks.push(Box::new(move || { body(start, band); })); after()");
        let (params, body) = closure_in(&f.tokens, 0, f.tokens.len()).expect("closure");
        assert_eq!(params.0, params.1, "zero-arg closure");
        let rendered = render_place(&f.tokens, body.0, body.1);
        assert!(rendered.contains("body"), "{rendered}");
        assert!(!rendered.contains("after"), "body must stop at its brace: {rendered}");
    }

    #[test]
    fn fn_param_range_skips_generics() {
        let f =
            lex("pub fn run_workers<R: Send>(pool: &WorkerPool, n: usize) -> Vec<R> { body() }");
        let body_start = f.tokens.iter().position(|t| t.text == "body").unwrap();
        let range = fn_param_range(&f.tokens, 1, body_start).expect("range");
        assert_eq!(param_names(&f.tokens, range), set(&["pool", "n"]));
    }
}
