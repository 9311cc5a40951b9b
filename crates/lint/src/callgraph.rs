//! The workspace call graph: per-file function summaries, best-effort call
//! resolution through the symbol table, and the [`Analysis`] that
//! reachability `no-panic-hot-path` walks.
//!
//! Resolution is deliberately best-effort, mirroring the symbol table's
//! philosophy: free calls resolve through imports and module siblings,
//! `A::b` paths through the import map (`Self`/`crate` normalized), and
//! method calls by receiver (`self.helper()` lands on the enclosing impl)
//! or — when the method name is unique across all impls and not a
//! ubiquitous std name — by that unique definition. Unresolvable calls
//! (trait objects, std methods, closures passed as values) simply produce
//! no edge, so the analysis under-approximates reachability; it never
//! invents edges. All containers are BTree-ordered, so the graph — and
//! everything derived from it — is byte-deterministic.

use crate::effects::{panic_sites, PanicSite};
use crate::lexer::{LexedFile, TokKind};
use crate::parser::{Item, ItemKind, ParsedFile};
use crate::rules::{ident_at, is_punct, test_mask};
use crate::symbols::Workspace;
use std::collections::{BTreeMap, BTreeSet};

/// Method names so ubiquitous across std and the workspace that a
/// unique-definition match on them would almost always be a false edge.
const COMMON_METHOD_NAMES: &[&str] = &[
    "new",
    "clone",
    "default",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "push",
    "pop",
    "insert",
    "remove",
    "iter",
    "iter_mut",
    "next",
    "into_iter",
    "contains",
    "contains_key",
    "extend",
    "clear",
    "as_ref",
    "as_mut",
    "as_slice",
    "as_str",
    "to_vec",
    "to_string",
    "fmt",
    "eq",
    "cmp",
    "hash",
    "drop",
    "from",
    "into",
    "write",
    "read",
    "flush",
    "min",
    "max",
    "abs",
    "sqrt",
    "take",
    "map",
    "and_then",
    "unwrap_or",
    "unwrap_or_else",
    "unwrap_or_default",
    "ok_or",
    "expect",
    "unwrap",
    "sum",
    "fold",
    "collect",
    "filter",
    "any",
    "all",
    "count",
    "zip",
    "enumerate",
];

/// Keywords that can syntactically precede a `(` without being a call.
const NON_CALL_KEYWORDS: &[&str] = &[
    "if", "else", "match", "while", "for", "loop", "return", "break", "continue", "let", "fn",
    "in", "move", "ref", "mut", "pub", "use", "mod", "impl", "trait", "struct", "enum", "union",
    "where", "as", "dyn", "unsafe", "async", "await", "const", "static", "type", "extern",
];

/// One unresolved call occurrence inside a function body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RawCall {
    /// `name(…)` with no path or receiver.
    Free(String),
    /// `recv.name(…)`; `recv` is the identifier directly before the dot,
    /// when there is one (`None` for chained or complex receivers).
    Method { name: String, recv: Option<String> },
    /// `a::b::c(…)`, segments in source order (includes `Self`/`crate`).
    Qualified(Vec<String>),
}

/// One function definition with its panic sites and raw call sites.
#[derive(Clone, Debug)]
pub struct FnNode {
    /// Fully-qualified name (`ec_graph::engine::DistributedEngine::run_epoch`).
    pub fq: String,
    /// Defining file (workspace-relative, `/`-separated).
    pub path: String,
    /// The defining file's module path (`ec_graph::engine`).
    pub module: String,
    /// Bare function name.
    pub name: String,
    /// Enclosing impl's self type, for associated fns.
    pub impl_ty: Option<String>,
    /// True for `#[test]`/`#[cfg(test)]` functions (they record no panic
    /// sites and no calls).
    pub is_test: bool,
    /// Where the body can panic directly.
    pub panics: Vec<PanicSite>,
    /// Unresolved calls the body makes.
    pub calls: Vec<RawCall>,
}

/// Summarizes one parsed file: walks the item tree tracking the module
/// path and enclosing impl type, and scans each non-test fn body for
/// panic sites and raw calls.
fn summarize_file(rel: &str, module: &str, lexed: &LexedFile, parsed: &ParsedFile) -> Vec<FnNode> {
    let mask = test_mask(&lexed.tokens);
    let mut fns = Vec::new();
    walk_items(&parsed.items, module, None, &FileCtx { rel, module, lexed, mask: &mask }, &mut fns);
    fns
}

/// What every function of one file shares.
struct FileCtx<'a> {
    rel: &'a str,
    module: &'a str,
    lexed: &'a LexedFile,
    mask: &'a [bool],
}

/// `scope` is the module path items are defined under (it grows through
/// inline `mod`s); `file.module` stays the file's own, which is what call
/// resolution keys on.
fn walk_items(
    items: &[Item],
    scope: &str,
    impl_ty: Option<&str>,
    file: &FileCtx<'_>,
    out: &mut Vec<FnNode>,
) {
    for item in items {
        match item.kind {
            ItemKind::Fn => {
                let Some(name) = &item.name else { continue };
                let fq = match impl_ty {
                    Some(ty) => format!("{scope}::{ty}::{name}"),
                    None => format!("{scope}::{name}"),
                };
                let (panics, calls) = match (item.is_test, item.body) {
                    (false, Some(body)) => (
                        panic_sites(&file.lexed.tokens, file.mask, body),
                        collect_raw_calls(file.lexed, file.mask, body),
                    ),
                    _ => (Vec::new(), Vec::new()),
                };
                out.push(FnNode {
                    fq,
                    path: file.rel.to_string(),
                    module: file.module.to_string(),
                    name: name.clone(),
                    impl_ty: impl_ty.map(str::to_string),
                    is_test: item.is_test,
                    panics,
                    calls,
                });
            }
            ItemKind::Mod => {
                if let Some(name) = &item.name {
                    walk_items(&item.children, &format!("{scope}::{name}"), None, file, out);
                }
            }
            ItemKind::Impl => {
                let base = item
                    .impl_ty
                    .as_deref()
                    .map(|ty| ty.split('<').next().unwrap_or(ty).trim().to_string());
                walk_items(&item.children, scope, base.as_deref(), file, out);
            }
            ItemKind::Trait => {
                // Default method bodies: attribute to `scope::TraitName`.
                if let Some(name) = &item.name {
                    walk_items(&item.children, scope, Some(name), file, out);
                }
            }
            _ => {}
        }
    }
}

/// Extracts the raw call occurrences in `[range.0, range.1)`. Macro
/// invocations (`name!`) never match because the `(` test looks at the
/// token directly after the name.
fn collect_raw_calls(lexed: &LexedFile, mask: &[bool], range: (usize, usize)) -> Vec<RawCall> {
    let toks = &lexed.tokens;
    let (start, end) = (range.0, range.1.min(toks.len()));
    let mut out = Vec::new();
    for i in start..end {
        if mask.get(i).copied().unwrap_or(false)
            || toks[i].kind != TokKind::Ident
            || !is_punct(toks, i + 1, "(")
        {
            continue;
        }
        let name = toks[i].text.as_str();
        if NON_CALL_KEYWORDS.contains(&name) {
            continue;
        }
        if i >= 1 && is_punct(toks, i - 1, ".") {
            let recv = if i >= 2 { ident_at(toks, i - 2).map(str::to_string) } else { None };
            out.push(RawCall::Method { name: name.into(), recv });
        } else if i >= 2 && is_punct(toks, i - 1, ":") && is_punct(toks, i - 2, ":") {
            // Walk the `::`-separated path backwards.
            let mut segs = vec![name.to_string()];
            let mut j = i;
            while j >= 3
                && is_punct(toks, j - 1, ":")
                && is_punct(toks, j - 2, ":")
                && ident_at(toks, j - 3).is_some()
            {
                segs.push(toks[j - 3].text.clone());
                j -= 3;
            }
            segs.reverse();
            out.push(RawCall::Qualified(segs));
        } else {
            out.push(RawCall::Free(name.into()));
        }
    }
    out
}

/// The resolved call graph — what `no-panic-hot-path` walks, built once
/// per run.
#[derive(Clone, Debug, Default)]
pub struct Analysis {
    /// Every function, keyed by fully-qualified name.
    pub nodes: BTreeMap<String, FnNode>,
    /// Sorted, deduplicated callee lists per caller (the BFS adjacency).
    pub adjacency: BTreeMap<String, Vec<String>>,
}

impl Analysis {
    /// Builds the graph over every file of `ws`. The lint fixture corpus
    /// stays out: fixture bait must not enter the *workspace* call graph —
    /// a fixture `fn` named like a real helper would hijack unique-suffix
    /// resolution. (Linting the fixture tree itself is unaffected: there
    /// the corpus files are `src/…`, not under a `tests/fixtures` prefix.)
    pub fn from_files(ws: &Workspace, lexed: &BTreeMap<String, LexedFile>) -> Self {
        let fns = lexed
            .iter()
            .filter(|(rel, _)| !rel.starts_with("tests/fixtures/"))
            .filter(|(rel, _)| !rel.contains("/tests/fixtures/"))
            .flat_map(|(rel, file)| {
                summarize_file(rel, ws.module_of(rel).unwrap_or(""), file, &ws.parsed[rel])
            })
            .collect();
        Self::build(ws, fns)
    }

    /// Merges duplicate definitions (cfg arms, same-named methods in one
    /// impl chain) and resolves raw calls to edges.
    fn build(ws: &Workspace, fns: Vec<FnNode>) -> Self {
        let mut nodes: BTreeMap<String, FnNode> = BTreeMap::new();
        for f in fns {
            match nodes.get_mut(&f.fq) {
                Some(existing) => {
                    // Duplicate fq: keep both site and call lists. The
                    // first definition's location wins.
                    existing.panics.extend(f.panics);
                    existing.calls.extend(f.calls);
                    existing.is_test &= f.is_test;
                }
                None => {
                    nodes.insert(f.fq.clone(), f);
                }
            }
        }

        // Suffix indexes for fallback resolution.
        let mut by_name: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        let mut methods_by_name: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (fq, node) in &nodes {
            if node.is_test {
                continue;
            }
            by_name.entry(node.name.as_str()).or_default().push(fq.as_str());
            if node.impl_ty.is_some() {
                methods_by_name.entry(node.name.as_str()).or_default().push(fq.as_str());
            }
        }

        let resolver = Resolver { ws, nodes: &nodes, by_name, methods_by_name };
        let mut adjacency: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for (fq, node) in &nodes {
            let mut callees: Vec<String> = node
                .calls
                .iter()
                .filter_map(|call| resolver.resolve_call(node, call))
                .filter(|callee| callee != fq)
                .collect();
            callees.sort();
            callees.dedup();
            adjacency.insert(fq.clone(), callees);
        }
        Self { nodes, adjacency }
    }

    /// Every function reachable from `entries` (inclusive), BFS order
    /// collapsed into a sorted set.
    pub fn reachable_from(&self, entries: &[String]) -> BTreeSet<String> {
        let mut seen: BTreeSet<String> = BTreeSet::new();
        let mut queue: Vec<String> = Vec::new();
        for e in entries {
            if seen.insert(e.clone()) {
                queue.push(e.clone());
            }
        }
        let mut qi = 0;
        while qi < queue.len() {
            let cur = queue[qi].clone();
            qi += 1;
            if let Some(callees) = self.adjacency.get(&cur) {
                for c in callees {
                    if seen.insert(c.clone()) {
                        queue.push(c.clone());
                    }
                }
            }
        }
        seen
    }

    /// Shortest call path `from → … → to` over the adjacency (BFS with
    /// sorted neighbors, so ties break deterministically). `from == to`
    /// yields a one-element path.
    pub fn path_between(&self, from: &str, to: &str) -> Option<Vec<String>> {
        if from == to {
            return Some(vec![from.to_string()]);
        }
        let mut parent: BTreeMap<String, String> = BTreeMap::new();
        let mut queue: Vec<String> = vec![from.to_string()];
        parent.insert(from.to_string(), String::new());
        let mut qi = 0;
        while qi < queue.len() {
            let cur = queue[qi].clone();
            qi += 1;
            let Some(callees) = self.adjacency.get(&cur) else { continue };
            for c in callees {
                if parent.contains_key(c) {
                    continue;
                }
                parent.insert(c.clone(), cur.clone());
                if c == to {
                    let mut path = vec![c.clone()];
                    let mut at = cur.clone();
                    while !at.is_empty() {
                        path.push(at.clone());
                        at = parent[&at].clone();
                    }
                    path.reverse();
                    return Some(path);
                }
                queue.push(c.clone());
            }
        }
        None
    }

    /// Resolves an entry-point pattern from lint.toml: an exact
    /// fully-qualified name, or a `::`-suffix matched against all non-test
    /// functions. Returns all matches, sorted.
    pub fn resolve_pattern(&self, pattern: &str) -> Vec<String> {
        if self.nodes.contains_key(pattern) {
            return vec![pattern.to_string()];
        }
        let suffix = format!("::{pattern}");
        self.nodes
            .iter()
            .filter(|(fq, n)| !n.is_test && fq.ends_with(&suffix))
            .map(|(fq, _)| fq.clone())
            .collect()
    }
}

/// Formats a chain note: `call chain: a → b → c`.
pub fn chain_note(chain: &[String]) -> String {
    format!("call chain: {}", chain.join(" → "))
}

struct Resolver<'a> {
    ws: &'a Workspace,
    nodes: &'a BTreeMap<String, FnNode>,
    by_name: BTreeMap<&'a str, Vec<&'a str>>,
    methods_by_name: BTreeMap<&'a str, Vec<&'a str>>,
}

impl<'a> Resolver<'a> {
    fn resolve_call(&self, caller: &FnNode, call: &RawCall) -> Option<String> {
        let (rel, module) = (caller.path.as_str(), caller.module.as_str());
        match call {
            RawCall::Free(name) => {
                if let Some(fq) = self.ws.resolve(rel, name) {
                    if self.nodes.contains_key(&fq) {
                        return Some(fq);
                    }
                }
                // A method of the enclosing impl called without `self.`
                // (associated fns), then a unique free definition anywhere.
                if let Some(ty) = &caller.impl_ty {
                    let sibling = format!("{module}::{ty}::{name}");
                    if self.nodes.contains_key(&sibling) {
                        return Some(sibling);
                    }
                }
                self.unique(&self.by_name, name)
            }
            RawCall::Method { name, recv } => {
                if recv.as_deref() == Some("self") {
                    if let Some(ty) = &caller.impl_ty {
                        let sibling = format!("{module}::{ty}::{name}");
                        if self.nodes.contains_key(&sibling) {
                            return Some(sibling);
                        }
                    }
                }
                if COMMON_METHOD_NAMES.contains(&name.as_str()) {
                    return None;
                }
                self.unique(&self.methods_by_name, name)
            }
            RawCall::Qualified(segs) => {
                if segs.is_empty() {
                    return None;
                }
                let mut segs = segs.clone();
                // Normalize `Self` and `crate` heads.
                if segs[0] == "Self" {
                    let ty = caller.impl_ty.as_deref()?;
                    segs[0] = ty.to_string();
                    let candidate = format!("{module}::{}", segs.join("::"));
                    return self.nodes.contains_key(&candidate).then_some(candidate);
                }
                if segs[0] == "crate" {
                    let crate_name = module.split("::").next().unwrap_or(module);
                    segs[0] = crate_name.to_string();
                    let candidate = segs.join("::");
                    return self.nodes.contains_key(&candidate).then_some(candidate);
                }
                // Resolve the head through the import map, then try the
                // path as written, then module-local, then unique suffix.
                if let Some(head_fq) = self.ws.resolve(rel, &segs[0]) {
                    let candidate = format!("{head_fq}::{}", segs[1..].join("::"));
                    if self.nodes.contains_key(&candidate) {
                        return Some(candidate);
                    }
                }
                let as_written = segs.join("::");
                if self.nodes.contains_key(&as_written) {
                    return Some(as_written);
                }
                let local = format!("{module}::{as_written}");
                if self.nodes.contains_key(&local) {
                    return Some(local);
                }
                let suffix = format!("::{as_written}");
                let mut hits: Vec<&str> = self
                    .nodes
                    .iter()
                    .filter(|(fq, n)| !n.is_test && fq.ends_with(&suffix))
                    .map(|(fq, _)| fq.as_str())
                    .collect();
                hits.sort();
                hits.dedup();
                (hits.len() == 1).then(|| hits[0].to_string())
            }
        }
    }

    fn unique(&self, index: &BTreeMap<&str, Vec<&str>>, name: &str) -> Option<String> {
        match index.get(name).map(Vec::as_slice) {
            Some([one]) => Some((*one).to_string()),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use std::path::Path;

    fn analyze(files: &[(&str, &str)]) -> Analysis {
        let map: BTreeMap<String, LexedFile> =
            files.iter().map(|(p, s)| (p.to_string(), lex(s))).collect();
        let ws = Workspace::build(Path::new("/nonexistent-ws-root"), &map).expect("builds");
        Analysis::from_files(&ws, &map)
    }

    /// Whether anything reachable from `fq` has a direct panic site.
    fn may_panic(a: &Analysis, fq: &str) -> bool {
        a.reachable_from(&[fq.to_string()]).iter().any(|f| !a.nodes[f].panics.is_empty())
    }

    #[test]
    fn free_calls_resolve_through_imports_across_files() {
        let a = analyze(&[
            ("crates/core/src/engine.rs", "use crate::helpers::load;\nfn go() { load(); }"),
            ("crates/core/src/helpers.rs", "pub fn load(t: &T) -> u32 { t.get(0).unwrap() }"),
        ]);
        assert!(may_panic(&a, "core::engine::go"));
        let chain = a.path_between("core::engine::go", "core::helpers::load").unwrap();
        assert_eq!(chain, vec!["core::engine::go", "core::helpers::load"]);
    }

    #[test]
    fn self_methods_resolve_to_the_enclosing_impl() {
        let a = analyze(&[(
            "crates/core/src/engine.rs",
            "struct E;\nimpl E {\nfn run(&mut self) { self.helper(); }\n\
             fn helper(&self) { let x = opt.unwrap(); }\n}",
        )]);
        assert_eq!(a.adjacency["core::engine::E::run"], ["core::engine::E::helper"]);
        assert!(may_panic(&a, "core::engine::E::run"));
    }

    #[test]
    fn qualified_calls_resolve_module_heads() {
        let a = analyze(&[
            ("crates/core/src/lib.rs", "pub mod exec;\npub mod engine;"),
            ("crates/core/src/exec.rs", "pub fn fan_out() { panic!(\"boom\"); }"),
            ("crates/core/src/engine.rs", "use crate::exec;\nfn go() { exec::fan_out(); }"),
        ]);
        assert!(may_panic(&a, "core::engine::go"));
    }

    #[test]
    fn common_method_names_never_make_edges() {
        let a = analyze(&[(
            "crates/core/src/a.rs",
            "struct V;\nimpl V { fn push(&mut self, x: u32) { q.unwrap(); } }\n\
             fn go(items: &mut Vec<u32>) { items.push(1); }",
        )]);
        assert!(!may_panic(&a, "core::a::go"), "{:?}", a.adjacency);
    }

    #[test]
    fn unique_uncommon_methods_do_make_edges() {
        let a = analyze(&[(
            "crates/core/src/a.rs",
            "struct Pool;\nimpl Pool { fn drain_replay(&mut self) { todo!() } }\n\
             fn go(p: &mut Pool) { p.drain_replay(); }",
        )]);
        assert!(may_panic(&a, "core::a::go"));
    }

    #[test]
    fn test_functions_contribute_no_sites() {
        let a = analyze(&[(
            "crates/core/src/a.rs",
            "fn clean() {}\n#[cfg(test)] mod t { #[test] fn boom() { x.unwrap(); } }",
        )]);
        for (fq, node) in &a.nodes {
            assert!(node.panics.is_empty(), "{fq} has {:?}", node.panics);
        }
    }

    #[test]
    fn recursion_terminates_and_reaches_both_members() {
        let a = analyze(&[(
            "crates/core/src/a.rs",
            "fn odd(n: u32) -> bool { if n == 0 { panic!() } else { even(n - 1) } }\n\
             fn even(n: u32) -> bool { if n == 0 { true } else { odd(n - 1) } }",
        )]);
        assert!(may_panic(&a, "core::a::odd"));
        assert!(may_panic(&a, "core::a::even"));
    }

    #[test]
    fn patterns_resolve_by_suffix() {
        let a = analyze(&[(
            "crates/core/src/engine.rs",
            "struct E;\nimpl E { fn run_epoch(&mut self) {} }",
        )]);
        assert_eq!(a.resolve_pattern("E::run_epoch"), vec!["core::engine::E::run_epoch"]);
        assert_eq!(a.resolve_pattern("core::engine::E::run_epoch").len(), 1);
        assert!(a.resolve_pattern("no_such_fn").is_empty());
    }
}
