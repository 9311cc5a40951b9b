//! The semantic rule families: scope-aware and cross-file passes built on
//! the parser ([`crate::parser`]) and workspace symbol table
//! ([`crate::symbols`]).
//!
//! Where the token-pattern rules in [`crate::rules`] ask "does this token
//! appear", these ask structural questions: *is this call inside a scoped
//! worker closure*, *does this reduce chain start from an unordered
//! source*, *is every declared metric recorded somewhere*, *did a wire
//! struct's shape drift from its lockfile*. They are still heuristics —
//! the escape hatch remains an inline `ec-lint` allow comment — but the
//! false-positive surface is far smaller than a bare token match.

use crate::callgraph::Analysis;
use crate::config::RuleConfig;
use crate::diag::Diagnostic;
use crate::effects::{receiver_is_shared_state, Effect, SEND_METHODS, TELEMETRY_METHODS};
use crate::lexer::{LexedFile, Tok, TokKind};
use crate::parser::ItemKind;
use crate::rules::{diag, ident_at, is_punct, matching_delim, punct_at, test_mask, typed_names};
use crate::symbols::Workspace;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Iterator adapters that reduce — order-sensitive for floats.
const REDUCERS: &[&str] = &["sum", "product", "fold", "reduce"];

/// Integer types whose addition is associative: a turbofish of one of
/// these exempts a `sum`/`product` from the float rule.
const INT_TYPES: &[&str] =
    &["u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize"];

/// The `exec` fan-out entry points: `run_workers` and the superstep
/// driver's `compute_superstep`, through which every engine stage passes
/// its worker block.
const EXEC_FANOUT_FNS: &[&str] = &["run_workers", "compute_superstep"];

/// `thread-scope-hygiene`: inside the closures handed to an
/// [`EXEC_FANOUT_FNS`] call, `scope.spawn`, or `thread::scope`, worker code must
/// be pure compute — it returns results, and the engine thread replays them
/// in ascending worker order. Any mutation of shared replay-ordered state
/// from inside such a closure (`self`, a `SimNetwork` send, a telemetry
/// sink/registry/ring write, a `record_*` helper) would make the run's
/// bytes depend on thread interleaving. The symbol table is used to skip
/// calls whose name resolves to an unrelated function.
pub fn thread_scope_hygiene(
    rc: &RuleConfig,
    path: &str,
    file: &LexedFile,
    ws: &Workspace,
    analysis: &Analysis,
) -> Vec<Diagnostic> {
    let toks = &file.tokens;
    let mask = test_mask(toks);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if mask[i] || toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        let spawn_site = match name {
            _ if EXEC_FANOUT_FNS.contains(&name) && is_punct(toks, i + 1, "(") => {
                // Skip if the name resolves to something that is not the
                // exec fan-out helper (an unresolved name stays in scope:
                // qualified `exec::run_workers(…)` and method calls on the
                // driver resolve the module or nothing, not the function).
                !matches!(ws.resolve(path, name),
                    Some(fq) if !fq.split("::").any(|seg| seg == "exec"))
            }
            "spawn" if is_punct(toks, i + 1, "(") && is_punct(toks, i.wrapping_sub(1), ".") => true,
            "scope" if is_punct(toks, i + 1, "(") && i >= 2 && is_punct(toks, i - 1, ":") => true,
            _ => false,
        };
        if !spawn_site {
            continue;
        }
        let close = matching_delim(toks, i + 1, "(", ")");
        let Some(body) = closure_body_range(toks, i + 2, close) else { continue };
        scan_closure_body(rc, path, toks, body, &mut out);
        scan_closure_calls(rc, path, toks, body, analysis, &mut out);
    }
    // Nested spawn sites (scope → spawn) scan overlapping ranges; keep one
    // diagnostic per (line, message).
    out.sort_by(|a, b| (a.line, &a.message).cmp(&(b.line, &b.message)));
    out.dedup_by(|a, b| a.line == b.line && a.message == b.message);
    out
}

/// The transitive half of `thread-scope-hygiene`: a call inside the
/// closure to any function that *reaches* a send or a replay-ordered
/// telemetry write is as unsafe as doing it inline — the effect still
/// happens on the worker thread. Resolved call sites within the closure's
/// token range are checked against the fixpoint effect sets; each finding
/// carries the call chain to the offending function as its note.
fn scan_closure_calls(
    rc: &RuleConfig,
    path: &str,
    toks: &[Tok],
    (start, end): (usize, usize),
    analysis: &Analysis,
    out: &mut Vec<Diagnostic>,
) {
    for (caller_fq, sites) in &analysis.edges {
        let Some(node) = analysis.nodes.get(caller_fq) else { continue };
        if node.path != path {
            continue;
        }
        for site in sites {
            if site.tok < start || site.tok >= end {
                continue;
            }
            let called = ident_at(toks, site.tok).unwrap_or("<call>");
            let fx = analysis.effects_of(&site.callee);
            for (effect, verb) in [
                (Effect::Sends, "emits network traffic"),
                (Effect::Telemetry, "writes replay-ordered telemetry"),
            ] {
                if !fx.contains(effect) {
                    continue;
                }
                let mut d = diag(
                    rc,
                    "thread-scope-hygiene",
                    path,
                    site.line,
                    format!(
                        "`{called}()` transitively {verb} inside a scoped worker closure; \
                         return the data and perform the effect during ordered replay"
                    ),
                );
                if let Some(chain) = analysis.chain(&site.callee, effect) {
                    d.note = Some(crate::callgraph::chain_note(&chain));
                }
                out.push(d);
            }
        }
    }
}

/// The reachability half of `no-panic-hot-path`: with `entry_points`
/// configured, every non-test function reachable from a superstep/serve
/// entry must be panic-free, wherever it lives — the `include` file list
/// becomes a fallback scope rather than the rule's definition. Each direct
/// `MayPanic` site in a reached function is flagged at its own line, with
/// the call chain from the entry point as the note. `exclude` prefixes
/// still carve files out; a pattern that matches nothing is itself an
/// error (a silently dead entry point would un-guard the whole path).
pub fn no_panic_reachable(rc: &RuleConfig, analysis: &Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let mut entries: Vec<String> = Vec::new();
    for pat in &rc.entry_points {
        let hits = analysis.resolve_pattern(pat);
        if hits.is_empty() {
            out.push(diag(
                rc,
                "no-panic-hot-path",
                "lint.toml",
                1,
                format!(
                    "entry point {pat:?} matches no function in the call graph; fix the \
                     [no-panic-hot-path] entry_points list"
                ),
            ));
        }
        entries.extend(hits);
    }
    entries.sort();
    entries.dedup();
    let reached = analysis.reachable_from(&entries);
    for fq in &reached {
        let Some(node) = analysis.nodes.get(fq) else { continue };
        if node.is_test || rc.excludes(&node.path) || !node.direct.contains(Effect::MayPanic) {
            continue;
        }
        let chain = entries
            .iter()
            .find_map(|e| analysis.path_between(e, fq))
            .map(|c| crate::callgraph::chain_note(&c));
        for site in &node.sites {
            if site.effect != Effect::MayPanic {
                continue;
            }
            let mut d = diag(
                rc,
                "no-panic-hot-path",
                &node.path,
                site.line,
                format!(
                    "{} can panic and is reachable from a superstep/serve entry point; \
                     propagate a typed error instead",
                    site.what
                ),
            );
            d.note = chain.clone();
            out.push(d);
        }
    }
    out
}

/// The effects whose reach into a serialization sink breaks byte-identity.
const TAINT_EFFECTS: [(Effect, &str); 3] = [
    (Effect::UnorderedIter, "iterates a hash container in process-random order"),
    (Effect::UnseededRng, "draws OS entropy from an unseeded RNG"),
    (Effect::WallClock, "reads the host wall clock"),
];

/// `determinism-taint`: functions named in `sinks` serialize run output
/// (`RunResult::to_json`, the wire encode paths). If anything such a sink
/// transitively calls iterates unordered state, draws OS entropy, or reads
/// the wall clock, the serialized bytes can differ between identical runs
/// — exactly the drift the byte-identity suite exists to catch, but found
/// statically and attributed to a call chain.
pub fn determinism_taint(rc: &RuleConfig, analysis: &Analysis) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for pat in &rc.sinks {
        let hits = analysis.resolve_pattern(pat);
        if hits.is_empty() {
            out.push(diag(
                rc,
                "determinism-taint",
                "lint.toml",
                1,
                format!(
                    "sink {pat:?} matches no function in the call graph; fix the \
                     [determinism-taint] sinks list"
                ),
            ));
            continue;
        }
        for fq in hits {
            let Some(node) = analysis.nodes.get(&fq) else { continue };
            if node.is_test || rc.excludes(&node.path) {
                continue;
            }
            let fx = analysis.effects_of(&fq);
            for (effect, what) in TAINT_EFFECTS {
                if !fx.contains(effect) {
                    continue;
                }
                let mut d = diag(
                    rc,
                    "determinism-taint",
                    &node.path,
                    node.line,
                    format!(
                        "`{}` is a serialization sink but transitively {what}; order or \
                         seed the source before it feeds serialized output",
                        node.name
                    ),
                );
                if let Some(chain) = analysis.chain(&fq, effect) {
                    d.note = Some(crate::callgraph::chain_note(&chain));
                }
                out.push(d);
            }
        }
    }
    out
}

/// Finds the first closure literal in `[from, until)` and returns its body
/// token range (after the parameter list's closing `|`).
fn closure_body_range(toks: &[Tok], from: usize, until: usize) -> Option<(usize, usize)> {
    let mut j = from;
    while j < until {
        if is_punct(toks, j, "|") {
            // `|params|` or `||`; parameters cannot contain a bare `|`.
            let mut k = j + 1;
            while k < until && !is_punct(toks, k, "|") {
                k += 1;
            }
            if k < until {
                return Some((k + 1, until));
            }
            return None;
        }
        j += 1;
    }
    None
}

fn scan_closure_body(
    rc: &RuleConfig,
    path: &str,
    toks: &[Tok],
    (start, end): (usize, usize),
    out: &mut Vec<Diagnostic>,
) {
    for i in start..end.min(toks.len()) {
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        if name == "self" {
            out.push(diag(
                rc,
                "thread-scope-hygiene",
                path,
                toks[i].line,
                "`self` is captured inside a scoped worker closure; workers must return \
                 results for the engine's ordered replay instead of touching shared state"
                    .into(),
            ));
            continue;
        }
        let is_method_call = i >= 1 && is_punct(toks, i - 1, ".") && is_punct(toks, i + 1, "(");
        if is_method_call {
            let receiver = if i >= 2 { ident_at(toks, i - 2) } else { None };
            if SEND_METHODS.contains(&name) {
                let recv = receiver.unwrap_or("<expr>");
                out.push(diag(
                    rc,
                    "thread-scope-hygiene",
                    path,
                    toks[i].line,
                    format!(
                        "`{recv}.{name}()` emits network traffic inside a scoped worker \
                         closure; buffer the message and send it during the ordered replay \
                         after the join"
                    ),
                ));
            } else if TELEMETRY_METHODS.contains(&name)
                && receiver.is_some_and(receiver_is_shared_state)
            {
                let recv = receiver.unwrap_or_default();
                out.push(diag(
                    rc,
                    "thread-scope-hygiene",
                    path,
                    toks[i].line,
                    format!(
                        "`{recv}.{name}()` writes replay-ordered telemetry inside a scoped \
                         worker closure; record on the engine thread during ordered replay"
                    ),
                ));
            }
        }
        if name.starts_with("record_") && is_punct(toks, i + 1, "(") {
            out.push(diag(
                rc,
                "thread-scope-hygiene",
                path,
                toks[i].line,
                format!(
                    "`{name}()` records metrics inside a scoped worker closure; return the \
                     observation and record it during ordered replay"
                ),
            ));
        }
    }
}

/// `no-float-unordered-reduce`: a `sum`/`product`/`fold`/`reduce` chain
/// rooted at an unordered source (`HashMap`/`HashSet` binding, an mpsc
/// `Receiver`) accumulates floats in process-random order, and FP addition
/// is not associative — two runs of one config would disagree in the last
/// bits of `RunResult`. Integer turbofish reductions (`sum::<u64>()`) are
/// exempt: integer addition commutes exactly.
pub fn no_float_unordered_reduce(rc: &RuleConfig, path: &str, file: &LexedFile) -> Vec<Diagnostic> {
    let toks = &file.tokens;
    let mask = test_mask(toks);
    let sources = typed_names(toks, &mask, &["HashMap", "HashSet", "Receiver"]);
    if sources.is_empty() {
        return Vec::new();
    }
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if mask[i] || toks[i].kind != TokKind::Ident || !sources.contains(&toks[i].text) {
            continue;
        }
        let source = toks[i].text.as_str();
        // Walk the method chain hanging off the binding.
        let mut j = i + 1;
        while j < toks.len() && is_punct(toks, j, ".") {
            let Some(method) = ident_at(toks, j + 1) else { break };
            let mut k = j + 2;
            // Optional turbofish: `::<T>`.
            let mut turbofish: Vec<&str> = Vec::new();
            if is_punct(toks, k, ":") && is_punct(toks, k + 1, ":") && is_punct(toks, k + 2, "<") {
                let close = angle_close(toks, k + 2);
                for t in &toks[k + 3..close.min(toks.len())] {
                    if t.kind == TokKind::Ident {
                        turbofish.push(t.text.as_str());
                    }
                }
                k = close + 1;
            }
            if !is_punct(toks, k, "(") {
                break; // field access or end of chain
            }
            if REDUCERS.contains(&method) {
                let int_exempt = matches!(method, "sum" | "product")
                    && turbofish.len() == 1
                    && INT_TYPES.contains(&turbofish[0]);
                if !int_exempt {
                    out.push(diag(
                        rc,
                        "no-float-unordered-reduce",
                        path,
                        toks[j + 1].line,
                        format!(
                            "`{source}.…{method}()` reduces over an unordered source; FP \
                             accumulation order changes the result bytes — collect and sort \
                             first, or reduce over an ordered container"
                        ),
                    ));
                }
            }
            j = matching_delim(toks, k, "(", ")") + 1;
        }
    }
    out
}

/// Index of the `>` closing the `<` at `open`, tolerant of `->`.
pub(crate) fn angle_close(toks: &[Tok], open: usize) -> usize {
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match punct_at(toks, i) {
            Some("<") => depth += 1,
            Some("-") if punct_at(toks, i + 1) == Some(">") => i += 1,
            Some(">") => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// `metric-catalog-sync`: the `metric_catalog!` invocation is the single
/// source of truth for metric ids. Every declared variant must be recorded
/// somewhere outside its declaring file (dead ids silently skew the
/// paper's traffic accounting tables), and every `MetricId::X` use site
/// must name a declared variant (an undeclared one would not compile, but
/// the rule catches it at lint time with a pointed message — and, unlike
/// rustc, also catches it in not-yet-compiled cfg arms). Import aliases of
/// `MetricId` are resolved through the symbol table.
pub fn metric_catalog_sync(
    rc: &RuleConfig,
    scoped: &[String],
    lexed: &BTreeMap<String, LexedFile>,
    ws: &Workspace,
) -> Vec<Diagnostic> {
    // Locate the catalog declaration.
    let mut catalog: Option<(String, BTreeMap<String, usize>)> = None;
    for rel in scoped {
        let Some(parsed) = ws.parsed.get(rel) else { continue };
        for item in parsed.all_items() {
            if item.kind == ItemKind::MacroInvocation
                && item.name.as_deref() == Some("metric_catalog")
            {
                if let Some((start, end)) = item.body {
                    let toks = &lexed[rel].tokens;
                    let mut variants = BTreeMap::new();
                    for i in start..end.min(toks.len()) {
                        if toks[i].kind == TokKind::Ident
                            && is_punct(toks, i + 1, "=")
                            && is_punct(toks, i + 2, ">")
                        {
                            variants.entry(toks[i].text.clone()).or_insert(toks[i].line);
                        }
                    }
                    catalog = Some((rel.clone(), variants));
                }
            }
        }
        if catalog.is_some() {
            break;
        }
    }
    let Some((decl_file, declared)) = catalog else {
        let at = scoped.first().cloned().unwrap_or_else(|| "lint.toml".into());
        return vec![diag(
            rc,
            "metric-catalog-sync",
            &at,
            1,
            "no `metric_catalog! { … }` invocation found in this rule's scope; fix the \
             [metric-catalog-sync] include paths in lint.toml"
                .into(),
        )];
    };

    // Collect `MetricId::Variant` use sites everywhere except the
    // declaring file (whose macro body and `id_from_index` inverse match
    // mention every variant by construction).
    let mut used: BTreeSet<String> = BTreeSet::new();
    let mut out = Vec::new();
    for rel in scoped {
        if *rel == decl_file {
            continue;
        }
        let Some(file) = lexed.get(rel) else { continue };
        let mut local_names = ws.local_names_for(rel, "MetricId");
        local_names.push("MetricId".to_string());
        let toks = &file.tokens;
        let mut seen_sites: BTreeSet<(usize, String)> = BTreeSet::new();
        for i in 0..toks.len() {
            if toks[i].kind != TokKind::Ident || !local_names.contains(&toks[i].text) {
                continue;
            }
            if !(is_punct(toks, i + 1, ":") && is_punct(toks, i + 2, ":")) {
                continue;
            }
            let Some(variant) = ident_at(toks, i + 3) else { continue };
            // `MetricId::def` / iterator calls are method paths, not
            // variants — variants are uppercase-initial.
            if !variant.chars().next().is_some_and(char::is_uppercase) {
                continue;
            }
            used.insert(variant.to_string());
            if !declared.contains_key(variant)
                && seen_sites.insert((toks[i + 3].line, variant.to_string()))
            {
                out.push(diag(
                    rc,
                    "metric-catalog-sync",
                    rel,
                    toks[i + 3].line,
                    format!(
                        "`MetricId::{variant}` is not declared in `metric_catalog!`; add it \
                         to the catalog or fix the id"
                    ),
                ));
            }
        }
    }
    for (variant, line) in &declared {
        if !used.contains(variant) {
            out.push(diag(
                rc,
                "metric-catalog-sync",
                &decl_file,
                *line,
                format!(
                    "`MetricId::{variant}` is declared in `metric_catalog!` but recorded \
                     nowhere in scope; delete the dead id or wire up its record site"
                ),
            ));
        }
    }
    out
}

/// `wire-schema-lock`: fingerprints every non-test `Serialize` type in
/// scope (field names, types, and declaration order — wire tags depend on
/// order) and compares against the checked-in lockfile. Schema drift fails
/// with a diff of the two fingerprints; additions and removals fail until
/// the lock is regenerated deliberately with `UPDATE_WIRE_LOCK=1`, making
/// wire-format changes an explicit, reviewable act instead of a silent
/// corruption of the traffic-byte accounting.
pub fn wire_schema_lock(
    rc: &RuleConfig,
    root: &Path,
    scoped: &[String],
    ws: &Workspace,
) -> Vec<Diagnostic> {
    let lock_rel = rc.lock.as_deref().unwrap_or("wire.lock");
    // `path:Name` → (fingerprint, source file, line).
    let mut current: BTreeMap<String, (String, String, usize)> = BTreeMap::new();
    for rel in scoped {
        let Some(parsed) = ws.parsed.get(rel) else { continue };
        for item in parsed.all_items() {
            if item.is_test || !item.derives.iter().any(|d| d == "Serialize") {
                continue;
            }
            let Some(name) = &item.name else { continue };
            let fp = match item.kind {
                ItemKind::Struct | ItemKind::Union => {
                    format!("struct{}", fields_fp(&item.fields))
                }
                ItemKind::Enum => {
                    let vs: Vec<String> = item
                        .variants
                        .iter()
                        .map(|v| format!("{}{}", v.name, fields_fp(&v.fields)))
                        .collect();
                    format!("enum {}", vs.join("|"))
                }
                _ => continue,
            };
            current.insert(format!("{rel}:{name}"), (fp, rel.clone(), item.line));
        }
    }

    let lock_path = root.join(lock_rel);
    if std::env::var("UPDATE_WIRE_LOCK").as_deref() == Ok("1") {
        let mut text = String::from(
            "# ec-lint wire-schema-lock: field/type fingerprints of the Serialize wire types.\n\
             # A mismatch here means the wire format changed; regenerate deliberately with\n\
             #   UPDATE_WIRE_LOCK=1 cargo run -q -p ec-lint -- --check\n",
        );
        for (key, (fp, _, _)) in &current {
            text.push_str(&format!("{key} {fp}\n"));
        }
        if let Err(e) = std::fs::write(&lock_path, text) {
            return vec![diag(
                rc,
                "wire-schema-lock",
                lock_rel,
                1,
                format!("failed to write {lock_rel}: {e}"),
            )];
        }
        return Vec::new();
    }

    let Ok(lock_text) = std::fs::read_to_string(&lock_path) else {
        return vec![diag(
            rc,
            "wire-schema-lock",
            lock_rel,
            1,
            format!(
                "{lock_rel} is missing; generate it with `UPDATE_WIRE_LOCK=1 cargo run -q \
                 -p ec-lint -- --check` and commit it"
            ),
        )];
    };
    let mut locked: BTreeMap<String, (String, usize)> = BTreeMap::new();
    for (idx, line) in lock_text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some((key, fp)) = line.split_once(' ') {
            locked.insert(key.to_string(), (fp.to_string(), idx + 1));
        }
    }

    let mut out = Vec::new();
    for (key, (fp, rel, line)) in &current {
        match locked.get(key) {
            None => out.push(diag(
                rc,
                "wire-schema-lock",
                rel,
                *line,
                format!(
                    "`{}` is a Serialize wire type with no {lock_rel} entry; lock the new \
                     schema in with UPDATE_WIRE_LOCK=1",
                    key.rsplit(':').next().unwrap_or(key)
                ),
            )),
            Some((locked_fp, _)) if locked_fp != fp => out.push(diag(
                rc,
                "wire-schema-lock",
                rel,
                *line,
                format!(
                    "wire schema drift in `{}`:\n  locked:  {locked_fp}\n  current: {fp}\n  \
                     this changes on-the-wire bytes and the traffic accounting; if \
                     intentional, regen with UPDATE_WIRE_LOCK=1",
                    key.rsplit(':').next().unwrap_or(key)
                ),
            )),
            Some(_) => {}
        }
    }
    for (key, (_, lock_line)) in &locked {
        if !current.contains_key(key) {
            out.push(diag(
                rc,
                "wire-schema-lock",
                lock_rel,
                *lock_line,
                format!(
                    "{lock_rel} entry `{key}` no longer matches any Serialize type in \
                     scope; if the type was removed on purpose, regen with \
                     UPDATE_WIRE_LOCK=1"
                ),
            ));
        }
    }
    out
}

fn fields_fp(fields: &[crate::parser::Field]) -> String {
    if fields.is_empty() {
        return String::new();
    }
    if fields[0].name.is_some() {
        let fs: Vec<String> = fields
            .iter()
            .map(|f| format!("{}:{}", f.name.as_deref().unwrap_or("_"), f.ty))
            .collect();
        format!("{{{}}}", fs.join(","))
    } else {
        let fs: Vec<&str> = fields.iter().map(|f| f.ty.as_str()).collect();
        format!("({})", fs.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::Severity;
    use crate::lexer::lex;

    fn rc() -> RuleConfig {
        RuleConfig {
            severity: Severity::Error,
            include: vec!["".into()],
            exclude: vec![],
            lock: None,
            entry_points: Vec::new(),
            sinks: Vec::new(),
        }
    }

    fn ws_of(files: &[(&str, &str)]) -> (Workspace, BTreeMap<String, LexedFile>) {
        let map: BTreeMap<String, LexedFile> =
            files.iter().map(|(p, s)| (p.to_string(), lex(s))).collect();
        let ws = Workspace::build(Path::new("/nonexistent-ws-root"), &map).expect("builds");
        (ws, map)
    }

    fn analysis_of(ws: &Workspace, map: &BTreeMap<String, LexedFile>) -> Analysis {
        let summaries: Vec<_> = map
            .iter()
            .map(|(rel, lexed)| {
                let module = ws.module_of(rel).unwrap_or("x").to_string();
                crate::callgraph::summarize_file(rel, &module, lexed, &ws.parsed[rel])
            })
            .collect();
        Analysis::build(ws, &summaries)
    }

    fn hygiene(files: &[(&str, &str)], path: &str) -> Vec<Diagnostic> {
        let (ws, map) = ws_of(files);
        let an = analysis_of(&ws, &map);
        thread_scope_hygiene(&rc(), path, &map[path], &ws, &an)
    }

    #[test]
    fn scope_hygiene_flags_sends_self_and_telemetry_in_closures() {
        let src = "fn go(&mut self) {\n\
                   let out = run_workers(t, n, |w| {\n\
                   self.step(w);\n\
                   network.send(w, msg);\n\
                   telemetry.add(id, lbl, 1);\n\
                   record_latency(w);\n\
                   w\n\
                   });\n\
                   }";
        let d = hygiene(&[("crates/core/src/engine.rs", src)], "crates/core/src/engine.rs");
        assert_eq!(d.len(), 4, "{d:?}");
        assert!(d[0].message.contains("`self`"));
        assert!(d[1].message.contains("network.send"));
        assert!(d[2].message.contains("telemetry.add"));
        assert!(d[3].message.contains("record_latency"));
    }

    #[test]
    fn scope_hygiene_allows_pure_compute_closures_and_replay_sends() {
        let src = "fn go() {\n\
                   let out = run_workers(t, n, |w| matmul(&h[w], &wts));\n\
                   for (w, r) in out.iter().enumerate() { network.send(w, r); }\n\
                   }";
        let d = hygiene(&[("crates/core/src/engine.rs", src)], "crates/core/src/engine.rs");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn scope_hygiene_skips_unrelated_run_workers() {
        // A local fn named run_workers that resolves to a non-exec module.
        let src = "fn run_workers(n: usize, f: impl Fn(usize)) {}\n\
                   fn go() { run_workers(4, |w| { self_like.send(w); }); }";
        let d = hygiene(&[("crates/graph/src/pool.rs", src)], "crates/graph/src/pool.rs");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn scope_hygiene_sees_scope_spawn() {
        let src =
            "fn go() { std::thread::scope(|s| { s.spawn(move || { sink.observe(m, l, v); }); }); }";
        let d = hygiene(&[("crates/core/src/exec.rs", src)], "crates/core/src/exec.rs");
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("sink.observe"));
    }

    #[test]
    fn scope_hygiene_flags_transitive_sends_through_helpers() {
        // closure → helper (other file) → send: invisible to the direct
        // scan, caught by the call-graph half with a chain note.
        let engine = "use crate::helpers::ship_partial;\n\
                      fn go() {\n\
                      let out = run_workers(t, n, |w| {\n\
                      ship_partial(w);\n\
                      w\n\
                      });\n\
                      }";
        let helpers = "pub fn ship_partial(w: usize) { net.send(w, b); }";
        let d = hygiene(
            &[("crates/core/src/engine.rs", engine), ("crates/core/src/helpers.rs", helpers)],
            "crates/core/src/engine.rs",
        );
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("transitively emits network traffic"), "{d:?}");
        let note = d[0].note.as_deref().expect("chain note");
        assert!(note.contains("ship_partial"), "{note}");
    }

    #[test]
    fn scope_hygiene_allows_pure_helpers() {
        let engine = "use crate::helpers::square;\n\
                      fn go() { let out = run_workers(t, n, |w| square(w)); }";
        let helpers = "pub fn square(w: usize) -> usize { w * w }";
        let d = hygiene(
            &[("crates/core/src/engine.rs", engine), ("crates/core/src/helpers.rs", helpers)],
            "crates/core/src/engine.rs",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn panic_reachability_walks_cross_file_chains() {
        let engine = "use crate::helpers::load;\n\
                      struct E;\nimpl E { fn run_epoch(&mut self) { load(0); } }";
        let helpers = "pub fn load(i: usize) -> u32 { table.get(i).unwrap() }";
        let (ws, map) = ws_of(&[
            ("crates/core/src/engine.rs", engine),
            ("crates/core/src/helpers.rs", helpers),
        ]);
        let an = analysis_of(&ws, &map);
        let mut cfg = rc();
        cfg.entry_points = vec!["E::run_epoch".into()];
        let d = no_panic_reachable(&cfg, &an);
        assert_eq!(d.len(), 1, "{d:?}");
        assert_eq!(d[0].path, "crates/core/src/helpers.rs");
        assert!(d[0].note.as_deref().unwrap().contains("run_epoch"), "{d:?}");

        // Excluding the helper file silences it; a dead entry point errors.
        cfg.exclude = vec!["crates/core/src/helpers.rs".into()];
        assert!(no_panic_reachable(&cfg, &an).is_empty());
        cfg.exclude = vec![];
        cfg.entry_points = vec!["E::no_such_entry".into()];
        let d = no_panic_reachable(&cfg, &an);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("matches no function"), "{d:?}");
    }

    #[test]
    fn determinism_taint_flags_unordered_flows_into_sinks() {
        let report = "use crate::stats::summarize;\n\
                      struct RunResult;\nimpl RunResult {\n\
                      fn to_json(&self) -> String { summarize(&self.counts); String::new() }\n\
                      }";
        let stats = "pub fn summarize(counts: &HashMap<u32, u64>) -> u64 {\n\
                     let mut n = 0;\nfor v in counts.values() { n += v; }\nn\n}";
        let (ws, map) =
            ws_of(&[("crates/core/src/report.rs", report), ("crates/core/src/stats.rs", stats)]);
        let an = analysis_of(&ws, &map);
        let mut cfg = rc();
        cfg.sinks = vec!["RunResult::to_json".into()];
        let d = determinism_taint(&cfg, &an);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("process-random order"), "{d:?}");
        assert!(d[0].note.as_deref().unwrap().contains("summarize"), "{d:?}");

        // An unmatched sink pattern is its own error.
        cfg.sinks = vec!["Nothing::here".into()];
        let d = determinism_taint(&cfg, &an);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("matches no function"), "{d:?}");
    }

    #[test]
    fn float_reduce_flags_hash_sources_and_exempts_integer_turbofish() {
        let src = "fn f(weights: HashMap<u32, f64>) -> f64 {\n\
                   let a: f64 = weights.values().sum();\n\
                   let b: u64 = weights.keys().copied().sum::<u64>();\n\
                   let c = weights.values().fold(0.0, |acc, x| acc + x);\n\
                   a + b as f64 + c\n\
                   }";
        let d = no_float_unordered_reduce(&rc(), "x.rs", &lex(src));
        assert_eq!(d.len(), 2, "{d:?}");
        assert_eq!(d[0].line, 2);
        assert_eq!(d[1].line, 4);
    }

    #[test]
    fn float_reduce_ignores_ordered_sources() {
        let src = "fn f(v: &[f64], m: HashMap<u32, f64>) -> f64 {\n\
                   let _ = m.len();\n\
                   v.iter().sum()\n\
                   }";
        assert!(no_float_unordered_reduce(&rc(), "x.rs", &lex(src)).is_empty());
    }

    #[test]
    fn float_reduce_tracks_mpsc_receivers() {
        let src = "fn f(rx: Receiver<f32>) -> f32 { rx.iter().sum() }";
        let d = no_float_unordered_reduce(&rc(), "x.rs", &lex(src));
        assert_eq!(d.len(), 1, "{d:?}");
    }

    #[test]
    fn catalog_sync_finds_dead_and_undeclared_ids() {
        let decl = "metric_catalog! {\n\
                    Alive => { \"a\", Counter, \"n\", [epoch] },\n\
                    Dead => { \"d\", Counter, \"n\", [epoch] },\n\
                    }";
        let user = "use ec_trace::registry::MetricId;\n\
                    fn f(s: &mut Sink) {\n\
                    s.add(MetricId::Alive, l, 1);\n\
                    s.add(MetricId::Ghost, l, 1);\n\
                    }";
        let files =
            [("crates/telemetry/src/registry.rs", decl), ("crates/telemetry/src/sink.rs", user)];
        let (ws, map) = ws_of(&files);
        let scoped: Vec<String> = files.iter().map(|(p, _)| p.to_string()).collect();
        let d = metric_catalog_sync(&rc(), &scoped, &map, &ws);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("Ghost") && x.path.ends_with("sink.rs")));
        assert!(d.iter().any(|x| x.message.contains("Dead") && x.path.ends_with("registry.rs")));
    }

    #[test]
    fn catalog_sync_resolves_import_aliases() {
        let decl = "metric_catalog! { Alive => { \"a\", Counter, \"n\", [epoch] }, }";
        let user = "use ec_trace::registry::MetricId as Id;\nfn f() { record(Id::Alive); }";
        let files = [("crates/telemetry/src/registry.rs", decl), ("crates/core/src/fp.rs", user)];
        let (ws, map) = ws_of(&files);
        let scoped: Vec<String> = files.iter().map(|(p, _)| p.to_string()).collect();
        assert!(metric_catalog_sync(&rc(), &scoped, &map, &ws).is_empty());
    }

    #[test]
    fn catalog_sync_errors_when_no_catalog_in_scope() {
        let (ws, map) = ws_of(&[("crates/core/src/fp.rs", "fn f() {}")]);
        let d = metric_catalog_sync(&rc(), &["crates/core/src/fp.rs".into()], &map, &ws);
        assert_eq!(d.len(), 1);
        assert!(d[0].message.contains("no `metric_catalog!"));
    }

    #[test]
    fn wire_lock_round_trips_through_a_tempdir() {
        let dir = std::env::temp_dir().join(format!("ec-lint-lock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = "#[derive(Serialize, Deserialize)]\npub struct P { a: u32, b: Vec<u8> }";
        let (ws, _) = ws_of(&[("src/wire.rs", src)]);
        let scoped = vec!["src/wire.rs".to_string()];
        let mut cfg = rc();
        cfg.lock = Some("wire.lock".into());

        // Missing lock → one error.
        let d = wire_schema_lock(&cfg, &dir, &scoped, &ws);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("missing"));

        // Write the expected lock by hand (env-var regen is exercised via
        // the CLI in the golden tests; mutating env vars here would race
        // the parallel test harness).
        std::fs::write(dir.join("wire.lock"), "# header\nsrc/wire.rs:P struct{a:u32,b:Vec<u8>}\n")
            .unwrap();
        assert!(wire_schema_lock(&cfg, &dir, &scoped, &ws).is_empty());

        // Drift → mismatch diagnostic with both fingerprints.
        std::fs::write(
            dir.join("wire.lock"),
            "src/wire.rs:P struct{a:u16,b:Vec<u8>}\nsrc/wire.rs:Gone struct{x:u8}\n",
        )
        .unwrap();
        let d = wire_schema_lock(&cfg, &dir, &scoped, &ws);
        assert_eq!(d.len(), 2, "{d:?}");
        assert!(d.iter().any(|x| x.message.contains("drift") && x.message.contains("a:u16")));
        assert!(d.iter().any(|x| x.message.contains("no longer matches")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn wire_lock_fingerprints_enums_in_declaration_order() {
        let src = "#[derive(Serialize, Deserialize)]\n\
                   pub enum FpMessage { Exact { h: Matrix }, Compressed(Quantized), Unit }";
        let (ws, _) = ws_of(&[("src/wire.rs", src)]);
        let mut cfg = rc();
        cfg.lock = Some("nope.lock".into());
        let d =
            wire_schema_lock(&cfg, Path::new("/nonexistent-ws-root"), &["src/wire.rs".into()], &ws);
        // Missing lock; the fingerprint itself is covered by building the
        // `current` map without panicking on all three variant shapes.
        assert_eq!(d.len(), 1);
    }
}
