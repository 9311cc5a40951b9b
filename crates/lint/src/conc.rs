//! Concurrency-soundness rules: the v4 layer that watches the
//! [`WorkerPool`](../../tensor/src/pool.rs) era of the codebase.
//!
//! Three rule families, all built on [`crate::dataflow`]'s capture/write
//! sets and the PR 7 call graph:
//!
//! * `disjoint-band-writes` — a closure handed to the pool
//!   (`WorkerPool::run` / `exec::run_workers` / the superstep driver's
//!   `compute_superstep` / `parallel::run_bands`)
//!   may only write through its own parameters, its locals, and
//!   band-local `&mut` slices produced by `split_at_mut` and friends.
//!   A write to any other captured binding is a data race the moment two
//!   lanes run the closure family concurrently — and a call chain that
//!   *reaches* a shared-state writer is just as racy, so resolved calls
//!   are checked against a workspace-wide writer map with a witness
//!   chain in the note.
//! * `atomics-ordering-audit` — every `Ordering::Relaxed` access and
//!   every `unsafe { … }` block must carry an adjacent
//!   `// ec-lint: sound(<reason>)` justification, and every justified
//!   site is fingerprinted into a checked-in `unsafe.lock` so the
//!   inventory of deliberately-weak synchronization is reviewable and
//!   drift-proof, exactly like `wire.lock` guards the wire schema.
//! * `lock-then-wait-hygiene` — `Condvar::wait` must sit inside a
//!   predicate-rechecking loop (spurious wakeups are allowed by the
//!   platform), and no second `Mutex` may be acquired while a pool guard
//!   is held (the static half of deadlock freedom for the two-lock
//!   `JobQueue`/`Latch` design).

use crate::callgraph::{chain_note, Analysis};
use crate::dataflow;
use crate::diag::Diagnostic;
use crate::lexer::{LexedFile, Tok, TokKind};
use crate::rules::{diag, ident_at, is_punct, matching_brace, matching_delim, punct_at, test_mask};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Free/qualified dispatch functions whose closure arguments run on pool
/// lanes. `WorkerPool::run` itself takes an already-built `Vec<Task>`, so
/// the closures are caught at their `Box::new(move || …)` construction
/// sites instead (see [`task_box_sites`]).
const DISPATCH_FNS: &[&str] = &["run_workers", "compute_superstep", "run_bands"];

/// `disjoint-band-writes`: finds every closure that will execute on a pool
/// lane and checks its write set against the capture lattice. Returns one
/// error per offending write (direct) or per resolved call that reaches a
/// shared-state writer (with the witness chain as the note).
pub fn disjoint_band_writes(
    rc: &crate::config::RuleConfig,
    scoped: &[String],
    lexed: &BTreeMap<String, LexedFile>,
    analysis: &Analysis,
) -> Vec<Diagnostic> {
    let writers = shared_writers(lexed, analysis);
    let mut out = Vec::new();
    for rel in scoped {
        let Some(file) = lexed.get(rel) else { continue };
        let toks = &file.tokens;
        let mask = test_mask(toks);
        let bands = dataflow::band_bindings(toks, (0, toks.len()));
        for (open, until) in dispatch_arg_ranges(toks, &mask) {
            let Some((params, body)) = dataflow::closure_in(toks, open, until) else { continue };
            check_closure(rc, rel, toks, params, body, &bands, &writers, analysis, &mut out);
        }
    }
    // Nested dispatch expressions can scan overlapping ranges; keep one
    // diagnostic per (path, line, message).
    out.sort_by(|a, b| (&a.path, a.line, &a.message).cmp(&(&b.path, b.line, &b.message)));
    out.dedup_by(|a, b| a.path == b.path && a.line == b.line && a.message == b.message);
    out
}

/// Workspace-wide map of functions that write shared state: any non-test
/// function with a write whose root is neither a parameter, a local, nor a
/// band binding. The value is a human-readable witness of the first such
/// write, used in interprocedural findings.
fn shared_writers(
    lexed: &BTreeMap<String, LexedFile>,
    analysis: &Analysis,
) -> BTreeMap<String, String> {
    let mut writers = BTreeMap::new();
    for (fq, node) in &analysis.nodes {
        let (Some(body), Some(file), false) = (node.body, lexed.get(&node.path), node.is_test)
        else {
            continue;
        };
        let toks = &file.tokens;
        let mut allowed: BTreeSet<String> = dataflow::local_names(toks, body);
        allowed.extend(dataflow::band_bindings(toks, body));
        if let Some(params) = dataflow::fn_param_range(toks, node.line, body.0) {
            allowed.extend(dataflow::param_names(toks, params));
        }
        for w in dataflow::write_sites(toks, body) {
            if !allowed.contains(&w.root) {
                writers.insert(fq.clone(), format!("{} at {}:{}", w.what, node.path, w.line));
                break;
            }
        }
    }
    writers
}

/// Token ranges `(start, until)` in which a pool-bound closure literal can
/// appear: the argument lists of [`DISPATCH_FNS`] calls plus
/// `Box::new(…)` task-construction sites.
fn dispatch_arg_ranges(toks: &[Tok], mask: &[bool]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        if DISPATCH_FNS.contains(&name) && is_punct(toks, i + 1, "(") {
            out.push((i + 2, matching_delim(toks, i + 1, "(", ")")));
        }
        if name == "Box"
            && is_punct(toks, i + 1, ":")
            && is_punct(toks, i + 2, ":")
            && ident_at(toks, i + 3) == Some("new")
            && is_punct(toks, i + 4, "(")
            && boxes_a_task(toks, i)
        {
            out.push((i + 5, matching_delim(toks, i + 4, "(", ")")));
        }
    }
    out
}

/// Whether the `Box` at `i` builds a pool task: either pushed straight
/// onto a task vector (`tasks.push(Box::new(…))`) or bound by a statement
/// that names the `Task` type (`let job: Task = Box::new(…)`).
fn boxes_a_task(toks: &[Tok], i: usize) -> bool {
    if i >= 2 && ident_at(toks, i - 2) == Some("push") && is_punct(toks, i - 1, "(") {
        return true;
    }
    let mut j = i;
    while j > 0 && !matches!(punct_at(toks, j - 1), Some(";" | "{" | "}")) {
        j -= 1;
        if ident_at(toks, j) == Some("Task") {
            return true;
        }
    }
    false
}

/// Checks one pool-bound closure: direct captured writes, then resolved
/// calls that reach a shared-state writer.
#[allow(clippy::too_many_arguments)]
fn check_closure(
    rc: &crate::config::RuleConfig,
    path: &str,
    toks: &[Tok],
    params: (usize, usize),
    body: (usize, usize),
    bands: &BTreeSet<String>,
    writers: &BTreeMap<String, String>,
    analysis: &Analysis,
    out: &mut Vec<Diagnostic>,
) {
    let mut allowed = dataflow::param_names(toks, params);
    allowed.extend(dataflow::local_names(toks, body));
    allowed.extend(dataflow::band_bindings(toks, body));
    allowed.extend(bands.iter().cloned());
    for w in dataflow::write_sites(toks, body) {
        if allowed.contains(&w.root) {
            continue;
        }
        out.push(diag(
            rc,
            "disjoint-band-writes",
            path,
            w.line,
            format!(
                "pool-dispatched closure writes captured shared binding `{}` ({}); worker \
                 closures may only write through band-local `&mut` slices — split the output \
                 with `split_at_mut` and move the band in, or return the value and merge it \
                 after the join",
                w.root, w.what
            ),
        ));
    }
    for (caller_fq, sites) in &analysis.edges {
        let Some(node) = analysis.nodes.get(caller_fq) else { continue };
        if node.path != path {
            continue;
        }
        for site in sites {
            if site.tok < body.0 || site.tok >= body.1 {
                continue;
            }
            let reached = analysis.reachable_from(std::slice::from_ref(&site.callee));
            let Some(writer_fq) = reached.iter().find(|fq| writers.contains_key(*fq)) else {
                continue;
            };
            let called = ident_at(toks, site.tok).unwrap_or("<call>");
            let mut d = diag(
                rc,
                "disjoint-band-writes",
                path,
                site.line,
                format!(
                    "`{called}()` inside a pool-dispatched closure reaches `{}`, which writes \
                     shared state ({}); two lanes running this closure race on that write",
                    writer_fq.rsplit("::").next().unwrap_or(writer_fq),
                    writers[writer_fq]
                ),
            );
            if let Some(chain) = analysis.path_between(&site.callee, writer_fq) {
                d.note = Some(chain_note(&chain));
            }
            out.push(d);
        }
    }
}

/// One auditable site: a `Relaxed` access or an `unsafe` block.
struct AuditSite {
    /// `"relaxed"` or `"unsafe"`.
    kind: &'static str,
    /// 1-based source line.
    line: usize,
    /// Rendering of the site's line of tokens, hashed into the fingerprint
    /// so editing the site invalidates its lock entry.
    text: String,
}

/// `atomics-ordering-audit`: every `Ordering::Relaxed` access and every
/// `unsafe { … }` block in scope needs an adjacent
/// `// ec-lint: sound(<reason>)` justification; justified sites are
/// fingerprinted into the lockfile (default `unsafe.lock`), regenerated
/// deliberately with `UPDATE_UNSAFE_LOCK=1`. Markers justifying nothing
/// are themselves errors — a stale `sound()` is worse than none.
pub fn atomics_ordering_audit(
    rc: &crate::config::RuleConfig,
    root: &Path,
    scoped: &[String],
    lexed: &BTreeMap<String, LexedFile>,
) -> Vec<Diagnostic> {
    let lock_rel = rc.lock.as_deref().unwrap_or("unsafe.lock");
    let mut out = Vec::new();
    // `path:kind#ordinal` → (fingerprint-with-reason, path, line).
    let mut current: BTreeMap<String, (String, String, usize)> = BTreeMap::new();
    for rel in scoped {
        let Some(file) = lexed.get(rel) else { continue };
        let sites = audit_sites(&file.tokens);
        let mut matched_markers: BTreeSet<usize> = BTreeSet::new();
        let mut ordinals: BTreeMap<&'static str, usize> = BTreeMap::new();
        for site in &sites {
            // A marker covers its own line and the line below it, the same
            // contract `allow()` suppressions follow.
            let marker =
                file.sound_markers.iter().find(|m| m.line == site.line || m.line + 1 == site.line);
            let Some(marker) = marker else {
                let what = match site.kind {
                    "relaxed" => "`Ordering::Relaxed` access",
                    _ => "`unsafe` block",
                };
                out.push(diag(
                    rc,
                    "atomics-ordering-audit",
                    rel,
                    site.line,
                    format!(
                        "{what} without a `// ec-lint: sound(<reason>)` justification; state \
                         why the weak ordering (or the unsafe invariant) is correct, on this \
                         line or the one above"
                    ),
                ));
                continue;
            };
            matched_markers.insert(marker.line);
            let ord = ordinals.entry(site.kind).or_insert(0);
            let key = format!("{rel}:{}#{}", site.kind, *ord);
            *ord += 1;
            let h = crate::cache::fnv1a(
                format!("{}|{}|{}", site.kind, site.text, marker.reason).as_bytes(),
            );
            current.insert(key, (format!("{h:016x} {}", marker.reason), rel.clone(), site.line));
        }
        for m in &file.sound_markers {
            if !matched_markers.contains(&m.line) {
                out.push(diag(
                    rc,
                    "atomics-ordering-audit",
                    rel,
                    m.line,
                    format!(
                        "`ec-lint: sound({})` justifies no `Ordering::Relaxed` access or \
                         `unsafe` block on this or the next line; remove the stale marker",
                        m.reason
                    ),
                ));
            }
        }
    }

    let lock_path = root.join(lock_rel);
    if std::env::var("UPDATE_UNSAFE_LOCK").as_deref() == Ok("1") {
        let mut text = String::from(
            "# ec-lint atomics-ordering-audit: fingerprints of every justified Relaxed\n\
             # access and unsafe block. A mismatch means a weak-ordering site changed;\n\
             # re-review it, then regen with UPDATE_UNSAFE_LOCK=1 cargo run -q -p ec-lint -- --check\n",
        );
        for (key, (fp, _, _)) in &current {
            text.push_str(&format!("{key} {fp}\n"));
        }
        if let Err(e) = std::fs::write(&lock_path, text) {
            return vec![diag(
                rc,
                "atomics-ordering-audit",
                lock_rel,
                1,
                format!("failed to write {lock_rel}: {e}"),
            )];
        }
        return Vec::new();
    }

    let Ok(lock_text) = std::fs::read_to_string(&lock_path) else {
        // With no justified sites there is nothing to inventory; the
        // lockfile only becomes mandatory once a site earns an entry.
        if !current.is_empty() {
            out.push(diag(
                rc,
                "atomics-ordering-audit",
                lock_rel,
                1,
                format!(
                    "{lock_rel} is missing; generate it with `UPDATE_UNSAFE_LOCK=1 cargo run \
                     -q -p ec-lint -- --check` and commit it"
                ),
            ));
        }
        return out;
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
    for (key, (fp, rel, line)) in &current {
        match locked.get(key) {
            None => out.push(diag(
                rc,
                "atomics-ordering-audit",
                rel,
                *line,
                format!(
                    "justified site `{key}` has no {lock_rel} entry; inventory the new \
                     weak-ordering site with UPDATE_UNSAFE_LOCK=1"
                ),
            )),
            Some((locked_fp, _)) if locked_fp != fp => out.push(diag(
                rc,
                "atomics-ordering-audit",
                rel,
                *line,
                format!(
                    "audited site `{key}` drifted from {lock_rel}:\n  locked:  {locked_fp}\n  \
                     current: {fp}\n  the code or its sound() justification changed; \
                     re-review the ordering argument, then regen with UPDATE_UNSAFE_LOCK=1"
                ),
            )),
            Some(_) => {}
        }
    }
    for (key, (_, lock_line)) in &locked {
        if !current.contains_key(key) {
            out.push(diag(
                rc,
                "atomics-ordering-audit",
                lock_rel,
                *lock_line,
                format!(
                    "{lock_rel} entry `{key}` no longer matches any justified site in scope; \
                     if the site was removed on purpose, regen with UPDATE_UNSAFE_LOCK=1"
                ),
            ));
        }
    }
    out
}

/// Collects every `Ordering::Relaxed` access and `unsafe {` block outside
/// `#[cfg(test)]` regions, in token order.
fn audit_sites(toks: &[Tok]) -> Vec<AuditSite> {
    let mask = test_mask(toks);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if mask.get(i).copied().unwrap_or(false) || toks[i].kind != TokKind::Ident {
            continue;
        }
        let kind = match toks[i].text.as_str() {
            "Relaxed"
                if i >= 3
                    && is_punct(toks, i - 1, ":")
                    && is_punct(toks, i - 2, ":")
                    && ident_at(toks, i - 3) == Some("Ordering") =>
            {
                "relaxed"
            }
            "unsafe" if is_punct(toks, i + 1, "{") => "unsafe",
            _ => continue,
        };
        let line = toks[i].line;
        let text: String = toks
            .iter()
            .filter(|t| t.line == line)
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        out.push(AuditSite { kind, line, text });
    }
    out
}

/// `lock-then-wait-hygiene`: two token-local checks over the pool module.
/// Every `.wait(` must sit inside a `loop`/`while`/`for` body (the
/// predicate recheck that makes spurious wakeups harmless), and while a
/// `lock(…)` guard binding is live (from its `let` to `drop(guard)` or
/// block end) no second `lock(` may run — the static lock-order discipline
/// that keeps the `JobQueue`/`Latch` pair deadlock-free.
pub fn lock_then_wait_hygiene(
    rc: &crate::config::RuleConfig,
    path: &str,
    file: &LexedFile,
) -> Vec<Diagnostic> {
    let toks = &file.tokens;
    let mask = test_mask(toks);
    let loops = loop_bodies(toks);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if mask.get(i).copied().unwrap_or(false) {
            continue;
        }
        // `Condvar::wait` always takes the guard, so a zero-argument
        // `.wait()` (e.g. `Latch::wait`, which loops internally) is not a
        // condvar site.
        if ident_at(toks, i) == Some("wait")
            && is_punct(toks, i + 1, "(")
            && !is_punct(toks, i + 2, ")")
            && i >= 1
            && is_punct(toks, i - 1, ".")
            && !loops.iter().any(|&(s, e)| i > s && i < e)
        {
            out.push(diag(
                rc,
                "lock-then-wait-hygiene",
                path,
                toks[i].line,
                "`Condvar::wait` outside a predicate-rechecking loop; spurious wakeups are \
                 legal, so the wait must be `while !predicate { state = cv.wait(state)… }`"
                    .to_string(),
            ));
        }
    }
    for (guard, decl_end, region_end) in guard_regions(toks) {
        for j in decl_end..region_end {
            if mask.get(j).copied().unwrap_or(false) {
                continue;
            }
            if ident_at(toks, j) == Some("lock") && is_punct(toks, j + 1, "(") {
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

/// Token ranges of `loop`/`while`/`for` body interiors (brace-matched; the
/// opening `{` is found at zero paren/bracket depth so closure args and
/// struct literals in the header don't fool the scan).
fn loop_bodies(toks: &[Tok]) -> Vec<(usize, usize)> {
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if !matches!(ident_at(toks, i), Some("loop" | "while" | "for")) {
            continue;
        }
        let mut depth = 0i32;
        let mut j = i + 1;
        while j < toks.len() {
            match punct_at(toks, j) {
                Some("(" | "[") => depth += 1,
                Some(")" | "]") => depth -= 1,
                Some("{") if depth == 0 => break,
                Some(";") if depth == 0 => {
                    j = toks.len(); // `loop` used as an ident-ish fragment; bail
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        if j < toks.len() {
            out.push((j, matching_brace(toks, j)));
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuleConfig;
    use crate::diag::Severity;
    use crate::lexer::lex;

    fn rc() -> RuleConfig {
        RuleConfig {
            severity: Severity::Error,
            include: vec![String::new()],
            exclude: Vec::new(),
            lock: None,
            entry_points: Vec::new(),
            sinks: Vec::new(),
        }
    }

    #[test]
    fn wait_outside_a_loop_is_flagged_and_inside_is_not() {
        let bad = lex("fn f(cv: &Condvar, g: G) { let g = cv.wait(g).unwrap(); }");
        let out = lock_then_wait_hygiene(&rc(), "src/a.rs", &bad);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("predicate-rechecking"));

        let ok = lex(
            "fn f(cv: &Condvar, mut g: G) { while g.pending > 0 { g = cv.wait(g).unwrap(); } }",
        );
        assert!(lock_then_wait_hygiene(&rc(), "src/a.rs", &ok).is_empty());
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

    #[test]
    fn audit_sites_find_relaxed_and_unsafe_outside_tests() {
        let f = lex("fn f() { let t = N.fetch_add(1, Ordering::Relaxed); unsafe { go(t) } }\n\
             #[cfg(test)]\nmod tests { fn g() { M.load(Ordering::Relaxed); } }");
        let sites = audit_sites(&f.tokens);
        assert_eq!(sites.len(), 2, "test-mod site excluded");
        assert_eq!(sites[0].kind, "relaxed");
        assert_eq!(sites[1].kind, "unsafe");
    }

    #[test]
    fn unjustified_sites_and_stale_markers_are_flagged() {
        let dir = std::env::temp_dir().join(format!("ec-conc-audit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = "// ec-lint: sound(covers the line below)\n\
                   static N: AtomicU64 = AtomicU64::new(0);\n\
                   fn f() { N.store(1, Ordering::Relaxed); }\n";
        let mut lexed = BTreeMap::new();
        lexed.insert("src/a.rs".to_string(), lex(src));
        let out = atomics_ordering_audit(&rc(), &dir, &["src/a.rs".to_string()], &lexed);
        // Line 3's Relaxed is unjustified (marker covers lines 1-2 only) and
        // the marker itself is stale — two findings, no lockfile complaint
        // needed because nothing was justified.
        assert_eq!(out.len(), 2, "{out:?}");
        assert!(out.iter().any(|d| d.line == 3 && d.message.contains("without a")));
        assert!(out.iter().any(|d| d.line == 1 && d.message.contains("stale")));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn justified_sites_roundtrip_through_the_lockfile() {
        let dir = std::env::temp_dir().join(format!("ec-conc-lock-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let src = "fn f() {\n\
                   // ec-lint: sound(token ids only need uniqueness)\n\
                   let t = N.fetch_add(1, Ordering::Relaxed);\n\
                   }\n";
        let mut lexed = BTreeMap::new();
        lexed.insert("src/a.rs".to_string(), lex(src));
        let scoped = ["src/a.rs".to_string()];

        // Missing lockfile → one finding naming the lock.
        let out = atomics_ordering_audit(&rc(), &dir, &scoped, &lexed);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("unsafe.lock is missing"));

        // Write a matching lock by reproducing the fingerprint scheme.
        let line3: String = lex(src)
            .tokens
            .iter()
            .filter(|t| t.line == 3)
            .map(|t| t.text.as_str())
            .collect::<Vec<_>>()
            .join(" ");
        let h = crate::cache::fnv1a(
            format!("relaxed|{line3}|token ids only need uniqueness").as_bytes(),
        );
        std::fs::write(
            dir.join("unsafe.lock"),
            format!("src/a.rs:relaxed#0 {h:016x} token ids only need uniqueness\n"),
        )
        .unwrap();
        assert!(atomics_ordering_audit(&rc(), &dir, &scoped, &lexed).is_empty());

        // Corrupt the fingerprint → drift finding at the site.
        std::fs::write(
            dir.join("unsafe.lock"),
            "src/a.rs:relaxed#0 0000000000000000 token ids only need uniqueness\n",
        )
        .unwrap();
        let out = atomics_ordering_audit(&rc(), &dir, &scoped, &lexed);
        assert_eq!(out.len(), 1, "{out:?}");
        assert!(out[0].message.contains("drifted"), "{}", out[0].message);
        assert_eq!(out[0].line, 3);
        std::fs::remove_dir_all(&dir).ok();
    }
}
