//! The semantic rule families: cross-file passes built on the parser
//! ([`crate::parser`]), the workspace symbol table ([`crate::symbols`]) and
//! the call graph ([`crate::callgraph`]).
//!
//! Where the token-pattern rules in [`crate::rules`] ask "does this token
//! appear", these ask structural questions: *can this entry point reach a
//! panic*, *is every declared metric recorded somewhere*, *did a wire
//! struct's shape drift from its lockfile*. They are still heuristics —
//! the escape hatch remains an inline `ec-lint` allow comment — but the
//! false-positive surface is far smaller than a bare token match.

use crate::callgraph::Analysis;
use crate::config::RuleConfig;
use crate::diag::Diagnostic;
use crate::lexer::{LexedFile, TokKind};
use crate::parser::ItemKind;
use crate::rules::{diag, ident_at, is_punct};
use crate::symbols::Workspace;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// The reachability half of `no-panic-hot-path`: with `entry_points`
/// configured, every non-test function reachable from a superstep/serve
/// entry must be panic-free, wherever it lives — the `include` file list
/// becomes a fallback scope rather than the rule's definition. Each direct
/// panic site in a reached function is flagged at its own line, with
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
                rc.line_of("entry_points"),
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
        if node.is_test || rc.excludes(&node.path) || node.panics.is_empty() {
            continue;
        }
        let chain = entries
            .iter()
            .find_map(|e| analysis.path_between(e, fq))
            .map(|c| crate::callgraph::chain_note(&c));
        for site in &node.panics {
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

/// `metric-catalog-sync`: the `metric_catalog!` invocation is the single
/// source of truth for metric ids, and every declared variant must be
/// recorded somewhere outside its declaring file — a dead id silently skews
/// the paper's traffic accounting tables, and nothing in rustc notices an
/// enum variant that is only ever matched on. (The converse, a
/// `MetricId::X` use site naming an undeclared variant, is rustc's E0599.)
/// Import aliases of `MetricId` are resolved through the symbol table.
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
    let mut used: BTreeSet<&str> = BTreeSet::new();
    for rel in scoped {
        if *rel == decl_file {
            continue;
        }
        let Some(file) = lexed.get(rel) else { continue };
        let mut local_names = ws.local_names_for(rel, "MetricId");
        local_names.push("MetricId".to_string());
        let toks = &file.tokens;
        for i in 0..toks.len() {
            if toks[i].kind == TokKind::Ident
                && local_names.contains(&toks[i].text)
                && is_punct(toks, i + 1, ":")
                && is_punct(toks, i + 2, ":")
            {
                used.extend(ident_at(toks, i + 3));
            }
        }
    }
    let mut out = Vec::new();
    for (variant, line) in &declared {
        if !used.contains(variant.as_str()) {
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
    use crate::lexer::lex;

    fn rc() -> RuleConfig {
        RuleConfig { include: vec!["".into()], ..RuleConfig::default() }
    }

    fn ws_of(files: &[(&str, &str)]) -> (Workspace, BTreeMap<String, LexedFile>) {
        let map: BTreeMap<String, LexedFile> =
            files.iter().map(|(p, s)| (p.to_string(), lex(s))).collect();
        let ws = Workspace::build(Path::new("/nonexistent-ws-root"), &map).expect("builds");
        (ws, map)
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
        let an = Analysis::from_files(&ws, &map);
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
    fn catalog_sync_finds_declared_but_never_recorded_ids() {
        let decl = "metric_catalog! {\n\
                    Alive => { \"a\", Counter, \"n\", [epoch] },\n\
                    Dead => { \"d\", Counter, \"n\", [epoch] },\n\
                    }";
        let user = "use ec_trace::registry::MetricId;\n\
                    fn f(s: &mut Sink) { s.add(MetricId::Alive, l, 1); }";
        let files =
            [("crates/telemetry/src/registry.rs", decl), ("crates/telemetry/src/sink.rs", user)];
        let (ws, map) = ws_of(&files);
        let scoped: Vec<String> = files.iter().map(|(p, _)| p.to_string()).collect();
        let d = metric_catalog_sync(&rc(), &scoped, &map, &ws);
        assert_eq!(d.len(), 1, "{d:?}");
        assert!(d[0].message.contains("Dead") && d[0].path.ends_with("registry.rs"), "{d:?}");
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
