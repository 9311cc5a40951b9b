//! Tier-1 reach: `cargo test -q` at the root runs only the umbrella crate's
//! suites and never runs clippy, so without this file the Tier-1 line could
//! pass while the pool's interleaving model fails, a metric is declared and
//! never recorded, or an `#[expect]` quietly widens what the compiler was
//! told to look away from. DESIGN.md §8 has the table these gates belong to.

use ec_graph_repro::trace::MetricId;
use std::path::Path;

/// The pool's `JobQueue`/`Latch` interleaving explorer at its quick bounds
/// (`RUSTFLAGS="--cfg ec_loom"` widens them, as in CI's loom job).
#[path = "../crates/tensor/tests/interleave.rs"]
mod interleave;

/// The panic ban, as every crate root in its scope spells it.
const PANIC_DENY: [&str; 2] = [
    "#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]",
    "#![deny(clippy::todo, clippy::unimplemented)]",
];

/// Every tracked-looking `.rs` file under the workspace root (build
/// directories and dot-directories skipped) as `(relative path, text)`,
/// sorted by path; this file itself is left out, since it spells the
/// needles it searches for.
fn workspace_sources() -> Vec<(String, String)> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
            if path.is_dir() {
                if name != "target" && !name.starts_with('.') {
                    walk(root, &path, out);
                }
            } else if name.ends_with(".rs") {
                let rel = path.strip_prefix(root).expect("under the root");
                let rel = rel.to_str().expect("utf-8 path").replace('\\', "/");
                out.push((rel, std::fs::read_to_string(&path).expect("readable source")));
            }
        }
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = Vec::new();
    walk(root, root, &mut out);
    out.retain(|(rel, _)| rel != file!());
    out.sort();
    out
}

/// `text` with everything after `//` on each line removed.
fn code_of(text: &str) -> String {
    text.lines()
        .map(|line| line.split("//").next().unwrap_or_default())
        .collect::<Vec<_>>()
        .join("\n")
}

/// Whether `code` contains `word` not followed by an identifier character.
fn names(code: &str, word: &str) -> bool {
    code.match_indices(word).any(|(at, _)| {
        !code[at + word.len()..].starts_with(|c: char| c.is_alphanumeric() || c == '_')
    })
}

/// Paths of the sources whose text satisfies `pred`.
fn matching(sources: &[(String, String)], pred: impl Fn(&str) -> bool) -> Vec<&str> {
    sources.iter().filter(|(_, text)| pred(text)).map(|(rel, _)| rel.as_str()).collect()
}

/// The catalog variants that no source other than `registry.rs` names as
/// `MetricId::<Variant>` in code.
fn unrecorded<'a>(variants: &'a [String], sources: &[(String, String)]) -> Vec<&'a str> {
    let code: Vec<String> = sources
        .iter()
        .filter(|(rel, _)| !rel.ends_with("registry.rs"))
        .map(|(_, text)| code_of(text))
        .collect();
    let recorded = |v: &&String| code.iter().any(|c| names(c, &format!("MetricId::{v}")));
    variants.iter().filter(|v| !recorded(v)).map(String::as_str).collect()
}

/// `metric_catalog!` is the single source of truth for metric ids, and a
/// use site naming an undeclared variant is rustc's E0599; this is the
/// other direction — a declared metric that nothing records is a series
/// every exporter and dashboard lists and no run ever fills.
#[test]
fn every_catalog_metric_is_recorded_somewhere() {
    let variants: Vec<String> = MetricId::ALL.iter().map(|id| format!("{id:?}")).collect();
    assert_eq!(variants.len(), ec_graph_repro::trace::registry::CATALOG.len());
    let product: Vec<(String, String)> = workspace_sources()
        .into_iter()
        .filter(|(rel, _)| {
            rel.starts_with("src/") || (rel.starts_with("crates/") && rel.contains("/src/"))
        })
        .collect();
    assert_eq!(
        unrecorded(&variants, &product),
        [""; 0],
        "declared in metric_catalog!, recorded nowhere"
    );

    // The matcher itself: a source set that records everything but one
    // name — which is a prefix of another, mentioned in a comment and
    // spelled out in registry.rs — misses exactly that name.
    let mut synthetic: Vec<(String, String)> = variants
        .iter()
        .filter(|v| *v != "ServeCacheHit")
        .map(|v| (format!("crates/x/src/{v}.rs"), format!("sink.add(MetricId::{v}, l, 1);")))
        .collect();
    synthetic.push(("crates/x/src/doc.rs".into(), "// MetricId::ServeCacheHit counts rows".into()));
    synthetic.push(("crates/telemetry/src/registry.rs".into(), "MetricId::ServeCacheHit,".into()));
    assert_eq!(unrecorded(&variants, &synthetic), ["ServeCacheHit"]);
}

/// The compiler enforces the determinism, concurrency and panic-freedom
/// invariants (`clippy.toml`, the crate-root denies, `forbid(unsafe_code)`);
/// this pins where it was switched on and the places it was told to look
/// away, so neither a dropped `#![deny]` nor a new `#[expect]` goes unseen.
#[test]
fn escape_hatches_are_a_closed_list() {
    let sources = workspace_sources();
    let containing = |needle: &str| matching(&sources, |text| text.contains(needle));

    assert_eq!(
        containing("clippy::disallowed_"),
        [
            "crates/comm/src/clock.rs",
            "crates/core/src/exec.rs",
            "crates/tensor/src/pool.rs",
            "crates/tensor/src/pool/sync.rs",
            "tests/clippy_bans.rs",
            // The allocation-budget tests' counting `#[global_allocator]`.
            "tests/counting_alloc/mod.rs"
        ]
    );
    // Of those, the ones that opt a whole file out. `pool.rs` is not one:
    // its process-wide state and its thread spawn carry item-level expects.
    let file_wide = |text: &str| {
        let mut inner_attrs = text.split("#![").skip(1).filter_map(|rest| rest.split(")]").next());
        inner_attrs.any(|attr| attr.contains("clippy::disallowed_"))
    };
    assert_eq!(
        matching(&sources, file_wide),
        [
            "crates/comm/src/clock.rs",
            "crates/tensor/src/pool/sync.rs",
            "tests/counting_alloc/mod.rs"
        ]
    );
    // Single-lock ordering is privacy: `pool::sync` is the only product
    // code that names a lock type at all.
    let names_a_lock = |text: &str| {
        let code = code_of(text);
        names(&code, "Mutex") || names(&code, "Condvar") || names(&code, "RwLock")
    };
    assert_eq!(
        matching(&sources, names_a_lock),
        ["crates/tensor/src/pool/sync.rs", "tests/clippy_bans.rs"]
    );

    assert_eq!(containing("allow(unsafe_code"), [""; 0]);
    // The two `unsafe` sites: entering `#[target_feature]` kernel code behind
    // a detected-feature proof token, and the pool's lifetime-erased tasks.
    assert_eq!(
        containing("expect(unsafe_code"),
        ["crates/tensor/src/isa.rs", "crates/tensor/src/pool.rs"]
    );

    // The panic ban: which files switch it on …
    let denies_panics = |text: &str| PANIC_DENY.iter().all(|d| text.lines().any(|l| l == *d));
    assert_eq!(
        matching(&sources, denies_panics),
        [
            "crates/comm/src/lib.rs",
            "crates/compress/src/lib.rs",
            "crates/core/src/lib.rs",
            "crates/faults/src/lib.rs",
            "crates/graph/src/lib.rs",
            // The autodiff tape the comparators' compute blocks call; the
            // rest of `ec-nn` is the loss and accuracy, which assert their
            // documented preconditions.
            "crates/nn/src/tape.rs",
            "crates/partition/src/lib.rs",
            "crates/serve/src/lib.rs",
            "crates/telemetry/src/lib.rs",
            "crates/tensor/src/lib.rs",
            "shims/rand/src/lib.rs",
            // Its seeded `#[expect]`s sit under the same line.
            "tests/clippy_bans.rs"
        ]
    );
    // … and every other mention of one of its lints is an exemption.
    let exempts_a_panic = |text: &str| {
        let code = code_of(&text.replace(PANIC_DENY[0], "").replace(PANIC_DENY[1], ""));
        ["unwrap_used", "expect_used", "panic", "todo", "unimplemented"]
            .iter()
            .any(|lint| names(&code, &format!("clippy::{lint}")))
    };
    assert_eq!(
        matching(&sources, exempts_a_panic),
        [
            // `run_to_convergence`, the orchestration boundary.
            "crates/core/src/trainer.rs",
            // `FaultInjector::new`, documented `# Panics`.
            "crates/faults/src/lib.rs",
            "tests/clippy_bans.rs"
        ]
    );

    let roots = sources.iter().filter(|(rel, _)| rel.ends_with("src/lib.rs"));
    for (rel, text) in roots.filter(|(rel, _)| !rel.starts_with("perfbench/")) {
        let unsafe_gate = if rel == "crates/tensor/src/lib.rs" {
            "#![deny(unsafe_code, clippy::undocumented_unsafe_blocks, clippy::unnecessary_safety_comment)]"
        } else {
            "#![forbid(unsafe_code)]"
        };
        for attr in [unsafe_gate, "#![deny(clippy::iter_over_hash_type)]"] {
            assert!(text.lines().any(|l| l == attr), "{rel} must carry `{attr}`");
        }
    }
}
