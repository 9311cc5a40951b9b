//! Seeded proof that every clippy ban the workspace relies on is live.
//!
//! Each function below commits exactly one banned act under an
//! `#[expect(clippy::…)]`; for a `clippy.toml` entry the `reason` names the
//! entry it exercises. `cargo clippy --all-targets -- -D warnings`
//! (scripts/check.sh) compiles this file: with the ban in force the
//! expectation is fulfilled and the build is green; delete the
//! `clippy.toml` entry, or let a lint stop catching its pattern, and the
//! build fails with "this lint expectation is unfulfilled". DESIGN.md §8
//! maps each invariant to its function here.
//!
//! The one `#[test]` keeps this file in step with `clippy.toml` and with
//! the panic ban's lint list.
#![allow(dead_code, reason = "each function exists to be linted, not called")]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

use std::collections::{HashMap, HashSet};

// ---- disallowed-methods: the wall clock --------------------------------

#[expect(clippy::disallowed_methods, reason = "std::time::Instant::now")]
#[expect(clippy::disallowed_types, reason = "the receiver type is banned too")]
fn wall_clock_measure() -> f64 {
    std::time::Instant::now().elapsed().as_secs_f64()
}

#[expect(clippy::disallowed_methods, reason = "std::time::SystemTime::now")]
#[expect(clippy::disallowed_types, reason = "the receiver type is banned too")]
fn wall_clock_stamp() -> bool {
    std::time::SystemTime::now().elapsed().is_ok()
}

// ---- disallowed-methods: hash-container iteration ----------------------

#[expect(clippy::disallowed_methods, reason = "std::collections::HashMap::iter")]
fn sum_scores(scores: &HashMap<u32, f64>) -> f64 {
    scores.iter().map(|(k, v)| f64::from(*k) * v).sum() // also the float-reduce family
}

#[expect(clippy::disallowed_methods, reason = "std::collections::HashMap::iter_mut")]
fn scale_scores(scores: &mut HashMap<u32, f64>) {
    scores.iter_mut().for_each(|(_, v)| *v *= 2.0);
}

#[expect(clippy::disallowed_methods, reason = "std::collections::HashMap::keys")]
fn key_list(index: &HashMap<u32, u32>) -> Vec<u32> {
    index.keys().copied().collect()
}

#[expect(clippy::disallowed_methods, reason = "std::collections::HashMap::values")]
fn fold_weights(weights: &HashMap<u32, f64>) -> f64 {
    weights.values().fold(0.0, |acc, x| acc + x)
}

#[expect(clippy::disallowed_methods, reason = "std::collections::HashMap::values_mut")]
fn zero_weights(weights: &mut HashMap<u32, f64>) {
    weights.values_mut().for_each(|v| *v = 0.0);
}

#[expect(clippy::disallowed_methods, reason = "std::collections::HashMap::drain")]
fn drain_map(pending: &mut HashMap<u32, u32>) -> Vec<(u32, u32)> {
    pending.drain().collect()
}

#[expect(clippy::disallowed_methods, reason = "std::collections::HashMap::into_keys")]
fn owned_keys(index: HashMap<u32, u32>) -> Vec<u32> {
    index.into_keys().collect()
}

#[expect(clippy::disallowed_methods, reason = "std::collections::HashMap::into_values")]
fn owned_values(index: HashMap<u32, u32>) -> Vec<u32> {
    index.into_values().collect()
}

#[expect(clippy::disallowed_methods, reason = "std::collections::HashSet::iter")]
fn id_list(ids: &HashSet<u32>) -> Vec<u32> {
    ids.iter().copied().collect()
}

#[expect(clippy::disallowed_methods, reason = "std::collections::HashSet::drain")]
fn drain_set(pending: &mut HashSet<u32>) -> Vec<u32> {
    pending.drain().collect()
}

// ---- disallowed-methods: threads, channels and condvar waits -----------

#[expect(clippy::disallowed_methods, reason = "std::thread::spawn")]
fn spawn_thread() {
    let _ = std::thread::spawn(|| ()).join();
}

#[expect(clippy::disallowed_methods, reason = "std::thread::scope")]
fn scoped_threads(sink: &mut Vec<f64>) {
    std::thread::scope(|s| {
        s.spawn(move || sink.push(1.0));
    });
}

#[expect(clippy::disallowed_methods, reason = "std::thread::Builder::spawn")]
fn named_thread() {
    let _ = std::thread::Builder::new().spawn(|| ());
}

#[expect(clippy::disallowed_methods, reason = "std::sync::mpsc::channel")]
fn channel_sum() -> f32 {
    let (tx, rx) = std::sync::mpsc::channel::<f32>();
    drop(tx);
    rx.iter().sum()
}

#[expect(clippy::disallowed_methods, reason = "std::sync::mpsc::sync_channel")]
fn bounded_channel_sum() -> f32 {
    let (tx, rx) = std::sync::mpsc::sync_channel::<f32>(1);
    drop(tx);
    rx.iter().sum()
}

#[expect(clippy::disallowed_methods, reason = "std::sync::Condvar::wait")]
#[expect(clippy::disallowed_types, reason = "the lock and condvar types are banned too")]
fn take_unguarded(state: &std::sync::Mutex<Vec<u32>>, ready: &std::sync::Condvar) -> Option<u32> {
    let guard = state.lock().ok()?;
    ready.wait(guard).ok()?.pop() // one wait, no predicate recheck
}

// ---- disallowed-types: locks, cells, atomics, clocks -------------------

#[expect(clippy::disallowed_types, reason = "std::sync::Mutex")]
fn shared_log(log: &std::sync::Mutex<Vec<usize>>, lane: usize) {
    // What `shared_log.push(b)` inside a pool task needs in order to compile.
    if let Ok(mut log) = log.lock() {
        log.push(lane);
    }
}

#[expect(clippy::disallowed_types, reason = "std::sync::RwLock")]
fn rw_lock(_: &std::sync::RwLock<u32>) {}

#[expect(clippy::disallowed_types, reason = "std::sync::Condvar")]
fn condvar(_: &std::sync::Condvar) {}

#[expect(clippy::disallowed_types, reason = "std::sync::OnceLock")]
fn once_lock(first: &std::sync::OnceLock<usize>, lane: usize) -> usize {
    *first.get_or_init(|| lane)
}

#[expect(clippy::disallowed_types, reason = "std::cell::RefCell")]
fn ref_cell(grad_sum: &std::cell::RefCell<Vec<f32>>, part: f32) {
    grad_sum.borrow_mut()[0] += part;
}

#[expect(clippy::disallowed_types, reason = "std::cell::Cell")]
fn cell(_: &std::cell::Cell<u32>) {}

#[expect(clippy::disallowed_types, reason = "std::cell::UnsafeCell")]
fn unsafe_cell(_: &std::cell::UnsafeCell<u32>) {}

#[expect(clippy::disallowed_types, reason = "std::sync::atomic::AtomicBool")]
fn atomic_bool(_: &std::sync::atomic::AtomicBool) {}

#[expect(clippy::disallowed_types, reason = "std::sync::atomic::AtomicU8")]
fn atomic_u8(_: &std::sync::atomic::AtomicU8) {}

#[expect(clippy::disallowed_types, reason = "std::sync::atomic::AtomicU16")]
fn atomic_u16(_: &std::sync::atomic::AtomicU16) {}

#[expect(clippy::disallowed_types, reason = "std::sync::atomic::AtomicU32")]
fn atomic_u32(_: &std::sync::atomic::AtomicU32) {}

#[expect(clippy::disallowed_types, reason = "std::sync::atomic::AtomicU64")]
fn bump_relaxed(seq: &std::sync::atomic::AtomicU64) -> u64 {
    seq.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
}

#[expect(clippy::disallowed_types, reason = "std::sync::atomic::AtomicUsize")]
fn atomic_usize(_: &std::sync::atomic::AtomicUsize) {}

#[expect(clippy::disallowed_types, reason = "std::sync::atomic::AtomicI8")]
fn atomic_i8(_: &std::sync::atomic::AtomicI8) {}

#[expect(clippy::disallowed_types, reason = "std::sync::atomic::AtomicI16")]
fn atomic_i16(_: &std::sync::atomic::AtomicI16) {}

#[expect(clippy::disallowed_types, reason = "std::sync::atomic::AtomicI32")]
fn atomic_i32(_: &std::sync::atomic::AtomicI32) {}

#[expect(clippy::disallowed_types, reason = "std::sync::atomic::AtomicI64")]
fn atomic_i64(_: &std::sync::atomic::AtomicI64) {}

#[expect(clippy::disallowed_types, reason = "std::sync::atomic::AtomicIsize")]
fn atomic_isize(_: &std::sync::atomic::AtomicIsize) {}

#[expect(clippy::disallowed_types, reason = "std::sync::atomic::AtomicPtr")]
fn atomic_ptr(_: &std::sync::atomic::AtomicPtr<u8>) {}

#[expect(clippy::disallowed_types, reason = "std::time::Instant")]
fn holds_instant(_: Option<std::time::Instant>) {}

#[expect(clippy::disallowed_types, reason = "std::time::SystemTime")]
fn holds_system_time(_: Option<std::time::SystemTime>) {}

// ---- the clippy lints the crate roots deny -----------------------------
// (`#[expect]` shows the lint catches the pattern; that it is switched on
// is the `#![deny(…)]` line tests/workspace_gates.rs pins in every root.)

#[expect(clippy::iter_over_hash_type, reason = "`for … in` a hash container")]
fn visit_all(ids: &HashSet<u32>, out: &mut Vec<u32>) {
    for id in ids {
        out.push(*id);
    }
}

#[expect(clippy::undocumented_unsafe_blocks, reason = "an unsafe block with no SAFETY comment")]
fn first_unchecked(buf: &[f32]) -> f32 {
    unsafe { *buf.get_unchecked(0) }
}

#[expect(clippy::unnecessary_safety_comment, reason = "a SAFETY comment with nothing to excuse")]
fn stale_safety_comment(buf: &[f32]) -> f32 {
    // SAFETY: left over from a `get_unchecked` draft of this read.
    buf[0]
}

// ---- the panic ban ------------------------------------------------------
// Under the line the crate roots carry (top of this file), and not in
// `#[test]` functions: `allow-{unwrap,expect,panic}-in-tests` in
// `clippy.toml` must leave these alone, so a key that exempted a whole test
// target instead of its tests would unfulfil them.

#[expect(clippy::unwrap_used, reason = "aborts where the caller could have been told")]
fn first_row(rows: &[Vec<f32>]) -> &Vec<f32> {
    rows.first().unwrap()
}

#[expect(clippy::expect_used, reason = "a message does not make the abort recoverable")]
fn parse_bits(arg: &str) -> u8 {
    arg.parse().expect("bits")
}

#[expect(clippy::panic, reason = "a recoverable fault turned into a process abort")]
fn on_dropped_message(attempt: u32) {
    if attempt > 3 {
        panic!("message lost");
    }
}

#[expect(clippy::todo, reason = "a branch that aborts the first run that reaches it")]
fn degraded_path() {
    todo!()
}

#[expect(clippy::unimplemented, reason = "a branch that aborts the first run that reaches it")]
fn sampled_path() {
    unimplemented!()
}

/// Every `path = "…"` in `clippy.toml` is the `reason` of exactly one
/// expectation above, and every lint of the panic ban is expected by
/// exactly one function, so a new ban cannot land without its seeded proof
/// (and a proof cannot outlive its ban unnoticed by a reader).
#[test]
fn every_ban_has_one_seeded_site() {
    let toml = include_str!("../clippy.toml");
    let paths: Vec<&str> = toml
        .lines()
        .filter_map(|line| line.trim().strip_prefix("{ path = \"")?.split('"').next())
        .collect();
    assert_eq!(paths.len(), 39, "clippy.toml entry count changed; seed the new entry here");
    let this = include_str!("clippy_bans.rs");
    for path in paths {
        let named = this.matches(&format!("reason = \"{path}\")]")).count();
        assert_eq!(named, 1, "{path} must be the reason of exactly one #[expect] in this file");
    }
    let denied = this.lines().filter_map(|l| l.strip_prefix("#![deny(")?.strip_suffix(")]"));
    let panic_ban: Vec<&str> = denied.flat_map(|list| list.split(", ")).collect();
    assert_eq!(panic_ban.len(), 5);
    for lint in panic_ban {
        let seeded = this.matches(&format!("#[expect({lint}, reason = ")).count();
        assert_eq!(seeded, 1, "{lint} must be expected by exactly one function in this file");
    }
    for key in ["allow-unwrap-in-tests", "allow-expect-in-tests", "allow-panic-in-tests"] {
        assert!(toml.lines().any(|line| line == format!("{key} = true")), "clippy.toml: {key}");
    }
}
