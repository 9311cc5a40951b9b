//! Seeded `unused-suppression` violations. Never compiled — only lexed.

/// Clean: this suppression earns its keep (the `unwrap` below would
/// otherwise be a `no-panic-hot-path` finding).
pub fn sanctioned_unwrap(slot: Option<u32>) -> u32 {
    // ec-lint: allow(no-panic-hot-path)
    slot.unwrap()
}

/// Positive: nothing on this or the next line fires any rule.
// ec-lint: allow(no-panic-hot-path)
pub fn stale_escape() {}

/// Positive: names a rule that does not exist.
// ec-lint: allow(no-flux-capacitor)
pub fn misspelled_escape() {}
