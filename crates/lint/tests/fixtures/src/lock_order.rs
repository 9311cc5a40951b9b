//! Bait for `lock-then-wait-hygiene`: a lock-order inversion under a live
//! guard, next to the sequential (drop-then-lock) shape that stays clean.

use std::sync::{Mutex, MutexGuard};

pub struct Channel {
    pub state: Mutex<Vec<u32>>,
    pub other: Mutex<u32>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Channel {
    /// Acquires the second mutex while the first guard is still live:
    /// lock-order inversion against any path taking them the other way.
    pub fn drain_and_count(&self) -> u32 {
        let mut state = lock(&self.state);
        state.clear();
        let other = lock(&self.other);
        *other
    }

    /// Sequential locking: the first guard is dropped before the second
    /// mutex is touched.
    pub fn drain_then_count(&self) -> u32 {
        let mut state = lock(&self.state);
        state.clear();
        drop(state);
        let other = lock(&self.other);
        *other
    }
}
