//! The pool's two synchronisation primitives — and the only module in the
//! workspace that may name `Mutex` or `Condvar` (`clippy.toml` bans both
//! types everywhere; this file opts back in, and
//! `tests/workspace_gates.rs` pins that it is the only one).
//!
//! Lock ordering is settled by privacy rather than by a rule: each type
//! owns exactly one mutex in a private field, no method returns a guard,
//! and no method takes a parameter through which another lock could be
//! reached while its own is held (a [`Job`] is stored or handed back,
//! never run, under the queue's lock). A second lock can therefore not be
//! taken inside a critical section without editing this file, and the five
//! methods below are exactly what `tests/interleave.rs` models.
#![expect(
    clippy::disallowed_types,
    reason = "the one sanctioned home of Mutex and Condvar; everything else is banned from naming them"
)]

use super::{Job, PanicPayload};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex, MutexGuard};

/// Acquires a mutex, treating poison as ordinary data: every critical
/// section below is a few plain moves on plain-old-data, so a panic on
/// another thread cannot leave the state half-updated.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

/// One lane's FIFO job queue (mutex + condvar; no spinning).
pub(super) struct JobQueue {
    state: Mutex<QueueState>,
    ready: Condvar,
}

impl JobQueue {
    pub(super) fn new() -> Self {
        Self {
            state: Mutex::new(QueueState { jobs: VecDeque::new(), closed: false }),
            ready: Condvar::new(),
        }
    }

    /// Hands the job back if the queue is already closed (lane gone).
    pub(super) fn enqueue(&self, job: Job) -> Result<(), Job> {
        let mut state = lock(&self.state);
        if state.closed {
            return Err(job);
        }
        state.jobs.push_back(job);
        drop(state);
        self.ready.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once closed and drained.
    pub(super) fn dequeue(&self) -> Option<Job> {
        let mut state = self
            .ready
            .wait_while(lock(&self.state), |state| state.jobs.is_empty() && !state.closed)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        state.jobs.pop_front()
    }

    pub(super) fn close(&self) {
        lock(&self.state).closed = true;
        self.ready.notify_all();
    }
}

struct LatchState {
    pending: usize,
    panic: Option<PanicPayload>,
}

/// Counts outstanding remote tasks of one `run` call; stores the first
/// panic payload so the caller can resume it after the batch completes.
pub(super) struct Latch {
    state: Mutex<LatchState>,
    done: Condvar,
}

impl Latch {
    pub(super) fn new(pending: usize) -> Self {
        Self { state: Mutex::new(LatchState { pending, panic: None }), done: Condvar::new() }
    }

    pub(super) fn arrive(&self, panic: Option<PanicPayload>) {
        let mut state = lock(&self.state);
        state.pending -= 1;
        if let Some(payload) = panic {
            state.panic.get_or_insert(payload);
        }
        let finished = state.pending == 0;
        drop(state);
        if finished {
            self.done.notify_all();
        }
    }

    pub(super) fn wait(&self) -> Option<PanicPayload> {
        let mut state = self
            .done
            .wait_while(lock(&self.state), |state| state.pending > 0)
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        state.panic.take()
    }
}
