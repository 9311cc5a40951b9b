//! Exhaustive interleaving tests for the pool's synchronization design —
//! a hand-rolled loom substitute (the offline build cannot vendor loom).
//!
//! The `JobQueue` and `Latch` in `src/pool/sync.rs` are modeled as transition
//! systems: every mutex critical section is one atomic step, and the
//! condvar is modeled precisely — `notify_one` wakes one *currently
//! waiting* thread (the scheduler branches over which), `notify_all`
//! wakes every waiter, and a notify with no waiter is lost, exactly the
//! platform contract. Crucially, the unlock-then-notify split in the real
//! code (`drop(state); self.ready.notify_one()`) is two model steps, so
//! the scheduler explores the window where another thread runs between
//! the unlock and the wakeup — the window where lost-wakeup bugs live.
//!
//! A depth-first search over every scheduler choice then checks, for
//! every reachable interleaving:
//!
//! * no deadlock: whenever some thread is not finished, some thread can
//!   step (a waiter with no pending wakeup is *not* runnable — spurious
//!   wakeups are legal but may not be load-bearing);
//! * every enqueued job executes exactly once (on a lane, or inline when
//!   the enqueue lost the race with `close`);
//! * every lane terminates after `close`, draining the queue first;
//! * the latch waiter returns only once every arrival happened, and it
//!   observes a panic payload iff some arriver panicked (the first
//!   payload to win the lock, matching `get_or_insert`);
//! * `close` racing panicking jobs still shuts down — the
//!   close-while-panicking interleaving of the WorkerPool `Drop` path.
//!   Job panics are caught on the lane (`lane_main`'s catch_unwind), so
//!   a panicking job takes the same queue transitions as a clean one;
//!   the model marks jobs panicking to document exactly that.
//!
//! Default bounds keep `cargo test` fast; building with
//! `RUSTFLAGS="--cfg ec_loom"` (CI's interleaving job) widens them.

use std::collections::HashSet;
use std::hash::Hash;

// ---------------------------------------------------------------------
// JobQueue model: producer (enqueue×N then done), an optional closer
// thread, and L lane threads running the dequeue loop.
// ---------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Lane {
    /// Will acquire the queue lock and act on what it finds.
    Running,
    /// Parked inside `Condvar::wait_while`; runnable only once woken.
    Waiting,
    /// Returned from the dequeue loop (closed and drained).
    Done,
}

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct QueueModel {
    /// Jobs sitting in the queue (fungible: only the count matters to the
    /// synchronization properties).
    queued: u8,
    closed: bool,
    /// Jobs that have run, on a lane or inline after a closed enqueue.
    executed: u8,
    /// Producer program counter: job i takes steps 2i (lock: push or
    /// inline-run) and 2i+1 (notify_one, after the unlock).
    producer_pc: u8,
    /// Closer program counter: 0 = will set closed, 1 = will notify_all,
    /// 2 = done. Starts at 2 when the scenario has no separate closer
    /// (the producer closes after its last enqueue instead).
    closer_pc: u8,
    lanes: Vec<Lane>,
}

/// Scenario parameters for one exhaustive queue exploration.
struct QueueScenario {
    jobs: u8,
    lanes: usize,
    /// Separate closer thread racing the producer (the Drop-while-running
    /// shape). Without it the producer closes after its final enqueue.
    racing_closer: bool,
}

impl QueueModel {
    fn new(s: &QueueScenario) -> Self {
        QueueModel {
            queued: 0,
            closed: false,
            executed: 0,
            producer_pc: 0,
            closer_pc: if s.racing_closer { 0 } else { 2 },
            lanes: vec![Lane::Running; s.lanes],
        }
    }

    fn done(&self, s: &QueueScenario) -> bool {
        self.producer_pc >= 2 * s.jobs
            && self.closer_pc >= 2
            && self.lanes.iter().all(|l| *l == Lane::Done)
    }

    /// Every state reachable in one atomic step, over all scheduler
    /// choices (which thread runs, and which waiter a notify_one wakes).
    fn successors(&self, s: &QueueScenario) -> Vec<QueueModel> {
        let mut out = Vec::new();

        // Producer step.
        if self.producer_pc < 2 * s.jobs {
            let mut n = self.clone();
            if n.producer_pc.is_multiple_of(2) {
                // Critical section: push, or run inline if close won.
                if n.closed {
                    n.executed += 1;
                    // The notify sub-step is skipped on the Err path.
                    n.producer_pc += 2;
                } else {
                    n.queued += 1;
                    n.producer_pc += 1;
                }
                out.push(n);
            } else {
                // notify_one after the unlock: branch over which waiter
                // wakes; with no waiter the notification is lost.
                n.producer_pc += 1;
                push_notify_one(&n, &mut out);
            }
        } else if !s.racing_closer && !self.closed {
            // Producer-driven shutdown: close() is its own two steps.
            let mut n = self.clone();
            n.closed = true;
            out.push(n);
        } else if !s.racing_closer && self.closed && self.closer_pc < 2 {
            unreachable!("closer_pc starts at 2 without a racing closer");
        }
        if !s.racing_closer
            && self.producer_pc >= 2 * s.jobs
            && self.closed
            && self.lanes.contains(&Lane::Waiting)
            && self.closer_pc == 2
        {
            // notify_all half of the producer's close: modeled as an
            // always-available wakeup once closed (notify_all wakes every
            // waiter; waking them one scheduler step at a time reaches the
            // same states).
            for (i, l) in self.lanes.iter().enumerate() {
                if *l == Lane::Waiting {
                    let mut n = self.clone();
                    n.lanes[i] = Lane::Running;
                    out.push(n);
                }
            }
        }

        // Racing closer steps.
        if s.racing_closer && self.closer_pc == 0 {
            let mut n = self.clone();
            n.closed = true;
            n.closer_pc = 1;
            out.push(n);
        }
        if s.racing_closer && self.closer_pc == 1 {
            // notify_all: wake every waiter in one step.
            let mut n = self.clone();
            for l in &mut n.lanes {
                if *l == Lane::Waiting {
                    *l = Lane::Running;
                }
            }
            n.closer_pc = 2;
            out.push(n);
        }

        // Lane steps: one `dequeue` critical section each — the predicate
        // check `wait_while` makes on entry and again after every wakeup.
        for (i, l) in self.lanes.iter().enumerate() {
            if *l != Lane::Running {
                continue;
            }
            let mut n = self.clone();
            if n.queued > 0 {
                // Pop and execute. Execution happens outside the lock and
                // cannot touch queue state (lane_main catches panics), so
                // pop+run collapse into one step without losing
                // interleavings that matter to the queue.
                n.queued -= 1;
                n.executed += 1;
            } else if n.closed {
                n.lanes[i] = Lane::Done;
            } else {
                n.lanes[i] = Lane::Waiting;
            }
            out.push(n);
        }
        out
    }
}

/// Branches over which single waiter a `notify_one` wakes; lost if none.
fn push_notify_one(base: &QueueModel, out: &mut Vec<QueueModel>) {
    let mut any = false;
    for (i, l) in base.lanes.iter().enumerate() {
        if *l == Lane::Waiting {
            any = true;
            let mut n = base.clone();
            n.lanes[i] = Lane::Running;
            out.push(n);
        }
    }
    if !any {
        out.push(base.clone());
    }
}

/// Exhaustive DFS over every interleaving of the scenario. Panics with the
/// offending state on deadlock or on a terminal state that violated the
/// executed-exactly-once contract.
fn explore_queue(s: &QueueScenario) -> usize {
    let mut visited: HashSet<QueueModel> = HashSet::new();
    let mut stack = vec![QueueModel::new(s)];
    while let Some(state) = stack.pop() {
        if !visited.insert(state.clone()) {
            continue;
        }
        if state.done(s) {
            assert_eq!(
                state.executed, s.jobs,
                "terminal state ran {} of {} jobs: {state:?}",
                state.executed, s.jobs
            );
            assert_eq!(state.queued, 0, "lanes exited with work still queued: {state:?}");
            continue;
        }
        let next = state.successors(s);
        assert!(
            !next.is_empty(),
            "deadlock: no thread can step and the system is not done: {state:?}"
        );
        stack.extend(next);
    }
    visited.len()
}

// ---------------------------------------------------------------------
// Latch model: K arrivers (some panicking) and one waiter.
// ---------------------------------------------------------------------

#[derive(Clone, PartialEq, Eq, Hash, Debug)]
struct LatchModel {
    pending: u8,
    /// Arriver id whose payload `get_or_insert` kept, if any.
    panic_slot: Option<u8>,
    /// Per-arriver pc: 0 = will decrement/record, 1 = will notify_all if
    /// it saw pending hit zero, 2 = done. Step 1 is skipped (pc jumps to
    /// 2) when the arriver did not finish the batch.
    arrivers: Vec<u8>,
    /// Waiter state reusing the lane vocabulary.
    waiter: Lane,
    /// What `wait()` returned, once it did.
    observed: Option<Option<u8>>,
}

struct LatchScenario {
    /// Bitmask of arrivers that carry a panic payload.
    panicking: u32,
    arrivers: u8,
}

impl LatchModel {
    fn new(s: &LatchScenario) -> Self {
        LatchModel {
            pending: s.arrivers,
            panic_slot: None,
            arrivers: vec![0; s.arrivers as usize],
            waiter: Lane::Running,
            observed: None,
        }
    }

    fn done(&self) -> bool {
        self.arrivers.iter().all(|pc| *pc == 2) && self.waiter == Lane::Done
    }

    fn successors(&self, s: &LatchScenario) -> Vec<LatchModel> {
        let mut out = Vec::new();
        for (i, pc) in self.arrivers.iter().enumerate() {
            match pc {
                0 => {
                    // arrive(): decrement, maybe record the panic, note
                    // whether this arrival finished the batch. One lock.
                    let mut n = self.clone();
                    n.pending -= 1;
                    if s.panicking & (1 << i) != 0 && n.panic_slot.is_none() {
                        n.panic_slot = Some(i as u8);
                    }
                    n.arrivers[i] = if n.pending == 0 { 1 } else { 2 };
                    out.push(n);
                }
                1 => {
                    // notify_all after the unlock.
                    let mut n = self.clone();
                    if n.waiter == Lane::Waiting {
                        n.waiter = Lane::Running;
                    }
                    n.arrivers[i] = 2;
                    out.push(n);
                }
                _ => {}
            }
        }
        if self.waiter == Lane::Running {
            // wait(): `wait_while` checks the predicate under the lock.
            let mut n = self.clone();
            if n.pending == 0 {
                n.observed = Some(n.panic_slot);
                n.waiter = Lane::Done;
            } else {
                n.waiter = Lane::Waiting;
            }
            out.push(n);
        }
        out
    }
}

fn explore_latch(s: &LatchScenario) -> usize {
    let mut visited: HashSet<LatchModel> = HashSet::new();
    let mut stack = vec![LatchModel::new(s)];
    while let Some(state) = stack.pop() {
        if !visited.insert(state.clone()) {
            continue;
        }
        if state.done() {
            let observed = state.observed.expect("done waiter recorded its return");
            assert_eq!(
                observed.is_some(),
                s.panicking != 0,
                "waiter must see a payload iff some arriver panicked: {state:?}"
            );
            if let Some(id) = observed {
                assert!(
                    s.panicking & (1 << id) != 0,
                    "kept payload must come from a panicking arriver: {state:?}"
                );
            }
            continue;
        }
        let next = state.successors(s);
        assert!(!next.is_empty(), "deadlock: arrivers/waiter stuck before completion: {state:?}");
        stack.extend(next);
    }
    visited.len()
}

// ---------------------------------------------------------------------
// Always-on bounds: small enough for every `cargo test` run.
// ---------------------------------------------------------------------

#[test]
fn queue_producer_close_never_deadlocks() {
    let states = explore_queue(&QueueScenario { jobs: 3, lanes: 2, racing_closer: false });
    assert!(states > 50, "exhaustive search visited only {states} states — model collapsed?");
}

#[test]
fn queue_close_racing_enqueues_never_deadlocks() {
    // The close-while-panicking Drop shape: jobs (panicking or not — the
    // lane catches, so the queue cannot tell) race a concurrent close.
    let states = explore_queue(&QueueScenario { jobs: 3, lanes: 2, racing_closer: true });
    assert!(states > 50, "exhaustive search visited only {states} states — model collapsed?");
}

#[test]
fn latch_countdown_wakes_the_waiter_exactly_when_drained() {
    for panicking in 0..(1u32 << 3) {
        explore_latch(&LatchScenario { panicking, arrivers: 3 });
    }
}

// ---------------------------------------------------------------------
// Deep bounds: RUSTFLAGS="--cfg ec_loom" (CI's interleaving job).
// ---------------------------------------------------------------------

#[cfg(ec_loom)]
#[test]
fn deep_queue_producer_close() {
    explore_queue(&QueueScenario { jobs: 5, lanes: 3, racing_closer: false });
}

#[cfg(ec_loom)]
#[test]
fn deep_queue_racing_closer() {
    explore_queue(&QueueScenario { jobs: 5, lanes: 3, racing_closer: true });
}

#[cfg(ec_loom)]
#[test]
fn deep_latch_countdown() {
    for panicking in 0..(1u32 << 5) {
        explore_latch(&LatchScenario { panicking, arrivers: 5 });
    }
}
