//! Persistent worker pool for band-parallel kernels and worker fan-out.
//!
//! The original `parallel` kernels spawned fresh `std::thread::scope`
//! threads on **every** call — thousands of spawn/join cycles per training
//! epoch. This module replaces that with long-lived lanes, created once per
//! [`WorkerPool`] and fed tasks through a hand-rolled job queue.
//!
//! Determinism: the pool moves *where* a task runs, never *what* it
//! computes. Tasks are assigned to lanes by index (`task i → lane
//! i % threads`, the calling thread is lane 0), every task writes only the
//! disjoint output band it captured, and [`WorkerPool::run`] does not
//! return until every task has finished — so results are byte-identical to
//! running the same closures sequentially, whatever the lane count or OS
//! scheduling. The ordered-replay invariant of `ec-graph::exec` is
//! preserved for the same reason it held with scoped threads: all
//! order-sensitive effects happen on the calling thread after `run`
//! returns.
//!
//! Sizing: a pool never holds more lanes than [`physical_parallelism`],
//! sampled once per process — oversubscribing a host turns "parallel" into
//! time-slicing and roughly doubles self-timed wall clock (the pathology
//! the pre-pool scoped-thread engine showed on a 1-core host).
//! A 1-thread pool owns zero OS threads and runs everything inline on the
//! caller, so sequential configurations pay nothing.
//!
//! Nesting: the engine's worker fan-out owns one pool, while the kernels in
//! [`crate::parallel`] share the process-wide [`shared`] pool, so kernel
//! parallelism never multiplies with worker parallelism. Dispatching into a
//! pool **from one of its own lanes** runs the tasks inline on that lane
//! (tracked by a thread-local membership token) — re-entry can therefore
//! never deadlock on a full queue.
//!
//! This is the one module that may spawn threads and hold process-wide
//! state: `clippy.toml` bans thread creation and the
//! `Mutex`/`Condvar`/atomic/`Cell`/`OnceLock` types workspace-wide so that
//! nothing else can share mutable state across lanes. The locks live in
//! the private `sync` module — the only place that may name `Mutex` or
//! `Condvar` — and the items below that need a banned type or method
//! (the membership cell, the token counter, the two `OnceLock`s, the lane
//! spawn) each say so with their own `#[expect]`.
//! It also holds one of the workspace's two `unsafe` sites (in
//! [`WorkerPool::run`]; the other enters the per-tier kernel code in
//! [`crate::isa::dispatch_on`]); Miri and the interleaving explorer in
//! `tests/interleave.rs` are the evidence for both.

mod sync;

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use sync::{JobQueue, Latch};

/// A unit of work handed to [`WorkerPool::run`]: runs exactly once, may
/// borrow from the caller's stack frame (`run` outlives every task).
pub type Task<'scope> = Box<dyn FnOnce() + Send + 'scope>;

/// A lifetime-erased task as stored on a lane's queue.
type Job = Box<dyn FnOnce() + Send + 'static>;

type PanicPayload = Box<dyn Any + Send>;

thread_local! {
    /// Membership token of the pool this thread is a lane of (0 = not a
    /// pool lane). Used to run re-entrant dispatch inline.
    #[expect(clippy::disallowed_types, reason = "thread-local, so no lane can see another's cell")]
    static POOL_MEMBERSHIP: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Token generator; 0 is reserved for "not a pool lane".
#[expect(clippy::disallowed_types, reason = "a uniqueness counter; it orders no other memory")]
static NEXT_TOKEN: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(1);

/// Host parallelism, sampled once per process and capped at 16 (the
/// kernels are memory-bound beyond that). Every pool and every
/// [`crate::parallel::effective_threads`] resolution agrees on this one
/// number, so kernel dispatch can never oversubscribe the pool.
#[expect(clippy::disallowed_types, reason = "every lane would initialise it to the same value")]
pub fn physical_parallelism() -> usize {
    use std::sync::OnceLock;
    static PHYS: OnceLock<usize> = OnceLock::new();
    *PHYS.get_or_init(|| std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(16))
}

/// The process-wide kernel pool, sized to [`physical_parallelism`] and
/// alive for the process lifetime. All band-parallel kernels dispatch
/// here, from any thread — including lanes of *other* pools, which is safe
/// because kernel tasks are pure compute and never dispatch further.
#[expect(
    clippy::disallowed_types,
    reason = "the process-wide pool; whichever caller wins builds the same pool"
)]
pub fn shared() -> &'static WorkerPool {
    use std::sync::OnceLock;
    static SHARED: OnceLock<WorkerPool> = OnceLock::new();
    SHARED.get_or_init(|| WorkerPool::new(0))
}

/// A persistent band-task pool; see the module docs.
///
/// The calling thread is always lane 0 and executes its share of every
/// batch itself, so a `threads = t` pool owns `t - 1` OS threads and a
/// 1-thread pool is a plain sequential loop with zero overhead.
pub struct WorkerPool {
    lanes: Vec<Arc<JobQueue>>,
    handles: Vec<JoinHandle<()>>,
    token: usize,
}

impl WorkerPool {
    /// Creates a pool of `threads` lanes (0 = auto), capped at
    /// [`physical_parallelism`]. The cap is what makes `speedup_vs_seq`
    /// honest: requesting 8-way kernels on a 1-core host yields a pool
    /// that simply runs inline.
    #[expect(clippy::disallowed_methods, reason = "the lanes are the workspace's only threads")]
    pub fn new(threads: usize) -> Self {
        let phys = physical_parallelism();
        let want = if threads == 0 { phys } else { threads.min(phys) }.max(1);
        // Relaxed: the token only needs uniqueness (thread names, lane
        // membership); no other memory is ordered by it.
        let token = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed);
        let mut lanes = Vec::with_capacity(want - 1);
        let mut handles = Vec::with_capacity(want - 1);
        for lane in 1..want {
            let queue = Arc::new(JobQueue::new());
            let worker_queue = Arc::clone(&queue);
            let spawned = std::thread::Builder::new()
                .name(format!("ec-pool-{token}-{lane}"))
                .spawn(move || lane_main(worker_queue, token));
            match spawned {
                Ok(handle) => {
                    lanes.push(queue);
                    handles.push(handle);
                }
                // Degraded host (thread limit): run with fewer lanes; the
                // caller picks up the slack via the enqueue fallback.
                Err(_) => queue.close(),
            }
        }
        Self { lanes, handles, token }
    }

    /// Lane count including the calling thread.
    pub fn threads(&self) -> usize {
        self.lanes.len() + 1
    }

    /// Runs every task to completion: task `i` on lane `i % threads`, the
    /// caller working through lane 0's share (in task order) while the
    /// other lanes drain theirs. Returns after **all** tasks finished; if
    /// any panicked, the first payload is resumed on the caller — after
    /// the full batch completed, so output buffers are never left with a
    /// band still being written. Lanes survive task panics.
    ///
    /// A task is `FnOnce() + Send` and the batch is built before any task
    /// runs, so two tasks cannot both hold a `&mut` to one output — the
    /// "lanes write only their own band" rule is a borrow-checker fact
    /// (and `clippy.toml` bans the interior-mutability types that could
    /// get around it):
    ///
    /// ```compile_fail
    /// use ec_tensor::pool::{Task, WorkerPool};
    /// let mut shared_log: Vec<usize> = Vec::new();
    /// let log = &mut shared_log;
    /// let first: Task<'_> = Box::new(|| log.push(0));
    /// let second: Task<'_> = Box::new(|| log.push(1)); // E0524: second unique borrow
    /// WorkerPool::new(2).run(vec![first, second]);
    /// ```
    ///
    /// Each task owning a disjoint band of the output is what does compile:
    ///
    /// ```
    /// use ec_tensor::pool::{Task, WorkerPool};
    /// let mut out = vec![0usize; 4];
    /// let tasks: Vec<Task<'_>> = out
    ///     .chunks_mut(1)
    ///     .enumerate()
    ///     .map(|(b, band)| Box::new(move || band[0] = b) as Task<'_>)
    ///     .collect();
    /// WorkerPool::new(2).run(tasks);
    /// assert_eq!(out, [0, 1, 2, 3]);
    /// ```
    #[expect(unsafe_code, reason = "the lifetime-erasing transmute below; see its SAFETY comment")]
    pub fn run<'scope>(&self, tasks: Vec<Task<'scope>>) {
        let member = POOL_MEMBERSHIP.with(|token| token.get()) == self.token;
        if self.lanes.is_empty() || tasks.len() <= 1 || member {
            // Inline: sequential pools, trivial batches, and re-entrant
            // dispatch from one of this pool's own lanes (which would
            // otherwise wait on a queue only it can drain). Same panic
            // contract as the pooled path: every task runs, the first
            // panic is re-raised afterwards.
            let mut first: Option<PanicPayload> = None;
            for task in tasks {
                if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                    first.get_or_insert(payload);
                }
            }
            if let Some(payload) = first {
                resume_unwind(payload);
            }
            return;
        }
        let width = self.threads();
        let total = tasks.len();
        let remote = total - total.div_ceil(width);
        let latch = Arc::new(Latch::new(remote));
        let mut local: Vec<Task<'scope>> = Vec::with_capacity(total.div_ceil(width));
        for (index, task) in tasks.into_iter().enumerate() {
            let lane = index % width;
            if lane == 0 {
                local.push(task);
                continue;
            }
            let task_latch = Arc::clone(&latch);
            let job: Task<'scope> = Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(task));
                task_latch.arrive(outcome.err());
            });
            // SAFETY: the latch counts exactly the jobs built here, and
            // `run` blocks on `latch.wait()` below before returning (even
            // when a local task panics — the panic is re-raised only after
            // the wait). Every borrow captured by the job therefore
            // outlives its execution, which is all the 'static bound is
            // standing in for.
            let job: Job = unsafe { std::mem::transmute::<Task<'scope>, Job>(job) };
            if let Err(job) = self.lanes[lane - 1].enqueue(job) {
                // Lane unavailable (spawn failed at construction): do its
                // work here. The job still arrives at the latch itself.
                job();
            }
        }
        let mut local_panic: Option<PanicPayload> = None;
        for task in local {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(task)) {
                local_panic.get_or_insert(payload);
            }
        }
        let remote_panic = latch.wait();
        if let Some(payload) = local_panic.or(remote_panic) {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        for queue in &self.lanes {
            queue.close();
        }
        for handle in self.handles.drain(..) {
            // Lane bodies never unwind (every job catches), so join errors
            // are not reachable; ignore rather than panic in drop.
            let _ = handle.join();
        }
    }
}

fn lane_main(queue: Arc<JobQueue>, token: usize) {
    POOL_MEMBERSHIP.with(|membership| membership.set(token));
    while let Some(job) = queue.dequeue() {
        // `run` already wraps every task in catch_unwind before it reaches
        // a queue, but the lane re-catches defensively: a panicking job
        // must never unwind the lane thread, or `Drop`'s close-then-join
        // shutdown would see a dead lane and `join()` would return the
        // panic instead of Ok — the deadlock-freedom argument in the
        // interleave tests assumes lanes always reach the closed-and-
        // drained exit of `dequeue`.
        let _ = catch_unwind(AssertUnwindSafe(job));
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the tests count task runs with an atomic and drive a lane on a raw thread"
)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn band_tasks(out: &mut [u32], width: usize) -> Vec<Task<'_>> {
        let mut tasks: Vec<Task<'_>> = Vec::new();
        let mut rest = out;
        let mut band = 0u32;
        while !rest.is_empty() {
            let here = width.min(rest.len());
            let (slice, tail) = rest.split_at_mut(here);
            rest = tail;
            let marker = band;
            tasks.push(Box::new(move || {
                for (i, slot) in slice.iter_mut().enumerate() {
                    *slot = marker * 100 + i as u32;
                }
            }));
            band += 1;
        }
        tasks
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        let tasks: Vec<Task<'_>> = (0..23)
            .map(|_| {
                Box::new(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(counter.load(Ordering::SeqCst), 23);
    }

    #[test]
    fn disjoint_bands_assemble_deterministically() {
        let expected: Vec<u32> = {
            let mut out = vec![0u32; 17];
            for task in band_tasks(&mut out, 3) {
                task();
            }
            out
        };
        for threads in [1usize, 2, 4, 16] {
            let pool = WorkerPool::new(threads);
            let mut out = vec![0u32; 17];
            pool.run(band_tasks(&mut out, 3));
            assert_eq!(out, expected, "threads={threads}");
        }
    }

    #[test]
    fn pool_caps_at_physical_parallelism() {
        assert!(WorkerPool::new(0).threads() <= physical_parallelism());
        assert!(WorkerPool::new(64).threads() <= physical_parallelism());
        assert_eq!(WorkerPool::new(1).threads(), 1);
    }

    #[test]
    fn panic_propagates_and_pool_survives() {
        let pool = WorkerPool::new(4);
        let done = AtomicUsize::new(0);
        let tasks: Vec<Task<'_>> = (0..8)
            .map(|i| {
                let done = &done;
                Box::new(move || {
                    if i == 5 {
                        panic!("band {i} exploded");
                    }
                    done.fetch_add(1, Ordering::SeqCst);
                }) as Task<'_>
            })
            .collect();
        let caught = catch_unwind(AssertUnwindSafe(|| pool.run(tasks)));
        assert!(caught.is_err(), "the band panic must propagate to the caller");
        assert_eq!(done.load(Ordering::SeqCst), 7, "other bands still complete");
        // The pool is intact: lanes caught the unwind and keep serving.
        let after = AtomicUsize::new(0);
        pool.run(
            (0..8)
                .map(|_| {
                    Box::new(|| {
                        after.fetch_add(1, Ordering::SeqCst);
                    }) as Task<'_>
                })
                .collect(),
        );
        assert_eq!(after.load(Ordering::SeqCst), 8);
    }

    #[test]
    fn reentrant_dispatch_runs_inline() {
        // A task that dispatches into its own pool must not deadlock, even
        // on a 2-thread pool whose single lane is the one re-entering.
        let pool = WorkerPool::new(2);
        let ran = AtomicUsize::new(0);
        let tasks: Vec<Task<'_>> = (0..2)
            .map(|_| {
                let pool = &pool;
                let ran = &ran;
                Box::new(move || {
                    let inner: Vec<Task<'_>> = (0..3)
                        .map(|_| {
                            Box::new(|| {
                                ran.fetch_add(1, Ordering::SeqCst);
                            }) as Task<'_>
                        })
                        .collect();
                    pool.run(inner);
                }) as Task<'_>
            })
            .collect();
        pool.run(tasks);
        assert_eq!(ran.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn cross_pool_nesting_completes() {
        // Engine-pool lanes dispatching kernel bands into the shared pool
        // is the production topology; it must compose without deadlock.
        let outer = WorkerPool::new(2);
        let ran = AtomicUsize::new(0);
        let tasks: Vec<Task<'_>> = (0..4)
            .map(|_| {
                let ran = &ran;
                Box::new(move || {
                    let inner: Vec<Task<'_>> = (0..4)
                        .map(|_| {
                            Box::new(|| {
                                ran.fetch_add(1, Ordering::SeqCst);
                            }) as Task<'_>
                        })
                        .collect();
                    shared().run(inner);
                }) as Task<'_>
            })
            .collect();
        outer.run(tasks);
        assert_eq!(ran.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn empty_batch_is_a_noop() {
        WorkerPool::new(3).run(Vec::new());
    }

    #[test]
    fn close_while_jobs_panic_drains_and_joins() {
        // Shutdown is `close()` then `join()` (see `Drop`); that pair must
        // not deadlock or propagate a panic even when raw jobs — enqueued
        // without `run`'s catch_unwind wrapper — blow up while the close
        // races the drain. The lane's own defensive catch is what makes
        // `join()` return Ok here.
        let queue = Arc::new(JobQueue::new());
        let lane_queue = Arc::clone(&queue);
        let handle = std::thread::spawn(move || lane_main(lane_queue, usize::MAX));
        for i in 0..32u32 {
            let job: Job = Box::new(move || {
                if i % 3 == 0 {
                    panic!("job {i} exploded mid-shutdown");
                }
            });
            if queue.enqueue(job).is_err() {
                break; // closed below: the queue refuses new work
            }
            if i == 16 {
                queue.close();
            }
        }
        queue.close(); // idempotent; covers the short-circuited loop too
        assert!(
            handle.join().is_ok(),
            "lane must exit cleanly after close, even with panicking jobs in flight"
        );
    }
}
