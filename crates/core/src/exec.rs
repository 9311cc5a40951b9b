//! The simulated cluster, its superstep driver and the intra-superstep
//! worker fan-out.
//!
//! Every system of the evaluation — the EC-Graph engine and each comparator
//! under [`crate::baselines`] — runs on one `Cluster` built from a
//! [`TrainingConfig`], so systems differ in *what they send* between
//! barriers, never in how a barrier, a compute step or a pull is costed.
//!
//! An epoch is a BSP sequence of supersteps, and every superstep has the
//! same shape whatever the stage computes: exchanges charge the network,
//! a **barrier** turns the pending traffic into simulated seconds, then a
//! **compute superstep** fans one block per simulated worker out on the
//! pool and the slowest (straggler-scaled) worker sets the step time.
//! `SuperstepDriver` writes that shape once. It owns the
//! [`TelemetrySink`], the simulated clock and the per-epoch accumulators,
//! so the clock advances, the `superstep.*`/`timeline.idle_s` gauges are
//! set and the exchange/compute/`exec:fanout`/`idle:wait`/`comm:pack`
//! spans are emitted at exactly one call site each.
//!
//! What a stage may touch: between two barriers the simulated workers are
//! independent by construction, so the block handed to
//! `SuperstepDriver::compute_superstep` reads its own partition's state
//! plus shared read-only weights and **returns** what it computed (through
//! `compute_superstep_on` it may also overwrite buffers that belong to its
//! own worker alone). Results come back in ascending worker order and the
//! stage replays every order-sensitive effect — storing activations,
//! gradient accumulation — on the engine thread, exactly as the sequential
//! engine did. The block
//! is `Fn + Sync` and the driver is `&mut`-borrowed for the whole call, so
//! it cannot name the sink or the clock, and `SimNetwork::send` needs a
//! `&mut` an `Fn` closure cannot hold: the ordered-replay rule is a
//! borrow-checker fact, not a convention. Blocks are timed by the driver
//! (never by the stage) through [`ec_comm::HostTimer`], so deterministic
//! timing zeroes every compute second in one place.

use crate::config::{ResiliencePolicy, TrainingConfig};
use ec_comm::ps::CheckpointError;
use ec_comm::stats::Channel;
use ec_comm::{HostTimer, ParameterServerGroup, SimNetwork, TrafficStats};
use ec_tensor::pool::Task;
pub use ec_tensor::pool::WorkerPool;
use ec_trace::registry::labels;
use ec_trace::{MetricId, SpanEvent, TelemetryLevel, TelemetryReport, TelemetrySink};

/// Runs `f(0), …, f(n - 1)` across the pool's lanes and returns the
/// results indexed by worker.
///
/// With a 1-thread pool (or `n <= 1`) this is a plain sequential loop (the
/// historical engine behavior). Otherwise workers are split into
/// contiguous bands, one pool task per band (band `i` on lane
/// `i % threads`, deterministically), each filling the disjoint slice of
/// the result vector that belongs to its workers — no locks, no
/// reordering. A panicking closure propagates after the whole batch
/// completes, and the pool survives it.
///
/// `f` is `Fn + Sync`: it may read what it captures and must **return**
/// what it computes. `SimNetwork::send`, `TelemetrySink::add` and
/// `ParameterServerGroup::push` take `&mut self`, which an `Fn` closure
/// cannot hold, so a worker block that sends, records telemetry or
/// accumulates into a captured sum is a compile error rather than a race
/// (`clippy.toml` bans the interior-mutability types that could get around
/// it). `SuperstepDriver::compute_superstep` passes its block through
/// here under the same bound.
///
/// ```compile_fail
/// use ec_comm::{stats::Channel, NetworkModel, SimNetwork};
/// use ec_graph::exec::{run_workers, WorkerPool};
/// let mut network = SimNetwork::new(2, NetworkModel::default());
/// run_workers(&WorkerPool::new(2), 2, |w| {
///     network.send(w, 1 - w, Channel::Forward, 8); // E0596: `send` needs `&mut`
/// });
/// ```
///
/// ```compile_fail
/// use ec_graph::exec::{run_workers, WorkerPool};
/// let (parts, mut grad_sum) = ([1.0f32, 2.0], [0.0f32]);
/// run_workers(&WorkerPool::new(2), 2, |w| grad_sum[0] += parts[w]); // E0594
/// ```
///
/// What compiles is the ordered replay: workers return, the caller folds
/// and sends in ascending worker order after the join.
///
/// ```
/// use ec_comm::{stats::Channel, NetworkModel, SimNetwork};
/// use ec_graph::exec::{run_workers, WorkerPool};
/// let mut network = SimNetwork::new(2, NetworkModel::default());
/// let (parts, mut grad_sum) = ([1.0f32, 2.0], [0.0f32]);
/// for (w, part) in run_workers(&WorkerPool::new(2), 2, |w| parts[w]).into_iter().enumerate() {
///     grad_sum[0] += part;
///     network.send(w, 1 - w, Channel::Forward, 8);
/// }
/// assert_eq!(grad_sum, [3.0]);
/// ```
pub fn run_workers<R: Send>(pool: &WorkerPool, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    run_workers_on(pool, &mut vec![(); n], |w, ()| f(w))
}

/// [`run_workers`] where worker `w`'s call also gets `&mut states[w]`: a
/// buffer only that worker reads and writes, reused from one call to the
/// next. The states are split into the same disjoint bands as the results,
/// so this needs no lock either, and a block still cannot reach another
/// worker's state.
pub(crate) fn run_workers_on<S: Send, R: Send>(
    pool: &WorkerPool,
    states: &mut [S],
    f: impl Fn(usize, &mut S) -> R + Sync,
) -> Vec<R> {
    let n = states.len();
    let threads = pool.threads().clamp(1, n.max(1));
    if threads == 1 || n <= 1 {
        return states.iter_mut().enumerate().map(|(w, s)| f(w, s)).collect();
    }
    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let chunk = n.div_ceil(threads);
    {
        let f = &f;
        let mut tasks: Vec<Task<'_>> = Vec::with_capacity(threads);
        let (mut rest, mut rest_states) = (slots.as_mut_slice(), states);
        let mut w0 = 0usize;
        while w0 < n {
            let here = chunk.min(n - w0);
            let (band, tail) = rest.split_at_mut(here);
            let (band_states, tail_states) = rest_states.split_at_mut(here);
            (rest, rest_states) = (tail, tail_states);
            let start = w0;
            tasks.push(Box::new(move || {
                for (i, (slot, state)) in band.iter_mut().zip(band_states).enumerate() {
                    *slot = Some(f(start + i, state));
                }
            }));
            w0 += here;
        }
        pool.run(tasks);
    }
    // Every slot was filled by exactly one band; `flatten` cannot drop
    // anything (and `debug_assert` guards the invariant in tests).
    debug_assert!(slots.iter().all(Option::is_some));
    slots.into_iter().flatten().collect()
}

/// How one superstep is labelled in telemetry: span name and category, the
/// model layer it belongs to, and whether it takes a within-epoch
/// superstep index.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Stage {
    name: &'static str,
    cat: &'static str,
    layer: Option<usize>,
    indexed: bool,
}

impl Stage {
    /// An indexed stage with no layer dimension.
    pub(crate) fn new(name: &'static str, cat: &'static str) -> Self {
        Self { name, cat, layer: None, indexed: true }
    }

    /// Sets the layer dimension.
    pub(crate) fn at_layer(mut self, layer: usize) -> Self {
        self.layer = Some(layer);
        self
    }

    /// The loss step: it sits on the clock like any compute superstep but
    /// shares its index with the first BP superstep, so it writes no
    /// per-superstep gauge row (which would collide with that superstep's
    /// own), carries no `exec:fanout` span and does not advance the index.
    pub(crate) fn unindexed(mut self) -> Self {
        self.indexed = false;
        self
    }
}

/// What the supersteps of one epoch added up to.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct EpochTotals {
    /// Max-worker (straggler-scaled) compute seconds, summed over steps.
    pub compute_s: f64,
    /// Simulated network seconds, summed over barriers.
    pub comm_s: f64,
    /// Barrier idle-wait seconds summed over workers and steps — what an
    /// engine without barriers could reclaim.
    pub idle_s: f64,
    /// Host-measured codec pack seconds.
    pub pack_s: f64,
    /// Host-measured codec unpack seconds.
    pub unpack_s: f64,
    /// Indexed supersteps completed — the index of the next one.
    pub supersteps: u32,
}

/// Runs the supersteps of an epoch and does all of their accounting: see
/// the module header for the contract.
pub(crate) struct SuperstepDriver {
    /// Persistent worker-block thread pool — every fan-out reuses its
    /// lanes instead of spawning scoped threads per superstep.
    pool: WorkerPool,
    /// Observability sink. Recording is observation only: no training
    /// decision reads telemetry state back.
    pub(crate) telemetry: TelemetrySink,
    /// Straggler slowdown of each worker's measured compute time (1.0
    /// without fault injection); its length is the worker count.
    pub(crate) factors: Vec<f64>,
    /// Simulated-seconds cursor spans are laid out on; advances by the
    /// same superstep times the epoch totals sum.
    sim_now: f64,
    epoch: usize,
    epoch_start_s: f64,
    totals: EpochTotals,
    /// Host codec seconds the exchanges charged since the last barrier.
    pub(crate) pack_s: f64,
    pub(crate) unpack_s: f64,
}

impl SuperstepDriver {
    pub(crate) fn new(pool: WorkerPool, telemetry: TelemetrySink, factors: Vec<f64>) -> Self {
        Self {
            pool,
            telemetry,
            factors,
            sim_now: 0.0,
            epoch: 0,
            epoch_start_s: 0.0,
            totals: EpochTotals::default(),
            pack_s: 0.0,
            unpack_s: 0.0,
        }
    }

    /// The simulated clock.
    pub(crate) fn sim_now(&self) -> f64 {
        self.sim_now
    }

    /// Crash-restore: puts the clock back to `sim_now` and discards what
    /// was recorded for `epoch` and later — the restored engine replays
    /// those epochs and re-records them; without the rewind every replayed
    /// row would double-count.
    pub(crate) fn rewind(&mut self, epoch: usize, sim_now: f64) {
        self.sim_now = sim_now;
        self.telemetry.rewind_to_epoch(epoch as u32);
    }

    /// Starts epoch `epoch` at the current clock with zeroed totals.
    pub(crate) fn begin_epoch(&mut self, epoch: usize) {
        self.epoch = epoch;
        self.epoch_start_s = self.sim_now;
        self.totals = EpochTotals::default();
    }

    /// Closes the epoch with its umbrella span and hands back its totals.
    pub(crate) fn end_epoch(&mut self) -> EpochTotals {
        let track = self.telemetry.layout().engine();
        let dur = self.sim_now - self.epoch_start_s;
        self.telemetry.span(
            SpanEvent::new("epoch", "epoch", track, self.epoch_start_s, dur).at_epoch(self.epoch),
        );
        self.totals
    }

    /// A span of the current epoch carrying `stage`'s layer and superstep.
    fn event(&self, stage: Stage, track: u32, start_s: f64, dur_s: f64) -> SpanEvent {
        let mut ev =
            SpanEvent::new(stage.name, stage.cat, track, start_s, dur_s).at_epoch(self.epoch);
        if let Some(layer) = stage.layer {
            ev = ev.at_layer(layer);
        }
        if stage.indexed {
            ev = ev.at_superstep(self.totals.supersteps);
        }
        ev
    }

    /// Labels of a per-superstep gauge row, when `stage` writes one.
    fn superstep_row(&self, stage: Stage) -> Option<[u32; 2]> {
        (stage.indexed && self.telemetry.enabled(TelemetryLevel::Superstep))
            .then_some([self.epoch as u32, self.totals.supersteps])
    }

    /// Network barrier: everything sent since the last barrier becomes
    /// simulated seconds on the clock, after the host codec time the
    /// exchanges measured is laid out as `comm:pack`/`comm:unpack`.
    pub(crate) fn barrier(&mut self, network: &mut SimNetwork, stage: Stage) {
        let track = self.telemetry.layout().network();
        let pack = std::mem::take(&mut self.pack_s);
        let unpack = std::mem::take(&mut self.unpack_s);
        self.totals.pack_s += pack;
        self.totals.unpack_s += unpack;
        for (name, dur) in [("comm:pack", pack), ("comm:unpack", unpack)] {
            if dur > 0.0 {
                let codec = Stage { name, cat: "pack", layer: None, ..stage };
                self.telemetry.span(self.event(codec, track, self.sim_now, dur));
            }
        }
        let step_comm = network.flush_superstep();
        self.telemetry.span(self.event(stage, track, self.sim_now, step_comm));
        if let Some([e, ss]) = self.superstep_row(stage) {
            self.telemetry.set(MetricId::SuperstepCommS, labels(&[e, ss]), step_comm);
        }
        self.totals.comm_s += step_comm;
        self.sim_now += step_comm;
    }

    /// Compute superstep: runs `block(w)` for every worker on the pool,
    /// timing each, accounts the step and returns the results in ascending
    /// worker order for the stage's own replay.
    pub(crate) fn compute_superstep<R: Send>(
        &mut self,
        stage: Stage,
        block: impl Fn(usize) -> R + Sync,
    ) -> Vec<R> {
        self.compute_superstep_on(stage, &mut vec![(); self.factors.len()], |w, ()| block(w))
    }

    /// [`Self::compute_superstep`] whose block also gets `&mut states[w]`,
    /// worker `w`'s own reusable buffers ([`run_workers_on`]); one per
    /// worker.
    pub(crate) fn compute_superstep_on<S: Send, R: Send>(
        &mut self,
        stage: Stage,
        states: &mut [S],
        block: impl Fn(usize, &mut S) -> R + Sync,
    ) -> Vec<R> {
        assert_eq!(states.len(), self.factors.len(), "one state per worker");
        let fanout = HostTimer::start();
        let timed = run_workers_on(&self.pool, states, |w, state| {
            let timer = HostTimer::start();
            let out = block(w, state);
            (out, timer.elapsed_s())
        });
        let fanout_s = fanout.elapsed_s();
        let (results, secs): (Vec<R>, Vec<f64>) = timed.into_iter().unzip();
        self.account_compute(stage, &secs, fanout_s);
        results
    }

    /// Accounts one compute superstep from its per-worker host seconds and
    /// the wall time `fanout_s` of the whole fan-out (dispatch → join; its
    /// gap to the per-worker times is pool overhead).
    fn account_compute(&mut self, stage: Stage, secs: &[f64], fanout_s: f64) {
        let layout = self.telemetry.layout();
        let row = self.superstep_row(stage);
        // A straggler is a slow worker, not a slow superstep: each time is
        // scaled before the max, so a scaled worker can become the longest.
        let scaled: Vec<f64> = secs.iter().zip(&self.factors).map(|(s, f)| s * f).collect();
        let step_max = scaled.iter().copied().fold(0.0, f64::max);
        for (w, &own) in scaled.iter().enumerate() {
            self.telemetry
                .span(self.event(stage, layout.worker(w), self.sim_now, own).at_worker(w));
        }
        if stage.indexed && fanout_s > 0.0 {
            let fanout = Stage { name: "exec:fanout", cat: "exec", ..stage };
            self.telemetry.span(self.event(fanout, layout.engine(), self.sim_now, fanout_s));
        }
        // Worker `w` waits `step_max - own` at the barrier. The epoch total
        // accumulates at every level (it feeds the headroom gauge).
        let wait = Stage { name: "idle:wait", cat: "idle", layer: None, ..stage };
        for (w, &own) in scaled.iter().enumerate() {
            let idle = step_max - own;
            if idle <= 0.0 {
                continue;
            }
            self.totals.idle_s += idle;
            if let Some([e, ss]) = row {
                self.telemetry.set(MetricId::TimelineIdleS, labels(&[e, ss, w as u32]), idle);
            }
            let start_s = self.sim_now + own;
            self.telemetry.span(self.event(wait, layout.worker(w), start_s, idle).at_worker(w));
        }
        self.totals.compute_s += step_max;
        if let Some([e, ss]) = row {
            self.telemetry.set(MetricId::SuperstepComputeS, labels(&[e, ss]), step_max);
        }
        self.sim_now += step_max;
        if stage.indexed {
            self.totals.supersteps += 1;
        }
    }
}

/// The simulated cluster every trainer runs on: one node per worker, each
/// also hosting the parameter shard of the same index, joined by one
/// network (with its fault plan) and stepped by one driver. Fields are
/// reached directly, so a compute block can borrow `cluster.ps` while
/// `cluster.steps` runs it and the borrow checker keeps it away from the
/// network and the driver by field.
pub(crate) struct Cluster {
    pub(crate) network: SimNetwork,
    pub(crate) ps: ParameterServerGroup,
    pub(crate) steps: SuperstepDriver,
    /// Kernel-level thread budget resolved once alongside the pool.
    pub(crate) kernel_threads: usize,
    /// Completed epochs.
    pub(crate) epoch: usize,
    /// EC-degrade under an active fault plan: the transmissions a message
    /// its requester can do without gets before the requester stops waiting
    /// (`None`: every message is retried until it arrives).
    pub(crate) degrade_attempts: Option<u32>,
    /// Bytes of shard `s`'s slices of every slot: one pull message from its
    /// owner, and one push message to it. Fixed by the layer shapes.
    shard_bytes: Vec<u64>,
}

/// The cluster's share of a training checkpoint: the servers' parameters
/// with their Adam moments, the epoch counter and the simulated clock.
#[derive(Clone)]
pub(crate) struct ClusterSnapshot {
    pub(crate) epoch: usize,
    sim_now: f64,
    ps: ParameterServerGroup,
}

impl Cluster {
    /// `config.num_workers` worker nodes, shard `s` on node `s`, on a
    /// network subjected to `config.faults`. With one worker (the DGL/PyG
    /// columns) worker and shard share node 0, and same-node transfers are
    /// free, so no parameter traffic is charged.
    pub(crate) fn new(config: &TrainingConfig) -> Self {
        let validated = config.validate();
        assert!(validated.is_ok(), "invalid training config: {validated:?}");
        let num_workers = config.num_workers;
        let network = SimNetwork::with_faults(num_workers, config.network, config.faults.clone());
        let ps = config.parameter_servers();
        let telemetry = TelemetrySink::new(&config.telemetry, num_workers);
        // The persistent worker pool every superstep fan-out reuses.
        let (worker_threads, kernel_threads) = config.compute.resolve(num_workers);
        let factors = (0..num_workers)
            .map(|w| network.faults().map_or(1.0, |f| f.straggler_factor(w)))
            .collect();
        let degrade =
            network.faults().is_some() && config.resilience.policy == ResiliencePolicy::EcDegrade;
        Self {
            degrade_attempts: degrade.then_some(config.resilience.max_attempts),
            network,
            shard_bytes: ps.shard_wire_sizes(),
            ps,
            steps: SuperstepDriver::new(WorkerPool::new(worker_threads), telemetry, factors),
            kernel_threads,
            epoch: 0,
        }
    }

    /// Charges the epoch's parameter pull: every slot is needed by every
    /// worker every epoch, so no worker asks. Each shard owner sends every
    /// other worker one message holding its slices of all slots.
    pub(crate) fn charge_pull(&mut self) {
        for (owner, &bytes) in self.shard_bytes.iter().enumerate() {
            for w in 0..self.shard_bytes.len() {
                if w != owner && bytes > 0 {
                    self.network.send(owner, w, Channel::Parameter, bytes);
                }
            }
        }
    }

    /// Pulls every layer the way the engine's forward pass does — the
    /// epoch's one pull round and its barrier — for systems whose compute
    /// block spans all layers; earlier unflushed sends share the barrier.
    pub(crate) fn pull_all_layers(&mut self) {
        self.charge_pull();
        self.barrier(Stage::new("fp:exchange", "fp").at_layer(1));
    }

    /// Charges worker `w`'s gradient push: one message to every other
    /// shard's owner. Its own shard's slice stays on its node, free.
    pub(crate) fn charge_push(&mut self, w: usize) {
        for (owner, &bytes) in self.shard_bytes.iter().enumerate() {
            if owner != w && bytes > 0 {
                self.network.send(w, owner, Channel::Parameter, bytes);
            }
        }
    }

    /// The servers apply the pushed gradients; the push barrier closes.
    pub(crate) fn apply_update(&mut self) {
        self.ps.apply_update();
        self.barrier(Stage::new("update:push", "update"));
    }

    /// Network barrier over everything sent since the last one.
    pub(crate) fn barrier(&mut self, stage: Stage) {
        self.steps.barrier(&mut self.network, stage);
    }

    /// Starts the next epoch on the driver and returns its index.
    pub(crate) fn begin_epoch(&mut self) -> usize {
        self.steps.begin_epoch(self.epoch);
        self.epoch
    }

    /// Closes the epoch: the driver's totals and the network's ledger.
    pub(crate) fn end_epoch(&mut self) -> (EpochTotals, TrafficStats) {
        let totals = self.steps.end_epoch();
        self.epoch += 1;
        let (traffic, _) = self.network.end_epoch();
        (totals, traffic)
    }

    pub(crate) fn snapshot(&self) -> ClusterSnapshot {
        ClusterSnapshot { epoch: self.epoch, sim_now: self.steps.sim_now(), ps: self.ps.clone() }
    }

    /// # Errors
    /// A [`CheckpointError`] when the snapshot's parameter state does not
    /// match this cluster's layer shapes.
    pub(crate) fn restore(&mut self, snapshot: &ClusterSnapshot) -> Result<(), CheckpointError> {
        self.ps.restore(&snapshot.ps)?;
        self.epoch = snapshot.epoch;
        self.steps.rewind(snapshot.epoch, snapshot.sim_now);
        Ok(())
    }

    /// Telemetry for the run report (`None` at [`TelemetryLevel::Off`]).
    pub(crate) fn take_telemetry(&self) -> Option<TelemetryReport> {
        (self.steps.telemetry.level() > TelemetryLevel::Off).then(|| self.steps.telemetry.report())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ec_trace::NO_INDEX;

    #[test]
    fn results_come_back_in_worker_order() {
        for threads in [0usize, 1, 2, 3, 7, 16] {
            let pool = WorkerPool::new(threads);
            let out = run_workers(&pool, 9, |w| w * w);
            assert_eq!(out, (0..9).map(|w| w * w).collect::<Vec<_>>(), "threads={threads}");
        }
    }

    /// Each call gets its own worker's state, and what it writes there is
    /// what that worker reads on the next batch.
    #[test]
    fn each_worker_gets_its_own_state_across_batches() {
        for threads in [1usize, 2, 3, 7] {
            let pool = WorkerPool::new(threads);
            let mut states: Vec<Vec<usize>> = vec![Vec::new(); 9];
            for round in 0..3 {
                let out = run_workers_on(&pool, &mut states, |w, seen| {
                    seen.push(w + round);
                    seen.len()
                });
                assert_eq!(out, [round + 1; 9], "threads={threads}");
            }
            let want: Vec<Vec<usize>> = (0..9).map(|w| vec![w, w + 1, w + 2]).collect();
            assert_eq!(states, want, "threads={threads}");
        }
    }

    #[test]
    #[allow(
        clippy::disallowed_types,
        reason = "counts calls across lanes; asserts nothing on order"
    )]
    fn every_worker_runs_exactly_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let pool = WorkerPool::new(4);
        let counter = AtomicUsize::new(0);
        let out = run_workers(&pool, 11, |w| {
            counter.fetch_add(1, Ordering::SeqCst);
            w
        });
        assert_eq!(counter.load(Ordering::SeqCst), 11);
        assert_eq!(out.len(), 11);
    }

    #[test]
    fn pool_is_reusable_across_batches() {
        // The whole point of the persistent pool: many fan-outs, one set
        // of lanes. Results must stay ordered on every reuse.
        let pool = WorkerPool::new(4);
        for round in 0..50usize {
            let out = run_workers(&pool, 7, |w| w + round);
            assert_eq!(out, (0..7).map(|w| w + round).collect::<Vec<_>>(), "round={round}");
        }
    }

    fn driver(factors: &[f64]) -> SuperstepDriver {
        let config = ec_trace::TelemetryConfig::at(TelemetryLevel::Trace);
        let sink = TelemetrySink::new(&config, factors.len());
        let mut d = SuperstepDriver::new(WorkerPool::new(1), sink, factors.to_vec());
        d.sim_now = 10.0;
        d.begin_epoch(0);
        d
    }

    /// Deterministic timing zeroes every measured second, so the goldens
    /// never see the scale/max/idle arithmetic on values; this does.
    #[test]
    fn compute_accounting_scales_before_the_max_and_lays_idle_after_own_time() {
        let mut d = driver(&[2.0, 1.0, 1.0]);
        let fp = Stage::new("fp:compute", "fp").at_layer(1);
        d.account_compute(fp, &[2.0, 3.0, 1.0], 0.5);
        // Worker 0 measured the least but is the straggler: 2·2 = 4 > 3.
        assert_eq!(d.totals.compute_s, 4.0);
        assert_eq!(d.totals.idle_s, 1.0 + 3.0);
        assert_eq!(d.sim_now(), 14.0);
        assert_eq!(d.totals.supersteps, 1);

        // The loss step advances the clock and the totals but neither the
        // index nor any per-superstep row.
        d.account_compute(Stage::new("loss:compute", "loss").unindexed(), &[1.0, 1.0, 1.0], 0.5);
        assert_eq!(d.totals.compute_s, 6.0);
        assert_eq!(d.totals.idle_s, 4.0 + 1.0 + 1.0);
        assert_eq!(d.totals.supersteps, 1);
        let totals = d.end_epoch();
        assert_eq!(totals.compute_s + totals.comm_s, d.sim_now() - 10.0);

        let rep = d.telemetry.report();
        assert_eq!(rep.gauge("superstep.compute", &[0, 0]), Some(4.0));
        assert_eq!(rep.rows_named("superstep.compute").count(), 1);
        let idle: Vec<_> = rep.rows_named("timeline.idle_s").map(|r| r.labels[2]).collect();
        assert_eq!(idle, [1, 2], "only the fp step's two waiting workers get a row");
        assert_eq!(rep.gauge("timeline.idle_s", &[0, 0, 1]), Some(1.0));
        assert_eq!(rep.gauge("timeline.idle_s", &[0, 0, 2]), Some(3.0));

        let spans = |name: &str| -> Vec<(i64, i64, f64, f64)> {
            let of = rep.spans.iter().filter(|s| s.name == name);
            of.map(|s| (s.worker, s.superstep, s.start_s, s.dur_s)).collect()
        };
        assert_eq!(spans("fp:compute"), [(0, 0, 10.0, 4.0), (1, 0, 10.0, 3.0), (2, 0, 10.0, 1.0)]);
        // Idle starts where the worker's own (scaled) compute ends.
        assert_eq!(
            spans("idle:wait"),
            [
                (1, 0, 13.0, 1.0),
                (1, NO_INDEX, 15.0, 1.0),
                (2, 0, 11.0, 3.0),
                (2, NO_INDEX, 15.0, 1.0)
            ]
        );
        assert_eq!(spans("loss:compute")[0], (0, NO_INDEX, 14.0, 2.0));
        assert_eq!(spans("exec:fanout"), [(NO_INDEX, 0, 10.0, 0.5)], "indexed steps only");
        assert_eq!(spans("epoch"), [(NO_INDEX, NO_INDEX, 10.0, 6.0)]);
    }

    #[test]
    fn barrier_charges_the_flush_and_spans_only_measured_codec_time() {
        let mut d = driver(&[1.0, 1.0]);
        let mut net = SimNetwork::new(2, ec_comm::NetworkModel { bandwidth: 100.0, latency: 0.0 });
        let exchange = Stage::new("fp:exchange", "fp").at_layer(2);
        net.send(0, 1, ec_comm::stats::Channel::Forward, 200);
        d.barrier(&mut net, exchange);
        assert_eq!((d.totals.comm_s, d.sim_now()), (2.0, 12.0));
        assert_eq!(d.totals.supersteps, 0, "only a compute superstep advances the index");

        d.pack_s = 0.25;
        net.send(1, 0, ec_comm::stats::Channel::Forward, 100);
        d.barrier(&mut net, exchange);
        assert_eq!((d.pack_s, d.totals.pack_s, d.totals.unpack_s), (0.0, 0.25, 0.0));

        let rep = d.telemetry.report();
        assert_eq!(rep.gauge("superstep.comm", &[0, 0]), Some(1.0), "last barrier of index 0");
        let on_network: Vec<_> = rep
            .spans
            .iter()
            .filter(|s| s.track == d.telemetry.layout().network())
            .map(|s| (s.name, s.layer, s.start_s, s.dur_s))
            .collect();
        assert_eq!(
            on_network,
            [
                ("fp:exchange", 2, 10.0, 2.0),
                ("comm:pack", NO_INDEX, 12.0, 0.25),
                ("fp:exchange", 2, 12.0, 1.0)
            ]
        );
    }

    #[test]
    fn compute_superstep_returns_results_in_worker_order() {
        let mut d = driver(&[1.0; 5]);
        d.pool = WorkerPool::new(3);
        let out = d.compute_superstep(Stage::new("bp:compute", "bp").at_layer(2), |w| w * 10);
        assert_eq!(out, [0, 10, 20, 30, 40]);
        assert_eq!(d.totals.supersteps, 1);
    }

    #[test]
    fn degenerate_sizes() {
        let pool = WorkerPool::new(4);
        assert!(run_workers(&pool, 0, |w| w).is_empty());
        assert_eq!(run_workers(&WorkerPool::new(8), 1, |w| w + 1), vec![1]);
    }
}
