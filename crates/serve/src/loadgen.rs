//! Seeded closed-loop load generation: Zipf vertex popularity, bursty
//! arrivals, and a deterministic discrete-event loop over simulated time.
//!
//! `C` clients each keep one request in flight: issue → (queue, batch,
//! serve) → think → issue again. Vertex popularity follows a Zipf law over
//! a seeded permutation of the vertex ids (popular vertices are spread
//! across partitions, as in real traffic); think times are exponential
//! with a 1 ms mean, 3× shorter in the first fifth of every 50 ms of the
//! simulated clock (the burst phase).
//!
//! Determinism: every random draw flows from the workload seed through one
//! `SmallRng` consumed in event order; the event queue is a min-heap
//! ordered by `(time bits, sequence)` — `f64::to_bits` orders non-negative
//! floats, and the monotone sequence number breaks ties by insertion. The
//! pair is unique, so the pop order is total and never compares events.
//! Latencies are pure simulated quantities, so a run's [`ServeReport`] is
//! a function of (config, seed) alone — two identical runs are
//! byte-identical, which the determinism suite checks.

use crate::report::{percentile, ServeReport, WorkerServeStats};
use crate::service::InferenceService;
use ec_trace::TelemetryLevel;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// A worker dispatches a batch as soon as this many requests are pending…
const MAX_BATCH: usize = 8;
/// … or as soon as the oldest pending request has waited this long
/// (simulated seconds).
const MAX_DELAY_S: f64 = 2e-3;
/// Mean think time between a completion and the client's next issue.
const MEAN_THINK_S: f64 = 1e-3;
/// Burst cycle length in simulated seconds.
const BURST_PERIOD_S: f64 = 50e-3;
/// Fraction of each cycle spent in the burst phase.
const BURST_FRACTION: f64 = 0.2;
/// Think-rate multiplier during the burst phase.
const BURST_FACTOR: f64 = 3.0;

/// Closed-loop workload description.
#[derive(Clone, Debug)]
pub struct WorkloadConfig {
    /// Concurrent closed-loop clients.
    pub clients: usize,
    /// Total requests to issue before the clients retire.
    pub total_requests: u64,
    /// Zipf popularity exponent (0 = uniform).
    pub zipf_exponent: f64,
    /// Seed for all load-generator randomness.
    pub seed: u64,
}

impl WorkloadConfig {
    /// A small default workload: 16 clients, 1 000 requests, Zipf 0.9.
    pub fn defaults() -> Self {
        Self { clients: 16, total_requests: 1_000, zipf_exponent: 0.9, seed: 17 }
    }

    /// Checks the knobs for consistency.
    pub fn validate(&self) -> Result<(), String> {
        if self.clients == 0 || self.total_requests == 0 {
            return Err("need at least one client and one request".into());
        }
        // Written positively so NaN fails the check too.
        if !(self.zipf_exponent.is_finite() && self.zipf_exponent >= 0.0) {
            return Err("zipf_exponent must be finite and >= 0".into());
        }
        Ok(())
    }
}

/// Zipf sampler over a seeded permutation of `0..n`: rank `r` (0 = most
/// popular) has weight `(r+1)^-s`, and the permutation decides which
/// vertex holds which rank.
#[derive(Clone, Debug)]
pub struct ZipfSampler {
    /// Cumulative (unnormalized) weights by rank.
    cdf: Vec<f64>,
    /// `perm[rank]` = vertex id.
    perm: Vec<u32>,
}

impl ZipfSampler {
    /// A sampler over `n` vertices with exponent `s`, permuted by `seed`.
    pub fn new(n: usize, s: f64, seed: u64) -> Self {
        assert!(n > 0, "need at least one vertex");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for r in 0..n {
            total += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(total);
        }
        let mut perm: Vec<u32> = (0..n as u32).collect();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5152_9A7F);
        // Fisher–Yates off the dedicated seed stream.
        for i in (1..n).rev() {
            let j = rng.gen_range(0..i + 1);
            perm.swap(i, j);
        }
        Self { cdf, perm }
    }

    /// Draws one vertex id.
    pub fn sample(&self, rng: &mut SmallRng) -> u32 {
        let total = self.cdf[self.cdf.len() - 1];
        let u = rng.gen::<f64>() * total;
        let rank = self.cdf.partition_point(|&c| c < u).min(self.perm.len() - 1);
        self.perm[rank]
    }
}

/// One exponential think-time draw, burst-modulated by the simulated time
/// `now` at which the thinking starts.
fn think_time(rng: &mut SmallRng, now: f64) -> f64 {
    let mut mean = MEAN_THINK_S;
    if (now / BURST_PERIOD_S).fract() < BURST_FRACTION {
        mean /= BURST_FACTOR;
    }
    let u: f64 = rng.gen();
    -mean * (1.0 - u).ln()
}

/// `Ord` only so that an event can sit in the queue's key tuple: the
/// `(time bits, sequence)` prefix in front of it is unique.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Event {
    /// Client `c` issues its next request.
    Issue { client: u32 },
    /// Worker `w` dispatches a batch (stale unless `gen` is current).
    Dispatch { worker: u32, gen: u64 },
}

/// The event queue: a min-heap on `(time bits, sequence, event)`.
type Queue = BinaryHeap<Reverse<(u64, u64, Event)>>;

/// A pending (queued, not yet dispatched) request.
#[derive(Clone, Copy, Debug)]
struct Pending {
    vertex: u32,
    arrival: f64,
    client: u32,
}

/// Drives `service` with the closed-loop workload until every issued
/// request completes, returning the run's [`ServeReport`].
///
/// # Panics
/// Panics on an invalid workload (validated up front, before any traffic).
pub fn run_closed_loop(service: &mut InferenceService, workload: &WorkloadConfig) -> ServeReport {
    let validated = workload.validate();
    assert!(validated.is_ok(), "invalid workload: {validated:?}");
    let num_workers = service.num_workers();
    let zipf = ZipfSampler::new(service.store_vertices(), workload.zipf_exponent, workload.seed);
    let mut rng = SmallRng::seed_from_u64(workload.seed);

    // One pending issue per client and about one dispatch per worker; the
    // buffer grows (and then stays) only while superseded dispatches wait.
    let mut events: Queue = BinaryHeap::with_capacity(workload.clients + 2 * num_workers);
    let mut seq = 0u64;
    let push = |events: &mut Queue, seq: &mut u64, t: f64, ev: Event| {
        *seq += 1;
        events.push(Reverse((t.to_bits(), *seq, ev)));
    };

    let mut queues: Vec<VecDeque<Pending>> = vec![VecDeque::new(); num_workers];
    let mut free_at = vec![0.0f64; num_workers];
    // Current dispatch generation per worker; an event with an older gen
    // is stale (superseded by a re-schedule) and ignored.
    let mut gens = vec![0u64; num_workers];
    let mut scheduled_at: Vec<Option<f64>> = vec![None; num_workers];

    let mut issued = 0u64;
    let mut served = 0u64;
    let mut latencies: Vec<f64> = Vec::with_capacity(workload.total_requests as usize);
    let mut per_worker = vec![WorkerServeStats::default(); num_workers];
    let mut fetch_rows = 0u64;
    let mut fetch_bytes = 0u64;
    let mut makespan = 0.0f64;

    // Reused by every dispatch; `waits` only exists for the request trace.
    let tracing = service.config().telemetry.level != TelemetryLevel::Off;
    let mut batch: Vec<Pending> = Vec::new();
    let mut ids: Vec<u32> = Vec::new();
    let mut waits: Vec<f64> = Vec::new();

    // Each client's first issue staggers off the think-time distribution.
    for c in 0..workload.clients as u32 {
        let t0 = think_time(&mut rng, 0.0);
        push(&mut events, &mut seq, t0, Event::Issue { client: c });
    }

    // Re-schedules worker `w`'s dispatch if the queue now warrants an
    // earlier (or first) one.
    let schedule_dispatch = |events: &mut Queue,
                             seq: &mut u64,
                             gens: &mut [u64],
                             scheduled_at: &mut [Option<f64>],
                             queues: &[VecDeque<Pending>],
                             free_at: &[f64],
                             w: usize,
                             now: f64| {
        let queue = &queues[w];
        let Some(front) = queue.front() else { return };
        let trigger = if queue.len() >= MAX_BATCH { now } else { front.arrival + MAX_DELAY_S };
        let start = trigger.max(free_at[w]).max(now);
        if scheduled_at[w].is_none_or(|t| start < t) {
            gens[w] += 1;
            scheduled_at[w] = Some(start);
            *seq += 1;
            let ev = Event::Dispatch { worker: w as u32, gen: gens[w] };
            events.push(Reverse((start.to_bits(), *seq, ev)));
        }
    };

    while let Some(Reverse((time_bits, _, ev))) = events.pop() {
        let t = f64::from_bits(time_bits);
        match ev {
            Event::Issue { client } => {
                if issued >= workload.total_requests {
                    continue; // client retires
                }
                issued += 1;
                let vertex = zipf.sample(&mut rng);
                let w = service.route(vertex as usize);
                queues[w].push_back(Pending { vertex, arrival: t, client });
                schedule_dispatch(
                    &mut events,
                    &mut seq,
                    &mut gens,
                    &mut scheduled_at,
                    &queues,
                    &free_at,
                    w,
                    t,
                );
            }
            Event::Dispatch { worker, gen } => {
                let w = worker as usize;
                if gen != gens[w] {
                    continue; // superseded by a later re-schedule
                }
                scheduled_at[w] = None;
                let take = queues[w].len().min(MAX_BATCH);
                if take == 0 {
                    continue;
                }
                batch.clear();
                batch.extend(queues[w].drain(..take));
                ids.clear();
                ids.extend(batch.iter().map(|p| p.vertex));
                let cost = match service.answer_batch(w, &ids) {
                    Ok((_, cost)) => cost,
                    // Routing is by construction correct; a rejected batch
                    // would be a bug — drop it rather than abort the loop.
                    Err(_) => continue,
                };
                fetch_rows += cost.fetch_rows;
                fetch_bytes += cost.fetch_bytes;
                // Request-level trace (pure observation; the simulation
                // and the report below never read it back).
                if tracing {
                    waits.clear();
                    waits.extend(batch.iter().map(|p| t - p.arrival));
                    service.note_batch_trace(w, t, &waits, &cost);
                }
                let finish = t + cost.comm_s + cost.compute_s;
                free_at[w] = finish;
                makespan = makespan.max(finish);
                per_worker[w].batches += 1;
                for p in &batch {
                    let latency = finish - p.arrival;
                    latencies.push(latency);
                    service.note_request_latency(latency);
                    served += 1;
                    per_worker[w].served += 1;
                    let next = finish + think_time(&mut rng, finish);
                    push(&mut events, &mut seq, next, Event::Issue { client: p.client });
                }
                schedule_dispatch(
                    &mut events,
                    &mut seq,
                    &mut gens,
                    &mut scheduled_at,
                    &queues,
                    &free_at,
                    w,
                    finish.max(t),
                );
            }
        }
    }

    latencies.sort_by(f64::total_cmp);
    let duration = if makespan > 0.0 { makespan } else { 1.0 };
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let mean = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    let max = latencies.last().copied().unwrap_or(0.0);
    for (w, stats) in per_worker.iter_mut().enumerate() {
        stats.qps = stats.served as f64 / duration;
        stats.mean_batch =
            if stats.batches > 0 { stats.served as f64 / stats.batches as f64 } else { 0.0 };
        let (hits, misses, _, _) = service.cache_stats()[w];
        stats.cache_hits = hits;
        stats.cache_misses = misses;
    }
    let qps_per_worker: Vec<f64> = per_worker.iter().map(|s| s.qps).collect();
    service.record_run_metrics(p50, p99, &qps_per_worker);

    ServeReport {
        dataset: service.dataset_name().to_string(),
        workers: num_workers,
        issued,
        served,
        sim_duration_s: makespan,
        latency_p50_s: p50,
        latency_p99_s: p99,
        latency_mean_s: mean,
        latency_max_s: max,
        qps_total: served as f64 / duration,
        per_worker,
        fetch_rows,
        fetch_bytes,
        refreshes: service.refreshes(),
        refresh_bytes: service.refresh_bytes(),
        refresh_comm_s: service.refresh_comm_s(),
        network_bytes: service.traffic().total_bytes(),
        version: service.version(),
        telemetry: service.telemetry_report(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_deterministic_and_skewed() {
        let zipf = ZipfSampler::new(100, 1.1, 7);
        let mut a = SmallRng::seed_from_u64(3);
        let mut b = SmallRng::seed_from_u64(3);
        let xs: Vec<u32> = (0..500).map(|_| zipf.sample(&mut a)).collect();
        let ys: Vec<u32> = (0..500).map(|_| zipf.sample(&mut b)).collect();
        assert_eq!(xs, ys, "same seed must sample the same sequence");
        // The most popular vertex must clearly dominate a uniform share.
        let mut counts = vec![0u32; 100];
        for &x in &xs {
            counts[x as usize] += 1;
        }
        let top = counts.iter().max().copied().unwrap_or(0);
        assert!(top > 25, "Zipf 1.1 should concentrate mass (top = {top}/500)");
    }

    #[test]
    fn zipf_zero_exponent_is_roughly_uniform() {
        let zipf = ZipfSampler::new(10, 0.0, 7);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut counts = vec![0u32; 10];
        for _ in 0..2000 {
            counts[zipf.sample(&mut rng) as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 100), "uniform draw too skewed: {counts:?}");
    }

    #[test]
    fn think_times_burst() {
        // 5 ms is inside the first fifth of the 50 ms cycle, 30 ms is not.
        let mut rng = SmallRng::seed_from_u64(1);
        let in_burst: f64 = (0..400).map(|_| think_time(&mut rng, 5e-3)).sum();
        let off_burst: f64 = (0..400).map(|_| think_time(&mut rng, 30e-3)).sum();
        assert!(off_burst > in_burst * 2.0, "burst phase must shorten think times");
    }

    #[test]
    fn workload_validation_rejects_nonsense() {
        let mut w = WorkloadConfig::defaults();
        w.clients = 0;
        assert!(w.validate().is_err());
        assert!(WorkloadConfig::defaults().validate().is_ok());
        for bad in [f64::INFINITY, f64::NAN, -0.5] {
            let w = WorkloadConfig { zipf_exponent: bad, ..WorkloadConfig::defaults() };
            assert!(w.validate().is_err(), "{bad} accepted: {w:?}");
        }
    }
}
