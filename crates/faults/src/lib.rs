//! Deterministic fault injection for the simulated cluster.
//!
//! A [`FaultPlan`] declares *what can go wrong* — message drop and
//! corruption probabilities on every link, per-node straggler slowdowns and
//! whole-worker crashes at given epochs. A [`FaultInjector`] turns the plan
//! into per-message decisions.
//!
//! Decisions are **stateless hashes** of `(seed, superstep, from, to,
//! message index)`: the same plan over the same traffic always produces the
//! same faults, independent of how many other links are sending — which
//! keeps every experiment reproducible and lets `FaultPlan::none()` stay
//! bit-identical to a fault-free run (no generator state is threaded
//! through the send path at all).
//!
//! The crate is policy-free: it only answers "what happens to this
//! message". Retry accounting lives in `ec-comm` and recovery policy
//! (retry, EC-degrade, checkpoint/restore) in `ec-graph`.

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

/// What the network does with one transmitted message.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultDecision {
    /// The message arrives intact.
    Deliver,
    /// The message is lost in transit (sender pays, receiver times out).
    Drop,
    /// The message arrives but fails its checksum — observable garbage,
    /// handled like a drop by the receiver but paid for on both NICs.
    Corrupt,
}

/// A whole-worker crash: the worker dies while executing epoch `epoch`,
/// losing all in-memory state. The trainer restores from the latest
/// checkpoint and replays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CrashEvent {
    /// The crashing worker.
    pub worker: usize,
    /// The epoch during which the crash strikes (0-based).
    pub epoch: usize,
}

/// The complete fault schedule of one simulated run. The default is
/// [`FaultPlan::none`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the stateless per-message hashes.
    pub seed: u64,
    /// Probability a message is lost in transit, on every link.
    pub drop_p: f64,
    /// Probability a message arrives corrupted (checksum failure), on
    /// every link.
    pub corrupt_p: f64,
    /// `(node, factor)` slowdowns: the node's compute and NIC time are
    /// multiplied by `factor` (≥ 1).
    pub stragglers: Vec<(usize, f64)>,
    /// Worker crashes, handled by the trainer via checkpoint/restore.
    pub crashes: Vec<CrashEvent>,
}

/// Timeout-detection cost of one failed delivery, in units of the network
/// model's latency (charged to both endpoints).
pub const TIMEOUT_LATENCIES: f64 = 4.0;

impl FaultPlan {
    /// The empty plan: no faults of any kind. A network built with this
    /// plan behaves bit-identically to one built without fault support.
    pub fn none() -> Self {
        Self::default()
    }

    /// A plan dropping every message with probability `p` on every link.
    pub fn uniform_drop(seed: u64, p: f64) -> Self {
        Self { seed, drop_p: p, ..Self::none() }
    }

    /// Adds a straggler: `node`'s compute and NIC times are scaled by
    /// `factor`.
    pub fn with_straggler(mut self, node: usize, factor: f64) -> Self {
        self.stragglers.push((node, factor));
        self
    }

    /// Adds a worker crash at the given epoch.
    pub fn with_crash(mut self, worker: usize, epoch: usize) -> Self {
        self.crashes.push(CrashEvent { worker, epoch });
        self
    }

    /// True when the plan can never produce a fault (stragglers at factor 1
    /// included), so fault machinery can be skipped entirely.
    pub fn is_none(&self) -> bool {
        self.drop_p == 0.0
            && self.corrupt_p == 0.0
            && self.stragglers.iter().all(|&(_, f)| f == 1.0)
            && self.crashes.is_empty()
    }

    /// Checks internal consistency (probability ranges, straggler factors).
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [("drop_p", self.drop_p), ("corrupt_p", self.corrupt_p)] {
            if !(0.0..=1.0).contains(&p) || p.is_nan() {
                return Err(format!("{name} = {p} out of [0, 1]"));
            }
        }
        if self.drop_p + self.corrupt_p > 1.0 {
            return Err("fault probabilities sum above 1".into());
        }
        for &(node, factor) in &self.stragglers {
            if !factor.is_finite() || factor < 1.0 {
                return Err(format!("straggler factor {factor} for node {node} not >= 1"));
            }
        }
        Ok(())
    }
}

/// Turns a [`FaultPlan`] into deterministic per-message decisions.
#[derive(Clone, Debug)]
pub struct FaultInjector {
    plan: FaultPlan,
}

impl FaultInjector {
    /// Builds the injector.
    ///
    /// # Panics
    /// Panics when the plan fails [`FaultPlan::validate`].
    #[expect(
        clippy::expect_used,
        reason = "documented `# Panics`: configs validate their plan first, so a bad one here is a caller bug"
    )]
    pub fn new(plan: FaultPlan) -> Self {
        plan.validate().expect("invalid fault plan");
        Self { plan }
    }

    /// The fate of message number `msg_index` (within the superstep) on
    /// link `from → to`. Pure: identical arguments always yield identical
    /// decisions.
    pub fn decide(&self, superstep: u64, from: usize, to: usize, msg_index: u64) -> FaultDecision {
        let FaultPlan { seed, drop_p, corrupt_p, .. } = self.plan;
        let u = unit_f64(mix(seed, superstep, from as u64, to as u64, msg_index));
        if u < drop_p {
            FaultDecision::Drop
        } else if u < drop_p + corrupt_p {
            FaultDecision::Corrupt
        } else {
            FaultDecision::Deliver
        }
    }

    /// The straggler slowdown of `node` (1.0 when none).
    pub fn straggler_factor(&self, node: usize) -> f64 {
        self.plan.stragglers.iter().find(|&&(n, _)| n == node).map_or(1.0, |&(_, f)| f)
    }

    /// The timeout-detection cost of one failed delivery, given the
    /// network's per-message latency.
    pub fn timeout_cost(&self, latency: f64) -> f64 {
        TIMEOUT_LATENCIES * latency
    }
}

/// SplitMix64-style stateless mixer over the five key components.
fn mix(seed: u64, superstep: u64, from: u64, to: u64, msg: u64) -> u64 {
    let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
    for x in [superstep, from, to, msg] {
        h ^= x.wrapping_mul(0xBF58_476D_1CE4_E5B9).rotate_left(31);
        h = h.wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 29;
    }
    h ^= h >> 32;
    h.wrapping_mul(0xD6E8_FEB8_6659_FD93)
}

fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_plan_always_delivers() {
        let inj = FaultInjector::new(FaultPlan::none());
        for s in 0..20 {
            for m in 0..50 {
                assert_eq!(inj.decide(s, 0, 1, m), FaultDecision::Deliver);
            }
        }
        assert!(FaultPlan::none().is_none());
    }

    #[test]
    fn decisions_are_deterministic() {
        let plan = FaultPlan::uniform_drop(42, 0.3);
        let a = FaultInjector::new(plan.clone());
        let b = FaultInjector::new(plan);
        for s in 0..10 {
            for m in 0..100 {
                assert_eq!(a.decide(s, 1, 2, m), b.decide(s, 1, 2, m));
            }
        }
    }

    #[test]
    fn drop_rate_tracks_probability() {
        let inj = FaultInjector::new(FaultPlan::uniform_drop(7, 0.2));
        let n = 20_000;
        let drops = (0..n).filter(|&m| inj.decide(0, 0, 1, m) == FaultDecision::Drop).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "rate {rate}");
    }

    #[test]
    fn mixed_faults_partition_the_unit_interval() {
        let plan = FaultPlan { corrupt_p: 0.1, ..FaultPlan::uniform_drop(3, 0.1) };
        let inj = FaultInjector::new(plan);
        let n = 30_000u64;
        let mut counts = [0usize; 3];
        for m in 0..n {
            match inj.decide(1, 2, 3, m) {
                FaultDecision::Deliver => counts[0] += 1,
                FaultDecision::Drop => counts[1] += 1,
                FaultDecision::Corrupt => counts[2] += 1,
            }
        }
        for &faulty in &counts[1..] {
            let rate = faulty as f64 / n as f64;
            assert!((rate - 0.1).abs() < 0.02, "rate {rate}");
        }
        assert!(counts[0] as f64 / n as f64 > 0.75);
    }

    #[test]
    fn straggler_factors_resolve_per_node() {
        let plan = FaultPlan::none().with_straggler(2, 4.0);
        let inj = FaultInjector::new(plan);
        assert_eq!(inj.straggler_factor(2), 4.0);
        assert_eq!(inj.straggler_factor(0), 1.0);
    }

    #[test]
    fn crash_schedule_is_carried() {
        let plan = FaultPlan::none().with_crash(1, 10);
        assert_eq!(plan.crashes, vec![CrashEvent { worker: 1, epoch: 10 }]);
        assert!(!plan.is_none());
    }

    #[test]
    fn validate_rejects_bad_plans() {
        assert!(FaultPlan::uniform_drop(0, 1.5).validate().is_err());
        assert!(FaultPlan::uniform_drop(0, -0.1).validate().is_err());
        let sum_over = FaultPlan { corrupt_p: 0.6, ..FaultPlan::uniform_drop(0, 0.6) };
        assert!(sum_over.validate().is_err());
        assert!(FaultPlan::none().with_straggler(0, 0.5).validate().is_err());
        assert!(FaultPlan::none().validate().is_ok());
    }

    #[test]
    fn different_seeds_give_different_fault_patterns() {
        let a = FaultInjector::new(FaultPlan::uniform_drop(1, 0.5));
        let b = FaultInjector::new(FaultPlan::uniform_drop(2, 0.5));
        let pattern = |inj: &FaultInjector| -> Vec<FaultDecision> {
            (0..64).map(|m| inj.decide(0, 0, 1, m)).collect()
        };
        assert_ne!(pattern(&a), pattern(&b));
    }
}
