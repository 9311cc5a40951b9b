//! The simulated network: a per-link byte/message ledger plus the derived
//! communication time.
//!
//! The engine executes synchronous supersteps (one per GNN layer per
//! direction). Within a superstep every worker exchanges messages; the
//! superstep's communication time is governed by the busiest NIC:
//!
//! `t = max_node (latency · messages_sent(node)
//!               + max(bytes_in(node), bytes_out(node)) / bandwidth)`
//!
//! which models full-duplex Ethernet where each machine sends and receives
//! concurrently but serializes its own traffic. Transfers with
//! `from == to` are shared-memory accesses (the paper's "local neighboring
//! vertices are obtained from the shared memory") and cost nothing.
//!
//! # Fault injection
//!
//! A network built with [`SimNetwork::with_faults`] consults a
//! deterministic [`FaultInjector`] on every transmission, which delivers,
//! drops or corrupts it. A failed attempt charges its bytes to
//! [`Channel::Retry`] — so `latency · retries + resent bytes / bandwidth`
//! lands in the simulated clock through the ordinary NIC accounting — and
//! a timeout-detection delay to both endpoints, folded into the superstep
//! time at the next [`SimNetwork::flush_superstep`]. [`SimNetwork::send`]
//! retries until the message arrives; [`SimNetwork::send_within`] gives up
//! after a given number of attempts and reports why the last one failed.
//! Straggler nodes have their NIC time scaled by the configured factor. A
//! network built with [`FaultPlan::none`] (or plain [`SimNetwork::new`])
//! takes none of these paths and its ledger and clock are bit-identical to
//! the fault-free implementation.

use crate::clock::NetworkModel;
use crate::stats::{Channel, TrafficStats};
use ec_faults::{FaultDecision, FaultInjector, FaultPlan};

/// Why a [`SimNetwork::send_within`] attempt failed to deliver.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendError {
    /// The message was lost in transit (timeout at the receiver).
    Dropped,
    /// The message arrived but failed its checksum.
    Corrupted,
}

impl std::fmt::Display for SendError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SendError::Dropped => write!(f, "message dropped"),
            SendError::Corrupted => write!(f, "message corrupted"),
        }
    }
}

impl std::error::Error for SendError {}

/// Attempts a guaranteed [`SimNetwork::send`] makes before concluding the
/// fault pattern cannot be out-waited within the superstep and delivering
/// anyway (every failed attempt stays charged).
const FORCED_SEND_ATTEMPTS: u32 = 16;

/// Byte-accurate network simulation for a fixed set of nodes.
#[derive(Clone, Debug)]
pub struct SimNetwork {
    model: NetworkModel,
    in_bytes: Vec<u64>,
    out_bytes: Vec<u64>,
    out_msgs: Vec<u64>,
    /// The open epoch's ledger.
    epoch_stats: TrafficStats,
    /// Every closed epoch's ledger, merged in by [`Self::end_epoch`].
    closed_stats: TrafficStats,
    epoch_time: f64,
    /// Fault machinery; `None` keeps every hot path identical to the
    /// fault-free implementation.
    faults: Option<FaultInjector>,
    /// Completed supersteps (keys the injector's stateless hashes).
    superstep: u64,
    /// Messages attempted within the current superstep.
    msg_seq: u64,
    /// Timeout-detection seconds charged per node, consumed at flush.
    pending_delay: Vec<f64>,
}

impl SimNetwork {
    /// Creates a network connecting `num_nodes` machines.
    pub fn new(num_nodes: usize, model: NetworkModel) -> Self {
        Self {
            model,
            in_bytes: vec![0; num_nodes],
            out_bytes: vec![0; num_nodes],
            out_msgs: vec![0; num_nodes],
            epoch_stats: TrafficStats::default(),
            closed_stats: TrafficStats::default(),
            epoch_time: 0.0,
            faults: None,
            superstep: 0,
            msg_seq: 0,
            pending_delay: vec![0.0; num_nodes],
        }
    }

    /// Creates a network whose transmissions are subjected to `plan`.
    /// [`FaultPlan::none`] yields a network bit-identical to
    /// [`SimNetwork::new`].
    ///
    /// # Panics
    /// Panics when the plan fails [`FaultPlan::validate`].
    pub fn with_faults(num_nodes: usize, model: NetworkModel, plan: FaultPlan) -> Self {
        let mut net = Self::new(num_nodes, model);
        if !plan.is_none() {
            net.faults = Some(FaultInjector::new(plan));
        }
        net
    }

    /// Number of simulated machines.
    pub fn num_nodes(&self) -> usize {
        self.in_bytes.len()
    }

    /// The timing model in force.
    pub fn model(&self) -> NetworkModel {
        self.model
    }

    /// The fault injector, when fault injection is active.
    pub fn faults(&self) -> Option<&FaultInjector> {
        self.faults.as_ref()
    }

    /// Records a delivered message on the per-node NICs and the ledger.
    fn deliver(&mut self, from: usize, to: usize, channel: Channel, bytes: u64) {
        self.in_bytes[to] += bytes;
        self.send_out(from, to, channel, bytes);
    }

    /// Records a transmission on the sender's NIC and the ledger.
    fn send_out(&mut self, from: usize, to: usize, channel: Channel, bytes: u64) {
        self.out_bytes[from] += bytes;
        self.out_msgs[from] += 1;
        self.epoch_stats.record(channel, bytes);
        self.epoch_stats.links.record(from, to, bytes);
    }

    /// One transmission attempt under fault injection.
    fn attempt(
        &mut self,
        from: usize,
        to: usize,
        channel: Channel,
        bytes: u64,
    ) -> Result<(), SendError> {
        let Some(injector) = self.faults.as_ref() else {
            // No injector means a perfect link: every attempt delivers.
            self.deliver(from, to, channel, bytes);
            return Ok(());
        };
        let decision = injector.decide(self.superstep, from, to, self.msg_seq);
        let timeout = injector.timeout_cost(self.model.latency);
        self.msg_seq += 1;
        let error = match decision {
            FaultDecision::Deliver => {
                self.deliver(from, to, channel, bytes);
                return Ok(());
            }
            FaultDecision::Drop => {
                // The sender transmits into the void; the receiver learns
                // nothing until its timeout fires.
                self.send_out(from, to, Channel::Retry, bytes);
                self.epoch_stats.dropped_msgs += 1;
                SendError::Dropped
            }
            FaultDecision::Corrupt => {
                // Full transfer on both NICs, then the checksum fails.
                self.deliver(from, to, Channel::Retry, bytes);
                self.epoch_stats.corrupted_msgs += 1;
                SendError::Corrupted
            }
        };
        self.pending_delay[from] += timeout;
        self.pending_delay[to] += timeout;
        Err(error)
    }

    /// Records one message of `bytes` from `from` to `to` on `channel`.
    /// Same-node transfers are free and unrecorded.
    ///
    /// Under fault injection the message is retried until delivered
    /// (charging every failed attempt); `send` never loses data, making it
    /// the right primitive for traffic whose loss the engine cannot absorb
    /// (gradients, parameters, trend boundaries).
    pub fn send(&mut self, from: usize, to: usize, channel: Channel, bytes: u64) {
        if self.transmit(FORCED_SEND_ATTEMPTS, from, to, channel, bytes).is_err() {
            // The link is saturated with faults: the transfer completes
            // once conditions clear; the wait is already charged.
            self.deliver(from, to, channel, bytes);
        }
    }

    /// Sends one message with at most `attempts` transmissions (`None`:
    /// [`Self::send`], as many as it takes), stopping at the first delivery
    /// and reporting why the last attempt failed; `Some(1)` is a single
    /// attempt. Each failed attempt charges its bytes to [`Channel::Retry`]
    /// plus a timeout-detection delay on both endpoints. The bounded form
    /// is the wait of the EC-degrade policy, whose caller then substitutes
    /// a prediction instead of retrying further.
    pub fn send_within(
        &mut self,
        attempts: Option<u32>,
        from: usize,
        to: usize,
        channel: Channel,
        bytes: u64,
    ) -> Result<(), SendError> {
        let Some(attempts) = attempts else {
            self.send(from, to, channel, bytes);
            return Ok(());
        };
        self.transmit(attempts, from, to, channel, bytes)
    }

    /// Up to `attempts` transmissions, stopping at the first delivery;
    /// same-node transfers are free, unrecorded and always succeed. Inlined
    /// with its fault-free shortcut: every message of a fault-free run,
    /// training's and serving's, takes this path.
    #[inline(always)]
    fn transmit(
        &mut self,
        attempts: u32,
        from: usize,
        to: usize,
        channel: Channel,
        bytes: u64,
    ) -> Result<(), SendError> {
        assert!(from < self.num_nodes() && to < self.num_nodes(), "node out of range");
        if from == to {
            return Ok(());
        }
        if self.faults.is_none() {
            // Every attempt delivers; skip the loop.
            self.deliver(from, to, channel, bytes);
            return Ok(());
        }
        let mut outcome = Err(SendError::Dropped);
        for _ in 0..attempts {
            outcome = self.attempt(from, to, channel, bytes);
            if outcome.is_ok() {
                break;
            }
        }
        outcome
    }

    /// Closes the current superstep: derives its communication time from
    /// the busiest NIC (straggler-scaled, plus any timeout-detection
    /// delays), accumulates it, and clears the per-node counters.
    pub fn flush_superstep(&mut self) -> f64 {
        let mut t: f64 = 0.0;
        for node in 0..self.num_nodes() {
            let wire = self.in_bytes[node].max(self.out_bytes[node]);
            let mut node_t = self.model.transfer_time(wire, self.out_msgs[node]);
            if let Some(injector) = &self.faults {
                node_t = node_t * injector.straggler_factor(node) + self.pending_delay[node];
            }
            t = t.max(node_t);
        }
        self.in_bytes.iter_mut().for_each(|x| *x = 0);
        self.out_bytes.iter_mut().for_each(|x| *x = 0);
        self.out_msgs.iter_mut().for_each(|x| *x = 0);
        self.pending_delay.iter_mut().for_each(|x| *x = 0.0);
        self.superstep += 1;
        self.msg_seq = 0;
        self.epoch_time += t;
        t
    }

    /// Closes the current epoch, returning `(traffic, comm_seconds)` and
    /// resetting the per-epoch accumulators. Implicitly flushes any open
    /// superstep.
    pub fn end_epoch(&mut self) -> (TrafficStats, f64) {
        self.flush_superstep();
        let stats = self.epoch_stats.take();
        self.closed_stats.merge(&stats);
        let time = std::mem::take(&mut self.epoch_time);
        (stats, time)
    }

    /// Cumulative traffic since construction, the open epoch included.
    pub fn total_stats(&self) -> TrafficStats {
        let mut total = self.closed_stats.clone();
        total.merge(&self.epoch_stats);
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(nodes: usize) -> SimNetwork {
        SimNetwork::new(nodes, NetworkModel { bandwidth: 1000.0, latency: 0.0 })
    }

    #[test]
    fn local_transfers_are_free() {
        let mut n = net(2);
        n.send(0, 0, Channel::Forward, 1_000_000);
        assert_eq!(n.flush_superstep(), 0.0);
        assert_eq!(n.total_stats().total_bytes(), 0);
    }

    #[test]
    fn superstep_time_tracks_busiest_nic() {
        let mut n = net(3);
        n.send(0, 1, Channel::Forward, 1000); // node0 out=1000, node1 in=1000
        n.send(0, 2, Channel::Forward, 3000); // node0 out=4000
        let t = n.flush_superstep();
        assert!((t - 4.0).abs() < 1e-9, "t={t}");
    }

    #[test]
    fn full_duplex_takes_max_of_in_out() {
        let mut n = net(2);
        n.send(0, 1, Channel::Forward, 2000);
        n.send(1, 0, Channel::Forward, 5000);
        let t = n.flush_superstep();
        assert!((t - 5.0).abs() < 1e-9, "t={t}");
    }

    #[test]
    fn latency_counts_sent_messages() {
        let mut n = SimNetwork::new(2, NetworkModel { bandwidth: f64::INFINITY, latency: 1.0 });
        n.send(0, 1, Channel::Control, 1);
        n.send(0, 1, Channel::Control, 1);
        assert!((n.flush_superstep() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn supersteps_accumulate_into_epoch() {
        let mut n = net(2);
        n.send(0, 1, Channel::Forward, 1000);
        n.flush_superstep();
        n.send(1, 0, Channel::Backward, 2000);
        n.flush_superstep();
        let (stats, time) = n.end_epoch();
        assert_eq!(stats.fp_bytes, 1000);
        assert_eq!(stats.bp_bytes, 2000);
        assert!((time - 3.0).abs() < 1e-9);
        // epoch accumulators reset
        let (stats2, time2) = n.end_epoch();
        assert_eq!(stats2.total_bytes(), 0);
        assert_eq!(time2, 0.0);
        // totals persist, and take in the open epoch
        assert_eq!(n.total_stats().total_bytes(), 3000);
        n.send(0, 1, Channel::Forward, 500);
        assert_eq!(n.total_stats().fp_bytes, 1500);
    }

    #[test]
    fn end_epoch_flushes_open_superstep() {
        let mut n = net(2);
        n.send(0, 1, Channel::Forward, 500);
        let (stats, time) = n.end_epoch();
        assert_eq!(stats.fp_bytes, 500);
        assert!(time > 0.0);
    }

    #[test]
    fn send_rejects_unknown_node() {
        let rejects = |send: fn(&mut SimNetwork)| {
            let panic = std::panic::catch_unwind(|| send(&mut net(2))).unwrap_err();
            assert_eq!(panic.downcast_ref::<&str>(), Some(&"node out of range"));
        };
        rejects(|n| n.send(0, 5, Channel::Forward, 1));
        // A same-node transfer is free, but only between nodes that exist.
        rejects(|n| n.send(5, 5, Channel::Forward, 1));
        rejects(|n| _ = n.send_within(Some(1), 5, 5, Channel::Forward, 1));
        rejects(|n| _ = n.send_within(Some(1), 0, 5, Channel::Forward, 1));
    }

    #[test]
    fn none_plan_is_bit_identical_to_plain_network() {
        let model = NetworkModel { bandwidth: 997.0, latency: 0.003 };
        let mut plain = SimNetwork::new(3, model);
        let mut faulty = SimNetwork::with_faults(3, model, FaultPlan::none());
        assert!(faulty.faults().is_none(), "none plan must not allocate an injector");
        for step in 0..5u64 {
            for m in 0..7 {
                let from = (m % 3) as usize;
                let to = ((m + step) % 3) as usize;
                plain.send(from, to, Channel::Forward, 100 + m);
                faulty.send(from, to, Channel::Forward, 100 + m);
            }
            assert_eq!(plain.flush_superstep().to_bits(), faulty.flush_superstep().to_bits());
        }
        let (ps, pt) = plain.end_epoch();
        let (fs, ft) = faulty.end_epoch();
        assert_eq!(ps, fs);
        assert_eq!(pt.to_bits(), ft.to_bits());
    }

    #[test]
    fn link_matrix_tracks_per_pair_bytes() {
        let mut n = net(3);
        n.send(0, 1, Channel::Forward, 1000);
        n.send(0, 1, Channel::Forward, 500);
        n.send(2, 0, Channel::Backward, 300);
        n.send(1, 1, Channel::Forward, 999); // local: free and unrecorded
        let (stats, _) = n.end_epoch();
        assert_eq!(stats.links.get(0, 1), 1500);
        assert_eq!(stats.links.get(2, 0), 300);
        assert_eq!(stats.links.get(1, 1), 0);
        let links: Vec<_> = stats.links.iter_nonzero().collect();
        assert_eq!(links, vec![(0, 1, 1500), (2, 0, 300)]);
        // epoch matrix resets; the total matrix persists
        let (stats2, _) = n.end_epoch();
        assert!(stats2.links.is_empty());
        assert_eq!(n.total_stats().links.get(0, 1), 1500);
    }

    #[test]
    fn fault_events_are_counted_per_kind() {
        let model = NetworkModel { bandwidth: 1000.0, latency: 0.01 };
        let timeout = ec_faults::TIMEOUT_LATENCIES * model.latency;
        let mut n = SimNetwork::with_faults(2, model, FaultPlan::uniform_drop(11, 1.0));
        assert!(n.send_within(Some(1), 0, 1, Channel::Forward, 100).is_err());
        assert!(n.send_within(Some(1), 0, 1, Channel::Forward, 100).is_err());
        let stats = n.total_stats();
        assert_eq!(stats.dropped_msgs, 2);
        assert_eq!(stats.corrupted_msgs, 0);
        // dropped bytes still land on the link matrix: the sender NIC spent them
        assert_eq!(stats.links.get(0, 1), 200);

        let plan = FaultPlan { corrupt_p: 1.0, ..FaultPlan::none() };
        let mut n = SimNetwork::with_faults(2, model, plan);
        assert_eq!(n.send_within(Some(1), 0, 1, Channel::Backward, 500), Err(SendError::Corrupted));
        let stats = n.total_stats();
        assert_eq!((stats.corrupted_msgs, stats.dropped_msgs), (1, 0));
        assert_eq!((stats.bp_bytes, stats.retry_bytes), (0, 500));
        // A corrupted message crosses the wire: both NICs carry its bytes,
        // and both endpoints wait out the timeout.
        assert_eq!((n.out_bytes[0], n.in_bytes[1]), (500, 500));
        assert_eq!(n.pending_delay, [timeout; 2]);
    }

    #[test]
    fn a_single_attempt_reports_a_drop_and_charges_retry_bytes() {
        let plan = FaultPlan::uniform_drop(11, 1.0);
        let mut n =
            SimNetwork::with_faults(2, NetworkModel { bandwidth: 1000.0, latency: 0.01 }, plan);
        assert_eq!(n.send_within(Some(1), 0, 1, Channel::Forward, 4000), Err(SendError::Dropped));
        let stats = n.total_stats();
        assert_eq!(stats.fp_bytes, 0);
        assert_eq!(stats.retry_bytes, 4000);
        // Sender NIC spent the bytes, and the timeout delay lands in the
        // superstep time: 4000/1000 + 1·latency + 4·latency timeout.
        let t = n.flush_superstep();
        assert!(t > 4.0, "t={t} missing timeout charge");
    }

    #[test]
    fn bounded_send_stops_at_the_first_delivery_and_reports_the_last_failure() {
        let model = NetworkModel { bandwidth: 1000.0, latency: 0.0 };
        let mut lossy = SimNetwork::with_faults(2, model, FaultPlan::uniform_drop(11, 1.0));
        let bounded = lossy.send_within(Some(3), 0, 1, Channel::Forward, 100);
        assert_eq!(bounded, Err(SendError::Dropped));
        assert_eq!(lossy.total_stats().dropped_msgs, 3, "every attempt is made and charged");
        assert_eq!(lossy.send_within(None, 0, 1, Channel::Forward, 100), Ok(()));
        assert_eq!(lossy.total_stats().fp_bytes, 100, "unbounded is the guaranteed send");
        let mut clean = net(2);
        assert_eq!(clean.send_within(Some(3), 0, 1, Channel::Forward, 100), Ok(()));
        assert_eq!(clean.total_stats().messages, 1, "a delivered message is not re-sent");
    }

    #[test]
    fn send_is_guaranteed_even_under_heavy_loss() {
        let plan = FaultPlan::uniform_drop(5, 0.9);
        let mut n = SimNetwork::with_faults(2, NetworkModel { bandwidth: 1e9, latency: 0.0 }, plan);
        n.send(0, 1, Channel::Forward, 1000);
        let stats = n.total_stats();
        assert_eq!(stats.fp_bytes, 1000, "payload must eventually deliver");
        assert!(stats.retry_bytes >= 1000, "failed attempts must be charged");
    }

    #[test]
    fn stragglers_stretch_their_nic_time() {
        let model = NetworkModel { bandwidth: 1000.0, latency: 0.0 };
        let mut fast = SimNetwork::with_faults(2, model, FaultPlan::none().with_straggler(9, 3.0));
        let mut slow = SimNetwork::with_faults(2, model, FaultPlan::none().with_straggler(1, 3.0));
        fast.send(0, 1, Channel::Forward, 1000);
        slow.send(0, 1, Channel::Forward, 1000);
        let t_fast = fast.flush_superstep();
        let t_slow = slow.flush_superstep();
        assert!((t_fast - 1.0).abs() < 1e-9, "t_fast={t_fast}");
        assert!((t_slow - 3.0).abs() < 1e-9, "straggler receiver: t_slow={t_slow}");
    }

    #[test]
    fn fault_runs_are_reproducible() {
        let run = || {
            let plan = FaultPlan::uniform_drop(1234, 0.2);
            let mut n =
                SimNetwork::with_faults(4, NetworkModel { bandwidth: 1e5, latency: 1e-4 }, plan);
            let (mut failures, mut time) = (0u32, 0.0f64);
            for step in 0..6u64 {
                for m in 0..40u64 {
                    let from = (m % 4) as usize;
                    let to = ((m + 1 + step) % 4) as usize;
                    if n.send_within(Some(1), from, to, Channel::Forward, 256).is_err() {
                        failures += 1;
                    }
                }
                time += n.flush_superstep();
            }
            (failures, n.total_stats(), time.to_bits())
        };
        assert_eq!(run(), run());
        let (failures, stats, _) = run();
        assert!(failures > 0, "0.2 drop rate must produce failures");
        assert!(stats.retry_bytes > 0);
    }
}
