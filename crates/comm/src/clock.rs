//! Network timing model and the workspace's only wall-clock entry point.
//!
//! The paper's clusters are "connected with a Gigabit Ethernet", and its
//! core claim — compression buys wall-clock time — is the statement that
//! epoch time is dominated by `bytes / bandwidth` there. The model below is
//! the standard latency–bandwidth (α–β) cost model: a transfer of `b` bytes
//! in `m` messages costs `m·α + b/β` seconds.
//!
//! This module also owns [`HostTimer`], the single audited place where the
//! simulation is allowed to read the host's wall clock (compute blocks are
//! *measured*, communication is *modeled*). The root `clippy.toml` bans
//! `Instant`/`SystemTime` — the types and their `now()` — everywhere else,
//! so deterministic code cannot accidentally branch on real time, and
//! [`set_deterministic_timing`] can globally replace measurements with
//! zeros when a test or experiment needs byte-identical run reports.
#![allow(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "HostTimer is the sanctioned clock; its on/off flag is the one atomic outside the pool"
)]

use std::sync::atomic::{AtomicBool, Ordering};

/// When set, every [`HostTimer`] reports zero elapsed time, making run
/// reports (which otherwise embed measured compute seconds) byte-identical
/// across runs. Simulated communication time is unaffected — it is derived
/// from byte counts, never from the host clock.
static DETERMINISTIC_TIMING: AtomicBool = AtomicBool::new(false);

/// Globally enables/disables deterministic (zeroed) compute timing.
pub fn set_deterministic_timing(on: bool) {
    // Relaxed: a lone flag set before runs start; no other memory is
    // published through it.
    DETERMINISTIC_TIMING.store(on, Ordering::Relaxed);
}

/// Whether deterministic timing is in force.
pub fn deterministic_timing() -> bool {
    // Relaxed: a stale read only zeroes (or fails to zero) a timer sample.
    DETERMINISTIC_TIMING.load(Ordering::Relaxed)
}

/// A stopwatch over the host's monotonic clock — the only sanctioned way
/// for engine/baseline code to measure real compute time.
///
/// Measurements feed *reporting only* (`compute_s` in run reports); no
/// simulated decision may depend on them. Under
/// [`set_deterministic_timing`] the timer reports `0.0` so that two
/// identical runs produce identical reports.
#[derive(Debug)]
pub struct HostTimer {
    start: Option<std::time::Instant>,
}

impl HostTimer {
    /// Starts a stopwatch (a no-op under deterministic timing).
    pub fn start() -> Self {
        let start = (!deterministic_timing()).then(std::time::Instant::now);
        Self { start }
    }

    /// Seconds since [`HostTimer::start`]; `0.0` under deterministic
    /// timing.
    pub fn elapsed_s(&self) -> f64 {
        self.start.map_or(0.0, |s| s.elapsed().as_secs_f64())
    }
}

/// Latency–bandwidth network model.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Sustained point-to-point bandwidth in bytes/second.
    pub bandwidth: f64,
    /// Per-message latency in seconds (software + propagation).
    pub latency: f64,
}

impl NetworkModel {
    /// Gigabit Ethernet: 1 Gbps ≈ 117 MiB/s effective, 100 µs per message —
    /// the paper's testbed fabric.
    pub fn gigabit_ethernet() -> Self {
        Self { bandwidth: 117.0 * 1024.0 * 1024.0, latency: 100e-6 }
    }

    /// 100 Gbps fabric (the commercial network DistDGL assumes, under which
    /// "communication would not be a bottleneck").
    pub fn hundred_gig() -> Self {
        Self { bandwidth: 11_700.0 * 1024.0 * 1024.0, latency: 10e-6 }
    }

    /// 10 Gbps datacenter Ethernet.
    pub fn ten_gig() -> Self {
        Self { bandwidth: 1_170.0 * 1024.0 * 1024.0, latency: 50e-6 }
    }

    /// Seconds to move `bytes` in `messages` discrete messages.
    pub fn transfer_time(&self, bytes: u64, messages: u64) -> f64 {
        messages as f64 * self.latency + bytes as f64 / self.bandwidth
    }
}

impl Default for NetworkModel {
    fn default() -> Self {
        Self::gigabit_ethernet()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_scales_linearly_in_bytes() {
        let m = NetworkModel { bandwidth: 1000.0, latency: 0.0 };
        assert_eq!(m.transfer_time(2000, 1), 2.0);
        assert_eq!(m.transfer_time(4000, 1), 4.0);
    }

    #[test]
    fn latency_charged_per_message() {
        let m = NetworkModel { bandwidth: f64::INFINITY, latency: 0.5 };
        assert_eq!(m.transfer_time(1_000_000, 4), 2.0);
    }

    #[test]
    fn gigabit_is_slower_than_hundred_gig() {
        let bytes = 100 * 1024 * 1024;
        let ge = NetworkModel::gigabit_ethernet().transfer_time(bytes, 10);
        let hg = NetworkModel::hundred_gig().transfer_time(bytes, 10);
        assert!(ge > 50.0 * hg, "gigabit {ge} not ≫ hundred-gig {hg}");
    }

    #[test]
    fn network_model_round_trips_through_copy() {
        // `NetworkModel` is part of the config wire surface; assert the
        // value survives a copy/compare cycle for each preset.
        for m in
            [NetworkModel::gigabit_ethernet(), NetworkModel::ten_gig(), NetworkModel::hundred_gig()]
        {
            let copy = m;
            assert_eq!(copy, m);
        }
    }

    #[test]
    fn host_timer_measures_when_not_deterministic() {
        // The default mode measures real time: elapsed is non-negative and
        // monotone in repeated reads.
        let t = HostTimer::start();
        let a = t.elapsed_s();
        let b = t.elapsed_s();
        assert!(a >= 0.0);
        assert!(b >= a);
    }
}
