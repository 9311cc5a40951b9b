//! # `ec-trace` — deterministic observability for the simulated cluster
//!
//! The paper's whole argument rests on internals the per-epoch run report
//! cannot show: which candidate the Selector picks per vertex, how the
//! Bit-Tuner walks `B` through `{1, 2, 4, 8, 16}`, and whether the ResEC
//! residual norm stays inside the Theorem 1 bound. This crate makes those
//! internals visible without perturbing them:
//!
//! * [`span`] — a lightweight span model ([`SpanEvent`] is `Copy`, names
//!   are `&'static str`, recording allocates nothing) placed on a fixed
//!   track layout (one per simulated worker, plus network/engine and an
//!   empty `host` track the exports still list);
//! * [`ring`] — fixed-capacity per-track ring buffers that overwrite the
//!   oldest event under pressure and count what they dropped;
//! * [`registry`] — a static catalog of typed counters / gauges /
//!   histograms keyed by `(metric, labels)` in a `BTreeMap`, so every walk
//!   over recorded metrics is deterministic;
//! * [`sink`] — [`TelemetrySink`], the single recording facade the engine
//!   owns, gated by [`TelemetryLevel`];
//! * [`report`] — [`TelemetryReport`], the immutable snapshot attached to
//!   a finished run;
//! * [`export`] — Chrome `trace_event` JSON (loadable in
//!   `chrome://tracing` / Perfetto) and a standalone metrics JSON;
//! * [`timeline`] — compute / comm-serialize / comm-wire / idle-wait
//!   attribution over the span stream, with a flamegraph-compatible
//!   folded-stack export and the overlap-headroom figure the async
//!   engine refactor must beat.
//!
//! ## Determinism contract
//!
//! Trace timestamps are **simulated seconds** (the same modeled clock the
//! run report is built from), never the host clock. The host-measured
//! quantities a caller records (pack/unpack phase gauges, per-superstep
//! compute) come from the sanctioned `ec_comm::HostTimer`, which reports
//! zero under deterministic timing — so under
//! `ec_comm::set_deterministic_timing(true)` two identical runs export
//! byte-identical traces, whatever the thread counts. Recording is
//! observation only: no training decision may read telemetry state, and
//! `tests/determinism_suite.rs` proves the run report is byte-identical
//! with telemetry [`TelemetryLevel::Off`] vs [`TelemetryLevel::Trace`].

#![forbid(unsafe_code)]
#![deny(clippy::iter_over_hash_type)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::todo, clippy::unimplemented)]

pub mod export;
pub mod registry;
pub mod report;
pub mod ring;
pub mod sink;
pub mod span;
pub mod timeline;

pub use registry::{Labels, MetricId, MetricKind, MetricValue, L_NONE};
pub use report::{MetricRow, TelemetryReport};
pub use sink::TelemetrySink;
pub use span::{SpanEvent, TrackLayout, NO_INDEX};

/// How much the telemetry layer records. Levels are cumulative: each one
/// records everything the previous level does.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum TelemetryLevel {
    /// Record nothing; every instrumentation site reduces to one enum
    /// compare (the default).
    #[default]
    Off,
    /// Per-epoch metrics: Selector decisions, Bit-Tuner trajectory, ResEC
    /// residual norms vs the Theorem 1 bound, link traffic matrix, fault
    /// events, phase timings, wire-size histograms.
    Epoch,
    /// Adds per-superstep comm/compute timing rows and host-measured
    /// pack/unpack phase accounting.
    Superstep,
    /// Adds span events on the per-track ring buffers (Chrome-trace
    /// export).
    Trace,
}

impl TelemetryLevel {
    /// Canonical lower-case name (CLI `telemetry=` values).
    pub fn as_str(self) -> &'static str {
        match self {
            TelemetryLevel::Off => "off",
            TelemetryLevel::Epoch => "epoch",
            TelemetryLevel::Superstep => "superstep",
            TelemetryLevel::Trace => "trace",
        }
    }
}

impl std::str::FromStr for TelemetryLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(TelemetryLevel::Off),
            "epoch" => Ok(TelemetryLevel::Epoch),
            "superstep" => Ok(TelemetryLevel::Superstep),
            "trace" => Ok(TelemetryLevel::Trace),
            other => Err(format!("unknown telemetry level '{other}' (off|epoch|superstep|trace)")),
        }
    }
}

/// Telemetry settings carried on the training configuration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Recording level; [`TelemetryLevel::Off`] by default.
    pub level: TelemetryLevel,
}

impl TelemetryConfig {
    /// Convenience constructor for a given level.
    pub fn at(level: TelemetryLevel) -> Self {
        Self { level }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_are_ordered_and_cumulative() {
        assert!(TelemetryLevel::Off < TelemetryLevel::Epoch);
        assert!(TelemetryLevel::Epoch < TelemetryLevel::Superstep);
        assert!(TelemetryLevel::Superstep < TelemetryLevel::Trace);
    }

    #[test]
    fn level_parses_round_trip() {
        for l in [
            TelemetryLevel::Off,
            TelemetryLevel::Epoch,
            TelemetryLevel::Superstep,
            TelemetryLevel::Trace,
        ] {
            assert_eq!(l.as_str().parse::<TelemetryLevel>(), Ok(l));
        }
        assert!("verbose".parse::<TelemetryLevel>().is_err());
    }
}
