//! The metric registry: a static catalog of typed metrics plus the
//! `(metric, labels)`-keyed store.
//!
//! Every metric the system can record is declared once in [`MetricId`]'s
//! catalog with its kind, unit and label names — exporters and dashboards
//! never meet an undeclared series. Values live in a `BTreeMap`, so every
//! walk over recorded series is in deterministic key order. **Label slot 0
//! is always the epoch** — crash rollback uses that convention to discard
//! the series of replayed epochs.

use std::collections::BTreeMap;

/// Label tuple attached to one series (unused slots are [`L_NONE`]).
pub type Labels = [u32; 4];

/// Sentinel for an unused label slot.
pub const L_NONE: u32 = u32::MAX;

/// Builds a label tuple from the used prefix.
pub fn labels(used: &[u32]) -> Labels {
    let mut out = [L_NONE; 4];
    for (slot, v) in out.iter_mut().zip(used) {
        *slot = *v;
    }
    out
}

/// Metric value kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotone sum of `u64` increments.
    Counter,
    /// Last-written `f64` (re-recording an epoch overwrites, which is what
    /// crash replay needs).
    Gauge,
    /// Streaming summary (`count`/`sum`/`min`/`max`) of `f64` observations.
    Histogram,
}

/// Streaming summary of a histogram series.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct HistSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (`0` when empty).
    pub min: f64,
    /// Largest observation (`0` when empty).
    pub max: f64,
}

impl HistSummary {
    fn observe(&mut self, v: f64) {
        if self.count == 0 {
            self.min = v;
            self.max = v;
        } else {
            self.min = self.min.min(v);
            self.max = self.max.max(v);
        }
        self.count += 1;
        self.sum += v;
    }
}

/// One recorded value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MetricValue {
    /// Counter total.
    Counter(u64),
    /// Gauge value.
    Gauge(f64),
    /// Histogram summary.
    Histogram(HistSummary),
}

/// Static definition of one metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Dotted series name, e.g. `"selector.pdt"`.
    pub name: &'static str,
    /// Value kind.
    pub kind: MetricKind,
    /// Unit of the recorded value.
    pub unit: &'static str,
    /// Names of the used label slots (slot 0 is always `"epoch"`).
    pub labels: &'static [&'static str],
    /// One-line description.
    pub help: &'static str,
}

macro_rules! metric_catalog {
    ($( $variant:ident => { $name:literal, $kind:ident, $unit:literal, [$($label:literal),*], $help:literal } ),+ $(,)?) => {
        /// Every metric the system records, in catalog order.
        #[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
        #[repr(u16)]
        pub enum MetricId {
            $(
                #[doc = $help]
                $variant,
            )+
        }

        impl MetricId {
            /// Every id, indexed by `MetricId as usize` like [`CATALOG`].
            pub const ALL: &'static [MetricId] = &[$(MetricId::$variant),+];
        }

        /// The full static catalog, indexed by `MetricId as usize`.
        pub const CATALOG: &[MetricDef] = &[
            $(
                MetricDef {
                    name: $name,
                    kind: MetricKind::$kind,
                    unit: $unit,
                    labels: &[$($label),*],
                    help: $help,
                },
            )+
        ];
    };
}

metric_catalog! {
    SelectorCps => { "selector.cps", Counter, "decisions", ["epoch", "layer"],
        "ReqEC-FP Selector picked the compressed candidate" },
    SelectorPdt => { "selector.pdt", Counter, "decisions", ["epoch", "layer"],
        "ReqEC-FP Selector picked the predicted candidate" },
    SelectorAvg => { "selector.avg", Counter, "decisions", ["epoch", "layer"],
        "ReqEC-FP Selector picked the average candidate" },
    BitTunerBits => { "bittuner.bits", Gauge, "bits", ["epoch", "src", "dst"],
        "Adaptive bit width B in force on the src->dst requester link after the epoch's tune" },
    ResecResidualSq => { "resec.residual_l2sq", Gauge, "norm_sq", ["epoch", "layer"],
        "Sum of squared L2 norms of live ResEC-BP residuals per exchange layer" },
    ResecT1Bound => { "resec.theorem1_bound", Gauge, "norm_sq", ["epoch", "layer"],
        "Theorem 1 upper bound (1+a)^(L-l) G^2 / (1 - a^2(1+1/rho)) for the same layer" },
    LinkBytes => { "traffic.link_bytes", Gauge, "bytes", ["epoch", "src", "dst"],
        "Bytes moved src->dst this epoch (node w is worker w and parameter shard w)" },
    FaultDropped => { "faults.dropped", Counter, "messages", ["epoch"],
        "Messages lost in transit under fault injection" },
    FaultCorrupted => { "faults.corrupted", Counter, "messages", ["epoch"],
        "Messages that arrived but failed their checksum" },
    FaultDegradedDrop => { "faults.degraded_drop", Counter, "messages", ["epoch"],
        "EC-degrade substitutions whose final failed attempt was a drop (timeout-detected)" },
    FaultDegradedCorrupt => { "faults.degraded_corrupt", Counter, "messages", ["epoch"],
        "EC-degrade substitutions whose final failed attempt was a corruption (checksum-detected)" },
    FaultCrashRecovered => { "faults.crash_recovered", Counter, "events", ["epoch"],
        "Worker crashes rolled back and replayed at this epoch" },
    FaultStragglerFactor => { "faults.straggler_factor", Gauge, "ratio", ["epoch", "worker"],
        "Injected slowdown factor of a straggling worker" },
    PhaseComputeS => { "phase.compute", Gauge, "seconds", ["epoch"],
        "Measured max-worker compute seconds, summed over the epoch's supersteps" },
    PhaseCommS => { "phase.comm", Gauge, "seconds", ["epoch"],
        "Modeled communication seconds of the epoch" },
    PhasePackS => { "phase.pack", Gauge, "seconds", ["epoch"],
        "Measured per-message policy seconds: gather, compress, decode into the requester's operand" },
    PhaseUnpackS => { "phase.unpack", Gauge, "seconds", ["epoch"],
        "Measured requester-side seconds after delivery (the EC-degrade fallback)" },
    SuperstepCommS => { "superstep.comm", Gauge, "seconds", ["epoch", "superstep"],
        "Modeled communication seconds of one superstep" },
    SuperstepComputeS => { "superstep.compute", Gauge, "seconds", ["epoch", "superstep"],
        "Measured max-worker compute seconds of one superstep" },
    FpWireBytes => { "fp.wire_bytes", Histogram, "bytes", ["epoch"],
        "Per-message forward-pass wire sizes" },
    BpWireBytes => { "bp.wire_bytes", Histogram, "bytes", ["epoch"],
        "Per-message backward-pass wire sizes" },
    FpReconErrL1 => { "fp.recon_err_l1", Gauge, "l1", ["epoch"],
        "Total L1 reconstruction error of the epoch's forward messages" },
    ServeCacheHit => { "serve.cache_hit", Counter, "rows", ["epoch", "worker"],
        "Serving embedding-cache hits (label 0 is the store refresh version)" },
    ServeCacheMiss => { "serve.cache_miss", Counter, "rows", ["epoch", "worker"],
        "Serving embedding-cache misses fetched from the owning worker" },
    ServeBatchOccupancy => { "serve.batch_occupancy", Histogram, "requests", ["epoch", "worker"],
        "Requests coalesced into one serving batch at dispatch" },
    ServeFetchBytes => { "serve.fetch_bytes", Counter, "bytes", ["epoch", "src", "dst"],
        "Embedding-fetch reply bytes moved src->dst at serve time" },
    ServeLatencyP50 => { "serve.latency_p50", Gauge, "seconds", ["epoch"],
        "Median simulated request latency of the serving run" },
    ServeLatencyP99 => { "serve.latency_p99", Gauge, "seconds", ["epoch"],
        "99th-percentile simulated request latency of the serving run" },
    ServeQps => { "serve.qps", Gauge, "requests_per_s", ["epoch", "worker"],
        "Served queries per simulated second, per worker" },
    TimelineIdleS => { "timeline.idle_s", Gauge, "seconds", ["epoch", "superstep", "worker"],
        "Idle-wait seconds of one worker inside one superstep barrier (step max minus own scaled compute)" },
    TimelineHeadroomS => { "timeline.overlap_headroom_s", Gauge, "seconds", ["epoch"],
        "Summed worker idle-wait seconds of the epoch — the overlap an async engine could reclaim" },
    ServeCacheHitRate => { "serve.cache_hit_rate", Gauge, "ratio", ["epoch", "worker"],
        "Serving cache hits / (hits + misses) over the run (label 0 is the store refresh version)" },
    ServeQueueWaitS => { "serve.queue_wait_s", Histogram, "seconds", ["epoch", "worker"],
        "Per-request simulated wait between arrival and batch dispatch" },
    ServeFetchS => { "serve.fetch_s", Histogram, "seconds", ["epoch", "worker"],
        "Per-batch modeled cross-partition fetch seconds" },
    ServeComputeS => { "serve.compute_s", Histogram, "seconds", ["epoch", "worker"],
        "Per-batch modeled final-layer compute seconds" },
    ServeLatencyBucket => { "serve.latency_log2", Counter, "requests", ["epoch", "bucket"],
        "Requests whose end-to-end latency fell in log2 bucket b = [2^(b-64), 2^(b-63)) seconds" },
}

impl MetricId {
    /// The static definition of this metric.
    pub fn def(self) -> &'static MetricDef {
        // The catalog is generated from the same macro arm as the enum, so
        // the index is always in range; fall back to the first entry rather
        // than panicking on a (impossible) mismatch.
        CATALOG.get(self as usize).unwrap_or(&CATALOG[0])
    }
}

/// The `(metric, labels)`-keyed value store.
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    values: BTreeMap<(u16, Labels), MetricValue>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` to a counter series.
    pub fn add(&mut self, id: MetricId, lbl: Labels, v: u64) {
        let entry = self.values.entry((id as u16, lbl)).or_insert(MetricValue::Counter(0));
        if let MetricValue::Counter(total) = entry {
            *total += v;
        }
    }

    /// Sets a gauge series.
    pub fn set(&mut self, id: MetricId, lbl: Labels, v: f64) {
        self.values.insert((id as u16, lbl), MetricValue::Gauge(v));
    }

    /// Observes `v` on a histogram series.
    pub fn observe(&mut self, id: MetricId, lbl: Labels, v: f64) {
        let entry = self
            .values
            .entry((id as u16, lbl))
            .or_insert(MetricValue::Histogram(HistSummary::default()));
        if let MetricValue::Histogram(h) = entry {
            h.observe(v);
        }
    }

    /// Number of recorded series.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Iterates recorded series in deterministic (catalog, label) order.
    pub fn iter(&self) -> impl Iterator<Item = (MetricId, &Labels, &MetricValue)> + '_ {
        // The store only holds indices produced by `MetricId as u16`.
        self.values
            .iter()
            .filter_map(|((id, lbl), v)| Some((*MetricId::ALL.get(*id as usize)?, lbl, v)))
    }

    /// Discards every series whose epoch label (slot 0) is `>= epoch`.
    /// Crash rollback replays those epochs, which re-records them; series
    /// without an epoch label survive.
    pub fn discard_from_epoch(&mut self, epoch: u32) {
        self.values.retain(|(_, lbl), _| lbl[0] == L_NONE || lbl[0] < epoch);
    }
}

/// Deterministic log2 latency bucket: `64 + floor(log2(v))` clamped to
/// `0..=127`, read straight from the IEEE-754 exponent bits — no libm
/// call, so every platform buckets identically. Zero, negative,
/// subnormal and non-finite values land in bucket 0.
pub fn log2_bucket(v: f64) -> u32 {
    if !(v.is_finite() && v > 0.0) {
        return 0;
    }
    let biased = ((v.to_bits() >> 52) & 0x7ff) as i64;
    if biased == 0 {
        return 0; // subnormal: below every bucket boundary we care about
    }
    (64 + (biased - 1023)).clamp(0, 127) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_and_enum_agree() {
        assert_eq!(MetricId::SelectorCps.def().name, "selector.cps");
        assert_eq!(MetricId::FpReconErrL1.def().name, "fp.recon_err_l1");
        assert_eq!(MetricId::ServeLatencyBucket as usize, CATALOG.len() - 1);
        assert_eq!(MetricId::ALL.len(), CATALOG.len());
        for (i, (&id, def)) in MetricId::ALL.iter().zip(CATALOG).enumerate() {
            assert_eq!(id as usize, i);
            assert_eq!(id.def().name, def.name);
            assert_eq!(
                def.labels.first(),
                Some(&"epoch"),
                "{}: slot 0 must be the epoch",
                def.name
            );
            assert!(def.labels.len() <= 4);
        }
    }

    #[test]
    fn counters_accumulate_gauges_overwrite() {
        let mut r = MetricsRegistry::new();
        let l = labels(&[0, 1]);
        r.add(MetricId::SelectorPdt, l, 5);
        r.add(MetricId::SelectorPdt, l, 7);
        r.set(MetricId::PhaseCommS, labels(&[0]), 1.0);
        r.set(MetricId::PhaseCommS, labels(&[0]), 2.0);
        let rows: Vec<_> = r.iter().collect();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].2, &MetricValue::Counter(12));
        assert_eq!(rows[1].2, &MetricValue::Gauge(2.0));
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let mut r = MetricsRegistry::new();
        let l = labels(&[0]);
        for v in [4.0, 1.0, 9.0] {
            r.observe(MetricId::FpWireBytes, l, v);
        }
        let (_, _, v) = r.iter().next().expect("one series");
        match v {
            MetricValue::Histogram(h) => {
                assert_eq!(h.count, 3);
                assert_eq!(h.sum, 14.0);
                assert_eq!(h.min, 1.0);
                assert_eq!(h.max, 9.0);
            }
            other => panic!("wrong value kind {other:?}"),
        }
    }

    #[test]
    fn iteration_is_in_catalog_then_label_order() {
        let mut r = MetricsRegistry::new();
        r.set(MetricId::PhaseCommS, labels(&[1]), 1.0);
        r.set(MetricId::PhaseCommS, labels(&[0]), 1.0);
        r.add(MetricId::SelectorCps, labels(&[1, 2]), 1);
        let names: Vec<(&str, u32)> = r.iter().map(|(id, l, _)| (id.def().name, l[0])).collect();
        assert_eq!(names, vec![("selector.cps", 1), ("phase.comm", 0), ("phase.comm", 1)]);
    }

    #[test]
    fn log2_bucket_is_floor_log2_plus_64() {
        assert_eq!(log2_bucket(1.0), 64);
        assert_eq!(log2_bucket(1.5), 64);
        assert_eq!(log2_bucket(2.0), 65);
        assert_eq!(log2_bucket(0.5), 63);
        // Millisecond-scale latencies: 1e-3 is in [2^-10, 2^-9).
        assert_eq!(log2_bucket(1e-3), 54);
        assert_eq!(log2_bucket(0.0), 0);
        assert_eq!(log2_bucket(-1.0), 0);
        assert_eq!(log2_bucket(f64::NAN), 0);
        assert_eq!(log2_bucket(f64::INFINITY), 0);
        assert_eq!(log2_bucket(f64::MAX), 127);
    }

    #[test]
    fn discard_from_epoch_respects_slot_zero() {
        let mut r = MetricsRegistry::new();
        r.add(MetricId::SelectorCps, labels(&[0, 1]), 1);
        r.add(MetricId::SelectorCps, labels(&[3, 1]), 1);
        r.set(MetricId::PhaseCommS, labels(&[2]), 0.5);
        r.discard_from_epoch(2);
        let epochs: Vec<u32> = r.iter().map(|(_, l, _)| l[0]).collect();
        assert_eq!(epochs, vec![0]);
    }
}
