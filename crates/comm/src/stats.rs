//! Per-epoch traffic summaries.
//!
//! Every experiment in the paper reasons about bytes on the wire: Table II's
//! communication column, the `32/B` compression factor, and the epoch-time
//! speedups of Table IV. [`TrafficStats`] is the ledger those numbers are
//! read from. Besides the per-channel totals it carries a [`LinkMatrix`] —
//! the per-`(src, dst)` byte breakdown the telemetry layer exports as the
//! link traffic matrix — and counters for the fault events (drops and
//! corruptions) that produced the `retry_bytes`.

/// Which logical channel a transfer belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Channel {
    /// Embedding messages of the forward pass (`H` matrices).
    Forward,
    /// Embedding-gradient messages of the backward pass (`G` matrices).
    Backward,
    /// Parameter pulls/pushes between workers and the shard owners.
    Parameter,
    /// Requests: serving requests and the vertex-id lists of sampled
    /// mini-batches. Parameter pulls and vertex messages are sent
    /// unrequested; Selector arrays and proportions travel inside the
    /// forward messages they describe.
    Control,
    /// Wasted transmissions under fault injection: dropped or corrupted
    /// attempts.
    Retry,
}

/// Dense per-`(src, dst)` byte matrix, row-major, grown on demand to the
/// highest node index it has seen. Node `w` is worker `w`, which also
/// hosts parameter shard `w`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct LinkMatrix {
    nodes: usize,
    bytes: Vec<u64>,
}

impl LinkMatrix {
    /// An empty matrix (grows when links are recorded).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of nodes the matrix currently spans.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// True when no link has been recorded.
    pub fn is_empty(&self) -> bool {
        self.bytes.iter().all(|&b| b == 0)
    }

    fn grow_to(&mut self, nodes: usize) {
        if nodes <= self.nodes {
            return;
        }
        let mut grown = vec![0; nodes * nodes];
        for from in 0..self.nodes {
            for to in 0..self.nodes {
                grown[from * nodes + to] = self.bytes[from * self.nodes + to];
            }
        }
        self.nodes = nodes;
        self.bytes = grown;
    }

    /// Charges `bytes` to the `from -> to` link.
    pub fn record(&mut self, from: usize, to: usize, bytes: u64) {
        self.grow_to(from.max(to) + 1);
        self.bytes[from * self.nodes + to] += bytes;
    }

    /// Bytes recorded on the `from -> to` link (zero when out of range).
    pub fn get(&self, from: usize, to: usize) -> u64 {
        if from < self.nodes && to < self.nodes {
            self.bytes[from * self.nodes + to]
        } else {
            0
        }
    }

    /// Adds another matrix into this one, growing as needed.
    pub fn merge(&mut self, other: &LinkMatrix) {
        self.grow_to(other.nodes);
        for from in 0..other.nodes {
            for to in 0..other.nodes {
                self.bytes[from * self.nodes + to] += other.bytes[from * other.nodes + to];
            }
        }
    }

    /// Iterates non-zero links in ascending `(from, to)` order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        let n = self.nodes;
        self.bytes.iter().enumerate().filter(|(_, &b)| b > 0).map(move |(i, &b)| (i / n, i % n, b))
    }
}

/// Byte and message counters, split per channel, plus the per-link matrix
/// and fault-event counts.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Forward-pass embedding bytes.
    pub fp_bytes: u64,
    /// Backward-pass gradient bytes.
    pub bp_bytes: u64,
    /// Parameter pull/push bytes.
    pub param_bytes: u64,
    /// Request bytes ([`Channel::Control`]).
    pub control_bytes: u64,
    /// Bytes wasted on failed transmissions (fault injection).
    pub retry_bytes: u64,
    /// Total number of messages.
    pub messages: u64,
    /// Per-`(src, dst)` byte breakdown (includes wasted bytes).
    pub links: LinkMatrix,
    /// Messages lost in transit (fault injection).
    pub dropped_msgs: u64,
    /// Messages that arrived but failed their checksum (fault injection).
    pub corrupted_msgs: u64,
}

impl TrafficStats {
    /// Records one message of `bytes` on `channel`.
    pub fn record(&mut self, channel: Channel, bytes: u64) {
        match channel {
            Channel::Forward => self.fp_bytes += bytes,
            Channel::Backward => self.bp_bytes += bytes,
            Channel::Parameter => self.param_bytes += bytes,
            Channel::Control => self.control_bytes += bytes,
            Channel::Retry => self.retry_bytes += bytes,
        }
        self.messages += 1;
    }

    /// Total bytes across all channels.
    pub fn total_bytes(&self) -> u64 {
        self.fp_bytes + self.bp_bytes + self.param_bytes + self.control_bytes + self.retry_bytes
    }

    /// Adds another ledger into this one.
    pub fn merge(&mut self, other: &TrafficStats) {
        self.fp_bytes += other.fp_bytes;
        self.bp_bytes += other.bp_bytes;
        self.param_bytes += other.param_bytes;
        self.control_bytes += other.control_bytes;
        self.retry_bytes += other.retry_bytes;
        self.messages += other.messages;
        self.links.merge(&other.links);
        self.dropped_msgs += other.dropped_msgs;
        self.corrupted_msgs += other.corrupted_msgs;
    }

    /// Resets all counters to zero, returning the previous values.
    pub fn take(&mut self) -> TrafficStats {
        std::mem::take(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_routes_to_channel() {
        let mut s = TrafficStats::default();
        s.record(Channel::Forward, 100);
        s.record(Channel::Backward, 50);
        s.record(Channel::Parameter, 25);
        s.record(Channel::Control, 5);
        assert_eq!(s.fp_bytes, 100);
        assert_eq!(s.bp_bytes, 50);
        assert_eq!(s.param_bytes, 25);
        assert_eq!(s.control_bytes, 5);
        assert_eq!(s.messages, 4);
        assert_eq!(s.total_bytes(), 180);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = TrafficStats::default();
        a.record(Channel::Forward, 10);
        let mut b = TrafficStats::default();
        b.record(Channel::Forward, 32);
        b.record(Channel::Backward, 8);
        a.merge(&b);
        assert_eq!(a.fp_bytes, 42);
        assert_eq!(a.messages, 3);
    }

    #[test]
    fn retry_bytes_count_toward_total() {
        let mut s = TrafficStats::default();
        s.record(Channel::Forward, 100);
        s.record(Channel::Retry, 40);
        assert_eq!(s.retry_bytes, 40);
        assert_eq!(s.total_bytes(), 140);
        let mut merged = TrafficStats::default();
        merged.merge(&s);
        assert_eq!(merged.retry_bytes, 40);
    }

    #[test]
    fn take_resets() {
        let mut s = TrafficStats::default();
        s.record(Channel::Control, 7);
        s.links.record(0, 1, 7);
        let old = s.take();
        assert_eq!(old.control_bytes, 7);
        assert_eq!(old.links.get(0, 1), 7);
        assert_eq!(s.total_bytes(), 0);
        assert_eq!(s.messages, 0);
        assert!(s.links.is_empty());
    }

    #[test]
    fn link_matrix_grows_on_demand() {
        let mut m = LinkMatrix::new();
        m.record(0, 1, 10);
        assert_eq!(m.nodes(), 2);
        m.record(3, 0, 5);
        assert_eq!(m.nodes(), 4);
        assert_eq!(m.get(0, 1), 10, "growth must preserve prior counts");
        assert_eq!(m.get(3, 0), 5);
        assert_eq!(m.get(9, 9), 0);
    }

    #[test]
    fn link_matrix_merges_mismatched_sizes() {
        let mut a = LinkMatrix::new();
        a.record(0, 1, 10);
        let mut b = LinkMatrix::new();
        b.record(0, 1, 5);
        b.record(2, 0, 3);
        a.merge(&b);
        assert_eq!(a.get(0, 1), 15);
        assert_eq!(a.get(2, 0), 3);
        assert_eq!(a.nodes(), 3);
    }

    #[test]
    fn link_matrix_iterates_in_ascending_order() {
        let mut m = LinkMatrix::new();
        m.record(2, 0, 3);
        m.record(0, 1, 1);
        m.record(1, 2, 2);
        let links: Vec<_> = m.iter_nonzero().collect();
        assert_eq!(links, vec![(0, 1, 1), (1, 2, 2), (2, 0, 3)]);
    }

    #[test]
    fn fault_counters_merge() {
        let mut a = TrafficStats { dropped_msgs: 1, corrupted_msgs: 2, ..TrafficStats::default() };
        let b = TrafficStats { dropped_msgs: 3, corrupted_msgs: 4, ..TrafficStats::default() };
        a.merge(&b);
        assert_eq!(a.dropped_msgs, 4);
        assert_eq!(a.corrupted_msgs, 6);
    }
}
