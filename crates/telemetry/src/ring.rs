//! Fixed-capacity span rings.
//!
//! Each track records into its own [`SpanRing`]: a preallocated circular
//! buffer that overwrites the oldest event when full and counts what it
//! dropped. Recording never allocates after the first `capacity` pushes
//! and never panics (the crate root denies `unwrap`, `expect` and
//! `panic!`).

use crate::span::SpanEvent;

/// Events each track's ring retains at [`crate::TelemetryLevel::Trace`].
pub const RING_CAPACITY: usize = 65_536;

/// A circular buffer of spans with drop accounting.
#[derive(Clone, Debug)]
pub struct SpanRing {
    buf: Vec<SpanEvent>,
    cap: usize,
    /// Index of the oldest retained event once the ring has wrapped.
    head: usize,
    /// Events overwritten because the ring was full.
    dropped: u64,
}

impl SpanRing {
    /// An empty ring retaining at most `capacity` events (min 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        Self { buf: Vec::new(), cap, head: 0, dropped: 0 }
    }

    /// Records one span, overwriting the oldest when full.
    pub fn push(&mut self, ev: SpanEvent) {
        if self.buf.len() < self.cap {
            self.buf.push(ev);
        } else if let Some(slot) = self.buf.get_mut(self.head) {
            *slot = ev;
            self.head = (self.head + 1) % self.cap;
            self.dropped += 1;
        }
    }

    /// Retained events, oldest first.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been recorded (or everything was removed).
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Events overwritten so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates retained events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &SpanEvent> + '_ {
        let n = self.buf.len();
        (0..n).filter_map(move |i| self.buf.get((self.head + i) % n.max(1)))
    }

    /// Drops every retained event whose `epoch` is `>= epoch` (crash
    /// rollback: the epochs after a restored checkpoint will be replayed
    /// and re-recorded). Events without an epoch (`epoch < 0`) survive.
    pub fn discard_from_epoch(&mut self, epoch: i64) {
        let kept: Vec<SpanEvent> =
            self.iter().filter(|ev| ev.epoch < 0 || ev.epoch < epoch).copied().collect();
        self.buf = kept;
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &'static str, epoch: i64) -> SpanEvent {
        let mut e = SpanEvent::new(name, "fp", 0, 0.0, 1.0);
        e.epoch = epoch;
        e
    }

    #[test]
    fn keeps_insertion_order_below_capacity() {
        let mut r = SpanRing::new(4);
        for (i, n) in ["a", "b", "c"].iter().enumerate() {
            r.push(ev(n, i as i64));
        }
        let names: Vec<&str> = r.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a", "b", "c"]);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn overwrites_oldest_when_full() {
        let mut r = SpanRing::new(2);
        r.push(ev("a", 0));
        r.push(ev("b", 1));
        r.push(ev("c", 2));
        let names: Vec<&str> = r.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["b", "c"]);
        assert_eq!(r.dropped(), 1);
    }

    #[test]
    fn discard_from_epoch_removes_replayed_spans() {
        let mut r = SpanRing::new(8);
        r.push(ev("a", 0));
        r.push(ev("b", 1));
        r.push(ev("host", -1));
        r.push(ev("c", 2));
        r.discard_from_epoch(1);
        let names: Vec<&str> = r.iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["a", "host"]);
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = SpanRing::new(0);
        r.push(ev("a", 0));
        r.push(ev("b", 1));
        assert_eq!(r.len(), 1);
        assert_eq!(r.iter().next().map(|e| e.name), Some("b"));
    }
}
