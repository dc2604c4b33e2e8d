//! Fixed-capacity wrap-around event ring.
//!
//! The ring is allocated once (at `Tracer::enabled`) and never grows:
//! recording an event into a full ring overwrites the oldest entry. That
//! bounds the memory cost of always-on tracing and keeps the hot-path cost
//! to two stores and an index increment.

use crate::event::TraceEvent;
use mnv_hal::Cycles;

/// A bounded ring of cycle-timestamped [`TraceEvent`]s.
pub struct TraceRing {
    buf: Vec<(Cycles, TraceEvent)>,
    cap: usize,
    /// Index of the next write (== oldest entry once wrapped).
    head: usize,
    /// Total events ever recorded, including overwritten ones.
    total: u64,
}

impl TraceRing {
    /// A ring retaining the most recent `cap` events (`cap` >= 1).
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        TraceRing {
            buf: Vec::with_capacity(cap),
            cap,
            head: 0,
            total: 0,
        }
    }

    /// Record an event at time `now`.
    #[inline]
    pub fn push(&mut self, now: Cycles, ev: TraceEvent) {
        if self.buf.len() < self.cap {
            self.buf.push((now, ev));
        } else {
            self.buf[self.head] = (now, ev);
        }
        self.head = (self.head + 1) % self.cap;
        self.total += 1;
    }

    /// Number of retained events.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Total events ever recorded (including those overwritten).
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Events dropped by wraparound.
    pub fn dropped(&self) -> u64 {
        self.total - self.buf.len() as u64
    }

    /// Iterate the retained events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &(Cycles, TraceEvent)> {
        let (newer, older) = if self.buf.len() < self.cap {
            (&self.buf[..], &self.buf[..0])
        } else {
            // Once wrapped, `head` points at the oldest entry.
            let (a, b) = self.buf.split_at(self.head);
            (b, a)
        };
        newer.iter().chain(older.iter())
    }

    /// Copy the retained events oldest-first.
    pub fn snapshot(&self) -> Vec<(Cycles, TraceEvent)> {
        self.iter().copied().collect()
    }

    /// Copy the newest `n` retained events (all of them when fewer are
    /// retained), oldest-first — the flight recorder's view of the ring.
    pub fn tail(&self, n: usize) -> Vec<(Cycles, TraceEvent)> {
        let skip = self.buf.len().saturating_sub(n);
        self.iter().skip(skip).copied().collect()
    }

    /// Drop all retained events (totals are kept).
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent as E;

    fn ev(n: u16) -> E {
        E::SchedPick { vm: n }
    }

    #[test]
    fn fills_then_wraps_keeping_newest() {
        let mut r = TraceRing::new(4);
        for i in 0..6u16 {
            r.push(Cycles::new(i as u64 * 10), ev(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.total(), 6);
        assert_eq!(r.dropped(), 2);
        let got: Vec<u64> = r.iter().map(|(t, _)| t.raw()).collect();
        // Oldest two (t=0,10) evicted; order is oldest-first.
        assert_eq!(got, vec![20, 30, 40, 50]);
        assert_eq!(r.snapshot()[0].1, ev(2));
        assert_eq!(r.snapshot()[3].1, ev(5));
    }

    #[test]
    fn exact_capacity_boundary() {
        let mut r = TraceRing::new(3);
        for i in 0..3u16 {
            r.push(Cycles::new(i as u64), ev(i));
        }
        let got: Vec<u64> = r.iter().map(|(t, _)| t.raw()).collect();
        assert_eq!(got, vec![0, 1, 2]);
        r.push(Cycles::new(3), ev(3));
        let got: Vec<u64> = r.iter().map(|(t, _)| t.raw()).collect();
        assert_eq!(got, vec![1, 2, 3]);
    }

    fn tail_times(r: &TraceRing, n: usize) -> Vec<u64> {
        r.tail(n).iter().map(|(t, _)| t.raw()).collect()
    }

    #[test]
    fn tail_of_unwrapped_ring() {
        let mut r = TraceRing::new(8);
        for i in 0..5u16 {
            r.push(Cycles::new(i as u64), ev(i));
        }
        assert_eq!(tail_times(&r, 3), vec![2, 3, 4]);
        assert_eq!(tail_times(&r, 5), vec![0, 1, 2, 3, 4]);
        assert_eq!(tail_times(&r, 100), vec![0, 1, 2, 3, 4], "n past len");
        assert!(r.tail(0).is_empty());
    }

    #[test]
    fn tail_of_exactly_full_ring() {
        let mut r = TraceRing::new(4);
        for i in 0..4u16 {
            r.push(Cycles::new(i as u64), ev(i));
        }
        assert_eq!(tail_times(&r, 2), vec![2, 3]);
        assert_eq!(tail_times(&r, 4), vec![0, 1, 2, 3]);
        assert_eq!(r.tail(4), r.snapshot());
    }

    #[test]
    fn tail_of_wrapped_ring_crosses_the_seam() {
        let mut r = TraceRing::new(4);
        for i in 0..7u16 {
            r.push(Cycles::new(i as u64), ev(i));
        }
        // Retained: t=3..=6, stored as [4, 5, 6, 3] with head at 3.
        assert_eq!(tail_times(&r, 3), vec![4, 5, 6]);
        assert_eq!(tail_times(&r, 4), vec![3, 4, 5, 6]);
        assert_eq!(tail_times(&r, 9), vec![3, 4, 5, 6]);
        assert_eq!(r.tail(1)[0].1, ev(6));
    }

    #[test]
    fn clear_keeps_total() {
        let mut r = TraceRing::new(2);
        r.push(Cycles::ZERO, ev(0));
        r.clear();
        assert!(r.is_empty());
        assert_eq!(r.total(), 1);
    }
}
