//! # mnv-trace — cycle-timestamped tracing for the Mini-NOVA reproduction
//!
//! A lightweight observability layer for the simulated kernel:
//!
//! * a fixed-capacity wrap-around [`TraceRing`] of typed, `Copy`,
//!   cycle-timestamped [`TraceEvent`]s;
//! * log-bucketed latency histograms ([`Hist`]) with p50/p90/p99/max;
//! * exporters: Chrome trace-event JSON loadable in Perfetto
//!   ([`chrome::export`]) and a plain-text top-N summary
//!   ([`summary::summarize`]).
//!
//! ## Switched on at run time, not by a cargo feature
//!
//! A disabled [`Tracer`] (the default) holds `None`: [`Tracer::emit`] is
//! one inlined branch — no allocation, no formatting, no event
//! construction side effects reach the ring. [`Tracer::enabled`] gives it
//! a ring. Call sites never need a `cfg`.
//!
//! The simulator is single-threaded, so the shared ring is an
//! `Rc<RefCell<_>>` — cloning a [`Tracer`] shares the same ring, which is
//! how the kernel, the CPU simulator and the FPGA model all append to one
//! merged timeline.

#![warn(missing_docs)]

pub mod acc;
pub mod chrome;
pub mod event;
pub mod hist;
pub mod json;
pub mod ring;
pub mod span;
pub mod summary;
pub mod waterfall;

pub use acc::Acc;
pub use event::{MgrPhase, TraceEvent, TrapKind};
pub use hist::Hist;
pub use ring::TraceRing;
pub use span::{PairedTrace, Span, Track};
pub use waterfall::ReqWaterfall;

use mnv_hal::Cycles;
use std::cell::RefCell;
use std::rc::Rc;

/// A handle to a (possibly shared, possibly absent) trace ring.
///
/// Cloning shares the underlying ring. The disabled handle is free to copy
/// around and free to `emit` into.
#[derive(Clone, Default)]
pub struct Tracer {
    sink: Option<Rc<RefCell<TraceRing>>>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Self::default()
    }

    /// A tracer recording into a fresh ring retaining `cap` events.
    pub fn enabled(cap: usize) -> Self {
        Tracer {
            sink: Some(Rc::new(RefCell::new(TraceRing::new(cap)))),
        }
    }

    /// True when events are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Record `ev` at time `now`. A no-op (one branch) when disabled.
    #[inline]
    pub fn emit(&self, now: Cycles, ev: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().push(now, ev);
        }
    }

    /// Events lost to ring wraparound (0 when disabled): everything ever
    /// emitted beyond what the ring still retains.
    pub fn dropped(&self) -> u64 {
        if let Some(sink) = &self.sink {
            return sink.borrow().dropped();
        }
        0
    }

    /// Number of retained events (0 when disabled).
    pub fn len(&self) -> usize {
        self.sink.as_ref().map_or(0, |s| s.borrow().len())
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded, including ones lost to wraparound
    /// (0 when disabled).
    pub fn total(&self) -> u64 {
        self.sink.as_ref().map_or(0, |s| s.borrow().total())
    }

    /// Copy the retained events oldest-first (empty when disabled).
    pub fn snapshot(&self) -> Vec<(Cycles, TraceEvent)> {
        self.sink
            .as_ref()
            .map_or_else(Vec::new, |s| s.borrow().snapshot())
    }

    /// Copy the newest `n` retained events oldest-first (empty when
    /// disabled); see [`TraceRing::tail`].
    pub fn tail(&self, n: usize) -> Vec<(Cycles, TraceEvent)> {
        self.sink
            .as_ref()
            .map_or_else(Vec::new, |s| s.borrow().tail(n))
    }

    /// Drop all retained events.
    pub fn clear(&self) {
        if let Some(sink) = &self.sink {
            sink.borrow_mut().clear();
        }
    }

    /// Export the retained events as Chrome trace-event JSON.
    pub fn export_chrome(&self) -> String {
        chrome::export_with_drops(&self.snapshot(), self.dropped())
    }

    /// Render a top-`n` text summary of the retained events.
    pub fn summary(&self, n: usize) -> String {
        summary::summarize_with_drops(&self.snapshot(), n, self.dropped())
    }
}

impl core::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.is_enabled())
            .field("events", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::disabled();
        for i in 0..100u64 {
            t.emit(Cycles::new(i), TraceEvent::TlbFlush);
        }
        assert!(!t.is_enabled());
        assert!(t.is_empty());
        assert_eq!(t.total(), 0);
        assert!(t.snapshot().is_empty());
    }

    #[test]
    fn clones_share_one_ring() {
        let a = Tracer::enabled(8);
        let b = a.clone();
        a.emit(Cycles::new(1), TraceEvent::TlbFlush);
        b.emit(Cycles::new(2), TraceEvent::TrapExit);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 2);
        let snap = a.snapshot();
        assert_eq!(snap[0].1, TraceEvent::TlbFlush);
        assert_eq!(snap[1].1, TraceEvent::TrapExit);
    }

    #[test]
    fn span_pairing_survives_wraparound() {
        // Ring of 6: push 3 full trap spans (2 events each) plus a stray
        // leading pair that wraps out, leaving an orphan TrapExit first.
        let t = Tracer::enabled(6);
        t.emit(
            Cycles::new(0),
            TraceEvent::TrapEnter {
                kind: TrapKind::Irq,
            },
        );
        t.emit(Cycles::new(5), TraceEvent::TrapExit);
        for i in 0..3u64 {
            let t0 = 100 + i * 100;
            t.emit(
                Cycles::new(t0),
                TraceEvent::TrapEnter {
                    kind: TrapKind::Svc,
                },
            );
            t.emit(Cycles::new(t0 + 50), TraceEvent::TrapExit);
        }
        assert_eq!(t.len(), 6);
        assert_eq!(t.total(), 8);
        let paired = span::pair(&t.snapshot());
        // The wrapped-out pair is gone; three clean 50-cycle spans remain.
        assert_eq!(paired.spans.len(), 3);
        assert!(paired.spans.iter().all(|s| s.cycles() == 50));
    }

    #[test]
    fn dropped_events_surface_in_both_exporters() {
        let t = Tracer::enabled(2);
        for i in 0..5u64 {
            t.emit(Cycles::new(i * 100), TraceEvent::TlbFlush);
        }
        assert_eq!(t.dropped(), 3);
        let text = t.summary(10);
        assert!(
            text.contains("3 earlier events lost to ring wraparound"),
            "{text}"
        );
        let doc = json::parse(&t.export_chrome()).expect("valid JSON");
        let meta = doc.get("otherData").expect("metadata object");
        assert_eq!(
            meta.get("events_dropped").and_then(json::Json::as_num),
            Some(3.0)
        );
        // A ring that never wrapped reports a clean capture.
        let clean = Tracer::enabled(8);
        clean.emit(Cycles::new(0), TraceEvent::TlbFlush);
        assert_eq!(clean.dropped(), 0);
        assert!(!clean.summary(10).contains("wraparound"));
    }

    #[test]
    fn chrome_export_round_trips_through_parser() {
        let t = Tracer::enabled(32);
        t.emit(Cycles::new(0), TraceEvent::VmSwitch { from: 0, to: 1 });
        t.emit(Cycles::new(660), TraceEvent::Hypercall { nr: 0 });
        t.emit(Cycles::new(1320), TraceEvent::VmSwitch { from: 1, to: 0 });
        let doc = json::parse(&t.export_chrome()).expect("valid JSON");
        assert!(doc.get("traceEvents").unwrap().as_arr().unwrap().len() >= 4);
    }
}
