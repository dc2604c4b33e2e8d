//! SLO burn tracking for hardware-task requests.
//!
//! Each interface family (FFT / QAM / FIR) carries a latency objective: the
//! end-to-end budget a completed request is allowed to spend between its
//! hypercall mint and the completion delivery to the guest. The tracker
//! counts violations inside fixed windows of simulated time; when a
//! window's violation count reaches the burn limit, the window *burns* —
//! the kernel notes a [`mnv_trace::TraceEvent::SloBurn`] event (traced,
//! and counted in `slo_burns`), so a post-mortem can distinguish "one unlucky tail request" from "the
//! interface is systematically missing its objective" (e.g. a PCAP port
//! that keeps stalling).
//!
//! The tracker is architecture-neutral by construction: it updates on every
//! completed request whether or not tracing or metrics are enabled, charges
//! no cycles, and derives its windows from the simulated clock — so
//! enabling observability cannot change its decisions, and lockstep runs
//! agree on every counter.

use mnv_fpga::bitstream::CoreKind;
use mnv_hal::cycles::CPU_HZ;

/// Number of interface families tracked (FFT, QAM, FIR).
pub const FAMILIES: usize = 3;

/// The family index of an IP core (0 = fft, 1 = qam, 2 = fir), matching
/// `mnv_trace::event::iface_name`.
pub fn iface_of(core: CoreKind) -> u8 {
    match core {
        CoreKind::Fft { .. } => 0,
        CoreKind::Qam { .. } => 1,
        CoreKind::Fir { .. } => 2,
    }
}

/// The outcome of observing one completed request.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SloOutcome {
    /// The request exceeded its family's latency objective.
    pub violated: bool,
    /// The violation pushed the current window over the burn limit; carries
    /// the window's violation count at the moment it burned. At most one
    /// burn fires per family per window.
    pub burned: Option<u16>,
}

/// Per-family latency objectives and windowed burn-rate state.
#[derive(Clone, Debug)]
pub struct SloTracker {
    /// Latency objective per family (cycles).
    objectives: [u64; FAMILIES],
    /// Window length (cycles of simulated time).
    window: u64,
    /// Violations within one window that constitute a burn.
    burn_limit: u16,
    window_start: [u64; FAMILIES],
    window_violations: [u16; FAMILIES],
    burned_this_window: [bool; FAMILIES],
}

impl Default for SloTracker {
    /// Generous defaults: a 100 ms objective over a 1 s window with a burn
    /// limit of 4. Healthy fig9-class workloads (including full PCAP
    /// reconfigurations and cross-slice completion buffering) sit well
    /// under the objective; only pathological paths — chaos-armed PCAP
    /// stalls, escalation-ladder fallbacks — reach it.
    fn default() -> Self {
        SloTracker {
            objectives: [CPU_HZ / 10; FAMILIES],
            window: CPU_HZ,
            burn_limit: 4,
            window_start: [0; FAMILIES],
            window_violations: [0; FAMILIES],
            burned_this_window: [false; FAMILIES],
        }
    }
}

impl SloTracker {
    /// Tracker with default objectives.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override one family's latency objective (cycles). Out-of-range
    /// family indices are rejected — silently clamping them used to alias
    /// bogus families onto FIR (family 2), corrupting its statistics.
    pub fn set_objective(&mut self, iface: u8, cycles: u64) {
        debug_assert!(
            (iface as usize) < FAMILIES,
            "SLO objective for unknown interface family {iface}"
        );
        if let Some(o) = self.objectives.get_mut(iface as usize) {
            *o = cycles;
        }
    }

    /// Override the burn window (cycles) and limit (violations per window).
    pub fn set_burn_policy(&mut self, window: u64, limit: u16) {
        self.window = window.max(1);
        self.burn_limit = limit.max(1);
    }

    /// One family's latency objective (cycles); 0 for unknown families.
    pub fn objective(&self, iface: u8) -> u64 {
        debug_assert!(
            (iface as usize) < FAMILIES,
            "SLO objective query for unknown interface family {iface}"
        );
        self.objectives.get(iface as usize).copied().unwrap_or(0)
    }

    /// Observe one completed request: `latency` cycles end-to-end for
    /// family `iface`, delivered at simulated time `now`.
    pub fn observe(&mut self, iface: u8, latency: u64, now: u64) -> SloOutcome {
        debug_assert!(
            (iface as usize) < FAMILIES,
            "SLO observation for unknown interface family {iface}"
        );
        let i = iface as usize;
        if i >= FAMILIES {
            // Never alias an unknown family's latency into FIR: ignore it.
            return SloOutcome::default();
        }
        if now.saturating_sub(self.window_start[i]) >= self.window {
            // Fixed windows anchored to the first sample past the edge —
            // deterministic with respect to simulated time only.
            self.window_start[i] = now;
            self.window_violations[i] = 0;
            self.burned_this_window[i] = false;
        }
        if latency <= self.objectives[i] {
            return SloOutcome::default();
        }
        self.window_violations[i] = self.window_violations[i].saturating_add(1);
        let burned = if self.window_violations[i] >= self.burn_limit && !self.burned_this_window[i]
        {
            self.burned_this_window[i] = true;
            Some(self.window_violations[i])
        } else {
            None
        };
        SloOutcome {
            violated: true,
            burned,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iface_mapping_matches_trace_names() {
        assert_eq!(iface_of(CoreKind::Fft { log2_points: 10 }), 0);
        assert_eq!(iface_of(CoreKind::Qam { bits_per_symbol: 4 }), 1);
        assert_eq!(iface_of(CoreKind::Fir { taps: 16 }), 2);
    }

    #[test]
    fn fast_requests_never_violate() {
        let mut t = SloTracker::new();
        for i in 0..100 {
            let o = t.observe(0, 1_000, i * 10_000);
            assert_eq!(o, SloOutcome::default());
        }
    }

    #[test]
    fn burn_fires_once_per_window() {
        let mut t = SloTracker::new();
        t.set_objective(1, 1_000);
        t.set_burn_policy(1_000_000, 3);
        let mut burns = 0;
        let mut violations = 0;
        for i in 0..6u64 {
            let o = t.observe(1, 50_000, 100 + i);
            assert!(o.violated);
            violations += 1;
            if let Some(n) = o.burned {
                assert_eq!(n, 3, "burn carries the window count");
                burns += 1;
            }
        }
        assert_eq!((violations, burns), (6, 1));
        // A new window resets the burn latch.
        let o = t.observe(1, 50_000, 100 + 1_000_000);
        assert!(o.violated && o.burned.is_none());
    }

    #[test]
    fn out_of_range_family_is_rejected_not_aliased_into_fir() {
        let mut t = SloTracker::new();
        t.set_objective(2, 1_000);
        if cfg!(debug_assertions) {
            // Debug contract: an unknown family index trips the assert.
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                t.observe(3, u64::MAX, 0);
            }));
            assert!(r.is_err(), "debug_assert must reject family 3");
        } else {
            // Release contract: ignored outright. The old `.min(FAMILIES-1)`
            // clamp aliased these observations into FIR's window.
            t.set_objective(3, 1);
            assert_eq!(t.objective(3), 0);
            assert_eq!(t.objective(2), 1_000, "FIR objective untouched");
            assert_eq!(t.observe(3, u64::MAX, 0), SloOutcome::default());
            t.set_burn_policy(1_000_000, 1);
            for _ in 0..8 {
                t.observe(200, u64::MAX, 10);
            }
            assert!(
                !t.observe(2, 500, 20).violated,
                "bogus families must not burn FIR's window"
            );
        }
    }

    #[test]
    fn families_are_independent() {
        let mut t = SloTracker::new();
        t.set_objective(0, 10);
        t.set_burn_policy(1_000, 1);
        assert!(t.observe(0, 99, 5).burned.is_some());
        // Family 2 keeps the default objective — no violation.
        assert!(!t.observe(2, 99, 5).violated);
    }
}
