//! One event stream: every kernel lifecycle event is recorded once, and
//! every counter the registry mirrors is named once.
//!
//! The four observability sinks — the trace ring, [`KernelStats`], the
//! metrics registry and the profiler — travel as one borrowed [`Sinks`]
//! handle (see [`crate::kernel::KernelState::manager`]). The Hardware
//! Task Manager holds none of them; every method that observes takes the
//! handle.
//!
//! A VM kill, a PRR quarantine or an escalation rung is a [`TraceEvent`]
//! handed to `Sinks::note`. One `match` on the event kind derives
//! everything else from it: the [`KernelStats`] counter it bumps, the
//! registry series it mirrors into and — for the terminal kinds — the
//! post-mortem it dumps. The event itself lands in the kernel's one trace
//! ring, whose newest events are the flight recorder a dump reads, so the
//! counters, the trace and the dump can no longer drift apart.
//!
//! A hot-path event with no trace record of its own (a hypercall, a vIRQ,
//! a Busy answer) is a [`Counter`] handed to `Sinks::count`;
//! [`Counter::slot`] is the one `match` naming each pair's field, series
//! and label. Table III's manager phases go through `Sinks::mgr_phase`.

use mnv_arm::machine::Machine;
use mnv_hal::{Cycles, VmId};
use mnv_metrics::{Label, Registry};
use mnv_profile::{Profiler, SampleCtx};
use mnv_trace::event::iface_name;
use mnv_trace::{MgrPhase, TraceEvent, Tracer};
use std::collections::BTreeMap;

use crate::hwmgr::tables::ReqTag;
use crate::kobj::pd::Pd;
use crate::postmortem;
use crate::stats::KernelStats;

/// The kernel's four observability sinks, borrowed together.
pub struct Sinks<'a> {
    /// The trace ring (its tail is the flight recorder).
    pub(crate) tracer: &'a Tracer,
    /// Kernel counters and the Table III accumulators.
    pub(crate) stats: &'a mut KernelStats,
    /// The metrics registry.
    pub(crate) metrics: &'a Registry,
    /// The sampling profiler, which also writes post-mortem dumps.
    pub(crate) profiler: &'a Profiler,
}

/// A hot-path event counted in [`KernelStats`] and mirrored into the
/// registry. Each variant carries what its registry label needs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Counter {
    /// A hypercall dispatched, or an SVC number that decodes to none.
    Hypercall(VmId),
    /// A hypercall refused by the portal check.
    HypercallDenied(VmId),
    /// A vIRQ injected into the running VM.
    VirqInjected(VmId),
    /// A VM killed for good after exhausting its crash-loop budget.
    CrashLoopKill,
    /// A VM killed by the liveness watchdog.
    LivenessKill,
    /// A completed request over its interface family's latency objective.
    SloViolation(u8),
    /// A hardware task reclaimed from its previous client.
    Reclaim,
    /// A hardware-task request answered Busy.
    Busy,
    /// A client PCAP reconfiguration launched.
    Reconfig,
    /// A `RingKick` drain.
    RingKick(VmId),
    /// A coalesced ring-completion vIRQ.
    RingVirq(VmId),
}

impl Counter {
    /// Every counter (payloads are placeholders).
    pub const ALL: [Counter; 11] = [
        Counter::Hypercall(VmId(0)),
        Counter::HypercallDenied(VmId(0)),
        Counter::VirqInjected(VmId(0)),
        Counter::CrashLoopKill,
        Counter::LivenessKill,
        Counter::SloViolation(0),
        Counter::Reclaim,
        Counter::Busy,
        Counter::Reconfig,
        Counter::RingKick(VmId(0)),
        Counter::RingVirq(VmId(0)),
    ];

    /// The pair behind the counter: its [`KernelStats`] field, its
    /// registry series and its label.
    #[inline]
    pub fn slot(self, s: &mut KernelStats) -> (&mut u64, &'static str, Label) {
        use Counter as C;
        const M: Label = Label::Machine;
        let vm = |v: VmId| Label::Vm(v.0 as u8);
        let h = &mut s.hwmgr;
        match self {
            C::Hypercall(v) => (&mut s.hypercalls_total, "hypercalls", vm(v)),
            C::HypercallDenied(v) => (&mut s.hypercalls_denied, "hypercalls_denied", vm(v)),
            C::VirqInjected(v) => (&mut s.virqs_injected, "virqs_injected", vm(v)),
            C::CrashLoopKill => (&mut s.crash_loop_kills, "crash_loop_kills", M),
            C::LivenessKill => (&mut s.liveness_kills, "liveness_kills", M),
            C::SloViolation(i) => (
                &mut s.slo_violations,
                "slo_violations",
                Label::Iface(iface_name(i)),
            ),
            C::Reclaim => (&mut h.reclaims, "hwmgr_reclaims", M),
            C::Busy => (&mut h.busy, "hwmgr_busy", M),
            C::Reconfig => (&mut h.reconfigs, "hwmgr_reconfigs", M),
            C::RingKick(v) => (&mut h.ring_kicks, "ring_kicks", vm(v)),
            C::RingVirq(v) => (&mut h.ring_virqs, "ring_virqs", vm(v)),
        }
    }
}

impl Sinks<'_> {
    /// Bump `c` in [`KernelStats`] and in the registry.
    #[inline]
    pub(crate) fn count(&mut self, c: Counter) {
        let (n, name, label) = c.slot(self.stats);
        *n += 1;
        self.metrics.inc(name, label);
    }

    /// Record lifecycle event `ev` at `now`: trace it and bump its
    /// [`KernelStats`] counter and registry series. Other event kinds are
    /// traced and nothing else. For the kinds that dump a post-mortem use
    /// [`Sinks::note_dump`].
    pub(crate) fn note(&mut self, now: Cycles, ev: TraceEvent) {
        self.record(now, ev);
    }

    /// [`Sinks::note`] a terminal event and dump its post-mortem, whose
    /// context is `m`, `pds` and the implicated `vm`.
    pub(crate) fn note_dump(
        &mut self,
        m: &Machine,
        pds: &BTreeMap<VmId, Pd>,
        vm: Option<VmId>,
        ev: TraceEvent,
    ) {
        if let Some(reason) = self.record(m.now(), ev) {
            self.dump(m, pds, vm, reason);
        }
    }

    /// The one `match`: trace `ev`, bump its pair and return its dump
    /// reason when the kind is terminal.
    fn record(&mut self, now: Cycles, ev: TraceEvent) -> Option<&'static str> {
        use TraceEvent as E;
        const M: Label = Label::Machine;
        self.tracer.emit(now, ev);
        let stats = &mut *self.stats;
        let h = &mut stats.hwmgr;
        let (counter, name, label, dump_reason) = match ev {
            E::VmKilled { .. } => (&mut stats.vms_killed, "vms_killed", M, Some("vm-killed")),
            E::VmRestart { vm, .. } => (
                &mut stats.vm_restarts,
                "vm_restarts",
                Label::Vm(vm as u8),
                None,
            ),
            E::PrrQuarantine { .. } => {
                (&mut h.quarantines, "quarantines", M, Some("prr-quarantine"))
            }
            E::PrrScrub { pass: true, .. } => (&mut h.scrubs, "prr_scrubs", M, None),
            E::PrrScrub { pass: false, .. } => (&mut h.scrub_fails, "prr_scrub_fails", M, None),
            E::PrrReinstate { .. } => (&mut h.reinstates, "prr_reinstates", M, None),
            E::PrrRetire { .. } => (&mut h.prrs_retired, "prrs_retired", M, None),
            E::Repromote { vm, .. } => {
                self.metrics.inc("vm_repromotions", Label::Vm(vm as u8));
                (&mut h.repromotions, "repromotions", M, None)
            }
            E::HwTaskEscalate { rung: 1, .. } => (&mut h.ladder_retries, "ladder_retries", M, None),
            E::HwTaskEscalate { rung: 2, .. } => {
                (&mut h.ladder_relocations, "ladder_relocations", M, None)
            }
            E::HwTaskEscalate { rung: 3, .. } => {
                (&mut h.ladder_fallbacks, "ladder_fallbacks", M, None)
            }
            E::HwTaskEscalate { .. } => (&mut h.ladder_errors, "ladder_errors", M, None),
            E::SwFallback { .. } => (&mut h.sw_fallbacks, "sw_fallbacks", M, None),
            E::PcapRetry { .. } => (&mut h.pcap_retries, "pcap_retries", M, None),
            E::SloBurn { iface, .. } => (
                &mut stats.slo_burns,
                "slo_burns",
                Label::Iface(iface_name(iface)),
                None,
            ),
            _ => return None,
        };
        *counter += 1;
        self.metrics.inc(name, label);
        dump_reason
    }

    /// Write a post-mortem from the tail of the trace ring — only while a
    /// profiler is live, so an unprofiled run never builds a context.
    pub(crate) fn dump(
        &self,
        m: &Machine,
        pds: &BTreeMap<VmId, Pd>,
        vm: Option<VmId>,
        reason: &str,
    ) {
        if self.profiler.is_enabled() {
            let context = postmortem::context(m, pds, vm, self.metrics);
            self.profiler
                .trigger_dump(reason, m.now(), self.tracer, context);
        }
    }

    /// Close Table III phase `phase` of a manager invocation by `vm` that
    /// ran from `from` to `to`: its accumulator, its registry cycle counter
    /// and latency histogram (with `exemplar`), its end event and the next
    /// phase's start event.
    pub(crate) fn mgr_phase(
        &mut self,
        phase: MgrPhase,
        vm: VmId,
        from: Cycles,
        to: Cycles,
        exemplar: u32,
    ) {
        use MgrPhase as P;
        let h = &mut self.stats.hwmgr;
        let (acc, cycles, latency, next) = match phase {
            P::Entry => (
                &mut h.entry,
                "hwmgr_entry_cycles",
                "mgr_entry_latency",
                Some(P::Exec),
            ),
            P::Exec => (
                &mut h.exec,
                "hwmgr_exec_cycles",
                "mgr_exec_latency",
                Some(P::Exit),
            ),
            P::Exit => (&mut h.exit, "hwmgr_exit_cycles", "mgr_exit_latency", None),
        };
        let dt = (to - from).raw();
        acc.push(Cycles::new(dt));
        let label = Label::Vm(vm.0 as u8);
        self.metrics.add(cycles, label, dt);
        self.metrics.observe(latency, label, dt, exemplar);
        self.tracer
            .emit(to, TraceEvent::HwMgrPhase { phase, end: true });
        if let Some(phase) = next {
            let ev = TraceEvent::HwMgrPhase { phase, end: false };
            self.tracer.emit(to, ev);
        }
    }

    /// Mark entry into stage `stage` (1-6 of Fig. 7): samples taken until
    /// the next marker attribute to it, and the open request (if any) gets
    /// a stage stamp in its causal waterfall.
    pub(crate) fn dpr_stage(&self, now: Cycles, req: ReqTag, stage: u8) {
        self.profiler.swap_ctx(SampleCtx::DprStage(stage));
        self.req_stamp(now, req, stage);
    }

    /// Stamp one causal hop into an open request's waterfall (no-op for
    /// the absent tag). Pure observation: charges nothing.
    pub(crate) fn req_stamp(&self, now: Cycles, req: ReqTag, stage: u8) {
        if req.is_open() {
            self.tracer
                .emit(now, TraceEvent::ReqStage { req: req.id, stage });
        }
    }

    /// Stamp `stage` into an open request's waterfall and end its root
    /// span (no-op for the absent tag). Alone it closes a request that got
    /// no completion (`FAILED` or `RELEASED`): no SLO observation.
    pub(crate) fn end_req(&self, now: Cycles, req: ReqTag, vm: VmId, stage: u8) {
        if !req.is_open() {
            return;
        }
        self.tracer
            .emit(now, TraceEvent::ReqStage { req: req.id, stage });
        self.tracer.emit(
            now,
            TraceEvent::ReqSpan {
                req: req.id,
                vm: vm.0,
                end: true,
            },
        );
    }
}
