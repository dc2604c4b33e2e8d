//! One event stream and one store per counter.
//!
//! The four observability sinks — the trace ring, [`KernelStats`], the
//! metrics registry and the profiler — travel as one borrowed [`Sinks`]
//! handle (see [`crate::kernel::KernelState::manager`]). The Hardware
//! Task Manager holds none of them; every method that observes takes the
//! handle.
//!
//! A VM kill, a PRR quarantine or an escalation rung is a [`TraceEvent`]
//! handed to `Sinks::note`. One `match` on the event kind derives
//! everything else from it: the [`KernelStats`] counter it bumps and — for
//! the terminal kinds — the post-mortem it dumps. The event itself lands
//! in the kernel's one trace ring, whose newest events are the flight
//! recorder a dump reads, so the counters, the trace and the dump can no
//! longer drift apart. A hot-path event with no trace record of its own (a
//! hypercall, a vIRQ, a Busy answer) bumps its field where it happens.
//! Table III's manager phases go through `Sinks::mgr_phase`.
//!
//! Every counter lives in one place: a [`KernelStats`] or `PdStats` field,
//! the block cache's statistics, the PL or a latency histogram. The
//! metrics registry keeps only what nobody else has (the latency
//! histograms, PCAP bytes and stalls, AXI traffic); [`snapshot`] adds a
//! view of everything else when a snapshot is taken.

use mnv_arm::machine::Machine;
use mnv_arm::PmuInputs;
use mnv_fpga::pl::Pl;
use mnv_fpga::prr::{regs, status};
use mnv_hal::{Cycles, VmId};
use mnv_metrics::{Entry, Label, Registry, Snapshot};
use mnv_profile::{Profiler, SampleCtx};
use mnv_trace::event::iface_name;
use mnv_trace::{MgrPhase, TraceEvent, Tracer};
use std::collections::BTreeMap;

use crate::hwmgr::tables::ReqTag;
use crate::kobj::pd::Pd;
use crate::postmortem;
use crate::slo::FAMILIES;
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

impl Sinks<'_> {
    /// [`Sinks::note`] a terminal event and dump its post-mortem, whose
    /// context is `m`, `pds` and the implicated `vm`.
    pub(crate) fn note_dump(
        &mut self,
        m: &mut Machine,
        pds: &BTreeMap<VmId, Pd>,
        vm: Option<VmId>,
        ev: TraceEvent,
    ) {
        if let Some(reason) = self.note(m.now(), ev) {
            self.dump(m, pds, vm, reason);
        }
    }

    /// Record lifecycle event `ev` at `now` — the one `match`: trace it,
    /// bump its [`KernelStats`] counter and return its post-mortem reason
    /// when the kind is terminal (which [`Sinks::note_dump`] dumps). Other
    /// event kinds are traced and nothing else.
    pub(crate) fn note(&mut self, now: Cycles, ev: TraceEvent) -> Option<&'static str> {
        use TraceEvent as E;
        self.tracer.emit(now, ev);
        let s = &mut *self.stats;
        let h = &mut s.hwmgr;
        let (counter, dump_reason) = match ev {
            E::VmKilled { .. } => (&mut s.vms_killed, Some("vm-killed")),
            E::VmRestart { .. } => (&mut s.vm_restarts, None),
            E::PrrQuarantine { .. } => (&mut h.quarantines, Some("prr-quarantine")),
            E::PrrScrub { pass: true, .. } => (&mut h.scrubs, None),
            E::PrrScrub { pass: false, .. } => (&mut h.scrub_fails, None),
            E::PrrReinstate { .. } => (&mut h.reinstates, None),
            E::PrrRetire { .. } => (&mut h.prrs_retired, None),
            E::Repromote { .. } => (&mut h.repromotions, None),
            E::HwTaskEscalate { rung: 1, .. } => (&mut h.ladder_retries, None),
            E::HwTaskEscalate { rung: 2, .. } => (&mut h.ladder_relocations, None),
            E::HwTaskEscalate { rung: 3, .. } => (&mut h.ladder_fallbacks, None),
            E::HwTaskEscalate { .. } => (&mut h.ladder_errors, None),
            E::SwFallback { .. } => (&mut h.sw_fallbacks, None),
            E::PcapRetry { .. } => (&mut h.pcap_retries, None),
            E::SloBurn { iface, .. } => (&mut s.slo_burns[iface as usize], None),
            _ => return None,
        };
        *counter += 1;
        dump_reason
    }

    /// Write a post-mortem from the tail of the trace ring — only while a
    /// profiler is live, so an unprofiled run never builds a context.
    pub(crate) fn dump(
        &self,
        m: &mut Machine,
        pds: &BTreeMap<VmId, Pd>,
        vm: Option<VmId>,
        reason: &'static str,
    ) {
        if self.profiler.is_enabled() {
            // The context's metrics read PRR busy time, which moves with
            // device time.
            m.settle_devices();
            let context = postmortem::context(m, pds, vm, self.stats, self.metrics);
            self.profiler
                .trigger_dump(reason, m.now(), self.tracer, context);
        }
    }

    /// Close Table III phase `phase` of a manager invocation by `vm` that
    /// ran from `from` to `to`: its accumulator, its latency histogram
    /// (with `exemplar`), its end event and the next phase's start event.
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
        let (acc, latency, next) = match phase {
            P::Entry => (&mut h.entry, "mgr_entry_latency", Some(P::Exec)),
            P::Exec => (&mut h.exec, "mgr_exec_latency", Some(P::Exit)),
            P::Exit => (&mut h.exit, "mgr_exit_latency", None),
        };
        let dt = (to - from).raw();
        acc.push(Cycles::new(dt));
        let label = Label::Vm(vm.0 as u8);
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

/// A metrics snapshot: `registry`'s own series plus a view of every
/// counter the kernel (`stats`, the PDs), the block cache and the PL
/// keep, under the series names and labels of the registry's text and
/// JSON exports. An event counter shows once it is non-zero; a gauge, and
/// the PMU series of a VM (or the host) that has run, always show. Empty
/// while `registry` is disabled. The counters run from boot, which is
/// where [`crate::Kernel::enable_metrics`] must be called.
pub fn snapshot(
    m: &Machine,
    pds: &BTreeMap<VmId, Pd>,
    stats: &KernelStats,
    registry: &Registry,
) -> Snapshot {
    let mut snap = registry.snapshot();
    if !registry.is_enabled() {
        return snap;
    }
    const M: Label = Label::Machine;
    let (c, g) = (Entry::counter, Entry::gauge);
    // The first switch-in closes the first host epoch: from then on the
    // host PMU, block-cache and PRR-status series exist.
    let ran = stats.vm_switches > 0;
    let pl = m.peripheral::<Pl>().expect("PL attached");
    let h = stats.hwmgr_lifetime();
    // Event counters: shown once non-zero.
    let mut events = vec![
        c("vms_killed", M, stats.vms_killed),
        c("crash_loop_kills", M, stats.crash_loop_kills),
        c("liveness_kills", M, stats.liveness_kills),
        c("hwmgr_reclaims", M, h.reclaims),
        c("hwmgr_busy", M, h.busy),
        c("hwmgr_reconfigs", M, h.reconfigs),
        c("quarantines", M, h.quarantines),
        c("prr_scrubs", M, h.scrubs),
        c("prr_scrub_fails", M, h.scrub_fails),
        c("prr_reinstates", M, h.reinstates),
        c("prrs_retired", M, h.prrs_retired),
        c("repromotions", M, h.repromotions),
        c("ladder_retries", M, h.ladder_retries),
        c("ladder_relocations", M, h.ladder_relocations),
        c("ladder_fallbacks", M, h.ladder_fallbacks),
        c("ladder_errors", M, h.ladder_errors),
        c("sw_fallbacks", M, h.sw_fallbacks),
        c("pcap_retries", M, h.pcap_retries),
        c("pcap_transfers", M, pl.pcap_transfers()),
    ];
    // Gauges, and the PMU series of every label that has run.
    let mut shown = vec![g("vm_count", M, pds.len() as u64)];
    for i in 0..FAMILIES {
        let label = Label::Iface(iface_name(i as u8));
        events.push(c("slo_violations", label, stats.slo_violations[i]));
        events.push(c("slo_burns", label, stats.slo_burns[i]));
    }
    for p in 0..pl.num_prrs() as u8 {
        let prr = pl.prr(p);
        events.push(c("prr_occupancy_cycles", Label::Prr(p), prr.busy_cycles));
        if ran {
            let busy = prr.regs.r[regs::STATUS] == status::BUSY;
            shown.push(g("prr_busy", Label::Prr(p), busy as u64));
        }
    }
    for (vm, s) in stats.per_vm(pds) {
        let l = Label::Vm(vm.0 as u8);
        events.extend([
            c("world_switches", l, s.activations),
            c("cpu_cycles", l, s.cpu_cycles),
            c("hypercalls", l, s.hypercalls_served()),
            c("hypercalls_denied", l, s.hypercalls_denied),
            c("virqs_injected", l, s.virqs_injected),
            c("ring_kicks", l, s.ring_kicks),
            c("ring_virqs", l, s.ring_virqs),
            c("vm_restarts", l, s.restarts),
            c("vm_repromotions", l, s.repromotions),
        ]);
        // A closed epoch always holds the switch-in's cycles.
        if s.pmu.cycles > 0 {
            shown.extend(pmu_view(l, &s.pmu));
        }
    }
    if ran {
        shown.extend(pmu_view(Label::Host, &stats.host_pmu));
        let b = &m.bcache.stats;
        shown.extend([
            g("bcache_hits", M, b.hits),
            g("bcache_misses", M, b.misses),
            g("bcache_chain_follows", M, b.chain_follows),
            g("bcache_replayed_instrs", M, b.replayed_instrs),
            g("bcache_batched_instrs", M, b.batched_instrs),
            g("bcache_evictions", M, b.evictions),
            g("bcache_superblocks", M, b.superblocks),
            g("bcache_fused_segs", M, b.fused_segs),
            g("bcache_store_invalidations", M, b.store_invalidations),
            g("bcache_maint_invalidations", M, b.maint_invalidations),
        ]);
    }
    // The manager's per-VM phase cycles and invocations are its latency
    // histograms' sums and counts.
    for l in &snap.hists {
        let (name, value) = match l.name {
            "mgr_entry_latency" => ("hwmgr_entry_cycles", l.sum),
            "mgr_exec_latency" => ("hwmgr_exec_cycles", l.sum),
            "mgr_exit_latency" => ("hwmgr_exit_cycles", l.sum),
            "mgr_total_latency" => ("hwmgr_invocations", l.count),
            _ => continue,
        };
        events.push(c(name, l.label, value));
    }
    events.retain(|e| e.value > 0);
    snap.extend(shown.into_iter().chain(events));
    snap
}

/// The PMU series of label `l`, whose epochs summed to `d`.
fn pmu_view(l: Label, d: &PmuInputs) -> [Entry; 9] {
    [
        Entry::counter("pmu_cycles", l, d.cycles),
        Entry::counter("instr_retired", l, d.instr_retired),
        Entry::counter("icache_access", l, d.l1i_access),
        Entry::counter("icache_refill", l, d.l1i_refill),
        Entry::counter("dcache_access", l, d.l1d_access),
        Entry::counter("dcache_refill", l, d.l1d_refill),
        Entry::counter("tlb_refill", l, d.tlb_refill),
        Entry::counter("pt_walks", l, d.pt_walks),
        Entry::counter("exc_taken", l, d.exc_taken),
    ]
}
