//! One event stream: every kernel lifecycle event is recorded once.
//!
//! A VM kill, a PRR quarantine or an escalation rung is a [`TraceEvent`]
//! handed to [`note`]. One `match` on the event kind derives everything
//! else from it: the [`KernelStats`] counter it bumps, the registry
//! series it mirrors into and — for the terminal kinds — the post-mortem
//! it dumps. The event itself lands in the kernel's one trace ring, whose
//! newest events are the flight recorder a dump reads, so the counters,
//! the trace and the dump can no longer drift apart.
//!
//! Hot-path counters with no lifecycle event (hypercalls, world
//! switches, vIRQs, manager invocations) stay direct increments.

use mnv_arm::machine::Machine;
use mnv_hal::{Cycles, VmId};
use mnv_metrics::{Label, Registry};
use mnv_profile::Profiler;
use mnv_trace::event::iface_name;
use mnv_trace::json::Json;
use mnv_trace::{TraceEvent, Tracer};

use crate::hwmgr::HwMgr;
use crate::kernel::KernelState;
use crate::stats::KernelStats;

/// Record lifecycle event `ev` at `now`: trace it, bump its
/// [`KernelStats`] counter and registry series, and dump a post-mortem
/// when its kind is terminal (`context` is only built for a dump).
/// Other event kinds are traced and nothing else.
pub(crate) fn note(
    now: Cycles,
    ev: TraceEvent,
    tracer: &Tracer,
    stats: &mut KernelStats,
    metrics: &Registry,
    profiler: &Profiler,
    context: impl FnOnce() -> Json,
) {
    use TraceEvent as E;
    const M: Label = Label::Machine;
    tracer.emit(now, ev);
    let h = &mut stats.hwmgr;
    let (counter, name, label, dump_reason) = match ev {
        E::VmKilled { .. } => (&mut stats.vms_killed, "vms_killed", M, Some("vm-killed")),
        E::VmRestart { vm, .. } => (
            &mut stats.vm_restarts,
            "vm_restarts",
            Label::Vm(vm as u8),
            None,
        ),
        E::PrrQuarantine { .. } => (&mut h.quarantines, "quarantines", M, Some("prr-quarantine")),
        E::PrrScrub { pass: true, .. } => (&mut h.scrubs, "prr_scrubs", M, None),
        E::PrrScrub { pass: false, .. } => (&mut h.scrub_fails, "prr_scrub_fails", M, None),
        E::PrrReinstate { .. } => (&mut h.reinstates, "prr_reinstates", M, None),
        E::PrrRetire { .. } => (&mut h.prrs_retired, "prrs_retired", M, None),
        E::Repromote { vm, .. } => {
            metrics.inc("vm_repromotions", Label::Vm(vm as u8));
            (&mut h.repromotions, "repromotions", M, None)
        }
        E::HwTaskEscalate { rung: 1, .. } => (&mut h.ladder_retries, "ladder_retries", M, None),
        E::HwTaskEscalate { rung: 2, .. } => {
            (&mut h.ladder_relocations, "ladder_relocations", M, None)
        }
        E::HwTaskEscalate { rung: 3, .. } => (&mut h.ladder_fallbacks, "ladder_fallbacks", M, None),
        E::HwTaskEscalate { .. } => (&mut h.ladder_errors, "ladder_errors", M, None),
        E::SwFallback { .. } => (&mut h.sw_fallbacks, "sw_fallbacks", M, None),
        E::PcapRetry { .. } => (&mut h.pcap_retries, "pcap_retries", M, None),
        E::SloBurn { iface, .. } => (
            &mut stats.slo_burns,
            "slo_burns",
            Label::Iface(iface_name(iface)),
            None,
        ),
        _ => return,
    };
    *counter += 1;
    metrics.inc(name, label);
    if let Some(reason) = dump_reason {
        dump(profiler, tracer, reason, now, context);
    }
}

/// Write a post-mortem from the tail of `tracer`'s ring — only while a
/// profiler is live, so an unprofiled run never builds a context.
pub(crate) fn dump(
    profiler: &Profiler,
    tracer: &Tracer,
    reason: &str,
    now: Cycles,
    context: impl FnOnce() -> Json,
) {
    if profiler.is_enabled() {
        profiler.trigger_dump(reason, now, tracer, context());
    }
}

impl KernelState {
    /// [`note`] a VM lifecycle event with the kernel's handles; a dump's
    /// context names `vm`.
    pub(crate) fn note(&mut self, m: &Machine, vm: VmId, ev: TraceEvent) {
        let KernelState {
            tracer,
            stats,
            metrics,
            profiler,
            pds,
            ..
        } = self;
        note(m.now(), ev, tracer, stats, metrics, profiler, || {
            crate::postmortem::context(m, pds, Some(vm), metrics)
        });
    }
}

impl HwMgr {
    /// [`note`] a fabric lifecycle event with the manager's registry and
    /// profiler. For kinds without a post-mortem; a quarantine goes
    /// through [`note`] itself with its dump context.
    pub(crate) fn note(
        &self,
        now: Cycles,
        tracer: &Tracer,
        stats: &mut KernelStats,
        ev: TraceEvent,
    ) {
        note(
            now,
            ev,
            tracer,
            stats,
            &self.metrics,
            &self.profiler,
            || Json::Null,
        );
    }
}
