//! `chaos`: the chaos heal recipe, scaled up. Three guests run under
//! `FaultPlan::chaos(seed)` with a storm of PRR hangs: a paper guest whose
//! hardware requester submits QAM batches of six through the shared ring,
//! a paper guest without a requester, and a supervised guest whose first
//! boot spins. The faults are armed for the first quarter of the window
//! and disarmed for the rest, the drain. The kernel tracer is on, and the
//! trace goes through the waterfall builder and the Chrome exporter at the
//! end. It is the only workload that exercises quarantine, the escalation
//! ladder, scrub/reinstate, re-promotion, VM restarts and the
//! observability sinks.
//!
//! The requester is a single ring tenant on purpose. With two per-call
//! T_hw tenants, a second stage-5 PCAP launch orphans the first requester
//! (the `fig9` finding) on most seeds. With one per-call T_hw tenant, some
//! seeds leave it polling an idle region after its degraded tasks, which
//! share one interface page, wait on a lazy re-promotion. Either way every
//! metric turns on whether the seed hit a livelock; the ring tenant keeps
//! every recovery path busy on every seed.

use std::time::Instant;

use mini_nova::kernel::{GuestKind, Kernel, KernelConfig, VmSpec};
use mnv_fault::{FaultPlan, FaultPlane, SiteCfg};
use mnv_hal::abi::{Hypercall, HypercallArgs};
use mnv_hal::{Cycles, HwTaskId, Priority};
use mnv_trace::Tracer;
use mnv_ucos::kernel::{Ucos, UcosConfig};
use mnv_ucos::tasks::{AdpcmTask, BatchMode, GsmTask, HwBatchTask};
use mnv_ucos::{GuestTask, TaskAction, TaskCtx};

use crate::hwbatch::{BATCH, QAM_FAMILY};
use crate::report::{manager_latency, metric, ratio, LayerInput, Ops, Outcome};
use crate::spans::Recorder;
use crate::system::{
    drain_trace, lockstep, measure, timed_setups, ucos_steps, Gate, Params, LOCKSTEP_MS,
};

pub const QUANTUM_MS: f64 = 2.0;
pub const SEG_MS: f64 = 100.0;
/// Simulated ms armed, then drained, for each second of the run budget.
pub const ARMED_MS_PER_S: f64 = 200.0;
pub const DRAIN_MS_PER_S: f64 = 600.0;
/// Watchdog and scrub intervals (cycles), compressed so the whole
/// degrade-and-heal cycle fits the window.
pub const SUPERVISION_CYCLES: u64 = 1_000_000;
/// Liveness watchdog of the supervised guest (cycles without progress).
pub const LIVENESS_CYCLES: u64 = 300_000;
pub const TRACE_EVENTS: usize = 1 << 20;
const GSM_PRIO: u8 = 12;
const ADPCM_PRIO: u8 = 20;

/// The supervised guest's first boot: spins in no-progress hypercalls, the
/// transient boot wedge the liveness watchdog must catch.
struct SpinTask;

impl GuestTask for SpinTask {
    fn name(&self) -> &'static str {
        "spin"
    }

    fn step(&mut self, ctx: &mut TaskCtx) -> TaskAction {
        for _ in 0..8 {
            let _ = ctx.env.hypercall(HypercallArgs::new(Hypercall::VmInfo));
        }
        TaskAction::Continue
    }
}

/// The paper's guest load, with a ring requester over the QAM tasks
/// `qam` if given.
fn paper_guest(seed: u64, qam: Option<Vec<HwTaskId>>) -> GuestKind {
    let mut os = Ucos::new(UcosConfig::default());
    if let Some(qam) = qam {
        os.task_create(
            8,
            Box::new(HwBatchTask::new(
                qam,
                QAM_FAMILY,
                BatchMode::Ring,
                BATCH,
                seed,
            )),
        );
    }
    os.task_create(GSM_PRIO, Box::new(GsmTask::new(seed, 1)));
    os.task_create(ADPCM_PRIO, Box::new(AdpcmTask::new(seed + 99)));
    GuestKind::Ucos(Box::new(os))
}

struct System {
    k: Kernel,
    plane: FaultPlane,
    tracer: Tracer,
}

fn build(seed: u64, rec: &mut Recorder) -> System {
    let mut k = rec.span("Kernel::new", |_| {
        Kernel::new(KernelConfig {
            quantum: Cycles::from_millis(QUANTUM_MS),
            ..Default::default()
        })
    });
    let ids = rec.span("register_paper_task_set", |_| k.register_paper_task_set());
    for (name, guest) in [
        ("hw", paper_guest(seed, Some(ids[6..].to_vec()))),
        ("sw", paper_guest(seed ^ 0x5DEE_CE66D, None)),
    ] {
        rec.span("create_vm", |_| {
            k.create_vm(VmSpec {
                name,
                priority: Priority::GUEST,
                guest,
            })
        });
    }
    let mut boots = 0u32;
    let flaky = rec.span("create_vm", |_| {
        k.create_supervised_vm(
            "flaky",
            Priority::GUEST,
            Box::new(move || {
                boots += 1;
                let mut os = Ucos::new(UcosConfig::default());
                if boots == 1 {
                    os.task_create(8, Box::new(SpinTask));
                } else {
                    os.task_create(ADPCM_PRIO, Box::new(AdpcmTask::new(7)));
                }
                GuestKind::Ucos(Box::new(os))
            }),
        )
    });
    k.watch_liveness(flaky, LIVENESS_CYCLES);
    let tracer = k.enable_tracing(TRACE_EVENTS);
    let mut plan = FaultPlan::chaos(seed);
    // A hang storm on top of the preset, deep enough to walk the whole
    // escalation ladder into quarantine.
    plan.prr_hang = SiteCfg::new(1_000_000, 200);
    let plane = k.enable_faults(plan);
    k.state.hwmgr.watchdog_timeout = SUPERVISION_CYCLES;
    k.state.hwmgr.scrub_interval = SUPERVISION_CYCLES;
    System { k, plane, tracer }
}

pub fn run(p: &Params, rec: &mut Recorder) -> Outcome {
    let seed = p.seed;
    let armed = p.segments(ARMED_MS_PER_S, SEG_MS);
    let drain = p.segments(DRAIN_MS_PER_S, SEG_MS);
    let (setup_s, sys) = timed_setups(rec, |rec| build(seed, rec));
    let t0 = Instant::now();
    let (speedup_vs_ref, lock_gate) = lockstep(
        rec,
        LOCKSTEP_MS.min((armed + drain) as f64 * SEG_MS),
        |rec| build(seed, rec).k,
    );
    let mut check_s = t0.elapsed().as_secs_f64();

    let System {
        mut k,
        plane,
        tracer,
    } = sys;
    let steps0 = (ucos_steps(&mut k, GSM_PRIO), ucos_steps(&mut k, ADPCM_PRIO));
    let mut disarmed_at = None;
    let mut converged_at = None;
    let mut converge_s = 0.0;
    let w = measure(&mut k, rec, armed + drain, SEG_MS, |i, k| {
        if i + 1 == armed {
            plane.disarm();
            disarmed_at = Some(k.machine.now());
        } else if disarmed_at.is_some() && converged_at.is_none() {
            let t0 = Instant::now();
            if k.state.hwmgr.check_converged().is_ok() {
                converged_at = Some(k.machine.now());
            }
            converge_s += t0.elapsed().as_secs_f64();
        }
    });
    let t0 = Instant::now();
    let invariants = rec.span("check_recovery_invariants", |_| {
        k.check_recovery_invariants()
    });
    check_s += converge_s + t0.elapsed().as_secs_f64();
    let trace = drain_trace(&tracer, rec);

    let h = &w.hwmgr;
    let ops = Ops::served([&w]);
    let drained_ms = drain as f64 * SEG_MS;
    // Convergence is checked at segment ends, so this resolves to one
    // segment. A drain that never converges counts in full, plus one
    // failed operation.
    let (recovery_ms, unconverged) = match (disarmed_at, converged_at) {
        (Some(d), Some(c)) => (Cycles::new((c - d).raw()).as_millis(), 0),
        _ => (drained_ms, 1),
    };
    // The supervised guest's first boot is killed on purpose; any other
    // kill is a failure.
    let unexpected_kills = w.delta.vms_killed.saturating_sub(w.delta.liveness_kills);
    let failed = h.ladder_errors + w.new_orphans() + unexpected_kills + unconverged;
    let attempted = w.delta.reqs_minted;
    let faults_injected = plane.records().len() as u64;

    let mut workload = ops.metrics(attempted, failed);
    workload.extend(manager_latency(h));
    workload.extend([
        metric("recovery_ms", recovery_ms, "sim_ms"),
        metric(
            "degraded_ratio",
            ratio(h.sw_fallbacks as f64, ops.done),
            "ratio",
        ),
    ]);

    Outcome {
        setup_s,
        ops,
        attempted,
        failed,
        gates: vec![lock_gate, Gate::new("invariants", invariants)],
        workload,
        params: vec![
            metric("guests", 3.0, "count"),
            metric("quantum_ms", QUANTUM_MS, "sim_ms"),
            metric("armed_ms", armed as f64 * SEG_MS, "sim_ms"),
            metric("drain_ms", drained_ms, "sim_ms"),
            metric("segment_ms", SEG_MS, "sim_ms"),
            metric("trace_events_cap", TRACE_EVENTS as f64, "count"),
        ],
        layer: LayerInput {
            speedup_vs_ref,
            faults_injected,
            trace,
            check_s,
            hw_runs: ops.done,
            gsm_frames: ucos_steps(&mut k, GSM_PRIO) - steps0.0,
            adpcm_blocks: ucos_steps(&mut k, ADPCM_PRIO) - steps0.1,
            ..LayerInput::default()
        },
        primary: w,
    }
}
