//! Shared harness for the integration suites: kernel construction, the
//! standard two-VM DPR chaos workload, the guest payloads the recovery
//! tests build their scenarios from, and the trace-replay oracle.
#![allow(dead_code)] // each test binary uses its own subset

use mini_nova::{GuestKind, Kernel, KernelConfig, KernelStats, VmSpec};
use mnv_hal::abi::{Hypercall, HypercallArgs};
use mnv_hal::{Cycles, HwTaskId, Priority};
use mnv_metrics::Label;
use mnv_trace::event::iface_name;
use mnv_trace::json::Json;
use mnv_trace::{TraceEvent, Tracer};
use mnv_ucos::kernel::{Ucos, UcosConfig};
use mnv_ucos::tasks::{AdpcmTask, GsmTask, THwTask};
use mnv_ucos::{GuestTask, TaskAction, TaskCtx};
use std::collections::BTreeMap;

/// A kernel with the paper's task set registered and a 2 ms quantum.
pub fn kernel() -> (Kernel, Vec<HwTaskId>) {
    let mut k = Kernel::new(KernelConfig {
        quantum: Cycles::from_millis(2.0),
        ..Default::default()
    });
    let ids = k.register_paper_task_set();
    (k, ids)
}

/// The standard mixed guest: a hardware-task client plus GSM and ADPCM
/// software load.
pub fn workload_guest(seed: u64, task_set: Vec<HwTaskId>) -> GuestKind {
    let mut os = Ucos::new(UcosConfig::default());
    os.task_create(8, Box::new(THwTask::new(task_set, seed)));
    os.task_create(12, Box::new(GsmTask::new(seed, 4)));
    os.task_create(20, Box::new(AdpcmTask::new(seed + 99)));
    GuestKind::Ucos(Box::new(os))
}

/// Run one two-VM DPR scenario under the chaos preset; returns the fault
/// records and the final kernel stats.
pub fn chaos_run(seed: u64) -> (Vec<mnv_fault::FaultRecord>, mini_nova::KernelStats) {
    let (mut k, plane) = chaos_kernel(seed);
    k.run(Cycles::from_millis(60.0));
    (plane.records(), k.state.stats.clone())
}

/// The two-VM DPR scenario of [`chaos_run`], armed but not yet run.
pub fn chaos_kernel(seed: u64) -> (Kernel, mnv_fault::FaultPlane) {
    let (mut k, ids) = kernel();
    let qam: Vec<HwTaskId> = ids[6..].to_vec();
    let fft: Vec<HwTaskId> = ids[..6].to_vec();
    k.create_vm(VmSpec {
        name: "g1",
        priority: Priority::GUEST,
        guest: workload_guest(seed, qam),
    });
    k.create_vm(VmSpec {
        name: "g2",
        priority: Priority::GUEST,
        guest: workload_guest(seed ^ 0x5DEECE66D, fft),
    });
    let plane = k.enable_faults(mnv_fault::FaultPlan::chaos(seed));
    (k, plane)
}

/// A guest task that burns CPU without retiring a single instruction: it
/// spins on read-only hypercalls, whose entry/exit/service costs are
/// charged to the VM's epoch while the host interprets them — the guest
/// PMU sees cycles but no progress. This is the modelled equivalent of
/// the wedged hypercall/poll loop the liveness watchdog exists to catch.
pub struct SpinTask;

impl GuestTask for SpinTask {
    fn name(&self) -> &'static str {
        "spin"
    }

    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> TaskAction {
        for _ in 0..8 {
            let _ = ctx.env.hypercall(HypercallArgs::new(Hypercall::VmInfo));
        }
        TaskAction::Continue
    }
}

/// A guest consisting only of [`SpinTask`] — hangs from boot.
pub fn spinner_guest() -> GuestKind {
    let mut os = Ucos::new(UcosConfig::default());
    os.task_create(8, Box::new(SpinTask));
    GuestKind::Ucos(Box::new(os))
}

/// A well-behaved pure-software guest (retires instructions steadily).
pub fn healthy_guest(seed: u64) -> GuestKind {
    let mut os = Ucos::new(UcosConfig::default());
    os.task_create(20, Box::new(AdpcmTask::new(seed)));
    GuestKind::Ucos(Box::new(os))
}

/// A counter the trace ring replays.
pub struct Replayed {
    /// Its metric name.
    pub metric: &'static str,
    /// The label an event counts under, `None` when the event is not this
    /// counter's. `cur` is the VM on the CPU (0 for the kernel).
    pub label: fn(&TraceEvent, u16) -> Option<Label>,
    /// Its machine-wide `KernelStats` total, where one exists.
    pub total: Option<fn(&KernelStats) -> u64>,
    /// The post-mortem reason its event dumps, for the terminal kinds.
    pub dump: Option<&'static str>,
}

/// The replay oracle's kind table: every lifecycle kind the kernel notes,
/// plus the hot-path counters whose events name their VM.
pub fn replayed() -> Vec<Replayed> {
    use TraceEvent as E;
    fn machine(hit: bool) -> Option<Label> {
        hit.then_some(Label::Machine)
    }
    fn vm(v: u16) -> Option<Label> {
        Some(Label::Vm(v as u8))
    }
    let row = |metric, label, total, dump| Replayed {
        metric,
        label,
        total: Some(total),
        dump,
    };
    vec![
        row(
            "vms_killed",
            |e, _| machine(matches!(e, E::VmKilled { .. })),
            |s| s.vms_killed,
            Some("vm-killed"),
        ),
        row(
            "vm_restarts",
            |e, _| match e {
                E::VmRestart { vm: v, .. } => vm(*v),
                _ => None,
            },
            |s| s.vm_restarts,
            None,
        ),
        row(
            "quarantines",
            |e, _| machine(matches!(e, E::PrrQuarantine { .. })),
            |s| s.hwmgr_lifetime().quarantines,
            Some("prr-quarantine"),
        ),
        row(
            "prr_scrubs",
            |e, _| machine(matches!(e, E::PrrScrub { pass: true, .. })),
            |s| s.hwmgr_lifetime().scrubs,
            None,
        ),
        row(
            "prr_scrub_fails",
            |e, _| machine(matches!(e, E::PrrScrub { pass: false, .. })),
            |s| s.hwmgr_lifetime().scrub_fails,
            None,
        ),
        row(
            "prr_reinstates",
            |e, _| machine(matches!(e, E::PrrReinstate { .. })),
            |s| s.hwmgr_lifetime().reinstates,
            None,
        ),
        row(
            "prrs_retired",
            |e, _| machine(matches!(e, E::PrrRetire { .. })),
            |s| s.hwmgr_lifetime().prrs_retired,
            None,
        ),
        row(
            "repromotions",
            |e, _| machine(matches!(e, E::Repromote { .. })),
            |s| s.hwmgr_lifetime().repromotions,
            None,
        ),
        row(
            "vm_repromotions",
            |e, _| match e {
                E::Repromote { vm: v, .. } => vm(*v),
                _ => None,
            },
            |s| s.hwmgr_lifetime().repromotions,
            None,
        ),
        row(
            "ladder_retries",
            |e, _| machine(matches!(e, E::HwTaskEscalate { rung: 1, .. })),
            |s| s.hwmgr_lifetime().ladder_retries,
            None,
        ),
        row(
            "ladder_relocations",
            |e, _| machine(matches!(e, E::HwTaskEscalate { rung: 2, .. })),
            |s| s.hwmgr_lifetime().ladder_relocations,
            None,
        ),
        row(
            "ladder_fallbacks",
            |e, _| machine(matches!(e, E::HwTaskEscalate { rung: 3, .. })),
            |s| s.hwmgr_lifetime().ladder_fallbacks,
            None,
        ),
        row(
            "ladder_errors",
            |e, _| machine(matches!(e, E::HwTaskEscalate { rung, .. } if !(1..=3).contains(rung))),
            |s| s.hwmgr_lifetime().ladder_errors,
            None,
        ),
        row(
            "sw_fallbacks",
            |e, _| machine(matches!(e, E::SwFallback { .. })),
            |s| s.hwmgr_lifetime().sw_fallbacks,
            None,
        ),
        row(
            "pcap_retries",
            |e, _| machine(matches!(e, E::PcapRetry { .. })),
            |s| s.hwmgr_lifetime().pcap_retries,
            None,
        ),
        row(
            "slo_burns",
            |e, _| match e {
                E::SloBurn { iface, .. } => Some(Label::Iface(iface_name(*iface))),
                _ => None,
            },
            |s| s.slo_burns.iter().sum(),
            None,
        ),
        // Every hypercall the dispatcher serves traces `Hypercall`; a
        // guest's undecodable SVC number traces nothing, so a replayed run
        // issues none.
        row(
            "hypercalls",
            |e, cur| match e {
                E::Hypercall { .. } => vm(cur),
                _ => None,
            },
            |s| s.hypercalls_total,
            None,
        ),
        row(
            "virqs_injected",
            |e, _| match e {
                E::VirqInject { vm: v, .. } => vm(*v),
                _ => None,
            },
            |s| s.virqs_injected,
            None,
        ),
        // `vm_switches` also counts the manager's switches, so the
        // switches into a VM have no total of their own.
        Replayed {
            metric: "world_switches",
            label: |e, _| match e {
                E::VmSwitch { from: 0, to } => vm(*to),
                _ => None,
            },
            total: None,
            dump: None,
        },
    ]
}

/// Fold `events` into counts per (metric, label).
pub fn fold(
    rows: &[Replayed],
    events: &[(Cycles, TraceEvent)],
) -> BTreeMap<(&'static str, Label), u64> {
    let mut cur = 0;
    let mut out = BTreeMap::new();
    for (_, e) in events {
        if let TraceEvent::VmSwitch { to, .. } = e {
            cur = *to;
        }
        for r in rows {
            if let Some(label) = (r.label)(e, cur) {
                *out.entry((r.metric, label)).or_default() += 1;
            }
        }
    }
    out
}

/// A label as the metrics JSON export keys it.
fn json_key(label: Label) -> String {
    match label {
        Label::Machine => "machine".to_string(),
        Label::Vm(v) => format!("vm{v}"),
        Label::Iface(i) => format!("iface:{i}"),
        other => format!("{other:?}"),
    }
}

/// The replay oracle: fold a trace ring that did not wrap into every
/// replayed counter, per label, and check it against the kernel's totals
/// and the metrics snapshot (while the registry is live). While the
/// profiler is live, every terminal event must have dumped once under its
/// reason (the PCAP watchdog's abort, which has no event of its own, is the
/// one other reason), the newest dump must carry the reason its newest
/// event dumps, and its embedded metrics must equal the fold of the ring
/// up to it.
pub fn replay_oracle(k: &Kernel, tracer: &Tracer) -> Result<(), String> {
    if tracer.dropped() != 0 {
        return Err(format!(
            "the ring wrapped: {} events lost",
            tracer.dropped()
        ));
    }
    let rows = replayed();
    let events = tracer.snapshot();
    let folded = fold(&rows, &events);
    let traced = |metric| -> u64 {
        folded
            .iter()
            .filter(|((m, _), _)| *m == metric)
            .map(|(_, n)| n)
            .sum()
    };
    for r in &rows {
        let total = r.total.map_or(traced(r.metric), |t| t(&k.state.stats));
        if traced(r.metric) != total {
            return Err(format!(
                "{}: {} traced, {total} in KernelStats",
                r.metric,
                traced(r.metric)
            ));
        }
    }
    let live = k.state.metrics.is_enabled();
    if live {
        let viewed: BTreeMap<_, _> = k
            .metrics()
            .entries
            .iter()
            .filter(|e| rows.iter().any(|r| r.metric == e.name))
            .map(|e| ((e.name, e.label), e.value))
            .collect();
        if viewed != folded {
            return Err(format!("metrics {viewed:?}\n   vs trace {folded:?}"));
        }
    }
    if !k.state.profiler.is_enabled() {
        return Ok(());
    }
    const ABORT: &str = "pcap-watchdog-abort";
    let dumped = k.state.profiler.dumps();
    if let Some(reason) = dumped
        .keys()
        .find(|&&d| d != ABORT && !rows.iter().any(|r| r.dump == Some(d)))
    {
        return Err(format!("dump reason {reason} has no terminal event"));
    }
    for r in &rows {
        if let Some(reason) = r.dump {
            let n = dumped.get(reason).copied().unwrap_or(0);
            if n != traced(r.metric) {
                return Err(format!("{n} {reason} dumps, {} traced", traced(r.metric)));
            }
        }
    }
    let Some(blob) = k.state.profiler.last_dump() else {
        return Ok(());
    };
    let pm = mnv_profile::postmortem::parse(&blob)?;
    let upto = pm.events_dropped as usize + pm.events.len();
    let newest = &events[upto - 1].1;
    let own = rows
        .iter()
        .find_map(|r| r.dump.filter(|_| (r.label)(newest, 0).is_some()));
    if pm.reason != ABORT && Some(pm.reason.as_str()) != own {
        return Err(format!("dump reason {} after {newest:?}", pm.reason));
    }
    if !live {
        return Ok(());
    }
    let at_dump: BTreeMap<_, _> = fold(&rows, &events[..upto])
        .into_iter()
        .map(|((m, l), n)| ((m.to_string(), json_key(l)), n))
        .collect();
    let metrics = pm.context.get("metrics").ok_or("dump without metrics")?;
    let mut embedded = BTreeMap::new();
    for r in &rows {
        if let Some(Json::Obj(series)) = metrics.get(r.metric) {
            for (key, v) in series {
                let n = v.as_num().ok_or("non-numeric sample")? as u64;
                embedded.insert((r.metric.to_string(), key.clone()), n);
            }
        }
    }
    if embedded != at_dump {
        return Err(format!(
            "dump metrics {embedded:?}\n   vs trace {at_dump:?}"
        ));
    }
    Ok(())
}
