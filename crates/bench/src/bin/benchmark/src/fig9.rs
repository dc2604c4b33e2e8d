//! `fig9`: the paper's §V-B setup. The native harness, then 1–4 uC/OS
//! guests, each running T_hw + GSM + ADPCM over the paper task set (nine
//! FFT/QAM tasks on four PRRs). It is Table III and Fig. 9; its host time
//! goes to hypercall dispatch, the cache/TLB pollution model and the
//! allocation routine, and none to the interpreter.

use std::time::Instant;

use mini_nova::kernel::{GuestKind, Kernel, KernelConfig, VmSpec};
use mini_nova::native::NativeHarness;
use mini_nova::stats::HwMgrStats;
use mnv_hal::{Cycles, HwTaskId, Priority};
use mnv_ucos::kernel::{Ucos, UcosConfig};
use mnv_ucos::tasks::{AdpcmTask, GsmTask, THwTask};

use crate::report::{manager_latency, metric, ratio, LayerInput, Ops, Outcome};
use crate::spans::Recorder;
use crate::stats::paper_err_pct;
use crate::system::{
    drain_trace, lockstep, measure, no_kills, timed_setups, ucos_steps, Gate, Params, LOCKSTEP_MS,
};

pub const QUANTUM_MS: f64 = 4.0;
pub const SEG_MS: f64 = 100.0;
pub const WARMUP_MS_PER_GUEST: f64 = 40.0;
/// Simulated ms measured per guest for each second of the run budget.
pub const WINDOW_MS_PER_GUEST_PER_S: f64 = 160.0;
pub const MAX_GUESTS: usize = 4;

/// T_hw at priority 8, GSM at 12, ADPCM at 20.
pub const GSM_PRIO: u8 = 12;
pub const ADPCM_PRIO: u8 = 20;

fn add_paper_tasks(os: &mut Ucos, seed: u64, ids: Vec<HwTaskId>) {
    os.task_create(8, Box::new(THwTask::new(ids, seed)));
    os.task_create(GSM_PRIO, Box::new(GsmTask::new(seed, 1)));
    os.task_create(ADPCM_PRIO, Box::new(AdpcmTask::new(seed + 99)));
}

/// Guest `i` of a run with workload seed `seed`.
pub fn guest_seed(seed: u64, i: usize) -> u64 {
    seed + i as u64 * 7919
}

fn build(n: usize, seed: u64, rec: &mut Recorder) -> Kernel {
    let mut k = rec.span("Kernel::new", |_| {
        Kernel::new(KernelConfig {
            quantum: Cycles::from_millis(QUANTUM_MS),
            ..Default::default()
        })
    });
    let ids = rec.span("register_paper_task_set", |_| k.register_paper_task_set());
    for i in 0..n {
        let mut os = Ucos::new(UcosConfig::default());
        add_paper_tasks(&mut os, guest_seed(seed, i), ids.clone());
        rec.span("create_vm", |_| {
            k.create_vm(VmSpec {
                name: "guest",
                priority: Priority::GUEST,
                guest: GuestKind::Ucos(Box::new(os)),
            })
        });
    }
    k
}

/// The native column: the same OS and tasks on the bare machine, the
/// manager a plain function call. Returns its manager statistics and the
/// requests minted in its window.
fn native(seed: u64, segments: usize, rec: &mut Recorder) -> (HwMgrStats, u64) {
    let mut h = rec.span("NativeHarness::new", |_| {
        NativeHarness::new(Ucos::new(UcosConfig::default()))
    });
    let ids = rec.span("register_paper_task_set", |_| h.register_paper_task_set());
    add_paper_tasks(&mut h.os, guest_seed(seed, 0), ids);
    rec.span("NativeHarness::run", |_| {
        h.run(Cycles::from_millis(WARMUP_MS_PER_GUEST))
    });
    h.stats.reset_hwmgr();
    let minted0 = h.stats.reqs_minted;
    for _ in 0..segments {
        rec.span("NativeHarness::run", |_| h.run(Cycles::from_millis(SEG_MS)));
    }
    (h.stats.hwmgr, h.stats.reqs_minted - minted0)
}

pub fn run(p: &Params, rec: &mut Recorder) -> Outcome {
    let seed = p.seed;
    let segments = p.segments(WINDOW_MS_PER_GUEST_PER_S, SEG_MS);
    let window_ms = segments as f64 * SEG_MS;
    let (setup_s, _) = timed_setups(rec, |rec| build(MAX_GUESTS, seed, rec));
    let mut gates = Vec::new();
    let mut check_s = 0.0;

    let t0 = Instant::now();
    let (speedup_vs_ref, gate) = lockstep(rec, LOCKSTEP_MS.min(window_ms), |rec| {
        build(MAX_GUESTS, seed, rec)
    });
    check_s += t0.elapsed().as_secs_f64();
    gates.push(gate);

    let (native_mgr, native_minted) = native(seed, segments, rec);
    // Table III columns (rows as `T3_ROWS`): natively only execution
    // exists, and the total is the execution itself.
    let native_exec = native_mgr.exec.mean_us();
    let mut columns = vec![[0.0, 0.0, 0.0, native_exec, native_exec]];
    let mut attempted = native_minted;
    let mut failed = 0;
    let mut workload = Vec::new();
    let mut windows = Vec::new();
    let mut last = None;
    for n in 1..=MAX_GUESTS {
        let mut k = build(n, seed, rec);
        rec.span("Kernel::run", |_| {
            k.run(Cycles::from_millis(WARMUP_MS_PER_GUEST * n as f64))
        });
        let steps0 = (ucos_steps(&mut k, GSM_PRIO), ucos_steps(&mut k, ADPCM_PRIO));
        let w = measure(&mut k, rec, segments * n, SEG_MS, |_, _| {});
        let t0 = Instant::now();
        let invariants = rec.span("check_recovery_invariants", |_| {
            k.check_recovery_invariants()
        });
        gates.push(Gate::new(format!("invariants.g{n}"), invariants));
        gates.push(no_kills(&format!("g{n}"), &k));
        check_s += t0.elapsed().as_secs_f64();
        let h = &w.hwmgr;
        columns.push([h.entry, h.exit, h.irq_entry, h.exec, h.total].map(|a| a.mean_us()));
        workload.push(metric(
            format!("orphaned_vms.g{n}"),
            w.orphaned_end as f64,
            "count",
        ));
        workload.push(metric(
            format!("hwtask_per_s.g{n}"),
            ratio(w.served(), w.sim_s()),
            "op/sim_s",
        ));
        attempted += w.delta.reqs_minted;
        failed += w.new_orphans() + w.delta.vms_killed;
        windows.push(w);
        last = Some((k, steps0));
    }
    let (mut k, steps0) = last.expect("MAX_GUESTS > 0");
    let t3: [[f64; 5]; 5] = std::array::from_fn(|r| std::array::from_fn(|g| columns[g][r]));
    let primary = windows.last().expect("MAX_GUESTS > 0").clone();
    let trace = drain_trace(&k.state.tracer, rec);
    // Throughput and cost pool the four virtualized configurations: the
    // 4-guest one alone serves too few requests (its T_hw requesters but
    // one are livelocked) for a seed-stable rate.
    let ops = Ops::served(&windows);

    workload.extend(ops.metrics(attempted, failed));
    workload.extend(manager_latency(&primary.hwmgr));
    workload.push(metric("paper_err_pct", paper_err_pct(&t3), "%"));

    Outcome {
        setup_s,
        ops,
        attempted,
        failed,
        gates,
        workload,
        params: vec![
            metric("guests", MAX_GUESTS as f64, "count"),
            metric("quantum_ms", QUANTUM_MS, "sim_ms"),
            metric("warmup_ms_per_guest", WARMUP_MS_PER_GUEST, "sim_ms"),
            metric("window_ms_per_guest", window_ms, "sim_ms"),
            metric("segment_ms", SEG_MS, "sim_ms"),
        ],
        layer: LayerInput {
            speedup_vs_ref,
            t3,
            trace,
            check_s,
            hw_runs: primary.served(),
            gsm_frames: ucos_steps(&mut k, GSM_PRIO) - steps0.0,
            adpcm_blocks: ucos_steps(&mut k, ADPCM_PRIO) - steps0.1,
            // T_hw draws uniformly from six FFT and three QAM tasks.
            fft_share: 6.0 / 9.0,
            ..LayerInput::default()
        },
        primary,
    }
}
