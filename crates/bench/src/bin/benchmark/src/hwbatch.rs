//! `hwbatch`: one tenant running `HwBatchTask` over the QAM family, batch
//! of six, 2 ms quantum. The same seed runs twice, through the shared ring
//! and then per call, and the two must agree bit for bit. It exercises the
//! manager's resident fast path, the ring drain and coalesced vIRQs at
//! thousands of tasks per second with a handful of PCAP transfers, the
//! opposite mix to `fig9`. It is single-tenant on purpose: with two
//! tenants, the first one livelocks (the `fig9` orphaned-PCAP finding).

use std::collections::BTreeMap;
use std::time::Instant;

use mini_nova::kernel::{GuestKind, Kernel, KernelConfig, VmSpec};
use mini_nova::mem::layout::vm_region;
use mnv_hal::{Cycles, Priority, VmId};
use mnv_ucos::kernel::{Ucos, UcosConfig};
use mnv_ucos::tasks::{BatchMode, HwBatchTask, BATCH_CHECK_VA};

use crate::report::{manager_latency, metric, ratio, LayerInput, Ops, Outcome};
use crate::spans::Recorder;
use crate::system::{
    drain_trace, lockstep, measure, no_kills, timed_setups, Gate, Params, Window, LOCKSTEP_MS,
};

pub const QUANTUM_MS: f64 = 2.0;
pub const SEG_MS: f64 = 100.0;
pub const BATCH: u16 = 6;
/// Simulated ms measured per mode for each second of the run budget.
pub const WINDOW_MS_PER_S: f64 = 2_000.0;
/// The QAM family's interface index.
pub const QAM_FAMILY: u8 = 1;

fn build(mode: BatchMode, seed: u64, rec: &mut Recorder) -> (Kernel, VmId) {
    let mut k = rec.span("Kernel::new", |_| {
        Kernel::new(KernelConfig {
            quantum: Cycles::from_millis(QUANTUM_MS),
            ..Default::default()
        })
    });
    let ids = rec.span("register_paper_task_set", |_| k.register_paper_task_set());
    let mut os = Ucos::new(UcosConfig::default());
    os.task_create(
        8,
        Box::new(HwBatchTask::new(
            ids[6..].to_vec(),
            QAM_FAMILY,
            mode,
            BATCH,
            seed,
        )),
    );
    let vm = rec.span("create_vm", |_| {
        k.create_vm(VmSpec {
            name: "batch",
            priority: Priority::GUEST,
            guest: GuestKind::Ucos(Box::new(os)),
        })
    });
    (k, vm)
}

/// The guest's published lockstep checkpoint: (completions, checksum).
fn checkpoint(k: &Kernel, vm: VmId) -> (u32, u32) {
    let base = vm_region(vm) + BATCH_CHECK_VA.raw();
    let read = |off| k.machine.mem.read_u32(base + off).unwrap_or(0);
    (read(4), read(0))
}

/// Run one mode's window, collecting its checkpoints by completion count.
fn run_mode(
    mut k: Kernel,
    vm: VmId,
    segments: usize,
    rec: &mut Recorder,
) -> (Window, BTreeMap<u32, u32>, u32, Kernel) {
    let mut points = BTreeMap::new();
    let w = measure(&mut k, rec, segments, SEG_MS, |_, k| {
        let (count, sum) = checkpoint(k, vm);
        if count > 0 {
            points.entry(count).or_insert(sum);
        }
    });
    let published = checkpoint(&k, vm).0;
    (w, points, published, k)
}

/// Both modes must publish the same checksum at every completion count
/// they share, and share at least one.
pub fn compare_checkpoints(
    ring: &BTreeMap<u32, u32>,
    per_call: &BTreeMap<u32, u32>,
) -> Result<usize, String> {
    let mut shared = 0;
    for (count, sum) in ring {
        if let Some(other) = per_call.get(count) {
            if sum != other {
                return Err(format!(
                    "checksum {sum:#010x} (ring) vs {other:#010x} (per call) at {count} completions"
                ));
            }
            shared += 1;
        }
    }
    if shared == 0 {
        return Err("the two modes share no checkpoint".into());
    }
    Ok(shared)
}

/// The kernel's served count must equal the guest's published count, up
/// to the one batch the guest has not yet published at the window's end.
pub fn check_served(served: f64, published: u32) -> Result<(), String> {
    let published = published as f64;
    if served >= published && served - published <= BATCH as f64 {
        Ok(())
    } else {
        Err(format!(
            "kernel served {served} requests, guest published {published}"
        ))
    }
}

pub fn run(p: &Params, rec: &mut Recorder) -> Outcome {
    let seed = p.seed;
    let segments = p.segments(WINDOW_MS_PER_S, SEG_MS);
    let window_ms = segments as f64 * SEG_MS;
    let (setup_s, (ring_k, ring_vm)) = timed_setups(rec, |rec| build(BatchMode::Ring, seed, rec));
    let t0 = Instant::now();
    let (speedup_vs_ref, lock_gate) = lockstep(rec, LOCKSTEP_MS.min(window_ms), |rec| {
        build(BatchMode::Ring, seed, rec).0
    });
    let mut check_s = t0.elapsed().as_secs_f64();

    let (ring, ring_points, ring_published, k) = run_mode(ring_k, ring_vm, segments, rec);
    let (pc_k, pc_vm) = rec.span("setup", |rec| build(BatchMode::PerCall, seed, rec));
    let (per_call, pc_points, pc_published, pc_k) = run_mode(pc_k, pc_vm, segments, rec);

    let t0 = Instant::now();
    let checkpoints = compare_checkpoints(&ring_points, &pc_points);
    let shared = *checkpoints.as_ref().unwrap_or(&0);
    let gates = vec![
        lock_gate,
        Gate::new("checkpoints", checkpoints.map(|_| ())),
        Gate::new("served.ring", check_served(ring.served(), ring_published)),
        Gate::new(
            "served.per_call",
            check_served(per_call.served(), pc_published),
        ),
        no_kills("ring", &k),
        no_kills("per_call", &pc_k),
    ];
    check_s += t0.elapsed().as_secs_f64();
    let trace = drain_trace(&k.state.tracer, rec);

    let ops = Ops::served([&ring]);
    let attempted = ring.delta.reqs_minted + per_call.delta.reqs_minted;
    let failed = [&ring, &per_call]
        .iter()
        .map(|w| w.new_orphans() + w.hwmgr.ladder_errors + w.delta.vms_killed)
        .sum();
    let mut workload = ops.metrics(attempted, failed);
    workload.extend(manager_latency(&ring.hwmgr));
    let pc_ops = per_call.served();
    workload.extend([
        metric("checkpoints_shared", shared as f64, "count"),
        metric(
            "per_call.hc_per_op",
            ratio(per_call.delta.hypercalls as f64, pc_ops),
            "count",
        ),
        metric(
            "per_call.switches_per_op",
            ratio(per_call.delta.switches as f64, pc_ops),
            "count",
        ),
    ]);

    Outcome {
        setup_s,
        ops,
        attempted,
        failed,
        gates,
        workload,
        params: vec![
            metric("guests", 1.0, "count"),
            metric("batch", BATCH as f64, "count"),
            metric("quantum_ms", QUANTUM_MS, "sim_ms"),
            metric("window_ms_per_mode", window_ms, "sim_ms"),
            metric("segment_ms", SEG_MS, "sim_ms"),
        ],
        layer: LayerInput {
            speedup_vs_ref,
            trace,
            check_s,
            hw_runs: ops.done,
            ..LayerInput::default()
        },
        primary: ring,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn points(p: &[(u32, u32)]) -> BTreeMap<u32, u32> {
        p.iter().copied().collect()
    }

    #[test]
    fn matching_checkpoints_pass() {
        let ring = points(&[(6, 0xA), (12, 0xB), (18, 0xC)]);
        let per_call = points(&[(6, 0xA), (18, 0xC), (24, 0xD)]);
        assert_eq!(compare_checkpoints(&ring, &per_call), Ok(2));
    }

    #[test]
    fn a_mismatched_checkpoint_fails_the_gate() {
        let ring = points(&[(6, 0xA), (12, 0xB)]);
        let per_call = points(&[(6, 0xA), (12, 0xBAD)]);
        let err = compare_checkpoints(&ring, &per_call).unwrap_err();
        assert!(err.contains("at 12 completions"), "{err}");
    }

    #[test]
    fn disjoint_checkpoints_fail_the_gate() {
        assert!(compare_checkpoints(&points(&[(6, 1)]), &points(&[(12, 1)])).is_err());
    }

    #[test]
    fn served_may_lead_published_by_one_batch() {
        assert!(check_served(600.0, 600).is_ok());
        assert!(check_served(606.0, 600).is_ok());
        assert!(check_served(607.0, 600).is_err());
        assert!(check_served(599.0, 600).is_err());
    }
}
