//! Shared harness for the integration suites: kernel construction, the
//! standard two-VM DPR chaos workload, and the guest payloads the
//! recovery tests build their scenarios from.
#![allow(dead_code)] // each test binary uses its own subset

use mini_nova::{GuestKind, Kernel, KernelConfig, VmSpec};
use mnv_hal::abi::{Hypercall, HypercallArgs};
use mnv_hal::{Cycles, HwTaskId, Priority};
use mnv_ucos::kernel::{Ucos, UcosConfig};
use mnv_ucos::tasks::{AdpcmTask, GsmTask, THwTask};
use mnv_ucos::{GuestTask, TaskAction, TaskCtx};

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
