//! Ablation experiments for the design choices the paper motivates but
//! does not quantify (DESIGN.md's ablation index).
//!
//! * **Lazy vs eager VFP switch** (Table I): VM-switch cost with the bank
//!   transferred on every switch vs only on first use.
//! * **ASID tagging vs TLB flush on switch** (§III-C): guest progress with
//!   and without address-space identifiers.
//! * **Hypercall vs trap-and-emulate** (§III-A): cost of a sensitive
//!   operation issued as a hypercall vs trapped and emulated.
//! * **Manager priority** (§IV-E): hardware-task response latency with the
//!   manager above guest priority vs deferred to slice boundaries.

use mini_nova::kernel::{GuestKind, Kernel, KernelConfig, VmSpec};
use mini_nova::mirguest::MirGuest;
use mnv_arm::mir::{AluOp, Cond, Instr, MirCp15, ProgramBuilder};
use mnv_hal::{Cycles, Priority};
use mnv_trace::json::Json;
use mnv_ucos::kernel::{Ucos, UcosConfig};
use mnv_ucos::tasks::{ComputeTask, GsmTask, THwTask};

/// Result of one ablation arm.
#[derive(Clone, Debug)]
pub struct AblationResult {
    /// Experiment name.
    pub experiment: String,
    /// Arm label (paper design vs alternative).
    pub arm: String,
    /// Primary metric value.
    pub value: f64,
    /// Metric unit.
    pub unit: String,
}

impl AblationResult {
    /// JSON record.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("experiment", Json::str(self.experiment.clone())),
            ("arm", Json::str(self.arm.clone())),
            ("value", Json::num(self.value)),
            ("unit", Json::str(self.unit.clone())),
        ])
    }
}

/// Lazy vs eager VFP: one floating-point guest sharing the core with an
/// integer-only guest — the paper's premise that the bank is "relatively
/// less frequently accessed and quite expensive to save". Reports VFP bank
/// transfers per 100 VM switches (each transfer costs a full 32-double
/// bank move).
pub fn vfp_lazy_vs_eager() -> Vec<AblationResult> {
    let run = |eager: bool| -> f64 {
        let mut k = Kernel::new(KernelConfig {
            quantum: Cycles::from_micros(200.0),
            eager_vfp: eager,
            ..Default::default()
        });
        // Guest 1: uses the VFP in every pass.
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.push(Instr::VfpOp {
            op: 0,
            rd: 0,
            rn: 1,
            rm: 2,
        });
        for _ in 0..40 {
            b.compute(50);
        }
        b.branch(Cond::Al, top);
        let fp = MirGuest::new(b.assemble(mnv_ucos::layout::CODE_BASE.raw()));
        k.create_vm(VmSpec {
            name: "fp-guest",
            priority: Priority::GUEST,
            guest: GuestKind::Mir(Box::new(fp)),
        });
        // Guest 2: integer-only.
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        for _ in 0..40 {
            b.compute(50);
        }
        b.branch(Cond::Al, top);
        let int = MirGuest::new(b.assemble(mnv_ucos::layout::CODE_BASE.raw()));
        k.create_vm(VmSpec {
            name: "int-guest",
            priority: Priority::GUEST,
            guest: GuestKind::Mir(Box::new(int)),
        });

        k.run(Cycles::from_millis(20.0));
        let transfers: u64 = (1..=2u16)
            .map(|v| k.pd(mnv_hal::VmId(v)).vcpu.vfp_switches)
            .sum();
        100.0 * transfers as f64 / k.state.stats.vm_switches.max(1) as f64
    };
    vec![
        AblationResult {
            experiment: "vfp-switch".into(),
            arm: "lazy (paper)".into(),
            value: run(false),
            unit: "VFP transfers per 100 switches".into(),
        },
        AblationResult {
            experiment: "vfp-switch".into(),
            arm: "eager".into(),
            value: run(true),
            unit: "VFP transfers per 100 switches".into(),
        },
    ]
}

/// ASID vs flush: identical compute guests; report guest task steps
/// completed per million cycles (higher is better).
pub fn asid_vs_flush() -> Vec<AblationResult> {
    let run = |flush: bool| -> f64 {
        let mut k = Kernel::new(KernelConfig {
            quantum: Cycles::from_micros(500.0),
            flush_tlb_on_switch: flush,
            ..Default::default()
        });
        for i in 0..4 {
            let mut os = Ucos::new(UcosConfig::default());
            // Memory-access-heavy task: TLB-sensitive.
            os.task_create(10, Box::new(ComputeTask::new(2_000, 4_096)));
            os.task_create(12, Box::new(GsmTask::new(i, 2)));
            k.create_vm(VmSpec {
                name: "g",
                priority: Priority::GUEST,
                guest: GuestKind::Ucos(Box::new(os)),
            });
        }
        k.run(Cycles::from_millis(40.0));
        let steps: u64 = (1..=4u16)
            .map(|v| k.pd(mnv_hal::VmId(v)).stats.cpu_cycles)
            .sum();
        let misses = k.machine.tlb.stats().misses;
        let _ = steps;
        // Metric: TLB misses per million cycles (lower is better for the
        // paper's ASID design).
        misses as f64 / (k.machine.now().raw() as f64 / 1e6)
    };
    vec![
        AblationResult {
            experiment: "tlb-asid".into(),
            arm: "asid (paper)".into(),
            value: run(false),
            unit: "TLB misses per Mcycle".into(),
        },
        AblationResult {
            experiment: "tlb-asid".into(),
            arm: "flush-on-switch".into(),
            value: run(true),
            unit: "TLB misses per Mcycle".into(),
        },
    ]
}

/// Hypercall vs trap-and-emulate for a sensitive operation: a MIR guest
/// performs N privileged-register reads either via the RegRead hypercall or
/// by letting the raw CP15 access trap; report mean cycles per operation.
pub fn hypercall_vs_trap() -> Vec<AblationResult> {
    let run = |use_hypercall: bool| -> f64 {
        let mut k = Kernel::new(KernelConfig::default());
        let iterations = 2_000u32;
        let mut b = ProgramBuilder::new();
        b.mov(5, iterations);
        let top = b.label();
        b.bind(top);
        if use_hypercall {
            b.mov(0, 2); // RegRead id=2 (TPIDRURO shadow)
            b.svc(mnv_hal::abi::Hypercall::RegRead.nr());
        } else {
            // Raw privileged read: traps UND, kernel emulates and resumes.
            b.push(Instr::Mrc {
                rd: 0,
                reg: MirCp15::Contextidr,
            });
        }
        b.alu_imm(AluOp::Sub, 5, 5, 1);
        b.alu_imm(AluOp::Cmp, 5, 5, 0);
        b.branch(Cond::Ne, top);
        b.halt();
        let mir = MirGuest::new(b.assemble(mnv_ucos::layout::CODE_BASE.raw()));
        let vm = k.create_vm(VmSpec {
            name: "sensitive",
            priority: Priority::GUEST,
            guest: GuestKind::Mir(Box::new(mir)),
        });
        k.run(Cycles::from_millis(120.0));
        // Only the guest's consumed CPU time counts (the machine idles
        // after the program halts).
        k.pd(vm).stats.cpu_cycles as f64 / iterations as f64
    };
    vec![
        AblationResult {
            experiment: "sensitive-op".into(),
            arm: "hypercall (paper)".into(),
            value: run(true),
            unit: "cycles/op".into(),
        },
        AblationResult {
            experiment: "sensitive-op".into(),
            arm: "trap-and-emulate".into(),
            value: run(false),
            unit: "cycles/op".into(),
        },
    ]
}

/// Manager priority: mean hardware-task response time (request hypercall to
/// manager completion) with the paper's preempting manager vs a deferred
/// one.
pub fn manager_priority() -> Vec<AblationResult> {
    let run = |defer: bool| -> f64 {
        let mut k = Kernel::new(KernelConfig {
            quantum: Cycles::from_millis(4.0),
            defer_manager: defer,
            ..Default::default()
        });
        let ids = k.register_paper_task_set();
        for i in 0..2 {
            let mut os = Ucos::new(UcosConfig::default());
            os.task_create(8, Box::new(THwTask::new(ids.clone(), 40 + i)));
            os.task_create(12, Box::new(GsmTask::new(i, 4)));
            k.create_vm(VmSpec {
                name: "g",
                priority: Priority::GUEST,
                guest: GuestKind::Ucos(Box::new(os)),
            });
        }
        k.run(Cycles::from_millis(160.0));
        let h = &k.state.stats.hwmgr;
        h.entry.mean_us() + h.exec.mean_us() + h.exit.mean_us()
    };
    vec![
        AblationResult {
            experiment: "manager-priority".into(),
            arm: "preempting (paper)".into(),
            value: run(false),
            unit: "us response".into(),
        },
        AblationResult {
            experiment: "manager-priority".into(),
            arm: "deferred".into(),
            value: run(true),
            unit: "us response".into(),
        },
    ]
}

/// The arm names the `ablation` binary accepts, one per experiment.
pub const ARMS: [&str; 4] = ["vfp", "asid", "hypercall", "mgrprio"];

/// Run every ablation.
pub fn run_all() -> Vec<AblationResult> {
    let mut v = Vec::new();
    v.extend(vfp_lazy_vs_eager());
    v.extend(asid_vs_flush());
    v.extend(hypercall_vs_trap());
    v.extend(manager_priority());
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lazy_vfp_beats_eager() {
        let r = vfp_lazy_vs_eager();
        assert!(
            r[0].value < r[1].value,
            "lazy {} must beat eager {}",
            r[0].value,
            r[1].value
        );
    }

    #[test]
    fn asid_beats_flush() {
        let r = asid_vs_flush();
        assert!(
            r[0].value < r[1].value,
            "ASID misses/Mcy {} must be below flush-on-switch {}",
            r[0].value,
            r[1].value
        );
    }

    #[test]
    fn hypercall_beats_trap() {
        let r = hypercall_vs_trap();
        assert!(
            r[0].value < r[1].value,
            "hypercall {} must beat trap-and-emulate {}",
            r[0].value,
            r[1].value
        );
    }

    #[test]
    fn preempting_manager_responds_faster() {
        let r = manager_priority();
        assert!(
            r[0].value < r[1].value,
            "preempting {} must beat deferred {}",
            r[0].value,
            r[1].value
        );
    }
}
