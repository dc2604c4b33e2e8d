//! PMU virtualization: the emulated Cortex-A9 PMU across world switches.
//!
//! Four properties of the counter plane, exercised end-to-end through MIR
//! guests (full trap-and-emulate) and the kernel's epoch accounting:
//!
//! * world switches save/restore the architectural PMU state per vCPU, so
//!   each VM's counters only ever see its own epochs;
//! * PL0 access is gated by PMUSERENR — reads trap and are emulated,
//!   privileged writes kill the VM;
//! * a cycle-counter wrap latches the PMOVSR overflow flag even when the
//!   wrap happens across scheduling slices;
//! * under seeded random configurations, the metrics registry's per-label
//!   sums reproduce the machine totals exactly (nothing double-counted,
//!   nothing dropped between the host and VM labels).

use mini_nova::mem::layout::vm_region;
use mini_nova::mirguest::MirGuest;
use mini_nova::{GuestKind, Kernel, KernelConfig, PdState, VmSpec};
use mnv_arm::mir::{Cond, Instr, MirCp15, ProgramBuilder};
use mnv_arm::pmu::{event, pmcr, PmuState, CCNT_BIT};
use mnv_hal::{Cycles, Priority, VmId};
use mnv_metrics::Label;
use mnv_ucos::kernel::{Ucos, UcosConfig};
use mnv_ucos::tasks::ComputeTask;
use mnv_workloads::signal::Lcg;

fn small_quantum_kernel() -> Kernel {
    Kernel::new(KernelConfig {
        quantum: Cycles::from_micros(200.0),
        ..Default::default()
    })
}

fn mir_guest(b: &ProgramBuilder) -> GuestKind {
    GuestKind::Mir(Box::new(MirGuest::new(
        b.assemble(mnv_ucos::layout::CODE_BASE.raw()),
    )))
}

/// A guest that programs its own PMU from PL0 (counter 0 = TLB refills,
/// cycle counter on) and then spins forever.
fn self_counting_guest() -> GuestKind {
    let mut b = ProgramBuilder::new();
    b.mov(1, 0);
    b.push(Instr::Mcr {
        reg: MirCp15::Pmselr,
        rs: 1,
    });
    b.mov(1, event::TLB_REFILL);
    b.push(Instr::Mcr {
        reg: MirCp15::Pmxevtyper,
        rs: 1,
    });
    b.mov(1, CCNT_BIT | 1);
    b.push(Instr::Mcr {
        reg: MirCp15::Pmcntenset,
        rs: 1,
    });
    b.mov(1, pmcr::E);
    b.push(Instr::Mcr {
        reg: MirCp15::Pmcr,
        rs: 1,
    });
    let top = b.label();
    b.bind(top);
    b.compute(400);
    b.branch(Cond::Al, top);
    mir_guest(&b)
}

/// A guest that never touches the PMU and spins forever.
fn spin_guest() -> GuestKind {
    let mut b = ProgramBuilder::new();
    let top = b.label();
    b.bind(top);
    b.compute(400);
    b.branch(Cond::Al, top);
    mir_guest(&b)
}

#[test]
fn world_switch_saves_and_restores_pmu_state() {
    let mut k = small_quantum_kernel();
    k.create_vm(VmSpec {
        name: "pmu-a",
        priority: Priority::GUEST,
        guest: self_counting_guest(),
    });
    k.create_vm(VmSpec {
        name: "pmu-b",
        priority: Priority::GUEST,
        guest: self_counting_guest(),
    });
    // Open PL0 access so the guests can program their own counters.
    for v in [1u16, 2] {
        k.state.pds.get_mut(&VmId(v)).unwrap().vcpu.pmu.pmuserenr = 1;
    }
    let start = k.machine.now();
    k.run(Cycles::from_millis(10.0));
    let wall = (k.machine.now() - start).raw();
    assert!(
        k.state.stats.vm_switches > 20,
        "two spinning guests on a 200 µs quantum must multiplex"
    );

    let a = k.pd(VmId(1)).vcpu.pmu;
    let b = k.pd(VmId(2)).vcpu.pmu;
    for (name, s) in [("pmu-a", &a), ("pmu-b", &b)] {
        assert_eq!(
            s.pmcr & pmcr::E,
            pmcr::E,
            "{name}: PMCR.E survives switches"
        );
        assert!(s.pmccntr > 0, "{name}: CCNT counted its own epochs");
        assert!(
            (s.pmccntr as u64) < wall * 3 / 4,
            "{name}: CCNT={} of {wall} wall cycles — foreign worlds leaked in",
            s.pmccntr
        );
    }
    assert!(
        a.pmccntr as u64 + b.pmccntr as u64 <= wall,
        "the VMs' private cycle counters cannot sum past wall time"
    );
}

#[test]
fn pl0_read_with_pmuserenr_clear_traps_and_emulates_zero() {
    let mut k = small_quantum_kernel();
    let work = mnv_ucos::layout::WORK_BASE.raw() as u32;
    // r2 is poisoned first so only the trap-and-emulate path can zero it.
    let mut b = ProgramBuilder::new();
    b.mov(2, 0xDEAD_BEEF);
    b.mov(3, work);
    b.push(Instr::Mrc {
        rd: 2,
        reg: MirCp15::Pmccntr,
    });
    b.str(2, 3, 0);
    b.halt();
    k.create_vm(VmSpec {
        name: "pl0-read",
        priority: Priority::GUEST,
        guest: mir_guest(&b),
    });
    k.run(Cycles::from_millis(2.0));

    assert_eq!(
        k.state.stats.vms_killed, 0,
        "a PL0 PMU read is emulated, never fatal"
    );
    assert_eq!(
        k.pd(VmId(1)).state,
        PdState::Halted,
        "the guest ran through to Halt"
    );
    let pa = vm_region(VmId(1)) + work as u64;
    assert_eq!(
        k.machine.phys_read_u32(pa).unwrap(),
        0,
        "the emulated PMCCNTR read must return 0, not machine state"
    );
}

#[test]
fn pl0_pmu_writes_without_user_enable_kill_the_vm() {
    let mut k = small_quantum_kernel();
    // Guest 1: PMUSERENR clear, writes PMCR — privileged-write violation.
    let mut b = ProgramBuilder::new();
    b.mov(1, pmcr::E);
    b.push(Instr::Mcr {
        reg: MirCp15::Pmcr,
        rs: 1,
    });
    b.halt();
    k.create_vm(VmSpec {
        name: "bad-pmcr",
        priority: Priority::GUEST,
        guest: mir_guest(&b),
    });
    // Guest 2: PMUSERENR *set*, but writes PMUSERENR itself, which stays
    // PL1-only no matter what.
    let mut b = ProgramBuilder::new();
    b.mov(1, 1);
    b.push(Instr::Mcr {
        reg: MirCp15::Pmuserenr,
        rs: 1,
    });
    b.halt();
    k.create_vm(VmSpec {
        name: "bad-userenr",
        priority: Priority::GUEST,
        guest: mir_guest(&b),
    });
    k.state.pds.get_mut(&VmId(2)).unwrap().vcpu.pmu.pmuserenr = 1;

    k.run(Cycles::from_millis(2.0));
    assert_eq!(
        k.state.stats.vms_killed, 2,
        "both privileged-write attempts must be fatal"
    );
    assert_eq!(k.pd(VmId(1)).state, PdState::Halted);
    assert_eq!(k.pd(VmId(2)).state, PdState::Halted);
}

#[test]
fn cycle_counter_overflow_latches_the_flag_across_slices() {
    let mut k = small_quantum_kernel();
    k.create_vm(VmSpec {
        name: "wrap",
        priority: Priority::GUEST,
        guest: spin_guest(),
    });
    // Arm the counter just shy of the 32-bit wrap before the guest runs:
    // the kernel's switch-out sync must fold the guest epochs in, wrap,
    // and latch PMOVSR.C.
    k.state.pds.get_mut(&VmId(1)).unwrap().vcpu.pmu = PmuState {
        pmcr: pmcr::E,
        pmcnten: CCNT_BIT,
        pmccntr: u32::MAX - 1_000,
        ..Default::default()
    };
    k.run(Cycles::from_millis(2.0));

    let s = k.pd(VmId(1)).vcpu.pmu;
    assert_ne!(
        s.pmovsr & CCNT_BIT,
        0,
        "a CCNT wrap across world switches must set the overflow flag"
    );
    assert!(
        (s.pmccntr as u64) < u32::MAX as u64 - 1_000,
        "the counter wrapped rather than saturating"
    );
}

#[test]
fn per_vm_epoch_deltas_sum_to_machine_totals() {
    // Property test over seeded random configurations: for every epoch
    // series, the registry's label sum (host + all VMs) must equal the
    // machine-total delta the kernel metered over the same window, and
    // each VM label must equal that PD's own accounting.
    let mut rng = Lcg::new(0x00D1_CE00);
    for round in 0..4u32 {
        let n = 1 + rng.next_bounded(3) as u16;
        let millis = 4 + rng.next_bounded(8);
        let mut k = small_quantum_kernel();
        for i in 0..n {
            // Mix guest kinds: odd VMs interpret MIR, even VMs run the
            // paravirtualized uC/OS-II compute path.
            let guest = if i % 2 == 0 {
                let mut os = Ucos::new(UcosConfig::default());
                os.task_create(
                    10,
                    Box::new(ComputeTask::new(1_500 + rng.next_bounded(2_000), 8_192)),
                );
                GuestKind::Ucos(Box::new(os))
            } else {
                spin_guest()
            };
            k.create_vm(VmSpec {
                name: "prop",
                priority: Priority::GUEST,
                guest,
            });
        }
        k.enable_metrics();
        let start = k.state.meter_base;
        k.run(Cycles::from_millis(millis as f64));
        let end = k.state.meter_base;
        let d = end.delta(&start);
        let snap = k.metrics();

        let series = [
            ("pmu_cycles", d.cycles),
            ("instr_retired", d.instr_retired),
            ("icache_access", d.l1i_access),
            ("icache_refill", d.l1i_refill),
            ("dcache_access", d.l1d_access),
            ("dcache_refill", d.l1d_refill),
            ("tlb_refill", d.tlb_refill),
            ("pt_walks", d.pt_walks),
            ("exc_taken", d.exc_taken),
        ];
        assert!(d.cycles > 0, "round {round}: the window metered nothing");
        for (name, machine_total) in series {
            assert_eq!(
                snap.total(name),
                machine_total,
                "round {round} (n={n}): label-sum of {name} diverged from the machine delta"
            );
        }
        assert!(
            snap.get("pmu_cycles", Label::Host) > 0,
            "round {round}: scheduler/world-switch work lands on the host label"
        );
        for v in 1..=n {
            let pd = k.pd(VmId(v)).stats.pmu;
            let vm = Label::Vm(v as u8);
            assert_eq!(snap.get("pmu_cycles", vm), pd.cycles);
            assert_eq!(snap.get("instr_retired", vm), pd.instr_retired);
            assert_eq!(snap.get("dcache_refill", vm), pd.l1d_refill);
            assert_eq!(snap.get("tlb_refill", vm), pd.tlb_refill);
            assert_eq!(snap.get("exc_taken", vm), pd.exc_taken);
        }
    }
}
