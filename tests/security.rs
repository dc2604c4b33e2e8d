//! Adversarial tests of the isolation and DPR-security mechanisms
//! (§III-C and §IV-C): rogue guests attacking memory isolation, privileged
//! state, device DMA and the capability system.

use mini_nova_repro::prelude::*;
use mnv_arm::mir::{Instr, MirCp15, ProgramBuilder};
use mnv_fpga::prr::{ctrl as prr_ctrl, regs as prr_regs};

/// A canary written into one VM's memory, checked after another VM runs.
fn plant_canary(kernel: &mut Kernel, vm: VmId, off: u64, value: u32) {
    let pa = kernel.pd(vm).region + off;
    kernel.machine.mem.write_u32(pa, value).unwrap();
}

fn read_canary(kernel: &Kernel, vm: VmId, off: u64) -> u32 {
    let pa = kernel.pd(vm).region + off;
    kernel.machine.mem.read_u32(pa).unwrap()
}

#[test]
fn rogue_mir_guest_cannot_write_privileged_state() {
    // A guest attempting an MCR to the DACR must be killed without the
    // write taking effect.
    let mut k = Kernel::new(KernelConfig::default());
    let mut b = ProgramBuilder::new();
    b.mov(0, 0xFFFF_FFFF); // manager access to every domain: jackpot if it lands
    b.push(Instr::Mcr {
        reg: MirCp15::Dacr,
        rs: 0,
    });
    b.halt();
    let vm = k.create_vm(VmSpec {
        name: "rogue",
        priority: Priority::GUEST,
        guest: GuestKind::Mir(Box::new(MirGuest::new(
            b.assemble(guest_layout::CODE_BASE.raw()),
        ))),
    });
    k.run(Cycles::from_millis(5.0));
    assert_eq!(k.pd(vm).state, mini_nova::PdState::Halted, "rogue must die");
    assert_eq!(k.state.stats.vms_killed, 1);
    assert_ne!(
        k.machine.cp15.dacr, 0xFFFF_FFFF,
        "the privileged write must not land"
    );
}

#[test]
fn policy_kill_is_recorded_like_a_kernel_kill() {
    // Regression: a MIR guest killed for writing a privileged CP15
    // register used to bump `vms_killed` and nothing else — no trace
    // event, no registry count, no post-mortem. It now goes through the
    // same lifecycle note as `Kernel::kill_vm`.
    let mut k = Kernel::new(KernelConfig::default());
    let tracer = k.enable_tracing(1 << 12);
    let reg = k.enable_metrics();
    let profiler = k.enable_profiling(mnv_profile::DEFAULT_PERIOD);
    let mut b = ProgramBuilder::new();
    b.mov(0, 0);
    b.push(Instr::Mcr {
        reg: MirCp15::Ttbr0,
        rs: 0,
    });
    b.halt();
    let vm = k.create_vm(VmSpec {
        name: "rogue",
        priority: Priority::GUEST,
        guest: GuestKind::Mir(Box::new(MirGuest::new(
            b.assemble(guest_layout::CODE_BASE.raw()),
        ))),
    });
    k.run(Cycles::from_millis(5.0));
    assert_eq!(k.state.stats.vms_killed, 1);
    assert_eq!(reg.get("vms_killed", mnv_metrics::Label::Machine), 1);
    let dump = profiler.last_dump().expect("the kill dumps a post-mortem");
    let pm = mnv_profile::postmortem::parse(&dump).unwrap();
    assert_eq!(pm.reason, "vm-killed");
    assert!(tracer.is_enabled());
    let kills: Vec<_> = tracer
        .snapshot()
        .into_iter()
        .filter(|(_, ev)| matches!(ev, mnv_trace::TraceEvent::VmKilled { .. }))
        .collect();
    assert_eq!(kills.len(), 1, "exactly one VmKilled in the ring");
    assert_eq!(kills[0].1, mnv_trace::TraceEvent::VmKilled { vm: vm.0 });
    assert_eq!(pm.events.last().unwrap().1, "VmKilled");
}

#[test]
fn rogue_mir_guest_cannot_raise_privilege_via_msr() {
    // The classic non-trapping sensitive instruction: MSR CPSR with a
    // privileged mode request silently updates flags only — the guest
    // cannot escalate, and the kernel does not even need to intervene.
    let mut k = Kernel::new(KernelConfig::default());
    let mut b = ProgramBuilder::new();
    b.mov(0, 0b10011); // request SVC mode
    b.push(Instr::MsrCpsr { rs: 0 });
    // Now try a privileged CP15 *read* which would succeed at PL1: if the
    // escalation worked we would NOT trap.
    b.push(Instr::Mrc {
        rd: 1,
        reg: MirCp15::Dacr,
    });
    b.halt();
    let vm = k.create_vm(VmSpec {
        name: "escalator",
        priority: Priority::GUEST,
        guest: GuestKind::Mir(Box::new(MirGuest::new(
            b.assemble(guest_layout::CODE_BASE.raw()),
        ))),
    });
    k.run(Cycles::from_millis(5.0));
    // The MRC trapped (and was emulated with the *virtual* DACR); the VM
    // ran to completion (Halted == finished) without being killed.
    let _ = vm;
    assert_eq!(k.state.stats.vms_killed, 0, "MSR must not be fatal");
    assert!(
        mnv_arm::cpu::exceptions_taken(&k.machine.cpu, mnv_arm::cpu::ExceptionKind::Undefined) >= 1,
        "the MRC after the failed escalation must still trap"
    );
}

#[test]
fn guest_cannot_map_foreign_physical_memory() {
    // MapInsert only accepts offsets inside the caller's own region; an
    // offset beyond it (which would reach the next VM's region) is denied.
    use mnv_ucos::task::{GuestTask, TaskAction, TaskCtx};
    use std::cell::Cell;
    use std::rc::Rc;

    struct Attacker {
        denied: Rc<Cell<bool>>,
    }
    impl GuestTask for Attacker {
        fn name(&self) -> &'static str {
            "mapper"
        }
        fn step(&mut self, ctx: &mut TaskCtx<'_>) -> TaskAction {
            // Offset 16 MB + 4 KB = inside VM2's region if unchecked.
            let r = ctx.env.hypercall(
                HypercallArgs::new(Hypercall::MapInsert)
                    .a0(0x0030_0000)
                    .a1(0x0100_1000)
                    .a2(0),
            );
            self.denied
                .set(matches!(r, Err(mnv_hal::abi::HcError::Denied)));
            TaskAction::Done
        }
    }

    let mut k = Kernel::new(KernelConfig::default());
    let denied = Rc::new(Cell::new(false));
    let mut os = Ucos::new(UcosConfig::default());
    os.task_create(
        10,
        Box::new(Attacker {
            denied: denied.clone(),
        }),
    );
    k.create_vm(VmSpec {
        name: "attacker",
        priority: Priority::GUEST,
        guest: GuestKind::Ucos(Box::new(os)),
    });
    let victim = k.create_vm(VmSpec {
        name: "victim",
        priority: Priority::GUEST,
        guest: GuestKind::Ucos(Box::new(Ucos::new(UcosConfig::default()))),
    });
    plant_canary(&mut k, victim, 0x1000, 0xCAFE_F00D);
    k.run(Cycles::from_millis(10.0));
    assert!(denied.get(), "cross-region MapInsert must be denied");
    assert_eq!(read_canary(&k, victim, 0x1000), 0xCAFE_F00D);
}

#[test]
fn forged_dma_address_is_blocked_by_hwmmu() {
    // The §IV-C attack: a guest legitimately owns a hardware task but
    // programs the accelerator's DMA registers with another VM's physical
    // addresses. The hwMMU must refuse and the victim's memory must be
    // untouched.
    use mnv_ucos::task::{GuestTask, TaskAction, TaskCtx};
    use std::cell::Cell;
    use std::rc::Rc;

    struct DmaForger {
        task: HwTaskId,
        victim_pa: u32,
        outcome: Rc<Cell<u32>>, // PARAM0 error code observed
    }
    impl GuestTask for DmaForger {
        fn name(&self) -> &'static str {
            "dma-forger"
        }
        fn step(&mut self, ctx: &mut TaskCtx<'_>) -> TaskAction {
            let Ok((client, st)) = HwTaskClient::request(
                ctx.env,
                self.task,
                guest_layout::hwiface_slot(0),
                guest_layout::HWDATA_BASE,
            ) else {
                return TaskAction::Delay(1);
            };
            if st == HwTaskStatus::Reconfiguring
                && client.wait_configured(ctx.env, 100_000).is_err()
            {
                return TaskAction::Delay(1);
            }
            // Forge: point SRC at the victim's region, DST at our own.
            let iface = guest_layout::hwiface_slot(0);
            let _ = ctx
                .env
                .write_u32(iface + 4 * prr_regs::SRC_ADDR as u64, self.victim_pa);
            let _ = ctx.env.write_u32(iface + 4 * prr_regs::SRC_LEN as u64, 64);
            let _ = ctx.env.write_u32(
                iface + 4 * prr_regs::DST_ADDR as u64,
                client.data_phys + 0x1000,
            );
            let _ = ctx
                .env
                .write_u32(iface + 4 * prr_regs::DST_LEN as u64, 4096);
            let _ = ctx
                .env
                .write_u32(iface + 4 * prr_regs::CTRL as u64, prr_ctrl::START);
            // Read back the error code.
            let code = ctx
                .env
                .read_u32(iface + 4 * prr_regs::PARAM0 as u64)
                .unwrap_or(0);
            self.outcome.set(code);
            TaskAction::Done
        }
    }

    let mut k = Kernel::new(KernelConfig::default());
    let qam = k.register_hw_task(CoreKind::Qam { bits_per_symbol: 2 });
    let outcome = Rc::new(Cell::new(0));
    let victim = {
        let mut os = Ucos::new(UcosConfig::default());
        os.task_create(20, Box::new(AdpcmTask::new(9)));
        // Attacker created second so the victim is VM1.
        let victim = VmId(1);
        let v = GuestKind::Ucos(Box::new(os));
        let id = k.create_vm(VmSpec {
            name: "victim",
            priority: Priority::GUEST,
            guest: v,
        });
        assert_eq!(id, victim);
        id
    };
    plant_canary(&mut k, victim, 0x2000, 0x5EC_0DE);

    let victim_pa = (k.pd(victim).region + 0x2000).raw() as u32;
    let mut os = Ucos::new(UcosConfig::default());
    os.task_create(
        8,
        Box::new(DmaForger {
            task: qam,
            victim_pa,
            outcome: outcome.clone(),
        }),
    );
    k.create_vm(VmSpec {
        name: "forger",
        priority: Priority::GUEST,
        guest: GuestKind::Ucos(Box::new(os)),
    });

    k.run(Cycles::from_millis(60.0));

    assert_eq!(
        outcome.get(),
        mnv_fpga::prr::errcode::HWMMU_VIOLATION,
        "the device must refuse the forged transfer"
    );
    assert!(k.pl().hwmmu().violation_count >= 1);
    assert_eq!(
        read_canary(&k, victim, 0x2000),
        0x5EC_0DE,
        "victim memory untouched"
    );
}

#[test]
fn portal_revocation_denies_hypercalls() {
    use mnv_ucos::task::{GuestTask, TaskAction, TaskCtx};
    use std::cell::Cell;
    use std::rc::Rc;

    struct Requester {
        result: Rc<Cell<i32>>,
    }
    impl GuestTask for Requester {
        fn name(&self) -> &'static str {
            "requester"
        }
        fn step(&mut self, ctx: &mut TaskCtx<'_>) -> TaskAction {
            let r = ctx.env.hypercall(
                HypercallArgs::new(Hypercall::HwTaskRequest)
                    .a0(0)
                    .a1(guest_layout::hwiface_slot(0).raw() as u32)
                    .a2(guest_layout::HWDATA_BASE.raw() as u32),
            );
            self.result.set(match r {
                Err(mnv_hal::abi::HcError::Denied) => 1,
                Ok(_) => 2,
                Err(_) => 3,
            });
            TaskAction::Done
        }
    }

    let mut k = Kernel::new(KernelConfig::default());
    k.register_paper_task_set();
    let result = Rc::new(Cell::new(0));
    let mut os = Ucos::new(UcosConfig::default());
    os.task_create(
        10,
        Box::new(Requester {
            result: result.clone(),
        }),
    );
    let vm = k.create_vm(VmSpec {
        name: "unprivileged",
        priority: Priority::GUEST,
        guest: GuestKind::Ucos(Box::new(os)),
    });
    // Revoke the whole device portal class for this PD.
    k.state
        .pds
        .get_mut(&vm)
        .unwrap()
        .portals
        .revoke_class(mini_nova::kobj::portal::PortalClass::Device);
    k.run(Cycles::from_millis(10.0));
    assert_eq!(result.get(), 1, "device portal must be denied");
    assert_eq!(k.state.stats.hwmgr.invocations, 0);
    assert!(k.state.stats.hypercalls_denied >= 1);
}

#[test]
fn released_task_leaves_no_dma_window_open() {
    // After HwTaskRelease the hwMMU window must be closed: a task started
    // through a stale (still mapped? no — demapped) interface cannot move
    // data. We check the hwMMU window is zeroed.
    use mnv_ucos::task::{GuestTask, TaskAction, TaskCtx};

    struct UseAndRelease {
        task: HwTaskId,
    }
    impl GuestTask for UseAndRelease {
        fn name(&self) -> &'static str {
            "use-release"
        }
        fn step(&mut self, ctx: &mut TaskCtx<'_>) -> TaskAction {
            let Ok((client, st)) = HwTaskClient::request(
                ctx.env,
                self.task,
                guest_layout::hwiface_slot(0),
                guest_layout::HWDATA_BASE,
            ) else {
                return TaskAction::Delay(1);
            };
            if st == HwTaskStatus::Reconfiguring
                && client.wait_configured(ctx.env, 100_000).is_err()
            {
                return TaskAction::Delay(1);
            }
            client.release(ctx.env);
            TaskAction::Done
        }
    }

    let mut k = Kernel::new(KernelConfig::default());
    let qam = k.register_hw_task(CoreKind::Qam { bits_per_symbol: 4 });
    let mut os = Ucos::new(UcosConfig::default());
    os.task_create(8, Box::new(UseAndRelease { task: qam }));
    k.create_vm(VmSpec {
        name: "g",
        priority: Priority::GUEST,
        guest: GuestKind::Ucos(Box::new(os)),
    });
    k.run(Cycles::from_millis(40.0));
    // Window 0 (the QAM task landed in some PRR; find it) must be closed.
    for p in 0..k.pl().num_prrs() as u8 {
        let w = k.pl().hwmmu().window(p);
        assert_eq!(w.len, 0, "PRR{p} window must be closed after release");
    }
}
