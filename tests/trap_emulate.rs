//! Trap-and-emulate paths through the MIR interpreter: hypercalls from
//! "assembly", the lazy VFP switch across two VMs, guest fault forwarding,
//! and the quantum behaviour of interpreted guests.

use mini_nova_repro::prelude::*;
use mnv_arm::mir::{AluOp, Cond, Instr, ProgramBuilder};

fn mir_vm(k: &mut Kernel, b: ProgramBuilder) -> VmId {
    k.create_vm(VmSpec {
        name: "mir",
        priority: Priority::GUEST,
        guest: GuestKind::Mir(Box::new(MirGuest::new(
            b.assemble(guest_layout::CODE_BASE.raw()),
        ))),
    })
}

#[test]
fn mir_guest_issues_hypercalls_with_results_in_r0() {
    // The guest queries its VM id and region base via VmInfo and stores
    // both to memory; the host checks the stored values.
    let mut k = Kernel::new(KernelConfig::default());
    let mut b = ProgramBuilder::new();
    b.mov(6, 0x0030_0000); // results buffer VA
    b.mov(1, 0); // field 0: vm id
    b.svc(Hypercall::VmInfo.nr());
    b.str(0, 6, 0);
    b.mov(1, 1); // field 1: region base
    b.svc(Hypercall::VmInfo.nr());
    b.str(0, 6, 4);
    b.halt();
    let vm = mir_vm(&mut k, b);
    k.run(Cycles::from_millis(5.0));

    let region = k.pd(vm).region;
    let buf = region + 0x0030_0000;
    assert_eq!(k.machine.mem.read_u32(buf).unwrap(), vm.0 as u32);
    assert_eq!(
        k.machine.mem.read_u32(buf + 4).unwrap(),
        region.raw() as u32
    );
}

#[test]
fn mir_guest_sees_hypercall_errors_in_r1() {
    // An out-of-range IRQ number: r0 = failure sentinel, r1 = BadArg code.
    let mut k = Kernel::new(KernelConfig::default());
    let mut b = ProgramBuilder::new();
    b.mov(0, 9999); // bogus IRQ
    b.svc(Hypercall::IrqEnable.nr());
    b.mov(6, 0x0030_0000);
    b.str(0, 6, 0);
    b.str(1, 6, 4);
    b.halt();
    let vm = mir_vm(&mut k, b);
    k.run(Cycles::from_millis(5.0));
    let buf = k.pd(vm).region + 0x0030_0000;
    assert_eq!(
        k.machine.mem.read_u32(buf).unwrap(),
        mini_nova::mirguest::HC_FAIL
    );
    assert_eq!(k.machine.mem.read_u32(buf + 4).unwrap(), 2, "BadArg code");
}

#[test]
fn lazy_vfp_switch_preserves_both_vms_banks() {
    // Two MIR guests accumulate different sums in d0; lazy switching must
    // keep the banks isolated even though they share the physical VFP.
    let mut k = Kernel::new(KernelConfig {
        quantum: Cycles::from_micros(100.0),
        ..Default::default()
    });
    let mut vms = Vec::new();
    for _ in 0..2 {
        let mut b = ProgramBuilder::new();
        b.mov(5, 200); // iterations
        let top = b.label();
        b.bind(top);
        b.push(Instr::VfpOp {
            op: 0,
            rd: 0,
            rn: 0,
            rm: 1,
        }); // d0 += d1
        b.compute(300);
        b.alu_imm(AluOp::Sub, 5, 5, 1);
        b.alu_imm(AluOp::Cmp, 5, 5, 0);
        b.branch(Cond::Ne, top);
        b.push(Instr::Wfi);
        b.halt();
        vms.push(mir_vm(&mut k, b));
    }
    // Seed each VM's d1 differently via its saved vCPU image.
    k.state.pds.get_mut(&vms[0]).unwrap().vcpu.vfp.d[1] = 1.0;
    k.state.pds.get_mut(&vms[1]).unwrap().vcpu.vfp.d[1] = 2.0;

    k.run(Cycles::from_millis(10.0));

    // Collect final banks (park whoever still owns the hardware bank).
    let owner = k.state.vfp_owner;
    if let Some(o) = owner {
        let m = &mut k.machine;
        m.vfp.enabled = true;
        let pd = k.state.pds.get_mut(&o).unwrap();
        pd.vcpu.vfp_park(m, o);
    }
    let d0_a = k.pd(vms[0]).vcpu.vfp.d[0];
    let d0_b = k.pd(vms[1]).vcpu.vfp.d[0];
    assert_eq!(d0_a, 200.0, "VM1 sum of 200 × 1.0");
    assert_eq!(d0_b, 400.0, "VM2 sum of 200 × 2.0");
    assert!(
        k.state.stats.vfp_lazy_switches >= 2,
        "bank must have moved lazily: {}",
        k.state.stats.vfp_lazy_switches
    );
}

#[test]
fn guest_fault_is_forwarded_to_registered_abort_handler() {
    // The §IV-E mechanism: touching a demapped page traps; with a handler
    // registered, the kernel forwards DFAR/DFSR in r0/r1 instead of
    // killing the VM.
    let mut k = Kernel::new(KernelConfig::default());
    let mut b = ProgramBuilder::new();
    // Main: read an unmapped VA (the interface megabyte is unmapped by
    // default).
    b.mov(2, guest_layout::HWIFACE_BASE.raw() as u32);
    b.ldr(3, 2, 0); // faults
    b.halt(); // skipped: the handler runs instead
              // Handler at a known label: store DFAR to the result buffer, halt.
    let handler = b.label();
    b.bind(handler);
    b.mov(6, 0x0030_0000);
    b.str(0, 6, 0); // DFAR
    b.str(1, 6, 4); // DFSR
    b.halt();
    let handler_va = guest_layout::CODE_BASE.raw() as u32 + 3 * mnv_arm::mir::INSTR_SIZE as u32;

    let prog = b.assemble(guest_layout::CODE_BASE.raw());
    let mut mir = MirGuest::new(prog);
    mir.abort_handler = handler_va;
    let vm = k.create_vm(VmSpec {
        name: "faulter",
        priority: Priority::GUEST,
        guest: GuestKind::Mir(Box::new(mir)),
    });
    k.run(Cycles::from_millis(5.0));

    let buf = k.pd(vm).region + 0x0030_0000;
    assert_eq!(
        k.machine.mem.read_u32(buf).unwrap(),
        guest_layout::HWIFACE_BASE.raw() as u32,
        "handler must receive the faulting address"
    );
    let fsr = k.machine.mem.read_u32(buf + 4).unwrap();
    assert_eq!(fsr, 0b00101, "section translation fault (the interface megabyte has no L1 entry until the manager maps a page)");
    assert_eq!(k.state.stats.faults_forwarded, 1);
    assert_eq!(k.state.stats.vms_killed, 0);
}

#[test]
fn unhandled_guest_fault_kills_the_vm() {
    let mut k = Kernel::new(KernelConfig::default());
    let mut b = ProgramBuilder::new();
    b.mov(2, 0x00F0_0000);
    b.ldr(3, 2, 0);
    b.halt();
    let vm = mir_vm(&mut k, b);
    k.run(Cycles::from_millis(5.0));
    assert_eq!(k.pd(vm).state, mini_nova::PdState::Halted);
    assert_eq!(k.state.stats.vms_killed, 1);
}

#[test]
fn unhandled_guest_fault_is_not_counted_as_forwarded() {
    // No abort handler: the abort kills the VM, so neither the machine-wide
    // nor the VM's forwarded-fault count moves and no FaultForwarded event
    // is traced.
    let mut k = Kernel::new(KernelConfig::default());
    let tracer = k.enable_tracing(1024);
    let mut b = ProgramBuilder::new();
    b.mov(2, 0x00F0_0000);
    b.ldr(3, 2, 0);
    b.halt();
    let vm = mir_vm(&mut k, b);
    k.run(Cycles::from_millis(5.0));
    assert_eq!(k.state.stats.vms_killed, 1);
    assert_eq!(k.state.stats.faults_forwarded, 0);
    assert_eq!(k.pd(vm).stats.faults_forwarded, 0);
    assert!(!tracer
        .snapshot()
        .iter()
        .any(|(_, e)| matches!(e, mnv_trace::TraceEvent::FaultForwarded { .. })));
    assert_eq!(k.state.stats.check_vm_totals(&k.state.pds), Ok(()));
}

#[test]
fn interpreted_guests_share_cpu_by_quantum() {
    let mut k = Kernel::new(KernelConfig {
        quantum: Cycles::from_micros(500.0),
        ..Default::default()
    });
    let mut vms = Vec::new();
    for _ in 0..2 {
        let mut b = ProgramBuilder::new();
        let top = b.label();
        b.bind(top);
        b.compute(100);
        b.branch(Cond::Al, top);
        vms.push(mir_vm(&mut k, b));
    }
    k.run(Cycles::from_millis(20.0));
    let a = k.pd(vms[0]).stats.cpu_cycles as f64;
    let b = k.pd(vms[1]).stats.cpu_cycles as f64;
    assert!(a > 0.0 && b > 0.0);
    let ratio = a.max(b) / a.min(b);
    assert!(ratio < 1.2, "quantum sharing: {a} vs {b}");
    // Both guests retired instructions through the interpreter.
    assert!(k.machine.instructions_retired > 10_000);
}
