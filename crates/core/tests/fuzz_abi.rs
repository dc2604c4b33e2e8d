//! Hypercall ABI fuzzing: no guest-supplied value may panic the kernel.
//!
//! A seeded generator sprays every hypercall number (valid and invalid)
//! with adversarial argument patterns. The property under test is purely
//! "error, not panic": each call must come back as `Ok` or a typed
//! `HcError`, and afterwards the kernel must still schedule guests and
//! hold no leaked fabric resources.

use mini_nova::hypercall;
use mini_nova::{GuestKind, Kernel, KernelConfig, VmSpec};
use mnv_hal::abi::{Hypercall, HypercallArgs};
use mnv_hal::{Cycles, Priority, VmId};
use mnv_ucos::kernel::{Ucos, UcosConfig};
use mnv_ucos::tasks::AdpcmTask;
use mnv_workloads::signal::Lcg;

fn fuzz_kernel() -> (Kernel, VmId) {
    let mut k = Kernel::new(KernelConfig::default());
    k.register_paper_task_set();
    let mut os = Ucos::new(UcosConfig::default());
    os.task_create(20, Box::new(AdpcmTask::new(1)));
    let vm = k.create_vm(VmSpec {
        name: "fuzz",
        priority: Priority::GUEST,
        guest: GuestKind::Ucos(Box::new(os)),
    });
    (k, vm)
}

/// Argument patterns that historically break kernels: zeros, all-ones,
/// sign boundaries, page/section edges, and raw random words.
fn gen_arg(rng: &mut Lcg) -> u32 {
    match rng.next_bounded(8) {
        0 => 0,
        1 => u32::MAX,
        2 => 0x8000_0000,
        3 => 0x7FFF_FFFF,
        4 => 0xFFFF_F000,                             // top page
        5 => (rng.next_bounded(0x1000) as u32) << 20, // section-aligned
        6 => rng.next_bounded(1 << 24) as u32,        // in-window-ish
        _ => rng.next_u64() as u32,
    }
}

#[test]
fn invalid_call_numbers_decode_to_none() {
    // Past the dense 0..25 range every SVC immediate must decode to None
    // (the trap path turns that into BadCall, never a panic).
    for nr in mnv_hal::abi::HYPERCALL_COUNT as u8..=u8::MAX {
        assert_eq!(Hypercall::from_nr(nr), None, "nr {nr} must be invalid");
    }
}

#[test]
fn random_args_never_panic_and_leak_nothing() {
    let (mut k, vm) = fuzz_kernel();
    let mut rng = Lcg::new(0xF00D);
    let mut ok = 0u64;
    let mut err = 0u64;
    for _ in 0..6_000 {
        let nr = Hypercall::ALL[rng.next_bounded(Hypercall::ALL.len() as u64) as usize];
        let args = HypercallArgs::new(nr)
            .a0(gen_arg(&mut rng))
            .a1(gen_arg(&mut rng))
            .a2(gen_arg(&mut rng))
            .a3(gen_arg(&mut rng));
        // The property: a typed result, never a panic.
        match hypercall::hypercall(&mut k.machine, &mut k.state, vm, args) {
            Ok(_) => ok += 1,
            Err(_) => err += 1,
        }
    }
    assert!(ok > 0, "fuzz must exercise success paths too");
    assert!(err > 0, "fuzz must exercise error paths too");

    // The machine survived: the guest still runs afterwards.
    k.run(Cycles::from_millis(10.0));
    assert!(k.pd(vm).stats.cpu_cycles > 0, "guest no longer schedulable");

    // Tear down and check for fabric leaks: every IRQ line and PRR
    // dispatch tied to the fuzzing VM must drain with it.
    k.destroy_vm(vm);
    assert_eq!(
        k.state.hwmgr.irqs.in_use(),
        0,
        "PL IRQ lines leaked after VM teardown"
    );
    let prrs = k.state.hwmgr.prrs.len() as u8;
    for p in 0..prrs {
        let e = k.state.hwmgr.prrs.entry(p);
        assert!(e.client.is_none(), "PRR {p} still owned by a dead VM");
    }
    assert!(k.state.hwmgr.shadows.is_empty(), "shadow pages leaked");
    assert!(k.state.hwmgr.pcap_owner.is_none(), "PCAP ownership leaked");
}

#[test]
fn hw_task_request_with_hostile_addresses_is_rejected() {
    // The specific Fig. 7 arguments a guest controls: task id, interface
    // VA, data VA. Hostile values must be refused with typed errors.
    let (mut k, vm) = fuzz_kernel();
    let cases = [
        // Unaligned interface VA.
        (0u32, 0x00F0_0001u32, 0x0080_0000u32),
        // Interface VA outside the guest window.
        (0, 0xFFFF_F000, 0x0080_0000),
        // Data VA outside the guest window.
        (0, 0x00F0_0000, 0xFFFF_0000),
        // Nonexistent task id.
        (0xFFFF, 0x00F0_0000, 0x0080_0000),
    ];
    for (task, iface, data) in cases {
        let args = HypercallArgs::new(Hypercall::HwTaskRequest)
            .a0(task)
            .a1(iface)
            .a2(data);
        let r = hypercall::hypercall(&mut k.machine, &mut k.state, vm, args);
        assert!(
            r.is_err(),
            "hostile request {task:#x}/{iface:#x}/{data:#x} must fail, got {r:?}"
        );
    }
    // The fabric is untouched by the rejected requests.
    assert_eq!(k.state.hwmgr.irqs.in_use(), 0);
    assert_eq!(k.state.stats.hwmgr.reconfigs, 0);
}

#[test]
fn fuzz_against_armed_fault_plane() {
    // Same spray, but with chaos faults armed: AXI error patterns on
    // device reads and spurious IRQs must not turn a typed error into a
    // panic anywhere in the hypercall paths.
    let (mut k, vm) = fuzz_kernel();
    let mut plan = mnv_fault::FaultPlan::chaos(0xC0FFEE);
    plan.mem_flip_window = (0, 0); // let the kernel default it
    k.enable_faults(plan);
    let mut rng = Lcg::new(0xBEEF);
    for _ in 0..3_000 {
        let nr = Hypercall::ALL[rng.next_bounded(Hypercall::ALL.len() as u64) as usize];
        let args = HypercallArgs::new(nr)
            .a0(gen_arg(&mut rng))
            .a1(gen_arg(&mut rng))
            .a2(gen_arg(&mut rng))
            .a3(gen_arg(&mut rng));
        let _ = hypercall::hypercall(&mut k.machine, &mut k.state, vm, args);
    }
    k.run(Cycles::from_millis(10.0));
    assert!(k.pd(vm).stats.cpu_cycles > 0);
}

#[test]
fn out_of_range_svc_numbers_land_in_the_invalid_slot() {
    // Regression: an out-of-range SVC immediate used to be a blind spot —
    // the per-call histogram `hypercalls[nr]` must never be indexed with
    // it, and the event must still be visible in the VM's
    // `hypercalls_invalid`.
    // Drive real SVC instructions from a MIR guest so the whole trap path
    // is covered, not just the dispatch function.
    use mini_nova::mirguest::MirGuest;
    use mnv_arm::mir::{Cond, ProgramBuilder};

    let mut k = Kernel::new(KernelConfig::default());
    k.enable_metrics();
    let mut b = ProgramBuilder::new();
    let top = b.label();
    b.bind(top);
    b.svc(mnv_hal::abi::HYPERCALL_COUNT as u8); // first invalid number
    b.svc(0x7F);
    b.svc(0xFF);
    b.svc(Hypercall::VmInfo.nr()); // one valid call in the mix
    b.compute(400);
    b.branch(Cond::Al, top);
    let vm = k.create_vm(VmSpec {
        name: "badsvc",
        priority: Priority::GUEST,
        guest: GuestKind::Mir(Box::new(MirGuest::new(
            b.assemble(mnv_ucos::layout::CODE_BASE.raw()),
        ))),
    });
    k.run(Cycles::from_millis(5.0));

    let s = &k.state.stats;
    let invalid = k.pd(vm).stats.hypercalls_invalid;
    assert!(invalid >= 3, "invalid slot: {invalid}");
    assert!(s.hypercalls[Hypercall::VmInfo.nr() as usize] > 0);
    // Bookkeeping invariant: every counted call is either a valid slot or
    // the invalid slot — nothing leaks past the array bound.
    let valid: u64 = s.hypercalls.iter().sum();
    assert_eq!(valid + invalid, s.hypercalls_total);
    // Invalid calls reach the per-VM `hypercalls` metric too.
    assert_eq!(k.metrics().total("hypercalls"), s.hypercalls_total);
    // The guest survives its own bad calls.
    assert!(k.pd(vm).stats.cpu_cycles > 0);
}

#[test]
fn vm_stats_counts_a_denied_call_but_not_an_invalid_svc() {
    // The guest-visible VmStats answers, pinned: HYPERCALLS counts every
    // call with a known number, a portal-denied one included, and no SVC
    // number that decodes to none. The `hypercalls` metric counts the
    // reverse: calls served plus undecodable numbers.
    use mini_nova::kobj::portal::PortalClass;
    use mini_nova::mirguest::MirGuest;
    use mnv_arm::mir::ProgramBuilder;
    use mnv_hal::abi::vm_stats;
    use mnv_metrics::Label;

    let mut k = Kernel::new(KernelConfig::default());
    k.enable_metrics();
    let mut b = ProgramBuilder::new();
    b.mov(6, 0x0030_0000); // results buffer VA
    b.svc(0x7F); // decodes to no hypercall
    b.mov(0, b'x' as u32);
    b.svc(Hypercall::ConsoleWrite.nr()); // denied: Device portal revoked
    b.mov(0, vm_stats::HYPERCALLS);
    b.svc(Hypercall::VmStats.nr());
    b.str(0, 6, 0);
    b.mov(0, vm_stats::VIRQS);
    b.svc(Hypercall::VmStats.nr());
    b.str(0, 6, 4);
    b.halt();
    let vm = k.create_vm(VmSpec {
        name: "stats",
        priority: Priority::GUEST,
        guest: GuestKind::Mir(Box::new(MirGuest::new(
            b.assemble(mnv_ucos::layout::CODE_BASE.raw()),
        ))),
    });
    let pd = k.state.pds.get_mut(&vm).unwrap();
    pd.portals.revoke_class(PortalClass::Device);
    k.run(Cycles::from_millis(5.0));

    let buf = k.pd(vm).region + 0x0030_0000;
    let answer = |off| k.machine.mem.read_u32(buf + off).unwrap();
    assert_eq!(answer(0), 2, "HYPERCALLS: the denied call and this one");
    assert_eq!(answer(4), 0, "VIRQS: an interpreted guest takes none");
    let s = &k.pd(vm).stats;
    assert_eq!((s.hypercalls_denied, s.hypercalls_invalid), (1, 1));
    let metrics = k.metrics();
    let l = Label::Vm(vm.0 as u8);
    assert_eq!(
        metrics.get("hypercalls", l),
        3,
        "two VmStats + the invalid SVC"
    );
    assert_eq!(metrics.get("hypercalls_denied", l), 1);
}

#[test]
fn two_vm_spray_reports_success_only_on_a_loaded_region() {
    // Two guests request, release and poll hardware tasks, and die, in a
    // seeded mix while simulated time passes. A region may be reported
    // loaded (a non-degraded Success) only once the task's core is really
    // in it — unless the caller's own reconfiguration of that region is
    // still in the channel's slot or its FIFO.
    use mnv_hal::abi::{hw_task_result, HwTaskStatus};
    use mnv_ucos::layout::{hwiface_slot, HWDATA_BASE};

    let mut k = Kernel::new(KernelConfig::default());
    let ids = k.register_paper_task_set();
    let spawn = |k: &mut Kernel| {
        k.create_vm(VmSpec {
            name: "spray",
            priority: Priority::GUEST,
            guest: GuestKind::Ucos(Box::new(Ucos::new(UcosConfig::default()))),
        })
    };
    let mut vms = [spawn(&mut k), spawn(&mut k)];
    let mut rng = Lcg::new(0x5EED);
    let (mut granted, mut reconfiguring, mut deaths) = (0, 0, 0);
    for step in 0..3_000 {
        let i = rng.next_bounded(2) as usize;
        let vm = vms[i];
        let task = ids[rng.next_bounded(ids.len() as u64) as usize];
        let call =
            |k: &mut Kernel, args| hypercall::hypercall(&mut k.machine, &mut k.state, vm, args);
        match rng.next_bounded(100) {
            0..=39 => {
                let args = HypercallArgs::new(Hypercall::HwTaskRequest)
                    .a0(task.0 as u32)
                    .a1(hwiface_slot(rng.next_bounded(2)).raw() as u32)
                    .a2(HWDATA_BASE.raw() as u32);
                let Ok(r) = call(&mut k, args) else { continue };
                match HwTaskStatus::from_u32(r & 0xFF) {
                    Some(HwTaskStatus::Reconfiguring) => reconfiguring += 1,
                    Some(HwTaskStatus::Success) if r & hw_task_result::DEGRADED == 0 => {
                        granted += 1;
                        let prr = (r >> 8) as u8;
                        let mgr = &k.state.hwmgr;
                        let own = mgr
                            .pcap_job
                            .is_some_and(|j| j.client() == Some(vm) && j.prr == prr)
                            || mgr.pcap_queue.iter().any(|q| q.vm == vm && q.prr == prr);
                        let core = mgr.tasks.get(task).unwrap().core;
                        assert!(
                            own || k.pl().prr(prr).loaded_kind() == Some(core),
                            "step {step}: vm{} granted task{} on prr{prr}, which holds {:?}",
                            vm.0,
                            task.0,
                            k.pl().prr(prr).loaded_kind()
                        );
                    }
                    _ => {}
                }
            }
            40..=59 => {
                let _ = call(
                    &mut k,
                    HypercallArgs::new(Hypercall::HwTaskRelease).a0(task.0 as u32),
                );
            }
            60..=97 => {
                let _ = call(&mut k, HypercallArgs::new(Hypercall::PcapPoll));
            }
            // VM ids are never reused: the layout has room for 16.
            _ if deaths == 14 => {}
            _ => {
                k.destroy_vm(vm);
                vms[i] = spawn(&mut k);
                deaths += 1;
            }
        }
        k.check_recovery_invariants()
            .unwrap_or_else(|e| panic!("step {step}: {e}"));
        k.run(Cycles::new(1 + rng.next_bounded(80_000)));
        k.check_recovery_invariants()
            .unwrap_or_else(|e| panic!("step {step}, after running: {e}"));
    }
    assert!(
        granted > 50 && reconfiguring > 50 && deaths == 14,
        "{granted}/{reconfiguring}/{deaths}"
    );
}
