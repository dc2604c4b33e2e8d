//! Kernel-level lockstep: a full four-guest scenario must end in the same
//! state whether the machine runs the decoded-block executor or the
//! per-instruction reference interpreter.
//!
//! The arm-sim harness (`crates/arm-sim/tests/lockstep.rs`) proves
//! bit-identity at the machine layer; this test proves the property
//! survives the kernel on top — world switches, quantum accounting, trap
//! dispatch and idle fast-forward all observe identical clocks and state.

use mini_nova_repro::prelude::*;
use mnv_arm::mir::{AluOp, Cond, ProgramBuilder};

/// A guest that runs a memory-touching arithmetic loop, publishes its
/// checksum into its work area, and halts.
fn worker(iters: u32, salt: u32) -> GuestKind {
    let mut b = ProgramBuilder::new();
    b.mov(0, salt); // checksum accumulator
    b.mov(2, iters);
    b.mov(4, guest_layout::WORK_BASE.raw() as u32);
    let top = b.label();
    b.bind(top);
    b.alu_imm(AluOp::Add, 0, 0, 13);
    b.alu(AluOp::Eor, 0, 0, 2);
    b.str(0, 4, 8);
    b.ldr(3, 4, 8);
    b.alu(AluOp::Add, 0, 0, 3);
    b.alu_imm(AluOp::Sub, 2, 2, 1);
    b.alu_imm(AluOp::Cmp, 2, 2, 0);
    b.branch(Cond::Ne, top);
    b.str(0, 4, 0); // publish the checksum
    b.halt();
    GuestKind::Mir(Box::new(MirGuest::new(
        b.assemble(guest_layout::CODE_BASE.raw()),
    )))
}

fn build(cache_on: bool) -> (Kernel, Vec<VmId>) {
    let mut k = Kernel::new(KernelConfig {
        // A short slice so all four guests interleave many times.
        quantum: Cycles::from_millis(1.0),
        ..KernelConfig::default()
    });
    k.machine.bcache.enabled = cache_on;
    let vms = (0..4u32)
        .map(|i| {
            k.create_vm(VmSpec {
                name: "worker",
                priority: Priority::GUEST,
                guest: worker(20_000 + 5_000 * i, 0x5EED + i),
            })
        })
        .collect();
    (k, vms)
}

#[test]
fn four_guest_scenario_is_bit_identical_across_executors() {
    let (mut fast, vms_f) = build(true);
    let (mut slow, vms_s) = build(false);
    let dur = Cycles::from_millis(40.0);
    fast.run(dur);
    slow.run(dur);

    assert_eq!(
        fast.machine.now(),
        slow.machine.now(),
        "kernel clocks diverged"
    );
    assert_eq!(
        fast.machine.instructions_retired,
        slow.machine.instructions_retired
    );
    assert_eq!(fast.state.stats.vm_switches, slow.state.stats.vm_switches);
    assert_eq!(fast.state.stats.vms_killed, 0);
    assert_eq!(slow.state.stats.vms_killed, 0);
    for (&vf, &vs) in vms_f.iter().zip(&vms_s) {
        let pa_f = fast.pd(vf).region + guest_layout::WORK_BASE.raw();
        let pa_s = slow.pd(vs).region + guest_layout::WORK_BASE.raw();
        let sum_f = fast.machine.mem.read_u32(pa_f).unwrap();
        let sum_s = slow.machine.mem.read_u32(pa_s).unwrap();
        assert_ne!(sum_f, 0, "guest {vf:?} never published its checksum");
        assert_eq!(sum_f, sum_s, "guest {vf:?} checksum diverged");
        assert_eq!(fast.pd(vf).state, slow.pd(vs).state);
    }
    let s = &fast.machine.bcache.stats;
    assert!(
        s.hit_ratio() > 0.9,
        "loopy guests must replay from the cache (hit ratio {:.3})",
        s.hit_ratio()
    );
    assert!(s.chain_follows > 0, "the loop back-edge was never chained");
    assert!(s.batched_instrs > 0, "the batched replay loop never ran");
    assert_eq!(
        slow.machine.bcache.stats.hits + slow.machine.bcache.stats.misses,
        0
    );
}
