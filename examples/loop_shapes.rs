//! Host cost of the block executor per MIR loop shape. Four guests at a
//! 1 ms quantum run the benchmark's `mir_loop` body or a variant of it:
//! its 18 ALU instructions doubled, its `str`/`ldr` pair replaced by `str`
//! plus one ALU instruction, or by two ALU instructions. The minimum over
//! 7 rounds of 300 simulated ms gives host ns per loop iteration; the
//! differences between shapes give the cost per instruction class
//! (EXPERIMENTS.md, "Simulator throughput"). Host times vary with the
//! machine; every simulated count is deterministic.
//!
//! ```sh
//! cargo run --release --example loop_shapes
//! ```

use std::time::Instant;

use mini_nova_repro::arm::mir::{AluOp, Cond, Program, ProgramBuilder};
use mini_nova_repro::prelude::*;

/// The body's memory traffic: `str` then `ldr`, `str` then one ALU op, or
/// two ALU ops.
#[derive(Clone, Copy)]
enum Mem {
    StrLdr,
    Str,
    None,
}

/// A guest looping over `groups` three-instruction ALU groups, then
/// `mem`, then the countdown; returns the program and its body length.
fn guest(salt: u32, groups: u32, mem: Mem) -> (Program, u64) {
    let mut b = ProgramBuilder::new();
    b.mov(0, salt);
    b.mov(2, 0x3FFF_FFFF); // countdown: outlives any round
    b.mov(4, guest_layout::WORK_BASE.raw() as u32);
    let prologue = b.len();
    let top = b.label();
    b.bind(top);
    for i in 0..groups {
        b.alu_imm(AluOp::Add, 0, 0, 13 + i);
        b.alu(AluOp::Eor, 0, 0, 3);
        b.alu_imm(AluOp::Lsr, 3, 0, 3);
    }
    match mem {
        Mem::StrLdr => b.str(0, 4, 8).ldr(3, 4, 8),
        Mem::Str => b.str(0, 4, 8).alu_imm(AluOp::Orr, 3, 0, 8),
        Mem::None => b.alu_imm(AluOp::Add, 5, 0, 8).alu_imm(AluOp::Orr, 3, 5, 8),
    };
    b.alu_imm(AluOp::Sub, 2, 2, 1);
    b.alu_imm(AluOp::Cmp, 2, 2, 0);
    b.branch(Cond::Ne, top);
    let body = b.len() - prologue;
    b.halt();
    let base = guest_layout::CODE_BASE.raw();
    (b.assemble(base), body as u64)
}

/// Instructions the guests have retired so far.
fn retired(k: &mut Kernel, vms: &[VmId]) -> u64 {
    vms.iter()
        .map(|&vm| match k.guest_mut(vm) {
            Some(GuestKind::Mir(g)) => g.retired,
            _ => 0,
        })
        .sum()
}

fn main() {
    let shapes = [
        ("18 ALU + str/ldr (mir_loop)", 6, Mem::StrLdr),
        ("36 ALU + str/ldr", 12, Mem::StrLdr),
        ("18 ALU + str + 1 ALU", 6, Mem::Str),
        ("18 ALU + 2 ALU", 6, Mem::None),
        ("36 ALU + 2 ALU", 12, Mem::None),
    ];
    println!(
        "{:28} {:>5} {:>9} {:>9}",
        "loop shape", "body", "ns/iter", "ns/instr"
    );
    for (name, groups, mem) in shapes {
        let mut best = f64::MAX;
        let mut body = 0;
        for _ in 0..7 {
            let mut k = Kernel::new(KernelConfig {
                quantum: Cycles::from_millis(1.0),
                ..KernelConfig::default()
            });
            let vms: Vec<VmId> = (0..4u32)
                .map(|i| {
                    let (program, len) = guest(0x5EED + i, groups, mem);
                    body = len;
                    k.create_vm(VmSpec {
                        name: "mir",
                        priority: Priority::GUEST,
                        guest: GuestKind::Mir(Box::new(MirGuest::new(program))),
                    })
                })
                .collect();
            // Warm up: blocks recorded, chains patched, runs lowered.
            k.run(Cycles::from_millis(20.0));
            let before = retired(&mut k, &vms);
            let t0 = Instant::now();
            k.run(Cycles::from_millis(300.0));
            let secs = t0.elapsed().as_secs_f64();
            let iterations = (retired(&mut k, &vms) - before) as f64 / body as f64;
            best = best.min(secs * 1e9 / iterations);
        }
        let per_instr = best / body as f64;
        println!("{name:28} {body:>5} {best:>9.2} {per_instr:>9.2}");
    }
}
