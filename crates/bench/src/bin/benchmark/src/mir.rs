//! The MIR workloads: four deprivileged guests on the interpreter.
//!
//! * `mir_loop` is the existing throughput loop (an ALU block plus one
//!   `str`/`ldr` pair): the chained executor's best case, hit ratio 1.0.
//!   A translation tier shows its gain here and nowhere else.
//! * `mir_churn` uses the same layer differently: 3,072 blocks per guest,
//!   each ended by a conditional branch (12,288 in all, 1.5× the block
//!   cache's capacity), 64 loads at a 4,128-byte stride over the 2 MiB work
//!   area (4× the TLB's reach), one trapped CONTEXTIDR read and one
//!   `VmInfo` hypercall per iteration. A caching gain on `mir_loop` that
//!   costs more elsewhere shows up here.

use std::time::Instant;

use mini_nova::kernel::{GuestKind, Kernel, KernelConfig, VmSpec};
use mini_nova::mirguest::MirGuest;
use mnv_arm::mir::{AluOp, Cond, Instr, MirCp15, Program, ProgramBuilder};
use mnv_hal::abi::Hypercall;
use mnv_hal::{Cycles, Priority};
use mnv_ucos::layout::{CODE_BASE, WORK_BASE, WORK_LEN};
use mnv_workloads::signal::Lcg;

use crate::report::{metric, LayerInput, Ops, Outcome};
use crate::spans::Recorder;
use crate::system::{drain_trace, lockstep, measure, no_kills, timed_setups, Params, LOCKSTEP_MS};

pub const VMS: usize = 4;
pub const QUANTUM_MS: f64 = 1.0;
pub const SEG_MS: f64 = 20.0;
pub const CHURN_BLOCKS: u32 = 3_072;
pub const CHURN_LOADS: u32 = 64;
pub const CHURN_STRIDE: u32 = 4_128;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Loop,
    Churn,
}

impl Kind {
    /// Simulated ms measured for each second of the run budget.
    fn window_ms_per_s(self) -> f64 {
        match self {
            Kind::Loop => 300.0,
            Kind::Churn => 60.0,
        }
    }
}

/// A guest program and its shape: instructions before the loop and per
/// loop iteration.
struct Guest {
    program: Program,
    prologue: u64,
    body: u64,
}

fn loop_guest(salt: u32) -> Guest {
    let mut b = ProgramBuilder::new();
    b.mov(0, salt);
    b.mov(2, 0x3FFF_FFFF); // countdown: outlives any window
    b.mov(4, WORK_BASE.raw() as u32);
    let prologue = b.len();
    let top = b.label();
    b.bind(top);
    for i in 0..6 {
        b.alu_imm(AluOp::Add, 0, 0, 13 + i);
        b.alu(AluOp::Eor, 0, 0, 3);
        b.alu_imm(AluOp::Lsr, 3, 0, 3);
    }
    b.str(0, 4, 8);
    b.ldr(3, 4, 8);
    b.alu_imm(AluOp::Sub, 2, 2, 1);
    b.alu_imm(AluOp::Cmp, 2, 2, 0);
    b.branch(Cond::Ne, top);
    let body = b.len() - prologue;
    b.halt();
    Guest {
        program: b.assemble(CODE_BASE.raw()),
        prologue: prologue as u64,
        body: body as u64,
    }
}

fn churn_guest(salt: u32) -> Guest {
    let mut b = ProgramBuilder::new();
    b.mov(0, salt);
    b.mov(6, 0);
    b.mov(8, 0); // strided-load cursor
    b.mov(10, (WORK_LEN - 1) as u32);
    b.mov(11, WORK_BASE.raw() as u32);
    let prologue = b.len();
    let top = b.label();
    b.bind(top);
    for i in 0..CHURN_BLOCKS {
        // Both edges of the branch lead to the next block, so every block
        // runs once per iteration whichever way the data goes.
        let next = b.label();
        b.alu_imm(AluOp::Add, 0, 0, i | 1);
        b.alu(AluOp::Eor, 1, 0, 6);
        b.alu_imm(AluOp::Cmp, 1, 1, 0);
        b.branch(Cond::Ne, next);
        b.bind(next);
    }
    for _ in 0..CHURN_LOADS {
        // WORK_BASE is WORK_LEN-aligned, so masking and or-ing wraps the
        // cursor inside the work area.
        b.alu(AluOp::And, 9, 8, 10);
        b.alu(AluOp::Orr, 9, 9, 11);
        b.ldr(3, 9, 0);
        b.alu_imm(AluOp::Add, 8, 8, CHURN_STRIDE);
    }
    b.push(Instr::Mrc {
        rd: 7,
        reg: MirCp15::Contextidr,
    });
    b.mov(0, 0);
    b.mov(1, 0);
    b.svc(Hypercall::VmInfo.nr());
    b.branch(Cond::Al, top);
    let body = b.len() - prologue;
    Guest {
        program: b.assemble(CODE_BASE.raw()),
        prologue: prologue as u64,
        body: body as u64,
    }
}

fn guest(kind: Kind, salt: u32) -> Guest {
    match kind {
        Kind::Loop => loop_guest(salt),
        Kind::Churn => churn_guest(salt),
    }
}

/// Guest salts derived from the workload seed.
fn salts(seed: u64) -> Vec<u32> {
    let mut rng = Lcg::new(seed);
    (0..VMS).map(|_| rng.next_u64() as u32).collect()
}

fn build(kind: Kind, seed: u64, rec: &mut Recorder) -> Kernel {
    let mut k = rec.span("Kernel::new", |_| {
        Kernel::new(KernelConfig {
            quantum: Cycles::from_millis(QUANTUM_MS),
            ..Default::default()
        })
    });
    for salt in salts(seed) {
        let g = guest(kind, salt);
        rec.span("create_vm", |_| {
            k.create_vm(VmSpec {
                name: "mir",
                priority: Priority::GUEST,
                guest: GuestKind::Mir(Box::new(MirGuest::new(g.program))),
            })
        });
    }
    k
}

/// Whole loop iterations the guests retired, and the guests still running.
fn iterations(k: &mut Kernel, shape: &Guest) -> (u64, usize) {
    let vms: Vec<_> = k.state.pds.keys().copied().collect();
    let mut iters = 0;
    let mut alive = 0;
    for vm in vms {
        if let Some(GuestKind::Mir(g)) = k.guest_mut(vm) {
            iters += g.retired.saturating_sub(shape.prologue) / shape.body;
            alive += usize::from(!g.halted);
        }
    }
    (iters, alive)
}

pub fn run(kind: Kind, p: &Params, rec: &mut Recorder) -> Outcome {
    let seed = p.seed;
    let segments = p.segments(kind.window_ms_per_s(), SEG_MS);
    let window_ms = segments as f64 * SEG_MS;
    let (setup_s, mut k) = timed_setups(rec, |rec| build(kind, seed, rec));
    let t0 = Instant::now();
    let (speedup_vs_ref, lock_gate) = lockstep(rec, LOCKSTEP_MS.min(window_ms), |rec| {
        build(kind, seed, rec)
    });
    let mut check_s = t0.elapsed().as_secs_f64();

    let w = measure(&mut k, rec, segments, SEG_MS, |_, _| {});
    let t0 = Instant::now();
    let gates = vec![lock_gate, no_kills("mir", &k)];
    check_s += t0.elapsed().as_secs_f64();
    // Every guest's shape is the same whatever its salt.
    let shape = guest(kind, 0);
    let (iters, alive) = iterations(&mut k, &shape);
    let trace = drain_trace(&k.state.tracer, rec);
    let ops = Ops::over([&w], iters as f64);
    let failed = (VMS - alive) as u64;

    Outcome {
        setup_s,
        ops,
        attempted: VMS as u64,
        failed,
        gates,
        workload: ops.metrics(VMS as u64, failed),
        params: vec![
            metric("guests", VMS as f64, "count"),
            metric("quantum_ms", QUANTUM_MS, "sim_ms"),
            metric("window_ms", window_ms, "sim_ms"),
            metric("segment_ms", SEG_MS, "sim_ms"),
            metric("instrs_per_iteration", shape.body as f64, "count"),
        ],
        layer: LayerInput {
            speedup_vs_ref,
            trace,
            check_s,
            ..LayerInput::default()
        },
        primary: w,
    }
}
