//! Directed lockstep tests for block chaining and superblocks.
//!
//! The random harness in `lockstep.rs` only occasionally produces the
//! shapes that matter most to the chained executor, so these tests build
//! them on purpose:
//!
//! * self-modifying code that rewrites a *chained successor* while the
//!   chain is hot — the store lands in the same code chunk the running
//!   superblock was decoded from, so the executor must drop the stale
//!   block (and every link into it) mid-chain and re-decode;
//! * `TLBIASID` fired between two chained blocks — maintenance that drops
//!   every block recorded under the ASID, severing live successor links
//!   that the executor would otherwise follow without a lookup;
//! * code larger than the block cache — two ASIDs taking turns over one
//!   loop of conditional-branch blocks, 1.5× `MAX_BLOCKS` keys in all, so
//!   every turn evicts blocks the other ASID's chains still point into.
//!
//! All run a cache-enabled and a cache-disabled machine over an identical
//! slice schedule and compare full architectural state at every boundary
//! and every trap, exactly like `lockstep.rs`.

mod common;

use common::{advance, assert_same, chain_heavy_program, service, Lcg, CODE_BASE};
use mnv_arm::blockcache::MAX_BLOCKS;
use mnv_arm::machine::{bare_machine, Machine};
use mnv_arm::mir::{AluOp, Cond, Program, ProgramBuilder, INSTR_SIZE};
use mnv_arm::psr::Psr;
use mnv_hal::{Asid, Cycles, IrqNum, PhysAddr};

/// Iterations the rewrite target executes in its *original* form (the SMC
/// store fires inside iteration `SMC_AT`, after that iteration's visit).
const SMC_AT: u32 = 12;
/// Total loop iterations, so `LOOPS - SMC_AT` run the rewritten form.
const LOOPS: u32 = 40;

/// Build the SMC program: three blocks `A → B → C` stitched by
/// unconditional branches (so the decoder chains and fuses them), looped
/// `LOOPS` times. On iteration `SMC_AT`, block C copies an 8-byte literal
/// instruction over B's first instruction — `r1 += 13` becomes
/// `r1 += 999` — so the final value of r1 proves exactly when the rewrite
/// became architecturally visible. Returns the program.
fn smc_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.mov(1, 0); // accumulator written by the rewrite target
    b.mov(2, LOOPS); // loop countdown
    b.mov(9, SMC_AT); // SMC trigger countdown
    b.mov(6, CODE_BASE as u32); // code-pointer base for the copy

    // Literal: the replacement instruction, jumped over, never executed.
    let entry = b.label();
    b.branch(Cond::Al, entry);
    let lit_off = (b.len() as u64 * INSTR_SIZE) as u32;
    b.alu_imm(AluOp::Add, 1, 1, 999);
    b.bind(entry);

    // Block A.
    let top = b.label();
    b.bind(top);
    b.alu_imm(AluOp::Add, 0, 0, 7);
    b.alu(AluOp::Eor, 0, 0, 1);
    let to_b = b.label();
    b.branch(Cond::Al, to_b); // unconditional seam: A chains/fuses to B

    // Block B — first instruction is the rewrite target.
    b.bind(to_b);
    let dst_off = (b.len() as u64 * INSTR_SIZE) as u32;
    b.alu_imm(AluOp::Add, 1, 1, 13);
    b.alu(AluOp::Eor, 0, 0, 1);
    let to_c = b.label();
    b.branch(Cond::Al, to_c); // unconditional seam: B chains/fuses to C

    // Block C: fire the SMC copy exactly once, then loop.
    b.bind(to_c);
    b.alu_imm(AluOp::Sub, 9, 9, 1);
    b.alu_imm(AluOp::Cmp, 9, 9, 0);
    let skip = b.label();
    b.branch(Cond::Ne, skip);
    // Copy both words of the 8-byte literal over B's first instruction.
    // The stores land in the chunk every live block was decoded from.
    b.ldr(5, 6, lit_off);
    b.str(5, 6, dst_off);
    b.ldr(5, 6, lit_off + 4);
    b.str(5, 6, dst_off + 4);
    b.bind(skip);
    b.alu_imm(AluOp::Sub, 2, 2, 1);
    b.alu_imm(AluOp::Cmp, 2, 2, 0);
    b.branch(Cond::Ne, top);
    b.halt();
    b.assemble(CODE_BASE)
}

fn make_pair(prog: &Program, timer_period: u64) -> (Machine, Machine) {
    let make = |cache_on: bool| {
        let mut m = bare_machine();
        m.load_program(prog, PhysAddr::new(CODE_BASE)).unwrap();
        m.cpu.pc = CODE_BASE as u32;
        m.cpu.cpsr = Psr::user();
        m.cpu.cpsr.irq_masked = false;
        m.bcache.enabled = cache_on;
        m.gic.enable(IrqNum::PRIVATE_TIMER);
        m.ptimer_mut().program_periodic(Cycles::new(timer_period));
        m
    };
    (make(true), make(false))
}

/// Drive the pair over the slice schedule until halt or `total_cycles`,
/// invoking `at_boundary` on both machines at every quiet slice boundary.
fn run_pair(
    seed: u64,
    fast: &mut Machine,
    slow: &mut Machine,
    total_cycles: u64,
    slice_len: u64,
    mut at_boundary: impl FnMut(&mut Machine, u64),
) -> u64 {
    let slice = Cycles::new(slice_len);
    let end = Cycles::new(total_cycles);
    let mut next = slice.min(end);
    let mut boundary = 0u64;
    loop {
        let ef = advance(fast, next);
        let es = advance(slow, next);
        assert_eq!(ef, es, "seed {seed}: event mismatch");
        assert_same(seed, "event/boundary", fast, slow);
        match ef {
            None => {
                if next >= end {
                    break;
                }
                boundary += 1;
                at_boundary(fast, boundary);
                at_boundary(slow, boundary);
                assert_same(seed, "post-maintenance", fast, slow);
                next = (next + slice).min(end);
            }
            Some(ev) => {
                let cont_f = service(fast, ev);
                let cont_s = service(slow, ev);
                assert_eq!(cont_f, cont_s, "seed {seed}: service divergence");
                assert_same(seed, "post-service", fast, slow);
                if !cont_f {
                    break;
                }
            }
        }
    }
    assert_eq!(
        slow.bcache.stats.hits + slow.bcache.stats.misses,
        0,
        "seed {seed}: the reference machine must not use the cache"
    );
    boundary
}

#[test]
fn smc_rewrite_of_chained_successor_stays_bit_identical() {
    let prog = smc_program();
    let (mut fast, mut slow) = make_pair(&prog, 1777);
    run_pair(0, &mut fast, &mut slow, 200_000, 997, |_, _| {});

    // The rewrite became visible exactly after iteration SMC_AT: r1 ran
    // `+13` SMC_AT times and `+999` for the rest. Any stale chained block
    // surviving the store would put the fast machine off this value (the
    // lockstep asserts would have caught it first, but check the endpoint
    // against an independently computed constant too).
    let expect = SMC_AT * 13 + (LOOPS - SMC_AT) * 999;
    assert_eq!(fast.cpu.reg(1), expect, "rewrite visibility point moved");
    assert_eq!(slow.cpu.reg(1), expect);

    let s = &fast.bcache.stats;
    assert!(s.chain_follows > 0, "chains never formed: {s:?}");
    assert!(s.fused_segs > 0, "unconditional seams never fused: {s:?}");
    assert!(
        s.store_invalidations >= 1,
        "the SMC store dropped no blocks: {s:?}"
    );
    assert!(s.misses >= 2, "rewritten block was never re-decoded: {s:?}");
}

#[test]
fn tlbiasid_between_chained_blocks_stays_bit_identical() {
    let mut rng = Lcg::new(7);
    let prog = chain_heavy_program(&mut rng);
    let (mut fast, mut slow) = make_pair(&prog, 2113);
    // Fire TLBIASID on the live ASID at every third quiet boundary (and on
    // a foreign ASID in between, which must drop nothing), so maintenance
    // lands between chained blocks in every phase of the chain.
    let boundaries = run_pair(7, &mut fast, &mut slow, 150_000, 2003, |m, boundary| {
        if boundary % 3 == 0 {
            m.tlb_flush_asid(Asid(0));
        } else {
            m.tlb_flush_asid(Asid(7));
        }
    });

    let s = &fast.bcache.stats;
    assert!(s.chain_follows > 0, "chains never formed: {s:?}");
    assert!(
        boundaries / 3 >= 2,
        "horizon too short to fire TLBIASID twice"
    );
    assert!(
        s.maint_invalidations >= 1,
        "TLBIASID dropped no blocks: {s:?}"
    );
    assert!(
        s.misses >= 2,
        "blocks were never rebuilt after maintenance: {s:?}"
    );
}

/// Blocks in the over-capacity loop: each ASID's copy fits the cache on its
/// own, both together are 1.5× `MAX_BLOCKS` (the benchmark's `mir_churn`
/// ratio).
const CHURN_BLOCKS: u32 = MAX_BLOCKS as u32 * 3 / 4;

/// A loop over `CHURN_BLOCKS` four-instruction blocks, each ended by a
/// conditional branch whose two edges both lead to the next block.
fn churn_program() -> Program {
    let mut b = ProgramBuilder::new();
    b.mov(0, 0x5EED);
    b.mov(6, 0);
    b.mov(2, 0x3FFF_FFFF); // countdown: outlives the run
    let top = b.label();
    b.bind(top);
    for i in 0..CHURN_BLOCKS {
        let next = b.label();
        b.alu_imm(AluOp::Add, 0, 0, i | 1);
        b.alu(AluOp::Eor, 1, 0, 6);
        b.alu_imm(AluOp::Cmp, 1, 1, 0);
        b.branch(Cond::Ne, next);
        b.bind(next);
    }
    b.alu_imm(AluOp::Sub, 2, 2, 1);
    b.alu_imm(AluOp::Cmp, 2, 2, 0);
    b.branch(Cond::Ne, top);
    b.halt();
    b.assemble(CODE_BASE)
}

#[test]
fn code_larger_than_the_block_cache_stays_bit_identical() {
    let prog = churn_program();
    let (mut fast, mut slow) = make_pair(&prog, 100_003);
    // Alternate ASIDs 1 and 2 at every quiet boundary: each turn runs the
    // loop several times under one ASID, so its blocks are recorded,
    // chained and replayed, then evicted by the other ASID's turn.
    let set_asid = |m: &mut Machine, boundary: u64| m.cp15.set_asid(Asid(1 + (boundary % 2) as u8));
    set_asid(&mut fast, 0);
    set_asid(&mut slow, 0);
    let boundaries = run_pair(11, &mut fast, &mut slow, 8_000_000, 1_000_003, set_asid);
    assert!(boundaries >= 4, "too few ASID turns: {boundaries}");

    assert_eq!(fast.now(), slow.now());
    assert_eq!(fast.instructions_retired, slow.instructions_retired);
    assert_eq!(fast.pmu_inputs(), slow.pmu_inputs());
    let s = &fast.bcache.stats;
    assert!(s.evictions > 0, "the cache never reached capacity: {s:?}");
    assert!(s.chain_follows > 0, "chains never formed: {s:?}");
    assert!(s.hits > 0, "no block survived to a lookup: {s:?}");
    assert_eq!(fast.bcache.len(), MAX_BLOCKS, "a full cache stays full");
}
