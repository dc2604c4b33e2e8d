//! Lockstep differential harness: the decoded-block executor against the
//! per-instruction reference interpreter.
//!
//! The block cache's contract is *bit-identity* — charged cycles, retired
//! counts, PMU inputs, trap kinds and PCs, and IRQ delivery points must be
//! indistinguishable from the reference path (see DESIGN §10). This
//! harness generates seeded random MIR programs (bounded loops, memory
//! traffic, traps, timer interrupts), runs a cache-enabled and a
//! cache-disabled machine over the same slice schedule, and compares full
//! architectural state at every slice boundary and every trap.
//!
//! Randomisation uses the same zero-dependency LCG as `proptests.rs`, so
//! every failure is reproducible from its seed.

mod common;

use common::{
    advance, assert_same, gen_mmu_program, gen_program, mmu_machine, service,
    service_skipping_data_aborts, Lcg, CODE_BASE,
};
use mnv_arm::cpu::{CpuEvent, ExceptionKind};
use mnv_arm::machine::{bare_machine, Machine};
use mnv_arm::psr::Psr;
use mnv_hal::{Cycles, IrqNum, PhysAddr};

/// Run the machine pair over an identical slice schedule up to
/// `total_cycles`, servicing every event on both with `service`, and
/// assert state identity at every slice boundary and every event. Returns
/// how many data aborts were serviced.
fn drive(
    seed: u64,
    total_cycles: u64,
    fast: &mut Machine,
    slow: &mut Machine,
    service: fn(&mut Machine, CpuEvent) -> bool,
) -> u64 {
    let slice = Cycles::new(997 + seed % 1000);
    let end = Cycles::new(total_cycles);
    let mut next = slice.min(end);
    let mut data_aborts = 0;
    loop {
        let ef = advance(fast, next);
        let es = advance(slow, next);
        assert_eq!(ef, es, "seed {seed}: event mismatch");
        assert_same(seed, "event/boundary", fast, slow);
        match ef {
            None if next >= end => return data_aborts,
            None => next = (next + slice).min(end),
            Some(ev) => {
                if ev == CpuEvent::Exception(ExceptionKind::DataAbort) {
                    data_aborts += 1;
                }
                let cont_f = service(fast, ev);
                let cont_s = service(slow, ev);
                assert_eq!(cont_f, cont_s, "seed {seed}: service divergence");
                assert_same(seed, "post-service", fast, slow);
                if !cont_f {
                    return data_aborts;
                }
            }
        }
    }
}

/// Build the machine pair for a random MMU-off program and [`drive`] it.
fn lockstep(seed: u64, total_cycles: u64, with_faults: bool) {
    let mut rng = Lcg::new(seed);
    let prog = gen_program(&mut rng);
    let period = 500 + rng.range(0, 5000);
    let prog_len = prog.len() as u64;

    let make = |cache_on: bool| {
        let mut m = bare_machine();
        m.load_program(&prog, PhysAddr::new(CODE_BASE)).unwrap();
        m.cpu.pc = CODE_BASE as u32;
        m.cpu.cpsr = Psr::user();
        m.cpu.cpsr.irq_masked = false;
        m.bcache.enabled = cache_on;
        m.gic.enable(IrqNum::PRIVATE_TIMER);
        m.ptimer.program_periodic(Cycles::new(period));
        if with_faults {
            // Chaos plan: spurious IRQs plus memory flips aimed straight at
            // the program text, so fault-plane writes must invalidate live
            // decoded blocks. Same seed on both machines → same stream.
            let mut plan = mnv_fault::FaultPlan::none(seed);
            plan.irq_spurious = mnv_fault::PeriodCfg::new(7_000, 8);
            plan.mem_flip = mnv_fault::PeriodCfg::new(20_000, 8);
            plan.mem_flip_window = (CODE_BASE, prog_len);
            m.fault = mnv_fault::FaultPlane::armed(plan);
        }
        m
    };
    let mut fast = make(true);
    let mut slow = make(false);
    drive(seed, total_cycles, &mut fast, &mut slow, service);
    assert!(
        fast.bcache.stats.hits + fast.bcache.stats.misses > 0,
        "seed {seed}: the fast machine never consulted the block cache"
    );
    assert_eq!(
        slow.bcache.stats.hits + slow.bcache.stats.misses,
        0,
        "seed {seed}: the reference machine must not use the cache"
    );
}

#[test]
fn random_programs_run_bit_identical() {
    for seed in 0..24 {
        lockstep(seed, 150_000, false);
    }
}

#[test]
fn long_run_with_dense_timer_traffic_is_identical() {
    // Longer horizon with the slice chopped fine, so slice-deadline commits
    // and timer deliveries interleave with block replay in every way.
    for seed in 40..46 {
        lockstep(seed, 600_000, false);
    }
}

#[test]
fn chaos_seeds_stay_bit_identical() {
    // Fault plane armed: memory flips rewrite live program text and
    // spurious IRQs fire between (and inside) decoded blocks. The armed
    // plane pins the device deadline to "now", so the fast path must
    // degrade to per-instruction sync without losing identity.
    for seed in 100..112 {
        lockstep(seed, 150_000, true);
    }
}

/// What the MMU-on lockstep runs exercised on the block-cache side.
#[derive(Default)]
struct MmuCoverage {
    data_aborts: u64,
    store_invalidations: u64,
    batched: u64,
    /// Instructions replayed from a cached block one at a time, outside
    /// a batch: the per-instruction fetch through `translate` and the L1I.
    replayed_alone: u64,
    pt_walks: u64,
}

/// [`lockstep`] for an MMU-on program ([`gen_mmu_program`]): data pages
/// beyond the TLB's reach, an MMIO page, a read-only page and stores into
/// the text, with a dense timer so deadlines fall inside runs holding
/// loads or stores. Data aborts are skipped, so a faulting store does not
/// end the program.
fn mmu_lockstep(seed: u64, total_cycles: u64, cov: &mut MmuCoverage) {
    let mut rng = Lcg::new(seed);
    let prog = gen_mmu_program(&mut rng);
    let period = 300 + rng.range(0, 3000);
    let make = |cache_on: bool| {
        let mut m = mmu_machine(&prog);
        m.bcache.enabled = cache_on;
        m.gic.enable(IrqNum::PRIVATE_TIMER);
        m.ptimer.program_periodic(Cycles::new(period));
        m
    };
    let mut fast = make(true);
    let mut slow = make(false);
    let service = service_skipping_data_aborts;
    cov.data_aborts += drive(seed, total_cycles, &mut fast, &mut slow, service);
    let stats = &fast.bcache.stats;
    cov.store_invalidations += stats.store_invalidations;
    cov.batched += stats.batched_instrs;
    cov.replayed_alone += stats.replayed_instrs - stats.batched_instrs;
    cov.pt_walks += fast.pt_walks;
}

#[test]
fn mmu_on_programs_run_bit_identical() {
    let mut cov = MmuCoverage::default();
    for seed in 200..224 {
        mmu_lockstep(seed, 400_000, &mut cov);
    }
    // The seeds must reach the paths the suite exists for.
    assert!(cov.data_aborts > 0, "no store hit the read-only page");
    assert!(cov.store_invalidations > 0, "no store dirtied the text");
    assert!(cov.batched > 0, "no run batched");
    assert!(
        cov.replayed_alone > 0,
        "no instruction replayed outside a batch"
    );
    assert!(
        cov.pt_walks > 1_000,
        "the data pointer stayed in the TLB's reach"
    );
}
