//! Profiling bit-identity: the PC sampler must be pure observation.
//!
//! Four machines run every seeded random program over the same slice
//! schedule — reference and decoded-block executors, each with the
//! profiler on and off — and full architectural state (clock, retired
//! count, registers, PMU inputs, timer/IRQ state) is compared at every
//! slice boundary and every trap. Any drift means a probe charged cycles
//! or perturbed the batch deadlines, which would invalidate every profile
//! the sampler ever takes.
//!
//! On top of state identity, the two profiled machines must fold the
//! *same samples*: the block executor bounds its batches by the next
//! sample deadline, so its sample points land on the same instruction
//! boundaries as the per-instruction reference path — the collapsed
//! profiles must match byte for byte.

mod common;

use common::{advance, assert_same, chain_heavy_program, gen_program, service, Lcg, CODE_BASE};
use mnv_arm::machine::{bare_machine, Machine};
use mnv_arm::mir::Program;
use mnv_arm::psr::Psr;
use mnv_arm::BlockCacheStats;
use mnv_hal::{Cycles, IrqNum, PhysAddr};
use mnv_profile::Profiler;

/// Dense sampling relative to the ~150 k-cycle horizon, prime so deadlines
/// drift across slice boundaries instead of aligning with them.
const SAMPLE_PERIOD: u64 = 1_699;

fn quad_lockstep(seed: u64, total_cycles: u64) {
    let mut rng = Lcg::new(seed);
    let prog = gen_program(&mut rng);
    let period = 500 + rng.range(0, 5000);
    quad_lockstep_prog(seed, &prog, period, total_cycles);
}

/// The quad harness proper, over a caller-supplied program. Returns the
/// block-cache stats of the profiled fast machine so directed tests can
/// assert that the path under test (chains, superblocks) actually ran.
fn quad_lockstep_prog(
    seed: u64,
    prog: &Program,
    period: u64,
    total_cycles: u64,
) -> BlockCacheStats {
    let make = |cache_on: bool, profiled: bool| -> (Machine, Profiler) {
        let mut m = bare_machine();
        m.load_program(prog, PhysAddr::new(CODE_BASE)).unwrap();
        m.cpu.pc = CODE_BASE as u32;
        m.cpu.cpsr = Psr::user();
        m.cpu.cpsr.irq_masked = false;
        m.bcache.enabled = cache_on;
        m.gic.enable(IrqNum::PRIVATE_TIMER);
        m.ptimer_mut().program_periodic(Cycles::new(period));
        let p = if profiled {
            Profiler::enabled(SAMPLE_PERIOD, m.now())
        } else {
            Profiler::disabled()
        };
        m.profiler = p.clone();
        (m, p)
    };
    // Index 0 is the plain reference machine — the baseline the other
    // three must be indistinguishable from.
    let mut quad = [
        make(false, false),
        make(false, true),
        make(true, false),
        make(true, true),
    ];

    let slice = Cycles::new(997 + seed % 1000);
    let end = Cycles::new(total_cycles);
    let mut next = slice.min(end);
    loop {
        let evs = quad.each_mut().map(|(m, _)| advance(m, next));
        for (i, ev) in evs.iter().enumerate() {
            assert_eq!(*ev, evs[0], "seed {seed}: event mismatch (machine {i})");
        }
        for i in 1..quad.len() {
            let (a, rest) = quad.split_at_mut(1);
            assert_same(seed, "event/boundary", &rest[i - 1].0, &a[0].0);
        }
        match evs[0] {
            None => {
                if next >= end {
                    break;
                }
                next = (next + slice).min(end);
            }
            Some(ev) => {
                let conts = quad.each_mut().map(|(m, _)| service(m, ev));
                assert!(
                    conts.iter().all(|&c| c == conts[0]),
                    "seed {seed}: service divergence"
                );
                if !conts[0] {
                    break;
                }
            }
        }
    }

    // The two profiled machines sampled at identical instruction
    // boundaries: byte-identical collapsed profiles and sample counts.
    let ref_prof = &quad[1].1;
    let fast_prof = &quad[3].1;
    assert_eq!(
        ref_prof.collapsed(),
        fast_prof.collapsed(),
        "seed {seed}: reference and block-executor profiles differ"
    );
    assert_eq!(ref_prof.total_samples(), fast_prof.total_samples());
    assert!(
        ref_prof.total_samples() > 0 || quad[1].0.now().raw() < SAMPLE_PERIOD,
        "seed {seed}: a profiled run past the first deadline must sample"
    );
    assert!(!quad[0].1.is_enabled() && !quad[2].1.is_enabled());
    quad[3].0.bcache.stats
}

#[test]
fn profiled_runs_are_bit_identical_to_unprofiled() {
    for seed in 0..16 {
        quad_lockstep(seed, 150_000);
    }
}

#[test]
fn dense_sampling_with_fine_slices_stays_identical() {
    // Longer horizon: sample deadlines, slice boundaries, timer IRQs and
    // block-batch commits interleave in every order.
    for seed in 60..66 {
        quad_lockstep(seed, 600_000);
    }
}

#[test]
fn chained_superblocks_sample_identically() {
    // Directed chain-heavy programs: unconditional seams and leaf calls
    // the decoder fuses into superblocks, so sample deadlines land inside
    // chained replay batches rather than at block boundaries. The profiled
    // fast machine must both take the chained path *and* fold the exact
    // sample stream of the per-instruction reference.
    for seed in 200..206 {
        let mut rng = Lcg::new(seed);
        let prog = chain_heavy_program(&mut rng);
        let stats = quad_lockstep_prog(seed, &prog, 1200, 300_000);
        assert!(
            stats.chain_follows > 0,
            "seed {seed}: chains never formed under the profiler: {stats:?}"
        );
        assert!(
            stats.fused_segs > 0,
            "seed {seed}: unconditional seams never fused: {stats:?}"
        );
    }
}
