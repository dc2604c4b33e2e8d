//! Profiling guarantees on the real Fig. 9 workload: a profiled 4-guest
//! run is bit-identical to an unprofiled one, and the profile itself is a
//! deterministic function of the seed.

use mnv_bench::table3::{build_kernel, profiled_run, quick_config};
use mnv_hal::Cycles;

/// Profile-on vs profile-off on the 4-guest Table III scenario: the
/// machine must end at the same cycle with the same retired count, PMU
/// inputs and manager statistics — the end-to-end bit-identity gate.
#[test]
fn profiling_does_not_perturb_the_fig9_workload() {
    let cfg = quick_config();
    let mut plain = build_kernel(4, 11, &cfg);
    let mut profiled = build_kernel(4, 11, &cfg);
    profiled.enable_profiling(mnv_profile::DEFAULT_PERIOD);
    plain.run(Cycles::from_millis(12.0));
    profiled.run(Cycles::from_millis(12.0));

    assert_eq!(plain.machine.now(), profiled.machine.now());
    assert_eq!(
        plain.machine.instructions_retired,
        profiled.machine.instructions_retired
    );
    assert_eq!(plain.machine.pmu_inputs(), profiled.machine.pmu_inputs());
    assert_eq!(plain.machine.cpu.pc, profiled.machine.cpu.pc);
    let (a, b) = (&plain.state.stats.hwmgr, &profiled.state.stats.hwmgr);
    assert_eq!(a.total.samples, b.total.samples, "manager invocations");
    assert_eq!(a.total.total, b.total.total, "manager cycles");
}

/// Same seed ⇒ byte-identical collapsed profile and counter tracks, and
/// ≥95 % of sampled cycles land in attributable (VM, hypercall/DPR-stage)
/// buckets.
#[test]
fn fig9_profile_is_deterministic_and_attributed() {
    let cfg = quick_config();
    let a = profiled_run(4, &cfg, 12.0);
    let b = profiled_run(4, &cfg, 12.0);
    assert!(a.total_samples() > 0);
    assert_eq!(a.collapsed(), b.collapsed(), "profile must be reproducible");
    assert_eq!(a.perfetto_counters(), b.perfetto_counters());
    assert!(
        a.attributed_fraction() >= 0.95,
        "only {:.1}% of samples attributed",
        100.0 * a.attributed_fraction()
    );
}
