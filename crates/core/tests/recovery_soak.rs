//! Recovery soak: the convergence gate from the supervision work. Twenty
//! seeded chaos runs are disarmed at half-time and the system must prove
//! it healed — structural invariants hold, the fabric drains back to the
//! best reachable service level, and the whole armed phase replays
//! identically for the same seed.

mod common;

use common::{kernel, workload_guest};
use mini_nova::VmSpec;
use mnv_fault::{FaultPlan, SiteCfg};
use mnv_hal::{Cycles, HwTaskId, Priority};
use mnv_trace::TraceEvent;

/// One soak run: chaos armed for the first half, disarmed for the second.
/// Returns the kernel plus the armed-phase fault records and the full
/// trace-event stream.
fn soak_run(
    seed: u64,
) -> (
    mini_nova::Kernel,
    Vec<mnv_fault::FaultRecord>,
    Vec<(Cycles, TraceEvent)>,
) {
    let (mut k, ids) = kernel();
    let qam: Vec<HwTaskId> = ids[6..].to_vec();
    let fft: Vec<HwTaskId> = ids[..6].to_vec();
    k.create_vm(VmSpec {
        name: "g1",
        priority: Priority::GUEST,
        guest: workload_guest(seed, qam),
    });
    k.create_vm(VmSpec {
        name: "g2",
        priority: Priority::GUEST,
        guest: workload_guest(seed ^ 0x5DEECE66D, fft),
    });
    let tracer = k.enable_tracing(1 << 18);
    k.enable_metrics();
    // The chaos preset plus real hang pressure (40% of starts wedge, six
    // per run) so the ladder, scrubber and re-promotion paths all carry
    // load that the disarmed half must then heal.
    let mut plan = FaultPlan::chaos(seed);
    plan.prr_hang = SiteCfg::new(400_000, 6);
    let plane = k.enable_faults(plan);
    // Compressed supervision timers (same ratios as the defaults) so both
    // degradation and the full heal fit one soak run.
    k.state.hwmgr.watchdog_timeout = 1_000_000;
    k.state.hwmgr.scrub_interval = 1_000_000;

    k.run(Cycles::from_millis(40.0));
    plane.disarm();
    k.run(Cycles::from_millis(80.0));
    assert_eq!(
        tracer.dropped(),
        0,
        "seed {seed}: the ring must hold the whole run"
    );

    (k, plane.records(), tracer.snapshot())
}

/// One event stream: for every lifecycle kind the kernel notes, the
/// events in the trace ring must equal the `KernelStats` counter it maps
/// to and the registry series too. A
/// site that counts without tracing (or traces without counting) breaks
/// the equality.
fn check_one_event_stream(
    k: &mini_nova::Kernel,
    events: &[(Cycles, TraceEvent)],
) -> Result<(), String> {
    use TraceEvent as E;
    type IsKind = fn(&TraceEvent) -> bool;
    let (s, h) = (&k.state.stats, &k.state.stats.hwmgr);
    let kinds: [(&str, IsKind, u64); 16] = [
        (
            "vms_killed",
            |e| matches!(e, E::VmKilled { .. }),
            s.vms_killed,
        ),
        (
            "vm_restarts",
            |e| matches!(e, E::VmRestart { .. }),
            s.vm_restarts,
        ),
        (
            "quarantines",
            |e| matches!(e, E::PrrQuarantine { .. }),
            h.quarantines,
        ),
        (
            "prr_scrubs",
            |e| matches!(e, E::PrrScrub { pass: true, .. }),
            h.scrubs,
        ),
        (
            "prr_scrub_fails",
            |e| matches!(e, E::PrrScrub { pass: false, .. }),
            h.scrub_fails,
        ),
        (
            "prr_reinstates",
            |e| matches!(e, E::PrrReinstate { .. }),
            h.reinstates,
        ),
        (
            "prrs_retired",
            |e| matches!(e, E::PrrRetire { .. }),
            h.prrs_retired,
        ),
        (
            "repromotions",
            |e| matches!(e, E::Repromote { .. }),
            h.repromotions,
        ),
        (
            "vm_repromotions",
            |e| matches!(e, E::Repromote { .. }),
            h.repromotions,
        ),
        (
            "ladder_retries",
            |e| matches!(e, E::HwTaskEscalate { rung: 1, .. }),
            h.ladder_retries,
        ),
        (
            "ladder_relocations",
            |e| matches!(e, E::HwTaskEscalate { rung: 2, .. }),
            h.ladder_relocations,
        ),
        (
            "ladder_fallbacks",
            |e| matches!(e, E::HwTaskEscalate { rung: 3, .. }),
            h.ladder_fallbacks,
        ),
        (
            "ladder_errors",
            |e| matches!(e, E::HwTaskEscalate { rung: 4, .. }),
            h.ladder_errors,
        ),
        (
            "sw_fallbacks",
            |e| matches!(e, E::SwFallback { .. }),
            h.sw_fallbacks,
        ),
        (
            "pcap_retries",
            |e| matches!(e, E::PcapRetry { .. }),
            h.pcap_retries,
        ),
        ("slo_burns", |e| matches!(e, E::SloBurn { .. }), s.slo_burns),
    ];
    let reg = k.state.metrics.snapshot();
    for (name, is_kind, counter) in kinds {
        let traced = events.iter().filter(|(_, e)| is_kind(e)).count() as u64;
        if traced != counter {
            return Err(format!("{name}: {traced} traced, {counter} in KernelStats"));
        }
        if reg.total(name) != counter {
            return Err(format!("{name}: registry {} vs {counter}", reg.total(name)));
        }
    }
    Ok(())
}

#[test]
fn twenty_seeds_converge_after_midrun_disarm() {
    for seed in 1..=20u64 {
        let (k, records, events) = soak_run(seed);
        assert!(
            !records.is_empty(),
            "seed {seed}: chaos plan never fired, the soak proves nothing"
        );
        k.check_recovery_invariants()
            .unwrap_or_else(|e| panic!("seed {seed}: invariant violated: {e}"));
        assert!(k.state.tracer.is_enabled());
        check_one_event_stream(&k, &events)
            .unwrap_or_else(|e| panic!("seed {seed}: sinks disagree: {e}"));
        k.state
            .hwmgr
            .check_converged()
            .unwrap_or_else(|e| panic!("seed {seed}: did not converge: {e}"));
        assert!(
            k.state.stats.hypercalls_total > 0,
            "seed {seed}: guests must still be served"
        );
    }
}

#[test]
fn soak_replays_identically_for_the_same_seed() {
    // Supervision must not introduce nondeterminism: the armed-phase fault
    // stream AND the full trace (including every scrub, reinstate,
    // escalation and re-promotion of the healing phase) must be
    // byte-identical across two runs of the same seed.
    for seed in [5u64, 13] {
        let (_, rec_a, ev_a) = soak_run(seed);
        let (_, rec_b, ev_b) = soak_run(seed);
        assert_eq!(rec_a, rec_b, "seed {seed}: fault replay diverged");
        assert_eq!(ev_a.len(), ev_b.len(), "seed {seed}: trace volume diverged");
        assert_eq!(ev_a, ev_b, "seed {seed}: trace replay diverged");
    }
}

#[test]
fn healing_is_observable_across_the_soak() {
    // Aggregated over all seeds, every stage of the recovery story must
    // actually occur: retries, relocations, fallbacks, scrubs, reinstates
    // and re-promotions. (Per-seed the mix varies with the draw.)
    let mut scrubs = 0u64;
    let mut reinstates = 0u64;
    let mut repromotions = 0u64;
    let mut retries = 0u64;
    for seed in 1..=6u64 {
        let (k, _, _) = soak_run(seed);
        let h = &k.state.stats.hwmgr;
        scrubs += h.scrubs;
        reinstates += h.reinstates;
        repromotions += h.repromotions;
        retries += h.ladder_retries;
    }
    assert!(scrubs >= 2, "scrubber never ran across the soak");
    assert!(reinstates >= 1, "no region was ever reinstated");
    assert!(repromotions >= 1, "no client was ever re-promoted");
    assert!(retries >= 1, "the escalation ladder never opened");
}
