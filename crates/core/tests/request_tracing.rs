//! Causal request tracing, end to end: the neutrality proof (tracing and
//! metrics change no architectural state), waterfall reconstruction from
//! a live trace, p99 tail exemplars resolving back to real requests, and
//! the SLO burn path firing under induced PCAP latency.

mod common;

use common::{kernel, workload_guest};
use mini_nova::{Kernel, VmSpec};
use mnv_hal::{Cycles, HwTaskId, Priority};
use mnv_trace::event::iface_name;
use mnv_trace::{waterfall, TraceEvent};

/// The standard two-VM DPR scenario (one FFT-family client, one
/// QAM-family client, both with software load beside the requests).
fn hw_scenario() -> Kernel {
    let (mut k, ids) = kernel();
    let fft: Vec<HwTaskId> = ids[..6].to_vec();
    let qam: Vec<HwTaskId> = ids[6..].to_vec();
    k.create_vm(VmSpec {
        name: "g1",
        priority: Priority::GUEST,
        guest: workload_guest(7, fft),
    });
    k.create_vm(VmSpec {
        name: "g2",
        priority: Priority::GUEST,
        guest: workload_guest(0x5EED, qam),
    });
    k
}

/// The ISSUE's acceptance bar: enabling request tracing and the metrics
/// registry must not move a single architectural observable. Two
/// identical scenarios — one bare, one fully instrumented — must agree
/// on the clock, retired instructions, every hypercall count and the
/// whole DPR/SLO stat block after 60 simulated milliseconds.
#[test]
fn request_tracing_is_architecturally_neutral() {
    let mut bare = hw_scenario();
    let mut inst = hw_scenario();
    let _tracer = inst.enable_tracing(1 << 20);
    inst.enable_metrics();

    let dur = Cycles::from_millis(60.0);
    bare.run(dur);
    inst.run(dur);

    assert_eq!(bare.machine.now(), inst.machine.now(), "clocks diverged");
    assert_eq!(
        bare.machine.instructions_retired,
        inst.machine.instructions_retired
    );
    let (b, i) = (&bare.state.stats, &inst.state.stats);
    assert!(b.reqs_minted > 0, "scenario must exercise requests");
    assert_eq!(b.reqs_minted, i.reqs_minted);
    assert_eq!(b.slo_violations, i.slo_violations);
    assert_eq!(b.slo_burns, i.slo_burns);
    assert_eq!(b.vm_switches, i.vm_switches);
    assert_eq!(b.hypercalls, i.hypercalls);
    assert_eq!(b.hypercalls_total, i.hypercalls_total);
    assert_eq!(b.virqs_injected, i.virqs_injected);
    assert_eq!(b.vms_killed, i.vms_killed);
    assert_eq!(b.hwmgr.invocations, i.hwmgr.invocations);
    assert_eq!(b.hwmgr.reconfigs, i.hwmgr.reconfigs);
    assert_eq!(b.hwmgr.pcap_retries, i.hwmgr.pcap_retries);
    assert_eq!(
        b.hwmgr.total.total, i.hwmgr.total.total,
        "manager cycle totals diverged"
    );
    assert_eq!(
        bare.state.hwmgr.next_req, inst.state.hwmgr.next_req,
        "the id counter is kernel state and must advance identically"
    );
}

/// A traced run reconstructs complete waterfalls: at least one request
/// shows the whole fabric journey — hypercall entry, the six-stage
/// allocation routine and the completion vIRQ — with monotone,
/// span-bounded stage timestamps.
#[test]
fn waterfalls_reconstruct_complete_request_lifecycles() {
    let mut k = hw_scenario();
    let tracer = k.enable_tracing(1 << 20);
    assert!(tracer.is_enabled());
    k.run(Cycles::from_millis(60.0));
    let falls = waterfall::build(&tracer.snapshot());
    assert!(!falls.is_empty(), "no requests reconstructed");

    let full = falls
        .iter()
        .filter(|w| w.complete)
        .find(|w| {
            let names: Vec<&str> = w.stages.iter().map(|s| s.stage.as_str()).collect();
            names.first() == Some(&"hc-entry")
                && names.contains(&"alloc:s1")
                && names.contains(&"alloc:s6")
                && names.contains(&"virq:inject")
        })
        .expect("one request must complete via allocation + fabric + vIRQ");

    // Stages tile the span: monotone starts, back-to-back segments, and
    // the last segment ending exactly at the end-to-end total.
    let mut cursor = 0u64;
    for s in &full.stages {
        assert_eq!(s.at, cursor, "gap before stage {}", s.stage);
        cursor = s.at + s.dur;
    }
    assert_eq!(cursor, full.total, "stages must cover the whole span");

    // The export round-trips through the mnvdbg --request input format.
    let parsed = waterfall::parse(&waterfall::to_json(&falls).to_string()).unwrap();
    assert_eq!(parsed, falls);
}

/// p99 tail-bucket exemplars carry request ids that resolve to real
/// traced requests: the whole point of exemplars is jumping from an
/// aggregate histogram straight to one concrete waterfall.
#[test]
fn tail_exemplars_resolve_to_traced_requests() {
    let mut k = hw_scenario();
    let tracer = k.enable_tracing(1 << 20);
    k.enable_metrics();
    assert!(tracer.is_enabled());
    k.run(Cycles::from_millis(60.0));
    let falls = waterfall::build(&tracer.snapshot());
    let snap = k.metrics();

    let mut tail_exemplars = 0;
    for h in snap.hists.iter().filter(|h| h.name == "req_latency") {
        assert!(h.count > 0);
        for b in h.buckets.iter().filter(|b| h.is_tail(b)) {
            if b.exemplar_req == 0 {
                continue;
            }
            tail_exemplars += 1;
            let w = falls
                .iter()
                .find(|w| w.req == b.exemplar_req)
                .unwrap_or_else(|| panic!("exemplar req {} has no waterfall", b.exemplar_req));
            assert!(w.complete, "a latency-observed request must have completed");
            assert_eq!(
                w.total, b.exemplar_value,
                "exemplar latency must match the waterfall's end-to-end total"
            );
        }
    }
    assert!(tail_exemplars > 0, "no tail bucket remembered a request id");
}

/// Tightening an interface's latency objective below what the hardware
/// can deliver makes every completion a violation; once the windowed
/// count crosses the burn limit the kernel records the burn once: in the
/// stats and in the one trace ring (whose tail is the flight recorder).
#[test]
fn slo_burn_fires_on_sustained_violations() {
    let mut k = hw_scenario();
    let tracer = k.enable_tracing(1 << 20);
    // A live profiler dumps from this ring rather than
    // installing its own: tracing is already on, so the roomy ring stays
    // and the burn count below still matches it.
    k.enable_profiling(mnv_profile::DEFAULT_PERIOD);
    // 1000 cycles ≈ 1.5 us: no reconfiguration-plus-execution round trip
    // fits, so every interface burns its window.
    for iface in 0..3 {
        k.state.hwmgr.slo.set_objective(iface, 1_000);
    }
    k.state
        .hwmgr
        .slo
        .set_burn_policy(mnv_hal::cycles::CPU_HZ / 100, 2); // 10 ms windows, burn at 2
    k.run(Cycles::from_millis(60.0));

    let s = &k.state.stats;
    let violations: u64 = s.slo_violations.iter().sum();
    let burns: u64 = s.slo_burns.iter().sum();
    assert!(violations > 0, "no violations under a 1.5 us objective");
    assert!(burns > 0, "windowed burn never latched");
    assert!(violations >= burns, "a burn implies at least one violation");
    assert!(tracer.is_enabled());
    let burn_events: Vec<_> = tracer
        .snapshot()
        .into_iter()
        .filter_map(|(_, ev)| match ev {
            TraceEvent::SloBurn { iface, violations } => Some((iface, violations)),
            _ => None,
        })
        .collect();
    assert_eq!(burn_events.len() as u64, burns);
    for (iface, violations) in &burn_events {
        assert_ne!(iface_name(*iface), "iface:?");
        assert!(*violations >= 2, "burn latched below the limit");
    }
}
