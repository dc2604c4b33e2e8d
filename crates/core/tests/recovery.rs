//! Recovery testing: the self-healing paths must converge back to full
//! service once faults stop, and recovered service must be exactly the
//! service that was lost — bit-identical hardware results after a
//! re-promotion, a restarted VM that runs like a freshly created one, and
//! a crash-looping VM that is eventually declared dead instead of
//! thrashing forever.

mod common;

use common::{healthy_guest, kernel, spinner_guest};
use mini_nova::hwmgr::service::PcapJobKind;
use mini_nova::hwmgr::tables::PrrService;
use mini_nova::supervisor::{CRASH_BUDGET, SCRUB_FAILS_TO_RETIRE};
use mini_nova::{GuestKind, Kernel, VmSpec};
use mnv_fault::{FaultPlan, SiteCfg};
use mnv_fpga::cores::make_core;
use mnv_hal::{Cycles, HwTaskId, Priority};
use mnv_trace::TraceEvent;
use mnv_ucos::kernel::{Ucos, UcosConfig};
use mnv_ucos::tasks::{THwTask, THW_DST_OFF, THW_SRC_OFF};

/// A single-VM hardware-task kernel: a T_hw client driving QAM-4, with
/// supervision timers compressed so degradation *and* recovery both fit a
/// short run (the ratios between them match the defaults).
fn thw_kernel(seed: u64) -> (Kernel, HwTaskId) {
    let (mut k, ids) = kernel();
    let task = ids[6]; // QAM-4: fits all four regions
    let mut os = Ucos::new(UcosConfig::default());
    os.task_create(8, Box::new(THwTask::new(vec![task], seed)));
    k.create_vm(VmSpec {
        name: "client",
        priority: Priority::GUEST,
        guest: GuestKind::Ucos(Box::new(os)),
    });
    k.state.hwmgr.watchdog_timeout = 1_000_000;
    k.state.hwmgr.scrub_interval = 1_000_000;
    (k, task)
}

/// [`thw_kernel`] run for `ms` simulated milliseconds; `wedges` > 0 arms a
/// bounded hang storm (every start wedges until the budget is spent, then
/// the fabric is clean).
fn thw_run(seed: u64, wedges: u32, ms: f64) -> (Kernel, HwTaskId) {
    let (mut k, task) = thw_kernel(seed);
    if wedges > 0 {
        let mut plan = FaultPlan::none(seed);
        plan.prr_hang = SiteCfg::new(1_000_000, wedges);
        k.enable_faults(plan);
    }
    k.run(Cycles::from_millis(ms));
    (k, task)
}

/// The guest's staged input and final output region (`out_len` bytes).
fn thw_io(k: &mut mini_nova::Kernel, out_len: usize) -> (Vec<u8>, Vec<u8>) {
    let vm = *k.state.pds.keys().next().expect("client VM alive");
    let ds = mini_nova::mem::layout::vm_region(vm) + mnv_ucos::layout::HWDATA_BASE.raw();
    let mut input = vec![0u8; 2048];
    k.machine
        .phys_read_block(ds + THW_SRC_OFF as u64, &mut input)
        .unwrap();
    let mut out = vec![0u8; out_len];
    k.machine
        .phys_read_block(ds + THW_DST_OFF as u64, &mut out)
        .unwrap();
    (input, out)
}

#[test]
fn repromoted_client_is_bit_identical_to_a_never_faulted_run() {
    // A bounded hang storm walks the client down the whole ladder (retry,
    // two relocation hops, software fallback); once the storm ends the
    // scrubber reinstates the quarantined regions and the client is
    // promoted back onto real hardware. The recovered system must produce
    // exactly the bytes a never-faulted run produces.
    let (mut baseline, task) = thw_run(42, 0, 120.0);
    let (mut faulted, _) = thw_run(42, 6, 120.0);

    let h = faulted.state.stats.hwmgr;
    assert!(h.ladder_retries >= 1, "rung 1 must run: {h:?}");
    assert!(h.ladder_relocations >= 1, "rung 2 must run: {h:?}");
    assert!(h.quarantines >= 1, "storm must quarantine: {h:?}");
    assert!(h.sw_fallbacks >= 1, "shadow path must serve: {h:?}");
    assert!(h.scrubs >= 2, "scrubber must have run: {h:?}");
    assert!(h.reinstates >= 1, "scrubbed region must reinstate: {h:?}");
    assert!(h.repromotions >= 1, "client must return to hardware: {h:?}");
    faulted
        .state
        .hwmgr
        .check_converged()
        .expect("fabric must converge after the storm");
    faulted
        .check_recovery_invariants()
        .expect("recovery invariants");

    // Bit-identity, three ways: both runs ended on the same staged input,
    // both output regions hold the IP core's exact result, and therefore
    // each other's.
    let core_kind = baseline.state.hwmgr.tasks.get(task).unwrap().core;
    let (input_a, _) = thw_io(&mut baseline, 1);
    let expected = make_core(core_kind).process(&input_a);
    assert!(!expected.is_empty());
    let (_, out_a) = thw_io(&mut baseline, expected.len());
    let (input_b, out_b) = thw_io(&mut faulted, expected.len());
    assert_eq!(input_a, input_b, "staged inputs must match");
    assert_eq!(out_a, expected, "baseline output must match the IP core");
    assert_eq!(
        out_a, out_b,
        "recovered output must be bit-identical to the never-faulted run"
    );
}

#[test]
fn hung_guest_is_killed_and_restarted_by_the_liveness_watchdog() {
    // First boot: a guest wedged in a no-progress hypercall spin. The
    // liveness watchdog kills it; the supervisor relaunches from the
    // registered image, which this time produces a healthy payload (the
    // modelled equivalent of a transient boot wedge).
    let (mut k, _ids) = kernel();
    let mut boots = 0u32;
    let vm = k.create_supervised_vm(
        "flaky",
        Priority::GUEST,
        Box::new(move || {
            boots += 1;
            if boots == 1 {
                spinner_guest()
            } else {
                healthy_guest(7)
            }
        }),
    );
    k.watch_liveness(vm, 300_000); // ~0.45 ms of no-progress spin
    let tracer = k.enable_tracing(4096);
    k.run(Cycles::from_millis(40.0));

    let s = &k.state.stats;
    assert_eq!(s.liveness_kills, 1, "watchdog must kill the spinner: {s:?}");
    assert_eq!(s.vm_restarts, 1, "supervisor must relaunch once: {s:?}");
    assert_eq!(s.crash_loop_kills, 0);
    let pd = k.pd(vm);
    assert!(
        pd.stats.pmu.instr_retired > 0,
        "relaunched guest must make real progress"
    );
    let events = tracer.snapshot();
    assert!(
        events.iter().any(|(_, e)| e.kind_name() == "VmRestart"),
        "restart must be traced"
    );
}

#[test]
fn crash_looping_guest_is_permanently_killed_after_the_budget() {
    // The image always produces the spinner, so every relaunch hangs
    // again. After CRASH_BUDGET failures inside the window the supervisor
    // drops the image and the kill is final.
    let (mut k, _ids) = kernel();
    let vm = k.create_supervised_vm("loop", Priority::GUEST, Box::new(spinner_guest));
    k.watch_liveness(vm, 300_000);
    for _ in 0..200 {
        k.run(Cycles::from_millis(2.0));
        if k.state.stats.crash_loop_kills > 0 {
            break;
        }
        // Relaunches re-arm the default (long) threshold; keep the test
        // fast by re-tightening it each slice. Healthy guests survive
        // this: any retired instruction re-baselines the watchdog.
        k.watch_liveness(vm, 300_000);
    }

    let s = &k.state.stats;
    assert_eq!(s.crash_loop_kills, 1, "budget must exhaust: {s:?}");
    assert_eq!(
        s.vm_restarts as usize, CRASH_BUDGET,
        "every budgeted restart must have been attempted: {s:?}"
    );
    assert!(
        s.liveness_kills as usize > CRASH_BUDGET,
        "each incarnation must have been caught by the watchdog: {s:?}"
    );
    assert!(
        !k.state.pds.contains_key(&vm),
        "the crash-looping VM must stay dead"
    );
    assert!(
        !k.supervisor.is_supervised(vm),
        "the image must be dropped after budget exhaustion"
    );
    k.check_recovery_invariants().expect("recovery invariants");
}

#[test]
fn persistent_pcap_corruption_retires_the_region_and_the_shadow_stays_exact() {
    // Every PCAP transfer is corrupted, for ever: each reconfiguration
    // exhausts its retries and quarantines its region, the client's next
    // request tries the next compatible region, and no scrub can pass.
    // QAM-4 fits all four regions, so the fabric converges once every one
    // of them has retired, and the shadow is the best reachable service.
    let (mut k, task) = thw_kernel(42);
    let core = k.state.hwmgr.tasks.get(task).expect("task registered").core;
    let mut plan = FaultPlan::none(42);
    plan.pcap_corrupt = SiteCfg::new(1_000_000, u32::MAX);
    k.enable_faults(plan);
    let tracer = k.enable_tracing(1 << 18);
    k.run(Cycles::from_millis(40.0));

    let h = k.state.stats.hwmgr;
    assert_eq!(h.prrs_retired, 4, "every region must retire: {h:?}");
    assert!(h.sw_fallbacks >= 1, "the shadow must serve: {h:?}");
    // Each region saw exactly the failure budget of scrubs, then none: the
    // scrubber never touches a retired region again.
    assert_eq!(tracer.dropped(), 0, "the scrub history must be complete");
    let events = tracer.snapshot();
    for p in 0..k.state.hwmgr.prrs.len() as u8 {
        let history: Vec<&str> = events
            .iter()
            .filter_map(|(_, ev)| match *ev {
                TraceEvent::PrrScrub { prr, pass } if prr == p => {
                    Some(if pass { "pass" } else { "fail" })
                }
                TraceEvent::PrrRetire { prr } if prr == p => Some("retire"),
                _ => None,
            })
            .collect();
        let mut expect = vec!["fail"; SCRUB_FAILS_TO_RETIRE as usize];
        expect.push("retire");
        assert_eq!(history, expect, "prr{p} scrub history");
    }
    k.state
        .hwmgr
        .check_converged()
        .expect("a retired fabric is the best reachable state");
    k.check_recovery_invariants().expect("recovery invariants");

    // The shadow-served output is still the IP core's.
    let (input, _) = thw_io(&mut k, 1);
    let expected = make_core(core).process(&input);
    let (_, out) = thw_io(&mut k, expected.len());
    assert_eq!(out, expected, "shadow output must match the IP core");
}

/// Run `k` in 1000-cycle steps until `done` holds; returns the clock at the
/// start of the last step. Bounded: panics after 200 M cycles.
fn run_until(k: &mut Kernel, done: impl Fn(&Kernel) -> bool) -> u64 {
    let mut before = k.machine.now().raw();
    for _ in 0..200_000 {
        if done(k) {
            return before;
        }
        before = k.machine.now().raw();
        k.run(Cycles::new(1_000));
    }
    panic!("condition not reached");
}

#[test]
fn client_reconfiguration_preempts_an_inflight_scrub() {
    // One PCAP channel: a client reconfiguration aborts the scrub in flight
    // (not a scrub failure), the quarantined region's next scrub moves one
    // interval out, and the scrub relaunches only after the client's
    // transfer has completed.
    let (mut k, _) = thw_kernel(7);
    k.state.hwmgr.prrs.entry_mut(&mut k.machine, 1).quarantine();
    let (hwmgr, pds, pt, mut sinks) = k.state.manager();
    hwmgr.fabric_tick(&mut k.machine, pds, pt, &mut sinks);
    let kind = |k: &Kernel| k.state.hwmgr.pcap_job.map(|j| j.kind);
    assert_eq!(
        kind(&k),
        Some(PcapJobKind::Scrub),
        "the scrub takes the idle channel"
    );

    let before = run_until(&mut k, |k| kind(k) != Some(PcapJobKind::Scrub));
    let after = k.machine.now().raw();
    assert!(
        matches!(kind(&k), Some(PcapJobKind::Client { .. })),
        "a client reconfiguration must take the channel, got {:?}",
        kind(&k)
    );
    let interval = k.state.hwmgr.scrub_interval;
    let PrrService::Quarantined(h) = k.state.hwmgr.prrs.entry(1).service else {
        panic!("region 1 must stay quarantined");
    };
    assert!(
        before + interval <= h.next_scrub_at && h.next_scrub_at <= after + interval,
        "the next scrub moves one interval past the abort: {h:?}"
    );
    assert_eq!(
        k.state.stats.hwmgr.scrub_fails, 0,
        "an abort is not a failure"
    );

    run_until(&mut k, |k| kind(k) == Some(PcapJobKind::Scrub));
    let job = k.state.hwmgr.pcap_job.expect("scrub in flight");
    assert_eq!(job.prr, 1);
    assert!(
        job.started_at >= h.next_scrub_at,
        "the scrub waits for its slot"
    );
    assert!(
        k.state.hwmgr.pcap_owner.is_none(),
        "the client's transfer completed first"
    );
}
