//! Chaos testing: deterministic fault injection against the full stack.
//!
//! The fault plane (mnv-fault) is armed with seeded plans and the kernel
//! must degrade gracefully — retry corrupted PCAP transfers, quarantine
//! hung regions behind a bit-identical software fallback, and keep every
//! uninvolved VM running. Nothing here is allowed to panic, and the fault
//! stream must replay identically for the same seed.

mod common;

use common::{chaos_kernel, chaos_run, kernel, replay_oracle, workload_guest};
use mini_nova::{GuestKind, Kernel, VmSpec};
use mnv_fault::{FaultPlan, FaultSite, SiteCfg, SITE_COUNT};
use mnv_fpga::cores::make_core;
use mnv_hal::{Cycles, HwTaskId, Priority};
use mnv_trace::TraceEvent;
use mnv_ucos::kernel::{Ucos, UcosConfig};
use mnv_ucos::tasks::{AdpcmTask, GsmTask, THwTask, THW_SRC_OFF};

#[test]
fn chaos_soak_20_seeds_without_panics() {
    // The headline robustness gate: 20 seeded chaos runs over a two-VM DPR
    // workload, all fault classes enabled, and the kernel never panics.
    let mut total_faults = 0u64;
    let mut total_hc = 0u64;
    for seed in 1..=20u64 {
        let (records, stats) = chaos_run(seed);
        total_faults += records.len() as u64;
        total_hc += stats.hypercalls_total;
        // The system kept making forward progress under fire.
        assert!(
            stats.hypercalls_total > 0,
            "seed {seed}: guests must still issue hypercalls"
        );
    }
    // Across 20 chaos seeds the plan's rates guarantee a healthy number of
    // injections actually landed (otherwise the soak proves nothing).
    assert!(
        total_faults >= 20,
        "expected a real fault volume, got {total_faults}"
    );
    assert!(total_hc > 0);
}

#[test]
fn same_seed_replays_identical_fault_trace() {
    // Determinism gate: the full fault stream (site, time, argument) must
    // be byte-identical across two runs of the same seed.
    for seed in [3u64, 11, 17] {
        let (a, _) = chaos_run(seed);
        let (b, _) = chaos_run(seed);
        assert_eq!(a, b, "seed {seed}: fault replay diverged");
        assert!(!a.is_empty(), "seed {seed}: chaos plan never fired");
    }
    // Different seeds must not share a trace (the streams are seeded).
    let (a, _) = chaos_run(101);
    let (b, _) = chaos_run(102);
    assert_ne!(a, b, "different seeds produced the same fault trace");
}

#[test]
fn pcap_corruption_is_retried_until_the_transfer_succeeds() {
    // Transient in-flight corruption: the CRC check fails the transfer,
    // the kernel relaunches it with backoff, and the reconfiguration
    // completes without quarantining anything.
    let (mut k, ids) = kernel();
    let qam: Vec<HwTaskId> = ids[6..].to_vec();
    k.create_vm(VmSpec {
        name: "g1",
        priority: Priority::GUEST,
        guest: workload_guest(7, qam),
    });
    let mut plan = FaultPlan::none(7);
    plan.pcap_corrupt = SiteCfg::new(1_000_000, 2); // first two transfers corrupt
    k.enable_faults(plan);
    k.run(Cycles::from_millis(60.0));

    let h = &k.state.stats.hwmgr;
    assert!(h.pcap_retries >= 1, "retry path must have run: {h:?}");
    assert_eq!(h.quarantines, 0, "transient corruption must not quarantine");
    assert!(h.reconfigs >= 1);
    // The fabric did real work after the retries.
    let pl: &mnv_fpga::pl::Pl = k.pl();
    let runs: u64 = (0..pl.num_prrs()).map(|p| pl.prr(p as u8).runs).sum();
    assert!(runs > 0, "accelerator must complete after retried reconfig");
}

#[test]
fn hung_prr_is_quarantined_and_sw_fallback_is_bit_identical() {
    // Force every start to wedge the engine, forever: the escalation
    // ladder's retry and relocation rungs wedge too, so every compatible
    // region ends up quarantined, the client is migrated to the shadow
    // interface, and the software service must produce output
    // bit-identical to what the IP core would have computed.
    let (mut k, ids) = kernel();
    let task = ids[6]; // QAM-4
    let core_kind = k.state.hwmgr.tasks.get(task).unwrap().core;
    let mut os = Ucos::new(UcosConfig::default());
    let seed = 42u64;
    os.task_create(8, Box::new(THwTask::new(vec![task], seed)));
    let vm = k.create_vm(VmSpec {
        name: "victim",
        priority: Priority::GUEST,
        guest: GuestKind::Ucos(Box::new(os)),
    });

    let mut plan = FaultPlan::none(9);
    plan.prr_hang = SiteCfg::new(1_000_000, 1_000); // every start wedges
    k.enable_faults(plan);
    k.state.hwmgr.watchdog_timeout = 1_000_000; // ~1.5 ms: faster test
    k.run(Cycles::from_millis(120.0));

    let h = &k.state.stats.hwmgr;
    assert!(h.quarantines >= 1, "ladder must quarantine: {h:?}");
    assert!(h.ladder_retries >= 1, "ladder rung 1 must run: {h:?}");
    assert!(h.sw_fallbacks >= 1, "software fallback must serve: {h:?}");

    // Bit-identity: the guest's result region must hold exactly what the
    // IP core computes for the staged input (THwTask stages the same
    // input every run).
    let ds_pa = mini_nova::mem::layout::vm_region(vm) + mnv_ucos::layout::HWDATA_BASE.raw();
    let mut input = vec![0u8; 2048];
    k.machine
        .phys_read_block(ds_pa + THW_SRC_OFF as u64, &mut input)
        .unwrap();
    let core = make_core(core_kind);
    let expected = core.process(&input);
    assert!(!expected.is_empty());
    let mut actual = vec![0u8; expected.len()];
    k.machine
        .phys_read_block(ds_pa + mnv_ucos::tasks::THW_DST_OFF as u64, &mut actual)
        .unwrap();
    assert_eq!(
        actual, expected,
        "software fallback output must be bit-identical to the IP core"
    );
}

#[test]
fn quarantine_does_not_disturb_the_other_vm() {
    // Containment: VM1's regions are being wedged; VM2 (pure compute, no
    // hardware tasks) must keep making progress undisturbed.
    let (mut k, ids) = kernel();
    let task = ids[6];
    let mut os1 = Ucos::new(UcosConfig::default());
    os1.task_create(8, Box::new(THwTask::new(vec![task], 5)));
    k.create_vm(VmSpec {
        name: "victim",
        priority: Priority::GUEST,
        guest: GuestKind::Ucos(Box::new(os1)),
    });
    let mut os2 = Ucos::new(UcosConfig::default());
    os2.task_create(20, Box::new(AdpcmTask::new(77)));
    let bystander = k.create_vm(VmSpec {
        name: "bystander",
        priority: Priority::GUEST,
        guest: GuestKind::Ucos(Box::new(os2)),
    });

    let mut plan = FaultPlan::none(13);
    plan.prr_hang = SiteCfg::new(1_000_000, 8);
    k.enable_faults(plan);
    k.state.hwmgr.watchdog_timeout = 1_000_000;
    k.run(Cycles::from_millis(80.0));

    assert!(k.state.stats.hwmgr.quarantines >= 1);
    // The ADPCM task is tick-paced (one block per tick), so liveness shows
    // as a steady tick stream and modest-but-nonzero CPU time.
    let pd = k.pd(bystander);
    assert!(
        pd.vtimer.ticks_injected > 40,
        "bystander timer stalled: {} ticks",
        pd.vtimer.ticks_injected
    );
    assert!(
        pd.stats.cpu_cycles > 20_000,
        "bystander VM starved: {} cycles",
        pd.stats.cpu_cycles
    );
}

#[test]
fn kill_vm_contains_the_blast_radius() {
    // Killing an errant guest releases its resources; the survivor keeps
    // running and the fabric allocations drain cleanly.
    let (mut k, ids) = kernel();
    let qam: Vec<HwTaskId> = ids[6..].to_vec();
    let victim = k.create_vm(VmSpec {
        name: "victim",
        priority: Priority::GUEST,
        guest: workload_guest(21, qam.clone()),
    });
    let survivor = k.create_vm(VmSpec {
        name: "survivor",
        priority: Priority::GUEST,
        guest: workload_guest(22, qam),
    });
    k.run(Cycles::from_millis(30.0));
    k.kill_vm(victim);
    assert_eq!(k.state.stats.vms_killed, 1);
    assert!(!k.state.pds.contains_key(&victim), "victim PD must be gone");
    // No hardware-task IRQ line may stay bound to the dead VM.
    for line in 0..mnv_hal::IrqNum::PL_COUNT {
        if let Some((owner, _)) = k.state.hwmgr.irqs.owner(mnv_hal::IrqNum::pl(line)) {
            assert_ne!(owner, victim, "IRQ line leaked to a dead VM");
        }
    }
    let before = k.pd(survivor).stats.cpu_cycles;
    k.run(Cycles::from_millis(30.0));
    let after = k.pd(survivor).stats.cpu_cycles;
    assert!(after > before, "survivor must keep running after the kill");
    assert!(
        k.state.stats.hypercalls_total > 0,
        "system still serving hypercalls"
    );
}

#[test]
fn fault_trace_events_reach_the_tracer() {
    // The degradation story is observable: PcapRetry / PrrQuarantine /
    // SwFallback events land in the shared trace ring.
    let (mut k, ids) = kernel();
    let task = ids[6];
    let mut os = Ucos::new(UcosConfig::default());
    os.task_create(8, Box::new(THwTask::new(vec![task], 31)));
    k.create_vm(VmSpec {
        name: "g",
        priority: Priority::GUEST,
        guest: GuestKind::Ucos(Box::new(os)),
    });
    let tracer = k.enable_tracing(65536);
    let mut plan = FaultPlan::none(15);
    plan.prr_hang = SiteCfg::new(1_000_000, 1_000); // every start wedges
    k.enable_faults(plan);
    k.state.hwmgr.watchdog_timeout = 1_000_000;
    k.run(Cycles::from_millis(120.0));

    let events = tracer.snapshot();
    let has = |name: &str| events.iter().any(|(_, e)| e.kind_name() == name);
    assert!(has("HwTaskEscalate"), "escalation event missing");
    assert!(has("PrrQuarantine"), "quarantine event missing");
    assert!(has("SwFallback"), "fallback event missing");
    assert!(has("FaultInjected"), "injection event missing");
}

#[test]
fn trace_records_every_injected_fault() {
    // The trace ring is the one event record below the kernel: every trip
    // the fault plane counts must appear as exactly one `FaultInjected`
    // event for its site. Only `MemFlip` can trip without injecting:
    // mnv-arm's `Machine::inject_time_faults` skips the flip when the
    // window is shorter than a word or lies outside physical memory. The
    // kernel points the window at the bitstream store, which is RAM, so
    // the counts agree there too.
    let mut tripped = [0u32; SITE_COUNT];
    for seed in [3u64, 11, 17, 227] {
        let (mut k, plane) = chaos_kernel(seed);
        let tracer = k.enable_tracing(1 << 18);
        k.run(Cycles::from_millis(120.0));
        assert_eq!(tracer.dropped(), 0, "seed {seed}: the ring wrapped");
        let events = tracer.snapshot();
        for site in FaultSite::ALL {
            let traced = events
                .iter()
                .filter(|(_, e)| *e == TraceEvent::FaultInjected { site: site as u8 })
                .count() as u32;
            assert_eq!(
                traced,
                plane.count(site),
                "seed {seed}: {} trips and trace disagree",
                site.name()
            );
            tripped[site as usize] += traced;
        }
    }
    // The seeds cover every site, so no site's agreement is vacuous.
    for site in FaultSite::ALL {
        assert!(tripped[site as usize] > 0, "{} never tripped", site.name());
    }
}

#[test]
fn trace_replays_every_counter_on_chaos_seed_11() {
    // The replay oracle over chaos seed 11 of the standard two-VM
    // workload, with the recovery soak's hang pressure so the ladder,
    // quarantine and post-mortem paths carry load: every lifecycle
    // counter and hot-path per-VM counter, in KernelStats and in the
    // metrics snapshot, equals the fold of the unwrapped trace ring, and
    // the newest post-mortem's reason and embedded metrics equal the fold
    // up to the dump.
    let (mut k, _) = chaos_kernel(11);
    let mut plan = FaultPlan::chaos(11);
    plan.prr_hang = SiteCfg::new(400_000, 6);
    let plane = k.enable_faults(plan);
    let tracer = k.enable_tracing(1 << 20);
    k.enable_metrics();
    k.enable_profiling(mnv_profile::DEFAULT_PERIOD);
    k.state.hwmgr.watchdog_timeout = 1_000_000;
    k.state.hwmgr.scrub_interval = 1_000_000;
    k.run(Cycles::from_millis(120.0));
    assert!(!plane.records().is_empty(), "the chaos plan never fired");
    let h = k.state.stats.hwmgr;
    assert!(h.quarantines > 0 && h.ladder_retries > 0, "{h:?}");
    assert!(
        k.state.profiler.last_dump().is_some(),
        "no post-mortem fired"
    );
    replay_oracle(&k, &tracer).unwrap();
}

#[test]
fn trace_replays_every_counter_on_four_paper_guests() {
    // The replay oracle over fig9's four-guest scenario (the paper's
    // T_hw + GSM + ADPCM guests, 4 ms quantum). Nothing faults, so the
    // hot-path per-VM counters carry the check.
    let mut k = Kernel::new(mini_nova::KernelConfig {
        quantum: Cycles::from_millis(4.0),
        ..Default::default()
    });
    let ids = k.register_paper_task_set();
    for i in 0..4u64 {
        let mut os = Ucos::new(UcosConfig::default());
        os.task_create(8, Box::new(THwTask::new(ids.clone(), 11 + i * 7919)));
        os.task_create(12, Box::new(GsmTask::new(11 + i * 7919, 1)));
        os.task_create(20, Box::new(AdpcmTask::new(11 + i * 7919 + 99)));
        k.create_vm(VmSpec {
            name: "guest",
            priority: Priority::GUEST,
            guest: GuestKind::Ucos(Box::new(os)),
        });
    }
    let tracer = k.enable_tracing(1 << 20);
    k.enable_metrics();
    k.run(Cycles::from_millis(100.0));
    let s = &k.state.stats;
    assert!(s.hypercalls_total > 0 && s.virqs_injected > 0, "{s:?}");
    replay_oracle(&k, &tracer).unwrap();
}
