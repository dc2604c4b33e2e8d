//! Chaos testing: deterministic fault injection against the full stack.
//!
//! The fault plane (mnv-fault) is armed with seeded plans and the kernel
//! must degrade gracefully — retry corrupted PCAP transfers, quarantine
//! hung regions behind a bit-identical software fallback, and keep every
//! uninvolved VM running. Nothing here is allowed to panic, and the fault
//! stream must replay identically for the same seed.

mod common;

use common::{chaos_kernel, chaos_run, kernel, workload_guest};
use mini_nova::obs::Counter;
use mini_nova::{GuestKind, Kernel, VmSpec};
use mnv_fault::{FaultPlan, FaultSite, SiteCfg, SITE_COUNT};
use mnv_fpga::cores::make_core;
use mnv_hal::{Cycles, HwTaskId, Priority};
use mnv_metrics::Registry;
use mnv_trace::TraceEvent;
use mnv_ucos::kernel::{Ucos, UcosConfig};
use mnv_ucos::tasks::{AdpcmTask, BatchMode, HwBatchTask, THwTask, THW_SRC_OFF};

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
fn fault_plane_counters_mirror_the_metrics_registry() {
    // The degradation counters are exported on the metrics plane too: under
    // a seeded chaos run the registry's machine-wide series must agree
    // exactly with the kernel's own fault-plane accounting.
    use mnv_metrics::Label;

    let (mut k, ids) = kernel();
    let qam: Vec<HwTaskId> = ids[6..].to_vec();
    k.create_vm(VmSpec {
        name: "g1",
        priority: Priority::GUEST,
        guest: workload_guest(3, qam),
    });
    let reg = k.enable_metrics();
    k.enable_faults(FaultPlan::chaos(0xFA17));
    k.state.hwmgr.watchdog_timeout = 1_000_000;
    k.run(Cycles::from_millis(120.0));

    let h = &k.state.stats.hwmgr;
    let snap = reg.snapshot();
    let series = [
        ("pcap_retries", h.pcap_retries),
        ("quarantines", h.quarantines),
        ("sw_fallbacks", h.sw_fallbacks),
        ("hwmgr_reclaims", h.reclaims),
        ("hwmgr_reconfigs", h.reconfigs),
    ];
    for (name, stat) in series {
        let metered = snap.get(name, Label::Machine);
        assert_eq!(metered, stat, "registry series {name} diverged");
    }
    assert!(
        snap.get("pcap_retries", Label::Machine) > 0,
        "chaos preset must exercise the retry path"
    );
}

#[test]
fn counter_table_pairs_agree_with_the_registry() {
    // Every counter-table entry names a `KernelStats` field and a registry
    // series bumped together: their values must agree, summed over labels.
    // The check iterates the table itself, so a new entry is covered.
    fn check(k: &Kernel, reg: &Registry, run: &str) {
        let snap = reg.snapshot();
        let mut stats = k.state.stats.clone();
        for c in Counter::ALL {
            let (value, name, _) = c.slot(&mut stats);
            assert_eq!(snap.total(name), *value, "{run}: {name}");
        }
    }

    // Four guests, one of them a shared-ring tenant.
    let (mut k, ids) = kernel();
    let reg = k.enable_metrics();
    let qam: Vec<HwTaskId> = ids[6..].to_vec();
    for seed in 1..=3 {
        k.create_vm(VmSpec {
            name: "g",
            priority: Priority::GUEST,
            guest: workload_guest(seed, ids[..6].to_vec()),
        });
    }
    let mut os = Ucos::new(UcosConfig::default());
    os.task_create(8, Box::new(HwBatchTask::new(qam, 1, BatchMode::Ring, 6, 4)));
    k.create_vm(VmSpec {
        name: "ring",
        priority: Priority::GUEST,
        guest: GuestKind::Ucos(Box::new(os)),
    });
    k.run(Cycles::from_millis(60.0));
    let h = &k.state.stats.hwmgr;
    assert!(
        h.ring_kicks > 0 && h.ring_virqs > 0 && h.reconfigs > 0,
        "{h:?}"
    );
    check(&k, &reg, "4 guests + ring");

    // One chaos seed of the standard two-VM workload.
    let (mut k, _) = chaos_kernel(11);
    let reg = k.enable_metrics();
    k.run(Cycles::from_millis(60.0));
    check(&k, &reg, "chaos seed 11");
}
