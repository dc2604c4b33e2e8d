//! Table III / Fig. 9 measurement harness.
//!
//! Mirrors the paper's §V-B methodology: guest VMs each run a virtualized
//! uC/OS-II with heavy workload tasks (GSM encoding, ADPCM compression) and
//! the T_hw requester, which "randomly selects a hardware task from the
//! hardware task set and generates a hardware task hypercall for this
//! task. After a sufficient number of iterations, the average execution
//! time can be calculated." Four PRRs host the FFT (256–8192) and QAM
//! (4/16/64) task sets; the native baseline implements the manager as a
//! uC/OS-II function on the bare machine.
//!
//! Beyond the paper's means, every row carries p99 and max from the
//! log-bucketed histograms in `mini_nova::stats` — seeds are merged sample
//! by sample (`HwMgrStats::merge`), so the percentiles are computed over
//! the pooled distribution rather than averaged per run.

use mini_nova::kernel::{GuestKind, Kernel, KernelConfig, VmSpec};
use mini_nova::native::NativeHarness;
use mini_nova::stats::{Acc, HwMgrStats};
use mnv_hal::{Cycles, HwTaskId, Priority};
use mnv_profile::Profiler;
use mnv_trace::json::Json;
use mnv_trace::Tracer;
use mnv_ucos::kernel::{Ucos, UcosConfig};
use mnv_ucos::tasks::{AdpcmTask, GsmTask, THwTask};

/// Mean/p99/max summary of one measured latency (µs).
#[derive(Clone, Copy, Debug, Default)]
pub struct Metric {
    /// Arithmetic mean (the paper's reported figure).
    pub mean_us: f64,
    /// 99th percentile (histogram estimate over the pooled samples).
    pub p99_us: f64,
    /// Worst single sample.
    pub max_us: f64,
}

impl Metric {
    /// Summarise an accumulator.
    pub fn from_acc(a: &Acc) -> Metric {
        Metric {
            mean_us: a.mean_us(),
            p99_us: a.p99_us(),
            max_us: a.max_us(),
        }
    }

    /// JSON record.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("mean_us", Json::num(self.mean_us)),
            ("p99_us", Json::num(self.p99_us)),
            ("max_us", Json::num(self.max_us)),
        ])
    }
}

/// One measured row-set (one column of Table III).
#[derive(Clone, Copy, Debug)]
pub struct Row {
    /// Configuration label (0 = native, 1.. = guest count).
    pub guests: u32,
    /// HW Manager entry.
    pub entry: Metric,
    /// HW Manager exit.
    pub exit: Metric,
    /// PL IRQ entry.
    pub irq_entry: Metric,
    /// HW Manager execution.
    pub exec: Metric,
    /// End-to-end overhead (entry + execution + exit per invocation).
    pub total: Metric,
    /// Manager invocations measured.
    pub samples: u64,
    /// Failed PCAP transfers relaunched by the retry path.
    pub pcap_retries: u64,
    /// PRRs quarantined by the reconfiguration watchdog.
    pub quarantines: u64,
    /// Hardware-task runs served by the software fallback.
    pub sw_fallbacks: u64,
    /// Escalation-ladder rung 1: hung runs restarted in place.
    pub ladder_retries: u64,
    /// Escalation-ladder rung 2: hung runs relocated to another PRR.
    pub ladder_relocations: u64,
    /// Background test-bitstream scrubs of quarantined regions.
    pub scrubs: u64,
    /// Quarantined regions reinstated after consecutive clean scrubs.
    pub reinstates: u64,
    /// Degraded shadow clients promoted back onto fabric hardware.
    pub repromotions: u64,
    /// Supervised VMs relaunched after a kill (0 unless guests crash).
    pub vm_restarts: u64,
    /// Completed requests that missed their interface's latency objective
    /// (0 in a fault-free run — only chaos-armed runs produce tails).
    pub slo_violations: u64,
    /// SLO burn windows (violation count crossed the burn limit).
    pub slo_burns: u64,
}

impl Row {
    /// Build from merged manager statistics.
    pub fn from_stats(guests: u32, h: &HwMgrStats) -> Row {
        Row {
            guests,
            entry: Metric::from_acc(&h.entry),
            exit: Metric::from_acc(&h.exit),
            irq_entry: Metric::from_acc(&h.irq_entry),
            exec: Metric::from_acc(&h.exec),
            total: Metric::from_acc(&h.total),
            samples: h.entry.samples,
            pcap_retries: h.pcap_retries,
            quarantines: h.quarantines,
            sw_fallbacks: h.sw_fallbacks,
            ladder_retries: h.ladder_retries,
            ladder_relocations: h.ladder_relocations,
            scrubs: h.scrubs,
            reinstates: h.reinstates,
            repromotions: h.repromotions,
            vm_restarts: 0,
            slo_violations: 0,
            slo_burns: 0,
        }
    }

    /// JSON record.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("guests", Json::num(self.guests as f64)),
            ("entry", self.entry.to_json()),
            ("exit", self.exit.to_json()),
            ("irq_entry", self.irq_entry.to_json()),
            ("exec", self.exec.to_json()),
            ("total", self.total.to_json()),
            ("samples", Json::num(self.samples as f64)),
            ("pcap_retries", Json::num(self.pcap_retries as f64)),
            ("quarantines", Json::num(self.quarantines as f64)),
            ("sw_fallbacks", Json::num(self.sw_fallbacks as f64)),
            ("ladder_retries", Json::num(self.ladder_retries as f64)),
            (
                "ladder_relocations",
                Json::num(self.ladder_relocations as f64),
            ),
            ("scrubs", Json::num(self.scrubs as f64)),
            ("reinstates", Json::num(self.reinstates as f64)),
            ("repromotions", Json::num(self.repromotions as f64)),
            ("vm_restarts", Json::num(self.vm_restarts as f64)),
            ("slo_violations", Json::num(self.slo_violations as f64)),
            ("slo_burns", Json::num(self.slo_burns as f64)),
        ])
    }
}

/// Harness configuration.
#[derive(Clone, Debug)]
pub struct Table3Config {
    /// Scheduler quantum. The paper uses 33 ms; the default here is 4 ms so
    /// the experiment turns over more scheduling activity per simulated
    /// second (the shape is quantum-insensitive; see EXPERIMENTS.md).
    pub quantum: Cycles,
    /// Measured simulated time per guest (scaled by guest count so every
    /// configuration sees comparable per-guest request counts).
    pub measure_ms_per_guest: f64,
    /// Warm-up simulated time per guest (excluded from the averages).
    pub warmup_ms_per_guest: f64,
    /// Workload seeds pooled together (each seed is an independent run).
    pub seeds: Vec<u64>,
    /// When set, arm the chaos fault preset (`FaultPlan::chaos`) with this
    /// base seed on every virtualized run. The resilience counters in the
    /// report are then nonzero and show what the degradation paths cost;
    /// the default (`None`) keeps Table III a fault-free measurement.
    pub chaos_seed: Option<u64>,
}

impl Default for Table3Config {
    fn default() -> Self {
        Table3Config {
            quantum: Cycles::from_millis(4.0),
            measure_ms_per_guest: 400.0,
            warmup_ms_per_guest: 40.0,
            seeds: vec![11, 227, 4099],
            chaos_seed: None,
        }
    }
}

/// A faster configuration for tests and smoke runs.
pub fn quick_config() -> Table3Config {
    Table3Config {
        measure_ms_per_guest: 120.0,
        warmup_ms_per_guest: 20.0,
        seeds: vec![11],
        ..Default::default()
    }
}

/// The paper's per-guest workload: T_hw + GSM + ADPCM.
fn workload_guest(seed: u64, task_set: Vec<HwTaskId>) -> GuestKind {
    let mut os = Ucos::new(UcosConfig::default());
    os.task_create(8, Box::new(THwTask::new(task_set, seed)));
    os.task_create(12, Box::new(GsmTask::new(seed, 1)));
    os.task_create(20, Box::new(AdpcmTask::new(seed + 99)));
    GuestKind::Ucos(Box::new(os))
}

/// Build the paper's virtualized scenario: `n` guest OSes, each running
/// T_hw + GSM + ADPCM over the paper task set. Shared by the Table III
/// harness, the attribution harness ([`crate::attrib`]) and `mnvtop`.
pub fn build_kernel(n: usize, seed: u64, cfg: &Table3Config) -> Kernel {
    let mut k = Kernel::new(KernelConfig {
        quantum: cfg.quantum,
        ..Default::default()
    });
    let ids = k.register_paper_task_set();
    for i in 0..n {
        k.create_vm(VmSpec {
            name: "guest",
            priority: Priority::GUEST,
            guest: workload_guest(seed + i as u64 * 7919, ids.clone()),
        });
    }
    k
}

/// Measure one virtualized configuration with `n` parallel guest OSes.
pub fn measure_virtualized(n: usize, cfg: &Table3Config) -> Row {
    let mut agg = HwMgrStats::default();
    let mut restarts = 0u64;
    let mut slo_violations = 0u64;
    let mut slo_burns = 0u64;
    for &seed in &cfg.seeds {
        let mut k = build_kernel(n, seed, cfg);
        if let Some(base) = cfg.chaos_seed {
            // Per-seed stream so pooled runs don't replay the same faults.
            k.enable_faults(mnv_fault::FaultPlan::chaos(base ^ seed));
        }
        k.run(Cycles::from_millis(cfg.warmup_ms_per_guest * n as f64));
        k.state.stats.reset_hwmgr();
        let slo = |k: &Kernel| {
            let s = &k.state.stats;
            (
                s.slo_violations.iter().sum::<u64>(),
                s.slo_burns.iter().sum::<u64>(),
            )
        };
        let restarts_before = k.state.stats.vm_restarts;
        let (slo_v_before, slo_b_before) = slo(&k);
        k.run(Cycles::from_millis(cfg.measure_ms_per_guest * n as f64));
        agg.merge(&k.state.stats.hwmgr);
        restarts += k.state.stats.vm_restarts - restarts_before;
        let (slo_v, slo_b) = slo(&k);
        slo_violations += slo_v - slo_v_before;
        slo_burns += slo_b - slo_b_before;
    }
    let mut row = Row::from_stats(n as u32, &agg);
    row.vm_restarts = restarts;
    row.slo_violations = slo_violations;
    row.slo_burns = slo_burns;
    row
}

/// Run one virtualized configuration with event tracing enabled and return
/// the tracer, whose ring then feeds the Chrome-JSON exporter and the
/// plain-text summary. Kept short — the point is a readable timeline, not
/// statistics.
pub fn traced_run(n: usize, cfg: &Table3Config, trace_ms: f64) -> Tracer {
    let mut k = build_kernel(n, cfg.seeds.first().copied().unwrap_or(11), cfg);
    let tracer = k.enable_tracing(1 << 20);
    k.run(Cycles::from_millis(trace_ms));
    tracer
}

/// Run one virtualized configuration with the sampling profiler enabled
/// and return the profiler handle. Sampling is pure observation, so the
/// run is bit-identical to an unprofiled one; same `n`/`cfg`/duration
/// means a byte-identical collapsed profile.
pub fn profiled_run(n: usize, cfg: &Table3Config, profile_ms: f64) -> Profiler {
    let mut k = build_kernel(n, cfg.seeds.first().copied().unwrap_or(11), cfg);
    let profiler = k.enable_profiling(mnv_profile::DEFAULT_PERIOD);
    k.run(Cycles::from_millis(profile_ms));
    profiler
}

/// Measure the native baseline (manager as a uC/OS-II function).
pub fn measure_native(cfg: &Table3Config) -> Row {
    let mut agg = HwMgrStats::default();
    for &seed in &cfg.seeds {
        let os = Ucos::new(UcosConfig::default());
        let mut h = NativeHarness::new(os);
        let ids = h.register_paper_task_set();
        h.os.task_create(8, Box::new(THwTask::new(ids, seed)));
        h.os.task_create(12, Box::new(GsmTask::new(seed, 1)));
        h.os.task_create(20, Box::new(AdpcmTask::new(seed + 99)));
        h.run(Cycles::from_millis(cfg.warmup_ms_per_guest));
        h.stats.reset_hwmgr();
        h.run(Cycles::from_millis(cfg.measure_ms_per_guest));
        agg.merge(&h.stats.hwmgr);
    }
    // Natively only execution exists (no trap, no vGIC): the end-to-end
    // delay is the execution time itself.
    let mut row = Row::from_stats(0, &agg);
    row.total = row.exec;
    row.samples = agg.exec.samples;
    row
}

/// One Fig. 9 series point: the degradation ratios R_D = t_virt / t_ref.
/// As in the paper, entry/exit/IRQ-entry (zero natively) are normalised to
/// the 1-OS case; execution and total to the native case. Ratios are over
/// the means, matching the paper's definition.
#[derive(Clone, Copy, Debug)]
pub struct Fig9Row {
    /// Number of parallel guest OSes.
    pub guests: u32,
    /// Entry ratio (vs 1 OS).
    pub entry: f64,
    /// Exit ratio (vs 1 OS).
    pub exit: f64,
    /// IRQ-entry ratio (vs 1 OS).
    pub irq_entry: f64,
    /// Execution ratio (vs native).
    pub execution: f64,
    /// Total ratio (vs native).
    pub total: f64,
}

impl Fig9Row {
    /// JSON record.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("guests", Json::num(self.guests as f64)),
            ("entry", Json::num(self.entry)),
            ("exit", Json::num(self.exit)),
            ("irq_entry", Json::num(self.irq_entry)),
            ("execution", Json::num(self.execution)),
            ("total", Json::num(self.total)),
        ])
    }
}

/// Derive the Fig. 9 ratios from a native row plus 1..=N virtualized rows.
pub fn fig9_rows(native: &Row, virt: &[Row]) -> Vec<Fig9Row> {
    let base = &virt[0];
    virt.iter()
        .map(|r| Fig9Row {
            guests: r.guests,
            entry: r.entry.mean_us / base.entry.mean_us,
            exit: r.exit.mean_us / base.exit.mean_us,
            irq_entry: r.irq_entry.mean_us / base.irq_entry.mean_us,
            execution: r.exec.mean_us / native.exec.mean_us,
            total: r.total.mean_us / native.total.mean_us,
        })
        .collect()
}

/// One reconfiguration-delay row (the companion-paper table the evaluation
/// setup references for bitstream sizes and latencies).
#[derive(Clone, Debug)]
pub struct ReconRow {
    /// Task name (FFT-256 … QAM-64).
    pub task: String,
    /// Bitstream size in KB.
    pub bitstream_kb: f64,
    /// Measured PCAP reconfiguration delay (ms of simulated time).
    pub delay_ms: f64,
}

impl ReconRow {
    /// JSON record.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("task", Json::str(self.task.clone())),
            ("bitstream_kb", Json::num(self.bitstream_kb)),
            ("delay_ms", Json::num(self.delay_ms)),
        ])
    }
}

/// Measure the PCAP reconfiguration delay of every paper task by timing a
/// real transfer through the machine.
pub fn recon_delay() -> Vec<ReconRow> {
    use mnv_arm::machine::Machine;
    use mnv_fpga::bitstream::{paper_task_set, Bitstream};
    use mnv_fpga::fabric::FabricConfig;
    use mnv_fpga::pl::{pcap_status, plregs, Pl, PlConfig, PL_GP_BASE};
    use mnv_hal::PhysAddr;

    let mut rows = Vec::new();
    for core in paper_task_set() {
        let mut m = Machine::default();
        m.add_peripheral(Box::new(Pl::new(PlConfig::default())));
        let compat = FabricConfig::paper_fabric().compatible_prrs(core);
        let bs = Bitstream::for_core(core, &compat);
        let bytes = bs.encode();
        m.load_bytes(PhysAddr::new(0x0100_0000), &bytes).unwrap();
        let reg = |off| PhysAddr::new(PL_GP_BASE + off);
        m.phys_write_u32(reg(plregs::PCAP_SRC), 0x0100_0000)
            .unwrap();
        m.phys_write_u32(reg(plregs::PCAP_LEN), bytes.len() as u32)
            .unwrap();
        m.phys_write_u32(reg(plregs::PCAP_TARGET), compat[0] as u32)
            .unwrap();
        let t0 = m.now();
        m.phys_write_u32(reg(plregs::PCAP_CTRL), 1).unwrap();
        loop {
            let s = m.phys_read_u32(reg(plregs::PCAP_STATUS)).unwrap();
            if s != pcap_status::BUSY {
                assert_eq!(s, pcap_status::DONE, "{}", core.name());
                break;
            }
            m.charge(2_000);
            m.sync_devices();
        }
        let dt = m.now() - t0;
        rows.push(ReconRow {
            task: core.name(),
            bitstream_kb: bytes.len() as f64 / 1024.0,
            delay_ms: Cycles::new(dt.raw()).as_millis(),
        });
    }
    rows
}

/// Render rows in the paper's Table III layout, extended with p99/max
/// sub-rows from the pooled histograms.
pub fn format_table3(native: &Row, virt: &[Row]) -> String {
    let mut out = String::new();
    out.push_str("TABLE III. OVERHEAD OF HARDWARE TASK MANAGEMENT (US)\n\n");
    out.push_str(&format!(
        "{:<26}{:>9}{:>9}{:>9}{:>9}{:>9}\n",
        "Guest OS number", "Native", "1", "2", "3", "4"
    ));
    let line = |name: &str, f: &dyn Fn(&Row) -> f64| {
        let mut s = format!("{:<26}{:>9.2}", name, f(native));
        for r in virt {
            s.push_str(&format!("{:>9.2}", f(r)));
        }
        s.push('\n');
        s
    };
    let block = |name: &'static str, m: &'static dyn Fn(&Row) -> Metric| {
        let mut s = line(name, &|r| m(r).mean_us);
        s.push_str(&line("  p99", &|r| m(r).p99_us));
        s.push_str(&line("  max", &|r| m(r).max_us));
        s
    };
    out.push_str(&block("HW Manager entry", &|r| r.entry));
    out.push_str(&block("HW Manager exit", &|r| r.exit));
    out.push_str(&block("PL IRQ entry", &|r| r.irq_entry));
    out.push_str(&block("HW Manager execution", &|r| r.exec));
    out.push_str(&block("Total overhead", &|r| r.total));
    // Resilience counters: nonzero only when a run was executed under an
    // armed fault plane — a fault-free benchmark must report all zeros.
    let count = |name: &str, f: &dyn Fn(&Row) -> u64| {
        let mut s = format!("{:<26}{:>9}", name, f(native));
        for r in virt {
            s.push_str(&format!("{:>9}", f(r)));
        }
        s.push('\n');
        s
    };
    out.push_str("\nResilience counters (counts, not us)\n");
    out.push_str(&count("PCAP retries", &|r| r.pcap_retries));
    out.push_str(&count("PRR quarantines", &|r| r.quarantines));
    out.push_str(&count("SW fallback runs", &|r| r.sw_fallbacks));
    out.push_str(&count("Ladder retries", &|r| r.ladder_retries));
    out.push_str(&count("Ladder relocations", &|r| r.ladder_relocations));
    out.push_str(&count("PRR scrubs", &|r| r.scrubs));
    out.push_str(&count("PRR reinstates", &|r| r.reinstates));
    out.push_str(&count("Re-promotions", &|r| r.repromotions));
    out.push_str(&count("VM restarts", &|r| r.vm_restarts));
    out.push_str(&count("SLO violations", &|r| r.slo_violations));
    out.push_str(&count("SLO burns", &|r| r.slo_burns));
    out
}

/// The `--chaos` heal demonstration: a supervised three-guest run is armed
/// with a boosted chaos plan for the first half of the window, the plane is
/// disarmed at half-time, and the second half must drain the fabric back to
/// convergence — every recovery mechanism (liveness restart, escalation
/// ladder, scrub/reinstate, re-promotion) leaves its counter trail in the
/// returned report.
pub fn chaos_heal(seed: u64) -> String {
    use mnv_fault::{FaultPlan, SiteCfg};
    use mnv_ucos::{GuestTask, TaskAction, TaskCtx};

    /// A guest task that spins in no-progress hypercalls: the modelled
    /// transient boot wedge the liveness watchdog must catch.
    struct SpinTask;
    impl GuestTask for SpinTask {
        fn name(&self) -> &'static str {
            "spin"
        }
        fn step(&mut self, ctx: &mut TaskCtx) -> TaskAction {
            use mnv_hal::abi::{Hypercall, HypercallArgs};
            for _ in 0..8 {
                let _ = ctx.env.hypercall(HypercallArgs::new(Hypercall::VmInfo));
            }
            TaskAction::Continue
        }
    }

    // A 2 ms quantum (vs the 33 ms default) multiplexes the three guests
    // fast enough that both halves of the demo see real fabric traffic.
    let mut k = Kernel::new(KernelConfig {
        quantum: Cycles::from_millis(2.0),
        ..Default::default()
    });
    let ids = k.register_paper_task_set();
    k.create_vm(VmSpec {
        name: "g1",
        priority: Priority::GUEST,
        guest: workload_guest(seed, ids[6..].to_vec()),
    });
    k.create_vm(VmSpec {
        name: "g2",
        priority: Priority::GUEST,
        guest: workload_guest(seed ^ 0x5DEECE66D, ids[..6].to_vec()),
    });
    // A supervised guest whose first boot wedges (spin loop) and whose
    // relaunch is healthy: exercises the liveness-kill + restart path.
    let mut boots = 0u32;
    let flaky = k.create_supervised_vm(
        "flaky",
        Priority::GUEST,
        Box::new(move || {
            boots += 1;
            let mut os = Ucos::new(UcosConfig::default());
            if boots == 1 {
                os.task_create(8, Box::new(SpinTask));
            } else {
                os.task_create(20, Box::new(AdpcmTask::new(7)));
            }
            GuestKind::Ucos(Box::new(os))
        }),
    );
    k.watch_liveness(flaky, 300_000);

    let mut plan = FaultPlan::chaos(seed);
    // A hang storm on top of the preset: every accelerator start wedges
    // until the budget is spent, deep enough to walk the whole ladder into
    // quarantine so the disarmed half shows scrub → reinstate → re-promote.
    plan.prr_hang = SiteCfg::new(1_000_000, 8);
    let plane = k.enable_faults(plan);
    // Compressed supervision timers (same ratios as the defaults) so both
    // the degradation and the full heal fit the demo window.
    k.state.hwmgr.watchdog_timeout = 1_000_000;
    k.state.hwmgr.scrub_interval = 1_000_000;

    k.run(Cycles::from_millis(40.0));
    let armed = k.state.stats.clone();
    plane.disarm();
    k.run(Cycles::from_millis(80.0));

    let s = &k.state.stats;
    let h = &s.hwmgr;
    let mut out = String::new();
    out.push_str(&format!(
        "CHAOS HEAL (seed {seed:#x}): 40 ms armed, disarmed, 80 ms drain\n\n"
    ));
    out.push_str(&format!(
        "  armed half:  {} faults injected, {} quarantines, {} sw-fallback runs\n",
        plane.records().len(),
        armed.hwmgr.quarantines,
        armed.hwmgr.sw_fallbacks,
    ));
    out.push_str(&format!(
        "  supervision: {} liveness kills, {} VM restarts, {} crash-loop kills\n",
        s.liveness_kills, s.vm_restarts, s.crash_loop_kills
    ));
    out.push_str(&format!(
        "  ladder:      {} retries, {} relocations, {} fallbacks, {} errors\n",
        h.ladder_retries, h.ladder_relocations, h.ladder_fallbacks, h.ladder_errors
    ));
    out.push_str(&format!(
        "  fabric heal: {} scrubs ({} failed), {} reinstates, {} retired, {} re-promotions\n",
        h.scrubs, h.scrub_fails, h.reinstates, h.prrs_retired, h.repromotions
    ));
    let verdict = |r: Result<(), String>| match r {
        Ok(()) => "OK".to_string(),
        Err(e) => format!("FAILED — {e}"),
    };
    out.push_str(&format!(
        "  convergence: {}\n",
        verdict(k.state.hwmgr.check_converged())
    ));
    out.push_str(&format!(
        "  invariants:  {}\n",
        verdict(k.check_recovery_invariants())
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recon_delay_rows_scale_with_bitstream_size() {
        let rows = recon_delay();
        assert_eq!(rows.len(), 9);
        let fft8192 = rows.iter().find(|r| r.task == "FFT-8192").unwrap();
        let qam4 = rows.iter().find(|r| r.task == "QAM-4").unwrap();
        assert!(fft8192.bitstream_kb > 4.0 * qam4.bitstream_kb);
        assert!(fft8192.delay_ms > 3.0 * qam4.delay_ms);
        // Millisecond-scale latencies, as on real Zynq DPR.
        assert!(fft8192.delay_ms > 0.5 && fft8192.delay_ms < 20.0);
    }

    fn m(mean: f64) -> Metric {
        Metric {
            mean_us: mean,
            p99_us: mean,
            max_us: mean,
        }
    }

    fn row(guests: u32, entry: f64, exit: f64, irq: f64, exec: f64, total: f64) -> Row {
        Row {
            guests,
            entry: m(entry),
            exit: m(exit),
            irq_entry: m(irq),
            exec: m(exec),
            total: m(total),
            samples: 10,
            pcap_retries: 0,
            quarantines: 0,
            sw_fallbacks: 0,
            ladder_retries: 0,
            ladder_relocations: 0,
            scrubs: 0,
            reinstates: 0,
            repromotions: 0,
            vm_restarts: 0,
            slo_violations: 0,
            slo_burns: 0,
        }
    }

    #[test]
    fn fig9_normalisation() {
        let native = row(0, 0.0, 0.0, 0.0, 15.0, 15.0);
        let virt = vec![
            row(1, 1.0, 0.5, 0.2, 15.5, 17.0),
            row(2, 1.5, 0.75, 0.4, 16.0, 18.25),
        ];
        let f = fig9_rows(&native, &virt);
        assert_eq!(f[0].entry, 1.0);
        assert!((f[1].entry - 1.5).abs() < 1e-9);
        assert!((f[1].execution - 16.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn quick_native_row_is_sane() {
        let row = measure_native(&quick_config());
        assert!(row.samples > 3);
        assert_eq!(row.entry.mean_us, 0.0);
        assert!(row.exec.mean_us > 5.0 && row.exec.mean_us < 30.0, "{row:?}");
        // Percentiles come from real samples: p99 ≥ mean-ish, max ≥ p99.
        assert!(row.exec.max_us >= row.exec.p99_us * 0.99, "{row:?}");
    }

    #[test]
    fn percentiles_ordered_in_virtualized_row() {
        let row = measure_virtualized(1, &quick_config());
        for metric in [row.entry, row.exit, row.exec, row.total] {
            assert!(metric.mean_us > 0.0, "{row:?}");
            assert!(metric.max_us >= metric.p99_us * 0.99, "{row:?}");
        }
        // Per-invocation total must be at least entry+exec+exit means.
        let sum = row.entry.mean_us + row.exec.mean_us + row.exit.mean_us;
        assert!(
            row.total.mean_us >= 0.9 * sum,
            "total {} vs phase sum {sum}",
            row.total.mean_us
        );
    }

    #[test]
    fn resilience_counters_render_in_the_report() {
        let native = row(0, 0.0, 0.0, 0.0, 15.0, 15.0);
        let mut v = row(1, 1.0, 0.5, 0.2, 15.5, 17.0);
        v.pcap_retries = 3;
        v.quarantines = 1;
        v.sw_fallbacks = 7;
        v.ladder_retries = 2;
        v.scrubs = 5;
        v.reinstates = 1;
        v.repromotions = 1;
        v.vm_restarts = 1;
        let s = format_table3(&native, &[v]);
        assert!(s.contains("Resilience counters"), "{s}");
        for line in [
            "PCAP retries",
            "PRR quarantines",
            "SW fallback runs",
            "Ladder retries",
            "Ladder relocations",
            "PRR scrubs",
            "PRR reinstates",
            "Re-promotions",
            "VM restarts",
        ] {
            assert!(s.contains(line), "missing {line:?} in:\n{s}");
        }
        let retries_line = s.lines().find(|l| l.starts_with("PCAP retries")).unwrap();
        assert!(retries_line.contains('3'), "{retries_line}");
    }

    #[test]
    fn chaos_config_produces_nonzero_fault_activity() {
        // A chaos-armed quick run must keep measuring (the benchmark shape
        // survives injections) and the pooled row carries the counters.
        let cfg = Table3Config {
            measure_ms_per_guest: 120.0,
            warmup_ms_per_guest: 20.0,
            seeds: vec![11, 13],
            chaos_seed: Some(0xC0A5),
            ..Default::default()
        };
        let r = measure_virtualized(2, &cfg);
        assert!(r.samples > 0, "chaos run stopped measuring: {r:?}");
        assert!(
            r.pcap_retries + r.quarantines + r.sw_fallbacks > 0,
            "chaos preset never exercised a degradation path: {r:?}"
        );
    }

    #[test]
    fn chaos_heal_demo_converges() {
        // The bin's --chaos heal section: armed half degrades, disarmed
        // half drains back — the report must say both gates passed and
        // show the supervision counters moving.
        let s = chaos_heal(0xC0A5);
        assert!(s.contains("convergence: OK"), "{s}");
        assert!(s.contains("invariants:  OK"), "{s}");
        assert!(
            s.contains("1 VM restarts"),
            "flaky guest not relaunched:\n{s}"
        );
    }

    #[test]
    fn traced_run_captures_manager_activity() {
        let tracer = traced_run(2, &quick_config(), 30.0);
        assert!(tracer.is_enabled());
        let events = tracer.snapshot();
        assert!(!events.is_empty());
        let mut kinds: Vec<&'static str> = events.iter().map(|(_, e)| e.kind_name()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert!(kinds.len() >= 5, "only {kinds:?}");
        assert!(kinds.contains(&"VmSwitch"), "{kinds:?}");
        assert!(kinds.contains(&"Hypercall"), "{kinds:?}");
        assert!(kinds.contains(&"HwMgrPhase"), "{kinds:?}");
    }
}
