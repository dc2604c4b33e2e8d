//! What every workload does to a kernel: time its construction, run its
//! measured window in fixed-length `Kernel::run` segments, take counter
//! snapshots, check the two executors in lockstep, and drain the kernel
//! trace through the observability sinks.

use std::time::Instant;

use mini_nova::kernel::{GuestKind, Kernel};
use mini_nova::stats::HwMgrStats;
use mnv_arm::blockcache::BlockCacheStats;
use mnv_arm::PmuInputs;
use mnv_hal::abi::Hypercall;
use mnv_hal::Cycles;
use mnv_trace::Tracer;

use crate::calib::{host_speed, timed};
use crate::spans::Recorder;
use crate::stats::{median, status_mb};

/// Constructions timed for `setup_s`.
pub const SETUPS: usize = 5;

/// Simulated length of the executor lockstep prefix.
pub const LOCKSTEP_MS: f64 = 50.0;

/// One run's parameters.
#[derive(Clone, Copy, Debug)]
pub struct Params {
    pub seed: u64,
    /// Host-time budget of the measured window; every workload's simulated
    /// window is this many seconds times its own simulated rate.
    pub seconds: f64,
    pub trace: bool,
    /// Minimum host time of each layer probe (traced runs).
    pub probe_s: f64,
}

impl Params {
    /// Whole segments of `seg_ms` filling `ms_per_s × seconds` simulated
    /// milliseconds (at least one).
    pub fn segments(&self, ms_per_s: f64, seg_ms: f64) -> usize {
        ((ms_per_s * self.seconds / seg_ms).round() as usize).max(1)
    }
}

/// A named correctness gate.
pub struct Gate {
    pub name: String,
    pub result: Result<(), String>,
}

impl Gate {
    pub fn new(name: impl Into<String>, result: Result<(), String>) -> Self {
        Gate {
            name: name.into(),
            result,
        }
    }
}

/// Cumulative counters of one kernel at one instant.
#[derive(Clone, Copy, Debug, Default)]
pub struct Counters {
    pub pmu: PmuInputs,
    pub bcache: BlockCacheStats,
    pub switches: u64,
    pub dispatches: u64,
    pub hypercalls: u64,
    pub pcap_polls: u64,
    pub hw_requests: u64,
    pub ring_kicks: u64,
    pub virqs: u64,
    pub reqs_minted: u64,
    pub vms_killed: u64,
    pub liveness_kills: u64,
    pub vm_restarts: u64,
    pub pcap_transfers: u64,
    pub prr_busy_cycles: u64,
}

impl Counters {
    pub fn of(k: &Kernel) -> Self {
        let s = &k.state.stats;
        let hc = |h: Hypercall| s.hypercalls[h.nr() as usize];
        let pl = k.pl();
        Counters {
            pmu: k.machine.pmu_inputs(),
            bcache: k.machine.bcache.stats,
            switches: s.vm_switches,
            dispatches: k.state.sched.stats.dispatches,
            hypercalls: s.hypercalls_total,
            pcap_polls: hc(Hypercall::PcapPoll),
            hw_requests: hc(Hypercall::HwTaskRequest),
            ring_kicks: hc(Hypercall::RingKick),
            virqs: s.virqs_injected,
            reqs_minted: s.reqs_minted,
            vms_killed: s.vms_killed,
            liveness_kills: s.liveness_kills,
            vm_restarts: s.vm_restarts,
            pcap_transfers: pl.pcap_transfers(),
            prr_busy_cycles: (0..pl.num_prrs() as u8)
                .map(|p| pl.prr(p).busy_cycles)
                .sum(),
        }
    }

    /// Counts accumulated since `earlier`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let b = |now: u64, then: u64| now.saturating_sub(then);
        let (nb, eb) = (&self.bcache, &earlier.bcache);
        Counters {
            pmu: self.pmu.delta(&earlier.pmu),
            bcache: BlockCacheStats {
                hits: b(nb.hits, eb.hits),
                misses: b(nb.misses, eb.misses),
                chain_follows: b(nb.chain_follows, eb.chain_follows),
                replayed_instrs: b(nb.replayed_instrs, eb.replayed_instrs),
                batched_instrs: b(nb.batched_instrs, eb.batched_instrs),
                store_invalidations: b(nb.store_invalidations, eb.store_invalidations),
                maint_invalidations: b(nb.maint_invalidations, eb.maint_invalidations),
                replay_aborts: b(nb.replay_aborts, eb.replay_aborts),
                evictions: b(nb.evictions, eb.evictions),
                superblocks: b(nb.superblocks, eb.superblocks),
                fused_segs: b(nb.fused_segs, eb.fused_segs),
            },
            switches: b(self.switches, earlier.switches),
            dispatches: b(self.dispatches, earlier.dispatches),
            hypercalls: b(self.hypercalls, earlier.hypercalls),
            pcap_polls: b(self.pcap_polls, earlier.pcap_polls),
            hw_requests: b(self.hw_requests, earlier.hw_requests),
            ring_kicks: b(self.ring_kicks, earlier.ring_kicks),
            virqs: b(self.virqs, earlier.virqs),
            reqs_minted: b(self.reqs_minted, earlier.reqs_minted),
            vms_killed: b(self.vms_killed, earlier.vms_killed),
            liveness_kills: b(self.liveness_kills, earlier.liveness_kills),
            vm_restarts: b(self.vm_restarts, earlier.vm_restarts),
            pcap_transfers: b(self.pcap_transfers, earlier.pcap_transfers),
            prr_busy_cycles: b(self.prr_busy_cycles, earlier.prr_busy_cycles),
        }
    }
}

/// VMs waiting on a reconfiguration no poll can ever complete: their
/// `pcap_pending` is set but `pcap_owner` does not name them, because a
/// later stage-5 launch took the channel over.
pub fn orphaned_vms(k: &Kernel) -> usize {
    let owner = k.state.hwmgr.pcap_owner;
    k.state
        .pds
        .values()
        .filter(|p| p.pcap_pending.is_some() && owner != Some(p.vm))
        .count()
}

/// One kernel's measured window.
#[derive(Clone, Debug, Default)]
pub struct Window {
    /// Counts accumulated over the window.
    pub delta: Counters,
    /// Manager statistics of the window alone (reset at its start).
    pub hwmgr: HwMgrStats,
    /// Simulated ms per reference-host second, one entry per segment.
    pub rates: Vec<f64>,
    /// Host speed relative to the reference host, one entry per segment.
    pub speeds: Vec<f64>,
    /// Raw host seconds of the window.
    pub host_s: f64,
    pub sim_ms: f64,
    pub orphaned_start: usize,
    pub orphaned_end: usize,
    /// Orphaned VMs summed over segment-end samples.
    pub orphan_samples: u64,
    /// VMs summed over segment-end samples.
    pub vm_samples: u64,
    /// Host seconds the span recorder spent on its own bookkeeping.
    pub recorder_s: f64,
    pub prrs: usize,
}

impl Window {
    /// Requests served: manager grants (invocations not answered Busy),
    /// less the requests orphaned during the window.
    pub fn served(&self) -> f64 {
        let grants = self.hwmgr.invocations.saturating_sub(self.hwmgr.busy);
        grants.saturating_sub(self.new_orphans()) as f64
    }

    pub fn new_orphans(&self) -> u64 {
        self.orphaned_end.saturating_sub(self.orphaned_start) as u64
    }

    pub fn sim_s(&self) -> f64 {
        self.sim_ms / 1e3
    }

    pub fn orphaned_share(&self) -> f64 {
        if self.vm_samples == 0 {
            0.0
        } else {
            self.orphan_samples as f64 / self.vm_samples as f64
        }
    }

    /// Cache-model accesses made one at a time: all accesses but the
    /// instruction fetches the block executor replays in bulk.
    pub fn cache_accesses(&self) -> u64 {
        let p = &self.delta.pmu;
        (p.l1i_access + p.l1d_access).saturating_sub(self.delta.bcache.replayed_instrs)
    }

    /// Share of [`Window::cache_accesses`] that missed L1.
    pub fn l1_miss_ratio(&self) -> f64 {
        let p = &self.delta.pmu;
        let misses = (p.l1i_refill + p.l1d_refill) as f64;
        (misses / self.cache_accesses().max(1) as f64).min(1.0)
    }

    /// Mean PRR busy time over the window's simulated cycles.
    pub fn prr_utilisation(&self) -> f64 {
        let cycles = self.delta.pmu.cycles.max(1) as f64;
        self.delta.prr_busy_cycles as f64 / self.prrs.max(1) as f64 / cycles
    }
}

/// Run `segments` calls of `Kernel::run(seg_ms)`, calling `after(i, k)`
/// after segment `i`. The manager statistics are reset at the start so
/// they cover the window alone.
pub fn measure(
    k: &mut Kernel,
    rec: &mut Recorder,
    segments: usize,
    seg_ms: f64,
    mut after: impl FnMut(usize, &mut Kernel),
) -> Window {
    k.state.stats.reset_hwmgr();
    let start = Counters::of(k);
    let recorder_start = rec.cost_s();
    let mut w = Window {
        orphaned_start: orphaned_vms(k),
        prrs: k.pl().num_prrs(),
        ..Window::default()
    };
    let mut speed = host_speed();
    for i in 0..segments {
        let t0 = Instant::now();
        let c0 = k.machine.now();
        rec.span("Kernel::run", |_| k.run(Cycles::from_millis(seg_ms)));
        let host = t0.elapsed().as_secs_f64();
        let sim = Cycles::new((k.machine.now() - c0).raw()).as_millis();
        let next = host_speed();
        let seg_speed = (speed + next) / 2.0;
        speed = next;
        w.rates.push(sim / (host * seg_speed).max(1e-9));
        w.speeds.push(seg_speed);
        w.host_s += host;
        w.sim_ms += sim;
        w.orphaned_end = orphaned_vms(k);
        w.orphan_samples += w.orphaned_end as u64;
        w.vm_samples += k.state.pds.len() as u64;
        after(i, k);
    }
    w.delta = Counters::of(k).since(&start);
    w.recorder_s = rec.cost_s() - recorder_start;
    w.hwmgr = k.state.stats.hwmgr;
    w
}

/// Construct the workload's system [`SETUPS`] times, timing each in
/// reference-host seconds; returns the times and the last system.
pub fn timed_setups<T>(
    rec: &mut Recorder,
    mut build: impl FnMut(&mut Recorder) -> T,
) -> (Vec<f64>, T) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let (sys, ref_s) = timed(|| rec.span("setup", &mut build));
        times.push(ref_s);
        last = Some(sys);
    }
    (times, last.expect("SETUPS > 0"))
}

/// Block-executor runs of the lockstep prefix: its time is the median of
/// these, since the prefix is short on that executor and one contended
/// run would skew the speed-up.
const BLOCK_RUNS: usize = 3;

/// Run the same prefix on fresh kernels, the block executor against the
/// per-instruction reference (`bcache.enabled = false`), and require
/// identical clocks, retired counts and PMU inputs. Returns the block
/// executor's speed over the reference's.
pub fn lockstep(
    rec: &mut Recorder,
    prefix_ms: f64,
    mut build: impl FnMut(&mut Recorder) -> Kernel,
) -> (f64, Gate) {
    let mut run = |rec: &mut Recorder, block_cache: bool| {
        let mut k = rec.span("setup", &mut build);
        k.machine.bcache.enabled = block_cache;
        let ((), ref_s) =
            timed(|| rec.span("Kernel::run", |_| k.run(Cycles::from_millis(prefix_ms))));
        let end = (
            k.machine.now(),
            k.machine.instructions_retired,
            k.machine.pmu_inputs(),
        );
        (ref_s, end)
    };
    let (ref_s, reference) = rec.span("lockstep", |rec| run(rec, false));
    let mut block_s = Vec::with_capacity(BLOCK_RUNS);
    let mut result = Ok(());
    for _ in 0..BLOCK_RUNS {
        let (s, end) = rec.span("lockstep", |rec| run(rec, true));
        block_s.push(s);
        if end != reference && result.is_ok() {
            result = Err(format!(
                "block executor diverged from the reference after {prefix_ms} ms: \
                 (clock, retired, pmu) {end:?} vs {reference:?}"
            ));
        }
    }
    (
        ref_s / median(&block_s).max(1e-9),
        Gate::new("lockstep", result),
    )
}

/// Kernel-trace volume and the cost of draining it through the sinks.
#[derive(Clone, Copy, Debug, Default)]
pub struct TraceDrain {
    pub events: u64,
    pub dropped: u64,
    pub waterfall_s: f64,
    pub export_s: f64,
    pub pre_export_rss_mb: f64,
    pub export_peak_rss_mb: f64,
}

/// Snapshot the kernel trace, rebuild its request waterfalls and export it
/// as Chrome JSON into memory. Empty (and near-free) when the workload
/// runs with kernel tracing off.
pub fn drain_trace(tracer: &Tracer, rec: &mut Recorder) -> TraceDrain {
    let pre_export_rss_mb = status_mb("VmRSS");
    let events = rec.span("Tracer::snapshot", |_| tracer.snapshot());
    let t0 = Instant::now();
    let waterfalls = rec.span("waterfall::build", |_| mnv_trace::waterfall::build(&events));
    let waterfall_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let json = rec.span("chrome::export", |_| {
        mnv_trace::chrome::export_with_drops(&events, tracer.dropped())
    });
    let export_s = t0.elapsed().as_secs_f64();
    std::hint::black_box((waterfalls.len(), json.len()));
    TraceDrain {
        events: tracer.total(),
        dropped: tracer.dropped(),
        waterfall_s,
        export_s,
        pre_export_rss_mb,
        export_peak_rss_mb: status_mb("VmHWM"),
    }
}

/// Scheduling steps of the uC/OS task at `prio`, summed over the guests.
pub fn ucos_steps(k: &mut Kernel, prio: u8) -> u64 {
    let vms: Vec<_> = k.state.pds.keys().copied().collect();
    vms.into_iter()
        .filter_map(|vm| match k.guest_mut(vm) {
            Some(GuestKind::Ucos(os)) => Some(os.task_steps(prio)),
            _ => None,
        })
        .sum()
}

/// Gate: no VM was killed during a fault-free workload.
pub fn no_kills(name: &str, k: &Kernel) -> Gate {
    let killed = k.state.stats.vms_killed;
    Gate::new(
        format!("no_kills.{name}"),
        if killed == 0 {
            Ok(())
        } else {
            Err(format!("{killed} VM(s) killed in a fault-free workload"))
        },
    )
}
