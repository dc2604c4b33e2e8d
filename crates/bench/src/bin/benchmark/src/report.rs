//! What a workload run reports, and how it becomes the end-to-end and
//! per-layer metric lists named in `BENCHMARK.json`.

use mini_nova::stats::HwMgrStats;
use mnv_hal::cycles::CPU_HZ;

use crate::probes::Probes;
use crate::stats::{median, tail_quantile, T3_ROWS};
use crate::system::{Gate, TraceDrain, Window};

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// `num / den`, 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Operations completed over the windows the end-to-end metrics cover:
/// served hardware-task requests, or guest loop iterations on the MIR
/// workloads.
#[derive(Clone, Copy, Debug)]
pub struct Ops {
    pub done: f64,
    pub sim_s: f64,
    pub switches: u64,
    pub hypercalls: u64,
}

impl Ops {
    pub fn over<'a>(windows: impl IntoIterator<Item = &'a Window>, done: f64) -> Ops {
        let mut ops = Ops {
            done,
            sim_s: 0.0,
            switches: 0,
            hypercalls: 0,
        };
        for w in windows {
            ops.sim_s += w.sim_s();
            ops.switches += w.delta.switches;
            ops.hypercalls += w.delta.hypercalls;
        }
        ops
    }

    /// The requests the windows served.
    pub fn served<'a>(windows: impl IntoIterator<Item = &'a Window> + Clone) -> Ops {
        let done = windows.clone().into_iter().map(Window::served).sum();
        Ops::over(windows, done)
    }

    /// Operation accounting: `attempted` operations, `failed` of which
    /// failed.
    pub fn metrics(&self, attempted: u64, failed: u64) -> Vec<Metric> {
        vec![
            metric("ops", self.done, "count"),
            metric("ops_attempted", attempted as f64, "count"),
            metric("ops_failed", failed as f64, "count"),
            metric(
                "fail_ratio",
                ratio(failed as f64, attempted as f64),
                "ratio",
            ),
            metric(
                "hc_per_op",
                ratio(self.hypercalls as f64, self.done),
                "count",
            ),
        ]
    }
}

/// The manager's end-to-end response delay: median and the highest
/// percentile with at least ten samples beyond it.
pub fn manager_latency(h: &HwMgrStats) -> Vec<Metric> {
    let us = |cycles: f64| cycles * 1e6 / CPU_HZ as f64;
    let n = h.total.samples;
    let q = tail_quantile(n);
    vec![
        metric("mgr_total_us_p50", h.total.p50_us(), "sim_us"),
        metric(
            "mgr_total_us_tail",
            q.map_or(0.0, |q| us(h.total.hist.quantile(q))),
            "sim_us",
        ),
        metric("mgr_total_tail_q", q.unwrap_or(0.0), "quantile"),
        metric("mgr_total_samples", n as f64, "count"),
    ]
}

/// Everything one workload run measured.
pub struct Outcome {
    /// Host seconds of each timed construction of the workload's system.
    pub setup_s: Vec<f64>,
    /// The window `sim_ms_per_s` and the per-layer metrics come from.
    pub primary: Window,
    pub ops: Ops,
    pub attempted: u64,
    pub failed: u64,
    pub gates: Vec<Gate>,
    /// Workload-specific results (printed and recorded, not bounded).
    pub workload: Vec<Metric>,
    /// Run parameters recorded with every number.
    pub params: Vec<Metric>,
    pub layer: LayerInput,
}

/// Per-layer inputs a workload collects besides its primary window; zero
/// where the workload does not use the layer.
#[derive(Default)]
pub struct LayerInput {
    /// Block executor speed over the reference interpreter on the lockstep
    /// prefix.
    pub speedup_vs_ref: f64,
    /// Table III means (sim µs), rows as [`T3_ROWS`], columns native and
    /// 1–4 guests; zero outside `fig9`.
    pub t3: [[f64; 5]; 5],
    pub faults_injected: u64,
    pub trace: TraceDrain,
    /// Host seconds spent in correctness gates.
    pub check_s: f64,
    /// Accelerator runs in the primary window.
    pub hw_runs: f64,
    pub gsm_frames: u64,
    pub adpcm_blocks: u64,
    /// Share of served requests that ran on an FFT core (the rest QAM).
    pub fft_share: f64,
}

impl Outcome {
    /// The `end_to_end` metrics of `BENCHMARK.json`, given the run's peak RSS.
    pub fn end_to_end(&self, peak_rss_mb: f64) -> Vec<Metric> {
        vec![
            metric("setup_s", median(&self.setup_s), "s"),
            metric("sim_ms_per_s", median(&self.primary.rates), "sim_ms/s"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
            metric(
                "ops_per_sim_s",
                ratio(self.ops.done, self.ops.sim_s),
                "op/sim_s",
            ),
            metric(
                "switches_per_op",
                ratio(self.ops.switches as f64, self.ops.done),
                "count",
            ),
        ]
    }

    /// The `per_layer` metrics of `BENCHMARK.json`. Without probes (an
    /// untraced run) the probe timings and estimated shares are left out.
    pub fn per_layer(&self, probes: Option<&Probes>) -> Vec<Metric> {
        let w = &self.primary;
        let d = &w.delta;
        let h = &w.hwmgr;
        let l = &self.layer;
        let instrs = d.pmu.instr_retired as f64;
        let pki = |n: u64| ratio(n as f64 * 1e3, instrs);
        let mut out = vec![
            metric("arm.exec.mips", ratio(instrs, w.host_s) / 1e6, "MIPS"),
            metric("arm.exec.speedup_vs_ref", l.speedup_vs_ref, "ratio"),
            metric("arm.exec.bcache_hit_ratio", d.bcache.hit_ratio(), "ratio"),
            metric(
                "arm.exec.chain_follow_ratio",
                d.bcache.chain_follow_ratio(),
                "ratio",
            ),
            metric(
                "arm.exec.bcache_evictions",
                d.bcache.evictions as f64,
                "count",
            ),
            metric(
                "arm.exec.batched_share",
                ratio(d.bcache.batched_instrs as f64, instrs),
                "ratio",
            ),
            metric("arm.mem.l1i_refill_pki", pki(d.pmu.l1i_refill), "1/kinstr"),
            metric("arm.mem.l1d_refill_pki", pki(d.pmu.l1d_refill), "1/kinstr"),
            metric("arm.mem.tlb_refill_pki", pki(d.pmu.tlb_refill), "1/kinstr"),
            metric("arm.mem.pt_walks", d.pmu.pt_walks as f64, "count"),
            metric("core.trap.hypercalls", d.hypercalls as f64, "count"),
            metric("core.trap.pcap_polls", d.pcap_polls as f64, "count"),
            metric("core.trap.hw_requests", d.hw_requests as f64, "count"),
            metric("core.trap.ring_kicks", d.ring_kicks as f64, "count"),
            metric("core.sched.switches", d.switches as f64, "count"),
            metric("core.sched.dispatches", d.dispatches as f64, "count"),
            metric("core.vgic.virqs", d.virqs as f64, "count"),
            metric("core.hwmgr.invocations", h.invocations as f64, "count"),
            metric("core.hwmgr.busy", h.busy as f64, "count"),
            metric("core.hwmgr.reconfigs", h.reconfigs as f64, "count"),
            metric("core.hwmgr.reclaims", h.reclaims as f64, "count"),
            metric("core.hwmgr.orphaned_vms", w.orphaned_end as f64, "count"),
            metric("core.hwmgr.orphaned_share", w.orphaned_share(), "share"),
        ];
        for (r, row) in T3_ROWS.iter().enumerate() {
            for (g, &v) in l.t3[r].iter().enumerate() {
                // Natively only execution exists (its total is its
                // execution), so g0 has two cells.
                if g > 0 || matches!(*row, "exec" | "total") {
                    out.push(metric(format!("core.hwmgr.t3.{row}.g{g}"), v, "sim_us"));
                }
            }
        }
        out.extend([
            metric("core.ring.kicks", h.ring_kicks as f64, "count"),
            metric(
                "core.ring.descs_per_kick",
                ratio(h.ring_descs as f64, h.ring_kicks as f64),
                "desc/kick",
            ),
            metric("core.ring.virqs", h.ring_virqs as f64, "count"),
            metric(
                "core.supervisor.faults_injected",
                l.faults_injected as f64,
                "count",
            ),
        ]);
        for (name, v) in [
            ("quarantines", h.quarantines),
            ("sw_fallbacks", h.sw_fallbacks),
            ("ladder_retries", h.ladder_retries),
            ("ladder_relocations", h.ladder_relocations),
            ("ladder_fallbacks", h.ladder_fallbacks),
            ("ladder_errors", h.ladder_errors),
            ("scrubs", h.scrubs),
            ("scrub_fails", h.scrub_fails),
            ("reinstates", h.reinstates),
            ("prrs_retired", h.prrs_retired),
            ("repromotions", h.repromotions),
            ("vm_restarts", d.vm_restarts),
            ("liveness_kills", d.liveness_kills),
        ] {
            out.push(metric(format!("core.supervisor.{name}"), v as f64, "count"));
        }
        let t = &l.trace;
        out.extend([
            metric("fpga.pcap.transfers", d.pcap_transfers as f64, "count"),
            metric("fpga.prr.utilisation", w.prr_utilisation(), "share"),
            metric("trace.events", t.events as f64, "count"),
            metric("trace.dropped", t.dropped as f64, "count"),
            metric("trace.waterfall_s", t.waterfall_s, "s"),
            metric("trace.export_s", t.export_s, "s"),
            metric("trace.pre_export_rss_mb", t.pre_export_rss_mb, "MB"),
            metric("trace.export_peak_rss_mb", t.export_peak_rss_mb, "MB"),
            metric("bench.window_s", w.host_s, "s"),
            metric("bench.host_speed", median(&w.speeds), "ratio"),
            metric("bench.check_s", l.check_s, "s"),
            // Untraced ÷ traced sim_ms_per_s: the window with and without
            // the recorder's own bookkeeping.
            metric(
                "bench.trace_overhead",
                ratio(w.host_s, w.host_s - w.recorder_s),
                "ratio",
            ),
        ]);
        if let Some(p) = probes {
            let shares = self.est_shares(p);
            out.extend([
                metric("arm.mem.cache_access_ns", p.cache_access_ns, "ns"),
                metric("core.trap.svc_roundtrip_ns", p.svc_roundtrip_ns, "ns"),
                metric("fpga.pcap.transfer_host_us", p.pcap_transfer_us, "us"),
                metric("fpga.core.qam_ns", p.qam_ns, "ns"),
                metric("fpga.core.fft_ns", p.fft_ns, "ns"),
                metric("ucos.gsm_frame_ns", p.gsm_frame_ns, "ns"),
                metric("ucos.adpcm_block_ns", p.adpcm_block_ns, "ns"),
            ]);
            out.extend(
                shares
                    .into_iter()
                    .map(|(layer, s)| metric(format!("{layer}.est_share"), s, "share")),
            );
        }
        out
    }

    /// Each probed layer's estimated share of the window's host time
    /// (count × probe cost ÷ window), and the remainder as `other`.
    fn est_shares(&self, p: &Probes) -> Vec<(&'static str, f64)> {
        let w = &self.primary;
        let d = &w.delta;
        let l = &self.layer;
        let window_ns = w.host_s * 1e9;
        let core_ns = l.fft_share * p.fft_ns + (1.0 - l.fft_share) * p.qam_ns;
        let shares = [
            ("arm.mem", w.cache_accesses() as f64 * p.cache_access_ns),
            ("core.trap", d.hypercalls as f64 * p.svc_roundtrip_ns),
            (
                "fpga",
                d.pcap_transfers as f64 * p.pcap_transfer_us * 1e3 + l.hw_runs * core_ns,
            ),
            (
                "ucos",
                l.gsm_frames as f64 * p.gsm_frame_ns + l.adpcm_blocks as f64 * p.adpcm_block_ns,
            ),
        ]
        .map(|(layer, ns)| (layer, ratio(ns, window_ns)));
        let other = 1.0 - shares.iter().map(|(_, s)| s).sum::<f64>();
        shares.into_iter().chain([("other", other)]).collect()
    }
}
