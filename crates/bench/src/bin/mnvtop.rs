//! `mnvtop` — a live, top-style per-VM view of the running simulation.
//!
//! Runs the Table III scenario under the metrics registry and renders one
//! frame per simulated interval: per-VM cycles, IPC, cache/TLB miss rates,
//! traps and fabric usage, plus the host (microkernel) share and machine-
//! wide fabric counters. Every column is a snapshot *delta* over the
//! frame's window, so the display shows rates, not lifetime totals.
//!
//! Each frame adds a hot-spot pane: the hottest sampled PCs (with VM and
//! kernel-context annotations) and the sampled-cycle share per (VM,
//! hypercall/DPR-stage) context.
//!
//! Each frame also renders a request pane: the frame's SLO
//! violations/burns, the per-interface request-latency distribution with
//! its p99 tail exemplar (a request id `mnvdbg --request` can look up),
//! and a compact waterfall of the slowest request that completed inside
//! the frame's window.
//!
//! Usage:
//!   cargo run --release -p mnv-bench --bin mnvtop -- \
//!     [--guests N] [--frames N] [--interval-ms F] [--plain]
//!
//! `--plain` disables the ANSI clear-screen between frames (the default
//! when stdout is not a terminal), so output can be piped to a file.

use std::collections::BTreeMap;
use std::io::IsTerminal;

use mnv_bench::attrib::AttribRow;
use mnv_bench::table3::{build_kernel, quick_config};
use mnv_hal::Cycles;
use mnv_metrics::{Label, Snapshot};
use mnv_profile::Profiler;
use mnv_trace::waterfall;
use mnv_trace::Tracer;

fn arg_val(args: &[String], name: &str) -> Option<f64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let guests = arg_val(&args, "--guests").unwrap_or(3.0) as usize;
    let frames = arg_val(&args, "--frames").unwrap_or(8.0) as usize;
    let interval_ms = arg_val(&args, "--interval-ms").unwrap_or(20.0);
    let clear = !args.iter().any(|a| a == "--plain") && std::io::stdout().is_terminal();

    let cfg = quick_config();
    let mut k = build_kernel(guests.clamp(1, 8), 11, &cfg);
    let reg = k.enable_metrics();
    let tracer = k.enable_tracing(1 << 20);
    let profiler = k.enable_profiling(mnv_profile::DEFAULT_PERIOD);

    // Short warm-up so caches/TLBs and the scheduler reach steady state.
    k.run(Cycles::from_millis(5.0 * guests as f64));
    let mut prev = reg.snapshot();
    let mut prev_pcs = counts_map(&profiler.top_k(usize::MAX));
    let mut prev_ctxs = counts_map(&profiler.hot_contexts());

    for frame in 0..frames {
        let window_start = k.machine.now().raw();
        k.run(Cycles::from_millis(interval_ms));
        let snap = reg.snapshot();
        let d = snap.delta(&prev);
        prev = snap;
        if clear {
            print!("\x1b[2J\x1b[H");
        }
        render(frame, interval_ms, &d, &k.state.metrics.snapshot());
        render_hot(&profiler, &mut prev_pcs, &mut prev_ctxs);
        render_reqs(
            &tracer,
            &d,
            &k.state.metrics.snapshot(),
            k.state.stats.reqs_minted,
            window_start,
        );
    }
}

/// The causal-request pane: frame SLO counters, the per-interface request
/// latency distribution with its p99 tail exemplar, and a one-line
/// waterfall of the slowest request completed inside this frame's window.
fn render_reqs(tracer: &Tracer, d: &Snapshot, lifetime: &Snapshot, minted: u64, window_start: u64) {
    println!(
        "requests: {minted} minted   slo: {} violation(s) / {} burn(s) this frame ({} / {} lifetime)",
        d.total("slo_violations"),
        d.total("slo_burns"),
        lifetime.total("slo_violations"),
        lifetime.total("slo_burns"),
    );
    // Lifetime latency distribution per accelerator interface. The tail
    // exemplar is the last request id that landed beyond the p99 estimate
    // — paste it into `mnvdbg --request` to see where that time went.
    for h in lifetime.hists.iter().filter(|h| h.name == "req_latency") {
        let us = |c: u64| Cycles::new(c).as_micros();
        let exemplar = h
            .buckets
            .iter()
            .rev()
            .find(|b| h.is_tail(b) && b.exemplar_req != 0);
        let mut line = format!(
            "  {:<6} n={:<5} p99={:>7.0}us max={:>7.0}us",
            match h.label {
                Label::Iface(name) => name,
                _ => "?",
            },
            h.count,
            us(h.p99),
            us(h.max),
        );
        if let Some(b) = exemplar {
            line.push_str(&format!(
                "   tail exemplar: req {} ({:.0}us)",
                b.exemplar_req,
                us(b.exemplar_value)
            ));
        }
        println!("{line}");
    }
    // The slowest request that finished inside this frame, as a compact
    // stage chain (durations in us).
    let falls = waterfall::build(&tracer.snapshot());
    let slowest = falls
        .iter()
        .filter(|w| w.complete && w.start >= window_start)
        .max_by(|a, b| a.total.cmp(&b.total));
    if let Some(w) = slowest {
        let chain: Vec<String> = w
            .stages
            .iter()
            .map(|s| format!("{} {:.0}", s.stage, Cycles::new(s.dur).as_micros()))
            .collect();
        println!(
            "slowest this frame: req {} vm{} {:.0}us = {}",
            w.req,
            w.vm,
            w.total_us(),
            chain.join(" | ")
        );
    }
    println!();
}

fn counts_map(cur: &[(String, u64)]) -> BTreeMap<String, u64> {
    cur.iter().map(|(k, n)| (k.clone(), *n)).collect()
}

/// Per-frame delta of a cumulative (bucket, samples) list, hottest first.
fn delta_counts(cur: &[(String, u64)], prev: &mut BTreeMap<String, u64>) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = cur
        .iter()
        .map(|(k, n)| (k.clone(), n - prev.get(k).copied().unwrap_or(0)))
        .filter(|(_, n)| *n > 0)
        .collect();
    out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    *prev = counts_map(cur);
    out
}

/// The hot-spot pane: the frame's hottest sampled PCs and its sampled-cycle
/// share per (VM, hypercall/DPR-stage) kernel context.
fn render_hot(
    profiler: &Profiler,
    prev_pcs: &mut BTreeMap<String, u64>,
    prev_ctxs: &mut BTreeMap<String, u64>,
) {
    let pcs = delta_counts(&profiler.top_k(usize::MAX), prev_pcs);
    let ctxs = delta_counts(&profiler.hot_contexts(), prev_ctxs);
    let frame_total: u64 = ctxs.iter().map(|(_, n)| n).sum();
    println!("hot PCs (10 us samples this frame):");
    for (stack, n) in pcs.iter().take(5) {
        println!("  {n:>6}  {stack}");
    }
    let mut ctx_line = String::from("hot contexts:  ");
    for (frame, n) in ctxs.iter().take(6) {
        let pct = 100.0 * *n as f64 / frame_total.max(1) as f64;
        ctx_line.push_str(&format!("{frame} {pct:.0}%  "));
    }
    println!("{ctx_line}");
    println!();
}

fn row_of(d: &Snapshot, label: Label) -> AttribRow {
    AttribRow {
        vm: match label {
            Label::Vm(v) => Some(v),
            _ => None,
        },
        cycles: d.get("pmu_cycles", label),
        instr: d.get("instr_retired", label),
        dcache_access: d.get("dcache_access", label),
        dcache_refill: d.get("dcache_refill", label),
        icache_refill: d.get("icache_refill", label),
        tlb_refill: d.get("tlb_refill", label),
        hypercalls: d.get("hypercalls", label),
        virqs: d.get("virqs_injected", label),
        hwmgr: d.get("hwmgr_invocations", label),
        restarts: d.get("vm_restarts", label),
        repromotions: d.get("vm_repromotions", label),
    }
}

fn render(frame: usize, interval_ms: f64, d: &Snapshot, lifetime: &Snapshot) {
    let vms = {
        let mut v: Vec<u8> = d
            .labels_of("pmu_cycles")
            .into_iter()
            .filter_map(|l| match l {
                Label::Vm(id) => Some(id),
                _ => None,
            })
            .collect();
        v.sort_unstable();
        v
    };
    println!(
        "mnvtop — frame {frame} — {interval_ms} ms simulated window — {} VM(s)",
        vms.len()
    );
    println!(
        "{:<6}{:>12}{:>7}{:>10}{:>9}{:>10}{:>8}{:>8}{:>7}",
        "vm", "cycles", "IPC", "d$miss", "d$miss%", "tlb-ref", "traps", "virq", "hwmgr"
    );
    let print_row = |name: String, r: &AttribRow| {
        println!(
            "{:<6}{:>12}{:>7.3}{:>10}{:>9.2}{:>10}{:>8}{:>8}{:>7}",
            name,
            r.cycles,
            r.ipc(),
            r.dcache_refill,
            r.dmiss_pct(),
            r.tlb_refill,
            r.hypercalls,
            r.virqs,
            r.hwmgr,
        );
    };
    for id in &vms {
        let r = row_of(d, Label::Vm(*id));
        print_row(format!("vm{id}"), &r);
    }
    print_row("host".to_string(), &row_of(d, Label::Host));

    // Fabric / machine-wide counters over the same window.
    println!(
        "fabric: pcap {} B / {} xfer / {} stall   axi-gp0 {} rd / {} wr   hp0 {} B",
        d.get("pcap_bytes", Label::Machine),
        d.get("pcap_transfers", Label::Machine),
        d.get("pcap_stalls", Label::Machine),
        d.get("axi_reads", Label::Iface("m-gp0")),
        d.get("axi_writes", Label::Iface("m-gp0")),
        d.get("axi_hp_bytes", Label::Iface("s-hp0")),
    );
    let mut prr_line = String::from("prrs:  ");
    for p in 0..8u8 {
        let occ = d.get("prr_occupancy_cycles", Label::Prr(p));
        if occ == 0 && lifetime.get("prr_occupancy_cycles", Label::Prr(p)) == 0 {
            continue;
        }
        let busy = lifetime.get("prr_busy", Label::Prr(p));
        let pct = 100.0 * occ as f64 / (interval_ms * mnv_hal::cycles::CPU_HZ as f64 / 1000.0);
        prr_line.push_str(&format!(
            "[{p}]{}{pct:.0}%  ",
            if busy != 0 { "*" } else { " " }
        ));
    }
    println!("{prr_line}");
    println!(
        "world switches: {}   vms killed: {}",
        d.total("world_switches"),
        lifetime.get("vms_killed", Label::Machine),
    );
    // Lifetime recovery counters: the supervision plane's visible trail.
    println!(
        "recovery: {} restarts / {} liveness-kills / {} crash-loops   \
         ladder {}r/{}m/{}f/{}e   scrubs {} ({} fail) reinstates {} repromotions {}",
        lifetime.total("vm_restarts"),
        lifetime.get("liveness_kills", Label::Machine),
        lifetime.get("crash_loop_kills", Label::Machine),
        lifetime.get("ladder_retries", Label::Machine),
        lifetime.get("ladder_relocations", Label::Machine),
        lifetime.get("ladder_fallbacks", Label::Machine),
        lifetime.get("ladder_errors", Label::Machine),
        lifetime.get("prr_scrubs", Label::Machine),
        lifetime.get("prr_scrub_fails", Label::Machine),
        lifetime.get("prr_reinstates", Label::Machine),
        lifetime.get("repromotions", Label::Machine),
    );
    println!();
}
