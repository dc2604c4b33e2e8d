//! Regenerates Fig. 9: the performance degradation ratios of the Hardware
//! Task Manager, R_D = t_virtualized / t_reference, for 1–4 parallel guest
//! OSes. Also captures an event timeline of the 4-guest configuration
//! (`target/experiments/fig9.trace.json`).
//!
//! With `--attrib` it additionally prints the cache/TLB-pollution
//! attribution table — per-VM D-cache/TLB refill counts for 1–4
//! multiplexed VMs — turning the figure's explanation into measured data,
//! and writes the counts to `fig9.attrib.json`, followed by the "where"
//! breakdown: sampled cycles per (VM, hypercall/DPR-stage) context.
//!
//! With `--profile` it runs the 4-guest workload under the 10 µs PC
//! sampler and writes the flame-graph input (`fig9.collapsed.txt`) plus
//! Perfetto sample-rate counter tracks (`fig9.profile.trace.json`). Same
//! seed ⇒ byte-identical profile.
//!
//! With `--waterfall` it re-runs the 4-guest workload with causal request
//! tracing live, reconstructs the per-request stage waterfalls and writes
//! `fig9.waterfall.json` (the `mnvdbg --request` input format) plus an SLO
//! summary of the run.
//!
//! Usage: `cargo run --release -p mnv-bench --bin fig9 [--quick] [--no-trace] [--attrib] [--profile] [--waterfall]`

use mnv_bench::attrib::{format_attrib, measure_attrib};
use mnv_bench::table3::build_kernel;
use mnv_bench::{
    args_or_usage, fig9_rows, measure_native, measure_virtualized, profiled_run, traced_run,
    write_artifact, write_json, Table3Config,
};
use mnv_hal::Cycles;
use mnv_trace::json::Json;
use mnv_trace::waterfall;

fn main() {
    let args = args_or_usage(
        &[
            "--quick",
            "--no-trace",
            "--attrib",
            "--profile",
            "--waterfall",
        ],
        "fig9 [--quick] [--no-trace] [--attrib] [--profile] [--waterfall]",
    );
    let cfg = if args.iter().any(|a| a == "--quick") {
        mnv_bench::table3::quick_config()
    } else {
        Table3Config::default()
    };

    let native = measure_native(&cfg);
    let virt: Vec<_> = (1..=4).map(|n| measure_virtualized(n, &cfg)).collect();
    let rows = fig9_rows(&native, &virt);

    println!("FIG. 9: PERFORMANCE DEGRADATION RATIO OF HARDWARE TASK MANAGER");
    println!("(entry/exit/IRQ-entry normalised to the 1-OS case; execution");
    println!(" and total to the native case, as in the paper)\n");
    println!(
        "{:<10}{:>9}{:>9}{:>11}{:>12}{:>9}",
        "guests", "entry", "exit", "IRQ entry", "execution", "total"
    );
    for r in &rows {
        println!(
            "{:<10}{:>9.3}{:>9.3}{:>11.3}{:>12.3}{:>9.3}",
            r.guests, r.entry, r.exit, r.irq_entry, r.execution, r.total
        );
    }
    println!("\nPaper's Fig. 9 series for comparison:");
    println!("  entry      1.000  1.270  1.443  1.655");
    println!("  exit       1.000  1.255  1.328  1.366");
    println!("  IRQ entry  1.000  1.981  2.115  2.221");
    println!("  execution  1.032  1.056  1.075  1.085");
    println!("  total      1.138  1.191  1.223  1.227");

    write_json(
        "fig9",
        &Json::Arr(rows.iter().map(|r| r.to_json()).collect()),
    );

    if args.iter().any(|a| a == "--attrib") {
        let reports: Vec<_> = (1..=4).map(|n| measure_attrib(n, &cfg)).collect();
        println!("\n{}", format_attrib(&reports));
        write_json(
            "fig9.attrib",
            &Json::Arr(reports.iter().map(|r| r.to_json()).collect()),
        );

        // The "where" next to the attribution's "who": sampled cycles per
        // (VM, hypercall/DPR-stage) kernel context over the 4-guest run.
        let profiler = profiled_run(4, &cfg, 30.0);
        println!("WHERE (PC samples per VM and kernel context, 4 guests, 30 ms):");
        for (frame, n) in profiler.hot_contexts().into_iter().take(12) {
            println!("  {n:>8}  {frame}");
        }
        println!();
    }

    if args.iter().any(|a| a == "--profile") {
        let profiler = profiled_run(4, &cfg, 30.0);
        write_artifact("fig9.collapsed.txt", &profiler.collapsed());
        write_artifact("fig9.profile.trace.json", &profiler.perfetto_counters());
        println!(
            "\nPROFILE (10 us PC sampling, 4 guests, 30 ms simulated): {} samples, {:.1}% attributed",
            profiler.total_samples(),
            100.0 * profiler.attributed_fraction()
        );
        for (stack, n) in profiler.top_k(10) {
            println!("  {n:>8}  {stack}");
        }
        println!("(feed target/experiments/fig9.collapsed.txt to any flame-graph renderer)");
    }

    if args.iter().any(|a| a == "--waterfall") {
        // A dedicated traced run so both the kernel's SLO counters and the
        // request spans come from the same deterministic 30 ms window.
        let mut k = build_kernel(4, 11, &cfg);
        let tracer = k.enable_tracing(1 << 20);
        k.run(Cycles::from_millis(30.0));
        let falls = waterfall::build(&tracer.snapshot());
        if falls.is_empty() {
            eprintln!("warning: no request spans captured in the trace window");
        } else {
            let complete = falls.iter().filter(|w| w.complete).count();
            let s = &k.state.stats;
            println!(
                "\nWATERFALL (4 guests, 30 ms): {} requests traced, {complete} complete",
                falls.len()
            );
            println!(
                "SLO: {} requests minted, {} violations, {} burns (objective {:.1} ms)",
                s.reqs_minted,
                s.slo_violations.iter().sum::<u64>(),
                s.slo_burns.iter().sum::<u64>(),
                Cycles::new(k.state.hwmgr.slo.objective(0)).as_millis()
            );
            // Show the slowest completed request end-to-end.
            if let Some(w) = falls
                .iter()
                .filter(|w| w.complete)
                .max_by(|a, b| a.total_us().total_cmp(&b.total_us()))
            {
                println!("\nslowest completed request:\n{}", waterfall::render(w));
            }
            write_artifact(
                "fig9.waterfall.json",
                &waterfall::to_json(&falls).to_string(),
            );
            eprintln!(
                "(inspect one with: mnvdbg --request <id> target/experiments/fig9.waterfall.json)"
            );
        }
    }

    if !args.iter().any(|a| a == "--no-trace") {
        let tracer = traced_run(4, &cfg, 30.0);
        if tracer.dropped() > 0 {
            eprintln!(
                "warning: trace ring wrapped — {} earlier events missing from fig9.trace.json",
                tracer.dropped()
            );
        }
        write_artifact("fig9.trace.json", &tracer.export_chrome());
        eprintln!("(load target/experiments/fig9.trace.json in Perfetto / chrome://tracing)");
    }
}
