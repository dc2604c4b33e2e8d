//! Regenerates Table III: overhead of hardware task management (µs) for
//! native execution and 1–4 parallel guest OSes, with p99/max sub-rows
//! from the pooled latency histograms. Also captures a Perfetto-loadable
//! event timeline of the 2-guest configuration
//! (`target/experiments/table3.trace.json`).
//!
//! Usage: `cargo run --release -p mnv-bench --bin table3 [--quick] [--chaos] [--footprint] [--no-trace]`

use mnv_bench::{
    args_or_usage, footprint, measure_native, measure_virtualized, table3::format_table3,
    traced_run, write_artifact, write_json, Table3Config,
};
use mnv_trace::json::Json;

fn main() {
    let args = args_or_usage(
        &["--quick", "--chaos", "--footprint", "--no-trace"],
        "table3 [--quick] [--chaos] [--footprint] [--no-trace]",
    );
    let mut cfg = if args.iter().any(|a| a == "--quick") {
        mnv_bench::table3::quick_config()
    } else {
        Table3Config::default()
    };
    if args.iter().any(|a| a == "--chaos") {
        // Arm the chaos fault preset: the resilience counter rows then show
        // retries/quarantines/fallbacks and the latency rows what graceful
        // degradation costs. Native runs have no fault plane and stay clean.
        cfg.chaos_seed = Some(0xC0A5);
        eprintln!("chaos fault plane armed (seed base 0xC0A5)");
    }

    if args.iter().any(|a| a == "--footprint") {
        print_footprint();
        return;
    }

    eprintln!(
        "measuring: native + 1..=4 guests, {} ms/guest x {} seeds (simulated time)",
        cfg.measure_ms_per_guest,
        cfg.seeds.len()
    );
    let native = measure_native(&cfg);
    eprintln!("  native done ({} samples)", native.samples);
    let mut virt = Vec::new();
    for n in 1..=4 {
        let row = measure_virtualized(n, &cfg);
        eprintln!("  {n} guest(s) done ({} samples)", row.samples);
        virt.push(row);
    }

    println!("{}", format_table3(&native, &virt));
    println!("Paper's Table III for comparison (us, means):");
    println!("  entry     0.00  0.87  1.11  1.26  1.29");
    println!("  exit      0.00  0.72  0.91  0.96  0.99");
    println!("  PL IRQ    0.00  0.23  0.46  0.50  0.51");
    println!("  exec     15.01 15.46 15.83 16.11 16.31");
    println!("  total    15.01 17.06 17.84 18.33 18.57");

    write_json(
        "table3",
        &Json::obj([
            ("native", native.to_json()),
            (
                "virtualized",
                Json::Arr(virt.iter().map(|r| r.to_json()).collect()),
            ),
        ]),
    );

    if cfg.chaos_seed.is_some() {
        // The self-healing demonstration: arm a boosted chaos plan against
        // a supervised three-guest run, disarm it at half-time and show the
        // drain back to convergence (recovery counters + both gates).
        println!("\n{}", mnv_bench::table3::chaos_heal(0xC0A5));
    }

    if !args.iter().any(|a| a == "--no-trace") {
        let tracer = traced_run(2, &cfg, 30.0);
        if tracer.dropped() > 0 {
            eprintln!(
                "warning: trace ring wrapped — {} earlier events missing from table3.trace.json",
                tracer.dropped()
            );
        }
        write_artifact("table3.trace.json", &tracer.export_chrome());
        println!("\nTrace summary of the 2-guest timeline (30 ms simulated):\n");
        println!("{}", tracer.summary(12));
        println!("(load target/experiments/table3.trace.json in Perfetto / chrome://tracing)");
    }
}

/// The §V-B footprint paragraph: kernel size, hypercall counts, patch
/// size. Exits 1 when a source file cannot be read.
fn print_footprint() {
    use mnv_hal::abi::HYPERCALL_COUNT;
    use mnv_ucos::port::HYPERCALLS_USED;

    let fp = match footprint::measure() {
        Ok(fp) => fp,
        Err(e) => {
            eprintln!("table3: footprint: {e}");
            std::process::exit(1);
        }
    };
    println!("Mini-NOVA footprint (paper §V-B vs this reproduction)");
    println!("  hypercalls provided: {HYPERCALL_COUNT}   (paper: 25)");
    println!(
        "  hypercalls used by uC/OS-II port: {}   (paper: 17)",
        HYPERCALLS_USED.len()
    );
    // Code lines of the microkernel crate without test modules, blanks
    // and comments: the paper's kernel, then what this reproduction adds.
    println!(
        "  paper-kernel source lines: {}   (paper: 5,363 LoC kernel+services)",
        fp.paper_kernel
    );
    println!(
        "  extension source lines: {}   (supervisor, ring, obs, slo, postmortem, mirguest, native)",
        fp.extensions
    );
    println!(
        "  paravirtualization patch lines: {}   (paper: ~200 LoC)",
        fp.patch
    );
}
