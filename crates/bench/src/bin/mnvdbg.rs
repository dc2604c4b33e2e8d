//! `mnvdbg` — decode Mini-NOVA post-mortem flight-recorder dumps.
//!
//! A dump is the self-contained JSON blob the kernel writes when a VM is
//! killed, a PRR is quarantined or the PCAP watchdog aborts a transfer:
//! the recent flight-recorder events, the hottest profile buckets and the
//! trigger-site machine context. This binary renders one as a
//! human-readable report, with no simulator state needed — a dump from a
//! different build configuration still decodes.
//!
//! It also decodes causal-request waterfalls: `--request <id> <file>`
//! looks a request up in a waterfall export (`fig9 --waterfall` writes
//! one) and renders its per-stage latency breakdown — the post-hoc answer
//! to "where did request N spend its time".
//!
//! Usage:
//!   mnvdbg <dump.json>            decode and print a dump file
//!   mnvdbg --request ID FILE      render one request's stage waterfall
//!                                 from a waterfall JSON export
//!                                 (`ID` = `all` lists every request)
//!   mnvdbg --demo        run a 2-guest scenario with every accelerator
//!                        start wedged, let the watchdog quarantine the
//!                        region, write the resulting dump to
//!                        `target/experiments/mnvdbg.demo.json` and
//!                        round-trip it through the decoder

use mnv_bench::table3::{build_kernel, quick_config};
use mnv_bench::write_artifact;
use mnv_fault::{FaultPlan, SiteCfg};
use mnv_hal::Cycles;
use mnv_profile::postmortem;
use mnv_trace::waterfall;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    match args.get(1).map(String::as_str) {
        Some("--demo") => demo(),
        Some("--request") => match (args.get(2), args.get(3)) {
            (Some(id), Some(path)) => request(id, path),
            _ => {
                eprintln!("usage: mnvdbg --request <id|all> <waterfall.json>");
                std::process::exit(2);
            }
        },
        Some(path) => decode_file(path),
        None => {
            eprintln!(
                "usage: mnvdbg <dump.json> | mnvdbg --request <id|all> <file> | mnvdbg --demo"
            );
            std::process::exit(2);
        }
    }
}

/// Render one request's waterfall (or all of them) from an export file.
fn request(id: &str, path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mnvdbg: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let falls = match waterfall::parse(&text) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("mnvdbg: {path}: {e}");
            std::process::exit(1);
        }
    };
    if id == "all" {
        if falls.is_empty() {
            println!("no requests in {path}");
        }
        for w in &falls {
            println!("{}", waterfall::render(w));
        }
        return;
    }
    let id: u32 = match id.parse() {
        Ok(n) => n,
        Err(_) => {
            eprintln!("mnvdbg: request id must be a number or `all`, got {id:?}");
            std::process::exit(2);
        }
    };
    match falls.iter().find(|w| w.req == id) {
        Some(w) => print!("{}", waterfall::render(w)),
        None => {
            eprintln!(
                "mnvdbg: request {id} not in {path} ({} requests: {}..={})",
                falls.len(),
                falls.iter().map(|w| w.req).min().unwrap_or(0),
                falls.iter().map(|w| w.req).max().unwrap_or(0),
            );
            std::process::exit(1);
        }
    }
}

fn decode_file(path: &str) {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("mnvdbg: cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    match postmortem::parse(&text) {
        Ok(pm) => print!("{}", pm.render()),
        Err(e) => {
            eprintln!("mnvdbg: {path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Force a post-mortem end to end: wedge every accelerator start so the
/// reconfiguration watchdog quarantines the region, then decode the dump
/// the kernel captured at the quarantine point.
fn demo() {
    let cfg = quick_config();
    let mut k = build_kernel(2, 11, &cfg);
    let profiler = k.enable_profiling(mnv_profile::DEFAULT_PERIOD);
    let mut plan = FaultPlan::none(9);
    plan.prr_hang = SiteCfg::new(1_000_000, 8); // every start wedges
    k.enable_faults(plan);
    k.state.hwmgr.watchdog_timeout = 1_000_000; // ~1.5 ms: faster demo
    k.run(Cycles::from_millis(60.0));

    let Some(blob) = profiler.last_dump() else {
        eprintln!("mnvdbg: no dump fired (no quarantine in 60 ms?)");
        std::process::exit(1);
    };
    write_artifact("mnvdbg.demo.json", &blob);
    let pm = match postmortem::parse(&blob) {
        Ok(pm) => pm,
        Err(e) => {
            eprintln!("mnvdbg: demo dump does not decode: {e}");
            std::process::exit(1);
        }
    };
    println!("decoded target/experiments/mnvdbg.demo.json:\n");
    print!("{}", pm.render());
}
