//! Runs the ablation experiments for the design choices DESIGN.md indexes:
//! lazy VFP switching, ASID tagging, hypercalls vs trap-and-emulate, and
//! the Hardware Task Manager's priority.
//!
//! Usage: `cargo run --release -p mnv-bench --bin ablation [vfp|asid|hypercall|mgrprio]`

use mnv_bench::ablation::{
    asid_vs_flush, hypercall_vs_trap, manager_priority, run_all, vfp_lazy_vs_eager, ARMS,
};
use mnv_bench::{args_or_usage, write_json};
use mnv_trace::json::Json;

fn main() {
    let args = args_or_usage(&ARMS, "ablation [vfp|asid|hypercall|mgrprio]");
    let results = match args.first().map(String::as_str) {
        Some("vfp") => vfp_lazy_vs_eager(),
        Some("asid") => asid_vs_flush(),
        Some("hypercall") => hypercall_vs_trap(),
        Some("mgrprio") => manager_priority(),
        _ => run_all(),
    };

    println!("ABLATIONS: PAPER DESIGN vs ALTERNATIVE\n");
    println!("{:<18}{:<22}{:>14}  unit", "experiment", "arm", "value");
    for r in &results {
        println!(
            "{:<18}{:<22}{:>14.2}  {}",
            r.experiment, r.arm, r.value, r.unit
        );
    }
    write_json(
        "ablation",
        &Json::Arr(results.iter().map(|r| r.to_json()).collect()),
    );
}
