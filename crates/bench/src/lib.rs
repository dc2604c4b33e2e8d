//! # mnv-bench — the experiment harness
//!
//! Regenerates every quantitative artefact of the paper's evaluation
//! section from the simulated stack:
//!
//! * **Table III** — overhead of hardware-task management (µs) for native
//!   execution and 1–4 parallel guest OSes ([`table3`]);
//! * **Fig. 9** — the degradation ratios derived from Table III
//!   ([`fig9_rows`]);
//! * the **reconfiguration-delay** table from the authors' companion paper
//!   that Table III's setup relies on ([`recon_delay`]);
//! * the **ablation** experiments for the design choices DESIGN.md calls
//!   out (lazy VFP switch, ASID tagging, manager priority, hypercalls vs
//!   trap-and-emulate) ([`ablation`]).
//!
//! Binaries print the tables in the paper's layout and emit JSON records
//! next to them, plus Perfetto-loadable `.trace.json` timelines captured
//! through `mnv-trace`. Host speed is measured by the repository benchmark
//! (`src/bin/benchmark`), not here.

pub mod ablation;
pub mod attrib;
pub mod table3;

pub use table3::{
    fig9_rows, measure_native, measure_virtualized, profiled_run, recon_delay, traced_run, Metric,
    Row, Table3Config,
};

use mnv_trace::json::Json;

/// The command-line arguments after the program name. Exits with `usage`
/// and status 2 when one of them is not in `known`, so a stale or
/// misspelt flag fails loudly instead of being ignored.
pub fn args_or_usage(known: &[&str], usage: &str) -> Vec<String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(bad) = unknown_arg(&args, known) {
        eprintln!("unknown argument {bad:?}\nusage: {usage}");
        std::process::exit(2);
    }
    args
}

/// The first of `args` that is not in `known`.
fn unknown_arg<'a>(args: &'a [String], known: &[&str]) -> Option<&'a str> {
    args.iter().map(String::as_str).find(|a| !known.contains(a))
}

/// Write a JSON value to `target/experiments/<name>.json` (best-effort:
/// failures only warn, results are always printed anyway).
pub fn write_json(name: &str, value: &Json) {
    write_artifact(&format!("{name}.json"), &value.to_string());
}

/// Write raw text to `target/experiments/<file>` (best-effort, same policy
/// as [`write_json`]); used for the Chrome trace artefacts, whose JSON is
/// already rendered by the exporter.
pub fn write_artifact(file: &str, content: &str) {
    let dir = std::path::Path::new("target/experiments");
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("warn: cannot create {}: {e}", dir.display());
        return;
    }
    let path = dir.join(file);
    if let Err(e) = std::fs::write(&path, content) {
        eprintln!("warn: cannot write {}: {e}", path.display());
    } else {
        eprintln!("(wrote {})", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|a| a.to_string()).collect()
    }

    #[test]
    fn unknown_arguments_are_rejected() {
        let fig9 = ["--quick", "--no-trace"];
        assert_eq!(unknown_arg(&args(&["--quick"]), &fig9), None);
        assert_eq!(unknown_arg(&args(&[]), &fig9), None);
        assert_eq!(
            unknown_arg(&args(&["--quick", "--ring"]), &fig9),
            Some("--ring")
        );
        assert_eq!(unknown_arg(&args(&["vfp"]), &ablation::ARMS), None);
        assert_eq!(unknown_arg(&args(&["asdi"]), &ablation::ARMS), Some("asdi"));
    }
}
