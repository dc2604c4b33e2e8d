//! The repository benchmark: five workloads, each measured end to end and
//! layer by layer, behind correctness gates.
//!
//! ```text
//! benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace [0|1]]
//! benchmark --all [--seed <n>] [--seconds <s>] [--trace [0|1]]
//! ```
//!
//! A run prints every metric as `name value unit`, appends a JSON record
//! with the run parameters to `target/benchmark/runs.jsonl`, and ends with
//! one JSON line: `correct`, `attempted`, `failed` and the metrics named in
//! `BENCHMARK.json` (its `end_to_end` list, or with `--trace` its
//! `per_layer` list). It exits non-zero when a correctness gate fails.
//! `--trace` also records a span around every call into a layer, writes
//! them to `target/benchmark/<workload>-<seed>.spans.json`, prints their
//! self times, and runs the layer probes. `--all` runs every workload in a
//! child process of its own, one after another.

mod calib;
mod chaos;
mod fig9;
mod hwbatch;
mod mir;
mod probes;
mod report;
mod spans;
mod stats;
mod system;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::process::{Command, ExitCode};

use mnv_trace::json::Json;

use crate::report::{Metric, Outcome};
use crate::spans::Recorder;
use crate::stats::status_mb;
use crate::system::Params;

const WORKLOADS: [&str; 5] = ["fig9", "mir_loop", "mir_churn", "hwbatch", "chaos"];
/// The default workload seed; 227 is the held-out one.
const DEFAULT_SEED: u64 = 11;
const DEFAULT_SECONDS: f64 = 10.0;
const PROBE_S: f64 = 0.2;
/// The stack's cargo features this package enables (see `Cargo.toml`).
const FEATURES: [&str; 4] = ["trace", "fault", "block-cache", "ring"];
const OUT_DIR: &str = "target/benchmark";
const USAGE: &str =
    "usage: benchmark (--workload <name> | --all) [--seed <n>] [--seconds <s>] [--trace [0|1]]";

struct Args {
    /// `None` with `--all`.
    workload: Option<String>,
    params: Params,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut all = false;
    let mut params = Params {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        probe_s: PROBE_S,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |flag: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--workload" => {
                let w = value("--workload")?;
                if !WORKLOADS.contains(&w.as_str()) {
                    return Err(format!(
                        "unknown workload {w:?}; one of {}",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(w);
            }
            "--seed" => {
                params.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                params.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?;
            }
            "--trace" => {
                params.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--all" => all = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    match (all, workload.is_some()) {
        (true, true) => Err("--all and --workload exclude each other".into()),
        (false, false) => Err("name a --workload or pass --all".into()),
        _ => Ok(Args { workload, params }),
    }
}

fn run_workload(name: &str, p: &Params, rec: &mut Recorder) -> Outcome {
    match name {
        "fig9" => fig9::run(p, rec),
        "mir_loop" => mir::run(mir::Kind::Loop, p, rec),
        "mir_churn" => mir::run(mir::Kind::Churn, p, rec),
        "hwbatch" => hwbatch::run(p, rec),
        "chaos" => chaos::run(p, rec),
        _ => unreachable!("workload names are checked when parsed"),
    }
}

/// Everything one run reports, in the form it is printed and recorded.
struct RunResult {
    correct: bool,
    attempted: u64,
    failed: u64,
    end_to_end: Vec<Metric>,
    per_layer: Vec<Metric>,
}

/// Run one workload in this process: measure, gate, print and record.
fn bench(name: &str, p: &Params) -> RunResult {
    let mut rec = Recorder::new(p.trace);
    let outcome = run_workload(name, p, &mut rec);
    let probes = p
        .trace
        .then(|| probes::run(outcome.primary.l1_miss_ratio(), p.probe_s, &mut rec));
    let end_to_end = outcome.end_to_end(status_mb("VmHWM"));
    let per_layer = outcome.per_layer(probes.as_ref());
    let correct = outcome.gates.iter().all(|g| g.result.is_ok());

    println!(
        "# benchmark {name} seed {} seconds {} trace {}",
        p.seed,
        p.seconds,
        u8::from(p.trace)
    );
    println!("## gates");
    for g in &outcome.gates {
        match &g.result {
            Ok(()) => println!("ok {}", g.name),
            Err(e) => println!("FAILED {}: {e}", g.name),
        }
    }
    for (title, list) in [
        ("end-to-end", &end_to_end),
        ("workload", &outcome.workload),
        ("per-layer", &per_layer),
        ("parameters", &outcome.params),
    ] {
        println!("## {title}");
        for m in list {
            println!("{} {} {}", m.name, m.value, m.unit);
        }
    }
    if p.trace {
        print_self_times(&rec);
        write_file(
            &format!("{OUT_DIR}/{name}-{}.spans.json", p.seed),
            &rec.to_json().to_string(),
        );
    }
    let gates = outcome
        .gates
        .iter()
        .map(|g| {
            let v = match &g.result {
                Ok(()) => Json::str("ok"),
                Err(e) => Json::str(e.clone()),
            };
            (g.name.clone(), v)
        })
        .collect();
    let record = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::num(p.seed as f64)),
        ("seconds", Json::num(p.seconds)),
        ("trace", Json::Bool(p.trace)),
        ("build", build_json()),
        ("params", metrics_json(&outcome.params)),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::num(outcome.attempted as f64)),
        ("failed", Json::num(outcome.failed as f64)),
        ("gates", Json::Obj(gates)),
        ("end_to_end", metrics_json(&end_to_end)),
        ("workload_metrics", metrics_json(&outcome.workload)),
        ("per_layer", metrics_json(&per_layer)),
    ]);
    append_line(&format!("{OUT_DIR}/runs.jsonl"), &record.to_string());
    RunResult {
        correct,
        attempted: outcome.attempted,
        failed: outcome.failed,
        end_to_end,
        per_layer,
    }
}

fn print_self_times(rec: &Recorder) {
    let times = rec.self_times();
    let total: u64 = times.iter().map(|t| t.self_ns).sum();
    println!("## span self time");
    println!("{:<28}{:>8}{:>12}{:>8}", "span", "calls", "self_s", "share");
    for t in times {
        println!(
            "{:<28}{:>8}{:>12.6}{:>8.3}",
            t.name,
            t.calls,
            t.self_ns as f64 * 1e-9,
            t.self_ns as f64 / total.max(1) as f64
        );
    }
}

fn metrics_json(metrics: &[Metric]) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj([("value", Json::num(m.value)), ("unit", Json::str(m.unit))]),
                )
            })
            .collect::<BTreeMap<_, _>>(),
    )
}

/// How this binary was built: recorded with every number it measures.
fn build_json() -> Json {
    Json::obj([
        (
            "profile",
            Json::str(if cfg!(debug_assertions) {
                "dev"
            } else {
                "release"
            }),
        ),
        (
            "features",
            Json::Arr(FEATURES.iter().map(|f| Json::str(*f)).collect()),
        ),
        (
            "nproc",
            Json::num(std::thread::available_parallelism().map_or(0, |n| n.get()) as f64),
        ),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
    ])
}

/// The final line, which callers of the `BENCHMARK.json` command read.
fn result_line(r: &RunResult, trace: bool) -> String {
    let metrics = if trace { &r.per_layer } else { &r.end_to_end };
    Json::obj([
        ("correct", Json::Bool(r.correct)),
        ("attempted", Json::num(r.attempted as f64)),
        ("failed", Json::num(r.failed as f64)),
        ("metrics", metrics_json(metrics)),
    ])
    .to_string()
}

fn write_file(path: &str, text: &str) {
    let written = std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(path, text));
    match written {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("warning: cannot write {path}: {e}"),
    }
}

fn append_line(path: &str, line: &str) {
    let appended = std::fs::create_dir_all(OUT_DIR).and_then(|()| {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        writeln!(f, "{line}")
    });
    if let Err(e) = appended {
        eprintln!("warning: cannot append to {path}: {e}");
    }
}

/// Run every workload in a child process of its own, one after another.
fn run_all(p: &Params) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this binary: {e}");
            return ExitCode::from(2);
        }
    };
    let mut passed = 0;
    for w in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", w, "--seed", &p.seed.to_string()])
            .args(["--seconds", &p.seconds.to_string()])
            .args(["--trace", if p.trace { "1" } else { "0" }])
            .status();
        match status {
            Ok(s) if s.success() => passed += 1,
            Ok(s) => eprintln!("{w}: {s}"),
            Err(e) => eprintln!("{w}: cannot run: {e}"),
        }
    }
    println!("# all: {passed}/{} workloads passed", WORKLOADS.len());
    if passed == WORKLOADS.len() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let Some(name) = args.workload else {
        return run_all(&args.params);
    };
    let r = bench(&name, &args.params);
    println!("{}", result_line(&r, args.params.trace));
    if r.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_valued_and_bare_trace_flags() {
        let a = parse(&args("--workload fig9 --seed 227 --seconds 10 --trace 0")).unwrap();
        assert_eq!(a.workload.as_deref(), Some("fig9"));
        assert_eq!(
            (a.params.seed, a.params.seconds, a.params.trace),
            (227, 10.0, false)
        );
        let a = parse(&args("--workload chaos --trace 1")).unwrap();
        assert!(a.params.trace);
        let a = parse(&args("--trace --workload chaos")).unwrap();
        assert!(a.params.trace);
        assert_eq!(a.params.seed, DEFAULT_SEED);
        assert!(parse(&args("--all")).unwrap().workload.is_none());
    }

    #[test]
    fn rejects_bad_arguments() {
        for bad in [
            "",
            "--workload nope",
            "--workload fig9 --seconds 0",
            "--workload fig9 --seed x",
            "--workload fig9 --all",
            "--workload fig9 --frobnicate",
        ] {
            assert!(parse(&args(bad)).is_err(), "{bad:?} accepted");
        }
    }

    /// `BENCHMARK.json` at the repository root names exactly the workloads
    /// this binary runs and exactly the metrics each run emits.
    #[test]
    fn emits_exactly_what_benchmark_json_names() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let text = std::fs::read_to_string(root).expect("BENCHMARK.json at the repository root");
        let spec = mnv_trace::json::parse(&text).expect("BENCHMARK.json parses");
        let names = |key: &str, field: &str| -> Vec<String> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is a list"))
                .iter()
                .map(|e| e.get(field).and_then(Json::as_str).unwrap().to_owned())
                .collect()
        };
        assert_eq!(names("workloads", "name"), WORKLOADS);
        let units = |key: &str| -> BTreeMap<String, String> {
            names(key, "name")
                .into_iter()
                .zip(names(key, "unit"))
                .collect()
        };
        let (e2e, layers) = (units("end_to_end"), units("per_layer"));
        let emitted = |ms: &[Metric]| -> BTreeMap<String, String> {
            ms.iter()
                .map(|m| (m.name.clone(), m.unit.to_owned()))
                .collect()
        };
        for w in WORKLOADS {
            // A tiny scale: the shape of the output, not the numbers.
            for trace in [false, true] {
                let p = Params {
                    seed: DEFAULT_SEED,
                    seconds: 0.01,
                    trace,
                    probe_s: 1e-4,
                };
                let r = bench(w, &p);
                assert!(r.correct, "{w}: a gate failed");
                let line = mnv_trace::json::parse(&result_line(&r, trace)).unwrap();
                let keys: Vec<&String> = line.as_obj().unwrap().keys().collect();
                assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
                if trace {
                    assert_eq!(emitted(&r.per_layer), layers, "{w} per_layer");
                } else {
                    assert_eq!(emitted(&r.end_to_end), e2e, "{w} end_to_end");
                    assert!(
                        r.end_to_end.iter().all(|m| m.value > 0.0),
                        "{w}: a zero metric"
                    );
                }
            }
        }
    }
}
