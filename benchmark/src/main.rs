//! The repo's benchmark: six workloads, their end-to-end metrics, and a per-layer time
//! budget from socket to noise and from propose to accept. `BENCHMARK.json` at the
//! repository root is the contract; `README.md` beside this package explains the design.
//!
//! ```text
//! wpinq-benchmark --workload W --seed N --seconds S --trace 0|1   one run of one workload
//! wpinq-benchmark run   --seed N [--quick]    every workload, timed, one process each
//! wpinq-benchmark trace --seed N [--quick]    every workload, traced, one process each
//! wpinq-benchmark compare A.json B.json       two suite files against the bounds
//! ```
//!
//! The last line of standard output of a single run is one JSON object with the keys
//! `correct`, `attempted`, `failed`, `metrics`. A run whose checks fail still prints it
//! and exits with code 1.

mod batch;
mod graphs;
mod mcmc;
mod report;
mod spans;
mod stats;
mod svc;
mod svc_trace;
mod sys;

use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use wpinq_expr::Json;

use crate::report::{catalog, Outcome, RunResult};
use crate::spans::Recorder;
use crate::svc::{Ccdf, Jdd, Mode, Svc, Tbd};

/// One analyst, cold triangles-by-degree requests on a graph sized for about 75 ms each:
/// a run then holds the hundred-odd requests a p90 needs.
const SVC_HEAVY: Svc = Svc {
    analysts: 1,
    nodes: 130,
    papers: 70,
    mode: Mode::Cold,
    cache_capacity: None,
    reregister_every: 0,
    replay_requests: 4,
};

/// Two analysts repeating one primed JDD request on the 1500-author graph: a ≈ 120 KB
/// reply served from the cache, so all the time is per-byte work around the engine.
const SVC_CACHED: Svc = Svc {
    analysts: 2,
    nodes: 1500,
    papers: 800,
    mode: Mode::Cached,
    cache_capacity: None,
    reregister_every: 0,
    replay_requests: 50,
};

/// Two analysts on small degree-CCDF requests: hot-set hits beside fresh misses, a cache
/// smaller than the keys minted, both response encodings, periodic invalidation.
const SVC_MIXED: Svc = Svc {
    analysts: 2,
    nodes: 600,
    papers: 320,
    mode: Mode::Mixed,
    cache_capacity: Some(512),
    reregister_every: 2000,
    replay_requests: 2500,
};

const USAGE: &str = "usage:
  wpinq-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
  wpinq-benchmark run   --seed <n> [--quick]
  wpinq-benchmark trace --seed <n> [--quick]
  wpinq-benchmark compare <first.json> <second.json>";

/// Runs one workload in this process.
fn run_workload(
    workload: &str,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Option<(Outcome, Recorder)> {
    let epoch = Instant::now();
    let mut recorder = Recorder::new(epoch);
    let r = &mut recorder;
    let outcome = match (workload, traced) {
        ("svc-heavy", false) => svc::run::<Tbd>(&SVC_HEAVY, seed, seconds),
        ("svc-heavy", true) => svc_trace::trace::<Tbd>(&SVC_HEAVY, seed, seconds, r, epoch),
        ("svc-cached", false) => svc::run::<Jdd>(&SVC_CACHED, seed, seconds),
        ("svc-cached", true) => svc_trace::trace::<Jdd>(&SVC_CACHED, seed, seconds, r, epoch),
        ("svc-mixed", false) => svc::run::<Ccdf>(&SVC_MIXED, seed, seconds),
        ("svc-mixed", true) => svc_trace::trace::<Ccdf>(&SVC_MIXED, seed, seconds, r, epoch),
        ("mcmc-walk", false) => mcmc::run(seed, seconds),
        ("mcmc-walk", true) => mcmc::trace(seed, seconds, r),
        ("batch-measure", false) => batch::run(false, seed, seconds),
        ("batch-measure", true) => batch::trace(false, seed, seconds, r),
        ("batch-measure-par", false) => batch::run(true, seed, seconds),
        ("batch-measure-par", true) => batch::trace(true, seed, seconds, r),
        _ => return None,
    };
    Some((outcome, recorder))
}

/// Prints every metric by name with its unit, for the human reader.
fn print_metrics(title: &str, result: &RunResult) {
    println!("{title}");
    for (name, value, unit) in &result.metrics {
        println!("  {name:<34} {value:>16.4} {unit}");
    }
    println!(
        "  {:<34} {:>16} of {} ({})",
        "failed",
        result.failed,
        result.attempted,
        if result.correct {
            "correct"
        } else {
            "INCORRECT"
        }
    );
}

/// One run of one workload: the `BENCHMARK.json` command.
fn single(workload: &str, seed: u64, seconds: f64, traced: bool) -> ExitCode {
    let Some((outcome, recorder)) = run_workload(workload, seed, seconds, traced) else {
        eprintln!(
            "unknown workload '{workload}'; BENCHMARK.json lists {:?}",
            catalog().workloads
        );
        return ExitCode::from(2);
    };
    let result = match RunResult::from_outcome(&outcome, traced) {
        Ok(result) => result,
        Err(error) => {
            eprintln!("{workload}: {error}");
            return ExitCode::from(3);
        }
    };
    for message in &outcome.checks.messages {
        eprintln!("{workload}: check failed: {message}");
    }

    let header = [
        ("workload", Json::str(workload).to_compact()),
        ("seed", seed.to_string()),
        ("seconds", Json::f64(seconds).to_compact()),
        ("traced", traced.to_string()),
        ("env", sys::environment().to_compact()),
        ("result", result.to_json().to_compact()),
        (
            "diagnostics",
            Json::Obj(
                outcome
                    .diagnostics
                    .iter()
                    .map(|(k, v)| (k.to_string(), v.clone()))
                    .collect(),
            )
            .to_compact(),
        ),
    ];
    let kind = if traced { "trace" } else { "result" };
    let written = sys::out_dir().and_then(|dir| {
        let path = dir.join(format!("{kind}-{workload}.json"));
        std::fs::write(&path, spans::to_json(&header, recorder.spans())).map(|()| path)
    });
    match written {
        Ok(path) => println!("wrote {}", path.display()),
        Err(error) => eprintln!("{workload}: cannot write the {kind} file: {error}"),
    }

    print_metrics(
        &format!("{workload} (seed {seed}, {seconds} s, {kind})"),
        &result,
    );
    println!("{}", result.to_json().to_compact());
    if result.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Every workload of the catalogue, each in a child process of its own (so that
/// `peak_rss_mb` is the workload's and nothing leaks between workloads).
fn suite(traced: bool, seed: u64, quick: bool) -> ExitCode {
    let seconds = if quick { 1 } else { catalog().run_seconds };
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(error) => {
            eprintln!("cannot find this executable: {error}");
            return ExitCode::from(3);
        }
    };
    let mut results = Vec::new();
    let mut all_correct = true;
    for workload in &catalog().workloads {
        let output = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .stderr(Stdio::inherit())
            .output();
        let parsed = output
            .map_err(|e| e.to_string())
            .and_then(|out| String::from_utf8(out.stdout).map_err(|e| e.to_string()))
            .and_then(|text| {
                let line = text.lines().last().unwrap_or_default();
                Json::parse(line).map_err(|e| format!("last line is not JSON: {e}"))
            })
            .and_then(|json| RunResult::from_json(&json));
        match parsed {
            Ok(result) => {
                print_metrics(workload, &result);
                all_correct &= result.correct;
                results.push((workload.clone(), result.to_json()));
            }
            Err(error) => {
                eprintln!("{workload}: no result: {error}");
                all_correct = false;
            }
        }
    }
    let kind = if traced { "trace" } else { "run" };
    if quick {
        println!("quick mode: a smoke test, numbers not recorded");
    } else {
        let file = Json::Obj(vec![
            ("mode".into(), Json::str(kind)),
            ("seed".into(), Json::num(seed)),
            ("seconds".into(), Json::num(seconds)),
            ("env".into(), sys::environment()),
            ("results".into(), Json::Obj(results)),
        ]);
        let written = sys::out_dir().and_then(|dir| {
            let path = dir.join(format!("{kind}-{seed}.json"));
            std::fs::write(&path, file.to_pretty()).map(|()| path)
        });
        match written {
            Ok(path) => println!("wrote {}", path.display()),
            Err(error) => {
                eprintln!("cannot write the suite file: {error}");
                return ExitCode::from(3);
            }
        }
    }
    if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `compare A B`: fails when any end-to-end metric of any workload differs between two
/// suite files by more than its bound.
fn compare(first: &str, second: &str) -> ExitCode {
    let load = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("{path}: {e}"))
            .and_then(|text| Json::parse(&text).map_err(|e| format!("{path}: {e}")))
    };
    let outcome = load(first)
        .and_then(|a| Ok((a, load(second)?)))
        .and_then(|(a, b)| report::compare(&a, &b));
    match outcome {
        Ok(disagreements) if disagreements.is_empty() => {
            println!("{first} and {second} agree within every bound");
            ExitCode::SUCCESS
        }
        Ok(disagreements) => {
            for d in disagreements {
                println!(
                    "{} {}: {} vs {} differ by {:.1}% (bound {:.0}%)",
                    d.workload,
                    d.metric,
                    d.first,
                    d.second,
                    100.0 * d.share,
                    100.0 * d.bound
                );
            }
            ExitCode::from(1)
        }
        Err(error) => {
            eprintln!("{error}");
            ExitCode::from(3)
        }
    }
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn main() -> ExitCode {
    // Before any thread exists: a run measures the product's defaults.
    let scrubbed = sys::scrub_wpinq_env();
    if !scrubbed.is_empty() {
        eprintln!("ignoring {scrubbed:?}: the benchmark measures the defaults");
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed = flag(&args, "--seed").and_then(|s| s.parse::<u64>().ok());
    match (args.first().map(String::as_str), seed) {
        (Some("compare"), _) if args.len() == 3 => compare(&args[1], &args[2]),
        (Some(mode @ ("run" | "trace")), Some(seed)) => {
            suite(mode == "trace", seed, args.iter().any(|a| a == "--quick"))
        }
        (Some(_), Some(seed)) => {
            let workload = flag(&args, "--workload");
            let seconds = flag(&args, "--seconds").and_then(|s| s.parse::<f64>().ok());
            let traced = flag(&args, "--trace").and_then(|t| match t {
                "0" => Some(false),
                "1" => Some(true),
                _ => None,
            });
            match (workload, seconds, traced) {
                (Some(workload), Some(seconds), Some(traced)) if seconds > 0.0 => {
                    single(workload, seed, seconds, traced)
                }
                _ => {
                    eprintln!("{USAGE}");
                    ExitCode::from(2)
                }
            }
        }
        _ => {
            eprintln!("{USAGE}");
            ExitCode::from(2)
        }
    }
}
