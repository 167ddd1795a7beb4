//! MCMC incremental-engine benchmark: edge-swap throughput.
//!
//! Runs the Metropolis–Hastings edge-swap walk (the synthesis loop's dominant cost)
//! against TbI + degree-sequence scorers lowered onto the incremental `Stream` graph and
//! records wall times into `BENCH_mcmc.json`.
//!
//! Rows use the same `(workload, executor, shards, wall_ms)` schema as
//! `BENCH_parallel.json`, so `bench --bin gate` gates this file unchanged
//! (`--baseline BENCH_mcmc.json --fresh BENCH_mcmc_fresh.json`). The engine emits
//! **two** workload rows — `mcmc-load` (scorer lowering + initial bulk dataset load)
//! and `mcmc-swaps` (the walk itself) — so the gate's relative normalisation has
//! contrast: one of the pair regressing against the other trips the per-row threshold,
//! and both regressing together trip the group-median allowance.
//!
//! Flags: `--scale full` for the full-size stand-ins, `--steps N` (default 2000 quick /
//! 10000 full), `--seed N`, `--out PATH`.
//!
//! Each row also snapshots the OS threads spawned
//! ([`wpinq::shard::THREADS_SPAWNED_METRIC`]) and worker-pool dispatches
//! ([`wpinq::shard::POOL_DISPATCHES_METRIC`]) from the `wpinq-telemetry` registry as
//! deltas over the phase; the walk must spawn **zero** threads (asserted below).

use std::time::Instant;

use bench::report::{fmt_f, heading, Table};
use bench::{smallsets, HarnessArgs};
use rand::rngs::StdRng;
use rand::SeedableRng;
use wpinq::PrivacyBudget;
use wpinq_analyses::degree::degree_sequence_query;
use wpinq_analyses::edges::GraphEdges;
use wpinq_analyses::tbi::TbiMeasurement;
use wpinq_mcmc::scorers::{degree_sequence_scorer, tbi_scorer};
use wpinq_mcmc::{GraphCandidate, MetropolisHastings, StepOutcome};

struct Row {
    workload: &'static str,
    executor: &'static str,
    shards: usize,
    wall_ms: f64,
    steps_per_sec: f64,
    accepted: u64,
    final_energy: f64,
    /// OS threads spawned during this phase (delta of
    /// [`wpinq::shard::THREADS_SPAWNED_METRIC`]).
    spawns: u64,
    /// Worker-pool dispatches during this phase (delta of
    /// [`wpinq::shard::POOL_DISPATCHES_METRIC`]).
    dispatches: u64,
}

/// Snapshot of the engine instrumentation counters (read off the `wpinq-telemetry`
/// registry), for per-phase deltas.
struct Counters {
    spawns: u64,
    dispatches: u64,
}

impl Counters {
    fn now() -> Counters {
        let registry = wpinq_telemetry::registry();
        Counters {
            spawns: registry.counter_value(wpinq::shard::THREADS_SPAWNED_METRIC),
            dispatches: registry.counter_value(wpinq::shard::POOL_DISPATCHES_METRIC),
        }
    }

    fn delta(&self) -> Counters {
        let now = Counters::now();
        Counters {
            spawns: now.spawns - self.spawns,
            dispatches: now.dispatches - self.dispatches,
        }
    }
}

fn run_walk(
    secret: &wpinq_graph::Graph,
    seed_graph: &wpinq_graph::Graph,
    steps: u64,
    seed: u64,
) -> (Row, Row) {
    let edges = GraphEdges::new(secret, PrivacyBudget::unlimited());
    let mut measure_rng = StdRng::seed_from_u64(seed);
    let tbi = TbiMeasurement::measure(&edges.queryable(), 1e5, &mut measure_rng)
        .expect("unlimited budget");
    let seq = degree_sequence_query(&edges.queryable())
        .noisy_count(1e5, &mut measure_rng)
        .expect("unlimited budget");
    let (executor, shards) = ("seq-inc", 1);

    // Workload 1: lower the scorers and bulk-load the seed graph through the engine.
    let before = Counters::now();
    let started = Instant::now();
    let mut candidate = GraphCandidate::new(seed_graph.clone(), |flow| {
        vec![tbi_scorer(flow, &tbi), degree_sequence_scorer(flow, &seq)]
    });
    let load_ms = started.elapsed().as_secs_f64() * 1e3;
    let load_counters = before.delta();
    let load_row = Row {
        workload: "mcmc-load",
        executor,
        shards,
        wall_ms: load_ms,
        steps_per_sec: 0.0,
        accepted: 0,
        final_energy: wpinq_mcmc::CandidateState::energy(&candidate),
        spawns: load_counters.spawns,
        dispatches: load_counters.dispatches,
    };

    // Workload 2: the edge-swap walk.
    let driver = MetropolisHastings::new(0.1, 10_000.0);
    let mut walk_rng = StdRng::seed_from_u64(seed + 1);
    let before = Counters::now();
    let started = Instant::now();
    let mut accepted = 0u64;
    for _ in 0..steps {
        if driver.step(&mut candidate, &mut walk_rng) == StepOutcome::Accepted {
            accepted += 1;
        }
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let walk_counters = before.delta();
    let drift = candidate.scorer_drift();
    assert!(drift < 1e-6, "scorer drift {drift} on {executor}/{shards}");
    // The walk runs on the calling thread: zero thread spawns per swap.
    assert_eq!(
        walk_counters.spawns, 0,
        "{executor}/{shards} spawned {} threads during the walk",
        walk_counters.spawns
    );
    let swaps_row = Row {
        workload: "mcmc-swaps",
        executor,
        shards,
        wall_ms,
        steps_per_sec: steps as f64 / (wall_ms / 1e3).max(1e-9),
        accepted,
        final_energy: wpinq_mcmc::CandidateState::energy(&candidate),
        spawns: walk_counters.spawns,
        dispatches: walk_counters.dispatches,
    };
    (load_row, swaps_row)
}

fn write_json(path: &str, mode: &str, steps: u64, rows: &[Row]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"generated_by\": \"bench::mcmc\",")?;
    writeln!(f, "  \"mode\": \"{mode}\",")?;
    writeln!(f, "  \"steps\": {steps},")?;
    writeln!(
        f,
        "  \"hardware_threads\": {},",
        wpinq::plan::available_threads()
    )?;
    writeln!(f, "  \"results\": [")?;
    for (i, row) in rows.iter().enumerate() {
        writeln!(
            f,
            "    {{\"workload\": \"{}\", \"executor\": \"{}\", \"shards\": {}, \
             \"wall_ms\": {:.3}, \"steps_per_sec\": {:.3}, \"accepted\": {}, \
             \"spawns\": {}, \"pool_dispatches\": {}}}{}",
            row.workload,
            row.executor,
            row.shards,
            row.wall_ms,
            row.steps_per_sec,
            row.accepted,
            row.spawns,
            row.dispatches,
            if i + 1 == rows.len() { "" } else { "," }
        )?;
    }
    writeln!(f, "  ]")?;
    writeln!(f, "}}")?;
    Ok(())
}

fn main() {
    let args = HarnessArgs::from_env();
    let mode = if args.full_scale { "full" } else { "quick" };
    let steps = args.steps_or(if args.full_scale { 10_000 } else { 2_000 });
    let secret = if args.full_scale {
        wpinq_datasets::ca_grqc()
    } else {
        smallsets::grqc_small()
    };
    let seed_graph = smallsets::randomized(&secret, args.seed);
    heading(&format!(
        "MCMC edge-swap throughput ({mode} GrQc stand-in: {} nodes, {} edges; {steps} steps)",
        secret.num_nodes(),
        secret.num_edges()
    ));

    let (load_row, row) = run_walk(&secret, &seed_graph, steps, args.seed);
    let mut table = Table::new([
        "engine",
        "load ms",
        "walk ms",
        "steps/s",
        "accepted",
        "walk spawns",
        "final energy",
    ]);
    table.row([
        row.executor.to_string(),
        fmt_f(load_row.wall_ms, 1),
        fmt_f(row.wall_ms, 1),
        fmt_f(row.steps_per_sec, 0),
        row.accepted.to_string(),
        row.spawns.to_string(),
        format!("{:.6}", row.final_energy),
    ]);
    table.print();
    println!();
    let rows = [load_row, row];

    let path = args.out.as_deref().unwrap_or("BENCH_mcmc.json");
    match write_json(path, mode, steps, &rows) {
        Ok(()) => println!("wrote {path} ({} rows)", rows.len()),
        Err(err) => {
            eprintln!("failed to write {path}: {err}");
            std::process::exit(1);
        }
    }
    println!("Zero threads were spawned during the walk (asserted).");
}
