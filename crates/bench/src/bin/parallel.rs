//! Shard-parallel executor benchmark: sequential vs 1/2/4/8-shard batch evaluation.
//!
//! Times the plan-IR batch workloads that dominate the paper's measurement phase (the
//! fig3/fig4 TbD pipeline, the TbI intersection, the raw length-two-path join and the
//! degree CCDF) under the [`SequentialExecutor`] and the [`ShardedExecutor`] at several
//! shard counts, asserting along the way that every strategy returns bitwise-identical
//! data. Results are printed as a table and written to `BENCH_parallel.json` as
//! machine-readable rows (workload, shard count, wall time, peak RSS, speedup).
//!
//! Flags: `--scale full` for the full-size dataset stand-ins (default: quick mode on the
//! reduced graphs — the CI smoke configuration), `--seed N`, `--out PATH` to write the
//! JSON somewhere other than the committed `BENCH_parallel.json` baseline (CI writes a
//! fresh file and feeds both to `bench --bin gate`).
//!
//! Speedups depend on the hardware: shard workers are worker-pool OS threads, so
//! a single-core container (check the `hardware_threads` field in the JSON) cannot show
//! wall-clock wins — the JSON records whatever the machine actually delivers.

use std::time::Instant;

use bench::report::{fmt_f, heading, Table};
use bench::{memory, smallsets, HarnessArgs};
use wpinq::plan::{Executor, Plan, PlanBindings, SequentialExecutor, ShardedExecutor};
use wpinq::WeightedDataset;
use wpinq_analyses::edges::EdgeSource;
use wpinq_analyses::{degree, tbi, triangles};

/// One timed workload: a plan over the shared edge source, plus its bindings.
struct Workload {
    name: &'static str,
    plan: Plan<(u32, u32, u32)>,
    bindings: PlanBindings,
}

/// Wraps each benchmark plan so every workload shares one record type (padding unused
/// positions with zeros); keeps the harness free of type-erasure noise.
fn normalise<T, F>(plan: &Plan<T>, f: F) -> Plan<(u32, u32, u32)>
where
    T: wpinq::Record,
    F: Fn(&T) -> (u32, u32, u32) + Send + Sync + 'static,
{
    plan.select(f)
}

fn workloads(graph: &wpinq_graph::Graph) -> Vec<Workload> {
    let mut out = Vec::new();

    // Raw length-two paths: the Σd² self-join, the heaviest single operator.
    let source = EdgeSource::new();
    out.push(Workload {
        name: "paths",
        plan: normalise(&triangles::length_two_paths_plan(source.plan()), |p| *p),
        bindings: source.bind_graph(graph),
    });

    // TbI: the paths join shared by both branches of an intersection (fig4/table2 query).
    let source = EdgeSource::new();
    out.push(Workload {
        name: "tbi",
        plan: normalise(&tbi::triangle_paths_plan(source.plan()), |p| *p),
        bindings: source.bind_graph(graph),
    });

    // TbD: join + group_by + join pipeline (fig3/table1 query), bucket 20.
    let source = EdgeSource::new();
    out.push(Workload {
        name: "tbd",
        plan: normalise(&triangles::tbd_plan(source.plan(), 20), |t| {
            (t.0 as u32, t.1 as u32, t.2 as u32)
        }),
        bindings: source.bind_graph(graph),
    });

    // Degree CCDF: group_by + shave + select (the Phase-1 measurement).
    let source = EdgeSource::new();
    out.push(Workload {
        name: "degree-ccdf",
        plan: normalise(&degree::degree_ccdf_plan(source.plan()), |d| {
            (*d as u32, 0, 0)
        }),
        bindings: source.bind_graph(graph),
    });

    out
}

/// Measures one (workload, executor) cell: best-of-`reps` wall time plus the cell's peak
/// RSS. The kernel's RSS high-water mark is reset before the cell (`reset_peak_resident`),
/// so `VmHWM` afterwards covers exactly this cell's evaluations — including transient
/// exchange buffers; when the platform cannot reset, the value degrades to the
/// process-lifetime peak. Each result is checked bitwise against the sequential reference.
fn measure(
    workload: &Workload,
    executor: &dyn Executor,
    reference: Option<&WeightedDataset<(u32, u32, u32)>>,
    reps: u32,
) -> (f64, Option<u64>, WeightedDataset<(u32, u32, u32)>) {
    let mut best = f64::INFINITY;
    let mut result = None;
    memory::reset_peak_resident();
    for _ in 0..reps {
        let started = Instant::now();
        let out = workload.plan.eval_with(&workload.bindings, executor);
        best = best.min(started.elapsed().as_secs_f64() * 1e3);
        result = Some(out);
    }
    let rss_peak = memory::peak_resident_bytes();
    let result = result.expect("at least one rep");
    if let Some(reference) = reference {
        assert_eq!(
            &result,
            reference,
            "{} under {} diverged from the sequential reference",
            workload.name,
            executor.name()
        );
    }
    (best, rss_peak, result)
}

/// One emitted JSON row.
struct Row {
    workload: &'static str,
    executor: &'static str,
    shards: usize,
    wall_ms: f64,
    peak_rss_bytes: Option<u64>,
    speedup_vs_sequential: f64,
}

fn json_escape_free(value: &str) -> &str {
    // All emitted strings are static identifiers; assert rather than escape.
    assert!(value.chars().all(|c| c.is_ascii_graphic() && c != '"'));
    value
}

fn write_json(path: &str, mode: &str, rows: &[Row]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)?;
    writeln!(f, "{{")?;
    writeln!(f, "  \"generated_by\": \"bench::parallel\",")?;
    writeln!(f, "  \"mode\": \"{}\",", json_escape_free(mode))?;
    writeln!(
        f,
        "  \"hardware_threads\": {},",
        wpinq::plan::available_threads()
    )?;
    writeln!(f, "  \"results\": [")?;
    for (i, row) in rows.iter().enumerate() {
        let rss = row
            .peak_rss_bytes
            .map_or("null".to_string(), |b| b.to_string());
        writeln!(
            f,
            "    {{\"workload\": \"{}\", \"executor\": \"{}\", \"shards\": {}, \
             \"wall_ms\": {:.3}, \"peak_rss_bytes\": {}, \"speedup_vs_sequential\": {:.3}}}{}",
            json_escape_free(row.workload),
            json_escape_free(row.executor),
            row.shards,
            row.wall_ms,
            rss,
            row.speedup_vs_sequential,
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
    // Quick mode keeps more reps: its rows are short enough that best-of-N is the only
    // variance control the regression gate's per-row threshold can lean on.
    let reps = if args.full_scale { 2 } else { 5 };
    let graph = if args.full_scale {
        wpinq_datasets::ca_grqc()
    } else {
        smallsets::grqc_small()
    };
    heading(&format!(
        "Parallel executor comparison ({} GrQc stand-in: {} nodes, {} edges; best of {reps})",
        mode,
        graph.num_nodes(),
        graph.num_edges()
    ));

    let shard_counts = [1usize, 2, 4, 8];
    let mut rows: Vec<Row> = Vec::new();
    let mut table = Table::new([
        "workload".to_string(),
        "sequential ms".to_string(),
        "1-shard ms".to_string(),
        "2-shard ms".to_string(),
        "4-shard ms".to_string(),
        "8-shard ms".to_string(),
        "best speedup".to_string(),
    ]);

    for workload in workloads(&graph) {
        let (seq_ms, seq_rss, reference) = measure(&workload, &SequentialExecutor, None, reps);
        rows.push(Row {
            workload: workload.name,
            executor: "sequential",
            shards: 1,
            wall_ms: seq_ms,
            peak_rss_bytes: seq_rss,
            speedup_vs_sequential: 1.0,
        });
        let mut cells = vec![workload.name.to_string(), fmt_f(seq_ms, 2)];
        let mut best_speedup = 1.0f64;
        for &shards in &shard_counts {
            let executor = ShardedExecutor::new(shards);
            let (ms, rss, _) = measure(&workload, &executor, Some(&reference), reps);
            let speedup = seq_ms / ms;
            best_speedup = best_speedup.max(speedup);
            rows.push(Row {
                workload: workload.name,
                executor: "sharded",
                shards,
                wall_ms: ms,
                peak_rss_bytes: rss,
                speedup_vs_sequential: speedup,
            });
            cells.push(fmt_f(ms, 2));
        }
        cells.push(format!("{:.2}x", best_speedup));
        table.row(cells);
    }
    table.print();
    println!();

    let path = args.out.as_deref().unwrap_or("BENCH_parallel.json");
    match write_json(path, mode, &rows) {
        Ok(()) => println!("wrote {path} ({} rows)", rows.len()),
        Err(err) => {
            eprintln!("failed to write {path}: {err}");
            std::process::exit(1);
        }
    }
    println!("All executors returned bitwise-identical datasets (asserted per cell).");
}
