//! `batch-measure` and `batch-measure-par`: the paper's graph measurements as a library
//! user runs them — typed-closure plans through `Queryable`, no expression engine, no
//! service, no dataflow. The pair differs only in the executor, so a change that helps
//! the sequential kernels and costs the sharded ones (or the reverse) shows.

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wpinq::plan::{available_threads, default_executor, executor_for_threads, Executor};
use wpinq::{NoisyCounts, PrivacyBudget, Queryable, Record};
use wpinq_analyses::degree::DegreeMeasurements;
use wpinq_analyses::edges::{symmetric_edge_dataset, Edge, GraphEdges};
use wpinq_analyses::jdd::JddMeasurement;
use wpinq_analyses::tbi::TbiMeasurement;
use wpinq_analyses::triangles::{tbd_query, TbdMeasurement};
use wpinq_core::column::ColumnBatch;
use wpinq_expr::Json;
use wpinq_graph::Graph;

use crate::graphs::secret_graph;
use crate::report::{Outcome, SETUP_REPEATS};
use crate::spans::Recorder;
use crate::stats;
use crate::sys;

/// Sized so that one pass of the four measurements takes about a tenth of a second:
/// a run then holds the hundred passes a p90 needs.
const NODES: usize = 320;
const PAPERS: usize = 170;
const EPSILON: f64 = 0.1;

struct Bench {
    graph: Graph,
    edges: GraphEdges,
    executor: Arc<dyn Executor>,
    seed: u64,
}

fn executor(parallel: bool) -> Arc<dyn Executor> {
    if parallel {
        executor_for_threads(available_threads())
    } else {
        default_executor()
    }
}

/// FNV-1a over whatever a release exposes, bit for bit.
struct Checksum(u64);

impl Checksum {
    fn new() -> Checksum {
        Checksum(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn counts<T: Record>(&mut self, counts: &NoisyCounts<T>, fields: impl Fn(&T) -> Vec<u64>) {
        for (record, value) in counts.sorted_observed() {
            for field in fields(&record) {
                self.word(field);
            }
            self.word(value.to_bits());
        }
    }
}

/// The seconds each of the four measurements of one pass took.
struct PassTimes {
    degree: f64,
    jdd: f64,
    tbi: f64,
    tbd: f64,
}

impl Bench {
    fn setup(parallel: bool, seed: u64) -> Bench {
        let graph = secret_graph(NODES, PAPERS);
        let bench = Bench {
            edges: GraphEdges::new(&graph, PrivacyBudget::unlimited()),
            graph,
            executor: executor(parallel),
            seed,
        };
        // One untimed pass: the sharded executor's pool calibrates its inline/parallel
        // cut-over on first use, and users pay that once per process, not per pass.
        bench.pass(u64::MAX, &bench.executor);
        bench
    }

    fn queryable(&self, executor: &Arc<dyn Executor>) -> Queryable<Edge> {
        self.edges.queryable().with_executor(executor.clone())
    }

    /// One full measurement pass with noise seeded by `(seed, pass)`; returns the
    /// checksum of everything released and the time of each measurement.
    fn pass(&self, pass: u64, executor: &Arc<dyn Executor>) -> (u64, PassTimes) {
        let mut rng = StdRng::seed_from_u64(self.seed ^ pass.wrapping_mul(0x9E37_79B9));
        // A fresh queryable per pass: a `Queryable` memoizes its evaluation.
        let q = self.queryable(executor);
        let mut sum = Checksum::new();

        let t0 = Instant::now();
        let degrees = DegreeMeasurements::measure(&q, EPSILON, &mut rng).expect("unlimited budget");
        let t1 = Instant::now();
        let jdd = JddMeasurement::measure(&q, EPSILON, &mut rng).expect("unlimited budget");
        let t2 = Instant::now();
        let tbi = TbiMeasurement::measure(&q, EPSILON, &mut rng).expect("unlimited budget");
        let t3 = Instant::now();
        let tbd = TbdMeasurement::measure(&q, EPSILON, 1, &mut rng).expect("unlimited budget");
        let t4 = Instant::now();

        sum.counts(&degrees.ccdf, |d| vec![*d]);
        sum.counts(&degrees.sequence, |d| vec![*d]);
        sum.word(degrees.node_count.to_bits());
        let mut pairs: Vec<_> = jdd.estimates().into_iter().collect();
        pairs.sort_unstable_by_key(|(pair, _)| *pair);
        for ((da, db), estimate) in pairs {
            sum.word(da);
            sum.word(db);
            sum.word(estimate.to_bits());
        }
        sum.word(tbi.noisy_signal.to_bits());
        sum.counts(tbd.counts(), |t| vec![t.0, t.1, t.2]);
        let secs = |a: Instant, b: Instant| (b - a).as_secs_f64();
        (
            sum.0,
            PassTimes {
                degree: secs(t0, t1),
                jdd: secs(t1, t2),
                tbi: secs(t2, t3),
                tbd: secs(t3, t4),
            },
        )
    }

    /// Pass 0 again under the *other* executor: every executor evaluates to bitwise
    /// identical data, so the two workloads must release identical bytes.
    fn twin_checksum(&self, parallel: bool) -> u64 {
        self.pass(0, &executor(!parallel)).0
    }
}

/// The timed (untraced) run.
pub fn run(parallel: bool, seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let started = Instant::now();
    let bench = Bench::setup(parallel, seed);
    let mut setups = vec![started.elapsed().as_secs_f64()];

    let mut latencies_ms = Vec::new();
    let mut first_checksum = 0;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let pass = latencies_ms.len() as u64;
        let before = Instant::now();
        let (checksum, _) = bench.pass(pass, &bench.executor);
        latencies_ms.push(before.elapsed().as_secs_f64() * 1e3);
        if pass == 0 {
            first_checksum = checksum;
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let passes = latencies_ms.len() as u64;
    let peak_rss_mb = sys::peak_rss_mb();

    outcome.checks.attempted += passes;
    let twin = bench.twin_checksum(parallel);
    outcome.checks.check(twin == first_checksum, || {
        format!("pass 0 released {first_checksum:016x}, the other executor {twin:016x}")
    });

    let executor = format!(
        "{} x{}",
        bench.executor.name(),
        bench.executor.shard_count()
    );
    drop(bench);
    // The remaining set-ups come after the measurement, so that what they leave in the
    // allocator is not part of the run's peak RSS.
    while setups.len() < SETUP_REPEATS {
        let started = Instant::now();
        drop(Bench::setup(parallel, seed));
        setups.push(started.elapsed().as_secs_f64());
    }

    outcome.end_to_end(
        "one pass: degrees, JDD, TbI, TbD measure",
        setups,
        passes,
        wall,
        latencies_ms,
        peak_rss_mb,
    );
    outcome.note("graph_nodes", Json::num(NODES));
    outcome.note("executor", Json::str(executor));
    outcome.note(
        "release_checksum_pass0",
        Json::str(format!("{first_checksum:016x}")),
    );
    outcome
}

/// The traced run: untraced passes, then passes with a span per measurement, then the
/// TbD measurement alone under both executors, then the `wpinq-core` pieces a release
/// is made of.
pub fn trace(parallel: bool, seed: u64, seconds: f64, recorder: &mut Recorder) -> Outcome {
    let mut outcome = Outcome::default();
    let bench = Bench::setup(parallel, seed);

    let timed_passes = |recorder: Option<&mut Recorder>, budget: f64| -> Vec<f64> {
        let mut recorder = recorder;
        let mut walls = Vec::new();
        let start = Instant::now();
        while start.elapsed().as_secs_f64() < budget || walls.len() < 3 {
            let pass = walls.len() as u64;
            let before = Instant::now();
            let (_, times) = bench.pass(pass, &bench.executor);
            let after = Instant::now();
            walls.push((after - before).as_secs_f64());
            if let Some(recorder) = recorder.as_deref_mut() {
                // The pass timed its own measurements back to back; lay them out as
                // children of the pass span in that order.
                let root = recorder.interval("analyses.pass", pass, None, before, after);
                let mut at = before;
                for (name, secs) in [
                    ("analyses.degree", times.degree),
                    ("analyses.jdd", times.jdd),
                    ("analyses.tbi", times.tbi),
                    ("analyses.tbd", times.tbd),
                ] {
                    let end = at + std::time::Duration::from_secs_f64(secs);
                    recorder.interval(name, pass, Some(root), at, end);
                    at = end;
                }
            }
        }
        walls
    };

    let untraced = timed_passes(None, 0.25 * seconds);
    let dispatches_before = sys::counter(wpinq::shard::POOL_DISPATCHES_METRIC);
    let spawned_before = sys::counter(wpinq::shard::THREADS_SPAWNED_METRIC);
    let traced = timed_passes(Some(recorder), 0.25 * seconds);
    let passes = traced.len() as f64;
    let dispatches = sys::counter(wpinq::shard::POOL_DISPATCHES_METRIC) - dispatches_before;
    let spawned = sys::counter(wpinq::shard::THREADS_SPAWNED_METRIC) - spawned_before;
    outcome.checks.attempted += (untraced.len() + traced.len()) as u64;
    outcome.note("untraced_passes", Json::num(untraced.len()));
    outcome.note("traced_passes", Json::num(traced.len()));

    // TbD alone, sequential against sharded, interleaved so drift hits both alike.
    let (sequential, sharded) = (executor(false), executor(true));
    let (mut seq_s, mut par_s) = (Vec::new(), Vec::new());
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < 0.25 * seconds || seq_s.len() < 3 {
        for (executor, name, out) in [
            (&sequential, "analyses.tbd_seq", &mut seq_s),
            (&sharded, "analyses.tbd_par", &mut par_s),
        ] {
            let q = bench.queryable(executor);
            let mut rng = StdRng::seed_from_u64(seed);
            let (_, us) = recorder.time(name, out.len() as u64, || {
                TbdMeasurement::measure(&q, EPSILON, 1, &mut rng).expect("unlimited budget")
            });
            out.push(us);
        }
    }

    // What a release is made of, on the TbD output (the largest of the four).
    let tbd_data = tbd_query(&bench.queryable(&bench.executor));
    let data = tbd_data.inspect();
    let mut release = Vec::new();
    for i in 0..20 {
        let mut rng = StdRng::seed_from_u64(seed);
        (release, _) = recorder.time("core.noise_release", i, || {
            NoisyCounts::measure(data, EPSILON, &mut rng).sorted_observed()
        });
    }
    let source = wpinq::plan::dataset_to_values(&symmetric_edge_dataset(&bench.graph));
    let release_values: Vec<_> = release
        .iter()
        .map(|(t, v)| (wpinq::ExprRecord::to_value(t), *v))
        .collect();
    let release_batch = ColumnBatch::from_pairs(
        <(u64, u64, u64) as wpinq::ExprRecord>::value_type(),
        release_values.iter().map(|(t, v)| (t, *v)),
    )
    .expect("release records share one type");
    for i in 0..20 {
        recorder.time("core.column_convert", i, || {
            ColumnBatch::from_dataset(&source)
                .expect("edge records share one type")
                .to_pairs()
        });
        recorder.time("core.colwire_encode", i, || {
            wpinq_core::colwire::encode_batch(&release_batch)
        });
    }

    let median_s = |name: &str| recorder.median_us(name) / 1e6;
    outcome.metric("analyses.degree_s", median_s("analyses.degree"));
    outcome.metric("analyses.jdd_s", median_s("analyses.jdd"));
    outcome.metric("analyses.tbi_s", median_s("analyses.tbi"));
    outcome.metric("analyses.tbd_s", median_s("analyses.tbd"));
    outcome.metric(
        "analyses.tbd_par_over_seq",
        stats::median(par_s) / stats::median(seq_s),
    );
    outcome.metric(
        "core.noise_release_us",
        recorder.median_us("core.noise_release"),
    );
    outcome.metric("core.release_records", release.len() as f64);
    outcome.metric(
        "core.column_convert_us",
        recorder.median_us("core.column_convert"),
    );
    outcome.metric(
        "core.colwire_encode_us",
        recorder.median_us("core.colwire_encode"),
    );
    outcome.metric("core.shard.pool_dispatches", dispatches as f64 / passes);
    outcome.metric("core.shard.threads_spawned", spawned as f64);
    outcome.metric(
        "bench.trace_overhead_ratio",
        stats::median(traced) / stats::median(untraced),
    );
    outcome
}
