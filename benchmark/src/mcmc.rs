//! `mcmc-walk`: measure → seed → Metropolis–Hastings edge swaps over the incremental
//! engine, the way `wpinq_mcmc::synthesize` strings them together.
//!
//! The incremental engine is used both ways here: one bulk delta (loading the seed
//! graph through the lowered scorers) and thousands of eight-record deltas (the walk).
//! Batch kernels run only in set-up; the service does nothing.

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wpinq::plan::IncrementalEngine;
use wpinq::PrivacyBudget;
use wpinq_analyses::degree::DegreeMeasurements;
use wpinq_analyses::edges::GraphEdges;
use wpinq_analyses::tbi::TbiMeasurement;
use wpinq_expr::Json;
use wpinq_graph::Graph;
use wpinq_mcmc::scorers::{degree_sequence_scorer, tbi_scorer};
use wpinq_mcmc::seed::seed_graph_from_measurements;
use wpinq_mcmc::{CandidateState, GraphCandidate, MetropolisHastings, StepOutcome};

use crate::graphs::secret_graph;
use crate::report::{Outcome, SETUP_REPEATS};
use crate::spans::Recorder;
use crate::stats;
use crate::sys;

/// The reduced CA-GrQc stand-in the MCMC experiments use (`bench::smallsets`).
const NODES: usize = 1500;
const PAPERS: usize = 800;
/// The paper's headline ε and focusing exponent (`SynthesisConfig::default`).
const EPSILON: f64 = 0.1;
const POW: f64 = 10_000.0;
/// The accepted count after this many steps is recorded: it is a function of the seed.
const CHECKPOINT_STEPS: u64 = 1000;

/// The released measurements and the seed graph fitted to them.
struct Released {
    degrees: DegreeMeasurements,
    tbi: TbiMeasurement,
    seed_graph: Graph,
    seed_fit_s: f64,
}

/// The noise seed of the released measurements. Like the secret graph they are a fixed
/// dataset: the seed graph fitted to them sets the engine's state size (hash-map
/// capacities double at thresholds) and the cost of a swap, and both move with the noise
/// by more than the metrics' bounds. The run's `--seed` drives the walk.
const RELEASE_SEED: u64 = 0x7250_494e_5121;

/// Phase 1 of synthesis: the DP measurements of the secret graph and the seed fit.
fn release() -> Released {
    let secret = secret_graph(NODES, PAPERS);
    let edges = GraphEdges::new(&secret, PrivacyBudget::unlimited());
    let queryable = edges.queryable();
    let mut rng = StdRng::seed_from_u64(RELEASE_SEED);
    let degrees =
        DegreeMeasurements::measure(&queryable, EPSILON, &mut rng).expect("unlimited budget");
    let tbi = TbiMeasurement::measure(&queryable, EPSILON, &mut rng).expect("unlimited budget");
    let started = Instant::now();
    let seed_graph = seed_graph_from_measurements(&degrees, &mut rng);
    Released {
        degrees,
        tbi,
        seed_graph,
        seed_fit_s: started.elapsed().as_secs_f64(),
    }
}

#[derive(Clone, Copy)]
enum Scorers {
    Both,
    TbiOnly,
    DegreeSequenceOnly,
}

/// Lowers the chosen scorers and bulk-loads the seed graph; returns the seconds it took.
fn load(released: &Released, scorers: Scorers) -> (GraphCandidate, f64) {
    let started = Instant::now();
    let candidate = GraphCandidate::with_engine(
        released.seed_graph.clone(),
        IncrementalEngine::from_env(),
        |flow| {
            let mut sinks = Vec::new();
            if matches!(scorers, Scorers::Both | Scorers::TbiOnly) {
                sinks.push(tbi_scorer(flow, &released.tbi));
            }
            if matches!(scorers, Scorers::Both | Scorers::DegreeSequenceOnly) {
                sinks.push(degree_sequence_scorer(flow, &released.degrees.sequence));
            }
            sinks
        },
    );
    (candidate, started.elapsed().as_secs_f64())
}

fn walk_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

fn threads_spawned() -> u64 {
    sys::counter(wpinq::shard::THREADS_SPAWNED_METRIC)
}

fn exchanges() -> u64 {
    sys::counter(wpinq_dataflow::EXCHANGES_METRIC)
}

/// The timed (untraced) run.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let set_up = || {
        let started = Instant::now();
        let released = release();
        let (candidate, load_s) = load(&released, Scorers::Both);
        (released, candidate, started.elapsed().as_secs_f64(), load_s)
    };
    let (released, mut candidate, setup_s, load_s) = set_up();
    let (mut setups, mut loads) = (vec![setup_s], vec![load_s]);

    let driver = MetropolisHastings::new(EPSILON, POW);
    let mut rng = walk_rng(seed);
    let spawned_before = threads_spawned();
    let mut latencies_ms = Vec::new();
    let (mut accepted, mut accepted_at_checkpoint) = (0u64, None);
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let before = Instant::now();
        let step = driver.step(&mut candidate, &mut rng);
        latencies_ms.push(before.elapsed().as_secs_f64() * 1e3);
        accepted += u64::from(step == StepOutcome::Accepted);
        if latencies_ms.len() as u64 == CHECKPOINT_STEPS {
            accepted_at_checkpoint = Some(accepted);
        }
    }
    let wall = start.elapsed().as_secs_f64();
    let steps = latencies_ms.len() as u64;
    let spawned = threads_spawned() - spawned_before;
    let drift = candidate.scorer_drift();
    let peak_rss_mb = sys::peak_rss_mb();
    let (final_energy, engine) = (candidate.energy(), candidate.engine());
    drop(candidate);
    // The remaining set-ups come after the measurement, so that what they leave in the
    // allocator is not part of the run's peak RSS.
    while setups.len() < SETUP_REPEATS {
        let (_, _, setup_s, load_s) = set_up();
        setups.push(setup_s);
        loads.push(load_s);
    }

    // Every step is an operation that cannot fail; what can go wrong is the engine's
    // incrementally maintained score drifting from a recomputation, or the walk
    // spawning threads it was promised a pool for.
    outcome.checks.attempted += steps;
    outcome.checks.check(drift < 1e-6, || {
        format!("scorer drift {drift} after {steps} steps")
    });
    outcome.checks.check(spawned == 0, || {
        format!("the walk spawned {spawned} threads")
    });

    outcome.end_to_end(
        "MetropolisHastings::step",
        setups,
        steps,
        wall,
        latencies_ms,
        peak_rss_mb,
    );
    outcome.note("load_s", Json::f64(stats::median(loads)));
    outcome.note("seed_fit_s", Json::f64(released.seed_fit_s));
    outcome.note("accepted", Json::num(accepted));
    outcome.note(
        "accepted_at_1000_steps",
        accepted_at_checkpoint.map_or(Json::Null, Json::num),
    );
    outcome.note("final_energy", Json::f64(final_energy));
    outcome.note(
        "seed_graph_nodes",
        Json::num(released.seed_graph.num_nodes()),
    );
    outcome.note(
        "seed_graph_edges",
        Json::num(released.seed_graph.num_edges()),
    );
    outcome.note("incremental_engine", Json::str(format!("{engine:?}")));
    outcome
}

/// Span names of one traced walk.
struct StepSpans {
    propose: &'static str,
    apply: &'static str,
    undo: &'static str,
}

const WALK_SPANS: StepSpans = StepSpans {
    propose: "mcmc.propose",
    apply: "mcmc.apply",
    undo: "mcmc.undo",
};

/// The harness's copy of `MetropolisHastings::step`, with a span around each
/// `CandidateState` call. It draws from `rng` exactly as the product's step does, so a
/// seeded traced walk must reach the untraced walk's accepted count and energy — which
/// the traced run checks.
fn traced_step(
    driver: &MetropolisHastings,
    state: &mut GraphCandidate,
    rng: &mut StdRng,
    recorder: &mut Recorder,
    names: &StepSpans,
    step: u64,
) -> StepOutcome {
    let root = recorder.enter("mcmc.step", step);
    let (proposal, _) = recorder.time(names.propose, step, || state.propose(rng));
    let outcome = match proposal {
        None => StepOutcome::NoProposal,
        Some(swap) => {
            let old_energy = state.energy();
            let (new_energy, _) = recorder.time(names.apply, step, || state.apply(&swap));
            let log_ratio = driver.log_score(new_energy) - driver.log_score(old_energy);
            if log_ratio >= 0.0 || rng.gen_range(0.0f64..1.0).ln() < log_ratio {
                StepOutcome::Accepted
            } else {
                recorder.time(names.undo, step, || state.undo(&swap));
                StepOutcome::Rejected
            }
        }
    };
    recorder.exit(root);
    outcome
}

/// The traced run: the same seeded walk twice at a fixed length — once through the
/// product's `step`, once through the harness's copy with spans — then one short walk
/// per single-scorer candidate to price each scorer's delta propagation.
pub fn trace(seed: u64, seconds: f64, recorder: &mut Recorder) -> Outcome {
    let mut outcome = Outcome::default();
    let released = release();
    let driver = MetropolisHastings::new(EPSILON, POW);
    let steps = (100.0 * seconds).ceil() as u64;

    // Untraced reference. Its load is the process's first, so the RSS it adds is the
    // engine's state and not the allocator reusing what an earlier candidate freed.
    let rss_before = sys::rss_mb();
    let (mut reference, load_s) = load(&released, Scorers::Both);
    let state_rss_mb = (sys::rss_mb() - rss_before).max(0.0);
    let mut rng = walk_rng(seed);
    let started = Instant::now();
    let mut reference_accepted = 0u64;
    for _ in 0..steps {
        let step = driver.step(&mut reference, &mut rng);
        reference_accepted += u64::from(step == StepOutcome::Accepted);
    }
    let untraced_wall = started.elapsed().as_secs_f64();
    let reference_energy = reference.energy();
    drop(reference);

    // Traced walk over a fresh candidate.
    let (mut candidate, _) = load(&released, Scorers::Both);
    let mut rng = walk_rng(seed);
    let (spawned_before, exchanges_before) = (threads_spawned(), exchanges());
    let (mut accepted, mut rejected, mut no_proposal) = (0u64, 0u64, 0u64);
    let first_span = recorder.spans().len();
    let started = Instant::now();
    for step in 0..steps {
        match traced_step(
            &driver,
            &mut candidate,
            &mut rng,
            recorder,
            &WALK_SPANS,
            step,
        ) {
            StepOutcome::Accepted => accepted += 1,
            StepOutcome::Rejected => rejected += 1,
            StepOutcome::NoProposal => no_proposal += 1,
        }
    }
    let traced_wall = started.elapsed().as_secs_f64();
    let spawned = threads_spawned() - spawned_before;
    let walk_exchanges = exchanges() - exchanges_before;
    let drift = candidate.scorer_drift();
    let energy = candidate.energy();
    drop(candidate);

    outcome.checks.attempted += 2 * steps;
    outcome.checks.check(
        accepted == reference_accepted && energy.to_bits() == reference_energy.to_bits(),
        || {
            format!(
                "traced walk accepted {accepted} (energy {energy}), untraced \
                 {reference_accepted} (energy {reference_energy})"
            )
        },
    );
    outcome
        .checks
        .check(drift < 1e-6, || format!("scorer drift {drift}"));
    outcome.checks.check(spawned == 0, || {
        format!("the walk spawned {spawned} threads")
    });

    let attributed_ns: u64 = recorder.spans()[first_span..]
        .iter()
        .filter(|s| s.name != "mcmc.step")
        .map(|s| s.duration_ns())
        .sum();
    outcome.metric("mcmc.propose_us", recorder.median_us(WALK_SPANS.propose));
    outcome.metric("mcmc.apply_us", recorder.median_us(WALK_SPANS.apply));
    outcome.metric("mcmc.undo_us", recorder.median_us(WALK_SPANS.undo));
    outcome.metric(
        "mcmc.accept_ratio",
        accepted as f64 / (accepted + rejected).max(1) as f64,
    );
    outcome.metric("mcmc.noproposal_ratio", no_proposal as f64 / steps as f64);
    outcome.metric("mcmc.accepted", accepted as f64);
    outcome.metric("mcmc.seed_fit_s", released.seed_fit_s);
    outcome.metric(
        "mcmc.attributed_share",
        attributed_ns as f64 / 1e9 / traced_wall,
    );
    outcome.metric("dataflow.load_s", load_s);
    outcome.metric("dataflow.exchanges", walk_exchanges as f64);
    outcome.metric("dataflow.state_rss_mb", state_rss_mb);
    outcome.metric("bench.trace_overhead_ratio", traced_wall / untraced_wall);

    // One scorer at a time: what each lowered plan costs to load and to move.
    let single = [
        (
            Scorers::TbiOnly,
            "dataflow.load_tbi_s",
            "dataflow.apply_tbi_us",
            StepSpans {
                propose: "dataflow.tbi.propose",
                apply: "dataflow.tbi.apply",
                undo: "dataflow.tbi.undo",
            },
        ),
        (
            Scorers::DegreeSequenceOnly,
            "dataflow.load_degseq_s",
            "dataflow.apply_degseq_us",
            StepSpans {
                propose: "dataflow.degseq.propose",
                apply: "dataflow.degseq.apply",
                undo: "dataflow.degseq.undo",
            },
        ),
    ];
    for (scorers, load_metric, apply_metric, names) in single {
        let (mut candidate, load_s) = load(&released, scorers);
        let mut rng = walk_rng(seed);
        for step in 0..steps / 4 {
            traced_step(&driver, &mut candidate, &mut rng, recorder, &names, step);
        }
        outcome.metric(load_metric, load_s);
        outcome.metric(apply_metric, recorder.median_us(names.apply));
    }

    outcome.note("steps", Json::num(steps));
    outcome.note("untraced_wall_s", Json::f64(untraced_wall));
    outcome.note("traced_wall_s", Json::f64(traced_wall));
    outcome
}
