//! A Metropolis–Hastings walk spawns no OS threads: every swap runs on the calling
//! thread, so `wpinq_threads_spawned_total` does not move while it runs.
//!
//! The counter is process-wide, so this check is a test binary of its own with a single
//! test: no test running alongside it can add spawns to the count.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wpinq::shard::THREADS_SPAWNED_METRIC;
use wpinq::PrivacyBudget;
use wpinq_analyses::edges::GraphEdges;
use wpinq_analyses::tbi::TbiMeasurement;
use wpinq_graph::generators;
use wpinq_mcmc::scorers::tbi_scorer;
use wpinq_mcmc::{GraphCandidate, MetropolisHastings, StepOutcome};

#[test]
fn a_tbi_walk_spawns_no_threads() {
    let mut rng = StdRng::seed_from_u64(5);
    let secret = generators::powerlaw_cluster(120, 3, 0.7, &mut rng);
    let edges = GraphEdges::new(&secret, PrivacyBudget::unlimited());
    let tbi = TbiMeasurement::measure(&edges.queryable(), 1e5, &mut rng).unwrap();
    let mut seed = secret.clone();
    generators::degree_preserving_rewire(&mut seed, 400, &mut rng);
    let mut candidate = GraphCandidate::new(seed, |flow| vec![tbi_scorer(flow, &tbi)]);

    let spawned = || wpinq_telemetry::registry().counter_value(THREADS_SPAWNED_METRIC);
    let before = spawned();
    let driver = MetropolisHastings::new(0.1, 10_000.0);
    let mut accepted = 0u32;
    for _ in 0..500 {
        accepted += u32::from(driver.step(&mut candidate, &mut rng) == StepOutcome::Accepted);
    }
    assert_eq!(spawned() - before, 0, "the walk spawned threads");
    assert!(accepted > 0, "no swap was accepted");
    assert!(candidate.scorer_drift() < 1e-6);
}
