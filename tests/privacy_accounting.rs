//! Integration tests of the end-to-end privacy accounting: budgets, multiplicities, and the
//! workflow costs quoted in the paper's experiments.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wpinq::budget::BudgetHandle;
use wpinq::{PrivacyBudget, WpinqError};
use wpinq_analyses::degree::DegreeMeasurements;
use wpinq_analyses::edges::GraphEdges;
use wpinq_analyses::tbi::TbiMeasurement;
use wpinq_analyses::triangles::TbdMeasurement;
use wpinq_graph::generators;
use wpinq_mcmc::{SynthesisConfig, TriangleQuery};

fn small_graph(seed: u64) -> wpinq_graph::Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::powerlaw_cluster(80, 3, 0.6, &mut rng)
}

#[test]
fn the_tbi_workflow_costs_seven_epsilon_and_respects_its_budget() {
    let graph = small_graph(1);
    let epsilon = 0.1;
    // Exactly 7ε of budget: 3ε for the degree measurements, 4ε for TbI.
    let edges = GraphEdges::new(&graph, PrivacyBudget::new(7.0 * epsilon + 1e-9));
    let mut rng = StdRng::seed_from_u64(2);
    DegreeMeasurements::measure(&edges.queryable(), epsilon, &mut rng).unwrap();
    TbiMeasurement::measure(&edges.queryable(), epsilon, &mut rng).unwrap();
    assert!((edges.budget().spent() - 0.7).abs() < 1e-9);
    // Anything further is refused.
    let err = TbiMeasurement::measure(&edges.queryable(), epsilon, &mut rng).unwrap_err();
    assert!(matches!(err, WpinqError::BudgetExceeded(_)));
}

#[test]
fn the_tbd_workflow_costs_twelve_epsilon() {
    let graph = small_graph(3);
    let epsilon = 0.1;
    let edges = GraphEdges::new(&graph, PrivacyBudget::new(1.2 + 1e-9));
    let mut rng = StdRng::seed_from_u64(4);
    DegreeMeasurements::measure(&edges.queryable(), epsilon, &mut rng).unwrap();
    TbdMeasurement::measure(&edges.queryable(), epsilon, 20, &mut rng).unwrap();
    assert!((edges.budget().spent() - 1.2).abs() < 1e-9);
}

#[test]
fn a_failed_measurement_charges_nothing() {
    let graph = small_graph(5);
    let edges = GraphEdges::new(&graph, PrivacyBudget::new(0.35));
    let mut rng = StdRng::seed_from_u64(6);
    // TbI costs 4ε = 0.4 > 0.35: refused and nothing is spent.
    assert!(TbiMeasurement::measure(&edges.queryable(), 0.1, &mut rng).is_err());
    assert_eq!(edges.budget().spent(), 0.0);
    // The cheaper degree measurements (3 × 0.1) still fit afterwards.
    DegreeMeasurements::measure(&edges.queryable(), 0.1, &mut rng).unwrap();
    assert!((edges.budget().spent() - 0.3).abs() < 1e-9);
}

#[test]
fn shared_budgets_are_shared_across_views_of_the_same_data() {
    let graph = small_graph(7);
    let handle = BudgetHandle::new(PrivacyBudget::new(0.5), "edges");
    let view_a = GraphEdges::with_handle(&graph, handle.clone());
    let view_b = GraphEdges::with_handle(&graph, handle.clone());
    let mut rng = StdRng::seed_from_u64(8);
    view_a
        .queryable()
        .select(|e| e.0)
        .noisy_count(0.3, &mut rng)
        .unwrap();
    // The second view sees the expenditure of the first.
    let err = view_b
        .queryable()
        .select(|e| e.0)
        .noisy_count(0.3, &mut rng)
        .unwrap_err();
    assert!(matches!(err, WpinqError::BudgetExceeded(_)));
    assert!((handle.spent() - 0.3).abs() < 1e-9);
}

#[test]
fn synthesis_config_privacy_costs_match_the_paper() {
    assert!(
        (SynthesisConfig {
            epsilon: 0.1,
            triangle_query: TriangleQuery::TbI,
            ..SynthesisConfig::default()
        }
        .total_privacy_cost()
            - 0.7)
            .abs()
            < 1e-12
    );
    assert!(
        (SynthesisConfig {
            epsilon: 0.2,
            triangle_query: TriangleQuery::TbD { bucket: 20 },
            ..SynthesisConfig::default()
        }
        .total_privacy_cost()
            - 2.4)
            .abs()
            < 1e-12
    );
}

#[test]
fn the_full_synthesis_workflow_spends_exactly_its_planned_budget() {
    let graph = small_graph(9);
    let config = SynthesisConfig {
        epsilon: 0.5,
        pow: 1_000.0,
        mcmc_steps: 500,
        record_every: 0,
        triangle_query: TriangleQuery::TbI,
        score_degrees: false,
        threads: 0,
    };
    let mut rng = StdRng::seed_from_u64(10);
    let result = wpinq_mcmc::synthesis::synthesize(&graph, &config, &mut rng).unwrap();
    assert!((result.privacy_cost - config.total_privacy_cost()).abs() < 1e-9);
}
