//! Integration tests of the measure → seed → MCMC synthesis workflow (Section 5).

use rand::rngs::StdRng;
use rand::SeedableRng;
use wpinq_graph::{generators, stats};
use wpinq_mcmc::{SynthesisConfig, TriangleQuery};

fn secret_graph(seed: u64) -> wpinq_graph::Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::powerlaw_cluster(120, 3, 0.9, &mut rng)
}

#[test]
fn tbi_synthesis_moves_triangles_towards_the_secret_graph() {
    let secret = secret_graph(1);
    let config = SynthesisConfig {
        epsilon: 1.0,
        pow: 5_000.0,
        mcmc_steps: 5_000,
        record_every: 2_000,
        triangle_query: TriangleQuery::TbI,
        score_degrees: false,
        threads: 0,
    };
    let mut rng = StdRng::seed_from_u64(2);
    let result = wpinq_mcmc::synthesis::synthesize(&secret, &config, &mut rng).unwrap();

    let secret_triangles = stats::triangle_count(&secret) as f64;
    let seed_triangles = result.seed_summary.triangles as f64;
    let final_triangles = result.final_summary.triangles as f64;
    assert!(
        seed_triangles < 0.6 * secret_triangles,
        "the random seed should start far from the secret graph"
    );
    assert!(
        final_triangles > seed_triangles,
        "MCMC should add triangles ({seed_triangles} -> {final_triangles})"
    );
    // Energy decreases (or at worst stays flat) along the trajectory endpoints.
    let first = result.trajectory.first().unwrap().energy;
    let last = result.trajectory.last().unwrap().energy;
    assert!(
        last <= first + 1e-9,
        "energy should not increase: {first} -> {last}"
    );
}

#[test]
fn synthesis_on_a_random_graph_does_not_hallucinate_triangles() {
    // The Figure 4 control: measurements of a triangle-poor random graph should not lead
    // MCMC to fabricate a triangle-rich synthetic graph.
    let secret = secret_graph(3);
    let mut rng = StdRng::seed_from_u64(4);
    let mut random = secret.clone();
    let swaps = 10 * random.num_edges();
    generators::degree_preserving_rewire(&mut random, swaps, &mut rng);

    let config = SynthesisConfig {
        epsilon: 1.0,
        pow: 5_000.0,
        mcmc_steps: 4_000,
        record_every: 0,
        triangle_query: TriangleQuery::TbI,
        score_degrees: false,
        threads: 0,
    };
    let real = wpinq_mcmc::synthesis::synthesize(&secret, &config, &mut rng).unwrap();
    let control = wpinq_mcmc::synthesis::synthesize(&random, &config, &mut rng).unwrap();
    // MCMC trajectories are not bit-reproducible across processes (hash-map iteration
    // order perturbs floating-point summation), so the margin here is deliberately loose;
    // the tight version of this comparison is the Figure 4 harness.
    assert!(
        real.final_summary.triangles as f64 > 1.2 * control.final_summary.triangles.max(1) as f64,
        "real-graph measurements should yield more triangles than random-graph ones \
         ({} vs {})",
        real.final_summary.triangles,
        control.final_summary.triangles
    );
    assert!(
        real.final_summary.triangles > real.seed_summary.triangles,
        "MCMC against real measurements should add triangles"
    );
}

#[test]
fn the_edge_swap_walk_preserves_degree_structure() {
    let secret = secret_graph(5);
    let config = SynthesisConfig {
        epsilon: 1.0,
        pow: 1_000.0,
        mcmc_steps: 3_000,
        record_every: 0,
        triangle_query: TriangleQuery::TbI,
        score_degrees: true,
        threads: 0,
    };
    let mut rng = StdRng::seed_from_u64(6);
    let result = wpinq_mcmc::synthesis::synthesize(&secret, &config, &mut rng).unwrap();
    assert_eq!(result.final_summary.edges, result.seed_summary.edges);
    assert_eq!(
        result.final_summary.max_degree,
        result.seed_summary.max_degree
    );
    assert_eq!(
        result.final_summary.sum_degree_squares,
        result.seed_summary.sum_degree_squares
    );
    // With degree scoring enabled the energy includes the degree terms and stays finite.
    assert!(result.trajectory.iter().all(|p| p.energy.is_finite()));
}

#[test]
fn bucketed_tbd_synthesis_runs_end_to_end() {
    let secret = secret_graph(7);
    let config = SynthesisConfig {
        epsilon: 1.0,
        pow: 2_000.0,
        mcmc_steps: 2_000,
        record_every: 500,
        triangle_query: TriangleQuery::TbD { bucket: 10 },
        score_degrees: false,
        threads: 0,
    };
    let mut rng = StdRng::seed_from_u64(8);
    let result = wpinq_mcmc::synthesis::synthesize(&secret, &config, &mut rng).unwrap();
    assert_eq!(result.trajectory.first().unwrap().step, 0);
    assert_eq!(result.trajectory.last().unwrap().step, 2_000);
    assert!(result.accepted + result.rejected == 2_000);
    assert!(result.steps_per_second > 0.0);
}
