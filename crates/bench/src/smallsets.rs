//! Reduced-scale variants of the evaluation graphs for the MCMC-heavy experiments.
//!
//! The incremental TbI/TbD engine keeps state proportional to Σd² (Section 4.3), so the
//! Table 2 / Figures 3–5 binaries default to these quarter-ish-scale stand-ins and expose
//! `--scale full` for the patient. Qualitative conclusions (real vs random separation,
//! bucketing effect, ε insensitivity) are unchanged. The README's "Running things" lists
//! the binaries, and ROADMAP item 8 tracks the claims they reproduce.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wpinq_datasets::collaboration::collaboration_graph;
use wpinq_graph::{generators, Graph};

/// Reduced CA-GrQc stand-in (~1.5k nodes).
pub fn grqc_small() -> Graph {
    let mut rng = StdRng::seed_from_u64(0x5347_7271);
    collaboration_graph(1_500, 800, 2..=7, &mut rng)
}

/// Reduced CA-HepTh stand-in (~2.5k nodes).
pub fn hepth_small() -> Graph {
    let mut rng = StdRng::seed_from_u64(0x5348_5474);
    collaboration_graph(2_500, 1_200, 2..=6, &mut rng)
}

/// Reduced CA-HepPh stand-in (~1k nodes, dense cliques).
pub fn hepph_small() -> Graph {
    let mut rng = StdRng::seed_from_u64(0x5348_5070);
    collaboration_graph(1_000, 150, 3..=18, &mut rng)
}

/// Reduced Caltech stand-in (~300 nodes, dense).
pub fn caltech_small() -> Graph {
    let mut rng = StdRng::seed_from_u64(0x5343_614c);
    generators::powerlaw_cluster(300, 18, 0.6, &mut rng)
}

/// Reduced Epinions stand-in (~2.5k nodes).
pub fn epinions_small() -> Graph {
    let mut rng = StdRng::seed_from_u64(0x5345_7069);
    generators::powerlaw_cluster(2_500, 8, 0.3, &mut rng)
}

/// The four Table 2 / Figure 4 graphs at the requested scale, with their display names.
pub fn figure4_graphs(full_scale: bool) -> Vec<(&'static str, Graph)> {
    if full_scale {
        vec![
            ("CA-GrQc", wpinq_datasets::ca_grqc()),
            ("CA-HepTh", wpinq_datasets::ca_hepth()),
            ("CA-HepPh", wpinq_datasets::ca_hepph()),
            ("Caltech", wpinq_datasets::caltech()),
        ]
    } else {
        vec![
            ("CA-GrQc (small)", grqc_small()),
            ("CA-HepTh (small)", hepth_small()),
            ("CA-HepPh (small)", hepph_small()),
            ("Caltech (small)", caltech_small()),
        ]
    }
}

/// The degree-matched random counterpart used throughout the experiments.
pub fn randomized(graph: &Graph, seed: u64) -> Graph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut rewired = graph.clone();
    let swaps = 10 * rewired.num_edges();
    generators::degree_preserving_rewire(&mut rewired, swaps, &mut rng);
    rewired
}

#[cfg(test)]
mod tests {
    use super::*;
    use wpinq_graph::stats;

    #[test]
    fn small_sets_are_deterministic_and_triangle_rich() {
        let a = grqc_small();
        let b = grqc_small();
        assert_eq!(a, b);
        assert!(stats::triangle_count(&a) > 1_000);
        assert!(caltech_small().num_nodes() == 300);
    }

    #[test]
    fn randomized_counterparts_lose_triangles() {
        for (name, g) in figure4_graphs(false) {
            let r = randomized(&g, 7);
            assert_eq!(
                stats::degree_sequence(&g),
                stats::degree_sequence(&r),
                "{name}"
            );
            assert!(
                stats::triangle_count(&r) < stats::triangle_count(&g),
                "{name}: randomisation should reduce triangles"
            );
        }
    }
}
