//! # wpinq-datasets — synthetic stand-ins for the paper's evaluation graphs
//!
//! The paper evaluates on five real graphs (SNAP collaboration networks CA-GrQc, CA-HepPh,
//! CA-HepTh, the Facebook Caltech network, and the Epinions trust network), their
//! degree-matched `Random(X)` rewirings (Table 1), and a suite of Barabási–Albert graphs
//! with increasing dynamical exponent (Table 3). Those datasets are not redistributable
//! here, so this crate provides deterministic synthetic substitutes that match each graph's
//! *qualitative* profile — node/edge scale, heavy-tailed degrees, triangle richness versus
//! a degree-matched random graph, and the sign of the assortativity — which is what every
//! experiment in Section 5 actually depends on. The larger graphs are generated at a
//! reduced scale (documented per dataset) so the full experiment suite runs on a laptop.
//!
//! Every generator is seeded deterministically: repeated calls return identical graphs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collaboration;
pub mod registry;

use rand::rngs::StdRng;
use rand::SeedableRng;
use wpinq_graph::{generators, Graph};

pub use registry::{barabasi_suite, registry, DatasetEntry, PaperStats};

/// Synthetic stand-in for **CA-GrQc** (General Relativity collaboration network), at full
/// scale: ~5.2k nodes, ~29k edges, triangle-rich, strongly assortative.
pub fn ca_grqc() -> Graph {
    let mut rng = StdRng::seed_from_u64(0x6772_7163);
    collaboration::collaboration_graph(5_242, 2_400, 2..=7, &mut rng)
}

/// Synthetic stand-in for **CA-HepTh** (High Energy Physics – Theory collaboration
/// network), at full scale: ~9.9k nodes, ~52k edges, moderately assortative.
pub fn ca_hepth() -> Graph {
    let mut rng = StdRng::seed_from_u64(0x6865_7074);
    collaboration::collaboration_graph(9_877, 4_400, 2..=6, &mut rng)
}

/// Synthetic stand-in for **CA-HepPh** (High Energy Physics – Phenomenology collaboration
/// network), at roughly quarter scale: ~3k nodes and ~60k edges instead of 12k/237k, with
/// the same very-dense, large-clique character (and therefore an enormous triangle count).
pub fn ca_hepph() -> Graph {
    let mut rng = StdRng::seed_from_u64(0x6865_7070);
    collaboration::collaboration_graph(3_000, 420, 3..=20, &mut rng)
}

/// Synthetic stand-in for the **Facebook Caltech** network, at full scale: ~770 nodes and
/// ~33k edges (average degree ≈ 86), triangle-rich but roughly degree-neutral (r ≈ 0).
pub fn caltech() -> Graph {
    let mut rng = StdRng::seed_from_u64(0x0ca1_7ec4);
    generators::powerlaw_cluster(769, 43, 0.6, &mut rng)
}

/// Synthetic stand-in for the **Epinions** trust network, at roughly one-eighth scale:
/// ~9.5k nodes and ~125k edges instead of 76k/1M, with a very heavy-tailed degree
/// distribution (the paper's hardest graph by Σd²).
pub fn epinions() -> Graph {
    let mut rng = StdRng::seed_from_u64(0x0e91_5105);
    generators::powerlaw_cluster(9_500, 13, 0.3, &mut rng)
}

/// The `Random(X)` counterpart of a graph (Table 1): the same degree sequence with
/// higher-order structure destroyed by degree-preserving edge rewiring.
pub fn random_counterpart(graph: &Graph) -> Graph {
    let mut rng = StdRng::seed_from_u64(0x5261_6e64);
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
    fn generators_are_deterministic() {
        let a = caltech();
        let b = caltech();
        assert_eq!(a, b);
        let g1 = ca_grqc();
        let g2 = ca_grqc();
        assert_eq!(g1.num_edges(), g2.num_edges());
    }

    #[test]
    fn grqc_standin_matches_the_table1_profile() {
        let g = ca_grqc();
        let s = stats::summary(&g);
        // Scale: within ~20% of 5242 nodes / 28980 edges.
        assert!(
            (s.nodes as f64 - 5242.0).abs() < 0.2 * 5242.0,
            "nodes {}",
            s.nodes
        );
        assert!(
            (s.edges as f64 - 28980.0).abs() < 0.35 * 28980.0,
            "edges {}",
            s.edges
        );
        // Collaboration-network character: many triangles, non-negative assortativity.
        // (The real CA-GrQc has r = 0.66; the synthetic stand-in is only mildly assortative.
        // `bench --bin table1`, in the README's "Running things", prints both side by side.)
        assert!(s.triangles > 10_000, "triangles {}", s.triangles);
        assert!(s.assortativity > 0.0, "assortativity {}", s.assortativity);
        assert!(s.max_degree > 25, "max degree {}", s.max_degree);
    }

    #[test]
    fn caltech_standin_is_dense_and_triangle_rich() {
        let g = caltech();
        let s = stats::summary(&g);
        assert_eq!(s.nodes, 769);
        assert!(
            (s.edges as f64 - 33312.0).abs() < 0.15 * 33312.0,
            "edges {}",
            s.edges
        );
        assert!(s.triangles > 50_000, "triangles {}", s.triangles);
        assert!(
            s.assortativity.abs() < 0.2,
            "assortativity {}",
            s.assortativity
        );
    }

    #[test]
    fn random_counterpart_keeps_degrees_and_destroys_triangles() {
        let g = caltech();
        let r = random_counterpart(&g);
        assert_eq!(stats::degree_sequence(&g), stats::degree_sequence(&r));
        let (tg, tr) = (stats::triangle_count(&g), stats::triangle_count(&r));
        // Caltech is extremely dense (average degree ≈ 86 over 769 nodes), so even a
        // degree-matched random graph keeps most of its triangles; the contrast is much
        // starker for the sparser graphs (see the GrQc check below).
        assert!(
            (tr as f64) < 0.9 * tg as f64,
            "rewiring should reduce triangles: {tg} -> {tr}"
        );

        let grqc = ca_grqc();
        let grqc_random = random_counterpart(&grqc);
        assert!(
            stats::triangle_count(&grqc_random) * 5 < stats::triangle_count(&grqc),
            "GrQc stand-in should lose most triangles under rewiring"
        );
    }

    #[test]
    fn hepth_standin_has_the_right_scale() {
        let g = ca_hepth();
        let s = stats::summary(&g);
        assert!((s.nodes as f64 - 9877.0).abs() < 0.2 * 9877.0);
        assert!(
            (s.edges as f64 - 51971.0).abs() < 0.4 * 51971.0,
            "edges {}",
            s.edges
        );
        assert!(s.triangles > 5_000);
        assert!(s.assortativity > 0.0);
    }
}

#[cfg(test)]
mod probe {
    //! Manual probe printing every stand-in's measured statistics next to the paper's
    //! Table 1 numbers. Run with:
    //! `cargo test -p wpinq-datasets --release -- --ignored --nocapture probe`
    use super::*;
    use wpinq_graph::stats;

    #[test]
    #[ignore = "diagnostic output only; run explicitly when retuning dataset generators"]
    fn print_dataset_summaries() {
        for entry in registry::registry() {
            let g = entry.graph();
            let s = stats::summary(&g);
            let r = random_counterpart(&g);
            let rs = stats::summary(&r);
            println!(
                "{:<10} nodes {:>6} edges {:>7} dmax {:>4} tri {:>8} r {:>6.3} | random tri {:>8} r {:>6.3}",
                entry.name, s.nodes, s.edges, s.max_degree, s.triangles, s.assortativity,
                rs.triangles, rs.assortativity
            );
        }
    }
}
