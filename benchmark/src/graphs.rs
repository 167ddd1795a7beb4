//! The protected input of every workload.

use rand::rngs::StdRng;
use rand::SeedableRng;
use wpinq_datasets::collaboration::collaboration_graph;
use wpinq_graph::Graph;

/// The generator seed of `bench::smallsets::grqc_small`, the repo's reduced CA-GrQc
/// stand-in.
const GENERATOR_SEED: u64 = 0x5347_7271;

/// A collaboration graph of the given size from a **fixed** generator seed.
///
/// The cost of the paper's join queries follows Σd², which moves by tens of percent
/// between two draws of the generator at one size — more than the bounds the metrics
/// carry. So the graph is a fixed dataset per workload, as the paper's graphs are, and
/// the run's `--seed` drives everything that is random *about a run*: the curator's
/// noise, the analysts' request streams, the measurement noise the seed graph is fitted
/// to, and the walk.
pub fn secret_graph(nodes: usize, papers: usize) -> Graph {
    collaboration_graph(
        nodes,
        papers,
        2..=7,
        &mut StdRng::seed_from_u64(GENERATOR_SEED),
    )
}
