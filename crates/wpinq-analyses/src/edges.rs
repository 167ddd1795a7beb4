//! From graphs to protected edge datasets.
//!
//! All analyses in the paper operate under *edge differential privacy*: the protected
//! dataset is the collection of edges, each with weight 1.0, and the platform masks the
//! presence or absence of any single edge. Following the experimental setup of Section 5,
//! the protected input is the **symmetric directed** edge set (both `(a, b)` and `(b, a)`
//! for every undirected edge), which is what makes the privacy multiplicities of the
//! queries come out to the costs quoted in the experiments (degree 1ε, JDD 4ε, TbD 9ε,
//! SbD 12ε, TbI 4ε).

use wpinq::budget::BudgetHandle;
use wpinq::dataflow::Stream;
use wpinq::plan::{Plan, PlanBindings, StreamBindings};
use wpinq::{Expr, PrivacyBudget, ProtectedDataset, Queryable, WeightedDataset};
use wpinq_graph::Graph;

/// A directed edge record: `(source, destination)`.
pub type Edge = (u32, u32);

/// The canonical dataset name the symmetric-directed-edges source carries on the wire
/// (what a measurement service registers the protected edge dataset under).
pub const EDGES_DATASET: &str = "edges";

/// The directed-edge-count query as a plan: one record `()` whose weight is the number
/// of directed edges (2·|E| over the symmetric dataset).
///
/// Privacy multiplicity: 1.
pub fn edge_count_plan(edges: &Plan<Edge>) -> Plan<()> {
    edges.select(|_| ())
}

/// [`edge_count_plan`] in expression form (serializable; byte-identical releases).
pub fn edge_count_plan_expr(edges: &Plan<Edge>) -> Plan<()> {
    edges.select_expr::<()>(Expr::unit())
}

/// The symmetric directed edge dataset of a graph: records `(a, b)` and `(b, a)` with
/// weight 1.0 for every undirected edge.
pub fn symmetric_edge_dataset(graph: &Graph) -> WeightedDataset<Edge> {
    WeightedDataset::from_records(graph.directed_edges())
}

/// The undirected edge dataset of a graph: one canonical `(min, max)` record per edge.
pub fn undirected_edge_dataset(graph: &Graph) -> WeightedDataset<Edge> {
    WeightedDataset::from_records(graph.edges())
}

/// The symmetric-directed-edges *source* of the paper's analyses, as a plan input.
///
/// Every query in this crate is a plan over one edge source; this helper owns that source
/// and knows how to bind it to either engine: a graph's materialised edge dataset for
/// batch evaluation, or a candidate graph's delta stream for incremental MCMC scoring.
/// Using one `EdgeSource` for both is what guarantees the released measurement and the
/// scorer run *the same query*.
pub struct EdgeSource {
    source: Plan<Edge>,
}

impl Default for EdgeSource {
    fn default() -> Self {
        EdgeSource::new()
    }
}

impl EdgeSource {
    /// Creates a fresh edge source.
    pub fn new() -> Self {
        EdgeSource {
            source: Plan::source(),
        }
    }

    /// Creates a fresh **named** edge source (the [`EDGES_DATASET`] wire identity):
    /// expression-form queries over it serialize to complete, shippable
    /// [`PlanSpec`](wpinq::PlanSpec)s that a measurement service resolves by name.
    pub fn named() -> Self {
        EdgeSource {
            source: Plan::source_expr(EDGES_DATASET),
        }
    }

    /// The source plan, to be passed to the analysis plan constructors.
    pub fn plan(&self) -> &Plan<Edge> {
        &self.source
    }

    /// Batch bindings mapping this source to `graph`'s symmetric directed edge dataset.
    pub fn bind_graph(&self, graph: &Graph) -> PlanBindings {
        self.bind_dataset(symmetric_edge_dataset(graph))
    }

    /// Batch bindings mapping this source to an explicit edge dataset.
    pub fn bind_dataset(&self, dataset: WeightedDataset<Edge>) -> PlanBindings {
        let mut bindings = PlanBindings::new();
        bindings.bind(&self.source, dataset);
        bindings
    }

    /// Stream bindings mapping this source to a candidate's edge delta stream.
    pub fn bind_stream(&self, stream: Stream<Edge>) -> StreamBindings {
        let mut bindings = StreamBindings::new();
        bindings.bind(&self.source, stream);
        bindings
    }
}

/// A graph's protected edge dataset together with its privacy budget — the starting point
/// of every analysis in this crate.
#[derive(Debug, Clone)]
pub struct GraphEdges {
    protected: ProtectedDataset<Edge>,
}

impl GraphEdges {
    /// Protects the symmetric directed edge set of `graph` behind a fresh budget.
    pub fn new(graph: &Graph, budget: PrivacyBudget) -> Self {
        GraphEdges {
            protected: ProtectedDataset::new(symmetric_edge_dataset(graph), budget),
        }
    }

    /// Protects the edges behind an existing (shared) budget handle.
    pub fn with_handle(graph: &Graph, handle: BudgetHandle) -> Self {
        GraphEdges {
            protected: ProtectedDataset::with_handle(symmetric_edge_dataset(graph), handle),
        }
    }

    /// The underlying protected dataset.
    pub fn protected(&self) -> &ProtectedDataset<Edge> {
        &self.protected
    }

    /// The budget handle shared by all queries against this graph.
    pub fn budget(&self) -> &BudgetHandle {
        self.protected.budget()
    }

    /// Starts a query over the protected edges.
    pub fn queryable(&self) -> Queryable<Edge> {
        self.protected.queryable()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_graph() -> Graph {
        Graph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn symmetric_dataset_has_two_records_per_edge() {
        let g = toy_graph();
        let d = symmetric_edge_dataset(&g);
        assert_eq!(d.len(), 2 * g.num_edges());
        assert_eq!(d.weight(&(0, 1)), 1.0);
        assert_eq!(d.weight(&(1, 0)), 1.0);
        assert_eq!(d.weight(&(3, 0)), 0.0);
    }

    #[test]
    fn undirected_dataset_has_one_record_per_edge() {
        let g = toy_graph();
        let d = undirected_edge_dataset(&g);
        assert_eq!(d.len(), g.num_edges());
        assert_eq!(d.weight(&(0, 1)), 1.0);
        assert_eq!(d.weight(&(1, 0)), 0.0);
    }

    #[test]
    fn edge_source_binds_both_engines_to_the_same_query() {
        use crate::degree::degree_ccdf_plan;
        use wpinq::dataflow::DataflowInput;

        let g = toy_graph();
        let source = EdgeSource::new();
        let ccdf = degree_ccdf_plan(source.plan());

        // Batch: evaluate over the graph's materialised edges.
        let batch = ccdf.eval(&source.bind_graph(&g));

        // Incremental: lower onto a delta stream and load the same edges.
        let (input, stream) = DataflowInput::new();
        let collected = ccdf.lower(&source.bind_stream(stream)).collect();
        input.push_dataset(&symmetric_edge_dataset(&g));

        assert!(collected.snapshot().approx_eq(&batch, 1e-9));
        assert_eq!(ccdf.multiplicity_of(source.plan().input_id().unwrap()), 1);
    }

    #[test]
    fn edge_count_forms_agree_and_expr_serializes() {
        let g = toy_graph();
        let source = EdgeSource::named();
        let bindings = source.bind_graph(&g);
        let a = edge_count_plan(source.plan()).eval(&bindings);
        let b = edge_count_plan_expr(source.plan()).eval(&bindings);
        assert_eq!(a.weight(&()).to_bits(), b.weight(&()).to_bits());
        assert_eq!(a.weight(&()), 2.0 * g.num_edges() as f64);
        let spec = edge_count_plan_expr(source.plan()).to_spec().unwrap();
        assert_eq!(spec.sources()[0].0, EDGES_DATASET);
        // The closure form over the same named source does not serialize.
        assert!(edge_count_plan(source.plan()).to_spec().is_none());
    }

    #[test]
    fn graph_edges_tracks_budget() {
        let g = toy_graph();
        let edges = GraphEdges::new(&g, PrivacyBudget::new(1.0));
        assert_eq!(edges.budget().spent(), 0.0);
        let mut rng = rand::rngs::mock::StepRng::new(1, 1);
        // A plain degree query uses the source once.
        let q = edges.queryable().select(|e| e.0);
        q.noisy_count(0.25, &mut rng).unwrap();
        assert!((edges.budget().spent() - 0.25).abs() < 1e-12);
    }
}
