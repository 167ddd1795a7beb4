//! # wpinq-analyses — the paper's graph analyses, written in wPINQ
//!
//! Section 3 of the paper expresses a family of graph statistics as short wPINQ programs
//! whose privacy cost is certified automatically by the platform. This crate reproduces
//! them, together with the baselines the paper compares against and the measurement
//! post-processing of Section 3.1.
//!
//! Since the plan-IR refactor, each analysis is defined **once** as a
//! [`Plan`](wpinq::plan::Plan)-building function (`degree_ccdf_plan`, `tbd_plan`,
//! `tbi_plan`, `jdd_plan`, …) over a shared [`edges::EdgeSource`]. The `*_query` wrappers
//! apply that plan to a protected dataset for budgeted batch measurement, and the MCMC
//! scorers in `wpinq-mcmc` lower the *same* plan onto a candidate's delta stream for
//! incremental scoring — batch answers, incremental scoring, and privacy accounting all
//! flow from one definition.
//!
//! The degree, edges, nodes, JDD, triangles and squares queries additionally exist in
//! **expression form** (`degree_ccdf_plan_expr`, `edge_count_plan_expr`,
//! `nodes_plan_expr`, `jdd_plan_expr`, `tbd_plan_expr`, `sbd_plan_expr`, …): the same
//! queries built from the `wpinq-expr` first-order expression language instead of Rust
//! closures. They evaluate byte-identically to the closure forms, but serialize to the
//! `PlanSpec` wire format — over an [`edges::EdgeSource::named`] source they can be
//! shipped to a `wpinq-service` measurement server (PINQ's agent model across processes).
//!
//! Modules:
//!
//! * [`edges`] — turning a [`Graph`](wpinq_graph::Graph) into the protected symmetric
//!   directed edge dataset every query consumes (edge differential privacy).
//! * [`degree`] — the degree CCDF and degree sequence queries (Section 3.1).
//! * [`nodes`] — the edges → nodes transformation of Section 2.8 (node count at weight ½).
//! * [`jdd`] — the joint degree distribution query (Section 3.2), weight 1/(2+2dₐ+2d_b).
//! * [`triangles`] — Triangles-by-Degree (Section 3.3, Theorem 2), including the degree
//!   bucketing of Section 5.2.
//! * [`squares`] — Squares-by-Degree (Section 3.4, Theorem 3).
//! * [`tbi`] — Triangles-by-Intersect (Section 5.3), the single-count query used in the
//!   headline experiments.
//! * [`motifs`] — the path-join pattern generalised to longer paths and cycles (Section 3.5).
//! * [`postprocess`] — PAVA isotonic regression and the joint CCDF/degree-sequence grid fit.
//! * [`baselines`] — Hay et al. degree sequences, Sala et al. JDD noise, and the
//!   worst-case-sensitivity triangle count that Figure 1 motivates against.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
pub mod degree;
pub mod edges;
pub mod jdd;
pub mod motifs;
pub mod nodes;
pub mod postprocess;
pub mod squares;
pub mod tbi;
pub mod triangles;

pub use edges::{EdgeSource, GraphEdges};
