//! # wpinq-core — engine-neutral foundations of the wPINQ platform
//!
//! The data model and batch operator kernels shared by every execution engine:
//!
//! * [`WeightedDataset<T>`] and the [`Record`] bound — the weighted multiset the paper's
//!   differential-privacy definition is stated over, with the L1 dataset distance
//!   `‖A − B‖ = Σ_x |A(x) − B(x)|`.
//! * [`operators`] — the batch kernels for every stable transformation (Select, Where,
//!   SelectMany, GroupBy, Shave, Join, Union, Intersect, Concat, Except). These are *the*
//!   reference semantics: the incremental engine in `wpinq-dataflow` recomputes affected
//!   keys with these same kernels, and the `wpinq` plan layer's batch evaluator calls them
//!   directly, so there is exactly one definition of each operator's weight arithmetic.
//! * [`shard`] — hash-partitioned [`ShardedDataset`]s plus shard-parallel variants of every
//!   batch kernel (run on long-lived [`shard::WorkerPool`] workers; exchanges at
//!   GroupBy/Join boundaries), bitwise-identical to
//!   the sequential kernels thanks to the canonical accumulation order in [`accumulate`].
//! * [`noise`] and [`aggregation`] — Laplace sampling and the `NoisyCount`/`NoisySum`
//!   measurement primitives (no privacy accounting here; budgets live in `wpinq`).
//! * [`weights`] — tolerances and the pruning threshold for real-valued record weights.
//!
//! Downstream layering: `wpinq-dataflow` (incremental engine) depends only on this crate;
//! `wpinq` (privacy accounting + query-plan IR) depends on both and re-exports everything
//! here, so analysts normally import `wpinq::prelude::*` and never see `wpinq-core`.

// `deny`, not `forbid`: `shard::WorkerPool::map` needs exactly one `unsafe` lifetime
// erasure (OS worker threads force `'static` job types; the call blocks until every
// reply arrives, which is what makes it sound). Every other module stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod accumulate;
pub mod aggregation;
pub mod column;
pub mod colwire;
pub mod dataset;
pub mod noise;
pub mod operators;
pub mod record;
pub mod shard;
pub mod value;
pub mod weights;

pub use aggregation::NoisyCounts;
pub use dataset::WeightedDataset;
pub use record::Record;
pub use shard::ShardedDataset;
pub use value::{ExprRecord, Value, ValueType};
