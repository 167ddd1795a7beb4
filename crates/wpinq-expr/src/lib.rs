//! # wpinq-expr — a first-order expression language for shippable wPINQ plans
//!
//! The plan IR in the `wpinq` crate historically stored every operator payload (selector,
//! predicate, key, reducer) as an opaque `Arc<dyn Fn>`. Opaque closures cannot cross a
//! process boundary, cannot be compared beyond pointer identity, and cannot be analysed —
//! which blocked plan serialization (PINQ's agent model across processes) and the
//! optimizer's Where-into-Join/SelectMany pushdowns. This crate replaces them, for plans
//! that opt in, with *data*:
//!
//! * [`Expr`] — a typed first-order expression language (field projection, integer
//!   arithmetic, comparisons, boolean connectives, constants, tuple construction and
//!   sorting) with an interpreter over the dynamic
//!   [`Value`](wpinq_core::value::Value) representation, a type checker, and the
//!   substitution/factoring analyses the optimizer's key-preservation check runs on.
//! * [`PlanSpec`] — a versioned, hand-rolled-JSON wire format for whole plans whose
//!   payloads are expressions: named sources with declared
//!   [`ValueType`](wpinq_core::value::ValueType)s, topologically ordered operator nodes,
//!   and a type-checking validator that rejects malformed documents before execution.
//!
//! The `wpinq` crate converts between `Plan<T>` and `PlanSpec` (`Plan::to_spec`,
//! `Plan::from_spec`), and the `wpinq-service` crate ships specs to a measurement
//! service that owns the data and the privacy budgets.
//!
//! Everything here is deliberately dependency-free (the build environment has no
//! crates.io access): the JSON layer is the [`json`] module, one pull reader and a
//! deterministic writer, which is also what makes the golden-fixture CI check and the
//! byte-identical-release property tests possible.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod columnar;
pub mod expr;
pub mod json;
pub mod program;
pub mod spec;

pub use columnar::{
    columnar_enabled, radix_enabled, resolved_rows_counter, set_columnar_override,
    set_radix_override, COLUMNAR_ENV, RESOLVED_ROWS_METRIC, STRATEGY_HASH, STRATEGY_RADIX,
    STRATEGY_SORT_MERGE,
};
pub use expr::{BinOp, Expr};
pub use json::{Json, JsonError, Reader};
pub use program::ExprProgram;
pub use spec::{
    value_from_json, value_from_reader, value_to_json, value_type_from_json, value_type_to_json,
    PlanSpec, ReduceSpec, SpecNode, WIRE_HEADER, WIRE_VERSION,
};

/// An error in the wire layer: malformed JSON, unknown encoding, version mismatch, or a
/// type error found by validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// Human-readable description.
    pub message: String,
}

impl WireError {
    /// Creates an error with the given message.
    pub fn new(message: impl Into<String>) -> WireError {
        WireError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire error: {}", self.message)
    }
}

impl std::error::Error for WireError {}

impl From<JsonError> for WireError {
    fn from(e: JsonError) -> Self {
        WireError::new(e.to_string())
    }
}
