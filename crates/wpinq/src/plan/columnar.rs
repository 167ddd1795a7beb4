//! Bridges the typed plan evaluator onto the columnar expression kernels.
//!
//! The expression-carrying nodes (`Select`, `Where`, `SelectMany`, `GroupBy`, `Join`)
//! call these `try_*` hooks before falling back to their row kernels. A hook engages
//! only when the columnar toggle ([`wpinq_expr::columnar_enabled`]) is on **and** the
//! node's records are the dynamic [`Value`] shapes produced by
//! [`plan_from_spec`](super::plan_from_spec) — checked by `Any` downcast, so typed
//! plans pay one `TypeId` comparison per node and fall through. `Value`-typed plans can
//! only be built through the wire path (`Value` has no static `ExprRecord` shape), which
//! pins the payload conventions the kernels assume: identity conversions, `Value`
//! outputs, and `(Value, Value)` group-by pairs. `None` always means "run the row path".

use std::any::Any;

use wpinq_core::dataset::WeightedDataset;
use wpinq_core::record::Record;
use wpinq_core::shard::{ShardedDataset, WorkerPool};
use wpinq_core::value::Value;
use wpinq_expr::{columnar, Expr, ReduceSpec};

/// `&WeightedDataset<T>` as `&WeightedDataset<Value>` when `T` is `Value`.
fn as_value<T: Record>(data: &WeightedDataset<T>) -> Option<&WeightedDataset<Value>> {
    (data as &dyn Any).downcast_ref()
}

/// The sharded twin of [`as_value`].
fn as_value_shards<T: Record>(data: &ShardedDataset<T>) -> Option<&ShardedDataset<Value>> {
    (data as &dyn Any).downcast_ref()
}

/// Moves a concrete kernel result into the node's output type. Identity in practice:
/// the input downcasts only succeed on wire-built plans, whose output shapes are fixed.
fn cast_out<S: Any, D: Any>(out: S) -> Option<D> {
    (Box::new(out) as Box<dyn Any>).downcast().ok().map(|b| *b)
}

pub(crate) fn try_select<T: Record, U: Record>(
    parent: &WeightedDataset<T>,
    expr: &Expr,
) -> Option<WeightedDataset<U>> {
    if !columnar::columnar_enabled() {
        return None;
    }
    cast_out(columnar::select(as_value(parent)?, expr)?)
}

pub(crate) fn try_select_shards<T: Record, U: Record>(
    parent: &ShardedDataset<T>,
    expr: &Expr,
    pool: &WorkerPool,
) -> Option<ShardedDataset<U>> {
    if !columnar::columnar_enabled() {
        return None;
    }
    cast_out(columnar::select_sharded(
        as_value_shards(parent)?,
        expr,
        pool,
    )?)
}

pub(crate) fn try_filter<T: Record>(
    parent: &WeightedDataset<T>,
    predicate: &Expr,
) -> Option<WeightedDataset<T>> {
    if !columnar::columnar_enabled() {
        return None;
    }
    cast_out(columnar::filter(as_value(parent)?, predicate)?)
}

pub(crate) fn try_filter_shards<T: Record>(
    parent: &ShardedDataset<T>,
    predicate: &Expr,
    pool: &WorkerPool,
) -> Option<ShardedDataset<T>> {
    if !columnar::columnar_enabled() {
        return None;
    }
    cast_out(columnar::filter_sharded(
        as_value_shards(parent)?,
        predicate,
        pool,
    )?)
}

pub(crate) fn try_select_many_unit<T: Record, U: Record>(
    parent: &WeightedDataset<T>,
    exprs: &[Expr],
) -> Option<WeightedDataset<U>> {
    if !columnar::columnar_enabled() {
        return None;
    }
    cast_out(columnar::select_many_unit(as_value(parent)?, exprs)?)
}

pub(crate) fn try_select_many_unit_shards<T: Record, U: Record>(
    parent: &ShardedDataset<T>,
    exprs: &[Expr],
    pool: &WorkerPool,
) -> Option<ShardedDataset<U>> {
    if !columnar::columnar_enabled() {
        return None;
    }
    cast_out(columnar::select_many_unit_sharded(
        as_value_shards(parent)?,
        exprs,
        pool,
    )?)
}

pub(crate) fn try_group_by<T: Record, K: Record, R: Record>(
    parent: &WeightedDataset<T>,
    key: &Expr,
    reduce: &ReduceSpec,
) -> Option<WeightedDataset<(K, R)>> {
    if !columnar::columnar_enabled() {
        return None;
    }
    cast_out(columnar::group_by(as_value(parent)?, key, reduce)?)
}

pub(crate) fn try_group_by_shards<T: Record, K: Record, R: Record>(
    parent: &ShardedDataset<T>,
    key: &Expr,
    reduce: &ReduceSpec,
    pool: &WorkerPool,
) -> Option<ShardedDataset<(K, R)>> {
    if !columnar::columnar_enabled() {
        return None;
    }
    cast_out(columnar::group_by_sharded(
        as_value_shards(parent)?,
        key,
        reduce,
        pool,
    )?)
}

pub(crate) fn try_join<A: Record, B: Record, R: Record>(
    left: &WeightedDataset<A>,
    right: &WeightedDataset<B>,
    key_left: &Expr,
    key_right: &Expr,
    result: &Expr,
) -> Option<WeightedDataset<R>> {
    if !columnar::columnar_enabled() {
        return None;
    }
    cast_out(columnar::join(
        as_value(left)?,
        as_value(right)?,
        key_left,
        key_right,
        result,
    )?)
}

pub(crate) fn try_join_shards<A: Record, B: Record, R: Record>(
    left: &ShardedDataset<A>,
    right: &ShardedDataset<B>,
    key_left: &Expr,
    key_right: &Expr,
    result: &Expr,
    pool: &WorkerPool,
) -> Option<ShardedDataset<R>> {
    if !columnar::columnar_enabled() {
        return None;
    }
    cast_out(columnar::join_sharded(
        as_value_shards(left)?,
        as_value_shards(right)?,
        key_left,
        key_right,
        result,
        pool,
    )?)
}
