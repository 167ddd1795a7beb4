//! The pluggable batch-execution layer: *how* a plan is evaluated, separated from *what*
//! it computes.
//!
//! A [`Plan`](super::Plan) is pure IR; privacy accounting flows from its structure and is
//! independent of the engine that folds it over data (compare ProvSQL's split between
//! semiring annotation and evaluation). Batch evaluation plugs in through [`Executor`]:
//! [`SequentialExecutor`] (the reference single-threaded fold through
//! `wpinq_core::operators`) or [`ShardedExecutor`] (hash-partitioned shard-parallel
//! kernels, `wpinq_core::shard`, dispatching on a long-lived shared [`WorkerPool`]). Both
//! are **bitwise identical**, so callers can switch executors freely — including
//! mid-experiment — without perturbing released measurements.
//!
//! Incremental lowering has one engine, the sequential `wpinq_dataflow::Stream` graph
//! ([`IncrementalEngine::Sequential`]).
//!
//! The default executor comes from the `WPINQ_THREADS` environment variable (via
//! [`default_executor`]).

use std::sync::Arc;

use wpinq_core::shard::WorkerPool;

/// Environment variable selecting the default shard/thread count (`1` = sequential).
pub const THREADS_ENV: &str = "WPINQ_THREADS";

/// A batch execution strategy for plans.
///
/// The trait is object-safe so front ends can hold `Arc<dyn Executor>`; the plan walker
/// dispatches on [`shard_count`](Executor::shard_count) (1 = the sequential fold, n > 1 =
/// the shard-parallel path). Strategies that cannot be expressed as a shard count will
/// extend this trait when they land; today the shard count *is* the strategy.
pub trait Executor: std::fmt::Debug + Send + Sync {
    /// How many hash shards (= worker threads) this executor evaluates over.
    fn shard_count(&self) -> usize;

    /// Short human-readable strategy name for logs and diagnostics.
    fn name(&self) -> &'static str;

    /// The long-lived worker pool shard kernels dispatch on. Must be `Some` whenever
    /// [`shard_count`](Executor::shard_count) is above 1; single-shard strategies run
    /// inline and return `None`.
    fn pool(&self) -> Option<&WorkerPool>;
}

/// The single-threaded reference strategy: folds the operator DAG through the sequential
/// batch kernels, one node at a time.
#[derive(Debug, Clone, Copy, Default)]
pub struct SequentialExecutor;

impl Executor for SequentialExecutor {
    fn shard_count(&self) -> usize {
        1
    }

    fn name(&self) -> &'static str {
        "sequential"
    }

    fn pool(&self) -> Option<&WorkerPool> {
        None
    }
}

/// The shard-parallel strategy: hash-partitions sources into `n` shards and evaluates
/// every operator on `n` worker threads, producing bitwise-identical results to
/// [`SequentialExecutor`].
///
/// The executor holds a handle to the process-shared [`WorkerPool`] for its shard count,
/// so every evaluation dispatches onto the same long-lived workers and steady-state query
/// evaluation spawns zero threads.
#[derive(Debug, Clone)]
pub struct ShardedExecutor {
    shards: usize,
    pool: Option<Arc<WorkerPool>>,
}

/// Upper bound on shard counts ([`ShardedExecutor::new`] clamps to it). Each shard is an
/// OS thread per operator stage, so a typo like `WPINQ_THREADS=200000` must degrade to a
/// large-but-survivable fan-out instead of aborting at the OS thread limit. Deliberate
/// oversharding (more shards than cores, as the equivalence tests do) stays possible.
pub const MAX_SHARDS: usize = 256;

impl ShardedExecutor {
    /// Creates a pooled executor with the given shard count (clamped to
    /// `1..=`[`MAX_SHARDS`]), sharing the process-wide [`WorkerPool`] for that count.
    /// Single-shard executors take the sequential evaluation path and hold no pool.
    pub fn new(shards: usize) -> Self {
        let shards = shards.clamp(1, MAX_SHARDS);
        ShardedExecutor {
            shards,
            pool: (shards > 1).then(|| WorkerPool::shared(shards)),
        }
    }

    /// Reads the shard count from [`THREADS_ENV`], following the same opt-in policy as
    /// [`default_executor`]: when the variable is unset or unparsable the count is 1 (a
    /// single-shard evaluation — parallelism never switches on silently). Callers that
    /// explicitly want every core can pass [`available_threads`] to [`new`](Self::new).
    pub fn from_env() -> Self {
        ShardedExecutor::new(threads_from_env().unwrap_or(1))
    }

    /// The configured shard count.
    pub fn shards(&self) -> usize {
        self.shards
    }
}

impl Executor for ShardedExecutor {
    fn shard_count(&self) -> usize {
        self.shards
    }

    fn name(&self) -> &'static str {
        "sharded"
    }

    fn pool(&self) -> Option<&WorkerPool> {
        self.pool.as_deref()
    }
}

fn threads_from_env() -> Option<usize> {
    std::env::var(THREADS_ENV)
        .ok()
        .and_then(|raw| raw.trim().parse::<usize>().ok())
        .map(|n| n.max(1))
}

/// Which incremental engine a plan lowers onto. There is one: the single-threaded
/// `wpinq_dataflow::Stream` graph. The type stays so callers (and result files) can name
/// the engine that ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IncrementalEngine {
    /// The single-threaded `wpinq_dataflow::Stream` graph.
    Sequential,
}

impl IncrementalEngine {
    /// The process-default engine (always [`Sequential`](Self::Sequential)).
    pub fn from_env() -> Self {
        IncrementalEngine::Sequential
    }
}

/// The machine's available hardware parallelism (1 when it cannot be determined).
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// The process-default executor: [`ShardedExecutor`] with `WPINQ_THREADS` shards when the
/// variable requests more than one, [`SequentialExecutor`] otherwise (including when the
/// variable is unset — parallelism is opt-in so single-measurement workloads never pay
/// thread-spawn overhead silently).
pub fn default_executor() -> Arc<dyn Executor> {
    match threads_from_env() {
        Some(n) if n > 1 => Arc::new(ShardedExecutor::new(n)),
        _ => Arc::new(SequentialExecutor),
    }
}

/// An executor for an explicit thread-count knob: `0` defers to [`default_executor`]
/// (i.e. `WPINQ_THREADS`), `1` is sequential, `n > 1` is `n`-way sharded.
pub fn executor_for_threads(threads: usize) -> Arc<dyn Executor> {
    match threads {
        0 => default_executor(),
        1 => Arc::new(SequentialExecutor),
        n => Arc::new(ShardedExecutor::new(n)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_counts_are_clamped_and_reported() {
        assert_eq!(SequentialExecutor.shard_count(), 1);
        assert_eq!(ShardedExecutor::new(0).shard_count(), 1);
        assert_eq!(ShardedExecutor::new(8).shard_count(), 8);
        assert_eq!(Executor::name(&ShardedExecutor::new(8)), "sharded");
        // A fat-fingered thread count degrades instead of exhausting OS threads.
        assert_eq!(ShardedExecutor::new(200_000).shard_count(), MAX_SHARDS);
    }

    #[test]
    fn pooled_executors_expose_their_strategy() {
        // Multi-shard executors share the process pool for their shard count.
        let a = ShardedExecutor::new(4);
        let b = ShardedExecutor::new(4);
        let pool_a = a.pool().expect("pooled by default");
        let pool_b = b.pool().expect("pooled by default");
        assert_eq!(pool_a.workers(), 4);
        assert!(
            std::ptr::eq(pool_a, pool_b),
            "same shard count shares one pool"
        );
        // Single-shard evaluation is sequential, so no pool is held.
        assert!(ShardedExecutor::new(1).pool().is_none());
        assert!(Executor::pool(&SequentialExecutor).is_none());
        // Cloning keeps the same pool handle.
        let cloned = a.clone();
        assert!(std::ptr::eq(a.pool().unwrap(), cloned.pool().unwrap()));
    }

    #[test]
    fn explicit_thread_knob_maps_to_strategies() {
        assert_eq!(executor_for_threads(1).shard_count(), 1);
        assert_eq!(executor_for_threads(4).shard_count(), 4);
        assert_eq!(executor_for_threads(4).name(), "sharded");
        // 0 defers to the environment; whatever it resolves to is a valid executor.
        assert!(executor_for_threads(0).shard_count() >= 1);
    }
}
