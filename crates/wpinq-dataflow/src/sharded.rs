//! The sharded incremental engine: hash-partitioned delta propagation.
//!
//! [`ShardedStream`] mirrors the operator vocabulary of the sequential [`Stream`](crate::Stream) graph,
//! but every delta batch travels **partitioned by record hash** ([`ShardedDeltas`]:
//! bucket `i` holds exactly the records with `shard_of(record, n) == i`) and every
//! stateful operator keeps its state split into `n` key-hash shards, processed on the
//! graph's long-lived [`WorkerPool`] (the process-shared pool for the graph's shard
//! count, the same worker scaffolding as the batch sharded executor — so steady-state
//! delta propagation spawns **zero** threads). Deltas are *exchanged* (re-routed) only
//! where an operator requires it:
//!
//! * `Where`, `Concat`, `Except`, `Union`, `Intersect` preserve record identity: the
//!   partitioning survives and each bucket is processed shard-locally.
//! * `Select`, `SelectMany`, `Shave` change the record: per-bucket outputs are routed to
//!   the output record's shard.
//! * `GroupBy` and `Join` are the true exchange boundaries: input deltas are first
//!   re-routed by **key** hash so the shard owning a key sees every delta for it, then
//!   outputs are routed by output-record hash.
//!
//! ## Bitwise equivalence with the sequential graph
//!
//! Propagation here is **bitwise identical** to the sequential [`Stream`](crate::Stream) engine — same
//! collected outputs, same [`L1Scorer`] distances, for every shard count. The argument:
//!
//! 1. Batches are consolidated canonically ([`consolidate`]), so each batch carries at
//!    most one delta per record and per-record totals are canonical sums of the same
//!    contribution multisets the sequential operators produce. Exchanges consolidate each
//!    destination exactly once over *raw* operator contributions (the `*_raw` pushes), so
//!    no extra float-summation level is ever introduced.
//! 2. Stateful operators partition their state by key; a key's state shard evolves by the
//!    identical per-record `add_weight` sequence as the sequential operator's state
//!    restricted to that key, and each shard runs the very same per-key update (the
//!    join's fused per-key pass, the group-by's and shave's batch recomputations).
//! 3. The [`L1Scorer`] sink applies each batch's per-record distance changes in canonical
//!    order, so the maintained distance is independent of bucket arrival order.
//!
//! Workers only ever see disjoint buckets of one batch, so the parallel/inline cutover
//! (small MCMC swap batches run inline; bulk loads fan out) cannot affect results. The
//! cutover is **per-operator**: every stream carries a configured cutover
//! ([`DEFAULT_INLINE_CUTOVER`] unless [`ShardedStream::with_cutover`] set one — the plan
//! lowering calibrates it from its cardinality estimates), and the
//! [`INLINE_CUTOVER_ENV`] environment variable overrides every operator at once (`0` =
//! always dispatch on the pool, the deterministic CI axis). The property tests in
//! `tests/equivalence.rs` and `crates/wpinq/tests/` enforce the equivalence
//! operator-by-operator, over random plans, and along seeded edge-swap trajectories.

use std::any::Any;
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::{Arc, OnceLock};

use wpinq_core::colwire;
use wpinq_core::shard::{shard_of, WorkerPool};
use wpinq_core::value::Value;
use wpinq_core::{Record, WeightedDataset};
use wpinq_telemetry::{registry, Counter};

use crate::delta::{consolidate, Delta};
use crate::operators::{
    inc_select_many_raw, IncrementalGroupBy, IncrementalJoin, IncrementalMinMax, IncrementalShave,
};
use crate::scorer::L1Scorer;
use crate::stream::{CollectedOutput, ScorerHandle};

/// A delta batch partitioned by record hash: bucket `i` holds exactly the records with
/// [`shard_of`]`(record, n) == i`, each appearing at most once (batches are consolidated).
pub type ShardedDeltas<T> = Vec<Vec<Delta<T>>>;

/// Default total delta count below which a push is processed inline instead of being
/// dispatched on the worker pool: channel round-trips still dwarf an eight-delta MCMC
/// swap batch. The computation is identical either way (workers own disjoint buckets), so
/// the cutover cannot affect results — only wall-clock time. Operators constructed from a
/// [`ShardedStream::with_cutover`] handle use that handle's value instead (the plan
/// lowering calibrates one per operator from its cardinality estimates).
pub const DEFAULT_INLINE_CUTOVER: usize = 256;

/// Environment variable overriding every operator's inline/parallel cutover at once:
/// parsed once per process, `0` forces every non-empty batch onto the worker pool (the
/// deterministic CI axis), any other number replaces the configured cutovers. Unset or
/// unparsable leaves the per-operator values in force.
pub const INLINE_CUTOVER_ENV: &str = "WPINQ_INLINE_CUTOVER";

/// Registry name of the counter of delta exchanges executed by sharded graphs,
/// cumulative over the process (one count per consolidating record-hash exchange). The
/// MCMC bench snapshots this series alongside the thread-spawn counter to characterise
/// steady-state propagation: read it with
/// `wpinq_telemetry::registry().counter_value(EXCHANGES_METRIC)`.
pub const EXCHANGES_METRIC: &str = "wpinq_exchanges_total";

fn exchanges_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| {
        registry().counter(
            EXCHANGES_METRIC,
            &[],
            "Consolidating delta exchanges executed by sharded dataflow graphs",
        )
    })
}

/// Registry name of the counter of colwire frame bytes moved by pooled exchanges of
/// dynamically typed (`Value`) delta buckets, cumulative over the process. Together with
/// [`EXCHANGE_COLWIRE_ROWS_METRIC`] this yields the exchange format's bytes-per-row,
/// which the vector bench reports as its `exchange-codec` leg.
pub const EXCHANGE_COLWIRE_BYTES_METRIC: &str = "wpinq_exchange_colwire_bytes_total";

/// Registry name of the counter of delta rows that crossed a pooled exchange as colwire
/// frames (see [`EXCHANGE_COLWIRE_BYTES_METRIC`]).
pub const EXCHANGE_COLWIRE_ROWS_METRIC: &str = "wpinq_exchange_colwire_rows_total";

fn colwire_bytes_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| {
        registry().counter(
            EXCHANGE_COLWIRE_BYTES_METRIC,
            &[],
            "Colwire frame bytes moved by pooled Value-delta exchanges",
        )
    })
}

fn colwire_rows_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| {
        registry().counter(
            EXCHANGE_COLWIRE_ROWS_METRIC,
            &[],
            "Delta rows moved through colwire frames by pooled Value-delta exchanges",
        )
    })
}

/// Moves one destination bucket across the exchange boundary. Dynamically typed
/// (`Value`) buckets — the record type wire-built plans run on, and hence the only
/// streams a remote deployment would exchange — travel as a compact colwire frame:
/// column-contiguous fixed-width data instead of one boxed enum tree per row. The codec
/// is bit-exact (`colwire` round-trips every `Value` and every `f64` weight, including
/// NaN and -0.0, by raw bits), so the contributions handed to `consolidate` are
/// identical to a by-ownership move and the release bytes cannot change. Statically
/// typed buckets, and `Value` buckets whose records mix shapes (no single frame schema),
/// move by ownership as before.
fn ship_bucket<T: Record>(bucket: Vec<Delta<T>>) -> Vec<Delta<T>> {
    if bucket.is_empty() {
        return bucket;
    }
    let boxed: Box<dyn Any> = Box::new(bucket);
    let rows = match boxed.downcast::<Vec<Delta<Value>>>() {
        Ok(rows) => *rows,
        Err(other) => {
            return *other
                .downcast::<Vec<Delta<T>>>()
                .expect("identity downcast")
        }
    };
    let shipped = match colwire::encode_rows(&rows) {
        Some(frame) => {
            colwire_bytes_counter().add(frame.len() as u64);
            colwire_rows_counter().add(rows.len() as u64);
            colwire::decode_rows(&frame).expect("colwire self-decode")
        }
        None => rows,
    };
    let back: Box<dyn Any> = Box::new(shipped);
    *back.downcast::<Vec<Delta<T>>>().expect("identity downcast")
}

fn cutover_override() -> Option<usize> {
    static OVERRIDE: OnceLock<Option<usize>> = OnceLock::new();
    *OVERRIDE.get_or_init(|| {
        std::env::var(INLINE_CUTOVER_ENV)
            .ok()
            .and_then(|raw| raw.trim().parse::<usize>().ok())
    })
}

/// The cutover an operator should actually use: the [`INLINE_CUTOVER_ENV`] override when
/// set, the configured (possibly calibrated) per-stream value otherwise.
fn effective_cutover(configured: usize) -> usize {
    cutover_override().unwrap_or(configured)
}

fn batch_work<T>(batches: &[Vec<Delta<T>>]) -> usize {
    batches.iter().map(Vec::len).sum()
}

/// Runs `f(bucket_index, input)` over every bucket — inline below the cutover, on the
/// graph's worker pool otherwise.
fn run_buckets<I: Send, R: Send>(
    pool: &WorkerPool,
    cutover: usize,
    inputs: Vec<I>,
    work: usize,
    f: impl Fn(usize, I) -> R + Sync,
) -> Vec<R> {
    if work < cutover {
        inputs
            .into_iter()
            .enumerate()
            .map(|(index, input)| f(index, input))
            .collect()
    } else {
        pool.map(inputs, f)
    }
}

fn empty_buckets<T>(n: usize) -> ShardedDeltas<T> {
    (0..n).map(|_| Vec::new()).collect()
}

/// Routes a flat (consolidated) delta batch into record-hash buckets.
fn route<T: Record>(deltas: Vec<Delta<T>>, n: usize) -> ShardedDeltas<T> {
    let mut buckets = empty_buckets(n);
    for (record, weight) in deltas {
        buckets[shard_of(&record, n)].push((record, weight));
    }
    buckets
}

/// Routes raw operator contributions into record-hash buckets (repeats allowed; the
/// exchange consolidates each destination once).
fn route_contributions<T: Record>(contributions: Vec<Delta<T>>, n: usize) -> ShardedDeltas<T> {
    route(contributions, n)
}

/// Concatenates per-producer routing buffers per destination, without consolidating
/// (used where records are globally unique, e.g. key-exchange of input deltas).
fn combine<T: Record>(routed: Vec<ShardedDeltas<T>>, n: usize) -> ShardedDeltas<T> {
    let mut by_dest: ShardedDeltas<T> = empty_buckets(n);
    for producer in routed {
        debug_assert_eq!(producer.len(), n);
        for (dest, bucket) in producer.into_iter().enumerate() {
            by_dest[dest].extend(bucket);
        }
    }
    by_dest
}

/// Concatenates per-producer routing buffers and consolidates each destination bucket
/// exactly once (canonically), in parallel. This is the single float-summation point of
/// an exchange: the per-record totals are canonical sums over *all* contributions, the
/// same sums the sequential operator's one `consolidate` call produces.
fn exchange<T: Record>(
    routed: Vec<ShardedDeltas<T>>,
    n: usize,
    pool: &WorkerPool,
    cutover: usize,
) -> ShardedDeltas<T> {
    exchanges_counter().inc();
    let by_dest = combine(routed, n);
    let work = batch_work(&by_dest);
    // Below the cutover the exchange is a local move and buckets are consolidated in
    // place; at or above it (the branch a distributed deployment would put a network
    // hop on) each bucket crosses the boundary as a colwire frame.
    let pooled = work >= cutover;
    run_buckets(pool, cutover, by_dest, work, |_, contributions| {
        let contributions = if pooled {
            ship_bucket(contributions)
        } else {
            contributions
        };
        consolidate(contributions)
    })
}

type Listener<T> = Box<dyn FnMut(&ShardedDeltas<T>)>;

struct NodeInner<T: Record> {
    listeners: Vec<Listener<T>>,
}

impl<T: Record> NodeInner<T> {
    fn new() -> Rc<RefCell<Self>> {
        Rc::new(RefCell::new(NodeInner {
            listeners: Vec::new(),
        }))
    }
}

fn broadcast<T: Record>(node: &Rc<RefCell<NodeInner<T>>>, batches: &ShardedDeltas<T>) {
    if batches.iter().all(Vec::is_empty) {
        return;
    }
    let mut inner = node.borrow_mut();
    for listener in inner.listeners.iter_mut() {
        listener(batches);
    }
}

/// The writable end of a sharded dataflow: push weight deltas here and they propagate —
/// hash-partitioned — to every sink.
pub struct ShardedInput<T: Record> {
    node: Rc<RefCell<NodeInner<T>>>,
    nshards: usize,
}

impl<T: Record> ShardedInput<T> {
    /// Creates an input and the sharded stream carrying its deltas. `nshards` is clamped
    /// to at least 1; a one-shard graph runs the full sharded machinery inline. The
    /// stream holds the process-shared [`WorkerPool`] for `nshards`, so building a graph
    /// never spawns threads beyond the first graph at that shard count, and pushing
    /// deltas through it never spawns any.
    pub fn new(nshards: usize) -> (ShardedInput<T>, ShardedStream<T>) {
        let nshards = nshards.max(1);
        let node = NodeInner::new();
        (
            ShardedInput {
                node: node.clone(),
                nshards,
            },
            ShardedStream {
                node,
                nshards,
                pool: WorkerPool::shared(nshards),
                cutover: DEFAULT_INLINE_CUTOVER,
            },
        )
    }

    /// The graph's shard count.
    pub fn num_shards(&self) -> usize {
        self.nshards
    }

    /// Pushes a batch of deltas: consolidated canonically, routed by record hash, and
    /// propagated through every operator to the sinks.
    pub fn push(&self, deltas: &[Delta<T>]) {
        let batch = consolidate(deltas.to_vec());
        broadcast(&self.node, &route(batch, self.nshards));
    }

    /// Pushes an entire dataset as insertions (the initial load of a candidate dataset).
    pub fn push_dataset(&self, data: &WeightedDataset<T>) {
        let deltas: Vec<Delta<T>> = data.iter().map(|(r, w)| (r.clone(), w)).collect();
        self.push(&deltas);
    }
}

/// A hash-partitioned stream of weight deltas inside a sharded dataflow.
pub struct ShardedStream<T: Record> {
    node: Rc<RefCell<NodeInner<T>>>,
    nshards: usize,
    pool: Arc<WorkerPool>,
    cutover: usize,
}

impl<T: Record> Clone for ShardedStream<T> {
    fn clone(&self) -> Self {
        ShardedStream {
            node: self.node.clone(),
            nshards: self.nshards,
            pool: self.pool.clone(),
            cutover: self.cutover,
        }
    }
}

impl<T: Record> ShardedStream<T> {
    /// The graph's shard count.
    pub fn num_shards(&self) -> usize {
        self.nshards
    }

    /// The inline/parallel cutover operators built from this handle will use (before the
    /// [`INLINE_CUTOVER_ENV`] override, which wins at operator-construction time).
    pub fn cutover(&self) -> usize {
        self.cutover
    }

    /// Returns a handle to the **same** stream node whose downstream operators use
    /// `cutover` as their inline/parallel threshold (total deltas per batch below which
    /// the batch runs inline rather than on the worker pool; `0` = always on the pool).
    /// Children inherit the value, so a calibrating lowering sets it right before
    /// constructing each operator. The cutover never affects results — workers own
    /// disjoint buckets either way — only wall-clock time.
    pub fn with_cutover(&self, cutover: usize) -> ShardedStream<T> {
        let mut handle = self.clone();
        handle.cutover = cutover;
        handle
    }

    fn add_listener(&self, listener: impl FnMut(&ShardedDeltas<T>) + 'static) {
        self.node.borrow_mut().listeners.push(Box::new(listener));
    }

    /// A fresh downstream node inheriting this stream's shard count, pool handle, and
    /// configured cutover.
    fn child<U: Record>(&self) -> (Rc<RefCell<NodeInner<U>>>, ShardedStream<U>) {
        let node = NodeInner::new();
        (
            node.clone(),
            ShardedStream {
                node,
                nshards: self.nshards,
                pool: self.pool.clone(),
                cutover: self.cutover,
            },
        )
    }

    /// Incremental `Select`: per-bucket map in parallel, outputs exchanged by output
    /// record hash (colliding contributions canonically accumulated at the destination).
    pub fn select<U, F>(&self, f: F) -> ShardedStream<U>
    where
        U: Record,
        F: Fn(&T) -> U + Send + Sync + 'static,
    {
        let n = self.nshards;
        let (node, stream) = self.child::<U>();
        let pool = self.pool.clone();
        let cutover = effective_cutover(self.cutover);
        self.add_listener(move |batches| {
            let work = batch_work(batches);
            let routed = run_buckets(
                &pool,
                cutover,
                batches.iter().collect(),
                work,
                |_, bucket: &Vec<Delta<T>>| {
                    let mut routes = empty_buckets::<U>(n);
                    for (record, weight) in bucket {
                        let out = f(record);
                        routes[shard_of(&out, n)].push((out, *weight));
                    }
                    routes
                },
            );
            broadcast(&node, &exchange(routed, n, &pool, cutover));
        });
        stream
    }

    /// Incremental `Where`: record identity is preserved, so each bucket filters
    /// shard-locally with no exchange.
    pub fn filter<P>(&self, predicate: P) -> ShardedStream<T>
    where
        P: Fn(&T) -> bool + Send + Sync + 'static,
    {
        let (node, stream) = self.child::<T>();
        let pool = self.pool.clone();
        let cutover = effective_cutover(self.cutover);
        self.add_listener(move |batches| {
            let work = batch_work(batches);
            let out: ShardedDeltas<T> = run_buckets(
                &pool,
                cutover,
                batches.iter().collect(),
                work,
                |_, bucket: &Vec<Delta<T>>| {
                    bucket
                        .iter()
                        .filter(|(record, _)| predicate(record))
                        .cloned()
                        .collect()
                },
            );
            broadcast(&node, &out);
        });
        stream
    }

    /// Incremental `SelectMany` with the paper's data-dependent normalisation, expanded
    /// per bucket and exchanged by output record hash.
    pub fn select_many<U, F>(&self, f: F) -> ShardedStream<U>
    where
        U: Record,
        F: Fn(&T) -> WeightedDataset<U> + Send + Sync + 'static,
    {
        let n = self.nshards;
        let (node, stream) = self.child::<U>();
        let pool = self.pool.clone();
        let cutover = effective_cutover(self.cutover);
        self.add_listener(move |batches| {
            let work = batch_work(batches);
            let routed = run_buckets(
                &pool,
                cutover,
                batches.iter().collect(),
                work,
                |_, bucket: &Vec<Delta<T>>| route_contributions(inc_select_many_raw(&f, bucket), n),
            );
            broadcast(&node, &exchange(routed, n, &pool, cutover));
        });
        stream
    }

    /// Incremental `SelectMany` where each produced record carries unit weight.
    pub fn select_many_unit<U, I, F>(&self, f: F) -> ShardedStream<U>
    where
        U: Record,
        I: IntoIterator<Item = U>,
        F: Fn(&T) -> I + Send + Sync + 'static,
    {
        self.select_many(move |record: &T| WeightedDataset::from_records(f(record)))
    }

    /// Incremental `Shave`: per-record state lives in the record's own bucket; outputs
    /// `(record, index)` are exchanged to their hash shard.
    pub fn shave<F, I>(&self, schedule: F) -> ShardedStream<(T, u64)>
    where
        F: Fn(&T) -> I + Send + Sync + 'static,
        I: IntoIterator<Item = f64> + 'static,
    {
        let n = self.nshards;
        let (node, stream) = self.child::<(T, u64)>();
        let pool = self.pool.clone();
        let cutover = effective_cutover(self.cutover);
        let schedule = Arc::new(schedule);
        let mut ops: Vec<_> = (0..n)
            .map(|_| {
                let schedule = schedule.clone();
                IncrementalShave::new(move |record: &T| schedule(record))
            })
            .collect();
        self.add_listener(move |batches| {
            let work = batch_work(batches);
            let inputs: Vec<_> = ops.iter_mut().zip(batches.iter()).collect();
            let routed = run_buckets(&pool, cutover, inputs, work, |_, (op, bucket)| {
                route_contributions(op.push_raw(bucket), n)
            });
            broadcast(&node, &exchange(routed, n, &pool, cutover));
        });
        stream
    }

    /// Incremental `Shave` with a constant per-slice weight.
    pub fn shave_const(&self, step: f64) -> ShardedStream<(T, u64)> {
        assert!(
            step > 0.0 && step.is_finite(),
            "shave step must be positive"
        );
        self.shave(move |_: &T| std::iter::repeat(step))
    }

    /// Incremental `GroupBy`: deltas are exchanged by **key** hash so each state shard
    /// owns complete groups, then outputs are exchanged by output record hash.
    pub fn group_by<K, R, KF, RF>(&self, key: KF, reduce: RF) -> ShardedStream<(K, R)>
    where
        K: Record,
        R: Record,
        KF: Fn(&T) -> K + Send + Sync + 'static,
        RF: Fn(&[T]) -> R + Send + Sync + 'static,
    {
        let n = self.nshards;
        let (node, stream) = self.child::<(K, R)>();
        let pool = self.pool.clone();
        let cutover = effective_cutover(self.cutover);
        let key = Arc::new(key);
        let reduce = Arc::new(reduce);
        let mut ops: Vec<_> = (0..n)
            .map(|_| {
                let key = key.clone();
                let reduce = reduce.clone();
                IncrementalGroupBy::new(move |t: &T| key(t), move |g: &[T]| reduce(g))
            })
            .collect();
        let route_key = key;
        self.add_listener(move |batches| {
            let work = batch_work(batches);
            // Exchange inputs by key hash (records are unique within a batch — no
            // accumulation happens, so plain concatenation per destination is exact).
            let rerouted = run_buckets(
                &pool,
                cutover,
                batches.iter().collect(),
                work,
                |_, bucket: &Vec<Delta<T>>| {
                    let mut routes = empty_buckets::<T>(n);
                    for (record, weight) in bucket {
                        routes[shard_of(&route_key(record), n)].push((record.clone(), *weight));
                    }
                    routes
                },
            );
            let by_key = combine(rerouted, n);
            let inputs: Vec<_> = ops.iter_mut().zip(by_key.iter()).collect();
            let routed = run_buckets(&pool, cutover, inputs, work, |_, (op, bucket)| {
                route_contributions(op.push_raw(bucket), n)
            });
            broadcast(&node, &exchange(routed, n, &pool, cutover));
        });
        stream
    }

    /// Incremental `Join` (equation (1) of the paper): both inputs are exchanged by key
    /// hash onto `n` join-state shards; the shard owning each affected key walks that
    /// key's matches once (the fused update of [`IncrementalJoin`]) and the output deltas
    /// are exchanged by output record hash.
    pub fn join<U, K, R, KA, KB, RF>(
        &self,
        other: &ShardedStream<U>,
        key_self: KA,
        key_other: KB,
        result: RF,
    ) -> ShardedStream<R>
    where
        U: Record,
        K: Record,
        R: Record,
        KA: Fn(&T) -> K + Send + Sync + 'static,
        KB: Fn(&U) -> K + Send + Sync + 'static,
        RF: Fn(&T, &U) -> R + Send + Sync + 'static,
    {
        let n = self.nshards;
        assert_eq!(
            n, other.nshards,
            "join requires co-sharded streams (same shard count)"
        );
        let (node, stream) = self.child::<R>();
        let pool = self.pool.clone();
        let cutover = effective_cutover(self.cutover);
        let key_self = Arc::new(key_self);
        let key_other = Arc::new(key_other);
        let result = Arc::new(result);
        let ops: Vec<_> = (0..n)
            .map(|_| {
                let (ka, kb, rf) = (key_self.clone(), key_other.clone(), result.clone());
                IncrementalJoin::new(
                    move |a: &T| ka(a),
                    move |b: &U| kb(b),
                    move |a: &T, b: &U| rf(a, b),
                )
            })
            .collect();
        let ops = Rc::new(RefCell::new(ops));

        let left_ops = ops.clone();
        let left_node = node.clone();
        let left_key = key_self;
        let left_pool = pool.clone();
        self.add_listener(move |batches| {
            let work = batch_work(batches);
            let rerouted = run_buckets(
                &left_pool,
                cutover,
                batches.iter().collect(),
                work,
                |_, bucket: &Vec<Delta<T>>| {
                    let mut routes = empty_buckets::<T>(n);
                    for (record, weight) in bucket {
                        routes[shard_of(&left_key(record), n)].push((record.clone(), *weight));
                    }
                    routes
                },
            );
            let by_key = combine(rerouted, n);
            let mut ops = left_ops.borrow_mut();
            let inputs: Vec<_> = ops.iter_mut().zip(by_key.iter()).collect();
            let routed = run_buckets(&left_pool, cutover, inputs, work, |_, (op, bucket)| {
                route_contributions(op.push_left_raw(bucket), n)
            });
            broadcast(&left_node, &exchange(routed, n, &left_pool, cutover));
        });

        let right_key = key_other;
        let right_cutover = effective_cutover(other.cutover);
        other.add_listener(move |batches| {
            let work = batch_work(batches);
            let rerouted = run_buckets(
                &pool,
                right_cutover,
                batches.iter().collect(),
                work,
                |_, bucket: &Vec<Delta<U>>| {
                    let mut routes = empty_buckets::<U>(n);
                    for (record, weight) in bucket {
                        routes[shard_of(&right_key(record), n)].push((record.clone(), *weight));
                    }
                    routes
                },
            );
            let by_key = combine(rerouted, n);
            let mut ops = ops.borrow_mut();
            let inputs: Vec<_> = ops.iter_mut().zip(by_key.iter()).collect();
            let routed = run_buckets(&pool, right_cutover, inputs, work, |_, (op, bucket)| {
                route_contributions(op.push_right_raw(bucket), n)
            });
            broadcast(&node, &exchange(routed, n, &pool, right_cutover));
        });
        stream
    }

    /// Incremental `Union` (element-wise maximum): keyed by the record itself, so each
    /// bucket's min/max state is shard-local and no exchange happens.
    pub fn union(&self, other: &ShardedStream<T>) -> ShardedStream<T> {
        self.min_max(other, true)
    }

    /// Incremental `Intersect` (element-wise minimum), shard-local like `union`.
    pub fn intersect(&self, other: &ShardedStream<T>) -> ShardedStream<T> {
        self.min_max(other, false)
    }

    fn min_max(&self, other: &ShardedStream<T>, take_max: bool) -> ShardedStream<T> {
        let n = self.nshards;
        assert_eq!(
            n, other.nshards,
            "element-wise operators require co-sharded streams (same shard count)"
        );
        let (node, stream) = self.child::<T>();
        let pool = self.pool.clone();
        let cutover = effective_cutover(self.cutover);
        let right_cutover = effective_cutover(other.cutover);
        let ops: Vec<IncrementalMinMax<T>> = (0..n)
            .map(|_| {
                if take_max {
                    IncrementalMinMax::union()
                } else {
                    IncrementalMinMax::intersect()
                }
            })
            .collect();
        let ops = Rc::new(RefCell::new(ops));
        let left_ops = ops.clone();
        let left_node = node.clone();
        let left_pool = pool.clone();
        self.add_listener(move |batches| {
            let work = batch_work(batches);
            let mut ops = left_ops.borrow_mut();
            let inputs: Vec<_> = ops.iter_mut().zip(batches.iter()).collect();
            let out = run_buckets(&left_pool, cutover, inputs, work, |_, (op, bucket)| {
                op.push_left(bucket)
            });
            broadcast(&left_node, &out);
        });
        other.add_listener(move |batches| {
            let work = batch_work(batches);
            let mut ops = ops.borrow_mut();
            let inputs: Vec<_> = ops.iter_mut().zip(batches.iter()).collect();
            let out = run_buckets(&pool, right_cutover, inputs, work, |_, (op, bucket)| {
                op.push_right(bucket)
            });
            broadcast(&node, &out);
        });
        stream
    }

    /// Incremental `Concat` (element-wise addition): shard-local pass-through.
    pub fn concat(&self, other: &ShardedStream<T>) -> ShardedStream<T> {
        self.passthrough(other, false)
    }

    /// Incremental `Except` (element-wise subtraction): left passes through, right is
    /// negated; both shard-local.
    pub fn except(&self, other: &ShardedStream<T>) -> ShardedStream<T> {
        self.passthrough(other, true)
    }

    fn passthrough(&self, other: &ShardedStream<T>, negate_right: bool) -> ShardedStream<T> {
        let n = self.nshards;
        assert_eq!(
            n, other.nshards,
            "element-wise operators require co-sharded streams (same shard count)"
        );
        let (node, stream) = self.child::<T>();
        let left_node = node.clone();
        self.add_listener(move |batches| {
            broadcast(&left_node, batches);
        });
        other.add_listener(move |batches| {
            if negate_right {
                let negated: ShardedDeltas<T> = batches
                    .iter()
                    .map(|bucket| bucket.iter().map(|(r, w)| (r.clone(), -w)).collect())
                    .collect();
                broadcast(&node, &negated);
            } else {
                broadcast(&node, batches);
            }
        });
        stream
    }

    /// Attaches a sink accumulating the stream into one weighted dataset. The returned
    /// handle is the same [`CollectedOutput`] the sequential engine produces, so
    /// consumers are engine-agnostic.
    pub fn collect(&self) -> CollectedOutput<T> {
        let data = Rc::new(RefCell::new(WeightedDataset::new()));
        let sink = data.clone();
        self.add_listener(move |batches| {
            let mut d = sink.borrow_mut();
            for bucket in batches {
                for (record, weight) in bucket {
                    d.add_weight(record.clone(), *weight);
                }
            }
        });
        CollectedOutput::from_shared(data)
    }

    /// Attaches an [`L1Scorer`] sink maintaining `‖Q(A) − m‖₁` against `target`. Bucket
    /// deltas are merged in the scorer's canonical per-batch order, so the maintained
    /// distance is bitwise identical to the sequential engine's.
    pub fn l1_scorer(&self, target: HashMap<T, f64>) -> ScorerHandle<T> {
        let scorer = Rc::new(RefCell::new(L1Scorer::new(target)));
        let sink = scorer.clone();
        self.add_listener(move |batches| {
            let flat: Vec<Delta<T>> = batches.iter().flatten().cloned().collect();
            sink.borrow_mut().push(&flat);
        });
        ScorerHandle::from_shared(scorer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::DataflowInput;

    /// Pushes the same updates through a sequential graph and a sharded graph built by
    /// `build`, asserting the collected outputs stay bitwise identical after every push.
    fn assert_bitwise_parity<T, U>(
        updates: Vec<Vec<Delta<T>>>,
        build_seq: impl Fn(&crate::Stream<T>) -> crate::CollectedOutput<U>,
        build_sharded: impl Fn(&ShardedStream<T>) -> CollectedOutput<U>,
        nshards: usize,
    ) where
        T: Record,
        U: Record,
    {
        let (seq_input, seq_stream) = DataflowInput::<T>::new();
        let seq_out = build_seq(&seq_stream);
        let (sh_input, sh_stream) = ShardedInput::<T>::new(nshards);
        let sh_out = build_sharded(&sh_stream);
        for batch in updates {
            seq_input.push(&batch);
            sh_input.push(&batch);
            let a = seq_out.snapshot();
            let b = sh_out.snapshot();
            assert_eq!(a.len(), b.len(), "record sets diverged after {batch:?}");
            for (record, weight) in a.iter() {
                assert_eq!(
                    weight.to_bits(),
                    b.weight(record).to_bits(),
                    "{nshards}-shard weight of {record:?} diverged after {batch:?}"
                );
            }
        }
    }

    fn edge_updates() -> Vec<Vec<Delta<(u32, u32)>>> {
        vec![
            (0u32..24)
                .map(|i| ((i % 7, (i * 3) % 5), 1.0))
                .collect::<Vec<_>>(),
            vec![((1, 2), -1.0), ((2, 1), 0.5)],
            vec![((3, 4), 2.0), ((3, 4), -2.0), ((0, 0), 1.0)],
            vec![((6, 2), -1.0), ((5, 3), 1.0)],
        ]
    }

    #[test]
    fn pipeline_matches_sequential_bitwise() {
        for n in [1usize, 2, 3, 8] {
            assert_bitwise_parity(
                edge_updates(),
                |s| {
                    s.select(|e: &(u32, u32)| e.0 % 3)
                        .filter(|x| *x != 1)
                        .shave_const(0.5)
                        .collect()
                },
                |s| {
                    s.select(|e: &(u32, u32)| e.0 % 3)
                        .filter(|x| *x != 1)
                        .shave_const(0.5)
                        .collect()
                },
                n,
            );
        }
    }

    #[test]
    fn self_join_matches_sequential_bitwise() {
        for n in [1usize, 2, 8] {
            assert_bitwise_parity(
                edge_updates(),
                |s| s.join(s, |e| e.1, |e| e.0, |x, y| (x.0, y.1)).collect(),
                |s| s.join(s, |e| e.1, |e| e.0, |x, y| (x.0, y.1)).collect(),
                n,
            );
        }
    }

    #[test]
    fn group_by_and_set_ops_match_sequential_bitwise() {
        for n in [1usize, 2, 8] {
            assert_bitwise_parity(
                edge_updates(),
                |s| {
                    let grouped = s.group_by(|e| e.0 % 2, |g| g.len() as u64);
                    let mapped = s.select(|e| (e.1 % 2, e.0 as u64 % 3));
                    grouped
                        .union(&mapped)
                        .intersect(&grouped)
                        .concat(&mapped)
                        .except(&grouped)
                        .collect()
                },
                |s| {
                    let grouped = s.group_by(|e| e.0 % 2, |g| g.len() as u64);
                    let mapped = s.select(|e| (e.1 % 2, e.0 as u64 % 3));
                    grouped
                        .union(&mapped)
                        .intersect(&grouped)
                        .concat(&mapped)
                        .except(&grouped)
                        .collect()
                },
                n,
            );
        }
    }

    #[test]
    fn select_many_matches_sequential_bitwise() {
        for n in [1usize, 2, 8] {
            assert_bitwise_parity(
                edge_updates(),
                |s| {
                    s.select_many_unit(|e: &(u32, u32)| (0..(e.0 % 4)).collect::<Vec<_>>())
                        .collect()
                },
                |s| {
                    s.select_many_unit(|e: &(u32, u32)| (0..(e.0 % 4)).collect::<Vec<_>>())
                        .collect()
                },
                n,
            );
        }
    }

    #[test]
    fn scorer_distances_match_sequential_bitwise() {
        let target: HashMap<u64, f64> = (0..6u64).map(|i| (i, 1.5 * i as f64 - 2.0)).collect();
        for n in [1usize, 2, 8] {
            let (seq_input, seq_stream) = DataflowInput::<(u32, u32)>::new();
            let seq_scorer = seq_stream
                .group_by(|e| e.0 % 4, |g| g.len() as u64)
                .select(|(_, c)| *c)
                .l1_scorer(target.clone());
            let (sh_input, sh_stream) = ShardedInput::<(u32, u32)>::new(n);
            let sh_scorer = sh_stream
                .group_by(|e| e.0 % 4, |g| g.len() as u64)
                .select(|(_, c)| *c)
                .l1_scorer(target.clone());
            for batch in edge_updates() {
                seq_input.push(&batch);
                sh_input.push(&batch);
                assert_eq!(
                    seq_scorer.distance().to_bits(),
                    sh_scorer.distance().to_bits(),
                    "{n}-shard scorer distance diverged"
                );
            }
            assert!(
                (sh_scorer.distance() - sh_scorer.recompute_distance()).abs() < 1e-9,
                "sharded scorer drifted from its own recomputation"
            );
        }
    }

    #[test]
    fn bulk_loads_cross_the_parallel_threshold() {
        // A load larger than DEFAULT_INLINE_CUTOVER exercises the worker-pool path.
        let big: Vec<Delta<(u32, u32)>> = (0u32..2_000)
            .map(|i| ((i % 97, (i * 7) % 89), 1.0 + (i % 3) as f64))
            .collect();
        assert_bitwise_parity(
            vec![big, vec![((5, 5), -1.0)]],
            |s| s.select(|e: &(u32, u32)| e.0 % 11).collect(),
            |s| s.select(|e: &(u32, u32)| e.0 % 11).collect(),
            4,
        );
    }

    #[test]
    fn forced_pool_dispatch_matches_sequential_bitwise() {
        // with_cutover(0) pushes every non-empty batch — including single-delta MCMC-style
        // swaps — through the worker pool; results must stay bitwise identical.
        for n in [1usize, 2, 8] {
            assert_bitwise_parity(
                edge_updates(),
                |s| {
                    let grouped = s.group_by(|e: &(u32, u32)| e.0 % 2, |g| g.len() as u64);
                    let mapped = s.select(|e| (e.1 % 2, e.0 as u64 % 3));
                    grouped
                        .join(&mapped, |g| g.0, |m| m.0, |g, m| (g.1, m.1))
                        .shave_const(0.5)
                        .collect()
                },
                |s| {
                    let s = s.with_cutover(0);
                    let grouped = s.group_by(|e: &(u32, u32)| e.0 % 2, |g| g.len() as u64);
                    let mapped = s.select(|e| (e.1 % 2, e.0 as u64 % 3));
                    grouped
                        .join(&mapped, |g| g.0, |m| m.0, |g, m| (g.1, m.1))
                        .shave_const(0.5)
                        .collect()
                },
                n,
            );
        }
    }

    #[test]
    fn with_cutover_is_inherited_and_counts_exchanges() {
        let (_input, stream) = ShardedInput::<u32>::new(2);
        assert_eq!(stream.cutover(), DEFAULT_INLINE_CUTOVER);
        let tuned = stream.with_cutover(7);
        assert_eq!(tuned.cutover(), 7);
        // Children inherit the configured value from the handle that built them.
        assert_eq!(tuned.filter(|_| true).cutover(), 7);
        // The original handle (same node) is untouched.
        assert_eq!(stream.cutover(), DEFAULT_INLINE_CUTOVER);

        let before = registry().counter_value(EXCHANGES_METRIC);
        let (input, stream) = ShardedInput::<u32>::new(2);
        let _out = stream.select(|x| x + 1).collect();
        input.push(&[(1, 1.0), (2, 1.0)]);
        assert!(
            registry().counter_value(EXCHANGES_METRIC) > before,
            "a select push must execute at least one consolidating exchange"
        );
    }

    #[test]
    fn push_dataset_loads_initial_state() {
        let (input, stream) = ShardedInput::<u32>::new(3);
        let out = stream.collect();
        input.push_dataset(&WeightedDataset::from_pairs([(1, 1.5), (2, 2.0)]));
        assert_eq!(out.len(), 2);
        assert!((out.weight(&1) - 1.5).abs() < 1e-12);
        assert_eq!(input.num_shards(), 3);
        assert_eq!(stream.num_shards(), 3);
    }
}
