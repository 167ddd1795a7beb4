//! Bindings from plan sources to concrete inputs of the two engines.

use std::any::Any;
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use wpinq_core::dataset::WeightedDataset;
use wpinq_core::record::Record;
use wpinq_core::shard::ShardedDataset;
use wpinq_dataflow::Stream;

use super::{InputId, Plan};

fn input_id_of<T: Record>(source: &Plan<T>, what: &str) -> InputId {
    source
        .input_id()
        .unwrap_or_else(|| panic!("{what} can only bind source plans (Plan::source())"))
}

/// Maps plan sources to the [`WeightedDataset`]s the batch evaluator reads.
///
/// Datasets are stored behind `Arc`, so cloning bindings (as the plan-backed
/// [`Queryable`](crate::Queryable) does when merging two query branches) never copies
/// record data — and a binding set is `Send + Sync`, so a measurement service can bind
/// its registered datasets from concurrent request threads without copying them either.
#[derive(Default)]
pub struct PlanBindings {
    datasets: HashMap<InputId, Arc<dyn Any + Send + Sync>>,
    /// Record counts per bound source, captured at bind time (the datasets themselves are
    /// type-erased). The optimizer's join-ordering heuristic reads these.
    sizes: HashMap<InputId, usize>,
    /// Lazily-built hash partitions of bound datasets, keyed by `(source, shard count)`.
    /// The sharded batch executor partitions each source once per *binding* instead of
    /// once per `eval_with` call; rebinding a source drops its cached partitions.
    partitions: Mutex<HashMap<(InputId, usize), Arc<dyn Any + Send + Sync>>>,
}

impl Clone for PlanBindings {
    fn clone(&self) -> Self {
        PlanBindings {
            datasets: self.datasets.clone(),
            sizes: self.sizes.clone(),
            partitions: Mutex::new(self.partitions.lock().expect("partition cache").clone()),
        }
    }
}

impl PlanBindings {
    /// Creates an empty binding set.
    pub fn new() -> Self {
        PlanBindings::default()
    }

    /// Binds `source` (which must be a [`Plan::source`]) to `data`.
    ///
    /// # Panics
    /// Panics if `source` is not a source plan.
    pub fn bind<T: Record>(&mut self, source: &Plan<T>, data: WeightedDataset<T>) {
        self.bind_shared(source, Arc::new(data));
    }

    /// Binds `source` to an already-shared dataset without copying it.
    ///
    /// # Panics
    /// Panics if `source` is not a source plan.
    pub fn bind_shared<T: Record>(&mut self, source: &Plan<T>, data: Arc<WeightedDataset<T>>) {
        let id = input_id_of(source, "PlanBindings");
        self.sizes.insert(id, data.len());
        self.datasets.insert(id, data);
        // Any cached partitions of a previous binding for this source are stale.
        self.partitions
            .lock()
            .expect("partition cache")
            .retain(|(cached, _), _| *cached != id);
    }

    /// Returns `true` when the given input already has a dataset bound.
    pub fn is_bound(&self, id: InputId) -> bool {
        self.datasets.contains_key(&id)
    }

    /// Merges another binding set into this one (right side wins on conflicts, which only
    /// arise when both sides bound the very same input — necessarily to the same data).
    pub fn merge(&mut self, other: &PlanBindings) {
        for (id, data) in &other.datasets {
            self.datasets.insert(*id, data.clone());
            self.partitions
                .lock()
                .expect("partition cache")
                .retain(|(cached, _), _| cached != id);
        }
        for (id, size) in &other.sizes {
            self.sizes.insert(*id, *size);
        }
    }

    /// Record counts per bound source (the optimizer's join-ordering statistics).
    pub(crate) fn source_sizes(&self) -> &HashMap<InputId, usize> {
        &self.sizes
    }

    pub(crate) fn get<T: Record>(&self, id: InputId) -> Arc<WeightedDataset<T>> {
        let entry = self
            .datasets
            .get(&id)
            .unwrap_or_else(|| panic!("unbound plan source {id:?}"))
            .clone();
        entry
            .downcast::<WeightedDataset<T>>()
            .unwrap_or_else(|_| panic!("plan source {id:?} bound at a different record type"))
    }

    /// The bound dataset hash-partitioned over `nshards`, computed once per binding and
    /// cached (repeated sharded evaluations against the same bindings reuse it).
    pub(crate) fn get_partitioned<T: Record>(
        &self,
        id: InputId,
        nshards: usize,
    ) -> Arc<ShardedDataset<T>> {
        if let Some(hit) = self
            .partitions
            .lock()
            .expect("partition cache")
            .get(&(id, nshards))
        {
            return hit
                .clone()
                .downcast::<ShardedDataset<T>>()
                .unwrap_or_else(|_| {
                    panic!("plan source {id:?} partition cached at a different record type")
                });
        }
        let partitioned = Arc::new(ShardedDataset::partition(&self.get::<T>(id), nshards));
        self.partitions
            .lock()
            .expect("partition cache")
            .insert((id, nshards), partitioned.clone());
        partitioned
    }
}

impl std::fmt::Debug for PlanBindings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PlanBindings({} sources)", self.datasets.len())
    }
}

/// Maps plan sources to the dataflow [`Stream`]s the incremental lowering consumes.
#[derive(Default)]
pub struct StreamBindings {
    streams: HashMap<InputId, Box<dyn Any>>,
}

impl StreamBindings {
    /// Creates an empty binding set.
    pub fn new() -> Self {
        StreamBindings::default()
    }

    /// Binds `source` (which must be a [`Plan::source`]) to a delta stream.
    ///
    /// # Panics
    /// Panics if `source` is not a source plan.
    pub fn bind<T: Record>(&mut self, source: &Plan<T>, stream: Stream<T>) {
        let id = input_id_of(source, "StreamBindings");
        self.streams.insert(id, Box::new(stream));
    }

    /// Returns `true` when the given input already has a stream bound.
    pub fn is_bound(&self, id: InputId) -> bool {
        self.streams.contains_key(&id)
    }

    pub(crate) fn get<T: Record>(&self, id: InputId) -> Stream<T> {
        self.streams
            .get(&id)
            .unwrap_or_else(|| panic!("unbound plan source {id:?}"))
            .downcast_ref::<Stream<T>>()
            .unwrap_or_else(|| panic!("plan source {id:?} bound at a different record type"))
            .clone()
    }
}

impl std::fmt::Debug for StreamBindings {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "StreamBindings({} sources)", self.streams.len())
    }
}
