//! A push-based dataflow builder mirroring wPINQ query plans.
//!
//! Analysts (and the MCMC engine) build a DAG of [`Stream`]s starting from one or more
//! [`DataflowInput`]s, using the same operator vocabulary as the batch language. Pushing
//! deltas into an input propagates them through every operator to the sinks:
//! [`CollectedOutput`] (the accumulated query output) and [`ScorerHandle`] (the
//! incrementally maintained `‖Q(A) − m‖₁`).
//!
//! The graph is single-threaded (`Rc`/`RefCell`); the MCMC loop that drives it is itself
//! sequential, and the paper's engine similarly interleaves proposal and update phases.

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use wpinq_core::{Record, WeightedDataset};

use crate::delta::{consolidate, Delta};
use crate::operators::{
    inc_concat, inc_filter, inc_negate, inc_select, inc_select_many, inc_select_many_unit,
    IncrementalGroupBy, IncrementalJoin, IncrementalMinMax, IncrementalShave,
};
use crate::scorer::L1Scorer;

type Listener<T> = Box<dyn FnMut(&[Delta<T>])>;

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

fn broadcast<T: Record>(node: &Rc<RefCell<NodeInner<T>>>, deltas: &[Delta<T>]) {
    if deltas.is_empty() {
        return;
    }
    let mut inner = node.borrow_mut();
    for listener in inner.listeners.iter_mut() {
        listener(deltas);
    }
}

/// The writable end of a dataflow: push weight deltas here and they propagate to every sink.
pub struct DataflowInput<T: Record> {
    node: Rc<RefCell<NodeInner<T>>>,
}

impl<T: Record> DataflowInput<T> {
    /// Creates an input and the stream carrying its deltas.
    pub fn new() -> (DataflowInput<T>, Stream<T>) {
        let node = NodeInner::new();
        (DataflowInput { node: node.clone() }, Stream { node })
    }

    /// Pushes a batch of deltas into the dataflow.
    ///
    /// The batch is consolidated (canonically, per record) before it propagates, so every
    /// operator sees at most one delta per record per push.
    pub fn push(&self, deltas: &[Delta<T>]) {
        broadcast(&self.node, &consolidate(deltas.to_vec()));
    }

    /// Pushes an entire dataset as insertions (the initial load of a candidate dataset).
    pub fn push_dataset(&self, data: &WeightedDataset<T>) {
        let deltas: Vec<Delta<T>> = data.iter().map(|(r, w)| (r.clone(), w)).collect();
        self.push(&deltas);
    }
}

/// A stream of weight deltas inside a dataflow, produced by an input or an operator.
pub struct Stream<T: Record> {
    node: Rc<RefCell<NodeInner<T>>>,
}

impl<T: Record> Clone for Stream<T> {
    fn clone(&self) -> Self {
        Stream {
            node: self.node.clone(),
        }
    }
}

impl<T: Record> Stream<T> {
    fn add_listener(&self, listener: impl FnMut(&[Delta<T>]) + 'static) {
        self.node.borrow_mut().listeners.push(Box::new(listener));
    }

    fn child<U: Record>() -> (Rc<RefCell<NodeInner<U>>>, Stream<U>) {
        let node = NodeInner::new();
        (node.clone(), Stream { node })
    }

    /// Incremental `Select` (per-record transformation).
    pub fn select<U, F>(&self, f: F) -> Stream<U>
    where
        U: Record,
        F: Fn(&T) -> U + 'static,
    {
        let (node, stream) = Self::child::<U>();
        self.add_listener(move |deltas| {
            broadcast(&node, &inc_select(&f, deltas));
        });
        stream
    }

    /// Incremental `Where` (per-record filtering).
    pub fn filter<P>(&self, predicate: P) -> Stream<T>
    where
        P: Fn(&T) -> bool + 'static,
    {
        let (node, stream) = Self::child::<T>();
        self.add_listener(move |deltas| {
            broadcast(&node, &inc_filter(&predicate, deltas));
        });
        stream
    }

    /// Incremental `SelectMany` with the paper's data-dependent normalisation: each
    /// record's production is scaled to at most unit norm before being weighted.
    pub fn select_many<U, F>(&self, f: F) -> Stream<U>
    where
        U: Record,
        F: Fn(&T) -> WeightedDataset<U> + 'static,
    {
        let (node, stream) = Self::child::<U>();
        self.add_listener(move |deltas| {
            broadcast(&node, &inc_select_many(&f, deltas));
        });
        stream
    }

    /// Incremental `SelectMany` where each produced record carries unit weight.
    pub fn select_many_unit<U, I, F>(&self, f: F) -> Stream<U>
    where
        U: Record,
        I: IntoIterator<Item = U>,
        F: Fn(&T) -> I + 'static,
    {
        let (node, stream) = Self::child::<U>();
        self.add_listener(move |deltas| {
            broadcast(&node, &inc_select_many_unit(&f, deltas));
        });
        stream
    }

    /// Incremental `Shave` with an arbitrary per-record weight schedule.
    pub fn shave<F, I>(&self, schedule: F) -> Stream<(T, u64)>
    where
        F: Fn(&T) -> I + 'static,
        I: IntoIterator<Item = f64> + 'static,
    {
        let (node, stream) = Self::child::<(T, u64)>();
        let op = RefCell::new(IncrementalShave::new(schedule));
        self.add_listener(move |deltas| {
            let out = op.borrow_mut().push(deltas);
            broadcast(&node, &out);
        });
        stream
    }

    /// Incremental `Shave` with a constant per-slice weight.
    pub fn shave_const(&self, step: f64) -> Stream<(T, u64)> {
        assert!(
            step > 0.0 && step.is_finite(),
            "shave step must be positive"
        );
        self.shave(move |_: &T| std::iter::repeat(step))
    }

    /// Incremental `GroupBy`.
    pub fn group_by<K, R, KF, RF>(&self, key: KF, reduce: RF) -> Stream<(K, R)>
    where
        K: Record,
        R: Record,
        KF: Fn(&T) -> K + 'static,
        RF: Fn(&[T]) -> R + 'static,
    {
        let (node, stream) = Self::child::<(K, R)>();
        let op = RefCell::new(IncrementalGroupBy::new(key, reduce));
        self.add_listener(move |deltas| {
            let out = op.borrow_mut().push(deltas);
            broadcast(&node, &out);
        });
        stream
    }

    /// Incremental `Join` (equation (1) of the paper).
    pub fn join<U, K, R, KA, KB, RF>(
        &self,
        other: &Stream<U>,
        key_self: KA,
        key_other: KB,
        result: RF,
    ) -> Stream<R>
    where
        U: Record,
        K: Record,
        R: Record,
        KA: Fn(&T) -> K + 'static,
        KB: Fn(&U) -> K + 'static,
        RF: Fn(&T, &U) -> R + 'static,
    {
        let (node, stream) = Self::child::<R>();
        let op = Rc::new(RefCell::new(IncrementalJoin::new(
            key_self, key_other, result,
        )));

        let left_op = op.clone();
        let left_node = node.clone();
        self.add_listener(move |deltas| {
            let out = left_op.borrow_mut().push_left(deltas);
            broadcast(&left_node, &out);
        });

        let right_op = op;
        other.add_listener(move |deltas| {
            let out = right_op.borrow_mut().push_right(deltas);
            broadcast(&node, &out);
        });
        stream
    }

    /// Incremental `Union` (element-wise maximum).
    pub fn union(&self, other: &Stream<T>) -> Stream<T> {
        self.min_max(other, true)
    }

    /// Incremental `Intersect` (element-wise minimum).
    pub fn intersect(&self, other: &Stream<T>) -> Stream<T> {
        self.min_max(other, false)
    }

    fn min_max(&self, other: &Stream<T>, take_max: bool) -> Stream<T> {
        let (node, stream) = Self::child::<T>();
        let op = Rc::new(RefCell::new(if take_max {
            IncrementalMinMax::union()
        } else {
            IncrementalMinMax::intersect()
        }));
        let left_op = op.clone();
        let left_node = node.clone();
        self.add_listener(move |deltas| {
            let out = left_op.borrow_mut().push_left(deltas);
            broadcast(&left_node, &out);
        });
        other.add_listener(move |deltas| {
            let out = op.borrow_mut().push_right(deltas);
            broadcast(&node, &out);
        });
        stream
    }

    /// Incremental `Concat` (element-wise addition).
    pub fn concat(&self, other: &Stream<T>) -> Stream<T> {
        let (node, stream) = Self::child::<T>();
        let left_node = node.clone();
        self.add_listener(move |deltas| {
            broadcast(&left_node, &inc_concat(deltas));
        });
        other.add_listener(move |deltas| {
            broadcast(&node, &inc_concat(deltas));
        });
        stream
    }

    /// Incremental `Except` (element-wise subtraction).
    pub fn except(&self, other: &Stream<T>) -> Stream<T> {
        let (node, stream) = Self::child::<T>();
        let left_node = node.clone();
        self.add_listener(move |deltas| {
            broadcast(&left_node, &inc_concat(deltas));
        });
        other.add_listener(move |deltas| {
            broadcast(&node, &inc_negate(deltas));
        });
        stream
    }

    /// Attaches a sink that accumulates the stream into a weighted dataset.
    pub fn collect(&self) -> CollectedOutput<T> {
        let data = Rc::new(RefCell::new(WeightedDataset::new()));
        let sink = data.clone();
        self.add_listener(move |deltas| {
            let mut d = sink.borrow_mut();
            for (record, weight) in deltas {
                d.add_weight(record.clone(), *weight);
            }
        });
        CollectedOutput { data }
    }

    /// Attaches an [`L1Scorer`] sink maintaining `‖Q(A) − m‖₁` against `target`.
    pub fn l1_scorer(&self, target: HashMap<T, f64>) -> ScorerHandle<T> {
        let scorer = Rc::new(RefCell::new(L1Scorer::new(target)));
        let sink = scorer.clone();
        self.add_listener(move |deltas| {
            sink.borrow_mut().push(deltas);
        });
        ScorerHandle { scorer }
    }
}

/// A sink holding the accumulated output of a stream.
pub struct CollectedOutput<T: Record> {
    data: Rc<RefCell<WeightedDataset<T>>>,
}

impl<T: Record> CollectedOutput<T> {
    /// A snapshot of the accumulated output.
    pub fn snapshot(&self) -> WeightedDataset<T> {
        self.data.borrow().clone()
    }

    /// The weight of one record in the accumulated output.
    pub fn weight(&self, record: &T) -> f64 {
        self.data.borrow().weight(record)
    }

    /// Number of records with non-negligible weight.
    pub fn len(&self) -> usize {
        self.data.borrow().len()
    }

    /// Returns `true` when the accumulated output is empty.
    pub fn is_empty(&self) -> bool {
        self.data.borrow().is_empty()
    }

    /// Total signed weight of the accumulated output.
    pub fn total_weight(&self) -> f64 {
        self.data.borrow().total_weight()
    }
}

/// A sink maintaining the L1 distance between a stream's accumulated output and a fixed
/// measurement target.
pub struct ScorerHandle<T: Record> {
    scorer: Rc<RefCell<L1Scorer<T>>>,
}

impl<T: Record> ScorerHandle<T> {
    /// The maintained `‖Q(A) − m‖₁`.
    pub fn distance(&self) -> f64 {
        self.scorer.borrow().distance()
    }

    /// Recomputes the distance from scratch (drift guard for long runs / tests).
    pub fn recompute_distance(&self) -> f64 {
        self.scorer.borrow().recompute_distance()
    }

    /// A snapshot of the accumulated query output the scorer has seen.
    pub fn current_output(&self) -> WeightedDataset<T> {
        self.scorer.borrow().current().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wpinq_core::operators as batch;

    #[test]
    fn linear_pipeline_matches_batch() {
        let (input, stream) = DataflowInput::<u32>::new();
        let out = stream.select(|x| x % 4).filter(|x| *x != 3).collect();

        let mut accumulated = WeightedDataset::new();
        let updates: Vec<Delta<u32>> = vec![(1, 1.0), (5, 2.0), (3, 1.0), (7, 1.0), (5, -2.0)];
        for delta in updates {
            input.push(&[delta]);
            accumulated.add_weight(delta.0, delta.1);
            let expected = batch::filter(&batch::select(&accumulated, |x| x % 4), |x| *x != 3);
            assert!(out.snapshot().approx_eq(&expected, 1e-9));
        }
    }

    #[test]
    fn self_join_matches_batch() {
        // The paper's length-two-path query: join a symmetric edge stream with itself.
        let (input, edges) = DataflowInput::<(u32, u32)>::new();
        let paths = edges
            .join(&edges, |e| e.1, |e| e.0, |x, y| (x.0, x.1, y.1))
            .collect();

        let mut accumulated = WeightedDataset::new();
        let edge_updates: Vec<Delta<(u32, u32)>> = vec![
            ((1, 2), 1.0),
            ((2, 1), 1.0),
            ((2, 3), 1.0),
            ((3, 2), 1.0),
            ((1, 3), 1.0),
            ((3, 1), 1.0),
            ((1, 3), -1.0),
            ((3, 1), -1.0),
        ];
        for delta in edge_updates {
            input.push(&[delta]);
            accumulated.add_weight(delta.0, delta.1);
            let expected = batch::join(
                &accumulated,
                &accumulated,
                |e| e.1,
                |e| e.0,
                |x, y| (x.0, x.1, y.1),
            );
            assert!(
                paths.snapshot().approx_eq(&expected, 1e-9),
                "after delta {delta:?}"
            );
        }
    }

    #[test]
    fn union_intersect_concat_except_match_batch() {
        let (in_a, a) = DataflowInput::<&'static str>::new();
        let (in_b, b) = DataflowInput::<&'static str>::new();
        let union = a.union(&b).collect();
        let inter = a.intersect(&b).collect();
        let concat = a.concat(&b).collect();
        let except = a.except(&b).collect();

        let mut da = WeightedDataset::new();
        let mut db = WeightedDataset::new();
        let updates: Vec<(bool, Delta<&'static str>)> = vec![
            (true, ("x", 1.0)),
            (false, ("x", 3.0)),
            (true, ("y", 2.0)),
            (false, ("z", 1.0)),
            (true, ("x", -1.0)),
        ];
        for (to_a, delta) in updates {
            if to_a {
                in_a.push(&[delta]);
                da.add_weight(delta.0, delta.1);
            } else {
                in_b.push(&[delta]);
                db.add_weight(delta.0, delta.1);
            }
            assert!(union.snapshot().approx_eq(&batch::union(&da, &db), 1e-9));
            assert!(inter
                .snapshot()
                .approx_eq(&batch::intersect(&da, &db), 1e-9));
            assert!(concat.snapshot().approx_eq(&batch::concat(&da, &db), 1e-9));
            assert!(except.snapshot().approx_eq(&batch::except(&da, &db), 1e-9));
        }
    }

    #[test]
    fn group_by_and_shave_match_batch() {
        let (input, stream) = DataflowInput::<(u32, u32)>::new();
        let degrees = stream.group_by(|e| e.0, |g| g.len() as u64).collect();
        let shaved = stream.select(|e| e.0).shave_const(1.0).collect();

        let mut accumulated = WeightedDataset::new();
        let updates: Vec<Delta<(u32, u32)>> = vec![
            ((1, 2), 1.0),
            ((1, 3), 1.0),
            ((2, 3), 1.0),
            ((1, 4), 1.0),
            ((1, 3), -1.0),
        ];
        for delta in updates {
            input.push(&[delta]);
            accumulated.add_weight(delta.0, delta.1);
            let expected_deg = batch::group_by(&accumulated, |e| e.0, |g| g.len() as u64);
            let expected_shave = batch::shave_const(&batch::select(&accumulated, |e| e.0), 1.0);
            assert!(degrees.snapshot().approx_eq(&expected_deg, 1e-9));
            assert!(shaved.snapshot().approx_eq(&expected_shave, 1e-9));
        }
    }

    #[test]
    fn scorer_tracks_distance_through_a_pipeline() {
        let (input, stream) = DataflowInput::<u32>::new();
        let target: HashMap<u32, f64> = HashMap::from([(0, 2.0), (1, 1.0)]);
        let scorer = stream.select(|x| x % 2).l1_scorer(target);
        assert!((scorer.distance() - 3.0).abs() < 1e-9);
        input.push(&[(4, 1.0), (6, 1.0)]); // parity 0 weight 2.0 → exact match
        assert!((scorer.distance() - 1.0).abs() < 1e-9);
        input.push(&[(3, 2.0)]); // parity 1 weight 2.0 → overshoots by 1
        assert!((scorer.distance() - 1.0).abs() < 1e-9);
        assert!((scorer.recompute_distance() - scorer.distance()).abs() < 1e-9);
        assert_eq!(scorer.current_output().len(), 2);
    }

    #[test]
    fn push_dataset_loads_initial_state() {
        let (input, stream) = DataflowInput::<u32>::new();
        let out = stream.collect();
        input.push_dataset(&WeightedDataset::from_pairs([(1, 1.5), (2, 2.0)]));
        assert_eq!(out.len(), 2);
        assert!((out.weight(&1) - 1.5).abs() < 1e-12);
        assert!((out.total_weight() - 3.5).abs() < 1e-12);
        assert!(!out.is_empty());
    }
}
