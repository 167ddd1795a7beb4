//! The three measurement-service workloads: `svc-heavy`, `svc-cached`, `svc-mixed`.
//!
//! The service is built the way `wpinq-service --listen` builds it (the machine's
//! threads as executor shards, `serve_tcp` with as many workers) and every request goes
//! through the product's own `Client` over `Tcp`. The load is a closed loop: each analyst
//! thread sends its next request only after the previous reply has been decoded and
//! checked, and there are never more analyst threads than hardware threads.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use wpinq::plan::{available_threads, executor_for_threads, Executor};
use wpinq::{ExprRecord, Plan, PlanSpec, PrivacyBudget, WeightedDataset};
use wpinq_analyses::edges::{symmetric_edge_dataset, Edge};
use wpinq_expr::Json;
use wpinq_service::{
    serve_tcp, Client, ClientError, MeasurementService, ResponseEncoding, ServerHandle, Tcp,
    Transport, TypedRelease,
};

use crate::graphs::secret_graph;
use crate::report::{Checks, Outcome, SETUP_REPEATS};
use crate::spans::Recorder;
use crate::sys;

/// The one registered dataset.
pub const DATASET: &str = "edges";
/// Every analyst's grant: far more than a run can spend, small enough that a charge of
/// 1e-6 is still far above the grant's floating-point resolution.
pub const GRANT: f64 = 1e6;
/// Distinct requests in each analyst's primed hot set (`svc-mixed`).
pub const HOT_SET: usize = 64;
/// Tolerance of every ε comparison.
const EPS_TOLERANCE: f64 = 1e-6;

/// What the analysts send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// A distinct ε on every request: every request evaluates and pays.
    Cold,
    /// One primed request repeated: every request is a cache hit.
    Cached,
    /// 80% picks from a primed hot set, 20% fresh ε; alternating response encodings.
    Mixed,
}

/// One service workload.
pub struct Svc {
    pub analysts: usize,
    /// Authors and papers of the collaboration graph.
    pub nodes: usize,
    pub papers: usize,
    pub mode: Mode,
    /// `with_cache_capacity`, or the service default.
    pub cache_capacity: Option<usize>,
    /// Analyst 0 re-registers the dataset before every this-many-th request (0: never).
    pub reregister_every: u64,
    /// Length of the traced run's fixed, single-threaded replay (exact counts).
    pub replay_requests: u64,
}

/// The query a workload measures: its expression form (what travels), its typed twin
/// (the closure kernels on the same query) and the paper's ε multiplier for it.
pub trait Query: Send + Sync + 'static {
    type Record: ExprRecord;
    const MULTIPLICITY: u32;
    fn expr(edges: &Plan<Edge>) -> Plan<Self::Record>;
    fn closure(edges: &Plan<Edge>) -> Plan<Self::Record>;
    /// Nested public sub-plans of the query, innermost first, for a stage split.
    fn stages(_edges: &Plan<Edge>) -> Vec<(&'static str, PlanSpec)> {
        Vec::new()
    }
}

/// Triangles by degree (Section 3.3): nine uses of the edges.
pub struct Tbd;
/// Joint degree distribution (Section 3.2): four uses.
pub struct Jdd;
/// Degree CCDF (Section 3.1): one use.
pub struct Ccdf;

impl Query for Tbd {
    type Record = (u64, u64, u64);
    const MULTIPLICITY: u32 = 9;
    fn expr(edges: &Plan<Edge>) -> Plan<Self::Record> {
        wpinq_analyses::triangles::tbd_plan_expr(edges, 1)
    }
    fn closure(edges: &Plan<Edge>) -> Plan<Self::Record> {
        wpinq_analyses::triangles::tbd_plan(edges, 1)
    }
    fn stages(edges: &Plan<Edge>) -> Vec<(&'static str, PlanSpec)> {
        use wpinq_analyses::triangles as t;
        let spec = |plan: Option<PlanSpec>| plan.expect("expression plans serialize");
        vec![
            ("degrees", spec(t::degrees_plan_expr(edges, 1).to_spec())),
            (
                "paths",
                spec(t::length_two_paths_plan_expr(edges).to_spec()),
            ),
            (
                "annotated",
                spec(t::paths_with_middle_degree_plan_expr(edges, 1).to_spec()),
            ),
        ]
    }
}

impl Query for Jdd {
    type Record = (u64, u64);
    const MULTIPLICITY: u32 = 4;
    fn expr(edges: &Plan<Edge>) -> Plan<Self::Record> {
        wpinq_analyses::jdd::jdd_plan_expr(edges)
    }
    fn closure(edges: &Plan<Edge>) -> Plan<Self::Record> {
        wpinq_analyses::jdd::jdd_plan(edges)
    }
}

impl Query for Ccdf {
    type Record = u64;
    const MULTIPLICITY: u32 = 1;
    fn expr(edges: &Plan<Edge>) -> Plan<Self::Record> {
        wpinq_analyses::degree::degree_ccdf_plan_expr(edges)
    }
    fn closure(edges: &Plan<Edge>) -> Plan<Self::Record> {
        wpinq_analyses::degree::degree_ccdf_plan(edges)
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    pub epsilon: f64,
    pub columnar: bool,
    /// Index into the hot set, for a request that may be answered from the cache.
    pub hot: Option<usize>,
    /// Analyst 0 re-registers the dataset before sending this one.
    pub reregister: bool,
}

/// An analyst's request stream: a pure function of `(mode, seed, analyst, phase)`.
/// Phases keep the fresh ε values of set-up, replay and live traffic apart.
pub struct RequestStream {
    mode: Mode,
    reregister_every: u64,
    analyst: usize,
    phase: u64,
    rng: StdRng,
    k: u64,
}

/// Phase of the warm-up request of a cold workload.
pub const PHASE_WARMUP: u64 = 9;

impl RequestStream {
    pub fn new(spec: &Svc, seed: u64, analyst: usize, phase: u64) -> RequestStream {
        let stream_seed = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(analyst as u64 * 1_000_003 + phase * 7_919);
        RequestStream {
            mode: spec.mode,
            reregister_every: spec.reregister_every,
            analyst,
            phase,
            rng: StdRng::seed_from_u64(stream_seed),
            k: 0,
        }
    }

    /// The ε of hot-set entry `h`.
    pub fn hot_epsilon(h: usize) -> f64 {
        0.25 + h as f64 * 1e-3
    }

    /// A request for hot-set entry `h`, as priming sends it.
    pub fn hot_request(h: usize) -> Request {
        Request {
            epsilon: Self::hot_epsilon(h),
            columnar: h % 2 == 1,
            hot: Some(h),
            reregister: false,
        }
    }

    /// An ε no other request of this analyst carries: phases are 1e-3 apart and a phase
    /// never reaches a million requests.
    fn fresh_epsilon(&self, base: f64) -> f64 {
        base + self.phase as f64 * 1e-3 + (self.k + 1) as f64 * 1e-9
    }
}

impl Iterator for RequestStream {
    type Item = Request;

    fn next(&mut self) -> Option<Request> {
        let request = match self.mode {
            Mode::Cold => Request {
                epsilon: self.fresh_epsilon(0.5),
                columnar: false,
                hot: None,
                reregister: false,
            },
            Mode::Cached => Request {
                epsilon: 0.5,
                columnar: false,
                hot: Some(0),
                reregister: false,
            },
            Mode::Mixed => {
                let hot = (self.rng.gen::<f64>() < 0.8).then(|| self.rng.gen_range(0..HOT_SET));
                Request {
                    epsilon: hot.map_or_else(|| self.fresh_epsilon(1.0), Self::hot_epsilon),
                    columnar: self.k % 2 == 1,
                    hot,
                    reregister: self.analyst == 0
                        && self.reregister_every > 0
                        && self.k > 0
                        && self.k.is_multiple_of(self.reregister_every),
                }
            }
        };
        self.k += 1;
        Some(request)
    }
}

/// One request line as the transport carried it.
#[derive(Debug, Clone, Copy)]
pub struct RoundTrip {
    pub start: Instant,
    pub end: Instant,
    pub req_bytes: usize,
    pub resp_bytes: usize,
}

struct TapInner<T> {
    inner: T,
    logging: AtomicBool,
    last: Mutex<Option<RoundTrip>>,
}

/// A `Transport` wrapper with two jobs: it lets an analyst's JSON client and columnar
/// client share one connection (the server dedicates a worker per connection), and, when
/// switched on for the traced run, it times and sizes every round trip — which splits
/// a client call into encode / round trip / decode from outside the client.
pub struct Tap<T>(Arc<TapInner<T>>);

impl<T> Clone for Tap<T> {
    fn clone(&self) -> Self {
        Tap(self.0.clone())
    }
}

impl<T> Tap<T> {
    pub fn new(inner: T) -> Tap<T> {
        Tap(Arc::new(TapInner {
            inner,
            logging: AtomicBool::new(false),
            last: Mutex::new(None),
        }))
    }

    pub fn set_logging(&self, on: bool) {
        // A statistic switch: it publishes no other data.
        self.0.logging.store(on, Ordering::Relaxed);
    }

    /// Removes and returns the latest round trip, when the tap logged one.
    pub fn take_last(&self) -> Option<RoundTrip> {
        self.0.last.lock().expect("tap poisoned").take()
    }
}

impl<T: Transport> Transport for Tap<T> {
    fn roundtrip(&self, request_line: &str) -> Result<String, ClientError> {
        if !self.0.logging.load(Ordering::Relaxed) {
            return self.0.inner.roundtrip(request_line);
        }
        let start = Instant::now();
        let result = self.0.inner.roundtrip(request_line);
        let end = Instant::now();
        *self.0.last.lock().expect("tap poisoned") = Some(RoundTrip {
            start,
            end,
            req_bytes: request_line.len(),
            resp_bytes: result.as_ref().map_or(0, String::len),
        });
        result
    }
}

/// The server side of one set-up, shared by the analyst threads.
pub struct Bench<Q: Query> {
    pub spec: &'static Svc,
    pub seed: u64,
    pub dataset: WeightedDataset<Edge>,
    pub service: Arc<MeasurementService>,
    pub executor: Arc<dyn Executor>,
    pub server: ServerHandle,
    pub plan_spec: PlanSpec,
    pub graph_edges: usize,
    _query: PhantomData<Q>,
}

/// A decoded release.
type Records<Q> = Vec<(<Q as Query>::Record, f64)>;

/// One analyst: its clients, what it has seen, and the checks on every reply.
pub struct Analyst<Q: Query, T: Transport> {
    pub index: usize,
    pub name: String,
    pub tap: Tap<T>,
    json: Client<Tap<T>>,
    columnar: Client<Tap<T>>,
    /// The grant's `remaining` as of the last reply.
    remaining: f64,
    /// Σ of the charges this analyst's replies accounted for.
    spent: f64,
    /// The primed reply every `svc-cached` repeat must equal byte for byte.
    prime_raw: Option<String>,
    /// The records of each hot entry's latest evaluation (`svc-mixed`).
    hot: Vec<Option<Records<Q>>>,
    pub latencies_ms: Vec<f64>,
    pub checks: Checks,
}

impl<Q: Query, T: Transport> Analyst<Q, T> {
    /// The load analyst `analyst-{index}`.
    pub fn new(index: usize, transport: T) -> Analyst<Q, T> {
        Analyst::named(index, &format!("analyst-{index}"), transport)
    }

    /// An analyst that sends stream `index` under the identity `name`.
    pub fn named(index: usize, name: &str, transport: T) -> Analyst<Q, T> {
        let name = name.to_string();
        let tap = Tap::new(transport);
        Analyst {
            index,
            json: Client::new(tap.clone(), name.clone()),
            columnar: Client::new(tap.clone(), name.clone())
                .with_encoding(ResponseEncoding::Columnar),
            name,
            tap,
            remaining: GRANT,
            spent: 0.0,
            prime_raw: None,
            hot: (0..HOT_SET).map(|_| None).collect(),
            latencies_ms: Vec::new(),
            checks: Checks::default(),
        }
    }

    /// Sends one request, records its latency (and, in the traced run, its spans) and
    /// checks the reply. Returns the round trip as the tap logged it, when it is logging.
    pub fn issue(
        &mut self,
        bench: &Bench<Q>,
        request: &Request,
        request_no: u64,
        recorder: Option<&mut Recorder>,
    ) -> Option<RoundTrip> {
        let client = if request.columnar {
            &self.columnar
        } else {
            &self.json
        };
        let spec = bench.plan_spec.clone();
        let id = (bench.spec.mode == Mode::Cached).then(|| "bench".to_string());
        let start = Instant::now();
        let reply = client.measure_spec_with_id::<Q::Record>(spec, request.epsilon, id);
        let end = Instant::now();
        self.latencies_ms.push((end - start).as_secs_f64() * 1e3);
        let trip = self.tap.take_last();
        if let (Some(recorder), Some(trip)) = (recorder, trip) {
            let call = recorder.interval("client.call", request_no, None, start, end);
            recorder.interval("client.encode", request_no, Some(call), start, trip.start);
            recorder.interval(
                "transport.roundtrip",
                request_no,
                Some(call),
                trip.start,
                trip.end,
            );
            recorder.interval("client.decode", request_no, Some(call), trip.end, end);
        }
        self.verify(bench.spec.mode, request, reply);
        trip
    }

    /// The per-reply checks. Every reply quotes the grant's live `remaining`, and only
    /// this analyst spends from this grant, so the difference to the previous reply is
    /// what this request was charged: exactly `multiplicity × ε` for an evaluation,
    /// exactly nothing for a replay.
    fn verify(
        &mut self,
        mode: Mode,
        request: &Request,
        reply: Result<TypedRelease<Q::Record>, ClientError>,
    ) {
        let release = match reply {
            Ok(release) => release,
            Err(error) => {
                let name = &self.name;
                self.checks
                    .check(false, || format!("{name}: request failed: {error}"));
                return;
            }
        };
        let cost = f64::from(Q::MULTIPLICITY) * request.epsilon;
        let now = release.remaining.first().map_or(f64::NAN, |(_, r)| *r);
        let charged = self.remaining - now;
        self.remaining = now;
        let paid = (charged - cost).abs() < EPS_TOLERANCE;
        let free = charged.abs() < EPS_TOLERANCE;
        let quoted = matches!(release.charged.as_slice(),
            [(dataset, eps)] if dataset == DATASET && (eps - cost).abs() < EPS_TOLERANCE);
        let ok = quoted
            && !release.records.is_empty()
            && match (mode, request.hot) {
                (Mode::Cold, _) | (Mode::Mixed, None) => paid,
                (Mode::Cached, _) => match &self.prime_raw {
                    None => paid,
                    Some(prime) => free && *prime == release.raw,
                },
                (Mode::Mixed, Some(h)) => {
                    if free {
                        self.hot[h].as_ref() == Some(&release.records)
                    } else {
                        paid
                    }
                }
            };
        if paid {
            self.spent += cost;
            match (mode, request.hot) {
                (Mode::Cached, _) => self.prime_raw = Some(release.raw),
                (Mode::Mixed, Some(h)) => self.hot[h] = Some(release.records),
                _ => {}
            }
        }
        let name = &self.name;
        self.checks.check(ok, || {
            format!(
                "{name}: reply to {request:?} charged {charged} (expected {cost} or 0), \
                 quoted {:?}",
                release.charged
            )
        });
    }

    /// Σ ε the service actually debited this analyst must equal what its replies
    /// accounted for.
    pub fn check_ledger(&mut self, service: &MeasurementService) {
        let debited = GRANT - service.remaining(&self.name, DATASET).unwrap_or(f64::NAN);
        let (name, spent) = (&self.name, self.spent);
        self.checks
            .check((debited - spent).abs() < EPS_TOLERANCE, || {
                format!("{name}: service debited {debited}, replies accounted for {spent}")
            });
    }

    /// ε this analyst's replies accounted for so far.
    pub fn spent(&self) -> f64 {
        self.spent
    }
}

/// Span request numbers: analyst, phase and position packed into one integer.
pub fn request_no(analyst: usize, phase: u64, k: u64) -> u64 {
    ((analyst as u64) << 48) | (phase << 40) | k
}

/// Builds everything from the seed: the graph, the service as `--listen` builds it, the
/// grants, the TCP server, the analysts' clients, and the priming requests (the warm-up
/// of a cold workload, the single primed request of a cached one, the hot sets of a
/// mixed one). `extra_analysts` adds granted identities beyond the load threads.
pub fn setup<Q: Query>(spec: &'static Svc, seed: u64) -> (Bench<Q>, Vec<Analyst<Q, Tcp>>) {
    let graph = secret_graph(spec.nodes, spec.papers);
    let dataset = symmetric_edge_dataset(&graph);
    let executor = executor_for_threads(available_threads());
    let mut service = MeasurementService::new()
        .with_executor(executor.clone())
        .with_noise_seed(seed);
    if let Some(capacity) = spec.cache_capacity {
        service = service.with_cache_capacity(capacity);
    }
    let service = Arc::new(service);
    service
        .register(DATASET, &dataset)
        .expect("the edge dataset registers");
    let analysts = spec.analysts.min(available_threads()).max(1);
    for index in 0..analysts {
        service
            .grant(
                &format!("analyst-{index}"),
                DATASET,
                PrivacyBudget::new(GRANT),
            )
            .expect("grant on a registered dataset");
    }
    let server = serve_tcp(service.clone(), "127.0.0.1:0", available_threads().max(2))
        .expect("loopback server starts");
    let addr = server.local_addr().to_string();
    let plan_spec = Q::expr(&Plan::<Edge>::source_expr(DATASET))
        .to_spec()
        .expect("expression plans serialize");
    let bench = Bench {
        spec,
        seed,
        dataset,
        service,
        executor,
        server,
        plan_spec,
        graph_edges: graph.num_edges(),
        _query: PhantomData,
    };
    let mut analysts: Vec<Analyst<Q, Tcp>> = (0..analysts)
        .map(|index| Analyst::new(index, Tcp::new(addr.clone())))
        .collect();
    for analyst in &mut analysts {
        prime(&bench, analyst);
    }
    (bench, analysts)
}

/// Sends an analyst's priming requests.
pub fn prime<Q: Query, T: Transport>(bench: &Bench<Q>, analyst: &mut Analyst<Q, T>) {
    let index = analyst.index;
    match bench.spec.mode {
        Mode::Cold | Mode::Cached => {
            let first = RequestStream::new(bench.spec, bench.seed, index, PHASE_WARMUP)
                .next()
                .expect("streams are endless");
            analyst.issue(bench, &first, request_no(index, PHASE_WARMUP, 0), None);
        }
        Mode::Mixed => {
            for h in 0..HOT_SET {
                let request = RequestStream::hot_request(h);
                analyst.issue(
                    bench,
                    &request,
                    request_no(index, PHASE_WARMUP, h as u64),
                    None,
                );
            }
        }
    }
    analyst.latencies_ms.clear();
}

/// Stops the server after the analysts' connections are gone (a worker serves one
/// connection until it closes).
pub fn teardown<Q: Query>(bench: Bench<Q>, analysts: Vec<Analyst<Q, Tcp>>) -> Checks {
    let mut checks = Checks::default();
    for analyst in analysts {
        checks.absorb(analyst.checks);
    }
    bench.server.shutdown();
    checks
}

/// The closed loop: every analyst thread sends requests of its `phase` stream until
/// `duration` has passed. Returns the wall seconds from the common start to the last
/// thread's end, and the threads' recorders when `traced`.
pub fn live<Q: Query>(
    bench: &Bench<Q>,
    analysts: &mut [Analyst<Q, Tcp>],
    phase: u64,
    duration: Duration,
    traced: Option<Instant>,
) -> (f64, Vec<Recorder>) {
    let start = Instant::now();
    let deadline = start + duration;
    let recorders = std::thread::scope(|scope| {
        let threads: Vec<_> = analysts
            .iter_mut()
            .map(|analyst| {
                scope.spawn(move || {
                    let mut recorder = traced.map(Recorder::new);
                    analyst.tap.set_logging(traced.is_some());
                    let stream = RequestStream::new(bench.spec, bench.seed, analyst.index, phase);
                    for (k, request) in stream.enumerate() {
                        if Instant::now() >= deadline {
                            break;
                        }
                        if request.reregister {
                            bench
                                .service
                                .register(DATASET, &bench.dataset)
                                .expect("the edge dataset re-registers");
                        }
                        let number = request_no(analyst.index, phase, k as u64);
                        analyst.issue(bench, &request, number, recorder.as_mut());
                    }
                    analyst.tap.set_logging(false);
                    recorder
                })
            })
            .collect();
        threads
            .into_iter()
            .filter_map(|t| t.join().expect("analyst thread"))
            .collect()
    });
    (start.elapsed().as_secs_f64(), recorders)
}

/// The timed (untraced) run of a service workload.
pub fn run<Q: Query>(spec: &'static Svc, seed: u64, seconds: f64) -> Outcome {
    let mut outcome = Outcome::default();
    let started = Instant::now();
    let (bench, mut analysts) = setup::<Q>(spec, seed);
    let mut setups = vec![started.elapsed().as_secs_f64()];

    let stats_before = bench.service.cache_stats();
    let (wall, _) = live(
        &bench,
        &mut analysts,
        0,
        Duration::from_secs_f64(seconds),
        None,
    );
    let stats_after = bench.service.cache_stats();

    let failed_replies: u64 = analysts.iter().map(|a| a.checks.failed).sum();
    let mut latencies = Vec::new();
    for analyst in &mut analysts {
        analyst.check_ledger(&bench.service);
        latencies.extend_from_slice(&analyst.latencies_ms);
    }
    let requests = latencies.len() as u64;
    let hits = stats_after.hits - stats_before.hits;
    let misses = stats_after.misses - stats_before.misses;
    match spec.mode {
        // Exact, because the workloads are built so: nothing repeats in a cold stream
        // and nothing but the primed request is ever sent in a cached one.
        Mode::Cold => outcome.checks.check(hits == 0 && misses == requests, || {
            format!("cold run: {hits} hits, {misses} misses for {requests} requests")
        }),
        Mode::Cached => outcome.checks.check(misses == 0 && hits == requests, || {
            format!("cached run: {hits} hits, {misses} misses for {requests} requests")
        }),
        Mode::Mixed => outcome.checks.check(hits + misses == requests, || {
            format!("mixed run: {hits} hits + {misses} misses for {requests} requests")
        }),
    }

    let per_analyst: Vec<Json> = analysts
        .iter()
        .map(|a| Json::num(a.latencies_ms.len()))
        .collect();
    let spent: f64 = analysts.iter().map(Analyst::spent).sum();
    let evictions = stats_after.evictions - stats_before.evictions;
    let (executor, shards) = (bench.executor.name(), bench.executor.shard_count());
    let (nodes, edges) = (spec.nodes, bench.graph_edges);
    let peak_rss_mb = sys::peak_rss_mb();
    outcome.checks.absorb(teardown(bench, analysts));

    // The remaining set-ups come after the measurement: memory a torn-down set-up
    // leaves in the allocator's arenas would otherwise be part of the run's peak RSS,
    // and which arena it lands in differs from run to run.
    while setups.len() < SETUP_REPEATS {
        let started = Instant::now();
        let (bench, analysts) = setup::<Q>(spec, seed);
        setups.push(started.elapsed().as_secs_f64());
        outcome.checks.absorb(teardown(bench, analysts));
    }

    outcome.end_to_end(
        "Client::measure_spec_with_id over Tcp",
        setups,
        requests - failed_replies.min(requests),
        wall,
        latencies,
        peak_rss_mb,
    );
    outcome.note("samples_per_analyst", Json::Arr(per_analyst));
    outcome.note("graph_nodes", Json::num(nodes));
    outcome.note("graph_edges", Json::num(edges));
    outcome.note(
        "service_executor",
        Json::str(format!("{executor} x{shards}")),
    );
    outcome.note("server_workers", Json::num(available_threads().max(2)));
    outcome.note("cache_hits", Json::num(hits));
    outcome.note("cache_misses", Json::num(misses));
    outcome.note("cache_evictions", Json::num(evictions));
    outcome.note("eps_charged", Json::f64(spent));
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIXED: Svc = Svc {
        analysts: 2,
        nodes: 10,
        papers: 5,
        mode: Mode::Mixed,
        cache_capacity: None,
        reregister_every: 100,
        replay_requests: 0,
    };

    #[test]
    fn request_streams_are_a_function_of_seed_analyst_and_phase() {
        let take = |seed, analyst, phase| -> Vec<Request> {
            RequestStream::new(&MIXED, seed, analyst, phase)
                .take(500)
                .collect()
        };
        assert_eq!(take(7, 0, 0), take(7, 0, 0));
        assert_ne!(take(7, 0, 0), take(8, 0, 0));
        assert_ne!(take(7, 0, 0), take(7, 1, 0));
        assert_ne!(take(7, 0, 0), take(7, 0, 1));
    }

    #[test]
    fn mixed_streams_have_the_stated_shape() {
        let requests: Vec<Request> = RequestStream::new(&MIXED, 3, 0, 0).take(4000).collect();
        let hot = requests.iter().filter(|r| r.hot.is_some()).count();
        assert!((3000..3400).contains(&hot), "{hot} of 4000 are hot picks");
        for (k, r) in requests.iter().enumerate() {
            assert_eq!(r.columnar, k % 2 == 1);
            assert_eq!(r.reregister, k > 0 && k % 100 == 0);
            match r.hot {
                Some(h) => assert_eq!(r.epsilon, RequestStream::hot_epsilon(h)),
                None => assert!(r.epsilon > 1.0 && r.epsilon < 1.001),
            }
        }
        // Fresh requests never share an ε, within a phase or across phases.
        let mut fresh: Vec<u64> = requests
            .iter()
            .chain(
                RequestStream::new(&MIXED, 3, 0, 1)
                    .take(4000)
                    .collect::<Vec<_>>()
                    .iter(),
            )
            .filter(|r| r.hot.is_none())
            .map(|r| r.epsilon.to_bits())
            .collect();
        let n = fresh.len();
        fresh.sort_unstable();
        fresh.dedup();
        assert_eq!(fresh.len(), n);
        // Only analyst 0 re-registers.
        assert!(RequestStream::new(&MIXED, 3, 1, 0)
            .take(1000)
            .all(|r| !r.reregister));
    }

    #[test]
    fn cold_streams_never_repeat_and_cached_streams_always_do() {
        let cold = Svc {
            mode: Mode::Cold,
            ..MIXED
        };
        let mut eps: Vec<u64> = RequestStream::new(&cold, 1, 0, 0)
            .take(1000)
            .chain(RequestStream::new(&cold, 1, 0, PHASE_WARMUP).take(1000))
            .map(|r| r.epsilon.to_bits())
            .collect();
        eps.sort_unstable();
        eps.dedup();
        assert_eq!(eps.len(), 2000);

        let cached = Svc {
            mode: Mode::Cached,
            ..MIXED
        };
        assert!(RequestStream::new(&cached, 1, 0, 0)
            .take(100)
            .all(|r| r.epsilon == 0.5 && r.hot == Some(0)));
    }
}
