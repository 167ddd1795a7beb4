//! The traced run of a service workload. Tracing is off in the program throughout: the
//! harness records its own spans around calls into each layer's public functions.
//!
//! Four parts. A fixed-length single-threaded **replay** of analyst 0's stream through
//! the in-process transport gives the counts that repeat exactly per seed. Two short
//! **live** loops over TCP, one plain and one through the timing transport wrapper,
//! split a client call into encode / round trip / decode and price the wrapper itself.
//! The **probes** then walk the server half of a request step by step, in process,
//! with the release checked against the product's `handle_json` under the same seeded
//! noise; and measure the same request line through `handle_line`, a raw socket client
//! and the product's `Tcp`, whose differences are the transport layers.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;
use wpinq::budget::AnalystBudgets;
use wpinq::plan::{plan_from_spec, DynPlan, Executor, OptimizeLevel, SequentialExecutor};
use wpinq::{NoisyCounts, Plan, PlanBindings, PlanSpec, PrivacyBudget, Value, WeightedDataset};
use wpinq_analyses::edges::Edge;
use wpinq_core::column::ColumnBatch;
use wpinq_expr::Json;
use wpinq_service::{
    InProcess, MeasureRequest, MeasureResponse, MeasurementCache, ResponseEncoding, Tcp, Transport,
    DEFAULT_CACHE_CAPACITY,
};

use crate::report::{Checks, Outcome};
use crate::spans::Recorder;
use crate::stats;
use crate::svc::{
    live, prime, request_no, setup, Analyst, Bench, Mode, Query, RequestStream, Svc, DATASET,
    GRANT, PHASE_WARMUP,
};
use crate::sys;

const PHASE_REPLAY: u64 = 3;
/// Live slices: odd phases run plain, even ones through the timing wrapper.
const LIVE_PHASES: [u64; 4] = [1, 2, 5, 6];
/// The analyst whose grant the probes spend from.
const PROBE_ANALYST: &str = "analyst-0";

/// The shape of the service's (private) cache key: analyst, ε bits, canonical optimized
/// plan, dataset generations.
type CacheKey = (String, u64, String, Vec<(String, u64)>);

/// A newline-framed client with a buffered reader: what `Tcp` would cost if it read
/// its reply in blocks. The difference to `Tcp` is the product client's read loop.
struct RawClient {
    reader: BufReader<TcpStream>,
}

impl RawClient {
    fn connect(addr: std::net::SocketAddr) -> std::io::Result<RawClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(RawClient {
            reader: BufReader::with_capacity(64 * 1024, stream),
        })
    }

    fn roundtrip(&mut self, line: &str) -> std::io::Result<String> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        let stream = self.reader.get_mut();
        stream.write_all(&framed)?;
        stream.flush()?;
        let mut reply = String::new();
        self.reader.read_line(&mut reply)?;
        if reply.pop() != Some('\n') {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(reply)
    }
}

/// Calls `f` in a span until `budget` has passed (at least three times, at most `max`)
/// and returns each call's microseconds.
fn sample(
    recorder: &mut Recorder,
    name: &'static str,
    budget: Duration,
    max: usize,
    mut f: impl FnMut(u64),
) -> Vec<f64> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < max && (out.len() < 3 || start.elapsed() < budget) {
        let i = out.len() as u64;
        let (_, us) = recorder.time(name, i, || f(i));
        out.push(us);
    }
    out
}

/// A plan rebuilt from its wire form and bound to the dynamic edge records: the state
/// the service is in after validate and bind.
struct Bound {
    plan: Plan<Value>,
    bindings: PlanBindings,
}

fn bind(spec: &PlanSpec, values: &Arc<WeightedDataset<Value>>) -> Bound {
    let DynPlan { plan, sources } = plan_from_spec(spec).expect("the plan validates");
    let mut bindings = PlanBindings::new();
    for source in &sources {
        bindings.bind_shared(&source.plan, values.clone());
    }
    Bound { plan, bindings }
}

impl Bound {
    fn eval(&self, executor: &dyn Executor) -> Arc<WeightedDataset<Value>> {
        self.plan.eval_shared_with(&self.bindings, executor)
    }
}

/// Everything the probes share.
struct Probes<'a, Q: Query> {
    bench: &'a Bench<Q>,
    recorder: &'a mut Recorder,
    checks: Checks,
    /// One fiftieth of the run: probes are budgeted in these.
    unit: Duration,
    values: Arc<WeightedDataset<Value>>,
    /// A request whose key is resident in the service's cache.
    hit: MeasureRequest,
    next_miss: u64,
}

impl<Q: Query> Probes<'_, Q> {
    fn budget(&self, units: f64) -> Duration {
        self.unit.mul_f64(units)
    }

    /// A request no one has sent before: it evaluates and pays.
    fn miss(&mut self) -> MeasureRequest {
        self.next_miss += 1;
        MeasureRequest {
            epsilon: 2.0 + self.next_miss as f64 * 1e-9,
            id: None,
            encoding: ResponseEncoding::Json,
            ..self.hit.clone()
        }
    }

    fn dominant_is_hit(&self) -> bool {
        self.bench.spec.mode != Mode::Cold
    }

    /// `handle_line` on the workload's dominant kind of request, with the program's own
    /// tracing off and on: the whole server half as one number, what tracing costs on
    /// top of it, and how much of the wall time the program's own spans account for.
    fn front_door(&mut self, outcome: &mut Outcome) -> f64 {
        let service = self.bench.service.clone();
        let hit_dominant = self.dominant_is_hit();
        let (mut plain, mut traced, mut span_share) = (Vec::new(), Vec::new(), Vec::new());
        let budget = self.budget(5.0);
        let start = Instant::now();
        while plain.len() < 3 || (start.elapsed() < budget && plain.len() < 400) {
            let i = plain.len() as u64;
            let request = if hit_dominant {
                self.hit.clone()
            } else {
                self.miss()
            };
            let line = request.to_json_string();
            let (reply, us) = self
                .recorder
                .time("service.handle_line", i, || service.handle_line(&line));
            self.checks.check(reply.starts_with("{\"ok\":true"), || {
                format!("handle_line refused a probe: {reply}")
            });
            plain.push(us);

            let request = MeasureRequest {
                trace: true,
                ..if hit_dominant {
                    self.hit.clone()
                } else {
                    self.miss()
                }
            };
            let line = request.to_json_string();
            let (reply, us) = self.recorder.time("service.handle_line_traced", i, || {
                service.handle_line(&line)
            });
            traced.push(us);
            let spans_us: f64 = Json::parse(&reply)
                .ok()
                .as_ref()
                .and_then(|json| json.get("trace")?.get("spans")?.as_arr())
                .map_or(0.0, |spans| {
                    spans
                        .iter()
                        .filter(|s| s.get("parent") == Some(&Json::Null))
                        .filter_map(|s| s.get("dur_us")?.as_f64())
                        .sum()
                });
            span_share.push(spans_us / us);
        }
        let handle_line_us = stats::median(plain);
        outcome.metric("service.handle_line_us", handle_line_us);
        outcome.metric(
            "telemetry.traced_over_untraced",
            stats::median(traced) / handle_line_us,
        );
        outcome.metric("telemetry.span_sum_share", stats::median(span_share));
        handle_line_us
    }

    /// The same resident request line through `handle_line`, a buffered raw client and
    /// the product's `Tcp`, in rotation so that drift hits all three alike.
    fn transport(&mut self, outcome: &mut Outcome) {
        let service = self.bench.service.clone();
        let addr = self.bench.server.local_addr();
        let line = self.hit.to_json_string();
        let mut raw = RawClient::connect(addr).expect("loopback connect");
        let tcp = Tcp::new(addr.to_string());
        let (mut direct_us, mut raw_us, mut tcp_us) = (Vec::new(), Vec::new(), Vec::new());
        let budget = self.budget(6.0);
        let start = Instant::now();
        while direct_us.len() < 3 || (start.elapsed() < budget && direct_us.len() < 400) {
            let i = direct_us.len() as u64;
            let (direct, us) = self
                .recorder
                .time("transport.in_process", i, || service.handle_line(&line));
            direct_us.push(us);
            let (via_raw, us) = self
                .recorder
                .time("transport.raw_client", i, || raw.roundtrip(&line));
            raw_us.push(us);
            let (via_tcp, us) = self
                .recorder
                .time("transport.tcp_client", i, || tcp.roundtrip(&line));
            tcp_us.push(us);
            let same =
                via_raw.as_ref().ok() == Some(&direct) && via_tcp.as_ref().ok() == Some(&direct);
            self.checks.check(same, || {
                "the three transports returned different bytes for one resident request".into()
            });
        }
        let (direct, raw, tcp) = (
            stats::median(direct_us),
            stats::median(raw_us),
            stats::median(tcp_us),
        );
        outcome.metric("transport.tcp_overhead_us", tcp - direct);
        outcome.metric("transport.client_read_us", tcp - raw);
        outcome.metric("transport.server_us", raw - direct);
    }

    /// The server half of a request, one public call at a time, as children of one
    /// `service.replay` span. A hit stops at the cache; a miss reserves, evaluates,
    /// draws noise, commits and encodes — and must release what `handle_json` releases
    /// from the same noise seed. Returns the sum of the step medians.
    fn replay(&mut self, hit: bool, outcome: &mut Outcome) -> f64 {
        let level = OptimizeLevel::from_env();
        let executor = self.bench.executor.clone();
        let budgets = AnalystBudgets::new();
        budgets.grant(PROBE_ANALYST, DATASET, PrivacyBudget::new(GRANT));
        let cache: MeasurementCache<CacheKey, Arc<MeasureResponse>> =
            MeasurementCache::with_capacity(DEFAULT_CACHE_CAPACITY);
        let resident = self
            .bench
            .service
            .serve(&self.hit)
            .expect("the resident request is served");
        let generations = vec![(DATASET.to_string(), 0u64)];

        let (root_name, budget, max) = if hit {
            ("service.replay_hit", self.budget(4.0), 400)
        } else {
            ("service.replay_miss", self.budget(9.0), 40)
        };
        let first_span = self.recorder.spans().len();
        let start = Instant::now();
        let mut rounds = 0u64;
        let mut nodes = (0usize, 0usize);
        let mut released_records = 0usize;
        while rounds < 3 || (start.elapsed() < budget && rounds < max) {
            let request = if hit { self.hit.clone() } else { self.miss() };
            let line = request.to_json_string();
            let noise_seed = self.bench.seed ^ rounds;
            let expected = (!hit).then(|| {
                self.bench
                    .service
                    .handle_json(&line, &mut StdRng::seed_from_u64(noise_seed))
            });

            let rec = &mut *self.recorder;
            let root = rec.enter(root_name, rounds);
            let (request, _) = rec.time("service.decode", rounds, || {
                MeasureRequest::from_json(&line).expect("the probe's own line parses")
            });
            let ((output_type, dynamic), _) = rec.time("plan.validate", rounds, || {
                (
                    request.spec.output_type().expect("the plan type-checks"),
                    plan_from_spec(&request.spec).expect("the plan validates"),
                )
            });
            let (bindings, _) = rec.time("plan.bind", rounds, || {
                let mut bindings = PlanBindings::new();
                for source in &dynamic.sources {
                    bindings.bind_shared(&source.plan, self.values.clone());
                }
                bindings
            });
            let (optimized, _) = rec.time("plan.optimize", rounds, || {
                dynamic.plan.optimize_for_bindings(level, &bindings)
            });
            let (canonical, _) = rec.time("expr.spec_to_json", rounds, || {
                optimized
                    .to_spec()
                    .expect("expression plans serialize")
                    .to_json_string()
            });
            nodes = (dynamic.plan.node_count(), optimized.node_count());
            let multiplicity: u32 = optimized.multiplicities().values().sum();
            let cost = f64::from(multiplicity) * request.epsilon;
            let key = (
                request.analyst.clone(),
                request.epsilon.to_bits(),
                canonical,
                generations.clone(),
            );

            let response = if hit {
                if rounds == 0 {
                    let _ = cache.get_or_compute::<()>(key.clone(), || Ok(resident.clone()));
                }
                let (found, _) = rec.time("cache.lookup", rounds, || {
                    cache.get_or_compute::<()>(key, || Ok(resident.clone()))
                });
                found.expect("infallible compute").0
            } else {
                let (reservation, _) = rec.time("budget.reserve", rounds, || {
                    budgets
                        .lookup(&request.analyst, DATASET)
                        .expect("the probe analyst holds a grant")
                        .reserve(cost)
                        .expect("the grant affords a probe")
                });
                let (data, _) = rec.time("plan.execute", rounds, || {
                    optimized.eval_shared_opt(&bindings, &*executor, OptimizeLevel::None)
                });
                let (release, _) = rec.time("core.noise_release", rounds, || {
                    let mut rng = StdRng::seed_from_u64(noise_seed);
                    NoisyCounts::measure(&data, request.epsilon, &mut rng).sorted_observed()
                });
                let (remaining, _) = rec.time("budget.commit", rounds, || {
                    let handle = reservation.handle().clone();
                    reservation.commit();
                    handle.remaining()
                });
                released_records = release.len();
                Arc::new(MeasureResponse {
                    epsilon: request.epsilon,
                    output_type,
                    release,
                    charged: vec![(DATASET.to_string(), cost)],
                    remaining: vec![(DATASET.to_string(), remaining)],
                    explain: String::new(),
                })
            };
            let (envelope, _) = rec.time("service.encode", rounds, || {
                response
                    .to_json_envelope(request.id.as_deref(), None, None, request.encoding)
                    .to_compact()
            });
            rec.exit(root);

            self.checks.check(multiplicity == Q::MULTIPLICITY, || {
                format!("the optimized plan uses the edges {multiplicity} times")
            });
            if let Some(expected) = expected {
                let field = |text: &str, key: &str| {
                    Json::parse(text)
                        .ok()
                        .and_then(|json| json.get(key).map(Json::to_compact))
                };
                let same = ["release", "charged", "epsilon", "output_type"]
                    .iter()
                    .all(|key| {
                        let ours = field(&envelope, key);
                        ours.is_some() && ours == field(&expected, key)
                    });
                self.checks.check(same, || {
                    "the step-by-step replay released other bytes than handle_json".into()
                });
            }
            rounds += 1;
        }

        // Medians of this replay's steps only: the other kind of replay shares the names.
        let steps: &[&'static str] = if hit {
            &[
                "service.decode",
                "plan.validate",
                "plan.bind",
                "plan.optimize",
                "expr.spec_to_json",
                "cache.lookup",
                "service.encode",
            ]
        } else {
            &[
                "service.decode",
                "plan.validate",
                "plan.bind",
                "plan.optimize",
                "expr.spec_to_json",
                "budget.reserve",
                "plan.execute",
                "core.noise_release",
                "budget.commit",
                "service.encode",
            ]
        };
        let median = |name: &str| {
            stats::median(
                self.recorder.spans()[first_span..]
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.duration_ns() as f64 / 1e3)
                    .collect(),
            )
        };
        let attributed: f64 = steps.iter().map(|name| median(name)).sum();
        if hit == self.dominant_is_hit() {
            outcome.metric("service.decode_us", median("service.decode"));
            outcome.metric("plan.validate_us", median("plan.validate"));
            outcome.metric("plan.bind_us", median("plan.bind"));
            outcome.metric("plan.optimize_us", median("plan.optimize"));
            outcome.metric("expr.spec_to_json_us", median("expr.spec_to_json"));
            outcome.metric("plan.nodes_before", nodes.0 as f64);
            outcome.metric("plan.nodes_after", nodes.1 as f64);
        }
        if hit {
            outcome.metric("cache.lookup_us", median("cache.lookup"));
        } else {
            outcome.metric("plan.execute_us", median("plan.execute"));
            outcome.metric("core.noise_release_us", median("core.noise_release"));
            outcome.metric("core.release_records", released_records as f64);
            outcome.metric(
                "budget.reserve_commit_us",
                median("budget.reserve") + median("budget.commit"),
            );
        }
        attributed
    }

    /// The pieces of the hit path the replay does not separate, each on its own.
    fn hit_path(&mut self, outcome: &mut Outcome) {
        let service = self.bench.service.clone();
        let hit = self.hit.clone();
        let line = hit.to_json_string();
        let response = service.serve(&hit).expect("the resident request is served");
        let budget = self.budget(1.0);
        let serve = sample(self.recorder, "service.serve_hit", budget, 400, |_| {
            service.serve(&hit).expect("the resident request is served");
        });
        let encode = |encoding| {
            let response = response.clone();
            move |_| {
                response
                    .to_json_envelope(Some("bench"), None, None, encoding)
                    .to_compact();
            }
        };
        let json = sample(
            self.recorder,
            "service.encode_json",
            budget,
            400,
            encode(ResponseEncoding::Json),
        );
        let colwire = sample(
            self.recorder,
            "service.encode_colwire",
            budget,
            400,
            encode(ResponseEncoding::Columnar),
        );
        let parse = sample(self.recorder, "expr.json_parse", budget, 400, |_| {
            Json::parse(&line).expect("the probe's own line parses");
        });
        outcome.metric("service.serve_hit_us", stats::median(serve));
        outcome.metric("service.encode_json_us", stats::median(json));
        outcome.metric("service.encode_colwire_us", stats::median(colwire));
        outcome.metric("expr.json_parse_us", stats::median(parse));

        let release_batch = ColumnBatch::from_pairs(
            response.output_type.clone(),
            response
                .release
                .iter()
                .map(|(record, count)| (record, *count)),
        )
        .expect("release records share one type");
        let values = self.values.clone();
        let convert = sample(self.recorder, "core.column_convert", budget, 200, |_| {
            ColumnBatch::from_dataset(&values)
                .expect("edge records share one type")
                .to_pairs();
        });
        let encode = sample(self.recorder, "core.colwire_encode", budget, 400, |_| {
            wpinq_core::colwire::encode_batch(&release_batch);
        });
        outcome.metric("core.column_convert_us", stats::median(convert));
        outcome.metric("core.colwire_encode_us", stats::median(encode));
    }

    /// The same query evaluated other ways: sequentially, as typed closures, and — where
    /// the query has public sub-plans — stage by stage.
    fn execute_variants(&mut self, outcome: &mut Outcome) {
        let executor = self.bench.executor.clone();
        let bound = bind(&self.bench.plan_spec, &self.values);
        let budget = self.budget(2.0);
        let sequential = sample(self.recorder, "plan.execute_seq", budget, 100, |_| {
            bound.eval(&SequentialExecutor);
        });
        outcome.metric("plan.execute_seq_us", stats::median(sequential));

        let source = Plan::<Edge>::source();
        let typed = Q::closure(&source);
        let mut bindings = PlanBindings::new();
        bindings.bind(&source, self.bench.dataset.clone());
        let closure = sample(self.recorder, "plan.execute_closure", budget, 100, |_| {
            typed.eval_shared_with(&bindings, &*executor);
        });
        outcome.metric("plan.execute_closure_us", stats::median(closure));

        let stages = Q::stages(&Plan::<Edge>::source_expr(DATASET));
        if stages.is_empty() {
            return;
        }
        let mut stage_us = Vec::new();
        for (name, spec) in &stages {
            let bound = bind(spec, &self.values);
            let span = match *name {
                "degrees" => "plan.stage.degrees",
                "paths" => "plan.stage.paths",
                _ => "plan.stage.annotated",
            };
            let us = sample(self.recorder, span, self.budget(1.5), 50, |_| {
                bound.eval(&*executor);
            });
            stage_us.push(stats::median(us));
        }
        let whole = sample(
            self.recorder,
            "plan.stage.whole",
            self.budget(2.0),
            50,
            |_| {
                bound.eval(&*executor);
            },
        );
        // Each later plan contains the earlier ones, so the differences are the stages.
        let (degrees, paths, annotated) = (stage_us[0], stage_us[1], stage_us[2]);
        outcome.metric("plan.stage_degrees_us", degrees);
        outcome.metric("plan.stage_paths_us", paths);
        outcome.metric(
            "plan.stage_annotate_us",
            (annotated - degrees - paths).max(0.0),
        );
        outcome.metric(
            "plan.stage_final_us",
            (stats::median(whole) - annotated).max(0.0),
        );
    }
}

/// The request every probe treats as resident, as analyst 0 would send it.
fn resident_request<Q: Query>(bench: &Bench<Q>) -> MeasureRequest {
    let request = match bench.spec.mode {
        Mode::Cold | Mode::Cached => RequestStream::new(bench.spec, bench.seed, 0, PHASE_WARMUP)
            .next()
            .expect("streams are endless"),
        Mode::Mixed => RequestStream::hot_request(0),
    };
    MeasureRequest {
        analyst: PROBE_ANALYST.to_string(),
        epsilon: request.epsilon,
        spec: bench.plan_spec.clone(),
        id: (bench.spec.mode == Mode::Cached).then(|| "bench".to_string()),
        trace: false,
        encoding: ResponseEncoding::Json,
    }
}

/// The traced run of a service workload.
pub fn trace<Q: Query>(
    spec: &'static Svc,
    seed: u64,
    seconds: f64,
    recorder: &mut Recorder,
    epoch: Instant,
) -> Outcome {
    let mut outcome = Outcome::default();
    let (bench, mut analysts) = setup::<Q>(spec, seed);

    // Part 1: the fixed-length replay, under its own identity so that the live
    // analysts' ledgers stay theirs.
    bench
        .service
        .grant("replay", DATASET, PrivacyBudget::new(GRANT))
        .expect("grant on a registered dataset");
    let mut replayer: Analyst<Q, InProcess> =
        Analyst::named(0, "replay", InProcess::new(bench.service.clone()));
    prime(&bench, &mut replayer);
    let cache_before = bench.service.cache_stats();
    let spent_before = replayer.spent();
    let dispatches_before = sys::counter(wpinq::shard::POOL_DISPATCHES_METRIC);
    let spawned_before = sys::counter(wpinq::shard::THREADS_SPAWNED_METRIC);
    replayer.tap.set_logging(true);
    let (mut req_bytes, mut resp_bytes) = (Vec::new(), Vec::new());
    let stream = RequestStream::new(spec, seed, 0, PHASE_REPLAY);
    for (k, request) in stream.take(spec.replay_requests as usize).enumerate() {
        if request.reregister {
            bench
                .service
                .register(DATASET, &bench.dataset)
                .expect("the edge dataset re-registers");
        }
        let number = request_no(usize::from(u8::MAX), PHASE_REPLAY, k as u64);
        if let Some(trip) = replayer.issue(&bench, &request, number, Some(recorder)) {
            req_bytes.push(trip.req_bytes as f64);
            resp_bytes.push(trip.resp_bytes as f64);
        }
    }
    replayer.tap.set_logging(false);
    replayer.check_ledger(&bench.service);
    let cache_after = bench.service.cache_stats();
    let hits = cache_after.hits - cache_before.hits;
    let misses = cache_after.misses - cache_before.misses;
    outcome.metric("cache.hits", hits as f64);
    outcome.metric("cache.misses", misses as f64);
    outcome.metric(
        "cache.evictions",
        (cache_after.evictions - cache_before.evictions) as f64,
    );
    outcome.metric(
        "cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    outcome.metric("budget.eps_charged", replayer.spent() - spent_before);
    outcome.metric("transport.req_bytes", stats::median(req_bytes));
    outcome.metric("transport.resp_bytes", stats::median(resp_bytes));
    outcome.metric(
        "core.shard.pool_dispatches",
        (sys::counter(wpinq::shard::POOL_DISPATCHES_METRIC) - dispatches_before) as f64,
    );
    outcome.metric(
        "core.shard.threads_spawned",
        (sys::counter(wpinq::shard::THREADS_SPAWNED_METRIC) - spawned_before) as f64,
    );
    outcome.checks.absorb(replayer.checks);

    // Part 2: live traffic, alternately plain and through the timing wrapper, so that
    // whatever drifts over the seconds drifts under both alike.
    if spec.mode == Mode::Mixed {
        // The replay's re-registration emptied the live analysts' hot sets too.
        for analyst in &mut analysts {
            prime(&bench, analyst);
        }
    }
    let slice = Duration::from_secs_f64(0.0625 * seconds);
    let (mut plain, mut tapped) = ((0usize, 0.0f64), (0usize, 0.0f64));
    for phase in LIVE_PHASES {
        let tap = phase % 2 == 0;
        let before: usize = analysts.iter().map(|a| a.latencies_ms.len()).sum();
        let (wall, recorders) = live(&bench, &mut analysts, phase, slice, tap.then_some(epoch));
        let after: usize = analysts.iter().map(|a| a.latencies_ms.len()).sum();
        let total = if tap { &mut tapped } else { &mut plain };
        total.0 += after - before;
        total.1 += wall;
        for thread in recorders {
            recorder.absorb(thread);
        }
    }
    let (plain_requests, tapped_requests) = (plain.0, tapped.0);
    outcome.metric("client.encode_us", recorder.median_us("client.encode"));
    outcome.metric("client.decode_us", recorder.median_us("client.decode"));
    outcome.metric(
        "bench.trace_overhead_ratio",
        (plain.0 as f64 / plain.1) / (tapped.0 as f64 / tapped.1),
    );
    outcome.note("live_plain_requests", Json::num(plain_requests));
    outcome.note("live_tapped_requests", Json::num(tapped_requests));
    for mut analyst in analysts {
        analyst.check_ledger(&bench.service);
        outcome.checks.absorb(analyst.checks);
        // Dropping the analyst closes its connection and frees its server worker.
    }

    // Part 3: the probes.
    let mut probes = Probes {
        values: Arc::new(wpinq::plan::dataset_to_values(&bench.dataset)),
        hit: resident_request(&bench),
        bench: &bench,
        recorder,
        checks: Checks::default(),
        unit: Duration::from_secs_f64(seconds / 50.0),
        next_miss: 0,
    };
    let handle_line_us = probes.front_door(&mut outcome);
    probes.transport(&mut outcome);
    let miss_attributed = probes.replay(false, &mut outcome);
    let hit_attributed = probes.replay(true, &mut outcome);
    let attributed = if probes.dominant_is_hit() {
        hit_attributed
    } else {
        miss_attributed
    };
    outcome.metric("service.attributed_share", attributed / handle_line_us);
    probes.hit_path(&mut outcome);
    probes.execute_variants(&mut outcome);
    let probe_checks = probes.checks;
    outcome.checks.absorb(probe_checks);

    outcome.metric(
        "service.audit_dropped",
        bench.service.audit_dropped() as f64,
    );
    outcome.note("replay_requests", Json::num(spec.replay_requests));
    bench.server.shutdown();
    outcome
}
