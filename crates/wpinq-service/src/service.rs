//! The measurement service: the trusted side of PINQ's agent model, across a process
//! boundary.
//!
//! A [`MeasurementService`] **owns** the protected datasets and every privacy budget;
//! analysts own nothing but plan text. One request ([`MeasureRequest`]) carries a
//! [`PlanSpec`] plus a measurement ε; the service
//!
//! 1. **validates** the spec (wire version, topology, expression types) and rebuilds an
//!    executable [`Plan<Value>`](wpinq::Plan) from it,
//! 2. **binds** each named source to its registered dataset (declared types must match),
//! 3. **optimizes** the plan (the same rewrite pass local `Queryable`s run — so a
//!    redundantly expressed request is charged for the deduplicated plan),
//! 4. **debits** the analyst's per-dataset [`AnalystBudgets`] grant by
//!    `multiplicity × ε`, all-or-nothing, rejecting unaffordable requests before any
//!    noise is drawn,
//! 5. **evaluates** under the configured [`Executor`] and returns only the noisy
//!    release — never raw weights — together with the analyst-visible plan rendering,
//!    which is also appended to the service's audit log.
//!
//! # Concurrency
//!
//! The service is `Send + Sync` (compile-time asserted below) and every entry point
//! takes `&self`: one `Arc<MeasurementService>` serves any number of request threads.
//! Interior state is partitioned into independent leaf locks — the dataset table
//! (`RwLock`, read-mostly), the audit log, the noise generator, and each budget grant —
//! none of which is ever held while another is acquired, so the service cannot deadlock
//! with itself.
//!
//! Multi-dataset debits are **two-phase and all-or-nothing**: the service first
//! *reserves* `multiplicity × ε` against every grant the optimized plan touches, walking
//! grants in canonical dataset order, then evaluates, then *commits* every reservation.
//! Reservations are RAII guards ([`wpinq::budget::BudgetReservation`]) that roll back on
//! drop, so any failure after the first hold — an unaffordable later grant, even an
//! evaluation panic — returns every held ε to its grant. Racing requests can neither
//! double-spend a grant (the check-and-hold is atomic under the grant's own lock) nor
//! deadlock (each reserve touches exactly one lock at a time).
//!
//! # The measurement cache
//!
//! [`serve`](MeasurementService::serve) memoizes responses by **(analyst, ε, canonical
//! optimized plan)**: a repeated identical request returns the first response
//! byte-identically, without re-touching data and *without a second ε charge*. This is
//! the paper's protection-once/reuse-forever guarantee lifted to the service boundary —
//! a noisy release is post-processable, so replaying its bytes is free. The replay is
//! recorded in the audit log. The *release bytes* are a sealed artifact, but the
//! `remaining` field of the JSON envelope is re-read from the live grants at assembly
//! time ([`MeasurementService::live_remaining`]) — a replay must not quote budgets the
//! analyst has since spent down. [`measure`](MeasurementService::measure), the
//! caller-supplied RNG path used by deterministic replay tests, bypasses the cache.
//!
//! The cache is **bounded** ([`DEFAULT_CACHE_CAPACITY`] entries, LRU-evicted;
//! [`with_cache_capacity`](MeasurementService::with_cache_capacity)) — keys can be
//! minted at arbitrarily small ε, so residency must not scale with analyst behavior —
//! and **generation-keyed**: re-registering a dataset bumps its generation, so entries
//! computed over replaced data are invalidated rather than replayed.
//!
//! Determinism: for a fixed RNG state the response bytes are identical across executors
//! and optimize levels, and identical to a local typed release of the same plan (see the
//! crate docs for why).

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wpinq::budget::{AnalystBudgets, BudgetReservation};
use wpinq::plan::{default_executor, plan_from_spec, DynPlan, Executor, OptimizeLevel};
use wpinq::value::{Value, ValueType};
use wpinq::{BudgetError, NoisyCounts, PrivacyBudget, WeightedDataset};
use wpinq_core::column::ColumnBatch;
use wpinq_core::colwire;
use wpinq_expr::{value_type_from_json, value_type_to_json, Json, PlanSpec, WireError};
use wpinq_telemetry::{
    emit_to_sink, registry, trace_sink_enabled, Counter, FieldValue, Histogram, Trace, Tracer,
    LATENCY_BUCKETS_MS,
};

use crate::cache::{CacheStats, MeasurementCache};
use crate::release::{release_records_json, release_records_text};

/// Registry name of the per-outcome request counter (label `outcome` ∈ `ok`/`error`).
pub const REQUESTS_METRIC: &str = "wpinq_requests_total";
/// Registry name of the front-door latency histogram (milliseconds per `handle_line`).
pub const REQUEST_LATENCY_METRIC: &str = "wpinq_request_latency_ms";
/// Registry name of the counter of audit entries dropped by the bounded audit ring.
pub const AUDIT_DROPPED_METRIC: &str = "wpinq_audit_dropped_total";
/// Registry name of the envelope-assembly histogram (milliseconds; a trace cannot
/// contain its own serialization).
pub const RESPONSE_ENCODE_METRIC: &str = "wpinq_response_encode_ms";
/// Registry name of the response-line size histogram (bytes, label `encoding`).
pub const RESPONSE_BYTES_METRIC: &str = "wpinq_response_bytes";

fn requests_ok_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| {
        registry().counter(
            REQUESTS_METRIC,
            &[("outcome", "ok")],
            "Front-door requests by outcome.",
        )
    })
}

fn requests_error_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| {
        registry().counter(
            REQUESTS_METRIC,
            &[("outcome", "error")],
            "Front-door requests by outcome.",
        )
    })
}

fn request_latency_histogram() -> &'static Arc<Histogram> {
    static H: OnceLock<Arc<Histogram>> = OnceLock::new();
    H.get_or_init(|| {
        registry().histogram(
            REQUEST_LATENCY_METRIC,
            &[],
            "Wall time of one front-door request (parse through response encoding).",
            &LATENCY_BUCKETS_MS,
        )
    })
}

/// The envelope-assembly time histogram and the response-size histograms by encoding.
fn response_histograms() -> &'static (Arc<Histogram>, [Arc<Histogram>; 2]) {
    static H: OnceLock<(Arc<Histogram>, [Arc<Histogram>; 2])> = OnceLock::new();
    H.get_or_init(|| {
        let bytes = |encoding| {
            registry().histogram(
                RESPONSE_BYTES_METRIC,
                &[("encoding", encoding)],
                "Size of one successful response line, by release encoding.",
                &[256.0, 1024.0, 4096.0, 16384.0, 65536.0, 262144.0, 1048576.0],
            )
        };
        let encode = registry().histogram(
            RESPONSE_ENCODE_METRIC,
            &[],
            "Wall time of assembling one successful response envelope.",
            &LATENCY_BUCKETS_MS,
        );
        // Indexed by `ResponseEncoding as usize`, like `Sealed::release_fields`.
        (encode, [bytes("json"), bytes("columnar")])
    })
}

fn audit_dropped_counter() -> &'static Arc<Counter> {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| {
        registry().counter(
            AUDIT_DROPPED_METRIC,
            &[],
            "Oldest audit-log entries dropped to stay within the audit ring capacity.",
        )
    })
}

/// Version stamp of the request/response JSON envelope. Version 2 adds the optional
/// client-supplied `id` (echoed in every response — required for pipelined transports)
/// and structured `{"code","message"}` errors; version-1 requests still parse.
pub const REQUEST_VERSION: u32 = 2;

/// The top-level key of a measurement request document.
pub const REQUEST_HEADER: &str = "wpinq_measure_request";

/// How a successful response carries its release records. Like `trace`, the encoding is
/// an envelope-assembly concern: it is never part of the measurement-cache key and never
/// perturbs the release — a columnar envelope decodes to the byte-identical records the
/// JSON envelope prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ResponseEncoding {
    /// The default: `"release"` as a JSON array of `[record, count]` pairs.
    #[default]
    Json,
    /// `"release_columnar"`: a base64 colwire frame (see `wpinq_core::colwire` and the
    /// PROTOCOL.md frame layout) holding the same records column-contiguously.
    Columnar,
}

/// A measurement request: who is asking, at what ε, and the plan as data.
#[derive(Debug, Clone, PartialEq)]
pub struct MeasureRequest {
    /// The requesting analyst (budget grants are keyed per analyst).
    pub analyst: String,
    /// The `NoisyCount` measurement parameter.
    pub epsilon: f64,
    /// The plan to measure.
    pub spec: PlanSpec,
    /// Optional client-chosen correlation id, echoed verbatim in the response envelope
    /// so pipelined clients can match responses to requests. Never interpreted.
    pub id: Option<String>,
    /// When `true`, the service records a structured trace of this request's pipeline
    /// (spans for validate/bind/optimize/reserve/execute/commit plus the per-operator
    /// EXPLAIN ANALYZE report) and attaches it to the response envelope as `"trace"`.
    /// Tracing never changes the release: the bytes are identical with the flag on or
    /// off (property-tested), and the flag is absent from the measurement-cache key.
    pub trace: bool,
    /// The release encoding this client wants in the response envelope (JSON unless the
    /// request says `"encoding":"columnar"`). Absent from the measurement-cache key;
    /// cached results replay under either encoding.
    pub encoding: ResponseEncoding,
}

impl MeasureRequest {
    /// The JSON envelope
    /// (`{"wpinq_measure_request":2,"id":…,"analyst":…,"epsilon":…,"plan":…}`).
    pub fn to_json(&self) -> Json {
        let mut fields = vec![(REQUEST_HEADER.to_string(), Json::num(REQUEST_VERSION))];
        if let Some(id) = &self.id {
            fields.push(("id".into(), Json::str(id.clone())));
        }
        fields.push(("analyst".into(), Json::str(self.analyst.clone())));
        fields.push(("epsilon".into(), Json::f64(self.epsilon)));
        if self.trace {
            fields.push(("trace".into(), Json::Bool(true)));
        }
        if self.encoding == ResponseEncoding::Columnar {
            fields.push(("encoding".into(), Json::str("columnar")));
        }
        fields.push(("plan".into(), self.spec.to_json()));
        Json::Obj(fields)
    }

    /// Serializes the request to compact JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json().to_compact()
    }

    /// Parses a request envelope. Versions 1 and 2 are both accepted: version 1 is the
    /// pre-`id` format, so a v1 request simply parses with `id: None`.
    pub fn from_json(text: &str) -> Result<MeasureRequest, WireError> {
        MeasureRequest::from_json_value(&Json::parse(text)?)
    }

    /// Reads a request envelope already parsed as JSON (see [`from_json`](Self::from_json)).
    fn from_json_value(json: &Json) -> Result<MeasureRequest, WireError> {
        let version = json
            .get(REQUEST_HEADER)
            .and_then(Json::as_u64)
            .ok_or_else(|| WireError::new(format!("missing '{REQUEST_HEADER}' header")))?;
        if !(1..=u64::from(REQUEST_VERSION)).contains(&version) {
            return Err(WireError::new(format!(
                "unsupported request version {version} (this build speaks {REQUEST_VERSION})"
            )));
        }
        let analyst = json
            .get("analyst")
            .and_then(Json::as_str)
            .ok_or_else(|| WireError::new("missing 'analyst'"))?
            .to_string();
        let epsilon = json
            .get("epsilon")
            .and_then(Json::as_f64)
            .ok_or_else(|| WireError::new("missing or non-finite 'epsilon'"))?;
        let id = json.get("id").and_then(Json::as_str).map(str::to_string);
        let trace = json.get("trace").and_then(Json::as_bool).unwrap_or(false);
        let encoding = match json.get("encoding") {
            None => ResponseEncoding::Json,
            Some(value) => match value.as_str() {
                Some("json") => ResponseEncoding::Json,
                Some("columnar") => ResponseEncoding::Columnar,
                _ => {
                    return Err(WireError::new(
                        "unknown 'encoding' (this build speaks \"json\" and \"columnar\")",
                    ))
                }
            },
        };
        let plan = json
            .get("plan")
            .ok_or_else(|| WireError::new("missing 'plan'"))?;
        let spec = PlanSpec::from_json_value(plan)?;
        Ok(MeasureRequest {
            analyst,
            epsilon,
            spec,
            id,
            trace,
            encoding,
        })
    }
}

/// A successful measurement: the noisy release plus accounting facts the analyst is
/// allowed to see.
#[derive(Debug)]
pub struct MeasureResponse {
    /// The measurement ε.
    pub epsilon: f64,
    /// Record type of the released counts.
    pub output_type: ValueType,
    /// The noisy release, in sorted record order (never raw weights).
    pub release: Vec<(Value, f64)>,
    /// Per-dataset ε charged by this request (`multiplicity × ε`), sorted by name.
    pub charged: Vec<(String, f64)>,
    /// Per-dataset budget remaining for this analyst after the charge, sorted by name.
    /// This records the grants as of the charge; the JSON envelope layer re-reads the
    /// live grants at assembly time ([`MeasurementService::live_remaining`]), so a
    /// cache-replayed envelope never quotes budgets the analyst has since spent down.
    pub remaining: Vec<(String, f64)>,
    /// The analyst-visible plan: the optimized plan rendering plus multiplicity report.
    pub explain: String,
}

impl MeasureResponse {
    /// The JSON envelope (`{"ok":true, …}`) as a document, deterministic byte-for-byte:
    /// the response plus the per-request pieces a cached response must stay agnostic of
    /// — the request's id (right after `"ok"`; omitted when the request carried none), a
    /// live `remaining` override (read from the grants at assembly time, see
    /// [`MeasurementService::live_remaining`]), the request's trace (a trailing
    /// `"trace"` field when the request asked for one), and the release encoding the
    /// request negotiated. Under [`ResponseEncoding::Columnar`] the
    /// `"release"` array is replaced by `"release_columnar"`, a base64 colwire frame of
    /// the same records; everything else in the envelope is unchanged, and a cached
    /// response replays byte-identically under whichever encoding each request asks
    /// for.
    pub fn to_json_envelope(
        &self,
        id: Option<&str>,
        remaining: Option<&[(String, f64)]>,
        trace: Option<&Trace>,
        encoding: ResponseEncoding,
    ) -> Json {
        let [mut fields, tail] = self.envelope_parts(id, remaining.unwrap_or(&self.remaining));
        fields.push(match encoding {
            ResponseEncoding::Json => ("release".to_string(), release_records_json(&self.release)),
            ResponseEncoding::Columnar => (
                "release_columnar".to_string(),
                Json::str(self.release_columnar()),
            ),
        });
        fields.extend(tail);
        if let Some(trace) = trace {
            let trace = Json::parse(&trace.to_json()).expect("a trace prints as JSON");
            fields.push(("trace".into(), trace));
        }
        Json::Obj(fields)
    }

    /// The envelope's members before and after the release member, the trace aside.
    fn envelope_parts(
        &self,
        id: Option<&str>,
        remaining: &[(String, f64)],
    ) -> [Vec<(String, Json)>; 2] {
        let pairs = |items: &[(String, f64)]| {
            Json::Arr(
                items
                    .iter()
                    .map(|(name, eps)| Json::Arr(vec![Json::str(name.clone()), Json::f64(*eps)]))
                    .collect(),
            )
        };
        let mut head = vec![("ok".to_string(), Json::Bool(true))];
        if let Some(id) = id {
            head.push(("id".into(), Json::str(id.to_string())));
        }
        head.extend([
            ("epsilon".to_string(), Json::f64(self.epsilon)),
            ("output_type".into(), value_type_to_json(&self.output_type)),
        ]);
        let tail = vec![
            ("charged".to_string(), pairs(&self.charged)),
            ("remaining".into(), pairs(remaining)),
            ("explain".into(), Json::str(self.explain.clone())),
        ];
        [head, tail]
    }

    /// The release as a base64 colwire frame (the `"release_columnar"` payload).
    fn release_columnar(&self) -> String {
        let batch = ColumnBatch::from_pairs(
            self.output_type.clone(),
            self.release.iter().map(|(record, count)| (record, *count)),
        )
        .expect("release records all have the response's output type");
        colwire::to_base64(&colwire::encode_batch(&batch))
    }
}

/// A served measurement as the cache holds it: the response, sealed with its release
/// member as compact text (`"release":[…]` / `"release_columnar":"…"`), rendered at most
/// once per encoding — by the first reply that asks for that encoding. A replay splices
/// the stored text instead of re-printing an unchanged release; the text is dropped with
/// the entry on eviction or invalidation.
struct Sealed {
    response: Arc<MeasureResponse>,
    release_fields: [OnceLock<String>; 2],
}

impl Sealed {
    fn new(response: MeasureResponse) -> Arc<Sealed> {
        Arc::new(Sealed {
            response: Arc::new(response),
            release_fields: Default::default(),
        })
    }

    /// The compact text of [`MeasureResponse::to_json_envelope`], byte for byte: what the
    /// front doors send. Only the small members either side of the release are printed
    /// per reply; the trace's own text is spliced in as it is.
    fn envelope_text(
        &self,
        id: Option<&str>,
        remaining: &[(String, f64)],
        trace: Option<&Trace>,
        encoding: ResponseEncoding,
    ) -> String {
        let response = &self.response;
        let release = self.release_fields[encoding as usize].get_or_init(|| match encoding {
            ResponseEncoding::Json => {
                format!("\"release\":{}", release_records_text(&response.release))
            }
            ResponseEncoding::Columnar => format!(
                "\"release_columnar\":{}",
                Json::str(response.release_columnar()).to_compact()
            ),
        });
        let [head, tail] = response.envelope_parts(id, remaining);
        let (head, tail) = (Json::Obj(head).to_compact(), Json::Obj(tail).to_compact());
        // `{head}` and `{tail}` open up into `{head,release,tail,trace}`.
        let (head, tail) = (&head[..head.len() - 1], &tail[1..tail.len() - 1]);
        let mut out = String::with_capacity(head.len() + release.len() + tail.len() + 3);
        out.extend([head, ",", release, ",", tail]);
        if let Some(trace) = trace {
            out.extend([",\"trace\":", &trace.to_json()]);
        }
        out.push('}');
        out
    }
}

/// Why a measurement request was rejected. No error variant ever reveals protected
/// data — rejections happen before noise is drawn and charge nothing.
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceError {
    /// The request or plan document was malformed or failed type checking.
    Wire(WireError),
    /// The plan references a dataset this service does not host.
    UnknownDataset(String),
    /// The plan declared a source at a type other than the registered one.
    TypeMismatch {
        /// The dataset name.
        dataset: String,
        /// The type the plan declared.
        declared: ValueType,
        /// The type the dataset was registered at.
        registered: ValueType,
    },
    /// The analyst holds no budget grant for a dataset the plan touches.
    NoGrant {
        /// The requesting analyst.
        analyst: String,
        /// The dataset without a grant.
        dataset: String,
    },
    /// A grant cannot afford the request (nothing was charged).
    BudgetExceeded {
        /// The dataset whose grant is short.
        dataset: String,
        /// The underlying budget arithmetic.
        error: BudgetError,
    },
    /// A request parameter was invalid (e.g. non-positive ε).
    InvalidParameter(String),
    /// A request line exceeded the transport's length limit (the connection is closed).
    RequestTooLarge {
        /// The limit, in bytes.
        limit: usize,
    },
}

impl ServiceError {
    /// A stable machine-readable error code, carried in the response envelope alongside
    /// the human-readable message. Codes are part of the wire contract (PROTOCOL.md):
    /// clients may branch on them; messages may change freely.
    pub fn code(&self) -> &'static str {
        match self {
            ServiceError::Wire(_) => "wire",
            ServiceError::UnknownDataset(_) => "unknown_dataset",
            ServiceError::TypeMismatch { .. } => "type_mismatch",
            ServiceError::NoGrant { .. } => "no_grant",
            ServiceError::BudgetExceeded { .. } => "budget_exceeded",
            ServiceError::InvalidParameter(_) => "invalid_parameter",
            ServiceError::RequestTooLarge { .. } => "request_too_large",
        }
    }

    /// The `{"ok":false,…}` envelope, with the request's correlation id echoed when the
    /// request parsed far enough to reveal one.
    pub fn to_json_with_id(&self, id: Option<&str>) -> Json {
        let mut fields = vec![("ok".to_string(), Json::Bool(false))];
        if let Some(id) = id {
            fields.push(("id".into(), Json::str(id.to_string())));
        }
        fields.push((
            "error".into(),
            Json::Obj(vec![
                ("code".into(), Json::str(self.code().to_string())),
                ("message".into(), Json::str(self.to_string())),
            ]),
        ));
        Json::Obj(fields)
    }
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::Wire(e) => write!(f, "{e}"),
            ServiceError::UnknownDataset(name) => write!(f, "unknown dataset '{name}'"),
            ServiceError::TypeMismatch {
                dataset,
                declared,
                registered,
            } => write!(
                f,
                "dataset '{dataset}' declared as {declared} but registered as {registered}"
            ),
            ServiceError::NoGrant { analyst, dataset } => {
                write!(f, "analyst '{analyst}' has no budget grant for '{dataset}'")
            }
            ServiceError::BudgetExceeded { dataset, error } => {
                write!(f, "budget for '{dataset}' exceeded: {error}")
            }
            ServiceError::InvalidParameter(msg) => write!(f, "invalid parameter: {msg}"),
            ServiceError::RequestTooLarge { limit } => {
                write!(f, "request line exceeds {limit} bytes")
            }
        }
    }
}

impl std::error::Error for ServiceError {}

impl From<WireError> for ServiceError {
    fn from(e: WireError) -> Self {
        ServiceError::Wire(e)
    }
}

struct RegisteredDataset {
    ty: ValueType,
    data: Arc<WeightedDataset<Value>>,
    /// Bumped every time the name is re-registered; part of the measurement-cache key,
    /// so a release computed over replaced data is never replayed for the new data.
    generation: u64,
}

/// The measurement-cache key: analyst × ε-bits × canonical optimized plan × the
/// generation of every dataset the plan binds. The generations make entries computed
/// over since-replaced data unreachable (and findable by
/// [`MeasurementCache::retain`] for proactive invalidation).
type CacheKey = (String, u64, String, Vec<(String, u64)>);

/// Everything [`prepare`](MeasurementService::prepare) derives from a request before any
/// budget is touched: the rebuilt plan, its bindings, the optimizer-deduplicated
/// per-dataset multiplicities, and the canonical cache-key encoding.
struct Prepared {
    output_type: ValueType,
    bindings: wpinq::PlanBindings,
    plan: wpinq::Plan<Value>,
    optimized: wpinq::Plan<Value>,
    per_dataset: BTreeMap<String, u32>,
    canonical: String,
    /// (dataset, generation) of every bound source, sorted by name — the data snapshot
    /// this preparation captured (the bindings hold the matching `Arc`s).
    generations: Vec<(String, u64)>,
}

/// The bounded audit log: a ring of the most recent entries. Analysts mint audit
/// entries with every admitted request, so an unbounded log — like an unbounded cache —
/// would let them grow server memory without limit; beyond `capacity` entries the
/// oldest is dropped and counted (locally and on [`AUDIT_DROPPED_METRIC`]).
struct AuditRing {
    entries: VecDeque<String>,
    capacity: usize,
    dropped: u64,
}

impl AuditRing {
    fn new(capacity: usize) -> Self {
        AuditRing {
            entries: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    fn push(&mut self, entry: String) {
        while self.entries.len() >= self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
            audit_dropped_counter().inc();
        }
        self.entries.push_back(entry);
    }
}

/// The measurement service: protected datasets, per-analyst budget grants, an executor,
/// an audit log of every plan it agreed to measure, and the cross-request measurement
/// cache. `Send + Sync`; share it as `Arc<MeasurementService>` across request threads.
pub struct MeasurementService {
    datasets: RwLock<HashMap<String, RegisteredDataset>>,
    budgets: AnalystBudgets,
    executor: Arc<dyn Executor>,
    optimize: OptimizeLevel,
    audit: Mutex<AuditRing>,
    /// The curator's noise source for [`serve`](Self::serve): each request draws a child
    /// generator under a brief lock, so evaluation itself is never serialized on it.
    noise: Mutex<StdRng>,
    cache: MeasurementCache<CacheKey, Arc<Sealed>>,
    cache_enabled: bool,
}

/// Default bound on resident measurement-cache entries. Keys can be minted at
/// negligible ε (ε may be arbitrarily small), so the cache must not grow with analyst
/// behavior; beyond this many keys the least recently used entry is evicted. Tune with
/// [`MeasurementService::with_cache_capacity`].
pub const DEFAULT_CACHE_CAPACITY: usize = 4096;

/// Default bound on resident audit-log entries (the ring keeps the most recent this
/// many; older entries are dropped and counted). Tune with
/// [`MeasurementService::with_audit_capacity`].
pub const DEFAULT_AUDIT_CAPACITY: usize = 4096;

// The whole point of this service is to be shared across request threads; make the
// property a compile error to lose rather than a runtime surprise (it regressed silently
// once, via `RefCell` audit state and `Rc` plan internals).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<MeasurementService>();
};

impl Default for MeasurementService {
    fn default() -> Self {
        MeasurementService::new()
    }
}

/// A seed from OS entropy, without assuming a `/dev/urandom` (the std hasher keys are
/// drawn from the OS entropy pool at first use).
fn entropy_seed() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    std::collections::hash_map::RandomState::new()
        .build_hasher()
        .finish()
}

impl MeasurementService {
    /// An empty service with the process-default executor (`WPINQ_THREADS`), optimize
    /// level (`WPINQ_OPTIMIZE`), an entropy-seeded noise source, and the measurement
    /// cache enabled.
    pub fn new() -> Self {
        MeasurementService {
            datasets: RwLock::new(HashMap::new()),
            budgets: AnalystBudgets::new(),
            executor: default_executor(),
            optimize: OptimizeLevel::from_env(),
            audit: Mutex::new(AuditRing::new(DEFAULT_AUDIT_CAPACITY)),
            noise: Mutex::new(StdRng::seed_from_u64(entropy_seed())),
            cache: MeasurementCache::with_capacity(DEFAULT_CACHE_CAPACITY),
            cache_enabled: true,
        }
    }

    /// Replaces the evaluation strategy (bitwise-neutral: releases do not change).
    pub fn with_executor(mut self, executor: Arc<dyn Executor>) -> Self {
        self.executor = executor;
        self
    }

    /// Replaces the optimize level used for accounting and evaluation.
    pub fn with_optimize_level(mut self, level: OptimizeLevel) -> Self {
        self.optimize = level;
        self
    }

    /// Pins the noise source of [`serve`](Self::serve) to a fixed seed.
    ///
    /// For tests and reproducible demos only: in production the seed is the curator's
    /// secret — a guessable seed would let an analyst replay the Laplace stream and
    /// de-noise every release.
    pub fn with_noise_seed(mut self, seed: u64) -> Self {
        self.noise = Mutex::new(StdRng::seed_from_u64(seed));
        self
    }

    /// Enables or disables the cross-request measurement cache (enabled by default).
    /// Disabling never changes any single response's bytes — it only makes a repeated
    /// identical request draw fresh noise and pay again.
    pub fn with_measurement_cache(mut self, enabled: bool) -> Self {
        self.cache_enabled = enabled;
        self
    }

    /// Replaces the measurement cache's capacity bound
    /// ([`DEFAULT_CACHE_CAPACITY`] entries by default, clamped to ≥ 1). Evicting an
    /// entry is always privacy-sound — a later identical repeat simply becomes a fresh
    /// measurement with a fresh charge — so operators may size this purely by memory.
    pub fn with_cache_capacity(mut self, capacity: usize) -> Self {
        self.cache = MeasurementCache::with_capacity(capacity);
        self
    }

    /// Replaces the audit ring's capacity bound ([`DEFAULT_AUDIT_CAPACITY`] entries by
    /// default, clamped to ≥ 1). The ring keeps the most recent entries; dropping an
    /// old one only loses diagnostics, never accounting — budgets are the source of
    /// truth for ε — and every drop is counted
    /// ([`audit_dropped`](Self::audit_dropped), [`AUDIT_DROPPED_METRIC`]).
    pub fn with_audit_capacity(mut self, capacity: usize) -> Self {
        self.audit = Mutex::new(AuditRing::new(capacity));
        self
    }

    /// Registers a protected dataset of dynamic records under `name`. Every record must
    /// match `ty`; re-registering a name replaces its data (grants are unaffected).
    ///
    /// Replacing data **invalidates** every measurement-cache entry whose plan bound the
    /// old data: the dataset's generation (part of the cache key) is bumped, so a repeat
    /// of an earlier request is a fresh measurement over the new data with a fresh ε
    /// charge — never a replay of a release the new data took no part in.
    pub fn register_values(
        &self,
        name: &str,
        ty: ValueType,
        data: WeightedDataset<Value>,
    ) -> Result<(), ServiceError> {
        if name.is_empty() {
            return Err(ServiceError::InvalidParameter(
                "dataset name must be non-empty".into(),
            ));
        }
        for (record, _) in data.iter() {
            let got = record.type_of();
            if got != ty {
                return Err(ServiceError::TypeMismatch {
                    dataset: name.to_string(),
                    declared: ty,
                    registered: got,
                });
            }
        }
        let replaced = {
            let mut datasets = self
                .datasets
                .write()
                .unwrap_or_else(PoisonError::into_inner);
            let generation = datasets.get(name).map_or(0, |d| d.generation + 1);
            datasets.insert(
                name.to_string(),
                RegisteredDataset {
                    ty,
                    data: Arc::new(data),
                    generation,
                },
            );
            generation > 0
        };
        if replaced {
            // Stale entries are already unreachable (their keys carry the old
            // generation); dropping them now frees their memory too.
            self.cache
                .retain(|(_, _, _, generations)| generations.iter().all(|(n, _)| n != name));
        }
        Ok(())
    }

    /// Registers a typed protected dataset under `name` (converted to dynamic records;
    /// support, weights, and sorted order are preserved exactly).
    pub fn register<T: wpinq::ExprRecord>(
        &self,
        name: &str,
        data: &WeightedDataset<T>,
    ) -> Result<(), ServiceError> {
        self.register_values(name, T::value_type(), wpinq::plan::dataset_to_values(data))
    }

    /// Grants `analyst` a fresh privacy budget for `dataset`.
    pub fn grant(
        &self,
        analyst: &str,
        dataset: &str,
        budget: PrivacyBudget,
    ) -> Result<(), ServiceError> {
        if !self
            .datasets
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .contains_key(dataset)
        {
            return Err(ServiceError::UnknownDataset(dataset.to_string()));
        }
        self.budgets.grant(analyst, dataset, budget);
        Ok(())
    }

    /// Remaining budget of `(analyst, dataset)`, when a grant exists.
    pub fn remaining(&self, analyst: &str, dataset: &str) -> Option<f64> {
        self.budgets.remaining(analyst, dataset)
    }

    /// The audit log: one rendered, analyst-visible plan per admitted measurement, plus
    /// one line per cache replay. Bounded — the ring keeps the most recent
    /// [`DEFAULT_AUDIT_CAPACITY`] entries (see
    /// [`with_audit_capacity`](Self::with_audit_capacity)); [`audit_dropped`](Self::audit_dropped)
    /// counts what aged out.
    pub fn audit_log(&self) -> Vec<String> {
        self.audit
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .entries
            .iter()
            .cloned()
            .collect()
    }

    /// Number of audit entries dropped by the ring's capacity bound since construction.
    pub fn audit_dropped(&self) -> u64 {
        self.audit
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .dropped
    }

    /// Hit/miss counters of the measurement cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Steps 1–3 of the pipeline (validate, bind, optimize): everything derivable from
    /// the request without touching a budget or drawing noise.
    fn prepare(&self, request: &MeasureRequest, tracer: &Tracer) -> Result<Prepared, ServiceError> {
        if !(request.epsilon.is_finite() && request.epsilon > 0.0) {
            return Err(ServiceError::InvalidParameter(format!(
                "epsilon must be positive and finite, got {}",
                request.epsilon
            )));
        }
        let validate = tracer.span("validate");
        let output_type = request.spec.output_type()?;
        let DynPlan { plan, sources } = plan_from_spec(&request.spec)?;
        drop(validate);

        // Bind every named source to its registered dataset (a read lock held only for
        // the lookups — binding shares the `Arc`, never copies records). The generation
        // of each bound dataset is captured with its `Arc`, so the cache key and the
        // data this preparation will evaluate always describe the same snapshot.
        let mut bindings = wpinq::PlanBindings::new();
        let mut generation_by_name: BTreeMap<String, u64> = BTreeMap::new();
        {
            let _bind = tracer.span("bind");
            let datasets = self.datasets.read().unwrap_or_else(PoisonError::into_inner);
            for source in &sources {
                let registered = datasets
                    .get(&source.name)
                    .ok_or_else(|| ServiceError::UnknownDataset(source.name.clone()))?;
                if registered.ty != source.ty {
                    return Err(ServiceError::TypeMismatch {
                        dataset: source.name.clone(),
                        declared: source.ty.clone(),
                        registered: registered.ty.clone(),
                    });
                }
                bindings.bind_shared(&source.plan, registered.data.clone());
                generation_by_name.insert(source.name.clone(), registered.generation);
            }
        }

        // Accounting runs on the optimized plan, exactly like a local Queryable: a
        // redundantly expressed request is charged for the deduplicated plan. One
        // optimizer pass (bindings-aware, so join input ordering applies) serves
        // accounting, the audit report, evaluation, and the cache key.
        let optimize_span = tracer.span("optimize");
        let optimized = plan.optimize_for_bindings(self.optimize, &bindings);
        drop(optimize_span);
        let multiplicities = optimized.multiplicities();
        let mut per_dataset: BTreeMap<String, u32> = BTreeMap::new();
        for source in &sources {
            if let Some(id) = source.plan.input_id() {
                let mult = multiplicities.get(&id).copied().unwrap_or(0);
                if mult > 0 {
                    *per_dataset.entry(source.name.clone()).or_insert(0) += mult;
                }
            }
        }

        // Reject a total cost that overflows f64 *here*, before any grant lock is
        // taken: `reserve` would refuse a non-finite amount anyway, but the analyst
        // deserves `invalid_parameter` (a malformed request), not `budget_exceeded`.
        for (dataset, mult) in &per_dataset {
            let cost = f64::from(*mult) * request.epsilon;
            if !cost.is_finite() {
                return Err(ServiceError::InvalidParameter(format!(
                    "total cost {mult} x {} for dataset '{dataset}' is not representable",
                    request.epsilon
                )));
            }
        }

        // The cache-key encoding: the canonical bytes of the *optimized* plan, so
        // differently-phrased requests that optimize to the same plan share an entry.
        // (Full bytes, not a hash — a hash collision would hand one analyst's plan the
        // release of another, which no amount of improbability justifies.)
        let canonical = optimized
            .to_spec()
            .map(|spec| spec.to_json_string())
            .unwrap_or_else(|| request.spec.to_json_string());

        Ok(Prepared {
            output_type,
            bindings,
            plan,
            optimized,
            per_dataset,
            canonical,
            generations: generation_by_name.into_iter().collect(),
        })
    }

    /// Steps 4–5 of the pipeline: the two-phase debit, evaluation, and release assembly.
    fn charge_and_evaluate<R: Rng + ?Sized>(
        &self,
        request: &MeasureRequest,
        prepared: &Prepared,
        rng: &mut R,
        tracer: &Tracer,
    ) -> Result<MeasureResponse, ServiceError> {
        // Phase one: reserve against every grant in canonical dataset order (the
        // BTreeMap iterates sorted). Each reserve is an atomic check-and-hold under the
        // grant's own lock; a failure here drops the earlier guards, rolling every hold
        // back — nothing is ever partially charged.
        let reserve_span = tracer.span("reserve");
        let mut held: Vec<(String, BudgetReservation)> = Vec::new();
        for (dataset, mult) in &prepared.per_dataset {
            let handle = self
                .budgets
                .lookup(&request.analyst, dataset)
                .ok_or_else(|| ServiceError::NoGrant {
                    analyst: request.analyst.clone(),
                    dataset: dataset.clone(),
                })?;
            let cost = f64::from(*mult) * request.epsilon;
            let reservation =
                handle
                    .reserve(cost)
                    .map_err(|error| ServiceError::BudgetExceeded {
                        dataset: dataset.clone(),
                        error,
                    })?;
            held.push((dataset.clone(), reservation));
        }
        drop(reserve_span);

        // Evaluate and release — the plan is already fully rewritten, so evaluation runs
        // at level None. Only the noisy counts leave this function. Should evaluation
        // panic, the `held` guards unwind with the stack and every hold rolls back.
        //
        // The traced and untraced arms run the *same* data path (the EXPLAIN ANALYZE
        // collector only hooks the memoizing node wrappers) and make the same single
        // `NoisyCounts::measure` call on the same rng, so the release bytes are
        // identical either way (property-tested in `tests/`).
        let measurement = prepared.optimized.noisy_count(request.epsilon);
        let execute_span = tracer.span("execute");
        let counts: NoisyCounts<Value> = if tracer.is_enabled() {
            let (counts, release_trace) = measurement.release_traced(
                &prepared.bindings,
                &*self.executor,
                OptimizeLevel::None,
                rng,
            );
            tracer.record_span_us("noise", release_trace.noise_us);
            tracer.field("analyze", FieldValue::Raw(release_trace.analyze.to_json()));
            counts
        } else {
            measurement.release_opt(
                &prepared.bindings,
                &*self.executor,
                OptimizeLevel::None,
                rng,
            )
        };
        drop(execute_span);

        // Phase two: the release exists, so the charges stand. Commit every hold.
        let _commit_span = tracer.span("commit");
        let charged: Vec<(String, f64)> = held
            .iter()
            .map(|(dataset, reservation)| (dataset.clone(), reservation.amount()))
            .collect();
        let mut remaining = Vec::with_capacity(held.len());
        for (dataset, reservation) in held {
            let handle = reservation.handle().clone();
            reservation.commit();
            remaining.push((dataset, handle.remaining()));
        }

        let report = wpinq::plan::PlanExplain {
            level: self.optimize,
            nodes_before: prepared.plan.node_count(),
            nodes_after: prepared.optimized.node_count(),
            before: prepared.plan.multiplicities(),
            after: prepared.optimized.multiplicities(),
            tree: prepared.optimized.render(),
        };
        let explain = format!(
            "analyst {} measured at epsilon {}:\n{report}",
            request.analyst, request.epsilon
        );
        self.audit
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(explain.clone());

        Ok(MeasureResponse {
            epsilon: request.epsilon,
            output_type: prepared.output_type.clone(),
            release: counts.sorted_observed(),
            charged,
            remaining,
            explain,
        })
    }

    /// A child generator forked off the service noise source (brief lock; evaluation
    /// itself never serializes on the RNG).
    fn child_rng(&self) -> StdRng {
        let mut noise = self.noise.lock().unwrap_or_else(PoisonError::into_inner);
        StdRng::from_rng(&mut *noise)
    }

    /// Serves one measurement request with a **caller-supplied** noise source, bypassing
    /// the measurement cache. This is the deterministic path — replay tests pin the RNG
    /// and compare response bytes across executors. On any error nothing is charged and
    /// no noise is drawn. Production transports use [`serve`](Self::serve) instead.
    pub fn measure<R: Rng + ?Sized>(
        &self,
        request: &MeasureRequest,
        rng: &mut R,
    ) -> Result<MeasureResponse, ServiceError> {
        let tracer = Tracer::disabled();
        let prepared = self.prepare(request, &tracer)?;
        self.charge_and_evaluate(request, &prepared, rng, &tracer)
    }

    /// Serves one measurement request with the service's own noise source and the
    /// cross-request cache: an identical repeat (same analyst, ε, and canonical
    /// optimized plan) returns the memoized response — byte-identical, data untouched,
    /// zero additional ε. Identical requests racing on a cold key single-flight behind
    /// one evaluation and one debit.
    pub fn serve(&self, request: &MeasureRequest) -> Result<Arc<MeasureResponse>, ServiceError> {
        self.serve_sealed(request, None)
            .map(|(sealed, _)| sealed.response.clone())
    }

    /// [`serve`](Self::serve) in the sealed form the front door assembles its reply
    /// from, plus the request's trace, when one was recorded.
    ///
    /// The tracer is live when the request set `"trace":true` (the trace comes back as
    /// the second tuple element, for the envelope layer to attach) or when the
    /// `WPINQ_TRACE` sink is configured (the trace goes to the sink; the response stays
    /// clean unless the request also asked). With neither, the tracer is the inert
    /// [`Tracer::disabled`] — no clock reads, no allocation — and `None` comes back.
    /// Either way the release bytes are identical; only observation differs.
    /// `decode_started` is when the front door began parsing this request's line: the
    /// trace's clock starts there, with a `decode` span up to now.
    fn serve_sealed(
        &self,
        request: &MeasureRequest,
        decode_started: Option<Instant>,
    ) -> Result<(Arc<Sealed>, Option<Trace>), ServiceError> {
        let tracer = if request.trace || trace_sink_enabled() {
            let tracer = Tracer::enabled_since(decode_started.unwrap_or_else(Instant::now));
            if let Some(started) = decode_started {
                tracer.record_span_us("decode", started.elapsed().as_micros() as u64);
            }
            tracer
        } else {
            Tracer::disabled()
        };
        tracer.field("analyst", request.analyst.as_str());
        tracer.field("epsilon", request.epsilon);

        let result = self.serve_with_tracer(request, &tracer);
        let trace = tracer.finish();
        if let Some(trace) = &trace {
            if trace_sink_enabled() {
                emit_to_sink(trace);
            }
        }
        result.map(|sealed| (sealed, if request.trace { trace } else { None }))
    }

    fn serve_with_tracer(
        &self,
        request: &MeasureRequest,
        tracer: &Tracer,
    ) -> Result<Arc<Sealed>, ServiceError> {
        let prepared = self.prepare(request, tracer)?;
        for (dataset, _) in &prepared.generations {
            tracer.field("dataset", dataset.as_str());
        }
        let evaluate = || {
            let mut rng = self.child_rng();
            self.charge_and_evaluate(request, &prepared, &mut rng, tracer)
                .map(Sealed::new)
        };
        if !self.cache_enabled {
            tracer.field("cache", "bypass");
            return evaluate();
        }
        let key = (
            request.analyst.clone(),
            request.epsilon.to_bits(),
            prepared.canonical.clone(),
            prepared.generations.clone(),
        );
        // The `cache` span covers the lookup and any wait behind a racing identical
        // request; it ends where this request's own evaluation (and its spans) begins.
        let mut lookup = Some(tracer.span("cache"));
        let (sealed, hit) = self.cache.get_or_compute(key, || {
            lookup = None;
            evaluate()
        })?;
        drop(lookup);
        tracer.field("cache", if hit { "hit" } else { "miss" });
        if hit {
            self.audit
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .push(format!(
                "analyst {} replayed cached measurement {:016x} at epsilon {} (0 epsilon charged)",
                request.analyst,
                wpinq_expr::spec::fnv1a64(prepared.canonical.as_bytes()),
                request.epsilon
            ));
        }
        Ok(sealed)
    }

    /// The `remaining` quote for a response envelope, re-read from the live grants at
    /// assembly time. Cached responses are sealed artifacts computed once; quoting
    /// their stored `remaining` on a replay would report budgets the analyst has since
    /// spent down. Datasets whose grant has vanished fall back to the stored value.
    pub fn live_remaining(&self, analyst: &str, response: &MeasureResponse) -> Vec<(String, f64)> {
        response
            .remaining
            .iter()
            .map(|(dataset, stored)| {
                let live = self.budgets.remaining(analyst, dataset).unwrap_or(*stored);
                (dataset.clone(), live)
            })
            .collect()
    }

    /// Publishes service-level gauges onto the telemetry registry: per-grant ε spent
    /// and remaining (labelled by analyst and dataset) and the measurement cache's
    /// resident-entry count. Counters (requests, cache hits/misses/evictions, audit
    /// drops, pool dispatches) increment live and need no sync. Called by
    /// the `stats` op and the Prometheus exposition endpoint before rendering.
    pub fn sync_metrics(&self) {
        for (analyst, dataset, spent, remaining) in self.budgets.snapshot() {
            let labels = [("analyst", analyst.as_str()), ("dataset", dataset.as_str())];
            registry()
                .gauge(
                    "wpinq_budget_epsilon_spent",
                    &labels,
                    "Privacy budget spent by one (analyst, dataset) grant.",
                )
                .set(spent);
            registry()
                .gauge(
                    "wpinq_budget_epsilon_remaining",
                    &labels,
                    "Privacy budget remaining in one (analyst, dataset) grant.",
                )
                .set(remaining);
        }
        registry()
            .gauge(
                "wpinq_cache_resident_entries",
                &[],
                "Measurement-cache keys currently resident (filled or in flight).",
            )
            .set(self.cache.len() as f64);
    }

    /// The `{"op":"stats"}` response: every registry metric as deterministic JSON,
    /// wrapped in an `{"ok":true,"stats":…}` envelope.
    pub fn stats_json(&self) -> Json {
        self.sync_metrics();
        let stats =
            Json::parse(&registry().render_json()).expect("the registry renders well-formed JSON");
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            ("stats".to_string(), stats),
        ])
    }

    /// The concurrent JSON front door: parses a request envelope, serves it through
    /// [`serve`](Self::serve) (service noise, measurement cache, per-request tracing), and encodes the outcome with the request's `id` echoed.
    /// Errors come back as `{"ok":false,"id":…,"error":{"code":…,"message":…}}` instead
    /// of panicking. Also answers the sideband `{"op":"stats"}` request with the
    /// telemetry registry as JSON. This is the line handler every transport (stdin,
    /// TCP) calls; each call counts on [`REQUESTS_METRIC`] and observes its wall time
    /// on [`REQUEST_LATENCY_METRIC`].
    pub fn handle_line(&self, request_json: &str) -> String {
        let started = Instant::now();
        let response = self.handle_line_inner(request_json, started);
        request_latency_histogram().observe(started.elapsed().as_secs_f64() * 1e3);
        response
    }

    fn handle_line_inner(&self, request_json: &str, started: Instant) -> String {
        // The `stats` sideband op carries no measure-request header; a line without one
        // is parsed once, for both the probe and the request.
        let parsed = if request_json.contains(REQUEST_HEADER) {
            MeasureRequest::from_json(request_json)
        } else {
            match Json::parse(request_json).map_err(WireError::from) {
                Ok(json) if json.get("op").and_then(Json::as_str) == Some("stats") => {
                    requests_ok_counter().inc();
                    return self.stats_json().to_compact();
                }
                parsed => parsed.and_then(|json| MeasureRequest::from_json_value(&json)),
            }
        };
        let request = match parsed {
            Ok(request) => request,
            Err(error) => {
                // The envelope didn't parse far enough to trust an id.
                requests_error_counter().inc();
                return ServiceError::from(error).to_json_with_id(None).to_compact();
            }
        };
        let id = request.id.as_deref();
        match self.serve_sealed(&request, Some(started)) {
            Ok((sealed, trace)) => {
                requests_ok_counter().inc();
                let encode_started = Instant::now();
                let live = self.live_remaining(&request.analyst, &sealed.response);
                let out = sealed.envelope_text(id, &live, trace.as_ref(), request.encoding);
                let (encode_ms, bytes) = response_histograms();
                encode_ms.observe(encode_started.elapsed().as_secs_f64() * 1e3);
                bytes[request.encoding as usize].observe(out.len() as f64);
                out
            }
            Err(error) => {
                requests_error_counter().inc();
                error.to_json_with_id(id).to_compact()
            }
        }
    }

    /// [`handle_line`](Self::handle_line) with a caller-supplied noise source (cache
    /// bypassed): the deterministic front door replay tests drive.
    pub fn handle_json<R: Rng + ?Sized>(&self, request_json: &str, rng: &mut R) -> String {
        let request = match MeasureRequest::from_json(request_json) {
            Ok(request) => request,
            Err(error) => {
                return ServiceError::from(error).to_json_with_id(None).to_compact();
            }
        };
        let id = request.id.as_deref();
        match self.measure(&request, rng) {
            Ok(response) => {
                let sealed = Sealed::new(response);
                sealed.envelope_text(id, &sealed.response.remaining, None, request.encoding)
            }
            Err(error) => error.to_json_with_id(id).to_compact(),
        }
    }
}

/// Parses the `output_type` field of a successful response envelope.
pub fn response_output_type(response: &Json) -> Result<ValueType, WireError> {
    value_type_from_json(
        response
            .get("output_type")
            .ok_or_else(|| WireError::new("response missing 'output_type'"))?,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use wpinq_telemetry::TraceSpan;

    /// The streamed envelope against the tree envelope on a response no service run
    /// produces: nested tuple records, signed-zero / subnormal / non-finite counts, and
    /// names and text that need every kind of escape. A traced reply ends with the
    /// trace's own text, byte for byte.
    #[test]
    fn streamed_envelope_equals_the_tree_envelope_on_crafted_responses() {
        let record = |n: u64, i: i64| {
            Value::Tuple(vec![
                Value::U64(n),
                Value::Tuple(vec![
                    Value::I64(i),
                    Value::Bool(n.is_multiple_of(2)),
                    Value::Unit,
                ]),
            ])
        };
        let full = MeasureResponse {
            epsilon: 1e-7,
            output_type: ValueType::Tuple(vec![
                ValueType::U64,
                ValueType::Tuple(vec![ValueType::I64, ValueType::Bool, ValueType::Unit]),
            ]),
            release: vec![
                (record(0, i64::MIN), -0.0),
                (record(1, -1), 5e-324),
                (record(2, 0), -2.5e-310),
                (record(u64::MAX, i64::MAX), f64::NAN),
            ],
            charged: vec![("a\"b".into(), 4e-7), ("é\n".into(), -0.0)],
            remaining: vec![("a\"b".into(), 1e300), ("é\n".into(), f64::INFINITY)],
            explain: "line\n\t\"quoted\" \\ \u{1} é→𝛆".into(),
        };
        let empty = MeasureResponse {
            epsilon: 2.0,
            output_type: ValueType::Unit,
            release: Vec::new(),
            charged: Vec::new(),
            remaining: Vec::new(),
            explain: String::new(),
        };
        let live = [("a\"b".to_string(), 0.1 + 0.2)];
        let trace = Trace {
            fields: vec![
                ("analyst".into(), FieldValue::Str("a\"b\\\n\u{1}é→𝛆".into())),
                ("epsilon".into(), FieldValue::F64(1e-7)),
                ("nan".into(), FieldValue::F64(f64::NAN)),
                (
                    "analyze".into(),
                    FieldValue::Raw("{\"nodes\":[{\"shared\":true}]}".into()),
                ),
            ],
            spans: vec![
                TraceSpan {
                    name: "execute".into(),
                    parent: None,
                    start_us: 3,
                    dur_us: 12,
                    fields: vec![("rows".into(), FieldValue::U64(u64::MAX))],
                },
                TraceSpan {
                    name: "noise\t".into(),
                    parent: Some(0),
                    start_us: 5,
                    dur_us: 1,
                    fields: vec![("hit".into(), FieldValue::Bool(false))],
                },
            ],
        };
        let traced_tail = format!(",\"trace\":{}}}", trace.to_json());
        for response in [full, empty] {
            let sealed = Sealed::new(response);
            for encoding in [ResponseEncoding::Json, ResponseEncoding::Columnar] {
                for id in [None, Some("\u{7f}\"id\"\r")] {
                    for remaining in [None, Some(&live[..])] {
                        for trace in [None, Some(&trace)] {
                            let streamed = sealed.envelope_text(
                                id,
                                remaining.unwrap_or(&sealed.response.remaining),
                                trace,
                                encoding,
                            );
                            let tree = sealed
                                .response
                                .to_json_envelope(id, remaining, trace, encoding);
                            assert_eq!(streamed, tree.to_compact());
                            assert_eq!(Json::parse(&streamed), Ok(tree));
                            assert_eq!(trace.is_some(), streamed.ends_with(&traced_tail));
                        }
                    }
                }
            }
        }
    }
}
