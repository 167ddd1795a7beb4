//! The analyst-side client: typed plans in, typed noisy releases out, with **only JSON
//! text** crossing the boundary in between.
//!
//! [`Client`] is generic over a [`Transport`]: the same typed `measure::<T>` code drives
//! an in-process service ([`InProcess`](crate::transport::InProcess)) and a network one
//! ([`Tcp`](crate::transport::Tcp)) — every test that passes in-process passes unchanged
//! over a socket, because the transport carries the very same envelope bytes. Each
//! request is stamped with a correlation id (echoed by a v2 server) unless the caller
//! supplies or suppresses one via [`Client::measure_with_id`].
//!
//! Replies decode in one pass from bytes to typed records ([`decode_response`]); a
//! caller that drives [`MeasurementService::handle_json`](crate::MeasurementService::handle_json)
//! with its own noise RNG (the deterministic replay path) decodes that reply the same way.

use std::sync::atomic::{AtomicU64, Ordering};

use wpinq::value::{ExprRecord, Value, ValueType};
use wpinq::Plan;
use wpinq_expr::{value_from_reader, Json, JsonError, PlanSpec, Reader, WireError};

use crate::release::release_records_from_columnar;
use crate::service::{response_output_type, MeasureRequest, ResponseEncoding};
use crate::transport::Transport;

/// A typed view of a successful measurement response.
#[derive(Debug)]
pub struct TypedRelease<T: ExprRecord> {
    /// The measurement ε.
    pub epsilon: f64,
    /// Noisy counts in sorted record order.
    pub records: Vec<(T, f64)>,
    /// Per-dataset ε charged.
    pub charged: Vec<(String, f64)>,
    /// Per-dataset budget remaining after the charge (as of first computation, when the
    /// response was served from the measurement cache).
    pub remaining: Vec<(String, f64)>,
    /// The analyst-visible plan the service logged.
    pub explain: String,
    /// The correlation id the server echoed, when the request carried one.
    pub id: Option<String>,
    /// The raw response bytes (useful for byte-equality assertions).
    pub raw: String,
}

impl<T: ExprRecord> TypedRelease<T> {
    /// The noisy count of `record`, `0.0`-centred noise excluded — absent records were
    /// simply not observed (query the service again at the record's key if needed).
    pub fn get(&self, record: &T) -> Option<f64> {
        self.records
            .iter()
            .find(|(r, _)| r == record)
            .map(|(_, v)| *v)
    }
}

/// Why a client-side measurement failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The plan carries closure-built payloads and cannot be serialized.
    NotSerializable,
    /// The service rejected the request. `code` is the stable machine-readable
    /// [`ServiceError::code`](crate::ServiceError::code) (`"unknown"` for a pre-v2
    /// server that sent only a message).
    Rejected {
        /// The stable error code from the response envelope.
        code: String,
        /// The human-readable message from the response envelope.
        message: String,
    },
    /// The transport failed to deliver the request or the response.
    Transport(String),
    /// The response could not be decoded.
    Wire(WireError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::NotSerializable => write!(
                f,
                "plan contains closure-built payloads; build it with the *_expr \
                 constructors to ship it"
            ),
            ClientError::Rejected { code, message } => {
                write!(f, "service rejected the request [{code}]: {message}")
            }
            ClientError::Transport(msg) => write!(f, "transport failure: {msg}"),
            ClientError::Wire(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<WireError> for ClientError {
    fn from(e: WireError) -> Self {
        ClientError::Wire(e)
    }
}

impl From<JsonError> for ClientError {
    fn from(e: JsonError) -> Self {
        ClientError::Wire(e.into())
    }
}

/// Decodes one response envelope into a typed release, in one pass over its bytes: the
/// `release` array goes straight to typed records, a `release_columnar` frame is read as a
/// borrowed string, and `trace` and unknown members are skipped. Members may come in any
/// order; the first of duplicated members wins. Understands both the v2 error shape
/// (`"error":{"code":…,"message":…}`) and the legacy v1 plain-string form.
pub fn decode_response<T: ExprRecord>(
    raw: String,
    epsilon: f64,
) -> Result<TypedRelease<T>, ClientError> {
    let mut reader = Reader::new(&raw);
    let mut head: Vec<(String, Json)> = Vec::new();
    let mut release = None;
    let mut columnar = None;
    if reader.peek()? == b'{' {
        reader.begin()?;
        while let Some(key) = reader.next_key()? {
            match &*key {
                // Small members, kept as documents; `Json::get` finds the first of a pair.
                "ok" | "id" | "output_type" | "charged" | "remaining" | "explain" | "error" => {
                    let value = Json::read(&mut reader)?;
                    head.push((key.into_owned(), value));
                }
                // Decoded as the plan's type at once; `output_type` is checked against it
                // below, wherever it stands. A release that fails to decode is skipped
                // from its start, so the envelope is still read to its end.
                "release" if release.is_none() => {
                    let start = reader.clone();
                    release = Some(read_release(&mut reader, &T::value_type()));
                    if release.as_ref().is_some_and(Result::is_err) {
                        reader = start;
                        reader.skip_value()?;
                    }
                }
                "release_columnar" if columnar.is_none() => {
                    columnar = Some(match reader.peek()? {
                        b'"' => Some(reader.str()?),
                        _ => reader.skip_value().map(|()| None)?,
                    });
                }
                _ => reader.skip_value()?,
            }
        }
    } else {
        reader.skip_value()?;
    }
    reader.end()?;
    let response = Json::Obj(head);
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        let error = response.get("error");
        let code = error
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_string();
        let message = error
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .or_else(|| error.and_then(Json::as_str))
            .unwrap_or("malformed error response")
            .to_string();
        return Err(ClientError::Rejected { code, message });
    }
    let output_type = response_output_type(&response)?;
    if output_type != T::value_type() {
        return Err(ClientError::Wire(WireError::new(format!(
            "response records have type {output_type}, expected {}",
            T::value_type()
        ))));
    }
    let records = match release {
        Some(records) => records?,
        None => {
            let text = columnar
                .flatten()
                .ok_or_else(|| WireError::new("response missing 'release' / 'release_columnar'"))?;
            release_records_from_columnar(&text, &output_type)?
                .into_iter()
                .map(|(value, noisy)| Ok((fit(&value)?, noisy)))
                .collect::<Result<_, WireError>>()?
        }
    };
    let pairs = |key: &str| -> Result<Vec<(String, f64)>, WireError> {
        response
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| WireError::new(format!("response missing '{key}'")))?
            .iter()
            .map(|pair| {
                let pair = pair
                    .as_arr()
                    .filter(|p| p.len() == 2)
                    .ok_or_else(|| WireError::new(format!("malformed '{key}' entry")))?;
                let name = pair[0]
                    .as_str()
                    .ok_or_else(|| WireError::new(format!("malformed '{key}' name")))?;
                let eps = pair[1]
                    .as_f64()
                    .ok_or_else(|| WireError::new(format!("malformed '{key}' value")))?;
                Ok((name.to_string(), eps))
            })
            .collect()
    };
    Ok(TypedRelease {
        epsilon,
        records,
        charged: pairs("charged")?,
        remaining: pairs("remaining")?,
        explain: response
            .get("explain")
            .and_then(Json::as_str)
            .unwrap_or_default()
            .to_string(),
        id: response
            .get("id")
            .and_then(Json::as_str)
            .map(str::to_string),
        raw,
    })
}

/// The typed record of a decoded release value.
fn fit<T: ExprRecord>(value: &Value) -> Result<T, WireError> {
    T::from_value(value).ok_or_else(|| WireError::new("release record does not fit the plan type"))
}

/// Reads a `release` array of `[record, noisy value]` pairs straight to typed records.
/// Accepts the arrays [`release_records_from_response`](crate::release_records_from_response)
/// accepts, and decodes them to the same records.
fn read_release<T: ExprRecord>(
    reader: &mut Reader<'_>,
    ty: &ValueType,
) -> Result<Vec<(T, f64)>, WireError> {
    let pair = || WireError::new("release entry must be a [record, value] pair");
    if reader.peek()? != b'[' {
        return Err(WireError::new("release must be a JSON array"));
    }
    reader.begin()?;
    let mut records = Vec::new();
    let mut record = Value::Unit;
    while reader.has_next()? {
        if reader.peek()? != b'[' {
            return Err(pair());
        }
        reader.begin()?;
        if !reader.has_next()? {
            return Err(pair());
        }
        value_from_reader(reader, ty, &mut record)?;
        if !reader.has_next()? {
            return Err(pair());
        }
        let noisy = reader
            .parse()?
            .ok_or_else(|| WireError::new("release value must be a number"))?;
        if reader.has_next()? {
            return Err(pair());
        }
        records.push((fit(&record)?, noisy));
    }
    Ok(records)
}

/// A transport-agnostic analyst client bound to one analyst identity.
///
/// Cheap per-call state only: plans serialize to [`PlanSpec`] envelopes, the transport
/// carries the bytes, and responses decode back to typed records. The client is
/// `Send + Sync` whenever its transport is, so one client can serve many analyst
/// threads (each request is independent).
pub struct Client<T: Transport> {
    transport: T,
    analyst: String,
    trace: bool,
    encoding: ResponseEncoding,
    next_id: AtomicU64,
}

impl<T: Transport> Client<T> {
    /// A client speaking for `analyst` over `transport`.
    pub fn new(transport: T, analyst: impl Into<String>) -> Self {
        Client {
            transport,
            analyst: analyst.into(),
            trace: false,
            encoding: ResponseEncoding::Json,
            next_id: AtomicU64::new(1),
        }
    }

    /// Stamps every subsequent request with `"trace": true`, so the server attaches its
    /// per-request trace to each response (readable off [`TypedRelease::raw`]). The flag
    /// never perturbs the release: traced and untraced requests share one cache key and
    /// release byte-identical payloads.
    pub fn with_tracing(mut self, on: bool) -> Self {
        self.trace = on;
        self
    }

    /// Selects the release encoding subsequent responses carry (the decoder understands
    /// both, so this only changes the wire bytes — the decoded records are identical
    /// under either encoding, and the cache key is unaffected).
    pub fn with_encoding(mut self, encoding: ResponseEncoding) -> Self {
        self.encoding = encoding;
        self
    }

    /// The underlying transport.
    pub fn transport(&self) -> &T {
        &self.transport
    }

    /// Serializes `plan`, submits it at `epsilon`, and decodes the typed release. The
    /// request is stamped with a fresh `analyst-N` correlation id.
    pub fn measure<R: ExprRecord>(
        &self,
        plan: &Plan<R>,
        epsilon: f64,
    ) -> Result<TypedRelease<R>, ClientError> {
        let id = format!(
            "{}-{}",
            self.analyst,
            self.next_id.fetch_add(1, Ordering::Relaxed)
        );
        self.measure_with_id(plan, epsilon, Some(id))
    }

    /// [`measure`](Self::measure) with an explicit correlation id (or none). Replaying
    /// the *same* plan, ε, and id produces byte-identical request lines — and, against
    /// a caching service, byte-identical response lines.
    pub fn measure_with_id<R: ExprRecord>(
        &self,
        plan: &Plan<R>,
        epsilon: f64,
        id: Option<String>,
    ) -> Result<TypedRelease<R>, ClientError> {
        let spec = plan.to_spec().ok_or(ClientError::NotSerializable)?;
        self.measure_spec_with_id(spec, epsilon, id)
    }

    /// [`measure_with_id`](Self::measure_with_id) for an already-serialized plan.
    pub fn measure_spec_with_id<R: ExprRecord>(
        &self,
        spec: PlanSpec,
        epsilon: f64,
        id: Option<String>,
    ) -> Result<TypedRelease<R>, ClientError> {
        let request = MeasureRequest {
            analyst: self.analyst.clone(),
            epsilon,
            spec,
            id,
            trace: self.trace,
            encoding: self.encoding,
        };
        let raw = self.transport.roundtrip(&request.to_json_string())?;
        decode_response(raw, epsilon)
    }
}
