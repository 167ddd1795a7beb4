//! Telemetry must be free at the service boundary: a request with `"trace":true`
//! releases the **same bytes** and debits the **same ε** as the identical request
//! without the flag, under every executor — and the envelope's budget quote is live,
//! even when the release itself is a cache replay.

use wpinq::plan::executor_for_threads;
use wpinq::prelude::*;
use wpinq_analyses::degree::degree_ccdf_plan_expr;
use wpinq_analyses::edges::{symmetric_edge_dataset, EDGES_DATASET};
use wpinq_expr::Json;
use wpinq_graph::Graph;
use wpinq_service::{MeasureRequest, MeasurementService, ResponseEncoding};

const SEED: u64 = 77;
const EPSILON: f64 = 0.25;

fn toy_graph() -> Graph {
    Graph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)])
}

fn service_for(threads: usize, budget: f64) -> MeasurementService {
    let service = MeasurementService::new()
        .with_executor(executor_for_threads(threads))
        .with_noise_seed(SEED);
    service
        .register(EDGES_DATASET, &symmetric_edge_dataset(&toy_graph()))
        .unwrap();
    service
        .grant("analyst", EDGES_DATASET, PrivacyBudget::new(budget))
        .unwrap();
    service
}

fn ccdf_request(trace: bool, id: &str) -> MeasureRequest {
    MeasureRequest {
        analyst: "analyst".into(),
        epsilon: EPSILON,
        spec: degree_ccdf_plan_expr(&Plan::source_expr(EDGES_DATASET))
            .to_spec()
            .expect("expression plans serialize"),
        id: Some(id.into()),
        trace,
        encoding: ResponseEncoding::Json,
    }
}

/// The payload fields tracing must not perturb, extracted from a response envelope.
fn payload(response: &str) -> (String, String, String) {
    let json = Json::parse(response).expect("response is JSON");
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(true),
        "{response}"
    );
    let field = |name: &str| json.get(name).expect(name).to_compact();
    (field("release"), field("charged"), field("remaining"))
}

/// Byte-identical releases and identical ε debits with `"trace":true` vs absent,
/// across the sequential, 2-shard, and 8-shard executors. Two services per executor
/// (same noise seed), one serving traced and one untraced requests, must agree on
/// every analyst-visible payload byte — the traced response merely carries an extra
/// `"trace"` field.
#[test]
fn traced_requests_release_identical_bytes_and_debits_across_executors() {
    for threads in [1usize, 2, 8] {
        let traced_service = service_for(threads, 10.0);
        let untraced_service = service_for(threads, 10.0);

        let traced = traced_service.handle_line(&ccdf_request(true, "t").to_json_string());
        let untraced = untraced_service.handle_line(&ccdf_request(false, "t").to_json_string());

        assert!(
            traced.contains("\"trace\":") && traced.contains("\"spans\":"),
            "trace:true response must carry the trace ({threads} threads): {traced}"
        );
        assert!(
            traced.contains("\"analyze\""),
            "the trace embeds the EXPLAIN ANALYZE report ({threads} threads)"
        );
        assert!(
            !untraced.contains("\"trace\":"),
            "untraced response stays clean ({threads} threads)"
        );
        assert_eq!(
            payload(&traced),
            payload(&untraced),
            "tracing must not perturb release/charged/remaining ({threads} threads)"
        );
        let spent_traced = 10.0 - traced_service.remaining("analyst", EDGES_DATASET).unwrap();
        let spent_untraced = 10.0
            - untraced_service
                .remaining("analyst", EDGES_DATASET)
                .unwrap();
        assert_eq!(
            spent_traced.to_bits(),
            spent_untraced.to_bits(),
            "tracing must not change the debit ({threads} threads)"
        );
    }
}

/// The trace flag is not part of the measurement-cache key: a traced repeat of an
/// untraced request replays the cached release bytes (zero extra ε) and still gets its
/// own per-request trace, marked as a cache hit.
#[test]
fn trace_flag_replays_the_cached_release() {
    let service = service_for(1, 10.0);
    let first = service.handle_line(&ccdf_request(false, "a").to_json_string());
    let spent = 10.0 - service.remaining("analyst", EDGES_DATASET).unwrap();
    let second = service.handle_line(&ccdf_request(true, "a").to_json_string());
    assert_eq!(
        payload(&first),
        payload(&second),
        "the cached payload replays byte-identically"
    );
    assert!(second.contains("\"cache\":\"hit\""), "{second}");
    let spent_after = 10.0 - service.remaining("analyst", EDGES_DATASET).unwrap();
    assert_eq!(
        spent.to_bits(),
        spent_after.to_bits(),
        "replay charges nothing"
    );
}

/// Regression: a cache-replayed envelope must quote the budgets as they stand *now*,
/// not as they stood when the entry was computed. An intervening (different) request
/// spends the grant down; the replay's `remaining` must reflect that.
#[test]
fn cache_replay_quotes_live_remaining() {
    let service = service_for(1, 10.0);

    let first = service.handle_line(&ccdf_request(false, "r1").to_json_string());
    let first_remaining = Json::parse(&first)
        .unwrap()
        .get("remaining")
        .expect("remaining")
        .to_compact();

    // A different plan (different ε ⇒ different cache key) spends more of the grant.
    let mut spender = ccdf_request(false, "spend");
    spender.epsilon = 0.5;
    let spent_response = service.handle_line(&spender.to_json_string());
    assert!(spent_response.contains("\"ok\":true"), "{spent_response}");

    // The replay's release is byte-identical, but its quote is live.
    let replay = service.handle_line(&ccdf_request(false, "r2").to_json_string());
    let replay_json = Json::parse(&replay).unwrap();
    assert_eq!(
        Json::parse(&first)
            .unwrap()
            .get("release")
            .unwrap()
            .to_compact(),
        replay_json.get("release").unwrap().to_compact(),
        "replayed release bytes are identical"
    );
    let replay_remaining = replay_json
        .get("remaining")
        .expect("remaining")
        .to_compact();
    assert_ne!(
        first_remaining, replay_remaining,
        "the replay must not quote the stale budget: {replay}"
    );
    let live = service.remaining("analyst", EDGES_DATASET).unwrap();
    assert!(
        replay_remaining.contains(&format!("{live}")),
        "the replay quotes the live grant ({live}): {replay_remaining}"
    );
}

/// The span names of a traced reply, with each span's parent index and duration.
fn spans(response: &str) -> Vec<(String, Option<u64>, u64)> {
    let json = Json::parse(response).expect("response is JSON");
    let spans = json
        .get("trace")
        .and_then(|t| t.get("spans"))
        .expect("spans");
    spans
        .as_arr()
        .expect("spans is an array")
        .iter()
        .map(|span| {
            (
                span.get("name").and_then(Json::as_str).unwrap().to_string(),
                span.get("parent").and_then(Json::as_u64),
                span.get("dur_us").and_then(Json::as_u64).unwrap(),
            )
        })
        .collect()
}

/// A trace covers the front door from the first byte of the line: `decode` (the
/// envelope parse, at the trace's origin) and `cache` (lookup plus any single-flight
/// wait) sit beside the pipeline spans. On a miss the `cache` span ends where
/// evaluation starts — `reserve`/`execute`/`commit` are its siblings, not its children
/// — and on a hit it is the only thing after `optimize`.
#[test]
fn traces_cover_decode_and_the_cache_lookup() {
    let service = service_for(1, 10.0);
    let names = |spans: &[(String, Option<u64>, u64)]| -> Vec<String> {
        spans.iter().map(|(name, _, _)| name.clone()).collect()
    };

    let miss = spans(&service.handle_line(&ccdf_request(true, "m").to_json_string()));
    assert_eq!(
        names(&miss),
        [
            "decode", "validate", "bind", "optimize", "cache", "reserve", "execute", "noise",
            "commit"
        ]
    );
    for (name, parent, _) in &miss {
        let expected = (name == "noise").then_some(6);
        assert_eq!(*parent, expected, "parent of '{name}'");
    }

    let hit = spans(&service.handle_line(&ccdf_request(true, "h").to_json_string()));
    assert_eq!(
        names(&hit),
        ["decode", "validate", "bind", "optimize", "cache"]
    );
    assert!(hit.iter().all(|(_, parent, _)| parent.is_none()));
    assert!(hit[0].2 > 0, "parsing a plan takes more than a microsecond");
}

/// Envelope assembly and reply size are recorded where a trace cannot reach (a trace
/// cannot contain its own serialization): one observation per successful reply, sizes
/// split by the encoding that was asked for.
#[test]
fn response_encode_time_and_size_are_observed_per_successful_reply() {
    use wpinq_service::{RESPONSE_BYTES_METRIC, RESPONSE_ENCODE_METRIC};
    let registry = wpinq_telemetry::registry();
    // Other tests in this process reply concurrently: counts only ever go up.
    let encodes = registry.histogram_count(RESPONSE_ENCODE_METRIC);
    let sizes = registry.histogram_count(RESPONSE_BYTES_METRIC);

    let service = service_for(1, 10.0);
    let mut columnar = ccdf_request(false, "c");
    columnar.encoding = ResponseEncoding::Columnar;
    let mut refused = ccdf_request(false, "x");
    refused.epsilon = 1e9;
    let lines = [ccdf_request(false, "j"), columnar, refused].map(|r| r.to_json_string());
    let replies = lines.each_ref().map(|line| service.handle_line(line));
    assert!(replies[2].contains("\"budget_exceeded\""), "{}", replies[2]);

    assert!(registry.histogram_count(RESPONSE_ENCODE_METRIC) >= encodes + 2);
    assert!(registry.histogram_count(RESPONSE_BYTES_METRIC) >= sizes + 2);
    let stats = service.handle_line("{\"op\":\"stats\"}");
    for series in [
        "wpinq_response_encode_ms",
        "wpinq_response_bytes{encoding=\\\"json\\\"}",
        "wpinq_response_bytes{encoding=\\\"columnar\\\"}",
    ] {
        assert!(stats.contains(series), "stats missing '{series}': {stats}");
    }
}

/// The `{"op":"stats"}` sideband op exposes the registry over the normal front door.
#[test]
fn stats_op_reports_request_and_cache_metrics() {
    let service = service_for(1, 10.0);
    let _ = service.handle_line(&ccdf_request(false, "s1").to_json_string());
    let _ = service.handle_line(&ccdf_request(false, "s1").to_json_string());

    let stats = service.handle_line("{\"op\":\"stats\"}");
    let json = Json::parse(&stats).expect("stats is JSON");
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(true),
        "{stats}"
    );
    let rendered = json.get("stats").expect("stats body").to_compact();
    for family in [
        "wpinq_requests_total",
        "wpinq_request_latency_ms",
        "wpinq_cache_hits_total",
        "wpinq_budget_epsilon_remaining",
        "wpinq_budget_epsilon_spent",
    ] {
        assert!(
            rendered.contains(family),
            "stats missing '{family}': {rendered}"
        );
    }
}

/// The audit ring keeps the most recent entries, counts every drop, and never grows
/// past its capacity.
#[test]
fn audit_ring_is_bounded_and_counts_drops() {
    let service = MeasurementService::new()
        .with_audit_capacity(3)
        .with_noise_seed(SEED);
    service
        .register(EDGES_DATASET, &symmetric_edge_dataset(&toy_graph()))
        .unwrap();
    service
        .grant("analyst", EDGES_DATASET, PrivacyBudget::new(100.0))
        .unwrap();
    // Distinct ε per request ⇒ distinct cache keys ⇒ five admitted measurements.
    for k in 0..5u32 {
        let mut request = ccdf_request(false, "audit");
        request.epsilon = 0.1 + f64::from(k) * 0.01;
        let response = service.handle_line(&request.to_json_string());
        assert!(response.contains("\"ok\":true"), "{response}");
    }
    let log = service.audit_log();
    assert_eq!(log.len(), 3, "the ring keeps exactly its capacity");
    assert_eq!(
        service.audit_dropped(),
        2,
        "every aged-out entry is counted"
    );
    assert!(
        log.last().unwrap().contains("0.14"),
        "the most recent entry survives: {log:?}"
    );
}
