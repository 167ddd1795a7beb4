//! Golden-fixture pins of the wire formats.
//!
//! The fixture at `tests/fixtures/degree_planspec.json` is the degree-CCDF workload as
//! this build serializes it, and `tests/fixtures/measure_request_v2.json` is the full
//! version-2 request envelope wrapping it. CI fails when the emitted bytes drift from a
//! fixture: any intentional encoding change must bump the relevant version
//! ([`WIRE_VERSION`] / [`REQUEST_VERSION`]) *and* regenerate the fixture (run these
//! tests with `UPDATE_WIRE_FIXTURE=1` to rewrite them) — silent drift would strand
//! every shipped plan and stored request log. Version-1 request envelopes must keep
//! parsing: analysts hold recorded requests.

use wpinq::{Plan, PlanSpec};
use wpinq_analyses::degree::degree_ccdf_plan_expr;
use wpinq_analyses::edges::{Edge, EDGES_DATASET};
use wpinq_expr::{Json, WIRE_VERSION};
use wpinq_service::{MeasureRequest, MeasurementService, ResponseEncoding, REQUEST_VERSION};

const FIXTURE: &str = include_str!("fixtures/degree_planspec.json");
const REQUEST_FIXTURE: &str = include_str!("fixtures/measure_request_v2.json");

fn current_spec() -> PlanSpec {
    let source = Plan::<Edge>::source_expr(EDGES_DATASET);
    degree_ccdf_plan_expr(&source)
        .to_spec()
        .expect("degree workload serializes")
}

#[test]
fn degree_workload_matches_the_committed_wire_fixture() {
    let emitted = current_spec().to_json_pretty();
    if std::env::var_os("UPDATE_WIRE_FIXTURE").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/degree_planspec.json"
        );
        std::fs::write(path, &emitted).expect("fixture rewritten");
    }
    assert_eq!(
        emitted, FIXTURE,
        "PlanSpec wire format drifted from the committed fixture. If the change is \
         intentional, bump wpinq_expr::WIRE_VERSION and regenerate the fixture with \
         UPDATE_WIRE_FIXTURE=1; otherwise fix the encoding."
    );
}

#[test]
fn fixture_version_matches_this_build() {
    let parsed = Json::parse(FIXTURE).expect("fixture is JSON");
    assert_eq!(
        parsed.get(wpinq_expr::WIRE_HEADER).and_then(Json::as_u64),
        Some(u64::from(WIRE_VERSION)),
        "fixture was generated by a different wire version"
    );
    // And the fixture itself must parse, validate, and re-serialize canonically.
    let spec = PlanSpec::from_json(FIXTURE).expect("fixture parses");
    assert!(spec.validate().is_ok());
    assert_eq!(spec, current_spec());
}

fn current_request() -> MeasureRequest {
    MeasureRequest {
        analyst: "fixture-analyst".into(),
        epsilon: 0.25,
        spec: current_spec(),
        id: Some("req-1".into()),
        trace: false,
        encoding: ResponseEncoding::Json,
    }
}

#[test]
fn measure_request_matches_the_committed_v2_fixture() {
    let emitted = format!("{}\n", current_request().to_json_string());
    if std::env::var_os("UPDATE_WIRE_FIXTURE").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/measure_request_v2.json"
        );
        std::fs::write(path, &emitted).expect("fixture rewritten");
    }
    assert_eq!(
        emitted, REQUEST_FIXTURE,
        "request envelope drifted from the committed fixture. If the change is \
         intentional, bump REQUEST_VERSION and regenerate with UPDATE_WIRE_FIXTURE=1; \
         otherwise fix the encoding."
    );
    // The fixture parses back to the very same request (id included), and this build
    // emits version 2.
    let parsed = MeasureRequest::from_json(REQUEST_FIXTURE.trim()).expect("fixture parses");
    assert_eq!(parsed, current_request());
    assert_eq!(REQUEST_VERSION, 2);
}

#[test]
fn version_1_request_envelopes_still_parse() {
    // A pre-`id` envelope, exactly as a version-1 client emits it.
    let v1 = format!(
        "{{\"wpinq_measure_request\":1,\"analyst\":\"old-client\",\"epsilon\":0.5,\
         \"plan\":{}}}",
        current_spec().to_json_string()
    );
    let parsed = MeasureRequest::from_json(&v1).expect("v1 envelope parses");
    assert_eq!(parsed.analyst, "old-client");
    assert_eq!(parsed.epsilon, 0.5);
    assert_eq!(parsed.id, None, "v1 has no id");
    assert_eq!(parsed.spec, current_spec());

    // Versions this build does not speak are refused with a version message.
    let future = v1.replace("\"wpinq_measure_request\":1", "\"wpinq_measure_request\":3");
    let err = MeasureRequest::from_json(&future).unwrap_err();
    assert!(err.to_string().contains("unsupported request version 3"));
}

/// Lines without the request header reach the front door's `stats` probe, and every one
/// that is not `{"op":"stats"}` is refused with these exact bytes. A line carrying the
/// header is read as a request even when it names the `stats` op.
#[test]
fn header_less_lines_get_their_pinned_replies() {
    let service = MeasurementService::new();
    let wire_error = |message: &str| {
        format!("{{\"ok\":false,\"error\":{{\"code\":\"wire\",\"message\":\"wire error: {message}\"}}}}")
    };
    let missing_header = wire_error("missing 'wpinq_measure_request' header");
    assert_eq!(
        service.handle_line(&"[".repeat(200 << 10)),
        wire_error("JSON error at byte 128: nesting deeper than 128 levels")
    );
    assert_eq!(service.handle_line("{}"), missing_header);
    assert_eq!(service.handle_line("{\"op\":\"nope\"}"), missing_header);
    assert_eq!(
        service.handle_line("{\"wpinq_measure_request\":2,\"op\":\"stats\"}"),
        wire_error("missing 'analyst'")
    );

    let stats = service.handle_line("{\"op\":\"stats\"}");
    let json = Json::parse(&stats).expect("stats is JSON");
    assert_eq!(
        json.get("ok").and_then(Json::as_bool),
        Some(true),
        "{stats}"
    );
    assert!(
        json.get("stats")
            .is_some_and(|body| body.to_compact().contains("wpinq_requests_total")),
        "{stats}"
    );
}
