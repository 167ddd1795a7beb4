//! End-to-end service tests: every built-in analysis, re-expressed in the expression
//! language, round-trips through `PlanSpec` **bytes** and releases byte-identically to
//! its closure-built twin — while the service debits exactly `multiplicity × ε` from the
//! right analyst's grant. Error paths must reject without charging.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use wpinq::plan::{PlanBindings, SequentialExecutor};
use wpinq::prelude::*;
use wpinq::PlanSpec;
use wpinq_analyses::degree::{
    degree_ccdf_plan, degree_ccdf_plan_expr, degree_sequence_plan, degree_sequence_plan_expr,
};
use wpinq_analyses::edges::{
    edge_count_plan, edge_count_plan_expr, symmetric_edge_dataset, EDGES_DATASET,
};
use wpinq_analyses::jdd::{jdd_plan, jdd_plan_expr};
use wpinq_analyses::nodes::{node_count_plan, node_count_plan_expr, nodes_plan, nodes_plan_expr};
use wpinq_analyses::squares::{sbd_plan, sbd_plan_expr};
use wpinq_analyses::triangles::{tbd_plan, tbd_plan_expr};
use wpinq_expr::Json;
use wpinq_graph::Graph;
use wpinq_service::{
    decode_response, release_to_json, Client, ClientError, InProcess, MeasureRequest,
    MeasurementService, ResponseEncoding, TypedRelease,
};

const SEED: u64 = 2014;
const EPSILON: f64 = 0.25;

fn toy_graph() -> Graph {
    // Two triangles sharing a vertex plus a tail: enough structure for every query.
    Graph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)])
}

fn service_with(graph: &Graph, analyst: &str, budget: f64) -> MeasurementService {
    let service = MeasurementService::new();
    service
        .register(EDGES_DATASET, &symmetric_edge_dataset(graph))
        .unwrap();
    service
        .grant(analyst, EDGES_DATASET, PrivacyBudget::new(budget))
        .unwrap();
    service
}

/// Measures `plan` as `analyst` through the JSON front door with a pinned noise RNG (the
/// service's own source, never shared with analysts in production), decoding the reply
/// as a client does.
fn measure_pinned<T: ExprRecord>(
    service: &MeasurementService,
    analyst: &str,
    plan: &Plan<T>,
    epsilon: f64,
    rng: &mut StdRng,
) -> Result<TypedRelease<T>, ClientError> {
    let request = MeasureRequest {
        analyst: analyst.to_string(),
        epsilon,
        spec: plan.to_spec().ok_or(ClientError::NotSerializable)?,
        id: None,
        trace: false,
        encoding: ResponseEncoding::Json,
    };
    decode_response(service.handle_json(&request.to_json_string(), rng), epsilon)
}

/// The local reference: the closure-built plan, measured in its typed form.
fn local_release<T: ExprRecord>(
    plan: &Plan<T>,
    source: &Plan<(u32, u32)>,
    graph: &Graph,
) -> String {
    let mut bindings = PlanBindings::new();
    bindings.bind(source, symmetric_edge_dataset(graph));
    let counts = plan.noisy_count(EPSILON).release_with(
        &bindings,
        &SequentialExecutor,
        &mut StdRng::seed_from_u64(SEED),
    );
    release_to_json(&counts)
}

/// Ships the expr plan through JSON bytes and returns (release JSON, charged ε).
fn service_release<T: ExprRecord>(
    service: &MeasurementService,
    plan: &Plan<T>,
    analyst: &str,
) -> (String, f64) {
    // Force the full byte round trip: Plan → PlanSpec → bytes → PlanSpec → request.
    let spec = plan.to_spec().expect("expression plans serialize");
    let bytes = spec.to_json_string();
    let reparsed = PlanSpec::from_json(&bytes).expect("bytes parse back");
    assert_eq!(reparsed, spec, "spec round-trips through bytes");
    assert_eq!(reparsed.to_json_string(), bytes, "encoding is canonical");

    let request = MeasureRequest {
        analyst: analyst.to_string(),
        epsilon: EPSILON,
        spec: reparsed,
        id: None,
        trace: false,
        encoding: ResponseEncoding::Json,
    };
    let response = service.handle_json(&request.to_json_string(), &mut StdRng::seed_from_u64(SEED));
    let parsed = Json::parse(&response).expect("response is JSON");
    assert_eq!(
        parsed.get("ok").and_then(Json::as_bool),
        Some(true),
        "request rejected: {response}"
    );
    let release = parsed.get("release").expect("release present").to_compact();
    let charged: f64 = parsed
        .get("charged")
        .and_then(Json::as_arr)
        .expect("charged present")
        .iter()
        .map(|pair| pair.as_arr().unwrap()[1].as_f64().unwrap())
        .sum();
    (release, charged)
}

/// The acceptance matrix: every built-in analysis, closure vs. wire-shipped expression
/// form, byte-identical releases and the quoted multiplicities charged.
#[test]
fn every_builtin_analysis_round_trips_byte_identically_with_correct_debits() {
    let graph = toy_graph();
    let cases: Vec<(&str, u32)> = vec![
        ("degree_ccdf", 1),
        ("degree_sequence", 1),
        ("nodes", 1),
        ("node_count", 1),
        ("edge_count", 1),
        ("tbd", 9),
        ("jdd", 4),
        ("sbd", 12),
    ];

    for (name, multiplicity) in cases {
        let analyst = format!("analyst-{name}");
        let service = service_with(&graph, &analyst, 50.0);
        let source = Plan::<(u32, u32)>::source_expr(EDGES_DATASET);

        let (local, remote) = match name {
            "degree_ccdf" => (
                local_release(&degree_ccdf_plan(&source), &source, &graph),
                service_release(&service, &degree_ccdf_plan_expr(&source), &analyst),
            ),
            "degree_sequence" => (
                local_release(&degree_sequence_plan(&source), &source, &graph),
                service_release(&service, &degree_sequence_plan_expr(&source), &analyst),
            ),
            "nodes" => (
                local_release(&nodes_plan(&source), &source, &graph),
                service_release(&service, &nodes_plan_expr(&source), &analyst),
            ),
            "node_count" => (
                local_release(&node_count_plan(&source), &source, &graph),
                service_release(&service, &node_count_plan_expr(&source), &analyst),
            ),
            "edge_count" => (
                local_release(&edge_count_plan(&source), &source, &graph),
                service_release(&service, &edge_count_plan_expr(&source), &analyst),
            ),
            "tbd" => (
                local_release(&tbd_plan(&source, 2), &source, &graph),
                service_release(&service, &tbd_plan_expr(&source, 2), &analyst),
            ),
            "jdd" => (
                local_release(&jdd_plan(&source), &source, &graph),
                service_release(&service, &jdd_plan_expr(&source), &analyst),
            ),
            "sbd" => (
                local_release(&sbd_plan(&source), &source, &graph),
                service_release(&service, &sbd_plan_expr(&source), &analyst),
            ),
            _ => unreachable!(),
        };
        let (remote_release, charged) = remote;
        assert_eq!(
            remote_release, local,
            "{name}: wire-shipped release differs from the local typed release"
        );
        let expected = multiplicity as f64 * EPSILON;
        assert!(
            (charged - expected).abs() < 1e-12,
            "{name}: charged {charged}, expected {expected}"
        );
        assert!(
            (service.remaining(&analyst, EDGES_DATASET).unwrap() - (50.0 - expected)).abs() < 1e-9,
            "{name}: remaining budget off"
        );
    }
}

#[test]
fn typed_client_round_trips_records() {
    let graph = toy_graph();
    let service = MeasurementService::new();
    service
        .register(EDGES_DATASET, &symmetric_edge_dataset(&graph))
        .unwrap();
    service
        .grant("alice", EDGES_DATASET, PrivacyBudget::unlimited())
        .unwrap();
    let source = Plan::<(u32, u32)>::source_expr(EDGES_DATASET);
    let plan = degree_ccdf_plan_expr(&source);
    let service = Arc::new(service);
    let client = Client::new(InProcess::new(service.clone()), "alice");
    let release = client.measure(&plan, 1e6).unwrap();
    // At ε = 10⁶ the noisy CCDF is essentially exact; thresholds 0..max_degree appear.
    let exact = wpinq_graph::stats::degree_ccdf(&graph);
    assert_eq!(release.records.len(), exact.len());
    for (i, count) in exact.iter().enumerate() {
        let got = release.get(&(i as u64)).expect("threshold observed");
        assert!((got - *count as f64).abs() < 0.01, "ccdf[{i}]: {got}");
    }
    assert_eq!(release.charged, vec![(EDGES_DATASET.to_string(), 1e6)]);
    assert!(release.explain.contains("Shave(step=1)"));
    // The audit log kept the analyst-visible plan.
    assert!(service
        .audit_log()
        .iter()
        .any(|entry| entry.contains("alice")));
}

#[test]
fn closure_plans_are_rejected_client_side() {
    let graph = toy_graph();
    let service = service_with(&graph, "alice", 10.0);
    let source = Plan::<(u32, u32)>::source_expr(EDGES_DATASET);
    let client = Client::new(InProcess::new(Arc::new(service)), "alice");
    let err = client.measure(&degree_ccdf_plan(&source), 0.5).unwrap_err();
    assert!(matches!(err, ClientError::NotSerializable));
}

#[test]
fn missing_grant_and_exhausted_budget_charge_nothing() {
    let graph = toy_graph();
    let service = service_with(&graph, "alice", 1.0);
    let source = Plan::<(u32, u32)>::source_expr(EDGES_DATASET);
    let plan = tbd_plan_expr(&source, 1); // multiplicity 9
    let mut rng = StdRng::seed_from_u64(1);

    // Bob has no grant at all.
    let err = measure_pinned(&service, "bob", &plan, 0.1, &mut rng).unwrap_err();
    assert!(err.to_string().contains("no budget grant"), "{err}");

    // Alice's grant cannot afford 9 × 0.2.
    let err = measure_pinned(&service, "alice", &plan, 0.2, &mut rng).unwrap_err();
    assert!(err.to_string().contains("exceeded"), "{err}");
    assert_eq!(
        service.remaining("alice", EDGES_DATASET),
        Some(1.0),
        "rejected measurement must charge nothing"
    );

    // 9 × 0.1 exactly fails nothing — then the budget is drained.
    let release = measure_pinned(&service, "alice", &plan, 0.1, &mut rng).unwrap();
    assert!((release.remaining[0].1 - 0.1).abs() < 1e-9);
}

#[test]
fn unknown_datasets_and_type_mismatches_are_rejected() {
    let graph = toy_graph();
    let service = service_with(&graph, "alice", 10.0);
    let mut rng = StdRng::seed_from_u64(4);

    // Unknown dataset name.
    let stranger = Plan::<(u32, u32)>::source_expr("not-registered");
    let err = measure_pinned(
        &service,
        "alice",
        &edge_count_plan_expr(&stranger),
        0.1,
        &mut rng,
    )
    .unwrap_err();
    assert!(err.to_string().contains("unknown dataset"), "{err}");

    // Declared type differs from the registered one.
    let mistyped = Plan::<u64>::source_expr(EDGES_DATASET);
    let err = measure_pinned(
        &service,
        "alice",
        &mistyped.select_expr::<u64>(wpinq::Expr::input()),
        0.1,
        &mut rng,
    )
    .unwrap_err();
    assert!(err.to_string().contains("registered as"), "{err}");
    assert_eq!(service.remaining("alice", EDGES_DATASET), Some(10.0));
}

#[test]
fn redundant_requests_are_charged_for_the_deduplicated_plan() {
    // Two independently built copies of the degree chain, merged by union: the service's
    // optimizer-based accounting charges 1ε, not 2ε — and the released bytes still match
    // the unoptimized evaluation (bitwise guarantee of the rewrite pass). The level is
    // pinned to Full so the assertion holds under the WPINQ_OPTIMIZE=0 CI matrix leg.
    let graph = toy_graph();
    let service =
        service_with(&graph, "alice", 10.0).with_optimize_level(wpinq::plan::OptimizeLevel::Full);
    let source = Plan::<(u32, u32)>::source_expr(EDGES_DATASET);
    let merged = degree_ccdf_plan_expr(&source).union(&degree_ccdf_plan_expr(&source));
    let release = measure_pinned(
        &service,
        "alice",
        &merged,
        EPSILON,
        &mut StdRng::seed_from_u64(SEED),
    )
    .unwrap();
    assert_eq!(release.charged, vec![(EDGES_DATASET.to_string(), EPSILON)]);

    // Byte-identical to the single chain measured locally (Union(X, X) = X).
    let local = local_release(&degree_ccdf_plan(&source), &source, &graph);
    let parsed = Json::parse(&release.raw).unwrap();
    assert_eq!(parsed.get("release").unwrap().to_compact(), local);
}
