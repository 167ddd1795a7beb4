//! The agent model across a (simulated) process boundary: analysts ship expression-built
//! plans to a measurement service that owns the data and the budgets, and get back only
//! noisy releases.
//!
//! ```text
//! cargo run --release --example measurement_service
//! ```
//!
//! The example registers a power-law graph's symmetric edge dataset, grants two analysts
//! independent budgets, and drives the built-in analyses (degree CCDF, node count,
//! Triangles-by-Degree) through the JSON front door — then verifies that the bytes the
//! service returned are identical to a local, typed, closure-built measurement with the
//! same seed, and that every grant was debited by exactly `multiplicity × ε`.

use rand::rngs::StdRng;
use rand::SeedableRng;

use wpinq::plan::{PlanBindings, SequentialExecutor};
use wpinq::{ExprRecord, Plan, PrivacyBudget};
use wpinq_analyses::degree::{degree_ccdf_plan, degree_ccdf_plan_expr};
use wpinq_analyses::edges::{symmetric_edge_dataset, EdgeSource, EDGES_DATASET};
use wpinq_analyses::nodes::{node_count_plan, node_count_plan_expr};
use wpinq_analyses::triangles::{tbd_plan, tbd_plan_expr};
use wpinq_graph::generators;
use wpinq_service::{
    decode_response, release_to_json, ClientError, MeasureRequest, MeasurementService,
    ResponseEncoding, TypedRelease,
};

const SEED: u64 = 7;

/// Ships `plan` through the JSON front door with the service's noise pinned to `SEED` (so
/// the bytes can match a local run; a real analyst uses `Client`), and decodes the reply.
fn measure<T: ExprRecord>(
    service: &MeasurementService,
    analyst: &str,
    plan: &Plan<T>,
    epsilon: f64,
) -> Result<TypedRelease<T>, ClientError> {
    let request = MeasureRequest {
        analyst: analyst.to_string(),
        epsilon,
        spec: plan.to_spec().ok_or(ClientError::NotSerializable)?,
        id: None,
        trace: false,
        encoding: ResponseEncoding::Json,
    };
    let reply = service.handle_json(&request.to_json_string(), &mut StdRng::seed_from_u64(SEED));
    decode_response(reply, epsilon)
}

fn main() {
    let mut rng = StdRng::seed_from_u64(1);
    let graph = generators::powerlaw_cluster(120, 3, 0.4, &mut rng);
    let edges = symmetric_edge_dataset(&graph);
    println!(
        "protected graph: {} nodes, {} directed edge records",
        graph.num_nodes(),
        edges.len()
    );

    // --- the trusted side -------------------------------------------------------------
    let service = MeasurementService::new();
    service.register(EDGES_DATASET, &edges).unwrap();
    service
        .grant("alice", EDGES_DATASET, PrivacyBudget::new(5.0))
        .unwrap();
    service
        .grant("bob", EDGES_DATASET, PrivacyBudget::new(1.0))
        .unwrap();

    // --- the analyst side -------------------------------------------------------------
    let source = EdgeSource::named();

    // A helper: ship the expr plan, and independently rebuild the *closure* form locally
    // to prove the service's bytes are the very ones a trusted local run would release.
    fn check<T: ExprRecord>(
        what: &str,
        service_release: &wpinq_service::TypedRelease<T>,
        local_plan: &Plan<(u32, u32)>,
        locally: &Plan<T>,
        edges: &wpinq::WeightedDataset<(u32, u32)>,
        epsilon: f64,
    ) {
        let mut bindings = PlanBindings::new();
        bindings.bind(local_plan, edges.clone());
        let local = locally.noisy_count(epsilon).release_with(
            &bindings,
            &SequentialExecutor,
            &mut StdRng::seed_from_u64(SEED),
        );
        let local_json = release_to_json(&local);
        let remote_json = wpinq_expr::Json::parse(&service_release.raw)
            .unwrap()
            .get("release")
            .unwrap()
            .to_compact();
        assert_eq!(
            local_json, remote_json,
            "{what}: service bytes differ from the local typed release"
        );
        println!(
            "{what}: {} records released, byte-identical to the local run; charged {:?}",
            service_release.records.len(),
            service_release.charged
        );
    }

    // Degree CCDF (multiplicity 1, ε = 0.5).
    let ccdf = measure(
        &service,
        "alice",
        &degree_ccdf_plan_expr(source.plan()),
        0.5,
    )
    .expect("alice measures the degree CCDF");
    check(
        "degree ccdf",
        &ccdf,
        source.plan(),
        &degree_ccdf_plan(source.plan()),
        &edges,
        0.5,
    );

    // Node count (multiplicity 1, ε = 0.5) — bob's independent budget.
    let nodes = measure(&service, "bob", &node_count_plan_expr(source.plan()), 0.5)
        .expect("bob measures the node count");
    check(
        "node count",
        &nodes,
        source.plan(),
        &node_count_plan(source.plan()),
        &edges,
        0.5,
    );
    let estimated_nodes = 2.0 * nodes.get(&()).unwrap_or(0.0);
    println!(
        "node count: ~{estimated_nodes:.1} (true {})",
        graph.num_nodes()
    );

    // Triangles-by-Degree, bucketed (multiplicity 9, ε = 0.3 → 2.7 charged).
    let tbd = measure(&service, "alice", &tbd_plan_expr(source.plan(), 2), 0.3)
        .expect("alice measures TbD");
    check(
        "triangles-by-degree",
        &tbd,
        source.plan(),
        &tbd_plan(source.plan(), 2),
        &edges,
        0.3,
    );

    // Budgets: alice spent 0.5 + 2.7, bob spent 0.5.
    let alice_left = service.remaining("alice", EDGES_DATASET).unwrap();
    let bob_left = service.remaining("bob", EDGES_DATASET).unwrap();
    println!("remaining budget: alice {alice_left:.2}, bob {bob_left:.2}");
    assert!((alice_left - (5.0 - 0.5 - 2.7)).abs() < 1e-9);
    assert!((bob_left - 0.5).abs() < 1e-9);

    // Bob cannot afford TbD at ε = 0.1 (9 × 0.1 = 0.9 > 0.5) — and is charged nothing.
    let rejected = measure(&service, "bob", &tbd_plan_expr(source.plan(), 2), 0.1);
    assert!(rejected.is_err(), "bob's grant cannot afford TbD");
    assert!((service.remaining("bob", EDGES_DATASET).unwrap() - 0.5).abs() < 1e-9);
    println!("bob's over-budget TbD request was rejected without charge");

    println!("\naudit log ({} entries):", service.audit_log().len());
    println!("{}", service.audit_log().first().unwrap());
}
