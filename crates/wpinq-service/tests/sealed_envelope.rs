//! The front door sends a streamed envelope around a release member rendered once per
//! cache entry and encoding. Those bytes must be exactly what the public tree form,
//! `to_json_envelope(..).to_compact()`, prints for the same response — on the miss
//! that renders the member, on every replay that splices it, with or without an id or
//! a trace, under both encodings, and after later debits have moved the live
//! `remaining` quote.

use wpinq::prelude::*;
use wpinq::value::ExprRecord;
use wpinq_analyses::degree::degree_ccdf_plan_expr;
use wpinq_analyses::edges::{symmetric_edge_dataset, EDGES_DATASET};
use wpinq_expr::Json;
use wpinq_graph::Graph;
use wpinq_service::{
    release_records_json, release_records_text, MeasureRequest, MeasurementService,
    ResponseEncoding,
};

const BUDGET: f64 = 100.0;
const ENCODINGS: [ResponseEncoding; 2] = [ResponseEncoding::Json, ResponseEncoding::Columnar];

/// Records with nested tuples, signed fields and booleans.
type Nested = (u64, (i64, bool), ());
const NESTED: &str = "nested";
const EMPTY: &str = "empty";

fn service() -> MeasurementService {
    let service = MeasurementService::new().with_noise_seed(5);
    let toy = Graph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)]);
    let nested: WeightedDataset<Nested> = WeightedDataset::from_pairs([
        ((0, (i64::MIN, false), ()), 1.0),
        ((7, (-1, true), ()), 0.5),
        ((u64::MAX, (i64::MAX, false), ()), 2.0),
    ]);
    service
        .register(EDGES_DATASET, &symmetric_edge_dataset(&toy))
        .unwrap();
    service.register(NESTED, &nested).unwrap();
    service
        .register(EMPTY, &WeightedDataset::<u64>::from_pairs([]))
        .unwrap();
    for dataset in [EDGES_DATASET, NESTED, EMPTY] {
        service
            .grant("analyst", dataset, PrivacyBudget::new(BUDGET))
            .unwrap();
    }
    service
}

fn request(spec: PlanSpec, epsilon: f64) -> MeasureRequest {
    MeasureRequest {
        analyst: "analyst".into(),
        epsilon,
        spec,
        id: None,
        trace: false,
        encoding: ResponseEncoding::Json,
    }
}

fn specs() -> Vec<(&'static str, PlanSpec)> {
    let spec = |plan: Option<PlanSpec>| plan.expect("expression plans serialize");
    vec![
        (
            "ccdf",
            spec(degree_ccdf_plan_expr(&Plan::source_expr(EDGES_DATASET)).to_spec()),
        ),
        (
            "nested",
            spec(Plan::<Nested>::source_expr(NESTED).to_spec()),
        ),
        ("empty", spec(Plan::<u64>::source_expr(EMPTY).to_spec())),
    ]
}

/// What the tree form prints for `request` as the service stands now. Reads the
/// measurement back through `serve`: a replay, which charges nothing.
fn oracle(service: &MeasurementService, request: &MeasureRequest) -> String {
    let response = service.serve(request).expect("a resident measurement");
    let live = service.live_remaining(&request.analyst, &response);
    response
        .to_json_envelope(request.id.as_deref(), Some(&live), None, request.encoding)
        .to_compact()
}

/// Splits a traced reply into the reply without its trailing `"trace"` member, and the
/// trace. The line must already be the compact print of its own document.
fn without_trace(line: &str) -> (String, Json) {
    let Json::Obj(mut members) = Json::parse(line).expect("the reply is JSON") else {
        panic!("the reply is not an object: {line}");
    };
    assert_eq!(
        Json::Obj(members.clone()).to_compact(),
        line,
        "a reply is the compact print of its document"
    );
    let (key, trace) = members.pop().expect("a reply has members");
    assert_eq!(key, "trace", "the trace is the last member");
    (Json::Obj(members).to_compact(), trace)
}

#[test]
fn front_door_bytes_equal_the_tree_envelope_on_miss_and_on_every_replay() {
    for (name, spec) in specs() {
        let service = service();
        for (round, first_encoding) in ENCODINGS.into_iter().enumerate() {
            // A fresh key per round, first asked for under each encoding in turn.
            let epsilon = 0.25 + round as f64;
            let base = MeasureRequest {
                encoding: first_encoding,
                ..request(spec.clone(), epsilon)
            };
            let miss = service.handle_line(&base.to_json_string());
            assert!(
                miss.starts_with("{\"ok\":true,\"epsilon\":"),
                "{name}: {miss}"
            );
            assert_eq!(miss, oracle(&service, &base), "{name}: miss, round {round}");
            if name == "empty" && first_encoding == ResponseEncoding::Json {
                assert!(miss.contains(",\"release\":[],"), "{miss}");
            }

            for encoding in ENCODINGS {
                for id in [None, Some("req-\"7\"\n\u{1}é".to_string())] {
                    let plain = MeasureRequest {
                        encoding,
                        id: id.clone(),
                        ..base.clone()
                    };
                    let hit = service.handle_line(&plain.to_json_string());
                    assert_eq!(hit, oracle(&service, &plain), "{name}: replay {plain:?}");
                    if id.is_none() && encoding == first_encoding {
                        assert_eq!(hit, miss, "{name}: a quiet replay repeats the miss");
                    }

                    let traced = MeasureRequest {
                        trace: true,
                        ..plain.clone()
                    };
                    let line = service.handle_line(&traced.to_json_string());
                    let (body, trace) = without_trace(&line);
                    assert_eq!(body, hit, "{name}: a trace only appends a member");
                    assert_eq!(
                        trace.get("fields").and_then(|f| f.get("cache")),
                        Some(&Json::str("hit"))
                    );
                }
            }
        }
        assert_eq!(
            service.cache_stats().misses,
            2,
            "{name}: one evaluation per key"
        );
    }
}

#[test]
fn a_traced_miss_carries_the_same_bytes_as_its_replays() {
    for (name, spec) in specs() {
        for encoding in ENCODINGS {
            let service = service();
            let traced = MeasureRequest {
                trace: true,
                encoding,
                id: Some("t".into()),
                ..request(spec.clone(), 0.5)
            };
            let (miss, trace) = without_trace(&service.handle_line(&traced.to_json_string()));
            assert_eq!(
                trace.get("fields").and_then(|f| f.get("cache")),
                Some(&Json::str("miss"))
            );
            let plain = MeasureRequest {
                trace: false,
                ..traced
            };
            assert_eq!(miss, oracle(&service, &plain), "{name}");
            assert_eq!(miss, service.handle_line(&plain.to_json_string()), "{name}");
        }
    }
}

/// A replay quotes the budget as it stands when the reply is assembled; nothing else in
/// the line moves, and the release member is the stored text under each encoding.
#[test]
fn replays_after_a_further_debit_change_only_the_remaining_quote() {
    let (_, spec) = specs().remove(0);
    let service = service();
    for encoding in ENCODINGS {
        let primed = MeasureRequest {
            encoding,
            id: Some("p".into()),
            ..request(spec.clone(), 0.25)
        };
        let before = service.handle_line(&primed.to_json_string());
        // Another measurement of the same data spends from the same grant.
        let other = request(
            spec.clone(),
            if encoding == ENCODINGS[0] { 1.5 } else { 2.5 },
        );
        assert!(service
            .handle_line(&other.to_json_string())
            .starts_with("{\"ok\":true"));

        let after = service.handle_line(&primed.to_json_string());
        assert_eq!(after, oracle(&service, &primed));
        assert_ne!(after, before, "the quote follows the grant");
        let (before, after) = (Json::parse(&before).unwrap(), Json::parse(&after).unwrap());
        let (Json::Obj(before), Json::Obj(after)) = (before, after) else {
            panic!("replies are objects");
        };
        for ((key, old), (_, new)) in before.iter().zip(&after) {
            assert_eq!(old == new, key != "remaining", "member '{key}'");
        }
        let live = service.remaining("analyst", EDGES_DATASET).unwrap();
        let quoted = after.iter().find(|(key, _)| key == "remaining").unwrap();
        assert_eq!(
            quoted.1.to_compact(),
            format!("[[\"{EDGES_DATASET}\",{live}]]")
        );
    }
}

/// The deterministic front door (`handle_json`, no cache) streams the same envelope.
#[test]
fn handle_json_streams_the_tree_envelope() {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    // Every rebuild of a plan numbers its sources afresh, and `explain` prints the number.
    let unnumbered = |line: String| {
        let (head, tail) = line
            .split_once("source InputId(")
            .expect("explain names a source");
        format!(
            "{head}{}",
            tail.trim_start_matches(|c: char| c.is_ascii_digit())
        )
    };
    for (name, spec) in specs() {
        for encoding in ENCODINGS {
            let request = MeasureRequest {
                encoding,
                id: Some("j".into()),
                ..request(spec.clone(), 0.75)
            };
            let line =
                service().handle_json(&request.to_json_string(), &mut StdRng::seed_from_u64(3));
            let expected = service()
                .measure(&request, &mut StdRng::seed_from_u64(3))
                .unwrap()
                .to_json_envelope(Some("j"), None, None, encoding)
                .to_compact();
            assert_eq!(unnumbered(line), unnumbered(expected), "{name}");
        }
    }
}

/// The streaming release writer against the tree writer on values no seeded noise draw
/// reaches: signed zero, subnormals, extremes, non-finite counts (printed `null`).
#[test]
fn streamed_release_text_equals_the_tree_print_on_edge_values() {
    let counts = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 4.0,
        -f64::MIN_POSITIVE / 4.0,
        5e-324,
        -1.5,
        1e21,
        -1e-7,
        f64::MAX,
        f64::MIN,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
    ];
    let records: Vec<(Value, f64)> = counts
        .iter()
        .enumerate()
        .map(|(i, &count)| {
            let record: Nested = (i as u64, (-(i as i64) - 1, i % 2 == 0), ());
            (record.to_value(), count)
        })
        .collect();
    for records in [&records[..], &records[..1], &[]] {
        assert_eq!(
            release_records_text(records),
            release_records_json(records).to_compact()
        );
    }
    let flat = [(Value::Unit, -0.0), (Value::Tuple(vec![]), 1.0)];
    assert_eq!(release_records_text(&flat), "[[null,-0],[[],1]]");
}
