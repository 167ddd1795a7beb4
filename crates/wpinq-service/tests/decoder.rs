//! The reply decoder against its tree oracle.
//!
//! `decode_response` reads a reply in one pass, from bytes to typed records. The oracle
//! is the tree path: `Json::parse` of the whole envelope, then
//! `release_records_from_response`. On the real replies of every built-in expression
//! analysis (both encodings, traced and untraced) and on v2 and v1 error envelopes the
//! two must agree bitwise. Under seeded mutations of a reply (truncation at every prefix,
//! byte flips, duplicated, reordered and unknown members, misshapen release entries,
//! nesting at and past `MAX_DEPTH`) the pull decoder must return the oracle's value or an error of the
//! oracle's kind, and never panic. The request side takes the same mutations through
//! `handle_line`, which must answer each with one well-formed reply line.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use wpinq::prelude::*;
use wpinq_analyses::degree::{degree_ccdf_plan_expr, degree_sequence_plan_expr};
use wpinq_analyses::edges::{edge_count_plan_expr, symmetric_edge_dataset, EDGES_DATASET};
use wpinq_analyses::jdd::jdd_plan_expr;
use wpinq_analyses::nodes::{node_count_plan_expr, nodes_plan_expr};
use wpinq_analyses::squares::{length_three_paths_plan_expr, sbd_plan_expr};
use wpinq_analyses::triangles::{
    degrees_plan_expr, length_two_paths_plan_expr, paths_with_middle_degree_plan_expr,
    tbd_plan_expr,
};
use wpinq_expr::json::MAX_DEPTH;
use wpinq_expr::{Json, WireError};
use wpinq_graph::Graph;
use wpinq_service::service::response_output_type;
use wpinq_service::{
    decode_response, release_records_from_response, ClientError, MeasureRequest,
    MeasurementService, ResponseEncoding,
};

/// What a decoded reply says, with every float as its bits.
#[derive(Debug, PartialEq)]
struct Decoded<T> {
    records: Vec<(T, u64)>,
    charged: Vec<(String, u64)>,
    remaining: Vec<(String, u64)>,
    explain: String,
    id: Option<String>,
}

fn bits(pairs: Vec<(String, f64)>) -> Vec<(String, u64)> {
    pairs.into_iter().map(|(k, v)| (k, v.to_bits())).collect()
}

/// The decoder under test.
fn pulled<T: ExprRecord>(raw: &str) -> Result<Decoded<T>, ClientError> {
    let release = decode_response::<T>(raw.to_string(), 0.5)?;
    assert_eq!(release.raw, raw, "the raw reply is kept byte for byte");
    Ok(Decoded {
        records: release
            .records
            .into_iter()
            .map(|(r, v)| (r, v.to_bits()))
            .collect(),
        charged: bits(release.charged),
        remaining: bits(release.remaining),
        explain: release.explain,
        id: release.id,
    })
}

/// The tree oracle: the whole envelope as a `Json` document, then walked.
fn oracle<T: ExprRecord>(raw: &str) -> Result<Decoded<T>, ClientError> {
    let response = Json::parse(raw).map_err(WireError::from)?;
    if response.get("ok").and_then(Json::as_bool) != Some(true) {
        let error = response.get("error");
        let code = error
            .and_then(|e| e.get("code"))
            .and_then(Json::as_str)
            .unwrap_or("unknown");
        let message = error
            .and_then(|e| e.get("message"))
            .and_then(Json::as_str)
            .or_else(|| error.and_then(Json::as_str))
            .unwrap_or("malformed error response");
        return Err(ClientError::Rejected {
            code: code.to_string(),
            message: message.to_string(),
        });
    }
    let output_type = response_output_type(&response)?;
    if output_type != T::value_type() {
        return Err(WireError::new("type mismatch").into());
    }
    let records = release_records_from_response(&response, &output_type)?
        .into_iter()
        .map(|(value, noisy)| {
            T::from_value(&value)
                .map(|record| (record, noisy.to_bits()))
                .ok_or_else(|| WireError::new("record does not fit"))
        })
        .collect::<Result<_, _>>()?;
    let pairs = |key: &str| -> Result<Vec<(String, u64)>, WireError> {
        let malformed = || WireError::new(format!("malformed '{key}'"));
        response
            .get(key)
            .and_then(Json::as_arr)
            .ok_or_else(malformed)?
            .iter()
            .map(|pair| match pair.as_arr() {
                Some([name, eps]) => Ok((
                    name.as_str().ok_or_else(malformed)?.to_string(),
                    eps.as_f64().ok_or_else(malformed)?.to_bits(),
                )),
                _ => Err(malformed()),
            })
            .collect()
    };
    Ok(Decoded {
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
    })
}

/// Decodes `raw` both ways: the same value, the same rejection (code and message), or a
/// wire error from both. Returns whether the reply decoded.
fn agree<T: ExprRecord>(raw: &str) -> bool {
    let (pull, tree) = (pulled::<T>(raw), oracle::<T>(raw));
    match (&pull, &tree) {
        (Ok(_), Ok(_)) | (Err(ClientError::Rejected { .. }), Err(ClientError::Rejected { .. })) => {
            assert_eq!(pull, tree, "on {raw:.300}")
        }
        (Err(ClientError::Wire(_)), Err(ClientError::Wire(_))) => {}
        _ => panic!("pull decoder {pull:?} but oracle {tree:?} on {raw:.300}"),
    }
    pull.is_ok()
}

fn toy_service() -> MeasurementService {
    // Two triangles sharing a vertex plus a tail: enough structure for every query.
    let graph = Graph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4), (4, 5)]);
    let service = MeasurementService::new().with_noise_seed(11);
    service
        .register(EDGES_DATASET, &symmetric_edge_dataset(&graph))
        .unwrap();
    service
        .grant("alice", EDGES_DATASET, PrivacyBudget::unlimited())
        .unwrap();
    service
        .grant("bob", EDGES_DATASET, PrivacyBudget::new(0.1))
        .unwrap();
    service
}

fn request<T: ExprRecord>(
    analyst: &str,
    plan: &Plan<T>,
    id: Option<&str>,
    trace: bool,
    encoding: ResponseEncoding,
) -> String {
    MeasureRequest {
        analyst: analyst.to_string(),
        epsilon: 0.5,
        spec: plan.to_spec().expect("expression plans serialize"),
        id: id.map(str::to_string),
        trace,
        encoding,
    }
    .to_json_string()
}

/// Every encoding and trace setting of one analysis: the pull decoder equals the oracle,
/// and both encodings decode to the same records.
fn check_analysis<T: ExprRecord>(service: &MeasurementService, plan: &Plan<T>) {
    let mut decoded = Vec::new();
    for encoding in [ResponseEncoding::Json, ResponseEncoding::Columnar] {
        for trace in [false, true] {
            let raw = service.handle_line(&request("alice", plan, Some("q"), trace, encoding));
            assert!(agree::<T>(&raw), "a served reply decodes: {raw:.300}");
            decoded.push(pulled::<T>(&raw).unwrap().records);
        }
    }
    assert!(decoded.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn every_builtin_reply_decodes_as_the_oracle_does() {
    let service = toy_service();
    let edges = Plan::<(u32, u32)>::source_expr(EDGES_DATASET);
    check_analysis(&service, &degree_ccdf_plan_expr(&edges));
    check_analysis(&service, &degree_sequence_plan_expr(&edges));
    check_analysis(&service, &edge_count_plan_expr(&edges));
    check_analysis(&service, &nodes_plan_expr(&edges));
    check_analysis(&service, &node_count_plan_expr(&edges));
    check_analysis(&service, &jdd_plan_expr(&edges));
    check_analysis(&service, &length_two_paths_plan_expr(&edges));
    check_analysis(&service, &degrees_plan_expr(&edges, 2));
    check_analysis(&service, &paths_with_middle_degree_plan_expr(&edges, 2));
    check_analysis(&service, &tbd_plan_expr(&edges, 1));
    check_analysis(&service, &length_three_paths_plan_expr(&edges));
    check_analysis(&service, &sbd_plan_expr(&edges));
}

#[test]
fn error_envelopes_reject_as_the_oracle_does() {
    let service = toy_service();
    let edges = Plan::<(u32, u32)>::source_expr(EDGES_DATASET);
    let stranger = Plan::<(u32, u32)>::source_expr("not-registered");
    let ccdf = degree_ccdf_plan_expr(&edges);
    let mut replies = vec![
        service.handle_line(&request(
            "mallory",
            &ccdf,
            Some("e"),
            false,
            ResponseEncoding::Json,
        )),
        service.handle_line(&request(
            "bob",
            &ccdf,
            None,
            true,
            ResponseEncoding::Columnar,
        )),
        service.handle_line(&request(
            "alice",
            &degree_ccdf_plan_expr(&stranger),
            Some("e"),
            false,
            ResponseEncoding::Json,
        )),
        service.handle_line("{\"wpinq_measure_request\":2,"),
    ];
    // The v1 shape, and envelopes that are not rejections the service would write.
    replies.extend(
        [
            r#"{"ok":false,"error":"plain v1 message"}"#,
            r#"{"ok":false}"#,
            r#"{"ok":"true","error":{"code":"x"}}"#,
            r#"[1,2]"#,
            r#""ok""#,
        ]
        .map(str::to_string),
    );
    let mut codes = Vec::new();
    for raw in &replies {
        assert!(!agree::<u64>(raw), "{raw}");
        match pulled::<u64>(raw) {
            Err(ClientError::Rejected { code, .. }) => codes.push(code),
            other => panic!("{raw}: {other:?}"),
        }
    }
    assert_eq!(
        &codes[..4],
        ["no_grant", "budget_exceeded", "unknown_dataset", "wire"]
    );
    assert_eq!(codes[4], "unknown");
}

/// The envelope's members as `(key, value)` texts, in order.
fn members(raw: &str) -> Vec<(String, String)> {
    match Json::parse(raw).unwrap() {
        Json::Obj(members) => members
            .into_iter()
            .map(|(k, v)| (Json::str(k).to_compact(), v.to_compact()))
            .collect(),
        other => panic!("not an envelope: {other:?}"),
    }
}

fn assemble(members: &[(String, String)]) -> String {
    let inner: Vec<String> = members.iter().map(|(k, v)| format!("{k}:{v}")).collect();
    format!("{{{}}}", inner.join(","))
}

/// Whole-member mutations of an envelope: reorderings, duplicates (equal and altered,
/// before and after the original), unknown members, and nesting at and past the cap.
fn member_mutations(raw: &str, rng: &mut StdRng) -> Vec<String> {
    let base = members(raw);
    let n = base.len();
    let mut out = Vec::new();
    let mut reversed = base.clone();
    reversed.reverse();
    out.push(assemble(&reversed));
    for i in 0..n {
        let mut rotated = base.clone();
        rotated.rotate_left(i);
        out.push(assemble(&rotated));
        let mut to_front = base.clone();
        let member = to_front.remove(i);
        to_front.insert(0, member);
        out.push(assemble(&to_front));
    }
    for _ in 0..50 {
        let mut shuffled = base.clone();
        for i in (1..n).rev() {
            shuffled.swap(i, rng.gen_range(0..=i));
        }
        out.push(assemble(&shuffled));
    }
    let nested = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
    let odd_values = [
        "null".to_string(),
        "false".to_string(),
        "[]".to_string(),
        "\"x\\u0041\"".to_string(),
        "{\"a\":[1,{\"b\":\"c\"}]}".to_string(),
        "-0.0e+0".to_string(),
        // The envelope is one level deep, so these sit exactly at and one past the cap.
        nested(MAX_DEPTH - 1),
        nested(MAX_DEPTH),
    ];
    for i in 0..=n {
        for value in &odd_values {
            for key in ["\"zzz\"", "\"trace\""] {
                let mut with = base.clone();
                with.insert(i, (key.to_string(), value.clone()));
                out.push(assemble(&with));
            }
        }
    }
    for i in 0..n {
        for value in odd_values.iter().chain([&base[i].1]) {
            for after in [false, true] {
                let mut with = base.clone();
                with.insert(i + usize::from(after), (base[i].0.clone(), value.clone()));
                out.push(assemble(&with));
            }
            let mut replaced = base.clone();
            replaced[i].1 = value.clone();
            out.push(assemble(&replaced));
        }
    }
    out
}

/// The first release entry bent out of shape: a record with an item too many or too few,
/// a pair with a third member or none, a value that is not a number.
fn entry_mutations(raw: &str) -> Vec<String> {
    let base = members(raw);
    let Some(at) = base.iter().position(|(key, _)| key == "\"release\"") else {
        return Vec::new();
    };
    let entries = Json::parse(&base[at].1).unwrap().as_arr().unwrap().to_vec();
    let [record, value] = entries[0].as_arr().unwrap() else {
        panic!("a release entry is a pair")
    };
    let mut longer = record
        .as_arr()
        .map_or(vec![record.clone()], <[Json]>::to_vec);
    longer.push(Json::num(7));
    let shorter = record
        .as_arr()
        .map_or(Vec::new(), |items| items[1..].to_vec());
    let pair = |items: Vec<Json>| Json::Arr(items);
    [
        pair(vec![]),
        pair(vec![record.clone()]),
        pair(vec![record.clone(), value.clone(), value.clone()]),
        pair(vec![record.clone(), Json::str("1")]),
        pair(vec![Json::Arr(longer), value.clone()]),
        pair(vec![Json::Arr(shorter), value.clone()]),
        pair(vec![Json::Null, value.clone()]),
        Json::Null,
    ]
    .into_iter()
    .map(|entry| {
        let mut bent = base.clone();
        let mut entries = entries.clone();
        entries[0] = entry;
        bent[at].1 = Json::Arr(entries).to_compact();
        assemble(&bent)
    })
    .collect()
}

/// Byte flips on ASCII positions, to bytes that matter to JSON more often than not.
fn flip(raw: &str, rng: &mut StdRng) -> String {
    const SIGNIFICANT: &[u8] = b"[]{},:\"\\0123456789-.eE+ tfnulr";
    let mut bytes = raw.as_bytes().to_vec();
    for _ in 0..rng.gen_range(1..4) {
        let at = rng.gen_range(0..bytes.len());
        if bytes[at].is_ascii() {
            bytes[at] = if rng.gen_bool(0.7) {
                SIGNIFICANT[rng.gen_range(0..SIGNIFICANT.len())]
            } else {
                rng.gen_range(0..0x80u32) as u8
            };
        }
    }
    String::from_utf8(bytes).expect("only ASCII bytes were replaced")
}

/// Every mutation of `plan`'s replies under both encodings, decoded as `T` and as a
/// type the reply does not carry; the number of mutants that decoded.
fn fuzz_replies<T: ExprRecord, U: ExprRecord>(
    service: &MeasurementService,
    plan: &Plan<T>,
    rng: &mut StdRng,
) -> usize {
    let mut decoded = 0;
    for encoding in [ResponseEncoding::Json, ResponseEncoding::Columnar] {
        let raw = service.handle_line(&request("alice", plan, Some("m"), false, encoding));
        for end in (0..raw.len()).filter(|&end| raw.is_char_boundary(end)) {
            assert!(!agree::<T>(&raw[..end]), "a strict prefix decodes");
        }
        let mut mutants = member_mutations(&raw, rng);
        mutants.extend(entry_mutations(&raw));
        mutants.extend((0..1500).map(|_| flip(&raw, rng)));
        for mutant in &mutants {
            decoded += usize::from(agree::<T>(mutant));
            agree::<U>(mutant);
        }
    }
    decoded
}

#[test]
fn mutated_replies_decode_as_the_oracle_or_fail() {
    let service = toy_service();
    let edges = Plan::<(u32, u32)>::source_expr(EDGES_DATASET);
    let mut rng = StdRng::seed_from_u64(36);
    let ccdf = fuzz_replies::<_, (u64, u64)>(&service, &degree_ccdf_plan_expr(&edges), &mut rng);
    let jdd = fuzz_replies::<_, u64>(&service, &jdd_plan_expr(&edges), &mut rng);
    // Reordered and duplicated members still decode; the fuzzer is not all noise.
    assert!(ccdf > 100 && jdd > 100, "{ccdf} and {jdd} mutants decoded");
}

#[test]
fn mutated_requests_get_one_reply_line_each() {
    let service = toy_service();
    let edges = Plan::<(u32, u32)>::source_expr(EDGES_DATASET);
    let line = request(
        "alice",
        &degree_ccdf_plan_expr(&edges),
        Some("r"),
        false,
        ResponseEncoding::Json,
    );
    let answer = |text: &str| -> bool {
        let reply = service.handle_line(text);
        assert!(!reply.contains('\n'), "one line for {text:.200}");
        let reply = Json::parse(&reply).expect("the reply is JSON");
        reply
            .get("ok")
            .and_then(Json::as_bool)
            .expect("the reply says whether it succeeded")
    };
    assert!(answer(&line));
    for end in (0..line.len()).filter(|&end| line.is_char_boundary(end)) {
        assert!(!answer(&line[..end]), "a strict prefix is refused");
    }
    let mut rng = StdRng::seed_from_u64(37);
    let mut mutants = member_mutations(&line, &mut rng);
    mutants.extend((0..1500).map(|_| flip(&line, &mut rng)));
    let served = mutants.iter().filter(|mutant| answer(mutant)).count();
    assert!(served > 50, "{served} mutated requests served");
}
