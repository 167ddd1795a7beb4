//! Canonical encoding of noisy releases.
//!
//! Releases cross the trust boundary as JSON: a sorted array of `[record, value]` pairs.
//! Records encode through [`value_to_json`]; noisy values print with Rust's
//! shortest-round-trip float formatter, so the encoding is **deterministic and
//! bit-exact**: two releases are byte-equal iff every noisy value matches bitwise. The
//! byte-identical-release property tests (typed plan vs. wire-shipped plan, sequential
//! vs. sharded executors) compare exactly these strings.

use std::fmt::Write as _;

use wpinq::value::{ExprRecord, Value, ValueType};
use wpinq::NoisyCounts;
use wpinq_expr::json::write_f64;
use wpinq_expr::{value_from_json, value_to_json, Json, WireError};

/// Encodes the observed part of a typed release (sorted record order).
pub fn release_to_json<T: ExprRecord>(counts: &NoisyCounts<T>) -> String {
    let records: Vec<(Value, f64)> = counts
        .sorted_observed()
        .into_iter()
        .map(|(record, value)| (record.to_value(), value))
        .collect();
    release_records_text(&records)
}

/// Encodes the observed part of a dynamic release (sorted record order).
pub fn release_values_to_json(counts: &NoisyCounts<Value>) -> String {
    release_records_text(&counts.sorted_observed())
}

/// The release array document for already-sorted `(record, noisy value)` pairs.
pub fn release_records_json(records: &[(Value, f64)]) -> Json {
    Json::Arr(
        records
            .iter()
            .map(|(record, value)| Json::Arr(vec![value_to_json(record), Json::f64(*value)]))
            .collect(),
    )
}

/// The compact text of [`release_records_json`], byte for byte, streamed into one
/// `String` without building the document: no allocation per record or per number.
pub fn release_records_text(records: &[(Value, f64)]) -> String {
    let mut out = String::from("[");
    for (i, (record, value)) in records.iter().enumerate() {
        out.push_str(if i > 0 { ",[" } else { "[" });
        write_value(&mut out, record);
        out.push(',');
        write_f64(&mut out, *value);
        out.push(']');
    }
    out.push(']');
    out
}

/// The streaming twin of [`value_to_json`].
fn write_value(out: &mut String, value: &Value) {
    let _ = match value {
        Value::Unit => out.write_str("null"),
        Value::Bool(b) => write!(out, "{b}"),
        Value::U64(n) => write!(out, "{n}"),
        Value::I64(n) => write!(out, "{n}"),
        Value::Tuple(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_value(out, item);
            }
            out.push(']');
            Ok(())
        }
    };
}

/// Extracts a successful envelope's release records under either negotiated encoding:
/// the default `"release"` JSON array, or `"release_columnar"` — a base64 colwire frame
/// whose decoded records must carry the envelope's `output_type`. Both paths are
/// bit-exact, so the records are identical whichever encoding the request asked for.
pub fn release_records_from_response(
    response: &Json,
    ty: &ValueType,
) -> Result<Vec<(Value, f64)>, WireError> {
    if let Some(release) = response.get("release") {
        let entries = release
            .as_arr()
            .ok_or_else(|| WireError::new("release must be a JSON array"))?;
        return entries
            .iter()
            .map(|pair| {
                let pair = pair.as_arr().filter(|p| p.len() == 2).ok_or_else(|| {
                    WireError::new("release entry must be a [record, value] pair")
                })?;
                let record = value_from_json(&pair[0], ty)?;
                let value = pair[1]
                    .as_f64()
                    .ok_or_else(|| WireError::new("release value must be a number"))?;
                Ok((record, value))
            })
            .collect();
    }
    let text = response
        .get("release_columnar")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new("response missing 'release' / 'release_columnar'"))?;
    release_records_from_columnar(text, ty)
}

/// Decodes a `"release_columnar"` payload (base64 colwire) whose records must carry the
/// type `ty`.
pub fn release_records_from_columnar(
    text: &str,
    ty: &ValueType,
) -> Result<Vec<(Value, f64)>, WireError> {
    let frame = wpinq_core::colwire::from_base64(text)
        .map_err(|e| WireError::new(format!("release_columnar: {e}")))?;
    let batch = wpinq_core::colwire::decode_batch(&frame)
        .map_err(|e| WireError::new(format!("release_columnar: {e}")))?;
    if batch.ty() != ty {
        return Err(WireError::new(format!(
            "release_columnar records have type {}, expected {ty}",
            batch.ty()
        )));
    }
    Ok(batch.to_pairs())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use wpinq::WeightedDataset;

    #[test]
    fn typed_and_dynamic_encodings_agree_byte_for_byte() {
        let typed: WeightedDataset<(u32, u64)> =
            WeightedDataset::from_pairs([((3, 1), 2.0), ((1, 9), 0.5), ((2, 2), -1.25)]);
        let dynamic = wpinq::plan::dataset_to_values(&typed);
        let a = release_to_json(&NoisyCounts::measure(
            &typed,
            0.5,
            &mut StdRng::seed_from_u64(7),
        ));
        let b = release_values_to_json(&NoisyCounts::measure(
            &dynamic,
            0.5,
            &mut StdRng::seed_from_u64(7),
        ));
        assert_eq!(a, b);

        // And the encoding round-trips exactly.
        let ty = <(u32, u64)>::value_type();
        let envelope = Json::Obj(vec![("release".into(), Json::parse(&a).unwrap())]);
        let records = release_records_from_response(&envelope, &ty).unwrap();
        assert_eq!(release_records_json(&records).to_compact(), a);
    }
}
