//! `colwire` — the compact columnar wire format for [`ColumnBatch`] segments.
//!
//! A frame is a versioned flat binary encoding of one batch: the record shape as a
//! recursive tag string, then every primitive leaf column as contiguous fixed-width
//! little-endian data, then the weights as raw `f64` bits. Column-contiguous layout means
//! a decoder reconstructs each `Vec` with one bulk pass per column instead of one branchy
//! shape walk per row, and an encoder never materializes a [`Value`] at all.
//!
//! The format is **exact**: weights travel as IEEE-754 bit patterns and integer leaves as
//! their in-memory width, so `decode_batch(encode_batch(b)) == b` bit-for-bit — which is
//! what lets the service's `"encoding":"columnar"` response mode ship frames without
//! perturbing the release-bitwise-identity guarantees.
//!
//! ## Frame layout (version 1)
//!
//! Every frame is length-prefixed so frames can be concatenated on a stream:
//!
//! ```text
//! u32 LE   payload length (bytes after this prefix)
//! [u8; 4]  magic "WPQC"
//! u16 LE   COLWIRE_VERSION (= 1)
//! u16 LE   reserved (0)
//! type     recursive shape descriptor:
//!            0x00 Unit | 0x01 Bool | 0x02 U64 | 0x03 I64
//!            0x04 Tuple, then u16 LE field count, then each field's descriptor
//! u64 LE   row count
//! columns  shape preorder; per leaf:
//!            Unit → nothing, Bool → rows × u8 (0/1), U64/I64 → rows × u64 LE
//! weights  rows × u64 LE (f64::to_bits)
//! ```
//!
//! Any structural change to this layout requires bumping [`COLWIRE_VERSION`]; the golden
//! fixture test (`wpinq-core/tests` via the service round-trip suite) fails on silent
//! drift.

use crate::column::{ColumnBatch, ColumnData};
use crate::value::{Value, ValueType};

/// Frame magic, first bytes after the length prefix: `"WPQC"`.
pub const COLWIRE_MAGIC: [u8; 4] = *b"WPQC";

/// Version of the frame layout. Bump on any structural change and regenerate the golden
/// fixture.
pub const COLWIRE_VERSION: u16 = 1;

/// A malformed, truncated, or version-mismatched frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColwireError(String);

impl ColwireError {
    fn new(msg: impl Into<String>) -> ColwireError {
        ColwireError(msg.into())
    }
}

impl std::fmt::Display for ColwireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "colwire: {}", self.0)
    }
}

impl std::error::Error for ColwireError {}

const TAG_UNIT: u8 = 0x00;
const TAG_BOOL: u8 = 0x01;
const TAG_U64: u8 = 0x02;
const TAG_I64: u8 = 0x03;
const TAG_TUPLE: u8 = 0x04;

fn encode_ty(ty: &ValueType, out: &mut Vec<u8>) {
    match ty {
        ValueType::Unit => out.push(TAG_UNIT),
        ValueType::Bool => out.push(TAG_BOOL),
        ValueType::U64 => out.push(TAG_U64),
        ValueType::I64 => out.push(TAG_I64),
        ValueType::Tuple(items) => {
            out.push(TAG_TUPLE);
            let n = u16::try_from(items.len()).expect("tuple arity fits u16");
            out.extend_from_slice(&n.to_le_bytes());
            for item in items {
                encode_ty(item, out);
            }
        }
    }
}

fn encode_cols(cols: &ColumnData, rows: usize, out: &mut Vec<u8>) {
    match cols {
        ColumnData::Unit => {}
        ColumnData::Bool(col) => {
            debug_assert_eq!(col.len(), rows);
            out.extend(col.iter().map(|&b| b as u8));
        }
        ColumnData::U64(col) => {
            debug_assert_eq!(col.len(), rows);
            for v in col {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        ColumnData::I64(col) => {
            debug_assert_eq!(col.len(), rows);
            for v in col {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        ColumnData::Tuple(items) => {
            for item in items {
                encode_cols(item, rows, out);
            }
        }
    }
}

/// Encodes one batch as a single length-prefixed frame.
pub fn encode_batch(batch: &ColumnBatch) -> Vec<u8> {
    let rows = batch.len();
    let mut out = Vec::with_capacity(16 + 8 * rows * (1 + batch.ty().to_string().len() / 4));
    out.extend_from_slice(&[0u8; 4]); // length prefix, patched below
    out.extend_from_slice(&COLWIRE_MAGIC);
    out.extend_from_slice(&COLWIRE_VERSION.to_le_bytes());
    out.extend_from_slice(&0u16.to_le_bytes());
    encode_ty(batch.ty(), &mut out);
    out.extend_from_slice(&(rows as u64).to_le_bytes());
    encode_cols(batch.columns(), rows, &mut out);
    for w in batch.weights() {
        out.extend_from_slice(&w.to_bits().to_le_bytes());
    }
    let payload = u32::try_from(out.len() - 4).expect("frame payload fits u32");
    out[..4].copy_from_slice(&payload.to_le_bytes());
    out
}

/// A bounds-checked little-endian reader over a frame payload.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], ColwireError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or_else(|| ColwireError::new("truncated frame"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, ColwireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, ColwireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, ColwireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, ColwireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
}

fn decode_ty(r: &mut Reader<'_>, depth: usize) -> Result<ValueType, ColwireError> {
    if depth > 64 {
        return Err(ColwireError::new("shape descriptor nests too deeply"));
    }
    match r.u8()? {
        TAG_UNIT => Ok(ValueType::Unit),
        TAG_BOOL => Ok(ValueType::Bool),
        TAG_U64 => Ok(ValueType::U64),
        TAG_I64 => Ok(ValueType::I64),
        TAG_TUPLE => {
            let n = r.u16()? as usize;
            let mut items = Vec::with_capacity(n.min(1024));
            for _ in 0..n {
                items.push(decode_ty(r, depth + 1)?);
            }
            Ok(ValueType::Tuple(items))
        }
        tag => Err(ColwireError::new(format!("unknown shape tag {tag:#04x}"))),
    }
}

fn decode_cols(
    ty: &ValueType,
    rows: usize,
    r: &mut Reader<'_>,
) -> Result<ColumnData, ColwireError> {
    match ty {
        ValueType::Unit => Ok(ColumnData::Unit),
        ValueType::Bool => {
            let raw = r.take(rows)?;
            let mut col = Vec::with_capacity(rows);
            for &b in raw {
                match b {
                    0 => col.push(false),
                    1 => col.push(true),
                    other => {
                        return Err(ColwireError::new(format!("invalid bool byte {other:#04x}")))
                    }
                }
            }
            Ok(ColumnData::Bool(col))
        }
        ValueType::U64 => {
            let raw = r.take(rows * 8)?;
            Ok(ColumnData::U64(
                raw.chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ))
        }
        ValueType::I64 => {
            let raw = r.take(rows * 8)?;
            Ok(ColumnData::I64(
                raw.chunks_exact(8)
                    .map(|c| i64::from_le_bytes(c.try_into().unwrap()))
                    .collect(),
            ))
        }
        ValueType::Tuple(items) => {
            let mut cols = Vec::with_capacity(items.len());
            for item in items {
                cols.push(decode_cols(item, rows, r)?);
            }
            Ok(ColumnData::Tuple(cols))
        }
    }
}

/// Decodes one length-prefixed frame back to a batch — the exact inverse of
/// [`encode_batch`]. Trailing bytes after the frame are rejected.
pub fn decode_batch(bytes: &[u8]) -> Result<ColumnBatch, ColwireError> {
    let mut r = Reader { bytes, pos: 0 };
    let payload = r.u32()? as usize;
    if bytes.len() - 4 != payload {
        return Err(ColwireError::new(format!(
            "length prefix {payload} does not match payload size {}",
            bytes.len() - 4
        )));
    }
    if r.take(4)? != COLWIRE_MAGIC {
        return Err(ColwireError::new("bad magic"));
    }
    let version = r.u16()?;
    if version != COLWIRE_VERSION {
        return Err(ColwireError::new(format!(
            "unsupported frame version {version} (this build speaks {COLWIRE_VERSION})"
        )));
    }
    if r.u16()? != 0 {
        return Err(ColwireError::new("nonzero reserved field"));
    }
    let ty = decode_ty(&mut r, 0)?;
    let rows_u64 = r.u64()?;
    let rows = usize::try_from(rows_u64)
        .ok()
        .filter(|&rows| rows <= bytes.len())
        .ok_or_else(|| ColwireError::new(format!("implausible row count {rows_u64}")))?;
    let columns = decode_cols(&ty, rows, &mut r)?;
    let raw = r.take(rows * 8)?;
    let weights: Vec<f64> = raw
        .chunks_exact(8)
        .map(|c| f64::from_bits(u64::from_le_bytes(c.try_into().unwrap())))
        .collect();
    if r.pos != bytes.len() {
        return Err(ColwireError::new("trailing bytes after frame"));
    }
    ColumnBatch::from_parts(columns, weights)
        .ok_or_else(|| ColwireError::new("inconsistent column lengths"))
}

/// Encodes weighted rows as one frame, inferring the shape from the first record.
/// `None` when the rows are empty (no shape to infer) or shape-inconsistent — the caller
/// keeps its row representation.
pub fn encode_rows(rows: &[(Value, f64)]) -> Option<Vec<u8>> {
    let ty = rows.first()?.0.type_of();
    let batch = ColumnBatch::from_pairs(ty, rows.iter().map(|(v, w)| (v, *w)))?;
    Some(encode_batch(&batch))
}

/// Decodes a frame to weighted rows in frame order — the inverse of [`encode_rows`].
pub fn decode_rows(bytes: &[u8]) -> Result<Vec<(Value, f64)>, ColwireError> {
    Ok(decode_batch(bytes)?.to_pairs())
}

const BASE64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Standard (RFC 4648, padded) base64 of a frame, for embedding in JSON envelopes.
pub fn to_base64(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len().div_ceil(3) * 4);
    for chunk in bytes.chunks(3) {
        let b0 = chunk[0] as u32;
        let b1 = chunk.get(1).copied().unwrap_or(0) as u32;
        let b2 = chunk.get(2).copied().unwrap_or(0) as u32;
        let word = (b0 << 16) | (b1 << 8) | b2;
        out.push(BASE64_ALPHABET[(word >> 18) as usize & 63] as char);
        out.push(BASE64_ALPHABET[(word >> 12) as usize & 63] as char);
        out.push(if chunk.len() > 1 {
            BASE64_ALPHABET[(word >> 6) as usize & 63] as char
        } else {
            '='
        });
        out.push(if chunk.len() > 2 {
            BASE64_ALPHABET[word as usize & 63] as char
        } else {
            '='
        });
    }
    out
}

/// Each byte's base64 digit, [`NOT_BASE64`] for bytes outside the alphabet.
const BASE64_DIGITS: [u8; 256] = {
    let mut digits = [NOT_BASE64; 256];
    let mut i = 0;
    while i < 64 {
        digits[BASE64_ALPHABET[i] as usize] = i as u8;
        i += 1;
    }
    digits
};
const NOT_BASE64: u8 = 0xff;

/// Inverse of [`to_base64`]; rejects non-alphabet characters, ragged lengths, and
/// padding anywhere but at the end of the final quad.
pub fn from_base64(text: &str) -> Result<Vec<u8>, ColwireError> {
    let raw = text.as_bytes();
    if !raw.len().is_multiple_of(4) {
        return Err(ColwireError::new("base64 length not a multiple of 4"));
    }
    let pad = raw.iter().rev().take_while(|&&c| c == b'=').count();
    if pad > 2 {
        return Err(ColwireError::new("malformed base64 padding"));
    }
    // Every byte before the padding is a digit, so a `=` inside the text fails here.
    let word = |digits: &[u8]| {
        digits
            .iter()
            .try_fold(0u32, |word, &c| match BASE64_DIGITS[usize::from(c)] {
                NOT_BASE64 => Err(ColwireError::new(format!(
                    "invalid base64 character {:?}",
                    c as char
                ))),
                digit => Ok(word << 6 | u32::from(digit)),
            })
    };
    let mut out = Vec::with_capacity(raw.len() / 4 * 3);
    let mut quads = raw[..raw.len() - pad].chunks_exact(4);
    for quad in &mut quads {
        out.extend_from_slice(&word(quad)?.to_be_bytes()[1..]);
    }
    if pad > 0 {
        let word = word(quads.remainder())? << (6 * pad);
        out.extend_from_slice(&word.to_be_bytes()[1..4 - pad]);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn sample_batch() -> ColumnBatch {
        let rows = [
            (
                Value::Tuple(vec![
                    Value::U64(3),
                    Value::I64(-7),
                    Value::Bool(true),
                    Value::Unit,
                ]),
                1.25,
            ),
            (
                Value::Tuple(vec![
                    Value::U64(u64::MAX),
                    Value::I64(i64::MIN),
                    Value::Bool(false),
                    Value::Unit,
                ]),
                -0.5f64.sqrt() * -1.0,
            ),
            (
                Value::Tuple(vec![
                    Value::U64(0),
                    Value::I64(0),
                    Value::Bool(true),
                    Value::Unit,
                ]),
                3.0f64.sqrt(),
            ),
        ];
        let ty = rows[0].0.type_of();
        ColumnBatch::from_pairs(ty, rows.iter().map(|(v, w)| (v, *w))).unwrap()
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let batch = sample_batch();
        let frame = encode_batch(&batch);
        let back = decode_batch(&frame).unwrap();
        assert_eq!(back.ty(), batch.ty());
        assert_eq!(back.columns(), batch.columns());
        let (w0, w1) = (batch.weights(), back.weights());
        assert_eq!(w0.len(), w1.len());
        for (a, b) in w0.iter().zip(w1) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn rows_round_trip_preserves_order_and_bits() {
        let rows = vec![
            (Value::U64(9), f64::NAN),
            (Value::U64(2), -0.0),
            (Value::U64(9), 1.0 / 3.0),
        ];
        let frame = encode_rows(&rows).unwrap();
        let back = decode_rows(&frame).unwrap();
        assert_eq!(back.len(), rows.len());
        for ((v0, w0), (v1, w1)) in rows.iter().zip(&back) {
            assert_eq!(v0, v1);
            assert_eq!(w0.to_bits(), w1.to_bits());
        }
    }

    #[test]
    fn empty_and_inconsistent_rows_are_refused() {
        assert!(encode_rows(&[]).is_none());
        assert!(encode_rows(&[(Value::U64(1), 1.0), (Value::Bool(true), 1.0)]).is_none());
    }

    #[test]
    fn unit_only_batches_carry_pure_length() {
        let batch =
            ColumnBatch::from_pairs(ValueType::Unit, [(&Value::Unit, 2.0), (&Value::Unit, 4.0)])
                .unwrap();
        let frame = encode_batch(&batch);
        let back = decode_batch(&frame).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.columns(), &ColumnData::Unit);
    }

    #[test]
    fn corrupt_frames_are_rejected_not_misread() {
        let frame = encode_batch(&sample_batch());
        assert!(decode_batch(&frame[..frame.len() - 1]).is_err());
        let mut bad_magic = frame.clone();
        bad_magic[4] = b'X';
        assert!(decode_batch(&bad_magic).is_err());
        let mut bad_version = frame.clone();
        bad_version[8] = 0xFF;
        assert!(decode_batch(&bad_version).is_err());
        let mut extra = frame.clone();
        extra.push(0);
        assert!(decode_batch(&extra).is_err());
    }

    #[test]
    fn base64_round_trips_and_rejects_garbage() {
        for len in 0..32 {
            let bytes: Vec<u8> = (0..len).map(|i| (i * 37 + 11) as u8).collect();
            let text = to_base64(&bytes);
            assert_eq!(from_base64(&text).unwrap(), bytes);
        }
        assert!(from_base64("###!").is_err());
        assert!(from_base64("AAA").is_err());
        assert!(from_base64("=AAA").is_err());
        assert_eq!(from_base64("AA==").unwrap(), [0]);
        // Padding closes the final quad only: each quad of these decodes on its own.
        for text in ["AA==AAAA", "AAA=AAAA", "A=A=", "====", "A===", "AA=A"] {
            assert!(from_base64(text).is_err(), "{text}");
        }
    }

    #[test]
    fn base64_round_trips_every_length() {
        let mut rng = StdRng::seed_from_u64(300);
        for len in 0..300 {
            let bytes: Vec<u8> = (0..len).map(|_| rng.gen::<u32>() as u8).collect();
            let text = to_base64(&bytes);
            assert_eq!(from_base64(&text).unwrap(), bytes, "length {len}");
        }
    }
}
