//! `PlanSpec`: the serializable wire format for expression-built query plans.
//!
//! A [`PlanSpec`] is a flat, topologically ordered list of [`SpecNode`]s (every edge
//! points to an earlier index) plus a root index. Sources are identified by **name** —
//! process-local input ids never cross the wire; the measurement service maps names to
//! its own protected datasets. Every operator payload is an [`Expr`] (or a
//! [`ReduceSpec`] / constant), so the whole plan is data: it can be type-checked
//! ([`PlanSpec::validate`]), printed, optimized, hashed, and executed by a process that
//! has never seen the analyst's compiled code.
//!
//! The JSON encoding is versioned ([`WIRE_VERSION`]); a golden fixture in CI pins the
//! byte-exact format so accidental drift fails the build unless the version is bumped.

use wpinq_core::value::{Value, ValueType};

use crate::expr::Expr;
use crate::json::{Json, Reader};
use crate::WireError;

/// Version stamp of the JSON wire format. Bump on any change to the encoding.
pub const WIRE_VERSION: u32 = 1;

/// The top-level JSON key identifying a plan document (and carrying the version).
pub const WIRE_HEADER: &str = "wpinq_planspec";

/// A group reducer expressed as data.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum ReduceSpec {
    /// Reduce a group to its record count, then apply an expression to the count (`x`
    /// bound to the count as a `u64`). `CountThen(x)` is the plain count; the bucketed
    /// degree query uses `CountThen(x / k)`.
    CountThen(Expr),
}

impl ReduceSpec {
    /// Applies the reducer to a group size.
    pub fn eval_count(&self, count: u64) -> Value {
        match self {
            ReduceSpec::CountThen(post) => post.eval(&Value::U64(count)),
        }
    }

    /// The reducer's output type.
    pub fn infer(&self) -> Result<ValueType, WireError> {
        match self {
            ReduceSpec::CountThen(post) => post.infer(&ValueType::U64),
        }
    }

    /// The canonical byte string (stable closure identity) of this reducer.
    pub fn canonical(&self) -> String {
        self.to_json().to_compact()
    }

    /// The wire encoding.
    pub fn to_json(&self) -> Json {
        match self {
            ReduceSpec::CountThen(post) => Json::Arr(vec![Json::str("count_then"), post.to_json()]),
        }
    }

    /// Decodes the wire encoding.
    pub fn from_json(json: &Json) -> Result<ReduceSpec, WireError> {
        let arr = json
            .as_arr()
            .ok_or_else(|| WireError::new("reducer must be a JSON array"))?;
        match (arr.first().and_then(Json::as_str), arr.len()) {
            (Some("count_then"), 2) => Ok(ReduceSpec::CountThen(Expr::from_json(&arr[1])?)),
            _ => Err(WireError::new("unknown reducer encoding")),
        }
    }
}

impl std::fmt::Display for ReduceSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReduceSpec::CountThen(post) => write!(f, "count⤳{post}"),
        }
    }
}

/// One operator node of a serialized plan. `input`/`left`/`right` are indices into the
/// owning [`PlanSpec`]'s node list and always point at earlier entries.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecNode {
    /// A named source; the executing side binds it to a dataset of the declared type.
    Source {
        /// The dataset name the executing side resolves.
        name: String,
        /// Declared record type of the source.
        ty: ValueType,
    },
    /// `Select`: per-record transformation by an expression.
    Select {
        /// Parent node index.
        input: u32,
        /// The selector.
        expr: Expr,
    },
    /// `Where`: per-record filtering by a boolean expression.
    Where {
        /// Parent node index.
        input: u32,
        /// The predicate.
        expr: Expr,
    },
    /// `SelectMany` with unit-weight productions: each expression produces one record.
    SelectManyUnit {
        /// Parent node index.
        input: u32,
        /// One produced record per expression, in order.
        exprs: Vec<Expr>,
    },
    /// `GroupBy` with an expression key and a [`ReduceSpec`] reducer.
    GroupBy {
        /// Parent node index.
        input: u32,
        /// The grouping key.
        key: Expr,
        /// The group reducer.
        reduce: ReduceSpec,
    },
    /// `Shave` with a constant per-slice weight.
    ShaveConst {
        /// Parent node index.
        input: u32,
        /// The per-slice weight (positive, finite).
        step: f64,
    },
    /// The weight-rescaling equi-join.
    Join {
        /// Left parent node index.
        left: u32,
        /// Right parent node index.
        right: u32,
        /// Key of the left input.
        key_left: Expr,
        /// Key of the right input.
        key_right: Expr,
        /// Result selector over the pair `(left_record, right_record)`.
        result: Expr,
    },
    /// Element-wise maximum.
    Union {
        /// Left parent node index.
        left: u32,
        /// Right parent node index.
        right: u32,
    },
    /// Element-wise minimum.
    Intersect {
        /// Left parent node index.
        left: u32,
        /// Right parent node index.
        right: u32,
    },
    /// Element-wise addition.
    Concat {
        /// Left parent node index.
        left: u32,
        /// Right parent node index.
        right: u32,
    },
    /// Element-wise subtraction.
    Except {
        /// Left parent node index.
        left: u32,
        /// Right parent node index.
        right: u32,
    },
    /// The empty dataset constant.
    Empty {
        /// Record type of the (empty) output.
        ty: ValueType,
    },
}

impl SpecNode {
    fn parents(&self) -> Vec<u32> {
        match self {
            SpecNode::Source { .. } | SpecNode::Empty { .. } => Vec::new(),
            SpecNode::Select { input, .. }
            | SpecNode::Where { input, .. }
            | SpecNode::SelectManyUnit { input, .. }
            | SpecNode::GroupBy { input, .. }
            | SpecNode::ShaveConst { input, .. } => vec![*input],
            SpecNode::Join { left, right, .. }
            | SpecNode::Union { left, right }
            | SpecNode::Intersect { left, right }
            | SpecNode::Concat { left, right }
            | SpecNode::Except { left, right } => vec![*left, *right],
        }
    }
}

/// A serialized expression-built query plan: nodes in topological order plus a root.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanSpec {
    /// The operator nodes; every edge points at an earlier index.
    pub nodes: Vec<SpecNode>,
    /// Index of the root (output) node.
    pub root: u32,
}

impl PlanSpec {
    /// Type-checks the plan: indices are forward-only and in range, expressions are
    /// well-typed, shave steps are positive and finite, binary inputs have equal types.
    /// Returns the record type of every node (the root's entry is the output type).
    pub fn validate(&self) -> Result<Vec<ValueType>, WireError> {
        if self.nodes.is_empty() {
            return Err(WireError::new("plan has no nodes"));
        }
        if self.root as usize >= self.nodes.len() {
            return Err(WireError::new(format!(
                "root index {} out of range for {} nodes",
                self.root,
                self.nodes.len()
            )));
        }
        let mut types: Vec<ValueType> = Vec::with_capacity(self.nodes.len());
        for (index, node) in self.nodes.iter().enumerate() {
            for parent in node.parents() {
                if parent as usize >= index {
                    return Err(WireError::new(format!(
                        "node {index} references node {parent}, which is not earlier in \
                         the topological order"
                    )));
                }
            }
            let at = |msg: WireError| WireError::new(format!("node {index}: {}", msg.message));
            let ty = match node {
                SpecNode::Source { name, ty } => {
                    if name.is_empty() {
                        return Err(WireError::new(format!("node {index}: empty source name")));
                    }
                    ty.clone()
                }
                SpecNode::Select { input, expr } => {
                    expr.infer(&types[*input as usize]).map_err(at)?
                }
                SpecNode::Where { input, expr } => {
                    let input_ty = &types[*input as usize];
                    match expr.infer(input_ty).map_err(at)? {
                        ValueType::Bool => input_ty.clone(),
                        other => {
                            return Err(WireError::new(format!(
                                "node {index}: predicate has type {other}, expected bool"
                            )))
                        }
                    }
                }
                SpecNode::SelectManyUnit { input, exprs } => {
                    if exprs.is_empty() {
                        return Err(WireError::new(format!(
                            "node {index}: select_many with no productions"
                        )));
                    }
                    let input_ty = &types[*input as usize];
                    let mut out: Option<ValueType> = None;
                    for expr in exprs {
                        let ty = expr.infer(input_ty).map_err(at)?;
                        match &out {
                            None => out = Some(ty),
                            Some(expected) if *expected == ty => {}
                            Some(expected) => {
                                return Err(WireError::new(format!(
                                    "node {index}: productions have mixed types {expected} \
                                     and {ty}"
                                )))
                            }
                        }
                    }
                    out.expect("at least one production")
                }
                SpecNode::GroupBy { input, key, reduce } => {
                    let key_ty = key.infer(&types[*input as usize]).map_err(at)?;
                    let reduce_ty = reduce.infer().map_err(at)?;
                    ValueType::Tuple(vec![key_ty, reduce_ty])
                }
                SpecNode::ShaveConst { input, step } => {
                    if !(step.is_finite() && *step > 0.0) {
                        return Err(WireError::new(format!(
                            "node {index}: shave step must be positive and finite, got {step}"
                        )));
                    }
                    ValueType::Tuple(vec![types[*input as usize].clone(), ValueType::U64])
                }
                SpecNode::Join {
                    left,
                    right,
                    key_left,
                    key_right,
                    result,
                } => {
                    let left_ty = types[*left as usize].clone();
                    let right_ty = types[*right as usize].clone();
                    let kl = key_left.infer(&left_ty).map_err(at)?;
                    let kr = key_right.infer(&right_ty).map_err(at)?;
                    if kl != kr {
                        return Err(WireError::new(format!(
                            "node {index}: join keys have mismatched types {kl} and {kr}"
                        )));
                    }
                    result
                        .infer(&ValueType::Tuple(vec![left_ty, right_ty]))
                        .map_err(at)?
                }
                SpecNode::Union { left, right }
                | SpecNode::Intersect { left, right }
                | SpecNode::Concat { left, right }
                | SpecNode::Except { left, right } => {
                    let left_ty = &types[*left as usize];
                    let right_ty = &types[*right as usize];
                    if left_ty != right_ty {
                        return Err(WireError::new(format!(
                            "node {index}: binary inputs have mismatched types {left_ty} \
                             and {right_ty}"
                        )));
                    }
                    left_ty.clone()
                }
                SpecNode::Empty { ty } => ty.clone(),
            };
            types.push(ty);
        }
        Ok(types)
    }

    /// The record type of the plan's output (validates first).
    pub fn output_type(&self) -> Result<ValueType, WireError> {
        Ok(self.validate()?[self.root as usize].clone())
    }

    /// The names and declared types of all sources, in node order.
    pub fn sources(&self) -> Vec<(&str, &ValueType)> {
        self.nodes
            .iter()
            .filter_map(|node| match node {
                SpecNode::Source { name, ty } => Some((name.as_str(), ty)),
                _ => None,
            })
            .collect()
    }

    // ---- serialization ----------------------------------------------------------------

    /// The versioned JSON document.
    pub fn to_json(&self) -> Json {
        let nodes = self.nodes.iter().map(spec_node_to_json).collect();
        Json::Obj(vec![
            (WIRE_HEADER.into(), Json::num(WIRE_VERSION)),
            ("nodes".into(), Json::Arr(nodes)),
            ("root".into(), Json::num(self.root)),
        ])
    }

    /// Compact JSON bytes (the shipping encoding).
    pub fn to_json_string(&self) -> String {
        self.to_json().to_compact()
    }

    /// Pretty JSON (the golden-fixture encoding).
    pub fn to_json_pretty(&self) -> String {
        self.to_json().to_pretty()
    }

    /// A **process-stable** 64-bit FNV-1a hash of the canonical compact encoding
    /// ([`to_json_string`](Self::to_json_string)). Unlike `DefaultHasher`, the value does
    /// not vary per process, so services can use it to label plans in audit logs and
    /// cache diagnostics. Equal canonical bytes always hash equal; a hash is *not* a
    /// substitute for the bytes where collisions would matter (cache keys compare full
    /// encodings).
    pub fn canonical_hash(&self) -> u64 {
        fnv1a64(self.to_json_string().as_bytes())
    }

    /// Parses (and version-checks) a plan document. The plan is **not** type-checked
    /// here; call [`validate`](Self::validate) before executing it.
    pub fn from_json(text: &str) -> Result<PlanSpec, WireError> {
        PlanSpec::from_json_value(&Json::parse(text)?)
    }

    /// [`from_json`](Self::from_json) for a plan document already parsed, e.g. as a
    /// member of a request envelope.
    pub fn from_json_value(json: &Json) -> Result<PlanSpec, WireError> {
        let version = json
            .get(WIRE_HEADER)
            .and_then(Json::as_u64)
            .ok_or_else(|| WireError::new(format!("missing '{WIRE_HEADER}' version header")))?;
        if version != u64::from(WIRE_VERSION) {
            return Err(WireError::new(format!(
                "unsupported wire version {version} (this build speaks {WIRE_VERSION})"
            )));
        }
        let nodes = json
            .get("nodes")
            .and_then(Json::as_arr)
            .ok_or_else(|| WireError::new("missing 'nodes' array"))?
            .iter()
            .map(spec_node_from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let root = json
            .get("root")
            .and_then(Json::as_u64)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| WireError::new("missing or out-of-range 'root' index"))?;
        Ok(PlanSpec { nodes, root })
    }
}

/// The process-stable 64-bit FNV-1a hash behind [`PlanSpec::canonical_hash`], for
/// callers that already hold a plan's canonical bytes. A label, never a key.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Encodes a [`ValueType`].
pub fn value_type_to_json(ty: &ValueType) -> Json {
    match ty {
        ValueType::Unit => Json::str("unit"),
        ValueType::Bool => Json::str("bool"),
        ValueType::U64 => Json::str("u64"),
        ValueType::I64 => Json::str("i64"),
        ValueType::Tuple(items) => {
            let mut arr = vec![Json::str("tuple")];
            arr.extend(items.iter().map(value_type_to_json));
            Json::Arr(arr)
        }
    }
}

/// Decodes a [`ValueType`].
pub fn value_type_from_json(json: &Json) -> Result<ValueType, WireError> {
    match json {
        Json::Str(s) => match s.as_str() {
            "unit" => Ok(ValueType::Unit),
            "bool" => Ok(ValueType::Bool),
            "u64" => Ok(ValueType::U64),
            "i64" => Ok(ValueType::I64),
            other => Err(WireError::new(format!("unknown type '{other}'"))),
        },
        Json::Arr(items) if items.first().and_then(Json::as_str) == Some("tuple") => {
            Ok(ValueType::Tuple(
                items[1..]
                    .iter()
                    .map(value_type_from_json)
                    .collect::<Result<_, _>>()?,
            ))
        }
        _ => Err(WireError::new("malformed type encoding")),
    }
}

/// Encodes a [`Value`] (the release record encoding). Decoding requires the expected
/// [`ValueType`], see [`value_from_json`].
pub fn value_to_json(value: &Value) -> Json {
    match value {
        Value::Unit => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::U64(n) => Json::num(n),
        Value::I64(n) => Json::num(n),
        Value::Tuple(items) => Json::Arr(items.iter().map(value_to_json).collect()),
    }
}

/// Decodes a [`Value`] against its expected type (JSON numbers alone cannot distinguish
/// `u64` from `i64`).
pub fn value_from_json(json: &Json, ty: &ValueType) -> Result<Value, WireError> {
    match (ty, json) {
        (ValueType::Unit, Json::Null) => Ok(Value::Unit),
        (ValueType::Bool, Json::Bool(b)) => Ok(Value::Bool(*b)),
        (ValueType::U64, json) => json
            .as_u64()
            .map(Value::U64)
            .ok_or_else(|| WireError::new("expected an unsigned integer")),
        (ValueType::I64, json) => json
            .as_i64()
            .map(Value::I64)
            .ok_or_else(|| WireError::new("expected a signed integer")),
        (ValueType::Tuple(item_types), Json::Arr(items)) if item_types.len() == items.len() => {
            Ok(Value::Tuple(
                items
                    .iter()
                    .zip(item_types)
                    .map(|(item, item_ty)| value_from_json(item, item_ty))
                    .collect::<Result<_, _>>()?,
            ))
        }
        (ty, _) => Err(WireError::new(format!("value does not match type {ty}"))),
    }
}

/// [`value_from_json`] read straight off a [`Reader`] into `out`, with no [`Json`] node
/// built. A tuple already in `out` is refilled in place: reading many records through one
/// `out` allocates once.
pub fn value_from_reader(
    reader: &mut Reader<'_>,
    ty: &ValueType,
    out: &mut Value,
) -> Result<(), WireError> {
    let mismatch = || WireError::new(format!("value does not match type {ty}"));
    *out = match (ty, reader.peek()?) {
        (ValueType::Unit, b'n') => reader.literal().map(|_| Value::Unit)?,
        (ValueType::Bool, b't' | b'f') => Value::Bool(reader.literal()? == Some(true)),
        (ValueType::U64, _) => Value::U64(
            reader
                .parse()?
                .ok_or_else(|| WireError::new("expected an unsigned integer"))?,
        ),
        (ValueType::I64, _) => Value::I64(
            reader
                .parse()?
                .ok_or_else(|| WireError::new("expected a signed integer"))?,
        ),
        (ValueType::Tuple(item_types), b'[') => {
            reader.begin()?;
            let mut items = match std::mem::replace(out, Value::Unit) {
                Value::Tuple(items) if items.len() == item_types.len() => items,
                _ => vec![Value::Unit; item_types.len()],
            };
            for (item_ty, item) in item_types.iter().zip(&mut items) {
                if !reader.has_next()? {
                    return Err(mismatch());
                }
                value_from_reader(reader, item_ty, item)?;
            }
            if reader.has_next()? {
                return Err(mismatch());
            }
            Value::Tuple(items)
        }
        _ => return Err(mismatch()),
    };
    Ok(())
}

fn obj(op: &str, rest: Vec<(String, Json)>) -> Json {
    let mut members = vec![("op".to_string(), Json::str(op))];
    members.extend(rest);
    Json::Obj(members)
}

fn spec_node_to_json(node: &SpecNode) -> Json {
    match node {
        SpecNode::Source { name, ty } => obj(
            "source",
            vec![
                ("name".into(), Json::str(name.clone())),
                ("type".into(), value_type_to_json(ty)),
            ],
        ),
        SpecNode::Select { input, expr } => obj(
            "select",
            vec![
                ("input".into(), Json::num(input)),
                ("expr".into(), expr.to_json()),
            ],
        ),
        SpecNode::Where { input, expr } => obj(
            "where",
            vec![
                ("input".into(), Json::num(input)),
                ("expr".into(), expr.to_json()),
            ],
        ),
        SpecNode::SelectManyUnit { input, exprs } => obj(
            "select_many_unit",
            vec![
                ("input".into(), Json::num(input)),
                (
                    "exprs".into(),
                    Json::Arr(exprs.iter().map(Expr::to_json).collect()),
                ),
            ],
        ),
        SpecNode::GroupBy { input, key, reduce } => obj(
            "group_by",
            vec![
                ("input".into(), Json::num(input)),
                ("key".into(), key.to_json()),
                ("reduce".into(), reduce.to_json()),
            ],
        ),
        SpecNode::ShaveConst { input, step } => obj(
            "shave_const",
            vec![
                ("input".into(), Json::num(input)),
                ("step".into(), Json::f64(*step)),
            ],
        ),
        SpecNode::Join {
            left,
            right,
            key_left,
            key_right,
            result,
        } => obj(
            "join",
            vec![
                ("left".into(), Json::num(left)),
                ("right".into(), Json::num(right)),
                ("key_left".into(), key_left.to_json()),
                ("key_right".into(), key_right.to_json()),
                ("result".into(), result.to_json()),
            ],
        ),
        SpecNode::Union { left, right } => obj(
            "union",
            vec![
                ("left".into(), Json::num(left)),
                ("right".into(), Json::num(right)),
            ],
        ),
        SpecNode::Intersect { left, right } => obj(
            "intersect",
            vec![
                ("left".into(), Json::num(left)),
                ("right".into(), Json::num(right)),
            ],
        ),
        SpecNode::Concat { left, right } => obj(
            "concat",
            vec![
                ("left".into(), Json::num(left)),
                ("right".into(), Json::num(right)),
            ],
        ),
        SpecNode::Except { left, right } => obj(
            "except",
            vec![
                ("left".into(), Json::num(left)),
                ("right".into(), Json::num(right)),
            ],
        ),
        SpecNode::Empty { ty } => obj("empty", vec![("type".into(), value_type_to_json(ty))]),
    }
}

fn spec_node_from_json(json: &Json) -> Result<SpecNode, WireError> {
    let op = json
        .get("op")
        .and_then(Json::as_str)
        .ok_or_else(|| WireError::new("node missing 'op'"))?;
    let index = |key: &str| -> Result<u32, WireError> {
        json.get(key)
            .and_then(Json::as_u64)
            .and_then(|n| u32::try_from(n).ok())
            .ok_or_else(|| {
                WireError::new(format!("'{op}' node missing or out-of-range index '{key}'"))
            })
    };
    let expr = |key: &str| -> Result<Expr, WireError> {
        Expr::from_json(
            json.get(key)
                .ok_or_else(|| WireError::new(format!("'{op}' node missing '{key}'")))?,
        )
    };
    match op {
        "source" => Ok(SpecNode::Source {
            name: json
                .get("name")
                .and_then(Json::as_str)
                .ok_or_else(|| WireError::new("'source' node missing 'name'"))?
                .to_string(),
            ty: value_type_from_json(
                json.get("type")
                    .ok_or_else(|| WireError::new("'source' node missing 'type'"))?,
            )?,
        }),
        "select" => Ok(SpecNode::Select {
            input: index("input")?,
            expr: expr("expr")?,
        }),
        "where" => Ok(SpecNode::Where {
            input: index("input")?,
            expr: expr("expr")?,
        }),
        "select_many_unit" => Ok(SpecNode::SelectManyUnit {
            input: index("input")?,
            exprs: json
                .get("exprs")
                .and_then(Json::as_arr)
                .ok_or_else(|| WireError::new("'select_many_unit' node missing 'exprs'"))?
                .iter()
                .map(Expr::from_json)
                .collect::<Result<_, _>>()?,
        }),
        "group_by" => Ok(SpecNode::GroupBy {
            input: index("input")?,
            key: expr("key")?,
            reduce: ReduceSpec::from_json(
                json.get("reduce")
                    .ok_or_else(|| WireError::new("'group_by' node missing 'reduce'"))?,
            )?,
        }),
        "shave_const" => Ok(SpecNode::ShaveConst {
            input: index("input")?,
            step: json
                .get("step")
                .and_then(Json::as_f64)
                .ok_or_else(|| WireError::new("'shave_const' node missing 'step'"))?,
        }),
        "join" => Ok(SpecNode::Join {
            left: index("left")?,
            right: index("right")?,
            key_left: expr("key_left")?,
            key_right: expr("key_right")?,
            result: expr("result")?,
        }),
        "union" => Ok(SpecNode::Union {
            left: index("left")?,
            right: index("right")?,
        }),
        "intersect" => Ok(SpecNode::Intersect {
            left: index("left")?,
            right: index("right")?,
        }),
        "concat" => Ok(SpecNode::Concat {
            left: index("left")?,
            right: index("right")?,
        }),
        "except" => Ok(SpecNode::Except {
            left: index("left")?,
            right: index("right")?,
        }),
        "empty" => Ok(SpecNode::Empty {
            ty: value_type_from_json(
                json.get("type")
                    .ok_or_else(|| WireError::new("'empty' node missing 'type'"))?,
            )?,
        }),
        other => Err(WireError::new(format!("unknown node op '{other}'"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn edge_ty() -> ValueType {
        ValueType::Tuple(vec![ValueType::U64, ValueType::U64])
    }

    /// The degree-CCDF plan, hand-assembled at the wire level.
    fn degree_spec() -> PlanSpec {
        let x = Expr::input;
        PlanSpec {
            nodes: vec![
                SpecNode::Source {
                    name: "edges".into(),
                    ty: edge_ty(),
                },
                SpecNode::Select {
                    input: 0,
                    expr: x().field(0),
                },
                SpecNode::ShaveConst {
                    input: 1,
                    step: 1.0,
                },
                SpecNode::Select {
                    input: 2,
                    expr: x().field(1),
                },
            ],
            root: 3,
        }
    }

    #[test]
    fn validation_infers_node_types() {
        let types = degree_spec().validate().unwrap();
        assert_eq!(types[0], edge_ty());
        assert_eq!(types[1], ValueType::U64);
        assert_eq!(
            types[2],
            ValueType::Tuple(vec![ValueType::U64, ValueType::U64])
        );
        assert_eq!(types[3], ValueType::U64);
        assert_eq!(degree_spec().output_type().unwrap(), ValueType::U64);
        assert_eq!(degree_spec().sources(), vec![("edges", &edge_ty())]);
    }

    #[test]
    fn validation_rejects_malformed_plans() {
        // Forward reference.
        let mut spec = degree_spec();
        spec.nodes[1] = SpecNode::Select {
            input: 3,
            expr: Expr::input(),
        };
        assert!(spec.validate().is_err());

        // Root out of range.
        let mut spec = degree_spec();
        spec.root = 9;
        assert!(spec.validate().is_err());

        // Ill-typed predicate.
        let mut spec = degree_spec();
        spec.nodes.push(SpecNode::Where {
            input: 3,
            expr: Expr::input(),
        });
        spec.root = 4;
        assert!(spec.validate().is_err());

        // Bad shave step.
        let mut spec = degree_spec();
        spec.nodes[2] = SpecNode::ShaveConst {
            input: 1,
            step: -1.0,
        };
        assert!(spec.validate().is_err());

        // Mixed-type binary.
        let mut spec = degree_spec();
        spec.nodes.push(SpecNode::Concat { left: 0, right: 3 });
        spec.root = 4;
        assert!(spec.validate().is_err(), "u64 vs (u64, u64) concat");
    }

    #[test]
    fn json_round_trip_is_exact() {
        let spec = PlanSpec {
            nodes: vec![
                SpecNode::Source {
                    name: "edges".into(),
                    ty: edge_ty(),
                },
                SpecNode::Where {
                    input: 0,
                    expr: Expr::input().field(0).ne(Expr::input().field(1)),
                },
                SpecNode::SelectManyUnit {
                    input: 1,
                    exprs: vec![Expr::input().field(0), Expr::input().field(1)],
                },
                SpecNode::GroupBy {
                    input: 2,
                    key: Expr::input(),
                    reduce: ReduceSpec::CountThen(Expr::input().div(Expr::u64(2))),
                },
                SpecNode::Join {
                    left: 3,
                    right: 3,
                    key_left: Expr::input().field(0),
                    key_right: Expr::input().field(0),
                    result: Expr::input().field(0).field(1),
                },
                SpecNode::Empty { ty: ValueType::U64 },
                SpecNode::Union { left: 4, right: 5 },
                SpecNode::Intersect { left: 6, right: 6 },
                SpecNode::Concat { left: 7, right: 7 },
                SpecNode::Except { left: 8, right: 8 },
            ],
            root: 9,
        };
        let text = spec.to_json_string();
        let back = PlanSpec::from_json(&text).unwrap();
        assert_eq!(back, spec);
        assert_eq!(back.to_json_string(), text, "serialization is canonical");
        let pretty = spec.to_json_pretty();
        assert_eq!(PlanSpec::from_json(&pretty).unwrap(), spec);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn shave_step_round_trips_bitwise() {
        let step = f64::from_bits(0x3fe5555555555555); // 1/3 + ulp noise
        let spec = PlanSpec {
            nodes: vec![
                SpecNode::Source {
                    name: "s".into(),
                    ty: ValueType::U64,
                },
                SpecNode::ShaveConst { input: 0, step },
            ],
            root: 1,
        };
        let back = PlanSpec::from_json(&spec.to_json_string()).unwrap();
        match &back.nodes[1] {
            SpecNode::ShaveConst { step: got, .. } => assert_eq!(got.to_bits(), step.to_bits()),
            other => panic!("unexpected node {other:?}"),
        }
    }

    #[test]
    fn out_of_range_indices_are_rejected_not_truncated() {
        // 2^32 would silently wrap to index 0 under an `as u32` cast, making the decoded
        // plan differ from the document; the parser must reject instead.
        let huge = r#"{"wpinq_planspec":1,"nodes":[
            {"op":"source","name":"edges","type":["tuple","u64","u64"]},
            {"op":"select","input":4294967296,"expr":["in"]}
        ],"root":1}"#;
        let err = PlanSpec::from_json(huge).unwrap_err();
        assert!(err.message.contains("out-of-range"), "{err}");

        let huge_root = r#"{"wpinq_planspec":1,"nodes":[
            {"op":"source","name":"edges","type":"u64"}
        ],"root":4294967296}"#;
        let err = PlanSpec::from_json(huge_root).unwrap_err();
        assert!(err.message.contains("out-of-range"), "{err}");
    }

    #[test]
    fn version_mismatch_is_rejected() {
        let mut json = degree_spec().to_json();
        if let Json::Obj(members) = &mut json {
            members[0].1 = Json::num(999u32);
        }
        let err = PlanSpec::from_json(&json.to_compact()).unwrap_err();
        assert!(err.message.contains("version"), "{err}");
    }

    #[test]
    fn values_round_trip_against_their_types() {
        let ty = ValueType::Tuple(vec![
            ValueType::Tuple(vec![ValueType::U64, ValueType::U64, ValueType::U64]),
            ValueType::I64,
            ValueType::Bool,
            ValueType::Unit,
        ]);
        let value = Value::Tuple(vec![
            Value::Tuple(vec![Value::U64(1), Value::U64(2), Value::U64(3)]),
            Value::I64(-9),
            Value::Bool(true),
            Value::Unit,
        ]);
        let json = value_to_json(&value);
        assert_eq!(value_from_json(&json, &ty).unwrap(), value);
        // Decoding against the wrong type fails rather than guessing.
        assert!(value_from_json(&json, &ValueType::U64).is_err());
    }

    /// The pull reader accepts exactly what the tree decoder accepts and yields the same
    /// values, also when one `out` is refilled across records of different shapes.
    #[test]
    fn reader_values_equal_tree_values() {
        let pair = ValueType::Tuple(vec![ValueType::U64, ValueType::I64]);
        let nested = ValueType::Tuple(vec![pair.clone(), ValueType::Bool, ValueType::Unit]);
        let types = [
            ValueType::Unit,
            ValueType::U64,
            ValueType::I64,
            pair,
            nested,
        ];
        let texts = [
            "null",
            "true",
            "0",
            "18446744073709551615",
            "18446744073709551616",
            "-9223372036854775808",
            "-1",
            "1.0",
            "1e3",
            "\"7\"",
            "[]",
            "[7,-7]",
            "[7,-7,7]",
            "[[7,-7],false,null]",
            "[[7,-7],false]",
            "[[7,7.5],true,null]",
            "[[7,-7],false,null,1]",
        ];
        let mut out = Value::Unit;
        for text in texts {
            for ty in &types {
                let tree = value_from_json(&Json::parse(text).unwrap(), ty);
                let mut reader = Reader::new(text);
                let pulled = value_from_reader(&mut reader, ty, &mut out).map(|()| out.clone());
                assert_eq!(tree.is_ok(), pulled.is_ok(), "{text} as {ty}");
                if let Ok(value) = tree {
                    assert_eq!(pulled.unwrap(), value, "{text} as {ty}");
                    assert!(reader.end().is_ok(), "{text} read to its end");
                }
            }
        }
    }
}
