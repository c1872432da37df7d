//! Dynamic JSON over the vendored serde's `Value` tree.
//!
//! The result document, the trace files and `BENCHMARK.json` are all
//! read and written as plain trees: the vendored serde has no map or
//! `Value` impls, so this newtype supplies the two trait impls and a few
//! accessors.

use serde::{Deserialize, Deserializer, Serialize, Serializer, Value};

/// A JSON tree that deserializes as itself.
struct Parsed(Value);

impl<'de> Deserialize<'de> for Parsed {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        deserializer.into_value().map(Parsed)
    }
}

/// A borrowed JSON tree that serializes as itself.
struct Tree<'a>(&'a Value);

impl Serialize for Tree<'_> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_value(self.0.clone())
    }
}

/// Builds an object from `(key, value)` pairs, keeping their order.
pub fn obj<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn s(v: &str) -> Value {
    Value::Str(v.to_string())
}

pub fn num(v: f64) -> Value {
    Value::F64(v)
}

pub fn uint(v: usize) -> Value {
    Value::U64(v as u64)
}

pub fn arr(items: impl IntoIterator<Item = Value>) -> Value {
    Value::Array(items.into_iter().collect())
}

/// Field of an object, `None` for a missing key or a non-object.
pub fn get<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

pub fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(x) => Some(*x as f64),
        Value::I64(x) => Some(*x as f64),
        _ => None,
    }
}

pub fn as_array(v: &Value) -> &[Value] {
    match v {
        Value::Array(items) => items,
        _ => &[],
    }
}

pub fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Parsed>(text)
        .map(|p| p.0)
        .map_err(|e| e.to_string())
}

pub fn compact(v: &Value) -> String {
    serde_json::to_string(&Tree(v)).expect("a value tree always serializes")
}

pub fn pretty(v: &Value) -> String {
    serde_json::to_string_pretty(&Tree(v)).expect("a value tree always serializes")
}
