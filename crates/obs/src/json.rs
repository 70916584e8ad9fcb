//! Builders for the JSON documents the workspace writes (traces,
//! manifests, baselines, verdicts, service telemetry), over the vendored
//! `serde_json` value tree.

use serde::{Number, Serialize, Value};

/// An object with `fields` in the given order. Field order is part of
/// every byte contract built with it.
pub fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// String pairs as an object of strings (attrs, manifest fields).
pub fn str_map(pairs: &[(String, String)]) -> Value {
    Value::Object(pairs.iter().map(|(k, v)| (k.clone(), Value::String(v.into()))).collect())
}

/// A float the way traces and baselines print it: integral values below
/// 1e15 as integers (`2`, not `2.0`), non-finite values as `0` (JSON has
/// no NaN or infinity), everything else in shortest round-trip form.
pub fn num(v: f64) -> Value {
    if !v.is_finite() {
        Value::Number(Number::U(0))
    } else if v == v.trunc() && v.abs() < 1e15 {
        (v as i64).serialize()
    } else {
        Value::Number(Number::F(v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numbers_print_like_the_text_formatter() {
        for v in
            [0.0, -0.0, 2.0, -3.0, 2.5, 0.125, 1.5e-7, 1e20, 1e15, -1e15, f64::NAN, f64::INFINITY]
        {
            let json = serde_json::to_string(&num(v)).unwrap();
            assert_eq!(json, crate::event::fmt_f64(v), "{v}");
        }
    }
}
