//! Small helpers over the vendored `serde_json` value tree (which has no
//! `json!` macro): building objects and reading fields back.

use serde_json::{Map, Number, Value};

/// A finite float as a JSON number, printed with all its digits.
///
/// # Panics
///
/// Panics on NaN or infinity: every number the harness reports is a
/// measurement or a ratio guarded against a zero denominator.
pub fn num(value: f64) -> Value {
    Value::Number(Number::from_f64(value).expect("reported numbers are finite"))
}

/// A non-negative integer as a JSON number.
pub fn uint(value: u64) -> Value {
    Value::Number(Number::from_u64(value))
}

/// An array of strings.
pub fn strings(items: &[&str]) -> Value {
    Value::Array(
        items
            .iter()
            .map(|s| Value::String((*s).to_owned()))
            .collect(),
    )
}

/// An object from `(key, value)` pairs, in order.
pub fn obj<K: Into<String>>(entries: impl IntoIterator<Item = (K, Value)>) -> Value {
    let mut map = Map::new();
    for (key, value) in entries {
        map.insert(key, value);
    }
    Value::Object(map)
}

/// Field `key` of object `value`.
pub fn field<'a>(value: &'a Value, key: &str) -> Result<&'a Value, String> {
    value
        .as_object()
        .and_then(|o| o.get(key))
        .ok_or_else(|| format!("missing field {key:?}"))
}

/// Field `key` as a float.
pub fn f64_field(value: &Value, key: &str) -> Result<f64, String> {
    field(value, key)?
        .as_f64()
        .ok_or_else(|| format!("field {key:?} is not a number"))
}

/// Field `key` as an unsigned integer.
pub fn u64_field(value: &Value, key: &str) -> Result<u64, String> {
    field(value, key)?
        .as_u64()
        .ok_or_else(|| format!("field {key:?} is not an unsigned integer"))
}

/// Field `key` as an array.
pub fn array_field<'a>(value: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(value, key)?
        .as_array()
        .ok_or_else(|| format!("field {key:?} is not an array"))
}

/// Field `key` as an array of strings.
pub fn strings_field(value: &Value, key: &str) -> Result<Vec<String>, String> {
    array_field(value, key)?
        .iter()
        .map(|v| {
            v.as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("field {key:?} holds a non-string"))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn objects_round_trip_with_all_digits() {
        let value = obj([
            ("setup_s", num(2.7134e-5)),
            ("fingerprint", uint(u64::MAX)),
            ("list", strings(&["a"])),
        ]);
        let text = value.to_json_string();
        let parsed: Value = serde_json::from_str(&text).expect("valid JSON");
        assert_eq!(f64_field(&parsed, "setup_s"), Ok(2.7134e-5));
        assert_eq!(u64_field(&parsed, "fingerprint"), Ok(u64::MAX));
        assert_eq!(strings_field(&parsed, "list"), Ok(vec!["a".to_owned()]));
        assert!(f64_field(&parsed, "absent").is_err());
        assert!(u64_field(&parsed, "setup_s").is_err());
    }
}
