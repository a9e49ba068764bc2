//! The little JSON writing the result files need. Parsing (for `compare`
//! and the tests) reuses `rideshare_trace::wire::parse_json`.

/// `s` as a JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `v` with all its digits (shortest form that reads back exactly). JSON
/// has no NaN or infinity; a measurement that produced one reads 0.
pub fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Writes a parsed value back out (numbers keep their original text).
pub fn serialize(value: &rideshare_trace::wire::JsonValue) -> String {
    use rideshare_trace::wire::JsonValue as J;
    match value {
        J::Null => "null".to_string(),
        J::Bool(b) => b.to_string(),
        J::Num(text) => text.clone(),
        J::Str(s) => quote(s),
        J::Arr(items) => {
            let items: Vec<String> = items.iter().map(serialize).collect();
            format!("[{}]", items.join(", "))
        }
        J::Obj(fields) => {
            let fields: Vec<String> = fields
                .iter()
                .map(|(k, v)| format!("{}: {}", quote(k), serialize(v)))
                .collect();
            format!("{{{}}}", fields.join(", "))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rideshare_trace::wire::parse_json;

    #[test]
    fn serialize_round_trips_through_the_parser() {
        let text = r#"{"a": [1, 2.5e3, "x\"y\\z\n"], "b": {"c": null, "d": true}}"#;
        let parsed = parse_json(text).expect("valid");
        assert_eq!(parse_json(&serialize(&parsed)).expect("valid"), parsed);
    }

    #[test]
    fn numbers_keep_all_their_digits() {
        assert_eq!(number(0.1 + 0.2), "0.30000000000000004");
        assert_eq!(number(f64::NAN), "0");
    }
}
