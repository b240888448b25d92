//! Minimal JSON output for the result line, run record and span tree.

pub enum J {
    Null,
    Bool(bool),
    Int(u64),
    /// Written with every digit Rust's shortest round-trip form has.
    Num(f64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    pub fn obj<const N: usize>(fields: [(&str, J); N]) -> J {
        J::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            J::Null => out.push_str("null"),
            J::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            J::Int(n) => out.push_str(&n.to_string()),
            J::Num(x) if x.is_finite() => out.push_str(&format!("{x:?}")),
            J::Num(_) => out.push_str("null"),
            J::Str(s) => write_str(s, out),
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::J;

    #[test]
    fn renders_nested_values() {
        let v = J::obj([
            ("a", J::Num(1.5)),
            ("b", J::Arr(vec![J::Int(2), J::Null])),
            ("c", J::Str("x\"y".into())),
        ]);
        assert_eq!(v.render(), r#"{"a": 1.5, "b": [2, null], "c": "x\"y"}"#);
    }
}
