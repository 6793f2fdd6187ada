//! A minimal JSON object writer (the benchmark has no dependencies
//! beyond the repository's own crates).

use std::fmt::Write;

/// An object under construction; keys keep insertion order.
#[derive(Debug, Default)]
pub struct Obj {
    body: String,
}

impl Obj {
    pub fn new() -> Obj {
        Obj::default()
    }

    fn key(&mut self, key: &str) -> &mut String {
        if !self.body.is_empty() {
            self.body.push(',');
        }
        write_str(&mut self.body, key);
        self.body.push(':');
        &mut self.body
    }

    /// A float; non-finite values become `null`.
    pub fn num(&mut self, key: &str, value: f64) -> &mut Obj {
        let body = self.key(key);
        if value.is_finite() {
            write!(body, "{value}").expect("writing to a String");
        } else {
            body.push_str("null");
        }
        self
    }

    pub fn int(&mut self, key: &str, value: u64) -> &mut Obj {
        write!(self.key(key), "{value}").expect("writing to a String");
        self
    }

    pub fn str(&mut self, key: &str, value: &str) -> &mut Obj {
        write_str(self.key(key), value);
        self
    }

    /// A value that is already JSON text.
    pub fn raw(&mut self, key: &str, json: &str) -> &mut Obj {
        self.key(key).push_str(json);
        self
    }

    pub fn ints(&mut self, key: &str, values: &[u64]) -> &mut Obj {
        let body = self.key(key);
        body.push('[');
        for (i, v) in values.iter().enumerate() {
            if i > 0 {
                body.push(',');
            }
            write!(body, "{v}").expect("writing to a String");
        }
        body.push(']');
        self
    }

    pub fn finish(&self) -> String {
        format!("{{{}}}", self.body)
    }
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                write!(out, "\\u{:04x}", c as u32).expect("writing to a String");
            }
            c => out.push(c),
        }
    }
    out.push('"');
}
