//! InfluxDB line protocol: `measurement,tag=v,... field=v,... timestamp`.
//!
//! Timestamps are epoch **seconds** (MonSTer's native resolution). Escaping
//! follows the InfluxDB rules: commas/spaces/equals are backslash-escaped
//! in measurement names, tag keys/values and field keys; string field
//! values are double-quoted with `\"` escapes.

use crate::field::FieldValue;
use crate::point::DataPoint;
use monster_util::{EpochSecs, Error, Result};

/// Append `s` to `out` with line-protocol identifier escaping (commas,
/// spaces and equals signs are backslash-escaped).
fn push_escaped(s: &str, out: &mut String) {
    for c in s.chars() {
        if matches!(c, ',' | ' ' | '=') {
            out.push('\\');
        }
        out.push(c);
    }
}

/// Append a double-quoted string field value with `\"` / `\\` escapes.
fn push_string_field(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        if c == '"' || c == '\\' {
            out.push('\\');
        }
        out.push(c);
    }
    out.push('"');
}

/// Encode one point as a line (no trailing newline).
pub fn encode(p: &DataPoint) -> String {
    let mut out = String::with_capacity(64);
    encode_into(p, &mut out);
    out
}

/// Encode one point into an existing buffer (no trailing newline, nothing
/// cleared first). `Db::write_batch` renders a whole batch into one WAL
/// payload this way, one line per point.
pub fn encode_into(p: &DataPoint, out: &mut String) {
    use std::fmt::Write;
    push_escaped(&p.measurement, out);
    for (k, v) in &p.tags {
        out.push(',');
        push_escaped(k, out);
        out.push('=');
        push_escaped(v, out);
    }
    out.push(' ');
    for (i, (k, v)) in p.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_escaped(k, out);
        out.push('=');
        match v {
            FieldValue::Str(s) => push_string_field(s, out),
            // Integer/float/bool `Display` renders digits through stack
            // buffers — no heap allocation.
            other => {
                let _ = write!(out, "{other}");
            }
        }
    }
    out.push(' ');
    let _ = write!(out, "{}", p.time.as_secs());
}

/// Encode a batch, newline-separated.
pub fn encode_batch(points: &[DataPoint]) -> String {
    let mut out = String::with_capacity(points.len() * 64);
    for (i, p) in points.iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(&encode(p));
    }
    out
}

/// Parse one line.
pub fn parse(line: &str) -> Result<DataPoint> {
    let mut scanner = Scanner { chars: line.chars().collect(), pos: 0 };
    scanner.point()
}

/// Parse a newline-separated batch, skipping blank lines.
pub fn parse_batch(text: &str) -> Result<Vec<DataPoint>> {
    text.lines().map(str::trim).filter(|l| !l.is_empty()).map(parse).collect()
}

struct Scanner {
    chars: Vec<char>,
    pos: usize,
}

impl Scanner {
    fn err(&self, msg: &str) -> Error {
        Error::parse(format!("line protocol: {msg} at char {}", self.pos))
    }

    fn peek(&self) -> Option<char> {
        self.chars.get(self.pos).copied()
    }

    /// Read an identifier, stopping at any unescaped char in `stops`.
    fn ident(&mut self, stops: &[char]) -> Result<String> {
        let mut out = String::new();
        loop {
            match self.peek() {
                None => break,
                Some('\\') => {
                    self.pos += 1;
                    let c = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                    out.push(c);
                    self.pos += 1;
                }
                Some(c) if stops.contains(&c) => break,
                Some(c) => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
        if out.is_empty() {
            return Err(self.err("empty identifier"));
        }
        Ok(out)
    }

    fn expect(&mut self, c: char) -> Result<()> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected {c:?}")))
        }
    }

    fn point(&mut self) -> Result<DataPoint> {
        let measurement = self.ident(&[',', ' '])?;
        let mut tags = Vec::new();
        while self.peek() == Some(',') {
            self.pos += 1;
            let k = self.ident(&['='])?;
            self.expect('=')?;
            let v = self.ident(&[',', ' '])?;
            tags.push((k, v));
        }
        self.expect(' ')?;
        let mut fields = Vec::new();
        loop {
            let k = self.ident(&['='])?;
            self.expect('=')?;
            let v = self.field_value()?;
            fields.push((k, v));
            match self.peek() {
                Some(',') => {
                    self.pos += 1;
                }
                Some(' ') => break,
                None => break,
                _ => return Err(self.err("expected ',' or ' ' after field")),
            }
        }
        let time = if self.peek() == Some(' ') {
            self.pos += 1;
            let digits: String = std::iter::from_fn(|| {
                let c = self.peek()?;
                (c == '-' || c.is_ascii_digit()).then(|| {
                    self.pos += 1;
                    c
                })
            })
            .collect();
            EpochSecs::new(digits.parse().map_err(|_| self.err("bad timestamp"))?)
        } else {
            return Err(self.err("missing timestamp"));
        };
        if self.pos != self.chars.len() {
            return Err(self.err("trailing characters"));
        }
        let mut p = DataPoint::new(measurement, time);
        p.tags = tags;
        p.fields = fields;
        Ok(p)
    }

    fn field_value(&mut self) -> Result<FieldValue> {
        match self.peek() {
            Some('"') => {
                self.pos += 1;
                let mut s = String::new();
                loop {
                    match self.peek() {
                        None => return Err(self.err("unterminated string field")),
                        Some('\\') => {
                            self.pos += 1;
                            let c = self.peek().ok_or_else(|| self.err("dangling escape"))?;
                            s.push(c);
                            self.pos += 1;
                        }
                        Some('"') => {
                            self.pos += 1;
                            return Ok(FieldValue::Str(s));
                        }
                        Some(c) => {
                            s.push(c);
                            self.pos += 1;
                        }
                    }
                }
            }
            Some('t') | Some('f') => {
                let word: String = std::iter::from_fn(|| {
                    let c = self.peek()?;
                    c.is_ascii_alphabetic().then(|| {
                        self.pos += 1;
                        c
                    })
                })
                .collect();
                match word.as_str() {
                    "true" | "t" | "T" => Ok(FieldValue::Bool(true)),
                    "false" | "f" | "F" => Ok(FieldValue::Bool(false)),
                    _ => Err(self.err("bad boolean field")),
                }
            }
            Some(c) if c == '-' || c.is_ascii_digit() => {
                let mut text = String::new();
                while let Some(c) = self.peek() {
                    if c == '-'
                        || c == '+'
                        || c == '.'
                        || c == 'e'
                        || c == 'E'
                        || c.is_ascii_digit()
                    {
                        text.push(c);
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                if self.peek() == Some('i') {
                    self.pos += 1;
                    text.parse::<i64>()
                        .map(FieldValue::Int)
                        .map_err(|_| self.err("bad integer field"))
                } else {
                    text.parse::<f64>()
                        .map(FieldValue::Float)
                        .map_err(|_| self.err("bad float field"))
                }
            }
            _ => Err(self.err("bad field value")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encodes_fig4_sample() {
        let p = DataPoint::new("Power", EpochSecs::new(1_583_792_296))
            .tag("NodeId", "10.101.1.1")
            .tag("Label", "NodePower")
            .field_f64("Reading", 273.8);
        assert_eq!(encode(&p), "Power,NodeId=10.101.1.1,Label=NodePower Reading=273.8 1583792296");
    }

    #[test]
    fn encodes_fig5_joblist_string() {
        let p = DataPoint::new("NodeJobs", EpochSecs::new(1_583_892_564))
            .tag("NodeId", "10.101.1.1")
            .field_str("JobList", "['1291784', '1318962']");
        let line = encode(&p);
        assert!(line.contains("JobList=\"['1291784', '1318962']\""));
        let back = parse(&line).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn round_trips_every_field_type() {
        let p = DataPoint::new("M", EpochSecs::new(-5))
            .tag("t", "v")
            .field_f64("f", -2.5e3)
            .field_i64("i", -42)
            .field_bool("b", true)
            .field_str("s", "with \"quotes\" and \\slash");
        let back = parse(&encode(&p)).unwrap();
        assert_eq!(back, p);
    }

    #[test]
    fn escaping_special_chars_in_tags() {
        let p = DataPoint::new("cpu load", EpochSecs::new(7))
            .tag("host name", "a,b=c")
            .field_f64("v", 1.0);
        let line = encode(&p);
        assert!(line.starts_with("cpu\\ load,host\\ name=a\\,b\\=c "));
        assert_eq!(parse(&line).unwrap(), p);
    }

    #[test]
    fn batch_round_trip_skips_blank_lines() {
        let points: Vec<DataPoint> = (0..5)
            .map(|i| {
                DataPoint::new("m", EpochSecs::new(i))
                    .tag("n", format!("node{i}"))
                    .field_i64("v", i)
            })
            .collect();
        let mut text = encode_batch(&points);
        text.push_str("\n\n  \n");
        assert_eq!(parse_batch(&text).unwrap(), points);
    }

    #[test]
    fn rejects_malformed_lines() {
        for bad in [
            "",
            "m",
            "m v=1",          // missing timestamp
            "m, v=1 5",       // empty tag
            "m,k v=1 5",      // tag missing '='
            "m v= 5",         // empty field value
            "m v=1x 5",       // junk in number
            "m v=\"open 5",   // unterminated string
            "m v=1 notatime", // bad timestamp
            "m v=1 5 extra",  // trailing garbage
            "m v=trub 5",     // bad bool
            "m v=1.5i 5",     // non-integer with i suffix
        ] {
            assert!(parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn integer_marker_distinguishes_types() {
        let int = parse("m v=5i 1").unwrap();
        let float = parse("m v=5 1").unwrap();
        assert_eq!(int.get_field("v"), Some(&FieldValue::Int(5)));
        assert_eq!(float.get_field("v"), Some(&FieldValue::Float(5.0)));
    }

    #[test]
    fn negative_timestamps_allowed() {
        let p = parse("m v=1 -86400").unwrap();
        assert_eq!(p.time, EpochSecs::new(-86_400));
    }
}
