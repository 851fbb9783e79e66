//! The store's record vocabulary and its JSON codec.
//!
//! Every line of the WAL and of a snapshot is one [`Record`], encoded as
//! a single-line JSON object with a `"k"` discriminator. Three kinds of
//! knowledge persist (§2/§5.3 of the paper: the test database plus every
//! expensive oracle answer):
//!
//! * [`Record::Report`] — one T-GEN test report (frame code, inputs,
//!   outputs, verdict) for a unit;
//! * [`Record::Answer`] — one assertion/oracle answer, keyed by the
//!   `(unit, In-values)` fingerprint of the judged execution-tree node;
//! * [`Record::Verdict`] — one campaign golden-reference verdict, keyed
//!   by a campaign fingerprint, with an opaque JSON payload (the mutation
//!   harness owns the payload schema, keeping this crate free of a
//!   `gadt-mutate` dependency).
//!
//! The codec is deterministic: encoding a record always yields the same
//! bytes, and `decode(encode(r)) == r` for every record (pinned by the
//! round-trip tests below and `tests/properties.rs`).

use crate::{obj, Json};
use gadt_pascal::value::{ArrayValue, Value};

/// On-disk format name, first line of every store file.
pub const FORMAT: &str = "gadt-store";

/// Current on-disk format version. Readers accept any version `<=`
/// this; a higher version on disk means the file was written by a newer
/// build and is refused (forward migration happens on the writer side).
pub const VERSION: u32 = 1;

/// A stored test report — the persistent twin of
/// `gadt_tgen::cases::TestReport`, plus the unit it belongs to (the
/// in-memory `TestDb` carries the unit once per database; the flat WAL
/// carries it per record).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredReport {
    /// The unit under test (stored lowercase).
    pub unit: String,
    /// The frame's coded form.
    pub code: String,
    /// The inputs used.
    pub inputs: Vec<Value>,
    /// Output values.
    pub outputs: Vec<Value>,
    /// The verdict.
    pub passed: bool,
}

/// A stored oracle answer: the definite verdicts of
/// `gadt::oracle::Answer`, minus `DontKnow` (which is never knowledge).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoredAnswer {
    /// The unit behaved as intended.
    Correct,
    /// The unit misbehaved; optionally which output was wrong (the
    /// error indication that activates slicing).
    Incorrect {
        /// Index of the wrong output value, when known.
        wrong_output: Option<usize>,
    },
}

/// One WAL/snapshot line.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// File header: format name + version. Always the first line.
    Header {
        /// Format version the file was written with.
        version: u32,
    },
    /// A test report.
    Report(StoredReport),
    /// An oracle answer for a `(unit, In-values)` fingerprint.
    Answer {
        /// The fingerprint key (see [`answer_key`]).
        key: String,
        /// The answer.
        answer: StoredAnswer,
        /// Which knowledge source produced it (`"test database"`,
        /// `"simulated user (reference implementation)"`, …).
        source: String,
    },
    /// A campaign golden-reference verdict with an opaque payload.
    Verdict {
        /// The campaign fingerprint key.
        key: String,
        /// Harness-defined payload (e.g. an encoded `MutantStatus`).
        payload: Json,
    },
}

/// The `(unit, In-values)` fingerprint an oracle answer is keyed by.
/// Unit names compare case-insensitively in the debugger, so the key
/// lowercases; values render through the same deterministic encoding
/// the store writes to disk.
pub fn answer_key(unit: &str, ins: &[Value]) -> String {
    let mut key = unit.to_ascii_lowercase();
    key.push('(');
    for (i, v) in ins.iter().enumerate() {
        if i > 0 {
            key.push(',');
        }
        key.push_str(&value_to_json(v).to_string());
    }
    key.push(')');
    key
}

/// Encodes a runtime [`Value`] as JSON. The encoding is tagged just
/// enough to be unambiguous on the way back: integers, booleans and
/// strings map to their JSON natives; reals carry a `.0`/exponent so
/// they never collapse into integers; chars and arrays wrap in
/// single-field objects.
pub fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Int(n) => Json::Int(*n),
        Value::Real(x) => Json::Real(*x),
        Value::Bool(b) => Json::Bool(*b),
        Value::Char(c) => obj(vec![("char", Json::Str(c.to_string()))]),
        Value::Str(s) => Json::Str(s.clone()),
        Value::Array(a) => obj(vec![
            ("lo", Json::Int(a.lo)),
            (
                "elems",
                Json::Array(a.elems.iter().map(value_to_json).collect()),
            ),
        ]),
    }
}

/// Decodes a [`Value`] from its JSON encoding.
pub fn value_from_json(j: &Json) -> Option<Value> {
    match j {
        Json::Int(n) => Some(Value::Int(*n)),
        Json::Real(x) => Some(Value::Real(*x)),
        Json::Bool(b) => Some(Value::Bool(*b)),
        Json::Str(s) => Some(Value::Str(s.clone())),
        Json::Object(_) => {
            if let Some(c) = j.get("char") {
                let s = c.as_str()?;
                let mut chars = s.chars();
                let ch = chars.next()?;
                if chars.next().is_some() {
                    return None;
                }
                return Some(Value::Char(ch));
            }
            let lo = j.get("lo")?.as_int()?;
            let elems = j
                .get("elems")?
                .as_array()?
                .iter()
                .map(value_from_json)
                .collect::<Option<Vec<_>>>()?;
            Some(Value::Array(ArrayValue { lo, elems }))
        }
        _ => None,
    }
}

fn answer_to_json(a: &StoredAnswer) -> Json {
    match a {
        StoredAnswer::Correct => Json::Str("correct".into()),
        StoredAnswer::Incorrect { wrong_output } => obj(vec![(
            "incorrect",
            match wrong_output {
                Some(k) => Json::Int(*k as i64),
                None => Json::Null,
            },
        )]),
    }
}

fn answer_from_json(j: &Json) -> Option<StoredAnswer> {
    match j {
        Json::Str(s) if s == "correct" => Some(StoredAnswer::Correct),
        Json::Object(_) => match j.get("incorrect")? {
            Json::Null => Some(StoredAnswer::Incorrect { wrong_output: None }),
            Json::Int(k) => Some(StoredAnswer::Incorrect {
                wrong_output: Some(usize::try_from(*k).ok()?),
            }),
            _ => None,
        },
        _ => None,
    }
}

impl Record {
    /// Encodes the record as one JSON line (no trailing newline).
    pub fn encode(&self) -> String {
        match self {
            Record::Header { version } => obj(vec![
                ("k", Json::Str("header".into())),
                ("format", Json::Str(FORMAT.into())),
                ("version", Json::Int(*version as i64)),
            ]),
            Record::Report(r) => obj(vec![
                ("k", Json::Str("report".into())),
                ("unit", Json::Str(r.unit.clone())),
                ("code", Json::Str(r.code.clone())),
                (
                    "inputs",
                    Json::Array(r.inputs.iter().map(value_to_json).collect()),
                ),
                (
                    "outputs",
                    Json::Array(r.outputs.iter().map(value_to_json).collect()),
                ),
                ("passed", Json::Bool(r.passed)),
            ]),
            Record::Answer {
                key,
                answer,
                source,
            } => obj(vec![
                ("k", Json::Str("answer".into())),
                ("key", Json::Str(key.clone())),
                ("answer", answer_to_json(answer)),
                ("source", Json::Str(source.clone())),
            ]),
            Record::Verdict { key, payload } => obj(vec![
                ("k", Json::Str("verdict".into())),
                ("key", Json::Str(key.clone())),
                ("payload", payload.clone()),
            ]),
        }
        .to_string()
    }

    /// Decodes one line. `None` means the line is not a well-formed
    /// record of a known kind — the store's recovery treats that exactly
    /// like corruption.
    pub fn decode(line: &str) -> Option<Record> {
        let j = crate::parse(line)?;
        match j.get("k")?.as_str()? {
            "header" => {
                if j.get("format")?.as_str()? != FORMAT {
                    return None;
                }
                let version = u32::try_from(j.get("version")?.as_int()?).ok()?;
                Some(Record::Header { version })
            }
            "report" => {
                let values = |field: &str| -> Option<Vec<Value>> {
                    j.get(field)?
                        .as_array()?
                        .iter()
                        .map(value_from_json)
                        .collect()
                };
                Some(Record::Report(StoredReport {
                    unit: j.get("unit")?.as_str()?.to_string(),
                    code: j.get("code")?.as_str()?.to_string(),
                    inputs: values("inputs")?,
                    outputs: values("outputs")?,
                    passed: j.get("passed")?.as_bool()?,
                }))
            }
            "answer" => Some(Record::Answer {
                key: j.get("key")?.as_str()?.to_string(),
                answer: answer_from_json(j.get("answer")?)?,
                source: j.get("source")?.as_str()?.to_string(),
            }),
            "verdict" => Some(Record::Verdict {
                key: j.get("key")?.as_str()?.to_string(),
                payload: j.get("payload")?.clone(),
            }),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_values() -> Vec<Value> {
        vec![
            Value::Int(-7),
            Value::Real(2.5),
            Value::Real(3.0),
            Value::Bool(true),
            Value::Char('x'),
            Value::Str("a \"b\"\n".into()),
            Value::Array(ArrayValue {
                lo: 1,
                elems: vec![Value::Int(1), Value::Int(2)],
            }),
        ]
    }

    #[test]
    fn values_round_trip() {
        for v in sample_values() {
            let j = value_to_json(&v);
            assert_eq!(value_from_json(&j).as_ref(), Some(&v), "{j}");
            // And through actual bytes.
            let reparsed = crate::parse(&j.to_string()).unwrap();
            assert_eq!(value_from_json(&reparsed), Some(v));
        }
    }

    #[test]
    fn records_round_trip_and_validate() {
        let records = vec![
            Record::Header { version: VERSION },
            Record::Report(StoredReport {
                unit: "arrsum".into(),
                code: "two.positive.small".into(),
                inputs: sample_values(),
                outputs: vec![Value::Int(3)],
                passed: true,
            }),
            Record::Answer {
                key: answer_key("ArrSum", &[Value::Int(2)]),
                answer: StoredAnswer::Incorrect {
                    wrong_output: Some(1),
                },
                source: "test database".into(),
            },
            Record::Answer {
                key: "q()".into(),
                answer: StoredAnswer::Correct,
                source: "assertions".into(),
            },
            Record::Verdict {
                key: "pqr/mutant:3".into(),
                payload: obj(vec![("status", Json::Str("equivalent".into()))]),
            },
        ];
        for r in records {
            let line = r.encode();
            assert!(gadt_obs::json::validate(&line).is_ok(), "{line}");
            assert!(!line.contains('\n'), "one line: {line}");
            assert_eq!(Record::decode(&line).as_ref(), Some(&r), "{line}");
            // Deterministic: encoding twice is byte-identical.
            assert_eq!(r.encode(), line);
        }
    }

    #[test]
    fn answer_keys_are_case_insensitive_and_value_sensitive() {
        let a = answer_key("ArrSum", &[Value::Int(2), Value::Real(2.0)]);
        let b = answer_key("arrsum", &[Value::Int(2), Value::Real(2.0)]);
        assert_eq!(a, b);
        // A real 2.0 and an int 2 are different knowledge.
        let c = answer_key("arrsum", &[Value::Int(2), Value::Int(2)]);
        assert_ne!(a, c);
        assert_eq!(a, "arrsum(2,2.0)");
    }

    #[test]
    fn decode_rejects_foreign_and_malformed_lines() {
        for bad in [
            "{}",
            r#"{"k":"mystery"}"#,
            r#"{"k":"header","format":"other","version":1}"#,
            r#"{"k":"report","unit":"u"}"#,
            r#"{"k":"answer","key":"x","answer":"maybe","source":"s"}"#,
            "not json at all",
        ] {
            assert_eq!(Record::decode(bad), None, "{bad}");
        }
    }
}
