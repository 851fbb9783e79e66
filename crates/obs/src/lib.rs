//! # gadt-obs
//!
//! A lightweight, std-only structured-observability layer for the GADT
//! pipeline. The paper's value proposition is measured in *questions
//! asked* and *statements pruned* (Fritzson et al., §5–§6); this crate
//! makes those numbers first-class:
//!
//! * **hierarchical spans** — `span!(rec, "slice", criterion = 3)`
//!   opens a named, field-tagged span; closing it records the duration;
//! * **monotonic counters** — dotted-path keys like `debug.questions`
//!   or `slice.cache.requests`, summed across merged workers;
//! * **an event journal** — every span boundary and point event in
//!   order, with pluggable sinks ([`MemorySink`], [`JsonLinesSink`],
//!   and the human-readable [`Journal::render_summary`]).
//!
//! ## Determinism rules
//!
//! The journal must be byte-identical however many worker threads the
//! batch engine uses. Three rules make that hold:
//!
//! 1. workers never share a recorder: a batch records its results after
//!    the pool returns, or every parallel work item records into its
//!    **own** [`Recorder`] (constructed via [`Recorder::child`]);
//! 2. results are recorded, and finished child journals
//!    [`Recorder::adopt`]ed, in **submission order**, never completion
//!    order;
//! 3. wall-clock readings live only in the `time`/`dur` fields, which
//!    [`Journal::fingerprint`] excludes.
//!
//! ```
//! use gadt_obs::{span, Recorder};
//! let mut rec = Recorder::new();
//! let s = span!(rec, "slice", criterion = 3u64, out = 0u64);
//! rec.incr("slice.computed");
//! rec.exit(s);
//! let journal = rec.finish();
//! assert_eq!(journal.counter("slice.computed"), 1);
//! assert!(journal.fingerprint().contains("\"criterion\":3"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod event;
pub mod journal;
pub mod json;
pub mod recorder;
pub mod sink;

pub use event::{Event, EventKind, FieldValue};
pub use journal::{Journal, PhaseTimings};
pub use recorder::{Recorder, SpanToken};
pub use sink::{JsonLinesSink, MemorySink, Sink};

/// Opens a span on a [`Recorder`] with named fields:
/// `span!(rec, "slice", criterion = call_id, out = k)`. Returns the
/// [`SpanToken`] to pass to [`Recorder::exit`].
#[macro_export]
macro_rules! span {
    ($rec:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $rec.enter_with(
            $name,
            &[$((stringify!($key), $crate::FieldValue::from($value))),*],
        )
    };
}

/// Emits a point event with named fields:
/// `event!(rec, "question", unit = name, answer = rendered)`.
#[macro_export]
macro_rules! event {
    ($rec:expr, $name:expr $(, $key:ident = $value:expr)* $(,)?) => {
        $rec.event(
            $name,
            &[$((stringify!($key), $crate::FieldValue::from($value))),*],
        )
    };
}

/// Slugifies a free-form label into a counter-key segment: lowercase
/// ASCII alphanumerics preserved, every other run collapsed to one `_`,
/// leading/trailing `_` trimmed.
///
/// ```
/// assert_eq!(gadt_obs::slug("simulated user (reference implementation)"),
///            "simulated_user_reference_implementation");
/// assert_eq!(gadt_obs::slug("test database"), "test_database");
/// ```
pub fn slug(label: &str) -> String {
    let mut out = String::with_capacity(label.len());
    let mut pending_sep = false;
    for c in label.chars() {
        if c.is_ascii_alphanumeric() {
            if pending_sep && !out.is_empty() {
                out.push('_');
            }
            pending_sep = false;
            out.push(c.to_ascii_lowercase());
        } else {
            pending_sep = true;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_and_event_macros_record_fields() {
        let mut rec = Recorder::untimed();
        let s = span!(rec, "debug", slicing = true);
        event!(rec, "question", unit = "add", n = 2u64);
        rec.exit(s);
        let j = rec.finish();
        let q = j.events_named("question").next().unwrap();
        assert_eq!(q.field_str("unit"), Some("add"));
        assert_eq!(q.field("n"), Some(&FieldValue::UInt(2)));
        let d = j.events_named("debug").next().unwrap();
        assert_eq!(d.field("slicing"), Some(&FieldValue::Bool(true)));
    }

    #[test]
    fn slugs() {
        assert_eq!(
            slug("golden reference (un-mutated program)"),
            "golden_reference_un_mutated_program"
        );
        assert_eq!(slug("assertions"), "assertions");
        assert_eq!(slug("  weird -- label  "), "weird_label");
        assert_eq!(slug(""), "");
    }
}
