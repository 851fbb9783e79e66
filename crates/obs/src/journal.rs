//! The finished journal: an ordered event list plus aggregated counters,
//! with deterministic serialization and the `PhaseTimings` shim.

use crate::event::{Event, EventKind, FieldValue};
use crate::json;
use std::collections::BTreeMap;
use std::fmt;
use std::time::Duration;

/// The output of one [`crate::Recorder`]: every event in emission order
/// plus the final counter values.
///
/// The journal has two serializations:
/// * [`Journal::fingerprint`] — timestamp-free, byte-identical for the
///   same logical work at any thread count;
/// * [`Journal::to_json_lines`] — the same lines with `t_us`/`dur_us`
///   wall-clock fields included.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    /// Events in emission (and, across merged workers, submission) order.
    pub events: Vec<Event>,
    /// Final counter values, keyed by dotted-path counter name.
    pub counters: BTreeMap<String, u64>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Journal::default()
    }

    /// The value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Iterates over events with the given name.
    pub fn events_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Event> + 'a {
        self.events.iter().filter(move |e| e.name == name)
    }

    /// Number of journal events (counters excluded).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the journal holds no events and no counters.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.counters.is_empty()
    }

    fn event_line(e: &Event, with_time: bool) -> String {
        let mut line = format!(
            r#"{{"k":"{}","name":"{}","depth":{}"#,
            e.kind.wire_name(),
            json::escape(&e.name),
            e.depth
        );
        if !e.fields.is_empty() {
            line.push_str(",\"fields\":{");
            for (i, (k, v)) in e.fields.iter().enumerate() {
                if i > 0 {
                    line.push(',');
                }
                match v {
                    FieldValue::Int(n) => line.push_str(&format!(r#""{}":{n}"#, json::escape(k))),
                    FieldValue::UInt(n) => line.push_str(&format!(r#""{}":{n}"#, json::escape(k))),
                    FieldValue::Bool(b) => line.push_str(&format!(r#""{}":{b}"#, json::escape(k))),
                    FieldValue::Str(s) => {
                        line.push_str(&format!(r#""{}":"{}""#, json::escape(k), json::escape(s)))
                    }
                }
            }
            line.push('}');
        }
        if with_time {
            if let Some(t) = e.time {
                line.push_str(&format!(",\"t_us\":{}", t.as_micros()));
            }
            if let Some(d) = e.dur {
                line.push_str(&format!(",\"dur_us\":{}", d.as_micros()));
            }
        }
        line.push('}');
        line
    }

    fn render_lines(&self, with_time: bool) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&Self::event_line(e, with_time));
            out.push('\n');
        }
        for (k, v) in &self.counters {
            out.push_str(&format!(
                r#"{{"k":"counter","name":"{}","value":{v}}}"#,
                json::escape(k)
            ));
            out.push('\n');
        }
        out
    }

    /// The deterministic serialization: JSON lines with every wall-clock
    /// field omitted. Two runs of the same logical work produce
    /// byte-identical fingerprints regardless of thread count.
    pub fn fingerprint(&self) -> String {
        self.render_lines(false)
    }

    /// The timestamp-free JSON line of each event from index `from` on —
    /// the streaming serialization: a subscriber that has already seen
    /// `from` events receives exactly the new ones, and the
    /// concatenation of every increment equals the event portion of
    /// [`Journal::fingerprint`].
    pub fn event_lines_from(&self, from: usize) -> Vec<String> {
        self.events
            .iter()
            .skip(from)
            .map(|e| Self::event_line(e, false))
            .collect()
    }

    /// The full JSON-lines serialization, wall-clock fields included.
    /// One JSON object per line: events first (in order), then counters.
    pub fn to_json_lines(&self) -> String {
        self.render_lines(true)
    }

    /// A human-readable summary: the span tree (indented by depth, with
    /// durations when recorded) followed by a counter table.
    pub fn render_summary(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            let indent = "  ".repeat(e.depth);
            match e.kind {
                EventKind::Enter => {}
                EventKind::Exit => {
                    let dur = e.dur.map(|d| format!(" [{d:.2?}]")).unwrap_or_default();
                    let fields = if e.fields.is_empty() {
                        String::new()
                    } else {
                        let parts: Vec<String> =
                            e.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
                        format!(" ({})", parts.join(", "))
                    };
                    out.push_str(&format!("{indent}{}{fields}{dur}\n", e.name));
                }
                EventKind::Point => {
                    let parts: Vec<String> =
                        e.fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
                    out.push_str(&format!("{indent}* {} {}\n", e.name, parts.join(", ")));
                }
            }
        }
        if !self.counters.is_empty() {
            out.push_str("counters:\n");
            for (k, v) in &self.counters {
                out.push_str(&format!("  {k} = {v}\n"));
            }
        }
        out
    }

    /// The per-phase wall-clock roll-up: sums the durations of every
    /// closed `transform`, `trace`, and `debug` span — the compatibility
    /// shim behind the pipeline's historical `PhaseTimings` API.
    pub fn phase_timings(&self) -> PhaseTimings {
        let mut t = PhaseTimings::default();
        for e in &self.events {
            if e.kind != EventKind::Exit {
                continue;
            }
            let Some(d) = e.dur else { continue };
            match e.name.as_str() {
                "transform" => t.transform += d,
                "trace" => t.trace += d,
                "debug" => t.debug += d,
                _ => {}
            }
        }
        t
    }
}

/// Per-phase wall-clock timings of a pipeline run. Phases map to the
/// paper's Figure 3: `transform` is Phase I (transformation + CFG
/// lowering), `trace` is Phase II (all traced executions of the batch),
/// `debug` is Phase III (bug localization).
///
/// Historically this was a stopwatch struct filled by hand in
/// `gadt::session`; it is now derived from the observability journal via
/// [`Journal::phase_timings`] and kept as a thin compatibility shim.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Phase I: transformation and CFG lowering.
    pub transform: Duration,
    /// Phase II: traced execution(s), wall-clock (not summed per run —
    /// parallel tracing makes this less than the per-run sum).
    pub trace: Duration,
    /// Phase III: debugging, when measured (zero until a debug phase
    /// runs).
    pub debug: Duration,
}

impl PhaseTimings {
    /// Total wall-clock across the recorded phases.
    pub fn total(&self) -> Duration {
        self.transform + self.trace + self.debug
    }
}

impl fmt::Display for PhaseTimings {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "transform {:?}, trace {:?}, debug {:?} (total {:?})",
            self.transform,
            self.trace,
            self.debug,
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::Recorder;

    #[test]
    fn fingerprint_excludes_time_json_includes_it() {
        let mut rec = Recorder::new();
        let s = rec.enter("trace");
        rec.add("trace.events", 5);
        rec.exit(s);
        let j = rec.finish();
        let fp = j.fingerprint();
        assert!(!fp.contains("t_us"), "{fp}");
        assert!(!fp.contains("dur_us"), "{fp}");
        let full = j.to_json_lines();
        assert!(full.contains("dur_us"), "{full}");
        // Both serializations parse line by line.
        for line in full.lines().chain(fp.lines()) {
            crate::json::validate(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
        }
    }

    #[test]
    fn phase_timings_sum_span_durations() {
        let mut rec = Recorder::new();
        let t = rec.enter("transform");
        rec.exit(t);
        let a = rec.enter("trace");
        rec.exit(a);
        let b = rec.enter("trace");
        rec.exit(b);
        let j = rec.finish();
        let pt = j.phase_timings();
        assert_eq!(pt.debug, Duration::ZERO);
        assert_eq!(pt.total(), pt.transform + pt.trace);
        let rendered = pt.to_string();
        assert!(rendered.contains("transform"), "{rendered}");
    }

    #[test]
    fn untimed_recorders_produce_zero_timings() {
        let mut rec = Recorder::untimed();
        let t = rec.enter("transform");
        rec.exit(t);
        let j = rec.finish();
        assert_eq!(j.phase_timings(), PhaseTimings::default());
        assert_eq!(j.fingerprint(), j.to_json_lines());
    }

    #[test]
    fn every_emitted_line_parses() {
        let mut rec = Recorder::new();
        let s = rec.enter_with("slice", &[("criterion", "3.0".into())]);
        rec.event(
            "question",
            &[("unit", "add".into()), ("answer", "yes".into())],
        );
        rec.exit(s);
        rec.add("debug.questions", 7);
        let j = rec.finish();
        for line in j.to_json_lines().lines() {
            crate::json::validate(line).unwrap_or_else(|e| panic!("{line}: {e:?}"));
        }
    }

    #[test]
    fn summary_renders_spans_and_counters() {
        let mut rec = Recorder::new();
        let s = rec.enter_with("slice", &[("criterion", 3u64.into())]);
        rec.event("question", &[("unit", "add".into())]);
        rec.add("debug.questions", 1);
        rec.exit(s);
        let summary = rec.finish().render_summary();
        assert!(summary.contains("slice (criterion=3)"), "{summary}");
        assert!(summary.contains("* question unit=add"), "{summary}");
        assert!(summary.contains("debug.questions = 1"), "{summary}");
    }
}
