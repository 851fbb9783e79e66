//! In-memory spans recorded by the benchmark around its own calls into
//! each layer's public functions.
//!
//! Every thread keeps its own span list; [`span`] costs one branch when
//! tracing is off on that thread. A span's self time is its duration
//! minus the durations of its direct children, so self times of nested
//! spans never count the same nanosecond twice.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name, e.g. `pascal.parse`.
    pub name: &'static str,
    /// Index of the enclosing span in the same thread's list.
    pub parent: Option<usize>,
    /// Start, in ns since the thread enabled tracing.
    pub start_ns: u64,
    /// Wall-clock duration.
    pub dur_ns: u64,
    /// Duration minus the time direct children cover.
    pub self_ns: u64,
}

/// What one thread recorded: its spans and its counters.
#[derive(Debug, Default)]
pub struct Trace {
    /// Spans in the order they were entered.
    pub spans: Vec<Span>,
    /// Named work counts (events, nodes, questions, …).
    pub counts: BTreeMap<&'static str, u64>,
}

struct Tracer {
    origin: Instant,
    trace: Trace,
    open: Vec<(usize, u64)>,
}

thread_local! {
    static TRACER: RefCell<Option<Tracer>> = const { RefCell::new(None) };
}

/// Starts recording on the calling thread.
pub fn enable() {
    TRACER.with(|t| {
        *t.borrow_mut() = Some(Tracer {
            origin: Instant::now(),
            trace: Trace::default(),
            open: Vec::new(),
        });
    });
}

/// Stops recording on the calling thread and returns what it recorded.
pub fn take() -> Trace {
    TRACER.with(|t| t.borrow_mut().take().map(|t| t.trace).unwrap_or_default())
}

fn now_ns(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Whether the calling thread is recording.
pub fn recording() -> bool {
    TRACER.with(|t| t.borrow().is_some())
}

/// Runs `f` inside a span named `name` when the thread is recording.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let entered = TRACER.with(|t| {
        let mut guard = t.borrow_mut();
        let tr = guard.as_mut()?;
        let idx = tr.trace.spans.len();
        let start_ns = now_ns(tr.origin);
        tr.trace.spans.push(Span {
            name,
            parent: tr.open.last().map(|&(i, _)| i),
            start_ns,
            dur_ns: 0,
            self_ns: 0,
        });
        tr.open.push((idx, 0));
        Some(())
    });
    let out = f();
    if entered.is_some() {
        TRACER.with(|t| {
            let mut guard = t.borrow_mut();
            let tr = guard.as_mut().expect("tracer disabled inside an open span");
            let end = now_ns(tr.origin);
            let (idx, child_ns) = tr.open.pop().expect("span stack underflow");
            let s = &mut tr.trace.spans[idx];
            s.dur_ns = end - s.start_ns;
            s.self_ns = s.dur_ns.saturating_sub(child_ns);
            let dur = s.dur_ns;
            if let Some((_, parent_child_ns)) = tr.open.last_mut() {
                *parent_child_ns += dur;
            }
        });
    }
    out
}

/// Adds `n` to counter `name` when the thread is recording.
pub fn count(name: &'static str, n: u64) {
    TRACER.with(|t| {
        if let Some(tr) = t.borrow_mut().as_mut() {
            *tr.trace.counts.entry(name).or_insert(0) += n;
        }
    });
}

/// Per-layer totals over any number of thread traces.
#[derive(Debug, Default)]
pub struct Ledger {
    /// Σ self time per span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Span count per name.
    pub calls: BTreeMap<&'static str, u64>,
    /// Σ counters.
    pub counts: BTreeMap<&'static str, u64>,
}

impl Ledger {
    /// Folds one thread's trace in.
    pub fn add(&mut self, trace: &Trace) {
        for s in &trace.spans {
            *self.self_ns.entry(s.name).or_insert(0) += s.self_ns;
            *self.calls.entry(s.name).or_insert(0) += 1;
        }
        for (k, v) in &trace.counts {
            *self.counts.entry(k).or_insert(0) += v;
        }
    }

    /// Σ self time of `name`.
    pub fn self_of(&self, name: &str) -> u64 {
        self.self_ns.get(name).copied().unwrap_or(0)
    }

    /// Mean duration of one `name` span that has no children.
    pub fn mean_leaf_ns(&self, name: &str) -> f64 {
        let calls = self.calls.get(name).copied().unwrap_or(0);
        self.self_of(name) as f64 / calls.max(1) as f64
    }

    /// Counter value.
    pub fn count(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Σ self time over every span name in `layers`.
    pub fn layer_sum(&self, layers: &[&str]) -> u64 {
        layers.iter().map(|l| self.self_of(l)).sum()
    }

    /// Renders the ledger as text lines (self time per name).
    pub fn render(&self, per: u64) -> String {
        let per = per.max(1) as f64;
        let mut out = String::new();
        for (name, ns) in &self.self_ns {
            out.push_str(&format!(
                "  {name:<24} {:>12.0} ns/op self\n",
                *ns as f64 / per
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        enable();
        span("outer", || {
            span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            count("things", 2);
        });
        let trace = take();
        assert_eq!(trace.spans.len(), 2);
        let outer = &trace.spans[0];
        let inner = &trace.spans[1];
        assert_eq!(inner.parent, Some(0));
        assert_eq!(outer.self_ns, outer.dur_ns - inner.dur_ns);
        assert!(inner.dur_ns >= 5_000_000);
        let mut ledger = Ledger::default();
        ledger.add(&trace);
        assert_eq!(ledger.calls.get("outer"), Some(&1));
        assert_eq!(ledger.self_of("inner"), inner.dur_ns);
        assert_eq!(ledger.count("things"), 2);
    }

    #[test]
    fn spans_are_free_when_disabled() {
        assert_eq!(span("x", || 7), 7);
        assert!(take().spans.is_empty());
    }
}
