//! Conformance monitors: cheap, stable renderings of an event stream for
//! cross-engine comparison.
//!
//! [`EventLog`] records every event *structurally* (an owned mirror of
//! [`Event`]) — the strongest equality, used by the conformance test
//! suites, with `Debug` rendering deferred to divergence reporting.
//! [`EventHasher`] folds every event's fields directly into a single
//! FNV-1a fingerprint — constant memory, no per-event formatting, used
//! by the corpus fuzzer's three-way differential leg and the benchmark
//! harness.

use gadt_pascal::ast::StmtId;
use gadt_pascal::cfg::{BlockId, LoopId};
use gadt_pascal::interp::{Event, MemLoc, Monitor};
use gadt_pascal::sema::{Module, ProcId, VarId};
use gadt_pascal::value::Value;

/// An owned copy of one [`Event`]. Variant and field names mirror the
/// borrowed enum exactly so the derived `Debug` rendering stays as
/// readable as the original event's (owned `Vec`s print like slices).
#[derive(Debug, Clone, PartialEq)]
pub enum OwnedEvent {
    /// See [`Event::CallEnter`].
    CallEnter {
        call: u64,
        frame: u64,
        proc: ProcId,
        site_stmt: Option<StmtId>,
        args: Vec<(VarId, Value)>,
        bindings: Vec<(VarId, MemLoc)>,
        depth: usize,
    },
    /// See [`Event::CallExit`].
    CallExit {
        call: u64,
        frame: u64,
        proc: ProcId,
        outs: Vec<(VarId, Value)>,
        nonlocal_reads: Vec<(VarId, Value)>,
        nonlocal_writes: Vec<(VarId, Value)>,
        param_reads: Vec<VarId>,
        via_goto: bool,
    },
    /// See [`Event::LoopEnter`].
    LoopEnter {
        loop_id: LoopId,
        frame: u64,
        instance: u64,
    },
    /// See [`Event::LoopIter`].
    LoopIter {
        loop_id: LoopId,
        frame: u64,
        instance: u64,
        iteration: u64,
        vars: Vec<(VarId, Value)>,
    },
    /// See [`Event::LoopExit`].
    LoopExit {
        loop_id: LoopId,
        frame: u64,
        instance: u64,
        iterations: u64,
        vars: Vec<(VarId, Value)>,
    },
    /// See [`Event::Step`].
    Step {
        idx: u64,
        frame: u64,
        proc: ProcId,
        block: BlockId,
        instr: Option<usize>,
        stmt: StmtId,
        defs: Vec<MemLoc>,
        uses: Vec<MemLoc>,
        branch_taken: Option<bool>,
    },
}

impl OwnedEvent {
    /// Deep-copies a borrowed event.
    pub fn from_event(event: &Event<'_>) -> Self {
        match *event {
            Event::CallEnter {
                call,
                frame,
                proc,
                site_stmt,
                args,
                bindings,
                depth,
            } => OwnedEvent::CallEnter {
                call,
                frame,
                proc,
                site_stmt,
                args: args.to_vec(),
                bindings: bindings.to_vec(),
                depth,
            },
            Event::CallExit {
                call,
                frame,
                proc,
                outs,
                nonlocal_reads,
                nonlocal_writes,
                param_reads,
                via_goto,
            } => OwnedEvent::CallExit {
                call,
                frame,
                proc,
                outs: outs.to_vec(),
                nonlocal_reads: nonlocal_reads.to_vec(),
                nonlocal_writes: nonlocal_writes.to_vec(),
                param_reads: param_reads.to_vec(),
                via_goto,
            },
            Event::LoopEnter {
                loop_id,
                frame,
                instance,
            } => OwnedEvent::LoopEnter {
                loop_id,
                frame,
                instance,
            },
            Event::LoopIter {
                loop_id,
                frame,
                instance,
                iteration,
                vars,
            } => OwnedEvent::LoopIter {
                loop_id,
                frame,
                instance,
                iteration,
                vars: vars.to_vec(),
            },
            Event::LoopExit {
                loop_id,
                frame,
                instance,
                iterations,
                vars,
            } => OwnedEvent::LoopExit {
                loop_id,
                frame,
                instance,
                iterations,
                vars: vars.to_vec(),
            },
            Event::Step {
                idx,
                frame,
                proc,
                block,
                instr,
                stmt,
                defs,
                uses,
                branch_taken,
            } => OwnedEvent::Step {
                idx,
                frame,
                proc,
                block,
                instr,
                stmt,
                defs: defs.to_vec(),
                uses: uses.to_vec(),
                branch_taken,
            },
        }
    }
}

/// Records every event structurally, in firing order.
#[derive(Debug, Default, Clone)]
pub struct EventLog {
    /// One entry per event, in firing order.
    pub events: Vec<OwnedEvent>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Monitor for EventLog {
    fn on_event(&mut self, _module: &Module, event: &Event<'_>) {
        self.events.push(OwnedEvent::from_event(event));
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds every event's fields directly into one 64-bit FNV-1a hash —
/// no intermediate `Debug` rendering. Both engines feed the hasher the
/// same field values in the same order, so equal event streams produce
/// equal digests (and the digest changed, deliberately, relative to the
/// old `Debug`-string scheme; see `structural_digest_is_pinned`).
#[derive(Debug, Clone)]
pub struct EventHasher {
    hash: u64,
    count: u64,
}

impl Default for EventHasher {
    fn default() -> Self {
        EventHasher {
            hash: FNV_OFFSET,
            count: 0,
        }
    }
}

impl EventHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        Self::default()
    }

    /// The fingerprint over all events seen so far.
    pub fn digest(&self) -> u64 {
        // Mix in the count so a truncated stream can't collide with its
        // own prefix.
        let mut h = self.hash;
        for b in self.count.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        h
    }

    /// Number of events hashed.
    pub fn count(&self) -> u64 {
        self.count
    }

    fn absorb(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }

    #[inline]
    fn u64(&mut self, v: u64) {
        self.absorb(&v.to_le_bytes());
    }

    #[inline]
    fn byte(&mut self, b: u8) {
        self.hash = (self.hash ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }

    fn value(&mut self, v: &Value) {
        match v {
            Value::Int(n) => {
                self.byte(0);
                self.u64(*n as u64);
            }
            Value::Real(x) => {
                self.byte(1);
                self.u64(x.to_bits());
            }
            Value::Bool(b) => {
                self.byte(2);
                self.byte(u8::from(*b));
            }
            Value::Char(c) => {
                self.byte(3);
                self.u64(u64::from(u32::from(*c)));
            }
            Value::Str(s) => {
                self.byte(4);
                self.u64(s.len() as u64);
                self.absorb(s.as_bytes());
            }
            Value::Array(a) => {
                self.byte(5);
                self.u64(a.lo as u64);
                self.u64(a.elems.len() as u64);
                for e in &a.elems {
                    self.value(e);
                }
            }
        }
    }

    fn memloc(&mut self, m: &MemLoc) {
        self.u64(m.frame);
        self.u64(u64::from(m.var.0));
        match m.elem {
            None => self.byte(0),
            Some(i) => {
                self.byte(1);
                self.u64(i as u64);
            }
        }
    }

    fn var_values(&mut self, vs: &[(VarId, Value)]) {
        self.u64(vs.len() as u64);
        for (v, val) in vs {
            self.u64(u64::from(v.0));
            self.value(val);
        }
    }

    fn memlocs(&mut self, ms: &[MemLoc]) {
        self.u64(ms.len() as u64);
        for m in ms {
            self.memloc(m);
        }
    }
}

impl Monitor for EventHasher {
    fn on_event(&mut self, _module: &Module, event: &Event<'_>) {
        match *event {
            Event::CallEnter {
                call,
                frame,
                proc,
                site_stmt,
                args,
                bindings,
                depth,
            } => {
                self.byte(0);
                self.u64(call);
                self.u64(frame);
                self.u64(u64::from(proc.0));
                match site_stmt {
                    None => self.byte(0),
                    Some(s) => {
                        self.byte(1);
                        self.u64(u64::from(s.0));
                    }
                }
                self.var_values(args);
                self.u64(bindings.len() as u64);
                for (p, m) in bindings {
                    self.u64(u64::from(p.0));
                    self.memloc(m);
                }
                self.u64(depth as u64);
            }
            Event::CallExit {
                call,
                frame,
                proc,
                outs,
                nonlocal_reads,
                nonlocal_writes,
                param_reads,
                via_goto,
            } => {
                self.byte(1);
                self.u64(call);
                self.u64(frame);
                self.u64(u64::from(proc.0));
                self.var_values(outs);
                self.var_values(nonlocal_reads);
                self.var_values(nonlocal_writes);
                self.u64(param_reads.len() as u64);
                for p in param_reads {
                    self.u64(u64::from(p.0));
                }
                self.byte(u8::from(via_goto));
            }
            Event::LoopEnter {
                loop_id,
                frame,
                instance,
            } => {
                self.byte(2);
                self.u64(u64::from(loop_id.0));
                self.u64(frame);
                self.u64(instance);
            }
            Event::LoopIter {
                loop_id,
                frame,
                instance,
                iteration,
                vars,
            } => {
                self.byte(3);
                self.u64(u64::from(loop_id.0));
                self.u64(frame);
                self.u64(instance);
                self.u64(iteration);
                self.var_values(vars);
            }
            Event::LoopExit {
                loop_id,
                frame,
                instance,
                iterations,
                vars,
            } => {
                self.byte(4);
                self.u64(u64::from(loop_id.0));
                self.u64(frame);
                self.u64(instance);
                self.u64(iterations);
                self.var_values(vars);
            }
            Event::Step {
                idx,
                frame,
                proc,
                block,
                instr,
                stmt,
                defs,
                uses,
                branch_taken,
            } => {
                self.byte(5);
                self.u64(idx);
                self.u64(frame);
                self.u64(u64::from(proc.0));
                self.u64(u64::from(block.0));
                match instr {
                    None => self.byte(0),
                    Some(i) => {
                        self.byte(1);
                        self.u64(i as u64);
                    }
                }
                self.u64(u64::from(stmt.0));
                self.memlocs(defs);
                self.memlocs(uses);
                match branch_taken {
                    None => self.byte(0),
                    Some(t) => {
                        self.byte(1);
                        self.byte(u8::from(t));
                    }
                }
            }
        }
        self.count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hasher_distinguishes_order_and_count() {
        let mut a = EventHasher::new();
        let mut b = EventHasher::new();
        a.absorb(b"xy");
        b.absorb(b"x");
        assert_ne!(a.digest(), b.digest());
        let empty = EventHasher::new();
        assert_ne!(empty.digest(), 0);
    }

    /// The structural digest is part of the persisted-fingerprint
    /// surface (corpus findings and benchmark records carry digests), so
    /// pin it: this value changed *deliberately* when hashing moved from
    /// `Debug`-string rendering to direct field folds, and must not
    /// change again by accident. Both engines must produce it.
    #[test]
    fn structural_digest_is_pinned() {
        use crate::{Engine, PreparedEngine};
        use gadt_pascal::interp::Limits;

        let module = gadt_pascal::sema::compile(
            "program p; var i, s: integer; \
             begin s := 0; i := 0; \
             while i < 3 do begin i := i + 1; s := s + i end; \
             writeln(s) end.",
        )
        .unwrap();
        let cfg = gadt_pascal::cfg::lower(&module);
        let mut digests = Vec::new();
        for engine in [Engine::TreeWalker, Engine::Vm] {
            let prepared = PreparedEngine::new(&module, &cfg, engine);
            let mut h = EventHasher::new();
            prepared
                .run_with(Vec::new(), Limits::default(), &mut h)
                .unwrap();
            digests.push(h.digest());
        }
        assert_eq!(digests[0], digests[1], "engines disagree");
        assert_eq!(
            digests[0], 0xaef8_ba37_ef78_ba36,
            "structural digest drifted"
        );
    }

    #[test]
    fn value_hash_separates_shapes() {
        let mut int = EventHasher::new();
        int.value(&Value::Int(1));
        let mut real = EventHasher::new();
        real.value(&Value::Real(f64::from_bits(1)));
        assert_ne!(int.digest(), real.digest());

        let mut s = EventHasher::new();
        s.value(&Value::Str("ab".into()));
        let mut s2 = EventHasher::new();
        s2.value(&Value::Str("a".into()));
        s2.value(&Value::Str("b".into()));
        assert_ne!(s.digest(), s2.digest());
    }
}
