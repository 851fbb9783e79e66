//! # gadt-transform
//!
//! The transformation phase of the GADT reproduction (*Generalized
//! Algorithmic Debugging and Testing*, PLDI 1991, §5.1 and §6).
//!
//! Algorithmic debugging assumes side-effect-free procedure semantics:
//! every effect of a call must be visible in its In/Out values. The paper
//! therefore transforms the subject program into an equivalent one with
//! no *global* side effects (the transformation is restricted to
//! offending constructs rather than full functionalization — the paper's
//! "second approach"):
//!
//! * [`globals::convert_globals`] — non-local variable accesses become
//!   explicit `in`/`out`/`var` parameters;
//! * [`gotos::break_loop_gotos`] — gotos out of `while`/`repeat` loops
//!   become `leave`-flag tests, keeping loops well-structured units;
//! * [`gotos::break_global_gotos`] — non-local gotos become
//!   exit-condition `out` parameters plus local dispatch gotos at the
//!   call sites, cascading outward until every goto is local;
//! * [`pipeline::transform`] — the full pipeline, with the
//!   original↔transformed [`mapping::Mapping`] used for the paper's
//!   transparent debugging (§6.1);
//! * [`pipeline::instrumented_source`] — the trace-action listing of §6
//!   (`create_exectree_rec`, `save_incoming_values`,
//!   `save_outgoing_values`); in this implementation actual tracing is
//!   performed by interpreter monitors, so these calls are display-only.
//!
//! Each phase consumes the analyzed module and returns a [`Rewrite`]:
//! the module itself when the phase has nothing to rewrite, or the
//! module's own program, rewritten in place and re-analyzed, with what
//! the phase added to the mapping. A phase decides that from the
//! module's tables and a walk of its program, and reads what the rewrite
//! needs from those tables before it takes the program out, so no phase
//! copies the program: a program without non-locals or gotos costs the
//! pipeline one effects analysis and a few walks, and a rewriting phase
//! one re-analysis.
//!
//! Every transformation is semantics-preserving; the test suite checks
//! this differentially (original vs transformed on the same inputs).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod globals;
pub mod gotos;
pub mod mapping;
pub mod pipeline;

use gadt_pascal::sema::Module;

/// What a transformation phase hands back: the module it consumed, or
/// the module of its own program, rewritten in place and re-analyzed.
#[derive(Debug)]
pub enum Rewrite {
    /// The phase had nothing to rewrite.
    Unchanged(Module),
    /// The rewritten, re-analyzed module and what the phase added to the
    /// mapping.
    Rewritten(Module, Mapping),
}

#[cfg(test)]
impl Rewrite {
    /// The rewritten module and mapping; panics on an unchanged module.
    fn expect_rewritten(self) -> (Module, Mapping) {
        match self {
            Rewrite::Rewritten(module, mapping) => (module, mapping),
            Rewrite::Unchanged(_) => panic!("the phase left the module unchanged"),
        }
    }

    fn is_unchanged(&self) -> bool {
        matches!(self, Rewrite::Unchanged(_))
    }
}

pub use mapping::{AddedParam, ExitInfo, Mapping, ParamOrigin};
pub use pipeline::{
    growth_factor, instrumented_source, transform, transform_observed, Transformed,
};
