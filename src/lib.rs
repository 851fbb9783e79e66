//! # gadt-repro
//!
//! Umbrella crate for the reproduction of *Generalized Algorithmic
//! Debugging and Testing* (Fritzson, Gyimóthy, Kamkar, Shahmehri; PLDI
//! 1991). Re-exports every subsystem:
//!
//! * [`pascal`] — Pascal-subset front end and interpreter;
//! * [`analysis`] — flow analysis, static and dynamic slicing;
//! * [`transform`] — the §6 side-effect-removing transformations;
//! * [`trace`] — execution trees;
//! * [`tgen`] — the T-GEN category-partition test generator;
//! * [`debugging`] — oracles and the GADT debugger itself;
//! * [`mutate`] — mutation-based localization conformance campaigns;
//! * [`exec`] — the deterministic parallel batch executor;
//! * [`obs`] — the structured observability layer (spans, counters,
//!   journals);
//! * [`store`] — the persistent crash-safe knowledge store (WAL +
//!   snapshot) that carries test reports, oracle answers and campaign
//!   verdicts across sessions (attach with [`Compiled::with_store`]).
//!
//! The [`Gadt`] facade chains the whole pipeline in one expression:
//!
//! ```no_run
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use gadt_repro::{Gadt, testprogs};
//! use gadt_repro::debugging::oracle::ChainOracle;
//!
//! let mut oracle = ChainOracle::new();
//! let session = Gadt::compile(testprogs::SQRTEST)?
//!     .transform()?
//!     .trace(vec![vec![]])?
//!     .debug(&mut oracle)?;
//! println!("{}", session.outcome.render_transcript());
//! println!("{}", session.journal.render_summary());
//! # Ok(())
//! # }
//! ```
//!
//! See the crate-level docs of [`debugging`] (the `gadt` crate) for a
//! quickstart, and the repository's `examples/` directory for runnable
//! walkthroughs of the paper's figures.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod facade;

pub use gadt as debugging;
pub use gadt_analysis as analysis;
pub use gadt_corpus as corpus;
pub use gadt_exec as exec;
pub use gadt_mutate as mutate;
pub use gadt_obs as obs;
pub use gadt_pascal as pascal;
pub use gadt_store as store;
pub use gadt_tgen as tgen;
pub use gadt_trace as trace;
pub use gadt_transform as transform;
pub use gadt_vm as vm;

pub use facade::{Compiled, Gadt, Prepared, Session, Traced};

pub use gadt::debugger::{DebugConfig, DebugOutcome, DebugResult, Strategy};
pub use gadt::error::{Error, Phase, Result};
pub use gadt::handle::{DebugHandle, Question, Step, Verdict};
pub use gadt::session::Engine;
pub use gadt_pascal::testprogs;

/// Everything most callers need, in one import:
/// `use gadt_repro::prelude::*;`.
pub mod prelude {
    pub use crate::facade::{Compiled, Gadt, Prepared, Session, Traced};
    pub use gadt::debugger::{DebugConfig, DebugOutcome, DebugResult, Strategy};
    pub use gadt::error::{Error, Phase, Result};
    pub use gadt::handle::{DebugHandle, Question, Step, Verdict};
    pub use gadt::oracle::{Answer, AssertionOracle, ChainOracle, GoldenOracle, ReferenceOracle};
    pub use gadt::session::{Engine, PhaseTimings, PreparedProgram, TracedRun};
    pub use gadt_corpus::{DiffConfig, GenConfig, GeneratedProgram};
    pub use gadt_obs::{Journal, Recorder};
    pub use gadt_pascal::value::Value;
    pub use gadt_store::{KnowledgeStore, SharedStore, StoredAnswer};
}
