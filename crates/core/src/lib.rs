//! # gadt — Generalized Algorithmic Debugging and Testing
//!
//! A faithful reproduction of Fritzson, Gyimóthy, Kamkar & Shahmehri,
//! *Generalized Algorithmic Debugging and Testing* (PLDI 1991): a
//! semi-automatic bug-localization system for imperative (Pascal)
//! programs combining three techniques —
//!
//! 1. **algorithmic debugging** generalized to programs with side effects
//!    (the transformation phase rewrites globals and global gotos into
//!    explicit parameters; see `gadt-transform`);
//! 2. **category-partition testing** (T-GEN, `gadt-tgen`): recorded test
//!    results answer debugger queries so the user is asked less;
//! 3. **program slicing** (`gadt-analysis`): when the user flags one
//!    wrong output value, the execution tree is pruned to the relevant
//!    subtree.
//!
//! ## The pipeline (paper Figure 3)
//!
//! ```text
//! program ──transform──▶ side-effect-free program ──trace──▶ execution tree
//!                                                                 │
//!                assertions ─┐                                    ▼
//!                test lookup ─┼──▶ oracle chain ──▶ algorithmic debugging
//!                user        ─┘        ▲                    │
//!                                      └──── slicing ◀──────┘  (prune on
//!                                                            error indication)
//! ```
//!
//! ## Quickstart: localize the paper's planted bug
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use gadt::session::{prepare, run_traced, debug};
//! use gadt::oracle::{ChainOracle, ReferenceOracle};
//! use gadt::debugger::{DebugConfig, DebugResult};
//! use gadt_pascal::{sema::compile, testprogs};
//!
//! let buggy = compile(testprogs::SQRTEST)?;
//! let fixed = compile(testprogs::SQRTEST_FIXED)?; // simulates the user
//!
//! let prepared = prepare(&buggy)?;
//! let run = run_traced(&prepared, [])?;
//! let mut oracle = ChainOracle::new();
//! oracle.push(ReferenceOracle::new(&fixed, [])?);
//! let outcome = debug(&prepared, &run, &mut oracle, DebugConfig::default());
//!
//! assert!(matches!(
//!     outcome.result,
//!     DebugResult::BugLocalized { ref unit, .. } if unit == "decrement"
//! ));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod debugger;
pub mod error;
pub mod handle;
pub mod interactive;
pub mod oracle;
pub mod retry;
pub mod session;
pub mod stored;
pub mod strategy;
pub mod testlookup;
pub mod transparency;

pub use debugger::{DebugConfig, DebugOutcome, DebugResult, Debugger, Strategy};
pub use error::{Error, Phase};
pub use handle::{DebugHandle, DebugState, Question, Step, Verdict};
pub use oracle::{
    Answer, AssertionOracle, ChainOracle, CountingOracle, GoldenOracle, Oracle, ReferenceOracle,
};
pub use retry::{debug_with_retry, RetryOutcome};
pub use session::{
    debug, debug_observed, prepare, prepare_observed, run_traced, run_traced_batch,
    run_traced_limited, PhaseTimings, PreparedProgram, TracedRun,
};
pub use stored::{StoreProbe, StoredKnowledgeOracle, STORED_SOURCE};
pub use strategy::{AnswerProbe, Knowledge, TraversalStrategy};
pub use testlookup::TestLookup;
pub use transparency::render_query_original;

/// The observability layer, re-exported so downstream crates can
/// journal through `gadt::obs::Recorder` without a direct `gadt-obs`
/// dependency.
pub use gadt_obs as obs;
