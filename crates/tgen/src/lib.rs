//! # gadt-tgen
//!
//! T-GEN: the extended category-partition test generator of the GADT
//! reproduction (*Generalized Algorithmic Debugging and Testing*, PLDI
//! 1991, §2).
//!
//! T-GEN extends Ostrand & Balcer's category-partition method with test
//! scripts, result categories, executable test cases, and a test-report
//! database — the features that let the debugger answer queries from
//! recorded test results instead of asking the user (§5.3.2):
//!
//! * [`spec`] — the test-specification language (categories, choices,
//!   properties, selector expressions, scripts, result categories), with
//!   the paper's Figure 1 `arrsum` specification as a fixture;
//! * [`frames`] — test-frame generation, including the `SINGLE` property
//!   and the selector semantics that reproduce the paper's
//!   "`script_1` contains two frames" example;
//! * [`cases`] — executable test cases, the unit-test runner (isolated
//!   procedure execution), the test-report database keyed by coded
//!   frames, and the `arrsum` instantiator/classifier/oracle trio.
//!
//! ## Quickstart
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use gadt_tgen::{spec, frames, cases};
//! let s = spec::parse_spec(spec::ARRSUM_SPEC)?;
//! let g = frames::generate_frames(&s, Default::default());
//! assert_eq!(g.frames.len(), 6);
//! // Frames become executable test cases via an instantiator:
//! let tc = cases::instantiate_cases(&g, |f| cases::arrsum_instantiator(f, 10));
//! assert_eq!(tc.len(), 6);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cases;
pub mod frames;
pub mod menu;
pub mod spec;

pub use cases::{instantiate_cases, run_cases, run_cases_batch, TestCase, TestDb, TestReport};
pub use frames::{generate_frames, Frame, FrameGenOptions, GeneratedFrames};
pub use menu::select_frame;
pub use spec::{parse_spec, SelExpr, TestSpec};
