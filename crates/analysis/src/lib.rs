//! # gadt-analysis
//!
//! Program flow analysis and slicing for the GADT reproduction
//! (*Generalized Algorithmic Debugging and Testing*, PLDI 1991).
//!
//! The paper uses program slicing — "a data flow analysis technique"
//! (§1) — to focus bug localization: when the user flags a specific wrong
//! output value, the slicer removes everything irrelevant to it, and the
//! debugger continues on the pruned execution tree (§5.3.3, §7). It also
//! relies on "global data-flow and alias analysis … to detect possible
//! side-effects" (§5.1) as the basis for the program transformations.
//! This crate implements all of that machinery:
//!
//! * [`callgraph`] — static call graph (expression calls included);
//! * [`effects`] — Banning-style MOD/REF and exit-effect summaries;
//! * [`controldep`] — postdominators and control dependence;
//! * [`dataflow`] — reaching definitions and liveness;
//! * [`slice_static`] — Weiser's static interprocedural slicing;
//! * [`dyntrace`] — dynamic traces with resolved data/control dependences
//!   and the dynamic call tree (execution-tree raw material);
//! * [`slice_dynamic`] — dynamic interprocedural slicing (Kamkar), which
//!   produces both relevant statements and the set of dynamic calls to
//!   keep when pruning the execution tree.
//!
//! ## Quickstart: reproduce the paper's Figure 2 slice
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use gadt_pascal::{sema::compile, cfg::lower, pretty::print_slice, testprogs};
//! use gadt_analysis::slice_static::{static_slice, SliceContext, SliceCriterion};
//!
//! let module = compile(testprogs::FIGURE2)?;
//! let cfg = lower(&module);
//! let cx = SliceContext::new(&module, &cfg);
//! let criterion = SliceCriterion::at_program_end(&module, "mul").unwrap();
//! let slice = static_slice(&cx, &criterion);
//! let sliced_source = print_slice(&module.program, &slice.stmts);
//! assert!(sliced_source.contains("mul := x * y"));
//! assert!(!sliced_source.contains("sum"));
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod callgraph;
pub mod controldep;
pub mod dataflow;
pub mod dyntrace;
pub mod effects;
pub mod slice_dynamic;
pub mod slice_static;

pub use callgraph::CallGraph;
pub use dyntrace::{record_trace, record_trace_shared, DynTrace};
pub use effects::Effects;
pub use slice_dynamic::{close_for_replay, dynamic_slice_final, dynamic_slice_output, DynSlice};
pub use slice_static::{static_slice, SliceContext, SliceCriterion, StaticSlice};
