//! # gadt-trace
//!
//! Execution trees for the GADT reproduction (*Generalized Algorithmic
//! Debugging and Testing*, PLDI 1991).
//!
//! The tracing phase (paper §5.2) "builds an execution tree of the
//! transformed program … containing trace information about each unit of
//! the original program, such as parameter values and value of variables
//! which cause global side-effects within the unit". This crate turns a
//! recorded [`gadt_analysis::dyntrace::DynTrace`] ([`build_tree`]), or
//! a [`gadt_analysis::dyntrace::CallTree`] recorded without dependences
//! ([`build_call_tree`]), into that tree:
//!
//! * one node per procedure/function invocation with named In/Out values
//!   (parameters, function results, and non-local reads/writes);
//! * one node per dynamic *loop* instance — the paper treats loops as
//!   debuggable units (§5.1) — with per-iteration variable snapshots;
//! * rendering in the paper's query format, e.g.
//!   `computs(In y: 3, Out r1: 12, Out r2: 9)` (Figure 7);
//! * pruning against a dynamic slice, producing the "corresponding
//!   execution tree" of §7 (Figures 8 and 9).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod tree;

pub use tree::{build_call_tree, build_tree, ExecNode, ExecTree, NodeId, NodeKind, Preorder};
