//! # gadt-pascal
//!
//! A Pascal-subset front end and execution engine: the language substrate
//! for the GADT reproduction (Fritzson, Gyimóthy, Kamkar, Shahmehri,
//! *Generalized Algorithmic Debugging and Testing*, PLDI 1991).
//!
//! The paper generalizes algorithmic debugging to imperative programs with
//! side effects, prototyped on Pascal. This crate provides everything the
//! other workspace crates need from a language implementation:
//!
//! * [`lexer`] / [`parser`] — classic Pascal syntax, including numeric
//!   labels and `goto` (the transformation phase's raw material) and the
//!   `in`/`out` parameter modes the transformation introduces;
//! * [`sema`] — name resolution (with nested procedures and non-local
//!   references) and type checking, producing a [`sema::Module`] whose
//!   id-keyed side tables hash with [`idhash::IdHasher`];
//! * [`mod@cfg`] — per-procedure control-flow graphs that both the interpreter
//!   and the flow analyses consume;
//! * [`interp`] — a deterministic interpreter with monitor hooks for
//!   building execution trees and dynamic dependence traces;
//! * [`pretty`] — a source printer, also able to print *slices* (programs
//!   restricted to a statement set) in the style of the paper's Figure 2;
//! * [`testprogs`] — the paper's example programs as shared fixtures.
//!
//! ## Quickstart
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use gadt_pascal::{sema::compile, interp::Interpreter};
//!
//! let module = compile(
//!     "program demo; var x, y: integer;
//!      begin read(x); y := x * x; writeln(y) end.",
//! )?;
//! let mut interp = Interpreter::new(&module);
//! interp.push_input_int(7);
//! let outcome = interp.run()?;
//! assert_eq!(outcome.output_text(), "49\n");
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod ast;
pub mod ast_mut;
pub mod cfg;
pub mod error;
pub mod idhash;
pub mod interp;
pub mod lexer;
pub mod parser;
pub mod pretty;
pub mod sema;
pub mod span;
pub mod testprogs;
pub mod token;
pub mod types;
pub mod value;

pub use error::Diagnostic;
pub use sema::{compile, Module};
pub use value::Value;
