//! # gadt-mutate
//!
//! Mutation-based fault injection with an automated bug-localization
//! conformance harness for the GADT reproduction.
//!
//! The paper's central claim is that slicing-pruned algorithmic
//! debugging isolates a bug with fewer oracle questions (§5.3.3, §8).
//! This crate turns that claim into a measured, repeatable number, in
//! the spirit of Ohta & Mizuno's automated bug-localization framework
//! (see PAPERS.md):
//!
//! 1. [`operators`] plants realistic faults into known-good Pascal
//!    programs — relational-operator flips, arithmetic swaps,
//!    off-by-one constants, wrong variable references, deleted and
//!    duplicated assignments, negated conditions — each site tagged
//!    with the unit that owns the mutated statement;
//! 2. [`campaign`] runs every mutant through the full pipeline
//!    (transform → trace → dynamic slice → algorithmic debugging),
//!    with the **golden-reference oracle**
//!    ([`gadt::oracle::GoldenOracle`]) answering queries by consulting
//!    the un-mutated program in place of a human;
//! 3. [`report`] checks whether the debugger blamed exactly the mutated
//!    unit and how many questions slicing saved, aggregated into a
//!    [`report::CampaignSummary`].
//!
//! Campaigns fan out over [`gadt_exec::BatchExecutor`] and are
//! byte-identical at any thread count (timings aside).
//!
//! ## Quickstart
//!
//! ```
//! use gadt_mutate::campaign::{run_campaign, CampaignConfig, CampaignProgram};
//! use gadt_pascal::testprogs;
//!
//! let programs = vec![CampaignProgram::new("pqr", testprogs::PQR_FIXED)];
//! let config = CampaignConfig { max_mutants: 8, threads: 1, ..Default::default() };
//! let summary = run_campaign(&programs, &config).unwrap();
//! assert_eq!(summary.total(), 8);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod campaign;
pub mod operators;
pub mod report;

pub use campaign::{run_campaign, run_campaign_with_store, CampaignConfig, CampaignProgram};
pub use operators::{apply, enumerate_sites, materialize, MutOp, MutationSite};
pub use report::{CampaignSummary, LocalizationReport, MutantStatus};
