//! # gadt-store — the persistent crash-safe knowledge store
//!
//! The paper's central economy is *knowledge reuse*: every oracle answer
//! is expensive user time, and §2/§5.3.1 have the debugger answer
//! queries "automatically by checking the test database" instead of
//! re-asking. This crate makes that knowledge survive the process: test
//! reports, assertion-oracle answers keyed by `(unit, In-values)`
//! fingerprints, and campaign golden-reference verdicts all persist in
//! an append-only JSON-lines write-ahead log with atomic
//! snapshot/compaction.
//!
//! Guarantees (see [`store`] for the mechanics):
//!
//! * **crash-safe** — a truncated or corrupt tail is detected (every
//!   line must parse with the `gadt-obs` JSON parser, in one pass, and
//!   decode as a known record) and the valid prefix recovered, never a
//!   panic;
//! * **deterministic** — identical sessions write byte-identical stores
//!   at any executor thread count: the encoder is canonical, appends are
//!   idempotent, and batch runners feed the store in input order;
//! * **versioned** — every file opens with a header line; files from a
//!   newer format version are refused, not silently mangled.
//!
//! Layering: this crate sits just above `gadt-pascal` (for
//! [`gadt_pascal::value::Value`])
//! and `gadt-obs` (for the JSON model, parser and encoder, which
//! [`Json`], [`obj`] and [`parse`] re-export). `gadt-tgen` persists
//! its `TestDb` here, `gadt-core` consults it through a
//! `StoredKnowledgeOracle`, `gadt-mutate` reuses campaign verdicts, and
//! the root facade exposes it as `.with_store(path)`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod record;
pub mod shard;
pub mod store;
mod tempdir;

pub use gadt_obs::json::{obj, Json};
pub use record::{
    answer_key, value_from_json, value_to_json, Record, StoredAnswer, StoredReport, FORMAT, VERSION,
};
pub use shard::{AnswerAppend, ShardedStore};
pub use store::{KnowledgeStore, RecoveryReport, SharedStore};
pub use tempdir::TempDir;

/// Parses one complete JSON value with the workspace's one grammar
/// ([`gadt_obs::json::parse`]), dropping the error's offset and message:
/// the store treats any malformed line as corruption.
pub fn parse(input: &str) -> Option<Json> {
    gadt_obs::json::parse(input).ok()
}
