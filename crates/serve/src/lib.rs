//! # gadt-serve — the multi-session debugging service
//!
//! The paper's knowledge economy (§2, §5.3.1) pools every expensive
//! oracle judgement so no question is asked twice. A batch process pools
//! within one run; this crate pools across *users and processes*: a
//! long-lived server multiplexes many concurrent debugging/testing
//! sessions over one sharded, crash-safe knowledge store.
//!
//! Layers (std only, no dependencies beyond the workspace):
//!
//! * [`proto`] — length-prefixed JSON frames over TCP or unix sockets,
//!   encoded and parsed (once per frame) by the workspace's one JSON
//!   module, `gadt_obs::json`;
//! * [`server`] — the accept loop, worker pool (layered on
//!   [`gadt_exec::BatchExecutor`]), session table of resumable
//!   [`gadt::DebugState`]s pumped over borrowed program artifacts,
//!   pooled-knowledge answering, journal streaming to subscribers,
//!   batched fsynced store appends, and background WAL compaction;
//! * `programs` — the compiled-program table: sessions of one exact
//!   source text share one Phase I result, and sessions of that
//!   program that trace one input row under one set of limits share
//!   one traced run;
//! * [`client`] — a typed client used by the integration suite and the
//!   `gadt-serve --selftest` CI smoke.
//!
//! Protocol sketch (see `DESIGN.md` §12 for the grammar): every frame is
//! a 4-byte big-endian length plus one JSON object. Requests carry an
//! `"op"` — `ping`, `create`, `trace`, `ask`, `answer`, `slice`,
//! `journal`, `knowledge`, `subscribe`, `stats`, `compact`, `shutdown` —
//! and responses carry `"ok"` plus op-specific fields. A session is
//! created from source text, traced on inputs, then debugged by pumping
//! `ask`/`answer`: the server drains every question the pooled store
//! can already answer and only forwards the rest to the client, exactly
//! mirroring the synchronous [`gadt::Debugger`] driver's journal.
//!
//! Durability: an `answer` acknowledgement means the verdict is fsynced
//! on its shard — kill the server at any point and no acknowledged
//! answer is lost. Determinism: per-session journals are recorded into
//! untimed per-session recorders, so fingerprints are invariant under
//! server thread count and client interleaving.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
mod programs;
pub mod proto;
pub mod server;

pub use client::{AskReply, Client, EventStream, SessionOptions};
pub use proto::{read_frame, write_frame, MAX_FRAME};
pub use server::{Listen, Server, ServerAddr, ServerConfig, ServerHandle, ServerReport};
