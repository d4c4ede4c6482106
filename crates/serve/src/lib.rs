//! # zbp-serve — sharded multi-stream prediction service
//!
//! The serving layer on top of the z15 predictor model, in three
//! pieces:
//!
//! * [`Session`] — the **unified replay API**: open a stream, feed
//!   [`BranchRecord`](zbp_model::BranchRecord) batches, finish for a
//!   [`SessionReport`]. One builder entry point —
//!   [`Session::options`]`(cfg).mode(m).telemetry(true).run(trace)` —
//!   covers delayed-update replay, co-simulation and lookahead
//!   analysis (see [`ReplayMode`]). Warm delayed-mode sessions can be
//!   imaged ([`Session::snapshot`] → [`SessionImage`]) and resumed
//!   elsewhere byte-identically.
//! * [`ShardPool`] — N predictor shards, each a worker thread with a
//!   bounded work queue, serving many concurrently-open sessions, each
//!   on a predictor of its own. Full queues reject with
//!   [`ServeError::Busy`] (backpressure, not blocking); shutdown drains
//!   gracefully and reduces per-stream telemetry deterministically. The
//!   pool is **elastic**: sessions live-migrate between shards
//!   ([`ShardPool::migrate`]), the shard set resizes under load
//!   ([`ShardPool::resize`]), and workers roll-restart without losing
//!   warm state ([`ShardPool::restart_shard`]);
//!   [`ShardPool::kill_shard`] is the chaos hook.
//! * [`Server`]/[`Client`] — a length-prefixed binary TCP protocol
//!   ([`proto`], versioned via the `Hello` handshake) exposing the pool
//!   to external processes from a single readiness-driven multiplexer
//!   thread, plus the `zbp_serve` and `loadgen` binaries.
//!
//! The shape mirrors the paper's Fig. 2: sessions are the asynchronous
//! BPL's consumers, the bounded per-shard queue is the BPL→ICM/IDU
//! prediction-queue handoff, and `Busy` is its full-queue stall made
//! visible to the caller.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod client;
mod pool;
pub mod proto;
mod server;
mod session;

pub use client::{Client, ClientError, RemoteReport, DEFAULT_BATCH};
pub use pool::{
    shard_for_label, CompletedSession, Opened, PoolConfig, PoolSummary, ServeError, ShardPause,
    ShardPool, StreamId,
};
pub use proto::{
    close_ok, soak_config, Frame, ProtoError, WireMode, WirePreset, MAX_FRAME, PROTO_VERSION,
    RECORD_BYTES,
};
pub use server::Server;
pub use session::{
    ReplayMode, Session, SessionImage, SessionOptions, SessionReport, DEFAULT_DEPTH,
};
