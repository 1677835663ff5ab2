//! kiss-serve: a persistent check service for the KISS checker.
//!
//! The checker's verdicts are deterministic functions of (program
//! source, operation, engine, `MAX`, budget) — which makes them
//! perfectly cacheable. This crate turns that observation into a
//! daemon: a socket server ([`server`]) executes checks under the
//! `kiss-core` supervisor and remembers every verdict in a
//! content-addressed result cache ([`cache`]) whose journal survives
//! restarts. Clients speak newline-delimited JSON ([`protocol`]) and
//! can submit deduplicated batches ([`client`]).
//!
//! ```text
//! client ──ndjson──▶ reader ──▶ cache? ──hit──▶ writer ──▶ client
//!                                 │miss
//!                                 ▼
//!                           bounded queue ──▶ workers (supervised)
//! ```
//!
//! The service is hardened against the usual long-running-daemon
//! failures and testable under injected ones (`kiss-fault`):
//!
//! * the journal checksums every record, skips torn or corrupted lines
//!   on replay, and is compacted periodically and at drain;
//! * queue admission is bounded-wait — an overloaded server sheds with
//!   a typed `overloaded` response instead of stalling its readers;
//! * idle connections with no in-flight work are closed after an
//!   optional deadline, and a `status` ping reports queue depth, cache
//!   size, and uptime without touching the request accounting;
//! * clients reconnect with capped exponential backoff plus
//!   deterministic jitter, re-sending only idempotent unanswered work.

#![warn(missing_docs)]

pub mod cache;
pub mod client;
pub mod protocol;
pub mod server;

pub use cache::{CachedVerdict, ReplayStats, ResultCache, SHARD_COUNT};
pub use client::{
    fetch_metrics, ping, submit_batch, submit_batch_with, BatchOutcome, Endpoint, EntryCache,
    SubmitOptions,
};
pub use protocol::{
    decode_frame, decode_request, decode_response, Batch, CacheStatus, Frame, FrameError, Op,
    Request, Response, ServeSnapshot, MAX_FRAME_BYTES,
};
pub use server::{ServeConfig, ServeStats, Server};
