#![warn(missing_docs)]
// The server must degrade to structured error responses, never panic on
// user input: `unwrap()` is denied in non-test code (tests may unwrap).
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # pi2-server
//!
//! A concurrent session server for PI2: many analysts' notebook sessions
//! multiplexed over shared, immutable catalogs, driven through a
//! line-delimited JSON protocol — over TCP or fully in-process.
//!
//! The paper demonstrates PI2 inside a single Jupyter notebook; this
//! crate is the piece a hosted deployment needs on top: one resident
//! server holding each scenario's columnar tables **once** (sessions get
//! `Arc`-sharing catalog clones), a **readiness-driven reactor** (a small
//! fixed pool of worker threads, each multiplexing many nonblocking
//! connections — fleet size is bounded by sockets, not threads), a
//! sharded registry so concurrent dispatches to different sessions never
//! contend on one lock, **gesture coalescing** (a request's burst of pans
//! collapses before dispatch, and the journal replays exactly what ran),
//! per-endpoint latency telemetry, and graceful drain on shutdown.
//!
//! ```
//! use pi2_server::LocalClient;
//! use serde_json::json;
//!
//! let client = LocalClient::standalone();
//! let opened = client.request(json!({"cmd": "open", "scenario": "toy"}));
//! let session = opened["session"].as_i64().unwrap();
//! for sql in [
//!     "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
//!     "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
//! ] {
//!     client.request(json!({"cmd": "run_cell", "session": session, "sql": sql}));
//! }
//! let generated = client.request(json!({"cmd": "generate", "session": session}));
//! assert_eq!(generated["ok"].as_bool(), Some(true));
//! // Operate the generated slider: the chart's WHERE literal follows it.
//! let updated = client.request(json!({
//!     "cmd": "gesture", "session": session,
//!     "events": [{"type": "set_widget", "widget": 0, "value": {"scalar": 2.0}}],
//! }));
//! assert_eq!(updated["applied"].as_i64(), Some(1));
//! assert!(updated["updates"][0]["sql"].as_str().unwrap().contains("a = 2"));
//! ```
//!
//! See `DESIGN.md` ("Serving") for the protocol reference and the
//! concurrency model.

pub mod client;
pub mod journal;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod session;
pub mod state;

pub use client::{LocalClient, RetryPolicy, TcpClient};
pub use journal::{Journal, JournalConfig};
pub use protocol::{
    CacheMode, CacheOptions, ErrorKind, OpenOptions, Request, Strategy, MAX_GESTURE_EVENTS,
};
pub use registry::Registry;
pub use server::{Server, ServerConfig};
pub use session::{coalesce, SessionEntry, DEDUPE_WINDOW};
pub use state::{JournalCounters, RecoveryReport, ServerCounters, ServerState};
