#![warn(missing_docs)]

//! # pi2-conformance
//!
//! A seeded, deterministic fuzz-and-oracle harness for the whole PI2
//! pipeline. PI2's hard guarantee is that the returned interface *"can
//! express all queries in Q"* (paper §2); the hand-written demo scenarios
//! exercise a handful of logs, while this crate generates thousands of
//! random-but-valid ones and checks a battery of invariants on each:
//!
//! 1. **Expressiveness** — `forest.expresses_all(log)` after generation.
//! 2. **Chart queries** — every chart's current SQL parses/prints
//!    round-trip and executes on the engine.
//! 3. **Initial view** — each tree's default instantiation is a real
//!    query from the log (the `default_bindings` contract).
//! 4. **Widget states** — `widget_states` never reports `Unknown`, and
//!    every reported state is within the widget's option/domain bounds.
//! 5. **Event walk** — a random sequence of valid widget/chart events
//!    dispatches cleanly, and every resulting query still parses,
//!    prints round-trip, and executes.
//! 6. **Pan round-trip** — panning a chart there and back (when no domain
//!    clamping applies) restores the exact query.
//! 7. **Memo/workers determinism** — regenerating with a warm cost memo,
//!    at `workers ∈ {1, 4}`, yields the identical interface and cost.
//!
//! On failure the harness delta-debugs the query log and event sequence
//! down to a minimal reproducer ([`mod@shrink`]) and writes it to the
//! committed `corpus/` directory ([`corpus`]), where `cargo test` replays
//! every entry as an ordinary regression test.
//!
//! The `pi2-conformance` binary is the shared entry point for CI and
//! local runs:
//!
//! ```text
//! cargo run -p pi2-conformance -- --seed 7 --runs 50 --budget-secs 60
//! ```

pub mod corpus;
pub mod events;
pub mod faults;
pub mod oracles;
pub mod recovery;
pub mod runner;
pub mod scenarios;
pub mod shrink;

pub use corpus::Reproducer;
pub use faults::{check_fault, FAULT_CLASSES};
pub use oracles::{check, check_fleet, CheckConfig, Failure, Mutation, StrategyChoice};
pub use runner::{fuzz, RunReport, RunnerConfig};
pub use scenarios::{scenarios, Scenario};
pub use shrink::shrink;
