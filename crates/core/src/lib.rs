#![warn(missing_docs)]
// Dispatch and pipeline paths must return structured errors, never panic:
// `unwrap()` is denied in this crate's non-test code (tests may unwrap).
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # pi2-core
//!
//! The PI2 public API: turn a SQL query log into an interactive
//! visualization interface, then drive that interface with events.
//!
//! The generation pipeline follows the paper's Figure 6:
//! 1. **Parse** the query log into DiffTrees ([`pi2_difftree`]).
//! 2. **Map** DiffTrees to candidate interfaces ([`pi2_interface`]).
//! 3. **Cost** the candidates ([`pi2_cost`]).
//! 4. **Search** the space of DiffTree transformations with MCTS
//!    ([`pi2_mcts`]), returning the lowest-cost interface that expresses
//!    every input query.
//!
//! ```
//! use pi2_core::prelude::*;
//!
//! let catalog = pi2_datasets::toy::default_catalog();
//! let pi2 = Pi2::builder(catalog).build();
//! let generated = pi2
//!     .generate_sql(&[
//!         "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
//!         "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
//!     ])
//!     .unwrap();
//! assert!(!generated.interface.charts.is_empty());
//!
//! // Drive the interface: every event re-executes the underlying query.
//! let mut session = pi2.session(&generated);
//! let updates = session.refresh_all().unwrap();
//! assert_eq!(updates.len(), generated.interface.charts.len());
//! ```

pub mod explain;
mod fallback;
pub mod fleet;
pub mod pipeline;
pub mod prelude;
pub mod problem;
pub mod scene;
pub mod session;

pub use fleet::{FleetConfig, FleetCounters, FleetHandle, FleetOutcome};
pub use pi2_mcts::GenerationBudget;
pub use pipeline::{
    DegradationLevel, GeneratedInterface, GenerationStats, Pi2, Pi2Builder, Pi2Error,
    SearchStrategy,
};
pub use problem::{ForestAction, InterfaceSearch};
pub use scene::{Renderer, SceneCatchup, SceneDelta, SceneGraph, SceneNodeId, SceneState};
pub use session::{
    ChartUpdate, Event, InterfaceSession, SessionBuilder, SessionError, SessionStats, WidgetState,
    WidgetValue,
};
