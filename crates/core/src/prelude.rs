//! One-import surface for the common PI2 path.
//!
//! Generating an interface and driving it touches types from several
//! crates (the engine's [`Catalog`], the SQL AST's [`Literal`], the
//! interface model's [`WidgetKind`], …). This module re-exports all of
//! them so applications, examples, and doctests can write
//!
//! ```
//! use pi2_core::prelude::*;
//!
//! let catalog = pi2_datasets::toy::default_catalog();
//! let pi2 = Pi2::builder(catalog).build();
//! let generated = pi2.generate_sql(&["SELECT a, count(*) FROM t GROUP BY a"]).unwrap();
//! let mut session = pi2.session(&generated);
//! assert_eq!(session.refresh_all().unwrap().len(), generated.interface.charts.len());
//! ```
//!
//! instead of importing from five crates. Only the common path lives
//! here; specialized layers (dataset builders, renderers, the search
//! internals) keep their own namespaces.

pub use crate::fleet::{FleetConfig, FleetCounters, FleetHandle, FleetOutcome};
pub use crate::pipeline::{
    DegradationLevel, GeneratedInterface, GenerationStats, Pi2, Pi2Builder, Pi2Error,
    SearchStrategy,
};
pub use crate::scene::{
    ChartPatch, DataPatch, Renderer, SceneCatchup, SceneDelta, SceneGraph, SceneNodeId, SceneState,
    WidgetPatch,
};
pub use crate::session::{
    ChartUpdate, Event, InterfaceSession, SessionBuilder, SessionError, SessionStats, WidgetState,
    WidgetValue,
};
pub use pi2_engine::{Catalog, EngineError, ExecLimits, ResultSet, Table, Value};
pub use pi2_interface::{ChartId, Interface, VizInteraction, Widget, WidgetId, WidgetKind};
pub use pi2_mcts::{GenerationBudget, MctsConfig};
pub use pi2_sql::{Date, Literal, Query};
