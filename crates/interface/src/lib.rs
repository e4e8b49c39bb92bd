#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # pi2-interface
//!
//! The interface model and the DiffTree→interface mapper.
//!
//! An interface mapping 𝕀 = (𝕍, 𝕄, 𝕃) (paper §2) consists of a
//! *Visualization Mapping* 𝕍 from DiffTree results to charts, an
//! *Interaction Mapping* 𝕄 from choice nodes to interactions (widgets and
//! in-visualization interactions), and a *Layout Mapping* 𝕃 from interface
//! structure to a screen layout. This crate defines the target model
//! ([`model`]) and implements all three mappings as schema matching
//! ([`mapper`]): each choice node exposes a choice schema (value type,
//! domain shape, constrained column, range pairing) that is matched against
//! widget and interaction capability schemas; each query result exposes a
//! field schema matched against chart encoding requirements.
//!
//! ```
//! use pi2_difftree::DiffForest;
//! use pi2_interface::{map_forest, MapperConfig, Mark};
//!
//! let catalog = pi2_datasets::toy::default_catalog();
//! let q = pi2_sql::parse_query("SELECT a, count(*) FROM t GROUP BY a").unwrap();
//! let forest = DiffForest::singletons(std::slice::from_ref(&q));
//! let candidates = map_forest(&forest, &catalog, &[q], &MapperConfig::default()).unwrap();
//! assert_eq!(candidates[0].charts[0].mark, Mark::Bar);
//! ```

pub mod mapper;
pub mod model;
pub mod schema;

pub use mapper::{choose_chart, map_forest, MapError, MapperConfig};
pub use model::*;
pub use schema::{analyze, classify_field, FieldInfo};
