#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # pi2-engine
//!
//! An in-memory SQL execution engine: the substrate that stands in for the
//! SQLite kernel used by the original PI2 demonstration. PI2's generated
//! interfaces are *live* — every widget event re-instantiates a SQL query
//! from the DiffTree and re-executes it — so the reproduction needs a real
//! query engine, not canned results.
//!
//! The engine executes the [`pi2_sql`] AST directly against an in-memory
//! [`Catalog`] of tables. Supported: projections with expressions and
//! aliases, inner/left/cross joins, `WHERE`, grouped and ungrouped
//! aggregation, `HAVING`, `DISTINCT`, `ORDER BY`, `LIMIT`/`OFFSET`, scalar
//! functions, and scalar/`IN`/`EXISTS` subqueries including correlated ones
//! (with memoization keyed on the subquery's free variables).
//!
//! ```
//! use pi2_engine::{Catalog, Table, Value};
//! use pi2_sql::parse_query;
//!
//! let mut catalog = Catalog::new();
//! let mut t = Table::builder("covid")
//!     .column("state", pi2_engine::DataType::Str)
//!     .column("cases", pi2_engine::DataType::Int)
//!     .build();
//! t.push_row(vec![Value::str("NY"), Value::Int(100)]).unwrap();
//! t.push_row(vec![Value::str("FL"), Value::Int(250)]).unwrap();
//! catalog.register(t);
//!
//! let q = parse_query("SELECT state FROM covid WHERE cases > 200").unwrap();
//! let result = catalog.execute(&q).unwrap();
//! assert_eq!(result.rows, vec![vec![Value::str("FL")]]);
//! ```

pub mod catalog;
pub mod columnar;
pub mod csv;
pub mod delta;
pub mod error;
pub mod eval;
pub mod exec;
pub(crate) mod exec_columnar;
pub mod functions;
pub mod result;
pub mod schema;
pub mod stats;
pub mod table;
pub mod value;

pub use catalog::{Catalog, ExecLimits, Obtained};
pub use delta::{DeltaCache, DeltaOutcome};
pub use error::{EngineError, Result};
pub use result::ResultSet;
pub use schema::{Field, Schema};
pub use stats::{ColumnStats, ScanStats};
pub use table::Table;
pub use value::{DataType, Value};
