#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # pi2-sql
//!
//! A self-contained SQL front end for the PI2 reproduction: a lexer, a
//! recursive-descent parser, a typed abstract syntax tree, a pretty-printer
//! whose output round-trips through the parser, a structural normalizer, and
//! visitor utilities.
//!
//! The dialect covers the subset of SQL exercised by the PI2 demonstration
//! scenarios (COVID-19, SDSS, S&P 500): `SELECT` queries with joins,
//! grouping, `HAVING`, ordering, limits, scalar/`IN`/`EXISTS` subqueries
//! (including correlated ones), `BETWEEN`, `CASE`, `LIKE`, arithmetic, and
//! the standard aggregates.
//!
//! ```
//! use pi2_sql::parse_query;
//!
//! let q = parse_query("SELECT state, sum(cases) FROM covid GROUP BY state").unwrap();
//! assert_eq!(q.to_string(), "SELECT state, sum(cases) FROM covid GROUP BY state");
//! ```

pub mod arbitrary;
pub mod ast;
pub mod error;
pub mod format;
pub mod lexer;
pub mod normalize;
pub mod parser;
pub mod printer;
pub mod token;
pub mod visit;

pub use ast::*;
pub use error::{ParseError, Result};
pub use format::format_query;
pub use normalize::{literal_free, normalize_query};
pub use parser::{parse_queries, parse_query, MAX_DEPTH, MAX_OPERATORS};
