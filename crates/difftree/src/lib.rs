#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # pi2-difftree
//!
//! DiffTrees are PI2's central data structure (paper §2): a generalization
//! of SQL abstract syntax trees whose *choice nodes* encode the variation
//! across a sequence of queries.
//!
//! * [`node::NodeKind::Any`] — choose exactly one of the children
//!   (paper: "the ANY choice node can choose one of its children").
//! * [`node::NodeKind::Opt`] — include or exclude the child (paper: "the
//!   toggle corresponds to an OPT choice node").
//! * [`node::NodeKind::Hole`] — a typed value hole with an explicit domain;
//!   the collapsed form of an `Any` over literals, generalizable to a whole
//!   column's domain ("choice nodes generalize SQL parameterized literals
//!   to syntactic structures" — holes are the literal case, `Any`/`Opt`
//!   the structural cases).
//!
//! The crate provides:
//! * lifting SQL queries into DiffTrees ([`lift`]) and lowering them back
//!   under a choice-node [`Bindings`] ([`lower`]),
//! * n-way structural merging of query logs ([`merge`]),
//! * the expressiveness check — can a DiffTree express a given query, and
//!   with which bindings ([`expresses`]),
//! * choice-node enumeration with interface-relevant context ([`choices`]),
//! * the tree transformation rule library ([`rules`]), and
//! * forests of DiffTrees partitioning a query log ([`forest`]).
//!
//! ```
//! use pi2_difftree::{merge_queries, expresses, lower_query, Bindings};
//!
//! let q1 = pi2_sql::parse_query("SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p").unwrap();
//! let q2 = pi2_sql::parse_query("SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p").unwrap();
//! let tree = merge_queries(&[(0, &q1), (1, &q2)]);
//! assert_eq!(tree.root.choice_count(), 1);            // one ANY over the literals
//! assert!(expresses(&tree, &q1).is_some());           // expresses both inputs…
//! assert!(expresses(&tree, &q2).is_some());
//! let default = lower_query(&tree, &Bindings::new()).unwrap();
//! assert_eq!(default, pi2_sql::normalize::normalized(&q1));
//! ```

pub mod bindings;
pub mod choices;
pub mod expresses;
pub mod forest;
pub mod lift;
pub mod lower;
pub mod merge;
pub mod node;
pub mod rules;

pub use bindings::{Binding, Bindings};
pub use choices::{choices, Choice, ChoiceContext, ChoiceKind, Clause, RangeRole};
pub use expresses::{default_bindings, expresses};
pub use forest::DiffForest;
pub use lift::lift_query;
pub use lower::lower_query;
pub use merge::merge_queries;
pub use node::{DiffNode, DiffTree, Domain, NodeId, NodeKind};
pub use rules::{all_rules, Rule, RuleApplication};
pub use rules::{
    CollapseLiteralAny, ExpandAnyChild, FactorCommonHead, GeneralizeHoleDomain,
    ParameterizeLiteral, SortAnyChildren,
};
