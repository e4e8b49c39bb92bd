//! The toy table and queries used in the paper's §2 running example
//! (Figures 2–5): `t(p, a, b)` with integer attributes.

use crate::Emit;
use pi2_engine::{Catalog, DataType, Table, Value};
use pi2_sql::Query;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Build the toy table `t(p INT, a INT, b INT)` with `rows` rows whose
/// attribute domains are small (p in 0..8, a in 0..5, b in 0..5) so that
/// grouped counts produce readable bar charts.
pub fn catalog(rows: usize, seed: u64) -> Catalog {
    crate::load(vec![t_schema()], |emit| t_rows(rows, seed, emit))
}

fn t_schema() -> Table {
    Table::builder("t")
        .column("p", DataType::Int)
        .column("a", DataType::Int)
        .column("b", DataType::Int)
        .build()
}

/// Emit the `rows` rows of `t` that [`catalog`] loads.
pub fn t_rows(rows: usize, seed: u64, emit: Emit<'_>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..rows {
        emit(
            "t",
            vec![
                Value::Int(rng.gen_range(0..8)),
                Value::Int(rng.gen_range(0..5)),
                Value::Int(rng.gen_range(0..5)),
            ],
        );
    }
}

/// Default toy catalog (200 rows, fixed seed).
pub fn default_catalog() -> Catalog {
    catalog(200, 0x70E)
}

/// A two-table variant for join workloads: `t(p, a, b)` as in
/// [`catalog`], plus a small dimension table `u(a INT, w INT)` keyed on
/// `a`, so `t JOIN u ON t.a = u.a` is always satisfiable. Used by the
/// conformance harness to fuzz join queries.
pub fn join_catalog(rows: usize, seed: u64) -> Catalog {
    let u = Table::builder("u").column("a", DataType::Int).column("w", DataType::Int).build();
    crate::load(vec![t_schema(), u], |emit| {
        t_rows(rows, seed, emit);
        u_rows(seed, emit);
    })
}

/// Emit the rows of `u` that [`join_catalog`] loads.
pub fn u_rows(seed: u64, emit: Emit<'_>) {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x1011);
    // One row per `a` value (0..5), plus a few duplicates with other weights.
    for a in 0..5 {
        emit("u", vec![Value::Int(a), Value::Int(rng.gen_range(0..9))]);
    }
    for _ in 0..3 {
        emit("u", vec![Value::Int(rng.gen_range(0..5)), Value::Int(rng.gen_range(0..9))]);
    }
}

/// Figure 2's three queries: Q1 and Q2 differ in the predicate's attribute
/// and literal; Q3 projects `a` instead of `p` and drops the filter.
pub fn fig2_queries() -> Vec<Query> {
    crate::parse_all(&[
        "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
        "SELECT p, count(*) FROM t WHERE b = 2 GROUP BY p",
        "SELECT a, count(*) FROM t GROUP BY a",
    ])
}

/// Figure 3 focuses on Q1 and Q2 only.
pub fn fig3_queries() -> Vec<Query> {
    fig2_queries().into_iter().take(2).collect()
}

/// Figure 5's variant: Q1 and Q2 differ *only in the literal* compared to
/// attribute `a`, and Q3 groups by `a` — so clicking a bar of Q3's chart
/// can bind the literal.
pub fn fig5_queries() -> Vec<Query> {
    crate::parse_all(&[
        "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
        "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
        "SELECT a, count(*) FROM t GROUP BY a",
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn toy_queries_execute() {
        let c = default_catalog();
        for q in fig2_queries().iter().chain(fig5_queries().iter()) {
            let r = c.execute(q).unwrap();
            assert!(!r.is_empty());
        }
    }

    #[test]
    fn join_catalog_supports_equi_join() {
        let c = join_catalog(100, 1);
        let r =
            c.execute_sql("SELECT t.p, count(*) FROM t JOIN u ON t.a = u.a GROUP BY t.p").unwrap();
        assert!(!r.is_empty());
    }

    #[test]
    fn domains_are_small() {
        let c = default_catalog();
        let r = c.execute_sql("SELECT count(DISTINCT p), count(DISTINCT a) FROM t").unwrap();
        assert_eq!(r.columns()[0].value(0), Value::Int(8));
        assert_eq!(r.columns()[1].value(0), Value::Int(5));
    }
}
