//! Differential property tests: the engine's results must agree with a
//! straightforward in-Rust evaluation of the same semantics on randomly
//! generated tables.

use pi2_engine::{Catalog, DataType, Table, Value};
use proptest::prelude::*;

#[derive(Debug, Clone)]
struct Row {
    k: i64,
    v: i64,
    s: &'static str,
}

fn rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    let labels = prop_oneof![Just("x"), Just("y"), Just("z")];
    proptest::collection::vec(
        (0i64..6, -50i64..50, labels).prop_map(|(k, v, s)| Row { k, v, s }),
        0..60,
    )
}

fn catalog_of(rows: &[Row]) -> Catalog {
    let mut t = Table::builder("t")
        .column("k", DataType::Int)
        .column("v", DataType::Int)
        .column("s", DataType::Str)
        .build();
    for r in rows {
        t.push_row(vec![Value::Int(r.k), Value::Int(r.v), Value::str(r.s)]).expect("valid row");
    }
    let mut c = Catalog::new();
    c.register(t);
    c
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn filter_counts_match_reference(rows in rows_strategy(), threshold in -50i64..50) {
        let c = catalog_of(&rows);
        let r = c
            .execute_sql(&format!("SELECT count(*) FROM t WHERE v > {threshold}"))
            .expect("executes");
        let expected = rows.iter().filter(|r| r.v > threshold).count() as i64;
        prop_assert_eq!(&r.rows[0][0], &Value::Int(expected));
    }

    #[test]
    fn grouped_sums_match_reference(rows in rows_strategy()) {
        let c = catalog_of(&rows);
        let r = c
            .execute_sql("SELECT k, sum(v), count(*) FROM t GROUP BY k ORDER BY k")
            .expect("executes");
        let mut expected: std::collections::BTreeMap<i64, (i64, i64)> = Default::default();
        for row in &rows {
            let e = expected.entry(row.k).or_insert((0, 0));
            e.0 += row.v;
            e.1 += 1;
        }
        prop_assert_eq!(r.rows.len(), expected.len());
        for (out, (k, (sum, count))) in r.rows.iter().zip(expected) {
            prop_assert_eq!(&out[0], &Value::Int(k));
            prop_assert_eq!(&out[1], &Value::Int(sum));
            prop_assert_eq!(&out[2], &Value::Int(count));
        }
    }

    #[test]
    fn grouped_sum_totals_equal_global_sum(rows in rows_strategy()) {
        prop_assume!(!rows.is_empty());
        let c = catalog_of(&rows);
        let grouped = c.execute_sql("SELECT s, sum(v) FROM t GROUP BY s").expect("executes");
        let total = c.execute_sql("SELECT sum(v) FROM t").expect("executes");
        let group_total: i64 = grouped
            .rows
            .iter()
            .map(|r| match &r[1] {
                Value::Int(v) => *v,
                other => panic!("{other}"),
            })
            .sum();
        prop_assert_eq!(&total.rows[0][0], &Value::Int(group_total));
    }

    #[test]
    fn self_join_cardinality_matches_reference(rows in rows_strategy()) {
        let c = catalog_of(&rows);
        let r = c
            .execute_sql("SELECT count(*) FROM t a JOIN t b ON a.k = b.k")
            .expect("executes");
        // Reference: sum over key groups of n^2.
        let mut counts: std::collections::HashMap<i64, i64> = Default::default();
        for row in &rows {
            *counts.entry(row.k).or_insert(0) += 1;
        }
        let expected: i64 = counts.values().map(|n| n * n).sum();
        prop_assert_eq!(&r.rows[0][0], &Value::Int(expected));
    }

    #[test]
    fn between_equals_two_comparisons(rows in rows_strategy(), lo in -50i64..0, hi in 0i64..50) {
        let c = catalog_of(&rows);
        let between = c
            .execute_sql(&format!("SELECT count(*) FROM t WHERE v BETWEEN {lo} AND {hi}"))
            .expect("executes");
        let pair = c
            .execute_sql(&format!("SELECT count(*) FROM t WHERE v >= {lo} AND v <= {hi}"))
            .expect("executes");
        prop_assert_eq!(&between.rows[0][0], &pair.rows[0][0]);
    }

    #[test]
    fn order_by_sorts_and_limit_truncates(rows in rows_strategy(), limit in 0u64..20) {
        let c = catalog_of(&rows);
        let r = c
            .execute_sql(&format!("SELECT v FROM t ORDER BY v DESC LIMIT {limit}"))
            .expect("executes");
        let mut expected: Vec<i64> = rows.iter().map(|r| r.v).collect();
        expected.sort_unstable_by(|a, b| b.cmp(a));
        expected.truncate(limit as usize);
        let got: Vec<i64> = r
            .rows
            .iter()
            .map(|row| match &row[0] {
                Value::Int(v) => *v,
                other => panic!("{other}"),
            })
            .collect();
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn distinct_matches_set_semantics(rows in rows_strategy()) {
        let c = catalog_of(&rows);
        let r = c.execute_sql("SELECT DISTINCT k FROM t").expect("executes");
        let expected: std::collections::BTreeSet<i64> = rows.iter().map(|r| r.k).collect();
        prop_assert_eq!(r.rows.len(), expected.len());
    }

    #[test]
    fn correlated_subquery_matches_group_maximum(rows in rows_strategy()) {
        prop_assume!(!rows.is_empty());
        let c = catalog_of(&rows);
        // Rows whose v equals their group's maximum.
        let r = c
            .execute_sql(
                "SELECT count(*) FROM t a WHERE v = (SELECT max(b.v) FROM t b WHERE b.k = a.k)",
            )
            .expect("executes");
        let mut maxima: std::collections::HashMap<i64, i64> = Default::default();
        for row in &rows {
            let e = maxima.entry(row.k).or_insert(i64::MIN);
            *e = (*e).max(row.v);
        }
        let expected = rows.iter().filter(|r| maxima[&r.k] == r.v).count() as i64;
        prop_assert_eq!(&r.rows[0][0], &Value::Int(expected));
    }

    #[test]
    fn cached_and_uncached_execution_agree(rows in rows_strategy()) {
        let c = catalog_of(&rows);
        let q = pi2_sql::parse_query("SELECT s, count(*), sum(v) FROM t GROUP BY s ORDER BY s")
            .expect("parses");
        let a = c.execute(&q).expect("cached");
        let b = c.execute_uncached(&q).expect("uncached");
        let a2 = c.execute(&q).expect("cache hit");
        prop_assert_eq!(a.as_ref(), &b);
        prop_assert_eq!(&a, &a2);
    }
}
