//! End-to-end executor tests over a small COVID-style schema.

use pi2_engine::{Catalog, DataType, Table, Value};

/// covid(date DATE, state TEXT, cases INT) + regions(state TEXT, region TEXT)
fn fixture() -> Catalog {
    let mut catalog = Catalog::new();

    let mut covid = Table::builder("covid")
        .column("date", DataType::Date)
        .column("state", DataType::Str)
        .column("cases", DataType::Int)
        .build();
    let data = [
        ("2021-12-01", "NY", 100),
        ("2021-12-01", "FL", 80),
        ("2021-12-01", "VT", 5),
        ("2021-12-02", "NY", 150),
        ("2021-12-02", "FL", 90),
        ("2021-12-02", "VT", 7),
        ("2021-12-03", "NY", 200),
        ("2021-12-03", "FL", 160),
        ("2021-12-03", "VT", 6),
    ];
    for (d, s, c) in data {
        covid.push_row(vec![Value::date(d), Value::str(s), Value::Int(c)]).unwrap();
    }
    catalog.register(covid);

    let mut regions = Table::builder("regions")
        .column("state", DataType::Str)
        .column("region", DataType::Str)
        .build();
    for (s, r) in [("NY", "Northeast"), ("VT", "Northeast"), ("FL", "South")] {
        regions.push_row(vec![Value::str(s), Value::str(r)]).unwrap();
    }
    catalog.register(regions);

    catalog
}

fn run(c: &Catalog, sql: &str) -> std::sync::Arc<pi2_engine::ResultSet> {
    c.execute_sql(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

#[test]
fn projection_and_filter() {
    let c = fixture();
    let r = run(&c, "SELECT state, cases FROM covid WHERE cases > 100");
    assert_eq!(r.rows.len(), 3);
    assert!(r.rows.iter().all(|row| matches!(&row[1], Value::Int(v) if *v > 100)));
}

#[test]
fn select_star_expands() {
    let c = fixture();
    let r = run(&c, "SELECT * FROM regions");
    assert_eq!(r.schema.fields.len(), 2);
    assert_eq!(r.schema.fields[0].name, "state");
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn qualified_star() {
    let c = fixture();
    let r = run(&c, "SELECT r.* FROM covid c JOIN regions r ON c.state = r.state");
    assert_eq!(r.schema.fields.len(), 2);
    assert_eq!(r.rows.len(), 9);
}

#[test]
fn arithmetic_projection_types() {
    let c = fixture();
    let r = run(&c, "SELECT cases * 2 AS double_cases FROM covid LIMIT 1");
    assert_eq!(r.schema.fields[0].name, "double_cases");
    assert_eq!(r.schema.fields[0].data_type, DataType::Int);
    assert_eq!(r.rows[0][0], Value::Int(200));
}

#[test]
fn group_by_aggregates() {
    let c = fixture();
    let r =
        run(&c, "SELECT state, sum(cases) AS total FROM covid GROUP BY state ORDER BY total DESC");
    assert_eq!(r.rows.len(), 3);
    assert_eq!(r.rows[0], vec![Value::str("NY"), Value::Int(450)]);
    assert_eq!(r.rows[1], vec![Value::str("FL"), Value::Int(330)]);
    assert_eq!(r.rows[2], vec![Value::str("VT"), Value::Int(18)]);
}

#[test]
fn global_aggregate_without_group_by() {
    let c = fixture();
    let r = run(&c, "SELECT count(*), sum(cases), avg(cases), min(cases), max(cases) FROM covid");
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int(9));
    assert_eq!(r.rows[0][1], Value::Int(798));
    assert_eq!(r.rows[0][3], Value::Int(5));
    assert_eq!(r.rows[0][4], Value::Int(200));
}

#[test]
fn aggregate_over_empty_input_yields_one_row() {
    let c = fixture();
    let r = run(&c, "SELECT count(*), sum(cases) FROM covid WHERE cases > 99999");
    assert_eq!(r.rows.len(), 1);
    assert_eq!(r.rows[0][0], Value::Int(0));
    assert_eq!(r.rows[0][1], Value::Null);
}

#[test]
fn group_by_empty_group_vanishes() {
    let c = fixture();
    let r = run(&c, "SELECT state, count(*) FROM covid WHERE cases > 99999 GROUP BY state");
    assert!(r.rows.is_empty());
}

#[test]
fn having_filters_groups() {
    let c = fixture();
    let r =
        run(&c, "SELECT state FROM covid GROUP BY state HAVING sum(cases) > 100 ORDER BY state");
    assert_eq!(r.rows, vec![vec![Value::str("FL")], vec![Value::str("NY")]]);
}

#[test]
fn count_distinct() {
    let c = fixture();
    let r = run(&c, "SELECT count(DISTINCT state) FROM covid");
    assert_eq!(r.rows[0][0], Value::Int(3));
}

#[test]
fn inner_join_hash_path() {
    let c = fixture();
    let r = run(&c, "SELECT c.state, r.region FROM covid c JOIN regions r ON c.state = r.state WHERE c.cases > 100");
    assert_eq!(r.rows.len(), 3);
    assert!(r
        .rows
        .iter()
        .all(|row| row[1] == Value::str("Northeast") || row[1] == Value::str("South")));
}

#[test]
fn join_with_residual_predicate() {
    let c = fixture();
    let r = run(
        &c,
        "SELECT c.state FROM covid c JOIN regions r ON c.state = r.state AND c.cases > 150 ORDER BY c.state",
    );
    assert_eq!(r.rows, vec![vec![Value::str("FL")], vec![Value::str("NY")]]);
}

#[test]
fn left_join_keeps_unmatched() {
    let mut c = fixture();
    let mut extra =
        Table::builder("extra").column("state", DataType::Str).column("pop", DataType::Int).build();
    extra.push_row(vec![Value::str("NY"), Value::Int(19)]).unwrap();
    c.register(extra);
    let r = run(&c, "SELECT r.state, e.pop FROM regions r LEFT JOIN extra e ON r.state = e.state ORDER BY r.state");
    assert_eq!(r.rows.len(), 3);
    // FL and VT unmatched -> NULL pop.
    assert_eq!(r.rows[0], vec![Value::str("FL"), Value::Null]);
    assert_eq!(r.rows[1], vec![Value::str("NY"), Value::Int(19)]);
    assert_eq!(r.rows[2], vec![Value::str("VT"), Value::Null]);
}

#[test]
fn cross_join_cardinality() {
    let c = fixture();
    let r = run(&c, "SELECT count(*) FROM covid CROSS JOIN regions");
    assert_eq!(r.rows[0][0], Value::Int(27));
}

#[test]
fn comma_join_is_cross_product() {
    let c = fixture();
    let r = run(&c, "SELECT count(*) FROM covid, regions");
    assert_eq!(r.rows[0][0], Value::Int(27));
}

#[test]
fn nested_loop_join_on_inequality() {
    let c = fixture();
    let r = run(&c, "SELECT count(*) FROM regions a JOIN regions b ON a.state < b.state");
    assert_eq!(r.rows[0][0], Value::Int(3)); // FL<NY, FL<VT, NY<VT
}

#[test]
fn derived_table() {
    let c = fixture();
    let r = run(
        &c,
        "SELECT s.state, s.total FROM (SELECT state, sum(cases) AS total FROM covid GROUP BY state) AS s WHERE s.total > 100 ORDER BY s.total",
    );
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0][0], Value::str("FL"));
}

#[test]
fn scalar_subquery() {
    let c = fixture();
    let r = run(&c, "SELECT state, cases FROM covid WHERE cases > (SELECT avg(cases) FROM covid) ORDER BY cases");
    // avg = 88.67 -> rows with cases in {90,100,150,160,200}
    assert_eq!(r.rows.len(), 5);
    assert_eq!(r.rows[0][1], Value::Int(90));
}

#[test]
fn in_subquery() {
    let c = fixture();
    let r = run(
        &c,
        "SELECT DISTINCT state FROM covid WHERE state IN (SELECT state FROM regions WHERE region = 'Northeast') ORDER BY state",
    );
    assert_eq!(r.rows, vec![vec![Value::str("NY")], vec![Value::str("VT")]]);
}

#[test]
fn exists_correlated() {
    let c = fixture();
    let r = run(
        &c,
        "SELECT DISTINCT r.state FROM regions r WHERE EXISTS (SELECT 1 FROM covid c WHERE c.state = r.state AND c.cases > 150) ORDER BY r.state",
    );
    assert_eq!(r.rows, vec![vec![Value::str("FL")], vec![Value::str("NY")]]);
}

#[test]
fn correlated_scalar_subquery() {
    let c = fixture();
    // Each state's max cases.
    let r = run(
        &c,
        "SELECT DISTINCT state, (SELECT max(c2.cases) FROM covid c2 WHERE c2.state = c.state) AS peak FROM covid c ORDER BY state",
    );
    assert_eq!(
        r.rows,
        vec![
            vec![Value::str("FL"), Value::Int(160)],
            vec![Value::str("NY"), Value::Int(200)],
            vec![Value::str("VT"), Value::Int(7)],
        ]
    );
}

#[test]
fn demo_q4_correlated_region_average() {
    let c = fixture();
    // States whose average cases exceed their region's average (paper Q4 shape).
    let r = run(
        &c,
        "SELECT DISTINCT c.state FROM covid c JOIN regions r ON c.state = r.state \
         WHERE c.state IN (SELECT c2.state FROM covid c2 JOIN regions r2 ON c2.state = r2.state \
            WHERE r2.region = r.region GROUP BY c2.state \
            HAVING avg(c2.cases) > (SELECT avg(c3.cases) FROM covid c3 JOIN regions r3 ON c3.state = r3.state \
               WHERE r3.region = r.region)) ORDER BY c.state",
    );
    // Northeast: NY avg 150 vs region avg 78 -> NY above. South: FL alone, avg == region avg -> excluded.
    assert_eq!(r.rows, vec![vec![Value::str("NY")]]);
}

#[test]
fn between_dates() {
    let c = fixture();
    let r = run(
        &c,
        "SELECT count(*) FROM covid WHERE date BETWEEN DATE '2021-12-02' AND DATE '2021-12-03'",
    );
    assert_eq!(r.rows[0][0], Value::Int(6));
}

#[test]
fn order_by_multiple_keys_and_direction() {
    let c = fixture();
    let r = run(&c, "SELECT state, cases FROM covid ORDER BY state ASC, cases DESC LIMIT 2");
    assert_eq!(r.rows[0], vec![Value::str("FL"), Value::Int(160)]);
    assert_eq!(r.rows[1], vec![Value::str("FL"), Value::Int(90)]);
}

#[test]
fn order_by_position() {
    let c = fixture();
    let r = run(&c, "SELECT state, sum(cases) FROM covid GROUP BY state ORDER BY 2 DESC LIMIT 1");
    assert_eq!(r.rows[0][0], Value::str("NY"));
}

#[test]
fn limit_offset() {
    let c = fixture();
    let r = run(&c, "SELECT cases FROM covid ORDER BY cases LIMIT 3 OFFSET 2");
    assert_eq!(r.rows, vec![vec![Value::Int(7)], vec![Value::Int(80)], vec![Value::Int(90)]]);
}

#[test]
fn distinct_dedups() {
    let c = fixture();
    let r = run(&c, "SELECT DISTINCT state FROM covid");
    assert_eq!(r.rows.len(), 3);
}

#[test]
fn case_expression() {
    let c = fixture();
    let r = run(
        &c,
        "SELECT DISTINCT state, CASE WHEN cases >= 100 THEN 'high' ELSE 'low' END AS band FROM covid WHERE date = DATE '2021-12-01' ORDER BY state",
    );
    assert_eq!(
        r.rows,
        vec![
            vec![Value::str("FL"), Value::str("low")],
            vec![Value::str("NY"), Value::str("high")],
            vec![Value::str("VT"), Value::str("low")],
        ]
    );
}

#[test]
fn like_and_in_list() {
    let c = fixture();
    let r = run(
        &c,
        "SELECT DISTINCT state FROM covid WHERE state LIKE 'N%' OR state IN ('VT')  ORDER BY state",
    );
    assert_eq!(r.rows, vec![vec![Value::str("NY")], vec![Value::str("VT")]]);
}

#[test]
fn date_functions() {
    let c = fixture();
    let r = run(&c, "SELECT DISTINCT year(date), month(date) FROM covid");
    assert_eq!(r.rows, vec![vec![Value::Int(2021), Value::Int(12)]]);
}

#[test]
fn select_without_from() {
    let c = Catalog::new();
    let r = run(&c, "SELECT 1 + 2 AS three, 'x' AS s");
    assert_eq!(r.rows, vec![vec![Value::Int(3), Value::str("x")]]);
    assert_eq!(r.schema.fields[0].name, "three");
}

#[test]
fn unknown_column_is_error() {
    let c = fixture();
    assert!(c.execute_sql("SELECT nope FROM covid").is_err());
}

#[test]
fn ambiguous_column_is_error() {
    let c = fixture();
    let err = c
        .execute_sql("SELECT state FROM covid JOIN regions ON covid.state = regions.state")
        .unwrap_err();
    assert!(matches!(err, pi2_engine::EngineError::AmbiguousColumn(_)), "got {err:?}");
}

#[test]
fn unknown_table_is_error() {
    let c = fixture();
    assert!(matches!(
        c.execute_sql("SELECT * FROM nothere").unwrap_err(),
        pi2_engine::EngineError::UnknownTable(_)
    ));
}

#[test]
fn free_columns_detects_correlation() {
    let c = fixture();
    let q = pi2_sql::parse_query(
        "SELECT c2.state FROM covid c2 JOIN regions r2 ON c2.state = r2.state WHERE r2.region = r.region",
    )
    .unwrap();
    let free = c.free_columns(&q);
    assert_eq!(free.len(), 1);
    assert_eq!(free[0].to_string(), "r.region");
}

#[test]
fn free_columns_empty_for_self_contained_query() {
    let c = fixture();
    let q = pi2_sql::parse_query("SELECT state, sum(cases) FROM covid GROUP BY state").unwrap();
    assert!(c.free_columns(&q).is_empty());
}

#[test]
fn null_handling_in_where() {
    let mut c = Catalog::new();
    let mut t = Table::builder("t").column("a", DataType::Int).build();
    t.push_row(vec![Value::Int(1)]).unwrap();
    t.push_row(vec![Value::Null]).unwrap();
    c.register(t);
    // NULL > 0 is NULL -> filtered out.
    let r = run(&c, "SELECT a FROM t WHERE a > 0");
    assert_eq!(r.rows.len(), 1);
    let r = run(&c, "SELECT a FROM t WHERE a IS NULL");
    assert_eq!(r.rows.len(), 1);
    // count(a) skips NULLs, count(*) doesn't.
    let r = run(&c, "SELECT count(a), count(*) FROM t");
    assert_eq!(r.rows[0], vec![Value::Int(1), Value::Int(2)]);
}

#[test]
fn group_by_groups_nulls_together() {
    let mut c = Catalog::new();
    let mut t = Table::builder("t").column("k", DataType::Str).column("v", DataType::Int).build();
    t.push_row(vec![Value::Null, Value::Int(1)]).unwrap();
    t.push_row(vec![Value::Null, Value::Int(2)]).unwrap();
    t.push_row(vec![Value::str("a"), Value::Int(3)]).unwrap();
    c.register(t);
    let r = run(&c, "SELECT k, sum(v) FROM t GROUP BY k ORDER BY k");
    assert_eq!(r.rows.len(), 2);
    assert_eq!(r.rows[0], vec![Value::Null, Value::Int(3)]);
}

#[test]
fn result_schema_types_inferred() {
    let c = fixture();
    let r = run(
        &c,
        "SELECT date, state, cases, avg(cases) AS m FROM covid GROUP BY date, state, cases LIMIT 1",
    );
    let types: Vec<DataType> = r.schema.fields.iter().map(|f| f.data_type).collect();
    assert_eq!(types, vec![DataType::Date, DataType::Str, DataType::Int, DataType::Float]);
}

#[test]
fn scalar_subquery_multiple_rows_is_error() {
    let c = fixture();
    assert!(c.execute_sql("SELECT (SELECT cases FROM covid) FROM regions").is_err());
}

#[test]
fn aggregate_outside_grouping_is_error() {
    let c = fixture();
    assert!(c.execute_sql("SELECT state FROM covid WHERE sum(cases) > 10").is_err());
}
