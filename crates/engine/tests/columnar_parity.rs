//! Differential tests: the columnar fast path must be indistinguishable
//! from the row-at-a-time reference executor — same schema (names and
//! types), same rows in the same order, same errors.

use pi2_engine::{Catalog, ColumnData, DataType, Table, Value};
use pi2_sql::parse_query;

fn assert_parity(catalog: &Catalog, sql: &str) {
    let q = parse_query(sql).unwrap_or_else(|e| panic!("parse {sql}: {e}"));
    let fast = catalog.execute_uncached(&q);
    let reference = catalog.execute_reference(&q);
    match (fast, reference) {
        (Ok(f), Ok(r)) => {
            let f_schema: Vec<(&str, DataType)> =
                f.schema.fields.iter().map(|x| (x.name.as_str(), x.data_type)).collect();
            let r_schema: Vec<(&str, DataType)> =
                r.schema.fields.iter().map(|x| (x.name.as_str(), x.data_type)).collect();
            assert_eq!(f_schema, r_schema, "schema mismatch for {sql}");
            assert_eq!(
                f.rows().collect::<Vec<_>>(),
                r.rows().collect::<Vec<_>>(),
                "row mismatch for {sql}"
            );
        }
        (Err(f), Err(r)) => {
            assert_eq!(f.to_string(), r.to_string(), "error mismatch for {sql}");
        }
        (f, r) => panic!("status mismatch for {sql}: fast={f:?} reference={r:?}"),
    }
}

fn mixed_catalog() -> Catalog {
    let mut c = Catalog::new();
    let mut t = Table::builder("obs")
        .column("id", DataType::Int)
        .column("city", DataType::Str)
        .column("temp", DataType::Float)
        .column("day", DataType::Date)
        .column("ok", DataType::Bool)
        .build();
    type Row<'a> = (i64, Option<&'a str>, Option<f64>, &'a str, bool);
    let rows: Vec<Row> = vec![
        (1, Some("austin"), Some(31.5), "2021-06-01", true),
        (2, Some("boston"), Some(18.25), "2021-06-02", false),
        (3, None, Some(-4.0), "2021-06-03", true),
        (4, Some("austin"), None, "2021-06-04", false),
        (5, Some("chicago"), Some(22.0), "2021-06-05", true),
        (6, Some("boston"), Some(18.25), "2021-06-06", true),
        (7, Some("denver"), Some(0.0), "2021-06-07", false),
        // 2^53: the first INT whose neighbours collapse onto it as f64.
        (9_007_199_254_740_992, Some("erie"), Some(12.5), "2021-06-08", true),
    ];
    for (id, city, temp, day, ok) in rows {
        t.push_row(vec![
            Value::Int(id),
            city.map(Value::str).unwrap_or(Value::Null),
            temp.map(Value::Float).unwrap_or(Value::Null),
            Value::date(day),
            Value::Bool(ok),
        ])
        .unwrap();
    }
    c.register(t);
    c
}

#[test]
fn filters_match_reference() {
    let c = mixed_catalog();
    for sql in [
        "SELECT id FROM obs WHERE temp > 18",
        "SELECT id FROM obs WHERE temp > 18.25",
        "SELECT id FROM obs WHERE id >= 3 AND temp < 30",
        "SELECT id FROM obs WHERE city = 'austin'",
        "SELECT id FROM obs WHERE 'austin' = city",
        "SELECT id FROM obs WHERE 20 <= temp",
        "SELECT id FROM obs WHERE day > DATE '2021-06-03'",
        "SELECT id FROM obs WHERE ok = TRUE",
        "SELECT id FROM obs WHERE temp BETWEEN 0 AND 20",
        "SELECT id FROM obs WHERE id BETWEEN 2.5 AND 6",
        "SELECT id FROM obs WHERE id BETWEEN 9007199254740993 AND 9007199254740993",
        "SELECT id FROM obs WHERE temp NOT BETWEEN 0 AND 20",
        "SELECT id FROM obs WHERE city IN ('austin', 'denver')",
        "SELECT id FROM obs WHERE city NOT IN ('austin', 'denver')",
        "SELECT id FROM obs WHERE city LIKE '%os%'",
        "SELECT id FROM obs WHERE city IS NULL",
        "SELECT id FROM obs WHERE temp IS NOT NULL AND NOT ok",
        "SELECT id FROM obs WHERE city = 'austin' OR temp < 0",
        "SELECT id FROM obs WHERE temp = NULL",
        "SELECT id FROM obs WHERE id % 2 = 1",
    ] {
        assert_parity(&c, sql);
    }
}

#[test]
fn projections_and_expressions_match_reference() {
    let c = mixed_catalog();
    for sql in [
        "SELECT * FROM obs",
        "SELECT obs.* FROM obs",
        "SELECT o.id, o.temp FROM obs o WHERE o.temp > 0",
        "SELECT id * 2 + 1 AS double_id, temp / 2 FROM obs",
        "SELECT upper(city), length(city) FROM obs",
        "SELECT CASE WHEN temp < 0 THEN 'cold' WHEN temp < 25 THEN 'mild' ELSE 'hot' END FROM obs",
        "SELECT CASE city WHEN 'austin' THEN 1 ELSE 0 END FROM obs",
        "SELECT coalesce(temp, -99.0) FROM obs",
        "SELECT day + 7, day - day FROM obs",
        "SELECT city || '-' || id FROM obs",
        "SELECT -temp, NOT ok FROM obs",
    ] {
        assert_parity(&c, sql);
    }
}

#[test]
fn aggregation_matches_reference() {
    let c = mixed_catalog();
    for sql in [
        "SELECT count(*) FROM obs",
        "SELECT count(temp), count(city) FROM obs",
        "SELECT count(DISTINCT city) FROM obs",
        "SELECT sum(id), avg(temp), min(temp), max(temp) FROM obs",
        "SELECT city, count(*) FROM obs GROUP BY city",
        "SELECT city, sum(temp) FROM obs GROUP BY city HAVING sum(temp) > 18",
        "SELECT city, avg(temp) AS t FROM obs GROUP BY city ORDER BY t DESC",
        "SELECT ok, count(*) FROM obs WHERE temp IS NOT NULL GROUP BY ok",
        // Ungrouped aggregate over zero input rows: one all-NULL group.
        "SELECT count(*), sum(temp), min(city) FROM obs WHERE id < 0",
        "SELECT city FROM obs GROUP BY city HAVING count(*) > 1",
        "SELECT sum(temp) FROM obs",
        "SELECT avg(id) FROM obs GROUP BY ok ORDER BY 1",
    ] {
        assert_parity(&c, sql);
    }
}

#[test]
fn ordering_distinct_and_limits_match_reference() {
    let c = mixed_catalog();
    for sql in [
        "SELECT city FROM obs ORDER BY city",
        "SELECT DISTINCT city FROM obs",
        "SELECT DISTINCT temp FROM obs ORDER BY temp DESC",
        "SELECT id, temp FROM obs ORDER BY temp DESC, id ASC",
        "SELECT id AS n FROM obs ORDER BY n DESC",
        "SELECT id, city FROM obs ORDER BY 2, 1",
        "SELECT id FROM obs ORDER BY temp LIMIT 3",
        "SELECT id FROM obs ORDER BY id LIMIT 3 OFFSET 2",
        "SELECT id FROM obs ORDER BY id DESC OFFSET 5",
        "SELECT id FROM obs ORDER BY -id",
    ] {
        assert_parity(&c, sql);
    }
}

#[test]
fn errors_match_reference() {
    let c = mixed_catalog();
    for sql in [
        "SELECT id FROM obs WHERE city > 5",
        "SELECT id FROM obs WHERE temp LIKE 'x%'",
        "SELECT sum(city) FROM obs",
        "SELECT id FROM obs HAVING id > 1",
        "SELECT NOT temp FROM obs",
        "SELECT id FROM obs WHERE id AND ok",
        // Row 4's NULL temp leaves the AND undecided, so the reference
        // evaluates the failing right side there.
        "SELECT id FROM obs WHERE temp > 100 AND city + 1 > 0",
    ] {
        assert_parity(&c, sql);
    }
}

#[test]
fn demo_scenarios_match_reference() {
    for scenario in pi2_datasets::demo_scenarios() {
        for q in &scenario.queries {
            let fast = scenario.catalog.execute_uncached(q);
            let reference = scenario.catalog.execute_reference(q);
            match (fast, reference) {
                (Ok(f), Ok(r)) => {
                    assert_eq!(
                        f.rows().collect::<Vec<_>>(),
                        r.rows().collect::<Vec<_>>(),
                        "rows differ on {}: {q}",
                        scenario.name
                    );
                    assert_eq!(f.schema, r.schema, "schema differs on {}: {q}", scenario.name);
                }
                (Err(f), Err(r)) => assert_eq!(f.to_string(), r.to_string()),
                (f, r) => panic!("status mismatch on {}: {q}\n{f:?}\n{r:?}", scenario.name),
            }
        }
    }
}

#[test]
fn single_table_takes_columnar_path_and_joins_fall_back() {
    let c = mixed_catalog();
    let single = parse_query("SELECT id FROM obs WHERE temp > 0").unwrap();
    let join = parse_query("SELECT a.id FROM obs a, obs b WHERE a.id = b.id").unwrap();

    let (col0, ref0) = c.exec_path_counts();
    c.execute_uncached(&single).unwrap();
    let (col1, ref1) = c.exec_path_counts();
    assert_eq!((col1 - col0, ref1 - ref0), (1, 0), "single-table scan should run columnar");

    c.execute_uncached(&join).unwrap();
    let (col2, ref2) = c.exec_path_counts();
    assert_eq!((col2 - col1, ref2 - ref1), (0, 1), "join should fall back to reference");

    // Subqueries also fall back.
    let sub = parse_query("SELECT id FROM obs WHERE id IN (SELECT id FROM obs WHERE ok)").unwrap();
    c.execute_uncached(&sub).unwrap();
    let (col3, ref3) = c.exec_path_counts();
    assert_eq!((col3 - col2, ref3 - ref2), (0, 1), "subquery should fall back to reference");
}

#[test]
fn row_limits_apply_on_columnar_path() {
    let mut c = Catalog::with_limits(pi2_engine::ExecLimits::rows(3));
    let mut t = Table::builder("t").column("x", DataType::Int).build();
    for i in 0..10 {
        t.push_row(vec![Value::Int(i)]).unwrap();
    }
    c.register(t);
    let q = parse_query("SELECT x FROM t").unwrap();
    let fast = c.execute_uncached(&q).unwrap_err();
    let reference = c.execute_reference(&q).unwrap_err();
    assert_eq!(fast.to_string(), reference.to_string());
}

/// 1000 rows of `x` 0..1000 with a NULL-bearing string and float column;
/// `x < 600` selects 600 of them, spanning three 256-row chunks.
fn limits_catalog(limits: pi2_engine::ExecLimits) -> Catalog {
    let mut c = Catalog::with_limits(limits);
    let mut t = Table::builder("t")
        .column("x", DataType::Int)
        .column("s", DataType::Str)
        .column("f", DataType::Float)
        .build();
    for i in 0..1000i64 {
        t.push_row(vec![
            Value::Int(i),
            if i % 3 == 0 { Value::Null } else { Value::str(format!("s{}", i % 10)) },
            if i % 5 == 0 { Value::Null } else { Value::Float(i as f64 / 4.0) },
        ])
        .unwrap();
    }
    c.register(t);
    c
}

/// The outcome of `sql`: its row count, or its error text.
fn outcome(c: &Catalog, sql: &str) -> Result<usize, String> {
    let q = parse_query(sql).unwrap();
    c.execute_uncached(&q).map(|r| r.len()).map_err(|e| e.to_string())
}

/// The gathered bare-column projection fails on the same row and with the
/// same error as the row loop: pinned outcomes at `max_rows` = selected - 2
/// .. selected + 1 and a zero timeout, for gathered queries and for queries
/// that keep the row loop (a computed item, an ORDER BY key outside the
/// projection).
#[test]
fn bare_column_projection_keeps_row_and_time_limits() {
    let selected = 600;
    let row_cap = |m: usize| {
        format!("resource exhausted: row limit exceeded: materialized {} rows (limit {m})", m + 1)
    };
    for sql in [
        "SELECT x, s, f FROM t WHERE x < 600",
        "SELECT x, s, f FROM t WHERE x < 600 ORDER BY f DESC",
        "SELECT s, f FROM t WHERE x < 600 ORDER BY x DESC",
        "SELECT x + 1, s FROM t WHERE x < 600",
    ] {
        // The NULL-bearing columns project as the reference does.
        assert_parity(&limits_catalog(pi2_engine::ExecLimits::default()), sql);
        let want = [
            (selected - 2, Err(row_cap(selected - 2))),
            (selected - 1, Ok(selected)),
            (selected, Ok(selected)),
            (selected + 1, Ok(selected)),
        ];
        for (max_rows, want) in want {
            let c = limits_catalog(pi2_engine::ExecLimits::rows(max_rows));
            assert_eq!(outcome(&c, sql), want, "{sql} with max_rows {max_rows}");
        }
        let zero =
            pi2_engine::ExecLimits { max_rows: None, timeout: Some(std::time::Duration::ZERO) };
        let want = Err("resource exhausted: query timeout: exceeded 0ns".to_string());
        assert_eq!(outcome(&limits_catalog(zero), sql), want, "{sql} with a zero timeout");
    }
}

/// `t(x INT, f FLOAT)`: (1, 1.0), (2, 2.5), (3, NULL).
fn int_float_catalog() -> Catalog {
    let mut c = Catalog::new();
    let mut t = Table::builder("t").column("x", DataType::Int).column("f", DataType::Float).build();
    for (x, f) in [(1, Some(1.0)), (2, Some(2.5)), (3, None)] {
        t.push_row(vec![Value::Int(x), f.map_or(Value::Null, Value::Float)]).unwrap();
    }
    c.register(t);
    c
}

/// An expression whose cells mix `INT` and `FLOAT` yields a
/// [`ColumnData::Values`] column that keeps `Int(1)` apart from
/// `Float(1.0)`; any selection of it whose cells share one variant is
/// typed again.
#[test]
fn mixed_variant_column_keeps_int_apart_from_float() {
    let c = int_float_catalog();
    let run = |sql: &str| {
        assert_parity(&c, sql);
        c.execute_uncached(&parse_query(sql).unwrap()).unwrap()
    };
    let mixed = run("SELECT CASE WHEN x = 1 THEN x ELSE f END AS v FROM t");
    let column = &mixed.columns()[0];
    assert!(matches!(column.data(), ColumnData::Values(_)), "{column:?}");
    assert!(matches!(column.value(0), Value::Int(1)));
    assert!(matches!(column.value(1), Value::Float(v) if v == 2.5));
    assert!(column.is_null(2));
    let swapped = run("SELECT CASE WHEN x = 1 THEN f ELSE x END AS v FROM t");
    assert!(matches!(swapped.columns()[0].value(0), Value::Float(v) if v == 1.0));
    // Equal as SQL values, distinct as cells.
    assert_eq!(column.value(0), swapped.columns()[0].value(0));
    assert!(!column.same_cell(0, &swapped.columns()[0], 0));
    assert!(!column.identical(&swapped.columns()[0]));

    // One variant left after LIMIT, ORDER BY or a filter: typed.
    for sql in [
        "SELECT CASE WHEN x = 1 THEN x ELSE f END AS v FROM t LIMIT 1",
        "SELECT CASE WHEN x = 1 THEN x ELSE f END AS v FROM t ORDER BY x DESC LIMIT 2",
        "SELECT CASE WHEN x = 1 THEN x ELSE f END AS v FROM t WHERE x > 1",
    ] {
        let r = run(sql);
        assert!(!matches!(r.columns()[0].data(), ColumnData::Values(_)), "{sql}: {r:?}");
    }
}

/// A column whose cells share one variant is typed whichever path built
/// it: bare columns, expressions, aggregates, all-NULL columns.
#[test]
fn single_variant_columns_are_typed() {
    let c = mixed_catalog();
    for sql in [
        "SELECT id, city, temp, day, ok FROM obs",
        "SELECT id + 1 AS a, temp * 2 AS b, upper(city) AS c, day + 1 AS d FROM obs",
        "SELECT city, count(*) AS n, avg(temp) AS t, max(day) AS d FROM obs GROUP BY city",
        "SELECT NULL AS z, CASE WHEN id > 100 THEN temp END AS w FROM obs",
        "SELECT DISTINCT city FROM obs ORDER BY city LIMIT 3",
    ] {
        assert_parity(&c, sql);
        let r = c.execute_uncached(&parse_query(sql).unwrap()).unwrap();
        for (field, column) in r.schema.fields.iter().zip(r.columns()) {
            assert!(
                !matches!(column.data(), ColumnData::Values(_)),
                "{sql}: column {} is untyped: {column:?}",
                field.name
            );
        }
    }
}

/// A gathered string column shares the table's dictionary instead of
/// copying a `String` per cell.
#[test]
fn gathered_strings_share_the_table_dictionary() {
    let c = mixed_catalog();
    let r = c.execute_uncached(&parse_query("SELECT city FROM obs WHERE id > 1").unwrap()).unwrap();
    let table = c.get("obs").unwrap();
    let (ColumnData::Str(gathered), ColumnData::Str(stored)) =
        (r.columns()[0].data(), table.columns[1].data())
    else {
        panic!("expected dictionary columns")
    };
    assert!(std::sync::Arc::ptr_eq(&gathered.dict, &stored.dict));
}
