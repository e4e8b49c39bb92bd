//! Property tests for the block-structured storage layer: dictionary
//! encode/decode round-trips, zone-map pruning parity against the
//! reference executor on random predicates (single conjuncts, and
//! conjunctions whose blocks the executor decides across every conjunct
//! before scanning), error and row-limit parity, and delta-recompute vs.
//! full-execute equivalence over random pan/zoom sequences, including INT
//! bounds at 2^53, where f64 comparison stops being exact.
//!
//! A last property pins the typed result columns: on random NULL-bearing
//! INT/FLOAT/TEXT/DATE tables the fast path returns the reference's cells
//! exactly, and every result column of either path is in canonical form.
//!
//! These run in debug builds, so every pruned block and every delta mask
//! is additionally re-verified row-by-row by the executor's internal
//! `debug_assert`s while the properties check end-to-end results.

use pi2_engine::columnar::{ColumnData, BLOCK_ROWS};
use pi2_engine::{Catalog, DataType, DeltaCache, ExecLimits, ResultSet, Table, Value};
use pi2_sql::parse_query;
use proptest::prelude::*;

fn str_table(vals: &[Option<String>]) -> Table {
    let mut t = Table::builder("t").column("s", DataType::Str).build();
    for v in vals {
        t.push_row(vec![v.as_ref().map(Value::str).unwrap_or(Value::Null)]).expect("valid row");
    }
    t
}

/// A table whose columns are value-clustered (ascending ints, ascending
/// floats, plateaued strings) so zone maps actually prune, with optional
/// periodic NULLs to exercise null-count handling, plus `m`, an int
/// scattered over 0..1000 in every block, whose zones never prune. With
/// `null_heavy`, the second block is NULL in `x` and `f` throughout and
/// the third block is NULL in every other row of both.
fn clustered_catalog(n: usize, null_every: usize, null_heavy: bool) -> Catalog {
    let mut t = Table::builder("t")
        .column("x", DataType::Int)
        .column("f", DataType::Float)
        .column("s", DataType::Str)
        .column("m", DataType::Int)
        .build();
    for i in 0..n {
        let heavy = null_heavy && (i / BLOCK_ROWS == 1 || (i / BLOCK_ROWS == 2 && i % 2 == 0));
        let null = heavy || (null_every > 0 && i % (null_every + 2) == 0);
        let x = if null { Value::Null } else { Value::Int(i as i64) };
        let f = if heavy { Value::Null } else { Value::Float(i as f64 * 0.5 - n as f64 / 4.0) };
        let s = match (i * 4) / n.max(1) {
            0 => "alpha",
            1 => "beta",
            2 => "gamma",
            _ => "delta",
        };
        let m = Value::Int((i as i64 * 7919) % 1000);
        t.push_row(vec![x, f, Value::str(s), m]).expect("valid row");
    }
    let mut c = Catalog::new();
    c.register(t);
    c
}

/// 2^53: above it, neighbouring INTs collapse onto one f64.
const P53: i64 = 1 << 53;

/// `n` ascending INTs in `x` that straddle 2^53, a block and a half of
/// them below it.
fn int_catalog_at_2_pow_53(n: usize) -> Catalog {
    let mut t = Table::builder("t").column("x", DataType::Int).build();
    let base = P53 - (BLOCK_ROWS + BLOCK_ROWS / 2) as i64;
    for i in 0..n {
        t.push_row(vec![Value::Int(base + i as i64)]).expect("valid row");
    }
    let mut c = Catalog::new();
    c.register(t);
    c
}

/// The columnar fast path (zone pruning enabled) must be byte-identical to
/// the reference executor: same schema, same rows in order, same errors.
fn assert_parity(c: &Catalog, sql: &str) -> std::result::Result<(), TestCaseError> {
    let q = parse_query(sql).unwrap_or_else(|e| panic!("parse {sql}: {e}"));
    match (c.execute_uncached(&q), c.execute_reference(&q)) {
        (Ok(f), Ok(r)) => {
            prop_assert_eq!(&f.schema.fields, &r.schema.fields, "schema mismatch for {}", sql);
            prop_assert_eq!(
                &f.rows().collect::<Vec<_>>(),
                &r.rows().collect::<Vec<_>>(),
                "row mismatch for {}",
                sql
            );
        }
        (Err(f), Err(r)) => {
            prop_assert_eq!(f.to_string(), r.to_string(), "error mismatch for {}", sql);
        }
        (f, r) => {
            prop_assert!(false, "status mismatch for {}: fast={:?} reference={:?}", sql, f, r)
        }
    }
    Ok(())
}

/// Delta execution (seeded or incremental, against `cache`) must be
/// byte-identical to the reference executor.
fn assert_delta_parity(
    c: &Catalog,
    cache: &mut DeltaCache,
    sql: &str,
) -> std::result::Result<(), TestCaseError> {
    let q = parse_query(sql).unwrap_or_else(|e| panic!("parse {sql}: {e}"));
    let Some((res, _)) = c.execute_delta(&q, cache) else {
        return Err(TestCaseError::fail(format!("delta should apply to {sql}")));
    };
    match (res, c.execute_reference(&q)) {
        (Ok(d), Ok(r)) => {
            prop_assert_eq!(&d.schema.fields, &r.schema.fields, "schema for {}", sql);
            prop_assert_eq!(
                &d.rows().collect::<Vec<_>>(),
                &r.rows().collect::<Vec<_>>(),
                "rows for {}",
                sql
            );
        }
        (Err(d), Err(r)) => {
            prop_assert_eq!(d.to_string(), r.to_string(), "error for {}", sql);
        }
        (d, r) => {
            prop_assert!(false, "status mismatch for {}: delta={:?} reference={:?}", sql, d, r)
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn dictionary_encode_decode_roundtrip(
        vals in proptest::collection::vec(proptest::option::of("[a-d]{0,3}"), 0..200),
    ) {
        let t = str_table(&vals);
        let c = t.seal();
        let ColumnData::Str(d) = c.columns[0].data() else {
            return Err(TestCaseError::fail("expected dictionary column"));
        };
        // Decode: every row materializes back to its original value.
        for (i, v) in vals.iter().enumerate() {
            let expected = v.as_ref().map(Value::str).unwrap_or(Value::Null);
            prop_assert_eq!(c.columns[0].value(i), expected, "row {}", i);
        }
        // The dictionary is strictly sorted and deduplicated, and every
        // non-null row's code points into it.
        prop_assert!(d.dict.windows(2).all(|w| w[0] < w[1]), "dict not sorted: {:?}", d.dict);
        for (i, v) in vals.iter().enumerate() {
            if v.is_some() {
                prop_assert!((d.codes[i] as usize) < d.dict.len());
                prop_assert_eq!(&d.dict[d.codes[i] as usize], v.as_ref().unwrap());
            }
        }
    }
}

proptest! {
    // Each case builds a multi-block table; keep the count moderate.
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pruned_scans_match_unpruned_reference(
        n in 1usize..(3 * BLOCK_ROWS),
        null_every in 0usize..4,
        null_heavy in any::<bool>(),
        op in prop_oneof![Just("="), Just("<"), Just("<="), Just(">"), Just(">="), Just("!=")],
        k in -100i64..15_000,
        sk in prop_oneof![Just("alpha"), Just("beta"), Just("zeta"), Just("")],
    ) {
        let c = clustered_catalog(n, null_every, null_heavy);
        assert_parity(&c, &format!("SELECT count(*) AS n FROM t WHERE x {op} {k}"))?;
        assert_parity(&c, &format!("SELECT x, f FROM t WHERE f {op} {k}.25"))?;
        assert_parity(&c, &format!("SELECT x FROM t WHERE s {op} '{sk}'"))?;
        assert_parity(
            &c,
            &format!("SELECT sum(x) AS sx FROM t WHERE x BETWEEN {k} AND {}", k + 500),
        )?;
        assert_parity(
            &c,
            &format!("SELECT count(*) AS n FROM t WHERE x {op} {k} AND s = 'beta' AND f >= 0.0"),
        )?;
    }

    #[test]
    fn delta_recompute_matches_full_execute(
        n in 1usize..(3 * BLOCK_ROWS),
        null_every in 0usize..4,
        null_heavy in any::<bool>(),
        windows in proptest::collection::vec((0i64..13_000, 0i64..2_000), 1..10),
    ) {
        let c = clustered_catalog(n, null_every, null_heavy);
        let mut cache = DeltaCache::new();
        for (lo, width) in windows {
            let hi = lo + width;
            let sqls = [
                format!("SELECT count(*) AS n, sum(x) AS sx FROM t WHERE x BETWEEN {lo} AND {hi}"),
                format!(
                    "SELECT x FROM t WHERE f BETWEEN {lo}.5 AND {hi}.5 AND s = 'beta' \
                     ORDER BY x LIMIT 37"
                ),
            ];
            for sql in sqls {
                assert_delta_parity(&c, &mut cache, &sql)?;
            }
        }
    }

    #[test]
    fn conjunctions_match_reference_with_the_loose_conjunct_first_or_last(
        n in 1usize..(3 * BLOCK_ROWS),
        null_every in 0usize..4,
        null_heavy in any::<bool>(),
        lo in -100i64..13_000,
        width in 0i64..3_000,
        mlo in 0i64..1_000,
    ) {
        let c = clustered_catalog(n, null_every, null_heavy);
        let tight = format!("x BETWEEN {lo} AND {}", lo + width);
        let loose = format!("m BETWEEN {mlo} AND {}", mlo + 300);
        for (first, last) in [(&loose, &tight), (&tight, &loose)] {
            assert_parity(&c, &format!("SELECT x, m FROM t WHERE {first} AND {last}"))?;
            assert_parity(
                &c,
                &format!("SELECT count(*) AS n FROM t WHERE {first} AND s != 'gamma' AND {last}"),
            )?;
            assert_parity(
                &c,
                &format!(
                    "SELECT x, f FROM t WHERE {first} AND f IS NOT NULL AND {last} \
                     ORDER BY f DESC, x LIMIT 50"
                ),
            )?;
            assert_parity(&c, &format!("SELECT x, m FROM t WHERE {first} AND f IS NULL"))?;
            assert_parity(
                &c,
                &format!("SELECT DISTINCT s FROM t WHERE {first} AND {last} AND {mlo} > m"),
            )?;
            assert_parity(&c, &format!("SELECT x FROM t WHERE {first} AND {last} AND f = NULL"))?;
            assert_parity(
                &c,
                &format!("SELECT x FROM t WHERE {first} AND f BETWEEN {lo}.5 AND 100 AND {last}"),
            )?;
        }
    }

    #[test]
    fn delta_pans_over_two_ranges_match_full_execute(
        n in 1usize..(3 * BLOCK_ROWS),
        null_every in 0usize..4,
        null_heavy in any::<bool>(),
        start in (0i64..12_000, -3_000i64..3_000),
        size in (0i64..3_000, 0i64..2_000),
        steps in proptest::collection::vec(
            (prop_oneof![Just(0i64), -1_500i64..1_500], prop_oneof![Just(0i64), -1_500i64..1_500]),
            1..10,
        ),
    ) {
        let c = clustered_catalog(n, null_every, null_heavy);
        let mut cache = DeltaCache::new();
        let (mut xlo, mut flo) = start;
        for (dx, dy) in steps {
            let (xhi, fhi) = (xlo + size.0, flo + size.1);
            assert_delta_parity(
                &c,
                &mut cache,
                &format!(
                    "SELECT x, f FROM t WHERE f BETWEEN {flo}.5 AND {fhi}.5 \
                     AND x BETWEEN {xlo} AND {xhi}"
                ),
            )?;
            xlo += dx;
            flo += dy;
        }
    }

    #[test]
    fn int_pans_across_2_pow_53_match_reference(
        n in 1usize..(3 * BLOCK_ROWS),
        windows in proptest::collection::vec(
            (-2 * BLOCK_ROWS as i64..100, prop_oneof![Just(0i64), -100i64..100]),
            1..10,
        ),
    ) {
        let c = int_catalog_at_2_pow_53(n);
        let mut cache = DeltaCache::new();
        for (a, b) in windows {
            let (lo, hi) = (P53 + a.min(b), P53 + a.max(b));
            let sql = format!(
                "SELECT count(*) AS n, min(x) AS lo, max(x) AS hi FROM t \
                 WHERE x BETWEEN {lo} AND {hi}"
            );
            if hi <= P53 {
                assert_delta_parity(&c, &mut cache, &sql)?;
            } else {
                // Beyond 2^53 the delta path's f64 bounds are inexact: it
                // must decline, leaving the exact fresh path.
                let q = parse_query(&sql).unwrap_or_else(|e| panic!("parse {sql}: {e}"));
                prop_assert!(c.execute_delta(&q, &mut cache).is_none(), "delta applied: {}", sql);
                assert_parity(&c, &sql)?;
            }
        }
    }

    #[test]
    fn failing_conjunct_before_a_pruned_one_errors_like_reference(
        n in 1usize..(3 * BLOCK_ROWS),
        null_every in 0usize..4,
        null_heavy in any::<bool>(),
        k in -100i64..13_000,
    ) {
        let c = clustered_catalog(n, null_every, null_heavy);
        // `x < -1000` is AllFail in every block's zone map; the reference
        // still evaluates the failing conjunct first and raises its error.
        let failing = ["s + 1 > 0", "m > 'abc'", "m BETWEEN 'a' AND 'z'", "NOT m"];
        for f in failing {
            let sql = format!("SELECT x FROM t WHERE {f} AND x < -1000");
            let q = parse_query(&sql).unwrap_or_else(|e| panic!("parse {sql}: {e}"));
            prop_assert!(c.execute_reference(&q).is_err(), "reference should fail: {}", sql);
            assert_parity(&c, &sql)?;
            assert_parity(
                &c,
                &format!("SELECT x FROM t WHERE {f} AND x BETWEEN {k} AND {} AND m < 5", k + 100),
            )?;
        }
    }

    #[test]
    fn row_limit_errors_match_reference(
        n in 1usize..(3 * BLOCK_ROWS),
        null_every in 0usize..4,
        null_heavy in any::<bool>(),
        max_rows in 0usize..300,
        lo in -100i64..13_000,
        width in 0i64..3_000,
    ) {
        let mut c = clustered_catalog(n, null_every, null_heavy);
        c.set_limits(ExecLimits::rows(max_rows));
        let w = format!("m BETWEEN 0 AND 700 AND x BETWEEN {lo} AND {}", lo + width);
        assert_parity(&c, &format!("SELECT x, m FROM t WHERE {w}"))?;
        assert_parity(&c, &format!("SELECT x, s FROM t WHERE {w} ORDER BY m DESC, x"))?;
        assert_parity(&c, &format!("SELECT DISTINCT s, m FROM t WHERE {w}"))?;
        assert_parity(&c, &format!("SELECT x FROM t WHERE {w} ORDER BY 1 DESC LIMIT 5 OFFSET 3"))?;
        assert_parity(
            &c,
            &format!("SELECT m, count(*) AS n FROM t WHERE {w} GROUP BY m ORDER BY n DESC, m"),
        )?;
    }
}

/// One row of [`nullable_catalog`]: INT, FLOAT, TEXT (an index into four
/// strings) and DATE cells, each possibly NULL.
type NullableRow = (Option<i64>, Option<f64>, Option<usize>, Option<i32>);

fn nullable_row() -> impl Strategy<Value = NullableRow> {
    (
        proptest::option::of(-6i64..6),
        // Halves, so a FLOAT cell often equals an INT one as a SQL value.
        proptest::option::of((-12i64..12).prop_map(|k| k as f64 / 2.0)),
        proptest::option::of(0usize..4),
        proptest::option::of(18_000i32..18_010),
    )
}

/// Table `t`: the rows' `x INT, f FLOAT, s TEXT, d DATE`, plus `n INT`,
/// NULL in every row.
fn nullable_catalog(rows: &[NullableRow]) -> Catalog {
    let mut t = Table::builder("t")
        .column("x", DataType::Int)
        .column("f", DataType::Float)
        .column("s", DataType::Str)
        .column("d", DataType::Date)
        .column("n", DataType::Int)
        .build();
    for &(x, f, s, d) in rows {
        t.push_row(vec![
            x.map_or(Value::Null, Value::Int),
            f.map_or(Value::Null, Value::Float),
            s.map_or(Value::Null, |s| Value::str(["pear", "apple", "fig", ""][s])),
            d.map_or(Value::Null, |d| Value::Date(pi2_sql::Date(d))),
            Value::Null,
        ])
        .expect("valid row");
    }
    let mut c = Catalog::new();
    c.register(t);
    c
}

/// Every column of `r` is in canonical form: a column holds one `Value`
/// per cell only when its non-null cells mix variants, and a typed column
/// decodes to cells of its own variant.
fn assert_canonical(r: &ResultSet, sql: &str) -> std::result::Result<(), TestCaseError> {
    for (field, column) in r.schema.fields.iter().zip(r.columns()) {
        let variants: std::collections::HashSet<DataType> =
            column.iter().filter(|v| !v.is_null()).map(|v| v.data_type()).collect();
        let mixed = matches!(column.data(), ColumnData::Values(_));
        prop_assert_eq!(mixed, variants.len() > 1, "{} column {}: {:?}", sql, field.name, variants);
    }
    Ok(())
}

/// The fast path's typed result holds exactly the reference's cells —
/// variant and bits, not just SQL equality — and both are canonical.
fn assert_typed_parity(c: &Catalog, sql: &str) -> std::result::Result<(), TestCaseError> {
    let q = parse_query(sql).unwrap_or_else(|e| panic!("parse {sql}: {e}"));
    match (c.execute_uncached(&q), c.execute_reference(&q)) {
        (Ok(f), Ok(r)) => {
            prop_assert_eq!(&f, &r, "result mismatch for {}", sql);
            prop_assert_eq!(&f.schema.fields, &r.schema.fields, "schema mismatch for {}", sql);
            for (a, b) in f.columns().iter().zip(r.columns()) {
                prop_assert!(a.identical(b), "cells differ for {}: {:?} vs {:?}", sql, a, b);
            }
            assert_canonical(&f, sql)?;
            assert_canonical(&r, sql)?;
        }
        (Err(f), Err(r)) => {
            prop_assert_eq!(f.to_string(), r.to_string(), "error mismatch for {}", sql);
        }
        (f, r) => {
            prop_assert!(false, "status mismatch for {}: fast={:?} reference={:?}", sql, f, r)
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn typed_results_match_reference_and_stay_canonical(
        rows in proptest::collection::vec(nullable_row(), 0..120),
        lo in -7i64..7,
        width in 0i64..8,
        k in 0usize..10,
        o in 0usize..6,
    ) {
        let c = nullable_catalog(&rows);
        let hi = lo + width;
        for sql in [
            format!("SELECT x, f, s, d, n FROM t WHERE x BETWEEN {lo} AND {hi}"),
            format!("SELECT f, s FROM t WHERE f >= {lo}.5 OR s IS NULL"),
            "SELECT DISTINCT s, n FROM t".to_string(),
            "SELECT DISTINCT f, x FROM t".to_string(),
            format!("SELECT x, f, s, d, n FROM t ORDER BY f DESC, x, s LIMIT {k} OFFSET {o}"),
            format!("SELECT d, s FROM t ORDER BY d, s DESC OFFSET {o}"),
            format!("SELECT s, d FROM t LIMIT {k}"),
            "SELECT s, count(*) AS c, sum(x) AS sx, avg(f) AS af, min(d) AS md, \
             max(s) AS ms, min(n) AS mn FROM t GROUP BY s ORDER BY s"
                .to_string(),
            format!("SELECT count(*) AS c, sum(f) AS sf, max(x) AS mx FROM t WHERE f > {lo}"),
            format!("SELECT d, count(*) AS c FROM t WHERE x > {lo} GROUP BY d ORDER BY c DESC, d"),
            // Mixed variants: INT on some rows, FLOAT on others.
            format!("SELECT CASE WHEN x > {lo} THEN x ELSE f END AS v, s FROM t"),
            format!(
                "SELECT DISTINCT CASE WHEN x > {lo} THEN x ELSE f END AS v FROM t \
                 ORDER BY v LIMIT {k}"
            ),
            format!("SELECT x + f AS xf, n + 1 AS n1, coalesce(f, x) AS cf FROM t LIMIT {k}"),
        ] {
            assert_typed_parity(&c, &sql)?;
        }
    }
}
