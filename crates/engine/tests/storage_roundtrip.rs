//! The oracle and the columnar fast path decode the same sealed storage,
//! so these tests pin the decode itself: random tables pushed through
//! `Table::push_row` come back bit-for-bit from the registered table's row
//! cursor (with the same statistics a walk over the pushed values gives),
//! CSV export/import round-trips every value, and the reference
//! interpreter's streamed WHERE over a named table matches its WHERE over
//! the same rows materialized by a derived table: same rows, same first
//! error.

use pi2_engine::{Catalog, ColumnStats, DataType, Table, Value};
use pi2_sql::parse_query;
use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// Equal as stored: same type, floats compared by bit pattern (so NaN
/// payloads and the sign of zero count), everything else by value.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a.data_type() == b.data_type() && a == b,
    }
}

/// Equal as CSV text can carry it: like [`same`], except that every NaN
/// is written `NaN`, so its sign and payload are not kept.
fn same_text(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) if x.is_nan() => y.is_nan(),
        _ => same(a, b),
    }
}

fn same_rows(a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    rows_by(same, a, b)
}

fn rows_by(eq: fn(&Value, &Value) -> bool, a: &[Vec<Value>], b: &[Vec<Value>]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.len() == y.len() && x.iter().zip(y).all(|(u, v)| eq(u, v)))
}

const TYPES: [DataType; 6] =
    [DataType::Int, DataType::Float, DataType::Str, DataType::Bool, DataType::Date, DataType::Null];

const P53: i64 = 1 << 53;

/// Random tables: 1–5 columns of random types, half of them followed by a
/// NULL-declared column (so some tables have one column), 0–299 rows, about a fifth of the cells NULL. INTs include ±2^53 and its
/// neighbours, floats NaN, ±0.0 and ±inf (and INTs, widened on the way
/// in), strings few enough to repeat, including '' and the characters CSV
/// must quote.
#[derive(Clone, Copy)]
struct RandomTable;

fn pick<T: Clone>(rng: &mut TestRng, from: &[T]) -> T {
    from[rng.below(from.len() as u64) as usize].clone()
}

fn random_value(rng: &mut TestRng, ty: DataType) -> Value {
    if ty == DataType::Null || rng.chance(0.2) {
        return Value::Null;
    }
    match ty {
        DataType::Int => {
            let edge = [P53, -P53, P53 + 1, -P53 - 1, i64::MAX, i64::MIN, 0];
            if rng.chance(0.5) {
                Value::Int(pick(rng, &edge))
            } else {
                Value::Int(rng.below(10) as i64 - 5)
            }
        }
        DataType::Float => match rng.below(4) {
            0 => Value::Float(pick(
                rng,
                &[f64::NAN, -f64::NAN, 0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.5, -2.25],
            )),
            1 => Value::Int(rng.below(6) as i64 - 3),
            2 => Value::Float(f64::from_bits(rng.next_u64())),
            _ => Value::Float(any::<f64>().generate(rng)),
        },
        DataType::Str => {
            Value::str(pick(rng, &["", "a", "b", "a,b", "q\"q", "x\ny", "c\rr", "é", "NULL"]))
        }
        DataType::Bool => Value::Bool(rng.chance(0.5)),
        DataType::Date => Value::Date(pi2_sql::Date(rng.below(80_000) as i32 - 40_000)),
        DataType::Null => Value::Null,
    }
}

impl Strategy for RandomTable {
    type Value = (Vec<DataType>, Vec<Vec<Value>>);

    fn generate(&self, rng: &mut TestRng) -> Self::Value {
        let mut types: Vec<DataType> = (0..1 + rng.below(5)).map(|_| pick(rng, &TYPES)).collect();
        if rng.chance(0.5) {
            types.push(DataType::Null);
        }
        let rows = (0..rng.below(300))
            .map(|_| types.iter().map(|ty| random_value(rng, *ty)).collect())
            .collect();
        (types, rows)
    }
}

fn build(types: &[DataType], rows: &[Vec<Value>]) -> Table {
    let mut b = Table::builder("r");
    for (i, ty) in types.iter().enumerate() {
        b = b.column(format!("c{i}"), *ty);
    }
    let mut t = b.build();
    for row in rows {
        t.push_row(row.clone()).expect("generated rows match the schema");
    }
    t
}

/// The pushed rows as the table stores them: INT widened in FLOAT columns.
fn stored(types: &[DataType], rows: &[Vec<Value>]) -> Vec<Vec<Value>> {
    rows.iter()
        .map(|row| {
            row.iter()
                .zip(types)
                .map(|(v, ty)| match (v, ty) {
                    (Value::Int(x), DataType::Float) => Value::Float(*x as f64),
                    _ => v.clone(),
                })
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn cursor_yields_exactly_the_pushed_rows(table in RandomTable) {
        let (types, rows) = table;
        let mut catalog = Catalog::new();
        catalog.register(build(&types, &rows));
        let table = catalog.get("r").expect("registered");
        let expected = stored(&types, &rows);
        let decoded: Vec<Vec<Value>> = table.rows().collect();
        prop_assert!(same_rows(&decoded, &expected), "decoded {:?}\nexpected {:?}", decoded, expected);
        for (i, row) in expected.iter().enumerate() {
            prop_assert!(same_rows(&[table.row(i)], std::slice::from_ref(row)), "row {}", i);
        }
        // Typed statistics agree with a walk over the pushed values.
        for (i, f) in table.schema.fields.iter().enumerate() {
            let walked = ColumnStats::compute(f, expected.iter().map(|r| &r[i]));
            prop_assert_eq!(catalog.column_stats("r", &f.name), Some(walked), "column {}", i);
        }
    }

    #[test]
    fn csv_roundtrips_random_tables(table in RandomTable) {
        let (types, rows) = table;
        let table = build(&types, &rows).seal();
        let back = Table::from_csv_with_types("r", &table.to_csv(), &types).expect("re-import");
        let back = back.seal();
        let (a, b): (Vec<_>, Vec<_>) = (table.rows().collect(), back.rows().collect());
        prop_assert!(rows_by(same_text, &a, &b), "wrote {:?}\nread {:?}", a, b);
    }
}

/// The values that used to break the CSV round trip: the empty string
/// (read back as NULL) and a carriage return (dropped when unquoted).
fn awkward() -> Table {
    let mut t = Table::builder("awkward")
        .column("s", DataType::Str)
        .column("f", DataType::Float)
        .column("n", DataType::Int)
        .build();
    for (s, f) in [
        (Value::str(""), Value::Float(f64::NAN)),
        (Value::Null, Value::Float(-0.0)),
        (Value::str("a\rb"), Value::Float(0.0)),
        (Value::str("two\nlines"), Value::Null),
        (Value::str("x,y"), Value::Float(1.0)),
        (Value::str("say \"hi\""), Value::Float(-2.5)),
        (Value::str("plain"), Value::Float(f64::INFINITY)),
        (Value::str("naïve café"), Value::Float(0.1)),
    ] {
        t.push_row(vec![s, f, Value::Int(P53 + 1)]).unwrap();
    }
    t
}

#[test]
fn csv_roundtrip_keeps_empty_strings_nulls_and_control_characters() {
    let table = awkward().seal();
    let csv = table.to_csv();
    let original: Vec<Vec<Value>> = table.rows().collect();
    let types = [DataType::Str, DataType::Float, DataType::Int];
    for back in
        [Table::from_csv("awkward", &csv), Table::from_csv_with_types("awkward", &csv, &types)]
    {
        let back = back.expect("re-import").seal();
        let fields: Vec<DataType> = back.schema.fields.iter().map(|f| f.data_type).collect();
        assert_eq!(fields, types);
        let read: Vec<Vec<Value>> = back.rows().collect();
        assert!(same_rows(&original, &read), "csv {csv:?}\nwrote {original:?}\nread {read:?}");
        assert!(matches!(read[0][1], Value::Float(x) if x.is_nan()));
    }
    assert_eq!(table.row(0)[0], Value::str(""));
    assert_eq!(table.row(1)[0], Value::Null);
}

#[test]
fn only_an_unquoted_empty_cell_is_null() {
    let t = Table::from_csv("t", "s,n\n\"\",1\n,2\n").unwrap().seal();
    assert_eq!(t.schema.fields[0].data_type, DataType::Str);
    assert_eq!(
        t.rows().collect::<Vec<_>>(),
        vec![vec![Value::str(""), Value::Int(1)], vec![Value::Null, Value::Int(2)],]
    );
}

#[test]
fn csv_loader_cursor_yields_the_parsed_rows() {
    let csv = "d,s,i,f,b\n2021-12-01,NY,7,0.5,true\n2021-12-02,\"a,b\",,-0.0,false\n,,-3,,\n";
    let mut catalog = Catalog::new();
    catalog.register(Table::from_csv("loaded", csv).unwrap());
    let rows: Vec<Vec<Value>> = catalog.get("loaded").unwrap().rows().collect();
    let expected = vec![
        vec![
            Value::date("2021-12-01"),
            Value::str("NY"),
            Value::Int(7),
            Value::Float(0.5),
            Value::Bool(true),
        ],
        vec![
            Value::date("2021-12-02"),
            Value::str("a,b"),
            Value::Null,
            Value::Float(-0.0),
            Value::Bool(false),
        ],
        vec![Value::Null, Value::Null, Value::Int(-3), Value::Null, Value::Null],
    ];
    assert!(same_rows(&rows, &expected), "{rows:?}");
}

// ---- streamed WHERE --------------------------------------------------------

/// t(x INT, s TEXT) with x = 0..1000, and u(k INT, w INT) keyed on x.
fn where_catalog() -> Catalog {
    let mut t = Table::builder("t").column("x", DataType::Int).column("s", DataType::Str).build();
    for x in 0..1000 {
        t.push_row(vec![Value::Int(x), Value::Str(format!("r{}", x % 7))]).unwrap();
    }
    let mut u = Table::builder("u").column("k", DataType::Int).column("w", DataType::Int).build();
    for k in (0..1000).step_by(97) {
        u.push_row(vec![Value::Int(k), Value::Int(k % 5)]).unwrap();
    }
    let mut c = Catalog::new();
    c.register(t);
    c.register(u);
    c
}

/// The reference result of `sql`, with its rows or error text.
fn reference(c: &Catalog, sql: &str) -> Result<Vec<Vec<Value>>, String> {
    let q = parse_query(sql).unwrap_or_else(|e| panic!("parse {sql}: {e}"));
    c.execute_reference(&q).map(|r| r.rows().collect::<Vec<_>>()).map_err(|e| e.to_string())
}

/// `FROM t` streams the cursor into WHERE; `FROM (SELECT * FROM t) AS t`
/// feeds WHERE the same rows materialized. Both must agree.
fn assert_streamed_matches_materialized(
    c: &Catalog,
    tail: &str,
) -> Result<Vec<Vec<Value>>, String> {
    let streamed = reference(c, &format!("SELECT * FROM t {tail}"));
    let materialized = reference(c, &format!("SELECT * FROM (SELECT * FROM t) AS t {tail}"));
    assert_eq!(streamed, materialized, "{tail}");
    streamed
}

#[test]
fn streamed_where_keeps_the_passing_rows_in_order() {
    let c = where_catalog();
    let rows = assert_streamed_matches_materialized(&c, "WHERE x % 250 = 3 AND s <> 'r0'").unwrap();
    let xs: Vec<Value> = rows.iter().map(|r| r[0].clone()).collect();
    assert_eq!(xs, vec![Value::Int(3), Value::Int(253), Value::Int(503), Value::Int(753)]);
    let all = assert_streamed_matches_materialized(&c, "").unwrap();
    assert_eq!(all.len(), 1000);
}

#[test]
fn streamed_where_raises_the_first_error_on_a_late_row() {
    let c = where_catalog();
    // Row 997 fails with TEXT + INT before row 998 could fail with
    // BOOL - TEXT; rows before it pass or are filtered out silently.
    let tail = "WHERE CASE WHEN x = 997 THEN s + 1 > 0 \
                WHEN x = 998 THEN true - s > 0 ELSE x < 10 END";
    let err = assert_streamed_matches_materialized(&c, tail).unwrap_err();
    assert!(err.contains("TEXT + INT"), "{err}");
    // Past the failing rows the same predicate shape succeeds.
    let ok = "WHERE CASE WHEN x = 2000 THEN s + 1 > 0 ELSE x < 10 END";
    assert_eq!(assert_streamed_matches_materialized(&c, ok).unwrap().len(), 10);
}

#[test]
fn correlated_exists_scans_the_inner_table_through_the_cursor() {
    let c = where_catalog();
    let sql = |inner: &str| {
        format!(
            "SELECT x FROM t WHERE x < 500 AND EXISTS \
             (SELECT 1 FROM {inner} WHERE u.k = t.x AND u.w > 1) ORDER BY x"
        )
    };
    let streamed = reference(&c, &sql("u")).unwrap();
    let materialized = reference(&c, &sql("(SELECT * FROM u) AS u")).unwrap();
    assert_eq!(streamed, materialized);
    // u holds k = 0, 97, 194, ...; w = k % 5 > 1 keeps 97, 194, 388.
    let expected: Vec<Vec<Value>> = [97, 194, 388].iter().map(|k| vec![Value::Int(*k)]).collect();
    assert_eq!(streamed, expected);
    // The fast path answers the same query identically.
    let q = parse_query(&sql("u")).unwrap();
    assert_eq!(c.execute_uncached(&q).unwrap().rows().collect::<Vec<_>>(), expected);
}
