//! Every dataset generator loads its catalog through one loader and exposes
//! the rows it emits. Replaying a generator into a plain row list must give
//! exactly what the registered table's row cursor decodes: same rows, same
//! order, floats equal bit for bit.

use pi2_datasets::{covid, sdss, sp500, toy, Emit};
use pi2_engine::{Catalog, DataType, Value};
use std::collections::BTreeMap;

/// Equal as stored: same type, floats compared by bit pattern.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a.data_type() == b.data_type() && a == b,
    }
}

/// Check that `catalog` holds exactly the rows `generate` emits, per table.
fn assert_cursor_replays(catalog: &Catalog, generate: impl FnOnce(Emit<'_>)) {
    let mut pushed: BTreeMap<String, Vec<Vec<Value>>> = BTreeMap::new();
    generate(&mut |name, row| pushed.entry(name.to_string()).or_default().push(row));
    let names: Vec<String> = pushed.keys().cloned().collect();
    assert_eq!(catalog.table_names(), names);
    for (name, rows) in pushed {
        let table = catalog.get(&name).expect("registered table");
        assert_eq!(table.len, rows.len(), "{name}: row count");
        let types: Vec<DataType> = table.schema.fields.iter().map(|f| f.data_type).collect();
        for (i, (row, decoded)) in rows.iter().zip(table.rows()).enumerate() {
            let expected = row.iter().zip(&types).map(|(v, ty)| match (v, ty) {
                // `push_row` widens INT into FLOAT columns.
                (Value::Int(x), DataType::Float) => Value::Float(*x as f64),
                _ => v.clone(),
            });
            assert!(
                expected.zip(&decoded).all(|(e, d)| same(&e, d)),
                "{name} row {i}: pushed {row:?}, decoded {decoded:?}"
            );
        }
    }
}

#[test]
fn toy_tables_decode_as_generated() {
    assert_cursor_replays(&toy::catalog(300, 9), |emit| toy::t_rows(300, 9, emit));
    assert_cursor_replays(&toy::join_catalog(120, 4), |emit| {
        toy::t_rows(120, 4, emit);
        toy::u_rows(4, emit);
    });
}

#[test]
fn covid_tables_decode_as_generated() {
    let config = covid::Config::default();
    assert_cursor_replays(&covid::catalog(&config), |emit| covid::rows(&config, emit));
}

#[test]
fn sdss_table_decodes_as_generated() {
    let config = sdss::Config { objects: 9_000, seed: 11 };
    assert_cursor_replays(&sdss::catalog(&config), |emit| sdss::rows(&config, emit));
}

#[test]
fn sp500_tables_decode_as_generated() {
    let config = sp500::Config::default();
    assert_cursor_replays(&sp500::catalog(&config), |emit| sp500::rows(&config, emit));
}
