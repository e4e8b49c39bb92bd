//! Result-cache behaviour: correctness of sharing, invalidation, the LRU
//! bound and the exact (not normalized) key.

use pi2_engine::{Catalog, DataType, ResultSet, Table, Value};
use pi2_sql::{parse_query, Query};
use std::sync::Arc;

fn table_with(values: &[i64]) -> Table {
    let mut t = Table::builder("t").column("v", DataType::Int).build();
    for &v in values {
        t.push_row(vec![Value::Int(v)]).unwrap();
    }
    t
}

#[test]
fn register_invalidates_cached_results() {
    let mut c = Catalog::new();
    c.register(table_with(&[1, 2, 3]));
    let q = pi2_sql::parse_query("SELECT sum(v) FROM t").unwrap();
    assert_eq!(c.execute(&q).unwrap().rows[0][0], Value::Int(6));
    // Replace the table; the cached result must not survive.
    c.register(table_with(&[10, 20]));
    assert_eq!(c.execute(&q).unwrap().rows[0][0], Value::Int(30));
}

#[test]
fn clones_share_the_cache_until_either_registers() {
    let mut a = Catalog::new();
    a.register(table_with(&[5]));
    let b = a.clone();
    let q = pi2_sql::parse_query("SELECT sum(v) FROM t").unwrap();
    // Warm via the clone; both observe the same data, and the hit is the
    // clone's cached result itself, not a copy.
    let warm = b.execute(&q).unwrap();
    assert_eq!(warm.rows[0][0], Value::Int(5));
    assert!(Arc::ptr_eq(&warm, &a.execute(&q).unwrap()));
    // Registering on `a` moves it to a fresh version, but `b` still sees
    // its own (old) tables: results must reflect each catalog's table map.
    a.register(table_with(&[7]));
    assert_eq!(a.execute(&q).unwrap().rows[0][0], Value::Int(7));
    // NOTE: b's table map still holds the old Arc'd table.
    assert_eq!(b.execute(&q).unwrap().rows[0][0], Value::Int(5));
}

#[test]
fn structurally_equal_queries_share_cache_entries() {
    let mut c = Catalog::new();
    c.register(table_with(&[1, 2]));
    // Different text, same AST after parse (keyword case).
    let q1 = pi2_sql::parse_query("select v from t where v > 1").unwrap();
    let q2 = pi2_sql::parse_query("SELECT v FROM t WHERE v > 1").unwrap();
    assert_eq!(q1.structural_hash(), q2.structural_hash());
    assert_eq!(c.execute(&q1).unwrap(), c.execute(&q2).unwrap());
}

#[test]
fn the_cache_holds_256_results_and_evicts_the_least_recently_used() {
    let mut c = Catalog::new();
    c.register(table_with(&[1, 2]));
    let query = |i: usize| parse_query(&format!("SELECT v + {i} FROM t")).unwrap();
    let run = |i: usize| c.execute(&query(i)).unwrap();
    let first: Vec<Arc<ResultSet>> = (0..256).map(run).collect();
    // All 256 fit: each lookup returns the cached result itself. Touching
    // them in order leaves 0 the least recently used; touch it again.
    for (i, r) in first.iter().enumerate() {
        assert!(Arc::ptr_eq(r, &run(i)), "result {i} was evicted below the bound");
    }
    run(0);
    // A 257th result evicts exactly the least recently used one (1).
    run(256);
    assert!(Arc::ptr_eq(&first[0], &run(0)));
    let again = run(1);
    assert!(!Arc::ptr_eq(&first[1], &again), "result 1 should have been evicted");
    assert_eq!(first[1], again);
    // Re-inserting 1 evicted 2; every other result is still cached.
    for (i, r) in first.iter().enumerate().skip(3) {
        assert!(Arc::ptr_eq(r, &run(i)), "result {i} was evicted");
    }
}

#[test]
fn queries_that_normalize_equal_keep_their_own_column_names() {
    let mut c = Catalog::new();
    c.register(table_with(&[1, 2]));
    let queries: Vec<Query> =
        ["SELECT 1 = v FROM t", "SELECT v = 1 FROM t"].map(|sql| parse_query(sql).unwrap()).into();
    let normalized = |q: &Query| pi2_sql::normalize::normalized(q).structural_hash();
    assert_eq!(normalized(&queries[0]), normalized(&queries[1]), "the case needs equal forms");
    for _ in 0..2 {
        for q in &queries {
            let cached = c.execute(q).unwrap();
            assert_eq!(cached.schema, c.execute_uncached(q).unwrap().schema, "{q}");
        }
    }
    let names: Vec<String> =
        queries.iter().map(|q| c.execute(q).unwrap().schema.fields[0].name.clone()).collect();
    assert_ne!(names[0], names[1]);
}
