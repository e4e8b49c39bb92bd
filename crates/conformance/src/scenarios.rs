//! Named fuzzing scenarios: a catalog plus the [`SchemaSpec`] the query
//! generator draws from.
//!
//! Specs are derived from the catalog's own [`ColumnStats`], so every
//! generated predicate literal is a value that actually occurs in the
//! data — generated logs are valid *and* selective by construction.

use pi2_engine::{Catalog, ColumnStats, DataType};
use pi2_sql::arbitrary::{ColumnSpec, JoinSpec, ScalarKind, SchemaSpec, TableSpec};
use pi2_sql::Literal;

/// A named fuzzing scenario.
pub struct Scenario {
    /// Stable name (used in corpus files).
    pub name: &'static str,
    /// The catalog queries execute against.
    pub catalog: Catalog,
    /// The generator's view of the schema.
    pub spec: SchemaSpec,
}

/// Columns with at most this many distinct values are marked groupable.
const GROUPABLE_CARDINALITY: usize = 16;

/// Cap on the literal pool per column.
const POOL_CAP: usize = 8;

fn scalar_kind(dt: DataType) -> Option<ScalarKind> {
    match dt {
        DataType::Bool => Some(ScalarKind::Bool),
        DataType::Int => Some(ScalarKind::Int),
        DataType::Float => Some(ScalarKind::Float),
        DataType::Str => Some(ScalarKind::Str),
        DataType::Date => Some(ScalarKind::Date),
        DataType::Null => None,
    }
}

/// An evenly spread sample of up to [`POOL_CAP`] literals from the
/// column's observed values (all distinct values when few, else min, max
/// and interior picks).
fn literal_pool(stats: &ColumnStats) -> Vec<Literal> {
    if let Some(values) = &stats.distinct_values {
        if values.len() <= POOL_CAP {
            return values.iter().map(|v| v.to_literal()).collect();
        }
        let step = values.len() / POOL_CAP;
        return values.iter().step_by(step.max(1)).take(POOL_CAP).map(|v| v.to_literal()).collect();
    }
    // High-cardinality column: fall back to the endpoints.
    [&stats.min, &stats.max].iter().filter_map(|v| v.as_ref().map(|v| v.to_literal())).collect()
}

/// Derive a [`SchemaSpec`] from a catalog, with the given permitted joins.
pub fn spec_for(catalog: &Catalog, joins: Vec<JoinSpec>) -> SchemaSpec {
    let tables = catalog
        .table_names()
        .iter()
        .filter_map(|name| {
            let table = catalog.get(name)?;
            let columns = table
                .schema
                .fields
                .iter()
                .filter_map(|f| {
                    let kind = scalar_kind(f.data_type)?;
                    let stats = catalog.column_stats(name, &f.name)?;
                    let mut spec = ColumnSpec::new(&f.name, kind, literal_pool(&stats));
                    if stats.distinct_count <= GROUPABLE_CARDINALITY
                        && stats.distinct_count >= 2
                        && kind != ScalarKind::Float
                    {
                        spec = spec.groupable();
                    }
                    Some(spec)
                })
                .collect();
            Some(TableSpec::new(name.clone(), columns))
        })
        .collect();
    SchemaSpec { tables, joins }
}

/// The fuzzing scenarios, smallest first: the §2 toy table, its two-table
/// join variant, and shrunken versions of the three demonstration
/// datasets (COVID-19, SDSS, S&P 500).
pub fn scenarios() -> Vec<Scenario> {
    let toy = pi2_datasets::toy::default_catalog();
    let toy_join = pi2_datasets::toy::join_catalog(200, 0x70E);
    let covid = pi2_datasets::covid::catalog(&pi2_datasets::covid::Config {
        state_limit: Some(6),
        days: 60,
        ..Default::default()
    });
    let sdss = pi2_datasets::sdss::catalog(&pi2_datasets::sdss::Config { objects: 300, seed: 3 });
    let sp500 = pi2_datasets::sp500::catalog(&pi2_datasets::sp500::Config {
        days: 90,
        ..Default::default()
    });
    vec![
        Scenario { name: "toy", spec: spec_for(&toy, Vec::new()), catalog: toy },
        Scenario {
            name: "toy-join",
            spec: spec_for(
                &toy_join,
                vec![JoinSpec {
                    left: "t".into(),
                    left_column: "a".into(),
                    right: "u".into(),
                    right_column: "a".into(),
                }],
            ),
            catalog: toy_join,
        },
        Scenario { name: "covid-small", spec: spec_for(&covid, Vec::new()), catalog: covid },
        Scenario { name: "sdss-small", spec: spec_for(&sdss, Vec::new()), catalog: sdss },
        Scenario { name: "sp500-small", spec: spec_for(&sp500, Vec::new()), catalog: sp500 },
    ]
}

/// Look up a scenario by name (for corpus replay).
pub fn scenario_by_name(name: &str) -> Option<Scenario> {
    scenarios().into_iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn every_scenario_has_generatable_tables() {
        for s in scenarios() {
            assert!(!s.spec.tables.is_empty(), "{}: no tables", s.name);
            let has_pool =
                s.spec.tables.iter().any(|t| t.columns.iter().any(|c| !c.pool.is_empty()));
            assert!(has_pool, "{}: no literal pools at all", s.name);
        }
    }

    #[test]
    fn generated_queries_execute_on_their_catalog() {
        for s in scenarios() {
            let mut rng = SmallRng::seed_from_u64(11);
            for i in 0..25 {
                let q = s.spec.random_query(&mut rng);
                s.catalog
                    .execute(&q)
                    .unwrap_or_else(|e| panic!("{} query {i} `{q}` failed: {e}", s.name));
            }
        }
    }
}
