#![warn(missing_docs)]

//! # pi2-datasets
//!
//! Deterministic synthetic datasets with the same schemas, cardinalities and
//! statistical shape as the three datasets the PI2 demonstration prepared
//! for participants (COVID-19 daily case counts, the Sloan Digital Sky
//! Survey photometric catalog, and S&P 500 daily prices), plus the demo
//! scenarios' query logs.
//!
//! The real datasets are external resources the paper used for flavor; what
//! PI2's pipeline actually consumes is their *schemas, types, cardinalities
//! and value domains*, all of which the generators preserve. Every generator
//! is seeded and pure: the same config always produces the same rows.
//!
//! ```
//! use pi2_datasets::covid;
//!
//! let catalog = covid::catalog(&covid::Config::default());
//! let r = catalog.execute_sql("SELECT count(DISTINCT state) FROM covid").unwrap();
//! assert_eq!(r.columns()[0].value(0), pi2_engine::Value::Int(50));
//! ```

pub mod covid;
pub mod sdss;
pub mod sp500;
pub mod toy;

use pi2_sql::Query;

/// A named analysis scenario: a catalog plus the demo query log over it.
pub struct Scenario {
    /// The name.
    pub name: &'static str,
    /// Catalog.
    pub catalog: pi2_engine::Catalog,
    /// The input query log.
    pub queries: Vec<Query>,
}

/// The three demonstration scenarios at default sizes, in the order the
/// paper lists them (§3.2 "Demonstration engagement").
pub fn demo_scenarios() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "covid",
            catalog: covid::catalog(&covid::Config::default()),
            queries: covid::demo_queries(),
        },
        Scenario {
            name: "sdss",
            catalog: sdss::catalog(&sdss::Config::default()),
            queries: sdss::demo_queries(),
        },
        Scenario {
            name: "sp500",
            catalog: sp500::catalog(&sp500::Config::default()),
            queries: sp500::demo_queries(),
        },
    ]
}

/// Where a generator sends its rows: each row with the name of its table.
pub type Emit<'a> = &'a mut dyn FnMut(&str, Vec<pi2_engine::Value>);

/// Build a catalog from empty `tables` (their schemas) and the rows
/// `generate` emits into them, registering the tables in order. Every
/// generator loads its catalog through here, and exposes its `rows`
/// function, so a test can replay exactly the rows a catalog was built from.
pub(crate) fn load(
    mut tables: Vec<pi2_engine::Table>,
    generate: impl FnOnce(Emit<'_>),
) -> pi2_engine::Catalog {
    generate(&mut |name, row| {
        let table = tables.iter_mut().find(|t| t.name == name).expect("a declared table");
        table.push_row(row).expect("schema-correct row");
    });
    let mut catalog = pi2_engine::Catalog::new();
    for table in tables {
        catalog.register(table);
    }
    catalog
}

pub(crate) fn parse_all(sqls: &[&str]) -> Vec<Query> {
    sqls.iter()
        .map(|s| pi2_sql::parse_query(s).unwrap_or_else(|e| panic!("bad demo query {s:?}: {e}")))
        .collect()
}
