//! Synthetic S&P 500 daily prices.
//!
//! Two tables: `companies(ticker, name, sector)` and
//! `prices(date, ticker, close, volume)`. Prices follow a per-ticker
//! geometric random walk with a sector-level drift component, so
//! sector-comparison queries show coherent trends.

use crate::Emit;
use pi2_engine::{Catalog, DataType, Table, Value};
use pi2_sql::{Date, Query};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Tickers with sector assignments (a representative S&P 500 subset).
pub const COMPANIES: &[(&str, &str, &str)] = &[
    ("AAPL", "Apple", "Tech"),
    ("MSFT", "Microsoft", "Tech"),
    ("GOOG", "Alphabet", "Tech"),
    ("NVDA", "Nvidia", "Tech"),
    ("CRM", "Salesforce", "Tech"),
    ("JPM", "JPMorgan", "Financials"),
    ("BAC", "Bank of America", "Financials"),
    ("GS", "Goldman Sachs", "Financials"),
    ("XOM", "Exxon", "Energy"),
    ("CVX", "Chevron", "Energy"),
    ("SLB", "Schlumberger", "Energy"),
    ("JNJ", "Johnson & Johnson", "Health"),
    ("PFE", "Pfizer", "Health"),
    ("UNH", "UnitedHealth", "Health"),
    ("PG", "Procter & Gamble", "Staples"),
    ("KO", "Coca-Cola", "Staples"),
    ("WMT", "Walmart", "Staples"),
    ("HD", "Home Depot", "Discretionary"),
    ("MCD", "McDonald's", "Discretionary"),
    ("NKE", "Nike", "Discretionary"),
];

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// First trading date.
    pub start: Date,
    /// Number of consecutive days (weekends included for simplicity).
    pub days: u32,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self { start: Date::from_ymd(2021, 7, 1).expect("valid date"), days: 184, seed: 0x5B500 }
    }
}

/// Build the `companies` and `prices` tables.
pub fn catalog(config: &Config) -> Catalog {
    let companies = Table::builder("companies")
        .column("ticker", DataType::Str)
        .column("name", DataType::Str)
        .column("sector", DataType::Str)
        .build();
    let prices = Table::builder("prices")
        .column("date", DataType::Date)
        .column("ticker", DataType::Str)
        .column("close", DataType::Float)
        .column("volume", DataType::Int)
        .build();
    crate::load(vec![companies, prices], |emit| rows(config, emit))
}

/// Emit the `companies` and `prices` rows that [`catalog`] loads.
pub fn rows(config: &Config, emit: Emit<'_>) {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    for (t, n, s) in COMPANIES {
        emit("companies", vec![Value::str(*t), Value::str(*n), Value::str(*s)]);
    }

    // Sector drift per day: Tech trends up, Energy oscillates, etc.
    let sectors = ["Tech", "Financials", "Energy", "Health", "Staples", "Discretionary"];
    let sector_drift: Vec<f64> = sectors.iter().map(|_| rng.gen_range(-0.0008..0.0018)).collect();

    for (ticker, _, sector) in COMPANIES {
        let sector_idx = sectors.iter().position(|s| s == sector).expect("known sector");
        let mut price: f64 = rng.gen_range(40.0..400.0);
        let vol_base: i64 = rng.gen_range(1_000_000..40_000_000);
        let volatility = rng.gen_range(0.008..0.025);
        for d in 0..config.days {
            let shock = rng.gen_range(-1.0..1.0) * volatility;
            price *= 1.0 + sector_drift[sector_idx] + shock;
            price = price.max(1.0);
            let volume = (vol_base as f64 * rng.gen_range(0.6..1.6)) as i64;
            emit(
                "prices",
                vec![
                    Value::Date(config.start.plus_days(d as i32)),
                    Value::str(*ticker),
                    Value::Float((price * 100.0).round() / 100.0),
                    Value::Int(volume),
                ],
            );
        }
    }
}

/// A plausible exploration log: one ticker's timeline, a competing ticker,
/// a date-windowed view, and a sector aggregate — the kind of "iterative
/// tweaks" the paper's intro motivates.
pub fn demo_queries() -> Vec<Query> {
    crate::parse_all(&[
        "SELECT date, close FROM prices WHERE ticker = 'AAPL' ORDER BY date",
        "SELECT date, close FROM prices WHERE ticker = 'MSFT' ORDER BY date",
        "SELECT date, close FROM prices WHERE ticker = 'AAPL' \
         AND date BETWEEN DATE '2021-11-01' AND DATE '2021-12-31' ORDER BY date",
        "SELECT c.sector, avg(p.close) AS avg_close FROM prices p JOIN companies c ON p.ticker = c.ticker \
         WHERE p.date BETWEEN DATE '2021-11-01' AND DATE '2021-12-31' \
         GROUP BY c.sector ORDER BY avg_close DESC",
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_expected_cardinalities() {
        let c = catalog(&Config { days: 10, ..Config::default() });
        let r = c.execute_sql("SELECT count(*) FROM prices").unwrap();
        assert_eq!(r.columns()[0].value(0), Value::Int(20 * 10));
        let r = c.execute_sql("SELECT count(DISTINCT sector) FROM companies").unwrap();
        assert_eq!(r.columns()[0].value(0), Value::Int(6));
    }

    #[test]
    fn prices_stay_positive() {
        let c = catalog(&Config::default());
        let r = c.execute_sql("SELECT min(close) FROM prices").unwrap();
        let Value::Float(v) = r.columns()[0].value(0) else { panic!() };
        assert!(v > 0.0);
    }

    #[test]
    fn deterministic() {
        let a = catalog(&Config::default());
        let b = catalog(&Config::default());
        let qa = a.execute_sql("SELECT sum(close) FROM prices").unwrap();
        let qb = b.execute_sql("SELECT sum(close) FROM prices").unwrap();
        assert_eq!(qa.rows().collect::<Vec<_>>(), qb.rows().collect::<Vec<_>>());
    }

    #[test]
    fn demo_queries_execute_nonempty() {
        let c = catalog(&Config::default());
        for q in demo_queries() {
            let r = c.execute(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
            assert!(!r.is_empty());
        }
    }
}
