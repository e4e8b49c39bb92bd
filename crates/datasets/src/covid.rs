//! Synthetic COVID-19 daily case counts per US state, with census regions.
//!
//! Mirrors the NYT-style dataset used in the paper's §3.2 walkthrough:
//! `covid(date, state, cases)` plus `regions(state, region)`. Case counts
//! follow an epidemic-wave shape (a winter surge peaking late December
//! 2021, like the Omicron wave the fictional analyst Jane studies), with
//! per-state scale proportional to a population weight and region-correlated
//! wave timing, plus multiplicative noise.

use crate::Emit;
use pi2_engine::{Catalog, DataType, Table, Value};
use pi2_sql::{Date, Query};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The 50 US states with a rough population weight (millions) and census
/// region, used to scale and correlate the synthetic waves.
pub const STATES: &[(&str, f64, &str)] = &[
    ("AL", 5.0, "South"),
    ("AK", 0.7, "West"),
    ("AZ", 7.3, "West"),
    ("AR", 3.0, "South"),
    ("CA", 39.2, "West"),
    ("CO", 5.8, "West"),
    ("CT", 3.6, "Northeast"),
    ("DE", 1.0, "South"),
    ("FL", 21.8, "South"),
    ("GA", 10.8, "South"),
    ("HI", 1.4, "West"),
    ("ID", 1.9, "West"),
    ("IL", 12.7, "Midwest"),
    ("IN", 6.8, "Midwest"),
    ("IA", 3.2, "Midwest"),
    ("KS", 2.9, "Midwest"),
    ("KY", 4.5, "South"),
    ("LA", 4.6, "South"),
    ("ME", 1.4, "Northeast"),
    ("MD", 6.2, "South"),
    ("MA", 7.0, "Northeast"),
    ("MI", 10.0, "Midwest"),
    ("MN", 5.7, "Midwest"),
    ("MS", 2.9, "South"),
    ("MO", 6.2, "Midwest"),
    ("MT", 1.1, "West"),
    ("NE", 2.0, "Midwest"),
    ("NV", 3.1, "West"),
    ("NH", 1.4, "Northeast"),
    ("NJ", 9.3, "Northeast"),
    ("NM", 2.1, "West"),
    ("NY", 19.8, "Northeast"),
    ("NC", 10.6, "South"),
    ("ND", 0.8, "Midwest"),
    ("OH", 11.8, "Midwest"),
    ("OK", 4.0, "South"),
    ("OR", 4.2, "West"),
    ("PA", 13.0, "Northeast"),
    ("RI", 1.1, "Northeast"),
    ("SC", 5.2, "South"),
    ("SD", 0.9, "Midwest"),
    ("TN", 7.0, "South"),
    ("TX", 29.5, "South"),
    ("UT", 3.3, "West"),
    ("VT", 0.6, "Northeast"),
    ("VA", 8.6, "South"),
    ("WA", 7.7, "West"),
    ("WV", 1.8, "South"),
    ("WI", 5.9, "Midwest"),
    ("WY", 0.6, "West"),
];

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// First date in the dataset.
    pub start: Date,
    /// Number of consecutive days.
    pub days: u32,
    /// RNG seed; the generator is fully deterministic given the config.
    pub seed: u64,
    /// Limit to the first `n` states (for small test fixtures). `None` = all 50.
    pub state_limit: Option<usize>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            // 2021-11-01 .. 2021-12-31: the walkthrough's "late December
            // 2021" winter-holiday window plus the preceding weeks.
            start: Date::from_ymd(2021, 11, 1).expect("valid date"),
            days: 61,
            seed: 0xC0_11D,
            state_limit: None,
        }
    }
}

/// Build the `covid` and `regions` tables.
pub fn catalog(config: &Config) -> Catalog {
    let covid = Table::builder("covid")
        .column("date", DataType::Date)
        .column("state", DataType::Str)
        .column("cases", DataType::Int)
        .build();
    let regions = Table::builder("regions")
        .column("state", DataType::Str)
        .column("region", DataType::Str)
        .build();
    crate::load(vec![covid, regions], |emit| rows(config, emit))
}

/// Emit the `covid` and `regions` rows that [`catalog`] loads.
pub fn rows(config: &Config, emit: Emit<'_>) {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let states: &[(&str, f64, &str)] = match config.state_limit {
        Some(n) => &STATES[..n.min(STATES.len())],
        None => STATES,
    };

    // The winter wave peaks around day `days - 7` (late December for the
    // default window), slightly earlier in the Northeast and later in the
    // West, as the real Omicron wave did.
    let base_peak = config.days as f64 - 7.0;
    for (state, pop, region) in states {
        let region_shift = match *region {
            "Northeast" => -4.0,
            "Midwest" => -1.0,
            "South" => 1.5,
            _ => 4.0,
        };
        let peak_day = base_peak + region_shift + rng.gen_range(-2.0..2.0);
        let width = rng.gen_range(8.0..14.0);
        let peak_height = pop * rng.gen_range(800.0..1600.0);
        let baseline = pop * rng.gen_range(20.0..60.0);
        for d in 0..config.days {
            let t = d as f64;
            let wave = peak_height * (-((t - peak_day) / width).powi(2)).exp();
            let noise = rng.gen_range(0.85..1.15);
            let weekday_dip = if (config.start.plus_days(d as i32).0 % 7) < 2 { 0.8 } else { 1.0 };
            let cases = ((baseline + wave) * noise * weekday_dip).round().max(0.0) as i64;
            emit(
                "covid",
                vec![
                    Value::Date(config.start.plus_days(d as i32)),
                    Value::str(*state),
                    Value::Int(cases),
                ],
            );
        }
    }
    for (state, _, region) in states {
        emit("regions", vec![Value::str(*state), Value::str(*region)]);
    }
}

/// The four-query log of the paper's §3.2 use-case walkthrough.
///
/// * Q1 — overview: total cases over time.
/// * Q2 — detail: the same, restricted to a half-month window.
/// * Q2b — the second "preceding half-month period" Jane looks back over.
/// * Q3 — per-state breakdown in a date window.
/// * Q4 — region drill-down with the correlated above-region-average filter.
pub fn demo_queries() -> Vec<Query> {
    crate::parse_all(&[
        // Q1: overview of the dataset.
        "SELECT date, sum(cases) AS cases FROM covid GROUP BY date ORDER BY date",
        // Q2: detailed look at the most recent half-month.
        "SELECT date, sum(cases) AS cases FROM covid \
         WHERE date BETWEEN DATE '2021-12-16' AND DATE '2021-12-31' \
         GROUP BY date ORDER BY date",
        // Q2b: the preceding half-month period.
        "SELECT date, sum(cases) AS cases FROM covid \
         WHERE date BETWEEN DATE '2021-12-01' AND DATE '2021-12-15' \
         GROUP BY date ORDER BY date",
        // Q3: drill down to state level within the window.
        "SELECT date, state, sum(cases) AS cases FROM covid \
         WHERE date BETWEEN DATE '2021-12-16' AND DATE '2021-12-31' \
         GROUP BY date, state ORDER BY date",
        // Q4: focused region investigation — South, above-region-average
        // states only (joins + correlated subqueries, as in the paper).
        "SELECT c.date, c.state, sum(c.cases) AS cases FROM covid c JOIN regions r ON c.state = r.state \
         WHERE r.region = 'South' \
           AND c.date BETWEEN DATE '2021-12-16' AND DATE '2021-12-31' \
           AND c.state IN (SELECT c2.state FROM covid c2 JOIN regions r2 ON c2.state = r2.state \
                         WHERE r2.region = r.region GROUP BY c2.state \
                         HAVING avg(c2.cases) > (SELECT avg(c3.cases) FROM covid c3 \
                            JOIN regions r3 ON c3.state = r3.state WHERE r3.region = r.region)) \
         GROUP BY c.date, c.state ORDER BY c.date",
        // Q4b: the same investigation for the Northeast.
        "SELECT c.date, c.state, sum(c.cases) AS cases FROM covid c JOIN regions r ON c.state = r.state \
         WHERE r.region = 'Northeast' \
           AND c.date BETWEEN DATE '2021-12-16' AND DATE '2021-12-31' \
           AND c.state IN (SELECT c2.state FROM covid c2 JOIN regions r2 ON c2.state = r2.state \
                         WHERE r2.region = r.region GROUP BY c2.state \
                         HAVING avg(c2.cases) > (SELECT avg(c3.cases) FROM covid c3 \
                            JOIN regions r3 ON c3.state = r3.state WHERE r3.region = r.region)) \
         GROUP BY c.date, c.state ORDER BY c.date",
    ])
}

/// The first `n` queries of the walkthrough log (the walkthrough invokes
/// PI2 after Q2b, after Q3, and after Q4).
pub fn demo_queries_step(n: usize) -> Vec<Query> {
    demo_queries().into_iter().take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_all_states_and_days() {
        let c = catalog(&Config::default());
        let r = c.execute_sql("SELECT count(*) FROM covid").unwrap();
        assert_eq!(r.columns()[0].value(0), Value::Int(50 * 61));
        let r = c.execute_sql("SELECT count(*) FROM regions").unwrap();
        assert_eq!(r.columns()[0].value(0), Value::Int(50));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = catalog(&Config::default());
        let b = catalog(&Config::default());
        let qa = a.execute_sql("SELECT sum(cases) FROM covid").unwrap();
        let qb = b.execute_sql("SELECT sum(cases) FROM covid").unwrap();
        assert_eq!(qa.rows().collect::<Vec<_>>(), qb.rows().collect::<Vec<_>>());
    }

    #[test]
    fn different_seed_differs() {
        let a = catalog(&Config::default());
        let b = catalog(&Config { seed: 99, ..Config::default() });
        let qa = a.execute_sql("SELECT sum(cases) FROM covid").unwrap();
        let qb = b.execute_sql("SELECT sum(cases) FROM covid").unwrap();
        assert_ne!(qa.rows().collect::<Vec<_>>(), qb.rows().collect::<Vec<_>>());
    }

    #[test]
    fn wave_peaks_in_late_december() {
        let c = catalog(&Config::default());
        let r = c
            .execute_sql("SELECT date FROM covid GROUP BY date ORDER BY sum(cases) DESC LIMIT 1")
            .unwrap();
        let Value::Date(peak) = &r.columns()[0].value(0) else { panic!() };
        let (y, m, d) = peak.ymd();
        assert_eq!((y, m), (2021, 12), "peak at {peak}");
        assert!(d >= 15, "peak at {peak}");
    }

    #[test]
    fn all_demo_queries_execute() {
        let c = catalog(&Config::default());
        for q in demo_queries() {
            let r = c.execute(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
            assert!(!r.is_empty(), "{q} returned no rows");
        }
    }

    #[test]
    fn q4_selects_above_average_states_only() {
        let c = catalog(&Config::default());
        let q4 = &demo_queries()[4];
        let r = c.execute(q4).unwrap();
        let states: std::collections::BTreeSet<String> = r
            .rows()
            .collect::<Vec<_>>()
            .iter()
            .map(|row| match &row[1] {
                Value::Str(s) => s.clone(),
                other => panic!("{other}"),
            })
            .collect();
        // Big South states should qualify; tiny ones should not.
        assert!(states.contains("TX") || states.contains("FL"), "{states:?}");
        assert!(!states.contains("DE"), "{states:?}");
        // All 16 South states is more than qualify.
        assert!(states.len() < 16, "{states:?}");
    }

    #[test]
    fn state_limit_shrinks_fixture() {
        let c = catalog(&Config { state_limit: Some(3), days: 5, ..Config::default() });
        let r = c.execute_sql("SELECT count(*) FROM covid").unwrap();
        assert_eq!(r.columns()[0].value(0), Value::Int(15));
    }
}
