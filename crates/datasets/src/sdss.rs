//! Synthetic Sloan Digital Sky Survey photometric catalog.
//!
//! Mirrors the `PhotoObj`-style table behind the paper's Figure 1:
//! `photoobj(objid, ra, dec, u, g, r, i, z, class, redshift)`. Objects are
//! drawn from a handful of sky clusters (so region queries over `ra`/`dec`
//! ranges return spatially coherent sets) plus a uniform background; colors
//! follow class-dependent magnitude distributions.

use crate::Emit;
use pi2_engine::{Catalog, DataType, Table, Value};
use pi2_sql::Query;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Number of objects.
    pub objects: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Config {
    fn default() -> Self {
        Self { objects: 5_000, seed: 0x5D55 }
    }
}

impl Config {
    /// A configuration with the given object count and the default seed.
    pub fn sized(objects: usize) -> Self {
        Self { objects, ..Self::default() }
    }
}

/// Sky clusters (ra center, dec center, spread in degrees) the demo's
/// region queries aim at.
const CLUSTERS: &[(f64, f64, f64)] =
    &[(179.5, -0.5, 1.2), (185.0, 2.0, 0.8), (150.0, 30.0, 2.0), (210.0, 15.0, 1.5)];

/// Build the `photoobj` table.
pub fn catalog(config: &Config) -> Catalog {
    let photoobj = Table::builder("photoobj")
        .column("objid", DataType::Int)
        .column("ra", DataType::Float)
        .column("dec", DataType::Float)
        .column("u", DataType::Float)
        .column("g", DataType::Float)
        .column("r", DataType::Float)
        .column("i", DataType::Float)
        .column("z", DataType::Float)
        .column("class", DataType::Str)
        .column("redshift", DataType::Float)
        .build();
    crate::load(vec![photoobj], |emit| rows(config, emit))
}

/// Emit the `photoobj` rows that [`catalog`] loads.
pub fn rows(config: &Config, emit: Emit<'_>) {
    let mut rng = SmallRng::seed_from_u64(config.seed);
    // Positions are drawn first and emitted in sky-scan (ra-ascending)
    // order, the layout a survey's drift scan would produce. Value-ordered
    // storage is what makes the engine's per-block zone maps tight: a
    // region query's `ra BETWEEN` conjunct then prunes every block outside
    // the window instead of scanning all N rows.
    let mut positions: Vec<(f64, f64)> = (0..config.objects)
        .map(|_| {
            // 70% clustered, 30% uniform background over the demo window.
            if rng.gen_bool(0.7) {
                let (cra, cdec, spread) = CLUSTERS[rng.gen_range(0..CLUSTERS.len())];
                (cra + rng.gen_range(-spread..spread), cdec + rng.gen_range(-spread..spread))
            } else {
                (rng.gen_range(140.0..220.0), rng.gen_range(-5.0..35.0))
            }
        })
        .collect();
    positions.sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));

    for (objid, (ra, dec)) in positions.into_iter().enumerate() {
        let objid = objid as i64;
        let class = match rng.gen_range(0..10) {
            0..=4 => "GALAXY",
            5..=8 => "STAR",
            _ => "QSO",
        };
        // Base r-band magnitude by class, with colors offset from it.
        let r_mag: f64 = match class {
            "STAR" => rng.gen_range(14.0..20.0),
            "GALAXY" => rng.gen_range(16.0..22.0),
            _ => rng.gen_range(17.0..21.5),
        };
        let g = r_mag + rng.gen_range(0.2..1.2);
        let u = g + rng.gen_range(0.3..1.8);
        let i = r_mag - rng.gen_range(0.0..0.6);
        let z = i - rng.gen_range(0.0..0.5);
        let redshift: f64 = match class {
            "STAR" => rng.gen_range(0.0..0.001),
            "GALAXY" => rng.gen_range(0.01..0.4),
            _ => rng.gen_range(0.5..3.5),
        };
        emit(
            "photoobj",
            vec![
                Value::Int(objid),
                Value::Float((ra * 1e4).round() / 1e4),
                Value::Float((dec * 1e4).round() / 1e4),
                Value::Float((u * 100.0).round() / 100.0),
                Value::Float((g * 100.0).round() / 100.0),
                Value::Float((r_mag * 100.0).round() / 100.0),
                Value::Float((i * 100.0).round() / 100.0),
                Value::Float((z * 100.0).round() / 100.0),
                Value::str(class),
                Value::Float((redshift * 1e4).round() / 1e4),
            ],
        );
    }
}

/// The two celestial-region queries of the paper's Figure 1: identical
/// except for the `ra`/`dec` window, which is exactly the variation PI2
/// turns into pan/zoom.
pub fn demo_queries() -> Vec<Query> {
    crate::parse_all(&[
        "SELECT ra, dec FROM photoobj \
         WHERE ra BETWEEN 178.5 AND 180.5 AND dec BETWEEN -1.5 AND 0.5",
        "SELECT ra, dec FROM photoobj \
         WHERE ra BETWEEN 184.0 AND 186.0 AND dec BETWEEN 1.0 AND 3.0",
    ])
}

/// A longer exploration log: region scans at several windows, then a class
/// filter and a magnitude histogram — used by the scaling benchmarks.
pub fn exploration_queries() -> Vec<Query> {
    crate::parse_all(&[
        "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 178.5 AND 180.5 AND dec BETWEEN -1.5 AND 0.5",
        "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 184.0 AND 186.0 AND dec BETWEEN 1.0 AND 3.0",
        "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 148.0 AND 152.0 AND dec BETWEEN 28.0 AND 32.0",
        "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 178.5 AND 180.5 AND dec BETWEEN -1.5 AND 0.5 AND class = 'GALAXY'",
        "SELECT ra, dec FROM photoobj WHERE ra BETWEEN 178.5 AND 180.5 AND dec BETWEEN -1.5 AND 0.5 AND class = 'QSO'",
        "SELECT class, count(*) AS n FROM photoobj GROUP BY class",
        "SELECT round(r, 0) AS rmag, count(*) AS n FROM photoobj GROUP BY round(r, 0) ORDER BY rmag",
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_count() {
        let c = catalog(&Config { objects: 500, seed: 1 });
        let r = c.execute_sql("SELECT count(*) FROM photoobj").unwrap();
        assert_eq!(r.columns()[0].value(0), Value::Int(500));
    }

    #[test]
    fn deterministic() {
        let a = catalog(&Config { objects: 200, seed: 7 });
        let b = catalog(&Config { objects: 200, seed: 7 });
        let qa = a.execute_sql("SELECT sum(ra), sum(r) FROM photoobj").unwrap();
        let qb = b.execute_sql("SELECT sum(ra), sum(r) FROM photoobj").unwrap();
        assert_eq!(qa.rows().collect::<Vec<_>>(), qb.rows().collect::<Vec<_>>());
    }

    #[test]
    fn demo_regions_are_populated() {
        let c = catalog(&Config::default());
        for q in demo_queries() {
            let r = c.execute(&q).unwrap();
            assert!(r.len() > 20, "{q} returned only {} rows", r.len());
        }
    }

    #[test]
    fn rows_are_emitted_in_sky_scan_order() {
        let c = catalog(&Config { objects: 2_000, seed: 5 });
        let r = c.execute_sql("SELECT ra FROM photoobj").unwrap();
        let ras: Vec<f64> = r
            .rows()
            .collect::<Vec<_>>()
            .iter()
            .map(|row| match row[0] {
                Value::Float(f) => f,
                ref v => panic!("unexpected ra {v:?}"),
            })
            .collect();
        assert!(ras.windows(2).all(|w| w[0] <= w[1]), "ra not ascending");
    }

    #[test]
    fn sized_overrides_object_count() {
        let c = catalog(&Config::sized(123));
        let r = c.execute_sql("SELECT count(*) FROM photoobj").unwrap();
        assert_eq!(r.columns()[0].value(0), Value::Int(123));
    }

    #[test]
    fn classes_have_expected_redshift_ranges() {
        let c = catalog(&Config::default());
        let r = c.execute_sql("SELECT max(redshift) FROM photoobj WHERE class = 'STAR'").unwrap();
        let Value::Float(v) = r.columns()[0].value(0) else { panic!() };
        assert!(v < 0.01);
        let r = c.execute_sql("SELECT min(redshift) FROM photoobj WHERE class = 'QSO'").unwrap();
        let Value::Float(v) = r.columns()[0].value(0) else { panic!() };
        assert!(v > 0.4);
    }

    #[test]
    fn exploration_queries_execute() {
        let c = catalog(&Config::default());
        for q in exploration_queries() {
            c.execute(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
        }
    }
}
