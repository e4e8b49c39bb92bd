//! Incremental recomputation of shifted range predicates.
//!
//! Interactive gestures — pan, zoom, brush — re-dispatch the *same* query
//! with only the bounds of one or more `BETWEEN` conjuncts moved. Instead
//! of rescanning all N rows, this module caches the previous dispatch's
//! selection mask per query *template* (the query with its shiftable
//! bounds erased) and, on the next dispatch, re-evaluates only the zone-map
//! blocks whose value range intersects the bounds' movement: a row's
//! membership can only change if its value lies between an old and new
//! bound, so blocks outside those hull intervals keep their previous bits
//! verbatim.
//!
//! The path is deliberately conservative. It applies only when the WHERE
//! clause is an AND-tree whose every conjunct takes a typed loop that
//! cannot fail (column-vs-constant comparisons with matching types, typed
//! `BETWEEN`, `IS NULL` on a column) and at least one conjunct is a
//! shiftable range. The columnar executor owns that classification, and
//! decides every block of such a WHERE across all its conjuncts at once,
//! so the dirty blocks of a gesture are refined the same way. Anything
//! else returns `None` and the caller falls back to full execution — so
//! the delta path can never produce an error or a row set that full
//! execution would not. Debug builds additionally recompute the full mask
//! and assert bit-for-bit agreement, which the conformance corpus replays
//! continuously; release parity is covered by the `columnar-parity`
//! oracle's delta arm.

use crate::catalog::Catalog;
use crate::columnar::{block_count, block_range, BitMask};
use crate::error::Result;
use crate::exec_columnar::{prepare, Prepared};
use crate::result::ResultSet;
use pi2_sql::{BinaryOp, Expr, Literal, Query};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Upper bound on cached templates per [`DeltaCache`]; cleared wholesale
/// when full (a session interacts with a handful of chart queries at a
/// time, so 32 templates is generous).
const CACHE_CAP: usize = 32;

/// Per-session cache of selection masks keyed by query template, enabling
/// [`Catalog::execute_delta`] to recompute only the blocks a gesture's
/// bound shift can affect.
#[derive(Debug, Default)]
pub struct DeltaCache {
    entries: HashMap<u64, Entry>,
}

#[derive(Debug)]
struct Entry {
    /// Catalog version the mask was computed against.
    version: u64,
    /// The shiftable conjuncts' bounds at the time of the last dispatch,
    /// in WHERE-traversal order.
    bounds: Vec<(f64, f64)>,
    /// The full selection mask of the last dispatch.
    mask: BitMask,
}

impl DeltaCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn insert(&mut self, key: u64, entry: Entry) {
        if self.entries.len() >= CACHE_CAP && !self.entries.contains_key(&key) {
            self.entries.clear();
        }
        self.entries.insert(key, entry);
    }
}

/// How a delta execution was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// No cached mask for this template yet (or the catalog changed): the
    /// mask was computed in full and cached for the next gesture.
    Seeded,
    /// The cached mask was reused; only `dirty_blocks` of `total_blocks`
    /// were re-evaluated.
    Incremental {
        /// Blocks whose bits were recomputed.
        dirty_blocks: usize,
        /// Total zone-map blocks in the table.
        total_blocks: usize,
    },
}

/// Try to execute `q` incrementally. `None` means the query is outside the
/// delta fragment (caller falls back to full execution); `Some` carries the
/// result — byte-identical to full execution — and how it was obtained.
pub(crate) fn execute(
    catalog: &Catalog,
    q: &Query,
    cache: &mut DeltaCache,
) -> Option<(Result<ResultSet>, DeltaOutcome)> {
    let p = prepare(catalog, q)?;
    let ctx = p.ctx(catalog);
    // Every conjunct takes a typed loop that cannot fail, and at least one
    // is a shiftable range: `(column, lo, hi)` in query order.
    let ranges = ctx.typed_ranges()?;
    if ranges.is_empty() {
        return None;
    }
    let key = template_key(q);
    let version = catalog.version();
    let len = p.table.len;
    let total_blocks = block_count(len);
    let bounds: Vec<(f64, f64)> = ranges.iter().map(|&(_, lo, hi)| (lo, hi)).collect();

    // Take the entry out instead of cloning its mask: it is refined in
    // place and put back under the new bounds.
    let hit = cache
        .entries
        .remove(&key)
        .filter(|e| e.version == version && e.mask.len() == len && e.bounds.len() == bounds.len());
    let Some(Entry { bounds: old_bounds, mut mask, .. }) = hit else {
        let mask = match ctx.compute_mask() {
            Ok(m) => m,
            Err(e) => return Some((Err(e), DeltaOutcome::Seeded)),
        };
        let result = ctx.run_with_mask(q, &mask);
        cache.insert(key, Entry { version, bounds, mask });
        return Some((result, DeltaOutcome::Seeded));
    };

    let dirty = dirty_blocks(&p, &ranges, &old_bounds, total_blocks);
    for &b in &dirty {
        mask.fill_range(block_range(b, len), true);
    }
    let outcome = DeltaOutcome::Incremental { dirty_blocks: dirty.len(), total_blocks };
    if let Err(e) = ctx.refine_blocks(&mut mask, &dirty) {
        return Some((Err(e), outcome));
    }
    #[cfg(debug_assertions)]
    if let Ok(full) = ctx.compute_mask() {
        debug_assert!(mask == full, "delta-recomputed mask diverged from full recomputation");
    }
    let result = ctx.run_with_mask(q, &mask);
    cache.insert(key, Entry { version, bounds, mask });
    Some((result, outcome))
}

/// The query's cache template: its structural hash with the bounds of
/// every `BETWEEN` conjunct erased. Called only on queries whose conjuncts
/// all take typed loops, so those are exactly the shiftable ranges.
fn template_key(q: &Query) -> u64 {
    fn erase(e: &mut Expr) {
        match e {
            Expr::Binary { left, op: BinaryOp::And, right } => {
                erase(left);
                erase(right);
            }
            Expr::Between { low, high, .. } => {
                **low = Expr::Literal(Literal::Null);
                **high = Expr::Literal(Literal::Null);
            }
            _ => {}
        }
    }
    let mut template = q.clone();
    if let Some(w) = template.where_clause.as_mut() {
        erase(w);
    }
    template.structural_hash()
}

/// Blocks whose rows' membership can differ between the old and new bounds
/// of any shiftable conjunct: a row changes membership only if its value
/// lies in the closed hull of a moving bound, so a block is dirty exactly
/// when its zone range intersects one of those hulls. The bounds are exact
/// in f64 (see `typed_ranges`); an INT zone value beyond ±2^53 rounds, but
/// rounding is monotone, so the f64 test can only mark extra blocks dirty.
fn dirty_blocks(
    p: &Prepared,
    ranges: &[(usize, f64, f64)],
    old_bounds: &[(f64, f64)],
    total_blocks: usize,
) -> Vec<usize> {
    let fmin = |a: f64, b: f64| if a.total_cmp(&b) == Ordering::Greater { b } else { a };
    let fmax = |a: f64, b: f64| if a.total_cmp(&b) == Ordering::Less { b } else { a };
    let le = |a: f64, b: f64| a.total_cmp(&b) != Ordering::Greater;
    let intersects = |z: (f64, f64), h: (f64, f64)| le(z.0, h.1) && le(h.0, z.1);

    let mut dirty = vec![false; total_blocks];
    for (&(col, lo, hi), &(lo0, hi0)) in ranges.iter().zip(old_bounds) {
        let lo_hull = (fmin(lo0, lo), fmax(lo0, lo));
        let hi_hull = (fmin(hi0, hi), fmax(hi0, hi));
        if lo_hull.0.total_cmp(&lo_hull.1) == Ordering::Equal
            && hi_hull.0.total_cmp(&hi_hull.1) == Ordering::Equal
        {
            continue; // bounds unchanged for this conjunct
        }
        let zones = &p.table.zones[col];
        for (b, z) in zones.iter().enumerate() {
            if dirty[b] {
                continue;
            }
            // An all-NULL block has no rows whose membership can change.
            let Some((zmin, zmax)) = &z.min_max else { continue };
            match (zmin.as_f64(), zmax.as_f64()) {
                (Some(zmin), Some(zmax)) => {
                    if intersects((zmin, zmax), lo_hull) || intersects((zmin, zmax), hi_hull) {
                        dirty[b] = true;
                    }
                }
                // Un-summarizable zone values: be conservative.
                _ => dirty[b] = true,
            }
        }
    }
    dirty.iter().enumerate().filter_map(|(b, &d)| d.then_some(b)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::Table;
    use crate::value::{DataType, Value};

    fn catalog(rows: i64) -> Catalog {
        let mut t = Table::builder("t")
            .column("x", DataType::Int)
            .column("y", DataType::Float)
            .column("c", DataType::Str)
            .build();
        for i in 0..rows {
            t.push_row(vec![
                Value::Int(i),
                Value::Float(i as f64 / 2.0),
                Value::str(if i % 3 == 0 { "a" } else { "b" }),
            ])
            .unwrap();
        }
        let mut c = Catalog::new();
        c.register(t);
        c
    }

    fn q(sql: &str) -> Query {
        pi2_sql::parse_query(sql).unwrap()
    }

    #[test]
    fn seed_then_incremental_pan_matches_full() {
        let c = catalog(20_000);
        let mut cache = DeltaCache::new();
        let q1 = q("SELECT x, y FROM t WHERE x BETWEEN 100 AND 200 AND c = 'a'");
        let (r1, o1) = execute(&c, &q1, &mut cache).expect("delta applies");
        assert_eq!(o1, DeltaOutcome::Seeded);
        assert_eq!(r1.unwrap(), c.execute_reference(&q1).unwrap());

        // Pan: shift the window; only boundary blocks should be dirty.
        let q2 = q("SELECT x, y FROM t WHERE x BETWEEN 150 AND 250 AND c = 'a'");
        let (r2, o2) = execute(&c, &q2, &mut cache).expect("delta applies");
        let DeltaOutcome::Incremental { dirty_blocks, total_blocks } = o2 else {
            panic!("expected incremental, got {o2:?}");
        };
        assert!(dirty_blocks < total_blocks, "{dirty_blocks}/{total_blocks}");
        assert_eq!(r2.unwrap(), c.execute_reference(&q2).unwrap());
    }

    #[test]
    fn zoom_and_repeat_dispatches_stay_exact() {
        let c = catalog(10_000);
        let mut cache = DeltaCache::new();
        let windows = [(0, 9999), (2000, 7999), (3000, 6999), (3000, 6999), (0, 9999)];
        for (lo, hi) in windows {
            let query = q(&format!("SELECT count(*) AS n FROM t WHERE x BETWEEN {lo} AND {hi}"));
            let (r, _) = execute(&c, &query, &mut cache).expect("delta applies");
            assert_eq!(r.unwrap(), c.execute_reference(&query).unwrap(), "window {lo}..{hi}");
        }
    }

    #[test]
    fn inapplicable_shapes_return_none() {
        let c = catalog(100);
        let mut cache = DeltaCache::new();
        // No shiftable range.
        assert!(execute(&c, &q("SELECT x FROM t WHERE c = 'a'"), &mut cache).is_none());
        // OR at the top level.
        assert!(execute(&c, &q("SELECT x FROM t WHERE x BETWEEN 1 AND 5 OR c = 'a'"), &mut cache)
            .is_none());
        // Expression bound.
        assert!(execute(&c, &q("SELECT x FROM t WHERE x BETWEEN 1 AND y"), &mut cache).is_none());
        // No WHERE at all.
        assert!(execute(&c, &q("SELECT x FROM t"), &mut cache).is_none());
    }

    /// The delta path and the executor's per-block pre-pass share one
    /// classifier: every query the delta path accepts has its full mask
    /// decided block by block across all conjuncts, which records each
    /// block exactly once in the scan counters (left-to-right refinement
    /// records a block once per typed conjunct).
    #[test]
    fn every_delta_query_is_decided_per_block_by_the_prepass() {
        let c = catalog(20_000);
        let blocks = block_count(20_000) as u64;
        let sqls = [
            "SELECT x FROM t WHERE x BETWEEN 100 AND 9000",
            "SELECT x FROM t WHERE c = 'a' AND y BETWEEN 10.5 AND 4000",
            "SELECT x FROM t WHERE y BETWEEN 0 AND 5000 AND 7000 > x AND c IS NOT NULL",
            "SELECT x FROM t WHERE x BETWEEN 1 AND 2 AND x = NULL",
            "SELECT x FROM t WHERE (x BETWEEN 1.5 AND 12000 AND x IS NULL) AND c <= 'b'",
            "SELECT x FROM t WHERE x BETWEEN 1 AND 5 OR c = 'a'",
            "SELECT x FROM t WHERE x BETWEEN 1 AND y",
            "SELECT x FROM t WHERE x + 1 > 5 AND x BETWEEN 1 AND 5",
            "SELECT x FROM t WHERE c > 3 AND x BETWEEN 1 AND 5",
            "SELECT x FROM t WHERE x NOT BETWEEN 1 AND 5",
            "SELECT x FROM t WHERE c BETWEEN 'a' AND 'b'",
            "SELECT x FROM t WHERE c = 'a'",
        ];
        let mut accepted = 0;
        for sql in sqls {
            let query = q(sql);
            if execute(&c, &query, &mut DeltaCache::new()).is_none() {
                continue;
            }
            accepted += 1;
            let p = prepare(&c, &query).expect("delta queries are columnar");
            let (s0, p0) = c.scan_counts();
            p.ctx(&c).compute_mask().expect("typed loops cannot fail");
            let (s1, p1) = c.scan_counts();
            assert_eq!((s1 - s0) + (p1 - p0), blocks, "{sql}: not decided once per block");
        }
        assert_eq!(accepted, 5, "the delta path's accepted shapes changed");
    }

    #[test]
    fn catalog_version_change_invalidates_entries() {
        let mut c = catalog(5_000);
        let mut cache = DeltaCache::new();
        let q1 = q("SELECT count(*) AS n FROM t WHERE x BETWEEN 10 AND 20");
        let (_, o1) = execute(&c, &q1, &mut cache).unwrap();
        assert_eq!(o1, DeltaOutcome::Seeded);

        // Re-register the table: different data, same name.
        let mut t = Table::builder("t").column("x", DataType::Int).build();
        for i in 0..50 {
            t.push_row(vec![Value::Int(i)]).unwrap();
        }
        c.register(t);
        let q2 = q("SELECT count(*) AS n FROM t WHERE x BETWEEN 10 AND 25");
        let (r2, o2) = execute(&c, &q2, &mut cache).unwrap();
        assert_eq!(o2, DeltaOutcome::Seeded, "stale mask must not be reused");
        assert_eq!(r2.unwrap(), c.execute_reference(&q2).unwrap());
    }
}
