//! The table catalog: the engine's entry point.

use crate::columnar::ColumnarTable;
use crate::delta::{DeltaCache, DeltaOutcome};
use crate::error::{EngineError, Result};
use crate::eval::ExecCtx;
use crate::result::ResultSet;
use crate::stats::{ColumnStats, ScanStats};
use crate::table::Table;
use parking_lot::Mutex;
use pi2_sql::Query;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The result cache: least-recently-used over (catalog version, *exact*
/// structural hash). Not the normalized hash: normalization equates
/// `1 = v` with `v = 1`, but the executor names output columns after the
/// text as written.
#[derive(Debug, Default)]
struct ResultCache {
    map: HashMap<(u64, u64), (u64, Arc<ResultSet>)>,
    tick: u64,
}

impl ResultCache {
    /// Entries kept before the least-recently-used one is evicted.
    const CAPACITY: usize = 256;

    fn get(&mut self, key: (u64, u64)) -> Option<Arc<ResultSet>> {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(&key).map(|slot| {
            slot.0 = tick;
            Arc::clone(&slot.1)
        })
    }

    fn insert(&mut self, key: (u64, u64), result: Arc<ResultSet>) {
        if self.map.len() >= Self::CAPACITY && !self.map.contains_key(&key) {
            if let Some(oldest) = self.map.iter().min_by_key(|(_, (t, _))| *t).map(|(k, _)| *k) {
                self.map.remove(&oldest);
            }
        }
        self.tick += 1;
        self.map.insert(key, (self.tick, result));
    }
}

/// How [`Catalog::execute_with`] obtained a result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Obtained {
    /// From the shared result cache.
    Cached,
    /// By delta recomputation against the caller's [`DeltaCache`].
    Delta(DeltaOutcome),
    /// By a full execution: columnar when the query qualifies, the
    /// reference interpreter otherwise.
    Fresh,
}

/// Resource limits applied to each query execution.
///
/// Both limits are off by default. When a limit trips, execution stops
/// with [`EngineError::ResourceExhausted`] instead of materializing more
/// rows — so a widget interaction that instantiates a huge cross join
/// fails fast rather than hanging the session.
///
/// Limits guard live execution only: a result already in the result cache
/// is returned as-is, since its cost was already paid. The cache is shared
/// by every clone of a catalog, so a result one session (or generation)
/// computed is served to every other session on the same tables whatever
/// limits those sessions set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecLimits {
    /// Cap on rows materialized by any single operator (joins, cross
    /// products, output). `None` = unlimited.
    pub max_rows: Option<usize>,
    /// Wall-clock budget for one query execution. `None` = unlimited.
    pub timeout: Option<std::time::Duration>,
}

impl ExecLimits {
    /// Limits with only a row cap.
    pub fn rows(max_rows: usize) -> Self {
        ExecLimits { max_rows: Some(max_rows), timeout: None }
    }
}

/// A collection of named tables plus the query entry point.
///
/// Each table is held once, as the sealed [`ColumnarTable`] that
/// [`register`](Self::register) builds from a [`Table`]: the columnar
/// executor scans its typed vectors and the reference interpreter reads it
/// through its row cursor. Table lookup is case-insensitive. Tables are
/// stored behind `Arc` so that scans and notebook snapshots can share them
/// cheaply. One result cache of at most 256 `Arc<ResultSet>`s, keyed by
/// (catalog version, exact query structural hash), serves both the
/// interface search, which repeatedly executes the same candidate
/// instantiations, and every session's gestures. Clones share the cache;
/// registering a table moves a catalog to a fresh globally-unique version,
/// so diverged clones never see each other's results.
#[derive(Debug, Clone, Default)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<ColumnarTable>>,
    /// Globally-unique fingerprint of this catalog's table map; part of
    /// every cache key so clones that diverge (one registers a new table)
    /// can keep sharing the cache soundly.
    version: u64,
    cache: Arc<Mutex<ResultCache>>,
    limits: ExecLimits,
    /// Fast-path vs fallback execution tally, shared across clones.
    exec_counts: Arc<ExecCounts>,
    /// Zone-map pruning tallies, shared across clones.
    scan_stats: Arc<ScanStats>,
}

/// How many fresh (non-cached) executions took each path.
#[derive(Debug, Default)]
struct ExecCounts {
    columnar: AtomicU64,
    reference: AtomicU64,
}

/// Source of globally-unique catalog versions (see [`Catalog::register`]).
static NEXT_VERSION: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty catalog with the given execution limits.
    pub fn with_limits(limits: ExecLimits) -> Self {
        Catalog { limits, ..Self::default() }
    }

    /// Set the execution limits for subsequent queries.
    pub fn set_limits(&mut self, limits: ExecLimits) {
        self.limits = limits;
    }

    /// The execution limits applied to each query.
    pub fn limits(&self) -> ExecLimits {
        self.limits
    }

    /// The catalog's globally-unique content version. Every
    /// [`register`](Self::register) moves the catalog to a fresh version;
    /// clones share their source's version until they diverge. Two
    /// catalogs with the same version hold identical table data, which
    /// makes the version a sound catalog-identity input for cache keys
    /// (the engine's own result cache and the fleet generation cache both
    /// key on it).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Seal a table (see [`Table::seal`]) and register (or replace) it under
    /// its own name. The catalog moves to a fresh version, so previously
    /// cached results (including those shared with clones) no longer match
    /// its keys.
    pub fn register(&mut self, table: Table) {
        let key = table.name.to_lowercase();
        self.tables.insert(key, Arc::new(table.seal()));
        self.version = NEXT_VERSION.fetch_add(1, Ordering::Relaxed);
    }

    /// Look up a sealed table by name (case-insensitive): its schema,
    /// statistics and row cursor.
    pub fn get(&self, name: &str) -> Option<Arc<ColumnarTable>> {
        self.tables.get(&name.to_lowercase()).cloned()
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.values().map(|t| t.name.clone()).collect()
    }

    /// Execute a query against this catalog through the result cache.
    pub fn execute(&self, query: &Query) -> Result<Arc<ResultSet>> {
        self.execute_with(query, None).map(|(result, _)| result)
    }

    /// The one execution body: the shared result cache, then delta
    /// recomputation (only when the caller passes its own `delta` cache),
    /// then a full execution. A miss's result is cached for every clone;
    /// errors are never cached. The lock is held for the lookup and the
    /// insert only, never across execution.
    pub fn execute_with(
        &self,
        query: &Query,
        delta: Option<&mut DeltaCache>,
    ) -> Result<(Arc<ResultSet>, Obtained)> {
        #[cfg(feature = "faults")]
        if pi2_faults::exec_overrun() {
            return Err(EngineError::ResourceExhausted("injected execution overrun".into()));
        }
        let key = (self.version, query.structural_hash());
        if let Some(hit) = self.cache.lock().get(key) {
            return Ok((hit, Obtained::Cached));
        }
        let (result, obtained) = match delta.and_then(|d| self.execute_delta(query, d)) {
            Some((result, outcome)) => (result?, Obtained::Delta(outcome)),
            None => (self.execute_uncached(query)?, Obtained::Fresh),
        };
        let result = Arc::new(result);
        self.cache.lock().insert(key, Arc::clone(&result));
        Ok((result, obtained))
    }

    /// A full execution that neither consults nor fills the result cache:
    /// the columnar fast path when the query qualifies, the reference
    /// interpreter otherwise (used by benchmarks that measure raw engine
    /// latency).
    pub fn execute_uncached(&self, query: &Query) -> Result<ResultSet> {
        match crate::exec_columnar::try_execute(self, query) {
            Some(result) => {
                self.exec_counts.columnar.fetch_add(1, Ordering::Relaxed);
                result
            }
            None => {
                self.exec_counts.reference.fetch_add(1, Ordering::Relaxed);
                self.execute_reference(query)
            }
        }
    }

    /// Execute on the row-at-a-time reference path only, bypassing both the
    /// result cache and the columnar fast path. This is the semantic oracle:
    /// differential tests and benchmarks compare it against
    /// [`Catalog::execute_uncached`].
    pub fn execute_reference(&self, query: &Query) -> Result<ResultSet> {
        ExecCtx::new(self).execute(query)
    }

    /// How many full executions ran columnar vs on the reference fallback
    /// (shared across clones of this catalog).
    pub fn exec_path_counts(&self) -> (u64, u64) {
        (
            self.exec_counts.columnar.load(Ordering::Relaxed),
            self.exec_counts.reference.load(Ordering::Relaxed),
        )
    }

    /// Execute incrementally when only range-predicate bounds shifted since
    /// a previous dispatch of the same query template (see
    /// [`crate::delta`]), without consulting or filling the result cache.
    /// `None` means the query is outside the delta fragment and the caller
    /// should fall back to [`execute_uncached`](Self::execute_uncached);
    /// `Some` carries a result byte-identical to full execution plus how it
    /// was obtained.
    pub fn execute_delta(
        &self,
        query: &Query,
        cache: &mut DeltaCache,
    ) -> Option<(Result<ResultSet>, DeltaOutcome)> {
        crate::delta::execute(self, query, cache)
    }

    /// Zone-map block counters: `(blocks_scanned, blocks_pruned)` across
    /// every typed predicate loop run against this catalog (shared across
    /// clones).
    pub fn scan_counts(&self) -> (u64, u64) {
        (self.scan_stats.blocks_scanned(), self.scan_stats.blocks_pruned())
    }

    /// The shared scan counters (for the columnar executor).
    pub(crate) fn scan_stats(&self) -> Arc<ScanStats> {
        Arc::clone(&self.scan_stats)
    }

    /// Total wall-clock nanoseconds spent sealing the tables currently
    /// registered in this catalog.
    pub fn columnar_build_nanos(&self) -> u64 {
        self.tables.values().map(|t| t.build_nanos()).sum()
    }

    /// Parse and execute SQL text (through the result cache).
    pub fn execute_sql(&self, sql: &str) -> Result<Arc<ResultSet>> {
        let q = pi2_sql::parse_query(sql)
            .map_err(|e| EngineError::Unsupported(format!("parse error: {e}")))?;
        self.execute(&q)
    }

    /// Statistics for `table.column`, if both exist, from the table's
    /// lazily computed per-column cache (typed sort / dictionary read).
    pub fn column_stats(&self, table: &str, column: &str) -> Option<ColumnStats> {
        let table = self.tables.get(&table.to_lowercase())?;
        Some(table.column_stats(table.column_index(column)?).clone())
    }

    /// The free (correlation) variables of a query — see
    /// [`crate::exec::free_columns`].
    pub fn free_columns(&self, q: &Query) -> Vec<pi2_sql::ColumnRef> {
        crate::exec::free_columns(q, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::{DataType, Value};

    fn demo_catalog() -> Catalog {
        let mut c = Catalog::new();
        let mut t =
            Table::builder("T").column("a", DataType::Int).column("b", DataType::Str).build();
        t.push_row(vec![Value::Int(1), Value::str("x")]).unwrap();
        c.register(t);
        c
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let c = demo_catalog();
        assert!(c.get("t").is_some());
        assert!(c.get("T").is_some());
        assert!(c.get("u").is_none());
    }

    #[test]
    fn execute_sql_end_to_end() {
        let c = demo_catalog();
        let r = c.execute_sql("SELECT a FROM t").unwrap();
        assert_eq!(r.rows, vec![vec![Value::Int(1)]]);
        assert!(c.execute_sql("SELECT nope FROM t").is_err());
        assert!(c.execute_sql("this is not sql").is_err());
    }

    #[test]
    fn stats_accessor() {
        let c = demo_catalog();
        let s = c.column_stats("t", "a").unwrap();
        assert_eq!(s.min, Some(Value::Int(1)));
        assert!(c.column_stats("t", "nope").is_none());
    }

    fn wide_catalog(limits: ExecLimits) -> Catalog {
        let mut c = Catalog::with_limits(limits);
        for name in ["a", "b"] {
            let mut t = Table::builder(name).column("x", DataType::Int).build();
            for i in 0..50 {
                t.push_row(vec![Value::Int(i)]).unwrap();
            }
            c.register(t);
        }
        c
    }

    #[test]
    fn row_limit_refuses_large_cross_join() {
        let c = wide_catalog(ExecLimits::rows(100));
        // 50 × 50 = 2500 rows would be materialized: refused up front.
        let err = c.execute_sql("SELECT a.x FROM a, b").unwrap_err();
        assert!(matches!(err, EngineError::ResourceExhausted(_)), "got {err}");
        // Queries under the limit still run.
        let r = c.execute_sql("SELECT x FROM a WHERE x < 3").unwrap();
        assert_eq!(r.rows.len(), 3);
    }

    #[test]
    fn zero_timeout_fails_fast_instead_of_hanging() {
        let c =
            wide_catalog(ExecLimits { max_rows: None, timeout: Some(std::time::Duration::ZERO) });
        let err = c.execute_sql("SELECT a.x FROM a, b").unwrap_err();
        assert!(matches!(err, EngineError::ResourceExhausted(_)), "got {err}");
    }

    #[test]
    fn limits_survive_clone_and_default_is_unlimited() {
        let c = wide_catalog(ExecLimits::rows(10));
        assert_eq!(c.clone().limits(), ExecLimits::rows(10));
        let unlimited = wide_catalog(ExecLimits::default());
        let r = unlimited.execute_sql("SELECT a.x FROM a, b").unwrap();
        assert_eq!(r.rows.len(), 2500);
    }
}
