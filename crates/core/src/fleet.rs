//! Fleet-wide generation sharing: one cache of generated interfaces for
//! every session in the process.
//!
//! At fleet scale, `generate` is the capacity bottleneck (hundreds of
//! milliseconds under storm versus tens of microseconds per gesture), and
//! most of that work is redundant: thousands of users replaying the same
//! tutorial produce identical — or literal-only-different — query logs,
//! and PI2's interface is a deterministic function of the log's
//! *structural* diffs. So one *search* per **fingerprint** suffices for
//! the whole process. Literal values are not structural, but they are
//! also not free to share: hole defaults and un-widened discrete domains
//! come from the observed literals, so a caller whose log differs only in
//! literals is served a **respecialization** — the cached partition
//! replayed over the caller's own queries (see
//! [`FleetOutcome::Rebind`]) — never the leader's literal-bearing
//! artifacts verbatim.
//!
//! [`FleetHandle`] is the one shared-state object behind a single `Arc`:
//!
//! * a **generation cache** keyed by `(context, log)` fingerprint — the
//!   context covers everything besides the log that the outcome depends
//!   on (catalog version, cost weights, screen, strategy, budget), the
//!   log fingerprint is order-insensitive over the literal-free
//!   normalized queries ([`log_fingerprint`]);
//! * the **cost memo** ([`CostMemo`]) shared by every attached generator,
//!   replacing the deprecated per-[`Pi2`](crate::Pi2) memo wiring;
//! * a **single-flight** table: N concurrent generations of the same
//!   fingerprint elect one leader, and the rest block on (and are handed)
//!   the leader's result instead of repeating the search;
//! * an **admission limiter** capping concurrent *cold* generations.
//!   Overflow is never queued: it runs immediately under the clamped
//!   [`FleetConfig::overflow_budget`] and is truthfully labeled
//!   [`crate::DegradationLevel::Anytime`].
//!
//! Attach a handle with [`Pi2Builder::fleet`](crate::Pi2Builder::fleet):
//!
//! ```
//! use pi2_core::prelude::*;
//!
//! let fleet = FleetHandle::new(FleetConfig::new());
//! let catalog = pi2_datasets::toy::default_catalog();
//! let log = ["SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
//!            "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p"];
//!
//! let cold = Pi2::builder(catalog.clone()).fleet(&fleet).build().generate_sql(&log).unwrap();
//! // A second session (even another literal spelling) reuses the work.
//! let warm = Pi2::builder(catalog).fleet(&fleet).build().generate_sql(&log).unwrap();
//! assert_eq!(warm.interface, cold.interface);
//! assert_eq!(fleet.counters().hits, 1);
//! ```
//!
//! Only [`crate::DegradationLevel::Full`] results
//! are admitted to the cache: a degraded (anytime or fallback) interface
//! is served to the requests that raced with it, but never pinned where
//! it would shadow the full-quality result forever.

use crate::pipeline::{DegradationLevel, Pi2Error};
use pi2_cost::{combine_fingerprints, CostBreakdown, CostMemo};
use pi2_difftree::DiffForest;
use pi2_interface::Interface;
use pi2_sql::Query;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Order-insensitive fingerprint of a query log's interface-relevant
/// structure.
///
/// Each query is normalized with its literals erased
/// ([`pi2_sql::literal_free`]) and hashed; the per-query hashes are then
/// sorted and combined, so cell order never splits the cache (the cached
/// generation carries its own canonical query snapshot) while
/// multiplicity still counts — a log that repeats a query is not the log
/// that states it once. This generalizes a single normalized query's
/// structural hash and the order-insensitive
/// [`DiffForest::structural_hash`]: literal variation folds into the
/// widget binding domain instead of the key.
pub fn log_fingerprint(queries: &[Query]) -> u64 {
    let mut hashes: Vec<u64> =
        queries.iter().map(|q| pi2_sql::literal_free(q).structural_hash()).collect();
    hashes.sort_unstable();
    combine_fingerprints(&hashes)
}

/// A fleet cache key: `(context fingerprint, log fingerprint)`. The
/// context half is built by the generator from its catalog version, cost
/// weights, screen, strategy, merged budget, and degradation mode; see
/// [`combine_fingerprints`].
pub type FleetKey = (u64, u64);

/// Configuration for a [`FleetHandle`]. Builder-style and
/// `#[non_exhaustive]`: construct with [`FleetConfig::new`] (or
/// `Default`) and chain setters.
///
/// ```
/// use pi2_core::prelude::*;
/// use std::time::Duration;
///
/// let cfg = FleetConfig::new()
///     .capacity(4096)
///     .max_concurrent_cold(4)
///     .follower_wait(Some(Duration::from_secs(5)));
/// let fleet = FleetHandle::new(cfg);
/// assert!(fleet.is_empty());
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct FleetConfig {
    /// Cached generations retained (least-recently-used eviction).
    pub capacity: usize,
    /// Cap on concurrent cold generations for this handle. Leaders beyond
    /// the cap are **shed**: they still run immediately (no queueing) but
    /// under [`FleetConfig::overflow_budget`], and their result is labeled
    /// [`crate::DegradationLevel::Anytime`].
    /// `0` sheds every cold generation (useful for tests and drain).
    pub max_concurrent_cold: usize,
    /// Budget clamped onto shed generations (tightest limit wins).
    pub overflow_budget: pi2_mcts::GenerationBudget,
    /// How long a single-flight follower waits for its leader before
    /// giving up and generating privately. `None` waits indefinitely.
    pub follower_wait: Option<Duration>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            capacity: 1024,
            max_concurrent_cold: pi2_mcts::default_workers(),
            overflow_budget: pi2_mcts::GenerationBudget::with_deadline(Duration::from_millis(25)),
            follower_wait: Some(Duration::from_secs(10)),
        }
    }
}

impl FleetConfig {
    /// The default configuration (alias for `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the cache capacity (entries).
    pub fn capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity;
        self
    }

    /// Set the concurrent cold-generation cap.
    pub fn max_concurrent_cold(mut self, cap: usize) -> Self {
        self.max_concurrent_cold = cap;
        self
    }

    /// Set the budget clamped onto shed (over-admission) generations.
    pub fn overflow_budget(mut self, budget: pi2_mcts::GenerationBudget) -> Self {
        self.overflow_budget = budget;
        self
    }

    /// Set how long single-flight followers wait for their leader.
    pub fn follower_wait(mut self, wait: Option<Duration>) -> Self {
        self.follower_wait = wait;
        self
    }
}

/// How the fleet cache participated in one `generate` call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum FleetOutcome {
    /// Served from the generation cache; no search ran.
    Hit,
    /// This call led a cold generation (and published it).
    Miss,
    /// This call joined another call's in-flight generation.
    Join,
    /// This call led a cold generation but was shed by admission control:
    /// it ran under the overflow budget and reports `Anytime`.
    Shed,
    /// Served by respecializing a cached generation: the caller's log
    /// shares the entry's literal-free fingerprint but differs in literal
    /// values (or order), so the cached *partition* was replayed over the
    /// caller's own queries — no search ran, and no other session's
    /// literals were served.
    Rebind,
    /// This call followed an in-flight leader but gave up waiting
    /// ([`FleetConfig::follower_wait`]) and generated privately.
    JoinTimeout,
}

impl std::fmt::Display for FleetOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetOutcome::Hit => write!(f, "hit"),
            FleetOutcome::Miss => write!(f, "miss"),
            FleetOutcome::Join => write!(f, "join"),
            FleetOutcome::Shed => write!(f, "shed"),
            FleetOutcome::Rebind => write!(f, "rebind"),
            FleetOutcome::JoinTimeout => write!(f, "join-timeout"),
        }
    }
}

/// A point-in-time snapshot of a handle's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct FleetCounters {
    /// Generations served verbatim from the cache (the caller's log is
    /// exactly the cached snapshot).
    pub hits: u64,
    /// Cold generations led (each one ran the full pipeline once).
    pub misses: u64,
    /// Calls that joined an in-flight leader instead of searching.
    pub joins: u64,
    /// Cold generations shed by admission control (subset of `misses`).
    pub sheds: u64,
    /// Generations served by respecializing a cached entry onto the
    /// caller's own literals ([`FleetOutcome::Rebind`]).
    pub rebinds: u64,
    /// Followers that gave up waiting on their leader and generated
    /// privately ([`FleetOutcome::JoinTimeout`]).
    pub join_timeouts: u64,
    /// Generations currently cached.
    pub entries: usize,
}

/// The complete cached outcome of one full-quality generation. The query
/// snapshot, forest, and interface are the *leader's*: they are served
/// verbatim only to callers whose log equals the snapshot exactly.
/// Literal-variant and reordered logs map to the same key but are served
/// a respecialization built from the forest's partition and the caller's
/// own queries ([`FleetOutcome::Rebind`]), so one session's literals
/// never reach another.
#[derive(Debug)]
pub struct CachedGeneration {
    /// The leader's query snapshot.
    pub queries: Vec<Query>,
    /// The DiffTree forest behind the interface.
    pub forest: DiffForest,
    /// The generated interface.
    pub interface: Interface,
    /// Its cost breakdown.
    pub cost: CostBreakdown,
    /// Candidates the winning search considered.
    pub candidates_considered: usize,
}

/// What a single-flight leader publishes to its followers: the generated
/// artifacts plus the truthful degradation label (followers of a shed or
/// fallen-back leader must not report `Full`).
#[derive(Debug, Clone)]
pub(crate) struct FlightOutcome {
    pub(crate) generation: Arc<CachedGeneration>,
    pub(crate) degradation: DegradationLevel,
    pub(crate) degradation_reason: Option<String>,
}

enum FlightState {
    Pending,
    Done(Result<FlightOutcome, Pi2Error>),
}

/// One in-flight generation that followers can wait on.
pub(crate) struct Flight {
    state: Mutex<FlightState>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Self {
        Flight { state: Mutex::new(FlightState::Pending), cv: Condvar::new() }
    }

    fn publish(&self, result: Result<FlightOutcome, Pi2Error>) {
        *lock(&self.state) = FlightState::Done(result);
        self.cv.notify_all();
    }

    /// Wait for the leader's result; `None` on timeout.
    fn wait(&self, timeout: Option<Duration>) -> Option<Result<FlightOutcome, Pi2Error>> {
        let deadline = timeout.map(|t| Instant::now() + t);
        let mut state = lock(&self.state);
        loop {
            if let FlightState::Done(result) = &*state {
                return Some(result.clone());
            }
            state = match deadline {
                None => self.cv.wait(state).unwrap_or_else(std::sync::PoisonError::into_inner),
                Some(d) => {
                    let remaining = d.checked_duration_since(Instant::now())?;
                    self.cv
                        .wait_timeout(state, remaining)
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .0
                }
            };
        }
    }
}

/// The role [`FleetHandle::begin`] assigns a generation request.
pub(crate) enum Role {
    /// The cache filled between lookup and election; use this result.
    Cached(Arc<CachedGeneration>),
    /// This request leads: run the generation, then publish through the
    /// lease.
    Lead(FlightLease),
    /// Another request is already generating this key; wait on it.
    Follow(Arc<Flight>),
}

/// A leader's obligation to publish. If dropped without publishing (the
/// generation path panicked past its own isolation), followers are woken
/// with an error instead of hanging forever.
pub(crate) struct FlightLease {
    inner: Arc<FleetInner>,
    key: FleetKey,
    flight: Arc<Flight>,
    published: bool,
}

impl FlightLease {
    /// Publish the leader's result: cache it when it is full-quality,
    /// retire the flight, and wake every follower.
    pub(crate) fn publish(mut self, result: &Result<FlightOutcome, Pi2Error>) {
        self.published = true;
        if let Ok(outcome) = result {
            if outcome.degradation == DegradationLevel::Full {
                self.inner.insert(self.key, Arc::clone(&outcome.generation));
            }
        }
        lock(&self.inner.inflight).remove(&self.key);
        self.flight.publish(result.clone());
    }
}

impl Drop for FlightLease {
    fn drop(&mut self) {
        if !self.published {
            lock(&self.inner.inflight).remove(&self.key);
            self.flight.publish(Err(Pi2Error::WorkerPanic(
                "single-flight leader abandoned the generation".to_string(),
            )));
        }
    }
}

/// An admission permit for one cold generation; dropping it releases the
/// slot. [`None`](Option::None) from [`FleetHandle::admit`] means the
/// request was shed.
pub(crate) struct ColdPermit {
    inner: Arc<FleetInner>,
}

impl Drop for ColdPermit {
    fn drop(&mut self) {
        self.inner.cold_in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

struct FleetInner {
    config: FleetConfig,
    memo: Arc<CostMemo>,
    /// `key -> (last-use tick, generation)`; scanned for the oldest tick
    /// on eviction (capacities are small enough that O(n) eviction is
    /// cheaper than threading a list through the map).
    cache: Mutex<HashMap<FleetKey, (u64, Arc<CachedGeneration>)>>,
    tick: AtomicU64,
    inflight: Mutex<HashMap<FleetKey, Arc<Flight>>>,
    cold_in_flight: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    joins: AtomicU64,
    sheds: AtomicU64,
    rebinds: AtomicU64,
    join_timeouts: AtomicU64,
}

impl FleetInner {
    fn insert(&self, key: FleetKey, generation: Arc<CachedGeneration>) {
        if self.config.capacity == 0 {
            return;
        }
        let mut cache = lock(&self.cache);
        let tick = self.tick.fetch_add(1, Ordering::Relaxed);
        cache.insert(key, (tick, generation));
        while cache.len() > self.config.capacity {
            if let Some(oldest) = cache.iter().min_by_key(|(_, (t, _))| *t).map(|(k, _)| *k) {
                cache.remove(&oldest);
            } else {
                break;
            }
        }
    }
}

/// The process-wide shared state for interface generation: generation
/// cache, cost memo, single-flight table, and admission limiter behind
/// one `Arc`. Clone the handle freely — clones share everything. See the
/// [module docs](self) for the full story.
#[derive(Clone)]
pub struct FleetHandle {
    inner: Arc<FleetInner>,
    wait: Option<Duration>,
}

impl Default for FleetHandle {
    fn default() -> Self {
        Self::new(FleetConfig::default())
    }
}

impl FleetHandle {
    /// A fresh handle with its own cache, memo, and limiter.
    pub fn new(config: FleetConfig) -> Self {
        let wait = config.follower_wait;
        FleetHandle {
            inner: Arc::new(FleetInner {
                config,
                memo: Arc::new(CostMemo::new()),
                cache: Mutex::new(HashMap::new()),
                tick: AtomicU64::new(0),
                inflight: Mutex::new(HashMap::new()),
                cold_in_flight: AtomicUsize::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                joins: AtomicU64::new(0),
                sheds: AtomicU64::new(0),
                rebinds: AtomicU64::new(0),
                join_timeouts: AtomicU64::new(0),
            }),
            wait,
        }
    }

    /// A clone of this handle whose single-flight followers wait at most
    /// `wait` (`None` = indefinitely) — shared state is untouched, so a
    /// server can honor a per-session `wait_ms` without forking the cache.
    pub fn with_follower_wait(mut self, wait: Option<Duration>) -> Self {
        self.wait = wait;
        self
    }

    /// The cost memo shared by every generator attached to this handle.
    pub fn memo(&self) -> &Arc<CostMemo> {
        &self.inner.memo
    }

    /// The handle's configuration.
    pub fn config(&self) -> &FleetConfig {
        &self.inner.config
    }

    /// Point-in-time counters.
    pub fn counters(&self) -> FleetCounters {
        FleetCounters {
            hits: self.inner.hits.load(Ordering::Relaxed),
            misses: self.inner.misses.load(Ordering::Relaxed),
            joins: self.inner.joins.load(Ordering::Relaxed),
            sheds: self.inner.sheds.load(Ordering::Relaxed),
            rebinds: self.inner.rebinds.load(Ordering::Relaxed),
            join_timeouts: self.inner.join_timeouts.load(Ordering::Relaxed),
            entries: self.len(),
        }
    }

    /// Cached generations.
    pub fn len(&self) -> usize {
        lock(&self.inner.cache).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drop every cached generation (counters are kept).
    pub fn clear(&self) {
        lock(&self.inner.cache).clear();
    }

    /// Cache lookup, refreshing recency. How the serve is counted (hit,
    /// rebind, or fall-through miss) is decided by the caller once it
    /// knows how the entry relates to its log — see [`FleetHandle::note_hit`].
    pub(crate) fn lookup(&self, key: FleetKey) -> Option<Arc<CachedGeneration>> {
        let mut cache = lock(&self.inner.cache);
        let entry = cache.get_mut(&key)?;
        entry.0 = self.inner.tick.fetch_add(1, Ordering::Relaxed);
        Some(Arc::clone(&entry.1))
    }

    /// Count a verbatim cache serve ([`FleetOutcome::Hit`]).
    pub(crate) fn note_hit(&self) {
        self.inner.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a respecialized cache serve ([`FleetOutcome::Rebind`]).
    pub(crate) fn note_rebind(&self) {
        self.inner.rebinds.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a cold generation that ran outside leader election (a cached
    /// entry existed but could not serve the caller's log).
    pub(crate) fn note_miss(&self) {
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Elect a role for `key`: leader (with a publish lease), follower of
    /// the current leader, or — when the leader finished between the
    /// caller's cache miss and this call — the freshly cached result.
    /// The cache re-check and flight insertion happen under one lock, so
    /// exactly one generation runs per fingerprint.
    pub(crate) fn begin(&self, key: FleetKey) -> Role {
        let mut inflight = lock(&self.inner.inflight);
        if let Some(flight) = inflight.get(&key) {
            return Role::Follow(Arc::clone(flight));
        }
        // `publish` caches before retiring the flight (both under this
        // lock), so a missing flight with a cached entry is authoritative.
        if let Some(entry) = lock(&self.inner.cache).get(&key) {
            return Role::Cached(Arc::clone(&entry.1));
        }
        let flight = Arc::new(Flight::new());
        inflight.insert(key, Arc::clone(&flight));
        self.inner.misses.fetch_add(1, Ordering::Relaxed);
        Role::Lead(FlightLease { inner: Arc::clone(&self.inner), key, flight, published: false })
    }

    /// Try to admit one cold generation under the concurrency cap.
    /// `None` means the request is shed (it must run with the overflow
    /// budget and report `Anytime`) — overflow never queues.
    pub(crate) fn admit(&self) -> Option<ColdPermit> {
        let cap = self.inner.config.max_concurrent_cold;
        let admitted = self
            .inner
            .cold_in_flight
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| (n < cap).then_some(n + 1))
            .is_ok();
        if admitted {
            Some(ColdPermit { inner: Arc::clone(&self.inner) })
        } else {
            self.inner.sheds.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// Wait on another leader's flight. The join is counted only once the
    /// flight yields a result; a follower that gives up first is counted
    /// as a join timeout instead (it never consumed the leader's work).
    pub(crate) fn join(&self, flight: &Arc<Flight>) -> Option<Result<FlightOutcome, Pi2Error>> {
        let result = flight.wait(self.wait);
        match result {
            Some(_) => self.inner.joins.fetch_add(1, Ordering::Relaxed),
            None => self.inner.join_timeouts.fetch_add(1, Ordering::Relaxed),
        };
        result
    }
}

impl std::fmt::Debug for FleetHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetHandle")
            .field("config", &self.inner.config)
            .field("counters", &self.counters())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_sql::parse_query;

    fn q(sql: &str) -> Query {
        parse_query(sql).unwrap()
    }

    #[test]
    fn log_fingerprint_folds_literals_and_order() {
        let a = [
            q("SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p"),
            q("SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p"),
        ];
        // Different literals, different cell order: same fingerprint.
        let b = [
            q("SELECT p, count(*) FROM t WHERE a = 9 GROUP BY p"),
            q("SELECT p, count(*) FROM t WHERE a = 4 GROUP BY p"),
        ];
        assert_eq!(log_fingerprint(&a), log_fingerprint(&b));

        // A structural difference (another grouping column) splits it.
        let c = [
            q("SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p"),
            q("SELECT b, count(*) FROM t WHERE a = 2 GROUP BY b"),
        ];
        assert_ne!(log_fingerprint(&a), log_fingerprint(&c));

        // Multiplicity counts: [q] vs [q, q] are different logs.
        let one = [q("SELECT x FROM t WHERE a = 1")];
        let two = [q("SELECT x FROM t WHERE a = 1"), q("SELECT x FROM t WHERE a = 2")];
        assert_ne!(log_fingerprint(&one), log_fingerprint(&two));
    }

    #[test]
    fn lru_evicts_the_oldest_entry() {
        let handle = FleetHandle::new(FleetConfig::new().capacity(2));
        let generation = || {
            Arc::new(CachedGeneration {
                queries: Vec::new(),
                forest: DiffForest { trees: Vec::new() },
                interface: Interface {
                    charts: Vec::new(),
                    widgets: Vec::new(),
                    layout: pi2_interface::Layout::Vertical(Vec::new()),
                    screen: pi2_interface::ScreenSpec::default(),
                },
                cost: CostBreakdown {
                    expressive: true,
                    viz: 0.0,
                    interaction: 0.0,
                    layout: 0.0,
                    views: 0.0,
                    generalization: 0.0,
                    total: 0.0,
                },
                candidates_considered: 0,
            })
        };
        handle.inner.insert((0, 1), generation());
        handle.inner.insert((0, 2), generation());
        assert!(handle.lookup((0, 1)).is_some()); // refresh 1: 2 is now oldest
        handle.inner.insert((0, 3), generation());
        assert_eq!(handle.len(), 2);
        assert!(handle.lookup((0, 2)).is_none());
        assert!(handle.lookup((0, 1)).is_some());
        assert!(handle.lookup((0, 3)).is_some());
    }

    #[test]
    fn admission_cap_sheds_overflow_without_queueing() {
        let handle = FleetHandle::new(FleetConfig::new().max_concurrent_cold(2));
        let a = handle.admit();
        let b = handle.admit();
        assert!(a.is_some() && b.is_some());
        // Third concurrent cold generation: shed immediately.
        assert!(handle.admit().is_none());
        assert_eq!(handle.counters().sheds, 1);
        drop(a);
        // Releasing a permit re-opens the slot.
        assert!(handle.admit().is_some());
    }

    #[test]
    fn join_counts_only_after_the_flight_yields() {
        let handle = FleetHandle::new(FleetConfig::new().follower_wait(Some(Duration::ZERO)));
        let key = (3, 3);
        let Role::Lead(lease) = handle.begin(key) else { panic!("expected leadership") };
        let Role::Follow(flight) = handle.begin(key) else { panic!("expected follower") };
        // The leader is still working: a zero-patience follower times out
        // and is counted as such, never as a join.
        assert!(handle.join(&flight).is_none());
        let c = handle.counters();
        assert_eq!((c.joins, c.join_timeouts), (0, 1));
        // Once the flight yields (here: the leader's abandonment error),
        // waiting on it counts as a join.
        drop(lease);
        assert!(matches!(handle.join(&flight), Some(Err(_))));
        let c = handle.counters();
        assert_eq!((c.joins, c.join_timeouts), (1, 1));
    }

    #[test]
    fn abandoned_leader_wakes_followers_with_an_error() {
        let handle = FleetHandle::new(FleetConfig::new());
        let key = (7, 7);
        let Role::Lead(lease) = handle.begin(key) else { panic!("expected leadership") };
        let Role::Follow(flight) = handle.begin(key) else { panic!("expected follower") };
        drop(lease); // leader dies without publishing
        match flight.wait(Some(Duration::from_secs(5))) {
            Some(Err(Pi2Error::WorkerPanic(_))) => {}
            other => panic!("expected WorkerPanic, got {other:?}"),
        }
        // The flight is retired; the next request leads afresh.
        assert!(matches!(handle.begin(key), Role::Lead(_)));
    }
}
