//! The end-to-end generation pipeline and its public entry point.

use crate::fleet::{self, CachedGeneration, FleetHandle, FleetOutcome, FlightOutcome, Role};
use crate::problem::InterfaceSearch;
use pi2_cost::{combine_fingerprints, weights_fingerprint, CostBreakdown, CostMemo, CostWeights};
use pi2_difftree::{merge_queries, DiffForest};
use pi2_engine::Catalog;
use pi2_interface::{map_forest, Interface, MapperConfig, ScreenSpec};
use pi2_mcts::{greedy_with_budget, mcts_parallel, GenerationBudget, MctsConfig, SearchStats};
use pi2_sql::Query;
use pi2_telemetry::{Registry, Snapshot};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How to explore the space of DiffTree forests.
#[derive(Debug, Clone)]
pub enum SearchStrategy {
    /// Full Monte-Carlo Tree Search (the paper's choice). Runs
    /// [`MctsConfig::workers`] root-parallel trees sharing one reward cache.
    Mcts(MctsConfig),
    /// Greedy hill climbing with an evaluation budget (ablation baseline).
    Greedy {
        /// Reward-evaluation budget.
        max_evaluations: usize,
    },
    /// No search: merge everything into one tree, canonicalize, map. The
    /// fast path used when the log is small and obviously coherent.
    FullMerge,
}

impl Default for SearchStrategy {
    fn default() -> Self {
        // rollout_depth, seed, and workers come from MctsConfig::default();
        // only the iteration budget is pipeline-specific.
        SearchStrategy::Mcts(MctsConfig { iterations: 120, ..Default::default() })
    }
}

/// Errors from the generation pipeline.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum Pi2Error {
    /// The SQL text failed to parse. The underlying [`pi2_sql::ParseError`]
    /// (with line/column position) is available via [`std::error::Error::source`].
    Parse(pi2_sql::ParseError),
    /// The query log is empty.
    EmptyLog,
    /// Interface mapping failed.
    Map(String),
    /// No candidate expresses every query.
    NoExpressiveInterface,
    /// The search produced no result at all — every worker panicked (or
    /// the sequential search itself panicked). Only surfaced when graceful
    /// degradation is disabled; otherwise the pipeline falls back to the
    /// no-search baseline interface instead.
    WorkerPanic(String),
}

impl fmt::Display for Pi2Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Pi2Error::Parse(e) => write!(f, "parse error: {e}"),
            Pi2Error::EmptyLog => write!(f, "the query log is empty"),
            Pi2Error::Map(m) => write!(f, "mapping failed: {m}"),
            Pi2Error::NoExpressiveInterface => {
                write!(f, "no candidate interface expresses every query in the log")
            }
            Pi2Error::WorkerPanic(m) => write!(f, "search failed: {m}"),
        }
    }
}

impl std::error::Error for Pi2Error {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Pi2Error::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<pi2_sql::ParseError> for Pi2Error {
    fn from(e: pi2_sql::ParseError) -> Self {
        Pi2Error::Parse(e)
    }
}

/// How much of the full generation pipeline produced the returned
/// interface. Ordered from best to worst.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum DegradationLevel {
    /// The search ran to completion; the interface is the searched optimum.
    #[default]
    Full,
    /// The [`GenerationBudget`] expired mid-search; the interface is the
    /// best candidate found before expiry (still searched, still costed).
    Anytime,
    /// Search failed or produced nothing expressive; the interface is the
    /// deterministic no-search baseline (one static chart per query).
    Fallback,
}

impl fmt::Display for DegradationLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationLevel::Full => write!(f, "full"),
            DegradationLevel::Anytime => write!(f, "anytime"),
            DegradationLevel::Fallback => write!(f, "fallback"),
        }
    }
}

/// Statistics from one generation run.
#[derive(Debug, Clone, Default)]
pub struct GenerationStats {
    /// Total wall-clock time of the run.
    pub elapsed: Duration,
    /// Candidates enumerated for the final (winning) forest.
    pub candidates_considered: usize,
    /// Search-layer statistics (iterations, workers, reward cache), when a
    /// search strategy ran.
    pub search: Option<SearchStats>,
    /// Per-phase timings for this run: `phase.parse`, `phase.search`,
    /// `phase.map`, `phase.cost` and, on a degraded run, `phase.fallback`
    /// (read them with [`GenerationStats::phase`]).
    pub telemetry: Snapshot,
    /// Cost-memo lookups this run answered from cache (includes entries
    /// memoized by *earlier* runs of the same [`Pi2`]).
    pub memo_hits: u64,
    /// Cost-memo lookups this run that had to map and cost.
    pub memo_misses: u64,
    /// Total entries in the shared memo after this run.
    pub memo_entries: usize,
    /// How much of the pipeline produced this interface (see
    /// [`DegradationLevel`]).
    pub degradation: DegradationLevel,
    /// Why the run degraded, when `degradation` is not `Full`.
    pub degradation_reason: Option<String>,
    /// How the fleet generation cache participated, when a
    /// [`FleetHandle`] is attached (`None` without one).
    pub fleet: Option<FleetOutcome>,
}

impl GenerationStats {
    /// Fraction of cost-memo lookups served from cache this run, if any.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.memo_hits + self.memo_misses;
        if total == 0 {
            None
        } else {
            Some(self.memo_hits as f64 / total as f64)
        }
    }

    /// Accumulated time of one pipeline phase (`"parse"`, `"search"`,
    /// `"map"`, `"cost"`), zero if the phase never ran.
    pub fn phase(&self, name: &str) -> Duration {
        self.telemetry.timer_total(&format!("phase.{name}"))
    }
}

/// The result of a generation: the chosen interface, the DiffTree forest
/// behind it, the cost breakdown, and a snapshot of the input queries
/// (the paper: "we take a snapshot of the queries used to generate a new
/// interface ... to adapt to edits and ensure reproducibility").
#[derive(Debug, Clone)]
pub struct GeneratedInterface {
    /// The input query log.
    pub queries: Vec<Query>,
    /// The DiffTree forest behind the interface.
    pub forest: DiffForest,
    /// The produced interface.
    pub interface: Interface,
    /// Cost breakdown of the chosen interface.
    pub cost: CostBreakdown,
    /// Generation statistics.
    pub stats: GenerationStats,
}

impl GeneratedInterface {
    /// Open an interactive session over this interface. Equivalent to
    /// [`Pi2::session`] but usable without keeping the generator around.
    pub fn session(&self, catalog: &Catalog) -> crate::session::InterfaceSession {
        crate::session::SessionBuilder::new(
            catalog.clone(),
            self.forest.clone(),
            self.interface.clone(),
        )
        .queries(&self.queries)
        .build()
    }
}

/// Builder for [`Pi2`].
pub struct Pi2Builder {
    catalog: Catalog,
    screen: ScreenSpec,
    weights: CostWeights,
    strategy: SearchStrategy,
    budget: GenerationBudget,
    graceful: bool,
    fleet: Option<FleetHandle>,
}

impl Pi2Builder {
    /// The screen available to the generated interface (paper: "PI2 takes
    /// the available screen size into account").
    pub fn screen(mut self, screen: ScreenSpec) -> Self {
        self.screen = screen;
        self
    }

    /// Override cost weights.
    pub fn weights(mut self, weights: CostWeights) -> Self {
        self.weights = weights;
        self
    }

    /// Override the search strategy.
    pub fn strategy(mut self, strategy: SearchStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Resource budget for each `generate` call. Limits set here override
    /// the corresponding limits of the strategy's own [`MctsConfig`]
    /// budget. On expiry the search stops and the best-so-far interface is
    /// returned with [`DegradationLevel::Anytime`].
    pub fn budget(mut self, budget: GenerationBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Convenience: set only a wall-clock deadline on the budget.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.budget.deadline = Some(deadline);
        self
    }

    /// Whether a failed search degrades to the deterministic no-search
    /// fallback interface (`true`, the default) or surfaces a structured
    /// error such as [`Pi2Error::WorkerPanic`] (`false`).
    pub fn graceful_degradation(mut self, enabled: bool) -> Self {
        self.graceful = enabled;
        self
    }

    /// Attach the process-wide [`FleetHandle`]: this generator serves
    /// repeated logs from the shared generation cache, joins in-flight
    /// generations of the same fingerprint instead of repeating them,
    /// respects the handle's admission cap, and uses the handle's shared
    /// [`CostMemo`] in place of a private one.
    pub fn fleet(mut self, handle: &FleetHandle) -> Self {
        self.fleet = Some(handle.clone());
        self
    }

    /// Build.
    pub fn build(self) -> Pi2 {
        let memo = match &self.fleet {
            Some(handle) => Arc::clone(handle.memo()),
            None => Arc::new(CostMemo::new()),
        };
        Pi2 {
            catalog: self.catalog,
            screen: self.screen,
            weights: self.weights,
            strategy: self.strategy,
            budget: self.budget,
            graceful: self.graceful,
            fleet: self.fleet,
            memo,
        }
    }
}

/// The PI2 interface generator.
///
/// Holds a [`CostMemo`] shared by every `generate` call. The memo's
/// context key includes the query log, so it answers a regeneration over
/// the same log (`regen_latency`'s warm row hits every lookup); after a
/// notebook edit the log differs and it almost never hits.
pub struct Pi2 {
    catalog: Catalog,
    screen: ScreenSpec,
    weights: CostWeights,
    strategy: SearchStrategy,
    budget: GenerationBudget,
    graceful: bool,
    fleet: Option<FleetHandle>,
    memo: Arc<CostMemo>,
}

impl Pi2 {
    /// Start building a generator over `catalog`.
    pub fn builder(catalog: Catalog) -> Pi2Builder {
        Pi2Builder {
            catalog,
            screen: ScreenSpec::default(),
            weights: CostWeights::default(),
            strategy: SearchStrategy::default(),
            budget: GenerationBudget::default(),
            graceful: true,
            fleet: None,
        }
    }

    /// The catalog this generator executes against.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The attached fleet handle, if any.
    pub fn fleet(&self) -> Option<&FleetHandle> {
        self.fleet.as_ref()
    }

    /// Generate an interface from SQL text.
    pub fn generate_sql(&self, sql: &[&str]) -> Result<GeneratedInterface, Pi2Error> {
        let telemetry = Arc::new(Registry::new());
        let queries: Vec<Query> = telemetry.time("phase.parse", || {
            sql.iter()
                .map(|s| pi2_sql::parse_query(s).map_err(Pi2Error::from))
                .collect::<Result<_, _>>()
        })?;
        self.generate_with(&queries, telemetry)
    }

    /// Generate an interface from a parsed query log.
    pub fn generate(&self, queries: &[Query]) -> Result<GeneratedInterface, Pi2Error> {
        self.generate_with(queries, Arc::new(Registry::new()))
    }

    /// The generator's budget layered over a strategy-level budget:
    /// builder-level limits win where set, the strategy's remain otherwise.
    fn merged_budget(&self, base: &GenerationBudget) -> GenerationBudget {
        GenerationBudget {
            deadline: self.budget.deadline.or(base.deadline),
            max_iterations: self.budget.max_iterations.or(base.max_iterations),
            max_states: self.budget.max_states.or(base.max_states),
        }
    }

    fn generate_with(
        &self,
        queries: &[Query],
        telemetry: Arc<Registry>,
    ) -> Result<GeneratedInterface, Pi2Error> {
        if queries.is_empty() {
            return Err(Pi2Error::EmptyLog);
        }
        match self.fleet.clone() {
            Some(handle) => self.generate_fleet(&handle, queries, telemetry),
            None => self.generate_cold(queries, telemetry, None),
        }
    }

    /// The context half of the fleet cache key: everything besides the
    /// query log that determines the generation outcome. Catalog identity
    /// and execution limits are included because binding domains and
    /// costing consult the data.
    fn fleet_context(&self) -> u64 {
        let strategy_fp = match &self.strategy {
            SearchStrategy::Mcts(cfg) => {
                let mut cfg = cfg.clone();
                cfg.budget = self.merged_budget(&cfg.budget);
                combine_fingerprints(&[1, cfg.fingerprint()])
            }
            SearchStrategy::Greedy { max_evaluations } => combine_fingerprints(&[
                2,
                *max_evaluations as u64,
                self.merged_budget(&GenerationBudget::default()).fingerprint(),
            ]),
            SearchStrategy::FullMerge => combine_fingerprints(&[3]),
        };
        let limits = self.catalog.limits();
        combine_fingerprints(&[
            self.catalog.version(),
            weights_fingerprint(&self.weights),
            self.screen.width as u64,
            self.screen.height as u64,
            strategy_fp,
            u64::from(self.graceful),
            limits.max_rows.map_or(0, |n| n as u64 + 1),
            // `+ 1` disambiguates a zero timeout from no timeout, exactly
            // as for `max_rows` above.
            limits.timeout.map_or(0, |t| (t.as_nanos() as u64).saturating_add(1)),
        ])
    }

    /// Generate through the fleet: a cache serve (verbatim hit or a
    /// literal-variant rebind), a single-flight join, or a led cold
    /// generation (admitted or shed) that publishes its result.
    fn generate_fleet(
        &self,
        handle: &FleetHandle,
        queries: &[Query],
        telemetry: Arc<Registry>,
    ) -> Result<GeneratedInterface, Pi2Error> {
        let start = Instant::now();
        let key = (self.fleet_context(), fleet::log_fingerprint(queries));
        if let Some(cached) = handle.lookup(key) {
            return self.serve_shared(
                handle,
                &cached,
                DegradationLevel::Full,
                None,
                FleetOutcome::Hit,
                queries,
                start,
                telemetry,
            );
        }
        match handle.begin(key) {
            Role::Cached(cached) => self.serve_shared(
                handle,
                &cached,
                DegradationLevel::Full,
                None,
                FleetOutcome::Hit,
                queries,
                start,
                telemetry,
            ),
            Role::Follow(flight) => match handle.join(&flight) {
                Some(Ok(outcome)) => self.serve_shared(
                    handle,
                    &outcome.generation,
                    outcome.degradation,
                    outcome.degradation_reason,
                    FleetOutcome::Join,
                    queries,
                    start,
                    telemetry,
                ),
                // The leader failed; take the normal degradation path
                // (fallback interface in graceful mode, the error itself
                // otherwise), recording that this call did consume the
                // flight's result.
                Some(Err(err)) => {
                    let mut result = self.degrade(queries, start, telemetry, None, err);
                    if let Ok(g) = &mut result {
                        g.stats.fleet = Some(FleetOutcome::Join);
                    }
                    result
                }
                // The leader outlived our patience (counted as a join
                // timeout, not a join); generate privately without
                // publishing (the leader keeps the lease).
                None => {
                    let mut result = self.generate_cold(queries, telemetry, None);
                    if let Ok(g) = &mut result {
                        g.stats.fleet = Some(FleetOutcome::JoinTimeout);
                    }
                    result
                }
            },
            Role::Lead(lease) => {
                let permit = handle.admit();
                let shed = permit.is_none();
                let overflow = shed.then(|| handle.config().overflow_budget.clone());
                let mut result = self.generate_cold(queries, telemetry, overflow.as_ref());
                drop(permit);
                if shed {
                    if let Ok(g) = &mut result {
                        // A fallback stays a fallback; anything better is
                        // truthfully at most Anytime once shed, and the
                        // reason records the admission decision.
                        if g.stats.degradation <= DegradationLevel::Anytime {
                            g.stats.degradation = DegradationLevel::Anytime;
                            g.stats.degradation_reason =
                                Some(match g.stats.degradation_reason.take() {
                                    Some(prior) => format!(
                                        "admission control shed this cold generation \
                                         (overflow budget applied); {prior}"
                                    ),
                                    None => "admission control shed this cold generation; it \
                                             ran immediately under the overflow budget"
                                        .to_string(),
                                });
                        }
                    }
                }
                let flight_result = match &result {
                    Ok(g) => Ok(FlightOutcome {
                        generation: Arc::new(CachedGeneration {
                            queries: g.queries.clone(),
                            forest: g.forest.clone(),
                            interface: g.interface.clone(),
                            cost: g.cost.clone(),
                            candidates_considered: g.stats.candidates_considered,
                        }),
                        degradation: g.stats.degradation,
                        degradation_reason: g.stats.degradation_reason.clone(),
                    }),
                    Err(e) => Err(e.clone()),
                };
                lease.publish(&flight_result);
                if let Ok(g) = &mut result {
                    g.stats.fleet =
                        Some(if shed { FleetOutcome::Shed } else { FleetOutcome::Miss });
                }
                result
            }
        }
    }

    /// Serve a cached (or just-published) generation to this caller:
    /// verbatim when the caller's log is exactly the cached snapshot,
    /// respecialized onto the caller's own literals otherwise, and by a
    /// private cold generation when respecialization cannot express the
    /// caller's log. Generated artifacts depend on literal values (hole
    /// defaults, un-widened discrete domains), so the leader's artifacts
    /// are never handed to a caller with a different log — that would
    /// both break expressiveness on the caller's queries and leak another
    /// session's literals.
    #[allow(clippy::too_many_arguments)]
    fn serve_shared(
        &self,
        handle: &FleetHandle,
        cached: &Arc<CachedGeneration>,
        degradation: DegradationLevel,
        degradation_reason: Option<String>,
        verbatim: FleetOutcome,
        queries: &[Query],
        start: Instant,
        telemetry: Arc<Registry>,
    ) -> Result<GeneratedInterface, Pi2Error> {
        if queries == cached.queries.as_slice() {
            // A join was already counted when the flight yielded.
            if verbatim == FleetOutcome::Hit {
                handle.note_hit();
            }
            return Ok(self.serve_cached(
                cached,
                degradation,
                degradation_reason,
                verbatim,
                start,
                &telemetry,
            ));
        }
        if let Some(g) =
            self.respecialize(cached, queries, &telemetry, start, degradation, degradation_reason)
        {
            handle.note_rebind();
            return Ok(g);
        }
        // Same fingerprint, but the cached design cannot be replayed over
        // this log (a fingerprint collision, or the respecialized forest
        // is inexpressive): run the full pipeline privately.
        handle.note_miss();
        let mut result = self.generate_cold(queries, telemetry, None);
        if let Ok(g) = &mut result {
            g.stats.fleet = Some(FleetOutcome::Miss);
        }
        result
    }

    /// Replay a cached generation's *partition* — the expensive search
    /// decision — over the caller's own queries: remap each cached tree's
    /// source set through a literal-free structural matching, re-merge,
    /// re-canonicalize, and re-map/cost through the shared memo. Every
    /// served artifact (query snapshot, forest, binding domains and
    /// defaults, cost) derives from the caller's literals; nothing of the
    /// leader's log leaks through. `None` when the replay cannot express
    /// the caller's log.
    fn respecialize(
        &self,
        cached: &CachedGeneration,
        queries: &[Query],
        telemetry: &Arc<Registry>,
        start: Instant,
        degradation: DegradationLevel,
        degradation_reason: Option<String>,
    ) -> Option<GeneratedInterface> {
        // Match caller queries to snapshot queries by literal-free
        // structural hash. Equal log fingerprints mean the two multisets
        // of hashes agree, so a perfect matching exists unless the
        // fingerprints collided — which surfaces here as an unmatched
        // query and falls through to a cold generation.
        let mut by_structure: HashMap<u64, VecDeque<usize>> = HashMap::new();
        for (j, q) in cached.queries.iter().enumerate() {
            let hash = pi2_sql::literal_free(q).structural_hash();
            by_structure.entry(hash).or_default().push_back(j);
        }
        let mut caller_for_leader = vec![usize::MAX; cached.queries.len()];
        for (i, q) in queries.iter().enumerate() {
            let hash = pi2_sql::literal_free(q).structural_hash();
            let j = by_structure.get_mut(&hash)?.pop_front()?;
            caller_for_leader[j] = i;
        }
        if by_structure.values().any(|bucket| !bucket.is_empty()) {
            return None;
        }

        // Replay the partition: each cached tree's source set, remapped
        // to caller indices, merged over the caller's own queries in log
        // order (the same fold a cold run of this partition would do).
        let mut trees = Vec::with_capacity(cached.forest.trees.len());
        for tree in &cached.forest.trees {
            let mut sources = Vec::with_capacity(tree.source_queries.len());
            for &j in &tree.source_queries {
                let i = *caller_for_leader.get(j)?;
                if i == usize::MAX {
                    return None;
                }
                sources.push(i);
            }
            if sources.is_empty() {
                return None;
            }
            sources.sort_unstable();
            let indexed: Vec<(usize, &Query)> = sources.iter().map(|&i| (i, &queries[i])).collect();
            trees.push(merge_queries(&indexed));
        }

        let mapper_cfg = MapperConfig { screen: self.screen };
        let search = InterfaceSearch::with_memo(
            queries,
            &self.catalog,
            mapper_cfg,
            self.weights.clone(),
            Arc::clone(&self.memo),
            Arc::clone(telemetry),
        );
        let (hits_before, misses_before) = (self.memo.hits(), self.memo.misses());
        let forest = search.canonicalized(DiffForest { trees });
        if !forest.expresses_all(queries) {
            return None;
        }
        let choice = match search.best_choice(&forest) {
            Some(c) if c.breakdown.expressive => c,
            _ => return None,
        };
        let memo_hits = self.memo.hits() - hits_before;
        let memo_misses = self.memo.misses() - misses_before;
        Some(GeneratedInterface {
            queries: queries.to_vec(),
            forest,
            interface: choice.interface.clone(),
            cost: choice.breakdown.clone(),
            stats: GenerationStats {
                elapsed: start.elapsed(),
                candidates_considered: choice.candidates_considered,
                search: None,
                telemetry: telemetry.snapshot(),
                memo_hits,
                memo_misses,
                memo_entries: self.memo.len(),
                degradation,
                degradation_reason,
                fleet: Some(FleetOutcome::Rebind),
            },
        })
    }

    /// Assemble a [`GeneratedInterface`] from a cached (or just-published)
    /// generation: the artifacts are the leader's, bit for bit. Only
    /// reached when the caller's log equals the cached snapshot exactly
    /// (see [`Pi2::serve_shared`]).
    fn serve_cached(
        &self,
        cached: &Arc<CachedGeneration>,
        degradation: DegradationLevel,
        degradation_reason: Option<String>,
        outcome: FleetOutcome,
        start: Instant,
        telemetry: &Registry,
    ) -> GeneratedInterface {
        GeneratedInterface {
            queries: cached.queries.clone(),
            forest: cached.forest.clone(),
            interface: cached.interface.clone(),
            cost: cached.cost.clone(),
            stats: GenerationStats {
                elapsed: start.elapsed(),
                candidates_considered: cached.candidates_considered,
                search: None,
                telemetry: telemetry.snapshot(),
                memo_hits: 0,
                memo_misses: 0,
                memo_entries: self.memo.len(),
                degradation,
                degradation_reason,
                fleet: Some(outcome),
            },
        }
    }

    fn generate_cold(
        &self,
        queries: &[Query],
        telemetry: Arc<Registry>,
        overflow: Option<&GenerationBudget>,
    ) -> Result<GeneratedInterface, Pi2Error> {
        let start = Instant::now();
        let mapper_cfg = MapperConfig { screen: self.screen };
        let search = InterfaceSearch::with_memo(
            queries,
            &self.catalog,
            mapper_cfg.clone(),
            self.weights.clone(),
            Arc::clone(&self.memo),
            Arc::clone(&telemetry),
        );
        let (hits_before, misses_before) = (self.memo.hits(), self.memo.misses());

        // Injected fault: the deadline "expires" the moment search starts.
        #[cfg(feature = "faults")]
        let forced_deadline = pi2_faults::deadline_at("search");
        #[cfg(not(feature = "faults"))]
        let forced_deadline = false;

        let outcome: Result<(DiffForest, Option<SearchStats>), Pi2Error> =
            telemetry.time("phase.search", || match &self.strategy {
                SearchStrategy::Mcts(cfg) => {
                    let mut cfg = cfg.clone();
                    cfg.budget = self.merged_budget(&cfg.budget);
                    if let Some(o) = overflow {
                        cfg.budget = tightened(&cfg.budget, o);
                    }
                    if forced_deadline {
                        cfg.budget.deadline = Some(Duration::ZERO);
                    }
                    // mcts_parallel already isolates per-worker panics;
                    // the error here means *no* worker survived.
                    mcts_parallel(&search, &cfg)
                        .map(|(f, s)| (f, Some(s)))
                        .map_err(|e| Pi2Error::WorkerPanic(e.to_string()))
                }
                SearchStrategy::Greedy { max_evaluations } => {
                    let mut budget = self.merged_budget(&GenerationBudget::default());
                    if let Some(o) = overflow {
                        budget = tightened(&budget, o);
                    }
                    if forced_deadline {
                        budget.deadline = Some(Duration::ZERO);
                    }
                    catch_unwind(AssertUnwindSafe(|| {
                        greedy_with_budget(&search, *max_evaluations, &budget)
                    }))
                    .map(|(f, s)| (f, Some(s)))
                    .map_err(|p| Pi2Error::WorkerPanic(panic_text(p)))
                }
                SearchStrategy::FullMerge => catch_unwind(AssertUnwindSafe(|| {
                    search.canonicalized(DiffForest::fully_merged(queries))
                }))
                .map(|f| (f, None))
                .map_err(|p| Pi2Error::WorkerPanic(panic_text(p))),
            });
        // Search states are normalized (trees sorted by earliest source
        // query) inside InterfaceSearch, so the forest is already in stable
        // display order: G1 is the earliest selected cell.

        let (forest, search_stats) = match outcome {
            Ok(pair) => pair,
            Err(err) => return self.degrade(queries, start, telemetry, None, err),
        };

        // Injected fault: the deadline expires as mapping begins.
        #[cfg(feature = "faults")]
        if pi2_faults::deadline_at("map") {
            let err = Pi2Error::Map("deadline expired during interface mapping".into());
            return self.degrade(queries, start, telemetry, search_stats, err);
        }

        let choice = match search.best_choice(&forest) {
            Some(c) if c.breakdown.expressive => c,
            other => {
                let err = if other.is_some() {
                    Pi2Error::NoExpressiveInterface
                } else {
                    // Distinguish "mapping failed" from "nothing
                    // expressive": re-run the mapper on this one forest
                    // for the error detail.
                    match map_forest(&forest, &self.catalog, queries, &mapper_cfg) {
                        Err(e) => Pi2Error::Map(e.to_string()),
                        Ok(_) => Pi2Error::NoExpressiveInterface,
                    }
                };
                return self.degrade(queries, start, telemetry, search_stats, err);
            }
        };

        let memo_hits = self.memo.hits() - hits_before;
        let memo_misses = self.memo.misses() - misses_before;

        let (degradation, degradation_reason) =
            if search_stats.as_ref().is_some_and(|s| s.budget_exhausted) {
                (
                    DegradationLevel::Anytime,
                    Some("generation budget exhausted; best-so-far interface".to_string()),
                )
            } else {
                (DegradationLevel::Full, None)
            };

        Ok(GeneratedInterface {
            queries: queries.to_vec(),
            forest,
            interface: choice.interface.clone(),
            cost: choice.breakdown.clone(),
            stats: GenerationStats {
                elapsed: start.elapsed(),
                candidates_considered: choice.candidates_considered,
                search: search_stats,
                telemetry: telemetry.snapshot(),
                memo_hits,
                memo_misses,
                memo_entries: self.memo.len(),
                degradation,
                degradation_reason,
                fleet: None,
            },
        })
    }

    /// Either fall back to the deterministic baseline interface (graceful
    /// mode, the default) or surface the error that stopped the pipeline.
    fn degrade(
        &self,
        queries: &[Query],
        start: Instant,
        telemetry: Arc<Registry>,
        search_stats: Option<SearchStats>,
        err: Pi2Error,
    ) -> Result<GeneratedInterface, Pi2Error> {
        if !self.graceful {
            return Err(err);
        }
        let (forest, interface, cost) = telemetry.time("phase.fallback", || {
            crate::fallback::fallback_interface(queries, &self.catalog, self.screen, &self.weights)
        });
        Ok(GeneratedInterface {
            queries: queries.to_vec(),
            forest,
            interface,
            cost,
            stats: GenerationStats {
                elapsed: start.elapsed(),
                candidates_considered: 1,
                search: search_stats,
                telemetry: telemetry.snapshot(),
                memo_hits: 0,
                memo_misses: 0,
                memo_entries: self.memo.len(),
                degradation: DegradationLevel::Fallback,
                degradation_reason: Some(err.to_string()),
                fleet: None,
            },
        })
    }

    /// Open an interactive session over a generated interface.
    pub fn session(&self, generated: &GeneratedInterface) -> crate::session::InterfaceSession {
        generated.session(&self.catalog)
    }
}

/// Layer two budgets, keeping the tighter limit on each axis. Used to
/// clamp the fleet's overflow budget onto shed generations.
fn tightened(base: &GenerationBudget, clamp: &GenerationBudget) -> GenerationBudget {
    fn tighter<T: Ord + Copy>(a: Option<T>, b: Option<T>) -> Option<T> {
        match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, None) => x,
            (None, y) => y,
        }
    }
    GenerationBudget {
        deadline: tighter(base.deadline, clamp.deadline),
        max_iterations: tighter(base.max_iterations, clamp.max_iterations),
        max_states: tighter(base.max_states, clamp.max_states),
    }
}

/// Best-effort text of a caught panic payload.
fn panic_text(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fleet::FleetConfig;

    #[test]
    fn generates_for_single_query() {
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog()).build();
        let g = pi2.generate_sql(&["SELECT a, count(*) FROM t GROUP BY a"]).unwrap();
        assert_eq!(g.interface.charts.len(), 1);
        assert!(g.cost.expressive);
        assert!(g.stats.elapsed.as_secs() < 60);
    }

    #[test]
    fn empty_log_is_error() {
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog()).build();
        assert!(matches!(pi2.generate(&[]), Err(Pi2Error::EmptyLog)));
    }

    #[test]
    fn parse_error_is_reported() {
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog()).build();
        let err = pi2.generate_sql(&["NOT SQL AT ALL"]).unwrap_err();
        assert!(matches!(err, Pi2Error::Parse(_)));
        // The structured source carries the position.
        let source = std::error::Error::source(&err).expect("source chain");
        assert!(source.to_string().contains("line 1"));
    }

    #[test]
    fn full_merge_strategy_handles_fig3() {
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
            .strategy(SearchStrategy::FullMerge)
            .build();
        let g = pi2
            .generate_sql(&[
                "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
                "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
            ])
            .unwrap();
        assert_eq!(g.forest.trees.len(), 1);
        // The literal variation becomes an interactive control (widget or
        // chart interaction).
        let controls = g.interface.widgets.len() + g.interface.interaction_count();
        assert!(controls >= 1);
        // The snapshot preserves the input queries.
        assert_eq!(g.queries.len(), 2);
    }

    #[test]
    fn mcts_strategy_generates_expressive_interface() {
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
            .strategy(SearchStrategy::Mcts(MctsConfig {
                iterations: 30,
                rollout_depth: 2,
                seed: 5,
                ..Default::default()
            }))
            .build();
        let queries = pi2_datasets::toy::fig2_queries();
        let g = pi2.generate(&queries).unwrap();
        assert!(g.cost.expressive);
        assert!(g.forest.expresses_all(&queries));
        assert!(g.stats.search.is_some());
    }

    #[test]
    fn stats_report_phases_and_memo() {
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
            .strategy(SearchStrategy::Mcts(MctsConfig {
                iterations: 20,
                seed: 7,
                workers: 2,
                ..Default::default()
            }))
            .build();
        let queries = pi2_datasets::toy::fig2_queries();
        let g = pi2.generate(&queries).unwrap();
        assert!(g.stats.phase("search") > Duration::ZERO);
        assert!(g.stats.phase("map") > Duration::ZERO);
        assert!(g.stats.phase("cost") > Duration::ZERO);
        assert!(g.stats.memo_misses > 0);
        assert!(g.stats.memo_entries > 0);
    }

    #[test]
    fn zero_iteration_budget_returns_anytime_interface() {
        // No search at all: the pipeline must still produce a valid,
        // expressive interface from the initial (singleton) state and be
        // truthful that the budget cut the search short.
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
            .budget(GenerationBudget { max_iterations: Some(0), ..Default::default() })
            .build();
        let queries = pi2_datasets::toy::fig2_queries();
        let g = pi2.generate(&queries).unwrap();
        assert_eq!(g.stats.degradation, DegradationLevel::Anytime);
        assert!(g.stats.degradation_reason.is_some());
        assert!(g.forest.expresses_all(&queries));
        assert!(g.cost.expressive);
    }

    #[test]
    fn expired_deadline_degrades_to_anytime_not_error() {
        let pi2 =
            Pi2::builder(pi2_datasets::toy::default_catalog()).deadline(Duration::ZERO).build();
        let queries = pi2_datasets::toy::fig2_queries();
        let g = pi2.generate(&queries).unwrap();
        assert_eq!(g.stats.degradation, DegradationLevel::Anytime);
        assert!(g.stats.search.as_ref().unwrap().budget_exhausted);
        assert!(g.forest.expresses_all(&queries));
        assert!(g.cost.expressive);
    }

    #[test]
    fn unbudgeted_run_reports_full_degradation() {
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog()).build();
        let g = pi2.generate_sql(&["SELECT a, count(*) FROM t GROUP BY a"]).unwrap();
        assert_eq!(g.stats.degradation, DegradationLevel::Full);
        assert!(g.stats.degradation_reason.is_none());
    }

    #[cfg(feature = "faults")]
    #[test]
    fn sole_worker_panic_degrades_to_fallback() {
        let _fault = pi2_faults::inject(pi2_faults::Fault::WorkerPanic { worker: 0 });
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
            .strategy(SearchStrategy::Mcts(MctsConfig {
                iterations: 10,
                workers: 1,
                ..Default::default()
            }))
            .build();
        let queries = pi2_datasets::toy::fig2_queries();
        let g = pi2.generate(&queries).unwrap();
        assert_eq!(g.stats.degradation, DegradationLevel::Fallback);
        assert!(g.stats.degradation_reason.is_some());
        assert!(g.forest.expresses_all(&queries));
        assert_eq!(g.interface.charts.len(), queries.len());
    }

    #[cfg(feature = "faults")]
    #[test]
    fn graceful_off_surfaces_worker_panic() {
        let _fault = pi2_faults::inject(pi2_faults::Fault::WorkerPanic { worker: 0 });
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
            .strategy(SearchStrategy::Mcts(MctsConfig {
                iterations: 10,
                workers: 1,
                ..Default::default()
            }))
            .graceful_degradation(false)
            .build();
        let err = pi2.generate(&pi2_datasets::toy::fig2_queries()).unwrap_err();
        assert!(matches!(err, Pi2Error::WorkerPanic(_)), "got {err}");
    }

    #[cfg(feature = "faults")]
    #[test]
    fn surviving_workers_mask_a_panicked_one() {
        let _fault = pi2_faults::inject(pi2_faults::Fault::WorkerPanic { worker: 1 });
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
            .strategy(SearchStrategy::Mcts(MctsConfig {
                iterations: 15,
                workers: 2,
                seed: 5,
                ..Default::default()
            }))
            .build();
        let queries = pi2_datasets::toy::fig2_queries();
        let g = pi2.generate(&queries).unwrap();
        assert_eq!(g.stats.degradation, DegradationLevel::Full);
        let s = g.stats.search.unwrap();
        assert_eq!(s.worker_panics, 1);
        assert!(s.workers.iter().any(|w| w.panicked));
        assert!(g.cost.expressive);
    }

    #[test]
    fn fleet_cache_hit_is_bit_identical_to_the_cold_generation() {
        let fleet = FleetHandle::new(FleetConfig::new());
        let catalog = pi2_datasets::toy::default_catalog();
        let queries = pi2_datasets::toy::fig2_queries();
        let cold = Pi2::builder(catalog.clone()).fleet(&fleet).build().generate(&queries).unwrap();
        assert_eq!(cold.stats.fleet, Some(FleetOutcome::Miss));
        assert_eq!(cold.stats.degradation, DegradationLevel::Full);
        // A different generator instance (another "session") hits.
        let warm = Pi2::builder(catalog).fleet(&fleet).build().generate(&queries).unwrap();
        assert_eq!(warm.stats.fleet, Some(FleetOutcome::Hit));
        assert_eq!(warm.interface, cold.interface);
        assert_eq!(warm.forest, cold.forest);
        assert_eq!(warm.cost, cold.cost);
        assert_eq!(warm.queries, cold.queries);
        let c = fleet.counters();
        assert_eq!((c.hits, c.misses, c.entries), (1, 1, 1), "{c:?}");
    }

    #[test]
    fn literal_variants_share_a_fleet_entry_but_structures_do_not() {
        let fleet = FleetHandle::new(FleetConfig::new());
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
            .strategy(SearchStrategy::FullMerge)
            .fleet(&fleet)
            .build();
        let first = pi2
            .generate_sql(&[
                "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
                "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
            ])
            .unwrap();
        // Only the literals differ: same fingerprint, same cache entry —
        // but the serve is respecialized onto the caller's own queries
        // (note the literals 5 and 7 even sit outside the catalog's
        // observed range for `a`, so the leader's binding domain could
        // not have expressed them).
        let variant_sql = [
            "SELECT p, count(*) FROM t WHERE a = 5 GROUP BY p",
            "SELECT p, count(*) FROM t WHERE a = 7 GROUP BY p",
        ];
        let variant = pi2.generate_sql(&variant_sql).unwrap();
        assert_eq!(variant.stats.fleet, Some(FleetOutcome::Rebind));
        assert_ne!(variant.queries, first.queries, "leader's query snapshot leaked");
        assert_eq!(variant.queries.len(), 2);
        assert!(variant.forest.expresses_all(&variant.queries));
        assert!(variant.cost.expressive);
        // A structural difference misses.
        let other =
            pi2.generate_sql(&["SELECT b, count(*) FROM t WHERE a = 1 GROUP BY b"]).unwrap();
        assert_eq!(other.stats.fleet, Some(FleetOutcome::Miss));
        let c = fleet.counters();
        assert_eq!((c.misses, c.rebinds, c.entries), (2, 1, 2), "{c:?}");
    }

    #[test]
    fn rebound_serve_matches_a_cold_generation_of_the_variant() {
        let fleet = FleetHandle::new(FleetConfig::new());
        let catalog = pi2_datasets::toy::default_catalog();
        let warm_pi2 =
            Pi2::builder(catalog.clone()).strategy(SearchStrategy::FullMerge).fleet(&fleet).build();
        warm_pi2
            .generate_sql(&[
                "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
                "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
            ])
            .unwrap();
        // Different literals: same fingerprint, rebound serve.
        let variant_sql = [
            "SELECT p, count(*) FROM t WHERE a = 3 GROUP BY p",
            "SELECT p, count(*) FROM t WHERE a = 0 GROUP BY p",
        ];
        let warm = warm_pi2.generate_sql(&variant_sql).unwrap();
        assert_eq!(warm.stats.fleet, Some(FleetOutcome::Rebind));
        // FullMerge is deterministic, so the respecialized serve must be
        // bit-identical to what a fleet-less generator produces for the
        // variant: the cache is transparent, not just sound.
        let cold = Pi2::builder(catalog)
            .strategy(SearchStrategy::FullMerge)
            .build()
            .generate_sql(&variant_sql)
            .unwrap();
        assert_eq!(warm.interface, cold.interface);
        assert_eq!(warm.forest, cold.forest);
        assert_eq!(warm.queries, cold.queries);
        assert_eq!(warm.cost, cold.cost);
    }

    #[test]
    fn rebind_respects_the_callers_duplicate_literals() {
        // The cached entry was built from two distinct literals (the diff
        // becomes a widget over {1, 2}); the caller repeats ONE literal,
        // and its own cold generation dedups the hole away entirely. The
        // rebound serve must match that — not the leader's two-valued
        // widget.
        let fleet = FleetHandle::new(FleetConfig::new());
        let catalog = pi2_datasets::toy::default_catalog();
        let pi2 =
            Pi2::builder(catalog.clone()).strategy(SearchStrategy::FullMerge).fleet(&fleet).build();
        pi2.generate_sql(&[
            "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
        ])
        .unwrap();
        let twice = [
            "SELECT p, count(*) FROM t WHERE a = 3 GROUP BY p",
            "SELECT p, count(*) FROM t WHERE a = 3 GROUP BY p",
        ];
        let warm = pi2.generate_sql(&twice).unwrap();
        assert_eq!(warm.stats.fleet, Some(FleetOutcome::Rebind));
        let cold = Pi2::builder(catalog)
            .strategy(SearchStrategy::FullMerge)
            .build()
            .generate_sql(&twice)
            .unwrap();
        assert_eq!(warm.interface, cold.interface);
        assert_eq!(warm.forest, cold.forest);
    }

    #[test]
    fn follower_timeout_generates_privately_and_reports_join_timeout() {
        use crate::fleet::Role;
        let handle = FleetHandle::new(FleetConfig::new().follower_wait(Some(Duration::ZERO)));
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog()).fleet(&handle).build();
        let queries = pi2_datasets::toy::fig2_queries();
        // Occupy the flight for this log's key, simulating a stuck leader.
        let key = (pi2.fleet_context(), fleet::log_fingerprint(&queries));
        let Role::Lead(lease) = handle.begin(key) else { panic!("expected leadership") };
        // A zero-patience follower gives up immediately, generates
        // privately, and is truthful about how the fleet participated:
        // a timed-out join, not a join and not a plain private run.
        let g = pi2.generate(&queries).unwrap();
        assert_eq!(g.stats.fleet, Some(FleetOutcome::JoinTimeout));
        assert!(g.cost.expressive);
        let c = handle.counters();
        // The one miss is the stuck leader's; the timed-out follower is
        // counted as a join timeout, never as a join.
        assert_eq!((c.joins, c.join_timeouts, c.misses), (0, 1, 1), "{c:?}");
        drop(lease);
    }

    #[test]
    fn shed_generation_reports_anytime_and_is_never_cached() {
        // Cap 0: admission control sheds every cold generation. It still
        // runs immediately (no queueing) under the overflow budget and is
        // truthfully labeled Anytime, and the degraded result must not be
        // pinned in the cache.
        let fleet = FleetHandle::new(FleetConfig::new().max_concurrent_cold(0));
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog()).fleet(&fleet).build();
        let queries = pi2_datasets::toy::fig2_queries();
        let g = pi2.generate(&queries).unwrap();
        assert_eq!(g.stats.fleet, Some(FleetOutcome::Shed));
        assert_eq!(g.stats.degradation, DegradationLevel::Anytime);
        assert!(g.stats.degradation_reason.as_ref().unwrap().contains("admission"));
        assert!(g.forest.expresses_all(&queries));
        assert!(fleet.is_empty(), "shed results must not be cached");
        let again = pi2.generate(&queries).unwrap();
        assert_eq!(again.stats.fleet, Some(FleetOutcome::Shed));
        assert_eq!(fleet.counters().sheds, 2);
    }

    #[test]
    fn concurrent_generations_of_one_fingerprint_run_one_search() {
        let fleet = FleetHandle::new(FleetConfig::new());
        let catalog = pi2_datasets::toy::default_catalog();
        let queries = pi2_datasets::toy::fig2_queries();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    let pi2 = Pi2::builder(catalog.clone()).fleet(&fleet).build();
                    let g = pi2.generate(&queries).unwrap();
                    assert!(g.cost.expressive);
                });
            }
        });
        let c = fleet.counters();
        assert_eq!(c.misses, 1, "exactly one cold generation must run: {c:?}");
        assert_eq!(c.hits + c.joins, 7, "{c:?}");
        assert_eq!(c.sheds, 0, "{c:?}");
    }

    #[test]
    fn repeated_generation_hits_the_cross_run_memo() {
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
            .strategy(SearchStrategy::Mcts(MctsConfig {
                iterations: 25,
                seed: 3,
                ..Default::default()
            }))
            .build();
        let queries = pi2_datasets::toy::fig2_queries();
        let first = pi2.generate(&queries).unwrap();
        let second = pi2.generate(&queries).unwrap();
        // Same log, same config: the second run re-visits the same forests
        // and must answer (nearly) every lookup from the shared memo.
        assert!(second.stats.memo_hits > 0, "second run never hit the memo");
        assert!(second.stats.memo_misses <= first.stats.memo_misses);
        assert!(second.stats.cache_hit_rate().unwrap() > 0.9);
        // And produce the identical interface.
        assert_eq!(first.interface, second.interface);
    }
}
