//! The oracle battery: every invariant checked per fuzzed query log.

use crate::events::{current_hole_value, domain_bounds, event_applies, random_event};
use pi2_core::{
    Event, FleetConfig, FleetHandle, FleetOutcome, GeneratedInterface, InterfaceSession, Pi2,
    SearchStrategy, WidgetState,
};
use pi2_difftree::{default_bindings, expresses, lower_query, Bindings, Domain, NodeKind};
use pi2_engine::{Catalog, DeltaCache};
use pi2_interface::{Target, VizInteraction, WidgetKind};
use pi2_mcts::MctsConfig;
use pi2_sql::{normalize, Query};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Which search strategy a conformance run drives the pipeline with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyChoice {
    /// The fast merge-everything path.
    FullMerge,
    /// A small seeded MCTS (exercises search + memo layers).
    Mcts {
        /// Iteration budget (keep small: tens, not hundreds).
        iterations: usize,
        /// Search seed.
        seed: u64,
        /// Root-parallel worker count.
        workers: usize,
    },
}

impl StrategyChoice {
    fn to_strategy(self) -> SearchStrategy {
        match self {
            StrategyChoice::FullMerge => SearchStrategy::FullMerge,
            StrategyChoice::Mcts { iterations, seed, workers } => {
                SearchStrategy::Mcts(MctsConfig {
                    iterations,
                    seed,
                    workers,
                    rollout_depth: 2,
                    ..Default::default()
                })
            }
        }
    }
}

/// A deliberately broken oracle variant, used for mutation-testing the
/// harness itself: a conformance harness that cannot catch a planted bug
/// is not testing anything.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Replace the expressiveness check with one that only accepts each
    /// tree's *default* instantiation — any log whose queries actually
    /// vary then fails, and the shrinker must reduce it to the minimal
    /// (two-query) witness.
    BreakExpressiveness,
}

/// Configuration for one [`check`] invocation.
#[derive(Debug, Clone)]
pub struct CheckConfig {
    /// Search strategy for the pipeline under test.
    pub strategy: StrategyChoice,
    /// Number of random events in the walk (ignored when events are
    /// replayed from a recording).
    pub walk_len: usize,
    /// Seed for the event walk.
    pub walk_seed: u64,
    /// Also run the (expensive) memo/workers determinism oracle.
    pub workers_oracle: bool,
    /// Planted bug for mutation testing, if any.
    pub mutation: Option<Mutation>,
}

impl Default for CheckConfig {
    fn default() -> Self {
        Self {
            strategy: StrategyChoice::FullMerge,
            walk_len: 6,
            walk_seed: 0,
            workers_oracle: false,
            mutation: None,
        }
    }
}

/// An oracle violation: which oracle tripped, a human-readable message,
/// and the events dispatched up to (and including) the trigger.
#[derive(Debug, Clone)]
pub struct Failure {
    /// Stable oracle name (`"expressiveness"`, `"chart-query"`, …).
    pub oracle: &'static str,
    /// What went wrong.
    pub message: String,
    /// Events dispatched before the failure (empty for log-only oracles).
    pub events: Vec<Event>,
}

impl Failure {
    pub(crate) fn new(oracle: &'static str, message: impl Into<String>) -> Self {
        Failure { oracle, message: message.into(), events: Vec::new() }
    }
}

fn roundtrips(q: &Query) -> Result<(), String> {
    let printed = q.to_string();
    let reparsed =
        pi2_sql::parse_query(&printed).map_err(|e| format!("`{printed}` does not reparse: {e}"))?;
    if normalize::normalized(&reparsed) != normalize::normalized(q) {
        return Err(format!("`{printed}` changes under print/parse round-trip"));
    }
    Ok(())
}

fn check_widget_states(session: &InterfaceSession) -> Result<(), String> {
    for (id, state) in session.widget_states() {
        let widget = session
            .interface()
            .widgets
            .iter()
            .find(|w| w.id == id)
            .ok_or_else(|| format!("widget_states reported unknown widget {id}"))?;
        match (&widget.kind, &state) {
            (_, WidgetState::Unknown) => {
                return Err(format!("widget {id} ({}) is Unknown", widget.kind.kind_name()))
            }
            (
                WidgetKind::Radio { options }
                | WidgetKind::ButtonGroup { options }
                | WidgetKind::Dropdown { options }
                | WidgetKind::Tabs { options },
                WidgetState::Picked(i),
            ) if *i >= options.len() => {
                return Err(format!("widget {id}: pick {i} out of {} options", options.len()))
            }
            (WidgetKind::MultiSelect { options }, WidgetState::Flags(flags))
                if flags.len() != options.len() =>
            {
                return Err(format!(
                    "widget {id}: {} flags for {} options",
                    flags.len(),
                    options.len()
                ))
            }
            _ => {}
        }
    }
    Ok(())
}

/// Differential oracle: the engine's columnar fast path must be
/// indistinguishable from the row-at-a-time reference interpreter — same
/// schema, same rows in the same order, or the same error. Comparisons
/// where either side hits a [`ResourceExhausted`](pi2_engine::EngineError)
/// limit are skipped: wall-clock timeouts are nondeterministic across
/// executors.
fn columnar_parity(catalog: &Catalog, q: &Query) -> Result<(), String> {
    let fast = catalog.execute_uncached(q);
    let reference = catalog.execute_reference(q);
    compare_against_reference(q, "columnar", fast, reference)
}

/// Differential oracle for the incremental (delta) path: whenever
/// [`Catalog::execute_delta`] applies, its result must be byte-identical
/// to the reference interpreter. The mask cache persists across the whole
/// event walk — exactly how a live session holds it — so later gestures
/// exercise the incremental (dirty-block) path, not just seeding.
fn delta_parity(catalog: &Catalog, q: &Query, cache: &mut DeltaCache) -> Result<(), String> {
    let Some((delta, _outcome)) = catalog.execute_delta(q, cache) else {
        return Ok(()); // outside the delta fragment; full execution covers it
    };
    let reference = catalog.execute_reference(q);
    compare_against_reference(q, "delta", delta, reference)
}

/// Byte-identical comparison of an optimized executor's outcome against the
/// reference interpreter's, skipping nondeterministic resource-limit trips.
fn compare_against_reference(
    q: &Query,
    what: &str,
    fast: Result<pi2_engine::ResultSet, pi2_engine::EngineError>,
    reference: Result<pi2_engine::ResultSet, pi2_engine::EngineError>,
) -> Result<(), String> {
    use pi2_engine::EngineError;
    let exhausted = |e: &EngineError| matches!(e, EngineError::ResourceExhausted(_));
    if fast.as_ref().err().is_some_and(exhausted) || reference.as_ref().err().is_some_and(exhausted)
    {
        return Ok(());
    }
    match (fast, reference) {
        (Ok(f), Ok(r)) => {
            if f.schema != r.schema {
                return Err(format!(
                    "`{q}`: {what} schema {:?} != reference schema {:?}",
                    f.schema, r.schema
                ));
            }
            if f != r {
                return Err(format!(
                    "`{q}`: {what} rows differ from reference ({} vs {} rows)",
                    f.len(),
                    r.len()
                ));
            }
            Ok(())
        }
        (Err(f), Err(r)) => {
            if f.to_string() != r.to_string() {
                return Err(format!("`{q}`: {what} error `{f}` != reference error `{r}`"));
            }
            Ok(())
        }
        (f, r) => Err(format!(
            "`{q}`: {what} {} but reference {}",
            if f.is_ok() { "succeeds" } else { "fails" },
            if r.is_ok() { "succeeds" } else { "fails" },
        )),
    }
}

/// The real expressiveness oracle, or its planted mutation.
fn expresses_all(
    g: &GeneratedInterface,
    log: &[Query],
    mutation: Option<Mutation>,
) -> Result<(), String> {
    match mutation {
        None => {
            if g.forest.expresses_all(log) {
                Ok(())
            } else {
                let missing: Vec<String> = log
                    .iter()
                    .filter(|q| !g.forest.trees.iter().any(|t| expresses(t, q).is_some()))
                    .map(|q| q.to_string())
                    .collect();
                Err(format!("forest cannot express: {}", missing.join(" | ")))
            }
        }
        Some(Mutation::BreakExpressiveness) => {
            // Planted bug: only default instantiations count as expressed.
            let defaults: Vec<Query> = g
                .forest
                .trees
                .iter()
                .filter_map(|t| lower_query(t, &Bindings::new()).ok())
                .map(|q| normalize::normalized(&q))
                .collect();
            for q in log {
                if !defaults.contains(&normalize::normalized(q)) {
                    return Err(format!("(planted bug) not a default instantiation: {q}"));
                }
            }
            Ok(())
        }
    }
}

/// Run the full oracle battery over one query log.
///
/// When `recorded` is `Some`, those events are replayed (skipping any that
/// no longer apply to the regenerated interface — the shrinker relies on
/// this); otherwise `cfg.walk_len` random events are drawn from
/// `cfg.walk_seed`.
pub fn check(
    catalog: &Catalog,
    log: &[Query],
    recorded: Option<&[Event]>,
    cfg: &CheckConfig,
) -> Result<(), Failure> {
    let pi2 = Pi2::builder(catalog.clone()).strategy(cfg.strategy.to_strategy()).build();
    let g =
        pi2.generate(log).map_err(|e| Failure::new("generate", format!("pipeline error: {e}")))?;

    // 1. Expressiveness.
    expresses_all(&g, log, cfg.mutation).map_err(|m| Failure::new("expressiveness", m))?;

    // 2. Initial view: each tree's default instantiation is a real query
    // from the log (the default_bindings contract).
    for (t, tree) in g.forest.trees.iter().enumerate() {
        let Some(&qi) = tree
            .source_queries
            .iter()
            .find(|&&qi| log.get(qi).is_some_and(|q| expresses(tree, q).is_some()))
        else {
            return Err(Failure::new(
                "initial-view",
                format!("tree {t} expresses none of its own source queries"),
            ));
        };
        let b = default_bindings(tree, log);
        let lowered = lower_query(tree, &b)
            .map_err(|e| Failure::new("initial-view", format!("tree {t}: {e}")))?;
        if normalize::normalized(&lowered) != normalize::normalized(&log[qi]) {
            return Err(Failure::new(
                "initial-view",
                format!(
                    "tree {t}: default instantiation `{lowered}` is not source query `{}`",
                    log[qi]
                ),
            ));
        }
    }

    // 3. Chart queries parse/print round-trip and execute. The delta-mask
    // cache persists from here through the event walk, session-style.
    let mut delta_cache = DeltaCache::new();
    let session = g.session(catalog);
    for c in &g.interface.charts {
        let q = session
            .query_for_chart(c.id)
            .map_err(|e| Failure::new("chart-query", format!("chart {}: {e}", c.id)))?;
        roundtrips(&q).map_err(|m| Failure::new("chart-query", m))?;
        catalog
            .execute(&q)
            .map_err(|e| Failure::new("chart-query", format!("`{q}` fails to execute: {e}")))?;
        columnar_parity(catalog, &q).map_err(|m| Failure::new("columnar-parity", m))?;
        delta_parity(catalog, &q, &mut delta_cache)
            .map_err(|m| Failure::new("columnar-parity", m))?;
    }

    // 4. Widget states are consistent out of the box.
    check_widget_states(&session).map_err(|m| Failure::new("widget-state", m))?;

    // 5. Event walk. A client-side scene replica rides along: every
    // damage delta is round-tripped through the wire codec and applied,
    // and must reconstruct the full-render scene bit-for-bit.
    let mut session = g.session(catalog);
    let (mut scene_client, _) = session
        .scene_snapshot()
        .map_err(|e| Failure::new("scene-parity", format!("initial snapshot: {e}")))?;
    let mut dispatched: Vec<Event> = Vec::new();
    let mut walk_rng = SmallRng::seed_from_u64(cfg.walk_seed);
    let planned: Vec<Event> = match recorded {
        Some(events) => events.to_vec(),
        None => {
            let mut out = Vec::new();
            for _ in 0..cfg.walk_len {
                // Each event drawn against the *initial* interface: ids and
                // domains are stable across dispatches.
                if let Some(e) = random_event(&g, &mut walk_rng) {
                    out.push(e);
                }
            }
            out
        }
    };
    for event in planned {
        if !event_applies(&g.interface, &event) {
            // Replay against a shrunken log: the control no longer exists.
            continue;
        }
        dispatched.push(event.clone());
        let fail = |oracle, message| Failure { oracle, message, events: dispatched.clone() };
        let (updates, delta) = session
            .dispatch_with_delta(event.clone())
            .map_err(|e| fail("dispatch", format!("{event:?} failed: {e}")))?;
        if let Some(delta) = delta {
            let rt = pi2_core::scene::delta_from_json(&pi2_core::scene::delta_to_json(&delta))
                .map_err(|e| fail("scene-parity", format!("delta codec round-trip: {e}")))?;
            scene_client
                .apply(&rt)
                .map_err(|e| fail("scene-parity", format!("delta rejected by client: {e}")))?;
        }
        let full = pi2_core::scene::SceneGraph::build_from(&session)
            .map_err(|e| fail("scene-parity", format!("full render: {e}")))?;
        // Bit for bit: equal scenes, and equal snapshot bytes.
        let text = |g| pi2_core::scene::scene_to_json(g).to_string();
        if scene_client != full || text(&scene_client) != text(&full) {
            return Err(fail(
                "scene-parity",
                format!(
                    "replayed deltas diverge from the full render at scene version {}",
                    session.scene_version()
                ),
            ));
        }
        for u in &updates {
            roundtrips(&u.query).map_err(|m| fail("event-query", m))?;
            catalog
                .execute(&u.query)
                .map_err(|e| fail("event-query", format!("`{}` fails to execute: {e}", u.query)))?;
            columnar_parity(catalog, &u.query).map_err(|m| fail("columnar-parity", m))?;
            delta_parity(catalog, &u.query, &mut delta_cache)
                .map_err(|m| fail("columnar-parity", m))?;
        }
        check_widget_states(&session).map_err(|m| fail("widget-state", m))?;
    }

    // 6. Pan round-trip on a fresh session (integer/date axes only, where
    // the inverse pan is exact).
    pan_roundtrip(catalog, &g)?;

    // 7. Memo/workers determinism.
    if cfg.workers_oracle {
        memo_workers_oracle(catalog, log)?;
    }

    Ok(())
}

/// For every pan-zoomable chart: pan there and back by a slack-bounded
/// integral delta and require the exact original query.
fn pan_roundtrip(catalog: &Catalog, g: &GeneratedInterface) -> Result<(), Failure> {
    for c in &g.interface.charts {
        for i in &c.interactions {
            let VizInteraction::PanZoom { x, y, .. } = i else { continue };
            let mut session = g.session(catalog);
            let axis_delta = |session: &InterfaceSession, pair: &Option<(Target, Target)>| -> f64 {
                let Some((lo_t, hi_t)) = pair else { return 0.0 };
                // Per-endpoint up-slack: a forward pan by +dx must clamp
                // at NEITHER endpoint's own domain, or the back-pan will
                // not restore the query.
                let mut slack = f64::INFINITY;
                for t in [lo_t, hi_t] {
                    let Some(node) =
                        g.forest.trees.get(t.tree).and_then(|tree| tree.root.find(t.node))
                    else {
                        return 0.0;
                    };
                    let NodeKind::Hole { domain, .. } = &node.kind else { return 0.0 };
                    // Floats round-trip inexactly; restrict to integral axes.
                    if matches!(domain, Domain::FloatRange { .. } | Domain::Discrete(_)) {
                        return 0.0;
                    }
                    let Some((_, dmax)) = domain_bounds(domain) else { return 0.0 };
                    let Some(v) = current_hole_value(&g.forest, session, *t) else {
                        return 0.0;
                    };
                    slack = slack.min(dmax - v);
                }
                let (Some(lo), Some(hi)) = (
                    current_hole_value(&g.forest, session, *lo_t),
                    current_hole_value(&g.forest, session, *hi_t),
                ) else {
                    return 0.0;
                };
                // An inverted window (a contradictory source query) has no
                // meaningful pan semantics; skip it.
                if lo > hi {
                    return 0.0;
                }
                (slack / 2.0).floor().max(0.0)
            };
            let dx = axis_delta(&session, x);
            let dy = axis_delta(&session, y);
            if dx == 0.0 && dy == 0.0 {
                continue;
            }
            let before = session
                .query_for_chart(c.id)
                .map_err(|e| Failure::new("pan-roundtrip", format!("chart {}: {e}", c.id)))?;
            let there = Event::Pan { chart: c.id, dx, dy };
            let back = Event::Pan { chart: c.id, dx: -dx, dy: -dy };
            for e in [&there, &back] {
                session
                    .dispatch(e.clone())
                    .map_err(|err| Failure::new("pan-roundtrip", format!("{e:?} failed: {err}")))?;
            }
            let after = session
                .query_for_chart(c.id)
                .map_err(|e| Failure::new("pan-roundtrip", format!("chart {}: {e}", c.id)))?;
            if before != after {
                return Err(Failure::new(
                    "pan-roundtrip",
                    format!(
                        "chart {}: pan ({dx}, {dy}) there-and-back changed `{before}` to `{after}`",
                        c.id
                    ),
                ));
            }
        }
    }
    Ok(())
}

/// A literal-variant of `log`: every literal nudged to a different value
/// of the same type (ints +1, floats +1.0, strings suffixed, dates +1
/// day, booleans flipped). Shares the original's literal-free fleet
/// fingerprint by construction.
fn literal_variant(log: &[Query]) -> Vec<Query> {
    use pi2_sql::{Expr, Literal};
    log.iter()
        .map(|q| {
            let mut q = q.clone();
            pi2_sql::visit::rewrite_query_exprs(&mut q, &mut |e| match e {
                Expr::Literal(l) => Expr::Literal(match l {
                    Literal::Null => Literal::Null,
                    Literal::Bool(b) => Literal::Bool(!b),
                    Literal::Int(n) => Literal::Int(n.wrapping_add(1)),
                    Literal::Float(f) => Literal::Float(pi2_sql::F64(f.0 + 1.0)),
                    Literal::Str(s) => Literal::Str(format!("{s}~")),
                    Literal::Date(d) => Literal::Date(pi2_sql::Date(d.0.wrapping_add(1))),
                }),
                other => other,
            });
            q
        })
        .collect()
}

/// Fleet-cache oracle: a shared [`FleetHandle`] must be *transparent*.
///
/// Three generations of the same log — the leader's cold search, a second
/// builder's cache hit, and a fleet-less private run — must agree:
///
/// * the hit is **bit-identical** to the cold generation (interface,
///   forest, canonical query snapshot, and cost bits) and reports
///   `degradation: Full`;
/// * the fleet counters record exactly one miss and one hit (the hit ran
///   no search);
/// * the private run produces the same interface, so caching can never
///   change what the deterministic pipeline would have generated.
///
/// A fourth phase serves a **literal-variant** of the log through the
/// warm cache: same fingerprint, different literal values. The serve must
/// be respecialized onto the variant's own queries (`Rebind`) — never the
/// leader's literal-bearing snapshot — must express the variant's own
/// queries, must be deterministic, and (under the deterministic
/// `FullMerge` strategy, or whenever the fleet legitimately fell through
/// to a cold `Miss`) must be bit-identical to a fleet-less run of the
/// variant. It must also leave the cache untouched: no new entry, and the
/// original log still served verbatim afterwards.
pub fn check_fleet(
    catalog: &Catalog,
    log: &[Query],
    strategy: StrategyChoice,
) -> Result<(), Failure> {
    let fail = |m: String| Failure::new("fleet-cache", m);
    let fleet = FleetHandle::new(FleetConfig::new());
    let leader =
        Pi2::builder(catalog.clone()).strategy(strategy.to_strategy()).fleet(&fleet).build();
    let cold = leader.generate(log).map_err(|e| fail(format!("cold generation: {e}")))?;
    if cold.stats.fleet != Some(FleetOutcome::Miss) {
        return Err(fail(format!("cold outcome {:?}, expected Miss", cold.stats.fleet)));
    }

    let follower =
        Pi2::builder(catalog.clone()).strategy(strategy.to_strategy()).fleet(&fleet).build();
    let warm = follower.generate(log).map_err(|e| fail(format!("warm generation: {e}")))?;
    if warm.stats.fleet != Some(FleetOutcome::Hit) {
        return Err(fail(format!("warm outcome {:?}, expected Hit", warm.stats.fleet)));
    }
    if warm.interface != cold.interface {
        return Err(fail("cache hit changed the interface".to_string()));
    }
    if warm.forest != cold.forest {
        return Err(fail("cache hit changed the DiffTree forest".to_string()));
    }
    if warm.queries != cold.queries {
        return Err(fail("cache hit changed the canonical query snapshot".to_string()));
    }
    if warm.cost.total.to_bits() != cold.cost.total.to_bits() {
        return Err(fail(format!(
            "cache hit changed the cost: {} != {}",
            warm.cost.total, cold.cost.total
        )));
    }
    let counters = fleet.counters();
    if counters.misses != 1 || counters.hits != 1 {
        return Err(fail(format!("expected exactly one miss and one hit, got {counters:?}")));
    }

    let private = Pi2::builder(catalog.clone()).strategy(strategy.to_strategy()).build();
    let alone = private.generate(log).map_err(|e| fail(format!("private generation: {e}")))?;
    if alone.interface != cold.interface {
        return Err(fail("fleet-attached generation diverged from a private run".to_string()));
    }

    // Literal-variant phase: the cache entry is shared across literal
    // spellings, but the served artifacts must never be.
    let variant = literal_variant(log);
    if variant.as_slice() != log {
        let entries_before = fleet.counters().entries;
        let warm_v =
            follower.generate(&variant).map_err(|e| fail(format!("variant generation: {e}")))?;
        if warm_v.queries != variant {
            return Err(fail(
                "variant serve leaked the leader's query snapshot instead of the caller's"
                    .to_string(),
            ));
        }
        if !warm_v.forest.expresses_all(&variant) {
            return Err(fail("variant serve cannot express the caller's own queries".to_string()));
        }
        match warm_v.stats.fleet {
            Some(FleetOutcome::Rebind) => {
                // Serving the same variant again must be deterministic.
                let again = follower
                    .generate(&variant)
                    .map_err(|e| fail(format!("variant re-serve: {e}")))?;
                if again.interface != warm_v.interface || again.forest != warm_v.forest {
                    return Err(fail("re-serving the variant changed the interface".to_string()));
                }
                // FullMerge replays the exact fold a cold run performs, so
                // the rebound serve must be bit-identical to a fleet-less
                // generation of the variant. (A searched strategy may
                // legitimately pick a different partition for different
                // literals, so exact equality is only provable here.)
                if strategy == StrategyChoice::FullMerge {
                    let alone_v = private
                        .generate(&variant)
                        .map_err(|e| fail(format!("private variant generation: {e}")))?;
                    if warm_v.interface != alone_v.interface
                        || warm_v.forest != alone_v.forest
                        || warm_v.queries != alone_v.queries
                        || warm_v.cost.total.to_bits() != alone_v.cost.total.to_bits()
                    {
                        return Err(fail(
                            "rebound variant serve diverged from a fleet-less run of the variant"
                                .to_string(),
                        ));
                    }
                }
            }
            // The fleet may legitimately fall through to a private cold
            // generation (respecialization could not express the log) —
            // then it must match a fleet-less run exactly.
            Some(FleetOutcome::Miss) => {
                let alone_v = private
                    .generate(&variant)
                    .map_err(|e| fail(format!("private variant generation: {e}")))?;
                if warm_v.interface != alone_v.interface {
                    return Err(fail(
                        "fall-through variant generation diverged from a fleet-less run"
                            .to_string(),
                    ));
                }
            }
            other => {
                return Err(fail(format!("variant outcome {other:?}, expected Rebind or Miss")));
            }
        }
        if fleet.counters().entries != entries_before {
            return Err(fail("variant serve repinned or grew the cache".to_string()));
        }
        // The original log is still served verbatim from the untouched
        // entry.
        let warm_again =
            follower.generate(log).map_err(|e| fail(format!("post-variant warm: {e}")))?;
        if warm_again.stats.fleet != Some(FleetOutcome::Hit)
            || warm_again.interface != cold.interface
        {
            return Err(fail("variant serve disturbed the original cache entry".to_string()));
        }
    }
    Ok(())
}

/// For `workers ∈ {1, 4}`: generating twice from the same [`Pi2`] (cold
/// memo, then warm) must produce the identical interface and bit-identical
/// cost, and the warm run must actually hit the memo.
fn memo_workers_oracle(catalog: &Catalog, log: &[Query]) -> Result<(), Failure> {
    for workers in [1usize, 4] {
        let pi2 = Pi2::builder(catalog.clone())
            .strategy(SearchStrategy::Mcts(MctsConfig {
                iterations: 12,
                rollout_depth: 2,
                seed: 17,
                workers,
                ..Default::default()
            }))
            .build();
        let fresh = pi2.generate(log).map_err(|e| {
            Failure::new("memo-workers", format!("workers={workers} fresh run: {e}"))
        })?;
        let warm = pi2.generate(log).map_err(|e| {
            Failure::new("memo-workers", format!("workers={workers} warm run: {e}"))
        })?;
        if fresh.interface != warm.interface {
            return Err(Failure::new(
                "memo-workers",
                format!("workers={workers}: warm memo changed the chosen interface"),
            ));
        }
        if fresh.cost.total.to_bits() != warm.cost.total.to_bits() {
            return Err(Failure::new(
                "memo-workers",
                format!(
                    "workers={workers}: memoized cost {} != fresh cost {}",
                    warm.cost.total, fresh.cost.total
                ),
            ));
        }
        if warm.stats.memo_hits == 0 {
            return Err(Failure::new(
                "memo-workers",
                format!("workers={workers}: warm run never hit the cost memo"),
            ));
        }
    }
    Ok(())
}
