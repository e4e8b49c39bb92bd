//! The interactive session runtime.
//!
//! This is the reproduction's stand-in for the browser: an event-driven
//! loop in which every widget or visualization gesture updates choice-node
//! bindings, re-instantiates SQL from the DiffTrees, re-executes it, and
//! returns fresh chart data. The full interactivity loop of the paper —
//! *"the user can simply drag and scroll on the visualization to
//! manipulate the ra and dec ranges and receive immediate visual
//! feedback"* — is exercised headlessly through [`InterfaceSession::dispatch`].

use pi2_difftree::{Binding, Bindings, DiffForest, Domain, NodeKind};
use pi2_engine::{Catalog, DeltaCache, DeltaOutcome, Obtained, ResultSet};
use pi2_interface::{ChartId, Interface, Target, VizInteraction, WidgetId, WidgetKind};
use pi2_sql::{Date, Literal, Query};
use pi2_telemetry::LatencyHistogram;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A value delivered by a widget event.
#[derive(Debug, Clone, PartialEq)]
pub enum WidgetValue {
    /// Option index for radio / button group / dropdown / tabs.
    Pick(usize),
    /// Toggle state.
    Bool(bool),
    /// Slider position (dates use day numbers).
    Scalar(f64),
    /// Range-slider positions.
    Range(f64, f64),
    /// Free-form literal (text input).
    Literal(Literal),
    /// Per-option inclusion flags for a multi-select.
    Multi(Vec<bool>),
}

/// An interface event.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// Operate a widget.
    SetWidget {
        /// The widget the event addresses.
        widget: WidgetId,
        /// The event's value.
        value: WidgetValue,
    },
    /// Brush a range along a chart's x axis (dates as day numbers).
    Brush {
        /// The chart the event addresses.
        chart: ChartId,
        /// Lower bound (inclusive).
        low: f64,
        /// Upper bound (inclusive).
        high: f64,
    },
    /// Pan a chart by (dx, dy) in data units.
    Pan {
        /// The chart the event addresses.
        chart: ChartId,
        /// Horizontal pan distance in data units.
        dx: f64,
        /// Vertical pan distance in data units.
        dy: f64,
    },
    /// Zoom a chart by a factor around the current view center
    /// (`factor < 1` zooms in, `> 1` zooms out).
    Zoom {
        /// The chart the event addresses.
        chart: ChartId,
        /// Zoom factor (<1 zooms in).
        factor: f64,
    },
    /// Click a mark on a chart; `value` is the clicked x value.
    Click {
        /// The chart the event addresses.
        chart: ChartId,
        /// The event's value.
        value: Literal,
    },
}

impl Event {
    /// The event's class name ("set_widget", "brush", "pan", "zoom",
    /// "click"), used to key per-class latency histograms in
    /// [`SessionStats`] and benchmark reports.
    pub fn class(&self) -> &'static str {
        match self {
            Event::SetWidget { .. } => "set_widget",
            Event::Brush { .. } => "brush",
            Event::Pan { .. } => "pan",
            Event::Zoom { .. } => "zoom",
            Event::Click { .. } => "click",
        }
    }
}

/// Session errors.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum SessionError {
    /// No widget with that id.
    UnknownWidget(WidgetId),
    /// No chart with that id.
    UnknownChart(ChartId),
    /// The chart has no interaction that can consume the event.
    NoInteraction(ChartId, &'static str),
    /// The widget got a value of the wrong shape.
    WrongValue(String),
    /// The value falls outside the choice node's domain.
    OutOfDomain(String),
    /// Internal: lowering or execution failed.
    Internal(String),
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::UnknownWidget(w) => write!(f, "unknown widget {w}"),
            SessionError::UnknownChart(c) => write!(f, "unknown chart {c}"),
            SessionError::NoInteraction(c, kind) => {
                write!(f, "chart {c} has no {kind} interaction")
            }
            SessionError::WrongValue(m) => write!(f, "wrong value: {m}"),
            SessionError::OutOfDomain(m) => write!(f, "out of domain: {m}"),
            SessionError::Internal(m) => write!(f, "internal error: {m}"),
        }
    }
}
impl std::error::Error for SessionError {}

/// The live display state of one widget (see
/// [`InterfaceSession::widget_states`]).
#[derive(Debug, Clone, PartialEq)]
pub enum WidgetState {
    /// Selected option index (radio / button group / dropdown / tabs, and
    /// discrete-domain holes).
    Picked(usize),
    /// Toggle position.
    Toggled(bool),
    /// Current value of a single-value hole.
    Value(Literal),
    /// Current (low, high) of a range pair.
    Range(Literal, Literal),
    /// Per-option inclusion flags of a multi-select.
    Flags(Vec<bool>),
    /// State could not be determined.
    Unknown,
}

/// Fresh data for one chart after an event.
#[derive(Debug, Clone)]
pub struct ChartUpdate {
    /// The chart the event addresses.
    pub chart: ChartId,
    /// The SQL the chart now shows (also displayed in the demo's query
    /// panel).
    pub query: Query,
    /// Result, shared with the catalog's result cache so a warm dispatch
    /// hands back the cached rows without copying them.
    pub result: Arc<ResultSet>,
}

/// Counters and per-event-class dispatch latency for one session.
///
/// Returned by [`InterfaceSession::stats`]; reset-free (counts accumulate
/// for the session's lifetime).
#[derive(Debug, Clone, Default)]
pub struct SessionStats {
    /// Successfully dispatched events.
    pub dispatches: u64,
    /// Bound queries answered from the catalog's result cache, which the
    /// session shares with generation and with every other session over
    /// clones of the same catalog: a hit may be another session's result.
    pub cache_hits: u64,
    /// Bound queries the result cache could not answer (failed executions
    /// included).
    pub cache_misses: u64,
    /// Cache misses satisfied by incremental (delta) recomputation: only
    /// the blocks a bound shift could affect were re-evaluated.
    pub delta_hits: u64,
    /// Cache misses that seeded the delta cache with a full mask.
    pub delta_seeds: u64,
    /// Cache misses answered by a full execution on the columnar path.
    pub columnar_execs: u64,
    /// Cache misses answered by a full execution on the reference
    /// interpreter.
    pub reference_execs: u64,
    /// Chart updates returned across all dispatches.
    pub charts_updated: u64,
    /// Charts skipped because their tree's bindings did not change.
    pub charts_skipped: u64,
    /// Dispatch latency per event class (see [`Event::class`]).
    pub latency: BTreeMap<&'static str, LatencyHistogram>,
}

impl SessionStats {
    /// Render as a JSON object (flat counters plus a `latency` object of
    /// per-event-class histograms).
    pub fn to_json(&self) -> String {
        let latency: Vec<String> =
            self.latency.iter().map(|(k, h)| format!("\"{k}\":{}", h.to_json())).collect();
        format!(
            "{{\"dispatches\":{},\"cache_hits\":{},\"cache_misses\":{},\
             \"delta_hits\":{},\"delta_seeds\":{},\
             \"columnar_execs\":{},\"reference_execs\":{},\
             \"charts_updated\":{},\"charts_skipped\":{},\"latency\":{{{}}}}}",
            self.dispatches,
            self.cache_hits,
            self.cache_misses,
            self.delta_hits,
            self.delta_seeds,
            self.columnar_execs,
            self.reference_execs,
            self.charts_updated,
            self.charts_skipped,
            latency.join(",")
        )
    }
}

/// Interior-mutable session state: the delta cache and counters that
/// read-side APIs (`refresh_all`, `scene_sync`) update through `&self`.
#[derive(Debug, Default)]
struct SessionState {
    /// Selection masks from previous dispatches, keyed by query template:
    /// lets a pan/zoom/brush that only shifts range bounds re-evaluate
    /// only the affected zone-map blocks (see [`pi2_engine::DeltaCache`]).
    delta_cache: DeltaCache,
    stats: SessionStats,
    /// Retained scene graph + delta history, initialized lazily by the
    /// first `scene_*` call (see [`crate::scene`]).
    scene: Option<crate::scene::SceneState>,
    /// Trees whose bindings changed since the retained scene last synced:
    /// the scene damage `dispatch` records for the next
    /// [`InterfaceSession::scene_sync`]. Marked as each binding changes,
    /// before any execution, so a dispatch that fails leaves its trees
    /// stale; cleared only by a successful sync.
    stale: BTreeSet<usize>,
}

/// Builder for [`InterfaceSession`].
///
/// Without [`queries`](SessionBuilder::queries), trees start at their
/// structural defaults; with it, each tree starts at the witness bindings
/// of its first source query — guaranteeing the initial view shows real
/// queries even for merges of structurally different queries.
/// [`GeneratedInterface::session`](crate::pipeline::GeneratedInterface::session)
/// is the usual shortcut for sessions over generated interfaces.
pub struct SessionBuilder<'a> {
    catalog: Catalog,
    forest: DiffForest,
    interface: Interface,
    log: Option<&'a [Query]>,
}

impl<'a> SessionBuilder<'a> {
    /// Start building a session driving `interface` over `forest`,
    /// executing against `catalog`.
    pub fn new(catalog: Catalog, forest: DiffForest, interface: Interface) -> Self {
        Self { catalog, forest, interface, log: None }
    }

    /// Initialize each tree's bindings from the witness bindings of its
    /// first source query in `log` instead of structural defaults.
    pub fn queries(mut self, log: &'a [Query]) -> Self {
        self.log = Some(log);
        self
    }

    /// Build the session.
    pub fn build(self) -> InterfaceSession {
        let bindings = match self.log {
            Some(log) => {
                self.forest.trees.iter().map(|t| pi2_difftree::default_bindings(t, log)).collect()
            }
            None => vec![Bindings::new(); self.forest.trees.len()],
        };
        InterfaceSession {
            catalog: self.catalog,
            forest: self.forest,
            interface: self.interface,
            bindings,
            state: RefCell::new(SessionState::default()),
        }
    }
}

/// A live interface: catalog + forest + interface + current bindings.
pub struct InterfaceSession {
    catalog: Catalog,
    forest: DiffForest,
    interface: Interface,
    /// Current bindings, per tree.
    bindings: Vec<Bindings>,
    /// Caches, counters and the retained scene (interior-mutable:
    /// `refresh_all` and `scene_sync` update them through `&self`).
    state: RefCell<SessionState>,
}

impl InterfaceSession {
    /// The interface being driven.
    pub fn interface(&self) -> &Interface {
        &self.interface
    }

    /// Current bindings for tree `t`.
    pub fn bindings(&self, t: usize) -> Option<&Bindings> {
        self.bindings.get(t)
    }

    /// The current display state of every widget: (widget id, state), in
    /// interface order. Used by renderers to show live widget positions.
    pub fn widget_states(&self) -> Vec<(WidgetId, WidgetState)> {
        self.interface
            .widgets
            .iter()
            .map(|w| {
                let state = self.widget_state(w).unwrap_or(WidgetState::Unknown);
                (w.id, state)
            })
            .collect()
    }

    fn widget_state(&self, w: &pi2_interface::Widget) -> Result<WidgetState, SessionError> {
        if let WidgetKind::MultiSelect { .. } = &w.kind {
            let mut flags = Vec::with_capacity(w.targets.len());
            for t in &w.targets {
                let on = match self.tree_bindings(t.tree)?.get(t.node) {
                    Some(Binding::Include(b)) => *b,
                    _ => true,
                };
                flags.push(on);
            }
            return Ok(WidgetState::Flags(flags));
        }
        let target = Self::widget_target(w, 0)?;
        match self.node_kind(target)? {
            NodeKind::Any => {
                let pick = match self.tree_bindings(target.tree)?.get(target.node) {
                    Some(Binding::Pick(i)) => *i,
                    _ => 0,
                };
                Ok(WidgetState::Picked(pick))
            }
            NodeKind::Opt => {
                let on = match self.tree_bindings(target.tree)?.get(target.node) {
                    Some(Binding::Include(b)) => *b,
                    _ => true,
                };
                Ok(WidgetState::Toggled(on))
            }
            NodeKind::Hole { domain, default, .. } => {
                let value = match self.tree_bindings(target.tree)?.get(target.node) {
                    Some(Binding::Value(l)) => l.clone(),
                    _ => default,
                };
                // A discrete-domain widget (radio/dropdown over a hole)
                // reports the picked index; continuous ones the value(s).
                if let Domain::Discrete(items) = &domain {
                    if !matches!(w.kind, WidgetKind::Slider { .. } | WidgetKind::RangeSlider { .. })
                    {
                        let idx = items.iter().position(|l| *l == value).unwrap_or(0);
                        return Ok(WidgetState::Picked(idx));
                    }
                }
                if w.targets.len() == 2 {
                    let hi_target = Self::widget_target(w, 1)?;
                    let hi = match self.tree_bindings(hi_target.tree)?.get(hi_target.node) {
                        Some(Binding::Value(l)) => l.clone(),
                        _ => match self.node_kind(hi_target)? {
                            NodeKind::Hole { default, .. } => default,
                            _ => value.clone(),
                        },
                    };
                    Ok(WidgetState::Range(value, hi))
                } else {
                    Ok(WidgetState::Value(value))
                }
            }
            other => Err(SessionError::Internal(format!("widget target is {other:?}"))),
        }
    }

    /// Execution counters and dispatch-latency histograms accumulated so
    /// far (a snapshot; the live counters keep accumulating).
    pub fn stats(&self) -> SessionStats {
        self.state.borrow().stats.clone()
    }

    /// The SQL query a chart currently shows.
    pub fn query_for_chart(&self, chart: ChartId) -> Result<Query, SessionError> {
        let c = self
            .interface
            .charts
            .iter()
            .find(|c| c.id == chart)
            .ok_or(SessionError::UnknownChart(chart))?;
        let tree = self.forest.trees.get(c.tree).ok_or_else(|| {
            SessionError::Internal(format!("chart {chart} references missing tree {}", c.tree))
        })?;
        pi2_difftree::lower_query(tree, self.tree_bindings(c.tree)?)
            .map_err(|e| SessionError::Internal(e.to_string()))
    }

    /// Execute and return every chart's current data.
    pub fn refresh_all(&self) -> Result<Vec<ChartUpdate>, SessionError> {
        self.updates_for(self.interface.charts.iter().map(|c| c.id).collect())
    }

    /// Dispatch one event; returns updates for every chart whose underlying
    /// query changed.
    ///
    /// Dependency tracking: a chart re-executes only when the event
    /// actually *changed* a binding one of its tree's choice nodes reads —
    /// events that restate the current value (zero-delta pan, re-picking
    /// the selected option) update nothing.
    pub fn dispatch(&mut self, event: Event) -> Result<Vec<ChartUpdate>, SessionError> {
        let started = Instant::now();
        let class = event.class();
        let changed_trees = match &event {
            Event::SetWidget { widget, value } => self.apply_widget(*widget, value)?,
            Event::Brush { chart, low, high } => self.apply_brush(*chart, *low, *high)?,
            Event::Pan { chart, dx, dy } => self.apply_panzoom(*chart, Gesture::Pan(*dx, *dy))?,
            Event::Zoom { chart, factor } => self.apply_panzoom(*chart, Gesture::Zoom(*factor))?,
            Event::Click { chart, value } => self.apply_click(*chart, value)?,
        };
        let charts: Vec<ChartId> = self
            .interface
            .charts
            .iter()
            .filter(|c| changed_trees.contains(&c.tree))
            .map(|c| c.id)
            .collect();
        let skipped = self.interface.charts.len() - charts.len();
        let updates = self.updates_for(charts)?;
        let mut st = self.state.borrow_mut();
        st.stats.dispatches += 1;
        st.stats.charts_updated += updates.len() as u64;
        st.stats.charts_skipped += skipped as u64;
        st.stats.latency.entry(class).or_default().record(started.elapsed());
        Ok(updates)
    }

    /// [`InterfaceSession::dispatch`], additionally syncing the retained
    /// scene graph: returns the chart updates together with the damage
    /// delta the event caused (if any). This is the streaming path behind
    /// the server's `render_delta` endpoint.
    pub fn dispatch_with_delta(
        &mut self,
        event: Event,
    ) -> Result<(Vec<ChartUpdate>, Option<crate::scene::SceneDelta>), SessionError> {
        let updates = self.dispatch(event)?;
        let delta = self.scene_sync()?;
        Ok((updates, delta))
    }

    /// Bring the retained scene graph up to date with the session's
    /// current bindings, returning the damage delta when anything changed.
    /// Initializes the scene (at version 1, with no delta) on first call.
    ///
    /// Only the charts on trees that dispatch marked stale are re-looked-up
    /// (through the result cache) and rebuilt, plus every widget's state;
    /// all other nodes are kept from the retained scene. With nothing
    /// stale, this returns `Ok(None)` without touching a chart.
    pub fn scene_sync(&self) -> Result<Option<crate::scene::SceneDelta>, SessionError> {
        let charts = {
            let st = self.state.borrow();
            let cold = st.scene.is_none();
            if !cold && st.stale.is_empty() {
                return Ok(None);
            }
            self.interface
                .charts
                .iter()
                .filter(|c| cold || st.stale.contains(&c.tree))
                .map(|c| c.id)
                .collect()
        };
        let updates = self.updates_for(charts)?;
        let states = self.widget_states();
        let mut st = self.state.borrow_mut();
        st.stale.clear();
        match st.scene.as_mut() {
            Some(scene) => {
                let fresh = scene.graph().with_updates(&self.interface, &updates, &states);
                Ok(scene.sync(fresh))
            }
            None => {
                let fresh = crate::scene::SceneGraph::build(&self.interface, &updates, &states);
                st.scene = Some(crate::scene::SceneState::new(fresh));
                Ok(None)
            }
        }
    }

    /// Current scene version: 0 before the scene is initialized, then the
    /// monotone counter [`crate::scene::SceneState::version`].
    pub fn scene_version(&self) -> u64 {
        self.state.borrow().scene.as_ref().map(|s| s.version()).unwrap_or(0)
    }

    /// A full snapshot of the retained scene (synced first) and its
    /// version — what a client starts from before consuming deltas.
    pub fn scene_snapshot(&self) -> Result<(crate::scene::SceneGraph, u64), SessionError> {
        self.scene_sync()?;
        let st = self.state.borrow();
        let scene = st
            .scene
            .as_ref()
            .ok_or_else(|| SessionError::Internal("scene state missing after sync".into()))?;
        Ok((scene.graph().clone(), scene.version()))
    }

    /// Catch a client up from scene version `since` (synced first): either
    /// a contiguous run of deltas or a full-snapshot resync when `since`
    /// is stale or unknown.
    pub fn scene_deltas_since(
        &self,
        since: u64,
    ) -> Result<crate::scene::SceneCatchup, SessionError> {
        self.scene_sync()?;
        let st = self.state.borrow();
        let scene = st
            .scene
            .as_ref()
            .ok_or_else(|| SessionError::Internal("scene state missing after sync".into()))?;
        Ok(scene.deltas_since(since))
    }

    fn updates_for(&self, charts: Vec<ChartId>) -> Result<Vec<ChartUpdate>, SessionError> {
        charts
            .into_iter()
            .map(|id| {
                let query = self.query_for_chart(id)?;
                let result = self.execute_for_session(&query)?;
                Ok(ChartUpdate { chart: id, query, result })
            })
            .collect()
    }

    /// Execute one chart query through the catalog's one execution body
    /// (result cache, then delta recomputation against this session's
    /// delta cache, then a full execution), counting how it was answered.
    fn execute_for_session(&self, query: &Query) -> Result<Arc<ResultSet>, SessionError> {
        let mut st = self.state.borrow_mut();
        let SessionState { delta_cache, stats, .. } = &mut *st;
        let answered = self.catalog.execute_with(query, Some(delta_cache));
        // Errors are never cached, so a failed execution counts as a miss.
        let obtained = answered.as_ref().ok().map(|(_, obtained)| *obtained);
        match obtained {
            Some(Obtained::Cached) => stats.cache_hits += 1,
            Some(Obtained::Delta(DeltaOutcome::Incremental { .. })) => stats.delta_hits += 1,
            Some(Obtained::Delta(DeltaOutcome::Seeded)) => stats.delta_seeds += 1,
            Some(Obtained::Columnar) => stats.columnar_execs += 1,
            Some(Obtained::Reference) => stats.reference_execs += 1,
            None => {}
        }
        if obtained != Some(Obtained::Cached) {
            stats.cache_misses += 1;
        }
        answered.map(|(result, _)| result).map_err(|e| SessionError::Internal(e.to_string()))
    }

    // ---- binding helpers ----------------------------------------------------

    /// Bindings of tree `tree`, as a session error (instead of a panic)
    /// when an interface references a tree the forest doesn't have.
    fn tree_bindings(&self, tree: usize) -> Result<&Bindings, SessionError> {
        self.bindings
            .get(tree)
            .ok_or_else(|| SessionError::Internal(format!("no bindings for tree {tree}")))
    }

    fn tree_bindings_mut(&mut self, tree: usize) -> Result<&mut Bindings, SessionError> {
        self.bindings
            .get_mut(tree)
            .ok_or_else(|| SessionError::Internal(format!("no bindings for tree {tree}")))
    }

    /// The `i`th binding target of a widget, as a session error when the
    /// mapper produced fewer targets than the widget kind requires.
    fn widget_target(w: &pi2_interface::Widget, i: usize) -> Result<Target, SessionError> {
        w.targets
            .get(i)
            .copied()
            .ok_or_else(|| SessionError::Internal(format!("widget {} has no target {i}", w.id)))
    }

    fn node_kind(&self, t: Target) -> Result<NodeKind, SessionError> {
        self.forest
            .trees
            .get(t.tree)
            .and_then(|tree| tree.root.find(t.node))
            .map(|n| n.kind.clone())
            .ok_or_else(|| SessionError::Internal(format!("no node {t:?}")))
    }

    /// The current f64 view of a hole's value (bindings or default).
    fn hole_value_f64(&self, t: Target) -> Result<f64, SessionError> {
        let lit = match self.tree_bindings(t.tree)?.get(t.node) {
            Some(Binding::Value(l)) => l.clone(),
            _ => match self.node_kind(t)? {
                NodeKind::Hole { default, .. } => default,
                other => {
                    return Err(SessionError::Internal(format!(
                        "target {t:?} is {other:?}, not a hole"
                    )))
                }
            },
        };
        literal_to_f64(&lit)
            .ok_or_else(|| SessionError::WrongValue(format!("{lit} is not numeric")))
    }

    /// Bind a hole to the clamped f64 `v`; returns whether the effective
    /// value changed.
    fn bind_hole_f64(&mut self, t: Target, v: f64) -> Result<bool, SessionError> {
        let NodeKind::Hole { domain, .. } = self.node_kind(t)? else {
            return Err(SessionError::Internal(format!("target {t:?} is not a hole")));
        };
        let lit = literal_from_f64_clamped(&domain, v).ok_or_else(|| {
            SessionError::OutOfDomain(format!("cannot place {v} into {domain:?}"))
        })?;
        self.apply_binding(t, Binding::Value(lit))
    }

    /// The binding a node falls back to when none is set explicitly
    /// (mirrors the lowering defaults: first `Any` child, `Opt` included,
    /// `Hole` default).
    fn default_binding(&self, t: Target) -> Result<Binding, SessionError> {
        Ok(match self.node_kind(t)? {
            NodeKind::Any => Binding::Pick(0),
            NodeKind::Opt => Binding::Include(true),
            NodeKind::Hole { default, .. } => Binding::Value(default),
            other => {
                return Err(SessionError::Internal(format!(
                    "target {t:?} is {other:?}, not a choice node"
                )))
            }
        })
    }

    /// Set `t`'s binding, returning whether the *effective* value changed.
    /// Restating the current value (explicit or default) is a no-op, so
    /// dispatch can skip re-executing charts whose queries cannot have
    /// changed. A change marks the tree stale for the next scene sync.
    fn apply_binding(&mut self, t: Target, b: Binding) -> Result<bool, SessionError> {
        let current = match self.tree_bindings(t.tree)?.get(t.node) {
            Some(cur) => cur.clone(),
            None => self.default_binding(t)?,
        };
        if current == b {
            return Ok(false);
        }
        self.tree_bindings_mut(t.tree)?.set(t.node, b);
        self.state.get_mut().stale.insert(t.tree);
        Ok(true)
    }

    // ---- event application ----------------------------------------------------

    fn apply_widget(
        &mut self,
        id: WidgetId,
        value: &WidgetValue,
    ) -> Result<BTreeSet<usize>, SessionError> {
        let widget = self
            .interface
            .widgets
            .iter()
            .find(|w| w.id == id)
            .ok_or(SessionError::UnknownWidget(id))?
            .clone();
        let mut changed = BTreeSet::new();
        match (&widget.kind, value) {
            (
                WidgetKind::Radio { options }
                | WidgetKind::ButtonGroup { options }
                | WidgetKind::Dropdown { options }
                | WidgetKind::Tabs { options },
                WidgetValue::Pick(i),
            ) => {
                if *i >= options.len() {
                    return Err(SessionError::WrongValue(format!(
                        "pick {i} out of {} options",
                        options.len()
                    )));
                }
                let target = Self::widget_target(&widget, 0)?;
                let binding = match self.node_kind(target)? {
                    NodeKind::Any => Binding::Pick(*i),
                    NodeKind::Hole { domain: Domain::Discrete(items), .. } => {
                        let lit = items.get(*i).ok_or_else(|| {
                            SessionError::WrongValue(format!("pick {i} outside domain"))
                        })?;
                        Binding::Value(lit.clone())
                    }
                    other => {
                        return Err(SessionError::Internal(format!(
                            "discrete widget bound to {other:?}"
                        )))
                    }
                };
                if self.apply_binding(target, binding)? {
                    changed.insert(target.tree);
                }
            }
            (WidgetKind::Toggle, WidgetValue::Bool(b)) => {
                let target = Self::widget_target(&widget, 0)?;
                if self.apply_binding(target, Binding::Include(*b))? {
                    changed.insert(target.tree);
                }
            }
            (WidgetKind::Slider { .. }, WidgetValue::Scalar(v)) => {
                let target = Self::widget_target(&widget, 0)?;
                if self.bind_hole_f64(target, *v)? {
                    changed.insert(target.tree);
                }
            }
            (WidgetKind::RangeSlider { .. }, WidgetValue::Range(lo, hi)) => {
                let (lo, hi) = if lo <= hi { (*lo, *hi) } else { (*hi, *lo) };
                let (tl, th) = (Self::widget_target(&widget, 0)?, Self::widget_target(&widget, 1)?);
                if self.bind_hole_f64(tl, lo)? {
                    changed.insert(tl.tree);
                }
                if self.bind_hole_f64(th, hi)? {
                    changed.insert(th.tree);
                }
            }
            (WidgetKind::MultiSelect { options }, WidgetValue::Multi(flags)) => {
                if flags.len() != options.len() || flags.len() != widget.targets.len() {
                    return Err(SessionError::WrongValue(format!(
                        "multi-select expects {} flags, got {}",
                        options.len(),
                        flags.len()
                    )));
                }
                for (t, flag) in widget.targets.iter().zip(flags) {
                    if self.apply_binding(*t, Binding::Include(*flag))? {
                        changed.insert(t.tree);
                    }
                }
            }
            (WidgetKind::TextInput, WidgetValue::Literal(l)) => {
                let target = Self::widget_target(&widget, 0)?;
                let NodeKind::Hole { domain, .. } = self.node_kind(target)? else {
                    return Err(SessionError::Internal("text input without hole".into()));
                };
                if !domain.contains(l) {
                    return Err(SessionError::OutOfDomain(format!("{l} not in {domain:?}")));
                }
                if self.apply_binding(target, Binding::Value(l.clone()))? {
                    changed.insert(target.tree);
                }
            }
            (kind, v) => {
                return Err(SessionError::WrongValue(format!(
                    "widget {} cannot take {v:?}",
                    kind.kind_name()
                )))
            }
        }
        Ok(changed)
    }

    fn apply_brush(
        &mut self,
        chart: ChartId,
        low: f64,
        high: f64,
    ) -> Result<BTreeSet<usize>, SessionError> {
        let c = self
            .interface
            .charts
            .iter()
            .find(|c| c.id == chart)
            .ok_or(SessionError::UnknownChart(chart))?;
        let brushes: Vec<(Target, Target)> = c
            .interactions
            .iter()
            .filter_map(|i| match i {
                VizInteraction::BrushX { low, high, .. } => Some((*low, *high)),
                _ => None,
            })
            .collect();
        if brushes.is_empty() {
            return Err(SessionError::NoInteraction(chart, "brush"));
        }
        let (lo, hi) = if low <= high { (low, high) } else { (high, low) };
        let mut changed = BTreeSet::new();
        for (tl, th) in brushes {
            if self.bind_hole_f64(tl, lo)? {
                changed.insert(tl.tree);
            }
            if self.bind_hole_f64(th, hi)? {
                changed.insert(th.tree);
            }
        }
        Ok(changed)
    }

    fn apply_click(
        &mut self,
        chart: ChartId,
        value: &Literal,
    ) -> Result<BTreeSet<usize>, SessionError> {
        let c = self
            .interface
            .charts
            .iter()
            .find(|c| c.id == chart)
            .ok_or(SessionError::UnknownChart(chart))?;
        let targets: Vec<Target> = c
            .interactions
            .iter()
            .filter_map(|i| match i {
                VizInteraction::ClickBind { target, .. } => Some(*target),
                _ => None,
            })
            .collect();
        if targets.is_empty() {
            return Err(SessionError::NoInteraction(chart, "click"));
        }
        let mut changed = BTreeSet::new();
        for t in targets {
            let NodeKind::Hole { domain, .. } = self.node_kind(t)? else {
                return Err(SessionError::Internal("click target is not a hole".into()));
            };
            if !domain.contains(value) {
                return Err(SessionError::OutOfDomain(format!("{value} not in {domain:?}")));
            }
            if self.apply_binding(t, Binding::Value(value.clone()))? {
                changed.insert(t.tree);
            }
        }
        Ok(changed)
    }

    fn apply_panzoom(
        &mut self,
        chart: ChartId,
        gesture: Gesture,
    ) -> Result<BTreeSet<usize>, SessionError> {
        let c = self
            .interface
            .charts
            .iter()
            .find(|c| c.id == chart)
            .ok_or(SessionError::UnknownChart(chart))?;
        type AxisPair = Option<(Target, Target)>;
        let pz: Vec<(AxisPair, AxisPair)> = c
            .interactions
            .iter()
            .filter_map(|i| match i {
                VizInteraction::PanZoom { x, y, .. } => Some((*x, *y)),
                _ => None,
            })
            .collect();
        if pz.is_empty() {
            return Err(SessionError::NoInteraction(chart, "pan-zoom"));
        }
        let mut changed = BTreeSet::new();
        for (x, y) in pz {
            for (axis_pair, delta) in [(x, gesture.dx()), (y, gesture.dy())] {
                let Some((tl, th)) = axis_pair else { continue };
                let lo = self.hole_value_f64(tl)?;
                let hi = self.hole_value_f64(th)?;
                let (new_lo, new_hi) = match gesture {
                    Gesture::Pan(..) => (lo + delta, hi + delta),
                    Gesture::Zoom(factor) => {
                        let center = (lo + hi) / 2.0;
                        let half = (hi - lo) / 2.0 * factor;
                        (center - half, center + half)
                    }
                };
                // Clamp into the hole's domain, preserving the window width
                // under pan where possible.
                let NodeKind::Hole { domain, .. } = self.node_kind(tl)? else {
                    return Err(SessionError::Internal("pan target is not a hole".into()));
                };
                let (new_lo, new_hi) =
                    clamp_window(&domain, new_lo, new_hi, matches!(gesture, Gesture::Pan(..)));
                if self.bind_hole_f64(tl, new_lo)? {
                    changed.insert(tl.tree);
                }
                if self.bind_hole_f64(th, new_hi)? {
                    changed.insert(th.tree);
                }
            }
        }
        Ok(changed)
    }
}

#[derive(Clone, Copy)]
enum Gesture {
    Pan(f64, f64),
    Zoom(f64),
}

impl Gesture {
    fn dx(self) -> f64 {
        match self {
            Gesture::Pan(dx, _) => dx,
            Gesture::Zoom(_) => 0.0,
        }
    }
    fn dy(self) -> f64 {
        match self {
            Gesture::Pan(_, dy) => dy,
            Gesture::Zoom(_) => 0.0,
        }
    }
}

/// Domain bounds as f64, for continuous domains.
fn domain_bounds(domain: &Domain) -> Option<(f64, f64)> {
    match domain {
        Domain::IntRange { min, max } => Some((*min as f64, *max as f64)),
        Domain::FloatRange { min, max } => Some((min.0, max.0)),
        Domain::DateRange { min, max } => Some((min.0 as f64, max.0 as f64)),
        Domain::Discrete(_) => None,
    }
}

/// Clamp a (lo, hi) window into the domain; when `preserve_width`, slide
/// the whole window instead of shrinking it.
fn clamp_window(domain: &Domain, lo: f64, hi: f64, preserve_width: bool) -> (f64, f64) {
    let Some((dmin, dmax)) = domain_bounds(domain) else { return (lo, hi) };
    let width = (hi - lo).min(dmax - dmin);
    if preserve_width {
        let mut lo = lo;
        if lo < dmin {
            lo = dmin;
        }
        if lo + width > dmax {
            lo = dmax - width;
        }
        (lo, lo + width)
    } else {
        (lo.max(dmin), hi.min(dmax))
    }
}

fn literal_to_f64(l: &Literal) -> Option<f64> {
    match l {
        Literal::Int(v) => Some(*v as f64),
        Literal::Float(f) => Some(f.0),
        Literal::Date(d) => Some(d.0 as f64),
        _ => None,
    }
}

/// Convert an f64 back into a literal of the domain's type, clamped into
/// the domain.
fn literal_from_f64_clamped(domain: &Domain, v: f64) -> Option<Literal> {
    match domain {
        Domain::IntRange { min, max } => Some(Literal::Int((v.round() as i64).clamp(*min, *max))),
        Domain::FloatRange { min, max } => {
            Some(Literal::Float(pi2_sql::F64(v.clamp(min.0, max.0))))
        }
        Domain::DateRange { min, max } => {
            Some(Literal::Date(Date((v.round() as i32).clamp(min.0, max.0))))
        }
        Domain::Discrete(items) => {
            // Nearest numeric item, if the domain is numeric.
            items
                .iter()
                .filter_map(|l| literal_to_f64(l).map(|f| (l, f)))
                .min_by(|a, b| (a.1 - v).abs().total_cmp(&(b.1 - v).abs()))
                .map(|(l, _)| l.clone())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Pi2, SearchStrategy};

    fn sdss_session() -> (Pi2, crate::pipeline::GeneratedInterface) {
        let catalog =
            pi2_datasets::sdss::catalog(&pi2_datasets::sdss::Config { objects: 400, seed: 3 });
        let pi2 = Pi2::builder(catalog).strategy(SearchStrategy::FullMerge).build();
        let queries: Vec<String> =
            pi2_datasets::sdss::demo_queries().iter().map(|q| q.to_string()).collect();
        let refs: Vec<&str> = queries.iter().map(|s| s.as_str()).collect();
        let g = pi2.generate_sql(&refs).unwrap();
        (pi2, g)
    }

    #[test]
    fn panzoom_updates_region_query() {
        let (pi2, g) = sdss_session();
        let mut s = pi2.session(&g);
        let before = s.query_for_chart(0).unwrap().to_string();
        let updates = s.dispatch(Event::Pan { chart: 0, dx: 1.0, dy: 0.5 }).unwrap();
        assert_eq!(updates.len(), 1);
        let after = updates[0].query.to_string();
        assert_ne!(before, after, "pan did not change the query");
        // Zoom out widens the window.
        let u2 = s.dispatch(Event::Zoom { chart: 0, factor: 2.0 }).unwrap();
        assert_ne!(u2[0].query.to_string(), after);
    }

    #[test]
    fn pan_clamps_to_domain() {
        let (pi2, g) = sdss_session();
        let mut s = pi2.session(&g);
        // A huge pan must clamp, not error, and still produce a valid query.
        let updates = s.dispatch(Event::Pan { chart: 0, dx: 1e9, dy: -1e9 }).unwrap();
        assert_eq!(updates.len(), 1);
    }

    #[test]
    fn toggle_and_buttons_drive_fig4_interface() {
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
            .strategy(SearchStrategy::FullMerge)
            .build();
        let g = pi2
            .generate_sql(&[
                "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
                "SELECT p, count(*) FROM t WHERE b = 2 GROUP BY p",
                "SELECT a, count(*) FROM t GROUP BY a",
            ])
            .unwrap();
        let mut s = pi2.session(&g);
        // Find a toggle; switch it off — the WHERE clause disappears.
        let toggle = g
            .interface
            .widgets
            .iter()
            .find(|w| matches!(w.kind, WidgetKind::Toggle))
            .expect("toggle widget")
            .id;
        let updates = s
            .dispatch(Event::SetWidget { widget: toggle, value: WidgetValue::Bool(false) })
            .unwrap();
        assert!(!updates.is_empty());
        assert!(
            !updates[0].query.to_string().contains("WHERE"),
            "toggle off should drop the filter: {}",
            updates[0].query
        );
        let updates = s
            .dispatch(Event::SetWidget { widget: toggle, value: WidgetValue::Bool(true) })
            .unwrap();
        assert!(updates[0].query.to_string().contains("WHERE"));
    }

    #[test]
    fn wrong_widget_value_is_error() {
        let (pi2, g) = sdss_session();
        let mut s = pi2.session(&g);
        if let Some(w) = g.interface.widgets.first() {
            let r = s.dispatch(Event::SetWidget { widget: w.id, value: WidgetValue::Bool(true) });
            // SDSS interface has sliders in the widget variant or none at all.
            let _ = r;
        }
        assert!(matches!(
            s.dispatch(Event::Brush { chart: 999, low: 0.0, high: 1.0 }),
            Err(SessionError::UnknownChart(999))
        ));
        assert!(matches!(
            s.dispatch(Event::SetWidget { widget: 999, value: WidgetValue::Bool(true) }),
            Err(SessionError::UnknownWidget(999))
        ));
    }

    /// The Figure 5 scenario built by hand: two trees, one chart with a
    /// click binding. Returns the session and the clickable chart's id.
    fn fig5_click_session() -> (InterfaceSession, ChartId) {
        let catalog = pi2_datasets::toy::default_catalog();
        let queries = pi2_datasets::toy::fig5_queries();
        let merged = pi2_difftree::DiffForest::fully_merged(&queries[..2]);
        let single = pi2_difftree::DiffForest::singletons(&queries[2..]);
        let mut forest = pi2_difftree::DiffForest {
            trees: vec![merged.trees[0].clone(), single.trees[0].clone()],
        };
        for t in &mut forest.trees {
            *t = pi2_difftree::rules::canonicalize(t, Some(&catalog));
        }
        let ifaces = pi2_interface::map_forest(
            &forest,
            &catalog,
            &queries,
            &pi2_interface::MapperConfig::default(),
        )
        .unwrap();
        let iface = ifaces
            .into_iter()
            .find(|i| {
                i.charts.iter().any(|c| {
                    c.interactions.iter().any(|x| matches!(x, VizInteraction::ClickBind { .. }))
                })
            })
            .expect("click-bind interface");
        let click_chart = iface
            .charts
            .iter()
            .find(|c| c.interactions.iter().any(|x| matches!(x, VizInteraction::ClickBind { .. })))
            .unwrap()
            .id;
        (SessionBuilder::new(catalog, forest, iface).build(), click_chart)
    }

    #[test]
    fn click_binding_roundtrip() {
        let (mut s, click_chart) = fig5_click_session();
        let updates =
            s.dispatch(Event::Click { chart: click_chart, value: Literal::Int(3) }).unwrap();
        assert!(!updates.is_empty());
        assert!(
            updates.iter().any(|u| u.query.to_string().contains("a = 3")),
            "{:?}",
            updates.iter().map(|u| u.query.to_string()).collect::<Vec<_>>()
        );
    }

    /// The COVID overview/detail scenario: brushing chart 0 drives the
    /// detail chart's date window.
    fn covid_brush_session() -> InterfaceSession {
        let catalog = pi2_datasets::covid::catalog(&pi2_datasets::covid::Config {
            state_limit: Some(6),
            ..Default::default()
        });
        let queries = pi2_datasets::covid::demo_queries_step(3);
        let overview = pi2_difftree::DiffForest::singletons(&queries[..1]);
        let detail = pi2_difftree::DiffForest::fully_merged(&queries[1..3]);
        let mut forest = pi2_difftree::DiffForest {
            trees: vec![overview.trees[0].clone(), detail.trees[0].clone()],
        };
        for t in &mut forest.trees {
            *t = pi2_difftree::rules::canonicalize(t, Some(&catalog));
        }
        let ifaces = pi2_interface::map_forest(
            &forest,
            &catalog,
            &queries,
            &pi2_interface::MapperConfig::default(),
        )
        .unwrap();
        let iface = ifaces
            .into_iter()
            .find(|i| {
                i.charts.iter().any(|c| {
                    c.interactions.iter().any(|x| matches!(x, VizInteraction::BrushX { .. }))
                })
            })
            .expect("brush interface");
        SessionBuilder::new(catalog, forest, iface).build()
    }

    #[test]
    fn brush_on_overview_updates_detail() {
        let mut s = covid_brush_session();
        // Brush 2021-12-05 .. 2021-12-10 on the overview (chart 0).
        let lo = pi2_sql::Date::parse("2021-12-05").unwrap().0 as f64;
        let hi = pi2_sql::Date::parse("2021-12-10").unwrap().0 as f64;
        let updates = s.dispatch(Event::Brush { chart: 0, low: lo, high: hi }).unwrap();
        // Only the detail chart updates.
        assert_eq!(updates.len(), 1);
        assert_eq!(updates[0].chart, 1);
        let q = updates[0].query.to_string();
        assert!(q.contains("2021-12-05") && q.contains("2021-12-10"), "{q}");
        // The returned data is confined to the brushed window.
        for row in updates[0].result.rows() {
            if let pi2_engine::Value::Date(d) = &row[0] {
                assert!(d.0 >= lo as i32 && d.0 <= hi as i32);
            }
        }
    }

    // ---- result cache / dependency tracking -------------------------------

    #[test]
    fn zero_delta_pan_skips_all_charts() {
        let (pi2, g) = sdss_session();
        let mut s = pi2.session(&g);
        s.dispatch(Event::Pan { chart: 0, dx: 0.25, dy: 0.125 }).unwrap();
        let updates = s.dispatch(Event::Pan { chart: 0, dx: 0.0, dy: 0.0 }).unwrap();
        assert!(updates.is_empty(), "zero-delta pan must not re-execute charts");
        let st = s.stats();
        assert_eq!(st.dispatches, 2);
        assert!(st.charts_skipped >= 1, "{st:?}");
    }

    #[test]
    fn pan_cycle_hits_result_cache() {
        let (pi2, g) = sdss_session();
        let mut s = pi2.session(&g);
        s.refresh_all().unwrap();
        let st0 = s.stats();
        s.dispatch(Event::Pan { chart: 0, dx: 0.25, dy: 0.0 }).unwrap();
        s.dispatch(Event::Pan { chart: 0, dx: -0.25, dy: 0.0 }).unwrap();
        let st = s.stats();
        assert!(st.cache_hits > st0.cache_hits, "panning back must hit the result cache: {st:?}");
    }

    #[test]
    fn sessions_over_clones_of_one_catalog_share_results() {
        let (pi2, g) = sdss_session();
        let (mut first, mut second) = (pi2.session(&g), pi2.session(&g));
        let pan = Event::Pan { chart: 0, dx: 0.25, dy: 0.0 };
        let theirs = first.dispatch(pan.clone()).unwrap();
        let st0 = second.stats();
        let ours = second.dispatch(pan).unwrap();
        let st = second.stats();
        assert_eq!((st.cache_hits, st.cache_misses), (st0.cache_hits + 1, st0.cache_misses));
        assert_eq!(ours.len(), 1);
        assert!(Arc::ptr_eq(&ours[0].result, &theirs[0].result), "the hit copied the result");
    }

    #[test]
    fn zoom_invalidates_cached_result() {
        let (pi2, g) = sdss_session();
        let mut s = pi2.session(&g);
        s.refresh_all().unwrap();
        let miss0 = s.stats().cache_misses;
        let updates = s.dispatch(Event::Zoom { chart: 0, factor: 2.0 }).unwrap();
        assert!(!updates.is_empty());
        assert!(s.stats().cache_misses > miss0, "zoom must miss the cache and re-execute");
    }

    #[test]
    fn toggle_cycle_hits_result_cache_and_restating_skips() {
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
            .strategy(SearchStrategy::FullMerge)
            .build();
        let g = pi2
            .generate_sql(&[
                "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
                "SELECT p, count(*) FROM t WHERE b = 2 GROUP BY p",
                "SELECT a, count(*) FROM t GROUP BY a",
            ])
            .unwrap();
        let mut s = pi2.session(&g);
        s.refresh_all().unwrap();
        let toggle = g
            .interface
            .widgets
            .iter()
            .find(|w| matches!(w.kind, WidgetKind::Toggle))
            .expect("toggle widget")
            .id;
        s.dispatch(Event::SetWidget { widget: toggle, value: WidgetValue::Bool(false) }).unwrap();
        let st1 = s.stats();
        let updates = s
            .dispatch(Event::SetWidget { widget: toggle, value: WidgetValue::Bool(true) })
            .unwrap();
        assert!(!updates.is_empty());
        let st2 = s.stats();
        assert!(st2.cache_hits > st1.cache_hits, "toggling back must hit the result cache");
        // Restating the current toggle state updates nothing.
        let updates = s
            .dispatch(Event::SetWidget { widget: toggle, value: WidgetValue::Bool(true) })
            .unwrap();
        assert!(updates.is_empty(), "same-value toggle must not re-execute charts");
    }

    #[test]
    fn brush_cycle_hits_result_cache_and_rebrush_skips() {
        let mut s = covid_brush_session();
        let day = |d: &str| pi2_sql::Date::parse(d).unwrap().0 as f64;
        let (a, b) = (day("2021-12-05"), day("2021-12-10"));
        s.dispatch(Event::Brush { chart: 0, low: a, high: b }).unwrap();
        let st1 = s.stats();
        s.dispatch(Event::Brush { chart: 0, low: day("2021-12-12"), high: day("2021-12-20") })
            .unwrap();
        let st2 = s.stats();
        assert!(st2.cache_misses > st1.cache_misses, "new brush window must miss the cache");
        s.dispatch(Event::Brush { chart: 0, low: a, high: b }).unwrap();
        let st3 = s.stats();
        assert!(st3.cache_hits > st2.cache_hits, "returning brush window must hit the cache");
        let updates = s.dispatch(Event::Brush { chart: 0, low: a, high: b }).unwrap();
        assert!(updates.is_empty(), "re-brushing the same window must not re-execute charts");
    }

    #[test]
    fn click_cycle_hits_result_cache_and_reclick_skips() {
        let (mut s, chart) = fig5_click_session();
        s.dispatch(Event::Click { chart, value: Literal::Int(3) }).unwrap();
        let st1 = s.stats();
        s.dispatch(Event::Click { chart, value: Literal::Int(4) }).unwrap();
        let st2 = s.stats();
        assert!(st2.cache_misses > st1.cache_misses, "new click value must miss the cache");
        s.dispatch(Event::Click { chart, value: Literal::Int(3) }).unwrap();
        let st3 = s.stats();
        assert!(st3.cache_hits > st2.cache_hits, "returning click value must hit the cache");
        let updates = s.dispatch(Event::Click { chart, value: Literal::Int(3) }).unwrap();
        assert!(updates.is_empty(), "re-clicking the same value must not re-execute charts");
    }

    #[test]
    fn cold_delta_and_warm_pans_match_reference_executor() {
        let (pi2, g) = sdss_session();
        let mut s = pi2.session(&g);
        let catalog = s.catalog.clone();
        // A fresh window (cold: miss + delta seed), a forward shift of it
        // (delta: incremental recomputation), then a return to the first
        // window (warm: result-cache hit). Every path must agree with the
        // row-at-a-time reference executor.
        let paths = |st: &SessionStats| [st.delta_seeds, st.delta_hits, st.cache_hits];
        for (path, dx) in [0.25, 0.25, -0.25].into_iter().enumerate() {
            let before = paths(&s.stats())[path];
            let updates = s.dispatch(Event::Pan { chart: 0, dx, dy: 0.0 }).unwrap();
            assert!(paths(&s.stats())[path] > before, "pan dx={dx} took an unexpected path");
            assert!(!updates.is_empty(), "pan dx={dx} updated no chart");
            for u in &updates {
                let reference = catalog.execute_reference(&u.query).unwrap();
                assert_eq!(*u.result, reference, "pan dx={dx} disagrees with the oracle");
            }
        }
    }

    #[test]
    fn stats_json_has_counters_and_latency() {
        let (pi2, g) = sdss_session();
        let mut s = pi2.session(&g);
        s.dispatch(Event::Pan { chart: 0, dx: 0.25, dy: 0.0 }).unwrap();
        let json = s.stats().to_json();
        assert!(json.contains("\"dispatches\":1"), "{json}");
        assert!(json.contains("\"pan\":{\"count\":1"), "{json}");
        assert!(json.contains("\"cache_misses\""), "{json}");
        assert!(json.contains("\"columnar_execs\""), "{json}");
    }

    // ---- scene sync from dispatch damage ------------------------------------

    fn lookups(s: &InterfaceSession) -> u64 {
        let st = s.stats();
        st.cache_hits + st.cache_misses
    }

    #[test]
    fn scene_sync_rebuilds_only_dispatched_charts() {
        let mut s = covid_brush_session();
        assert_eq!(s.interface().charts.len(), 2);
        s.scene_sync().unwrap();
        let day = |d: &str| pi2_sql::Date::parse(d).unwrap().0 as f64;
        let before = lookups(&s);
        let (updates, delta) = s
            .dispatch_with_delta(Event::Brush {
                chart: 0,
                low: day("2021-12-05"),
                high: day("2021-12-10"),
            })
            .unwrap();
        assert_eq!(updates.len(), 1, "the brush moves only the detail chart");
        assert!(delta.is_some());
        // One lookup in dispatch, one in the sync: the overview chart,
        // whose tree the brush left alone, is not looked up again.
        assert_eq!(lookups(&s), before + 2);
        // Render-delta reads after the sync find nothing stale and touch
        // no chart.
        let (st0, version) = (s.stats(), s.scene_version());
        assert_eq!(s.scene_deltas_since(version).unwrap(), crate::scene::SceneCatchup::UpToDate);
        assert!(s.scene_sync().unwrap().is_none());
        let (snapshot, snapshot_version) = s.scene_snapshot().unwrap();
        let st = s.stats();
        assert_eq!((st.cache_hits, st.cache_misses), (st0.cache_hits, st0.cache_misses));
        assert_eq!(snapshot_version, version);
        assert_eq!(snapshot, crate::scene::SceneGraph::build_from(&s).unwrap());
    }

    #[test]
    fn failed_dispatch_leaves_its_tree_stale_until_a_sync_succeeds() {
        let (pi2, g) = sdss_session();
        let mut s = pi2.session(&g);
        let (mut client, v0) = s.scene_snapshot().unwrap();
        // Every chart execution now overruns its row budget: the pan moves
        // the bindings, then fails to execute, and so does the next sync.
        s.catalog.set_limits(pi2_engine::ExecLimits::rows(0));
        assert!(s.dispatch(Event::Pan { chart: 0, dx: 0.25, dy: 0.0 }).is_err());
        assert!(s.scene_sync().is_err());
        assert_eq!(s.scene_version(), v0);
        // Once execution succeeds, the sync still knows the pan's tree is
        // stale and catches the scene up to a cold build.
        s.catalog.set_limits(pi2_engine::ExecLimits::default());
        let delta = s.scene_sync().unwrap().expect("the failed pan's tree is still stale");
        client.apply(&delta).unwrap();
        let cold = crate::scene::SceneGraph::build_from(&s).unwrap();
        assert_eq!(client, cold);
        assert_eq!(s.scene_snapshot().unwrap(), (cold, v0 + 1));
        assert!(s.scene_sync().unwrap().is_none());
    }
}
