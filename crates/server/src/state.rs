//! Shared server state and the request dispatcher.
//!
//! [`ServerState::handle_line`] is the transport-independent heart of the
//! server: the TCP loop and the in-process [`LocalClient`](crate::LocalClient)
//! both feed request lines through it, so they observe byte-identical
//! behavior.

use crate::journal::{self, Journal, JournalConfig};
use crate::protocol::{
    self, defaults, error_response, CacheMode, ErrorKind, OpenOptions, RenderDeltaOptions,
    RenderDeltaResponse, Request, Strategy, PROTOCOL_VERSION,
};
use crate::registry::Registry;
use crate::session::{coalesce, DedupeWindow, DurableOp, Enqueue, SessionEntry};
use pi2_core::prelude::{
    Catalog, Event, ExecLimits, FleetConfig, FleetHandle, GenerationBudget, Pi2, Renderer as _,
    SearchStrategy, WidgetValue,
};
use pi2_notebook::{Notebook, NotebookError};
use pi2_telemetry::LatencyHistogram;
use serde_json::{json, Value};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Server-wide request counters.
#[derive(Default)]
pub struct ServerCounters {
    /// Request lines handled (any verb, any outcome).
    pub requests: AtomicU64,
    /// Requests answered with an error.
    pub errors: AtomicU64,
    /// Gesture requests rejected with `overloaded`.
    pub overloaded: AtomicU64,
    /// Sessions opened.
    pub opened: AtomicU64,
    /// Sessions closed.
    pub closed: AtomicU64,
    /// TCP connections accepted by the reactor.
    pub connections_accepted: AtomicU64,
    /// TCP connections closed by the reactor (peer hangup, fatal error,
    /// write-cap breach, or drain).
    pub connections_closed: AtomicU64,
}

/// Durability-layer counters, surfaced in `stats` under `"journal"`.
#[derive(Default)]
pub struct JournalCounters {
    /// Sessions rebuilt by the last recovery.
    pub sessions_recovered: AtomicU64,
    /// Journal frames dropped during recovery (corrupt, orphaned,
    /// duplicate `req_id`, or superseded by a newer checkpoint).
    pub frames_skipped: AtomicU64,
    /// Journal frames replayed during recovery.
    pub frames_replayed: AtomicU64,
    /// Structured warnings from recovery and journaling (corruption
    /// skips, failed appends/checkpoints, fsync errors).
    pub warnings: AtomicU64,
}

/// What recovery (`ServerState::recover`) found and rebuilt.
#[derive(Debug, Default)]
pub struct RecoveryReport {
    /// Sessions rebuilt into the registry.
    pub sessions_recovered: u64,
    /// Tail frames replayed on top of checkpoints.
    pub frames_replayed: u64,
    /// Frames dropped (corruption, orphans, tombstoned sessions).
    pub frames_skipped: u64,
    /// Tombstoned (closed-before-crash) sessions whose frames and
    /// checkpoints were discarded.
    pub tombstones: u64,
    /// Human-readable irregularity notes.
    pub warnings: Vec<String>,
    /// The journal carried a clean-shutdown marker: checkpoints were
    /// trusted as-is and no tail replay ran.
    pub clean: bool,
}

/// All state shared between connections (and with [`LocalClient`](crate::LocalClient)s).
///
/// Catalogs are built once per scenario and cached; a session's catalog is
/// a cheap clone whose tables are `Arc`-shared with every other session on
/// the same scenario, so N sessions cost N notebooks but one dataset.
pub struct ServerState {
    registry: Registry,
    catalogs: Mutex<BTreeMap<String, Catalog>>,
    fleet: FleetHandle,
    draining: AtomicBool,
    endpoint_latency: Mutex<BTreeMap<&'static str, LatencyHistogram>>,
    counters: ServerCounters,
    /// The write-ahead journal, attached once (after recovery replay, so
    /// replay itself is never re-journaled).
    journal: OnceLock<Arc<Journal>>,
    journal_counters: JournalCounters,
    /// Server-level `req_id` window for `open` retries: an open carries
    /// no session id, so its dedupe cannot live on a session entry. The
    /// lock is held across the whole open when a `req_id` is present,
    /// making duplicate-open suppression race-free. Reseeded from
    /// journaled open frames on recovery.
    open_dedupe: Mutex<DedupeWindow>,
    /// Sessions a recovery *failed* to rebuild (e.g. a transiently
    /// unreplayable frame). Their journal frames must survive
    /// compaction and truncation so a later restart can retry, instead
    /// of turning a transient replay failure into permanent loss.
    unrecovered: Mutex<HashSet<u64>>,
}

impl Default for ServerState {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerState {
    /// Fresh state with no sessions and no cached catalogs, using the
    /// default fleet configuration.
    pub fn new() -> Self {
        Self::with_fleet(FleetConfig::default())
    }

    /// Fresh state whose fleet-wide generation cache, single-flight
    /// table, and admission limiter use `fleet` (see
    /// [`FleetConfig`]).
    pub fn with_fleet(fleet: FleetConfig) -> Self {
        Self {
            registry: Registry::new(),
            catalogs: Mutex::new(BTreeMap::new()),
            fleet: FleetHandle::new(fleet),
            draining: AtomicBool::new(false),
            endpoint_latency: Mutex::new(BTreeMap::new()),
            counters: ServerCounters::default(),
            journal: OnceLock::new(),
            journal_counters: JournalCounters::default(),
            open_dedupe: Mutex::new(DedupeWindow::with_capacity(Self::OPEN_DEDUPE_WINDOW)),
            unrecovered: Mutex::new(HashSet::new()),
        }
    }

    /// Capacity of the server-level `open` dedupe window. Larger than
    /// the per-session window: every open in the fleet shares it, and a
    /// retry must still find its id after a burst of unrelated opens.
    pub const OPEN_DEDUPE_WINDOW: usize = 1024;

    /// Fresh state journaling to `config.dir` (creating it if needed),
    /// recovering whatever sessions a previous process left there. This
    /// is the durable-server entry point: `pi2-server --journal-dir`.
    pub fn with_journal(
        fleet: FleetConfig,
        config: JournalConfig,
    ) -> std::io::Result<(Self, RecoveryReport)> {
        Self::recover(fleet, config)
    }

    /// The attached journal, if any.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.get()
    }

    /// Durability counters (`sessions_recovered`, `frames_skipped`, …).
    pub fn journal_counters(&self) -> &JournalCounters {
        &self.journal_counters
    }

    /// The session registry.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Server-wide request/session/connection counters.
    pub fn counters(&self) -> &ServerCounters {
        &self.counters
    }

    /// The process-wide fleet handle shared by every `shared`-mode
    /// session.
    pub fn fleet(&self) -> &FleetHandle {
        &self.fleet
    }

    /// Whether graceful shutdown has begun.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Begin graceful shutdown: new non-`stats` requests are refused while
    /// in-flight dispatches finish.
    pub fn begin_drain(&self) {
        self.draining.store(true, Ordering::SeqCst);
    }

    /// The scenario names this server can open sessions on.
    pub fn scenario_names() -> &'static [&'static str] {
        &["toy", "covid", "sdss", "sp500"]
    }

    /// The shared catalog for `scenario`, building and caching it on first
    /// use. Clones share the underlying tables via `Arc`.
    fn catalog_for(&self, scenario: &str) -> Option<Catalog> {
        let mut cache = lock(&self.catalogs);
        if let Some(c) = cache.get(scenario) {
            return Some(c.clone());
        }
        let built = match scenario {
            "toy" => pi2_datasets::toy::default_catalog(),
            "covid" => pi2_datasets::covid::catalog(&pi2_datasets::covid::Config::default()),
            "sdss" => pi2_datasets::sdss::catalog(&pi2_datasets::sdss::Config::default()),
            "sp500" => pi2_datasets::sp500::catalog(&pi2_datasets::sp500::Config::default()),
            _ => return None,
        };
        cache.insert(scenario.to_string(), built.clone());
        Some(built)
    }

    /// Handle one request line; returns the response (without newline).
    /// This is the single entry point for every transport.
    pub fn handle_line(&self, line: &str) -> String {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        let (request, id, req_id) = match protocol::parse_request_full(line) {
            Ok(parsed) => parsed,
            Err(e) => {
                self.counters.errors.fetch_add(1, Ordering::Relaxed);
                return to_line(&e);
            }
        };
        let endpoint = endpoint_name(&request);
        let start = Instant::now();
        let mut response = self.handle_request_with(request, req_id.as_deref());
        lock(&self.endpoint_latency).entry(endpoint).or_default().record(start.elapsed());
        if response["ok"].as_bool() != Some(true) {
            self.counters.errors.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(id) = id {
            response["id"] = id;
        }
        to_line(&response)
    }

    /// The response for a request line that was not valid UTF-8 (counted
    /// like any other bad request; no id can be recovered from it).
    pub fn handle_line_invalid_utf8(&self) -> String {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        to_line(&error_response(ErrorKind::BadRequest, "request line is not valid UTF-8"))
    }

    /// The response for a request line that exceeded the transport's
    /// line-length cap; the transport discards the rest of the line.
    pub fn handle_line_too_long(&self, cap: usize) -> String {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.errors.fetch_add(1, Ordering::Relaxed);
        to_line(&error_response(
            ErrorKind::TooLarge,
            format!("request line exceeds {cap} bytes; discarded to next newline"),
        ))
    }

    /// Handle a parsed request (with no idempotency key).
    pub fn handle_request(&self, request: Request) -> Value {
        self.handle_request_with(request, None)
    }

    /// Handle a parsed request carrying an optional client-assigned
    /// `req_id`. A mutating request whose `req_id` was already accepted
    /// is answered from the cached response (marked `"deduped": true`)
    /// without re-executing: delivery is at-least-once, the visible
    /// effect exactly-once. Each session's mutations run under the
    /// entry's order lock, so the dedupe lookup, the execution, the
    /// journal append, and the response caching form one atomic step —
    /// journal replay order always equals live execution order, and a
    /// concurrently retried `req_id` can never execute twice.
    pub fn handle_request_with(&self, request: Request, req_id: Option<&str>) -> Value {
        if self.draining() && !matches!(request, Request::Stats { .. } | Request::Shutdown) {
            return error_response(ErrorKind::ShuttingDown, "server is draining");
        }
        match request {
            Request::Open { scenario, options } => self.open(&scenario, options, req_id),
            Request::Close { session } => self.close(session),
            mutation @ (Request::RunCell { .. }
            | Request::Generate { .. }
            | Request::ApplyBinding { .. }
            | Request::Gesture { .. }) => self.mutate(mutation, req_id),
            Request::Render { session, version } => self.render(session, version),
            Request::RenderDelta { session, options } => self.render_delta(session, options),
            Request::Stats { session } => self.stats(session),
            Request::Resume { token } => self.resume(&token),
            Request::Shutdown => {
                self.begin_drain();
                json!({"ok": true, "draining": true})
            }
        }
    }

    /// Execute a session-targeted mutation under the session's order
    /// lock, serializing it end to end against every other mutation of
    /// the same session.
    fn mutate(&self, request: Request, req_id: Option<&str>) -> Value {
        let Some(session) = request.session() else {
            return error_response(ErrorKind::BadRequest, "mutation without a session");
        };
        let Some(entry) = self.registry.get(session) else { return unknown_session(session) };
        let _order = entry.lock_order();
        if let Some(rid) = req_id {
            if let Some(cached) = entry.dedupe_get(rid) {
                return cached;
            }
        }
        // Capture the wire form before `request` moves into dispatch; the
        // journal frame is written only if the response comes back ok.
        let record = if self.journal.get().is_some() {
            Some(mutation_record(&request, req_id))
        } else {
            None
        };
        let response = match request {
            Request::RunCell { session, sql } => self.run_cell(session, &sql),
            Request::Generate { session } => self.generate(session),
            Request::ApplyBinding { session, version, widget, value } => {
                self.apply_binding(session, version, widget, value)
            }
            Request::Gesture { session, version, events, include_data } => {
                self.gesture(session, version, events, include_data)
            }
            _ => return error_response(ErrorKind::BadRequest, "not a session mutation"),
        };
        if response["ok"].as_bool() == Some(true) {
            // Cache before journaling: a checkpoint triggered by this
            // very mutation must snapshot a dedupe window that already
            // holds its req_id, or the frame (covered by the checkpoint,
            // so never replayed) would leave a post-crash retry free to
            // re-apply the mutation.
            if let Some(rid) = req_id {
                entry.dedupe_put(rid, response.clone());
            }
            if let Some(record) = record {
                if let Some(journal) = self.journal.get().cloned() {
                    self.journal_mutation(&journal, &entry, record, &response);
                }
            }
        }
        response
    }

    fn open(&self, scenario: &str, options: OpenOptions, req_id: Option<&str>) -> Value {
        let Some(rid) = req_id else { return self.open_fresh(scenario, options, None) };
        // Hold the window lock across the whole open: a concurrent or
        // later retry of the same req_id (TcpClient auto-resends `open`
        // after a lost ack) reads the cached response instead of
        // creating a second, orphaned session.
        let mut window = lock(&self.open_dedupe);
        if let Some(cached) = window.get(rid) {
            let mut replay = cached.clone();
            replay["deduped"] = Value::Bool(true);
            return replay;
        }
        let response = self.open_fresh(scenario, options, Some(rid));
        if response["ok"].as_bool() == Some(true) {
            window.put(rid, response.clone());
        }
        response
    }

    fn open_fresh(&self, scenario: &str, options: OpenOptions, req_id: Option<&str>) -> Value {
        let pi2 = match self.build_pi2(scenario, &options) {
            Ok(p) => p,
            Err(e) => return e,
        };
        let id = self.registry.allocate_id();
        let token = session_token(id);
        let entry = Arc::new(SessionEntry::new(
            id,
            scenario.to_string(),
            token.clone(),
            Notebook::with_pi2(pi2),
        ));
        let response = json!({
            "ok": true, "session": id, "scenario": scenario, "session_token": token,
            "protocol": PROTOCOL_VERSION,
        });
        if let Some(rid) = req_id {
            entry.dedupe_put(rid, response.clone());
        }
        // Journal the open frame *before* publishing the entry, so no
        // other connection can journal a frame for this session ahead of
        // the open frame recovery needs to bootstrap it.
        if let Some(journal) = self.journal.get().cloned() {
            let record =
                mutation_record(&Request::Open { scenario: scenario.to_string(), options }, req_id);
            self.journal_mutation(&journal, &entry, record, &response);
        }
        self.registry.insert(entry);
        self.counters.opened.fetch_add(1, Ordering::Relaxed);
        response
    }

    /// Build a session's engine from `open` options. Shared by `open` and
    /// recovery (which replays the journaled open request through this
    /// same path, so a rebuilt session searches with identical budgets).
    fn build_pi2(&self, scenario: &str, options: &OpenOptions) -> Result<Pi2, Value> {
        let Some(mut catalog) = self.catalog_for(scenario) else {
            return Err(error_response(
                ErrorKind::UnknownScenario,
                format!("unknown scenario `{scenario}` ({})", Self::scenario_names().join("|")),
            ));
        };
        // The limits guard this session's live executions only: a result
        // any session on the scenario already cached is served as-is.
        catalog.set_limits(ExecLimits {
            max_rows: options.max_rows.filter(|&n| n > 0),
            timeout: match options.timeout_ms {
                None => Some(defaults::EXEC_TIMEOUT),
                Some(0) => None,
                Some(ms) => Some(Duration::from_millis(ms)),
            },
        });
        let budget = GenerationBudget {
            deadline: match options.deadline_ms {
                None => Some(defaults::GENERATION_DEADLINE),
                Some(0) => None,
                Some(ms) => Some(Duration::from_millis(ms)),
            },
            max_iterations: options.max_iterations,
            max_states: None,
        };
        let strategy = match options.strategy {
            Strategy::FullMerge => SearchStrategy::FullMerge,
            Strategy::Mcts => SearchStrategy::default(),
            Strategy::Greedy => SearchStrategy::Greedy { max_evaluations: 200 },
        };
        let mut builder = Pi2::builder(catalog).strategy(strategy).budget(budget);
        if options.cache.mode == CacheMode::Shared {
            // One fleet handle per process; a per-session `wait_ms` only
            // overrides how long this session waits on another session's
            // in-flight generation, not the shared state itself.
            let handle = match options.cache.wait_ms {
                None => self.fleet.clone(),
                Some(0) => self.fleet.clone().with_follower_wait(Some(Duration::ZERO)),
                Some(ms) => self.fleet.clone().with_follower_wait(Some(Duration::from_millis(ms))),
            };
            builder = builder.fleet(&handle);
        }
        Ok(builder.build())
    }

    fn close(&self, session: u64) -> Value {
        let Some(entry) = self.registry.get(session) else { return unknown_session(session) };
        // Take the order lock so an in-flight mutation journals its frame
        // before the tombstone; a retried close has nothing to dedupe
        // against (the entry and its window are gone) and reads
        // `unknown_session`, which is the documented contract.
        let _order = entry.lock_order();
        if self.registry.remove(session).is_none() {
            return unknown_session(session); // lost a close/close race
        }
        self.counters.closed.fetch_add(1, Ordering::Relaxed);
        if let Some(journal) = self.journal.get() {
            // Tombstone ordering: the close frame must be durable
            // *before* the checkpoint disappears, otherwise a crash in
            // between resurrects the closed session on recovery.
            match journal.append(session, None, &json!({"cmd": "close", "session": session})) {
                Ok(_) => {
                    if let Err(e) = journal.sync() {
                        self.journal_warn(format!("tombstone fsync for session {session}: {e}"));
                    }
                    if let Err(e) = journal.remove_checkpoint(session) {
                        self.journal_warn(format!("checkpoint removal for session {session}: {e}"));
                    }
                }
                Err(e) => self.journal_warn(format!("tombstone append for session {session}: {e}")),
            }
        }
        json!({"ok": true, "closed": session})
    }

    /// Reattach to a live (or crash-recovered) session by its token.
    fn resume(&self, token: &str) -> Value {
        match self.registry.get_by_token(token) {
            Some(entry) => json!({
                "ok": true,
                "session": entry.id,
                "scenario": entry.scenario.clone(),
                "latest_version": entry.latest_version.load(Ordering::SeqCst),
                "session_token": entry.token.clone(),
                "recovered": entry.recovered,
                "protocol": PROTOCOL_VERSION,
            }),
            None => error_response(
                ErrorKind::UnknownToken,
                "no live or recovered session with that token",
            ),
        }
    }

    fn entry(&self, session: u64) -> Result<Arc<SessionEntry>, Value> {
        self.registry.get(session).ok_or_else(|| unknown_session(session))
    }

    fn run_cell(&self, session: u64, sql: &str) -> Value {
        let entry = match self.entry(session) {
            Ok(e) => e,
            Err(e) => return e,
        };
        let mut core = entry.lock_core();
        let cell = core.notebook.add_cell(sql);
        match core.notebook.run_cell(cell) {
            Ok(result) => {
                let columns: Vec<Value> =
                    result.schema.fields.iter().map(|f| json!(f.name.clone())).collect();
                json!({"ok": true, "cell": cell, "rows": result.len(), "columns": columns})
            }
            Err(e) => notebook_error(&e),
        }
    }

    fn generate(&self, session: u64) -> Value {
        let entry = match self.entry(session) {
            Ok(e) => e,
            Err(e) => return e,
        };
        let mut core = entry.lock_core();
        match core.notebook.generate_interface() {
            Ok(version) => {
                entry.latest_version.fetch_max(version, Ordering::SeqCst);
                let mut resp = json!({"ok": true, "version": version});
                if let Some(v) = core.notebook.versions().last() {
                    resp["charts"] = json!(v.generated.interface.charts.len());
                    resp["widgets"] = json!(v.generated.interface.widgets.len());
                    // Truthful quality label (full|anytime|fallback) and,
                    // for shared-cache sessions, how the fleet served it
                    // (hit|rebind|miss|join|join-timeout|shed).
                    resp["degradation"] = json!(v.generated.stats.degradation.to_string());
                    if let Some(outcome) = v.generated.stats.fleet {
                        resp["fleet"] = json!(outcome.to_string());
                    }
                } else {
                    resp["charts"] = json!(0);
                    resp["widgets"] = json!(0);
                }
                resp
            }
            Err(e) => notebook_error(&e),
        }
    }

    /// Resolve an optional wire version against the session's latest.
    fn resolve_version(entry: &SessionEntry, version: Option<usize>) -> Result<usize, Value> {
        let latest = entry.latest_version.load(Ordering::SeqCst);
        match version {
            None if latest == 0 => Err(error_response(
                ErrorKind::UnknownVersion,
                "no interface generated yet (call generate first)",
            )),
            None => Ok(latest),
            Some(v) if v == 0 || v > latest => Err(error_response(
                ErrorKind::UnknownVersion,
                format!("unknown interface version {v} (latest is {latest})"),
            )),
            Some(v) => Ok(v),
        }
    }

    fn apply_binding(
        &self,
        session: u64,
        version: Option<usize>,
        widget: usize,
        value: WidgetValue,
    ) -> Value {
        self.gesture(session, version, vec![Event::SetWidget { widget, value }], false)
    }

    fn gesture(
        &self,
        session: u64,
        version: Option<usize>,
        events: Vec<Event>,
        include_data: bool,
    ) -> Value {
        let entry = match self.entry(session) {
            Ok(e) => e,
            Err(e) => return e,
        };
        let version = match Self::resolve_version(&entry, version) {
            Ok(v) => v,
            Err(e) => return e,
        };
        let single = events.len() == 1;
        match entry.enqueue(version, events) {
            Enqueue::Overloaded(depth) => {
                self.counters.overloaded.fetch_add(1, Ordering::Relaxed);
                let mut e = error_response(
                    ErrorKind::Overloaded,
                    format!("session {session} queue is full ({depth} pending)"),
                );
                e["error"]["queue_depth"] = json!(depth);
                e
            }
            Enqueue::Accepted(_) => match entry.drain_and_dispatch() {
                Err(e) => notebook_error(&e),
                Ok(outcome) => {
                    if single && outcome.applied == 0 && !outcome.errors.is_empty() {
                        return error_response(ErrorKind::Session, &outcome.errors[0]);
                    }
                    let updates: Vec<Value> = outcome
                        .updates
                        .iter()
                        .map(|u| {
                            let mut obj = json!({
                                "chart": u.chart,
                                "sql": u.query.to_string(),
                                "rows": u.result.len(),
                            });
                            if include_data {
                                obj["data"] = result_rows(&u.result);
                            }
                            obj
                        })
                        .collect();
                    let mut resp = json!({
                        "ok": true,
                        "version": version,
                        "applied": outcome.applied,
                        "coalesced": outcome.coalesced,
                    });
                    // Moved in, not handed to `json!`, which would copy
                    // every row of `data`.
                    resp["updates"] = Value::Array(updates);
                    if !outcome.errors.is_empty() {
                        resp["errors"] = Value::Array(
                            outcome.errors.iter().map(|e| json!(e.to_string())).collect(),
                        );
                    }
                    resp
                }
            },
        }
    }

    fn render(&self, session: u64, version: Option<usize>) -> Value {
        let entry = match self.entry(session) {
            Ok(e) => e,
            Err(e) => return e,
        };
        let version = match Self::resolve_version(&entry, version) {
            Ok(v) => v,
            Err(e) => return e,
        };
        let mut core = entry.lock_core();
        let live = match core.live_session(version) {
            Ok(s) => s,
            Err(e) => return notebook_error(&e),
        };
        match pi2_render::AsciiRenderer.render_live(live) {
            Ok(text) => json!({"ok": true, "version": version, "text": text}),
            Err(e) => error_response(ErrorKind::Session, e),
        }
    }

    /// Scene-graph streaming: frames since the client's scene version, or
    /// a full-snapshot resync when the client has no scene (`since`
    /// absent), asks from a stale version, or has fallen behind the
    /// delta-history ring. Read-only — never journaled — so replaying a
    /// crashed session rebuilds the identical scene from its mutations.
    fn render_delta(&self, session: u64, options: RenderDeltaOptions) -> Value {
        use pi2_core::scene::{delta_to_json, scene_to_json, SceneCatchup};
        let entry = match self.entry(session) {
            Ok(e) => e,
            Err(e) => return e,
        };
        let version = match Self::resolve_version(&entry, options.version) {
            Ok(v) => v,
            Err(e) => return e,
        };
        let mut core = entry.lock_core();
        let live = match core.live_session(version) {
            Ok(s) => s,
            Err(e) => return notebook_error(&e),
        };
        let body = match options.since {
            None => match live.scene_snapshot() {
                Ok((scene, v)) => RenderDeltaResponse::new(v).resync(scene_to_json(&scene)),
                Err(e) => return error_response(ErrorKind::Session, e),
            },
            Some(since) => match live.scene_deltas_since(since) {
                Ok(SceneCatchup::UpToDate) => RenderDeltaResponse::new(live.scene_version()),
                Ok(SceneCatchup::Deltas(chain)) => {
                    let to = chain.last().map(|d| d.to_version).unwrap_or(since);
                    RenderDeltaResponse::new(to).frames(chain.iter().map(delta_to_json).collect())
                }
                Ok(SceneCatchup::Resync(scene, v)) => {
                    RenderDeltaResponse::new(v).resync(scene_to_json(&scene))
                }
                Err(e) => return error_response(ErrorKind::Session, e),
            },
        };
        let mut resp = body.to_json();
        resp["version"] = json!(version);
        resp
    }

    fn stats(&self, session: Option<u64>) -> Value {
        match session {
            Some(id) => {
                let entry = match self.entry(id) {
                    Ok(e) => e,
                    Err(e) => return e,
                };
                let mut per_version = serde_json::Map::new();
                {
                    let core = entry.lock_core();
                    for (version, live) in &core.live {
                        per_version
                            .insert(format!("v{version}"), parse_json(&live.stats().to_json()));
                    }
                }
                json!({
                    "ok": true,
                    "session": id,
                    "scenario": entry.scenario.clone(),
                    "queue_depth": entry.queue_depth(),
                    "enqueued": entry.counters.enqueued.load(Ordering::Relaxed),
                    "coalesced": entry.counters.coalesced.load(Ordering::Relaxed),
                    "dispatched": entry.counters.dispatched.load(Ordering::Relaxed),
                    "overloaded": entry.counters.overloaded.load(Ordering::Relaxed),
                    "versions": Value::Object(per_version),
                })
            }
            None => json!({"ok": true, "stats": self.stats_json()}),
        }
    }

    /// How many per-session detail rows `stats` will list before
    /// switching to totals only: a 10k-session fleet must not serialize
    /// 10k objects per stats call.
    pub const STATS_SESSION_DETAIL_CAP: usize = 32;

    /// Server-wide stats as a JSON object: counters, gauges (active
    /// sessions, queue depths), and per-endpoint latency histograms.
    ///
    /// Per-session counters are always *aggregated* in `session_totals`;
    /// the per-session `sessions` list is included only while the fleet
    /// is small (≤ [`Self::STATS_SESSION_DETAIL_CAP`] sessions) —
    /// `sessions_omitted` reports how many were elided.
    pub fn stats_json(&self) -> Value {
        let endpoints: serde_json::Map = lock(&self.endpoint_latency)
            .iter()
            .map(|(name, h)| ((*name).to_string(), parse_json(&h.to_json())))
            .collect();
        let mut active = 0u64;
        let (mut queued, mut enqueued, mut coalesced, mut dispatched, mut overloaded) =
            (0u64, 0u64, 0u64, 0u64, 0u64);
        self.registry.for_each(|e| {
            active += 1;
            queued += e.queue_depth() as u64;
            enqueued += e.counters.enqueued.load(Ordering::Relaxed);
            coalesced += e.counters.coalesced.load(Ordering::Relaxed);
            dispatched += e.counters.dispatched.load(Ordering::Relaxed);
            overloaded += e.counters.overloaded.load(Ordering::Relaxed);
        });
        let detailed = active as usize <= Self::STATS_SESSION_DETAIL_CAP;
        let sessions: Vec<Value> = if detailed {
            self.registry
                .entries()
                .iter()
                .map(|e| {
                    json!({
                        "id": e.id,
                        "scenario": e.scenario.clone(),
                        "queue_depth": e.queue_depth(),
                        "enqueued": e.counters.enqueued.load(Ordering::Relaxed),
                        "coalesced": e.counters.coalesced.load(Ordering::Relaxed),
                        "dispatched": e.counters.dispatched.load(Ordering::Relaxed),
                        "overloaded": e.counters.overloaded.load(Ordering::Relaxed),
                    })
                })
                .collect()
        } else {
            Vec::new()
        };
        let fleet = self.fleet.counters();
        json!({
            "active_sessions": active,
            "draining": self.draining(),
            "requests": self.counters.requests.load(Ordering::Relaxed),
            "errors": self.counters.errors.load(Ordering::Relaxed),
            "overloaded": self.counters.overloaded.load(Ordering::Relaxed),
            "opened": self.counters.opened.load(Ordering::Relaxed),
            "closed": self.counters.closed.load(Ordering::Relaxed),
            "connections_accepted":
                self.counters.connections_accepted.load(Ordering::Relaxed),
            "connections_closed": self.counters.connections_closed.load(Ordering::Relaxed),
            "session_totals": {
                "queue_depth": queued,
                "enqueued": enqueued,
                "coalesced": coalesced,
                "dispatched": dispatched,
                "overloaded": overloaded,
            },
            "sessions_omitted": if detailed { 0 } else { active },
            "fleet": {
                "hits": fleet.hits,
                "misses": fleet.misses,
                "joins": fleet.joins,
                "sheds": fleet.sheds,
                "rebinds": fleet.rebinds,
                "join_timeouts": fleet.join_timeouts,
                "entries": fleet.entries,
            },
            "engine": self.engine_stats_json(),
            "endpoints": Value::Object(endpoints),
            "sessions": sessions,
            "journal": self.journal_stats_json(),
        })
    }

    /// Per-scenario engine counters. Sessions clone their catalog from the
    /// shared per-scenario cache, and the scan / exec-path tallies live
    /// behind `Arc`s those clones share — so the cached catalog's counters
    /// aggregate every session's executions on that scenario. Delta-path
    /// counters (`delta_hits`/`delta_seeds`) are per-session state and
    /// appear in the per-session `stats` response instead.
    fn engine_stats_json(&self) -> Value {
        let mut scenarios = serde_json::Map::new();
        for (name, catalog) in lock(&self.catalogs).iter() {
            let (scanned, pruned) = catalog.scan_counts();
            let (columnar, reference) = catalog.exec_path_counts();
            scenarios.insert(
                name.clone(),
                json!({
                    "blocks_scanned": scanned,
                    "blocks_pruned": pruned,
                    "exec_columnar": columnar,
                    "exec_reference": reference,
                    "columnar_build_ms": catalog.columnar_build_nanos() as f64 / 1e6,
                }),
            );
        }
        Value::Object(scenarios)
    }

    fn journal_stats_json(&self) -> Value {
        match self.journal.get() {
            None => json!({"enabled": false}),
            Some(journal) => json!({
                "enabled": true,
                "journal_bytes": journal.bytes(),
                "sessions_recovered":
                    self.journal_counters.sessions_recovered.load(Ordering::Relaxed),
                "frames_replayed": self.journal_counters.frames_replayed.load(Ordering::Relaxed),
                "frames_skipped": self.journal_counters.frames_skipped.load(Ordering::Relaxed),
                "warnings": self.journal_counters.warnings.load(Ordering::Relaxed),
            }),
        }
    }

    /// Count (and log) a journal irregularity. Journal IO failures never
    /// fail the request that triggered them — the mutation already
    /// executed and the client deserves its response; the cost is only
    /// weaker durability, which the counter makes observable.
    fn journal_warn(&self, msg: impl std::fmt::Display) {
        self.journal_counters.warnings.fetch_add(1, Ordering::Relaxed);
        eprintln!("pi2-server: journal: {msg}");
    }

    /// Record one successful mutation in the journal: append its frame,
    /// fold it into the session's durable replay state, and checkpoint /
    /// compact when cadence or size thresholds say so. The caller holds
    /// the session's order lock (or, for `open`, the entry is not yet
    /// published), so frames always append in execution order.
    fn journal_mutation(
        &self,
        journal: &Arc<Journal>,
        entry: &SessionEntry,
        mut record: MutationRecord,
        response: &Value,
    ) {
        let session = entry.id;
        let token = response["session_token"].as_str().map(str::to_string);
        if matches!(record.kind, MutationKind::Applied) {
            // Pin the version the server resolved: a replayed `latest`
            // would resolve against the *final* version count, not the
            // one this gesture actually addressed.
            if let Some(v) = response["version"].as_u64() {
                record.req["version"] = json!(v);
            }
        }
        let mut durable = entry.lock_durable();
        let lsn = match journal.append(session, token.as_deref(), &record.req) {
            Ok(lsn) => lsn,
            Err(e) => {
                drop(durable);
                self.journal_warn(format!("append for session {session}: {e}"));
                return;
            }
        };
        match record.kind {
            MutationKind::Open => durable.open_req = record.req.clone(),
            MutationKind::Cell(sql) => durable.ops.push(DurableOp::Cell(sql)),
            MutationKind::Generate => durable.ops.push(DurableOp::Generate),
            MutationKind::Applied => {
                let version = record.req["version"].as_u64().unwrap_or(0) as usize;
                let pairs: Vec<(usize, Event)> = match protocol::parse_request_value(&record.req) {
                    Ok(Request::Gesture { events, .. }) => {
                        events.into_iter().map(|e| (version, e)).collect()
                    }
                    Ok(Request::ApplyBinding { widget, value, .. }) => {
                        vec![(version, Event::SetWidget { widget, value })]
                    }
                    _ => Vec::new(),
                };
                let mut merged = std::mem::take(&mut durable.applied);
                merged.extend(pairs);
                durable.applied = coalesce(merged);
            }
        }
        durable.mutations_since_ckpt += 1;
        if durable.mutations_since_ckpt >= journal.config().checkpoint_every {
            self.checkpoint_locked(journal, entry, &mut durable, lsn);
        }
        drop(durable);
        if journal.wants_compaction() {
            self.compact_journal(journal);
        }
    }

    /// Write a checkpoint for `entry` covering frames up to `cover_lsn`,
    /// with its durable state already locked by the caller.
    fn checkpoint_locked(
        &self,
        journal: &Journal,
        entry: &SessionEntry,
        durable: &mut crate::session::Durable,
        cover_lsn: u64,
    ) {
        let doc = checkpoint_doc(entry, durable, cover_lsn);
        match journal.write_checkpoint(entry.id, &doc) {
            Ok(()) => {
                durable.last_ckpt_lsn = cover_lsn;
                durable.mutations_since_ckpt = 0;
            }
            Err(e) => self.journal_warn(format!("checkpoint for session {}: {e}", entry.id)),
        }
    }

    /// Rewrite the journal, dropping frames already covered by a live
    /// session's checkpoint and frames of sessions that no longer exist.
    /// The keep-map is snapshotted *before* the journal lock is taken
    /// (lock order: session durable → journal, never the reverse).
    fn compact_journal(&self, journal: &Journal) {
        let mut keep: HashMap<u64, u64> = HashMap::new();
        self.registry.for_each(|e| {
            keep.insert(e.id, e.lock_durable().last_ckpt_lsn);
        });
        let unrecovered = lock(&self.unrecovered).clone();
        if let Err(e) = journal.compact(&|session, lsn| match keep.get(&session) {
            Some(&covered) => lsn > covered,
            // Not in the registry: frames of sessions a recovery failed
            // to rebuild are their only surviving state — keep them so a
            // later restart can retry; everything else (closed or
            // unknown) is dropped.
            None => unrecovered.contains(&session),
        }) {
            self.journal_warn(format!("compaction: {e}"));
        }
    }

    /// Graceful-shutdown hook: checkpoint every live session, truncate
    /// the journal, and write the clean marker so the next start trusts
    /// the checkpoints alone and skips tail replay. No-op when no journal
    /// is attached. If any checkpoint fails the journal is left intact —
    /// the next start simply runs a normal (tail-replaying) recovery.
    pub fn journal_clean_close(&self) {
        let Some(journal) = self.journal.get() else { return };
        let cover = journal.last_lsn();
        let mut all_ok = true;
        for entry in self.registry.entries() {
            let mut durable = entry.lock_durable();
            let doc = checkpoint_doc(&entry, &durable, cover);
            match journal.write_checkpoint(entry.id, &doc) {
                Ok(()) => {
                    durable.last_ckpt_lsn = cover;
                    durable.mutations_since_ckpt = 0;
                }
                Err(e) => {
                    all_ok = false;
                    self.journal_warn(format!("shutdown checkpoint for session {}: {e}", entry.id));
                }
            }
        }
        if !all_ok {
            return;
        }
        if !lock(&self.unrecovered).is_empty() {
            // Sessions the last recovery failed to rebuild live only in
            // journal frames; truncating (or letting a clean marker skip
            // tail replay) would erase them for good. Leave the journal
            // for the next recovery to retry.
            self.journal_warn(
                "clean close kept the journal: unrecovered sessions live only in its frames",
            );
            return;
        }
        if let Err(e) = journal.truncate() {
            self.journal_warn(format!("shutdown truncate: {e}"));
            return;
        }
        if let Err(e) = journal.mark_clean() {
            self.journal_warn(format!("clean marker: {e}"));
        }
    }

    /// Rebuild server state from a journal directory, then attach the
    /// journal for new writes. See the module docs of [`crate::journal`]
    /// for the format and the corruption policy; the shape here is:
    ///
    /// 1. consume the clean marker, scan frames, load checkpoints;
    /// 2. collect tombstones (`close` frames) — neither their frames nor
    ///    leftover checkpoints may resurrect a closed session;
    /// 3. plan per session: checkpoint + newer tail frames, or (never
    ///    checkpointed) an `open` frame plus its tail; orphan frames with
    ///    neither are dropped with a warning;
    /// 4. rebuild sessions **in parallel** — replay is deterministic and
    ///    the fleet cache single-flights identical regenerations, so a
    ///    1k-session recovery pays one cold search per unique
    ///    fingerprint;
    /// 5. bump the id allocator past every rebuilt id, raise the journal
    ///    LSN past every checkpoint, and (unless the shutdown was clean)
    ///    re-checkpoint everything and truncate so the next recovery
    ///    starts from a compact prefix.
    fn recover(
        fleet: FleetConfig,
        config: JournalConfig,
    ) -> std::io::Result<(Self, RecoveryReport)> {
        std::fs::create_dir_all(&config.dir)?;
        let state = Self::with_fleet(fleet);
        let mut report =
            RecoveryReport { clean: journal::take_clean_marker(&config.dir), ..Default::default() };
        let (frames, scan) = journal::scan(&config.dir)?;
        report.frames_skipped += scan.frames_skipped;
        report.warnings.extend(scan.warnings);
        let mut ckpt_scan = journal::ScanReport::default();
        let checkpoints = journal::load_checkpoints(&config.dir, &mut ckpt_scan);
        report.warnings.extend(ckpt_scan.warnings);

        let tombstoned: HashSet<u64> =
            frames.iter().filter(|f| f.req["cmd"] == "close").map(|f| f.session).collect();
        report.tombstones = tombstoned.len() as u64;

        let mut plans: BTreeMap<u64, RecoveryPlan> = BTreeMap::new();
        let mut max_ckpt_lsn = 0u64;
        for (id, doc) in checkpoints {
            max_ckpt_lsn = max_ckpt_lsn.max(doc["last_lsn"].as_u64().unwrap_or(0));
            if tombstoned.contains(&id) {
                continue; // closed before the crash; cleaned up below
            }
            let token = doc["token"].as_str().map(str::to_string);
            plans.insert(id, RecoveryPlan { token, ckpt: Some(doc), tail: Vec::new() });
        }
        if report.clean {
            // Planned restart: the checkpoints are complete by contract;
            // any leftover frames are redundant, not lost work.
            report.frames_skipped +=
                frames.iter().filter(|f| f.req["cmd"] != "close").count() as u64;
        } else {
            for frame in frames {
                if frame.req["cmd"] == "close" {
                    continue; // the tombstone itself
                }
                if tombstoned.contains(&frame.session) {
                    report.frames_skipped += 1;
                    continue;
                }
                match plans.get_mut(&frame.session) {
                    Some(plan) => {
                        let covered =
                            plan.ckpt.as_ref().and_then(|c| c["last_lsn"].as_u64()).unwrap_or(0);
                        if frame.lsn <= covered {
                            report.frames_skipped += 1;
                        } else {
                            plan.tail.push(frame);
                        }
                    }
                    None if frame.req["cmd"] == "open" => {
                        plans.insert(
                            frame.session,
                            RecoveryPlan {
                                token: frame.token.clone(),
                                ckpt: None,
                                tail: vec![frame],
                            },
                        );
                    }
                    None => {
                        report.frames_skipped += 1;
                        report.warnings.push(format!(
                            "orphan frame for session {} dropped (no checkpoint or open frame)",
                            frame.session
                        ));
                    }
                }
            }
        }

        let plan_list: Vec<(u64, RecoveryPlan)> = plans.into_iter().collect();
        let workers = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(4)
            .min(plan_list.len().max(1));
        let results: Mutex<Vec<(u64, Result<Rebuilt, String>)>> = Mutex::new(Vec::new());
        let next = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                std::thread::Builder::new()
                    .stack_size(crate::server::WORKER_STACK)
                    .spawn_scoped(scope, || loop {
                        let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                        let Some((id, plan)) = plan_list.get(i) else { break };
                        let rebuilt = state.rebuild_session(*id, plan);
                        lock(&results).push((*id, rebuilt));
                    })
                    .expect("spawn a recovery worker");
            }
        });
        let mut results = results.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
        results.sort_by_key(|(id, _)| *id);
        let mut max_id = 0u64;
        let mut failed: HashSet<u64> = HashSet::new();
        for (id, rebuilt) in results {
            max_id = max_id.max(id);
            match rebuilt {
                Ok(rebuilt) => {
                    report.sessions_recovered += 1;
                    report.frames_replayed += rebuilt.frames_replayed;
                    report.frames_skipped += rebuilt.frames_skipped;
                    report.warnings.extend(rebuilt.warnings);
                    // Reseed the server-level open window: a client whose
                    // open ack died with the old process retries the same
                    // req_id and must reattach to this session, not open
                    // a second one.
                    if let Some(rid) = rebuilt.entry.lock_durable().open_req["req_id"].as_str() {
                        lock(&state.open_dedupe).put(
                            rid,
                            json!({
                                "ok": true,
                                "session": rebuilt.entry.id,
                                "scenario": rebuilt.entry.scenario.clone(),
                                "session_token": rebuilt.entry.token.clone(),
                                "protocol": PROTOCOL_VERSION,
                            }),
                        );
                    }
                    state.registry.insert(rebuilt.entry);
                }
                Err(e) => {
                    failed.insert(id);
                    report.warnings.push(format!("session {id} not recovered: {e}"));
                }
            }
        }
        state.registry.bump_next_id(max_id + 1);

        let journal = Arc::new(Journal::open(config)?);
        // LSNs must clear every checkpoint even when the journal file is
        // freshly empty, or the next recovery would see "new" frames
        // below `last_lsn` and wrongly skip them as already covered.
        journal.ensure_lsn_at_least(max_ckpt_lsn.max(scan.max_lsn) + 1);
        for id in &tombstoned {
            if let Err(e) = journal.remove_checkpoint(*id) {
                report.warnings.push(format!("stale checkpoint removal for session {id}: {e}"));
            }
        }
        if !report.clean {
            // Fold the tail into fresh checkpoints and truncate: recovery
            // is idempotent and the next one starts from a compact prefix.
            let cover = max_ckpt_lsn.max(scan.max_lsn);
            let mut all_ok = true;
            for entry in state.registry.entries() {
                let mut durable = entry.lock_durable();
                let doc = checkpoint_doc(&entry, &durable, cover);
                match journal.write_checkpoint(entry.id, &doc) {
                    Ok(()) => {
                        durable.last_ckpt_lsn = cover;
                        durable.mutations_since_ckpt = 0;
                    }
                    Err(e) => {
                        all_ok = false;
                        report.warnings.push(format!(
                            "post-recovery checkpoint for session {}: {e}",
                            entry.id
                        ));
                    }
                }
            }
            if all_ok && failed.is_empty() {
                if let Err(e) = journal.truncate() {
                    report.warnings.push(format!("post-recovery truncate: {e}"));
                }
            } else if !failed.is_empty() {
                // The failed sessions exist only as journal frames;
                // truncating would turn a possibly transient replay
                // failure into unrecoverable loss. Keep the tail so the
                // next restart can retry them.
                report.warnings.push(format!(
                    "journal retained: {} session(s) failed to rebuild and live only in its frames",
                    failed.len()
                ));
            }
        }
        *lock(&state.unrecovered) = failed;
        let _ = state.journal.set(journal);
        let c = &state.journal_counters;
        c.sessions_recovered.store(report.sessions_recovered, Ordering::Relaxed);
        c.frames_replayed.store(report.frames_replayed, Ordering::Relaxed);
        c.frames_skipped.store(report.frames_skipped, Ordering::Relaxed);
        c.warnings.store(report.warnings.len() as u64, Ordering::Relaxed);
        Ok((state, report))
    }

    /// Rebuild one session from its recovery plan: re-open the engine
    /// through [`Self::build_pi2`], replay checkpointed ops, replay tail
    /// frames (skipping duplicate `req_id`s), then dispatch the applied
    /// gesture history. Cell/generate interleaving is preserved exactly;
    /// gesture events replay after all generates, which is sound because
    /// a version's widget state depends only on its own events, in order.
    fn rebuild_session(&self, id: u64, plan: &RecoveryPlan) -> Result<Rebuilt, String> {
        let open_req = match &plan.ckpt {
            Some(ckpt) => ckpt["open_req"].clone(),
            None => plan.tail.first().map(|f| f.req.clone()).ok_or("empty recovery plan")?,
        };
        let parsed = protocol::parse_request_value(&open_req)
            .map_err(|e| format!("unreplayable open request: {}", error_message(&e)))?;
        let Request::Open { scenario, options } = parsed else {
            return Err("stored open request is not an `open`".to_string());
        };
        let pi2 = self
            .build_pi2(&scenario, &options)
            .map_err(|e| format!("engine rebuild failed: {}", error_message(&e)))?;
        let token = plan.token.clone().unwrap_or_else(|| session_token(id));
        let entry = Arc::new(
            SessionEntry::new(id, scenario, token, Notebook::with_pi2(pi2)).mark_recovered(),
        );
        let mut warnings = Vec::new();
        let mut durable = crate::session::Durable { open_req, ..Default::default() };
        let mut applied: Vec<(usize, Event)> = Vec::new();
        let mut req_ids: Vec<String> = Vec::new();

        if let Some(ckpt) = &plan.ckpt {
            durable.last_ckpt_lsn = ckpt["last_lsn"].as_u64().unwrap_or(0);
            for op in ckpt["ops"].as_array().map(Vec::as_slice).unwrap_or_default() {
                match op["op"].as_str() {
                    Some("cell") => {
                        let sql = op["sql"].as_str().unwrap_or_default().to_string();
                        replay_cell(&entry, &sql);
                        durable.ops.push(DurableOp::Cell(sql));
                    }
                    Some("generate") => {
                        replay_generate(&entry)
                            .map_err(|e| format!("checkpointed generate replay: {e}"))?;
                        durable.ops.push(DurableOp::Generate);
                    }
                    other => {
                        warnings.push(format!("session {id}: unknown checkpoint op {other:?}"))
                    }
                }
            }
            for item in ckpt["applied"].as_array().map(Vec::as_slice).unwrap_or_default() {
                let version = item["version"].as_u64().unwrap_or(0) as usize;
                match protocol::parse_event(&item["event"]) {
                    Ok(event) => applied.push((version, event)),
                    Err(e) => warnings.push(format!(
                        "session {id}: unreplayable checkpointed event: {}",
                        error_message(&e)
                    )),
                }
            }
            for rid in ckpt["req_ids"].as_array().map(Vec::as_slice).unwrap_or_default() {
                if let Some(rid) = rid.as_str() {
                    req_ids.push(rid.to_string());
                }
            }
        }

        let mut frames_replayed = 0u64;
        let mut frames_skipped = 0u64;
        let mut seen: HashSet<String> = req_ids.iter().cloned().collect();
        for frame in &plan.tail {
            if let Some(rid) = frame.req["req_id"].as_str() {
                if !seen.insert(rid.to_string()) {
                    // The retry's effect was already deduped live; replay
                    // must not apply it a second time.
                    frames_skipped += 1;
                    warnings.push(format!("session {id}: duplicate req_id `{rid}` frame skipped"));
                    continue;
                }
                req_ids.push(rid.to_string());
            }
            let request = match protocol::parse_request_value(&frame.req) {
                Ok(r) => r,
                Err(e) => {
                    frames_skipped += 1;
                    warnings.push(format!(
                        "session {id}: unreplayable frame at lsn {}: {}",
                        frame.lsn,
                        error_message(&e)
                    ));
                    continue;
                }
            };
            match request {
                Request::Open { .. } => {} // the bootstrap frame itself
                Request::RunCell { sql, .. } => {
                    replay_cell(&entry, &sql);
                    durable.ops.push(DurableOp::Cell(sql));
                }
                Request::Generate { .. } => {
                    replay_generate(&entry).map_err(|e| format!("generate replay: {e}"))?;
                    durable.ops.push(DurableOp::Generate);
                }
                Request::Gesture { version, events, .. } => {
                    let version = version.unwrap_or(0);
                    applied.extend(events.into_iter().map(|e| (version, e)));
                }
                Request::ApplyBinding { version, widget, value, .. } => {
                    applied.push((version.unwrap_or(0), Event::SetWidget { widget, value }));
                }
                _ => {
                    frames_skipped += 1;
                    warnings.push(format!(
                        "session {id}: non-mutating frame at lsn {} skipped",
                        frame.lsn
                    ));
                    continue;
                }
            }
            frames_replayed += 1;
        }

        let applied = coalesce(applied);
        for (version, event) in &applied {
            let mut core = entry.lock_core();
            match core.live_session(*version) {
                Ok(live) => {
                    if let Err(e) = live.dispatch(event.clone()) {
                        warnings.push(format!("session {id}: replayed event rejected: {e}"));
                    }
                }
                Err(e) => warnings
                    .push(format!("session {id}: version {version} unavailable at replay: {e}")),
            }
        }
        durable.applied = applied;
        *entry.lock_durable() = durable;
        for rid in req_ids {
            // The original responses died with the old process; a retry
            // of an already-applied request gets a bare ok (the effect is
            // present, which is the contract — not the original body).
            entry.dedupe_put(&rid, json!({"ok": true}));
        }
        Ok(Rebuilt { entry, frames_replayed, frames_skipped, warnings })
    }
}

impl SessionEntry {
    /// Lock the serial core, recovering from poisoning.
    pub fn lock_core(&self) -> std::sync::MutexGuard<'_, crate::session::SessionCore> {
        self.core.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// The durable-op flavor of a mutating request, captured pre-dispatch so
/// [`ServerState::after_mutation`] knows how to fold the frame into the
/// session's replay state without re-classifying the JSON.
enum MutationKind {
    Open,
    Cell(String),
    Generate,
    /// `gesture` / `apply_binding`: the journaled frame carries the
    /// (coalesced, version-pinned) events themselves.
    Applied,
}

/// A mutating request's wire form plus its durable-op classification.
struct MutationRecord {
    kind: MutationKind,
    req: Value,
}

/// Capture `request` for journaling. Gestures are recorded *after*
/// request-local coalescing — replay dispatches the same merged stream
/// the live queue would have produced for this request — and the
/// client's `req_id`, if any, rides along inside the frame so recovery
/// can skip duplicate-delivery frames. `close` never comes through here:
/// its tombstone frame is appended directly by [`ServerState::close`].
fn mutation_record(request: &Request, req_id: Option<&str>) -> MutationRecord {
    let kind = match request {
        Request::Open { .. } => MutationKind::Open,
        Request::RunCell { sql, .. } => MutationKind::Cell(sql.clone()),
        Request::Generate { .. } => MutationKind::Generate,
        _ => MutationKind::Applied,
    };
    let mut req = match request {
        Request::Gesture { session, version, events, include_data } => {
            let events: Vec<Event> = coalesce(events.iter().map(|e| (0, e.clone())).collect())
                .into_iter()
                .map(|(_, e)| e)
                .collect();
            protocol::request_to_json(&Request::Gesture {
                session: *session,
                version: *version,
                events,
                include_data: *include_data,
            })
        }
        other => protocol::request_to_json(other),
    };
    if let Some(rid) = req_id {
        req["req_id"] = json!(rid);
    }
    MutationRecord { kind, req }
}

/// One session's inputs to [`ServerState::rebuild_session`].
struct RecoveryPlan {
    token: Option<String>,
    ckpt: Option<Value>,
    tail: Vec<journal::Frame>,
}

/// One successfully rebuilt session plus its replay accounting.
struct Rebuilt {
    entry: Arc<SessionEntry>,
    frames_replayed: u64,
    frames_skipped: u64,
    warnings: Vec<String>,
}

/// The resume token for session `id`: a keyed splitmix64 mix, **stable
/// across processes** so a recovered session still answers the token its
/// `open` handed out — and deterministic by design, because the
/// protocol-equivalence suite replays one script against independent
/// server states and compares responses byte-for-byte. Tokens gate
/// reattachment to the right session, not secrecy (the line protocol is
/// plaintext anyway).
fn session_token(id: u64) -> String {
    let mut z = (id ^ 0x7069_3273_6573_7374).wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    format!("tok-{z:016x}")
}

/// Replay one notebook cell. A cell that failed live re-fails here
/// deterministically; its failure is part of the notebook's history, not
/// a recovery error.
fn replay_cell(entry: &SessionEntry, sql: &str) {
    let mut core = entry.lock_core();
    let cell = core.notebook.add_cell(sql);
    let _ = core.notebook.run_cell(cell);
}

/// Replay one accepted `generate`. Goes through the same engine (and
/// fleet cache) path as the original call, so identical logs across a
/// recovering fleet single-flight to one cold search.
fn replay_generate(entry: &SessionEntry) -> Result<(), NotebookError> {
    let mut core = entry.lock_core();
    let version = core.notebook.generate_interface()?;
    entry.latest_version.fetch_max(version, Ordering::SeqCst);
    Ok(())
}

/// The `message` of an error-response document (for recovery warnings).
fn error_message(e: &Value) -> &str {
    e["error"]["message"].as_str().unwrap_or("unknown error")
}

/// A checkpoint document: everything [`ServerState::rebuild_session`]
/// needs to restore the session without any journal frames at or below
/// `cover_lsn`.
fn checkpoint_doc(
    entry: &SessionEntry,
    durable: &crate::session::Durable,
    cover_lsn: u64,
) -> Value {
    let ops: Vec<Value> = durable
        .ops
        .iter()
        .map(|op| match op {
            DurableOp::Cell(sql) => json!({"op": "cell", "sql": sql}),
            DurableOp::Generate => json!({"op": "generate"}),
        })
        .collect();
    let applied: Vec<Value> = durable
        .applied
        .iter()
        .map(
            |(version, event)| json!({"version": version, "event": protocol::event_to_json(event)}),
        )
        .collect();
    json!({
        "session": entry.id,
        "token": entry.token.clone(),
        "scenario": entry.scenario.clone(),
        "open_req": durable.open_req.clone(),
        "ops": ops,
        "applied": applied,
        "req_ids": entry.dedupe_ids(),
        "last_lsn": cover_lsn,
    })
}

fn endpoint_name(request: &Request) -> &'static str {
    match request {
        Request::Open { .. } => "open",
        Request::Close { .. } => "close",
        Request::RunCell { .. } => "run_cell",
        Request::Generate { .. } => "generate",
        Request::ApplyBinding { .. } => "apply_binding",
        Request::Gesture { .. } => "gesture",
        Request::Render { .. } => "render",
        Request::RenderDelta { .. } => "render_delta",
        Request::Stats { .. } => "stats",
        Request::Resume { .. } => "resume",
        Request::Shutdown => "shutdown",
    }
}

fn unknown_session(id: u64) -> Value {
    error_response(ErrorKind::UnknownSession, format!("no session {id}"))
}

fn notebook_error(e: &NotebookError) -> Value {
    let kind = match e {
        NotebookError::UnknownVersion(_) => ErrorKind::UnknownVersion,
        NotebookError::Generation(_) => ErrorKind::Generation,
        _ => ErrorKind::Notebook,
    };
    error_response(kind, e)
}

/// Embed a JSON string produced by a `to_json()` helper as a value.
fn parse_json(text: &str) -> Value {
    serde_json::from_str(text).unwrap_or(Value::Null)
}

/// Serialize a response document to one protocol line.
fn to_line(v: &Value) -> String {
    serde_json::to_string(v).unwrap_or_else(|e| {
        format!("{{\"ok\":false,\"error\":{{\"kind\":\"internal\",\"message\":\"response serialization failed: {e}\"}}}}")
    })
}

/// Result rows as arrays of JSON values.
fn result_rows(result: &pi2_engine::ResultSet) -> Value {
    Value::Array(
        result
            .rows()
            .map(|row| Value::Array(row.iter().map(protocol::engine_value_to_json).collect()))
            .collect(),
    )
}
