//! Server-side session state: a notebook plus live interface sessions.
//!
//! # Concurrency model
//!
//! A session's state is inherently serial (one analyst, one notebook), so
//! all mutation happens under the entry's `core` mutex, and every mutating
//! request holds the entry's order lock around its whole dedupe → execute
//! → journal sequence. A `gesture` request therefore takes one straight
//! path: [`SessionEntry::dispatch`] **coalesces** the request's own events
//! once (adjacent pans of one chart sum their deltas, and so on; see
//! [`coalesce`]) and dispatches the survivors, and the journal records
//! exactly those survivors, so crash replay dispatches what ran live.
//! Events never merge across requests.

use pi2_core::prelude::{ChartUpdate, Event, InterfaceSession, SessionError};
use pi2_notebook::{Notebook, NotebookError};
use serde_json::Value;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// How many recent `req_id`s (and their responses) a session remembers
/// for idempotent replay. A reconnecting client only ever retries its
/// most recent unacknowledged request, so a short window suffices.
pub const DEDUPE_WINDOW: usize = 128;

/// Lock a mutex, recovering the data from a poisoned lock (a panic in
/// another handler must not wedge the whole session).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The serial part of a session: the notebook plus one live
/// [`InterfaceSession`] per generated version, opened lazily.
pub struct SessionCore {
    /// The notebook backing this session.
    pub notebook: Notebook,
    /// Live interface sessions keyed by version number.
    pub live: HashMap<usize, InterfaceSession>,
}

impl SessionCore {
    /// The live session for `version`, opening it from the notebook on
    /// first use.
    pub fn live_session(&mut self, version: usize) -> Result<&mut InterfaceSession, NotebookError> {
        if !self.live.contains_key(&version) {
            let session = self.notebook.open_session(version)?;
            self.live.insert(version, session);
        }
        Ok(self.live.get_mut(&version).expect("just inserted"))
    }
}

/// Monotone per-session counters, readable without any lock.
#[derive(Default)]
pub struct SessionCounters {
    /// Events received in gesture requests, before coalescing.
    pub enqueued: AtomicU64,
    /// Events dropped by coalescing (merged into a neighbor).
    pub coalesced: AtomicU64,
    /// Events actually dispatched to an interface session.
    pub dispatched: AtomicU64,
}

/// One notebook-level mutation in a session's durable history. Cell and
/// generate ops must replay in their original interleaving: a `generate`
/// sees exactly the cells that preceded it, so aggregating them would
/// rebuild different interfaces.
#[derive(Debug, Clone, PartialEq)]
pub enum DurableOp {
    /// `run_cell` with this SQL (failed cells included — replay re-fails
    /// them deterministically).
    Cell(String),
    /// One accepted `generate`.
    Generate,
}

/// The durable replay state of a session: everything needed to rebuild
/// the notebook and its live interfaces deterministically, snapshotted
/// into checkpoints. Maintained only while a journal is attached.
#[derive(Default)]
pub struct Durable {
    /// The original `open` request in wire form (scenario + options).
    pub open_req: Value,
    /// Cell and generate ops in acceptance order.
    pub ops: Vec<DurableOp>,
    /// The (version, event) pairs of every journaled gesture, in order:
    /// each request's events exactly as [`SessionEntry::dispatch`] ran
    /// them, never merged across requests. Replayable after all
    /// generates: a version's widget state depends only on the events
    /// that targeted it, in order.
    pub applied: Vec<(usize, Event)>,
    /// Journaled mutations since the last checkpoint.
    pub mutations_since_ckpt: u64,
    /// The journal LSN the latest checkpoint covers (frames at or below
    /// it are redundant for this session).
    pub last_ckpt_lsn: u64,
}

/// An idempotency window: recent `req_id`s mapped to the response each
/// produced, bounded to a fixed capacity ([`DEDUPE_WINDOW`] by default).
/// Sessions use one per entry; the server keeps a larger one for `open`
/// (which has no session to look up yet).
pub struct DedupeWindow {
    order: VecDeque<String>,
    responses: HashMap<String, Value>,
    cap: usize,
}

impl Default for DedupeWindow {
    fn default() -> Self {
        Self::with_capacity(DEDUPE_WINDOW)
    }
}

impl DedupeWindow {
    /// A window remembering at most `cap` ids.
    pub fn with_capacity(cap: usize) -> Self {
        Self { order: VecDeque::new(), responses: HashMap::new(), cap: cap.max(1) }
    }

    /// The cached response for `req_id`, if still in the window.
    pub fn get(&self, req_id: &str) -> Option<&Value> {
        self.responses.get(req_id)
    }

    /// Remember `response` for `req_id`, evicting the oldest entry past
    /// the cap. Re-inserting an existing id refreshes its response.
    pub fn put(&mut self, req_id: &str, response: Value) {
        if self.responses.insert(req_id.to_string(), response).is_none() {
            self.order.push_back(req_id.to_string());
            if self.order.len() > self.cap {
                if let Some(evicted) = self.order.pop_front() {
                    self.responses.remove(&evicted);
                }
            }
        }
    }

    /// The ids currently in the window, oldest first (checkpointed so a
    /// recovered session still answers retries idempotently).
    pub fn ids(&self) -> impl Iterator<Item = &str> {
        self.order.iter().map(String::as_str)
    }
}

/// One server-side session.
pub struct SessionEntry {
    /// The session id (allocated by the registry, never reused).
    pub id: u64,
    /// Scenario name the session was opened on.
    pub scenario: String,
    /// The resume token `open` handed the client.
    pub token: String,
    /// Whether this session was rebuilt by crash recovery.
    pub recovered: bool,
    /// Serial state; hold only while dispatching or mutating.
    pub core: Mutex<SessionCore>,
    /// Highest generated version number (0 = none yet), maintained by
    /// `generate` so requests can resolve "latest" without the core lock.
    pub latest_version: AtomicUsize,
    /// Counters.
    pub counters: SessionCounters,
    /// Replay state for checkpoints; populated only while a journal is
    /// attached (the dispatcher records each journaled mutation here).
    pub durable: Mutex<Durable>,
    /// Recent `req_id` → response pairs for idempotent retries. Always
    /// maintained (dedupe is a protocol property, not a journal one).
    pub dedupe: Mutex<DedupeWindow>,
    /// Serializes this session's whole mutation pipeline — dedupe
    /// check, execution, journal append, dedupe publish — so journal
    /// frame order always matches execution order and a concurrently
    /// retried `req_id` can never execute twice. Held *around* `core`,
    /// never acquired while holding it.
    order: Mutex<()>,
}

/// Outcome of one [`SessionEntry::dispatch`].
pub struct DispatchOutcome {
    /// The request's events after coalescing: what was dispatched, and
    /// what the journal records for replay.
    pub events: Vec<Event>,
    /// Final update per chart, in first-touched order.
    pub updates: Vec<ChartUpdate>,
    /// Events dispatched without error.
    pub applied: usize,
    /// Events dropped by coalescing.
    pub coalesced: usize,
    /// Per-event dispatch errors (dispatching continued past them).
    pub errors: Vec<SessionError>,
}

impl SessionEntry {
    /// A fresh entry wrapping `notebook`.
    pub fn new(id: u64, scenario: String, token: String, notebook: Notebook) -> Self {
        Self {
            id,
            scenario,
            token,
            recovered: false,
            core: Mutex::new(SessionCore { notebook, live: HashMap::new() }),
            latest_version: AtomicUsize::new(0),
            counters: SessionCounters::default(),
            durable: Mutex::new(Durable::default()),
            dedupe: Mutex::new(DedupeWindow::default()),
            order: Mutex::new(()),
        }
    }

    /// Lock the mutation-order guard: the holder's execute → journal →
    /// dedupe-publish sequence is atomic with respect to every other
    /// mutating request on this session.
    pub fn lock_order(&self) -> MutexGuard<'_, ()> {
        lock(&self.order)
    }

    /// Mark this entry as rebuilt by crash recovery.
    pub fn mark_recovered(mut self) -> Self {
        self.recovered = true;
        self
    }

    /// Lock the durable replay state.
    pub fn lock_durable(&self) -> MutexGuard<'_, Durable> {
        lock(&self.durable)
    }

    /// The cached response for a retried `req_id`, with the dedupe
    /// marker added so clients can tell a replay from a first effect.
    pub fn dedupe_get(&self, req_id: &str) -> Option<Value> {
        lock(&self.dedupe).get(req_id).cloned().map(|mut v| {
            v["deduped"] = Value::Bool(true);
            v
        })
    }

    /// Remember the response an accepted `req_id` produced.
    pub fn dedupe_put(&self, req_id: &str, response: Value) {
        lock(&self.dedupe).put(req_id, response);
    }

    /// The `req_id`s currently in the dedupe window, oldest first
    /// (checkpointed so a recovered session still dedupes retries).
    pub fn dedupe_ids(&self) -> Vec<String> {
        lock(&self.dedupe).ids().map(str::to_string).collect()
    }

    /// Coalesce one request's `events` (all for `version`) and dispatch
    /// the survivors under the core lock, in order. The caller holds the
    /// order lock, so no other request's events can interleave.
    pub fn dispatch(
        &self,
        version: usize,
        events: Vec<Event>,
    ) -> Result<DispatchOutcome, NotebookError> {
        let received = events.len();
        let events: Vec<Event> = coalesce(events.into_iter().map(|e| (version, e)).collect())
            .into_iter()
            .map(|(_, e)| e)
            .collect();
        let coalesced = received - events.len();
        self.counters.enqueued.fetch_add(received as u64, Ordering::Relaxed);
        self.counters.coalesced.fetch_add(coalesced as u64, Ordering::Relaxed);
        let mut core = lock(&self.core);
        let session = core.live_session(version)?;
        let (mut updates, mut applied, mut errors) = (Vec::<ChartUpdate>::new(), 0, Vec::new());
        // Final update per chart: later events supersede earlier ones.
        let mut by_chart: HashMap<usize, usize> = HashMap::new();
        for event in &events {
            // Once a client has opened the scene stream (render_delta
            // initialized the retained scene), every dispatch must record
            // its damage delta so catch-up stays contiguous; sessions
            // without a scene consumer skip that work.
            let dispatched = if session.scene_version() > 0 {
                session.dispatch_with_delta(event.clone()).map(|(updates, _delta)| updates)
            } else {
                session.dispatch(event.clone())
            };
            match dispatched {
                Ok(chart_updates) => {
                    applied += 1;
                    self.counters.dispatched.fetch_add(1, Ordering::Relaxed);
                    for update in chart_updates {
                        match by_chart.get(&update.chart) {
                            Some(&slot) => updates[slot] = update,
                            None => {
                                by_chart.insert(update.chart, updates.len());
                                updates.push(update);
                            }
                        }
                    }
                }
                Err(e) => errors.push(e),
            }
        }
        Ok(DispatchOutcome { events, updates, applied, coalesced, errors })
    }
}

/// Merge runs of events that address the same target, preserving order:
///
/// * consecutive **pans** of one chart sum their deltas;
/// * consecutive **zooms** of one chart multiply their factors;
/// * consecutive **brushes** of one chart keep only the last range;
/// * consecutive **set-widget** events on one widget keep only the last
///   value;
/// * **clicks** never merge (each click is a distinct selection).
///
/// Only *adjacent* events (within the same interface version) merge, so
/// interleaved targets keep their relative order and semantics. A merged
/// pan or zoom is one gesture: the interface clamps and rounds it once,
/// so `[pan 0.4, pan 0.4]` in one request can move a date window by a
/// day while the same two pans sent as two requests leave it in place.
/// [`SessionEntry::dispatch`] is the only caller, one request at a time.
pub fn coalesce(events: Vec<(usize, Event)>) -> Vec<(usize, Event)> {
    let mut out: Vec<(usize, Event)> = Vec::with_capacity(events.len());
    for (version, event) in events {
        if let Some((last_version, last)) = out.last_mut() {
            if *last_version == version {
                match (last, &event) {
                    (
                        Event::Pan { chart: c1, dx, dy },
                        Event::Pan { chart: c2, dx: dx2, dy: dy2 },
                    ) if c1 == c2 => {
                        *dx += dx2;
                        *dy += dy2;
                        continue;
                    }
                    (Event::Zoom { chart: c1, factor }, Event::Zoom { chart: c2, factor: f2 })
                        if c1 == c2 =>
                    {
                        *factor *= f2;
                        continue;
                    }
                    (
                        Event::Brush { chart: c1, low, high },
                        Event::Brush { chart: c2, low: l2, high: h2 },
                    ) if c1 == c2 => {
                        *low = *l2;
                        *high = *h2;
                        continue;
                    }
                    (
                        Event::SetWidget { widget: w1, value },
                        Event::SetWidget { widget: w2, value: v2 },
                    ) if w1 == w2 => {
                        *value = v2.clone();
                        continue;
                    }
                    _ => {}
                }
            }
        }
        out.push((version, event));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_core::prelude::WidgetValue;

    fn pan(chart: usize, dx: f64) -> Event {
        Event::Pan { chart, dx, dy: 0.0 }
    }

    #[test]
    fn pans_sum_zooms_multiply_brushes_last_win() {
        let out = coalesce(vec![
            (1, pan(0, 1.0)),
            (1, pan(0, 2.0)),
            (1, Event::Zoom { chart: 0, factor: 2.0 }),
            (1, Event::Zoom { chart: 0, factor: 0.25 }),
            (1, Event::Brush { chart: 1, low: 0.0, high: 1.0 }),
            (1, Event::Brush { chart: 1, low: 5.0, high: 9.0 }),
            (1, Event::SetWidget { widget: 3, value: WidgetValue::Pick(0) }),
            (1, Event::SetWidget { widget: 3, value: WidgetValue::Pick(2) }),
        ]);
        assert_eq!(
            out,
            vec![
                (1, pan(0, 3.0)),
                (1, Event::Zoom { chart: 0, factor: 0.5 }),
                (1, Event::Brush { chart: 1, low: 5.0, high: 9.0 }),
                (1, Event::SetWidget { widget: 3, value: WidgetValue::Pick(2) }),
            ]
        );
    }

    #[test]
    fn different_targets_versions_and_clicks_do_not_merge() {
        let click = Event::Click { chart: 0, value: pi2_sql::Literal::Int(1) };
        let input = vec![
            (1, pan(0, 1.0)),
            (1, pan(1, 1.0)), // different chart
            (2, pan(1, 1.0)), // different version
            (2, click.clone()),
            (2, click.clone()), // clicks never merge
            (2, Event::SetWidget { widget: 0, value: WidgetValue::Bool(true) }),
            (2, Event::SetWidget { widget: 1, value: WidgetValue::Bool(true) }), // different widget
        ];
        assert_eq!(coalesce(input.clone()), input);
    }

    #[test]
    fn interleaved_targets_preserve_order() {
        let input = vec![(1, pan(0, 1.0)), (1, pan(1, 1.0)), (1, pan(0, 1.0))];
        // The interleaving chart-1 pan prevents merging the chart-0 pans.
        assert_eq!(coalesce(input.clone()), input);
    }

    #[test]
    fn dedupe_window_is_bounded_and_replays_responses() {
        let mut window = DedupeWindow::default();
        for i in 0..DEDUPE_WINDOW + 10 {
            window.put(&format!("r{i}"), serde_json::json!({"ok": true, "n": i}));
        }
        // The oldest ten fell out; the newest are replayable.
        assert!(window.get("r0").is_none());
        assert!(window.get("r9").is_none());
        assert_eq!(window.get("r10").unwrap()["n"].as_u64(), Some(10));
        let last = format!("r{}", DEDUPE_WINDOW + 9);
        assert_eq!(window.get(&last).unwrap()["ok"].as_bool(), Some(true));
        assert_eq!(window.ids().count(), DEDUPE_WINDOW);
        // Refreshing an id replaces its response without growing the window.
        window.put("r10", serde_json::json!({"ok": true, "n": 999}));
        assert_eq!(window.get("r10").unwrap()["n"].as_u64(), Some(999));
        assert_eq!(window.ids().count(), DEDUPE_WINDOW);
    }
}
