//! The wire protocol: one JSON object per line, request in / response out.
//!
//! Every request is an object with a `"cmd"` field naming the verb and an
//! optional `"id"` the server echoes back verbatim, so clients can
//! correlate pipelined requests. Responses carry `"ok": true` plus
//! verb-specific fields, or `"ok": false` with a structured `"error"`
//! object (`kind` and `message`). No error is transient: resending the
//! identical request gets the identical answer.
//!
//! The same encoding is used by the TCP transport and the in-process
//! [`LocalClient`](crate::LocalClient), so protocol tests exercise the
//! exact bytes that cross the network.

use pi2_core::prelude::{Event, Literal, WidgetValue};
use serde_json::{json, Value};

/// Protocol revision spoken by this server. Carried in `open` and
/// `resume` responses as `"protocol"`; bumped when verbs or response
/// shapes change incompatibly. Revision 2 added the scene-graph
/// `render_delta` verb; revision 3 made each frame's chart `data` carry
/// exactly one of `replace` or `edits`.
pub const PROTOCOL_VERSION: u64 = 3;

/// Most events one `gesture` request may carry. A longer list is a
/// `bad_request`, refused before anything is dispatched or journaled.
pub const MAX_GESTURE_EVENTS: usize = 64;

/// Default execution-mode knobs applied when `open` omits them: servers
/// must not hang on one session's pathological query or search.
pub mod defaults {
    use std::time::Duration;
    /// Wall-clock budget for one `generate` call.
    pub const GENERATION_DEADLINE: Duration = Duration::from_secs(2);
    /// Wall-clock budget for one chart-query execution.
    pub const EXEC_TIMEOUT: Duration = Duration::from_secs(2);
}

/// How a session's `generate` explores the forest space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Strategy {
    /// Merge-everything, no search: the interactive-latency default.
    #[default]
    FullMerge,
    /// The paper's MCTS (slower; bounded by the session budget).
    Mcts,
    /// Greedy hill climbing.
    Greedy,
}

/// How a session's `generate` calls relate to the server's fleet-wide
/// generation cache. Carried in `open`'s `cache: {"mode": ...}` block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CacheMode {
    /// Use the process-wide fleet cache (the default): repeated logs are
    /// served from cache, concurrent identical generations single-flight,
    /// and admission control may shed to `Anytime`.
    #[default]
    Shared,
    /// Always run a private, fresh search; never read or write the fleet
    /// cache (for reproduction runs and benchmarking the cold path).
    Bypass,
}

impl CacheMode {
    /// The wire name of the mode.
    pub fn as_str(self) -> &'static str {
        match self {
            CacheMode::Shared => "shared",
            CacheMode::Bypass => "bypass",
        }
    }
}

/// The structured `cache` option block of `open`:
/// `{"mode": "shared"|"bypass", "wait_ms": n}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct CacheOptions {
    /// Fleet-cache participation (default [`CacheMode::Shared`]).
    pub mode: CacheMode,
    /// How long this session's `generate` waits on another session's
    /// in-flight generation of the same fingerprint before searching
    /// privately (`0` = don't wait, absent = the fleet default).
    pub wait_ms: Option<u64>,
}

/// The option block of `render_delta`:
/// `{"version": v, "since": u}` (both optional).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct RenderDeltaOptions {
    /// Interface version (absent = latest).
    pub version: Option<usize>,
    /// The scene version the client already holds. Absent (or stale, or
    /// beyond the server's delta history) yields a full-snapshot resync.
    pub since: Option<u64>,
}

/// Options accepted by `open`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpenOptions {
    /// Row cap per query execution (`0` = unlimited, absent = unlimited).
    pub max_rows: Option<usize>,
    /// Per-query wall-clock cap in ms (`0` = unlimited, absent =
    /// [`defaults::EXEC_TIMEOUT`]).
    pub timeout_ms: Option<u64>,
    /// Per-`generate` wall-clock cap in ms (`0` = unlimited, absent =
    /// [`defaults::GENERATION_DEADLINE`]).
    pub deadline_ms: Option<u64>,
    /// Per-`generate` search-iteration cap.
    pub max_iterations: Option<usize>,
    /// Search strategy for this session.
    pub strategy: Strategy,
    /// Fleet-cache participation (see [`CacheOptions`]).
    pub cache: CacheOptions,
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Open a session over a named scenario catalog.
    Open {
        /// Scenario name (`toy`, `covid`, `sdss`, `sp500`).
        scenario: String,
        /// Budget / limit / strategy knobs.
        options: OpenOptions,
    },
    /// Close a session, releasing its state.
    Close {
        /// The session to close.
        session: u64,
    },
    /// Append a SQL cell to the session's notebook and execute it.
    RunCell {
        /// Target session.
        session: u64,
        /// The cell's SQL text.
        sql: String,
    },
    /// Generate a new interface version from the selected cells.
    Generate {
        /// Target session.
        session: u64,
    },
    /// Bind a widget to a value (sugar for a one-event `gesture`).
    ApplyBinding {
        /// Target session.
        session: u64,
        /// Interface version (absent = latest).
        version: Option<usize>,
        /// The widget to operate.
        widget: usize,
        /// The value to bind.
        value: WidgetValue,
    },
    /// Dispatch interaction events (at most [`MAX_GESTURE_EVENTS`];
    /// adjacent events of one target coalesce before dispatch).
    Gesture {
        /// Target session.
        session: u64,
        /// Interface version (absent = latest).
        version: Option<usize>,
        /// The events, oldest first.
        events: Vec<Event>,
        /// Include result rows in each chart update.
        include_data: bool,
    },
    /// Render a version's interface (charts + live widget states) as text.
    Render {
        /// Target session.
        session: u64,
        /// Interface version (absent = latest).
        version: Option<usize>,
    },
    /// Stream scene-graph patch frames since a client-held scene version
    /// (or a full snapshot when the client is stale or has no scene yet).
    RenderDelta {
        /// Target session.
        session: u64,
        /// Version / since knobs.
        options: RenderDeltaOptions,
    },
    /// Server-wide stats, or one session's stats when `session` is given.
    Stats {
        /// Restrict to one session.
        session: Option<u64>,
    },
    /// Reattach to a live (or crash-recovered) session by its token.
    Resume {
        /// The `session_token` returned by `open`.
        token: String,
    },
    /// Begin graceful shutdown: drain in-flight dispatches, then stop.
    Shutdown,
}

impl Request {
    /// The session id this request addresses, when it addresses one.
    pub fn session(&self) -> Option<u64> {
        match self {
            Request::Close { session }
            | Request::RunCell { session, .. }
            | Request::Generate { session }
            | Request::ApplyBinding { session, .. }
            | Request::Gesture { session, .. }
            | Request::Render { session, .. }
            | Request::RenderDelta { session, .. } => Some(*session),
            Request::Stats { session } => *session,
            Request::Open { .. } | Request::Resume { .. } | Request::Shutdown => None,
        }
    }

    /// Whether this verb changes durable session state (and therefore is
    /// journaled and participates in `req_id` dedupe).
    pub fn mutating(&self) -> bool {
        matches!(
            self,
            Request::Open { .. }
                | Request::Close { .. }
                | Request::RunCell { .. }
                | Request::Generate { .. }
                | Request::ApplyBinding { .. }
                | Request::Gesture { .. }
        )
    }
}

/// Structured error kinds carried in `"error": {"kind": ...}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// Malformed JSON or a missing/ill-typed field.
    BadRequest,
    /// A request line exceeded the server's line-length cap; the rest of
    /// the line is discarded and the connection stays usable.
    TooLarge,
    /// `open` named a scenario the server does not know.
    UnknownScenario,
    /// No session with that id.
    UnknownSession,
    /// No generated interface version with that number.
    UnknownVersion,
    /// The dispatch layer rejected the event (see message).
    Session,
    /// The notebook layer rejected the request (see message).
    Notebook,
    /// Interface generation failed (see message).
    Generation,
    /// `resume` presented a token no live or recovered session carries.
    UnknownToken,
    /// The server is draining; only `stats` is served.
    ShuttingDown,
}

impl ErrorKind {
    /// The wire name of the kind.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::TooLarge => "too_large",
            ErrorKind::UnknownScenario => "unknown_scenario",
            ErrorKind::UnknownSession => "unknown_session",
            ErrorKind::UnknownVersion => "unknown_version",
            ErrorKind::Session => "session",
            ErrorKind::Notebook => "notebook",
            ErrorKind::Generation => "generation",
            ErrorKind::UnknownToken => "unknown_token",
            ErrorKind::ShuttingDown => "shutting_down",
        }
    }
}

/// Build an error response object.
pub fn error_response(kind: ErrorKind, message: impl std::fmt::Display) -> Value {
    json!({"ok": false, "error": {"kind": kind.as_str(), "message": message.to_string()}})
}

/// Parse one request line (already stripped of its trailing newline).
pub fn parse_request(line: &str) -> Result<(Request, Option<Value>), Value> {
    parse_request_full(line).map(|(r, id, _)| (r, id))
}

/// As [`parse_request`], but also returns the client-assigned `req_id`
/// (the idempotency key mutating requests may carry).
pub fn parse_request_full(line: &str) -> Result<(Request, Option<Value>, Option<String>), Value> {
    let doc: Value = serde_json::from_str(line)
        .map_err(|e| error_response(ErrorKind::BadRequest, format!("invalid JSON: {e}")))?;
    let id = doc.get("id").cloned();
    let req_id = match doc.get("req_id") {
        None | Some(Value::Null) => None,
        Some(Value::String(s)) => Some(s.clone()),
        Some(_) => {
            let mut e = bad("`req_id` must be a string");
            if let Some(id) = doc.get("id") {
                e["id"] = id.clone();
            }
            return Err(e);
        }
    };
    parse_request_value(&doc).map(|r| (r, id, req_id)).map_err(|mut e| {
        if let Some(id) = doc.get("id") {
            e["id"] = id.clone();
        }
        e
    })
}

fn bad(msg: impl std::fmt::Display) -> Value {
    error_response(ErrorKind::BadRequest, msg)
}

fn need_u64(doc: &Value, key: &str) -> Result<u64, Value> {
    doc.get(key)
        .and_then(Value::as_i64)
        .and_then(|v| u64::try_from(v).ok())
        .ok_or_else(|| bad(format!("missing or ill-typed `{key}`")))
}

fn need_str<'a>(doc: &'a Value, key: &str) -> Result<&'a str, Value> {
    doc.get(key).and_then(Value::as_str).ok_or_else(|| bad(format!("missing `{key}` string")))
}

fn opt_usize(doc: &Value, key: &str) -> Result<Option<usize>, Value> {
    match doc.get(key) {
        None | Some(Value::Null) => Ok(None),
        Some(v) => v
            .as_i64()
            .and_then(|v| usize::try_from(v).ok())
            .map(Some)
            .ok_or_else(|| bad(format!("`{key}` must be a non-negative integer"))),
    }
}

fn opt_u64(doc: &Value, key: &str) -> Result<Option<u64>, Value> {
    Ok(opt_usize(doc, key)?.map(|v| v as u64))
}

/// Parse a request from an already-parsed JSON document.
pub fn parse_request_value(doc: &Value) -> Result<Request, Value> {
    let cmd = need_str(doc, "cmd")?;
    match cmd {
        "open" => {
            let scenario = need_str(doc, "scenario")?.to_string();
            let strategy = match doc.get("strategy").and_then(Value::as_str) {
                None | Some("full_merge") => Strategy::FullMerge,
                Some("mcts") => Strategy::Mcts,
                Some("greedy") => Strategy::Greedy,
                Some(other) => {
                    return Err(bad(format!("unknown strategy `{other}` (full_merge|mcts|greedy)")))
                }
            };
            Ok(Request::Open {
                scenario,
                options: OpenOptions {
                    max_rows: opt_usize(doc, "max_rows")?,
                    timeout_ms: opt_u64(doc, "timeout_ms")?,
                    deadline_ms: opt_u64(doc, "deadline_ms")?,
                    max_iterations: opt_usize(doc, "max_iterations")?,
                    strategy,
                    cache: parse_cache_options(doc.get("cache"))?,
                },
            })
        }
        "close" => Ok(Request::Close { session: need_u64(doc, "session")? }),
        "run_cell" => Ok(Request::RunCell {
            session: need_u64(doc, "session")?,
            sql: need_str(doc, "sql")?.to_string(),
        }),
        "generate" => Ok(Request::Generate { session: need_u64(doc, "session")? }),
        "apply_binding" => Ok(Request::ApplyBinding {
            session: need_u64(doc, "session")?,
            version: opt_usize(doc, "version")?,
            widget: opt_usize(doc, "widget")?.ok_or_else(|| bad("missing `widget`"))?,
            value: parse_widget_value(doc.get("value").ok_or_else(|| bad("missing `value`"))?)?,
        }),
        "gesture" => {
            let mut events = Vec::new();
            match (doc.get("event"), doc.get("events")) {
                (Some(e), None) => events.push(parse_event(e)?),
                (None, Some(Value::Array(list))) => {
                    if list.len() > MAX_GESTURE_EVENTS {
                        return Err(bad(format!(
                            "`events` holds {} events; a gesture carries at most {MAX_GESTURE_EVENTS}",
                            list.len()
                        )));
                    }
                    for e in list {
                        events.push(parse_event(e)?);
                    }
                }
                _ => return Err(bad("expected `event` object or `events` array")),
            }
            if events.is_empty() {
                return Err(bad("`events` must not be empty"));
            }
            Ok(Request::Gesture {
                session: need_u64(doc, "session")?,
                version: opt_usize(doc, "version")?,
                events,
                include_data: doc.get("include_data").and_then(Value::as_bool).unwrap_or(false),
            })
        }
        "render" => Ok(Request::Render {
            session: need_u64(doc, "session")?,
            version: opt_usize(doc, "version")?,
        }),
        "render_delta" => Ok(Request::RenderDelta {
            session: need_u64(doc, "session")?,
            options: RenderDeltaOptions {
                version: opt_usize(doc, "version")?,
                since: opt_u64(doc, "since")?,
            },
        }),
        "stats" => Ok(Request::Stats {
            session: match doc.get("session") {
                None | Some(Value::Null) => None,
                Some(_) => Some(need_u64(doc, "session")?),
            },
        }),
        "resume" => Ok(Request::Resume { token: need_str(doc, "token")?.to_string() }),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(bad(format!("unknown cmd `{other}`"))),
    }
}

/// Serialize a request back to its wire form (the inverse of
/// [`parse_request_value`]): `parse_request_value(&request_to_json(r))`
/// returns `r`. The journal records accepted requests in this form so
/// recovery replays exactly the bytes-equivalent request.
pub fn request_to_json(request: &Request) -> Value {
    match request {
        Request::Open { scenario, options } => {
            let mut doc = json!({"cmd": "open", "scenario": scenario});
            if let Some(n) = options.max_rows {
                doc["max_rows"] = json!(n);
            }
            if let Some(ms) = options.timeout_ms {
                doc["timeout_ms"] = json!(ms);
            }
            if let Some(ms) = options.deadline_ms {
                doc["deadline_ms"] = json!(ms);
            }
            if let Some(n) = options.max_iterations {
                doc["max_iterations"] = json!(n);
            }
            match options.strategy {
                Strategy::FullMerge => {}
                Strategy::Mcts => doc["strategy"] = json!("mcts"),
                Strategy::Greedy => doc["strategy"] = json!("greedy"),
            }
            if options.cache != CacheOptions::default() {
                let mut cache = json!({"mode": options.cache.mode.as_str()});
                if let Some(ms) = options.cache.wait_ms {
                    cache["wait_ms"] = json!(ms);
                }
                doc["cache"] = cache;
            }
            doc
        }
        Request::Close { session } => json!({"cmd": "close", "session": session}),
        Request::RunCell { session, sql } => {
            json!({"cmd": "run_cell", "session": session, "sql": sql})
        }
        Request::Generate { session } => json!({"cmd": "generate", "session": session}),
        Request::ApplyBinding { session, version, widget, value } => {
            let mut doc = json!({
                "cmd": "apply_binding", "session": session,
                "widget": widget, "value": widget_value_to_json(value),
            });
            if let Some(v) = version {
                doc["version"] = json!(v);
            }
            doc
        }
        Request::Gesture { session, version, events, include_data } => {
            let mut doc = json!({
                "cmd": "gesture", "session": session,
                "events": events.iter().map(event_to_json).collect::<Vec<_>>(),
            });
            if let Some(v) = version {
                doc["version"] = json!(v);
            }
            if *include_data {
                doc["include_data"] = json!(true);
            }
            doc
        }
        Request::Render { session, version } => {
            let mut doc = json!({"cmd": "render", "session": session});
            if let Some(v) = version {
                doc["version"] = json!(v);
            }
            doc
        }
        Request::RenderDelta { session, options } => {
            let mut doc = json!({"cmd": "render_delta", "session": session});
            if let Some(v) = options.version {
                doc["version"] = json!(v);
            }
            if let Some(s) = options.since {
                doc["since"] = json!(s);
            }
            doc
        }
        Request::Stats { session } => match session {
            Some(s) => json!({"cmd": "stats", "session": s}),
            None => json!({"cmd": "stats"}),
        },
        Request::Resume { token } => json!({"cmd": "resume", "token": token}),
        Request::Shutdown => json!({"cmd": "shutdown"}),
    }
}

/// Parse `open`'s optional `cache` block:
/// `{"mode": "shared"|"bypass", "wait_ms": n}` (absent = all defaults).
fn parse_cache_options(doc: Option<&Value>) -> Result<CacheOptions, Value> {
    let Some(doc) = doc else { return Ok(CacheOptions::default()) };
    if doc.is_null() {
        return Ok(CacheOptions::default());
    }
    if !matches!(doc, Value::Object(_)) {
        return Err(bad("`cache` must be an object {mode, wait_ms}"));
    }
    let mode = match doc.get("mode").and_then(Value::as_str) {
        None | Some("shared") => CacheMode::Shared,
        Some("bypass") => CacheMode::Bypass,
        Some(other) => return Err(bad(format!("unknown cache mode `{other}` (shared|bypass)"))),
    };
    Ok(CacheOptions { mode, wait_ms: opt_u64(doc, "wait_ms")? })
}

// ---- events -----------------------------------------------------------------

fn need_f64(doc: &Value, key: &str) -> Result<f64, Value> {
    doc.get(key).and_then(Value::as_f64).ok_or_else(|| bad(format!("missing or ill-typed `{key}`")))
}

/// Parse one interaction event.
pub fn parse_event(doc: &Value) -> Result<Event, Value> {
    let ty = need_str(doc, "type")?;
    let chart = || opt_usize(doc, "chart").and_then(|c| c.ok_or_else(|| bad("missing `chart`")));
    match ty {
        "pan" => {
            Ok(Event::Pan { chart: chart()?, dx: need_f64(doc, "dx")?, dy: need_f64(doc, "dy")? })
        }
        "zoom" => Ok(Event::Zoom { chart: chart()?, factor: need_f64(doc, "factor")? }),
        "brush" => Ok(Event::Brush {
            chart: chart()?,
            low: need_f64(doc, "low")?,
            high: need_f64(doc, "high")?,
        }),
        "click" => Ok(Event::Click {
            chart: chart()?,
            value: parse_literal(doc.get("value").ok_or_else(|| bad("missing `value`"))?)?,
        }),
        "set_widget" => Ok(Event::SetWidget {
            widget: opt_usize(doc, "widget")?.ok_or_else(|| bad("missing `widget`"))?,
            value: parse_widget_value(doc.get("value").ok_or_else(|| bad("missing `value`"))?)?,
        }),
        other => Err(bad(format!("unknown event type `{other}`"))),
    }
}

/// Serialize one interaction event (the inverse of [`parse_event`]).
pub fn event_to_json(event: &Event) -> Value {
    match event {
        Event::Pan { chart, dx, dy } => {
            json!({"type": "pan", "chart": *chart, "dx": *dx, "dy": *dy})
        }
        Event::Zoom { chart, factor } => {
            json!({"type": "zoom", "chart": *chart, "factor": *factor})
        }
        Event::Brush { chart, low, high } => {
            json!({"type": "brush", "chart": *chart, "low": *low, "high": *high})
        }
        Event::Click { chart, value } => {
            json!({"type": "click", "chart": *chart, "value": literal_to_json(value)})
        }
        Event::SetWidget { widget, value } => {
            json!({"type": "set_widget", "widget": *widget, "value": widget_value_to_json(value)})
        }
    }
}

// ---- widget values & literals ----------------------------------------------

/// Parse a widget value: `{"pick": i}`, `{"bool": b}`, `{"scalar": f}`,
/// `{"range": [lo, hi]}`, `{"literal": <literal>}`, or `{"multi": [b, ...]}`.
pub fn parse_widget_value(doc: &Value) -> Result<WidgetValue, Value> {
    if let Some(v) = doc.get("pick") {
        let i = v
            .as_i64()
            .and_then(|v| usize::try_from(v).ok())
            .ok_or_else(|| bad("`pick` must be a non-negative integer"))?;
        return Ok(WidgetValue::Pick(i));
    }
    if let Some(v) = doc.get("bool") {
        return Ok(WidgetValue::Bool(v.as_bool().ok_or_else(|| bad("`bool` must be a bool"))?));
    }
    if let Some(v) = doc.get("scalar") {
        return Ok(WidgetValue::Scalar(
            v.as_f64().ok_or_else(|| bad("`scalar` must be a number"))?,
        ));
    }
    if let Some(v) = doc.get("range") {
        let pair =
            v.as_array().filter(|a| a.len() == 2).ok_or_else(|| bad("`range` must be [lo, hi]"))?;
        let lo = pair[0].as_f64().ok_or_else(|| bad("`range` bounds must be numbers"))?;
        let hi = pair[1].as_f64().ok_or_else(|| bad("`range` bounds must be numbers"))?;
        return Ok(WidgetValue::Range(lo, hi));
    }
    if let Some(v) = doc.get("literal") {
        return Ok(WidgetValue::Literal(parse_literal(v)?));
    }
    if let Some(v) = doc.get("multi") {
        let flags = v.as_array().ok_or_else(|| bad("`multi` must be an array of bools"))?;
        let flags: Option<Vec<bool>> = flags.iter().map(Value::as_bool).collect();
        return Ok(WidgetValue::Multi(flags.ok_or_else(|| bad("`multi` must be bools"))?));
    }
    Err(bad("widget value must be one of pick/bool/scalar/range/literal/multi"))
}

/// Serialize a widget value (the inverse of [`parse_widget_value`]).
pub fn widget_value_to_json(value: &WidgetValue) -> Value {
    match value {
        WidgetValue::Pick(i) => json!({"pick": *i}),
        WidgetValue::Bool(b) => json!({"bool": *b}),
        WidgetValue::Scalar(f) => json!({"scalar": *f}),
        WidgetValue::Range(lo, hi) => json!({"range": [*lo, *hi]}),
        WidgetValue::Literal(l) => json!({"literal": literal_to_json(l)}),
        WidgetValue::Multi(flags) => json!({"multi": flags.clone()}),
    }
}

/// Parse a SQL literal: JSON null/bool/number/string map directly; dates
/// are `{"date": "YYYY-MM-DD"}`.
pub fn parse_literal(doc: &Value) -> Result<Literal, Value> {
    match doc {
        Value::Null => Ok(Literal::Null),
        Value::Bool(b) => Ok(Literal::Bool(*b)),
        Value::Number(n) => Ok(match n.as_i64() {
            Some(i) => Literal::Int(i),
            None => Literal::Float(pi2_sql::F64(n.as_f64())),
        }),
        Value::String(s) => Ok(Literal::Str(s.clone())),
        Value::Object(_) => {
            let date = doc
                .get("date")
                .and_then(Value::as_str)
                .ok_or_else(|| bad("literal object must be {\"date\": \"YYYY-MM-DD\"}"))?;
            let parsed =
                pi2_sql::Date::parse(date).ok_or_else(|| bad(format!("invalid date `{date}`")))?;
            Ok(Literal::Date(parsed))
        }
        Value::Array(_) => Err(bad("a literal cannot be an array")),
    }
}

/// Serialize a SQL literal (the inverse of [`parse_literal`]).
pub fn literal_to_json(l: &Literal) -> Value {
    match l {
        Literal::Null => Value::Null,
        Literal::Bool(b) => json!(*b),
        Literal::Int(i) => json!(*i),
        Literal::Float(f) => json!(f.0),
        Literal::Str(s) => json!(s.clone()),
        Literal::Date(d) => json!({"date": d.to_string()}),
    }
}

/// Serialize an engine value for result rows.
pub fn engine_value_to_json(v: &pi2_engine::Value) -> Value {
    match v {
        pi2_engine::Value::Null => Value::Null,
        pi2_engine::Value::Bool(b) => json!(*b),
        pi2_engine::Value::Int(i) => json!(*i),
        pi2_engine::Value::Float(f) => json!(*f),
        pi2_engine::Value::Str(s) => json!(s.clone()),
        pi2_engine::Value::Date(d) => json!({"date": d.to_string()}),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json_text() {
        let events = vec![
            Event::Pan { chart: 0, dx: 0.25, dy: -0.5 },
            Event::Zoom { chart: 2, factor: 2.0 },
            Event::Brush { chart: 1, low: 10.0, high: 20.5 },
            Event::Click { chart: 0, value: Literal::Int(3) },
            Event::Click { chart: 0, value: Literal::Str("NY".into()) },
            Event::SetWidget { widget: 4, value: WidgetValue::Pick(1) },
            Event::SetWidget { widget: 4, value: WidgetValue::Bool(false) },
            Event::SetWidget { widget: 4, value: WidgetValue::Scalar(1.5) },
            Event::SetWidget { widget: 4, value: WidgetValue::Range(1.0, 2.0) },
            Event::SetWidget { widget: 4, value: WidgetValue::Multi(vec![true, false]) },
            Event::SetWidget {
                widget: 4,
                value: WidgetValue::Literal(Literal::Date(
                    pi2_sql::Date::parse("2021-12-05").unwrap(),
                )),
            },
        ];
        for event in events {
            let text = serde_json::to_string(&event_to_json(&event)).unwrap();
            let parsed = parse_event(&serde_json::from_str(&text).unwrap()).unwrap();
            assert_eq!(parsed, event, "through {text}");
        }
    }

    #[test]
    fn requests_parse_and_ill_typed_fields_are_rejected() {
        let (req, id) =
            parse_request(r#"{"id": 7, "cmd": "open", "scenario": "toy", "max_rows": 100}"#)
                .unwrap();
        assert_eq!(id.unwrap().as_i64(), Some(7));
        match req {
            Request::Open { scenario, options } => {
                assert_eq!(scenario, "toy");
                assert_eq!(options.max_rows, Some(100));
                assert_eq!(options.strategy, Strategy::FullMerge);
            }
            other => panic!("{other:?}"),
        }
        for bad_line in [
            "not json",
            r#"{"cmd": "nope"}"#,
            r#"{"cmd": "open"}"#,
            r#"{"cmd": "gesture", "session": 1}"#,
            r#"{"cmd": "gesture", "session": 1, "events": []}"#,
            r#"{"cmd": "run_cell", "session": "one", "sql": "SELECT 1"}"#,
            r#"{"cmd": "open", "scenario": "toy", "max_rows": -3}"#,
            r#"{"cmd": "open", "scenario": "toy", "cache": "shared"}"#,
            r#"{"cmd": "open", "scenario": "toy", "cache": {"mode": "maybe"}}"#,
            r#"{"cmd": "open", "scenario": "toy", "cache": {"wait_ms": -1}}"#,
        ] {
            let err = parse_request(bad_line).unwrap_err();
            assert_eq!(err["ok"].as_bool(), Some(false), "{bad_line} -> {err}");
            assert_eq!(err["error"]["kind"].as_str(), Some("bad_request"), "{bad_line}");
        }
    }

    #[test]
    fn cache_options_parse_with_defaults() {
        // Absent block: shared mode, fleet-default wait.
        let (req, _) = parse_request(r#"{"cmd": "open", "scenario": "toy"}"#).unwrap();
        let Request::Open { options, .. } = req else { panic!() };
        assert_eq!(options.cache, CacheOptions::default());
        assert_eq!(options.cache.mode, CacheMode::Shared);

        // Fully specified block.
        let (req, _) = parse_request(
            r#"{"cmd": "open", "scenario": "toy", "cache": {"mode": "bypass", "wait_ms": 250}}"#,
        )
        .unwrap();
        let Request::Open { options, .. } = req else { panic!() };
        assert_eq!(options.cache.mode, CacheMode::Bypass);
        assert_eq!(options.cache.wait_ms, Some(250));

        // Mode defaults to shared inside a partial block.
        let (req, _) =
            parse_request(r#"{"cmd": "open", "scenario": "toy", "cache": {"wait_ms": 0}}"#)
                .unwrap();
        let Request::Open { options, .. } = req else { panic!() };
        assert_eq!(options.cache.mode, CacheMode::Shared);
        assert_eq!(options.cache.wait_ms, Some(0));
    }

    #[test]
    fn requests_round_trip_through_request_to_json() {
        let lines = [
            r#"{"cmd": "open", "scenario": "toy"}"#,
            r#"{"cmd": "open", "scenario": "sdss", "max_rows": 9, "timeout_ms": 5, "deadline_ms": 7, "max_iterations": 3, "strategy": "mcts", "cache": {"mode": "bypass", "wait_ms": 250}}"#,
            r#"{"cmd": "close", "session": 4}"#,
            r#"{"cmd": "run_cell", "session": 4, "sql": "SELECT 1"}"#,
            r#"{"cmd": "generate", "session": 4}"#,
            r#"{"cmd": "apply_binding", "session": 4, "version": 2, "widget": 1, "value": {"scalar": 2.5}}"#,
            r#"{"cmd": "gesture", "session": 4, "events": [{"type": "pan", "chart": 0, "dx": 1.0, "dy": 0.0}], "include_data": true}"#,
            r#"{"cmd": "render", "session": 4, "version": 1}"#,
            r#"{"cmd": "render_delta", "session": 4}"#,
            r#"{"cmd": "render_delta", "session": 4, "version": 1, "since": 9}"#,
            r#"{"cmd": "stats"}"#,
            r#"{"cmd": "resume", "token": "tok-abc"}"#,
            r#"{"cmd": "shutdown"}"#,
        ];
        for line in lines {
            let (request, _) = parse_request(line).unwrap();
            let rewired = parse_request_value(&request_to_json(&request)).unwrap();
            assert_eq!(rewired, request, "through {line}");
        }
    }

    #[test]
    fn req_id_parses_and_rejects_non_strings() {
        let (req, id, req_id) =
            parse_request_full(r#"{"cmd": "generate", "session": 1, "id": 3, "req_id": "c1-7"}"#)
                .unwrap();
        assert!(matches!(req, Request::Generate { session: 1 }));
        assert_eq!(id.unwrap().as_i64(), Some(3));
        assert_eq!(req_id.as_deref(), Some("c1-7"));
        let (_, _, none) = parse_request_full(r#"{"cmd": "generate", "session": 1}"#).unwrap();
        assert!(none.is_none());
        let err =
            parse_request_full(r#"{"cmd": "generate", "session": 1, "req_id": 7}"#).unwrap_err();
        assert_eq!(err["error"]["kind"].as_str(), Some("bad_request"));
    }

    #[test]
    fn mutating_and_session_classifiers() {
        let (open, _) = parse_request(r#"{"cmd": "open", "scenario": "toy"}"#).unwrap();
        assert!(open.mutating());
        assert_eq!(open.session(), None);
        let (render, _) = parse_request(r#"{"cmd": "render", "session": 5}"#).unwrap();
        assert!(!render.mutating());
        assert_eq!(render.session(), Some(5));
        let (resume, _) = parse_request(r#"{"cmd": "resume", "token": "t"}"#).unwrap();
        assert!(!resume.mutating());
    }

    #[test]
    fn render_delta_is_read_only_and_builder_shaped() {
        let (req, _) =
            parse_request(r#"{"cmd": "render_delta", "session": 3, "since": 2}"#).unwrap();
        assert!(!req.mutating(), "render_delta must never be journaled");
        assert_eq!(req.session(), Some(3));
        let Request::RenderDelta { options, .. } = req else { panic!() };
        assert_eq!(options, RenderDeltaOptions { version: None, since: Some(2) });
    }
}
