//! Clients: in-process and TCP.
//!
//! Both speak the identical line protocol. [`LocalClient`] serializes the
//! request to its wire form and parses the wire response, so in-process
//! use exercises the exact bytes a TCP client would — protocol tests and
//! benchmarks run against it without sockets in the way.
//!
//! [`TcpClient::send`] layers the resilience protocol on top of the raw
//! transport: mutating requests are stamped with a client-assigned
//! `req_id`, and a dropped connection is survived by reconnecting,
//! replaying `resume` with the session token learned from `open`, and
//! resending the in-flight request under its original `req_id` after a
//! jittered exponential backoff — the server's dedupe window turns the
//! at-least-once resend into an exactly-once visible effect. Error
//! responses are returned as they are: none is transient.

use crate::state::ServerState;
use serde_json::{json, Value};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

/// An in-process client: requests go straight to a shared
/// [`ServerState`], through the same line encode/decode as TCP.
#[derive(Clone)]
pub struct LocalClient {
    state: Arc<ServerState>,
}

impl LocalClient {
    /// A client talking to `state` (share the `Arc` to get many
    /// concurrent clients of one server).
    pub fn new(state: Arc<ServerState>) -> Self {
        Self { state }
    }

    /// A client over a fresh private server state.
    pub fn standalone() -> Self {
        Self::new(Arc::new(ServerState::new()))
    }

    /// The underlying server state.
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Send one raw request line; returns the raw response line.
    pub fn request_line(&self, line: &str) -> String {
        self.state.handle_line(line)
    }

    /// Send a request document; returns the parsed response.
    pub fn request(&self, request: Value) -> Value {
        let line =
            serde_json::to_string(&request).unwrap_or_else(|_| "{\"cmd\":\"invalid\"}".to_string());
        serde_json::from_str(&self.request_line(&line)).unwrap_or(Value::Null)
    }
}

/// Reconnect policy for [`TcpClient::send`]: how often a request is sent
/// again over a fresh connection after the previous one dropped.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total sends per request, including the first (minimum 1).
    pub max_attempts: u32,
    /// Delay before the first resend; doubles per attempt.
    pub base_delay: Duration,
    /// Ceiling on the per-resend delay (before jitter).
    pub max_delay: Duration,
    /// Reconnect and `resume` after a dropped connection. Off, an IO
    /// error is returned to the caller unchanged.
    pub reconnect: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 5,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            reconnect: true,
        }
    }
}

impl RetryPolicy {
    /// A policy that never reconnects (raw fail-fast).
    pub fn none() -> Self {
        Self { max_attempts: 1, reconnect: false, ..Self::default() }
    }

    /// The sleep before resend number `attempt` (0-based): exponential in
    /// `attempt`, capped at `max_delay`, then jittered into the upper
    /// half of the window so synchronized clients fan out. `seed` is the
    /// caller's jitter state, advanced per call.
    pub fn backoff(&self, attempt: u32, seed: &mut u64) -> Duration {
        let capped = self.base_delay.saturating_mul(1u32 << attempt.min(16)).min(self.max_delay);
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let frac = ((*seed >> 33) as f64) / (1u64 << 31) as f64;
        capped.mul_f64(0.5 + 0.5 * frac)
    }
}

/// A blocking TCP client (used by the smoke test and the CI gate).
///
/// [`request`](Self::request) is the raw one-shot path; [`send`](Self::send)
/// adds reconnect, resume and resend per the configured [`RetryPolicy`].
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    addr: SocketAddr,
    policy: RetryPolicy,
    token: Option<String>,
    session: Option<u64>,
    req_seq: u64,
    jitter: u64,
}

impl TcpClient {
    /// Connect to a server address.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "address resolved to nothing")
        })?;
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Self {
            reader,
            writer: stream,
            addr,
            policy: RetryPolicy::default(),
            token: None,
            session: None,
            req_seq: 0,
            jitter: (u64::from(std::process::id()) << 16) ^ u64::from(addr.port()) ^ 0x9E37,
        })
    }

    /// Replace the retry policy (builder style).
    pub fn with_policy(mut self, policy: RetryPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The session token learned from the last successful `open` or
    /// `resume` (what a reconnect will present).
    pub fn session_token(&self) -> Option<&str> {
        self.token.as_deref()
    }

    /// The session id learned from the last successful response.
    pub fn session(&self) -> Option<u64> {
        self.session
    }

    /// Send one request document and read the one-line response. Raw:
    /// no retry, no reconnect — an IO error fails the call.
    pub fn request(&mut self, request: Value) -> std::io::Result<Value> {
        let line = serde_json::to_string(&request)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidInput, e.to_string()))?;
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let mut response = String::new();
        self.reader.read_line(&mut response)?;
        if response.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        let parsed: Value = serde_json::from_str(response.trim())
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
        self.observe(&parsed);
        Ok(parsed)
    }

    /// Send with resilience: stamps a `req_id` on mutating requests and,
    /// when the connection drops, reconnects, resumes the session by
    /// token, and resends the same `req_id` so the server's dedupe window
    /// suppresses double application. Any response, error or not, is
    /// returned as it is.
    pub fn send(&mut self, mut request: Value) -> std::io::Result<Value> {
        if mutating_cmd(&request) && request.get("req_id").is_none() {
            self.req_seq += 1;
            request["req_id"] = json!(format!(
                "c{:x}-{:x}-{}",
                std::process::id(),
                self.jitter & 0xFFFF,
                self.req_seq
            ));
        }
        let attempts = self.policy.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            match self.request(request.clone()) {
                Err(_) if self.policy.reconnect && attempt + 1 < attempts => {
                    // A failed re-dial surfaces as the next send's error.
                    let _ = self.reconnect_and_resume();
                    std::thread::sleep(self.policy.backoff(attempt, &mut self.jitter));
                    attempt += 1;
                }
                result => return result,
            }
        }
    }

    /// Re-dial the server and re-attach to the session (if one was
    /// opened on this client) via `resume` + token.
    fn reconnect_and_resume(&mut self) -> std::io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = stream;
        if let Some(token) = self.token.clone() {
            let response = self.request(json!({"cmd": "resume", "token": token}))?;
            if response["ok"].as_bool() != Some(true) {
                let message =
                    response["error"]["message"].as_str().unwrap_or("unknown error").to_string();
                return Err(std::io::Error::other(format!("resume failed: {message}")));
            }
        }
        Ok(())
    }

    fn observe(&mut self, response: &Value) {
        if response["ok"].as_bool() != Some(true) {
            return;
        }
        if let Some(token) = response["session_token"].as_str() {
            self.token = Some(token.to_string());
        }
        if let Some(id) = response["session"].as_u64() {
            self.session = Some(id);
        }
    }
}

/// Whether a wire request mutates session state (and so deserves a
/// client-assigned `req_id` for exactly-once retries). Mirrors
/// [`Request::mutating`](crate::protocol::Request::mutating) without
/// needing a full parse.
fn mutating_cmd(request: &Value) -> bool {
    matches!(
        request["cmd"].as_str().unwrap_or(""),
        "open" | "close" | "run_cell" | "generate" | "gesture" | "apply_binding"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn backoff_is_bounded_and_jittered() {
        let policy = RetryPolicy::default();
        let mut seed = 42u64;
        let mut prev = Duration::ZERO;
        for attempt in 0..8 {
            let d = policy.backoff(attempt, &mut seed);
            // Jitter keeps each delay in [cap/2, cap]; the cap never
            // exceeds max_delay.
            assert!(d <= policy.max_delay, "attempt {attempt}: {d:?}");
            assert!(d >= policy.base_delay / 2, "attempt {attempt}: {d:?}");
            prev = prev.max(d);
        }
        assert!(prev > policy.base_delay, "delays must grow past the base");
    }

    /// A listener backed by a real `ServerState` that *processes* one
    /// designated request but drops the connection before replying —
    /// the lost-ack window where naive resend double-applies.
    fn flaky_listener(
        state: Arc<ServerState>,
        drop_reply_for_line: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let mut served = 0usize;
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                let mut line = String::new();
                loop {
                    line.clear();
                    if reader.read_line(&mut line).unwrap_or(0) == 0 {
                        break;
                    }
                    let response = state.handle_line(line.trim());
                    served += 1;
                    if served == drop_reply_for_line {
                        break; // applied server-side, ack lost
                    }
                    writeln!(writer, "{response}").unwrap();
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn reconnect_resumes_and_dedupes_the_lost_ack() {
        let state = Arc::new(ServerState::new());
        // Line 1 = open (acked), line 2 = run_cell (applied, ack lost).
        let (addr, server) = flaky_listener(Arc::clone(&state), 2);
        let policy = RetryPolicy {
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(4),
            ..RetryPolicy::default()
        };
        let mut client = TcpClient::connect(addr).unwrap().with_policy(policy);
        let opened = client.send(json!({"cmd": "open", "scenario": "toy"})).unwrap();
        assert_eq!(opened["ok"].as_bool(), Some(true));
        let session = opened["session"].as_u64().unwrap();
        assert!(client.session_token().is_some(), "open must yield a resumable token");
        let ran = client
            .send(json!({
                "cmd": "run_cell", "session": session,
                "sql": "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
            }))
            .unwrap();
        // The server applied the cell once, lost the ack, and served the
        // retry from its dedupe window after resume.
        assert_eq!(ran["ok"].as_bool(), Some(true), "{ran}");
        assert_eq!(ran["deduped"].as_bool(), Some(true), "{ran}");
        let stats = state.stats_json();
        assert_eq!(stats["active_sessions"].as_u64(), Some(1), "cell applied exactly once");
        drop(client);
        server.join().unwrap();
    }
}
