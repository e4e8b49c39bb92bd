//! The TCP transport: a nonblocking, readiness-driven reactor.
//!
//! # Why a reactor
//!
//! The first server spawned one OS thread per connection. That holds the
//! median (sessions are independent, dispatches are microseconds) but
//! wrecks the tail: hundreds of runnable threads timeslice against each
//! other, and any request that loses the scheduling lottery eats a
//! multi-millisecond penalty — the 16-client storm measured a p99 ~600×
//! its p50. It also caps fleet size at "how many threads can this box
//! stand", which is not 10 000.
//!
//! This module replaces the accept loop with a **fixed pool of worker
//! threads, each multiplexing many connections over nonblocking
//! sockets** (`TcpStream::set_nonblocking` + a readiness poll loop; std
//! only, no async runtime). Each connection owns a read buffer (bytes
//! accumulated until a `\n` completes a request line) and a write buffer
//! (response bytes not yet accepted by the kernel), so slow or bursty
//! clients never block a worker — a stalled read or short write just
//! parks the connection until the next poll pass. The number of runnable
//! threads is now `workers` (default: the CPU count, clamped to
//! [2, 8]), independent of connection count.
//!
//! # Lifecycle and fairness
//!
//! The accept thread hands each new connection to a worker round-robin
//! via a per-worker inbox. A worker's poll pass pumps every connection:
//! flush pending writes, read whatever the kernel has, frame complete
//! lines, dispatch each through [`ServerState::handle_line`] (the same
//! transport-independent path `LocalClient` uses), and queue the
//! responses. At most [`ServerConfig::max_lines_per_turn`] requests are
//! served per connection per pass, so one firehose connection cannot
//! starve its neighbors — excess bytes stay in the kernel socket buffer,
//! which is exactly TCP backpressure. Idle workers back off from a spin
//! to short sleeps, so an idle server costs ~0 CPU while a loaded one
//! polls at full speed.
//!
//! # Protocol robustness
//!
//! Malformed input never panics a worker and never desynchronizes the
//! framing: a request line longer than [`ServerConfig::max_line_bytes`]
//! is answered with a structured `too_large` error and the connection
//! enters *discard mode* until the offending line's newline arrives
//! (framing resyncs, the connection survives); invalid UTF-8 is a
//! `bad_request`; a peer that disconnects mid-line is dropped without
//! ceremony. A connection whose un-flushed responses exceed
//! [`ServerConfig::max_write_buffer`] (a reader that stopped reading
//! while still sending) is closed to bound memory.
//!
//! # Shutdown
//!
//! A `shutdown` request (or [`Server::shutdown`]) flips the drain flag:
//! the accept thread stops accepting; each worker finishes the requests
//! already buffered on its connections (they are answered
//! `shutting_down` by the dispatch layer), flushes every pending
//! response for up to a second, then closes its connections and exits.
//! [`Server::join`] returns once the accept thread and every worker have
//! exited.

use crate::state::ServerState;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Stack size of every thread that runs client SQL: the reactor workers
/// and the recovery workers that replay journaled cells. Executing and
/// generating from the largest queries `pi2_sql` accepts (see
/// [`pi2_sql::MAX_OPERATORS`]) needs up to 8 MiB in a debug build and
/// 1.5 MiB in a release build, measured with the robustness test
/// `largest_accepted_sql_runs_and_generates_on_the_reactor`. The 2 MiB
/// default would overflow, which aborts the process; this leaves a 2×
/// margin. Stack pages are committed only when touched.
pub(crate) const WORKER_STACK: usize = 16 << 20;

/// Tuning knobs for the reactor. `Default` is right for production and
/// for every test; the knobs exist so robustness tests can shrink the
/// limits to exercisable sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct ServerConfig {
    /// Worker threads multiplexing connections (`0` = auto: the CPU
    /// count clamped to `[2, 8]`).
    pub workers: usize,
    /// Longest accepted request line in bytes; longer lines get a
    /// structured `too_large` error and are discarded to the newline.
    pub max_line_bytes: usize,
    /// Un-flushed response bytes tolerated per connection before the
    /// connection is closed as a non-reading peer.
    pub max_write_buffer: usize,
    /// Requests served per connection per poll pass (fairness cap).
    pub max_lines_per_turn: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 0,
            max_line_bytes: 1 << 20,
            max_write_buffer: 8 << 20,
            max_lines_per_turn: 32,
        }
    }
}

impl ServerConfig {
    /// Defaults (alias for `Default`).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker-thread count (`0` = auto).
    pub fn workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }

    /// Set the maximum accepted request-line length in bytes.
    pub fn max_line_bytes(mut self, bytes: usize) -> Self {
        self.max_line_bytes = bytes;
        self
    }

    /// Set the per-connection un-flushed response cap in bytes.
    pub fn max_write_buffer(mut self, bytes: usize) -> Self {
        self.max_write_buffer = bytes;
        self
    }

    /// Set the per-connection fairness cap per poll pass.
    pub fn max_lines_per_turn(mut self, lines: usize) -> Self {
        self.max_lines_per_turn = lines.max(1);
        self
    }

    fn resolved_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(2)
            .clamp(2, 8)
    }
}

/// A running server bound to a TCP address.
pub struct Server {
    state: Arc<ServerState>,
    addr: SocketAddr,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind `addr` (use port 0 for an ephemeral port) and start serving
    /// `state` with the default [`ServerConfig`].
    pub fn bind(addr: &str, state: Arc<ServerState>) -> std::io::Result<Server> {
        Self::bind_with(addr, state, ServerConfig::default())
    }

    /// Bind `addr` and start the reactor with explicit tuning knobs.
    pub fn bind_with(
        addr: &str,
        state: Arc<ServerState>,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;

        let worker_count = config.resolved_workers();
        let mut inboxes = Vec::with_capacity(worker_count);
        let mut workers = Vec::with_capacity(worker_count);
        for i in 0..worker_count {
            let inbox: Arc<Mutex<Vec<TcpStream>>> = Arc::new(Mutex::new(Vec::new()));
            let worker_state = Arc::clone(&state);
            let worker_inbox = Arc::clone(&inbox);
            let handle = std::thread::Builder::new()
                .name(format!("pi2-reactor-{i}"))
                .stack_size(WORKER_STACK)
                .spawn(move || worker_loop(&worker_inbox, &worker_state, config))?;
            inboxes.push(inbox);
            workers.push(handle);
        }

        let accept_state = Arc::clone(&state);
        let accept = std::thread::Builder::new()
            .name("pi2-server-accept".into())
            .spawn(move || accept_loop(&listener, &accept_state, &inboxes))?;
        Ok(Server { state, addr: local, accept: Some(accept), workers })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared state (e.g. to pair a [`LocalClient`](crate::LocalClient)
    /// with a TCP server).
    pub fn state(&self) -> &Arc<ServerState> {
        &self.state
    }

    /// Begin graceful shutdown from the embedding process (equivalent to a
    /// `shutdown` request).
    pub fn shutdown(&self) {
        self.state.begin_drain();
    }

    /// Wait until the server has fully stopped: every worker has flushed
    /// its connections' pending responses and exited, and the accept
    /// thread is gone. Blocks until someone initiates shutdown. Once all
    /// dispatch threads are quiesced, a final clean checkpoint is written
    /// for every live session and the journal is marked cleanly closed,
    /// so a planned restart skips tail replay entirely.
    pub fn join(mut self) {
        if let Some(handle) = self.accept.take() {
            // A panic in the accept thread already aborted accepting;
            // there is nothing better to do than surface a clean stop.
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        self.state.journal_clean_close();
    }
}

/// Idle backoff shared by the accept loop and the workers: spin with
/// yields while work looked recent, then sleep in doubling steps up to
/// `cap`. Reset on any progress.
fn backoff(idle_passes: u32, cap: Duration) {
    if idle_passes < 64 {
        std::thread::yield_now();
        return;
    }
    let exp = (idle_passes - 64).min(6);
    let sleep = Duration::from_micros(8u64 << exp);
    std::thread::sleep(sleep.min(cap));
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServerState>,
    inboxes: &[Arc<Mutex<Vec<TcpStream>>>],
) {
    let mut next_worker = 0usize;
    let mut idle_passes = 0u32;
    loop {
        if state.draining() {
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                idle_passes = 0;
                // Nonblocking + NODELAY: the reactor never waits on a
                // socket, and one-line responses must not sit in Nagle.
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue; // peer already gone
                }
                state.counters().connections_accepted.fetch_add(1, Ordering::Relaxed);
                let inbox = &inboxes[next_worker % inboxes.len()];
                next_worker = next_worker.wrapping_add(1);
                inbox.lock().unwrap_or_else(std::sync::PoisonError::into_inner).push(stream);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                idle_passes = idle_passes.saturating_add(1);
                backoff(idle_passes, Duration::from_millis(1));
            }
            Err(_) => {
                idle_passes = idle_passes.saturating_add(1);
                backoff(idle_passes, Duration::from_millis(1));
            }
        }
    }
}

fn worker_loop(inbox: &Mutex<Vec<TcpStream>>, state: &Arc<ServerState>, config: ServerConfig) {
    let mut conns: Vec<Conn> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];
    let mut idle_passes = 0u32;
    loop {
        // Adopt connections the accept thread handed us.
        {
            let mut pending = inbox.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            for stream in pending.drain(..) {
                conns.push(Conn::new(stream));
            }
        }

        let mut progress = false;
        conns.retain_mut(|conn| match conn.pump(state, &config, &mut scratch) {
            Pump::Progress => {
                progress = true;
                true
            }
            Pump::Idle => true,
            Pump::Closed => {
                state.counters().connections_closed.fetch_add(1, Ordering::Relaxed);
                progress = true;
                false
            }
        });

        if state.draining() {
            drain_connections(&mut conns, state, &config, &mut scratch);
            return;
        }

        if progress {
            idle_passes = 0;
        } else {
            idle_passes = idle_passes.saturating_add(1);
            backoff(idle_passes, Duration::from_micros(512));
        }
    }
}

/// Final pass under drain: requests already buffered get their
/// (`shutting_down`) responses, pending responses are flushed
/// best-effort for up to a second, then every connection is closed.
fn drain_connections(
    conns: &mut Vec<Conn>,
    state: &Arc<ServerState>,
    config: &ServerConfig,
    scratch: &mut [u8],
) {
    let deadline = Instant::now() + Duration::from_secs(1);
    while !conns.is_empty() && Instant::now() < deadline {
        let mut all_flushed = true;
        conns.retain_mut(|conn| match conn.pump(state, config, scratch) {
            Pump::Closed => {
                state.counters().connections_closed.fetch_add(1, Ordering::Relaxed);
                false
            }
            _ => {
                if conn.has_pending_writes() {
                    all_flushed = false;
                }
                true
            }
        });
        if all_flushed {
            break;
        }
        std::thread::yield_now();
    }
    for _ in conns.drain(..) {
        state.counters().connections_closed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Outcome of one [`Conn::pump`] pass.
enum Pump {
    /// Bytes moved or requests were served this pass.
    Progress,
    /// Nothing to do; poll again later.
    Idle,
    /// The connection is finished (peer closed, fatal error, or
    /// write-buffer cap exceeded) and must be dropped.
    Closed,
}

/// One multiplexed connection: the socket plus its framing state.
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet framed into complete lines.
    read_buf: Vec<u8>,
    /// Response bytes the kernel has not yet accepted.
    write_buf: Vec<u8>,
    /// How much of `write_buf` is already written.
    write_pos: usize,
    /// Skipping an oversized line until its terminating newline.
    discarding: bool,
    /// The peer closed its sending side; finish flushing then close.
    peer_eof: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Self {
        Conn {
            stream,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            write_pos: 0,
            discarding: false,
            peer_eof: false,
        }
    }

    fn has_pending_writes(&self) -> bool {
        self.write_pos < self.write_buf.len()
    }

    /// One readiness pass: flush, read, frame, dispatch, flush.
    fn pump(&mut self, state: &ServerState, config: &ServerConfig, scratch: &mut [u8]) -> Pump {
        let mut progress = false;
        if !self.flush(&mut progress) {
            return Pump::Closed;
        }

        let mut served = 0usize;
        while served < config.max_lines_per_turn && !self.peer_eof {
            match self.stream.read(scratch) {
                Ok(0) => self.peer_eof = true,
                Ok(n) => {
                    progress = true;
                    served += self.ingest(&scratch[..n], state, config);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return Pump::Closed,
            }
        }

        if !self.flush(&mut progress) {
            return Pump::Closed;
        }
        // Bound memory against a peer that sends but never reads.
        if self.write_buf.len() - self.write_pos > config.max_write_buffer {
            return Pump::Closed;
        }
        if self.peer_eof && !self.has_pending_writes() {
            return Pump::Closed;
        }
        if progress {
            Pump::Progress
        } else {
            Pump::Idle
        }
    }

    /// Append received bytes, frame complete lines, dispatch each, and
    /// queue the responses. Returns how many requests were served.
    fn ingest(&mut self, bytes: &[u8], state: &ServerState, config: &ServerConfig) -> usize {
        // Resume the newline scan where it left off: everything before
        // the old buffer end was already scanned.
        let mut scan_from = self.read_buf.len();
        self.read_buf.extend_from_slice(bytes);
        let mut served = 0usize;
        while let Some(rel) = self.read_buf[scan_from..].iter().position(|&b| b == b'\n') {
            let line_end = scan_from + rel;
            {
                let line = &self.read_buf[..line_end];
                if self.discarding {
                    // The tail of an oversized line: drop it; framing is
                    // back in sync at the newline.
                    self.discarding = false;
                } else {
                    served += 1;
                    let response = match std::str::from_utf8(line) {
                        Ok(text) if text.trim().is_empty() => None,
                        Ok(text) => Some(state.handle_line(text.trim())),
                        Err(_) => Some(state.handle_line_invalid_utf8()),
                    };
                    if let Some(response) = response {
                        self.write_buf.extend_from_slice(response.as_bytes());
                        self.write_buf.push(b'\n');
                    }
                }
            }
            self.read_buf.drain(..=line_end);
            scan_from = 0;
        }
        // A partial line beyond the cap: answer now, discard to newline.
        if !self.discarding && self.read_buf.len() > config.max_line_bytes {
            let response = state.handle_line_too_long(config.max_line_bytes);
            self.write_buf.extend_from_slice(response.as_bytes());
            self.write_buf.push(b'\n');
            self.read_buf.clear();
            self.discarding = true;
        } else if self.discarding {
            self.read_buf.clear();
        }
        served
    }

    /// Push pending response bytes; returns `false` on a fatal error.
    fn flush(&mut self, progress: &mut bool) -> bool {
        while self.has_pending_writes() {
            match self.stream.write(&self.write_buf[self.write_pos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    self.write_pos += n;
                    *progress = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if !self.has_pending_writes() {
            self.write_buf.clear();
            self.write_pos = 0;
        }
        true
    }
}
