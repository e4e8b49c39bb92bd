//! The write-ahead session journal and its checkpoint store.
//!
//! # Format
//!
//! One append-only file, `journal.log`, shared by every session in the
//! process. Each frame is `[u32 len][u32 crc32][payload]` (little-endian
//! header): `len` is the payload byte count, `crc32` its IEEE checksum,
//! and the payload a JSON object `{"lsn", "session", "token"?, "req"}`
//! where `req` is the accepted request in its wire form (gestures are
//! journaled *after* coalescing). LSNs are monotone per file, so replay
//! order is total even though sessions interleave.
//!
//! Alongside the log live per-session checkpoints, `ckpt-<id>.json`:
//! a full snapshot (scenario, open options, token, cell SQL, generate
//! count, coalesced applied-event history, recent `req_id`s, and the
//! `last_lsn` the snapshot covers). Checkpoints are written to a tmp
//! file, fsynced, then renamed, so a crash never publishes a torn one.
//! A `clean` marker file records a graceful shutdown: recovery after a
//! planned restart loads checkpoints only and skips tail replay.
//!
//! # Corruption policy
//!
//! Recovery never panics on a bad journal. A frame whose checksum
//! mismatches but whose length header is intact is *skipped* (the scan
//! continues at the next frame); a torn tail — header or payload cut
//! short by a crash mid-write — ends the scan. Both increment structured
//! counters ([`ScanReport`]) that surface in `stats`. `.tmp` checkpoint
//! leftovers from a mid-crash checkpoint are ignored.

use serde_json::{json, Value};
use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Largest payload a frame may carry; a length header beyond this is
/// treated as corruption (the scan cannot trust the framing past it).
pub const MAX_FRAME_BYTES: u32 = 16 << 20;

const JOURNAL_FILE: &str = "journal.log";
const CLEAN_MARKER: &str = "clean";

/// Tuning knobs for the durability layer.
#[derive(Debug, Clone)]
pub struct JournalConfig {
    /// Directory holding `journal.log`, checkpoints, and the clean
    /// marker. Created if absent.
    pub dir: PathBuf,
    /// Checkpoint a session after this many journaled mutations since
    /// its last checkpoint.
    pub checkpoint_every: u64,
    /// Rewrite the journal, dropping frames already covered by
    /// checkpoints (or belonging to closed sessions), once it exceeds
    /// this many bytes.
    pub compact_bytes: u64,
    /// fsync the journal after every append. Off by default: the
    /// dedupe/resume protocol tolerates a lost tail (the client retries
    /// the unacknowledged request), so throughput need not pay an fsync
    /// per gesture.
    pub fsync_every_append: bool,
}

impl JournalConfig {
    /// Defaults for `dir`: checkpoint every 8 mutations, compact at 8 MiB.
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self {
            dir: dir.into(),
            checkpoint_every: 8,
            compact_bytes: 8 << 20,
            fsync_every_append: false,
        }
    }

    /// Set the per-session checkpoint cadence (minimum 1).
    pub fn checkpoint_every(mut self, every: u64) -> Self {
        self.checkpoint_every = every.max(1);
        self
    }

    /// Set the journal-size compaction threshold in bytes.
    pub fn compact_bytes(mut self, bytes: u64) -> Self {
        self.compact_bytes = bytes;
        self
    }

    /// fsync the journal after every append.
    pub fn fsync_every_append(mut self, yes: bool) -> Self {
        self.fsync_every_append = yes;
        self
    }
}

/// One decoded journal frame.
#[derive(Debug, Clone)]
pub struct Frame {
    /// Monotone log sequence number (per journal file).
    pub lsn: u64,
    /// The session the request addressed (or opened).
    pub session: u64,
    /// Session token, present on `open` frames.
    pub token: Option<String>,
    /// The accepted request in wire form (including any `req_id`).
    pub req: Value,
}

/// What a journal scan found, beyond the frames themselves.
#[derive(Debug, Default)]
pub struct ScanReport {
    /// Frames dropped for checksum mismatch or unparseable payload.
    pub frames_skipped: u64,
    /// Human-readable corruption/irregularity notes.
    pub warnings: Vec<String>,
    /// The scan ended at a torn tail (crash mid-append).
    pub truncated_tail: bool,
    /// Highest LSN observed in any intact frame.
    pub max_lsn: u64,
    /// Bytes of journal scanned.
    pub bytes: u64,
}

fn io_err(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

// ---- CRC32 (IEEE), table-driven; no external dependency ---------------------

const fn crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 { (crc >> 1) ^ 0xEDB8_8320 } else { crc >> 1 };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = crc32_table();

/// IEEE CRC32 of `bytes` (the frame checksum).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC32_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---- fault shims -------------------------------------------------------------

#[cfg(feature = "faults")]
fn fault_torn_write() -> bool {
    pi2_faults::journal_torn_write()
}
#[cfg(not(feature = "faults"))]
fn fault_torn_write() -> bool {
    false
}

#[cfg(feature = "faults")]
fn fault_checkpoint_crash() -> bool {
    pi2_faults::checkpoint_crash()
}
#[cfg(not(feature = "faults"))]
fn fault_checkpoint_crash() -> bool {
    false
}

#[cfg(feature = "faults")]
fn fault_fsync_error() -> bool {
    pi2_faults::recovery_fsync_error()
}
#[cfg(not(feature = "faults"))]
fn fault_fsync_error() -> bool {
    false
}

/// fsync `file`, honoring the injected recovery-fsync fault.
fn sync_file(file: &File) -> std::io::Result<()> {
    if fault_fsync_error() {
        return Err(io_err("injected fsync error"));
    }
    file.sync_data()
}

// ---- the journal -------------------------------------------------------------

struct Inner {
    file: File,
    bytes: u64,
    next_lsn: u64,
}

/// The process-wide append handle: serializes appends, checkpoints, and
/// compaction over one journal directory.
pub struct Journal {
    config: JournalConfig,
    inner: Mutex<Inner>,
}

fn lock_inner(journal: &Journal) -> std::sync::MutexGuard<'_, Inner> {
    journal.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl Journal {
    /// Open (creating if needed) the journal in `config.dir` for append.
    /// `next_lsn` continues past the highest LSN already in the file.
    pub fn open(config: JournalConfig) -> std::io::Result<Self> {
        std::fs::create_dir_all(&config.dir)?;
        let path = config.dir.join(JOURNAL_FILE);
        let mut reader = FrameReader::open(&path)?;
        while reader.next_frame()?.is_some() {}
        let max_lsn = reader.report.max_lsn;
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        let bytes = file.metadata()?.len();
        Ok(Self { config, inner: Mutex::new(Inner { file, bytes, next_lsn: max_lsn + 1 }) })
    }

    /// The configuration this journal was opened with.
    pub fn config(&self) -> &JournalConfig {
        &self.config
    }

    /// Current journal size in bytes.
    pub fn bytes(&self) -> u64 {
        lock_inner(self).bytes
    }

    /// The highest LSN handed out so far (0 if none).
    pub fn last_lsn(&self) -> u64 {
        lock_inner(self).next_lsn.saturating_sub(1)
    }

    /// Append one frame for `session` and return its LSN. With the
    /// torn-write fault armed, only a prefix of the frame reaches the
    /// file (and no fsync happens) while the append still reports
    /// success — exactly the window a crash mid-write leaves.
    pub fn append(&self, session: u64, token: Option<&str>, req: &Value) -> std::io::Result<u64> {
        let mut inner = lock_inner(self);
        let lsn = inner.next_lsn;
        inner.next_lsn += 1;
        let body = frame_body(lsn, session, token, req).map_err(io_err)?;
        let mut frame = Vec::with_capacity(8 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        if fault_torn_write() {
            let torn = 8 + body.len() / 2;
            inner.file.write_all(&frame[..torn])?;
            inner.file.flush()?;
            inner.bytes += torn as u64;
            return Ok(lsn);
        }
        inner.file.write_all(&frame)?;
        inner.bytes += frame.len() as u64;
        if self.config.fsync_every_append {
            sync_file(&inner.file)?;
        }
        Ok(lsn)
    }

    /// fsync the journal file (used before dropping a session's
    /// checkpoint: the tombstone frame must be durable first).
    pub fn sync(&self) -> std::io::Result<()> {
        sync_file(&lock_inner(self).file)
    }

    /// Raise `next_lsn` to at least `min_next`. Recovery calls this with
    /// one past the highest checkpoint-covered LSN: after a clean
    /// shutdown (or a post-recovery truncate) the journal file is empty,
    /// so a plain reopen would restart LSNs *below* the checkpoints'
    /// `last_lsn` and the next recovery would wrongly treat fresh frames
    /// as already covered.
    pub fn ensure_lsn_at_least(&self, min_next: u64) {
        let mut inner = lock_inner(self);
        inner.next_lsn = inner.next_lsn.max(min_next);
    }

    /// Truncate the journal to empty (every live session must have a
    /// fresh checkpoint first). LSNs keep counting up.
    pub fn truncate(&self) -> std::io::Result<()> {
        let mut inner = lock_inner(self);
        inner.file.set_len(0)?;
        inner.file.seek(SeekFrom::Start(0))?;
        inner.bytes = 0;
        sync_file(&inner.file)
    }

    /// Rewrite the journal keeping only frames for which `keep(session,
    /// lsn)` is true (frames made redundant by checkpoints, and frames of
    /// closed sessions, are dropped). Unreadable frames are dropped too.
    /// Frames stream through one at a time; a kept frame is copied
    /// verbatim (header, checksum and payload bytes).
    pub fn compact(&self, keep: &dyn Fn(u64, u64) -> bool) -> std::io::Result<()> {
        let mut inner = lock_inner(self);
        let path = self.config.dir.join(JOURNAL_FILE);
        let mut reader = FrameReader::open(&path)?;
        let tmp = self.config.dir.join("journal.log.tmp");
        let mut out = BufWriter::new(File::create(&tmp)?);
        let mut bytes = 0u64;
        while let Some(frame) = reader.next_frame()? {
            if keep(frame.session, frame.lsn) {
                out.write_all(&frame.header)?;
                out.write_all(&frame.body)?;
                bytes += (frame.header.len() + frame.body.len()) as u64;
            }
        }
        let out = out.into_inner().map_err(std::io::IntoInnerError::into_error)?;
        sync_file(&out)?;
        drop(out);
        std::fs::rename(&tmp, &path)?;
        // Reopen the append handle on the compacted file.
        inner.file = OpenOptions::new().append(true).open(&path)?;
        inner.bytes = bytes;
        Ok(())
    }

    /// Whether the journal has outgrown its compaction threshold.
    pub fn wants_compaction(&self) -> bool {
        self.bytes() > self.config.compact_bytes
    }

    fn checkpoint_path(&self, session: u64) -> PathBuf {
        self.config.dir.join(format!("ckpt-{session}.json"))
    }

    /// Atomically publish a session checkpoint (tmp + fsync + rename).
    /// With the checkpoint-crash fault armed, a partial tmp file is left
    /// behind and nothing is published — recovery must ignore it.
    pub fn write_checkpoint(&self, session: u64, doc: &Value) -> std::io::Result<()> {
        let body = serde_json::to_vec(doc).map_err(io_err)?;
        let path = self.checkpoint_path(session);
        let tmp = self.config.dir.join(format!("ckpt-{session}.json.tmp"));
        let mut out = File::create(&tmp)?;
        if fault_checkpoint_crash() {
            out.write_all(&body[..body.len() / 2])?;
            out.flush()?;
            return Ok(());
        }
        out.write_all(&body)?;
        sync_file(&out)?;
        drop(out);
        std::fs::rename(&tmp, &path)
    }

    /// Remove a closed session's checkpoint (after its tombstone frame
    /// is durable). Missing files are fine.
    pub fn remove_checkpoint(&self, session: u64) -> std::io::Result<()> {
        match std::fs::remove_file(self.checkpoint_path(session)) {
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
            _ => Ok(()),
        }
    }

    /// Write the clean-shutdown marker: the next recovery may trust the
    /// checkpoints alone and skip tail replay.
    pub fn mark_clean(&self) -> std::io::Result<()> {
        let path = self.config.dir.join(CLEAN_MARKER);
        let mut out = File::create(path)?;
        out.write_all(b"clean\n")?;
        sync_file(&out)
    }
}

/// Consume the clean-shutdown marker in `dir`, returning whether it was
/// present. Recovery calls this first: a recovered process that crashes
/// later must not be mistaken for a clean shutdown.
pub fn take_clean_marker(dir: &Path) -> bool {
    let path = dir.join(CLEAN_MARKER);
    std::fs::remove_file(path).is_ok()
}

/// Scan every journal frame in `dir`, skipping corrupt frames where the
/// framing allows and stopping at a torn tail. Never errors on content —
/// only on inability to read the directory/file at all (a missing
/// journal is an empty one).
pub fn scan(dir: &Path) -> std::io::Result<(Vec<Frame>, ScanReport)> {
    scan_frames(&dir.join(JOURNAL_FILE))
}

fn scan_frames(path: &Path) -> std::io::Result<(Vec<Frame>, ScanReport)> {
    let mut reader = FrameReader::open(path)?;
    let mut frames = Vec::new();
    while let Some(frame) = reader.next_frame()? {
        frames.push(Frame {
            lsn: frame.lsn,
            session: frame.session,
            token: frame.doc.get("token").and_then(Value::as_str).map(str::to_string),
            req: frame.doc.get("req").cloned().unwrap_or(Value::Null),
        });
    }
    Ok((frames, reader.report))
}

/// A frame payload, `{"lsn", "session", "token"?, "req"}`. The request
/// is printed in place after the head rather than copied into one tree.
fn frame_body(
    lsn: u64,
    session: u64,
    token: Option<&str>,
    req: &Value,
) -> Result<Vec<u8>, serde_json::Error> {
    let mut head = serde_json::Map::new();
    head.insert("lsn".into(), json!(lsn));
    head.insert("session".into(), json!(session));
    if let Some(token) = token {
        head.insert("token".into(), json!(token));
    }
    let mut body = serde_json::to_vec(&Value::Object(head))?;
    body.pop(); // the head's closing brace: `req` goes last
    body.extend_from_slice(b",\"req\":");
    body.extend(serde_json::to_vec(req)?);
    body.push(b'}');
    Ok(body)
}

/// An intact frame: its raw bytes and its parsed payload.
struct RawFrame {
    header: [u8; 8],
    body: Vec<u8>,
    doc: Value,
    lsn: u64,
    session: u64,
}

/// Reads journal frames one at a time, applying the corruption policy
/// (see the module docs) and recording what it skipped in `report`.
struct FrameReader {
    input: Option<BufReader<File>>,
    pos: u64,
    report: ScanReport,
}

impl FrameReader {
    /// A reader over `path`; a missing journal reads as an empty one.
    fn open(path: &Path) -> std::io::Result<Self> {
        let mut report = ScanReport::default();
        let input = match File::open(path) {
            Ok(file) => {
                report.bytes = file.metadata()?.len();
                Some(BufReader::new(file))
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e),
        };
        Ok(Self { input, pos: 0, report })
    }

    /// Mark the scan as ended at a torn or unframeable tail.
    fn torn(&mut self, warning: String) -> std::io::Result<Option<RawFrame>> {
        self.report.truncated_tail = true;
        self.report.warnings.push(warning);
        self.input = None;
        Ok(None)
    }

    /// The next intact frame, or `None` at the end of the journal or at a
    /// torn tail.
    fn next_frame(&mut self) -> std::io::Result<Option<RawFrame>> {
        loop {
            let Some(input) = self.input.as_mut() else { return Ok(None) };
            let pos = self.pos;
            if pos >= self.report.bytes {
                return Ok(None);
            }
            let mut header = [0u8; 8];
            if self.report.bytes - pos < 8 {
                return self.torn(format!("torn frame header at byte {pos}"));
            }
            input.read_exact(&mut header)?;
            let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]);
            let crc = u32::from_le_bytes([header[4], header[5], header[6], header[7]]);
            if len > MAX_FRAME_BYTES {
                // The length header itself is garbage: framing is lost.
                return self.torn(format!("implausible frame length {len} at byte {pos}"));
            }
            let end = pos + 8 + u64::from(len);
            if end > self.report.bytes {
                return self.torn(format!("torn frame payload at byte {pos}"));
            }
            let mut body = vec![0u8; len as usize];
            input.read_exact(&mut body)?;
            self.pos = end;
            let report = &mut self.report;
            if crc32(&body) != crc {
                report.frames_skipped += 1;
                report.warnings.push(format!("checksum mismatch in frame ending at byte {end}"));
                continue;
            }
            let doc: Value = match serde_json::from_slice(&body) {
                Ok(v) => v,
                Err(e) => {
                    report.frames_skipped += 1;
                    report.warnings.push(format!("unparseable frame payload: {e}"));
                    continue;
                }
            };
            let (Some(lsn), Some(session)) = (
                doc.get("lsn").and_then(Value::as_u64),
                doc.get("session").and_then(Value::as_u64),
            ) else {
                report.frames_skipped += 1;
                report.warnings.push("frame payload missing lsn/session".to_string());
                continue;
            };
            report.max_lsn = report.max_lsn.max(lsn);
            return Ok(Some(RawFrame { header, body, doc, lsn, session }));
        }
    }
}

/// Load every published checkpoint in `dir` (ignoring `.tmp` leftovers),
/// recording unreadable ones as warnings rather than failing.
pub fn load_checkpoints(dir: &Path, report: &mut ScanReport) -> Vec<(u64, Value)> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return out,
    };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(id) = name.strip_prefix("ckpt-").and_then(|n| n.strip_suffix(".json")) else {
            continue;
        };
        let Ok(session) = id.parse::<u64>() else { continue };
        match std::fs::read(entry.path())
            .map_err(|e| e.to_string())
            .and_then(|b| serde_json::from_slice(&b).map_err(|e| e.to_string()))
        {
            Ok(doc) => out.push((session, doc)),
            Err(e) => {
                report.warnings.push(format!("unreadable checkpoint for session {session}: {e}"));
            }
        }
    }
    out.sort_by_key(|(id, _)| *id);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("pi2-journal-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_and_lsns_are_monotone() {
        let dir = temp_dir("roundtrip");
        let journal = Journal::open(JournalConfig::new(&dir)).unwrap();
        let a = journal.append(1, Some("tok-a"), &json!({"cmd": "open"})).unwrap();
        let b = journal.append(1, None, &json!({"cmd": "run_cell", "sql": "SELECT 1"})).unwrap();
        let c = journal.append(2, None, &json!({"cmd": "close"})).unwrap();
        assert!(a < b && b < c);
        let (frames, report) = scan(&dir).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(report.frames_skipped, 0);
        assert!(!report.truncated_tail);
        assert_eq!(frames[0].token.as_deref(), Some("tok-a"));
        assert_eq!(frames[1].req["sql"], "SELECT 1");
        assert_eq!(frames[2].session, 2);
        // The payload is the one-object encoding, `req` last.
        let bytes = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let want = json!({"lsn": a, "session": 1, "token": "tok-a", "req": {"cmd": "open"}});
        assert_eq!(&raw_frames(&bytes)[0][8..], serde_json::to_vec(&want).unwrap().as_slice());
        // Reopening continues the LSN sequence.
        drop(journal);
        let journal = Journal::open(JournalConfig::new(&dir)).unwrap();
        let d = journal.append(3, None, &json!({"cmd": "close"})).unwrap();
        assert!(d > c);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bit_flip_skips_one_frame_and_keeps_the_rest() {
        let dir = temp_dir("bitflip");
        let journal = Journal::open(JournalConfig::new(&dir)).unwrap();
        journal.append(1, None, &json!({"cmd": "a"})).unwrap();
        journal.append(1, None, &json!({"cmd": "b"})).unwrap();
        journal.append(1, None, &json!({"cmd": "c"})).unwrap();
        drop(journal);
        let path = dir.join(JOURNAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the middle frame's payload.
        let frame_len = 8 + serde_json::to_vec(&json!({
            "lsn": 1u64, "session": 1u64, "req": {"cmd": "a"}
        }))
        .unwrap()
        .len();
        bytes[frame_len + 12] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (frames, report) = scan(&dir).unwrap();
        assert_eq!(frames.len(), 2, "{report:?}");
        assert_eq!(report.frames_skipped, 1);
        assert!(!report.truncated_tail);
        assert_eq!(frames[0].req["cmd"], "a");
        assert_eq!(frames[1].req["cmd"], "c");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_stops_the_scan_without_losing_the_prefix() {
        let dir = temp_dir("torn");
        let journal = Journal::open(JournalConfig::new(&dir)).unwrap();
        journal.append(1, None, &json!({"cmd": "a"})).unwrap();
        journal.append(1, None, &json!({"cmd": "b"})).unwrap();
        drop(journal);
        let path = dir.join(JOURNAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        let (frames, report) = scan(&dir).unwrap();
        assert_eq!(frames.len(), 1);
        assert!(report.truncated_tail);
        assert_eq!(frames[0].req["cmd"], "a");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoints_publish_atomically_and_tmp_files_are_ignored() {
        let dir = temp_dir("ckpt");
        let journal = Journal::open(JournalConfig::new(&dir)).unwrap();
        journal.write_checkpoint(7, &json!({"session": 7, "cells": []})).unwrap();
        std::fs::write(dir.join("ckpt-9.json.tmp"), b"{\"partial").unwrap();
        let mut report = ScanReport::default();
        let ckpts = load_checkpoints(&dir, &mut report);
        assert_eq!(ckpts.len(), 1);
        assert_eq!(ckpts[0].0, 7);
        assert!(report.warnings.is_empty());
        journal.remove_checkpoint(7).unwrap();
        journal.remove_checkpoint(7).unwrap(); // idempotent
        assert!(load_checkpoints(&dir, &mut report).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_and_clean_marker() {
        let dir = temp_dir("clean");
        let journal = Journal::open(JournalConfig::new(&dir)).unwrap();
        journal.append(1, None, &json!({"cmd": "a"})).unwrap();
        assert!(journal.bytes() > 0);
        journal.truncate().unwrap();
        assert_eq!(journal.bytes(), 0);
        journal.mark_clean().unwrap();
        assert!(take_clean_marker(&dir));
        assert!(!take_clean_marker(&dir), "marker must be consumed");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ensure_lsn_at_least_only_raises() {
        let dir = temp_dir("lsn");
        let journal = Journal::open(JournalConfig::new(&dir)).unwrap();
        journal.ensure_lsn_at_least(100);
        assert_eq!(journal.append(1, None, &json!({"cmd": "a"})).unwrap(), 100);
        journal.ensure_lsn_at_least(5); // never lowers
        assert_eq!(journal.append(1, None, &json!({"cmd": "b"})).unwrap(), 101);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The raw frames of a journal file, split by their length headers.
    fn raw_frames(bytes: &[u8]) -> Vec<&[u8]> {
        let mut frames = Vec::new();
        let mut rest = bytes;
        while rest.len() >= 8 {
            let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
            let (frame, tail) = rest.split_at(8 + len);
            frames.push(frame);
            rest = tail;
        }
        frames
    }

    #[test]
    fn compaction_keeps_only_selected_frames() {
        let dir = temp_dir("compact");
        let journal = Journal::open(JournalConfig::new(&dir)).unwrap();
        let open_lsn =
            journal.append(1, Some("tok \"1\""), &json!({"cmd": "open", "x": 0.5})).unwrap();
        journal.append(2, None, &json!({"cmd": "b"})).unwrap();
        let keep_lsn = journal.append(1, None, &json!({"cmd": "c"})).unwrap();
        journal.append(2, None, &json!({"cmd": "d"})).unwrap();
        journal.append(1, None, &json!({"cmd": "e", "events": [{"dx": -1e-3}]})).unwrap();
        let original = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        journal
            .compact(&|session, lsn| session == 1 && (lsn == open_lsn || lsn >= keep_lsn))
            .unwrap();
        // Kept frames are copied byte for byte, in order.
        let compacted = std::fs::read(dir.join(JOURNAL_FILE)).unwrap();
        let originals = raw_frames(&original);
        assert_eq!(raw_frames(&compacted), [originals[0], originals[2], originals[4]]);
        assert_eq!(journal.bytes(), compacted.len() as u64);
        let (frames, _) = scan(&dir).unwrap();
        assert_eq!(frames.len(), 3);
        assert_eq!(frames[0].token.as_deref(), Some("tok \"1\""));
        assert_eq!(frames[1].req["cmd"], "c");
        assert_eq!(frames[2].req["cmd"], "e");
        // Keeping every frame leaves the file as it was.
        journal.compact(&|_, _| true).unwrap();
        assert_eq!(std::fs::read(dir.join(JOURNAL_FILE)).unwrap(), compacted);
        // Appends continue to work on the compacted file.
        journal.append(3, None, &json!({"cmd": "d"})).unwrap();
        let (frames, _) = scan(&dir).unwrap();
        assert_eq!(frames.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
