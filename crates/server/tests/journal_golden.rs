//! Golden bytes for the write-ahead journal and its checkpoints.
//!
//! One fixed request sequence (open, two `run_cell`s, `generate`, a
//! coalescing `gesture`, `apply_binding`, a crash and recovery, a clean
//! shutdown, a restart and `close`) runs through [`LocalClient`] with
//! `checkpoint_every(2)`. After each stage the journal directory's
//! `journal.log` and every `ckpt-*.json` must equal the recorded files
//! under `tests/golden/journal/<stage>/` byte for byte: the frame layout,
//! the checkpoint documents and the points at which checkpoints are
//! written are all pinned, whichever code path writes them.

use pi2_core::prelude::FleetConfig;
use pi2_server::{JournalConfig, LocalClient, ServerState};
use serde_json::{json, Value};
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn journaled(dir: &Path) -> LocalClient {
    let config = JournalConfig::new(dir).checkpoint_every(2);
    let (state, report) =
        ServerState::with_journal(FleetConfig::default(), config).expect("with_journal");
    assert!(report.warnings.is_empty(), "{report:?}");
    LocalClient::new(Arc::new(state))
}

fn ok(client: &LocalClient, request: Value) -> Value {
    let response = client.request(request);
    assert_eq!(response["ok"].as_bool(), Some(true), "{response}");
    response
}

/// `journal.log` and each `ckpt-*.json` in `dir`, by file name.
fn journal_files(dir: &Path) -> Vec<(String, Vec<u8>)> {
    let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
        .expect("journal dir")
        .map(|e| e.expect("dir entry").path())
        .filter_map(|path| {
            let name = path.file_name()?.to_str()?.to_string();
            let wanted =
                name == "journal.log" || (name.starts_with("ckpt-") && name.ends_with(".json"));
            wanted.then(|| (name, std::fs::read(&path).expect("read journal file")))
        })
        .collect();
    files.sort();
    files
}

fn assert_golden(dir: &Path, stage: &str) {
    let golden_dir =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/journal").join(stage);
    let actual = journal_files(dir);
    let expected = journal_files(&golden_dir);
    let names = |files: &[(String, Vec<u8>)]| files.iter().map(|f| f.0.clone()).collect::<Vec<_>>();
    assert_eq!(names(&actual), names(&expected), "stage {stage}: file set");
    for ((name, got), (_, want)) in actual.iter().zip(&expected) {
        assert!(
            got == want,
            "stage {stage}: {name} differs from the golden file\n got: {}\nwant: {}",
            String::from_utf8_lossy(got),
            String::from_utf8_lossy(want),
        );
    }
}

#[test]
fn journal_and_checkpoints_match_golden_bytes() {
    let dir = std::env::temp_dir().join(format!("pi2-journal-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Live: six journaled mutations, a checkpoint after every second one.
    let client = journaled(&dir);
    let opened = ok(&client, json!({"cmd": "open", "scenario": "toy", "req_id": "g-open"}));
    let session = opened["session"].as_u64().expect("session id");
    for (i, sql) in [
        "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
        "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
    ]
    .iter()
    .enumerate()
    {
        ok(
            &client,
            json!({"cmd": "run_cell", "session": session, "sql": *sql, "req_id": format!("g-cell-{i}")}),
        );
    }
    ok(&client, json!({"cmd": "generate", "session": session, "req_id": "g-gen"}));
    let gestured = ok(
        &client,
        json!({
            "cmd": "gesture", "session": session, "req_id": "g-gesture",
            "events": [
                {"type": "set_widget", "widget": 0, "value": {"scalar": 1.0}},
                {"type": "set_widget", "widget": 0, "value": {"scalar": 2.0}},
                {"type": "set_widget", "widget": 0, "value": {"scalar": 1.0}},
            ],
        }),
    );
    assert_eq!(gestured["coalesced"].as_u64(), Some(2), "{gestured}");
    ok(
        &client,
        json!({
            "cmd": "apply_binding", "session": session, "widget": 0,
            "value": {"scalar": 2.0}, "req_id": "g-apply",
        }),
    );
    assert_golden(&dir, "live");

    // Crash, then recover: the tail folds into fresh checkpoints and the
    // journal is truncated.
    drop(client);
    let client = journaled(&dir);
    assert_golden(&dir, "recovered");

    // One more gesture, then a clean shutdown checkpoints every session.
    ok(
        &client,
        json!({
            "cmd": "gesture", "session": session, "req_id": "g-gesture-2",
            "events": [{"type": "set_widget", "widget": 0, "value": {"scalar": 1.0}}],
        }),
    );
    client.state().journal_clean_close();
    drop(client);
    assert_golden(&dir, "clean");

    // Restart from the clean checkpoints and close the session.
    let client = journaled(&dir);
    ok(&client, json!({"cmd": "close", "session": session}));
    assert_golden(&dir, "closed");

    drop(client);
    std::fs::remove_dir_all(&dir).expect("remove journal dir");
}
