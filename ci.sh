#!/usr/bin/env bash
# CI: every gate, in one place. The GitHub Actions workflow runs this script.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --workspace --release

echo "== cargo build --examples =="
cargo build --workspace --examples

echo "== cargo test =="
cargo test --workspace -q

echo "== conformance smoke (fixed seed, bounded budget) =="
cargo run -q -p pi2-conformance --release -- --seed 7 --runs 50 --budget-secs 60 --no-save --quiet

echo "== fault-injection smoke (each fault class once, bounded) =="
for fault in worker-panic deadline-search deadline-map exec-overrun \
             journal-torn-write checkpoint-crash recovery-fsync; do
    cargo run -q -p pi2-conformance --release -- \
        --fault "$fault" --seed 7 --runs 5 --budget-secs 30 --no-save --quiet
done

echo "== server smoke (open/run/generate/gesture/render over real TCP) =="
cargo run -q --release -p pi2-server -- --smoke --scenario sdss

echo "== recovery smoke (journaled server killed -9, restarted, resumed) =="
cargo run -q --release -p pi2-server -- --recovery-smoke

# Release-only server gates: the 1k-session churn soak; the load storm
# (>= 1000 sessions live, storm p99 <= 20x single-session p99, nothing
# left after teardown); and the recovery storm (1000 journaled sessions
# crashed mid-storm all resume byte-identical, resume+render p99 <= 2s,
# no session or checkpoint survives close-all and a second crash).
echo "== server storm gates (release) =="
cargo test -q --release -p pi2-server --test soak --test recovery

# The generation-latency exhibit prints its tables only; its determinism
# column is gated by crates/bench/tests/determinism.rs.
echo "== generation latency exhibit (release) =="
cargo run -q --release -p pi2-bench --bin regen_latency > /dev/null

# Absolute gates on the interaction, streaming and fleet paths (see
# tests/gates.rs): delta frame bytes <= 25% of a full spec, warm pan p50
# at 1M rows <= 10x the 100k p50, each fresh pan at 1M rows scans <= a
# quarter of the table's zone-map blocks, fleet cache-hit p50 < 1 ms with
# one generation per unique fingerprint. The latency gates need --release.
echo "== performance gates (release) =="
cargo test -q --release -p pi2-bench --test gates

# The JSON float printer's exact path must print every finite f64 as Rust's
# `{v}` plus the forced `.0` (vendor/serde_json/tests/float_print.rs): ten
# million values in release, 100k in the debug run above.
echo "== float printer sweep (release) =="
cargo test -q --release -p serde_json --test float_print

# Footprint gates, release-only, each in a binary of its own because VmHWM
# is process-wide: building the 1M-row SDSS catalog may raise VmHWM by at
# most 160 MiB, so each table is held once, as typed columns
# (crates/datasets/tests/footprint.rs); filling the shared 256-entry result
# cache with Figure 1 windows over it may raise VmHWM by at most 40 MiB, so
# each result column holds typed cells, not a Value each
# (crates/datasets/tests/result_cache_footprint.rs).
echo "== footprint gate (release) =="
cargo test -q --release -p pi2-datasets --test footprint --test result_cache_footprint

# perfbench is a workspace of its own that builds against the scene codec
# and the session API by path: an API break must fail here, not in a
# benchmark run.
echo "== perfbench tests (release) =="
cargo test --release --offline --manifest-path perfbench/Cargo.toml

# Rustdoc over the pi2-* crates with warnings denied: a doc link to an item
# that was removed or never existed fails here.
echo "== cargo doc -D warnings =="
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps \
    $(for crate in crates/*/; do printf -- '-p pi2-%s ' "$(basename "$crate")"; done)

echo "== cargo fmt --check =="
cargo fmt --all --check

# pi2-sql, pi2-engine, pi2-difftree, pi2-interface, pi2-cost and pi2-mcts
# deny clippy::unwrap_used in non-test code (see each crate's src/lib.rs):
# they parse, execute, map, cost and search over client SQL, so bad input
# must surface as an error. This workspace run enforces that ban; the
# per-crate runs below cover pi2-core, pi2-server and pi2-render.
echo "== cargo clippy -D warnings =="
cargo clippy --workspace --all-targets -- -D warnings

# pi2-core denies clippy::unwrap_used in non-test code at the crate level
# (see crates/core/src/lib.rs); this run checks it without the `faults`
# feature that the workspace-wide run unifies on. The fleet module
# (crates/core/src/fleet.rs) — shared generation cache, single-flight
# table, admission limiter — is covered by this same gate: its lock
# handling must never unwrap in non-test code.
echo "== cargo clippy pi2-core (no unwrap in non-test code, no faults) =="
cargo clippy -p pi2-core --all-targets -- -D warnings

# pi2-server likewise denies clippy::unwrap_used in non-test code
# (see crates/server/src/lib.rs).
echo "== cargo clippy pi2-server (no unwrap in non-test code) =="
cargo clippy -p pi2-server --all-targets -- -D warnings

# pi2-render likewise denies clippy::unwrap_used in non-test code
# (see crates/render/src/lib.rs): the scene codec and the renderer
# backends surface malformed frames as errors, never panics.
echo "== cargo clippy pi2-render (no unwrap in non-test code) =="
cargo clippy -p pi2-render --all-targets -- -D warnings

echo "CI OK"
