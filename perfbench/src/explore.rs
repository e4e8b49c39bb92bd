//! `explore`: one analyst pans and zooms the paper's Figure 1 interface
//! over SDSS.
//!
//! Each op is [`InterfaceSession::dispatch_with_delta`] followed by
//! encoding the damage delta with [`delta_to_json`] into the bytes a
//! client would receive. A client-side [`SceneGraph`] replica decodes and
//! applies every frame (outside the op) and must equal the session's own
//! snapshot at the end; a sample of ops is re-run on the reference
//! interpreter after the timed phase.

use crate::measure::{median_setup, peak_rss_mb, OpClock, Report, Samples};
use crate::streams::{ExploreStream, Gesture, ANCHORS, EXPLORE_PATTERN, RING_PERIOD};
use crate::trace::Tracer;
use crate::{catch, traced_cycle, Budget};
use pi2_core::scene::{delta_from_json, delta_to_json, scene_from_json, scene_to_json};
use pi2_core::{
    ChartUpdate, Event, InterfaceSession, Pi2, SceneGraph, SearchStrategy, SessionStats,
};
use pi2_engine::{Catalog, DeltaCache, ResultSet};
use pi2_sql::Query;
use std::sync::Arc;
use std::time::Instant;

/// Sizes of the explore workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// SDSS rows.
    pub rows: usize,
    /// Set-ups timed per run (the median is reported).
    pub setup_runs: usize,
    /// Ops re-run on the reference interpreter after the timed phase.
    pub reference_checks: usize,
}

impl Default for Config {
    fn default() -> Self {
        Config { rows: 1_000_000, setup_runs: 5, reference_checks: 3 }
    }
}

/// Ops in one round of the explore pattern: one epoch per anchor. A
/// round is one measurement segment.
pub const ROUND: u64 = (EXPLORE_PATTERN.len() * ANCHORS.len()) as u64;

/// Everything the timed phase starts from.
pub struct Fixture {
    catalog: Catalog,
    session: InterfaceSession,
    chart: usize,
    /// The client's copy of the scene and the version it holds.
    replica: SceneGraph,
    replica_version: u64,
    /// C(I, Q) of the explored interface.
    pub interface_cost: f64,
}

/// Build the catalog, generate the Figure 1 interface (full merge, as in
/// the demo) and open a session whose scene the client replica starts
/// from.
pub fn setup(config: &Config) -> Result<Fixture, String> {
    let catalog = pi2_datasets::sdss::catalog(&pi2_datasets::sdss::Config::sized(config.rows));
    let pi2 = Pi2::builder(catalog.clone()).strategy(SearchStrategy::FullMerge).build();
    let generated = pi2.generate(&pi2_datasets::sdss::demo_queries()).map_err(|e| e.to_string())?;
    let chart = generated.interface.charts.first().ok_or("no chart generated")?.id;
    let session = generated.session(&catalog);
    let (scene, version) = session.scene_snapshot().map_err(|e| e.to_string())?;
    let replica = scene_from_json(&scene_to_json(&scene))?;
    Ok(Fixture {
        catalog,
        session,
        chart,
        replica,
        replica_version: version,
        interface_cost: generated.cost.total,
    })
}

/// The session event for a stream gesture.
fn event(chart: usize, gesture: Gesture) -> Event {
    match (gesture.pan_degrees(), gesture.zoom_factor()) {
        (Some((dx, dy)), _) => Event::Pan { chart, dx, dy },
        (_, Some(factor)) => Event::Zoom { chart, factor },
        _ => unreachable!("a gesture is a pan or a zoom"),
    }
}

/// What one op produced.
struct OpOutput {
    updates: Vec<ChartUpdate>,
    /// The damage delta, encoded, and its wire text, if the op damaged
    /// the scene.
    frame: Option<(serde_json::Value, String)>,
}

/// Encode a delta for the wire.
fn encode(delta: &pi2_core::SceneDelta) -> (serde_json::Value, String) {
    let json = delta_to_json(delta);
    let text = json.to_string();
    (json, text)
}

/// One op, untraced: dispatch with delta, then encode.
fn op(session: &mut InterfaceSession, event: Event) -> Result<OpOutput, String> {
    let (updates, delta) = session.dispatch_with_delta(event).map_err(|e| e.to_string())?;
    Ok(OpOutput { updates, frame: delta.map(|d| encode(&d)) })
}

/// One op with spans: the same calls `dispatch_with_delta` makes, each
/// in its own span.
fn op_traced(
    session: &mut InterfaceSession,
    event: Event,
    tracer: &mut Tracer,
) -> Result<OpOutput, String> {
    let dispatch = tracer.enter("core.dispatch");
    let updates = session.dispatch(event).map_err(|e| e.to_string());
    tracer.exit(dispatch);
    let updates = updates?;
    let sync = tracer.enter("scene.sync");
    let delta = session.scene_sync().map_err(|e| e.to_string());
    tracer.exit(sync);
    let encode_span = tracer.enter("render.encode");
    let frame = delta?.map(|d| encode(&d));
    tracer.exit(encode_span);
    Ok(OpOutput { updates, frame })
}

/// Counters and samples of one timed phase.
pub struct Phase {
    /// Latency, CPU, bytes and failures of every op.
    pub clock: OpClock,
    /// Latency of untraced ops only (traced runs).
    pub untraced_us: Samples,
    /// Latency of traced ops only (traced runs).
    pub traced_us: Samples,
    /// Encoded frame sizes.
    pub frame_bytes: Samples,
    /// Re-execution time of each traced op's chart query (traced runs).
    pub exec_us: Samples,
    /// Session counters over the phase.
    pub session: SessionStats,
    /// Zone-map blocks scanned by each op's dispatch, in order.
    pub scanned: Vec<u64>,
    /// Zone-map blocks pruned over the phase's dispatches.
    pub pruned: u64,
    /// `(columnar, reference)` fresh executions over the phase.
    pub execs: (u64, u64),
    /// Spans of the traced ops.
    pub tracer: Option<Tracer>,
}

fn counters_since(before: &SessionStats, after: &SessionStats) -> SessionStats {
    SessionStats {
        dispatches: after.dispatches - before.dispatches,
        cache_hits: after.cache_hits - before.cache_hits,
        cache_misses: after.cache_misses - before.cache_misses,
        delta_hits: after.delta_hits - before.delta_hits,
        delta_seeds: after.delta_seeds - before.delta_seeds,
        charts_updated: after.charts_updated - before.charts_updated,
        charts_skipped: after.charts_skipped - before.charts_skipped,
        ..SessionStats::default()
    }
}

/// Drive the op stream for `seed` until the budget runs out, checking
/// outputs into `report`. With `trace`, alternate rounds run with spans
/// (see [`traced_cycle`]).
pub fn timed(
    fixture: &mut Fixture,
    config: &Config,
    seed: u64,
    budget: Budget,
    trace: bool,
    report: &mut Report,
) -> Phase {
    let mut phase = Phase {
        clock: OpClock::with_period(RING_PERIOD),
        untraced_us: Samples::new(),
        traced_us: Samples::new(),
        frame_bytes: Samples::new(),
        exec_us: Samples::new(),
        session: SessionStats::default(),
        scanned: Vec::new(),
        pruned: 0,
        execs: (0, 0),
        tracer: trace.then(Tracer::new),
    };
    let mut bench_delta = DeltaCache::new();
    let mut samples: Vec<(Query, Arc<ResultSet>)> = Vec::new();
    let sample_every = 509;
    let stats_before = fixture.session.stats();
    let execs_before = fixture.catalog.exec_path_counts();
    let started = Instant::now();
    let mut stream = ExploreStream::new(seed);
    let mut index = 0u64;
    while budget.running(started, index) {
        let Some(next) = stream.next() else { break };
        let ev = event(fixture.chart, next.gesture);
        if index > 0 && index.is_multiple_of(ROUND) {
            phase.clock.next_segment();
        }
        let traced = trace && traced_cycle(index / ROUND);
        let scans_before = fixture.catalog.scan_counts();
        let session = &mut fixture.session;
        let timer = phase.clock.start();
        let out = match (traced, phase.tracer.as_mut()) {
            (true, Some(tracer)) => {
                tracer.set_op(index);
                let span = tracer.enter("op");
                let out = catch(|| op_traced(session, ev, tracer));
                tracer.exit(span);
                out
            }
            _ => catch(|| op(session, ev)),
        };
        let elapsed = phase.clock.finish(timer, out.is_ok());
        let scans_after = fixture.catalog.scan_counts();
        phase.scanned.push(scans_after.0 - scans_before.0);
        phase.pruned += scans_after.1 - scans_before.1;
        if trace {
            let us = elapsed.as_secs_f64() * 1e6;
            if traced {
                phase.traced_us.push(us)
            } else {
                phase.untraced_us.push(us)
            }
        }
        index += 1;
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                report.check(false, format!("explore op {index}: {e}"));
                continue;
            }
        };
        report.check(
            out.updates.len() == 1,
            format!("op {index} updated {} charts", out.updates.len()),
        );
        if let Some((json, text)) = &out.frame {
            phase.clock.add_bytes(text.len());
            phase.frame_bytes.push(text.len() as f64);
            // Decode what was encoded (the codec's round trip; re-parsing
            // the text would only time the JSON parser).
            let decoded = delta_from_json(json);
            let applied = decoded.and_then(|delta| {
                if delta.from_version != fixture.replica_version {
                    return Err(format!(
                        "frame from v{} but the replica holds v{}",
                        delta.from_version, fixture.replica_version
                    ));
                }
                fixture.replica.apply(&delta).map_err(|e| e.to_string())?;
                fixture.replica_version = delta.to_version;
                Ok(())
            });
            if let Err(e) = applied {
                report.check(false, format!("op {index}: replica could not apply frame: {e}"));
            }
        }
        if let Some(update) = out.updates.first() {
            if traced {
                // The layer below, on its own: the dispatched chart query
                // again through the delta path with a benchmark-owned
                // cache (outside the op's time).
                let t = Instant::now();
                let again = fixture.catalog.execute_delta(&update.query, &mut bench_delta);
                if again.is_none() {
                    let _ = fixture.catalog.execute_uncached(&update.query);
                }
                phase.exec_us.push_us(t.elapsed());
            }
            if index % sample_every == 1 && samples.len() < config.reference_checks {
                samples.push((update.query.clone(), Arc::clone(&update.result)));
            }
        }
    }
    phase.session = counters_since(&stats_before, &fixture.session.stats());
    // Traced runs re-execute chart queries through the delta path, which
    // does not count as a fresh execution.
    let execs_after = fixture.catalog.exec_path_counts();
    phase.execs = (execs_after.0 - execs_before.0, execs_after.1 - execs_before.1);

    // Output checks after the timed phase.
    match fixture.session.scene_snapshot() {
        Ok((scene, version)) => {
            report.check(
                version == fixture.replica_version,
                "replica version differs from the session's",
            );
            report
                .check(scene == fixture.replica, "client replica differs from the session's scene");
        }
        Err(e) => report.check(false, format!("final snapshot: {e}")),
    }
    for (query, result) in &samples {
        match fixture.catalog.execute_reference(query) {
            Ok(reference) => report.check(
                &reference == result.as_ref(),
                format!("`{query}` differs from the reference"),
            ),
            Err(e) => report.check(false, format!("reference `{query}`: {e}")),
        }
    }
    report.check(phase.clock.attempted > 0, "no op ran");
    phase
}

/// The untraced run: median set-up, timed phase, end-to-end metrics.
pub fn run(config: &Config, seed: u64, budget: Budget) -> Report {
    let mut report = Report::new();
    let (setup_s, fixture) = median_setup(config.setup_runs, || setup(config));
    let mut fixture = match fixture {
        Ok(f) => f,
        Err(e) => {
            report.check(false, format!("explore set-up: {e}"));
            return report;
        }
    };
    let phase = timed(&mut fixture, config, seed, budget, false, &mut report);
    report.attempted = phase.clock.attempted;
    report.failed = phase.clock.failed;
    report.metric("setup_s", setup_s, "s");
    phase.clock.metrics(&mut report);
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("interface_cost", fixture.interface_cost, "cost");
    report
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The traced run's share for explore: per-layer metrics of the engine,
/// the session, the scene and the encoder.
pub fn run_traced(
    config: &Config,
    seed: u64,
    budget: Budget,
    report: &mut Report,
    spans_dir: Option<&std::path::Path>,
) {
    let mut fixture = match setup(config) {
        Ok(f) => f,
        Err(e) => return report.check(false, format!("explore set-up: {e}")),
    };
    let build_s = fixture.catalog.columnar_build_nanos() as f64 / 1e9;
    let phase = timed(&mut fixture, config, seed, budget, true, report);
    report.attempted += phase.clock.attempted;
    report.failed += phase.clock.failed;
    let ops = phase.clock.attempted.max(1) as f64;
    let tracer = phase.tracer.as_ref().expect("traced phase has a tracer");
    let s = &phase.session;
    report.metric("engine.exec_us_p50", phase.exec_us.quantile(0.5), "us");
    report.metric("engine.exec_us_p99", phase.exec_us.quantile(0.99), "us");
    let scanned: u64 = phase.scanned.iter().sum();
    report.metric("engine.blocks_scanned_per_op", scanned as f64 / ops, "count");
    report.metric("engine.prune_ratio", ratio(phase.pruned, scanned + phase.pruned), "ratio");
    report.metric(
        "engine.fresh_execs_per_op",
        (phase.execs.0 + phase.execs.1) as f64 / ops,
        "count",
    );
    report.metric(
        "engine.reference_ratio",
        ratio(phase.execs.1, phase.execs.0 + phase.execs.1),
        "ratio",
    );
    report.metric("engine.build_s", build_s, "s");
    let dispatch = tracer.durations_us("core.dispatch");
    report.metric("core.dispatch_us_p50", dispatch.quantile(0.5), "us");
    report.metric("core.dispatch_us_p99", dispatch.quantile(0.99), "us");
    // Every op's scene sync re-reads the chart it just dispatched, always
    // a hit; count the dispatch lookups only.
    report.metric("core.result_hit_ratio", 1.0 - ratio(s.cache_misses, s.charts_updated), "ratio");
    report.metric("core.delta_hit_ratio", ratio(s.delta_hits, s.cache_misses), "ratio");
    report.metric("core.charts_updated_per_op", s.charts_updated as f64 / ops, "count");
    let sync = tracer.durations_us("scene.sync");
    report.metric("scene.sync_us_p50", sync.quantile(0.5), "us");
    report.metric("scene.sync_us_p99", sync.quantile(0.99), "us");
    report.metric(
        "render.encode_us_p99",
        tracer.durations_us("render.encode").quantile(0.99),
        "us",
    );
    report.metric("scene.frame_bytes_p50", phase.frame_bytes.quantile(0.5), "bytes");
    report.metric("scene.frame_bytes_p99", phase.frame_bytes.quantile(0.99), "bytes");
    report.metric("explore.op_self_us_p50", tracer.self_us("op").quantile(0.5), "us");
    report.metric(
        "explore.trace_overhead_us",
        phase.traced_us.median() - phase.untraced_us.median(),
        "us",
    );
    if let Some(dir) = spans_dir {
        if let Err(e) = tracer.write_jsonl(&dir.join(format!("explore-{seed}.jsonl"))) {
            eprintln!("could not write explore spans: {e}");
        }
    }
}
