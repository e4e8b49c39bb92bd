//! `generate`: notebook episodes that invoke PI2 after every new cell.
//!
//! Each episode opens a fresh [`Notebook`] over a fresh generator running
//! the pipeline's 120-iteration MCTS with one worker, no fleet and no
//! wall-clock deadline, so every run does the same search work; the
//! generator's cost memo is shared across the episode's steps. Each op
//! adds the episode's next cell, runs it, calls
//! [`Notebook::generate_interface`] and renders the interface spec the
//! notebook front end receives.

use crate::measure::{median_setup, peak_rss_mb, OpClock, Report, Samples};
use crate::streams::{Dataset, EpisodeStream, EPISODE_ORDER, GENERATE_SDSS_ROWS};
use crate::trace::Tracer;
use crate::{catch, traced_cycle, Budget};
use pi2_core::{DegradationLevel, GenerationStats, Pi2, Renderer as _, SearchStrategy};
use pi2_engine::Catalog;
use pi2_mcts::MctsConfig;
use pi2_notebook::Notebook;
use std::time::{Duration, Instant};

/// MCTS iterations per generation: the pipeline's default budget.
pub const ITERATIONS: usize = 120;

/// Set-ups timed per run (the median is reported). Building the three
/// catalogs takes a few milliseconds, so many are cheap and steady the
/// median.
pub const SETUP_RUNS: usize = 15;

/// The catalogs episodes run against.
pub struct Fixture {
    covid: Catalog,
    sp500: Catalog,
    sdss: Catalog,
}

impl Fixture {
    fn catalog(&self, dataset: Dataset) -> &Catalog {
        match dataset {
            Dataset::Covid => &self.covid,
            Dataset::Sp500 => &self.sp500,
            Dataset::Sdss => &self.sdss,
        }
    }
}

/// Build the three catalogs.
pub fn setup() -> Fixture {
    Fixture {
        covid: pi2_datasets::covid::catalog(&pi2_datasets::covid::Config::default()),
        sp500: pi2_datasets::sp500::catalog(&pi2_datasets::sp500::Config::default()),
        sdss: pi2_datasets::sdss::catalog(&pi2_datasets::sdss::Config::sized(GENERATE_SDSS_ROWS)),
    }
}

/// A fresh generator for one episode: sequential MCTS, iteration budget
/// only.
fn generator(catalog: &Catalog) -> Pi2 {
    let mcts = MctsConfig { iterations: ITERATIONS, workers: 1, ..MctsConfig::default() };
    Pi2::builder(catalog.clone()).strategy(SearchStrategy::Mcts(mcts)).build()
}

/// What one op reports back.
struct Step {
    stats: GenerationStats,
    cost: f64,
    expresses_all: bool,
    spec_bytes: usize,
    run_cell: Duration,
}

fn step(notebook: &mut Notebook, sql: &str, tracer: Option<&mut Tracer>) -> Result<Step, String> {
    let mut tracer = tracer;
    if let Some(t) = tracer.as_deref_mut() {
        // The parse on its own (the notebook parses again inside run_cell).
        let parse = t.enter("sql.parse");
        let parsed = pi2_sql::parse_query(sql);
        t.exit(parse);
        parsed.map_err(|e| e.to_string())?;
    }
    let cell = notebook.add_cell(sql);
    let started = Instant::now();
    notebook.run_cell(cell).map_err(|e| e.to_string())?;
    let run_cell = started.elapsed();
    let generate_span = tracer.as_deref_mut().map(|t| {
        t.record("notebook.run_cell", started, started + run_cell);
        t.enter("pi2.generate")
    });
    let generated = notebook.generate_interface().map_err(|e| e.to_string());
    let version = generated.and_then(|_| {
        notebook.versions().last().ok_or_else(|| "no version after generate".to_string())
    });
    if let (Some(t), Some(span)) = (tracer, generate_span) {
        if let Ok(v) = &version {
            // The pipeline timed its phases itself; hang them under the
            // generate span.
            let stats = &v.generated.stats;
            for (name, phase) in
                [("mcts.search", "search"), ("interface.map", "map"), ("cost.cost", "cost")]
            {
                t.record_us(name, stats.phase(phase).as_secs_f64() * 1e6);
            }
        }
        t.exit(span);
    }
    let generated = &version?.generated;
    let spec = pi2_render::SpecRenderer.render(&generated.interface, &[]).to_string();
    Ok(Step {
        cost: generated.cost.total,
        expresses_all: generated.forest.expresses_all(&generated.queries),
        stats: generated.stats.clone(),
        spec_bytes: spec.len(),
        run_cell,
    })
}

/// Counters and samples of one timed phase.
pub struct Phase {
    /// Latency, CPU, bytes and failures of every op.
    pub clock: OpClock,
    /// Latency of untraced / traced ops (traced runs).
    pub untraced_us: Samples,
    /// See `untraced_us`.
    pub traced_us: Samples,
    /// C(I, Q) of every generated interface.
    pub cost: Samples,
    /// Per-op generation layers.
    pub run_cell_us: Samples,
    /// `phase.search` minus mapping and costing, per op.
    pub search_self_us: Samples,
    /// `phase.map` per op.
    pub map_us: Samples,
    /// `phase.cost` per op.
    pub cost_us: Samples,
    /// MCTS states evaluated, summed.
    pub states: u64,
    /// MCTS reward-cache `(hits, misses)`, summed.
    pub reward: (u64, u64),
    /// Cost-memo `(hits, misses)`, summed.
    pub memo: (u64, u64),
    /// Fresh engine executions over the phase.
    pub fresh_execs: u64,
    /// Spans of traced ops.
    pub tracer: Option<Tracer>,
}

fn fresh_execs(fixture: &Fixture) -> u64 {
    [&fixture.covid, &fixture.sp500, &fixture.sdss]
        .iter()
        .map(|c| {
            let (columnar, reference) = c.exec_path_counts();
            columnar + reference
        })
        .sum()
}

/// Drive episodes for `seed` until the budget runs out, checking every
/// generation into `report`.
pub fn timed(
    fixture: &Fixture,
    seed: u64,
    budget: Budget,
    trace: bool,
    report: &mut Report,
) -> Phase {
    let mut phase = Phase {
        clock: OpClock::default(),
        untraced_us: Samples::new(),
        traced_us: Samples::new(),
        cost: Samples::new(),
        run_cell_us: Samples::new(),
        search_self_us: Samples::new(),
        map_us: Samples::new(),
        cost_us: Samples::new(),
        states: 0,
        reward: (0, 0),
        memo: (0, 0),
        fresh_execs: 0,
        tracer: trace.then(Tracer::new),
    };
    let execs_before = fresh_execs(fixture);
    let started = Instant::now();
    let mut index = 0u64;
    'episodes: for (n, episode) in EpisodeStream::new(seed).enumerate() {
        // One segment per cycle through the datasets.
        if n > 0 && n % EPISODE_ORDER.len() == 0 {
            phase.clock.next_segment();
        }
        let mut notebook = Notebook::with_pi2(generator(fixture.catalog(episode.dataset)));
        for sql in &episode.cells {
            if !budget.running(started, index) {
                break 'episodes;
            }
            let traced = trace && traced_cycle((n / EPISODE_ORDER.len()) as u64);
            let timer = phase.clock.start();
            let out = match (traced, phase.tracer.as_mut()) {
                (true, Some(tracer)) => {
                    tracer.set_op(index);
                    let span = tracer.enter("op");
                    let out = catch(|| step(&mut notebook, sql, Some(&mut *tracer)));
                    tracer.exit(span);
                    out
                }
                _ => catch(|| step(&mut notebook, sql, None)),
            };
            let full = out.as_ref().is_ok_and(|s| s.stats.degradation == DegradationLevel::Full);
            let elapsed = phase.clock.finish(timer, full);
            if trace {
                let us = elapsed.as_secs_f64() * 1e6;
                if traced {
                    phase.traced_us.push(us)
                } else {
                    phase.untraced_us.push(us)
                }
            }
            index += 1;
            let s = match out {
                Ok(s) => s,
                Err(e) => {
                    report.check(false, format!("generate op {index}: {e}"));
                    // The notebook may hold a half-run cell; start afresh.
                    continue 'episodes;
                }
            };
            report.check(full, format!("op {index}: degradation {}", s.stats.degradation));
            report.check(s.expresses_all, format!("op {index}: forest does not express its log"));
            phase.clock.add_bytes(s.spec_bytes);
            phase.cost.push(s.cost);
            phase.run_cell_us.push_us(s.run_cell);
            let (search, map, cost) =
                (s.stats.phase("search"), s.stats.phase("map"), s.stats.phase("cost"));
            let us = |d: Duration| d.as_secs_f64() * 1e6;
            phase.search_self_us.push((us(search) - us(map) - us(cost)).max(0.0));
            phase.map_us.push(us(map));
            phase.cost_us.push(us(cost));
            phase.memo.0 += s.stats.memo_hits;
            phase.memo.1 += s.stats.memo_misses;
            if let Some(search) = &s.stats.search {
                phase.states += search.states_evaluated as u64;
                phase.reward.0 += search.cache_hits;
                phase.reward.1 += search.cache_misses;
            }
        }
    }
    phase.fresh_execs = fresh_execs(fixture) - execs_before;
    report.check(phase.clock.attempted > 0, "no op ran");
    phase
}

/// The untraced run: median set-up, timed phase, end-to-end metrics.
pub fn run(seed: u64, budget: Budget) -> Report {
    let mut report = Report::new();
    let (setup_s, fixture) = median_setup(SETUP_RUNS, setup);
    let phase = timed(&fixture, seed, budget, false, &mut report);
    report.attempted = phase.clock.attempted;
    report.failed = phase.clock.failed;
    report.metric("setup_s", setup_s, "s");
    phase.clock.metrics(&mut report);
    report.metric("peak_rss_mb", peak_rss_mb(), "MiB");
    report.metric("interface_cost", phase.cost.mean(), "cost");
    report
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// The traced run's share for generate: notebook, parser, search,
/// mapping and costing.
pub fn run_traced(
    seed: u64,
    budget: Budget,
    report: &mut Report,
    spans_dir: Option<&std::path::Path>,
) {
    let fixture = setup();
    let phase = timed(&fixture, seed, budget, true, report);
    report.attempted += phase.clock.attempted;
    report.failed += phase.clock.failed;
    let ops = phase.clock.attempted.max(1) as f64;
    let tracer = phase.tracer.as_ref().expect("traced phase has a tracer");
    report.metric("notebook.run_cell_us", phase.run_cell_us.median(), "us");
    report.metric("sql.parse_us", tracer.durations_us("sql.parse").median(), "us");
    report.metric("mcts.search_self_us", phase.search_self_us.median(), "us");
    report.metric("mcts.states_evaluated_per_op", phase.states as f64 / ops, "count");
    report.metric(
        "mcts.reward_hit_ratio",
        ratio(phase.reward.0, phase.reward.0 + phase.reward.1),
        "ratio",
    );
    report.metric("interface.map_us", phase.map_us.median(), "us");
    report.metric("cost.cost_us", phase.cost_us.median(), "us");
    report.metric("cost.memo_hit_ratio", ratio(phase.memo.0, phase.memo.0 + phase.memo.1), "ratio");
    report.metric("engine.fresh_execs_per_gen", phase.fresh_execs as f64 / ops, "count");
    report.metric(
        "generate.trace_overhead_us",
        phase.traced_us.median() - phase.untraced_us.median(),
        "us",
    );
    if let Some(dir) = spans_dir {
        if let Err(e) = tracer.write_jsonl(&dir.join(format!("generate-{seed}.jsonl"))) {
            eprintln!("could not write generate spans: {e}");
        }
    }
}
