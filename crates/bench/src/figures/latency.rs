//! Generation latency vs. query-log size (the technical report's
//! quantitative evaluation shape): how long PI2 takes to produce an
//! interface as the log grows, per scenario and strategy — plus the
//! parallel-search speedup table.

use crate::{fmt_duration, text_table};
use pi2_core::{GeneratedInterface, Pi2, SearchStrategy};
use pi2_mcts::MctsConfig;
use pi2_sql::Query;
use std::time::Instant;

pub fn run() -> String {
    let mut out = String::new();
    out.push_str("== Generation latency vs. query-log size ==\n\n");

    let mut rows = Vec::new();
    for scenario in pi2_datasets::demo_scenarios() {
        for n in 1..=scenario.queries.len() {
            let log = &scenario.queries[..n];
            for (strategy_name, strategy) in [
                ("full-merge", SearchStrategy::FullMerge),
                (
                    "mcts-60",
                    SearchStrategy::Mcts(MctsConfig {
                        iterations: 60,
                        rollout_depth: 3,
                        seed: 1,
                        ..Default::default()
                    }),
                ),
            ] {
                let pi2 = Pi2::builder(scenario.catalog.clone()).strategy(strategy).build();
                let start = Instant::now();
                let result = pi2.generate(log);
                let elapsed = start.elapsed();
                match result {
                    Ok(g) => rows.push(vec![
                        scenario.name.to_string(),
                        n.to_string(),
                        strategy_name.to_string(),
                        fmt_duration(elapsed),
                        g.forest.trees.len().to_string(),
                        format!("{:.3}", g.cost.total),
                    ]),
                    Err(e) => rows.push(vec![
                        scenario.name.to_string(),
                        n.to_string(),
                        strategy_name.to_string(),
                        fmt_duration(elapsed),
                        "-".into(),
                        format!("error: {e}"),
                    ]),
                }
            }
        }
    }
    out.push_str(&text_table(
        &["scenario", "#queries", "strategy", "time", "trees", "cost"],
        &rows,
    ));
    out.push_str(
        "\nShape check: time grows with log size and search budget but stays interactive \
         (sub-second for full-merge, seconds for MCTS at demo scale).\n",
    );
    out.push('\n');
    out.push_str(&parallel_speedup());
    out
}

/// A 12-query COVID exploration log (the "8–16 query" regime of the
/// acceptance criteria): overview, six detail windows, three per-state
/// drill-downs, and two single-state timelines. Window and state literals
/// vary while the query *shapes* repeat, which is exactly the workload the
/// search's transposition/reward caches are built for.
fn speedup_log() -> Vec<Query> {
    let mut sqls =
        vec!["SELECT date, sum(cases) AS cases FROM covid GROUP BY date ORDER BY date".to_string()];
    for (lo, hi) in [
        ("2021-12-01", "2021-12-15"),
        ("2021-12-16", "2021-12-31"),
        ("2021-12-08", "2021-12-22"),
        ("2021-12-01", "2021-12-31"),
        ("2021-12-05", "2021-12-12"),
        ("2021-12-20", "2021-12-27"),
    ] {
        sqls.push(format!(
            "SELECT date, sum(cases) AS cases FROM covid \
             WHERE date BETWEEN DATE '{lo}' AND DATE '{hi}' GROUP BY date ORDER BY date"
        ));
    }
    for (lo, hi) in
        [("2021-12-01", "2021-12-15"), ("2021-12-16", "2021-12-31"), ("2021-12-08", "2021-12-22")]
    {
        sqls.push(format!(
            "SELECT date, state, sum(cases) AS cases FROM covid \
             WHERE date BETWEEN DATE '{lo}' AND DATE '{hi}' GROUP BY date, state ORDER BY date"
        ));
    }
    for state in ["New York", "Texas"] {
        sqls.push(format!(
            "SELECT date, sum(cases) AS cases FROM covid WHERE state = '{state}' \
             GROUP BY date ORDER BY date"
        ));
    }
    sqls.iter()
        .map(|s| pi2_sql::parse_query(s).unwrap_or_else(|e| panic!("bad speedup query {s:?}: {e}")))
        .collect()
}

fn generate_with_workers(
    catalog: &pi2_engine::Catalog,
    log: &[Query],
    workers: usize,
    per_worker_iterations: usize,
) -> (Pi2, GeneratedInterface, std::time::Duration) {
    let pi2 = Pi2::builder(catalog.clone())
        .strategy(SearchStrategy::Mcts(MctsConfig {
            iterations: per_worker_iterations,
            seed: 11,
            workers,
            ..Default::default()
        }))
        .build();
    let start = Instant::now();
    let g = pi2.generate(log).expect("speedup log generates");
    let elapsed = start.elapsed();
    (pi2, g, elapsed)
}

/// The parallel-search speedup exhibit: equal *total* iteration budget
/// split across root-parallel workers, cold (fresh memo) and warm
/// (regeneration over the same generator, the notebook's V1→V2→V3 flow).
fn parallel_speedup() -> String {
    const TOTAL_BUDGET: usize = 96;
    let mut out = String::new();
    out.push_str("== Parallel search speedup (12-query COVID log) ==\n\n");

    let catalog = pi2_datasets::covid::catalog(&pi2_datasets::covid::Config::default());
    let log = speedup_log();

    let mut rows = Vec::new();
    let mut baseline: Option<(std::time::Duration, GeneratedInterface)> = None;
    let mut speedup_cold = 0.0;
    let mut speedup_warm = 0.0;
    for workers in [1usize, 2, 4] {
        let per_worker = TOTAL_BUDGET / workers;
        let (pi2, g, cold) = generate_with_workers(&catalog, &log, workers, per_worker);
        // Regenerate over the same Pi2: the cross-run memo answers the
        // repeated forests, as it does when a notebook cell is re-run.
        let start = Instant::now();
        let g2 = pi2.generate(&log).expect("regeneration");
        let warm = start.elapsed();
        // Determinism: a fresh generator with the identical (seed, workers)
        // config must reproduce the interface byte for byte.
        let (_, g3, _) = generate_with_workers(&catalog, &log, workers, per_worker);
        let deterministic = g.interface == g3.interface && g2.interface == g.interface;
        let base_cold = baseline.as_ref().map(|(d, _)| *d).unwrap_or(cold);
        if workers == 4 {
            speedup_cold = base_cold.as_secs_f64() / cold.as_secs_f64().max(1e-9);
            speedup_warm = base_cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
        }
        rows.push(vec![
            workers.to_string(),
            per_worker.to_string(),
            fmt_duration(cold),
            fmt_duration(warm),
            format!("{:.0}%", g2.stats.cache_hit_rate().unwrap_or(0.0) * 100.0),
            format!(
                "{:.0}%",
                g.stats.search.as_ref().and_then(|s| s.cache_hit_rate()).unwrap_or(0.0) * 100.0
            ),
            format!("{:.4}", g.cost.total),
            if deterministic { "yes" } else { "NO" }.to_string(),
        ]);
        if baseline.is_none() {
            baseline = Some((cold, g));
        }
    }
    out.push_str(&text_table(
        &[
            "workers",
            "iters/worker",
            "cold",
            "warm (regen)",
            "memo hit",
            "reward-cache hit",
            "cost",
            "deterministic",
        ],
        &rows,
    ));
    out.push_str(&format!(
        "\n4-worker speedup vs the sequential baseline (equal seed): cold {speedup_cold:.2}x, \
         warm regeneration {speedup_warm:.2}x. Host has {} core(s) — cold scaling needs real \
         cores (workers share one reward cache, so each extra core attacks the same budget), \
         while the warm win comes from the cross-run cost memo and holds on any host. \
         Worker counts are free to find *better* interfaces than the baseline (strictly lower \
         cost wins the merge); identical (seed, workers) always reproduces the same one.\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    ));

    out
}
