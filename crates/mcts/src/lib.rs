#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # pi2-mcts
//!
//! A generic, fully deterministic (seeded) Monte-Carlo Tree Search with
//! UCB1 selection (UCT, after Coulom \[8\] / Kocsis–Szepesvári), plus a
//! greedy hill-climbing searcher used as an ablation baseline.
//!
//! PI2 uses MCTS to search the space of DiffTree forests (paper §2 step ④:
//! "the space of possible interfaces is enormous, so we solve this problem
//! using Monte Carlo Tree Search; MCTS balances exploitation of good
//! explored states with exploration of new states"). This crate knows
//! nothing about DiffTrees: the search problem is abstracted behind
//! [`SearchProblem`], and `pi2-core` instantiates it.
//!
//! ## Parallel search
//!
//! [`mcts_parallel`] runs **root-parallel UCT**: `config.workers`
//! independent trees grow from the same root on scoped threads, each with
//! its own deterministically derived seed, sharing one lock-sharded
//! [`SharedRewardCache`] so no thread re-evaluates a state any other
//! thread has already scored. Because rewards are pure functions of the
//! state, the cache can only short-circuit recomputation — never change a
//! value — so each worker's trajectory is bit-for-bit independent of
//! thread interleaving, and the merged result is deterministic for a
//! fixed `(seed, workers)` pair. Worker 0 uses `config.seed` verbatim,
//! which makes `workers = 1` reproduce the sequential [`mcts`] exactly.
//!
//! ```
//! use pi2_mcts::{mcts, MctsConfig, SearchProblem};
//!
//! struct Climb;
//! impl SearchProblem for Climb {
//!     type State = i32;
//!     type Action = i32;
//!     fn initial(&self) -> i32 { 0 }
//!     fn actions(&self, s: &i32) -> Vec<i32> { if *s < 5 { vec![1] } else { vec![] } }
//!     fn apply(&self, s: &i32, a: &i32) -> Option<i32> { Some(s + a) }
//!     fn reward(&self, s: &i32) -> f64 { *s as f64 }
//!     fn state_key(&self, s: &i32) -> u64 { *s as u64 }
//! }
//! let (best, stats) = mcts(&Climb, &MctsConfig { iterations: 50, ..Default::default() });
//! assert_eq!(best, 5);
//! assert_eq!(stats.best_reward, 5.0);
//! ```

use parking_lot::Mutex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// A search problem over an implicit graph of states.
pub trait SearchProblem {
    /// State.
    type State: Clone;
    /// Action.
    type Action: Clone;

    /// The root state.
    fn initial(&self) -> Self::State;
    /// Actions applicable in `state`.
    fn actions(&self, state: &Self::State) -> Vec<Self::Action>;
    /// Apply an action; `None` if it no longer applies.
    fn apply(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State>;
    /// Reward of a state (higher is better). Must be a pure function of
    /// the state: the searchers memoize it by [`SearchProblem::state_key`],
    /// and the parallel searcher shares those memos across threads.
    fn reward(&self, state: &Self::State) -> f64;
    /// A collision-resistant key identifying the state (for transposition
    /// detection and reward memoization).
    fn state_key(&self, state: &Self::State) -> u64;
}

/// Resource budget for one generation/search run. All limits are optional;
/// the default budget is unbounded and reproduces pre-budget behaviour.
///
/// When any limit trips, the search stops where it is and returns the
/// best state found so far — an *anytime* result — with
/// [`SearchStats::budget_exhausted`] set. The wall-clock deadline is also
/// checked between rollout steps, so a single slow rollout cannot overrun
/// the deadline by more than one reward evaluation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GenerationBudget {
    /// Wall-clock deadline for the whole search (shared by all workers).
    pub deadline: Option<Duration>,
    /// Cap on iterations per worker tree, applied on top of
    /// [`MctsConfig::iterations`] (the smaller of the two wins).
    pub max_iterations: Option<usize>,
    /// Cap on states materialized per worker tree — a coarse memory
    /// estimate, since retained states dominate the search's footprint.
    pub max_states: Option<usize>,
}

impl GenerationBudget {
    /// A budget with only a wall-clock deadline.
    pub fn with_deadline(deadline: Duration) -> Self {
        GenerationBudget { deadline: Some(deadline), ..Default::default() }
    }

    /// True when no limit is set (the default).
    pub fn is_unbounded(&self) -> bool {
        self.deadline.is_none() && self.max_iterations.is_none() && self.max_states.is_none()
    }

    /// A stable fingerprint of the budget's limits, an input to search
    /// cache keys: two searches with different budgets may legitimately
    /// return different (anytime) results, so they must not share cached
    /// outcomes.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.deadline.map(|d| d.as_nanos()).hash(&mut h);
        self.max_iterations.hash(&mut h);
        self.max_states.hash(&mut h);
        h.finish()
    }
}

/// MCTS configuration.
#[derive(Debug, Clone)]
pub struct MctsConfig {
    /// Number of select–expand–simulate–backpropagate iterations per tree.
    pub iterations: usize,
    /// UCB1 exploration constant (√2 is the classic choice).
    pub exploration: f64,
    /// Maximum random-rollout depth from a newly expanded node.
    pub rollout_depth: usize,
    /// RNG seed: equal `(seed, workers)` pairs give identical searches.
    pub seed: u64,
    /// Cap on actions considered per node (keeps branching manageable);
    /// actions beyond the cap are sampled away deterministically.
    pub max_actions_per_node: usize,
    /// Number of root-parallel worker trees used by [`mcts_parallel`]
    /// (the sequential [`mcts`] ignores it). Defaults to the machine's
    /// available parallelism, capped at 8.
    pub workers: usize,
    /// Resource budget; unbounded by default. See [`GenerationBudget`].
    pub budget: GenerationBudget,
}

impl MctsConfig {
    /// A stable fingerprint of everything that determines the search
    /// outcome for a fixed problem: iteration budget, exploration constant
    /// (exact bit pattern), rollout depth, seed, action cap, worker count,
    /// and the nested [`GenerationBudget`]. Equal fingerprints mean the
    /// deterministic search returns bit-identical results, so the fleet
    /// generation cache keys on it.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.iterations.hash(&mut h);
        self.exploration.to_bits().hash(&mut h);
        self.rollout_depth.hash(&mut h);
        self.seed.hash(&mut h);
        self.max_actions_per_node.hash(&mut h);
        self.workers.hash(&mut h);
        self.budget.fingerprint().hash(&mut h);
        h.finish()
    }
}

impl Default for MctsConfig {
    fn default() -> Self {
        Self {
            iterations: 200,
            exploration: std::f64::consts::SQRT_2,
            rollout_depth: 3,
            seed: 0,
            max_actions_per_node: 64,
            workers: default_workers(),
            budget: GenerationBudget::default(),
        }
    }
}

/// Available parallelism capped at 8 (the default for
/// [`MctsConfig::workers`]).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1).min(8)
}

/// Derive the seed for a worker tree: worker 0 uses the configured seed
/// verbatim (so a single worker reproduces the sequential search), later
/// workers get SplitMix64-scrambled variants.
pub fn derive_worker_seed(seed: u64, worker: usize) -> u64 {
    if worker == 0 {
        return seed;
    }
    let mut z = seed ^ (worker as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const CACHE_SHARDS: usize = 16;

/// A lock-sharded transposition/reward cache shared by all worker trees.
///
/// Keys are [`SearchProblem::state_key`] values; entries are memoized
/// rewards. Lookups take one shard lock; computation happens outside the
/// lock, so two threads may race to evaluate the same state — both arrive
/// at the same pure value, so the race is benign and determinism of each
/// worker's trajectory is preserved.
#[derive(Debug)]
pub struct SharedRewardCache {
    shards: Vec<Mutex<HashMap<u64, f64>>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for SharedRewardCache {
    fn default() -> Self {
        Self::new()
    }
}

impl SharedRewardCache {
    /// An empty cache.
    pub fn new() -> Self {
        SharedRewardCache {
            shards: (0..CACHE_SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<HashMap<u64, f64>> {
        let idx = (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize % CACHE_SHARDS;
        &self.shards[idx]
    }

    /// Memoized reward for `key`, computing it with `f` on a miss.
    pub fn get_or_compute(&self, key: u64, f: impl FnOnce() -> f64) -> f64 {
        if let Some(&r) = self.shard(key).lock().get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return r;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let r = f();
        self.shard(key).lock().insert(key, r);
        r
    }

    /// Number of distinct states cached.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to evaluate the reward.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Per-worker summary from a [`mcts_parallel`] run.
#[derive(Debug, Clone)]
pub struct WorkerStats {
    /// Worker index (0-based).
    pub worker: usize,
    /// The derived RNG seed this worker's tree used.
    pub seed: u64,
    /// Iterations this worker executed.
    pub iterations: usize,
    /// Nodes in this worker's tree at the end.
    pub tree_nodes: usize,
    /// Best reward this worker found.
    pub best_reward: f64,
    /// Wall-clock time this worker's tree took.
    pub elapsed: Duration,
    /// This worker's tree stopped early because the budget ran out.
    pub budget_exhausted: bool,
    /// This worker panicked; its partial tree was discarded and the other
    /// fields are zeroed. The run's result comes from the survivors.
    pub panicked: bool,
}

/// Statistics from one search run.
#[derive(Debug, Clone)]
pub struct SearchStats {
    /// Iterations actually executed (summed across workers).
    pub iterations: usize,
    /// Nodes in the search tree(s) at the end (summed across workers).
    pub tree_nodes: usize,
    /// Distinct states whose reward was evaluated.
    pub states_evaluated: usize,
    /// Best reward found.
    pub best_reward: f64,
    /// Iteration at which the winning worker first reached the best reward.
    pub best_at_iteration: usize,
    /// Best-so-far reward after each iteration of the winning worker
    /// (for convergence plots).
    pub reward_trace: Vec<f64>,
    /// Successful node expansions (summed across workers).
    pub expansions: usize,
    /// Histogram of rollout depths actually reached: index = depth,
    /// final slot = `rollout_depth` (summed across workers).
    pub rollout_depths: Vec<u64>,
    /// Reward-cache lookups answered without recomputing.
    pub cache_hits: u64,
    /// Reward-cache lookups that evaluated the reward function.
    pub cache_misses: u64,
    /// Per-worker summaries (one entry for sequential/greedy searches).
    pub workers: Vec<WorkerStats>,
    /// Some worker stopped early because the [`GenerationBudget`] ran out;
    /// the returned state is the best found before expiry (anytime result).
    pub budget_exhausted: bool,
    /// Number of workers that panicked (their trees were discarded).
    pub worker_panics: usize,
}

impl SearchStats {
    /// Fraction of reward lookups served from cache, if any were made.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            None
        } else {
            Some(self.cache_hits as f64 / total as f64)
        }
    }
}

struct Node<A> {
    state_idx: usize,
    untried: Vec<A>,
    children: Vec<usize>,
    visits: f64,
    total_reward: f64,
}

/// Everything one worker tree produces; merged by [`mcts_parallel`].
struct TreeOutcome<S> {
    best_state: S,
    best_reward: f64,
    best_at: usize,
    trace: Vec<f64>,
    tree_nodes: usize,
    iterations: usize,
    expansions: usize,
    rollout_depths: Vec<u64>,
    elapsed: Duration,
    budget_exhausted: bool,
}

/// Grow one UCT tree from the root. All randomness comes from `seed`; all
/// reward evaluation goes through the shared cache. `deadline` is the
/// absolute expiry instant, computed once by the caller so every worker
/// shares the same wall-clock budget.
fn run_tree<P: SearchProblem>(
    problem: &P,
    config: &MctsConfig,
    seed: u64,
    cache: &SharedRewardCache,
    deadline: Option<Instant>,
) -> TreeOutcome<P::State> {
    let started = Instant::now();
    let mut rng = SmallRng::seed_from_u64(seed);
    let max_iterations = config.iterations.min(config.budget.max_iterations.unwrap_or(usize::MAX));
    let expired = |b: &mut bool| -> bool {
        let hit = deadline.is_some_and(|d| Instant::now() >= d);
        *b |= hit;
        hit
    };
    let mut budget_exhausted = max_iterations < config.iterations;

    let eval =
        |s: &P::State| -> f64 { cache.get_or_compute(problem.state_key(s), || problem.reward(s)) };

    let root_state = problem.initial();
    let mut best_state = root_state.clone();
    let mut best_reward = eval(&root_state);
    let mut best_at = 0;

    let mut states: Vec<P::State> = vec![root_state];
    let mut nodes: Vec<Node<P::Action>> = vec![Node {
        state_idx: 0,
        untried: capped_actions(problem, &states[0], config, &mut rng),
        children: Vec::new(),
        visits: 0.0,
        total_reward: 0.0,
    }];
    let mut parents: Vec<Option<usize>> = vec![None];
    let mut trace = Vec::with_capacity(config.iterations);
    let mut expansions = 0usize;
    let mut rollout_depths = vec![0u64; config.rollout_depth + 1];

    let mut iterations_done = 0usize;
    for iter in 0..max_iterations {
        if expired(&mut budget_exhausted) {
            break;
        }
        if config.budget.max_states.is_some_and(|m| states.len() >= m) {
            budget_exhausted = true;
            break;
        }
        iterations_done = iter + 1;
        // ---- selection ----
        let mut current = 0usize;
        loop {
            let node = &nodes[current];
            if !node.untried.is_empty() || node.children.is_empty() {
                break;
            }
            // UCB1 over children.
            let ln_n = node.visits.max(1.0).ln();
            let mut best_child = node.children[0];
            let mut best_ucb = f64::NEG_INFINITY;
            for &c in &node.children {
                let ch = &nodes[c];
                let ucb = if ch.visits == 0.0 {
                    f64::INFINITY
                } else {
                    ch.total_reward / ch.visits + config.exploration * (ln_n / ch.visits).sqrt()
                };
                if ucb > best_ucb {
                    best_ucb = ucb;
                    best_child = c;
                }
            }
            current = best_child;
        }

        // ---- expansion ----
        let mut leaf = current;
        if !nodes[current].untried.is_empty() {
            let pick = rng.gen_range(0..nodes[current].untried.len());
            let action = nodes[current].untried.swap_remove(pick);
            let parent_state = states[nodes[current].state_idx].clone();
            if let Some(new_state) = problem.apply(&parent_state, &action) {
                let untried = capped_actions(problem, &new_state, config, &mut rng);
                states.push(new_state);
                let state_idx = states.len() - 1;
                nodes.push(Node {
                    state_idx,
                    untried,
                    children: Vec::new(),
                    visits: 0.0,
                    total_reward: 0.0,
                });
                parents.push(Some(current));
                let new_idx = nodes.len() - 1;
                nodes[current].children.push(new_idx);
                leaf = new_idx;
                expansions += 1;
            }
        }

        // ---- simulation (random rollout) ----
        let mut sim_state = states[nodes[leaf].state_idx].clone();
        let mut rollout_best = eval(&sim_state);
        if rollout_best > best_reward {
            best_reward = rollout_best;
            best_state = sim_state.clone();
            best_at = iter;
        }
        let mut depth_reached = 0usize;
        for _ in 0..config.rollout_depth {
            // Deadline check between rollout steps: expiry mid-rollout
            // still backpropagates what this rollout saw so far.
            if expired(&mut budget_exhausted) {
                break;
            }
            let actions = problem.actions(&sim_state);
            if actions.is_empty() {
                break;
            }
            let a = &actions[rng.gen_range(0..actions.len())];
            let Some(next) = problem.apply(&sim_state, a) else { break };
            sim_state = next;
            depth_reached += 1;
            let r = eval(&sim_state);
            if r > rollout_best {
                rollout_best = r;
            }
            if r > best_reward {
                best_reward = r;
                best_state = sim_state.clone();
                best_at = iter;
            }
        }
        rollout_depths[depth_reached] += 1;

        // ---- backpropagation (mean of rollout-best rewards) ----
        let mut cur = Some(leaf);
        while let Some(i) = cur {
            nodes[i].visits += 1.0;
            nodes[i].total_reward += rollout_best;
            cur = parents[i];
        }
        trace.push(best_reward);
    }

    TreeOutcome {
        best_state,
        best_reward,
        best_at,
        trace,
        tree_nodes: nodes.len(),
        iterations: iterations_done,
        expansions,
        rollout_depths,
        elapsed: started.elapsed(),
        budget_exhausted,
    }
}

/// The search could not produce any result at all.
///
/// Budget expiry is *not* an error (the search degrades to an anytime
/// result); the only way a search fails outright is every worker dying.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SearchError {
    /// Every worker tree panicked, so there is no partial result to merge.
    AllWorkersPanicked {
        /// How many workers were spawned (and died).
        workers: usize,
        /// Panic payload of the first (lowest-index) worker, when it was a
        /// string.
        first_message: String,
    },
}

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SearchError::AllWorkersPanicked { workers, first_message } => {
                write!(f, "all {workers} search worker(s) panicked: {first_message}")
            }
        }
    }
}

impl std::error::Error for SearchError {}

/// What one spawned worker came back with: its tree, or its panic message.
struct WorkerRun<S> {
    worker: usize,
    seed: u64,
    result: Result<TreeOutcome<S>, String>,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn merge_runs<S>(
    config: &MctsConfig,
    cache: &SharedRewardCache,
    runs: Vec<WorkerRun<S>>,
) -> Result<(S, SearchStats), SearchError> {
    let total_workers = runs.len();
    // Deterministic merge over the survivors: strictly greater reward
    // wins; ties keep the lowest worker index, so the result is
    // independent of scheduling — and of *which* other workers died.
    let mut winner: Option<usize> = None;
    for (i, run) in runs.iter().enumerate() {
        let Ok(o) = &run.result else { continue };
        match winner {
            Some(w) => {
                let Ok(best) = &runs[w].result else { unreachable!() };
                if o.best_reward > best.best_reward {
                    winner = Some(i);
                }
            }
            None => winner = Some(i),
        }
    }
    let Some(winner) = winner else {
        let first_message = runs
            .into_iter()
            .find_map(|r| r.result.err())
            .unwrap_or_else(|| "no workers were spawned".to_string());
        return Err(SearchError::AllWorkersPanicked { workers: total_workers, first_message });
    };

    let mut rollout_depths = vec![0u64; config.rollout_depth + 1];
    let mut workers = Vec::with_capacity(runs.len());
    let (mut iterations, mut tree_nodes, mut expansions) = (0, 0, 0);
    let mut budget_exhausted = false;
    let mut worker_panics = 0usize;
    for run in &runs {
        match &run.result {
            Ok(o) => {
                iterations += o.iterations;
                tree_nodes += o.tree_nodes;
                expansions += o.expansions;
                budget_exhausted |= o.budget_exhausted;
                for (slot, v) in rollout_depths.iter_mut().zip(&o.rollout_depths) {
                    *slot += v;
                }
                workers.push(WorkerStats {
                    worker: run.worker,
                    seed: run.seed,
                    iterations: o.iterations,
                    tree_nodes: o.tree_nodes,
                    best_reward: o.best_reward,
                    elapsed: o.elapsed,
                    budget_exhausted: o.budget_exhausted,
                    panicked: false,
                });
            }
            Err(_) => {
                worker_panics += 1;
                workers.push(WorkerStats {
                    worker: run.worker,
                    seed: run.seed,
                    iterations: 0,
                    tree_nodes: 0,
                    best_reward: f64::NEG_INFINITY,
                    elapsed: Duration::ZERO,
                    budget_exhausted: false,
                    panicked: true,
                });
            }
        }
    }

    let win = match runs.into_iter().nth(winner).map(|r| r.result) {
        Some(Ok(o)) => o,
        _ => unreachable!("winner indexes a surviving run"),
    };
    let stats = SearchStats {
        iterations,
        tree_nodes,
        states_evaluated: cache.len(),
        best_reward: win.best_reward,
        best_at_iteration: win.best_at,
        reward_trace: win.trace,
        expansions,
        rollout_depths,
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        workers,
        budget_exhausted,
        worker_panics,
    };
    Ok((win.best_state, stats))
}

/// The absolute expiry instant for this run, derived once so that every
/// worker measures the same wall-clock budget.
fn search_deadline(config: &MctsConfig) -> Option<Instant> {
    config.budget.deadline.map(|d| Instant::now() + d)
}

/// Run sequential MCTS, returning the best state found anywhere (tree or
/// rollout) and search statistics. Ignores [`MctsConfig::workers`];
/// equivalent to [`mcts_parallel`] with `workers = 1`. Stops early with
/// an anytime result when the [`GenerationBudget`] expires.
pub fn mcts<P: SearchProblem>(problem: &P, config: &MctsConfig) -> (P::State, SearchStats) {
    let cache = SharedRewardCache::new();
    let deadline = search_deadline(config);
    let outcome = run_tree(problem, config, config.seed, &cache, deadline);
    let run = WorkerRun { worker: 0, seed: config.seed, result: Ok(outcome) };
    match merge_runs(config, &cache, vec![run]) {
        Ok(r) => r,
        Err(_) => unreachable!("sequential run cannot lose its only worker"),
    }
}

/// Run root-parallel MCTS: `config.workers` independent trees from the
/// same root on scoped threads, sharing one reward cache, merged into the
/// single best result. Deterministic for a fixed `(seed, workers)` pair;
/// `workers = 1` (or `0`) reproduces [`mcts`] exactly and spawns no
/// threads.
///
/// Each worker body runs under `catch_unwind`: a panicking worker is
/// recorded in [`SearchStats::workers`] (with `panicked` set) and the
/// survivors' trees are merged as usual. Because every worker's seed is
/// derived only from its own index and the shared reward cache cannot
/// change values, the merged result equals what a run without the dead
/// workers would have produced. [`SearchError::AllWorkersPanicked`] is
/// returned only when no worker survives.
pub fn mcts_parallel<P>(
    problem: &P,
    config: &MctsConfig,
) -> Result<(P::State, SearchStats), SearchError>
where
    P: SearchProblem + Sync,
    P::State: Send,
    P::Action: Send,
{
    let workers = config.workers.max(1);
    let cache = SharedRewardCache::new();
    let deadline = search_deadline(config);

    let run_worker = |w: usize, seed: u64| -> Result<TreeOutcome<P::State>, String> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            #[cfg(feature = "faults")]
            pi2_faults::maybe_panic_worker(w);
            #[cfg(not(feature = "faults"))]
            let _ = w;
            run_tree(problem, config, seed, &cache, deadline)
        }))
        .map_err(panic_message)
    };

    let runs: Vec<WorkerRun<P::State>> = if workers == 1 {
        vec![WorkerRun { worker: 0, seed: config.seed, result: run_worker(0, config.seed) }]
    } else {
        crossbeam::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let seed = derive_worker_seed(config.seed, w);
                    let handle = s.spawn(move || run_worker(w, seed));
                    (w, seed, handle)
                })
                .collect();
            handles
                .into_iter()
                .map(|(worker, seed, h)| {
                    // The worker body catches its own panics, so join()
                    // only fails if the catch itself aborted; fold that
                    // into the same per-worker error path.
                    let result = match h.join() {
                        Ok(r) => r,
                        Err(payload) => Err(panic_message(payload)),
                    };
                    WorkerRun { worker, seed, result }
                })
                .collect()
        })
        .unwrap_or_else(|_| Vec::new())
    };
    if runs.is_empty() {
        return Err(SearchError::AllWorkersPanicked {
            workers,
            first_message: "worker scope failed".to_string(),
        });
    }

    merge_runs(config, &cache, runs)
}

fn capped_actions<P: SearchProblem>(
    problem: &P,
    state: &P::State,
    config: &MctsConfig,
    rng: &mut SmallRng,
) -> Vec<P::Action> {
    let mut actions = problem.actions(state);
    while actions.len() > config.max_actions_per_node {
        let i = rng.gen_range(0..actions.len());
        actions.swap_remove(i);
    }
    actions
}

/// Greedy hill climbing: repeatedly take the best-improving neighbor until
/// none improves or the evaluation budget runs out. The ablation baseline
/// the benchmarks compare MCTS against. Runs with an unbounded
/// [`GenerationBudget`]; see [`greedy_with_budget`].
pub fn greedy<P: SearchProblem>(problem: &P, max_evaluations: usize) -> (P::State, SearchStats) {
    greedy_with_budget(problem, max_evaluations, &GenerationBudget::default())
}

/// [`greedy`] under a [`GenerationBudget`]: the deadline is checked before
/// every neighbor evaluation and `budget.max_iterations` caps the number
/// of hill-climbing steps. On expiry the current (best-so-far) state is
/// returned with [`SearchStats::budget_exhausted`] set.
pub fn greedy_with_budget<P: SearchProblem>(
    problem: &P,
    max_evaluations: usize,
    budget: &GenerationBudget,
) -> (P::State, SearchStats) {
    let started = Instant::now();
    let deadline = budget.deadline.map(|d| started + d);
    let max_steps = budget.max_iterations.unwrap_or(usize::MAX);
    let mut budget_exhausted = false;
    let cache = SharedRewardCache::new();
    let evals = AtomicU64::new(0);
    let eval = |s: &P::State| -> f64 {
        cache.get_or_compute(problem.state_key(s), || {
            evals.fetch_add(1, Ordering::Relaxed);
            problem.reward(s)
        })
    };

    let mut current = problem.initial();
    let mut current_reward = eval(&current);
    let mut trace = vec![current_reward];
    let mut steps = 0;

    loop {
        if steps >= max_steps {
            budget_exhausted = true;
            break;
        }
        let mut best_next: Option<(P::State, f64)> = None;
        for a in problem.actions(&current) {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                budget_exhausted = true;
                break;
            }
            if evals.load(Ordering::Relaxed) >= max_evaluations as u64 {
                break;
            }
            let Some(next) = problem.apply(&current, &a) else { continue };
            let r = eval(&next);
            if r > current_reward && best_next.as_ref().is_none_or(|(_, br)| r > *br) {
                best_next = Some((next, r));
            }
        }
        if budget_exhausted {
            break;
        }
        match best_next {
            Some((next, r)) if evals.load(Ordering::Relaxed) <= max_evaluations as u64 => {
                current = next;
                current_reward = r;
                steps += 1;
                trace.push(current_reward);
            }
            _ => break,
        }
        if evals.load(Ordering::Relaxed) >= max_evaluations as u64 {
            break;
        }
    }

    let stats = SearchStats {
        iterations: steps,
        tree_nodes: steps + 1,
        states_evaluated: cache.len(),
        best_reward: current_reward,
        best_at_iteration: steps,
        reward_trace: trace,
        expansions: steps,
        rollout_depths: Vec::new(),
        cache_hits: cache.hits(),
        cache_misses: cache.misses(),
        workers: vec![WorkerStats {
            worker: 0,
            seed: 0,
            iterations: steps,
            tree_nodes: steps + 1,
            best_reward: current_reward,
            elapsed: started.elapsed(),
            budget_exhausted,
            panicked: false,
        }],
        budget_exhausted,
        worker_panics: 0,
    };
    (current, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy problem: states are integers, actions add deltas; reward has a
    /// deceptive local optimum at 10 (reward 5) and the global optimum at
    /// -6 (reward 9), reachable only by first moving downhill.
    struct Deceptive;

    impl SearchProblem for Deceptive {
        type State = i64;
        type Action = i64;

        fn initial(&self) -> i64 {
            0
        }
        fn actions(&self, s: &i64) -> Vec<i64> {
            if s.abs() >= 10 {
                vec![]
            } else {
                vec![1, -1, 2, -2]
            }
        }
        fn apply(&self, s: &i64, a: &i64) -> Option<i64> {
            Some((s + a).clamp(-10, 10))
        }
        fn reward(&self, s: &i64) -> f64 {
            match *s {
                10 => 5.0,
                -6 => 9.0,
                v if v > 0 => v as f64 * 0.5, // uphill toward 10
                v => -0.1 * v.abs() as f64,   // downhill valley
            }
        }
        fn state_key(&self, s: &i64) -> u64 {
            *s as u64
        }
    }

    #[test]
    fn mcts_escapes_deceptive_local_optimum() {
        // The exploration constant must be scaled to the reward range
        // (here ~[−1, 9]) for UCB to keep probing the low-mean branch.
        let (best, stats) = mcts(
            &Deceptive,
            &MctsConfig { iterations: 800, seed: 42, exploration: 6.0, ..Default::default() },
        );
        assert_eq!(best, -6, "stats: {stats:?}");
        assert_eq!(stats.best_reward, 9.0);
    }

    #[test]
    fn greedy_gets_stuck_on_deceptive_problem() {
        let (best, stats) = greedy(&Deceptive, 10_000);
        // Greedy climbs toward +10 and never finds -10.
        assert_eq!(best, 10, "stats: {stats:?}");
        assert_eq!(stats.best_reward, 5.0);
    }

    #[test]
    fn mcts_is_deterministic_per_seed() {
        let c = MctsConfig { iterations: 150, seed: 7, ..Default::default() };
        let (a, sa) = mcts(&Deceptive, &c);
        let (b, sb) = mcts(&Deceptive, &c);
        assert_eq!(a, b);
        assert_eq!(sa.reward_trace, sb.reward_trace);
    }

    #[test]
    fn different_seeds_explore_differently() {
        let (_, sa) =
            mcts(&Deceptive, &MctsConfig { iterations: 30, seed: 1, ..Default::default() });
        let (_, sb) =
            mcts(&Deceptive, &MctsConfig { iterations: 30, seed: 2, ..Default::default() });
        // Traces usually differ (not guaranteed, but true for these seeds).
        assert_ne!(sa.reward_trace, sb.reward_trace);
    }

    #[test]
    fn reward_trace_is_monotone() {
        let (_, stats) =
            mcts(&Deceptive, &MctsConfig { iterations: 100, seed: 3, ..Default::default() });
        assert_eq!(stats.reward_trace.len(), 100);
        for w in stats.reward_trace.windows(2) {
            assert!(w[1] >= w[0]);
        }
    }

    #[test]
    fn zero_iterations_returns_initial() {
        let (best, stats) =
            mcts(&Deceptive, &MctsConfig { iterations: 0, seed: 0, ..Default::default() });
        assert_eq!(best, 0);
        assert_eq!(stats.iterations, 0);
    }

    /// Terminal-only problem: no actions anywhere.
    struct Terminal;
    impl SearchProblem for Terminal {
        type State = u8;
        type Action = ();
        fn initial(&self) -> u8 {
            1
        }
        fn actions(&self, _: &u8) -> Vec<()> {
            vec![]
        }
        fn apply(&self, _: &u8, _: &()) -> Option<u8> {
            None
        }
        fn reward(&self, s: &u8) -> f64 {
            *s as f64
        }
        fn state_key(&self, s: &u8) -> u64 {
            *s as u64
        }
    }

    #[test]
    fn handles_terminal_root() {
        let (best, _) = mcts(&Terminal, &MctsConfig { iterations: 10, ..Default::default() });
        assert_eq!(best, 1);
        let (best, _) = greedy(&Terminal, 10);
        assert_eq!(best, 1);
    }

    #[test]
    fn parallel_single_worker_matches_sequential() {
        let c = MctsConfig { iterations: 150, seed: 7, workers: 1, ..Default::default() };
        let (seq, seq_stats) = mcts(&Deceptive, &c);
        let (par, par_stats) = mcts_parallel(&Deceptive, &c).unwrap();
        assert_eq!(seq, par);
        assert_eq!(seq_stats.reward_trace, par_stats.reward_trace);
        assert_eq!(seq_stats.tree_nodes, par_stats.tree_nodes);
    }

    #[test]
    fn parallel_is_deterministic_per_seed_and_workers() {
        for workers in [2usize, 4] {
            let c = MctsConfig { iterations: 120, seed: 9, workers, ..Default::default() };
            let (a, sa) = mcts_parallel(&Deceptive, &c).unwrap();
            let (b, sb) = mcts_parallel(&Deceptive, &c).unwrap();
            assert_eq!(a, b, "workers={workers}");
            assert_eq!(sa.reward_trace, sb.reward_trace, "workers={workers}");
            assert_eq!(sa.best_at_iteration, sb.best_at_iteration, "workers={workers}");
            assert_eq!(sa.workers.len(), workers);
        }
    }

    #[test]
    fn parallel_never_worse_than_its_own_workers() {
        let c = MctsConfig {
            iterations: 200,
            seed: 5,
            workers: 4,
            exploration: 6.0,
            ..Default::default()
        };
        let (_, stats) = mcts_parallel(&Deceptive, &c).unwrap();
        for w in &stats.workers {
            assert!(stats.best_reward >= w.best_reward);
        }
        assert_eq!(stats.iterations, 4 * 200);
        assert_eq!(stats.worker_panics, 0);
        assert!(!stats.budget_exhausted);
    }

    #[test]
    fn parallel_shares_reward_cache() {
        let c = MctsConfig { iterations: 300, seed: 1, workers: 4, ..Default::default() };
        let (_, stats) = mcts_parallel(&Deceptive, &c).unwrap();
        // The state space has only 21 states, so nearly every lookup
        // after warm-up is a cache hit.
        assert!(stats.states_evaluated <= 21);
        assert!(stats.cache_hits > stats.cache_misses);
        assert!(stats.cache_hit_rate().unwrap() > 0.5);
    }

    #[test]
    fn rollout_depth_histogram_accounts_all_iterations() {
        let c = MctsConfig { iterations: 100, seed: 3, ..Default::default() };
        let (_, stats) = mcts(&Deceptive, &c);
        assert_eq!(stats.rollout_depths.len(), c.rollout_depth + 1);
        assert_eq!(stats.rollout_depths.iter().sum::<u64>(), 100);
        assert!(stats.expansions > 0);
    }

    #[test]
    fn worker_seed_derivation_is_stable_and_distinct() {
        assert_eq!(derive_worker_seed(42, 0), 42);
        let seeds: Vec<u64> = (0..8).map(|w| derive_worker_seed(42, w)).collect();
        let mut uniq = seeds.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seeds.len());
    }

    #[test]
    fn zero_iteration_budget_returns_initial_state() {
        let c = MctsConfig {
            iterations: 500,
            seed: 4,
            budget: GenerationBudget { max_iterations: Some(0), ..Default::default() },
            ..Default::default()
        };
        let (best, stats) = mcts(&Deceptive, &c);
        assert_eq!(best, 0, "budget of 0 iterations must return the root state");
        assert_eq!(stats.iterations, 0);
        assert!(stats.budget_exhausted);
        // The root is still evaluated, so the best reward is the root's.
        assert_eq!(stats.best_reward, Deceptive.reward(&0));
    }

    #[test]
    fn iteration_budget_caps_the_search() {
        let budget = GenerationBudget { max_iterations: Some(25), ..Default::default() };
        let c = MctsConfig { iterations: 500, seed: 4, budget, ..Default::default() };
        let (_, stats) = mcts(&Deceptive, &c);
        assert_eq!(stats.iterations, 25);
        assert!(stats.budget_exhausted);
        assert!(stats.workers[0].budget_exhausted);
    }

    #[test]
    fn iteration_budget_above_iterations_is_not_exhaustion() {
        let budget = GenerationBudget { max_iterations: Some(10_000), ..Default::default() };
        let c = MctsConfig { iterations: 50, seed: 4, budget, ..Default::default() };
        let (_, stats) = mcts(&Deceptive, &c);
        assert_eq!(stats.iterations, 50);
        assert!(!stats.budget_exhausted);
    }

    #[test]
    fn expired_deadline_still_returns_a_state() {
        // A deadline of zero expires before the first iteration: the
        // search must return the evaluated root, not hang or panic.
        let budget = GenerationBudget::with_deadline(Duration::ZERO);
        let c = MctsConfig { iterations: 10_000, seed: 8, budget, ..Default::default() };
        let (best, stats) = mcts(&Deceptive, &c);
        assert_eq!(best, 0);
        assert_eq!(stats.iterations, 0);
        assert!(stats.budget_exhausted);

        let (pbest, pstats) = mcts_parallel(&Deceptive, &MctsConfig { workers: 4, ..c }).unwrap();
        assert_eq!(pbest, 0);
        assert!(pstats.budget_exhausted);
        assert_eq!(pstats.worker_panics, 0);
    }

    #[test]
    fn state_budget_caps_tree_growth() {
        let budget = GenerationBudget { max_states: Some(5), ..Default::default() };
        let c = MctsConfig { iterations: 1_000, seed: 2, budget, ..Default::default() };
        let (_, stats) = mcts(&Deceptive, &c);
        // One extra state can be added by the iteration that crosses the
        // cap; growth stops at the next check.
        assert!(stats.tree_nodes <= 6, "tree_nodes = {}", stats.tree_nodes);
        assert!(stats.budget_exhausted);
    }

    #[test]
    fn greedy_budget_deadline_is_anytime() {
        let (best, stats) = greedy_with_budget(
            &Deceptive,
            10_000,
            &GenerationBudget::with_deadline(Duration::ZERO),
        );
        assert_eq!(best, 0, "expired deadline returns the evaluated root");
        assert!(stats.budget_exhausted);

        let (best, stats) = greedy_with_budget(
            &Deceptive,
            10_000,
            &GenerationBudget { max_iterations: Some(1), ..Default::default() },
        );
        assert_eq!(best, 2, "one uphill step from 0");
        assert!(stats.budget_exhausted);
    }

    #[test]
    fn unbounded_budget_matches_legacy_behaviour() {
        let c = MctsConfig { iterations: 150, seed: 7, ..Default::default() };
        assert!(c.budget.is_unbounded());
        let (_, stats) = mcts(&Deceptive, &c);
        assert_eq!(stats.reward_trace.len(), 150);
        assert_eq!(stats.iterations, 150);
        assert!(!stats.budget_exhausted);
        let (gb, gs) = greedy(&Deceptive, 10_000);
        assert_eq!(gb, 10);
        assert!(!gs.budget_exhausted);
    }
}
