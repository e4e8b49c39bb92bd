//! The interface-search problem: DiffTree forests as MCTS states.
//!
//! States are [`DiffForest`]s (partitions of the query log into merged
//! trees); actions are forest-level merges/splits and tree-level
//! transformation rules; the reward is the negated cost of the best
//! interface candidate the mapper produces for the state. Collapse and
//! domain-generalization rules are applied eagerly after every action
//! (they are always beneficial — see [`pi2_difftree::rules::canonicalize`]),
//! which keeps the searched space to the decisions that actually trade off
//! against each other: partitioning and structural factoring.
//!
//! Reward evaluation is memoized in a shared [`CostMemo`] keyed by the
//! forest's `structural_hash` plus a context fingerprint of everything
//! else the cost depends on (queries, weights, screen). The memo is
//! shared across MCTS iterations, across parallel worker trees, and —
//! via [`crate::Pi2`] — across successive `generate` calls, so a forest
//! is mapped and costed at most once per context. To keep memoized
//! interfaces valid (charts reference trees by index), every state is
//! *normalized*: trees canonicalized and sorted by earliest source query.

use pi2_cost::{choose_best, weights_fingerprint, CostMemo, CostWeights, CostedChoice};
use pi2_difftree::rules::{self, Rule};
use pi2_difftree::{DiffForest, NodeId};
use pi2_engine::Catalog;
use pi2_interface::{map_forest, MapperConfig};
use pi2_mcts::SearchProblem;
use pi2_sql::Query;
use pi2_telemetry::Registry;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// An action on a forest state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ForestAction {
    /// Apply transformation rule `rule` at node `loc` of tree `tree`.
    Rule {
        /// Index of the DiffTree this element binds into.
        tree: usize,
        /// Rule.
        rule: usize,
        /// Node id the rule applies at.
        loc: NodeId,
    },
    /// Merge trees `i` and `j`.
    Merge(usize, usize),
    /// Split tree `i` back into per-query trees.
    Split(usize),
}

/// The search problem over DiffTree forests.
pub struct InterfaceSearch<'a> {
    /// The input query log.
    pub queries: &'a [Query],
    /// Catalog.
    pub catalog: &'a Catalog,
    /// Mapper cfg.
    pub mapper_cfg: MapperConfig,
    /// Weights.
    pub weights: CostWeights,
    rules: Vec<Box<dyn Rule>>,
    memo: Arc<CostMemo>,
    telemetry: Arc<Registry>,
    context: u64,
}

impl<'a> InterfaceSearch<'a> {
    /// Construct from parts with a private memo and telemetry registry.
    pub fn new(
        queries: &'a [Query],
        catalog: &'a Catalog,
        mapper_cfg: MapperConfig,
        weights: CostWeights,
    ) -> Self {
        Self::with_memo(
            queries,
            catalog,
            mapper_cfg,
            weights,
            Arc::new(CostMemo::new()),
            Arc::new(Registry::new()),
        )
    }

    /// Construct sharing an existing memo (for cross-run reuse) and
    /// telemetry registry (for per-phase timings).
    pub fn with_memo(
        queries: &'a [Query],
        catalog: &'a Catalog,
        mapper_cfg: MapperConfig,
        weights: CostWeights,
        memo: Arc<CostMemo>,
        telemetry: Arc<Registry>,
    ) -> Self {
        let rules = rules::all_rules(Some(catalog.clone()));
        let context = context_fingerprint(queries, &weights, &mapper_cfg);
        Self { queries, catalog, mapper_cfg, weights, rules, memo, telemetry, context }
    }

    /// The shared cost memo.
    pub fn memo(&self) -> &Arc<CostMemo> {
        &self.memo
    }

    /// The context fingerprint this search memoizes under.
    pub fn context(&self) -> u64 {
        self.context
    }

    /// Normalize a forest into the searched state space: canonicalize
    /// every tree (collapse + generalize) and sort trees by earliest
    /// source query. The sort gives every structurally-equal state one
    /// canonical tree order, so memoized interfaces (which reference
    /// trees by index) remain valid wherever the state reappears.
    pub fn canonicalized(&self, mut forest: DiffForest) -> DiffForest {
        for tree in &mut forest.trees {
            *tree = rules::canonicalize(tree, Some(self.catalog));
        }
        forest.trees.sort_by_key(|t| t.source_queries.iter().min().copied().unwrap_or(usize::MAX));
        forest
    }

    /// Map a forest and choose its best candidate, memoized by
    /// `(context, structural_hash)`. `None` means mapping failed or no
    /// candidate was produced.
    pub fn best_choice(&self, state: &DiffForest) -> Option<Arc<CostedChoice>> {
        // Keyed by indexed_hash, not structural_hash: the stored interface
        // references trees by index, so tree order must be part of the key
        // (structurally-equal forests can order their trees differently
        // when the log contains duplicate queries).
        self.memo.get_or_compute(self.context, state.indexed_hash(), || {
            let candidates = self
                .telemetry
                .time("phase.map", || {
                    map_forest(state, self.catalog, self.queries, &self.mapper_cfg)
                })
                .ok()?;
            let candidates_considered = candidates.len();
            let (best_idx, breakdown) = self.telemetry.time("phase.cost", || {
                choose_best(&candidates, state, self.queries, self.catalog, &self.weights)
            })?;
            let interface = candidates.into_iter().nth(best_idx)?;
            Some(CostedChoice { interface, breakdown, candidates_considered })
        })
    }

    /// The searched rule subset: structural rules only (normalization rules
    /// run eagerly instead).
    fn searched_rules(&self) -> impl Iterator<Item = (usize, &Box<dyn Rule>)> {
        self.rules.iter().enumerate().filter(|(_, r)| {
            r.name() != "collapse-literal-any" && r.name() != "generalize-hole-domain"
        })
    }
}

/// Fingerprint of everything a memoized cost depends on besides the
/// forest: the query log, the cost weights, and the mapper configuration.
fn context_fingerprint(queries: &[Query], weights: &CostWeights, cfg: &MapperConfig) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    queries.len().hash(&mut h);
    for q in queries {
        q.to_string().hash(&mut h);
    }
    weights_fingerprint(weights).hash(&mut h);
    cfg.screen.width.hash(&mut h);
    cfg.screen.height.hash(&mut h);
    h.finish()
}

impl<'a> SearchProblem for InterfaceSearch<'a> {
    type State = DiffForest;
    type Action = ForestAction;

    fn initial(&self) -> DiffForest {
        // Paper Figure 6 step ①: parse the log into (singleton) DiffTrees.
        self.canonicalized(DiffForest::singletons(self.queries))
    }

    fn actions(&self, state: &DiffForest) -> Vec<ForestAction> {
        let mut out = Vec::new();
        for i in 0..state.trees.len() {
            for j in (i + 1)..state.trees.len() {
                out.push(ForestAction::Merge(i, j));
            }
        }
        for (ti, tree) in state.trees.iter().enumerate() {
            if tree.source_queries.len() > 1 {
                out.push(ForestAction::Split(ti));
            }
            for (ri, rule) in self.searched_rules() {
                for loc in rule.applications(tree) {
                    out.push(ForestAction::Rule { tree: ti, rule: ri, loc });
                }
            }
        }
        out
    }

    fn apply(&self, state: &DiffForest, action: &ForestAction) -> Option<DiffForest> {
        match action {
            ForestAction::Merge(i, j) => state.merge_pair(*i, *j).map(|f| self.canonicalized(f)),
            ForestAction::Split(i) => {
                state.split_tree(*i, self.queries).map(|f| self.canonicalized(f))
            }
            ForestAction::Rule { tree, rule, loc } => {
                let t = state.trees.get(*tree)?;
                let new_tree = self.rules.get(*rule)?.apply(t, *loc)?;
                let mut f = state.clone();
                f.trees[*tree] = rules::canonicalize(&new_tree, Some(self.catalog));
                Some(f)
            }
        }
    }

    fn reward(&self, state: &DiffForest) -> f64 {
        match self.best_choice(state) {
            Some(choice) if choice.breakdown.total.is_finite() => -choice.breakdown.total,
            _ => f64::NEG_INFINITY,
        }
    }

    fn state_key(&self, state: &DiffForest) -> u64 {
        state.structural_hash()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_mcts::{greedy, mcts, MctsConfig};

    fn search_for<'a>(queries: &'a [Query], catalog: &'a Catalog) -> InterfaceSearch<'a> {
        // Borrow lifetimes force constructing in the caller; helper kept for
        // readability at call sites.
        InterfaceSearch::new(queries, catalog, MapperConfig::default(), CostWeights::default())
    }

    #[test]
    fn initial_state_is_canonicalized_singletons() {
        let catalog = pi2_datasets::toy::default_catalog();
        let queries = pi2_datasets::toy::fig2_queries();
        let p = InterfaceSearch::new(
            &queries,
            &catalog,
            MapperConfig::default(),
            CostWeights::default(),
        );
        let s = p.initial();
        assert_eq!(s.trees.len(), 3);
    }

    #[test]
    fn actions_include_merges_and_rules() {
        let catalog = pi2_datasets::toy::default_catalog();
        let queries = pi2_datasets::toy::fig2_queries();
        let p = search_for(&queries, &catalog);
        let s = p.initial();
        let actions = p.actions(&s);
        let merges = actions.iter().filter(|a| matches!(a, ForestAction::Merge(..))).count();
        assert_eq!(merges, 3); // C(3,2)
    }

    #[test]
    fn mcts_finds_better_state_than_initial() {
        // SDSS region queries: two identically-shaped windows. The paper's
        // Figure 1(c) answer — one merged pan/zoom chart — should beat the
        // two redundant static charts of the initial singleton state.
        let catalog =
            pi2_datasets::sdss::catalog(&pi2_datasets::sdss::Config { objects: 300, seed: 9 });
        let queries = pi2_datasets::sdss::demo_queries();
        let p = search_for(&queries, &catalog);
        let initial_reward = p.reward(&p.initial());
        let (best, stats) = mcts(
            &p,
            &MctsConfig { iterations: 40, seed: 11, rollout_depth: 3, ..Default::default() },
        );
        assert!(stats.best_reward > initial_reward, "{} <= {}", stats.best_reward, initial_reward);
        assert_eq!(best.trees.len(), 1, "expected merged forest");
    }

    #[test]
    fn greedy_also_improves() {
        let catalog = pi2_datasets::toy::default_catalog();
        let queries = pi2_datasets::toy::fig3_queries();
        let p = search_for(&queries, &catalog);
        let initial_reward = p.reward(&p.initial());
        let (_, stats) = greedy(&p, 50);
        assert!(stats.best_reward >= initial_reward);
    }

    #[test]
    fn all_reachable_states_stay_expressive() {
        let catalog = pi2_datasets::toy::default_catalog();
        let queries = pi2_datasets::toy::fig2_queries();
        let p = search_for(&queries, &catalog);
        let mut state = p.initial();
        for step in 0..5 {
            let actions = p.actions(&state);
            let Some(a) = actions.get(step % actions.len().max(1)) else { break };
            if let Some(next) = p.apply(&state, a) {
                assert!(next.expresses_all(&queries), "action {a:?} lost expressiveness");
                state = next;
            }
        }
    }

    #[test]
    fn repeated_rewards_hit_the_memo() {
        let catalog = pi2_datasets::toy::default_catalog();
        let queries = pi2_datasets::toy::fig2_queries();
        let p = search_for(&queries, &catalog);
        let s = p.initial();
        let r1 = p.reward(&s);
        let r2 = p.reward(&s);
        assert_eq!(r1, r2);
        assert_eq!(p.memo().misses(), 1);
        assert_eq!(p.memo().hits(), 1);
    }

    #[test]
    fn memoized_cost_equals_fresh_cost() {
        let catalog = pi2_datasets::toy::default_catalog();
        let queries = pi2_datasets::toy::fig2_queries();
        let p = search_for(&queries, &catalog);
        let s = p.initial();
        let memoized = p.best_choice(&s).expect("choice");
        // Fresh, unmemoized computation of the same state.
        let candidates = map_forest(&s, &catalog, &queries, &p.mapper_cfg).expect("map");
        let (idx, fresh) =
            choose_best(&candidates, &s, &queries, &catalog, &p.weights).expect("best");
        assert_eq!(memoized.breakdown, fresh);
        assert_eq!(memoized.interface, candidates[idx]);
        assert_eq!(memoized.candidates_considered, candidates.len());
    }

    #[test]
    fn states_are_sorted_by_earliest_source_query() {
        let catalog = pi2_datasets::toy::default_catalog();
        let queries = pi2_datasets::toy::fig2_queries();
        let p = search_for(&queries, &catalog);
        let mut state = p.initial();
        // Merge the last two trees, then check canonical order everywhere.
        if let Some(next) = p.apply(&state, &ForestAction::Merge(1, 2)) {
            state = next;
        }
        let mins: Vec<usize> =
            state.trees.iter().map(|t| t.source_queries.iter().min().copied().unwrap()).collect();
        let mut sorted = mins.clone();
        sorted.sort_unstable();
        assert_eq!(mins, sorted);
    }
}
