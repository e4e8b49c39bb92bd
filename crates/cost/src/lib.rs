#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # pi2-cost
//!
//! The quantitative interface cost model ℂ(𝕀, ℚ) (paper Figure 6, step ③).
//!
//! The paper: "Quantitative interface evaluation is an active area of
//! research, and PI2 borrows current best practices to develop its cost
//! function." This implementation combines:
//!
//! * a **hard expressiveness constraint** — an interface whose DiffTree
//!   forest cannot express every input query costs infinity;
//! * **visualization effectiveness** — encoding quality scored with a
//!   Cleveland–McGill/Bertin-style channel×field-type ranking, plus mark
//!   appropriateness and overplotting penalties;
//! * **interaction effort** — per-widget/-interaction operation costs
//!   grounded in the paper's own motivating example ("the user needs to
//!   manipulate four separate sliders to pan and zoom" — four sliders cost
//!   far more than one pan/zoom);
//! * **layout fit** — a box-model estimate of the interface's footprint
//!   against the available screen, penalizing overflow and deep nesting;
//! * **view count and generalization** — extra views cost; holes that
//!   generalize to continuous domains earn a small reward, bloated ANYs a
//!   penalty.
//!
//! ```
//! use pi2_cost::{cost, CostWeights};
//! use pi2_difftree::DiffForest;
//! use pi2_interface::{map_forest, MapperConfig};
//!
//! let catalog = pi2_datasets::toy::default_catalog();
//! let queries = pi2_datasets::toy::fig3_queries();
//! let forest = DiffForest::fully_merged(&queries);
//! let candidates = map_forest(&forest, &catalog, &queries, &MapperConfig::default()).unwrap();
//! let breakdown = cost(&candidates[0], &forest, &queries, &catalog, &CostWeights::default());
//! assert!(breakdown.expressive);
//! assert!(breakdown.total.is_finite());
//! ```

pub mod effectiveness;
pub mod memo;

pub use memo::{combine_fingerprints, weights_fingerprint, CostMemo, CostedChoice};

use pi2_difftree::{choices, ChoiceKind, DiffForest};
use pi2_engine::Catalog;
use pi2_interface::{
    Element, Interface, Layout, Mark, ScreenSpec, VizInteraction, Widget, WidgetKind,
};
use pi2_sql::Query;
use serde::{Deserialize, Serialize};

/// Tunable weights for the cost terms, plus the two structural penalty
/// knobs the ablation benchmarks sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CostWeights {
    /// Visualization-effectiveness weight.
    pub viz: f64,
    /// Interaction-effort weight.
    pub interaction: f64,
    /// Layout-fit weight.
    pub layout: f64,
    /// View-count weight.
    pub views: f64,
    /// Generalization reward/penalty weight.
    pub generalization: f64,
    /// Penalty per pair of redundant charts (same mark+encodings over
    /// same-shaped trees) — what drives merging similar queries.
    pub redundancy_penalty: f64,
    /// Penalty per choice node nested beneath another choice node
    /// (conditionally-dead controls) — what drives the overview+detail
    /// split instead of one tree with holes under an OPT.
    pub nested_choice_penalty: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        Self {
            viz: 1.0,
            interaction: 1.0,
            layout: 1.0,
            views: 0.5,
            generalization: 0.5,
            redundancy_penalty: 0.35,
            nested_choice_penalty: 0.2,
        }
    }
}

/// The cost of one candidate interface, by term.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CostBreakdown {
    /// Expressive.
    pub expressive: bool,
    /// Visualization-effectiveness weight.
    pub viz: f64,
    /// Interaction-effort weight.
    pub interaction: f64,
    /// Layout-fit weight.
    pub layout: f64,
    /// View-count weight.
    pub views: f64,
    /// Generalization reward/penalty weight.
    pub generalization: f64,
    /// Total.
    pub total: f64,
}

impl CostBreakdown {
    fn total_of(
        weights: &CostWeights,
        expressive: bool,
        viz: f64,
        interaction: f64,
        layout: f64,
        views: f64,
        generalization: f64,
    ) -> Self {
        let total = if expressive {
            weights.viz * viz
                + weights.interaction * interaction
                + weights.layout * layout
                + weights.views * views
                + weights.generalization * generalization
        } else {
            f64::INFINITY
        };
        CostBreakdown { expressive, viz, interaction, layout, views, generalization, total }
    }
}

/// Evaluate ℂ(𝕀, ℚ) for a candidate interface over its forest.
pub fn cost(
    interface: &Interface,
    forest: &DiffForest,
    queries: &[Query],
    catalog: &Catalog,
    weights: &CostWeights,
) -> CostBreakdown {
    let expressive = forest.expresses_all(queries);
    let viz = viz_cost(interface, forest, queries, catalog, weights);
    let interaction = interaction_cost(interface, forest, weights);
    let layout = layout_cost(interface);
    let views = 0.15 * interface.charts.len().saturating_sub(1) as f64;
    let generalization = generalization_cost(forest);
    CostBreakdown::total_of(weights, expressive, viz, interaction, layout, views, generalization)
}

/// Pick the lowest-cost candidate; ties break toward the earlier candidate.
pub fn choose_best(
    candidates: &[Interface],
    forest: &DiffForest,
    queries: &[Query],
    catalog: &Catalog,
    weights: &CostWeights,
) -> Option<(usize, CostBreakdown)> {
    let mut best: Option<(usize, CostBreakdown)> = None;
    for (i, c) in candidates.iter().enumerate() {
        let b = cost(c, forest, queries, catalog, weights);
        if best.as_ref().is_none_or(|(_, bb)| b.total < bb.total) {
            best = Some((i, b));
        }
    }
    best
}

// ---- visualization effectiveness ------------------------------------------

fn viz_cost(
    interface: &Interface,
    forest: &DiffForest,
    queries: &[Query],
    catalog: &Catalog,
    weights: &CostWeights,
) -> f64 {
    let mut total = 0.0;
    // Redundant views: charts with identical mark+encodings over trees of
    // identical *shape* (same query up to literal values) show the same
    // thing for trivially-different queries — the "many similar static
    // visualizations and a lengthy notebook" failure mode of §3.2 Step 1.
    // An overview chart and a windowed detail chart have different shapes
    // (the WHERE window) and are not redundant.
    for (i, a) in interface.charts.iter().enumerate() {
        for b in &interface.charts[i + 1..] {
            let same_shape = forest
                .trees
                .get(a.tree)
                .zip(forest.trees.get(b.tree))
                .is_some_and(|(ta, tb)| ta.shape_hash() == tb.shape_hash());
            if a.mark == b.mark && a.encodings == b.encodings && same_shape {
                total += weights.redundancy_penalty;
            }
        }
    }
    for chart in &interface.charts {
        // Encoding quality.
        if chart.mark == Mark::Table {
            // A table is always expressible but visually weakest.
            total += 0.8;
            continue;
        }
        for enc in &chart.encodings {
            total += 1.0 - effectiveness::channel_effectiveness(enc.channel, enc.field_type);
        }
        total += effectiveness::mark_penalty(chart);

        // Overplotting: estimate the default result's cardinality.
        if let Some(tree) = forest.trees.get(chart.tree) {
            let defaults = pi2_difftree::default_bindings(tree, queries);
            if let Ok(q) = pi2_difftree::lower_query(tree, &defaults) {
                if let Ok(r) = catalog.execute(&q) {
                    let rows = r.len();
                    if chart.mark == Mark::Scatter && rows > 5_000 {
                        total += 0.2;
                    }
                    if chart.mark == Mark::Bar && rows > 100 {
                        total += 0.3;
                    }
                    if rows == 0 {
                        total += 0.4;
                    }
                }
            }
        }
    }
    total
}

// ---- interaction effort -----------------------------------------------------

/// Operation cost of a widget, per the HCI-style ranking the paper's
/// motivating example implies.
pub fn widget_effort(kind: &WidgetKind) -> f64 {
    match kind {
        WidgetKind::Toggle => 0.10,
        WidgetKind::ButtonGroup { .. } => 0.15,
        WidgetKind::Radio { options } => 0.20 + 0.01 * options.len() as f64,
        WidgetKind::Slider { .. } => 0.25,
        WidgetKind::RangeSlider { .. } => 0.30,
        WidgetKind::Tabs { options } => 0.25 + 0.01 * options.len() as f64,
        WidgetKind::MultiSelect { options } => 0.20 + 0.01 * options.len() as f64,
        WidgetKind::Dropdown { options } => 0.35 + 0.002 * options.len() as f64,
        WidgetKind::TextInput => 0.60,
    }
}

/// Operation cost of an in-visualization interaction. Direct manipulation
/// is cheap: this is exactly why Figure 1(c) beats Figure 1(b)'s four
/// sliders.
pub fn interaction_effort(i: &VizInteraction) -> f64 {
    match i {
        VizInteraction::PanZoom { .. } => 0.10,
        VizInteraction::BrushX { .. } => 0.15,
        VizInteraction::ClickBind { .. } => 0.10,
    }
}

fn interaction_cost(interface: &Interface, forest: &DiffForest, weights: &CostWeights) -> f64 {
    let mut total = 0.0;
    for w in &interface.widgets {
        total += widget_effort(&w.kind);
    }
    for c in &interface.charts {
        // One gesture drives every binding of the same kind on the same
        // chart (a single brush reconfigures all linked detail views), so
        // duplicate (kind, field) interactions cost once.
        let mut seen: std::collections::HashSet<String> = std::collections::HashSet::new();
        for i in &c.interactions {
            let key = match i {
                VizInteraction::BrushX { field, .. } => format!("brush:{field}"),
                VizInteraction::PanZoom { .. } => "panzoom".to_string(),
                VizInteraction::ClickBind { field, .. } => format!("click:{field}"),
            };
            if seen.insert(key) {
                total += interaction_effort(i);
            }
        }
    }
    // Choice nodes nested beneath other choice nodes are conditionally
    // dead controls (a hole inside an excluded OPT does nothing) —
    // penalized per occurrence.
    for tree in &forest.trees {
        total += weights.nested_choice_penalty * tree.root.nested_choice_count() as f64;
    }
    // Unmapped choice nodes mean analysis states the user cannot reach from
    // the interface — heavily penalized (but not infinite: the default
    // binding still shows something).
    let mapped: std::collections::HashSet<(usize, u32)> =
        interface.all_targets().iter().map(|t| (t.tree, t.node)).collect();
    for (ti, tree) in forest.trees.iter().enumerate() {
        for ch in choices(tree) {
            if !mapped.contains(&(ti, ch.id)) {
                total += 1.0;
            }
            // Deeply nested choices are harder to understand.
            total += 0.05 * ch.context.depth as f64;
        }
    }
    total
}

// ---- layout -----------------------------------------------------------------

/// Preferred box of an element, in abstract pixels.
fn element_box(e: Element, interface: &Interface) -> (f64, f64) {
    match e {
        Element::Chart(_) => (380.0, 260.0),
        Element::Widget(id) => {
            let w: Option<&Widget> = interface.widgets.iter().find(|w| w.id == id);
            match w.map(|w| &w.kind) {
                Some(WidgetKind::Radio { options }) => (220.0, 22.0 * options.len().max(1) as f64),
                Some(WidgetKind::Tabs { .. }) => (320.0, 36.0),
                Some(WidgetKind::RangeSlider { .. } | WidgetKind::Slider { .. }) => (260.0, 48.0),
                _ => (220.0, 40.0),
            }
        }
    }
}

fn layout_box(l: &Layout, interface: &Interface) -> (f64, f64) {
    match l {
        Layout::Leaf(e) => element_box(*e, interface),
        Layout::Horizontal(xs) => {
            let boxes: Vec<(f64, f64)> = xs.iter().map(|x| layout_box(x, interface)).collect();
            (
                boxes.iter().map(|b| b.0).sum::<f64>() + 8.0 * xs.len().saturating_sub(1) as f64,
                boxes.iter().map(|b| b.1).fold(0.0, f64::max),
            )
        }
        Layout::Vertical(xs) => {
            let boxes: Vec<(f64, f64)> = xs.iter().map(|x| layout_box(x, interface)).collect();
            (
                boxes.iter().map(|b| b.0).fold(0.0, f64::max),
                boxes.iter().map(|b| b.1).sum::<f64>() + 8.0 * xs.len().saturating_sub(1) as f64,
            )
        }
    }
}

fn layout_cost(interface: &Interface) -> f64 {
    let (w, h) = layout_box(&interface.layout, interface);
    let ScreenSpec { width, height } = interface.screen;
    let overflow_x = (w / width as f64 - 1.0).max(0.0);
    let overflow_y = (h / height as f64 - 1.0).max(0.0);
    // Horizontal overflow is worse than vertical (scrolling down is normal
    // in a notebook; scrolling right is not).
    2.0 * overflow_x + 0.5 * overflow_y + 0.02 * interface.layout.depth() as f64
}

// ---- generalization -----------------------------------------------------------

fn generalization_cost(forest: &DiffForest) -> f64 {
    let mut total = 0.0;
    for tree in &forest.trees {
        for ch in choices(tree) {
            match &ch.kind {
                ChoiceKind::Hole { domain, .. } => {
                    if domain.is_continuous() {
                        // Generalized domains let the user explore beyond
                        // the log: a small reward.
                        total -= 0.05;
                    }
                }
                ChoiceKind::Any { options } => {
                    if options.len() > 10 {
                        total += 0.02 * (options.len() - 10) as f64;
                    }
                }
                ChoiceKind::Opt { .. } => {}
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_difftree::rules::all_rules;
    use pi2_interface::{map_forest, MapperConfig};

    fn prepare(forest: &mut DiffForest, catalog: &Catalog) {
        let rules = all_rules(Some(catalog.clone()));
        for tree in &mut forest.trees {
            loop {
                let mut progressed = false;
                for rule in &rules {
                    if ["collapse-literal-any", "generalize-hole-domain"].contains(&rule.name()) {
                        while let Some(&loc) = rule.applications(tree).first() {
                            match rule.apply(tree, loc) {
                                Some(next) => {
                                    *tree = next;
                                    progressed = true;
                                }
                                None => break,
                            }
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }
        }
    }

    #[test]
    fn panzoom_variant_beats_slider_variant() {
        // The paper's Figure 1 argument: PI2's pan/zoom interface costs
        // less than the Hex-style four-slider interface.
        let catalog =
            pi2_datasets::sdss::catalog(&pi2_datasets::sdss::Config { objects: 400, seed: 3 });
        let queries = pi2_datasets::sdss::demo_queries();
        let mut forest = DiffForest::fully_merged(&queries);
        prepare(&mut forest, &catalog);
        let candidates = map_forest(&forest, &catalog, &queries, &MapperConfig::default()).unwrap();
        let weights = CostWeights::default();

        let panzoom = candidates
            .iter()
            .find(|c| {
                c.charts.iter().any(|ch| {
                    ch.interactions.iter().any(|i| matches!(i, VizInteraction::PanZoom { .. }))
                })
            })
            .expect("pan/zoom candidate");
        let sliders = candidates
            .iter()
            .find(|c| c.widgets.iter().any(|w| matches!(w.kind, WidgetKind::RangeSlider { .. })))
            .expect("slider candidate");
        let cp = cost(panzoom, &forest, &queries, &catalog, &weights);
        let cs = cost(sliders, &forest, &queries, &catalog, &weights);
        assert!(cp.expressive && cs.expressive);
        assert!(cp.total < cs.total, "panzoom {} vs sliders {}", cp.total, cs.total);
    }

    #[test]
    fn inexpressive_forest_costs_infinity() {
        let catalog = pi2_datasets::toy::default_catalog();
        let queries: Vec<Query> = ["SELECT p FROM t WHERE a = 1", "SELECT b FROM t"]
            .iter()
            .map(|s| pi2_sql::parse_query(s).unwrap())
            .collect();
        // Forest covering only the first query.
        let forest = DiffForest::singletons(&queries[..1]);
        let candidates = map_forest(&forest, &catalog, &queries, &MapperConfig::default()).unwrap();
        let c = cost(&candidates[0], &forest, &queries, &catalog, &CostWeights::default());
        assert!(!c.expressive);
        assert!(c.total.is_infinite());
    }

    #[test]
    fn fewer_views_cost_less_when_merged() {
        // Two identically-shaped SDSS window queries: one interactive chart
        // beats two redundant statics (the Figure 1 argument).
        let catalog =
            pi2_datasets::sdss::catalog(&pi2_datasets::sdss::Config { objects: 300, seed: 4 });
        let queries = pi2_datasets::sdss::demo_queries();
        let weights = CostWeights::default();

        let mut merged = DiffForest::fully_merged(&queries);
        prepare(&mut merged, &catalog);
        let merged_best = {
            let cands = map_forest(&merged, &catalog, &queries, &MapperConfig::default()).unwrap();
            choose_best(&cands, &merged, &queries, &catalog, &weights).unwrap().1
        };

        let split = DiffForest::singletons(&queries);
        let split_best = {
            let cands = map_forest(&split, &catalog, &queries, &MapperConfig::default()).unwrap();
            choose_best(&cands, &split, &queries, &catalog, &weights).unwrap().1
        };
        assert!(
            merged_best.total < split_best.total,
            "merged {} vs split {}",
            merged_best.total,
            split_best.total
        );
    }

    #[test]
    fn narrow_screen_prefers_vertical_layout() {
        let catalog = pi2_datasets::toy::default_catalog();
        let queries = pi2_datasets::toy::fig2_queries();
        let forest = DiffForest::singletons(&queries);
        let weights = CostWeights::default();
        let cfg = MapperConfig { screen: ScreenSpec::NARROW, enumerate_variants: false };
        let cands = map_forest(&forest, &catalog, &queries, &cfg).unwrap();
        let (best_idx, _) = choose_best(&cands, &forest, &queries, &catalog, &weights).unwrap();
        // The chosen layout should not put three charts side by side on a
        // 480-px screen.
        let best = &cands[best_idx];
        let horizontal_charts = match &best.layout {
            Layout::Horizontal(xs) => xs.len(),
            Layout::Vertical(xs) => xs
                .iter()
                .map(|l| match l {
                    Layout::Horizontal(h) => h.len(),
                    _ => 1,
                })
                .max()
                .unwrap_or(1),
            _ => 1,
        };
        assert!(horizontal_charts <= 1, "layout {:?}", best.layout);
    }

    #[test]
    fn widget_effort_ordering_matches_paper_intuitions() {
        // toggle < radio < dropdown < text input; pan/zoom is cheapest.
        assert!(
            widget_effort(&WidgetKind::Toggle)
                < widget_effort(&WidgetKind::Radio { options: vec![] })
        );
        assert!(
            widget_effort(&WidgetKind::Radio { options: vec!["a".into()] })
                < widget_effort(&WidgetKind::Dropdown { options: vec!["a".into()] })
        );
        assert!(
            widget_effort(&WidgetKind::Dropdown { options: vec![] })
                < widget_effort(&WidgetKind::TextInput)
        );
        let pz = VizInteraction::PanZoom { x: None, y: None, x_field: None, y_field: None };
        assert!(interaction_effort(&pz) <= 0.10);
        // Four sliders (Hex) cost ≫ one pan/zoom (PI2) — the Figure 1 claim.
        let four_sliders = 4.0
            * widget_effort(&WidgetKind::Slider { min: 0.0, max: 1.0, step: 0.1, temporal: false });
        assert!(four_sliders > 5.0 * interaction_effort(&pz));
    }

    #[test]
    fn unmapped_choice_nodes_are_penalized() {
        let catalog = pi2_datasets::toy::default_catalog();
        let queries = pi2_datasets::toy::fig3_queries();
        let forest = DiffForest::fully_merged(&queries);
        let cands = map_forest(&forest, &catalog, &queries, &MapperConfig::default()).unwrap();
        let full = cost(&cands[0], &forest, &queries, &catalog, &CostWeights::default());
        // Strip all widgets: choices become unreachable.
        let mut stripped = cands[0].clone();
        stripped.widgets.clear();
        let c = cost(&stripped, &forest, &queries, &catalog, &CostWeights::default());
        assert!(c.interaction > full.interaction);
    }
}
