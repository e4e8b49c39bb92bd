//! The DiffTree-forest → interface mapper (paper Figure 6, step ②).
//!
//! Implements the three mappings as schema matching:
//!
//! * **𝕍 Visualization Mapping** — each tree's default instantiation is
//!   executed; its output field schema (types + cardinalities) selects a
//!   mark and encodings.
//! * **𝕄 Interaction Mapping** — each choice node's schema (Any arity /
//!   Opt / Hole domain, constrained column, range pairing) is matched
//!   against interaction capabilities, preferring in-visualization
//!   interactions when a chart axis carries the constrained column:
//!   a range pair on the chart's *own* axis → pan/zoom (Figure 1c); a
//!   range pair on *another* chart's axis → linked brushing (Figure 7);
//!   a single value on another chart's discrete axis → click binding
//!   (Figure 5); otherwise a widget chosen by domain shape.
//! * **𝕃 Layout Mapping** — widgets group into a panel; charts arrange
//!   horizontally, vertically, or in a grid depending on the screen.
//!
//! The mapper emits a small set of candidates (layout × interaction-mode
//! variants); the cost model ranks them.

use crate::model::*;
use crate::schema::{analyze, FieldInfo};
use pi2_difftree::{
    choices::choices, default_bindings, lower_query, Bindings, Choice, ChoiceKind, Clause,
    DiffForest, Domain,
};
use pi2_engine::{Catalog, ResultSet};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;

/// Mapper configuration.
#[derive(Debug, Clone, Default)]
pub struct MapperConfig {
    /// The screen the layout was computed for.
    pub screen: ScreenSpec,
}

/// Mapping errors.
#[derive(Debug, Clone)]
pub enum MapError {
    /// A tree could not be lowered to a default query.
    Lower(String),
    /// The default query failed to execute.
    Engine(String),
    /// The forest has no trees.
    EmptyForest,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Lower(m) => write!(f, "cannot lower tree: {m}"),
            MapError::Engine(m) => write!(f, "cannot execute default query: {m}"),
            MapError::EmptyForest => write!(f, "empty forest"),
        }
    }
}
impl std::error::Error for MapError {}

/// Per-tree analysis shared by the variants.
struct TreeAnalysis {
    result: Arc<ResultSet>,
    fields: Vec<FieldInfo>,
    choices: Vec<Choice>,
}

/// Map a forest to candidate interfaces (at least one).
///
/// Every layout is emitted twice: with in-visualization interactions and
/// as the widgets-only variant, so the cost model can weigh the value of
/// interacting with the charts themselves.
///
/// `log` is the original query log: each tree's *default* instantiation is
/// the witness of its first source query (see
/// [`pi2_difftree::default_bindings`]), which guarantees the default view
/// is a real query from the log even when a merge interleaves structurally
/// different queries. Pass `&[]` to fall back to structural defaults.
pub fn map_forest(
    forest: &DiffForest,
    catalog: &Catalog,
    log: &[pi2_sql::Query],
    cfg: &MapperConfig,
) -> Result<Vec<Interface>, MapError> {
    if forest.trees.is_empty() {
        return Err(MapError::EmptyForest);
    }
    let mut analyses = Vec::with_capacity(forest.trees.len());
    for tree in &forest.trees {
        let defaults = if log.is_empty() { Bindings::new() } else { default_bindings(tree, log) };
        let q = lower_query(tree, &defaults).map_err(|e| MapError::Lower(e.to_string()))?;
        let result = catalog.execute(&q).map_err(|e| MapError::Engine(e.to_string()))?;
        let fields = analyze(&result);
        analyses.push(TreeAnalysis { result, fields, choices: choices(tree) });
    }

    let charts_base: Vec<Chart> = analyses
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let (mark, encodings) = choose_chart(&a.fields);
            Chart {
                id: i,
                name: format!("G{}", i + 1),
                title: chart_title(&encodings, &a.fields),
                mark,
                encodings,
                tree: i,
                interactions: Vec::new(),
            }
        })
        .collect();

    let mut out = Vec::new();
    for viz_interactions in [true, false] {
        let (charts, widgets) =
            map_interactions(forest, &analyses, charts_base.clone(), viz_interactions);
        for layout in layout_variants(&charts, &widgets, cfg.screen) {
            let iface = Interface {
                charts: charts.clone(),
                widgets: widgets.clone(),
                layout,
                screen: cfg.screen,
            };
            if !out.contains(&iface) {
                out.push(iface);
            }
        }
    }
    Ok(out)
}

/// 𝕍: choose a mark and encodings from the output field schema. Public
/// because the Lux-style baseline uses the same recommendation heuristic
/// on single results.
pub fn choose_chart(fields: &[FieldInfo]) -> (Mark, Vec<Encoding>) {
    let enc = |f: &FieldInfo, channel| Encoding {
        channel,
        field: f.name.clone(),
        field_type: f.field_type,
    };

    // Pick an x axis: temporal > low-cardinality nominal > ordinal > quantitative.
    let x_idx = fields
        .iter()
        .position(|f| f.field_type == FieldType::Temporal)
        .or_else(|| {
            fields.iter().position(|f| f.field_type == FieldType::Nominal && f.distinct <= 30)
        })
        .or_else(|| fields.iter().position(|f| f.field_type == FieldType::Ordinal))
        .or_else(|| fields.iter().position(|f| f.field_type == FieldType::Quantitative));
    let Some(x_idx) = x_idx else {
        return (Mark::Table, fields.iter().map(|f| enc(f, Channel::Detail)).collect());
    };
    let x = &fields[x_idx];

    // Pick a y axis: a quantitative field other than x; aggregates over
    // small domains classify as ordinal, so fall back to any numeric field.
    let y_idx = fields
        .iter()
        .enumerate()
        .position(|(i, f)| i != x_idx && f.field_type == FieldType::Quantitative)
        .or_else(|| {
            fields.iter().enumerate().position(|(i, f)| {
                i != x_idx
                    && matches!(
                        f.data_type,
                        pi2_engine::DataType::Int | pi2_engine::DataType::Float
                    )
            })
        });
    let Some(y_idx) = y_idx else {
        return (Mark::Table, fields.iter().map(|f| enc(f, Channel::Detail)).collect());
    };
    let y = &fields[y_idx];

    // Color: a remaining small nominal/ordinal field.
    let color_idx = fields.iter().enumerate().position(|(i, f)| {
        i != x_idx
            && i != y_idx
            && matches!(f.field_type, FieldType::Nominal | FieldType::Ordinal)
            && f.distinct <= 12
    });

    // A second nominal axis with a quantitative value → heatmap.
    if x.field_type == FieldType::Nominal {
        if let Some(n2) = fields.iter().enumerate().position(|(i, f)| {
            i != x_idx && i != y_idx && f.field_type == FieldType::Nominal && f.distinct <= 30
        }) {
            return (
                Mark::Heatmap,
                vec![enc(x, Channel::X), enc(&fields[n2], Channel::Y), enc(y, Channel::Color)],
            );
        }
    }

    let mark = match x.field_type {
        FieldType::Temporal => Mark::Line,
        FieldType::Nominal | FieldType::Ordinal => Mark::Bar,
        FieldType::Quantitative => Mark::Scatter,
    };
    let mut encodings = vec![enc(x, Channel::X), enc(y, Channel::Y)];
    if let Some(ci) = color_idx {
        encodings.push(enc(&fields[ci], Channel::Color));
    }
    (mark, encodings)
}

fn chart_title(encodings: &[Encoding], fields: &[FieldInfo]) -> String {
    let x = encodings.iter().find(|e| e.channel == Channel::X);
    let y = encodings.iter().find(|e| e.channel == Channel::Y);
    match (x, y) {
        (Some(x), Some(y)) => {
            let color = encodings.iter().find(|e| e.channel == Channel::Color);
            match color {
                Some(c) => format!("{} by {} per {}", y.field, x.field, c.field),
                None => format!("{} by {}", y.field, x.field),
            }
        }
        _ => {
            let names: Vec<&str> = fields.iter().map(|f| f.name.as_str()).collect();
            names.join(", ")
        }
    }
}

/// 𝕄: assign each choice node to an interaction.
fn map_interactions(
    forest: &DiffForest,
    analyses: &[TreeAnalysis],
    mut charts: Vec<Chart>,
    prefer_viz: bool,
) -> (Vec<Chart>, Vec<Widget>) {
    let mut widgets: Vec<Widget> = Vec::new();
    let mut consumed: HashSet<Target> = HashSet::new();
    let mut widget_id = 0;
    let mut push_widget =
        |widgets: &mut Vec<Widget>, label: String, kind: WidgetKind, targets: Vec<Target>| {
            widgets.push(Widget { id: widget_id, label, kind, targets });
            widget_id += 1;
        };

    for (ti, analysis) in analyses.iter().enumerate() {
        for c in &analysis.choices {
            let target = Target { tree: ti, node: c.id };
            if consumed.contains(&target) {
                continue;
            }
            match &c.kind {
                ChoiceKind::Hole { domain, source_column } => {
                    // Range pair? Handle once, from the low endpoint.
                    if let Some(role) = &c.context.range_role {
                        if !role.is_low {
                            continue; // handled from the low end
                        }
                        let partner = Target { tree: ti, node: role.partner };
                        let col = &role.column.column;
                        consumed.insert(target);
                        consumed.insert(partner);

                        // Visualization interactions emit values from a
                        // continuous gesture, so they require a continuous
                        // hole domain (the generalize-hole-domain rule
                        // produces one); otherwise fall through to widgets.
                        if prefer_viz && domain.is_continuous() {
                            // Another chart's x axis → linked brush (the
                            // paper's V1: brushing the overview configures
                            // the detail view). The host is the chart whose
                            // x axis spans the widest extent — the overview
                            // — with row count as the tie breaker.
                            let mut best: Option<(usize, (f64, usize))> = None;
                            for (ci, chart) in charts.iter().enumerate() {
                                if ci == ti {
                                    continue;
                                }
                                if axis_field(chart, Channel::X)
                                    .is_some_and(|f| f.eq_ignore_ascii_case(col))
                                {
                                    let extent = x_extent(chart, &analyses[chart.tree]);
                                    let rows = analyses[chart.tree].result.len();
                                    if best.is_none_or(|(_, (e, r))| {
                                        extent > e || (extent == e && rows > r)
                                    }) {
                                        best = Some((ci, (extent, rows)));
                                    }
                                }
                            }
                            if let Some((ci, _)) = best {
                                charts[ci].interactions.push(VizInteraction::BrushX {
                                    field: col.clone(),
                                    low: target,
                                    high: partner,
                                });
                                continue;
                            }
                            // Own chart's axis → pan/zoom (Figure 1c). A
                            // second pair on an occupied axis falls through
                            // to the range-slider fallback.
                            let own = charts[ti].clone();
                            if axis_field(&own, Channel::X)
                                .is_some_and(|f| f.eq_ignore_ascii_case(col))
                                && attach_panzoom(&mut charts[ti], true, (target, partner), col)
                            {
                                continue;
                            }
                            if axis_field(&own, Channel::Y)
                                .is_some_and(|f| f.eq_ignore_ascii_case(col))
                                && attach_panzoom(&mut charts[ti], false, (target, partner), col)
                            {
                                continue;
                            }
                        }
                        // Fall back to a range slider.
                        if let Some((min, max, step, temporal)) = slider_params(domain) {
                            push_widget(
                                &mut widgets,
                                col.clone(),
                                WidgetKind::RangeSlider { min, max, step, temporal },
                                vec![target, partner],
                            );
                        } else {
                            // Discrete range endpoints: two dropdowns.
                            let options = domain_options(domain);
                            push_widget(
                                &mut widgets,
                                format!("{col} (from)"),
                                WidgetKind::Dropdown { options: options.clone() },
                                vec![target],
                            );
                            push_widget(
                                &mut widgets,
                                format!("{col} (to)"),
                                WidgetKind::Dropdown { options },
                                vec![partner],
                            );
                        }
                        continue;
                    }

                    // Single hole.
                    consumed.insert(target);
                    let label = source_column
                        .as_ref()
                        .map(|c| c.column.clone())
                        .unwrap_or_else(|| "value".to_string());
                    // Click binding: another chart's discrete x axis shows
                    // this column (Figure 5).
                    if prefer_viz {
                        if let Some(col) = source_column {
                            let click_chart = charts.iter().position(|chart| {
                                chart.tree != ti
                                    && chart.mark == Mark::Bar
                                    && axis_field(chart, Channel::X)
                                        .is_some_and(|f| f.eq_ignore_ascii_case(&col.column))
                                    && x_values_in_domain(chart, &analyses[chart.tree], domain)
                            });
                            if let Some(ci) = click_chart {
                                charts[ci].interactions.push(VizInteraction::ClickBind {
                                    field: col.column.clone(),
                                    target,
                                });
                                continue;
                            }
                        }
                    }
                    match domain {
                        Domain::Discrete(items) => {
                            let options: Vec<String> = items.iter().map(option_label).collect();
                            let kind = match options.len() {
                                0..=3 => WidgetKind::ButtonGroup { options },
                                4..=7 => WidgetKind::Radio { options },
                                _ => WidgetKind::Dropdown { options },
                            };
                            push_widget(&mut widgets, label, kind, vec![target]);
                        }
                        d => {
                            if let Some((min, max, step, temporal)) = slider_params(d) {
                                push_widget(
                                    &mut widgets,
                                    label,
                                    WidgetKind::Slider { min, max, step, temporal },
                                    vec![target],
                                );
                            } else {
                                push_widget(
                                    &mut widgets,
                                    label,
                                    WidgetKind::TextInput,
                                    vec![target],
                                );
                            }
                        }
                    }
                }
                ChoiceKind::Any { options } => {
                    consumed.insert(target);
                    let label = c
                        .context
                        .compared_column
                        .as_ref()
                        .map(|col| col.column.clone())
                        .unwrap_or_else(|| clause_label(c.context.clause).to_string());
                    let kind = if c.context.clause == Clause::Root {
                        WidgetKind::Tabs { options: options.clone() }
                    } else {
                        match options.len() {
                            0..=3 => WidgetKind::ButtonGroup { options: options.clone() },
                            4..=7 => WidgetKind::Radio { options: options.clone() },
                            _ => WidgetKind::Dropdown { options: options.clone() },
                        }
                    };
                    push_widget(&mut widgets, label, kind, vec![target]);
                }
                ChoiceKind::Opt { summary } => {
                    consumed.insert(target);
                    // Optional IN-list members group into one multi-select
                    // (the SUBSET choice): collect every sibling OPT of the
                    // same list.
                    if let Some(group) = c.context.in_list_group {
                        let mut options = vec![summary.clone()];
                        let mut targets = vec![target];
                        for sibling in &analysis.choices {
                            if sibling.id == c.id || sibling.context.in_list_group != Some(group) {
                                continue;
                            }
                            if let ChoiceKind::Opt { summary: s2 } = &sibling.kind {
                                let t2 = Target { tree: ti, node: sibling.id };
                                if consumed.insert(t2) {
                                    options.push(s2.clone());
                                    targets.push(t2);
                                }
                            }
                        }
                        if options.len() > 1 {
                            push_widget(
                                &mut widgets,
                                c.context
                                    .compared_column
                                    .as_ref()
                                    .map(|col| col.column.clone())
                                    .unwrap_or_else(|| "include".to_string()),
                                WidgetKind::MultiSelect { options },
                                targets,
                            );
                            continue;
                        }
                    }
                    push_widget(&mut widgets, summary.clone(), WidgetKind::Toggle, vec![target]);
                }
            }
        }
    }
    let _ = forest;
    (charts, widgets)
}

fn axis_field(chart: &Chart, channel: Channel) -> Option<&str> {
    chart.encoding(channel).map(|e| e.field.as_str())
}

/// Numeric width of the chart's x-axis extent (0 for non-numeric axes).
fn x_extent(chart: &Chart, analysis: &TreeAnalysis) -> f64 {
    let Some(field) = axis_field(chart, Channel::X) else { return 0.0 };
    let Some(idx) = analysis.result.schema.index_of(field) else { return 0.0 };
    let stats = analysis.result.column_stats(idx);
    match (stats.min.as_ref().and_then(|v| v.as_f64()), stats.max.as_ref().and_then(|v| v.as_f64()))
    {
        (Some(a), Some(b)) => b - a,
        _ => 0.0,
    }
}

/// Every x value the chart displays must be inside the hole's domain, or a
/// click could produce a query the DiffTree does not express.
fn x_values_in_domain(chart: &Chart, analysis: &TreeAnalysis, domain: &Domain) -> bool {
    let Some(field) = axis_field(chart, Channel::X) else { return false };
    let Some(idx) = analysis.result.schema.index_of(field) else { return false };
    analysis.result.column(idx).filter(|v| !v.is_null()).all(|v| domain.contains(&v.to_literal()))
}

/// Attach a pan/zoom axis to the chart; `false` when the axis is already
/// taken (a second range pair on the same column must fall back to a
/// widget — stacking another PanZoom would leave a dead interaction that
/// events never reach).
fn attach_panzoom(chart: &mut Chart, is_x: bool, pair: (Target, Target), field: &str) -> bool {
    // Merge into an existing PanZoom on the same chart (ra + dec → one 2-D
    // pan/zoom, Figure 1c).
    for i in &mut chart.interactions {
        if let VizInteraction::PanZoom { x, y, x_field, y_field } = i {
            if is_x {
                if x.is_none() {
                    *x = Some(pair);
                    *x_field = Some(field.to_string());
                    return true;
                }
            } else if y.is_none() {
                *y = Some(pair);
                *y_field = Some(field.to_string());
                return true;
            }
            return false;
        }
    }
    let (x, y, x_field, y_field) = if is_x {
        (Some(pair), None, Some(field.to_string()), None)
    } else {
        (None, Some(pair), None, Some(field.to_string()))
    };
    chart.interactions.push(VizInteraction::PanZoom { x, y, x_field, y_field });
    true
}

fn clause_label(clause: Clause) -> &'static str {
    match clause {
        Clause::Projection => "measure",
        Clause::From => "source",
        Clause::Where => "filter",
        Clause::GroupBy => "group by",
        Clause::Having => "having",
        Clause::OrderBy => "order",
        Clause::Limit => "limit",
        Clause::On => "join",
        Clause::Root => "query",
    }
}

/// Convert a continuous domain into slider parameters
/// `(min, max, step, temporal)` in f64 space (dates use day numbers).
fn slider_params(domain: &Domain) -> Option<(f64, f64, f64, bool)> {
    match domain {
        Domain::IntRange { min, max } => {
            let (a, b) = (*min as f64, *max as f64);
            Some((a, b, ((b - a) / 100.0).max(1.0).floor(), false))
        }
        Domain::FloatRange { min, max } => {
            let (a, b) = (min.0, max.0);
            Some((a, b, ((b - a) / 100.0).max(f64::EPSILON), false))
        }
        Domain::DateRange { min, max } => Some((min.0 as f64, max.0 as f64, 1.0, true)),
        Domain::Discrete(_) => None,
    }
}

fn domain_options(domain: &Domain) -> Vec<String> {
    match domain {
        Domain::Discrete(items) => items.iter().map(option_label).collect(),
        _ => Vec::new(),
    }
}

/// Display label for a discrete option: strings drop their SQL quotes.
pub fn option_label(l: &pi2_sql::Literal) -> String {
    match l {
        pi2_sql::Literal::Str(s) => s.clone(),
        other => other.to_string(),
    }
}

/// 𝕃: enumerate layout candidates for the screen.
fn layout_variants(charts: &[Chart], widgets: &[Widget], screen: ScreenSpec) -> Vec<Layout> {
    let widget_panel = (!widgets.is_empty()).then(|| {
        Layout::Vertical(widgets.iter().map(|w| Layout::Leaf(Element::Widget(w.id))).collect())
    });
    let chart_leaves: Vec<Layout> =
        charts.iter().map(|c| Layout::Leaf(Element::Chart(c.id))).collect();

    let mut chart_arrangements: Vec<Layout> = Vec::new();
    if charts.len() == 1 {
        chart_arrangements.push(chart_leaves[0].clone());
    } else {
        chart_arrangements.push(Layout::Horizontal(chart_leaves.clone()));
        chart_arrangements.push(Layout::Vertical(chart_leaves.clone()));
        // Grid: rows of `per_row` charts.
        let per_row = ((screen.width / 420).max(1) as usize).min(charts.len());
        if per_row > 1 && per_row < charts.len() {
            let rows: Vec<Layout> =
                chart_leaves.chunks(per_row).map(|row| Layout::Horizontal(row.to_vec())).collect();
            chart_arrangements.push(Layout::Vertical(rows));
        }
    }

    let mut out = Vec::new();
    for arr in chart_arrangements {
        let layout = match &widget_panel {
            Some(panel) => Layout::Vertical(vec![panel.clone(), arr]),
            None => arr,
        };
        if !out.contains(&layout) {
            out.push(layout);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_difftree::rules::all_rules;

    fn forest_of(sqls: &[&str]) -> DiffForest {
        let queries: Vec<pi2_sql::Query> =
            sqls.iter().map(|s| pi2_sql::parse_query(s).unwrap()).collect();
        DiffForest::fully_merged(&queries)
    }

    /// Apply collapse-literal + generalize-domain rules until fixpoint, so
    /// literal ANYs become holes with continuous domains (the pipeline
    /// state the interaction mapper exploits).
    fn prepare(forest: &mut DiffForest, catalog: &pi2_engine::Catalog) {
        let rules = all_rules(Some(catalog.clone()));
        for tree in &mut forest.trees {
            loop {
                let mut progressed = false;
                for rule in &rules {
                    if ["collapse-literal-any", "generalize-hole-domain"].contains(&rule.name()) {
                        while let Some(&loc) = rule.applications(tree).first() {
                            if let Some(next) = rule.apply(tree, loc) {
                                *tree = next;
                                progressed = true;
                            } else {
                                break;
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
    fn sdss_region_queries_map_to_panzoom() {
        let catalog =
            pi2_datasets::sdss::catalog(&pi2_datasets::sdss::Config { objects: 500, seed: 1 });
        let queries = pi2_datasets::sdss::demo_queries();
        let mut forest = DiffForest::fully_merged(&queries);
        prepare(&mut forest, &catalog);
        let ifaces = map_forest(&forest, &catalog, &[], &MapperConfig::default()).unwrap();
        let best = &ifaces[0];
        assert_eq!(best.charts.len(), 1);
        assert_eq!(best.charts[0].mark, Mark::Scatter);
        // ra and dec ranges should fold into one 2-D pan/zoom (Figure 1c).
        let pz: Vec<_> = best.charts[0]
            .interactions
            .iter()
            .filter(|i| matches!(i, VizInteraction::PanZoom { .. }))
            .collect();
        assert_eq!(pz.len(), 1, "{:?}", best.charts[0].interactions);
        let VizInteraction::PanZoom { x, y, .. } = pz[0] else { unreachable!() };
        assert!(x.is_some() && y.is_some());
        assert!(best.widgets.is_empty(), "{:?}", best.widgets);
    }

    #[test]
    fn covid_overview_detail_maps_to_linked_brush() {
        let catalog = pi2_datasets::covid::catalog(&pi2_datasets::covid::Config {
            state_limit: Some(8),
            ..Default::default()
        });
        // Q1 overview + Q2/Q2b detail windows → two trees: overview chart
        // brushes the detail chart's date range (paper V1).
        let queries = pi2_datasets::covid::demo_queries_step(3);
        let overview = DiffForest::singletons(&queries[..1]);
        let detail = DiffForest::fully_merged(&queries[1..3]);
        let mut forest =
            DiffForest { trees: vec![overview.trees[0].clone(), detail.trees[0].clone()] };
        prepare(&mut forest, &catalog);

        let ifaces = map_forest(&forest, &catalog, &[], &MapperConfig::default()).unwrap();
        let best = &ifaces[0];
        assert_eq!(best.charts.len(), 2);
        // The overview chart (tree 0) carries a brush driving tree 1's holes.
        let brushes: Vec<_> = best.charts[0]
            .interactions
            .iter()
            .filter(|i| matches!(i, VizInteraction::BrushX { .. }))
            .collect();
        assert_eq!(brushes.len(), 1, "{:#?}", best.charts);
        let VizInteraction::BrushX { low, high, field } = brushes[0] else { unreachable!() };
        assert_eq!(field, "date");
        assert_eq!(low.tree, 1);
        assert_eq!(high.tree, 1);
    }

    #[test]
    fn widgets_only_variant_uses_range_slider() {
        let catalog =
            pi2_datasets::sdss::catalog(&pi2_datasets::sdss::Config { objects: 300, seed: 1 });
        let queries = pi2_datasets::sdss::demo_queries();
        let mut forest = DiffForest::fully_merged(&queries);
        prepare(&mut forest, &catalog);
        let ifaces = map_forest(&forest, &catalog, &[], &MapperConfig::default()).unwrap();
        // Some variant should use range sliders instead of pan/zoom.
        let slider_variant = ifaces
            .iter()
            .find(|i| i.widgets.iter().any(|w| matches!(w.kind, WidgetKind::RangeSlider { .. })));
        assert!(slider_variant.is_some(), "{} variants", ifaces.len());
    }

    #[test]
    fn opt_maps_to_toggle_and_any_to_buttons() {
        let catalog = pi2_datasets::toy::default_catalog();
        let forest = forest_of(&[
            "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
            "SELECT p, count(*) FROM t WHERE b = 2 GROUP BY p",
            "SELECT a, count(*) FROM t GROUP BY a",
        ]);
        let ifaces = map_forest(&forest, &catalog, &[], &MapperConfig::default()).unwrap();
        let best = &ifaces[0];
        let kinds: Vec<&str> = best.widgets.iter().map(|w| w.kind.kind_name()).collect();
        assert!(kinds.contains(&"toggle"), "{kinds:?}");
        assert!(kinds.contains(&"button-group"), "{kinds:?}");
    }

    #[test]
    fn fig5_click_binding_on_bar_chart() {
        let catalog = pi2_datasets::toy::default_catalog();
        let queries = pi2_datasets::toy::fig5_queries();
        // Two trees: Q1+Q2 merged (literal-only diff), Q3 separate.
        let merged = DiffForest::fully_merged(&queries[..2]);
        let q3 = DiffForest::singletons(&queries[2..]);
        let mut forest = DiffForest { trees: vec![merged.trees[0].clone(), q3.trees[0].clone()] };
        prepare(&mut forest, &catalog);
        let ifaces = map_forest(&forest, &catalog, &[], &MapperConfig::default()).unwrap();
        let best = &ifaces[0];
        // Q3's bar chart (x = a) should carry a click binding driving the
        // literal hole in tree 0.
        let clicks: Vec<_> = best
            .charts
            .iter()
            .flat_map(|c| &c.interactions)
            .filter(|i| matches!(i, VizInteraction::ClickBind { .. }))
            .collect();
        assert_eq!(clicks.len(), 1, "{:#?}", best.charts);
        let VizInteraction::ClickBind { field, target } = clicks[0] else { unreachable!() };
        assert_eq!(field, "a");
        assert_eq!(target.tree, 0);
    }

    #[test]
    fn single_static_query_maps_to_chart_without_interactions() {
        let catalog = pi2_datasets::toy::default_catalog();
        let forest = forest_of(&["SELECT a, count(*) FROM t GROUP BY a"]);
        let ifaces = map_forest(&forest, &catalog, &[], &MapperConfig::default()).unwrap();
        let best = &ifaces[0];
        assert_eq!(best.charts.len(), 1);
        assert_eq!(best.charts[0].mark, Mark::Bar);
        assert!(best.widgets.is_empty());
        assert_eq!(best.interaction_count(), 0);
    }

    #[test]
    fn layout_variants_for_multi_chart() {
        let catalog = pi2_datasets::toy::default_catalog();
        let queries = pi2_datasets::toy::fig2_queries();
        let forest = DiffForest::singletons(&queries);
        let ifaces = map_forest(&forest, &catalog, &[], &MapperConfig::default()).unwrap();
        // Horizontal + vertical variants at least.
        assert!(ifaces.len() >= 2);
        let layouts: HashSet<String> = ifaces.iter().map(|i| format!("{:?}", i.layout)).collect();
        assert!(layouts.len() >= 2);
    }

    #[test]
    fn two_nominal_axes_map_to_heatmap() {
        let catalog = pi2_datasets::covid::catalog(&pi2_datasets::covid::Config {
            state_limit: Some(6),
            ..Default::default()
        });
        let forest = forest_of(&[
            "SELECT r.region, c.state, sum(c.cases) AS cases FROM covid c              JOIN regions r ON c.state = r.state GROUP BY r.region, c.state",
        ]);
        let ifaces = map_forest(&forest, &catalog, &[], &MapperConfig::default()).unwrap();
        let chart = &ifaces[0].charts[0];
        assert_eq!(chart.mark, Mark::Heatmap, "{chart:?}");
        assert!(chart.encoding(Channel::Color).is_some());
    }

    #[test]
    fn root_any_maps_to_tabs() {
        // Two queries whose Query nodes differ (DISTINCT flag) merge to an
        // ANY over whole queries — the tab-strip case.
        let catalog = pi2_datasets::toy::default_catalog();
        let forest =
            forest_of(&["SELECT a, count(*) FROM t GROUP BY a", "SELECT DISTINCT p FROM t"]);
        assert!(matches!(forest.trees[0].root.kind, pi2_difftree::NodeKind::Any));
        let ifaces = map_forest(&forest, &catalog, &[], &MapperConfig::default()).unwrap();
        let tabs = ifaces[0].widgets.iter().find(|w| matches!(w.kind, WidgetKind::Tabs { .. }));
        assert!(tabs.is_some(), "{:?}", ifaces[0].widgets);
    }

    #[test]
    fn empty_forest_is_error() {
        let catalog = pi2_datasets::toy::default_catalog();
        let forest = DiffForest { trees: vec![] };
        assert!(map_forest(&forest, &catalog, &[], &MapperConfig::default()).is_err());
    }

    #[test]
    fn non_aggregate_wide_result_falls_back_to_table() {
        let catalog = pi2_datasets::sp500::catalog(&pi2_datasets::sp500::Config::default());
        let forest = forest_of(&["SELECT ticker, name, sector FROM companies"]);
        let ifaces = map_forest(&forest, &catalog, &[], &MapperConfig::default()).unwrap();
        assert_eq!(ifaces[0].charts[0].mark, Mark::Table);
    }
}
