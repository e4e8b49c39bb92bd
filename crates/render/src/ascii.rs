//! ASCII rendering of charts, widgets, and layouts for the terminal.

use pi2_core::ChartUpdate;
use pi2_engine::ResultSet;
use pi2_interface::{Channel, Chart, Element, Interface, Layout, Mark, Widget, WidgetKind};

/// Default plot area for one chart, in characters.
const PLOT_W: usize = 56;
const PLOT_H: usize = 12;
/// Maximum bars / table rows shown.
const MAX_ROWS: usize = 16;

/// Render a whole interface with current chart data.
pub(crate) fn render_interface(interface: &Interface, updates: &[ChartUpdate]) -> String {
    let mut blocks = render_layout(&interface.layout, interface, updates);
    if blocks.is_empty() {
        blocks = vec!["(empty interface)".to_string()];
    }
    blocks.join("\n")
}

/// Render a live session: charts with current data, widgets with their
/// current positions (selected radio option, toggle state, slider value).
pub(crate) fn render_session(
    session: &pi2_core::InterfaceSession,
) -> Result<String, pi2_core::SessionError> {
    let updates = session.refresh_all()?;
    let states: std::collections::HashMap<usize, pi2_core::WidgetState> =
        session.widget_states().into_iter().collect();
    let interface = session.interface();
    let mut out = String::new();
    for block in render_layout_with_states(&interface.layout, interface, &updates, &states) {
        out.push_str(&block);
        out.push('\n');
    }
    Ok(out)
}

fn render_layout_with_states(
    layout: &Layout,
    interface: &Interface,
    updates: &[ChartUpdate],
    states: &std::collections::HashMap<usize, pi2_core::WidgetState>,
) -> Vec<String> {
    match layout {
        Layout::Leaf(Element::Widget(id)) => interface
            .widgets
            .iter()
            .find(|w| w.id == *id)
            .map(|w| vec![render_widget_with_state(w, states.get(id))])
            .unwrap_or_else(|| vec![format!("[missing widget {id}]")]),
        Layout::Vertical(items) => items
            .iter()
            .flat_map(|i| render_layout_with_states(i, interface, updates, states))
            .collect(),
        Layout::Horizontal(items) => {
            let columns: Vec<Vec<String>> = items
                .iter()
                .map(|i| render_layout_with_states(i, interface, updates, states))
                .collect();
            vec![hstack(&columns)]
        }
        leaf => render_layout(leaf, interface, updates),
    }
}

/// Render one widget showing its live state.
pub fn render_widget_with_state(widget: &Widget, state: Option<&pi2_core::WidgetState>) -> String {
    use pi2_core::WidgetState as S;
    match (&widget.kind, state) {
        (WidgetKind::Radio { options }, Some(S::Picked(sel))) => {
            let opts: Vec<String> = options
                .iter()
                .enumerate()
                .map(|(i, o)| format!("({}) {o}", if i == *sel { "•" } else { " " }))
                .collect();
            format!("{}: {}", widget.label, opts.join("  "))
        }
        (
            WidgetKind::ButtonGroup { options } | WidgetKind::Tabs { options },
            Some(S::Picked(sel)),
        ) => {
            let opts: Vec<String> = options
                .iter()
                .enumerate()
                .map(|(i, o)| if i == *sel { format!("[▸{o}]") } else { format!("[{o}]") })
                .collect();
            format!("{}: {}", widget.label, opts.join(" "))
        }
        (WidgetKind::Dropdown { options }, Some(S::Picked(sel))) => {
            format!(
                "{}: ▾ {} ({} options)",
                widget.label,
                options.get(*sel).cloned().unwrap_or_default(),
                options.len()
            )
        }
        (WidgetKind::Toggle, Some(S::Toggled(on))) => {
            format!("[{}] {}", if *on { "x" } else { " " }, widget.label)
        }
        (WidgetKind::Slider { min, max, temporal, .. }, Some(S::Value(v))) => {
            format!(
                "{}: {} ◀─ {} ─▶ {}",
                widget.label,
                fmt_axis(*min, *temporal),
                v,
                fmt_axis(*max, *temporal)
            )
        }
        (WidgetKind::RangeSlider { min, max, temporal, .. }, Some(S::Range(lo, hi))) => {
            format!(
                "{}: {} ◀─ {}══{} ─▶ {}",
                widget.label,
                fmt_axis(*min, *temporal),
                lo,
                hi,
                fmt_axis(*max, *temporal)
            )
        }
        (WidgetKind::MultiSelect { options }, Some(S::Flags(flags))) => {
            let opts: Vec<String> = options
                .iter()
                .zip(flags)
                .map(|(o, f)| format!("[{}] {o}", if *f { "x" } else { " " }))
                .collect();
            format!("{}: {}", widget.label, opts.join("  "))
        }
        _ => render_widget(widget),
    }
}

fn render_layout(layout: &Layout, interface: &Interface, updates: &[ChartUpdate]) -> Vec<String> {
    match layout {
        Layout::Leaf(Element::Chart(id)) => {
            let chart = interface.charts.iter().find(|c| c.id == *id);
            let update = updates.iter().find(|u| u.chart == *id);
            match (chart, update) {
                (Some(c), Some(u)) => vec![render_chart(c, &u.result)],
                (Some(c), None) => vec![format!("[{} {} — no data]", c.name, c.title)],
                _ => vec![format!("[missing chart {id}]")],
            }
        }
        Layout::Leaf(Element::Widget(id)) => interface
            .widgets
            .iter()
            .find(|w| w.id == *id)
            .map(|w| vec![render_widget(w)])
            .unwrap_or_else(|| vec![format!("[missing widget {id}]")]),
        Layout::Vertical(items) => {
            items.iter().flat_map(|i| render_layout(i, interface, updates)).collect()
        }
        Layout::Horizontal(items) => {
            let columns: Vec<Vec<String>> =
                items.iter().map(|i| render_layout(i, interface, updates)).collect();
            vec![hstack(&columns)]
        }
    }
}

/// Place rendered blocks side by side.
fn hstack(columns: &[Vec<String>]) -> String {
    let col_text: Vec<Vec<&str>> =
        columns.iter().map(|c| c.iter().flat_map(|b| b.lines()).collect::<Vec<&str>>()).collect();
    let widths: Vec<usize> = col_text
        .iter()
        .map(|lines| lines.iter().map(|l| l.chars().count()).max().unwrap_or(0))
        .collect();
    let rows = col_text.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = String::new();
    for r in 0..rows {
        for (c, lines) in col_text.iter().enumerate() {
            let line = lines.get(r).copied().unwrap_or("");
            out.push_str(line);
            let pad = widths[c].saturating_sub(line.chars().count()) + 2;
            out.push_str(&" ".repeat(pad));
        }
        while out.ends_with(' ') {
            out.pop();
        }
        out.push('\n');
    }
    out
}

/// Render one widget with its control affordance.
pub fn render_widget(widget: &Widget) -> String {
    match &widget.kind {
        WidgetKind::Radio { options } => {
            let opts: Vec<String> = options
                .iter()
                .enumerate()
                .map(|(i, o)| format!("({}) {o}", if i == 0 { "•" } else { " " }))
                .collect();
            format!("{}: {}", widget.label, opts.join("  "))
        }
        WidgetKind::ButtonGroup { options } => {
            let opts: Vec<String> = options.iter().map(|o| format!("[{o}]")).collect();
            format!("{}: {}", widget.label, opts.join(" "))
        }
        WidgetKind::Dropdown { options } => {
            format!(
                "{}: ▾ {} ({} options)",
                widget.label,
                options.first().cloned().unwrap_or_default(),
                options.len()
            )
        }
        WidgetKind::Toggle => format!("[x] {}", widget.label),
        WidgetKind::Slider { min, max, temporal, .. } => {
            format!(
                "{}: {} ◀──●──▶ {}",
                widget.label,
                fmt_axis(*min, *temporal),
                fmt_axis(*max, *temporal)
            )
        }
        WidgetKind::RangeSlider { min, max, temporal, .. } => {
            format!(
                "{}: {} ◀─●══●─▶ {}",
                widget.label,
                fmt_axis(*min, *temporal),
                fmt_axis(*max, *temporal)
            )
        }
        WidgetKind::Tabs { options } => {
            let opts: Vec<String> = options.iter().map(|o| format!("⟨{o}⟩")).collect();
            format!("tabs: {}", opts.join(" "))
        }
        WidgetKind::MultiSelect { options } => {
            let opts: Vec<String> = options.iter().map(|o| format!("[x] {o}")).collect();
            format!("{}: {}", widget.label, opts.join("  "))
        }
        WidgetKind::TextInput => format!("{}: [________]", widget.label),
    }
}

fn fmt_axis(v: f64, temporal: bool) -> String {
    if temporal {
        pi2_sql::Date(v.round() as i32).to_string()
    } else if v.abs() >= 1000.0 {
        format!("{:.0}", v)
    } else {
        format!("{v:.4}").trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

/// Render one chart with its current data.
pub fn render_chart(chart: &Chart, result: &ResultSet) -> String {
    let mut out = String::new();
    out.push_str(&format!("┌─ {} · {} ({:?})\n", chart.name, chart.title, chart.mark));
    for i in &chart.interactions {
        out.push_str(&format!("│  ⚡ {}\n", i.kind_name()));
    }
    let body = match chart.mark {
        Mark::Bar => render_bar(chart, result),
        Mark::Line | Mark::Area | Mark::Scatter => render_grid(chart, result),
        Mark::Heatmap => render_heatmap(chart, result),
        Mark::Table => truncate_table(result),
    };
    for line in body.lines() {
        out.push_str("│ ");
        out.push_str(line);
        out.push('\n');
    }
    out.push_str("└─\n");
    out
}

fn field_index(result: &ResultSet, chart: &Chart, channel: Channel) -> Option<usize> {
    let enc = chart.encoding(channel)?;
    result.schema.index_of(&enc.field)
}

fn truncate_table(result: &ResultSet) -> String {
    let capped =
        ResultSet::from_rows(result.schema.clone(), result.rows().take(MAX_ROWS).collect());
    let total = result.len();
    let mut s = String::new();
    for line in capped.to_ascii_table().lines() {
        s.push_str(&clip_line(line, PLOT_W));
        s.push('\n');
    }
    if total > MAX_ROWS {
        s.push_str(&format!("… {} more rows\n", total - MAX_ROWS));
    }
    s
}

/// Clip one rendered line to `width` glyphs, appending `…` when anything
/// was cut. Counting and cutting happen on `char` boundaries — a byte
/// index would split multi-byte glyphs (`─`, `█`, accented cell text) and
/// either panic or emit broken UTF-8 mid-cell on narrow terminals.
fn clip_line(line: &str, width: usize) -> String {
    let mut iter = line.char_indices();
    match iter.nth(width.saturating_sub(1)) {
        // Fewer than `width` glyphs, or exactly `width`: keep as is.
        None => line.to_string(),
        Some(_) if iter.next().is_none() => line.to_string(),
        Some((last, _)) => {
            let mut s = line[..last].to_string();
            s.push('…');
            s
        }
    }
}

fn render_bar(chart: &Chart, result: &ResultSet) -> String {
    let (Some(xi), Some(yi)) =
        (field_index(result, chart, Channel::X), field_index(result, chart, Channel::Y))
    else {
        return truncate_table(result);
    };
    let color_i = field_index(result, chart, Channel::Color);

    // Aggregate y per x (summing duplicates across color series for the
    // bar length; series count shown in the label).
    let mut order: Vec<String> = Vec::new();
    let mut totals: std::collections::HashMap<String, f64> = std::collections::HashMap::new();
    let mut series: std::collections::HashSet<String> = std::collections::HashSet::new();
    for row in result.rows() {
        let key = row[xi].to_string();
        if !totals.contains_key(&key) {
            order.push(key.clone());
        }
        *totals.entry(key).or_insert(0.0) += row[yi].as_f64().unwrap_or(0.0);
        if let Some(ci) = color_i {
            series.insert(row[ci].to_string());
        }
    }
    let max = totals.values().cloned().fold(0.0, f64::max).max(1e-9);
    let label_w = order.iter().map(|k| k.chars().count()).max().unwrap_or(1).min(14);
    let mut out = String::new();
    for key in order.iter().take(MAX_ROWS) {
        let v = totals[key];
        let bar_len = ((v / max) * (PLOT_W - label_w - 10) as f64).round().max(0.0) as usize;
        let mut label: String = key.chars().take(label_w).collect();
        while label.chars().count() < label_w {
            label.push(' ');
        }
        out.push_str(&format!("{label} ┤{} {}\n", "█".repeat(bar_len), human(v)));
    }
    if order.len() > MAX_ROWS {
        out.push_str(&format!("… {} more bars\n", order.len() - MAX_ROWS));
    }
    if !series.is_empty() {
        out.push_str(&format!(
            "({} series by {})\n",
            series.len(),
            chart.encoding(Channel::Color).map(|e| e.field.as_str()).unwrap_or("?")
        ));
    }
    out
}

fn render_grid(chart: &Chart, result: &ResultSet) -> String {
    let (Some(xi), Some(yi)) =
        (field_index(result, chart, Channel::X), field_index(result, chart, Channel::Y))
    else {
        return truncate_table(result);
    };
    let color_i = field_index(result, chart, Channel::Color);
    let pts: Vec<(f64, f64, Option<String>)> = result
        .rows()
        .filter_map(|row| {
            Some((row[xi].as_f64()?, row[yi].as_f64()?, color_i.map(|ci| row[ci].to_string())))
        })
        .collect();
    if pts.is_empty() {
        return "(no data)\n".to_string();
    }
    let (xmin, xmax) = min_max(pts.iter().map(|p| p.0));
    let (ymin, ymax) = min_max(pts.iter().map(|p| p.1));
    let glyphs = ['•', '+', 'x', 'o', '*', '#', '@', '~'];
    let mut series: Vec<String> = Vec::new();
    let mut grid = vec![vec![' '; PLOT_W]; PLOT_H];
    for (x, y, s) in &pts {
        let cx = scale(*x, xmin, xmax, PLOT_W - 1);
        let cy = PLOT_H - 1 - scale(*y, ymin, ymax, PLOT_H - 1);
        let glyph = match s {
            Some(name) => {
                let idx = series.iter().position(|n| n == name).unwrap_or_else(|| {
                    series.push(name.clone());
                    series.len() - 1
                });
                glyphs[idx % glyphs.len()]
            }
            None => '•',
        };
        grid[cy][cx] = glyph;
    }
    let temporal_x = matches!(result.schema.fields[xi].data_type, pi2_engine::DataType::Date);
    let mut out = String::new();
    out.push_str(&format!("{:>10} ┐\n", human(ymax)));
    for row in &grid {
        out.push_str("           │");
        out.push_str(&row.iter().collect::<String>());
        out.push('\n');
    }
    out.push_str(&format!("{:>10} └{}\n", human(ymin), "─".repeat(PLOT_W)));
    out.push_str(&format!(
        "            {}{}{}\n",
        fmt_axis(xmin, temporal_x),
        " ".repeat(
            PLOT_W.saturating_sub(
                fmt_axis(xmin, temporal_x).len() + fmt_axis(xmax, temporal_x).len()
            )
        ),
        fmt_axis(xmax, temporal_x)
    ));
    if !series.is_empty() {
        let legend: Vec<String> = series
            .iter()
            .enumerate()
            .take(8)
            .map(|(i, s)| format!("{} {s}", glyphs[i % glyphs.len()]))
            .collect();
        out.push_str(&format!("legend: {}\n", legend.join("  ")));
    }
    out
}

fn render_heatmap(chart: &Chart, result: &ResultSet) -> String {
    let (Some(xi), Some(yi)) =
        (field_index(result, chart, Channel::X), field_index(result, chart, Channel::Y))
    else {
        return truncate_table(result);
    };
    let Some(ci) = field_index(result, chart, Channel::Color) else {
        return truncate_table(result);
    };
    let mut xs: Vec<String> = Vec::new();
    let mut ys: Vec<String> = Vec::new();
    let mut cells: std::collections::HashMap<(usize, usize), f64> =
        std::collections::HashMap::new();
    for row in result.rows() {
        let xk = row[xi].to_string();
        let yk = row[yi].to_string();
        let x = xs.iter().position(|v| *v == xk).unwrap_or_else(|| {
            xs.push(xk.clone());
            xs.len() - 1
        });
        let y = ys.iter().position(|v| *v == yk).unwrap_or_else(|| {
            ys.push(yk.clone());
            ys.len() - 1
        });
        *cells.entry((x, y)).or_insert(0.0) += row[ci].as_f64().unwrap_or(0.0);
    }
    let max = cells.values().cloned().fold(0.0, f64::max).max(1e-9);
    let shades = [' ', '░', '▒', '▓', '█'];
    let label_w = ys.iter().map(|s| s.chars().count()).max().unwrap_or(1).min(12);
    let mut out = String::new();
    for (yidx, yk) in ys.iter().enumerate().take(MAX_ROWS) {
        let mut label: String = yk.chars().take(label_w).collect();
        while label.chars().count() < label_w {
            label.push(' ');
        }
        out.push_str(&format!("{label} "));
        for xidx in 0..xs.len().min(PLOT_W) {
            let v = cells.get(&(xidx, yidx)).copied().unwrap_or(0.0);
            let shade = shades[((v / max) * (shades.len() - 1) as f64).round() as usize];
            out.push(shade);
        }
        out.push('\n');
    }
    out.push_str(&format!("({} × {} cells, darker = larger)\n", xs.len(), ys.len()));
    out
}

fn min_max(values: impl Iterator<Item = f64>) -> (f64, f64) {
    let mut min = f64::INFINITY;
    let mut max = f64::NEG_INFINITY;
    for v in values {
        min = min.min(v);
        max = max.max(v);
    }
    if !min.is_finite() {
        (0.0, 1.0)
    } else if (max - min).abs() < 1e-12 {
        (min - 0.5, max + 0.5)
    } else {
        (min, max)
    }
}

fn scale(v: f64, min: f64, max: f64, steps: usize) -> usize {
    (((v - min) / (max - min)) * steps as f64).round().clamp(0.0, steps as f64) as usize
}

fn human(v: f64) -> String {
    if v.abs() >= 1_000_000.0 {
        format!("{:.1}M", v / 1_000_000.0)
    } else if v.abs() >= 10_000.0 {
        format!("{:.0}k", v / 1_000.0)
    } else if v.fract() == 0.0 {
        format!("{v:.0}")
    } else {
        format!("{v:.2}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_core::{Pi2, SearchStrategy};

    #[test]
    fn clip_line_cuts_on_glyph_boundaries() {
        // Narrower than the limit: untouched.
        assert_eq!(clip_line("ab", 5), "ab");
        // Exactly the limit (in glyphs, not bytes): untouched, even when
        // every glyph is multi-byte.
        assert_eq!(clip_line("─────", 5), "─────");
        // One over: clipped to width-1 glyphs plus the ellipsis, so the
        // result still fits in `width` terminal cells.
        assert_eq!(clip_line("──────", 5), "────…");
        assert_eq!(clip_line("abcdef", 5), "abcd…");
        // Mixed ASCII/multi-byte cell text must not split mid-glyph.
        let clipped = clip_line("naïve café row ──", 7);
        assert_eq!(clipped, "naïve …");
        assert_eq!(clipped.chars().count(), 7);
        // Degenerate widths stay valid UTF-8 and within budget.
        assert_eq!(clip_line("abc", 1), "…");
        assert_eq!(clip_line("", 0), "");
        assert!(clip_line("██████", 3).chars().count() <= 3);
    }

    #[test]
    fn wide_tables_clip_without_splitting_cells_glyphs() {
        use pi2_engine::{DataType, Field, Schema, Value};
        // A table whose ASCII rendering is far wider than PLOT_W, with
        // multi-byte text in the wide column.
        let schema = Schema {
            fields: vec![
                Field { name: "k".into(), data_type: DataType::Int },
                Field { name: "décor".into(), data_type: DataType::Str },
            ],
        };
        let rows = (0..3).map(|i| vec![Value::Int(i), Value::Str("é".repeat(120))]).collect();
        let result = ResultSet::from_rows(schema, rows);
        let text = truncate_table(&result);
        for line in text.lines() {
            assert!(
                line.chars().count() <= PLOT_W,
                "line wider than plot: {} glyphs",
                line.chars().count()
            );
            assert!(line.is_char_boundary(line.len()));
        }
        // Clipped body lines end in the ellipsis rather than a torn cell.
        assert!(text.lines().any(|l| l.ends_with('…')), "{text}");
    }

    #[test]
    fn renders_toy_interface_end_to_end() {
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
            .strategy(SearchStrategy::FullMerge)
            .build();
        let g = pi2
            .generate_sql(&[
                "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
                "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
            ])
            .unwrap();
        let session = pi2.session(&g);
        let updates = session.refresh_all().unwrap();
        let text = render_interface(&g.interface, &updates);
        assert!(text.contains("G1"), "{text}");
        assert!(text.contains('┤') || text.contains('│'), "{text}");
    }

    #[test]
    fn renders_line_chart_with_axes() {
        let catalog = pi2_datasets::covid::catalog(&pi2_datasets::covid::Config {
            state_limit: Some(4),
            ..Default::default()
        });
        let pi2 = Pi2::builder(catalog).strategy(SearchStrategy::FullMerge).build();
        let g = pi2
            .generate_sql(&[
                "SELECT date, sum(cases) AS cases FROM covid GROUP BY date ORDER BY date",
            ])
            .unwrap();
        let session = pi2.session(&g);
        let updates = session.refresh_all().unwrap();
        let text = render_interface(&g.interface, &updates);
        assert!(text.contains("2021-"), "{text}");
    }

    #[test]
    fn renders_heatmap() {
        let catalog = pi2_datasets::covid::catalog(&pi2_datasets::covid::Config {
            state_limit: Some(5),
            ..Default::default()
        });
        let pi2 = Pi2::builder(catalog).strategy(SearchStrategy::FullMerge).build();
        let g = pi2
            .generate_sql(&["SELECT r.region, c.state, sum(c.cases) AS cases FROM covid c \
                 JOIN regions r ON c.state = r.state GROUP BY r.region, c.state"])
            .unwrap();
        let session = pi2.session(&g);
        let updates = session.refresh_all().unwrap();
        let text = render_interface(&g.interface, &updates);
        assert!(text.contains("Heatmap"), "{text}");
        assert!(text.contains("darker = larger"), "{text}");
    }

    #[test]
    fn widget_rendering_covers_all_kinds() {
        use pi2_interface::{Target, Widget};
        let t = Target { tree: 0, node: 1 };
        let widgets = [
            WidgetKind::Radio { options: vec!["a".into(), "b".into()] },
            WidgetKind::ButtonGroup { options: vec!["South".into(), "Northeast".into()] },
            WidgetKind::Dropdown { options: vec!["x".into()] },
            WidgetKind::Toggle,
            WidgetKind::Slider { min: 0.0, max: 10.0, step: 1.0, temporal: false },
            WidgetKind::RangeSlider { min: 0.0, max: 10.0, step: 1.0, temporal: true },
            WidgetKind::Tabs { options: vec!["Q1".into(), "Q2".into()] },
            WidgetKind::TextInput,
        ];
        for kind in widgets {
            let w = Widget { id: 0, label: "w".into(), kind, targets: vec![t] };
            let s = render_widget(&w);
            assert!(!s.is_empty());
        }
    }

    #[test]
    fn session_rendering_shows_live_state() {
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
            .strategy(SearchStrategy::FullMerge)
            .build();
        let g = pi2
            .generate_sql(&[
                "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
                "SELECT p, count(*) FROM t WHERE b = 2 GROUP BY p",
                "SELECT a, count(*) FROM t GROUP BY a",
            ])
            .unwrap();
        let mut session = pi2.session(&g);
        let before = render_session(&session).unwrap();
        // Flip the toggle; the rendering must change state.
        if let Some(toggle) =
            g.interface.widgets.iter().find(|w| matches!(w.kind, WidgetKind::Toggle))
        {
            session
                .dispatch(pi2_core::Event::SetWidget {
                    widget: toggle.id,
                    value: pi2_core::WidgetValue::Bool(false),
                })
                .unwrap();
            let after = render_session(&session).unwrap();
            assert_ne!(before, after);
            assert!(after.contains("[ ]"), "{after}");
        }
    }

    #[test]
    fn hstack_aligns_columns() {
        let s = hstack(&[vec!["aa\nbb".to_string()], vec!["c".to_string()]]);
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("aa"));
        assert!(lines[0].contains('c'));
    }
}
