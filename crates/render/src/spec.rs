//! Vega-Lite-style JSON specs for generated interfaces — the serialization
//! a browser front end (like the original Jupyter extension) would consume.

use pi2_core::ChartUpdate;
use pi2_interface::{
    Channel, Chart, Element, FieldType, Interface, Layout, VizInteraction, Widget, WidgetKind,
};
use serde_json::{json, Value as Json};

/// The JSON spec of a whole interface, optionally with inline data.
pub(crate) fn interface_spec(interface: &Interface, updates: &[ChartUpdate]) -> Json {
    json!({
        "$schema": "pi2-interface/v1",
        "screen": { "width": interface.screen.width, "height": interface.screen.height },
        "charts": interface.charts.iter().map(|c| {
            let data = updates.iter().find(|u| u.chart == c.id);
            chart_spec(c, data)
        }).collect::<Vec<_>>(),
        "widgets": interface.widgets.iter().map(widget_spec).collect::<Vec<_>>(),
        "layout": layout_spec(&interface.layout),
    })
}

fn field_type_name(t: FieldType) -> &'static str {
    match t {
        FieldType::Quantitative => "quantitative",
        FieldType::Nominal => "nominal",
        FieldType::Ordinal => "ordinal",
        FieldType::Temporal => "temporal",
    }
}

/// The spec of one chart, with inline data when an update is provided.
pub(crate) fn chart_spec(chart: &Chart, update: Option<&ChartUpdate>) -> Json {
    let mut encoding = serde_json::Map::new();
    for enc in &chart.encodings {
        let channel = match enc.channel {
            Channel::X => "x",
            Channel::Y => "y",
            Channel::Color => "color",
            Channel::Size => "size",
            Channel::Detail => "detail",
        };
        encoding.insert(
            channel.to_string(),
            json!({ "field": enc.field, "type": field_type_name(enc.field_type) }),
        );
    }
    let mark = match chart.mark {
        pi2_interface::Mark::Bar => "bar",
        pi2_interface::Mark::Line => "line",
        pi2_interface::Mark::Area => "area",
        pi2_interface::Mark::Scatter => "point",
        pi2_interface::Mark::Table => "table",
        pi2_interface::Mark::Heatmap => "rect",
    };
    let mut spec = json!({
        "name": chart.name,
        "title": chart.title,
        "mark": mark,
        "encoding": encoding,
        "interactions": chart.interactions.iter().map(interaction_spec).collect::<Vec<_>>(),
    });
    if let Some(u) = update {
        let columns: Vec<&str> = u.result.schema.fields.iter().map(|f| f.name.as_str()).collect();
        let rows: Vec<Json> = u
            .result
            .rows()
            .map(|row| {
                let obj: serde_json::Map<String, Json> = columns
                    .iter()
                    .zip(&row)
                    .map(|(c, v)| ((*c).to_string(), value_json(v)))
                    .collect();
                Json::Object(obj)
            })
            .collect();
        spec["data"] = json!({ "values": rows });
        spec["query"] = json!(u.query.to_string());
    }
    spec
}

fn value_json(v: &pi2_engine::Value) -> Json {
    match v {
        pi2_engine::Value::Null => Json::Null,
        pi2_engine::Value::Bool(b) => json!(b),
        pi2_engine::Value::Int(i) => json!(i),
        pi2_engine::Value::Float(f) => json!(f),
        pi2_engine::Value::Str(s) => json!(s),
        pi2_engine::Value::Date(d) => json!(d.to_string()),
    }
}

fn interaction_spec(i: &VizInteraction) -> Json {
    match i {
        VizInteraction::BrushX { field, low, high } => json!({
            "type": "brush-x",
            "field": field,
            "binds": [{ "tree": low.tree, "node": low.node }, { "tree": high.tree, "node": high.node }],
        }),
        VizInteraction::PanZoom { x, y, x_field, y_field } => json!({
            "type": "pan-zoom",
            "x_field": x_field,
            "y_field": y_field,
            "binds_x": x.map(|(a, b)| json!([{ "tree": a.tree, "node": a.node }, { "tree": b.tree, "node": b.node }])),
            "binds_y": y.map(|(a, b)| json!([{ "tree": a.tree, "node": a.node }, { "tree": b.tree, "node": b.node }])),
        }),
        VizInteraction::ClickBind { field, target } => json!({
            "type": "click",
            "field": field,
            "binds": [{ "tree": target.tree, "node": target.node }],
        }),
    }
}

fn widget_spec(w: &Widget) -> Json {
    let (kind, extra) = match &w.kind {
        WidgetKind::Radio { options } => ("radio", json!({ "options": options })),
        WidgetKind::ButtonGroup { options } => ("button-group", json!({ "options": options })),
        WidgetKind::Dropdown { options } => ("dropdown", json!({ "options": options })),
        WidgetKind::Toggle => ("toggle", json!({})),
        WidgetKind::Slider { min, max, step, temporal } => {
            ("slider", json!({ "min": min, "max": max, "step": step, "temporal": temporal }))
        }
        WidgetKind::RangeSlider { min, max, step, temporal } => {
            ("range-slider", json!({ "min": min, "max": max, "step": step, "temporal": temporal }))
        }
        WidgetKind::Tabs { options } => ("tabs", json!({ "options": options })),
        WidgetKind::MultiSelect { options } => ("multi-select", json!({ "options": options })),
        WidgetKind::TextInput => ("text-input", json!({})),
    };
    json!({
        "id": w.id,
        "label": w.label,
        "kind": kind,
        "config": extra,
        "binds": w.targets.iter().map(|t| json!({ "tree": t.tree, "node": t.node })).collect::<Vec<_>>(),
    })
}

fn layout_spec(l: &Layout) -> Json {
    match l {
        Layout::Leaf(Element::Chart(id)) => json!({ "chart": id }),
        Layout::Leaf(Element::Widget(id)) => json!({ "widget": id }),
        Layout::Horizontal(xs) => {
            json!({ "hconcat": xs.iter().map(layout_spec).collect::<Vec<_>>() })
        }
        Layout::Vertical(xs) => {
            json!({ "vconcat": xs.iter().map(layout_spec).collect::<Vec<_>>() })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_core::{Pi2, SearchStrategy};

    #[test]
    fn spec_roundtrips_through_json() {
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
        let spec = interface_spec(&g.interface, &updates);
        let text = serde_json::to_string_pretty(&spec).unwrap();
        let parsed: serde_json::Value = serde_json::from_str(&text).unwrap();
        assert_eq!(parsed["charts"].as_array().unwrap().len(), g.interface.charts.len());
        assert!(parsed["charts"][0]["data"]["values"].as_array().is_some());
        assert!(parsed["charts"][0]["query"].as_str().unwrap().contains("SELECT"));
    }

    #[test]
    fn interaction_specs_name_their_bindings() {
        let catalog =
            pi2_datasets::sdss::catalog(&pi2_datasets::sdss::Config { objects: 200, seed: 1 });
        let pi2 = Pi2::builder(catalog).strategy(SearchStrategy::FullMerge).build();
        let queries: Vec<String> =
            pi2_datasets::sdss::demo_queries().iter().map(|q| q.to_string()).collect();
        let refs: Vec<&str> = queries.iter().map(|s| s.as_str()).collect();
        let g = pi2.generate_sql(&refs).unwrap();
        let spec = interface_spec(&g.interface, &[]);
        let interactions = spec["charts"][0]["interactions"].as_array().unwrap();
        assert!(!interactions.is_empty());
        assert_eq!(interactions[0]["type"], "pan-zoom");
    }
}
