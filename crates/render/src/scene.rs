//! The typed renderer surface over the retained scene graph.
//!
//! `pi2-core` owns the scene model ([`SceneGraph`], [`SceneDelta`], the
//! [`Renderer`] trait — re-exported here); this module ships the concrete
//! backends:
//!
//! - [`AsciiRenderer`] — terminal charts and widgets,
//! - [`SpecRenderer`] — Vega-Lite-style JSON specs,
//! - [`HtmlRenderer`] — the self-contained interactive HTML client that
//!   renders an embedded scene snapshot and applies `render_delta` patch
//!   frames.
//!
//! All three are pure consumers of interface + data; the scene graph means
//! future backends (wgpu, WASM) can instead consume snapshots and deltas
//! only.

pub use pi2_core::scene::{
    delta_from_json, delta_to_json, scene_from_json, scene_to_json, AxisScene, ChartPatch,
    ChartScene, ColumnSlice, DataPatch, FrameKind, LayoutFrame, Rect, Renderer, RowEdit,
    SceneCatchup, SceneDelta, SceneGraph, SceneNodeId, SceneState, WidgetPatch, WidgetScene,
    SCENE_HISTORY_CAP,
};

use pi2_core::{ChartUpdate, InterfaceSession, SessionError};
use pi2_interface::{Chart, Interface};
use serde_json::Value as Json;

/// Terminal backend: ASCII charts, widgets, and layout.
#[derive(Debug, Clone, Copy, Default)]
pub struct AsciiRenderer;

impl Renderer for AsciiRenderer {
    type Output = String;

    fn render(&self, interface: &Interface, updates: &[ChartUpdate]) -> String {
        crate::ascii::render_interface(interface, updates)
    }

    fn render_live(&self, session: &InterfaceSession) -> Result<String, SessionError> {
        crate::ascii::render_session(session)
    }
}

/// Vega-Lite-style JSON spec backend.
#[derive(Debug, Clone, Copy, Default)]
pub struct SpecRenderer;

impl SpecRenderer {
    /// The spec of a single chart, with inline data when an update is
    /// provided.
    pub fn chart(&self, chart: &Chart, update: Option<&ChartUpdate>) -> Json {
        crate::spec::chart_spec(chart, update)
    }
}

impl Renderer for SpecRenderer {
    type Output = Json;

    fn render(&self, interface: &Interface, updates: &[ChartUpdate]) -> Json {
        crate::spec::interface_spec(interface, updates)
    }
}

/// Self-contained interactive HTML backend: embeds a scene snapshot and a
/// patch-applying client (see [`crate::export_html`]).
#[derive(Debug, Clone, Default)]
pub struct HtmlRenderer {
    title: String,
    query_log: Vec<String>,
}

impl HtmlRenderer {
    /// A renderer producing a page titled `title`.
    pub fn new(title: impl Into<String>) -> Self {
        HtmlRenderer { title: title.into(), query_log: Vec::new() }
    }

    /// Attach the session's query log, shown in the page's query panel.
    pub fn query_log(mut self, log: Vec<String>) -> Self {
        self.query_log = log;
        self
    }
}

impl Renderer for HtmlRenderer {
    type Output = String;

    fn render(&self, interface: &Interface, updates: &[ChartUpdate]) -> String {
        crate::html::export_html_impl(&self.title, interface, updates, &self.query_log, &[])
    }

    fn render_live(&self, session: &InterfaceSession) -> Result<String, SessionError> {
        let updates = session.refresh_all()?;
        let states = session.widget_states();
        Ok(crate::html::export_html_impl(
            &self.title,
            session.interface(),
            &updates,
            &self.query_log,
            &states,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_core::{Pi2, SearchStrategy};

    fn toy_generated() -> (pi2_core::GeneratedInterface, Pi2) {
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
            .strategy(SearchStrategy::FullMerge)
            .build();
        let g = pi2
            .generate_sql(&[
                "SELECT p, count(*) FROM t WHERE a = 1 GROUP BY p",
                "SELECT p, count(*) FROM t WHERE a = 2 GROUP BY p",
            ])
            .unwrap();
        (g, pi2)
    }

    #[test]
    fn renderers_match_their_legacy_free_functions() {
        let (g, pi2) = toy_generated();
        let session = pi2.session(&g);
        let updates = session.refresh_all().unwrap();

        assert_eq!(
            AsciiRenderer.render(&g.interface, &updates),
            crate::ascii::render_interface(&g.interface, &updates)
        );
        assert_eq!(
            AsciiRenderer.render_live(&session).unwrap(),
            crate::ascii::render_session(&session).unwrap()
        );
        assert_eq!(
            SpecRenderer.render(&g.interface, &updates),
            crate::spec::interface_spec(&g.interface, &updates)
        );
        assert_eq!(
            SpecRenderer.chart(&g.interface.charts[0], updates.first()),
            crate::spec::chart_spec(&g.interface.charts[0], updates.first())
        );
    }

    #[test]
    fn session_scene_deltas_replay_to_cold_render() {
        use pi2_core::{Event, SceneCatchup, SceneGraph};
        let (g, pi2) = toy_generated();
        let mut session = pi2.session(&g);

        let (mut client, mut version) = session.scene_snapshot().unwrap();
        assert_eq!(version, 1);

        use pi2_core::WidgetValue;
        use pi2_interface::WidgetKind;
        let widget = g.interface.widgets.first();
        let events: Vec<Event> = widget
            .map(|w| {
                let (a, b) = match &w.kind {
                    WidgetKind::Toggle => (WidgetValue::Bool(false), WidgetValue::Bool(true)),
                    WidgetKind::Slider { min, max, .. } => {
                        (WidgetValue::Scalar(*max), WidgetValue::Scalar(*min))
                    }
                    WidgetKind::RangeSlider { min, max, .. } => {
                        let mid = (*min + *max) / 2.0;
                        (WidgetValue::Range(*min, mid), WidgetValue::Range(*min, *max))
                    }
                    WidgetKind::MultiSelect { options } => (
                        WidgetValue::Multi(vec![false; options.len()]),
                        WidgetValue::Multi(vec![true; options.len()]),
                    ),
                    WidgetKind::TextInput => (
                        WidgetValue::Literal(pi2_sql::Literal::Str("a".into())),
                        WidgetValue::Literal(pi2_sql::Literal::Str("b".into())),
                    ),
                    _ => (WidgetValue::Pick(1), WidgetValue::Pick(0)),
                };
                vec![
                    Event::SetWidget { widget: w.id, value: a },
                    Event::SetWidget { widget: w.id, value: b },
                ]
            })
            .unwrap_or_default();
        let widget = widget.map(|w| w.id);
        for e in events {
            let (_updates, delta) = session.dispatch_with_delta(e).unwrap();
            if let Some(d) = delta {
                // Through the wire codec, as a real client would see it.
                let rt = delta_from_json(&delta_to_json(&d)).unwrap();
                client.apply(&rt).unwrap();
                version = d.to_version;
            }
            assert_eq!(client, SceneGraph::build_from(&session).unwrap());
            assert_eq!(version, session.scene_version());
        }

        // Catch-up from version 1 replays the same run.
        match session.scene_deltas_since(1).unwrap() {
            SceneCatchup::Deltas(chain) => {
                // A v1 client (a fresh session shows the same v1 scene)
                // replays the chain to the live scene.
                let fresh = pi2.session(&g);
                let (mut from_start, _) = fresh.scene_snapshot().unwrap();
                for d in &chain {
                    from_start.apply(d).unwrap();
                }
                assert_eq!(from_start, SceneGraph::build_from(&session).unwrap());
            }
            SceneCatchup::UpToDate => {
                assert!(widget.is_none(), "events should have bumped the version");
            }
            other => panic!("unexpected catchup {other:?}"),
        }
    }
}
