#![warn(missing_docs)]
#![deny(clippy::unwrap_used)]
#![cfg_attr(test, allow(clippy::unwrap_used))]

//! # pi2-render
//!
//! Rendering backends for generated interfaces. The original PI2 renders
//! interactive D3-style charts in the browser; this reproduction separates
//! *interaction semantics* (the headless [`pi2_core::InterfaceSession`])
//! from *drawing*. Drawing is a typed surface: the retained scene graph
//! ([`SceneGraph`], re-exported from `pi2_core::scene`) plus the
//! [`Renderer`] trait with three backends:
//!
//! * [`AsciiRenderer`] ([`ascii`]) — terminal rendering of charts, widgets,
//!   and layout, used by the runnable examples and the figure-regeneration
//!   binaries;
//! * [`SpecRenderer`] ([`spec`]) — a Vega-Lite-style JSON description of
//!   the interface, the shape a browser front end would consume;
//! * [`HtmlRenderer`] ([`html`]) — a standalone interactive HTML export
//!   that embeds a scene snapshot and applies `render_delta` patch frames.
//!
//! ```
//! use pi2_core::prelude::Renderer as _;
//! use pi2_core::{Pi2, SearchStrategy};
//!
//! let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
//!     .strategy(SearchStrategy::FullMerge)
//!     .build();
//! let g = pi2.generate_sql(&["SELECT a, count(*) FROM t GROUP BY a"]).unwrap();
//! let session = pi2.session(&g);
//! let text = pi2_render::AsciiRenderer.render_live(&session).unwrap();
//! assert!(text.contains("G1"));
//! ```

pub mod ascii;
pub mod html;
pub mod scene;
pub mod spec;

pub use ascii::{render_chart, render_widget, render_widget_with_state};
pub use html::export_html;
pub use scene::{
    AsciiRenderer, HtmlRenderer, Renderer, SceneCatchup, SceneDelta, SceneGraph, SceneNodeId,
    SceneState, SpecRenderer,
};
