//! Retained scene graph with damage-tracked deltas.
//!
//! The demo's interactive loop re-rendered a whole Vega-Lite-style spec on
//! every dispatch; once recomputation became sub-linear, full-spec
//! re-render dominated the wire. This module makes the *interface* the
//! incrementally maintained artifact (Precision Interfaces' framing): a
//! typed [`SceneGraph`] of axes, mark groups with per-channel encodings,
//! widgets, and layout frames is built once from a generated interface,
//! and a damage-tracking diff pass turns each batch of
//! [`crate::session::ChartUpdate`]s into a compact
//! [`SceneDelta`]: the re-encoded fields of each damaged chart plus one
//! [`DataPatch`] — a value-verified row edit script, or a full replacement
//! when the field list changed or no old row survives. Render backends
//! (ASCII, spec JSON, the interactive HTML client, future wgpu/WASM
//! targets) are pure consumers of snapshots and deltas.
//!
//! Invariant (checked by the `scene-parity` conformance oracle and the
//! server's delta property tests): for any event sequence, applying the
//! streamed deltas to a client-side copy of the snapshot reconstructs a
//! scene identical — bit for bit, through the JSON codec — to a cold
//! [`SceneGraph::build_from`] of the live session at every step.

use crate::session::{ChartUpdate, InterfaceSession, SessionError, WidgetState};
use pi2_engine::{ResultSet, Value};
use pi2_interface::{
    Channel, ChartId, Element, Encoding, FieldType, Interface, Layout, Mark, WidgetId,
};
use pi2_sql::Literal;
use serde_json::{json, Value as Json};
use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// How many trailing [`SceneDelta`]s a [`SceneState`] retains for clients
/// catching up by version; older clients get a full-snapshot resync.
pub const SCENE_HISTORY_CAP: usize = 64;

// ---------------------------------------------------------------------------
// Node identity
// ---------------------------------------------------------------------------

/// Stable identifier of one node in a [`SceneGraph`].
///
/// Ids are deterministic functions of the interface structure (chart ids,
/// widget ids, layout position), so a cold rebuild and a delta-maintained
/// client copy agree on identity without negotiation.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SceneNodeId {
    /// Raw tagged id: the high byte is the node kind, the low bytes the
    /// per-kind index.
    pub raw: u32,
}

impl SceneNodeId {
    const CHART_TAG: u32 = 0x0100_0000;
    const WIDGET_TAG: u32 = 0x0200_0000;
    const FRAME_TAG: u32 = 0x0300_0000;

    /// Wrap a raw id (for codec use; prefer the typed constructors).
    pub fn from_raw(raw: u32) -> Self {
        SceneNodeId { raw }
    }

    /// The node id of a chart's mark group.
    pub fn chart(id: ChartId) -> Self {
        SceneNodeId { raw: Self::CHART_TAG | (id as u32 & 0x00ff_ffff) }
    }

    /// The node id of a widget.
    pub fn widget(id: WidgetId) -> Self {
        SceneNodeId { raw: Self::WIDGET_TAG | (id as u32 & 0x00ff_ffff) }
    }

    /// The node id of the `n`-th layout frame in pre-order.
    pub fn frame(n: usize) -> Self {
        SceneNodeId { raw: Self::FRAME_TAG | (n as u32 & 0x00ff_ffff) }
    }
}

/// A rectangle in abstract screen pixels (same space as
/// [`pi2_interface::ScreenSpec`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Rect {
    /// Left edge.
    pub x: u32,
    /// Top edge.
    pub y: u32,
    /// Width.
    pub w: u32,
    /// Height.
    pub h: u32,
}

// ---------------------------------------------------------------------------
// Scene nodes
// ---------------------------------------------------------------------------

/// One column of a chart's mark data. The values are behind an [`Arc`] so
/// retained scenes, delta payloads, and the catalog's result cache share
/// storage instead of copying rows per frame.
#[derive(Debug, Clone)]
pub struct ColumnSlice {
    /// Result field name.
    pub field: String,
    /// Column values, one per mark.
    pub values: Arc<Vec<Value>>,
}

impl PartialEq for ColumnSlice {
    fn eq(&self, other: &Self) -> bool {
        self.field == other.field
            && (Arc::ptr_eq(&self.values, &other.values) || self.values == other.values)
    }
}

/// A positional axis derived from an encoding plus the current data.
#[derive(Debug, Clone, PartialEq)]
pub struct AxisScene {
    /// The encoded channel (X or Y).
    pub channel: Channel,
    /// The bound result field.
    pub field: String,
    /// Visualization field type.
    pub field_type: FieldType,
    /// Numeric domain minimum (quantitative/temporal axes with data).
    pub min: Option<f64>,
    /// Numeric domain maximum.
    pub max: Option<f64>,
}

/// A chart's retained scene node: mark group, encodings, axes, columnar
/// data, and its layout frame.
#[derive(Debug, Clone, PartialEq)]
pub struct ChartScene {
    /// Scene node id.
    pub node: SceneNodeId,
    /// The interface chart this node renders.
    pub chart: ChartId,
    /// `G1`, `G2`, … display name.
    pub name: String,
    /// Display title.
    pub title: String,
    /// Mark type.
    pub mark: Mark,
    /// Per-channel encodings.
    pub encodings: Vec<Encoding>,
    /// Interaction kind names (`brush` / `pan-zoom` / `click`), for the
    /// client's hit-testing layer.
    pub interactions: Vec<String>,
    /// The SQL currently backing the chart.
    pub query: String,
    /// Positional axes with current domains.
    pub axes: Vec<AxisScene>,
    /// Columnar mark data.
    pub columns: Vec<ColumnSlice>,
    /// Mark (row) count.
    pub rows: usize,
    /// Layout frame: the screen rectangle the chart is drawn in.
    pub frame: Rect,
}

/// A widget's retained scene node.
#[derive(Debug, Clone, PartialEq)]
pub struct WidgetScene {
    /// Scene node id.
    pub node: SceneNodeId,
    /// The interface widget this node renders.
    pub widget: WidgetId,
    /// Display label.
    pub label: String,
    /// Widget kind wire name (`radio`, `slider`, …).
    pub kind: String,
    /// Option labels, when the kind has a discrete domain.
    pub options: Vec<String>,
    /// Live display state.
    pub state: WidgetState,
    /// Layout frame.
    pub frame: Rect,
}

/// Layout frame flavors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Horizontal split.
    Horizontal,
    /// Vertical split.
    Vertical,
    /// Leaf holding a chart.
    Chart(ChartId),
    /// Leaf holding a widget.
    Widget(WidgetId),
}

/// One computed layout frame: a rectangle plus the scene nodes inside it.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutFrame {
    /// Scene node id (pre-order position in the layout tree).
    pub node: SceneNodeId,
    /// Frame flavor.
    pub kind: FrameKind,
    /// Screen rectangle.
    pub rect: Rect,
    /// Child frame nodes (splits) or the contained element node (leaves).
    pub children: Vec<SceneNodeId>,
}

/// The retained scene: every typed node group plus the screen it was laid
/// out for. Versioning lives in [`SceneState`]; the graph itself is pure
/// content so a cold rebuild and a patched client copy compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct SceneGraph {
    /// Screen size the layout was computed for.
    pub screen: (u32, u32),
    /// Chart mark groups.
    pub charts: Vec<ChartScene>,
    /// Widgets.
    pub widgets: Vec<WidgetScene>,
    /// Computed layout frames, pre-order.
    pub frames: Vec<LayoutFrame>,
}

// ---------------------------------------------------------------------------
// Building
// ---------------------------------------------------------------------------

fn transpose(result: &ResultSet) -> Vec<ColumnSlice> {
    result
        .schema
        .fields
        .iter()
        .enumerate()
        .map(|(i, f)| ColumnSlice {
            field: f.name.clone(),
            values: Arc::new(result.rows.iter().map(|r| r[i].clone()).collect()),
        })
        .collect()
}

fn axes_for(encodings: &[Encoding], columns: &[ColumnSlice]) -> Vec<AxisScene> {
    encodings
        .iter()
        .filter(|e| matches!(e.channel, Channel::X | Channel::Y))
        .map(|e| {
            let domain = match e.field_type {
                FieldType::Quantitative | FieldType::Temporal => columns
                    .iter()
                    .find(|c| c.field == e.field)
                    .map(|c| {
                        c.values.iter().filter_map(Value::as_f64).filter(|v| v.is_finite()).fold(
                            (None, None),
                            |(lo, hi): (Option<f64>, Option<f64>), v| {
                                (
                                    Some(lo.map_or(v, |l: f64| l.min(v))),
                                    Some(hi.map_or(v, |h: f64| h.max(v))),
                                )
                            },
                        )
                    })
                    .unwrap_or((None, None)),
                _ => (None, None),
            };
            AxisScene {
                channel: e.channel,
                field: e.field.clone(),
                field_type: e.field_type,
                min: domain.0,
                max: domain.1,
            }
        })
        .collect()
}

/// Recursive even-split layout: horizontal frames share width, vertical
/// frames share height; integer endpoints are computed as `i·extent/n` so
/// the pieces tile exactly.
fn layout_frames(
    layout: &Layout,
    rect: Rect,
    counter: &mut usize,
    out: &mut Vec<LayoutFrame>,
) -> SceneNodeId {
    let node = SceneNodeId::frame(*counter);
    *counter += 1;
    let slot = out.len();
    out.push(LayoutFrame { node, kind: FrameKind::Horizontal, rect, children: Vec::new() });
    let (kind, children) = match layout {
        Layout::Leaf(Element::Chart(id)) => (FrameKind::Chart(*id), vec![SceneNodeId::chart(*id)]),
        Layout::Leaf(Element::Widget(id)) => {
            (FrameKind::Widget(*id), vec![SceneNodeId::widget(*id)])
        }
        Layout::Horizontal(items) => {
            let n = items.len().max(1) as u64;
            let kids = items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let x0 = rect.x + (i as u64 * rect.w as u64 / n) as u32;
                    let x1 = rect.x + ((i as u64 + 1) * rect.w as u64 / n) as u32;
                    let child = Rect { x: x0, y: rect.y, w: x1 - x0, h: rect.h };
                    layout_frames(item, child, counter, out)
                })
                .collect();
            (FrameKind::Horizontal, kids)
        }
        Layout::Vertical(items) => {
            let n = items.len().max(1) as u64;
            let kids = items
                .iter()
                .enumerate()
                .map(|(i, item)| {
                    let y0 = rect.y + (i as u64 * rect.h as u64 / n) as u32;
                    let y1 = rect.y + ((i as u64 + 1) * rect.h as u64 / n) as u32;
                    let child = Rect { x: rect.x, y: y0, w: rect.w, h: y1 - y0 };
                    layout_frames(item, child, counter, out)
                })
                .collect();
            (FrameKind::Vertical, kids)
        }
    };
    out[slot].kind = kind;
    out[slot].children = children;
    node
}

fn element_rect(frames: &[LayoutFrame], want: FrameKind) -> Rect {
    frames.iter().find(|f| f.kind == want).map(|f| f.rect).unwrap_or_default()
}

/// A chart's scene node from its current data (`None`: an empty mark
/// group) laid out in `frame`.
fn chart_node(c: &pi2_interface::Chart, update: Option<&ChartUpdate>, frame: Rect) -> ChartScene {
    let (columns, rows, query) = match update {
        Some(u) => (transpose(&u.result), u.result.rows.len(), u.query.to_string()),
        None => (Vec::new(), 0, String::new()),
    };
    ChartScene {
        node: SceneNodeId::chart(c.id),
        chart: c.id,
        name: c.name.clone(),
        title: c.title.clone(),
        mark: c.mark,
        encodings: c.encodings.clone(),
        interactions: c.interactions.iter().map(|i| i.kind_name().into()).collect(),
        query,
        axes: axes_for(&c.encodings, &columns),
        columns,
        rows,
        frame,
    }
}

fn widget_state(states: &[(WidgetId, WidgetState)], id: WidgetId) -> WidgetState {
    states.iter().find(|(w, _)| *w == id).map(|(_, s)| s.clone()).unwrap_or(WidgetState::Unknown)
}

fn widget_options(kind: &pi2_interface::WidgetKind) -> Vec<String> {
    use pi2_interface::WidgetKind as K;
    match kind {
        K::Radio { options }
        | K::ButtonGroup { options }
        | K::Dropdown { options }
        | K::Tabs { options }
        | K::MultiSelect { options } => options.clone(),
        _ => Vec::new(),
    }
}

impl SceneGraph {
    /// Build a scene from an interface plus current chart data and widget
    /// states. Charts with no update render as empty mark groups.
    pub fn build(
        interface: &Interface,
        updates: &[ChartUpdate],
        widget_states: &[(WidgetId, WidgetState)],
    ) -> SceneGraph {
        let screen = (interface.screen.width, interface.screen.height);
        let mut frames = Vec::new();
        let mut counter = 0usize;
        layout_frames(
            &interface.layout,
            Rect { x: 0, y: 0, w: screen.0, h: screen.1 },
            &mut counter,
            &mut frames,
        );

        let charts = interface
            .charts
            .iter()
            .map(|c| {
                let update = updates.iter().find(|u| u.chart == c.id);
                chart_node(c, update, element_rect(&frames, FrameKind::Chart(c.id)))
            })
            .collect();

        let widgets = interface
            .widgets
            .iter()
            .map(|w| WidgetScene {
                node: SceneNodeId::widget(w.id),
                widget: w.id,
                label: w.label.clone(),
                kind: w.kind.kind_name().to_string(),
                options: widget_options(&w.kind),
                state: widget_state(widget_states, w.id),
                frame: element_rect(&frames, FrameKind::Widget(w.id)),
            })
            .collect();

        SceneGraph { screen, charts, widgets, frames }
    }

    /// This scene with the charts in `updates` rebuilt from their fresh
    /// data and every widget's state replaced; all other nodes are cloned.
    /// Equal to a [`SceneGraph::build`] over the full data when `updates`
    /// covers every chart whose data changed since `self` was built.
    pub(crate) fn with_updates(
        &self,
        interface: &Interface,
        updates: &[ChartUpdate],
        widget_states: &[(WidgetId, WidgetState)],
    ) -> SceneGraph {
        let mut next = self.clone();
        for node in &mut next.charts {
            let update = updates.iter().find(|u| u.chart == node.chart);
            let chart = interface.charts.iter().find(|c| c.id == node.chart);
            if let (Some(u), Some(c)) = (update, chart) {
                *node = chart_node(c, Some(u), node.frame);
            }
        }
        for node in &mut next.widgets {
            node.state = widget_state(widget_states, node.widget);
        }
        next
    }

    /// Cold full build from a live session: execute every chart and read
    /// every widget state. The parity reference for delta replay.
    pub fn build_from(session: &InterfaceSession) -> Result<SceneGraph, SessionError> {
        let updates = session.refresh_all()?;
        let states = session.widget_states();
        Ok(Self::build(session.interface(), &updates, &states))
    }

    /// Apply one delta in place (the client side of the protocol).
    pub fn apply(&mut self, delta: &SceneDelta) -> Result<(), SessionError> {
        for patch in &delta.charts {
            let chart = self
                .charts
                .iter_mut()
                .find(|c| c.node == patch.node)
                .ok_or_else(|| internal(format!("unknown scene node {:#x}", patch.node.raw)))?;
            // Validate the data patch before touching any field.
            let data = patch
                .data
                .as_ref()
                .map(|d| apply_data(&chart.columns, chart.rows, d))
                .transpose()?;
            if let Some(q) = &patch.query {
                chart.query = q.clone();
            }
            if let Some(m) = patch.mark {
                chart.mark = m;
            }
            if let Some(e) = &patch.encodings {
                chart.encodings = e.clone();
            }
            if let Some(a) = &patch.axes {
                chart.axes = a.clone();
            }
            if let Some((columns, rows)) = data {
                chart.columns = columns;
                chart.rows = rows;
            }
        }
        for patch in &delta.widgets {
            let widget = self
                .widgets
                .iter_mut()
                .find(|w| w.node == patch.node)
                .ok_or_else(|| internal(format!("unknown scene node {:#x}", patch.node.raw)))?;
            widget.state = patch.state.clone();
        }
        Ok(())
    }
}

fn internal(msg: String) -> SessionError {
    SessionError::Internal(msg)
}

// ---------------------------------------------------------------------------
// Deltas
// ---------------------------------------------------------------------------

/// One op of a row-level edit script (see [`DataPatch::Edits`]). The ops
/// walk the old rows front to back; keeps and drops consume old rows,
/// inserts splice in new ones.
#[derive(Debug, Clone, PartialEq)]
pub enum RowEdit {
    /// Keep the next `n` old rows.
    Keep(usize),
    /// Remove the next `n` old rows.
    Drop(usize),
    /// Insert rows here, carried as column-parallel value runs (fields in
    /// the chart's column order).
    Insert(Vec<ColumnSlice>),
}

/// A change to a chart's mark data.
#[derive(Debug, Clone, PartialEq)]
pub enum DataPatch {
    /// The whole new column set. Sent when the query's output fields
    /// changed (this re-establishes the field list) or when no row of the
    /// old data provably survives.
    Replace(Vec<ColumnSlice>),
    /// A row-level edit script over the old rows. It must consume exactly
    /// the old row count, and every insert must match the field list.
    Edits(Vec<RowEdit>),
}

/// Damage record for one chart node.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct ChartPatch {
    /// The damaged node.
    pub node: SceneNodeId,
    /// The chart it belongs to.
    pub chart: ChartId,
    /// New SQL, when the backing query changed.
    pub query: Option<String>,
    /// New mark, when the chart was re-encoded.
    pub mark: Option<Mark>,
    /// New encodings, when the chart was re-encoded.
    pub encodings: Option<Vec<Encoding>>,
    /// New axes, when a domain moved.
    pub axes: Option<Vec<AxisScene>>,
    /// Data patch, when marks changed.
    pub data: Option<DataPatch>,
}

impl ChartPatch {
    /// A patch touching `node`; chain the setters.
    pub fn new(node: SceneNodeId, chart: ChartId) -> Self {
        ChartPatch { node, chart, query: None, mark: None, encodings: None, axes: None, data: None }
    }

    /// Set the new query text.
    pub fn query(mut self, q: impl Into<String>) -> Self {
        self.query = Some(q.into());
        self
    }

    /// Set the new mark.
    pub fn mark(mut self, m: Mark) -> Self {
        self.mark = Some(m);
        self
    }

    /// Set the new encodings.
    pub fn encodings(mut self, e: Vec<Encoding>) -> Self {
        self.encodings = Some(e);
        self
    }

    /// Set the new axes.
    pub fn axes(mut self, a: Vec<AxisScene>) -> Self {
        self.axes = Some(a);
        self
    }

    /// Set the data patch.
    pub fn data(mut self, patch: DataPatch) -> Self {
        self.data = Some(patch);
        self
    }
}

/// Damage record for one widget node.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq)]
pub struct WidgetPatch {
    /// The damaged node.
    pub node: SceneNodeId,
    /// The widget it belongs to.
    pub widget: WidgetId,
    /// The new display state.
    pub state: WidgetState,
}

impl WidgetPatch {
    /// A patch setting `node`'s state.
    pub fn new(node: SceneNodeId, widget: WidgetId, state: WidgetState) -> Self {
        WidgetPatch { node, widget, state }
    }
}

/// One damage frame: everything that changed between two consecutive scene
/// versions.
#[non_exhaustive]
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SceneDelta {
    /// The version this delta applies on top of.
    pub from_version: u64,
    /// The version the scene is at after applying.
    pub to_version: u64,
    /// Damaged charts.
    pub charts: Vec<ChartPatch>,
    /// Damaged widgets.
    pub widgets: Vec<WidgetPatch>,
}

impl SceneDelta {
    /// A delta between two versions; chain the setters.
    pub fn new(from_version: u64, to_version: u64) -> Self {
        SceneDelta { from_version, to_version, charts: Vec::new(), widgets: Vec::new() }
    }

    /// Add a chart patch.
    pub fn chart(mut self, patch: ChartPatch) -> Self {
        self.charts.push(patch);
        self
    }

    /// Add a widget patch.
    pub fn widget(mut self, patch: WidgetPatch) -> Self {
        self.widgets.push(patch);
        self
    }

    /// True when nothing changed.
    pub fn is_empty(&self) -> bool {
        self.charts.is_empty() && self.widgets.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Diff pass
// ---------------------------------------------------------------------------

/// The row-key hasher: FxHash's multiply-rotate step over 64-bit words,
/// then SplitMix64's finalizer so every key bit depends on every input
/// bit. It is not collision-resistant, and need not be: keys only propose
/// anchors, and [`edit_script`] verifies every anchor by value.
#[derive(Default)]
struct RowHasher(u64);

impl RowHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for RowHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Hashes a `u64` key to itself: the row keys are already mixed.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = self.0.rotate_left(8) ^ u64::from(b);
        }
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = n;
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One key per row over every column, column by column.
fn row_keys(columns: &[ColumnSlice], rows: usize) -> Vec<u64> {
    let mut hashers: Vec<RowHasher> = (0..rows).map(|_| RowHasher::default()).collect();
    for c in columns {
        for (h, v) in hashers.iter_mut().zip(c.values.iter()) {
            v.hash(h);
        }
    }
    hashers.iter().map(Hasher::finish).collect()
}

fn slice_columns(columns: &[ColumnSlice], range: std::ops::Range<usize>) -> Vec<ColumnSlice> {
    columns
        .iter()
        .map(|c| ColumnSlice {
            field: c.field.clone(),
            values: Arc::new(c.values[range.clone()].to_vec()),
        })
        .collect()
}

/// Row-level edit script between two same-schema column sets: anchor on
/// rows whose key is unique in *both* sequences, keep the longest chain of
/// anchors increasing on both sides, and emit keep/drop/insert runs
/// between them. A pan or zoom over sorted output becomes one drop, one
/// keep and one insert; row turnover scattered through the result (a
/// filter on a non-sort column moved) becomes short runs around the
/// surviving rows. Returns `None` when no anchor survives value
/// verification.
fn edit_script(old: &ChartScene, new: &ChartScene) -> Option<Vec<RowEdit>> {
    #[derive(Clone, Copy)]
    enum Seen {
        Once(usize),
        Dup,
    }
    type Seens = HashMap<u64, Seen, BuildHasherDefault<KeyHasher>>;
    fn seen(keys: &[u64]) -> Seens {
        let mut seen = Seens::with_capacity_and_hasher(keys.len(), Default::default());
        for (i, k) in keys.iter().enumerate() {
            seen.entry(*k).and_modify(|s| *s = Seen::Dup).or_insert(Seen::Once(i));
        }
        seen
    }
    let ka = row_keys(&old.columns, old.rows);
    let kb = row_keys(&new.columns, new.rows);
    let (seen_old, seen_new) = (seen(&ka), seen(&kb));
    // Candidate anchors in new-row order; a kept chain must also be
    // increasing in old-row order (longest increasing subsequence).
    let mut cand: Vec<(usize, usize)> = Vec::new();
    for (j, k) in kb.iter().enumerate() {
        if let (Some(Seen::Once(i)), Some(Seen::Once(_))) = (seen_old.get(k), seen_new.get(k)) {
            cand.push((*i, j));
        }
    }
    if cand.is_empty() {
        return None;
    }
    // Patience LIS over the old indices.
    let mut tails: Vec<usize> = Vec::new();
    let mut prev: Vec<Option<usize>> = vec![None; cand.len()];
    for (ci, &(i, _)) in cand.iter().enumerate() {
        let pos = tails.partition_point(|&t| cand[t].0 < i);
        prev[ci] = pos.checked_sub(1).map(|p| tails[p]);
        if pos == tails.len() {
            tails.push(ci);
        } else {
            tails[pos] = ci;
        }
    }
    let mut chain = Vec::new();
    let mut cur = tails.last().copied();
    while let Some(ci) = cur {
        chain.push(cand[ci]);
        cur = prev[ci];
    }
    chain.reverse();
    // Anchors are matched by hash; verify by value so a collision can
    // never corrupt the client's scene.
    for &(i, j) in &chain {
        if !old.columns.iter().zip(new.columns.iter()).all(|(a, b)| a.values[i] == b.values[j]) {
            return None;
        }
    }
    let mut edits: Vec<RowEdit> = Vec::new();
    let (mut ai, mut bi) = (0usize, 0usize);
    for &(i, j) in &chain {
        if i > ai {
            edits.push(RowEdit::Drop(i - ai));
        }
        if j > bi {
            edits.push(RowEdit::Insert(slice_columns(&new.columns, bi..j)));
        }
        match edits.last_mut() {
            Some(RowEdit::Keep(n)) if i == ai && j == bi => *n += 1,
            _ => edits.push(RowEdit::Keep(1)),
        }
        ai = i + 1;
        bi = j + 1;
    }
    if old.rows > ai {
        edits.push(RowEdit::Drop(old.rows - ai));
    }
    if new.rows > bi {
        edits.push(RowEdit::Insert(slice_columns(&new.columns, bi..new.rows)));
    }
    Some(edits)
}

/// Diff one chart's data: `None` when unchanged, otherwise the verified
/// edit script, or a full replacement when the field list changed or no
/// row provably survives.
fn diff_data(old: &ChartScene, new: &ChartScene) -> Option<DataPatch> {
    if old.rows == new.rows && old.columns == new.columns {
        return None;
    }
    let same_fields = old.columns.len() == new.columns.len()
        && old.columns.iter().zip(new.columns.iter()).all(|(a, b)| a.field == b.field);
    let edits = if same_fields { edit_script(old, new) } else { None };
    Some(edits.map_or_else(|| DataPatch::Replace(new.columns.clone()), DataPatch::Edits))
}

/// Check that every column carries exactly `rows` values.
fn check_rows(columns: &[ColumnSlice], rows: usize) -> Result<(), String> {
    match columns.iter().find(|c| c.values.len() != rows) {
        Some(c) => {
            Err(format!("column {} has {} values, expected {rows}", c.field, c.values.len()))
        }
        None => Ok(()),
    }
}

/// The row count of a column block whose columns must agree on it.
fn block_rows(columns: &[ColumnSlice]) -> Result<usize, String> {
    let rows = columns.first().map_or(0, |c| c.values.len());
    check_rows(columns, rows)?;
    Ok(rows)
}

fn apply_data(
    old: &[ColumnSlice],
    old_rows: usize,
    patch: &DataPatch,
) -> Result<(Vec<ColumnSlice>, usize), SessionError> {
    match patch {
        DataPatch::Replace(columns) => {
            Ok((columns.clone(), block_rows(columns).map_err(internal)?))
        }
        DataPatch::Edits(edits) => apply_edits(old, old_rows, edits),
    }
}

/// Apply a row-level edit script. The old columns must each hold
/// `old_rows` values, the script must consume exactly `old_rows` (keeps +
/// drops), and every insert must match the chart's field list with columns
/// of equal length.
fn apply_edits(
    old: &[ColumnSlice],
    old_rows: usize,
    edits: &[RowEdit],
) -> Result<(Vec<ColumnSlice>, usize), SessionError> {
    check_rows(old, old_rows).map_err(internal)?;
    let mut out: Vec<(String, Vec<Value>)> =
        old.iter().map(|c| (c.field.clone(), Vec::new())).collect();
    let (mut cursor, mut rows) = (0usize, 0usize);
    for op in edits {
        match op {
            RowEdit::Keep(n) => {
                let end = cursor
                    .checked_add(*n)
                    .filter(|&e| e <= old_rows)
                    .ok_or_else(|| internal("edit script keeps past the end".into()))?;
                for (col, (_, values)) in old.iter().zip(out.iter_mut()) {
                    values.extend(col.values[cursor..end].iter().cloned());
                }
                cursor = end;
                rows += n;
            }
            RowEdit::Drop(n) => {
                cursor = cursor
                    .checked_add(*n)
                    .filter(|&e| e <= old_rows)
                    .ok_or_else(|| internal("edit script drops past the end".into()))?;
            }
            RowEdit::Insert(cols) => {
                if cols.len() != old.len() {
                    return Err(internal("edit script insert field-count mismatch".into()));
                }
                rows += block_rows(cols).map_err(internal)?;
                for (slice, (field, values)) in cols.iter().zip(out.iter_mut()) {
                    if slice.field != *field {
                        return Err(internal(format!(
                            "edit script insert field {} does not match column {field}",
                            slice.field
                        )));
                    }
                    values.extend(slice.values.iter().cloned());
                }
            }
        }
    }
    if cursor != old_rows {
        return Err(internal("edit script does not consume every old row".into()));
    }
    let columns = out
        .into_iter()
        .map(|(field, values)| ColumnSlice { field, values: Arc::new(values) })
        .collect();
    Ok((columns, rows))
}

/// Diff two scenes over the same interface into (unversioned) patches.
fn diff_graphs(old: &SceneGraph, new: &SceneGraph) -> SceneDelta {
    let mut delta = SceneDelta::new(0, 0);
    for n in &new.charts {
        let Some(o) = old.charts.iter().find(|c| c.node == n.node) else {
            continue;
        };
        if o == n {
            continue;
        }
        let mut patch = ChartPatch::new(n.node, n.chart);
        if o.query != n.query {
            patch = patch.query(n.query.clone());
        }
        if o.mark != n.mark {
            patch = patch.mark(n.mark);
        }
        if o.encodings != n.encodings {
            patch = patch.encodings(n.encodings.clone());
        }
        if o.axes != n.axes {
            patch = patch.axes(n.axes.clone());
        }
        if let Some(data) = diff_data(o, n) {
            patch = patch.data(data);
        }
        delta = delta.chart(patch);
    }
    for n in &new.widgets {
        let Some(o) = old.widgets.iter().find(|w| w.node == n.node) else {
            continue;
        };
        if o.state != n.state {
            delta = delta.widget(WidgetPatch::new(n.node, n.widget, n.state.clone()));
        }
    }
    delta
}

// ---------------------------------------------------------------------------
// Scene state: versions + delta history
// ---------------------------------------------------------------------------

/// What a version-aware client gets when it asks for everything after its
/// last applied scene version.
#[derive(Debug, Clone, PartialEq)]
pub enum SceneCatchup {
    /// The client is current; nothing to send.
    UpToDate,
    /// A contiguous run of deltas bringing the client current.
    Deltas(Vec<SceneDelta>),
    /// The client's version is stale (or unknown): full snapshot at the
    /// given version.
    Resync(Box<SceneGraph>, u64),
}

/// The retained scene plus its monotone version counter and a bounded ring
/// of recent deltas for catch-up. Owned by
/// [`crate::session::InterfaceSession`].
#[derive(Debug, Clone)]
pub struct SceneState {
    graph: SceneGraph,
    version: u64,
    history: VecDeque<SceneDelta>,
}

impl SceneState {
    /// Start retaining `graph` at version 1.
    pub fn new(graph: SceneGraph) -> Self {
        SceneState { graph, version: 1, history: VecDeque::new() }
    }

    /// Current scene version (monotone; bumps once per damaging sync).
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The retained scene.
    pub fn graph(&self) -> &SceneGraph {
        &self.graph
    }

    /// Replace the retained scene with `fresh`, emitting the damage delta.
    /// Returns `None` (and keeps the version) when nothing changed.
    pub fn sync(&mut self, fresh: SceneGraph) -> Option<SceneDelta> {
        let mut delta = diff_graphs(&self.graph, &fresh);
        self.graph = fresh;
        if delta.is_empty() {
            return None;
        }
        delta.from_version = self.version;
        self.version += 1;
        delta.to_version = self.version;
        if self.history.len() == SCENE_HISTORY_CAP {
            self.history.pop_front();
        }
        self.history.push_back(delta.clone());
        Some(delta)
    }

    /// Catch a client up from `since` to the current version.
    pub fn deltas_since(&self, since: u64) -> SceneCatchup {
        if since == self.version {
            return SceneCatchup::UpToDate;
        }
        if since < self.version {
            let chain: Vec<SceneDelta> =
                self.history.iter().filter(|d| d.from_version >= since).cloned().collect();
            let contiguous = chain.first().is_some_and(|d| d.from_version == since)
                && chain.last().is_some_and(|d| d.to_version == self.version);
            if contiguous {
                return SceneCatchup::Deltas(chain);
            }
        }
        SceneCatchup::Resync(Box::new(self.graph.clone()), self.version)
    }
}

// ---------------------------------------------------------------------------
// Renderer: the typed surface over all backends
// ---------------------------------------------------------------------------

/// A render backend: anything that can turn an interface plus current data
/// into an output artifact (ASCII text, a spec document, an HTML page, a
/// GPU scene). `pi2-render` ships `AsciiRenderer`, `SpecRenderer`, and
/// `HtmlRenderer`.
pub trait Renderer {
    /// The backend's output artifact.
    type Output;

    /// Render an interface with the given chart data.
    fn render(&self, interface: &Interface, updates: &[ChartUpdate]) -> Self::Output;

    /// Render a live session: current data plus live widget state. The
    /// default executes every chart and delegates to [`Renderer::render`].
    fn render_live(&self, session: &InterfaceSession) -> Result<Self::Output, SessionError> {
        Ok(self.render(session.interface(), &session.refresh_all()?))
    }
}

// ---------------------------------------------------------------------------
// JSON codec (the wire format of `render_delta` and the HTML client)
// ---------------------------------------------------------------------------

fn mark_name(m: Mark) -> &'static str {
    match m {
        Mark::Bar => "bar",
        Mark::Line => "line",
        Mark::Area => "area",
        Mark::Scatter => "scatter",
        Mark::Table => "table",
        Mark::Heatmap => "heatmap",
    }
}

fn parse_mark(s: &str) -> Result<Mark, String> {
    Ok(match s {
        "bar" => Mark::Bar,
        "line" => Mark::Line,
        "area" => Mark::Area,
        "scatter" => Mark::Scatter,
        "table" => Mark::Table,
        "heatmap" => Mark::Heatmap,
        other => return Err(format!("unknown mark {other:?}")),
    })
}

fn channel_name(c: Channel) -> &'static str {
    match c {
        Channel::X => "x",
        Channel::Y => "y",
        Channel::Color => "color",
        Channel::Size => "size",
        Channel::Detail => "detail",
    }
}

fn parse_channel(s: &str) -> Result<Channel, String> {
    Ok(match s {
        "x" => Channel::X,
        "y" => Channel::Y,
        "color" => Channel::Color,
        "size" => Channel::Size,
        "detail" => Channel::Detail,
        other => return Err(format!("unknown channel {other:?}")),
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

fn parse_field_type(s: &str) -> Result<FieldType, String> {
    Ok(match s {
        "quantitative" => FieldType::Quantitative,
        "nominal" => FieldType::Nominal,
        "ordinal" => FieldType::Ordinal,
        "temporal" => FieldType::Temporal,
        other => return Err(format!("unknown field type {other:?}")),
    })
}

/// A JSON object from already-built values, moved in order. (`json!`
/// converts each value expression with `to_value`, which copies a `Json`
/// subtree; the encoders below nest per-cell trees, so they build with
/// this instead.)
fn object<const N: usize>(entries: [(&str, Json); N]) -> Json {
    Json::Object(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

fn f64_json(v: f64) -> Json {
    if v.is_finite() {
        Json::Number(serde_json::Number::Float(v))
    } else {
        object([("$float", Json::String(format!("{v:?}")))])
    }
}

fn date_json(d: pi2_sql::Date) -> Json {
    object([("$date", Json::String(d.to_string()))])
}

fn value_to_json(v: &Value) -> Json {
    match v {
        Value::Null => Json::Null,
        Value::Bool(b) => Json::Bool(*b),
        Value::Int(i) => Json::Number(serde_json::Number::Int(*i)),
        Value::Float(f) => f64_json(*f),
        Value::Str(s) => Json::String(s.clone()),
        Value::Date(d) => date_json(*d),
    }
}

fn value_from_json(v: &Json) -> Result<Value, String> {
    match v {
        Json::Null => Ok(Value::Null),
        Json::Bool(b) => Ok(Value::Bool(*b)),
        Json::Number(n) => Ok(match n.as_i64() {
            Some(i) => Value::Int(i),
            None => Value::Float(n.as_f64()),
        }),
        Json::String(s) => Ok(Value::Str(s.clone())),
        Json::Object(o) => {
            if let Some(Json::String(d)) = o.get("$date") {
                return pi2_sql::Date::parse(d)
                    .map(Value::Date)
                    .ok_or_else(|| format!("bad date {d:?}"));
            }
            if let Some(Json::String(f)) = o.get("$float") {
                return f.parse::<f64>().map(Value::Float).map_err(|e| e.to_string());
            }
            Err("unexpected object value".to_string())
        }
        Json::Array(_) => Err("unexpected array value".to_string()),
    }
}

fn literal_to_json(l: &Literal) -> Json {
    match l {
        Literal::Null => Json::Null,
        Literal::Bool(b) => Json::Bool(*b),
        Literal::Int(i) => Json::Number(serde_json::Number::Int(*i)),
        Literal::Float(f) => f64_json(f.0),
        Literal::Str(s) => Json::String(s.clone()),
        Literal::Date(d) => date_json(*d),
    }
}

fn literal_from_json(v: &Json) -> Result<Literal, String> {
    Ok(match value_from_json(v)? {
        Value::Null => Literal::Null,
        Value::Bool(b) => Literal::Bool(b),
        Value::Int(i) => Literal::Int(i),
        Value::Float(f) => Literal::Float(pi2_sql::F64(f)),
        Value::Str(s) => Literal::Str(s),
        Value::Date(d) => Literal::Date(d),
    })
}

fn widget_state_to_json(s: &WidgetState) -> Json {
    match s {
        WidgetState::Picked(i) => json!({ "picked": i }),
        WidgetState::Toggled(b) => json!({ "toggled": b }),
        WidgetState::Value(l) => object([("value", literal_to_json(l))]),
        WidgetState::Range(lo, hi) => {
            object([("range", Json::Array(vec![literal_to_json(lo), literal_to_json(hi)]))])
        }
        WidgetState::Flags(f) => json!({ "flags": f }),
        WidgetState::Unknown => json!({ "unknown": true }),
    }
}

fn widget_state_from_json(v: &Json) -> Result<WidgetState, String> {
    let o = v.as_object().ok_or("widget state must be an object")?;
    if let Some(p) = o.get("picked") {
        return p
            .as_u64()
            .map(|i| WidgetState::Picked(i as usize))
            .ok_or_else(|| "bad pick".into());
    }
    if let Some(t) = o.get("toggled") {
        return t.as_bool().map(WidgetState::Toggled).ok_or_else(|| "bad toggle".into());
    }
    if let Some(val) = o.get("value") {
        return literal_from_json(val).map(WidgetState::Value);
    }
    if let Some(r) = o.get("range") {
        let arr = r.as_array().filter(|a| a.len() == 2).ok_or("bad range")?;
        return Ok(WidgetState::Range(literal_from_json(&arr[0])?, literal_from_json(&arr[1])?));
    }
    if let Some(f) = o.get("flags") {
        let flags = f
            .as_array()
            .ok_or("bad flags")?
            .iter()
            .map(|b| b.as_bool().ok_or_else(|| "bad flag".to_string()))
            .collect::<Result<Vec<bool>, String>>()?;
        return Ok(WidgetState::Flags(flags));
    }
    Ok(WidgetState::Unknown)
}

fn rect_json(r: Rect) -> Json {
    json!([r.x, r.y, r.w, r.h])
}

fn rect_from_json(v: &Json) -> Result<Rect, String> {
    let a = v.as_array().filter(|a| a.len() == 4).ok_or("rect must be [x,y,w,h]")?;
    let g = |i: usize| a[i].as_u64().map(|n| n as u32).ok_or_else(|| "bad rect".to_string());
    Ok(Rect { x: g(0)?, y: g(1)?, w: g(2)?, h: g(3)? })
}

fn columns_json(columns: &[ColumnSlice]) -> Json {
    Json::Array(
        columns
            .iter()
            .map(|c| {
                object([
                    ("field", Json::String(c.field.clone())),
                    ("values", Json::Array(c.values.iter().map(value_to_json).collect())),
                ])
            })
            .collect(),
    )
}

fn columns_from_json(v: &Json) -> Result<Vec<ColumnSlice>, String> {
    v.as_array()
        .ok_or("columns must be an array")?
        .iter()
        .map(|c| {
            let field = c
                .get("field")
                .and_then(Json::as_str)
                .ok_or_else(|| "column needs a field".to_string())?;
            let values = c
                .get("values")
                .and_then(Json::as_array)
                .ok_or_else(|| "column needs values".to_string())?
                .iter()
                .map(value_from_json)
                .collect::<Result<Vec<Value>, String>>()?;
            Ok(ColumnSlice { field: field.to_string(), values: Arc::new(values) })
        })
        .collect()
}

fn encoding_json(e: &Encoding) -> Json {
    json!({
        "channel": channel_name(e.channel),
        "field": e.field,
        "type": field_type_name(e.field_type),
    })
}

fn encoding_from_json(v: &Json) -> Result<Encoding, String> {
    let get = |k: &str| v.get(k).and_then(Json::as_str).ok_or(format!("encoding needs {k}"));
    Ok(Encoding {
        channel: parse_channel(get("channel")?)?,
        field: get("field")?.to_string(),
        field_type: parse_field_type(get("type")?)?,
    })
}

fn axis_json(a: &AxisScene) -> Json {
    let mut o = serde_json::Map::new();
    o.insert("channel".into(), json!(channel_name(a.channel)));
    o.insert("field".into(), json!(a.field));
    o.insert("type".into(), json!(field_type_name(a.field_type)));
    if let Some(lo) = a.min {
        o.insert("min".into(), f64_json(lo));
    }
    if let Some(hi) = a.max {
        o.insert("max".into(), f64_json(hi));
    }
    Json::Object(o)
}

fn axis_from_json(v: &Json) -> Result<AxisScene, String> {
    let get = |k: &str| v.get(k).and_then(Json::as_str).ok_or(format!("axis needs {k}"));
    Ok(AxisScene {
        channel: parse_channel(get("channel")?)?,
        field: get("field")?.to_string(),
        field_type: parse_field_type(get("type")?)?,
        min: v.get("min").and_then(Json::as_f64),
        max: v.get("max").and_then(Json::as_f64),
    })
}

/// Encode a scene snapshot for the wire.
pub fn scene_to_json(g: &SceneGraph) -> Json {
    let charts = g.charts.iter().map(|c| {
        object([
            ("node", json!(c.node.raw)),
            ("chart", json!(c.chart)),
            ("name", json!(c.name)),
            ("title", json!(c.title)),
            ("mark", json!(mark_name(c.mark))),
            ("encodings", Json::Array(c.encodings.iter().map(encoding_json).collect())),
            ("interactions", json!(c.interactions)),
            ("query", json!(c.query)),
            ("axes", Json::Array(c.axes.iter().map(axis_json).collect())),
            ("rows", json!(c.rows)),
            ("columns", columns_json(&c.columns)),
            ("frame", rect_json(c.frame)),
        ])
    });
    let widgets = g.widgets.iter().map(|w| {
        object([
            ("node", json!(w.node.raw)),
            ("widget", json!(w.widget)),
            ("label", json!(w.label)),
            ("kind", json!(w.kind)),
            ("options", json!(w.options)),
            ("state", widget_state_to_json(&w.state)),
            ("frame", rect_json(w.frame)),
        ])
    });
    let frames = g.frames.iter().map(|f| {
        let kind = match f.kind {
            FrameKind::Horizontal => json!("horizontal"),
            FrameKind::Vertical => json!("vertical"),
            FrameKind::Chart(id) => json!({ "chart": id }),
            FrameKind::Widget(id) => json!({ "widget": id }),
        };
        object([
            ("node", json!(f.node.raw)),
            ("kind", kind),
            ("rect", rect_json(f.rect)),
            ("children", json!(f.children.iter().map(|c| c.raw).collect::<Vec<_>>())),
        ])
    });
    object([
        ("screen", json!([g.screen.0, g.screen.1])),
        ("charts", Json::Array(charts.collect())),
        ("widgets", Json::Array(widgets.collect())),
        ("frames", Json::Array(frames.collect())),
    ])
}

fn node_from_json(v: Option<&Json>) -> Result<SceneNodeId, String> {
    v.and_then(Json::as_u64)
        .map(|n| SceneNodeId::from_raw(n as u32))
        .ok_or_else(|| "missing scene node id".to_string())
}

/// Decode a scene snapshot (the client side of a resync).
pub fn scene_from_json(v: &Json) -> Result<SceneGraph, String> {
    let screen = v.get("screen").and_then(Json::as_array).ok_or("scene needs a screen")?;
    let screen = (
        screen.first().and_then(Json::as_u64).ok_or("bad screen")? as u32,
        screen.get(1).and_then(Json::as_u64).ok_or("bad screen")? as u32,
    );
    let charts = v
        .get("charts")
        .and_then(Json::as_array)
        .ok_or("scene needs charts")?
        .iter()
        .map(|c| {
            let s = |k: &str| {
                c.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("chart needs {k}"))
            };
            let columns = columns_from_json(c.get("columns").unwrap_or(&Json::Null))?;
            let rows = c.get("rows").and_then(Json::as_u64).ok_or("chart needs rows")? as usize;
            check_rows(&columns, rows)?;
            Ok(ChartScene {
                node: node_from_json(c.get("node"))?,
                chart: c.get("chart").and_then(Json::as_u64).ok_or("chart needs an id")? as usize,
                name: s("name")?,
                title: s("title")?,
                mark: parse_mark(&s("mark")?)?,
                encodings: c
                    .get("encodings")
                    .and_then(Json::as_array)
                    .ok_or("chart needs encodings")?
                    .iter()
                    .map(encoding_from_json)
                    .collect::<Result<Vec<_>, String>>()?,
                interactions: c
                    .get("interactions")
                    .and_then(Json::as_array)
                    .ok_or("chart needs interactions")?
                    .iter()
                    .map(|i| i.as_str().map(str::to_string).ok_or("bad interaction".to_string()))
                    .collect::<Result<Vec<_>, String>>()?,
                query: s("query")?,
                axes: c
                    .get("axes")
                    .and_then(Json::as_array)
                    .ok_or("chart needs axes")?
                    .iter()
                    .map(axis_from_json)
                    .collect::<Result<Vec<_>, String>>()?,
                rows,
                columns,
                frame: rect_from_json(c.get("frame").unwrap_or(&Json::Null))?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let widgets = v
        .get("widgets")
        .and_then(Json::as_array)
        .ok_or("scene needs widgets")?
        .iter()
        .map(|w| {
            let s = |k: &str| {
                w.get(k)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or(format!("widget needs {k}"))
            };
            Ok(WidgetScene {
                node: node_from_json(w.get("node"))?,
                widget: w.get("widget").and_then(Json::as_u64).ok_or("widget needs an id")?
                    as usize,
                label: s("label")?,
                kind: s("kind")?,
                options: w
                    .get("options")
                    .and_then(Json::as_array)
                    .ok_or("widget needs options")?
                    .iter()
                    .map(|o| o.as_str().map(str::to_string).ok_or("bad option".to_string()))
                    .collect::<Result<Vec<_>, String>>()?,
                state: widget_state_from_json(w.get("state").unwrap_or(&Json::Null))?,
                frame: rect_from_json(w.get("frame").unwrap_or(&Json::Null))?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    let frames = v
        .get("frames")
        .and_then(Json::as_array)
        .ok_or("scene needs frames")?
        .iter()
        .map(|f| {
            let kind = match f.get("kind") {
                Some(Json::String(s)) if s == "horizontal" => FrameKind::Horizontal,
                Some(Json::String(s)) if s == "vertical" => FrameKind::Vertical,
                Some(Json::Object(o)) => {
                    if let Some(id) = o.get("chart").and_then(Json::as_u64) {
                        FrameKind::Chart(id as usize)
                    } else if let Some(id) = o.get("widget").and_then(Json::as_u64) {
                        FrameKind::Widget(id as usize)
                    } else {
                        return Err("bad frame kind".to_string());
                    }
                }
                _ => return Err("bad frame kind".to_string()),
            };
            Ok(LayoutFrame {
                node: node_from_json(f.get("node"))?,
                kind,
                rect: rect_from_json(f.get("rect").unwrap_or(&Json::Null))?,
                children: f
                    .get("children")
                    .and_then(Json::as_array)
                    .ok_or("frame needs children")?
                    .iter()
                    .map(|c| node_from_json(Some(c)))
                    .collect::<Result<Vec<_>, String>>()?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(SceneGraph { screen, charts, widgets, frames })
}

/// Encode one delta frame for the wire.
pub fn delta_to_json(d: &SceneDelta) -> Json {
    let charts = d.charts.iter().map(|p| {
        let mut o = serde_json::Map::new();
        o.insert("node".into(), json!(p.node.raw));
        o.insert("chart".into(), json!(p.chart));
        if let Some(q) = &p.query {
            o.insert("query".into(), json!(q));
        }
        if let Some(m) = p.mark {
            o.insert("mark".into(), json!(mark_name(m)));
        }
        if let Some(e) = &p.encodings {
            o.insert("encodings".into(), Json::Array(e.iter().map(encoding_json).collect()));
        }
        if let Some(a) = &p.axes {
            o.insert("axes".into(), Json::Array(a.iter().map(axis_json).collect()));
        }
        if let Some(data) = &p.data {
            let d = match data {
                DataPatch::Replace(columns) => object([("replace", columns_json(columns))]),
                // Compact op encoding: a positive integer keeps that many
                // old rows, a negative one drops them, and an array is an
                // inserted column block. Scattered-churn scripts carry
                // hundreds of ops, so per-op bytes dominate the frame.
                DataPatch::Edits(edits) => {
                    let ops = edits.iter().map(|op| match op {
                        RowEdit::Keep(n) => json!(*n as i64),
                        RowEdit::Drop(n) => json!(-(*n as i64)),
                        RowEdit::Insert(cols) => columns_json(cols),
                    });
                    object([("edits", Json::Array(ops.collect()))])
                }
            };
            o.insert("data".into(), d);
        }
        Json::Object(o)
    });
    let widgets = d.widgets.iter().map(|p| {
        object([
            ("node", json!(p.node.raw)),
            ("widget", json!(p.widget)),
            ("state", widget_state_to_json(&p.state)),
        ])
    });
    object([
        ("from", json!(d.from_version)),
        ("to", json!(d.to_version)),
        ("charts", Json::Array(charts.collect())),
        ("widgets", Json::Array(widgets.collect())),
    ])
}

fn edit_from_json(op: &Json) -> Result<RowEdit, String> {
    if let Some(n) = op.as_i64() {
        return match n {
            n if n > 0 => Ok(RowEdit::Keep(n as usize)),
            n if n < 0 => Ok(RowEdit::Drop(n.unsigned_abs() as usize)),
            _ => Err("zero-length edit op".to_string()),
        };
    }
    if op.as_array().is_some() {
        let columns = columns_from_json(op)?;
        block_rows(&columns)?;
        return Ok(RowEdit::Insert(columns));
    }
    Err("bad edit op".to_string())
}

/// Decode one delta frame (the client side of `render_delta`).
pub fn delta_from_json(v: &Json) -> Result<SceneDelta, String> {
    let mut delta = SceneDelta::new(
        v.get("from").and_then(Json::as_u64).ok_or("delta needs from")?,
        v.get("to").and_then(Json::as_u64).ok_or("delta needs to")?,
    );
    for p in v.get("charts").and_then(Json::as_array).ok_or("delta needs charts")? {
        let mut patch = ChartPatch::new(
            node_from_json(p.get("node"))?,
            p.get("chart").and_then(Json::as_u64).ok_or("patch needs a chart")? as usize,
        );
        if let Some(q) = p.get("query").and_then(Json::as_str) {
            patch = patch.query(q);
        }
        if let Some(m) = p.get("mark").and_then(Json::as_str) {
            patch = patch.mark(parse_mark(m)?);
        }
        if let Some(e) = p.get("encodings").and_then(Json::as_array) {
            patch = patch
                .encodings(e.iter().map(encoding_from_json).collect::<Result<Vec<_>, String>>()?);
        }
        if let Some(a) = p.get("axes").and_then(Json::as_array) {
            patch = patch.axes(a.iter().map(axis_from_json).collect::<Result<Vec<_>, String>>()?);
        }
        if let Some(data) = p.get("data") {
            let data = match (data.get("replace"), data.get("edits")) {
                (Some(columns), None) => {
                    let columns = columns_from_json(columns)?;
                    block_rows(&columns)?;
                    DataPatch::Replace(columns)
                }
                (None, Some(edits)) => DataPatch::Edits(
                    edits
                        .as_array()
                        .ok_or("edits must be an array")?
                        .iter()
                        .map(edit_from_json)
                        .collect::<Result<Vec<_>, String>>()?,
                ),
                _ => return Err("data needs exactly one of replace or edits".to_string()),
            };
            patch = patch.data(data);
        }
        delta = delta.chart(patch);
    }
    for p in v.get("widgets").and_then(Json::as_array).ok_or("delta needs widgets")? {
        delta = delta.widget(WidgetPatch::new(
            node_from_json(p.get("node"))?,
            p.get("widget").and_then(Json::as_u64).ok_or("patch needs a widget")? as usize,
            widget_state_from_json(p.get("state").unwrap_or(&Json::Null))?,
        ));
    }
    Ok(delta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_engine::{DataType, Field, Schema};
    use proptest::prelude::*;

    fn result(xs: &[i64]) -> Arc<ResultSet> {
        Arc::new(ResultSet {
            schema: Schema::new(vec![
                Field::new("x", DataType::Int),
                Field::new("y", DataType::Float),
            ]),
            rows: xs.iter().map(|x| vec![Value::Int(*x), Value::Float(*x as f64 / 2.0)]).collect(),
        })
    }

    fn chart_scene(xs: &[i64], query: &str) -> ChartScene {
        let r = result(xs);
        ChartScene {
            node: SceneNodeId::chart(0),
            chart: 0,
            name: "G1".into(),
            title: "t".into(),
            mark: Mark::Scatter,
            encodings: vec![
                Encoding {
                    channel: Channel::X,
                    field: "x".into(),
                    field_type: FieldType::Quantitative,
                },
                Encoding {
                    channel: Channel::Y,
                    field: "y".into(),
                    field_type: FieldType::Quantitative,
                },
            ],
            interactions: vec!["pan-zoom".into()],
            query: query.into(),
            axes: Vec::new(),
            columns: transpose(&r),
            rows: r.rows.len(),
            frame: Rect { x: 0, y: 0, w: 100, h: 100 },
        }
    }

    fn graph_of(chart: ChartScene) -> SceneGraph {
        SceneGraph {
            screen: (100, 100),
            charts: vec![chart],
            widgets: Vec::new(),
            frames: Vec::new(),
        }
    }

    #[test]
    fn pan_like_shift_produces_small_splice() {
        let old = graph_of(chart_scene(&(0..100).collect::<Vec<_>>(), "q0"));
        let new = graph_of(chart_scene(&(10..110).collect::<Vec<_>>(), "q1"));
        let delta = diff_graphs(&old, &new);
        assert_eq!(delta.charts.len(), 1);
        let patch = &delta.charts[0];
        assert_eq!(patch.query.as_deref(), Some("q1"));
        let data = patch.data.as_ref().unwrap();
        // 90 rows overlap: drop the 10 that scrolled off, keep 90, and
        // insert the 10 fresh rows — the only payload.
        let DataPatch::Edits(edits) = data else { panic!("expected edits, got {data:?}") };
        assert_eq!(edits[..2], [RowEdit::Drop(10), RowEdit::Keep(90)]);
        assert!(
            matches!(&edits[2..], [RowEdit::Insert(cols)] if cols[0].values.len() == 10),
            "{edits:?}"
        );

        let mut client = old.clone();
        client.apply(&delta).unwrap();
        assert_eq!(client, new);
    }

    #[test]
    fn scattered_churn_produces_edit_script() {
        // Rows vanish at scattered positions and a couple of fresh rows
        // appear mid-stream: no single contiguous block captures the
        // overlap, but the row-level edit script ships only the two
        // inserted rows.
        let old_xs: Vec<i64> = (0..100).collect();
        let mut new_xs: Vec<i64> =
            old_xs.iter().copied().filter(|x| ![7, 23, 41, 59, 88].contains(x)).collect();
        new_xs.insert(10, 500);
        new_xs.insert(60, 501);

        let old = graph_of(chart_scene(&old_xs, "q0"));
        let new = graph_of(chart_scene(&new_xs, "q1"));
        let delta = diff_graphs(&old, &new);
        let data = delta.charts[0].data.as_ref().unwrap();
        let DataPatch::Edits(edits) = data else { panic!("scattered churn should ship edits") };
        let inserted: usize = edits
            .iter()
            .map(|e| if let RowEdit::Insert(cols) = e { cols[0].values.len() } else { 0 })
            .sum();
        assert_eq!(inserted, 2, "only the inserted rows ride the wire");

        // Through the wire codec, then applied client-side.
        let rt = delta_from_json(&delta_to_json(&delta)).unwrap();
        assert_eq!(rt, delta);
        let mut client = old.clone();
        client.apply(&rt).unwrap();
        assert_eq!(client, new);
    }

    #[test]
    fn truncated_edit_script_is_rejected() {
        let old = graph_of(chart_scene(&[1, 2, 3, 4], "q"));
        let mut delta = diff_graphs(&old, &graph_of(chart_scene(&[1, 2, 3, 4], "q2")));
        // Forge a script that stops short of consuming every old row.
        delta.charts[0].data = Some(DataPatch::Edits(vec![RowEdit::Keep(2), RowEdit::Drop(1)]));
        let mut client = old.clone();
        let err = client.apply(&delta).unwrap_err().to_string();
        assert!(err.contains("consume"), "unexpected error: {err}");
    }

    #[test]
    fn inconsistent_row_counts_are_rejected() {
        // A chart claiming 5 rows over 2 values: the decoder rejects it,
        // and applying a keep over it in memory is an error, not an
        // out-of-bounds panic.
        let mut client = graph_of(chart_scene(&[1, 2], "q"));
        client.charts[0].rows = 5;
        let err = scene_from_json(&scene_to_json(&client)).unwrap_err();
        assert!(err.contains("expected 5"), "unexpected error: {err}");
        let keep = SceneDelta::new(1, 2).chart(
            ChartPatch::new(SceneNodeId::chart(0), 0)
                .data(DataPatch::Edits(vec![RowEdit::Keep(5)])),
        );
        assert!(client.apply(&keep).is_err());

        // Ragged blocks: an insert of 3 `x` values and 0 `y` values, and a
        // replacement of the same shape.
        let ragged = vec![
            ColumnSlice { field: "x".into(), values: Arc::new(vec![Value::Int(7); 3]) },
            ColumnSlice { field: "y".into(), values: Arc::new(Vec::new()) },
        ];
        for data in [
            DataPatch::Edits(vec![RowEdit::Keep(1), RowEdit::Insert(ragged.clone())]),
            DataPatch::Replace(ragged.clone()),
        ] {
            let delta =
                SceneDelta::new(1, 2).chart(ChartPatch::new(SceneNodeId::chart(0), 0).data(data));
            let mut client = graph_of(chart_scene(&[1], "q"));
            let before = client.clone();
            assert!(client.apply(&delta).is_err(), "applied {delta:?}");
            assert_eq!(client, before, "a rejected patch must leave the scene untouched");
            assert!(delta_from_json(&delta_to_json(&delta)).is_err(), "decoded {delta:?}");
        }
    }

    #[test]
    fn zoom_in_is_payload_free() {
        let old = graph_of(chart_scene(&(0..100).collect::<Vec<_>>(), "q"));
        let new = graph_of(chart_scene(&(20..80).collect::<Vec<_>>(), "q"));
        let delta = diff_graphs(&old, &new);
        let data = delta.charts[0].data.as_ref().unwrap();
        assert_eq!(
            data,
            &DataPatch::Edits(vec![RowEdit::Drop(20), RowEdit::Keep(60), RowEdit::Drop(20)])
        );
        let mut client = old.clone();
        client.apply(&delta).unwrap();
        assert_eq!(client, new);
    }

    #[test]
    fn schema_change_full_replaces_and_reestablishes_fields() {
        let old = graph_of(chart_scene(&[1, 2, 3], "q"));
        let mut fresh = chart_scene(&[4, 5], "q2");
        fresh.columns = vec![ColumnSlice {
            field: "renamed".into(),
            values: Arc::new(vec![Value::Int(4), Value::Int(5)]),
        }];
        fresh.rows = 2;
        let new = graph_of(fresh);
        let delta = diff_graphs(&old, &new);
        assert!(matches!(delta.charts[0].data, Some(DataPatch::Replace(_))));
        let mut client = old.clone();
        client.apply(&delta).unwrap();
        assert_eq!(client, new);
        assert_eq!(client.charts[0].columns[0].field, "renamed");
    }

    #[test]
    fn empty_results_round_trip() {
        let old = graph_of(chart_scene(&[1, 2], "q"));
        let new = graph_of(chart_scene(&[], "q2"));
        let delta = diff_graphs(&old, &new);
        let mut client = old.clone();
        client.apply(&delta).unwrap();
        assert_eq!(client, new);
        // And back from empty.
        let back = graph_of(chart_scene(&[7], "q3"));
        let d2 = diff_graphs(&new, &back);
        client.apply(&d2).unwrap();
        assert_eq!(client, back);
    }

    #[test]
    fn scene_state_versions_and_catchup() {
        let g0 = graph_of(chart_scene(&[1, 2], "q"));
        let mut state = SceneState::new(g0.clone());
        assert_eq!(state.version(), 1);
        assert!(matches!(state.deltas_since(1), SceneCatchup::UpToDate));
        assert!(matches!(state.deltas_since(0), SceneCatchup::Resync(_, 1)));

        // No-op sync keeps the version.
        assert!(state.sync(g0.clone()).is_none());
        assert_eq!(state.version(), 1);

        let g1 = graph_of(chart_scene(&[2, 3], "q2"));
        let d1 = state.sync(g1.clone()).unwrap();
        assert_eq!((d1.from_version, d1.to_version), (1, 2));
        let g2 = graph_of(chart_scene(&[3, 4], "q3"));
        state.sync(g2.clone()).unwrap();
        assert_eq!(state.version(), 3);

        match state.deltas_since(1) {
            SceneCatchup::Deltas(chain) => {
                assert_eq!(chain.len(), 2);
                let mut client = g0;
                for d in &chain {
                    client.apply(d).unwrap();
                }
                assert_eq!(client, g2);
            }
            other => panic!("expected deltas, got {other:?}"),
        }
        // A version from the future resyncs.
        assert!(matches!(state.deltas_since(9), SceneCatchup::Resync(_, 3)));
    }

    #[test]
    fn history_eviction_forces_resync() {
        let mut state = SceneState::new(graph_of(chart_scene(&[0], "q0")));
        for i in 1..=(SCENE_HISTORY_CAP as i64 + 4) {
            state.sync(graph_of(chart_scene(&[i], &format!("q{i}"))));
        }
        assert!(matches!(state.deltas_since(1), SceneCatchup::Resync(..)));
    }

    #[test]
    fn json_round_trips_scene_and_delta() {
        let interface = toy_interface();
        let updates = vec![ChartUpdate {
            chart: 0,
            query: pi2_sql::parse_query("SELECT a, count(*) FROM t GROUP BY a").unwrap(),
            result: result(&[1, 2, 3]),
        }];
        let states = vec![(0usize, WidgetState::Range(Literal::Int(1), Literal::Int(5)))];
        let scene = SceneGraph::build(&interface, &updates, &states);
        let rt = scene_from_json(&scene_to_json(&scene)).unwrap();
        assert_eq!(rt, scene);

        let old = graph_of(chart_scene(&[1, 2, 3], "q"));
        let new = graph_of(chart_scene(&[2, 3, 4], "q2"));
        let delta = diff_graphs(&old, &new);
        let delta_rt = delta_from_json(&delta_to_json(&delta)).unwrap();
        assert_eq!(delta_rt, delta);
        let mut client = old;
        client.apply(&delta_rt).unwrap();
        assert_eq!(client, new);
    }

    #[test]
    fn layout_frames_tile_exactly() {
        let interface = toy_interface();
        let scene = SceneGraph::build(&interface, &[], &[]);
        let root = &scene.frames[0];
        assert_eq!(
            root.rect,
            Rect { x: 0, y: 0, w: interface.screen.width, h: interface.screen.height }
        );
        // Children of any split tile their parent without gaps.
        for f in &scene.frames {
            let kids: Vec<&LayoutFrame> = f
                .children
                .iter()
                .filter_map(|c| scene.frames.iter().find(|g| g.node == *c))
                .collect();
            if kids.is_empty() {
                continue;
            }
            let area: u64 = kids.iter().map(|k| k.rect.w as u64 * k.rect.h as u64).sum();
            assert_eq!(area, f.rect.w as u64 * f.rect.h as u64);
        }
        // Every chart and widget got a non-empty frame.
        assert!(scene.charts.iter().all(|c| c.frame.w > 0 && c.frame.h > 0));
        assert!(scene.widgets.iter().all(|w| w.frame.w > 0 && w.frame.h > 0));
    }

    type Row = (i64, i64);

    /// A two-int-column chart over `rows`.
    fn pair_scene(rows: &[Row]) -> ChartScene {
        let column = |field: &str, pick: fn(&Row) -> i64| ColumnSlice {
            field: field.into(),
            values: Arc::new(rows.iter().map(|r| Value::Int(pick(r))).collect()),
        };
        ChartScene {
            columns: vec![column("x", |r| r.0), column("y", |r| r.1)],
            rows: rows.len(),
            ..chart_scene(&[], "q")
        }
    }

    /// Old rows from a small domain, so duplicates are common, and new
    /// rows mixing old rows (in any order) with fresh draws from a
    /// slightly larger domain.
    fn old_and_new_rows() -> impl Strategy<Value = (Vec<Row>, Vec<Row>)> {
        let old = proptest::collection::vec((0i64..10, 0i64..3), 0..40);
        let picks =
            proptest::collection::vec((any::<bool>(), 0usize..64, (0i64..14, 0i64..3)), 0..40);
        (old, picks).prop_map(|(old, picks)| {
            let new = picks
                .into_iter()
                .map(|(shared, i, fresh)| match old.len() {
                    n if shared && n > 0 => old[i % n],
                    _ => fresh,
                })
                .collect();
            (old, new)
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn edit_scripts_rebuild_the_new_rows(rows in old_and_new_rows()) {
            let (old_rows, new_rows) = rows;
            let (old, new) = (pair_scene(&old_rows), pair_scene(&new_rows));
            let count = |rows: &[Row], r: &Row| rows.iter().filter(|x| *x == r).count();
            let anchored =
                new_rows.iter().any(|r| count(&old_rows, r) == 1 && count(&new_rows, r) == 1);
            match diff_data(&old, &new) {
                None => prop_assert_eq!(&old_rows, &new_rows),
                Some(DataPatch::Replace(columns)) => {
                    prop_assert!(!anchored, "replaced although a unique row survives");
                    prop_assert_eq!(columns, new.columns);
                }
                Some(DataPatch::Edits(edits)) => {
                    prop_assert!(anchored, "edits without a unique surviving row");
                    let (columns, n) = apply_edits(&old.columns, old.rows, &edits)
                        .map_err(|e| TestCaseError::fail(e.to_string()))?;
                    prop_assert_eq!(n, new.rows);
                    prop_assert_eq!(columns, new.columns);
                }
            }
        }

        #[test]
        fn sorted_pan_is_drop_keep_insert(
            steps in proptest::collection::vec(1i64..5, 3..80),
            shift in 1usize..80,
        ) {
            let xs: Vec<Row> = steps
                .iter()
                .scan(0i64, |x, step| {
                    *x += step;
                    Some((*x, *x % 3))
                })
                .collect();
            let k = 1 + shift % (xs.len() / 2);
            prop_assume!(2 * k < xs.len());
            let (old, new) = (pair_scene(&xs[..xs.len() - k]), pair_scene(&xs[k..]));
            let want = vec![
                RowEdit::Drop(k),
                RowEdit::Keep(xs.len() - 2 * k),
                RowEdit::Insert(pair_scene(&xs[xs.len() - k..]).columns),
            ];
            prop_assert_eq!(diff_data(&old, &new), Some(DataPatch::Edits(want)));
        }
    }

    fn toy_interface() -> Interface {
        use pi2_interface::{Chart, Widget, WidgetKind};
        Interface {
            charts: vec![Chart {
                id: 0,
                name: "G1".into(),
                title: "counts".into(),
                mark: Mark::Bar,
                encodings: vec![
                    Encoding {
                        channel: Channel::X,
                        field: "x".into(),
                        field_type: FieldType::Nominal,
                    },
                    Encoding {
                        channel: Channel::Y,
                        field: "y".into(),
                        field_type: FieldType::Quantitative,
                    },
                ],
                tree: 0,
                interactions: Vec::new(),
            }],
            widgets: vec![Widget {
                id: 0,
                label: "a".into(),
                kind: WidgetKind::Slider { min: 0.0, max: 10.0, step: 1.0, temporal: false },
                targets: Vec::new(),
            }],
            layout: Layout::Vertical(vec![
                Layout::Leaf(Element::Widget(0)),
                Layout::Leaf(Element::Chart(0)),
            ]),
            screen: pi2_interface::ScreenSpec::default(),
        }
    }
}
