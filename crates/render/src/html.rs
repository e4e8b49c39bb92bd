//! Standalone interactive HTML export driven by the retained scene graph.
//!
//! The page embeds a [`SceneGraph`] snapshot (the same JSON the
//! `render_delta` server endpoint speaks) plus a small self-contained
//! JavaScript client that renders charts as SVG, widgets as HTML controls,
//! and the layout frames as nested flex rows/columns. The client exposes
//! `window.PI2` with `applyDelta` / `applyFrames` / `setScene`, so a host
//! page (a notebook cell, an iframe parent) can stream `render_delta`
//! patch frames into the export via `postMessage` instead of re-exporting
//! the whole document — mirroring the *Generated Interfaces* panel of
//! paper Figure 7, but live.

use pi2_core::scene::{scene_to_json, SceneGraph};
use pi2_core::{ChartUpdate, WidgetState};
use pi2_interface::{Interface, WidgetId};
use std::fmt::Write as _;

/// Export an interface as a standalone interactive HTML document.
///
/// The export freezes the session at its current bindings; the embedded
/// client can then be advanced by feeding it `render_delta` frames (see
/// the module docs). Widget states default to their rest positions; use
/// [`crate::HtmlRenderer::render_live`] to export with live state.
pub fn export_html(
    title: &str,
    interface: &Interface,
    updates: &[ChartUpdate],
    query_log: &[String],
) -> String {
    export_html_impl(title, interface, updates, query_log, &[])
}

pub(crate) fn export_html_impl(
    title: &str,
    interface: &Interface,
    updates: &[ChartUpdate],
    query_log: &[String],
    widget_states: &[(WidgetId, WidgetState)],
) -> String {
    let scene = SceneGraph::build(interface, updates, widget_states);
    let scene_json = serde_json::to_string(&scene_to_json(&scene))
        .unwrap_or_else(|_| "null".to_string())
        // A literal `</script>` inside the embedded JSON would end the
        // script block early; `<\/` is the same string to the JS parser.
        .replace("</", "<\\/");

    let mut log = String::new();
    if !query_log.is_empty() {
        log.push_str("<details class=\"qlog\"><summary>Query Log</summary><ol>");
        for q in query_log {
            // Pretty-print entries that parse; leave free text as is.
            let pretty = pi2_sql::parse_query(q)
                .map(|p| pi2_sql::format_query(&p, 2))
                .unwrap_or_else(|_| q.clone());
            let _ = write!(log, "<li><pre>{}</pre></li>", escape(&pretty));
        }
        log.push_str("</ol></details>");
    }

    format!(
        "<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\"><title>{t}</title>\n<style>\n{css}\
         </style></head><body><h2>{t}</h2>\n\
         <div id=\"pi2-root\"><noscript>This export renders its scene graph with \
         JavaScript.</noscript></div>\n{log}\n\
         <script>\nconst PI2_SCENE = {scene_json};\n{js}</script>\n</body></html>",
        t = escape(title),
        css = PAGE_CSS,
        log = log,
        scene_json = scene_json,
        js = CLIENT_JS,
    )
}

const PAGE_CSS: &str = "\
body{font-family:sans-serif;margin:16px;background:#fafafa}\n\
.row{display:flex;gap:12px;align-items:flex-start;flex-wrap:wrap}\n\
.col{display:flex;flex-direction:column;gap:12px}\n\
.chart,.widget{background:#fff;border:1px solid #ddd;border-radius:6px;padding:8px}\n\
.widget{font-size:13px;color:#333}\n\
.qlog{margin-top:16px;font-size:13px}\n\
h3{margin:2px 0 6px 0;font-size:14px} .badge{font-size:11px;color:#06c}\n\
.q{font-size:11px;color:#888;margin:4px 0 0 0;white-space:pre-wrap;max-width:420px}\n\
table{border-collapse:collapse;font-size:12px} td,th{border:1px solid #ccc;padding:2px 6px}\n";

/// The embedded scene client. Kept dependency-free and old-browser-friendly
/// so the export stays self-contained and loads anywhere.
const CLIENT_JS: &str = r##"
const PI2 = window.PI2 = {
  scene: PI2_SCENE,
  // Scene version, once known. The static export does not know which
  // server version it froze, so this starts null and locks in on the
  // first setScene/applyFrames call.
  version: null,
  stale: false,
};

// --- value helpers ---------------------------------------------------------
function num(v) {
  if (typeof v === 'number') return v;
  if (typeof v === 'boolean') return v ? 1 : 0;
  if (v && typeof v === 'object') {
    if ('$date' in v) return Date.parse(v.$date + 'T00:00:00Z') / 86400000;
    if ('$float' in v) return parseFloat(v.$float);
  }
  return null;
}
function show(v) {
  if (v === null) return 'null';
  if (v && typeof v === 'object') {
    if ('$date' in v) return v.$date;
    if ('$float' in v) return v.$float;
  }
  return String(v);
}
function esc(s) {
  return String(s).replace(/&/g, '&amp;').replace(/</g, '&lt;')
    .replace(/>/g, '&gt;').replace(/"/g, '&quot;');
}

// --- delta application (client side of render_delta) -----------------------
// Every column must hold exactly `rows` values; a snapshot or frame that
// breaks this is rejected rather than drawn.
function checkRows(cols, rows) {
  for (const col of cols)
    if (col.values.length !== rows)
      throw new Error('column ' + col.field + ' has ' + col.values.length +
        ' values, expected ' + rows);
}
function blockRows(cols) {
  const rows = cols.length ? cols[0].values.length : 0;
  checkRows(cols, rows);
  return rows;
}

function applyEdits(c, edits) {
  // Row-level edit script. Ops walk the old rows once — a positive
  // integer keeps that many rows, a negative one drops them, an array
  // inserts a column block. Every op must stay in bounds and the cursor
  // must land exactly on c.rows, mirroring the server-side validator.
  checkRows(c.columns, c.rows);
  const cols = c.columns.map(col => ({ field: col.field, values: [] }));
  let cursor = 0, rows = 0;
  for (const e of edits) {
    if (typeof e === 'number' && e > 0) {
      if (cursor + e > c.rows) throw new Error('edit script keeps past the end');
      for (let i = 0; i < cols.length; i++) {
        const src = c.columns[i].values;
        for (let r = cursor; r < cursor + e; r++) cols[i].values.push(src[r]);
      }
      cursor += e;
      rows += e;
    } else if (typeof e === 'number' && e < 0) {
      if (cursor - e > c.rows) throw new Error('edit script drops past the end');
      cursor -= e;
    } else if (Array.isArray(e)) {
      if (e.length !== cols.length) throw new Error('edit script insert field-count mismatch');
      rows += blockRows(e);
      for (let i = 0; i < cols.length; i++) {
        if (e[i].field !== cols[i].field) throw new Error('edit script insert field mismatch');
        cols[i].values = cols[i].values.concat(e[i].values);
      }
    } else {
      throw new Error('bad edit op');
    }
  }
  if (cursor !== c.rows) throw new Error('edit script does not consume every old row');
  c.columns = cols;
  c.rows = rows;
}

function applyData(c, d) {
  if (d.replace !== undefined && d.edits === undefined) {
    // Full replacement: re-establishes the field list.
    c.rows = blockRows(d.replace);
    c.columns = d.replace.map(col => ({ field: col.field, values: col.values.slice() }));
  } else if (d.edits !== undefined && d.replace === undefined) {
    applyEdits(c, d.edits);
  } else {
    throw new Error('data needs exactly one of replace or edits');
  }
}

PI2.applyDelta = function (delta) {
  for (const p of delta.charts) {
    const c = PI2.scene.charts.find(x => x.node === p.node);
    if (!c) throw new Error('unknown scene node ' + p.node);
    // Data first: a patch that fails validation leaves the chart as is.
    if (p.data) applyData(c, p.data);
    if (p.query !== undefined) c.query = p.query;
    if (p.mark !== undefined) c.mark = p.mark;
    if (p.encodings !== undefined) c.encodings = p.encodings;
    if (p.axes !== undefined) c.axes = p.axes;
  }
  for (const p of delta.widgets) {
    const w = PI2.scene.widgets.find(x => x.node === p.node);
    if (w) w.state = p.state;
  }
  PI2.version = delta.to;
  render();
};

// Apply a batch of render_delta frames in order. Returns false (and marks
// the client stale) on a version gap or a frame that fails validation —
// the host should fetch a snapshot and call setScene.
PI2.applyFrames = function (frames) {
  for (const f of frames) {
    if (PI2.version !== null && f.from !== PI2.version) {
      PI2.stale = true;
      return false;
    }
    try {
      PI2.applyDelta(f);
    } catch (e) {
      PI2.stale = true;
      return false;
    }
  }
  return true;
};

// Full-snapshot resync.
PI2.setScene = function (scene, version) {
  for (const c of scene.charts) checkRows(c.columns, c.rows);
  PI2.scene = scene;
  PI2.version = version === undefined ? null : version;
  PI2.stale = false;
  render();
};

// Host pages stream frames with:
//   frame.postMessage({pi2: 'frames', frames: [...]}, '*')
//   frame.postMessage({pi2: 'scene', scene: {...}, version: n}, '*')
window.addEventListener('message', ev => {
  const m = ev.data;
  if (!m || typeof m !== 'object') return;
  if (m.pi2 === 'frames') PI2.applyFrames(m.frames || []);
  else if (m.pi2 === 'scene') PI2.setScene(m.scene, m.version);
});

// --- rendering -------------------------------------------------------------
const SVG_W = 420, SVG_H = 260, PAD = 36;

function axisDomain(chart, channel, col) {
  const ax = chart.axes.find(a => a.channel === channel);
  if (ax && ax.min !== undefined && ax.max !== undefined && ax.max > ax.min)
    return [ax.min, ax.max];
  let lo = Infinity, hi = -Infinity;
  for (const v of col.values) {
    const n = num(v);
    if (n !== null && isFinite(n)) { lo = Math.min(lo, n); hi = Math.max(hi, n); }
  }
  if (!isFinite(lo) || hi - lo < 1e-12) return [lo - 0.5, lo + 0.5];
  return [lo, hi];
}

function tableHtml(chart) {
  let s = '<table><tr>';
  for (const c of chart.columns) s += '<th>' + esc(c.field) + '</th>';
  s += '</tr>';
  const n = Math.min(chart.rows, 20);
  for (let i = 0; i < n; i++) {
    s += '<tr>';
    for (const c of chart.columns) s += '<td>' + esc(show(c.values[i])) + '</td>';
    s += '</tr>';
  }
  s += '</table>';
  if (chart.rows > 20) s += '<em>… ' + (chart.rows - 20) + ' more rows</em>';
  return s;
}

function chartSvg(chart) {
  const xe = chart.encodings.find(e => e.channel === 'x');
  const ye = chart.encodings.find(e => e.channel === 'y');
  const xc = xe && chart.columns.find(c => c.field === xe.field);
  const yc = ye && chart.columns.find(c => c.field === ye.field);
  if (chart.mark === 'table' || !xc || !yc) return tableHtml(chart);
  const pts = [];
  for (let i = 0; i < chart.rows; i++) {
    const x = num(xc.values[i]), y = num(yc.values[i]);
    if (x !== null && y !== null) pts.push([x, y]);
  }
  if (!pts.length) return tableHtml(chart);
  const dx = axisDomain(chart, 'x', xc), dy = axisDomain(chart, 'y', yc);
  const sx = v => PAD + (v - dx[0]) / (dx[1] - dx[0]) * (SVG_W - 2 * PAD);
  const sy = v => SVG_H - PAD - (v - dy[0]) / (dy[1] - dy[0]) * (SVG_H - 2 * PAD);
  let marks = '';
  if (chart.mark === 'line' || chart.mark === 'area') {
    const sorted = pts.slice().sort((a, b) => a[0] - b[0]);
    const path = sorted.map(p => sx(p[0]).toFixed(1) + ',' + sy(p[1]).toFixed(1)).join(' ');
    marks = '<polyline points="' + path +
      '" fill="none" stroke="#1f77b4" stroke-width="1.5"/>';
  } else if (chart.mark === 'scatter') {
    for (const p of pts)
      marks += '<circle cx="' + sx(p[0]).toFixed(1) + '" cy="' + sy(p[1]).toFixed(1) +
        '" r="2" fill="#1f77b4" fill-opacity="0.6"/>';
  } else {
    const bw = Math.max((SVG_W - 2 * PAD) / Math.max(pts.length, 1) * 0.8, 1);
    for (const p of pts) {
      const y = sy(p[1]);
      marks += '<rect x="' + (sx(p[0]) - bw / 2).toFixed(1) + '" y="' + y.toFixed(1) +
        '" width="' + bw.toFixed(1) + '" height="' +
        Math.max(SVG_H - PAD - y, 0).toFixed(1) + '" fill="#1f77b4"/>';
    }
  }
  const y0 = SVG_H - PAD;
  return '<svg width="' + SVG_W + '" height="' + SVG_H + '" viewBox="0 0 ' + SVG_W +
    ' ' + SVG_H + '">' +
    '<line x1="' + PAD + '" y1="' + y0 + '" x2="' + (SVG_W - PAD) + '" y2="' + y0 +
    '" stroke="#999"/>' +
    '<line x1="' + PAD + '" y1="' + PAD + '" x2="' + PAD + '" y2="' + y0 +
    '" stroke="#999"/>' + marks +
    '<text x="' + SVG_W / 2 + '" y="' + SVG_H +
    '" font-size="11" text-anchor="middle">' + esc(xe.field) + '</text>' +
    '<text x="10" y="' + SVG_H / 2 + '" font-size="11" transform="rotate(-90 10 ' +
    SVG_H / 2 + ')" text-anchor="middle">' + esc(ye.field) + '</text></svg>';
}

function chartHtml(chart) {
  let s = '<div class="chart" data-node="' + chart.node + '"><h3>' + esc(chart.name) +
    ' · ' + esc(chart.title);
  for (const i of chart.interactions) s += ' <span class="badge">⚡' + esc(i) + '</span>';
  s += '</h3>' + chartSvg(chart) + '<pre class="q">' + esc(chart.query) + '</pre></div>';
  return s;
}

function stateIs(w, i) {
  return w.state && w.state.picked === i;
}

function widgetHtml(w) {
  let control = '';
  if (w.kind === 'radio') {
    control = w.options.map((o, i) =>
      '<label><input type="radio" disabled' + (stateIs(w, i) ? ' checked' : '') + '> ' +
      esc(o) + '</label>').join(' ');
  } else if (w.kind === 'button-group' || w.kind === 'tabs') {
    control = w.options.map((o, i) =>
      '<button disabled' + (stateIs(w, i) ? ' style="font-weight:bold"' : '') + '>' +
      esc(o) + '</button>').join('');
  } else if (w.kind === 'dropdown') {
    control = '<select disabled>' + w.options.map((o, i) =>
      '<option' + (stateIs(w, i) ? ' selected' : '') + '>' + esc(o) + '</option>').join('') +
      '</select>';
  } else if (w.kind === 'toggle') {
    const on = !w.state || w.state.toggled !== false;
    control = '<input type="checkbox"' + (on ? ' checked' : '') + ' disabled>';
  } else if (w.kind === 'slider') {
    const v = w.state && w.state.value !== undefined ? show(w.state.value) : '';
    control = '<input type="range" disabled> <code>' + esc(v) + '</code>';
  } else if (w.kind === 'range-slider') {
    const r = (w.state && w.state.range) || [];
    control = '<input type="range" disabled> – <input type="range" disabled> <code>[' +
      r.map(show).map(esc).join(', ') + ']</code>';
  } else if (w.kind === 'multi-select') {
    const flags = (w.state && w.state.flags) || [];
    control = w.options.map((o, i) =>
      '<label><input type="checkbox"' + (flags[i] ? ' checked' : '') + ' disabled> ' +
      esc(o) + '</label>').join(' ');
  } else {
    const v = w.state && w.state.value !== undefined ? show(w.state.value) : '';
    control = '<input type="text" value="' + esc(v) + '" disabled>';
  }
  return '<div class="widget" data-node="' + w.node + '"><strong>' + esc(w.label) +
    '</strong> ' + control + '</div>';
}

function frameHtml(frame, frames) {
  if (!frame) return '';
  if (frame.kind === 'horizontal' || frame.kind === 'vertical') {
    const cls = frame.kind === 'horizontal' ? 'row' : 'col';
    return '<div class="' + cls + '">' +
      frame.children.map(n => frameHtml(frames.get(n), frames)).join('') + '</div>';
  }
  if (frame.kind && frame.kind.chart !== undefined) {
    const c = PI2.scene.charts.find(x => x.chart === frame.kind.chart);
    return c ? chartHtml(c) : '';
  }
  if (frame.kind && frame.kind.widget !== undefined) {
    const w = PI2.scene.widgets.find(x => x.widget === frame.kind.widget);
    return w ? widgetHtml(w) : '';
  }
  return '';
}

function render() {
  const root = document.getElementById('pi2-root');
  if (!root) return;
  const frames = new Map();
  for (const f of PI2.scene.frames) frames.set(f.node, f);
  if (PI2.scene.frames.length) {
    root.innerHTML = frameHtml(PI2.scene.frames[0], frames);
  } else {
    root.innerHTML = PI2.scene.charts.map(chartHtml).join('') +
      PI2.scene.widgets.map(widgetHtml).join('');
  }
}
PI2.render = render;
render();
"##;

fn escape(s: &str) -> String {
    s.replace('&', "&amp;").replace('<', "&lt;").replace('>', "&gt;").replace('"', "&quot;")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi2_core::{Pi2, SearchStrategy};
    use pi2_interface::Layout;

    #[test]
    fn exports_interactive_client_with_embedded_scene() {
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
        let log: Vec<String> = g.queries.iter().map(|q| q.to_string()).collect();
        let html = export_html("Toy", &g.interface, &updates, &log);
        assert!(html.starts_with("<!DOCTYPE html>"));
        assert!(html.contains("const PI2_SCENE = {"));
        assert!(html.contains("PI2.applyDelta"));
        assert!(html.contains("PI2.applyFrames"));
        assert!(html.contains("Query Log"));
        assert!(html.contains("</html>"));
        // The embedded snapshot carries the chart data inline.
        assert!(html.contains("\"charts\""));
        assert!(html.contains("\"columns\""));
    }

    #[test]
    fn escapes_query_text() {
        let html = export_html(
            "x",
            &Interface {
                charts: vec![],
                widgets: vec![],
                layout: Layout::Vertical(vec![]),
                screen: Default::default(),
            },
            &[],
            &["SELECT a FROM t WHERE a < 3".to_string()],
        );
        assert!(html.contains("&lt; 3"));
    }

    #[test]
    fn embedded_json_cannot_close_the_script_block() {
        let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
            .strategy(SearchStrategy::FullMerge)
            .build();
        let g = pi2.generate_sql(&["SELECT p, count(*) FROM t GROUP BY p"]).unwrap();
        let html = export_html("</script><script>alert(1)", &g.interface, &[], &[]);
        // The title goes through HTML escaping; the scene JSON through the
        // `<\/` rewrite. Neither path may emit a raw close tag.
        assert!(!html.contains("<script>alert"));
    }
}
