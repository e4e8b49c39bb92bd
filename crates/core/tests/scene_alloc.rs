//! The scene's data path copies chart data once: a rebuilt chart holds
//! its result's own typed columns, and a delta's edit script carries one
//! inserted-rows block however many insert runs it has, gathered as one
//! typed copy per column (a string column's cells are dictionary codes,
//! not a `String` each). So building a chart, diffing a pan into an edit
//! script, and cloning a delta into the history ring (and dropping an
//! evicted one) each cost a number of allocations that does not grow with
//! the rows. This binary counts allocations with its own global allocator,
//! per thread, so concurrently running tests do not interfere.

use pi2_core::scene::{
    ChartScene, ColumnSlice, DataPatch, Rect, RowEdit, SceneGraph, SceneNodeId, SceneState,
};
use pi2_core::ChartUpdate;
use pi2_engine::{DataType, Field, ResultSet, Schema, Value};
use pi2_interface::{
    Channel, Chart, Element, Encoding, FieldType, Interface, Layout, Mark, ScreenSpec,
};
use std::alloc::{GlobalAlloc, Layout as AllocLayout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: AllocLayout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: AllocLayout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: AllocLayout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` performs on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCS.with(Cell::get);
    f();
    ALLOCS.with(Cell::get) - before
}

fn xy_chart() -> Chart {
    let encode = |channel, field: &str| Encoding {
        channel,
        field: field.into(),
        field_type: FieldType::Quantitative,
    };
    Chart {
        id: 0,
        name: "G1".into(),
        title: "xy".into(),
        mark: Mark::Scatter,
        encodings: vec![encode(Channel::X, "x"), encode(Channel::Y, "y")],
        tree: 0,
        interactions: Vec::new(),
    }
}

fn xy_interface() -> Interface {
    Interface {
        charts: vec![xy_chart()],
        widgets: Vec::new(),
        layout: Layout::Leaf(Element::Chart(0)),
        screen: ScreenSpec::default(),
    }
}

/// A typed result of `rows` distinct rows: `x` FLOAT (NULL every seventh
/// row) and `y` TEXT.
fn float_text_result(rows: i64) -> Arc<ResultSet> {
    let row = |i: i64| {
        let x = if i % 7 == 3 { Value::Null } else { Value::Float(i as f64 / 4.0) };
        vec![x, Value::Str(format!("s{i}"))]
    };
    Arc::new(ResultSet::from_rows(
        Schema::new(vec![Field::new("x", DataType::Float), Field::new("y", DataType::Str)]),
        (0..rows).map(row).collect(),
    ))
}

fn update(result: Arc<ResultSet>) -> ChartUpdate {
    let query = pi2_sql::parse_query("SELECT x, y FROM t").expect("valid SQL");
    ChartUpdate { chart: 0, query, result }
}

#[test]
fn chart_built_from_a_typed_result_does_not_allocate_per_row() {
    let interface = xy_interface();
    let build = |rows: i64| {
        let update = update(float_text_result(rows));
        let mut scene = None;
        let n = allocations(|| scene = Some(SceneGraph::build(&interface, &[update], &[])));
        assert_eq!(scene.expect("built").charts[0].rows, rows as usize);
        n
    };
    let (a, b) = (build(1000), build(4000));
    assert_eq!(a, b, "building the chart allocated {a} times at 1000 rows and {b} at 4000");
}

/// The allocations of syncing a FLOAT and TEXT chart of `rows` rows to the
/// same chart panned by a quarter of its rows, whose edit script inserts
/// that quarter.
fn pan_sync_allocations(rows: i64) -> usize {
    let interface = xy_interface();
    let (shift, all) = (rows / 4, float_text_result(rows + rows / 4));
    let window = |from: i64| {
        let rows = all.rows().skip(from as usize).take(rows as usize).collect();
        update(Arc::new(ResultSet::from_rows(all.schema.clone(), rows)))
    };
    let (old, new) = (window(0), window(shift));
    let mut state = SceneState::new(SceneGraph::build(&interface, &[old], &[]));
    let new = SceneGraph::build(&interface, &[new], &[]);
    let mut delta = None;
    let n = allocations(|| delta = state.sync(new));
    let delta = delta.expect("a pan is damage");
    let Some(DataPatch::Edits { inserted, ops }) = &delta.charts[0].data else {
        panic!("a pan ships an edit script")
    };
    let keep = (rows - shift) as usize;
    assert_eq!(
        ops,
        &[RowEdit::Drop(shift as usize), RowEdit::Keep(keep), RowEdit::Insert(shift as usize)]
    );
    assert_eq!(inserted[1].values.len(), shift as usize);
    n
}

#[test]
fn pan_edit_script_over_float_and_text_does_not_allocate_per_row() {
    let (a, b) = (pan_sync_allocations(1000), pan_sync_allocations(4000));
    assert_eq!(a, b, "the pan's sync allocated {a} times at 1000 rows and {b} at 4000");
}

#[test]
fn rebuilt_chart_shares_the_result_columns() {
    let interface = xy_interface();
    let result = Arc::new(ResultSet::from_rows(
        Schema::new(vec![Field::new("x", DataType::Int), Field::new("y", DataType::Str)]),
        (0..100).map(|i| vec![Value::Int(i), Value::Str(format!("s{i}"))]).collect(),
    ));
    let update = ChartUpdate {
        chart: 0,
        query: pi2_sql::parse_query("SELECT x, y FROM t").expect("valid SQL"),
        result: Arc::clone(&result),
    };
    let scene = SceneGraph::build(&interface, &[update], &[]);
    let chart = &scene.charts[0];
    assert_eq!(chart.rows, 100);
    assert_eq!(chart.columns.len(), result.columns().len());
    for (slice, column) in chart.columns.iter().zip(result.columns()) {
        assert!(Arc::ptr_eq(&slice.values, column), "column {} was copied", slice.field);
    }
}

/// A two-column chart over `xs`.
fn chart_of(xs: &[i64]) -> SceneGraph {
    let column =
        |field: &str, f: fn(i64) -> Value| ColumnSlice::new(field, xs.iter().map(|&x| f(x)));
    let chart = ChartScene {
        node: SceneNodeId::chart(0),
        chart: 0,
        name: "G1".into(),
        title: "xy".into(),
        mark: Mark::Scatter,
        encodings: xy_chart().encodings,
        interactions: Vec::new(),
        query: format!("q{}", xs.len()),
        axes: Vec::new(),
        columns: vec![column("x", Value::Int), column("y", |x| Value::Str(format!("s{x}")))],
        rows: xs.len(),
        frame: Rect { x: 0, y: 0, w: 100, h: 100 },
    };
    SceneGraph { screen: (100, 100), charts: vec![chart], widgets: Vec::new(), frames: Vec::new() }
}

/// The delta of scattered churn: every other old row is replaced by a
/// fresh one, so the edit script has `runs` insert runs.
fn churn_delta(runs: i64) -> pi2_core::SceneDelta {
    let old: Vec<i64> = (0..2 * runs).collect();
    let new: Vec<i64> = (0..runs).flat_map(|i| [2 * i, 1_000_000 + i]).collect();
    let mut state = SceneState::new(chart_of(&old));
    let delta = state.sync(chart_of(&new)).expect("churn is damage");
    let Some(DataPatch::Edits { ops, .. }) = &delta.charts[0].data else {
        panic!("scattered churn ships an edit script")
    };
    let inserts = ops.iter().filter(|op| matches!(op, RowEdit::Insert(_))).count();
    assert_eq!(inserts, runs as usize);
    delta
}

#[test]
fn delta_clone_and_drop_do_not_grow_with_insert_runs() {
    let (small, large) = (churn_delta(1000), churn_delta(4000));
    let clone_and_drop = |delta: &pi2_core::SceneDelta| allocations(|| drop(delta.clone()));
    let (a, b) = (clone_and_drop(&small), clone_and_drop(&large));
    assert_eq!(a, b, "clone + drop allocated {a} times at 1000 runs and {b} at 4000");
    assert!(a <= 16, "clone + drop allocated {a} times");
}
