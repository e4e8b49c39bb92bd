//! Golden bytes for the scene wire codec. `render_delta` frames, resync
//! snapshots and the HTML client's embedded scene are the text of
//! [`delta_to_json`] / [`scene_to_json`]; clients (the JS apply, the
//! conformance replicas) parse that text, so an encoder change must keep
//! every byte — key order, number spelling, escapes, the `$float` and
//! `$date` wrappers. A change to an expected string here is a change to
//! the wire format.

use pi2_core::scene::{
    delta_from_json, delta_to_json, scene_to_json, AxisScene, ChartPatch, ChartScene, ColumnSlice,
    DataPatch, FrameKind, LayoutFrame, Rect, RowEdit, SceneDelta, SceneGraph, SceneNodeId,
    WidgetPatch, WidgetScene,
};
use pi2_core::WidgetState;
use pi2_engine::{ColumnData, Value};
use pi2_interface::{Channel, Encoding, FieldType, Mark};
use pi2_sql::{Date, Literal, F64};

fn date(s: &str) -> Date {
    Date::parse(s).expect("valid date")
}

fn column(field: &str, values: Vec<Value>) -> ColumnSlice {
    ColumnSlice::new(field, values)
}

/// Three rows covering every cell kind: ints, finite and non-finite
/// floats, strings that need escapes, dates, booleans and nulls.
fn mixed_columns() -> Vec<ColumnSlice> {
    vec![
        column("id", vec![Value::Int(0), Value::Int(-7), Value::Int(i64::MAX)]),
        column("f", vec![Value::Float(f64::NAN), Value::Float(f64::INFINITY), Value::Float(-0.0)]),
        column("g", vec![Value::Float(1e-7), Value::Float(1e21), Value::Float(2.5)]),
        column(
            "s",
            vec![
                Value::Str("quote \" back \\ nl \n tab \t".into()),
                Value::Str("ctl \u{1} bell \u{7} é 😀".into()),
                Value::Str(String::new()),
            ],
        ),
        column(
            "d",
            vec![Value::Date(date("2020-02-29")), Value::Date(date("1969-12-31")), Value::Null],
        ),
        column("b", vec![Value::Bool(true), Value::Bool(false), Value::Null]),
    ]
}

fn encodings() -> Vec<Encoding> {
    vec![
        Encoding { channel: Channel::X, field: "id".into(), field_type: FieldType::Quantitative },
        Encoding { channel: Channel::Color, field: "s".into(), field_type: FieldType::Nominal },
        Encoding { channel: Channel::Y, field: "d".into(), field_type: FieldType::Temporal },
    ]
}

fn axes() -> Vec<AxisScene> {
    vec![
        AxisScene {
            channel: Channel::X,
            field: "id".into(),
            field_type: FieldType::Quantitative,
            min: Some(-7.0),
            max: Some(f64::INFINITY),
        },
        AxisScene {
            channel: Channel::Y,
            field: "d".into(),
            field_type: FieldType::Temporal,
            min: None,
            max: None,
        },
    ]
}

/// Every widget state, with a literal of every kind.
fn states() -> Vec<WidgetState> {
    vec![
        WidgetState::Picked(3),
        WidgetState::Toggled(true),
        WidgetState::Value(Literal::Str("a \"b\"".into())),
        WidgetState::Value(Literal::Float(F64(f64::NEG_INFINITY))),
        WidgetState::Value(Literal::Null),
        WidgetState::Range(Literal::Date(date("2021-01-01")), Literal::Float(F64(0.25))),
        WidgetState::Range(Literal::Int(-1), Literal::Bool(false)),
        WidgetState::Flags(vec![true, false, true]),
        WidgetState::Flags(Vec::new()),
        WidgetState::Unknown,
    ]
}

fn golden_scene() -> SceneGraph {
    let full = ChartScene {
        node: SceneNodeId::chart(0),
        chart: 0,
        name: "G1".into(),
        title: "mixed \"cells\"".into(),
        mark: Mark::Scatter,
        encodings: encodings(),
        interactions: vec!["pan-zoom".into(), "brush".into()],
        query: "SELECT id, f FROM t WHERE s = 'x\ty'".into(),
        axes: axes(),
        columns: mixed_columns(),
        rows: 3,
        frame: Rect { x: 0, y: 40, w: 600, h: 360 },
    };
    let empty = ChartScene {
        node: SceneNodeId::chart(1),
        chart: 1,
        name: "G2".into(),
        title: String::new(),
        mark: Mark::Table,
        encodings: Vec::new(),
        interactions: Vec::new(),
        query: "SELECT a FROM t WHERE false".into(),
        axes: Vec::new(),
        columns: vec![column("a", Vec::new())],
        rows: 0,
        frame: Rect { x: 600, y: 40, w: 200, h: 360 },
    };
    let widgets = states()
        .into_iter()
        .enumerate()
        .map(|(i, state)| WidgetScene {
            node: SceneNodeId::widget(i),
            widget: i,
            label: format!("w{i}"),
            kind: if i % 2 == 0 { "radio".into() } else { "slider".into() },
            options: if i == 0 { vec!["a".into(), "b \\ c".into()] } else { Vec::new() },
            state,
            frame: Rect { x: (i * 80) as u32, y: 0, w: 80, h: 40 },
        })
        .collect();
    let frames = vec![
        LayoutFrame {
            node: SceneNodeId::frame(0),
            kind: FrameKind::Vertical,
            rect: Rect { x: 0, y: 0, w: 800, h: 400 },
            children: vec![SceneNodeId::frame(1), SceneNodeId::frame(2)],
        },
        LayoutFrame {
            node: SceneNodeId::frame(1),
            kind: FrameKind::Widget(0),
            rect: Rect { x: 0, y: 0, w: 800, h: 40 },
            children: vec![SceneNodeId::widget(0)],
        },
        LayoutFrame {
            node: SceneNodeId::frame(2),
            kind: FrameKind::Horizontal,
            rect: Rect { x: 0, y: 40, w: 800, h: 360 },
            children: vec![SceneNodeId::frame(3)],
        },
        LayoutFrame {
            node: SceneNodeId::frame(3),
            kind: FrameKind::Chart(0),
            rect: Rect { x: 0, y: 40, w: 600, h: 360 },
            children: vec![SceneNodeId::chart(0)],
        },
    ];
    SceneGraph { screen: (800, 400), charts: vec![full, empty], widgets, frames }
}

/// A replace patch carrying every header field.
fn replace_delta() -> SceneDelta {
    SceneDelta::new(4, 5).chart(
        ChartPatch::new(SceneNodeId::chart(0), 0)
            .query("SELECT \"id\" FROM t")
            .mark(Mark::Line)
            .encodings(encodings())
            .axes(axes())
            .data(DataPatch::Replace(mixed_columns())),
    )
}

/// An edit script with keep, drop and insert runs, beside a patch with an
/// empty replace and a header-only patch.
fn edits_delta() -> SceneDelta {
    let insert = vec![
        column("id", vec![Value::Int(9), Value::Int(10)]),
        column("f", vec![Value::Float(f64::NEG_INFINITY), Value::Float(1.0)]),
    ];
    SceneDelta::new(11, 12)
        .chart(ChartPatch::new(SceneNodeId::chart(0), 0).query("q'").data(DataPatch::Edits {
            inserted: insert,
            ops: vec![
                RowEdit::Drop(2),
                RowEdit::Keep(40),
                RowEdit::Insert(2),
                RowEdit::Keep(1),
                RowEdit::Drop(3),
            ],
        }))
        .chart(
            ChartPatch::new(SceneNodeId::chart(1), 1)
                .data(DataPatch::Replace(vec![column("a", Vec::new())])),
        )
        .chart(ChartPatch::new(SceneNodeId::chart(2), 2).axes(Vec::new()))
}

/// Widget patches for every state.
fn widgets_delta() -> SceneDelta {
    states().into_iter().enumerate().fold(SceneDelta::new(7, 8), |d, (i, state)| {
        d.widget(WidgetPatch::new(SceneNodeId::widget(i), i, state))
    })
}

/// One column of each result column form: a typed FLOAT column with
/// NULLs, a dictionary TEXT column, a DATE column, and a column whose cells
/// mix INT and FLOAT (held as one `Value` per cell).
fn typed_columns() -> Vec<ColumnSlice> {
    let date = |s: &str| Value::Date(date(s));
    vec![
        column(
            "f",
            vec![
                Value::Float(0.5),
                Value::Null,
                Value::Float(-0.001),
                Value::Null,
                Value::Float(1.0),
            ],
        ),
        column(
            "s",
            vec![
                Value::str("pear"),
                Value::str("apple"),
                Value::Null,
                Value::str("pear"),
                Value::str("é \"q\""),
            ],
        ),
        column(
            "d",
            vec![
                date("2021-01-01"),
                date("1970-01-01"),
                date("1969-12-31"),
                Value::Null,
                date("2000-02-29"),
            ],
        ),
        column(
            "m",
            vec![Value::Int(1), Value::Float(1.0), Value::Null, Value::Int(-2), Value::Float(2.5)],
        ),
    ]
}

/// The typed columns as a replacement and as an edit script's two
/// inserted runs.
fn typed_delta() -> SceneDelta {
    SceneDelta::new(20, 21)
        .chart(ChartPatch::new(SceneNodeId::chart(0), 0).data(DataPatch::Replace(typed_columns())))
        .chart(ChartPatch::new(SceneNodeId::chart(1), 1).data(DataPatch::Edits {
            inserted: typed_columns(),
            ops: vec![RowEdit::Insert(2), RowEdit::Keep(3), RowEdit::Insert(3), RowEdit::Drop(1)],
        }))
}

/// Print through both public printers, which must agree.
fn text(v: &serde_json::Value) -> String {
    let compact = serde_json::to_string(v).expect("printable");
    assert_eq!(v.to_string(), compact, "Display and to_string disagree");
    compact
}

#[test]
fn scene_snapshot_bytes_are_pinned() {
    assert_eq!(text(&scene_to_json(&golden_scene())), SCENE);
}

#[test]
fn replace_delta_bytes_are_pinned() {
    assert_eq!(text(&delta_to_json(&replace_delta())), REPLACE);
}

#[test]
fn edits_delta_bytes_are_pinned() {
    assert_eq!(text(&delta_to_json(&edits_delta())), EDITS);
}

#[test]
fn widget_delta_bytes_are_pinned() {
    assert_eq!(text(&delta_to_json(&widgets_delta())), WIDGETS);
}

#[test]
fn typed_column_bytes_are_pinned() {
    assert_eq!(text(&delta_to_json(&typed_delta())), TYPED);
}

/// Each typed column decodes back to its canonical form: FLOAT, TEXT and
/// DATE cells typed, the mixed column one `Value` per cell with `INT 1`
/// kept apart from `FLOAT 1.0`.
#[test]
fn typed_columns_decode_to_their_canonical_form() {
    let json = serde_json::from_str(TYPED).expect("valid JSON");
    let decoded = delta_from_json(&json).expect("decodes");
    assert_eq!(decoded, typed_delta());
    for patch in &decoded.charts {
        let columns = match patch.data.as_ref().expect("data") {
            DataPatch::Replace(columns) => columns,
            DataPatch::Edits { inserted, .. } => inserted,
        };
        let forms: Vec<&ColumnData> = columns.iter().map(|c| c.values.data()).collect();
        assert!(
            matches!(
                forms[..],
                [
                    ColumnData::Float(_),
                    ColumnData::Str(_),
                    ColumnData::Date(_),
                    ColumnData::Values(_)
                ]
            ),
            "{forms:?}"
        );
        let mixed = &columns[3].values;
        assert!(matches!((mixed.value(0), mixed.value(1)), (Value::Int(1), Value::Float(_))));
        assert!(!mixed.same_cell(0, mixed, 1));
        assert_eq!(text(&delta_to_json(&decoded)), TYPED);
    }
}

#[test]
fn empty_delta_and_scene_bytes_are_pinned() {
    assert_eq!(text(&delta_to_json(&SceneDelta::new(0, 1))), EMPTY_DELTA);
    let empty =
        SceneGraph { screen: (0, 0), charts: Vec::new(), widgets: Vec::new(), frames: Vec::new() };
    assert_eq!(text(&scene_to_json(&empty)), EMPTY_SCENE);
}

const SCENE: &str = concat!(
    r#"{"screen":[800,400],"#,
    r#""charts":[{"node":16777216,"chart":0,"name":"G1","title":"mixed \"cells\"","#,
    r#""mark":"scatter","encodings":[{"channel":"x","field":"id","type":"quantitative"},"#,
    r#"{"channel":"color","field":"s","type":"nominal"},"#,
    r#"{"channel":"y","field":"d","type":"temporal"}],"interactions":["pan-zoom","brush"],"#,
    r#""query":"SELECT id, f FROM t WHERE s = 'x\ty'","axes":[{"channel":"x","field":"id","#,
    r#""type":"quantitative","min":-7.0,"max":{"$float":"inf"}},"#,
    r#"{"channel":"y","field":"d","type":"temporal"}],"#,
    r#""rows":3,"columns":[{"field":"id","values":[0,-7,9223372036854775807]},"#,
    r#"{"field":"f","values":[{"$float":"NaN"},{"$float":"inf"},-0.0]},"#,
    r#"{"field":"g","values":[0.0000001,1000000000000000000000.0,2.5]},"#,
    r#"{"field":"s","values":["quote \" back \\ nl \n tab \t","ctl \u0001 bell \u0007 é 😀","#,
    r#"""]},{"field":"d","values":[{"$date":"2020-02-29"},{"$date":"1969-12-31"},null]},"#,
    r#"{"field":"b","values":[true,false,null]}],"frame":[0,40,600,360]},"#,
    r#"{"node":16777217,"chart":1,"name":"G2","title":"","mark":"table","encodings":[],"#,
    r#""interactions":[],"query":"SELECT a FROM t WHERE false","axes":[],"#,
    r#""rows":0,"columns":[{"field":"a","values":[]}],"frame":[600,40,200,360]}],"#,
    r#""widgets":[{"node":33554432,"widget":0,"label":"w0","kind":"radio","options":["a","#,
    r#""b \\ c"],"state":{"picked":3},"frame":[0,0,80,40]},"#,
    r#"{"node":33554433,"widget":1,"label":"w1","kind":"slider","options":[],"#,
    r#""state":{"toggled":true},"frame":[80,0,80,40]},"#,
    r#"{"node":33554434,"widget":2,"label":"w2","kind":"radio","options":[],"#,
    r#""state":{"value":"a \"b\""},"frame":[160,0,80,40]},"#,
    r#"{"node":33554435,"widget":3,"label":"w3","kind":"slider","options":[],"#,
    r#""state":{"value":{"$float":"-inf"}},"frame":[240,0,80,40]},"#,
    r#"{"node":33554436,"widget":4,"label":"w4","kind":"radio","options":[],"#,
    r#""state":{"value":null},"frame":[320,0,80,40]},"#,
    r#"{"node":33554437,"widget":5,"label":"w5","kind":"slider","options":[],"#,
    r#""state":{"range":[{"$date":"2021-01-01"},0.25]},"frame":[400,0,80,40]},"#,
    r#"{"node":33554438,"widget":6,"label":"w6","kind":"radio","options":[],"#,
    r#""state":{"range":[-1,false]},"frame":[480,0,80,40]},"#,
    r#"{"node":33554439,"widget":7,"label":"w7","kind":"slider","options":[],"#,
    r#""state":{"flags":[true,false,true]},"frame":[560,0,80,40]},"#,
    r#"{"node":33554440,"widget":8,"label":"w8","kind":"radio","options":[],"#,
    r#""state":{"flags":[]},"frame":[640,0,80,40]},"#,
    r#"{"node":33554441,"widget":9,"label":"w9","kind":"slider","options":[],"#,
    r#""state":{"unknown":true},"frame":[720,0,80,40]}],"#,
    r#""frames":[{"node":50331648,"kind":"vertical","rect":[0,0,800,400],"#,
    r#""children":[50331649,50331650]},{"node":50331649,"kind":{"widget":0},"#,
    r#""rect":[0,0,800,40],"children":[33554432]},"#,
    r#"{"node":50331650,"kind":"horizontal","rect":[0,40,800,360],"children":[50331651]},"#,
    r#"{"node":50331651,"kind":{"chart":0},"rect":[0,40,600,360],"children":[16777216]}]}"#,
);

const REPLACE: &str = concat!(
    r#"{"from":4,"to":5,"charts":[{"node":16777216,"chart":0,"query":"SELECT \"id\" FROM t","#,
    r#""mark":"line","encodings":[{"channel":"x","field":"id","type":"quantitative"},"#,
    r#"{"channel":"color","field":"s","type":"nominal"},"#,
    r#"{"channel":"y","field":"d","type":"temporal"}],"#,
    r#""axes":[{"channel":"x","field":"id","type":"quantitative","min":-7.0,"#,
    r#""max":{"$float":"inf"}},{"channel":"y","field":"d","type":"temporal"}],"#,
    r#""data":{"replace":[{"field":"id","values":[0,-7,9223372036854775807]},"#,
    r#"{"field":"f","values":[{"$float":"NaN"},{"$float":"inf"},-0.0]},"#,
    r#"{"field":"g","values":[0.0000001,1000000000000000000000.0,2.5]},"#,
    r#"{"field":"s","values":["quote \" back \\ nl \n tab \t","ctl \u0001 bell \u0007 é 😀","#,
    r#"""]},{"field":"d","values":[{"$date":"2020-02-29"},{"$date":"1969-12-31"},null]},"#,
    r#"{"field":"b","values":[true,false,null]}]}}],"widgets":[]}"#,
);

const EDITS: &str = concat!(
    r#"{"from":11,"to":12,"charts":[{"node":16777216,"chart":0,"query":"q'","#,
    r#""data":{"edits":[-2,40,[{"field":"id","values":[9,10]},"#,
    r#"{"field":"f","values":[{"$float":"-inf"},1.0]}],1,-3]}},"#,
    r#"{"node":16777217,"chart":1,"data":{"replace":[{"field":"a","values":[]}]}},"#,
    r#"{"node":16777218,"chart":2,"axes":[]}],"widgets":[]}"#,
);

const WIDGETS: &str = concat!(
    r#"{"from":7,"to":8,"charts":[],"#,
    r#""widgets":[{"node":33554432,"widget":0,"state":{"picked":3}},"#,
    r#"{"node":33554433,"widget":1,"state":{"toggled":true}},"#,
    r#"{"node":33554434,"widget":2,"state":{"value":"a \"b\""}},"#,
    r#"{"node":33554435,"widget":3,"state":{"value":{"$float":"-inf"}}},"#,
    r#"{"node":33554436,"widget":4,"state":{"value":null}},"#,
    r#"{"node":33554437,"widget":5,"state":{"range":[{"$date":"2021-01-01"},0.25]}},"#,
    r#"{"node":33554438,"widget":6,"state":{"range":[-1,false]}},"#,
    r#"{"node":33554439,"widget":7,"state":{"flags":[true,false,true]}},"#,
    r#"{"node":33554440,"widget":8,"state":{"flags":[]}},"#,
    r#"{"node":33554441,"widget":9,"state":{"unknown":true}}]}"#,
);

const TYPED: &str = concat!(
    r#"{"from":20,"to":21,"charts":[{"node":16777216,"chart":0,"data":{"replace":["#,
    r#"{"field":"f","values":[0.5,null,-0.001,null,1.0]},"#,
    r#"{"field":"s","values":["pear","apple",null,"pear","é \"q\""]},"#,
    r#"{"field":"d","values":[{"$date":"2021-01-01"},{"$date":"1970-01-01"},"#,
    r#"{"$date":"1969-12-31"},null,{"$date":"2000-02-29"}]},"#,
    r#"{"field":"m","values":[1,1.0,null,-2,2.5]}]}},"#,
    r#"{"node":16777217,"chart":1,"data":{"edits":[[{"field":"f","values":[0.5,null]},"#,
    r#"{"field":"s","values":["pear","apple"]},"#,
    r#"{"field":"d","values":[{"$date":"2021-01-01"},{"$date":"1970-01-01"}]},"#,
    r#"{"field":"m","values":[1,1.0]}],3,[{"field":"f","values":[-0.001,null,1.0]},"#,
    r#"{"field":"s","values":[null,"pear","é \"q\""]},"#,
    r#"{"field":"d","values":[{"$date":"1969-12-31"},null,{"$date":"2000-02-29"}]},"#,
    r#"{"field":"m","values":[null,-2,2.5]}],-1]}}],"widgets":[]}"#,
);

const EMPTY_DELTA: &str = r#"{"from":0,"to":1,"charts":[],"widgets":[]}"#;

const EMPTY_SCENE: &str = r#"{"screen":[0,0],"charts":[],"widgets":[],"frames":[]}"#;
