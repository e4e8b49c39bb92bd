//! Scenario-level property tests: across random event streams, sessions
//! stay consistent — queries remain expressible, results match direct
//! execution, and bindings stay within domains.

use pi2_core::{Event, Pi2, SearchStrategy};

/// A deterministic pseudo-random walk of interface events.
fn event_stream(n: usize, seed: u64) -> Vec<Event> {
    let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15) | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    (0..n)
        .map(|_| match next() % 4 {
            0 => Event::Pan {
                chart: 0,
                dx: ((next() % 100) as f64 - 50.0) / 10.0,
                dy: ((next() % 100) as f64 - 50.0) / 10.0,
            },
            1 => Event::Zoom { chart: 0, factor: 0.5 + (next() % 30) as f64 / 10.0 },
            2 => Event::Pan { chart: 0, dx: 1e6, dy: -1e6 }, // stress clamping
            _ => Event::Zoom { chart: 0, factor: 0.01 },
        })
        .collect()
}

#[test]
fn sdss_session_survives_random_event_storms() {
    let catalog =
        pi2_datasets::sdss::catalog(&pi2_datasets::sdss::Config { objects: 500, seed: 11 });
    let pi2 = Pi2::builder(catalog.clone()).strategy(SearchStrategy::FullMerge).build();
    let g = pi2.generate(&pi2_datasets::sdss::demo_queries()).expect("generates");

    for seed in 0..4u64 {
        let mut session = pi2.session(&g);
        for event in event_stream(25, seed) {
            let updates = session.dispatch(event.clone()).unwrap_or_else(|e| {
                panic!("seed {seed}: event {event:?} failed: {e}");
            });
            for u in &updates {
                // The session's result must equal direct execution of the
                // same SQL.
                let direct = catalog.execute(&u.query).expect("direct execution");
                assert_eq!(direct.len(), u.result.len());
                // And the query stays inside the DiffTree's language.
                assert!(
                    pi2_difftree::expresses(&g.forest.trees[0], &u.query).is_some(),
                    "seed {seed}: inexpressible {}",
                    u.query
                );
            }
        }
    }
}

#[test]
fn widget_storms_on_toy_interface() {
    let pi2 = Pi2::builder(pi2_datasets::toy::default_catalog())
        .strategy(SearchStrategy::FullMerge)
        .build();
    let g = pi2.generate(&pi2_datasets::toy::fig2_queries()).expect("generates");
    let widgets = g.interface.widgets.clone();
    let mut session = pi2.session(&g);
    // Exercise every widget with every plausible value.
    for w in &widgets {
        let values: Vec<pi2_core::WidgetValue> = match &w.kind {
            pi2_interface::WidgetKind::Toggle => {
                vec![pi2_core::WidgetValue::Bool(false), pi2_core::WidgetValue::Bool(true)]
            }
            pi2_interface::WidgetKind::Radio { options }
            | pi2_interface::WidgetKind::ButtonGroup { options }
            | pi2_interface::WidgetKind::Dropdown { options }
            | pi2_interface::WidgetKind::Tabs { options } => {
                (0..options.len()).map(pi2_core::WidgetValue::Pick).collect()
            }
            pi2_interface::WidgetKind::Slider { min, max, .. } => vec![
                pi2_core::WidgetValue::Scalar(*min),
                pi2_core::WidgetValue::Scalar((*min + *max) / 2.0),
                pi2_core::WidgetValue::Scalar(*max),
            ],
            pi2_interface::WidgetKind::RangeSlider { min, max, .. } => {
                vec![pi2_core::WidgetValue::Range(*min, *max)]
            }
            pi2_interface::WidgetKind::MultiSelect { options } => {
                vec![
                    pi2_core::WidgetValue::Multi(vec![true; options.len()]),
                    pi2_core::WidgetValue::Multi(vec![false; options.len()]),
                ]
            }
            pi2_interface::WidgetKind::TextInput => vec![],
        };
        let mut updated_any = false;
        for v in &values {
            let updates = session
                .dispatch(Event::SetWidget { widget: w.id, value: v.clone() })
                .unwrap_or_else(|e| panic!("widget {} value {v:?}: {e}", w.label));
            updated_any |= !updates.is_empty();
            // Dependency tracking: immediately restating the value the
            // widget now holds must not re-execute any chart.
            let again = session
                .dispatch(Event::SetWidget { widget: w.id, value: v.clone() })
                .unwrap_or_else(|e| panic!("widget {} value {v:?}: {e}", w.label));
            assert!(again.is_empty(), "restating {v:?} on widget {} must be a no-op", w.label);
        }
        // The values are distinct, so at most one of them can restate the
        // widget's starting state: any widget with 2+ values must have
        // driven its charts at least once.
        if values.len() > 1 {
            assert!(updated_any, "widget {} should update at least one chart", w.label);
        }
    }
}

#[test]
fn notebook_revert_then_regenerate_is_stable() {
    let catalog = pi2_datasets::covid::catalog(&pi2_datasets::covid::Config {
        state_limit: Some(5),
        ..Default::default()
    });
    let pi2 = Pi2::builder(catalog).strategy(SearchStrategy::FullMerge).build();
    let mut nb = pi2_notebook::Notebook::with_pi2(pi2);
    let demo = pi2_datasets::covid::demo_queries();
    for q in &demo[..3] {
        nb.add_cell(q.to_string());
    }
    nb.run_all().expect("cells execute");
    let v1 = nb.generate_interface().expect("V1");
    let log1 = nb.version(v1).expect("v1").query_log.clone();

    // Mutate, then revert, then regenerate: the archived log reproduces.
    nb.add_cell("SELECT count(*) FROM covid");
    nb.edit_cell(0, "SELECT 1").expect("edit");
    nb.revert_to(v1).expect("revert");
    nb.run_all().expect("cells re-execute");
    let v2 = nb.generate_interface().expect("V2");
    let log2 = nb.version(v2).expect("v2").query_log.clone();
    assert_eq!(log1, log2, "revert must restore the exact analysis state");
}
