//! An interactive terminal notebook: write SQL cells, select them, generate
//! interfaces, and drive the generated interfaces — the complete demo loop
//! of paper §3, in a REPL.
//!
//! ```sh
//! cargo run --release -p pi2-bench --example notebook_repl [covid|sdss|sp500|toy]
//! ```
//!
//! Commands:
//! ```text
//! <SQL>                 add a cell and run it
//! :cells                list cells with selection checkboxes
//! :select N on|off      set cell N's checkbox
//! :generate             the Generate Interface button
//! :versions             the Generated Interfaces panel
//! :show [V]             render version V (default: latest) with live data
//! :brush V C LO HI      brush chart C of version V (dates as YYYY-MM-DD)
//! :pan V C DX DY        pan chart C
//! :zoom V C FACTOR      zoom chart C
//! :widget V W VALUE     operate widget W (index, on/off, or number)
//! :log V                show version V's archived query log
//! :help                 this text
//! :quit
//! ```
//!
//! When stdin is not a terminal the REPL consumes a scripted session, so it
//! is pipeable: `echo ':help' | cargo run … --example notebook_repl`.

use pi2_core::prelude::*;
use pi2_notebook::Notebook;
use std::collections::HashMap;
use std::io::{BufRead, Write};

fn main() {
    let which = std::env::args().nth(1).unwrap_or_else(|| "covid".to_string());
    let catalog = match which.as_str() {
        "covid" => pi2_datasets::covid::catalog(&Default::default()),
        "sdss" => pi2_datasets::sdss::catalog(&Default::default()),
        "sp500" => pi2_datasets::sp500::catalog(&Default::default()),
        "toy" => pi2_datasets::toy::default_catalog(),
        other => {
            eprintln!("unknown dataset '{other}' (covid|sdss|sp500|toy)");
            std::process::exit(2);
        }
    };
    println!("PI2 notebook over '{which}' — tables: {}", catalog.table_names().join(", "));
    println!("type SQL, or :help for commands\n");

    let mut nb = Notebook::new(catalog);
    // Live sessions per generated version.
    let mut sessions: HashMap<usize, InterfaceSession> = HashMap::new();
    let _ = &mut sessions;

    let stdin = std::io::stdin();
    loop {
        print!("pi2> ");
        let _ = std::io::stdout().flush();
        let mut line = String::new();
        if stdin.lock().read_line(&mut line).unwrap_or(0) == 0 {
            break;
        }
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(cmd) = line.strip_prefix(':') {
            if !run_command(cmd, &mut nb, &mut sessions) {
                break;
            }
        } else {
            let id = nb.add_cell(line);
            match nb.run_cell(id) {
                Ok(result) => {
                    let capped = pi2_engine::ResultSet::from_rows(
                        result.schema.clone(),
                        result.rows().take(8).collect(),
                    );
                    println!("{}", capped.to_ascii_table());
                    if result.len() > 8 {
                        println!("… {} more rows", result.len() - 8);
                    }
                }
                Err(e) => println!("error: {e}"),
            }
        }
    }
}

/// Returns false to quit.
fn run_command(
    cmd: &str,
    nb: &mut Notebook,
    sessions: &mut HashMap<usize, InterfaceSession>,
) -> bool {
    let parts: Vec<&str> = cmd.split_whitespace().collect();
    match parts.first().copied() {
        Some("quit") | Some("q") => return false,
        Some("help") => println!(
            ":cells | :select N on|off | :generate | :versions | :show [V] | \
             :brush V C LO HI | :pan V C DX DY | :zoom V C F | :widget V W VALUE | :log V | :quit"
        ),
        Some("cells") => {
            for c in nb.cells() {
                println!(
                    "[{}] In[{}] {}",
                    if c.selected { "x" } else { " " },
                    c.id + 1,
                    c.source.chars().take(90).collect::<String>()
                );
            }
        }
        Some("select") => {
            let (Some(n), Some(flag)) = (parts.get(1), parts.get(2)) else {
                println!("usage: :select N on|off");
                return true;
            };
            let id: usize = match n.parse::<usize>() {
                Ok(v) if v >= 1 => v - 1,
                _ => {
                    println!("bad cell number");
                    return true;
                }
            };
            match nb.set_selected(id, *flag == "on") {
                Ok(()) => println!("cell {n} {}", flag),
                Err(e) => println!("error: {e}"),
            }
        }
        Some("generate") => match nb.generate_interface() {
            Ok(v) => {
                let version = nb.version(v).expect("just generated");
                println!(
                    "generated {} in {:?}: {} charts, {} widgets, {} viz interactions",
                    version.label(),
                    version.generated.stats.elapsed,
                    version.generated.interface.charts.len(),
                    version.generated.interface.widgets.len(),
                    version.generated.interface.interaction_count(),
                );
                sessions.insert(v, nb.open_session(v).expect("session opens"));
            }
            Err(e) => println!("error: {e}"),
        },
        Some("versions") => {
            for v in nb.versions() {
                println!(
                    "{}: {} charts / {} widgets / {} interactions — log of {}",
                    v.label(),
                    v.generated.interface.charts.len(),
                    v.generated.interface.widgets.len(),
                    v.generated.interface.interaction_count(),
                    v.query_log.len()
                );
            }
        }
        Some("log") => {
            let v = parse_version(&parts, 1, nb);
            match nb.version(v) {
                Ok(version) => {
                    for (i, q) in version.query_log.iter().enumerate() {
                        match pi2_sql::parse_query(q) {
                            Ok(parsed) => {
                                println!("  Q{}:", i + 1);
                                for line in pi2_sql::format_query(&parsed, 2).lines() {
                                    println!("    {line}");
                                }
                            }
                            Err(_) => println!("  Q{}: {q}", i + 1),
                        }
                    }
                }
                Err(e) => println!("error: {e}"),
            }
        }
        Some("show") => {
            let v = parse_version(&parts, 1, nb);
            match sessions.get(&v) {
                Some(session) => match pi2_render::AsciiRenderer.render_live(session) {
                    Ok(text) => println!("{text}"),
                    Err(e) => println!("error: {e}"),
                },
                None => println!("no such version (generate first)"),
            }
        }
        Some("brush") | Some("pan") | Some("zoom") | Some("widget") => {
            dispatch_event(parts, nb, sessions);
        }
        _ => println!("unknown command; :help"),
    }
    true
}

fn parse_version(parts: &[&str], idx: usize, nb: &Notebook) -> usize {
    parts
        .get(idx)
        .and_then(|s| s.trim_start_matches(['v', 'V']).parse().ok())
        .unwrap_or_else(|| nb.versions().len())
}

fn num(parts: &[&str], idx: usize) -> Option<f64> {
    let raw = parts.get(idx)?;
    if let Ok(v) = raw.parse::<f64>() {
        return Some(v);
    }
    pi2_sql::Date::parse(raw).map(|d| d.0 as f64)
}

fn dispatch_event(
    parts: Vec<&str>,
    nb: &mut Notebook,
    sessions: &mut HashMap<usize, InterfaceSession>,
) {
    let v = parse_version(&parts, 1, nb);
    let Some(session) = sessions.get_mut(&v) else {
        println!("no such version (generate first)");
        return;
    };
    let chart_or_widget = parts.get(2).and_then(|s| s.parse::<usize>().ok()).unwrap_or(0);
    let event = match parts[0] {
        "brush" => match (num(&parts, 3), num(&parts, 4)) {
            (Some(low), Some(high)) => Event::Brush { chart: chart_or_widget, low, high },
            _ => {
                println!("usage: :brush V C LO HI");
                return;
            }
        },
        "pan" => Event::Pan {
            chart: chart_or_widget,
            dx: num(&parts, 3).unwrap_or(0.0),
            dy: num(&parts, 4).unwrap_or(0.0),
        },
        "zoom" => Event::Zoom { chart: chart_or_widget, factor: num(&parts, 3).unwrap_or(0.5) },
        "widget" => {
            let raw = parts.get(3).copied().unwrap_or("0");
            // Interpret the value according to the widget's kind.
            let kind = session
                .interface()
                .widgets
                .iter()
                .find(|w| w.id == chart_or_widget)
                .map(|w| w.kind.clone());
            let value = match (raw, &kind) {
                ("on", _) => WidgetValue::Bool(true),
                ("off", _) => WidgetValue::Bool(false),
                (_, Some(pi2_interface::WidgetKind::Slider { .. })) => match num(&parts, 3) {
                    Some(f) => WidgetValue::Scalar(f),
                    None => {
                        println!("usage: :widget V W <number|date>");
                        return;
                    }
                },
                (_, Some(pi2_interface::WidgetKind::RangeSlider { .. })) => {
                    match (num(&parts, 3), num(&parts, 4)) {
                        (Some(lo), Some(hi)) => WidgetValue::Range(lo, hi),
                        _ => {
                            println!("usage: :widget V W LO HI");
                            return;
                        }
                    }
                }
                (s, _) => match s.parse::<usize>() {
                    Ok(i) => WidgetValue::Pick(i),
                    Err(_) => {
                        println!("usage: :widget V W <index|on|off|number>");
                        return;
                    }
                },
            };
            Event::SetWidget { widget: chart_or_widget, value }
        }
        _ => unreachable!("guarded by caller"),
    };
    match session.dispatch(event) {
        Ok(updates) => {
            for u in &updates {
                println!("G{} → {} ({} rows)", u.chart + 1, u.query, u.result.len());
            }
        }
        Err(e) => println!("error: {e}"),
    }
}
