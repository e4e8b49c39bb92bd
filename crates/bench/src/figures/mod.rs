//! One module per paper exhibit. Each `run()` regenerates the exhibit and
//! returns it as printable text; the corresponding `regen_*` binary prints
//! it, and the integration tests assert on its qualitative content (who
//! wins, which interactions appear — the paper's claims).

pub mod ablations;
pub mod fig1_sdss;
pub mod fig2_static;
pub mod fig3_predicates;
pub mod fig4_merged;
pub mod fig5_multiview;
pub mod fig6_pipeline;
pub mod fig7_covid;
pub mod latency;
pub mod search_quality;
pub mod table1;

/// An exhibit generator: renders one paper table or figure as text.
pub type Exhibit = fn() -> String;

/// Every exhibit in paper order: (name, generator).
pub fn all() -> Vec<(&'static str, Exhibit)> {
    vec![
        ("Table 1 — tool comparison", table1::run as Exhibit),
        ("Figure 1 — SDSS: Lux vs Hex vs PI2", fig1_sdss::run),
        ("Figure 2 — example queries and static interfaces", fig2_static::run),
        ("Figure 3 — DiffTree variants for Q1/Q2", fig3_predicates::run),
        ("Figure 4 — merged DiffTree for Q1–Q3", fig4_merged::run),
        ("Figure 5 — multi-view click binding", fig5_multiview::run),
        ("Figure 6 — generation pipeline trace", fig6_pipeline::run),
        ("Figure 7 — COVID-19 walkthrough (V1→V3)", fig7_covid::run),
        ("TR — generation latency", latency::run),
        ("TR — search quality (MCTS vs greedy)", search_quality::run),
        ("Ablations — cost-model terms", ablations::run),
    ]
}
