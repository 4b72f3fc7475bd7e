//! Extension E4: mixed-coding cluster — a CS-4 upgrade of the hot mid
//! cell inside a CS-2 ring, swept over the load axis.
//!
//! The per-cell simulator/model pipeline makes *parameter*-heterogeneous
//! clusters first-class: here the mid cell carries twice the ring load
//! **and** has been upgraded to clean-channel CS-4 (21.4 kbit/s per
//! PDCH), while the six ring cells stay on the paper's CS-2. The figure
//! sweeps the overall load (pattern fixed) and separates the two
//! effects:
//!
//! * the *voice* side is coding-blind — the hot cell's blocking is
//!   governed by the handover fixed point exactly as in ext03;
//! * the *data* side shows what the upgrade buys: the mid cell's
//!   per-user throughput against the homogeneous hot-rate references
//!   with and without the CS-4 upgrade.
//!
//! The same scenario lowers unchanged to the network simulator
//! (`SimConfig::for_scenario`), which the cross-validation suite runs
//! against this fixed point.

use crate::figures::shared::solve_references;
use crate::scale::Scale;
use crate::series::{FigureResult, Panel, Series, ShapeCheck};
use gprs_core::cluster::{sweep_load_scales, ClusterSolveOptions, MID_CELL};
use gprs_core::{CellConfig, CodingScheme, ModelError, Scenario};
use gprs_exec::num_threads;
use gprs_traffic::TrafficModel;

/// Hot-spot factor: the mid cell's arrival rate over the ring cells'.
const HOT_FACTOR: f64 = 2.0;

fn ring_cell(scale: Scale, rate: f64) -> Result<CellConfig, ModelError> {
    // Same quick-scale sizing rationale as ext03: the 7-cell fixed
    // point repeats per sweep point.
    let sessions = match scale {
        Scale::Full => 20,
        Scale::Quick => 4,
    };
    let buffer = match scale {
        Scale::Full => 100,
        Scale::Quick => 12,
    };
    CellConfig::builder()
        .traffic_model(TrafficModel::Model3)
        .max_gprs_sessions(sessions)
        .buffer_capacity(buffer)
        .call_arrival_rate(rate)
        .build()
}

/// Runs the extension figure.
///
/// # Errors
///
/// Propagates construction and solver errors.
pub fn run(scale: Scale) -> Result<FigureResult, ModelError> {
    let base_rate = 0.25;
    let scales: Vec<f64> = match scale {
        Scale::Full => (0..8).map(|i| 0.4 + 0.2 * i as f64).collect(),
        Scale::Quick => vec![0.6, 1.0, 1.4, 1.8],
    };
    let opts = match scale {
        Scale::Full => ClusterSolveOptions::default(),
        Scale::Quick => ClusterSolveOptions::quick(),
    };

    // One scenario describes the whole campaign: hot mid cell at 2x the
    // ring rate, upgraded to CS-4; CS-2 ring. The simulator consumes
    // the very same value through SimConfig::for_scenario.
    let ring = ring_cell(scale, base_rate)?;
    let mut cells = vec![ring; gprs_core::cluster::NUM_CELLS];
    cells[MID_CELL].call_arrival_rate = HOT_FACTOR * base_rate;
    cells[MID_CELL].coding_scheme = CodingScheme::Cs4;
    let scenario = Scenario::from_cells("ext04 mixed-coding hot spot", cells)?;
    eprintln!(
        "  ext04: mixed-coding cluster fixed point at {} load scales ({} states/cell)",
        scales.len(),
        scenario.base_cells()[0].num_states()
    );
    let points = sweep_load_scales(&scenario, &scales, &opts)?;

    let mid_rates: Vec<f64> = points.iter().map(|p| p.mid_rate).collect();
    let mut mid_block = Vec::new();
    let mut ring_block = Vec::new();
    let mut mid_in = Vec::new();
    let mut mid_out = Vec::new();
    let mut mid_atu = Vec::new();
    let mut homog_hot_block = Vec::new();
    let mut homog_ring_block = Vec::new();
    let mut upgraded_atu = Vec::new();
    let mut legacy_atu = Vec::new();

    // Homogeneous references per point, solved like ext03's (all share
    // one CTMC shape; the coding scheme only scales service rates):
    // (a) the scenario's own uniform lowering at the hot CS-4 mid cell,
    // (b) the same cell rolled back to CS-2 — "what if the operator had
    //     not upgraded", and
    // (c) the CS-2 ring reference for the blocking bracket.
    let homog = solve_references(
        &scenario.base_cells()[MID_CELL],
        points.len(),
        num_threads(),
        &opts.solve,
        |i| {
            let at_scale = scenario.clone().with_load_scale(scales[i])?;
            let upgraded_scenario = at_scale.homogeneous_at(MID_CELL)?;
            let mut legacy_cell = upgraded_scenario.base_cells()[MID_CELL].clone();
            legacy_cell.coding_scheme = CodingScheme::Cs2;
            Ok([
                upgraded_scenario.to_model()?,
                Scenario::homogeneous(legacy_cell)?.to_model()?,
                at_scale.homogeneous_at(1)?.to_model()?,
            ])
        },
    )?;

    for (p, [upgraded, legacy, homog_ring]) in points.iter().zip(&homog) {
        let mid = p.solved.mid();
        let ring = &p.solved.cells()[1];
        mid_block.push(mid.measures.gsm_blocking_probability);
        ring_block.push(ring.measures.gsm_blocking_probability);
        mid_in.push(mid.gsm_handover_in + mid.gprs_handover_in);
        mid_out.push(mid.gsm_handover_out + mid.gprs_handover_out);
        mid_atu.push(mid.measures.throughput_per_user_kbps);
        homog_hot_block.push(upgraded.gsm_blocking_probability);
        homog_ring_block.push(homog_ring.gsm_blocking_probability);
        upgraded_atu.push(upgraded.throughput_per_user_kbps);
        legacy_atu.push(legacy.throughput_per_user_kbps);
    }

    let last = points.len() - 1;
    let mut checks = Vec::new();
    // (1) The hot cell always blocks more voice than its light ring —
    // coding is invisible to the voice side.
    checks.push(ShapeCheck::new(
        "hot mid cell blocks more than the ring cells at every load",
        mid_block.iter().zip(&ring_block).all(|(m, r)| m >= r),
        format!(
            "at top load: mid {:.4} vs ring {:.4}",
            mid_block[last], ring_block[last]
        ),
    ));
    // (2) Neighbourhood relief brackets the blocking exactly as in the
    // uniform-coding hot spot: lightly loaded CS-2 neighbours send back
    // less handover traffic than homogeneity assumes.
    let bracketed = mid_block
        .iter()
        .enumerate()
        .all(|(i, &m)| m <= homog_hot_block[i] + 1e-9 && m >= homog_ring_block[i] - 1e-9);
    checks.push(ShapeCheck::new(
        "mid-cell blocking lies between the homogeneous ring-rate and hot-rate models",
        bracketed,
        format!(
            "at top load: ring-homog {:.4} <= cluster {:.4} <= hot-homog {:.4}",
            homog_ring_block[last], mid_block[last], homog_hot_block[last]
        ),
    ));
    // (3) The CS-4 upgrade visibly pays on the data side: the cluster's
    // upgraded mid cell out-delivers the un-upgraded homogeneous
    // reference at every load.
    checks.push(ShapeCheck::new(
        "upgraded (CS-4) mid cell beats the CS-2 hot-rate reference in ATU",
        mid_atu.iter().zip(&legacy_atu).all(|(m, l)| m > l),
        format!(
            "at top load: cluster CS-4 {:.2} vs homogeneous CS-2 {:.2} kbit/s",
            mid_atu[last], legacy_atu[last]
        ),
    ));
    // (4) The closed cluster conserves handover flow at the fixed point.
    let max_imbalance = points
        .iter()
        .map(|p| p.solved.flow_imbalance())
        .fold(0.0f64, f64::max);
    checks.push(ShapeCheck::new(
        "cluster-wide handover flow is conserved (imbalance < 1e-6)",
        max_imbalance < 1e-6,
        format!("max relative imbalance {max_imbalance:.2e}"),
    ));
    // (5) Blocking grows along the load axis.
    checks.push(ShapeCheck::new(
        "mid-cell blocking is monotone in the load",
        mid_block.windows(2).all(|w| w[1] >= w[0] - 1e-12),
        format!("{:.4} -> {:.4}", mid_block[0], mid_block[last]),
    ));

    Ok(FigureResult {
        id: "ext04".into(),
        title: format!(
            "Ext. 4: mixed-coding cluster (CS-4 hot mid cell at {HOT_FACTOR}x ring load, CS-2 ring)"
        ),
        x_label: "mid-cell call arrival rate (calls/s)".into(),
        panels: vec![
            Panel {
                title: "GSM voice blocking (coding-blind)".into(),
                y_label: "blocking probability".into(),
                log_y: true,
                series: vec![
                    Series::new("cluster mid cell (CS-4)", mid_rates.clone(), mid_block),
                    Series::new("homogeneous @ hot rate", mid_rates.clone(), homog_hot_block),
                    Series::new(
                        "homogeneous @ ring rate",
                        mid_rates.clone(),
                        homog_ring_block,
                    ),
                    Series::new("cluster ring cell (CS-2)", mid_rates.clone(), ring_block),
                ],
            },
            Panel {
                title: "what the CS-4 upgrade buys the hot cell".into(),
                y_label: "ATU (kbit/s)".into(),
                log_y: false,
                series: vec![
                    Series::new("cluster mid cell (CS-4)", mid_rates.clone(), mid_atu),
                    Series::new(
                        "homogeneous @ hot rate, CS-4",
                        mid_rates.clone(),
                        upgraded_atu,
                    ),
                    Series::new(
                        "homogeneous @ hot rate, CS-2 (no upgrade)",
                        mid_rates.clone(),
                        legacy_atu,
                    ),
                ],
            },
            Panel {
                title: "mid-cell handover flux".into(),
                y_label: "flow (1/s)".into(),
                log_y: false,
                series: vec![
                    Series::new("incoming (from CS-2 ring)", mid_rates.clone(), mid_in),
                    Series::new("outgoing", mid_rates, mid_out),
                ],
            },
        ],
        checks,
        notes: vec![
            "extension beyond the paper: per-cell coding schemes combined with a \
             hot-spot load pattern — representable since the simulator/model \
             pipeline lowers fully heterogeneous per-cell configurations"
                .into(),
            format!(
                "hot-spot factor {HOT_FACTOR}; the same scenario runs in the network \
                 simulator via SimConfig::for_scenario (see tests/model_vs_simulator.rs)"
            ),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext04_shape_checks_pass() {
        let fig = run(Scale::Quick).unwrap();
        assert_eq!(fig.panels.len(), 3);
        for c in &fig.checks {
            assert!(c.pass, "failed: {} ({})", c.description, c.detail);
        }
    }
}
