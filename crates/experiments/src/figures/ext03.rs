//! Extension E3: hot-spot cluster — the heterogeneous 7-cell fixed
//! point against the paper's homogeneous single-cell model.
//!
//! The paper's Markov model balances handover flows under the
//! homogeneity assumption: every cell carries the same load, so a hot
//! cell's incoming handover flow is (implicitly) assumed to match its
//! own elevated outflow. The heterogeneous cluster model
//! (`gprs_core::cluster`) drops that assumption: here the mid cell runs
//! at **twice** the ring cells' arrival rate, and its incoming handover
//! flow comes from its *lightly loaded* neighbours. The figure sweeps
//! the overall load (heterogeneity pattern fixed) and compares the
//! cluster's mid cell against two homogeneous models — one at the hot
//! rate (what the paper's method would predict for the hot cell) and
//! one at the ring rate.

use crate::figures::shared::solve_references;
use crate::scale::Scale;
use crate::series::{FigureResult, Panel, Series, ShapeCheck};
use gprs_core::cluster::{sweep_load_scales, ClusterSolveOptions, MID_CELL};
use gprs_core::{CellConfig, ModelError, Scenario};
use gprs_exec::num_threads;
use gprs_traffic::TrafficModel;

/// Hot-spot factor: the mid cell's arrival rate over the ring cells'.
const HOT_FACTOR: f64 = 2.0;

fn ring_cell(scale: Scale, rate: f64) -> Result<CellConfig, ModelError> {
    // Smaller session cap than the paper's M = 20 keeps the 7-cell
    // fixed point quick-scale friendly (7 cells × outer iterations).
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

    // One scenario describes the whole campaign; the cluster model and
    // the homogeneous references below are lowerings of it.
    let scenario = Scenario::hot_spot(ring_cell(scale, base_rate)?, HOT_FACTOR * base_rate)?
        .named("ext03 hot-spot");
    eprintln!(
        "  ext03: cluster fixed point at {} load scales ({} states/cell)",
        scales.len(),
        scenario.base_cells()[0].num_states()
    );
    let points = sweep_load_scales(&scenario, &scales, &opts)?;

    let mid_rates: Vec<f64> = points.iter().map(|p| p.mid_rate).collect();
    let mut mid_block = Vec::new();
    let mut ring_block = Vec::new();
    let mut homog_hot_block = Vec::new();
    let mut homog_ring_block = Vec::new();
    let mut mid_in = Vec::new();
    let mut mid_out = Vec::new();
    let mut mid_atu = Vec::new();
    let mut homog_hot_atu = Vec::new();

    // The homogeneous references (two single-cell solves per point) are
    // independent of each other and of the cluster sweep — fan them out
    // over the worker pool instead of leaving a serial tail. Each is the
    // scenario's own "what would homogeneity predict for this cell"
    // lowering: the scaled scenario, made uniform at the hot mid cell
    // (resp. a ring cell), dropped into the single-cell model.
    let homog = solve_references(
        &scenario.base_cells()[MID_CELL],
        points.len(),
        num_threads(),
        &opts.solve,
        |i| {
            let at_scale = scenario.clone().with_load_scale(scales[i])?;
            Ok([
                at_scale.homogeneous_at(MID_CELL)?.to_model()?,
                at_scale.homogeneous_at(1)?.to_model()?,
            ])
        },
    )?;

    for (p, [hot, homog_ring]) in points.iter().zip(&homog) {
        let mid = p.solved.mid();
        let ring = &p.solved.cells()[1];
        mid_block.push(mid.measures.gsm_blocking_probability);
        ring_block.push(ring.measures.gsm_blocking_probability);
        mid_in.push(mid.gsm_handover_in + mid.gprs_handover_in);
        mid_out.push(mid.gsm_handover_out + mid.gprs_handover_out);
        mid_atu.push(mid.measures.throughput_per_user_kbps);
        homog_hot_block.push(hot.gsm_blocking_probability);
        homog_hot_atu.push(hot.throughput_per_user_kbps);
        homog_ring_block.push(homog_ring.gsm_blocking_probability);
    }

    let last = points.len() - 1;
    let mut checks = Vec::new();
    // (1) The hot cell always blocks more voice than its light ring.
    checks.push(ShapeCheck::new(
        "hot mid cell blocks more than the ring cells at every load",
        mid_block.iter().zip(&ring_block).all(|(m, r)| m >= r),
        format!(
            "at top load: mid {:.4} vs ring {:.4}",
            mid_block[last], ring_block[last]
        ),
    ));
    // (2) Neighbourhood relief: light neighbours send the hot cell less
    // handover traffic than homogeneity assumes, so the heterogeneous
    // blocking is bracketed by the two homogeneous references.
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
    // (3) The hot cell is a net exporter of handover flow everywhere.
    checks.push(ShapeCheck::new(
        "hot mid cell exports handover flow at every load",
        mid_out.iter().zip(&mid_in).all(|(o, i)| o > i),
        format!(
            "at top load: out {:.4}/s vs in {:.4}/s",
            mid_out[last], mid_in[last]
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
        id: "ext03".into(),
        title: format!(
            "Ext. 3: hot-spot cluster (mid cell at {HOT_FACTOR}x ring load) vs homogeneous model"
        ),
        x_label: "mid-cell call arrival rate (calls/s)".into(),
        panels: vec![
            Panel {
                title: "GSM voice blocking in the hot cell".into(),
                y_label: "blocking probability".into(),
                log_y: true,
                series: vec![
                    Series::new("cluster mid cell", mid_rates.clone(), mid_block),
                    Series::new("homogeneous @ hot rate", mid_rates.clone(), homog_hot_block),
                    Series::new(
                        "homogeneous @ ring rate",
                        mid_rates.clone(),
                        homog_ring_block,
                    ),
                    Series::new("cluster ring cell", mid_rates.clone(), ring_block),
                ],
            },
            Panel {
                title: "mid-cell handover flux".into(),
                y_label: "flow (1/s)".into(),
                log_y: false,
                series: vec![
                    Series::new("incoming (from light ring)", mid_rates.clone(), mid_in),
                    Series::new("outgoing", mid_rates.clone(), mid_out),
                ],
            },
            Panel {
                title: "throughput per user in the hot cell".into(),
                y_label: "ATU (kbit/s)".into(),
                log_y: false,
                series: vec![
                    Series::new("cluster mid cell", mid_rates.clone(), mid_atu),
                    Series::new("homogeneous @ hot rate", mid_rates, homog_hot_atu),
                ],
            },
        ],
        checks,
        notes: vec![
            "extension beyond the paper: heterogeneous per-cell loads, which the \
             homogeneity assumption of Eqs. (4)-(5) cannot represent"
                .into(),
            format!("hot-spot factor {HOT_FACTOR}, ring cells swept over the load axis"),
        ],
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ext03_shape_checks_pass() {
        let fig = run(Scale::Quick).unwrap();
        assert_eq!(fig.panels.len(), 3);
        for c in &fig.checks {
            assert!(c.pass, "failed: {} ({})", c.description, c.detail);
        }
    }
}
