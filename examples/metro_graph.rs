//! Metro-scale cell graphs quick start: the cluster fixed point and the
//! simulator on an **arbitrary topology** instead of the paper's fixed
//! 7-cell ring.
//!
//! A 100-cell urban corridor with five recurring cell kinds (cycled
//! buffer depths — five distinct state-space *shapes*) is solved with
//! graph-ordered Gauss–Seidel sweeps, the default ordering; the
//! template registry counts five distinct cell shapes, one per kind,
//! not one per cell. A uniform hex torus then demonstrates the
//! flow-balanced case that degenerates to the paper's homogeneous
//! single-cell model.
//!
//! ```text
//! cargo run --release --example metro_graph [num_cells]
//! ```
//!
//! CI runs this example as the tier-1 graph smoke.

use gprs_repro::core::cluster::{ClusterModel, ClusterSolveOptions};
use gprs_repro::core::{CellConfig, CellGraph};
use gprs_repro::traffic::TrafficModel;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(100);

    // Five cell kinds along the corridor: buffer depth cycles 6..=10,
    // load ramps gently from the quiet end to the busy end.
    let cells: Vec<CellConfig> = (0..n)
        .map(|i| {
            CellConfig::builder()
                .traffic_model(TrafficModel::Model3)
                .total_channels(6)
                .reserved_pdchs(1)
                .buffer_capacity(6 + (i % 5))
                .max_gprs_sessions(3)
                .call_arrival_rate(0.02 + 0.03 * i as f64 / n as f64)
                .build()
                .expect("valid corridor cell")
        })
        .collect();
    let graph = CellGraph::corridor(n)?;
    println!(
        "metro corridor: {n} cells, {} cell kinds, flow-balanced: {}",
        5.min(n),
        graph.is_flow_balanced()
    );

    let model = ClusterModel::from_graph(graph, cells)?;
    let opts = ClusterSolveOptions::quick();
    let t0 = Instant::now();
    let solved = model.solve(&opts)?;
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "Gauss-Seidel fixed point: {} outer iterations, {:.1} ms \
         ({:.0} closed-form cell updates/s), flow imbalance {:.2e}",
        solved.iterations(),
        secs * 1e3,
        (solved.iterations() * n) as f64 / secs,
        solved.flow_imbalance()
    );
    println!(
        "distinct cell shapes: {} (one per cell kind, not one per cell)",
        solved.symbolic_setups()
    );
    assert_eq!(solved.symbolic_setups(), 5.min(n));
    assert!(solved.flow_imbalance() < 1e-6);

    // The corridor's ends only talk to one neighbour; their handover
    // balance shows the topology (unlike the closed ring, in != out).
    for i in [0, n / 2, n - 1] {
        let c = &solved.cells()[i];
        println!(
            "  cell {i:4}: HO in {:.4}/s, HO out {:.4}/s, CVT {:.3} Erl, GSM block {:.4}",
            c.gsm_handover_in + c.gprs_handover_in,
            c.gsm_handover_out + c.gprs_handover_out,
            c.measures.carried_voice_traffic,
            c.measures.gsm_blocking_probability,
        );
    }

    // Flow-balanced contrast: a uniform hex torus behaves like the
    // paper's homogeneous cell in *every* cell.
    let torus = CellGraph::hex_torus(3, 4)?;
    let uniform = CellConfig::builder()
        .traffic_model(TrafficModel::Model3)
        .total_channels(6)
        .reserved_pdchs(1)
        .buffer_capacity(8)
        .max_gprs_sessions(3)
        .call_arrival_rate(0.03)
        .build()?;
    let cells = vec![uniform; torus.num_cells()];
    let solved = ClusterModel::from_graph(torus, cells)?.solve(&ClusterSolveOptions::quick())?;
    let mid = solved.mid();
    println!(
        "\nuniform 3x4 hex torus: {} iterations, cell 0 HO in {:.4}/s = out {:.4}/s \
         (flow-balanced, degenerates to the single-cell model)",
        solved.iterations(),
        mid.gsm_handover_in + mid.gprs_handover_in,
        mid.gsm_handover_out + mid.gprs_handover_out,
    );
    Ok(())
}
