//! A real-city-style weighted topology through the **sharded** cluster
//! fixed point: the graph is loaded from a committed JSON file via the
//! codec (the same schema `gprs-campaign` specs embed), not built from
//! a generator. One coordinator iterates the handover vectors, and the
//! final pass queues the cells' CTMC solves to a pool of workers, each
//! taking the next cell as it frees up.
//!
//! The city (`examples/data/metro_city.json`, 48 cells): a dense 4x4
//! downtown grid, a 12-cell ring road feeding it with commuter-biased
//! weights (heavier toward the core than out of it), and four radial
//! corridors whose handover flux thins toward the outskirts. Edge
//! *presence* is symmetric (handover moves users both ways) but the
//! weights are not — exactly the asymmetry the coordinator's weighted
//! in-edge sums must get right at every worker count.
//!
//! ```text
//! cargo run --release --example metro_city [shards]
//! ```
//!
//! The shard count defaults to 4; whatever the value, the sharded solve
//! is asserted **bitwise identical** to the one-shard solve before any
//! number is printed. CI runs this example as the sharded-graph smoke.

use gprs_repro::core::cluster::{ClusterModel, ClusterSolveOptions};
use gprs_repro::core::codec::{graph_from_json_value, parse_json};
use gprs_repro::core::CellConfig;
use gprs_repro::traffic::TrafficModel;
use std::time::Instant;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let shards: usize = std::env::args()
        .nth(1)
        .map(|s| s.parse())
        .transpose()?
        .unwrap_or(4);

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/metro_city.json");
    let doc = parse_json(&std::fs::read_to_string(path)?)?;
    let graph = graph_from_json_value(&doc, "metro_city")?;
    let n = graph.num_cells();
    println!(
        "metro city: {n} cells from {path}, flow-balanced: {}",
        graph.is_flow_balanced()
    );

    // District load profile: downtown cells run hot, the ring road
    // moderate, the radial corridors taper toward the outskirts.
    let cells: Vec<CellConfig> = (0..n)
        .map(|i| {
            let calls = match i {
                0..=15 => 0.060,                            // downtown grid
                16..=27 => 0.040,                           // ring road
                _ => 0.030 - 0.004 * ((i - 28) % 5) as f64, // radials, thinning
            };
            CellConfig::builder()
                .traffic_model(TrafficModel::Model3)
                .total_channels(6)
                .reserved_pdchs(1)
                .buffer_capacity(8)
                .max_gprs_sessions(3)
                .call_arrival_rate(calls)
                .build()
                .expect("valid city cell")
        })
        .collect();
    let model = ClusterModel::from_graph(graph, cells)?;

    let base_opts = ClusterSolveOptions::quick();

    let t0 = Instant::now();
    let baseline = model.solve(&base_opts.clone().with_shards(1))?;
    let base_s = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let sharded = model.solve(&base_opts.clone().with_shards(shards))?;
    let shard_s = t0.elapsed().as_secs_f64();

    // The signature contract: sharding is purely an execution
    // strategy, so every per-cell float matches bit for bit.
    assert_eq!(sharded.iterations(), baseline.iterations());
    for (a, b) in sharded.cells().iter().zip(baseline.cells()) {
        assert_eq!(a.gsm_handover_in.to_bits(), b.gsm_handover_in.to_bits());
        assert_eq!(a.gprs_handover_in.to_bits(), b.gprs_handover_in.to_bits());
        assert_eq!(
            a.measures.gsm_blocking_probability.to_bits(),
            b.measures.gsm_blocking_probability.to_bits()
        );
    }
    println!(
        "fixed point: {} outer iterations, flow imbalance {:.2e}",
        sharded.iterations(),
        sharded.flow_imbalance()
    );
    println!(
        "1 shard: {:.1} ms | {shards} shards: {:.1} ms (bitwise identical)",
        base_s * 1e3,
        shard_s * 1e3
    );

    // Commuter bias shows up as net inflow downtown and net outflow on
    // the outskirts.
    for (label, i) in [("downtown", 5usize), ("ring road", 20), ("outskirt", 32)] {
        let c = &sharded.cells()[i];
        println!(
            "  {label:9} cell {i:2}: HO in {:.4}/s, out {:.4}/s, \
             GSM block {:.4}, GPRS block {:.4}",
            c.gsm_handover_in + c.gprs_handover_in,
            c.gsm_handover_out + c.gprs_handover_out,
            c.measures.gsm_blocking_probability,
            c.measures.gprs_blocking_probability,
        );
    }
    assert!(sharded.flow_imbalance() < 1e-6);
    Ok(())
}
