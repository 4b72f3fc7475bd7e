//! Topology-level oracle and scale tests.
//!
//! * A **uniform hex torus** is flow-balanced and vertex-transitive, so
//!   its cluster fixed point must collapse onto the paper's homogeneous
//!   single-cell model — the same 1e-8 contract the uniform ring
//!   satisfies, now on a 12-cell topology the legacy code could not
//!   even represent.
//! * A **metro-scale corridor** (1000 cells, 5 cell kinds) exercises
//!   the shape-keyed template registry: it must report exactly 5
//!   distinct cell shapes — one per state-space shape, not one per
//!   cell — and the fixed point must still conserve handover flow.

use gprs_repro::core::cluster::ClusterSolveOptions;
use gprs_repro::core::{CellConfig, CellGraph, ClusterModel, GprsModel};
use gprs_repro::ctmc::SolveOptions;
use gprs_repro::traffic::TrafficModel;

fn small(rate: f64) -> CellConfig {
    CellConfig::builder()
        .total_channels(5)
        .reserved_pdchs(1)
        .buffer_capacity(6)
        .traffic_model(TrafficModel::Model3)
        .max_gprs_sessions(3)
        .call_arrival_rate(rate)
        .build()
        .unwrap()
}

#[test]
fn uniform_hex_torus_matches_the_homogeneous_model() {
    // Every cell of a hex torus has degree 6 with a uniform split and
    // the graph is flow-balanced, so under uniform load each cell sees
    // exactly its own outflow back — the scalar handover balance of the
    // single-cell model. The 3×4 torus fixed point must therefore
    // reproduce the homogeneous oracle in *every* cell.
    let config = small(0.5);
    let tight = SolveOptions::default().with_tolerance(1e-12);
    let oracle_model = GprsModel::new(config.clone()).unwrap();
    let oracle = *oracle_model.solve(&tight, None).unwrap().measures();

    let graph = CellGraph::hex_torus(3, 4).unwrap();
    assert!(graph.is_flow_balanced());
    let cells = vec![config; graph.num_cells()];
    let cluster = ClusterModel::from_graph(graph, cells).unwrap();
    let opts = ClusterSolveOptions::default()
        .with_tolerance(1e-12)
        .with_solve(tight);
    let solved = cluster.solve(&opts).unwrap();

    let rel = |got: f64, want: f64| (got - want).abs() / want.abs().max(1e-12);
    for (i, cell) in solved.cells().iter().enumerate() {
        for (name, got, want) in [
            (
                "carried_data_traffic",
                cell.measures.carried_data_traffic,
                oracle.carried_data_traffic,
            ),
            (
                "carried_voice_traffic",
                cell.measures.carried_voice_traffic,
                oracle.carried_voice_traffic,
            ),
            (
                "avg_gprs_sessions",
                cell.measures.avg_gprs_sessions,
                oracle.avg_gprs_sessions,
            ),
            (
                "packet_loss_probability",
                cell.measures.packet_loss_probability,
                oracle.packet_loss_probability,
            ),
            (
                "queueing_delay",
                cell.measures.queueing_delay,
                oracle.queueing_delay,
            ),
            (
                "gsm_blocking_probability",
                cell.measures.gsm_blocking_probability,
                oracle.gsm_blocking_probability,
            ),
            (
                "gsm_handover_in",
                cell.gsm_handover_in,
                oracle.gsm_handover_rate,
            ),
            (
                "gprs_handover_in",
                cell.gprs_handover_in,
                oracle.gprs_handover_rate,
            ),
        ] {
            assert!(
                rel(got, want) <= 1e-8,
                "torus cell {i} {name}: cluster {got} vs single-cell {want} (rel {:.2e})",
                rel(got, want)
            );
        }
    }
    // One shape only: the registry must not have split per cell.
    assert_eq!(solved.symbolic_setups(), 1);
}

fn corridor_kind(i: usize, n: usize) -> CellConfig {
    // Five cell *shapes* (distinct buffer depths change the state space
    // and CSR pattern), assigned cyclically along the corridor.
    CellConfig::builder()
        .total_channels(4)
        .reserved_pdchs(1)
        .buffer_capacity(4 + (i % 5))
        .traffic_model(TrafficModel::Model3)
        .max_gprs_sessions(2)
        // A gentle load ramp end to end keeps the scenario
        // heterogeneous in rates as well as shapes.
        .call_arrival_rate(0.2 + 0.3 * i as f64 / n as f64)
        .build()
        .unwrap()
}

#[test]
fn metro_corridor_reuses_one_symbolic_setup_per_cell_kind() {
    // 1000 cells, 5 kinds: the shape-keyed registry must count 5
    // distinct shapes, not 1000.
    let n = 1000;
    let graph = CellGraph::corridor(n).unwrap();
    let cells: Vec<CellConfig> = (0..n).map(|i| corridor_kind(i, n)).collect();
    let model = ClusterModel::from_graph(graph, cells).unwrap();
    let opts = ClusterSolveOptions::quick().with_tolerance(1e-6);
    let solved = model.solve(&opts).unwrap();

    assert_eq!(
        solved.symbolic_setups(),
        5,
        "expected one distinct shape per cell kind"
    );
    assert!(
        solved.flow_imbalance() < 1e-6,
        "metro corridor must conserve total handover flow, got {}",
        solved.flow_imbalance()
    );
    // The corridor ends cannot leak flux: cell 0 only talks to cell 1,
    // and everything it emits arrives there.
    let end = &solved.cells()[0];
    assert!(end.gsm_handover_in >= 0.0 && end.gsm_handover_out >= 0.0);
}

/// Nightly-depth cross-validation: a 100-cell corridor solved
/// analytically against the event-driven simulator on the *same*
/// [`CellGraph`]. Run with `cargo test --test graph_oracles -- --ignored`.
#[test]
#[ignore]
fn corridor_cluster_cross_validates_against_the_simulator() {
    use gprs_repro::sim::{GprsSimulator, SimConfig};

    let n = 100;
    let graph = CellGraph::corridor(n).unwrap();
    let cells: Vec<CellConfig> = vec![small(0.4); n];

    let model = ClusterModel::from_graph(graph.clone(), cells.clone()).unwrap();
    let solved = model.solve(&ClusterSolveOptions::quick()).unwrap();
    // Statistics cell 0 is the corridor's end: degree 1, so it receives
    // the full outflux of cell 1 and nothing else.
    let mid = solved.mid();

    let cfg = SimConfig::builder_graph(graph, cells)
        .seed(23)
        .warmup(2_000.0)
        .batches(10, 4_000.0)
        .without_tcp()
        .build();
    let results = GprsSimulator::new(cfg).run();

    // Simulation noise dominates: ask for agreement, not identity.
    let rel = |got: f64, want: f64| (got - want).abs() / want.abs().max(1e-12);
    assert!(
        rel(
            results.carried_voice_traffic.mean,
            mid.measures.carried_voice_traffic
        ) < 0.05,
        "carried voice traffic: sim {} vs model {}",
        results.carried_voice_traffic.mean,
        mid.measures.carried_voice_traffic
    );
    assert!(
        rel(
            results.avg_gprs_sessions.mean,
            mid.measures.avg_gprs_sessions
        ) < 0.10,
        "avg gprs sessions: sim {} vs model {}",
        results.avg_gprs_sessions.mean,
        mid.measures.avg_gprs_sessions
    );
}
