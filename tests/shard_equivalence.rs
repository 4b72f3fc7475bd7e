//! The sharded-fixed-point contract: for every shard count, thread
//! count and both sweep orderings, the cluster fixed-point engine is
//! **bitwise identical** to its unsharded (`shards = 1`, inline)
//! layout — same iteration counts and bit-equal floating point in
//! every per-cell field and measure.
//! Sharding is an execution layout, never a numeric approximation.
//! `tests/graph_equivalence.rs` anchors the unsharded layout to the
//! historical ring fixtures.

use gprs_core::cluster::ClusterSolveOptions;
use gprs_core::{CellConfig, CellGraph, ClusterModel, Scenario, SolvedCluster, SweepOrdering};
use gprs_traffic::TrafficModel;
use proptest::prelude::*;

fn tiny(rate: f64) -> CellConfig {
    CellConfig::builder()
        .total_channels(4)
        .reserved_pdchs(1)
        .buffer_capacity(4)
        .traffic_model(TrafficModel::Model3)
        .max_gprs_sessions(2)
        .call_arrival_rate(rate)
        .build()
        .unwrap()
}

fn bits(v: f64) -> u64 {
    v.to_bits()
}

/// Asserts complete bitwise equality of two solved clusters: the
/// iteration trace, every handover flux, every population
/// mean, every measure, and the per-cell health bookkeeping.
fn assert_bitwise_equal(a: &SolvedCluster, b: &SolvedCluster, what: &str) {
    assert_eq!(a.iterations(), b.iterations(), "{what}: iterations");
    assert_eq!(
        bits(a.handover_delta()),
        bits(b.handover_delta()),
        "{what}: handover delta"
    );
    assert_eq!(
        a.surrogate_solves(),
        b.surrogate_solves(),
        "{what}: surrogate solves"
    );
    assert_eq!(a.cells().len(), b.cells().len(), "{what}: cell count");
    for (i, (x, y)) in a.cells().iter().zip(b.cells()).enumerate() {
        let cell = format!("{what}: cell {i}");
        assert_eq!(
            bits(x.gsm_handover_in),
            bits(y.gsm_handover_in),
            "{cell}: gsm in"
        );
        assert_eq!(
            bits(x.gprs_handover_in),
            bits(y.gprs_handover_in),
            "{cell}: gprs in"
        );
        assert_eq!(
            bits(x.gsm_handover_out),
            bits(y.gsm_handover_out),
            "{cell}: gsm out"
        );
        assert_eq!(
            bits(x.gprs_handover_out),
            bits(y.gprs_handover_out),
            "{cell}: gprs out"
        );
        assert_eq!(
            bits(x.mean_voice_calls),
            bits(y.mean_voice_calls),
            "{cell}: mean voice calls"
        );
        assert_eq!(
            bits(x.mean_sessions),
            bits(y.mean_sessions),
            "{cell}: mean sessions"
        );
        assert_eq!(x.sweeps, y.sweeps, "{cell}: sweeps");
        assert_eq!(bits(x.residual), bits(y.residual), "{cell}: residual");
        assert_eq!(x.health.rung, y.health.rung, "{cell}: rung");
        assert_eq!(
            x.health.failed_rungs, y.health.failed_rungs,
            "{cell}: failed rungs"
        );
        let m = [
            (x.measures.call_arrival_rate, y.measures.call_arrival_rate),
            (
                x.measures.carried_data_traffic,
                y.measures.carried_data_traffic,
            ),
            (x.measures.mean_queue_length, y.measures.mean_queue_length),
            (
                x.measures.offered_packet_rate,
                y.measures.offered_packet_rate,
            ),
            (
                x.measures.accepted_packet_rate,
                y.measures.accepted_packet_rate,
            ),
            (x.measures.data_throughput, y.measures.data_throughput),
            (
                x.measures.packet_loss_probability,
                y.measures.packet_loss_probability,
            ),
            (x.measures.queueing_delay, y.measures.queueing_delay),
            (
                x.measures.throughput_per_user_kbps,
                y.measures.throughput_per_user_kbps,
            ),
            (
                x.measures.carried_voice_traffic,
                y.measures.carried_voice_traffic,
            ),
            (x.measures.avg_gprs_sessions, y.measures.avg_gprs_sessions),
            (
                x.measures.gsm_blocking_probability,
                y.measures.gsm_blocking_probability,
            ),
            (
                x.measures.gprs_blocking_probability,
                y.measures.gprs_blocking_probability,
            ),
        ];
        for (j, (mx, my)) in m.iter().enumerate() {
            assert_eq!(bits(*mx), bits(*my), "{cell}: measure {j}");
        }
    }
}

/// Shard counts every model is checked at: the default (`0`, which
/// resolves to the thread count), the unsharded layout, two small
/// counts, and one shard per cell.
fn shard_counts(model: &ClusterModel) -> [usize; 5] {
    [0, 1, 2, 3, model.num_cells()]
}

/// Solves `model` unsharded on one thread, then asserts every shard
/// count × thread count {1, 2} layout bit-identical to it.
fn check_layouts(model: &ClusterModel, base: &ClusterSolveOptions, what: &str) {
    let reference = model
        .solve(&base.clone().with_shards(1).with_threads(1))
        .expect("unsharded solve converges");
    for shards in shard_counts(model) {
        for threads in [1usize, 2] {
            let opts = base.clone().with_shards(shards).with_threads(threads);
            let sharded = model.solve(&opts).expect("sharded solve converges");
            assert_bitwise_equal(
                &reference,
                &sharded,
                &format!("{what}/shards={shards}/threads={threads}"),
            );
        }
    }
}

/// The workhorse: [`check_layouts`] under one sweep ordering.
fn check_model(model: &ClusterModel, ordering: SweepOrdering, what: &str) {
    let base = ClusterSolveOptions::quick().with_ordering(ordering);
    check_layouts(model, &base, &format!("{what}/{ordering:?}"));
}

/// The paper's 7-cell ring, homogeneous load: both orderings, every
/// layout, plus a shard count past the cell count (clamped to 7).
#[test]
fn ring7_sharded_matches_classic_bitwise() {
    let model = Scenario::homogeneous(tiny(0.35))
        .unwrap()
        .to_cluster()
        .unwrap();
    check_model(&model, SweepOrdering::Jacobi, "ring7");
    check_model(&model, SweepOrdering::GaussSeidel, "ring7");
    let base = ClusterSolveOptions::quick();
    assert_bitwise_equal(
        &model.solve(&base.clone().with_shards(7)).unwrap(),
        &model.solve(&base.with_shards(64)).unwrap(),
        "ring7/shards=64 clamps to 7",
    );
}

/// A heterogeneous corridor — the metro shape the partitioner cuts into
/// contiguous runs, with a load gradient so every cell's fixed point
/// differs.
#[test]
fn corridor_sharded_matches_classic_bitwise() {
    let n = 12;
    let graph = CellGraph::corridor(n).unwrap();
    let cells: Vec<CellConfig> = (0..n).map(|i| tiny(0.2 + 0.03 * i as f64)).collect();
    let model = ClusterModel::from_graph(graph, cells).unwrap();
    check_model(&model, SweepOrdering::Jacobi, "corridor12");
    check_model(&model, SweepOrdering::GaussSeidel, "corridor12");
}

/// Hot-spot rings under Jacobi sweeps survive sharding bit for bit:
/// the plain hot spot, and a short-dwell one whose slow contraction
/// runs well past 60 outer iterations, so a long trajectory is checked
/// at every layout.
#[test]
fn hot_spot_jacobi_trajectories_survive_sharding() {
    let model = Scenario::hot_spot(tiny(0.25), 0.9)
        .unwrap()
        .to_cluster()
        .unwrap();
    let jacobi = ClusterSolveOptions::quick().with_ordering(SweepOrdering::Jacobi);
    check_layouts(&model, &jacobi, "hotspot");

    let mut short_dwell = tiny(0.25);
    short_dwell.gsm_dwell_time = 0.5;
    short_dwell.gprs_dwell_time = 0.5;
    let model = Scenario::hot_spot(short_dwell, 0.9)
        .unwrap()
        .to_cluster()
        .unwrap();
    let slow = model.solve(&jacobi.clone().with_shards(1)).unwrap();
    assert!(slow.iterations() > 60, "took {}", slow.iterations());
    check_layouts(&model, &jacobi, "hotspot-short-dwell");
}

/// The surrogate (predict-and-verify) solve path counts and warm-start
/// modes are preserved under sharding, for both orderings.
#[test]
fn surrogate_solves_survive_sharding() {
    let model = Scenario::homogeneous(tiny(0.3))
        .unwrap()
        .to_cluster()
        .unwrap();
    for ordering in [SweepOrdering::Jacobi, SweepOrdering::GaussSeidel] {
        let base = ClusterSolveOptions::quick()
            .with_surrogate(true)
            .with_ordering(ordering);
        check_layouts(&model, &base, &format!("surrogate/{ordering:?}"));
    }
}

/// The nightly metro-scale contract: a 1000-cell corridor solved
/// sharded is bit-identical to the unsharded layout, for both
/// orderings. Ignored in tier-1 (minutes of work); CI runs it in the
/// scheduled job via `cargo test -- --ignored shard_equivalence_metro`.
#[test]
#[ignore = "metro-scale: run in the nightly sharded-equivalence job"]
fn shard_equivalence_metro_1000_cell_corridor() {
    let n = 1000;
    let graph = CellGraph::corridor(n).unwrap();
    let cells: Vec<CellConfig> = (0..n)
        .map(|i| tiny(0.2 + 0.2 * (i % 7) as f64 / 7.0))
        .collect();
    let model = ClusterModel::from_graph(graph, cells).unwrap();
    for ordering in [SweepOrdering::Jacobi, SweepOrdering::GaussSeidel] {
        let base = ClusterSolveOptions::quick().with_ordering(ordering);
        let reference = model.solve(&base.clone().with_shards(1)).unwrap();
        for shards in [2usize, 3, 16, n] {
            for threads in [1usize, 2] {
                let opts = base.clone().with_shards(shards).with_threads(threads);
                let sharded = model.solve(&opts).unwrap();
                let what = format!("metro/{ordering:?}/shards={shards}/threads={threads}");
                assert_bitwise_equal(&reference, &sharded, &what);
            }
        }
    }
}

proptest! {
    // Full cluster solves per case; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// On random connected graphs with random loads, every shard count
    /// × thread count layout matches the unsharded one bitwise.
    #[test]
    fn any_shard_count_matches_unsharded_on_random_graphs(seed in 1u64..u64::MAX) {
        let n = 6;
        let mut s = seed ^ 0x9e3779b97f4a7c15;
        let mut unit = move || {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = s;
            let x = (x ^ (x >> 33)).wrapping_mul(0xff51afd7ed558ccd);
            ((x >> 11) as f64) / ((1u64 << 53) as f64)
        };
        let mut adjacency: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
        for i in 1..n {
            let j = ((unit() * i as f64) as usize).min(i - 1);
            let w_ij = 0.25 + 1.75 * unit();
            let w_ji = 0.25 + 1.75 * unit();
            adjacency[i].push((j, w_ij));
            adjacency[j].push((i, w_ji));
        }
        let graph = CellGraph::from_weighted_adjacency(adjacency).unwrap();
        let cells: Vec<CellConfig> = (0..n).map(|_| tiny(0.2 + 0.5 * unit())).collect();
        let model = ClusterModel::from_graph(graph, cells).unwrap();
        for ordering in [SweepOrdering::Jacobi, SweepOrdering::GaussSeidel] {
            check_model(&model, ordering, "random");
        }
    }
}
