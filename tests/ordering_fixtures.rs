//! The ordering contract: the cluster fixed point renders pinned bit
//! patterns under both sweep orderings, on weighted non-ring graphs
//! and with the surrogate on.
//!
//! `tests/graph_equivalence.rs` pins the 7-cell ring under Jacobi
//! sweeps with the surrogate off; `tests/shard_equivalence.rs` pins
//! every shard layout to the one-shard layout of the same code. This
//! file pins the remaining trajectories to values rendered once, so a
//! rewrite of the fixed-point engine cannot move a bit of Gauss–Seidel,
//! weighted-graph or surrogate output unnoticed.
//!
//! Regenerate with
//! `cargo test --test ordering_fixtures -- --ignored regenerate`
//! (only legitimate when the fixed point itself changes semantics).

use gprs_core::cluster::ClusterSolveOptions;
use gprs_core::{CellConfig, CellGraph, ClusterModel, Scenario, SolvedCluster, SweepOrdering};
use gprs_traffic::TrafficModel;
use std::fmt::Write as _;
use std::path::PathBuf;

const FIXTURE: &str = "orderings_model.txt";

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

/// A 12-cell corridor with a load gradient: every cell's fixed point
/// differs, and the end cells receive half an interior outflow.
fn corridor() -> ClusterModel {
    let n = 12;
    let cells: Vec<CellConfig> = (0..n).map(|i| tiny(0.2 + 0.03 * i as f64)).collect();
    ClusterModel::from_graph(CellGraph::corridor(n).unwrap(), cells).unwrap()
}

/// A seeded random tree with extra chords and asymmetric weights, so
/// split fractions differ per edge and per direction.
fn weighted() -> ClusterModel {
    let n = 9;
    let mut s = 0x5eed_u64 ^ 0x9e37_79b9_7f4a_7c15;
    let mut unit = move || {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        let x = (s ^ (s >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
        ((x >> 11) as f64) / ((1u64 << 53) as f64)
    };
    let mut adjacency: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    fn link(
        adjacency: &mut [Vec<(usize, f64)>],
        i: usize,
        j: usize,
        unit: &mut dyn FnMut() -> f64,
    ) {
        if i != j && !adjacency[i].iter().any(|&(t, _)| t == j) {
            adjacency[i].push((j, 0.25 + 1.75 * unit()));
            adjacency[j].push((i, 0.25 + 1.75 * unit()));
        }
    }
    for i in 1..n {
        let j = ((unit() * i as f64) as usize).min(i - 1);
        link(&mut adjacency, i, j, &mut unit);
    }
    for _ in 0..4 {
        let i = ((unit() * n as f64) as usize).min(n - 1);
        let j = ((unit() * n as f64) as usize).min(n - 1);
        link(&mut adjacency, i, j, &mut unit);
    }
    let graph = CellGraph::from_weighted_adjacency(adjacency).unwrap();
    let cells: Vec<CellConfig> = (0..n).map(|_| tiny(0.2 + 0.5 * unit())).collect();
    ClusterModel::from_graph(graph, cells).unwrap()
}

fn ring(rate: f64) -> ClusterModel {
    Scenario::homogeneous(tiny(rate))
        .unwrap()
        .to_cluster()
        .unwrap()
}

/// Every pinned case: a name, the model and its options (before the
/// shard count is set).
fn cases() -> Vec<(String, ClusterModel, ClusterSolveOptions)> {
    let mut out = Vec::new();
    for ordering in [SweepOrdering::Jacobi, SweepOrdering::GaussSeidel] {
        let quick = ClusterSolveOptions::quick().with_ordering(ordering);
        out.push((
            format!("corridor12/{ordering:?}"),
            corridor(),
            quick.clone(),
        ));
        out.push((format!("weighted9/{ordering:?}"), weighted(), quick.clone()));
        out.push((
            format!("ring-surrogate/{ordering:?}"),
            ring(0.3),
            quick.clone().with_surrogate(true),
        ));
        // Off the scalar balance the surrogate also serves solves in
        // the middle of the trajectory, not only near its end.
        out.push((
            format!("hot-spot-surrogate/{ordering:?}"),
            Scenario::hot_spot(tiny(0.3), 0.9)
                .unwrap()
                .to_cluster()
                .unwrap(),
            quick.with_surrogate(true),
        ));
    }
    out
}

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn render_solved(name: &str, solved: &SolvedCluster, out: &mut String) {
    writeln!(
        out,
        "{name}/trace {} {} {}",
        solved.iterations(),
        bits(solved.handover_delta()),
        solved.surrogate_solves(),
    )
    .unwrap();
    for (i, cell) in solved.cells().iter().enumerate() {
        writeln!(
            out,
            "{name}/cell{i} {} {} {} {} {} {} {} {}",
            bits(cell.gsm_handover_in),
            bits(cell.gprs_handover_in),
            bits(cell.gsm_handover_out),
            bits(cell.gprs_handover_out),
            bits(cell.mean_voice_calls),
            bits(cell.mean_sessions),
            cell.sweeps,
            bits(cell.residual),
        )
        .unwrap();
    }
    let m = &solved.mid().measures;
    writeln!(
        out,
        "{name}/mid-measures {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
        bits(m.call_arrival_rate),
        bits(m.carried_data_traffic),
        bits(m.mean_queue_length),
        bits(m.offered_packet_rate),
        bits(m.accepted_packet_rate),
        bits(m.data_throughput),
        bits(m.packet_loss_probability),
        bits(m.queueing_delay),
        bits(m.throughput_per_user_pkts),
        bits(m.throughput_per_user_kbps),
        bits(m.carried_voice_traffic),
        bits(m.avg_gprs_sessions),
        bits(m.gsm_blocking_probability),
        bits(m.gprs_blocking_probability),
        bits(m.gsm_handover_rate),
        bits(m.gprs_handover_rate),
    )
    .unwrap();
}

/// Renders every case solved at `shards` shards on as many threads.
fn render(shards: usize) -> String {
    let mut out = String::new();
    for (name, model, opts) in cases() {
        let opts = opts.with_shards(shards).with_threads(shards);
        let solved = model.solve(&opts).unwrap();
        render_solved(&name, &solved, &mut out);
    }
    out
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(FIXTURE)
}

fn compare(rendered: &str, what: &str) {
    let pinned = std::fs::read_to_string(fixture_path())
        .unwrap_or_else(|e| panic!("fixture {FIXTURE} unreadable ({e}); regenerate first"));
    for (line, (got, want)) in rendered.lines().zip(pinned.lines()).enumerate() {
        assert_eq!(got, want, "{what}: fixture {FIXTURE} line {}", line + 1);
    }
    assert_eq!(
        rendered.lines().count(),
        pinned.lines().count(),
        "{what}: fixture {FIXTURE} length"
    );
}

/// Tier-1 anchor: the one-shard layout renders the pinned bits.
#[test]
fn orderings_match_pinned_fixture_unsharded() {
    compare(&render(1), "shards=1");
}

/// Tier-1 anchor: a three-worker layout renders the same pinned bits.
#[test]
fn orderings_match_pinned_fixture_on_three_shards() {
    compare(&render(3), "shards=3");
}

/// Rewrites the fixture from the current implementation. Only
/// legitimate when the fixed point itself changes semantics.
#[test]
#[ignore]
fn regenerate_fixture() {
    std::fs::write(fixture_path(), render(1)).unwrap();
}
