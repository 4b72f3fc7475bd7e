//! Property tests of the graph topology layer: on *random* connected
//! weighted graphs — not just the hand-built ring/torus/corridor
//! families — the handover sampler must follow the weight split
//! (including the inclusive `u = 1.0` boundary), the cluster fixed
//! point must conserve total handover flow, and the per-iteration cell
//! fan-out must be bit-deterministic in the worker count.

use gprs_core::cluster::ClusterSolveOptions;
use gprs_core::{CellConfig, CellGraph, ClusterModel, SweepOrdering};
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

/// Deterministic uniform draw in `[0, 1)` from a splitmix-style state —
/// the graph generator must be a pure function of the proptest inputs
/// so failures replay.
fn unit(state: &mut u64) -> f64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    let x = *state;
    let x = (x ^ (x >> 33)).wrapping_mul(0xff51afd7ed558ccd);
    ((x >> 11) as f64) / ((1u64 << 53) as f64)
}

/// A random connected graph on `n` cells with asymmetric positive
/// weights: a random spanning tree (cell `i` attaches to a random
/// earlier cell, so connectivity holds by construction) plus up to
/// `n` extra chords.
fn random_graph(n: usize, seed: u64) -> CellGraph {
    let mut s = seed ^ 0x9e3779b97f4a7c15;
    let mut adjacency: Vec<Vec<(usize, f64)>> = vec![Vec::new(); n];
    let connect = |adjacency: &mut Vec<Vec<(usize, f64)>>, a: usize, b: usize, s: &mut u64| {
        if a == b || adjacency[a].iter().any(|&(t, _)| t == b) {
            return;
        }
        // Directions get independent weights: the sampler and the
        // fixed point must not assume w(a→b) == w(b→a).
        let w_ab = 0.25 + 1.75 * unit(s);
        let w_ba = 0.25 + 1.75 * unit(s);
        adjacency[a].push((b, w_ab));
        adjacency[b].push((a, w_ba));
    };
    for i in 1..n {
        let j = ((unit(&mut s) * i as f64) as usize).min(i - 1);
        connect(&mut adjacency, i, j, &mut s);
    }
    for _ in 0..n {
        let a = ((unit(&mut s) * n as f64) as usize).min(n - 1);
        let b = ((unit(&mut s) * n as f64) as usize).min(n - 1);
        connect(&mut adjacency, a, b, &mut s);
    }
    CellGraph::from_weighted_adjacency(adjacency).expect("generator builds valid graphs")
}

fn bits(v: f64) -> u64 {
    v.to_bits()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The sampler realizes exactly the cumulative-weight split: a `u`
    /// strictly inside neighbour `k`'s band `[c_{k-1}, c_k)/W` selects
    /// neighbour `k`; the boundaries `u = 0` and the *inclusive*
    /// `u = 1.0` select the first and last neighbour.
    #[test]
    fn handover_target_follows_the_weight_split(n in 3usize..=9, seed in 1u64..u64::MAX) {
        let graph = random_graph(n, seed);
        for cell in 0..graph.num_cells() {
            let nbrs = graph.neighbors(cell).unwrap();
            let total = graph.weight_total(cell).unwrap();
            let mut cum = 0.0;
            for &(target, w) in nbrs {
                // Band midpoint: strictly inside for any positive w.
                let u = (cum + w / 2.0) / total;
                prop_assert_eq!(
                    graph.handover_target(cell, u).unwrap(),
                    target,
                    "cell {} at u={}",
                    cell,
                    u
                );
                cum += w;
            }
            let first = nbrs[0].0;
            let last = nbrs[nbrs.len() - 1].0;
            prop_assert_eq!(graph.handover_target(cell, 0.0).unwrap(), first);
            prop_assert_eq!(graph.handover_target(cell, 1.0).unwrap(), last);
            // Every draw lands on a genuine neighbour, never the cell.
            for i in 0..=50 {
                let t = graph.handover_target(cell, i as f64 / 50.0).unwrap();
                prop_assert!(nbrs.iter().any(|&(nb, _)| nb == t));
                prop_assert_ne!(t, cell);
            }
        }
    }

    /// Long-run draw frequencies converge on `w / W` — the property the
    /// analytical split fractions assume of the simulator's mobility.
    #[test]
    fn handover_frequencies_match_the_split_fractions(n in 3usize..=7, seed in 1u64..u64::MAX) {
        let graph = random_graph(n, seed);
        const GRID: usize = 4000;
        for cell in 0..graph.num_cells() {
            let nbrs = graph.neighbors(cell).unwrap();
            let total = graph.weight_total(cell).unwrap();
            let mut counts = vec![0usize; graph.num_cells()];
            for i in 0..GRID {
                // Stratified grid over [0, 1): an exact quadrature of
                // the sampler, so the tolerance is one grid step.
                let u = (i as f64 + 0.5) / GRID as f64;
                counts[graph.handover_target(cell, u).unwrap()] += 1;
            }
            for &(target, w) in nbrs {
                let observed = counts[target] as f64 / GRID as f64;
                let expected = w / total;
                prop_assert!(
                    (observed - expected).abs() <= 1.0 / GRID as f64 + 1e-12,
                    "cell {} -> {}: observed {} expected {}",
                    cell, target, observed, expected
                );
            }
        }
    }
}

proptest! {
    // Each case runs full cluster solves; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// At the fixed point the cluster-wide handover flow balances on
    /// *any* connected topology — the cluster is closed, so every
    /// cell's outflux is somebody's influx even when per-cell in/out
    /// are unbalanced (corridor ends, asymmetric weights).
    #[test]
    fn fixed_point_conserves_total_flow_on_random_graphs(
        n in 3usize..=6,
        seed in 1u64..u64::MAX,
    ) {
        let graph = random_graph(n, seed);
        let mut s = seed ^ 0xd1b54a32d192ed03;
        let cells: Vec<CellConfig> = (0..n).map(|_| tiny(0.2 + 0.5 * unit(&mut s))).collect();
        let model = ClusterModel::from_graph(graph, cells).unwrap();
        let solved = model.solve(&ClusterSolveOptions::quick()).unwrap();
        prop_assert!(
            solved.flow_imbalance() < 1e-6,
            "flow imbalance {} on a {}-cell random graph",
            solved.flow_imbalance(),
            n
        );
    }

    /// The per-iteration cell fan-out is bit-deterministic in the
    /// worker count, for both sweep orderings: 1, 2 and 8 threads give
    /// byte-identical fixed points.
    #[test]
    fn thread_count_never_changes_the_fixed_point(seed in 1u64..u64::MAX) {
        let n = 5;
        let graph = random_graph(n, seed);
        let mut s = seed ^ 0x2545f4914f6cdd1d;
        let cells: Vec<CellConfig> = (0..n).map(|_| tiny(0.2 + 0.5 * unit(&mut s))).collect();
        let model = ClusterModel::from_graph(graph, cells).unwrap();
        for ordering in [SweepOrdering::Jacobi, SweepOrdering::GaussSeidel] {
            let solve = |threads: usize| {
                let opts = ClusterSolveOptions::quick()
                    .with_ordering(ordering)
                    .with_threads(threads);
                model.solve(&opts).unwrap()
            };
            let reference = solve(1);
            for threads in [2usize, 8] {
                let other = solve(threads);
                prop_assert_eq!(other.iterations(), reference.iterations());
                for (a, b) in other.cells().iter().zip(reference.cells()) {
                    prop_assert_eq!(bits(a.gsm_handover_in), bits(b.gsm_handover_in));
                    prop_assert_eq!(bits(a.gprs_handover_in), bits(b.gprs_handover_in));
                    prop_assert_eq!(bits(a.gsm_handover_out), bits(b.gsm_handover_out));
                    prop_assert_eq!(bits(a.gprs_handover_out), bits(b.gprs_handover_out));
                    prop_assert_eq!(bits(a.mean_voice_calls), bits(b.mean_voice_calls));
                    prop_assert_eq!(bits(a.mean_sessions), bits(b.mean_sessions));
                    prop_assert_eq!(
                        bits(a.measures.data_throughput),
                        bits(b.measures.data_throughput)
                    );
                }
            }
        }
    }
}
