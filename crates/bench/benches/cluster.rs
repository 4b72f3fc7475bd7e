//! Heterogeneous cluster fixed-point benchmarks: the 7 per-iteration
//! cell solves run sequentially vs fanned out over the machine's
//! threads, plus the load-scale sweep at both fan-out levels. Before
//! timing, the thread counts are checked to agree bit-for-bit (the
//! cluster solve is deterministic by construction).

use criterion::{criterion_group, criterion_main, Criterion};
use gprs_core::cluster::{sweep_load_scales, ClusterModel, ClusterSolveOptions};
use gprs_core::{CellConfig, Scenario};
use gprs_ctmc::solver::SolveOptions;
use gprs_exec::num_threads;
use gprs_traffic::TrafficModel;

fn hot_spot_scenario() -> Scenario {
    let ring = CellConfig::builder()
        .traffic_model(TrafficModel::Model3)
        .buffer_capacity(12)
        .max_gprs_sessions(5)
        .call_arrival_rate(0.3)
        .build()
        .expect("valid config");
    Scenario::hot_spot(ring, 0.6).expect("valid scenario")
}

fn opts(threads: usize) -> ClusterSolveOptions {
    ClusterSolveOptions::quick()
        .with_solve(SolveOptions::quick().with_max_sweeps(200_000))
        .with_threads(threads)
}

fn check_determinism(cluster: &ClusterModel) {
    let seq = cluster.solve(&opts(1)).expect("sequential solve");
    let par = cluster.solve(&opts(num_threads())).expect("parallel solve");
    assert_eq!(seq.iterations(), par.iterations());
    for (a, b) in seq.cells().iter().zip(par.cells()) {
        assert_eq!(
            a.measures, b.measures,
            "thread counts must agree bit-for-bit"
        );
        assert_eq!(a.gsm_handover_in.to_bits(), b.gsm_handover_in.to_bits());
    }
}

fn bench_cluster(c: &mut Criterion) {
    println!("cluster fan-out workers: {}", num_threads());
    let scenario = hot_spot_scenario();
    let cluster = scenario.to_cluster().expect("valid cluster");
    check_determinism(&cluster);

    let mut g = c.benchmark_group("cluster_fixed_point");
    g.sample_size(5);
    g.bench_function("cells_sequential", |b| {
        b.iter(|| cluster.solve(&opts(1)).unwrap())
    });
    g.bench_function("cells_parallel", |b| {
        b.iter(|| cluster.solve(&opts(num_threads())).unwrap())
    });
    g.finish();

    let scales = [0.6, 0.8, 1.0, 1.2, 1.4, 1.6];
    let mut g = c.benchmark_group("cluster_sweep6");
    g.sample_size(3);
    g.bench_function("sequential", |b| {
        b.iter(|| sweep_load_scales(&scenario, &scales, &opts(1)).unwrap())
    });
    g.bench_function("parallel", |b| {
        b.iter(|| sweep_load_scales(&scenario, &scales, &opts(num_threads())).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_cluster);
criterion_main!(benches);
