//! Steady-state solver benchmarks: the ablation behind the block
//! tridiagonal (MBD) solver choice.
//!
//! Compares, on the same GPRS chain:
//! * `GprsModel::solve`: block tridiagonal with exact-marginal
//!   projection over a one-shot blocked capture (production),
//! * point Gauss–Seidel over the assembled flat chain (CSR),
//! * GTH direct elimination (small chains only).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gprs_bench::{medium_model, small_model};
use gprs_core::{CellConfig, GprsModel};
use gprs_ctmc::gth::solve_gth;
use gprs_ctmc::solver::{solve_gauss_seidel, SolveOptions};
use gprs_ctmc::{solve_mbd_projected_blocked_ws, BlockedMbd, SolveWorkspace};
use gprs_traffic::TrafficModel;

fn opts() -> SolveOptions {
    SolveOptions::quick().with_max_sweeps(100_000)
}

/// ~700-state model: small enough for the O(n³) GTH direct solver.
fn tiny_model() -> GprsModel {
    let cfg = CellConfig::builder()
        .traffic_model(TrafficModel::Model3)
        .total_channels(6)
        .reserved_pdchs(1)
        .buffer_capacity(6)
        .max_gprs_sessions(3)
        .call_arrival_rate(0.5)
        .build()
        .unwrap();
    GprsModel::new(cfg).unwrap()
}

fn bench_solver_comparison(c: &mut Criterion) {
    // Tiny chain: all three solvers, including direct elimination.
    let tiny = tiny_model();
    let guess = tiny.product_form_guess();
    let mut g = c.benchmark_group("solver_tiny_700");
    g.sample_size(20);
    g.bench_function("model_solve", |b| {
        b.iter(|| tiny.solve(&opts(), Some(&guess)).unwrap())
    });
    let sparse = tiny.assemble_sparse().unwrap();
    g.bench_function("point_gauss_seidel", |b| {
        b.iter(|| solve_gauss_seidel(&sparse, Some(&guess), &opts()).unwrap())
    });
    g.bench_function("gth_direct", |b| b.iter(|| solve_gth(&sparse).unwrap()));
    g.finish();

    // Small chain: the iterative solvers only (GTH is O(n³)).
    let model = small_model();
    let guess = model.product_form_guess();
    let mut g = c.benchmark_group("solver_small_15k");
    g.sample_size(10);
    g.bench_function("model_solve", |b| {
        b.iter(|| model.solve(&opts(), Some(&guess)).unwrap())
    });
    let sparse = model.assemble_sparse().unwrap();
    g.bench_function("point_gauss_seidel", |b| {
        b.iter(|| solve_gauss_seidel(&sparse, Some(&guess), &opts()).unwrap())
    });
    g.finish();
}

fn bench_state_space_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("mbd_scaling");
    g.sample_size(10);
    for (label, k, m) in [("15k", 12, 7), ("46k", 19, 10), ("112k", 29, 13)] {
        let cfg = CellConfig::builder()
            .traffic_model(TrafficModel::Model3)
            .buffer_capacity(k)
            .max_gprs_sessions(m)
            .call_arrival_rate(0.5)
            .build()
            .unwrap();
        let model = GprsModel::new(cfg).unwrap();
        g.bench_with_input(BenchmarkId::new("solve", label), &model, |b, model| {
            b.iter(|| model.solve(&opts(), None).unwrap())
        });
    }
    g.finish();
}

fn bench_single_sweep_cost(c: &mut Criterion) {
    // One projected sweep of the blocked kernel on the medium model,
    // isolating per-sweep cost from convergence behaviour and capture.
    let model = medium_model();
    let marginal = model.phase_marginal();
    let guess = model.product_form_guess();
    let mut blocked = BlockedMbd::new();
    blocked.capture(&model);
    let mut ws = SolveWorkspace::new();
    let one_sweep = SolveOptions::quick()
        .with_max_sweeps(1)
        .with_tolerance(1e-300);
    let mut g = c.benchmark_group("sweep_cost_190k");
    g.sample_size(10);
    g.bench_function("one_projected_sweep", |b| {
        b.iter(|| {
            // NotConverged is the expected outcome after one sweep.
            let _ = solve_mbd_projected_blocked_ws(
                &blocked,
                &marginal,
                Some(&guess),
                &one_sweep,
                &mut ws,
            );
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_solver_comparison,
    bench_state_space_scaling,
    bench_single_sweep_cost
);
criterion_main!(benches);
