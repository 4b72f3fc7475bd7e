//! End-to-end tests of the parallel solve pipeline on the GPRS model:
//! the arrival-rate sweep and the cluster fixed point must be
//! deterministic — bit-identical results in order for any worker
//! count.

use gprs_core::cluster::{sweep_load_scales, ClusterSolveOptions};
use gprs_core::sweep::{
    par_sweep_arrival_rates_threads, par_sweep_arrival_rates_with, rate_grid, sweep_arrival_rates,
};
use gprs_core::{CellConfig, Scenario};
use gprs_ctmc::solver::SolveOptions;
use gprs_traffic::TrafficModel;
use std::sync::Mutex;

fn tiny_base() -> CellConfig {
    CellConfig::builder()
        .total_channels(4)
        .reserved_pdchs(1)
        .buffer_capacity(5)
        .traffic_model(TrafficModel::Model3)
        .max_gprs_sessions(2)
        .call_arrival_rate(0.5)
        .build()
        .unwrap()
}

#[test]
fn par_sweep_is_bit_identical_across_thread_counts() {
    let base = tiny_base();
    let rates = rate_grid(0.2, 0.8, 7);
    let opts = SolveOptions::default();
    let reference = sweep_arrival_rates(&base, &rates, &opts).unwrap();
    for threads in [1usize, 2, 3, 8] {
        let par = par_sweep_arrival_rates_threads(&base, &rates, &opts, threads).unwrap();
        assert_eq!(par.len(), reference.len(), "threads {threads}");
        for (p, r) in par.iter().zip(&reference) {
            // Points must come back in rate order with *exactly* the
            // sequential results: same solver code runs per point, only
            // the scheduling differs.
            assert_eq!(p.rate, r.rate, "threads {threads}");
            assert_eq!(p.measures, r.measures, "threads {threads} rate {}", p.rate);
            assert_eq!(p.sweeps, r.sweeps, "threads {threads}");
            assert_eq!(
                p.residual.to_bits(),
                r.residual.to_bits(),
                "threads {threads}"
            );
        }
    }
}

#[test]
fn par_sweep_progress_reports_every_point_once() {
    let base = tiny_base();
    let rates = rate_grid(0.2, 0.6, 5);
    let seen = Mutex::new(Vec::new());
    let pts = par_sweep_arrival_rates_with(&base, &rates, &SolveOptions::quick(), 4, |i, p| {
        seen.lock().unwrap().push((i, p.rate))
    })
    .unwrap();
    assert_eq!(pts.len(), 5);
    let mut seen = seen.into_inner().unwrap();
    seen.sort_by_key(|&(i, _)| i);
    assert_eq!(seen.len(), 5);
    for (k, (i, rate)) in seen.into_iter().enumerate() {
        assert_eq!(k, i);
        assert_eq!(rate, rates[i]);
    }
}

#[test]
fn cluster_fixed_point_is_bit_identical_across_thread_counts() {
    // The heterogeneous cluster fans its 7 per-iteration cell solves
    // over its shard workers; like the arrival-rate sweep, the worker count
    // (RAYON_NUM_THREADS in production, explicit here) must not change
    // a single bit of the result.
    let cluster = Scenario::hot_spot(tiny_base(), 1.0)
        .unwrap()
        .to_cluster()
        .unwrap();
    let reference = cluster
        .solve(&ClusterSolveOptions::default().with_threads(1))
        .unwrap();
    assert!(
        reference.iterations() > 1,
        "heterogeneous load must iterate"
    );
    for threads in [2usize, 4] {
        let par = cluster
            .solve(&ClusterSolveOptions::default().with_threads(threads))
            .unwrap();
        assert_eq!(
            par.iterations(),
            reference.iterations(),
            "threads {threads}"
        );
        assert_eq!(
            par.handover_delta().to_bits(),
            reference.handover_delta().to_bits(),
            "threads {threads}"
        );
        for (cell, (p, r)) in par.cells().iter().zip(reference.cells()).enumerate() {
            assert_eq!(p.measures, r.measures, "threads {threads} cell {cell}");
            assert_eq!(
                p.gsm_handover_in.to_bits(),
                r.gsm_handover_in.to_bits(),
                "threads {threads} cell {cell}"
            );
            assert_eq!(
                p.gprs_handover_in.to_bits(),
                r.gprs_handover_in.to_bits(),
                "threads {threads} cell {cell}"
            );
            assert_eq!(p.sweeps, r.sweeps, "threads {threads} cell {cell}");
            assert_eq!(
                p.residual.to_bits(),
                r.residual.to_bits(),
                "threads {threads} cell {cell}"
            );
        }
    }
}

#[test]
fn cluster_par_sweep_is_bit_identical_across_thread_counts() {
    let scenario = Scenario::hot_spot(tiny_base(), 1.0).unwrap();
    let scales = [0.5, 0.8, 1.1, 1.4];
    let opts = ClusterSolveOptions::default();
    let reference = sweep_load_scales(&scenario, &scales, &opts.clone().with_threads(1)).unwrap();
    // The last input asks for 4 shards per point: the sweep pins each
    // point to one thread regardless.
    let inputs = [(0usize, 0usize), (2, 0), (4, 0), (2, 4)];
    for (threads, shards) in inputs {
        let point_opts = opts.clone().with_threads(threads).with_shards(shards);
        let par = sweep_load_scales(&scenario, &scales, &point_opts).unwrap();
        assert_eq!(par.len(), reference.len(), "threads {threads}");
        for (p, r) in par.iter().zip(&reference) {
            assert_eq!(p.scale, r.scale, "threads {threads}");
            assert_eq!(p.mid_rate, r.mid_rate, "threads {threads}");
            assert_eq!(p.solved.iterations(), r.solved.iterations());
            for (a, b) in p.solved.cells().iter().zip(r.solved.cells()) {
                assert_eq!(
                    a.measures, b.measures,
                    "threads {threads} scale {}",
                    p.scale
                );
                assert_eq!(a.gsm_handover_in.to_bits(), b.gsm_handover_in.to_bits());
            }
        }
    }
}

#[test]
fn starved_sweep_degrades_identically_at_every_thread_count() {
    let base = tiny_base();
    let rates = rate_grid(0.2, 0.8, 4);
    // One sweep cannot converge: every point falls through the fallback
    // ladder to the direct GTH rung (these chains are small). The
    // degraded path must stay as deterministic as the happy path —
    // same rungs, same bits, in rate order, for any worker count.
    let opts = SolveOptions::default().with_max_sweeps(1);
    let seq = sweep_arrival_rates(&base, &rates, &opts).unwrap();
    for p in &seq {
        assert!(p.health.degraded(), "rate {}", p.rate);
        assert_eq!(p.health.rung, gprs_core::SolveRung::DirectGth);
    }
    for threads in [2usize, 4] {
        let par = par_sweep_arrival_rates_threads(&base, &rates, &opts, threads).unwrap();
        assert_eq!(par.len(), seq.len());
        for (p, s) in par.iter().zip(&seq) {
            assert_eq!(p.health, s.health, "threads {threads}, rate {}", p.rate);
            assert_eq!(p.residual.to_bits(), s.residual.to_bits());
            assert_eq!(p.measures, s.measures);
        }
    }
}
