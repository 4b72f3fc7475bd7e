//! The projected MBD kernels adapt their block-SOR relaxation. On a
//! small chain shaped like Fig. 10's (traffic model 1, 2 reserved
//! PDCHs, 5 % GPRS users, the coarse rate grid), the figure sweep must
//! stay bit-identical across worker counts, the controller must not
//! cost sweeps against plain block Gauss–Seidel, and the measures must
//! agree with a tight-tolerance solve.

use gprs_repro::core::sweep::{par_sweep_arrival_rates_threads, sweep_arrival_rates, SweepPoint};
use gprs_repro::core::CellConfig;
use gprs_repro::experiments::figures::shared::figure_config;
use gprs_repro::experiments::Scale;
use gprs_repro::traffic::TrafficModel;

/// Sweeps per point of the chain below at a fixed `ω = 1` (plain block
/// Gauss–Seidel), recorded from the kernel before it adapted its
/// relaxation. Sweep counts are deterministic: the sweep is bitwise
/// reproducible across kernels and worker counts.
const FIXED_OMEGA_SWEEPS: [usize; 5] = [8, 16, 24, 20, 24];

/// Fig. 10's configuration with `sessions` GPRS sessions and a
/// `buffer`-packet buffer in place of `M = 150` and `K = 40`.
fn fig10_shaped(sessions: usize, buffer: usize) -> CellConfig {
    let mut base = figure_config(TrafficModel::Model1, 2, 0.05, Scale::Quick).unwrap();
    base.max_gprs_sessions = sessions;
    base.buffer_capacity = buffer;
    base
}

fn sweep_counts(points: &[SweepPoint]) -> Vec<usize> {
    points.iter().map(|p| p.sweeps).collect()
}

#[test]
fn adaptive_figure_sweep_is_bit_identical_across_thread_counts() {
    let base = fig10_shaped(50, 10);
    let rates = Scale::Quick.coarse_rate_grid();
    let opts = Scale::Quick.solve_options();
    let sequential = sweep_arrival_rates(&base, &rates, &opts).unwrap();

    // M = 50: the heavy points switch relaxation, so the pin below
    // covers switched solves, not only the starting factor.
    let counts = sweep_counts(&sequential);
    assert_ne!(counts, FIXED_OMEGA_SWEEPS);
    assert!(
        counts.iter().sum::<usize>() <= FIXED_OMEGA_SWEEPS.iter().sum::<usize>(),
        "adaptive {counts:?} vs omega = 1 {FIXED_OMEGA_SWEEPS:?}"
    );

    let tight = sweep_arrival_rates(&base, &rates, &opts.clone().with_tolerance(1e-12)).unwrap();
    for (a, t) in sequential.iter().zip(&tight) {
        assert!(a.residual <= opts.tolerance, "rate {}", a.rate);
        let (x, y) = (
            a.measures.carried_data_traffic,
            t.measures.carried_data_traffic,
        );
        assert!(
            (x - y).abs() <= 1e-5 * y.abs(),
            "rate {}: {x} vs {y}",
            a.rate
        );
    }

    for threads in [1usize, 2, 8] {
        let par = par_sweep_arrival_rates_threads(&base, &rates, &opts, threads).unwrap();
        // Debug prints every f64 in shortest round-trip form, so equal
        // text means equal bits.
        assert_eq!(
            format!("{par:?}"),
            format!("{sequential:?}"),
            "threads {threads}"
        );
    }
}
