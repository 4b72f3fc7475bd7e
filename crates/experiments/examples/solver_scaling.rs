//! Solver scaling diagnostics: how solve time and sweep counts react to
//! the buffer size `K`, the tolerance, and the arrival rate.
//!
//! The sweep count of the block solver is governed by near-critical
//! buffer relaxation and grows roughly with K²; this probe makes that
//! visible (the README's "Adaptive relaxation" paragraph covers how
//! the solver cuts that sweep count).
//!
//! ```text
//! cargo run --release -p gprs-experiments --example solver_scaling
//! ```

use gprs_core::{CellConfig, GprsModel};
use gprs_ctmc::solver::SolveOptions;
use gprs_traffic::TrafficModel;
use std::time::Instant;

fn probe(label: &str, k: usize, tol: f64, rate: f64) {
    let cfg = CellConfig::builder()
        .traffic_model(TrafficModel::Model3)
        .buffer_capacity(k)
        .call_arrival_rate(rate)
        .build()
        .unwrap();
    let opts = SolveOptions::default().with_tolerance(tol);
    let t0 = Instant::now();
    let model = GprsModel::new(cfg).unwrap();
    match model.solve(&opts, None) {
        Ok(s) => println!(
            "{label}: K={k} tol={tol:.0e} rate={rate}: {:.2?} sweeps={} CDT={:.4} PLP={:.3e}",
            t0.elapsed(),
            s.sweeps(),
            s.measures().carried_data_traffic,
            s.measures().packet_loss_probability
        ),
        Err(e) => println!("{label}: K={k} tol={tol:.0e} rate={rate}: FAILED {e}"),
    }
}

fn main() {
    println!("traffic model 3 base configuration, block solver:");
    probe("paper K, strict tol", 100, 1e-10, 0.5);
    probe("paper K, loose tol ", 100, 1e-8, 0.5);
    probe("quick K, loose tol ", 40, 1e-8, 0.5);
    probe("quick K, strict tol", 40, 1e-10, 0.5);
    probe("quick K, light load", 40, 1e-8, 0.1);
    probe("quick K, heavy load", 40, 1e-8, 1.0);
}
