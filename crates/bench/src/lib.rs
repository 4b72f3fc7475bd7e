//! Shared fixtures for the Criterion benchmarks.
//!
//! The benches measure the reproduction's computational kernels:
//!
//! * `sweep` — the symbolic/numeric split: the chunked template-refill
//!   sweep vs the historical per-point rebuild on the figure workload
//!   (target: refill ≥ 2× rebuild), plus the cluster-style repeated
//!   cell solve. Bit-identity (refill vs rebuild, seq vs par at 1/2/8
//!   threads) is asserted before timing.
//! * `solver` — steady-state solver comparison (block tridiagonal vs
//!   point Gauss–Seidel vs GTH) across state-space sizes — the ablation
//!   behind DESIGN.md's solver choice.
//! * `cluster` — the heterogeneous 7-cell fixed point: per-iteration
//!   cell solves sequential vs thread-parallel, plus the load-scale
//!   sweep (determinism is asserted before timing).
//! * `replication` — the wave-parallel replication engine: a fixed
//!   count of simulator replications at 1/2/4/8 threads, recording the
//!   scaling efficiency of the shared `gprs-exec` worker pool
//!   (determinism asserted before timing).
//! * `generator` — transition enumeration and sparse assembly
//!   throughput.
//! * `simulator` — discrete-event throughput (events/s) for both radio
//!   fidelities and with/without TCP.
//! * `queueing` — Erlang-B, M/M/c/c distributions and handover
//!   balancing.
//! * `figures` — a `harness = false` target that regenerates every
//!   paper figure at quick scale, printing the same series the paper
//!   plots (so `cargo bench` exercises the full reproduction path).
//!
//! Besides the benches, the crate ships the `bench-report` binary
//! (`cargo run --release -p gprs-bench --bin bench-report`): it times
//! the sweep (refill vs rebuild), cluster and replication pipelines and
//! writes machine-readable points/sec JSON (`BENCH_sweep.json`), which
//! the scheduled CI job uploads as the repository's perf trajectory.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use gprs_core::{CellConfig, GprsModel};
use gprs_traffic::TrafficModel;

/// A small but non-trivial model: ~15k states.
pub fn small_model() -> GprsModel {
    let cfg = CellConfig::builder()
        .traffic_model(TrafficModel::Model3)
        .buffer_capacity(12)
        .max_gprs_sessions(7)
        .call_arrival_rate(0.5)
        .build()
        .expect("valid config");
    GprsModel::new(cfg).expect("valid model")
}

/// A mid-size model: ~190k states (quick-scale figure configuration).
pub fn medium_model() -> GprsModel {
    let cfg = CellConfig::builder()
        .traffic_model(TrafficModel::Model3)
        .buffer_capacity(40)
        .call_arrival_rate(0.5)
        .build()
        .expect("valid config");
    GprsModel::new(cfg).expect("valid model")
}

/// The figure sweep workload cell: the Table 2 base with TM3, 5 % GPRS
/// users, one reserved PDCH and the quick-scale buffer — what
/// Figs. 7–15 actually sweep. Shared by the `sweep` criterion bench and
/// the `bench-report` binary so the nightly perf trajectory measures
/// exactly the workload the bench's ≥ 2× claim is made on.
pub fn figure_sweep_cell() -> CellConfig {
    CellConfig::builder()
        .traffic_model(TrafficModel::Model3)
        .reserved_pdchs(1)
        .gprs_fraction(0.05)
        .buffer_capacity(40)
        .call_arrival_rate(0.5)
        .build()
        .expect("valid config")
}

/// The historical sweep loop: every point regenerates the model and
/// solves cold from its own product-form guess with fresh allocations —
/// the pre-template baseline both the `sweep` bench and `bench-report`
/// time against. Returns the summed carried data traffic (an
/// optimization barrier and a sanity value).
pub fn sweep_rebuild(base: &CellConfig, rates: &[f64], opts: &gprs_ctmc::SolveOptions) -> f64 {
    let mut acc = 0.0;
    for &rate in rates {
        let mut cfg = base.clone();
        cfg.call_arrival_rate = rate;
        let model = GprsModel::new(cfg).expect("valid config");
        let solved = model.solve(opts, None).expect("solve");
        acc += solved.measures().carried_data_traffic;
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        assert!(small_model().config().num_states() < 50_000);
        assert!(medium_model().config().num_states() > 100_000);
    }
}
