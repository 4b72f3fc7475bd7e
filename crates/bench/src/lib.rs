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
//!   behind the block tridiagonal (MBD) solver choice.
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
//!
//! Besides the benches, the crate ships the `bench-report` binary
//! (`cargo run --release -p gprs-bench --bin bench-report`): the CI
//! perf gate. It times the refill figure sweep and a metro-scale
//! corridor graph sweep, writes their throughput as JSON
//! (`BENCH_sweep.json`), and with `--check` fails on a drop below 75%
//! of a committed baseline.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_build() {
        assert!(small_model().config().num_states() < 50_000);
        assert!(medium_model().config().num_states() > 100_000);
    }
}
