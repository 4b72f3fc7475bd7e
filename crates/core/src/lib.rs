//! The GPRS radio-interface Markov model of Lindemann & Thümmler.
//!
//! This crate is the reproduction's *core contribution*: a continuous-
//! time Markov chain of one cell in an integrated GSM/GPRS network,
//! exactly as described in the paper's Sections 3–4.
//!
//! # The model in one paragraph
//!
//! A cell owns `N` physical channels. `N_GPRS` of them are permanently
//! reserved as packet data channels (PDCHs); the remaining
//! `N_GSM = N − N_GPRS` are shared *on demand*, with GSM voice calls
//! taking strict priority. GSM calls and GPRS sessions arrive as
//! independent Poisson streams (plus balanced handover flows from
//! neighbouring cells) and hold exponential dwell/duration times. Each
//! active GPRS session generates downlink packets as an interrupted
//! Poisson process (3GPP traffic model); the `m` active sessions
//! aggregate into an `(m+1)`-state MMPP whose state `r` counts sources in
//! *off*. Packets queue in the BSC's FIFO buffer of capacity `K` and are
//! served by `min(N − n, 8k)` PDCHs at `μ_service` packets/s each
//! (CS-2 coding, 480-byte packets). TCP flow control is approximated by
//! throttling the arrival rate to the service rate once the buffer
//! exceeds `η·K`. The chain state is `(k, n, m, r)` — Table 1 of the
//! paper gives the transition rates, reproduced in [`generator`].
//!
//! # Quick start
//!
//! ```
//! use gprs_core::{CellConfig, GprsModel};
//! use gprs_traffic::TrafficModel;
//!
//! // The paper's base setting (Table 2) with traffic model 3, scaled
//! // down (small buffer) so this doc test runs in milliseconds.
//! let config = CellConfig::builder()
//!     .traffic_model(TrafficModel::Model3)
//!     .call_arrival_rate(0.3)
//!     .buffer_capacity(10)
//!     .max_gprs_sessions(5)
//!     .build()?;
//! let model = GprsModel::new(config)?;
//! let solved = model.solve_default()?;
//! let m = solved.measures();
//! assert!(m.carried_data_traffic > 0.0);
//! assert!(m.packet_loss_probability < 1.0);
//! # Ok::<(), gprs_core::ModelError>(())
//! ```
//!
//! # Modules
//!
//! * [`cluster`] — the heterogeneous cell-cluster fixed-point model:
//!   per-cell configs on a [`graph`] topology (default: the paper's
//!   7-cell wraparound ring), handover balancing across cells on
//!   closed-form Erlang means with one CTMC solve per cell at the fixed
//!   point, hot-spot scenarios, load-scale sweeps.
//! * [`graph`] — graph-typed topologies ([`CellGraph`]): neighbour
//!   lists + handover split weights, with ring/hex-torus/corridor and
//!   arbitrary-adjacency constructors and the bit-exact ring7
//!   degeneration contract.
//! * [`config`] — cell parameters, Table 2 defaults, builder.
//! * [`coding`] — GPRS coding schemes CS-1..CS-4 and per-PDCH rates.
//! * [`state`] — the `(n, k, m, r)` state space and its linear indexing.
//! * [`generator`] — Table 1 transition rates, computed on the fly in
//!   two views: forward rows (assembled into the flat solvers' CSR) and
//!   the Markov-modulated birth–death view of the block solvers.
//! * [`measures`] — Eqs. 6–11: CVT, AGS, CDT, PLP, QD, ATU, blocking.
//! * [`solve`] — handover balancing + steady-state solution.
//! * [`sweep`] — warm-started arrival-rate sweeps (the paper's x-axes),
//!   sequential and thread-parallel (`par_sweep_arrival_rates`).
//! * [`template`] — the symbolic/numeric split for repeated solves:
//!   [`GeneratorTemplate`] captures state space, CSR pattern and solver
//!   workspace once per model shape, then relowers new rates in place
//!   (sweeps, cluster solves and scenario campaigns ride on it).
//! * [`scenario`] — the unified scenario layer: one workload
//!   description (topology + per-cell traffic + radio/TCP knobs + load
//!   scale) lowered to the single-cell model, the cluster fixed point,
//!   and (via `gprs-sim`) the network simulator.
//! * [`codec`] — the hand-rolled JSON codec (serde is not vendored):
//!   [`Scenario`]/[`CellGraph`]/solve-option round trips that are
//!   bit-exact on lowering, plus the [`codec::JsonValue`] layer the
//!   campaign engine's file formats build on.
//! * [`stress`] — deterministic fault-injection config generation for
//!   the resilience stress harness (pathological-but-valid parameter
//!   sprays plus known-invalid configs that must be rejected).
//! * [`qos`] — PDCH dimensioning against a QoS profile (Section 5.3).
//! * [`adaptive`] — dynamic PDCH re-dimensioning (policy table +
//!   hysteresis controller + reconfiguration transients), the paper's
//!   future-work direction.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod adaptive;
pub mod cluster;
pub mod codec;
pub mod coding;
pub mod config;
pub mod error;
pub mod generator;
pub mod graph;
pub mod health;
pub mod measures;
pub mod qos;
pub mod scenario;
mod shard;
pub mod solve;
pub mod state;
pub mod stress;
pub mod sweep;
pub mod template;

pub use cluster::{ClusterModel, ClusterSolveOptions, SolvedCluster, SweepOrdering};
pub use codec::{
    parse_json, scenario_from_json, scenario_to_json, CodecError, JsonValue, SCENARIO_FORMAT,
};
pub use coding::CodingScheme;
pub use config::{CellConfig, CellConfigBuilder};
pub use error::ModelError;
pub use generator::GprsModel;
pub use graph::CellGraph;
pub use health::{SolveHealth, SolveRung};
pub use measures::Measures;
pub use scenario::Scenario;
pub use solve::SolvedModel;
pub use state::{CellState, StateSpace};
pub use template::{GeneratorTemplate, PointSolve, TemplateRegistry, TemplateStats, WarmStart};
