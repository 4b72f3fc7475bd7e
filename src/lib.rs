//! # gprs-repro
//!
//! A full reproduction of **Lindemann & Thümmler, "Performance Analysis
//! of the General Packet Radio Service"** — the continuous-time Markov
//! chain model of the GPRS radio interface, the seven-cell validation
//! simulator with TCP, and every table and figure of the paper's
//! evaluation.
//!
//! This umbrella crate re-exports the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`core`] | `gprs-core` | the paper's CTMC model (Table 1 generator, Eqs. 6–11 measures, sweeps, QoS dimensioning, adaptive PDCH management), the heterogeneous 7-cell cluster fixed point (`core::cluster`), and the unified [`Scenario`](core::scenario) layer that lowers one workload description to model, cluster, and simulator |
//! | [`sim`] | `gprs-sim` | network-level simulator: 7-cell cluster, handovers, BSC buffers, TCP Reno, TDMA radio blocks, load supervision, wave-parallel replication engine (`sim::replication`) |
//! | [`ctmc`] | `gprs-ctmc` | CTMC solvers: GTH, Gauss–Seidel/SOR, uniformization (stationary + transient), block tridiagonal (MBD) |
//! | [`exec`] | `gprs-exec` | deterministic thread fan-out shared by the whole pipeline (one worker pool with per-worker state, ordered task map, `RAYON_NUM_THREADS` control) |
//! | [`queueing`] | `gprs-queueing` | Erlang-B / M/M/c/c closed forms, handover-flow balancing, exact IPP/M/c/K |
//! | [`traffic`] | `gprs-traffic` | 3GPP packet-session traffic model, IPP/MMPP analytics (IDC, superposition fits, H2 equivalence), samplers |
//! | [`des`] | `gprs-des` | discrete-event engine, RNG streams, batch-means statistics, sequential + wave-parallel replication stopping rules |
//! | [`experiments`] | `gprs-experiments` | per-figure reproduction harness (Figs. 5–15 + extensions) |
//!
//! # Quick start
//!
//! Solve the paper's base configuration and read off the headline
//! measures:
//!
//! ```
//! use gprs_repro::core::{CellConfig, GprsModel};
//! use gprs_repro::traffic::TrafficModel;
//!
//! // Small buffer keeps the doc test fast; drop these two overrides
//! // for the paper-exact configuration.
//! let config = CellConfig::builder()
//!     .traffic_model(TrafficModel::Model3)
//!     .buffer_capacity(15)
//!     .max_gprs_sessions(6)
//!     .call_arrival_rate(0.5)
//!     .build()?;
//! let solved = GprsModel::new(config)?.solve_default()?;
//! println!("carried data traffic: {:.2} PDCHs",
//!          solved.measures().carried_data_traffic);
//! # Ok::<(), gprs_repro::core::ModelError>(())
//! ```
//!
//! Solve a heterogeneous hot-spot cluster (the scenario the paper's
//! homogeneity assumption cannot represent):
//!
//! ```
//! use gprs_repro::core::cluster::ClusterSolveOptions;
//! use gprs_repro::core::{CellConfig, Scenario};
//! use gprs_repro::traffic::TrafficModel;
//!
//! let ring = CellConfig::builder()
//!     .traffic_model(TrafficModel::Model3)
//!     .buffer_capacity(6)
//!     .max_gprs_sessions(2)
//!     .call_arrival_rate(0.3)
//!     .build()?;
//! // Mid cell at twice the ring load.
//! let cluster = Scenario::hot_spot(ring, 0.6)?.to_cluster()?;
//! let solved = cluster.solve(&ClusterSolveOptions::quick())?;
//! // The hot cell exports handover flow to its light neighbours.
//! assert!(solved.mid().gsm_handover_out > solved.mid().gsm_handover_in);
//! # Ok::<(), gprs_repro::core::ModelError>(())
//! ```
//!
//! Reproduce the paper's figures with the `repro` binary:
//!
//! ```text
//! cargo run --release -p gprs-experiments --bin repro -- --figure all --scale full
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use gprs_core as core;
pub use gprs_ctmc as ctmc;
pub use gprs_des as des;
pub use gprs_exec as exec;
pub use gprs_experiments as experiments;
pub use gprs_queueing as queueing;
pub use gprs_sim as sim;
pub use gprs_traffic as traffic;
