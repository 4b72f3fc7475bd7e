//! Network-level discrete-event simulator of an integrated GSM/GPRS
//! cellular cluster.
//!
//! This is the reproduction of the paper's CSIM-based validation
//! simulator (Section 5.2): seven hexagonal cells with explicit handover
//! procedures, per-cell BSC buffering, a real TCP implementation (slow
//! start, congestion avoidance, fast retransmit, RTO), and — at the
//! highest fidelity — segmentation of packets into 20 ms TDMA radio
//! blocks. Statistics are collected in the mid cell only and reported
//! with batch-means 95 % confidence intervals, exactly as the paper
//! does.
//!
//! In contrast to the Markov model of `gprs-core`, nothing here is
//! balanced or aggregated: handover flows between cells *emerge* from
//! user mobility, packet-call durations stretch under congestion because
//! TCP slows down, and losses trigger genuine retransmissions.
//!
//! Each cell carries its **own** [`gprs_core::CellConfig`]
//! ([`SimConfig::cells`]) — mixed coding schemes, buffer sizes, channel
//! splits and traffic parameters are all simulable, matching the
//! generality of the analytical cluster fixed point
//! (`gprs_core::cluster::ClusterModel`); uniform configurations (the
//! [`SimConfig::builder`] special case, shown below) reproduce the
//! shared-parameter simulator bit for bit.
//!
//! # Example
//!
//! ```no_run
//! use gprs_core::CellConfig;
//! use gprs_sim::{SimConfig, GprsSimulator};
//! use gprs_traffic::TrafficModel;
//!
//! let cell = CellConfig::builder()
//!     .traffic_model(TrafficModel::Model3)
//!     .call_arrival_rate(0.5)
//!     .build()?;
//! let cfg = SimConfig::builder(cell)
//!     .warmup(2_000.0)
//!     .batches(10, 4_000.0)
//!     .seed(7)
//!     .build();
//! let results = GprsSimulator::new(cfg).run();
//! println!("CDT = {}", results.carried_data_traffic);
//! # Ok::<(), gprs_core::ModelError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Duration of one GPRS radio block (4 TDMA frames of 4.615 ms ≈ 20 ms),
/// the granularity at which the TDMA radio model schedules transmission.
pub const RADIO_BLOCK_SECONDS: f64 = 0.02;

pub mod cell;
pub mod config;
pub mod events;
pub mod packet;
pub mod replication;
pub mod results;
pub mod simulator;
pub mod supervision;
pub mod tcp;

pub use config::{RadioModel, SimConfig, SimConfigBuilder, TcpConfig};
pub use replication::{run_replications, ReplicationOptions, TargetMeasure};
pub use results::{ReplicatedResults, SimResults};
pub use simulator::GprsSimulator;
pub use supervision::{LoadSupervisor, SupervisionConfig};
