//! Continuous-time Markov chain (CTMC) toolkit.
//!
//! This crate provides the numerical substrate for the GPRS reproduction:
//! building finite-state CTMC generators, solving for their stationary
//! distribution, and computing reward-based performance measures.
//!
//! # Overview
//!
//! A CTMC on states `0..n` is described by its infinitesimal generator
//! `Q`, where `q_ij >= 0` for `i != j` is the transition rate from `i`
//! to `j` and `q_ii = -Σ_{j != i} q_ij`. The stationary distribution `π`
//! solves `π Q = 0` with `Σ π_i = 1`.
//!
//! The solvers, production path first:
//!
//! * [`blocked::solve_mbd_projected_blocked_ws`] (and its in-place
//!   twin [`blocked::solve_mbd_projected_blocked_inplace_ws`]) — the
//!   block Gauss–Seidel/Thomas iteration for Markov-modulated
//!   birth–death chains, projected onto the exact phase marginal after
//!   every sweep, over rate tables captured once into a
//!   [`BlockedMbd`]: the kernel behind every one-shot model solve,
//!   figure sweep, cluster fixed point and campaign solve.
//! * [`mbd::solve_mbd_projected_inplace_ws`] — the same block
//!   iteration through the matrix-free [`mbd::ModulatedBirthDeath`]
//!   trait. It is bit-identical to the blocked kernel and kept only as
//!   the oracle of its tests; no production path runs it.
//! * [`solver::solve_gauss_seidel`] — point Gauss–Seidel / SOR over
//!   *incoming* transitions, through the [`IncomingTransitions`]
//!   trait. Its gather, [`IncomingTransitions::inflow`], is a flat
//!   transpose scan on a [`SparseGenerator`]; over the assembled matrix
//!   this solver is the alternate rung of the fallback ladder.
//! * [`gth::solve_gth`] — the Grassmann–Taksar–Heyman direct
//!   elimination. Numerically stable (no subtractions), `O(n³)`; the
//!   ground truth for small chains and the ladder's last rung.
//! * [`power::solve_power`] — uniformization-based power iteration
//!   over *outgoing* transitions. Simple and robust but slow on stiff
//!   chains; used for cross-checks.
//!
//! # Relaxation
//!
//! Every iterative solver blends each update with the previous iterate
//! by [`SolveOptions::sor_omega`] (`1.0`, the default, is plain
//! Gauss–Seidel). Point Gauss–Seidel keeps that factor; the two
//! projected MBD kernels start at it and then choose the factor
//! themselves: they estimate the per-sweep contraction from the
//! residuals they check every few sweeps and switch once to Young's
//! optimal factor, reverting if the residual rises (see the field's
//! docs). Both kernels share one controller, so they stay
//! bit-identical, and the choice is a pure function of the residual
//! sequence, so results are deterministic. Light solves converge before
//! the residual ratios settle and never leave the starting factor.
//! [`SolveStats::omega`] reports the factor a solve ended with.
//!
//! Generators can be represented either as an assembled sparse matrix
//! ([`SparseGenerator`], built via [`TripletBuilder`]) or as a matrix-free
//! implementation of the [`Transitions`] / [`IncomingTransitions`] traits.
//!
//! # Repeated solves: the symbolic/numeric split
//!
//! Parameter sweeps and fixed-point iterations solve the *same-shaped*
//! chain many times with different rates. Two facilities keep that hot
//! path free of redundant symbolic work:
//!
//! * [`SparseGenerator::refill_values`] overwrites an assembled
//!   matrix's rates in place (same sparsity pattern, no sort, no
//!   allocation) instead of rebuilding CSR + transpose from triplets;
//! * [`SolveWorkspace`] carries the iterate and solver scratch across
//!   solves — the `_ws` solvers ([`solver::solve_gauss_seidel_ws`],
//!   [`blocked::solve_mbd_projected_blocked_ws`] and the in-place MBD
//!   entries) allocate nothing after their first same-shape call and
//!   leave the solution in the workspace as a natural rolling warm
//!   start.
//!
//! # Example
//!
//! Solve a two-state on/off chain and compare with the closed form:
//!
//! ```
//! use gprs_ctmc::{TripletBuilder, solver, SolveOptions};
//!
//! let mut b = TripletBuilder::new(2);
//! b.push(0, 1, 1.0); // on -> off
//! b.push(1, 0, 2.0); // off -> on
//! let gen = b.build()?;
//! let sol = solver::solve_gauss_seidel(&gen, None, &SolveOptions::default())?;
//! assert!((sol.pi[0] - 2.0 / 3.0).abs() < 1e-10);
//! assert!((sol.pi[1] - 1.0 / 3.0).abs() < 1e-10);
//! # Ok::<(), gprs_ctmc::CtmcError>(())
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod blocked;
pub mod dense;
pub mod error;
pub mod gth;
pub mod mbd;
pub mod power;
pub mod solver;
pub mod sparse;
pub mod stationary;
pub mod transient;
pub mod transitions;

pub use blocked::{
    blocked_kernel_enabled, solve_mbd_projected_blocked_inplace_ws, solve_mbd_projected_blocked_ws,
    BlockedMbd,
};
pub use error::CtmcError;
pub use solver::{Solution, SolveOptions, SolveStats, SolveWorkspace};
pub use sparse::{SparseGenerator, TripletBuilder};
pub use stationary::StationaryDistribution;
pub use transitions::{balance_residual, try_balance_residual, IncomingTransitions, Transitions};
