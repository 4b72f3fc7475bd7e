//! Uniformization-based power iteration.
//!
//! The chain is uniformized with constant `Λ ≥ max exit rate`, giving the
//! stochastic matrix `P = I + Q/Λ`, whose stationary vector equals the
//! CTMC's. Power iteration `π ← πP` pushes along the CSR rows, where
//! Gauss–Seidel gathers along the stored transpose, which makes it a
//! useful cross-check of that solver. Convergence is geometric in the
//! subdominant eigenvalue, which for stiff chains is painfully close to
//! 1 — prefer [`crate::solver::solve_gauss_seidel`] for production runs.
//!
//! The step `v ← v·P` is shared with the transient solver
//! ([`crate::transient`]).

use crate::error::CtmcError;
use crate::solver::{HealthGuard, Solution, SolveOptions};
use crate::sparse::SparseGenerator;
use crate::stationary::StationaryDistribution;
use crate::transitions::balance_residual;

/// Head-room factor applied to the maximum exit rate when uniformizing;
/// keeps the self-loop probability strictly positive, which breaks
/// periodicity.
pub const UNIFORMIZATION_HEADROOM: f64 = 1.02;

/// One uniformized step `next ← v·(I + Q/Λ)` over the CSR rows.
pub(crate) fn uniformized_step(gen: &SparseGenerator, lambda: f64, v: &[f64], next: &mut [f64]) {
    let exit = gen.exit_rates();
    next.fill(0.0);
    for (i, &p) in v.iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        let (cols, vals) = gen.row(i);
        for (&j, &rate) in cols.iter().zip(vals) {
            next[j as usize] += p * rate / lambda;
        }
        next[i] += p * (1.0 - exit[i] / lambda);
    }
}

/// Solves `πQ = 0` by uniformized power iteration.
///
/// See the module docs for when to prefer this over Gauss–Seidel.
///
/// # Errors
///
/// Same contract as [`crate::solver::solve_gauss_seidel`]; additionally
/// returns [`CtmcError::InvalidGenerator`] if no state has a positive
/// exit rate.
pub fn solve_power(
    gen: &SparseGenerator,
    warm_start: Option<&[f64]>,
    opts: &SolveOptions,
) -> Result<Solution, CtmcError> {
    let n = gen.num_states();
    if n == 0 {
        return Err(CtmcError::EmptyChain);
    }

    let max_exit = gen.max_exit_rate();
    if max_exit <= 0.0 {
        return Err(CtmcError::InvalidGenerator {
            reason: "no state has a positive exit rate".into(),
        });
    }
    let lambda = max_exit * UNIFORMIZATION_HEADROOM;

    let mut pi: Vec<f64> = match warm_start {
        Some(w) => {
            if w.len() != n {
                return Err(CtmcError::DimensionMismatch {
                    expected: n,
                    actual: w.len(),
                });
            }
            let total: f64 = w.iter().sum();
            if !total.is_finite() || total <= 0.0 || w.iter().any(|&x| !x.is_finite() || x < 0.0) {
                return Err(CtmcError::InvalidGenerator {
                    reason: "warm start must be non-negative with positive mass".into(),
                });
            }
            w.iter().map(|&x| x / total).collect()
        }
        None => vec![1.0 / n as f64; n],
    };
    let mut next = vec![0.0f64; n];

    let mut guard = HealthGuard::new(opts);
    let mut iterations = 0usize;
    let mut residual = f64::INFINITY;
    while iterations < opts.max_sweeps {
        uniformized_step(gen, lambda, &pi, &mut next);
        let total: f64 = next.iter().sum();
        if !total.is_finite() || total <= 0.0 {
            return Err(CtmcError::Diverged {
                iterations: iterations + 1,
                residual: f64::NAN,
            });
        }
        let inv = 1.0 / total;
        for x in &mut next {
            *x *= inv;
        }
        std::mem::swap(&mut pi, &mut next);
        iterations += 1;

        if iterations.is_multiple_of(opts.check_cadence()) || iterations == opts.max_sweeps {
            residual = balance_residual(gen, &pi);
            guard.observe(iterations, residual)?;
            if residual <= opts.tolerance {
                return Ok(Solution {
                    pi: StationaryDistribution::new(pi),
                    sweeps: iterations,
                    residual,
                });
            }
            if guard.out_of_time() {
                break;
            }
        }
    }

    // `balance_residual` at the cadence above is exact; re-evaluate only
    // if the loop never ran (`max_sweeps == 0`).
    let exact = if residual.is_finite() {
        residual
    } else {
        balance_residual(gen, &pi)
    };
    Err(HealthGuard::budget_error(iterations, exact, opts.tolerance))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gth::solve_gth;
    use crate::sparse::TripletBuilder;

    #[test]
    fn matches_gth_on_small_chain() {
        let mut b = TripletBuilder::new(4);
        b.push(0, 1, 1.0);
        b.push(1, 2, 2.0);
        b.push(2, 3, 3.0);
        b.push(3, 0, 4.0);
        b.push(2, 0, 0.7);
        let g = b.build().unwrap();
        let exact = solve_gth(&g).unwrap();
        let opts = SolveOptions::default().with_max_sweeps(200_000);
        let sol = solve_power(&g, None, &opts).unwrap();
        for s in 0..4 {
            assert!((exact[s] - sol.pi[s]).abs() < 1e-8, "state {s}");
        }
    }

    #[test]
    fn periodic_chain_converges_thanks_to_headroom() {
        // A pure 2-cycle is periodic under the embedded DTMC; the
        // uniformization head-room adds self-loops that break it.
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        let g = b.build().unwrap();
        let sol = solve_power(&g, None, &SolveOptions::default()).unwrap();
        assert!((sol.pi[0] - 0.5).abs() < 1e-9);
    }

    #[test]
    fn agrees_with_gauss_seidel() {
        let mut b = TripletBuilder::new(6);
        for i in 0..6 {
            b.push(i, (i + 1) % 6, 1.0 + 0.3 * i as f64);
            b.push(i, (i + 2) % 6, 0.2);
        }
        let g = b.build().unwrap();
        let gs = crate::solver::solve_gauss_seidel(&g, None, &SolveOptions::default()).unwrap();
        let pw = solve_power(&g, None, &SolveOptions::default().with_max_sweeps(100_000)).unwrap();
        for s in 0..6 {
            assert!((gs.pi[s] - pw.pi[s]).abs() < 1e-8);
        }
    }

    #[test]
    fn rejects_all_zero_rates_chain() {
        // Chain where the only pushed rates are zero => no transitions.
        let b = TripletBuilder::new(3);
        let g = b.build().unwrap();
        let err = solve_power(&g, None, &SolveOptions::default()).unwrap_err();
        assert!(matches!(err, CtmcError::InvalidGenerator { .. }));
    }
}
