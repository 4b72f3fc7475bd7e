//! Grassmann–Taksar–Heyman (GTH) direct steady-state solver.
//!
//! GTH is a Gaussian-elimination variant for Markov chains that never
//! subtracts, so it is backward stable regardless of how stiff the chain
//! is. It costs `O(n³)` time and `O(n²)` memory and is therefore the
//! reference solver for *small* chains — this crate uses it as the ground
//! truth against which the iterative solvers are validated.

// Indexed loops mirror the textbook linear-algebra formulations these
// kernels implement; iterator rewrites obscure the stencil structure.
#![allow(clippy::needless_range_loop)]

use crate::dense::DenseMatrix;
use crate::error::CtmcError;
use crate::sparse::SparseGenerator;
use crate::stationary::StationaryDistribution;

/// Practical size limit above which GTH becomes unreasonably slow; the
/// function does not enforce it, but callers (and tests) should.
pub const RECOMMENDED_MAX_STATES: usize = 2000;

/// Solves `πQ = 0`, `Σπ = 1` by GTH elimination.
///
/// The CSR's off-diagonal rates are copied, row by row, into a dense
/// working matrix.
///
/// # Errors
///
/// * [`CtmcError::EmptyChain`] for a chain with zero states.
/// * [`CtmcError::InvalidGenerator`] if the chain is reducible in a way
///   that produces a zero pivot (a state, other than the last remaining
///   one, with no transitions to lower-numbered states after folding),
///   or if the unnormalized solution overflows (rates too large for
///   `f64`).
///
/// # Example
///
/// ```
/// use gprs_ctmc::{TripletBuilder, gth};
///
/// let mut b = TripletBuilder::new(2);
/// b.push(0, 1, 3.0);
/// b.push(1, 0, 1.0);
/// let pi = gth::solve_gth(&b.build()?)?;
/// assert!((pi[0] - 0.25).abs() < 1e-14);
/// # Ok::<(), gprs_ctmc::CtmcError>(())
/// ```
pub fn solve_gth(gen: &SparseGenerator) -> Result<StationaryDistribution, CtmcError> {
    let n = gen.num_states();
    if n == 0 {
        return Err(CtmcError::EmptyChain);
    }
    if n == 1 {
        return Ok(StationaryDistribution::new(vec![1.0]));
    }

    // Copy off-diagonal rates into a dense working matrix.
    let mut a = DenseMatrix::zeros(n);
    for i in 0..n {
        let (cols, vals) = gen.row(i);
        for (&j, &rate) in cols.iter().zip(vals) {
            a.add(i, j as usize, rate);
        }
    }

    // Fold states n-1, n-2, ..., 1 into the remaining chain.
    for k in (1..n).rev() {
        let s: f64 = (0..k).map(|j| a.get(k, j)).sum();
        if s <= 0.0 {
            return Err(CtmcError::InvalidGenerator {
                reason: format!(
                    "zero pivot at state {k}: chain is reducible (state cannot \
                     reach lower-numbered states)"
                ),
            });
        }
        for i in 0..k {
            let v = a.get(i, k) / s;
            a.set(i, k, v);
        }
        for i in 0..k {
            let aik = a.get(i, k);
            if aik == 0.0 {
                continue;
            }
            for j in 0..k {
                if j != i {
                    let akj = a.get(k, j);
                    if akj != 0.0 {
                        a.add(i, j, aik * akj);
                    }
                }
            }
        }
    }

    // Back substitution: x_0 = 1, x_k = Σ_{i<k} x_i a[i][k].
    let mut x = vec![0.0f64; n];
    x[0] = 1.0;
    for k in 1..n {
        let mut acc = 0.0;
        for i in 0..k {
            acc += x[i] * a.get(i, k);
        }
        x[k] = acc;
    }

    let total: f64 = x.iter().sum();
    if !total.is_finite() {
        return Err(CtmcError::InvalidGenerator {
            reason: format!("elimination overflowed: unnormalized mass {total}"),
        });
    }
    for v in &mut x {
        *v /= total;
    }
    Ok(StationaryDistribution::new(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;
    use crate::transitions::balance_residual;

    #[test]
    fn two_state_closed_form() {
        // on->off at rate a=1.5, off->on at rate b=0.5: pi_on = b/(a+b).
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, 1.5);
        b.push(1, 0, 0.5);
        let pi = solve_gth(&b.build().unwrap()).unwrap();
        assert!((pi[0] - 0.25).abs() < 1e-14);
        assert!((pi[1] - 0.75).abs() < 1e-14);
    }

    #[test]
    fn single_state() {
        let mut b = TripletBuilder::new(1);
        b.push(0, 0, 0.0); // dropped, zero rate
        let pi = solve_gth(&b.build().unwrap()).unwrap();
        assert_eq!(&*pi, &[1.0]);
    }

    #[test]
    fn birth_death_matches_product_form() {
        // M/M/1/K with lambda=2, mu=3, K=5: pi_k ∝ (2/3)^k.
        let (lam, mu, k) = (2.0f64, 3.0f64, 5usize);
        let mut b = TripletBuilder::new(k + 1);
        for i in 0..k {
            b.push(i, i + 1, lam);
            b.push(i + 1, i, mu);
        }
        let pi = solve_gth(&b.build().unwrap()).unwrap();
        let rho: f64 = lam / mu;
        let norm: f64 = (0..=k).map(|i| rho.powi(i as i32)).sum();
        for i in 0..=k {
            assert!(
                (pi[i] - rho.powi(i as i32) / norm).abs() < 1e-14,
                "state {i}"
            );
        }
    }

    #[test]
    fn stiff_chain_is_stable() {
        // Rates spanning 10 orders of magnitude.
        let mut b = TripletBuilder::new(3);
        b.push(0, 1, 1e-6);
        b.push(1, 0, 1e4);
        b.push(1, 2, 1e4);
        b.push(2, 1, 1e-6);
        let g = b.build().unwrap();
        let pi = solve_gth(&g).unwrap();
        assert!(balance_residual(&g, &pi) < 1e-12);
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn overflowing_rates_are_an_error_not_a_panic() {
        let g = crate::sparse::overflowing_exit_chain();
        let err = solve_gth(&g).unwrap_err();
        assert!(matches!(err, CtmcError::InvalidGenerator { .. }), "{err:?}");
    }

    #[test]
    fn reducible_chain_errors() {
        // State 1 unreachable-from-below after folding: 0 -> 1 only.
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, 1.0);
        let err = solve_gth(&b.build().unwrap()).unwrap_err();
        assert!(matches!(err, CtmcError::InvalidGenerator { .. }));
    }

    #[test]
    fn residual_is_tiny_on_random_chain() {
        // Deterministic pseudo-random dense-ish chain.
        let n = 40;
        let mut b = TripletBuilder::new(n);
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..n {
            for j in 0..n {
                if i != j && next() < 0.3 {
                    b.push(i, j, next() * 10.0 + 1e-3);
                }
            }
            // Guarantee irreducibility with a cycle backbone.
            b.push(i, (i + 1) % n, 1.0);
        }
        let g = b.build().unwrap();
        let pi = solve_gth(&g).unwrap();
        assert!(balance_residual(&g, &pi) < 1e-12);
    }
}
