//! The assembly input of a CTMC generator, and the balance residual.
//!
//! A model describes its chain through [`Transitions`], one outgoing row
//! at a time; [`SparseGenerator::from_transitions`] assembles those rows
//! into a CSR matrix (and [`SparseGenerator::refill_values`] refreshes
//! its rates in place). Every flat solver, and the residual below, reads
//! that matrix: rows for pushes, the stored transpose for gathers and
//! the stored exit rates for the diagonal.

use crate::error::CtmcError;
use crate::sparse::SparseGenerator;

/// Row-by-row description of a CTMC generator: what
/// [`SparseGenerator::from_transitions`] and
/// [`SparseGenerator::refill_values`] enumerate.
///
/// Implementations must only report *off-diagonal* transitions with
/// strictly positive rates; the diagonal is implied by the row sums.
/// Reporting the same target more than once is allowed (rates add up).
pub trait Transitions {
    /// Number of states in the chain. States are indexed `0..num_states()`.
    fn num_states(&self) -> usize;

    /// Visit every outgoing transition `(target, rate)` of `state`.
    ///
    /// `rate` must be `> 0` and `target != state`.
    fn for_each_outgoing(&self, state: usize, visit: &mut dyn FnMut(usize, f64));
}

/// Computes the relative L1 balance residual `‖πQ‖₁ / ‖π ∘ exit‖₁`.
///
/// A stationary vector has residual 0; the solvers use this as their
/// convergence criterion. `pi` need not be normalized.
///
/// # Panics
///
/// Panics if `pi.len() != gen.num_states()`. The solvers validate
/// dimensions at their entry points and use [`try_balance_residual`]
/// internally, so a mismatched vector surfaces as a structured
/// [`CtmcError::DimensionMismatch`] before any sweep runs — this
/// asserting variant is the convenience API for callers who already
/// hold a vector of known-correct length.
pub fn balance_residual(gen: &SparseGenerator, pi: &[f64]) -> f64 {
    match try_balance_residual(gen, pi) {
        Ok(r) => r,
        Err(_) => panic!(
            "pi length must match state count ({} vs {})",
            pi.len(),
            gen.num_states()
        ),
    }
}

/// Fallible form of [`balance_residual`]: returns
/// [`CtmcError::DimensionMismatch`] instead of panicking when `pi` has
/// the wrong length.
///
/// # Errors
///
/// [`CtmcError::DimensionMismatch`] if `pi.len() != gen.num_states()`.
pub fn try_balance_residual(gen: &SparseGenerator, pi: &[f64]) -> Result<f64, CtmcError> {
    let n = gen.num_states();
    if pi.len() != n {
        return Err(CtmcError::DimensionMismatch {
            expected: n,
            actual: pi.len(),
        });
    }
    let exit = gen.exit_rates();
    let mut flow = vec![0.0f64; n];
    let mut scale = 0.0f64;
    for i in 0..n {
        let p = pi[i];
        if p == 0.0 {
            continue;
        }
        let (cols, vals) = gen.row(i);
        for (&j, &rate) in cols.iter().zip(vals) {
            flow[j as usize] += p * rate;
        }
        flow[i] -= p * exit[i];
        scale += p * exit[i];
    }
    let num: f64 = flow.iter().map(|x| x.abs()).sum();
    Ok(if scale == 0.0 {
        // No transitions at all: any distribution is stationary.
        0.0
    } else {
        num / scale
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    /// A trivial 3-state cycle with unit rates.
    fn cycle() -> SparseGenerator {
        let mut b = TripletBuilder::new(3);
        for s in 0..3 {
            b.push(s, (s + 1) % 3, 1.0);
        }
        b.build().unwrap()
    }

    #[test]
    fn uniform_is_stationary_for_cycle() {
        let pi = [1.0 / 3.0; 3];
        assert!(balance_residual(&cycle(), &pi) < 1e-15);
    }

    #[test]
    fn non_stationary_has_positive_residual() {
        let pi = [0.6, 0.3, 0.1];
        assert!(balance_residual(&cycle(), &pi) > 0.1);
    }

    #[test]
    #[should_panic(expected = "pi length")]
    fn residual_panics_on_dimension_mismatch() {
        let pi = [0.5, 0.5];
        let _ = balance_residual(&cycle(), &pi);
    }

    #[test]
    fn try_residual_reports_dimension_mismatch() {
        let pi = [0.5, 0.5];
        assert_eq!(
            try_balance_residual(&cycle(), &pi),
            Err(CtmcError::DimensionMismatch {
                expected: 3,
                actual: 2
            })
        );
        let ok = try_balance_residual(&cycle(), &[1.0 / 3.0; 3]).unwrap();
        assert!(ok < 1e-15);
    }
}
