//! Matrix-free access traits for CTMC generators.
//!
//! Large chains (the paper's Fig. 10 configuration has ~2·10⁷ states) are
//! solved without ever assembling a sparse matrix: the model implements
//! these traits and the solvers walk transitions on the fly.

use crate::error::CtmcError;

/// Read access to the outgoing transitions of a CTMC generator.
///
/// Implementations must only report *off-diagonal* transitions with
/// strictly positive rates; the diagonal is implied by the exit rates.
/// Reporting the same target more than once is allowed (rates add up).
pub trait Transitions {
    /// Number of states in the chain. States are indexed `0..num_states()`.
    fn num_states(&self) -> usize;

    /// Visit every outgoing transition `(target, rate)` of `state`.
    ///
    /// `rate` must be `> 0` and `target != state`.
    fn for_each_outgoing(&self, state: usize, visit: &mut dyn FnMut(usize, f64));

    /// Total exit rate of `state` (the negated diagonal entry of `Q`).
    ///
    /// The default implementation sums the outgoing rates; implementors
    /// with a cheaper closed form may override it.
    fn exit_rate(&self, state: usize) -> f64 {
        let mut total = 0.0;
        self.for_each_outgoing(state, &mut |_, rate| total += rate);
        total
    }
}

/// Generators that can also enumerate *incoming* transitions.
///
/// Gauss–Seidel iterates `π_j ← (Σ_{i≠j} π_i q_ij) / exit(j)`, which needs
/// column access to `Q`. Sparse matrices store the transpose; matrix-free
/// models hand-derive the reverse of each transition rule (and should test
/// the two against each other — see `gprs-core`'s property tests).
pub trait IncomingTransitions: Transitions {
    /// Visit every incoming transition `(source, rate)` into `state`,
    /// i.e. every pair with `q_{source, state} = rate > 0`.
    fn for_each_incoming(&self, state: usize, visit: &mut dyn FnMut(usize, f64));

    /// The probability flow into `state`: `Σ_i pi[i] · q_{i, state}`
    /// over its incoming transitions — the gather of a Gauss–Seidel
    /// update and of the balance residual.
    ///
    /// The default accumulates `pi[source] * rate` in
    /// [`for_each_incoming`](Self::for_each_incoming) visitation order.
    /// Overrides with a faster access path (a flat transpose scan) must
    /// keep that order and that product, so every implementation of a
    /// chain returns the same bits.
    fn inflow(&self, state: usize, pi: &[f64]) -> f64 {
        let mut total = 0.0f64;
        self.for_each_incoming(state, &mut |i, rate| total += pi[i] * rate);
        total
    }
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
pub fn balance_residual<G: Transitions + ?Sized>(gen: &G, pi: &[f64]) -> f64 {
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
pub fn try_balance_residual<G: Transitions + ?Sized>(
    gen: &G,
    pi: &[f64],
) -> Result<f64, CtmcError> {
    if pi.len() != gen.num_states() {
        return Err(CtmcError::DimensionMismatch {
            expected: gen.num_states(),
            actual: pi.len(),
        });
    }
    let n = gen.num_states();
    let mut flow = vec![0.0f64; n];
    let mut scale = 0.0f64;
    for i in 0..n {
        let p = pi[i];
        if p == 0.0 {
            continue;
        }
        let mut exit = 0.0;
        gen.for_each_outgoing(i, &mut |j, rate| {
            flow[j] += p * rate;
            exit += rate;
        });
        flow[i] -= p * exit;
        scale += p * exit;
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

    /// A trivial 3-state cycle with unit rates.
    struct Cycle;

    impl Transitions for Cycle {
        fn num_states(&self) -> usize {
            3
        }
        fn for_each_outgoing(&self, state: usize, visit: &mut dyn FnMut(usize, f64)) {
            visit((state + 1) % 3, 1.0);
        }
    }

    impl IncomingTransitions for Cycle {
        fn for_each_incoming(&self, state: usize, visit: &mut dyn FnMut(usize, f64)) {
            visit((state + 2) % 3, 1.0);
        }
    }

    #[test]
    fn default_exit_rate_sums_outgoing() {
        assert_eq!(Cycle.exit_rate(0), 1.0);
        assert_eq!(Cycle.exit_rate(2), 1.0);
    }

    #[test]
    fn uniform_is_stationary_for_cycle() {
        let pi = [1.0 / 3.0; 3];
        assert!(balance_residual(&Cycle, &pi) < 1e-15);
    }

    #[test]
    fn non_stationary_has_positive_residual() {
        let pi = [0.6, 0.3, 0.1];
        assert!(balance_residual(&Cycle, &pi) > 0.1);
    }

    #[test]
    #[should_panic(expected = "pi length")]
    fn residual_panics_on_dimension_mismatch() {
        let pi = [0.5, 0.5];
        let _ = balance_residual(&Cycle, &pi);
    }

    #[test]
    fn try_residual_reports_dimension_mismatch() {
        let pi = [0.5, 0.5];
        assert_eq!(
            try_balance_residual(&Cycle, &pi),
            Err(CtmcError::DimensionMismatch {
                expected: 3,
                actual: 2
            })
        );
        let ok = try_balance_residual(&Cycle, &[1.0 / 3.0; 3]).unwrap();
        assert!(ok < 1e-15);
    }
}
