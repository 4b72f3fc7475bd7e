//! Transient (time-dependent) solution via uniformization.
//!
//! Computes `π(t) = π(0)·exp(Qt)` as the Poisson-weighted sum
//! `Σ_k e^{-Λt}(Λt)^k/k! · π(0)Pᵏ` with `P = I + Q/Λ`. This is the
//! machinery the paper's future-work direction (adaptive performance
//! management, i.e. reacting to load changes) needs; it also provides an
//! independent check of the steady-state solvers (`π(t)` for large `t`
//! must approach `π`).
//!
//! The chain is read from its assembled CSR: each term costs one
//! uniformized step over the rows, the step power iteration also takes
//! ([`crate::power`]).

use crate::error::CtmcError;
use crate::power::{uniformized_step, UNIFORMIZATION_HEADROOM};
use crate::sparse::SparseGenerator;

/// Truncation tolerance for the Poisson tail: terms are accumulated until
/// the cumulative weight exceeds `1 - POISSON_TAIL_EPS`.
pub const POISSON_TAIL_EPS: f64 = 1e-12;

/// Computes the transient distribution `π(t)` from initial distribution
/// `pi0`.
///
/// # Errors
///
/// * [`CtmcError::EmptyChain`] — zero states.
/// * [`CtmcError::DimensionMismatch`] — `pi0` has wrong length.
/// * [`CtmcError::InvalidGenerator`] — `pi0` is not a probability vector,
///   `t` is negative/non-finite, or `Λ·t` overflows (the exit rates are
///   too large for the horizon).
///
/// # Example
///
/// ```
/// use gprs_ctmc::{TripletBuilder, transient};
///
/// // Two-state chain starting in state 0.
/// let mut b = TripletBuilder::new(2);
/// b.push(0, 1, 1.0);
/// b.push(1, 0, 1.0);
/// let gen = b.build()?;
/// let pi = transient::solve_transient(&gen, &[1.0, 0.0], 1000.0)?;
/// assert!((pi[0] - 0.5).abs() < 1e-9); // long horizon ≈ steady state
/// # Ok::<(), gprs_ctmc::CtmcError>(())
/// ```
pub fn solve_transient(gen: &SparseGenerator, pi0: &[f64], t: f64) -> Result<Vec<f64>, CtmcError> {
    let n = gen.num_states();
    if n == 0 {
        return Err(CtmcError::EmptyChain);
    }
    if pi0.len() != n {
        return Err(CtmcError::DimensionMismatch {
            expected: n,
            actual: pi0.len(),
        });
    }
    if !t.is_finite() || t < 0.0 {
        return Err(CtmcError::InvalidGenerator {
            reason: format!("time horizon must be finite and >= 0, got {t}"),
        });
    }
    let total: f64 = pi0.iter().sum();
    if pi0.iter().any(|&x| !x.is_finite() || x < 0.0) || (total - 1.0).abs() > 1e-9 {
        return Err(CtmcError::InvalidGenerator {
            reason: "initial distribution must be a probability vector".into(),
        });
    }

    let max_exit = gen.max_exit_rate();
    if max_exit == 0.0 || t == 0.0 {
        return Ok(pi0.to_vec());
    }
    let lambda = max_exit * UNIFORMIZATION_HEADROOM;
    let q = lambda * t;
    if !q.is_finite() {
        // The Poisson truncation point and weights below need a finite
        // mean; an overflowing one would loop without end.
        return Err(CtmcError::InvalidGenerator {
            reason: format!("uniformized horizon Λ·t = {lambda:e}·{t} is not finite"),
        });
    }

    // Poisson(q) weights computed iteratively; for large q start from the
    // mode to avoid underflow of e^{-q}.
    let mut result = vec![0.0f64; n];
    let mut v = pi0.to_vec(); // π(0)·P^k, updated in place
    let mut next = vec![0.0f64; n];

    // weight_k and running normalization in log space for robustness.
    let mut log_w = -q; // ln of Poisson(0) weight
    let mut cumulative = 0.0f64;
    let mut k = 0usize;
    // Generous cap: mean q plus ~12 standard deviations.
    let k_max = (q + 12.0 * q.sqrt() + 30.0).ceil() as usize;

    loop {
        let w = log_w.exp();
        if w > 0.0 {
            for (r, &x) in result.iter_mut().zip(&v) {
                *r += w * x;
            }
            cumulative += w;
        }
        if cumulative >= 1.0 - POISSON_TAIL_EPS || k >= k_max {
            break;
        }
        uniformized_step(gen, lambda, &v, &mut next);
        std::mem::swap(&mut v, &mut next);
        k += 1;
        log_w += q.ln() - (k as f64).ln();
    }

    // Account for the truncated tail by renormalizing.
    let mass: f64 = result.iter().sum();
    if mass > 0.0 {
        for r in &mut result {
            *r /= mass;
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::TripletBuilder;

    /// Closed form for a two-state chain: p_00(t) = b/(a+b) + a/(a+b)·e^{-(a+b)t}
    /// with 0 -> 1 at rate a, 1 -> 0 at rate b, started in state 0.
    fn two_state_closed_form(a: f64, b: f64, t: f64) -> f64 {
        b / (a + b) + a / (a + b) * (-(a + b) * t).exp()
    }

    #[test]
    fn matches_two_state_closed_form() {
        let (a, b) = (0.7, 0.3);
        let mut bld = TripletBuilder::new(2);
        bld.push(0, 1, a);
        bld.push(1, 0, b);
        let g = bld.build().unwrap();
        for &t in &[0.0, 0.1, 0.5, 1.0, 3.0, 10.0] {
            let pi = solve_transient(&g, &[1.0, 0.0], t).unwrap();
            let expect = two_state_closed_form(a, b, t);
            assert!(
                (pi[0] - expect).abs() < 1e-9,
                "t={t}: {} vs {expect}",
                pi[0]
            );
        }
    }

    #[test]
    fn long_horizon_reaches_steady_state() {
        let mut b = TripletBuilder::new(3);
        b.push(0, 1, 1.0);
        b.push(1, 2, 0.5);
        b.push(2, 0, 0.25);
        let g = b.build().unwrap();
        let exact = crate::gth::solve_gth(&g).unwrap();
        let pi = solve_transient(&g, &[1.0, 0.0, 0.0], 500.0).unwrap();
        for s in 0..3 {
            assert!((pi[s] - exact[s]).abs() < 1e-8, "state {s}");
        }
    }

    #[test]
    fn zero_time_returns_initial() {
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, 5.0);
        b.push(1, 0, 5.0);
        let g = b.build().unwrap();
        let pi = solve_transient(&g, &[0.2, 0.8], 0.0).unwrap();
        assert_eq!(pi, vec![0.2, 0.8]);
    }

    #[test]
    fn large_q_does_not_underflow() {
        // Λt ≈ 1e4: e^{-q} underflows a naive implementation's first term;
        // result must still be a valid distribution near steady state.
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, 10.0);
        b.push(1, 0, 30.0);
        let g = b.build().unwrap();
        let pi = solve_transient(&g, &[1.0, 0.0], 300.0).unwrap();
        assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!((pi[0] - 0.75).abs() < 1e-6);
    }

    #[test]
    fn overflowing_uniformization_rate_is_rejected() {
        // Two rates of 1e308 out of state 0 sum to an infinite exit
        // rate: Λ·t is not finite, so no Poisson truncation exists.
        let g = crate::sparse::overflowing_exit_chain();
        assert_eq!(g.max_exit_rate(), f64::INFINITY);
        let err = solve_transient(&g, &[1.0, 0.0, 0.0], 1.0).unwrap_err();
        assert!(matches!(err, CtmcError::InvalidGenerator { .. }), "{err:?}");
        // A zero horizon needs no uniformization at all.
        let pi = solve_transient(&g, &[1.0, 0.0, 0.0], 0.0).unwrap();
        assert_eq!(pi, vec![1.0, 0.0, 0.0]);
    }

    #[test]
    fn invalid_initial_distribution_rejected() {
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, 1.0);
        b.push(1, 0, 1.0);
        let g = b.build().unwrap();
        assert!(solve_transient(&g, &[0.4, 0.4], 1.0).is_err());
        assert!(solve_transient(&g, &[1.0], 1.0).is_err());
        assert!(solve_transient(&g, &[1.0, 0.0], -1.0).is_err());
    }
}
