//! Stationary distribution wrapper and reward-based expectations.

use std::ops::Index;

/// A probability vector over the states of a chain.
///
/// Guaranteed non-negative; construction normalizes to sum 1 when the
/// input total is positive.
#[derive(Debug, Clone, PartialEq)]
pub struct StationaryDistribution {
    pi: Vec<f64>,
}

impl StationaryDistribution {
    /// Wraps and normalizes a non-negative weight vector.
    ///
    /// # Panics
    ///
    /// Panics if any entry is negative or non-finite, or if the vector is
    /// empty or sums to zero.
    pub fn new(mut pi: Vec<f64>) -> Self {
        assert!(!pi.is_empty(), "distribution must have at least one state");
        let mut total = 0.0f64;
        for &p in &pi {
            assert!(
                p.is_finite() && p >= 0.0,
                "probabilities must be finite and >= 0"
            );
            total += p;
        }
        assert!(total > 0.0, "distribution must have positive total mass");
        for p in &mut pi {
            *p /= total;
        }
        StationaryDistribution { pi }
    }

    /// Wraps a vector that is already normalized, such as the solution
    /// a workspace-based solver leaves in [`SolveWorkspace::pi`]
    /// (those solvers normalize in place with exactly the arithmetic of
    /// [`new`](Self::new), so wrapping must not divide a second time —
    /// that would perturb the last ulp).
    ///
    /// The caller guarantees finite, non-negative entries summing to 1;
    /// debug builds check it.
    ///
    /// [`SolveWorkspace::pi`]: crate::SolveWorkspace::pi
    pub fn from_normalized(pi: Vec<f64>) -> Self {
        debug_assert!(pi.iter().all(|p| p.is_finite() && *p >= 0.0));
        debug_assert!((pi.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        StationaryDistribution { pi }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.pi.len()
    }

    /// Probability of `state`.
    pub fn prob(&self, state: usize) -> f64 {
        self.pi[state]
    }

    /// Expected value of a per-state reward function:
    /// `Σ_s π(s)·reward(s)`.
    ///
    /// # Example
    ///
    /// ```
    /// use gprs_ctmc::StationaryDistribution;
    ///
    /// let pi = StationaryDistribution::new(vec![0.25, 0.75]);
    /// // Expected state index:
    /// assert_eq!(pi.expectation(|s| s as f64), 0.75);
    /// ```
    pub fn expectation(&self, reward: impl Fn(usize) -> f64) -> f64 {
        self.pi
            .iter()
            .enumerate()
            .map(|(s, &p)| p * reward(s))
            .sum()
    }

    /// Sums probability over all states for which `pred` holds.
    pub fn probability_of(&self, pred: impl Fn(usize) -> bool) -> f64 {
        self.pi
            .iter()
            .enumerate()
            .filter(|&(s, _)| pred(s))
            .map(|(_, &p)| p)
            .sum()
    }

    /// Aggregates the distribution into `num_groups` buckets using
    /// `group(state) -> bucket`.
    ///
    /// # Panics
    ///
    /// Panics if `group` returns an index `>= num_groups`.
    pub fn marginal(&self, num_groups: usize, group: impl Fn(usize) -> usize) -> Vec<f64> {
        let mut out = vec![0.0; num_groups];
        for (s, &p) in self.pi.iter().enumerate() {
            let g = group(s);
            assert!(g < num_groups, "group index {g} out of range {num_groups}");
            out[g] += p;
        }
        out
    }

    /// Borrows the underlying probabilities.
    pub fn as_slice(&self) -> &[f64] {
        &self.pi
    }

    /// Consumes the wrapper and returns the raw probability vector.
    pub fn into_inner(self) -> Vec<f64> {
        self.pi
    }
}

impl Index<usize> for StationaryDistribution {
    type Output = f64;
    fn index(&self, idx: usize) -> &f64 {
        &self.pi[idx]
    }
}

impl std::ops::Deref for StationaryDistribution {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        &self.pi
    }
}

impl AsRef<[f64]> for StationaryDistribution {
    fn as_ref(&self) -> &[f64] {
        &self.pi
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalizes_on_construction() {
        let d = StationaryDistribution::new(vec![1.0, 3.0]);
        assert_eq!(d.prob(0), 0.25);
        assert_eq!(d.prob(1), 0.75);
        assert_eq!(d.num_states(), 2);
    }

    #[test]
    fn expectation_and_predicate() {
        let d = StationaryDistribution::new(vec![0.2, 0.3, 0.5]);
        assert!((d.expectation(|s| s as f64) - 1.3).abs() < 1e-15);
        assert!((d.probability_of(|s| s >= 1) - 0.8).abs() < 1e-15);
    }

    #[test]
    fn marginal_groups() {
        let d = StationaryDistribution::new(vec![0.1, 0.2, 0.3, 0.4]);
        let m = d.marginal(2, |s| s % 2);
        assert!((m[0] - 0.4).abs() < 1e-15);
        assert!((m[1] - 0.6).abs() < 1e-15);
    }

    #[test]
    fn iter_and_slices() {
        let d = StationaryDistribution::new(vec![0.5, 0.5]);
        // Deref to slice provides iteration.
        assert_eq!(d.iter().count(), 2);
        assert_eq!(d.as_slice().len(), 2);
        assert_eq!(d[0], 0.5);
        assert_eq!(d.into_inner(), vec![0.5, 0.5]);
    }

    #[test]
    #[should_panic(expected = "positive total mass")]
    fn zero_mass_panics() {
        let _ = StationaryDistribution::new(vec![0.0, 0.0]);
    }

    #[test]
    #[should_panic(expected = "at least one state")]
    fn empty_panics() {
        let _ = StationaryDistribution::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "finite and >= 0")]
    fn negative_panics() {
        let _ = StationaryDistribution::new(vec![0.5, -0.1]);
    }
}
