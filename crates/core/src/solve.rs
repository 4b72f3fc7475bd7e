//! End-to-end steady-state solution of the cell model.

use crate::error::ModelError;
use crate::generator::GprsModel;
use crate::measures::Measures;
use gprs_ctmc::solver::{solve_gauss_seidel, Solution, SolveOptions};
use gprs_ctmc::{
    solve_mbd_projected_blocked_ws, BlockedMbd, SolveWorkspace, StationaryDistribution,
};
use std::borrow::Cow;

/// A solved model: stationary distribution, measures, and solver
/// diagnostics.
#[derive(Debug, Clone)]
pub struct SolvedModel {
    pi: StationaryDistribution,
    measures: Measures,
    sweeps: usize,
    residual: f64,
}

impl SolvedModel {
    /// The stationary distribution over `(n, k, m, r)` states.
    pub fn stationary(&self) -> &StationaryDistribution {
        &self.pi
    }

    /// The derived performance measures (Eqs. 6–11).
    pub fn measures(&self) -> &Measures {
        &self.measures
    }

    /// Gauss–Seidel sweeps the solve took.
    pub fn sweeps(&self) -> usize {
        self.sweeps
    }

    /// Final relative balance residual.
    pub fn residual(&self) -> f64 {
        self.residual
    }

    /// Consumes the solution, returning the raw probability vector
    /// (useful as a warm start for a neighbouring configuration).
    pub fn into_stationary(self) -> StationaryDistribution {
        self.pi
    }
}

impl GprsModel {
    /// Solves for the stationary distribution with the block tridiagonal
    /// (Markov-modulated birth–death) solver — the production method.
    ///
    /// The model's phase process `(n, m, r)` is orders of magnitude
    /// slower than the packet process `k`; the block solver handles each
    /// phase's whole buffer column exactly per sweep, so it converges at
    /// the benign phase-chain rate (typically well under a hundred
    /// sweeps, where point Gauss–Seidel needs thousands).
    ///
    /// It runs the blocked kernel
    /// ([`solve_mbd_projected_blocked_ws`]) over a one-shot
    /// [`BlockedMbd`] capture of the model, projecting onto the exact
    /// phase marginal every sweep. That is the kernel the
    /// [`GeneratorTemplate`](crate::template::GeneratorTemplate) runs,
    /// so a cold template solve reproduces this one bit for bit.
    ///
    /// `warm_start` (e.g. the solution of a nearby arrival rate) speeds
    /// convergence further; when `None`, the product-form guess of
    /// [`product_form_guess`](GprsModel::product_form_guess) is used —
    /// its phase marginals are exact, so only the buffer dimension needs
    /// to converge.
    ///
    /// # Errors
    ///
    /// [`ModelError::Ctmc`] if the solver fails to converge within
    /// `opts.max_sweeps`.
    pub fn solve(
        &self,
        opts: &SolveOptions,
        warm_start: Option<&[f64]>,
    ) -> Result<SolvedModel, ModelError> {
        let guess = warm_start.map_or_else(|| Cow::Owned(self.product_form_guess()), Cow::from);
        let marginal = self.phase_marginal();
        let mut blocked = BlockedMbd::new();
        blocked.capture(self);
        let mut ws = SolveWorkspace::new();
        let stats =
            solve_mbd_projected_blocked_ws(&blocked, &marginal, Some(&guess), opts, &mut ws)?;
        Ok(self.solved(Solution {
            // The solver already applied the final normalization.
            pi: StationaryDistribution::from_normalized(std::mem::take(ws.pi_mut())),
            sweeps: stats.sweeps,
            residual: stats.residual,
        }))
    }

    /// Solves with point Gauss–Seidel over the assembled flat chain
    /// ([`assemble_sparse`](Self::assemble_sparse)). Slower than
    /// [`solve`](Self::solve) on stiff configurations; retained as an
    /// independent cross-check of the block solver (the CSR comes from
    /// the forward Table 1, the block solver from the MBD view).
    ///
    /// # Errors
    ///
    /// [`ModelError::Ctmc`] on assembly or convergence failure.
    pub fn solve_gauss_seidel(
        &self,
        opts: &SolveOptions,
        warm_start: Option<&[f64]>,
    ) -> Result<SolvedModel, ModelError> {
        let guess = warm_start.map_or_else(|| Cow::Owned(self.product_form_guess()), Cow::from);
        let sparse = self.assemble_sparse()?;
        Ok(self.solved(solve_gauss_seidel(&sparse, Some(&guess), opts)?))
    }

    /// Wraps a converged solution with its measures.
    fn solved(&self, sol: Solution) -> SolvedModel {
        SolvedModel {
            measures: Measures::compute(self, &sol.pi),
            pi: sol.pi,
            sweeps: sol.sweeps,
            residual: sol.residual,
        }
    }

    /// Solves with default options (tolerance `1e-10`).
    ///
    /// # Errors
    ///
    /// Same as [`solve`](Self::solve).
    pub fn solve_default(&self) -> Result<SolvedModel, ModelError> {
        self.solve(&SolveOptions::default(), None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CellConfig;
    use gprs_ctmc::gth::solve_gth;
    use gprs_ctmc::mbd::solve_mbd_projected_inplace_ws;
    use gprs_traffic::TrafficModel;

    fn tiny() -> GprsModel {
        let config = CellConfig::builder()
            .total_channels(4)
            .reserved_pdchs(1)
            .buffer_capacity(4)
            .max_gprs_sessions(2)
            .traffic_model(TrafficModel::Model3)
            .max_gprs_sessions(2)
            .call_arrival_rate(0.6)
            .build()
            .unwrap();
        GprsModel::new(config).unwrap()
    }

    #[test]
    fn block_solver_matches_gth_ground_truth() {
        // The decisive correctness test: the production block solve
        // against stable direct elimination on the full (small) chain.
        let model = tiny();
        let solved = model.solve_default().unwrap();
        let sparse = model.assemble_sparse().unwrap();
        let exact = solve_gth(&sparse).unwrap();
        let mut max_abs: f64 = 0.0;
        for i in 0..model.space().num_states() {
            max_abs = max_abs.max((solved.stationary()[i] - exact[i]).abs());
        }
        assert!(max_abs < 1e-8, "max abs error {max_abs}");
    }

    #[test]
    fn block_solver_and_point_gauss_seidel_agree() {
        // Two independent code paths (MBD view vs the CSR assembled
        // from the forward Table 1) must produce the same distribution.
        let model = tiny();
        let block = model.solve_default().unwrap();
        let point = model
            .solve_gauss_seidel(&gprs_ctmc::SolveOptions::default(), None)
            .unwrap();
        for i in 0..model.space().num_states() {
            assert!(
                (block.stationary()[i] - point.stationary()[i]).abs() < 1e-7,
                "state {i}"
            );
        }
        assert!(
            block.sweeps() <= point.sweeps(),
            "block {} vs point {} sweeps",
            block.sweeps(),
            point.sweeps()
        );
    }

    #[test]
    fn restart_from_own_solution_is_immediate() {
        let model = tiny();
        let first = model.solve_default().unwrap();
        let again = model
            .solve(
                &gprs_ctmc::SolveOptions::default(),
                Some(first.stationary().as_slice()),
            )
            .unwrap();
        assert!(again.sweeps() <= 4, "took {} sweeps", again.sweeps());
        assert!(
            (again.measures().carried_data_traffic - first.measures().carried_data_traffic).abs()
                < 1e-9
        );
    }

    #[test]
    fn cross_rate_warm_start_still_converges_correctly() {
        // Warm starts from a different rate are *correct* (if not
        // faster than the product-form guess for the block solver).
        let model_a = tiny();
        let solved_a = model_a.solve_default().unwrap();
        let mut cfg = model_a.config().clone();
        cfg.call_arrival_rate = 0.65;
        let model_b = GprsModel::new(cfg).unwrap();
        let cold = model_b.solve_default().unwrap();
        let warm = model_b
            .solve(
                &gprs_ctmc::SolveOptions::default(),
                Some(solved_a.stationary().as_slice()),
            )
            .unwrap();
        assert!(
            (warm.measures().carried_data_traffic - cold.measures().carried_data_traffic).abs()
                < 1e-7
        );
    }

    #[test]
    fn warm_solve_is_bit_identical_to_the_scalar_oracle() {
        // `solve` runs the blocked kernel over a one-shot capture; the
        // matrix-free scalar kernel staged with the same start must
        // agree on every bit, from starts that are not the solution:
        // a neighbouring rate's solution and an arbitrary ramp.
        let model = tiny();
        let mut cfg = model.config().clone();
        cfg.call_arrival_rate = 0.45;
        let neighbour = GprsModel::new(cfg).unwrap().solve_default().unwrap();
        let n = model.space().num_states();
        let ramp: Vec<f64> = (0..n).map(|i| (i % 7 + 1) as f64).collect();
        let marginal = model.phase_marginal();
        let opts = gprs_ctmc::SolveOptions::default();
        for start in [neighbour.stationary().as_slice(), &ramp] {
            let solved = model.solve(&opts, Some(start)).unwrap();
            let mut ws = gprs_ctmc::SolveWorkspace::new();
            ws.set_pi(start);
            let oracle = solve_mbd_projected_inplace_ws(&model, &marginal, &opts, &mut ws).unwrap();
            assert!(oracle.sweeps > 1, "start must not already be the solution");
            assert_eq!(solved.sweeps(), oracle.sweeps);
            assert_eq!(solved.residual().to_bits(), oracle.residual.to_bits());
            for (i, (a, b)) in solved.stationary().iter().zip(ws.pi()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "state {i}");
            }
        }
    }

    #[test]
    fn solved_diagnostics_present() {
        let model = tiny();
        let solved = model.solve_default().unwrap();
        assert!(solved.sweeps() > 0);
        assert!(solved.residual() <= 1e-10);
        let pi = solved.into_stationary();
        assert_eq!(pi.num_states(), model.space().num_states());
    }
}
