//! Solve-health reporting for the resilient solve pipeline.
//!
//! Every resilient solve ([`GeneratorTemplate::solve_resilient`] and
//! its lean twin, and through them the cluster fixed point and the
//! sweep APIs) records *how* its answer was produced in a
//! [`SolveHealth`] report: which rung of the fallback ladder succeeded,
//! how many rungs failed before it, and the diagnostics of the
//! accepted solution. The happy path — primary solver, first attempt —
//! reports [`SolveRung::Primary`] with zero failed rungs and is
//! bit-identical to the non-resilient entry points; anything else means
//! the solve *degraded gracefully* and the caller may want to log it.
//!
//! [`GeneratorTemplate::solve_resilient`]: crate::template::GeneratorTemplate::solve_resilient

/// Which rung of the fallback ladder produced the accepted solution.
///
/// The ladder runs top to bottom; each rung is only attempted after
/// every rung above it failed with a *solver* failure (non-convergence
/// or divergence — structural errors propagate immediately, every rung
/// would fail identically on them). Rungs order by ladder depth:
/// `Primary < Surrogate < ColdRestart < AlternateIterative < DirectGth`,
/// so the deepest rung of several solves is their `max`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum SolveRung {
    /// The primary path: block tridiagonal (MBD) solve with the
    /// requested warm start. The happy path — bit-identical to the
    /// non-resilient solve.
    #[default]
    Primary,
    /// No solve produces this rung any more. It named a point served
    /// by the retired predict-and-verify surrogate: an extrapolated
    /// warm start whose exact balance residual was already within
    /// tolerance, with zero sweeps. It stays because journals written
    /// before the surrogate went carry its label, and the repository
    /// benchmark still matches on it; like `Primary`, it is not
    /// degraded.
    Surrogate,
    /// The primary solver restarted cold (warm-start chain dropped):
    /// recovers from a poisoned or badly extrapolated warm start.
    ColdRestart,
    /// The alternate iterative method: point Gauss–Seidel over the
    /// assembled sparse chain, with adjusted relaxation (plain sweeps
    /// if the caller over-relaxed, under-relaxed sweeps otherwise).
    AlternateIterative,
    /// Direct GTH elimination — exact, subtraction-free, `O(n³)`; the
    /// rung of last resort for chains under
    /// [`RECOMMENDED_MAX_STATES`](gprs_ctmc::gth::RECOMMENDED_MAX_STATES).
    DirectGth,
}

impl SolveRung {
    /// Short human-readable label (for logs and reports).
    pub fn label(&self) -> &'static str {
        match self {
            SolveRung::Primary => "primary",
            SolveRung::Surrogate => "surrogate",
            SolveRung::ColdRestart => "cold-restart",
            SolveRung::AlternateIterative => "alternate-iterative",
            SolveRung::DirectGth => "direct-gth",
        }
    }
}

/// Health report of one resilient solve: which rung succeeded and what
/// it cost. `Copy`, so it threads through the sweep and cluster result
/// types for free.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveHealth {
    /// The rung that produced the accepted solution.
    pub rung: SolveRung,
    /// How many rungs failed before the accepted one (0 on the happy
    /// path).
    pub failed_rungs: u8,
    /// Sweeps the accepted rung took (0 for the direct rung).
    pub sweeps: usize,
    /// Balance residual of the accepted solution.
    pub residual: f64,
}

impl SolveHealth {
    /// The happy-path report: primary rung, nothing failed.
    pub fn primary(sweeps: usize, residual: f64) -> Self {
        SolveHealth {
            rung: SolveRung::Primary,
            failed_rungs: 0,
            sweeps,
            residual,
        }
    }

    /// Whether the solve had to leave the primary path — either a
    /// fallback rung produced the answer or at least one rung failed
    /// along the way. A [`SolveRung::Surrogate`] point, read back from
    /// an old journal, is *not* degraded: it met the residual
    /// tolerance.
    pub fn degraded(&self) -> bool {
        !matches!(self.rung, SolveRung::Primary | SolveRung::Surrogate) || self.failed_rungs > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primary_report_is_not_degraded() {
        let h = SolveHealth::primary(12, 1e-11);
        assert!(!h.degraded());
        assert_eq!(h.rung.label(), "primary");
    }

    #[test]
    fn surrogate_report_is_not_degraded() {
        let h = SolveHealth {
            rung: SolveRung::Surrogate,
            failed_rungs: 0,
            sweeps: 0,
            residual: 1e-11,
        };
        assert!(!h.degraded());
        assert_eq!(h.rung.label(), "surrogate");
    }

    #[test]
    fn rungs_order_by_ladder_depth() {
        use SolveRung::*;
        let ladder = [
            Primary,
            Surrogate,
            ColdRestart,
            AlternateIterative,
            DirectGth,
        ];
        for pair in ladder.windows(2) {
            assert!(pair[0] < pair[1], "{:?} < {:?}", pair[0], pair[1]);
        }
        assert_eq!(ladder.iter().max(), Some(&DirectGth));
    }

    #[test]
    fn fallback_rungs_are_degraded() {
        for rung in [
            SolveRung::ColdRestart,
            SolveRung::AlternateIterative,
            SolveRung::DirectGth,
        ] {
            let h = SolveHealth {
                rung,
                failed_rungs: 1,
                sweeps: 0,
                residual: 0.0,
            };
            assert!(h.degraded());
            assert!(!h.rung.label().is_empty());
        }
    }
}
