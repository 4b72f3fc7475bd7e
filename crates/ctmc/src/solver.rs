//! Point Gauss–Seidel / SOR steady-state solver, and the options,
//! workspace and health guard every iterative solver shares.
//!
//! Point Gauss–Seidel gathers each state's inflow from the stored
//! transpose of a [`SparseGenerator`] ([`SparseGenerator::column`]),
//! supports warm starts, and uses the relative L1 balance residual as
//! its convergence criterion. It is the alternate rung of the fallback
//! ladder and the flat cross-check of the block solvers.

use crate::error::CtmcError;
use crate::sparse::SparseGenerator;
use crate::stationary::StationaryDistribution;
use std::time::{Duration, Instant};

/// Options controlling the iterative solvers.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOptions {
    /// Convergence tolerance on the relative L1 balance residual
    /// `‖πQ‖₁ / ‖π∘exit‖₁`.
    pub tolerance: f64,
    /// Hard cap on the number of sweeps.
    pub max_sweeps: usize,
    /// SOR over-relaxation factor in `(0, 2)`; `1.0` is plain
    /// Gauss–Seidel. Point Gauss–Seidel runs at this factor throughout.
    /// The projected MBD kernels start at it and adapt it: once the
    /// residual ratios between consecutive checks settle, they switch
    /// once to Young's optimal factor `2 / (1 + √(1 − ρ))` for the
    /// measured per-sweep contraction `ρ`, clamped to `[1, 1.9]`, and
    /// revert once to this factor if the residual later rises above
    /// its value at the switch. Every decision is a pure function of
    /// the residual sequence, so results stay deterministic.
    /// [`SolveStats::omega`] reports the factor in effect when a solve
    /// stopped.
    pub sor_omega: f64,
    /// How many sweeps between residual evaluations, for the solvers
    /// that pay a separate residual pass (the MBD kernels check at most
    /// every 4 sweeps; point Gauss–Seidel fuses the residual into every
    /// sweep and uses this only as the wall-clock check cadence).
    /// Values of `0` are treated as `1`: a zero cadence would otherwise
    /// never fire and silently disable convergence checks until
    /// `max_sweeps`.
    pub check_every: usize,
    /// Optional **wall-clock budget** for one solve. Checked at the
    /// residual-evaluation cadence; when it runs out the solver returns
    /// [`CtmcError::NotConverged`] carrying an exactly evaluated,
    /// finite residual for the current iterate (or
    /// [`CtmcError::Diverged`] if that residual is not finite). `None`
    /// (the default) means the sweep cap [`max_sweeps`](Self::max_sweeps)
    /// is the only budget. This is the guard that turns a stiff,
    /// near-reducible, or oscillating chain from a multi-minute hang
    /// into a structured, retryable failure.
    pub max_wall_time: Option<Duration>,
    /// **Divergence guard**: the solve aborts with
    /// [`CtmcError::Diverged`] as soon as an evaluated residual exceeds
    /// the best residual seen so far by this factor (or is NaN/∞,
    /// regardless of the factor). Must be `> 1`; `f64::INFINITY`
    /// disables the growth check (non-finite residuals still abort).
    /// The default `1e6` is far beyond the transient wobble of healthy
    /// warm starts while catching genuine blow-ups within a few sweeps
    /// instead of spinning to `max_sweeps`.
    pub divergence_factor: f64,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            tolerance: 1e-10,
            max_sweeps: 20_000,
            sor_omega: 1.0,
            check_every: 16,
            max_wall_time: None,
            divergence_factor: 1e6,
        }
    }
}

impl SolveOptions {
    /// A looser profile for quick exploration (tolerance `1e-8`).
    pub fn quick() -> Self {
        SolveOptions {
            tolerance: 1e-8,
            ..Self::default()
        }
    }

    /// Sets the tolerance, returning `self` for chaining.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }

    /// Sets the SOR factor, returning `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics if `omega` is outside `(0, 2)`.
    pub fn with_sor(mut self, omega: f64) -> Self {
        assert!(omega > 0.0 && omega < 2.0, "SOR omega must lie in (0, 2)");
        self.sor_omega = omega;
        self
    }

    /// Sets the sweep cap, returning `self` for chaining.
    pub fn with_max_sweeps(mut self, max: usize) -> Self {
        self.max_sweeps = max;
        self
    }

    /// Sets the residual-check cadence, returning `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics if `every` is zero (which would disable convergence
    /// checks entirely).
    pub fn with_check_every(mut self, every: usize) -> Self {
        assert!(every > 0, "check cadence must be positive");
        self.check_every = every;
        self
    }

    /// Sets the wall-clock budget, returning `self` for chaining.
    pub fn with_wall_time(mut self, budget: Duration) -> Self {
        self.max_wall_time = Some(budget);
        self
    }

    /// Sets the divergence guard factor, returning `self` for chaining.
    ///
    /// # Panics
    ///
    /// Panics if `factor <= 1` (the guard would fire on any
    /// non-monotone residual, including healthy warm-start wobble).
    pub fn with_divergence_factor(mut self, factor: f64) -> Self {
        assert!(factor > 1.0, "divergence factor must exceed 1");
        self.divergence_factor = factor;
        self
    }

    /// The check cadence with the zero guard applied.
    pub(crate) fn check_cadence(&self) -> usize {
        self.check_every.max(1)
    }
}

/// In-sweep health tracker shared by the iterative solvers: watches
/// every evaluated residual for NaN/∞ and runaway growth, and the wall
/// clock for budget exhaustion. One guard lives for one solve.
pub(crate) struct HealthGuard {
    deadline: Option<Instant>,
    divergence_factor: f64,
    best_residual: f64,
}

impl HealthGuard {
    pub(crate) fn new(opts: &SolveOptions) -> Self {
        HealthGuard {
            // checked_add: a caller passing Duration::MAX must exhaust
            // the sweep budget rather than overflow the deadline.
            deadline: opts
                .max_wall_time
                .and_then(|b| Instant::now().checked_add(b)),
            divergence_factor: opts.divergence_factor,
            best_residual: f64::INFINITY,
        }
    }

    /// Feeds a freshly evaluated residual to the divergence guard.
    ///
    /// # Errors
    ///
    /// [`CtmcError::Diverged`] if the residual is non-finite, or grew
    /// past `divergence_factor` times the best residual seen so far.
    pub(crate) fn observe(&mut self, sweeps: usize, residual: f64) -> Result<(), CtmcError> {
        if !residual.is_finite() {
            return Err(CtmcError::Diverged {
                iterations: sweeps,
                residual,
            });
        }
        if residual < self.best_residual {
            self.best_residual = residual;
        } else if self.divergence_factor.is_finite()
            && self.best_residual.is_finite()
            && residual > self.divergence_factor * self.best_residual.max(f64::MIN_POSITIVE)
        {
            return Err(CtmcError::Diverged {
                iterations: sweeps,
                residual,
            });
        }
        Ok(())
    }

    /// Whether the wall-clock budget has run out. Callers check this at
    /// their residual cadence (an `Instant::now` per sweep would be
    /// noticeable on small chains).
    pub(crate) fn out_of_time(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() >= d)
    }

    /// The structured end-of-budget error: [`CtmcError::NotConverged`]
    /// carrying `exact_residual` when it is finite (the contract every
    /// budget-exhaustion path honours — callers evaluate the residual
    /// exactly on the frozen iterate first), [`CtmcError::Diverged`]
    /// otherwise.
    pub(crate) fn budget_error(sweeps: usize, exact_residual: f64, tolerance: f64) -> CtmcError {
        if exact_residual.is_finite() {
            CtmcError::NotConverged {
                iterations: sweeps,
                residual: exact_residual,
                tolerance,
            }
        } else {
            CtmcError::Diverged {
                iterations: sweeps,
                residual: exact_residual,
            }
        }
    }
}

/// The relaxation controller shared by both projected MBD kernels
/// ([`SolveOptions::sor_omega`]). The kernels feed it every residual
/// they evaluate and read the factor for the next sweep from it, so
/// the scalar and the blocked kernel stay bit-identical.
///
/// The rule: start at `opts.sor_omega`. At each check take the ratio
/// `r_k / r_{k−1}` of consecutive residuals. When two consecutive
/// ratios are below 1 and agree within 10%, switch once to
/// `clamp(2 / (1 + √(1 − ρ)), 1, 1.9)`, with `ρ` the per-sweep factor
/// `ratio^(1 / interval)` (Young's formula; Hageman & Young, *Applied
/// Iterative Methods*, 1981). If a later residual rises above the one
/// at the switch, revert once to the starting factor and stay there.
#[derive(Debug)]
pub(crate) struct Relaxation {
    omega: f64,
    start: f64,
    state: RelaxState,
}

#[derive(Debug, Clone, Copy)]
enum RelaxState {
    /// Waiting for two matching ratios. `last` is the previous check
    /// (`(sweeps, residual)`), `ratio` the previous ratio.
    Watching {
        last: Option<(usize, f64)>,
        ratio: Option<f64>,
    },
    /// Switched; reverts if a residual exceeds `residual`.
    Switched { residual: f64 },
    /// Reverted: fixed at the starting factor for the rest of the solve.
    Fixed,
}

impl Relaxation {
    /// Highest factor the controller picks.
    const MAX_OMEGA: f64 = 1.9;
    /// Largest relative gap between two ratios that still agree.
    const RATIO_AGREEMENT: f64 = 0.1;

    pub(crate) fn new(opts: &SolveOptions) -> Self {
        Relaxation {
            omega: opts.sor_omega,
            start: opts.sor_omega,
            state: RelaxState::Watching {
                last: None,
                ratio: None,
            },
        }
    }

    /// The factor for the next sweep.
    pub(crate) fn omega(&self) -> f64 {
        self.omega
    }

    /// Feeds the residual evaluated after `sweeps` sweeps.
    pub(crate) fn observe(&mut self, sweeps: usize, residual: f64) {
        match self.state {
            RelaxState::Fixed => {}
            RelaxState::Switched {
                residual: at_switch,
            } => {
                if residual > at_switch {
                    self.omega = self.start;
                    self.state = RelaxState::Fixed;
                }
            }
            RelaxState::Watching { last, ratio } => {
                let mut next = None;
                if let Some((prev_sweeps, prev)) = last {
                    if sweeps > prev_sweeps && prev > 0.0 {
                        let q = residual / prev;
                        if let Some(q0) = ratio {
                            if q < 1.0 && q0 < 1.0 && (q - q0).abs() <= Self::RATIO_AGREEMENT * q0 {
                                let rho = per_sweep_factor(q, sweeps - prev_sweeps);
                                self.omega =
                                    (2.0 / (1.0 + (1.0 - rho).sqrt())).clamp(1.0, Self::MAX_OMEGA);
                                self.state = RelaxState::Switched { residual };
                                return;
                            }
                        }
                        next = Some(q);
                    }
                }
                self.state = RelaxState::Watching {
                    last: Some((sweeps, residual)),
                    ratio: next,
                };
            }
        }
    }
}

/// `ratio^(1 / interval)`: repeated square roots (IEEE-exact) for the
/// usual power-of-two check intervals, `powf` otherwise.
fn per_sweep_factor(ratio: f64, interval: usize) -> f64 {
    match interval {
        1 => ratio,
        2 => ratio.sqrt(),
        4 => ratio.sqrt().sqrt(),
        k => ratio.powf(1.0 / k as f64),
    }
}

/// Outcome of an iterative solve.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The stationary distribution.
    pub pi: StationaryDistribution,
    /// Sweeps performed.
    pub sweeps: usize,
    /// Relative L1 balance residual at termination.
    pub residual: f64,
}

/// Diagnostics of a workspace-based solve; the distribution itself
/// stays in the workspace ([`SolveWorkspace::pi`]).
#[derive(Debug, Clone, Copy)]
pub struct SolveStats {
    /// Sweeps performed.
    pub sweeps: usize,
    /// Relative L1 balance residual at termination.
    pub residual: f64,
    /// Exact residual evaluations paid during the solve (the fused
    /// per-sweep estimates of the Gauss–Seidel solvers are free and not
    /// counted). Surrogate accounting sums these across a template's
    /// lifetime to show what verification actually cost.
    pub residual_evals: usize,
    /// The relaxation factor in effect when the solve stopped: the
    /// choice of the projected MBD kernels' controller, or
    /// [`SolveOptions::sor_omega`] for point Gauss–Seidel.
    pub omega: f64,
}

/// Reusable buffers for the iterative solvers — the numeric half of the
/// symbolic/numeric split for repeated solves.
///
/// Parameter sweeps and fixed-point iterations solve the *same-shaped*
/// chain over and over with different rates; the allocating entry
/// point [`solve_gauss_seidel`] pays a fresh iterate vector plus solver
/// scratch on every call. The `_ws` solvers ([`solve_gauss_seidel_ws`],
/// [`crate::blocked::solve_mbd_projected_blocked_ws`] and the in-place
/// MBD entries) borrow everything from a workspace instead: buffers
/// are grown on first use and reused afterwards, so repeated
/// same-shape solves allocate nothing. The solution is left in
/// [`pi`](Self::pi), doubling as the natural rolling warm start for the
/// next solve. [`solve_gauss_seidel`] delegates to
/// [`solve_gauss_seidel_ws`], so both run bit-identical arithmetic.
#[derive(Debug, Clone, Default)]
pub struct SolveWorkspace {
    /// The iterate / final stationary vector.
    pub(crate) pi: Vec<f64>,
    /// Per-phase exit rates of the scalar MBD kernel (the blocked kernel
    /// reads its captured ones).
    pub(crate) exit: Vec<f64>,
    /// Tridiagonal right-hand side (MBD); in the blocked kernel one
    /// gathered inflow column per lane.
    pub(crate) rhs: Vec<f64>,
    /// Tridiagonal diagonal (scalar MBD kernel).
    pub(crate) diag: Vec<f64>,
    /// Thomas algorithm forward-elimination coefficients (MBD); in the
    /// blocked kernel one row of lanes per level.
    pub(crate) cprime: Vec<f64>,
    /// Tridiagonal solution column (MBD); in the blocked kernel the
    /// eliminated right-hand side and then the solution, one row of
    /// lanes per level.
    pub(crate) xcol: Vec<f64>,
    /// Per-level inflow accumulator for the residual pass (MBD).
    pub(crate) inflow: Vec<f64>,
}

impl SolveWorkspace {
    /// An empty workspace; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// The distribution left behind by the last successful `_ws` solve.
    pub fn pi(&self) -> &[f64] {
        &self.pi
    }

    /// Empties the iterate buffer (capacity is kept). Callers that hit
    /// a solver error use this so a stale or non-converged iterate is
    /// never mistaken for a solution.
    pub fn clear_pi(&mut self) {
        self.pi.clear();
    }

    /// Moves the distribution out (leaving an empty buffer behind).
    pub(crate) fn take_pi(&mut self) -> Vec<f64> {
        std::mem::take(&mut self.pi)
    }

    /// Installs an externally computed distribution as the workspace
    /// iterate — the hook that lets a direct solver (GTH) hand its
    /// answer to a workspace-driven warm-start chain. The values are
    /// copied verbatim; callers pass an already-normalized vector.
    pub fn set_pi(&mut self, pi: &[f64]) {
        self.pi.clear();
        self.pi.extend_from_slice(pi);
    }

    /// Final normalization of the solved iterate — exactly the
    /// arithmetic [`StationaryDistribution::new`] historically applied,
    /// so the workspace path and the allocating path produce
    /// bit-identical distributions.
    ///
    /// # Panics
    ///
    /// As [`StationaryDistribution::new`]: negative / non-finite
    /// entries or zero total mass (the solvers' own divergence guards
    /// fire first in practice).
    pub(crate) fn normalize_pi(&mut self) {
        let mut total = 0.0f64;
        for &p in &self.pi {
            assert!(
                p.is_finite() && p >= 0.0,
                "probabilities must be finite and >= 0"
            );
            total += p;
        }
        assert!(total > 0.0, "distribution must have positive total mass");
        for p in &mut self.pi {
            *p /= total;
        }
    }

    /// Mutable access to the iterate buffer, for callers that build the
    /// next warm start directly in place (extrapolation chains) instead
    /// of staging it in a side buffer and copying. The in-place solver
    /// entry points (`*_inplace_ws`) then normalize and iterate on the
    /// buffer as-is.
    pub fn pi_mut(&mut self) -> &mut Vec<f64> {
        &mut self.pi
    }

    /// Stages a start in the iterate buffer: a copy of `warm`, or `n`
    /// ones (which [`Self::init_pi_in_place`] normalizes to exactly
    /// `1 / n`). Neither validated nor normalized yet.
    pub(crate) fn stage_pi(&mut self, n: usize, warm: Option<&[f64]>) {
        match warm {
            Some(w) => self.set_pi(w),
            None => {
                self.pi.clear();
                self.pi.resize(n, 1.0);
            }
        }
    }

    /// Seeds the iterate from the buffer's staged contents: checks the
    /// length and that the start is non-negative with positive mass,
    /// then normalizes in place (`x / total` per element).
    pub(crate) fn init_pi_in_place(&mut self, n: usize) -> Result<(), CtmcError> {
        if self.pi.len() != n {
            return Err(CtmcError::DimensionMismatch {
                expected: n,
                actual: self.pi.len(),
            });
        }
        let total: f64 = self.pi.iter().sum();
        if !total.is_finite() || total <= 0.0 || self.pi.iter().any(|&x| !x.is_finite() || x < 0.0)
        {
            return Err(CtmcError::InvalidGenerator {
                reason: "warm start must be non-negative with positive mass".into(),
            });
        }
        for x in &mut self.pi {
            *x /= total;
        }
        Ok(())
    }
}

/// Solves `πQ = 0` by Gauss–Seidel (or SOR) iteration.
///
/// Runs at the fixed factor [`SolveOptions::sor_omega`]: only the
/// projected MBD kernels adapt it.
///
/// `warm_start`, when given, seeds the iteration — reusing the solution of
/// a nearby parameter point typically cuts sweep counts by an order of
/// magnitude across a sweep. It does not need to be normalized but must
/// be non-negative with positive total mass.
///
/// # Errors
///
/// * [`CtmcError::EmptyChain`] for zero states.
/// * [`CtmcError::DimensionMismatch`] if the warm start has wrong length.
/// * [`CtmcError::NotConverged`] if `max_sweeps` is exhausted before the
///   residual drops below tolerance.
/// * [`CtmcError::InvalidGenerator`] if some state has zero exit rate
///   (absorbing states have no stationary counterpart in this solver).
///
/// # Example
///
/// ```
/// use gprs_ctmc::{TripletBuilder, solver, SolveOptions};
///
/// let mut b = TripletBuilder::new(3);
/// for i in 0..3 {
///     b.push(i, (i + 1) % 3, 1.0 + i as f64);
/// }
/// let sol = solver::solve_gauss_seidel(&b.build()?, None, &SolveOptions::default())?;
/// assert!(sol.residual <= 1e-10);
/// # Ok::<(), gprs_ctmc::CtmcError>(())
/// ```
pub fn solve_gauss_seidel(
    gen: &SparseGenerator,
    warm_start: Option<&[f64]>,
    opts: &SolveOptions,
) -> Result<Solution, CtmcError> {
    let mut ws = SolveWorkspace::new();
    let stats = solve_gauss_seidel_ws(gen, warm_start, opts, &mut ws)?;
    Ok(Solution {
        // The workspace already applied the final normalization.
        pi: StationaryDistribution::from_normalized(ws.take_pi()),
        sweeps: stats.sweeps,
        residual: stats.residual,
    })
}

/// [`solve_gauss_seidel`] over a reusable [`SolveWorkspace`]: repeated
/// same-shape solves allocate nothing, and the solution is left in
/// `ws.pi()` (ready to serve as the next solve's warm start). The
/// arithmetic is identical to the allocating entry point, which
/// delegates here.
///
/// Each update gathers the state's stored transpose column
/// ([`SparseGenerator::column`]) and divides by its stored exit rate.
///
/// # Errors
///
/// As [`solve_gauss_seidel`].
pub fn solve_gauss_seidel_ws(
    gen: &SparseGenerator,
    warm_start: Option<&[f64]>,
    opts: &SolveOptions,
    ws: &mut SolveWorkspace,
) -> Result<SolveStats, CtmcError> {
    let n = gen.num_states();
    if n == 0 {
        return Err(CtmcError::EmptyChain);
    }

    // Every state must be able to leave.
    let exit = gen.exit_rates();
    if let Some(s) = exit.iter().position(|&e| e <= 0.0) {
        return Err(CtmcError::InvalidGenerator {
            reason: format!("state {s} has zero exit rate (absorbing)"),
        });
    }

    ws.stage_pi(n, warm_start);
    ws.init_pi_in_place(n)?;
    // A plain slice, so stores into `pi` don't force reloads of the
    // buffer's pointer and length.
    let pi: &mut [f64] = &mut ws.pi;

    let omega = opts.sor_omega;
    let mut guard = HealthGuard::new(opts);
    let mut sweeps = 0usize;
    let mut residual_evals = 0usize;
    let mut converged: Option<SolveStats> = None;

    while sweeps < opts.max_sweeps {
        // One forward Gauss–Seidel sweep (in place: uses freshly updated
        // values for already-visited states), accumulating the balance
        // residual of the pre-update values as it goes — so convergence
        // is observed every sweep without a second O(nnz) residual pass.
        let mut num = 0.0f64;
        let mut den = 0.0f64;
        for j in 0..n {
            let inflow = gen.inflow(j, pi);
            let old = pi[j];
            num += (inflow - old * exit[j]).abs();
            den += old * exit[j];
            let new = inflow / exit[j];
            pi[j] = if omega == 1.0 {
                new
            } else {
                (1.0 - omega) * old + omega * new
            };
            if pi[j] < 0.0 {
                // Over-relaxation can momentarily produce tiny negatives.
                pi[j] = 0.0;
            }
        }
        // Renormalize to keep magnitudes in range.
        let total: f64 = pi.iter().sum();
        if !total.is_finite() || total <= 0.0 {
            return Err(CtmcError::Diverged {
                iterations: sweeps + 1,
                residual: if den == 0.0 { f64::NAN } else { num / den },
            });
        }
        let inv = 1.0 / total;
        for p in pi.iter_mut() {
            *p *= inv;
        }
        sweeps += 1;

        // The fused estimate mixes pre- and mid-sweep values, so when it
        // signals convergence an exact evaluation on the frozen iterate
        // confirms before returning (once per solve, not per check).
        let residual = if den == 0.0 { 0.0 } else { num / den };
        guard.observe(sweeps, residual)?;
        if residual <= opts.tolerance {
            let exact = residual_incoming(gen, pi);
            residual_evals += 1;
            if exact <= opts.tolerance {
                converged = Some(SolveStats {
                    sweeps,
                    residual: exact,
                    residual_evals,
                    omega,
                });
                break;
            }
        }
        if sweeps.is_multiple_of(opts.check_cadence()) && guard.out_of_time() {
            break;
        }
    }

    if let Some(stats) = converged {
        ws.normalize_pi();
        return Ok(stats);
    }
    // Budget exhausted (sweeps or wall clock): report the *exact*
    // residual of the frozen iterate, not the fused mid-sweep estimate
    // — `NotConverged` always carries a finite, trustworthy number.
    let exact = residual_incoming(gen, pi);
    Err(HealthGuard::budget_error(sweeps, exact, opts.tolerance))
}

/// Relative L1 balance residual computed via the transpose gather
/// (single pass, no extra `O(n)` flow buffer).
fn residual_incoming(gen: &SparseGenerator, pi: &[f64]) -> f64 {
    let exit = gen.exit_rates();
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for j in 0..pi.len() {
        let inflow = gen.inflow(j, pi);
        num += (inflow - pi[j] * exit[j]).abs();
        den += pi[j] * exit[j];
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gth::solve_gth;
    use crate::sparse::TripletBuilder;

    fn random_irreducible(n: usize, seed: u64) -> crate::sparse::SparseGenerator {
        let mut b = TripletBuilder::new(n);
        let mut state = seed | 1;
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..n {
            b.push(i, (i + 1) % n, 0.5 + next());
            for j in 0..n {
                if j != i && next() < 0.2 {
                    b.push(i, j, next() * 5.0 + 1e-4);
                }
            }
        }
        b.build().unwrap()
    }

    #[test]
    fn matches_gth_on_random_chains() {
        for seed in [1u64, 42, 1234, 98765] {
            let g = random_irreducible(30, seed);
            let exact = solve_gth(&g).unwrap();
            let sol = solve_gauss_seidel(&g, None, &SolveOptions::default()).unwrap();
            for s in 0..30 {
                assert!(
                    (exact[s] - sol.pi[s]).abs() < 1e-8,
                    "seed {seed} state {s}: {} vs {}",
                    exact[s],
                    sol.pi[s]
                );
            }
        }
    }

    #[test]
    fn warm_start_reduces_sweeps() {
        let g = random_irreducible(100, 7);
        let cold = solve_gauss_seidel(&g, None, &SolveOptions::default()).unwrap();
        let warm =
            solve_gauss_seidel(&g, Some(cold.pi.as_slice()), &SolveOptions::default()).unwrap();
        assert!(warm.sweeps <= cold.sweeps);
        assert!(warm.residual <= 1e-10);
    }

    #[test]
    fn sor_converges_too() {
        let g = random_irreducible(50, 3);
        let opts = SolveOptions::default().with_sor(1.3);
        let sol = solve_gauss_seidel(&g, None, &opts).unwrap();
        let exact = solve_gth(&g).unwrap();
        for s in 0..50 {
            assert!((exact[s] - sol.pi[s]).abs() < 1e-8);
        }
    }

    #[test]
    fn stiff_chain_converges() {
        // Slow/fast time-scale separation of 1e6.
        let mut b = TripletBuilder::new(4);
        b.push(0, 1, 1e-3);
        b.push(1, 0, 1e3);
        b.push(1, 2, 1e3);
        b.push(2, 3, 1e-3);
        b.push(3, 2, 1e3);
        b.push(2, 1, 1e-3);
        let g = b.build().unwrap();
        let exact = solve_gth(&g).unwrap();
        let sol = solve_gauss_seidel(&g, None, &SolveOptions::default()).unwrap();
        for s in 0..4 {
            let rel = (exact[s] - sol.pi[s]).abs() / exact[s].max(1e-300);
            assert!(rel < 1e-6, "state {s}: {} vs {}", exact[s], sol.pi[s]);
        }
    }

    #[test]
    fn absorbing_state_is_rejected() {
        let mut b = TripletBuilder::new(2);
        b.push(0, 1, 1.0);
        let err =
            solve_gauss_seidel(&b.build().unwrap(), None, &SolveOptions::default()).unwrap_err();
        assert!(matches!(err, CtmcError::InvalidGenerator { .. }));
    }

    #[test]
    fn not_converged_error_carries_diagnostics() {
        let g = random_irreducible(60, 11);
        let opts = SolveOptions::default().with_max_sweeps(1);
        match solve_gauss_seidel(&g, None, &opts) {
            Err(CtmcError::NotConverged {
                iterations,
                residual,
                tolerance,
            }) => {
                assert_eq!(iterations, 1);
                assert!(residual > tolerance);
                // Budget exhaustion reports the *exact* residual of the
                // frozen iterate — always finite, never a stale or
                // poisoned estimate.
                assert!(residual.is_finite());
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn wall_clock_budget_returns_not_converged_with_finite_residual() {
        let g = random_irreducible(60, 17);
        let opts = SolveOptions::default()
            .with_tolerance(1e-300)
            .with_check_every(1)
            .with_wall_time(Duration::ZERO);
        match solve_gauss_seidel(&g, None, &opts) {
            Err(CtmcError::NotConverged {
                iterations,
                residual,
                ..
            }) => {
                assert!(iterations < opts.max_sweeps, "budget never fired");
                assert!(residual.is_finite());
            }
            other => panic!("expected NotConverged, got {other:?}"),
        }
        // Same contract for power iteration.
        let pw = crate::power::solve_power(&g, None, &opts);
        match pw {
            Err(CtmcError::NotConverged { residual, .. }) => assert!(residual.is_finite()),
            other => panic!("expected NotConverged, got {other:?}"),
        }
    }

    #[test]
    fn health_guard_aborts_on_growth_and_nonfinite_residuals() {
        let opts = SolveOptions::default().with_divergence_factor(10.0);
        let mut g = HealthGuard::new(&opts);
        assert!(g.observe(1, 1e-3).is_ok());
        // Wobble within the factor is tolerated.
        assert!(g.observe(2, 5e-3).is_ok());
        match g.observe(3, 1.0) {
            Err(CtmcError::Diverged {
                iterations,
                residual,
            }) => {
                assert_eq!(iterations, 3);
                assert_eq!(residual, 1.0);
            }
            other => panic!("expected Diverged, got {other:?}"),
        }
        let mut g2 = HealthGuard::new(&opts);
        assert!(matches!(
            g2.observe(1, f64::NAN),
            Err(CtmcError::Diverged { .. })
        ));
        // An infinite factor disables the growth check but never the
        // non-finite check.
        let mut g3 =
            HealthGuard::new(&SolveOptions::default().with_divergence_factor(f64::INFINITY));
        assert!(g3.observe(1, 1e-9).is_ok());
        assert!(g3.observe(2, 1e9).is_ok());
        assert!(matches!(
            g3.observe(3, f64::INFINITY),
            Err(CtmcError::Diverged { .. })
        ));
    }

    /// Feeds `residuals` to a controller at a cadence of 4 sweeps and
    /// returns the factor in effect after each check.
    fn omegas(opts: &SolveOptions, residuals: &[f64]) -> Vec<f64> {
        let mut relax = Relaxation::new(opts);
        residuals
            .iter()
            .enumerate()
            .map(|(k, &r)| {
                relax.observe(4 * (k + 1), r);
                relax.omega()
            })
            .collect()
    }

    /// Number of times the factor changes along `omegas`, from `start`.
    fn changes(start: f64, omegas: &[f64]) -> usize {
        let mut prev = start;
        omegas
            .iter()
            .filter(|&&w| {
                let changed = w.to_bits() != prev.to_bits();
                prev = w;
                changed
            })
            .count()
    }

    #[test]
    fn relaxation_switches_once_on_settled_ratios() {
        let opts = SolveOptions::default();
        // Ratio 0.5 per check from the second check on: the switch
        // comes at the third check, to Young's factor for ρ = 0.5^(1/4).
        let geometric: Vec<f64> = (0..10).map(|k| 0.5f64.powi(k)).collect();
        let w = omegas(&opts, &geometric);
        assert_eq!(w[..2], [1.0, 1.0]);
        let rho = 0.5f64.sqrt().sqrt();
        let young = 2.0 / (1.0 + (1.0 - rho).sqrt());
        assert_eq!(w[2].to_bits(), young.to_bits());
        assert!(w[2] > 1.0 && w[2] < 1.9);
        assert!(w[2..].iter().all(|x| x.to_bits() == young.to_bits()));
        assert_eq!(changes(1.0, &w), 1);
    }

    #[test]
    fn relaxation_waits_while_ratios_are_unstable_or_not_contracting() {
        let opts = SolveOptions::default();
        // Ratios alternate 0.5 / 0.8: never within 10% of each other.
        let mut r = 1.0;
        let unstable: Vec<f64> = (0..12)
            .map(|k| {
                r *= if k % 2 == 0 { 0.5 } else { 0.8 };
                r
            })
            .collect();
        assert!(omegas(&opts, &unstable).iter().all(|&w| w == 1.0));
        // Settled ratios of 1 (stagnation) and above (growth).
        for q in [1.0f64, 1.05] {
            let flat: Vec<f64> = (0..12).map(|k| q.powi(k)).collect();
            assert!(omegas(&opts, &flat).iter().all(|&w| w == 1.0), "ratio {q}");
        }
    }

    #[test]
    fn relaxation_reverts_once_when_the_residual_rises() {
        let opts = SolveOptions::default().with_sor(1.1);
        // Switch at the third check (residual 0.25), then a residual
        // above it: back to the starting factor for good, even though
        // the ratios settle again afterwards.
        let mut seq = vec![1.0, 0.5, 0.25, 0.125, 0.3];
        seq.extend((0..8).map(|k| 0.3 * 0.5f64.powi(k + 1)));
        let w = omegas(&opts, &seq);
        assert!(w[2] > 1.1);
        assert_eq!(w[3], w[2]);
        assert!(w[4..].iter().all(|&x| x == 1.1), "{w:?}");
        assert_eq!(changes(1.1, &w), 2);
    }

    #[test]
    fn relaxation_stays_within_bounds() {
        let opts = SolveOptions::default();
        // Very slow contraction drives Young's factor towards 2; very
        // fast contraction towards 1. Either way, [1, 1.9].
        for q in [0.999_999f64, 0.99, 0.9, 0.5, 1e-3, 1e-12, 0.0] {
            let seq: Vec<f64> = (0..8).map(|k| q.powi(k)).collect();
            for (k, w) in omegas(&opts, &seq).into_iter().enumerate() {
                assert!((1.0..=1.9).contains(&w), "ratio {q} check {k}: {w}");
            }
        }
        let slow: Vec<f64> = (0..8).map(|k| 0.999_999f64.powi(k)).collect();
        assert_eq!(omegas(&opts, &slow)[7], 1.9);
        // A start below 1 is where a revert returns to, not a bound
        // the controller picks itself.
        let damped = SolveOptions::default().with_sor(0.8);
        let w = omegas(&damped, &[1.0, 0.5, 0.25, 0.125]);
        assert!(w[2..].iter().all(|&x| (1.0..=1.9).contains(&x)));
    }

    #[test]
    fn per_sweep_factor_inverts_the_interval_power() {
        assert_eq!(per_sweep_factor(0.25, 1), 0.25);
        assert_eq!(per_sweep_factor(0.25, 2), 0.5);
        assert_eq!(per_sweep_factor(0.0625, 4), 0.5);
        assert!((per_sweep_factor(0.125, 3) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn nonfinite_rates_abort_as_diverged() {
        // Two rates of 1e308 out of one state overflow its exit rate;
        // the iterate is poisoned in one sweep and the solvers must
        // abort with `Diverged`, not panic in normalization or spin to
        // max_sweeps.
        let g = crate::sparse::overflowing_exit_chain();
        let err = solve_gauss_seidel(&g, None, &SolveOptions::default()).unwrap_err();
        assert!(matches!(err, CtmcError::Diverged { .. }), "got {err:?}");
        let err = crate::power::solve_power(&g, None, &SolveOptions::default()).unwrap_err();
        assert!(matches!(err, CtmcError::Diverged { .. }), "got {err:?}");
    }

    #[test]
    #[should_panic(expected = "divergence factor")]
    fn divergence_factor_at_most_one_panics() {
        let _ = SolveOptions::default().with_divergence_factor(1.0);
    }

    #[test]
    fn warm_start_dimension_mismatch() {
        let g = random_irreducible(5, 13);
        let err = solve_gauss_seidel(&g, Some(&[1.0; 4]), &SolveOptions::default()).unwrap_err();
        assert_eq!(
            err,
            CtmcError::DimensionMismatch {
                expected: 5,
                actual: 4
            }
        );
    }

    #[test]
    #[should_panic(expected = "SOR omega")]
    fn invalid_sor_panics() {
        let _ = SolveOptions::default().with_sor(2.5);
    }

    #[test]
    #[should_panic(expected = "check cadence")]
    fn zero_check_cadence_panics() {
        let _ = SolveOptions::default().with_check_every(0);
    }

    #[test]
    fn zero_check_every_is_guarded() {
        // A hand-built options value with check_every = 0 must still
        // converge (historically the cadence test `sweeps % 0` never
        // fired, disabling checks until max_sweeps).
        let opts = SolveOptions {
            check_every: 0,
            ..SolveOptions::default()
        };
        assert_eq!(opts.check_cadence(), 1);
        let g = random_irreducible(20, 9);
        let sol = solve_gauss_seidel(&g, None, &opts).unwrap();
        assert!(sol.residual <= opts.tolerance);
        assert!(sol.sweeps < opts.max_sweeps);
        let power = crate::power::solve_power(&g, None, &opts).unwrap();
        assert!(power.residual <= opts.tolerance);
    }

    #[test]
    fn converges_at_exact_sweep_not_cadence_multiple() {
        // The fused residual observes convergence every sweep; a restart
        // from the solution must finish in a single sweep even though
        // check_every is 16.
        let g = random_irreducible(50, 21);
        let first = solve_gauss_seidel(&g, None, &SolveOptions::default()).unwrap();
        let again =
            solve_gauss_seidel(&g, Some(first.pi.as_slice()), &SolveOptions::default()).unwrap();
        assert_eq!(again.sweeps, 1);
    }
}
