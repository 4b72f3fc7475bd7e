//! Block solver for Markov-modulated birth–death (MBD) processes.
//!
//! Many queueing CTMCs — the GPRS model among them — have states
//! `(phase, level)` where *level* transitions move `level ± 1` without
//! changing the phase, and *phase* transitions never change the level.
//! Point Gauss–Seidel is painfully slow on such chains when the level
//! dynamics are orders of magnitude faster than the phase dynamics
//! (packet service at tens per second vs. session changes at one per
//! hundreds of seconds): thousands of sweeps are spent re-equilibrating
//! the fast direction.
//!
//! The block method here sweeps over *phases*, solving each phase's
//! entire level column **exactly** with the Thomas algorithm (the
//! per-phase balance equations form a strictly diagonally dominant
//! tridiagonal system, because the phase-exit rate is constant across
//! levels). Convergence is then governed by the well-behaved phase
//! chain alone — on the GPRS model this cuts iteration counts by two
//! orders of magnitude versus point Gauss–Seidel.

// Indexed loops mirror the textbook linear-algebra formulations these
// kernels implement; iterator rewrites obscure the stencil structure.
#![allow(clippy::needless_range_loop)]

use crate::error::CtmcError;
use crate::solver::{HealthGuard, Relaxation, SolveOptions, SolveStats, SolveWorkspace};

/// Structural access to a Markov-modulated birth–death chain.
///
/// States are pairs `(phase, level)` with `phase < num_phases()` and
/// `level < num_levels()`. The implied flat index is
/// `phase * num_levels() + level` — the solver returns distributions in
/// this layout.
pub trait ModulatedBirthDeath {
    /// Number of phases.
    fn num_phases(&self) -> usize;

    /// Number of levels (e.g. buffer capacity + 1).
    fn num_levels(&self) -> usize;

    /// Rate of `level → level + 1` in `phase` (0 for the top level).
    fn birth_rate(&self, phase: usize, level: usize) -> f64;

    /// Rate of `level → level − 1` in `phase` (0 for level 0).
    fn death_rate(&self, phase: usize, level: usize) -> f64;

    /// Visits each outgoing phase transition `(target_phase, rate)` of
    /// `phase`. Rates must not depend on the level.
    fn for_each_phase_outgoing(&self, phase: usize, visit: &mut dyn FnMut(usize, f64));

    /// Visits each incoming phase transition `(source_phase, rate)` into
    /// `phase`.
    fn for_each_phase_incoming(&self, phase: usize, visit: &mut dyn FnMut(usize, f64));

    /// Total phase-exit rate of `phase` (sum of outgoing phase rates).
    fn phase_exit_rate(&self, phase: usize) -> f64 {
        let mut total = 0.0;
        self.for_each_phase_outgoing(phase, &mut |_, rate| total += rate);
        total
    }
}

/// Solves an MBD chain for its stationary distribution by block
/// Gauss–Seidel over phases with exact tridiagonal level solves,
/// *projecting* onto a known exact phase marginal after every sweep:
/// each phase column is rescaled so its total mass equals
/// `phase_marginal[p]`.
///
/// The projection is an aggregation/disaggregation acceleration with an
/// **exact** aggregate solution. It applies when the phase process is
/// itself Markov (phase rates never depend on the level — already an
/// MBD requirement) *and* its stationary law is known in closed form,
/// as in the GPRS model where the `(n, m, r)` marginal is a product of
/// Erlang and binomial distributions. The slow phase-mixing error modes
/// that dominate plain block Gauss–Seidel are annihilated each sweep,
/// leaving only the fast within-column dynamics to converge.
///
/// The start is whatever the caller staged in `ws.pi()` (via
/// [`SolveWorkspace::set_pi`] or [`SolveWorkspace::pi_mut`]), normalized
/// in place. The solution, indexed `phase * num_levels() + level`, is
/// left in `ws.pi()`; repeated same-shape solves allocate nothing.
///
/// Every rate is read through the trait. Production solves run the
/// bit-identical blocked twin,
/// [`crate::blocked::solve_mbd_projected_blocked_ws`]; this kernel is
/// the test oracle and the scalar arm of `gprs_core`'s template solves.
///
/// # Errors
///
/// * [`CtmcError::DimensionMismatch`] — `phase_marginal` or the staged
///   iterate has the wrong length.
/// * [`CtmcError::InvalidGenerator`] — `phase_marginal` is not a
///   probability vector, the staged iterate is not non-negative with
///   positive mass, or a phase has zero exit rate in a multi-phase
///   chain (degenerate chain).
/// * [`CtmcError::EmptyChain`] — no phases or no levels.
/// * [`CtmcError::NotConverged`] — iteration cap exhausted.
pub fn solve_mbd_projected_inplace_ws<G: ModulatedBirthDeath + ?Sized>(
    gen: &G,
    phase_marginal: &[f64],
    opts: &SolveOptions,
    ws: &mut SolveWorkspace,
) -> Result<SolveStats, CtmcError> {
    validate_phase_marginal(gen.num_phases(), phase_marginal)?;
    let p_count = gen.num_phases();
    let l_count = gen.num_levels();
    let n = p_count * l_count;
    if n == 0 {
        return Err(CtmcError::EmptyChain);
    }

    ws.init_pi_in_place(n)?;
    let SolveWorkspace {
        pi,
        exit: phase_exit,
        rhs,
        diag,
        cprime,
        xcol,
        inflow,
    } = ws;

    // Pre-compute per-phase constants.
    phase_exit.resize(p_count, 0.0);
    for (p, e) in phase_exit.iter_mut().enumerate() {
        *e = gen.phase_exit_rate(p);
    }

    // Thomas algorithm scratch space (every element is written before
    // it is read, so stale values from a previous solve are harmless).
    rhs.resize(l_count, 0.0);
    diag.resize(l_count, 0.0);
    cprime.resize(l_count, 0.0);
    xcol.resize(l_count, 0.0);
    // Plain slices from here on, as in the blocked twin: through the
    // `&mut Vec`s every store forces a reload of each buffer's pointer
    // and length.
    let pi: &mut [f64] = pi;
    let phase_exit: &[f64] = phase_exit;
    let rhs: &mut [f64] = rhs;
    let diag: &mut [f64] = diag;
    let cprime: &mut [f64] = cprime;
    let xcol: &mut [f64] = xcol;
    let mut relax = Relaxation::new(opts);

    let mut guard = HealthGuard::new(opts);
    let mut sweeps = 0usize;
    let mut residual = f64::INFINITY;
    let mut residual_evals = 0usize;
    let mut converged: Option<SolveStats> = None;

    'sweep: while sweeps < opts.max_sweeps {
        let omega = relax.omega();
        // Alternate sweep direction (symmetric Gauss–Seidel): upstream
        // information that a forward sweep moves by only one phase per
        // iteration is carried across the whole chain by the backward
        // pass, which matters for the random-walk-like phase chains of
        // queueing models.
        let forward = sweeps.is_multiple_of(2);
        for step in 0..p_count {
            let p = if forward { step } else { p_count - 1 - step };
            let d_p = phase_exit[p];
            // Gather inflow from other phases (level-parallel).
            for x in rhs.iter_mut() {
                *x = 0.0;
            }
            gen.for_each_phase_incoming(p, &mut |q, rate| {
                let base = q * l_count;
                for (l, x) in rhs.iter_mut().enumerate() {
                    *x += rate * pi[base + l];
                }
            });

            if d_p <= 0.0 {
                // No phase coupling out of p: the whole chain must
                // consist of this single phase for a solution to exist.
                if p_count > 1 {
                    return Err(CtmcError::InvalidGenerator {
                        reason: format!("phase {p} has zero exit rate in a multi-phase chain"),
                    });
                }
                // Single birth-death chain: solve directly below with
                // the unnormalized product form.
                solve_single_birth_death(gen, pi);
                converged = Some(SolveStats {
                    sweeps: 1,
                    residual: 0.0,
                    residual_evals,
                    omega,
                });
                break 'sweep;
            }

            // Solve the tridiagonal system
            //   (d_p + α(l) + σ(l))·x(l) − α(l−1)·x(l−1) − σ(l+1)·x(l+1) = rhs(l)
            // by the Thomas algorithm. Strict diagonal dominance (d_p >
            // 0) guarantees stability and positivity.
            for l in 0..l_count {
                diag[l] = d_p + gen.birth_rate(p, l) + gen.death_rate(p, l);
            }
            // Forward elimination.
            let mut beta = diag[0];
            cprime[0] = -gen.death_rate(p, 1.min(l_count - 1)) / beta;
            rhs[0] /= beta;
            for l in 1..l_count {
                let a_l = -gen.birth_rate(p, l - 1); // sub-diagonal
                beta = diag[l] - a_l * cprime[l - 1];
                let c_l = if l + 1 < l_count {
                    -gen.death_rate(p, l + 1)
                } else {
                    0.0
                };
                cprime[l] = c_l / beta;
                rhs[l] = (rhs[l] - a_l * rhs[l - 1]) / beta;
            }
            // Back substitution, then (block-)SOR blend into pi.
            let base = p * l_count;
            xcol[l_count - 1] = rhs[l_count - 1].max(0.0);
            for l in (0..l_count - 1).rev() {
                xcol[l] = (rhs[l] - cprime[l] * xcol[l + 1]).max(0.0);
            }
            if omega == 1.0 {
                pi[base..base + l_count].copy_from_slice(xcol);
            } else {
                for l in 0..l_count {
                    let v = (1.0 - omega) * pi[base + l] + omega * xcol[l];
                    pi[base + l] = v.max(0.0);
                }
            }
        }

        project_onto_marginal(pi, phase_marginal, l_count);
        sweeps += 1;

        if sweeps.is_multiple_of(opts.check_every.clamp(1, 4)) || sweeps == opts.max_sweeps {
            residual = mbd_residual(gen, pi, phase_exit, inflow);
            residual_evals += 1;
            guard.observe(sweeps, residual)?;
            if residual <= opts.tolerance {
                converged = Some(SolveStats {
                    sweeps,
                    residual,
                    residual_evals,
                    omega,
                });
                break 'sweep;
            }
            relax.observe(sweeps, residual);
            if guard.out_of_time() {
                break 'sweep;
            }
        }
    }

    if let Some(stats) = converged {
        ws.normalize_pi();
        return Ok(stats);
    }
    // `mbd_residual` is already an exact evaluation, but the loop may
    // have been skipped entirely (`max_sweeps == 0`) — re-evaluate so
    // `NotConverged` always carries the true residual of the iterate.
    let exact = if residual.is_finite() {
        residual
    } else {
        mbd_residual(gen, pi, phase_exit, inflow)
    };
    Err(HealthGuard::budget_error(sweeps, exact, opts.tolerance))
}

/// Shared marginal validation of the projected solvers (scalar here,
/// blocked in [`crate::blocked`]) — one definition so both entry points
/// reject exactly the same inputs.
pub(crate) fn validate_phase_marginal(
    expected_phases: usize,
    phase_marginal: &[f64],
) -> Result<(), CtmcError> {
    if phase_marginal.len() != expected_phases {
        return Err(CtmcError::DimensionMismatch {
            expected: expected_phases,
            actual: phase_marginal.len(),
        });
    }
    let total: f64 = phase_marginal.iter().sum();
    if phase_marginal.iter().any(|&x| !x.is_finite() || x < 0.0) || (total - 1.0).abs() > 1e-6 {
        return Err(CtmcError::InvalidGenerator {
            reason: "phase marginal must be a probability vector".into(),
        });
    }
    Ok(())
}

/// Aggregation/disaggregation projection, applied after every sweep of
/// both kernels: forces each phase column of `pi` (`levels` entries
/// each) to carry exactly its known stationary mass. This also
/// normalizes (Σ marginal = 1).
pub(crate) fn project_onto_marginal(pi: &mut [f64], phase_marginal: &[f64], levels: usize) {
    for (col, &target) in pi.chunks_exact_mut(levels).zip(phase_marginal) {
        project_column(col, target);
    }
}

/// Rescales one phase column to carry exactly `target` mass: the
/// projection of [`project_onto_marginal`] for a single column, which
/// the blocked kernel applies column by column inside its sweep.
#[inline]
pub(crate) fn project_column(col: &mut [f64], target: f64) {
    let mass: f64 = col.iter().sum();
    if mass > 0.0 {
        let scale = target / mass;
        for x in col {
            *x *= scale;
        }
    } else {
        // Degenerate column: respread its mass uniformly.
        col.fill(target / col.len() as f64);
    }
}

/// Exact solution of a single-phase birth-death chain (product form with
/// rescaling), used by both kernels for the degenerate one-phase case.
pub(crate) fn solve_single_birth_death<G: ModulatedBirthDeath + ?Sized>(gen: &G, pi: &mut [f64]) {
    let l_count = gen.num_levels();
    pi[0] = 1.0;
    let mut total = 1.0;
    for l in 1..l_count {
        let b = gen.birth_rate(0, l - 1);
        let d = gen.death_rate(0, l);
        pi[l] = if d > 0.0 { pi[l - 1] * b / d } else { 0.0 };
        total += pi[l];
    }
    for x in pi.iter_mut() {
        *x /= total;
    }
}

/// Relative L1 balance residual of the full MBD chain. `inflow` is a
/// caller-owned per-level scratch buffer (resized here), so the hot
/// check path of repeated solves allocates nothing.
fn mbd_residual<G: ModulatedBirthDeath + ?Sized>(
    gen: &G,
    pi: &[f64],
    phase_exit: &[f64],
    inflow: &mut Vec<f64>,
) -> f64 {
    let p_count = gen.num_phases();
    let l_count = gen.num_levels();
    inflow.resize(l_count, 0.0);
    let mut num = 0.0f64;
    let mut den = 0.0f64;
    for p in 0..p_count {
        let base = p * l_count;
        // Inflow from other phases, per level.
        inflow.fill(0.0);
        gen.for_each_phase_incoming(p, &mut |q, rate| {
            let qbase = q * l_count;
            for (l, x) in inflow.iter_mut().enumerate() {
                *x += rate * pi[qbase + l];
            }
        });
        for l in 0..l_count {
            let birth = gen.birth_rate(p, l);
            let death = gen.death_rate(p, l);
            let exit = phase_exit[p] + birth + death;
            let mut inf = inflow[l];
            if l > 0 {
                inf += pi[base + l - 1] * gen.birth_rate(p, l - 1);
            }
            if l + 1 < l_count {
                inf += pi[base + l + 1] * gen.death_rate(p, l + 1);
            }
            num += (inf - pi[base + l] * exit).abs();
            den += pi[base + l] * exit;
        }
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Exact relative L1 balance residual of an arbitrary iterate `pi` on
/// the MBD chain, straight from the generator: the scalar oracle of
/// the blocked evaluator. Allocates small per-phase/per-level scratch
/// on each call; the blocked variant
/// ([`crate::blocked::BlockedMbd::residual`]) reuses captured tables
/// and computes bit-identical values.
pub fn mbd_residual_of<G: ModulatedBirthDeath + ?Sized>(gen: &G, pi: &[f64]) -> f64 {
    let mut phase_exit = vec![0.0; gen.num_phases()];
    for (p, e) in phase_exit.iter_mut().enumerate() {
        *e = gen.phase_exit_rate(p);
    }
    let mut inflow = Vec::new();
    mbd_residual(gen, pi, &phase_exit, &mut inflow)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::gth::solve_gth;
    use crate::sparse::TripletBuilder;

    /// A small random MBD chain with explicit tables, also expressible
    /// as a generic sparse generator for cross-validation. Shared with
    /// the blocked-kernel tests (`crate::blocked`).
    pub(crate) struct TableMbd {
        phases: usize,
        levels: usize,
        birth: Vec<f64>,                     // [phase][level]
        death: Vec<f64>,                     // [phase][level]
        phase_rates: Vec<Vec<(usize, f64)>>, // outgoing per phase
    }

    /// Uniform draws in [0, 1) from a xorshift seeded with `seed`.
    pub(crate) fn uniform(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed | 1;
        move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    impl TableMbd {
        pub(crate) fn random(phases: usize, levels: usize, seed: u64) -> Self {
            let mut next = uniform(seed);
            let mut birth = vec![0.0; phases * levels];
            let mut death = vec![0.0; phases * levels];
            for p in 0..phases {
                for l in 0..levels {
                    if l + 1 < levels {
                        birth[p * levels + l] = 1.0 + 10.0 * next();
                    }
                    if l > 0 {
                        death[p * levels + l] = 1.0 + 10.0 * next();
                    }
                }
            }
            // Ring + random extra phase transitions (slow time scale).
            let mut phase_rates = vec![Vec::new(); phases];
            for p in 0..phases {
                phase_rates[p].push(((p + 1) % phases, 0.01 + 0.05 * next()));
                if phases > 2 && next() < 0.5 {
                    let q = (p + 2) % phases;
                    phase_rates[p].push((q, 0.01 * next()));
                }
            }
            TableMbd {
                phases,
                levels,
                birth,
                death,
                phase_rates,
            }
        }

        /// The same chain with every phase-transition rate scaled by
        /// `factor` — identical pattern and birth/death tables, moved
        /// phase-coupling rates (the partial-recapture contract).
        pub(crate) fn with_scaled_phase_rates(&self, factor: f64) -> Self {
            let mut phase_rates = self.phase_rates.clone();
            for edges in &mut phase_rates {
                for (_, rate) in edges.iter_mut() {
                    *rate *= factor;
                }
            }
            self.with_phase_rates(phase_rates)
        }

        /// The same birth/death tables with the outgoing phase
        /// transitions `phase_rates[p]` (`(target, rate)` pairs) of
        /// each phase `p` in place of the random ones.
        pub(crate) fn with_phase_rates(&self, phase_rates: Vec<Vec<(usize, f64)>>) -> Self {
            assert_eq!(phase_rates.len(), self.phases);
            TableMbd {
                phases: self.phases,
                levels: self.levels,
                birth: self.birth.clone(),
                death: self.death.clone(),
                phase_rates,
            }
        }

        /// The same chain with phase `p`'s birth row copied from phase
        /// `birth_src[p]` and its death row from phase `death_src[p]`:
        /// repeated rate rows, as the GPRS chain has them.
        pub(crate) fn with_copied_rows(&self, birth_src: &[usize], death_src: &[usize]) -> Self {
            let levels = self.levels;
            let copy = |table: &[f64], src: &[usize]| -> Vec<f64> {
                src.iter()
                    .flat_map(|&q| &table[q * levels..(q + 1) * levels])
                    .copied()
                    .collect()
            };
            TableMbd {
                phases: self.phases,
                levels,
                birth: copy(&self.birth, birth_src),
                death: copy(&self.death, death_src),
                phase_rates: self.phase_rates.clone(),
            }
        }

        pub(crate) fn set_death_rate(&mut self, p: usize, l: usize, rate: f64) {
            self.death[p * self.levels + l] = rate;
        }

        pub(crate) fn to_sparse(&self) -> crate::sparse::SparseGenerator {
            let n = self.phases * self.levels;
            let mut b = TripletBuilder::new(n);
            for p in 0..self.phases {
                for l in 0..self.levels {
                    let idx = p * self.levels + l;
                    let br = self.birth[idx];
                    if br > 0.0 {
                        b.push(idx, idx + 1, br);
                    }
                    let dr = self.death[idx];
                    if dr > 0.0 {
                        b.push(idx, idx - 1, dr);
                    }
                    for &(q, rate) in &self.phase_rates[p] {
                        b.push(idx, q * self.levels + l, rate);
                    }
                }
            }
            b.build().unwrap()
        }
    }

    impl ModulatedBirthDeath for TableMbd {
        fn num_phases(&self) -> usize {
            self.phases
        }
        fn num_levels(&self) -> usize {
            self.levels
        }
        fn birth_rate(&self, p: usize, l: usize) -> f64 {
            self.birth[p * self.levels + l]
        }
        fn death_rate(&self, p: usize, l: usize) -> f64 {
            self.death[p * self.levels + l]
        }
        fn for_each_phase_outgoing(&self, p: usize, visit: &mut dyn FnMut(usize, f64)) {
            for &(q, rate) in &self.phase_rates[p] {
                visit(q, rate);
            }
        }
        fn for_each_phase_incoming(&self, p: usize, visit: &mut dyn FnMut(usize, f64)) {
            for q in 0..self.phases {
                for &(t, rate) in &self.phase_rates[q] {
                    if t == p {
                        visit(q, rate);
                    }
                }
            }
        }
    }

    /// Exact phase marginal of a TableMbd: the phase process is
    /// autonomous, so solve its own small chain directly.
    pub(crate) fn exact_phase_marginal(mbd: &TableMbd) -> Vec<f64> {
        let mut b = TripletBuilder::new(mbd.phases);
        for p in 0..mbd.phases {
            for &(q, rate) in &mbd.phase_rates[p] {
                b.push(p, q, rate);
            }
        }
        solve_gth(&b.build().unwrap()).unwrap().into_inner()
    }

    /// Stages `start` (`None`: uniform) in a fresh workspace and solves
    /// through the projected in-place entry. Returns the stats and the
    /// workspace holding the solution.
    pub(crate) fn solve_staged<G: ModulatedBirthDeath + ?Sized>(
        gen: &G,
        phase_marginal: &[f64],
        start: Option<&[f64]>,
        opts: &SolveOptions,
    ) -> Result<(SolveStats, SolveWorkspace), CtmcError> {
        let mut ws = SolveWorkspace::new();
        ws.stage_pi(gen.num_phases() * gen.num_levels(), start);
        let stats = solve_mbd_projected_inplace_ws(gen, phase_marginal, opts, &mut ws)?;
        Ok((stats, ws))
    }

    /// Checks the projected solve against GTH on random `phases` x `levels`
    /// chains, one per seed.
    fn assert_matches_gth(phases: usize, levels: usize, seeds: &[u64]) {
        for &seed in seeds {
            let mbd = TableMbd::random(phases, levels, seed);
            let marginal = exact_phase_marginal(&mbd);
            let exact = solve_gth(&mbd.to_sparse()).unwrap();
            let (stats, ws) =
                solve_staged(&mbd, &marginal, None, &SolveOptions::default()).unwrap();
            assert!(
                (1.0..=1.9).contains(&stats.omega),
                "seed {seed}: {}",
                stats.omega
            );
            for (i, x) in ws.pi().iter().enumerate() {
                assert!(
                    (exact[i] - x).abs() < 1e-8,
                    "seed {seed} state {i}: {} vs {x}",
                    exact[i]
                );
            }
        }
    }

    #[test]
    fn matches_gth_on_random_mbd_chains() {
        assert_matches_gth(5, 8, &[1, 7, 42, 1001]);
    }

    #[test]
    fn projected_solver_matches_gth() {
        assert_matches_gth(6, 10, &[2, 77, 4242]);
    }

    #[test]
    fn stiff_mbd_converges_quickly() {
        // Fast levels (rates ~10) with very slow phases (rates ~0.01):
        // exactly the regime that cripples point Gauss-Seidel.
        let mbd = TableMbd::random(8, 30, 99);
        let marginal = exact_phase_marginal(&mbd);
        let (stats, ws) = solve_staged(&mbd, &marginal, None, &SolveOptions::default()).unwrap();
        assert!(
            stats.sweeps < 500,
            "block method should converge fast, took {}",
            stats.sweeps
        );
        let sparse = mbd.to_sparse();
        let exact = solve_gth(&sparse).unwrap();
        for i in 0..sparse.num_states() {
            assert!((exact[i] - ws.pi()[i]).abs() < 1e-8);
        }
    }

    #[test]
    fn warm_start_converges_immediately() {
        let mbd = TableMbd::random(4, 10, 3);
        let marginal = exact_phase_marginal(&mbd);
        let opts = SolveOptions::default();
        let (_, first) = solve_staged(&mbd, &marginal, None, &opts).unwrap();
        let (second, _) = solve_staged(&mbd, &marginal, Some(first.pi()), &opts).unwrap();
        assert!(second.sweeps <= 4);
    }

    #[test]
    fn single_phase_is_plain_birth_death() {
        struct OnePhase;
        impl ModulatedBirthDeath for OnePhase {
            fn num_phases(&self) -> usize {
                1
            }
            fn num_levels(&self) -> usize {
                4
            }
            fn birth_rate(&self, _p: usize, l: usize) -> f64 {
                if l < 3 {
                    2.0
                } else {
                    0.0
                }
            }
            fn death_rate(&self, _p: usize, l: usize) -> f64 {
                if l > 0 {
                    4.0
                } else {
                    0.0
                }
            }
            fn for_each_phase_outgoing(&self, _p: usize, _v: &mut dyn FnMut(usize, f64)) {}
            fn for_each_phase_incoming(&self, _p: usize, _v: &mut dyn FnMut(usize, f64)) {}
        }
        let (_, ws) = solve_staged(&OnePhase, &[1.0], None, &SolveOptions::default()).unwrap();
        // Geometric with ratio 1/2: [8,4,2,1]/15.
        let expect = [8.0 / 15.0, 4.0 / 15.0, 2.0 / 15.0, 1.0 / 15.0];
        for (i, &e) in expect.iter().enumerate() {
            assert!((ws.pi()[i] - e).abs() < 1e-12, "level {i}");
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let mbd = TableMbd::random(3, 5, 1);
        let marginal = exact_phase_marginal(&mbd);
        let err =
            solve_staged(&mbd, &marginal, Some(&[1.0; 3]), &SolveOptions::default()).unwrap_err();
        assert!(matches!(err, CtmcError::DimensionMismatch { .. }));
    }

    #[test]
    fn projected_rejects_bad_marginal() {
        let mbd = TableMbd::random(3, 5, 1);
        let opts = SolveOptions::default();
        // Wrong length.
        assert!(matches!(
            solve_staged(&mbd, &[0.5, 0.5], None, &opts),
            Err(CtmcError::DimensionMismatch { .. })
        ));
        // Not a probability vector.
        assert!(matches!(
            solve_staged(&mbd, &[0.5, 0.5, 0.5], None, &opts),
            Err(CtmcError::InvalidGenerator { .. })
        ));
    }
}
