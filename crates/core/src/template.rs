//! Reusable generator templates: the symbolic/numeric split of the
//! repeated-solve pipeline.
//!
//! Every figure of the paper is a parameter sweep — arrival rate, load
//! scale, traffic mix — over a CTMC whose *sparsity structure never
//! changes*: the transition pattern of Table 1 is fixed by the model
//! shape (`N`, `N_GSM`, `K`, `M`) plus the edge-presence signature
//! (which rates are nonzero, where TCP throttling bites), while the
//! parameter being swept moves only the numeric rates.
//!
//! A [`GeneratorTemplate`] captures the symbolic work once per shape
//! and relowers new rates in place:
//!
//! * the [`StateSpace`](crate::StateSpace) and, when a caller needs an
//!   assembled matrix, the CSR pattern — revalued per point via
//!   [`SparseGenerator::refill_values`] instead of re-enumerated,
//!   re-sorted and re-allocated;
//! * a [`SolveWorkspace`] so the block tridiagonal solver
//!   ([`gprs_ctmc::solve_mbd_projected_blocked_inplace_ws`] over
//!   captured [`BlockedMbd`] tables) and the Gauss–Seidel fallback
//!   allocate nothing across repeated solves;
//! * reusable phase-marginal / start-vector buffers plus a two-deep
//!   solution history that turns consecutive solves into warm starts:
//!   the previous solution (multiplicatively extrapolated along the
//!   chain once two predecessors exist) is projected onto the *new*
//!   point's exact phase marginal before seeding the solver.
//!
//! The template's arithmetic is bit-identical to the allocating
//! one-shot path: [`GeneratorTemplate::solve`] with
//! [`WarmStart::Cold`] reproduces `GprsModel::solve(opts, None)`
//! exactly (both run the blocked kernel from the same start), and a refilled
//! matrix equals a fresh [`GprsModel::assemble_sparse`] bit for bit —
//! property-tested across random configurations, rates and thread
//! counts.
//!
//! # Example
//!
//! ```
//! use gprs_core::template::{GeneratorTemplate, WarmStart};
//! use gprs_core::{CellConfig, GprsModel};
//! use gprs_ctmc::SolveOptions;
//! use gprs_traffic::TrafficModel;
//!
//! let base = CellConfig::builder()
//!     .traffic_model(TrafficModel::Model3)
//!     .total_channels(4)
//!     .buffer_capacity(6)
//!     .max_gprs_sessions(2)
//!     .call_arrival_rate(0.2)
//!     .build()?;
//! let mut template = GeneratorTemplate::new(&base)?;
//! let mut prev = 0.0;
//! for rate in [0.2, 0.3, 0.4] {
//!     let mut cfg = base.clone();
//!     cfg.call_arrival_rate = rate;
//!     let model = GprsModel::new(cfg)?;
//!     // Chained: cold at the first point, warm-started afterwards.
//!     let point = template.solve(&model, &SolveOptions::quick(), WarmStart::Chained)?;
//!     // Voice blocking grows along the swept arrival rate.
//!     assert!(point.measures.gsm_blocking_probability >= prev);
//!     prev = point.measures.gsm_blocking_probability;
//! }
//! # Ok::<(), gprs_core::ModelError>(())
//! ```

use crate::config::CellConfig;
use crate::error::ModelError;
use crate::generator::{GprsModel, LevelKey};
use crate::health::{SolveHealth, SolveRung};
use crate::measures::Measures;
use gprs_ctmc::blocked::{solve_mbd_projected_blocked_inplace_ws, BlockedMbd};
use gprs_ctmc::gth::{solve_gth, RECOMMENDED_MAX_STATES};
use gprs_ctmc::solver::{solve_gauss_seidel_ws, SolveOptions};
use gprs_ctmc::{balance_residual, SolveWorkspace, SparseGenerator};
use std::collections::HashSet;
use std::sync::{Mutex, PoisonError};

/// The structural fingerprint of a cell configuration: two configs with
/// the same shape produce chains with the same *state space* (the
/// dimensional conditions of Table 1 — `n < N_GSM`, `m < M`,
/// `c(k, n) > 0`, `m − r > 0` — are functions of these four numbers),
/// so they share workspace sizes, marginal layouts and warm-start
/// compatibility. The CSR *pattern* needs the finer [`PatternKey`]:
/// edges also vanish where a rate is exactly zero or TCP throttling
/// zeroes the offered rate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Shape {
    total_channels: usize,
    gsm_channels: usize,
    buffer_capacity: usize,
    max_gprs_sessions: usize,
}

impl Shape {
    fn of(config: &CellConfig) -> Shape {
        Shape {
            total_channels: config.total_channels,
            gsm_channels: config.gsm_channels(),
            buffer_capacity: config.buffer_capacity,
            max_gprs_sessions: config.max_gprs_sessions,
        }
    }
}

/// Everything *beyond* the [`Shape`] that decides which Table 1 edges
/// exist: the TCP throttle level (above `η·K` the offered packet rate
/// becomes `min(full, c(k,n)·μ)`, which is exactly 0 where
/// `c(k, n) = 0`) and the sign of each rate (zero rates drop their
/// edges at assembly). Two same-shape models with equal keys have
/// bit-identical sparsity patterns, so a cached pattern may be
/// refilled; a key change forces a fresh assembly instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PatternKey {
    throttle_bits: u64,
    /// `> 0` flags for (λ_GSM, λ_GPRS, μ_GSM, μ_GPRS, λ_packet,
    /// μ_service, a, b).
    positive: [bool; 8],
}

impl PatternKey {
    fn of(model: &GprsModel) -> PatternKey {
        let r = model.rates();
        PatternKey {
            throttle_bits: r.throttle.to_bits(),
            positive: [
                r.lam_gsm > 0.0,
                r.lam_gprs > 0.0,
                r.mu_gsm > 0.0,
                r.mu_gprs > 0.0,
                r.lam_packet > 0.0,
                r.mu_service > 0.0,
                r.a > 0.0,
                r.b > 0.0,
            ],
        }
    }
}

/// How [`GeneratorTemplate::solve`] seeds the solver.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmStart {
    /// Start from the point's own product-form guess, exactly as
    /// `GprsModel::solve(opts, None)` would — and bit-identical to it.
    Cold,
    /// Start from the template's solution history: the previous
    /// solution projected onto the new point's exact phase marginal,
    /// multiplicatively extrapolated when two predecessors exist.
    /// Falls back to [`Cold`](WarmStart::Cold) when the history is
    /// empty (after construction,
    /// [`reset_chain`](GeneratorTemplate::reset_chain), or a failed
    /// solve).
    Chained,
    /// [`Chained`](WarmStart::Chained) for the last point of a chain:
    /// the same start, so the same solution bit for bit, but the
    /// solution before last is neither kept nor rotated. A chain's last
    /// point thus holds one iterate instead of two, and a two-point
    /// chain never allocates the second. Afterwards the history holds
    /// this solution alone, so a later chained solve extrapolates again
    /// only once it has a second predecessor.
    ChainTail,
}

/// Cumulative solver accounting across a [`GeneratorTemplate`]'s
/// lifetime. Per-solve [`SolveStats`](gprs_ctmc::SolveStats) are
/// overwritten by the next point; these totals sum them, so a sweep's
/// cost shows as [`total_sweeps`](Self::total_sweeps) against
/// [`solves`](Self::solves). Survives
/// [`reset_chain`](GeneratorTemplate::reset_chain) (chunk boundaries
/// must not erase the ledger); cleared only by
/// [`reset_stats`](GeneratorTemplate::reset_stats). No library path
/// reads it: it stays for the repository benchmark's sweep replay,
/// which reports [`residual_checks`](Self::residual_checks).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateStats {
    /// Points served: primary solves and fallback rungs alike.
    pub solves: usize,
    /// Total solver sweeps across all solves (direct solves contribute
    /// zero).
    pub total_sweeps: usize,
    /// Exact residual evaluations paid: in-solve convergence checks,
    /// plus one per direct-GTH rung.
    pub residual_checks: usize,
}

/// Diagnostics and measures of one template solve; the stationary
/// vector itself stays in the template
/// ([`stationary`](GeneratorTemplate::stationary)).
#[derive(Debug, Clone, Copy)]
pub struct PointSolve {
    /// The performance measures (Eqs. 6–11) at this point.
    pub measures: Measures,
    /// Solver sweeps the point took.
    pub sweeps: usize,
    /// Final balance residual.
    pub residual: f64,
    /// How the answer was produced: [`SolveRung::Primary`] with zero
    /// failed rungs from the plain solve entry points, possibly a
    /// fallback rung from
    /// [`solve_resilient`](GeneratorTemplate::solve_resilient).
    pub health: SolveHealth,
}

/// The template's cached pattern, refilled at `model`'s rates while its
/// [`PatternKey`] matches the cached one, and otherwise assembled
/// afresh. A failed refill drops the pattern; the next call rebuilds
/// it. A free function over the one field it touches, so callers can
/// hold the pattern while borrowing the template's other fields.
fn ensure_pattern<'a>(
    cache: &'a mut Option<(PatternKey, SparseGenerator)>,
    model: &GprsModel,
) -> Result<&'a SparseGenerator, ModelError> {
    let key = PatternKey::of(model);
    let sparse = match cache.take() {
        Some((cached, mut sparse)) if cached == key => {
            sparse.refill_values(model)?;
            sparse
        }
        _ => model.assemble_sparse()?,
    };
    Ok(&cache.insert((key, sparse)).1)
}

/// Multiplicative (log-space) extrapolation of one entry from its last
/// value `p` and the one before, `q`: the tails of these distributions
/// move exponentially along a rate sweep (tilted geometric decay into
/// high buffer levels), so continuing each entry's *ratio* tracks the
/// next point far better than an arithmetic secant — measured ~25%
/// fewer sweeps on the figure workloads. The ratio clamp keeps noise on
/// near-zero entries from exploding the guess.
#[inline]
fn extrapolate(p: f64, q: f64) -> f64 {
    if p > 0.0 && q > 0.0 {
        p * (p / q).clamp(0.25, 4.0)
    } else {
        p
    }
}

/// The distinct cell shapes a cluster or campaign has asked templates
/// for. Templates share nothing: each one assembles its own CSR
/// pattern on demand. The registry only counts shapes —
/// [`setups`](TemplateRegistry::setups) is the counter the metro-scale
/// regression tests assert on (a 1000-cell corridor with 5 cell kinds
/// reports 5).
#[derive(Debug, Default)]
pub struct TemplateRegistry {
    shapes: Mutex<HashSet<Shape>>,
}

impl TemplateRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh template for `config` ([`GeneratorTemplate::new`]),
    /// recording its shape.
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] if `config` is invalid.
    pub fn template_for(&self, config: &CellConfig) -> Result<GeneratorTemplate, ModelError> {
        let template = GeneratorTemplate::new(config)?;
        self.shapes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(template.shape);
        Ok(template)
    }

    /// How many distinct cell shapes the registry has seen over its
    /// lifetime.
    pub fn setups(&self) -> usize {
        self.shapes
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }
}

/// One model shape's symbolic artifacts plus the numeric buffers reused
/// across every solve of that shape (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct GeneratorTemplate {
    shape: Shape,
    /// Cached CSR pattern and the [`PatternKey`] it was assembled
    /// under; assembled on first demand, revalued while the key holds,
    /// re-assembled when it changes.
    sparse: Option<(PatternKey, SparseGenerator)>,
    ws: SolveWorkspace,
    marginal: Vec<f64>,
    start: Vec<f64>,
    /// Solution before last (`ws.pi()` holds the last); for secant
    /// extrapolation.
    prev2: Vec<f64>,
    /// How many consecutive solutions the chain holds (0..=2).
    history: usize,
    /// Phase-major blocked rate tables, recaptured per point and fed to
    /// the cache-blocked kernel.
    blocked: BlockedMbd,
    /// The level key of the model `blocked` was last fully captured
    /// from (`None` before the first capture); see
    /// [`capture_blocked`](Self::capture_blocked).
    captured: Option<LevelKey>,
    /// Full captures of `blocked` so far; the partial recapture does
    /// not count.
    #[cfg(test)]
    full_captures: usize,
    /// Cached session placement table (`Binomial(r; m, p_off)` per
    /// `(m, r)` phase pair) keyed by the `p_off` it was built from —
    /// rebuilt only when a solved model's `p_off` differs bitwise, so
    /// repeated fixed-point solves skip its transcendentals.
    placement: Vec<f64>,
    placement_p_off: f64,
    /// Lifetime solver accounting (see [`TemplateStats`]).
    stats: TemplateStats,
}

impl GeneratorTemplate {
    /// Captures the shape of `config`. Any [`GprsModel`] whose
    /// configuration shares that shape (arbitrary rates) can be solved
    /// or assembled through this template.
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] if `config` is invalid.
    pub fn new(config: &CellConfig) -> Result<Self, ModelError> {
        config.validate()?;
        Ok(GeneratorTemplate {
            shape: Shape::of(config),
            sparse: None,
            ws: SolveWorkspace::new(),
            marginal: Vec::new(),
            start: Vec::new(),
            prev2: Vec::new(),
            history: 0,
            blocked: BlockedMbd::new(),
            captured: None,
            #[cfg(test)]
            full_captures: 0,
            placement: Vec::new(),
            placement_p_off: f64::NAN,
            stats: TemplateStats::default(),
        })
    }

    /// Whether `config` has this template's shape.
    pub fn matches(&self, config: &CellConfig) -> bool {
        Shape::of(config) == self.shape
    }

    fn check_shape(&self, config: &CellConfig) -> Result<(), ModelError> {
        if !self.matches(config) {
            return Err(ModelError::Config {
                reason: format!(
                    "configuration shape {:?} does not match template shape {:?}",
                    Shape::of(config),
                    self.shape
                ),
            });
        }
        Ok(())
    }

    /// Builds the model for a new parameter point of this shape —
    /// [`GprsModel::new`] plus the shape check. Model construction is
    /// the cheap numeric relowering (the handover balance on the small
    /// Erlang systems); the expensive symbolic state lives here.
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] if `config` is invalid or has a different
    /// shape; otherwise as [`GprsModel::new`].
    pub fn model_for(&self, config: CellConfig) -> Result<GprsModel, ModelError> {
        self.check_shape(&config)?;
        GprsModel::new(config)
    }

    /// [`model_for`](Self::model_for) with externally specified
    /// handover arrival rates — the cluster fixed point's relowering
    /// (see [`GprsModel::with_handover_arrivals`]).
    ///
    /// # Errors
    ///
    /// As [`GprsModel::with_handover_arrivals`], plus the shape check.
    pub fn model_with_handovers(
        &self,
        config: CellConfig,
        gsm_handover_rate: f64,
        gprs_handover_rate: f64,
    ) -> Result<GprsModel, ModelError> {
        self.check_shape(&config)?;
        GprsModel::with_handover_arrivals(config, gsm_handover_rate, gprs_handover_rate)
    }

    /// The assembled sparse generator for `model`: the first call per
    /// template assembles the CSR pattern from scratch, every later
    /// call with the same edge-presence signature only refills the
    /// rates in place ([`SparseGenerator::refill_values`]) —
    /// bit-identical to a fresh [`GprsModel::assemble_sparse`] of the
    /// same model. A model whose signature differs (a rate became
    /// exactly zero, the TCP threshold moved) transparently
    /// re-assembles instead of refilling, so the result is correct for
    /// *any* same-shape model.
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] on shape mismatch; otherwise propagates
    /// assembly/refill errors.
    pub fn sparse_for(&mut self, model: &GprsModel) -> Result<&SparseGenerator, ModelError> {
        self.check_shape(model.config())?;
        ensure_pattern(&mut self.sparse, model)
    }

    /// Solves `model` with the block tridiagonal solver over the
    /// template's workspace: no `O(states)` allocations after the first
    /// same-shape solve. With [`WarmStart::Cold`] the result is
    /// bit-identical to `model.solve(opts, None)`; with
    /// [`WarmStart::Chained`] the previous solution seeds the solver
    /// (extrapolated and re-projected onto the new point's exact phase
    /// marginal), which roughly halves sweep counts between neighbouring
    /// sweep points. The stationary vector stays in the template
    /// ([`stationary`](Self::stationary)).
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] on shape mismatch, [`ModelError::Ctmc`]
    /// on solver failure (which also clears the warm-start history).
    pub fn solve(
        &mut self,
        model: &GprsModel,
        opts: &SolveOptions,
        warm: WarmStart,
    ) -> Result<PointSolve, ModelError> {
        let health = self.solve_health(model, opts, warm)?;
        Ok(self.point_from(model, health))
    }

    /// `model.phase_marginal_into(&mut self.marginal)` through the
    /// template's placement cache: the binomial placement table only
    /// depends on the shape and `p_off`, so it is rebuilt only when a
    /// solved model's `p_off` moves. The marginal values are
    /// bit-identical to the uncached call.
    fn marginal_into(&mut self, model: &GprsModel) {
        let p_off = model.session_p_off();
        if self.placement.is_empty() || self.placement_p_off.to_bits() != p_off.to_bits() {
            model.session_placement_into(&mut self.placement);
            self.placement_p_off = p_off;
        }
        model.phase_marginal_with_placement_into(&self.placement, &mut self.marginal);
    }

    /// [`solve`](Self::solve) minus the measures extraction: the
    /// stationary vector lands in [`stationary`](Self::stationary) and
    /// only the [`SolveHealth`] report is returned. Callers that do not
    /// need [`Measures`] every point skip its cost and recover the
    /// identical value later via
    /// [`measures_for`](Self::measures_for).
    fn solve_health(
        &mut self,
        model: &GprsModel,
        opts: &SolveOptions,
        warm: WarmStart,
    ) -> Result<SolveHealth, ModelError> {
        self.check_shape(model.config())?;
        let n = model.space().num_states();
        self.marginal_into(model);
        let levels = model.space().k_cap() + 1;

        // The next warm start is built *in place* over the workspace
        // iterate (`ws.pi`): the history rotation is fused into the
        // extrapolation pass (each entry's predecessor is saved into
        // `prev2` just before being overwritten), and the in-place
        // solver entry points normalize the staged iterate without the
        // copy the `Option<&[f64]>` warm-start path pays. Every value
        // matches the former staging-buffer flow bit for bit — the only
        // change is where the bytes live. A chain's tail builds the
        // same start without saving its predecessor.
        let chained = warm != WarmStart::Cold && self.history >= 1;
        let tail = warm == WarmStart::ChainTail;
        if chained {
            if self.history >= 2 {
                debug_assert_eq!(self.prev2.len(), n, "history >= 2 with unsized prev2");
                let pi = self.ws.pi_mut();
                if tail {
                    for (slot, &q) in pi.iter_mut().zip(&self.prev2) {
                        *slot = extrapolate(*slot, q);
                    }
                } else {
                    for (slot, q_slot) in pi.iter_mut().zip(&mut self.prev2) {
                        let p = *slot;
                        *slot = extrapolate(p, *q_slot);
                        *q_slot = p;
                    }
                }
            } else if !tail {
                self.prev2.resize(n, 0.0);
                self.prev2.copy_from_slice(self.ws.pi());
            }
            // Re-project each phase column onto the *new* point's
            // exact marginal: the dominant error of a
            // neighbouring-point start is its stale phase law.
            let pi = self.ws.pi_mut();
            for (phase, &mass) in self.marginal.iter().enumerate() {
                let col = &mut pi[phase * levels..(phase + 1) * levels];
                let col_mass: f64 = col.iter().sum();
                if col_mass > 0.0 {
                    let scale = mass / col_mass;
                    for x in col.iter_mut() {
                        *x *= scale;
                    }
                } else {
                    let v = mass / levels as f64;
                    col.fill(v);
                }
            }
        } else {
            model.product_form_guess_into(&self.marginal, self.ws.pi_mut());
            self.history = 0;
        }

        self.capture_blocked(model);

        let result = solve_mbd_projected_blocked_inplace_ws(
            &self.blocked,
            &self.marginal,
            opts,
            &mut self.ws,
        );
        let stats = match result {
            Ok(stats) => stats,
            Err(e) => return Err(self.chain_fail(e)),
        };
        self.push_history(warm);
        self.stats.solves += 1;
        self.stats.total_sweeps += stats.sweeps;
        self.stats.residual_checks += stats.residual_evals;

        Ok(SolveHealth::primary(stats.sweeps, stats.residual))
    }

    /// Counts the solution just placed in the workspace into the
    /// history: a chain's tail leaves it the only one, as it kept no
    /// predecessor.
    fn push_history(&mut self, warm: WarmStart) {
        self.history = if warm == WarmStart::ChainTail {
            1
        } else {
            (self.history + 1).min(2)
        };
    }

    /// Assembles the full [`PointSolve`] for the solution currently in
    /// the workspace — [`Measures`] are a pure function of
    /// `(model, stationary())`, so computing them here after the fact
    /// is bit-identical to computing them inside the solve.
    fn point_from(&self, model: &GprsModel, health: SolveHealth) -> PointSolve {
        PointSolve {
            measures: Measures::compute_from_slice(model, self.ws.pi()),
            sweeps: health.sweeps,
            residual: health.residual,
            health,
        }
    }

    /// Solves `model` with point Gauss–Seidel over the template's
    /// **refilled sparse matrix** (its transpose CSR serves the
    /// incoming gather) and the shared workspace: the alternate rung of
    /// [`solve_resilient`](Self::solve_resilient), and the template
    /// form of [`GprsModel::solve_gauss_seidel`]. Starts cold from the
    /// product-form guess; the solution lands in
    /// [`stationary`](Self::stationary) and starts a new warm-start
    /// chain.
    fn solve_gauss_seidel_health(
        &mut self,
        model: &GprsModel,
        opts: &SolveOptions,
    ) -> Result<SolveHealth, ModelError> {
        self.check_shape(model.config())?;
        self.marginal_into(model);
        model.product_form_guess_into(&self.marginal, &mut self.start);
        let sparse = ensure_pattern(&mut self.sparse, model)?;
        let stats = match solve_gauss_seidel_ws(sparse, Some(&self.start), opts, &mut self.ws) {
            Ok(stats) => stats,
            Err(e) => return Err(self.chain_fail(e)),
        };
        self.history = 1;
        self.stats.solves += 1;
        self.stats.total_sweeps += stats.sweeps;
        self.stats.residual_checks += stats.residual_evals;
        Ok(SolveHealth::primary(stats.sweeps, stats.residual))
    }

    /// Solves `model` through the **fallback ladder**: every solve
    /// either converges (recording which rung produced the answer),
    /// or fails with the structured error of the deepest rung tried.
    ///
    /// The rungs, top to bottom:
    ///
    /// 1. **Primary** — exactly [`solve`](Self::solve) with the
    ///    requested warm start. When it succeeds (the overwhelmingly
    ///    common case) the result is bit-identical to the plain entry
    ///    point.
    /// 2. **Cold restart** — only when rung 1 ran warm: the warm-start
    ///    chain is dropped and the primary solver restarts from the
    ///    product-form guess, recovering from a poisoned or badly
    ///    extrapolated start.
    /// 3. **Alternate iterative** — point Gauss–Seidel over the
    ///    refilled sparse matrix with adjusted relaxation: plain sweeps
    ///    (`ω = 1`) if the caller over- or under-relaxed, damped sweeps
    ///    (`ω = 0.8`) otherwise, held fixed for the whole solve — a
    ///    different iteration operator with a different spectrum, which
    ///    converges on chains where the block method ping-pongs.
    /// 4. **Direct GTH** — for chains under
    ///    [`RECOMMENDED_MAX_STATES`]: exact elimination, no iteration
    ///    at all. The solution is installed into the workspace so the
    ///    warm-start chain continues from it.
    ///
    /// A rung is only tried after every rung above failed with a
    /// *solver* failure ([`ModelError::is_solver_failure`]); structural
    /// errors propagate immediately.
    ///
    /// # Errors
    ///
    /// As [`solve`](Self::solve) when the failure is structural;
    /// otherwise the error of the deepest rung attempted.
    pub fn solve_resilient(
        &mut self,
        model: &GprsModel,
        opts: &SolveOptions,
        warm: WarmStart,
    ) -> Result<PointSolve, ModelError> {
        let health = self.solve_resilient_lean(model, opts, warm)?;
        Ok(self.point_from(model, health))
    }

    /// [`solve_resilient`](Self::solve_resilient) minus the measures
    /// extraction: the stationary vector lands in
    /// [`stationary`](Self::stationary) and only the [`SolveHealth`]
    /// report is returned. A caller that reads only the stationary
    /// vector skips the measures; it recovers the full [`Measures`] on
    /// demand via [`measures_for`](Self::measures_for), which is
    /// bit-identical to the eager value `solve_resilient` would have
    /// returned.
    ///
    /// # Errors
    ///
    /// As [`solve_resilient`](Self::solve_resilient).
    pub fn solve_resilient_lean(
        &mut self,
        model: &GprsModel,
        opts: &SolveOptions,
        warm: WarmStart,
    ) -> Result<SolveHealth, ModelError> {
        let was_warm = warm != WarmStart::Cold && self.history >= 1;

        // Rung 1: the primary path, bit-identical on success.
        match self.solve_health(model, opts, warm) {
            Ok(health) => return Ok(health),
            Err(e) if e.is_solver_failure() => {}
            Err(e) => return Err(e),
        }
        let mut failed: u8 = 1;

        // Rung 2: cold restart, only meaningful if rung 1 ran warm
        // (chain_fail already cleared the history).
        if was_warm {
            match self.solve_health(model, opts, WarmStart::Cold) {
                Ok(health) => {
                    return Ok(SolveHealth {
                        rung: SolveRung::ColdRestart,
                        failed_rungs: failed,
                        sweeps: health.sweeps,
                        residual: health.residual,
                    });
                }
                Err(e) if e.is_solver_failure() => failed += 1,
                Err(e) => return Err(e),
            }
        }

        // Rung 3: alternate iterative solver with adjusted relaxation.
        let alt_opts = if opts.sor_omega == 1.0 {
            opts.clone().with_sor(0.8)
        } else {
            opts.clone().with_sor(1.0)
        };
        let last = match self.solve_gauss_seidel_health(model, &alt_opts) {
            Ok(health) => {
                return Ok(SolveHealth {
                    rung: SolveRung::AlternateIterative,
                    failed_rungs: failed,
                    sweeps: health.sweeps,
                    residual: health.residual,
                });
            }
            Err(e) if e.is_solver_failure() => {
                failed += 1;
                e
            }
            Err(e) => return Err(e),
        };

        // Rung 4: direct elimination for small chains.
        let n = model.space().num_states();
        if n <= RECOMMENDED_MAX_STATES {
            let sparse = ensure_pattern(&mut self.sparse, model)?;
            let pi = solve_gth(sparse)?;
            let residual = balance_residual(sparse, pi.as_slice());
            self.ws.set_pi(pi.as_slice());
            // The exact solution is a legitimate chain predecessor.
            self.history = 1;
            self.stats.solves += 1;
            self.stats.residual_checks += 1;
            return Ok(SolveHealth {
                rung: SolveRung::DirectGth,
                failed_rungs: failed,
                sweeps: 0,
                residual,
            });
        }

        Err(last)
    }

    /// The [`Measures`] of the solution currently in the workspace —
    /// the deferred counterpart of the `measures` field a full
    /// [`solve_resilient`](Self::solve_resilient) returns, and
    /// bit-identical to it because measures are a pure function of
    /// `(model, stationary())`. Only meaningful directly after a
    /// successful solve of `model` through this template.
    pub fn measures_for(&self, model: &GprsModel) -> Measures {
        Measures::compute_from_slice(model, self.ws.pi())
    }

    /// Brings the blocked rate tables up to date with `model`.
    ///
    /// The birth/death rows read only the rates in `model`'s
    /// [`LevelKey`] (packet rate, service rate, throttle level, channel
    /// count); call arrival rates, dwell times and handover arrivals
    /// enter the generator only through the phase-coupling rates. So
    /// when the key equals the one of the last full
    /// [`BlockedMbd::capture`], refreshing only the phase-exit rates
    /// and phase-coupling CSR values in place reproduces a full capture
    /// bit for bit at a fraction of the cost: every point of an
    /// arrival-rate sweep after the template's first takes this path.
    /// Any other key is captured in full.
    fn capture_blocked(&mut self, model: &GprsModel) {
        let key = LevelKey::of(model);
        if self.captured == Some(key) {
            self.blocked.recapture_phase_rates(model);
        } else {
            self.blocked.capture(model);
            self.captured = Some(key);
            #[cfg(test)]
            {
                self.full_captures += 1;
            }
        }
    }

    /// Shared failure path of both solve flavours: a failed solve
    /// leaves a non-converged iterate in the workspace, so drop it
    /// (`stationary()` must never serve it) and start the next chained
    /// solve cold.
    fn chain_fail(&mut self, e: gprs_ctmc::CtmcError) -> ModelError {
        self.history = 0;
        self.ws.clear_pi();
        ModelError::from(e)
    }

    /// The stationary distribution of the last successful solve —
    /// empty before the first, and emptied again by a failed solve (a
    /// non-converged iterate is never served).
    pub fn stationary(&self) -> &[f64] {
        self.ws.pi()
    }

    /// Forgets the warm-start history: the next
    /// [`WarmStart::Chained`] solve starts cold. Chunked sweeps call
    /// this at every chunk boundary so results never depend on which
    /// worker (or how many) processed the previous chunk. Lifetime
    /// accounting ([`stats`](Self::stats)) is deliberately preserved.
    pub fn reset_chain(&mut self) {
        self.history = 0;
    }

    /// Lifetime solver accounting across every solve this template has
    /// served (see [`TemplateStats`]).
    pub fn stats(&self) -> TemplateStats {
        self.stats
    }

    /// Clears the lifetime accounting (the warm-start chain and cached
    /// patterns are untouched).
    pub fn reset_stats(&mut self) {
        self.stats = TemplateStats::default();
    }

    /// Capacity of the buffer that keeps the solution before last.
    #[cfg(test)]
    pub(crate) fn predecessor_capacity(&self) -> usize {
        self.prev2.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coding::CodingScheme;
    use gprs_ctmc::mbd::ModulatedBirthDeath;
    use gprs_traffic::{SessionParams, TrafficModel};
    use proptest::prelude::*;

    /// A configuration of `shape` (channels, buffer, sessions) whose
    /// level-key inputs come from `level` (TCP threshold, packet
    /// interarrival, block error rate) and every other rate from
    /// `phase` (call rate, GPRS fraction, reading time, GPRS dwell).
    fn keyed_config(
        (n, k, m): (usize, usize, usize),
        (eta, dd, bler): (f64, f64, f64),
        (rate, frac, read, dwell): (f64, f64, f64, f64),
    ) -> CellConfig {
        CellConfig::builder()
            .total_channels(n)
            .reserved_pdchs(1)
            .buffer_capacity(k)
            .max_gprs_sessions(m)
            .tcp_threshold(eta)
            .traffic_params(SessionParams::new(3.0, read, 5.0, dd))
            .block_error_rate(bler)
            .call_arrival_rate(rate)
            .gprs_fraction(frac)
            .gprs_dwell_time(dwell)
            .build()
            .unwrap()
    }

    fn shape() -> impl Strategy<Value = (usize, usize, usize)> {
        (2usize..7, 1usize..7, 1usize..4)
    }

    fn level_rates() -> impl Strategy<Value = (f64, f64, f64)> {
        (0.3f64..1.0, 0.05f64..2.0, 0.0f64..0.3)
    }

    fn phase_rates() -> impl Strategy<Value = (f64, f64, f64, f64)> {
        (0.05f64..3.0, 0.01f64..0.6, 1.0f64..30.0, 30.0f64..300.0)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Same shape and level rates, any other rates and handover
        /// arrivals: equal keys, and bit-identical birth and death rows.
        #[test]
        fn equal_level_keys_capture_identical_rate_rows(
            shape in shape(),
            level in level_rates(),
            a in phase_rates(),
            b in phase_rates(),
            handovers in (0.0f64..0.5, 0.0f64..0.5),
        ) {
            let first = GprsModel::new(keyed_config(shape, level, a)).unwrap();
            let second = GprsModel::with_handover_arrivals(
                keyed_config(shape, level, b),
                handovers.0,
                handovers.1,
            )
            .unwrap();
            prop_assert_eq!(LevelKey::of(&first), LevelKey::of(&second));
            let (mut x, mut y) = (BlockedMbd::new(), BlockedMbd::new());
            x.capture(&first);
            y.capture(&second);
            for p in 0..x.num_phases() {
                for l in 0..x.num_levels() {
                    prop_assert_eq!(x.birth_rate(p, l).to_bits(), y.birth_rate(p, l).to_bits());
                    prop_assert_eq!(x.death_rate(p, l).to_bits(), y.death_rate(p, l).to_bits());
                }
            }
        }

        /// Every input of `offered_packet_rate` and `busy_pdchs` moves
        /// the key: the packet rate, the service rate (coding scheme and
        /// block error rate), the throttle level and the channel count.
        #[test]
        fn every_level_rate_moves_the_key(
            shape in shape(),
            level in level_rates(),
            rates in phase_rates(),
            factor in 1.1f64..3.0,
        ) {
            let base = keyed_config(shape, level, rates);
            let key = LevelKey::of(&GprsModel::new(base.clone()).unwrap());
            let mut moved = Vec::new();
            let mut c = base.clone();
            c.traffic.packet_interarrival *= factor;
            moved.push(("packet interarrival", c));
            let mut c = base.clone();
            c.coding_scheme = CodingScheme::Cs4;
            moved.push(("coding scheme", c));
            let mut c = base.clone();
            c.block_error_rate += 0.05;
            moved.push(("block error rate", c));
            let mut c = base.clone();
            c.tcp_threshold /= factor;
            moved.push(("TCP threshold", c));
            let mut c = base.clone();
            c.total_channels += 1;
            moved.push(("channels", c));
            for (what, config) in moved {
                let model = GprsModel::new(config).unwrap();
                prop_assert_ne!(LevelKey::of(&model), key, "{}", what);
            }
        }
    }

    fn tiny(rate: f64) -> CellConfig {
        CellConfig::builder()
            .total_channels(4)
            .reserved_pdchs(1)
            .buffer_capacity(5)
            .traffic_model(TrafficModel::Model3)
            .max_gprs_sessions(2)
            .call_arrival_rate(rate)
            .build()
            .unwrap()
    }

    #[test]
    fn cold_solve_is_bit_identical_to_one_shot_path() {
        let model = GprsModel::new(tiny(0.4)).unwrap();
        let one_shot = model.solve(&SolveOptions::default(), None).unwrap();
        let mut template = GeneratorTemplate::new(&tiny(0.4)).unwrap();
        let point = template
            .solve(&model, &SolveOptions::default(), WarmStart::Cold)
            .unwrap();
        assert_eq!(point.sweeps, one_shot.sweeps());
        assert_eq!(point.residual.to_bits(), one_shot.residual().to_bits());
        assert_eq!(template.stationary(), one_shot.stationary().as_slice());
        assert_eq!(point.measures, *one_shot.measures());
    }

    /// The rate-sweep contract: across a chain of
    /// solves, the template's partial phase-rate recapture (taken
    /// whenever the level key is unchanged) must reproduce a full
    /// capture bit for bit — sweeps, residual bits, stationary bits,
    /// measures and the blocked tables themselves. The chain changes
    /// the call arrival rate, which moves only phase-coupling rates and
    /// so keeps the partial path, then the packet rate, which moves the
    /// birth tables a stale recapture would keep, and returns to the
    /// first configuration: both packet-rate switches must capture in
    /// full.
    #[test]
    fn fast_recapture_chain_is_bitwise_equal_to_full_capture() {
        let opts = SolveOptions::default();
        let cfg = tiny(0.4);
        let faster_calls = tiny(0.55);
        let mut faster_packets = cfg.clone();
        faster_packets.traffic.packet_interarrival *= 0.5;
        // The last field: whether the step captures in full.
        let chain = [
            (&cfg, 0.05, 0.3, true),
            (&cfg, 0.08, 0.45, false),
            (&faster_calls, 0.08, 0.45, false),
            (&faster_calls, 0.03, 0.2, false),
            (&faster_packets, 0.03, 0.2, true),
            (&faster_packets, 0.06, 0.35, false),
            (&cfg, 0.06, 0.35, true),
            (&cfg, 0.11, 0.6, false),
        ];
        let mut fast = GeneratorTemplate::new(&cfg).unwrap();
        for (config, gsm_h, gprs_h, full_capture) in chain {
            // Same warm-start chain, but no recorded capture: this
            // template must capture the blocked tables in full.
            let mut full = fast.clone();
            full.captured = None;
            let model = fast
                .model_with_handovers(config.clone(), gsm_h, gprs_h)
                .unwrap();
            let captures = fast.full_captures;
            let a = full.solve(&model, &opts, WarmStart::Chained).unwrap();
            let b = fast.solve(&model, &opts, WarmStart::Chained).unwrap();
            let at = format!(
                "{} calls/s at ({gsm_h}, {gprs_h})",
                config.call_arrival_rate
            );
            assert_eq!(
                fast.full_captures - captures,
                usize::from(full_capture),
                "full captures, {at}"
            );
            assert_eq!(a.sweeps, b.sweeps, "sweeps, {at}");
            assert_eq!(a.residual.to_bits(), b.residual.to_bits(), "residual, {at}");
            assert_eq!(full.stationary(), fast.stationary(), "stationary, {at}");
            assert_eq!(a.measures, b.measures, "measures, {at}");
            // `Debug` prints every f64 round-trip exactly.
            assert_eq!(
                format!("{:?}", full.blocked),
                format!("{:?}", fast.blocked),
                "blocked tables, {at}"
            );
            assert_eq!(fast.captured, Some(LevelKey::of(&model)), "{at}");
        }
    }

    /// The lean resilient solve plus deferred `measures_for` must be
    /// indistinguishable from the eager `solve_resilient`.
    #[test]
    fn lean_solve_with_deferred_measures_matches_eager_solve() {
        let opts = SolveOptions::default();
        let cfg = tiny(0.35);
        let mut eager = GeneratorTemplate::new(&cfg).unwrap();
        let mut lean = GeneratorTemplate::new(&cfg).unwrap();
        for (gsm_h, gprs_h) in [(0.04, 0.25), (0.07, 0.4), (0.05, 0.33)] {
            let model = eager
                .model_with_handovers(cfg.clone(), gsm_h, gprs_h)
                .unwrap();
            let point = eager
                .solve_resilient(&model, &opts, WarmStart::Chained)
                .unwrap();
            let health = lean
                .solve_resilient_lean(&model, &opts, WarmStart::Chained)
                .unwrap();
            assert_eq!(point.health, health, "health at ({gsm_h}, {gprs_h})");
            assert_eq!(
                eager.stationary(),
                lean.stationary(),
                "stationary at ({gsm_h}, {gprs_h})"
            );
            assert_eq!(
                point.measures,
                lean.measures_for(&model),
                "deferred measures at ({gsm_h}, {gprs_h})"
            );
        }
    }

    #[test]
    fn refilled_sparse_matches_fresh_assembly() {
        let mut template = GeneratorTemplate::new(&tiny(0.3)).unwrap();
        // Populate the pattern at one rate, refill at another.
        let first = GprsModel::new(tiny(0.3)).unwrap();
        template.sparse_for(&first).unwrap();
        for rate in [0.55, 0.8] {
            let model = GprsModel::new(tiny(rate)).unwrap();
            let fresh = model.assemble_sparse().unwrap();
            let refilled = template.sparse_for(&model).unwrap();
            assert!(refilled.same_pattern(&fresh));
            for s in 0..fresh.num_states() {
                assert_eq!(refilled.row(s), fresh.row(s), "row {s} at rate {rate}");
                assert_eq!(
                    refilled.column(s),
                    fresh.column(s),
                    "col {s} at rate {rate}"
                );
            }
            assert_eq!(refilled.exit_rates(), fresh.exit_rates());
        }
    }

    #[test]
    fn chained_solve_converges_to_the_same_answer_faster() {
        let opts = SolveOptions::default();
        let mut template = GeneratorTemplate::new(&tiny(0.3)).unwrap();
        let mut cold_sweeps = 0usize;
        let mut chained_sweeps = 0usize;
        for (i, rate) in [0.3, 0.35, 0.4, 0.45].into_iter().enumerate() {
            let model = GprsModel::new(tiny(rate)).unwrap();
            let cold = model.solve(&opts, None).unwrap();
            let chained = template.solve(&model, &opts, WarmStart::Chained).unwrap();
            cold_sweeps += cold.sweeps();
            chained_sweeps += chained.sweeps;
            let diff = (chained.measures.carried_data_traffic
                - cold.measures().carried_data_traffic)
                .abs();
            assert!(diff < 1e-8, "point {i}: diff {diff:.2e}");
        }
        assert!(
            chained_sweeps <= cold_sweeps,
            "chained {chained_sweeps} vs cold {cold_sweeps}"
        );
    }

    #[test]
    fn gauss_seidel_template_path_agrees_with_model_path() {
        let model = GprsModel::new(tiny(0.5)).unwrap();
        let reference = model
            .solve_gauss_seidel(&SolveOptions::default(), None)
            .unwrap();
        let mut template = GeneratorTemplate::new(&tiny(0.5)).unwrap();
        let health = template
            .solve_gauss_seidel_health(&model, &SolveOptions::default())
            .unwrap();
        for (a, b) in template
            .stationary()
            .iter()
            .zip(reference.stationary().as_slice())
        {
            assert!((a - b).abs() < 1e-7);
        }
        assert!(health.residual <= 1e-10);
    }

    #[test]
    fn pattern_key_change_reassembles_instead_of_refilling() {
        // Two configs with the same 4-number shape but different TCP
        // thresholds have *different* sparsity patterns (with no
        // reserved PDCHs, throttling zeroes the offered rate in
        // fully-voice-loaded states above eta*K, dropping those edges).
        // sparse_for must serve both correctly via re-assembly.
        let mut throttled = CellConfig::builder()
            .total_channels(4)
            .reserved_pdchs(0)
            .buffer_capacity(8)
            .traffic_model(TrafficModel::Model3)
            .max_gprs_sessions(2)
            .call_arrival_rate(0.4)
            .tcp_threshold(0.1)
            .build()
            .unwrap();
        let mut template = GeneratorTemplate::new(&throttled).unwrap();
        for eta in [0.1, 1.0, 0.1] {
            throttled.tcp_threshold = eta;
            let model = GprsModel::new(throttled.clone()).unwrap();
            assert!(template.matches(&throttled));
            let fresh = model.assemble_sparse().unwrap();
            let served = template.sparse_for(&model).unwrap();
            assert_eq!(served.num_nonzeros(), fresh.num_nonzeros(), "eta {eta}");
            for s in 0..fresh.num_states() {
                assert_eq!(served.row(s), fresh.row(s), "eta {eta} row {s}");
            }
        }
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let mut other = tiny(0.4);
        other.buffer_capacity = 9;
        let template = GeneratorTemplate::new(&tiny(0.4)).unwrap();
        assert!(!template.matches(&other));
        assert!(template.model_for(other).is_err());
    }

    #[test]
    fn resilient_happy_path_is_bit_identical_to_plain_solve() {
        let opts = SolveOptions::default();
        let model = GprsModel::new(tiny(0.4)).unwrap();
        let mut plain = GeneratorTemplate::new(&tiny(0.4)).unwrap();
        let mut resilient = GeneratorTemplate::new(&tiny(0.4)).unwrap();
        let a = plain.solve(&model, &opts, WarmStart::Cold).unwrap();
        let b = resilient
            .solve_resilient(&model, &opts, WarmStart::Cold)
            .unwrap();
        assert_eq!(a.sweeps, b.sweeps);
        assert_eq!(a.residual.to_bits(), b.residual.to_bits());
        assert_eq!(plain.stationary(), resilient.stationary());
        assert_eq!(b.health.rung, SolveRung::Primary);
        assert_eq!(b.health.failed_rungs, 0);
        assert!(!b.health.degraded());
    }

    #[test]
    fn resilient_falls_through_to_direct_gth_on_budget_exhaustion() {
        // One sweep at an unreachable tolerance starves every iterative
        // rung; the chain is small, so the ladder bottoms out at exact
        // elimination instead of surfacing NotConverged.
        let opts = SolveOptions::default()
            .with_max_sweeps(1)
            .with_tolerance(1e-300);
        let model = GprsModel::new(tiny(0.4)).unwrap();
        assert!(model.space().num_states() <= RECOMMENDED_MAX_STATES);
        let mut template = GeneratorTemplate::new(&tiny(0.4)).unwrap();
        let point = template
            .solve_resilient(&model, &opts, WarmStart::Cold)
            .unwrap();
        // Cold start: rung 2 is skipped, so primary + alternate failed.
        assert_eq!(point.health.rung, SolveRung::DirectGth);
        assert_eq!(point.health.failed_rungs, 2);
        assert!(point.health.degraded());
        assert_eq!(point.health.sweeps, 0);
        assert!(point.residual < 1e-10, "gth residual {}", point.residual);
        // The exact answer matches the converged iterative one.
        let reference = GprsModel::new(tiny(0.4)).unwrap().solve_default().unwrap();
        for (a, b) in template
            .stationary()
            .iter()
            .zip(reference.stationary().as_slice())
        {
            assert!((a - b).abs() < 1e-8);
        }
        // ...and seeds the warm-start chain for the next solve.
        let next = template
            .solve_resilient(&model, &SolveOptions::default(), WarmStart::Chained)
            .unwrap();
        assert_eq!(next.health.rung, SolveRung::Primary);
        assert!(
            next.sweeps <= 4,
            "took {} sweeps after gth seed",
            next.sweeps
        );
    }

    #[test]
    fn resilient_warm_failure_walks_every_rung() {
        // Seed a warm chain with a good solve, then starve the budget:
        // primary (warm), cold restart, and alternate all fail before
        // the direct rung answers.
        let model = GprsModel::new(tiny(0.4)).unwrap();
        let mut template = GeneratorTemplate::new(&tiny(0.4)).unwrap();
        template
            .solve(&model, &SolveOptions::default(), WarmStart::Chained)
            .unwrap();
        let starved = SolveOptions::default()
            .with_max_sweeps(1)
            .with_tolerance(1e-300);
        let point = template
            .solve_resilient(&model, &starved, WarmStart::Chained)
            .unwrap();
        assert_eq!(point.health.rung, SolveRung::DirectGth);
        assert_eq!(point.health.failed_rungs, 3);
    }

    #[test]
    fn registry_dedupes_setups_by_shape() {
        let registry = TemplateRegistry::new();
        // Five rates of one shape → one setup.
        for rate in [0.1, 0.2, 0.3, 0.4, 0.5] {
            registry.template_for(&tiny(rate)).unwrap();
        }
        assert_eq!(registry.setups(), 1);
        // A different buffer depth is a new shape.
        let mut deep = tiny(0.3);
        deep.buffer_capacity = 9;
        registry.template_for(&deep).unwrap();
        assert_eq!(registry.setups(), 2);
    }

    /// Registry-built templates are plain templates: bitwise the same
    /// on the primary path and, with a starved budget, on the GTH rung
    /// they reach through their own CSR pattern.
    #[test]
    fn registry_solves_match_unshared_templates_bitwise() {
        let starved = SolveOptions::default()
            .with_max_sweeps(1)
            .with_tolerance(1e-300);
        let registry = TemplateRegistry::new();
        for (opts, rung) in [
            (SolveOptions::default(), SolveRung::Primary),
            (starved, SolveRung::DirectGth),
        ] {
            for rate in [0.3, 0.6] {
                let model = GprsModel::new(tiny(rate)).unwrap();
                let mut shared = registry.template_for(&tiny(rate)).unwrap();
                let mut plain = GeneratorTemplate::new(&tiny(rate)).unwrap();
                let a = shared
                    .solve_resilient(&model, &opts, WarmStart::Cold)
                    .unwrap();
                let b = plain
                    .solve_resilient(&model, &opts, WarmStart::Cold)
                    .unwrap();
                assert_eq!(a.health.rung, rung, "rate {rate}");
                assert_eq!(a.health, b.health, "rate {rate}");
                assert_eq!(a.residual.to_bits(), b.residual.to_bits());
                assert_eq!(shared.stationary(), plain.stationary());
            }
        }
        assert_eq!(registry.setups(), 1);
    }

    #[test]
    fn reset_chain_forces_a_cold_start() {
        let opts = SolveOptions::default();
        let mut template = GeneratorTemplate::new(&tiny(0.3)).unwrap();
        let model = GprsModel::new(tiny(0.3)).unwrap();
        let first = template.solve(&model, &opts, WarmStart::Chained).unwrap();
        template.reset_chain();
        let again = template.solve(&model, &opts, WarmStart::Chained).unwrap();
        // Cold both times: identical diagnostics.
        assert_eq!(first.sweeps, again.sweeps);
        assert_eq!(first.residual.to_bits(), again.residual.to_bits());
    }
}
