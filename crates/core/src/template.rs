//! Reusable generator templates: the symbolic/numeric split of the
//! repeated-solve pipeline.
//!
//! Every figure of the paper is a parameter sweep — arrival rate, load
//! scale, traffic mix — over a CTMC whose *sparsity structure never
//! changes*: the transition pattern of Table 1 is fixed by the model
//! shape (`N`, `N_GSM`, `K`, `M`) plus the edge-presence signature
//! (which rates are nonzero, where TCP throttling bites), while the
//! parameter being swept moves only the numeric rates. The cluster
//! fixed point repeats the same shape even harder: seven cells solved
//! dozens of outer iterations, identical structure every time.
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
use crate::generator::GprsModel;
use crate::health::{SolveHealth, SolveRung};
use crate::measures::Measures;
use gprs_ctmc::blocked::{solve_mbd_projected_blocked_inplace_ws, BlockedMbd};
use gprs_ctmc::gth::{solve_gth, RECOMMENDED_MAX_STATES};
use gprs_ctmc::solver::{solve_gauss_seidel_ws, SolveOptions};
use gprs_ctmc::{balance_residual, SolveWorkspace, SparseGenerator};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

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
    /// Predict-and-verify: like [`Chained`](WarmStart::Chained), but
    /// the extrapolated prediction is *verified* before any solver
    /// iteration runs — its exact balance residual is evaluated once,
    /// and when it is already within `opts.tolerance` the prediction is
    /// served directly as the solution (zero sweeps, health rung
    /// [`SolveRung::Surrogate`]). Points that fail the check run the
    /// full solve seeded by the prediction, exactly as `Chained` would.
    /// The surrogate is bypassed on cold starts (empty history — after
    /// construction or [`reset_chain`](GeneratorTemplate::reset_chain))
    /// and after failed solves or fallback-ladder rungs (which clear
    /// the history), so a prediction is only ever extrapolated from
    /// genuinely solved predecessors.
    Predicted,
}

/// Cumulative solver accounting across a [`GeneratorTemplate`]'s
/// lifetime. Per-solve [`SolveStats`](gprs_ctmc::SolveStats) are
/// overwritten by the next point; these totals are what make surrogate
/// savings visible — compare [`total_sweeps`](Self::total_sweeps)
/// against [`solves`](Self::solves) with and without
/// [`WarmStart::Predicted`]. Survives
/// [`reset_chain`](GeneratorTemplate::reset_chain) (chunk boundaries
/// must not erase the ledger); cleared only by
/// [`reset_stats`](GeneratorTemplate::reset_stats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TemplateStats {
    /// Points served: full solves, surrogate accepts and direct-GTH
    /// rungs alike.
    pub solves: usize,
    /// Total solver sweeps across all solves (surrogate accepts and
    /// direct solves contribute zero).
    pub total_sweeps: usize,
    /// Exact residual evaluations paid: in-solve convergence checks
    /// plus one verification per surrogate prediction.
    pub residual_checks: usize,
    /// Surrogate predictions attempted ([`WarmStart::Predicted`] with a
    /// non-empty history).
    pub predicted: usize,
    /// Surrogate predictions accepted (served with zero sweeps).
    pub accepted: usize,
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

/// The *shared* symbolic artifacts of one model shape, reference-
/// counted across every [`GeneratorTemplate`] of that shape: currently
/// the donor CSR pattern — the first template of a shape that needs an
/// assembled matrix pays the full symbolic assembly (enumeration,
/// sorting, allocation) once and deposits the pattern here; every later
/// same-shape template *clones* the pattern and merely refills its
/// rates, bit-identical to a fresh assembly.
///
/// Per-solve numeric state (workspace, warm-start chain, stationary
/// vector) deliberately stays per template: sharing it across cells
/// would entangle their warm-start trajectories and break the bitwise
/// reproducibility contract of the cluster fixed point.
///
/// Build these through a [`TemplateRegistry`], which deduplicates one
/// setup per distinct shape — a 1000-cell city with 5 distinct cell
/// kinds costs 5 symbolic setups, not 1000.
#[derive(Debug)]
pub struct SymbolicSetup {
    shape: Shape,
    /// The shape's donor CSR pattern and the [`PatternKey`] it was
    /// assembled under; filled by the first template that assembles.
    donor: Mutex<Option<(PatternKey, SparseGenerator)>>,
}

impl SymbolicSetup {
    fn new(shape: Shape) -> Self {
        SymbolicSetup {
            shape,
            donor: Mutex::new(None),
        }
    }

    /// A fresh pattern for `model`, valued at its rates: a clone +
    /// refill of the donor when `key` matches it (a matching key means
    /// a bit-identical pattern, so this equals a fresh assembly), else
    /// a full symbolic assembly, deposited as the donor if there is
    /// none yet.
    fn pattern_for(
        &self,
        key: PatternKey,
        model: &GprsModel,
    ) -> Result<SparseGenerator, ModelError> {
        {
            let donor = lock(&self.donor);
            if let Some((donor_key, donor_sparse)) = &*donor {
                if *donor_key == key {
                    let mut sparse = donor_sparse.clone();
                    drop(donor);
                    sparse.refill_values(model)?;
                    return Ok(sparse);
                }
            }
        }
        let assembled = model.assemble_sparse()?;
        let mut donor = lock(&self.donor);
        if donor.is_none() {
            *donor = Some((key, assembled.clone()));
        }
        Ok(assembled)
    }
}

/// Locks `mutex`, recovering the guard if a panic poisoned it. Every
/// critical section here leaves its data valid at each step (a map
/// insert or remove, a counter bump, an `Option` store), so a panic
/// elsewhere on the locking thread never exposes a torn value.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The template's cached pattern, refilled at `model`'s rates while its
/// [`PatternKey`] matches the cached one, and otherwise replaced by
/// [`SymbolicSetup::pattern_for`]. A failed refill drops the pattern;
/// the next call rebuilds it. A free function over the two fields it
/// touches, so callers can hold the pattern while borrowing the
/// template's other fields.
fn ensure_pattern<'a>(
    cache: &'a mut Option<(PatternKey, SparseGenerator)>,
    symbolic: &SymbolicSetup,
    model: &GprsModel,
) -> Result<&'a SparseGenerator, ModelError> {
    let key = PatternKey::of(model);
    let sparse = match cache.take() {
        Some((cached, mut sparse)) if cached == key => {
            sparse.refill_values(model)?;
            sparse
        }
        _ => symbolic.pattern_for(key, model)?,
    };
    Ok(&cache.insert((key, sparse)).1)
}

/// A registry of [`SymbolicSetup`]s keyed by model shape: the config
/// deduplication layer of the cluster solver. Templates requested
/// through [`template_for`](TemplateRegistry::template_for) share one
/// setup per distinct shape, and [`setups`](TemplateRegistry::setups)
/// reports how many distinct shapes have been seen — the counter the
/// metro-scale regression tests assert on.
#[derive(Debug, Default)]
pub struct TemplateRegistry {
    inner: Mutex<RegistryInner>,
}

#[derive(Debug, Default)]
struct RegistryInner {
    setups: HashMap<Shape, RegistryEntry>,
    /// LRU capacity; `None` is unbounded (the historical behaviour).
    capacity: Option<usize>,
    /// Monotone use counter stamping [`RegistryEntry::last_used`].
    clock: u64,
    /// Lifetime count of setups dropped by the LRU policy.
    evictions: u64,
}

#[derive(Debug)]
struct RegistryEntry {
    setup: Arc<SymbolicSetup>,
    last_used: u64,
}

impl TemplateRegistry {
    /// An empty, unbounded registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty registry that keeps at most `capacity` symbolic setups,
    /// evicting the least-recently-used shape when a new one would
    /// exceed the cap — the campaign engine's guard against unbounded
    /// memory growth over long shape-diverse campaigns. A capacity of
    /// `0` is treated as `1` (the registry always retains the shape it
    /// just served).
    ///
    /// Eviction only drops the *registry's* reference: templates
    /// already holding the setup keep working, and a re-requested
    /// evicted shape simply re-assembles its donor pattern. Because a
    /// fresh assembly is bit-identical to a pattern clone+refill,
    /// eviction can never change numeric results — only the setup
    /// count and assembly work.
    pub fn with_capacity(capacity: usize) -> Self {
        TemplateRegistry {
            inner: Mutex::new(RegistryInner {
                capacity: Some(capacity.max(1)),
                ..RegistryInner::default()
            }),
        }
    }

    /// A template for `config`, sharing its [`SymbolicSetup`] with
    /// every previously requested config of the same shape (the
    /// template's own workspace and warm-start chain are fresh).
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] if `config` is invalid.
    pub fn template_for(&self, config: &CellConfig) -> Result<GeneratorTemplate, ModelError> {
        config.validate()?;
        let shape = Shape::of(config);
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let stamp = inner.clock;
        let symbolic = match inner.setups.get_mut(&shape) {
            Some(entry) => {
                entry.last_used = stamp;
                entry.setup.clone()
            }
            None => {
                let setup = Arc::new(SymbolicSetup::new(shape));
                if let Some(cap) = inner.capacity {
                    while inner.setups.len() >= cap {
                        let Some(victim) = inner
                            .setups
                            .iter()
                            .min_by_key(|(_, e)| e.last_used)
                            .map(|(s, _)| *s)
                        else {
                            break;
                        };
                        inner.setups.remove(&victim);
                        inner.evictions += 1;
                    }
                }
                inner.setups.insert(
                    shape,
                    RegistryEntry {
                        setup: setup.clone(),
                        last_used: stamp,
                    },
                );
                setup
            }
        };
        drop(inner);
        Ok(GeneratorTemplate::with_symbolic(shape, symbolic))
    }

    /// How many distinct shapes (symbolic setups) the registry holds.
    pub fn setups(&self) -> usize {
        lock(&self.inner).setups.len()
    }

    /// Lifetime count of setups dropped by the LRU policy (always `0`
    /// for unbounded registries).
    pub fn evictions(&self) -> u64 {
        lock(&self.inner).evictions
    }
}

/// One model shape's symbolic artifacts plus the numeric buffers reused
/// across every solve of that shape (see the [module docs](self)).
#[derive(Debug, Clone)]
pub struct GeneratorTemplate {
    shape: Shape,
    /// The shape's shared symbolic artifacts (donor CSR pattern);
    /// unshared when built via [`GeneratorTemplate::new`], one per
    /// distinct shape when built via [`TemplateRegistry`].
    symbolic: Arc<SymbolicSetup>,
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
    /// The configuration `blocked` was last fully captured from
    /// (`None` before the first capture); see
    /// [`capture_blocked`](Self::capture_blocked).
    captured: Option<CellConfig>,
    /// Per-level scratch for surrogate residual verification.
    residual_scratch: Vec<f64>,
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
        let shape = Shape::of(config);
        Ok(Self::with_symbolic(
            shape,
            Arc::new(SymbolicSetup::new(shape)),
        ))
    }

    fn with_symbolic(shape: Shape, symbolic: Arc<SymbolicSetup>) -> Self {
        debug_assert_eq!(shape, symbolic.shape);
        GeneratorTemplate {
            shape,
            symbolic,
            sparse: None,
            ws: SolveWorkspace::new(),
            marginal: Vec::new(),
            start: Vec::new(),
            prev2: Vec::new(),
            history: 0,
            blocked: BlockedMbd::new(),
            captured: None,
            residual_scratch: Vec::new(),
            placement: Vec::new(),
            placement_p_off: f64::NAN,
            stats: TemplateStats::default(),
        }
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
        ensure_pattern(&mut self.sparse, &self.symbolic, model)
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
    /// need [`Measures`] every point (the cluster fixed point reads
    /// only two conditional means per outer iteration) skip its cost
    /// and recover the identical value later via
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
        // change is where the bytes live.
        let chained =
            matches!(warm, WarmStart::Chained | WarmStart::Predicted) && self.history >= 1;
        if chained {
            if self.history >= 2 {
                // Multiplicative (log-space) extrapolation: the
                // tails of these distributions move exponentially
                // along a rate sweep (tilted geometric decay into
                // high buffer levels), so continuing each entry's
                // *ratio* tracks the next point far better than an
                // arithmetic secant — measured ~25% fewer sweeps on
                // the figure workloads. The ratio clamp keeps noise
                // on near-zero entries from exploding the guess.
                debug_assert_eq!(self.prev2.len(), n, "history >= 2 with unsized prev2");
                for (slot, q_slot) in self.ws.pi_mut().iter_mut().zip(&mut self.prev2) {
                    let p = *slot;
                    let q = *q_slot;
                    *q_slot = p;
                    *slot = if p > 0.0 && q > 0.0 {
                        p * (p / q).clamp(0.25, 4.0)
                    } else {
                        p
                    };
                }
            } else {
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

        // Predict-and-verify surrogate: check whether the extrapolated
        // prediction *already* satisfies the residual tolerance; if so,
        // serve it without a single solver iteration. The residual is
        // evaluated on the exactly normalized vector that would be
        // served, so an accepted point honours the same contract as a
        // full solve: `residual(stationary()) <= opts.tolerance`.
        if warm == WarmStart::Predicted && chained {
            self.stats.predicted += 1;
            let pi = self.ws.pi_mut();
            let total: f64 = pi.iter().sum();
            if total.is_finite() && total > 0.0 {
                for x in pi.iter_mut() {
                    *x /= total;
                }
                self.stats.residual_checks += 1;
                let residual = self
                    .blocked
                    .residual(self.ws.pi(), &mut self.residual_scratch);
                if residual.is_finite() && residual <= opts.tolerance {
                    // Accept: the verified, exactly normalized
                    // prediction is already the workspace iterate and
                    // the history already rotated — serve it as-is.
                    self.history = (self.history + 1).min(2);
                    self.stats.solves += 1;
                    self.stats.accepted += 1;
                    return Ok(SolveHealth {
                        rung: SolveRung::Surrogate,
                        failed_rungs: 0,
                        sweeps: 0,
                        residual,
                    });
                }
                // Rejected: fall through to the full solve, seeded by
                // the (normalized) prediction.
            }
        }

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
        self.history = (self.history + 1).min(2);
        self.stats.solves += 1;
        self.stats.total_sweeps += stats.sweeps;
        self.stats.residual_checks += stats.residual_evals;

        Ok(SolveHealth::primary(stats.sweeps, stats.residual))
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
    /// incoming gather — faster than re-deriving Table 1 backwards
    /// every sweep) and the shared workspace: the alternate rung of
    /// [`solve_resilient`](Self::solve_resilient), and the template
    /// form of [`GprsModel::solve_gauss_seidel`]. Participates in the
    /// same warm-start chain as [`solve`](Self::solve); the solution
    /// lands in [`stationary`](Self::stationary).
    fn solve_gauss_seidel_health(
        &mut self,
        model: &GprsModel,
        opts: &SolveOptions,
        warm: WarmStart,
    ) -> Result<SolveHealth, ModelError> {
        self.check_shape(model.config())?;
        let n = model.space().num_states();
        let use_chain =
            matches!(warm, WarmStart::Chained | WarmStart::Predicted) && self.history >= 1;
        if use_chain {
            self.start.resize(n, 0.0);
            self.start.copy_from_slice(self.ws.pi());
            self.prev2.resize(n, 0.0);
            self.prev2.copy_from_slice(self.ws.pi());
        } else {
            self.marginal_into(model);
            model.product_form_guess_into(&self.marginal, &mut self.start);
            self.history = 0;
        }
        let sparse = ensure_pattern(&mut self.sparse, &self.symbolic, model)?;
        let stats = match solve_gauss_seidel_ws(sparse, Some(&self.start), opts, &mut self.ws) {
            Ok(stats) => stats,
            Err(e) => return Err(self.chain_fail(e)),
        };
        self.history = (self.history + 1).min(2);
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
    /// report is returned. The sharded cluster engine solves thousands
    /// of points per outer iteration but reads only two conditional
    /// means from each; it recovers the full [`Measures`] on demand via
    /// [`measures_for`](Self::measures_for), which is bit-identical to
    /// the eager value `solve_resilient` would have returned.
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
        let was_warm =
            matches!(warm, WarmStart::Chained | WarmStart::Predicted) && self.history >= 1;

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
        let last = match self.solve_gauss_seidel_health(model, &alt_opts, WarmStart::Cold) {
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
            let sparse = ensure_pattern(&mut self.sparse, &self.symbolic, model)?;
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
    /// The cluster fixed point re-solves the same cell configuration
    /// hundreds of times, varying *only* the handover arrival rates —
    /// which enter the generator exclusively through the phase-coupling
    /// rates (GSM handover arrivals and GPRS session arrivals). The
    /// per-level birth/death tables depend on the configuration alone,
    /// so when `model`'s configuration is bitwise equal to the one of
    /// the last full [`BlockedMbd::capture`], refreshing only the
    /// phase-exit rates and phase-coupling CSR values in place
    /// reproduces a full capture bit for bit at a fraction of the
    /// cost. Any other configuration is captured in full.
    fn capture_blocked(&mut self, model: &GprsModel) {
        match &self.captured {
            Some(config) if config.bitwise_eq(model.config()) => {
                self.blocked.recapture_phase_rates(model);
            }
            _ => {
                self.blocked.capture(model);
                self.captured = Some(model.config().clone());
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprs_traffic::TrafficModel;

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

    /// The cluster-engine contract: across a chain of solves, the
    /// template's partial phase-rate recapture (taken whenever the
    /// configuration is bitwise unchanged) must reproduce a full
    /// capture bit for bit — sweeps, residual bits, stationary bits,
    /// measures and the blocked tables themselves. The chain changes
    /// the configuration mid-way (a call arrival rate, then a packet
    /// rate, which moves the birth tables a stale recapture would
    /// keep) and returns to the first, so every switch must fall back
    /// to a full capture.
    #[test]
    fn fast_recapture_chain_is_bitwise_equal_to_full_capture() {
        let opts = SolveOptions::default();
        let cfg = tiny(0.4);
        let faster_calls = tiny(0.55);
        let mut faster_packets = cfg.clone();
        faster_packets.traffic.packet_interarrival *= 0.5;
        let chain = [
            (&cfg, 0.05, 0.3),
            (&cfg, 0.08, 0.45),
            (&faster_calls, 0.08, 0.45),
            (&faster_calls, 0.03, 0.2),
            (&faster_packets, 0.03, 0.2),
            (&faster_packets, 0.06, 0.35),
            (&cfg, 0.06, 0.35),
            (&cfg, 0.11, 0.6),
        ];
        let mut fast = GeneratorTemplate::new(&cfg).unwrap();
        for (config, gsm_h, gprs_h) in chain {
            // Same warm-start chain, but no recorded capture: this
            // template must capture the blocked tables in full.
            let mut full = fast.clone();
            full.captured = None;
            let model = fast
                .model_with_handovers(config.clone(), gsm_h, gprs_h)
                .unwrap();
            let a = full.solve(&model, &opts, WarmStart::Chained).unwrap();
            let b = fast.solve(&model, &opts, WarmStart::Chained).unwrap();
            let at = format!(
                "{} calls/s at ({gsm_h}, {gprs_h})",
                config.call_arrival_rate
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
            assert!(fast.captured.as_ref().unwrap().bitwise_eq(config), "{at}");
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
            .solve_gauss_seidel_health(&model, &SolveOptions::default(), WarmStart::Cold)
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

    #[test]
    fn capped_registry_evicts_least_recently_used_shape() {
        // Three distinct shapes through a 2-setup registry.
        let registry = TemplateRegistry::with_capacity(2);
        let shape = |buffer: usize| {
            let mut c = tiny(0.3);
            c.buffer_capacity = buffer;
            c
        };
        registry.template_for(&shape(5)).unwrap();
        registry.template_for(&shape(6)).unwrap();
        assert_eq!(registry.setups(), 2);
        assert_eq!(registry.evictions(), 0);
        // Touch 5 so 6 becomes the LRU victim, then insert 7.
        registry.template_for(&shape(5)).unwrap();
        registry.template_for(&shape(7)).unwrap();
        assert_eq!(registry.setups(), 2);
        assert_eq!(registry.evictions(), 1);
        // 5 survived the eviction: re-requesting it adds nothing...
        registry.template_for(&shape(5)).unwrap();
        assert_eq!(registry.setups(), 2);
        assert_eq!(registry.evictions(), 1);
        // ...while the evicted 6 costs another eviction to readmit.
        registry.template_for(&shape(6)).unwrap();
        assert_eq!(registry.evictions(), 2);
        // Eviction cannot change numbers: a solve through the capped
        // registry matches an unshared template bitwise.
        let model = GprsModel::new(shape(6)).unwrap();
        let opts = SolveOptions::default();
        let mut shared = registry.template_for(&shape(6)).unwrap();
        let mut plain = GeneratorTemplate::new(&shape(6)).unwrap();
        let a = shared.solve(&model, &opts, WarmStart::Cold).unwrap();
        let b = plain.solve(&model, &opts, WarmStart::Cold).unwrap();
        assert_eq!(a.residual.to_bits(), b.residual.to_bits());
        assert_eq!(shared.stationary(), plain.stationary());
    }

    #[test]
    fn registry_templates_share_the_donor_pattern_bitwise() {
        let registry = TemplateRegistry::new();
        let mut a = registry.template_for(&tiny(0.3)).unwrap();
        let mut b = registry.template_for(&tiny(0.7)).unwrap();
        // `a` assembles and donates the pattern; `b` must serve a
        // matrix bit-identical to its own fresh assembly via
        // clone + refill.
        let model_a = GprsModel::new(tiny(0.3)).unwrap();
        a.sparse_for(&model_a).unwrap();
        let model_b = GprsModel::new(tiny(0.7)).unwrap();
        let fresh = model_b.assemble_sparse().unwrap();
        let served = b.sparse_for(&model_b).unwrap();
        assert!(served.same_pattern(&fresh));
        for s in 0..fresh.num_states() {
            assert_eq!(served.row(s), fresh.row(s), "row {s}");
        }
        assert_eq!(served.exit_rates(), fresh.exit_rates());
    }

    #[test]
    fn registry_solves_match_unshared_templates_bitwise() {
        let opts = SolveOptions::default();
        let registry = TemplateRegistry::new();
        for rate in [0.3, 0.6] {
            let model = GprsModel::new(tiny(rate)).unwrap();
            let mut shared = registry.template_for(&tiny(rate)).unwrap();
            let mut plain = GeneratorTemplate::new(&tiny(rate)).unwrap();
            let a = shared.solve(&model, &opts, WarmStart::Cold).unwrap();
            let b = plain.solve(&model, &opts, WarmStart::Cold).unwrap();
            assert_eq!(a.sweeps, b.sweeps);
            assert_eq!(a.residual.to_bits(), b.residual.to_bits());
            assert_eq!(shared.stationary(), plain.stationary());
        }
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
