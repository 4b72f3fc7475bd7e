//! The CTMC generator of the cell model: the paper's Table 1.
//!
//! [`GprsModel`] computes its transitions from the state on the fly, in
//! two views. [`Transitions`] enumerates a state's successors (Table 1
//! read forwards); it is what [`GprsModel::assemble_sparse`] turns into
//! the CSR that every flat solver reads. [`ModulatedBirthDeath`] splits
//! the same rules into buffer-level moves and phase moves; the block
//! solvers capture it, so even the Fig. 10 configuration (`M = 150`,
//! ~2·10⁷ states) never materializes a flat matrix. The forward view is
//! the independent oracle of the block view: tests check the two
//! against each other, and the block solution against the assembled
//! matrix's balance residual.
//!
//! # Transition rules (Table 1)
//!
//! From state `(k, n, m, r)`:
//!
//! | event | condition | successor | rate |
//! |---|---|---|---|
//! | GSM call arrival | `n < N_GSM` | `(k, n+1, m, r)` | `λ_GSM + λ_h,GSM` |
//! | GPRS session arrival (joins on) | `m < M` | `(k, n, m+1, r)` | `b/(a+b)·(λ_GPRS + λ_h,GPRS)` |
//! | GPRS session arrival (joins off) | `m < M` | `(k, n, m+1, r+1)` | `a/(a+b)·(λ_GPRS + λ_h,GPRS)` |
//! | GSM call leaves | `n > 0` | `(k, n−1, m, r)` | `n·(μ_GSM + μ_h,GSM)` |
//! | GPRS session leaves (was on) | `m > 0, r < m` | `(k, n, m−1, r)` | `(m−r)·(μ_GPRS + μ_h,GPRS)` |
//! | GPRS session leaves (was off) | `m > 0, r > 0` | `(k, n, m−1, r−1)` | `r·(μ_GPRS + μ_h,GPRS)` |
//! | packet arrival | `k ≤ ηK, k < K` | `(k+1, n, m, r)` | `(m−r)·λ_packet` |
//! | packet arrival (throttled) | `ηK < k < K` | `(k+1, n, m, r)` | `min{(m−r)·λ_packet, c(k,n)·μ_service}` |
//! | packet service | `c(k,n) > 0` | `(k−1, n, m, r)` | `c(k,n)·μ_service` |
//! | MMPP less bursty | `r < m` | `(k, n, m, r+1)` | `(m−r)·a` |
//! | MMPP more bursty | `r > 0` | `(k, n, m, r−1)` | `r·b` |
//!
//! with `c(k, n) = min(N − n, 8k)` busy PDCHs (multislot cap of 8 slots
//! per packet, 8 packets per slot).

use crate::config::CellConfig;
use crate::error::ModelError;
use crate::state::{CellState, StateSpace};
use gprs_ctmc::mbd::ModulatedBirthDeath;
use gprs_ctmc::{SparseGenerator, Transitions};
use gprs_queueing::handover::{balance_default, BalancedCell, HandoverParams};
use gprs_queueing::mmcc::MmccQueue;

/// Derived transition rates, precomputed once per configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Rates {
    /// Total GSM arrival rate `λ_GSM + λ_h,GSM`.
    pub lam_gsm: f64,
    /// Per-call GSM leave rate `μ_GSM + μ_h,GSM`.
    pub mu_gsm: f64,
    /// Total GPRS arrival rate `λ_GPRS + λ_h,GPRS`.
    pub lam_gprs: f64,
    /// Per-session GPRS leave rate `μ_GPRS + μ_h,GPRS`.
    pub mu_gprs: f64,
    /// IPP on→off rate `a`.
    pub a: f64,
    /// IPP off→on rate `b`.
    pub b: f64,
    /// `b/(a+b)`: probability a joining session starts on.
    pub p_on: f64,
    /// `a/(a+b)`: probability a joining session starts off.
    pub p_off: f64,
    /// Packet rate of one on-session, `λ_packet = 1/Dd`.
    pub lam_packet: f64,
    /// Per-PDCH service rate, packets/s.
    pub mu_service: f64,
    /// Total channels `N`.
    pub n_total: usize,
    /// Throttle level `η·K`.
    pub throttle: f64,
    /// Buffer capacity `K`.
    pub k_cap: usize,
}

/// The single-cell GPRS Markov model, ready to solve.
///
/// Construction runs the handover-balancing fixed point (Eqs. 4–5) so
/// that the generator's arrival rates already include the balanced
/// handover flows.
#[derive(Debug, Clone)]
pub struct GprsModel {
    config: CellConfig,
    space: StateSpace,
    rates: Rates,
    balanced_gsm: BalancedCell,
    balanced_gprs: BalancedCell,
}

impl GprsModel {
    /// Builds the model: validates the configuration and balances the
    /// handover flows.
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] for invalid parameters;
    /// [`ModelError::Queueing`] if balancing fails (pathological rates).
    pub fn new(config: CellConfig) -> Result<Self, ModelError> {
        config.validate()?;

        let balanced_gsm = balance_default(&HandoverParams {
            new_arrival_rate: config.gsm_arrival_rate(),
            completion_rate: config.gsm_completion_rate(),
            handover_rate: config.gsm_handover_rate(),
            servers: config.gsm_channels(),
        })?;
        let balanced_gprs = balance_default(&HandoverParams {
            new_arrival_rate: config.gprs_arrival_rate(),
            completion_rate: config.gprs_completion_rate(),
            handover_rate: config.gprs_handover_rate(),
            servers: config.max_gprs_sessions,
        })?;

        Self::from_balanced(config, balanced_gsm, balanced_gprs)
    }

    /// Builds the model with **externally specified** incoming handover
    /// rates instead of running the scalar balancing fixed point.
    ///
    /// This is the entry point of the heterogeneous multi-cell model
    /// ([`crate::cluster`]): there the incoming flows of a cell are
    /// determined by its *neighbours'* stationary populations, so the
    /// homogeneity assumption behind Eqs. (4)–(5) does not apply and the
    /// cluster-level fixed point supplies `λ_h,GSM` and `λ_h,GPRS`
    /// directly. The closed-form Erlang marginals (used by the phase
    /// projection and the CVT/AGS/blocking measures) are built from the
    /// same rates, so everything downstream stays consistent.
    ///
    /// `GprsModel::new(cfg)` is equivalent to calling this with the
    /// rates the scalar balance converges to.
    ///
    /// # Errors
    ///
    /// [`ModelError::Config`] for invalid parameters or negative /
    /// non-finite handover rates; [`ModelError::Queueing`] if an Erlang
    /// system cannot be built.
    pub fn with_handover_arrivals(
        config: CellConfig,
        gsm_handover_rate: f64,
        gprs_handover_rate: f64,
    ) -> Result<Self, ModelError> {
        config.validate()?;
        for (name, v) in [
            ("gsm_handover_rate", gsm_handover_rate),
            ("gprs_handover_rate", gprs_handover_rate),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(ModelError::Config {
                    reason: format!("{name} must be finite and >= 0, got {v}"),
                });
            }
        }
        let balanced_gsm = BalancedCell {
            new_arrival_rate: config.gsm_arrival_rate(),
            handover_arrival_rate: gsm_handover_rate,
            queue: MmccQueue::new(
                config.gsm_channels(),
                config.gsm_arrival_rate() + gsm_handover_rate,
                config.gsm_completion_rate() + config.gsm_handover_rate(),
            )?,
            iterations: 0,
        };
        let balanced_gprs = BalancedCell {
            new_arrival_rate: config.gprs_arrival_rate(),
            handover_arrival_rate: gprs_handover_rate,
            queue: MmccQueue::new(
                config.max_gprs_sessions,
                config.gprs_arrival_rate() + gprs_handover_rate,
                config.gprs_completion_rate() + config.gprs_handover_rate(),
            )?,
            iterations: 0,
        };
        Self::from_balanced(config, balanced_gsm, balanced_gprs)
    }

    fn from_balanced(
        config: CellConfig,
        balanced_gsm: BalancedCell,
        balanced_gprs: BalancedCell,
    ) -> Result<Self, ModelError> {
        let a = config.traffic.on_to_off_rate();
        let b = config.traffic.off_to_on_rate();
        let rates = Rates {
            lam_gsm: balanced_gsm.total_arrival_rate(),
            mu_gsm: config.gsm_completion_rate() + config.gsm_handover_rate(),
            lam_gprs: balanced_gprs.total_arrival_rate(),
            mu_gprs: config.gprs_completion_rate() + config.gprs_handover_rate(),
            a,
            b,
            p_on: b / (a + b),
            p_off: a / (a + b),
            lam_packet: config.traffic.packet_rate(),
            mu_service: config.packet_service_rate(),
            n_total: config.total_channels,
            throttle: config.throttle_level(),
            k_cap: config.buffer_capacity,
        };
        let space = StateSpace::new(
            config.gsm_channels(),
            config.buffer_capacity,
            config.max_gprs_sessions,
        );
        Ok(GprsModel {
            config,
            space,
            rates,
            balanced_gsm,
            balanced_gprs,
        })
    }

    /// The configuration this model was built from.
    pub fn config(&self) -> &CellConfig {
        &self.config
    }

    /// The state space.
    pub fn space(&self) -> &StateSpace {
        &self.space
    }

    /// The balanced GSM Erlang system (arrival includes handovers).
    pub fn balanced_gsm(&self) -> &BalancedCell {
        &self.balanced_gsm
    }

    /// The balanced GPRS session Erlang system.
    pub fn balanced_gprs(&self) -> &BalancedCell {
        &self.balanced_gprs
    }

    pub(crate) fn rates(&self) -> &Rates {
        &self.rates
    }

    /// Number of PDCHs busy in state `(k, n)`:
    /// `c(k, n) = min(N − n, 8k)`.
    #[inline]
    pub fn busy_pdchs(&self, k: usize, n: usize) -> usize {
        (self.rates.n_total - n).min(8 * k)
    }

    /// The *offered* packet arrival rate in a state — the rate TCP
    /// sources attempt, before buffer-full losses. Used by the PLP
    /// measure (Eq. 9); equals the actual arrival transition rate for
    /// `k < K`.
    #[inline]
    pub fn offered_packet_rate(&self, s: CellState) -> f64 {
        let on = (s.m - s.r) as f64;
        if on == 0.0 {
            return 0.0;
        }
        let full = on * self.rates.lam_packet;
        if s.k as f64 <= self.rates.throttle {
            full
        } else {
            let service = self.busy_pdchs(s.k, s.n) as f64 * self.rates.mu_service;
            full.min(service)
        }
    }

    /// Assembles the full sparse generator, enumerating Table 1's rows
    /// in order on the calling thread: the input of the flat solvers
    /// (point Gauss–Seidel, power iteration, GTH, uniformization). The
    /// block solver never needs it.
    ///
    /// # Errors
    ///
    /// Propagates CTMC assembly errors.
    pub fn assemble_sparse(&self) -> Result<SparseGenerator, ModelError> {
        Ok(SparseGenerator::from_transitions(self)?)
    }

    /// The **exact** stationary distribution of the phase process
    /// `(n, m, r)`, indexed by [`StateSpace::phase_index`].
    ///
    /// The phase process is autonomous (its rates never depend on the
    /// buffer level) and product-form: the voice count `n` is an
    /// M/M/N_GSM/N_GSM Erlang marginal, the session pair `(m, r)` an
    /// Erlang(M) × Binomial(r; m, a/(a+b)) marginal — both under the
    /// balanced handover flows. The solver projects onto this marginal
    /// every sweep (aggregation/disaggregation with exact aggregate).
    pub fn phase_marginal(&self) -> Vec<f64> {
        let mut phase = Vec::new();
        self.phase_marginal_into(&mut phase);
        phase
    }

    /// [`phase_marginal`](Self::phase_marginal) into a caller-owned
    /// buffer (resized to `num_phases()`), so repeated same-shape
    /// evaluations — one per sweep point — avoid the `O(phases)`
    /// allocation. Every element is overwritten; the values are
    /// bit-identical to the allocating variant, which delegates here.
    pub fn phase_marginal_into(&self, out: &mut Vec<f64>) {
        let mut placement = Vec::new();
        self.session_placement_into(&mut placement);
        self.phase_marginal_with_placement_into(&placement, out);
    }

    /// The session **placement table**: `placement[tri_index(m, r)]`
    /// is `Binomial(r; m, p_off)` — the probability that `r` of `m`
    /// active sessions sit in the MMPP off-state. It depends only on
    /// the state-space shape and the traffic model's `p_off`, not on
    /// any arrival or handover rate, so fixed-point loops that re-solve
    /// the same cell under moving handover rates can compute it once
    /// and reuse it via
    /// [`phase_marginal_with_placement_into`](Self::phase_marginal_with_placement_into).
    pub fn session_placement_into(&self, out: &mut Vec<f64>) {
        let p_off = self.rates.p_off;
        out.clear();
        out.resize(self.space.tri_size(), 0.0);
        for m in 0..=self.space.m_cap() {
            let pmf = gprs_traffic::mmpp::binomial_pmf(m, p_off);
            for (r, &p) in pmf.iter().enumerate() {
                out[StateSpace::tri_index(m, r)] = p;
            }
        }
    }

    /// The off-state probability `p_off` the placement table was built
    /// from — cache keys compare this bitwise to detect a rate change
    /// that invalidates a cached table.
    pub fn session_p_off(&self) -> f64 {
        self.rates.p_off
    }

    /// [`phase_marginal_into`](Self::phase_marginal_into) against a
    /// precomputed placement table
    /// ([`session_placement_into`](Self::session_placement_into)):
    /// identical multiplications in identical order, so the result is
    /// bit-identical — it only skips re-deriving the binomial pmfs
    /// (allocations and transcendentals) on every call.
    pub fn phase_marginal_with_placement_into(&self, placement: &[f64], out: &mut Vec<f64>) {
        let gsm = self.balanced_gsm.queue.distribution();
        let gprs = self.balanced_gprs.queue.distribution();
        let tri = self.space.tri_size();
        debug_assert_eq!(placement.len(), tri, "placement table shape mismatch");
        out.resize(self.space.num_phases(), 0.0);
        for n in 0..=self.space.n_gsm() {
            let row = &mut out[n * tri..(n + 1) * tri];
            let g = gsm[n];
            let mut t = 0;
            for (m, &gm) in gprs.iter().enumerate().take(self.space.m_cap() + 1) {
                for _r in 0..=m {
                    row[t] = g * (gm * placement[t]);
                    t += 1;
                }
            }
        }
    }

    /// A product-form initial guess for the solver: the exact phase
    /// marginal ([`phase_marginal`](Self::phase_marginal)) spread
    /// uniformly over the buffer levels.
    pub fn product_form_guess(&self) -> Vec<f64> {
        let mut guess = Vec::new();
        self.product_form_guess_into(&self.phase_marginal(), &mut guess);
        guess
    }

    /// [`product_form_guess`](Self::product_form_guess) into a
    /// caller-owned buffer, from an already-computed phase marginal
    /// (resized to `num_states()`, every element overwritten) — the
    /// zero-allocation path for repeated solves.
    pub fn product_form_guess_into(&self, phase_marginal: &[f64], out: &mut Vec<f64>) {
        assert_eq!(
            phase_marginal.len(),
            self.space.num_phases(),
            "phase marginal does not match model"
        );
        let levels = self.space.k_cap() + 1;
        let inv = 1.0 / levels as f64;
        out.resize(self.space.num_states(), 0.0);
        for (p, &mass) in phase_marginal.iter().enumerate() {
            for l in 0..levels {
                out[p * levels + l] = mass * inv;
            }
        }
    }
}

impl Transitions for GprsModel {
    fn num_states(&self) -> usize {
        self.space.num_states()
    }

    fn for_each_outgoing(&self, state: usize, visit: &mut dyn FnMut(usize, f64)) {
        let sp = &self.space;
        let rt = &self.rates;
        let s = sp.decode(state);
        let CellState { n, k, m, r } = s;

        // (i) GSM call arrival / handover in.
        if n < sp.n_gsm() {
            visit(sp.index(CellState { n: n + 1, ..s }), rt.lam_gsm);
        }
        // (ii) GPRS session arrival / handover in, joining in IPP steady
        // state: on with p_on (r unchanged), off with p_off (r + 1).
        if m < sp.m_cap() {
            visit(sp.index(CellState { m: m + 1, ..s }), rt.p_on * rt.lam_gprs);
            visit(
                sp.index(CellState {
                    m: m + 1,
                    r: r + 1,
                    ..s
                }),
                rt.p_off * rt.lam_gprs,
            );
        }
        // (iii) GSM call completes or hands over out.
        if n > 0 {
            visit(sp.index(CellState { n: n - 1, ..s }), n as f64 * rt.mu_gsm);
        }
        // (iv) GPRS session leaves; the departing session is off with
        // probability r/m, on with (m−r)/m.
        if m > 0 {
            if r < m {
                visit(
                    sp.index(CellState { m: m - 1, ..s }),
                    (m - r) as f64 * rt.mu_gprs,
                );
            }
            if r > 0 {
                visit(
                    sp.index(CellState {
                        m: m - 1,
                        r: r - 1,
                        ..s
                    }),
                    r as f64 * rt.mu_gprs,
                );
            }
        }
        // (v) Packet arrival (TCP-throttled above η·K); lost at k = K.
        if k < sp.k_cap() {
            let rate = self.offered_packet_rate(s);
            if rate > 0.0 {
                visit(sp.index(CellState { k: k + 1, ..s }), rate);
            }
        }
        // (vi) Packet service by c(k, n) PDCHs.
        let busy = self.busy_pdchs(k, n);
        if busy > 0 {
            visit(
                sp.index(CellState { k: k - 1, ..s }),
                busy as f64 * rt.mu_service,
            );
        }
        // (vii) MMPP phase changes.
        if r < m {
            visit(sp.index(CellState { r: r + 1, ..s }), (m - r) as f64 * rt.a);
        }
        if r > 0 {
            visit(sp.index(CellState { r: r - 1, ..s }), r as f64 * rt.b);
        }
    }
}

/// The model as a Markov-modulated birth–death process: phase
/// `(n, m, r)`, level `k`. Level (packet) transitions never change the
/// phase, and every phase transition (call/session/MMPP event) leaves
/// the buffer untouched — which is exactly what the block tridiagonal
/// solver exploits, through captured tables
/// ([`gprs_ctmc::BlockedMbd`], [`gprs_ctmc::solve_mbd_projected_blocked_ws`])
/// or matrix-free ([`gprs_ctmc::mbd::solve_mbd_projected_inplace_ws`]). Its flat layout
/// `phase·(K+1) + level` coincides with [`StateSpace::index`], so
/// distributions and warm starts are interchangeable between solvers.
impl ModulatedBirthDeath for GprsModel {
    #[inline]
    fn num_phases(&self) -> usize {
        self.space.num_phases()
    }

    #[inline]
    fn num_levels(&self) -> usize {
        self.space.k_cap() + 1
    }

    // Reads only the rates in `LevelKey`: a new input joins the key.
    #[inline]
    fn birth_rate(&self, phase: usize, level: usize) -> f64 {
        if level >= self.space.k_cap() {
            return 0.0; // buffer full: arrivals are lost, not queued
        }
        let (n, m, r) = self.space.phase_decode(phase);
        self.offered_packet_rate(CellState { n, k: level, m, r })
    }

    // Reads only the rates in `LevelKey`: a new input joins the key.
    #[inline]
    fn death_rate(&self, phase: usize, level: usize) -> f64 {
        let (n, _, _) = self.space.phase_decode(phase);
        self.busy_pdchs(level, n) as f64 * self.rates.mu_service
    }

    #[inline]
    fn for_each_phase_outgoing(&self, phase: usize, visit: &mut dyn FnMut(usize, f64)) {
        let sp = &self.space;
        let rt = &self.rates;
        let (n, m, r) = sp.phase_decode(phase);
        if n < sp.n_gsm() {
            visit(sp.phase_index(n + 1, m, r), rt.lam_gsm);
        }
        if n > 0 {
            visit(sp.phase_index(n - 1, m, r), n as f64 * rt.mu_gsm);
        }
        if m < sp.m_cap() {
            visit(sp.phase_index(n, m + 1, r), rt.p_on * rt.lam_gprs);
            visit(sp.phase_index(n, m + 1, r + 1), rt.p_off * rt.lam_gprs);
        }
        if m > 0 {
            if r < m {
                visit(sp.phase_index(n, m - 1, r), (m - r) as f64 * rt.mu_gprs);
            }
            if r > 0 {
                visit(sp.phase_index(n, m - 1, r - 1), r as f64 * rt.mu_gprs);
            }
        }
        if r < m {
            visit(sp.phase_index(n, m, r + 1), (m - r) as f64 * rt.a);
        }
        if r > 0 {
            visit(sp.phase_index(n, m, r - 1), r as f64 * rt.b);
        }
    }

    #[inline]
    fn for_each_phase_incoming(&self, phase: usize, visit: &mut dyn FnMut(usize, f64)) {
        let sp = &self.space;
        let rt = &self.rates;
        let (n, m, r) = sp.phase_decode(phase);
        if n > 0 {
            visit(sp.phase_index(n - 1, m, r), rt.lam_gsm);
        }
        if n < sp.n_gsm() {
            visit(sp.phase_index(n + 1, m, r), (n + 1) as f64 * rt.mu_gsm);
        }
        if m > 0 {
            if r < m {
                visit(sp.phase_index(n, m - 1, r), rt.p_on * rt.lam_gprs);
            }
            if r > 0 {
                visit(sp.phase_index(n, m - 1, r - 1), rt.p_off * rt.lam_gprs);
            }
        }
        if m < sp.m_cap() {
            visit(sp.phase_index(n, m + 1, r), (m + 1 - r) as f64 * rt.mu_gprs);
            visit(sp.phase_index(n, m + 1, r + 1), (r + 1) as f64 * rt.mu_gprs);
        }
        if r > 0 {
            visit(sp.phase_index(n, m, r - 1), (m - (r - 1)) as f64 * rt.a);
        }
        if r < m {
            visit(sp.phase_index(n, m, r + 1), (r + 1) as f64 * rt.b);
        }
    }

    /// The outgoing rates of
    /// [`for_each_phase_outgoing`](Self::for_each_phase_outgoing),
    /// summed from zero in its order, without the visits: the same
    /// bits as the trait's default.
    #[inline]
    fn phase_exit_rate(&self, phase: usize) -> f64 {
        let sp = &self.space;
        let rt = &self.rates;
        let (n, m, r) = sp.phase_decode(phase);
        let mut total = 0.0;
        if n < sp.n_gsm() {
            total += rt.lam_gsm;
        }
        if n > 0 {
            total += n as f64 * rt.mu_gsm;
        }
        if m < sp.m_cap() {
            total += rt.p_on * rt.lam_gprs;
            total += rt.p_off * rt.lam_gprs;
        }
        if m > 0 {
            if r < m {
                total += (m - r) as f64 * rt.mu_gprs;
            }
            if r > 0 {
                total += r as f64 * rt.mu_gprs;
            }
        }
        if r < m {
            total += (m - r) as f64 * rt.a;
        }
        if r > 0 {
            total += r as f64 * rt.b;
        }
        total
    }
}

/// The rates the birth and death rows of [`GprsModel`]'s
/// [`ModulatedBirthDeath`] view read: the packet rate, the service
/// rate, the throttle level and the channel count (through
/// [`GprsModel::offered_packet_rate`] and [`GprsModel::busy_pdchs`]),
/// compared by their bits. Two models of one state-space shape with
/// equal keys have bit-identical birth and death rows, so a template
/// that holds one model's captured rows may keep them for the other and
/// refresh only the phase-coupling rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LevelKey {
    lam_packet: u64,
    mu_service: u64,
    throttle: u64,
    n_total: usize,
}

impl LevelKey {
    pub(crate) fn of(model: &GprsModel) -> LevelKey {
        let r = &model.rates;
        LevelKey {
            lam_packet: r.lam_packet.to_bits(),
            mu_service: r.mu_service.to_bits(),
            throttle: r.throttle.to_bits(),
            n_total: r.n_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CellConfig;
    use gprs_traffic::TrafficModel;

    fn tiny_config() -> CellConfig {
        CellConfig::builder()
            .total_channels(4)
            .reserved_pdchs(1)
            .buffer_capacity(5)
            .max_gprs_sessions(3)
            .traffic_model(TrafficModel::Model3)
            .max_gprs_sessions(3)
            .call_arrival_rate(0.4)
            .build()
            .unwrap()
    }

    #[test]
    fn model_builds_and_reports_dimensions() {
        let model = GprsModel::new(tiny_config()).unwrap();
        // N_GSM = 3, K = 5, M = 3: (3+1)(5+1)·10 = 240 states.
        assert_eq!(model.num_states(), 4 * 6 * 10);
        assert!(model.balanced_gsm().handover_arrival_rate > 0.0);
        assert!(model.balanced_gprs().handover_arrival_rate > 0.0);
    }

    #[test]
    fn busy_pdchs_formula() {
        let model = GprsModel::new(tiny_config()).unwrap();
        // N = 4. k=0 => 0; n=0,k=1 => min(4, 8) = 4; n=3,k=2 => min(1,16)=1.
        assert_eq!(model.busy_pdchs(0, 0), 0);
        assert_eq!(model.busy_pdchs(1, 0), 4);
        assert_eq!(model.busy_pdchs(2, 3), 1);
    }

    /// Death rates depend on the phase only through `n` and birth rates
    /// only through `(n, m − r)`, so the captured tables hold one death
    /// row per `n` and far fewer birth rows than phases.
    #[test]
    fn blocked_capture_shares_rate_rows_across_phases() {
        let model = GprsModel::new(tiny_config()).unwrap();
        let (n_gsm, m_cap) = (model.space().n_gsm(), model.space().m_cap());
        let mut blocked = gprs_ctmc::BlockedMbd::new();
        blocked.capture(&model);
        let (births, deaths) = blocked.distinct_rows();
        assert_eq!(deaths, n_gsm + 1);
        assert!(births <= (n_gsm + 1) * (m_cap + 1), "{births} birth rows");
        assert!(births < model.num_phases());
        for p in 0..model.num_phases() {
            for l in 0..model.num_levels() {
                assert_eq!(
                    blocked.birth_rate(p, l).to_bits(),
                    model.birth_rate(p, l).to_bits()
                );
                assert_eq!(
                    blocked.death_rate(p, l).to_bits(),
                    model.death_rate(p, l).to_bits()
                );
            }
        }
    }

    #[test]
    fn rows_have_no_self_loops_and_positive_rates() {
        let model = GprsModel::new(tiny_config()).unwrap();
        for idx in 0..model.num_states() {
            model.for_each_outgoing(idx, &mut |j, rate| {
                assert_ne!(j, idx, "self loop at {idx}");
                assert!(rate > 0.0, "non-positive rate at {idx} -> {j}");
                assert!(j < model.num_states());
            });
        }
    }

    #[test]
    fn chain_is_irreducible() {
        let model = GprsModel::new(tiny_config()).unwrap();
        assert!(model.assemble_sparse().unwrap().is_irreducible());
    }

    #[test]
    fn throttling_bounds_arrival_rate() {
        // With eta small, arrival rate above the threshold equals the
        // service rate when sources offer more.
        let config = CellConfig::builder()
            .total_channels(4)
            .reserved_pdchs(1)
            .buffer_capacity(10)
            .tcp_threshold(0.3)
            .max_gprs_sessions(3)
            .call_arrival_rate(0.4)
            .build()
            .unwrap();
        let model = GprsModel::new(config).unwrap();
        // State above threshold (k=5 > 3), all 3 sessions on.
        let s = CellState {
            n: 0,
            k: 5,
            m: 3,
            r: 0,
        };
        let offered = model.offered_packet_rate(s);
        let service = model.busy_pdchs(5, 0) as f64 * model.rates().mu_service;
        let full = 3.0 * model.rates().lam_packet;
        assert!((offered - full.min(service)).abs() < 1e-12);
        // Below threshold: full rate.
        let s = CellState {
            n: 0,
            k: 2,
            m: 3,
            r: 0,
        };
        assert!((model.offered_packet_rate(s) - full).abs() < 1e-12);
        // All sources off: zero.
        let s = CellState {
            n: 0,
            k: 2,
            m: 3,
            r: 3,
        };
        assert_eq!(model.offered_packet_rate(s), 0.0);
    }

    #[test]
    fn eta_one_means_no_throttling() {
        let config = CellConfig::builder()
            .total_channels(4)
            .reserved_pdchs(1)
            .buffer_capacity(6)
            .tcp_threshold(1.0)
            .max_gprs_sessions(2)
            .call_arrival_rate(0.4)
            .build()
            .unwrap();
        let model = GprsModel::new(config).unwrap();
        // Even at k = K the offered rate is the full source rate.
        let s = CellState {
            n: 0,
            k: 6,
            m: 2,
            r: 0,
        };
        let full = 2.0 * model.rates().lam_packet;
        assert!((model.offered_packet_rate(s) - full).abs() < 1e-12);
    }

    #[test]
    fn product_form_guess_is_a_distribution() {
        let model = GprsModel::new(tiny_config()).unwrap();
        let guess = model.product_form_guess();
        let sum: f64 = guess.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(guess.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn mbd_view_agrees_with_flat_transitions() {
        // Every (phase, level) transition of the MBD view must match the
        // flat Table 1 enumeration: same targets, same rates.
        let model = GprsModel::new(tiny_config()).unwrap();
        let space = *model.space();
        let levels = space.k_cap() + 1;
        for idx in 0..model.num_states() {
            let s = space.decode(idx);
            let phase = space.phase_index(s.n, s.m, s.r);
            // Collect flat transitions.
            let mut flat: Vec<(usize, f64)> = Vec::new();
            model.for_each_outgoing(idx, &mut |j, rate| flat.push((j, rate)));
            flat.sort_by_key(|&(j, _)| j);
            // Collect MBD transitions mapped to flat indices.
            let mut mbd: Vec<(usize, f64)> = Vec::new();
            let birth = model.birth_rate(phase, s.k);
            if birth > 0.0 {
                mbd.push((idx + 1, birth));
            }
            let death = model.death_rate(phase, s.k);
            if death > 0.0 {
                mbd.push((idx - 1, death));
            }
            model.for_each_phase_outgoing(phase, &mut |q, rate| {
                mbd.push((q * levels + s.k, rate));
            });
            mbd.sort_by_key(|&(j, _)| j);
            assert_eq!(flat.len(), mbd.len(), "state {idx} ({s:?})");
            for (a, b) in flat.iter().zip(&mbd) {
                assert_eq!(a.0, b.0, "state {idx}");
                assert!((a.1 - b.1).abs() < 1e-12, "state {idx}");
            }
        }
    }

    #[test]
    fn mbd_phase_incoming_is_transpose_of_outgoing() {
        let model = GprsModel::new(tiny_config()).unwrap();
        let phases = model.space().num_phases();
        // Build outgoing adjacency and compare against incoming.
        let mut out: Vec<Vec<(usize, f64)>> = vec![Vec::new(); phases];
        for (p, row) in out.iter_mut().enumerate() {
            model.for_each_phase_outgoing(p, &mut |q, rate| row.push((q, rate)));
        }
        for p in 0..phases {
            let mut incoming: Vec<(usize, f64)> = Vec::new();
            model.for_each_phase_incoming(p, &mut |q, rate| incoming.push((q, rate)));
            incoming.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut expected: Vec<(usize, f64)> = (0..phases)
                .flat_map(|q| {
                    out[q]
                        .iter()
                        .filter(|&&(t, _)| t == p)
                        .map(move |&(_, rate)| (q, rate))
                })
                .collect();
            expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
            assert_eq!(incoming.len(), expected.len(), "phase {p}");
            for (a, b) in incoming.iter().zip(&expected) {
                assert_eq!(a.0, b.0);
                assert!((a.1 - b.1).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn explicit_handover_arrivals_reproduce_the_balanced_model() {
        // Feeding the scalar fixed point's own rates back in must yield
        // the identical generator (new() is the special case of
        // with_handover_arrivals() under homogeneity).
        let config = tiny_config();
        let balanced = GprsModel::new(config.clone()).unwrap();
        let explicit = GprsModel::with_handover_arrivals(
            config,
            balanced.balanced_gsm().handover_arrival_rate,
            balanced.balanced_gprs().handover_arrival_rate,
        )
        .unwrap();
        assert_eq!(balanced.rates(), explicit.rates());
        assert_eq!(
            balanced.balanced_gsm().queue.distribution(),
            explicit.balanced_gsm().queue.distribution()
        );
    }

    #[test]
    fn with_handover_arrivals_rejects_bad_rates() {
        for (gsm, gprs) in [
            (-0.1, 0.0),
            (0.0, -1.0),
            (f64::NAN, 0.0),
            (0.0, f64::INFINITY),
        ] {
            assert!(
                GprsModel::with_handover_arrivals(tiny_config(), gsm, gprs).is_err(),
                "({gsm}, {gprs})"
            );
        }
        // Zero inflow is a valid isolated cell.
        let isolated = GprsModel::with_handover_arrivals(tiny_config(), 0.0, 0.0).unwrap();
        assert_eq!(isolated.balanced_gsm().handover_arrival_rate, 0.0);
        assert!(isolated.rates().lam_gsm < GprsModel::new(tiny_config()).unwrap().rates().lam_gsm);
    }

    #[test]
    fn rates_include_balanced_handover_flows() {
        let config = tiny_config();
        let model = GprsModel::new(config.clone()).unwrap();
        assert!(model.rates().lam_gsm > config.gsm_arrival_rate());
        assert!(model.rates().lam_gprs > config.gprs_arrival_rate());
        // Leave rates are completion + handover.
        assert!((model.rates().mu_gsm - (1.0 / 120.0 + 1.0 / 60.0)).abs() < 1e-12);
    }
}
