//! Adaptive PDCH management — the paper's future-work direction made
//! concrete.
//!
//! The paper closes by noting that the number of reserved PDCHs "can
//! only be determined with respect to the desired performance
//! requirements" and defers *dynamic adjustment with respect to the
//! current traffic load* to adaptive performance management (Lindemann,
//! Lohmann & Thümmler 2002). This module implements that loop on top of
//! the steady-state model:
//!
//! 1. [`QosTargets`] — the operator's performance requirements (bounds
//!    on throughput degradation, packet loss, queueing delay).
//! 2. [`PolicyTable`] — an offline map from call arrival rate to the
//!    minimal number of reserved PDCHs meeting the targets, computed by
//!    solving the Markov model over a rate grid (this is exactly the
//!    paper's Section 5.3 analysis, automated).
//! 3. [`AdaptiveController`] — an online controller that feeds measured
//!    arrival-rate estimates through the table with hysteresis, so that
//!    a noisy load estimate does not flap the channel allocation.
//! 4. [`map_distribution`] / [`reconfiguration_transient`] — transient
//!    analysis of a switch: start from the old configuration's
//!    stationary law and relax under the new generator, quantifying how
//!    long after a reconfiguration the steady-state predictions become
//!    valid again (the controller's decision epoch must exceed this).
//!
//! # Example
//!
//! ```
//! use gprs_core::adaptive::{AdaptiveController, Hysteresis, PolicyTable, QosTargets};
//! use gprs_core::CellConfig;
//! use gprs_ctmc::SolveOptions;
//! use gprs_traffic::TrafficModel;
//!
//! let base = CellConfig::builder()
//!     .traffic_model(TrafficModel::Model3)
//!     .total_channels(8)
//!     .buffer_capacity(10)
//!     .max_gprs_sessions(4)
//!     .build()?;
//! let targets = QosTargets::new().max_packet_loss(0.05);
//! let table = PolicyTable::compute(
//!     &base,
//!     &targets,
//!     &[0.1, 0.3, 0.5],
//!     0..=3,
//!     &SolveOptions::quick(),
//! )?;
//! let mut ctl = AdaptiveController::new(table, Hysteresis::default(), 1);
//! let decision = ctl.observe(0.3);
//! println!("{decision:?}");
//! # Ok::<(), gprs_core::ModelError>(())
//! ```

use crate::config::CellConfig;
use crate::error::ModelError;
use crate::generator::GprsModel;
use crate::measures::Measures;
use crate::qos;
use crate::state::StateSpace;
use gprs_ctmc::solver::SolveOptions;
use gprs_ctmc::{transient, StationaryDistribution};
use std::ops::RangeInclusive;

/// Operator performance requirements for the GPRS side of a cell.
///
/// Every bound is optional; an empty target set is satisfied by any
/// configuration. The degradation bound follows the paper's worked
/// example ("a QoS profile that allows a throughput degradation of at
/// most 50 %").
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QosTargets {
    max_throughput_degradation: Option<f64>,
    max_packet_loss: Option<f64>,
    max_queueing_delay: Option<f64>,
}

impl QosTargets {
    /// No requirements (always satisfied).
    pub fn new() -> Self {
        Self::default()
    }

    /// Bounds the per-user throughput degradation relative to an
    /// unloaded cell, `0 ≤ bound ≤ 1` (the paper's Section 5.3 profile
    /// uses 0.5).
    ///
    /// # Panics
    ///
    /// Panics if `bound` is not in `[0, 1]`.
    pub fn max_throughput_degradation(mut self, bound: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&bound),
            "degradation bound must lie in [0, 1]"
        );
        self.max_throughput_degradation = Some(bound);
        self
    }

    /// Bounds the packet loss probability.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is not in `[0, 1]`.
    pub fn max_packet_loss(mut self, bound: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&bound),
            "loss bound must lie in [0, 1]"
        );
        self.max_packet_loss = Some(bound);
        self
    }

    /// Bounds the mean queueing delay, in seconds.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is not positive and finite.
    pub fn max_queueing_delay(mut self, bound: f64) -> Self {
        assert!(
            bound.is_finite() && bound > 0.0,
            "delay bound must be positive"
        );
        self.max_queueing_delay = Some(bound);
        self
    }

    /// Whether any bound is set.
    pub fn is_empty(&self) -> bool {
        self.max_throughput_degradation.is_none()
            && self.max_packet_loss.is_none()
            && self.max_queueing_delay.is_none()
    }

    /// Checks the targets against solved measures. `reference_kbps` is
    /// the unloaded per-user throughput used for the degradation bound
    /// (ignored when that bound is unset).
    pub fn satisfied_by(&self, m: &Measures, reference_kbps: f64) -> bool {
        if let Some(bound) = self.max_throughput_degradation {
            let degradation = if reference_kbps > 0.0 {
                (1.0 - m.throughput_per_user_kbps / reference_kbps).clamp(0.0, 1.0)
            } else {
                0.0
            };
            if degradation > bound {
                return false;
            }
        }
        if let Some(bound) = self.max_packet_loss {
            if m.packet_loss_probability > bound {
                return false;
            }
        }
        if let Some(bound) = self.max_queueing_delay {
            if m.queueing_delay > bound {
                return false;
            }
        }
        true
    }
}

/// An offline policy: for each arrival rate of a grid, the minimal
/// number of reserved PDCHs meeting the [`QosTargets`] (or `None` if
/// even the largest allowed reservation fails).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyTable {
    rates: Vec<f64>,
    recommended: Vec<Option<usize>>,
    max_reserved: usize,
}

impl PolicyTable {
    /// Solves the Markov model for every `(rate, reserved)` pair and
    /// records the minimal feasible reservation per rate.
    ///
    /// `rates` must be strictly increasing and positive. The search
    /// tries `pdch_range` in ascending order, so the cost is one solve
    /// per candidate until the first success.
    ///
    /// # Errors
    ///
    /// Propagates model construction/solve errors, and rejects an empty
    /// or non-increasing rate grid and reservations exceeding the
    /// cell's channel count as [`ModelError::Config`].
    pub fn compute(
        base: &CellConfig,
        targets: &QosTargets,
        rates: &[f64],
        pdch_range: RangeInclusive<usize>,
        opts: &SolveOptions,
    ) -> Result<Self, ModelError> {
        if rates.is_empty() {
            return Err(ModelError::Config {
                reason: "policy table needs at least one rate".into(),
            });
        }
        if rates.windows(2).any(|w| w[1] <= w[0]) || rates[0] <= 0.0 {
            return Err(ModelError::Config {
                reason: "policy rates must be positive and strictly increasing".into(),
            });
        }
        let (lo, hi) = (*pdch_range.start(), *pdch_range.end());
        if hi >= base.total_channels {
            return Err(ModelError::Config {
                reason: format!(
                    "cannot reserve {hi} of {} channels (voice needs at least one)",
                    base.total_channels
                ),
            });
        }
        let mut recommended = Vec::with_capacity(rates.len());
        for &rate in rates {
            let mut found = None;
            for reserved in lo..=hi {
                let mut cfg = base.clone();
                cfg.call_arrival_rate = rate;
                cfg.reserved_pdchs = reserved;
                let reference = qos::reference_throughput_per_user(&cfg, opts)?;
                let model = GprsModel::new(cfg)?;
                let solved = model.solve(opts, None)?;
                if targets.satisfied_by(solved.measures(), reference) {
                    found = Some(reserved);
                    break;
                }
            }
            recommended.push(found);
        }
        Ok(PolicyTable {
            rates: rates.to_vec(),
            recommended,
            max_reserved: hi,
        })
    }

    /// The rate grid.
    pub fn rates(&self) -> &[f64] {
        &self.rates
    }

    /// The per-rate recommendations (aligned with [`rates`](Self::rates)).
    pub fn recommendations(&self) -> &[Option<usize>] {
        &self.recommended
    }

    /// Recommends a reservation for an arbitrary rate estimate by
    /// *conservative* lookup: the entry of the smallest grid rate that is
    /// `>= rate` (rounding the load up). Estimates above the grid fall
    /// back to the last entry; infeasible entries surface as `None`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is negative or non-finite.
    pub fn recommend(&self, rate: f64) -> Option<usize> {
        assert!(rate.is_finite() && rate >= 0.0, "rate must be >= 0");
        let idx = self
            .rates
            .iter()
            .position(|&r| r >= rate)
            .unwrap_or(self.rates.len() - 1);
        self.recommended[idx]
    }

    /// Largest reservation the table was allowed to consider.
    pub fn max_reserved(&self) -> usize {
        self.max_reserved
    }
}

/// Switching inertia of the [`AdaptiveController`].
///
/// A reconfiguration is issued only after the recommendation has
/// *consistently* differed from the current allocation: `up_streak`
/// consecutive observations for an increase, `down_streak` for a
/// decrease. De-allocating reserved PDCHs is usually made slower
/// (larger streak) than allocating them, because under-provisioning
/// violates QoS immediately while over-provisioning merely wastes
/// capacity — the defaults encode that asymmetry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hysteresis {
    /// Consecutive observations required to *increase* the reservation.
    pub up_streak: usize,
    /// Consecutive observations required to *decrease* it.
    pub down_streak: usize,
}

impl Default for Hysteresis {
    fn default() -> Self {
        Hysteresis {
            up_streak: 2,
            down_streak: 4,
        }
    }
}

/// Outcome of one controller observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Keep the current reservation.
    Keep(usize),
    /// Re-dimension the cell.
    Switch {
        /// Reservation before the switch.
        from: usize,
        /// Reservation after the switch.
        to: usize,
    },
    /// The targets are infeasible at the observed load even with the
    /// maximal reservation; the current allocation is kept and admission
    /// control should tighten instead (the paper's own advice for this
    /// regime).
    Infeasible {
        /// The reservation kept in place.
        kept: usize,
    },
}

/// Online PDCH re-dimensioning with hysteresis.
///
/// Feed it load estimates (e.g. windowed arrival-rate measurements from
/// the BSC, or the `gprs-sim` crate's load-supervision hook) at decision
/// epochs; it answers with [`Decision`]s.
#[derive(Debug, Clone)]
pub struct AdaptiveController {
    table: PolicyTable,
    hysteresis: Hysteresis,
    current: usize,
    /// Pending target and how many consecutive epochs it has been
    /// recommended.
    pending: Option<(usize, usize)>,
}

impl AdaptiveController {
    /// Creates a controller starting from `initial` reserved PDCHs.
    pub fn new(table: PolicyTable, hysteresis: Hysteresis, initial: usize) -> Self {
        AdaptiveController {
            table,
            hysteresis,
            current: initial,
            pending: None,
        }
    }

    /// Current reservation.
    pub fn current(&self) -> usize {
        self.current
    }

    /// The policy table driving the controller.
    pub fn table(&self) -> &PolicyTable {
        &self.table
    }

    /// Processes one load estimate and decides whether to re-dimension.
    ///
    /// # Panics
    ///
    /// Panics if `estimated_rate` is negative or non-finite.
    pub fn observe(&mut self, estimated_rate: f64) -> Decision {
        let Some(target) = self.table.recommend(estimated_rate) else {
            self.pending = None;
            return Decision::Infeasible { kept: self.current };
        };
        if target == self.current {
            self.pending = None;
            return Decision::Keep(self.current);
        }
        let streak = match self.pending {
            Some((t, s)) if t == target => s + 1,
            _ => 1,
        };
        let needed = if target > self.current {
            self.hysteresis.up_streak
        } else {
            self.hysteresis.down_streak
        };
        if streak >= needed {
            let from = self.current;
            self.current = target;
            self.pending = None;
            Decision::Switch { from, to: target }
        } else {
            self.pending = Some((target, streak));
            Decision::Keep(self.current)
        }
    }
}

/// Maps a stationary distribution from one state space onto another that
/// differs only in the voice dimension `N_GSM` (the effect of changing
/// the PDCH reservation with `N`, `K`, `M` fixed).
///
/// Growing the voice range injects states unchanged; shrinking it merges
/// the probability mass of now-unreachable voice counts `n > N_GSM'`
/// into the boundary `n = N_GSM'` (physically: ongoing calls beyond the
/// new limit still hold channels, so the boundary state is where the
/// chain actually sits until they drain — the merge is the standard
/// censoring approximation).
///
/// # Errors
///
/// Returns [`ModelError::Config`] if the spaces differ in `K` or `M`.
pub fn map_distribution(
    from: &StateSpace,
    to: &StateSpace,
    pi: &StationaryDistribution,
) -> Result<Vec<f64>, ModelError> {
    if from.k_cap() != to.k_cap() || from.m_cap() != to.m_cap() {
        return Err(ModelError::Config {
            reason: format!(
                "state spaces differ beyond the voice dimension: K {} vs {}, M {} vs {}",
                from.k_cap(),
                to.k_cap(),
                from.m_cap(),
                to.m_cap()
            ),
        });
    }
    let mut out = vec![0.0f64; to.num_states()];
    for (idx, state) in from.states().enumerate() {
        let mut s = state;
        s.n = s.n.min(to.n_gsm());
        out[to.index(s)] += pi.as_slice()[idx];
    }
    Ok(out)
}

/// One sampled point of a reconfiguration transient.
#[derive(Debug, Clone)]
pub struct TransientPoint {
    /// Time since the switch, seconds.
    pub time: f64,
    /// Measures computed from `π(t)` under the new configuration.
    pub measures: Measures,
    /// Total-variation distance of `π(t)` to the new stationary law.
    pub distance_to_steady_state: f64,
}

/// Evaluates a PDCH re-dimensioning transiently: the chain starts in the
/// *old* configuration's stationary law (mapped onto the new state
/// space via [`map_distribution`]) and relaxes under the *new*
/// generator. Returns one [`TransientPoint`] per requested time. The
/// new generator is assembled once and uniformized for every horizon.
///
/// The distance column answers the controller-design question "how long
/// must a decision epoch be": steady-state reasoning about the new
/// configuration is sound once the distance is small.
///
/// # Errors
///
/// Propagates construction/solve errors; the configurations must agree
/// in everything except `reserved_pdchs` (enforced through the state
/// spaces' `K`/`M` check in [`map_distribution`]).
pub fn reconfiguration_transient(
    old: &CellConfig,
    new: &CellConfig,
    times: &[f64],
    opts: &SolveOptions,
) -> Result<Vec<TransientPoint>, ModelError> {
    let old_model = GprsModel::new(old.clone())?;
    let new_model = GprsModel::new(new.clone())?;
    let old_solved = old_model.solve(opts, None)?;
    let new_solved = new_model.solve(opts, None)?;
    let pi0 = map_distribution(
        old_model.space(),
        new_model.space(),
        old_solved.stationary(),
    )?;
    let target = new_solved.stationary().as_slice();
    let generator = new_model.assemble_sparse()?;
    let mut points = Vec::with_capacity(times.len());
    for &t in times {
        let pi_t = transient::solve_transient(&generator, &pi0, t)?;
        let distance = pi_t
            .iter()
            .zip(target)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 2.0;
        let measures = Measures::compute(&new_model, &StationaryDistribution::new(pi_t));
        points.push(TransientPoint {
            time: t,
            measures,
            distance_to_steady_state: distance,
        });
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprs_traffic::TrafficModel;

    fn small_base() -> CellConfig {
        CellConfig::builder()
            .traffic_model(TrafficModel::Model3)
            .total_channels(6)
            .reserved_pdchs(1)
            .buffer_capacity(8)
            .max_gprs_sessions(3)
            .call_arrival_rate(0.3)
            .build()
            .unwrap()
    }

    fn small_table(targets: QosTargets) -> PolicyTable {
        PolicyTable::compute(
            &small_base(),
            &targets,
            &[0.1, 0.4, 0.8, 1.5],
            0..=4,
            &SolveOptions::quick(),
        )
        .unwrap()
    }

    #[test]
    fn empty_targets_are_always_satisfied() {
        let t = QosTargets::new();
        assert!(t.is_empty());
        let table = small_table(t);
        // Minimal reservation everywhere.
        assert!(table.recommendations().iter().all(|&r| r == Some(0)));
    }

    #[test]
    fn loss_targets_demand_more_pdchs_at_higher_load() {
        let table = small_table(QosTargets::new().max_packet_loss(9e-2));
        let recs: Vec<_> = table.recommendations().to_vec();
        // Feasible somewhere, and non-decreasing along the grid.
        assert!(recs.iter().any(|r| r.is_some()));
        let known: Vec<usize> = recs.iter().flatten().copied().collect();
        for w in known.windows(2) {
            assert!(w[1] >= w[0], "recommendation decreased with load: {recs:?}");
        }
    }

    #[test]
    fn conservative_lookup_rounds_up() {
        let table = small_table(QosTargets::new().max_packet_loss(9e-2));
        // A rate between grid points must use the upper neighbour.
        let between = table.recommend(0.6);
        let upper = table.recommendations()[2]; // grid rate 0.8
        assert_eq!(between, upper);
        // Above-grid estimates clamp to the last entry.
        assert_eq!(table.recommend(99.0), table.recommendations()[3]);
    }

    #[test]
    fn rejects_bad_grids() {
        let base = small_base();
        let opts = SolveOptions::quick();
        assert!(PolicyTable::compute(&base, &QosTargets::new(), &[], 0..=2, &opts).is_err());
        assert!(
            PolicyTable::compute(&base, &QosTargets::new(), &[0.5, 0.5], 0..=2, &opts).is_err()
        );
        assert!(PolicyTable::compute(
            &base,
            &QosTargets::new(),
            &[0.5],
            0..=6, // = total channels: would leave no voice channel
            &opts
        )
        .is_err());
    }

    #[test]
    fn controller_switches_only_after_streak() {
        let table = small_table(QosTargets::new().max_packet_loss(9e-2));
        // Find two rates with different recommendations.
        let lo_rate = 0.1;
        let hi_rate = 1.5;
        let lo = table.recommend(lo_rate).unwrap();
        let hi = table.recommend(hi_rate).unwrap();
        assert_ne!(lo, hi, "test needs distinct recommendations");

        let hysteresis = Hysteresis {
            up_streak: 3,
            down_streak: 2,
        };
        let mut ctl = AdaptiveController::new(table, hysteresis, lo);
        // Two high observations: not yet.
        assert_eq!(ctl.observe(hi_rate), Decision::Keep(lo));
        assert_eq!(ctl.observe(hi_rate), Decision::Keep(lo));
        // Third consecutive: switch.
        assert_eq!(ctl.observe(hi_rate), Decision::Switch { from: lo, to: hi });
        assert_eq!(ctl.current(), hi);
    }

    #[test]
    fn flapping_estimates_do_not_switch() {
        let table = small_table(QosTargets::new().max_packet_loss(9e-2));
        let lo = table.recommend(0.1).unwrap();
        let mut ctl = AdaptiveController::new(table, Hysteresis::default(), lo);
        for _ in 0..10 {
            // Alternating high/low never builds a streak.
            assert!(matches!(ctl.observe(1.5), Decision::Keep(_)));
            assert!(matches!(ctl.observe(0.1), Decision::Keep(_)));
        }
        assert_eq!(ctl.current(), lo);
    }

    #[test]
    fn matching_recommendation_resets_pending() {
        let table = small_table(QosTargets::new().max_packet_loss(9e-2));
        let lo = table.recommend(0.1).unwrap();
        let hi = table.recommend(1.5).unwrap();
        assert_ne!(lo, hi);
        let mut ctl = AdaptiveController::new(
            table,
            Hysteresis {
                up_streak: 2,
                down_streak: 2,
            },
            lo,
        );
        let _ = ctl.observe(1.5); // streak 1
        let _ = ctl.observe(0.1); // back to current: reset
                                  // Needs a fresh streak of 2 again.
        assert!(matches!(ctl.observe(1.5), Decision::Keep(_)));
        assert!(matches!(ctl.observe(1.5), Decision::Switch { .. }));
    }

    #[test]
    fn infeasible_load_is_reported() {
        // Impossible target: zero loss at crushing load.
        let table = small_table(QosTargets::new().max_packet_loss(0.0));
        let mut ctl = AdaptiveController::new(table, Hysteresis::default(), 1);
        match ctl.observe(1.5) {
            Decision::Infeasible { kept } => assert_eq!(kept, 1),
            other => panic!("expected Infeasible, got {other:?}"),
        }
    }

    #[test]
    fn map_distribution_conserves_mass_both_ways() {
        let mut cfg_small = small_base();
        cfg_small.reserved_pdchs = 3; // N_GSM = 3
        let mut cfg_big = small_base();
        cfg_big.reserved_pdchs = 1; // N_GSM = 5
        let small = GprsModel::new(cfg_small).unwrap();
        let big = GprsModel::new(cfg_big).unwrap();
        let opts = SolveOptions::quick();
        let pi_small = small.solve(&opts, None).unwrap();
        let pi_big = big.solve(&opts, None).unwrap();

        // Grow: inject.
        let grown = map_distribution(small.space(), big.space(), pi_small.stationary()).unwrap();
        assert!((grown.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // Shrink: censor to the boundary.
        let shrunk = map_distribution(big.space(), small.space(), pi_big.stationary()).unwrap();
        assert!((shrunk.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The shrunk law's boundary voice state absorbed the tail mass:
        // P(n = 3) under the new space >= P(n = 3) under the old.
        let boundary_new: f64 = small
            .space()
            .states()
            .enumerate()
            .filter(|(_, s)| s.n == 3)
            .map(|(i, _)| shrunk[i])
            .sum();
        let boundary_old: f64 = big
            .space()
            .states()
            .enumerate()
            .filter(|(_, s)| s.n == 3)
            .map(|(i, _)| pi_big.stationary().as_slice()[i])
            .sum();
        assert!(boundary_new >= boundary_old - 1e-12);
    }

    #[test]
    fn map_distribution_rejects_mismatched_buffers() {
        let a = StateSpace::new(3, 5, 2);
        let b = StateSpace::new(3, 6, 2);
        let pi = StationaryDistribution::new(vec![1.0 / a.num_states() as f64; a.num_states()]);
        assert!(map_distribution(&a, &b, &pi).is_err());
    }

    #[test]
    fn reconfiguration_relaxes_to_the_new_steady_state() {
        let old = small_base();
        let mut new = small_base();
        new.reserved_pdchs = 3;
        let pts =
            reconfiguration_transient(&old, &new, &[0.0, 10.0, 2000.0], &SolveOptions::quick())
                .unwrap();
        assert_eq!(pts.len(), 3);
        // Distance decreases and ends near zero.
        assert!(pts[0].distance_to_steady_state >= pts[1].distance_to_steady_state);
        assert!(pts[2].distance_to_steady_state < 1e-3);
        // Measures stay physical throughout.
        for p in &pts {
            assert!(p.measures.packet_loss_probability >= 0.0);
            assert!(p.measures.packet_loss_probability <= 1.0);
            assert!(p.measures.carried_data_traffic >= 0.0);
        }
    }
}
