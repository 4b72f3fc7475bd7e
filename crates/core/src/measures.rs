//! Performance measures — the paper's Eqs. (6)–(11).
//!
//! * **CVT** carried voice traffic: mean busy voice channels (Eq. 6).
//! * **AGS** average number of GPRS sessions (Eq. 7).
//! * **CDT** carried data traffic: mean busy PDCHs (Eq. 8).
//! * **PLP** packet loss probability (Eq. 9): `1 − CDT·μ_service/λ_avg`
//!   where `λ_avg` is the mean *offered* packet rate.
//! * **QD** queueing delay (Eq. 10): `MQL / (CDT·μ_service)` — by
//!   Little's law, the mean packet sojourn in the BSC buffer.
//! * **ATU** average throughput per user (Eq. 11):
//!   `CDT·μ_service / AGS`, also expressed in kbit/s.
//!
//! CVT, AGS and the two blocking probabilities come in closed form from
//! the balanced Erlang systems; they are *exact* for this model (the
//! voice and session populations are M/M/c/c marginals of the chain —
//! the tests verify the solved chain agrees).

use crate::generator::GprsModel;
use crate::state::CellState;
use gprs_ctmc::StationaryDistribution;
use gprs_traffic::params::PACKET_SIZE_BITS;

/// All steady-state performance measures of one solved configuration.
/// `Default` is the all-zero record — a decode buffer for codecs, not
/// a meaningful operating point.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Measures {
    /// The combined call arrival rate this point was solved at.
    pub call_arrival_rate: f64,
    /// CDT: mean number of PDCHs carrying data (Eq. 8).
    pub carried_data_traffic: f64,
    /// Mean number of packets in the BSC buffer.
    pub mean_queue_length: f64,
    /// Mean *offered* packet rate `λ_avg` (packets/s), including what
    /// full-buffer states would have accepted.
    pub offered_packet_rate: f64,
    /// Mean accepted packet rate (packets/s); equals the throughput in
    /// steady state.
    pub accepted_packet_rate: f64,
    /// Data throughput `CDT·μ_service` (packets/s).
    pub data_throughput: f64,
    /// PLP: probability an arriving packet finds the buffer full (Eq. 9).
    pub packet_loss_probability: f64,
    /// QD: mean time a packet spends in the BSC buffer, seconds (Eq. 10).
    pub queueing_delay: f64,
    /// ATU in packets/s (Eq. 11).
    pub throughput_per_user_pkts: f64,
    /// ATU in kbit/s (packets × 3840 bit).
    pub throughput_per_user_kbps: f64,
    /// CVT: mean busy voice channels (Eq. 6; closed form).
    pub carried_voice_traffic: f64,
    /// AGS: mean active GPRS sessions (Eq. 7; closed form).
    pub avg_gprs_sessions: f64,
    /// GSM voice blocking probability `π_GSM,N_GSM` (closed form).
    pub gsm_blocking_probability: f64,
    /// GPRS session blocking probability `π_GPRS,M` (closed form).
    pub gprs_blocking_probability: f64,
    /// Balanced incoming GSM handover rate `λ_h,GSM`.
    pub gsm_handover_rate: f64,
    /// Balanced incoming GPRS handover rate `λ_h,GPRS`.
    pub gprs_handover_rate: f64,
}

impl Measures {
    /// Computes all measures from a solved stationary distribution.
    ///
    /// # Panics
    ///
    /// Panics if `pi` does not match the model's state count.
    pub fn compute(model: &GprsModel, pi: &StationaryDistribution) -> Self {
        Self::compute_from_slice(model, pi.as_slice())
    }

    /// [`compute`](Self::compute) from a raw probability slice — the
    /// entry point for workspace-based solves whose distribution lives
    /// in a reusable buffer rather than a [`StationaryDistribution`].
    ///
    /// # Panics
    ///
    /// Panics if `pi` does not match the model's state count.
    pub fn compute_from_slice(model: &GprsModel, pi: &[f64]) -> Self {
        let space = model.space();
        assert_eq!(
            pi.len(),
            space.num_states(),
            "distribution does not match model"
        );
        let mu_service = model.config().packet_service_rate();
        let k_cap = space.k_cap();

        let mut cdt = 0.0f64;
        let mut mql = 0.0f64;
        let mut offered = 0.0f64;
        let mut accepted = 0.0f64;
        // The phases in index order, each column's levels innermost:
        // the states in index order, with no per-state decode.
        for ((n, m, r), col) in space.phases().zip(pi.chunks_exact(k_cap + 1)) {
            for (k, &p) in col.iter().enumerate() {
                if p == 0.0 {
                    continue;
                }
                cdt += p * model.busy_pdchs(k, n) as f64;
                mql += p * k as f64;
                let rate = model.offered_packet_rate(CellState { n, k, m, r });
                offered += p * rate;
                if k < k_cap {
                    accepted += p * rate;
                }
            }
        }

        let throughput = cdt * mu_service;
        let plp = if offered > 0.0 {
            (1.0 - throughput / offered).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let qd = if throughput > 0.0 {
            mql / throughput
        } else {
            0.0
        };

        let gsm = model.balanced_gsm();
        let gprs = model.balanced_gprs();
        let ags = gprs.queue.mean_busy();
        let atu_pkts = if ags > 0.0 { throughput / ags } else { 0.0 };

        Measures {
            call_arrival_rate: model.config().call_arrival_rate,
            carried_data_traffic: cdt,
            mean_queue_length: mql,
            offered_packet_rate: offered,
            accepted_packet_rate: accepted,
            data_throughput: throughput,
            packet_loss_probability: plp,
            queueing_delay: qd,
            throughput_per_user_pkts: atu_pkts,
            throughput_per_user_kbps: atu_pkts * PACKET_SIZE_BITS / 1000.0,
            carried_voice_traffic: gsm.queue.mean_busy(),
            avg_gprs_sessions: ags,
            gsm_blocking_probability: gsm.queue.blocking_probability(),
            gprs_blocking_probability: gprs.queue.blocking_probability(),
            gsm_handover_rate: gsm.handover_arrival_rate,
            gprs_handover_rate: gprs.handover_arrival_rate,
        }
    }
}

impl GprsModel {
    /// Marginal distribution of the BSC buffer occupancy `k` under `pi`
    /// — what a planner needs beyond the mean (Eq. 10 reports only the
    /// mean delay; the tail of this marginal drives delay jitter and the
    /// loss events of Eq. 9).
    ///
    /// # Panics
    ///
    /// Panics if `pi` does not match the model's state count.
    pub fn buffer_distribution(&self, pi: &StationaryDistribution) -> Vec<f64> {
        let space = self.space();
        assert_eq!(
            pi.num_states(),
            space.num_states(),
            "distribution does not match model"
        );
        pi.marginal(space.k_cap() + 1, |idx| space.decode(idx).k)
    }

    /// Tail probability `P(k >= level)` of the buffer occupancy.
    ///
    /// # Panics
    ///
    /// Panics if `pi` does not match the model or `level > K`.
    pub fn buffer_tail_probability(&self, pi: &StationaryDistribution, level: usize) -> f64 {
        let dist = self.buffer_distribution(pi);
        assert!(level < dist.len(), "level {level} exceeds buffer capacity");
        dist[level..].iter().sum()
    }

    /// Smallest occupancy `x` with `P(k <= x) >= q` (the `q`-quantile of
    /// the buffer marginal), for dimensioning "delay at percentile"
    /// requirements.
    ///
    /// # Panics
    ///
    /// Panics if `pi` does not match the model or `q` is outside
    /// `(0, 1]`.
    pub fn buffer_occupancy_quantile(&self, pi: &StationaryDistribution, q: f64) -> usize {
        assert!(q > 0.0 && q <= 1.0, "quantile must lie in (0, 1]");
        let dist = self.buffer_distribution(pi);
        let mut cum = 0.0;
        for (k, &p) in dist.iter().enumerate() {
            cum += p;
            if cum >= q - 1e-12 {
                return k;
            }
        }
        dist.len() - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CellConfig;
    use gprs_ctmc::solver::{solve_gauss_seidel, SolveOptions};
    use gprs_traffic::TrafficModel;
    use proptest::prelude::*;

    /// `compute_from_slice`'s four sums by the per-state formula:
    /// every index decoded on its own, in index order.
    fn per_state_sums(model: &GprsModel, pi: &[f64]) -> [f64; 4] {
        let space = model.space();
        let k_cap = space.k_cap();
        let mut sums = [0.0f64; 4];
        for (idx, &p) in pi.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            let s = space.decode(idx);
            sums[0] += p * model.busy_pdchs(s.k, s.n) as f64;
            sums[1] += p * s.k as f64;
            let rate = model.offered_packet_rate(s);
            sums[2] += p * rate;
            if s.k < k_cap {
                sums[3] += p * rate;
            }
        }
        sums
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The phase walk sums what the per-state formula sums, in the
        /// same order, so to the bit; a quarter of the entries are
        /// zero, which both skip.
        #[test]
        fn walked_sums_match_the_per_state_formula(
            shape in (2usize..9, 1usize..18, 1usize..5),
            rate in 0.05f64..2.0,
            seed in 0u64..u64::MAX,
        ) {
            let (channels, buffer, sessions) = shape;
            let config = CellConfig::builder()
                .total_channels(channels)
                .reserved_pdchs(1)
                .buffer_capacity(buffer)
                .max_gprs_sessions(sessions)
                .traffic_model(TrafficModel::Model3)
                .call_arrival_rate(rate)
                .build()
                .unwrap();
            let model = GprsModel::new(config).unwrap();
            let mut state = seed;
            let pi: Vec<f64> = (0..model.space().num_states())
                .map(|_| {
                    state = state
                        .wrapping_mul(6_364_136_223_846_793_005)
                        .wrapping_add(1_442_695_040_888_963_407);
                    let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                    if u < 0.25 { 0.0 } else { u }
                })
                .collect();
            let m = Measures::compute_from_slice(&model, &pi);
            let walked = [
                m.carried_data_traffic,
                m.mean_queue_length,
                m.offered_packet_rate,
                m.accepted_packet_rate,
            ];
            prop_assert_eq!(walked.map(f64::to_bits), per_state_sums(&model, &pi).map(f64::to_bits));
        }
    }

    fn solved_tiny() -> (GprsModel, StationaryDistribution) {
        let config = CellConfig::builder()
            .total_channels(5)
            .reserved_pdchs(1)
            .buffer_capacity(6)
            .max_gprs_sessions(3)
            .traffic_model(TrafficModel::Model3)
            .max_gprs_sessions(3)
            .call_arrival_rate(0.5)
            .build()
            .unwrap();
        let model = GprsModel::new(config).unwrap();
        let guess = model.product_form_guess();
        let sparse = model.assemble_sparse().unwrap();
        let sol = solve_gauss_seidel(&sparse, Some(&guess), &SolveOptions::default()).unwrap();
        (model, sol.pi)
    }

    #[test]
    fn flow_balance_accepted_equals_throughput() {
        // In steady state every accepted packet is eventually served:
        // accepted rate == CDT·μ_service.
        let (model, pi) = solved_tiny();
        let m = Measures::compute(&model, &pi);
        assert!(
            (m.accepted_packet_rate - m.data_throughput).abs()
                < 1e-6 * m.data_throughput.max(1e-12),
            "accepted {} vs throughput {}",
            m.accepted_packet_rate,
            m.data_throughput
        );
    }

    #[test]
    fn solved_marginals_match_closed_forms() {
        // The (n) marginal must be the balanced GSM Erlang distribution,
        // and E[m] the closed-form AGS.
        let (model, pi) = solved_tiny();
        let space = *model.space();
        let n_marginal = pi.marginal(space.n_gsm() + 1, |idx| space.decode(idx).n);
        let erlang = model.balanced_gsm().queue.distribution();
        for (n, &p) in n_marginal.iter().enumerate() {
            assert!(
                (p - erlang[n]).abs() < 1e-7,
                "n = {n}: chain {p} vs erlang {}",
                erlang[n]
            );
        }
        let mean_m: f64 = pi
            .as_slice()
            .iter()
            .enumerate()
            .map(|(idx, &p)| p * space.decode(idx).m as f64)
            .sum();
        let m = Measures::compute(&model, &pi);
        assert!((mean_m - m.avg_gprs_sessions).abs() < 1e-7);
    }

    #[test]
    fn mr_marginal_is_erlang_times_binomial() {
        let (model, pi) = solved_tiny();
        let space = *model.space();
        let tri = space.tri_size();
        let mr = pi.marginal(tri, |idx| {
            let s = space.decode(idx);
            crate::state::StateSpace::tri_index(s.m, s.r)
        });
        let gprs = model.balanced_gprs().queue.distribution();
        let p_off = model.config().traffic.to_ipp().off_probability();
        for m in 0..=space.m_cap() {
            let pmf = gprs_traffic::mmpp::binomial_pmf(m, p_off);
            for (r, &pb) in pmf.iter().enumerate() {
                let expect = gprs[m] * pb;
                let got = mr[crate::state::StateSpace::tri_index(m, r)];
                assert!(
                    (got - expect).abs() < 1e-7,
                    "(m,r)=({m},{r}): {got} vs {expect}"
                );
            }
        }
    }

    #[test]
    fn measures_are_physical() {
        let (model, pi) = solved_tiny();
        let m = Measures::compute(&model, &pi);
        let n_total = model.config().total_channels as f64;
        assert!(m.carried_data_traffic >= 0.0 && m.carried_data_traffic <= n_total);
        assert!(m.carried_voice_traffic >= 0.0 && m.carried_voice_traffic <= n_total);
        assert!((0.0..=1.0).contains(&m.packet_loss_probability));
        assert!((0.0..=1.0).contains(&m.gsm_blocking_probability));
        assert!((0.0..=1.0).contains(&m.gprs_blocking_probability));
        assert!(m.queueing_delay >= 0.0);
        assert!(m.mean_queue_length <= model.config().buffer_capacity as f64);
        assert!(m.throughput_per_user_kbps > 0.0);
        // ATU in kbit/s can never exceed 8 PDCHs worth of CS-2 rate.
        assert!(m.throughput_per_user_kbps <= 8.0 * 13.4 + 1e-9);
    }

    #[test]
    fn offered_at_least_accepted() {
        let (model, pi) = solved_tiny();
        let m = Measures::compute(&model, &pi);
        assert!(m.offered_packet_rate >= m.accepted_packet_rate - 1e-12);
    }

    #[test]
    fn buffer_marginal_is_consistent_with_the_mean() {
        let (model, pi) = solved_tiny();
        let m = Measures::compute(&model, &pi);
        let dist = model.buffer_distribution(&pi);
        assert_eq!(dist.len(), model.config().buffer_capacity + 1);
        let total: f64 = dist.iter().sum();
        assert!((total - 1.0).abs() < 1e-10);
        let mean: f64 = dist.iter().enumerate().map(|(k, &p)| k as f64 * p).sum();
        assert!((mean - m.mean_queue_length).abs() < 1e-10);
    }

    #[test]
    fn buffer_tail_is_monotone_and_anchored() {
        let (model, pi) = solved_tiny();
        assert!((model.buffer_tail_probability(&pi, 0) - 1.0).abs() < 1e-10);
        let k_cap = model.config().buffer_capacity;
        let mut last = 1.0;
        for level in 0..=k_cap {
            let tail = model.buffer_tail_probability(&pi, level);
            assert!(tail <= last + 1e-12, "tail not monotone at {level}");
            assert!(tail >= 0.0);
            last = tail;
        }
        // The full-buffer tail is the loss state's probability mass —
        // positive whenever the model reports loss.
        let m = Measures::compute(&model, &pi);
        if m.packet_loss_probability > 0.0 {
            assert!(model.buffer_tail_probability(&pi, k_cap) > 0.0);
        }
    }

    #[test]
    fn buffer_quantiles_bracket_the_distribution() {
        let (model, pi) = solved_tiny();
        let q50 = model.buffer_occupancy_quantile(&pi, 0.5);
        let q99 = model.buffer_occupancy_quantile(&pi, 0.99);
        assert!(q50 <= q99);
        assert!(q99 <= model.config().buffer_capacity);
        // The q-quantile accumulates at least q of the mass.
        let dist = model.buffer_distribution(&pi);
        let cum: f64 = dist[..=q50].iter().sum();
        assert!(cum >= 0.5 - 1e-9);
    }

    #[test]
    #[should_panic(expected = "quantile must lie in")]
    fn quantile_zero_is_rejected() {
        let (model, pi) = solved_tiny();
        let _ = model.buffer_occupancy_quantile(&pi, 0.0);
    }
}
