//! Cell configuration: the paper's Table 2 base parameters plus the
//! experiment knobs, with a validating builder.

use crate::coding::CodingScheme;
use crate::error::ModelError;
use gprs_queueing::mmcc::MmccQueue;
use gprs_queueing::QueueingError;
use gprs_traffic::{SessionParams, TrafficModel};

/// Complete parameterization of the single-cell GPRS model.
///
/// Defaults (via [`CellConfig::builder`]) reproduce the paper's Table 2
/// base setting with traffic model 3:
///
/// | Parameter | Base value |
/// |---|---|
/// | physical channels `N` | 20 |
/// | reserved PDCHs `N_GPRS` | 1 |
/// | BSC buffer `K` | 100 packets |
/// | coding scheme | CS-2 (13.4 kbit/s per PDCH) |
/// | GSM call duration `1/μ_GSM` | 120 s |
/// | GSM dwell time `1/μ_h,GSM` | 60 s |
/// | GPRS dwell time `1/μ_h,GPRS` | 120 s |
/// | GPRS share of arrivals | 5 % |
/// | TCP throttle threshold `η` | 0.7 |
#[derive(Debug, Clone, PartialEq)]
pub struct CellConfig {
    /// Total physical channels in the cell, `N`.
    pub total_channels: usize,
    /// Channels permanently reserved as PDCHs, `N_GPRS`.
    pub reserved_pdchs: usize,
    /// BSC buffer capacity in packets, `K`.
    pub buffer_capacity: usize,
    /// TCP flow-control threshold `η ∈ (0, 1]`; arrivals are throttled to
    /// the service rate once the buffer exceeds `η·K`. `η = 1` disables
    /// flow control.
    pub tcp_threshold: f64,
    /// Channel coding scheme (fixes the per-PDCH service rate).
    pub coding_scheme: CodingScheme,
    /// Mean GSM voice call duration `1/μ_GSM`, seconds.
    pub gsm_call_duration: f64,
    /// Mean GSM dwell time `1/μ_h,GSM`, seconds.
    pub gsm_dwell_time: f64,
    /// Mean GPRS session dwell time `1/μ_h,GPRS`, seconds.
    pub gprs_dwell_time: f64,
    /// Fraction of arriving calls that are GPRS session requests
    /// (the paper's "percentage of GPRS users"), in `(0, 1)`.
    pub gprs_fraction: f64,
    /// Combined GSM/GPRS call arrival rate, calls per second (the
    /// figures' x-axis).
    pub call_arrival_rate: f64,
    /// Admission limit on concurrently active GPRS sessions, `M`.
    pub max_gprs_sessions: usize,
    /// The 3GPP traffic model parameters of one session.
    pub traffic: SessionParams,
    /// Radio block error rate (BLER) under RLC acknowledged mode, in
    /// `[0, 1)`. Erred blocks are retransmitted by the RLC ARQ — the
    /// paper's "future work" throughput-reduction mechanism. Each block
    /// then needs Geometric(1 − BLER) transmissions, scaling the
    /// effective per-PDCH rate by `1 − BLER`. The paper's own setting
    /// (losses absorbed by FEC, no retransmissions) is `0`.
    pub block_error_rate: f64,
}

impl CellConfig {
    /// Starts a builder pre-loaded with the Table 2 base setting and
    /// traffic model 3.
    pub fn builder() -> CellConfigBuilder {
        CellConfigBuilder::new()
    }

    /// The paper's base setting (Table 2) for a given traffic model,
    /// at the given combined call arrival rate. `M` is taken from
    /// Table 3 (50 for models 1–2, 20 for model 3).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] if `call_arrival_rate` is invalid.
    pub fn paper_base(model: TrafficModel, call_arrival_rate: f64) -> Result<Self, ModelError> {
        CellConfigBuilder::new()
            .traffic_model(model)
            .call_arrival_rate(call_arrival_rate)
            .build()
    }

    /// On-demand channels usable by GSM voice, `N_GSM = N − N_GPRS`.
    pub fn gsm_channels(&self) -> usize {
        self.total_channels - self.reserved_pdchs
    }

    /// New-GSM-call arrival rate, `λ_GSM = (1 − f_GPRS)·λ`.
    pub fn gsm_arrival_rate(&self) -> f64 {
        (1.0 - self.gprs_fraction) * self.call_arrival_rate
    }

    /// New-GPRS-session arrival rate, `λ_GPRS = f_GPRS·λ`.
    pub fn gprs_arrival_rate(&self) -> f64 {
        self.gprs_fraction * self.call_arrival_rate
    }

    /// GSM call completion rate `μ_GSM`.
    pub fn gsm_completion_rate(&self) -> f64 {
        1.0 / self.gsm_call_duration
    }

    /// GSM handover (dwell expiry) rate `μ_h,GSM`.
    pub fn gsm_handover_rate(&self) -> f64 {
        1.0 / self.gsm_dwell_time
    }

    /// GPRS session completion rate `μ_GPRS` (from the traffic model).
    pub fn gprs_completion_rate(&self) -> f64 {
        self.traffic.session_completion_rate()
    }

    /// GPRS handover (dwell expiry) rate `μ_h,GPRS`.
    pub fn gprs_handover_rate(&self) -> f64 {
        1.0 / self.gprs_dwell_time
    }

    /// The voice population at incoming GSM handover rate
    /// `handover_arrival_rate`: the Erlang loss system of `N_GSM`
    /// channels, arrivals `λ_GSM + λ_h,GSM` and departures
    /// `μ_GSM + μ_h,GSM`.
    pub(crate) fn voice_queue(
        &self,
        handover_arrival_rate: f64,
    ) -> Result<MmccQueue, QueueingError> {
        MmccQueue::new(
            self.gsm_channels(),
            self.gsm_arrival_rate() + handover_arrival_rate,
            self.gsm_completion_rate() + self.gsm_handover_rate(),
        )
    }

    /// The GPRS session population at incoming GPRS handover rate
    /// `handover_arrival_rate`: the Erlang loss system of `M` sessions,
    /// arrivals `λ_GPRS + λ_h,GPRS` and departures
    /// `μ_GPRS + μ_h,GPRS`.
    pub(crate) fn session_queue(
        &self,
        handover_arrival_rate: f64,
    ) -> Result<MmccQueue, QueueingError> {
        MmccQueue::new(
            self.max_gprs_sessions,
            self.gprs_arrival_rate() + handover_arrival_rate,
            self.gprs_completion_rate() + self.gprs_handover_rate(),
        )
    }

    /// Effective per-PDCH service rate in packets/s: the coding-scheme
    /// rate degraded by ARQ retransmissions, `μ_service·(1 − BLER)`.
    /// With the paper's `BLER = 0` this is exactly the coding-scheme
    /// rate (CS-2: ≈ 3.49 packets/s).
    pub fn packet_service_rate(&self) -> f64 {
        self.coding_scheme.packet_service_rate() * (1.0 - self.block_error_rate)
    }

    /// The buffer threshold `η·K` above which TCP throttling engages.
    pub fn throttle_level(&self) -> f64 {
        self.tcp_threshold * self.buffer_capacity as f64
    }

    /// Number of states of the resulting CTMC:
    /// `½(M+1)(M+2)·(N_GSM+1)·(K+1)`.
    pub fn num_states(&self) -> usize {
        let m = self.max_gprs_sessions;
        (m + 1) * (m + 2) / 2 * (self.gsm_channels() + 1) * (self.buffer_capacity + 1)
    }

    /// Validates all parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] describing the first violated
    /// constraint.
    pub fn validate(&self) -> Result<(), ModelError> {
        let fail = |reason: String| Err(ModelError::Config { reason });
        if self.total_channels == 0 || self.total_channels > 512 {
            return fail(format!(
                "total_channels must be in 1..=512, got {}",
                self.total_channels
            ));
        }
        if self.reserved_pdchs > self.total_channels {
            return fail(format!(
                "reserved_pdchs ({}) exceeds total_channels ({})",
                self.reserved_pdchs, self.total_channels
            ));
        }
        if self.buffer_capacity == 0 {
            return fail("buffer_capacity must be >= 1".into());
        }
        if !(self.tcp_threshold > 0.0 && self.tcp_threshold <= 1.0) {
            return fail(format!(
                "tcp_threshold must lie in (0, 1], got {}",
                self.tcp_threshold
            ));
        }
        if !(self.gprs_fraction > 0.0 && self.gprs_fraction < 1.0) {
            return fail(format!(
                "gprs_fraction must lie strictly in (0, 1), got {}",
                self.gprs_fraction
            ));
        }
        if !(self.call_arrival_rate.is_finite() && self.call_arrival_rate > 0.0) {
            return fail(format!(
                "call_arrival_rate must be positive, got {}",
                self.call_arrival_rate
            ));
        }
        if self.max_gprs_sessions == 0 {
            return fail("max_gprs_sessions must be >= 1".into());
        }
        if !(self.block_error_rate.is_finite() && (0.0..1.0).contains(&self.block_error_rate)) {
            return fail(format!(
                "block_error_rate must lie in [0, 1), got {}",
                self.block_error_rate
            ));
        }
        for (name, v) in [
            ("gsm_call_duration", self.gsm_call_duration),
            ("gsm_dwell_time", self.gsm_dwell_time),
            ("gprs_dwell_time", self.gprs_dwell_time),
        ] {
            if !(v.is_finite() && v > 0.0) {
                return fail(format!("{name} must be positive, got {v}"));
            }
        }
        // State indices are stored as `u32` (the sparse builder and the
        // blocked kernel's capture assert it), so a larger chain — or
        // one whose count does not even fit a `usize` — is a
        // configuration error, not an allocation abort.
        let m = self.max_gprs_sessions;
        let states = m
            .checked_add(1)
            .and_then(|a| a.checked_mul(m.checked_add(2)?))
            .map(|pairs| pairs / 2)
            .and_then(|phases| phases.checked_mul(self.gsm_channels() + 1))
            .and_then(|phases| phases.checked_mul(self.buffer_capacity.checked_add(1)?));
        match states {
            Some(n) if n <= u32::MAX as usize => Ok(()),
            _ => fail(format!(
                "the chain's ½(M+1)(M+2)·(N_GSM+1)·(K+1) states (M = {m}, N_GSM = {}, K = {}) \
                 exceed the u32 state index range",
                self.gsm_channels(),
                self.buffer_capacity
            )),
        }
    }
}

/// Builder for [`CellConfig`]; starts from the Table 2 base setting with
/// traffic model 3 at 0.5 calls/s.
#[derive(Debug, Clone)]
pub struct CellConfigBuilder {
    config: CellConfig,
}

impl Default for CellConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CellConfigBuilder {
    /// Creates a builder with the paper's base values.
    pub fn new() -> Self {
        CellConfigBuilder {
            config: CellConfig {
                total_channels: 20,
                reserved_pdchs: 1,
                buffer_capacity: 100,
                tcp_threshold: 0.7,
                coding_scheme: CodingScheme::Cs2,
                gsm_call_duration: 120.0,
                gsm_dwell_time: 60.0,
                gprs_dwell_time: 120.0,
                gprs_fraction: 0.05,
                call_arrival_rate: 0.5,
                max_gprs_sessions: TrafficModel::Model3.default_max_sessions(),
                traffic: TrafficModel::Model3.params(),
                block_error_rate: 0.0,
            },
        }
    }

    /// Sets the traffic model, also adopting its Table 3 session limit
    /// `M`.
    pub fn traffic_model(mut self, model: TrafficModel) -> Self {
        self.config.traffic = model.params();
        self.config.max_gprs_sessions = model.default_max_sessions();
        self
    }

    /// Sets custom session parameters (keeps the current `M`).
    pub fn traffic_params(mut self, params: SessionParams) -> Self {
        self.config.traffic = params;
        self
    }

    /// Sets the total number of physical channels `N`.
    pub fn total_channels(mut self, n: usize) -> Self {
        self.config.total_channels = n;
        self
    }

    /// Sets the number of reserved PDCHs `N_GPRS`.
    pub fn reserved_pdchs(mut self, n: usize) -> Self {
        self.config.reserved_pdchs = n;
        self
    }

    /// Sets the BSC buffer capacity `K`.
    pub fn buffer_capacity(mut self, k: usize) -> Self {
        self.config.buffer_capacity = k;
        self
    }

    /// Sets the TCP throttle threshold `η`.
    pub fn tcp_threshold(mut self, eta: f64) -> Self {
        self.config.tcp_threshold = eta;
        self
    }

    /// Sets the coding scheme.
    pub fn coding_scheme(mut self, cs: CodingScheme) -> Self {
        self.config.coding_scheme = cs;
        self
    }

    /// Sets the radio block error rate (BLER) under RLC acknowledged
    /// mode; `0` (the paper's setting) means no retransmissions.
    pub fn block_error_rate(mut self, bler: f64) -> Self {
        self.config.block_error_rate = bler;
        self
    }

    /// Sets the combined call arrival rate (calls/s).
    pub fn call_arrival_rate(mut self, rate: f64) -> Self {
        self.config.call_arrival_rate = rate;
        self
    }

    /// Sets the GPRS share of arrivals (e.g. `0.05` for 5 %).
    pub fn gprs_fraction(mut self, f: f64) -> Self {
        self.config.gprs_fraction = f;
        self
    }

    /// Sets the GPRS session admission limit `M`.
    pub fn max_gprs_sessions(mut self, m: usize) -> Self {
        self.config.max_gprs_sessions = m;
        self
    }

    /// Sets the mean GSM call duration (seconds).
    pub fn gsm_call_duration(mut self, secs: f64) -> Self {
        self.config.gsm_call_duration = secs;
        self
    }

    /// Sets the mean GSM dwell time (seconds).
    pub fn gsm_dwell_time(mut self, secs: f64) -> Self {
        self.config.gsm_dwell_time = secs;
        self
    }

    /// Sets the mean GPRS session dwell time (seconds).
    pub fn gprs_dwell_time(mut self, secs: f64) -> Self {
        self.config.gprs_dwell_time = secs;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::Config`] if any parameter is out of range.
    pub fn build(self) -> Result<CellConfig, ModelError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn base_setting_matches_table2() {
        let c = CellConfig::builder().build().unwrap();
        assert_eq!(c.total_channels, 20);
        assert_eq!(c.reserved_pdchs, 1);
        assert_eq!(c.buffer_capacity, 100);
        assert_eq!(c.gsm_channels(), 19);
        assert!((c.gsm_call_duration - 120.0).abs() < 1e-12);
        assert!((c.gsm_dwell_time - 60.0).abs() < 1e-12);
        assert!((c.gprs_dwell_time - 120.0).abs() < 1e-12);
        assert!((c.gprs_fraction - 0.05).abs() < 1e-12);
        assert!((c.tcp_threshold - 0.7).abs() < 1e-12);
        assert_eq!(c.coding_scheme, CodingScheme::Cs2);
        // μ_service = 13.4 kbit/s / 3840 bit.
        assert!((c.packet_service_rate() - 13400.0 / 3840.0).abs() < 1e-9);
    }

    #[test]
    fn arrival_split() {
        let c = CellConfig::builder()
            .call_arrival_rate(1.0)
            .build()
            .unwrap();
        assert!((c.gsm_arrival_rate() - 0.95).abs() < 1e-12);
        assert!((c.gprs_arrival_rate() - 0.05).abs() < 1e-12);
    }

    #[test]
    fn block_errors_scale_the_effective_service_rate() {
        let clean = CellConfig::builder().build().unwrap();
        let noisy = CellConfig::builder()
            .block_error_rate(0.25)
            .build()
            .unwrap();
        assert!((noisy.packet_service_rate() - 0.75 * clean.packet_service_rate()).abs() < 1e-12);
        // The paper's setting is the default: no retransmissions.
        assert_eq!(clean.block_error_rate, 0.0);
    }

    #[test]
    fn bler_outside_unit_interval_is_rejected() {
        assert!(CellConfig::builder().block_error_rate(1.0).build().is_err());
        assert!(CellConfig::builder()
            .block_error_rate(-0.1)
            .build()
            .is_err());
        assert!(CellConfig::builder()
            .block_error_rate(f64::NAN)
            .build()
            .is_err());
        assert!(CellConfig::builder().block_error_rate(0.99).build().is_ok());
    }

    #[test]
    fn traffic_model_sets_session_limit() {
        let c = CellConfig::builder()
            .traffic_model(TrafficModel::Model1)
            .build()
            .unwrap();
        assert_eq!(c.max_gprs_sessions, 50);
        assert!((c.gprs_completion_rate() - 1.0 / 2122.5).abs() < 1e-12);
        let c = CellConfig::builder()
            .traffic_model(TrafficModel::Model3)
            .build()
            .unwrap();
        assert_eq!(c.max_gprs_sessions, 20);
    }

    #[test]
    fn state_count_formula() {
        // Paper: ½(M+1)(M+2)(N_GSM+1)(K+1); base + TM3 =>
        // 231 · 20 · 101.
        let c = CellConfig::builder().build().unwrap();
        assert_eq!(c.num_states(), 231 * 20 * 101);
    }

    #[test]
    fn throttle_level() {
        let c = CellConfig::builder().build().unwrap();
        assert!((c.throttle_level() - 70.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        assert!(CellConfig::builder().total_channels(0).build().is_err());
        assert!(CellConfig::builder()
            .total_channels(4)
            .reserved_pdchs(5)
            .build()
            .is_err());
        assert!(CellConfig::builder().buffer_capacity(0).build().is_err());
        assert!(CellConfig::builder().tcp_threshold(0.0).build().is_err());
        assert!(CellConfig::builder().tcp_threshold(1.5).build().is_err());
        assert!(CellConfig::builder().gprs_fraction(0.0).build().is_err());
        assert!(CellConfig::builder().gprs_fraction(1.0).build().is_err());
        assert!(CellConfig::builder()
            .call_arrival_rate(0.0)
            .build()
            .is_err());
        assert!(CellConfig::builder().max_gprs_sessions(0).build().is_err());
        assert!(CellConfig::builder()
            .gsm_call_duration(-5.0)
            .build()
            .is_err());
    }

    #[test]
    fn validation_rejects_state_counts_beyond_the_u32_index_range() {
        let too_big = |c: CellConfig| {
            let err = c.validate().unwrap_err();
            assert!(
                matches!(&err, ModelError::Config { reason } if reason.contains("u32")),
                "{err}"
            );
        };
        // (M+1)(M+2) overflows a u64 (and would wrap in `num_states`).
        let mut c = CellConfig::builder().build().unwrap();
        c.max_gprs_sessions = 1 << 32;
        too_big(c);
        // K+1 overflows; then a K whose product with the phases does.
        let mut c = CellConfig::builder().build().unwrap();
        c.buffer_capacity = usize::MAX;
        too_big(c.clone());
        c.buffer_capacity = 1 << 60;
        too_big(c);
        // No overflow, but past u32::MAX: 231 · 20 · 1_000_001 states.
        assert!(CellConfig::builder()
            .buffer_capacity(1_000_000)
            .build()
            .is_err());
        // The largest count that fits stays valid: 1 · 1 · 2^32 states.
        let mut c = CellConfig::builder()
            .total_channels(1)
            .reserved_pdchs(1)
            .build()
            .unwrap();
        c.max_gprs_sessions = 1;
        c.buffer_capacity = (u32::MAX as usize) / 3 - 1;
        assert!(c.validate().is_ok());
        c.buffer_capacity += 2;
        too_big(c);
    }

    #[test]
    fn all_reserved_pdchs_means_no_gsm() {
        // A pure packet cell is allowed: N_GSM = 0.
        let c = CellConfig::builder()
            .total_channels(8)
            .reserved_pdchs(8)
            .build()
            .unwrap();
        assert_eq!(c.gsm_channels(), 0);
    }

    #[test]
    fn paper_base_convenience() {
        let c = CellConfig::paper_base(TrafficModel::Model1, 0.4).unwrap();
        assert_eq!(c.max_gprs_sessions, 50);
        assert!((c.call_arrival_rate - 0.4).abs() < 1e-12);
        assert!(CellConfig::paper_base(TrafficModel::Model1, -0.1).is_err());
    }
}
