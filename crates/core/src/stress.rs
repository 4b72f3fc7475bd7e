//! Deterministic fault-injection config mutation for the resilience
//! stress harness.
//!
//! The harness (`tests/stress_resilience.rs`) feeds the public solve
//! entry points hundreds of *pathological but valid* configurations —
//! extreme load scales, near-zero and near-infinite rates, stiffness
//! ratios spanning far beyond `1e12`, degenerate buffers and channel
//! splits — and asserts the resilient pipeline never panics or hangs:
//! every solve returns `Ok` with a healthy [`crate::SolveHealth`]
//! report or a typed error.
//!
//! Everything here is **deterministic**: the generator is a seeded
//! [`StressRng`] (xorshift64*), so a failing case reproduces from its
//! seed alone. The module deliberately has no dependencies beyond the
//! config types.

use crate::coding::CodingScheme;
use crate::config::CellConfig;
use gprs_traffic::TrafficModel;

/// Cap on the CTMC size of generated configurations, keeping the
/// stress suite's worst-case direct-elimination fallback (`O(n³)`)
/// affordable even under debug assertions.
pub const MAX_STRESS_STATES: usize = 1200;

/// A tiny deterministic xorshift64* generator — reproducible across
/// platforms, no dependencies, good enough to spray parameter space.
#[derive(Debug, Clone)]
pub struct StressRng {
    state: u64,
}

impl StressRng {
    /// Creates a generator from a seed (any value; zero is remapped).
    pub fn new(seed: u64) -> Self {
        StressRng {
            // xorshift state must be non-zero.
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw from `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Log-uniform draw from `[lo, hi]` (both strictly positive):
    /// every decade is equally likely, which is what spreads stiffness
    /// ratios across many orders of magnitude.
    pub fn log_uniform(&mut self, lo: f64, hi: f64) -> f64 {
        debug_assert!(lo > 0.0 && hi > lo);
        (lo.ln() + self.uniform() * (hi.ln() - lo.ln())).exp()
    }

    /// Picks one element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, choices: &'a [T]) -> &'a T {
        &choices[(self.next_u64() % choices.len() as u64) as usize]
    }
}

/// Generates one pathological but *valid* configuration: small state
/// space (bounded by [`MAX_STRESS_STATES`]), parameters pushed to the
/// edges of their validated ranges.
pub fn pathological_config(rng: &mut StressRng) -> CellConfig {
    loop {
        let total_channels = *rng.pick(&[1usize, 2, 4, 8]);
        let reserved = (rng.next_u64() % (total_channels as u64 + 1)) as usize;
        let cfg = CellConfig {
            total_channels,
            reserved_pdchs: reserved,
            buffer_capacity: *rng.pick(&[1usize, 2, 3, 8, 30, 90]),
            // Near-disabled and fully disabled flow control.
            tcp_threshold: *rng.pick(&[1e-9, 0.5, 1.0]),
            coding_scheme: *rng.pick(&[
                CodingScheme::Cs1,
                CodingScheme::Cs2,
                CodingScheme::Cs3,
                CodingScheme::Cs4,
            ]),
            // Durations spanning 18 decades: stiffness ratios between
            // the voice, session and packet processes far beyond 1e12.
            gsm_call_duration: rng.log_uniform(1e-9, 1e9),
            gsm_dwell_time: rng.log_uniform(1e-9, 1e9),
            gprs_dwell_time: rng.log_uniform(1e-9, 1e9),
            gprs_fraction: *rng.pick(&[1e-9, 0.05, 0.5, 1.0 - 1e-9]),
            // Load from starvation to drive-the-cell-to-saturation.
            call_arrival_rate: rng.log_uniform(1e-9, 1e6),
            max_gprs_sessions: *rng.pick(&[1usize, 2, 3]),
            traffic: rng
                .pick(&[
                    TrafficModel::Model1,
                    TrafficModel::Model2,
                    TrafficModel::Model3,
                ])
                .params(),
            // Up to "almost every block retransmitted".
            block_error_rate: *rng.pick(&[0.0, 0.5, 0.999_999]),
        };
        if cfg.num_states() <= MAX_STRESS_STATES && cfg.validate().is_ok() {
            return cfg;
        }
    }
}

/// `count` pathological configurations from one seed — the same seed
/// always produces the same list.
pub fn pathological_configs(seed: u64, count: usize) -> Vec<CellConfig> {
    let mut rng = StressRng::new(seed);
    (0..count).map(|_| pathological_config(&mut rng)).collect()
}

/// Deterministic *invalid* configurations, one per validation
/// constraint: the harness asserts every one is rejected with a typed
/// [`crate::ModelError::Config`] — never a panic, never a solve on
/// garbage.
#[allow(
    clippy::expect_used,
    reason = "the builder's base config is valid, as the config tests check"
)]
pub fn invalid_configs() -> Vec<CellConfig> {
    let base = CellConfig::builder().build().expect("base config is valid");
    let mut broken: Vec<CellConfig> = Vec::new();
    let mut push = |mutate: &dyn Fn(&mut CellConfig)| {
        let mut cfg = base.clone();
        mutate(&mut cfg);
        broken.push(cfg);
    };
    push(&|c| c.total_channels = 0);
    push(&|c| c.total_channels = 100_000);
    push(&|c| c.reserved_pdchs = c.total_channels + 1);
    push(&|c| c.buffer_capacity = 0);
    push(&|c| c.tcp_threshold = 0.0);
    push(&|c| c.tcp_threshold = 1.5);
    push(&|c| c.tcp_threshold = f64::NAN);
    push(&|c| c.gprs_fraction = 0.0);
    push(&|c| c.gprs_fraction = 1.0);
    push(&|c| c.call_arrival_rate = 0.0);
    push(&|c| c.call_arrival_rate = -1.0);
    push(&|c| c.call_arrival_rate = f64::INFINITY);
    push(&|c| c.call_arrival_rate = f64::NAN);
    push(&|c| c.max_gprs_sessions = 0);
    push(&|c| c.block_error_rate = 1.0);
    push(&|c| c.block_error_rate = -0.5);
    push(&|c| c.gsm_call_duration = 0.0);
    push(&|c| c.gsm_dwell_time = -60.0);
    push(&|c| c.gprs_dwell_time = f64::INFINITY);
    // State counts past the u32 index range, wrapped and unwrapped.
    push(&|c| c.max_gprs_sessions = 1 << 32);
    push(&|c| c.buffer_capacity = usize::MAX);
    push(&|c| c.buffer_capacity = 1_000_000);
    broken
}

// ---------------------------------------------------------------------
// Campaign-level fault injection.
// ---------------------------------------------------------------------

/// What an injected campaign fault does to one solve attempt; see
/// [`CampaignFaults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultAction {
    /// No fault: run the attempt normally.
    Proceed,
    /// Panic inside the attempt — exercises the catching executor and
    /// the runner's typed `ItemFailure` path.
    Panic,
    /// Treat the attempt as if its wall-time budget expired without
    /// doing the work — exercises the retry ladder and graceful
    /// degradation deterministically (no actual sleeping, so the test
    /// corpus stays fast and timing-independent).
    ExhaustBudget,
}

/// Deterministic campaign-level fault plan: a schedule of solve-attempt
/// indices (0-based, in the order attempts are *started*) that panic or
/// artificially exhaust their wall-time budget. The campaign runner
/// consults [`CampaignFaults::next_attempt`] before each attempt; with
/// an empty plan every attempt proceeds, so production runs pass no
/// plan at all.
///
/// The plan is counter-based rather than timing-based so a fault
/// schedule reproduces exactly: attempt `n` always sees the same
/// action, whatever the thread count or machine speed.
#[derive(Debug, Default)]
pub struct CampaignFaults {
    panic_attempts: Vec<usize>,
    exhaust_attempts: Vec<usize>,
    attempts: std::sync::atomic::AtomicUsize,
}

impl CampaignFaults {
    /// An empty plan: every attempt proceeds.
    pub fn none() -> Self {
        Self::default()
    }

    /// Adds a panic on solve attempt `attempt` (0-based).
    pub fn with_panic_on(mut self, attempt: usize) -> Self {
        self.panic_attempts.push(attempt);
        self
    }

    /// Adds an artificial wall-time exhaustion on solve attempt
    /// `attempt` (0-based).
    pub fn with_exhaust_on(mut self, attempt: usize) -> Self {
        self.exhaust_attempts.push(attempt);
        self
    }

    /// Claims the next attempt index and returns the action scheduled
    /// for it. A `Panic` action is *returned*, not raised — the caller
    /// decides where in the attempt to panic so the fault fires inside
    /// the isolation boundary under test.
    pub fn next_attempt(&self) -> FaultAction {
        let n = self
            .attempts
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        if self.panic_attempts.contains(&n) {
            FaultAction::Panic
        } else if self.exhaust_attempts.contains(&n) {
            FaultAction::ExhaustBudget
        } else {
            FaultAction::Proceed
        }
    }

    /// How many attempts have been claimed so far.
    pub fn attempts_seen(&self) -> usize {
        self.attempts.load(std::sync::atomic::Ordering::Relaxed)
    }
}

/// Simulates a SIGKILL mid-write: the journal's last `drop_bytes` bytes
/// are gone (possibly splitting a line — or a UTF-8 sequence — in
/// half). Byte-level on purpose: a real kill does not respect char
/// boundaries, and journal recovery must cope.
pub fn truncate_tail(journal: &[u8], drop_bytes: usize) -> Vec<u8> {
    journal[..journal.len().saturating_sub(drop_bytes)].to_vec()
}

/// Corrupts the last non-empty journal line in place: its second half
/// is overwritten with `#` bytes, producing a line that is valid UTF-8
/// but not valid JSON — the "partially flushed then overwritten"
/// corruption shape. Journals without a non-empty line come back
/// unchanged.
pub fn garble_last_line(journal: &[u8]) -> Vec<u8> {
    let mut out = journal.to_vec();
    // Find the last non-empty line's byte range.
    let end = match out.iter().rposition(|&b| b != b'\n') {
        Some(i) => i + 1,
        None => return out,
    };
    let start = out[..end]
        .iter()
        .rposition(|&b| b == b'\n')
        .map_or(0, |i| i + 1);
    let mid = start + (end - start) / 2;
    for b in &mut out[mid..end] {
        *b = b'#';
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic() {
        let a = pathological_configs(42, 16);
        let b = pathological_configs(42, 16);
        assert_eq!(a, b);
        let c = pathological_configs(43, 16);
        assert_ne!(a, c);
    }

    #[test]
    fn generated_configs_are_valid_and_bounded() {
        for (i, cfg) in pathological_configs(7, 64).iter().enumerate() {
            assert!(cfg.validate().is_ok(), "case {i}: {cfg:?}");
            assert!(cfg.num_states() <= MAX_STRESS_STATES, "case {i}");
        }
    }

    #[test]
    fn generated_configs_span_extreme_stiffness() {
        // At least one generated case must put > 1e12 between its
        // fastest and slowest rates — the regime the divergence guards
        // exist for.
        let spread = pathological_configs(11, 64).iter().any(|cfg| {
            let rates = [
                cfg.call_arrival_rate,
                cfg.gsm_completion_rate(),
                cfg.gsm_handover_rate(),
                cfg.gprs_handover_rate(),
                cfg.packet_service_rate().max(f64::MIN_POSITIVE),
            ];
            let max = rates.iter().cloned().fold(f64::MIN, f64::max);
            let min = rates.iter().cloned().fold(f64::MAX, f64::min);
            max / min > 1e12
        });
        assert!(spread, "no case exceeded a 1e12 stiffness ratio");
    }

    #[test]
    fn invalid_configs_are_all_rejected() {
        let broken = invalid_configs();
        assert!(broken.len() >= 15);
        for (i, cfg) in broken.iter().enumerate() {
            assert!(cfg.validate().is_err(), "case {i} was accepted: {cfg:?}");
        }
    }

    #[test]
    fn fault_plan_fires_on_scheduled_attempts_only() {
        let faults = CampaignFaults::none().with_panic_on(1).with_exhaust_on(3);
        let actions: Vec<FaultAction> = (0..5).map(|_| faults.next_attempt()).collect();
        assert_eq!(
            actions,
            vec![
                FaultAction::Proceed,
                FaultAction::Panic,
                FaultAction::Proceed,
                FaultAction::ExhaustBudget,
                FaultAction::Proceed,
            ]
        );
        assert_eq!(faults.attempts_seen(), 5);
    }

    #[test]
    fn journal_corruption_helpers_are_deterministic_and_byte_level() {
        let journal = b"{\"item\":0}\n{\"item\":1}\n{\"item\":2}\n";
        // Truncation can split the last line mid-byte.
        let cut = truncate_tail(journal, 5);
        assert_eq!(&cut, b"{\"item\":0}\n{\"item\":1}\n{\"item");
        assert_eq!(truncate_tail(journal, 0), journal.to_vec());
        assert!(truncate_tail(journal, 10_000).is_empty());
        // Garbling keeps line structure but breaks the JSON.
        let garbled = garble_last_line(journal);
        let text = String::from_utf8(garbled).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("{\"item\":0}"));
        assert_eq!(lines.next(), Some("{\"item\":1}"));
        let last = lines.next().unwrap();
        assert!(
            last.starts_with("{\"ite") && last.ends_with("#####"),
            "{last}"
        );
        assert!(garble_last_line(b"\n\n").ends_with(b"\n\n"));
    }
}
