//! Fault-injection stress harness for the resilient solve pipeline.
//!
//! Feeds the public solve entry points deterministic pathological
//! configurations from [`gprs_core::stress`] and asserts the pipeline's
//! robustness contract: **no panics, no hangs** — every case either
//! returns `Ok` with a finite, health-annotated solution or a typed
//! error. The full ≥200-case suite is `#[ignore]`d (run with
//! `cargo test --test stress_resilience -- --ignored` or via the
//! nightly CI stress job); a quick subset runs in tier-1 on every push.

use gprs_core::stress::{invalid_configs, pathological_configs};
use gprs_core::template::{GeneratorTemplate, PointSolve, WarmStart};
use gprs_core::{CellConfig, GprsModel, ModelError, SolveRung};
use gprs_ctmc::solver::SolveOptions;
use gprs_traffic::TrafficModel;
use std::time::{Duration, Instant};

/// Seed of the pinned stress corpus. Changing it is a deliberate act —
/// the full suite's outcome tallies below are tied to it.
const CORPUS_SEED: u64 = 0x00C0_FFEE;
const FULL_COUNT: usize = 224;
const QUICK_COUNT: usize = 32;

/// Per-case wall-clock ceiling. The iterative rungs are additionally
/// budgeted via `with_wall_time`, so a breach here means a real hang
/// (or a pathological direct-elimination case that escaped the state
/// cap), not a slow convergence.
const CASE_DEADLINE: Duration = Duration::from_secs(60);

fn budgeted_opts() -> SolveOptions {
    SolveOptions::default()
        .with_max_sweeps(20_000)
        .with_wall_time(Duration::from_millis(500))
}

/// Solves `model` one-shot through the template's fallback ladder.
fn solve_resilient(model: &GprsModel, opts: &SolveOptions) -> Result<PointSolve, ModelError> {
    GeneratorTemplate::new(model.config())?.solve_resilient(model, opts, WarmStart::Cold)
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
enum Outcome {
    /// Converged on the primary rung.
    Healthy,
    /// Converged, but only after falling down the ladder.
    Degraded,
    /// Typed convergence-failure error — acceptable, never a panic.
    Failed,
}

/// Runs one pathological config through the resilient single-cell
/// pipeline and checks the robustness contract on whatever comes back.
fn exercise(index: usize, cfg: &CellConfig) -> Outcome {
    let started = Instant::now();
    // Construction already runs the scalar handover-balance fixed
    // point, which extreme rates can legitimately exhaust — a typed
    // convergence error there is within contract. A `Config` rejection
    // of a config that passed `validate()` would not be.
    let model = match GprsModel::new(cfg.clone()) {
        Ok(model) => model,
        Err(e @ (ModelError::Queueing(_) | ModelError::Ctmc(_))) => {
            assert!(!e.to_string().is_empty(), "case {index}");
            return Outcome::Failed;
        }
        Err(e) => panic!("case {index}: generator rejected a valid config: {e} ({cfg:?})"),
    };
    let outcome = match solve_resilient(&model, &budgeted_opts()) {
        Ok(solved) => {
            let health = solved.health;
            assert!(
                health.residual.is_finite(),
                "case {index}: non-finite residual"
            );
            let m = solved.measures;
            for (name, v) in [
                ("carried_data_traffic", m.carried_data_traffic),
                ("carried_voice_traffic", m.carried_voice_traffic),
                ("data_throughput", m.data_throughput),
                ("packet_loss_probability", m.packet_loss_probability),
                ("gsm_blocking_probability", m.gsm_blocking_probability),
                ("gprs_blocking_probability", m.gprs_blocking_probability),
            ] {
                assert!(v.is_finite(), "case {index}: {name} is {v}");
            }
            for (name, p) in [
                ("packet_loss_probability", m.packet_loss_probability),
                ("gsm_blocking_probability", m.gsm_blocking_probability),
                ("gprs_blocking_probability", m.gprs_blocking_probability),
            ] {
                assert!(
                    (-1e-6..=1.0 + 1e-6).contains(&p),
                    "case {index}: {name} = {p} outside [0, 1]"
                );
            }
            if health.degraded() {
                Outcome::Degraded
            } else {
                Outcome::Healthy
            }
        }
        Err(e) => {
            // Bottoming out the ladder is allowed; panicking or
            // returning something unprintable is not.
            assert!(
                e.is_solver_failure(),
                "case {index}: structural error on a valid config: {e} ({cfg:?})"
            );
            assert!(!e.to_string().is_empty(), "case {index}");
            Outcome::Failed
        }
    };
    assert!(
        started.elapsed() < CASE_DEADLINE,
        "case {index}: exceeded {CASE_DEADLINE:?} ({cfg:?})"
    );
    outcome
}

fn run_corpus(count: usize) -> (usize, usize, usize) {
    let mut tally = (0usize, 0usize, 0usize);
    for (i, cfg) in pathological_configs(CORPUS_SEED, count).iter().enumerate() {
        match exercise(i, cfg) {
            Outcome::Healthy => tally.0 += 1,
            Outcome::Degraded => tally.1 += 1,
            Outcome::Failed => tally.2 += 1,
        }
    }
    tally
}

/// Tier-1 smoke: a slice of the pinned corpus on every push.
#[test]
fn quick_stress_subset_upholds_the_robustness_contract() {
    let (healthy, degraded, failed) = run_corpus(QUICK_COUNT);
    assert_eq!(healthy + degraded + failed, QUICK_COUNT);
    assert!(
        healthy > 0,
        "not a single pathological case converged cleanly \
         (healthy {healthy} / degraded {degraded} / failed {failed})"
    );
}

/// The full fault-injection sweep: ≥200 pathological configurations,
/// zero panics, zero hangs. `#[ignore]`d from tier-1 for runtime; the
/// nightly CI stress job runs it under debug assertions.
#[test]
#[ignore = "full stress sweep; run with --ignored (nightly CI stress job)"]
fn full_stress_suite_never_panics_or_hangs() {
    let (healthy, degraded, failed) = run_corpus(FULL_COUNT);
    eprintln!("stress tally: healthy {healthy} / degraded {degraded} / failed {failed}");
    assert_eq!(healthy + degraded + failed, FULL_COUNT);
    // The corpus is seeded, so these floors are deterministic (exact
    // tally at the pinned seed: 75 / 35 / 114); they are kept loose on
    // purpose — the suite's job is crash-freedom, not an outcome
    // census. The degraded floor matters most: the wild corpus must
    // keep exercising the fallback rungs, not just the happy path.
    assert!(
        healthy >= 50,
        "primary-rung convergence collapsed \
         (healthy {healthy} / degraded {degraded} / failed {failed})"
    );
    assert!(
        degraded >= 20,
        "the fallback ladder stopped rescuing cases \
         (healthy {healthy} / degraded {degraded} / failed {failed})"
    );
}

/// Invalid configurations must be rejected up front with a typed
/// config error — never lowered into a generator, never panicked on.
#[test]
fn invalid_configs_are_rejected_with_typed_errors() {
    let broken = invalid_configs();
    assert!(broken.len() >= 15);
    for (i, cfg) in broken.into_iter().enumerate() {
        match GprsModel::new(cfg) {
            Err(e @ ModelError::Config { .. }) => {
                assert!(!e.to_string().is_empty(), "case {i}");
            }
            Err(other) => panic!("case {i}: wrong error class {other:?}"),
            Ok(_) => panic!("case {i}: invalid config was accepted"),
        }
    }
}

fn sane_config(rate: f64) -> CellConfig {
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

/// Pin: a starved iteration budget converges *through the ladder* (the
/// direct-elimination rung) instead of failing — and the answer agrees
/// with a fully-converged reference.
#[test]
fn starved_budget_converges_via_the_direct_fallback_rung() {
    let model = GprsModel::new(sane_config(0.5)).unwrap();
    let starved = SolveOptions::default()
        .with_max_sweeps(1)
        .with_tolerance(1e-300);
    let solved = solve_resilient(&model, &starved).unwrap();
    assert_eq!(solved.health.rung, SolveRung::DirectGth);
    assert!(solved.health.degraded());
    assert!(solved.residual < 1e-10);

    let reference = model.solve_default().unwrap();
    assert!(
        (solved.measures.carried_data_traffic - reference.measures().carried_data_traffic).abs()
            < 1e-8
    );
    assert!(
        (solved.measures.gsm_blocking_probability - reference.measures().gsm_blocking_probability)
            .abs()
            < 1e-8
    );
}

/// Pin: on the happy path the resilient entry point is **bit-identical**
/// to the plain solver — the ladder adds recovery, never perturbation.
#[test]
fn happy_path_is_bit_identical_to_the_plain_solver() {
    let model = GprsModel::new(sane_config(0.5)).unwrap();
    let opts = SolveOptions::default();
    let plain = model.solve(&opts, None).unwrap();
    let resilient = solve_resilient(&model, &opts).unwrap();
    assert_eq!(resilient.health.rung, SolveRung::Primary);
    assert_eq!(resilient.health.failed_rungs, 0);
    assert_eq!(resilient.sweeps, plain.sweeps());
    assert_eq!(resilient.residual.to_bits(), plain.residual().to_bits());
    assert_eq!(&resilient.measures, plain.measures());
}
