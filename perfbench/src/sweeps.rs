//! The figure-sweep workload: Fig. 10's `M = 150` chain on the figure's
//! fixed production grid.

use crate::check::{meets_tolerance, Ledger, Reference};
use crate::probe;
use crate::trace::{Tracer, NO_ID};
use crate::{Metrics, WORKERS};
use gprs_core::sweep::{
    par_sweep_arrival_rates_threads, par_sweep_arrival_rates_with, sweep_arrival_rates,
    warm_chunk_len, SweepPoint,
};
use gprs_core::{CellConfig, GeneratorTemplate, GprsModel, SolveRung, WarmStart};
use gprs_ctmc::SolveOptions;
use gprs_experiments::figures::shared::figure_config;
use gprs_experiments::Scale;
use gprs_traffic::TrafficModel;
use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

pub const WORKLOAD: &str = "fig10_m150";

/// States of Fig. 10's `M = 150` chain at quick scale.
const STATES: usize = 8_939_804;

/// One production sweep: a figure configuration and its rate grid.
pub struct Sweep {
    label: String,
    base: CellConfig,
    rates: Vec<f64>,
}

impl Sweep {
    fn key(&self, index: usize) -> String {
        format!("{}/{index}", self.label)
    }
}

/// The figure's solver options (`SolveOptions::quick`, tolerance 1e-8).
fn solve_options() -> SolveOptions {
    Scale::Quick.solve_options()
}

/// Builds the workload's sweep exactly as the figure code does, and pins
/// its state count so the workload cannot drift from the figure.
pub fn sweep() -> Result<Sweep, String> {
    let scale = Scale::Quick;
    let mut base =
        figure_config(TrafficModel::Model1, 2, 0.05, scale).map_err(|e| e.to_string())?;
    base.max_gprs_sessions = 150;
    let label = "M150".to_string();
    if base.num_states() != STATES {
        return Err(format!(
            "{label}: {} states, the figure has {STATES}",
            base.num_states()
        ));
    }
    Ok(Sweep {
        label,
        base,
        rates: scale.coarse_rate_grid(),
    })
}

/// Checks every point of one sweep: residual within tolerance, primary
/// (or surrogate) rung, finite measures within tolerance of the
/// reference.
fn check_points(
    sweep: &Sweep,
    points: &[SweepPoint],
    opts: &SolveOptions,
    reference: &Reference,
    ledger: &mut Ledger,
) {
    if points.len() != sweep.rates.len() {
        ledger.record(Some(format!(
            "{}: {} points for {} rates",
            sweep.label,
            points.len(),
            sweep.rates.len()
        )));
    }
    for (index, point) in points.iter().enumerate() {
        let key = sweep.key(index);
        let problem = if !meets_tolerance(point.residual, opts.tolerance) {
            Some(format!("{key}: residual {:e}", point.residual))
        } else if !matches!(point.health.rung, SolveRung::Primary | SolveRung::Surrogate)
            || point.health.failed_rungs > 0
        {
            Some(format!(
                "{key}: served by rung {}",
                point.health.rung.label()
            ))
        } else {
            reference.mismatch(&key, &point.measures, opts.tolerance)
        };
        ledger.record(problem);
    }
}

/// Records a failed sweep as a failure of each of its points.
fn record_sweep_error(sweep: &Sweep, error: &dyn std::fmt::Display, ledger: &mut Ledger) {
    for index in 0..sweep.rates.len() {
        ledger.record(Some(format!("{}: sweep failed: {error}", sweep.key(index))));
    }
}

/// The end-to-end pass: the sweep at [`WORKERS`] workers, repeated until
/// `seconds` have passed. The set-up is timed for half its budget before
/// the first sweep and for the other half after each one.
pub fn run_e2e(seconds: f64, metrics: &mut Metrics, ledger: &mut Ledger) -> Result<(), String> {
    let mut setup = probe::SetupTimer::new();
    let sweep = setup.sample(probe::SETUP_BUDGET / 2, self::sweep)?;
    let opts = solve_options();
    let reference = Reference::load(WORKLOAD)?;
    let started = Instant::now();
    let (mut solve_s, mut points, mut done) = (0.0, 0usize, 0usize);
    loop {
        let t0 = Instant::now();
        let result = par_sweep_arrival_rates_threads(&sweep.base, &sweep.rates, &opts, WORKERS);
        solve_s += t0.elapsed().as_secs_f64();
        match result {
            Ok(pts) => {
                points += pts.len();
                check_points(&sweep, &pts, &opts, &reference, ledger);
            }
            Err(e) => record_sweep_error(&sweep, &e, ledger),
        }
        done += 1;
        setup.sample(probe::SETUP_BUDGET / 2, self::sweep)?;
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    metrics.set("setup_s", setup.best_s());
    metrics.set("points_per_s", points as f64 / solve_s);
    // A derived copy of points_per_s: an item is one whole sweep.
    metrics.set("items_per_s", done as f64 / solve_s);
    Ok(())
}

/// Counters of the traced replay (from `SolveHealth` and
/// `TemplateStats` deltas).
#[derive(Default)]
struct ReplayCounts {
    sweeps_cold: usize,
    sweeps_warm: usize,
    residual_checks: usize,
    fallback_points: usize,
}

type Replayed = (Vec<SweepPoint>, Option<(GeneratorTemplate, GprsModel)>);

/// Replays the first `n` points single-threaded, one span per public
/// call, under the sweep's warm-start contract: chunk heads cold, the
/// rest chained.
fn replay(
    t: &mut Tracer,
    sweep: &Sweep,
    n: usize,
    opts: &SolveOptions,
    counts: &mut ReplayCounts,
) -> Result<Replayed, String> {
    let chunk_len = warm_chunk_len(sweep.rates.len());
    t.span("sweep", NO_ID, |t| {
        let mut template = t
            .leaf("template.setup", NO_ID, || {
                GeneratorTemplate::new(&sweep.base)
            })
            .map_err(|e| e.to_string())?;
        let mut points = Vec::with_capacity(n);
        let mut model = None;
        for (c, chunk) in sweep.rates[..n].chunks(chunk_len).enumerate() {
            template.reset_chain();
            for (offset, &rate) in chunk.iter().enumerate() {
                let index = c * chunk_len + offset;
                let id = index as u64;
                let mut cfg = sweep.base.clone();
                cfg.call_arrival_rate = rate;
                let m = t
                    .leaf("generator.model_for", id, || template.model_for(cfg))
                    .map_err(|e| e.to_string())?;
                let layer = if offset == 0 {
                    "template.solve_cold"
                } else {
                    "template.solve_warm"
                };
                let before = template.stats();
                let health = t
                    .leaf(layer, id, || {
                        template.solve_resilient_lean(&m, opts, WarmStart::Chained)
                    })
                    .map_err(|e| format!("{}: {e}", sweep.key(index)))?;
                if offset == 0 {
                    counts.sweeps_cold += health.sweeps;
                } else {
                    counts.sweeps_warm += health.sweeps;
                }
                counts.residual_checks += template.stats().residual_checks - before.residual_checks;
                if health.failed_rungs > 0 {
                    counts.fallback_points += 1;
                }
                let measures = t.leaf("measures", id, || template.measures_for(&m));
                points.push(SweepPoint {
                    rate,
                    measures,
                    sweeps: health.sweeps,
                    residual: health.residual,
                    health,
                });
                model = Some(m);
            }
        }
        Ok::<_, String>((points, model.map(|m| (template, m))))
    })
}

/// Bitwise equality of two point lists (`Debug` prints every float in
/// shortest round-trip form).
fn same_points(a: &[SweepPoint], b: &[SweepPoint]) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

/// The traced pass: the 2-worker end-to-end pass (with completion
/// stamps for the tail wait), an untraced sequential sweep of the
/// replayed points, the traced replay, the same-program preflight, the
/// kernel probes and the sampled-point residual check.
pub fn run_traced(
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let sweep = sweep()?;
    let opts = solve_options();
    let reference = Reference::load(WORKLOAD)?;

    let stamps = Mutex::new(Vec::new());
    let result = par_sweep_arrival_rates_with(&sweep.base, &sweep.rates, &opts, WORKERS, |_, _| {
        let stamp = (std::thread::current().id(), Instant::now());
        stamps.lock().expect("stamp list poisoned").push(stamp);
    });
    let end = Instant::now();
    let mut worker_done = HashMap::new();
    for (worker, at) in stamps.into_inner().expect("stamp list poisoned") {
        let done = worker_done.entry(worker).or_insert(at);
        *done = (*done).max(at);
    }
    let tail_wait_s = worker_done
        .values()
        .min()
        .map_or(0.0, |first| (end - *first).as_secs_f64());
    let two_worker = match result {
        Ok(points) => {
            check_points(&sweep, &points, &opts, &reference, ledger);
            points
        }
        Err(e) => return Err(format!("{}: 2-worker sweep failed: {e}", sweep.label)),
    };

    // The replay covers the first warm chunk (a cold head and one
    // chained point), whose sequential sweep is bit-identical to the
    // same points of the full grid. The whole sweep single-threaded,
    // twice (untraced and traced), would not fit one run's time limit.
    let n = warm_chunk_len(sweep.rates.len());
    let t0 = Instant::now();
    let sequential = sweep_arrival_rates(&sweep.base, &sweep.rates[..n], &opts)
        .map_err(|e| format!("sequential sweep failed: {e}"))?;
    let untraced_s = t0.elapsed().as_secs_f64();

    let mut counts = ReplayCounts::default();
    let (replayed, last) = tracer.span("replay", NO_ID, |t| {
        replay(t, &sweep, n, &opts, &mut counts)
    })?;

    if !same_points(&replayed, &two_worker[..n]) || !same_points(&replayed, &sequential) {
        return Err(format!(
            "preflight: the traced replay of {} differs from the 2-worker and sequential sweeps",
            sweep.label
        ));
    }
    ledger.attempted += n;

    // The sampled point: the last one replayed. Its stationary vector
    // is re-checked through `BlockedMbd::residual` by the probe.
    let (template, model) = last.ok_or("the replay solved no point")?;
    let kernel = probe::kernel_probe(&model, template.stationary())?;
    drop((template, model));
    ledger.record(
        (!meets_tolerance(kernel.residual, opts.tolerance)).then(|| {
            format!(
                "sampled point {}: recomputed residual {:e}",
                sweep.key(n - 1),
                kernel.residual
            )
        }),
    );

    let traced_s = tracer.spans()[0].duration_ns() as f64 * 1e-9;
    metrics.set("trace_overhead_frac", traced_s / untraced_s - 1.0);
    metrics.set("sweep.tail_wait_s", tail_wait_s);
    metrics.set("template.sweeps_cold", counts.sweeps_cold as f64);
    metrics.set("template.sweeps_warm", counts.sweeps_warm as f64);
    metrics.set("template.residual_checks", counts.residual_checks as f64);
    metrics.set("template.fallback_points", counts.fallback_points as f64);
    crate::set_kernel_metrics(metrics, &kernel);
    Ok(())
}

/// Reference measures of every point, from the 2-worker sweep.
pub fn reference_entries() -> Result<(f64, Vec<(String, gprs_core::Measures)>), String> {
    let opts = solve_options();
    let sweep = sweep()?;
    let points = par_sweep_arrival_rates_threads(&sweep.base, &sweep.rates, &opts, WORKERS)
        .map_err(|e| e.to_string())?;
    let entries = points
        .iter()
        .enumerate()
        .map(|(index, point)| (sweep.key(index), point.measures))
        .collect();
    Ok((opts.tolerance, entries))
}
