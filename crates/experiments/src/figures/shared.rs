//! Shared sweep machinery and a process-wide memo so figures that reuse
//! the same parameter sweep (Figs. 7–9 all read the TM1/TM2 sweeps;
//! Fig. 13's cross-check reuses Figs. 11–12's data) only pay once.
//!
//! Sweeps run through the parallel pipeline
//! ([`gprs_core::sweep::par_sweep_arrival_rates`]): each figure's rate
//! grid fans out across `RAYON_NUM_THREADS` workers (machine width by
//! default), with results identical to the sequential sweep.

use crate::scale::Scale;
use gprs_core::sweep::{par_sweep_arrival_rates, SweepPoint};
use gprs_core::template::{GeneratorTemplate, WarmStart};
use gprs_core::{CellConfig, GprsModel, Measures, ModelError};
use gprs_ctmc::solver::SolveOptions;
use gprs_exec::{num_threads, with_worker_pool};
use gprs_traffic::TrafficModel;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Cell configuration for a figure: the Table 2 base with the given
/// traffic model, reserved PDCHs, GPRS fraction and scale-dependent
/// buffer.
///
/// # Errors
///
/// Propagates configuration validation errors.
pub fn figure_config(
    tm: TrafficModel,
    reserved_pdchs: usize,
    gprs_fraction: f64,
    scale: Scale,
) -> Result<CellConfig, ModelError> {
    CellConfig::builder()
        .traffic_model(tm)
        .reserved_pdchs(reserved_pdchs)
        .gprs_fraction(gprs_fraction)
        .buffer_capacity(scale.buffer_capacity())
        .call_arrival_rate(0.5) // overridden per sweep point
        .build()
}

type SweepKey = (u8, usize, u64, usize, u8);

fn cache() -> &'static Mutex<HashMap<SweepKey, Arc<Vec<SweepPoint>>>> {
    static CACHE: OnceLock<Mutex<HashMap<SweepKey, Arc<Vec<SweepPoint>>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

fn tm_tag(tm: TrafficModel) -> u8 {
    match tm {
        TrafficModel::Model1 => 1,
        TrafficModel::Model2 => 2,
        TrafficModel::Model3 => 3,
    }
}

/// Sweeps the standard rate grid for the given configuration knobs,
/// memoizing per process. Progress is reported on stderr.
///
/// # Errors
///
/// Propagates model construction / solver errors.
pub fn swept(
    tm: TrafficModel,
    reserved_pdchs: usize,
    gprs_fraction: f64,
    max_sessions_override: Option<usize>,
    scale: Scale,
) -> Result<Arc<Vec<SweepPoint>>, ModelError> {
    let key: SweepKey = (
        tm_tag(tm),
        reserved_pdchs,
        gprs_fraction.to_bits(),
        max_sessions_override.unwrap_or(0),
        matches!(scale, Scale::Full) as u8,
    );
    if let Some(hit) = cache().lock().expect("cache poisoned").get(&key) {
        return Ok(Arc::clone(hit));
    }
    let mut base = figure_config(tm, reserved_pdchs, gprs_fraction, scale)?;
    if let Some(m) = max_sessions_override {
        base.max_gprs_sessions = m;
    }
    let rates = scale.rate_grid();
    let opts = scale.solve_options();
    eprintln!(
        "  sweep: {tm}, {reserved_pdchs} PDCH, {:.0}% GPRS, M={} ({} states x {} rates, {} threads)",
        gprs_fraction * 100.0,
        base.max_gprs_sessions,
        base.num_states(),
        rates.len(),
        num_threads().min(rates.len())
    );
    let points = par_sweep_arrival_rates(&base, &rates, &opts)?;
    let arc = Arc::new(points);
    cache()
        .lock()
        .expect("cache poisoned")
        .insert(key, Arc::clone(&arc));
    Ok(arc)
}

/// Solves `K` homogeneous single-cell references per load point, cold,
/// on one shape: `models(i)` lowers point `i`'s references, and the
/// returned arrays hold their measures in the same order.
///
/// The points fan out over up to `threads` [`with_worker_pool`]
/// workers, each owning one [`GeneratorTemplate`] of `shape` for the
/// whole run, so every solve reuses a workspace and pattern instead of
/// rebuilding solver state. Every solve starts cold, so the results are
/// bit-identical to a fresh template per solve, for any `threads`.
///
/// # Errors
///
/// [`ModelError::Config`] if `shape` is invalid; otherwise the
/// lowest-index point's lowering or solver error.
///
/// # Panics
///
/// Re-raises the lowest-index point's panic once every point has run.
pub fn solve_references<const K: usize>(
    shape: &CellConfig,
    points: usize,
    threads: usize,
    opts: &SolveOptions,
    models: impl Fn(usize) -> Result<[GprsModel; K], ModelError> + Sync,
) -> Result<Vec<[Measures; K]>, ModelError> {
    let templates = (0..threads.clamp(1, points.max(1)))
        .map(|_| GeneratorTemplate::new(shape))
        .collect::<Result<Vec<_>, _>>()?;
    let solves = with_worker_pool(
        templates,
        |_, template, i: usize| {
            let mut measures = [Measures::default(); K];
            for (slot, model) in measures.iter_mut().zip(&models(i)?) {
                *slot = template.solve(model, opts, WarmStart::Cold)?.measures;
            }
            Ok(measures)
        },
        |pool| pool.run_queue((0..points).collect()),
    );
    solves
        .into_iter()
        .map(|solve| solve.unwrap_or_else(|panic| panic.resume()))
        .collect()
}

/// Extracts `(x, f(measures))` vectors from sweep points.
pub fn extract(
    points: &[SweepPoint],
    f: impl Fn(&gprs_core::Measures) -> f64,
) -> (Vec<f64>, Vec<f64>) {
    let x = points.iter().map(|p| p.rate).collect();
    let y = points.iter().map(|p| f(&p.measures)).collect();
    (x, y)
}

/// Runs the network simulator once for the given cell configuration at
/// the scale's batch settings. Progress goes to stderr.
pub fn simulate(cell: gprs_core::CellConfig, scale: Scale, seed: u64) -> gprs_sim::SimResults {
    let (batches, duration) = scale.sim_batches();
    eprintln!(
        "  simulate: rate {:.2}, {:.0}% GPRS, seed {seed} ({} batches x {duration} s)",
        cell.call_arrival_rate,
        cell.gprs_fraction * 100.0,
        batches
    );
    let cfg = gprs_sim::SimConfig::builder(cell)
        .seed(seed)
        .warmup(scale.sim_warmup())
        .batches(batches, duration)
        .build();
    gprs_sim::GprsSimulator::new(cfg).run()
}

/// Linear interpolation of a curve `(x, y)` sorted by `x`; clamps
/// outside the range.
pub fn interpolate(curve: &[(f64, f64)], x: f64) -> f64 {
    assert!(!curve.is_empty(), "cannot interpolate an empty curve");
    if x <= curve[0].0 {
        return curve[0].1;
    }
    if x >= curve[curve.len() - 1].0 {
        return curve[curve.len() - 1].1;
    }
    for w in curve.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if x >= x0 && x <= x1 {
            let t = if x1 > x0 { (x - x0) / (x1 - x0) } else { 0.0 };
            return y0 + t * (y1 - y0);
        }
    }
    curve[curve.len() - 1].1
}

/// Lenient model-vs-simulation agreement: the model curve is linearly
/// interpolated at each simulated rate and must lie within the
/// simulator's 95 % CI widened by `slack_rel` of the larger magnitude
/// plus `slack_abs`. Returns `(agreeing points, total)`.
pub fn agreement(
    model: &[(f64, f64)],
    sim: &[(f64, f64, f64)],
    slack_rel: f64,
    slack_abs: f64,
) -> (usize, usize) {
    let mut ok = 0;
    for &(rate, sval, ci) in sim {
        let mval = interpolate(model, rate);
        let tol = ci + slack_rel * mval.abs().max(sval.abs()) + slack_abs;
        if (mval - sval).abs() <= tol {
            ok += 1;
        }
    }
    (ok, sim.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_config_uses_scale_buffer() {
        let c = figure_config(TrafficModel::Model3, 2, 0.05, Scale::Quick).unwrap();
        assert_eq!(c.buffer_capacity, Scale::Quick.buffer_capacity());
        assert_eq!(c.reserved_pdchs, 2);
    }

    #[test]
    fn cache_returns_same_arc() {
        // Use a tiny custom key: TM3 with quick scale but M override of 2
        // keeps this test fast.
        let a = swept(TrafficModel::Model3, 1, 0.05, Some(2), Scale::Quick).unwrap();
        let b = swept(TrafficModel::Model3, 1, 0.05, Some(2), Scale::Quick).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(a.len(), Scale::Quick.grid_points());
    }

    #[test]
    fn interpolation_is_linear_and_clamped() {
        let curve = [(0.0, 0.0), (1.0, 2.0), (2.0, 2.0)];
        assert_eq!(interpolate(&curve, 0.5), 1.0);
        assert_eq!(interpolate(&curve, 1.5), 2.0);
        assert_eq!(interpolate(&curve, -1.0), 0.0);
        assert_eq!(interpolate(&curve, 5.0), 2.0);
    }

    #[test]
    fn agreement_interpolates_model_at_sim_rates() {
        let model = vec![(0.0, 0.0), (1.0, 1.0)];
        // Sim point at x = 0.5 with value 0.52, CI 0.05: model interp 0.5.
        let sim = vec![(0.5, 0.52, 0.05)];
        let (ok, total) = agreement(&model, &sim, 0.0, 0.0);
        assert_eq!((ok, total), (1, 1));
        // Outside tolerance.
        let sim = vec![(0.5, 0.8, 0.05)];
        assert_eq!(agreement(&model, &sim, 0.0, 0.0).0, 0);
    }

    #[test]
    fn references_match_a_fresh_template_per_solve_bitwise() {
        let shape = CellConfig::builder()
            .traffic_model(TrafficModel::Model3)
            .max_gprs_sessions(3)
            .buffer_capacity(6)
            .call_arrival_rate(0.3)
            .build()
            .unwrap();
        let opts = Scale::Quick.solve_options();
        let models = |i: usize| {
            let at = |rate: f64| {
                let mut cell = shape.clone();
                cell.call_arrival_rate = rate;
                GprsModel::new(cell)
            };
            Ok([at(0.2 + 0.1 * i as f64)?, at(0.4 + 0.15 * i as f64)?])
        };
        let points = 5;
        let mut want = Vec::new();
        for i in 0..points {
            for model in &models(i).unwrap() {
                let mut fresh = GeneratorTemplate::new(&shape).unwrap();
                want.push(fresh.solve(model, &opts, WarmStart::Cold).unwrap().measures);
            }
        }
        for threads in [1usize, 2, 8] {
            let got = solve_references(&shape, points, threads, &opts, models).unwrap();
            let got: Vec<Measures> = got.into_iter().flatten().collect();
            // Debug prints every f64 in shortest round-trip form, so
            // equal text means equal bits.
            assert_eq!(format!("{got:?}"), format!("{want:?}"), "threads {threads}");
        }
    }

    #[test]
    fn extract_pulls_measure() {
        let pts = swept(TrafficModel::Model3, 1, 0.05, Some(2), Scale::Quick).unwrap();
        let (x, y) = extract(&pts, |m| m.carried_voice_traffic);
        assert_eq!(x.len(), y.len());
        assert!(y.iter().all(|&v| v >= 0.0));
    }
}
