//! Sweeps over the call arrival rate.
//!
//! Every figure in the paper's evaluation plots measures against the
//! combined GSM/GPRS call arrival rate, so the sweep is the hottest
//! repeated-solve loop in the workspace. It runs on the
//! symbolic/numeric split of [`crate::template`]: the state space,
//! solver workspace and (when needed) CSR pattern are captured once per
//! model shape, and each point only relowers rates and solves.
//!
//! # Warm-start contract
//!
//! Points are processed in **chunks of [`warm_chunk_len`]`(len)`
//! consecutive rates** (at most [`WARM_CHUNK`]; short grids split into
//! ~3 chunks so the parallel path keeps several workers busy). The
//! first point of every chunk starts cold from its own product-form
//! guess (exact phase marginals for *that* rate); every later point
//! warm-starts from its predecessor's solution — multiplicatively
//! extrapolated along the chain once two predecessors exist, and
//! re-projected onto the new rate's exact phase marginal. This
//! better-than-halves solver sweeps against the historical all-cold
//! sweep.
//!
//! Every entry point runs the one sweep body,
//! [`par_sweep_arrival_rates_with`]; the sequential
//! [`sweep_arrival_rates`] is its one-worker case, which solves the
//! chunks inline on the calling thread. The contract is independent of
//! the worker count: chunk boundaries are a pure function of the grid
//! length, workers own whole chunks, and each chunk's solves are the
//! same deterministic code no matter which worker picks it up. Hence
//! [`par_sweep_arrival_rates`] returns results **bit-identical** to
//! [`sweep_arrival_rates`] for any thread count, pinned by tier-1 tests
//! at 1/2/8 workers.

use crate::config::CellConfig;
use crate::error::ModelError;
use crate::health::SolveHealth;
use crate::measures::Measures;
use crate::template::{GeneratorTemplate, WarmStart};
use gprs_ctmc::solver::SolveOptions;
use gprs_exec::{num_threads, with_worker_pool};

/// Maximum number of consecutive sweep points that share one warm-start
/// chain (and one worker, in the parallel sweep). A chunk boundary
/// always starts cold, so results never depend on how chunks are
/// scheduled.
pub const WARM_CHUNK: usize = 8;

/// The chunk length used for a grid of `points` rates:
/// `ceil(points / 3)` clamped to `2..=WARM_CHUNK`.
///
/// This is a **pure function of the grid length — never of the worker
/// count** — so the sequential and parallel sweeps always agree on
/// chunk boundaries (the bit-identity contract). The formula trades
/// warm-start reuse (longer chains solve cheaper; chained points cost
/// roughly a third of a cold solve) against parallel granularity:
/// short grids split into ~3 chunks so the parallel sweep keeps
/// several workers busy (a quick-scale 8-point figure grid gets 3
/// chunks, not one serial chain), while long sweeps saturate at
/// [`WARM_CHUNK`]-point chains.
pub fn warm_chunk_len(points: usize) -> usize {
    points.div_ceil(3).clamp(2, WARM_CHUNK)
}

/// One point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Combined call arrival rate (calls/s).
    pub rate: f64,
    /// The measures at this rate.
    pub measures: Measures,
    /// Solver sweeps used for this point.
    pub sweeps: usize,
    /// Final residual.
    pub residual: f64,
    /// Health report of this point's solve: which rung of the fallback
    /// ladder produced it (always [`crate::SolveRung::Primary`] on the
    /// happy path).
    pub health: SolveHealth,
}

/// Evenly spaced rates over `[lo, hi]` (inclusive), `points >= 2`.
///
/// # Panics
///
/// Panics if `points < 2`, `lo <= 0`, or `hi <= lo`.
pub fn rate_grid(lo: f64, hi: f64, points: usize) -> Vec<f64> {
    assert!(points >= 2, "need at least two grid points");
    assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
    (0..points)
        .map(|i| lo + (hi - lo) * i as f64 / (points - 1) as f64)
        .collect()
}

/// Solves one chunk of consecutive rates through a template: cold at
/// the chunk head, chained afterwards (the warm-start contract), the
/// last point as the chain's [tail](WarmStart::ChainTail) so that no
/// predecessor copy outlives the chunk. Each point runs through the
/// fallback ladder of
/// [`GeneratorTemplate::solve_resilient`] — bit-identical to the plain
/// solve on the happy path, degrading gracefully (with the rung
/// recorded in [`SweepPoint::health`]) instead of sinking the whole
/// sweep when one stiff point fails to converge.
fn solve_chunk(
    base: &CellConfig,
    rates: &[f64],
    first_index: usize,
    opts: &SolveOptions,
    template: &mut GeneratorTemplate,
    progress: &impl Fn(usize, &SweepPoint),
) -> Result<Vec<SweepPoint>, ModelError> {
    template.reset_chain();
    let mut points = Vec::with_capacity(rates.len());
    for (offset, &rate) in rates.iter().enumerate() {
        let mut cfg = base.clone();
        cfg.call_arrival_rate = rate;
        let model = template.model_for(cfg)?;
        let warm = if offset + 1 == rates.len() {
            WarmStart::ChainTail
        } else {
            WarmStart::Chained
        };
        let solved = template.solve_resilient(&model, opts, warm)?;
        let point = SweepPoint {
            rate,
            measures: solved.measures,
            sweeps: solved.sweeps,
            residual: solved.residual,
            health: solved.health,
        };
        progress(first_index + offset, &point);
        points.push(point);
    }
    Ok(points)
}

/// Runs the model at each arrival rate under the chunked warm-start
/// contract (see the [module docs](self)).
///
/// `base` supplies every parameter except the arrival rate, which is
/// overridden per point.
///
/// # Errors
///
/// Propagates the first construction or convergence error.
///
/// # Example
///
/// ```
/// use gprs_core::sweep::{rate_grid, sweep_arrival_rates};
/// use gprs_core::CellConfig;
/// use gprs_ctmc::SolveOptions;
/// use gprs_traffic::TrafficModel;
///
/// let base = CellConfig::builder()
///     .traffic_model(TrafficModel::Model3)
///     .total_channels(5)
///     .buffer_capacity(6)
///     .max_gprs_sessions(2)
///     .build()?;
/// let points =
///     sweep_arrival_rates(&base, &rate_grid(0.1, 0.5, 3), &SolveOptions::quick())?;
/// // Voice blocking grows along the paper's x-axis.
/// assert!(points[2].measures.gsm_blocking_probability
///     >= points[0].measures.gsm_blocking_probability);
/// # Ok::<(), gprs_core::ModelError>(())
/// ```
pub fn sweep_arrival_rates(
    base: &CellConfig,
    rates: &[f64],
    opts: &SolveOptions,
) -> Result<Vec<SweepPoint>, ModelError> {
    par_sweep_arrival_rates_with(base, rates, opts, 1, |_, _| {})
}

/// Runs the model at each arrival rate across threads.
///
/// Workers pull whole [`warm_chunk_len`]-sized chunks off the
/// [`with_worker_pool`] queue, so the parallel sweep honours exactly
/// the same warm-start contract as [`sweep_arrival_rates`] (chunk
/// heads cold, successors chained); results come back **in rate
/// order** and are bit-identical to the sequential sweep for any
/// thread count. Worker count comes from [`gprs_exec::num_threads`]
/// (`RAYON_NUM_THREADS`, or the machine width). Each worker owns one
/// [`GeneratorTemplate`] for the whole sweep, so steady state solves
/// avoid all `O(states)` allocations (per-point model construction and
/// the small Erlang marginals remain).
///
/// # Errors
///
/// Propagates the construction or convergence error of the
/// *lowest-rate* failing point whose chunk predecessors succeeded,
/// whatever the worker count.
///
/// # Example
///
/// ```
/// use gprs_core::sweep::{par_sweep_arrival_rates, rate_grid, sweep_arrival_rates};
/// use gprs_core::CellConfig;
/// use gprs_ctmc::SolveOptions;
/// use gprs_traffic::TrafficModel;
///
/// let base = CellConfig::builder()
///     .traffic_model(TrafficModel::Model3)
///     .total_channels(5)
///     .buffer_capacity(6)
///     .max_gprs_sessions(2)
///     .build()?;
/// let rates = rate_grid(0.1, 0.5, 4);
/// let par = par_sweep_arrival_rates(&base, &rates, &SolveOptions::quick())?;
/// let seq = sweep_arrival_rates(&base, &rates, &SolveOptions::quick())?;
/// assert_eq!(par.len(), seq.len());
/// for (p, s) in par.iter().zip(&seq) {
///     assert_eq!(p.measures.carried_data_traffic, s.measures.carried_data_traffic);
/// }
/// # Ok::<(), gprs_core::ModelError>(())
/// ```
pub fn par_sweep_arrival_rates(
    base: &CellConfig,
    rates: &[f64],
    opts: &SolveOptions,
) -> Result<Vec<SweepPoint>, ModelError> {
    par_sweep_arrival_rates_with(base, rates, opts, num_threads(), |_, _| {})
}

/// [`par_sweep_arrival_rates`] with an explicit worker count (used by
/// benches and the determinism tests; `1` is the sequential sweep).
///
/// # Errors
///
/// As [`par_sweep_arrival_rates`].
pub fn par_sweep_arrival_rates_threads(
    base: &CellConfig,
    rates: &[f64],
    opts: &SolveOptions,
    threads: usize,
) -> Result<Vec<SweepPoint>, ModelError> {
    par_sweep_arrival_rates_with(base, rates, opts, threads, |_, _| {})
}

/// Like [`par_sweep_arrival_rates_threads`], invoking
/// `progress(index, &point)` as each point completes. Points finish out
/// of order across workers, so the callback must be `Sync`; the
/// *returned* vector is always in rate order.
///
/// # Errors
///
/// As [`par_sweep_arrival_rates`].
pub fn par_sweep_arrival_rates_with(
    base: &CellConfig,
    rates: &[f64],
    opts: &SolveOptions,
    threads: usize,
    progress: impl Fn(usize, &SweepPoint) + Sync,
) -> Result<Vec<SweepPoint>, ModelError> {
    if rates.is_empty() {
        return Ok(Vec::new());
    }
    let chunk_len = warm_chunk_len(rates.len());
    let chunk_count = rates.len().div_ceil(chunk_len);
    let threads = threads.clamp(1, chunk_count);

    // Work queue of chunk indices on a persistent worker pool: workers
    // own whole chunks (the unit of the warm-start contract), and long
    // chunks (high rates converge slower) do not stall the batch the
    // way fixed chunk-to-worker assignment would. Each worker *owns*
    // one template for the whole sweep — no mutex, no acquire/release —
    // and results are independent of which worker serves which chunk
    // (chains reset at chunk heads). Worker 0 is the calling thread, so
    // one worker spawns nothing and solves the chunks in order.
    let templates: Vec<GeneratorTemplate> = (0..threads)
        .map(|_| GeneratorTemplate::new(base))
        .collect::<Result<_, ModelError>>()?;
    let chunk_results = with_worker_pool(
        templates,
        |_, template: &mut GeneratorTemplate, c: usize| {
            let first = c * chunk_len;
            let chunk = &rates[first..(first + chunk_len).min(rates.len())];
            solve_chunk(base, chunk, first, opts, template, &progress)
        },
        |pool| pool.run_queue((0..chunk_count).collect()),
    );
    let mut points = Vec::with_capacity(rates.len());
    for result in chunk_results {
        // Contained worker panics resurface here (the historical
        // fan-out propagated them too); convergence failures rank by
        // chunk order, so the lowest failing chunk wins.
        points.extend(result.unwrap_or_else(|panic| panic.resume())?);
    }
    Ok(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gprs_traffic::TrafficModel;

    fn tiny_base() -> CellConfig {
        CellConfig::builder()
            .total_channels(4)
            .reserved_pdchs(1)
            .buffer_capacity(5)
            .traffic_model(TrafficModel::Model3)
            .max_gprs_sessions(2)
            .build()
            .unwrap()
    }

    #[test]
    fn grid_is_inclusive_and_even() {
        let g = rate_grid(0.1, 1.0, 10);
        assert_eq!(g.len(), 10);
        assert!((g[0] - 0.1).abs() < 1e-12);
        assert!((g[9] - 1.0).abs() < 1e-12);
        assert!((g[1] - g[0] - 0.1).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn grid_needs_two_points() {
        let _ = rate_grid(0.1, 1.0, 1);
    }

    #[test]
    fn sweep_produces_monotone_voice_load() {
        let base = tiny_base();
        let rates = rate_grid(0.1, 1.0, 4);
        let pts = sweep_arrival_rates(&base, &rates, &SolveOptions::default()).unwrap();
        assert_eq!(pts.len(), 4);
        // Carried voice traffic grows with the arrival rate.
        for w in pts.windows(2) {
            assert!(w[1].measures.carried_voice_traffic > w[0].measures.carried_voice_traffic);
        }
        // Blocking too.
        for w in pts.windows(2) {
            assert!(
                w[1].measures.gsm_blocking_probability >= w[0].measures.gsm_blocking_probability
            );
        }
    }

    #[test]
    fn every_point_converges_to_tolerance() {
        let base = tiny_base();
        let rates = rate_grid(0.2, 0.4, 5);
        let opts = SolveOptions::default();
        let pts = sweep_arrival_rates(&base, &rates, &opts).unwrap();
        for p in &pts {
            assert!(p.residual <= opts.tolerance, "rate {}", p.rate);
            assert!(p.sweeps > 0);
        }
    }

    #[test]
    fn progress_callback_fires_in_order() {
        let base = tiny_base();
        let rates = rate_grid(0.2, 0.4, 3);
        let seen = std::sync::Mutex::new(Vec::new());
        let _ = par_sweep_arrival_rates_with(&base, &rates, &SolveOptions::default(), 1, |i, p| {
            seen.lock().unwrap().push((i, p.rate));
        })
        .unwrap();
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0].0, 0);
        assert_eq!(seen[2].0, 2);
    }

    #[test]
    fn warm_start_contract_is_identical_for_all_thread_counts() {
        // The satellite contract: sequential and parallel sweeps share
        // the chunked warm-start policy, so results match bitwise at
        // any worker count — including across a chunk boundary
        // (WARM_CHUNK < 10 points here).
        let base = tiny_base();
        let rates = rate_grid(0.1, 1.0, 10);
        let opts = SolveOptions::default();
        let seq = sweep_arrival_rates(&base, &rates, &opts).unwrap();
        for threads in [1usize, 2, 8] {
            let par = par_sweep_arrival_rates_threads(&base, &rates, &opts, threads).unwrap();
            assert_eq!(par.len(), seq.len());
            for (p, s) in par.iter().zip(&seq) {
                assert_eq!(p.measures, s.measures, "threads {threads}, rate {}", p.rate);
                assert_eq!(p.sweeps, s.sweeps);
                assert_eq!(p.residual.to_bits(), s.residual.to_bits());
            }
        }
    }

    #[test]
    fn chunk_tails_equal_the_chained_template_solves() {
        // Each chunk's last point is solved as the chain's tail, which
        // keeps no predecessor: the points must still equal a template
        // solving every point of every chunk `Chained`. The 7-point
        // grid's 3-point chunks put an extrapolating solve at the tail.
        let base = tiny_base();
        let opts = SolveOptions::default();
        for len in [2, 3, 5, 7] {
            let rates = rate_grid(0.1, 1.0, len);
            let swept = sweep_arrival_rates(&base, &rates, &opts).unwrap();
            let mut template = GeneratorTemplate::new(&base).unwrap();
            let mut chained = Vec::new();
            for chunk in rates.chunks(warm_chunk_len(len)) {
                template.reset_chain();
                for &rate in chunk {
                    let mut cfg = base.clone();
                    cfg.call_arrival_rate = rate;
                    let model = template.model_for(cfg).unwrap();
                    let solved = template
                        .solve_resilient(&model, &opts, WarmStart::Chained)
                        .unwrap();
                    chained.push(SweepPoint {
                        rate,
                        measures: solved.measures,
                        sweeps: solved.sweeps,
                        residual: solved.residual,
                        health: solved.health,
                    });
                }
            }
            // `Debug` prints every f64 round-trip exactly.
            assert_eq!(format!("{swept:?}"), format!("{chained:?}"), "{len} points");
        }
    }

    #[test]
    fn two_point_chunks_allocate_no_predecessor() {
        let base = tiny_base();
        let opts = SolveOptions::default();
        let mut template = GeneratorTemplate::new(&base).unwrap();
        let rates = rate_grid(0.2, 0.4, 3);
        solve_chunk(&base, &rates[..2], 0, &opts, &mut template, &|_, _| {}).unwrap();
        assert_eq!(template.predecessor_capacity(), 0, "2-point chunk");
        // A longer chunk needs its predecessor to extrapolate the tail.
        solve_chunk(&base, &rates, 0, &opts, &mut template, &|_, _| {}).unwrap();
        assert!(template.predecessor_capacity() > 0, "3-point chunk");
    }

    #[test]
    fn chunk_length_is_bounded_and_splits_small_grids() {
        // Pure function of the grid length: never of the worker count.
        assert_eq!(warm_chunk_len(2), 2);
        assert_eq!(warm_chunk_len(8), 3); // quick-scale grid -> 3 chunks
        assert_eq!(warm_chunk_len(20), 7); // full-scale grid -> 3 chunks
        assert_eq!(warm_chunk_len(1000), WARM_CHUNK);
    }

    #[test]
    fn chunk_heads_start_cold() {
        // The first point of each chunk must be bit-identical to a
        // standalone cold solve of that rate.
        let base = tiny_base();
        let rates = rate_grid(0.1, 1.0, 10);
        let chunk_len = warm_chunk_len(rates.len());
        let opts = SolveOptions::default();
        let pts = sweep_arrival_rates(&base, &rates, &opts).unwrap();
        for head in [0, chunk_len] {
            let mut cfg = base.clone();
            cfg.call_arrival_rate = rates[head];
            let cold = crate::GprsModel::new(cfg)
                .unwrap()
                .solve(&opts, None)
                .unwrap();
            assert_eq!(pts[head].measures, *cold.measures(), "chunk head {head}");
            assert_eq!(pts[head].sweeps, cold.sweeps());
        }
    }

    #[test]
    fn sweep_points_report_healthy_primary_solves() {
        let base = tiny_base();
        let rates = rate_grid(0.2, 0.4, 3);
        let pts = sweep_arrival_rates(&base, &rates, &SolveOptions::default()).unwrap();
        for p in &pts {
            assert!(!p.health.degraded(), "rate {}", p.rate);
            assert_eq!(p.health.sweeps, p.sweeps);
        }
    }

    #[test]
    fn starved_sweep_degrades_to_direct_rung_instead_of_failing() {
        // A budget no iterative rung can meet: every point still comes
        // back — answered exactly by the GTH rung — with the
        // degradation visible in the health report.
        let base = tiny_base();
        let rates = rate_grid(0.2, 0.4, 3);
        let starved = SolveOptions::default()
            .with_max_sweeps(1)
            .with_tolerance(1e-300);
        let pts = sweep_arrival_rates(&base, &rates, &starved).unwrap();
        let reference = sweep_arrival_rates(&base, &rates, &SolveOptions::default()).unwrap();
        for (p, r) in pts.iter().zip(&reference) {
            assert!(p.health.degraded(), "rate {}", p.rate);
            assert!(
                (p.measures.carried_data_traffic - r.measures.carried_data_traffic).abs() < 1e-8
            );
        }
    }

    #[test]
    fn empty_rate_list_is_a_noop() {
        let base = tiny_base();
        assert!(sweep_arrival_rates(&base, &[], &SolveOptions::quick())
            .unwrap()
            .is_empty());
        assert!(
            par_sweep_arrival_rates_threads(&base, &[], &SolveOptions::quick(), 4)
                .unwrap()
                .is_empty()
        );
    }
}
