//! The cluster fixed-point engine: a coordinator that iterates the
//! handover vectors on closed-form Erlang means, and workers that solve
//! each cell's CTMC once at the converged rates.
//!
//! [`ClusterModel::solve_with_registry`] runs every solve through this
//! module. A cell's out-fluxes are `μ_h,GSM·E[n]` and `μ_h,GPRS·E[m]`.
//! Its phase process `(n, m, r)` is autonomous and product-form
//! ([`crate::GprsModel::phase_marginal`]), so `E[n]` and `E[m]` are the
//! means of the two Erlang loss systems that
//! [`crate::GprsModel::with_handover_arrivals`] builds from the cell's
//! inflow: `N_GSM` channels at load `(λ_GSM + λ_h,GSM)/(μ_GSM + μ_h,GSM)`
//! and `M` sessions at `(λ_GPRS + λ_h,GPRS)/(μ_GPRS + μ_h,GPRS)`. The
//! stationary vector of the cell's CTMC carries the same means up to
//! rounding (`tests/closed_form_means.rs`), so the outer iteration needs
//! no CTMC solve.
//!
//! The coordinator holds the `2·n` handover arrival rates and the
//! out-fluxes, and runs two steps over a set of cells. An *update* sets
//! each cell's out-fluxes from the closed-form means at its current
//! arrival rates; a *refresh* moves each cell's arrival rates to the
//! inflow of the current out-fluxes and measures the change:
//!
//! * **Jacobi** — each outer iteration updates every cell, then
//!   refreshes every cell.
//! * **Gauss–Seidel** — each outer iteration refreshes, then updates,
//!   one colour class at a time.
//! * **Report** — once the arrival rates move by at most the
//!   tolerance, every cell's CTMC is solved once at the converged
//!   rates, cold on the cell's fresh template, through the fallback
//!   ladder of [`GeneratorTemplate::solve_resilient`]. The cells go to
//!   `k` workers as one load-balanced queue
//!   ([`gprs_exec::PoolHandle::run_queue`]; the calling thread serves
//!   worker 0), and each worker takes the next cell as it frees up.
//!   The report counts as one iteration; its means and out-fluxes come
//!   from the closed form.
//!
//! **Bitwise contract**: every update and every cross-cell sum runs on
//! the coordinator in one fixed order — inflow sums over in-edges in
//! ascending source order, and `delta` as a max-reduction — and a
//! cell's answer depends only on its fresh template and its rates, so
//! which worker serves it moves no bit, and neither does the worker
//! count. `tests/shard_equivalence.rs` pins bit-equality of every
//! [`SolvedCluster`] field across shard and thread counts for both
//! orderings; `tests/graph_equivalence.rs` and
//! `tests/ordering_fixtures.rs` pin the results to fixtures.

use crate::cluster::{ClusterModel, ClusterSolveOptions, SolvedCell, SolvedCluster, SweepOrdering};
use crate::config::CellConfig;
use crate::error::ModelError;
use crate::graph::CellGraph;
use crate::template::{GeneratorTemplate, PointSolve, TemplateRegistry, WarmStart};
use gprs_ctmc::solver::SolveOptions;
use gprs_exec::with_worker_pool;
use gprs_queueing::QueueingError;

/// The relative change of one arrival rate, as `delta` measures it.
fn relative_change(cur: f64, next: f64) -> f64 {
    let scale = cur.abs().max(next.abs()).max(1e-300);
    (next - cur).abs() / scale
}

/// The fixed point itself: per cell, the handover arrival rates and the
/// out-fluxes of its latest update.
struct Coordinator<'a> {
    graph: &'a CellGraph,
    configs: &'a [CellConfig],
    lam_gsm: Vec<f64>,
    lam_gprs: Vec<f64>,
    out_gsm: Vec<f64>,
    out_gprs: Vec<f64>,
}

impl Coordinator<'_> {
    /// The closed-form populations `(E[n], E[m])` of cell `c` at its
    /// current arrival rates.
    fn means(&self, c: usize) -> Result<(f64, f64), ModelError> {
        let config = &self.configs[c];
        Ok((
            config.voice_queue(self.lam_gsm[c])?.mean_busy(),
            config.session_queue(self.lam_gprs[c])?.mean_busy(),
        ))
    }

    /// Sets the out-fluxes of each of `cells` to `μ_h` times its
    /// closed-form populations.
    fn update(&mut self, cells: &[usize]) -> Result<(), ModelError> {
        for &c in cells {
            let (voice, sessions) = self.means(c)?;
            self.out_gsm[c] = self.configs[c].gsm_handover_rate() * voice;
            self.out_gprs[c] = self.configs[c].gprs_handover_rate() * sessions;
        }
        Ok(())
    }

    /// The inflow sums of cell `c` from the current out-fluxes, over
    /// its in-edges in ascending source order.
    fn inflow(&self, c: usize) -> Result<(f64, f64), ModelError> {
        let mut next_gsm = 0.0;
        let mut next_gprs = 0.0;
        for e in self.graph.in_edges(c)? {
            next_gsm += self.out_gsm[e.source] * e.weight / e.source_total;
            next_gprs += self.out_gprs[e.source] * e.weight / e.source_total;
        }
        Ok((next_gsm, next_gprs))
    }

    /// Moves each of `cells` to the inflow of the current out-fluxes
    /// and returns the largest relative change of any of their arrival
    /// rates. The inflow reads only out-fluxes, so the order of the
    /// assignments moves no bit.
    fn refresh(&mut self, cells: &[usize]) -> Result<f64, ModelError> {
        let mut delta = 0.0f64;
        for &c in cells {
            let (gsm, gprs) = self.inflow(c)?;
            delta = delta
                .max(relative_change(self.lam_gsm[c], gsm))
                .max(relative_change(self.lam_gprs[c], gprs));
            self.lam_gsm[c] = gsm;
            self.lam_gprs[c] = gprs;
        }
        Ok(delta)
    }

    /// Iterates `step` until the largest relative change of the
    /// arrival rates is within `opts.tolerance`, and returns the
    /// iteration count, the report pass included, and that change.
    fn converge(
        &mut self,
        opts: &ClusterSolveOptions,
        mut step: impl FnMut(&mut Self) -> Result<f64, ModelError>,
    ) -> Result<(usize, f64), ModelError> {
        let mut delta = f64::INFINITY;
        // The cap bounds *balance* iterations; the report pass of a
        // vector that converged at the cap still runs.
        for iteration in 1..=opts.max_iterations {
            delta = step(self)?;
            if delta <= opts.tolerance {
                return Ok((iteration + 1, delta));
            }
        }
        Err(ModelError::Queueing(QueueingError::BalanceNotConverged {
            iterations: opts.max_iterations,
            last_delta: delta,
        }))
    }
}

/// The cluster fixed point, reported over `workers` workers (`1..=cells`):
/// called from [`ClusterModel::solve_with_registry`].
pub(crate) fn solve_cluster(
    model: &ClusterModel,
    opts: &ClusterSolveOptions,
    registry: &TemplateRegistry,
    workers: usize,
) -> Result<SolvedCluster, ModelError> {
    let n = model.num_cells();
    let (init_gsm, init_gprs) = model.initial_rates()?;

    // Templates up front in cell order, so an invalid configuration
    // fails before any iteration, as the lowest such cell's error.
    let templates = model
        .configs()
        .iter()
        .map(|cfg| registry.template_for(cfg))
        .collect::<Result<Vec<_>, _>>()?;
    let shapes = registry.setups();

    let mut coord = Coordinator {
        graph: model.graph(),
        configs: model.configs(),
        // Out-fluxes seed from the scalar-balance arrival rates (at
        // which every cell's inflow equals its own outflow):
        // Gauss–Seidel reads them before the first update, Jacobi
        // overwrites them first.
        out_gsm: init_gsm.clone(),
        out_gprs: init_gprs.clone(),
        lam_gsm: init_gsm,
        lam_gprs: init_gprs,
    };
    let all: Vec<usize> = (0..n).collect();
    let (iterations, handover_delta) = match opts.ordering {
        SweepOrdering::Jacobi => coord.converge(opts, |coord| {
            coord.update(&all)?;
            coord.refresh(&all)
        })?,
        SweepOrdering::GaussSeidel => {
            let classes = model.graph().color_classes();
            coord.converge(opts, |coord| {
                let mut delta = 0.0f64;
                for class in &classes {
                    // No two class members share an edge, so each
                    // refresh reads only out-fluxes of other classes.
                    delta = delta.max(coord.refresh(class)?);
                    coord.update(class)?;
                }
                Ok(delta)
            })?
        }
    };

    let points = solve_cells(&coord, templates, &opts.solve, workers)?;
    let cells = points
        .into_iter()
        .enumerate()
        .map(|(c, point)| {
            let (voice, sessions) = coord.means(c)?;
            let config = &model.configs()[c];
            Ok(SolvedCell {
                measures: point.measures,
                gsm_handover_in: coord.lam_gsm[c],
                gprs_handover_in: coord.lam_gprs[c],
                gsm_handover_out: config.gsm_handover_rate() * voice,
                gprs_handover_out: config.gprs_handover_rate() * sessions,
                mean_voice_calls: voice,
                mean_sessions: sessions,
                sweeps: point.sweeps,
                residual: point.residual,
                health: point.health,
            })
        })
        .collect::<Result<Vec<_>, ModelError>>()?;
    Ok(SolvedCluster {
        cells,
        iterations,
        handover_delta,
        symbolic_setups: shapes,
    })
}

/// The report pass: solves every cell's CTMC once at the
/// coordinator's arrival rates, cold on its fresh template, as one
/// load-balanced batch over `workers` workers. Returns the points in
/// cell order, or the lowest failing cell's error.
fn solve_cells(
    coord: &Coordinator<'_>,
    templates: Vec<GeneratorTemplate>,
    solve_opts: &SolveOptions,
    workers: usize,
) -> Result<Vec<PointSolve>, ModelError> {
    let jobs = templates.into_iter().enumerate().collect();
    let points = with_worker_pool(
        vec![(); workers],
        |_, (), (c, mut template): (usize, GeneratorTemplate)| {
            let model = template.model_with_handovers(
                coord.configs[c].clone(),
                coord.lam_gsm[c],
                coord.lam_gprs[c],
            )?;
            template.solve_resilient(&model, solve_opts, WarmStart::Cold)
        },
        |pool| pool.run_queue(jobs),
    );
    // In cell order, so the first error is the lowest failing cell's.
    points
        .into_iter()
        .map(|point| point.unwrap_or_else(|panic| panic.resume()))
        .collect()
}
