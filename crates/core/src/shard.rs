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
//!   tolerance, the cells go to `k` workers
//!   ([`gprs_exec::with_worker_pool`]; the calling thread serves worker
//!   0) as near-equal consecutive index ranges. Each worker solves each
//!   of its cells once at the converged rates, cold on the cell's fresh
//!   template, through the fallback ladder of
//!   [`GeneratorTemplate::solve_resilient`]. The report counts as one
//!   iteration; its means and out-fluxes come from the closed form.
//!
//! **Bitwise contract**: every update and every cross-cell sum runs on
//! the coordinator in one fixed order — inflow sums over in-edges in
//! ascending source order, and `delta` as a max-reduction — and a
//! worker's answer for a cell depends only on the cell's fresh template
//! and the rates it is sent. The worker count therefore moves no bit.
//! `tests/shard_equivalence.rs` pins bit-equality of every
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
use std::ops::Range;

/// One worker's state for the report: the consecutive cell range it
/// owns, starting at `first`, with each cell's configuration and fresh
/// template.
struct ShardState {
    first: usize,
    cells: Vec<(CellConfig, GeneratorTemplate)>,
    solve_opts: SolveOptions,
}

/// The report request: solve each listed `(cell, gsm rate, gprs rate)`
/// at the rates given, ascending by cell.
struct ShardReq {
    cells: Vec<(usize, f64, f64)>,
}

/// The report response: the solved cells' points in request order, and
/// the worker's lowest failing cell, if any (the worker stops there).
struct ShardResp {
    solved: Vec<PointSolve>,
    failed: Option<(usize, ModelError)>,
}

impl ShardState {
    fn solve(&mut self, req: ShardReq) -> ShardResp {
        let mut resp = ShardResp {
            solved: Vec::with_capacity(req.cells.len()),
            failed: None,
        };
        for (cell, lam_gsm, lam_gprs) in req.cells {
            let (config, template) = &mut self.cells[cell - self.first];
            let point = template
                .model_with_handovers(config.clone(), lam_gsm, lam_gprs)
                .and_then(|model| {
                    template.solve_resilient(&model, &self.solve_opts, WarmStart::Cold)
                });
            match point {
                Ok(point) => resp.solved.push(point),
                Err(e) => {
                    resp.failed = Some((cell, e));
                    break;
                }
            }
        }
        resp
    }
}

/// The cells each of `shards` workers owns: near-equal consecutive
/// index ranges over `0..cells`, the first `cells % k` one cell longer,
/// with the worker count `k` clamped to `1..=cells`.
fn worker_ranges(cells: usize, shards: usize) -> Vec<Range<usize>> {
    let k = shards.clamp(1, cells.max(1));
    let mut start = 0;
    (0..k)
        .map(|w| {
            let len = cells / k + usize::from(w < cells % k);
            start += len;
            start - len..start
        })
        .collect()
}

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

/// The cluster fixed point, reported over `num_shards` workers (clamped
/// to `1..=cells`): called from [`ClusterModel::solve_with_registry`].
pub(crate) fn solve_sharded(
    model: &ClusterModel,
    opts: &ClusterSolveOptions,
    registry: &TemplateRegistry,
    num_shards: usize,
) -> Result<SolvedCluster, ModelError> {
    let n = model.num_cells();
    let (init_gsm, init_gprs) = model.initial_rates()?;

    // Templates in global cell order, so the lowest-failing-cell error
    // does not depend on the shard count.
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

    let points = solve_cells(&coord, templates, &opts.solve, num_shards)?;
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
        surrogate_solves: 0,
    })
}

/// The report pass: solves every cell once at the coordinator's
/// arrival rates, over `num_shards` workers. Returns the points in cell
/// order, or the lowest failing cell's error.
fn solve_cells(
    coord: &Coordinator<'_>,
    templates: Vec<GeneratorTemplate>,
    solve_opts: &SolveOptions,
    num_shards: usize,
) -> Result<Vec<PointSolve>, ModelError> {
    let ranges = worker_ranges(coord.configs.len(), num_shards);
    let mut templates = templates.into_iter();
    let states = ranges
        .iter()
        .map(|range| ShardState {
            first: range.start,
            cells: coord.configs[range.clone()]
                .iter()
                .cloned()
                .zip(templates.by_ref())
                .collect(),
            solve_opts: solve_opts.clone(),
        })
        .collect();
    let reqs = ranges
        .into_iter()
        .enumerate()
        .map(|(w, range)| {
            let cells = range
                .map(|c| (c, coord.lam_gsm[c], coord.lam_gprs[c]))
                .collect();
            (w, ShardReq { cells })
        })
        .collect();
    let resps = with_worker_pool(
        states,
        |_, state: &mut ShardState, req| state.solve(req),
        |pool| pool.run_on(reqs),
    );
    let mut points = Vec::with_capacity(coord.configs.len());
    let mut failed: Option<(usize, ModelError)> = None;
    for resp in resps {
        let resp = resp.unwrap_or_else(|panic| panic.resume());
        points.extend(resp.solved);
        // Report the lowest failing cell, so the error does not depend
        // on the worker count.
        if let Some((c, e)) = resp.failed {
            if failed.as_ref().is_none_or(|(f, _)| c < *f) {
                failed = Some((c, e));
            }
        }
    }
    match failed {
        Some((_, e)) => Err(e),
        None => Ok(points),
    }
}

#[cfg(test)]
mod tests {
    use super::worker_ranges;

    #[test]
    fn worker_ranges_cover_every_cell_once_in_near_equal_runs() {
        assert_eq!(worker_ranges(12, 3), vec![0..4, 4..8, 8..12]);
        assert_eq!(worker_ranges(7, 3), vec![0..3, 3..5, 5..7]);
        for cells in 2..=30 {
            for shards in 1..=cells {
                let ranges = worker_ranges(cells, shards);
                assert_eq!(ranges.len(), shards);
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges[shards - 1].end, cells);
                for pair in ranges.windows(2) {
                    assert_eq!(pair[0].end, pair[1].start, "{cells}/{shards}");
                    assert!(pair[0].len() >= pair[1].len());
                    assert!(pair[0].len() <= pair[1].len() + 1);
                }
                assert!(ranges.iter().all(|r| !r.is_empty()));
            }
        }
    }

    #[test]
    fn worker_count_is_clamped_to_the_cells() {
        assert_eq!(
            worker_ranges(7, 100),
            (0..7).map(|c| c..c + 1).collect::<Vec<_>>()
        );
        assert_eq!(worker_ranges(7, 0), vec![0..7]);
    }
}
