//! The cluster fixed-point engine: a coordinator that holds the
//! handover vectors, and persistent workers that own the cell
//! templates.
//!
//! [`ClusterModel::solve_with_registry`] runs every solve through this
//! module. The cells go to `k` **long-lived workers**
//! ([`gprs_exec::with_worker_pool`]; the calling thread serves worker
//! 0) as near-equal consecutive index ranges, and each worker owns its
//! cells' [`GeneratorTemplate`]s for the entire solve. The coordinator
//! holds the rest of the fixed point: the `2·n` handover arrival rates
//! and the out-fluxes of the latest solves. Every outer step is one
//! round and one *refresh*, which moves a set of cells' arrival rates
//! to the inflows of the latest out-fluxes and measures the change:
//!
//! * **Jacobi** — one round per outer iteration: the coordinator sends
//!   every cell at its current arrival rates, each worker solves the
//!   cells it is sent and returns their out-fluxes, and the coordinator
//!   then refreshes every cell.
//! * **Gauss–Seidel** — one round per colour class: the coordinator
//!   refreshes the class members and sends just those cells.
//! * **Report** — the final pass sends every cell with `report: true`,
//!   and each worker also returns the cell's [`SolvedCell`].
//!
//! Per-solve overheads stay low because the templates persist: between
//! outer iterations only the handover arrival rates move, so each
//! template refreshes just the phase-coupling rates of its blocked
//! tables (it detects the unchanged cell configuration itself), the
//! lean solve path ([`GeneratorTemplate::solve_resilient_lean`]) skips
//! the full measures extraction on non-reporting iterations, and the
//! population means walk the phases in index order instead of decoding
//! each state.
//!
//! **Bitwise contract**: a worker's answer for a cell depends only on
//! that cell's template and the rates it is sent, and every cross-cell
//! sum runs on the coordinator in one fixed order — inflow sums over
//! in-edges in ascending source order, and `delta` as a max-reduction.
//! The worker count therefore moves no bit.
//! `tests/shard_equivalence.rs` pins bit-equality of every
//! [`SolvedCluster`] field across shard and thread counts for both
//! orderings; `tests/graph_equivalence.rs` and
//! `tests/ordering_fixtures.rs` pin the results to fixtures.

use crate::cluster::{ClusterModel, ClusterSolveOptions, SolvedCell, SolvedCluster, SweepOrdering};
use crate::config::CellConfig;
use crate::error::ModelError;
use crate::graph::CellGraph;
use crate::health::{SolveHealth, SolveRung};
use crate::template::{GeneratorTemplate, TemplateRegistry, WarmStart};
use gprs_ctmc::solver::SolveOptions;
use gprs_exec::{with_worker_pool, PoolHandle};
use gprs_queueing::QueueingError;
use std::ops::Range;

/// One owned cell: its configuration, persistent template, and the
/// inner sweeps it has accumulated over the solve.
struct CellCtx {
    config: CellConfig,
    template: GeneratorTemplate,
    gsm_h_rate: f64,
    gprs_h_rate: f64,
    sweeps: usize,
}

/// Outcome of one lean cell solve.
struct LeanCell {
    mean_voice_calls: f64,
    mean_sessions: f64,
    health: SolveHealth,
    measures: Option<crate::measures::Measures>,
}

/// One worker's state: the consecutive cell range it owns, starting at
/// `first`.
struct ShardState {
    first: usize,
    cells: Vec<CellCtx>,
    solve_opts: SolveOptions,
    warm: WarmStart,
}

/// One round request: solve each listed `(cell, gsm rate, gprs rate)`
/// at the rates given, ascending by cell.
struct ShardReq {
    cells: Vec<(usize, f64, f64)>,
    report: bool,
}

/// One round response: `(cell, gsm out-flux, gprs out-flux)` per solved
/// cell, the cells' [`SolvedCell`]s on a reporting round, the number of
/// solves the surrogate served, and the worker's lowest failing cell,
/// if any (the worker stops there).
struct ShardResp {
    out: Vec<(usize, f64, f64)>,
    reported: Vec<SolvedCell>,
    surrogate_solves: usize,
    failed: Option<(usize, ModelError)>,
}

impl ShardState {
    fn solve(&mut self, req: ShardReq) -> ShardResp {
        let mut resp = ShardResp {
            out: Vec::with_capacity(req.cells.len()),
            reported: Vec::new(),
            surrogate_solves: 0,
            failed: None,
        };
        for (cell, lam_gsm, lam_gprs) in req.cells {
            let ctx = &mut self.cells[cell - self.first];
            let lean = match lean_solve_cell(
                ctx,
                lam_gsm,
                lam_gprs,
                &self.solve_opts,
                self.warm,
                req.report,
            ) {
                Ok(lean) => lean,
                Err(e) => {
                    resp.failed = Some((cell, e));
                    break;
                }
            };
            ctx.sweeps += lean.health.sweeps;
            if lean.health.rung == SolveRung::Surrogate {
                resp.surrogate_solves += 1;
            }
            let out_gsm = ctx.gsm_h_rate * lean.mean_voice_calls;
            let out_gprs = ctx.gprs_h_rate * lean.mean_sessions;
            resp.out.push((cell, out_gsm, out_gprs));
            if let Some(measures) = lean.measures {
                resp.reported.push(SolvedCell {
                    measures,
                    gsm_handover_in: lam_gsm,
                    gprs_handover_in: lam_gprs,
                    gsm_handover_out: out_gsm,
                    gprs_handover_out: out_gprs,
                    mean_voice_calls: lean.mean_voice_calls,
                    mean_sessions: lean.mean_sessions,
                    sweeps: ctx.sweeps,
                    residual: lean.health.residual,
                    health: lean.health,
                });
            }
        }
        resp
    }
}

/// Solves one owned cell through the lean resilient ladder (warm-started
/// from the cell's previous iterate) and reads the populations off the
/// stationary distribution: a skip-zero accumulation over the phases
/// in index order, each phase's `(n, m)` weighting its column of
/// levels. The reporting pass recovers the full measures via
/// [`GeneratorTemplate::measures_for`].
fn lean_solve_cell(
    ctx: &mut CellCtx,
    lam_gsm: f64,
    lam_gprs: f64,
    opts: &SolveOptions,
    warm: WarmStart,
    want_measures: bool,
) -> Result<LeanCell, ModelError> {
    let model = ctx
        .template
        .model_with_handovers(ctx.config.clone(), lam_gsm, lam_gprs)?;
    let health = ctx.template.solve_resilient_lean(&model, opts, warm)?;
    let space = model.space();
    let mut mean_voice_calls = 0.0f64;
    let mut mean_sessions = 0.0f64;
    let columns = ctx.template.stationary().chunks_exact(space.k_cap() + 1);
    for ((n, m, _), col) in space.phases().zip(columns) {
        for &p in col {
            if p == 0.0 {
                continue;
            }
            mean_voice_calls += p * n as f64;
            mean_sessions += p * m as f64;
        }
    }
    let measures = want_measures.then(|| ctx.template.measures_for(&model));
    Ok(LeanCell {
        mean_voice_calls,
        mean_sessions,
        health,
        measures,
    })
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

/// The coordinator's half of the fixed point: per cell, the handover
/// arrival rates and the out-fluxes of its latest solve, plus the
/// worker owning it.
struct Coordinator<'a> {
    graph: &'a CellGraph,
    owner: Vec<usize>,
    lam_gsm: Vec<f64>,
    lam_gprs: Vec<f64>,
    out_gsm: Vec<f64>,
    out_gprs: Vec<f64>,
    surrogate_solves: usize,
    shapes: usize,
}

type Pool<'h> = PoolHandle<'h, ShardState, ShardReq, ShardResp>;

impl Coordinator<'_> {
    /// One round: sends each of `cells` (ascending) to its worker at
    /// its current arrival rates and stores the returned out-fluxes.
    /// Returns the reported cells in cell order, or the lowest failing
    /// cell's error.
    fn round(
        &mut self,
        pool: &mut Pool<'_>,
        cells: &[usize],
        report: bool,
    ) -> Result<Vec<SolvedCell>, ModelError> {
        let mut jobs: Vec<Vec<(usize, f64, f64)>> = vec![Vec::new(); pool.worker_count()];
        for &c in cells {
            jobs[self.owner[c]].push((c, self.lam_gsm[c], self.lam_gprs[c]));
        }
        let reqs = jobs
            .into_iter()
            .enumerate()
            .filter(|(_, cells)| !cells.is_empty())
            .map(|(w, cells)| (w, ShardReq { cells, report }))
            .collect();
        let mut reported = Vec::new();
        let mut failed: Option<(usize, ModelError)> = None;
        for resp in pool.run_on(reqs) {
            let resp = resp.unwrap_or_else(|panic| panic.resume());
            for (c, gsm, gprs) in resp.out {
                self.out_gsm[c] = gsm;
                self.out_gprs[c] = gprs;
            }
            self.surrogate_solves += resp.surrogate_solves;
            reported.extend(resp.reported);
            // Report the lowest failing cell, so the error does not
            // depend on the worker count.
            if let Some((c, e)) = resp.failed {
                if failed.as_ref().is_none_or(|(f, _)| c < *f) {
                    failed = Some((c, e));
                }
            }
        }
        match failed {
            Some((_, e)) => Err(e),
            None => Ok(reported),
        }
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

    /// The reporting pass: re-solves every cell at the current arrival
    /// rates, counting as one iteration.
    fn report(
        mut self,
        pool: &mut Pool<'_>,
        iterations: usize,
        handover_delta: f64,
    ) -> Result<SolvedCluster, ModelError> {
        let all: Vec<usize> = (0..self.owner.len()).collect();
        let cells = self.round(pool, &all, true)?;
        debug_assert_eq!(cells.len(), all.len());
        Ok(SolvedCluster {
            cells,
            iterations,
            handover_delta,
            symbolic_setups: self.shapes,
            surrogate_solves: self.surrogate_solves,
        })
    }
}

/// The cluster fixed point over `num_shards` workers (clamped to
/// `1..=cells`): called from [`ClusterModel::solve_with_registry`].
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
    let mut templates = model
        .configs()
        .iter()
        .map(|cfg| registry.template_for(cfg))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter();
    let shapes = registry.setups();

    let warm = if opts.surrogate {
        WarmStart::Predicted
    } else {
        WarmStart::Chained
    };

    let mut owner = Vec::with_capacity(n);
    let mut states = Vec::new();
    for (w, range) in worker_ranges(n, num_shards).into_iter().enumerate() {
        owner.resize(range.end, w);
        let first = range.start;
        let cells = model.configs()[range]
            .iter()
            .zip(templates.by_ref())
            .map(|(config, template)| CellCtx {
                gsm_h_rate: config.gsm_handover_rate(),
                gprs_h_rate: config.gprs_handover_rate(),
                config: config.clone(),
                template,
                sweeps: 0,
            })
            .collect();
        states.push(ShardState {
            first,
            cells,
            solve_opts: opts.solve.clone(),
            warm,
        });
    }

    let coord = Coordinator {
        graph: model.graph(),
        owner,
        // Out-fluxes seed from the scalar-balance arrival rates (at
        // which every cell's inflow equals its own outflow):
        // Gauss–Seidel reads them before the first solve, Jacobi
        // overwrites them first.
        out_gsm: init_gsm.clone(),
        out_gprs: init_gprs.clone(),
        lam_gsm: init_gsm,
        lam_gprs: init_gprs,
        surrogate_solves: 0,
        shapes,
    };
    with_worker_pool(
        states,
        |_, state: &mut ShardState, req| state.solve(req),
        |pool| match opts.ordering {
            SweepOrdering::Jacobi => jacobi(coord, pool, opts),
            SweepOrdering::GaussSeidel => gauss_seidel(coord, pool, opts),
        },
    )
}

fn jacobi(
    mut coord: Coordinator<'_>,
    pool: &mut Pool<'_>,
    opts: &ClusterSolveOptions,
) -> Result<SolvedCluster, ModelError> {
    let all: Vec<usize> = (0..coord.owner.len()).collect();
    let mut delta = f64::INFINITY;
    // The cap bounds *balance* iterations; the reporting pass of a
    // vector that converged at the cap still runs.
    for iteration in 1..=opts.max_iterations {
        coord.round(pool, &all, false)?;
        delta = coord.refresh(&all)?;
        if delta <= opts.tolerance {
            return coord.report(pool, iteration + 1, delta);
        }
    }

    Err(ModelError::Queueing(QueueingError::BalanceNotConverged {
        iterations: opts.max_iterations,
        last_delta: delta,
    }))
}

fn gauss_seidel(
    mut coord: Coordinator<'_>,
    pool: &mut Pool<'_>,
    opts: &ClusterSolveOptions,
) -> Result<SolvedCluster, ModelError> {
    let classes = coord.graph.color_classes();
    let mut delta = f64::INFINITY;
    for iteration in 1..=opts.max_iterations {
        delta = 0.0;
        for class in &classes {
            // No two class members share an edge, so each refresh reads
            // only out-fluxes of other classes.
            delta = delta.max(coord.refresh(class)?);
            coord.round(pool, class, false)?;
        }

        if delta <= opts.tolerance {
            return coord.report(pool, iteration + 1, delta);
        }
    }

    Err(ModelError::Queueing(QueueingError::BalanceNotConverged {
        iterations: opts.max_iterations,
        last_delta: delta,
    }))
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
