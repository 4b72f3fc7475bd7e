//! The cluster fixed-point engine: persistent partition workers with
//! halo-exchange boundary fluxes.
//!
//! [`ClusterModel::solve_with_registry`] runs every solve through this
//! module. It partitions the [`CellGraph`](crate::graph::CellGraph)
//! into contiguous shards ([`Partition`](crate::graph::Partition)),
//! hands each shard to a **long-lived worker**
//! ([`gprs_exec::with_worker_pool`]; the calling thread serves shard
//! 0) that owns its cells' [`GeneratorTemplate`]s for the entire solve,
//! and drives the outer iteration as a round protocol in which only
//! **boundary fluxes** (the halo sets of the partition) cross shard
//! boundaries:
//!
//! * **Jacobi** — per outer iteration: a `Solve` round (each worker
//!   solves its owned cells and returns the boundary out-fluxes), an
//!   `Accumulate` round (workers import their halo fluxes, accumulate
//!   shard-local inflows over precomputed per-cell flux lists and
//!   return their update segments), a coordinator step that runs the
//!   adaptive-relaxation arithmetic on the globally assembled update
//!   vector, and an `Apply` round (workers step their owned arrival
//!   rates).
//! * **Gauss–Seidel** — per colour class: one `GsClass` round in which
//!   each worker refreshes and re-solves its cells of that class
//!   against the latest own + imported fluxes.
//!
//! Per-solve overheads stay low because the templates persist: between
//! outer iterations only the handover arrival rates move, so each
//! template refreshes just the phase-coupling rates of its blocked
//! tables (it detects the unchanged cell configuration itself), the
//! lean solve path ([`GeneratorTemplate::solve_resilient_lean`]) skips
//! the full measures extraction on non-reporting iterations, and
//! per-cell decode tables replace the per-state `space.decode(idx)`
//! calls in the population means.
//!
//! **Bitwise contract**: every floating-point value is produced by the
//! same operations in the same order at every shard count — inflow
//! sums run over in-edges in ascending source order, `delta` is a
//! max-reduction (order-insensitive), and the relaxation dot products
//! are evaluated sequentially on the assembled global update vector.
//! `tests/shard_equivalence.rs` pins bit-equality of every
//! [`SolvedCluster`] field across shard and thread counts for both
//! orderings; `tests/graph_equivalence.rs` pins the ring results to
//! the historical fixtures.

use crate::cluster::{ClusterModel, ClusterSolveOptions, SolvedCell, SolvedCluster, SweepOrdering};
use crate::config::CellConfig;
use crate::error::ModelError;
use crate::health::{SolveHealth, SolveRung};
use crate::template::{GeneratorTemplate, TemplateRegistry, WarmStart};
use gprs_ctmc::solver::SolveOptions;
use gprs_exec::{with_worker_pool, PoolHandle};
use gprs_queueing::QueueingError;

/// Floor of the adaptive relaxation factor: halving stops at `1/8` —
/// enough to tame a ping-ponging fixed point whose oscillatory mode
/// contracts at any rate, without stalling convergence of the
/// non-oscillatory modes.
const MIN_RELAXATION: f64 = 0.125;

/// Cap of the Aitken extrapolation factor: a contraction ratio of
/// `0.9375` maps to the cap; slower modes still extrapolate 16× per
/// step, faster ones get their exact `1/(1−ratio)` jump.
const MAX_RELAXATION: f64 = 16.0;

/// Where one inflow term's source flux lives: an owned cell of the
/// same shard (local index) or an imported halo cell (position in the
/// shard's halo list).
#[derive(Debug, Clone, Copy)]
enum Src {
    Own(usize),
    Halo(usize),
}

/// One precomputed in-edge term of an owned cell: resolved source slot
/// plus the raw weight and source weight-total of the edge. Terms are
/// stored in ascending global source order, so the accumulated inflow
/// sum is the same at every shard count.
#[derive(Debug, Clone, Copy)]
struct FluxTerm {
    src: Src,
    weight: f64,
    source_total: f64,
}

/// One owned cell: its configuration, persistent template and
/// precomputed per-state decode tables (`n`, `m`, filled on the first
/// solve). The counts are tiny integers, so `u16` keeps the tables in
/// cache across a metro-scale shard; widening to `f64` at use is exact
/// and therefore bit-identical to a `f64` table.
struct CellCtx {
    cell: usize,
    config: CellConfig,
    template: GeneratorTemplate,
    gsm_h_rate: f64,
    gprs_h_rate: f64,
    ns: Vec<u16>,
    ms: Vec<u16>,
}

/// Outcome of one lean in-shard cell solve.
struct LeanCell {
    mean_voice_calls: f64,
    mean_sessions: f64,
    sweeps: usize,
    residual: f64,
    health: SolveHealth,
    measures: Option<crate::measures::Measures>,
}

/// The per-worker owned state: one shard of cells with everything the
/// worker needs to run outer iterations without touching shared
/// memory — templates, arrival/out-flux vectors, flux lists, and the
/// import buffers for halo fluxes.
struct ShardState {
    cells: Vec<CellCtx>,
    /// Per owned cell: inflow terms, ascending global source order.
    flux: Vec<Vec<FluxTerm>>,
    /// Local indices of owned cells some other shard imports.
    export_idx: Vec<usize>,
    /// Local indices per colour class (Gauss–Seidel rounds).
    class_members: Vec<Vec<usize>>,
    lam_gsm: Vec<f64>,
    lam_gprs: Vec<f64>,
    out_gsm: Vec<f64>,
    out_gprs: Vec<f64>,
    next_gsm: Vec<f64>,
    next_gprs: Vec<f64>,
    /// Interleaved `[gsm, gprs]` update segment of the owned cells.
    update: Vec<f64>,
    total_sweeps: Vec<usize>,
    surrogate_solves: usize,
    solve_opts: SolveOptions,
    warm: WarmStart,
}

/// One round request from the coordinator to a shard worker. Halo
/// buffers are aligned to the shard's halo list (ascending cell
/// order).
enum ShardReq {
    /// Solve every owned cell at the current arrival rates (a Jacobi
    /// iteration, or the reporting pass of either ordering).
    Solve { report: bool },
    /// Import halo fluxes, accumulate inflows and return the update
    /// segment plus the shard-local delta (Jacobi).
    Accumulate {
        halo_gsm: Vec<f64>,
        halo_gprs: Vec<f64>,
    },
    /// Step the owned arrival rates by `theta` (Jacobi).
    Apply { theta: f64 },
    /// Refresh and re-solve the owned cells of one colour class
    /// against own + imported fluxes (Gauss–Seidel).
    GsClass {
        class: usize,
        halo_gsm: Vec<f64>,
        halo_gprs: Vec<f64>,
    },
}

/// One round response. Exports carry `(cell, gsm flux, gprs flux)`
/// triples for the boundary cells this round recomputed; `failed` is
/// the shard's lowest-cell-index error, if any.
enum ShardResp {
    Solved {
        exports: Vec<(usize, f64, f64)>,
        failed: Option<(usize, ModelError)>,
    },
    Report {
        cells: Vec<(usize, SolvedCell)>,
        surrogate_solves: usize,
        failed: Option<(usize, ModelError)>,
    },
    Accumulated {
        delta: f64,
        update: Vec<f64>,
    },
    Applied,
    ClassDone {
        delta: f64,
        exports: Vec<(usize, f64, f64)>,
        failed: Option<(usize, ModelError)>,
    },
}

impl ShardState {
    fn handle(&mut self, req: ShardReq) -> ShardResp {
        match req {
            ShardReq::Solve { report } => self.solve_round(report),
            ShardReq::Accumulate {
                halo_gsm,
                halo_gprs,
            } => self.accumulate_round(&halo_gsm, &halo_gprs),
            ShardReq::Apply { theta } => {
                self.apply_round(theta);
                ShardResp::Applied
            }
            ShardReq::GsClass {
                class,
                halo_gsm,
                halo_gprs,
            } => self.gs_class_round(class, &halo_gsm, &halo_gprs),
        }
    }

    fn solve_round(&mut self, report: bool) -> ShardResp {
        let mut failed: Option<(usize, ModelError)> = None;
        let mut reported: Vec<(usize, SolvedCell)> = Vec::new();
        for li in 0..self.cells.len() {
            let ctx = &mut self.cells[li];
            match lean_solve_cell(
                ctx,
                self.lam_gsm[li],
                self.lam_gprs[li],
                &self.solve_opts,
                self.warm,
                report,
            ) {
                Ok(lean) => {
                    self.total_sweeps[li] += lean.sweeps;
                    if lean.health.rung == SolveRung::Surrogate {
                        self.surrogate_solves += 1;
                    }
                    self.out_gsm[li] = ctx.gsm_h_rate * lean.mean_voice_calls;
                    self.out_gprs[li] = ctx.gprs_h_rate * lean.mean_sessions;
                    if report {
                        #[allow(
                            clippy::expect_used,
                            reason = "a reporting round asks lean_solve_cell for measures"
                        )]
                        reported.push((
                            ctx.cell,
                            SolvedCell {
                                measures: lean.measures.expect("report solve computes measures"),
                                gsm_handover_in: self.lam_gsm[li],
                                gprs_handover_in: self.lam_gprs[li],
                                gsm_handover_out: self.out_gsm[li],
                                gprs_handover_out: self.out_gprs[li],
                                mean_voice_calls: lean.mean_voice_calls,
                                mean_sessions: lean.mean_sessions,
                                sweeps: self.total_sweeps[li],
                                residual: lean.residual,
                                health: lean.health,
                            },
                        ));
                    }
                }
                Err(e) => {
                    // Cells are ascending, so the first failure is the
                    // shard's lowest; the coordinator reports the
                    // lowest across shards.
                    failed = Some((ctx.cell, e));
                    break;
                }
            }
        }
        if report {
            ShardResp::Report {
                cells: reported,
                surrogate_solves: self.surrogate_solves,
                failed,
            }
        } else {
            ShardResp::Solved {
                exports: self.exports(),
                failed,
            }
        }
    }

    /// The boundary fluxes other shards import, in ascending cell
    /// order.
    fn exports(&self) -> Vec<(usize, f64, f64)> {
        self.export_idx
            .iter()
            .map(|&li| (self.cells[li].cell, self.out_gsm[li], self.out_gprs[li]))
            .collect()
    }

    fn accumulate_round(&mut self, halo_gsm: &[f64], halo_gprs: &[f64]) -> ShardResp {
        let mut delta = 0.0f64;
        for li in 0..self.cells.len() {
            let (next_gsm, next_gprs) = self.inflow(li, halo_gsm, halo_gprs);
            for (slot, (cur, next)) in
                [(self.lam_gsm[li], next_gsm), (self.lam_gprs[li], next_gprs)]
                    .into_iter()
                    .enumerate()
            {
                let scale = cur.abs().max(next.abs()).max(1e-300);
                delta = delta.max((next - cur).abs() / scale);
                self.update[2 * li + slot] = next - cur;
            }
            self.next_gsm[li] = next_gsm;
            self.next_gprs[li] = next_gprs;
        }
        ShardResp::Accumulated {
            delta,
            update: self.update.clone(),
        }
    }

    /// The inflow sums of owned cell `li` over its precomputed flux
    /// list, in ascending global source order.
    fn inflow(&self, li: usize, halo_gsm: &[f64], halo_gprs: &[f64]) -> (f64, f64) {
        let mut next_gsm = 0.0;
        let mut next_gprs = 0.0;
        for t in &self.flux[li] {
            let (src_gsm, src_gprs) = match t.src {
                Src::Own(j) => (self.out_gsm[j], self.out_gprs[j]),
                Src::Halo(h) => (halo_gsm[h], halo_gprs[h]),
            };
            next_gsm += src_gsm * t.weight / t.source_total;
            next_gprs += src_gprs * t.weight / t.source_total;
        }
        (next_gsm, next_gprs)
    }

    fn apply_round(&mut self, theta: f64) {
        for li in 0..self.cells.len() {
            if theta == 1.0 {
                self.lam_gsm[li] = self.next_gsm[li];
                self.lam_gprs[li] = self.next_gprs[li];
            } else {
                // Extrapolated steps may overshoot; arrival rates stay
                // physical.
                self.lam_gsm[li] = (self.lam_gsm[li] + theta * self.update[2 * li]).max(0.0);
                self.lam_gprs[li] = (self.lam_gprs[li] + theta * self.update[2 * li + 1]).max(0.0);
            }
        }
    }

    fn gs_class_round(&mut self, class: usize, halo_gsm: &[f64], halo_gprs: &[f64]) -> ShardResp {
        let mut delta = 0.0f64;
        let members = std::mem::take(&mut self.class_members[class]);
        // Refresh every class cell first (no two class members share
        // an edge, so the refreshes are independent), then solve.
        for &li in &members {
            let (next_gsm, next_gprs) = self.inflow(li, halo_gsm, halo_gprs);
            for (cur, next) in [
                (&mut self.lam_gsm[li], next_gsm),
                (&mut self.lam_gprs[li], next_gprs),
            ] {
                let scale = cur.abs().max(next.abs()).max(1e-300);
                delta = delta.max((next - *cur).abs() / scale);
                *cur = next;
            }
        }
        let mut failed: Option<(usize, ModelError)> = None;
        let mut exports: Vec<(usize, f64, f64)> = Vec::new();
        for &li in &members {
            let ctx = &mut self.cells[li];
            match lean_solve_cell(
                ctx,
                self.lam_gsm[li],
                self.lam_gprs[li],
                &self.solve_opts,
                self.warm,
                false,
            ) {
                Ok(lean) => {
                    self.total_sweeps[li] += lean.sweeps;
                    if lean.health.rung == SolveRung::Surrogate {
                        self.surrogate_solves += 1;
                    }
                    self.out_gsm[li] = ctx.gsm_h_rate * lean.mean_voice_calls;
                    self.out_gprs[li] = ctx.gprs_h_rate * lean.mean_sessions;
                    if self.export_idx.binary_search(&li).is_ok() {
                        exports.push((ctx.cell, self.out_gsm[li], self.out_gprs[li]));
                    }
                }
                Err(e) => {
                    failed = Some((ctx.cell, e));
                    break;
                }
            }
        }
        self.class_members[class] = members;
        ShardResp::ClassDone {
            delta,
            exports,
            failed,
        }
    }
}

/// Solves one owned cell through the lean resilient ladder (warm-started
/// from the cell's previous iterate) and reads the populations off the
/// stationary distribution: a skip-zero accumulation against
/// precomputed decode tables. The reporting pass recovers the full
/// measures via [`GeneratorTemplate::measures_for`].
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
    if ctx.ns.is_empty() {
        let space = model.space();
        let states = space.num_states();
        ctx.ns = (0..states).map(|idx| space.decode(idx).n as u16).collect();
        ctx.ms = (0..states).map(|idx| space.decode(idx).m as u16).collect();
    }
    let mut mean_voice_calls = 0.0f64;
    let mut mean_sessions = 0.0f64;
    for (idx, &p) in ctx.template.stationary().iter().enumerate() {
        if p == 0.0 {
            continue;
        }
        mean_voice_calls += p * f64::from(ctx.ns[idx]);
        mean_sessions += p * f64::from(ctx.ms[idx]);
    }
    let measures = want_measures.then(|| ctx.template.measures_for(&model));
    Ok(LeanCell {
        mean_voice_calls,
        mean_sessions,
        sweeps: health.sweeps,
        residual: health.residual,
        health,
        measures,
    })
}

/// Unwraps a round of responses, resuming worker panics on the
/// coordinator.
fn run_round(
    pool: &mut PoolHandle<'_, ShardState, ShardReq, ShardResp>,
    reqs: Vec<(usize, ShardReq)>,
) -> Vec<ShardResp> {
    pool.run_on(reqs)
        .into_iter()
        .map(|r| match r {
            Ok(resp) => resp,
            Err(panic) => panic.resume(),
        })
        .collect()
}

/// Picks the lowest-cell-index error across shards, so the reported
/// error does not depend on the shard count.
fn lowest_error(candidates: Vec<(usize, ModelError)>) -> Option<ModelError> {
    candidates
        .into_iter()
        .min_by_key(|&(cell, _)| cell)
        .map(|(_, e)| e)
}

/// The cluster fixed point over `num_shards` partition workers:
/// called from [`ClusterModel::solve_with_registry`] with
/// `1 <= num_shards <= cells`.
pub(crate) fn solve_sharded(
    model: &ClusterModel,
    opts: &ClusterSolveOptions,
    registry: &TemplateRegistry,
    num_shards: usize,
) -> Result<SolvedCluster, ModelError> {
    let n = model.num_cells();
    let graph = model.graph();
    let partition = graph.partition(num_shards)?;
    let k = partition.num_shards();
    let classes = graph.color_classes();
    let (init_gsm, init_gprs) = model.initial_rates()?;

    // Templates in global cell order, so the lowest-failing-cell error
    // does not depend on the shard count.
    let mut templates: Vec<Option<GeneratorTemplate>> = Vec::with_capacity(n);
    for cfg in model.configs() {
        templates.push(Some(registry.template_for(cfg)?));
    }
    let shapes = registry.setups();

    let shard_of = partition.assignment().to_vec();
    let mut local_of = vec![0usize; n];
    for s in 0..k {
        for (li, &c) in partition.shard(s)?.iter().enumerate() {
            local_of[c] = li;
        }
    }
    // A cell is a boundary cell if any other shard imports it.
    let mut is_boundary = vec![false; n];
    for s in 0..k {
        for &c in partition.halo(s)? {
            is_boundary[c] = true;
        }
    }
    let halo_lists: Vec<Vec<usize>> = (0..k)
        .map(|s| Ok(partition.halo(s)?.to_vec()))
        .collect::<Result<_, ModelError>>()?;

    let warm = if opts.surrogate {
        WarmStart::Predicted
    } else {
        WarmStart::Chained
    };

    let mut states: Vec<ShardState> = Vec::with_capacity(k);
    let mut halo_pos = vec![usize::MAX; n];
    for (s, halo) in halo_lists.iter().enumerate() {
        let own = partition.shard(s)?;
        for (h, &c) in halo.iter().enumerate() {
            halo_pos[c] = h;
        }
        let mut flux = Vec::with_capacity(own.len());
        for &c in own {
            flux.push(
                graph
                    .in_edges(c)?
                    .iter()
                    .map(|e| FluxTerm {
                        src: if shard_of[e.source] == s {
                            Src::Own(local_of[e.source])
                        } else {
                            Src::Halo(halo_pos[e.source])
                        },
                        weight: e.weight,
                        source_total: e.source_total,
                    })
                    .collect(),
            );
        }
        for &c in halo {
            halo_pos[c] = usize::MAX;
        }
        #[allow(
            clippy::expect_used,
            reason = "the partition gives each cell to exactly one shard, so each template is taken once"
        )]
        let cells: Vec<CellCtx> = own
            .iter()
            .map(|&c| {
                let config = model.configs()[c].clone();
                CellCtx {
                    cell: c,
                    gsm_h_rate: config.gsm_handover_rate(),
                    gprs_h_rate: config.gprs_handover_rate(),
                    template: templates[c].take().expect("each cell owned once"),
                    config,
                    ns: Vec::new(),
                    ms: Vec::new(),
                }
            })
            .collect();
        let lam_gsm: Vec<f64> = own.iter().map(|&c| init_gsm[c]).collect();
        let lam_gprs: Vec<f64> = own.iter().map(|&c| init_gprs[c]).collect();
        states.push(ShardState {
            flux,
            export_idx: (0..own.len()).filter(|&li| is_boundary[own[li]]).collect(),
            class_members: classes
                .iter()
                .map(|class| {
                    class
                        .iter()
                        .filter(|&&c| shard_of[c] == s)
                        .map(|&c| local_of[c])
                        .collect()
                })
                .collect(),
            // Out fluxes seed from the scalar-balance arrival rates
            // (at which every cell's inflow equals its own outflow):
            // Gauss–Seidel reads them before the first solve, Jacobi
            // overwrites them first.
            out_gsm: lam_gsm.clone(),
            out_gprs: lam_gprs.clone(),
            next_gsm: vec![0.0; own.len()],
            next_gprs: vec![0.0; own.len()],
            update: vec![0.0; 2 * own.len()],
            total_sweeps: vec![0; own.len()],
            surrogate_solves: 0,
            solve_opts: opts.solve.clone(),
            warm,
            lam_gsm,
            lam_gprs,
            cells,
        });
    }

    with_worker_pool(
        states,
        |_, state: &mut ShardState, req| state.handle(req),
        |pool| {
            let shard_lists: Vec<&[usize]> = (0..k)
                .map(|s| partition.shard(s))
                .collect::<Result<_, ModelError>>()?;
            match opts.ordering {
                SweepOrdering::Jacobi => {
                    jacobi_rounds(pool, opts, shapes, n, k, &halo_lists, &shard_lists)
                }
                SweepOrdering::GaussSeidel => gauss_seidel_rounds(
                    pool,
                    opts,
                    shapes,
                    n,
                    k,
                    &halo_lists,
                    &classes,
                    &init_gsm,
                    &init_gprs,
                    &is_boundary,
                ),
            }
        },
    )
}

/// Gathers a reporting round into a [`SolvedCluster`].
fn assemble_report(
    resps: Vec<ShardResp>,
    n: usize,
    iterations: usize,
    handover_delta: f64,
    relaxation: f64,
    adaptive_steps: usize,
    shapes: usize,
) -> Result<SolvedCluster, ModelError> {
    let mut slots: Vec<Option<SolvedCell>> = (0..n).map(|_| None).collect();
    let mut surrogate_total = 0usize;
    let mut errors = Vec::new();
    for resp in resps {
        match resp {
            ShardResp::Report {
                cells,
                surrogate_solves,
                failed,
            } => {
                surrogate_total += surrogate_solves;
                if let Some(err) = failed {
                    errors.push(err);
                }
                for (cell, solved) in cells {
                    slots[cell] = Some(solved);
                }
            }
            _ => unreachable!("report round returns Report responses"),
        }
    }
    if let Some(e) = lowest_error(errors) {
        return Err(e);
    }
    #[allow(
        clippy::expect_used,
        reason = "shards report every cell they own unless one failed, and failures returned above"
    )]
    let cells = slots
        .into_iter()
        .map(|slot| slot.expect("every cell reported"))
        .collect();
    Ok(SolvedCluster {
        cells,
        iterations,
        handover_delta,
        relaxation,
        adaptive_steps,
        symbolic_setups: shapes,
        surrogate_solves: surrogate_total,
    })
}

/// Builds each shard's halo import buffers from the global boundary
/// flux arrays.
fn halo_snapshot(
    halo: &[usize],
    boundary_gsm: &[f64],
    boundary_gprs: &[f64],
) -> (Vec<f64>, Vec<f64>) {
    (
        halo.iter().map(|&c| boundary_gsm[c]).collect(),
        halo.iter().map(|&c| boundary_gprs[c]).collect(),
    )
}

#[allow(clippy::too_many_arguments)]
fn jacobi_rounds(
    pool: &mut PoolHandle<'_, ShardState, ShardReq, ShardResp>,
    opts: &ClusterSolveOptions,
    shapes: usize,
    n: usize,
    k: usize,
    halo_lists: &[Vec<usize>],
    shard_lists: &[&[usize]],
) -> Result<SolvedCluster, ModelError> {
    let mut boundary_gsm = vec![0.0f64; n];
    let mut boundary_gprs = vec![0.0f64; n];

    let mut delta = f64::INFINITY;
    let mut converged = false;
    let mut theta = 1.0f64;
    let mut adaptive_steps = 0usize;
    let mut update = vec![0.0f64; 2 * n];
    let mut prev_update = vec![0.0f64; 2 * n];
    let mut have_prev = false;

    // One slot past the cap: the cap bounds *balance* iterations, and
    // the reporting pass of a vector that converged at the cap still
    // runs.
    for iteration in 1..=opts.max_iterations + 1 {
        if iteration > opts.max_iterations && !converged {
            break;
        }
        let resps = run_round(
            pool,
            (0..k)
                .map(|s| (s, ShardReq::Solve { report: converged }))
                .collect(),
        );
        if converged {
            return assemble_report(resps, n, iteration, delta, theta, adaptive_steps, shapes);
        }
        let mut errors = Vec::new();
        for resp in resps {
            match resp {
                ShardResp::Solved { exports, failed } => {
                    if let Some(err) = failed {
                        errors.push(err);
                    }
                    for (cell, gsm, gprs) in exports {
                        boundary_gsm[cell] = gsm;
                        boundary_gprs[cell] = gprs;
                    }
                }
                _ => unreachable!("solve round returns Solved responses"),
            }
        }
        if let Some(e) = lowest_error(errors) {
            return Err(e);
        }

        // Halo exchange + shard-local accumulation.
        let resps = run_round(
            pool,
            (0..k)
                .map(|s| {
                    let (halo_gsm, halo_gprs) =
                        halo_snapshot(&halo_lists[s], &boundary_gsm, &boundary_gprs);
                    (
                        s,
                        ShardReq::Accumulate {
                            halo_gsm,
                            halo_gprs,
                        },
                    )
                })
                .collect(),
        );
        delta = 0.0;
        for (s, resp) in resps.into_iter().enumerate() {
            match resp {
                ShardResp::Accumulated {
                    delta: local,
                    update: seg,
                } => {
                    delta = delta.max(local);
                    // Scatter the shard's segment into the global
                    // update vector at entry 2·cell+slot, so the
                    // relaxation sums below run in cell order.
                    for (li, pair) in seg.chunks_exact(2).enumerate() {
                        let cell = shard_lists[s][li];
                        update[2 * cell] = pair[0];
                        update[2 * cell + 1] = pair[1];
                    }
                }
                _ => unreachable!("accumulate round returns Accumulated responses"),
            }
        }

        // Adaptive relaxation on the globally assembled update vector
        // (sequential sums over the interleaved 2n entries). Two
        // successive updates pointing in opposite directions *without
        // shrinking* mean the vector is ping-ponging around the fixed
        // point: halve the step. Aligned updates whose contraction
        // ratio projects convergence beyond the remaining iteration
        // budget get the Aitken step `1/(1−ratio)`; everything else
        // runs at `θ = 1`, which assigns the raw next vector verbatim.
        if have_prev {
            let dot: f64 = update.iter().zip(&prev_update).map(|(a, b)| a * b).sum();
            let cur_sq: f64 = update.iter().map(|u| u * u).sum();
            let prev_sq: f64 = prev_update.iter().map(|u| u * u).sum();
            if dot < 0.0 && cur_sq > 0.25 * prev_sq {
                theta = (0.5 * theta).max(MIN_RELAXATION);
            } else if dot > 0.0 {
                let ratio = (cur_sq / prev_sq.max(1e-300)).sqrt();
                let projected = if ratio > 0.0 && ratio < 1.0 && delta > opts.tolerance {
                    (delta / opts.tolerance).ln() / -ratio.ln()
                } else {
                    0.0
                };
                let remaining = opts.max_iterations.saturating_sub(iteration) as f64;
                if projected > remaining {
                    theta = (1.0 / (1.0 - ratio)).min(MAX_RELAXATION);
                } else if theta < 1.0 {
                    theta = (1.5 * theta).min(1.0);
                } else {
                    theta = 1.0;
                }
            }
        }
        if theta != 1.0 {
            adaptive_steps += 1;
        }
        let _ = run_round(
            pool,
            (0..k).map(|s| (s, ShardReq::Apply { theta })).collect(),
        );
        std::mem::swap(&mut prev_update, &mut update);
        have_prev = true;

        if delta <= opts.tolerance {
            converged = true;
        }
    }

    Err(ModelError::Queueing(QueueingError::BalanceNotConverged {
        iterations: opts.max_iterations,
        last_delta: delta,
    }))
}

#[allow(clippy::too_many_arguments)]
fn gauss_seidel_rounds(
    pool: &mut PoolHandle<'_, ShardState, ShardReq, ShardResp>,
    opts: &ClusterSolveOptions,
    shapes: usize,
    n: usize,
    k: usize,
    halo_lists: &[Vec<usize>],
    classes: &[Vec<usize>],
    init_gsm: &[f64],
    init_gprs: &[f64],
    is_boundary: &[bool],
) -> Result<SolvedCluster, ModelError> {
    // Out fluxes seed from the scalar-balance arrival rates, so the
    // boundary buffers start from the same values as the shard-local
    // ones.
    let mut boundary_gsm = vec![0.0f64; n];
    let mut boundary_gprs = vec![0.0f64; n];
    for c in 0..n {
        if is_boundary[c] {
            boundary_gsm[c] = init_gsm[c];
            boundary_gprs[c] = init_gprs[c];
        }
    }

    let mut delta = f64::INFINITY;
    for iteration in 1..=opts.max_iterations {
        delta = 0.0;
        for ci in 0..classes.len() {
            let resps = run_round(
                pool,
                (0..k)
                    .map(|s| {
                        let (halo_gsm, halo_gprs) =
                            halo_snapshot(&halo_lists[s], &boundary_gsm, &boundary_gprs);
                        (
                            s,
                            ShardReq::GsClass {
                                class: ci,
                                halo_gsm,
                                halo_gprs,
                            },
                        )
                    })
                    .collect(),
            );
            let mut errors = Vec::new();
            for resp in resps {
                match resp {
                    ShardResp::ClassDone {
                        delta: local,
                        exports,
                        failed,
                    } => {
                        delta = delta.max(local);
                        if let Some(err) = failed {
                            errors.push(err);
                        }
                        for (cell, gsm, gprs) in exports {
                            boundary_gsm[cell] = gsm;
                            boundary_gprs[cell] = gprs;
                        }
                    }
                    _ => unreachable!("class round returns ClassDone responses"),
                }
            }
            if let Some(e) = lowest_error(errors) {
                return Err(e);
            }
        }

        if delta <= opts.tolerance {
            // Reporting pass: re-solve every cell simultaneously at
            // the converged vector, counting as one iteration.
            let resps = run_round(
                pool,
                (0..k)
                    .map(|s| (s, ShardReq::Solve { report: true }))
                    .collect(),
            );
            return assemble_report(resps, n, iteration + 1, delta, 1.0, 0, shapes);
        }
    }

    Err(ModelError::Queueing(QueueingError::BalanceNotConverged {
        iterations: opts.max_iterations,
        last_delta: delta,
    }))
}
