//! Machine-readable performance report:
//! `bench-report [--quick] [--check BASELINE.json] [OUTPUT.json]`.
//!
//! Times the repeated-solve pipelines the symbolic/numeric split
//! targets — arrival-rate sweeps (template refill vs historical
//! per-point rebuild), the cache-blocked sweep kernel against the
//! scalar trait-dispatched one, the 7-cell cluster fixed point (with
//! and without the predict-and-verify surrogate), a metro-scale
//! corridor graph sweep (shape-keyed template dedup +
//! Gauss–Seidel colour ordering), and the parallel replication engine
//! — and writes a single JSON document
//! (`BENCH_sweep.json` by default) with points-per-second throughput
//! for each. CI uploads the file as an artifact, so the repository
//! accumulates a perf trajectory over time; the numbers are wall-clock
//! on whatever runner executes them, meaningful as a series rather
//! than as absolutes.
//!
//! The document's `"schema"` field versions its shape
//! (`gprs-bench-report/v6` since the `campaign` section dropped its
//! template-cache eviction count; `v5` dropped the `kernel` section's
//! sweep-surrogate keys, `v4` added `shard`, `v3` added `campaign`),
//! so trajectory tooling can evolve the format without guessing.
//!
//! Two sizes of the same workloads (the `"mode"` field records which
//! one a report ran):
//!
//! * the default sizing finishes in a couple of minutes on one CI core
//!   and feeds the scheduled nightly job;
//! * `--quick` shrinks grids and replication counts to tens of seconds
//!   so the tier-1 per-push job can seed the trajectory on **every**
//!   push, not only on the nightly schedule. Quick points are
//!   comparable with other quick points.
//!
//! `--check BASELINE.json` turns the run into a perf-regression gate:
//! after measuring, the fresh figure-sweep throughput is compared
//! against the baseline's `refill_points_per_sec`, and the metro
//! graph-sweep throughput against the baseline `graph_sweep` section's
//! `cell_solves_per_sec`; the process exits non-zero if either dropped
//! below 75% of its baseline (wall-clock noise on shared runners makes
//! a tighter bound flaky). Baselines predating the `graph_sweep`
//! section skip that gate with a note; a baseline that cannot be read
//! or parsed, or lacks `refill_points_per_sec`, exits with status 2
//! before anything is timed.
//! In check mode the report is written to `BENCH_report.json` by
//! default so the committed baseline is never clobbered.
//!
//! Determinism is asserted (sequential vs parallel sweeps) before
//! timing in both modes, so a report is also a cheap correctness
//! smoke.

use gprs_bench::{figure_sweep_cell, sweep_rebuild};
use gprs_core::cluster::{ClusterModel, ClusterSolveOptions, SweepOrdering};
use gprs_core::codec::{parse_json, JsonValue};
use gprs_core::sweep::{par_sweep_arrival_rates_threads, rate_grid, sweep_arrival_rates};
use gprs_core::template::{GeneratorTemplate, WarmStart};
use gprs_core::{CellConfig, CellGraph, GprsModel, Scenario};
use gprs_ctmc::mbd::solve_mbd_projected_inplace_ws;
use gprs_ctmc::{SolveOptions, SolveWorkspace};
use gprs_exec::num_threads;
use gprs_sim::{run_replications, ReplicationOptions, SimConfig, TargetMeasure};
use gprs_traffic::TrafficModel;
use std::fmt::Write as _;
use std::time::Instant;

/// Times `f` once and returns (seconds, result).
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let t0 = Instant::now();
    let out = f();
    (t0.elapsed().as_secs_f64(), out)
}

const USAGE: &str = "usage: bench-report [--quick] [--check BASELINE.json] [OUTPUT.json]";

fn main() {
    let mut quick = false;
    let mut out_path: Option<String> = None;
    let mut check_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--check" => match args.next() {
                Some(path) => check_path = Some(path),
                None => {
                    eprintln!("--check needs a baseline path; {USAGE}");
                    std::process::exit(2);
                }
            },
            "--help" | "-h" => {
                eprintln!("{USAGE}");
                return;
            }
            other if other.starts_with('-') => {
                eprintln!("unknown flag {other}; {USAGE}");
                std::process::exit(2);
            }
            path => out_path = Some(path.to_string()),
        }
    }
    // Never clobber the committed baseline when gating against it.
    let out_path = out_path.unwrap_or_else(|| {
        if check_path.is_some() {
            "BENCH_report.json".to_string()
        } else {
            "BENCH_sweep.json".to_string()
        }
    });
    // Read the baseline before timing, so a bad one fails in
    // milliseconds rather than after the whole run.
    let baseline = check_path.map(|path| {
        let doc = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| parse_json(&text).map_err(|e| e.to_string()))
            .unwrap_or_else(|e| {
                eprintln!("cannot read baseline {path}: {e}");
                std::process::exit(2);
            });
        let number = |section: &str, key: &str| {
            doc.get(section)
                .and_then(|s| s.get(key))
                .and_then(JsonValue::as_f64)
        };
        let refill = number("sweep", "refill_points_per_sec").unwrap_or_else(|| {
            eprintln!("no sweep.refill_points_per_sec in {path}");
            std::process::exit(2);
        });
        let metro = number("graph_sweep", "cell_solves_per_sec");
        (path, refill, metro)
    });
    let threads = num_threads();
    let solve_opts = SolveOptions::quick().with_max_sweeps(200_000);

    // --- Sweep: template refill vs historical per-point rebuild, on
    // the same shared fixture the `sweep` criterion bench times. ---
    let base = if quick {
        // Same shape family, smaller state space: the quick report
        // must finish within the tier-1 budget.
        let mut cell = figure_sweep_cell();
        cell.buffer_capacity = 15;
        cell.max_gprs_sessions = 8;
        cell
    } else {
        figure_sweep_cell()
    };
    let rates = rate_grid(0.05, 1.0, if quick { 8 } else { 20 });
    let (rebuild_s, _) = timed(|| sweep_rebuild(&base, &rates, &solve_opts));
    let (refill_s, seq) = timed(|| sweep_arrival_rates(&base, &rates, &solve_opts).expect("sweep"));
    // Determinism smoke: the parallel sweep must match bitwise.
    let par = par_sweep_arrival_rates_threads(&base, &rates, &solve_opts, threads.max(2))
        .expect("par sweep");
    for (p, s) in par.iter().zip(&seq) {
        assert_eq!(p.measures, s.measures, "par sweep diverged from seq");
    }
    let sweep_rebuild_pps = rates.len() as f64 / rebuild_s;
    let sweep_refill_pps = rates.len() as f64 / refill_s;

    // --- Kernel microbench: repeated cold solves of the figure cell,
    // scalar (trait-dispatched, the test oracle called directly) vs
    // cache-blocked (phase-major tables, through the template). Cold
    // starts so every rep runs the full sweep count; the blocked
    // kernel must agree on that count (it is bit-identical), which is
    // asserted before the rates are trusted. ---
    let kernel_reps = if quick { 8 } else { 20 };
    let model = GprsModel::new(base.clone()).expect("model");
    let scalar_solve = |ws: &mut SolveWorkspace| {
        // Staged as a cold template solve stages the blocked kernel:
        // exact phase marginal, product-form start.
        let marginal = model.phase_marginal();
        ws.set_pi(&model.product_form_guess());
        solve_mbd_projected_inplace_ws(&model, &marginal, &solve_opts, ws)
            .expect("scalar kernel solve")
            .sweeps
    };
    let mut ws = SolveWorkspace::new();
    // One warm-up solve so allocations are in place.
    scalar_solve(&mut ws);
    let (scalar_s, scalar_sweeps) = timed(|| {
        (0..kernel_reps)
            .map(|_| scalar_solve(&mut ws))
            .sum::<usize>()
    });
    let kernel_rows = ws.pi().len();
    let mut template = GeneratorTemplate::new(&base).expect("template");
    // One warm-up solve so allocations and captures are in place.
    template
        .solve(&model, &solve_opts, WarmStart::Cold)
        .expect("warm-up solve");
    template.reset_stats();
    let (blocked_s, _) = timed(|| {
        for _ in 0..kernel_reps {
            template
                .solve(&model, &solve_opts, WarmStart::Cold)
                .expect("kernel solve");
        }
    });
    let blocked_sweeps = template.stats().total_sweeps;
    let blocked_rows = template.stationary().len();
    assert_eq!(
        scalar_sweeps, blocked_sweeps,
        "blocked kernel must run the exact scalar sweep count"
    );
    assert_eq!(kernel_rows, blocked_rows);
    let scalar_sweeps_per_sec = scalar_sweeps as f64 / scalar_s;
    let blocked_sweeps_per_sec = blocked_sweeps as f64 / blocked_s;
    let scalar_ns_per_row = scalar_s * 1e9 / (scalar_sweeps as f64 * kernel_rows as f64);
    let blocked_ns_per_row = blocked_s * 1e9 / (blocked_sweeps as f64 * kernel_rows as f64);

    // --- Cluster: hot-spot fixed point (template path end to end). ---
    let ring = CellConfig::builder()
        .traffic_model(TrafficModel::Model3)
        .buffer_capacity(12)
        .max_gprs_sessions(5)
        .call_arrival_rate(0.3)
        .build()
        .expect("valid config");
    let ring = if quick {
        let mut c = ring;
        c.buffer_capacity = 8;
        c.max_gprs_sessions = 3;
        c
    } else {
        ring
    };
    let cluster = Scenario::hot_spot(ring, 0.6)
        .and_then(|s| s.to_cluster())
        .expect("valid cluster");
    let cluster_opts = ClusterSolveOptions::quick()
        .with_solve(solve_opts.clone())
        .with_threads(threads);
    let (cluster_s, solved) = timed(|| cluster.solve(&cluster_opts).expect("cluster solve"));
    // "Points" = per-cell CTMC solves performed across outer iterations.
    let cluster_cell_solves = solved.iterations() * solved.cells().len();
    let cluster_pps = cluster_cell_solves as f64 / cluster_s;
    // Same fixed point with the predict-and-verify surrogate on: outer
    // iterations near convergence barely move the arrival vector, so
    // the extrapolated iterate passes its residual check and whole cell
    // solves are served without solver sweeps.
    let (cluster_surr_s, surr_solved) = timed(|| {
        cluster
            .solve(&cluster_opts.clone().with_surrogate(true))
            .expect("surrogate cluster solve")
    });
    let cluster_surr_cell_solves = surr_solved.iterations() * surr_solved.cells().len();
    let cluster_surr_pps = cluster_surr_cell_solves as f64 / cluster_surr_s;
    let cluster_surr_hit_rate =
        surr_solved.surrogate_solves() as f64 / cluster_surr_cell_solves as f64;

    // --- Graph sweep: a metro-scale corridor (5 cell kinds) through
    // the colour-ordered Gauss–Seidel sweep and the shape-keyed
    // template registry — the scaling path for city-sized topologies. ---
    let metro_n = if quick { 100 } else { 400 };
    let metro_cells: Vec<CellConfig> = (0..metro_n)
        .map(|i| {
            let mut c = CellConfig::builder()
                .traffic_model(TrafficModel::Model3)
                .total_channels(6)
                .reserved_pdchs(1)
                .buffer_capacity(6 + (i % 5))
                .max_gprs_sessions(3)
                .call_arrival_rate(0.25 + 0.2 * i as f64 / metro_n as f64)
                .build()
                .expect("valid metro cell");
            c.gprs_fraction = 0.05;
            c
        })
        .collect();
    let metro = ClusterModel::from_graph(
        CellGraph::corridor(metro_n).expect("valid corridor"),
        metro_cells,
    )
    .expect("valid metro cluster");
    let metro_opts = ClusterSolveOptions::quick()
        .with_solve(solve_opts.clone())
        .with_threads(threads)
        .with_ordering(SweepOrdering::GaussSeidel);
    let (metro_s, metro_solved) = timed(|| metro.solve(&metro_opts).expect("metro solve"));
    let metro_cell_solves = metro_solved.iterations() * metro_solved.cells().len();
    let metro_pps = metro_cell_solves as f64 / metro_s;
    assert_eq!(
        metro_solved.symbolic_setups(),
        5,
        "shape-keyed dedup must collapse the corridor to its 5 cell kinds"
    );

    // --- Sharded fixed point: the 1000-cell corridor on 2 and 4
    // persistent template-owning workers vs the 1-shard baseline
    // (every cell solved inline on the calling thread). Small per-cell state
    // spaces put the solve in the overhead-dominated regime metro
    // layouts live in (per-solve fixed costs — capture, measures
    // extraction, decode — dwarf the CTMC sweeps). Identical options
    // on both sides, so the bitwise contract is asserted on the
    // measured pair before the rates are trusted. ---
    let shard_n = 1000usize;
    let shard_cells: Vec<CellConfig> = (0..shard_n)
        .map(|i| {
            CellConfig::builder()
                .traffic_model(TrafficModel::Model3)
                .total_channels(6)
                .reserved_pdchs(1)
                .buffer_capacity(8)
                .max_gprs_sessions(3)
                .call_arrival_rate(0.2 + 0.02 * (i % 7) as f64)
                .build()
                .expect("valid shard-bench cell")
        })
        .collect();
    let shard_model = ClusterModel::from_graph(
        CellGraph::corridor(shard_n).expect("valid corridor"),
        shard_cells,
    )
    .expect("valid shard-bench cluster");
    // check_every(1) converges each cell solve at the earliest sweep
    // and the predict-and-verify surrogate serves the late, tiny-step
    // iterations of the deep 1e-14 fixed point from verified
    // extrapolations, keeping the workload overhead-dominated; threads
    // pinned to 1 so only the explicit shard count varies.
    let shard_opts = ClusterSolveOptions::quick()
        .with_solve(solve_opts.clone().with_check_every(1))
        .with_surrogate(true)
        .with_tolerance(1e-14)
        .with_threads(1);
    // Best-of-3, interleaved: each round times the baseline and every
    // shard count back to back, so page-cache warm-up and scheduler
    // noise land on all columns alike; the per-column minimum is the
    // steady-state rate.
    let shard_counts = [2usize, 4];
    let mut shard_base_s = f64::INFINITY;
    let mut shard_secs = vec![f64::INFINITY; shard_counts.len()];
    let mut shard_first = None;
    for _ in 0..3 {
        let (secs, solved) = timed(|| {
            shard_model
                .solve(&shard_opts.clone().with_shards(1))
                .expect("shard baseline solve")
        });
        shard_base_s = shard_base_s.min(secs);
        let shard_baseline = shard_first.get_or_insert(solved);
        for (slot, &k) in shard_counts.iter().enumerate() {
            let (secs, sharded) = timed(|| {
                shard_model
                    .solve(&shard_opts.clone().with_shards(k))
                    .expect("sharded solve")
            });
            assert_eq!(
                sharded.iterations(),
                shard_baseline.iterations(),
                "sharded solve must match the baseline iteration count"
            );
            for (a, b) in sharded.cells().iter().zip(shard_baseline.cells()) {
                assert_eq!(
                    a.gsm_handover_in.to_bits(),
                    b.gsm_handover_in.to_bits(),
                    "sharded solve diverged bitwise from the baseline"
                );
            }
            shard_secs[slot] = shard_secs[slot].min(secs);
        }
    }
    let shard_baseline = shard_first.expect("baseline solved");
    let shard_cell_solves = shard_baseline.iterations() * shard_n;
    let shard_baseline_pps = shard_cell_solves as f64 / shard_base_s;
    let shard_pps: Vec<f64> = shard_secs
        .iter()
        .map(|&s| shard_cell_solves as f64 / s)
        .collect();
    let shard_best_speedup = shard_pps
        .iter()
        .fold(0.0f64, |m, &p| m.max(p / shard_baseline_pps));

    // --- Replication engine: fixed replication count. ---
    let sim_cell = CellConfig::builder()
        .traffic_model(TrafficModel::Model3)
        .total_channels(8)
        .buffer_capacity(15)
        .max_gprs_sessions(4)
        .call_arrival_rate(0.3)
        .build()
        .expect("valid config");
    let sim_cfg = SimConfig::for_scenario(&Scenario::homogeneous(sim_cell).expect("scenario"))
        .expect("lowerable scenario")
        .seed(2024)
        .warmup(100.0)
        .batches(2, if quick { 150.0 } else { 300.0 })
        .build();
    let replications = if quick { 3usize } else { 6usize };
    let rep_opts = ReplicationOptions::new(0.01, replications, replications)
        .with_target(TargetMeasure::CarriedVoiceTraffic)
        .with_threads(threads);
    let (rep_s, results) = timed(|| run_replications(&sim_cfg, &rep_opts));
    assert_eq!(results.replications, replications);
    let replication_rps = replications as f64 / rep_s;

    // --- Campaign engine: the deterministic demo campaign through the
    // supervised runner (in memory, no journal) — items/sec for the
    // whole batch path: catching pool, retry ladder, shared template
    // registry. The demo mixes three template shapes and three
    // topologies, so the registry's dedup shows up in the numbers. ---
    let campaign_spec = gprs_campaign::demo_spec(if quick { 8 } else { 24 });
    let campaign_cfg = gprs_campaign::RunnerConfig {
        threads,
        ..gprs_campaign::RunnerConfig::default()
    };
    let campaign_report = gprs_campaign::run_campaign(&campaign_spec, None, &campaign_cfg)
        .expect("demo campaign runs");
    assert_eq!(
        campaign_report.failed(),
        0,
        "demo campaign must solve cleanly"
    );

    // --- Emit JSON (hand-rolled: the workspace is dependency-free). ---
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"gprs-bench-report/v6\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"sweep\": {{");
    let _ = writeln!(json, "    \"points\": {},", rates.len());
    let _ = writeln!(
        json,
        "    \"rebuild_points_per_sec\": {sweep_rebuild_pps:.4},"
    );
    let _ = writeln!(
        json,
        "    \"refill_points_per_sec\": {sweep_refill_pps:.4},"
    );
    let _ = writeln!(
        json,
        "    \"refill_speedup\": {:.4}",
        sweep_refill_pps / sweep_rebuild_pps
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"kernel\": {{");
    let _ = writeln!(json, "    \"rows\": {kernel_rows},");
    let _ = writeln!(json, "    \"cold_solves\": {kernel_reps},");
    let _ = writeln!(
        json,
        "    \"scalar_sweeps_per_sec\": {scalar_sweeps_per_sec:.4},"
    );
    let _ = writeln!(
        json,
        "    \"blocked_sweeps_per_sec\": {blocked_sweeps_per_sec:.4},"
    );
    let _ = writeln!(json, "    \"scalar_ns_per_row\": {scalar_ns_per_row:.4},");
    let _ = writeln!(json, "    \"blocked_ns_per_row\": {blocked_ns_per_row:.4},");
    let _ = writeln!(
        json,
        "    \"blocked_speedup\": {:.4}",
        blocked_sweeps_per_sec / scalar_sweeps_per_sec
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"cluster\": {{");
    let _ = writeln!(json, "    \"cell_solves\": {cluster_cell_solves},");
    let _ = writeln!(json, "    \"outer_iterations\": {},", solved.iterations());
    let _ = writeln!(json, "    \"cell_solves_per_sec\": {cluster_pps:.4},");
    let _ = writeln!(
        json,
        "    \"surrogate_solves\": {},",
        surr_solved.surrogate_solves()
    );
    let _ = writeln!(
        json,
        "    \"surrogate_hit_rate\": {cluster_surr_hit_rate:.4},"
    );
    let _ = writeln!(
        json,
        "    \"surrogate_cell_solves_per_sec\": {cluster_surr_pps:.4}"
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"graph_sweep\": {{");
    let _ = writeln!(json, "    \"cells\": {metro_n},");
    let _ = writeln!(
        json,
        "    \"symbolic_setups\": {},",
        metro_solved.symbolic_setups()
    );
    let _ = writeln!(
        json,
        "    \"outer_iterations\": {},",
        metro_solved.iterations()
    );
    let _ = writeln!(json, "    \"cell_solves\": {metro_cell_solves},");
    let _ = writeln!(json, "    \"cell_solves_per_sec\": {metro_pps:.4}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"shard\": {{");
    let _ = writeln!(json, "    \"cells\": {shard_n},");
    let _ = writeln!(json, "    \"tolerance\": 1e-14,");
    let _ = writeln!(json, "    \"surrogate\": true,");
    let _ = writeln!(
        json,
        "    \"outer_iterations\": {},",
        shard_baseline.iterations()
    );
    let _ = writeln!(json, "    \"cell_solves\": {shard_cell_solves},");
    let _ = writeln!(json, "    \"baseline_shards\": 1,");
    let _ = writeln!(
        json,
        "    \"baseline_cell_solves_per_sec\": {shard_baseline_pps:.4},"
    );
    let _ = writeln!(
        json,
        "    \"shard_counts\": [{}],",
        shard_counts
            .iter()
            .map(|k| k.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(
        json,
        "    \"sharded_cell_solves_per_sec\": [{}],",
        shard_pps
            .iter()
            .map(|p| format!("{p:.4}"))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "    \"best_speedup\": {shard_best_speedup:.4}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"replication\": {{");
    let _ = writeln!(json, "    \"replications\": {replications},");
    let _ = writeln!(json, "    \"replications_per_sec\": {replication_rps:.4}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"campaign\": {{");
    let _ = writeln!(json, "    \"items\": {},", campaign_report.results.len());
    let _ = writeln!(json, "    \"solved\": {},", campaign_report.solved());
    let _ = writeln!(json, "    \"degraded\": {},", campaign_report.degraded());
    let _ = writeln!(json, "    \"failed\": {},", campaign_report.failed());
    let _ = writeln!(json, "    \"retries\": {},", campaign_report.retries);
    let _ = writeln!(
        json,
        "    \"surrogate_solves\": {},",
        campaign_report.surrogate_solves()
    );
    let _ = writeln!(
        json,
        "    \"template_setups\": {},",
        campaign_report.template_setups
    );
    let _ = writeln!(
        json,
        "    \"items_per_sec\": {:.4}",
        campaign_report.items_per_sec()
    );
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");

    std::fs::write(&out_path, &json).expect("write report");
    eprintln!("wrote {out_path}");
    print!("{json}");

    // --- Perf-regression gate: the fresh figure-sweep and metro
    // graph-sweep throughputs must each hold at least 75% of the
    // committed baseline's. ---
    if let Some((baseline_path, baseline_refill, baseline_metro)) = baseline {
        let floor = 0.75 * baseline_refill;
        if sweep_refill_pps < floor {
            eprintln!(
                "PERF REGRESSION: refill sweep ran at {sweep_refill_pps:.2} points/s, \
                 below 75% of the {baseline_refill:.2} baseline ({baseline_path})"
            );
            std::process::exit(1);
        }
        eprintln!(
            "perf check OK: refill {sweep_refill_pps:.2} points/s vs baseline \
             {baseline_refill:.2} (floor {floor:.2})"
        );
        // Metro-scale gate: the corridor graph sweep. Absent from
        // baselines older than schema v2 — skip with a note rather
        // than fail runs against a stale baseline.
        match baseline_metro {
            Some(baseline_metro) => {
                let floor = 0.75 * baseline_metro;
                if metro_pps < floor {
                    eprintln!(
                        "PERF REGRESSION: graph sweep ran at {metro_pps:.2} cell-solves/s, \
                         below 75% of the {baseline_metro:.2} baseline ({baseline_path})"
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "perf check OK: graph sweep {metro_pps:.2} cell-solves/s vs baseline \
                     {baseline_metro:.2} (floor {floor:.2})"
                );
            }
            None => eprintln!(
                "perf check: baseline {baseline_path} has no graph_sweep section; \
                 skipping the metro gate"
            ),
        }
    }
}
