//! Machine-readable performance report and tier-1 perf gate:
//! `bench-report [--quick] [--check BASELINE.json] [OUTPUT.json]`.
//!
//! Times the two repeated-solve pipelines the gate reads — the
//! arrival-rate figure sweep (chunked template refill) and a
//! metro-scale corridor graph sweep (shape-keyed template dedup +
//! Gauss–Seidel colour ordering) — and writes a single JSON document
//! (`BENCH_sweep.json` by default) with the throughput of each. CI
//! uploads the file as an artifact, so the numbers form a series over
//! time; they are wall-clock on whatever runner executes them,
//! meaningful as a series rather than as absolutes. Everything else is
//! measured elsewhere: the per-point rebuild, kernel, cluster and
//! replication timings by the criterion benches, the campaign and
//! kernel throughput by the repository benchmark (`perfbench/`).
//!
//! The document's `"schema"` field versions its shape
//! (`gprs-bench-report/v7` since the report kept only the `sweep` and
//! `graph_sweep` sections; `v6` also carried `kernel`, `cluster`,
//! `shard`, `replication` and `campaign`), so trajectory tooling can
//! evolve the format without guessing.
//!
//! Two sizes of the same workloads (the `"mode"` field records which
//! one a report ran): the default sizing feeds the scheduled nightly
//! job; `--quick` shrinks both sweeps so the tier-1 per-push job can
//! run the gate on **every** push. Quick points are comparable with
//! other quick points.
//!
//! `--check BASELINE.json` turns the run into a perf-regression gate:
//! after measuring, the fresh figure-sweep throughput is compared
//! against the baseline's `refill_points_per_sec`, and the metro
//! graph-sweep throughput against the baseline `graph_sweep` section's
//! `cell_solves_per_sec` (outer iterations × cells per second: the
//! cluster's closed-form cell updates, the final iteration's CTMC
//! solves included); the process exits 1 if either dropped
//! below 75% of its baseline (wall-clock noise on shared runners makes
//! a tighter bound flaky). Baselines predating the `graph_sweep`
//! section skip that gate with a note; a baseline that cannot be read
//! or parsed, or lacks `refill_points_per_sec`, exits with status 2
//! before anything is timed.
//! In check mode the report is written to `BENCH_report.json` by
//! default so the committed baseline is never clobbered.
//!
//! Determinism is asserted (sequential vs parallel sweeps) and the
//! corridor's template dedup is checked in both modes, so a report is
//! also a cheap correctness smoke.

use gprs_bench::figure_sweep_cell;
use gprs_core::cluster::{ClusterModel, ClusterSolveOptions};
use gprs_core::codec::{parse_json, JsonValue};
use gprs_core::sweep::{par_sweep_arrival_rates_threads, rate_grid, sweep_arrival_rates};
use gprs_core::{CellConfig, CellGraph};
use gprs_ctmc::SolveOptions;
use gprs_exec::num_threads;
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

    // --- Sweep: the template-refill figure sweep, on the same shared
    // fixture the `sweep` criterion bench times. ---
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
    let (refill_s, seq) = timed(|| sweep_arrival_rates(&base, &rates, &solve_opts).expect("sweep"));
    // Determinism smoke: the parallel sweep must match bitwise.
    let par = par_sweep_arrival_rates_threads(&base, &rates, &solve_opts, threads.max(2))
        .expect("par sweep");
    for (p, s) in par.iter().zip(&seq) {
        assert_eq!(p.measures, s.measures, "par sweep diverged from seq");
    }
    let sweep_refill_pps = rates.len() as f64 / refill_s;

    // --- Graph sweep: a metro-scale corridor (5 cell kinds) through
    // the colour-ordered Gauss–Seidel sweep (the default ordering) and
    // the shape-keyed template registry — the scaling path for
    // city-sized topologies. ---
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
        .with_solve(solve_opts)
        .with_threads(threads);
    let (metro_s, metro_solved) = timed(|| metro.solve(&metro_opts).expect("metro solve"));
    // `iterations × cells`: every outer iteration updates each cell
    // from its closed-form Erlang means, and the final (report)
    // iteration solves each cell's CTMC once. So the count is cell
    // updates, of which only the last `cells` are CTMC solves.
    let metro_cell_solves = metro_solved.iterations() * metro_solved.cells().len();
    let metro_pps = metro_cell_solves as f64 / metro_s;
    assert_eq!(
        metro_solved.symbolic_setups(),
        5,
        "shape-keyed dedup must collapse the corridor to its 5 cell kinds"
    );

    // --- Emit JSON (hand-rolled: the workspace is dependency-free). ---
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"schema\": \"gprs-bench-report/v7\",");
    let _ = writeln!(
        json,
        "  \"mode\": \"{}\",",
        if quick { "quick" } else { "full" }
    );
    let _ = writeln!(json, "  \"threads\": {threads},");
    let _ = writeln!(json, "  \"sweep\": {{");
    let _ = writeln!(json, "    \"points\": {},", rates.len());
    let _ = writeln!(json, "    \"refill_points_per_sec\": {sweep_refill_pps:.4}");
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
