//! The metro campaign workload: the 48-cell `metro_city` graph under
//! the district load profile of `examples/metro_city.rs`, dealt out as
//! 50 campaign items (25 load levels × 2 cell-shape variants) in an
//! order and load assignment drawn from the seed.

use crate::check::{Ledger, Reference};
use crate::probe;
use crate::trace::{Tracer, NO_ID};
use crate::{Metrics, WORKERS};
use gprs_campaign::journal::entry_to_json_value;
use gprs_campaign::{
    run_campaign, CampaignItem, CampaignReport, CampaignSpec, ItemResult, ItemStatus, Journal,
    RetryPolicy, RunnerConfig,
};
use gprs_core::codec::{graph_from_json_value, parse_json};
use gprs_core::{
    CellConfig, ClusterSolveOptions, GeneratorTemplate, Scenario, SolveRung, SolvedCluster,
    TemplateRegistry, WarmStart,
};
use gprs_traffic::TrafficModel;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Items per journal batch (one fsync each).
const BATCH: usize = 8;
/// Load levels; each runs in both cell-shape variants. A campaign of
/// 50 items takes about 5 s, so a run times several of them.
const LEVELS: usize = 25;
const VARIANTS: usize = 2;
/// Cells of the committed metro graph.
const CELLS: usize = 48;

const WORKLOAD: &str = "metro_campaign";
/// Campaign rounds of the traced replay and of its untraced reference:
/// four rounds of 50 items give the solve-time distribution 200
/// samples, so 10 lie beyond its p95.
const REPLAY_ROUNDS: usize = 4;

/// One (load level, shape variant) cell of the item design.
#[derive(Debug, Clone, Copy)]
struct Design {
    level: usize,
    variant: usize,
}

impl Design {
    fn key(self) -> String {
        format!("l{:02}-v{}", self.level, self.variant)
    }

    /// Load scale of the level: 0.80 ..= 1.20 of the district profile.
    fn load_scale(self) -> f64 {
        0.8 + 0.4 * self.level as f64 / (LEVELS - 1) as f64
    }
}

/// The `examples/metro_city.rs` district profile: a hot downtown grid,
/// a moderate ring road, radial corridors thinning outward. Variant 1
/// gives the downtown cells a deeper buffer, so the campaign spans two
/// cell shapes and the template registry deduplicates across items.
fn district_cells(n: usize, variant: usize) -> Result<Vec<CellConfig>, String> {
    (0..n)
        .map(|i| {
            let calls = match i {
                0..=15 => 0.060,
                16..=27 => 0.040,
                _ => 0.030 - 0.004 * ((i - 28) % 5) as f64,
            };
            let buffer = if variant == 1 && i <= 15 { 10 } else { 8 };
            CellConfig::builder()
                .traffic_model(TrafficModel::Model3)
                .total_channels(6)
                .reserved_pdchs(1)
                .buffer_capacity(buffer)
                .max_gprs_sessions(3)
                .call_arrival_rate(calls)
                .build()
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// SplitMix64: the seed's stream of item positions.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Every design once, shuffled by the seed (Fisher–Yates).
fn designs(seed: u64) -> Vec<Design> {
    let mut all: Vec<Design> = (0..LEVELS)
        .flat_map(|level| (0..VARIANTS).map(move |variant| Design { level, variant }))
        .collect();
    let mut state = seed;
    for i in (1..all.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        all.swap(i, j);
    }
    all
}

fn graph_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("data/metro_city.json")
}

/// Builds the campaign spec for `seed` from the graph document.
fn build_spec(graph_text: &str, designs: &[Design]) -> Result<CampaignSpec, String> {
    let doc = parse_json(graph_text).map_err(|e| e.to_string())?;
    let graph = graph_from_json_value(&doc, "metro_city").map_err(|e| e.to_string())?;
    if graph.num_cells() != CELLS {
        return Err(format!(
            "metro graph has {} cells, expected {CELLS}",
            graph.num_cells()
        ));
    }
    let variants = (0..VARIANTS)
        .map(|v| district_cells(CELLS, v))
        .collect::<Result<Vec<_>, _>>()?;
    let items = designs
        .iter()
        .enumerate()
        .map(|(i, d)| {
            let scenario = Scenario::from_graph(
                format!("metro-{}", d.key()),
                graph.clone(),
                variants[d.variant].clone(),
            )
            .and_then(|s| s.with_load_scale(d.load_scale()))
            .map_err(|e| e.to_string())?;
            Ok(CampaignItem {
                id: format!("{i:03}-{}", d.key()),
                scenario,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(CampaignSpec {
        name: "metro".into(),
        options: ClusterSolveOptions::quick().with_surrogate(true),
        retry: RetryPolicy::default(),
        items,
    })
}

/// The serialized campaign a user would hand the runner.
fn spec_text(seed: u64) -> Result<String, String> {
    let graph_text = std::fs::read_to_string(graph_path()).map_err(|e| e.to_string())?;
    Ok(build_spec(&graph_text, &designs(seed))?.to_json())
}

/// One set-up: decode the serialized campaign, with a copy of the graph
/// in every item, through `CampaignSpec::from_json`, and open the
/// journal.
fn setup_once(text: &str, journal: &Path) -> Result<CampaignSpec, String> {
    let spec = CampaignSpec::from_json(text).map_err(|e| e.to_string())?;
    fresh_file(journal)?;
    Journal::open_append(journal).map_err(|e| e.to_string())?;
    Ok(spec)
}

fn fresh_file(path: &Path) -> Result<(), String> {
    match std::fs::remove_file(path) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("removing {}: {e}", path.display())),
    }
}

fn runner(threads: usize) -> RunnerConfig {
    RunnerConfig {
        threads,
        batch_size: BATCH,
        ..RunnerConfig::default()
    }
}

/// Checks every item: solved on the first attempt's primary or
/// surrogate rung, finite mid-cell measures within tolerance of the
/// reference for its design.
fn check_items(
    report: &CampaignReport,
    designs: &[Design],
    tolerance: f64,
    reference: &Reference,
    ledger: &mut Ledger,
) {
    if report.results.len() != designs.len() {
        ledger.record(Some(format!(
            "{} results for {} items",
            report.results.len(),
            designs.len()
        )));
    }
    for (result, design) in report.results.iter().zip(designs) {
        let problem = match (&result.status, &result.measures) {
            (ItemStatus::Solved, Some(measures))
                if matches!(result.rung, SolveRung::Primary | SolveRung::Surrogate)
                    && result.failed_rungs == 0 =>
            {
                reference.mismatch(&design.key(), measures, tolerance)
            }
            _ => Some(format!(
                "{} on rung {}",
                result.status.label(),
                result.rung.label()
            )),
        };
        ledger.record(problem.map(|p| format!("item {}: {p}", result.id)));
    }
}

fn work_file(name: &str) -> PathBuf {
    crate::work_dir().join(name)
}

/// The end-to-end pass: the campaign at [`WORKERS`] item workers with
/// an fsync'd journal, repeated until `seconds` have passed, reporting
/// the fastest campaign. The set-up is timed for half its budget before
/// the first campaign and for the other half after each one.
///
/// On a shared 2-core host, neighbours slow both item workers for
/// seconds at a time, and contention only ever slows a campaign. The
/// fastest of the run's campaigns is what the host allowed; it varies
/// less from run to run than their median, and less with several short
/// campaigns than with a few long ones.
pub fn run_e2e(
    seed: u64,
    seconds: f64,
    metrics: &mut Metrics,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let journal = work_file(&format!("journal-{seed}.jsonl"));
    // The serialized campaign is the input a user hands the runner.
    let text = spec_text(seed)?;
    let mut setup = probe::SetupTimer::new();
    let spec = setup.sample(probe::SETUP_BUDGET / 2, || setup_once(&text, &journal))?;
    let designs = designs(seed);
    let tolerance = spec.options.solve.tolerance;
    let reference = Reference::load(WORKLOAD)?;

    let started = Instant::now();
    let mut items_per_s = 0.0f64;
    loop {
        fresh_file(&journal)?;
        let t0 = Instant::now();
        let report =
            run_campaign(&spec, Some(&journal), &runner(WORKERS)).map_err(|e| e.to_string())?;
        items_per_s = items_per_s.max(report.results.len() as f64 / t0.elapsed().as_secs_f64());
        check_items(&report, &designs, tolerance, &reference, ledger);
        setup.sample(probe::SETUP_BUDGET / 2, || setup_once(&text, &journal))?;
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    fresh_file(&journal)?;
    metrics.set("setup_s", setup.best_s());
    metrics.set("items_per_s", items_per_s);
    // A derived copy of items_per_s: every item delivers the measures
    // of all its cells.
    metrics.set("points_per_s", items_per_s * CELLS as f64);
    Ok(())
}

/// `run_campaign`'s first-attempt solve options: adaptive thread and
/// shard counts pinned to one (the campaign parallelizes across items).
fn first_attempt_options(spec: &CampaignSpec) -> ClusterSolveOptions {
    let mut opts = spec.options.clone();
    if opts.threads == 0 {
        opts.threads = 1;
    }
    if opts.shards == 0 {
        opts.shards = 1;
    }
    opts
}

/// The deepest rung and largest failed-rung count over a cluster's
/// cells, ordered as the runner orders them.
fn health_summary(solved: &SolvedCluster) -> (SolveRung, u8) {
    let depth = |rung: SolveRung| match rung {
        SolveRung::Primary => 0u8,
        SolveRung::Surrogate => 1,
        SolveRung::ColdRestart => 2,
        SolveRung::AlternateIterative => 3,
        SolveRung::DirectGth => 4,
    };
    let mut worst = SolveRung::Primary;
    let mut failed = 0u8;
    for cell in solved.cells() {
        if depth(cell.health.rung) > depth(worst) {
            worst = cell.health.rung;
        }
        failed = failed.max(cell.health.failed_rungs);
    }
    (worst, failed)
}

/// Totals of the replayed cluster solves.
#[derive(Default)]
struct ClusterCounts {
    outer_iterations: usize,
    cell_solves: usize,
    surrogate_solves: usize,
}

/// Replays the campaign single-threaded through the layers' public
/// calls, mirroring `run_campaign` on the happy path: decode, lower,
/// solve (first attempt), journal each batch.
fn replay(
    t: &mut Tracer,
    text: &str,
    journal_path: &Path,
    counts: &mut ClusterCounts,
) -> Result<(Vec<ItemResult>, usize), String> {
    let spec = t
        .leaf("codec.parse", NO_ID, || CampaignSpec::from_json(text))
        .map_err(|e| e.to_string())?;
    let registry = TemplateRegistry::new();
    let opts = first_attempt_options(&spec);
    let mut journal = t
        .leaf("journal.open", NO_ID, || Journal::open_append(journal_path))
        .map_err(|e| e.to_string())?;
    let mut results = Vec::with_capacity(spec.items.len());
    let indices: Vec<usize> = (0..spec.items.len()).collect();
    for (b, batch) in indices.chunks(BATCH).enumerate() {
        let mut batch_results = Vec::with_capacity(batch.len());
        for &index in batch {
            let item = &spec.items[index];
            let id = index as u64;
            let model = t
                .leaf("scenario.to_cluster", id, || item.scenario.to_cluster())
                .map_err(|e| format!("item {}: {e}", item.id))?;
            let solved = t
                .leaf("cluster.solve", id, || {
                    model.solve_with_registry(&opts, &registry)
                })
                .map_err(|e| format!("item {}: {e}", item.id))?;
            counts.outer_iterations += solved.iterations();
            counts.cell_solves += solved.iterations() * solved.cells().len();
            counts.surrogate_solves += solved.surrogate_solves();
            let (rung, failed_rungs) = health_summary(&solved);
            batch_results.push(ItemResult {
                index,
                id: item.id.clone(),
                status: ItemStatus::Solved,
                attempts: 1,
                measures: Some(solved.mid().measures),
                rung,
                failed_rungs,
                surrogate_solves: solved.surrogate_solves(),
                failure: None,
            });
        }
        t.leaf("journal.append", b as u64, || {
            journal.append_batch(&batch_results)
        })
        .map_err(|e| e.to_string())?;
        results.extend(batch_results);
    }
    Ok((results, registry.setups()))
}

fn entry_lines(results: &[ItemResult]) -> Vec<String> {
    results
        .iter()
        .map(|r| entry_to_json_value(r).to_json_string())
        .collect()
}

/// The traced pass: the 2-worker end-to-end run, untraced
/// single-thread `run_campaign`s, the traced replay (both
/// [`REPLAY_ROUNDS`] times), the same-program preflight, and the kernel
/// probes at the downtown cell shape.
pub fn run_traced(
    seed: u64,
    tracer: &mut Tracer,
    metrics: &mut Metrics,
    ledger: &mut Ledger,
) -> Result<(), String> {
    let text = spec_text(seed)?;
    let spec = CampaignSpec::from_json(&text).map_err(|e| e.to_string())?;
    let designs = designs(seed);
    let tolerance = spec.options.solve.tolerance;
    let reference = Reference::load(WORKLOAD)?;
    let journal = work_file(&format!("journal-{seed}.jsonl"));

    fresh_file(&journal)?;
    let two_worker =
        run_campaign(&spec, Some(&journal), &runner(WORKERS)).map_err(|e| e.to_string())?;
    check_items(&two_worker, &designs, tolerance, &reference, ledger);

    let t0 = Instant::now();
    let mut single = Vec::with_capacity(REPLAY_ROUNDS);
    for _ in 0..REPLAY_ROUNDS {
        fresh_file(&journal)?;
        single.push(run_campaign(&spec, Some(&journal), &runner(1)).map_err(|e| e.to_string())?);
    }
    let untraced_s = t0.elapsed().as_secs_f64();

    let mut counts = ClusterCounts::default();
    let mut journal_bytes = 0;
    let rounds = tracer.span("replay", NO_ID, |t| {
        (0..REPLAY_ROUNDS)
            .map(|_| {
                fresh_file(&journal)?;
                let round = replay(t, &text, &journal, &mut counts)?;
                journal_bytes = std::fs::metadata(&journal)
                    .map_err(|e| e.to_string())?
                    .len();
                Ok(round)
            })
            .collect::<Result<Vec<_>, String>>()
    })?;
    fresh_file(&journal)?;

    let expected = entry_lines(&two_worker.results);
    for ((replayed, _), single) in rounds.iter().zip(&single) {
        let lines = entry_lines(replayed);
        if lines != expected || entry_lines(&single.results) != expected {
            return Err(
                "preflight: the traced replay's item entries differ from run_campaign's".into(),
            );
        }
        ledger.attempted += lines.len();
    }
    let (replayed, registry_setups) = rounds.last().ok_or("no replay round ran")?;

    // Kernel probes at the deeper-buffer downtown cell shape.
    let cell = district_cells(CELLS, 1)?.swap_remove(0);
    let mut template = GeneratorTemplate::new(&cell).map_err(|e| e.to_string())?;
    let model = template.model_for(cell).map_err(|e| e.to_string())?;
    template
        .solve(&model, &spec.options.solve, WarmStart::Cold)
        .map_err(|e| e.to_string())?;
    let kernel = probe::kernel_probe(&model, template.stationary())?;

    let ms = |name: &str| tracer.durations_ns(name).iter().sum::<u64>() as f64 * 1e-6;
    let spans_ms =
        ms("cluster.solve") + ms("scenario.to_cluster") + ms("journal.open") + ms("journal.append");
    let traced_s = tracer.spans()[0].duration_ns() as f64 * 1e-9;
    let mut solve_ms: Vec<f64> = tracer
        .durations_ns("cluster.solve")
        .iter()
        .map(|&ns| ns as f64 * 1e-6)
        .collect();
    let mut append_ms: Vec<f64> = tracer
        .durations_ns("journal.append")
        .iter()
        .map(|&ns| ns as f64 * 1e-6)
        .collect();
    let items = replayed.len() as f64;

    metrics.set("trace_overhead_frac", traced_s / untraced_s - 1.0);
    metrics.set("cluster.solve_samples", solve_ms.len() as f64);
    metrics.set(
        "cluster.solve_ms_p50",
        probe::percentile(&mut solve_ms, 0.50),
    );
    metrics.set(
        "cluster.solve_ms_p95",
        probe::percentile(&mut solve_ms, 0.95),
    );
    metrics.set("cluster.outer_iterations", counts.outer_iterations as f64);
    metrics.set("cluster.cell_solves", counts.cell_solves as f64);
    metrics.set(
        "cluster.cell_solve_us",
        ms("cluster.solve") * 1e3 / counts.cell_solves as f64,
    );
    metrics.set(
        "cluster.surrogate_hit_frac",
        counts.surrogate_solves as f64 / counts.cell_solves as f64,
    );
    metrics.set("template.registry_setups", *registry_setups as f64);
    metrics.set(
        "journal.append_ms_p50",
        probe::percentile(&mut append_ms, 0.50),
    );
    metrics.set(
        "journal.append_ms_max",
        probe::percentile(&mut append_ms, 1.0),
    );
    metrics.set("journal.bytes_per_item", journal_bytes as f64 / items);
    metrics.set("campaign.self_ms", untraced_s * 1e3 - spans_ms);
    metrics.set("campaign.retries", two_worker.retries as f64);
    metrics.set("campaign.degraded", two_worker.degraded() as f64);
    crate::set_kernel_metrics(metrics, &kernel);
    Ok(())
}

/// Reference mid-cell measures of every design, from one campaign.
pub fn reference_entries() -> Result<(f64, Vec<(String, gprs_core::Measures)>), String> {
    let designs = designs(1);
    let spec = CampaignSpec::from_json(&spec_text(1)?).map_err(|e| e.to_string())?;
    let report = run_campaign(&spec, None, &runner(WORKERS)).map_err(|e| e.to_string())?;
    let mut entries = Vec::new();
    for (result, design) in report.results.iter().zip(&designs) {
        let measures = result
            .measures
            .ok_or_else(|| format!("item {} has no measures", result.id))?;
        entries.push((design.key(), measures));
    }
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    Ok((spec.options.solve.tolerance, entries))
}
