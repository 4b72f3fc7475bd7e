//! What a campaign item's first attempt is, and what happens when it
//! fails.
//!
//! * The runner chooses no numerics: an item solved on its first
//!   attempt is bit for bit `solve_with_registry` on the spec's options
//!   with threads and shards pinned to 1, under either sweep ordering.
//!   Benchmarks that replay a campaign's first attempts outside the
//!   runner and compare item entries rely on exactly this.
//! * Both sweep orderings run plain, so a strongly coupled cluster can
//!   exhaust a tight outer budget under either. The retry ladder's
//!   budget doubling then solves it at full tolerance, bit for bit the
//!   solve at the default budget.

use gprs_campaign::journal::entry_to_json_value;
use gprs_campaign::{
    run_campaign, CampaignItem, CampaignSpec, ItemResult, ItemStatus, RetryPolicy, RunnerConfig,
};
use gprs_core::codec::{graph_from_json_value, parse_json};
use gprs_core::{
    CellConfig, ClusterSolveOptions, ModelError, Scenario, SolvedCluster, SweepOrdering,
    TemplateRegistry,
};
use gprs_queueing::QueueingError;
use gprs_traffic::TrafficModel;

/// Two items on the committed 48-cell city graph under the district
/// load profile: the plain cell shape at 0.8 of the profile's load and
/// a deeper downtown buffer at 1.2.
fn metro_items() -> Vec<CampaignItem> {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../examples/data/metro_city.json"
    );
    let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    let graph = graph_from_json_value(&doc, "metro_city").unwrap();
    let n = graph.num_cells();
    [(0, 0.8), (1, 1.2)]
        .into_iter()
        .map(|(variant, scale)| {
            let cells = (0..n)
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
                        .unwrap()
                })
                .collect();
            let id = format!("metro-v{variant}");
            let scenario = Scenario::from_graph(id.clone(), graph.clone(), cells)
                .and_then(|s| s.with_load_scale(scale))
                .unwrap();
            CampaignItem { id, scenario }
        })
        .collect()
}

fn spec(name: &str, options: ClusterSolveOptions, items: Vec<CampaignItem>) -> CampaignSpec {
    CampaignSpec {
        name: name.into(),
        options,
        retry: RetryPolicy::default(),
        items,
    }
}

fn one_worker() -> RunnerConfig {
    RunnerConfig {
        threads: 1,
        ..RunnerConfig::default()
    }
}

/// The item result a campaign reports for `solved` on attempt
/// `attempts`.
fn solved_result(index: usize, id: &str, attempts: usize, solved: &SolvedCluster) -> ItemResult {
    let health = || solved.cells().iter().map(|cell| cell.health);
    ItemResult {
        index,
        id: id.into(),
        status: ItemStatus::Solved,
        attempts,
        measures: Some(solved.mid().measures),
        rung: health().map(|h| h.rung).max().unwrap(),
        failed_rungs: health().map(|h| h.failed_rungs).max().unwrap(),
        surrogate_solves: solved.surrogate_solves(),
        failure: None,
    }
}

/// An item result as its journal line. `Measures` compares floats by
/// value; the journal entry writes them in shortest round-trip form,
/// so equal lines mean equal bits.
fn journal_line(result: &ItemResult) -> String {
    entry_to_json_value(result).to_json_string()
}

#[test]
fn first_attempt_is_the_pinned_plain_solve_bitwise() {
    for ordering in [SweepOrdering::Jacobi, SweepOrdering::GaussSeidel] {
        let options = ClusterSolveOptions::quick()
            .with_surrogate(true)
            .with_ordering(ordering);
        let spec = spec("metro", options, metro_items());
        let report = run_campaign(&spec, None, &one_worker()).unwrap();

        let pinned = spec.options.clone().with_threads(1).with_shards(1);
        let registry = TemplateRegistry::new();
        for (index, (item, got)) in spec.items.iter().zip(&report.results).enumerate() {
            let solved = item
                .scenario
                .to_cluster()
                .unwrap()
                .solve_with_registry(&pinned, &registry)
                .unwrap();
            let want = solved_result(index, &item.id, 1, &solved);
            let what = format!("{ordering:?}/{}", item.id);
            assert_eq!(got, &want, "{what}");
            assert_eq!(journal_line(got), journal_line(&want), "{what}");
        }
    }
}

/// The ring7 hot spot at 0.5 s dwell: the outer fixed point contracts
/// at a ratio near 1.
fn short_dwell_hot_spot() -> Scenario {
    let ring = CellConfig::builder()
        .total_channels(4)
        .reserved_pdchs(1)
        .buffer_capacity(5)
        .traffic_model(TrafficModel::Model3)
        .max_gprs_sessions(2)
        .call_arrival_rate(0.3)
        .gsm_dwell_time(0.5)
        .gprs_dwell_time(0.5)
        .build()
        .unwrap();
    Scenario::hot_spot(ring, 0.9).unwrap()
}

#[test]
fn budget_bound_item_is_solved_by_an_escalated_attempt() {
    let cluster = short_dwell_hot_spot().to_cluster().unwrap();
    for ordering in [SweepOrdering::Jacobi, SweepOrdering::GaussSeidel] {
        let default = ClusterSolveOptions::default().with_ordering(ordering);
        let capped = ClusterSolveOptions {
            max_iterations: 60,
            ..default.clone()
        };

        // Neither ordering extrapolates: each needs more than 60 outer
        // iterations (Jacobi 188, Gauss–Seidel 107 here), so the capped
        // solve fails...
        let deep = cluster
            .solve(&default.with_threads(1).with_shards(1))
            .unwrap();
        assert!(
            deep.iterations() > 60,
            "{ordering:?} took {}",
            deep.iterations()
        );
        match cluster.solve(&capped) {
            Err(ModelError::Queueing(QueueingError::BalanceNotConverged { .. })) => {}
            other => panic!("{ordering:?}: expected BalanceNotConverged, got {other:?}"),
        }

        // ...and so does a campaign's first attempt. The doubled budget
        // of a later attempt converges at full tolerance: the item is
        // solved, not served degraded, and bit for bit the solve at the
        // default budget.
        let item = CampaignItem {
            id: "short-dwell".into(),
            scenario: short_dwell_hot_spot(),
        };
        let report = run_campaign(&spec("trade", capped, vec![item]), None, &one_worker()).unwrap();
        let result = &report.results[0];
        assert_eq!(
            result.status,
            ItemStatus::Solved,
            "{ordering:?}: {result:?}"
        );
        assert!(
            result.attempts > 1,
            "{ordering:?}: solved on attempt {}",
            result.attempts
        );
        assert_eq!(report.retries, result.attempts - 1, "{ordering:?}");
        let want = solved_result(0, "short-dwell", result.attempts, &deep);
        assert_eq!(journal_line(result), journal_line(&want), "{ordering:?}");
    }
}
