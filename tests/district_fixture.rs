//! The district-cell contract: Gauss–Seidel cluster solves of the
//! `metro_city` district cell, with the surrogate on, render pinned bit
//! patterns.
//!
//! The district cell (6 channels, 1 reserved PDCH, M = 3, Model 3) is
//! the cell the metro campaigns solve, at buffer capacities K = 8 and
//! K = 10: blocked-kernel columns of 9 and 11 levels. The other
//! fixtures pin 5- and 6-level columns only. The cases here are the
//! 48-cell `examples/data/metro_city.json` city under the
//! `examples/metro_city.rs` district load profile, with every buffer at
//! K = 8 or the 16 downtown cells at K = 10, so a change to the kernel's
//! short-column arithmetic cannot move a bit of campaign output
//! unnoticed.
//!
//! Regenerate with
//! `cargo test --test district_fixture -- --ignored regenerate`
//! (only legitimate when the fixed point itself changes semantics).

use gprs_core::cluster::ClusterSolveOptions;
use gprs_core::codec::{graph_from_json_value, parse_json};
use gprs_core::{CellConfig, Measures, Scenario, SolvedCluster};
use gprs_traffic::TrafficModel;
use std::fmt::Write as _;
use std::path::PathBuf;

const FIXTURE: &str = "district_model.txt";

/// The district profile: a hot downtown grid (cells 0–15), a moderate
/// ring road (16–27) and radial corridors thinning outward. With
/// `deep_downtown` the downtown buffers hold 10 packets, the rest 8.
fn district_cells(n: usize, deep_downtown: bool) -> Vec<CellConfig> {
    (0..n)
        .map(|i| {
            let calls = match i {
                0..=15 => 0.060,
                16..=27 => 0.040,
                _ => 0.030 - 0.004 * ((i - 28) % 5) as f64,
            };
            let buffer = if deep_downtown && i <= 15 { 10 } else { 8 };
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
        .collect()
}

/// Every pinned case: a name and the scenario, solved with the
/// campaign options (Gauss–Seidel, the default ordering, surrogate on).
fn cases() -> Vec<(&'static str, Scenario)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/examples/data/metro_city.json");
    let doc = parse_json(&std::fs::read_to_string(path).unwrap()).unwrap();
    let graph = graph_from_json_value(&doc, "metro_city").unwrap();
    let n = graph.num_cells();
    let city = |deep: bool, scale: f64| {
        Scenario::from_graph("metro-district", graph.clone(), district_cells(n, deep))
            .and_then(|s| s.with_load_scale(scale))
            .unwrap()
    };
    vec![
        ("k8", city(false, 1.0)),
        ("k10-downtown", city(true, 1.0)),
        ("k10-downtown-hot", city(true, 1.2)),
    ]
}

fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

fn render_measures(m: &Measures) -> String {
    [
        m.call_arrival_rate,
        m.carried_data_traffic,
        m.mean_queue_length,
        m.offered_packet_rate,
        m.accepted_packet_rate,
        m.data_throughput,
        m.packet_loss_probability,
        m.queueing_delay,
        m.throughput_per_user_pkts,
        m.throughput_per_user_kbps,
        m.carried_voice_traffic,
        m.avg_gprs_sessions,
        m.gsm_blocking_probability,
        m.gprs_blocking_probability,
        m.gsm_handover_rate,
        m.gprs_handover_rate,
    ]
    .map(bits)
    .join(" ")
}

fn render_solved(name: &str, solved: &SolvedCluster, out: &mut String) {
    writeln!(
        out,
        "{name}/trace {} {} {}",
        solved.iterations(),
        bits(solved.handover_delta()),
        solved.surrogate_solves(),
    )
    .unwrap();
    for (i, cell) in solved.cells().iter().enumerate() {
        writeln!(
            out,
            "{name}/cell{i} {} {} {} {} {} {} {} {} {:?}",
            bits(cell.gsm_handover_in),
            bits(cell.gprs_handover_in),
            bits(cell.gsm_handover_out),
            bits(cell.gprs_handover_out),
            bits(cell.mean_voice_calls),
            bits(cell.mean_sessions),
            cell.sweeps,
            bits(cell.residual),
            cell.health.rung,
        )
        .unwrap();
        writeln!(
            out,
            "{name}/cell{i}/measures {}",
            render_measures(&cell.measures)
        )
        .unwrap();
    }
}

/// Renders every case solved at `shards` shards on as many threads.
fn render(shards: usize) -> String {
    let opts = ClusterSolveOptions::quick()
        .with_surrogate(true)
        .with_shards(shards)
        .with_threads(shards);
    let mut out = String::new();
    for (name, scenario) in cases() {
        let solved = scenario.to_cluster().unwrap().solve(&opts).unwrap();
        render_solved(name, &solved, &mut out);
    }
    out
}

fn fixture_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(FIXTURE)
}

fn compare(rendered: &str, what: &str) {
    let pinned = std::fs::read_to_string(fixture_path())
        .unwrap_or_else(|e| panic!("fixture {FIXTURE} unreadable ({e}); regenerate first"));
    for (line, (got, want)) in rendered.lines().zip(pinned.lines()).enumerate() {
        assert_eq!(got, want, "{what}: fixture {FIXTURE} line {}", line + 1);
    }
    assert_eq!(
        rendered.lines().count(),
        pinned.lines().count(),
        "{what}: fixture {FIXTURE} length"
    );
}

/// Tier-1 anchor: the one-shard layout renders the pinned bits.
#[test]
fn district_cells_match_pinned_fixture_unsharded() {
    compare(&render(1), "shards=1");
}

/// Tier-1 anchor: a two-worker layout renders the same pinned bits.
#[test]
fn district_cells_match_pinned_fixture_on_two_shards() {
    compare(&render(2), "shards=2");
}

/// The cases really reach the campaign's column lengths and its
/// surrogate path: 9- and 11-level columns, surrogate-served solves.
#[test]
fn district_fixture_covers_both_buffer_depths_and_the_surrogate() {
    let mut depths: Vec<usize> = cases()
        .iter()
        .flat_map(|(_, s)| s.base_cells().iter().map(|c| c.buffer_capacity + 1))
        .collect();
    depths.sort_unstable();
    depths.dedup();
    assert_eq!(depths, [9, 11]);
    let (_, scenario) = &cases()[1];
    let solved = scenario
        .to_cluster()
        .unwrap()
        .solve(&ClusterSolveOptions::quick().with_surrogate(true))
        .unwrap();
    assert!(solved.surrogate_solves() > 0, "the surrogate never served");
}

/// Rewrites the fixture from the current implementation. Only
/// legitimate when the fixed point itself changes semantics.
#[test]
#[ignore]
fn regenerate_fixture() {
    std::fs::write(fixture_path(), render(1)).unwrap();
}
