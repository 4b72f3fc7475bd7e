//! Campaign-engine resilience corpus: under injected panics, budget
//! exhaustion, and journal corruption, the runner must lose **zero**
//! items — every item ends solved, degraded-with-flagged-health, or a
//! typed failure — and journal recovery must heal torn/garbled tails
//! back to bitwise-identical results.
//!
//! The quick tier-1 slice runs a handful of seeds; the `#[ignore]`d
//! long corpus sweeps a wider fault grid for the nightly job
//! (`cargo test -q --test campaign_resilience -- --ignored`).
//! Kill-and-resume via real `abort()` lives in the campaign crate's
//! own integration tests (it needs a subprocess); here the same
//! journal-boundary semantics are exercised in-process by truncating
//! and garbling journal bytes with the `gprs_core::stress` injectors.

use gprs_campaign::{
    demo_spec, run_campaign, CampaignError, CampaignSpec, ItemStatus, RunnerConfig,
};
use gprs_core::stress::{garble_last_line, truncate_tail, CampaignFaults};
use gprs_core::CodecError;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gprs-campaign-resilience-{tag}-{}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Every item accounted for: solved and degraded items carry measures
/// and no failure, failed items carry a typed failure and no measures.
fn assert_zero_lost_items(report: &gprs_campaign::CampaignReport, expected: usize) {
    assert_eq!(report.results.len(), expected, "an item went missing");
    for (i, r) in report.results.iter().enumerate() {
        assert_eq!(r.index, i, "results must stay in item order");
        assert!(r.attempts >= 1);
        match r.status {
            ItemStatus::Solved | ItemStatus::Degraded => {
                assert!(r.measures.is_some(), "item {i}: success without measures");
                assert!(r.failure.is_none(), "item {i}: success with a failure");
            }
            ItemStatus::Failed => {
                assert!(r.failure.is_some(), "item {i}: failure without a reason");
                assert!(r.measures.is_none(), "item {i}: failure with measures");
            }
        }
    }
}

/// One fault-injected run: panics and budget exhaustions on the given
/// global attempt numbers must never lose an item, and — because the
/// demo faults are transient — everything must come back solved with
/// results bitwise identical to a fault-free run.
fn run_fault_case(items: usize, panic_on: &[usize], exhaust_on: &[usize], threads: usize) {
    let mut spec = demo_spec(items);
    // Worst case, every injected fault lands on the same item (pool
    // scheduling decides); give the ladder one more attempt than that
    // so "all items solve" is a deterministic invariant, not a race.
    spec.retry.max_attempts = spec
        .retry
        .max_attempts
        .max(panic_on.len() + exhaust_on.len() + 1);
    let clean = run_campaign(&spec, None, &RunnerConfig::default()).expect("clean run");
    let mut faults = CampaignFaults::none();
    for &a in panic_on {
        faults = faults.with_panic_on(a);
    }
    for &a in exhaust_on {
        faults = faults.with_exhaust_on(a);
    }
    let cfg = RunnerConfig {
        threads,
        batch_size: 3,
        faults: Some(Arc::new(faults)),
        ..RunnerConfig::default()
    };
    let report = run_campaign(&spec, None, &cfg).expect("faulted run");
    assert_zero_lost_items(&report, items);
    assert_eq!(
        report.solved(),
        items,
        "transient faults must be absorbed by retries"
    );
    // Retries change *when* items solve, never *what* they solve to:
    // measures are bitwise those of the fault-free run. (`attempts`
    // differs by design — which item absorbed which fault depends on
    // pool scheduling — so whole-result equality is not asserted.)
    for (a, b) in report.results.iter().zip(&clean.results) {
        assert_eq!(a.measures, b.measures, "fault changed a solve result");
        assert_eq!(a.id, b.id);
    }
    assert!(
        report.retries >= 1,
        "injected faults must show up as retries"
    );
}

#[test]
fn injected_faults_lose_no_items_quick() {
    // Tier-1 slice: small corpus, a couple of fault placements.
    run_fault_case(5, &[0], &[2], 1);
    run_fault_case(6, &[1, 4], &[], 2);
    run_fault_case(6, &[], &[0, 1], 0);
}

#[test]
fn journal_heals_torn_and_garbled_tails_to_bitwise_results() {
    let dir = temp_dir("journal-heal");
    let spec = demo_spec(7);
    let cfg = RunnerConfig {
        batch_size: 2,
        ..RunnerConfig::default()
    };
    let reference = run_campaign(&spec, None, &cfg).expect("reference run");

    for (tag, corrupt) in [
        (
            "torn",
            (|b: &[u8]| truncate_tail(b, 11)) as fn(&[u8]) -> Vec<u8>,
        ),
        ("garbled", garble_last_line as fn(&[u8]) -> Vec<u8>),
    ] {
        let journal = dir.join(format!("{tag}.jsonl"));
        let _ = std::fs::remove_file(&journal);
        let full = run_campaign(&spec, Some(&journal), &cfg).expect("journaled run");
        assert_eq!(full.results, reference.results);
        // Corrupt the tail the way a kill mid-write would.
        let bytes = std::fs::read(&journal).expect("journal bytes");
        std::fs::write(&journal, corrupt(&bytes)).expect("rewrite journal");
        let healed = run_campaign(&spec, Some(&journal), &cfg).expect("healed run");
        assert_eq!(healed.dropped_journal_lines, 1, "{tag}: one line lost");
        assert_eq!(healed.reused_from_journal, 6, "{tag}: six lines reused");
        assert_eq!(
            healed.results, reference.results,
            "{tag}: resume must be bitwise"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn stale_journal_for_a_different_campaign_is_ignored() {
    let dir = temp_dir("stale");
    let journal = dir.join("stale.jsonl");
    let _ = std::fs::remove_file(&journal);
    let spec_a = demo_spec(4);
    let cfg = RunnerConfig::default();
    run_campaign(&spec_a, Some(&journal), &cfg).expect("first campaign");
    // A different campaign against the same journal: ids don't match,
    // so every stale entry is dropped and everything re-solves.
    let mut spec_b = demo_spec(4);
    for (i, item) in spec_b.items.iter_mut().enumerate() {
        item.id = format!("other-{i}");
    }
    let report = run_campaign(&spec_b, Some(&journal), &cfg).expect("second campaign");
    assert_eq!(report.reused_from_journal, 0);
    assert_eq!(report.dropped_journal_lines, 4);
    assert_zero_lost_items(&report, 4);
    std::fs::remove_dir_all(&dir).ok();
}

/// A campaign item whose cell needs more than `u32::MAX` states —
/// here `max_gprs_sessions = 2^32`, where the state count would wrap a
/// `usize` and the solve would abort on a 32 GiB allocation — is a
/// typed error as soon as the campaign document is read: every
/// scenario cell is validated on decode, before any item runs.
#[test]
fn oversized_cell_is_a_typed_error_not_an_abort() {
    let text = demo_spec(3).to_json();
    let huge = text.replacen(
        "\"max_gprs_sessions\":2,",
        "\"max_gprs_sessions\":4294967296,",
        1,
    );
    assert_ne!(huge, text, "the demo cell must carry the field");
    match CampaignSpec::from_json(&huge) {
        Err(CampaignError::Codec(CodecError::Invalid { reason })) => {
            assert!(reason.contains("u32 state index range"), "{reason}");
        }
        other => panic!("expected a typed codec error, got {other:?}"),
    }
}

/// Nightly corpus: a grid of fault placements across thread counts.
/// ~20 campaign runs; minutes, not seconds — hence ignored in tier 1.
#[test]
#[ignore]
fn injected_faults_lose_no_items_long() {
    for items in [7, 11] {
        for threads in [1, 2, 4] {
            run_fault_case(items, &[0, 3], &[1, 5], threads);
            run_fault_case(items, &[2, 3, 4], &[], threads);
            run_fault_case(items, &[], &[0, 2, 4, 6], threads);
        }
    }
    // A panic storm: the first eight attempts all panic. Some items
    // may legitimately exhaust their three attempts and fail typed —
    // the invariant is zero *lost* items, and survivors solve to the
    // fault-free measures.
    let spec = demo_spec(6);
    let clean = run_campaign(&spec, None, &RunnerConfig::default()).expect("clean run");
    let mut faults = CampaignFaults::none();
    for a in 0..8 {
        faults = faults.with_panic_on(a);
    }
    let cfg = RunnerConfig {
        threads: 2,
        batch_size: 3,
        faults: Some(Arc::new(faults)),
        ..RunnerConfig::default()
    };
    let report = run_campaign(&spec, None, &cfg).expect("storm run");
    assert_zero_lost_items(&report, 6);
    for (a, b) in report.results.iter().zip(&clean.results) {
        if a.status != ItemStatus::Failed {
            assert_eq!(a.measures, b.measures);
        }
    }
}
