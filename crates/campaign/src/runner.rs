//! The supervised campaign runner: batches, worker pool, retry
//! ladder, journaling, graceful degradation, and the campaign report.
//!
//! Scheduling is deterministic: pending items run in spec order, in
//! fixed-size batches, each batch drained from the load-balanced queue
//! of one **campaign-spanning** [`gprs_exec::with_worker_pool`] scope
//! (workers spawn once per run and park between batches, instead of
//! re-spawning per batch). Per-item solve outcomes are independent of
//! thread count and batch boundaries (the cluster solver's determinism
//! contract plus a shared template registry that only counts cell
//! shapes), which is what makes the journal's resume path bitwise:
//! a journaled item is reused verbatim, an unjournaled one re-solves
//! to the exact bytes it would have produced the first time.

use crate::journal::{entry_to_json_value, ItemFailure, ItemResult, ItemStatus, Journal};
use crate::spec::{CampaignSpec, RetryPolicy};
use crate::CampaignError;
use gprs_core::codec::JsonValue;
use gprs_core::stress::{CampaignFaults, FaultAction};
use gprs_core::{ClusterSolveOptions, SolveRung, SolvedCluster, TemplateRegistry};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Escalation shifts are capped so budget doubling cannot overflow
/// into nonsense (`2^16` times the base budget is already "forever").
const MAX_ESCALATION_SHIFT: usize = 16;

/// Runner knobs. `Default` is the production configuration; the crash
/// and fault fields exist for the chaos tests and CI chaos job.
#[derive(Debug, Clone, Default)]
pub struct RunnerConfig {
    /// Worker threads for the per-batch item fan-out; `0` uses
    /// [`gprs_exec::num_threads`]. Item results are identical for any
    /// value.
    pub threads: usize,
    /// Items per journal batch (fsync cadence); `0` is treated as the
    /// default of 8. Smaller batches lose less work to a crash, larger
    /// ones fsync less often.
    pub batch_size: usize,
    /// Chaos hook: `Some(n)` aborts the process (SIGKILL-equivalent,
    /// no unwinding, no cleanup) immediately after the `n`-th batch
    /// has been journaled and fsync'd. Used by the kill-and-resume
    /// tests and the CI chaos job; never set in production.
    pub crash_after_batches: Option<usize>,
    /// Chaos hook: fault plan injected into solve attempts.
    pub faults: Option<Arc<CampaignFaults>>,
}

impl RunnerConfig {
    fn effective_batch_size(&self) -> usize {
        if self.batch_size == 0 {
            8
        } else {
            self.batch_size
        }
    }
}

/// The outcome of a campaign run: every item's result plus the
/// resilience and reuse counters the health summary is built from.
#[derive(Debug)]
pub struct CampaignReport {
    /// Campaign name (from the spec).
    pub name: String,
    /// One result per spec item, in item order, journaled entries and
    /// fresh solves interleaved indistinguishably.
    pub results: Vec<ItemResult>,
    /// Items served verbatim from the journal on resume.
    pub reused_from_journal: usize,
    /// Journal lines dropped during recovery (torn writes, garbled
    /// bytes, id mismatches against the spec).
    pub dropped_journal_lines: usize,
    /// Total retry attempts across items (attempts beyond each item's
    /// first, including panicked and degraded attempts).
    pub retries: usize,
    /// Distinct cell shapes the campaign-wide template registry saw.
    pub template_setups: usize,
    /// Wall time of this run (excludes journaled work from prior
    /// runs).
    pub elapsed: Duration,
}

impl CampaignReport {
    /// Items solved at full tolerance.
    pub fn solved(&self) -> usize {
        self.count(ItemStatus::Solved)
    }

    /// Items served by the graceful-degradation attempt.
    pub fn degraded(&self) -> usize {
        self.count(ItemStatus::Degraded)
    }

    /// Items that produced no answer (typed failures).
    pub fn failed(&self) -> usize {
        self.count(ItemStatus::Failed)
    }

    fn count(&self, status: ItemStatus) -> usize {
        self.results.iter().filter(|r| r.status == status).count()
    }

    /// Surrogate-served cell solves summed over all items: non-zero
    /// only for items reused from a journal written before the
    /// predict-and-verify surrogate was retired.
    pub fn surrogate_solves(&self) -> usize {
        self.results.iter().map(|r| r.surrogate_solves).sum()
    }

    /// Items processed per wall-clock second in this run (journaled
    /// reuse excluded from the numerator).
    pub fn items_per_sec(&self) -> f64 {
        let fresh = self.results.len().saturating_sub(self.reused_from_journal);
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            fresh as f64 / secs
        } else {
            0.0
        }
    }

    /// Serializes the report (summary plus per-item entries) to a
    /// [`JsonValue`] document.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("name".into(), JsonValue::Str(self.name.clone())),
            ("items".into(), JsonValue::Num(self.results.len() as f64)),
            ("solved".into(), JsonValue::Num(self.solved() as f64)),
            ("degraded".into(), JsonValue::Num(self.degraded() as f64)),
            ("failed".into(), JsonValue::Num(self.failed() as f64)),
            ("retries".into(), JsonValue::Num(self.retries as f64)),
            (
                "surrogate_solves".into(),
                JsonValue::Num(self.surrogate_solves() as f64),
            ),
            (
                "reused_from_journal".into(),
                JsonValue::Num(self.reused_from_journal as f64),
            ),
            (
                "dropped_journal_lines".into(),
                JsonValue::Num(self.dropped_journal_lines as f64),
            ),
            (
                "template_setups".into(),
                JsonValue::Num(self.template_setups as f64),
            ),
            (
                "elapsed_secs".into(),
                JsonValue::Num(self.elapsed.as_secs_f64()),
            ),
            ("items_per_sec".into(), JsonValue::Num(self.items_per_sec())),
            (
                "results".into(),
                JsonValue::Array(self.results.iter().map(entry_to_json_value).collect()),
            ),
        ])
    }
}

/// Runs (or resumes) a campaign.
///
/// With a `journal_path`, previously journaled items are reused
/// verbatim and every fresh result is appended batch-by-batch with an
/// fsync per batch; without one, everything runs in memory. Item-level
/// failures do **not** fail the campaign — they come back as
/// [`ItemStatus::Failed`] entries with typed [`ItemFailure`]s.
///
/// # Errors
///
/// [`CampaignError::Spec`] for invalid specs, [`CampaignError::Io`]
/// for journal I/O failures. Never errors on item solve outcomes.
pub fn run_campaign(
    spec: &CampaignSpec,
    journal_path: Option<&Path>,
    cfg: &RunnerConfig,
) -> Result<CampaignReport, CampaignError> {
    spec.validate()?;
    let started = Instant::now();

    // Recover the journal: entries for unknown indices or with ids
    // that do not match the spec are stale — drop and count them.
    let mut dropped = 0usize;
    let mut recovered: Vec<Option<ItemResult>> = vec![None; spec.items.len()];
    let mut journal = match journal_path {
        Some(path) => {
            let recovery = crate::journal::load_journal(path)?;
            dropped = recovery.dropped_lines;
            for entry in recovery.entries {
                let index = entry.index;
                match spec.items.get(index) {
                    Some(item) if item.id == entry.id && recovered[index].is_none() => {
                        recovered[index] = Some(entry);
                    }
                    _ => dropped += 1,
                }
            }
            Some(Journal::open_append(path)?)
        }
        None => None,
    };
    let reused_from_journal = recovered.iter().filter(|e| e.is_some()).count();

    let pending: Vec<usize> = (0..spec.items.len())
        .filter(|&i| recovered[i].is_none())
        .collect();

    let registry = TemplateRegistry::new();
    let faults = cfg.faults.clone();
    let faults_ref = faults.as_deref();

    // One worker-pool scope spans every batch of the run: the workers
    // spawn once, park between batches (journaling happens on this
    // thread), and drain each batch's items from the shared queue.
    let threads = if cfg.threads == 0 {
        gprs_exec::num_threads()
    } else {
        cfg.threads
    };
    gprs_exec::with_worker_pool(
        vec![(); threads.max(1)],
        |_, _state: &mut (), (index, offset): (usize, usize)| {
            solve_item(spec, index, offset, &registry, faults_ref)
        },
        |pool| -> Result<(), CampaignError> {
            let mut batches_done = 0usize;
            for batch in pending.chunks(cfg.effective_batch_size()) {
                let results = run_batch(spec, batch, pool);
                if let Some(journal) = journal.as_mut() {
                    journal.append_batch(&results)?;
                }
                batches_done += 1;
                if cfg.crash_after_batches == Some(batches_done) {
                    // The chaos hook: die *after* the fsync, exactly
                    // like a SIGKILL at a batch boundary — no
                    // unwinding, no drop glue, no chance to write
                    // anything else.
                    std::process::abort();
                }
                for result in results {
                    let index = result.index;
                    recovered[index] = Some(result);
                }
            }
            Ok(())
        },
    )?;

    #[allow(
        clippy::expect_used,
        reason = "every item is either recovered from the journal or pending, and every pending item is solved"
    )]
    let results: Vec<ItemResult> = recovered
        .into_iter()
        .map(|e| e.expect("every item is journaled or freshly solved"))
        .collect();
    let retries = results.iter().map(|r| r.attempts.saturating_sub(1)).sum();
    Ok(CampaignReport {
        name: spec.name.clone(),
        results,
        reused_from_journal,
        dropped_journal_lines: dropped,
        retries,
        template_setups: registry.setups(),
        elapsed: started.elapsed(),
    })
}

/// Runs one batch with panic supervision: panicked slots are re-run
/// with their consumed attempts carried forward until they produce a
/// result or exhaust `max_attempts`, at which point they become typed
/// [`ItemFailure::Panicked`] entries. Sibling items are never
/// disturbed — that is the pool's per-slot panic containment.
fn run_batch(
    spec: &CampaignSpec,
    batch: &[usize],
    pool: &mut gprs_exec::PoolHandle<'_, (), (usize, usize), ItemResult>,
) -> Vec<ItemResult> {
    let mut slots: Vec<Option<ItemResult>> = vec![None; batch.len()];
    let mut consumed = vec![0usize; batch.len()];
    let mut last_panic: Vec<Option<String>> = vec![None; batch.len()];

    loop {
        let todo: Vec<(usize, usize)> = (0..batch.len())
            .filter(|&s| slots[s].is_none() && consumed[s] < spec.retry.max_attempts)
            .map(|s| (s, consumed[s]))
            .collect();
        if todo.is_empty() {
            break;
        }
        let outcomes = pool.run_queue(
            todo.iter()
                .map(|&(slot, offset)| (batch[slot], offset))
                .collect(),
        );
        for (j, outcome) in outcomes.into_iter().enumerate() {
            let (slot, _) = todo[j];
            match outcome {
                Ok(result) => slots[slot] = Some(result),
                Err(panic) => {
                    consumed[slot] += 1;
                    last_panic[slot] = Some(panic.message);
                }
            }
        }
    }

    slots
        .into_iter()
        .enumerate()
        .map(|(s, slot)| {
            slot.unwrap_or_else(|| {
                let index = batch[s];
                ItemResult {
                    index,
                    id: spec.items[index].id.clone(),
                    status: ItemStatus::Failed,
                    attempts: consumed[s],
                    measures: None,
                    rung: SolveRung::Primary,
                    failed_rungs: 0,
                    surrogate_solves: 0,
                    failure: Some(ItemFailure::Panicked {
                        message: last_panic[s]
                            .take()
                            .unwrap_or_else(|| "<unknown panic>".into()),
                    }),
                }
            })
        })
        .collect()
}

/// Doubles the iteration/sweep/wall-time budgets `attempt` times
/// (tolerances untouched — retries buy room, not looseness) and pins
/// inner solves to one thread and one shard when the spec leaves the
/// counts adaptive: the campaign parallelizes *across* items, and
/// nested per-item final-pass workers (whose default count follows the
/// thread count) would oversubscribe. A spec that explicitly sets
/// `shards` keeps it.
///
/// The runner chooses no numerics. Ordering and tolerances come from
/// the spec's options unchanged, and thread and shard counts move no
/// bit. So attempt 0 is exactly
/// `solve_with_registry` on the spec's options with threads and shards
/// pinned to 1. Benchmarks that replay a campaign's first attempts
/// rebuild the options that way and compare item entries bitwise
/// (`crates/campaign/tests/first_attempt.rs` pins it). A numeric
/// choice belongs in the options' defaults, not here.
fn escalate(
    base: &ClusterSolveOptions,
    retry: &RetryPolicy,
    attempt: usize,
) -> ClusterSolveOptions {
    let mut opts = base.clone();
    if opts.threads == 0 {
        opts.threads = 1;
    }
    if opts.shards == 0 {
        opts.shards = 1;
    }
    let factor = 1usize << attempt.min(MAX_ESCALATION_SHIFT);
    opts.max_iterations = opts.max_iterations.saturating_mul(factor);
    opts.solve.max_sweeps = opts.solve.max_sweeps.saturating_mul(factor);
    if let Some(budget) = retry.attempt_wall_time {
        opts.solve.max_wall_time =
            Some(budget.saturating_mul(u32::try_from(factor).unwrap_or(u32::MAX)));
    }
    opts
}

/// Worst-case solve-health summary across the cells of one solved
/// cluster: the deepest fallback rung any cell needed and the maximum
/// failed-rung count.
fn health_summary(solved: &SolvedCluster) -> (SolveRung, u8) {
    let health = || solved.cells().iter().map(|cell| cell.health);
    let worst = health().map(|h| h.rung).max().unwrap_or_default();
    let failed = health().map(|h| h.failed_rungs).max().unwrap_or(0);
    (worst, failed)
}

fn success_result(
    index: usize,
    id: &str,
    status: ItemStatus,
    attempts: usize,
    solved: &SolvedCluster,
) -> ItemResult {
    let (rung, failed_rungs) = health_summary(solved);
    ItemResult {
        index,
        id: id.to_string(),
        status,
        attempts,
        measures: Some(solved.mid().measures),
        rung,
        failed_rungs,
        surrogate_solves: solved.surrogate_solves(),
        failure: None,
    }
}

/// Solves one item through the full retry ladder. Never returns an
/// `Err` — failures become typed [`ItemResult`]s — but injected
/// panics *do* unwind out, by design: the catching pool above is the
/// isolation boundary under test.
fn solve_item(
    spec: &CampaignSpec,
    index: usize,
    attempt_offset: usize,
    registry: &TemplateRegistry,
    faults: Option<&CampaignFaults>,
) -> ItemResult {
    let item = &spec.items[index];
    let retry = &spec.retry;
    let failed = |attempts: usize, failure: ItemFailure| ItemResult {
        index,
        id: item.id.clone(),
        status: ItemStatus::Failed,
        attempts,
        measures: None,
        rung: SolveRung::Primary,
        failed_rungs: 0,
        surrogate_solves: 0,
        failure: Some(failure),
    };

    // Structural lowering errors are not retryable: every attempt
    // would fail identically.
    let model = match item.scenario.to_cluster() {
        Ok(model) => model,
        Err(e) => {
            return failed(
                attempt_offset + 1,
                ItemFailure::Model {
                    error: e.to_string(),
                },
            )
        }
    };

    let mut last_error = String::from("no solve attempt ran");
    for attempt in attempt_offset..retry.max_attempts {
        if attempt > 0 && !retry.backoff.is_zero() {
            let shift = u32::try_from((attempt - 1).min(MAX_ESCALATION_SHIFT)).unwrap_or(0);
            std::thread::sleep(retry.backoff.saturating_mul(1u32 << shift));
        }
        match faults.map_or(FaultAction::Proceed, CampaignFaults::next_attempt) {
            FaultAction::Proceed => {}
            FaultAction::Panic => {
                panic!(
                    "injected campaign fault: panic on item `{}` attempt {attempt}",
                    item.id
                );
            }
            FaultAction::ExhaustBudget => {
                last_error = format!(
                    "injected campaign fault: wall-time budget exhausted on attempt {attempt}"
                );
                continue;
            }
        }
        let opts = escalate(&spec.options, retry, attempt);
        match model.solve_with_registry(&opts, registry) {
            Ok(solved) => {
                return success_result(index, &item.id, ItemStatus::Solved, attempt + 1, &solved)
            }
            Err(e) if e.is_solver_failure() => last_error = e.to_string(),
            Err(e) => {
                return failed(
                    attempt + 1,
                    ItemFailure::Model {
                        error: e.to_string(),
                    },
                )
            }
        }
    }

    // Graceful degradation: one last attempt at relaxed tolerance with
    // fully escalated budgets. An answer here is better than no
    // answer — it ships flagged, never silently.
    let mut opts = escalate(&spec.options, retry, retry.max_attempts);
    opts.tolerance = opts.tolerance.max(retry.degraded_tolerance);
    opts.solve.tolerance = opts.solve.tolerance.max(retry.degraded_tolerance);
    match model.solve_with_registry(&opts, registry) {
        Ok(solved) => success_result(
            index,
            &item.id,
            ItemStatus::Degraded,
            retry.max_attempts + 1,
            &solved,
        ),
        Err(e) => {
            if e.is_solver_failure() {
                last_error = e.to_string();
            }
            failed(
                retry.max_attempts + 1,
                ItemFailure::BudgetExhausted { last_error },
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::demo_spec;

    #[test]
    fn demo_campaign_runs_clean_and_deterministically() {
        let spec = demo_spec(6);
        let cfg = RunnerConfig::default();
        let a = run_campaign(&spec, None, &cfg).unwrap();
        assert_eq!(a.results.len(), 6);
        assert_eq!(a.solved(), 6);
        assert_eq!(a.failed() + a.degraded(), 0);
        assert_eq!(a.reused_from_journal, 0);
        // Same spec, different thread count: bitwise identical items.
        let b = run_campaign(
            &spec,
            None,
            &RunnerConfig {
                threads: 2,
                batch_size: 2,
                ..RunnerConfig::default()
            },
        )
        .unwrap();
        assert_eq!(a.results, b.results);
        // Template reuse: three shapes across six items.
        assert!(a.template_setups < 6, "shapes should be shared");
    }

    #[test]
    fn injected_panics_and_exhaustion_lose_no_items() {
        let spec = demo_spec(5);
        // Panic on the first two attempts the pool runs, exhaust the
        // budget of two later ones: everything must still resolve.
        let faults = Arc::new(
            CampaignFaults::none()
                .with_panic_on(0)
                .with_panic_on(1)
                .with_exhaust_on(3)
                .with_exhaust_on(5),
        );
        let cfg = RunnerConfig {
            threads: 1,
            batch_size: 2,
            faults: Some(faults),
            ..RunnerConfig::default()
        };
        let report = run_campaign(&spec, None, &cfg).unwrap();
        assert_eq!(report.results.len(), 5);
        for r in &report.results {
            match r.status {
                ItemStatus::Solved | ItemStatus::Degraded => {
                    assert!(r.measures.is_some());
                    assert!(r.failure.is_none());
                }
                ItemStatus::Failed => {
                    assert!(r.failure.is_some());
                    assert!(r.measures.is_none());
                }
            }
        }
        // The injected faults cost retries, and everything recovered.
        assert!(report.retries >= 2, "panics/exhaustions consume attempts");
        assert_eq!(report.solved(), 5, "faults are transient; items recover");
    }

    #[test]
    fn campaign_with_unsolvable_item_degrades_or_fails_just_that_item() {
        let mut spec = demo_spec(3);
        // Starve the solver: one outer iteration, one sweep, no
        // retries' worth of budget doubling can save tolerance 1e-8.
        spec.options.max_iterations = 1;
        spec.options.solve.max_sweeps = 1;
        spec.retry.max_attempts = 1;
        let report = run_campaign(&spec, None, &RunnerConfig::default()).unwrap();
        assert_eq!(report.results.len(), 3);
        for r in &report.results {
            // Nothing is lost: every item is solved, degraded, or a
            // typed failure.
            match r.status {
                ItemStatus::Failed => assert!(matches!(
                    r.failure,
                    Some(ItemFailure::BudgetExhausted { .. })
                )),
                _ => assert!(r.measures.is_some()),
            }
        }
    }

    #[test]
    fn journaled_run_resumes_bitwise() {
        let dir =
            std::env::temp_dir().join(format!("gprs-campaign-runner-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let journal = dir.join("resume.jsonl");
        let _ = std::fs::remove_file(&journal);
        let spec = demo_spec(7);
        let cfg = RunnerConfig {
            batch_size: 3,
            ..RunnerConfig::default()
        };
        // Uninterrupted reference, no journal.
        let reference = run_campaign(&spec, None, &cfg).unwrap();
        // First journaled run writes everything...
        let first = run_campaign(&spec, Some(&journal), &cfg).unwrap();
        assert_eq!(first.results, reference.results);
        // ...and a resume reuses all of it, byte for byte.
        let resumed = run_campaign(&spec, Some(&journal), &cfg).unwrap();
        assert_eq!(resumed.reused_from_journal, 7);
        assert_eq!(resumed.results, reference.results);
        // Torn tail: drop bytes off the journal, resume re-solves the
        // torn item and converges to the same results.
        let bytes = std::fs::read(&journal).unwrap();
        let torn = gprs_core::stress::truncate_tail(&bytes, 9);
        std::fs::write(&journal, &torn).unwrap();
        let healed = run_campaign(&spec, Some(&journal), &cfg).unwrap();
        assert_eq!(healed.dropped_journal_lines, 1);
        assert_eq!(healed.reused_from_journal, 6);
        assert_eq!(healed.results, reference.results);
        std::fs::remove_dir_all(&dir).ok();
    }
}
