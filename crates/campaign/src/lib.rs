//! Fault-tolerant batch campaign engine over the GPRS scenario layer.
//!
//! The ROADMAP's production framing is "answer millions of what-if
//! questions fast". This crate is the layer that survives answering
//! them: a campaign file ([`spec`]) describes a batch of scenarios to
//! solve, and the runner ([`runner`]) schedules them over a supervised
//! worker pool with the full resilience stack on top of the per-solve
//! fallback ladder the core crate already has:
//!
//! * **Per-item isolation** — items run on a
//!   [`gprs_exec::with_worker_pool`] queue, which contains each job's
//!   panic in its own slot: a panicking item yields a typed
//!   [`ItemFailure`] while every sibling item keeps going. One poisoned
//!   scenario never costs the batch.
//! * **Retry ladder** — solver failures (non-convergence, divergence,
//!   wall-time exhaustion) retry with exponential backoff and doubled
//!   iteration/sweep/wall-time budgets, each attempt re-entering
//!   `solve_resilient`'s warm → cold → alternate → GTH rungs. The
//!   sweep ordering and tolerances are the spec's own
//!   [`CampaignSpec::options`]; the runner picks none of them, so a
//!   first attempt is the plain solve of those options. Neither
//!   ordering damps or extrapolates, so under either the doubled outer
//!   budget of a retry is what rescues a strongly coupled item that
//!   overruns `max_iterations`, bit for bit the default-budget solve.
//! * **Write-ahead journal** — results append to a JSONL journal
//!   ([`journal`]), fsync'd per batch, so a SIGKILL'd campaign resumes
//!   from the journal and produces results **bitwise identical** to an
//!   uninterrupted run (journaled items are reused verbatim; the rest
//!   re-solve deterministically).
//! * **Graceful degradation** — an item that exhausts its retry
//!   budget gets one last relaxed-tolerance solve and, if that
//!   answers, is served flagged as [`ItemStatus::Degraded`] with its
//!   [`gprs_core::SolveHealth`]-derived summary instead of failing
//!   the campaign.
//! * **Shape accounting** — all items share one
//!   [`gprs_core::TemplateRegistry`], which counts the distinct cell
//!   shapes across the whole campaign
//!   ([`CampaignReport::template_setups`]).
//!
//! The `campaign-run` binary drives all of this from the command line;
//! `bench-report` embeds a demo campaign as its `campaign` section.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod journal;
pub mod runner;
pub mod spec;

pub use journal::{load_journal, ItemFailure, ItemResult, ItemStatus, Journal, JournalRecovery};
pub use runner::{run_campaign, CampaignReport, RunnerConfig};
pub use spec::{demo_spec, CampaignItem, CampaignSpec, RetryPolicy, CAMPAIGN_FORMAT};

use std::fmt;

/// A campaign-level failure: the campaign could not run (or resume) at
/// all. Per-item failures are *not* errors — they are
/// [`ItemFailure`]s inside the report.
#[derive(Debug)]
pub enum CampaignError {
    /// A document failed to parse or decode.
    Codec(gprs_core::CodecError),
    /// The campaign spec is structurally valid JSON but semantically
    /// broken (duplicate item ids, no items, ...).
    Spec {
        /// What is wrong with the spec.
        reason: String,
    },
    /// Journal or spec file I/O failed.
    Io {
        /// What was being done (e.g. the path involved).
        context: String,
        /// The underlying I/O error.
        source: std::io::Error,
    },
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::Codec(e) => write!(f, "campaign codec error: {e}"),
            CampaignError::Spec { reason } => write!(f, "invalid campaign spec: {reason}"),
            CampaignError::Io { context, source } => {
                write!(f, "campaign I/O error ({context}): {source}")
            }
        }
    }
}

impl std::error::Error for CampaignError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CampaignError::Codec(e) => Some(e),
            CampaignError::Io { source, .. } => Some(source),
            CampaignError::Spec { .. } => None,
        }
    }
}

impl From<gprs_core::CodecError> for CampaignError {
    fn from(e: gprs_core::CodecError) -> Self {
        CampaignError::Codec(e)
    }
}
