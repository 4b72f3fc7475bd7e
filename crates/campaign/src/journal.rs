//! The write-ahead results journal: append-only JSONL, fsync'd per
//! batch, with truncation/corruption-tolerant recovery.
//!
//! Every completed item — solved, degraded, or failed — becomes one
//! JSON line. The runner appends a batch of lines and then
//! `sync_data`s before moving on, so after a SIGKILL the journal holds
//! every finished batch plus at most one torn line. Recovery
//! ([`load_journal`]) is byte-level and forgiving: unparseable lines
//! (truncated mid-write, garbled, invalid UTF-8) are dropped and
//! *counted*, never fatal — the runner simply re-solves whatever has
//! no journal entry, which is what makes resume bitwise identical to
//! an uninterrupted run.
//!
//! [`ItemResult`] round-trips through its line codec exactly: every
//! `f64` (all sixteen [`Measures`] fields, the residual) is serialized
//! with shortest-round-trip formatting, so a resumed campaign report
//! is bit-for-bit the report the uninterrupted run would have written.

use crate::CampaignError;
use gprs_core::codec::{parse_json, JsonValue};
use gprs_core::{Measures, SolveRung};
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

/// How one campaign item ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemStatus {
    /// Solved within the retry budget at full tolerance.
    Solved,
    /// Served by the graceful-degradation attempt at relaxed
    /// tolerance; `measures` are present but flagged.
    Degraded,
    /// No attempt produced an answer: `failure` carries the typed
    /// reason, `measures` is `None`.
    Failed,
}

impl ItemStatus {
    /// Stable serialization label.
    pub fn label(self) -> &'static str {
        match self {
            ItemStatus::Solved => "solved",
            ItemStatus::Degraded => "degraded",
            ItemStatus::Failed => "failed",
        }
    }
}

/// Typed reason an item produced no answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemFailure {
    /// The item's solve panicked (caught by the pool's isolation
    /// boundary) on every supervision attempt.
    Panicked {
        /// The final panic message.
        message: String,
    },
    /// A structural model error — invalid config/topology — that no
    /// retry can fix.
    Model {
        /// The model error, stringified for journaling.
        error: String,
    },
    /// Every attempt (including the degraded one) failed with solver
    /// errors.
    BudgetExhausted {
        /// The last solver error seen.
        last_error: String,
    },
}

impl ItemFailure {
    fn kind(&self) -> &'static str {
        match self {
            ItemFailure::Panicked { .. } => "panicked",
            ItemFailure::Model { .. } => "model",
            ItemFailure::BudgetExhausted { .. } => "budget-exhausted",
        }
    }

    fn detail(&self) -> &str {
        match self {
            ItemFailure::Panicked { message } => message,
            ItemFailure::Model { error } => error,
            ItemFailure::BudgetExhausted { last_error } => last_error,
        }
    }
}

impl std::fmt::Display for ItemFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind(), self.detail())
    }
}

/// The journaled outcome of one campaign item.
#[derive(Debug, Clone, PartialEq)]
pub struct ItemResult {
    /// Item index within the campaign spec.
    pub index: usize,
    /// The item's id (journal key; must match the spec on resume).
    pub id: String,
    /// How the item ended.
    pub status: ItemStatus,
    /// Solve attempts consumed (>= 1; includes the degraded attempt).
    pub attempts: usize,
    /// Mid-cell measures of the accepted solve (`None` for failures).
    pub measures: Option<Measures>,
    /// Deepest fallback rung any cell of the accepted solve used
    /// (`Primary` when there is no solve).
    pub rung: SolveRung,
    /// Maximum `failed_rungs` across cells of the accepted solve.
    pub failed_rungs: u8,
    /// Surrogate-served cell solves inside the accepted solve: always
    /// `0` since the predict-and-verify surrogate was retired. The field
    /// and its journal key stay so journals keep their shape and the
    /// repository benchmark, which builds these results, still
    /// compiles.
    pub surrogate_solves: usize,
    /// The typed failure, for `Failed` items.
    pub failure: Option<ItemFailure>,
}

fn rung_from_label(label: &str) -> Option<SolveRung> {
    match label {
        "primary" => Some(SolveRung::Primary),
        "surrogate" => Some(SolveRung::Surrogate),
        "cold-restart" => Some(SolveRung::ColdRestart),
        "alternate-iterative" => Some(SolveRung::AlternateIterative),
        "direct-gth" => Some(SolveRung::DirectGth),
        _ => None,
    }
}

/// One row of the measures codec table: field name, getter, setter.
type MeasureField = (&'static str, fn(&Measures) -> f64, fn(&mut Measures, f64));

/// The sixteen measure fields, one codec table for both directions.
const MEASURE_FIELDS: [MeasureField; 16] = [
    (
        "call_arrival_rate",
        |m| m.call_arrival_rate,
        |m, v| m.call_arrival_rate = v,
    ),
    (
        "carried_data_traffic",
        |m| m.carried_data_traffic,
        |m, v| m.carried_data_traffic = v,
    ),
    (
        "mean_queue_length",
        |m| m.mean_queue_length,
        |m, v| m.mean_queue_length = v,
    ),
    (
        "offered_packet_rate",
        |m| m.offered_packet_rate,
        |m, v| m.offered_packet_rate = v,
    ),
    (
        "accepted_packet_rate",
        |m| m.accepted_packet_rate,
        |m, v| m.accepted_packet_rate = v,
    ),
    (
        "data_throughput",
        |m| m.data_throughput,
        |m, v| m.data_throughput = v,
    ),
    (
        "packet_loss_probability",
        |m| m.packet_loss_probability,
        |m, v| m.packet_loss_probability = v,
    ),
    (
        "queueing_delay",
        |m| m.queueing_delay,
        |m, v| m.queueing_delay = v,
    ),
    (
        "throughput_per_user_pkts",
        |m| m.throughput_per_user_pkts,
        |m, v| m.throughput_per_user_pkts = v,
    ),
    (
        "throughput_per_user_kbps",
        |m| m.throughput_per_user_kbps,
        |m, v| m.throughput_per_user_kbps = v,
    ),
    (
        "carried_voice_traffic",
        |m| m.carried_voice_traffic,
        |m, v| m.carried_voice_traffic = v,
    ),
    (
        "avg_gprs_sessions",
        |m| m.avg_gprs_sessions,
        |m, v| m.avg_gprs_sessions = v,
    ),
    (
        "gsm_blocking_probability",
        |m| m.gsm_blocking_probability,
        |m, v| m.gsm_blocking_probability = v,
    ),
    (
        "gprs_blocking_probability",
        |m| m.gprs_blocking_probability,
        |m, v| m.gprs_blocking_probability = v,
    ),
    (
        "gsm_handover_rate",
        |m| m.gsm_handover_rate,
        |m, v| m.gsm_handover_rate = v,
    ),
    (
        "gprs_handover_rate",
        |m| m.gprs_handover_rate,
        |m, v| m.gprs_handover_rate = v,
    ),
];

fn measures_to_json_value(m: &Measures) -> JsonValue {
    JsonValue::Object(
        MEASURE_FIELDS
            .iter()
            .map(|(name, get, _)| ((*name).to_string(), JsonValue::Num(get(m))))
            .collect(),
    )
}

fn measures_from_json_value(value: &JsonValue) -> Option<Measures> {
    let mut m = Measures::default();
    for (name, _, set) in MEASURE_FIELDS.iter() {
        set(&mut m, value.get(name)?.as_f64()?);
    }
    Some(m)
}

/// Serializes one journal entry to its [`JsonValue`] line document.
pub fn entry_to_json_value(entry: &ItemResult) -> JsonValue {
    let mut fields = vec![
        ("item".to_string(), JsonValue::Num(entry.index as f64)),
        ("id".to_string(), JsonValue::Str(entry.id.clone())),
        (
            "status".to_string(),
            JsonValue::Str(entry.status.label().into()),
        ),
        (
            "attempts".to_string(),
            JsonValue::Num(entry.attempts as f64),
        ),
        (
            "rung".to_string(),
            JsonValue::Str(entry.rung.label().into()),
        ),
        (
            "failed_rungs".to_string(),
            JsonValue::Num(entry.failed_rungs as f64),
        ),
        (
            "surrogate_solves".to_string(),
            JsonValue::Num(entry.surrogate_solves as f64),
        ),
        (
            "measures".to_string(),
            match &entry.measures {
                Some(m) => measures_to_json_value(m),
                None => JsonValue::Null,
            },
        ),
        (
            "failure".to_string(),
            match &entry.failure {
                Some(f) => JsonValue::Object(vec![
                    ("kind".into(), JsonValue::Str(f.kind().into())),
                    ("detail".into(), JsonValue::Str(f.detail().into())),
                ]),
                None => JsonValue::Null,
            },
        ),
    ];
    fields.shrink_to_fit();
    JsonValue::Object(fields)
}

/// Decodes one journal line document; `None` when any field is
/// missing or mistyped (recovery counts it as a dropped line).
pub fn entry_from_json_value(value: &JsonValue) -> Option<ItemResult> {
    let status = match value.get("status")?.as_str()? {
        "solved" => ItemStatus::Solved,
        "degraded" => ItemStatus::Degraded,
        "failed" => ItemStatus::Failed,
        _ => return None,
    };
    let measures = match value.get("measures")? {
        JsonValue::Null => None,
        obj => Some(measures_from_json_value(obj)?),
    };
    let failure = match value.get("failure")? {
        JsonValue::Null => None,
        obj => {
            let detail = obj.get("detail")?.as_str()?.to_string();
            Some(match obj.get("kind")?.as_str()? {
                "panicked" => ItemFailure::Panicked { message: detail },
                "model" => ItemFailure::Model { error: detail },
                "budget-exhausted" => ItemFailure::BudgetExhausted { last_error: detail },
                _ => return None,
            })
        }
    };
    // Cross-field consistency: failures carry no measures, successes
    // carry no failure — anything else is a corrupt line.
    match status {
        ItemStatus::Failed if measures.is_some() || failure.is_none() => return None,
        ItemStatus::Solved | ItemStatus::Degraded if measures.is_none() || failure.is_some() => {
            return None
        }
        _ => {}
    }
    Some(ItemResult {
        index: value.get("item")?.as_usize()?,
        id: value.get("id")?.as_str()?.to_string(),
        status,
        attempts: value.get("attempts")?.as_usize()?,
        measures,
        rung: rung_from_label(value.get("rung")?.as_str()?)?,
        failed_rungs: u8::try_from(value.get("failed_rungs")?.as_usize()?).ok()?,
        surrogate_solves: value.get("surrogate_solves")?.as_usize()?,
        failure,
    })
}

/// An open append-mode journal.
#[derive(Debug)]
pub struct Journal {
    file: File,
    path: PathBuf,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` for appending.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`].
    pub fn open_append(path: &Path) -> Result<Self, CampaignError> {
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|source| CampaignError::Io {
                context: format!("opening journal {}", path.display()),
                source,
            })?;
        Ok(Journal {
            file,
            path: path.to_path_buf(),
        })
    }

    /// Appends one batch of entries as JSONL and `sync_data`s — after
    /// this returns, the batch survives a SIGKILL.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Io`].
    pub fn append_batch(&mut self, entries: &[ItemResult]) -> Result<(), CampaignError> {
        let io_err = |context: &str, source: std::io::Error| CampaignError::Io {
            context: format!("{context} {}", self.path.display()),
            source,
        };
        let mut buf = String::new();
        for entry in entries {
            buf.push_str(&entry_to_json_value(entry).to_json_string());
            buf.push('\n');
        }
        self.file
            .write_all(buf.as_bytes())
            .map_err(|e| io_err("appending to journal", e))?;
        self.file
            .sync_data()
            .map_err(|e| io_err("syncing journal", e))?;
        Ok(())
    }
}

/// What journal recovery found.
#[derive(Debug, Default)]
pub struct JournalRecovery {
    /// Every decodable entry, in file order (first occurrence wins on
    /// duplicate item indices).
    pub entries: Vec<ItemResult>,
    /// Lines dropped as unparseable (torn tail writes, garbled bytes,
    /// invalid UTF-8) — surfaced in the campaign report, never fatal.
    pub dropped_lines: usize,
}

/// Loads a journal from disk. A missing file is an empty recovery —
/// first runs and resumes share one code path.
///
/// # Errors
///
/// [`CampaignError::Io`] only for real I/O failures (permissions, …);
/// corruption is recovered, not raised.
pub fn load_journal(path: &Path) -> Result<JournalRecovery, CampaignError> {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(JournalRecovery::default()),
        Err(source) => {
            return Err(CampaignError::Io {
                context: format!("reading journal {}", path.display()),
                source,
            })
        }
    };
    let mut recovery = JournalRecovery::default();
    let mut seen = std::collections::HashSet::new();
    for line in bytes.split(|&b| b == b'\n') {
        if line.is_empty() {
            continue;
        }
        let parsed = std::str::from_utf8(line)
            .ok()
            .and_then(|text| parse_json(text).ok())
            .and_then(|value| entry_from_json_value(&value));
        match parsed {
            Some(entry) if seen.insert(entry.index) => recovery.entries.push(entry),
            Some(_) => recovery.dropped_lines += 1,
            None => recovery.dropped_lines += 1,
        }
    }
    Ok(recovery)
}

/// Parses journal *text* (for tests and tools that already hold the
/// bytes); same recovery semantics as [`load_journal`].
pub fn recover_journal_bytes(bytes: &[u8]) -> JournalRecovery {
    let mut recovery = JournalRecovery::default();
    let mut seen = std::collections::HashSet::new();
    for line in bytes.split(|&b| b == b'\n') {
        if line.is_empty() {
            continue;
        }
        let parsed = std::str::from_utf8(line)
            .ok()
            .and_then(|text| parse_json(text).ok())
            .and_then(|value| entry_from_json_value(&value));
        match parsed {
            Some(entry) if seen.insert(entry.index) => recovery.entries.push(entry),
            _ => recovery.dropped_lines += 1,
        }
    }
    recovery
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entry(index: usize) -> ItemResult {
        let measures = Measures {
            carried_data_traffic: 0.1 * index as f64 + 1.0 / 3.0,
            packet_loss_probability: 1e-9 * index as f64,
            ..Measures::default()
        };
        ItemResult {
            index,
            id: format!("item-{index}"),
            status: ItemStatus::Solved,
            attempts: 1,
            measures: Some(measures),
            rung: SolveRung::Primary,
            failed_rungs: 0,
            surrogate_solves: index,
            failure: None,
        }
    }

    #[test]
    fn entries_round_trip_bitwise() {
        let mut degraded = sample_entry(1);
        degraded.status = ItemStatus::Degraded;
        degraded.rung = SolveRung::DirectGth;
        degraded.failed_rungs = 3;
        degraded.attempts = 4;
        let failed = ItemResult {
            index: 2,
            id: "bad".into(),
            status: ItemStatus::Failed,
            attempts: 3,
            measures: None,
            rung: SolveRung::Primary,
            failed_rungs: 0,
            surrogate_solves: 0,
            failure: Some(ItemFailure::Panicked {
                message: "solver exploded".into(),
            }),
        };
        for entry in [sample_entry(0), degraded, failed] {
            let line = entry_to_json_value(&entry).to_json_string();
            let back = entry_from_json_value(&parse_json(&line).unwrap()).unwrap();
            assert_eq!(back, entry);
            if let (Some(a), Some(b)) = (&back.measures, &entry.measures) {
                assert_eq!(
                    a.carried_data_traffic.to_bits(),
                    b.carried_data_traffic.to_bits()
                );
            }
        }
    }

    #[test]
    fn recovery_drops_torn_and_garbled_lines_only() {
        let mut bytes = Vec::new();
        for i in 0..3 {
            bytes.extend_from_slice(
                entry_to_json_value(&sample_entry(i))
                    .to_json_string()
                    .as_bytes(),
            );
            bytes.push(b'\n');
        }
        // Clean journal: everything recovered.
        let clean = recover_journal_bytes(&bytes);
        assert_eq!(clean.entries.len(), 3);
        assert_eq!(clean.dropped_lines, 0);
        // Torn tail (SIGKILL mid-write): last line dropped, counted.
        let torn = gprs_core::stress::truncate_tail(&bytes, 7);
        let rec = recover_journal_bytes(&torn);
        assert_eq!(rec.entries.len(), 2);
        assert_eq!(rec.dropped_lines, 1);
        // Garbled last line: same outcome.
        let garbled = gprs_core::stress::garble_last_line(&bytes);
        let rec = recover_journal_bytes(&garbled);
        assert_eq!(rec.entries.len(), 2);
        assert_eq!(rec.dropped_lines, 1);
        // Invalid UTF-8 mid-journal: dropped, the rest survives.
        let mut noisy = bytes.clone();
        noisy.splice(0..0, [0xFF, 0xFE, b'\n']);
        let rec = recover_journal_bytes(&noisy);
        assert_eq!(rec.entries.len(), 3);
        assert_eq!(rec.dropped_lines, 1);
    }

    #[test]
    fn recovery_rejects_semantically_inconsistent_lines() {
        // A "solved" line with no measures is corruption, not data.
        let mut entry = sample_entry(0);
        entry.measures = None;
        let line = entry_to_json_value(&entry).to_json_string();
        assert!(entry_from_json_value(&parse_json(&line).unwrap()).is_none());
        // Duplicate item indices: first wins, duplicate counted.
        let mut bytes = Vec::new();
        for _ in 0..2 {
            bytes.extend_from_slice(
                entry_to_json_value(&sample_entry(5))
                    .to_json_string()
                    .as_bytes(),
            );
            bytes.push(b'\n');
        }
        let rec = recover_journal_bytes(&bytes);
        assert_eq!(rec.entries.len(), 1);
        assert_eq!(rec.dropped_lines, 1);
    }

    #[test]
    fn journal_file_append_and_load() {
        let dir =
            std::env::temp_dir().join(format!("gprs-campaign-journal-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("journal.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut journal = Journal::open_append(&path).unwrap();
        journal
            .append_batch(&[sample_entry(0), sample_entry(1)])
            .unwrap();
        journal.append_batch(&[sample_entry(2)]).unwrap();
        drop(journal);
        let rec = load_journal(&path).unwrap();
        assert_eq!(rec.entries.len(), 3);
        assert_eq!(rec.dropped_lines, 0);
        assert_eq!(rec.entries[2], sample_entry(2));
        // Missing journal: clean empty recovery.
        let rec = load_journal(&dir.join("absent.jsonl")).unwrap();
        assert!(rec.entries.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }
}
