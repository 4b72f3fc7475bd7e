//! The correctness gate: stored reference measures, tolerance
//! comparison and the failure ledger that feeds `failed_frac`.

use gprs_core::codec::{parse_json, JsonValue};
use gprs_core::Measures;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// Reference comparisons allow this many solver tolerances of relative
/// deviation, plus one tolerance of absolute deviation for measures
/// near 0. The solvers stop at a relative balance residual of
/// `tolerance`, so two correct runs that take different within-tolerance
/// paths to a point (another chunk head, another warm start) agree to a
/// small multiple of it, never bit for bit. The deviation is relative so
/// that rare-event measures, such as a 1e-5 blocking probability, are
/// checked as closely as the large ones.
const TOLERANCE_FACTOR: f64 = 1e3;

/// `measures_for` computes the packet loss probability as
/// `1 − throughput / offered`, so its error is the relative error of
/// that ratio, not a share of the loss itself. It is compared through
/// its complement: another chunk length moves a 2.6e-7 loss by 2.6e-7.
const COMPLEMENT_MEASURE: &str = "packet_loss_probability";

const REFERENCE_FORMAT: &str = "gprs-perfbench-reference/v1";

/// The sixteen measures of a point, by name, in declaration order.
fn measure_fields(m: &Measures) -> [(&'static str, f64); 16] {
    [
        ("call_arrival_rate", m.call_arrival_rate),
        ("carried_data_traffic", m.carried_data_traffic),
        ("mean_queue_length", m.mean_queue_length),
        ("offered_packet_rate", m.offered_packet_rate),
        ("accepted_packet_rate", m.accepted_packet_rate),
        ("data_throughput", m.data_throughput),
        ("packet_loss_probability", m.packet_loss_probability),
        ("queueing_delay", m.queueing_delay),
        ("throughput_per_user_pkts", m.throughput_per_user_pkts),
        ("throughput_per_user_kbps", m.throughput_per_user_kbps),
        ("carried_voice_traffic", m.carried_voice_traffic),
        ("avg_gprs_sessions", m.avg_gprs_sessions),
        ("gsm_blocking_probability", m.gsm_blocking_probability),
        ("gprs_blocking_probability", m.gprs_blocking_probability),
        ("gsm_handover_rate", m.gsm_handover_rate),
        ("gprs_handover_rate", m.gprs_handover_rate),
    ]
}

fn reference_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{workload}.json"))
}

/// Reference measures of one workload, keyed by point or item design.
pub struct Reference {
    entries: BTreeMap<String, Vec<(String, f64)>>,
}

impl Reference {
    /// Loads `reference/<workload>.json`.
    pub fn load(workload: &str) -> Result<Self, String> {
        let path = reference_path(workload);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let doc = parse_json(&text).map_err(|e| format!("parsing {}: {e}", path.display()))?;
        if doc.get("format").and_then(JsonValue::as_str) != Some(REFERENCE_FORMAT) {
            return Err(format!(
                "{}: expected format {REFERENCE_FORMAT}",
                path.display()
            ));
        }
        let malformed = || format!("{}: malformed entry", path.display());
        let mut entries = BTreeMap::new();
        for entry in doc
            .get("entries")
            .and_then(JsonValue::as_array)
            .ok_or_else(malformed)?
        {
            let key = entry
                .get("key")
                .and_then(JsonValue::as_str)
                .ok_or_else(malformed)?;
            let Some(JsonValue::Object(fields)) = entry.get("measures") else {
                return Err(malformed());
            };
            let values = fields
                .iter()
                .map(|(name, v)| Ok((name.clone(), v.as_f64().ok_or_else(malformed)?)))
                .collect::<Result<Vec<_>, String>>()?;
            entries.insert(key.to_string(), values);
        }
        Ok(Reference { entries })
    }

    /// Compares `measures` against the entry stored under `key`;
    /// `None` when each differs from the reference `want` by at most
    /// `tolerance · (TOLERANCE_FACTOR · |want| + 1)` (`|1 − want|` for
    /// [`COMPLEMENT_MEASURE`]), otherwise a description of the first
    /// mismatch.
    pub fn mismatch(&self, key: &str, measures: &Measures, tolerance: f64) -> Option<String> {
        let Some(stored) = self.entries.get(key) else {
            return Some(format!("{key}: no reference entry"));
        };
        for (name, got) in measure_fields(measures) {
            let Some(&(_, want)) = stored.iter().find(|(n, _)| n == name) else {
                return Some(format!("{key}: reference lacks {name}"));
            };
            let scale = if name == COMPLEMENT_MEASURE {
                1.0 - want
            } else {
                want
            };
            let slack = tolerance * (TOLERANCE_FACTOR * scale.abs() + 1.0);
            if !got.is_finite() || (got - want).abs() > slack {
                return Some(format!("{key}: {name} = {got:e}, reference {want:e}"));
            }
        }
        None
    }
}

/// Whether a residual meets the tolerance (a NaN residual never does).
pub fn meets_tolerance(residual: f64, tolerance: f64) -> bool {
    residual <= tolerance
}

/// Writes `reference/<workload>.json` from `(key, measures)` pairs.
pub fn write_reference(
    workload: &str,
    tolerance: f64,
    entries: &[(String, Measures)],
) -> Result<PathBuf, String> {
    let doc = JsonValue::Object(vec![
        ("format".into(), JsonValue::Str(REFERENCE_FORMAT.into())),
        ("workload".into(), JsonValue::Str(workload.into())),
        ("solve_tolerance".into(), JsonValue::Num(tolerance)),
        (
            "entries".into(),
            JsonValue::Array(
                entries
                    .iter()
                    .map(|(key, m)| {
                        JsonValue::Object(vec![
                            ("key".into(), JsonValue::Str(key.clone())),
                            (
                                "measures".into(),
                                JsonValue::Object(
                                    measure_fields(m)
                                        .iter()
                                        .map(|&(n, v)| (n.to_string(), JsonValue::Num(v)))
                                        .collect(),
                                ),
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    let path = reference_path(workload);
    let mut text = doc.to_json_string();
    text.push('\n');
    std::fs::write(&path, text).map_err(|e| format!("writing {}: {e}", path.display()))?;
    Ok(path)
}

/// Counts operations checked and failed; every failure is also
/// reported on stderr.
#[derive(Default)]
pub struct Ledger {
    pub attempted: usize,
    pub failed: usize,
}

impl Ledger {
    /// Records one checked operation; `problem` is `None` when it passed.
    pub fn record(&mut self, problem: Option<String>) {
        self.attempted += 1;
        if let Some(problem) = problem {
            self.failed += 1;
            eprintln!("check failed: {problem}");
        }
    }

    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
