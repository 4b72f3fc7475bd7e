//! The campaign file format: a named batch of scenario items plus the
//! solve options and retry policy they run under.
//!
//! A campaign document is JSON (hand-rolled via [`gprs_core::codec`];
//! serde is not vendored):
//!
//! ```json
//! {
//!   "format": "gprs-campaign/v1",
//!   "name": "capacity-sweep",
//!   "options": { "tolerance": 1e-10, "solve": { "max_sweeps": 20000 } },
//!   "retry": { "max_attempts": 3, "backoff_ms": 50 },
//!   "items": [
//!     { "id": "hot-0.6", "scenario": { "format": "gprs-scenario/v1", ... } }
//!   ]
//! }
//! ```
//!
//! `options` and `retry` are optional and field-wise defaulted, so a
//! hand-written campaign only spells out what it changes. The defaults
//! are [`ClusterSolveOptions::default`]'s: in particular, a spec
//! without an `"ordering"` key runs Gauss–Seidel sweeps, and
//! `"ordering": "jacobi"` selects the historical bit-exact iteration.
//! Both run plain: an item that overruns a tight `max_iterations`
//! under either ordering is answered by a retry at a doubled budget.
//! Item ids must be unique and non-empty — they key journal recovery.

use crate::CampaignError;
use gprs_core::codec::{
    cluster_options_from_json_value, cluster_options_to_json_value, parse_json,
    scenario_from_json_value, scenario_to_json_value, JsonValue,
};
use gprs_core::{CellConfig, ClusterSolveOptions, Scenario};
use gprs_traffic::TrafficModel;
use std::time::Duration;

/// Format tag of campaign documents; bumped on breaking changes.
pub const CAMPAIGN_FORMAT: &str = "gprs-campaign/v1";

/// Per-item retry policy: how many attempts, how the backoff and
/// budgets escalate, and how far the last-resort degraded attempt may
/// relax the tolerance.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total solve attempts per item before degradation kicks in
    /// (minimum 1). Attempt `k` doubles the iteration/sweep/wall-time
    /// budgets `k` times, so later attempts give `solve_resilient`'s
    /// rungs progressively more room.
    pub max_attempts: usize,
    /// Base backoff before the first retry; doubles per retry.
    /// `Duration::ZERO` (the default) retries immediately — campaigns
    /// are batch workloads, not flaky-network clients, so backoff
    /// mainly matters when items contend for memory bandwidth.
    pub backoff: Duration,
    /// Optional per-attempt wall-clock budget for the inner solves
    /// (lowered onto `SolveOptions::max_wall_time`); doubles per
    /// retry. `None` leaves the sweep caps as the only budget, which
    /// also keeps solve outcomes timing-independent — required for the
    /// bitwise resume contract, so the chaos corpus runs without it.
    pub attempt_wall_time: Option<Duration>,
    /// Tolerance for the final graceful-degradation attempt after all
    /// regular attempts fail. Must be looser than (or equal to) the
    /// campaign tolerance to be useful; default `1e-4`.
    pub degraded_tolerance: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            backoff: Duration::ZERO,
            attempt_wall_time: None,
            degraded_tolerance: 1e-4,
        }
    }
}

/// One campaign item: a unique id (the journal key) and the scenario
/// to solve.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignItem {
    /// Unique, non-empty item id.
    pub id: String,
    /// The scenario this item solves.
    pub scenario: Scenario,
}

/// A full campaign: name, shared solve options, retry policy, items.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name (for reports and logs).
    pub name: String,
    /// Cluster solve options every item runs under (attempt escalation
    /// scales the budgets, never the tolerance, and changes no other
    /// numeric choice: the ordering and the surrogate are these).
    pub options: ClusterSolveOptions,
    /// The per-item retry policy.
    pub retry: RetryPolicy,
    /// The items, solved in order.
    pub items: Vec<CampaignItem>,
}

impl CampaignSpec {
    /// Validates campaign-level invariants: at least one item, unique
    /// non-empty ids, positive `max_attempts`, finite positive
    /// degraded tolerance.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Spec`] naming the first violation.
    pub fn validate(&self) -> Result<(), CampaignError> {
        let fail = |reason: String| Err(CampaignError::Spec { reason });
        if self.items.is_empty() {
            return fail("campaign has no items".into());
        }
        if self.retry.max_attempts == 0 {
            return fail("retry.max_attempts must be >= 1".into());
        }
        if !(self.retry.degraded_tolerance.is_finite() && self.retry.degraded_tolerance > 0.0) {
            return fail(format!(
                "retry.degraded_tolerance must be positive and finite, got {}",
                self.retry.degraded_tolerance
            ));
        }
        let mut seen = std::collections::HashSet::new();
        for (i, item) in self.items.iter().enumerate() {
            if item.id.is_empty() {
                return fail(format!("item {i} has an empty id"));
            }
            if !seen.insert(item.id.as_str()) {
                return fail(format!("duplicate item id `{}`", item.id));
            }
        }
        Ok(())
    }

    /// Serializes the campaign to a [`JsonValue`] document.
    pub fn to_json_value(&self) -> JsonValue {
        JsonValue::Object(vec![
            ("format".into(), JsonValue::Str(CAMPAIGN_FORMAT.into())),
            ("name".into(), JsonValue::Str(self.name.clone())),
            (
                "options".into(),
                cluster_options_to_json_value(&self.options),
            ),
            ("retry".into(), retry_to_json_value(&self.retry)),
            (
                "items".into(),
                JsonValue::Array(
                    self.items
                        .iter()
                        .map(|item| {
                            JsonValue::Object(vec![
                                ("id".into(), JsonValue::Str(item.id.clone())),
                                ("scenario".into(), scenario_to_json_value(&item.scenario)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// Serializes the campaign to compact JSON text.
    pub fn to_json(&self) -> String {
        self.to_json_value().to_json_string()
    }

    /// Parses and validates a campaign document.
    ///
    /// # Errors
    ///
    /// [`CampaignError::Codec`] for malformed/mistyped documents,
    /// [`CampaignError::Spec`] for semantic violations.
    pub fn from_json(text: &str) -> Result<Self, CampaignError> {
        let value = parse_json(text)?;
        let schema = |path: &str, reason: &str| {
            CampaignError::Codec(gprs_core::CodecError::Schema {
                path: path.to_string(),
                reason: reason.to_string(),
            })
        };
        let format = value
            .get("format")
            .and_then(|v| v.as_str())
            .ok_or_else(|| schema("format", "missing format tag"))?;
        if format != CAMPAIGN_FORMAT {
            return Err(schema(
                "format",
                &format!("expected `{CAMPAIGN_FORMAT}`, got `{format}`"),
            ));
        }
        let name = value
            .get("name")
            .and_then(|v| v.as_str())
            .ok_or_else(|| schema("name", "expected a string"))?
            .to_string();
        let options = match value.get("options") {
            Some(v) => cluster_options_from_json_value(v, "options")?,
            None => ClusterSolveOptions::default(),
        };
        let retry = match value.get("retry") {
            Some(v) => retry_from_json_value(v)?,
            None => RetryPolicy::default(),
        };
        let items_value = value
            .get("items")
            .and_then(|v| v.as_array())
            .ok_or_else(|| schema("items", "expected an array"))?;
        let mut items = Vec::with_capacity(items_value.len());
        for (i, item) in items_value.iter().enumerate() {
            let path = format!("items[{i}]");
            let id = item
                .get("id")
                .and_then(|v| v.as_str())
                .ok_or_else(|| schema(&format!("{path}.id"), "expected a string"))?
                .to_string();
            let scenario_value = item
                .get("scenario")
                .ok_or_else(|| schema(&format!("{path}.scenario"), "missing field"))?;
            let scenario = scenario_from_json_value(scenario_value)?;
            items.push(CampaignItem { id, scenario });
        }
        let spec = CampaignSpec {
            name,
            options,
            retry,
            items,
        };
        spec.validate()?;
        Ok(spec)
    }
}

fn duration_to_json_value(d: Duration) -> JsonValue {
    JsonValue::Object(vec![
        ("secs".into(), JsonValue::Num(d.as_secs() as f64)),
        ("nanos".into(), JsonValue::Num(d.subsec_nanos() as f64)),
    ])
}

fn duration_from_json_value(value: &JsonValue, path: &str) -> Result<Duration, CampaignError> {
    let schema = |reason: &str| {
        CampaignError::Codec(gprs_core::CodecError::Schema {
            path: path.to_string(),
            reason: reason.to_string(),
        })
    };
    let secs = value
        .get("secs")
        .and_then(|v| v.as_usize())
        .ok_or_else(|| schema("expected integer `secs`"))? as u64;
    let nanos = value
        .get("nanos")
        .and_then(|v| v.as_usize())
        .ok_or_else(|| schema("expected integer `nanos`"))?;
    let nanos = u32::try_from(nanos).map_err(|_| schema("`nanos` must fit in u32"))?;
    Ok(Duration::new(secs, nanos))
}

fn retry_to_json_value(retry: &RetryPolicy) -> JsonValue {
    JsonValue::Object(vec![
        (
            "max_attempts".into(),
            JsonValue::Num(retry.max_attempts as f64),
        ),
        ("backoff".into(), duration_to_json_value(retry.backoff)),
        (
            "attempt_wall_time".into(),
            match retry.attempt_wall_time {
                None => JsonValue::Null,
                Some(d) => duration_to_json_value(d),
            },
        ),
        (
            "degraded_tolerance".into(),
            JsonValue::Num(retry.degraded_tolerance),
        ),
    ])
}

fn retry_from_json_value(value: &JsonValue) -> Result<RetryPolicy, CampaignError> {
    let schema = |path: &str, reason: &str| {
        CampaignError::Codec(gprs_core::CodecError::Schema {
            path: path.to_string(),
            reason: reason.to_string(),
        })
    };
    let mut retry = RetryPolicy::default();
    if let Some(v) = value.get("max_attempts") {
        retry.max_attempts = v
            .as_usize()
            .ok_or_else(|| schema("retry.max_attempts", "expected an integer"))?;
    }
    if let Some(v) = value.get("backoff") {
        retry.backoff = duration_from_json_value(v, "retry.backoff")?;
    }
    if let Some(v) = value.get("attempt_wall_time") {
        retry.attempt_wall_time = match v {
            JsonValue::Null => None,
            obj => Some(duration_from_json_value(obj, "retry.attempt_wall_time")?),
        };
    }
    if let Some(v) = value.get("degraded_tolerance") {
        retry.degraded_tolerance = v
            .as_f64()
            .ok_or_else(|| schema("retry.degraded_tolerance", "expected a number"))?;
    }
    Ok(retry)
}

/// A deterministic demo campaign of `count` items: cheap small-state
/// hot-spot/corridor/hex-torus scenarios cycling through three
/// template shapes, solved with quick tolerances. Used by the
/// `campaign-run --emit-demo` flag, the bench report's `campaign`
/// section, and the CI chaos job — all of which need a reproducible
/// workload with shape reuse and topology diversity but no appetite
/// for wall time.
#[allow(
    clippy::expect_used,
    reason = "the demo's fixed cells, graphs and scenarios are valid by construction, as its tests check"
)]
pub fn demo_spec(count: usize) -> CampaignSpec {
    let base = |buffer: usize, rate: f64| -> CellConfig {
        CellConfig::builder()
            .total_channels(4)
            .reserved_pdchs(1)
            .buffer_capacity(buffer)
            .traffic_model(TrafficModel::Model3)
            .max_gprs_sessions(2)
            .call_arrival_rate(rate)
            .build()
            .expect("demo cell is valid")
    };
    let items = (0..count)
        .map(|i| {
            // Three buffer depths → three template shapes shared
            // across the campaign; load ramps so items differ.
            let buffer = 5 + i % 3;
            let rate = 0.2 + 0.05 * (i % 7) as f64;
            let scenario = match i % 5 {
                // Mostly ring7 hot spots...
                0..=2 => gprs_core::Scenario::hot_spot(base(buffer, rate), rate * 2.0)
                    .expect("demo hot spot is valid"),
                // ...with corridor and hex-torus topologies mixed in.
                3 => {
                    let graph = gprs_core::CellGraph::corridor(5).expect("corridor(5)");
                    gprs_core::Scenario::from_graph(
                        "demo-corridor",
                        graph,
                        vec![base(buffer, rate); 5],
                    )
                    .expect("demo corridor is valid")
                }
                _ => {
                    let graph = gprs_core::CellGraph::hex_torus(3, 3).expect("hex_torus(3,3)");
                    gprs_core::Scenario::from_graph(
                        "demo-torus",
                        graph,
                        vec![base(buffer, rate); 9],
                    )
                    .expect("demo torus is valid")
                }
            };
            CampaignItem {
                id: format!("demo-{i:03}"),
                scenario: scenario.named(format!("demo-{i:03}")),
            }
        })
        .collect();
    CampaignSpec {
        name: "demo".into(),
        options: ClusterSolveOptions::quick(),
        retry: RetryPolicy::default(),
        items,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn demo_campaign_round_trips_to_equality() {
        let spec = demo_spec(11);
        spec.validate().unwrap();
        let back = CampaignSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn spec_validation_rejects_broken_campaigns() {
        let mut spec = demo_spec(3);
        spec.items[2].id = spec.items[0].id.clone();
        assert!(matches!(spec.validate(), Err(CampaignError::Spec { .. })));
        let mut spec = demo_spec(2);
        spec.items[0].id.clear();
        assert!(spec.validate().is_err());
        let mut spec = demo_spec(1);
        spec.retry.max_attempts = 0;
        assert!(spec.validate().is_err());
        let mut spec = demo_spec(1);
        spec.items.clear();
        assert!(spec.validate().is_err());
    }

    #[test]
    fn campaign_documents_reject_wrong_format_and_truncation() {
        let text = demo_spec(2).to_json();
        let wrong = text.replacen("gprs-campaign/v1", "gprs-campaign/v0", 1);
        assert!(CampaignSpec::from_json(&wrong).is_err());
        assert!(CampaignSpec::from_json(&text[..text.len() - 10]).is_err());
        // Defaulted sections: a minimal document parses.
        let minimal = format!(
            "{{\"format\":\"{CAMPAIGN_FORMAT}\",\"name\":\"m\",\"items\":[{{\"id\":\"a\",\"scenario\":{}}}]}}",
            gprs_core::codec::scenario_to_json(&demo_spec(1).items[0].scenario)
        );
        let spec = CampaignSpec::from_json(&minimal).unwrap();
        assert_eq!(spec.retry, RetryPolicy::default());
        assert_eq!(spec.options.max_iterations, 500);
    }

    #[test]
    fn retry_policy_round_trips() {
        let retry = RetryPolicy {
            max_attempts: 5,
            backoff: Duration::from_millis(125),
            attempt_wall_time: Some(Duration::new(2, 500)),
            degraded_tolerance: 1e-3,
        };
        let value = retry_to_json_value(&retry);
        let back = retry_from_json_value(&parse_json(&value.to_json_string()).unwrap()).unwrap();
        assert_eq!(back, retry);
    }
}
