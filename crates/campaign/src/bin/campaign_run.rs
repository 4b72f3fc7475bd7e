//! `campaign-run`: the batch campaign CLI.
//!
//! ```text
//! campaign-run <spec.json> [--journal PATH] [--out PATH] [--threads N]
//!              [--batch-size N] [--crash-after-batches N]
//! campaign-run --emit-demo N
//! ```
//!
//! Run mode solves every item of the campaign file, journaling to
//! `--journal` (resumable: re-running the same command after a crash
//! reuses journaled items verbatim). It writes the report JSON to
//! stdout or `--out`, and a one-line summary to stderr that names the
//! sweep ordering the items ran under. Item-level failures are
//! *reported*, not fatal: the exit code is `0` as long as the campaign
//! itself ran, `1` for spec/IO/usage errors, and `2` when any item
//! ended [`Failed`](gprs_campaign::ItemStatus::Failed) — scripts can
//! distinguish "campaign broken" from "some items unsolvable".
//!
//! `--emit-demo N` prints the deterministic N-item demo campaign used
//! by the CI chaos job; `--crash-after-batches N` aborts the process
//! right after the Nth journaled batch (the kill half of
//! kill-and-resume).

use gprs_campaign::{demo_spec, run_campaign, CampaignSpec, RunnerConfig};
use gprs_core::codec::{cluster_options_to_json_value, JsonValue};
use std::process::ExitCode;

const USAGE: &str = "usage: campaign-run <spec.json> [--journal PATH] [--out PATH] \
[--threads N] [--batch-size N] [--crash-after-batches N]\n\
       campaign-run --emit-demo N";

fn parse_count(flag: &str, value: Option<String>) -> Result<usize, String> {
    value
        .ok_or_else(|| format!("{flag} needs a value"))?
        .parse::<usize>()
        .map_err(|e| format!("{flag}: {e}"))
}

fn run() -> Result<ExitCode, String> {
    let mut args = std::env::args().skip(1);
    let mut spec_path: Option<String> = None;
    let mut journal: Option<String> = None;
    let mut out: Option<String> = None;
    let mut cfg = RunnerConfig::default();
    let mut emit_demo: Option<usize> = None;

    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--emit-demo" => emit_demo = Some(parse_count("--emit-demo", args.next())?),
            "--journal" => journal = Some(args.next().ok_or("--journal needs a path")?),
            "--out" => out = Some(args.next().ok_or("--out needs a path")?),
            "--threads" => cfg.threads = parse_count("--threads", args.next())?,
            "--batch-size" => cfg.batch_size = parse_count("--batch-size", args.next())?,
            "--crash-after-batches" => {
                cfg.crash_after_batches = Some(parse_count("--crash-after-batches", args.next())?)
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return Ok(ExitCode::SUCCESS);
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            path if spec_path.is_none() => spec_path = Some(path.to_string()),
            extra => return Err(format!("unexpected argument {extra}")),
        }
    }

    if let Some(count) = emit_demo {
        println!("{}", demo_spec(count.max(1)).to_json());
        return Ok(ExitCode::SUCCESS);
    }

    let spec_path = spec_path.ok_or(USAGE)?;
    let text =
        std::fs::read_to_string(&spec_path).map_err(|e| format!("reading {spec_path}: {e}"))?;
    let spec = CampaignSpec::from_json(&text).map_err(|e| e.to_string())?;
    let report = run_campaign(&spec, journal.as_deref().map(std::path::Path::new), &cfg)
        .map_err(|e| e.to_string())?;

    let json = report.to_json_value().to_json_string();
    match &out {
        Some(path) => {
            std::fs::write(path, json.as_bytes()).map_err(|e| format!("writing {path}: {e}"))?
        }
        None => println!("{json}"),
    }
    // The ordering as a spec spells it, so a reader knows what to write
    // to change it.
    let options = cluster_options_to_json_value(&spec.options);
    let ordering = options.get("ordering").and_then(JsonValue::as_str);
    eprintln!(
        "campaign `{}` ({} ordering): {} items — {} solved, {} degraded, {} failed, \
         {} retries, {} journaled reused, {} dropped lines, {:.2} items/s",
        report.name,
        ordering.unwrap_or("unknown"),
        report.results.len(),
        report.solved(),
        report.degraded(),
        report.failed(),
        report.retries,
        report.reused_from_journal,
        report.dropped_journal_lines,
        report.items_per_sec(),
    );
    Ok(if report.failed() > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(message) => {
            eprintln!("campaign-run: {message}");
            ExitCode::FAILURE
        }
    }
}
