//! The repository benchmark: two workloads of the GPRS model
//! pipeline, timed end to end (`--trace 0`) or replayed single-threaded
//! with spans around each layer's public calls (`--trace 1`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig10_m150|metro_campaign \
//!     --seed N --seconds S --trace 0|1
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --write-reference
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`; the line before it
//! records the run environment. See `perfbench/README.md` for the
//! metric → layer → workload map.

mod campaign;
mod check;
mod probe;
mod sweeps;
mod trace;

use check::Ledger;
use gprs_core::codec::{parse_json, JsonValue};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use trace::Tracer;

/// The benchmark's definition. Its `end_to_end` and `per_layer` lists
/// name the metrics, and their units, that the two passes report.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// `(name, unit)` of every metric in the `section` list of
/// `BENCHMARK.json`.
fn declared_metrics(section: &str) -> Result<Vec<(String, String)>, String> {
    let doc = parse_json(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let malformed = || format!("BENCHMARK.json: malformed {section} list");
    doc.get(section)
        .and_then(JsonValue::as_array)
        .ok_or_else(malformed)?
        .iter()
        .map(|metric| {
            let field = |key| metric.get(key).and_then(JsonValue::as_str);
            match (field("name"), field("unit")) {
                (Some(name), Some(unit)) => Ok((name.to_string(), unit.to_string())),
                _ => Err(malformed()),
            }
        })
        .collect()
}

/// Span names of the traced replays and the self-time metric each
/// feeds. The replay root's own self time is the unattributed rest.
const SPAN_LAYERS: [(&str, &str); 12] = [
    ("replay", "trace.unattributed_ms"),
    ("sweep", "sweep.self_ms"),
    ("template.setup", "template.setup_ms"),
    ("generator.model_for", "generator.model_for_ms"),
    ("template.solve_cold", "template.solve_cold_ms"),
    ("template.solve_warm", "template.solve_warm_ms"),
    ("measures", "measures.ms"),
    ("codec.parse", "codec.parse_ms"),
    ("scenario.to_cluster", "scenario.to_cluster_ms"),
    ("cluster.solve", "cluster.solve_ms_total"),
    ("journal.open", "journal.ms_total"),
    ("journal.append", "journal.ms_total"),
];

/// Worker threads of the end-to-end passes (sweep workers, campaign
/// item workers).
pub const WORKERS: usize = 2;

/// Environment knobs the library reads, pinned for every run; the
/// thread count matches [`WORKERS`].
const PINNED_ENV: [(&str, &str); 3] = [
    ("RAYON_NUM_THREADS", "2"),
    ("GPRS_SHARDS", "1"),
    ("GPRS_BLOCKED_KERNEL", "1"),
];

/// Named metric values of one run.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }
}

pub fn set_kernel_metrics(metrics: &mut Metrics, kernel: &probe::KernelProbe) {
    let llc = probe::llc_bytes();
    let stream = probe::stream_copy_gbps(llc);
    metrics.set("ctmc.capture_ms", kernel.capture_s * 1e3);
    metrics.set("ctmc.residual_ms", kernel.residual_s * 1e3);
    metrics.set("ctmc.sweep_ns_per_row", kernel.sweep_ns_per_row);
    metrics.set("ctmc.sweep_gbps_computed", kernel.sweep_gbps_computed);
    metrics.set("ctmc.stream_copy_gbps", stream);
    metrics.set("ctmc.bw_frac", kernel.sweep_gbps_computed / stream);
    metrics.set("ctmc.working_set_mb", kernel.working_set_bytes / 1e6);
    metrics.set("ctmc.llc_mb", llc as f64 / 1e6);
}

/// Scratch directory for journals, traces and reports.
pub fn work_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(".work")
}

#[derive(Clone, Copy)]
enum Workload {
    Fig10,
    Metro,
}

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        match name {
            sweeps::WORKLOAD => Some(Workload::Fig10),
            "metro_campaign" => Some(Workload::Metro),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Fig10 => sweeps::WORKLOAD,
            Workload::Metro => "metro_campaign",
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: gprs-perfbench --workload fig10_m150|metro_campaign \
                     --seed N --seconds S --trace 0|1 | --write-reference";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Args>, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        if flag == "--write-reference" {
            return Ok(None);
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// Pins the library's environment knobs and returns what the process
/// inherited. A debug build or an inherited non-default kernel toggle
/// is refused, so reports from different settings are never compared.
fn pin_environment() -> Result<Vec<(&'static str, Option<String>)>, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to benchmark a debug build; build with --release".into());
    }
    let inherited: Vec<_> = PINNED_ENV
        .iter()
        .map(|&(key, _)| (key, std::env::var(key).ok()))
        .collect();
    for (key, value) in &inherited {
        if *key == "GPRS_BLOCKED_KERNEL" && value.is_some() {
            // Probe the toggle exactly as the library reads it.
            if !gprs_ctmc::blocked_kernel_enabled() {
                return Err(format!(
                    "refusing a non-default kernel toggle GPRS_BLOCKED_KERNEL={}",
                    value.as_deref().unwrap_or_default()
                ));
            }
        }
    }
    for (key, value) in PINNED_ENV {
        // Single-threaded here: no worker has started yet.
        std::env::set_var(key, value);
    }
    Ok(inherited)
}

/// The commit of the source tree, when it is a git checkout. The search
/// for a repository stops at the tree's root, so a tree that is not a
/// checkout reads `unknown` even inside another repository.
fn git_commit() -> String {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let ceiling = root.join("..");
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .env("GIT_CEILING_DIRECTORIES", &ceiling)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".into(), |commit| commit.trim().to_string())
}

fn environment_record(args: &Args, inherited: &[(&str, Option<String>)]) -> JsonValue {
    let num = |x: f64| JsonValue::Num(x);
    let text = |s: &str| JsonValue::Str(s.to_string());
    let knobs = inherited
        .iter()
        .map(|(key, value)| {
            (
                key.to_string(),
                JsonValue::Object(vec![
                    (
                        "inherited".into(),
                        value.as_deref().map_or(JsonValue::Null, text),
                    ),
                    (
                        "effective".into(),
                        std::env::var(key).map_or(JsonValue::Null, |v| text(&v)),
                    ),
                ]),
            )
        })
        .collect();
    JsonValue::Object(vec![
        ("workload".into(), text(args.workload.name())),
        ("seed".into(), num(args.seed as f64)),
        ("seconds".into(), num(args.seconds)),
        ("trace".into(), JsonValue::Bool(args.trace)),
        ("nproc".into(), num(nproc() as f64)),
        ("llc_bytes".into(), num(probe::llc_bytes() as f64)),
        ("ram_bytes".into(), num(probe::ram_bytes() as f64)),
        (
            "build_profile".into(),
            text(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("git_commit".into(), text(&git_commit())),
        ("workers".into(), num(WORKERS as f64)),
        (
            "blocked_kernel_enabled".into(),
            JsonValue::Bool(gprs_ctmc::blocked_kernel_enabled()),
        ),
        ("env".into(), JsonValue::Object(knobs)),
    ])
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs the selected pass; returns the `(name, value, unit)` of every
/// metric its `BENCHMARK.json` list declares.
fn run(args: &Args, ledger: &mut Ledger) -> Result<Vec<(String, f64, String)>, String> {
    let mut metrics = Metrics::default();
    let section = if args.trace {
        let mut tracer = Tracer::new();
        match args.workload {
            Workload::Fig10 => sweeps::run_traced(&mut tracer, &mut metrics, ledger)?,
            Workload::Metro => campaign::run_traced(args.seed, &mut tracer, &mut metrics, ledger)?,
        }
        for (span, ns) in tracer.self_ns_by_layer() {
            let (_, metric) = SPAN_LAYERS
                .iter()
                .find(|(name, _)| *name == span)
                .ok_or_else(|| format!("span {span} has no layer metric"))?;
            metrics.add(metric, ns as f64 * 1e-6);
        }
        metrics.set(
            "trace.wall_ms",
            tracer.spans()[0].duration_ns() as f64 * 1e-6,
        );
        metrics.set("trace.spans", tracer.spans().len() as f64);
        metrics.set("failed_frac", ledger.failed_frac());
        let path = work_dir().join(format!(
            "trace-{}-s{}.jsonl",
            args.workload.name(),
            args.seed
        ));
        std::fs::write(&path, tracer.to_jsonl())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        "per_layer"
    } else {
        match args.workload {
            Workload::Fig10 => sweeps::run_e2e(args.seconds, &mut metrics, ledger)?,
            Workload::Metro => campaign::run_e2e(args.seed, args.seconds, &mut metrics, ledger)?,
        }
        metrics.set("peak_rss_mb", probe::peak_rss_bytes() as f64 / 1e6);
        metrics.set("ok_frac", 1.0 - ledger.failed_frac());
        "end_to_end"
    };
    let declared = declared_metrics(section)?;
    if let Some(name) = metrics
        .0
        .keys()
        .find(|name| !declared.iter().any(|(d, _)| d == *name))
    {
        return Err(format!("metric {name} is not in BENCHMARK.json {section}"));
    }
    declared
        .into_iter()
        .map(|(name, unit)| {
            // Layers a workload does not exercise read 0; an end-to-end
            // metric must always be measured.
            match metrics.0.get(name.as_str()) {
                Some(&value) => Ok((name, value, unit)),
                None if args.trace => Ok((name, 0.0, unit)),
                None => Err(format!("metric {name} was not measured")),
            }
        })
        .collect()
}

fn write_references() -> Result<(), String> {
    let (tolerance, entries) = sweeps::reference_entries()?;
    let path = check::write_reference(sweeps::WORKLOAD, tolerance, &entries)?;
    eprintln!("wrote {}", path.display());
    let (tolerance, entries) = campaign::reference_entries()?;
    let path = check::write_reference("metro_campaign", tolerance, &entries)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn main() {
    let inherited = match pin_environment() {
        Ok(inherited) => inherited,
        Err(e) => {
            eprintln!("gprs-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Some(args)) => args,
        Ok(None) => {
            if let Err(e) = write_references() {
                eprintln!("gprs-perfbench: {e}");
                std::process::exit(1);
            }
            return;
        }
        Err(e) => {
            eprintln!("gprs-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(work_dir()) {
        eprintln!("gprs-perfbench: creating {}: {e}", work_dir().display());
        std::process::exit(1);
    }
    let env = environment_record(&args, &inherited);
    let mut ledger = Ledger::default();
    let metrics = match run(&args, &mut ledger) {
        Ok(metrics) => metrics,
        Err(e) => {
            eprintln!("gprs-perfbench: {e}");
            std::process::exit(1);
        }
    };
    let correct = ledger.failed == 0 && ledger.attempted > 0;
    let result = JsonValue::Object(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::Num(ledger.attempted as f64)),
        ("failed".into(), JsonValue::Num(ledger.failed as f64)),
        (
            "metrics".into(),
            JsonValue::Object(
                metrics
                    .iter()
                    .map(|(name, value, unit)| {
                        (
                            name.clone(),
                            JsonValue::Object(vec![
                                ("value".into(), JsonValue::Num(*value)),
                                ("unit".into(), JsonValue::Str(unit.clone())),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ]);
    let report = JsonValue::Object(vec![
        ("env".into(), env.clone()),
        ("result".into(), result.clone()),
    ]);
    let path = work_dir().join(format!(
        "report-{}-s{}-t{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, report.to_json_string()) {
        eprintln!("gprs-perfbench: writing {}: {e}", path.display());
    }
    println!(
        "{}",
        JsonValue::Object(vec![("env".into(), env)]).to_json_string()
    );
    println!("{}", result.to_json_string());
    if !correct {
        std::process::exit(1);
    }
}
