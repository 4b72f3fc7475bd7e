//! Machine facts and the kernel probes of the traced pass.
//!
//! The blocked MBD kernel runs inside `GeneratorTemplate` solves, out of
//! reach of spans placed in the benchmark's code. The probes call its
//! public entry points directly at the workload's chain shape:
//! `BlockedMbd::capture`, `BlockedMbd::residual` and a fixed number of
//! `solve_mbd_projected_blocked_ws` sweeps, and compare the kernel's
//! computed memory traffic with a streaming copy measured in the same
//! run.

use gprs_core::GprsModel;
use gprs_ctmc::mbd::ModulatedBirthDeath;
use gprs_ctmc::SolveWorkspace;
use gprs_ctmc::{solve_mbd_projected_blocked_ws, BlockedMbd, CtmcError, SolveOptions};
use std::time::{Duration, Instant};

/// Kernel sweeps timed per probe repetition.
const PROBE_SWEEPS: usize = 4;
/// Repetitions of each probe; the median is reported.
const PROBE_REPS: usize = 3;

/// Size of the last-level cache in bytes, from sysfs (0 when unknown).
pub fn llc_bytes() -> u64 {
    let mut best = (0u32, 0u64);
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let read = |file: &str| std::fs::read_to_string(format!("{dir}/{file}")).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let level: u32 = level.trim().parse().unwrap_or(0);
        let size = size.trim();
        let bytes = match size.strip_suffix('K') {
            Some(k) => k.parse::<u64>().unwrap_or(0) << 10,
            None => match size.strip_suffix('M') {
                Some(m) => m.parse::<u64>().unwrap_or(0) << 20,
                None => size.parse().unwrap_or(0),
            },
        };
        if level > best.0 {
            best = (level, bytes);
        }
    }
    best.1
}

/// Total RAM in bytes, from `/proc/meminfo` (0 when unknown).
pub fn ram_bytes() -> u64 {
    proc_kib("/proc/meminfo", "MemTotal:") << 10
}

/// Peak resident set size of this process in bytes (`VmHWM`).
pub fn peak_rss_bytes() -> u64 {
    proc_kib("/proc/self/status", "VmHWM:") << 10
}

fn proc_kib(path: &str, key: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|line| line.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next()?.parse().ok())
        })
        .unwrap_or(0)
}

/// Time a run spends timing its set-up: half before the first timed
/// call, half shared out between the gaps after the timed calls.
pub const SETUP_BUDGET: Duration = Duration::from_millis(1200);
/// The least time one set-up timing window spans.
const SETUP_WINDOW: Duration = Duration::from_millis(5);

pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        0.5 * (values[mid - 1] + values[mid])
    }
}

/// The nearest-rank percentile `q` (0..1) of `values`.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Times a set-up in short windows at several moments of a run and
/// keeps the fastest window's per-call time.
///
/// On a shared host, single-thread speed halves for seconds at a time
/// while neighbours load the cores. A set-up of a few microseconds,
/// timed in one burst, follows those swings from run to run. The
/// fastest of many short windows spread over the run only does when
/// the host stays slow for the whole run.
pub struct SetupTimer {
    best_s: f64,
}

impl SetupTimer {
    pub fn new() -> Self {
        SetupTimer {
            best_s: f64::INFINITY,
        }
    }

    /// Repeats `f` in windows of at least [`SETUP_WINDOW`] until `span`
    /// has passed (one window at least); returns the last value built.
    pub fn sample<T>(
        &mut self,
        span: Duration,
        mut f: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let start = Instant::now();
        loop {
            let t0 = Instant::now();
            let mut calls = 0u32;
            let last = loop {
                let value = std::hint::black_box(f()?);
                calls += 1;
                if t0.elapsed() >= SETUP_WINDOW {
                    break value;
                }
            };
            let per_call = t0.elapsed().as_secs_f64() / f64::from(calls);
            self.best_s = self.best_s.min(per_call);
            if start.elapsed() >= span {
                return Ok(last);
            }
        }
    }

    /// The fastest per-call set-up time seen, in seconds.
    pub fn best_s(&self) -> f64 {
        self.best_s
    }
}

fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&mut samples)
}

/// Kernel probe results at one chain shape.
pub struct KernelProbe {
    pub capture_s: f64,
    pub residual_s: f64,
    pub sweep_ns_per_row: f64,
    pub sweep_gbps_computed: f64,
    pub working_set_bytes: f64,
    /// `BlockedMbd::residual` of the probe vector.
    pub residual: f64,
}

/// Times capture, residual and kernel sweeps of `model`, warm-started
/// from `stationary` (a converged solution of `model`).
pub fn kernel_probe(model: &GprsModel, stationary: &[f64]) -> Result<KernelProbe, String> {
    let mut blocked = BlockedMbd::new();
    let capture_s = time_median(PROBE_REPS, || blocked.capture(model));
    let (phases, levels) = (blocked.num_phases(), blocked.num_levels());
    let rows = phases * levels;
    if stationary.len() != rows {
        return Err(format!(
            "probe vector has {} entries, chain {rows}",
            stationary.len()
        ));
    }
    let mut scratch = Vec::new();
    let mut residual = f64::NAN;
    let residual_s = time_median(PROBE_REPS, || {
        residual = std::hint::black_box(blocked.residual(stationary, &mut scratch));
    });

    let mut in_edges = 0usize;
    for p in 0..phases {
        blocked.for_each_phase_incoming(p, &mut |_, _| in_edges += 1);
    }
    let marginal = model.phase_marginal();
    // An unreachable tolerance runs exactly PROBE_SWEEPS sweeps with a
    // residual check after every fourth.
    let opts = SolveOptions::quick()
        .with_tolerance(1e-300)
        .with_max_sweeps(PROBE_SWEEPS)
        .with_check_every(4);
    let residual_checks = PROBE_SWEEPS / 4;
    let mut ws = SolveWorkspace::new();
    let mut sweeps_run = 0usize;
    let solve_s = time_median(PROBE_REPS, || {
        let result =
            solve_mbd_projected_blocked_ws(&blocked, &marginal, Some(stationary), &opts, &mut ws);
        sweeps_run = match result {
            Ok(stats) => stats.sweeps,
            Err(CtmcError::NotConverged { iterations, .. })
            | Err(CtmcError::Diverged { iterations, .. }) => iterations,
            Err(_) => 0,
        };
    });
    if sweeps_run != PROBE_SWEEPS {
        return Err(format!(
            "kernel probe ran {sweeps_run} sweeps, expected {PROBE_SWEEPS}"
        ));
    }
    let sweep_s = (solve_s - residual_checks as f64 * residual_s).max(0.0) / PROBE_SWEEPS as f64;
    // Computed bytes of one sweep, every access counted as memory
    // traffic: the incoming phase gather reads a source column per
    // edge; each row reads its birth and death rate and writes the
    // iterate; the marginal projection reads and rewrites the iterate.
    let bytes_per_sweep = (8 * in_edges * levels + (16 + 8 + 16) * rows) as f64;
    let working_set_bytes = (24 * rows + 12 * in_edges + 8 * phases) as f64;
    Ok(KernelProbe {
        capture_s,
        residual_s,
        sweep_ns_per_row: sweep_s * 1e9 / rows as f64,
        sweep_gbps_computed: bytes_per_sweep / sweep_s / 1e9,
        working_set_bytes,
        residual,
    })
}

/// Single-thread streaming copy bandwidth (read + write bytes per
/// second, in GB/s) over two arrays whose combined size is four times
/// the last-level cache.
pub fn stream_copy_gbps(llc: u64) -> f64 {
    let bytes_each = (2 * llc.max(64 << 20)) as usize;
    let len = bytes_each / 8;
    let src = vec![1.0f64; len];
    let mut dst = vec![0.0f64; len];
    // Untimed first copy: faults the destination pages in.
    dst.copy_from_slice(&src);
    let secs = time_median(PROBE_REPS, || {
        dst.copy_from_slice(std::hint::black_box(&src));
        std::hint::black_box(&mut dst);
    });
    (2 * bytes_each) as f64 / secs / 1e9
}
