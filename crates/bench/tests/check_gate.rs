//! The `bench-report --check` perf gate, end to end through the real
//! binary: a baseline it cannot use exits 2 before anything is timed,
//! and a floor the fresh run cannot reach exits 1 naming the sweep that
//! fell short.

use std::process::Output;

/// Runs `bench-report --quick --check <baseline> <report>` in a fresh
/// temp dir; `baseline` is written there first unless it is `None`.
/// Returns the process output and whether a report was written.
fn run_gate(tag: &str, baseline: Option<&str>) -> (Output, bool) {
    let dir = std::env::temp_dir().join(format!("gprs-bench-gate-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let baseline_path = dir.join("baseline.json");
    let report_path = dir.join("report.json");
    if let Some(text) = baseline {
        std::fs::write(&baseline_path, text).expect("write baseline");
    }
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_bench-report"))
        .arg("--quick")
        .arg("--check")
        .arg(&baseline_path)
        .arg(&report_path)
        .output()
        .expect("run bench-report");
    let written = report_path.exists();
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
    (out, written)
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn unreadable_baseline_exits_2_before_timing() {
    let (out, written) = run_gate("missing", None);
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("cannot read baseline"));
    assert!(!written, "no report may be written");
}

#[test]
fn baseline_without_refill_key_exits_2_before_timing() {
    let (out, written) = run_gate(
        "no-refill",
        Some(r#"{"graph_sweep":{"cell_solves_per_sec":1.0}}"#),
    );
    assert_eq!(out.status.code(), Some(2), "{}", stderr(&out));
    assert!(stderr(&out).contains("no sweep.refill_points_per_sec"));
    assert!(!written, "no report may be written");
}

#[test]
fn unreachable_refill_floor_exits_1() {
    let (out, written) = run_gate(
        "refill",
        Some(r#"{"sweep":{"refill_points_per_sec":1e12}}"#),
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    assert!(stderr(&out).contains("PERF REGRESSION: refill"));
    assert!(written, "the report is written before the gate");
}

#[test]
fn unreachable_graph_sweep_floor_exits_1() {
    let (out, _) = run_gate(
        "graph",
        Some(
            r#"{"sweep":{"refill_points_per_sec":1e-6},
                "graph_sweep":{"cell_solves_per_sec":1e12}}"#,
        ),
    );
    assert_eq!(out.status.code(), Some(1), "{}", stderr(&out));
    let err = stderr(&out);
    assert!(err.contains("perf check OK: refill"), "{err}");
    assert!(err.contains("PERF REGRESSION: graph sweep"), "{err}");
}
