//! End-to-end tests for the `run_all` and `check` binaries: flag
//! handling, registry coverage, scenario loading, the `--jobs`
//! determinism contract, flight-recorder trace export, and the
//! perf-regression gate.
//!
//! These spawn the compiled binaries (via `CARGO_BIN_EXE_*`) so they
//! exercise argument parsing and exit codes exactly as a user would.

use ic_bench::registry::registry;
use ic_scenario::Scenario;
use ic_sim::json::{self, Json};
use std::path::PathBuf;
use std::process::Command;

fn run_all(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .output()
        .expect("run_all binary spawns")
}

fn stdout_with_env(args: &[&str], envs: &[(&str, &str)]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_run_all"))
        .args(args)
        .envs(envs.iter().map(|&(k, v)| (k, v)))
        .output()
        .expect("run_all binary spawns");
    assert!(
        out.status.success(),
        "run_all {:?} with {:?} failed: {}",
        args,
        envs,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

fn stdout_of(args: &[&str]) -> String {
    let out = run_all(args);
    assert!(
        out.status.success(),
        "run_all {:?} failed: {}",
        args,
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// Strips the one nondeterministic field from a JSONL report.
fn normalize_wall_ms(jsonl: &str) -> String {
    jsonl
        .lines()
        .map(|line| {
            let mut s = line.to_string();
            if let Some(start) = s.find("\"wall_ms\":") {
                let tail = start + "\"wall_ms\":".len();
                let end = s[tail..]
                    .find([',', '}'])
                    .map(|i| tail + i)
                    .unwrap_or(s.len());
                s.replace_range(tail..end, "X");
            }
            s + "\n"
        })
        .collect()
}

#[test]
fn list_prints_every_registered_experiment() {
    let listing = stdout_of(&["--list"]);
    let listed: Vec<&str> = listing
        .lines()
        .map(|l| l.split_whitespace().next().expect("id column"))
        .collect();
    let expected: Vec<&str> = registry().iter().map(|e| e.id()).collect();
    assert_eq!(listed, expected, "--list must mirror registration order");
}

#[test]
fn only_filters_in_registration_order() {
    // Request out of registration order; output must come back in it.
    let out = stdout_of(&["--quick", "--json", "--only", "fig4,table2"]);
    let ids: Vec<String> = out
        .lines()
        .map(|l| {
            let start = l.find("\"id\":\"").expect("id field") + 6;
            let end = l[start..].find('"').expect("closing quote") + start;
            l[start..end].to_string()
        })
        .collect();
    assert_eq!(ids, ["table2", "fig4"]);
}

#[test]
fn unknown_id_fails_with_diagnostic() {
    let out = run_all(&["--only", "nope"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("unknown experiment id") && stderr.contains("nope"),
        "stderr was: {stderr}"
    );
}

#[test]
fn unreadable_scenario_fails_with_diagnostic() {
    // Nesting this deep once overflowed the parser's stack and aborted
    // the process; it must be an ordinary malformed-scenario error.
    let dir = temp_dir("bad-scenario");
    let arrays = dir.join("arrays.json");
    std::fs::write(&arrays, "[".repeat(1_000_000)).expect("write scenario");
    let objects = dir.join("objects.json");
    std::fs::write(&objects, "{\"a\":".repeat(100_000)).expect("write scenario");
    for (path, diagnostic) in [
        (
            PathBuf::from("/nonexistent/scenario.json"),
            "cannot read scenario",
        ),
        (arrays, "nesting deeper than"),
        (objects, "nesting deeper than"),
    ] {
        let out = run_all(&["--scenario", path.to_str().expect("utf-8 path")]);
        assert_eq!(out.status.code(), Some(2), "{path:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(diagnostic),
            "{path:?}: stderr was: {stderr}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn paper_scenario_file_reproduces_the_default_run() {
    let dir = std::env::temp_dir().join(format!("ic-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let path = dir.join("paper.json");
    std::fs::write(&path, Scenario::paper().to_json()).expect("write scenario");

    let from_file = stdout_of(&["--quick", "--scenario", path.to_str().expect("utf-8 path")]);
    let default = stdout_of(&["--quick"]);
    assert_eq!(from_file, default, "paper scenario file must be a no-op");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn intra_experiment_worker_count_does_not_change_the_report() {
    // The full determinism contract of the ic-par conversion: the outer
    // experiment fan-out (--jobs) and the inner sweep scatter-gather
    // (IC_PAR_WORKERS) both vary, and the records stay byte-identical
    // modulo wall_ms. Restricted to the two experiments that sweep
    // policies through run_batch, to keep the differential fast.
    let only = "fig8,table11";
    let serial = stdout_with_env(
        &["--quick", "--json", "--only", only, "--jobs", "1"],
        &[("IC_PAR_WORKERS", "1")],
    );
    for (jobs, workers) in [("1", "4"), ("4", "2"), ("3", "5")] {
        let got = stdout_with_env(
            &["--quick", "--json", "--only", only, "--jobs", jobs],
            &[("IC_PAR_WORKERS", workers)],
        );
        assert_eq!(
            normalize_wall_ms(&serial),
            normalize_wall_ms(&got),
            "--jobs {jobs} IC_PAR_WORKERS={workers} must match the serial report"
        );
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ic-cli-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

/// Parses a Chrome Trace Event file and checks the structural contract
/// Perfetto / chrome://tracing rely on, returning the event count.
fn assert_valid_chrome_trace(text: &str) -> usize {
    let doc = json::parse(text).expect("trace file is valid JSON");
    assert_eq!(
        doc.get("displayTimeUnit"),
        Some(&Json::Str("ms".to_string()))
    );
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty(), "trace must contain events");
    for event in events {
        let ph = match event.get("ph") {
            Some(Json::Str(ph)) => ph.as_str(),
            other => panic!("event without ph: {other:?}"),
        };
        assert!(matches!(event.get("name"), Some(Json::Str(_))));
        assert!(matches!(event.get("pid"), Some(Json::Num(_))));
        assert!(matches!(event.get("tid"), Some(Json::Num(_))));
        match ph {
            "M" => {}
            "X" => {
                assert!(matches!(event.get("ts"), Some(Json::Num(_))));
                assert!(matches!(event.get("dur"), Some(Json::Num(_))));
            }
            "i" => {
                assert!(matches!(event.get("ts"), Some(Json::Num(_))));
                assert_eq!(event.get("s"), Some(&Json::Str("t".to_string())));
            }
            other => panic!("unexpected event phase {other:?}"),
        }
    }
    events.len()
}

#[test]
fn chrome_trace_is_valid_and_byte_identical_across_worker_counts() {
    // The acceptance contract: `--only table11 --trace-out` emits valid
    // Chrome Trace Event JSON whose bytes do not depend on the worker
    // count — neither the in-experiment pool (IC_PAR_WORKERS, which
    // `ParPool::from_env` reads once per process, hence the spawned
    // binaries) nor the experiment fan-out (--jobs).
    let dir = temp_dir("trace");
    let mut traces = Vec::new();
    for (workers, jobs) in [("1", "1"), ("2", "2"), ("7", "1")] {
        let path = dir.join(format!("table11-w{workers}-j{jobs}.json"));
        let path = path.to_str().expect("utf-8 path");
        stdout_with_env(
            &[
                "--quick",
                "--json",
                "--only",
                "table11",
                "--jobs",
                jobs,
                "--trace-out",
                path,
                "--trace-format",
                "chrome",
            ],
            &[("IC_PAR_WORKERS", workers)],
        );
        traces.push(std::fs::read_to_string(path).expect("trace file written"));
    }
    let events = assert_valid_chrome_trace(&traces[0]);
    assert!(events > 100, "table11 trace should be dense, got {events}");
    assert_eq!(
        traces[0], traces[1],
        "IC_PAR_WORKERS=1/--jobs 1 vs IC_PAR_WORKERS=2/--jobs 2"
    );
    assert_eq!(
        traces[0], traces[2],
        "IC_PAR_WORKERS=1/--jobs 1 vs IC_PAR_WORKERS=7/--jobs 1"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_out_does_not_change_stdout() {
    let dir = temp_dir("trace-stdout");
    let path = dir.join("fig8.json");
    let path = path.to_str().expect("utf-8 path");
    let untraced = stdout_of(&["--quick", "--json", "--only", "fig8"]);
    let traced = stdout_of(&["--quick", "--json", "--only", "fig8", "--trace-out", path]);
    assert_eq!(
        normalize_wall_ms(&untraced),
        normalize_wall_ms(&traced),
        "tracing must not change the records"
    );
    let untraced_text = stdout_of(&["--quick", "--only", "fig8"]);
    let traced_text = stdout_of(&["--quick", "--only", "fig8", "--trace-out", path]);
    assert_eq!(
        untraced_text, traced_text,
        "tracing must not change the text report"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn jsonl_trace_has_schema_header_and_parseable_lines() {
    let dir = temp_dir("trace-jsonl");
    let path = dir.join("fig8.jsonl");
    let path_str = path.to_str().expect("utf-8 path");
    let out = run_all(&[
        "--quick",
        "--json",
        "--only",
        "fig8",
        "--trace-out",
        path_str,
        "--trace-format",
        "jsonl",
    ]);
    assert!(out.status.success());
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let mut lines = text.lines();
    let header = json::parse(lines.next().expect("header line")).expect("header parses");
    assert_eq!(
        header.get("schema"),
        Some(&Json::Str("ic-obs/flight/v1".to_string()))
    );
    let mut spans = 0;
    for line in lines {
        let span = json::parse(line).expect("span line parses");
        assert!(matches!(span.get("target"), Some(Json::Str(_))), "{line}");
        spans += 1;
    }
    assert!(spans > 0, "jsonl trace should contain spans");
    // The stderr summary accompanies every traced run.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("flight recorder: self-time by span kind"),
        "stderr was: {stderr}"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_format_without_trace_out_is_rejected() {
    let out = run_all(&["--trace-format", "chrome"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--trace-format requires --trace-out"),
        "stderr was: {stderr}"
    );
    let out = run_all(&["--trace-out", "/tmp/x.json", "--trace-format", "protobuf"]);
    assert_eq!(out.status.code(), Some(2));
}

fn baseline_path() -> PathBuf {
    // BENCH_sim.json lives at the workspace root, two levels above this
    // crate's manifest.
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_sim.json")
}

fn run_check(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_check"))
        .args(args)
        .output()
        .expect("check binary spawns")
}

#[test]
fn check_bin_passes_against_the_checked_in_baseline() {
    let baseline = baseline_path();
    let baseline = baseline.to_str().expect("utf-8 path");
    let out = run_check(&["--baseline", baseline, "--current", baseline]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(0), "stdout was: {stdout}");
    assert!(stdout.contains("all keys within tolerance"), "{stdout}");
}

#[test]
fn check_bin_fails_on_an_injected_regression() {
    let baseline = std::fs::read_to_string(baseline_path()).expect("baseline readable");
    let key = "\"table11_wall_ms\":";
    let start = baseline.find(key).expect("baseline has table11_wall_ms") + key.len();
    let end = baseline[start..]
        .find([',', '}'])
        .map(|i| start + i)
        .expect("number terminator");
    let mut current = baseline.clone();
    current.replace_range(start..end, "9e9");

    let dir = temp_dir("check");
    let current_path = dir.join("current.json");
    std::fs::write(&current_path, current).expect("write current snapshot");
    let baseline_str = baseline_path();
    let out = run_check(&[
        "--baseline",
        baseline_str.to_str().expect("utf-8 path"),
        "--current",
        current_path.to_str().expect("utf-8 path"),
    ]);
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "stdout was: {stdout}");
    assert!(stdout.contains("FAIL  table11_wall_ms"), "{stdout}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn check_bin_reports_usage_errors_with_exit_2() {
    let out = run_check(&["--baseline", "/nonexistent/BENCH.json", "--current", "-x"]);
    assert_eq!(out.status.code(), Some(2));
    let out = run_check(&["--frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn jobs_do_not_change_the_report() {
    let serial = stdout_of(&["--quick", "--json", "--jobs", "1"]);
    let parallel = stdout_of(&["--quick", "--json", "--jobs", "8"]);
    assert_eq!(
        normalize_wall_ms(&serial),
        normalize_wall_ms(&parallel),
        "--jobs 8 must emit byte-identical records (modulo wall_ms)"
    );
    assert_eq!(serial.lines().count(), registry().len());
}
