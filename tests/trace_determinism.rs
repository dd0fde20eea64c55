//! Trace determinism: two same-seed runs must emit byte-identical
//! structured output.
//!
//! Flight records — spans, engine phases and the auto-scaler's decision
//! instants — are keyed by simulation time plus a recorder-assigned
//! sequence number, never wall clock, so the JSONL and Chrome-trace
//! exports of a seeded run are reproducible down to the byte, and so is
//! the metrics snapshot.

use immersion_cloud::autoscale::policy::Policy;
use immersion_cloud::autoscale::runner::{ramp_schedule, Runner, RunnerConfig};
use immersion_cloud::obs::{shared_flight, shared_registry, FlightHandle, ObsSinks};

fn short_config() -> RunnerConfig {
    let mut config = RunnerConfig::paper();
    // A 500->1500 QPS ramp with 1-minute steps: long enough to trigger
    // scale-out and frequency decisions, short enough for a unit test.
    config.schedule = ramp_schedule(500.0, 1500.0, 500.0, 60.0);
    config
}

/// One traced run: the flight recorder and the metrics snapshot.
fn traced_run(policy: Policy, seed: u64) -> (FlightHandle, String) {
    let flight = shared_flight(1 << 16);
    let metrics = shared_registry();
    Runner::new(short_config(), policy, seed)
        .with_sinks(
            ObsSinks::none()
                .with_flight(flight.clone())
                .with_metrics(metrics.clone()),
        )
        .run();
    {
        let recorder = flight.borrow();
        assert!(!recorder.is_empty(), "run must record spans");
        assert_eq!(
            recorder.dropped(),
            0,
            "ring must not overflow in a short run"
        );
    }
    let metrics_json = metrics.borrow().to_json();
    (flight, metrics_json)
}

fn flight_chrome_export(policy: Policy, seed: u64) -> String {
    traced_run(policy, seed).0.borrow().to_chrome_trace()
}

#[test]
fn same_seed_runs_emit_identical_jsonl() {
    let (a, _) = traced_run(Policy::OcA, 42);
    let (b, _) = traced_run(Policy::OcA, 42);
    let a = a.borrow();
    let b = b.borrow();
    let jsonl = a.to_jsonl();
    assert_eq!(jsonl, b.to_jsonl(), "JSONL streams diverged");
    // The stream carries the auto-scaler's decisions, not just spans.
    assert!(jsonl.contains("\"name\":\"scale_out\""), "no scale_out");
    assert!(jsonl.contains("\"name\":\"freq_change\""), "no freq_change");
    assert_eq!(a.summary(), b.summary(), "summaries diverged");
}

#[test]
fn same_seed_runs_emit_identical_metric_snapshots() {
    let (_, a) = traced_run(Policy::OcE, 7);
    let (_, b) = traced_run(Policy::OcE, 7);
    assert_eq!(a, b, "metric snapshots diverged");
    assert!(a.contains("asc_decisions_total{step}"));
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the byte-equality above is not vacuous: the
    // trace actually depends on the stochastic workload.
    let (a, _) = traced_run(Policy::OcA, 1);
    let (b, _) = traced_run(Policy::OcA, 2);
    assert_ne!(a.borrow().to_jsonl(), b.borrow().to_jsonl());
}

#[test]
fn same_seed_runs_emit_identical_chrome_traces() {
    let a = flight_chrome_export(Policy::OcA, 42);
    let b = flight_chrome_export(Policy::OcA, 42);
    assert_eq!(a, b, "Chrome-trace exports diverged");
    // The export carries the expected track structure.
    assert!(a.contains("\"traceEvents\":["));
    assert!(a.contains("\"displayTimeUnit\":\"ms\""));
    assert!(a.contains("\"name\":\"run\""));
}

#[test]
fn different_seed_flight_traces_diverge() {
    assert_ne!(
        flight_chrome_export(Policy::OcA, 1),
        flight_chrome_export(Policy::OcA, 2),
        "flight spans must depend on the stochastic workload"
    );
}

#[test]
fn traces_never_contain_wall_clock_fields() {
    let (flight, _) = traced_run(Policy::OcA, 42);
    let recorder = flight.borrow();
    let jsonl = recorder.to_jsonl();
    let chrome = recorder.to_chrome_trace();
    for line in jsonl.lines().chain(chrome.lines()) {
        assert!(
            !line.contains("wall"),
            "wall-clock leaked into trace: {line}"
        );
    }
}
