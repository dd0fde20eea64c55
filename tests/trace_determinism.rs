//! Trace determinism: two same-seed runs must emit byte-identical
//! structured output.
//!
//! Flight records — spans, engine phases and the auto-scaler's decision
//! instants — are keyed by simulation time plus a recorder-assigned
//! sequence number, never wall clock, so the JSONL and Chrome-trace
//! exports of a seeded run are reproducible down to the byte. The
//! recorder also carries the run's decision totals: counting its
//! `asc/*` instants gives them.

use immersion_cloud::autoscale::policy::Policy;
use immersion_cloud::autoscale::runner::{ramp_schedule, Runner, RunnerConfig};
use immersion_cloud::obs::{shared_flight, FlightHandle, ObsSinks};

fn short_config() -> RunnerConfig {
    let mut config = RunnerConfig::paper();
    // A 500->1500 QPS ramp with 1-minute steps: long enough to trigger
    // scale-out and frequency decisions, short enough for a unit test.
    config.schedule = ramp_schedule(500.0, 1500.0, 500.0, 60.0);
    config
}

/// One traced run of `config`; the recorder must hold every record.
fn record(config: RunnerConfig, policy: Policy, seed: u64, capacity: usize) -> FlightHandle {
    let flight = shared_flight(capacity);
    Runner::new(config, policy, seed)
        .with_sinks(ObsSinks::none().with_flight(flight.clone()))
        .run();
    {
        let recorder = flight.borrow();
        assert!(!recorder.is_empty(), "run must record spans");
        assert_eq!(recorder.dropped(), 0, "ring must not overflow");
    }
    flight
}

/// One traced run on the short ramp.
fn traced_run(policy: Policy, seed: u64) -> FlightHandle {
    record(short_config(), policy, seed, 1 << 16)
}

fn flight_chrome_export(policy: Policy, seed: u64) -> String {
    traced_run(policy, seed).borrow().to_chrome_trace()
}

#[test]
fn same_seed_runs_emit_identical_jsonl() {
    let a = traced_run(Policy::OcA, 42);
    let b = traced_run(Policy::OcA, 42);
    let a = a.borrow();
    let b = b.borrow();
    let jsonl = a.to_jsonl();
    assert_eq!(jsonl, b.to_jsonl(), "JSONL streams diverged");
    // The stream carries the auto-scaler's decisions, not just spans.
    assert!(jsonl.contains("\"name\":\"scale_out\""), "no scale_out");
    assert!(jsonl.contains("\"name\":\"freq_change\""), "no freq_change");
    assert_eq!(a.summary(), b.summary(), "summaries diverged");
}

/// The auto-scaler's decision totals, read off the flight recorder, for
/// the `obs_trace` example's run: the Table XI scenario on the shortened
/// 500 -> 2500 QPS ramp, seed 42. The expected values are the
/// `asc_decisions_total{step,scale_out,scale_in}` counters the retired
/// metrics registry reported for the same runs.
#[test]
fn flight_instants_carry_the_decision_totals() {
    let mut config = RunnerConfig::paper();
    config.schedule = ramp_schedule(500.0, 2500.0, 500.0, 300.0);
    for (policy, steps, scale_outs, scale_ins) in [
        (Policy::Baseline, 500, 3, 0),
        (Policy::OcE, 500, 3, 0),
        (Policy::OcA, 500, 2, 0),
    ] {
        let flight = record(config.clone(), policy, 42, 1 << 18);
        let counts = flight.borrow().counts_by_kind();
        let count = |kind: &'static str| counts.get(&("asc", kind)).copied().unwrap_or(0);
        assert_eq!(
            (count("step"), count("scale_out"), count("scale_in")),
            (steps, scale_outs, scale_ins),
            "{policy:?}"
        );
    }
}

#[test]
fn different_seeds_diverge() {
    // Sanity check that the byte-equality above is not vacuous: the
    // trace actually depends on the stochastic workload.
    let a = traced_run(Policy::OcA, 1);
    let b = traced_run(Policy::OcA, 2);
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
    let flight = traced_run(Policy::OcA, 42);
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
