//! Observability end-to-end: runs the Table XI auto-scaler scenario
//! with the flight recorder and metrics attached, then prints the
//! per-policy summary *from the recorded metrics alone* — the
//! `RunResult` is thrown away to prove the registry captures enough.
//!
//! ```sh
//! cargo run --release --example obs_trace
//! ```

use immersion_cloud::autoscale::policy::Policy;
use immersion_cloud::autoscale::runner::{ramp_schedule, Runner, RunnerConfig};
use immersion_cloud::obs::{shared_flight, shared_registry, ObsSinks};

fn main() {
    println!("== traced auto-scaling (Table XI scenario) ==\n");
    // The shortened 500 -> 2500 QPS ramp; RunnerConfig::paper() gives
    // the full experiment.
    let mut config = RunnerConfig::paper();
    config.schedule = ramp_schedule(500.0, 2500.0, 500.0, 300.0);

    println!(
        "{:10} {:>10} {:>10} {:>10} {:>9} {:>8} {:>9}",
        "Config", "Decisions", "ScaleOut", "ScaleIn", "P95 ms", "MaxVMs", "VMxHours"
    );
    let mut sample_lines: Vec<String> = Vec::new();
    let mut kind_counts: Vec<(String, u64)> = Vec::new();
    for policy in [Policy::Baseline, Policy::OcE, Policy::OcA] {
        let flight = shared_flight(1 << 18);
        let metrics = shared_registry();
        // Deliberately discard the RunResult: everything printed below
        // comes from the observability layer.
        let _ = Runner::new(config.clone(), policy, 42)
            .with_sinks(
                ObsSinks::none()
                    .with_flight(flight.clone())
                    .with_metrics(metrics.clone()),
            )
            .run();

        let reg = metrics.borrow();
        println!(
            "{:10} {:>10} {:>10} {:>10} {:>9.2} {:>8} {:>9.2}",
            format!("{policy:?}"),
            reg.counter("asc_decisions_total{step}"),
            reg.counter("asc_decisions_total{scale_out}"),
            reg.counter("asc_decisions_total{scale_in}"),
            reg.gauge("runner_p95_latency_s").unwrap_or(f64::NAN) * 1e3,
            reg.gauge("runner_max_vms").unwrap_or(f64::NAN),
            reg.gauge("runner_vm_hours").unwrap_or(f64::NAN),
        );

        if matches!(policy, Policy::OcA) {
            let rec = flight.borrow();
            for ((target, kind), n) in rec.counts_by_kind() {
                kind_counts.push((format!("{target}/{kind}"), n));
            }
            sample_lines = rec
                .to_jsonl()
                .lines()
                .filter(|l| {
                    l.contains("\"name\":\"freq_change\"") || l.contains("\"name\":\"scale_out\"")
                })
                .take(4)
                .map(str::to_string)
                .collect();
        }
    }

    println!("\nOC-A flight records by kind:");
    for (kind, n) in &kind_counts {
        println!("  {kind:24} {n:>7}");
    }

    println!("\nSample OC-A decision instants (flight JSONL):");
    for line in &sample_lines {
        println!("  {line}");
    }
}
