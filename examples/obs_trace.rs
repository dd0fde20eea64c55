//! Observability end-to-end: runs the Table XI auto-scaler scenario
//! with the flight recorder attached, then prints the per-policy
//! summary: the auto-scaler's decision totals counted off the recorded
//! instants, beside the run's own latency and VM figures.
//!
//! ```sh
//! cargo run --release --example obs_trace
//! ```

use immersion_cloud::autoscale::policy::Policy;
use immersion_cloud::autoscale::runner::{ramp_schedule, Runner, RunnerConfig};
use immersion_cloud::obs::{shared_flight, ObsSinks};

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
        let result = Runner::new(config.clone(), policy, 42)
            .with_sinks(ObsSinks::none().with_flight(flight.clone()))
            .run();

        let rec = flight.borrow();
        let counts = rec.counts_by_kind();
        let decisions = |kind: &'static str| counts.get(&("asc", kind)).copied().unwrap_or(0);
        println!(
            "{:10} {:>10} {:>10} {:>10} {:>9.2} {:>8} {:>9.2}",
            format!("{policy:?}"),
            decisions("step"),
            decisions("scale_out"),
            decisions("scale_in"),
            result.p95_latency_s * 1e3,
            result.max_vms,
            result.vm_hours,
        );

        if matches!(policy, Policy::OcA) {
            for ((target, kind), n) in counts {
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
