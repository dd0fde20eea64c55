//! All experiment implementations, one module per table/figure.

pub mod ablations;
pub mod chaos;
pub mod composed;
pub mod figures;
pub mod fleet_scale;
pub mod tables;

use crate::registry::{render_selected, run_selected, Mode};
use ic_autoscale::policy::Policy;
use ic_autoscale::runner::{run_batch, RunResult, RunnerConfig};
use ic_obs::flight::FlightHandle;
use ic_scenario::Scenario;

/// The three Table XI policies, in the paper's column order.
const TABLE11_POLICIES: [Policy; 3] = [Policy::Baseline, Policy::OcE, Policy::OcA];

/// Runs `config` under each of [`TABLE11_POLICIES`] at seed 42 through
/// [`run_batch`] (recording onto `flight` when given) and returns the
/// results in policy order.
fn table11_policy_runs(config: &RunnerConfig, flight: Option<&FlightHandle>) -> [RunResult; 3] {
    let tasks = TABLE11_POLICIES
        .into_iter()
        .map(|policy| (config.clone(), policy, 42))
        .collect();
    run_batch(tasks, flight)
        .try_into()
        .expect("one result per policy")
}

fn mode_for(quick: bool) -> Mode {
    if quick {
        Mode::Quick
    } else {
        Mode::Full
    }
}

/// Runs every experiment in paper order and returns the combined report.
/// `quick` shortens the simulation-backed experiments (Table XI,
/// Figures 15/16) for fast runs; the full versions match the paper's
/// schedules exactly. A thin wrapper over [`crate::registry`] with the
/// paper scenario and a single worker.
pub fn run_all(quick: bool) -> String {
    render_selected(&Scenario::paper(), mode_for(quick), 1, None)
        .expect("the unfiltered selection always resolves")
}

/// Runs every experiment in paper order, emitting one machine-readable
/// JSONL record per experiment (see [`crate::report::ExperimentRecord`]).
/// Analytic experiments report `sim_events: 0`; simulation-backed ones
/// (Figures 15/16, Table XI) report their discrete-event counts.
/// Experiments the paper reports numbers for carry paper-vs-measured
/// metric pairs.
pub fn run_all_json(quick: bool) -> String {
    let records = run_selected(&Scenario::paper(), mode_for(quick), 1, None, None)
        .expect("the unfiltered selection always resolves");
    let mut out = String::new();
    for record in records {
        out.push_str(&record.to_json());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_report_covers_every_experiment() {
        let out = run_all_json(true);
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 31, "one record per experiment");
        for line in &lines {
            assert!(line.starts_with("{\"id\":\""), "{line}");
            assert!(line.ends_with("]}"), "{line}");
        }
        for id in [
            "table1",
            "table3",
            "table5",
            "table11",
            "fig12",
            "fig15",
            "fig16",
            "composed",
            "composed_v2",
            "chaos",
            "ablation_interference",
            "ablation_packing",
        ] {
            assert!(
                lines
                    .iter()
                    .any(|l| l.starts_with(&format!("{{\"id\":\"{id}\","))),
                "missing record for {id}"
            );
        }
        // The simulation-backed experiments must report their event counts.
        let table11 = lines
            .iter()
            .find(|l| l.contains("\"id\":\"table11\""))
            .unwrap();
        assert!(!table11.contains("\"sim_events\":0,"), "{table11}");
        // Paper targets ride along with measured values.
        assert!(table11.contains("\"paper\":0.58"));
        assert!(table11.contains("\"paper\":1.95"));
    }

    #[test]
    fn paper_anchored_metrics_track_the_paper() {
        let s = Scenario::paper();
        for m in tables::table3_metrics(&s) {
            let paper = m.paper.expect("table3 rows all have paper values");
            assert!(
                (m.measured - paper).abs() < 5.0,
                "{}: {} vs {paper}",
                m.name,
                m.measured
            );
        }
        let t5 = tables::table5_metrics(&s);
        assert_eq!(t5.len(), 6);
        for m in figures::fig12_metrics() {
            if m.name == "crossover_p95_delta_pct" {
                assert!(m.measured.abs() < 2.0, "crossover delta {}", m.measured);
            }
        }
    }
}
