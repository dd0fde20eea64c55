//! The experiment registry: every table and figure as a uniform,
//! individually-addressable unit.
//!
//! Each entry pairs a stable id (`"table1"` ... `"fig16"`) with a render
//! function (the human-readable table/series) and, where the paper
//! reports numbers, a structured metrics function. The registry is the
//! single source of the paper ordering: both the text report and the
//! JSONL report walk it front to back, and the `--jobs` fan-out
//! reassembles results in registration order so parallel runs are
//! byte-identical to serial ones (modulo `wall_ms`).

use crate::experiments::{ablations, chaos, composed, figures, fleet_scale, tables};
use crate::report::{ExperimentRecord, Metric};
use ic_obs::flight::{FlightHandle, TraceLevel};
use ic_par::ParPool;
use ic_scenario::Scenario;
use ic_sim::rng::StreamVersion;
use std::fmt;
use std::time::Instant;

/// Whether simulation-backed experiments run their shortened or full
/// (paper-exact) schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Shortened schedules for fast runs (`run_all --quick`).
    Quick,
    /// The paper's full schedules.
    Full,
}

impl Mode {
    /// `true` for [`Mode::Quick`].
    pub fn is_quick(self) -> bool {
        matches!(self, Mode::Quick)
    }
}

/// One runnable experiment: an id, a title, and the two output paths
/// (rendered text and machine-readable record).
pub trait Experiment: Sync {
    /// Stable identifier in paper order (`"table1"` ... `"fig16"`).
    fn id(&self) -> &'static str;

    /// Human-readable title, as it appears in the JSONL records and
    /// `run_all --list`.
    fn title(&self) -> &'static str;

    /// Renders the human-readable table/series.
    fn render(&self, scenario: &Scenario, mode: Mode) -> String;

    /// Produces the simulation-event count and structured metrics for
    /// the machine-readable record. Analytic experiments default to
    /// timing the render and reporting its line count.
    fn measure(&self, scenario: &Scenario, mode: Mode) -> (u64, Vec<Metric>) {
        let out = self.render(scenario, mode);
        (
            0,
            vec![Metric::new(
                "output_lines",
                "count",
                out.lines().count() as f64,
            )],
        )
    }

    /// Runs the experiment and assembles its record. `wall_ms` is the
    /// only non-deterministic field.
    fn run(&self, scenario: &Scenario, mode: Mode) -> ExperimentRecord {
        let started = Instant::now();
        let (sim_events, metrics) = self.measure(scenario, mode);
        ExperimentRecord {
            id: self.id(),
            title: self.title().to_string(),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            sim_events,
            metrics,
        }
    }

    /// [`measure`](Self::measure) with a flight recorder available.
    /// Experiments without flight instrumentation fall through to the
    /// plain measurement; either way the returned record must be
    /// byte-identical to the untraced one (tracing is a side channel).
    fn measure_traced(
        &self,
        scenario: &Scenario,
        mode: Mode,
        flight: &FlightHandle,
    ) -> (u64, Vec<Metric>) {
        let _ = flight;
        self.measure(scenario, mode)
    }

    /// [`run`](Self::run) with flight recording: wraps the measurement
    /// in a `bench`/`<id>` span closing at the recorder's latest
    /// simulation time, so every run's internal spans nest under one
    /// experiment-level span.
    fn run_traced(
        &self,
        scenario: &Scenario,
        mode: Mode,
        flight: &FlightHandle,
    ) -> ExperimentRecord {
        let started = Instant::now();
        let token = flight
            .borrow_mut()
            .open("bench", self.id(), TraceLevel::Info, vec![]);
        let (sim_events, metrics) = self.measure_traced(scenario, mode, flight);
        if let Some(token) = token {
            let mut f = flight.borrow_mut();
            let end = f.max_end();
            f.close_at(token, end);
        }
        ExperimentRecord {
            id: self.id(),
            title: self.title().to_string(),
            wall_ms: started.elapsed().as_secs_f64() * 1e3,
            sim_events,
            metrics,
        }
    }
}

/// A metrics hook: simulation-event count plus paper-anchored metrics.
type MetricsFn = fn(&Scenario, Mode) -> (u64, Vec<Metric>);

/// A metrics hook that also records spans into a flight recorder. The
/// returned numbers must be byte-identical to the plain [`MetricsFn`]'s.
type TracedMetricsFn = fn(&Scenario, Mode, &FlightHandle) -> (u64, Vec<Metric>);

/// A registry entry built from plain function pointers.
#[derive(Debug)]
pub struct FnExperiment {
    id: &'static str,
    title: &'static str,
    render: fn(&Scenario, Mode) -> String,
    /// `Some` for experiments with paper-anchored structured metrics;
    /// `None` falls back to the line-count default.
    metrics: Option<MetricsFn>,
    /// `Some` for simulation-backed experiments instrumented for the
    /// flight recorder; `None` falls back to the untraced measurement.
    traced: Option<TracedMetricsFn>,
}

impl Experiment for FnExperiment {
    fn id(&self) -> &'static str {
        self.id
    }
    fn title(&self) -> &'static str {
        self.title
    }
    fn render(&self, scenario: &Scenario, mode: Mode) -> String {
        (self.render)(scenario, mode)
    }
    fn measure(&self, scenario: &Scenario, mode: Mode) -> (u64, Vec<Metric>) {
        match self.metrics {
            Some(f) => f(scenario, mode),
            None => {
                let out = self.render(scenario, mode);
                (
                    0,
                    vec![Metric::new(
                        "output_lines",
                        "count",
                        out.lines().count() as f64,
                    )],
                )
            }
        }
    }
    fn measure_traced(
        &self,
        scenario: &Scenario,
        mode: Mode,
        flight: &FlightHandle,
    ) -> (u64, Vec<Metric>) {
        match self.traced {
            Some(f) => f(scenario, mode, flight),
            None => self.measure(scenario, mode),
        }
    }
}

/// All experiments in paper order, then the reproduction's own runs
/// that are not paper artifacts: the composed control plane, fleet
/// scale, chaos and the ablations.
static REGISTRY: [FnExperiment; 31] = [
    FnExperiment {
        id: "table1",
        title: "Table I: cooling technologies",
        render: |_, _| tables::table1(),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "table2",
        title: "Table II: dielectric fluids",
        render: |s, _| tables::table2(s),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "table3",
        title: "Table III: max turbo, air vs 2PIC",
        render: |s, _| tables::table3(s),
        metrics: Some(|s, _| (0, tables::table3_metrics(s))),
        traced: None,
    },
    FnExperiment {
        id: "table4",
        title: "Table IV: failure-mode dependencies",
        render: |s, _| tables::table4(s),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "table5",
        title: "Table V: projected lifetime",
        render: |s, _| tables::table5(s),
        metrics: Some(|s, _| (0, tables::table5_metrics(s))),
        traced: None,
    },
    FnExperiment {
        id: "table6",
        title: "Table VI: TCO analysis",
        render: |_, _| tables::table6(),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "table7",
        title: "Table VII: CPU frequency configurations",
        render: |s, _| tables::table7(s),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "table8",
        title: "Table VIII: GPU configurations",
        render: |s, _| tables::table8(s),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "table9",
        title: "Table IX: applications",
        render: |s, _| tables::table9(s),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "fig4",
        title: "Figure 4: operating domains",
        render: |_, _| figures::fig4(),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "fig5",
        title: "Figure 5: high-performance VM classes",
        render: |_, _| figures::fig5(),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "fig6",
        title: "Figure 6: static vs virtual buffers",
        render: |_, _| figures::fig6(),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "fig7",
        title: "Figure 7: capacity crisis",
        render: |_, _| figures::fig7(),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "fig9",
        title: "Figure 9: cloud workloads under overclocking",
        render: |_, _| figures::fig9(),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "fig10",
        title: "Figure 10: STREAM bandwidth",
        render: |_, _| figures::fig10(),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "fig11",
        title: "Figure 11: VGG training under GPU overclocking",
        render: |_, _| figures::fig11(),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "fig12",
        title: "Figure 12: SQL P95 vs pcores",
        render: |_, _| figures::fig12(),
        metrics: Some(|_, _| (0, figures::fig12_metrics())),
        traced: None,
    },
    FnExperiment {
        id: "fig13",
        title: "Figure 13 / Table X: oversubscription",
        render: |_, _| figures::fig13(),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "fig8",
        title: "Figure 8: hiding vs avoiding the scale-out",
        render: |_, m| figures::fig8(m.is_quick()),
        metrics: None,
        traced: Some(|_, m, f| figures::fig8_traced(m.is_quick(), f)),
    },
    FnExperiment {
        id: "fig14",
        title: "Figure 14: auto-scaling architecture",
        render: |_, _| figures::fig14(),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "fig15",
        title: "Figure 15: Equation 1 validation",
        render: |_, m| figures::fig15(m.is_quick()),
        metrics: Some(|_, m| figures::fig15_record(m.is_quick())),
        traced: Some(|_, m, f| figures::fig15_record_traced(m.is_quick(), f)),
    },
    FnExperiment {
        id: "fig16",
        title: "Figure 16: utilization under the three policies",
        render: |_, m| figures::fig16(m.is_quick()),
        metrics: Some(|_, m| figures::fig16_record(m.is_quick())),
        traced: Some(|_, m, f| figures::fig16_record_traced(m.is_quick(), f)),
    },
    FnExperiment {
        id: "table11",
        title: "Table XI: auto-scaler comparison",
        render: |_, m| tables::table11(m.is_quick()),
        metrics: Some(|_, m| tables::table11_record(m.is_quick())),
        traced: Some(|_, m, f| tables::table11_record_traced(m.is_quick(), f)),
    },
    FnExperiment {
        id: "composed",
        title: "Composed control plane: ASC + capping + governor + failover",
        render: |s, m| composed::composed(s.rng_stream, m.is_quick()),
        metrics: Some(|s, m| composed::composed_record(s.rng_stream, m.is_quick())),
        traced: Some(|s, m, f| composed::composed_record_traced(s.rng_stream, m.is_quick(), f)),
    },
    FnExperiment {
        id: "fleet_scale",
        title: "Fleet-scale control plane: 100 / 1k / 10k power domains",
        render: |_, m| fleet_scale::fleet_scale(m.is_quick()),
        metrics: Some(|_, m| fleet_scale::fleet_scale_record(m.is_quick())),
        traced: Some(|_, m, f| fleet_scale::fleet_scale_record_traced(m.is_quick(), f)),
    },
    // Appended after every pre-versioning record so the first 25 ids
    // (and their byte-identical v1 output) keep their positions.
    FnExperiment {
        id: "composed_v2",
        title: "Composed control plane on the v2 sampler stream",
        render: |_, m| composed::composed(StreamVersion::V2, m.is_quick()),
        metrics: Some(|_, m| composed::composed_record(StreamVersion::V2, m.is_quick())),
        traced: Some(|_, m, f| {
            composed::composed_record_traced(StreamVersion::V2, m.is_quick(), f)
        }),
    },
    FnExperiment {
        id: "chaos",
        title: "Chaos: wear-coupled faults and graceful degradation, B2 vs OC3",
        render: |s, m| chaos::chaos(s.rng_stream, m.is_quick()),
        metrics: Some(|s, m| chaos::chaos_record(s.rng_stream, m.is_quick())),
        traced: Some(|s, m, f| chaos::chaos_record_traced(s.rng_stream, m.is_quick(), f)),
    },
    // Ablations of the reproduction's own calibration knobs, appended so
    // the first 27 ids keep their positions. Each renders the same text
    // in both modes.
    FnExperiment {
        id: "ablation_interference",
        title: "Ablation: scale-out interference vs Table XI shape",
        render: |_, _| ablations::ablation_interference(),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "ablation_policies",
        title: "Ablation: reactive vs predictive vs overclocking policies",
        render: |_, _| ablations::ablation_policies(),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "ablation_lifetime",
        title: "Ablation: lifetime-model parameter sensitivity",
        render: |_, _| ablations::ablation_lifetime(),
        metrics: None,
        traced: None,
    },
    FnExperiment {
        id: "ablation_packing",
        title: "Ablation: placement policy x oversubscription (6 h heavy trace)",
        render: |_, _| ablations::ablation_packing(),
        metrics: None,
        traced: None,
    },
];

/// The full registry in paper order.
pub fn registry() -> &'static [FnExperiment] {
    &REGISTRY
}

/// A selection referencing an experiment id the registry doesn't have.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownExperiment {
    /// The offending id.
    pub id: String,
}

impl fmt::Display for UnknownExperiment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown experiment id {:?} (run with --list to see the registry)",
            self.id
        )
    }
}

impl std::error::Error for UnknownExperiment {}

/// Resolves an optional `--only` id list against the registry. The
/// selection always comes back in registration (paper) order, whatever
/// order the ids were given in; `None` selects everything.
pub fn select(only: Option<&[String]>) -> Result<Vec<&'static FnExperiment>, UnknownExperiment> {
    match only {
        None => Ok(REGISTRY.iter().collect()),
        Some(ids) => {
            for id in ids {
                if !REGISTRY.iter().any(|e| e.id == id) {
                    return Err(UnknownExperiment { id: id.clone() });
                }
            }
            Ok(REGISTRY
                .iter()
                .filter(|e| ids.iter().any(|id| id == e.id))
                .collect())
        }
    }
}

/// Runs `run(0..n)` across up to `jobs` worker threads through the
/// deterministic scatter-gather pool ([`ic_par::ParPool`]) and returns
/// the results in index order. With `jobs <= 1` everything runs on the
/// calling thread; either way the output is byte-identical — experiments
/// inside a worker may themselves fan out via `ic_par` (nested scoped
/// pools compose without deadlock).
fn fan_out<T: Send>(n: usize, jobs: usize, run: impl Fn(usize) -> T + Sync) -> Vec<T> {
    ParPool::with_workers(jobs.clamp(1, n.max(1))).scatter_gather((0..n).collect(), |_, i| run(i))
}

/// Renders the selected experiments (all of them for `only: None`) and
/// joins them into the combined text report, fanning out across `jobs`
/// threads.
pub fn render_selected(
    scenario: &Scenario,
    mode: Mode,
    jobs: usize,
    only: Option<&[String]>,
) -> Result<String, UnknownExperiment> {
    let selected = select(only)?;
    let outputs = fan_out(selected.len(), jobs, |i| selected[i].render(scenario, mode));
    Ok(outputs.join("\n"))
}

/// Runs a single experiment by id and returns its record — the hook the
/// perf-trajectory bench (`benches/kernels.rs`) uses to time one
/// experiment end-to-end (`wall_ms`) without going through the CLI.
pub fn run_one(
    id: &str,
    scenario: &Scenario,
    mode: Mode,
) -> Result<ExperimentRecord, UnknownExperiment> {
    let exp = REGISTRY
        .iter()
        .find(|e| e.id == id)
        .ok_or_else(|| UnknownExperiment { id: id.to_string() })?;
    Ok(exp.run(scenario, mode))
}

/// Runs the selected experiments (all of them for `only: None`) and
/// returns their records in registration order, fanning out across
/// `jobs` threads.
pub fn run_selected(
    scenario: &Scenario,
    mode: Mode,
    jobs: usize,
    only: Option<&[String]>,
) -> Result<Vec<ExperimentRecord>, UnknownExperiment> {
    let selected = select(only)?;
    Ok(fan_out(selected.len(), jobs, |i| {
        selected[i].run(scenario, mode)
    }))
}

/// Ring capacity for each experiment's private flight recorder. Large
/// enough that a full `--quick` sweep keeps every span; overflow is
/// reported (not silently lost) via the merged recorder's drop counter.
const EXPERIMENT_FLIGHT_CAPACITY: usize = 1 << 18;

/// [`run_selected`] with flight recording: each experiment records into
/// a private recorder (so parallel workers never contend), and the
/// recorders are absorbed into `flight` in registration order — the
/// merged trace is byte-identical for every `jobs` value. The records
/// themselves match the untraced ones modulo `wall_ms`.
pub fn run_selected_traced(
    scenario: &Scenario,
    mode: Mode,
    jobs: usize,
    only: Option<&[String]>,
    flight: &FlightHandle,
) -> Result<Vec<ExperimentRecord>, UnknownExperiment> {
    let selected = select(only)?;
    let n = selected.len();
    let results = ParPool::with_workers(jobs.clamp(1, n.max(1))).scatter_gather_traced(
        (0..n).collect(),
        EXPERIMENT_FLIGHT_CAPACITY,
        |_, i, task_flight| selected[i].run_traced(scenario, mode, task_flight),
    );
    let mut merged = flight.borrow_mut();
    let mut records = Vec::with_capacity(n);
    for ((record, task_flight), exp) in results.into_iter().zip(&selected) {
        merged.absorb(task_flight, exp.id());
        records.push(record);
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_ids_are_unique_and_in_paper_order() {
        let ids: Vec<&str> = REGISTRY.iter().map(|e| e.id).collect();
        assert_eq!(ids.len(), 31);
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate experiment id");
        assert_eq!(ids.first(), Some(&"table1"));
        // Every pre-versioning id keeps its position; v2 variants append.
        assert_eq!(ids[24], "fleet_scale");
        assert_eq!(ids[25], "composed_v2");
        assert_eq!(ids[26], "chaos");
        assert_eq!(ids.last(), Some(&"ablation_packing"));
    }

    #[test]
    fn select_preserves_registration_order() {
        let ids = vec!["fig4".to_string(), "table2".to_string()];
        let picked = select(Some(&ids)).unwrap();
        let picked: Vec<&str> = picked.iter().map(|e| e.id()).collect();
        assert_eq!(picked, ["table2", "fig4"]);
    }

    #[test]
    fn select_rejects_unknown_ids() {
        let ids = vec!["table99".to_string()];
        let err = select(Some(&ids)).unwrap_err();
        assert_eq!(err.id, "table99");
        assert!(err.to_string().contains("table99"));
    }

    #[test]
    fn fan_out_orders_by_index() {
        for jobs in [1, 2, 7, 64] {
            let out = fan_out(20, jobs, |i| i * i);
            assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>(), "{jobs}");
        }
        assert!(fan_out(0, 4, |i| i).is_empty());
    }

    #[test]
    fn run_one_times_a_single_experiment() {
        let s = Scenario::paper();
        let rec = run_one("table3", &s, Mode::Quick).unwrap();
        assert_eq!(rec.id, "table3");
        assert!(rec.wall_ms >= 0.0);
        assert_eq!(run_one("nope", &s, Mode::Quick).unwrap_err().id, "nope");
    }

    #[test]
    fn traced_records_match_untraced_and_merged_trace_is_jobs_invariant() {
        let s = Scenario::paper();
        // fig8 is flight-instrumented; table3 exercises the untraced
        // fallback inside the traced fan-out.
        let only = vec!["table3".to_string(), "fig8".to_string()];
        let plain = run_selected(&s, Mode::Quick, 1, Some(&only)).unwrap();
        let mut exports = Vec::new();
        for jobs in [1usize, 2, 7] {
            let flight = ic_obs::flight::shared_flight(EXPERIMENT_FLIGHT_CAPACITY);
            let traced = run_selected_traced(&s, Mode::Quick, jobs, Some(&only), &flight).unwrap();
            assert_eq!(plain.len(), traced.len());
            for (a, b) in plain.iter().zip(&traced) {
                assert_eq!(a.id, b.id);
                assert_eq!(a.sim_events, b.sim_events);
                assert_eq!(a.metrics, b.metrics, "tracing must not change {}", a.id);
            }
            let f = flight.borrow();
            assert_eq!(f.dropped(), 0);
            let counts = f.counts_by_kind();
            assert!(counts.contains_key(&("bench", "table3")));
            assert!(counts.contains_key(&("bench", "fig8")));
            exports.push(f.to_chrome_trace());
        }
        assert_eq!(exports[0], exports[1], "jobs=1 vs jobs=2");
        assert_eq!(exports[0], exports[2], "jobs=1 vs jobs=7");
    }

    #[test]
    fn parallel_records_match_serial_modulo_wall_ms() {
        let s = Scenario::paper();
        let only = vec![
            "table2".to_string(),
            "table3".to_string(),
            "table5".to_string(),
            "fig12".to_string(),
        ];
        let serial = run_selected(&s, Mode::Quick, 1, Some(&only)).unwrap();
        let parallel = run_selected(&s, Mode::Quick, 4, Some(&only)).unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.title, b.title);
            assert_eq!(a.sim_events, b.sim_events);
            assert_eq!(a.metrics, b.metrics);
        }
    }
}
