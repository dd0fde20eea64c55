//! Experiment harness: drives the client-server application and the
//! auto-scaler through the paper's load schedules and collects the
//! Figure 15/16 series and Table XI metrics.
//!
//! [`Runner`] runs the [`AutoScaler`] alone on a [`FleetWorld`] with no
//! power domains — the same world, schedule stepping and actuation the
//! composed control plane uses — one decision window at a time. After
//! each window it reads the scaler's [`StepTrace`] and folds it into
//! the run's accumulators: the latency tally, the three series, the
//! host power model, the VM-hour integral and the `runner`/`step`
//! flight span.

use crate::asc::{AutoScaler, StepTrace};
use crate::policy::{AscConfig, Policy};
use ic_controlplane::{ControlPlane, ControllerId, FleetConfigBuilder, FleetWorld};
use ic_obs::engine_obs::EngineSpans;
use ic_obs::flight::{FlightHandle, FlightRecorder, TraceLevel};
use ic_obs::json::Value;
use ic_obs::ObsSinks;
use ic_power::units::{Frequency, Voltage};
use ic_power::vf::VfCurve;
use ic_sim::series::TimeSeries;
use ic_sim::stats::{Tally, TimeWeighted};
use ic_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A piecewise-constant client load schedule: `(start_s, qps)` steps in
/// ascending time order.
pub type Schedule = Vec<(f64, f64)>;

/// The paper's full-experiment ramp: 500 → `max` QPS in steps of `step`
/// every `dwell_s` seconds.
///
/// Both coordinates are computed from the step index (`i·dwell_s`,
/// `start + i·step`) rather than accumulated, so long ramps with
/// non-representable steps (0.1 QPS, say) stay exactly on the grid
/// instead of drifting by the summed rounding error.
///
/// # Panics
///
/// Panics if `step` or `dwell_s` is non-positive or non-finite.
pub fn ramp_schedule(start: f64, max: f64, step: f64, dwell_s: f64) -> Schedule {
    assert!(step > 0.0 && step.is_finite(), "invalid ramp step {step}");
    assert!(
        dwell_s > 0.0 && dwell_s.is_finite(),
        "invalid dwell {dwell_s}"
    );
    if start > max + 1e-9 {
        return Vec::new();
    }
    let steps = ((max - start) / step + 1e-9).floor() as usize;
    (0..=steps)
        .map(|i| (i as f64 * dwell_s, start + i as f64 * step))
        .collect()
}

/// The Figure 15 validation schedule: 1000, 2000, 500, 3000, 1000 QPS,
/// five minutes each.
pub fn validation_schedule() -> Schedule {
    [1000.0, 2000.0, 500.0, 3000.0, 1000.0]
        .iter()
        .enumerate()
        .map(|(i, &qps)| (i as f64 * 300.0, qps))
        .collect()
}

/// The dwell (seconds between steps) a schedule was built with, read
/// back off the grid; `300.0` (the paper's five-minute dwell) for
/// schedules too short to tell.
pub fn schedule_dwell(schedule: &Schedule) -> f64 {
    if schedule.len() >= 2 {
        schedule[1].0 - schedule[0].0
    } else {
        300.0
    }
}

/// Experiment configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunnerConfig {
    /// The auto-scaler configuration.
    pub asc: AscConfig,
    /// Mean per-request core demand at B2, seconds.
    pub service_mean_s: f64,
    /// Service-time squared coefficient of variation.
    pub service_scv: f64,
    /// Virtual cores per server VM.
    pub vcores_per_vm: u32,
    /// Counter stall fraction of the workload.
    pub stall_fraction: f64,
    /// Server VMs running at t = 0.
    pub initial_vms: usize,
    /// The client load schedule.
    pub schedule: Schedule,
    /// Extra time after the last step before the run ends, seconds.
    pub tail_s: f64,
}

impl RunnerConfig {
    /// The paper's Table XI experiment: Client-Server app (2.8 ms mean
    /// core demand, heavy-tailed), 4 vcores per VM, one initial VM,
    /// 500 → 4000 QPS ramp with 5-minute steps.
    pub fn paper() -> Self {
        RunnerConfig {
            asc: AscConfig::paper(),
            service_mean_s: 0.0028,
            service_scv: 2.0,
            vcores_per_vm: 4,
            stall_fraction: 0.10,
            initial_vms: 1,
            schedule: ramp_schedule(500.0, 4000.0, 500.0, 300.0),
            tail_s: 0.0,
        }
    }

    /// The Figure 15 model-validation experiment: three VMs, scale-up/
    /// down only (the runner disables scale-out/in by setting
    /// `max_vms = min_vms = 3`).
    pub fn validation() -> Self {
        let mut asc = AscConfig::paper();
        asc.min_vms = 3;
        asc.max_vms = 3;
        RunnerConfig {
            asc,
            initial_vms: 3,
            schedule: validation_schedule(),
            tail_s: 0.0,
            ..RunnerConfig::paper()
        }
    }

    /// Total run duration implied by the schedule: the last step holds
    /// for one dwell, plus any tail.
    pub fn duration_s(&self) -> f64 {
        let last = self.schedule.last().map(|&(t, _)| t).unwrap_or(0.0);
        last + schedule_dwell(&self.schedule) + self.tail_s
    }
}

/// The collected outcome of one run.
#[derive(Debug, Clone, Serialize)]
pub struct RunResult {
    /// The policy that produced this result.
    pub policy: &'static str,
    /// P95 request latency over the whole run, seconds.
    pub p95_latency_s: f64,
    /// Mean request latency, seconds.
    pub avg_latency_s: f64,
    /// Peak concurrent VM count.
    pub max_vms: usize,
    /// Integrated VM×hours consumed.
    pub vm_hours: f64,
    /// Time-average power of the server VMs, watts.
    pub avg_power_w: f64,
    /// Requests completed.
    pub completed: u64,
    /// Discrete events the workload simulation executed.
    pub sim_events: u64,
    /// Fleet-average utilization over time (Figure 16 series).
    pub utilization: TimeSeries,
    /// Frequency as a percentage of the B2→OC1 range (Figure 15 series).
    pub frequency_pct: TimeSeries,
    /// Active VM count over time.
    pub vm_count: TimeSeries,
}

/// Builds the world `config` runs on — a [`FleetWorld`] serving the
/// config's workload and schedule, with no power domains and one
/// server per VM the scaler may ever run, so no scale-out is refused —
/// and a control plane ticking `asc` on it every decision period.
pub(crate) fn asc_plane(
    config: &RunnerConfig,
    asc: AutoScaler,
    seed: u64,
) -> (ControlPlane<FleetWorld>, ControllerId) {
    let world = FleetWorld::new(
        FleetConfigBuilder::small(seed)
            .service_mean_s(config.service_mean_s)
            .service_scv(config.service_scv)
            .vcores_per_vm(config.vcores_per_vm)
            .stall_fraction(config.stall_fraction)
            .initial_vms(config.initial_vms)
            .schedule(config.schedule.clone())
            .servers(config.asc.max_vms.max(config.initial_vms))
            .domains(vec![])
            .budget_w(0.0)
            .build(),
    );
    let mut plane = ControlPlane::new(world);
    let period = SimDuration::from_secs_f64(config.asc.decision_period_s);
    let id = plane.register(Box::new(asc), period);
    (plane, id)
}

/// Everything one run reports, fed one decision window at a time.
struct RunAccumulators {
    vcores_per_vm: u32,
    max_ratio: f64,
    vf: VfCurve,
    base_f: Frequency,
    v0: Voltage,
    latencies: Tally,
    util_series: TimeSeries,
    freq_series: TimeSeries,
    vm_series: TimeSeries,
    power: TimeWeighted,
    vm_integral: TimeWeighted,
    max_vms: usize,
    flight: Option<FlightHandle>,
}

impl RunAccumulators {
    fn new(config: &RunnerConfig, flight: Option<FlightHandle>) -> Self {
        RunAccumulators {
            vcores_per_vm: config.vcores_per_vm,
            max_ratio: config.asc.max_ratio(),
            vf: VfCurve::xeon_w3175x(),
            base_f: Frequency::from_ghz(3.4),
            v0: Voltage::from_volts(0.90),
            latencies: Tally::new(),
            util_series: TimeSeries::new("util_pct"),
            freq_series: TimeSeries::new("freq_pct_of_range"),
            vm_series: TimeSeries::new("vms"),
            power: TimeWeighted::new(SimTime::ZERO, 0.0),
            vm_integral: TimeWeighted::new(SimTime::ZERO, config.initial_vms as f64),
            max_vms: config.initial_vms,
            flight,
        }
    }

    /// Folds the window `[start, now]`: the requests it completed and
    /// the scaler's decision at `now`.
    fn record(
        &mut self,
        start: SimTime,
        now: SimTime,
        trace: &StepTrace,
        completions: Vec<(SimTime, f64)>,
    ) {
        for (_, lat) in completions {
            self.latencies.record(lat);
        }
        self.util_series.push(now, trace.instant_util * 100.0);
        let pct = if self.max_ratio > 1.0 {
            (trace.freq_ratio - 1.0) / (self.max_ratio - 1.0) * 100.0
        } else {
            0.0
        };
        self.freq_series.push(now, pct);
        self.vm_series.push(now, trace.active_vms as f64);
        self.max_vms = self.max_vms.max(trace.active_vms);
        self.vm_integral.set(now, trace.active_vms as f64);

        // Host power: every server VM runs on the single tank-#1
        // Xeon (as in the paper), so report the host's draw. The
        // components mirror `ic_workloads::perfmodel::ServerPowerModel`:
        // platform rest + uncore (scales f·V² when overclocked) +
        // memory + busy cores at full dynamic power + idle cores in
        // shallow sleep (still clocked).
        let f = Frequency::from_mhz((self.base_f.mhz() as f64 * trace.freq_ratio).round() as u32);
        let v = self.vf.voltage_for(f).max(self.v0);
        let fv2 = f.ratio_to(self.base_f) * v.squared_ratio_to(self.v0);
        let busy_cores =
            (trace.instant_util * self.vcores_per_vm as f64 * trace.active_vms as f64).min(28.0);
        let idle_cores = 28.0 - busy_cores;
        let host_w = 45.0 + 15.0 * fv2 + 30.0 + 2.5 * busy_cores * fv2 + 0.8 * idle_cores * fv2;
        self.power.set(now, host_w);

        if let Some(flight) = &self.flight {
            let mut f = flight.borrow_mut();
            f.flush_phases();
            f.record_complete(
                start,
                now,
                "runner",
                "step",
                TraceLevel::Debug,
                vec![
                    ("util", Value::F64(trace.instant_util)),
                    ("freq_ratio", Value::F64(trace.freq_ratio)),
                    ("vms", Value::U64(trace.active_vms as u64)),
                ],
            );
        }
    }
}

/// Drives one (policy, seed) experiment.
pub struct Runner {
    config: RunnerConfig,
    policy: Policy,
    seed: u64,
    sinks: ObsSinks,
}

impl Runner {
    /// Creates a runner.
    pub fn new(config: RunnerConfig, policy: Policy, seed: u64) -> Self {
        Runner {
            config,
            policy,
            seed,
            sinks: ObsSinks::none(),
        }
    }

    /// Attaches the observability bundle. With a flight recorder, the
    /// run is recorded as a run-level span wrapping one `runner`/`step`
    /// span per decision window, per-event-kind engine phases (via
    /// [`EngineSpans`]) flushed each window onto their own tracks, and
    /// the auto-scaler's decision instants. All timestamps are
    /// simulation time, so same-seed runs export byte-identical traces.
    /// The run's numbers come back in its [`RunResult`]; the recorder
    /// carries the decisions behind them (see
    /// [`AutoScaler::attach_sinks`]).
    pub fn with_sinks(mut self, sinks: ObsSinks) -> Self {
        self.sinks = sinks;
        self
    }

    /// Runs the experiment to completion.
    pub fn run(self) -> RunResult {
        let cfg = &self.config;
        let mut asc = AutoScaler::new(cfg.asc.clone(), self.policy);
        asc.attach_sinks(self.sinks.clone());
        let (mut plane, id) = asc_plane(cfg, asc, self.seed);
        let flight = self.sinks.flight().cloned();
        let run_span = flight.as_ref().map(|flight| {
            plane
                .world_mut()
                .sim_mut()
                .set_observer(Box::new(EngineSpans::new(flight.clone(), "engine")));
            flight.borrow_mut().open_at(
                SimTime::ZERO,
                "runner",
                "run",
                TraceLevel::Info,
                vec![
                    ("policy", Value::str(self.policy.label())),
                    ("seed", Value::U64(self.seed)),
                ],
            )
        });

        let period = SimDuration::from_secs_f64(cfg.asc.decision_period_s);
        let end = SimTime::from_secs_f64(cfg.duration_s());
        let mut acc = RunAccumulators::new(cfg, flight.clone());
        let mut t = SimTime::ZERO;
        while t < end {
            let start = t;
            t = (t + period).min(end);
            plane.run_until(t);
            let trace = plane
                .controller::<AutoScaler>(id)
                .and_then(AutoScaler::last_step)
                .expect("every window ends on an auto-scaler tick");
            let completions = plane.world_mut().sim_mut().take_completions();
            acc.record(start, t, &trace, completions);
        }

        if let Some(flight) = &flight {
            let mut f = flight.borrow_mut();
            f.flush_phases();
            if let Some(token) = run_span.flatten() {
                f.close_at(token, end);
            }
        }

        let sim = plane.world().sim();
        let vm_hours = acc.vm_integral.average(end) * end.as_secs_f64() / 3600.0;
        RunResult {
            policy: self.policy.label(),
            // A run that completed nothing (zero load) reports 0, as
            // the mean does.
            p95_latency_s: if acc.latencies.is_empty() {
                0.0
            } else {
                acc.latencies.percentile(0.95)
            },
            avg_latency_s: acc.latencies.mean(),
            max_vms: acc.max_vms,
            vm_hours,
            avg_power_w: acc.power.average(end),
            completed: sim.completed_requests(),
            sim_events: sim.events_processed(),
            utilization: acc.util_series,
            frequency_pct: acc.freq_series,
            vm_count: acc.vm_series,
        }
    }
}

/// Ring capacity for each batched run's task-local flight recorder.
const TASK_FLIGHT_CAPACITY: usize = 1 << 16;

/// Runs a batch of `(config, policy, seed)` experiments through the
/// deterministic scatter-gather pool ([`ic_par::pool`]) and returns the
/// results **in input order**. Each run is a pure function of its tuple
/// (the whole simulation derives from the explicit seed), so the output
/// is byte-identical for any `IC_PAR_WORKERS` setting.
///
/// With `flight`, each run records into its own task-local recorder
/// (see [`ic_par::ParPool::scatter_gather_traced`]) and the finished
/// recorders are absorbed into `flight` **in submission order**,
/// labeled `<policy>#<seed>`, so the merged trace is byte-identical for
/// any worker count too. The results do not depend on `flight`.
pub fn run_batch(
    tasks: Vec<(RunnerConfig, Policy, u64)>,
    flight: Option<&FlightHandle>,
) -> Vec<RunResult> {
    let Some(flight) = flight else {
        return ic_par::pool().scatter_gather(tasks, |_, (config, policy, seed)| {
            Runner::new(config, policy, seed).run()
        });
    };
    let labels: Vec<String> = tasks
        .iter()
        .map(|(_, policy, seed)| format!("{}#{}", policy.label(), seed))
        .collect();
    let parts: Vec<(RunResult, FlightRecorder)> = ic_par::pool().scatter_gather_traced(
        tasks,
        TASK_FLIGHT_CAPACITY,
        |_, (config, policy, seed), task_flight| {
            Runner::new(config, policy, seed)
                .with_sinks(ObsSinks::none().with_flight(task_flight.clone()))
                .run()
        },
    );
    let mut main = flight.borrow_mut();
    parts
        .into_iter()
        .zip(&labels)
        .map(|((result, recorder), label)| {
            main.absorb(recorder, label);
            result
        })
        .collect()
}

/// Sweeps one policy across a grid of auto-scaler configurations on a
/// shared seed — the ASC sensitivity sweep — in parallel, results in
/// input order.
pub fn sweep_asc_configs(
    base: &RunnerConfig,
    policy: Policy,
    seed: u64,
    configs: Vec<AscConfig>,
) -> Vec<RunResult> {
    run_batch(
        configs
            .into_iter()
            .map(|asc| {
                let mut cfg = base.clone();
                cfg.asc = asc;
                (cfg, policy, seed)
            })
            .collect(),
        None,
    )
}

/// Runs all three Table XI policies on the same seed (in parallel, via
/// [`run_batch`]) and returns `(baseline, oc_e, oc_a)`.
pub fn table11_runs(config: RunnerConfig, seed: u64) -> (RunResult, RunResult, RunResult) {
    let mut results = run_batch(
        vec![
            (config.clone(), Policy::Baseline, seed),
            (config.clone(), Policy::OcE, seed),
            (config, Policy::OcA, seed),
        ],
        None,
    );
    let oc_a = results.pop().expect("three results");
    let oc_e = results.pop().expect("three results");
    let baseline = results.pop().expect("three results");
    (baseline, oc_e, oc_a)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_config() -> RunnerConfig {
        let mut cfg = RunnerConfig::paper();
        // Paper dwell (the control loop needs its detection + creation
        // + cooldown time per step) but a shorter ramp for test speed.
        cfg.schedule = ramp_schedule(500.0, 2000.0, 500.0, 300.0);
        cfg
    }

    #[test]
    fn ramp_schedule_shape() {
        let s = ramp_schedule(500.0, 4000.0, 500.0, 300.0);
        assert_eq!(s.len(), 8);
        assert_eq!(s[0], (0.0, 500.0));
        assert_eq!(s[7], (2100.0, 4000.0));
    }

    #[test]
    fn ten_thousand_step_ramp_stays_on_the_grid() {
        // Regression: the schedule used to accumulate `t += dwell` and
        // `qps += step`; with a non-representable 0.1 step the summed
        // rounding error shifted late entries off the grid (and could
        // change the step count). Index arithmetic pins every entry.
        let (start, max, step, dwell) = (0.0, 1000.0, 0.1, 0.1);
        let s = ramp_schedule(start, max, step, dwell);
        assert_eq!(s.len(), 10_001);
        for (i, &(t, qps)) in s.iter().enumerate() {
            assert_eq!(t, i as f64 * dwell, "t off-grid at step {i}");
            assert_eq!(qps, start + i as f64 * step, "qps off-grid at step {i}");
        }
        // The accumulating formulation this replaced really does drift,
        // so these assertions would catch its reintroduction.
        let mut acc = start;
        for _ in 0..10_000 {
            acc += step;
        }
        assert_ne!(acc, start + 10_000.0 * step);
    }

    #[test]
    fn empty_and_degenerate_ramps() {
        assert!(ramp_schedule(2000.0, 1000.0, 500.0, 300.0).is_empty());
        assert_eq!(ramp_schedule(500.0, 500.0, 500.0, 300.0), [(0.0, 500.0)]);
    }

    #[test]
    fn schedule_dwell_reads_the_grid() {
        assert_eq!(
            schedule_dwell(&ramp_schedule(500.0, 4000.0, 500.0, 300.0)),
            300.0
        );
        assert_eq!(schedule_dwell(&validation_schedule()), 300.0);
        assert_eq!(schedule_dwell(&ramp_schedule(0.0, 100.0, 10.0, 60.0)), 60.0);
        // Degenerate schedules fall back to the paper dwell.
        assert_eq!(schedule_dwell(&vec![(0.0, 500.0)]), 300.0);
        assert_eq!(schedule_dwell(&Vec::new()), 300.0);
    }

    #[test]
    fn run_batch_matches_serial_runs_in_order() {
        let tasks = vec![
            (quick_config(), Policy::Baseline, 7),
            (quick_config(), Policy::OcE, 7),
            (quick_config(), Policy::OcA, 7),
        ];
        let serial: Vec<RunResult> = tasks
            .iter()
            .cloned()
            .map(|(c, p, s)| Runner::new(c, p, s).run())
            .collect();
        let batch = run_batch(tasks, None);
        assert_eq!(batch.len(), serial.len());
        for (a, b) in serial.iter().zip(&batch) {
            assert_eq!(a.policy, b.policy);
            assert_eq!(a.p95_latency_s, b.p95_latency_s);
            assert_eq!(a.vm_hours, b.vm_hours);
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.sim_events, b.sim_events);
        }
    }

    #[test]
    fn traced_run_records_windows_phases_and_decisions() {
        let flight = ic_obs::flight::shared_flight(1 << 16);
        let cfg = quick_config();
        let windows = (cfg.duration_s() / cfg.asc.decision_period_s).round() as u64;
        let r = Runner::new(cfg, Policy::OcA, 3)
            .with_sinks(ObsSinks::none().with_flight(flight.clone()))
            .run();
        assert!(r.completed > 0);
        let rec = flight.borrow();
        let counts = rec.counts_by_kind();
        assert_eq!(counts[&("runner", "run")], 1);
        assert_eq!(counts[&("runner", "step")], windows);
        assert!(counts.contains_key(&("asc", "scale_out")), "{counts:?}");
        assert!(counts.contains_key(&("asc", "freq_change")), "{counts:?}");
        assert!(
            counts.keys().any(|(target, _)| *target == "engine"),
            "engine phases missing: {counts:?}"
        );
        // The run span self time is fully covered by its step children.
        assert!(rec.summary().contains("runner"));
    }

    #[test]
    fn traced_batch_is_worker_count_invariant() {
        // In-process variant of the CLI property test: the merged
        // chrome export must not depend on the worker count. (The
        // IC_PAR_WORKERS env path is exercised cross-process by
        // ic-bench's CLI tests — from_env caches the variable once per
        // process, so it can't be varied in-process.)
        use ic_par::ParPool;
        let tasks = || {
            vec![
                (quick_config(), Policy::Baseline, 7),
                (quick_config(), Policy::OcE, 7),
                (quick_config(), Policy::OcA, 7),
            ]
        };
        let export = |workers: usize| {
            let flight = ic_obs::flight::shared_flight(1 << 18);
            let labels = ["baseline#7", "oc-e#7", "oc-a#7"];
            let parts = ParPool::with_workers(workers).scatter_gather_traced(
                tasks(),
                TASK_FLIGHT_CAPACITY,
                |_, (config, policy, seed), task_flight| {
                    Runner::new(config, policy, seed)
                        .with_sinks(ObsSinks::none().with_flight(task_flight.clone()))
                        .run()
                },
            );
            let mut main = flight.borrow_mut();
            for ((_, rec), label) in parts.into_iter().zip(labels) {
                main.absorb(rec, label);
            }
            main.to_chrome_trace()
        };
        let serial = export(1);
        assert!(serial.contains("baseline#7"));
        for workers in [2, 7] {
            assert_eq!(serial, export(workers), "workers={workers}");
        }
    }

    #[test]
    fn asc_config_sweep_preserves_input_order() {
        let base = quick_config();
        let mut eager = AscConfig::paper();
        eager.scale_out_threshold = 0.30;
        eager.scale_up_threshold = 0.30;
        let paper = AscConfig::paper();
        let results = sweep_asc_configs(&base, Policy::Baseline, 5, vec![eager, paper]);
        assert_eq!(results.len(), 2);
        // The eager scale-out threshold provisions more aggressively.
        assert!(
            results[0].vm_hours > results[1].vm_hours,
            "eager {} vs paper {}",
            results[0].vm_hours,
            results[1].vm_hours
        );
    }

    #[test]
    fn zero_load_run_reports_zero_latency() {
        // Regression: with nothing completed, the P95 query used to
        // panic on the empty latency tally.
        let cfg = RunnerConfig {
            schedule: vec![(0.0, 0.0)],
            ..RunnerConfig::paper()
        };
        let r = Runner::new(cfg, Policy::OcA, 1).run();
        assert_eq!(r.completed, 0);
        assert_eq!(r.p95_latency_s, 0.0);
        assert_eq!(r.avg_latency_s, 0.0);
        assert_eq!(r.utilization.len(), 100);
    }

    #[test]
    fn cluster_accepts_every_scale_out_up_to_max_vms() {
        // A refused maturation would be cleared silently by
        // `AutoScaler::applied`, so the runner's cluster must hold
        // `max_vms` — including more than one Open Compute server's 12.
        use ic_controlplane::{Outcome, World};
        for (initial_vms, max_vms) in [(1, 10), (1, 13), (2, 40), (1, 80), (5, 5)] {
            let mut cfg = RunnerConfig::paper();
            cfg.initial_vms = initial_vms;
            cfg.asc.max_vms = max_vms;
            let asc = AutoScaler::new(cfg.asc.clone(), Policy::Baseline);
            let (mut plane, _) = asc_plane(&cfg, asc, 3);
            let world = plane.world_mut();
            for n in initial_vms..max_vms {
                let outcome = world.complete_scale_out(SimTime::from_secs(n as u64));
                assert!(
                    matches!(outcome, Outcome::VmCreated { .. }),
                    "scale-out to {} of {max_vms} refused: {outcome:?}",
                    n + 1
                );
            }
            assert_eq!(world.sim().active_ids().len(), max_vms);
        }
    }

    #[test]
    fn validation_schedule_matches_paper() {
        let s = validation_schedule();
        assert_eq!(s.len(), 5);
        assert_eq!(s[3], (900.0, 3000.0));
    }

    #[test]
    fn run_produces_complete_series() {
        let r = Runner::new(quick_config(), Policy::Baseline, 1).run();
        assert!(r.completed > 100_000 / 2);
        assert!(!r.utilization.is_empty());
        assert_eq!(r.utilization.len(), r.frequency_pct.len());
        // Both metrics are populated. (The mean can exceed P95 when a
        // few saturation episodes dominate — heavy-tailed data.)
        assert!(r.p95_latency_s > 0.0 && r.avg_latency_s > 0.0);
        assert!(r.max_vms >= 2);
        assert!(r.vm_hours > 0.0);
    }

    #[test]
    fn same_seed_same_result() {
        let a = Runner::new(quick_config(), Policy::OcA, 9).run();
        let b = Runner::new(quick_config(), Policy::OcA, 9).run();
        assert_eq!(a.p95_latency_s, b.p95_latency_s);
        assert_eq!(a.vm_hours, b.vm_hours);
    }

    #[test]
    fn overclocking_policies_beat_baseline_tail() {
        let (base, oce, oca) = table11_runs(quick_config(), 7);
        assert!(
            oce.p95_latency_s < base.p95_latency_s,
            "OC-E {} vs baseline {}",
            oce.p95_latency_s,
            base.p95_latency_s
        );
        assert!(
            oca.p95_latency_s < base.p95_latency_s,
            "OC-A {} vs baseline {}",
            oca.p95_latency_s,
            base.p95_latency_s
        );
    }

    #[test]
    fn oca_consumes_no_more_vm_hours() {
        let (base, _oce, oca) = table11_runs(quick_config(), 11);
        assert!(oca.vm_hours <= base.vm_hours + 1e-9);
    }

    #[test]
    fn baseline_frequency_flat_at_zero_pct() {
        let r = Runner::new(quick_config(), Policy::Baseline, 3).run();
        assert_eq!(r.frequency_pct.max(), Some(0.0));
    }

    #[test]
    fn oca_uses_the_frequency_range() {
        let r = Runner::new(quick_config(), Policy::OcA, 3).run();
        assert!(r.frequency_pct.max().unwrap() > 50.0);
    }
}
