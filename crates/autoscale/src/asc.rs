//! The ASC control loop.
//!
//! Every decision period the controller samples each server VM's
//! Aperf/Pperf counters, folds the fleet-average utilization into its
//! two trailing windows, and decides actions: scale-out (after the
//! configured VM-creation latency), scale-in, and — for the
//! overclocking policies — frequency changes driven by Equation 1.
//!
//! [`AutoScaler`] implements [`ic_controlplane::Controller`]: it reads
//! the shared [`TelemetrySnapshot`] and returns typed [`Action`]s, so
//! it runs under the [`ic_controlplane::ControlPlane`] alongside the
//! governor, capping, and failover controllers. The Table XI runner
//! ([`crate::runner::Runner`]) drives it the same way, alone on a
//! [`ic_controlplane::FleetWorld`].

use crate::policy::{AscConfig, Policy, ScalingMetric};
use ic_controlplane::{Action, Controller, FreqTarget, Outcome, TelemetrySnapshot};
use ic_obs::flight::TraceLevel;
use ic_obs::json::Value;
use ic_obs::ObsSinks;
use ic_sim::stats::SlidingWindow;
use ic_sim::time::{SimDuration, SimTime};
use ic_telemetry::counters::CounterSample;
use ic_telemetry::eq1::{min_frequency_for_threshold, predict_utilization};
use std::collections::HashMap;

/// What the controller did in one decision step (for tracing and
/// figure generation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepTrace {
    /// Decision timestamp.
    pub at: SimTime,
    /// Fleet-average utilization over the last decision period.
    pub instant_util: f64,
    /// Long-window (scale-out) mean utilization.
    pub out_window_util: f64,
    /// Short-window (scale-up) mean utilization.
    pub up_window_util: f64,
    /// The frequency ratio in force after this step.
    pub freq_ratio: f64,
    /// Active VM count after this step (excludes pending creations).
    pub active_vms: usize,
    /// `true` if a scale-out was initiated in this step.
    pub scaled_out: bool,
    /// `true` if a VM was removed in this step.
    pub scaled_in: bool,
}

/// The auto-scaler controller.
pub struct AutoScaler {
    config: AscConfig,
    policy: Policy,
    out_window: SlidingWindow,
    up_window: SlidingWindow,
    last_samples: HashMap<u64, CounterSample>,
    pending_ready_at: Option<SimTime>,
    last_topology_change: Option<SimTime>,
    current_ratio: f64,
    scale_outs: u32,
    scale_ins: u32,
    last_step: Option<StepTrace>,
    sinks: ObsSinks,
}

impl std::fmt::Debug for AutoScaler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AutoScaler")
            .field("policy", &self.policy)
            .field("current_ratio", &self.current_ratio)
            .field("pending", &self.pending_ready_at)
            .finish()
    }
}

impl AutoScaler {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`AscConfig::validate`]).
    pub fn new(config: AscConfig, policy: Policy) -> Self {
        config.validate();
        AutoScaler {
            out_window: SlidingWindow::new(SimDuration::from_secs_f64(config.out_window_s)),
            up_window: SlidingWindow::new(SimDuration::from_secs_f64(config.up_window_s)),
            config,
            policy,
            last_samples: HashMap::new(),
            pending_ready_at: None,
            last_topology_change: None,
            current_ratio: 1.0,
            scale_outs: 0,
            scale_ins: 0,
            last_step: None,
            sinks: ObsSinks::none(),
        }
    }

    /// Attaches the observability bundle. With a flight recorder, every
    /// controller transition — scale-out initiation/completion,
    /// scale-in, frequency change — is recorded as an instant with its
    /// Equation-1 inputs and outputs, and each decision step leaves a
    /// `Debug`-level instant, so scale decisions line up with engine
    /// phases and runner windows in the exported trace. Counting the
    /// `asc/step`, `asc/scale_out` and `asc/scale_in` instants
    /// ([`ic_obs::FlightRecorder::counts_by_kind`]) gives the run's
    /// decision totals. Detached, no field list is built.
    pub fn attach_sinks(&mut self, sinks: ObsSinks) {
        self.sinks = sinks;
    }

    /// Emits one auto-scaler instant; `fields` runs only when a flight
    /// recorder is attached.
    fn emit(
        &self,
        now: SimTime,
        level: TraceLevel,
        kind: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, Value)>,
    ) {
        self.sinks.instant(now, "asc", level, kind, fields);
    }

    /// The policy in force.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// The current frequency ratio.
    pub fn current_ratio(&self) -> f64 {
        self.current_ratio
    }

    /// Total scale-outs initiated.
    pub fn scale_outs(&self) -> u32 {
        self.scale_outs
    }

    /// Total scale-ins performed.
    pub fn scale_ins(&self) -> u32 {
        self.scale_ins
    }

    /// `true` while a VM creation is in flight.
    pub fn scale_out_pending(&self) -> bool {
        self.pending_ready_at.is_some()
    }

    /// The most recent decision step, if any (harnesses read this after
    /// each control-plane tick to collect their series).
    pub fn last_step(&self) -> Option<StepTrace> {
        self.last_step
    }

    /// OC-A frequency selection: Equation 1 picks the minimum ratio
    /// keeping short-window utilization at or below the scale-up
    /// threshold; if none suffices, the top bin; below the scale-down
    /// threshold, relax toward the cheapest sufficient bin.
    fn oc_a_ratio(&self, up_util: f64, productivity: f64) -> f64 {
        let util_at_base = predict_utilization(
            up_util.clamp(0.0, 1.0),
            productivity,
            self.current_ratio,
            1.0,
        )
        .clamp(0.0, 1.0);
        if up_util > self.config.scale_up_threshold {
            min_frequency_for_threshold(
                util_at_base,
                productivity,
                1.0,
                &self.config.freq_ratios,
                self.config.scale_up_threshold,
            )
            .unwrap_or_else(|| self.config.max_ratio())
        } else if up_util < self.config.scale_down_threshold {
            // Load is light: pick the cheapest bin that still keeps the
            // (rescaled) utilization under the scale-up threshold.
            min_frequency_for_threshold(
                util_at_base,
                productivity,
                1.0,
                &self.config.freq_ratios,
                self.config.scale_up_threshold,
            )
            .unwrap_or_else(|| self.config.max_ratio())
        } else {
            // In the hysteresis band: hold.
            self.current_ratio
        }
    }

    fn reset_windows(&mut self) {
        self.out_window = SlidingWindow::new(SimDuration::from_secs_f64(self.config.out_window_s));
        self.up_window = SlidingWindow::new(SimDuration::from_secs_f64(self.config.up_window_s));
    }
}

impl Controller for AutoScaler {
    fn name(&self) -> &'static str {
        "asc"
    }

    /// One decision step over the shared snapshot. Emits the same trace
    /// stream as ever; the returned actions land on the world in
    /// decision order (scale first, then any frequency change).
    fn observe(&mut self, snapshot: &TelemetrySnapshot) -> Vec<Action> {
        let now = snapshot.now;
        let mut actions = Vec::new();

        // Drop samples for VMs that vanished outside this controller's
        // control (failover migrations in composed worlds). A no-op in
        // standalone runs: scale-in already removes its victim's sample.
        if self.last_samples.len() > snapshot.vms.len() {
            self.last_samples
                .retain(|&vm, _| snapshot.vms.iter().any(|v| v.vm == vm));
        }

        // Telemetry: per-VM utilization and productivity over the last
        // period.
        let mut total_util = 0.0;
        let mut d_aperf = 0.0;
        let mut d_pperf = 0.0;
        for v in &snapshot.vms {
            if let Some(prev) = self.last_samples.get(&v.vm) {
                let delta = v.sample.since(prev);
                // Busy-core utilization in [0, 1] (busy core-seconds
                // over vcores × wall), 0 for a zero-length interval —
                // the same definition as
                // `ClientServerSim::utilization_since`.
                let wall = delta.d_wall_seconds();
                if wall > 0.0 {
                    total_util +=
                        (delta.d_busy_seconds() / (v.vcores as f64 * wall)).clamp(0.0, 1.0);
                }
                d_aperf += delta.d_aperf();
                d_pperf += delta.d_pperf();
            }
            self.last_samples.insert(v.vm, v.sample);
        }
        let active = &snapshot.vms;
        let instant_util = if active.is_empty() {
            0.0
        } else {
            match self.config.metric {
                ScalingMetric::Utilization => total_util / active.len() as f64,
                ScalingMetric::QueueLength => {
                    // Queue depth per vcore, squashed into [0, 1) so the
                    // 0–1 thresholds stay meaningful.
                    let queued: usize = active.iter().map(|v| v.queue_depth).sum();
                    let vcores: u32 = active.iter().map(|v| v.vcores).sum();
                    let q = queued as f64 / vcores.max(1) as f64;
                    q / (q + 1.0)
                }
            }
        };
        let productivity = if d_aperf > 0.0 {
            (d_pperf / d_aperf).clamp(0.0, 1.0)
        } else {
            1.0
        };

        self.out_window.record(now, instant_util);
        self.up_window.record(now, instant_util);
        let out_util = self.out_window.mean().unwrap_or(0.0);
        let up_util = self.up_window.mean().unwrap_or(0.0);

        // Scale-out / scale-in (all policies).
        let mut scaled_out = false;
        let mut scaled_in = false;
        let cooled_down = self
            .last_topology_change
            .is_none_or(|at| (now - at).as_secs_f64() >= self.config.cooldown_s);
        // The predictive policy scales out on the *forecast* utilization
        // one creation-latency ahead, not just the trailing mean.
        let out_signal = if self.policy == Policy::Predictive {
            self.out_window
                .forecast(self.config.scale_out_latency_s)
                .unwrap_or(0.0)
                .max(out_util)
        } else {
            out_util
        };
        if self.pending_ready_at.is_none() && cooled_down {
            if out_signal > self.config.scale_out_threshold && active.len() < self.config.max_vms {
                // The control plane defers the maturation by the
                // action's latency.
                let latency = SimDuration::from_secs_f64(self.config.scale_out_latency_s);
                self.pending_ready_at = Some(now + latency);
                self.scale_outs += 1;
                scaled_out = true;
                actions.push(Action::ScaleOut {
                    latency,
                    interference: self.config.scale_out_interference,
                });
                self.emit(now, TraceLevel::Info, "scale_out", || {
                    vec![
                        ("out_signal", Value::F64(out_signal)),
                        ("threshold", Value::F64(self.config.scale_out_threshold)),
                        ("active_vms", Value::U64(active.len() as u64)),
                        ("latency_s", Value::F64(self.config.scale_out_latency_s)),
                    ]
                });
            } else if out_util < self.config.scale_in_threshold
                && active.len() > self.config.min_vms
            {
                if let Some(v) = active.last() {
                    let vm = v.vm;
                    actions.push(Action::ScaleIn { vm });
                    self.last_samples.remove(&vm);
                    self.scale_ins += 1;
                    scaled_in = true;
                    self.last_topology_change = Some(now);
                    self.reset_windows();
                    self.emit(now, TraceLevel::Info, "scale_in", || {
                        vec![
                            ("vm", Value::U64(vm)),
                            ("out_util", Value::F64(out_util)),
                            ("threshold", Value::F64(self.config.scale_in_threshold)),
                            ("active_vms", Value::U64((active.len() - 1) as u64)),
                        ]
                    });
                }
            }
        }

        // Scale-up / scale-down (policy-specific).
        let new_ratio = match self.policy {
            Policy::Baseline | Policy::Predictive => 1.0,
            Policy::OcE => {
                if self.pending_ready_at.is_some() {
                    self.config.max_ratio()
                } else {
                    1.0
                }
            }
            Policy::OcA => self.oc_a_ratio(up_util, productivity),
        };
        if (new_ratio - self.current_ratio).abs() > 1e-12 {
            // Equation 1's inputs justify the transition: what the
            // short-window utilization projects to at the base frequency
            // determines the minimum sufficient ratio.
            let util_at_base = predict_utilization(
                up_util.clamp(0.0, 1.0),
                productivity,
                self.current_ratio,
                1.0,
            )
            .clamp(0.0, 1.0);
            self.emit(now, TraceLevel::Info, "freq_change", || {
                vec![
                    ("old_ratio", Value::F64(self.current_ratio)),
                    ("new_ratio", Value::F64(new_ratio)),
                    ("up_util", Value::F64(up_util)),
                    ("productivity", Value::F64(productivity)),
                    ("util_at_base", Value::F64(util_at_base)),
                ]
            });
            self.current_ratio = new_ratio;
            actions.push(Action::SetFrequency {
                target: FreqTarget::Fleet,
                ratio: new_ratio,
            });
        }

        let step = StepTrace {
            at: now,
            instant_util,
            out_window_util: out_util,
            up_window_util: up_util,
            freq_ratio: self.current_ratio,
            active_vms: active.len() - scaled_in as usize,
            scaled_out,
            scaled_in,
        };
        self.emit(now, TraceLevel::Debug, "step", || {
            vec![
                ("instant_util", Value::F64(step.instant_util)),
                ("out_util", Value::F64(step.out_window_util)),
                ("up_util", Value::F64(step.up_window_util)),
                ("productivity", Value::F64(productivity)),
                ("freq_ratio", Value::F64(step.freq_ratio)),
                ("active_vms", Value::U64(step.active_vms as u64)),
            ]
        });
        self.last_step = Some(step);
        actions
    }

    /// Completes a matured scale-out: restores full capacity, restarts
    /// the windows (utilization steps down; stale samples would
    /// immediately re-trigger), and hands the newborn VM the fleet's
    /// current frequency ratio.
    fn applied(&mut self, now: SimTime, action: &Action, outcome: &Outcome) -> Vec<Action> {
        match (action, outcome) {
            (Action::ScaleOut { .. }, Outcome::VmCreated { vm }) => {
                self.pending_ready_at = None;
                self.last_topology_change = Some(now);
                self.reset_windows();
                // `last_samples` holds exactly the pre-maturation active
                // set (every active VM is sampled every step, and no
                // topology change can interleave while a creation is
                // pending), so the post-maturation count is len + 1.
                let active_vms = self.last_samples.len() as u64 + 1;
                self.emit(now, TraceLevel::Info, "scale_out_complete", || {
                    vec![
                        ("vm", Value::U64(*vm)),
                        ("active_vms", Value::U64(active_vms)),
                        ("freq_ratio", Value::F64(self.current_ratio)),
                    ]
                });
                vec![
                    Action::SetFrequency {
                        target: FreqTarget::Vm(*vm),
                        ratio: self.current_ratio,
                    },
                    // Image transfer over: restore full capacity.
                    Action::SetShare { share: 1.0 },
                ]
            }
            (Action::ScaleOut { .. }, Outcome::Rejected { .. }) => {
                // A composed world may decline the maturation (cluster
                // out of capacity). Clear the pending creation so the
                // scaler can retry instead of wedging; peers get their
                // full share back.
                self.pending_ready_at = None;
                vec![Action::SetShare { share: 1.0 }]
            }
            _ => Vec::new(),
        }
    }

    ic_controlplane::impl_controller_downcast!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{asc_plane, RunnerConfig, Schedule};
    use ic_controlplane::{ControlPlane, ControllerId, FleetWorld};

    /// The auto-scaler alone on a [`FleetWorld`], wired as the runner
    /// wires it.
    struct Harness {
        plane: ControlPlane<FleetWorld>,
        id: ControllerId,
    }

    impl Harness {
        /// `vms` serving VMs of the test workload (2.8 ms mean demand,
        /// SCV 1.5, 4 vcores) under `schedule`.
        fn new(
            config: AscConfig,
            policy: Policy,
            vms: usize,
            schedule: Schedule,
            seed: u64,
        ) -> Self {
            let run = RunnerConfig {
                asc: config.clone(),
                service_scv: 1.5,
                initial_vms: vms,
                schedule,
                ..RunnerConfig::paper()
            };
            let (plane, id) = asc_plane(&run, AutoScaler::new(config, policy), seed);
            Harness { plane, id }
        }

        /// `vms` VMs under a constant `qps` with the paper config.
        fn paper(policy: Policy, vms: usize, qps: f64, seed: u64) -> Self {
            Harness::new(AscConfig::paper(), policy, vms, vec![(0.0, qps)], seed)
        }

        fn asc(&self) -> &AutoScaler {
            self.plane
                .controller(self.id)
                .expect("the harness registers the auto-scaler")
        }

        /// Runs 3-second decision windows for `seconds`, returning each
        /// window's step.
        fn drive(&mut self, seconds: u64) -> Vec<StepTrace> {
            let end = self.plane.now() + SimDuration::from_secs(seconds);
            let mut traces = Vec::new();
            while self.plane.now() < end {
                let t = self.plane.now() + SimDuration::from_secs(3);
                self.plane.run_until(t);
                traces.push(self.asc().last_step().expect("tick ran"));
            }
            traces
        }
    }

    #[test]
    fn baseline_scales_out_under_load() {
        // 1 VM at 1000 QPS → util 0.70 > 0.50 → scale out.
        let mut h = Harness::paper(Policy::Baseline, 1, 1000.0, 1);
        let traces = h.drive(300);
        assert!(h.asc().scale_outs() >= 1);
        assert_eq!(traces.last().unwrap().active_vms, 2);
        // Baseline never overclocks.
        assert!(traces.iter().all(|t| t.freq_ratio == 1.0));
    }

    #[test]
    fn scale_out_takes_60_seconds() {
        let mut h = Harness::paper(Policy::Baseline, 1, 1000.0, 2);
        let traces = h.drive(300);
        let initiated = traces.iter().find(|t| t.scaled_out).unwrap().at;
        let completed = traces.iter().find(|t| t.active_vms == 2).unwrap().at;
        let latency = (completed - initiated).as_secs_f64();
        assert!(
            (60.0..66.1).contains(&latency),
            "creation latency {latency}s"
        );
    }

    #[test]
    fn baseline_scales_in_when_idle() {
        let mut h = Harness::paper(Policy::Baseline, 3, 100.0, 3); // util ~0.023 << 0.20
        let traces = h.drive(600);
        assert!(h.asc().scale_ins() >= 2);
        assert_eq!(traces.last().unwrap().active_vms, 1);
    }

    #[test]
    fn never_scales_below_min_vms() {
        let mut h = Harness::paper(Policy::Baseline, 1, 10.0, 4);
        let traces = h.drive(600);
        assert!(traces.iter().all(|t| t.active_vms >= 1));
    }

    #[test]
    fn oce_overclocks_only_during_scale_out() {
        let mut h = Harness::paper(Policy::OcE, 1, 1000.0, 5);
        let traces = h.drive(400);
        let max_ratio = AscConfig::paper().max_ratio();
        // While pending: max ratio; once the VM lands and load spreads:
        // back to 1.0.
        assert!(traces
            .iter()
            .any(|t| (t.freq_ratio - max_ratio).abs() < 1e-9));
        assert_eq!(traces.last().unwrap().freq_ratio, 1.0);
        assert_eq!(traces.last().unwrap().active_vms, 2);
    }

    #[test]
    fn oca_holds_utilization_with_frequency_instead_of_vms() {
        // 1 VM at 800 QPS: util 0.56 at base. OC-A can push it to
        // 0.56×(0.9/1.206+0.1) ≈ 0.47 < 0.50, avoiding scale-out.
        let mut h = Harness::paper(Policy::OcA, 1, 800.0, 6);
        let traces = h.drive(600);
        assert_eq!(h.asc().scale_outs(), 0, "OC-A should avoid scaling out");
        assert_eq!(traces.last().unwrap().active_vms, 1);
        assert!(traces.last().unwrap().freq_ratio > 1.1);
        // And the achieved utilization sits near/below the out threshold.
        assert!(traces.last().unwrap().up_window_util < 0.52);
    }

    #[test]
    fn oca_scales_down_when_load_fades() {
        // 800 QPS, then util collapses at 100 QPS from t = 300 s.
        let schedule = vec![(0.0, 800.0), (300.0, 100.0)];
        let mut h = Harness::new(AscConfig::paper(), Policy::OcA, 1, schedule, 7);
        h.drive(300);
        assert!(h.asc().current_ratio() > 1.1);
        h.drive(300);
        assert_eq!(h.asc().current_ratio(), 1.0);
    }

    #[test]
    fn oca_still_scales_out_when_frequency_is_not_enough() {
        // 1 VM at 1600 QPS: even at the top bin, util ≈ 1.12×0.83 ≈ 0.93
        // > 0.50 → the scale-out rule fires.
        let mut h = Harness::paper(Policy::OcA, 1, 1600.0, 8);
        let traces = h.drive(400);
        assert!(h.asc().scale_outs() >= 1);
        assert!(traces.last().unwrap().active_vms >= 2);
    }

    #[test]
    fn predictive_scales_out_earlier_than_baseline() {
        // Under a steadily rising load, the forecast crosses the
        // threshold before the trailing mean does.
        let run = |policy: Policy| {
            // Ramp the load 10 QPS every 15 s.
            let schedule = (0..200)
                .step_by(5)
                .map(|i| (i as f64 * 3.0, 400.0 + i as f64 * 10.0))
                .collect();
            let mut h = Harness::new(AscConfig::paper(), policy, 1, schedule, 21);
            h.drive(600)
                .iter()
                .find(|t| t.scaled_out)
                .map(|t| t.at.as_secs_f64())
        };
        let baseline = run(Policy::Baseline);
        let predictive = run(Policy::Predictive);
        match (predictive, baseline) {
            (Some(p), Some(b)) => assert!(p < b, "predictive {p} vs baseline {b}"),
            (Some(_), None) => {} // predictive fired, baseline never did: fine
            other => panic!("unexpected outcome {other:?}"),
        }
    }

    #[test]
    fn queue_length_metric_scales_out_under_backlog() {
        // Saturating load builds queues; the queue metric must trigger a
        // scale-out even though we never read CPU utilization.
        let mut cfg = AscConfig::paper();
        cfg.metric = ScalingMetric::QueueLength;
        // Offered load > 1 VM's capacity.
        let mut h = Harness::new(cfg, Policy::Baseline, 1, vec![(0.0, 1600.0)], 33);
        let traces = h.drive(400);
        assert!(h.asc().scale_outs() >= 1, "queue metric should fire");
        // Queue-length control is bang-bang: once the new VM drains the
        // backlog the signal collapses and the controller may scale back
        // in — assert the peak, not the endpoint.
        let peak = traces.iter().map(|t| t.active_vms).max().unwrap();
        assert!(peak >= 2, "peak VMs {peak}");
    }

    #[test]
    fn queue_length_metric_stays_quiet_when_uncongested() {
        let mut cfg = AscConfig::paper();
        cfg.metric = ScalingMetric::QueueLength;
        // Utilization 0.56 would trip the 0.50 utilization threshold,
        // but with 4 cores the queue stays near-empty at this load.
        let mut h = Harness::new(cfg, Policy::Baseline, 1, vec![(0.0, 800.0)], 34);
        h.drive(400);
        assert_eq!(h.asc().scale_outs(), 0, "no backlog, no scale-out");
    }

    #[test]
    fn predictive_never_overclocks() {
        let mut h = Harness::paper(Policy::Predictive, 1, 1000.0, 22);
        let traces = h.drive(300);
        assert!(traces.iter().all(|t| t.freq_ratio == 1.0));
        assert!(h.asc().scale_outs() >= 1);
    }

    #[test]
    fn one_scale_out_at_a_time() {
        let mut h = Harness::paper(Policy::Baseline, 1, 4000.0, 9);
        let traces = h.drive(63);
        // Only one initiation can be pending in the first minute.
        assert_eq!(traces.iter().filter(|t| t.scaled_out).count(), 1);
    }

    #[test]
    fn new_vms_inherit_the_current_ratio() {
        let mut h = Harness::paper(Policy::OcA, 1, 1600.0, 10);
        h.drive(400);
        let sim = h.plane.world().sim();
        for vm in sim.active_vms() {
            assert!(
                (sim.freq_ratio(vm) - h.asc().current_ratio()).abs() < 1e-9,
                "vm {vm} ratio"
            );
        }
    }
}
