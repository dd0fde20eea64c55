//! The composed control-plane experiment: every stock controller on
//! one clock.
//!
//! Runs [`ic_controlplane::FleetWorld`] under the full controller set —
//! the auto-scaler (ic-autoscale), priority power capping (ic-power),
//! the overclock governor (ic-core), a scripted server failure, and the
//! failover/virtual-buffer controller — each at its own cadence on the
//! [`ic_controlplane::ControlPlane`] scheduler. The run demonstrates
//! the paper's Section VI end-state: capping squeezes the batch
//! domain, the governor re-derives the safe frequency from its grant,
//! the ASC compensates with placement, and a mid-run server failure is
//! absorbed by boosting the survivors (Section V-B's virtual buffer).
//!
//! Everything derives from one seed; the run is a pure function of its
//! configuration, so records are byte-identical across worker counts.

use crate::report::Metric;
use ic_autoscale::asc::AutoScaler;
use ic_autoscale::policy::{AscConfig, Policy};
use ic_chaos::{
    ChaosController, DegradationController, DegradationPolicy, FaultProcess, LatencySlo, SloInputs,
    SloScorecard, StalledController,
};
use ic_controlplane::controllers::{
    FailoverController, GovernorController, PowerCapController, ScriptController,
};
use ic_controlplane::{
    Action, ControlPlane, Controller, ControllerId, FaultPlan, FleetConfigBuilder, FleetWorld,
    World,
};
use ic_core::governor::{GovernorConfig, OverclockGovernor};
use ic_obs::flight::FlightHandle;
use ic_obs::ObsSinks;
use ic_power::capping::PowerAllocator;
use ic_power::cpu::CpuSku;
use ic_power::units::Frequency;
use ic_reliability::lifetime::CompositeLifetimeModel;
use ic_reliability::stability::StabilityModel;
use ic_scenario::FaultConfig;
use ic_sim::rng::StreamVersion;
use ic_sim::stats::Tally;
use ic_sim::time::{SimDuration, SimTime};
use ic_thermal::fluid::DielectricFluid;
use ic_thermal::junction::ThermalInterface;

/// The workload seed shared by render and record paths.
const SEED: u64 = 42;

/// Cadences, seconds: the ASC decides fast; power/governor re-plan
/// slowly; fault script and failover watch in between.
const CAP_PERIOD_S: u64 = 30;
const WATCH_PERIOD_S: u64 = 15;

/// The tank governor for the composed fleet (the paper's 2PIC
/// HFE-7000 Skylake socket).
fn governor() -> OverclockGovernor {
    OverclockGovernor::new(
        CpuSku::skylake_8180(),
        ThermalInterface::two_phase(DielectricFluid::hfe7000(), 0.084, 0.0),
        CompositeLifetimeModel::fitted_5nm(),
        StabilityModel::paper_characterization(),
        GovernorConfig::default(),
    )
}

/// Per-fleet chaos overrides for [`composed_run_with`]: swaps the
/// scripted single failure for the wear-coupled fault process plus the
/// degradation controller, and schedules the scenario's exogenous
/// control-plane faults (frozen telemetry, sensor dropouts, stalls).
pub(crate) struct ChaosSetup {
    pub(crate) faults: FaultConfig,
    pub(crate) requested_ghz: f64,
    /// The service-life target the governor trades frequency against —
    /// the paper's overclocked configs buy their headroom by shortening
    /// this (Section IV).
    pub(crate) target_lifetime_years: f64,
    pub(crate) budget_w: f64,
    /// Per-domain power ask — overclocking needs the headroom actually
    /// requested, or the allocator's grant power-binds the governor.
    pub(crate) domain_demand_w: f64,
    pub(crate) voltage_offset_v: f64,
    /// The *true* stability envelope driving the fault process's
    /// correctable-error rate.
    pub(crate) stability: StabilityModel,
    /// The envelope the governor *believes* — the overclocked fleet's
    /// operator validates a laxer characterization, and the gap between
    /// claimed and true envelope is what the chaos run measures.
    pub(crate) governor_stability: StabilityModel,
    pub(crate) policy: DegradationPolicy,
    pub(crate) slo: LatencySlo,
    /// The auto-scaler strategy: the baseline fleet scales out at fixed
    /// frequency, the overclocked fleet runs OC-A with its selectable
    /// bins capped at the governor's grant — otherwise the ASC, not the
    /// governor, decides how hot the fleet runs.
    pub(crate) asc_policy: Policy,
}

/// What a chaos-enabled run reports on top of [`ComposedRun`].
pub(crate) struct ChaosOutcome {
    pub(crate) scorecard: SloScorecard,
    pub(crate) stalled_ticks: u64,
    pub(crate) deocs: u32,
    pub(crate) drains: u32,
    pub(crate) injected_failures: u64,
    pub(crate) injected_bursts: u64,
}

/// Everything the render and the record report about one composed run.
pub(crate) struct ComposedRun {
    pub(crate) end_s: f64,
    pub(crate) fail_at_s: f64,
    pub(crate) repair_at_s: f64,
    pub(crate) p95_latency_s: f64,
    pub(crate) avg_latency_s: f64,
    pub(crate) completed: u64,
    pub(crate) sim_events: u64,
    pub(crate) cp_ticks: u64,
    pub(crate) vms_end: usize,
    pub(crate) parked_end: usize,
    pub(crate) failed_end: usize,
    /// `(domain, granted watts)` at the horizon, domain order.
    pub(crate) grants: Vec<(u64, f64)>,
    pub(crate) budget_w: f64,
    pub(crate) governor_ghz: f64,
    pub(crate) governor_binding: String,
    pub(crate) boost_engaged: bool,
    pub(crate) chaos: Option<ChaosOutcome>,
}

/// Wraps `ctl` in a [`StalledController`] when the chaos scenario
/// names it; the default path hands the box back untouched.
fn wrap_stalled(ctl: Box<dyn Controller>, chaos: Option<&ChaosSetup>) -> Box<dyn Controller> {
    let Some(setup) = chaos else { return ctl };
    let windows: Vec<ic_scenario::FaultWindow> = setup
        .faults
        .stalled_controllers
        .iter()
        .filter(|s| s.controller == ctl.name())
        .map(|s| s.window)
        .collect();
    if windows.is_empty() {
        ctl
    } else {
        Box::new(StalledController::from_windows(ctl, &windows))
    }
}

/// Looks up a registered controller that the stall fault may have
/// wrapped: try the direct downcast first, then through the wrapper.
fn controller_as<T: 'static>(plane: &ControlPlane<FleetWorld>, id: ControllerId) -> Option<&T> {
    plane.controller::<T>(id).or_else(|| {
        plane
            .controller::<StalledController>(id)
            .and_then(|s| s.inner_as::<T>())
    })
}

/// Runs the composed experiment. `quick` halves the schedule dwell;
/// `flight` routes the control plane's tick instants (and the world's
/// sinks, were any attached) into the recorder without touching the
/// numbers.
fn composed_run(version: StreamVersion, quick: bool, flight: Option<&FlightHandle>) -> ComposedRun {
    composed_run_with(version, quick, flight, None)
}

/// [`composed_run`] with an optional chaos setup. `chaos: None` is the
/// stock composed pipeline, bit for bit; `chaos: Some` replaces the
/// scripted failure with the wear-coupled [`ChaosController`] +
/// [`DegradationController`] pair in the same registration slot and
/// schedules the scenario's exogenous control-plane faults.
pub(crate) fn composed_run_with(
    version: StreamVersion,
    quick: bool,
    flight: Option<&FlightHandle>,
    chaos: Option<&ChaosSetup>,
) -> ComposedRun {
    let mut config = FleetConfigBuilder::small(SEED).build();
    config.rng_stream = version;
    if quick {
        config.schedule = config
            .schedule
            .iter()
            .map(|&(t, qps)| (t / 2.0, qps))
            .collect();
    }
    let dwell_s = if quick { 150.0 } else { 300.0 };
    let last_s = config.schedule.last().map(|&(t, _)| t).unwrap_or(0.0);
    let end_s = last_s + dwell_s;
    // The failure lands mid-ramp; the repair arrives one dwell later,
    // leaving a full window of degraded operation.
    let fail_at_s = 1.5 * dwell_s;
    let repair_at_s = 2.5 * dwell_s;
    if let Some(setup) = chaos {
        config.budget_w = setup.budget_w;
        for domain in &mut config.domains {
            domain.demand_w = setup.domain_demand_w;
        }
        config.faults = Some(setup.faults.clone());
    }
    let budget_w = config.budget_w;
    let servers = config.servers;

    let requested_ghz = chaos.map_or(4.1, |c| c.requested_ghz);
    let gov = match chaos {
        None => governor(),
        Some(setup) => OverclockGovernor::new(
            CpuSku::skylake_8180(),
            ThermalInterface::two_phase(DielectricFluid::hfe7000(), 0.084, 0.0),
            CompositeLifetimeModel::fitted_5nm(),
            setup.governor_stability,
            GovernorConfig {
                target_lifetime_years: setup.target_lifetime_years,
                ..GovernorConfig::default()
            },
        ),
    };
    // The ratio the failover restores to when the fleet heals: base for
    // the stock run, the governor's unconstrained-power grant under
    // chaos — the governor only re-issues on change, so a restore to
    // base would silently de-overclock the fleet for the rest of the
    // run after the first repair.
    let restore_ratio = match chaos {
        None => 1.0,
        Some(setup) => gov
            .decide(Frequency::from_ghz(setup.requested_ghz), setup.budget_w)
            .frequency
            .ratio_to(Frequency::from_ghz(3.4)),
    };

    let mut asc_cfg = AscConfig::paper();
    if chaos.is_some() {
        // The operator configures the ASC with the same envelope the
        // governor validated: selectable bins stop at the grant.
        asc_cfg.freq_ratios.retain(|&r| r <= restore_ratio + 1e-9);
        if asc_cfg.freq_ratios.is_empty() {
            asc_cfg.freq_ratios.push(1.0);
        }
    }
    let asc_policy = chaos.map_or(Policy::OcA, |c| c.asc_policy);
    let asc_period = SimDuration::from_secs_f64(asc_cfg.decision_period_s);
    let mut asc = AutoScaler::new(asc_cfg, asc_policy);
    if let Some(flight) = flight {
        asc.attach_sinks(ObsSinks::none().with_flight(flight.clone()));
    }

    let world = FleetWorld::new(config);
    let mut plane = ControlPlane::new(world);
    if let Some(flight) = flight {
        plane.attach_sinks(ObsSinks::none().with_flight(flight.clone()));
    }
    let _asc_id = plane.register(Box::new(asc), asc_period);
    // Capping must precede the governor at shared instants so grants
    // land before the governor reads them.
    let cap_id = plane.register(
        wrap_stalled(
            Box::new(PowerCapController::new(PowerAllocator::new(budget_w))),
            chaos,
        ),
        SimDuration::from_secs(CAP_PERIOD_S),
    );
    let gov_id = plane.register(
        wrap_stalled(
            Box::new(GovernorController::new(
                gov,
                Frequency::from_ghz(requested_ghz),
                Frequency::from_ghz(3.4),
            )),
            chaos,
        ),
        SimDuration::from_secs(CAP_PERIOD_S),
    );
    let mut chaos_ids: Option<(ControllerId, ControllerId)> = None;
    match chaos {
        None => {
            let _script_id = plane.register(
                Box::new(
                    ScriptController::new(vec![
                        (
                            SimTime::from_secs_f64(fail_at_s),
                            Action::FailServer { server: 0 },
                        ),
                        (
                            SimTime::from_secs_f64(repair_at_s),
                            Action::RepairServer { server: 0 },
                        ),
                    ])
                    .expect("script events are time-sorted"),
                ),
                SimDuration::from_secs(WATCH_PERIOD_S),
            );
        }
        Some(setup) => {
            let process = FaultProcess::new(
                setup.faults.clone(),
                servers,
                CompositeLifetimeModel::fitted_5nm(),
                setup.stability,
            );
            let chaos_id = plane.register(
                Box::new(ChaosController::new(
                    process,
                    CpuSku::skylake_8180(),
                    ThermalInterface::two_phase(DielectricFluid::hfe7000(), 0.084, 0.0),
                    Frequency::from_ghz(3.4),
                    setup.voltage_offset_v,
                )),
                SimDuration::from_secs(WATCH_PERIOD_S),
            );
            let deg_id = plane.register(
                Box::new(DegradationController::new(setup.policy)),
                SimDuration::from_secs(WATCH_PERIOD_S),
            );
            chaos_ids = Some((chaos_id, deg_id));
        }
    }
    // The stock run boosts survivors by the paper's full +20 % virtual
    // buffer; the chaos fleets run the conservative +10 % setting — the
    // wear process is live, and the full buffer sits deep in the true
    // envelope's error-growth region.
    let boost_ratio = if chaos.is_some() { 1.1 } else { 1.2 };
    let fo_id = plane.register(
        wrap_stalled(
            Box::new(FailoverController::with_restore(boost_ratio, restore_ratio)),
            chaos,
        ),
        SimDuration::from_secs(WATCH_PERIOD_S),
    );
    if let Some(setup) = chaos {
        let mut entries: Vec<(SimTime, Action)> = Vec::new();
        for w in &setup.faults.stale_telemetry {
            entries.push((
                SimTime::from_secs_f64(w.from_s),
                Action::FreezeTelemetry {
                    until: SimTime::from_secs_f64(w.until_s),
                },
            ));
        }
        for d in &setup.faults.sensor_dropouts {
            entries.push((
                SimTime::from_secs_f64(d.window.from_s),
                Action::DropVmSensor {
                    vm: d.vm,
                    until: SimTime::from_secs_f64(d.window.until_s),
                },
            ));
        }
        if !entries.is_empty() {
            plane.schedule_faults(FaultPlan::new(entries));
        }
    }

    plane.run_until(SimTime::from_secs_f64(end_s));

    let cp_ticks = plane.ticks_total();
    let decision = controller_as::<GovernorController>(&plane, gov_id)
        .and_then(|g| g.last_decision().cloned())
        .expect("governor ticked at least once");
    let boost_engaged = controller_as::<FailoverController>(&plane, fo_id)
        .map(|f| f.boosted())
        .unwrap_or(false);
    debug_assert!(controller_as::<PowerCapController>(&plane, cap_id).is_some());
    let chaos_counts = chaos_ids.map(|(chaos_id, deg_id)| {
        let (failures, bursts) = controller_as::<ChaosController>(&plane, chaos_id)
            .map(|c| (c.failures_injected(), c.bursts_injected()))
            .unwrap_or((0, 0));
        let (deocs, drains) = controller_as::<DegradationController>(&plane, deg_id)
            .map(|d| (d.deocs(), d.drains()))
            .unwrap_or((0, 0));
        let stalled_ticks: u64 = [cap_id, gov_id, fo_id]
            .into_iter()
            .filter_map(|id| plane.controller::<StalledController>(id))
            .map(|s| s.stalled_ticks())
            .sum();
        (failures, bursts, deocs, drains, stalled_ticks)
    });

    let end = SimTime::from_secs_f64(end_s);
    let mut world = plane.into_world();
    let completions = world.sim_mut().take_completions();
    let mut latencies: Tally = completions.iter().map(|&(_, lat)| lat).collect();
    assert!(!latencies.is_empty(), "composed run completed no requests");
    let avg_latency_s = latencies.mean();
    let p95_latency_s = latencies.percentile(0.95);
    let snap = world.telemetry(end);
    let snap_cluster = snap.cluster.clone().expect("fleet models placement");
    let snap_faults = snap.faults.clone();

    let chaos_outcome = chaos.map(|setup| {
        let (injected_failures, injected_bursts, deocs, drains, stalled_ticks) =
            chaos_counts.unwrap_or((0, 0, 0, 0, 0));
        let (error_bursts, errors_total) = snap_faults
            .as_ref()
            .map(|f| (f.error_bursts, f.errors_by_server.iter().sum::<u64>()))
            .unwrap_or((0, 0));
        let completions_s: Vec<(f64, f64)> = completions
            .iter()
            .map(|&(t, lat)| (t.as_secs_f64(), lat))
            .collect();
        let inputs = SloInputs {
            completions: &completions_s,
            horizon_s: end_s,
            availability: world.availability(end),
            failures: world.failures_applied(),
            recovered_vms: world.recovered_vms(),
            error_bursts,
            errors_total,
        };
        ChaosOutcome {
            scorecard: SloScorecard::compute(&inputs, &setup.slo),
            stalled_ticks,
            deocs,
            drains,
            injected_failures,
            injected_bursts,
        }
    });

    ComposedRun {
        end_s,
        fail_at_s,
        repair_at_s,
        p95_latency_s,
        avg_latency_s,
        completed: world.sim().completed_requests(),
        sim_events: world.sim().events_processed(),
        cp_ticks,
        vms_end: world.sim().active_vms().len(),
        parked_end: world.parked().len(),
        failed_end: snap_cluster.failed_servers.len(),
        grants: world.grants().iter().map(|(&d, &w)| (d, w)).collect(),
        budget_w,
        governor_ghz: decision.frequency.ghz(),
        governor_binding: format!("{:?}", decision.binding),
        boost_engaged,
        chaos: chaos_outcome,
    }
}

/// The composed experiment's human-readable report.
///
/// `version` selects the workload sampler stream:
/// [`StreamVersion::V1`] reproduces the registry's historical
/// `composed` record byte-for-byte, [`StreamVersion::V2`] runs the
/// same control-plane composition on the buffered ziggurat fast path
/// (the `composed_v2` registry entry).
pub fn composed(version: StreamVersion, quick: bool) -> String {
    let r = composed_run(version, quick, None);
    let mut out =
        String::from("== Composed control plane: ASC + capping + governor + failover ==\n");
    out.push_str(&format!(
        "controllers: asc (3 s), powercap ({CAP_PERIOD_S} s), governor ({CAP_PERIOD_S} s), \
         script ({WATCH_PERIOD_S} s), failover ({WATCH_PERIOD_S} s); horizon {:.0} s\n",
        r.end_s
    ));
    out.push_str(&format!(
        "injected: server 0 fails at {:.0} s, repaired at {:.0} s\n",
        r.fail_at_s, r.repair_at_s
    ));
    out.push_str(&format!(
        "requests: {} completed, P95 {:.1} ms, mean {:.1} ms\n",
        r.completed,
        r.p95_latency_s * 1e3,
        r.avg_latency_s * 1e3
    ));
    out.push_str(&format!("power budget {:.0} W:", r.budget_w));
    for (domain, watts) in &r.grants {
        out.push_str(&format!(" domain {domain} -> {watts:.0} W;"));
    }
    out.push('\n');
    out.push_str(&format!(
        "governor: {:.2} GHz on the squeezed grant (binding: {})\n",
        r.governor_ghz, r.governor_binding
    ));
    out.push_str(&format!(
        "end state: {} serving VMs, {} parked, {} failed servers, survivor boost {}\n",
        r.vms_end,
        r.parked_end,
        r.failed_end,
        if r.boost_engaged {
            "engaged"
        } else {
            "released"
        }
    ));
    out.push_str(&format!("control ticks: {}\n", r.cp_ticks));
    out
}

/// Structured record for `run_all --json`. With `flight`, the control
/// plane's tick instants and the ASC's decision events land in it; the
/// record is the same either way.
pub fn composed_record(
    version: StreamVersion,
    quick: bool,
    flight: Option<&FlightHandle>,
) -> (u64, Vec<Metric>) {
    record_from_run(&composed_run(version, quick, flight))
}

/// Assembles the composed record from a finished run. Shared with the
/// chaos experiment's zero-fault differential test, which pins that
/// [`composed_run_with`] without a chaos setup reproduces this record
/// byte-for-byte.
pub(crate) fn record_from_run(r: &ComposedRun) -> (u64, Vec<Metric>) {
    let mut metrics = vec![
        Metric::new("p95_latency_s", "seconds", r.p95_latency_s),
        Metric::new("requests_completed", "count", r.completed as f64),
        Metric::new("cp_ticks", "count", r.cp_ticks as f64),
        Metric::new("governor_ghz", "ghz", r.governor_ghz),
        Metric::new("vms_end", "count", r.vms_end as f64),
        Metric::new("parked_end", "count", r.parked_end as f64),
        Metric::new("failed_servers_end", "count", r.failed_end as f64),
    ];
    for (domain, watts) in &r.grants {
        metrics.push(Metric::new(format!("granted_w[{domain}]"), "watts", *watts));
    }
    (r.sim_events, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn composed_run_is_deterministic_and_recovers() {
        for version in [StreamVersion::V1, StreamVersion::V2] {
            let a = composed_run(version, true, None);
            let b = composed_run(version, true, None);
            assert_eq!(a.p95_latency_s, b.p95_latency_s);
            assert_eq!(a.completed, b.completed);
            assert_eq!(a.sim_events, b.sim_events);
            assert_eq!(a.cp_ticks, b.cp_ticks);
            // The repair landed: no failed servers, no stranded VMs,
            // boost released.
            assert_eq!(a.failed_end, 0);
            assert_eq!(a.parked_end, 0);
            assert!(!a.boost_engaged);
            assert!(a.completed > 0);
            assert!(a.p95_latency_s > 0.0);
        }
    }

    #[test]
    fn v2_reproduces_the_same_steady_state_physics() {
        // The streams differ, so exact values do — but the composed
        // end-state (a throughput-bound fleet under the same capping
        // squeeze) must land in the same place.
        let v1 = composed_run(StreamVersion::V1, true, None);
        let v2 = composed_run(StreamVersion::V2, true, None);
        let rel = (v2.completed as f64 - v1.completed as f64).abs() / v1.completed as f64;
        assert!(rel < 0.01, "completed differ by {rel}");
        assert_eq!(v1.grants.len(), v2.grants.len());
        assert_eq!(v1.failed_end, v2.failed_end);
    }

    #[test]
    fn capping_squeezes_the_batch_domain() {
        let r = composed_run(StreamVersion::V1, true, None);
        assert_eq!(r.grants.len(), 2);
        let (critical, batch) = (r.grants[0].1, r.grants[1].1);
        assert!(critical > batch, "critical {critical} vs batch {batch}");
        assert!(critical + batch <= r.budget_w + 1e-9);
    }

    #[test]
    fn traced_record_matches_untraced() {
        let flight = ic_obs::flight::shared_flight(1 << 16);
        let plain = composed_record(StreamVersion::V1, true, None);
        let traced = composed_record(StreamVersion::V1, true, Some(&flight));
        assert_eq!(plain, traced, "tracing must not change the record");
        let rec = flight.borrow();
        assert!(rec.counts_by_kind().contains_key(&("controlplane", "tick")));
    }
}
