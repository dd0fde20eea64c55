//! The workload compositions, built only from the program's public APIs:
//! `FleetConfigBuilder`/`FleetWorld`, the stock controllers, `ic_chaos`,
//! `ControlPlane`, and `ic_autoscale::runner::Runner` over `ic_par`.
//!
//! The same composition code builds the registry's shapes, so the
//! fidelity tests can pin it to the `composed_v2` and `table11` records
//! of `run_all --json`.

use ic_autoscale::asc::AutoScaler;
use ic_autoscale::policy::{AscConfig, Policy};
use ic_autoscale::runner::{ramp_schedule, RunResult, RunnerConfig};
use ic_chaos::{
    ChaosController, DegradationController, DegradationPolicy, FaultProcess, StalledController,
};
use ic_controlplane::controllers::{
    FailoverController, GovernorController, PowerCapController, ScriptController,
};
use ic_controlplane::{
    Action, ControlPlane, Controller, ControllerId, DomainSpec, FaultPlan, FleetConfig,
    FleetConfigBuilder, FleetWorld, PowerModelSpec, World,
};
use ic_core::governor::{GovernorConfig, OverclockGovernor};
use ic_power::capping::{PowerAllocator, Priority};
use ic_power::cpu::CpuSku;
use ic_power::units::Frequency;
use ic_reliability::lifetime::CompositeLifetimeModel;
use ic_reliability::stability::StabilityModel;
use ic_scenario::{FaultConfig, FaultWindow, SensorDropout, StalledWindow};
use ic_sim::rng::StreamVersion;
use ic_sim::time::{SimDuration, SimTime};
use ic_thermal::fluid::DielectricFluid;
use ic_thermal::junction::ThermalInterface;

use crate::timed::AsFleet;

/// Controller cadences, seconds: the auto-scaler decides fast, capping
/// and the governor re-plan slowly, fault sources and failover watch
/// in between. Every cadence divides the 30 s measurement window.
const CAP_PERIOD_S: u64 = 30;
const WATCH_PERIOD_S: u64 = 15;

/// The frequency telemetry ratio 1.0 refers to.
const BASE_GHZ: f64 = 3.4;

/// Where a fleet's server failures come from.
#[derive(Debug, Clone)]
pub enum Faults {
    /// Scripted `(at, action)` pairs, fired by a `ScriptController`.
    Script(Vec<(SimTime, Action)>),
    /// The wear-coupled fault process plus the degradation response;
    /// the fault windows ride on the config's `FaultConfig`.
    Wear {
        stability: StabilityModel,
        voltage_offset_v: f64,
        policy: DegradationPolicy,
    },
}

/// Everything one fleet run is built from.
#[derive(Debug, Clone)]
pub struct FleetSpec {
    pub config: FleetConfig,
    pub end_s: f64,
    /// The auto-scaler's policy; `None` leaves the auto-scaler out.
    pub asc: Option<Policy>,
    pub governor_stability: StabilityModel,
    pub governor: GovernorConfig,
    pub requested_ghz: f64,
    /// Survivor boost while any server is down.
    pub boost_ratio: f64,
    pub faults: Faults,
}

/// A built run: the plane plus the handles result extraction needs.
pub struct Stack<W: World + 'static> {
    pub plane: ControlPlane<W>,
    pub end: SimTime,
    pub budget_w: f64,
    gov_id: ControllerId,
    chaos_id: Option<ControllerId>,
}

fn tank_iface() -> ThermalInterface {
    ThermalInterface::two_phase(DielectricFluid::hfe7000(), 0.084, 0.0)
}

fn stall_windows(config: &FleetConfig, name: &str) -> Vec<FaultWindow> {
    config.faults.as_ref().map_or_else(Vec::new, |f| {
        f.stalled_controllers
            .iter()
            .filter(|s| s.controller == name)
            .map(|s| s.window)
            .collect()
    })
}

/// Builds the plane for `spec`. `world` wraps the fleet (identity or
/// timed) and `wrap` wraps every controller after any stall fault.
pub fn build<W: World + 'static>(
    spec: &FleetSpec,
    world: impl FnOnce(FleetWorld) -> W,
    wrap: &mut dyn FnMut(Box<dyn Controller>) -> Box<dyn Controller>,
) -> Stack<W> {
    let config = spec.config.clone();
    let budget_w = config.budget_w;
    let servers = config.servers;
    let gov = OverclockGovernor::new(
        CpuSku::skylake_8180(),
        tank_iface(),
        CompositeLifetimeModel::fitted_5nm(),
        spec.governor_stability,
        spec.governor.clone(),
    );
    // Under wear faults the failover restores the governor's
    // unconstrained grant (the governor only re-issues on change), and
    // the auto-scaler's bins stop at that grant.
    let restore_ratio = match spec.faults {
        Faults::Script(_) => 1.0,
        Faults::Wear { .. } => gov
            .decide(Frequency::from_ghz(spec.requested_ghz), budget_w)
            .frequency
            .ratio_to(Frequency::from_ghz(BASE_GHZ)),
    };
    let stalled = |ctl: Box<dyn Controller>, config: &FleetConfig| -> Box<dyn Controller> {
        let windows = stall_windows(config, ctl.name());
        if windows.is_empty() {
            ctl
        } else {
            Box::new(StalledController::from_windows(ctl, &windows))
        }
    };
    let fault_plan = config.faults.as_ref().map(|f| {
        let mut entries: Vec<(SimTime, Action)> = Vec::new();
        for w in &f.stale_telemetry {
            entries.push((
                SimTime::from_secs_f64(w.from_s),
                Action::FreezeTelemetry {
                    until: SimTime::from_secs_f64(w.until_s),
                },
            ));
        }
        for d in &f.sensor_dropouts {
            entries.push((
                SimTime::from_secs_f64(d.window.from_s),
                Action::DropVmSensor {
                    vm: d.vm,
                    until: SimTime::from_secs_f64(d.window.until_s),
                },
            ));
        }
        entries
    });

    let mut plane = ControlPlane::new(world(FleetWorld::new(config.clone())));
    if let Some(policy) = spec.asc {
        let mut asc_cfg = AscConfig::paper();
        if matches!(spec.faults, Faults::Wear { .. }) {
            asc_cfg.freq_ratios.retain(|&r| r <= restore_ratio + 1e-9);
            if asc_cfg.freq_ratios.is_empty() {
                asc_cfg.freq_ratios.push(1.0);
            }
        }
        let period = SimDuration::from_secs_f64(asc_cfg.decision_period_s);
        plane.register(wrap(Box::new(AutoScaler::new(asc_cfg, policy))), period);
    }
    // Capping precedes the governor at shared instants so fresh grants
    // land before the governor reads them.
    plane.register(
        wrap(stalled(
            Box::new(PowerCapController::new(PowerAllocator::new(budget_w))),
            &config,
        )),
        SimDuration::from_secs(CAP_PERIOD_S),
    );
    let gov_id = plane.register(
        wrap(stalled(
            Box::new(GovernorController::new(
                gov,
                Frequency::from_ghz(spec.requested_ghz),
                Frequency::from_ghz(BASE_GHZ),
            )),
            &config,
        )),
        SimDuration::from_secs(CAP_PERIOD_S),
    );
    let watch = SimDuration::from_secs(WATCH_PERIOD_S);
    let chaos_id = match &spec.faults {
        Faults::Script(script) => {
            let script =
                ScriptController::new(script.clone()).expect("script events are time-sorted");
            plane.register(wrap(Box::new(script)), watch);
            None
        }
        Faults::Wear {
            stability,
            voltage_offset_v,
            policy,
        } => {
            let process = FaultProcess::new(
                config
                    .faults
                    .clone()
                    .expect("wear faults carry a fault config"),
                servers,
                CompositeLifetimeModel::fitted_5nm(),
                *stability,
            );
            let chaos = ChaosController::new(
                process,
                CpuSku::skylake_8180(),
                tank_iface(),
                Frequency::from_ghz(BASE_GHZ),
                *voltage_offset_v,
            );
            let chaos_id = plane.register(wrap(Box::new(chaos)), watch);
            plane.register(wrap(Box::new(DegradationController::new(*policy))), watch);
            Some(chaos_id)
        }
    };
    plane.register(
        wrap(stalled(
            Box::new(FailoverController::with_restore(
                spec.boost_ratio,
                restore_ratio,
            )),
            &config,
        )),
        watch,
    );
    if let Some(entries) = fault_plan.filter(|e| !e.is_empty()) {
        plane.schedule_faults(FaultPlan::new(entries));
    }
    Stack {
        plane,
        end: SimTime::from_secs_f64(spec.end_s),
        budget_w,
        gov_id,
        chaos_id,
    }
}

/// Reaches a registered controller through an optional stall wrapper.
fn controller_as<T: 'static, W: World + 'static>(
    plane: &ControlPlane<W>,
    id: ControllerId,
) -> Option<&T> {
    plane.controller::<T>(id).or_else(|| {
        plane
            .controller::<StalledController>(id)
            .and_then(|s| s.inner_as::<T>())
    })
}

/// The simulated outputs of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetOutcome {
    pub completed: u64,
    pub p95_latency_s: f64,
    pub sim_events: u64,
    pub cp_ticks: u64,
    pub vms_end: usize,
    pub parked_end: usize,
    pub failed_end: usize,
    /// `(domain, granted watts)` at the horizon, domain order.
    pub grants: Vec<(u64, f64)>,
    pub governor_ghz: f64,
    pub failures_applied: u64,
    pub injected_failures: u64,
    pub injected_bursts: u64,
}

/// Nearest-rank P95, the statistic the composed record reports.
fn p95(latencies: &mut [f64]) -> f64 {
    assert!(!latencies.is_empty(), "run completed no requests");
    let n = latencies.len();
    let rank = (((0.95 * n as f64).ceil() as usize).max(1) - 1).min(n - 1);
    let (_, &mut v, _) = latencies.select_nth_unstable_by(rank, f64::total_cmp);
    v
}

/// Moves the run's completion log into `latencies`, in completion order.
pub fn drain_latencies<W: World + AsFleet + 'static>(
    stack: &mut Stack<W>,
    latencies: &mut Vec<f64>,
) {
    let completions = stack
        .plane
        .world_mut()
        .fleet_mut()
        .sim_mut()
        .take_completions();
    latencies.extend(completions.iter().map(|&(_, lat)| lat));
}

/// Extracts the simulated outputs after the horizon. `latencies` holds
/// every completion drained so far; the rest is drained here.
pub fn finish<W: World + AsFleet + 'static>(
    stack: &mut Stack<W>,
    mut latencies: Vec<f64>,
) -> FleetOutcome {
    drain_latencies(stack, &mut latencies);
    let plane = &stack.plane;
    let governor_ghz = controller_as::<GovernorController, W>(plane, stack.gov_id)
        .and_then(|g| g.last_decision())
        .map(|d| d.frequency.ghz())
        .expect("governor ticked at least once");
    let (injected_failures, injected_bursts) = stack
        .chaos_id
        .and_then(|id| controller_as::<ChaosController, W>(plane, id))
        .map_or((0, 0), |c| (c.failures_injected(), c.bursts_injected()));
    let world = plane.world().fleet();
    FleetOutcome {
        completed: world.sim().completed_requests(),
        p95_latency_s: p95(&mut latencies),
        sim_events: world.sim().events_processed(),
        cp_ticks: plane.ticks_total(),
        vms_end: world.sim().active_ids().len(),
        parked_end: world.parked().len(),
        failed_end: world
            .cluster()
            .servers()
            .iter()
            .filter(|s| s.is_failed())
            .count(),
        grants: world.grants().iter().map(|(&d, &w)| (d, w)).collect(),
        governor_ghz,
        failures_applied: world.failures_applied(),
        injected_failures,
        injected_bursts,
    }
}

/// One metric of a `run_all --json` record.
#[derive(Debug, Clone, PartialEq)]
pub struct RecordMetric {
    pub name: String,
    pub unit: &'static str,
    pub paper: Option<f64>,
    pub measured: f64,
}

impl RecordMetric {
    fn new(name: impl Into<String>, unit: &'static str, measured: f64) -> Self {
        RecordMetric {
            name: name.into(),
            unit,
            paper: None,
            measured,
        }
    }

    fn with_paper(name: impl Into<String>, unit: &'static str, paper: f64, measured: f64) -> Self {
        RecordMetric {
            paper: Some(paper),
            ..Self::new(name, unit, measured)
        }
    }
}

/// The `composed` / `composed_v2` record of a stock composed run.
pub fn composed_record(r: &FleetOutcome) -> (u64, Vec<RecordMetric>) {
    let mut metrics = vec![
        RecordMetric::new("p95_latency_s", "seconds", r.p95_latency_s),
        RecordMetric::new("requests_completed", "count", r.completed as f64),
        RecordMetric::new("cp_ticks", "count", r.cp_ticks as f64),
        RecordMetric::new("governor_ghz", "ghz", r.governor_ghz),
        RecordMetric::new("vms_end", "count", r.vms_end as f64),
        RecordMetric::new("parked_end", "count", r.parked_end as f64),
        RecordMetric::new("failed_servers_end", "count", r.failed_end as f64),
    ];
    for (domain, watts) in &r.grants {
        metrics.push(RecordMetric::new(
            format!("granted_w[{domain}]"),
            "watts",
            *watts,
        ));
    }
    (r.sim_events, metrics)
}

/// The stock composed stack on `config`: OC-A auto-scaler, capping, the
/// tank governor, a scripted fail/repair of server 0, and failover with
/// the paper's +20 % virtual buffer.
fn composed_spec(config: FleetConfig, end_s: f64, fail_at_s: f64, repair_at_s: f64) -> FleetSpec {
    FleetSpec {
        config,
        end_s,
        asc: Some(Policy::OcA),
        governor_stability: StabilityModel::paper_characterization(),
        governor: GovernorConfig::default(),
        requested_ghz: 4.1,
        boost_ratio: 1.2,
        faults: Faults::Script(vec![
            (
                SimTime::from_secs_f64(fail_at_s),
                Action::FailServer { server: 0 },
            ),
            (
                SimTime::from_secs_f64(repair_at_s),
                Action::RepairServer { server: 0 },
            ),
        ]),
    }
}

/// The registry's `composed` shape (full mode): the small fleet, its
/// three-step ramp, a 900 s horizon.
pub fn registry_composed_spec(seed: u64, version: StreamVersion) -> FleetSpec {
    let config = FleetConfigBuilder::small(seed).rng_stream(version).build();
    composed_spec(config, 900.0, 450.0, 750.0)
}

/// `serve`: the small fleet widened to 16 servers, the Table XI ramp
/// (500 -> 4000 QPS in 300 s steps) held to a 3000 s horizon, v2
/// sampler.
pub fn serve_spec(seed: u64) -> FleetSpec {
    let config = FleetConfigBuilder::small(seed)
        .servers(16)
        .schedule(ramp_schedule(500.0, 4000.0, 500.0, 300.0))
        .rng_stream(StreamVersion::V2)
        .build();
    composed_spec(config, 3000.0, 450.0, 750.0)
}

/// SplitMix64: derives per-workload inputs from the seed.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Domains in `fleet10k`, one per server.
const FLEET10K_DOMAINS: usize = 10_000;

/// `fleet10k`: the `fleet_scale` 10 000-domain fleet (every fourth
/// domain critical, 100 W/domain budget, 4-bin thermal power model)
/// under a flat 100 QPS on 4 VMs for 3000 s. A rolling script fails a
/// seed-chosen server every 120 s and repairs it 60 s later; each
/// failure and repair moves the failover boost, so capping re-plans
/// the whole fleet.
pub fn fleet10k_spec(seed: u64) -> FleetSpec {
    let servers = FLEET10K_DOMAINS;
    let domains = (0..servers)
        .map(|i| DomainSpec {
            domain: i as u64,
            priority: if i % 4 == 0 {
                Priority::Critical
            } else {
                Priority::Batch
            },
            floor_w: 60.0,
            demand_w: 130.0,
        })
        .collect();
    let config = FleetConfigBuilder::small(seed)
        .schedule(vec![(0.0, 100.0)])
        .servers(servers)
        .initial_vms(4)
        .budget_w(100.0 * servers as f64)
        .domains(domains)
        .power_model(PowerModelSpec {
            sku: CpuSku::skylake_8180(),
            bins: [0.080, 0.084, 0.088, 0.092]
                .iter()
                .map(|&r| ThermalInterface::two_phase(DielectricFluid::hfe7000(), r, 0.0))
                .collect(),
            base_ghz: BASE_GHZ,
        })
        .build();
    let end_s = 3000.0;
    let mut script = Vec::new();
    let mut at = 120.0;
    let mut i = 0u64;
    while at + 60.0 < end_s {
        let server = (mix(seed ^ mix(i)) % servers as u64) as usize;
        script.push((SimTime::from_secs_f64(at), Action::FailServer { server }));
        script.push((
            SimTime::from_secs_f64(at + 60.0),
            Action::RepairServer { server },
        ));
        at += 120.0;
        i += 1;
    }
    FleetSpec {
        config,
        end_s,
        asc: None,
        governor_stability: StabilityModel::paper_characterization(),
        governor: GovernorConfig::default(),
        requested_ghz: 4.1,
        boost_ratio: 1.2,
        faults: Faults::Script(script),
    }
}

/// The registry chaos experiment's fault seed.
const CHAOS_FAULT_SEED: u64 = 0x00C0_FFEE;

/// Servers and serving VMs in `chaos`.
const CHAOS_SERVERS: usize = 512;
const CHAOS_VMS: usize = 256;

/// `chaos`: the registry chaos experiment's OC3 fleet (4.1 GHz ask at
/// +50 mV, 1-year lifetime target, optimistic governor envelope, OC-A
/// auto-scaler, +10 % failover boost with restore) widened to 512
/// servers and 256 VMs at a flat 1000 QPS on the v1 sampler, with the
/// full-mode fault windows (stale telemetry, a sensor dropout, a stalled
/// governor) over a 3000 s horizon (100 windows). The fault seed
/// follows the seed.
pub fn chaos_spec(seed: u64) -> FleetSpec {
    let dwell = 300.0;
    let mut faults = FaultConfig::disabled();
    faults.seed = CHAOS_FAULT_SEED ^ seed;
    faults.hazard_scale = 3.5e5;
    faults.error_scale = 5.0e4;
    faults.repair_min_s = 0.15 * dwell;
    faults.repair_max_s = 0.3 * dwell;
    faults.stale_telemetry = vec![FaultWindow {
        from_s: 2.0 * dwell,
        until_s: 2.25 * dwell,
    }];
    faults.sensor_dropouts = vec![SensorDropout {
        vm: 1,
        window: FaultWindow {
            from_s: 0.5 * dwell,
            until_s: 1.0 * dwell,
        },
    }];
    faults.stalled_controllers = vec![StalledWindow {
        controller: "governor".to_string(),
        window: FaultWindow {
            from_s: 1.5 * dwell,
            until_s: 1.9 * dwell,
        },
    }];
    let mut config = FleetConfigBuilder::small(seed)
        .servers(CHAOS_SERVERS)
        .initial_vms(CHAOS_VMS)
        .schedule(vec![(0.0, 1000.0)])
        .budget_w(1500.0)
        .faults(faults)
        .build();
    for domain in &mut config.domains {
        domain.demand_w = 450.0;
    }
    FleetSpec {
        config,
        end_s: 3000.0,
        asc: Some(Policy::OcA),
        governor_stability: StabilityModel::new(1.40, 1.60, 0.05, 0.75),
        governor: GovernorConfig {
            target_lifetime_years: 1.0,
            ..GovernorConfig::default()
        },
        requested_ghz: 4.1,
        boost_ratio: 1.1,
        faults: Faults::Wear {
            stability: StabilityModel::new(1.0, 1.6, 0.05, 0.35),
            voltage_offset_v: 0.050,
            policy: DegradationPolicy {
                fleet_errors_per_tick: 4,
                server_burst_errors: 3,
                deoc_ratio: 1.08,
                drain_cooldown_s: 60.0,
            },
        },
    }
}

/// The Table XI policies, in record order.
pub const TABLE11_POLICIES: [Policy; 3] = [Policy::Baseline, Policy::OcE, Policy::OcA];

/// `table11`: the paper's full 500 -> 4000 QPS ramp.
pub fn table11_config() -> RunnerConfig {
    RunnerConfig::paper()
}

/// The `table11` record of the three policy runs (baseline, OC-E,
/// OC-A), each metric paired with the paper's Table XI value.
pub fn table11_record(runs: &[RunResult]) -> (u64, Vec<RecordMetric>) {
    let [base, oce, oca] = runs else {
        panic!("table11 needs exactly three runs");
    };
    let sim_events = base.sim_events + oce.sim_events + oca.sim_events;
    let paper = [
        (base, 1.00, 6.0, 2.20, 0.0),
        (oce, 0.58, 6.0, 2.17, 7.0),
        (oca, 0.46, 5.0, 1.95, 27.0),
    ];
    let mut metrics = Vec::new();
    for (r, p95_norm, max_vms, vm_hours, power_delta) in paper {
        let policy = r.policy;
        metrics.push(RecordMetric::with_paper(
            format!("p95_norm[{policy}]"),
            "ratio",
            p95_norm,
            r.p95_latency_s / base.p95_latency_s,
        ));
        metrics.push(RecordMetric::with_paper(
            format!("max_vms[{policy}]"),
            "count",
            max_vms,
            r.max_vms as f64,
        ));
        metrics.push(RecordMetric::with_paper(
            format!("vm_hours[{policy}]"),
            "vm_hours",
            vm_hours,
            r.vm_hours,
        ));
        metrics.push(RecordMetric::with_paper(
            format!("power_delta_pct[{policy}]"),
            "percent",
            power_delta,
            (r.avg_power_w / base.avg_power_w - 1.0) * 100.0,
        ));
    }
    (sim_events, metrics)
}
