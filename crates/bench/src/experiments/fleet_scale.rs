//! Fleet-scale control-plane hot path: the composed controller set at
//! 100, 1 000, and 10 000 power domains.
//!
//! The point of this experiment is *scaling shape*, not throughput: the
//! serving workload (one seeded M/G/k sim) is the same at every fleet
//! size, so any extra cost at 10 000 servers is pure control-plane
//! overhead — snapshot maintenance, power capping, demand refreshes.
//! The incremental telemetry path makes most of that cost O(dirty):
//! power-section version skipping turns unchanged capping/governor
//! ticks into O(1) no-ops, the persistent snapshot refills VM rows
//! without allocating, and a fleet-wide frequency change batch-solves
//! only the thermal-heterogeneity bins (4 distinct operating points)
//! rather than all 10 000 domains.
//!
//! The record reports only deterministic quantities (tick counts,
//! demand refreshes, steady-state cache hits/misses, power-section
//! versions) so `run_all --json` stays byte-identical across worker
//! counts; the wall-clock side of the story — per-tick cost growing
//! sublinearly in fleet size — is measured by the `kernels` bench
//! (`fleet10k_ctrl_ticks_per_sec`, `fleet_snapshot_ns_per_vm`).

use crate::report::Metric;
use ic_controlplane::controllers::{
    FailoverController, GovernorController, PowerCapController, ScriptController,
};
use ic_controlplane::{
    Action, ControlPlane, DomainSpec, FleetConfig, FleetConfigBuilder, FleetWorld, PowerModelSpec,
    World,
};
use ic_core::governor::{GovernorConfig, OverclockGovernor};
use ic_obs::flight::FlightHandle;
use ic_obs::ObsSinks;
use ic_power::capping::{PowerAllocator, Priority};
use ic_power::cpu::CpuSku;
use ic_power::units::Frequency;
use ic_reliability::lifetime::CompositeLifetimeModel;
use ic_reliability::stability::StabilityModel;
use ic_sim::time::{SimDuration, SimTime};
use ic_thermal::fluid::DielectricFluid;
use ic_thermal::junction::ThermalInterface;

/// The workload seed shared by render and record paths.
const SEED: u64 = 42;

/// The fleet sizes swept (domains == servers).
pub const SIZES: [usize; 3] = [100, 1_000, 10_000];

/// Per-domain budget, watts: scales the fleet budget with its size so
/// the per-domain contention picture is identical at every size.
const BUDGET_PER_DOMAIN_W: f64 = 100.0;

/// Cadences, seconds (the composed experiment's slow loops; the
/// auto-scaler is deliberately absent so the workload stream cannot
/// depend on cluster capacity).
const CAP_PERIOD_S: u64 = 30;
const WATCH_PERIOD_S: u64 = 15;

/// The tank governor (the paper's 2PIC HFE-7000 Skylake socket).
fn governor() -> OverclockGovernor {
    OverclockGovernor::new(
        CpuSku::skylake_8180(),
        ThermalInterface::two_phase(DielectricFluid::hfe7000(), 0.084, 0.0),
        CompositeLifetimeModel::fitted_5nm(),
        StabilityModel::paper_characterization(),
        GovernorConfig::default(),
    )
}

/// The fleet at `servers` domains: one power domain per server, every
/// fourth domain critical, and a 4-bin thermal-heterogeneity power
/// model (tank position perturbing the junction-to-coolant boundary
/// resistance). Per-domain floors, demands, and budget share are
/// size-independent by construction.
pub fn fleet_config(servers: usize, quick: bool) -> FleetConfig {
    let mut config = FleetConfigBuilder::small(SEED).build();
    if quick {
        config.schedule = config
            .schedule
            .iter()
            .map(|&(t, qps)| (t / 2.0, qps))
            .collect();
    }
    config.servers = servers;
    config.initial_vms = 4;
    config.budget_w = BUDGET_PER_DOMAIN_W * servers as f64;
    config.domains = (0..servers)
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
    config.power_model = Some(PowerModelSpec {
        sku: CpuSku::skylake_8180(),
        bins: [0.080, 0.084, 0.088, 0.092]
            .iter()
            .map(|&r| ThermalInterface::two_phase(DielectricFluid::hfe7000(), r, 0.0))
            .collect(),
        base_ghz: 3.4,
    });
    config
}

/// What one fleet size reports.
struct SizeRun {
    servers: usize,
    sim_events: u64,
    completed: u64,
    cp_ticks: u64,
    demand_refreshes: u64,
    cache_hits: u64,
    cache_misses: u64,
    power_version: u64,
    governor_ghz: f64,
    vms_end: usize,
    failed_end: usize,
}

/// Runs one fleet size to its horizon under capping, the governor, a
/// scripted failure/repair of server 0, and failover.
fn run_size(servers: usize, quick: bool, flight: Option<&FlightHandle>) -> SizeRun {
    let config = fleet_config(servers, quick);
    let dwell_s = if quick { 120.0 } else { 300.0 };
    let last_s = config.schedule.last().map(|&(t, _)| t).unwrap_or(0.0);
    let end_s = last_s + dwell_s;
    let fail_at_s = 0.5 * end_s;
    let repair_at_s = 0.75 * end_s;
    let budget_w = config.budget_w;

    let world = FleetWorld::new(config);
    let mut plane = ControlPlane::new(world);
    if let Some(flight) = flight {
        plane.attach_sinks(ObsSinks::none().with_flight(flight.clone()));
    }
    // Capping precedes the governor at shared instants so fresh grants
    // land before the governor reads them.
    plane.register(
        Box::new(PowerCapController::new(PowerAllocator::new(budget_w))),
        SimDuration::from_secs(CAP_PERIOD_S),
    );
    let gov_id = plane.register(
        Box::new(GovernorController::new(
            governor(),
            Frequency::from_ghz(4.1),
            Frequency::from_ghz(3.4),
        )),
        SimDuration::from_secs(CAP_PERIOD_S),
    );
    plane.register(
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
    plane.register(
        Box::new(FailoverController::new(1.2)),
        SimDuration::from_secs(WATCH_PERIOD_S),
    );

    plane.run_until(SimTime::from_secs_f64(end_s));

    let cp_ticks = plane.ticks_total();
    let governor_ghz = plane
        .controller::<GovernorController>(gov_id)
        .and_then(|g| g.last_decision())
        .map(|d| d.frequency.ghz())
        .expect("governor ticked at least once");

    let end = SimTime::from_secs_f64(end_s);
    let mut world = plane.into_world();
    let (cache_hits, cache_misses) = world.model_cache_counters();
    let demand_refreshes = world.demand_refreshes();
    let snap = world.telemetry(end);
    let power_version = snap.power.as_ref().map_or(0, |p| p.version);
    let failed_end = snap.cluster.as_ref().map_or(0, |c| c.failed_servers.len());

    SizeRun {
        servers,
        sim_events: world.sim().events_processed(),
        completed: world.sim().completed_requests(),
        cp_ticks,
        demand_refreshes,
        cache_hits,
        cache_misses,
        power_version,
        governor_ghz,
        vms_end: world.sim().active_vms().len(),
        failed_end,
    }
}

/// Runs one fleet size end-to-end and returns `(cp_ticks,
/// wall_seconds)` — the kernels bench divides these for
/// `fleet10k_ctrl_ticks_per_sec`.
pub fn timed_ctrl_ticks(servers: usize, quick: bool) -> (u64, f64) {
    let start = std::time::Instant::now();
    let r = run_size(servers, quick, None);
    (r.cp_ticks, start.elapsed().as_secs_f64())
}

fn sweep(quick: bool, flight: Option<&FlightHandle>) -> Vec<SizeRun> {
    SIZES
        .iter()
        .map(|&servers| run_size(servers, quick, flight))
        .collect()
}

/// The fleet-scale experiment's human-readable report.
pub fn fleet_scale(quick: bool) -> String {
    let runs = sweep(quick, None);
    let mut out = String::from("== Fleet-scale control plane: 100 / 1k / 10k power domains ==\n");
    out.push_str(
        "same seeded workload at every size; extra domains cost only O(dirty) \
         control-plane work\n",
    );
    out.push_str("size     cp_ticks  refreshes  cache h/m  power_ver  gov GHz  completed\n");
    for r in &runs {
        out.push_str(&format!(
            "{:<8} {:<9} {:<10} {:<4}/{:<5} {:<10} {:<8.2} {}\n",
            r.servers,
            r.cp_ticks,
            r.demand_refreshes,
            r.cache_hits,
            r.cache_misses,
            r.power_version,
            r.governor_ghz,
            r.completed,
        ));
    }
    out.push_str(&format!(
        "end state at 10k: {} serving VMs, {} failed servers\n",
        runs[2].vms_end, runs[2].failed_end
    ));
    out.push_str(
        "wall-clock scaling is measured by the kernels bench \
         (fleet10k_ctrl_ticks_per_sec, fleet_snapshot_ns_per_vm)\n",
    );
    out
}

/// Structured record for `run_all --json`. With `flight`, the control
/// plane's tick instants land in it; the record is the same either way.
pub fn fleet_scale_record(quick: bool, flight: Option<&FlightHandle>) -> (u64, Vec<Metric>) {
    let runs = sweep(quick, flight);
    let mut metrics = Vec::new();
    let mut sim_events = 0;
    for r in &runs {
        sim_events += r.sim_events;
        let n = r.servers;
        metrics.push(Metric::new(
            format!("cp_ticks[{n}]"),
            "count",
            r.cp_ticks as f64,
        ));
        metrics.push(Metric::new(
            format!("demand_refreshes[{n}]"),
            "count",
            r.demand_refreshes as f64,
        ));
        metrics.push(Metric::new(
            format!("model_cache_hits[{n}]"),
            "count",
            r.cache_hits as f64,
        ));
        metrics.push(Metric::new(
            format!("model_cache_misses[{n}]"),
            "count",
            r.cache_misses as f64,
        ));
        metrics.push(Metric::new(
            format!("power_version[{n}]"),
            "count",
            r.power_version as f64,
        ));
        metrics.push(Metric::new(
            format!("governor_ghz[{n}]"),
            "ghz",
            r.governor_ghz,
        ));
        metrics.push(Metric::new(
            format!("requests_completed[{n}]"),
            "count",
            r.completed as f64,
        ));
    }
    (sim_events, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_size_is_deterministic_and_recovers() {
        let a = run_size(100, true, None);
        let b = run_size(100, true, None);
        assert_eq!(a.sim_events, b.sim_events);
        assert_eq!(a.cp_ticks, b.cp_ticks);
        assert_eq!(a.governor_ghz, b.governor_ghz);
        assert_eq!(a.cache_hits, b.cache_hits);
        assert!(a.completed > 0);
        // The repair landed.
        assert_eq!(a.failed_end, 0);
    }

    #[test]
    fn demand_refreshes_stay_bounded_by_bins_not_fleet() {
        // The whole point: a 10k-domain fleet must not solve 10k
        // operating points. Refreshes count fleet-wide frequency
        // changes; each one batch-solves only the 4 bins, so misses
        // stay O(refreshes x bins) regardless of size.
        let r = run_size(1_000, true, None);
        assert!(r.demand_refreshes > 0, "governor actuated at least once");
        assert!(
            r.cache_misses <= (r.demand_refreshes + 1) * 4,
            "misses {} exceed refreshes {} x 4 bins",
            r.cache_misses,
            r.demand_refreshes
        );
    }

    #[test]
    fn control_decisions_are_size_independent() {
        // Per-domain floors, demands, and budget share are identical at
        // every size, so the governor must settle at the same frequency
        // — extra domains add rows, not different physics.
        let small = run_size(100, true, None);
        let large = run_size(1_000, true, None);
        assert_eq!(small.governor_ghz, large.governor_ghz);
        assert_eq!(small.cp_ticks, large.cp_ticks);
    }

    #[test]
    fn traced_record_matches_untraced() {
        let flight = ic_obs::flight::shared_flight(1 << 16);
        let plain = fleet_scale_record(true, None);
        let traced = fleet_scale_record(true, Some(&flight));
        assert_eq!(plain, traced, "tracing must not change the record");
        let rec = flight.borrow();
        assert!(rec.counts_by_kind().contains_key(&("controlplane", "tick")));
    }
}
