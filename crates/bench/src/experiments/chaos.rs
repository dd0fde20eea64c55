//! The chaos experiment: wear-coupled fault injection, B2 vs OC3.
//!
//! Two composed fleets run the same client demand through the same
//! control-plane stack; the only difference is the operating point the
//! governor is asked for — B2 holds the 3.4 GHz base clock at stock
//! voltage, OC3 requests the 4.1 GHz all-core turbo at +50 mV. Both
//! draw their faults from one [`ic_chaos::FaultProcess`] seed, so the
//! comparison is a common-random-numbers *monotone coupling*: the two
//! fleets share their per-server `Exp(1)` hazard thresholds, and the
//! fleet whose V/f/Tj trajectory wears faster crosses them first. OC3
//! must therefore show strictly more injected failures and strictly
//! lower availability than B2 at equal demand — the paper's Section IV
//! reliability cost, measured end to end instead of asserted.
//!
//! On top of the wear faults, both fleets absorb the same exogenous
//! control-plane faults: a frozen telemetry window (controllers act on
//! a stale snapshot; wear accrual catches up at thaw), a VM sensor
//! dropout, and a stalled-governor window. The
//! [`ic_chaos::DegradationController`] responds by de-overclocking on
//! fleet-wide error spikes and proactively draining bursting servers;
//! the failover controller re-places evicted VMs. The record carries
//! the full [`ic_chaos::SloScorecard`] for each fleet.

use super::composed::{composed_run_with, ChaosSetup, ComposedRun};
use crate::report::Metric;
use ic_autoscale::policy::Policy;
use ic_chaos::{DegradationPolicy, LatencySlo};
use ic_obs::flight::FlightHandle;
use ic_reliability::stability::StabilityModel;
use ic_scenario::{FaultConfig, FaultWindow, SensorDropout, StalledWindow};
use ic_sim::rng::StreamVersion;

/// Fault-process seed shared by both fleets (the CRN coupling).
const FAULT_SEED: u64 = 0x00C0_FFEE;

/// Accelerated-aging factor: the composite model's 5-year-scale
/// lifetimes compressed onto a sub-hour horizon so a 4-server fleet
/// sees a handful of wear failures.
const HAZARD_SCALE: f64 = 3.5e5;

/// Correctable-error acceleration, same idea: months of error budget
/// compressed onto the run.
const ERROR_SCALE: f64 = 5.0e4;

/// Raised power budget so capping does not flatten the B2/OC3
/// frequency difference — the comparison is about wear, not grants.
const CHAOS_BUDGET_W: f64 = 1500.0;

/// The paper's overclocked configs pin +50 mV on top of the V/f curve.
const OC3_OFFSET_V: f64 = 0.050;

/// Stability envelope for the chaos fleets. Ratios here are relative
/// to the 3.4 GHz *base* clock (not the all-core turbo the paper's
/// envelope is quoted against): flat background error rate at base,
/// e-folding per percent beyond it, crash ceiling far above anything
/// the governor will grant.
fn stability() -> StabilityModel {
    StabilityModel::new(1.0, 1.6, 0.05, 0.35)
}

/// The exogenous fault schedule, in units of the run's dwell so quick
/// and full runs exercise the same phases of the demand ramp.
fn fault_config(quick: bool) -> FaultConfig {
    let dwell = if quick { 150.0 } else { 300.0 };
    let mut f = FaultConfig::disabled();
    f.seed = FAULT_SEED;
    f.hazard_scale = HAZARD_SCALE;
    f.error_scale = ERROR_SCALE;
    f.repair_min_s = 0.15 * dwell;
    f.repair_max_s = 0.3 * dwell;
    f.stale_telemetry = vec![FaultWindow {
        from_s: 2.0 * dwell,
        until_s: 2.25 * dwell,
    }];
    f.sensor_dropouts = vec![SensorDropout {
        vm: 1,
        window: FaultWindow {
            from_s: 0.5 * dwell,
            until_s: 1.0 * dwell,
        },
    }];
    f.stalled_controllers = vec![StalledWindow {
        controller: "governor".to_string(),
        window: FaultWindow {
            from_s: 1.5 * dwell,
            until_s: 1.9 * dwell,
        },
    }];
    f
}

fn setup(
    requested_ghz: f64,
    target_lifetime_years: f64,
    governor_stability: StabilityModel,
    voltage_offset_v: f64,
    deoc_ratio: f64,
    asc_policy: Policy,
    quick: bool,
) -> ChaosSetup {
    ChaosSetup {
        faults: fault_config(quick),
        requested_ghz,
        target_lifetime_years,
        budget_w: CHAOS_BUDGET_W,
        domain_demand_w: 450.0,
        voltage_offset_v,
        stability: stability(),
        governor_stability,
        policy: DegradationPolicy {
            fleet_errors_per_tick: 4,
            server_burst_errors: 3,
            deoc_ratio,
            drain_cooldown_s: 60.0,
        },
        slo: LatencySlo {
            p95_s: 0.015,
            p99_s: 0.040,
        },
        asc_policy,
    }
}

/// The baseline fleet: base clock, stock voltage, 5-year target, the
/// paper's measured stability envelope.
fn b2_setup(quick: bool) -> ChaosSetup {
    setup(
        3.4,
        5.0,
        StabilityModel::paper_characterization(),
        0.0,
        1.0,
        Policy::Baseline,
        quick,
    )
}

/// The overclocked fleet: all-core turbo ask at +50 mV, buying the
/// headroom with a shortened service-life target and an
/// over-optimistic stability characterization (validated to +40 %
/// instead of the measured +23 %). The gap between the claimed and the
/// true envelope is exactly what the wear-coupled fault process makes
/// it pay for.
/// The de-overclock response steps down one 100 MHz bin, the paper's
/// "watch the correctable-error rate" mitigation — B2 already sits at
/// base so its step lands on base; OC3 steps from its ~3.78 GHz grant
/// to ~3.68 GHz (ratio 1.08), still well above its true envelope.
fn oc3_setup(quick: bool) -> ChaosSetup {
    setup(
        4.1,
        1.0,
        StabilityModel::new(1.40, 1.60, 0.05, 0.75),
        OC3_OFFSET_V,
        1.08,
        Policy::OcA,
        quick,
    )
}

struct ChaosRun {
    b2: ComposedRun,
    oc3: ComposedRun,
}

fn chaos_run(version: StreamVersion, quick: bool, flight: Option<&FlightHandle>) -> ChaosRun {
    ChaosRun {
        b2: composed_run_with(version, quick, flight, Some(&b2_setup(quick))),
        oc3: composed_run_with(version, quick, flight, Some(&oc3_setup(quick))),
    }
}

/// The chaos experiment's human-readable report.
pub fn chaos(version: StreamVersion, quick: bool) -> String {
    let r = chaos_run(version, quick, None);
    let mut out = String::from("== Chaos: wear-coupled faults, B2 vs OC3 at equal demand ==\n");
    out.push_str(&format!(
        "shared fault seed {FAULT_SEED:#x}; hazard x{HAZARD_SCALE:.0e}, errors x{ERROR_SCALE:.0e}; \
         horizon {:.0} s\n",
        r.b2.end_s
    ));
    for (label, run, ghz, mv) in [
        ("B2 ", &r.b2, 3.4, 0.0),
        ("OC3", &r.oc3, 4.1, OC3_OFFSET_V * 1e3),
    ] {
        let c = run.chaos.as_ref().expect("chaos runs carry an outcome");
        out.push_str(&format!(
            "fleet {label} ({ghz:.1} GHz ask, +{mv:.0} mV): availability {:.4}, \
             {} wear failures, {} bursts / {} errors, {} VMs recovered\n",
            c.scorecard.availability,
            c.injected_failures,
            c.injected_bursts,
            c.scorecard.errors_total,
            c.scorecard.recovered_vms,
        ));
        out.push_str(&format!(
            "          governor {:.2} GHz ({}); {} completed, P95 {:.1} ms, \
             breach P95 {:.0} min / P99 {:.0} min; {} de-OCs, {} drains, {} stalled ticks\n",
            run.governor_ghz,
            run.governor_binding,
            c.scorecard.completed,
            c.scorecard.p95_latency_s * 1e3,
            c.scorecard.p95_breach_min,
            c.scorecard.p99_breach_min,
            c.deocs,
            c.drains,
            c.stalled_ticks,
        ));
    }
    out
}

/// Structured record for `run_all --json`. With `flight`, both runs
/// record into it; the record is the same either way.
pub fn chaos_record(
    version: StreamVersion,
    quick: bool,
    flight: Option<&FlightHandle>,
) -> (u64, Vec<Metric>) {
    let r = chaos_run(version, quick, flight);
    let mut metrics = Vec::new();
    for (prefix, run) in [("b2", &r.b2), ("oc3", &r.oc3)] {
        let c = run.chaos.as_ref().expect("chaos runs carry an outcome");
        let s = &c.scorecard;
        metrics.push(Metric::new(
            format!("{prefix}_availability"),
            "fraction",
            s.availability,
        ));
        metrics.push(Metric::new(
            format!("{prefix}_wear_failures"),
            "count",
            c.injected_failures as f64,
        ));
        metrics.push(Metric::new(
            format!("{prefix}_failures_applied"),
            "count",
            s.failures as f64,
        ));
        metrics.push(Metric::new(
            format!("{prefix}_error_bursts"),
            "count",
            c.injected_bursts as f64,
        ));
        metrics.push(Metric::new(
            format!("{prefix}_errors_total"),
            "count",
            s.errors_total as f64,
        ));
        metrics.push(Metric::new(
            format!("{prefix}_recovered_vms"),
            "count",
            s.recovered_vms as f64,
        ));
        metrics.push(Metric::new(
            format!("{prefix}_p95_breach_min"),
            "minutes",
            s.p95_breach_min,
        ));
        metrics.push(Metric::new(
            format!("{prefix}_p99_breach_min"),
            "minutes",
            s.p99_breach_min,
        ));
        metrics.push(Metric::new(
            format!("{prefix}_p95_latency_s"),
            "seconds",
            s.p95_latency_s,
        ));
        metrics.push(Metric::new(
            format!("{prefix}_requests_completed"),
            "count",
            s.completed as f64,
        ));
        metrics.push(Metric::new(
            format!("{prefix}_governor_ghz"),
            "ghz",
            run.governor_ghz,
        ));
        metrics.push(Metric::new(
            format!("{prefix}_deocs"),
            "count",
            c.deocs as f64,
        ));
        metrics.push(Metric::new(
            format!("{prefix}_drains"),
            "count",
            c.drains as f64,
        ));
        metrics.push(Metric::new(
            format!("{prefix}_stalled_ticks"),
            "count",
            c.stalled_ticks as f64,
        ));
    }
    (r.b2.sim_events + r.oc3.sim_events, metrics)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::composed::{composed_record, record_from_run};

    /// The differential satellite: the parameterized runner with the
    /// chaos setup absent must reproduce the historical `composed`
    /// record byte-for-byte — the refactor may not leak into the
    /// fault-free path.
    #[test]
    fn zero_fault_path_matches_composed_record() {
        for version in [StreamVersion::V1, StreamVersion::V2] {
            let via_chaos_path = record_from_run(&composed_run_with(version, true, None, None));
            assert_eq!(via_chaos_path, composed_record(version, true, None));
        }
    }

    /// The acceptance criterion: under common random numbers, the
    /// overclocked fleet fails strictly more often and is strictly
    /// less available than the base fleet at equal demand.
    #[test]
    fn oc3_wears_strictly_harder_than_b2() {
        let r = chaos_run(StreamVersion::V1, true, None);
        let b2 = r.b2.chaos.as_ref().unwrap();
        let oc3 = r.oc3.chaos.as_ref().unwrap();
        assert!(
            oc3.injected_failures > b2.injected_failures,
            "OC3 {} failures vs B2 {}",
            oc3.injected_failures,
            b2.injected_failures
        );
        assert!(
            oc3.scorecard.availability < b2.scorecard.availability,
            "OC3 {} availability vs B2 {}",
            oc3.scorecard.availability,
            b2.scorecard.availability
        );
        assert!(
            oc3.injected_bursts > b2.injected_bursts,
            "OC3 {} bursts vs B2 {}",
            oc3.injected_bursts,
            b2.injected_bursts
        );
        // Both fleets actually exercise the machinery.
        assert!(b2.injected_failures > 0, "B2 saw no wear failures");
        assert!(
            oc3.deocs + oc3.drains > 0,
            "degradation response never fired"
        );
        assert!(oc3.stalled_ticks > 0, "governor stall never landed");
    }

    #[test]
    fn chaos_record_is_deterministic() {
        let a = chaos_record(StreamVersion::V1, true, None);
        let b = chaos_record(StreamVersion::V1, true, None);
        assert_eq!(a, b);
    }

    #[test]
    fn traced_record_matches_untraced() {
        let flight = ic_obs::flight::shared_flight(1 << 16);
        let plain = chaos_record(StreamVersion::V1, true, None);
        let traced = chaos_record(StreamVersion::V1, true, Some(&flight));
        assert_eq!(plain, traced, "tracing must not change the record");
    }
}
