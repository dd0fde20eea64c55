//! Property-based tests on cross-crate invariants.
//!
//! The hermetic build has no `proptest`, so these use a small in-tree
//! harness: each property runs `CASES` times against inputs drawn from a
//! seeded [`SimRng`], so failures are reproducible from the case index
//! embedded in the panic message.

use immersion_cloud::cluster::cluster::Cluster;
use immersion_cloud::cluster::placement::{Oversubscription, PlacementPolicy};
use immersion_cloud::cluster::server::ServerSpec;
use immersion_cloud::cluster::vm::VmSpec;
use immersion_cloud::power::capping::{PowerAllocator, PowerRequest, Priority};
use immersion_cloud::power::cpu::CpuSku;
use immersion_cloud::power::units::{Frequency, Voltage};
use immersion_cloud::reliability::lifetime::{CompositeLifetimeModel, OperatingConditions};
use immersion_cloud::sim::dist::{Dist, Exponential, LogNormal};
use immersion_cloud::sim::queue::EventQueue;
use immersion_cloud::sim::rng::SimRng;
use immersion_cloud::sim::stats::Tally;
use immersion_cloud::sim::time::SimTime;
use immersion_cloud::telemetry::eq1::predict_utilization;
use immersion_cloud::thermal::fluid::DielectricFluid;
use immersion_cloud::thermal::junction::ThermalInterface;

const CASES: u64 = 48;

/// Runs `property` against `CASES` independently seeded generators. The
/// closure panics (via assert!) to signal a failing case; the case index
/// is appended so failures replay deterministically.
fn check(name: &str, mut property: impl FnMut(&mut SimRng)) {
    for case in 0..CASES {
        let mut rng = SimRng::seed_from_u64(0xC0FFEE ^ (case << 8));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut rng);
        }));
        if let Err(payload) = result {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "<non-string panic>".into());
            panic!("property {name} failed on case {case}: {msg}");
        }
    }
}

fn vec_of(
    rng: &mut SimRng,
    min: usize,
    max: usize,
    mut gen: impl FnMut(&mut SimRng) -> f64,
) -> Vec<f64> {
    let n = min + rng.index(max - min);
    (0..n).map(|_| gen(rng)).collect()
}

/// The event queue pops events in non-decreasing time order no matter
/// the scheduling order.
#[test]
fn engine_executes_in_time_order() {
    check("engine_executes_in_time_order", |rng| {
        let n = 1 + rng.index(99);
        let times: Vec<u64> = (0..n).map(|_| rng.index(10_000) as u64).collect();
        let mut queue = EventQueue::new();
        for &t in &times {
            queue.schedule(SimTime::from_millis(t), t);
        }
        let mut log = Vec::new();
        while let Some(t) = queue.pop_at_most(SimTime::MAX) {
            log.push(t);
        }
        assert_eq!(log.len(), times.len());
        assert!(log.windows(2).all(|w| w[0] <= w[1]));
    });
}

/// Equation 1 is bounded and monotone: higher target frequency never
/// raises predicted utilization.
#[test]
fn eq1_monotone_and_bounded() {
    check("eq1_monotone_and_bounded", |rng| {
        let util = rng.uniform();
        let p = rng.uniform();
        let f0 = rng.uniform_range(1.0, 5.0);
        let f1 = f0 + rng.uniform_range(0.0, 2.0);
        let u1 = predict_utilization(util, p, f0, f1);
        assert!(u1 <= util + 1e-12);
        assert!(u1 >= util * f0 / f1 - 1e-12);
        // Further increase never helps a fully stalled workload.
        let stalled = predict_utilization(util, 0.0, f0, f1);
        assert!((stalled - util).abs() < 1e-12);
    });
}

/// The lifetime model is monotone: hotter or higher-voltage operating
/// points never live longer.
#[test]
fn lifetime_monotone() {
    check("lifetime_monotone", |rng| {
        let v = rng.uniform_range(0.85, 1.05);
        let tj = rng.uniform_range(45.0, 110.0);
        let dv = rng.uniform_range(0.0, 0.1);
        let dt = rng.uniform_range(0.0, 20.0);
        let model = CompositeLifetimeModel::fitted_5nm();
        let base = model.lifetime_years(&OperatingConditions::new(v, tj, 30.0));
        let hotter = model.lifetime_years(&OperatingConditions::new(v, tj + dt, 30.0));
        let pushier = model.lifetime_years(&OperatingConditions::new(v + dv, tj, 30.0));
        assert!(hotter <= base + 1e-12);
        assert!(pushier <= base + 1e-12);
    });
}

/// Junction temperature is affine and monotone in power, and
/// `max_power_for_tj` inverts `junction_temp_c`.
#[test]
fn junction_monotone_in_power() {
    check("junction_monotone_in_power", |rng| {
        let r = rng.uniform_range(0.01, 0.5);
        let p1 = rng.uniform_range(0.0, 400.0);
        let dp = rng.uniform_range(0.0, 200.0);
        let iface = ThermalInterface::two_phase(DielectricFluid::fc3284(), r, 1.0);
        assert!(iface.junction_temp_c(p1 + dp) >= iface.junction_temp_c(p1));
        let tj = iface.junction_temp_c(p1);
        let back = iface.max_power_for_tj(tj);
        assert!((back - p1).abs() < 1e-6);
    });
}

/// The power allocator conserves the budget (when floors fit) and never
/// grants outside [floor, demand].
#[test]
fn allocator_respects_budget_and_bounds() {
    check("allocator_respects_budget_and_bounds", |rng| {
        let budget = rng.uniform_range(100.0, 2000.0);
        let n = 1 + rng.index(11);
        let requests: Vec<PowerRequest> = (0..n)
            .map(|i| {
                let floor = rng.uniform_range(10.0, 100.0);
                let extra = rng.uniform_range(0.0, 200.0);
                PowerRequest {
                    id: i as u64,
                    priority: match rng.index(3) {
                        0 => Priority::Batch,
                        1 => Priority::Normal,
                        _ => Priority::Critical,
                    },
                    floor_w: floor,
                    demand_w: floor + extra,
                }
            })
            .collect();
        let grants = PowerAllocator::new(budget).allocate(&requests);
        let floors: f64 = requests.iter().map(|r| r.floor_w).sum();
        let total: f64 = grants.iter().map(|g| g.granted_w).sum();
        if floors <= budget {
            assert!(total <= budget + 1e-6, "total {total} > budget {budget}");
        }
        for (r, g) in requests.iter().zip(&grants) {
            assert!(g.granted_w >= r.floor_w - 1e-9);
            assert!(g.granted_w <= r.demand_w + 1e-9);
        }
    });
}

/// Bin packing never exceeds any server's (oversubscribed) capacity in
/// either dimension, under any policy.
#[test]
fn packing_never_exceeds_capacity() {
    check("packing_never_exceeds_capacity", |rng| {
        let policy = [
            PlacementPolicy::FirstFit,
            PlacementPolicy::BestFit,
            PlacementPolicy::WorstFit,
        ][rng.index(3)];
        let ratio = rng.uniform_range(1.0, 1.5);
        let mut cluster = Cluster::new(
            vec![
                ServerSpec::custom(
                    16,
                    128.0,
                    Frequency::from_ghz(2.7),
                    Frequency::from_ghz(3.3)
                );
                4
            ],
            policy,
            Oversubscription::ratio(ratio),
        );
        let n = 1 + rng.index(59);
        for _ in 0..n {
            let vcores = 1 + rng.index(7) as u32;
            let mem = rng.uniform_range(1.0, 64.0);
            let _ = cluster.create_vm(SimTime::ZERO, VmSpec::new(vcores, mem));
        }
        let cap = Oversubscription::ratio(ratio).vcore_capacity(16);
        for server in cluster.servers() {
            assert!(server.allocated_vcores() <= cap);
            assert!(server.allocated_memory_gb() <= 128.0 + 1e-9);
        }
    });
}

/// Tally percentiles are order statistics: bounded by min/max and
/// monotone in q.
#[test]
fn tally_percentiles_are_order_statistics() {
    check("tally_percentiles_are_order_statistics", |rng| {
        let values = vec_of(rng, 1, 200, |r| r.uniform_range(-1e6, 1e6));
        let q1 = rng.uniform();
        let q2 = rng.uniform();
        let mut tally: Tally = values.iter().copied().collect();
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let p_lo = tally.percentile(lo);
        let p_hi = tally.percentile(hi);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert!(p_lo <= p_hi);
        assert!(p_lo >= min && p_hi <= max);
    });
}

/// Distribution sample means converge to the analytic mean.
#[test]
fn distribution_means_converge() {
    check("distribution_means_converge", |rng| {
        let mean = rng.uniform_range(0.1, 10.0);
        let mut sample_rng = rng.fork();
        let exp = Exponential::with_mean(mean);
        let ln = LogNormal::with_mean_scv(mean, 1.0);
        let n = 20_000;
        let exp_mean: f64 = (0..n).map(|_| exp.sample(&mut sample_rng)).sum::<f64>() / n as f64;
        let ln_mean: f64 = (0..n).map(|_| ln.sample(&mut sample_rng)).sum::<f64>() / n as f64;
        assert!(
            (exp_mean - mean).abs() / mean < 0.1,
            "exp {exp_mean} vs {mean}"
        );
        assert!(
            (ln_mean - mean).abs() / mean < 0.1,
            "ln {ln_mean} vs {mean}"
        );
    });
}

/// The turbo staircase never increases with more active cores, and
/// immersion never lowers any step.
#[test]
fn turbo_staircase_monotone() {
    check("turbo_staircase_monotone", |rng| {
        use immersion_cloud::power::turbo::TurboTable;
        let limit_w = rng.uniform_range(150.0, 305.0);
        let cap_bins = 5 + rng.index(10) as i32;
        let sku = CpuSku::skylake_8180();
        let cap = sku.air_turbo().step_bins(cap_bins);
        let air = TurboTable::derive(&sku, &ThermalInterface::air(35.0, 12.1, 0.21), limit_w, cap);
        let tank = TurboTable::derive(
            &sku,
            &ThermalInterface::two_phase(DielectricFluid::fc3284(), 0.08, 1.6),
            limit_w,
            cap,
        );
        let mut last = Frequency::from_mhz(u32::MAX);
        for n in 1..=sku.cores() {
            let f = air.frequency_for(n);
            assert!(f <= last);
            assert!(tank.frequency_for(n) >= f);
            last = f;
        }
    });
}

/// The power hierarchy never grants more than any domain's budget (when
/// the floors fit it).
#[test]
fn hierarchy_conserves_budget() {
    check("hierarchy_conserves_budget", |rng| {
        use immersion_cloud::power::hierarchy::PowerDomain;
        let dc_budget = rng.uniform_range(2000.0, 20_000.0);
        let n_racks = 1 + rng.index(4);
        let racks: Vec<(f64, usize)> = (0..n_racks)
            .map(|_| (rng.uniform_range(1500.0, 6000.0), 1 + rng.index(11)))
            .collect();
        let children: Vec<PowerDomain> = racks
            .iter()
            .enumerate()
            .map(|(i, &(budget, sockets))| {
                PowerDomain::leaf(
                    format!("rack-{i}"),
                    budget,
                    (0..sockets as u64)
                        .map(|j| PowerRequest {
                            id: j,
                            priority: if j % 2 == 0 {
                                Priority::Batch
                            } else {
                                Priority::Critical
                            },
                            floor_w: 100.0,
                            demand_w: 305.0,
                        })
                        .collect(),
                )
            })
            .collect();
        let dc = PowerDomain::interior("dc", dc_budget, children);
        let grants = dc.resolve();
        let total: f64 = grants.iter().map(|(_, g)| g.granted_w).sum();
        if dc.total_floor_w() <= dc_budget {
            assert!(total <= dc_budget + 1e-6, "total {total} > dc {dc_budget}");
        }
        // Per-rack budgets hold whenever the rack's own floors fit.
        for (i, &(budget, sockets)) in racks.iter().enumerate() {
            let rack_total: f64 = grants
                .iter()
                .filter(|(n, _)| *n == format!("rack-{i}"))
                .map(|(_, g)| g.granted_w)
                .sum();
            if 100.0 * sockets as f64 <= budget {
                assert!(rack_total <= budget + 1e-6);
            }
        }
    });
}

/// Histogram quantiles are monotone in q and bounded by the exact max;
/// the mean is exact.
#[test]
fn histogram_quantiles_bounded() {
    check("histogram_quantiles_bounded", |rng| {
        use immersion_cloud::sim::hist::LogHistogram;
        let values = vec_of(rng, 1, 300, |r| r.uniform_range(0.0, 1e6));
        let mut h = LogHistogram::new(1e-3, 1.7, 48);
        for &v in &values {
            h.record(v);
        }
        let exact_mean = values.iter().sum::<f64>() / values.len() as f64;
        assert!((h.mean() - exact_mean).abs() < 1e-6 * exact_mean.max(1.0));
        let mut last = 0.0;
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            let est = h.quantile(q);
            assert!(est >= last - 1e-12);
            assert!(est <= h.max() + 1e-12);
            last = est;
        }
    });
}

/// The thermal node never overshoots its steady state from below
/// (first-order systems are monotone), and always settles between
/// reference and steady state.
#[test]
fn thermal_node_no_overshoot() {
    check("thermal_node_no_overshoot", |rng| {
        use immersion_cloud::thermal::transient::ThermalNode;
        let r = rng.uniform_range(0.02, 0.5);
        let c = rng.uniform_range(10.0, 1000.0);
        let power = rng.uniform_range(0.0, 400.0);
        let dt = rng.uniform_range(0.1, 500.0);
        let mut node = ThermalNode::new(r, c, 40.0);
        let steady = 40.0 + r * power;
        for _ in 0..50 {
            let t = node.step(power, dt);
            assert!(t >= 40.0 - 1e-9);
            assert!(t <= steady + 1e-9);
        }
    });
}

/// The diurnal load stays within [trough, crest] for all time.
#[test]
fn diurnal_load_bounded() {
    check("diurnal_load_bounded", |rng| {
        use immersion_cloud::workloads::loadgen::DiurnalLoad;
        let base = rng.uniform_range(0.0, 5000.0);
        let amp = rng.uniform_range(0.0, 5000.0);
        let t = rng.uniform_range(0.0, 1e6);
        let d = DiurnalLoad::daily(base, amp);
        let q = d.at(t);
        assert!(q >= d.trough_qps() - 1e-9);
        assert!(q <= d.crest_qps() + 1e-9);
    });
}

/// Histogram merge is commutative and associative: any merge order
/// yields identical bins, counts, and moments.
#[test]
fn histogram_merge_commutative_associative() {
    use immersion_cloud::sim::hist::LogHistogram;
    check("histogram_merge_commutative_associative", |rng| {
        let fresh = || LogHistogram::new(1e-3, 1.7, 48);
        let fill = |rng: &mut SimRng| {
            let mut h = fresh();
            for v in vec_of(rng, 0, 120, |r| r.uniform_range(0.0, 1e6)) {
                h.record(v);
            }
            h
        };
        let (a, b, c) = (fill(rng), fill(rng), fill(rng));
        let merged = |parts: &[&LogHistogram]| {
            let mut out = fresh();
            for p in parts {
                out.merge(p);
            }
            out
        };
        let ab = merged(&[&a, &b]);
        let ba = merged(&[&b, &a]);
        assert_eq!(ab.bins(), ba.bins());
        assert_eq!(ab.count(), ba.count());
        assert!((ab.mean() - ba.mean()).abs() < 1e-9 * ab.mean().abs().max(1.0));
        let mut ab_c = merged(&[&a, &b]);
        ab_c.merge(&c);
        let mut bc = merged(&[&b, &c]);
        let mut a_bc = fresh();
        a_bc.merge(&a);
        a_bc.merge(&bc);
        bc = a_bc;
        assert_eq!(ab_c.bins(), bc.bins());
        assert_eq!(ab_c.count(), bc.count());
        assert_eq!(ab_c.max(), bc.max());
    });
}

/// Scenario JSON round-trips losslessly: serialize → parse recovers
/// every field, even after random f64 perturbations (the writer emits
/// shortest-round-trip literals).
#[test]
fn scenario_roundtrip_preserves_every_field() {
    use immersion_cloud::scenario::Scenario;
    check("scenario_roundtrip_preserves_every_field", |rng| {
        let mut s = Scenario::paper();
        // Perturb a sampling of fields across the calibration surface so
        // the round-trip is tested on arbitrary doubles, not just the
        // paper's tidy literals.
        let p = rng.index(s.thermal.platforms.len());
        s.thermal.platforms[p].r_th_c_per_w *= rng.uniform_range(0.5, 2.0);
        let f = rng.index(s.thermal.fluids.len());
        s.thermal.fluids[f].boiling_point_c += rng.uniform_range(-10.0, 10.0);
        s.power.vf.nominal_v = rng.uniform_range(0.7, s.power.vf.oc_v);
        let r = rng.index(s.reliability.table5.len());
        s.reliability.table5[r].voltage_v += rng.uniform_range(-0.2, 0.2);
        let a = rng.index(s.workloads.apps.len());
        s.workloads.apps[a].mem_bw_gbps = rng.uniform_range(0.0, 100.0);
        s.name = format!("perturbed-{}", rng.index(1_000_000));

        let parsed = Scenario::from_json(&s.to_json()).expect("round-trip parses");
        assert_eq!(parsed, s, "round-trip dropped or altered a field");
    });
}

/// Calibration is live, not decorative: perturbing a platform's thermal
/// resistance moves its Table III junction temperature, and perturbing a
/// Table V fit point's voltage moves its modeled lifetime.
#[test]
fn scenario_perturbation_changes_outputs() {
    use immersion_cloud::reliability::lifetime::table5_rows_from;
    use immersion_cloud::scenario::Scenario;
    use immersion_cloud::thermal::junction::table3_platforms_from;
    check("scenario_perturbation_changes_outputs", |rng| {
        let base = Scenario::paper();
        let mut s = base.clone();

        let p = rng.index(s.thermal.platforms.len());
        s.thermal.platforms[p].r_th_c_per_w *= rng.uniform_range(1.1, 2.0);
        let power = base.thermal.platforms[p].measured_power_w;
        let tj_base = table3_platforms_from(&base.thermal)[p]
            .1
            .junction_temp_c(power);
        let tj_pert = table3_platforms_from(&s.thermal)[p]
            .1
            .junction_temp_c(power);
        assert!(
            tj_pert > tj_base,
            "higher R_th must raise Tj ({tj_pert} vs {tj_base})"
        );

        let r = rng.index(s.reliability.table5.len());
        s.reliability.table5[r].voltage_v += rng.uniform_range(0.05, 0.2);
        let model = CompositeLifetimeModel::from_calibration(&base.reliability);
        let life_base = model.lifetime_years(&table5_rows_from(&base.reliability)[r].conditions);
        let life_pert = model.lifetime_years(&table5_rows_from(&s.reliability)[r].conditions);
        assert!(
            life_pert < life_base,
            "higher voltage must shorten lifetime ({life_pert} vs {life_base})"
        );
    });
}

/// Socket steady-state power is monotone in frequency and voltage.
#[test]
fn socket_power_monotone() {
    check("socket_power_monotone", |rng| {
        let fbins = rng.index(12) as i32;
        let extra_mv = rng.index(100) as u32;
        let sku = CpuSku::skylake_8180();
        let iface = ThermalInterface::two_phase(DielectricFluid::fc3284(), 0.08, 1.6);
        let f0 = sku.base();
        let f1 = f0.step_bins(fbins);
        let v = Voltage::from_mv(900 + extra_mv);
        let p0 = sku
            .steady_state(&iface, f0, Voltage::from_volts(0.9))
            .power_w;
        let p1 = sku.steady_state(&iface, f1, v).power_w;
        assert!(p1 >= p0 - 1e-9);
    });
}
