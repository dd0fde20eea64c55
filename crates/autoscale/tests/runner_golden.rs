//! Golden pins for [`Runner`]: every field of every [`RunResult`] —
//! scalars as f64 bits, counts as integers, and all three time series
//! point by point — folded into one FNV-1a hash per run.
//!
//! The cases cover the three Table XI policies on a shortened paper
//! ramp at two seeds, plus the Figure 15 validation config. Any change
//! to how the runner drives the auto-scaler, steps the schedule,
//! accounts windows or models host power moves a digest.

use ic_autoscale::policy::Policy;
use ic_autoscale::runner::{ramp_schedule, RunResult, Runner, RunnerConfig};
use ic_sim::series::TimeSeries;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(h: &mut u64, x: u64) {
    for b in x.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(FNV_PRIME);
    }
}

fn fnv_str(h: &mut u64, s: &str) {
    fnv(h, s.len() as u64);
    for b in s.bytes() {
        fnv(h, b as u64);
    }
}

fn fnv_series(h: &mut u64, series: &TimeSeries) {
    fnv_str(h, series.name());
    fnv(h, series.len() as u64);
    for &(at, value) in series.points() {
        fnv(h, at.as_nanos());
        fnv(h, value.to_bits());
    }
}

fn digest(r: &RunResult) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_str(&mut h, r.policy);
    fnv(&mut h, r.p95_latency_s.to_bits());
    fnv(&mut h, r.avg_latency_s.to_bits());
    fnv(&mut h, r.max_vms as u64);
    fnv(&mut h, r.vm_hours.to_bits());
    fnv(&mut h, r.avg_power_w.to_bits());
    fnv(&mut h, r.completed);
    fnv(&mut h, r.sim_events);
    fnv_series(&mut h, &r.utilization);
    fnv_series(&mut h, &r.frequency_pct);
    fnv_series(&mut h, &r.vm_count);
    h
}

/// The paper config on a 500 → 2000 QPS ramp (paper dwell).
fn short_ramp() -> RunnerConfig {
    let mut cfg = RunnerConfig::paper();
    cfg.schedule = ramp_schedule(500.0, 2000.0, 500.0, 300.0);
    cfg
}

#[rustfmt::skip]
const GOLDEN: &[(&str, Policy, u64, u64)] = &[
    ("short", Policy::Baseline, 7, 0xa2d99cebd81325bc),
    ("short", Policy::OcE, 7, 0x3f21388e2a1738ca),
    ("short", Policy::OcA, 7, 0x5b4aeb47fc81c035),
    ("short", Policy::Baseline, 42, 0x53badc807e4376a6),
    ("short", Policy::OcE, 42, 0xcfb0f8bbd9430b55),
    ("short", Policy::OcA, 42, 0x356982a958f61b25),
    ("validation", Policy::OcA, 42, 0x2f9bac05f744f787),
];

#[test]
fn run_results_match_golden_digests() {
    let mut mismatches = Vec::new();
    for &(case, policy, seed, want) in GOLDEN {
        let config = match case {
            "short" => short_ramp(),
            "validation" => RunnerConfig::validation(),
            _ => unreachable!("unknown case {case}"),
        };
        let got = digest(&Runner::new(config, policy, seed).run());
        if got != want {
            mismatches.push(format!("{case} {policy:?} seed {seed}: {got:#018x}"));
        }
    }
    assert!(
        mismatches.is_empty(),
        "digest mismatches:\n{}",
        mismatches.join("\n")
    );
}
