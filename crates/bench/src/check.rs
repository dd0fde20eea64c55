//! The perf-regression gate behind `ic-bench check`.
//!
//! Compares a kernel-benchmark snapshot (the JSON emitted by
//! `cargo bench --bench kernels -- --json`, checked in as
//! `BENCH_sim.json`) against a freshly measured one, key by key, with
//! per-key tolerance rules:
//!
//! - invariants (`engine_steady_allocs_per_event`, `mgk_boxed_events`)
//!   must stay exactly zero — these guard the allocation-free hot path
//!   (the `engine_*` keys measure `ic_sim::queue::EventQueue`, the
//!   queue under the control plane and the VM lifecycle);
//! - throughput keys may not drop below `1/TOLERANCE` of the baseline;
//! - latency keys may not exceed `TOLERANCE` times the baseline;
//! - `steady_cache_hit_rate` has an absolute floor (the cache is
//!   worthless below it regardless of what the baseline said);
//! - `normal_ns_per_sample_v2` has an absolute ceiling: the ziggurat
//!   draw must stay under [`MAX_NORMAL_V2_NS`] regardless of baseline;
//! - `mgk_events_per_sec_v2` must hold [`MIN_V2_SPEEDUP`]× over the v1
//!   value *in the same snapshot* — a same-host ratio, so runner speed
//!   cancels out and the gate is immune to machine-to-machine drift;
//! - `failover_fails_per_sec` (512 servers) must hold
//!   [`MIN_FAILOVER_SIZE_RATIO`]× the same snapshot's 16-server rate
//!   (`failover_fails_per_sec_16`): failover cost must track the VMs a
//!   failure displaces, not the fleet size;
//! - `schema` must match exactly, so stale baselines fail loudly;
//! - context keys (`mode`, `par_workers`) are reported but never gate.
//!
//! The wide `TOLERANCE` absorbs machine-to-machine and CI-runner noise;
//! the gate exists to catch order-of-magnitude regressions (a lost
//! fast path, an accidental allocation per event), not 5% drift.

use ic_sim::json::{self, Json};
use std::fmt::Write as _;

/// Multiplicative slack for throughput/latency keys: a run fails only
/// when it is more than `TOLERANCE`× worse than the baseline.
pub const TOLERANCE: f64 = 3.0;

/// Absolute floor for `steady_cache_hit_rate`.
pub const MIN_CACHE_HIT_RATE: f64 = 0.5;

/// Absolute ceiling (nanoseconds) for `normal_ns_per_sample_v2`: the
/// issue target for the ziggurat draw. Unlike the relative rules this
/// is a hard number — a v2 normal draw slower than this means the fast
/// path is gone, whatever the baseline recorded.
pub const MAX_NORMAL_V2_NS: f64 = 8.0;

/// Minimum same-snapshot speedup the v2 sampler stream must hold over
/// v1 (`mgk_events_per_sec_v2 / mgk_events_per_sec`).
pub const MIN_V2_SPEEDUP: f64 = 1.5;

/// Minimum same-snapshot ratio of the 512-server failover rate to the
/// 16-server one at equal VM density. A failover that rescans the fleet
/// per failure lands about two orders of magnitude below this.
pub const MIN_FAILOVER_SIZE_RATIO: f64 = 0.25;

/// How a key is judged against the baseline.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Rule {
    /// String values must match exactly.
    ExactStr,
    /// Numeric value must be exactly zero in the current snapshot.
    Zero,
    /// Higher is better: `current * TOLERANCE >= baseline`.
    RateFloor,
    /// Lower is better: `current <= baseline * TOLERANCE`.
    TimeCeiling,
    /// Absolute floor: `current >= MIN_CACHE_HIT_RATE`.
    HitRateFloor,
    /// Absolute ceiling on the current value, baseline ignored.
    AbsCeiling(f64),
    /// Intra-snapshot ratio floor: the current value must be at least
    /// `min` times the named key *of the same (current) snapshot*.
    /// Both sides move with runner speed, so the ratio is host-invariant
    /// in a way baseline-relative rules cannot be.
    RatioFloor(&'static str, f64),
    /// Reported for context, never fails.
    Info,
}

/// Every key of the `ic-bench/kernels/v7` snapshot with its rule.
const RULES: &[(&str, Rule)] = &[
    ("schema", Rule::ExactStr),
    ("mode", Rule::Info),
    ("engine_events_per_sec", Rule::RateFloor),
    ("engine_ms_per_100k_events", Rule::TimeCeiling),
    ("engine_steady_events_per_sec", Rule::RateFloor),
    ("engine_steady_allocs_per_event", Rule::Zero),
    ("normal_ns_per_sample_v1", Rule::TimeCeiling),
    (
        "normal_ns_per_sample_v2",
        Rule::AbsCeiling(MAX_NORMAL_V2_NS),
    ),
    ("mgk_events_per_sec", Rule::RateFloor),
    (
        "mgk_events_per_sec_v2",
        Rule::RatioFloor("mgk_events_per_sec", MIN_V2_SPEEDUP),
    ),
    ("mgk_boxed_events", Rule::Zero),
    ("table11_wall_ms", Rule::TimeCeiling),
    ("sweep_runs_per_sec", Rule::RateFloor),
    ("composed_ctrl_ticks_per_sec", Rule::RateFloor),
    ("composed_ctrl_ticks_per_sec_v2", Rule::RateFloor),
    ("fleet_snapshot_ns_per_vm", Rule::TimeCeiling),
    ("fleet10k_ctrl_ticks_per_sec", Rule::RateFloor),
    ("chaos_events_per_sec", Rule::RateFloor),
    (
        "failover_fails_per_sec",
        Rule::RatioFloor("failover_fails_per_sec_16", MIN_FAILOVER_SIZE_RATIO),
    ),
    ("failover_fails_per_sec_16", Rule::RateFloor),
    ("steady_cache_hit_rate", Rule::HitRateFloor),
    ("par_workers", Rule::Info),
];

/// The verdict for one snapshot key.
#[derive(Debug, Clone, PartialEq)]
pub struct KeyResult {
    /// Snapshot key.
    pub key: &'static str,
    /// `false` when this key gates the run and failed.
    pub passed: bool,
    /// Human-readable `current` / `baseline` comparison.
    pub detail: String,
}

/// The full comparison: one [`KeyResult`] per snapshot key, in schema
/// order.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckReport {
    /// Per-key verdicts.
    pub results: Vec<KeyResult>,
}

impl CheckReport {
    /// `true` when every gating key passed.
    pub fn passed(&self) -> bool {
        self.results.iter().all(|r| r.passed)
    }

    /// Renders the PASS/FAIL table.
    pub fn render(&self) -> String {
        let mut out = String::from("== ic-bench check: current vs baseline ==\n");
        for r in &self.results {
            let verdict = if r.passed { "PASS" } else { "FAIL" };
            let _ = writeln!(out, "{verdict}  {:<32} {}", r.key, r.detail);
        }
        let failed = self.results.iter().filter(|r| !r.passed).count();
        if failed == 0 {
            out.push_str("all keys within tolerance\n");
        } else {
            let _ = writeln!(out, "{failed} key(s) out of tolerance");
        }
        out
    }
}

fn num(doc: &Json, key: &str) -> Result<f64, String> {
    match doc.get(key) {
        Some(Json::Num(v)) => Ok(*v),
        Some(other) => Err(format!("key {key:?} is not a number: {other:?}")),
        None => Err(format!("key {key:?} missing from snapshot")),
    }
}

fn string(doc: &Json, key: &str) -> Result<String, String> {
    match doc.get(key) {
        Some(Json::Str(v)) => Ok(v.clone()),
        Some(other) => Err(format!("key {key:?} is not a string: {other:?}")),
        None => Err(format!("key {key:?} missing from snapshot")),
    }
}

fn judge(rule: Rule, key: &'static str, baseline: &Json, current: &Json) -> KeyResult {
    let judged: Result<(bool, String), String> = (|| match rule {
        Rule::ExactStr => {
            let b = string(baseline, key)?;
            let c = string(current, key)?;
            Ok((
                b == c,
                format!("current={c:?} baseline={b:?} (exact match)"),
            ))
        }
        Rule::Info => {
            let b = doc_value(baseline, key);
            let c = doc_value(current, key);
            Ok((true, format!("current={c} baseline={b} (informational)")))
        }
        Rule::Zero => {
            let c = num(current, key)?;
            Ok((c == 0.0, format!("current={c} (must be exactly 0)")))
        }
        Rule::RateFloor => {
            let b = num(baseline, key)?;
            let c = num(current, key)?;
            Ok((
                c * TOLERANCE >= b,
                format!("current={c:.3} baseline={b:.3} (floor: baseline/{TOLERANCE})"),
            ))
        }
        Rule::TimeCeiling => {
            let b = num(baseline, key)?;
            let c = num(current, key)?;
            Ok((
                c <= b * TOLERANCE,
                format!("current={c:.3} baseline={b:.3} (ceiling: baseline*{TOLERANCE})"),
            ))
        }
        Rule::HitRateFloor => {
            let c = num(current, key)?;
            Ok((
                c >= MIN_CACHE_HIT_RATE,
                format!("current={c:.4} (floor: {MIN_CACHE_HIT_RATE})"),
            ))
        }
        Rule::AbsCeiling(limit) => {
            let c = num(current, key)?;
            Ok((
                c <= limit,
                format!("current={c:.3} (absolute ceiling: {limit})"),
            ))
        }
        Rule::RatioFloor(over, min) => {
            let c = num(current, key)?;
            let denom = num(current, over)?;
            Ok((
                c >= min * denom,
                format!("current={c:.3} vs {min}x current {over}={denom:.3} (same-snapshot floor)"),
            ))
        }
    })();
    match judged {
        Ok((passed, detail)) => KeyResult {
            key,
            passed,
            detail,
        },
        Err(detail) => KeyResult {
            key,
            passed: false,
            detail,
        },
    }
}

fn doc_value(doc: &Json, key: &str) -> String {
    match doc.get(key) {
        Some(Json::Num(v)) => format!("{v}"),
        Some(Json::Str(v)) => format!("{v:?}"),
        Some(other) => format!("{other:?}"),
        None => "<missing>".to_string(),
    }
}

/// Parses both snapshots and judges every key. `Err` means a snapshot
/// was not valid JSON; out-of-tolerance values come back as failed
/// [`KeyResult`]s inside an `Ok` report.
pub fn check(baseline: &str, current: &str) -> Result<CheckReport, String> {
    let baseline = json::parse(baseline)
        .map_err(|e| format!("baseline snapshot: {} at byte {}", e.message, e.offset))?;
    let current = json::parse(current)
        .map_err(|e| format!("current snapshot: {} at byte {}", e.message, e.offset))?;
    Ok(CheckReport {
        results: RULES
            .iter()
            .map(|&(key, rule)| judge(rule, key, &baseline, &current))
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASELINE: &str = r#"{"schema":"ic-bench/kernels/v7","mode":"quick","engine_events_per_sec":22918209.2,"engine_ms_per_100k_events":4.363,"engine_steady_events_per_sec":26229326.6,"engine_steady_allocs_per_event":0,"normal_ns_per_sample_v1":30.5,"normal_ns_per_sample_v2":5.6,"mgk_events_per_sec":8930852.6,"mgk_events_per_sec_v2":14500000.0,"mgk_boxed_events":0,"table11_wall_ms":1617.3,"sweep_runs_per_sec":6.6,"composed_ctrl_ticks_per_sec":120.0,"composed_ctrl_ticks_per_sec_v2":240.0,"fleet_snapshot_ns_per_vm":45.0,"fleet10k_ctrl_ticks_per_sec":300.0,"chaos_events_per_sec":1200000.0,"failover_fails_per_sec":2500000.0,"failover_fails_per_sec_16":6000000.0,"steady_cache_hit_rate":0.996,"par_workers":1}"#;

    #[test]
    fn identical_snapshot_passes_every_key() {
        let report = check(BASELINE, BASELINE).unwrap();
        assert_eq!(report.results.len(), RULES.len());
        assert!(report.passed(), "{}", report.render());
        assert!(report.render().contains("all keys within tolerance"));
    }

    #[test]
    fn moderate_drift_within_tolerance_passes() {
        // Half the throughput and double the latency: ugly, but inside
        // the 3x gate (which only catches order-of-magnitude breakage).
        let current = BASELINE
            .replace("22918209.2", "11459104.6")
            .replace("1617.3", "3234.6");
        let report = check(BASELINE, &current).unwrap();
        assert!(report.passed(), "{}", report.render());
    }

    #[test]
    fn injected_3x_regression_fails_the_gate() {
        let current = BASELINE.replace("\"table11_wall_ms\":1617.3", "\"table11_wall_ms\":5200.0");
        let report = check(BASELINE, &current).unwrap();
        assert!(!report.passed());
        let failed: Vec<&str> = report
            .results
            .iter()
            .filter(|r| !r.passed)
            .map(|r| r.key)
            .collect();
        assert_eq!(failed, ["table11_wall_ms"], "{}", report.render());
        assert!(report.render().contains("FAIL  table11_wall_ms"));
    }

    #[test]
    fn throughput_collapse_fails_the_gate() {
        let current = BASELINE.replace("\"sweep_runs_per_sec\":6.6", "\"sweep_runs_per_sec\":1.0");
        let report = check(BASELINE, &current).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("FAIL  sweep_runs_per_sec"));
    }

    #[test]
    fn hot_path_allocation_fails_regardless_of_tolerance() {
        let current = BASELINE.replace(
            "\"engine_steady_allocs_per_event\":0",
            "\"engine_steady_allocs_per_event\":1",
        );
        let report = check(BASELINE, &current).unwrap();
        assert!(!report.passed());
        assert!(report
            .render()
            .contains("FAIL  engine_steady_allocs_per_event"));
    }

    #[test]
    fn schema_mismatch_and_missing_key_fail() {
        let wrong_schema = BASELINE.replace("kernels/v7", "kernels/v6");
        assert!(!check(BASELINE, &wrong_schema).unwrap().passed());
        let missing = BASELINE.replace("\"table11_wall_ms\":1617.3,", "");
        let report = check(BASELINE, &missing).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("missing from snapshot"));
    }

    #[test]
    fn hit_rate_floor_is_absolute_not_relative() {
        // Even a baseline-matching value fails if it is below the floor.
        let low = BASELINE.replace(
            "\"steady_cache_hit_rate\":0.996",
            "\"steady_cache_hit_rate\":0.4",
        );
        assert!(!check(&low, &low).unwrap().passed());
        let ok = BASELINE.replace(
            "\"steady_cache_hit_rate\":0.996",
            "\"steady_cache_hit_rate\":0.6",
        );
        assert!(check(BASELINE, &ok).unwrap().passed());
    }

    #[test]
    fn fleet_keys_gate_in_both_directions() {
        // Snapshot refill going O(fleet) shows up as a per-VM time blowup.
        let slow_snap = BASELINE.replace(
            "\"fleet_snapshot_ns_per_vm\":45.0",
            "\"fleet_snapshot_ns_per_vm\":500.0",
        );
        let report = check(BASELINE, &slow_snap).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("FAIL  fleet_snapshot_ns_per_vm"));
        // A 10k-domain tick rate collapse means per-tick cost went O(fleet).
        let slow_ticks = BASELINE.replace(
            "\"fleet10k_ctrl_ticks_per_sec\":300.0",
            "\"fleet10k_ctrl_ticks_per_sec\":50.0",
        );
        let report = check(BASELINE, &slow_ticks).unwrap();
        assert!(!report.passed());
        assert!(report
            .render()
            .contains("FAIL  fleet10k_ctrl_ticks_per_sec"));
    }

    #[test]
    fn v2_normal_ceiling_is_absolute_not_relative() {
        // Even when baseline and current agree, a v2 normal draw above
        // the 8 ns ceiling fails: the target is the issue's, not the
        // baseline's.
        let slow = BASELINE.replace(
            "\"normal_ns_per_sample_v2\":5.6",
            "\"normal_ns_per_sample_v2\":9.1",
        );
        let report = check(&slow, &slow).unwrap();
        assert!(!report.passed());
        assert!(report.render().contains("FAIL  normal_ns_per_sample_v2"));
        assert!(report.render().contains("absolute ceiling"));
    }

    #[test]
    fn v2_speedup_is_judged_within_one_snapshot() {
        // mgk v2 dropping under 1.5x the *current* v1 value fails even
        // though both keys individually clear the 3x baseline slack.
        let current = BASELINE.replace(
            "\"mgk_events_per_sec_v2\":14500000.0",
            "\"mgk_events_per_sec_v2\":9000000.0",
        );
        let report = check(BASELINE, &current).unwrap();
        assert!(!report.passed());
        let failed: Vec<&str> = report
            .results
            .iter()
            .filter(|r| !r.passed)
            .map(|r| r.key)
            .collect();
        assert_eq!(failed, ["mgk_events_per_sec_v2"], "{}", report.render());
        // And the ratio tracks the snapshot's own v1 value: a slower
        // runner where both streams scale down together still passes.
        let slow_host = BASELINE
            .replace(
                "\"mgk_events_per_sec\":8930852.6",
                "\"mgk_events_per_sec\":4465426.3",
            )
            .replace(
                "\"mgk_events_per_sec_v2\":14500000.0",
                "\"mgk_events_per_sec_v2\":7250000.0",
            );
        assert!(
            check(BASELINE, &slow_host).unwrap().passed(),
            "{}",
            check(BASELINE, &slow_host).unwrap().render()
        );
    }

    #[test]
    fn failover_must_not_slow_with_fleet_size() {
        // A 512-server failover rate that fell to a rescan's ~1/200 of
        // the 16-server rate fails, though it is judged against the
        // same snapshot, not the baseline.
        let rescan = BASELINE.replace(
            "\"failover_fails_per_sec\":2500000.0",
            "\"failover_fails_per_sec\":30000.0",
        );
        let report = check(BASELINE, &rescan).unwrap();
        let failed: Vec<&str> = report
            .results
            .iter()
            .filter(|r| !r.passed)
            .map(|r| r.key)
            .collect();
        assert_eq!(failed, ["failover_fails_per_sec"], "{}", report.render());
        // A host 4x slower on both sizes keeps the ratio and passes the
        // ratio rule (the 16-server key then trips its own 3x floor).
        let slow_host = BASELINE
            .replace(
                "\"failover_fails_per_sec\":2500000.0",
                "\"failover_fails_per_sec\":625000.0",
            )
            .replace(
                "\"failover_fails_per_sec_16\":6000000.0",
                "\"failover_fails_per_sec_16\":1500000.0",
            );
        let report = check(BASELINE, &slow_host).unwrap();
        let ratio = report
            .results
            .iter()
            .find(|r| r.key == "failover_fails_per_sec")
            .unwrap();
        assert!(ratio.passed, "{}", report.render());
    }

    #[test]
    fn malformed_json_is_a_hard_error() {
        assert!(check(BASELINE, "{not json").is_err());
        assert!(check("[1,", BASELINE).is_err());
    }

    #[test]
    fn par_workers_is_informational() {
        let current = BASELINE.replace("\"par_workers\":1", "\"par_workers\":8");
        let report = check(BASELINE, &current).unwrap();
        assert!(report.passed(), "{}", report.render());
        assert!(report.render().contains("informational"));
    }
}
