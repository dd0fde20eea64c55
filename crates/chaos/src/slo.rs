//! The SLO scorecard: what the faults cost the service.
//!
//! A fault run is only interesting if its damage is measured the way
//! an operator would: availability (server-seconds lost), latency-SLO
//! breach minutes (how many wall-clock minutes the P95/P99 exceeded
//! the objective), and how many evicted VMs made it back. The
//! scorecard is computed once from the run's timestamped completion
//! log plus the world's fault accounting, and lands in the experiment
//! record.

use ic_sim::stats::Tally;

/// Latency objectives, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LatencySlo {
    /// The P95 objective.
    pub p95_s: f64,
    /// The P99 objective.
    pub p99_s: f64,
}

/// Everything the scorecard needs from one fleet run.
#[derive(Debug, Clone)]
pub struct SloInputs<'a> {
    /// `(completion time s, latency s)` for every completed request.
    pub completions: &'a [(f64, f64)],
    /// Run horizon, seconds.
    pub horizon_s: f64,
    /// Fleet availability over the horizon, `[0, 1]`.
    pub availability: f64,
    /// Server failures injected/applied.
    pub failures: u64,
    /// Evicted VMs successfully re-placed (failed-then-recovered).
    pub recovered_vms: u64,
    /// Correctable-error bursts injected.
    pub error_bursts: u64,
    /// Total correctable errors across the fleet.
    pub errors_total: u64,
}

/// The per-fleet damage report.
#[derive(Debug, Clone, PartialEq)]
pub struct SloScorecard {
    /// Fleet availability over the horizon.
    pub availability: f64,
    /// Server failures applied.
    pub failures: u64,
    /// Evicted VMs successfully re-placed.
    pub recovered_vms: u64,
    /// Correctable-error bursts injected.
    pub error_bursts: u64,
    /// Total correctable errors.
    pub errors_total: u64,
    /// Requests completed.
    pub completed: u64,
    /// Whole-run P95 latency, seconds (nearest rank).
    pub p95_latency_s: f64,
    /// Whole-run P99 latency, seconds (nearest rank).
    pub p99_latency_s: f64,
    /// Minutes whose per-minute P95 exceeded the objective.
    pub p95_breach_min: f64,
    /// Minutes whose per-minute P99 exceeded the objective.
    pub p99_breach_min: f64,
}

/// The nearest-rank `q`-quantile of `latencies`; an empty tally (a
/// minute without completions) reports 0.
fn percentile(latencies: &mut Tally, q: f64) -> f64 {
    if latencies.is_empty() {
        0.0
    } else {
        latencies.percentile(q)
    }
}

impl SloScorecard {
    /// Scores one run. Completions are bucketed into whole minutes of
    /// the horizon; a minute with no completions while demand exists is
    /// not counted as a breach (there is nothing to measure), which
    /// keeps the metric conservative.
    pub fn compute(inputs: &SloInputs<'_>, slo: &LatencySlo) -> Self {
        let mut all: Tally = inputs.completions.iter().map(|&(_, lat)| lat).collect();
        let p95_latency_s = percentile(&mut all, 0.95);
        let p99_latency_s = percentile(&mut all, 0.99);

        let minutes = (inputs.horizon_s / 60.0).ceil().max(0.0) as usize;
        let mut buckets: Vec<Tally> = vec![Tally::new(); minutes];
        for &(at_s, lat_s) in inputs.completions {
            let idx = ((at_s / 60.0) as usize).min(minutes.saturating_sub(1));
            if minutes > 0 {
                buckets[idx].record(lat_s);
            }
        }
        let mut p95_breach_min = 0.0;
        let mut p99_breach_min = 0.0;
        for bucket in &mut buckets {
            if bucket.is_empty() {
                continue;
            }
            if percentile(bucket, 0.95) > slo.p95_s {
                p95_breach_min += 1.0;
            }
            if percentile(bucket, 0.99) > slo.p99_s {
                p99_breach_min += 1.0;
            }
        }

        SloScorecard {
            availability: inputs.availability,
            failures: inputs.failures,
            recovered_vms: inputs.recovered_vms,
            error_bursts: inputs.error_bursts,
            errors_total: inputs.errors_total,
            completed: inputs.completions.len() as u64,
            p95_latency_s,
            p99_latency_s,
            p95_breach_min,
            p99_breach_min,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inputs(completions: &[(f64, f64)], horizon_s: f64) -> SloInputs<'_> {
        SloInputs {
            completions,
            horizon_s,
            availability: 0.97,
            failures: 3,
            recovered_vms: 5,
            error_bursts: 7,
            errors_total: 21,
        }
    }

    #[test]
    fn breach_minutes_count_only_breaching_buckets() {
        // Minutes 0–2 healthy (10 ms), minute 3 degraded (500 ms).
        let mut completions = Vec::new();
        for minute in 0..4u32 {
            for i in 0..100u32 {
                let t = minute as f64 * 60.0 + i as f64 * 0.5;
                let lat = if minute == 3 { 0.5 } else { 0.01 };
                completions.push((t, lat));
            }
        }
        let slo = LatencySlo {
            p95_s: 0.1,
            p99_s: 0.05,
        };
        let card = SloScorecard::compute(&inputs(&completions, 240.0), &slo);
        assert_eq!(card.p95_breach_min, 1.0);
        // P99 objective is tighter but still only minute 3 breaches.
        assert_eq!(card.p99_breach_min, 1.0);
        assert_eq!(card.completed, 400);
        assert_eq!(card.availability, 0.97);
        assert_eq!(card.failures, 3);
        assert_eq!(card.recovered_vms, 5);
        // Whole-run percentiles: 3/4 of traffic at 10 ms, the P95 lands
        // in the degraded tail.
        assert!(card.p95_latency_s > 0.1);
    }

    #[test]
    fn empty_run_scores_zero_latency() {
        let slo = LatencySlo {
            p95_s: 0.1,
            p99_s: 0.2,
        };
        let card = SloScorecard::compute(&inputs(&[], 120.0), &slo);
        assert_eq!(card.completed, 0);
        assert_eq!(card.p95_latency_s, 0.0);
        assert_eq!(card.p95_breach_min, 0.0);
        assert_eq!(card.p99_breach_min, 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let mut lat: Tally = (1..=100).map(|i| i as f64).collect();
        assert_eq!(percentile(&mut lat, 0.95), 95.0);
        assert_eq!(percentile(&mut lat, 0.99), 99.0);
        let mut single: Tally = [4.2].into_iter().collect();
        assert_eq!(percentile(&mut single, 0.95), 4.2);
    }

    #[test]
    fn late_completions_clamp_into_the_last_bucket() {
        // A completion stamped exactly at the horizon must not panic.
        let completions = vec![(120.0, 9.9), (119.0, 9.9)];
        let slo = LatencySlo {
            p95_s: 0.1,
            p99_s: 0.1,
        };
        let card = SloScorecard::compute(&inputs(&completions, 120.0), &slo);
        assert_eq!(card.p95_breach_min, 1.0);
    }
}
