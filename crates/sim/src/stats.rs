//! Streaming statistics used to report the paper's evaluation metrics.
//!
//! The evaluation section reports tail latencies (P95 for SQL and the
//! client-server app, P99 for the key-value store), average and P99 power
//! draws, and time-averaged CPU utilization. [`Tally`] collects samples
//! (request latencies in 4 bytes each) and answers exact nearest-rank
//! percentile queries; [`Welford`] maintains running mean/variance;
//! [`TimeWeighted`] computes time-weighted averages of step signals such as
//! utilization and power; [`SlidingWindow`] provides the 30-second and
//! 3-minute trailing averages the auto-scaler's control loop uses.

use crate::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// A sample collector with exact percentile queries.
///
/// Stores all samples; suitable for simulation-scale data (millions of
/// points). Percentiles use the nearest-rank method in
/// [`f64::total_cmp`] order.
///
/// A sample that is a whole number of nanoseconds below 2^32, expressed
/// in seconds exactly as [`SimDuration::as_secs_f64`] does (`ns as f64 /
/// 1e9`), is kept as that `u32` nanosecond count: every request latency
/// an M/G/k completion log reports takes 4 bytes instead of 8. Anything
/// else (negative values, `-0.0`, values of 4.29 s or more, values that
/// are not such a quotient) is kept as an `f64`. The running sum is kept
/// in record order, so [`mean`](Self::mean) is exactly the record-order
/// sum over the count.
///
/// A percentile query selects in place over both stores (quickselect
/// with pivots drawn from the larger store) without copying or sorting
/// the samples.
///
/// # Example
///
/// ```
/// use ic_sim::stats::Tally;
///
/// let mut t = Tally::new();
/// for i in 1..=100 {
///     t.record(i as f64);
/// }
/// assert_eq!(t.percentile(0.95), 95.0);
/// assert_eq!(t.mean(), 50.5);
/// ```
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Tally {
    /// Samples that are exact nanosecond counts, as those counts.
    nanos: Vec<u32>,
    /// Every other sample.
    other: Vec<f64>,
    sum: f64,
}

/// `n` nanoseconds in seconds, as [`SimDuration::as_secs_f64`] computes it.
#[inline]
fn secs(n: u32) -> f64 {
    n as f64 / 1e9
}

/// The nanosecond count `value` is the [`secs`] of, if any. A truncating
/// cast, not [`f64::round`] (a libm call on baseline x86-64), keeps the
/// record path cheap; the round trip decides.
#[inline]
fn nanos(value: f64) -> Option<u32> {
    let n = (value * 1e9 + 0.5) as u32;
    (secs(n).to_bits() == value.to_bits()).then_some(n)
}

impl Tally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Tally::default()
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    #[inline]
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "cannot tally non-finite value {value}");
        match nanos(value) {
            Some(n) => self.nanos.push(n),
            None => self.other.push(value),
        }
        self.sum += value;
    }

    /// The number of recorded samples.
    pub fn len(&self) -> usize {
        self.nanos.len() + self.other.len()
    }

    /// `true` if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The arithmetic mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.sum / self.len() as f64
        }
    }

    /// The maximum sample, or 0 if empty or no sample is positive.
    pub fn max(&self) -> f64 {
        let other = self
            .other
            .iter()
            .fold(0.0, |max, &v| if v > max { v } else { max });
        let nanos = self.nanos.iter().max().map_or(0.0, |&n| secs(n));
        if nanos > other {
            nanos
        } else {
            other
        }
    }

    /// The `q`-quantile (e.g. `0.95` for P95) by nearest rank.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`, or if the tally is empty — a
    /// percentile of nothing is a logic error, not a zero.
    pub fn percentile(&mut self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        assert!(
            !self.is_empty(),
            "percentile query on an empty Tally — record at least one sample first"
        );
        let n = self.len();
        let rank = ((q * n as f64).ceil() as usize).max(1) - 1;
        select(&mut self.nanos, &mut self.other, rank.min(n - 1))
    }

    /// Removes all samples.
    pub fn clear(&mut self) {
        self.nanos.clear();
        self.other.clear();
        self.sum = 0.0;
    }
}

/// The `rank`-th smallest (from 0, in [`f64::total_cmp`] order) of the
/// union of `nanos` (as [`secs`]) and `other`, found by quickselect over
/// both slices in place.
///
/// Each round selects a pivot in the larger slice, at the rank's share
/// of it, and partitions the other slice around the pivot's value. No
/// sample of one slice equals one of the other (a value that is the
/// `secs` of a count is always stored as that count), so the pivot's
/// rank in the union is the sum of the two split points.
fn select(mut nanos: &mut [u32], mut other: &mut [f64], mut rank: usize) -> f64 {
    loop {
        if other.is_empty() {
            return secs(*nanos.select_nth_unstable(rank).1);
        }
        if nanos.is_empty() {
            return *other.select_nth_unstable_by(rank, f64::total_cmp).1;
        }
        let total = (nanos.len() + other.len()) as u128;
        let share = |len: usize| (rank as u128 * len as u128 / total) as usize;
        let from_nanos = nanos.len() >= other.len();
        let (pivot, in_nanos, in_other) = if from_nanos {
            let at = share(nanos.len());
            let pivot = secs(*nanos.select_nth_unstable(at).1);
            let below = partition(other, |v| v.total_cmp(&pivot).is_lt());
            (pivot, at, below)
        } else {
            let at = share(other.len());
            let pivot = *other.select_nth_unstable_by(at, f64::total_cmp).1;
            let below = partition(nanos, |n| secs(n).total_cmp(&pivot).is_lt());
            (pivot, below, at)
        };
        // `in_nanos + in_other` samples sort before the pivot.
        let before = in_nanos + in_other;
        if rank == before {
            return pivot;
        }
        if rank < before {
            nanos = &mut nanos[..in_nanos];
            other = &mut other[..in_other];
        } else {
            rank -= before + 1;
            let (skip_nanos, skip_other) = if from_nanos { (1, 0) } else { (0, 1) };
            nanos = &mut nanos[in_nanos + skip_nanos..];
            other = &mut other[in_other + skip_other..];
        }
    }
}

/// Moves the elements of `v` for which `below` holds to its front and
/// returns how many there are.
fn partition<T: Copy>(v: &mut [T], below: impl Fn(T) -> bool) -> usize {
    let mut split = 0;
    for i in 0..v.len() {
        if below(v[i]) {
            v.swap(split, i);
            split += 1;
        }
    }
    split
}

impl Extend<f64> for Tally {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<f64> for Tally {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Self {
        let mut t = Tally::new();
        t.extend(iter);
        t
    }
}

/// Numerically stable running mean and variance (Welford's algorithm).
///
/// # Example
///
/// ```
/// use ic_sim::stats::Welford;
///
/// let mut w = Welford::new();
/// for v in [2.0, 4.0, 6.0] {
///     w.record(v);
/// }
/// assert_eq!(w.mean(), 4.0);
/// assert_eq!(w.population_variance(), 8.0 / 3.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Welford {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Welford {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is not finite.
    pub fn record(&mut self, value: f64) {
        assert!(value.is_finite(), "cannot record non-finite value {value}");
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// The number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The running mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// The population variance (dividing by `n`), or 0 if empty.
    pub fn population_variance(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// The population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.population_variance().sqrt()
    }

    /// The minimum sample, or 0 if empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// The maximum sample, or 0 if empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Time-weighted average of a piecewise-constant signal, e.g. server power
/// or CPU utilization over a simulation run.
///
/// # Example
///
/// ```
/// use ic_sim::stats::TimeWeighted;
/// use ic_sim::time::SimTime;
///
/// let mut tw = TimeWeighted::new(SimTime::ZERO, 100.0);
/// tw.set(SimTime::from_secs(10), 200.0); // 100 W for 10 s
/// assert_eq!(tw.average(SimTime::from_secs(20)), 150.0); // then 200 W for 10 s
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    start: SimTime,
}

impl TimeWeighted {
    /// Starts tracking a signal whose value is `initial` at `start`.
    pub fn new(start: SimTime, initial: f64) -> Self {
        TimeWeighted {
            last_time: start,
            last_value: initial,
            weighted_sum: 0.0,
            start,
        }
    }

    /// Updates the signal to `value` at time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the previous update.
    pub fn set(&mut self, at: SimTime, value: f64) {
        assert!(at >= self.last_time, "updates must be in time order");
        self.weighted_sum += self.last_value * (at - self.last_time).as_secs_f64();
        self.last_time = at;
        self.last_value = value;
    }

    /// The current value of the signal.
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// The time-weighted average over `[start, until]`.
    ///
    /// # Panics
    ///
    /// Panics if `until` precedes the last update.
    pub fn average(&self, until: SimTime) -> f64 {
        assert!(until >= self.last_time, "cannot average into the past");
        let total = (until - self.start).as_secs_f64();
        if total == 0.0 {
            return self.last_value;
        }
        let sum = self.weighted_sum + self.last_value * (until - self.last_time).as_secs_f64();
        sum / total
    }
}

/// A trailing time-window average of timestamped samples — the primitive
/// behind the auto-scaler's "average CPU utilization over the last 30 s /
/// 3 min" signals (paper Section VI-D).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct SlidingWindow {
    window: SimDuration,
    samples: std::collections::VecDeque<(SimTime, f64)>,
}

impl SlidingWindow {
    /// Creates a window of the given length.
    pub fn new(window: SimDuration) -> Self {
        SlidingWindow {
            window,
            samples: std::collections::VecDeque::new(),
        }
    }

    /// Records a sample at `at`, evicting samples older than the window.
    ///
    /// # Panics
    ///
    /// Panics if `at` precedes the newest recorded sample.
    pub fn record(&mut self, at: SimTime, value: f64) {
        if let Some(&(last, _)) = self.samples.back() {
            assert!(at >= last, "samples must arrive in time order");
        }
        self.samples.push_back((at, value));
        // Evict strictly-older samples, keeping those inside [at - window, at].
        while let Some(&(t, _)) = self.samples.front() {
            if (at - t) > self.window {
                self.samples.pop_front();
            } else {
                break;
            }
        }
    }

    /// The unweighted mean of the samples currently in the window, or
    /// `None` if the window is empty.
    pub fn mean(&self) -> Option<f64> {
        if self.samples.is_empty() {
            None
        } else {
            Some(self.samples.iter().map(|&(_, v)| v).sum::<f64>() / self.samples.len() as f64)
        }
    }

    /// The most recent sample value, if any.
    pub fn latest(&self) -> Option<f64> {
        self.samples.back().map(|&(_, v)| v)
    }

    /// The number of samples in the window.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// `true` if the window holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The least-squares linear trend of the windowed samples, in value
    /// units per second, or `None` with fewer than two samples (or zero
    /// time spread). Used for forecast-based (predictive) control.
    pub fn linear_trend_per_sec(&self) -> Option<f64> {
        if self.samples.len() < 2 {
            return None;
        }
        let n = self.samples.len() as f64;
        let t0 = self.samples.front().expect("non-empty").0;
        // Two passes, no intermediate buffer: recomputing x from the
        // timestamps is cheaper than allocating per query on the
        // auto-scaler's control path.
        let mut sum_x = 0.0;
        let mut sum_y = 0.0;
        for &(t, v) in &self.samples {
            sum_x += (t - t0).as_secs_f64();
            sum_y += v;
        }
        let mean_x = sum_x / n;
        let mean_y = sum_y / n;
        let mut sxx = 0.0;
        let mut sxy = 0.0;
        for &(t, y) in &self.samples {
            let x = (t - t0).as_secs_f64();
            sxx += (x - mean_x).powi(2);
            sxy += (x - mean_x) * (y - mean_y);
        }
        if sxx == 0.0 {
            None
        } else {
            Some(sxy / sxx)
        }
    }

    /// Extrapolates the windowed mean `horizon_s` seconds ahead along
    /// the linear trend; falls back to the plain mean when no trend can
    /// be estimated.
    pub fn forecast(&self, horizon_s: f64) -> Option<f64> {
        let mean = self.mean()?;
        match self.linear_trend_per_sec() {
            Some(slope) => Some(mean + slope * horizon_s),
            None => Some(mean),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_percentiles_nearest_rank() {
        let mut t: Tally = (1..=10).map(|i| i as f64).collect();
        assert_eq!(t.percentile(0.0), 1.0);
        assert_eq!(t.percentile(0.5), 5.0);
        assert_eq!(t.percentile(0.95), 10.0);
        assert_eq!(t.percentile(1.0), 10.0);
        assert_eq!(t.len(), 10);
        assert_eq!(t.max(), 10.0);
    }

    #[test]
    fn tally_empty_behaviour() {
        let t = Tally::new();
        assert!(t.is_empty());
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.max(), 0.0);
    }

    #[test]
    #[should_panic(expected = "empty Tally")]
    fn tally_percentile_on_empty_panics() {
        Tally::new().percentile(0.95);
    }

    #[test]
    fn tally_interleaved_record_and_query() {
        let mut t = Tally::new();
        t.record(5.0);
        assert_eq!(t.percentile(0.5), 5.0);
        t.record(1.0);
        assert_eq!(t.percentile(0.0), 1.0);
        t.clear();
        assert!(t.is_empty());
    }

    #[test]
    #[should_panic(expected = "non-finite")]
    fn tally_rejects_nan() {
        Tally::new().record(f64::NAN);
    }

    /// Property test: under random interleavings of records and queries,
    /// every percentile answer (whether served by the sorted prefix, a
    /// tail merge, or quickselect) equals the nearest-rank value of a
    /// freshly sorted copy of the same samples.
    #[test]
    fn tally_percentiles_match_sorted_reference() {
        use crate::rng::SimRng;
        for seed in 0..20u64 {
            let mut rng = SimRng::seed_from_u64(seed);
            let mut t = Tally::new();
            let mut reference: Vec<f64> = Vec::new();
            for _ in 0..200 {
                let burst = 1 + rng.next_u64() % 24;
                for _ in 0..burst {
                    // Mix of random, duplicate, and monotone values so
                    // both the sorted-append and unsorted-tail paths run.
                    let v = match rng.next_u64() % 4 {
                        0 => (rng.next_u64() % 1000) as f64,
                        1 => 500.0,
                        _ => reference.len() as f64,
                    };
                    t.record(v);
                    reference.push(v);
                }
                let q = (rng.next_u64() % 101) as f64 / 100.0;
                let got = t.percentile(q);
                let mut sorted = reference.clone();
                sorted.sort_by(f64::total_cmp);
                let rank = ((q * sorted.len() as f64).ceil() as usize).max(1) - 1;
                let want = sorted[rank.min(sorted.len() - 1)];
                assert_eq!(got, want, "seed {seed} q {q} n {}", sorted.len());
                assert_eq!(t.len(), reference.len());
            }
        }
    }

    /// The sorted-prefix `Tally` that kept every sample as an `f64`: the
    /// oracle for the two-store representation.
    mod reference {
        #[derive(Debug, Default)]
        pub struct Tally {
            samples: Vec<f64>,
            sorted_len: usize,
            sum: f64,
            selects_since_merge: u32,
            scratch: Vec<f64>,
        }

        const TALLY_SELECT_PROMOTE: u32 = 3;

        impl Tally {
            pub fn record(&mut self, value: f64) {
                assert!(value.is_finite(), "cannot tally non-finite value {value}");
                if self.sorted_len == self.samples.len()
                    && self
                        .samples
                        .last()
                        .is_none_or(|last| last.total_cmp(&value) != std::cmp::Ordering::Greater)
                {
                    self.sorted_len += 1;
                }
                self.samples.push(value);
                self.sum += value;
            }

            pub fn len(&self) -> usize {
                self.samples.len()
            }

            pub fn mean(&self) -> f64 {
                if self.samples.is_empty() {
                    0.0
                } else {
                    self.sum / self.samples.len() as f64
                }
            }

            pub fn max(&self) -> f64 {
                self.samples
                    .iter()
                    .copied()
                    .fold(f64::MIN, f64::max)
                    .max(0.0)
            }

            pub fn percentile(&mut self, q: f64) -> f64 {
                assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
                assert!(!self.samples.is_empty());
                let n = self.samples.len();
                let rank = ((q * n as f64).ceil() as usize).max(1) - 1;
                let rank = rank.min(n - 1);
                let tail = n - self.sorted_len;
                if tail == 0 {
                    return self.samples[rank];
                }
                if tail <= n / 8 + 16 || self.selects_since_merge >= TALLY_SELECT_PROMOTE {
                    self.merge_tail();
                    self.samples[rank]
                } else {
                    self.selects_since_merge += 1;
                    let (_, v, _) = self.samples.select_nth_unstable_by(rank, f64::total_cmp);
                    let v = *v;
                    self.sorted_len = 0;
                    v
                }
            }

            fn merge_tail(&mut self) {
                let n = self.samples.len();
                self.samples[self.sorted_len..].sort_unstable_by(f64::total_cmp);
                if self.sorted_len > 0 && self.sorted_len < n {
                    self.scratch.clear();
                    self.scratch.reserve(n);
                    let (a, b) = self.samples.split_at(self.sorted_len);
                    let (mut i, mut j) = (0, 0);
                    while i < a.len() && j < b.len() {
                        if b[j].total_cmp(&a[i]) == std::cmp::Ordering::Less {
                            self.scratch.push(b[j]);
                            j += 1;
                        } else {
                            self.scratch.push(a[i]);
                            i += 1;
                        }
                    }
                    self.scratch.extend_from_slice(&a[i..]);
                    self.scratch.extend_from_slice(&b[j..]);
                    std::mem::swap(&mut self.samples, &mut self.scratch);
                    self.scratch.clear();
                }
                self.sorted_len = n;
                self.selects_since_merge = 0;
            }

            pub fn clear(&mut self) {
                self.samples.clear();
                self.sum = 0.0;
                self.sorted_len = 0;
                self.selects_since_merge = 0;
            }
        }
    }

    /// One sample of a differential stream. `mix` weights the kinds: 0
    /// is latencies only, 1 adds overload latencies past the `u32`
    /// range, 2 draws every kind, 3 leaves out latencies.
    fn mixed_sample(rng: &mut crate::rng::SimRng, mix: u64) -> f64 {
        let kind = match mix {
            0 => 0,
            1 => [0, 0, 0, 1][rng.index(4)],
            2 => rng.index(6),
            _ => 1 + rng.index(5),
        };
        match kind {
            // Latency-shaped: a whole number of nanoseconds, mostly
            // milliseconds, up to the last count a `u32` holds.
            0 => match rng.index(8) {
                0 => SimDuration::from_nanos(u32::MAX as u64 - rng.index(3) as u64),
                1 => SimDuration::from_nanos(rng.index(4) as u64),
                2 => SimDuration::from_nanos(rng.next_u64() % (1 << 32)),
                _ => SimDuration::from_nanos(rng.next_u64() % 50_000_000),
            }
            .as_secs_f64(),
            // At or past 2^32 ns.
            1 => SimDuration::from_nanos((1 << 32) + rng.next_u64() % (1 << 36)).as_secs_f64(),
            // Signed zeros.
            2 => [0.0, -0.0][rng.index(2)],
            // Negative values, some of them negated latencies.
            3 => match rng.index(2) {
                0 => -SimDuration::from_nanos(rng.next_u64() % 50_000_000).as_secs_f64(),
                _ => rng.uniform_range(-1e6, 0.0),
            },
            // In the `u32` range but no whole nanosecond count.
            4 => match rng.index(3) {
                0 => rng.uniform(),
                1 => (rng.next_u64() % 1_000_000) as f64 * 1e-9 + 2.5e-10,
                _ => rng.uniform_range(0.0, 4.3),
            },
            // Large values and a few repeats of one value.
            _ => match rng.index(2) {
                0 => rng.uniform_range(4.3, 1e12),
                _ => 0.125,
            },
        }
    }

    fn assert_same(got: &mut Tally, want: &mut reference::Tally, q: f64, at: &str) {
        assert_eq!(got.len(), want.len(), "{at}");
        if want.len() > 0 {
            let (g, w) = (got.percentile(q), want.percentile(q));
            assert_eq!(g.to_bits(), w.to_bits(), "{at} q {q}: {g} != {w}");
        }
        assert_eq!(got.mean().to_bits(), want.mean().to_bits(), "{at} mean");
        let (g, w) = (got.max(), want.max());
        // `f64::max` may return either zero for `max(-0.0, 0.0)`, so the
        // reference's maximum of samples none of which is positive is
        // a zero of either sign; the two-store tally reports `+0.0`.
        assert!(
            g.to_bits() == w.to_bits() || (g == 0.0 && w == 0.0 && g.is_sign_positive()),
            "{at} max {g} != {w}"
        );
    }

    /// Differential test against the all-`f64` sorted-prefix tally:
    /// seeded streams of every sample kind, records interleaved with
    /// queries on the 0.00–1.00 grid and with `clear`, checked bitwise.
    #[test]
    fn tally_matches_the_all_f64_reference() {
        use crate::rng::SimRng;
        for seed in 0..32u64 {
            let mix = seed % 4;
            let mut rng = SimRng::seed_from_u64(1000 + seed);
            let mut got = Tally::new();
            let mut want = reference::Tally::default();
            for step in 0..80 {
                match rng.index(20) {
                    0 => {
                        got.clear();
                        want.clear();
                    }
                    1 => {
                        for i in 0..=100 {
                            let at = format!("seed {seed} step {step} sweep");
                            assert_same(&mut got, &mut want, i as f64 / 100.0, &at);
                        }
                    }
                    _ => {
                        let long = rng.chance(0.1);
                        let burst = 1 + rng.index(if long { 400 } else { 24 });
                        for _ in 0..burst {
                            let v = mixed_sample(&mut rng, mix);
                            got.record(v);
                            want.record(v);
                        }
                        let q = rng.index(101) as f64 / 100.0;
                        assert_same(&mut got, &mut want, q, &format!("seed {seed} step {step}"));
                    }
                }
            }
        }
    }

    #[test]
    fn latencies_are_stored_as_nanoseconds() {
        let mut t = Tally::new();
        for ns in [0, 1, 2_800_000, u32::MAX as u64] {
            t.record(SimDuration::from_nanos(ns).as_secs_f64());
        }
        assert_eq!((t.nanos.len(), t.other.len()), (4, 0));
        for v in [
            -0.0,
            -1e-9,
            SimDuration::from_nanos(1 << 32).as_secs_f64(),
            0.1 + 0.2,
            2.5e-10,
        ] {
            t.record(v);
        }
        assert_eq!((t.nanos.len(), t.other.len()), (4, 5));
    }

    #[test]
    fn welford_matches_two_pass() {
        let data = [3.0, 7.0, 7.0, 19.0];
        let mut w = Welford::new();
        for &v in &data {
            w.record(v);
        }
        assert_eq!(w.mean(), 9.0);
        let var = data.iter().map(|v| (v - 9.0f64).powi(2)).sum::<f64>() / 4.0;
        assert!((w.population_variance() - var).abs() < 1e-12);
        assert_eq!(w.min(), 3.0);
        assert_eq!(w.max(), 19.0);
        assert_eq!(w.count(), 4);
    }

    #[test]
    fn welford_empty_defaults() {
        let w = Welford::new();
        assert_eq!(w.mean(), 0.0);
        assert_eq!(w.std_dev(), 0.0);
        assert_eq!(w.min(), 0.0);
        assert_eq!(w.max(), 0.0);
    }

    #[test]
    fn time_weighted_average_steps() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 10.0);
        tw.set(SimTime::from_secs(5), 20.0);
        tw.set(SimTime::from_secs(15), 0.0);
        // 10*5 + 20*10 + 0*5 = 250 over 20 s
        assert!((tw.average(SimTime::from_secs(20)) - 12.5).abs() < 1e-12);
        assert_eq!(tw.current(), 0.0);
    }

    #[test]
    fn time_weighted_zero_span_returns_current() {
        let tw = TimeWeighted::new(SimTime::from_secs(3), 42.0);
        assert_eq!(tw.average(SimTime::from_secs(3)), 42.0);
    }

    #[test]
    fn sliding_window_evicts_old_samples() {
        let mut w = SlidingWindow::new(SimDuration::from_secs(10));
        w.record(SimTime::from_secs(0), 100.0);
        w.record(SimTime::from_secs(5), 50.0);
        assert_eq!(w.mean(), Some(75.0));
        w.record(SimTime::from_secs(12), 20.0);
        // t=0 sample is now outside [2, 12].
        assert_eq!(w.len(), 2);
        assert_eq!(w.mean(), Some(35.0));
        assert_eq!(w.latest(), Some(20.0));
    }

    #[test]
    fn linear_trend_recovers_a_ramp() {
        let mut w = SlidingWindow::new(SimDuration::from_secs(100));
        for i in 0..10 {
            w.record(SimTime::from_secs(i), 2.0 * i as f64 + 5.0);
        }
        let slope = w.linear_trend_per_sec().unwrap();
        assert!((slope - 2.0).abs() < 1e-9);
        // Forecast 10 s ahead: mean (14.0) + 2×10.
        assert!((w.forecast(10.0).unwrap() - 34.0).abs() < 1e-9);
    }

    #[test]
    fn linear_trend_flat_signal_is_zero() {
        let mut w = SlidingWindow::new(SimDuration::from_secs(100));
        for i in 0..5 {
            w.record(SimTime::from_secs(i), 7.0);
        }
        assert!(w.linear_trend_per_sec().unwrap().abs() < 1e-12);
        assert_eq!(w.forecast(60.0), Some(7.0));
    }

    #[test]
    fn linear_trend_needs_two_samples() {
        let mut w = SlidingWindow::new(SimDuration::from_secs(100));
        assert_eq!(w.linear_trend_per_sec(), None);
        assert_eq!(w.forecast(5.0), None);
        w.record(SimTime::ZERO, 1.0);
        assert_eq!(w.linear_trend_per_sec(), None);
        // Falls back to the mean with one sample.
        assert_eq!(w.forecast(5.0), Some(1.0));
        // Coincident timestamps have zero spread: no trend.
        w.record(SimTime::ZERO, 3.0);
        assert_eq!(w.linear_trend_per_sec(), None);
    }

    #[test]
    fn sliding_window_empty() {
        let w = SlidingWindow::new(SimDuration::from_secs(30));
        assert!(w.is_empty());
        assert_eq!(w.mean(), None);
        assert_eq!(w.latest(), None);
    }
}
