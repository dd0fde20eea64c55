//! Probability distributions for workload modelling.
//!
//! The paper's auto-scaling evaluation drives an **M/G/k** client–server
//! application: Markovian (Poisson) arrivals and a *General* service-time
//! distribution (Section VI-D). This module implements the distributions
//! needed to express both sides — exponential inter-arrivals and a family
//! of general service-time laws (lognormal, Pareto, Erlang, empirical) —
//! without pulling external crates, so sampling behaviour is fully
//! deterministic and documented.
//!
//! All distributions report their analytic [`mean`](Dist::mean) and
//! [squared coefficient of variation](Dist::scv), which the M/G/k latency
//! approximations in `ic-workloads` consume.
//!
//! Two sampling front-ends share one set of transform helpers: the
//! [`Dist`] trait (dynamic dispatch, convenient for composition) and the
//! [`DistKind`] enum (static dispatch, for hot loops). Both produce
//! bit-identical values for the same generator state, under either
//! [stream version](crate::rng::StreamVersion); [`DrawBuffer`] layers
//! batched refills on top of `DistKind` without changing the per-stream
//! value sequence, and [`DrawAhead`] moves those refills onto a helper
//! thread, again without changing a value.

use crate::rng::{SimRng, StreamVersion};
use std::fmt;

mod ahead;

pub use ahead::{draw_ahead_helpers, DrawAhead, DrawCounts, Lane, DRAW_AHEAD_START};

// ---------------------------------------------------------------------------
// Shared transform helpers.
//
// Every sampling front-end (the `Dist` impls, `DistKind::sample`, and
// `DrawBuffer` refills) funnels through these functions, which is what
// makes the trait and enum paths bit-identical by construction. Each
// helper consumes the generator exactly as the original inline
// expression did on v1 streams, so the restructuring is invisible to
// every pre-versioning record (IEEE-754 negation and sign propagation
// through multiplication are exact).
// ---------------------------------------------------------------------------

#[inline]
fn sample_exponential(mean: f64, rng: &mut SimRng) -> f64 {
    // v1: bit-identical to the historical `-mean * (1 - u).ln()`.
    mean * rng.standard_exp()
}

#[inline]
fn sample_lognormal(mu: f64, sigma: f64, rng: &mut SimRng) -> f64 {
    let z = rng.standard_normal();
    match rng.version() {
        // v1: libm `exp`, exactly as the pre-versioning code.
        StreamVersion::V1 => (mu + sigma * z).exp(),
        // v2: the in-crate polynomial `exp` — bit-identical across
        // platforms and call-free, so the bulk refill pass vectorizes.
        StreamVersion::V2 => crate::zig::fast_exp(mu + sigma * z),
    }
}

#[inline]
fn sample_pareto(scale: f64, inv_shape: f64, rng: &mut SimRng) -> f64 {
    self::pareto_from_uniform(scale, inv_shape, rng.uniform())
}

#[inline]
fn pareto_from_uniform(scale: f64, inv_shape: f64, u: f64) -> f64 {
    scale / (1.0 - u).powf(inv_shape)
}

#[inline]
fn sample_erlang(k: u32, stage_mean: f64, rng: &mut SimRng) -> f64 {
    match rng.version() {
        // v1: k independent log draws, summed in stage order — the
        // historical fold, preserved bit-for-bit.
        StreamVersion::V1 => (0..k).map(|_| stage_mean * rng.standard_exp()).sum(),
        // v2: a sum of k exponentials is the log of a product of k
        // uniforms — one `ln` total instead of k.
        StreamVersion::V2 => {
            let mut prod = 1.0;
            for _ in 0..k {
                prod *= 1.0 - rng.uniform();
            }
            -stage_mean * prod.ln()
        }
    }
}

/// A sampleable, positive-valued probability distribution.
///
/// Implementors must return finite, non-negative samples.
pub trait Dist: fmt::Debug {
    /// Draws one sample.
    fn sample(&self, rng: &mut SimRng) -> f64;

    /// The analytic mean of the distribution.
    fn mean(&self) -> f64;

    /// The squared coefficient of variation, `Var / Mean²`. Returns 0 for
    /// deterministic distributions and 1 for the exponential.
    fn scv(&self) -> f64;
}

/// A distribution that always returns the same value.
///
/// # Example
///
/// ```
/// use ic_sim::dist::{Dist, Deterministic};
/// use ic_sim::rng::SimRng;
///
/// let d = Deterministic::new(2.5);
/// assert_eq!(d.sample(&mut SimRng::seed_from_u64(0)), 2.5);
/// assert_eq!(d.scv(), 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Creates a point mass at `value`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is negative or non-finite.
    pub fn new(value: f64) -> Self {
        assert!(value.is_finite() && value >= 0.0, "invalid value {value}");
        Deterministic { value }
    }
}

impl Dist for Deterministic {
    fn sample(&self, _rng: &mut SimRng) -> f64 {
        self.value
    }
    fn mean(&self) -> f64 {
        self.value
    }
    fn scv(&self) -> f64 {
        0.0
    }
}

/// The exponential distribution, parameterized by its mean (`1/λ`).
///
/// Models Poisson arrival processes: the "M" in the paper's M/G/k
/// client-server application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean {mean}");
        Exponential { mean }
    }

    /// Creates an exponential distribution with the given rate `λ`.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive and finite.
    pub fn with_rate(rate: f64) -> Self {
        assert!(rate.is_finite() && rate > 0.0, "invalid rate {rate}");
        Exponential { mean: 1.0 / rate }
    }
}

impl Dist for Exponential {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        // Inverse CDF on (0, 1] (v1) or the ziggurat (v2).
        sample_exponential(self.mean, rng)
    }
    fn mean(&self) -> f64 {
        self.mean
    }
    fn scv(&self) -> f64 {
        1.0
    }
}

/// The lognormal distribution, the workspace's default "General" service
/// law: heavier-tailed than exponential, as observed for request service
/// times in interactive cloud services.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// Creates a lognormal from the *underlying normal* parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        LogNormal { mu, sigma }
    }

    /// Creates a lognormal with the given *distribution* mean and squared
    /// coefficient of variation.
    ///
    /// # Panics
    ///
    /// Panics if `mean <= 0` or `scv < 0`.
    pub fn with_mean_scv(mean: f64, scv: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean {mean}");
        assert!(scv.is_finite() && scv >= 0.0, "invalid scv {scv}");
        let sigma2 = (1.0 + scv).ln();
        LogNormal {
            mu: mean.ln() - sigma2 / 2.0,
            sigma: sigma2.sqrt(),
        }
    }
}

impl Dist for LogNormal {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        sample_lognormal(self.mu, self.sigma, rng)
    }
    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
    fn scv(&self) -> f64 {
        (self.sigma * self.sigma).exp() - 1.0
    }
}

/// The Pareto (power-law) distribution with scale `x_m` and shape `α`,
/// for modelling heavy-tailed batch job sizes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// Creates a Pareto distribution.
    ///
    /// # Panics
    ///
    /// Panics if `scale <= 0` or `shape <= 2` (we require a finite variance
    /// so that [`Dist::scv`] is well-defined).
    pub fn new(scale: f64, shape: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0, "invalid scale {scale}");
        assert!(
            shape.is_finite() && shape > 2.0,
            "shape must exceed 2 for finite variance, got {shape}"
        );
        Pareto { scale, shape }
    }
}

impl Dist for Pareto {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        sample_pareto(self.scale, 1.0 / self.shape, rng)
    }
    fn mean(&self) -> f64 {
        self.shape * self.scale / (self.shape - 1.0)
    }
    fn scv(&self) -> f64 {
        // Var = α x² / ((α-1)² (α-2)); SCV = Var / mean² = 1 / (α(α-2)).
        1.0 / (self.shape * (self.shape - 2.0))
    }
}

/// The Erlang-k distribution (sum of `k` exponentials), for service laws
/// *less* variable than exponential.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Erlang {
    k: u32,
    stage_mean: f64,
}

impl Erlang {
    /// Creates an Erlang-`k` distribution with overall mean `mean`.
    ///
    /// # Panics
    ///
    /// Panics if `k == 0` or `mean <= 0`.
    pub fn new(k: u32, mean: f64) -> Self {
        assert!(k > 0, "Erlang requires k >= 1");
        assert!(mean.is_finite() && mean > 0.0, "invalid mean {mean}");
        Erlang {
            k,
            stage_mean: mean / k as f64,
        }
    }
}

impl Dist for Erlang {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        sample_erlang(self.k, self.stage_mean, rng)
    }
    fn mean(&self) -> f64 {
        self.stage_mean * self.k as f64
    }
    fn scv(&self) -> f64 {
        1.0 / self.k as f64
    }
}

/// An empirical distribution that samples uniformly from observed values,
/// for replaying measured traces.
#[derive(Debug, Clone, PartialEq)]
pub struct Empirical {
    values: Vec<f64>,
    mean: f64,
    scv: f64,
}

impl Empirical {
    /// Creates an empirical distribution from observations.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains negative/non-finite entries.
    pub fn new(values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "empirical distribution needs data");
        assert!(
            values.iter().all(|v| v.is_finite() && *v >= 0.0),
            "observations must be finite and non-negative"
        );
        let n = values.len() as f64;
        let mean = values.iter().sum::<f64>() / n;
        let var = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n;
        let scv = if mean > 0.0 { var / (mean * mean) } else { 0.0 };
        Empirical { values, mean, scv }
    }

    /// The number of underlying observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if there are no observations (never true for a constructed
    /// value; present for API completeness).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }
}

impl Dist for Empirical {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        self.values[rng.index(self.values.len())]
    }
    fn mean(&self) -> f64 {
        self.mean
    }
    fn scv(&self) -> f64 {
        self.scv
    }
}

/// A devirtualized distribution: every law the [`Dist`] trait covers, as
/// one enum with an inlineable [`sample`](DistKind::sample).
///
/// Hot loops that draw millions of variates per second (the M/G/k
/// arrival/service path) pay for `dyn Dist`'s pointer-chasing call on
/// every event; matching on a `DistKind` instead compiles to a direct
/// branch the predictor resolves for free. The enum also caches derived
/// constants the trait structs recompute per draw (the Pareto `1/α`;
/// the lognormal's `(mu, sigma)` are carried verbatim so the cached and
/// trait paths stay bit-identical).
///
/// `DistKind` implements [`Dist`] itself, so it can still be boxed where
/// composition wants dynamic dispatch — sampling through either front
/// end produces the same bits for the same generator state (a property
/// the test suite pins for every variant under both stream versions).
#[derive(Debug, Clone, PartialEq)]
pub enum DistKind {
    /// Point mass at a value.
    Deterministic {
        /// The value every sample returns.
        value: f64,
    },
    /// Exponential with the given mean.
    Exponential {
        /// The distribution mean (`1/λ`).
        mean: f64,
    },
    /// Lognormal with underlying-normal parameters.
    LogNormal {
        /// Mean of the underlying normal.
        mu: f64,
        /// Standard deviation of the underlying normal.
        sigma: f64,
    },
    /// Pareto with cached reciprocal shape.
    Pareto {
        /// Scale (`x_m`).
        scale: f64,
        /// Shape (`α`).
        shape: f64,
        /// Cached `1/α`, so the per-draw `powf` exponent costs no divide.
        inv_shape: f64,
    },
    /// Erlang-`k` as stage count and per-stage mean.
    Erlang {
        /// Number of exponential stages.
        k: u32,
        /// Mean of each stage (`mean / k`).
        stage_mean: f64,
    },
    /// Uniform draw over observed values.
    Empirical(Empirical),
}

impl DistKind {
    /// Draws one sample. Bit-identical to the corresponding [`Dist`]
    /// impl for the same generator state, under either stream version.
    #[inline]
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match self {
            DistKind::Deterministic { value } => *value,
            DistKind::Exponential { mean } => sample_exponential(*mean, rng),
            DistKind::LogNormal { mu, sigma } => sample_lognormal(*mu, *sigma, rng),
            DistKind::Pareto {
                scale, inv_shape, ..
            } => sample_pareto(*scale, *inv_shape, rng),
            DistKind::Erlang { k, stage_mean } => sample_erlang(*k, *stage_mean, rng),
            DistKind::Empirical(e) => e.values[rng.index(e.values.len())],
        }
    }

    /// The analytic mean (see [`Dist::mean`]).
    pub fn mean(&self) -> f64 {
        match self {
            DistKind::Deterministic { value } => *value,
            DistKind::Exponential { mean } => *mean,
            DistKind::LogNormal { mu, sigma } => (mu + sigma * sigma / 2.0).exp(),
            DistKind::Pareto { scale, shape, .. } => shape * scale / (shape - 1.0),
            DistKind::Erlang { k, stage_mean } => stage_mean * *k as f64,
            DistKind::Empirical(e) => e.mean,
        }
    }

    /// The squared coefficient of variation (see [`Dist::scv`]).
    pub fn scv(&self) -> f64 {
        match self {
            DistKind::Deterministic { .. } => 0.0,
            DistKind::Exponential { .. } => 1.0,
            DistKind::LogNormal { sigma, .. } => (sigma * sigma).exp() - 1.0,
            DistKind::Pareto { shape, .. } => 1.0 / (shape * (shape - 2.0)),
            DistKind::Erlang { k, .. } => 1.0 / *k as f64,
            DistKind::Empirical(e) => e.scv,
        }
    }

    /// Raw 64-bit draws one sample takes from a v1 generator. Every v1
    /// transform consumes a fixed number (v2's ziggurat does not), so a
    /// v1 position can be reached by skipping raw draws instead of
    /// re-running the transforms.
    fn v1_raw_draws(&self) -> u64 {
        match self {
            DistKind::Deterministic { .. } => 0,
            DistKind::LogNormal { .. } => 2,
            DistKind::Erlang { k, .. } => u64::from(*k),
            DistKind::Exponential { .. } | DistKind::Pareto { .. } | DistKind::Empirical(_) => 1,
        }
    }
}

impl Dist for DistKind {
    fn sample(&self, rng: &mut SimRng) -> f64 {
        DistKind::sample(self, rng)
    }
    fn mean(&self) -> f64 {
        DistKind::mean(self)
    }
    fn scv(&self) -> f64 {
        DistKind::scv(self)
    }
}

impl From<Deterministic> for DistKind {
    fn from(d: Deterministic) -> Self {
        DistKind::Deterministic { value: d.value }
    }
}

impl From<Exponential> for DistKind {
    fn from(d: Exponential) -> Self {
        DistKind::Exponential { mean: d.mean }
    }
}

impl From<LogNormal> for DistKind {
    fn from(d: LogNormal) -> Self {
        DistKind::LogNormal {
            mu: d.mu,
            sigma: d.sigma,
        }
    }
}

impl From<Pareto> for DistKind {
    fn from(d: Pareto) -> Self {
        DistKind::Pareto {
            scale: d.scale,
            shape: d.shape,
            inv_shape: 1.0 / d.shape,
        }
    }
}

impl From<Erlang> for DistKind {
    fn from(d: Erlang) -> Self {
        DistKind::Erlang {
            k: d.k,
            stage_mean: d.stage_mean,
        }
    }
}

impl From<Empirical> for DistKind {
    fn from(d: Empirical) -> Self {
        DistKind::Empirical(d)
    }
}

/// Number of samples a [`DrawBuffer`] materializes per refill, and a
/// [`DrawAhead`] block holds.
///
/// Large enough to amortize the RNG state round-trip and let the
/// compiler vectorize the transform passes; small enough (8 KiB) to
/// stay resident in L1.
pub const DRAW_BUFFER_LEN: usize = 1024;

/// A reusable per-stream batch of pre-drawn samples.
///
/// `DrawBuffer` owns a dedicated generator and fills
/// [`DRAW_BUFFER_LEN`] variates in one tight loop, which consumers then
/// take one at a time via [`next`](DrawBuffer::next). Because the
/// generator is exclusive to the buffer, the delivered value sequence
/// is exactly what repeated [`DistKind::sample`] calls on that
/// generator would produce — batching changes *when* the transforms
/// run, never *what* they return (pinned by test). The win is
/// mechanical: one buffer refill loads the RNG state once for 1024
/// draws, and split transform passes (z-fill, then `exp`) vectorize
/// where the one-at-a-time path cannot.
///
/// The backing storage is allocated once at construction and reused for
/// every refill — steady-state sampling is allocation-free, matching
/// the DES hot path's discipline.
#[derive(Debug, Clone)]
pub struct DrawBuffer {
    dist: DistKind,
    rng: SimRng,
    buf: Vec<f64>,
    pos: usize,
}

impl DrawBuffer {
    /// Creates a buffer drawing from `dist` with the dedicated
    /// generator `rng`. No samples are drawn until first use.
    pub fn new(dist: DistKind, rng: SimRng) -> Self {
        DrawBuffer {
            dist,
            rng,
            buf: Vec::with_capacity(DRAW_BUFFER_LEN),
            pos: 0,
        }
    }

    /// The next sample in the stream. Deliberately not an `Iterator`:
    /// the stream is infinite and the hot path wants a bare `f64`, not
    /// an `Option` to unwrap per draw.
    #[inline]
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> f64 {
        if self.pos == self.buf.len() {
            self.refill();
        }
        let v = self.buf[self.pos];
        self.pos += 1;
        v
    }

    #[cold]
    fn refill(&mut self) {
        // First refill sizes the buffer; afterwards every slot is
        // overwritten in place — no clear/zero-fill churn per batch.
        if self.buf.len() != DRAW_BUFFER_LEN {
            self.buf.resize(DRAW_BUFFER_LEN, 0.0);
        }
        self.pos = 0;
        fill_values(&self.dist, &mut self.rng, &mut self.buf);
    }
}

/// Fills `buf` with the next `buf.len()` variates of `dist` on `rng`:
/// the values that many [`DistKind::sample`] calls would return, in
/// order, whatever the length of `buf`.
fn fill_values(dist: &DistKind, rng: &mut SimRng, buf: &mut [f64]) {
    match dist {
        // Lognormal: two passes. The z-fill is sequential in the
        // generator; the exp transform is a pure map the compiler can
        // vectorize. Same arithmetic per element as the scalar path, so
        // the values are identical.
        DistKind::LogNormal { mu, sigma } => {
            let (mu, sigma) = (*mu, *sigma);
            for slot in buf.iter_mut() {
                *slot = rng.standard_normal();
            }
            match rng.version() {
                StreamVersion::V1 => {
                    for slot in buf.iter_mut() {
                        *slot = (mu + sigma * *slot).exp();
                    }
                }
                StreamVersion::V2 => {
                    for slot in buf.iter_mut() {
                        *slot = crate::zig::fast_exp(mu + sigma * *slot);
                    }
                }
            }
        }
        // Exponential: one tight pass over the ziggurat (or the v1 log
        // path) — the mean scale is exact sign-free arithmetic.
        DistKind::Exponential { mean } => {
            let mean = *mean;
            for slot in buf.iter_mut() {
                *slot = mean * rng.standard_exp();
            }
        }
        dist => {
            for slot in buf.iter_mut() {
                *slot = dist.sample(rng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_moments(dist: &dyn Dist, n: usize, tol: f64) {
        let mut rng = SimRng::seed_from_u64(1234);
        let samples: Vec<f64> = (0..n).map(|_| dist.sample(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        assert!(
            (mean - dist.mean()).abs() / dist.mean().max(1e-12) < tol,
            "sample mean {mean} vs analytic {}",
            dist.mean()
        );
        assert!(samples.iter().all(|s| s.is_finite() && *s >= 0.0));
    }

    #[test]
    fn deterministic_moments() {
        let d = Deterministic::new(4.0);
        check_moments(&d, 10, 1e-12);
        assert_eq!(d.scv(), 0.0);
    }

    #[test]
    fn exponential_moments() {
        let d = Exponential::with_mean(2.0);
        check_moments(&d, 50_000, 0.03);
        assert_eq!(d.scv(), 1.0);
        assert!((Exponential::with_rate(0.5).mean() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn lognormal_matches_requested_moments() {
        let d = LogNormal::with_mean_scv(3.0, 0.5);
        assert!((d.mean() - 3.0).abs() < 1e-9);
        assert!((d.scv() - 0.5).abs() < 1e-9);
        check_moments(&d, 100_000, 0.03);
    }

    #[test]
    fn pareto_moments() {
        let d = Pareto::new(1.0, 3.0);
        assert!((d.mean() - 1.5).abs() < 1e-12);
        assert!((d.scv() - 1.0 / 3.0).abs() < 1e-12);
        check_moments(&d, 200_000, 0.05);
    }

    #[test]
    fn erlang_moments() {
        let d = Erlang::new(4, 2.0);
        assert!((d.mean() - 2.0).abs() < 1e-12);
        assert_eq!(d.scv(), 0.25);
        check_moments(&d, 50_000, 0.03);
    }

    #[test]
    fn empirical_reproduces_data_statistics() {
        let d = Empirical::new(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.mean(), 2.5);
        assert_eq!(d.len(), 4);
        let mut rng = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            let s = d.sample(&mut rng);
            assert!([1.0, 2.0, 3.0, 4.0].contains(&s));
        }
    }

    #[test]
    #[should_panic(expected = "needs data")]
    fn empty_empirical_panics() {
        let _ = Empirical::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "shape must exceed 2")]
    fn pareto_low_shape_panics() {
        let _ = Pareto::new(1.0, 1.5);
    }

    #[test]
    fn v1_raw_draw_counts_match_the_transforms() {
        let dists = [
            DistKind::from(Deterministic::new(1.0)),
            DistKind::from(Exponential::with_mean(2.0)),
            DistKind::from(LogNormal::with_mean_scv(1.0, 2.0)),
            DistKind::from(Pareto::new(1.0, 3.0)),
            DistKind::from(Erlang::new(3, 1.0)),
            DistKind::from(Empirical::new(vec![1.0, 2.0])),
        ];
        for dist in dists {
            let mut drawn = SimRng::seed_from_u64(3);
            let mut skipped = drawn.clone();
            dist.sample(&mut drawn);
            for _ in 0..dist.v1_raw_draws() {
                skipped.next_u64();
            }
            assert_eq!(drawn.next_u64(), skipped.next_u64(), "{dist:?}");
        }
    }

    #[test]
    fn trait_objects_compose() {
        let dists: Vec<Box<dyn Dist>> = vec![
            Box::new(Deterministic::new(1.0)),
            Box::new(Exponential::with_mean(1.0)),
            Box::new(LogNormal::with_mean_scv(1.0, 2.0)),
        ];
        let mut rng = SimRng::seed_from_u64(0);
        for d in &dists {
            assert!(d.sample(&mut rng) >= 0.0);
        }
    }
}
