//! Deterministic random-number generation for simulations.
//!
//! [`SimRng`] is a self-contained xoshiro256++ generator (seeded through
//! SplitMix64, the reference seeding procedure) and exposes the handful
//! of primitives the workspace needs. Every experiment binary takes an
//! explicit seed so that the paper's figures regenerate bit-identically;
//! `fork` derives independent child streams (one per VM, per client, …)
//! from a parent without the streams overlapping. Keeping the generator
//! in-tree removes the only external runtime dependency the simulator
//! had and pins the stream contents to this repository: a seed means the
//! same numbers on every toolchain, forever.

/// SplitMix64: 64-bit mixer used to expand a single seed word into the
/// xoshiro state (per the xoshiro reference material).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The sampler stream version a [`SimRng`] produces.
///
/// The *raw* stream (`next_u64`, `uniform`, …) is identical under both
/// versions — what changes is how the variate transforms consume it:
///
/// * [`V1`](StreamVersion::V1) — the original transforms (Box–Muller
///   normal, single-log exponential). Every record the experiment
///   registry shipped before stream versioning exists was produced by
///   this version, and it stays byte-identical forever.
/// * [`V2`](StreamVersion::V2) — the Marsaglia–Tsang ziggurat fast
///   path: ~3 ns per standard normal/exponential draw
///   instead of ~28 ns, at the cost of a different (still
///   seed-deterministic) value sequence.
///
/// The version travels with the generator: [`SimRng::fork`] children
/// inherit it, and [`SimRng::stream_versioned`] counter-splits carry it
/// into parallel tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum StreamVersion {
    /// Original transforms; byte-compatible with all pre-versioning records.
    #[default]
    V1,
    /// Ziggurat fast path; a distinct deterministic value sequence.
    V2,
}

impl StreamVersion {
    /// The canonical lowercase name (`"v1"` / `"v2"`), as used in
    /// scenario JSON.
    pub fn name(self) -> &'static str {
        match self {
            StreamVersion::V1 => "v1",
            StreamVersion::V2 => "v2",
        }
    }

    /// Parses the canonical name; `None` for anything else.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "v1" => Some(StreamVersion::V1),
            "v2" => Some(StreamVersion::V2),
            _ => None,
        }
    }
}

/// A seeded, forkable random-number generator (xoshiro256++).
///
/// # Example
///
/// ```
/// use ic_sim::rng::SimRng;
///
/// let mut a = SimRng::seed_from_u64(42);
/// let mut b = SimRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
    forks: u64,
    version: StreamVersion,
}

impl SimRng {
    /// Creates a generator from a 64-bit seed, producing the v1 stream.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng::seed_versioned(seed, StreamVersion::V1)
    }

    /// Creates a generator from a 64-bit seed with an explicit stream
    /// version. The raw `u64` stream is identical for both versions;
    /// only the variate transforms differ.
    pub fn seed_versioned(seed: u64, version: StreamVersion) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            forks: 0,
            version,
        }
    }

    /// The stream version this generator samples with.
    pub fn version(&self) -> StreamVersion {
        self.version
    }

    /// Derives an independent child generator. Each call yields a distinct
    /// stream; the parent's own stream is unaffected apart from the fork
    /// counter, so fork order (not interleaved draws) determines child
    /// streams. Children inherit the parent's stream version.
    pub fn fork(&mut self) -> SimRng {
        self.forks += 1;
        // Mix the fork index into a fresh seed drawn from the parent stream.
        let seed = self.next_u64() ^ self.forks.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_versioned(seed, self.version)
    }

    /// The `index`-th counter-split stream of `seed`: a pure function of
    /// `(seed, index)`, so any task in a fixed decomposition can derive
    /// its own generator without a sequential dependency on its siblings.
    /// Unlike [`fork`](Self::fork), no parent state is consumed — stream
    /// 7 is the same whether streams 0–6 were ever materialized, which is
    /// what makes scatter-gather output independent of worker count.
    /// Produces the v1 stream; see [`stream_versioned`](Self::stream_versioned).
    pub fn stream(seed: u64, index: u64) -> SimRng {
        SimRng::stream_versioned(seed, index, StreamVersion::V1)
    }

    /// [`stream`](Self::stream) with an explicit stream version: the raw
    /// `u64` stream of `(seed, index)` is the same under every version
    /// (and every worker count), so pinning a record to v1 or v2 is
    /// purely a choice of variate transform.
    pub fn stream_versioned(seed: u64, index: u64, version: StreamVersion) -> SimRng {
        // Domain-separate the root seed from plain `seed_from_u64(seed)`
        // use, then fold the counter in through a second SplitMix pass so
        // adjacent indices land in unrelated states.
        let mut sm = seed;
        let root = splitmix64(&mut sm);
        let mut sm = root ^ index.wrapping_add(1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        SimRng::seed_versioned(splitmix64(&mut sm), version)
    }

    /// The next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform sample from `[0, 1)`: the top 53 bits of the stream,
    /// scaled — exactly representable, never 1.0.
    #[inline]
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample from `[low, high)`.
    ///
    /// # Panics
    ///
    /// Panics if `low >= high` or either bound is non-finite.
    #[inline]
    pub fn uniform_range(&mut self, low: f64, high: f64) -> f64 {
        assert!(
            low < high && low.is_finite() && high.is_finite(),
            "invalid uniform range [{low}, {high})"
        );
        low + (high - low) * self.uniform()
    }

    /// A uniform integer from `[0, n)` (Lemire's multiply-shift; the
    /// residual bias is below `n / 2^64`, immaterial for simulation).
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    #[inline]
    pub fn index(&mut self, n: usize) -> usize {
        assert!(n > 0, "cannot sample an index from an empty range");
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// A Bernoulli trial that succeeds with probability `p` (clamped to
    /// `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.uniform() < p.clamp(0.0, 1.0)
    }

    /// A standard normal sample: Box–Muller on v1 streams, the ziggurat
    /// fast path on v2 streams.
    #[inline]
    pub fn standard_normal(&mut self) -> f64 {
        match self.version {
            StreamVersion::V1 => {
                // Draw u1 from (0, 1] to keep ln(u1) finite.
                let u1 = 1.0 - self.uniform();
                let u2 = self.uniform();
                (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
            }
            StreamVersion::V2 => crate::zig::standard_normal(self),
        }
    }

    /// A standard exponential sample (mean 1): the single-log inverse
    /// CDF on v1 streams, the ziggurat fast path on v2 streams.
    ///
    /// On v1 this consumes exactly the uniforms the original inline
    /// `-(1 - u).ln()` expressions consumed, and IEEE-754 negation is
    /// exact, so `mean * standard_exp()` is bit-for-bit the historical
    /// `-mean * (1 - u).ln()`.
    #[inline]
    pub fn standard_exp(&mut self) -> f64 {
        match self.version {
            StreamVersion::V1 => -(1.0 - self.uniform()).ln(),
            StreamVersion::V2 => crate::zig::standard_exp(self),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn stream_is_pinned() {
        // The exact stream is part of the reproducibility contract: a
        // change here silently re-rolls every seeded experiment.
        let mut sm = 0u64;
        let expanded: Vec<u64> = (0..2).map(|_| splitmix64(&mut sm)).collect();
        assert_eq!(expanded[0], 0xE220_A839_7B1D_CDAF);
        assert_eq!(expanded[1], 0x6E78_9E6A_A1B9_65F4);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should not coincide");
    }

    #[test]
    fn forks_are_independent_and_reproducible() {
        let mut parent1 = SimRng::seed_from_u64(9);
        let mut parent2 = SimRng::seed_from_u64(9);
        let mut c1 = parent1.fork();
        let mut c2 = parent2.fork();
        for _ in 0..10 {
            assert_eq!(c1.next_u64(), c2.next_u64());
        }
        let mut d1 = parent1.fork();
        assert_ne!(c1.next_u64(), d1.next_u64());
    }

    #[test]
    fn streams_are_pure_functions_of_seed_and_index() {
        // Same (seed, index) → same stream, regardless of what other
        // streams were derived before, in any order.
        let forward: Vec<Vec<u64>> = (0..8)
            .map(|i| {
                let mut r = SimRng::stream(42, i);
                (0..16).map(|_| r.next_u64()).collect()
            })
            .collect();
        let backward: Vec<Vec<u64>> = (0..8)
            .rev()
            .map(|i| {
                let mut r = SimRng::stream(42, i);
                (0..16).map(|_| r.next_u64()).collect()
            })
            .collect();
        for (i, draws) in forward.iter().enumerate() {
            assert_eq!(draws, &backward[7 - i], "stream {i} depends on order");
        }
    }

    #[test]
    fn streams_are_pairwise_disjoint() {
        // The first 512 draws of 16 sibling streams never collide — the
        // counter-split must not alias streams onto each other.
        use std::collections::HashSet;
        let mut seen: HashSet<u64> = HashSet::new();
        let mut total = 0usize;
        for index in 0..16 {
            let mut r = SimRng::stream(1234, index);
            for _ in 0..512 {
                seen.insert(r.next_u64());
                total += 1;
            }
        }
        assert_eq!(seen.len(), total, "sibling streams shared a draw");
    }

    #[test]
    fn streams_differ_across_seeds_and_from_plain_seeding() {
        let mut a = SimRng::stream(5, 0);
        let mut b = SimRng::stream(6, 0);
        let mut plain = SimRng::seed_from_u64(5);
        let coincide_ab = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(coincide_ab < 2, "seeds 5 and 6 produce overlapping streams");
        let mut a = SimRng::stream(5, 0);
        let coincide_plain = (0..64).filter(|_| a.next_u64() == plain.next_u64()).count();
        assert!(coincide_plain < 2, "stream 0 aliases plain seeding");
    }

    #[test]
    fn uniform_is_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..1000 {
            let x = rng.uniform();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_range_respects_bounds() {
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..1000 {
            let x = rng.uniform_range(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn index_covers_range() {
        let mut rng = SimRng::seed_from_u64(5);
        let mut seen = [false; 4];
        for _ in 0..200 {
            seen[rng.index(4)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(6);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-3.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = SimRng::seed_from_u64(8);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.standard_normal()).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.05, "variance {var} too far from 1");
    }

    #[test]
    #[should_panic(expected = "invalid uniform range")]
    fn bad_uniform_range_panics() {
        let mut rng = SimRng::seed_from_u64(0);
        let _ = rng.uniform_range(5.0, 2.0);
    }
}
