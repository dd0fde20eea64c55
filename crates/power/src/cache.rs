//! Memoized steady-state solves and precomputed operating-point tables.
//!
//! [`CpuSku::steady_state`] runs a 64-iteration power/temperature fixed
//! point. Sweep-style callers — the fleet power plane, turbo-table
//! derivation, the governor's ceiling searches — ask for the *same*
//! handful of (frequency, voltage, interface) points thousands of
//! times, so this module adds two complementary layers:
//!
//! * [`SteadyStateCache`] — a quantized-key memo table. The key is the
//!   operating point on the workspace's native quantization grid
//!   (integer MHz from the 100 MHz bin arithmetic in
//!   [`units`](crate::units), integer millivolts, the thermal
//!   interface's identity key) plus the SKU's calibration constants.
//!   Memoizing a deterministic solver returns bitwise-identical results,
//!   so cached and direct answers agree exactly — the equivalence tests
//!   below pin that. Binning keys coarser than the MHz grid would alias
//!   distinct overclock points (3936 MHz vs 3.9 GHz), which is why the
//!   key quantizes to the grid the solver itself sees, not to whole
//!   bins.
//! * [`OperatingPointTable`] — an eagerly precomputed per-SKU table of
//!   bin-stepped operating points, for callers that scan the whole
//!   frequency ladder (Table III max-turbo inversion) rather than probe
//!   single points.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;

use crate::batch::BatchPoint;
use crate::cpu::{CpuSku, SteadyState};
use crate::units::{Frequency, Voltage, BIN_MHZ};
use ic_obs::flight::{FlightHandle, TraceLevel};
use ic_obs::json::Value;
use ic_obs::metrics::MetricsRegistry;
use ic_thermal::junction::ThermalInterface;

/// The memo key: every input the fixed point depends on, quantized to
/// the grid the solver already operates on (no lossy rounding).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct OperatingPointKey {
    mhz: u32,
    mv: u32,
    /// `ThermalInterface::thermal_key()` — reference temperature and
    /// resistance bit patterns.
    thermal: (u64, u64),
    /// The SKU's calibration constants: effective capacitance and the
    /// two leakage coefficients, as bit patterns.
    sku: (u64, u64, u64),
}

impl OperatingPointKey {
    fn new(sku: &CpuSku, iface: &ThermalInterface, f: Frequency, v: Voltage) -> Self {
        OperatingPointKey {
            mhz: f.mhz(),
            mv: v.mv(),
            thermal: iface.thermal_key(),
            sku: (
                sku.c_eff().to_bits(),
                sku.leakage().k_w_per_v2().to_bits(),
                sku.leakage().beta_per_c().to_bits(),
            ),
        }
    }
}

/// A memo table over [`CpuSku::steady_state`] with hit/miss counters.
///
/// Interior-mutable (`RefCell`/`Cell`) so read-style callers — the
/// governor's `&self` ceiling methods — can consult it without
/// threading `&mut` through their APIs. Not `Sync`: each worker in a
/// parallel sweep owns its own cache (or its own governor/controller,
/// which owns one), which also keeps hit-rate accounting per-instance.
///
/// # Example
///
/// ```
/// use ic_power::cache::SteadyStateCache;
/// use ic_power::cpu::CpuSku;
/// use ic_thermal::junction::ThermalInterface;
///
/// let cache = SteadyStateCache::new();
/// let sku = CpuSku::skylake_8180();
/// let air = ThermalInterface::air(35.0, 12.1, 0.21);
/// let a = cache.steady_state(&sku, &air, sku.air_turbo(), sku.nominal_voltage());
/// let b = cache.steady_state(&sku, &air, sku.air_turbo(), sku.nominal_voltage());
/// assert_eq!(a, b);
/// assert_eq!((cache.hits(), cache.misses()), (1, 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct SteadyStateCache {
    map: RefCell<HashMap<OperatingPointKey, SteadyState>>,
    hits: Cell<u64>,
    misses: Cell<u64>,
    /// Optional flight recorder for hit/miss instants (attached by
    /// tracing drivers; `None` costs one branch per lookup).
    flight: RefCell<Option<FlightHandle>>,
}

impl SteadyStateCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The memoized equivalent of [`CpuSku::steady_state`]: bitwise the
    /// same result, one fixed-point solve per distinct operating point.
    pub fn steady_state(
        &self,
        sku: &CpuSku,
        iface: &ThermalInterface,
        f: Frequency,
        v: Voltage,
    ) -> SteadyState {
        let key = OperatingPointKey::new(sku, iface, f, v);
        if let Some(&ss) = self.map.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            if let Some(flight) = self.flight.borrow().as_ref() {
                flight.borrow_mut().instant(
                    "steady_cache",
                    "hit",
                    TraceLevel::Debug,
                    vec![("mhz", Value::U64(f.mhz() as u64))],
                );
            }
            return ss;
        }
        let ss = sku.steady_state(iface, f, v);
        self.misses.set(self.misses.get() + 1);
        self.map.borrow_mut().insert(key, ss);
        if let Some(flight) = self.flight.borrow().as_ref() {
            flight.borrow_mut().instant(
                "steady_cache",
                "miss_solve_insert",
                TraceLevel::Info,
                vec![
                    ("mhz", Value::U64(f.mhz() as u64)),
                    ("mv", Value::U64(v.mv() as u64)),
                    ("size", Value::U64(self.map.borrow().len() as u64)),
                ],
            );
        }
        ss
    }

    /// The batched equivalent of calling
    /// [`steady_state`](Self::steady_state) once per point, in order:
    /// same results (bitwise), same hit/miss counter trajectory, same
    /// flight-instant sequence. Distinct uncached points are solved in
    /// one structure-of-arrays pass ([`crate::batch`]); cached points
    /// and within-batch duplicates short-circuit as hits exactly as
    /// they would sequentially.
    ///
    /// Appends one result per point to `out` in request order.
    pub fn steady_state_batch_into(
        &self,
        sku: &CpuSku,
        points: &[BatchPoint<'_>],
        out: &mut Vec<SteadyState>,
    ) {
        // Pass 1: find first occurrences of keys the map does not hold.
        // Batches repeat a few distinct operating points many times
        // (heterogeneity bins, ladder rungs), so a linear scan over the
        // small first-occurrence list beats hashing every request.
        let mut fresh: Vec<(OperatingPointKey, usize)> = Vec::new();
        {
            let map = self.map.borrow();
            for (i, p) in points.iter().enumerate() {
                let key = OperatingPointKey::new(sku, p.iface, p.f, p.v);
                if !map.contains_key(&key) && !fresh.iter().any(|&(k, _)| k == key) {
                    fresh.push((key, i));
                }
            }
        }
        // One batch solve over the distinct new points.
        let solve_points: Vec<BatchPoint<'_>> = fresh.iter().map(|&(_, i)| points[i]).collect();
        let solved = crate::batch::steady_state_batch(sku, &solve_points);
        // Pass 2: replay in request order so counters, insertions, and
        // flight instants land in the exact sequence sequential calls
        // would produce (a first occurrence is a miss inserted before
        // the next request is examined; everything else is a hit).
        let mut next_fresh = 0usize;
        out.reserve(points.len());
        for (i, p) in points.iter().enumerate() {
            if next_fresh < fresh.len() && fresh[next_fresh].1 == i {
                let key = fresh[next_fresh].0;
                let ss = solved[next_fresh];
                next_fresh += 1;
                self.misses.set(self.misses.get() + 1);
                self.map.borrow_mut().insert(key, ss);
                if let Some(flight) = self.flight.borrow().as_ref() {
                    flight.borrow_mut().instant(
                        "steady_cache",
                        "miss_solve_insert",
                        TraceLevel::Info,
                        vec![
                            ("mhz", Value::U64(p.f.mhz() as u64)),
                            ("mv", Value::U64(p.v.mv() as u64)),
                            ("size", Value::U64(self.map.borrow().len() as u64)),
                        ],
                    );
                }
                out.push(ss);
            } else {
                let key = OperatingPointKey::new(sku, p.iface, p.f, p.v);
                let ss = *self.map.borrow().get(&key).expect("resolved in pass 1");
                self.hits.set(self.hits.get() + 1);
                if let Some(flight) = self.flight.borrow().as_ref() {
                    flight.borrow_mut().instant(
                        "steady_cache",
                        "hit",
                        TraceLevel::Debug,
                        vec![("mhz", Value::U64(p.f.mhz() as u64))],
                    );
                }
                out.push(ss);
            }
        }
    }

    /// Allocating wrapper over
    /// [`steady_state_batch_into`](Self::steady_state_batch_into).
    pub fn steady_state_batch(&self, sku: &CpuSku, points: &[BatchPoint<'_>]) -> Vec<SteadyState> {
        let mut out = Vec::with_capacity(points.len());
        self.steady_state_batch_into(sku, points, &mut out);
        out
    }

    /// The memoized equivalent of [`CpuSku::max_turbo`]: the same
    /// bin-stepped search, with each candidate's solve going through the
    /// cache.
    pub fn max_turbo(
        &self,
        sku: &CpuSku,
        iface: &ThermalInterface,
        power_limit_w: f64,
    ) -> Frequency {
        let mut best = sku.base();
        let mut f = sku.base();
        for _ in 0..30 {
            f = f.step_bins(1);
            let v = sku.voltage_for(f);
            if self.steady_state(sku, iface, f, v).power_w <= power_limit_w {
                best = f;
            } else {
                break;
            }
        }
        best
    }

    /// Lookups served from the memo table.
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Lookups that ran the fixed-point solver.
    pub fn misses(&self) -> u64 {
        self.misses.get()
    }

    /// Hits as a fraction of all lookups (0 when never consulted).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits.get() + self.misses.get();
        if total == 0 {
            0.0
        } else {
            self.hits.get() as f64 / total as f64
        }
    }

    /// Distinct operating points currently memoized.
    pub fn len(&self) -> usize {
        self.map.borrow().len()
    }

    /// `true` if no operating point has been solved yet.
    pub fn is_empty(&self) -> bool {
        self.map.borrow().is_empty()
    }

    /// Drops all memoized points and zeroes the counters.
    pub fn clear(&self) {
        self.map.borrow_mut().clear();
        self.hits.set(0);
        self.misses.set(0);
    }

    /// Attaches a flight recorder: subsequent lookups record a
    /// `steady_cache`/`hit` instant (`Debug`) on the memo path and a
    /// `steady_cache`/`miss_solve_insert` instant (`Info`, with the
    /// operating point and the post-insert size) on the solve path,
    /// stamped at the recorder's current simulation time.
    pub fn attach_flight(&self, flight: FlightHandle) {
        *self.flight.borrow_mut() = Some(flight);
    }

    /// Detaches the flight recorder (lookups go back to counting only).
    pub fn detach_flight(&self) {
        *self.flight.borrow_mut() = None;
    }

    /// Publishes the cache's state into `metrics` as gauges:
    /// `steady_cache_hits`, `steady_cache_misses`,
    /// `steady_cache_hit_rate` (matching [`hit_rate`](Self::hit_rate)
    /// exactly), and `steady_cache_size`.
    pub fn export_metrics(&self, metrics: &mut MetricsRegistry) {
        metrics.gauge_set("steady_cache_hits", self.hits.get() as f64);
        metrics.gauge_set("steady_cache_misses", self.misses.get() as f64);
        metrics.gauge_set("steady_cache_hit_rate", self.hit_rate());
        metrics.gauge_set("steady_cache_size", self.len() as f64);
    }
}

/// One precomputed row of an [`OperatingPointTable`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatingPoint {
    /// The bin-aligned frequency of this row.
    pub frequency: Frequency,
    /// The V/f-curve voltage the SKU needs at that frequency.
    pub voltage: Voltage,
    /// The solved steady state at (`frequency`, `voltage`).
    pub state: SteadyState,
}

/// A per-SKU table of solved operating points, one per 100 MHz bin from
/// base upward — the precomputed complement to [`SteadyStateCache`] for
/// callers that scan the whole ladder (max-turbo inversions, staircase
/// plots) instead of probing isolated points.
///
/// # Example
///
/// ```
/// use ic_power::cache::OperatingPointTable;
/// use ic_power::cpu::CpuSku;
/// use ic_thermal::junction::ThermalInterface;
///
/// let sku = CpuSku::skylake_8180();
/// let air = ThermalInterface::air(35.0, 12.1, 0.21);
/// let table = OperatingPointTable::build(&sku, &air, 30);
/// assert_eq!(table.max_turbo(sku.tdp_w()), sku.max_turbo(&air, sku.tdp_w()));
/// ```
#[derive(Debug, Clone)]
pub struct OperatingPointTable {
    base_mhz: u32,
    points: Vec<OperatingPoint>,
}

impl OperatingPointTable {
    /// Solves `bins_above_base + 1` operating points (base included) for
    /// `sku` under `iface`, each at the V/f-curve voltage.
    pub fn build(sku: &CpuSku, iface: &ThermalInterface, bins_above_base: u32) -> Self {
        let base = sku.base();
        let points = (0..=bins_above_base)
            .map(|bin| {
                let frequency = base.step_bins(bin as i32);
                let voltage = sku.voltage_for(frequency);
                OperatingPoint {
                    frequency,
                    voltage,
                    state: sku.steady_state(iface, frequency, voltage),
                }
            })
            .collect();
        OperatingPointTable {
            base_mhz: base.mhz(),
            points,
        }
    }

    /// The precomputed point at `f`, if `f` is bin-aligned and inside
    /// the table's range.
    pub fn lookup(&self, f: Frequency) -> Option<&OperatingPoint> {
        let mhz = f.mhz();
        if mhz < self.base_mhz || !(mhz - self.base_mhz).is_multiple_of(BIN_MHZ) {
            return None;
        }
        self.points.get(((mhz - self.base_mhz) / BIN_MHZ) as usize)
    }

    /// The highest tabulated frequency whose steady-state power fits
    /// `power_limit_w` — [`CpuSku::max_turbo`] as a table scan: step up
    /// from base, stop at the first bin over the limit.
    pub fn max_turbo(&self, power_limit_w: f64) -> Frequency {
        let mut best = Frequency::from_mhz(self.base_mhz);
        for p in &self.points[1..] {
            if p.state.power_w <= power_limit_w {
                best = p.frequency;
            } else {
                break;
            }
        }
        best
    }

    /// The number of tabulated points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// `true` if the table has no points (never, for a built table).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// All tabulated points in ascending frequency order.
    pub fn points(&self) -> &[OperatingPoint] {
        &self.points
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_sim::rng::SimRng;
    use ic_thermal::fluid::DielectricFluid;

    fn interfaces() -> Vec<ThermalInterface> {
        vec![
            ThermalInterface::air(35.0, 12.0, 0.22),
            ThermalInterface::air(35.0, 12.1, 0.21),
            ThermalInterface::two_phase(DielectricFluid::fc3284(), 0.08, 1.6),
            ThermalInterface::two_phase(DielectricFluid::hfe7000(), 0.084, 0.0),
        ]
    }

    fn skus() -> Vec<CpuSku> {
        vec![
            CpuSku::skylake_8168(),
            CpuSku::skylake_8180(),
            CpuSku::xeon_w3175x(),
            CpuSku::i9_9900k(),
        ]
    }

    #[test]
    fn cached_equals_direct_at_random_operating_points() {
        // Property test: over randomly drawn (SKU, interface, f, v)
        // points — including bin-misaligned overclock frequencies — the
        // cached answer is bitwise the direct solver's answer, on both
        // the miss and the hit path.
        let cache = SteadyStateCache::new();
        let mut rng = SimRng::seed_from_u64(2021);
        let skus = skus();
        let ifaces = interfaces();
        for _ in 0..500 {
            let sku = &skus[rng.index(skus.len())];
            let iface = &ifaces[rng.index(ifaces.len())];
            let f = Frequency::from_mhz(1200 + rng.index(3000) as u32);
            let v = Voltage::from_mv(850 + rng.index(200) as u32);
            let direct = sku.steady_state(iface, f, v);
            let miss = cache.steady_state(sku, iface, f, v);
            let hit = cache.steady_state(sku, iface, f, v);
            assert_eq!(direct, miss, "{} at {f} {v}", sku.name());
            assert_eq!(direct, hit, "{} at {f} {v} (hit path)", sku.name());
        }
        assert!(cache.hits() >= 500, "every second lookup must hit");
        assert!(cache.hit_rate() >= 0.5);
    }

    #[test]
    fn batch_matches_sequential_including_cache_hit_interleavings() {
        // Property test: a batched lookup over a random mix of repeated
        // and fresh points — against a cache that is itself randomly
        // pre-warmed — must match per-point sequential calls exactly:
        // same results bitwise, same hit/miss counter trajectory.
        let mut rng = SimRng::seed_from_u64(88);
        let skus = skus();
        let ifaces = interfaces();
        for round in 0..20 {
            let sku = &skus[rng.index(skus.len())];
            let batched = SteadyStateCache::new();
            let sequential = SteadyStateCache::new();
            // Pre-warm both caches identically with a few points.
            for _ in 0..rng.index(4) {
                let f = Frequency::from_mhz(1200 + 100 * rng.index(30) as u32);
                let v = sku.voltage_for(f);
                let iface = &ifaces[rng.index(ifaces.len())];
                batched.steady_state(sku, iface, f, v);
                sequential.steady_state(sku, iface, f, v);
            }
            // Draw from a small pool so the batch holds duplicates of
            // both cached and uncached points, interleaved.
            let pool: Vec<(usize, Frequency)> = (0..4)
                .map(|_| {
                    (
                        rng.index(ifaces.len()),
                        Frequency::from_mhz(1200 + 100 * rng.index(30) as u32),
                    )
                })
                .collect();
            let picks: Vec<(usize, Frequency, Voltage)> = (0..rng.index(40))
                .map(|_| {
                    let (i, f) = pool[rng.index(pool.len())];
                    (i, f, sku.voltage_for(f))
                })
                .collect();
            let points: Vec<BatchPoint<'_>> = picks
                .iter()
                .map(|&(i, f, v)| BatchPoint {
                    iface: &ifaces[i],
                    f,
                    v,
                })
                .collect();
            let got = batched.steady_state_batch(sku, &points);
            let want: Vec<SteadyState> = picks
                .iter()
                .map(|&(i, f, v)| sequential.steady_state(sku, &ifaces[i], f, v))
                .collect();
            assert_eq!(got, want, "round {round}");
            assert_eq!(
                (batched.hits(), batched.misses()),
                (sequential.hits(), sequential.misses()),
                "round {round} counter trajectory"
            );
            assert_eq!(batched.len(), sequential.len(), "round {round}");
        }
    }

    #[test]
    fn cached_max_turbo_matches_direct() {
        let cache = SteadyStateCache::new();
        for sku in skus() {
            for iface in interfaces() {
                for limit in [120.0, 205.0, 255.0, 400.0] {
                    assert_eq!(
                        cache.max_turbo(&sku, &iface, limit),
                        sku.max_turbo(&iface, limit),
                        "{} limit {limit}",
                        sku.name()
                    );
                }
            }
        }
        assert!(cache.hits() > 0, "repeated limits must share solves");
    }

    #[test]
    fn distinct_skus_and_interfaces_do_not_collide() {
        // Same (f, v) under different SKUs/interfaces must occupy
        // distinct memo slots.
        let cache = SteadyStateCache::new();
        let f = Frequency::from_ghz(2.6);
        let v = Voltage::from_volts(0.9);
        for sku in skus() {
            for iface in interfaces() {
                let got = cache.steady_state(&sku, &iface, f, v);
                assert_eq!(got, sku.steady_state(&iface, f, v), "{}", sku.name());
            }
        }
        assert_eq!(cache.len(), 16);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn near_miss_frequencies_are_not_aliased() {
        // 3936 MHz (the +23 % overclock point of a 3.2 GHz flat-top) and
        // its 3.9 GHz bin neighbour must resolve separately.
        let cache = SteadyStateCache::new();
        let sku = CpuSku::skylake_8180();
        let iface = ThermalInterface::two_phase(DielectricFluid::fc3284(), 0.08, 1.6);
        let a = Frequency::from_mhz(3936);
        let b = Frequency::from_mhz(3900);
        let pa = cache.steady_state(&sku, &iface, a, sku.voltage_for(a));
        let pb = cache.steady_state(&sku, &iface, b, sku.voltage_for(b));
        assert!(pa.power_w > pb.power_w, "{} vs {}", pa.power_w, pb.power_w);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn clear_resets_contents_and_counters() {
        let cache = SteadyStateCache::new();
        let sku = CpuSku::skylake_8180();
        let iface = ThermalInterface::air(35.0, 12.1, 0.21);
        cache.steady_state(&sku, &iface, sku.base(), sku.nominal_voltage());
        cache.steady_state(&sku, &iface, sku.base(), sku.nominal_voltage());
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
        assert_eq!(cache.hit_rate(), 0.0);
    }

    #[test]
    fn exported_gauges_match_counters_and_hit_rate() {
        let cache = SteadyStateCache::new();
        let sku = CpuSku::skylake_8180();
        let iface = ThermalInterface::air(35.0, 12.1, 0.21);
        // 1 miss + 3 hits on one point, 1 miss on another: rate 3/5.
        for _ in 0..4 {
            cache.steady_state(&sku, &iface, sku.base(), sku.nominal_voltage());
        }
        cache.steady_state(&sku, &iface, sku.air_turbo(), sku.nominal_voltage());

        let mut metrics = MetricsRegistry::new();
        cache.export_metrics(&mut metrics);
        assert_eq!(metrics.gauge("steady_cache_hits"), Some(3.0));
        assert_eq!(metrics.gauge("steady_cache_misses"), Some(2.0));
        assert_eq!(
            metrics.gauge("steady_cache_hit_rate"),
            Some(cache.hit_rate())
        );
        assert_eq!(metrics.gauge("steady_cache_hit_rate"), Some(0.6));
        assert_eq!(metrics.gauge("steady_cache_size"), Some(2.0));
    }

    #[test]
    fn attached_flight_records_hit_and_miss_instants() {
        let cache = SteadyStateCache::new();
        let flight = ic_obs::flight::shared_flight(1024);
        cache.attach_flight(flight.clone());
        let sku = CpuSku::skylake_8180();
        let iface = ThermalInterface::air(35.0, 12.1, 0.21);
        cache.steady_state(&sku, &iface, sku.base(), sku.nominal_voltage());
        cache.steady_state(&sku, &iface, sku.base(), sku.nominal_voltage());

        let counts = flight.borrow().counts_by_kind();
        assert_eq!(counts[&("steady_cache", "miss_solve_insert")], 1);
        assert_eq!(counts[&("steady_cache", "hit")], 1);

        cache.detach_flight();
        cache.steady_state(&sku, &iface, sku.base(), sku.nominal_voltage());
        assert_eq!(
            flight.borrow().counts_by_kind()[&("steady_cache", "hit")],
            1
        );
    }

    #[test]
    fn table_rows_match_direct_solves() {
        for sku in skus() {
            let iface = ThermalInterface::air(35.0, 12.0, 0.22);
            let table = OperatingPointTable::build(&sku, &iface, 30);
            assert_eq!(table.len(), 31);
            for p in table.points() {
                assert_eq!(p.voltage, sku.voltage_for(p.frequency));
                assert_eq!(
                    p.state,
                    sku.steady_state(&iface, p.frequency, p.voltage),
                    "{} at {}",
                    sku.name(),
                    p.frequency
                );
            }
        }
    }

    #[test]
    fn table_max_turbo_matches_sku_over_limit_sweep() {
        let sku = CpuSku::skylake_8180();
        for iface in interfaces() {
            let table = OperatingPointTable::build(&sku, &iface, 30);
            for limit in (100..=420).step_by(20) {
                let limit = limit as f64;
                assert_eq!(
                    table.max_turbo(limit),
                    sku.max_turbo(&iface, limit),
                    "limit {limit}"
                );
            }
        }
    }

    #[test]
    fn table_lookup_rejects_misaligned_and_out_of_range() {
        let sku = CpuSku::skylake_8180();
        let iface = ThermalInterface::air(35.0, 12.1, 0.21);
        let table = OperatingPointTable::build(&sku, &iface, 10);
        assert!(table.lookup(sku.base()).is_some());
        assert!(table.lookup(sku.base().step_bins(10)).is_some());
        assert!(table.lookup(sku.base().step_bins(11)).is_none());
        assert!(table
            .lookup(Frequency::from_mhz(sku.base().mhz() + 50))
            .is_none());
        assert!(table.lookup(Frequency::from_mhz(100)).is_none());
    }
}
