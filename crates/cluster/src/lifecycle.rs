//! Trace-driven VM lifecycle: arrivals, lifetimes, departures.
//!
//! The paper leans on the Resource Central observation that "VMs often
//! live long lifespans" \[16\] when arguing that oversubscription
//! overclocking may be needed for long periods. This module runs a VM
//! arrival/departure process over a [`Cluster`] on a discrete-event
//! queue, producing the packing-density and rejection time series the
//! capacity experiments consume.

use crate::cluster::Cluster;
use crate::vm::{VmId, VmSpec};
use ic_obs::flight::TraceLevel;
use ic_obs::json::Value;
use ic_sim::dist::{Dist, Exponential, LogNormal};
use ic_sim::queue::EventQueue;
use ic_sim::rng::SimRng;
use ic_sim::series::TimeSeries;
use ic_sim::time::{SimDuration, SimTime};

/// The VM population mix: each entry is `(spec, weight)`; arrivals pick
/// a spec proportionally to weight.
#[derive(Debug, Clone)]
pub struct VmMix {
    entries: Vec<(VmSpec, f64)>,
}

impl VmMix {
    /// Creates a mix.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is empty or any weight is not positive.
    pub fn new(entries: Vec<(VmSpec, f64)>) -> Self {
        assert!(!entries.is_empty(), "mix needs entries");
        assert!(
            entries.iter().all(|&(_, w)| w > 0.0),
            "weights must be positive"
        );
        VmMix { entries }
    }

    /// A cloud-like default: mostly small VMs, some large.
    pub fn cloud_default() -> Self {
        VmMix::new(vec![
            (VmSpec::new(2, 8.0), 0.45),
            (VmSpec::new(4, 16.0), 0.35),
            (VmSpec::new(8, 32.0), 0.15),
            (VmSpec::new(16, 64.0), 0.05),
        ])
    }

    fn pick(&self, rng: &mut SimRng) -> VmSpec {
        let total: f64 = self.entries.iter().map(|&(_, w)| w).sum();
        let mut x = rng.uniform() * total;
        for &(spec, w) in &self.entries {
            if x < w {
                return spec;
            }
            x -= w;
        }
        self.entries.last().expect("non-empty").0
    }
}

/// Configuration of a lifecycle run.
#[derive(Debug, Clone)]
pub struct LifecycleConfig {
    /// Mean inter-arrival time, seconds.
    pub mean_interarrival_s: f64,
    /// Mean VM lifetime, seconds (lognormal, heavy-tailed: most VMs are
    /// short-lived, the long tail dominates occupancy — the Resource
    /// Central shape).
    pub mean_lifetime_s: f64,
    /// Lifetime squared coefficient of variation.
    pub lifetime_scv: f64,
    /// The VM mix.
    pub mix: VmMix,
}

impl LifecycleConfig {
    /// A default cloud trace: arrivals every 30 s, 4-hour mean lifetime
    /// with SCV 4 (heavy tail).
    pub fn cloud_default() -> Self {
        LifecycleConfig {
            mean_interarrival_s: 30.0,
            mean_lifetime_s: 4.0 * 3600.0,
            lifetime_scv: 4.0,
            mix: VmMix::cloud_default(),
        }
    }
}

/// The outcome of a lifecycle run.
#[derive(Debug)]
pub struct LifecycleResult {
    /// Packing density over time (allocated vcores / healthy pcores).
    pub density: TimeSeries,
    /// VMs accepted.
    pub accepted: u64,
    /// VMs rejected for lack of capacity.
    pub rejected: u64,
    /// Peak packing density reached.
    pub peak_density: f64,
}

/// One lifecycle event.
#[derive(Debug, Clone, Copy)]
enum Event {
    /// A VM request arrives (and schedules the next arrival).
    Arrival,
    /// A VM's lifetime ends.
    Depart(VmId),
    /// The once-a-minute packing-density sample.
    Sample,
}

struct State {
    cluster: Cluster,
    rng: SimRng,
    interarrival: Exponential,
    lifetime: LogNormal,
    mix: VmMix,
    accepted: u64,
    rejected: u64,
    density: TimeSeries,
}

/// Runs the arrival/departure process over `cluster` until `horizon`.
///
/// # Panics
///
/// Panics if the configuration has non-positive rates.
pub fn run_lifecycle(
    cluster: Cluster,
    config: &LifecycleConfig,
    horizon: SimTime,
    seed: u64,
) -> LifecycleResult {
    assert!(config.mean_interarrival_s > 0.0 && config.mean_lifetime_s > 0.0);
    let mut queue = EventQueue::new();
    let mut state = State {
        cluster,
        rng: SimRng::seed_from_u64(seed),
        interarrival: Exponential::with_mean(config.mean_interarrival_s),
        lifetime: LogNormal::with_mean_scv(config.mean_lifetime_s, config.lifetime_scv),
        mix: config.mix.clone(),
        accepted: 0,
        rejected: 0,
        density: TimeSeries::new("packing_density"),
    };
    queue.schedule(SimTime::ZERO, Event::Arrival);
    // Density sampling every minute.
    queue.schedule(SimTime::ZERO, Event::Sample);
    while let Some(event) = queue.pop_at_most(horizon) {
        let now = queue.now();
        match event {
            Event::Arrival => arrival(&mut state, &mut queue),
            Event::Depart(id) => {
                let _ = state.cluster.delete_vm(now, id);
            }
            Event::Sample => sample_density(&mut state, &mut queue),
        }
    }

    let peak_density = state.density.max().unwrap_or(0.0);
    LifecycleResult {
        density: state.density,
        accepted: state.accepted,
        rejected: state.rejected,
        peak_density,
    }
}

fn arrival(state: &mut State, queue: &mut EventQueue<Event>) {
    let spec = state.mix.pick(&mut state.rng);
    match state.cluster.create_vm(queue.now(), spec) {
        Ok(id) => {
            state.accepted += 1;
            let life = state.lifetime.sample(&mut state.rng);
            queue.schedule_in(SimDuration::from_secs_f64(life.max(1.0)), Event::Depart(id));
        }
        Err(_) => state.rejected += 1,
    }
    let gap = state.interarrival.sample(&mut state.rng);
    queue.schedule_in(SimDuration::from_secs_f64(gap.max(1e-3)), Event::Arrival);
}

fn sample_density(state: &mut State, queue: &mut EventQueue<Event>) {
    let now = queue.now();
    let density = state.cluster.packing_density();
    state.density.push(now, density);
    // Oversubscription interference: with more vcores allocated than
    // healthy pcores, colocated VMs contend for cycles; the excess ratio
    // is the interference pressure the paper's Section V overclocking
    // compensates for.
    state.cluster.emit(
        now,
        if density > 1.0 {
            TraceLevel::Info
        } else {
            TraceLevel::Debug
        },
        "oversub_sample",
        || {
            vec![
                ("density", Value::F64(density)),
                ("oversubscribed", Value::Bool(density > 1.0)),
                (
                    "interference_pressure",
                    Value::F64((density - 1.0).max(0.0)),
                ),
            ]
        },
    );
    queue.schedule_in(SimDuration::from_secs(60), Event::Sample);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::placement::{Oversubscription, PlacementPolicy};
    use crate::server::ServerSpec;

    fn small_cluster(n: usize, oversub: f64) -> Cluster {
        Cluster::new(
            vec![ServerSpec::open_compute(); n],
            PlacementPolicy::BestFit,
            if oversub > 1.0 {
                Oversubscription::ratio(oversub)
            } else {
                Oversubscription::none()
            },
        )
    }

    fn quick_config() -> LifecycleConfig {
        LifecycleConfig {
            mean_interarrival_s: 20.0,
            mean_lifetime_s: 3600.0,
            lifetime_scv: 4.0,
            mix: VmMix::cloud_default(),
        }
    }

    #[test]
    fn occupancy_approaches_littles_law() {
        // Offered vcore load = (lifetime / interarrival) × mean vcores.
        let result = run_lifecycle(
            small_cluster(50, 1.0),
            &quick_config(),
            SimTime::from_secs(8 * 3600),
            1,
        );
        // Mean vcores per VM: 2·.45+4·.35+8·.15+16·.05 = 4.3.
        // Offered = 3600/20 × 4.3 = 774 vcores of 2400 → density ≈ 0.32.
        let settled = result
            .density
            .value_at(SimTime::from_secs(8 * 3600 - 60))
            .unwrap();
        assert!((0.2..0.5).contains(&settled), "settled density {settled}");
        assert_eq!(result.rejected, 0);
    }

    #[test]
    fn overload_rejects_instead_of_overpacking() {
        let cfg = LifecycleConfig {
            mean_interarrival_s: 2.0, // 10× the load
            ..quick_config()
        };
        let result = run_lifecycle(small_cluster(4, 1.0), &cfg, SimTime::from_secs(4 * 3600), 2);
        assert!(result.rejected > 0);
        assert!(result.peak_density <= 1.0 + 1e-9);
    }

    #[test]
    fn oversubscription_raises_peak_density_and_cuts_rejections() {
        let cfg = LifecycleConfig {
            mean_interarrival_s: 2.0,
            ..quick_config()
        };
        let horizon = SimTime::from_secs(4 * 3600);
        let base = run_lifecycle(small_cluster(4, 1.0), &cfg, horizon, 3);
        let dense = run_lifecycle(small_cluster(4, 1.2), &cfg, horizon, 3);
        assert!(dense.peak_density > base.peak_density);
        assert!(dense.peak_density <= 1.2 + 1e-9);
        assert!(dense.rejected < base.rejected);
        assert!(dense.accepted > base.accepted);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let r = run_lifecycle(
                small_cluster(8, 1.0),
                &quick_config(),
                SimTime::from_secs(3600),
                7,
            );
            (r.accepted, r.rejected, r.peak_density.to_bits())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn traced_lifecycle_records_vm_events() {
        use ic_obs::flight::shared_flight;
        use ic_obs::ObsSinks;

        let flight = shared_flight(100_000);
        let mut cluster = small_cluster(8, 1.2);
        cluster.attach_sinks(ObsSinks::none().with_flight(flight.clone()));
        let r = run_lifecycle(cluster, &quick_config(), SimTime::from_secs(3600), 5);
        let rec = flight.borrow();
        let counts = rec.counts_by_kind();
        let creates = counts.get(&("cluster", "vm_create")).copied().unwrap_or(0);
        assert_eq!(creates, r.accepted, "one vm_create per accepted VM");
        assert!(counts[&("cluster", "oversub_sample")] > 0);
        // Dense samples are Info, the rest Debug.
        let samples: Vec<_> = rec.spans().filter(|s| s.name == "oversub_sample").collect();
        assert!(samples.iter().any(|s| s.level == TraceLevel::Info));
        assert!(samples.iter().all(|s| {
            let oversubscribed = s.fields.contains(&("oversubscribed", Value::Bool(true)));
            (s.level == TraceLevel::Info) == oversubscribed
        }));
        // Event timestamps follow the simulation clock, not wall time.
        let mut last = SimTime::ZERO;
        for s in rec.spans() {
            assert!(s.start >= last, "trace went backwards at seq {}", s.seq);
            last = s.start;
        }
    }

    #[test]
    fn density_series_is_sampled_every_minute() {
        let r = run_lifecycle(
            small_cluster(2, 1.0),
            &quick_config(),
            SimTime::from_secs(600),
            9,
        );
        assert!(r.density.len() >= 10);
    }
}
