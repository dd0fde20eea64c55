//! [`FleetWorld`]: the one [`World`] over [`ClientServerSim`].
//!
//! Every control-plane run drives this world — the composed control
//! plane with its power domains and faults, and the Table XI auto-scaler
//! runner (in `ic-autoscale`) with none. So scale-out interference,
//! scale-in victim selection, and frequency propagation are implemented
//! once, here, and only this module knows how a typed [`Action`] lands
//! on the serving sim.

use crate::action::{Action, FreqTarget, Outcome};
use crate::controller::World;
use crate::telemetry::VmTelemetry;
use crate::telemetry::{
    ClusterTelemetry, DomainPower, FaultTelemetry, PowerTelemetry, TelemetrySnapshot,
};
use ic_cluster::cluster::Cluster;
use ic_cluster::placement::{Oversubscription, PlacementPolicy};
use ic_cluster::server::ServerSpec;
use ic_cluster::vm::{VmId, VmSpec};
use ic_power::batch::BatchPoint;
use ic_power::cache::SteadyStateCache;
use ic_power::capping::Priority;
use ic_power::cpu::{CpuSku, SteadyState};
use ic_power::units::Frequency;
use ic_scenario::FaultConfig;
use ic_sim::rng::StreamVersion;
use ic_sim::time::SimTime;
use ic_thermal::junction::ThermalInterface;
use ic_workloads::mgk::ClientServerSim;
use std::cell::OnceCell;
use std::collections::BTreeMap;

/// Stamps `now` on `out` and refills its per-VM section from `sim`: one
/// [`VmTelemetry`] per active VM, in the sim's stable activation order
/// (the same order `AutoScaler` has always iterated). Every VM row
/// carries the tick's wall-clock sample, so the rows are rebuilt each
/// tick — but into the snapshot's existing buffer, with no per-tick
/// allocation once it has grown to the fleet's high-water mark. The
/// power and cluster sections are left untouched; [`FleetWorld`]
/// maintains those on actuation.
fn sim_snapshot_into(sim: &ClientServerSim, now: SimTime, out: &mut TelemetrySnapshot) {
    out.now = now;
    out.vms.clear();
    for &vm in sim.active_ids() {
        out.vms.push(VmTelemetry {
            vm: vm as u64,
            sample: sim.sample(vm),
            queue_depth: sim.queue_depth(vm),
            vcores: sim.vcores(vm),
        });
    }
}

/// One power domain's static shape in a [`FleetWorld`].
#[derive(Debug, Clone, Copy)]
pub struct DomainSpec {
    /// Domain id (socket or server index).
    pub domain: u64,
    /// Capping priority under contention.
    pub priority: Priority,
    /// Watts the domain cannot run below (base-frequency draw).
    pub floor_w: f64,
    /// Watts the domain asks for at full overclock.
    pub demand_w: f64,
}

/// A physical power model for the fleet's domains: instead of the
/// static [`DomainSpec::demand_w`], each domain's demand is the solved
/// steady-state socket power at the fleet's commanded frequency,
/// through one of a small set of thermal-interface *bins* (domain `i`
/// dissipates through bin `i % bins.len()` — deterministic
/// heterogeneity, e.g. tank position changing the junction-to-coolant
/// resistance). A fleet-wide `SetFrequency` re-solves every domain,
/// but only `bins.len()` operating points are distinct, so the batch
/// solve is one structure-of-arrays pass plus cache hits.
#[derive(Debug, Clone)]
pub struct PowerModelSpec {
    /// The socket populated in every domain.
    pub sku: CpuSku,
    /// Thermal-interface heterogeneity bins; must be non-empty.
    pub bins: Vec<ThermalInterface>,
    /// The frequency commanded by ratio 1.0, GHz.
    pub base_ghz: f64,
}

/// Configuration of the composed fleet world.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Workload RNG seed.
    pub seed: u64,
    /// Mean per-request core demand, seconds.
    pub service_mean_s: f64,
    /// Service-time squared coefficient of variation.
    pub service_scv: f64,
    /// Virtual cores per server VM.
    pub vcores_per_vm: u32,
    /// Counter stall fraction of the workload.
    pub stall_fraction: f64,
    /// Server VMs running (and placed) at t = 0.
    pub initial_vms: usize,
    /// Piecewise-constant client load: `(start_s, qps)` steps.
    pub schedule: Vec<(f64, f64)>,
    /// Physical servers in the cluster.
    pub servers: usize,
    /// vcore oversubscription ratio (1.0 = none).
    pub oversub: f64,
    /// The placement shape of every serving VM.
    pub vm_spec: VmSpec,
    /// Provisioned power budget shared by all domains, watts.
    pub budget_w: f64,
    /// The power domains under that budget.
    pub domains: Vec<DomainSpec>,
    /// Physical demand model; `None` keeps the static
    /// [`DomainSpec::demand_w`] asks.
    pub power_model: Option<PowerModelSpec>,
    /// Sampler stream version of the workload sim.
    /// [`StreamVersion::V1`] (the default) replays the historical value
    /// sequence byte-for-byte; [`StreamVersion::V2`] runs the buffered
    /// ziggurat fast path.
    pub rng_stream: StreamVersion,
    /// Fault-injection configuration. `None` (the default) disables the
    /// fault-telemetry section entirely, so fault-free worlds are
    /// byte-identical to their pre-fault-injection behavior.
    pub faults: Option<FaultConfig>,
}

/// Builder for [`FleetConfig`].
///
/// Starts from the paper-shaped `small` fleet (the Table XI
/// client-server workload on four-vcore VMs, an Open Compute cluster,
/// and two power domains — one critical, one batch — under a budget
/// that cannot satisfy both full asks) and lets call sites override
/// exactly the fields they care about:
///
/// ```
/// use ic_controlplane::fleet::FleetConfigBuilder;
/// let config = FleetConfigBuilder::small(42).initial_vms(3).build();
/// assert_eq!(config.seed, 42);
/// ```
#[derive(Debug, Clone)]
pub struct FleetConfigBuilder {
    config: FleetConfig,
}

impl FleetConfigBuilder {
    /// The paper-shaped small fleet with the given workload seed; every
    /// field can still be overridden before [`build`](Self::build).
    pub fn small(seed: u64) -> Self {
        FleetConfigBuilder {
            config: FleetConfig {
                seed,
                service_mean_s: 0.0028,
                service_scv: 2.0,
                vcores_per_vm: 4,
                stall_fraction: 0.10,
                initial_vms: 1,
                schedule: vec![(0.0, 500.0), (300.0, 1000.0), (600.0, 1500.0)],
                servers: 4,
                oversub: 1.2,
                vm_spec: VmSpec::new(4, 16.0),
                budget_w: 500.0,
                domains: vec![
                    DomainSpec {
                        domain: 0,
                        priority: Priority::Critical,
                        floor_w: 150.0,
                        demand_w: 305.0,
                    },
                    DomainSpec {
                        domain: 1,
                        priority: Priority::Batch,
                        floor_w: 150.0,
                        demand_w: 305.0,
                    },
                ],
                power_model: None,
                rng_stream: StreamVersion::V1,
                faults: None,
            },
        }
    }

    /// Workload RNG seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Mean per-request core demand, seconds.
    pub fn service_mean_s(mut self, mean_s: f64) -> Self {
        self.config.service_mean_s = mean_s;
        self
    }

    /// Service-time squared coefficient of variation.
    pub fn service_scv(mut self, scv: f64) -> Self {
        self.config.service_scv = scv;
        self
    }

    /// Virtual cores per server VM (workload sim side).
    pub fn vcores_per_vm(mut self, vcores: u32) -> Self {
        self.config.vcores_per_vm = vcores;
        self
    }

    /// Counter stall fraction of the workload.
    pub fn stall_fraction(mut self, fraction: f64) -> Self {
        self.config.stall_fraction = fraction;
        self
    }

    /// Server VMs running (and placed) at t = 0.
    pub fn initial_vms(mut self, vms: usize) -> Self {
        self.config.initial_vms = vms;
        self
    }

    /// Piecewise-constant client load: `(start_s, qps)` steps.
    pub fn schedule(mut self, schedule: Vec<(f64, f64)>) -> Self {
        self.config.schedule = schedule;
        self
    }

    /// Physical servers in the cluster.
    pub fn servers(mut self, servers: usize) -> Self {
        self.config.servers = servers;
        self
    }

    /// vcore oversubscription ratio (1.0 = none).
    pub fn oversub(mut self, oversub: f64) -> Self {
        self.config.oversub = oversub;
        self
    }

    /// The placement shape of every serving VM.
    pub fn vm_spec(mut self, spec: VmSpec) -> Self {
        self.config.vm_spec = spec;
        self
    }

    /// Provisioned power budget shared by all domains, watts.
    pub fn budget_w(mut self, watts: f64) -> Self {
        self.config.budget_w = watts;
        self
    }

    /// The power domains under the budget (ids strictly ascending).
    pub fn domains(mut self, domains: Vec<DomainSpec>) -> Self {
        self.config.domains = domains;
        self
    }

    /// Physical demand model replacing the static domain asks.
    pub fn power_model(mut self, model: PowerModelSpec) -> Self {
        self.config.power_model = Some(model);
        self
    }

    /// Sampler stream version of the workload sim.
    pub fn rng_stream(mut self, version: StreamVersion) -> Self {
        self.config.rng_stream = version;
        self
    }

    /// Fault-injection configuration (enables the fault-telemetry
    /// section and the fault actuation verbs).
    pub fn faults(mut self, faults: FaultConfig) -> Self {
        self.config.faults = Some(faults);
        self
    }

    /// The finished configuration.
    pub fn build(self) -> FleetConfig {
        self.config
    }
}

/// The composed [`World`]: the client-server workload sim, a placement
/// cluster, and a set of power domains — everything the four stock
/// controllers (auto-scaler, governor, power capper, failover) need,
/// advanced on one clock.
///
/// Serving VMs exist in both models: each live sim VM has a placement
/// in the cluster (`vm_map`). Server failures displace placements; VMs
/// the cluster cannot re-place are *parked* — removed from the serving
/// sim and listed in [`ClusterTelemetry::parked_vms`] until a
/// [`Action::Migrate`] finds them a new home.
pub struct FleetWorld {
    sim: ClientServerSim,
    cluster: Cluster,
    schedule: Vec<(f64, f64)>,
    next_step: usize,
    vm_spec: VmSpec,
    /// Cluster placement → the live sim VM it serves.
    vm_map: BTreeMap<VmId, u64>,
    parked: Vec<u64>,
    budget_w: f64,
    domains: Vec<DomainSpec>,
    /// The authoritative grants, one slot per domain row (spec order),
    /// `None` where no grant stands. Empty until the first grant lands,
    /// so a world that is never capped pays nothing for it.
    granted: Vec<Option<f64>>,
    /// `granted` keyed by domain id, as [`FleetWorld::grants`] hands it
    /// out: derived on the first read after a grant moves, so the
    /// per-grant cost stays one row write.
    grants_map: OnceCell<BTreeMap<u64, f64>>,
    /// The persistent snapshot [`World::telemetry`] hands out. VM rows
    /// are refilled (allocation-free) each tick; the power section is
    /// updated in place at actuation time; the cluster section is
    /// recomputed only when `cluster_dirty` says placement state moved.
    snap: TelemetrySnapshot,
    cluster_dirty: bool,
    power_model: Option<FleetPowerModel>,
    /// Fault-injection runtime state, present iff the config carried a
    /// [`FaultConfig`].
    faults: Option<FaultState>,
    /// Per-server failure start times (for any `FailServer`, scripted
    /// or injected), settled into `downtime_s` on repair.
    down_since: Vec<Option<SimTime>>,
    /// Total completed server downtime, seconds (open failure intervals
    /// are settled by [`FleetWorld::downtime_s`]).
    downtime_s: f64,
    /// Accepted `FailServer` transitions (healthy → failed).
    failures_applied: u64,
    /// Parked VMs successfully migrated back into service.
    recovered_vms: u64,
}

/// Runtime state of fault injection (the actuation side; the event
/// *sources* — wear process, fault plan — live outside the world).
struct FaultState {
    config: FaultConfig,
    /// Authoritative copies of the fault-telemetry fields; the snapshot
    /// section mirrors these at actuation time and
    /// [`FleetWorld::recompute_snapshot`] rebuilds from them.
    version: u64,
    fleet_ratio: f64,
    error_bursts: u64,
    errors_by_server: Vec<u64>,
    /// Active sensor dropouts: `(vm, until)`.
    dropouts: Vec<(u64, SimTime)>,
    /// Stale-telemetry freeze: the snapshot cloned at freeze time,
    /// content served unchanged (clock refreshed) until the instant.
    frozen: Option<(SimTime, Box<TelemetrySnapshot>)>,
}

impl FaultState {
    fn new(config: FaultConfig, servers: usize) -> Self {
        FaultState {
            config,
            version: 0,
            fleet_ratio: 1.0,
            error_bursts: 0,
            errors_by_server: vec![0; servers],
            dropouts: Vec::new(),
            frozen: None,
        }
    }

    fn telemetry(&self) -> FaultTelemetry {
        FaultTelemetry {
            version: self.version,
            fleet_ratio: self.fleet_ratio,
            error_bursts: self.error_bursts,
            errors_by_server: self.errors_by_server.clone(),
        }
    }

    fn frozen_at(&self, now: SimTime) -> Option<&TelemetrySnapshot> {
        match &self.frozen {
            Some((until, snap)) if now < *until => Some(snap),
            _ => None,
        }
    }
}

/// The snapshot's fault section, present whenever the world carries
/// [`FaultState`] (it is seeded from it at construction).
fn fault_section(snap: &mut TelemetrySnapshot) -> &mut FaultTelemetry {
    snap.faults
        .as_mut()
        .expect("fault state implies a fault section")
}

/// Runtime state of the optional physical demand model.
struct FleetPowerModel {
    sku: CpuSku,
    bins: Vec<ThermalInterface>,
    base_ghz: f64,
    cache: SteadyStateCache,
    /// The fleet frequency ratio currently reflected in the demand
    /// rows (so a from-scratch recompute can re-derive them).
    cur_ratio: f64,
    /// Fleet-wide demand refreshes performed (one per distinct
    /// commanded ratio that reached the model).
    refreshes: u64,
    /// Scratch for batch solves.
    solved: Vec<SteadyState>,
}

impl FleetPowerModel {
    /// Batch-solves the per-bin steady states at `ratio` into
    /// `self.solved` (one entry per heterogeneity bin).
    fn solve_bins(&mut self, ratio: f64) {
        let f = Frequency::from_ghz(self.base_ghz * ratio);
        let v = self.sku.voltage_for(f);
        let points: Vec<BatchPoint<'_>> = self
            .bins
            .iter()
            .map(|iface| BatchPoint { iface, f, v })
            .collect();
        self.solved.clear();
        self.cache
            .steady_state_batch_into(&self.sku, &points, &mut self.solved);
        self.cur_ratio = ratio;
        self.refreshes += 1;
    }

    /// The solved demand for domain index `i` (its bin's socket power).
    fn demand_for(&self, i: usize) -> f64 {
        self.solved[i % self.bins.len()].power_w
    }

    /// The demand a from-scratch recompute derives for domain `i` at
    /// the model's current ratio — the scalar cache path, bitwise equal
    /// to what [`solve_bins`](Self::solve_bins) wrote.
    fn recompute_demand_for(&self, i: usize) -> f64 {
        let f = Frequency::from_ghz(self.base_ghz * self.cur_ratio);
        let v = self.sku.voltage_for(f);
        self.cache
            .steady_state(&self.sku, &self.bins[i % self.bins.len()], f, v)
            .power_w
    }
}

impl FleetWorld {
    /// Builds the world and places the initial VMs.
    ///
    /// # Panics
    ///
    /// Panics if the cluster cannot hold `initial_vms`.
    pub fn new(config: FleetConfig) -> Self {
        let mut sim = ClientServerSim::with_stream_version(
            config.seed,
            config.service_mean_s,
            config.service_scv,
            config.vcores_per_vm,
            config.stall_fraction,
            config.rng_stream,
        );
        let mut cluster = Cluster::new(
            vec![ServerSpec::open_compute(); config.servers],
            PlacementPolicy::WorstFit,
            if config.oversub > 1.0 {
                Oversubscription::ratio(config.oversub)
            } else {
                Oversubscription::none()
            },
        );
        let mut vm_map = BTreeMap::new();
        for _ in 0..config.initial_vms {
            let vm = sim.add_vm() as u64;
            let cid = cluster
                .create_vm(SimTime::ZERO, config.vm_spec)
                .expect("cluster holds the initial fleet");
            vm_map.insert(cid, vm);
        }
        // In-place power-row updates binary-search by domain id, so the
        // spec order must be ascending (it doubles as the stable
        // telemetry order).
        assert!(
            config.domains.windows(2).all(|w| w[0].domain < w[1].domain),
            "domain ids must be strictly ascending"
        );
        let mut power_model = config.power_model.map(|spec| {
            assert!(!spec.bins.is_empty(), "power model needs at least one bin");
            FleetPowerModel {
                sku: spec.sku,
                bins: spec.bins,
                base_ghz: spec.base_ghz,
                cache: SteadyStateCache::new(),
                cur_ratio: 1.0,
                refreshes: 0,
                solved: Vec::new(),
            }
        });
        if let Some(model) = &mut power_model {
            model.solve_bins(1.0);
            model.refreshes = 0; // the seed solve is not an actuation
        }
        let mut snap = TelemetrySnapshot::at(SimTime::ZERO);
        snap.power = Some(PowerTelemetry {
            budget_w: config.budget_w,
            version: 0,
            domains: config
                .domains
                .iter()
                .enumerate()
                .map(|(i, d)| DomainPower {
                    domain: d.domain,
                    priority: d.priority,
                    floor_w: d.floor_w,
                    demand_w: power_model.as_ref().map_or(d.demand_w, |m| m.demand_for(i)),
                    granted_w: d.floor_w,
                })
                .collect(),
        });
        snap.cluster = Some(ClusterTelemetry {
            healthy_servers: 0,
            failed_servers: Vec::new(),
            packing_density: 0.0,
            parked_vms: Vec::new(),
        });
        let faults = config
            .faults
            .map(|fault_config| FaultState::new(fault_config, config.servers));
        snap.faults = faults.as_ref().map(FaultState::telemetry);
        FleetWorld {
            sim,
            cluster,
            schedule: config.schedule,
            next_step: 0,
            vm_spec: config.vm_spec,
            vm_map,
            parked: Vec::new(),
            budget_w: config.budget_w,
            domains: config.domains,
            granted: Vec::new(),
            grants_map: OnceCell::new(),
            snap,
            cluster_dirty: true,
            power_model,
            faults,
            down_since: vec![None; config.servers],
            downtime_s: 0.0,
            failures_applied: 0,
            recovered_vms: 0,
        }
    }

    /// The serving workload sim.
    pub fn sim(&self) -> &ClientServerSim {
        &self.sim
    }

    /// The serving workload sim, mutably — for result extraction, such
    /// as draining completions between windows or after the horizon.
    /// Changing its state mid-run from outside a controller forfeits
    /// determinism guarantees.
    pub fn sim_mut(&mut self) -> &mut ClientServerSim {
        &mut self.sim
    }

    /// The placement cluster.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// VMs evicted by failures and still awaiting placement.
    pub fn parked(&self) -> &[u64] {
        &self.parked
    }

    /// Current power grants by domain id.
    pub fn grants(&self) -> &BTreeMap<u64, f64> {
        self.grants_map.get_or_init(|| {
            self.domains
                .iter()
                .zip(&self.granted)
                .filter_map(|(d, g)| g.map(|w| (d.domain, w)))
                .collect()
        })
    }

    /// Fleet-wide demand refreshes the power model has performed (0
    /// without a model).
    pub fn demand_refreshes(&self) -> u64 {
        self.power_model.as_ref().map_or(0, |m| m.refreshes)
    }

    /// The power model's steady-state cache counters `(hits, misses)`,
    /// `(0, 0)` without a model.
    pub fn model_cache_counters(&self) -> (u64, u64) {
        self.power_model
            .as_ref()
            .map_or((0, 0), |m| (m.cache.hits(), m.cache.misses()))
    }

    /// The fault-injection configuration, if this world has one.
    pub fn fault_config(&self) -> Option<&FaultConfig> {
        self.faults.as_ref().map(|f| &f.config)
    }

    /// Accepted `FailServer` transitions (healthy → failed) so far,
    /// scripted and injected alike.
    pub fn failures_applied(&self) -> u64 {
        self.failures_applied
    }

    /// Parked VMs successfully migrated back into service so far.
    pub fn recovered_vms(&self) -> u64 {
        self.recovered_vms
    }

    /// Total server downtime, seconds, with failure intervals still
    /// open at `horizon` settled against it.
    pub fn downtime_s(&self, horizon: SimTime) -> f64 {
        let open: f64 = self
            .down_since
            .iter()
            .flatten()
            .map(|t0| (horizon.as_secs_f64() - t0.as_secs_f64()).max(0.0))
            .sum();
        self.downtime_s + open
    }

    /// Fleet availability over `[0, horizon]`: the fraction of
    /// server-seconds the fleet was not failed.
    pub fn availability(&self, horizon: SimTime) -> f64 {
        let total = self.down_since.len() as f64 * horizon.as_secs_f64();
        if total <= 0.0 {
            return 1.0;
        }
        1.0 - self.downtime_s(horizon) / total
    }

    /// Rebuilds the whole snapshot from authoritative state (sim,
    /// cluster, grant store, domain specs, power model, fault state),
    /// ignoring the incrementally-maintained copy. The incremental
    /// snapshot must be bitwise-equal to this at every tick — the
    /// property tests pin that; production ticks never pay this cost.
    ///
    /// An active stale-telemetry freeze is part of the
    /// [`World::telemetry`] contract, so inside a freeze window this
    /// returns the frozen snapshot too.
    pub fn recompute_snapshot(&self, now: SimTime) -> TelemetrySnapshot {
        if let Some(frozen) = self.faults.as_ref().and_then(|f| f.frozen_at(now)) {
            // The freeze stales the *content*, not the clock:
            // controllers always know wall time, and time-difference
            // arithmetic (cooldowns, windows) must never run backwards.
            let mut snap = frozen.clone();
            snap.now = now;
            return snap;
        }
        self.recompute_snapshot_live(now)
    }

    /// The from-scratch rebuild itself, ignoring any active freeze —
    /// also what [`Action::FreezeTelemetry`] clones as the frozen view.
    fn recompute_snapshot_live(&self, now: SimTime) -> TelemetrySnapshot {
        let mut snapshot = TelemetrySnapshot::at(now);
        sim_snapshot_into(&self.sim, now, &mut snapshot);
        if let Some(faults) = &self.faults {
            snapshot.vms.retain(|row| {
                !faults
                    .dropouts
                    .iter()
                    .any(|&(vm, until)| vm == row.vm && now < until)
            });
            snapshot.faults = Some(faults.telemetry());
        }
        snapshot.power = Some(PowerTelemetry {
            budget_w: self.budget_w,
            version: self.snap.power.as_ref().map_or(0, |p| p.version),
            domains: self
                .domains
                .iter()
                .enumerate()
                .map(|(i, d)| DomainPower {
                    domain: d.domain,
                    priority: d.priority,
                    floor_w: d.floor_w,
                    demand_w: self
                        .power_model
                        .as_ref()
                        .map_or(d.demand_w, |m| m.recompute_demand_for(i)),
                    granted_w: self.granted.get(i).copied().flatten().unwrap_or(d.floor_w),
                })
                .collect(),
        });
        let failed: Vec<usize> = self
            .cluster
            .servers()
            .iter()
            .enumerate()
            .filter(|(_, s)| s.is_failed())
            .map(|(i, _)| i)
            .collect();
        snapshot.cluster = Some(ClusterTelemetry {
            healthy_servers: self.cluster.servers().len() - failed.len(),
            failed_servers: failed,
            packing_density: self.cluster.packing_density(),
            parked_vms: self.parked.clone(),
        });
        snapshot
    }

    /// The row of `domain`, or `None` for an unknown domain. Ids are
    /// unique, so a fleet numbered `0..n` finds row `domain` at once;
    /// any other numbering falls back to a binary search (rows are in
    /// ascending domain-id order).
    fn domain_row(&self, domain: u64) -> Option<usize> {
        if let Ok(guess) = usize::try_from(domain) {
            if self.domains.get(guess).is_some_and(|d| d.domain == domain) {
                return Some(guess);
            }
        }
        self.domains
            .binary_search_by_key(&domain, |d| d.domain)
            .ok()
    }

    /// Records row `i`'s standing grant (`None`: revoked), mirrors the
    /// watts it now draws into its power row, and bumps the section
    /// version.
    fn set_grant(&mut self, i: usize, grant: Option<f64>) {
        if self.granted.is_empty() {
            self.granted = vec![None; self.domains.len()];
        }
        self.granted[i] = grant;
        self.grants_map.take();
        let power = self.snap.power.as_mut().expect("fleet models power");
        power.domains[i].granted_w = grant.unwrap_or(self.domains[i].floor_w);
        power.version += 1;
    }

    /// Recomputes demand rows after a fleet-wide frequency change (only
    /// with a power model attached; `bins.len()` distinct solves cover
    /// the whole fleet).
    fn refresh_demands(&mut self, ratio: f64) {
        let Some(model) = &mut self.power_model else {
            return;
        };
        model.solve_bins(ratio);
        let power = self.snap.power.as_mut().expect("fleet models power");
        for (i, row) in power.domains.iter_mut().enumerate() {
            row.demand_w = model.demand_for(i);
        }
        power.version += 1;
    }
}

impl World for FleetWorld {
    fn now(&self) -> SimTime {
        self.sim.now()
    }

    fn advance_to(&mut self, t: SimTime) {
        self.sim.advance_to(t);
    }

    fn pre_tick(&mut self, _tick_at: SimTime) {
        let t = self.sim.now();
        while self.next_step < self.schedule.len()
            && SimTime::from_secs_f64(self.schedule[self.next_step].0) <= t
        {
            self.sim.set_qps(self.schedule[self.next_step].1);
            self.next_step += 1;
        }
    }

    fn telemetry(&mut self, now: SimTime) -> &TelemetrySnapshot {
        // A stale-telemetry fault serves the frozen clone with its
        // content untouched — only the clock advances, so controller
        // time arithmetic never runs backwards. Expired freezes thaw
        // on the next read. (Checked before the borrow so the early
        // return does not pin `self.faults`.)
        let frozen_active = self
            .faults
            .as_ref()
            .is_some_and(|f| f.frozen_at(now).is_some());
        if frozen_active {
            let faults = self.faults.as_mut().expect("frozen implies fault state");
            let (_, snap) = faults.frozen.as_mut().expect("checked above");
            snap.now = now;
            return snap;
        }
        if let Some(faults) = &mut self.faults {
            faults.frozen = None;
        }
        // VM rows carry the tick's wall-clock sample, so they are
        // refilled every tick — but into the persistent buffer, with
        // no allocation at steady state. The power section was kept
        // current at actuation time; the cluster section is recomputed
        // only when placement state actually moved.
        sim_snapshot_into(&self.sim, now, &mut self.snap);
        if let Some(faults) = &mut self.faults {
            // Expired dropouts are pruned here (the only time-driven
            // fault state), so steady-state reads stay allocation-free.
            faults.dropouts.retain(|&(_, until)| now < until);
            if !faults.dropouts.is_empty() {
                let dropouts = &faults.dropouts;
                self.snap
                    .vms
                    .retain(|row| !dropouts.iter().any(|&(vm, _)| vm == row.vm));
            }
        }
        if self.cluster_dirty {
            let cluster = self.snap.cluster.as_mut().expect("fleet models placement");
            cluster.failed_servers.clear();
            cluster.failed_servers.extend(
                self.cluster
                    .servers()
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.is_failed())
                    .map(|(i, _)| i),
            );
            cluster.healthy_servers = self.cluster.servers().len() - cluster.failed_servers.len();
            cluster.packing_density = self.cluster.packing_density();
            cluster.parked_vms.clear();
            cluster.parked_vms.extend_from_slice(&self.parked);
            self.cluster_dirty = false;
        }
        &self.snap
    }

    fn apply(&mut self, now: SimTime, _source: &'static str, action: &Action) -> Outcome {
        match action {
            Action::ScaleOut { interference, .. } => {
                if !(0.0..1.0).contains(interference) {
                    return Outcome::Rejected {
                        reason: "interference outside [0, 1)",
                    };
                }
                // The in-flight VM creation (image transfer, network
                // traffic) eats into the serving VMs' capacity.
                self.sim.set_share_all(1.0 - interference);
                Outcome::Applied
            }
            Action::ScaleIn { vm } => {
                let removed = usize::try_from(*vm).is_ok_and(|vm| self.sim.remove_vm(vm));
                if !removed {
                    return Outcome::Rejected {
                        reason: "no such vm",
                    };
                }
                let placement = self
                    .vm_map
                    .iter()
                    .find_map(|(&cid, &v)| (v == *vm).then_some(cid));
                if let Some(cid) = placement {
                    self.vm_map.remove(&cid);
                    let _ = self.cluster.delete_vm(now, cid);
                    self.cluster_dirty = true;
                }
                Outcome::VmRemoved { vm: *vm }
            }
            Action::GrantPower { domain, watts } => match self.domain_row(*domain) {
                Some(i) => {
                    self.set_grant(i, Some(*watts));
                    Outcome::PowerGranted {
                        domain: *domain,
                        watts: *watts,
                    }
                }
                None => Outcome::Rejected {
                    reason: "unknown power domain",
                },
            },
            Action::RevokePower { domain } => match self.domain_row(*domain) {
                Some(i) if self.granted.get(i).is_some_and(Option::is_some) => {
                    self.set_grant(i, None);
                    Outcome::Applied
                }
                _ => Outcome::Rejected {
                    reason: "no grant to revoke",
                },
            },
            Action::FailServer { server } => match self.cluster.fail_server(now, *server) {
                Ok(report) => {
                    // Downtime accounting: only a healthy → failed
                    // transition opens an interval (failing an
                    // already-failed server is a no-op re-fail).
                    if self.down_since[*server].is_none() {
                        self.down_since[*server] = Some(now);
                        self.failures_applied += 1;
                    }
                    for r in &report.recreated {
                        if let Some(vm) = self.vm_map.remove(&r.old) {
                            self.vm_map.insert(r.new, vm);
                        }
                    }
                    for cid in &report.unplaced {
                        if let Some(vm) = self.vm_map.remove(cid) {
                            self.sim.remove_vm(vm as usize);
                            self.parked.push(vm);
                        }
                    }
                    self.cluster_dirty = true;
                    Outcome::FailedOver {
                        recreated: report.recreated.len(),
                        unplaced: report.unplaced.len(),
                    }
                }
                Err(_) => Outcome::Rejected {
                    reason: "unknown server",
                },
            },
            Action::RepairServer { server } => match self.cluster.repair_server(now, *server) {
                Ok(()) => {
                    // Repairing a healthy server is an accepted no-op;
                    // only a real repair settles the open interval.
                    if let Some(t0) = self.down_since[*server].take() {
                        self.downtime_s += (now.as_secs_f64() - t0.as_secs_f64()).max(0.0);
                    }
                    self.cluster_dirty = true;
                    Outcome::Applied
                }
                Err(_) => Outcome::Rejected {
                    reason: "unknown server",
                },
            },
            Action::Migrate { vm } => {
                let Some(pos) = self.parked.iter().position(|&p| p == *vm) else {
                    return Outcome::Rejected {
                        reason: "vm is not parked",
                    };
                };
                match self.cluster.create_vm(now, self.vm_spec) {
                    Ok(cid) => {
                        self.parked.remove(pos);
                        let host = self.cluster.vm(cid).map(|v| v.host).unwrap_or(0);
                        let new_vm = self.sim.add_vm() as u64;
                        self.vm_map.insert(cid, new_vm);
                        self.cluster_dirty = true;
                        self.recovered_vms += 1;
                        Outcome::Migrated {
                            vm: new_vm,
                            to: host,
                        }
                    }
                    Err(_) => Outcome::Rejected {
                        reason: "no cluster capacity",
                    },
                }
            }
            Action::SetFrequency { ratio, .. } if !(ratio.is_finite() && *ratio > 0.0) => {
                Outcome::Rejected {
                    reason: "frequency ratio not positive and finite",
                }
            }
            Action::SetFrequency {
                target: FreqTarget::Fleet,
                ratio,
            } => {
                self.refresh_demands(*ratio);
                if let Some(faults) = &mut self.faults {
                    if faults.fleet_ratio != *ratio {
                        faults.fleet_ratio = *ratio;
                        faults.version += 1;
                        let section = fault_section(&mut self.snap);
                        section.fleet_ratio = faults.fleet_ratio;
                        section.version = faults.version;
                    }
                }
                self.sim.set_freq_ratio_all(*ratio);
                Outcome::Applied
            }
            Action::SetFrequency {
                target: FreqTarget::Vm(vm),
                ratio,
            } => {
                if *vm >= self.sim.vm_count() as u64 {
                    return Outcome::Rejected {
                        reason: "no such vm",
                    };
                }
                self.sim.set_freq_ratio(*vm as usize, *ratio);
                Outcome::Applied
            }
            Action::SetShare { share } => {
                if !(*share > 0.0 && *share <= 1.0) {
                    return Outcome::Rejected {
                        reason: "share outside (0, 1]",
                    };
                }
                self.sim.set_share_all(*share);
                Outcome::Applied
            }
            Action::InjectErrorBurst { server, count } => {
                let Some(faults) = &mut self.faults else {
                    return Outcome::Rejected {
                        reason: "fault injection disabled",
                    };
                };
                let Some(slot) = faults.errors_by_server.get_mut(*server) else {
                    return Outcome::Rejected {
                        reason: "unknown server",
                    };
                };
                *slot += count;
                faults.error_bursts += 1;
                faults.version += 1;
                // Mirror the one changed counter; cloning the whole
                // per-server vector would cost O(servers) per burst.
                let section = fault_section(&mut self.snap);
                section.errors_by_server[*server] = *slot;
                section.error_bursts = faults.error_bursts;
                section.version = faults.version;
                Outcome::Applied
            }
            Action::FreezeTelemetry { until } => {
                if self.faults.is_none() {
                    return Outcome::Rejected {
                        reason: "fault injection disabled",
                    };
                }
                // Capture telemetry exactly as a tick at `now` would
                // see it, then serve that clone until the thaw.
                let frozen = Box::new(self.recompute_snapshot_live(now));
                let faults = self.faults.as_mut().expect("checked above");
                faults.frozen = Some((*until, frozen));
                Outcome::Applied
            }
            Action::DropVmSensor { vm, until } => {
                let Some(faults) = &mut self.faults else {
                    return Outcome::Rejected {
                        reason: "fault injection disabled",
                    };
                };
                faults.dropouts.push((*vm, *until));
                Outcome::Applied
            }
        }
    }

    fn complete_scale_out(&mut self, now: SimTime) -> Outcome {
        match self.cluster.create_vm(now, self.vm_spec) {
            Ok(cid) => {
                let vm = self.sim.add_vm() as u64;
                self.vm_map.insert(cid, vm);
                self.cluster_dirty = true;
                Outcome::VmCreated { vm }
            }
            Err(_) => Outcome::Rejected {
                reason: "no cluster capacity",
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_sim::time::SimDuration;

    #[test]
    fn snapshot_lists_vms_in_activation_order() {
        let mut world = FleetWorld::new(FleetConfigBuilder::small(1).initial_vms(2).build());
        let t = SimTime::from_secs(3);
        world.advance_to(t);
        let ids: Vec<u64> = world.telemetry(t).vms.iter().map(|v| v.vm).collect();
        let active: Vec<u64> = world.sim().active_ids().iter().map(|&v| v as u64).collect();
        assert_eq!(ids, active);
        assert_eq!(ids.len(), 2);
        assert!(world.telemetry(t).vms.iter().all(|v| v.vcores == 4));
    }

    #[test]
    fn scale_verbs_land_on_the_sim() {
        let mut world = FleetWorld::new(FleetConfigBuilder::small(1).build());
        let t = SimTime::from_secs(1);
        let scale_out = Action::ScaleOut {
            latency: SimDuration::from_secs(60),
            interference: 0.32,
        };
        assert_eq!(world.apply(t, "asc", &scale_out), Outcome::Applied);
        let created = world.complete_scale_out(t);
        let Outcome::VmCreated { vm } = created else {
            panic!("expected VmCreated, got {created:?}");
        };
        let set = Action::SetFrequency {
            target: FreqTarget::Vm(vm),
            ratio: 1.2,
        };
        assert_eq!(world.apply(t, "asc", &set), Outcome::Applied);
        assert!((world.sim().freq_ratio(vm as usize) - 1.2).abs() < 1e-12);
        let scale_in = Action::ScaleIn { vm };
        assert_eq!(world.apply(t, "asc", &scale_in), Outcome::VmRemoved { vm });
        assert_eq!(
            world.apply(t, "asc", &scale_in),
            Outcome::Rejected {
                reason: "no such vm"
            }
        );
    }

    /// Applies each action to a fresh one-VM world; every one must be
    /// rejected with `reason`, leaving the VM's speed alone and the world
    /// able to run on.
    fn assert_rejected(actions: &[Action], reason: &'static str) {
        for action in actions {
            let mut world = FleetWorld::new(FleetConfigBuilder::small(1).build());
            let t = SimTime::from_secs(1);
            assert_eq!(
                world.apply(t, "test", action),
                Outcome::Rejected { reason },
                "{action:?}"
            );
            assert_eq!(world.sim().freq_ratio(0), 1.0, "{action:?}");
            world.advance_to(SimTime::from_secs(3));
        }
    }

    #[test]
    fn scale_out_with_interference_outside_the_unit_interval_is_rejected() {
        let scale_out = |interference| Action::ScaleOut {
            latency: SimDuration::from_secs(60),
            interference,
        };
        assert_rejected(
            &[-0.1, 1.0, 2.0, f64::NAN, f64::INFINITY].map(scale_out),
            "interference outside [0, 1)",
        );
    }

    #[test]
    fn set_share_outside_zero_one_is_rejected() {
        assert_rejected(
            &[0.0, -0.5, 1.01, f64::NAN, f64::INFINITY].map(|share| Action::SetShare { share }),
            "share outside (0, 1]",
        );
    }

    #[test]
    fn set_frequency_with_a_bad_ratio_is_rejected() {
        let mut actions = Vec::new();
        for ratio in [0.0, -1.2, f64::NAN, f64::INFINITY] {
            for target in [FreqTarget::Fleet, FreqTarget::Vm(0)] {
                actions.push(Action::SetFrequency { target, ratio });
            }
        }
        assert_rejected(&actions, "frequency ratio not positive and finite");
    }

    #[test]
    fn scale_in_of_a_vm_never_created_is_rejected() {
        assert_rejected(
            &[1, 7, u64::MAX].map(|vm| Action::ScaleIn { vm }),
            "no such vm",
        );
    }

    #[test]
    fn set_frequency_on_a_vm_never_created_is_rejected() {
        assert_rejected(
            &[1, 7, u64::MAX].map(|vm| Action::SetFrequency {
                target: FreqTarget::Vm(vm),
                ratio: 1.2,
            }),
            "no such vm",
        );
        // A retired VM still has an id: setting it is accepted, as before.
        let mut world = FleetWorld::new(FleetConfigBuilder::small(1).initial_vms(2).build());
        let t = SimTime::from_secs(1);
        assert_eq!(
            world.apply(t, "test", &Action::ScaleIn { vm: 1 }),
            Outcome::VmRemoved { vm: 1 }
        );
        let set = Action::SetFrequency {
            target: FreqTarget::Vm(1),
            ratio: 1.2,
        };
        assert_eq!(world.apply(t, "test", &set), Outcome::Applied);
    }

    #[test]
    fn fleet_world_serves_power_and_cluster_telemetry() {
        let mut world = FleetWorld::new(FleetConfigBuilder::small(3).build());
        let snap = world.telemetry(SimTime::ZERO).clone();
        assert_eq!(snap.vms.len(), 1);
        let power = snap.power.expect("fleet models power");
        assert_eq!(power.domains.len(), 2);
        // Ungranted domains report their floor.
        assert!(power.domains.iter().all(|d| d.granted_w == d.floor_w));
        let cluster = snap.cluster.expect("fleet models placement");
        assert_eq!(cluster.healthy_servers, 4);
        assert!(cluster.parked_vms.is_empty());
    }

    #[test]
    fn grants_land_and_revoke() {
        let mut world = FleetWorld::new(FleetConfigBuilder::small(3).build());
        let granted = world.apply(
            SimTime::ZERO,
            "powercap",
            &Action::GrantPower {
                domain: 1,
                watts: 222.0,
            },
        );
        assert_eq!(
            granted,
            Outcome::PowerGranted {
                domain: 1,
                watts: 222.0
            }
        );
        let snap = world.telemetry(SimTime::ZERO).clone();
        let d1 = &snap.power.unwrap().domains[1];
        assert_eq!(d1.granted_w, 222.0);
        assert!(world
            .apply(
                SimTime::ZERO,
                "powercap",
                &Action::RevokePower { domain: 1 }
            )
            .accepted());
        assert!(!world
            .apply(
                SimTime::ZERO,
                "powercap",
                &Action::RevokePower { domain: 1 }
            )
            .accepted());
        assert!(!world
            .apply(
                SimTime::ZERO,
                "powercap",
                &Action::GrantPower {
                    domain: 99,
                    watts: 1.0
                }
            )
            .accepted());
    }

    #[test]
    fn failover_parks_unplaced_vms_and_migrate_replaces_them() {
        // Two servers, VMs sized so each server holds exactly one: any
        // failure strands its VM.
        let config = FleetConfigBuilder::small(5)
            .servers(2)
            .oversub(1.0)
            .initial_vms(2)
            .vm_spec(VmSpec::new(48, 64.0))
            .build();
        let mut world = FleetWorld::new(config);
        let t = SimTime::from_secs(10);

        let outcome = world.apply(t, "script", &Action::FailServer { server: 0 });
        assert_eq!(
            outcome,
            Outcome::FailedOver {
                recreated: 0,
                unplaced: 1
            }
        );
        assert_eq!(world.parked().len(), 1);
        let snap = world.telemetry(t);
        assert_eq!(snap.vms.len(), 1, "parked VM left the serving sim");
        assert_eq!(snap.cluster.as_ref().unwrap().failed_servers, vec![0]);

        // No capacity yet: the migrate is declined and the VM stays
        // parked.
        let parked = world.parked()[0];
        assert!(!world
            .apply(t, "failover", &Action::Migrate { vm: parked })
            .accepted());
        assert_eq!(world.parked().len(), 1);

        // Repair brings back capacity; the migrate then lands.
        assert!(world
            .apply(t, "failover", &Action::RepairServer { server: 0 })
            .accepted());
        let migrated = world.apply(t, "failover", &Action::Migrate { vm: parked });
        assert!(matches!(migrated, Outcome::Migrated { .. }), "{migrated:?}");
        assert!(world.parked().is_empty());
        assert_eq!(world.telemetry(t).vms.len(), 2);
    }

    #[test]
    fn failover_remaps_recreated_vms_so_scale_in_still_lands() {
        // Plenty of room: failing a server re-creates its VM elsewhere
        // under a fresh cluster id; a later ScaleIn on the sim VM must
        // still release the (remapped) cluster placement.
        let config = FleetConfigBuilder::small(7).initial_vms(3).build();
        let mut world = FleetWorld::new(config);
        let t = SimTime::from_secs(5);
        let hosted: Vec<usize> = (0..world.cluster().servers().len())
            .filter(|&h| !world.cluster().vms_on(h).is_empty())
            .collect();
        let outcome = world.apply(t, "script", &Action::FailServer { server: hosted[0] });
        let Outcome::FailedOver {
            recreated,
            unplaced,
        } = outcome
        else {
            panic!("expected FailedOver, got {outcome:?}");
        };
        assert!(recreated >= 1);
        assert_eq!(unplaced, 0);
        assert_eq!(world.parked().len(), 0);
        // Every serving VM can still be scaled in, and the cluster
        // placement count follows.
        let vms: Vec<u64> = world.telemetry(t).vms.iter().map(|v| v.vm).collect();
        assert_eq!(vms.len(), 3);
        for vm in vms {
            assert!(world.apply(t, "asc", &Action::ScaleIn { vm }).accepted());
        }
        assert_eq!(world.cluster().vm_count(), 0);
    }

    #[test]
    fn scale_out_completion_is_gated_by_cluster_capacity() {
        let config = FleetConfigBuilder::small(9)
            .servers(1)
            .oversub(1.0)
            .initial_vms(1)
            .vm_spec(VmSpec::new(48, 64.0))
            .build();
        let mut world = FleetWorld::new(config);
        let declined = world.complete_scale_out(SimTime::from_secs(1));
        assert_eq!(
            declined,
            Outcome::Rejected {
                reason: "no cluster capacity"
            }
        );
        assert_eq!(world.telemetry(SimTime::from_secs(1)).vms.len(), 1);
    }

    /// Asserts that `vm_map` pairs the cluster's live VMs one-to-one
    /// with the serving sim's active VMs: its cluster ids are exactly
    /// the cluster's live set and its sim ids exactly `active_ids()`.
    fn assert_vm_map_bijection(world: &FleetWorld, context: &str) {
        let mapped: Vec<VmId> = world.vm_map.keys().copied().collect();
        let cluster = world.cluster();
        let mut live: Vec<VmId> = (0..cluster.servers().len())
            .flat_map(|h| cluster.vms_on(h))
            .map(|vm| vm.id)
            .collect();
        live.sort();
        assert_eq!(live.len(), cluster.vm_count(), "host index ({context})");
        assert_eq!(mapped, live, "cluster ids ({context})");
        let mut sims: Vec<u64> = world.vm_map.values().copied().collect();
        sims.sort();
        let mut active: Vec<u64> = world.sim().active_ids().iter().map(|&v| v as u64).collect();
        active.sort();
        assert_eq!(sims, active, "sim ids ({context})");
    }

    /// Failure attempts a property run made, and how many of them
    /// re-created at least one VM.
    #[derive(Debug, Default)]
    struct FailureTally {
        fails: usize,
        recreating: usize,
    }

    /// Drives `world` through `steps` random actuations (scale, power,
    /// frequency, failure, repair, migration) and asserts after every
    /// step — sometimes with intervening telemetry reads, sometimes
    /// with several actions batched between reads — that the
    /// incrementally maintained snapshot is bitwise-identical to a
    /// from-scratch recompute, and that `vm_map` stays a bijection
    /// between the cluster's and the sim's live VMs.
    fn check_incremental_matches_recompute(
        mut world: FleetWorld,
        seed: u64,
        steps: usize,
    ) -> FailureTally {
        let mut tally = FailureTally::default();
        use ic_sim::rng::SimRng;
        let mut rng = SimRng::seed_from_u64(seed);
        let mut t = SimTime::ZERO;
        let servers = world.cluster().servers().len();
        for step in 0..steps {
            t += SimDuration::from_secs_f64(rng.uniform_range(0.1, 5.0));
            world.advance_to(t);
            match rng.index(12) {
                0 => {
                    let _ = world.apply(
                        t,
                        "prop",
                        &Action::ScaleOut {
                            latency: SimDuration::from_secs(30),
                            interference: 0.32,
                        },
                    );
                    let _ = world.complete_scale_out(t);
                }
                1 => {
                    let vms: Vec<u64> =
                        world.sim().active_ids().iter().map(|&v| v as u64).collect();
                    if vms.len() > 1 {
                        let vm = vms[rng.index(vms.len())];
                        let _ = world.apply(t, "prop", &Action::ScaleIn { vm });
                    }
                }
                2 => {
                    let ratio = [1.0, 1.05, 1.1, 1.15, 1.2][rng.index(5)];
                    let _ = world.apply(
                        t,
                        "prop",
                        &Action::SetFrequency {
                            target: FreqTarget::Fleet,
                            ratio,
                        },
                    );
                }
                3 => {
                    let domain = rng.index(3) as u64; // includes an unknown id
                    let watts = rng.uniform_range(150.0, 305.0);
                    let _ = world.apply(t, "prop", &Action::GrantPower { domain, watts });
                }
                4 => {
                    let domain = rng.index(3) as u64;
                    let _ = world.apply(t, "prop", &Action::RevokePower { domain });
                }
                5 => {
                    let server = rng.index(servers);
                    let outcome = world.apply(t, "prop", &Action::FailServer { server });
                    tally.fails += 1;
                    if matches!(outcome, Outcome::FailedOver { recreated, .. } if recreated > 0) {
                        tally.recreating += 1;
                    }
                }
                6 => {
                    let server = rng.index(servers);
                    let _ = world.apply(t, "prop", &Action::RepairServer { server });
                }
                7 => {
                    if !world.parked().is_empty() {
                        let vm = world.parked()[rng.index(world.parked().len())];
                        let _ = world.apply(t, "prop", &Action::Migrate { vm });
                    }
                }
                8 => {
                    // Includes an out-of-range server; rejected on
                    // fault-free worlds.
                    let server = rng.index(servers + 1);
                    let count = 1 + rng.index(50) as u64;
                    let _ = world.apply(t, "prop", &Action::InjectErrorBurst { server, count });
                }
                9 => {
                    let until = t + SimDuration::from_secs_f64(rng.uniform_range(0.5, 8.0));
                    let _ = world.apply(t, "prop", &Action::FreezeTelemetry { until });
                }
                10 => {
                    let vm = rng.index(8) as u64;
                    let until = t + SimDuration::from_secs_f64(rng.uniform_range(0.5, 8.0));
                    let _ = world.apply(t, "prop", &Action::DropVmSensor { vm, until });
                }
                _ => {
                    let share = rng.uniform_range(0.5, 1.0);
                    let _ = world.apply(t, "prop", &Action::SetShare { share });
                }
            }
            assert_vm_map_bijection(&world, &format!("step {step}, seed {seed}"));
            // Sometimes skip the read so dirt accumulates across
            // several actuations before the next refresh.
            if rng.index(3) == 0 {
                continue;
            }
            let expect = world.recompute_snapshot(t);
            let got = world.telemetry(t);
            assert_eq!(got, &expect, "divergence at step {step} (seed {seed})");
        }
        let expect = world.recompute_snapshot(t);
        assert_eq!(
            world.telemetry(t),
            &expect,
            "final divergence (seed {seed})"
        );
        tally
    }

    #[test]
    fn grant_store_matches_a_model_map_on_sparse_domain_ids() {
        use ic_sim::rng::SimRng;
        let ids = [5u64, 9, 40, 41];
        let classes = [Priority::Critical, Priority::Batch, Priority::Normal];
        let domains: Vec<DomainSpec> = ids
            .iter()
            .enumerate()
            .map(|(i, &domain)| DomainSpec {
                domain,
                priority: classes[i % 3],
                floor_w: 50.0 + i as f64,
                demand_w: 300.0,
            })
            .collect();
        // Known ids; unknown ids between and past them, including row
        // indexes whose rows hold other ids (0, 1); and the largest id.
        let probes = [0, 1, 5, 6, 9, 40, 41, 42, u64::MAX];
        for seed in [2, 31, 64] {
            let config = FleetConfigBuilder::small(seed)
                .domains(domains.clone())
                .build();
            let mut world = FleetWorld::new(config);
            let mut model: BTreeMap<u64, f64> = BTreeMap::new();
            let mut rng = SimRng::seed_from_u64(seed);
            let t = SimTime::ZERO;
            let mut version = 0;
            for step in 0..400 {
                let domain = probes[rng.index(probes.len())];
                let (action, expect) = if rng.chance(0.6) {
                    let watts = rng.uniform_range(50.0, 300.0);
                    let expect = if ids.contains(&domain) {
                        model.insert(domain, watts);
                        Outcome::PowerGranted { domain, watts }
                    } else {
                        Outcome::Rejected {
                            reason: "unknown power domain",
                        }
                    };
                    (Action::GrantPower { domain, watts }, expect)
                } else {
                    let expect = if model.remove(&domain).is_some() {
                        Outcome::Applied
                    } else {
                        Outcome::Rejected {
                            reason: "no grant to revoke",
                        }
                    };
                    (Action::RevokePower { domain }, expect)
                };
                let context = format!("step {step}, seed {seed}, {action:?}");
                assert_eq!(world.apply(t, "prop", &action), expect, "{context}");
                version += u64::from(expect.accepted());
                // Sometimes skip the reads so several grants move
                // between two derivations of the map.
                if rng.index(3) == 0 {
                    continue;
                }
                assert_eq!(world.grants(), &model, "{context}");
                let expect_snap = world.recompute_snapshot(t);
                let got = world.telemetry(t);
                assert_eq!(got, &expect_snap, "{context}");
                assert_eq!(got.power.as_ref().unwrap().version, version, "{context}");
            }
            assert_eq!(world.grants(), &model, "final (seed {seed})");
        }
    }

    #[test]
    fn vm_map_stays_a_bijection_through_failovers_on_a_large_fleet() {
        // 64 servers under 96 VMs: WorstFit leaves every server hosting
        // one or two, so nearly every failure re-creates VMs.
        for seed in [3, 29] {
            let config = FleetConfigBuilder::small(seed)
                .servers(64)
                .initial_vms(96)
                .faults(FaultConfig::disabled())
                .build();
            let tally = check_incremental_matches_recompute(FleetWorld::new(config), seed, 400);
            assert!(
                tally.recreating * 2 > tally.fails && tally.fails >= 20,
                "too few re-creating failures: {tally:?} (seed {seed})"
            );
        }
    }

    #[test]
    fn incremental_snapshot_matches_recompute_under_random_actuation() {
        for seed in [11, 52, 93] {
            let config = FleetConfigBuilder::small(seed).initial_vms(3).build();
            check_incremental_matches_recompute(FleetWorld::new(config), seed, 120);
        }
    }

    #[test]
    fn incremental_snapshot_matches_recompute_with_physical_power_model() {
        use ic_thermal::fluid::DielectricFluid;
        for seed in [7, 41] {
            let config = FleetConfigBuilder::small(seed)
                .initial_vms(3)
                .power_model(PowerModelSpec {
                    sku: CpuSku::xeon_w3175x(),
                    bins: (0..3)
                        .map(|b| {
                            ThermalInterface::two_phase(
                                DielectricFluid::hfe7000(),
                                0.084 + 0.002 * b as f64,
                                0.0,
                            )
                        })
                        .collect(),
                    base_ghz: 3.4,
                })
                .build();
            let world = FleetWorld::new(config);
            check_incremental_matches_recompute(world, seed, 120);
        }
    }

    #[test]
    fn incremental_snapshot_matches_recompute_with_faults_enabled() {
        for seed in [13, 77] {
            let config = FleetConfigBuilder::small(seed)
                .initial_vms(3)
                .faults(FaultConfig::disabled())
                .build();
            check_incremental_matches_recompute(FleetWorld::new(config), seed, 160);
        }
    }

    #[test]
    fn error_bursts_accumulate_and_are_rejected_without_fault_config() {
        let mut plain = FleetWorld::new(FleetConfigBuilder::small(1).build());
        assert!(!plain
            .apply(
                SimTime::ZERO,
                "chaos",
                &Action::InjectErrorBurst {
                    server: 0,
                    count: 3
                }
            )
            .accepted());
        assert!(plain.telemetry(SimTime::ZERO).faults.is_none());

        let mut world = FleetWorld::new(
            FleetConfigBuilder::small(1)
                .faults(FaultConfig::disabled())
                .build(),
        );
        let t = SimTime::from_secs(1);
        assert!(world
            .apply(
                t,
                "chaos",
                &Action::InjectErrorBurst {
                    server: 2,
                    count: 5
                }
            )
            .accepted());
        assert!(world
            .apply(
                t,
                "chaos",
                &Action::InjectErrorBurst {
                    server: 2,
                    count: 2
                }
            )
            .accepted());
        assert!(!world
            .apply(
                t,
                "chaos",
                &Action::InjectErrorBurst {
                    server: 9,
                    count: 1
                }
            )
            .accepted());
        let faults = world.telemetry(t).faults.clone().expect("fault section");
        assert_eq!(faults.errors_by_server, vec![0, 0, 7, 0]);
        assert_eq!(faults.error_bursts, 2);
        assert_eq!(faults.version, 2);
    }

    #[test]
    fn freeze_telemetry_serves_stale_snapshot_until_thaw() {
        let mut world = FleetWorld::new(
            FleetConfigBuilder::small(3)
                .initial_vms(2)
                .faults(FaultConfig::disabled())
                .build(),
        );
        let t0 = SimTime::from_secs(5);
        world.advance_to(t0);
        assert!(world
            .apply(
                t0,
                "fault",
                &Action::FreezeTelemetry {
                    until: SimTime::from_secs(20)
                }
            )
            .accepted());
        let frozen = world.telemetry(SimTime::from_secs(10)).clone();
        assert_eq!(
            frozen.now,
            SimTime::from_secs(10),
            "the clock stays live; only the content freezes"
        );
        // A scale-in lands on the world but the frozen view hides it.
        let vm = frozen.vms[0].vm;
        assert!(world
            .apply(SimTime::from_secs(12), "asc", &Action::ScaleIn { vm })
            .accepted());
        let still = world.telemetry(SimTime::from_secs(15)).clone();
        assert_eq!(still.vms.len(), 2, "stale telemetry hides the scale-in");
        assert_eq!(
            world.recompute_snapshot(SimTime::from_secs(15)),
            still,
            "recompute honors the freeze contract"
        );
        // Past the thaw instant the live state shows through.
        let live = world.telemetry(SimTime::from_secs(20));
        assert_eq!(live.now, SimTime::from_secs(20));
        assert_eq!(live.vms.len(), 1);
    }

    #[test]
    fn sensor_dropout_hides_vm_rows_until_expiry() {
        let mut world = FleetWorld::new(
            FleetConfigBuilder::small(3)
                .initial_vms(2)
                .faults(FaultConfig::disabled())
                .build(),
        );
        let t = SimTime::from_secs(1);
        let vm = world.telemetry(t).vms[0].vm;
        assert!(world
            .apply(
                t,
                "fault",
                &Action::DropVmSensor {
                    vm,
                    until: SimTime::from_secs(10)
                }
            )
            .accepted());
        let during = world.telemetry(SimTime::from_secs(5));
        assert_eq!(during.vms.len(), 1);
        assert!(during.vm(vm).is_none(), "dropped sensor is invisible");
        let after = world.telemetry(SimTime::from_secs(10));
        assert_eq!(after.vms.len(), 2, "sensor returns at expiry");
    }

    #[test]
    fn downtime_accounting_tracks_fail_and_repair() {
        let mut world = FleetWorld::new(FleetConfigBuilder::small(5).build());
        let horizon = SimTime::from_secs(100);
        assert_eq!(world.downtime_s(horizon), 0.0);
        assert_eq!(world.availability(horizon), 1.0);

        assert!(world
            .apply(
                SimTime::from_secs(10),
                "script",
                &Action::FailServer { server: 1 }
            )
            .accepted());
        // Re-failing an already-failed server must not double-count.
        assert!(world
            .apply(
                SimTime::from_secs(12),
                "script",
                &Action::FailServer { server: 1 }
            )
            .accepted());
        assert_eq!(world.failures_applied(), 1);
        assert!(world
            .apply(
                SimTime::from_secs(40),
                "script",
                &Action::RepairServer { server: 1 }
            )
            .accepted());
        // Repairing a healthy server is a no-op for accounting.
        assert!(world
            .apply(
                SimTime::from_secs(50),
                "script",
                &Action::RepairServer { server: 1 }
            )
            .accepted());
        assert_eq!(world.downtime_s(horizon), 30.0);

        // An interval still open at the horizon settles against it.
        assert!(world
            .apply(
                SimTime::from_secs(80),
                "script",
                &Action::FailServer { server: 0 }
            )
            .accepted());
        assert_eq!(world.downtime_s(horizon), 50.0);
        // 4 servers × 100 s = 400 server-seconds; 50 lost.
        assert!((world.availability(horizon) - 0.875).abs() < 1e-12);
    }
}
