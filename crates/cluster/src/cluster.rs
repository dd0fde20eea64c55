//! The cluster inventory: VM lifecycle, failure handling, and density
//! accounting.

use crate::placement::{Oversubscription, PlacementPolicy};
use crate::server::{Server, ServerSpec};
use crate::vm::{VmId, VmInstance, VmSpec};
use ic_obs::flight::TraceLevel;
use ic_obs::json::Value;
use ic_obs::ObsSinks;
use ic_sim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Why a cluster operation failed.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClusterError {
    /// No server has room for the requested VM.
    InsufficientCapacity,
    /// The VM id is unknown (or already deleted).
    UnknownVm,
    /// The server index is out of range.
    UnknownServer,
}

impl fmt::Display for ClusterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClusterError::InsufficientCapacity => f.write_str("no server has sufficient capacity"),
            ClusterError::UnknownVm => f.write_str("unknown VM id"),
            ClusterError::UnknownServer => f.write_str("unknown server index"),
        }
    }
}

impl std::error::Error for ClusterError {}

/// One VM a failover re-created on a surviving server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Recreated {
    /// The displaced VM's id (no longer live).
    pub old: VmId,
    /// The id the re-created VM lives under.
    pub new: VmId,
    /// The re-created VM's host index.
    pub host: usize,
}

/// The outcome of a server failure: which VMs were re-created and which
/// could not be placed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FailoverReport {
    /// VMs successfully re-created elsewhere, in displacement order.
    pub recreated: Vec<Recreated>,
    /// VMs that found no capacity and are down.
    pub unplaced: Vec<VmId>,
}

/// A fleet of servers and the VMs placed on them.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    servers: Vec<Server>,
    vms: BTreeMap<VmId, VmInstance>,
    /// Live VMs keyed by `(host, id)`, so a failure reads its displaced
    /// VMs off one key range instead of scanning the fleet.
    by_host: BTreeSet<(usize, VmId)>,
    /// Healthy servers keyed by `(free vcores, index)`, so a WorstFit
    /// placement walks down from the top instead of scanning every
    /// server.
    by_free: BTreeSet<(u32, usize)>,
    policy: PlacementPolicy,
    oversub: Oversubscription,
    next_id: u64,
    sinks: ObsSinks,
}

impl Cluster {
    /// Creates a cluster from server shapes.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub fn new(specs: Vec<ServerSpec>, policy: PlacementPolicy, oversub: Oversubscription) -> Self {
        assert!(!specs.is_empty(), "a cluster needs servers");
        let mut cluster = Cluster {
            by_host: BTreeSet::new(),
            by_free: BTreeSet::new(),
            servers: specs.into_iter().map(Server::new).collect(),
            vms: BTreeMap::new(),
            policy,
            oversub,
            next_id: 0,
            sinks: ObsSinks::none(),
        };
        cluster.rebuild_free_index();
        cluster
    }

    /// Attaches the observability bundle: VM lifecycle (create,
    /// delete, failover migration) and server failures/repairs are
    /// recorded as instants on the flight timeline. The cluster has no
    /// clock of its own — every mutating method takes the current
    /// simulation time, which flows from the driving event loop (the
    /// control plane's tick time or the lifecycle queue's `now`).
    pub fn attach_sinks(&mut self, sinks: ObsSinks) {
        self.sinks = sinks;
    }

    /// Emits one cluster event. `fields` runs only when a sink is
    /// attached, so a detached cluster builds no field list and pays
    /// for no trace-only aggregate (such as the packing density).
    pub(crate) fn emit(
        &self,
        now: SimTime,
        level: TraceLevel,
        kind: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, Value)>,
    ) {
        self.sinks.instant(now, "cluster", level, kind, fields);
    }

    /// Records a new placement in the inventory and the host index.
    fn insert_vm(&mut self, spec: VmSpec, host: usize) -> VmId {
        self.update_server(host, |s| s.allocate(spec.vcores(), spec.memory_gb()));
        let id = VmId(self.next_id);
        self.next_id += 1;
        self.vms.insert(id, VmInstance { id, spec, host });
        self.by_host.insert((host, id));
        id
    }

    /// The servers, in index order.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Mutable access to one server (e.g. to set its frequency).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownServer`] if the index is out of
    /// range.
    pub fn server_mut(&mut self, index: usize) -> Result<&mut Server, ClusterError> {
        self.servers
            .get_mut(index)
            .ok_or(ClusterError::UnknownServer)
    }

    /// The active oversubscription setting.
    pub fn oversubscription(&self) -> Oversubscription {
        self.oversub
    }

    /// Changes the oversubscription ratio for *future* placements.
    pub fn set_oversubscription(&mut self, oversub: Oversubscription) {
        self.oversub = oversub;
        self.rebuild_free_index();
    }

    /// A server's key in `by_free`: its free vcores under the current
    /// oversubscription (zero when overcommitted), then its index.
    fn free_key(&self, index: usize) -> (u32, usize) {
        let server = &self.servers[index];
        let capacity = self.oversub.vcore_capacity(server.spec().pcores());
        (capacity.saturating_sub(server.allocated_vcores()), index)
    }

    fn rebuild_free_index(&mut self) {
        self.by_free = (0..self.servers.len())
            .filter(|&i| !self.servers[i].is_failed())
            .map(|i| self.free_key(i))
            .collect();
    }

    /// Applies `change` to one server and re-keys it in `by_free`.
    fn update_server(&mut self, index: usize, change: impl FnOnce(&mut Server)) {
        self.by_free.remove(&self.free_key(index));
        change(&mut self.servers[index]);
        if !self.servers[index].is_failed() {
            self.by_free.insert(self.free_key(index));
        }
    }

    /// The host the placement policy picks for `spec`, if any. WorstFit
    /// is answered from `by_free`: descending `(free, index)` order
    /// visits the most-free server first and, among equals, the highest
    /// index — the server [`PlacementPolicy::choose`] picks by scanning.
    fn choose_host(&self, spec: VmSpec) -> Option<usize> {
        let (vcores, memory_gb) = (spec.vcores(), spec.memory_gb());
        if self.policy != PlacementPolicy::WorstFit {
            return self
                .policy
                .choose(&self.servers, vcores, memory_gb, self.oversub);
        }
        self.by_free
            .iter()
            .rev()
            .take_while(|&&(free, _)| free >= vcores)
            .map(|&(_, i)| i)
            .find(|&i| {
                let server = &self.servers[i];
                server.fits(
                    vcores,
                    memory_gb,
                    self.oversub.vcore_capacity(server.spec().pcores()),
                )
            })
    }

    /// Places a VM at simulation time `now` (stamped onto the emitted
    /// lifecycle event).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::InsufficientCapacity`] if no healthy
    /// server can host it.
    pub fn create_vm(&mut self, now: SimTime, spec: VmSpec) -> Result<VmId, ClusterError> {
        let Some(host) = self.choose_host(spec) else {
            self.emit(now, TraceLevel::Warn, "vm_reject", || {
                vec![
                    ("vcores", Value::U64(spec.vcores() as u64)),
                    ("memory_gb", Value::F64(spec.memory_gb())),
                    ("density", Value::F64(self.packing_density())),
                ]
            });
            return Err(ClusterError::InsufficientCapacity);
        };
        let id = self.insert_vm(spec, host);
        self.emit(now, TraceLevel::Info, "vm_create", || {
            vec![
                ("vm", Value::U64(id.0)),
                ("host", Value::U64(host as u64)),
                ("vcores", Value::U64(spec.vcores() as u64)),
                ("memory_gb", Value::F64(spec.memory_gb())),
                ("density", Value::F64(self.packing_density())),
            ]
        });
        Ok(id)
    }

    /// Deletes a VM and releases its resources.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownVm`] if the id is not live.
    pub fn delete_vm(&mut self, now: SimTime, id: VmId) -> Result<(), ClusterError> {
        let vm = self.vms.remove(&id).ok_or(ClusterError::UnknownVm)?;
        self.by_host.remove(&(vm.host, id));
        // The host may have failed since placement; failed servers have
        // already zeroed their allocations.
        if !self.servers[vm.host].is_failed() {
            self.update_server(vm.host, |s| {
                s.release(vm.spec.vcores(), vm.spec.memory_gb())
            });
        }
        self.emit(now, TraceLevel::Debug, "vm_delete", || {
            vec![
                ("vm", Value::U64(id.0)),
                ("host", Value::U64(vm.host as u64)),
                ("density", Value::F64(self.packing_density())),
            ]
        });
        Ok(())
    }

    /// A VM's current placement.
    pub fn vm(&self, id: VmId) -> Option<&VmInstance> {
        self.vms.get(&id)
    }

    /// The number of live VMs.
    pub fn vm_count(&self) -> usize {
        self.vms.len()
    }

    /// The ids of the live VMs on a server, ascending.
    fn ids_on(&self, host: usize) -> impl Iterator<Item = VmId> + '_ {
        self.by_host
            .range((host, VmId(0))..=(host, VmId(u64::MAX)))
            .map(|&(_, id)| id)
    }

    /// All live VMs hosted on a server, in id order.
    pub fn vms_on(&self, host: usize) -> Vec<&VmInstance> {
        self.ids_on(host).map(|id| &self.vms[&id]).collect()
    }

    /// Fails a server and re-creates its VMs elsewhere (the paper's
    /// buffer scenario, Figure 6). VMs that cannot be placed are
    /// reported and removed.
    ///
    /// Costs one placement decision per displaced VM (O(log servers)
    /// under WorstFit, a scan under the other policies): the displaced
    /// set comes from the per-host index, and the report names each
    /// re-created VM's new id, so callers never rescan the fleet.
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownServer`] if the index is out of
    /// range.
    pub fn fail_server(
        &mut self,
        now: SimTime,
        index: usize,
    ) -> Result<FailoverReport, ClusterError> {
        if index >= self.servers.len() {
            return Err(ClusterError::UnknownServer);
        }
        self.update_server(index, Server::fail);
        let displaced: Vec<VmId> = self.ids_on(index).collect();
        self.emit(now, TraceLevel::Warn, "server_fail", || {
            vec![
                ("server", Value::U64(index as u64)),
                ("displaced_vms", Value::U64(displaced.len() as u64)),
            ]
        });
        let mut report = FailoverReport {
            recreated: Vec::with_capacity(displaced.len()),
            unplaced: Vec::new(),
        };
        for old in displaced {
            self.by_host.remove(&(index, old));
            let spec = self
                .vms
                .remove(&old)
                .expect("the host index lists live VMs only")
                .spec;
            match self.choose_host(spec) {
                Some(host) => {
                    let new = self.insert_vm(spec, host);
                    self.emit(now, TraceLevel::Info, "vm_migrate", || {
                        vec![
                            ("vm", Value::U64(old.0)),
                            ("from", Value::U64(index as u64)),
                            ("to", Value::U64(host as u64)),
                            ("new_vm", Value::U64(new.0)),
                        ]
                    });
                    report.recreated.push(Recreated { old, new, host });
                }
                None => {
                    self.emit(now, TraceLevel::Warn, "vm_unplaced", || {
                        vec![
                            ("vm", Value::U64(old.0)),
                            ("from", Value::U64(index as u64)),
                            ("vcores", Value::U64(spec.vcores() as u64)),
                        ]
                    });
                    report.unplaced.push(old);
                }
            }
        }
        Ok(report)
    }

    /// Repairs a failed server, returning it to service empty.
    /// Repairing a healthy server is a no-op (its live allocations must
    /// not be clobbered).
    ///
    /// # Errors
    ///
    /// Returns [`ClusterError::UnknownServer`] if the index is out of
    /// range.
    pub fn repair_server(&mut self, now: SimTime, index: usize) -> Result<(), ClusterError> {
        if index >= self.servers.len() {
            return Err(ClusterError::UnknownServer);
        }
        if !self.servers[index].is_failed() {
            return Ok(());
        }
        self.update_server(index, Server::repair);
        self.emit(now, TraceLevel::Info, "server_repair", || {
            vec![("server", Value::U64(index as u64))]
        });
        Ok(())
    }

    /// Total pcores across healthy servers.
    pub fn healthy_pcores(&self) -> u32 {
        self.servers
            .iter()
            .filter(|s| !s.is_failed())
            .map(|s| s.spec().pcores())
            .sum()
    }

    /// Total allocated vcores.
    pub fn allocated_vcores(&self) -> u32 {
        self.vms.values().map(|vm| vm.spec.vcores()).sum()
    }

    /// Packing density: allocated vcores per healthy pcore. Exceeds 1.0
    /// only under oversubscription.
    pub fn packing_density(&self) -> f64 {
        let pcores = self.healthy_pcores();
        if pcores == 0 {
            0.0
        } else {
            self.allocated_vcores() as f64 / pcores as f64
        }
    }

    /// Packs as many copies of `spec` as fit, returning the created ids —
    /// the primitive behind the capacity-crisis experiments.
    pub fn fill_with(&mut self, now: SimTime, spec: VmSpec) -> Vec<VmId> {
        let mut out = Vec::new();
        while let Ok(id) = self.create_vm(now, spec) {
            out.push(id);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_power::units::Frequency;

    fn cluster(n: usize, pcores: u32, oversub: f64) -> Cluster {
        Cluster::new(
            vec![
                ServerSpec::custom(
                    pcores,
                    128.0,
                    Frequency::from_ghz(2.7),
                    Frequency::from_ghz(3.3),
                );
                n
            ],
            PlacementPolicy::FirstFit,
            if oversub > 1.0 {
                Oversubscription::ratio(oversub)
            } else {
                Oversubscription::none()
            },
        )
    }

    #[test]
    fn create_and_delete_round_trip() {
        let mut c = cluster(2, 16, 1.0);
        let id = c.create_vm(SimTime::ZERO, VmSpec::new(4, 16.0)).unwrap();
        assert_eq!(c.vm_count(), 1);
        assert_eq!(c.allocated_vcores(), 4);
        c.delete_vm(SimTime::ZERO, id).unwrap();
        assert_eq!(c.vm_count(), 0);
        assert_eq!(c.allocated_vcores(), 0);
        assert_eq!(c.delete_vm(SimTime::ZERO, id), Err(ClusterError::UnknownVm));
    }

    #[test]
    fn capacity_enforced_without_oversubscription() {
        let mut c = cluster(1, 16, 1.0);
        assert!(c.create_vm(SimTime::ZERO, VmSpec::new(16, 16.0)).is_ok());
        assert_eq!(
            c.create_vm(SimTime::ZERO, VmSpec::new(1, 1.0)),
            Err(ClusterError::InsufficientCapacity)
        );
    }

    #[test]
    fn oversubscription_adds_20_pct_density() {
        // The paper's headline: overclocking-backed oversubscription
        // raises packing density by 20 %.
        let mut base = cluster(4, 20, 1.0);
        let mut dense = cluster(4, 20, 1.2);
        let spec = VmSpec::new(4, 8.0);
        let n_base = base.fill_with(SimTime::ZERO, spec).len();
        let n_dense = dense.fill_with(SimTime::ZERO, spec).len();
        assert_eq!(n_base, 20); // 5 VMs per 20-pcore server
        assert_eq!(n_dense, 24); // 24 vcores per server → 6 VMs: +20 %
        assert!((dense.packing_density() - 1.2).abs() < 1e-9);
        assert_eq!(base.packing_density(), 1.0);
    }

    #[test]
    fn failover_recreates_on_surviving_servers() {
        let mut c = cluster(3, 16, 1.0);
        let spec = VmSpec::new(8, 16.0);
        for _ in 0..4 {
            c.create_vm(SimTime::ZERO, spec).unwrap();
        }
        // Two VMs per... FirstFit: server0 holds 2, server1 holds 2.
        let report = c.fail_server(SimTime::ZERO, 0).unwrap();
        assert_eq!(report.recreated.len(), 2);
        assert!(report.unplaced.is_empty());
        assert_eq!(c.vm_count(), 4);
        assert!(c.vms_on(0).is_empty());
    }

    #[test]
    fn failover_report_names_live_new_ids_on_their_hosts() {
        // Three 16-core servers of four 4-vcore VMs each (FirstFit):
        // failing server 0 displaces four VMs, two of which fit on
        // server 2's free half.
        let mut c = cluster(3, 16, 1.0);
        for _ in 0..10 {
            c.create_vm(SimTime::ZERO, VmSpec::new(4, 16.0)).unwrap();
        }
        let displaced: Vec<VmId> = c.vms_on(0).iter().map(|vm| vm.id).collect();
        assert_eq!(displaced.len(), 4);
        let report = c.fail_server(SimTime::ZERO, 0).unwrap();
        assert_eq!(report.recreated.len(), 2);
        assert_eq!(report.unplaced.len(), 2);
        let mut reported: Vec<VmId> = report
            .recreated
            .iter()
            .map(|r| r.old)
            .chain(report.unplaced.iter().copied())
            .collect();
        reported.sort();
        assert_eq!(reported, displaced, "every displaced VM is accounted for");
        for r in &report.recreated {
            assert!(c.vm(r.old).is_none(), "old id {:?} is gone", r.old);
            let vm = c.vm(r.new).expect("new id is live");
            assert_eq!(vm.host, r.host);
            assert_ne!(r.host, 0, "never re-placed on the failed server");
            assert!(c.vms_on(r.host).iter().any(|v| v.id == r.new));
            assert!(!displaced.contains(&r.new), "new ids are fresh");
        }
        for id in &report.unplaced {
            assert!(c.vm(*id).is_none(), "unplaced id {id:?} is gone");
        }
        assert_eq!(c.vm_count(), 8);
        assert!(c.vms_on(0).is_empty());
    }

    #[test]
    fn indexed_worst_fit_matches_the_scanning_policy() {
        use ic_sim::rng::SimRng;
        // Mixed shapes so free-vcore ties, memory-bound servers and
        // overcommitted servers (after a ratio cut) all occur.
        let specs: Vec<ServerSpec> = (0..12)
            .map(|i| {
                ServerSpec::custom(
                    [8, 16, 24][i % 3],
                    [32.0, 64.0, 128.0, 48.0][i % 4],
                    Frequency::from_ghz(2.7),
                    Frequency::from_ghz(3.3),
                )
            })
            .collect();
        let mut c = Cluster::new(
            specs,
            PlacementPolicy::WorstFit,
            Oversubscription::ratio(1.25),
        );
        let mut rng = SimRng::seed_from_u64(17);
        let mut live: Vec<VmId> = Vec::new();
        for step in 0..3000 {
            match rng.index(8) {
                0..=3 => {
                    let spec = VmSpec::new(1 + rng.index(8) as u32, rng.uniform_range(1.0, 40.0));
                    let expect = PlacementPolicy::WorstFit.choose(
                        c.servers(),
                        spec.vcores(),
                        spec.memory_gb(),
                        c.oversubscription(),
                    );
                    assert_eq!(c.choose_host(spec), expect, "step {step}");
                    if let Ok(id) = c.create_vm(SimTime::ZERO, spec) {
                        assert_eq!(Some(c.vm(id).unwrap().host), expect);
                        live.push(id);
                    }
                }
                4 if !live.is_empty() => {
                    let id = live.swap_remove(rng.index(live.len()));
                    c.delete_vm(SimTime::ZERO, id).unwrap();
                }
                5 => {
                    let report = c.fail_server(SimTime::ZERO, rng.index(12)).unwrap();
                    live.retain(|id| c.vm(*id).is_some());
                    live.extend(report.recreated.iter().map(|r| r.new));
                }
                6 => c.repair_server(SimTime::ZERO, rng.index(12)).unwrap(),
                _ => {
                    c.set_oversubscription(Oversubscription::ratio([1.0, 1.1, 1.25][rng.index(3)]))
                }
            }
        }
        assert_eq!(live.len(), c.vm_count());
    }

    #[test]
    fn failover_reports_unplaced_when_full() {
        let mut c = cluster(2, 16, 1.0);
        let spec = VmSpec::new(16, 16.0);
        c.create_vm(SimTime::ZERO, spec).unwrap();
        c.create_vm(SimTime::ZERO, spec).unwrap();
        let report = c.fail_server(SimTime::ZERO, 0).unwrap();
        assert_eq!(report.recreated.len(), 0);
        assert_eq!(report.unplaced.len(), 1);
        assert_eq!(c.vm_count(), 1);
    }

    #[test]
    fn repair_restores_capacity() {
        let mut c = cluster(2, 16, 1.0);
        c.fail_server(SimTime::ZERO, 0).unwrap();
        assert_eq!(c.healthy_pcores(), 16);
        c.repair_server(SimTime::ZERO, 0).unwrap();
        assert_eq!(c.healthy_pcores(), 32);
        assert!(c.create_vm(SimTime::ZERO, VmSpec::new(16, 1.0)).is_ok());
    }

    #[test]
    fn delete_vm_on_failed_host_is_safe() {
        let mut c = cluster(2, 16, 1.0);
        let a = c.create_vm(SimTime::ZERO, VmSpec::new(16, 16.0)).unwrap();
        let b = c.create_vm(SimTime::ZERO, VmSpec::new(16, 16.0)).unwrap();
        // Fill the cluster so failover cannot re-place.
        let report = c
            .fail_server(SimTime::ZERO, c.vm(a).map(|v| v.host).unwrap_or(0))
            .unwrap();
        assert_eq!(report.unplaced.len(), 1);
        // The surviving VM deletes cleanly.
        let survivor = if c.vm(a).is_some() { a } else { b };
        assert!(c.delete_vm(SimTime::ZERO, survivor).is_ok());
    }

    #[test]
    fn unknown_server_errors() {
        let mut c = cluster(1, 8, 1.0);
        assert_eq!(
            c.fail_server(SimTime::ZERO, 5),
            Err(ClusterError::UnknownServer)
        );
        assert_eq!(
            c.repair_server(SimTime::ZERO, 5),
            Err(ClusterError::UnknownServer)
        );
        assert!(c.server_mut(5).is_err());
    }

    #[test]
    fn traced_cluster_emits_lifecycle_events() {
        use ic_obs::flight::{shared_flight, SpanKind, TraceLevel};

        let flight = shared_flight(64);
        let mut c = cluster(2, 16, 1.0);
        c.attach_sinks(ObsSinks::none().with_flight(flight.clone()));
        let t10 = SimTime::from_secs(10);
        let a = c.create_vm(t10, VmSpec::new(16, 16.0)).unwrap();
        let _b = c.create_vm(t10, VmSpec::new(16, 16.0)).unwrap();
        // Cluster is full: the next create is rejected at Warn level.
        assert!(c.create_vm(t10, VmSpec::new(1, 1.0)).is_err());
        // Failing a full host leaves its VM unplaced.
        let t20 = SimTime::from_secs(20);
        let host = c.vm(a).unwrap().host;
        c.fail_server(t20, host).unwrap();
        c.repair_server(t20, host).unwrap();
        let survivor = c.vms_on(1 - host)[0].id;
        c.delete_vm(SimTime::from_secs(30), survivor).unwrap();

        let rec = flight.borrow();
        let counts = rec.counts_by_kind();
        assert_eq!(counts[&("cluster", "vm_create")], 2);
        assert_eq!(counts[&("cluster", "vm_reject")], 1);
        assert_eq!(counts[&("cluster", "server_fail")], 1);
        assert_eq!(counts[&("cluster", "vm_unplaced")], 1);
        assert_eq!(counts[&("cluster", "server_repair")], 1);
        assert_eq!(counts[&("cluster", "vm_delete")], 1);
        // Every cluster event is a zero-duration instant.
        assert!(rec.spans().all(|s| s.kind == SpanKind::Instant));
        // Rejections and failures are anomalies: Warn level.
        assert!(rec
            .spans()
            .filter(|s| s.name == "vm_reject" || s.name == "server_fail")
            .all(|s| s.level == TraceLevel::Warn));
        // Timestamps come from the driver-maintained clock.
        let delete = rec.spans().find(|s| s.name == "vm_delete").unwrap();
        assert_eq!(delete.start, SimTime::from_secs(30));
        assert!(rec.spans().any(|s| s.start == SimTime::from_secs(20)));
    }

    #[test]
    fn error_display() {
        assert_eq!(
            ClusterError::InsufficientCapacity.to_string(),
            "no server has sufficient capacity"
        );
    }
}
