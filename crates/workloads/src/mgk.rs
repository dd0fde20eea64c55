//! The executable Client-Server application: an M/G/k queue running on
//! its own typed discrete-event loop.
//!
//! This is the workload of the paper's auto-scaling study (Section VI-D):
//! "client request arrivals are Markovian, the service times follow a
//! General distribution, and there are k servers (i.e., VMs)". Clients
//! send requests to a round-robin load balancer; each server VM runs
//! them on its virtual cores; completed requests record their sojourn
//! latency. The controlling system (the auto-scaler, or a test) owns the
//! clock: it calls [`ClientServerSim::advance_to`], then reads VM
//! telemetry (Aperf/Pperf counter samples, utilization) and issues
//! actions (add/remove VMs, change frequency ratios) exactly as the
//! paper's ASC does every 3 seconds.
//!
//! The queue schedules exactly two event shapes — the one pending
//! arrival and request completions — so it keeps them apart instead of
//! in one [`ic_sim::queue::EventQueue`]: an `Option` slot for the
//! arrival and a binary min-heap of completions carrying their
//! in-flight slot index. Both are keyed `(at, seq)` with `seq` bumped at
//! every schedule, so events run in exactly the order one
//! `EventQueue` would give them (time, ties by scheduling order), and
//! the arrival never pays a heap sift.

use ic_sim::dist::{DistKind, DrawBuffer, LogNormal};
use ic_sim::observe::{EngineObserver, EventRecord, UNLABELED_EVENT};
use ic_sim::rng::{SimRng, StreamVersion};
use ic_sim::time::{SimDuration, SimTime};
use ic_telemetry::counters::{CoreCounters, CounterSample};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// Identifies a VM within the simulation.
pub type VmId = usize;

/// The reference core frequency in Hz that a frequency ratio of 1.0
/// corresponds to (config B2, 3.4 GHz).
pub const BASE_FREQ_HZ: f64 = 3.4e9;

#[derive(Debug)]
struct VmState {
    vcores: u32,
    /// Service-speed multiplier from frequency scaling (1.0 = B2).
    freq_ratio: f64,
    /// Service-speed multiplier from pcore oversubscription share.
    share: f64,
    /// Fraction of active cycles stalled (from the app profile).
    stall_fraction: f64,
    queue: VecDeque<Arrival>,
    busy: u32,
    counters: CoreCounters,
    active: bool,
    /// Completions recorded by this VM (for VM×hours style accounting).
    completed: u64,
}

#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: SimTime,
    /// Service demand in seconds at frequency ratio 1.0 and full share.
    demand_s: f64,
}

/// Everything a request completion needs, parked in the in-flight slab
/// so the completion event only has to carry a slot index.
#[derive(Debug, Clone, Copy)]
struct InFlight {
    vm_id: VmId,
    /// Scaled service time actually spent on the core, seconds.
    service_s: f64,
    arrival_at: SimTime,
    freq_hz: f64,
    stall: f64,
}

/// The firing time and scheduling sequence number of a pending event.
/// `seq` is unique, so `(at, seq)` totally orders the queue: time first,
/// ties by scheduling order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Key {
    at: SimTime,
    seq: u64,
}

/// A scheduled request completion. Keys are unique, so the slot never
/// decides the order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Completion {
    key: Key,
    /// Index into [`Inner::inflight`].
    slot: u32,
}

/// The arrival/service variate source — the hottest sampling site in
/// the workspace (two draws per request, millions of requests per
/// simulated run).
#[derive(Debug)]
enum Samplers {
    /// v1: one shared generator; service and inter-arrival draws
    /// interleave on it in event order, exactly as every pre-versioning
    /// record was produced.
    V1 { rng: SimRng, service: DistKind },
    /// v2: each draw family owns a dedicated buffered stream (derived
    /// by forking the seed root, so construction is deterministic).
    /// Refills run the ziggurat in tight batches; consumption order no
    /// longer affects the values either family produces.
    V2 {
        /// Unit-mean standard-exponential gaps, scaled by `1/qps` at
        /// consumption so load changes never invalidate the buffer.
        gap: DrawBuffer,
        /// Fully transformed service demands (seconds at ratio 1.0).
        demand: DrawBuffer,
    },
}

impl Samplers {
    fn new(seed: u64, service: DistKind, version: StreamVersion) -> Self {
        match version {
            StreamVersion::V1 => Samplers::V1 {
                rng: SimRng::seed_from_u64(seed),
                service,
            },
            StreamVersion::V2 => {
                let mut root = SimRng::seed_versioned(seed, StreamVersion::V2);
                let gap_rng = root.fork();
                let demand_rng = root.fork();
                Samplers::V2 {
                    gap: DrawBuffer::new(DistKind::Exponential { mean: 1.0 }, gap_rng),
                    demand: DrawBuffer::new(service, demand_rng),
                }
            }
        }
    }

    /// One service demand, in seconds at frequency ratio 1.0.
    #[inline]
    fn demand_s(&mut self) -> f64 {
        match self {
            Samplers::V1 { rng, service } => service.sample(rng),
            Samplers::V2 { demand, .. } => demand.next(),
        }
    }

    #[inline]
    fn version(&self) -> StreamVersion {
        match self {
            Samplers::V1 { .. } => StreamVersion::V1,
            Samplers::V2 { .. } => StreamVersion::V2,
        }
    }
}

/// Nanosecond conversion for v2-scheduled delays.
///
/// v2 event times are *defined* by this mapping: a truncating cast with
/// debug-only range checks, which stays on the CPU where the v1 path's
/// round-to-nearest (`SimDuration::from_secs_f64`) is a libm call on
/// baseline x86-64 — worth several ns on every arrival and dispatch.
/// v1 keeps `from_secs_f64` untouched, so every historical event time
/// is preserved.
#[inline]
fn dur_v2(secs: f64) -> SimDuration {
    debug_assert!(secs.is_finite() && secs >= 0.0, "bad v2 delay {secs}");
    SimDuration::from_nanos((secs * 1e9) as u64)
}

#[derive(Debug)]
struct Inner {
    /// The simulation clock.
    now: SimTime,
    /// Next scheduling sequence number (the `(at, seq)` tie-breaker).
    seq: u64,
    /// The one pending arrival, if the arrival chain is live.
    arrival: Option<Key>,
    /// Pending completions, earliest `(at, seq)` on top.
    completions: BinaryHeap<Reverse<Completion>>,
    /// Events executed so far.
    processed: u64,
    samplers: Samplers,
    qps: f64,
    /// `1.0 / qps` (0 when idle), maintained by `set_qps` so the v2
    /// arrival path multiplies instead of divides.
    inv_qps: f64,
    vms: Vec<VmState>,
    /// Ids of active VMs in ascending order — maintained on add/remove so
    /// the per-arrival router never rebuilds (or allocates) the list.
    active_ids: Vec<VmId>,
    rr_next: usize,
    completed: Vec<(SimTime, f64)>,
    dropped: u64,
    vcores_per_vm: u32,
    default_stall_fraction: f64,
    /// Slab of dispatched-but-not-completed requests, indexed by the slot
    /// each completion carries.
    inflight: Vec<InFlight>,
    /// Recycled `inflight` slots; bounded by the peak number of busy
    /// cores, so the slab stops growing once the system reaches steady
    /// state.
    free_slots: Vec<u32>,
}

impl Inner {
    /// The key of an event scheduled `delay` from now.
    #[inline]
    fn next_key(&mut self, delay: SimDuration) -> Key {
        let seq = self.seq;
        self.seq += 1;
        Key {
            at: self.now + delay,
            seq,
        }
    }

    /// Events pending in the queue.
    #[inline]
    fn pending(&self) -> usize {
        self.completions.len() + self.arrival.is_some() as usize
    }

    fn route(&mut self) -> Option<VmId> {
        let active = &self.active_ids;
        if active.is_empty() {
            return None;
        }
        let n = active.len();
        // `rr_next` stays `< n` across routes (the wrap below re-derives
        // `(rr_next + 1) % n` exactly); only a VM removal can strand it
        // at/above `n`, so the two hot-path integer divisions reduce to
        // predictable branches without changing the routing sequence.
        let mut pos = self.rr_next;
        if pos >= n {
            pos %= n;
        }
        let id = active[pos];
        self.rr_next = if pos + 1 == n { 0 } else { pos + 1 };
        Some(id)
    }
}

/// The Client-Server M/G/k simulation.
///
/// # Example
///
/// ```
/// use ic_workloads::mgk::ClientServerSim;
/// use ic_sim::time::SimTime;
///
/// let mut sim = ClientServerSim::new(42, 0.0028, 1.5, 4, 0.15);
/// let vm = sim.add_vm();
/// sim.set_qps(500.0);
/// sim.advance_to(SimTime::from_secs(30));
/// let util = sim.utilization_since(vm, &sim.sample(vm));
/// assert_eq!(util, 0.0); // a fresh sample spans no time
/// assert!(sim.completed_requests() > 10_000);
/// ```
pub struct ClientServerSim {
    inner: Inner,
    observer: Option<Box<dyn EngineObserver>>,
}

impl fmt::Debug for ClientServerSim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClientServerSim")
            .field("inner", &self.inner)
            .field("observed", &self.observer.is_some())
            .finish()
    }
}

impl ClientServerSim {
    /// Creates a simulation.
    ///
    /// * `seed` — RNG seed (identical seeds replay identical arrivals).
    /// * `service_mean_s` — mean per-request core demand at frequency
    ///   ratio 1.0 (config B2), seconds.
    /// * `service_scv` — squared coefficient of variation of the service
    ///   law (lognormal).
    /// * `vcores_per_vm` — virtual cores per server VM (the paper's
    ///   Client-Server app uses 4).
    /// * `stall_fraction` — share of active cycles stalled, for the
    ///   Aperf/Pperf counters (the Client-Server profile is ~0.1).
    ///
    /// # Panics
    ///
    /// Panics if the service parameters are non-positive or
    /// `vcores_per_vm` is zero.
    pub fn new(
        seed: u64,
        service_mean_s: f64,
        service_scv: f64,
        vcores_per_vm: u32,
        stall_fraction: f64,
    ) -> Self {
        ClientServerSim::with_stream_version(
            seed,
            service_mean_s,
            service_scv,
            vcores_per_vm,
            stall_fraction,
            StreamVersion::V1,
        )
    }

    /// [`new`](Self::new) with an explicit sampler stream version.
    ///
    /// [`StreamVersion::V1`] replays the historical value sequence
    /// byte-for-byte; [`StreamVersion::V2`] draws from dedicated
    /// buffered ziggurat streams — a different (still seed-
    /// deterministic) sequence that samples several times faster.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`new`](Self::new).
    pub fn with_stream_version(
        seed: u64,
        service_mean_s: f64,
        service_scv: f64,
        vcores_per_vm: u32,
        stall_fraction: f64,
        version: StreamVersion,
    ) -> Self {
        assert!(vcores_per_vm > 0, "VMs need at least one vcore");
        let service = DistKind::from(LogNormal::with_mean_scv(service_mean_s, service_scv));
        ClientServerSim {
            observer: None,
            inner: Inner {
                now: SimTime::ZERO,
                seq: 0,
                arrival: None,
                completions: BinaryHeap::new(),
                processed: 0,
                samplers: Samplers::new(seed, service, version),
                qps: 0.0,
                inv_qps: 0.0,
                vms: Vec::new(),
                active_ids: Vec::new(),
                rr_next: 0,
                completed: Vec::new(),
                dropped: 0,
                vcores_per_vm,
                default_stall_fraction: stall_fraction.clamp(0.0, 1.0),
                inflight: Vec::new(),
                free_slots: Vec::new(),
            },
        }
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.inner.now
    }

    /// Discrete events (arrivals and completions) executed so far — the
    /// cost figure experiment reports cite alongside their results.
    pub fn events_processed(&self) -> u64 {
        self.inner.processed
    }

    /// Events stored as boxed closures: always 0, because the typed
    /// event queue stores no closures.
    pub fn boxed_events(&self) -> u64 {
        0
    }

    /// Attaches an observer (see [`ic_sim::observe::EngineObserver`])
    /// that receives one record per executed simulation event, after
    /// its handler ran: kind `"event"`, queue depth counting the pending
    /// arrival and completions. Replaces any previous observer.
    pub fn set_observer(&mut self, observer: Box<dyn EngineObserver>) {
        self.observer = Some(observer);
    }

    /// Adds a server VM, immediately active. (Model VM-creation latency
    /// by calling this when the creation completes.)
    pub fn add_vm(&mut self) -> VmId {
        let id = self.inner.vms.len();
        self.inner.vms.push(VmState {
            vcores: self.inner.vcores_per_vm,
            freq_ratio: 1.0,
            share: 1.0,
            stall_fraction: self.inner.default_stall_fraction,
            queue: VecDeque::new(),
            busy: 0,
            counters: CoreCounters::new(),
            active: true,
            completed: 0,
        });
        self.inner.active_ids.push(id);
        id
    }

    /// Deactivates a VM: it stops receiving new requests and drains its
    /// queue. Returns `false` if the VM was already inactive.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a valid VM.
    pub fn remove_vm(&mut self, id: VmId) -> bool {
        let was_active = self.inner.vms[id].active;
        self.inner.vms[id].active = false;
        if was_active {
            // `active_ids` is ascending, so the slot is found by binary
            // search; removal preserves the order.
            let pos = self
                .inner
                .active_ids
                .binary_search(&id)
                .expect("active VM is in the routing list");
            self.inner.active_ids.remove(pos);
        }
        was_active
    }

    /// The ids of currently active VMs, ascending.
    pub fn active_vms(&self) -> Vec<VmId> {
        self.inner.active_ids.clone()
    }

    /// The ids of currently active VMs, ascending, without copying —
    /// the allocation-free counterpart of [`active_vms`]
    /// (telemetry assembly reads this every control tick).
    ///
    /// [`active_vms`]: Self::active_vms
    pub fn active_ids(&self) -> &[VmId] {
        &self.inner.active_ids
    }

    /// Sets every active VM's frequency ratio in one pass — the
    /// fleet-wide actuation path, equivalent to calling
    /// [`set_freq_ratio`](Self::set_freq_ratio) per active VM but
    /// without materializing the id list.
    ///
    /// # Panics
    ///
    /// Panics if the ratio is not strictly positive.
    pub fn set_freq_ratio_all(&mut self, ratio: f64) {
        assert!(ratio > 0.0 && ratio.is_finite(), "invalid ratio {ratio}");
        let inner = &mut self.inner;
        for i in 0..inner.active_ids.len() {
            let id = inner.active_ids[i];
            inner.vms[id].freq_ratio = ratio;
        }
    }

    /// Sets every active VM's pcore share in one pass (see
    /// [`set_share`](Self::set_share)).
    ///
    /// # Panics
    ///
    /// Panics if the share is outside `(0, 1]`.
    pub fn set_share_all(&mut self, share: f64) {
        assert!(share > 0.0 && share <= 1.0, "invalid share {share}");
        let inner = &mut self.inner;
        for i in 0..inner.active_ids.len() {
            let id = inner.active_ids[i];
            inner.vms[id].share = share;
        }
    }

    /// Sets the client load in queries per second. `0.0` stops arrivals.
    ///
    /// # Panics
    ///
    /// Panics if `qps` is negative or non-finite.
    pub fn set_qps(&mut self, qps: f64) {
        assert!(qps.is_finite() && qps >= 0.0, "invalid QPS {qps}");
        let inner = &mut self.inner;
        inner.qps = qps;
        inner.inv_qps = if qps > 0.0 { 1.0 / qps } else { 0.0 };
        // A pending arrival keeps the chain alive (it re-reads the load
        // when it fires), so only a retired chain restarts here.
        if qps > 0.0 && inner.arrival.is_none() {
            let delay = next_interarrival(&mut inner.samplers, qps, inner.inv_qps);
            inner.arrival = Some(inner.next_key(delay));
        }
    }

    /// Sets a VM's frequency ratio (service-speed multiplier vs B2).
    /// Takes effect for requests dispatched after the call — frequency
    /// transitions take tens of µs on real hardware \[43\], far below the
    /// 3 s control period.
    ///
    /// # Panics
    ///
    /// Panics if the ratio is not strictly positive or `id` is invalid.
    pub fn set_freq_ratio(&mut self, id: VmId, ratio: f64) {
        assert!(ratio > 0.0 && ratio.is_finite(), "invalid ratio {ratio}");
        self.inner.vms[id].freq_ratio = ratio;
    }

    /// A VM's current frequency ratio.
    pub fn freq_ratio(&self, id: VmId) -> f64 {
        self.inner.vms[id].freq_ratio
    }

    /// Sets a VM's pcore share (oversubscription slowdown), in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the share is outside `(0, 1]`.
    pub fn set_share(&mut self, id: VmId, share: f64) {
        assert!(share > 0.0 && share <= 1.0, "invalid share {share}");
        self.inner.vms[id].share = share;
    }

    /// Runs every event at or before `t` in `(at, seq)` order, then
    /// moves the clock to `t` (if later).
    pub fn advance_to(&mut self, t: SimTime) {
        let inner = &mut self.inner;
        loop {
            let completion = inner.completions.peek().map(|c| c.0.key);
            let (next, is_arrival) = match (inner.arrival, completion) {
                (Some(a), Some(c)) if a < c => (a, true),
                (_, Some(c)) => (c, false),
                (Some(a), None) => (a, true),
                (None, None) => break,
            };
            if next.at > t {
                break;
            }
            inner.now = next.at;
            if is_arrival {
                inner.arrival = None;
                inner.arrive();
            } else {
                let Reverse(c) = inner.completions.pop().expect("the top was just peeked");
                inner.complete(c.slot);
            }
            inner.processed += 1;
            if let Some(observer) = self.observer.as_mut() {
                observer.on_event(&EventRecord {
                    at: inner.now,
                    kind: UNLABELED_EVENT,
                    queue_depth: inner.pending(),
                });
            }
        }
        if t != SimTime::MAX && t > inner.now {
            inner.now = t;
        }
    }

    /// Snapshots a VM's aggregate Aperf/Pperf counters at the current
    /// time. Use [`ic_telemetry::counters::CounterSample::since`] between
    /// two snapshots.
    pub fn sample(&self, id: VmId) -> CounterSample {
        self.inner.vms[id].counters.sample(self.now().as_secs_f64())
    }

    /// Busy-core utilization of a VM since an `earlier` snapshot, in
    /// `[0, 1]` (busy core-seconds over `vcores × wall`). Returns 0 for
    /// a zero-length interval.
    pub fn utilization_since(&self, id: VmId, earlier: &CounterSample) -> f64 {
        let delta = self.sample(id).since(earlier);
        let wall = delta.d_wall_seconds();
        if wall <= 0.0 {
            return 0.0;
        }
        (delta.d_busy_seconds() / (self.inner.vms[id].vcores as f64 * wall)).clamp(0.0, 1.0)
    }

    /// Takes all request completions recorded since the last call:
    /// `(completion time, sojourn latency seconds)`.
    pub fn take_completions(&mut self) -> Vec<(SimTime, f64)> {
        std::mem::take(&mut self.inner.completed)
    }

    /// Total requests completed since the start of the run.
    pub fn completed_requests(&self) -> u64 {
        self.inner.vms.iter().map(|v| v.completed).sum()
    }

    /// Requests dropped because no VM was active.
    pub fn dropped_requests(&self) -> u64 {
        self.inner.dropped
    }

    /// The number of requests queued (not yet in service) at a VM.
    pub fn queue_depth(&self, id: VmId) -> usize {
        self.inner.vms[id].queue.len()
    }

    /// The number of virtual cores a VM has.
    pub fn vcores(&self, id: VmId) -> u32 {
        self.inner.vms[id].vcores
    }

    /// The number of in-service requests at a VM.
    pub fn in_service(&self, id: VmId) -> u32 {
        self.inner.vms[id].busy
    }
}

/// Draws the next inter-arrival delay at the current load.
///
/// v1 is bit-identical to the historical
/// `-(1 - u).ln() / qps` expression (negation is exact) with the
/// historical rounding conversion. v2 multiplies its unit-mean buffered
/// gap by the cached `1/qps` (a multiply instead of a divide on the
/// critical path) and converts via [`dur_v2`].
#[inline]
fn next_interarrival(samplers: &mut Samplers, qps: f64, inv_qps: f64) -> SimDuration {
    match samplers {
        Samplers::V1 { rng, .. } => {
            SimDuration::from_secs_f64((rng.standard_exp() / qps).max(1e-9))
        }
        Samplers::V2 { gap, .. } => dur_v2((gap.next() * inv_qps).max(1e-9)),
    }
}

impl Inner {
    /// The arrival event: route one request, then schedule the next
    /// arrival. With the load at zero the chain retires instead.
    fn arrive(&mut self) {
        if self.qps <= 0.0 {
            return;
        }
        let now = self.now;
        let demand_s = self.samplers.demand_s();
        match self.route() {
            Some(vm_id) => {
                let vm = &mut self.vms[vm_id];
                if vm.busy < vm.vcores {
                    // A core is free, so the queue is empty (dispatch
                    // drains it whenever a core frees up): skip the queue
                    // round-trip and put the request straight into
                    // service.
                    debug_assert!(vm.queue.is_empty());
                    self.dispatch_one(vm_id, Arrival { at: now, demand_s });
                } else {
                    vm.queue.push_back(Arrival { at: now, demand_s });
                }
            }
            None => self.dropped += 1,
        }
        let delay = next_interarrival(&mut self.samplers, self.qps, self.inv_qps);
        self.arrival = Some(self.next_key(delay));
    }

    fn try_dispatch(&mut self, vm_id: VmId) {
        loop {
            let vm = &mut self.vms[vm_id];
            if vm.busy >= vm.vcores {
                return;
            }
            let Some(req) = vm.queue.pop_front() else {
                return;
            };
            self.dispatch_one(vm_id, req);
        }
    }

    /// Puts `req` into service on `vm_id` (which must have a free core)
    /// and schedules its completion.
    fn dispatch_one(&mut self, vm_id: VmId, req: Arrival) {
        let vm = &mut self.vms[vm_id];
        vm.busy += 1;
        let speed = vm.freq_ratio * vm.share;
        let service_s = req.demand_s / speed;
        let record = InFlight {
            vm_id,
            service_s,
            arrival_at: req.at,
            freq_hz: BASE_FREQ_HZ * vm.freq_ratio,
            stall: vm.stall_fraction,
        };
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.inflight[s as usize] = record;
                s
            }
            None => {
                self.inflight.push(record);
                (self.inflight.len() - 1) as u32
            }
        };
        // v2 converts the service delay with the truncating fast path; v1
        // keeps the historical rounding conversion (see `dur_v2`).
        let delay = match self.samplers.version() {
            StreamVersion::V1 => SimDuration::from_secs_f64(service_s),
            StreamVersion::V2 => dur_v2(service_s),
        };
        let key = self.next_key(delay);
        self.completions.push(Reverse(Completion { key, slot }));
    }

    /// The completion event of the request parked in `slot`.
    fn complete(&mut self, slot: u32) {
        let record = self.inflight[slot as usize];
        self.free_slots.push(slot);
        let now = self.now;
        let vm = &mut self.vms[record.vm_id];
        vm.busy -= 1;
        vm.completed += 1;
        vm.counters
            .advance(record.service_s, record.freq_hz, record.stall);
        let latency = (now - record.arrival_at).as_secs_f64();
        self.completed.push((now, latency));
        self.try_dispatch(record.vm_id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_sim::stats::Tally;

    fn p95(completions: &[(SimTime, f64)]) -> f64 {
        let mut t: Tally = completions.iter().map(|&(_, l)| l).collect();
        t.percentile(0.95)
    }

    #[test]
    fn throughput_matches_offered_load() {
        let mut sim = ClientServerSim::new(1, 0.001, 1.0, 4, 0.1);
        sim.add_vm();
        sim.set_qps(1000.0);
        sim.advance_to(SimTime::from_secs(100));
        let done = sim.completed_requests() as f64;
        assert!((done - 100_000.0).abs() / 100_000.0 < 0.02, "done = {done}");
        assert_eq!(sim.dropped_requests(), 0);
    }

    #[test]
    fn deterministic_replay() {
        let run = || {
            let mut sim = ClientServerSim::new(7, 0.002, 1.5, 4, 0.1);
            sim.add_vm();
            sim.set_qps(800.0);
            sim.advance_to(SimTime::from_secs(50));
            (sim.completed_requests(), p95(&sim.take_completions()))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn utilization_tracks_offered_load() {
        let mut sim = ClientServerSim::new(3, 0.0028, 1.5, 4, 0.1);
        let vm = sim.add_vm();
        sim.set_qps(500.0);
        let before = sim.sample(vm);
        sim.advance_to(SimTime::from_secs(120));
        // Offered core utilization: 500 × 0.0028 / 4 = 0.35 of the VM.
        let util = sim.utilization_since(vm, &before);
        let expected = 500.0 * 0.0028 / 4.0;
        assert!(
            (util - expected).abs() / expected < 0.05,
            "util {util} vs expected {expected}"
        );
    }

    #[test]
    fn overclocking_reduces_latency() {
        let run = |ratio: f64| {
            let mut sim = ClientServerSim::new(11, 0.0028, 1.5, 4, 0.1);
            let vm = sim.add_vm();
            sim.set_freq_ratio(vm, ratio);
            sim.set_qps(1200.0);
            sim.advance_to(SimTime::from_secs(120));
            p95(&sim.take_completions())
        };
        let base = run(1.0);
        let oc = run(4.1 / 3.4);
        assert!(oc < base, "OC p95 {oc} should beat base {base}");
        assert!(oc < base * 0.92, "expect a tangible improvement");
    }

    #[test]
    fn oversubscription_share_slows_service() {
        let run = |share: f64| {
            let mut sim = ClientServerSim::new(13, 0.0028, 1.5, 4, 0.1);
            let vm = sim.add_vm();
            sim.set_share(vm, share);
            sim.set_qps(600.0);
            sim.advance_to(SimTime::from_secs(60));
            p95(&sim.take_completions())
        };
        assert!(run(0.75) > run(1.0));
    }

    #[test]
    fn adding_vms_reduces_latency_under_heavy_load() {
        let run = |vms: usize| {
            let mut sim = ClientServerSim::new(17, 0.0028, 1.5, 4, 0.1);
            for _ in 0..vms {
                sim.add_vm();
            }
            sim.set_qps(2500.0);
            sim.advance_to(SimTime::from_secs(60));
            p95(&sim.take_completions())
        };
        assert!(run(4) < run(2));
    }

    #[test]
    fn removed_vm_stops_receiving_but_drains() {
        let mut sim = ClientServerSim::new(19, 0.01, 1.0, 2, 0.1);
        let a = sim.add_vm();
        let b = sim.add_vm();
        sim.set_qps(300.0);
        sim.advance_to(SimTime::from_secs(10));
        assert!(sim.remove_vm(b));
        assert!(!sim.remove_vm(b), "second removal reports inactive");
        sim.advance_to(SimTime::from_secs(30));
        // Everything eventually lands on the surviving VM.
        assert_eq!(sim.active_vms(), vec![a]);
        sim.set_qps(0.0);
        sim.advance_to(SimTime::from_secs(40));
        assert_eq!(sim.queue_depth(b), 0);
        assert_eq!(sim.in_service(b), 0);
    }

    #[test]
    fn no_vms_drops_requests() {
        let mut sim = ClientServerSim::new(23, 0.001, 1.0, 4, 0.1);
        sim.set_qps(100.0);
        sim.advance_to(SimTime::from_secs(10));
        assert!(sim.dropped_requests() > 900);
        assert_eq!(sim.completed_requests(), 0);
    }

    #[test]
    fn qps_zero_stops_arrivals() {
        let mut sim = ClientServerSim::new(29, 0.001, 1.0, 4, 0.1);
        sim.add_vm();
        sim.set_qps(100.0);
        sim.advance_to(SimTime::from_secs(10));
        let done = sim.completed_requests();
        sim.set_qps(0.0);
        sim.advance_to(SimTime::from_secs(30));
        let after = sim.completed_requests();
        // Only in-flight work completes after arrivals stop.
        assert!(after - done < 10, "{after} vs {done}");
        // And it can restart.
        sim.set_qps(100.0);
        sim.advance_to(SimTime::from_secs(40));
        assert!(sim.completed_requests() > after + 500);
    }

    #[test]
    fn qps_toggle_before_the_pending_arrival_keeps_one_chain() {
        // `set_qps(0)` then `set_qps(x)` before the pending arrival fires
        // must resume the one arrival chain, not start a second one that
        // doubles the offered load.
        let run = |toggle: bool| {
            let mut sim = ClientServerSim::new(41, 0.002, 1.0, 4, 0.1);
            for _ in 0..4 {
                sim.add_vm();
            }
            sim.set_qps(1000.0);
            sim.advance_to(SimTime::from_secs(5));
            let before = sim.completed_requests();
            if toggle {
                sim.set_qps(0.0);
                sim.set_qps(1000.0);
            }
            sim.advance_to(SimTime::from_secs(15));
            (sim.completed_requests() - before, sim.events_processed())
        };
        let (plain, plain_events) = run(false);
        let (toggled, toggled_events) = run(true);
        assert!(
            (9_000..11_000).contains(&plain),
            "plain run completed {plain}"
        );
        assert_eq!(toggled, plain, "toggled run completed {toggled} vs {plain}");
        assert_eq!(toggled_events, plain_events);
    }

    #[test]
    fn counters_report_stall_fraction() {
        let mut sim = ClientServerSim::new(31, 0.002, 1.0, 4, 0.25);
        let vm = sim.add_vm();
        sim.set_qps(400.0);
        let before = sim.sample(vm);
        sim.advance_to(SimTime::from_secs(60));
        let delta = sim.sample(vm).since(&before);
        assert!((delta.productivity() - 0.75).abs() < 1e-9);
    }
}
