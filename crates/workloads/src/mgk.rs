//! The executable Client-Server application: an M/G/k queue simulated
//! window by window, without an event queue.
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
//! # The kernel
//!
//! The load balancer is round-robin and both draws (the demand, then
//! the next gap) happen when a request arrives, so the arrival stream
//! — times, demands, target VMs — does not depend on queue state. Given
//! that stream each VM is an independent FCFS queue on `vcores` cores,
//! and the Kiefer–Wolfowitz recursion gives every request's times:
//! `start = max(arrival, earliest core-free time)` and
//! `done = start + dur(demand / (freq · share))`. Actuations only land
//! between [`ClientServerSim::advance_to`] calls, so within one call the
//! speeds are fixed and `advance_to` runs three passes per sub-window of
//! a fixed number of arrivals:
//!
//! 1. draw and route the arrivals, demand then gap per arrival;
//! 2. run each VM's recursion up to the sub-window's horizon — a request
//!    whose start falls past it stays queued and takes the speed in
//!    force when it starts;
//! 3. sort the completions due by the horizon on compact `(done, index)`
//!    keys and emit them into the per-VM counters, the completion log
//!    and the observer; arrivals are merged in only for the observer and
//!    at tied instants.
//!
//! Emission follows `(at, seq)` order: the order of a discrete-event
//! loop that breaks time ties by scheduling sequence. `seq` is never
//! stored. It ranks an event by when the handler that scheduled it ran,
//! so events tied in time are ordered by their parents: a completion's
//! parent is the event that dispatched it, and an arrival's is the
//! previous arrival, or the [`ClientServerSim::set_qps`] call that
//! started the chain, which ranks after every event at its instant. One
//! handler dispatches before it schedules the next arrival. A parent is
//! keyed by its time plus, when several events shared that instant, its
//! position among them, so comparing keys never walks further than one
//! level. Three facts make the rule exact:
//!
//! * arrival times strictly increase, because a gap is at least 1 ns;
//! * the dispatches at one instant on one VM pair FIFO with the arrival
//!   and core-freeing completions at that instant, in their emission
//!   order, so a tied instant replays that pairing;
//! * only in-flight requests and the pending arrival outlive a
//!   sub-window, and their parent keys are absolute.
//!
//! The last fact also makes the kernel exact for any split of a window,
//! which is why fixed-size sub-windows keep the arenas small without
//! changing a single record.

use ic_sim::dist::{DistKind, DrawAhead, DrawCounts, Lane, LogNormal};
use ic_sim::observe::{EngineObserver, EventRecord, UNLABELED_EVENT};
use ic_sim::rng::{SimRng, StreamVersion};
use ic_sim::time::{SimDuration, SimTime};
use ic_telemetry::counters::{CoreCounters, CounterSample};
use std::collections::VecDeque;
use std::fmt;

/// Identifies a VM within the simulation.
pub type VmId = usize;

/// The reference core frequency in Hz that a frequency ratio of 1.0
/// corresponds to (config B2, 3.4 GHz).
pub const BASE_FREQ_HZ: f64 = 3.4e9;

/// Arrivals per sub-window. Each sub-window's arenas hold its arrivals
/// and the requests it dispatches, so this bounds their size; any value
/// gives the same records.
const SUB_WINDOW_ARRIVALS: usize = 128;

/// Size of the arrival-time filter, in bits: a power of two, so an
/// instant's low bits pick its bit.
const ARRIVAL_BITS: usize = 1 << 13;

/// No request (an unset link).
const NONE: u32 = u32::MAX;
/// The VM of an arrival that found no active VM.
const DROPPED: u32 = u32::MAX;
/// The VM of the arrival that fired with the load at zero and retired
/// the chain.
const RETIRED: u32 = u32::MAX - 1;

#[derive(Debug)]
struct VmState {
    vcores: u32,
    /// Service-speed multiplier from frequency scaling (1.0 = B2).
    freq_ratio: f64,
    /// Service-speed multiplier from pcore oversubscription share.
    share: f64,
    /// Fraction of active cycles stalled (from the app profile).
    stall_fraction: f64,
    /// Requests waiting for a core, oldest first.
    queue: VecDeque<Queued>,
    /// Whether the VM is on the backlog list.
    listed: bool,
    counters: CoreCounters,
    active: bool,
    /// Completions recorded by this VM (for VM×hours style accounting).
    completed: u64,
}

/// A request waiting for a core.
#[derive(Debug, Clone, Copy)]
struct Queued {
    /// Arrival instant, ns.
    at: u64,
    /// Service demand in seconds at frequency ratio 1.0 and full share.
    demand_s: f64,
}

/// Where the handler that scheduled an event ran: its instant in ns
/// and, when several events shared that instant, its 1-based emission
/// position among them (0 when it ran alone). Keys order events as
/// their `seq`s would.
type Parent = (u64, u32);

/// The parent key of the arrival a [`ClientServerSim::set_qps`] call
/// schedules: after every event at that instant.
fn set_qps_parent(now: SimTime) -> Parent {
    (now.as_nanos(), u32::MAX)
}

/// One arrival of the current sub-window.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    /// ns.
    at: u64,
    demand_s: f64,
    /// Target VM, or [`DROPPED`] / [`RETIRED`].
    vm: u32,
    /// The request this arrival put straight into service on an idle
    /// core, or [`NONE`].
    direct: u32,
    /// Emission position at a tied instant (see [`Parent`]).
    pos: u32,
}

/// A request in service: dispatched this sub-window, or still in flight
/// from an earlier one.
#[derive(Debug, Clone, Copy)]
struct Req {
    /// Arrival, start and completion instants, ns.
    arrival: u64,
    start: u64,
    done: u64,
    /// Scaled service time actually spent on the core, seconds.
    service_s: f64,
    freq_hz: f64,
    vm: u32,
    /// Index into [`Inner::cores`].
    core: u32,
    /// Emission position of the dispatching event at `start`.
    disp_pos: u32,
    /// The request this completion puts into service at `done`, or
    /// [`NONE`]. Exact unless `done` is a tied instant, where
    /// [`Inner::emit_group`] replays the pairing.
    next: u32,
}

/// One virtual core: when it frees up and which request holds it until
/// then.
#[derive(Debug, Clone, Copy)]
struct Core {
    /// ns; at or before the last horizon when the core is idle.
    free_at: u64,
    /// Index into [`Inner::reqs`], meaningful while the core is busy.
    req: u32,
}

/// An event of a tied instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Ev {
    Arrival(u32),
    Done(u32),
}

/// The dispatch replay of one VM at a tied instant (see
/// [`Inner::emit_group`]).
#[derive(Debug, Clone, Copy)]
struct Replay {
    vm: u32,
    /// Cores freed at this instant and not yet given out.
    free: u32,
    /// Whether the VM's arrival at this instant has been emitted.
    arrived: bool,
    /// The requests starting at this instant, `Inner::replay_reqs[next..end]`
    /// still waiting, in FIFO order.
    next: usize,
    end: usize,
}

/// The arrival/service variate source — the hottest sampling site in
/// the workspace (two draws per request, millions of requests per
/// simulated run). Both versions draw through a [`DrawAhead`], which
/// moves the draws of a long run onto a helper thread without changing
/// a value.
#[derive(Debug)]
enum Samplers {
    /// v1: one shared generator; service and inter-arrival draws
    /// interleave on it in arrival order, exactly as every
    /// pre-versioning record was produced. One pairs lane: each
    /// arrival's `(demand, unit gap)`, and a lone gap when `set_qps`
    /// restarts the arrival chain.
    V1(DrawAhead),
    /// v2: each draw family owns a dedicated buffered stream (derived
    /// by forking the seed root, so construction is deterministic).
    /// Refills run the ziggurat in tight batches; consumption order no
    /// longer affects the values either family produces. Lane [`GAP`]
    /// holds unit-mean standard-exponential gaps, scaled by `1/qps` at
    /// consumption so load changes never invalidate a block; lane
    /// [`DEMAND`] holds fully transformed service demands (seconds at
    /// ratio 1.0).
    V2(DrawAhead),
}

/// The v2 gap lane.
const GAP: usize = 0;
/// The v2 demand lane.
const DEMAND: usize = 1;

impl Samplers {
    fn new(seed: u64, service: DistKind, version: StreamVersion) -> Self {
        match version {
            StreamVersion::V1 => Samplers::V1(DrawAhead::new(vec![(
                Lane::Pairs(service),
                SimRng::seed_from_u64(seed),
            )])),
            StreamVersion::V2 => {
                let mut root = SimRng::seed_versioned(seed, StreamVersion::V2);
                let gap_rng = root.fork();
                let demand_rng = root.fork();
                let unit_gap = Lane::Values(DistKind::Exponential { mean: 1.0 });
                Samplers::V2(DrawAhead::new(vec![
                    (unit_gap, gap_rng),
                    (Lane::Values(service), demand_rng),
                ]))
            }
        }
    }

    /// One service demand, in seconds at frequency ratio 1.0.
    #[inline]
    fn demand_s(&mut self) -> f64 {
        match self {
            Samplers::V1(pairs) => pairs.next(0),
            Samplers::V2(lanes) => lanes.next(DEMAND),
        }
    }

    /// A service time as a duration: v2 converts with the truncating
    /// fast path, v1 keeps the historical rounding (see [`dur_v2`]).
    #[inline]
    fn service_dur(&self, secs: f64) -> SimDuration {
        match self {
            Samplers::V1(_) => SimDuration::from_secs_f64(secs),
            Samplers::V2(_) => dur_v2(secs),
        }
    }
}

/// Nanosecond conversion for v2 delays.
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
    /// The next arrival, if the arrival chain is live.
    arrival: Option<SimTime>,
    /// The parent key of that arrival.
    arrival_parent: Parent,
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
    /// Every VM's cores, `vcores_per_vm` per VM, in VM order.
    cores: Vec<Core>,
    /// The VMs with a non-empty queue.
    backlog: Vec<VmId>,
    /// The current sub-window's arrivals.
    arrivals: Vec<Arrival>,
    /// Requests in flight at the start of the sub-window, then the
    /// ones it dispatches.
    reqs: Vec<Req>,
    /// `(done, index into reqs)` of the completions due by the horizon.
    keys: Vec<(u64, u32)>,
    /// One bit per value of an arrival time's low bits, set for the
    /// sub-window's arrivals: a completion whose bit is clear cannot tie
    /// with an arrival.
    arrival_bits: Vec<u64>,
    /// Scratch for tied instants.
    group: Vec<Ev>,
    replays: Vec<Replay>,
    replay_reqs: Vec<u32>,
}

impl Inner {
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
    ///   Aperf/Pperf counters (the Client-Server profile is ~0.1);
    ///   clamped to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the service parameters are non-positive,
    /// `vcores_per_vm` is zero, or `stall_fraction` is NaN.
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
        // `clamp` passes NaN through, and the counters would only panic
        // on it at the first completion.
        assert!(!stall_fraction.is_nan(), "stall fraction is NaN");
        let service = DistKind::from(LogNormal::with_mean_scv(service_mean_s, service_scv));
        ClientServerSim {
            observer: None,
            inner: Inner {
                now: SimTime::ZERO,
                arrival: None,
                arrival_parent: set_qps_parent(SimTime::ZERO),
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
                cores: Vec::new(),
                backlog: Vec::new(),
                arrivals: Vec::new(),
                reqs: Vec::new(),
                keys: Vec::new(),
                arrival_bits: vec![0; ARRIVAL_BITS / 64],
                group: Vec::new(),
                replays: Vec::new(),
                replay_reqs: Vec::new(),
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

    /// Where the arrival and service variates drawn so far came from:
    /// blocks a draw-ahead helper filled, or draws on this thread (see
    /// [`DrawAhead::counts`]).
    pub fn draw_counts(&self) -> DrawCounts {
        match &self.inner.samplers {
            Samplers::V1(ahead) | Samplers::V2(ahead) => ahead.counts(),
        }
    }

    /// Events stored as boxed closures: always 0, because the kernel
    /// stores no closures.
    pub fn boxed_events(&self) -> u64 {
        0
    }

    /// Attaches an observer (see [`ic_sim::observe::EngineObserver`])
    /// that receives one record per executed simulation event, in
    /// `(at, seq)` order: kind `"event"`, queue depth counting the
    /// pending arrival and the requests in service after the event.
    /// Replaces any previous observer.
    pub fn set_observer(&mut self, observer: Box<dyn EngineObserver>) {
        self.observer = Some(observer);
    }

    /// Adds a server VM, immediately active. (Model VM-creation latency
    /// by calling this when the creation completes.)
    pub fn add_vm(&mut self) -> VmId {
        let inner = &mut self.inner;
        let id = inner.vms.len();
        inner.vms.push(VmState {
            vcores: inner.vcores_per_vm,
            freq_ratio: 1.0,
            share: 1.0,
            stall_fraction: inner.default_stall_fraction,
            queue: VecDeque::new(),
            listed: false,
            counters: CoreCounters::new(),
            active: true,
            completed: 0,
        });
        let idle = Core {
            free_at: 0,
            req: NONE,
        };
        inner
            .cores
            .extend(std::iter::repeat_n(idle, inner.vcores_per_vm as usize));
        inner.active_ids.push(id);
        id
    }

    /// Deactivates a VM: it stops receiving new requests and drains its
    /// queue. Returns `true` if the VM was serving, `false` if it was
    /// already inactive or `id` is at or past [`vm_count`](Self::vm_count).
    pub fn remove_vm(&mut self, id: VmId) -> bool {
        let Some(vm) = self.inner.vms.get_mut(id) else {
            return false;
        };
        let was_active = std::mem::replace(&mut vm.active, false);
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

    /// The number of VMs ever added, active or not: every id below it
    /// is valid.
    pub fn vm_count(&self) -> usize {
        self.inner.vms.len()
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
            inner.arrival = Some(inner.now + delay);
            inner.arrival_parent = set_qps_parent(inner.now);
        }
    }

    /// Sets a VM's frequency ratio (service-speed multiplier vs B2).
    /// Takes effect for requests dispatched after the call — frequency
    /// transitions take tens of µs on real hardware \[43\], far below the
    /// 3 s control period.
    ///
    /// # Panics
    ///
    /// Panics if the ratio is not strictly positive, or if `id` is at or
    /// past [`vm_count`](Self::vm_count).
    pub fn set_freq_ratio(&mut self, id: VmId, ratio: f64) {
        assert!(ratio > 0.0 && ratio.is_finite(), "invalid ratio {ratio}");
        self.inner.vms[id].freq_ratio = ratio;
    }

    /// A VM's current frequency ratio.
    ///
    /// # Panics
    ///
    /// Panics if `id` is at or past [`vm_count`](Self::vm_count).
    pub fn freq_ratio(&self, id: VmId) -> f64 {
        self.inner.vms[id].freq_ratio
    }

    /// Sets a VM's pcore share (oversubscription slowdown), in `(0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if the share is outside `(0, 1]`, or if `id` is at or past
    /// [`vm_count`](Self::vm_count).
    pub fn set_share(&mut self, id: VmId, share: f64) {
        assert!(share > 0.0 && share <= 1.0, "invalid share {share}");
        self.inner.vms[id].share = share;
    }

    /// Runs every event at or before `t` in `(at, seq)` order, then
    /// moves the clock to `t` (if later). `SimTime::MAX` runs the
    /// system dry and leaves the clock at the last event.
    ///
    /// # Panics
    ///
    /// Panics if `t` is `SimTime::MAX` while the load is above zero:
    /// the arrival chain never ends, so the call could never return.
    pub fn advance_to(&mut self, t: SimTime) {
        let inner = &mut self.inner;
        assert!(
            t != SimTime::MAX || inner.qps <= 0.0,
            "advance_to(SimTime::MAX) with qps {} > 0 would never return: \
             the arrival chain is endless; advance to a finite time or set_qps(0.0) first",
            inner.qps
        );
        if t <= inner.now {
            // Everything at or before `now` has run already.
            return;
        }
        loop {
            let (horizon, more) = inner.arrival_pass(t.as_nanos());
            let in_flight = inner.reqs.len();
            inner.service_pass(horizon);
            inner.emit(horizon, in_flight, &mut self.observer);
            if !more {
                break;
            }
        }
        if t != SimTime::MAX {
            inner.now = t;
        }
    }

    /// Snapshots a VM's aggregate Aperf/Pperf counters at the current
    /// time. Use [`ic_telemetry::counters::CounterSample::since`] between
    /// two snapshots.
    ///
    /// # Panics
    ///
    /// Panics if `id` is at or past [`vm_count`](Self::vm_count).
    pub fn sample(&self, id: VmId) -> CounterSample {
        self.inner.vms[id].counters.sample(self.now().as_secs_f64())
    }

    /// Busy-core utilization of a VM since an `earlier` snapshot, in
    /// `[0, 1]` (busy core-seconds over `vcores × wall`). Returns 0 for
    /// a zero-length interval.
    ///
    /// # Panics
    ///
    /// Panics if `id` is at or past [`vm_count`](Self::vm_count).
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
    ///
    /// # Panics
    ///
    /// Panics if `id` is at or past [`vm_count`](Self::vm_count).
    pub fn queue_depth(&self, id: VmId) -> usize {
        self.inner.vms[id].queue.len()
    }

    /// The number of virtual cores a VM has.
    ///
    /// # Panics
    ///
    /// Panics if `id` is at or past [`vm_count`](Self::vm_count).
    pub fn vcores(&self, id: VmId) -> u32 {
        self.inner.vms[id].vcores
    }

    /// The number of in-service requests at a VM.
    ///
    /// # Panics
    ///
    /// Panics if `id` is at or past [`vm_count`](Self::vm_count).
    pub fn in_service(&self, id: VmId) -> u32 {
        let now = self.inner.now.as_nanos();
        let c = self.inner.vcores_per_vm as usize;
        let cores = &self.inner.cores[id * c..(id + 1) * c];
        cores.iter().filter(|core| core.free_at > now).count() as u32
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
        Samplers::V1(pairs) => SimDuration::from_secs_f64((pairs.next_exp(0) / qps).max(1e-9)),
        Samplers::V2(lanes) => dur_v2((lanes.next(GAP) * inv_qps).max(1e-9)),
    }
}

impl Inner {
    /// Pass 1: draws and routes the next sub-window's arrivals — at most
    /// [`SUB_WINDOW_ARRIVALS`], none after `t` — into `arrivals`.
    /// Returns the sub-window's horizon and whether arrivals at or
    /// before `t` remain for another sub-window.
    fn arrival_pass(&mut self, t: u64) -> (u64, bool) {
        self.arrivals.clear();
        let Some(first) = self.arrival else {
            return (t, false);
        };
        let mut at = first.as_nanos();
        if at > t {
            return (t, false);
        }
        if self.qps <= 0.0 {
            // The pending arrival fires, finds no load and retires the
            // chain.
            self.arrival = None;
            self.arrivals.push(Arrival {
                at,
                demand_s: 0.0,
                vm: RETIRED,
                direct: NONE,
                pos: 0,
            });
            return (t, false);
        }
        loop {
            let demand_s = self.samplers.demand_s();
            let vm = match self.route() {
                Some(id) => id as u32,
                None => {
                    self.dropped += 1;
                    DROPPED
                }
            };
            self.arrivals.push(Arrival {
                at,
                demand_s,
                vm,
                direct: NONE,
                pos: 0,
            });
            let last = at;
            at += next_interarrival(&mut self.samplers, self.qps, self.inv_qps).as_nanos();
            if at > t {
                self.arrival = Some(SimTime::from_nanos(at));
                return (t, false);
            }
            if self.arrivals.len() == SUB_WINDOW_ARRIVALS {
                self.arrival = Some(SimTime::from_nanos(at));
                return (last, true);
            }
        }
    }

    /// Pass 2: runs every VM's FCFS recursion over its queue and the
    /// sub-window's arrivals, dispatching each request that starts by
    /// `horizon`.
    fn service_pass(&mut self, horizon: u64) {
        for j in 0..self.arrivals.len() {
            let a = self.arrivals[j];
            if a.vm >= RETIRED {
                continue;
            }
            let v = a.vm as usize;
            if !self.vms[v].queue.is_empty() {
                // Only up to this arrival, so requests enter `reqs`
                // roughly in start order and the sort finds them
                // nearly sorted.
                self.drain(v, a.at);
            }
            if self.vms[v].queue.is_empty() {
                let k = self.earliest_core(v);
                let free = self.cores[k].free_at;
                if free < a.at {
                    // An idle core: the arrival itself dispatches.
                    self.arrivals[j].direct = self.dispatch(v, k, a.at, a.at, a.demand_s);
                    continue;
                }
                if free <= horizon {
                    self.dispatch_on_free(v, k, a.at, a.demand_s);
                    continue;
                }
            }
            let vm = &mut self.vms[v];
            vm.queue.push_back(Queued {
                at: a.at,
                demand_s: a.demand_s,
            });
            if !vm.listed {
                vm.listed = true;
                self.backlog.push(v);
            }
        }
        let mut i = 0;
        while i < self.backlog.len() {
            let v = self.backlog[i];
            self.drain(v, horizon);
            if self.vms[v].queue.is_empty() {
                self.vms[v].listed = false;
                self.backlog.swap_remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// Dispatches `v`'s queued requests that start by `until`.
    fn drain(&mut self, v: VmId, until: u64) {
        while let Some(&q) = self.vms[v].queue.front() {
            let k = self.earliest_core(v);
            if self.cores[k].free_at > until {
                return;
            }
            self.vms[v].queue.pop_front();
            self.dispatch_on_free(v, k, q.at, q.demand_s);
        }
    }

    /// The index of `v`'s core that frees up first (the lowest index
    /// among equals).
    #[inline]
    fn earliest_core(&self, v: VmId) -> usize {
        let c = self.vcores_per_vm as usize;
        let base = v * c;
        let cores = &self.cores[base..base + c];
        // The running minimum stays in a register, so both selects
        // compile to conditional moves: which core frees first is
        // data, and a branch on it would mispredict half the time.
        let (mut k, mut first) = (0, cores[0].free_at);
        for (i, core) in cores.iter().enumerate().skip(1) {
            let earlier = core.free_at < first;
            k = if earlier { i } else { k };
            first = if earlier { core.free_at } else { first };
        }
        base + k
    }

    /// Puts a request into service on core `k` the moment the request
    /// holding the core completes, and links that completion to it.
    #[inline]
    fn dispatch_on_free(&mut self, v: VmId, k: usize, arrival: u64, demand_s: f64) {
        let Core { free_at, req } = self.cores[k];
        debug_assert!(free_at >= arrival, "a request starts before it arrives");
        let r = self.dispatch(v, k, free_at, arrival, demand_s);
        self.reqs[req as usize].next = r;
    }

    /// Puts a request into service on `v`'s core `k` at `start`, at the
    /// VM's current speed. Returns its index in `reqs`.
    #[inline]
    fn dispatch(&mut self, v: VmId, k: usize, start: u64, arrival: u64, demand_s: f64) -> u32 {
        let vm = &self.vms[v];
        let speed = vm.freq_ratio * vm.share;
        let service_s = demand_s / speed;
        let done = start + self.samplers.service_dur(service_s).as_nanos();
        let r = self.reqs.len() as u32;
        self.reqs.push(Req {
            arrival,
            start,
            done,
            service_s,
            freq_hz: BASE_FREQ_HZ * vm.freq_ratio,
            vm: v as u32,
            core: k as u32,
            disp_pos: 0,
            next: NONE,
        });
        self.cores[k] = Core {
            free_at: done,
            req: r,
        };
        r
    }

    /// Pass 3: emits the sub-window's events in `(at, seq)` order, then
    /// keeps only the requests still in flight. `in_flight` is how many
    /// requests were in service when the sub-window began.
    ///
    /// Arrivals change nothing a completion records, so the loop walks
    /// the completions alone and merges arrivals in only for the
    /// observer and at tied instants.
    fn emit(
        &mut self,
        horizon: u64,
        in_flight: usize,
        observer: &mut Option<Box<dyn EngineObserver>>,
    ) {
        self.keys.clear();
        for (i, r) in self.reqs.iter().enumerate() {
            if r.done <= horizon {
                self.keys.push((r.done, i as u32));
            }
        }
        sort_by_done(&mut self.keys);
        for a in &self.arrivals {
            let bit = a.at as usize % ARRIVAL_BITS;
            self.arrival_bits[bit / 64] |= 1 << (bit % 64);
        }

        // Exact whenever an observer is attached; otherwise the arrivals
        // are skipped and the figure is never read.
        let arrival_live = !self.arrivals.is_empty() || self.arrival.is_some();
        let mut depth = (in_flight + arrival_live as usize) as isize;
        let (mut ai, mut ci) = (0, 0);
        loop {
            ci = self.emit_run(ci, &mut ai, &mut depth, observer);
            let Some(&(done, _)) = self.keys.get(ci) else {
                break;
            };
            observe_arrivals(&self.arrivals, done, &mut ai, &mut depth, observer);
            self.emit_group(done, &mut ai, &mut ci, &mut depth, observer);
        }
        if observer.is_some() {
            observe_arrivals(&self.arrivals, u64::MAX, &mut ai, &mut depth, observer);
        }
        self.processed += (self.arrivals.len() + self.keys.len()) as u64;

        let last_event = self
            .arrivals
            .last()
            .map_or(0, |a| a.at)
            .max(self.keys.last().map_or(0, |k| k.0));
        if last_event > self.now.as_nanos() {
            self.now = SimTime::from_nanos(last_event);
        }
        if let Some(last) = self.arrivals.last() {
            if last.vm != RETIRED {
                self.arrival_parent = (last.at, last.pos);
            }
        }
        for a in &self.arrivals {
            let bit = a.at as usize % ARRIVAL_BITS;
            self.arrival_bits[bit / 64] = 0;
        }
        let mut kept = 0;
        for i in 0..self.reqs.len() {
            let r = self.reqs[i];
            if r.done > horizon {
                self.cores[r.core as usize].req = kept as u32;
                self.reqs[kept] = r;
                kept += 1;
            }
        }
        self.reqs.truncate(kept);
    }

    /// Emits the completions from `keys[ci]` on up to the first tied
    /// instant and returns its index (`keys.len()` if there is none).
    fn emit_run(
        &mut self,
        mut ci: usize,
        ai: &mut usize,
        depth: &mut isize,
        observer: &mut Option<Box<dyn EngineObserver>>,
    ) -> usize {
        let Inner {
            keys,
            reqs,
            vms,
            completed,
            arrivals,
            arrival_bits,
            ..
        } = self;
        while let Some(&(done, r)) = keys.get(ci) {
            let tied = keys.get(ci + 1).is_some_and(|k| k.0 == done);
            if tied || arrival_at(arrival_bits, arrivals, done) {
                return ci;
            }
            ci += 1;
            if observer.is_some() {
                observe_arrivals(arrivals, done, ai, depth, observer);
            }
            let q = &reqs[r as usize];
            complete(q, &mut vms[q.vm as usize], completed);
            *depth += (q.next != NONE) as isize - 1;
            observe(observer, done, *depth);
        }
        ci
    }

    /// Emits every event at the tied instant `at`: the arrival there, if
    /// any, and the completions at `keys[*ci..]` that fall on it.
    ///
    /// Events whose parents ran before `at` go first, ordered by parent
    /// key (a dispatch before its handler's next arrival). Completions
    /// of zero-length requests dispatched at `at` follow in dispatch
    /// order, because their parents run at `at` after all of those.
    ///
    /// Pass 2 linked each request starting at `at` to the event that
    /// freed its core (or to its own arrival, on an idle core), which
    /// is only the true dispatcher when the VM has one event here. A VM
    /// with several replays the loop's rule in emission order: a
    /// completion frees a core and dispatches the oldest request
    /// waiting, and the arrival dispatches itself if a core is free.
    fn emit_group(
        &mut self,
        at: u64,
        ai: &mut usize,
        ci: &mut usize,
        depth: &mut isize,
        observer: &mut Option<Box<dyn EngineObserver>>,
    ) {
        let mut group = std::mem::take(&mut self.group);
        group.clear();
        if *ai < self.arrivals.len() && self.arrivals[*ai].at == at {
            group.push(Ev::Arrival(*ai as u32));
            *ai += 1;
        }
        while *ci < self.keys.len() && self.keys[*ci].0 == at {
            group.push(Ev::Done(self.keys[*ci].1));
            *ci += 1;
        }
        self.plan_replays(&group);
        let size = group.len();
        group.retain(|&ev| match ev {
            Ev::Arrival(_) => true,
            Ev::Done(r) => self.reqs[r as usize].start < at,
        });
        group.sort_unstable_by_key(|&ev| self.parent_key(ev));

        let mut n = 0;
        while n < group.len() {
            let ev = group[n];
            n += 1;
            let pos = n as u32;
            let child = match ev {
                Ev::Arrival(j) => {
                    let a = &mut self.arrivals[j as usize];
                    a.pos = pos;
                    let (vm, direct) = (a.vm, a.direct);
                    *depth -= (vm == RETIRED) as isize;
                    match self.replays.iter().position(|p| p.vm == vm) {
                        Some(i) => self.replay_arrival(i),
                        None => direct,
                    }
                }
                Ev::Done(r) => {
                    let q = &self.reqs[r as usize];
                    complete(q, &mut self.vms[q.vm as usize], &mut self.completed);
                    *depth -= 1;
                    let q = self.reqs[r as usize];
                    match self.replays.iter().position(|p| p.vm == q.vm) {
                        Some(i) => self.replay_completion(i, at),
                        None => q.next,
                    }
                }
            };
            if child != NONE {
                *depth += 1;
                let c = &mut self.reqs[child as usize];
                c.disp_pos = pos;
                if c.done == at {
                    group.push(Ev::Done(child));
                }
            }
            observe(observer, at, *depth);
        }
        debug_assert_eq!(group.len(), size, "every event at the instant ran once");
        debug_assert!(self.replays.iter().all(|p| p.next == p.end));
        self.group = group;
    }

    /// Sets up a dispatch replay for each VM with more than one event in
    /// `group`, unless its arrival took an idle core: then nothing was
    /// waiting, so no completion here dispatches and the links stand.
    fn plan_replays(&mut self, group: &[Ev]) {
        let mut replays = std::mem::take(&mut self.replays);
        let mut waiting = std::mem::take(&mut self.replay_reqs);
        replays.clear();
        waiting.clear();
        for (i, &ev) in group.iter().enumerate() {
            let vm = self.vm_of(ev);
            if vm >= RETIRED || group[..i].iter().any(|&e| self.vm_of(e) == vm) {
                continue;
            }
            let start = waiting.len();
            let (mut events, mut idle_core) = (0, false);
            for &e in group[i..].iter().filter(|&&e| self.vm_of(e) == vm) {
                events += 1;
                match e {
                    Ev::Arrival(j) => idle_core |= self.arrivals[j as usize].direct != NONE,
                    Ev::Done(r) => {
                        let next = self.reqs[r as usize].next;
                        if next != NONE {
                            waiting.push(next);
                        }
                    }
                }
            }
            if events < 2 || idle_core {
                waiting.truncate(start);
                continue;
            }
            waiting[start..].sort_unstable_by_key(|&r| self.reqs[r as usize].arrival);
            replays.push(Replay {
                vm,
                free: 0,
                arrived: false,
                next: start,
                end: waiting.len(),
            });
        }
        self.replays = replays;
        self.replay_reqs = waiting;
    }

    fn vm_of(&self, ev: Ev) -> u32 {
        match ev {
            Ev::Arrival(j) => self.arrivals[j as usize].vm,
            Ev::Done(r) => self.reqs[r as usize].vm,
        }
    }

    /// Replays a completion on replay `i`'s VM at `at`: the core it
    /// frees goes to the oldest request waiting, if any.
    fn replay_completion(&mut self, i: usize, at: u64) -> u32 {
        let p = &mut self.replays[i];
        p.free += 1;
        if p.next < p.end {
            let r = self.replay_reqs[p.next];
            if self.reqs[r as usize].arrival < at || p.arrived {
                p.next += 1;
                p.free -= 1;
                return r;
            }
        }
        NONE
    }

    /// Replays the arrival on replay `i`'s VM: it starts at once if a
    /// core freed here is still unclaimed.
    fn replay_arrival(&mut self, i: usize) -> u32 {
        let p = &mut self.replays[i];
        p.arrived = true;
        if p.free > 0 && p.next < p.end {
            let r = self.replay_reqs[p.next];
            p.next += 1;
            p.free -= 1;
            return r;
        }
        NONE
    }

    /// An event's parent key, then 0 for a dispatch and 1 for an
    /// arrival (the order one handler schedules them in).
    fn parent_key(&self, ev: Ev) -> (Parent, u8) {
        match ev {
            Ev::Arrival(0) => (self.arrival_parent, 1),
            Ev::Arrival(j) => {
                let prev = self.arrivals[j as usize - 1];
                ((prev.at, prev.pos), 1)
            }
            Ev::Done(r) => {
                let q = self.reqs[r as usize];
                ((q.start, q.disp_pos), 0)
            }
        }
    }
}

/// Whether one of the sub-window's `arrivals`, whose low time bits are
/// set in `bits`, falls at `at`.
#[inline]
fn arrival_at(bits: &[u64], arrivals: &[Arrival], at: u64) -> bool {
    let bit = at as usize % ARRIVAL_BITS;
    bits[bit / 64] >> (bit % 64) & 1 == 1 && arrivals.binary_search_by_key(&at, |a| a.at).is_ok()
}

/// Records the completion of `q` on its VM `vm` and in the log.
#[inline]
fn complete(q: &Req, vm: &mut VmState, log: &mut Vec<(SimTime, f64)>) {
    vm.counters
        .advance(q.service_s, q.freq_hz, vm.stall_fraction);
    vm.completed += 1;
    let done = SimTime::from_nanos(q.done);
    log.push((done, (done - SimTime::from_nanos(q.arrival)).as_secs_f64()));
}

/// Sorts `(done, index)` keys by `done`; the order among equal `done`s
/// is left open, because [`Inner::emit_group`] decides it.
///
/// Requests enter `reqs` in about start order, so the keys are nearly
/// sorted and insertion sort takes a move or two per key. Should it
/// spend more than `MOVES_PER_KEY` moves per key, a comparison sort
/// finishes the job.
fn sort_by_done(keys: &mut [(u64, u32)]) {
    const MOVES_PER_KEY: usize = 16;
    let mut budget = MOVES_PER_KEY * keys.len();
    for i in 1..keys.len() {
        let k = keys[i];
        let mut j = i;
        while j > 0 && keys[j - 1].0 > k.0 {
            keys[j] = keys[j - 1];
            j -= 1;
        }
        keys[j] = k;
        budget = budget.saturating_sub(i - j);
        if budget == 0 {
            keys.sort_unstable_by_key(|k| k.0);
            return;
        }
    }
}

/// Emits the arrivals from `arrivals[*ai]` on that fall before `until`
/// to the observer, if any, keeping `depth` and the cursor `ai` in step.
fn observe_arrivals(
    arrivals: &[Arrival],
    until: u64,
    ai: &mut usize,
    depth: &mut isize,
    observer: &mut Option<Box<dyn EngineObserver>>,
) {
    while let Some(a) = arrivals.get(*ai).filter(|a| a.at < until) {
        *depth += (a.direct != NONE) as isize - (a.vm == RETIRED) as isize;
        observe(observer, a.at, *depth);
        *ai += 1;
    }
}

/// Reports one executed event to the observer, if any.
#[inline]
fn observe(observer: &mut Option<Box<dyn EngineObserver>>, at: u64, queue_depth: isize) {
    if let Some(observer) = observer.as_mut() {
        observer.on_event(&EventRecord {
            at: SimTime::from_nanos(at),
            kind: UNLABELED_EVENT,
            queue_depth: queue_depth as usize,
        });
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
    fn removing_a_vm_never_created_reports_not_serving() {
        let mut sim = ClientServerSim::new(19, 0.01, 1.0, 2, 0.1);
        assert!(!sim.remove_vm(0), "no VM yet");
        let a = sim.add_vm();
        for id in [a + 1, 7, usize::MAX] {
            assert!(!sim.remove_vm(id), "id {id}");
        }
        assert_eq!(sim.active_ids(), &[a], "the live VM is untouched");
        sim.set_qps(300.0);
        sim.advance_to(SimTime::from_secs(5));
        assert!(sim.completed_requests() > 0);
        assert!(sim.remove_vm(a));
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

    #[test]
    #[should_panic(expected = "stall fraction is NaN")]
    fn nan_stall_fraction_is_rejected_at_construction() {
        ClientServerSim::new(1, 0.0028, 1.5, 4, f64::NAN);
    }

    #[test]
    fn out_of_range_stall_fractions_clamp() {
        for (stall, productivity) in [(-0.5, 1.0), (1.5, 0.0)] {
            let mut sim = ClientServerSim::new(1, 0.0028, 1.5, 4, stall);
            let vm = sim.add_vm();
            sim.set_qps(100.0);
            let before = sim.sample(vm);
            sim.advance_to(SimTime::from_secs(1));
            let delta = sim.sample(vm).since(&before);
            assert!(
                (delta.productivity() - productivity).abs() < 1e-9,
                "{stall}"
            );
        }
    }
}

/// The discrete-event loop the kernel replaced, kept as its oracle: the
/// one pending arrival in a slot, the completions in an `(at, seq)`
/// min-heap, and every event run in that order with `seq` bumped at
/// each schedule.
#[cfg(test)]
mod reference {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    #[derive(Debug, Clone, Copy)]
    struct InFlight {
        vm: usize,
        service_s: f64,
        arrival: SimTime,
        freq_hz: f64,
    }

    #[derive(Debug)]
    pub(super) struct RefVm {
        freq_ratio: f64,
        share: f64,
        pub queue: VecDeque<(SimTime, f64)>,
        pub busy: u32,
        pub counters: CoreCounters,
        active: bool,
    }

    #[derive(Debug)]
    pub(super) struct Reference {
        pub now: SimTime,
        seq: u64,
        arrival: Option<(SimTime, u64)>,
        heap: BinaryHeap<Reverse<(SimTime, u64, usize)>>,
        /// Every dispatched request, indexed by the slot its completion
        /// carries.
        inflight: Vec<InFlight>,
        pub processed: u64,
        samplers: Samplers,
        qps: f64,
        inv_qps: f64,
        pub vms: Vec<RefVm>,
        active: Vec<usize>,
        rr_next: usize,
        pub log: Vec<(SimTime, f64)>,
        pub dropped: u64,
        vcores: u32,
        stall: f64,
        /// `(at, queue depth)` after every event.
        pub stream: Vec<(SimTime, usize)>,
    }

    impl Reference {
        pub fn new(
            seed: u64,
            mean_s: f64,
            scv: f64,
            vcores: u32,
            stall: f64,
            version: StreamVersion,
        ) -> Self {
            let service = DistKind::from(LogNormal::with_mean_scv(mean_s, scv));
            Reference {
                now: SimTime::ZERO,
                seq: 0,
                arrival: None,
                heap: BinaryHeap::new(),
                inflight: Vec::new(),
                processed: 0,
                samplers: Samplers::new(seed, service, version),
                qps: 0.0,
                inv_qps: 0.0,
                vms: Vec::new(),
                active: Vec::new(),
                rr_next: 0,
                log: Vec::new(),
                dropped: 0,
                vcores,
                stall: stall.clamp(0.0, 1.0),
                stream: Vec::new(),
            }
        }

        fn key(&mut self, delay: SimDuration) -> (SimTime, u64) {
            self.seq += 1;
            (self.now + delay, self.seq - 1)
        }

        pub fn add_vm(&mut self) {
            self.active.push(self.vms.len());
            self.vms.push(RefVm {
                freq_ratio: 1.0,
                share: 1.0,
                queue: VecDeque::new(),
                busy: 0,
                counters: CoreCounters::new(),
                active: true,
            });
        }

        pub fn remove_vm(&mut self, id: usize) {
            if std::mem::replace(&mut self.vms[id].active, false) {
                self.active.retain(|&a| a != id);
            }
        }

        pub fn set_qps(&mut self, qps: f64) {
            self.qps = qps;
            self.inv_qps = if qps > 0.0 { 1.0 / qps } else { 0.0 };
            if qps > 0.0 && self.arrival.is_none() {
                let delay = next_interarrival(&mut self.samplers, qps, self.inv_qps);
                self.arrival = Some(self.key(delay));
            }
        }

        pub fn set_freq_ratio(&mut self, id: usize, ratio: f64) {
            self.vms[id].freq_ratio = ratio;
        }

        pub fn set_share(&mut self, id: usize, share: f64) {
            self.vms[id].share = share;
        }

        pub fn active(&self) -> Vec<usize> {
            self.active.clone()
        }

        pub fn advance_to(&mut self, t: SimTime) {
            loop {
                let top = self.heap.peek().map(|c| (c.0 .0, c.0 .1));
                let (next, is_arrival) = match (self.arrival, top) {
                    (Some(a), Some(c)) if a < c => (a, true),
                    (_, Some(c)) => (c, false),
                    (Some(a), None) => (a, true),
                    (None, None) => break,
                };
                if next.0 > t {
                    break;
                }
                self.now = next.0;
                if is_arrival {
                    self.arrival = None;
                    self.arrive();
                } else {
                    let Reverse((_, _, slot)) = self.heap.pop().expect("peeked");
                    self.complete(slot);
                }
                self.processed += 1;
                let depth = self.heap.len() + self.arrival.is_some() as usize;
                self.stream.push((self.now, depth));
            }
            if t != SimTime::MAX && t > self.now {
                self.now = t;
            }
        }

        fn arrive(&mut self) {
            if self.qps <= 0.0 {
                return;
            }
            let demand_s = self.samplers.demand_s();
            if self.active.is_empty() {
                self.dropped += 1;
            } else {
                let pos = self.rr_next % self.active.len();
                self.rr_next = (pos + 1) % self.active.len();
                let vm = self.active[pos];
                self.vms[vm].queue.push_back((self.now, demand_s));
                self.try_dispatch(vm);
            }
            let delay = next_interarrival(&mut self.samplers, self.qps, self.inv_qps);
            self.arrival = Some(self.key(delay));
        }

        fn try_dispatch(&mut self, id: usize) {
            while self.vms[id].busy < self.vcores {
                let Some((arrival, demand_s)) = self.vms[id].queue.pop_front() else {
                    return;
                };
                let vm = &mut self.vms[id];
                vm.busy += 1;
                let service_s = demand_s / (vm.freq_ratio * vm.share);
                self.inflight.push(InFlight {
                    vm: id,
                    service_s,
                    arrival,
                    freq_hz: BASE_FREQ_HZ * vm.freq_ratio,
                });
                let (at, seq) = self.key(self.samplers.service_dur(service_s));
                self.heap.push(Reverse((at, seq, self.inflight.len() - 1)));
            }
        }

        fn complete(&mut self, slot: usize) {
            let r = self.inflight[slot];
            let vm = &mut self.vms[r.vm];
            vm.busy -= 1;
            vm.counters.advance(r.service_s, r.freq_hz, self.stall);
            self.log
                .push((self.now, (self.now - r.arrival).as_secs_f64()));
            self.try_dispatch(r.vm);
        }
    }
}

/// The kernel against [`reference`], and against itself split
/// differently.
#[cfg(test)]
mod oracle {
    use super::reference::Reference;
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Advance(u64),
        AddVm,
        RemoveVm(usize),
        Qps(f64),
        Freq(usize, f64),
        FreqAll(f64),
        Share(usize, f64),
        ShareAll(f64),
    }

    /// Everything the simulation exposes, read after an advance.
    #[derive(Debug, PartialEq)]
    struct Snapshot {
        now: SimTime,
        events: u64,
        dropped: u64,
        log: Vec<(SimTime, f64)>,
        /// Per VM: counters, queue depth, requests in service.
        vms: Vec<(CounterSample, usize, u32)>,
        /// The observer's `(at, queue depth)` records.
        stream: Vec<(SimTime, usize)>,
    }

    /// The observer records, shared between the observer and the test.
    type Records = Rc<RefCell<Vec<(SimTime, usize)>>>;

    struct Collect(Records);

    impl EngineObserver for Collect {
        fn on_event(&mut self, r: &EventRecord) {
            self.0.borrow_mut().push((r.at, r.queue_depth));
        }
    }

    /// One oracle run: a seeded script on a fleet shape.
    #[derive(Debug, Clone, Copy)]
    struct Case {
        seed: u64,
        vms: usize,
        vcores: u32,
        /// Offered load per core.
        load: f64,
        version: StreamVersion,
        /// Nanosecond-scale service, so events tie constantly.
        ns: bool,
    }

    impl Case {
        fn mean_s(&self) -> f64 {
            if self.ns {
                3e-9
            } else {
                1e-3
            }
        }

        /// 40 advances of about 75 arrivals, one in eight of them about
        /// 750 (several sub-windows), each followed by a random actuation
        /// most of the time.
        fn script(&self) -> Vec<Op> {
            let mut rng = SimRng::stream(self.seed, 7);
            let qps = self.load * (self.vms as f64 * self.vcores as f64) / self.mean_s();
            let span_ns = 3000.0 / qps * 1e9;
            let mut ops: Vec<Op> = (0..self.vms).map(|_| Op::AddVm).collect();
            ops.push(Op::Qps(qps));
            let (mut t, mut vms) = (0u64, self.vms);
            for _ in 0..40 {
                t += match rng.next_u64() % 8 {
                    0 => 0,
                    1 => 1,
                    2 => (rng.uniform() * span_ns / 2.0) as u64,
                    _ => (rng.uniform() * span_ns / 20.0) as u64,
                };
                ops.push(Op::Advance(t));
                let vm = rng.next_u64() as usize % vms;
                let x = rng.uniform_range(0.5, 1.5);
                ops.extend(match rng.next_u64() % 10 {
                    0 => vec![Op::Freq(vm, x)],
                    1 => vec![Op::FreqAll(x)],
                    2 => vec![Op::Share(vm, x / 1.5)],
                    3 => vec![Op::ShareAll(x / 1.5)],
                    4 => {
                        vms += 1;
                        vec![Op::AddVm]
                    }
                    5 => vec![Op::RemoveVm(vm)],
                    6 => vec![Op::Qps(0.0)],
                    7 => vec![Op::Qps(0.0), Op::Qps(qps * x)],
                    8 => vec![Op::Qps(qps * x)],
                    _ => vec![],
                });
            }
            ops
        }

        /// The kernel for this case, with an observer attached if
        /// `observed` (the records stay empty otherwise).
        fn kernel(&self, observed: bool) -> (ClientServerSim, Records) {
            let mut sim = ClientServerSim::with_stream_version(
                self.seed,
                self.mean_s(),
                1.5,
                self.vcores,
                0.2,
                self.version,
            );
            let stream = Rc::new(RefCell::new(Vec::new()));
            if observed {
                sim.set_observer(Box::new(Collect(Rc::clone(&stream))));
            }
            (sim, stream)
        }
    }

    fn apply(sim: &mut ClientServerSim, op: Op) {
        match op {
            Op::Advance(t) => sim.advance_to(SimTime::from_nanos(t)),
            Op::AddVm => {
                sim.add_vm();
            }
            Op::RemoveVm(id) => {
                sim.remove_vm(id);
            }
            Op::Qps(q) => sim.set_qps(q),
            Op::Freq(id, r) => sim.set_freq_ratio(id, r),
            Op::FreqAll(r) => sim.set_freq_ratio_all(r),
            Op::Share(id, s) => sim.set_share(id, s),
            Op::ShareAll(s) => sim.set_share_all(s),
        }
    }

    fn snapshot(sim: &mut ClientServerSim, stream: &RefCell<Vec<(SimTime, usize)>>) -> Snapshot {
        Snapshot {
            now: sim.now(),
            events: sim.events_processed(),
            dropped: sim.dropped_requests(),
            log: sim.take_completions(),
            vms: (0..sim.inner.vms.len())
                .map(|id| (sim.sample(id), sim.queue_depth(id), sim.in_service(id)))
                .collect(),
            stream: std::mem::take(&mut *stream.borrow_mut()),
        }
    }

    fn apply_reference(r: &mut Reference, op: Op) {
        match op {
            Op::Advance(t) => r.advance_to(SimTime::from_nanos(t)),
            Op::AddVm => r.add_vm(),
            Op::RemoveVm(id) => r.remove_vm(id),
            Op::Qps(q) => r.set_qps(q),
            Op::Freq(id, x) => r.set_freq_ratio(id, x),
            Op::FreqAll(x) => r
                .active()
                .into_iter()
                .for_each(|id| r.set_freq_ratio(id, x)),
            Op::Share(id, x) => r.set_share(id, x),
            Op::ShareAll(x) => r.active().into_iter().for_each(|id| r.set_share(id, x)),
        }
    }

    fn reference_snapshot(r: &mut Reference) -> Snapshot {
        let now_s = r.now.as_secs_f64();
        Snapshot {
            now: r.now,
            events: r.processed,
            dropped: r.dropped,
            log: std::mem::take(&mut r.log),
            vms: r
                .vms
                .iter()
                .map(|vm| (vm.counters.sample(now_s), vm.queue.len(), vm.busy))
                .collect(),
            stream: std::mem::take(&mut r.stream),
        }
    }

    /// Runs `case` on the reference and on two kernels, one observed and
    /// one not, comparing after every advance; returns the first
    /// difference. The kernel merges arrivals into its walk only for an
    /// observer, so the unobserved one, which matches everything but the
    /// observer stream, checks the path production runs take.
    fn differ(case: Case) -> Result<u64, String> {
        let (mut sim, stream) = case.kernel(true);
        let (mut bare, no_stream) = case.kernel(false);
        let mut r = Reference::new(
            case.seed,
            case.mean_s(),
            1.5,
            case.vcores,
            0.2,
            case.version,
        );
        for (step, op) in case.script().into_iter().enumerate() {
            apply(&mut sim, op);
            apply(&mut bare, op);
            apply_reference(&mut r, op);
            if let Op::Advance(_) = op {
                let (got, want) = (snapshot(&mut sim, &stream), reference_snapshot(&mut r));
                if got != want {
                    return Err(format!("{case:?} differs at step {step} ({op:?})"));
                }
                let unobserved = Snapshot {
                    stream: Vec::new(),
                    ..want
                };
                if snapshot(&mut bare, &no_stream) != unobserved {
                    return Err(format!(
                        "{case:?} differs unobserved at step {step} ({op:?})"
                    ));
                }
            }
        }
        Ok(sim.events_processed())
    }

    fn grid() -> Vec<Case> {
        let mut cases = Vec::new();
        for vms in [1, 4, 16, 256] {
            for vcores in [1, 4] {
                for load in [0.5, 1.5] {
                    for version in [StreamVersion::V1, StreamVersion::V2] {
                        for ns in [false, true] {
                            let seed = 1 + cases.len() as u64;
                            cases.push(Case {
                                seed,
                                vms,
                                vcores,
                                load,
                                version,
                                ns,
                            });
                        }
                    }
                }
            }
        }
        cases
    }

    #[test]
    fn kernel_matches_the_event_loop_on_a_seeded_grid() {
        let cases = grid();
        let n = cases.len();
        let results = ic_par::pool().scatter_gather(cases, |_, case| differ(case));
        let mut events = 0;
        for result in results {
            events += result.unwrap_or_else(|e| panic!("{e}"));
        }
        // Every case ran, and the grid is not trivially small.
        assert!(events > 200 * n as u64, "{events} events over {n} cases");
    }

    /// Replaces each advance with a few advances to random earlier
    /// instants first.
    fn split(ops: &[Op], seed: u64) -> Vec<Op> {
        let mut rng = SimRng::stream(seed, 11);
        let mut out = Vec::new();
        let mut last = 0;
        for &op in ops {
            if let Op::Advance(t) = op {
                let mut cuts: Vec<u64> = (0..rng.next_u64() % 6)
                    .map(|_| last + rng.next_u64() % (t - last + 1))
                    .collect();
                cuts.sort_unstable();
                out.extend(cuts.into_iter().map(Op::Advance));
                last = t;
            }
            out.push(op);
        }
        out
    }

    #[test]
    fn any_split_of_an_advance_gives_the_same_run() {
        let cases: Vec<Case> = grid().into_iter().step_by(3).collect();
        let results = ic_par::pool().scatter_gather(cases, |_, case| {
            let whole = case.script();
            let parts = split(&whole, case.seed);
            // One snapshot per run of advances with no actuation between.
            let run = |ops: &[Op], observed: bool| {
                let (mut sim, stream) = case.kernel(observed);
                let mut snaps: Vec<Snapshot> = Vec::new();
                let mut merge = false;
                for &op in ops {
                    apply(&mut sim, op);
                    if !matches!(op, Op::Advance(_)) {
                        merge = false;
                        continue;
                    }
                    let mut s = snapshot(&mut sim, &stream);
                    if let Some(last) = snaps.last_mut().filter(|_| merge) {
                        last.log.append(&mut s.log);
                        last.stream.append(&mut s.stream);
                        s.log = std::mem::take(&mut last.log);
                        s.stream = std::mem::take(&mut last.stream);
                        *last = s;
                    } else {
                        snaps.push(s);
                    }
                    merge = true;
                }
                snaps
            };
            let same = [true, false]
                .into_iter()
                .all(|observed| run(&whole, observed) == run(&parts, observed));
            (same, case)
        });
        for (same, case) in results {
            assert!(same, "{case:?}: splitting an advance changed the run");
        }
    }

    #[test]
    #[should_panic(expected = "would never return")]
    fn advancing_to_the_end_of_time_under_load_panics() {
        let mut sim = ClientServerSim::new(3, 0.001, 1.0, 4, 0.1);
        sim.add_vm();
        sim.set_qps(10.0);
        sim.advance_to(SimTime::MAX);
    }

    #[test]
    fn advancing_to_the_end_of_time_idle_drains_everything() {
        let mut sim = ClientServerSim::new(3, 0.01, 1.0, 1, 0.1);
        let vm = sim.add_vm();
        sim.set_qps(500.0);
        sim.advance_to(SimTime::from_secs(1));
        assert!(sim.queue_depth(vm) > 0, "overloaded VM queues");
        sim.set_qps(0.0);
        let before = sim.now();
        sim.advance_to(SimTime::MAX);
        assert_eq!((sim.queue_depth(vm), sim.in_service(vm)), (0, 0));
        assert!(sim.now() > before && sim.now() < SimTime::MAX);
    }
}
