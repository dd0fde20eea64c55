//! The [`ControlPlane`] scheduler: N controllers, independent cadences,
//! one clock.
//!
//! Each registered controller's tick is a first-class event on the
//! control plane's own [`EventQueue`], so interleaving between
//! controllers is governed by the queue's deterministic (time,
//! scheduling-seq) order — never by iteration over a hash map or by
//! wall clock. The managed [`World`] is advanced lazily to each tick
//! time, which reproduces the classic "advance-then-decide" loop the
//! bespoke harnesses used, including the trailing partial window when
//! the horizon does not divide the cadence.

use crate::action::{Action, Outcome};
use crate::controller::{Controller, TickReport, World};
use ic_obs::flight::TraceLevel;
use ic_obs::json::Value;
use ic_obs::ObsSinks;
use ic_sim::queue::EventQueue;
use ic_sim::time::{SimDuration, SimTime};
use std::collections::VecDeque;

/// Handle to a registered controller, returned by
/// [`ControlPlane::register`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControllerId(usize);

/// A time-ordered list of fault actuations, scheduled into the control
/// plane as ordinary DES events by [`ControlPlane::schedule_faults`].
///
/// Unlike a `ScriptController` (which fires at its own tick *after* its
/// time passes), plan entries land on the world at their exact instant,
/// between controller ticks — the actuation path for exogenous faults
/// like telemetry freezes and sensor dropouts.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    entries: Vec<(SimTime, Action)>,
}

impl FaultPlan {
    /// A plan from `(at, action)` pairs; entries are sorted by time
    /// (stable, so same-instant entries keep their given order).
    pub fn new(mut entries: Vec<(SimTime, Action)>) -> Self {
        entries.sort_by_key(|&(at, _)| at);
        FaultPlan { entries }
    }

    /// Entries in firing order.
    pub fn entries(&self) -> &[(SimTime, Action)] {
        &self.entries
    }

    /// Whether the plan schedules anything at all.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

struct Entry {
    controller: Box<dyn Controller>,
    cadence: SimDuration,
    last_tick: SimTime,
    ticks: u64,
    scheduled: bool,
}

/// A decided [`Action::ScaleOut`] waiting out its provisioning latency.
struct Deferred {
    due: SimTime,
    owner: usize,
    action: Action,
}

/// One control-plane event: a controller's tick, or a fault-plan
/// entry. Each indexes into [`CpState`].
#[derive(Debug, Clone, Copy)]
enum CpEvent {
    /// Tick the controller at this index of `entries`.
    Tick(usize),
    /// Apply the action at this index of `faults`.
    Fault(usize),
}

struct CpState<W> {
    world: W,
    entries: Vec<Entry>,
    deferred: VecDeque<Deferred>,
    faults: Vec<Action>,
    sinks: ObsSinks,
    ticks_total: u64,
}

/// The control-plane runtime: registers [`Controller`]s at independent
/// cadences and drives them against one [`World`] off one clock.
pub struct ControlPlane<W: World> {
    queue: EventQueue<CpEvent>,
    state: CpState<W>,
}

impl<W: World> ControlPlane<W> {
    /// A runtime over `world` with no controllers yet.
    pub fn new(world: W) -> Self {
        ControlPlane {
            queue: EventQueue::new(),
            state: CpState {
                world,
                entries: Vec::new(),
                deferred: VecDeque::new(),
                faults: Vec::new(),
                sinks: ObsSinks::none(),
                ticks_total: 0,
            },
        }
    }

    /// Attaches the observability bundle. With a flight recorder, every
    /// controller tick leaves a debug-level `controlplane`/`tick`
    /// instant (the controller and how many actions it decided) and
    /// every scheduled fault a `chaos`/`fault` instant. Detached, the
    /// runtime records nothing and builds no field list — a ported
    /// harness is byte-identical to its hand-written predecessor.
    pub fn attach_sinks(&mut self, sinks: ObsSinks) {
        self.state.sinks = sinks;
    }

    /// Registers `controller` to tick every `cadence` (first tick one
    /// cadence after the clock when [`ControlPlane::run_until`] is next
    /// called). Events at the same instant — ticks and faults alike —
    /// fire in the order they were scheduled. A controller's next tick
    /// is scheduled when its current one runs, so first ticks follow
    /// registration order, controllers sharing a cadence keep it, and
    /// otherwise the controller whose previous tick ran earlier goes
    /// first.
    ///
    /// # Panics
    ///
    /// Panics if `cadence` is zero.
    pub fn register(
        &mut self,
        controller: Box<dyn Controller>,
        cadence: SimDuration,
    ) -> ControllerId {
        assert!(!cadence.is_zero(), "controller cadence must be positive");
        self.state.entries.push(Entry {
            controller,
            cadence,
            last_tick: self.queue.now(),
            ticks: 0,
            scheduled: false,
        });
        ControllerId(self.state.entries.len() - 1)
    }

    /// The control-plane clock.
    pub fn now(&self) -> SimTime {
        self.queue.now()
    }

    /// The managed world.
    pub fn world(&self) -> &W {
        &self.state.world
    }

    /// The managed world, mutably (setup only — mutating mid-run from
    /// outside a controller forfeits determinism guarantees).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.state.world
    }

    /// Consumes the runtime, returning the world (for result
    /// extraction after the horizon).
    pub fn into_world(self) -> W {
        self.state.world
    }

    /// Downcasts a registered controller to its concrete type.
    pub fn controller<T: 'static>(&self, id: ControllerId) -> Option<&T> {
        self.state
            .entries
            .get(id.0)?
            .controller
            .as_any()
            .downcast_ref()
    }

    /// Mutable variant of [`ControlPlane::controller`].
    pub fn controller_mut<T: 'static>(&mut self, id: ControllerId) -> Option<&mut T> {
        self.state
            .entries
            .get_mut(id.0)?
            .controller
            .as_any_mut()
            .downcast_mut()
    }

    /// Ticks executed by the controller behind `id`.
    pub fn ticks(&self, id: ControllerId) -> u64 {
        self.state.entries.get(id.0).map_or(0, |e| e.ticks)
    }

    /// Ticks executed across all controllers.
    pub fn ticks_total(&self) -> u64 {
        self.state.ticks_total
    }

    /// Control-plane queue events processed (controller ticks and
    /// fault-plan entries, not the trailing ticks at a horizon; the
    /// world's own simulations count their events separately).
    pub fn events_processed(&self) -> u64 {
        self.queue.events_processed()
    }

    /// Schedules every entry of `plan` as a queue event that applies its
    /// action to the world at its exact instant. Same-instant events
    /// fire in scheduling order: a fault lands after any tick already
    /// pending for its instant and before any tick scheduled later, so
    /// a plan scheduled before the first [`ControlPlane::run_until`]
    /// precedes every controller tick at the same instant. No
    /// controller owns these actions, so no `applied` notification
    /// fires; controllers see the effects through telemetry.
    pub fn schedule_faults(&mut self, plan: FaultPlan) {
        for (at, action) in plan.entries {
            let idx = self.state.faults.len();
            self.state.faults.push(action);
            self.queue.schedule(at, CpEvent::Fault(idx));
        }
    }

    /// Runs every registered controller against the world up to `end`
    /// (inclusive), then advances the world itself to `end`.
    ///
    /// Controllers whose cadence does not divide the horizon get one
    /// trailing partial-window tick at `end`, exactly like the
    /// hand-written `while t < end { t = (t + period).min(end); … }`
    /// loops this runtime replaces.
    pub fn run_until(&mut self, end: SimTime) {
        let now = self.queue.now();
        for (idx, entry) in self.state.entries.iter_mut().enumerate() {
            if !entry.scheduled {
                entry.scheduled = true;
                self.queue.schedule(now + entry.cadence, CpEvent::Tick(idx));
            }
        }
        while let Some(event) = self.queue.pop_at_most(end) {
            let now = self.queue.now();
            match event {
                CpEvent::Tick(idx) => {
                    Self::run_tick(&mut self.state, now, idx);
                    let cadence = self.state.entries[idx].cadence;
                    self.queue.schedule(now + cadence, CpEvent::Tick(idx));
                }
                CpEvent::Fault(idx) => Self::run_fault(&mut self.state, now, idx),
            }
        }
        self.queue.advance_to(end);
        for idx in 0..self.state.entries.len() {
            if self.state.entries[idx].last_tick < end {
                Self::run_tick(&mut self.state, end, idx);
            }
        }
        self.state.world.advance_to(end);
    }

    fn run_fault(state: &mut CpState<W>, now: SimTime, idx: usize) {
        state.world.pre_tick(now);
        state.world.advance_to(now);
        let action = &state.faults[idx];
        let outcome = state.world.apply(now, "fault", action);
        state
            .sinks
            .instant(now, "chaos", TraceLevel::Info, "fault", || {
                vec![
                    ("verb", Value::Str(action.verb().to_string())),
                    ("accepted", Value::Bool(outcome.accepted())),
                ]
            });
    }

    fn run_tick(state: &mut CpState<W>, now: SimTime, idx: usize) {
        state.world.pre_tick(now);
        state.world.advance_to(now);
        Self::mature_deferred(state, now);

        let snapshot = state.world.telemetry(now);
        let source = state.entries[idx].controller.name();
        let actions = state.entries[idx].controller.observe(snapshot);
        let decided = actions.len();
        for action in &actions {
            let outcome = state.world.apply(now, source, action);
            if let Action::ScaleOut { latency, .. } = action {
                if outcome.accepted() {
                    state.deferred.push_back(Deferred {
                        due: now + *latency,
                        owner: idx,
                        action: action.clone(),
                    });
                }
            }
            Self::notify_applied(state, idx, now, action, &outcome);
        }

        let report = TickReport {
            at: now,
            controller: source,
            window_start: state.entries[idx].last_tick,
            decided,
        };
        state
            .sinks
            .instant(now, "controlplane", TraceLevel::Debug, "tick", || {
                vec![
                    ("controller", Value::Str(source.to_string())),
                    ("decided", Value::U64(decided as u64)),
                ]
            });
        let CpState { world, entries, .. } = state;
        world.post_tick(now, entries[idx].controller.as_ref(), &report);
        state.entries[idx].last_tick = now;
        state.entries[idx].ticks += 1;
        state.ticks_total += 1;
    }

    /// Matures every deferred scale-out due by `now`, in decision
    /// order, *before* telemetry is assembled — the newborn VM must be
    /// sampled (and share the load) from its creation tick onward.
    fn mature_deferred(state: &mut CpState<W>, now: SimTime) {
        let mut i = 0;
        while i < state.deferred.len() {
            if state.deferred[i].due > now {
                i += 1;
                continue;
            }
            let d = state.deferred.remove(i).expect("index in bounds");
            let outcome = state.world.complete_scale_out(now);
            Self::notify_applied(state, d.owner, now, &d.action, &outcome);
        }
    }

    /// Routes an outcome back to the owning controller and applies any
    /// follow-up actions once (follow-ups of follow-ups are dropped —
    /// actuation chains must be finite by construction).
    fn notify_applied(
        state: &mut CpState<W>,
        owner: usize,
        now: SimTime,
        action: &Action,
        outcome: &Outcome,
    ) {
        let source = state.entries[owner].controller.name();
        let follow = state.entries[owner]
            .controller
            .applied(now, action, outcome);
        for fa in follow {
            let fo = state.world.apply(now, source, &fa);
            let _ = state.entries[owner].controller.applied(now, &fa, &fo);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::TelemetrySnapshot;
    use std::cell::RefCell;
    use std::rc::Rc;

    type Log = Rc<RefCell<Vec<(u64, &'static str)>>>;

    /// A world that logs every applied action under its source.
    struct LogWorld {
        now: SimTime,
        snapshot: TelemetrySnapshot,
        log: Log,
    }

    impl World for LogWorld {
        fn now(&self) -> SimTime {
            self.now
        }

        fn advance_to(&mut self, t: SimTime) {
            self.now = t;
        }

        fn telemetry(&mut self, now: SimTime) -> &TelemetrySnapshot {
            self.snapshot.now = now;
            &self.snapshot
        }

        fn apply(&mut self, now: SimTime, source: &'static str, _action: &Action) -> Outcome {
            self.log
                .borrow_mut()
                .push((now.as_nanos() / 1_000_000_000, source));
            Outcome::Applied
        }

        fn complete_scale_out(&mut self, _now: SimTime) -> Outcome {
            Outcome::Applied
        }
    }

    /// A controller that logs every observe call and decides nothing.
    struct LogController {
        name: &'static str,
        log: Log,
    }

    impl Controller for LogController {
        fn name(&self) -> &'static str {
            self.name
        }

        fn observe(&mut self, snapshot: &TelemetrySnapshot) -> Vec<Action> {
            self.log
                .borrow_mut()
                .push((snapshot.now.as_nanos() / 1_000_000_000, self.name));
            Vec::new()
        }

        crate::impl_controller_downcast!();
    }

    #[test]
    fn same_instant_events_fire_in_scheduling_order() {
        let log = Log::default();
        let mut plane = ControlPlane::new(LogWorld {
            now: SimTime::ZERO,
            snapshot: TelemetrySnapshot::default(),
            log: Rc::clone(&log),
        });
        for (name, secs) in [("a2", 2), ("b3", 3)] {
            let controller = LogController {
                name,
                log: Rc::clone(&log),
            };
            plane.register(Box::new(controller), SimDuration::from_secs(secs));
        }
        let freeze = |secs| {
            (
                SimTime::from_secs(secs),
                Action::FreezeTelemetry {
                    until: SimTime::from_secs(secs + 1),
                },
            )
        };
        plane.schedule_faults(FaultPlan::new(vec![freeze(2), freeze(6)]));
        plane.run_until(SimTime::from_secs(7));

        // At 2 s the fault (scheduled before the run) precedes a2's first
        // tick; at 6 s b3's tick (scheduled at 3 s) precedes a2's
        // (scheduled at 4 s), not registration order. The trailing ticks
        // at the horizon run after the queue drains.
        assert_eq!(
            *log.borrow(),
            vec![
                (2, "fault"),
                (2, "a2"),
                (3, "b3"),
                (4, "a2"),
                (6, "fault"),
                (6, "b3"),
                (6, "a2"),
                (7, "a2"),
                (7, "b3"),
            ]
        );
        assert_eq!(plane.events_processed(), 7);
        assert_eq!(plane.ticks_total(), 7);
    }
}
