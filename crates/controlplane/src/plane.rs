//! The [`ControlPlane`] scheduler: N controllers, independent cadences,
//! one clock.
//!
//! Each registered controller's tick is a first-class `ic-sim` event
//! (`kind = "control_tick"`) on the control plane's own engine, so
//! interleaving between controllers is governed by the engine's
//! deterministic (time, insertion-seq) order — never by iteration over
//! a hash map or by wall clock. The managed [`World`] is advanced
//! lazily to each tick time, which reproduces the classic
//! "advance-then-decide" loop the bespoke harnesses used, including the
//! trailing partial window when the horizon does not divide the
//! cadence.

use crate::action::{Action, Outcome};
use crate::controller::{Controller, TickReport, World};
use ic_obs::flight::TraceLevel;
use ic_obs::json::Value;
use ic_obs::ObsSinks;
use ic_sim::engine::Engine;
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

struct CpState<W> {
    world: W,
    entries: Vec<Entry>,
    deferred: VecDeque<Deferred>,
    sinks: ObsSinks,
    ticks_total: u64,
}

/// The control-plane runtime: registers [`Controller`]s at independent
/// cadences and drives them against one [`World`] off one clock.
pub struct ControlPlane<W: World + 'static> {
    engine: Engine<CpState<W>>,
    state: CpState<W>,
}

impl<W: World + 'static> ControlPlane<W> {
    /// A runtime over `world` with no controllers yet.
    pub fn new(world: W) -> Self {
        ControlPlane {
            engine: Engine::new(),
            state: CpState {
                world,
                entries: Vec::new(),
                deferred: VecDeque::new(),
                sinks: ObsSinks::none(),
                ticks_total: 0,
            },
        }
    }

    /// Attaches observability sinks; the runtime emits a debug-level
    /// `tick` event and `cp_ticks_total` counters through them. With no
    /// sinks attached the runtime records nothing — a ported harness is
    /// byte-identical to its hand-written predecessor.
    pub fn attach_sinks(&mut self, sinks: ObsSinks) {
        self.state.sinks = sinks;
    }

    /// Registers `controller` to tick every `cadence` (first tick one
    /// cadence after the clock when [`ControlPlane::run_until`] is next
    /// called). Ties at the same instant fire in registration order.
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
            last_tick: self.engine.now(),
            ticks: 0,
            scheduled: false,
        });
        ControllerId(self.state.entries.len() - 1)
    }

    /// The control-plane clock.
    pub fn now(&self) -> SimTime {
        self.engine.now()
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

    /// Control-plane engine events processed (tick events only; the
    /// world's own engines count their events separately).
    pub fn events_processed(&self) -> u64 {
        self.engine.events_processed()
    }

    /// Schedules every entry of `plan` as a DES event (`kind =
    /// "fault"`) that applies its action to the world at its exact
    /// instant — after any controller tick scheduled for the same time
    /// (faults are inserted later, and ties fire in insertion order).
    /// No controller owns these actions, so no `applied` notification
    /// fires; controllers see the effects through telemetry.
    pub fn schedule_faults(&mut self, plan: FaultPlan) {
        for (at, action) in plan.entries {
            self.engine
                .schedule_labeled(at, "fault", move |state, engine| {
                    let now = engine.now();
                    state.world.pre_tick(now);
                    state.world.advance_to(now);
                    let outcome = state.world.apply(now, "fault", &action);
                    if !state.sinks.is_quiet() {
                        state.sinks.instant(
                            now,
                            "chaos",
                            TraceLevel::Info,
                            "fault",
                            vec![
                                ("verb", Value::Str(action.verb().to_string())),
                                ("accepted", Value::Bool(outcome.accepted())),
                            ],
                        );
                    }
                });
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
        let now = self.engine.now();
        for idx in 0..self.state.entries.len() {
            let entry = &mut self.state.entries[idx];
            if !entry.scheduled {
                entry.scheduled = true;
                let cadence = entry.cadence;
                Self::schedule_tick(&mut self.engine, now + cadence, idx);
            }
        }
        self.engine.run_until(&mut self.state, end);
        for idx in 0..self.state.entries.len() {
            if self.state.entries[idx].last_tick < end {
                Self::run_tick(&mut self.state, end, idx);
            }
        }
        self.state.world.advance_to(end);
    }

    fn schedule_tick(engine: &mut Engine<CpState<W>>, at: SimTime, idx: usize) {
        engine.schedule_labeled(at, "control_tick", move |state, engine| {
            let now = engine.now();
            Self::run_tick(state, now, idx);
            let cadence = state.entries[idx].cadence;
            Self::schedule_tick(engine, now + cadence, idx);
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
        if !state.sinks.is_quiet() {
            state.sinks.instant(
                now,
                "controlplane",
                TraceLevel::Debug,
                "tick",
                vec![
                    ("controller", Value::Str(source.to_string())),
                    ("decided", Value::U64(decided as u64)),
                ],
            );
            if let Some(metrics) = state.sinks.metrics() {
                let mut m = metrics.borrow_mut();
                m.counter_add("cp_ticks_total", 1);
                if decided > 0 {
                    m.counter_add("cp_actions_total", decided as u64);
                }
            }
        }
        let CpState { world, entries, .. } = state;
        world.post_tick(now, entries[idx].controller.as_ref(), &report);
        state.entries[idx].last_tick = now;
        state.entries[idx].ticks += 1;
        state.ticks_total += 1;
    }

    /// Matures every deferred scale-out due by `now`, in decision
    /// order, *before* telemetry is assembled — the newborn VM must be
    /// sampled (and share the load) from its creation tick onward, as
    /// the original `AutoScaler::step` maturation did.
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
