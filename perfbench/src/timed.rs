//! Host-clock wrappers that time each layer from outside the program.
//!
//! [`TimedWorld`] implements [`World`] by delegation and times every
//! call the control plane makes into the world; [`TimedController`]
//! does the same for [`Controller::observe`] and
//! [`Controller::applied`]. Neither changes what the wrapped code
//! computes, so a traced run must reproduce the untraced digest.

use ic_controlplane::{
    Action, Controller, FleetWorld, Outcome, TelemetrySnapshot, TickReport, World,
};
use ic_sim::time::SimTime;
use std::any::Any;
use std::cell::Cell;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Busy time and call count of one timed boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Stat {
    pub ns: u64,
    pub calls: u64,
}

impl Stat {
    fn add(&mut self, elapsed: Duration) {
        self.ns += elapsed.as_nanos() as u64;
        self.calls += 1;
    }

    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// What a [`TimedWorld`] measured.
#[derive(Debug, Default)]
pub struct WorldProfile {
    pub advance: Stat,
    pub pre_tick: Stat,
    pub telemetry: Stat,
    pub apply: Stat,
    pub complete_scale_out: Stat,
    /// `apply` split by [`Action::verb`], in first-seen order.
    pub verbs: Vec<(&'static str, Stat)>,
    /// Applies the world declined.
    pub rejected: u64,
    /// VM rows handed out across all telemetry reads.
    pub vm_rows: u64,
}

impl WorldProfile {
    /// Time inside every timed world call.
    pub fn total_ns(&self) -> u64 {
        self.advance.ns
            + self.pre_tick.ns
            + self.telemetry.ns
            + self.apply.ns
            + self.complete_scale_out.ns
    }

    /// The per-verb stat, zero if the verb never ran.
    pub fn verb(&self, verb: &str) -> Stat {
        self.verbs
            .iter()
            .find(|(v, _)| *v == verb)
            .map_or_else(Stat::default, |(_, s)| *s)
    }
}

/// A [`World`] that times every call into the wrapped world.
pub struct TimedWorld<W> {
    inner: W,
    pub profile: WorldProfile,
}

impl<W> TimedWorld<W> {
    pub fn new(inner: W) -> Self {
        TimedWorld {
            inner,
            profile: WorldProfile::default(),
        }
    }
}

impl<W: World> World for TimedWorld<W> {
    fn now(&self) -> SimTime {
        self.inner.now()
    }

    fn advance_to(&mut self, t: SimTime) {
        let start = Instant::now();
        self.inner.advance_to(t);
        self.profile.advance.add(start.elapsed());
    }

    fn pre_tick(&mut self, tick_at: SimTime) {
        let start = Instant::now();
        self.inner.pre_tick(tick_at);
        self.profile.pre_tick.add(start.elapsed());
    }

    fn telemetry(&mut self, now: SimTime) -> &TelemetrySnapshot {
        let start = Instant::now();
        let snapshot = self.inner.telemetry(now);
        self.profile.telemetry.add(start.elapsed());
        self.profile.vm_rows += snapshot.vms.len() as u64;
        snapshot
    }

    fn apply(&mut self, now: SimTime, source: &'static str, action: &Action) -> Outcome {
        let start = Instant::now();
        let outcome = self.inner.apply(now, source, action);
        let elapsed = start.elapsed();
        self.profile.apply.add(elapsed);
        let verb = action.verb();
        match self.profile.verbs.iter_mut().find(|(v, _)| *v == verb) {
            Some((_, stat)) => stat.add(elapsed),
            None => {
                let mut stat = Stat::default();
                stat.add(elapsed);
                self.profile.verbs.push((verb, stat));
            }
        }
        if !outcome.accepted() {
            self.profile.rejected += 1;
        }
        outcome
    }

    fn complete_scale_out(&mut self, now: SimTime) -> Outcome {
        let start = Instant::now();
        let outcome = self.inner.complete_scale_out(now);
        self.profile.complete_scale_out.add(start.elapsed());
        outcome
    }

    fn post_tick(&mut self, now: SimTime, controller: &dyn Controller, report: &TickReport) {
        self.inner.post_tick(now, controller, report);
    }
}

/// Gives result extraction the fleet behind either world type.
pub trait AsFleet {
    fn fleet(&self) -> &FleetWorld;
    fn fleet_mut(&mut self) -> &mut FleetWorld;
}

impl AsFleet for FleetWorld {
    fn fleet(&self) -> &FleetWorld {
        self
    }
    fn fleet_mut(&mut self) -> &mut FleetWorld {
        self
    }
}

impl AsFleet for TimedWorld<FleetWorld> {
    fn fleet(&self) -> &FleetWorld {
        &self.inner
    }
    fn fleet_mut(&mut self) -> &mut FleetWorld {
        &mut self.inner
    }
}

/// What a [`TimedController`] measured, shared with the benchmark
/// (the plane owns the controller, and downcasts see the inner one).
#[derive(Debug)]
pub struct CtlStats {
    pub name: &'static str,
    pub observe: Cell<Stat>,
    pub applied: Cell<Stat>,
    pub actions: Cell<u64>,
}

/// A [`Controller`] that times every call into the wrapped controller.
/// `as_any`/`as_any_mut` forward to the inner controller, so the plane's
/// downcasts keep working through the wrapper.
pub struct TimedController {
    inner: Box<dyn Controller>,
    stats: Rc<CtlStats>,
}

impl TimedController {
    /// Wraps `inner`; the returned stats stay readable after the plane
    /// takes ownership of the wrapper.
    pub fn wrap(inner: Box<dyn Controller>) -> (Box<dyn Controller>, Rc<CtlStats>) {
        let stats = Rc::new(CtlStats {
            name: inner.name(),
            observe: Cell::new(Stat::default()),
            applied: Cell::new(Stat::default()),
            actions: Cell::new(0),
        });
        let wrapped = TimedController {
            inner,
            stats: Rc::clone(&stats),
        };
        (Box::new(wrapped), stats)
    }
}

fn bump(cell: &Cell<Stat>, elapsed: Duration) {
    let mut stat = cell.get();
    stat.add(elapsed);
    cell.set(stat);
}

impl Controller for TimedController {
    fn name(&self) -> &'static str {
        self.stats.name
    }

    fn observe(&mut self, snapshot: &TelemetrySnapshot) -> Vec<Action> {
        let start = Instant::now();
        let actions = self.inner.observe(snapshot);
        bump(&self.stats.observe, start.elapsed());
        self.stats
            .actions
            .set(self.stats.actions.get() + actions.len() as u64);
        actions
    }

    fn applied(&mut self, now: SimTime, action: &Action, outcome: &Outcome) -> Vec<Action> {
        let start = Instant::now();
        let follow = self.inner.applied(now, action, outcome);
        bump(&self.stats.applied, start.elapsed());
        follow
    }

    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}
