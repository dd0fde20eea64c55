//! The [`Controller`] and [`World`] traits — the two halves of the
//! runtime.
//!
//! A controller is a pure decision loop: it observes a
//! [`TelemetrySnapshot`] and returns [`Action`]s. A world owns the
//! simulated state (workload sim, cluster, power model) and knows how
//! to apply actions and assemble telemetry. The
//! [`crate::ControlPlane`] sits between them, ticking each registered
//! controller at its own cadence off one shared clock.

use crate::action::{Action, Outcome};
use crate::telemetry::TelemetrySnapshot;
use ic_sim::time::SimTime;
use std::any::Any;
use std::fmt;

/// Stamps the [`Controller::as_any`] / [`Controller::as_any_mut`]
/// downcast plumbing into a `Controller` impl block.
///
/// Every concrete controller needs the same two-line identity pair so
/// compositions can reach it through `dyn Controller`; write
/// `ic_controlplane::impl_controller_downcast!();` inside the impl
/// instead of repeating them.
#[macro_export]
macro_rules! impl_controller_downcast {
    () => {
        fn as_any(&self) -> &dyn ::std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn ::std::any::Any {
            self
        }
    };
}

/// A control loop: observe shared telemetry, decide typed actions.
///
/// Implementations must be deterministic functions of their own state
/// and the snapshot — no wall clock, no ambient randomness — so a
/// composed run is byte-identical for a given seed regardless of how
/// many `ic-par` workers execute sibling runs.
pub trait Controller {
    /// Stable short name, used in traces and tick reports.
    fn name(&self) -> &'static str;

    /// One control decision: read the snapshot, return actions in the
    /// order they must be applied.
    fn observe(&mut self, snapshot: &TelemetrySnapshot) -> Vec<Action>;

    /// Notification that `action` (issued by this controller, possibly
    /// at an earlier tick for deferred actions like scale-out) was
    /// applied with `outcome`. May return immediate follow-up actions;
    /// follow-ups are applied once and do **not** recurse.
    fn applied(&mut self, now: SimTime, action: &Action, outcome: &Outcome) -> Vec<Action> {
        let _ = (now, action, outcome);
        Vec::new()
    }

    /// Downcast support so compositions can reach a concrete
    /// controller (e.g. the runner reading `AutoScaler` window state).
    /// Implement with [`impl_controller_downcast!`].
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support. Implement with
    /// [`impl_controller_downcast!`].
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// What one tick did, handed to [`World::post_tick`] after every tick.
#[derive(Debug, Clone)]
pub struct TickReport {
    /// The tick's simulation time.
    pub at: SimTime,
    /// The ticked controller's [`Controller::name`].
    pub controller: &'static str,
    /// The previous tick time of this controller (window start).
    pub window_start: SimTime,
    /// Actions the controller decided this tick (before follow-ups).
    pub decided: usize,
}

impl fmt::Display for TickReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "t={:.1}s {}: {} action(s) over [{:.1}s, {:.1}s)",
            self.at.as_secs_f64(),
            self.controller,
            self.decided,
            self.window_start.as_secs_f64(),
            self.at.as_secs_f64(),
        )
    }
}

/// The simulated world a [`crate::ControlPlane`] drives: one clock,
/// every subsystem advanced together, every action funneled through
/// [`World::apply`].
pub trait World {
    /// Current simulation time of the underlying state.
    fn now(&self) -> SimTime;

    /// Advances the underlying simulation(s) to `t`.
    fn advance_to(&mut self, t: SimTime);

    /// Hook called at the *start* of a tick scheduled for `tick_at`,
    /// **before** the world advances — i.e. while [`World::now`] still
    /// reads the previous tick time. Worlds use it to apply exogenous
    /// inputs (load schedules) exactly as the old hand-written loops
    /// did between ticks.
    fn pre_tick(&mut self, tick_at: SimTime) {
        let _ = tick_at;
    }

    /// Refreshes and returns the shared snapshot at `now`.
    ///
    /// Worlds keep the snapshot as persistent state and update it
    /// incrementally (dirty-tracked power/cluster sections, reusable VM
    /// row buffers), so the returned borrow must be bitwise-identical
    /// to a from-scratch rebuild at the same instant.
    fn telemetry(&mut self, now: SimTime) -> &TelemetrySnapshot;

    /// Applies one action at `now` on behalf of `source` (a controller
    /// name, for traces).
    fn apply(&mut self, now: SimTime, source: &'static str, action: &Action) -> Outcome;

    /// Matures a pending scale-out at `now`: create the VM and report
    /// it. Called by the runtime when a deferred [`Action::ScaleOut`]
    /// comes due, *before* the tick's telemetry is assembled, so the
    /// newborn VM is sampled at its creation tick.
    fn complete_scale_out(&mut self, now: SimTime) -> Outcome;

    /// Hook called after a controller's tick fully applied, with the
    /// controller itself (for downcasting) and the tick report.
    fn post_tick(&mut self, now: SimTime, controller: &dyn Controller, report: &TickReport) {
        let _ = (now, controller, report);
    }
}
