//! Event-loop observation hooks.
//!
//! The M/G/k client-server loop (`ic_workloads::mgk`) stays
//! dependency-free: it only knows this small trait, and the `ic-obs`
//! crate supplies the implementation that feeds the flight recorder. An
//! observer sees one [`EventRecord`] per executed event — after the
//! handler returns, so queue depth reflects any follow-up events the
//! handler scheduled.
//!
//! Observation must never perturb the simulation: records carry only
//! the simulation clock, the loop behaves identically with or without
//! an observer attached, and it never reads the host clock. Wall-clock
//! cost is measured from outside the loop, not by an observer.

use crate::time::SimTime;

/// The kind reported for events that carry no more specific label.
pub const UNLABELED_EVENT: &str = "event";

/// What the event loop reports about one executed event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Simulation time at which the event fired.
    pub at: SimTime,
    /// The event's kind ([`UNLABELED_EVENT`] unless the loop labels it).
    pub kind: &'static str,
    /// Events still pending after the handler ran.
    pub queue_depth: usize,
}

/// A sink for per-event telemetry.
pub trait EngineObserver {
    /// Called once per executed event, after its handler returns.
    fn on_event(&mut self, record: &EventRecord);
}
