//! Engine observation hooks.
//!
//! The engine stays dependency-free: it only knows this small trait, and
//! the `ic-obs` crate supplies the implementation that feeds the flight
//! recorder. An observer sees one [`EventRecord`] per executed event —
//! after the handler returns, so queue depth reflects any follow-up
//! events the handler scheduled.
//!
//! Observation must never perturb the simulation: records carry only
//! the simulation clock, the engine behaves identically with or without
//! an observer attached, and the engine never reads the host clock.
//! Wall-clock cost is measured from outside the engine, not by an
//! observer.

use crate::time::SimTime;

/// What the engine reports about one executed event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EventRecord {
    /// Simulation time at which the event fired.
    pub at: SimTime,
    /// The label given at scheduling time (`"event"` for unlabeled
    /// events).
    pub kind: &'static str,
    /// Events still pending after the handler ran.
    pub queue_depth: usize,
}

/// A sink for per-event engine telemetry.
pub trait EngineObserver {
    /// Called once per executed event, after its handler returns.
    fn on_event(&mut self, record: &EventRecord);
}

/// An observer that counts events by kind without any dependencies —
/// useful in tests and as the trivial reference implementation.
#[derive(Debug, Default)]
pub struct CountingObserver {
    /// Total events seen.
    pub events: u64,
    /// Maximum queue depth seen.
    pub max_queue_depth: usize,
}

impl EngineObserver for CountingObserver {
    fn on_event(&mut self, record: &EventRecord) {
        self.events += 1;
        self.max_queue_depth = self.max_queue_depth.max(record.queue_depth);
    }
}
