//! The adapter between the event-loop observer hook and the flight
//! recorder.
//!
//! [`EngineSpans`] implements [`ic_sim::observe::EngineObserver`] over a
//! shared [`FlightHandle`], turning executed events into per-kind phase
//! spans on the simulation clock. It never reads the host clock; the
//! wall-clock cost of a run is measured from outside the event loop.

use crate::flight::FlightHandle;
use ic_sim::observe::{EngineObserver, EventRecord};

/// An [`EngineObserver`] that feeds the flight recorder's per-event-kind
/// phase accumulator: one [`FlightRecorder::phase_event`] call per
/// executed event, stamped with the *simulation* clock (never wall
/// clock, so traces stay byte-reproducible). The driver holding the same
/// [`FlightHandle`] calls `flush_phases` at window boundaries to turn
/// the accumulation into one coalesced span per event kind.
///
/// [`FlightRecorder::phase_event`]: crate::flight::FlightRecorder::phase_event
pub struct EngineSpans {
    flight: FlightHandle,
    /// The phase target label, e.g. `"engine"`.
    target: &'static str,
}

impl EngineSpans {
    /// Creates an observer accumulating phases under `target` (use
    /// `"engine"` unless several engines share one recorder).
    pub fn new(flight: FlightHandle, target: &'static str) -> Self {
        EngineSpans { flight, target }
    }
}

impl EngineObserver for EngineSpans {
    fn on_event(&mut self, record: &EventRecord) {
        self.flight
            .borrow_mut()
            .phase_event(self.target, record.kind, record.at);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::shared_flight;
    use ic_sim::time::SimTime;

    #[test]
    fn engine_spans_accumulate_phases_by_kind() {
        let flight = shared_flight(1024);
        let mut spans = EngineSpans::new(flight.clone(), "engine");
        for (secs, kind) in [(1, "arrival"), (2, "departure"), (5, "arrival")] {
            spans.on_event(&EventRecord {
                at: SimTime::from_secs(secs),
                kind,
                queue_depth: 0,
            });
        }
        flight.borrow_mut().flush_phases();

        let rec = flight.borrow();
        let counts = rec.counts_by_kind();
        assert_eq!(counts[&("engine", "arrival")], 1, "one coalesced span");
        assert_eq!(counts[&("engine", "departure")], 1);
        let arrival = rec
            .spans()
            .find(|s| s.name == "arrival")
            .expect("arrival phase span");
        assert_eq!(arrival.start, SimTime::from_secs(1));
        assert_eq!(arrival.end, SimTime::from_secs(5));
        assert_eq!(arrival.fields, vec![("events", crate::json::Value::U64(2))]);
    }
}
