//! The observability sink bundle.
//!
//! Every instrumented component carries the same optional handle: the
//! flight recorder. [`ObsSinks`] is that handle as one value: build it
//! once, clone it into every component (handles are cheap `Rc` clones),
//! attach it through the component's one `attach_sinks`/`with_sinks`
//! entry point, and emit through [`ObsSinks::instant`], which puts the
//! event on the flight timeline. A detached bundle makes every emit
//! free: the field list is built by a closure that only runs when a
//! recorder is attached.

use crate::flight::{FlightHandle, TraceLevel};
use crate::json::Value;
use ic_sim::time::SimTime;

/// The optional flight recorder every instrumented component carries.
#[derive(Clone, Default)]
pub struct ObsSinks {
    flight: Option<FlightHandle>,
}

/// Sinks compare by *identity* (two bundles are equal when they point
/// at the same recorder), so components that derive `PartialEq` can
/// carry an `ObsSinks` without comparing recorder contents.
impl PartialEq for ObsSinks {
    fn eq(&self, other: &Self) -> bool {
        match (&self.flight, &other.flight) {
            (None, None) => true,
            (Some(a), Some(b)) => std::rc::Rc::ptr_eq(a, b),
            _ => false,
        }
    }
}

impl std::fmt::Debug for ObsSinks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsSinks")
            .field("flight", &self.flight.is_some())
            .finish()
    }
}

impl ObsSinks {
    /// An empty bundle: nothing attached, every emit is a no-op.
    pub fn none() -> Self {
        ObsSinks::default()
    }

    /// Adds a flight recorder (builder style).
    pub fn with_flight(mut self, flight: FlightHandle) -> Self {
        self.flight = Some(flight);
        self
    }

    /// The flight recorder, if attached.
    pub fn flight(&self) -> Option<&FlightHandle> {
        self.flight.as_ref()
    }

    /// Emits one structured event at simulation time `at` as an instant
    /// on the flight timeline. `fields` runs only when a recorder is
    /// attached, so a detached emit builds no field list and allocates
    /// nothing.
    pub fn instant(
        &self,
        at: SimTime,
        target: &'static str,
        level: TraceLevel,
        kind: &'static str,
        fields: impl FnOnce() -> Vec<(&'static str, Value)>,
    ) {
        if let Some(flight) = &self.flight {
            flight
                .borrow_mut()
                .instant_at(at, target, kind, level, fields());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::shared_flight;

    #[test]
    fn detached_instant_never_builds_its_fields() {
        let sinks = ObsSinks::none();
        sinks.instant(SimTime::from_secs(1), "t", TraceLevel::Info, "k", || {
            panic!("a detached emit must not build its field list")
        });
    }

    #[test]
    fn instant_lands_on_the_flight_timeline() {
        let flight = shared_flight(16);
        let sinks = ObsSinks::none().with_flight(flight.clone());
        sinks.instant(
            SimTime::from_secs(2),
            "ctrl",
            TraceLevel::Info,
            "tick",
            || vec![("n", Value::U64(3))],
        );
        assert_eq!(flight.borrow().counts_by_kind()[&("ctrl", "tick")], 1);
    }

    #[test]
    fn builders_and_accessors_round_trip() {
        let flight = shared_flight(8);
        let sinks = ObsSinks::none().with_flight(flight.clone());
        assert!(std::rc::Rc::ptr_eq(sinks.flight().unwrap(), &flight));
        assert_eq!(sinks, sinks.clone());
        assert_ne!(sinks, ObsSinks::none());
        assert_ne!(sinks, ObsSinks::none().with_flight(shared_flight(8)));
    }
}
