//! The observability sink bundle.
//!
//! Every instrumented component carries the same two optional handles
//! — a metrics registry and a flight recorder. [`ObsSinks`] is that pair
//! as one value: build it once, clone it into every component (handles
//! are cheap `Rc` clones), attach it through the component's one
//! `attach_sinks`/`with_sinks` entry point, and emit through
//! [`ObsSinks::instant`], which puts the event on the flight timeline.

use crate::flight::{FlightHandle, TraceLevel};
use crate::json::Value;
use crate::metrics::MetricsHandle;
use ic_sim::time::SimTime;

/// A bundle of optional observability sinks: metrics registry and
/// flight recorder.
#[derive(Clone, Default)]
pub struct ObsSinks {
    metrics: Option<MetricsHandle>,
    flight: Option<FlightHandle>,
}

/// Sinks compare by *identity* (two bundles are equal when they point
/// at the same recorders), so components that derive `PartialEq` can
/// carry an `ObsSinks` without comparing recorder contents.
impl PartialEq for ObsSinks {
    fn eq(&self, other: &Self) -> bool {
        fn same<T>(a: &Option<std::rc::Rc<T>>, b: &Option<std::rc::Rc<T>>) -> bool {
            match (a, b) {
                (None, None) => true,
                (Some(a), Some(b)) => std::rc::Rc::ptr_eq(a, b),
                _ => false,
            }
        }
        same(&self.metrics, &other.metrics) && same(&self.flight, &other.flight)
    }
}

impl std::fmt::Debug for ObsSinks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsSinks")
            .field("metrics", &self.metrics.is_some())
            .field("flight", &self.flight.is_some())
            .finish()
    }
}

impl ObsSinks {
    /// An empty bundle: nothing attached, every emit is a no-op.
    pub fn none() -> Self {
        ObsSinks::default()
    }

    /// Adds a metrics registry (builder style).
    pub fn with_metrics(mut self, metrics: MetricsHandle) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Adds a flight recorder (builder style).
    pub fn with_flight(mut self, flight: FlightHandle) -> Self {
        self.flight = Some(flight);
        self
    }

    /// The metrics registry, if attached.
    pub fn metrics(&self) -> Option<&MetricsHandle> {
        self.metrics.as_ref()
    }

    /// The flight recorder, if attached.
    pub fn flight(&self) -> Option<&FlightHandle> {
        self.flight.as_ref()
    }

    /// `true` when no sink is attached (emits cost nothing).
    pub fn is_quiet(&self) -> bool {
        self.metrics.is_none() && self.flight.is_none()
    }

    /// Emits one structured event at simulation time `at` as an instant
    /// on the flight timeline (a no-op when no flight recorder is
    /// attached).
    pub fn instant(
        &self,
        at: SimTime,
        target: &'static str,
        level: TraceLevel,
        kind: &'static str,
        fields: Vec<(&'static str, Value)>,
    ) {
        if let Some(flight) = &self.flight {
            flight
                .borrow_mut()
                .instant_at(at, target, kind, level, fields);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flight::shared_flight;
    use crate::metrics::shared_registry;

    #[test]
    fn quiet_bundle_swallows_events() {
        let sinks = ObsSinks::none();
        assert!(sinks.is_quiet());
        sinks.instant(
            SimTime::from_secs(1),
            "t",
            TraceLevel::Info,
            "k",
            vec![("x", Value::U64(1))],
        );
    }

    #[test]
    fn instant_lands_on_the_flight_timeline() {
        let flight = shared_flight(16);
        let sinks = ObsSinks::none().with_flight(flight.clone());
        assert!(!sinks.is_quiet());
        sinks.instant(
            SimTime::from_secs(2),
            "ctrl",
            TraceLevel::Info,
            "tick",
            vec![("n", Value::U64(3))],
        );
        assert_eq!(flight.borrow().counts_by_kind()[&("ctrl", "tick")], 1);
    }

    #[test]
    fn builders_and_accessors_round_trip() {
        let metrics = shared_registry();
        let sinks = ObsSinks::none()
            .with_metrics(metrics.clone())
            .with_flight(shared_flight(8));
        assert!(std::rc::Rc::ptr_eq(sinks.metrics().unwrap(), &metrics));
        assert!(sinks.flight().is_some());
        assert_eq!(sinks, sinks.clone());
        assert_ne!(sinks, ObsSinks::none().with_metrics(metrics));
    }
}
