//! A registry of named counters, gauges, and histograms.
//!
//! Names follow the `subsystem_metric{label}` convention: a plain name
//! like `"engine_queue_depth"` or a labeled one like
//! `"engine_events_total{arrival}"` — the label is just part of the key,
//! so components can shard a metric by event kind or policy without any
//! extra machinery. All maps are `BTreeMap` so snapshots iterate in a
//! deterministic order regardless of insertion history.

use crate::json::{write_escaped, write_f64};
use ic_sim::hist::LogHistogram;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::rc::Rc;

/// A collection of named metrics with deterministic iteration order.
///
/// # Example
///
/// ```
/// use ic_obs::metrics::MetricsRegistry;
///
/// let mut m = MetricsRegistry::new();
/// m.counter_add("asc_decisions_total{scale_out}", 1);
/// m.gauge_set("asc_active_vms", 3.0);
/// m.register_histogram("asc_step_util", 1e-3, 2.0, 20);
/// m.histogram_record("asc_step_util", 0.61);
/// assert_eq!(m.counter("asc_decisions_total{scale_out}"), 1);
/// assert!(m.to_json().contains("\"asc_active_vms\":3"));
/// ```
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    histograms: BTreeMap<String, LogHistogram>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `delta` to the counter `name`, creating it at zero first.
    pub fn counter_add(&mut self, name: &str, delta: u64) {
        if let Some(c) = self.counters.get_mut(name) {
            *c += delta;
        } else {
            self.counters.insert(name.to_string(), delta);
        }
    }

    /// The counter's current value (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Sets the gauge `name` to `value`.
    pub fn gauge_set(&mut self, name: &str, value: f64) {
        if let Some(g) = self.gauges.get_mut(name) {
            *g = value;
        } else {
            self.gauges.insert(name.to_string(), value);
        }
    }

    /// The gauge's last value, if ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.get(name).copied()
    }

    /// Registers a histogram with the given geometry (first bin edge,
    /// geometric growth factor, bin count). Re-registering an existing
    /// name keeps the original histogram and its samples.
    pub fn register_histogram(&mut self, name: &str, first_edge: f64, growth: f64, bins: usize) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| LogHistogram::new(first_edge, growth, bins));
    }

    /// Records one sample into the histogram `name`, registering it
    /// with a general-purpose geometry (1 µs first edge, 2× growth,
    /// 48 bins — covers 1 µs to ~3 days) if it does not exist.
    pub fn histogram_record(&mut self, name: &str, value: f64) {
        self.histograms
            .entry(name.to_string())
            .or_insert_with(|| LogHistogram::new(1e-6, 2.0, 48))
            .record(value);
    }

    /// The histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&LogHistogram> {
        self.histograms.get(name)
    }

    /// Shorthand for `histogram(name).quantile(q)`; 0 when the
    /// histogram is missing or empty.
    pub fn quantile(&self, name: &str, q: f64) -> f64 {
        self.histograms.get(name).map_or(0.0, |h| h.quantile(q))
    }

    /// Folds another registry into this one: counters add, gauges take
    /// the other's value (it is "newer"), histograms merge.
    ///
    /// # Panics
    ///
    /// Panics if a shared histogram name has different bin geometry.
    pub fn merge(&mut self, other: &MetricsRegistry) {
        for (name, v) in &other.counters {
            self.counter_add(name, *v);
        }
        for (name, v) in &other.gauges {
            self.gauge_set(name, *v);
        }
        for (name, h) in &other.histograms {
            match self.histograms.get_mut(name) {
                Some(mine) => mine.merge(h),
                None => {
                    self.histograms.insert(name.clone(), h.clone());
                }
            }
        }
    }

    /// A deterministic JSON snapshot:
    /// `{"counters":{…},"gauges":{…},"histograms":{name:{"count":…,
    /// "mean":…,"p50":…,"p95":…,"p99":…,"max":…}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(name, &mut out);
            let _ = write!(out, ":{v}");
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(name, &mut out);
            out.push(':');
            write_f64(*v, &mut out);
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_escaped(name, &mut out);
            let _ = write!(out, ":{{\"count\":{}", h.count());
            for (key, v) in [
                ("mean", h.mean()),
                ("p50", h.quantile(0.50)),
                ("p95", h.quantile(0.95)),
                ("p99", h.quantile(0.99)),
                ("max", h.max()),
            ] {
                let _ = write!(out, ",\"{key}\":");
                write_f64(v, &mut out);
            }
            out.push('}');
        }
        out.push_str("}}");
        out
    }

    /// A human-readable snapshot, one metric per line, in name order.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for (name, v) in &self.counters {
            let _ = writeln!(out, "counter {name} = {v}");
        }
        for (name, v) in &self.gauges {
            let _ = writeln!(out, "gauge   {name} = {v}");
        }
        for (name, h) in &self.histograms {
            let _ = writeln!(
                out,
                "hist    {name} = count {} mean {:.6} p50 {:.6} p95 {:.6} max {:.6}",
                h.count(),
                h.mean(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.max()
            );
        }
        out
    }

    /// `true` if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }
}

/// A shareable registry handle for single-threaded simulations.
pub type MetricsHandle = Rc<RefCell<MetricsRegistry>>;

/// Creates an empty [`MetricsHandle`].
pub fn shared_registry() -> MetricsHandle {
    Rc::new(RefCell::new(MetricsRegistry::new()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut m = MetricsRegistry::new();
        m.counter_add("x", 2);
        m.counter_add("x", 3);
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        m.gauge_set("depth", 4.0);
        m.gauge_set("depth", 7.0);
        assert_eq!(m.gauge("depth"), Some(7.0));
        assert_eq!(m.gauge("missing"), None);
    }

    #[test]
    fn histogram_auto_registers() {
        let mut m = MetricsRegistry::new();
        m.histogram_record("lat", 0.5);
        m.histogram_record("lat", 1.5);
        assert_eq!(m.histogram("lat").unwrap().count(), 2);
        assert!(m.quantile("lat", 1.0) >= 1.5 * 0.9);
        assert_eq!(m.quantile("missing", 0.5), 0.0);
    }

    #[test]
    fn register_keeps_existing_samples() {
        let mut m = MetricsRegistry::new();
        m.register_histogram("h", 1.0, 2.0, 8);
        m.histogram_record("h", 3.0);
        m.register_histogram("h", 0.5, 3.0, 4); // no-op
        assert_eq!(m.histogram("h").unwrap().count(), 1);
    }

    #[test]
    fn merge_adds_counters_and_histograms() {
        let mut a = MetricsRegistry::new();
        let mut b = MetricsRegistry::new();
        a.counter_add("n", 1);
        b.counter_add("n", 2);
        a.register_histogram("h", 1.0, 2.0, 8);
        b.register_histogram("h", 1.0, 2.0, 8);
        a.histogram_record("h", 2.0);
        b.histogram_record("h", 4.0);
        b.gauge_set("g", 9.0);
        a.merge(&b);
        assert_eq!(a.counter("n"), 3);
        assert_eq!(a.histogram("h").unwrap().count(), 2);
        assert_eq!(a.gauge("g"), Some(9.0));
    }

    #[test]
    fn json_snapshot_is_deterministic() {
        let mut m = MetricsRegistry::new();
        m.counter_add("b", 1);
        m.counter_add("a", 2);
        m.gauge_set("g", 1.5);
        let json = m.to_json();
        assert_eq!(
            json,
            "{\"counters\":{\"a\":2,\"b\":1},\"gauges\":{\"g\":1.5},\"histograms\":{}}"
        );
    }

    #[test]
    fn empty_registry_renders() {
        let m = MetricsRegistry::new();
        assert!(m.is_empty());
        assert_eq!(
            m.to_json(),
            "{\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
        assert_eq!(m.render_text(), "");
    }
}
