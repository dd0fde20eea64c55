//! Machine-readable experiment records for `run_all --json`.
//!
//! Each experiment emits one [`ExperimentRecord`] as a single JSONL
//! line: the experiment id, wall-clock time, the number of simulation
//! events it processed (zero for analytic experiments), and a list of
//! [`Metric`]s pairing the paper's reported value with the value this
//! implementation measures. Encoding goes through `ic_sim::json`, so
//! the numeric formatting is byte-stable across runs and platforms.

use ic_sim::json::{write_escaped, write_f64};

/// One paper-vs-measured data point inside an experiment record.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name; bracketed suffixes scope it to a row or config,
    /// e.g. `tj_c[Skylake 8168 / Air]`.
    pub name: String,
    /// Unit label (`"ratio"`, `"years"`, `"celsius"`, ...).
    pub unit: &'static str,
    /// The value the paper reports, when it reports one.
    pub paper: Option<f64>,
    /// The value this implementation produces.
    pub measured: f64,
}

impl Metric {
    /// A metric with no paper-reported counterpart.
    pub fn new(name: impl Into<String>, unit: &'static str, measured: f64) -> Metric {
        Metric {
            name: name.into(),
            unit,
            paper: None,
            measured,
        }
    }

    /// A metric the paper reports a value for.
    pub fn with_paper(
        name: impl Into<String>,
        unit: &'static str,
        paper: f64,
        measured: f64,
    ) -> Metric {
        Metric {
            name: name.into(),
            unit,
            paper: Some(paper),
            measured,
        }
    }

    fn write_json(&self, out: &mut String) {
        out.push_str("{\"name\":");
        write_escaped(out, &self.name);
        out.push_str(",\"unit\":");
        write_escaped(out, self.unit);
        out.push_str(",\"paper\":");
        match self.paper {
            Some(v) => write_f64(out, v),
            None => out.push_str("null"),
        }
        out.push_str(",\"measured\":");
        write_f64(out, self.measured);
        out.push('}');
    }
}

/// One experiment's machine-readable result.
#[derive(Debug, Clone, PartialEq)]
pub struct ExperimentRecord {
    /// Stable identifier in paper order (`"table1"` ... `"fig16"`).
    pub id: &'static str,
    /// Human-readable experiment title.
    pub title: String,
    /// Wall-clock time spent producing the record, milliseconds. This
    /// is the only non-deterministic field; traces never contain it.
    pub wall_ms: f64,
    /// Discrete-event count for simulation-backed experiments; zero for
    /// analytic ones.
    pub sim_events: u64,
    /// Paper-vs-measured data points.
    pub metrics: Vec<Metric>,
}

impl ExperimentRecord {
    /// Encodes the record as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"id\":");
        write_escaped(&mut out, self.id);
        out.push_str(",\"title\":");
        write_escaped(&mut out, &self.title);
        out.push_str(",\"wall_ms\":");
        write_f64(&mut out, self.wall_ms);
        out.push_str(",\"sim_events\":");
        out.push_str(&self.sim_events.to_string());
        out.push_str(",\"metrics\":[");
        for (i, metric) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            metric.write_json(&mut out);
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_encodes_exactly() {
        let rec = ExperimentRecord {
            id: "table11",
            title: "Table XI: auto-scaler".to_string(),
            wall_ms: 12.5,
            sim_events: 1234,
            metrics: vec![
                Metric::with_paper("p95_norm[oce]", "ratio", 0.58, 0.6125),
                Metric::new("extra", "count", 3.0),
            ],
        };
        assert_eq!(
            rec.to_json(),
            "{\"id\":\"table11\",\"title\":\"Table XI: auto-scaler\",\"wall_ms\":12.5,\
             \"sim_events\":1234,\"metrics\":[\
             {\"name\":\"p95_norm[oce]\",\"unit\":\"ratio\",\"paper\":0.58,\"measured\":0.6125},\
             {\"name\":\"extra\",\"unit\":\"count\",\"paper\":null,\"measured\":3}]}"
        );
    }

    #[test]
    fn titles_escape() {
        let rec = ExperimentRecord {
            id: "x",
            title: "quote \" and \\ back".to_string(),
            wall_ms: 0.0,
            sim_events: 0,
            metrics: vec![],
        };
        assert!(rec.to_json().contains("\"quote \\\" and \\\\ back\""));
    }

    #[test]
    fn non_finite_measurements_become_null() {
        let rec = ExperimentRecord {
            id: "x",
            title: "t".to_string(),
            wall_ms: 1.0,
            sim_events: 0,
            metrics: vec![Metric::new("m", "ratio", f64::NAN)],
        };
        assert!(rec.to_json().contains("\"measured\":null"));
    }
}
