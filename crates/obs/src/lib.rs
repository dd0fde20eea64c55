//! `ic-obs`: structured tracing for the simulation stack.
//!
//! The paper's control plane (Fig. 14) runs entirely on telemetry —
//! Aperf/Pperf counters feeding Equation 1 — yet a reproduction is only
//! trustworthy if its *own* decisions are observable: which constraint
//! bound a governor grant, which Equation-1 inputs triggered a scale-up,
//! when a VM was created and where it landed. This crate is that layer:
//!
//! * [`flight`] — the flight recorder, the crate's one recorder:
//!   deterministic *hierarchical* spans ([`flight::FlightRecorder`] +
//!   the [`flight::SpanGuard`] RAII API) and structured instants (the
//!   governor, auto-scaler and cluster decisions), keyed by simulation
//!   time plus a recorder sequence number (never wall clock — two
//!   same-seed runs produce byte-identical output). It has per-event-kind
//!   engine phases, submission-order merging of parallel sweep tasks,
//!   and three exporters — Chrome Trace Event JSON (loadable in Perfetto
//!   / `chrome://tracing`), JSONL, and a human self-time summary table
//!   backed by [`ic_sim::hist::LogHistogram`].
//! * [`sinks`] — the [`sinks::ObsSinks`] bundle: one value carrying
//!   the optional flight handle that every instrumented component
//!   attaches through its one `attach_sinks`/`with_sinks` entry point,
//!   with a single [`sinks::ObsSinks::instant`] emit whose field list
//!   is only built when a recorder is attached.
//! * [`json`] — [`json::Value`], the trace-field type, encoded through
//!   the workspace's one JSON codec, [`ic_sim::json`].
//! * [`engine_obs`] — [`engine_obs::EngineSpans`], an adapter
//!   implementing [`ic_sim::observe::EngineObserver`] so the M/G/k
//!   event loop feeds the flight recorder without `ic-sim` or
//!   `ic-workloads` depending on this crate.
//!
//! Everything is single-threaded (like the simulator) and heap-bounded;
//! the only dependency besides `ic-sim` is the serde facade.
//!
//! # Environment: `IC_OBS_LEVEL`
//!
//! The `IC_OBS_LEVEL` environment variable ([`flight::LEVEL_ENV`]) sets
//! the minimum recorded severity — `error`, `warn`, `info`, or `debug`
//! (case-insensitive) — for the flight recorder when it is built through
//! [`flight::FlightRecorder::from_env`] or
//! [`flight::shared_flight_from_env`]. Unset or unparseable values keep
//! the default (`debug`: record everything). Hot loops can therefore
//! emit debug-level events unconditionally; a production run sets
//! `IC_OBS_LEVEL=info` and pays neither memory nor serialization cost
//! for them — suppressed events consume no sequence numbers, so a
//! filtered run is still byte-deterministic.
//!
//! # Example
//!
//! ```
//! use ic_obs::flight::{shared_flight, TraceLevel};
//! use ic_obs::json::Value;
//! use ic_obs::ObsSinks;
//! use ic_sim::time::SimTime;
//!
//! let flight = shared_flight(1024);
//! let sinks = ObsSinks::none().with_flight(flight.clone());
//! sinks.instant(
//!     SimTime::from_secs(3),
//!     "asc",
//!     TraceLevel::Info,
//!     "scale_out",
//!     || vec![("active_vms", Value::U64(2)), ("util", Value::F64(0.61))],
//! );
//! let rec = flight.borrow();
//! assert_eq!(rec.counts_by_kind()[&("asc", "scale_out")], 1);
//! let jsonl = rec.to_jsonl();
//! assert!(jsonl.contains("\"name\":\"scale_out\""));
//! ```

pub mod engine_obs;
pub mod flight;
pub mod json;
pub mod sinks;

pub use engine_obs::EngineSpans;
pub use flight::{
    shared_flight, shared_flight_from_env, FlightHandle, FlightRecorder, Span, SpanGuard, SpanKind,
    SpanToken, TraceLevel,
};
pub use json::Value;
pub use sinks::ObsSinks;
