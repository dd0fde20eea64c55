//! `ic-controlplane`: the unified control-plane runtime.
//!
//! The paper's contribution (Fig. 14) is a *control plane*: auto-scaling,
//! RAPL-style power capping, overclock governance, and failure-tolerant
//! placement all reacting to the same telemetry stream. This crate is
//! that composition layer for the reproduction:
//!
//! * [`Controller`] — one trait for every control loop:
//!   `observe(&TelemetrySnapshot) → Vec<Action>`, plus an `applied`
//!   callback for deferred actuations (scale-out latency).
//! * [`Action`] / [`Outcome`] — the typed verb set: scale out/in, set
//!   frequency, grant/revoke power, migrate, fail/repair a server.
//! * [`TelemetrySnapshot`] — the per-tick telemetry bus, assembled by a
//!   [`World`] from VM hardware counters (ic-workloads/ic-telemetry),
//!   power-domain state (ic-power), and cluster placement (ic-cluster).
//! * [`ControlPlane`] — the scheduler: N controllers at independent
//!   cadences, each tick a first-class `ic-sim` event on one clock, so
//!   interleaving is deterministic and a composed run is byte-identical
//!   under `ic-par` fan-out at any worker count.
//! * [`controllers`] — ports of the previously free-standing loops:
//!   overclock governor (ic-core), priority capping (ic-power), a
//!   scripted fault injector, and a failover/migration controller.
//! * [`fleet`] — [`fleet::FleetWorld`]: the composed world wiring a
//!   [`ic_workloads::mgk::ClientServerSim`], an [`ic_cluster`] placement
//!   fleet, and a power-domain model into one [`World`] for end-to-end
//!   "asc + capping + governor + failure" experiments.
//!
//! The `AutoScaler` itself lives in `ic-autoscale` (which depends on
//! this crate and implements [`Controller`] for it); its Table XI
//! `Runner` drives it alone on a [`FleetWorld`] with no power domains.

pub mod action;
pub mod controller;
pub mod controllers;
pub mod fleet;
pub mod plane;
pub mod telemetry;

pub use action::{Action, FreqTarget, Outcome};
pub use controller::{Controller, TickReport, World};
pub use controllers::ScriptError;
pub use fleet::{DomainSpec, FleetConfig, FleetConfigBuilder, FleetWorld, PowerModelSpec};
pub use plane::{ControlPlane, ControllerId, FaultPlan};
pub use telemetry::{
    ClusterTelemetry, DomainPower, FaultTelemetry, PowerTelemetry, TelemetrySnapshot, VmTelemetry,
};
