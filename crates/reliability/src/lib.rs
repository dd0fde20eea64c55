//! Component lifetime and computational-stability models for Section IV
//! of "Cost-Efficient Overclocking in Immersion-Cooled Datacenters"
//! (ISCA 2021).
//!
//! The paper evaluates overclocking's reliability cost with a proprietary
//! **5 nm composite processor lifetime model** obtained from a large
//! fabrication company. The model combines three wear-out processes
//! (Table IV) — gate-oxide breakdown, electromigration, and thermal
//! cycling — with exponential dependence on voltage and temperature, and
//! is exposed in the paper only through the six projected-lifetime rows
//! of Table V. This crate implements a composite model with the same
//! mechanism structure, numerically fitted so all six Table V rows
//! reproduce:
//!
//! | Cooling | OC | Voltage | Tj max | ΔTj | Paper | This model |
//! |---|---|---|---|---|---|---|
//! | Air | no | 0.90 V | 85 °C | 20–85 | 5 years | 5.0 |
//! | Air | yes | 0.98 V | 101 °C | 20–101 | < 1 year | 0.7 |
//! | FC-3284 | no | 0.90 V | 66 °C | 50–65 | > 10 years | 13.8 |
//! | FC-3284 | yes | 0.98 V | 74 °C | 50–74 | ≈ 4 years | 4.0 |
//! | HFE-7000 | no | 0.90 V | 51 °C | 35–51 | > 10 years | 18.1 |
//! | HFE-7000 | yes | 0.98 V | 60 °C | 35–60 | 5 years | 5.0 |
//!
//! Modules:
//!
//! * [`mechanisms`] — the three failure mechanisms and their parameter
//!   dependencies (Table IV),
//! * [`lifetime`] — the composite model and the Table V conditions,
//! * [`wear`] — wear-out credit accounting for trading lifetime against
//!   extra overclocking,
//! * [`stability`] — the correctable-error / computational-stability
//!   model and monitor (Takeaway 3),
//! * [`hazard`] — hazard integration turning the rate models into
//!   event times for discrete-event fault injection (`ic-chaos`).
//!
//! # Example
//!
//! ```
//! use ic_reliability::lifetime::{CompositeLifetimeModel, OperatingConditions};
//!
//! let model = CompositeLifetimeModel::fitted_5nm();
//! let air_nominal = OperatingConditions::new(0.90, 85.0, 20.0);
//! let years = model.lifetime_years(&air_nominal);
//! assert!((years - 5.0).abs() < 0.3);
//! ```

pub mod hazard;
pub mod lifetime;
pub mod mechanisms;
pub mod stability;
pub mod wear;

pub use hazard::HazardIntegrator;
pub use lifetime::{CompositeLifetimeModel, OperatingConditions};
pub use stability::StabilityModel;
pub use wear::WearTracker;
