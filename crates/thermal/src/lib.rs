//! Thermal models for datacenter cooling, reproducing Section II–III of
//! "Cost-Efficient Overclocking in Immersion-Cooled Datacenters"
//! (ISCA 2021).
//!
//! The paper compares air-based cooling (chillers, water-side economizers,
//! direct evaporative), cold plates, and single-/two-phase immersion
//! cooling (1PIC/2PIC), then builds three 2PIC tank prototypes. The
//! physical apparatus reduces, for every downstream decision the paper
//! makes, to a handful of quantities: datacenter PUE, server fan overhead,
//! maximum heat removal, and the junction temperature reached at a given
//! power draw. This crate models exactly those quantities:
//!
//! * [`fluid`] — engineered dielectric fluids (Table II),
//! * [`technology`] — the cooling-technology catalog (Table I),
//! * [`junction`] — the lumped thermal-resistance junction model used to
//!   reproduce Table III and the temperature inputs of the lifetime model,
//! * [`tank`] — the three tank prototypes of Section III,
//! * [`transient`] — the lumped RC junction model behind Table V's
//!   temperature swings.
//!
//! # Example
//!
//! ```
//! use ic_thermal::junction::ThermalInterface;
//! use ic_thermal::fluid::DielectricFluid;
//!
//! // The 28-core Skylake 8180 immersed with BEC on the IHS (Table III).
//! let iface = ThermalInterface::two_phase(DielectricFluid::fc3284(), 0.08, 1.6);
//! let tj = iface.junction_temp_c(204.4);
//! assert!((tj - 68.0).abs() < 0.5);
//! ```

pub mod fluid;
pub mod junction;
pub mod tank;
pub mod technology;
pub mod transient;

pub use fluid::DielectricFluid;
pub use junction::ThermalInterface;
pub use tank::TankPrototype;
pub use technology::CoolingTechnology;
