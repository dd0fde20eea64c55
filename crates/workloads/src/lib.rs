//! Cloud workload models for the paper's evaluation (Section VI).
//!
//! The paper runs eleven applications (Table IX) on the tank prototypes
//! under seven CPU frequency configurations (Table VII) and four GPU
//! configurations (Table VIII). We do not have the tanks, so this crate
//! provides two complementary substitutes:
//!
//! * **Analytic bottleneck models** ([`apps`], [`perfmodel`], [`stream`],
//!   [`gpu`]) — each application is decomposed into core-, uncore-,
//!   memory-, and frequency-insensitive time shares calibrated to the
//!   published bars of Figures 9–11. These regenerate the
//!   high-performance-VM figures.
//! * **An executable M/G/k client–server application** ([`mgk`]) running
//!   on its own typed discrete-event loop — Poisson arrivals, general
//!   service times, `k` server VMs behind a load balancer. This is the
//!   workload the paper's auto-scaler experiments (Figures 15–16, Table
//!   XI) drive, and the auto-scaler in `ic-autoscale` controls it through
//!   the same telemetry a real deployment would use. [`queueing`]
//!   provides the matching analytic approximations.
//!
//! [`mix`] adds the two-resource (CPU time, memory bandwidth) contention
//! model behind the oversubscription scenarios of Table X / Figure 13.

pub mod apps;
pub mod configs;
pub mod gpu;
pub mod loadgen;
pub mod mgk;
pub mod mix;
pub mod perfmodel;
pub mod queueing;
pub mod slo;
pub mod stream;

pub use apps::{AppProfile, Metric};
pub use configs::CpuConfig;
pub use gpu::GpuConfig;
pub use mgk::ClientServerSim;
