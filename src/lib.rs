//! `immersion-cloud`: a reproduction of *Cost-Efficient Overclocking in
//! Immersion-Cooled Datacenters* (ISCA 2021) as a Rust workspace.
//!
//! This facade crate re-exports every subsystem behind stable module
//! names so examples and downstream users need a single dependency:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`scenario`] | `ic-scenario` | Serializable calibration scenarios (`Scenario::paper()`, JSON files) |
//! | [`sim`] | `ic-sim` | Discrete-event queue, RNG, distributions, statistics, JSON codec |
//! | [`par`] | `ic-par` | Deterministic scatter-gather pool for intra-experiment sweeps |
//! | [`thermal`] | `ic-thermal` | Cooling technologies, fluids, junction model, tanks |
//! | [`power`] | `ic-power` | V/f curves, leakage, socket/server power, capping |
//! | [`reliability`] | `ic-reliability` | Lifetime model (Table V), wear credit, stability |
//! | [`telemetry`] | `ic-telemetry` | Aperf/Pperf counters and Equation 1 |
//! | [`workloads`] | `ic-workloads` | Table VII–IX configs/apps, Figure 9–11 models, M/G/k app |
//! | [`cluster`] | `ic-cluster` | Servers, VMs, bin packing, oversubscription, failover |
//! | [`core`] | `ic-core` | Operating domains, bottleneck analysis, overclock governor, use-cases |
//! | [`autoscale`] | `ic-autoscale` | The overclocking-enhanced auto-scaler (Table XI) |
//! | [`controlplane`] | `ic-controlplane` | Controller trait, telemetry bus, single-clock control-plane runtime |
//! | [`chaos`] | `ic-chaos` | Wear-coupled fault injection, graceful degradation, SLO scorecard |
//! | [`tco`] | `ic-tco` | Table VI TCO model |
//! | [`obs`] | `ic-obs` | Flight recorder (structured tracing), engine observer |
//!
//! # Quickstart
//!
//! ```
//! use immersion_cloud::thermal::junction::ThermalInterface;
//! use immersion_cloud::thermal::fluid::DielectricFluid;
//! use immersion_cloud::power::cpu::CpuSku;
//!
//! // Drop a Skylake 8180 into FC-3284 and watch it earn a turbo bin.
//! let sku = CpuSku::skylake_8180();
//! let air = ThermalInterface::air(35.0, 12.1, 0.21);
//! let tank = ThermalInterface::two_phase(DielectricFluid::fc3284(), 0.08, 1.6);
//! assert!(sku.max_turbo(&tank, sku.tdp_w()) > sku.max_turbo(&air, sku.tdp_w()));
//! ```

pub use ic_autoscale as autoscale;
pub use ic_chaos as chaos;
pub use ic_cluster as cluster;
pub use ic_controlplane as controlplane;
pub use ic_core as core;
pub use ic_obs as obs;
pub use ic_par as par;
pub use ic_power as power;
pub use ic_reliability as reliability;
pub use ic_scenario as scenario;
pub use ic_sim as sim;
pub use ic_tco as tco;
pub use ic_telemetry as telemetry;
pub use ic_thermal as thermal;
pub use ic_workloads as workloads;
