//! # ic-scenario — the calibration surface as data
//!
//! Every constant the models are calibrated against — the Table II
//! fluids, the Table III platform fits (R_th, measured power, observed
//! T_j), the tank prototypes, the V/f anchor points and leakage deltas
//! of Section 4, the Table V lifetime fit points, and the Table
//! VII/VIII/IX workload catalogs — lives here as one plain-data
//! [`Scenario`] value. [`Scenario::paper`] reproduces the paper's
//! calibration exactly; the preset constructors in `ic-thermal`,
//! `ic-power`, `ic-reliability`, and `ic-workloads` are thin wrappers
//! over it. A scenario serializes to JSON ([`Scenario::to_json`]) and
//! back ([`Scenario::from_json`]), so experiments can run against an
//! edited calibration without recompiling.
//!
//! The vendored `serde` is a hermetic stub, so the JSON codec is
//! hand-rolled in [`ic_sim::json`]; floats use shortest round-trip formatting,
//! which makes `paper() → JSON → from_json` reproduce every field
//! bit-for-bit.

use ic_sim::StreamVersion;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;
use std::sync::{Mutex, OnceLock};

use ic_sim::json::{self, Json};

/// An error producing or consuming a scenario.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The input was not valid JSON.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// The JSON was valid but did not match the scenario schema.
    Schema {
        /// Dotted path to the offending field.
        path: String,
        /// What went wrong.
        message: String,
    },
    /// The scenario decoded but fails semantic validation.
    Invalid {
        /// What went wrong.
        message: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Parse { offset, message } => {
                write!(f, "scenario JSON parse error at byte {offset}: {message}")
            }
            ScenarioError::Schema { path, message } => {
                write!(f, "scenario schema error at {path}: {message}")
            }
            ScenarioError::Invalid { message } => write!(f, "invalid scenario: {message}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// Interns a string, returning a `&'static str` with the same content.
///
/// The model crates keep `&'static str` names (they predate scenarios
/// and are cheap to copy); scenario-driven constructors intern their
/// owned strings through this deduplicating pool, so repeated catalog
/// construction does not leak memory beyond one copy per distinct name.
pub fn intern(s: &str) -> &'static str {
    static POOL: OnceLock<Mutex<HashSet<&'static str>>> = OnceLock::new();
    let pool = POOL.get_or_init(|| Mutex::new(HashSet::new()));
    let mut set = pool.lock().expect("intern pool poisoned");
    if let Some(&hit) = set.get(s) {
        return hit;
    }
    let leaked: &'static str = Box::leak(s.to_owned().into_boxed_str());
    set.insert(leaked);
    leaked
}

// ---------------------------------------------------------------------
// The scenario tree
// ---------------------------------------------------------------------

/// A complete calibration scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Human-readable scenario name.
    pub name: String,
    /// Sampler stream version experiments built from this scenario use
    /// (see [`StreamVersion`]). `v1` replays every historical record
    /// byte-for-byte; `v2` selects the buffered ziggurat fast path with
    /// a different (still seed-deterministic) value sequence. Scenario
    /// JSON written before this field existed decodes as `v1`.
    pub rng_stream: StreamVersion,
    /// Fluids, platform fits, and tank prototypes (`ic-thermal`).
    pub thermal: ThermalCalibration,
    /// V/f anchors and the leakage model (`ic-power`).
    pub power: PowerCalibration,
    /// Failure-mechanism fits and Table V points (`ic-reliability`).
    pub reliability: ReliabilityCalibration,
    /// Application and configuration catalogs (`ic-workloads`).
    pub workloads: WorkloadCalibration,
    /// Optional fault-injection configuration (`ic-chaos`). Scenario
    /// JSON written before fault injection existed decodes as `None`,
    /// and `None` is omitted on encode, so fault-free scenarios
    /// round-trip byte-identically to their historical form.
    pub faults: Option<FaultConfig>,
}

/// Thermal calibration: Table II fluids, Table III platform fits, and
/// the three tank prototypes of Section 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalCalibration {
    /// Dielectric fluids (Table II).
    pub fluids: Vec<FluidSpec>,
    /// Calibrated platforms (Table III rows, in table order).
    pub platforms: Vec<PlatformSpec>,
    /// Tank prototypes.
    pub tanks: Vec<TankSpec>,
}

/// One Table II dielectric fluid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FluidSpec {
    /// Marketing name, e.g. `"3M FC-3284"`.
    pub name: String,
    /// Boiling point at one atmosphere, °C.
    pub boiling_point_c: f64,
    /// Relative dielectric constant.
    pub dielectric_constant: f64,
    /// Latent heat of vaporization, J/g.
    pub latent_heat_j_per_g: f64,
    /// Useful life, years.
    pub useful_life_years: f64,
    /// Whether the fluid has high global-warming potential.
    pub high_gwp: bool,
}

/// How a platform is cooled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CoolingSpec {
    /// Forced air: reference temperature is `inlet_c + case_rise_c`.
    Air {
        /// Server inlet temperature, °C.
        inlet_c: f64,
        /// Case-to-inlet temperature rise, °C.
        case_rise_c: f64,
    },
    /// Two-phase immersion: reference is the fluid's boiling point plus
    /// superheat.
    TwoPhase {
        /// Name of a fluid in [`ThermalCalibration::fluids`].
        fluid: String,
        /// Bath superheat above the boiling point, °C.
        superheat_c: f64,
    },
}

/// One calibrated Table III platform: a SKU under a cooling setup with
/// its fitted junction-to-reference thermal resistance and the measured
/// operating point the fit anchors to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlatformSpec {
    /// Row label, e.g. `"Skylake 8168 / Air"`.
    pub label: String,
    /// SKU name, resolvable via `CpuSku::by_name`.
    pub sku: String,
    /// Cooling setup.
    pub cooling: CoolingSpec,
    /// Junction-to-reference thermal resistance, °C/W.
    pub r_th_c_per_w: f64,
    /// Measured package power at the calibration point, W.
    pub measured_power_w: f64,
    /// Observed junction temperature at that power, °C.
    pub observed_tj_c: f64,
}

/// One tank prototype.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TankSpec {
    /// Prototype name.
    pub name: String,
    /// Name of a fluid in [`ThermalCalibration::fluids`].
    pub fluid: String,
    /// Number of server slots.
    pub server_slots: u32,
    /// Condenser heat-rejection capacity, W.
    pub condenser_capacity_w: f64,
    /// Whether the tank is sealed (vapor recovery).
    pub sealed: bool,
}

/// Power calibration: the measured Skylake V/f anchor points and the
/// leakage model of Section 4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerCalibration {
    /// V/f anchor points.
    pub vf: VfAnchors,
    /// Leakage-power model coefficients.
    pub leakage: LeakageSpec,
}

/// The two measured V/f anchor points: nominal, and the overclocked
/// point at `nominal × oc_frequency_ratio`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VfAnchors {
    /// Nominal (all-core turbo) frequency, GHz.
    pub nominal_ghz: f64,
    /// Supply voltage at the nominal point, V.
    pub nominal_v: f64,
    /// Overclock frequency as a ratio of nominal (the paper's +23 %).
    pub oc_frequency_ratio: f64,
    /// Supply voltage at the overclocked point, V.
    pub oc_v: f64,
}

/// Leakage-power coefficients: `P_leak = k · V² · exp(β · T_j)`.
///
/// `k_w` is pre-fitted (for the paper, from the measured 11 W saving
/// between 92 °C and 68 °C at 0.90 V) so the model is fully determined
/// by the two numbers stored here.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LeakageSpec {
    /// Temperature sensitivity β, 1/°C.
    pub beta_per_c: f64,
    /// Scale coefficient k, W/V².
    pub k_w_per_v2: f64,
}

/// Reliability calibration: the three failure-mechanism fits and the
/// Table V operating points they were fitted against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ReliabilityCalibration {
    /// Gate-oxide breakdown fit.
    pub gate_oxide: GateOxideSpec,
    /// Electromigration fit.
    pub electromigration: ElectromigrationSpec,
    /// Thermal-cycling fit.
    pub thermal_cycling: ThermalCyclingSpec,
    /// Table V rows: cooling setup, operating conditions, paper
    /// lifetime.
    pub table5: Vec<LifetimePointSpec>,
}

/// Gate-oxide breakdown: `rate = exp(ln_a) · exp(γV) · exp(−Ea/kT)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GateOxideSpec {
    /// Natural log of the pre-exponential constant.
    pub ln_a: f64,
    /// Voltage acceleration γ, 1/V.
    pub gamma_per_v: f64,
    /// Activation energy, eV.
    pub ea_ev: f64,
}

/// Electromigration: `rate = exp(ln_a) · exp(−Ea/kT)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElectromigrationSpec {
    /// Natural log of the pre-exponential constant.
    pub ln_a: f64,
    /// Activation energy, eV.
    pub ea_ev: f64,
}

/// Thermal cycling: `rate = exp(ln_b) · ΔT_j^q`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ThermalCyclingSpec {
    /// Natural log of the Coffin–Manson coefficient.
    pub ln_b: f64,
    /// Coffin–Manson exponent.
    pub q: f64,
}

/// One Table V operating point with the paper's projected lifetime.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LifetimePointSpec {
    /// Cooling label, e.g. `"Air cooling"` or `"FC-3284"`.
    pub cooling: String,
    /// Whether the point is overclocked.
    pub overclocked: bool,
    /// Supply voltage, V.
    pub voltage_v: f64,
    /// Maximum junction temperature, °C.
    pub tj_max_c: f64,
    /// Minimum (idle) junction temperature, °C.
    pub tj_min_c: f64,
    /// The paper's projected lifetime, years.
    pub paper_years: f64,
}

/// Workload calibration: the Table IX applications and the Table
/// VII/VIII CPU and GPU configurations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadCalibration {
    /// Applications (Table IX, in table order).
    pub apps: Vec<AppSpec>,
    /// CPU configurations (Table VII, in table order).
    pub cpu_configs: Vec<CpuConfigSpec>,
    /// GPU configurations (Table VIII, in table order).
    pub gpu_configs: Vec<GpuConfigSpec>,
}

/// Valid values for [`AppSpec::metric`].
pub const METRICS: [&str; 5] = [
    "p95_latency",
    "p99_latency",
    "seconds",
    "ops_per_sec",
    "mb_per_sec",
];

/// One Table IX application profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppSpec {
    /// Application name.
    pub name: String,
    /// Cores used.
    pub cores: u32,
    /// `true` for in-house workloads, `false` for public benchmarks.
    pub in_house: bool,
    /// One-line description.
    pub description: String,
    /// Reported metric; one of [`METRICS`].
    pub metric: String,
    /// Whether the application is latency-sensitive.
    pub latency_sensitive: bool,
    /// Fraction of time bound on the core clock.
    pub core_share: f64,
    /// Fraction bound on the uncore/LLC clock.
    pub llc_share: f64,
    /// Fraction bound on the memory clock.
    pub memory_share: f64,
    /// Clock-insensitive fraction.
    pub fixed_share: f64,
    /// Sustained memory bandwidth, GB/s.
    pub mem_bw_gbps: f64,
}

/// One Table VII CPU configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CpuConfigSpec {
    /// Row label, e.g. `"OC3"`.
    pub name: String,
    /// Core frequency, GHz.
    pub core_ghz: f64,
    /// Voltage offset, mV.
    pub voltage_offset_mv: i32,
    /// Whether opportunistic turbo is enabled.
    pub turbo: bool,
    /// Uncore/LLC frequency, GHz.
    pub llc_ghz: f64,
    /// Memory frequency, GHz.
    pub memory_ghz: f64,
}

/// One Table VIII GPU configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GpuConfigSpec {
    /// Row label, e.g. `"OCG2"`.
    pub name: String,
    /// Board power limit, W.
    pub power_limit_w: f64,
    /// Sustained (base) core clock, GHz.
    pub base_ghz: f64,
    /// Boost (turbo) core clock, GHz.
    pub turbo_ghz: f64,
    /// GDDR memory clock, GHz.
    pub memory_ghz: f64,
    /// Voltage offset, mV.
    pub voltage_offset_mv: i32,
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// Deterministic fault-injection configuration, consumed by the
/// `ic-chaos` crate and carried on `FleetConfig` into composed worlds.
///
/// Hardware faults (server failures, correctable-error bursts) are
/// drawn from ic-reliability's wear models along each server's actual
/// operating-point history; the `*_scale` knobs accelerate the
/// multi-year physical rates onto simulated-minute horizons without
/// distorting their relative (V, T_j) sensitivity. Control-plane
/// faults (stale telemetry, sensor dropout, stalled controllers) fire
/// at fixed scheduled windows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultConfig {
    /// Chaos RNG seed. Per-server draw streams are counter-split from
    /// this seed, disjoint from the workload streams, so fault timing
    /// is pure in `(seed, server)` and independent of fleet size.
    pub seed: u64,
    /// Multiplier on the wear-model failure rate (accelerated aging; 0
    /// disables wear failures).
    pub hazard_scale: f64,
    /// Multiplier on the correctable-error burst intensity (0 disables
    /// error bursts).
    pub error_scale: f64,
    /// Shortest repair time, seconds. Each failure draws its repair
    /// delay uniformly from `[repair_min_s, repair_max_s]`.
    pub repair_min_s: f64,
    /// Longest repair time, seconds.
    pub repair_max_s: f64,
    /// Stale-telemetry windows: every controller sees a snapshot frozen
    /// at the window's start until the window ends.
    pub stale_telemetry: Vec<FaultWindow>,
    /// Sensor dropouts: the VM's telemetry row is hidden inside the
    /// window.
    pub sensor_dropouts: Vec<SensorDropout>,
    /// Stalled controllers, by controller name: the named controller
    /// makes no decisions inside the window.
    pub stalled_controllers: Vec<StalledWindow>,
}

/// A half-open `[from_s, until_s)` fault window, seconds of sim time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultWindow {
    /// Window start, seconds.
    pub from_s: f64,
    /// Window end, seconds.
    pub until_s: f64,
}

/// One VM telemetry sensor going dark for a window.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SensorDropout {
    /// The VM whose row is hidden.
    pub vm: u64,
    /// The dropout window.
    pub window: FaultWindow,
}

/// One controller stalled (making no decisions) for a window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StalledWindow {
    /// The stalled controller's `Controller::name`.
    pub controller: String,
    /// The stall window.
    pub window: FaultWindow,
}

impl FaultConfig {
    /// A configuration that injects nothing: zero hazard and error
    /// scales, no control-plane fault windows. Useful as a builder
    /// starting point.
    pub fn disabled() -> FaultConfig {
        FaultConfig {
            seed: 0,
            hazard_scale: 0.0,
            error_scale: 0.0,
            repair_min_s: 60.0,
            repair_max_s: 120.0,
            stale_telemetry: Vec::new(),
            sensor_dropouts: Vec::new(),
            stalled_controllers: Vec::new(),
        }
    }

    /// Validates scales, repair window, and fault windows.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let fail = |message: String| Err(ScenarioError::Invalid { message });
        if !self.hazard_scale.is_finite() || self.hazard_scale < 0.0 {
            return fail(format!(
                "faults.hazard_scale must be finite and >= 0, got {}",
                self.hazard_scale
            ));
        }
        if !self.error_scale.is_finite() || self.error_scale < 0.0 {
            return fail(format!(
                "faults.error_scale must be finite and >= 0, got {}",
                self.error_scale
            ));
        }
        if !(self.repair_min_s.is_finite() && self.repair_max_s.is_finite())
            || self.repair_min_s < 0.0
            || self.repair_min_s > self.repair_max_s
        {
            return fail(format!(
                "faults repair window must satisfy 0 <= repair_min_s <= repair_max_s, got [{}, {}]",
                self.repair_min_s, self.repair_max_s
            ));
        }
        let windows = self
            .stale_telemetry
            .iter()
            .chain(self.sensor_dropouts.iter().map(|d| &d.window))
            .chain(self.stalled_controllers.iter().map(|sc| &sc.window));
        for w in windows {
            if !(w.from_s.is_finite() && w.until_s.is_finite()) || w.from_s > w.until_s {
                return fail(format!(
                    "fault window [{}, {}) must have from_s <= until_s",
                    w.from_s, w.until_s
                ));
            }
        }
        Ok(())
    }

    fn to_tree(&self) -> Json {
        obj(vec![
            ("seed", num(self.seed as f64)),
            ("hazard_scale", num(self.hazard_scale)),
            ("error_scale", num(self.error_scale)),
            ("repair_min_s", num(self.repair_min_s)),
            ("repair_max_s", num(self.repair_max_s)),
            (
                "stale_telemetry",
                Json::Arr(self.stale_telemetry.iter().map(|w| w.to_tree()).collect()),
            ),
            (
                "sensor_dropouts",
                Json::Arr(self.sensor_dropouts.iter().map(|d| d.to_tree()).collect()),
            ),
            (
                "stalled_controllers",
                Json::Arr(
                    self.stalled_controllers
                        .iter()
                        .map(StalledWindow::to_tree)
                        .collect(),
                ),
            ),
        ])
    }

    fn from_tree(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        Ok(FaultConfig {
            seed: u64_field(v, "seed", path)?,
            hazard_scale: f64_field(v, "hazard_scale", path)?,
            error_scale: f64_field(v, "error_scale", path)?,
            repair_min_s: f64_field(v, "repair_min_s", path)?,
            repair_max_s: f64_field(v, "repair_max_s", path)?,
            stale_telemetry: decode_vec(v, "stale_telemetry", path, FaultWindow::from_tree)?,
            sensor_dropouts: decode_vec(v, "sensor_dropouts", path, SensorDropout::from_tree)?,
            stalled_controllers: decode_vec(
                v,
                "stalled_controllers",
                path,
                StalledWindow::from_tree,
            )?,
        })
    }
}

impl FaultWindow {
    fn to_tree(self) -> Json {
        obj(vec![
            ("from_s", num(self.from_s)),
            ("until_s", num(self.until_s)),
        ])
    }

    fn from_tree(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        Ok(FaultWindow {
            from_s: f64_field(v, "from_s", path)?,
            until_s: f64_field(v, "until_s", path)?,
        })
    }
}

impl SensorDropout {
    fn to_tree(self) -> Json {
        obj(vec![
            ("vm", num(self.vm as f64)),
            ("window", self.window.to_tree()),
        ])
    }

    fn from_tree(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        Ok(SensorDropout {
            vm: u64_field(v, "vm", path)?,
            window: FaultWindow::from_tree(field(v, "window", path)?, &format!("{path}.window"))?,
        })
    }
}

impl StalledWindow {
    fn to_tree(&self) -> Json {
        obj(vec![
            ("controller", s(&self.controller)),
            ("window", self.window.to_tree()),
        ])
    }

    fn from_tree(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        Ok(StalledWindow {
            controller: str_field(v, "controller", path)?,
            window: FaultWindow::from_tree(field(v, "window", path)?, &format!("{path}.window"))?,
        })
    }
}

// ---------------------------------------------------------------------
// Paper presets
// ---------------------------------------------------------------------

impl Scenario {
    /// The paper's calibration, exactly as hardcoded in the seed models.
    pub fn paper() -> Scenario {
        Scenario {
            name: "paper".to_string(),
            // The paper's records predate stream versioning: pinned v1.
            rng_stream: StreamVersion::V1,
            thermal: ThermalCalibration::paper(),
            power: PowerCalibration::paper(),
            reliability: ReliabilityCalibration::paper(),
            workloads: WorkloadCalibration::paper(),
            faults: None,
        }
    }
}

impl ThermalCalibration {
    /// The paper's fluids, Table III platform fits, and tanks.
    pub fn paper() -> ThermalCalibration {
        let fc = "3M FC-3284".to_string();
        ThermalCalibration {
            fluids: vec![
                FluidSpec {
                    name: fc.clone(),
                    boiling_point_c: 50.0,
                    dielectric_constant: 1.86,
                    latent_heat_j_per_g: 105.0,
                    useful_life_years: 30.0,
                    high_gwp: true,
                },
                FluidSpec {
                    name: "3M HFE-7000".to_string(),
                    boiling_point_c: 34.0,
                    dielectric_constant: 7.4,
                    latent_heat_j_per_g: 142.0,
                    useful_life_years: 30.0,
                    high_gwp: true,
                },
            ],
            platforms: vec![
                PlatformSpec {
                    label: "Skylake 8168 / Air".to_string(),
                    sku: "Skylake 8168".to_string(),
                    cooling: CoolingSpec::Air {
                        inlet_c: 35.0,
                        case_rise_c: 12.0,
                    },
                    r_th_c_per_w: 0.22,
                    measured_power_w: 204.4,
                    observed_tj_c: 92.0,
                },
                PlatformSpec {
                    label: "Skylake 8168 / 2PIC FC-3284".to_string(),
                    sku: "Skylake 8168".to_string(),
                    cooling: CoolingSpec::TwoPhase {
                        fluid: fc.clone(),
                        superheat_c: 0.4,
                    },
                    r_th_c_per_w: 0.12,
                    measured_power_w: 204.5,
                    observed_tj_c: 75.0,
                },
                PlatformSpec {
                    label: "Skylake 8180 / Air".to_string(),
                    sku: "Skylake 8180".to_string(),
                    cooling: CoolingSpec::Air {
                        inlet_c: 35.0,
                        case_rise_c: 12.1,
                    },
                    r_th_c_per_w: 0.21,
                    measured_power_w: 204.5,
                    observed_tj_c: 90.0,
                },
                PlatformSpec {
                    label: "Skylake 8180 / 2PIC FC-3284".to_string(),
                    sku: "Skylake 8180".to_string(),
                    cooling: CoolingSpec::TwoPhase {
                        fluid: fc.clone(),
                        superheat_c: 1.6,
                    },
                    r_th_c_per_w: 0.08,
                    measured_power_w: 204.4,
                    observed_tj_c: 68.0,
                },
            ],
            tanks: vec![
                TankSpec {
                    name: "small tank #1 (Xeon W-3175X)".to_string(),
                    fluid: "3M HFE-7000".to_string(),
                    server_slots: 2,
                    condenser_capacity_w: 4000.0,
                    sealed: true,
                },
                TankSpec {
                    name: "small tank #2 (i9-9900K + RTX 2080 Ti)".to_string(),
                    fluid: fc.clone(),
                    server_slots: 2,
                    condenser_capacity_w: 4000.0,
                    sealed: true,
                },
                TankSpec {
                    name: "large tank (36 Open Compute blades)".to_string(),
                    fluid: fc,
                    server_slots: 36,
                    condenser_capacity_w: 36.0 * 900.0,
                    sealed: true,
                },
            ],
        }
    }

    /// Looks a fluid up by name.
    pub fn fluid(&self, name: &str) -> Option<&FluidSpec> {
        self.fluids.iter().find(|f| f.name == name)
    }
}

impl PowerCalibration {
    /// The paper's V/f anchors and leakage fit.
    pub fn paper() -> PowerCalibration {
        let beta = 0.022;
        PowerCalibration {
            vf: VfAnchors {
                nominal_ghz: 3.4,
                nominal_v: 0.90,
                oc_frequency_ratio: 1.23,
                oc_v: 0.98,
            },
            leakage: LeakageSpec {
                beta_per_c: beta,
                // Fitted so leakage at 0.90 V drops by the measured
                // 11 W between 92 °C (air) and 68 °C (immersion).
                k_w_per_v2: 11.0 / (0.81 * ((beta * 92.0_f64).exp() - (beta * 68.0_f64).exp())),
            },
        }
    }
}

impl ReliabilityCalibration {
    /// The paper's mechanism fits and Table V points.
    pub fn paper() -> ReliabilityCalibration {
        let row = |cooling: &str, overclocked, voltage_v, tj_max_c, tj_min_c, paper_years| {
            LifetimePointSpec {
                cooling: cooling.to_string(),
                overclocked,
                voltage_v,
                tj_max_c,
                tj_min_c,
                paper_years,
            }
        };
        ReliabilityCalibration {
            gate_oxide: GateOxideSpec {
                ln_a: -10.517_42,
                gamma_per_v: 14.320_047,
                ea_ev: 0.147_369,
            },
            electromigration: ElectromigrationSpec {
                ln_a: 37.473_263,
                ea_ev: 1.263_354,
            },
            thermal_cycling: ThermalCyclingSpec {
                ln_b: -48.455_511,
                q: 11.0,
            },
            table5: vec![
                row("Air cooling", false, 0.90, 85.0, 20.0, 5.0),
                row("Air cooling", true, 0.98, 101.0, 20.0, 1.0),
                row("FC-3284", false, 0.90, 66.0, 50.0, 10.0),
                row("FC-3284", true, 0.98, 74.0, 50.0, 4.0),
                row("HFE-7000", false, 0.90, 51.0, 35.0, 10.0),
                row("HFE-7000", true, 0.98, 60.0, 35.0, 5.0),
            ],
        }
    }
}

impl WorkloadCalibration {
    /// The paper's Table VII/VIII/IX catalogs.
    pub fn paper() -> WorkloadCalibration {
        #[allow(clippy::too_many_arguments)]
        fn app(
            name: &str,
            cores: u32,
            in_house: bool,
            description: &str,
            metric: &str,
            latency_sensitive: bool,
            shares: (f64, f64, f64, f64),
            mem_bw_gbps: f64,
        ) -> AppSpec {
            AppSpec {
                name: name.to_string(),
                cores,
                in_house,
                description: description.to_string(),
                metric: metric.to_string(),
                latency_sensitive,
                core_share: shares.0,
                llc_share: shares.1,
                memory_share: shares.2,
                fixed_share: shares.3,
                mem_bw_gbps,
            }
        }
        fn cpu(
            name: &str,
            core_ghz: f64,
            voltage_offset_mv: i32,
            turbo: bool,
            llc_ghz: f64,
            memory_ghz: f64,
        ) -> CpuConfigSpec {
            CpuConfigSpec {
                name: name.to_string(),
                core_ghz,
                voltage_offset_mv,
                turbo,
                llc_ghz,
                memory_ghz,
            }
        }
        fn gpu(
            name: &str,
            power_limit_w: f64,
            base_ghz: f64,
            turbo_ghz: f64,
            memory_ghz: f64,
            voltage_offset_mv: i32,
        ) -> GpuConfigSpec {
            GpuConfigSpec {
                name: name.to_string(),
                power_limit_w,
                base_ghz,
                turbo_ghz,
                memory_ghz,
                voltage_offset_mv,
            }
        }
        WorkloadCalibration {
            apps: vec![
                app(
                    "SQL",
                    4,
                    true,
                    "BenchCraft standard OLTP",
                    "p95_latency",
                    true,
                    (0.60, 0.08, 0.28, 0.04),
                    24.0,
                ),
                app(
                    "Training",
                    4,
                    true,
                    "TensorFlow model CPU training",
                    "seconds",
                    false,
                    (0.85, 0.05, 0.02, 0.08),
                    12.0,
                ),
                app(
                    "Key-Value",
                    8,
                    true,
                    "Distributed key-value store",
                    "p99_latency",
                    true,
                    (0.65, 0.15, 0.10, 0.10),
                    14.0,
                ),
                app(
                    "BI",
                    4,
                    true,
                    "Business intelligence",
                    "seconds",
                    false,
                    (0.75, 0.01, 0.01, 0.23),
                    6.0,
                ),
                app(
                    "Client-Server",
                    4,
                    true,
                    "M/G/k queue application",
                    "p95_latency",
                    true,
                    (0.80, 0.05, 0.05, 0.10),
                    6.0,
                ),
                app(
                    "Pmbench",
                    2,
                    false,
                    "Paging performance",
                    "seconds",
                    false,
                    (0.38, 0.42, 0.10, 0.10),
                    10.0,
                ),
                app(
                    "DiskSpeed",
                    2,
                    false,
                    "Microsoft's Disk IO bench",
                    "ops_per_sec",
                    false,
                    (0.25, 0.45, 0.20, 0.10),
                    8.0,
                ),
                app(
                    "SPECJBB",
                    4,
                    false,
                    "SpecJbb 2000",
                    "ops_per_sec",
                    true,
                    (0.70, 0.12, 0.08, 0.10),
                    10.0,
                ),
                app(
                    "TeraSort",
                    4,
                    false,
                    "Hadoop TeraSort",
                    "seconds",
                    false,
                    (0.30, 0.25, 0.30, 0.15),
                    28.0,
                ),
                app(
                    "VGG",
                    16,
                    false,
                    "CNN model GPU training",
                    "seconds",
                    false,
                    (0.20, 0.05, 0.05, 0.70),
                    4.0,
                ),
                app(
                    "STREAM",
                    16,
                    false,
                    "Memory bandwidth",
                    "mb_per_sec",
                    false,
                    (0.05, 0.25, 0.65, 0.05),
                    90.0,
                ),
            ],
            cpu_configs: vec![
                cpu("B1", 3.1, 0, false, 2.4, 2.4),
                cpu("B2", 3.4, 0, true, 2.4, 2.4),
                cpu("B3", 3.4, 0, true, 2.8, 2.4),
                cpu("B4", 3.4, 0, true, 2.8, 3.0),
                cpu("OC1", 4.1, 50, false, 2.4, 2.4),
                cpu("OC2", 4.1, 50, false, 2.8, 2.4),
                cpu("OC3", 4.1, 50, false, 2.8, 3.0),
            ],
            gpu_configs: vec![
                gpu("Base", 250.0, 1.35, 1.950, 6.8, 0),
                gpu("OCG1", 250.0, 1.55, 2.085, 6.8, 0),
                gpu("OCG2", 300.0, 1.55, 2.085, 8.1, 100),
                gpu("OCG3", 300.0, 1.55, 2.085, 8.3, 100),
            ],
        }
    }

    /// Looks an application up by name.
    pub fn app(&self, name: &str) -> Option<&AppSpec> {
        self.apps.iter().find(|a| a.name == name)
    }

    /// Looks a CPU configuration up by name (case-insensitive).
    pub fn cpu_config(&self, name: &str) -> Option<&CpuConfigSpec> {
        self.cpu_configs
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }

    /// Looks a GPU configuration up by name (case-insensitive).
    pub fn gpu_config(&self, name: &str) -> Option<&GpuConfigSpec> {
        self.gpu_configs
            .iter()
            .find(|c| c.name.eq_ignore_ascii_case(name))
    }
}

// ---------------------------------------------------------------------
// Validation
// ---------------------------------------------------------------------

impl Scenario {
    /// Checks every semantic constraint the model constructors assert,
    /// so a validated scenario never panics downstream.
    pub fn validate(&self) -> Result<(), ScenarioError> {
        let fail = |message: String| Err(ScenarioError::Invalid { message });
        if self.name.is_empty() {
            return fail("scenario name must not be empty".into());
        }
        if let Some(faults) = &self.faults {
            faults.validate()?;
        }
        let t = &self.thermal;
        if t.fluids.is_empty() {
            return fail("thermal.fluids must not be empty".into());
        }
        for f in &t.fluids {
            if f.name.is_empty() {
                return fail("fluid name must not be empty".into());
            }
            if !(f.boiling_point_c.is_finite()
                && f.boiling_point_c > 0.0
                && f.boiling_point_c <= 100.0)
            {
                return fail(format!(
                    "fluid {}: implausible boiling point {} °C",
                    f.name, f.boiling_point_c
                ));
            }
            if !(f.latent_heat_j_per_g.is_finite() && f.latent_heat_j_per_g > 0.0) {
                return fail(format!("fluid {}: latent heat must be positive", f.name));
            }
            if !(f.useful_life_years.is_finite() && f.useful_life_years > 0.0) {
                return fail(format!("fluid {}: useful life must be positive", f.name));
            }
            if !(f.dielectric_constant.is_finite() && f.dielectric_constant > 0.0) {
                return fail(format!(
                    "fluid {}: dielectric constant must be positive",
                    f.name
                ));
            }
        }
        for p in &t.platforms {
            if p.sku.is_empty() {
                return fail(format!("platform {}: sku must not be empty", p.label));
            }
            if !(p.r_th_c_per_w.is_finite() && p.r_th_c_per_w > 0.0) {
                return fail(format!("platform {}: R_th must be positive", p.label));
            }
            if !(p.measured_power_w.is_finite() && p.measured_power_w >= 0.0) {
                return fail(format!(
                    "platform {}: measured power must be non-negative",
                    p.label
                ));
            }
            if !p.observed_tj_c.is_finite() {
                return fail(format!("platform {}: observed T_j must be finite", p.label));
            }
            match &p.cooling {
                CoolingSpec::Air {
                    inlet_c,
                    case_rise_c,
                } => {
                    if !(inlet_c.is_finite() && case_rise_c.is_finite()) {
                        return fail(format!(
                            "platform {}: air cooling temperatures must be finite",
                            p.label
                        ));
                    }
                }
                CoolingSpec::TwoPhase { fluid, superheat_c } => {
                    if t.fluid(fluid).is_none() {
                        return fail(format!("platform {}: unknown fluid '{fluid}'", p.label));
                    }
                    if !(superheat_c.is_finite() && *superheat_c >= 0.0) {
                        return fail(format!(
                            "platform {}: superheat must be non-negative",
                            p.label
                        ));
                    }
                }
            }
        }
        for tank in &t.tanks {
            if t.fluid(&tank.fluid).is_none() {
                return fail(format!(
                    "tank {}: unknown fluid '{}'",
                    tank.name, tank.fluid
                ));
            }
            if tank.server_slots == 0 {
                return fail(format!("tank {}: must have at least one slot", tank.name));
            }
            if !(tank.condenser_capacity_w.is_finite() && tank.condenser_capacity_w > 0.0) {
                return fail(format!(
                    "tank {}: condenser capacity must be positive",
                    tank.name
                ));
            }
        }
        let vf = &self.power.vf;
        if !(vf.nominal_ghz.is_finite() && vf.nominal_ghz > 0.0 && vf.nominal_ghz <= 100.0) {
            return fail(format!(
                "implausible nominal frequency {} GHz",
                vf.nominal_ghz
            ));
        }
        if !(vf.oc_frequency_ratio.is_finite() && vf.oc_frequency_ratio > 1.0) {
            return fail(format!(
                "oc_frequency_ratio {} must exceed 1",
                vf.oc_frequency_ratio
            ));
        }
        if !(vf.nominal_v.is_finite()
            && vf.oc_v.is_finite()
            && vf.nominal_v > 0.0
            && vf.oc_v >= vf.nominal_v
            && vf.oc_v <= 2.0)
        {
            return fail(format!(
                "V/f anchor voltages ({} V, {} V) must satisfy 0 < nominal <= oc <= 2",
                vf.nominal_v, vf.oc_v
            ));
        }
        let leak = &self.power.leakage;
        if !(leak.beta_per_c.is_finite() && leak.beta_per_c > 0.0) {
            return fail(format!("leakage beta {} must be positive", leak.beta_per_c));
        }
        if !(leak.k_w_per_v2.is_finite() && leak.k_w_per_v2 > 0.0) {
            return fail(format!("leakage k {} must be positive", leak.k_w_per_v2));
        }
        let r = &self.reliability;
        for x in [
            r.gate_oxide.ln_a,
            r.gate_oxide.gamma_per_v,
            r.gate_oxide.ea_ev,
            r.electromigration.ln_a,
            r.electromigration.ea_ev,
            r.thermal_cycling.ln_b,
            r.thermal_cycling.q,
        ] {
            if !x.is_finite() {
                return fail("failure-mechanism coefficients must be finite".into());
            }
        }
        if r.table5.is_empty() {
            return fail("reliability.table5 must not be empty".into());
        }
        for point in &r.table5 {
            if !(point.voltage_v.is_finite() && point.voltage_v > 0.0 && point.voltage_v <= 2.0) {
                return fail(format!(
                    "table5 {}: implausible voltage {} V",
                    point.cooling, point.voltage_v
                ));
            }
            let plausible = |x: f64| x.is_finite() && (-50.0..150.0).contains(&x);
            if !(plausible(point.tj_max_c)
                && plausible(point.tj_min_c)
                && point.tj_min_c <= point.tj_max_c)
            {
                return fail(format!(
                    "table5 {}: implausible junction temperatures [{}, {}] °C",
                    point.cooling, point.tj_min_c, point.tj_max_c
                ));
            }
            if !(point.paper_years.is_finite() && point.paper_years > 0.0) {
                return fail(format!(
                    "table5 {}: paper lifetime must be positive",
                    point.cooling
                ));
            }
        }
        let w = &self.workloads;
        if w.apps.is_empty() || w.cpu_configs.is_empty() || w.gpu_configs.is_empty() {
            return fail("workload catalogs must not be empty".into());
        }
        for a in &w.apps {
            if a.cores == 0 {
                return fail(format!("app {}: must use at least one core", a.name));
            }
            if !METRICS.contains(&a.metric.as_str()) {
                return fail(format!(
                    "app {}: unknown metric '{}' (expected one of {METRICS:?})",
                    a.name, a.metric
                ));
            }
            let shares = [a.core_share, a.llc_share, a.memory_share, a.fixed_share];
            if shares.iter().any(|s| !s.is_finite() || *s < 0.0) {
                return fail(format!("app {}: bottleneck shares must be >= 0", a.name));
            }
            let sum: f64 = shares.iter().sum();
            if (sum - 1.0).abs() > 1e-6 {
                return fail(format!(
                    "app {}: bottleneck shares sum to {sum}, expected 1",
                    a.name
                ));
            }
            if !(a.mem_bw_gbps.is_finite() && a.mem_bw_gbps >= 0.0) {
                return fail(format!("app {}: memory bandwidth must be >= 0", a.name));
            }
        }
        for c in &w.cpu_configs {
            for (what, ghz) in [
                ("core", c.core_ghz),
                ("llc", c.llc_ghz),
                ("memory", c.memory_ghz),
            ] {
                if !(ghz.is_finite() && ghz > 0.0 && ghz <= 100.0) {
                    return fail(format!(
                        "cpu config {}: implausible {what} frequency {ghz} GHz",
                        c.name
                    ));
                }
            }
        }
        for g in &w.gpu_configs {
            if !(g.power_limit_w.is_finite() && g.power_limit_w > 0.0) {
                return fail(format!(
                    "gpu config {}: power limit must be positive",
                    g.name
                ));
            }
            for (what, ghz) in [
                ("base", g.base_ghz),
                ("turbo", g.turbo_ghz),
                ("memory", g.memory_ghz),
            ] {
                if !(ghz.is_finite() && ghz > 0.0 && ghz <= 100.0) {
                    return fail(format!(
                        "gpu config {}: implausible {what} frequency {ghz} GHz",
                        g.name
                    ));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------

fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(text: &str) -> Json {
    Json::Str(text.to_string())
}

fn num(x: f64) -> Json {
    Json::Num(x)
}

impl Scenario {
    /// Serializes to pretty-printed JSON (the format [`Scenario::from_json`]
    /// reads).
    pub fn to_json(&self) -> String {
        json::to_pretty(&self.to_tree())
    }

    /// Parses and validates a scenario from JSON text.
    pub fn from_json(text: &str) -> Result<Scenario, ScenarioError> {
        let tree = json::parse(text).map_err(|e| ScenarioError::Parse {
            offset: e.offset,
            message: e.message,
        })?;
        let scenario = Scenario::from_tree(&tree, "scenario")?;
        scenario.validate()?;
        Ok(scenario)
    }

    fn to_tree(&self) -> Json {
        let mut fields = vec![
            ("name", s(&self.name)),
            ("rng_stream", s(self.rng_stream.name())),
            ("thermal", self.thermal.to_tree()),
            ("power", self.power.to_tree()),
            ("reliability", self.reliability.to_tree()),
            ("workloads", self.workloads.to_tree()),
        ];
        // Omitted when absent so fault-free scenarios keep their
        // historical byte-exact encoding.
        if let Some(faults) = &self.faults {
            fields.push(("faults", faults.to_tree()));
        }
        obj(fields)
    }

    fn from_tree(v: &Json, path: &str) -> Result<Scenario, ScenarioError> {
        // Absent in every scenario file written before stream versioning
        // existed; those must keep decoding (as the v1 they were).
        let rng_stream = match v.get("rng_stream") {
            None => StreamVersion::V1,
            Some(Json::Str(text)) => StreamVersion::parse(text).ok_or_else(|| {
                schema(
                    path,
                    format!("unknown rng_stream '{text}' (expected 'v1' or 'v2')"),
                )
            })?,
            Some(_) => return Err(schema(path, "field 'rng_stream' must be a string")),
        };
        // Absent in every scenario file written before fault injection
        // existed; those decode as fault-free.
        let faults = match v.get("faults") {
            None => None,
            Some(tree) => Some(FaultConfig::from_tree(tree, &format!("{path}.faults"))?),
        };
        Ok(Scenario {
            name: str_field(v, "name", path)?,
            rng_stream,
            faults,
            thermal: ThermalCalibration::from_tree(
                field(v, "thermal", path)?,
                &format!("{path}.thermal"),
            )?,
            power: PowerCalibration::from_tree(field(v, "power", path)?, &format!("{path}.power"))?,
            reliability: ReliabilityCalibration::from_tree(
                field(v, "reliability", path)?,
                &format!("{path}.reliability"),
            )?,
            workloads: WorkloadCalibration::from_tree(
                field(v, "workloads", path)?,
                &format!("{path}.workloads"),
            )?,
        })
    }
}

impl ThermalCalibration {
    fn to_tree(&self) -> Json {
        obj(vec![
            (
                "fluids",
                Json::Arr(self.fluids.iter().map(FluidSpec::to_tree).collect()),
            ),
            (
                "platforms",
                Json::Arr(self.platforms.iter().map(PlatformSpec::to_tree).collect()),
            ),
            (
                "tanks",
                Json::Arr(self.tanks.iter().map(TankSpec::to_tree).collect()),
            ),
        ])
    }

    fn from_tree(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        Ok(ThermalCalibration {
            fluids: decode_vec(v, "fluids", path, FluidSpec::from_tree)?,
            platforms: decode_vec(v, "platforms", path, PlatformSpec::from_tree)?,
            tanks: decode_vec(v, "tanks", path, TankSpec::from_tree)?,
        })
    }
}

impl FluidSpec {
    fn to_tree(&self) -> Json {
        obj(vec![
            ("name", s(&self.name)),
            ("boiling_point_c", num(self.boiling_point_c)),
            ("dielectric_constant", num(self.dielectric_constant)),
            ("latent_heat_j_per_g", num(self.latent_heat_j_per_g)),
            ("useful_life_years", num(self.useful_life_years)),
            ("high_gwp", Json::Bool(self.high_gwp)),
        ])
    }

    fn from_tree(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        Ok(FluidSpec {
            name: str_field(v, "name", path)?,
            boiling_point_c: f64_field(v, "boiling_point_c", path)?,
            dielectric_constant: f64_field(v, "dielectric_constant", path)?,
            latent_heat_j_per_g: f64_field(v, "latent_heat_j_per_g", path)?,
            useful_life_years: f64_field(v, "useful_life_years", path)?,
            high_gwp: bool_field(v, "high_gwp", path)?,
        })
    }
}

impl CoolingSpec {
    fn to_tree(&self) -> Json {
        match self {
            CoolingSpec::Air {
                inlet_c,
                case_rise_c,
            } => obj(vec![
                ("type", s("air")),
                ("inlet_c", num(*inlet_c)),
                ("case_rise_c", num(*case_rise_c)),
            ]),
            CoolingSpec::TwoPhase { fluid, superheat_c } => obj(vec![
                ("type", s("two_phase")),
                ("fluid", s(fluid)),
                ("superheat_c", num(*superheat_c)),
            ]),
        }
    }

    fn from_tree(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        let kind = str_field(v, "type", path)?;
        match kind.as_str() {
            "air" => Ok(CoolingSpec::Air {
                inlet_c: f64_field(v, "inlet_c", path)?,
                case_rise_c: f64_field(v, "case_rise_c", path)?,
            }),
            "two_phase" => Ok(CoolingSpec::TwoPhase {
                fluid: str_field(v, "fluid", path)?,
                superheat_c: f64_field(v, "superheat_c", path)?,
            }),
            other => Err(schema(
                path,
                format!("unknown cooling type '{other}' (expected 'air' or 'two_phase')"),
            )),
        }
    }
}

impl PlatformSpec {
    fn to_tree(&self) -> Json {
        obj(vec![
            ("label", s(&self.label)),
            ("sku", s(&self.sku)),
            ("cooling", self.cooling.to_tree()),
            ("r_th_c_per_w", num(self.r_th_c_per_w)),
            ("measured_power_w", num(self.measured_power_w)),
            ("observed_tj_c", num(self.observed_tj_c)),
        ])
    }

    fn from_tree(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        Ok(PlatformSpec {
            label: str_field(v, "label", path)?,
            sku: str_field(v, "sku", path)?,
            cooling: CoolingSpec::from_tree(
                field(v, "cooling", path)?,
                &format!("{path}.cooling"),
            )?,
            r_th_c_per_w: f64_field(v, "r_th_c_per_w", path)?,
            measured_power_w: f64_field(v, "measured_power_w", path)?,
            observed_tj_c: f64_field(v, "observed_tj_c", path)?,
        })
    }
}

impl TankSpec {
    fn to_tree(&self) -> Json {
        obj(vec![
            ("name", s(&self.name)),
            ("fluid", s(&self.fluid)),
            ("server_slots", num(self.server_slots as f64)),
            ("condenser_capacity_w", num(self.condenser_capacity_w)),
            ("sealed", Json::Bool(self.sealed)),
        ])
    }

    fn from_tree(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        Ok(TankSpec {
            name: str_field(v, "name", path)?,
            fluid: str_field(v, "fluid", path)?,
            server_slots: u32_field(v, "server_slots", path)?,
            condenser_capacity_w: f64_field(v, "condenser_capacity_w", path)?,
            sealed: bool_field(v, "sealed", path)?,
        })
    }
}

impl PowerCalibration {
    fn to_tree(&self) -> Json {
        obj(vec![
            (
                "vf",
                obj(vec![
                    ("nominal_ghz", num(self.vf.nominal_ghz)),
                    ("nominal_v", num(self.vf.nominal_v)),
                    ("oc_frequency_ratio", num(self.vf.oc_frequency_ratio)),
                    ("oc_v", num(self.vf.oc_v)),
                ]),
            ),
            (
                "leakage",
                obj(vec![
                    ("beta_per_c", num(self.leakage.beta_per_c)),
                    ("k_w_per_v2", num(self.leakage.k_w_per_v2)),
                ]),
            ),
        ])
    }

    fn from_tree(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        let vf = field(v, "vf", path)?;
        let vf_path = format!("{path}.vf");
        let leakage = field(v, "leakage", path)?;
        let leak_path = format!("{path}.leakage");
        Ok(PowerCalibration {
            vf: VfAnchors {
                nominal_ghz: f64_field(vf, "nominal_ghz", &vf_path)?,
                nominal_v: f64_field(vf, "nominal_v", &vf_path)?,
                oc_frequency_ratio: f64_field(vf, "oc_frequency_ratio", &vf_path)?,
                oc_v: f64_field(vf, "oc_v", &vf_path)?,
            },
            leakage: LeakageSpec {
                beta_per_c: f64_field(leakage, "beta_per_c", &leak_path)?,
                k_w_per_v2: f64_field(leakage, "k_w_per_v2", &leak_path)?,
            },
        })
    }
}

impl ReliabilityCalibration {
    fn to_tree(&self) -> Json {
        obj(vec![
            (
                "gate_oxide",
                obj(vec![
                    ("ln_a", num(self.gate_oxide.ln_a)),
                    ("gamma_per_v", num(self.gate_oxide.gamma_per_v)),
                    ("ea_ev", num(self.gate_oxide.ea_ev)),
                ]),
            ),
            (
                "electromigration",
                obj(vec![
                    ("ln_a", num(self.electromigration.ln_a)),
                    ("ea_ev", num(self.electromigration.ea_ev)),
                ]),
            ),
            (
                "thermal_cycling",
                obj(vec![
                    ("ln_b", num(self.thermal_cycling.ln_b)),
                    ("q", num(self.thermal_cycling.q)),
                ]),
            ),
            (
                "table5",
                Json::Arr(self.table5.iter().map(LifetimePointSpec::to_tree).collect()),
            ),
        ])
    }

    fn from_tree(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        let go = field(v, "gate_oxide", path)?;
        let go_path = format!("{path}.gate_oxide");
        let em = field(v, "electromigration", path)?;
        let em_path = format!("{path}.electromigration");
        let tc = field(v, "thermal_cycling", path)?;
        let tc_path = format!("{path}.thermal_cycling");
        Ok(ReliabilityCalibration {
            gate_oxide: GateOxideSpec {
                ln_a: f64_field(go, "ln_a", &go_path)?,
                gamma_per_v: f64_field(go, "gamma_per_v", &go_path)?,
                ea_ev: f64_field(go, "ea_ev", &go_path)?,
            },
            electromigration: ElectromigrationSpec {
                ln_a: f64_field(em, "ln_a", &em_path)?,
                ea_ev: f64_field(em, "ea_ev", &em_path)?,
            },
            thermal_cycling: ThermalCyclingSpec {
                ln_b: f64_field(tc, "ln_b", &tc_path)?,
                q: f64_field(tc, "q", &tc_path)?,
            },
            table5: decode_vec(v, "table5", path, LifetimePointSpec::from_tree)?,
        })
    }
}

impl LifetimePointSpec {
    fn to_tree(&self) -> Json {
        obj(vec![
            ("cooling", s(&self.cooling)),
            ("overclocked", Json::Bool(self.overclocked)),
            ("voltage_v", num(self.voltage_v)),
            ("tj_max_c", num(self.tj_max_c)),
            ("tj_min_c", num(self.tj_min_c)),
            ("paper_years", num(self.paper_years)),
        ])
    }

    fn from_tree(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        Ok(LifetimePointSpec {
            cooling: str_field(v, "cooling", path)?,
            overclocked: bool_field(v, "overclocked", path)?,
            voltage_v: f64_field(v, "voltage_v", path)?,
            tj_max_c: f64_field(v, "tj_max_c", path)?,
            tj_min_c: f64_field(v, "tj_min_c", path)?,
            paper_years: f64_field(v, "paper_years", path)?,
        })
    }
}

impl WorkloadCalibration {
    fn to_tree(&self) -> Json {
        obj(vec![
            (
                "apps",
                Json::Arr(self.apps.iter().map(AppSpec::to_tree).collect()),
            ),
            (
                "cpu_configs",
                Json::Arr(
                    self.cpu_configs
                        .iter()
                        .map(CpuConfigSpec::to_tree)
                        .collect(),
                ),
            ),
            (
                "gpu_configs",
                Json::Arr(
                    self.gpu_configs
                        .iter()
                        .map(GpuConfigSpec::to_tree)
                        .collect(),
                ),
            ),
        ])
    }

    fn from_tree(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        Ok(WorkloadCalibration {
            apps: decode_vec(v, "apps", path, AppSpec::from_tree)?,
            cpu_configs: decode_vec(v, "cpu_configs", path, CpuConfigSpec::from_tree)?,
            gpu_configs: decode_vec(v, "gpu_configs", path, GpuConfigSpec::from_tree)?,
        })
    }
}

impl AppSpec {
    fn to_tree(&self) -> Json {
        obj(vec![
            ("name", s(&self.name)),
            ("cores", num(self.cores as f64)),
            ("in_house", Json::Bool(self.in_house)),
            ("description", s(&self.description)),
            ("metric", s(&self.metric)),
            ("latency_sensitive", Json::Bool(self.latency_sensitive)),
            ("core_share", num(self.core_share)),
            ("llc_share", num(self.llc_share)),
            ("memory_share", num(self.memory_share)),
            ("fixed_share", num(self.fixed_share)),
            ("mem_bw_gbps", num(self.mem_bw_gbps)),
        ])
    }

    fn from_tree(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        Ok(AppSpec {
            name: str_field(v, "name", path)?,
            cores: u32_field(v, "cores", path)?,
            in_house: bool_field(v, "in_house", path)?,
            description: str_field(v, "description", path)?,
            metric: str_field(v, "metric", path)?,
            latency_sensitive: bool_field(v, "latency_sensitive", path)?,
            core_share: f64_field(v, "core_share", path)?,
            llc_share: f64_field(v, "llc_share", path)?,
            memory_share: f64_field(v, "memory_share", path)?,
            fixed_share: f64_field(v, "fixed_share", path)?,
            mem_bw_gbps: f64_field(v, "mem_bw_gbps", path)?,
        })
    }
}

impl CpuConfigSpec {
    fn to_tree(&self) -> Json {
        obj(vec![
            ("name", s(&self.name)),
            ("core_ghz", num(self.core_ghz)),
            ("voltage_offset_mv", num(self.voltage_offset_mv as f64)),
            ("turbo", Json::Bool(self.turbo)),
            ("llc_ghz", num(self.llc_ghz)),
            ("memory_ghz", num(self.memory_ghz)),
        ])
    }

    fn from_tree(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        Ok(CpuConfigSpec {
            name: str_field(v, "name", path)?,
            core_ghz: f64_field(v, "core_ghz", path)?,
            voltage_offset_mv: i32_field(v, "voltage_offset_mv", path)?,
            turbo: bool_field(v, "turbo", path)?,
            llc_ghz: f64_field(v, "llc_ghz", path)?,
            memory_ghz: f64_field(v, "memory_ghz", path)?,
        })
    }
}

impl GpuConfigSpec {
    fn to_tree(&self) -> Json {
        obj(vec![
            ("name", s(&self.name)),
            ("power_limit_w", num(self.power_limit_w)),
            ("base_ghz", num(self.base_ghz)),
            ("turbo_ghz", num(self.turbo_ghz)),
            ("memory_ghz", num(self.memory_ghz)),
            ("voltage_offset_mv", num(self.voltage_offset_mv as f64)),
        ])
    }

    fn from_tree(v: &Json, path: &str) -> Result<Self, ScenarioError> {
        Ok(GpuConfigSpec {
            name: str_field(v, "name", path)?,
            power_limit_w: f64_field(v, "power_limit_w", path)?,
            base_ghz: f64_field(v, "base_ghz", path)?,
            turbo_ghz: f64_field(v, "turbo_ghz", path)?,
            memory_ghz: f64_field(v, "memory_ghz", path)?,
            voltage_offset_mv: i32_field(v, "voltage_offset_mv", path)?,
        })
    }
}

// ---------------------------------------------------------------------
// Decode helpers
// ---------------------------------------------------------------------

fn schema(path: &str, message: impl Into<String>) -> ScenarioError {
    ScenarioError::Schema {
        path: path.to_string(),
        message: message.into(),
    }
}

fn field<'a>(v: &'a Json, key: &str, path: &str) -> Result<&'a Json, ScenarioError> {
    match v {
        Json::Obj(_) => v
            .get(key)
            .ok_or_else(|| schema(path, format!("missing field '{key}'"))),
        _ => Err(schema(path, "expected an object")),
    }
}

fn f64_field(v: &Json, key: &str, path: &str) -> Result<f64, ScenarioError> {
    match field(v, key, path)? {
        Json::Num(x) => Ok(*x),
        _ => Err(schema(path, format!("field '{key}' must be a number"))),
    }
}

fn u64_field(v: &Json, key: &str, path: &str) -> Result<u64, ScenarioError> {
    let x = f64_field(v, key, path)?;
    // 2^53: the largest range where f64-backed JSON numbers stay exact.
    if x.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&x) {
        Ok(x as u64)
    } else {
        Err(schema(
            path,
            format!("field '{key}' must be a non-negative integer"),
        ))
    }
}

fn u32_field(v: &Json, key: &str, path: &str) -> Result<u32, ScenarioError> {
    let x = f64_field(v, key, path)?;
    if x.fract() == 0.0 && (0.0..=u32::MAX as f64).contains(&x) {
        Ok(x as u32)
    } else {
        Err(schema(
            path,
            format!("field '{key}' must be a non-negative integer"),
        ))
    }
}

fn i32_field(v: &Json, key: &str, path: &str) -> Result<i32, ScenarioError> {
    let x = f64_field(v, key, path)?;
    if x.fract() == 0.0 && (i32::MIN as f64..=i32::MAX as f64).contains(&x) {
        Ok(x as i32)
    } else {
        Err(schema(path, format!("field '{key}' must be an integer")))
    }
}

fn bool_field(v: &Json, key: &str, path: &str) -> Result<bool, ScenarioError> {
    match field(v, key, path)? {
        Json::Bool(b) => Ok(*b),
        _ => Err(schema(path, format!("field '{key}' must be a boolean"))),
    }
}

fn str_field(v: &Json, key: &str, path: &str) -> Result<String, ScenarioError> {
    match field(v, key, path)? {
        Json::Str(text) => Ok(text.clone()),
        _ => Err(schema(path, format!("field '{key}' must be a string"))),
    }
}

fn decode_vec<T>(
    v: &Json,
    key: &str,
    path: &str,
    decode: fn(&Json, &str) -> Result<T, ScenarioError>,
) -> Result<Vec<T>, ScenarioError> {
    match field(v, key, path)? {
        Json::Arr(items) => items
            .iter()
            .enumerate()
            .map(|(i, item)| decode(item, &format!("{path}.{key}[{i}]")))
            .collect(),
        _ => Err(schema(path, format!("field '{key}' must be an array"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scenario_validates() {
        Scenario::paper().validate().expect("paper() must be valid");
    }

    #[test]
    fn paper_round_trips_bit_for_bit() {
        let paper = Scenario::paper();
        let text = paper.to_json();
        let back = Scenario::from_json(&text).expect("round trip");
        assert_eq!(back, paper);
    }

    #[test]
    fn rng_stream_round_trips_and_defaults_to_v1() {
        // The paper scenario is pinned to the v1 stream.
        let paper = Scenario::paper();
        assert_eq!(paper.rng_stream, StreamVersion::V1);
        assert!(paper.to_json().contains("\"rng_stream\": \"v1\""));

        // v2 survives the round trip.
        let mut fast = paper.clone();
        fast.rng_stream = StreamVersion::V2;
        let back = Scenario::from_json(&fast.to_json()).expect("v2 round trip");
        assert_eq!(back.rng_stream, StreamVersion::V2);

        // Pre-versioning scenario JSON (no field at all) decodes as v1.
        let mut legacy = paper.to_json();
        legacy = legacy.replace("  \"rng_stream\": \"v1\",\n", "");
        assert!(!legacy.contains("rng_stream"));
        let back = Scenario::from_json(&legacy).expect("legacy decode");
        assert_eq!(back.rng_stream, StreamVersion::V1);

        // Unknown versions are rejected, not silently coerced.
        let bad = paper.to_json().replace("\"v1\"", "\"v3\"");
        let err = Scenario::from_json(&bad).unwrap_err();
        assert!(err.to_string().contains("rng_stream"), "{err}");
    }

    #[test]
    fn catalog_shapes_match_the_paper() {
        let p = Scenario::paper();
        assert_eq!(p.thermal.fluids.len(), 2);
        assert_eq!(p.thermal.platforms.len(), 4);
        assert_eq!(p.thermal.tanks.len(), 3);
        assert_eq!(p.reliability.table5.len(), 6);
        assert_eq!(p.workloads.apps.len(), 11);
        assert_eq!(p.workloads.cpu_configs.len(), 7);
        assert_eq!(p.workloads.gpu_configs.len(), 4);
    }

    #[test]
    fn lookups_find_presets() {
        let p = Scenario::paper();
        assert!(p.thermal.fluid("3M FC-3284").is_some());
        assert!(p.workloads.app("SQL").is_some());
        assert!(p.workloads.cpu_config("oc3").is_some());
        assert!(p.workloads.gpu_config("OCG2").is_some());
        assert!(p.thermal.fluid("water").is_none());
    }

    #[test]
    fn unknown_fluid_reference_is_rejected() {
        let mut p = Scenario::paper();
        p.thermal.tanks[0].fluid = "unobtainium".to_string();
        let err = p.validate().unwrap_err();
        assert!(err.to_string().contains("unobtainium"), "{err}");
    }

    #[test]
    fn bad_bottleneck_shares_are_rejected() {
        let mut p = Scenario::paper();
        p.workloads.apps[0].core_share += 0.5;
        assert!(p.validate().is_err());
    }

    #[test]
    fn unknown_metric_is_rejected() {
        let mut p = Scenario::paper();
        p.workloads.apps[0].metric = "furlongs".to_string();
        let err = p.validate().unwrap_err();
        assert!(err.to_string().contains("furlongs"), "{err}");
    }

    #[test]
    fn schema_errors_name_the_path() {
        let text = Scenario::paper()
            .to_json()
            .replace("\"nominal_ghz\"", "\"nominal_gzh\"");
        let err = Scenario::from_json(&text).unwrap_err();
        assert!(err.to_string().contains("scenario.power.vf"), "{err}");
    }

    #[test]
    fn parse_errors_report_offsets() {
        let err = Scenario::from_json("{not json").unwrap_err();
        assert!(matches!(err, ScenarioError::Parse { .. }), "{err:?}");
    }

    #[test]
    fn fault_config_round_trips_and_legacy_decodes_as_none() {
        // Absent on paper(); encoded JSON omits the key entirely.
        let paper = Scenario::paper();
        assert!(paper.faults.is_none());
        assert!(!paper.to_json().contains("\"faults\""));

        // A populated config survives the round trip field-for-field.
        let mut chaotic = paper.clone();
        chaotic.faults = Some(FaultConfig {
            seed: 9001,
            hazard_scale: 2.5e5,
            error_scale: 40.0,
            repair_min_s: 30.0,
            repair_max_s: 90.0,
            stale_telemetry: vec![FaultWindow {
                from_s: 100.0,
                until_s: 160.0,
            }],
            sensor_dropouts: vec![SensorDropout {
                vm: 3,
                window: FaultWindow {
                    from_s: 10.0,
                    until_s: 20.0,
                },
            }],
            stalled_controllers: vec![StalledWindow {
                controller: "governor".to_string(),
                window: FaultWindow {
                    from_s: 200.0,
                    until_s: 260.0,
                },
            }],
        });
        chaotic.validate().expect("fault config is valid");
        let back = Scenario::from_json(&chaotic.to_json()).expect("round trip");
        assert_eq!(back, chaotic);

        // Pre-fault scenario JSON (no key) decodes as None.
        let back = Scenario::from_json(&paper.to_json()).expect("legacy decode");
        assert!(back.faults.is_none());
    }

    #[test]
    fn fault_config_validation_rejects_bad_shapes() {
        let mut p = Scenario::paper();
        let mut faults = FaultConfig::disabled();
        faults.hazard_scale = -1.0;
        p.faults = Some(faults.clone());
        assert!(p.validate().is_err(), "negative hazard scale");

        faults.hazard_scale = 0.0;
        faults.repair_min_s = 100.0;
        faults.repair_max_s = 50.0;
        p.faults = Some(faults.clone());
        assert!(p.validate().is_err(), "inverted repair bounds");

        faults.repair_min_s = 10.0;
        faults.repair_max_s = 50.0;
        faults.stale_telemetry = vec![FaultWindow {
            from_s: 9.0,
            until_s: 3.0,
        }];
        p.faults = Some(faults.clone());
        assert!(p.validate().is_err(), "inverted window");

        faults.stale_telemetry.clear();
        p.faults = Some(faults);
        p.validate().expect("disabled-shape config is valid");
    }

    #[test]
    fn interning_dedups_and_preserves_content() {
        let a = intern("Skylake 8168");
        let b = intern(&String::from("Skylake 8168"));
        assert_eq!(a, "Skylake 8168");
        assert!(std::ptr::eq(a, b));
    }
}
