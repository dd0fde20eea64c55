//! Engineered dielectric fluids for immersion cooling (paper Table II).
//!
//! Fluorinated fluids are designed to boil at specific temperatures, are
//! non-conductive and chemically inert, and have a useful life beyond 30
//! years. The paper uses 3M FC-3284 (Fluorinert) in small tank #2 and the
//! large tank, and 3M HFE-7000 (Novec 7000) in small tank #1.

use ic_scenario::{FluidSpec, ThermalCalibration};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dielectric fluid engineered for immersion cooling.
///
/// # Example
///
/// ```
/// use ic_thermal::fluid::DielectricFluid;
///
/// let fc = DielectricFluid::fc3284();
/// assert_eq!(fc.boiling_point_c(), 50.0);
/// // Boiling off 1 kg of FC-3284 absorbs 105 kJ.
/// assert_eq!(fc.heat_absorbed_kj(1.0), 105.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DielectricFluid {
    name: String,
    boiling_point_c: f64,
    dielectric_constant: f64,
    latent_heat_j_per_g: f64,
    useful_life_years: f64,
    /// Global-warming potential class; both paper fluids are high-GWP,
    /// which is why 2PIC tanks must keep vapor losses low.
    high_gwp: bool,
}

impl DielectricFluid {
    /// Builds a fluid from a scenario specification.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`DielectricFluid::custom`];
    /// a spec from a validated [`ic_scenario::Scenario`] never does.
    pub fn from_spec(spec: &FluidSpec) -> Self {
        Self::custom(
            spec.name.clone(),
            spec.boiling_point_c,
            spec.dielectric_constant,
            spec.latent_heat_j_per_g,
            spec.useful_life_years,
            spec.high_gwp,
        )
    }

    fn paper_fluid(name: &str) -> Self {
        Self::from_spec(
            ThermalCalibration::paper()
                .fluid(name)
                .expect("paper calibration fluid"),
        )
    }

    /// 3M Fluorinert FC-3284: boils at 50 °C, latent heat 105 J/g
    /// (Table II). Used in small tank #2 and the 36-blade large tank.
    pub fn fc3284() -> Self {
        Self::paper_fluid("3M FC-3284")
    }

    /// 3M Novec HFE-7000: boils at 34 °C, latent heat 142 J/g (Table II).
    /// Used in small tank #1 with the overclockable Xeon W-3175X; its lower
    /// boiling point yields the lowest junction temperatures, which is what
    /// lets overclocked lifetime match the air-cooled baseline (Table V).
    pub fn hfe7000() -> Self {
        Self::paper_fluid("3M HFE-7000")
    }

    /// Creates a custom fluid, e.g. to explore the lower-GWP alternatives
    /// the paper mentions but had not yet tested.
    ///
    /// # Panics
    ///
    /// Panics if the boiling point is outside a plausible (0, 100] °C
    /// range, or if the latent heat or useful life are not positive.
    pub fn custom(
        name: impl Into<String>,
        boiling_point_c: f64,
        dielectric_constant: f64,
        latent_heat_j_per_g: f64,
        useful_life_years: f64,
        high_gwp: bool,
    ) -> Self {
        assert!(
            boiling_point_c > 0.0 && boiling_point_c <= 100.0,
            "implausible boiling point {boiling_point_c} °C"
        );
        assert!(latent_heat_j_per_g > 0.0, "latent heat must be positive");
        assert!(useful_life_years > 0.0, "useful life must be positive");
        DielectricFluid {
            name: name.into(),
            boiling_point_c,
            dielectric_constant,
            latent_heat_j_per_g,
            useful_life_years,
            high_gwp,
        }
    }

    /// The fluid's marketing name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The boiling point in °C — the bulk liquid temperature of a 2PIC
    /// tank in steady state, and therefore the reference temperature of
    /// the junction model.
    pub fn boiling_point_c(&self) -> f64 {
        self.boiling_point_c
    }

    /// The relative dielectric constant.
    pub fn dielectric_constant(&self) -> f64 {
        self.dielectric_constant
    }

    /// The latent heat of vaporization in J/g.
    pub fn latent_heat_j_per_g(&self) -> f64 {
        self.latent_heat_j_per_g
    }

    /// The engineered useful life in years (">30 years" in Table II).
    pub fn useful_life_years(&self) -> f64 {
        self.useful_life_years
    }

    /// `true` if the fluid has high global-warming potential and therefore
    /// requires vapor management (Takeaway 4).
    pub fn is_high_gwp(&self) -> bool {
        self.high_gwp
    }

    /// Heat absorbed, in kJ, by boiling off `mass_kg` of fluid.
    ///
    /// # Panics
    ///
    /// Panics if `mass_kg` is negative or non-finite.
    pub fn heat_absorbed_kj(&self, mass_kg: f64) -> f64 {
        assert!(mass_kg.is_finite() && mass_kg >= 0.0, "invalid mass");
        // J/g == kJ/kg.
        self.latent_heat_j_per_g * mass_kg
    }

    /// The mass of fluid, in kg, boiled per second to remove `heat_w`
    /// watts — the vapor generation rate the condenser must keep up with.
    ///
    /// # Panics
    ///
    /// Panics if `heat_w` is negative or non-finite.
    pub fn boil_rate_kg_per_s(&self, heat_w: f64) -> f64 {
        assert!(heat_w.is_finite() && heat_w >= 0.0, "invalid heat load");
        heat_w / (self.latent_heat_j_per_g * 1000.0)
    }
}

impl fmt::Display for DielectricFluid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} (boils at {} °C)", self.name, self.boiling_point_c)
    }
}

/// Boiling-enhancing coating (BEC), required for surfaces with heat flux
/// above 10 W/cm² (Section II). The paper uses 3M L-20227, which improves
/// boiling performance 2× over uncoated smooth surfaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BoilingCoating {
    /// No coating: smooth surface.
    None,
    /// 3M L-20227 microporous metallic coating (2× boiling performance).
    L20227,
}

impl BoilingCoating {
    /// The multiplier on boiling heat-transfer performance relative to an
    /// uncoated surface. Thermal resistance scales with its inverse.
    pub fn performance_factor(self) -> f64 {
        match self {
            BoilingCoating::None => 1.0,
            BoilingCoating::L20227 => 2.0,
        }
    }

    /// The heat-flux threshold above which a coating is required, W/cm²
    /// (Section II).
    pub const REQUIRED_ABOVE_W_PER_CM2: f64 = 10.0;

    /// Whether a bare surface with the given heat flux needs a coating.
    pub fn required_for_flux(flux_w_per_cm2: f64) -> bool {
        flux_w_per_cm2 > Self::REQUIRED_ABOVE_W_PER_CM2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_fc3284() {
        let f = DielectricFluid::fc3284();
        assert_eq!(f.boiling_point_c(), 50.0);
        assert_eq!(f.dielectric_constant(), 1.86);
        assert_eq!(f.latent_heat_j_per_g(), 105.0);
        assert!(f.useful_life_years() >= 30.0);
        assert!(f.is_high_gwp());
    }

    #[test]
    fn table2_hfe7000() {
        let f = DielectricFluid::hfe7000();
        assert_eq!(f.boiling_point_c(), 34.0);
        assert_eq!(f.dielectric_constant(), 7.4);
        assert_eq!(f.latent_heat_j_per_g(), 142.0);
    }

    #[test]
    fn boil_rate_balances_heat() {
        let f = DielectricFluid::fc3284();
        // A 700 W server boils 700 / 105000 kg/s.
        let rate = f.boil_rate_kg_per_s(700.0);
        assert!((rate - 700.0 / 105_000.0).abs() < 1e-12);
        // Boiling that mass for one second absorbs exactly the heat.
        assert!((f.heat_absorbed_kj(rate) * 1000.0 - 700.0).abs() < 1e-9);
    }

    #[test]
    fn hfe_boils_less_mass_for_same_heat() {
        let fc = DielectricFluid::fc3284();
        let hfe = DielectricFluid::hfe7000();
        assert!(hfe.boil_rate_kg_per_s(1000.0) < fc.boil_rate_kg_per_s(1000.0));
    }

    #[test]
    fn custom_fluid_validates() {
        let f = DielectricFluid::custom("LowGWP-X", 45.0, 2.0, 120.0, 25.0, false);
        assert!(!f.is_high_gwp());
        assert_eq!(f.name(), "LowGWP-X");
    }

    #[test]
    #[should_panic(expected = "implausible boiling point")]
    fn custom_fluid_rejects_bad_boiling_point() {
        let _ = DielectricFluid::custom("X", 150.0, 2.0, 120.0, 25.0, false);
    }

    #[test]
    fn bec_doubles_performance() {
        assert_eq!(BoilingCoating::L20227.performance_factor(), 2.0);
        assert_eq!(BoilingCoating::None.performance_factor(), 1.0);
    }

    #[test]
    fn bec_required_above_threshold() {
        assert!(!BoilingCoating::required_for_flux(5.0));
        assert!(BoilingCoating::required_for_flux(25.0));
        // A 205 W Skylake over a ~5 cm² die is far above the threshold.
        assert!(BoilingCoating::required_for_flux(205.0 / 5.0));
    }

    #[test]
    fn display_mentions_boiling_point() {
        assert!(DielectricFluid::hfe7000().to_string().contains("34"));
    }
}
