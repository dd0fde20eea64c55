//! Total-cost-of-ownership model for air-cooled and 2PIC datacenters
//! (paper Section IV "TCO" / Table VI, and the oversubscription TCO of
//! Section VI-C).
//!
//! The paper's TCO analysis compares a direct-evaporative hyperscale
//! baseline with non-overclockable and overclockable 2PIC datacenters,
//! reporting per-component deltas relative to the baseline total (Table
//! VI):
//!
//! * non-overclockable 2PIC: **−7 %** cost per physical core — the PUE
//!   reclaim lets the same facility power feed more servers, amortizing
//!   construction/operations/energy, minus small immersion costs;
//! * overclockable 2PIC: **−4 %** — power-delivery upgrades and the
//!   extra overclocking energy give back 3 points;
//! * overclockable 2PIC **with 10 % core oversubscription**: **−13 %
//!   per virtual core** versus air (Section VI-C), since the same
//!   hardware sells 10 % more vcores with overclocking compensating
//!   contention; non-overclockable 2PIC gains ~10 % from the same
//!   amortization alone.
//!
//! # Example
//!
//! ```
//! use ic_tco::{CoolingScenario, TcoModel};
//!
//! let tco = TcoModel::paper();
//! let oc = tco.cost_per_pcore_relative(CoolingScenario::Overclockable2pic);
//! assert!((oc - 0.96).abs() < 1e-9); // −4 % per physical core
//! let vcore = tco.cost_per_vcore_relative(CoolingScenario::Overclockable2pic, 1.10);
//! assert!((vcore - 0.87).abs() < 0.01); // −13 % per virtual core
//! ```

use serde::{Deserialize, Serialize};
use std::fmt;

/// The datacenter designs Table VI compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CoolingScenario {
    /// Direct-evaporative air-cooled hyperscale datacenter (baseline).
    AirBaseline,
    /// 2PIC with stock (TDP-limited) servers.
    NonOverclockable2pic,
    /// 2PIC with overclock-capable servers and upgraded power delivery.
    Overclockable2pic,
}

impl CoolingScenario {
    /// The Table VI column label.
    pub fn label(self) -> &'static str {
        match self {
            CoolingScenario::AirBaseline => "Air baseline",
            CoolingScenario::NonOverclockable2pic => "Non-overclockable 2PIC",
            CoolingScenario::Overclockable2pic => "Overclockable 2PIC",
        }
    }
}

/// The Table VI cost rows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CostComponent {
    /// Server hardware.
    Servers,
    /// Network gear (rises with 2PIC: more servers per facility).
    Network,
    /// Datacenter construction.
    DcConstruction,
    /// Energy.
    Energy,
    /// Operations.
    Operations,
    /// Design, taxes, and fees.
    DesignTaxesFees,
    /// Tanks and dielectric fluid.
    Immersion,
}

impl CostComponent {
    /// All rows in Table VI order.
    pub fn all() -> [CostComponent; 7] {
        [
            CostComponent::Servers,
            CostComponent::Network,
            CostComponent::DcConstruction,
            CostComponent::Energy,
            CostComponent::Operations,
            CostComponent::DesignTaxesFees,
            CostComponent::Immersion,
        ]
    }

    /// The Table VI row label.
    pub fn label(self) -> &'static str {
        match self {
            CostComponent::Servers => "Servers",
            CostComponent::Network => "Network",
            CostComponent::DcConstruction => "DC construction",
            CostComponent::Energy => "Energy",
            CostComponent::Operations => "Operations",
            CostComponent::DesignTaxesFees => "Design, taxes, fees",
            CostComponent::Immersion => "Immersion",
        }
    }
}

impl fmt::Display for CostComponent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The TCO model: per-component deltas (percent of baseline total) for
/// each scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TcoModel {
    non_oc_deltas: [f64; 7],
    oc_deltas: [f64; 7],
}

impl TcoModel {
    /// The paper's Table VI deltas. Blank cells are zero.
    ///
    /// Non-overclockable 2PIC: servers −1 (no fans/sheet metal), network
    /// +1 (more servers), construction −2, energy −2 (PUE), operations
    /// −2, design/taxes/fees −2, immersion +1 → **−7 total**.
    ///
    /// Overclockable 2PIC: the power-delivery upgrade erases the server
    /// saving, and the conservative +200 W/server overclocking energy
    /// (~30 % more server power) brings energy cost back to the air
    /// baseline → **−4 total**.
    pub fn paper() -> Self {
        TcoModel {
            //           Srv   Net  DC    Enrg  Ops   Dsgn  Imm
            non_oc_deltas: [-1.0, 1.0, -2.0, -2.0, -2.0, -2.0, 1.0],
            oc_deltas: [0.0, 1.0, -2.0, 0.0, -2.0, -2.0, 1.0],
        }
    }

    /// The per-component deltas (percent of baseline total) for a
    /// scenario; all zeros for the baseline itself.
    pub fn component_deltas(&self, scenario: CoolingScenario) -> Vec<(CostComponent, f64)> {
        let deltas = match scenario {
            CoolingScenario::AirBaseline => [0.0; 7],
            CoolingScenario::NonOverclockable2pic => self.non_oc_deltas,
            CoolingScenario::Overclockable2pic => self.oc_deltas,
        };
        CostComponent::all().into_iter().zip(deltas).collect()
    }

    /// Cost per physical core relative to the air baseline (1.0 =
    /// baseline).
    pub fn cost_per_pcore_relative(&self, scenario: CoolingScenario) -> f64 {
        let total: f64 = self
            .component_deltas(scenario)
            .iter()
            .map(|&(_, d)| d)
            .sum();
        1.0 + total / 100.0
    }

    /// Cost per *virtual* core relative to the air baseline at a given
    /// vcore:pcore oversubscription ratio. Selling more vcores on the
    /// same hardware amortizes every cost component.
    ///
    /// # Panics
    ///
    /// Panics if `oversub_ratio < 1` or is not finite.
    pub fn cost_per_vcore_relative(&self, scenario: CoolingScenario, oversub_ratio: f64) -> f64 {
        assert!(
            oversub_ratio >= 1.0 && oversub_ratio.is_finite(),
            "invalid oversubscription ratio {oversub_ratio}"
        );
        self.cost_per_pcore_relative(scenario) / oversub_ratio
    }

    /// Renders Table VI as aligned text rows.
    pub fn render_table6(&self) -> String {
        let mut out = format!(
            "{:24}{:>26}{:>22}\n",
            "", "Non-overclockable 2PIC", "Overclockable 2PIC"
        );
        for (i, comp) in CostComponent::all().into_iter().enumerate() {
            let fmt_delta = |d: f64| {
                if d == 0.0 {
                    String::new()
                } else {
                    format!("{:+.0}%", d)
                }
            };
            out.push_str(&format!(
                "{:24}{:>26}{:>22}\n",
                comp.label(),
                fmt_delta(self.non_oc_deltas[i]),
                fmt_delta(self.oc_deltas[i])
            ));
        }
        out.push_str(&format!(
            "{:24}{:>26}{:>22}\n",
            "Cost per physical core",
            format!(
                "{:+.0}%",
                (self.cost_per_pcore_relative(CoolingScenario::NonOverclockable2pic) - 1.0) * 100.0
            ),
            format!(
                "{:+.0}%",
                (self.cost_per_pcore_relative(CoolingScenario::Overclockable2pic) - 1.0) * 100.0
            )
        ));
        out
    }
}

impl Default for TcoModel {
    fn default() -> Self {
        TcoModel::paper()
    }
}

/// An absolute-cost wrapper: anchors the relative model to a baseline
/// cost per physical core (e.g. USD per core-month) for examples and
/// what-if analyses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AbsoluteTco {
    baseline_usd_per_core_month: f64,
}

impl AbsoluteTco {
    /// Creates an absolute model.
    ///
    /// # Panics
    ///
    /// Panics if the baseline cost is not positive.
    pub fn new(baseline_usd_per_core_month: f64) -> Self {
        assert!(
            baseline_usd_per_core_month > 0.0 && baseline_usd_per_core_month.is_finite(),
            "invalid baseline cost"
        );
        AbsoluteTco {
            baseline_usd_per_core_month,
        }
    }

    /// Cost per physical core-month for a scenario, USD.
    pub fn usd_per_pcore_month(&self, model: &TcoModel, scenario: CoolingScenario) -> f64 {
        self.baseline_usd_per_core_month * model.cost_per_pcore_relative(scenario)
    }

    /// Annual savings versus the air baseline for a fleet of `pcores`
    /// physical cores, USD.
    pub fn annual_savings_usd(
        &self,
        model: &TcoModel,
        scenario: CoolingScenario,
        pcores: u64,
    ) -> f64 {
        let delta = 1.0 - model.cost_per_pcore_relative(scenario);
        delta * self.baseline_usd_per_core_month * 12.0 * pcores as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_bottom_line() {
        let m = TcoModel::paper();
        assert!(
            (m.cost_per_pcore_relative(CoolingScenario::NonOverclockable2pic) - 0.93).abs() < 1e-9
        );
        assert!(
            (m.cost_per_pcore_relative(CoolingScenario::Overclockable2pic) - 0.96).abs() < 1e-9
        );
        assert_eq!(m.cost_per_pcore_relative(CoolingScenario::AirBaseline), 1.0);
    }

    #[test]
    fn overclockability_costs_3_points() {
        // "the capability to overclock increases the cost per physical
        // core by 3 %" versus non-overclockable 2PIC.
        let m = TcoModel::paper();
        let non_oc = m.cost_per_pcore_relative(CoolingScenario::NonOverclockable2pic);
        let oc = m.cost_per_pcore_relative(CoolingScenario::Overclockable2pic);
        assert!((oc - non_oc - 0.03).abs() < 1e-9);
    }

    #[test]
    fn oversubscription_reaches_minus_13_pct_per_vcore() {
        let m = TcoModel::paper();
        let v = m.cost_per_vcore_relative(CoolingScenario::Overclockable2pic, 1.10);
        assert!((v - 0.873).abs() < 0.005, "vcore cost {v}");
    }

    #[test]
    fn non_oc_oversubscription_amortizes_about_10_pct() {
        // Non-overclockable 2PIC gains ~10 % from amortization alone
        // (relative to itself).
        let m = TcoModel::paper();
        let without = m.cost_per_vcore_relative(CoolingScenario::NonOverclockable2pic, 1.0);
        let with = m.cost_per_vcore_relative(CoolingScenario::NonOverclockable2pic, 1.10);
        let gain = 1.0 - with / without;
        assert!((gain - 0.0909).abs() < 0.001, "gain {gain}");
    }

    #[test]
    fn component_deltas_match_table6() {
        let m = TcoModel::paper();
        let non_oc = m.component_deltas(CoolingScenario::NonOverclockable2pic);
        assert_eq!(non_oc[0], (CostComponent::Servers, -1.0));
        assert_eq!(non_oc[1], (CostComponent::Network, 1.0));
        assert_eq!(non_oc[6], (CostComponent::Immersion, 1.0));
        let oc = m.component_deltas(CoolingScenario::Overclockable2pic);
        // Power-delivery upgrades erase the server saving; energy
        // returns to baseline.
        assert_eq!(oc[0], (CostComponent::Servers, 0.0));
        assert_eq!(oc[3], (CostComponent::Energy, 0.0));
    }

    #[test]
    fn baseline_deltas_are_zero() {
        let m = TcoModel::paper();
        assert!(m
            .component_deltas(CoolingScenario::AirBaseline)
            .iter()
            .all(|&(_, d)| d == 0.0));
    }

    #[test]
    fn rendered_table_contains_bottom_line() {
        let text = TcoModel::paper().render_table6();
        assert!(text.contains("Cost per physical core"));
        assert!(text.contains("-7%"));
        assert!(text.contains("-4%"));
    }

    #[test]
    fn absolute_model_scales() {
        let m = TcoModel::paper();
        let abs = AbsoluteTco::new(20.0);
        let oc = abs.usd_per_pcore_month(&m, CoolingScenario::Overclockable2pic);
        assert!((oc - 19.2).abs() < 1e-9);
        // A million-core fleet at −7 % saves 7 % × $20 × 12 × 1e6.
        let save = abs.annual_savings_usd(&m, CoolingScenario::NonOverclockable2pic, 1_000_000);
        assert!((save - 0.07 * 20.0 * 12.0 * 1e6).abs() < 1.0);
    }

    #[test]
    #[should_panic(expected = "invalid oversubscription")]
    fn undersubscription_panics() {
        TcoModel::paper().cost_per_vcore_relative(CoolingScenario::AirBaseline, 0.9);
    }

    #[test]
    fn labels() {
        assert_eq!(
            CoolingScenario::Overclockable2pic.label(),
            "Overclockable 2PIC"
        );
        assert_eq!(CostComponent::DcConstruction.to_string(), "DC construction");
    }
}
