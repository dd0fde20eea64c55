//! The overclock governor: "the highest safe frequency right now".
//!
//! Section IV's takeaways enumerate the constraints overclocking must
//! respect: power delivery limits (Takeaway 1), component lifetime
//! (Takeaway 2), and computational stability (Takeaway 3). The governor
//! intersects all three:
//!
//! 1. **Stability** — never exceed the validated stable ratio (+23 %),
//!    or whatever ratio the correctable-error budget allows.
//! 2. **Lifetime** — invert the composite lifetime model: the highest
//!    junction temperature that still meets the service-life target,
//!    converted through the thermal interface into a power limit and
//!    through the SKU's power model into a frequency.
//! 3. **Power** — respect the socket's granted power budget from the
//!    datacenter's priority-aware allocator.
//!
//! The answer is the bin-aligned minimum of the three ceilings.

use crate::domains::OperatingDomains;
use ic_power::cache::SteadyStateCache;
use ic_power::cpu::CpuSku;
use ic_power::units::Frequency;
use ic_reliability::lifetime::{CompositeLifetimeModel, OperatingConditions};
use ic_reliability::stability::StabilityModel;
use ic_thermal::junction::ThermalInterface;
use serde::{Deserialize, Serialize};

/// Static configuration of a governor instance.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GovernorConfig {
    /// The service-life target the fleet must meet, years.
    pub target_lifetime_years: f64,
    /// The minimum junction temperature the part cycles to (fluid
    /// boiling point for 2PIC).
    pub tj_min_c: f64,
}

impl Default for GovernorConfig {
    fn default() -> Self {
        GovernorConfig {
            target_lifetime_years: 5.0,
            tj_min_c: 34.0, // HFE-7000
        }
    }
}

/// The governor's answer, with the binding constraint made explicit.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GovernorDecision {
    /// The granted frequency.
    pub frequency: Frequency,
    /// The ceiling imposed by stability.
    pub stability_ceiling: Frequency,
    /// The ceiling imposed by the lifetime budget.
    pub lifetime_ceiling: Frequency,
    /// The ceiling imposed by the power budget.
    pub power_ceiling: Frequency,
    /// Which constraint bound the decision.
    pub binding: Constraint,
}

/// The constraint that determined a [`GovernorDecision`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Constraint {
    /// The request itself was lower than every ceiling.
    Request,
    /// Computational stability bound the grant.
    Stability,
    /// The lifetime budget bound the grant.
    Lifetime,
    /// The power budget bound the grant.
    Power,
}

impl Constraint {
    /// The lowercase name used in trace and metric output.
    pub fn name(self) -> &'static str {
        match self {
            Constraint::Request => "request",
            Constraint::Stability => "stability",
            Constraint::Lifetime => "lifetime",
            Constraint::Power => "power",
        }
    }
}

/// The overclock governor for one (SKU, cooling) pair.
pub struct OverclockGovernor {
    sku: CpuSku,
    iface: ThermalInterface,
    lifetime: CompositeLifetimeModel,
    stability: StabilityModel,
    config: GovernorConfig,
    /// Every ceiling search walks the same bin ladder through the same
    /// power/temperature fixed points; the memo table makes repeated
    /// `decide` calls cost one solve per distinct operating point over
    /// the governor's lifetime.
    cache: SteadyStateCache,
}

impl std::fmt::Debug for OverclockGovernor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OverclockGovernor")
            .field("sku", &self.sku.name())
            .field("config", &self.config)
            .finish()
    }
}

impl OverclockGovernor {
    /// Creates a governor.
    pub fn new(
        sku: CpuSku,
        iface: ThermalInterface,
        lifetime: CompositeLifetimeModel,
        stability: StabilityModel,
        config: GovernorConfig,
    ) -> Self {
        OverclockGovernor {
            sku,
            iface,
            lifetime,
            stability,
            config,
            cache: SteadyStateCache::new(),
        }
    }

    /// The governor's steady-state memo table (hit-rate inspection).
    pub fn cache(&self) -> &SteadyStateCache {
        &self.cache
    }

    /// Batch-solves the entire ceiling-search ladder — every bin the
    /// lifetime and power searches can visit, 40 bins up from base —
    /// into the memo table in one structure-of-arrays pass. The batch
    /// solver is bitwise-equal to the scalar path, so every later
    /// [`decide`](Self::decide) returns exactly what it would have
    /// computed lazily; only the solve cost moves up front.
    pub fn prewarm(&self) {
        let mut ladder: Vec<(Frequency, ic_power::units::Voltage)> = Vec::with_capacity(40);
        let mut f = self.sku.base();
        for _ in 0..40 {
            f = f.step_bins(1);
            ladder.push((f, self.sku.voltage_for(f)));
        }
        let points: Vec<ic_power::batch::BatchPoint<'_>> = ladder
            .iter()
            .map(|&(f, v)| ic_power::batch::BatchPoint {
                iface: &self.iface,
                f,
                v,
            })
            .collect();
        self.cache.steady_state_batch(&self.sku, &points);
    }

    /// The highest frequency the stability envelope permits: the stable
    /// ratio applied to the 2PIC all-core turbo.
    pub fn stability_ceiling(&self) -> Frequency {
        let turbo = self.sku.air_turbo().step_bins(1);
        Frequency::from_mhz(
            (turbo.mhz() as f64 * self.stability.stable_ceiling_ratio()).floor() as u32,
        )
    }

    /// The highest frequency whose steady-state junction temperature
    /// and voltage still project to the target lifetime. Searches bins
    /// upward from base; each candidate's voltage comes from the V/f
    /// curve and its junction temperature from the thermal fixed point.
    pub fn lifetime_ceiling(&self) -> Frequency {
        let mut best = self.sku.base();
        let mut f = self.sku.base();
        for _ in 0..40 {
            f = f.step_bins(1);
            let v = self.sku.voltage_for(f);
            let ss = self.cache.steady_state(&self.sku, &self.iface, f, v);
            let cond = OperatingConditions::new(
                v.volts(),
                ss.tj_c.clamp(self.config.tj_min_c, 149.0),
                self.config.tj_min_c,
            );
            if self.lifetime.lifetime_years(&cond) >= self.config.target_lifetime_years {
                best = f;
            } else {
                break;
            }
        }
        best
    }

    /// The highest frequency whose steady-state power fits inside
    /// `granted_power_w` (e.g. a [`ic_power::capping::PowerGrant`]).
    pub fn power_ceiling(&self, granted_power_w: f64) -> Frequency {
        self.cache
            .max_turbo(&self.sku, &self.iface, granted_power_w)
    }

    /// Grants the highest safe frequency at or below `requested`,
    /// given the socket's power grant.
    pub fn decide(&self, requested: Frequency, granted_power_w: f64) -> GovernorDecision {
        let stability_ceiling = self.stability_ceiling();
        let lifetime_ceiling = self.lifetime_ceiling();
        let power_ceiling = self.power_ceiling(granted_power_w);
        let mut frequency = requested;
        let mut binding = Constraint::Request;
        for (ceiling, constraint) in [
            (stability_ceiling, Constraint::Stability),
            (lifetime_ceiling, Constraint::Lifetime),
            (power_ceiling, Constraint::Power),
        ] {
            if ceiling < frequency {
                frequency = ceiling;
                binding = constraint;
            }
        }
        GovernorDecision {
            frequency,
            stability_ceiling,
            lifetime_ceiling,
            power_ceiling,
            binding,
        }
    }

    /// The operating-domain map implied by this governor's ceilings.
    pub fn domains(&self) -> OperatingDomains {
        let turbo = self.sku.air_turbo().step_bins(1);
        let green = self.lifetime_ceiling().max(turbo);
        let ceiling = self.stability_ceiling().max(green);
        OperatingDomains::new(
            Frequency::from_mhz(1200),
            self.sku.base(),
            turbo,
            green,
            ceiling,
        )
    }

    /// The SKU under governance.
    pub fn sku(&self) -> &CpuSku {
        &self.sku
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_thermal::fluid::DielectricFluid;

    fn hfe_governor() -> OverclockGovernor {
        OverclockGovernor::new(
            CpuSku::skylake_8180(),
            ThermalInterface::two_phase(DielectricFluid::hfe7000(), 0.084, 0.0),
            CompositeLifetimeModel::fitted_5nm(),
            StabilityModel::paper_characterization(),
            GovernorConfig::default(),
        )
    }

    fn air_governor() -> OverclockGovernor {
        OverclockGovernor::new(
            CpuSku::skylake_8180(),
            ThermalInterface::air(35.0, 12.1, 0.21),
            CompositeLifetimeModel::fitted_5nm(),
            StabilityModel::paper_characterization(),
            GovernorConfig {
                target_lifetime_years: 5.0,
                tj_min_c: 20.0,
            },
        )
    }

    #[test]
    fn stability_ceiling_is_23_pct_over_turbo() {
        let g = hfe_governor();
        let ceiling = g.stability_ceiling();
        // 2.7 GHz 2PIC turbo × 1.23 ≈ 3.3 GHz.
        assert!((ceiling.ghz() - 2.7 * 1.23).abs() < 0.1, "{ceiling}");
    }

    #[test]
    fn immersion_lifetime_ceiling_far_exceeds_airs() {
        let in_tank = hfe_governor().lifetime_ceiling();
        let in_air = air_governor().lifetime_ceiling();
        assert!(
            in_tank.bins_above(in_air) >= 3,
            "tank {in_tank} vs air {in_air}"
        );
    }

    #[test]
    fn generous_budget_grants_the_request_in_the_green_band() {
        let g = hfe_governor();
        let d = g.decide(Frequency::from_ghz(3.0), 400.0);
        assert_eq!(d.frequency, Frequency::from_ghz(3.0));
        assert_eq!(d.binding, Constraint::Request);
    }

    #[test]
    fn power_budget_binds_under_capping() {
        let g = hfe_governor();
        let d = g.decide(Frequency::from_ghz(3.3), 180.0);
        assert_eq!(d.binding, Constraint::Power);
        assert!(d.frequency < Frequency::from_ghz(3.3));
        // The granted frequency really fits the budget.
        let v = g.sku().voltage_for(d.frequency);
        let ss = g.sku().steady_state(
            &ThermalInterface::two_phase(DielectricFluid::hfe7000(), 0.084, 0.0),
            d.frequency,
            v,
        );
        assert!(ss.power_w <= 180.0);
    }

    #[test]
    fn excessive_requests_clamp_to_a_ceiling() {
        let g = hfe_governor();
        let d = g.decide(Frequency::from_ghz(5.0), 1000.0);
        assert!(d.frequency < Frequency::from_ghz(5.0));
        assert_ne!(d.binding, Constraint::Request);
    }

    #[test]
    fn air_cannot_overclock_within_lifetime_budget() {
        let g = air_governor();
        // In air, the lifetime ceiling sits at or barely above turbo.
        let ceiling = g.lifetime_ceiling();
        assert!(
            ceiling <= CpuSku::skylake_8180().air_turbo().step_bins(1),
            "air lifetime ceiling {ceiling}"
        );
    }

    #[test]
    fn decision_reports_all_ceilings() {
        let g = hfe_governor();
        let d = g.decide(Frequency::from_ghz(3.2), 305.0);
        assert!(d.stability_ceiling >= d.frequency);
        assert!(d.lifetime_ceiling >= d.frequency);
        assert!(d.power_ceiling >= d.frequency);
    }

    #[test]
    fn cached_ceilings_match_the_direct_solver() {
        let g = hfe_governor();
        let iface = ThermalInterface::two_phase(DielectricFluid::hfe7000(), 0.084, 0.0);
        for limit in [150.0, 205.0, 305.0, 400.0] {
            assert_eq!(
                g.power_ceiling(limit),
                g.sku().max_turbo(&iface, limit),
                "limit {limit}"
            );
        }
        let first = g.decide(Frequency::from_ghz(3.3), 305.0);
        let second = g.decide(Frequency::from_ghz(3.3), 305.0);
        assert_eq!(first, second);
        assert!(
            g.cache().hit_rate() > 0.5,
            "repeated decisions should be memo-dominated, hit rate {}",
            g.cache().hit_rate()
        );
    }

    #[test]
    fn domains_are_consistent_with_ceilings() {
        let g = hfe_governor();
        let domains = g.domains();
        assert!(domains.has_overclock_domain());
        assert!(domains.green_top() <= domains.ceiling());
    }
}
