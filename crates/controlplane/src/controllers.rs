//! Ports of the previously free-standing control loops onto
//! [`Controller`].
//!
//! Each wraps the domain logic that already lives in its home crate —
//! [`OverclockGovernor`] (ic-core), [`PowerAllocator`] (ic-power) —
//! and adapts it to the observe/decide cycle: read the relevant
//! telemetry section, run the existing algorithm, emit typed
//! [`Action`]s. Two smaller loops round out the set: a scripted fault
//! injector (deterministic chaos) and a failover controller
//! implementing the paper's *virtual buffer* — boost the survivors
//! instead of reserving idle hardware.

use crate::action::{Action, FreqTarget};
use crate::controller::Controller;
use crate::telemetry::{DomainPower, TelemetrySnapshot};
use ic_core::governor::{GovernorDecision, OverclockGovernor};
use ic_power::capping::{AllocScratch, PowerAllocator, PowerGrant, PowerRequest};
use ic_power::units::Frequency;
use ic_sim::time::SimTime;
use std::fmt;

/// Ratios closer than this are "the same frequency" — matches the
/// epsilon the auto-scaler has always used for change suppression.
const RATIO_EPS: f64 = 1e-12;

/// The overclock governor as a controller: each tick it re-derives the
/// highest safe frequency from the stability / lifetime / power
/// ceilings (power from the capping controller's latest grant, seen
/// through telemetry) and emits a fleet-wide [`Action::SetFrequency`]
/// whenever the safe bin changes.
pub struct GovernorController {
    governor: OverclockGovernor,
    /// The frequency the workload wants (typically the stability
    /// ceiling: "as fast as safely possible").
    requested: Frequency,
    /// The base bin ratios are expressed against.
    base: Frequency,
    last_ratio: f64,
    last_decision: Option<GovernorDecision>,
    /// The power-section version the last decision was derived from.
    /// The decision is a pure function of that section (plus fixed
    /// controller state), so an unchanged version means an unchanged
    /// decision — and the change-suppressed action set is empty.
    last_power_version: Option<u64>,
}

impl GovernorController {
    /// Wraps `governor`, requesting `requested` each tick, with ratios
    /// expressed against `base`. The governor's ceiling-search ladder
    /// is batch-prewarmed so the first tick pays no per-point solves.
    pub fn new(governor: OverclockGovernor, requested: Frequency, base: Frequency) -> Self {
        governor.prewarm();
        GovernorController {
            governor,
            requested,
            base,
            last_ratio: 1.0,
            last_decision: None,
            last_power_version: None,
        }
    }

    /// The wrapped governor.
    pub fn governor(&self) -> &OverclockGovernor {
        &self.governor
    }

    /// The most recent decision, if any tick has run.
    pub fn last_decision(&self) -> Option<&GovernorDecision> {
        self.last_decision.as_ref()
    }

    /// The watts this controller's socket may draw: the smallest grant
    /// across power domains, or `f64::MAX` when the world models no
    /// power delivery (the power ceiling then never binds).
    fn granted_w(snapshot: &TelemetrySnapshot) -> f64 {
        snapshot
            .power
            .as_ref()
            .map(|p| {
                p.domains
                    .iter()
                    .map(|d| d.granted_w)
                    .fold(f64::MAX, f64::min)
            })
            .unwrap_or(f64::MAX)
    }
}

impl Controller for GovernorController {
    fn name(&self) -> &'static str {
        "governor"
    }

    fn observe(&mut self, snapshot: &TelemetrySnapshot) -> Vec<Action> {
        if let Some(p) = &snapshot.power {
            if self.last_power_version == Some(p.version) {
                // Same inputs as last tick ⇒ same decision ⇒ the ratio
                // cannot have moved ⇒ no actions, without rescanning
                // the domains or re-deriving the ceilings.
                return Vec::new();
            }
            self.last_power_version = Some(p.version);
        }
        let granted_w = Self::granted_w(snapshot);
        let decision = self.governor.decide(self.requested, granted_w);
        let ratio = decision.frequency.ratio_to(self.base);
        self.last_decision = Some(decision);
        if (ratio - self.last_ratio).abs() > RATIO_EPS {
            self.last_ratio = ratio;
            vec![Action::SetFrequency {
                target: FreqTarget::Fleet,
                ratio,
            }]
        } else {
            Vec::new()
        }
    }

    crate::impl_controller_downcast!();
}

/// Priority-aware power capping as a controller: each tick it re-runs
/// the [`PowerAllocator`] over the power domains' current demand and
/// emits [`Action::GrantPower`] for every domain whose grant moved.
pub struct PowerCapController {
    allocator: PowerAllocator,
    last_grants: Vec<PowerGrant>,
    /// The request rows `last_grants` was allocated from (reused, never
    /// reallocated at steady state).
    requests: Vec<PowerRequest>,
    scratch: AllocScratch,
    /// See [`GovernorController::last_power_version`]: the allocation
    /// is a pure function of the power section, so an unchanged
    /// version short-circuits the whole scan.
    last_power_version: Option<u64>,
}

impl PowerCapController {
    /// A capping controller enforcing `allocator`'s budget.
    pub fn new(allocator: PowerAllocator) -> Self {
        PowerCapController {
            allocator,
            last_grants: Vec::new(),
            requests: Vec::new(),
            scratch: AllocScratch,
            last_power_version: None,
        }
    }

    /// The enforced budget, watts.
    pub fn budget_w(&self) -> f64 {
        self.allocator.budget_w()
    }

    /// The most recent allocation, in request order.
    pub fn last_grants(&self) -> &[PowerGrant] {
        &self.last_grants
    }

    /// `true` if every domain row asks exactly (bit for bit) what the
    /// request row `last_grants` was allocated from asked.
    fn requests_match(&self, domains: &[DomainPower]) -> bool {
        self.requests.len() == domains.len()
            && self.requests.iter().zip(domains).all(|(r, d)| {
                r.id == d.domain
                    && r.priority == d.priority
                    && r.floor_w.to_bits() == d.floor_w.to_bits()
                    && r.demand_w.to_bits() == d.demand_w.to_bits()
            })
    }
}

impl Controller for PowerCapController {
    fn name(&self) -> &'static str {
        "powercap"
    }

    fn observe(&mut self, snapshot: &TelemetrySnapshot) -> Vec<Action> {
        let Some(power) = &snapshot.power else {
            return Vec::new();
        };
        if self.last_power_version == Some(power.version) {
            return Vec::new();
        }
        self.last_power_version = Some(power.version);
        // A version bump often comes from this controller's own grants
        // landing, which move `granted_w` but no request field. The
        // allocation is a pure function of the request rows, so
        // unchanged rows keep `last_grants` and skip the allocator.
        if !self.requests_match(&power.domains) {
            self.requests.clear();
            self.requests
                .extend(power.domains.iter().map(|d| PowerRequest {
                    id: d.domain,
                    priority: d.priority,
                    floor_w: d.floor_w,
                    demand_w: d.demand_w,
                }));
            self.allocator
                .try_allocate_into(&self.requests, &mut self.scratch, &mut self.last_grants)
                .unwrap_or_else(|e| panic!("{e}"));
        }
        let mut actions = Vec::new();
        // Requests were built from the domain rows in order and grants
        // come back in request order, so grant i belongs to domain row
        // i — no per-grant search. Diffing against the rows' current
        // grants re-issues any grant another party moved.
        for (grant, row) in self.last_grants.iter().zip(&power.domains) {
            if row.granted_w != grant.granted_w {
                actions.push(Action::GrantPower {
                    domain: grant.id,
                    watts: grant.granted_w,
                });
            }
        }
        actions
    }

    crate::impl_controller_downcast!();
}

/// A [`ScriptController`] construction error: the script's entries were
/// not in non-decreasing time order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptError {
    /// Index of the first entry whose time precedes its predecessor's.
    pub index: usize,
}

impl fmt::Display for ScriptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "script entry {} is earlier than its predecessor: entries must be sorted by time",
            self.index
        )
    }
}

impl std::error::Error for ScriptError {}

/// Deterministic fault injection: a fixed script of `(at, action)`
/// pairs, each fired at the first tick at or after its time. Used to
/// inject server failures and repairs into composed experiments
/// without any randomness outside the seeded workload.
#[derive(Debug)]
pub struct ScriptController {
    script: Vec<(SimTime, Action)>,
    next: usize,
}

impl ScriptController {
    /// A script controller; entries must be in non-decreasing time
    /// order, else this returns [`ScriptError`] naming the first
    /// out-of-order entry.
    pub fn new(script: Vec<(SimTime, Action)>) -> Result<Self, ScriptError> {
        if let Some(pos) = script.windows(2).position(|w| w[0].0 > w[1].0) {
            return Err(ScriptError { index: pos + 1 });
        }
        Ok(ScriptController { script, next: 0 })
    }

    /// Entries not yet fired.
    pub fn remaining(&self) -> usize {
        self.script.len() - self.next
    }
}

impl Controller for ScriptController {
    fn name(&self) -> &'static str {
        "script"
    }

    fn observe(&mut self, snapshot: &TelemetrySnapshot) -> Vec<Action> {
        let mut actions = Vec::new();
        while self.next < self.script.len() && self.script[self.next].0 <= snapshot.now {
            actions.push(self.script[self.next].1.clone());
            self.next += 1;
        }
        actions
    }

    crate::impl_controller_downcast!();
}

/// The paper's virtual buffer as a controller: when servers fail, boost
/// the survivors' frequency to absorb the lost capacity instead of
/// holding idle spares; while failed-over VMs remain unplaced, keep
/// asking the world to migrate them back as capacity returns, and drop
/// the boost once the fleet is whole again.
pub struct FailoverController {
    boost_ratio: f64,
    restore_ratio: f64,
    boosted: bool,
}

impl FailoverController {
    /// A failover controller that boosts survivors to `boost_ratio`
    /// (e.g. 1.2 = +20 %) while any server is down.
    pub fn new(boost_ratio: f64) -> Self {
        Self::with_restore(boost_ratio, 1.0)
    }

    /// Like [`FailoverController::new`], but when the fleet heals the
    /// frequency returns to `restore_ratio` instead of base — pass the
    /// governor's standing grant so a failover cycle does not silently
    /// de-overclock a fleet whose governor only re-issues on change.
    pub fn with_restore(boost_ratio: f64, restore_ratio: f64) -> Self {
        FailoverController {
            boost_ratio,
            restore_ratio,
            boosted: false,
        }
    }

    /// Whether the survivor boost is currently engaged.
    pub fn boosted(&self) -> bool {
        self.boosted
    }
}

impl Controller for FailoverController {
    fn name(&self) -> &'static str {
        "failover"
    }

    fn observe(&mut self, snapshot: &TelemetrySnapshot) -> Vec<Action> {
        let Some(cluster) = &snapshot.cluster else {
            return Vec::new();
        };
        let mut actions = Vec::new();
        if !cluster.failed_servers.is_empty() && !self.boosted {
            self.boosted = true;
            actions.push(Action::SetFrequency {
                target: FreqTarget::Fleet,
                ratio: self.boost_ratio,
            });
        } else if cluster.failed_servers.is_empty() && self.boosted {
            self.boosted = false;
            actions.push(Action::SetFrequency {
                target: FreqTarget::Fleet,
                ratio: self.restore_ratio,
            });
        }
        for vm in &cluster.parked_vms {
            actions.push(Action::Migrate { vm: *vm });
        }
        actions
    }

    crate::impl_controller_downcast!();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{ClusterTelemetry, DomainPower, PowerTelemetry};
    use ic_power::capping::Priority;

    fn snapshot_with_power(
        domains: Vec<DomainPower>,
        budget_w: f64,
        version: u64,
    ) -> TelemetrySnapshot {
        let mut snap = TelemetrySnapshot::at(SimTime::from_secs(1));
        snap.power = Some(PowerTelemetry {
            budget_w,
            version,
            domains,
        });
        snap
    }

    #[test]
    fn script_fires_in_order_and_only_once() {
        let mut script = ScriptController::new(vec![
            (SimTime::from_secs(10), Action::FailServer { server: 0 }),
            (SimTime::from_secs(20), Action::RepairServer { server: 0 }),
        ])
        .expect("sorted script");
        let early = TelemetrySnapshot::at(SimTime::from_secs(5));
        assert!(script.observe(&early).is_empty());
        let mid = TelemetrySnapshot::at(SimTime::from_secs(12));
        assert_eq!(script.observe(&mid), vec![Action::FailServer { server: 0 }]);
        assert_eq!(script.remaining(), 1);
        let late = TelemetrySnapshot::at(SimTime::from_secs(30));
        assert_eq!(
            script.observe(&late),
            vec![Action::RepairServer { server: 0 }]
        );
        assert!(script.observe(&late).is_empty());
    }

    #[test]
    fn script_rejects_unsorted_entries_with_typed_error() {
        let err = ScriptController::new(vec![
            (SimTime::from_secs(20), Action::FailServer { server: 0 }),
            (SimTime::from_secs(10), Action::RepairServer { server: 0 }),
        ])
        .expect_err("unsorted script must be rejected");
        assert_eq!(err, ScriptError { index: 1 });
        assert!(err.to_string().contains("sorted"));
    }

    #[test]
    fn powercap_regrants_only_on_change() {
        let mut cap = PowerCapController::new(PowerAllocator::new(300.0));
        let domains = vec![
            DomainPower {
                domain: 0,
                priority: Priority::Batch,
                floor_w: 50.0,
                demand_w: 200.0,
                granted_w: 50.0,
            },
            DomainPower {
                domain: 1,
                priority: Priority::Critical,
                floor_w: 50.0,
                demand_w: 200.0,
                granted_w: 50.0,
            },
        ];
        let snap = snapshot_with_power(domains.clone(), 300.0, 0);
        let actions = cap.observe(&snap);
        // Critical gets its full demand; batch absorbs the shortfall.
        assert!(actions.contains(&Action::GrantPower {
            domain: 1,
            watts: 200.0
        }));
        assert!(actions.contains(&Action::GrantPower {
            domain: 0,
            watts: 100.0
        }));
        // Re-observing with the grants already in telemetry is quiet.
        let mut settled = domains;
        settled[0].granted_w = 100.0;
        settled[1].granted_w = 200.0;
        // A bumped version forces a genuine re-allocation (not the
        // version short-circuit); it must still be quiet.
        let snap = snapshot_with_power(settled, 300.0, 2);
        assert!(cap.observe(&snap).is_empty());
    }

    #[test]
    fn powercap_skips_rescan_when_power_version_is_unchanged() {
        let mut cap = PowerCapController::new(PowerAllocator::new(300.0));
        let domains = vec![DomainPower {
            domain: 0,
            priority: Priority::Batch,
            floor_w: 50.0,
            demand_w: 200.0,
            granted_w: 50.0,
        }];
        let snap = snapshot_with_power(domains, 300.0, 7);
        assert_eq!(cap.observe(&snap).len(), 1);
        // Same version again: short-circuits before re-allocating —
        // correct because an identical section yields the identical
        // allocation, whose actions the change suppression would drop.
        assert!(cap.observe(&snap).is_empty());
        assert_eq!(cap.last_grants().len(), 1, "last allocation is kept");
    }

    const REUSE_BUDGET_W: f64 = 480.0;

    /// Drives one long-lived capper (which reuses its allocation while
    /// the request rows stay put) and, at every step, a freshly built
    /// one (which always allocates) through the same snapshots; both
    /// must emit the same actions and hold the same grants.
    fn assert_reuse_matches_fresh(steps: &[Vec<DomainPower>]) -> Vec<Vec<Action>> {
        let alloc = PowerAllocator::new(REUSE_BUDGET_W);
        let bits = |c: &PowerCapController| {
            c.last_grants()
                .iter()
                .map(|g| (g.id, g.granted_w.to_bits(), g.capped))
                .collect::<Vec<_>>()
        };
        let mut kept = PowerCapController::new(alloc);
        let mut emitted = Vec::new();
        for (version, domains) in steps.iter().enumerate() {
            let snap = snapshot_with_power(domains.clone(), REUSE_BUDGET_W, version as u64);
            let mut fresh = PowerCapController::new(alloc);
            let actions = kept.observe(&snap);
            assert_eq!(actions, fresh.observe(&snap), "step {version}");
            assert_eq!(bits(&kept), bits(&fresh), "step {version}");
            emitted.push(actions);
        }
        emitted
    }

    /// Three domains, one per class, at their floors.
    fn floor_rows(demand_w: [f64; 3]) -> Vec<DomainPower> {
        let priorities = [Priority::Critical, Priority::Normal, Priority::Batch];
        (0..3)
            .map(|i| DomainPower {
                domain: 10 + i as u64,
                priority: priorities[i],
                floor_w: 60.0,
                demand_w: demand_w[i],
                granted_w: 60.0,
            })
            .collect()
    }

    /// `rows` with every grant the allocator hands out landed.
    fn settle(mut rows: Vec<DomainPower>) -> Vec<DomainPower> {
        let requests: Vec<PowerRequest> = rows
            .iter()
            .map(|d| PowerRequest {
                id: d.domain,
                priority: d.priority,
                floor_w: d.floor_w,
                demand_w: d.demand_w,
            })
            .collect();
        let grants = PowerAllocator::new(REUSE_BUDGET_W).allocate(&requests);
        for (row, grant) in rows.iter_mut().zip(grants) {
            row.granted_w = grant.granted_w;
        }
        rows
    }

    #[test]
    fn powercap_reissues_a_grant_another_party_moved() {
        let first = floor_rows([200.0, 180.0, 160.0]);
        let settled = settle(first.clone());
        // A revoke by another party drops domain 11 back to its floor.
        let mut revoked = settled.clone();
        revoked[1].granted_w = revoked[1].floor_w;
        let emitted =
            assert_reuse_matches_fresh(&[first, settled.clone(), revoked, settled.clone()]);
        assert_eq!(emitted[0].len(), 3, "first tick grants every domain");
        assert!(emitted[1].is_empty(), "own grants landing is quiet");
        assert_eq!(
            emitted[2],
            vec![Action::GrantPower {
                domain: 11,
                watts: settled[1].granted_w
            }],
            "the revoked grant is re-issued"
        );
        assert!(emitted[3].is_empty());
    }

    #[test]
    fn powercap_reallocates_when_a_demand_moves_by_one_ulp() {
        let first = floor_rows([200.0, 180.0, 160.0]);
        let settled = settle(first.clone());
        // The critical domain asks one ulp more; it is served in full,
        // so only a re-allocation can grant that ulp.
        let mut nudged = settled.clone();
        let ask = f64::from_bits(200f64.to_bits() + 1);
        nudged[0].demand_w = ask;
        let emitted = assert_reuse_matches_fresh(&[first, settled, nudged]);
        assert!(emitted[1].is_empty());
        assert!(
            emitted[2].contains(&Action::GrantPower {
                domain: 10,
                watts: ask
            }),
            "{:?}",
            emitted[2]
        );
    }

    #[test]
    fn powercap_ignores_worlds_without_power() {
        let mut cap = PowerCapController::new(PowerAllocator::new(300.0));
        assert!(cap
            .observe(&TelemetrySnapshot::at(SimTime::ZERO))
            .is_empty());
    }

    #[test]
    fn failover_boosts_once_and_releases() {
        let mut fo = FailoverController::new(1.2);
        let mut snap = TelemetrySnapshot::at(SimTime::from_secs(1));
        snap.cluster = Some(ClusterTelemetry {
            healthy_servers: 11,
            failed_servers: vec![3],
            packing_density: 1.1,
            parked_vms: vec![42],
        });
        let actions = fo.observe(&snap);
        assert_eq!(
            actions,
            vec![
                Action::SetFrequency {
                    target: FreqTarget::Fleet,
                    ratio: 1.2
                },
                Action::Migrate { vm: 42 },
            ]
        );
        assert!(fo.boosted());
        // Same failure state again: no duplicate boost, keep migrating.
        let again = fo.observe(&snap);
        assert_eq!(again, vec![Action::Migrate { vm: 42 }]);
        // Fleet whole again: release the boost.
        snap.cluster = Some(ClusterTelemetry {
            healthy_servers: 12,
            failed_servers: Vec::new(),
            packing_density: 1.0,
            parked_vms: Vec::new(),
        });
        assert_eq!(
            fo.observe(&snap),
            vec![Action::SetFrequency {
                target: FreqTarget::Fleet,
                ratio: 1.0
            }]
        );
        assert!(!fo.boosted());
    }
}
