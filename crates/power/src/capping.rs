//! Priority-aware power capping for oversubscribed power delivery.
//!
//! Overclocking in power-oversubscribed datacenters increases the chance
//! of hitting circuit-breaker limits and triggering capping mechanisms
//! (e.g. Intel RAPL), which throttle CPU frequency and memory bandwidth —
//! potentially erasing any overclocking gains (Section IV, "Power
//! consumption"). The paper recommends workload-priority-based capping
//! (\[38\], \[62\], \[70\]) so that critical or overclocked workloads are
//! throttled last. [`PowerAllocator`] implements that policy: when
//! demand exceeds the budget it satisfies consumers in priority order,
//! reducing the lowest-priority consumers toward their floors first.

use serde::{Deserialize, Serialize};
use std::fmt;

/// An invalid capping configuration or request.
#[derive(Debug, Clone, PartialEq)]
pub enum CapError {
    /// A negative or non-finite power budget.
    InvalidBudget {
        /// The rejected budget, watts.
        budget_w: f64,
    },
    /// A request with a negative floor, non-finite demand, or
    /// `demand_w < floor_w`.
    InvalidRequest {
        /// The rejected request.
        request: PowerRequest,
    },
}

impl fmt::Display for CapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CapError::InvalidBudget { budget_w } => write!(f, "invalid budget {budget_w}"),
            CapError::InvalidRequest { request } => write!(f, "invalid request {request:?}"),
        }
    }
}

impl std::error::Error for CapError {}

/// How important a power consumer is when the budget runs short.
/// Higher variants are throttled later.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Priority {
    /// Preemptible batch work: first to be capped.
    Batch = 0,
    /// Ordinary third-party VMs.
    Normal = 1,
    /// Latency-sensitive or overclocked workloads: capped last.
    Critical = 2,
}

/// One server (or socket) asking for power.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PowerRequest {
    /// Caller-chosen identifier, returned in the grant.
    pub id: u64,
    /// Scheduling priority under contention.
    pub priority: Priority,
    /// The minimum power the consumer needs to stay operational (e.g.
    /// base-frequency draw). Never reduced below this.
    pub floor_w: f64,
    /// The power the consumer wants right now (e.g. overclocked draw).
    pub demand_w: f64,
}

/// A consumer's share of the budget after allocation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerGrant {
    /// Matches the request id.
    pub id: u64,
    /// Granted watts, in `[floor_w, demand_w]`.
    pub granted_w: f64,
    /// `true` if the grant is below demand (the consumer must throttle).
    pub capped: bool,
}

/// The scratch argument of [`PowerAllocator::try_allocate_into`]. The
/// allocator walks the priority classes in place and writes straight
/// into the caller's grant buffer, so it needs no working buffers; the
/// type stays so that per-tick callers keep their signature.
#[derive(Debug, Clone, Default)]
pub struct AllocScratch;

/// A fixed power budget shared by prioritized consumers.
///
/// # Example
///
/// ```
/// use ic_power::capping::{PowerAllocator, PowerRequest, Priority};
///
/// let alloc = PowerAllocator::new(500.0);
/// let grants = alloc.allocate(&[
///     PowerRequest { id: 1, priority: Priority::Critical, floor_w: 100.0, demand_w: 300.0 },
///     PowerRequest { id: 2, priority: Priority::Batch, floor_w: 100.0, demand_w: 300.0 },
/// ]);
/// // The critical consumer gets its full demand; batch absorbs the cut.
/// assert_eq!(grants[0].granted_w, 300.0);
/// assert_eq!(grants[1].granted_w, 200.0);
/// assert!(grants[1].capped);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerAllocator {
    budget_w: f64,
}

impl PowerAllocator {
    /// Creates an allocator with the given budget. Negative or
    /// non-finite budgets are rejected.
    pub fn try_new(budget_w: f64) -> Result<Self, CapError> {
        if budget_w.is_finite() && budget_w >= 0.0 {
            Ok(PowerAllocator { budget_w })
        } else {
            Err(CapError::InvalidBudget { budget_w })
        }
    }

    /// Panicking shorthand for [`PowerAllocator::try_new`], for budgets
    /// known valid at the call site.
    ///
    /// # Panics
    ///
    /// Panics if `budget_w` is negative or non-finite.
    pub fn new(budget_w: f64) -> Self {
        Self::try_new(budget_w).unwrap_or_else(|e| panic!("{e}"))
    }

    /// The budget in watts.
    pub fn budget_w(&self) -> f64 {
        self.budget_w
    }

    /// `true` if the sum of demands exceeds the budget (capping will
    /// occur).
    pub fn is_oversubscribed(&self, requests: &[PowerRequest]) -> bool {
        requests.iter().map(|r| r.demand_w).sum::<f64>() > self.budget_w
    }

    /// Distributes the budget. Every consumer receives at least its floor
    /// (floors are honoured even if they exceed the budget — tripping a
    /// breaker is modelled upstream, not by starving servers below
    /// operational minimums). Remaining budget is then granted in
    /// priority order, highest first; within a priority class, shortfall
    /// is shared proportionally to each consumer's headroom
    /// (`demand − floor`).
    ///
    /// Grants are returned in the same order as `requests`. A request
    /// with `demand_w < floor_w` or negative values is rejected.
    pub fn try_allocate(&self, requests: &[PowerRequest]) -> Result<Vec<PowerGrant>, CapError> {
        let mut out = Vec::with_capacity(requests.len());
        self.try_allocate_into(requests, &mut AllocScratch, &mut out)?;
        Ok(out)
    }

    /// Buffer-reusing form of [`try_allocate`](Self::try_allocate):
    /// the grants land in `out` (cleared first), so a per-tick caller
    /// allocates nothing once `out` has grown to the fleet size.
    ///
    /// No sort: one pass validates the requests and sums each class's
    /// headroom in request order, and after the floor sum one pass
    /// assigns every grant from its class's outcome. A stable sort by
    /// descending priority visits each class in request order too, so
    /// every sum, and hence every grant, is the same to the bit as
    /// walking the sorted order.
    pub fn try_allocate_into(
        &self,
        requests: &[PowerRequest],
        _scratch: &mut AllocScratch,
        out: &mut Vec<PowerGrant>,
    ) -> Result<(), CapError> {
        out.clear();
        // Indexed by `Priority as usize`. The sums start at -0.0, as
        // `Iterator::sum` over `f64` does.
        let mut present = [false; 3];
        let mut headroom = [-0.0f64; 3];
        for r in requests {
            if !(r.floor_w >= 0.0 && r.demand_w >= r.floor_w && r.demand_w.is_finite()) {
                return Err(CapError::InvalidRequest { request: r.clone() });
            }
            present[r.priority as usize] = true;
            headroom[r.priority as usize] += r.demand_w - r.floor_w;
        }
        let floors: f64 = requests.iter().map(|r| r.floor_w).sum();
        let mut remaining = (self.budget_w - floors).max(0.0);

        // Highest class first. `None`: the class gets full demand;
        // `Some(share)`: what is left is shared in proportion to
        // headroom. An absent class is skipped, as the sorted walk never
        // visited it.
        let mut share = [None; 3];
        for class in [Priority::Critical, Priority::Normal, Priority::Batch] {
            let c = class as usize;
            if !present[c] {
                continue;
            }
            if headroom[c] <= remaining {
                remaining -= headroom[c];
            } else {
                share[c] = Some(if headroom[c] > 0.0 {
                    remaining / headroom[c]
                } else {
                    0.0
                });
                remaining = 0.0;
            }
        }
        out.extend(requests.iter().map(|r| {
            let granted_w = match share[r.priority as usize] {
                None => r.demand_w,
                Some(share) => r.floor_w + (r.demand_w - r.floor_w) * share,
            };
            PowerGrant {
                id: r.id,
                granted_w,
                capped: granted_w < r.demand_w - 1e-9,
            }
        }));
        Ok(())
    }

    /// Panicking shorthand for [`PowerAllocator::try_allocate`], for
    /// requests known valid at the call site.
    ///
    /// # Panics
    ///
    /// Panics if any request has `demand_w < floor_w` or negative values.
    pub fn allocate(&self, requests: &[PowerRequest]) -> Vec<PowerGrant> {
        self.try_allocate(requests)
            .unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_sim::rng::SimRng;

    /// The sorting allocator: a stable sort of the request indexes by
    /// descending priority, then each class in sorted order. The
    /// reference the class walk must match to the bit.
    fn sorted_reference(budget_w: f64, requests: &[PowerRequest]) -> Vec<PowerGrant> {
        let floors: f64 = requests.iter().map(|r| r.floor_w).sum();
        let mut remaining = (budget_w - floors).max(0.0);
        let mut order: Vec<usize> = (0..requests.len()).collect();
        order.sort_by(|&a, &b| requests[b].priority.cmp(&requests[a].priority));
        let mut granted: Vec<f64> = requests.iter().map(|r| r.floor_w).collect();
        let mut i = 0;
        while i < order.len() {
            let class = requests[order[i]].priority;
            let mut j = i;
            while j < order.len() && requests[order[j]].priority == class {
                j += 1;
            }
            let members = &order[i..j];
            let headroom: f64 = members
                .iter()
                .map(|&m| requests[m].demand_w - requests[m].floor_w)
                .sum();
            if headroom <= remaining {
                for &m in members {
                    granted[m] = requests[m].demand_w;
                }
                remaining -= headroom;
            } else {
                let share = if headroom > 0.0 {
                    remaining / headroom
                } else {
                    0.0
                };
                for &m in members {
                    let h = requests[m].demand_w - requests[m].floor_w;
                    granted[m] = requests[m].floor_w + h * share;
                }
                remaining = 0.0;
            }
            i = j;
        }
        requests
            .iter()
            .zip(granted)
            .map(|(r, g)| PowerGrant {
                id: r.id,
                granted_w: g,
                capped: g < r.demand_w - 1e-9,
            })
            .collect()
    }

    /// Random requests: `n` rows drawn from `classes`, about one in
    /// five with `floor_w == demand_w`.
    fn random_requests(rng: &mut SimRng, n: usize, classes: &[Priority]) -> Vec<PowerRequest> {
        (0..n)
            .map(|i| {
                let floor = rng.uniform_range(0.0, 150.0);
                let demand = if rng.index(5) == 0 {
                    floor
                } else {
                    floor + rng.uniform_range(0.0, 200.0)
                };
                req(
                    1000 + 3 * i as u64,
                    classes[rng.index(classes.len())],
                    floor,
                    demand,
                )
            })
            .collect()
    }

    #[test]
    fn class_walk_matches_the_sorted_reference_bitwise() {
        use Priority::{Batch, Critical, Normal};
        let mixes: [&[Priority]; 7] = [
            &[Critical, Normal, Batch],
            &[Critical, Normal],
            &[Critical, Batch],
            &[Normal, Batch],
            &[Critical],
            &[Normal],
            &[Batch],
        ];
        let mut rng = SimRng::seed_from_u64(20);
        let mut out = Vec::new();
        let mut cases = 0;
        for n in [0, 1, 2, 17, 10_000] {
            for classes in mixes {
                for _ in 0..if n >= 10_000 { 1 } else { 8 } {
                    let requests = random_requests(&mut rng, n, classes);
                    let floors: f64 = requests.iter().map(|r| r.floor_w).sum();
                    let demand: f64 = requests.iter().map(|r| r.demand_w).sum();
                    let budgets = [
                        0.0,
                        0.5 * floors,
                        floors,
                        0.5 * (floors + demand),
                        demand,
                        demand * 1.5 + 1.0,
                    ];
                    for budget in budgets {
                        let alloc = PowerAllocator::new(budget);
                        alloc
                            .try_allocate_into(&requests, &mut AllocScratch, &mut out)
                            .unwrap();
                        let expect = sorted_reference(budget, &requests);
                        assert_eq!(out.len(), expect.len());
                        for (got, want) in out.iter().zip(&expect) {
                            assert_eq!(
                                (got.id, got.granted_w.to_bits(), got.capped),
                                (want.id, want.granted_w.to_bits(), want.capped),
                                "n {n}, classes {classes:?}, budget {budget}"
                            );
                        }
                        cases += 1;
                    }
                }
            }
        }
        assert_eq!(cases, (4 * 8 + 1) * 7 * 6);
    }

    #[test]
    fn class_walk_matches_the_sorted_reference_on_signed_zeros() {
        // `floor_w = 0.0, demand_w = -0.0` passes validation and has
        // headroom -0.0, where the sign of an empty or all-zero sum
        // shows.
        let rows = [(0.0, -0.0), (-0.0, -0.0), (-0.0, 0.0), (0.0, 0.0)];
        let mut out = Vec::new();
        for class in [Priority::Batch, Priority::Normal, Priority::Critical] {
            for n in 1..=rows.len() {
                let requests: Vec<PowerRequest> = rows[..n]
                    .iter()
                    .enumerate()
                    .map(|(i, &(floor, demand))| req(i as u64, class, floor, demand))
                    .collect();
                for budget in [0.0, -0.0, 1.0] {
                    PowerAllocator::new(budget)
                        .try_allocate_into(&requests, &mut AllocScratch, &mut out)
                        .unwrap();
                    let got: Vec<_> = out
                        .iter()
                        .map(|g| (g.granted_w.to_bits(), g.capped))
                        .collect();
                    let want: Vec<_> = sorted_reference(budget, &requests)
                        .iter()
                        .map(|g| (g.granted_w.to_bits(), g.capped))
                        .collect();
                    assert_eq!(got, want, "{class:?}, {n} rows, budget {budget}");
                }
            }
        }
    }

    fn req(id: u64, priority: Priority, floor: f64, demand: f64) -> PowerRequest {
        PowerRequest {
            id,
            priority,
            floor_w: floor,
            demand_w: demand,
        }
    }

    #[test]
    fn no_contention_everyone_gets_demand() {
        let alloc = PowerAllocator::new(1000.0);
        let grants = alloc.allocate(&[
            req(1, Priority::Batch, 50.0, 200.0),
            req(2, Priority::Critical, 50.0, 300.0),
        ]);
        assert!(grants.iter().all(|g| !g.capped));
        assert_eq!(grants[0].granted_w, 200.0);
        assert_eq!(grants[1].granted_w, 300.0);
    }

    #[test]
    fn critical_throttled_last() {
        let alloc = PowerAllocator::new(450.0);
        let grants = alloc.allocate(&[
            req(1, Priority::Batch, 100.0, 300.0),
            req(2, Priority::Critical, 100.0, 300.0),
        ]);
        assert_eq!(grants[1].granted_w, 300.0);
        assert!((grants[0].granted_w - 150.0).abs() < 1e-9);
        assert!(grants[0].capped && !grants[1].capped);
    }

    #[test]
    fn within_class_proportional_sharing() {
        let alloc = PowerAllocator::new(400.0);
        let grants = alloc.allocate(&[
            req(1, Priority::Normal, 100.0, 300.0), // headroom 200
            req(2, Priority::Normal, 100.0, 200.0), // headroom 100
        ]);
        // Remaining after floors: 200 over headroom 300 → 2/3 share.
        assert!((grants[0].granted_w - (100.0 + 200.0 * 2.0 / 3.0)).abs() < 1e-9);
        assert!((grants[1].granted_w - (100.0 + 100.0 * 2.0 / 3.0)).abs() < 1e-9);
        let total: f64 = grants.iter().map(|g| g.granted_w).sum();
        assert!((total - 400.0).abs() < 1e-9);
    }

    #[test]
    fn floors_always_honoured() {
        let alloc = PowerAllocator::new(100.0);
        let grants = alloc.allocate(&[
            req(1, Priority::Batch, 80.0, 200.0),
            req(2, Priority::Critical, 80.0, 200.0),
        ]);
        assert_eq!(grants[0].granted_w, 80.0);
        assert_eq!(grants[1].granted_w, 80.0);
    }

    #[test]
    fn grants_never_exceed_budget_when_floors_fit() {
        let alloc = PowerAllocator::new(777.0);
        let reqs: Vec<PowerRequest> = (0..10)
            .map(|i| {
                req(
                    i,
                    if i % 2 == 0 {
                        Priority::Batch
                    } else {
                        Priority::Normal
                    },
                    10.0,
                    150.0,
                )
            })
            .collect();
        let total: f64 = alloc.allocate(&reqs).iter().map(|g| g.granted_w).sum();
        assert!(total <= 777.0 + 1e-9);
    }

    #[test]
    fn oversubscription_detection() {
        let alloc = PowerAllocator::new(500.0);
        assert!(!alloc.is_oversubscribed(&[req(1, Priority::Normal, 0.0, 400.0)]));
        assert!(alloc.is_oversubscribed(&[
            req(1, Priority::Normal, 0.0, 400.0),
            req(2, Priority::Normal, 0.0, 200.0)
        ]));
    }

    #[test]
    fn three_priority_classes_cascade() {
        let alloc = PowerAllocator::new(350.0);
        let grants = alloc.allocate(&[
            req(1, Priority::Batch, 50.0, 200.0),
            req(2, Priority::Normal, 50.0, 200.0),
            req(3, Priority::Critical, 50.0, 200.0),
        ]);
        // Floors: 150. Remaining 200 → Critical +150 (full), Normal +50,
        // Batch +0.
        assert_eq!(grants[2].granted_w, 200.0);
        assert_eq!(grants[1].granted_w, 100.0);
        assert_eq!(grants[0].granted_w, 50.0);
    }

    #[test]
    #[should_panic(expected = "invalid request")]
    fn demand_below_floor_panics() {
        PowerAllocator::new(100.0).allocate(&[req(1, Priority::Batch, 50.0, 10.0)]);
    }

    #[test]
    fn try_new_reports_typed_error() {
        assert_eq!(
            PowerAllocator::try_new(-1.0),
            Err(CapError::InvalidBudget { budget_w: -1.0 })
        );
        assert!(PowerAllocator::try_new(f64::NAN).is_err());
        assert_eq!(PowerAllocator::try_new(500.0).unwrap().budget_w(), 500.0);
        let msg = CapError::InvalidBudget { budget_w: -1.0 }.to_string();
        assert!(msg.contains("invalid budget"));
    }

    #[test]
    fn try_allocate_reports_typed_error() {
        let alloc = PowerAllocator::new(100.0);
        let bad = req(7, Priority::Batch, 50.0, 10.0);
        match alloc.try_allocate(std::slice::from_ref(&bad)) {
            Err(CapError::InvalidRequest { request }) => assert_eq!(request, bad),
            other => panic!("expected InvalidRequest, got {other:?}"),
        }
        let ok = alloc
            .try_allocate(&[req(1, Priority::Normal, 10.0, 50.0)])
            .unwrap();
        assert_eq!(ok.len(), 1);
        assert!(!ok[0].capped);
    }
}
