//! One repetition of each workload: build, drive in 30-simulated-second
//! windows, check invariants after every window, and digest the
//! simulated outputs.

use crate::compose::{
    build, drain_latencies, finish, table11_config, FleetOutcome, FleetSpec, Stack,
    TABLE11_POLICIES,
};
use crate::timed::{AsFleet, CtlStats, TimedController, TimedWorld};
use ic_autoscale::policy::Policy;
use ic_autoscale::runner::{RunResult, Runner, RunnerConfig};
use ic_controlplane::{FleetWorld, World};
use ic_par::ParPool;
use ic_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

/// The measurement window, simulated seconds: a multiple of every
/// controller cadence (3/15/30 s), so windowed runs fire no extra
/// trailing ticks and match a one-shot `run_until(end)`.
pub const WINDOW_S: u64 = 30;

/// Correctness checks attempted and failed across a benchmark run.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 8 {
                self.notes.push(what());
            }
        }
    }
}

/// FNV-1a over 64-bit words: the digest of a run's simulated outputs.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    words
        .into_iter()
        .flat_map(u64::to_le_bytes)
        .fold(0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3)
        })
}

/// Digest of a fleet run: completions, P95, ticks, grants, governor
/// GHz, failures and simulated events.
pub fn fleet_digest(r: &FleetOutcome) -> u64 {
    let grants = r.grants.iter().flat_map(|&(d, w)| [d, w.to_bits()]);
    fnv([r.completed, r.p95_latency_s.to_bits(), r.cp_ticks]
        .into_iter()
        .chain(grants)
        .chain([
            r.governor_ghz.to_bits(),
            r.failures_applied,
            r.injected_failures,
            r.sim_events,
        ]))
}

/// Digest of the three Table XI policy runs.
pub fn table11_digest(runs: &[RunResult]) -> u64 {
    fnv(runs.iter().flat_map(|r| {
        [
            r.completed,
            r.p95_latency_s.to_bits(),
            r.avg_latency_s.to_bits(),
            r.max_vms as u64,
            r.vm_hours.to_bits(),
            r.avg_power_w.to_bits(),
            r.sim_events,
        ]
    }))
}

/// What one repetition measured.
#[derive(Debug)]
pub struct Rep {
    pub setup_s: f64,
    /// Host seconds per window (for `table11`, each policy run's mean).
    pub windows_s: Vec<f64>,
    /// Host seconds of the run, set-up excluded.
    pub run_s: f64,
    pub sim_s: f64,
    pub digest: u64,
    /// Per-layer metrics of a traced repetition.
    pub layers: BTreeMap<String, f64>,
}

/// Post-window invariants, through public accessors only.
fn check_window(world: &FleetWorld, budget_w: f64, t: SimTime, fresh: &[f64], checks: &mut Checks) {
    let at = t.as_secs_f64();
    let grants = world.grants();
    let granted: f64 = grants.values().sum();
    checks.check(
        grants.values().all(|w| w.is_finite() && *w >= 0.0) && granted <= budget_w * (1.0 + 1e-9),
        || format!("t={at}: grants sum {granted} W over budget {budget_w} W"),
    );
    let availability = world.availability(t);
    checks.check(
        fresh.iter().all(|l| l.is_finite() && *l >= 0.0) && (0.0..=1.0).contains(&availability),
        || format!("t={at}: non-finite latency or availability {availability}"),
    );
    // Every serving VM has a placement, no parked VM is serving, and no
    // placement sits on a failed server.
    let active = world.sim().active_ids();
    let cluster = world.cluster();
    let conserved = active.len() == cluster.vm_count()
        && world
            .parked()
            .iter()
            .all(|&p| !active.contains(&(p as usize)))
        && cluster
            .servers()
            .iter()
            .enumerate()
            .all(|(h, s)| !s.is_failed() || cluster.vms_on(h).is_empty());
    checks.check(conserved, || {
        format!(
            "t={at}: {} serving VMs vs {} placements ({} parked)",
            active.len(),
            cluster.vm_count(),
            world.parked().len()
        )
    });
}

/// Drives `stack` to its horizon in [`WINDOW_S`] windows, checking
/// invariants after each. Returns the window times and the latencies.
fn drive<W: World + AsFleet + 'static>(
    stack: &mut Stack<W>,
    checks: &mut Checks,
) -> (Vec<f64>, Vec<f64>) {
    let window = SimDuration::from_secs(WINDOW_S);
    let mut windows = Vec::new();
    let mut latencies = Vec::new();
    let mut t = SimTime::ZERO;
    while t < stack.end {
        t = (t + window).min(stack.end);
        let start = Instant::now();
        stack.plane.run_until(t);
        windows.push(start.elapsed().as_secs_f64());
        let before = latencies.len();
        drain_latencies(stack, &mut latencies);
        check_window(
            stack.plane.world().fleet(),
            stack.budget_w,
            t,
            &latencies[before..],
            checks,
        );
    }
    (windows, latencies)
}

/// The reference result: the same composition, untimed, advanced by a
/// single `run_until(end)`.
pub fn fleet_one_shot(spec: &FleetSpec) -> FleetOutcome {
    let mut stack = build(spec, |w| w, &mut |c| c);
    let end = stack.end;
    stack.plane.run_until(end);
    finish(&mut stack, Vec::new())
}

/// One untraced or traced repetition of a fleet workload.
pub fn fleet_rep(spec: &FleetSpec, traced: bool, checks: &mut Checks) -> (Rep, FleetOutcome) {
    if !traced {
        let start = Instant::now();
        let mut stack = build(spec, |w| w, &mut |c| c);
        let setup_s = start.elapsed().as_secs_f64();
        let (windows_s, latencies) = drive(&mut stack, checks);
        let outcome = finish(&mut stack, latencies);
        return (rep(setup_s, windows_s, spec.end_s, &outcome), outcome);
    }
    let mut ctl_stats: Vec<Rc<CtlStats>> = Vec::new();
    let start = Instant::now();
    let mut stack = build(spec, TimedWorld::new, &mut |c| {
        let (wrapped, stats) = TimedController::wrap(c);
        ctl_stats.push(stats);
        wrapped
    });
    let setup_s = start.elapsed().as_secs_f64();
    let (windows_s, latencies) = drive(&mut stack, checks);
    let mut layers = fleet_layers(&stack, &ctl_stats, &windows_s, checks);
    let outcome = finish(&mut stack, latencies);
    let injected = [
        ("chaos.failures_injected", outcome.injected_failures),
        ("chaos.bursts_injected", outcome.injected_bursts),
    ];
    for (name, count) in injected {
        set(&mut layers, name, count as f64);
    }
    let mut r = rep(setup_s, windows_s, spec.end_s, &outcome);
    r.layers = layers;
    (r, outcome)
}

fn rep(setup_s: f64, windows_s: Vec<f64>, sim_s: f64, outcome: &FleetOutcome) -> Rep {
    Rep {
        setup_s,
        run_s: windows_s.iter().sum(),
        windows_s,
        sim_s,
        digest: fleet_digest(outcome),
        layers: BTreeMap::new(),
    }
}

/// The controllers that carry per-layer metrics, by [`Controller::name`].
///
/// [`Controller::name`]: ic_controlplane::Controller::name
const CONTROLLERS: [&str; 7] = [
    "asc",
    "powercap",
    "governor",
    "script",
    "failover",
    "chaos",
    "degradation",
];

/// The `apply` verbs that carry per-layer metrics.
const VERBS: [&str; 10] = [
    "scale_out",
    "scale_in",
    "set_frequency",
    "grant_power",
    "migrate",
    "fail_server",
    "repair_server",
    "inject_error_burst",
    "freeze_telemetry",
    "drop_vm_sensor",
];

/// Every per-layer metric with its unit, in report order. Workloads
/// that lack a layer report it as 0.
pub fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: String, unit| m.push((name, unit));
    add("world.advance_s".into(), "s");
    add("world.advance_calls".into(), "count");
    add("sim.events".into(), "count");
    add("sim.ns_per_event".into(), "ns");
    add("sim.requests_completed".into(), "count");
    add("sim.boxed_events".into(), "count");
    add("world.pre_tick_s".into(), "s");
    add("world.telemetry_s".into(), "s");
    add("world.telemetry_calls".into(), "count");
    add("telemetry.vm_rows".into(), "count");
    add("world.apply_s".into(), "s");
    add("world.apply_calls".into(), "count");
    for verb in VERBS {
        add(format!("world.apply.{verb}_s"), "s");
        add(format!("world.apply.{verb}_calls"), "count");
    }
    add("world.apply_rejected".into(), "count");
    add("world.apply_accept_ratio".into(), "ratio");
    add("world.complete_scale_out_s".into(), "s");
    for ctl in CONTROLLERS {
        add(format!("ctl.{ctl}.observe_s"), "s");
        add(format!("ctl.{ctl}.observe_calls"), "count");
        add(format!("ctl.{ctl}.actions"), "count");
        add(format!("ctl.{ctl}.applied_s"), "s");
    }
    add("power.cache_hits".into(), "count");
    add("power.cache_misses".into(), "count");
    add("power.cache_hit_rate".into(), "ratio");
    add("power.demand_refreshes".into(), "count");
    add("chaos.failures_injected".into(), "count");
    add("chaos.bursts_injected".into(), "count");
    add("world.failures_applied".into(), "count");
    add("world.recovered_vms".into(), "count");
    add("plane.ticks".into(), "count");
    add("plane.events".into(), "count");
    add("plane.self_s".into(), "s");
    for policy in TABLE11_POLICIES {
        add(
            format!("autoscale.run_s.{}", policy_key(policy.label())),
            "s",
        );
    }
    for policy in TABLE11_POLICIES {
        let name = format!("autoscale.sim_events.{}", policy_key(policy.label()));
        add(name, "count");
    }
    add("par.workers".into(), "count");
    add("par.busy_s".into(), "s");
    add("par.efficiency".into(), "ratio");
    add("trace.overhead_ratio".into(), "ratio");
    m
}

/// `OC-E` -> `oc-e`: policy labels as metric-name components.
fn policy_key(label: &str) -> String {
    label.to_ascii_lowercase()
}

/// A zeroed layer map holding every per-layer metric.
fn empty_layers() -> BTreeMap<String, f64> {
    per_layer_metrics()
        .into_iter()
        .map(|(name, _)| (name, 0.0))
        .collect()
}

fn set(layers: &mut BTreeMap<String, f64>, name: &str, value: f64) {
    let slot = layers
        .get_mut(name)
        .unwrap_or_else(|| panic!("unknown per-layer metric {name}"));
    *slot = value;
}

/// Per-layer metrics of a traced fleet repetition, plus the closure
/// check: timed world calls and timed controller calls must fit inside
/// the summed window time, leaving a non-negative scheduler self time.
fn fleet_layers(
    stack: &Stack<TimedWorld<FleetWorld>>,
    ctl_stats: &[Rc<CtlStats>],
    windows_s: &[f64],
    checks: &mut Checks,
) -> BTreeMap<String, f64> {
    let mut l = empty_layers();
    let plane = &stack.plane;
    let p = &plane.world().profile;
    let world = plane.world().fleet();
    let sim = world.sim();
    set(&mut l, "world.advance_s", p.advance.secs());
    set(&mut l, "world.advance_calls", p.advance.calls as f64);
    set(&mut l, "sim.events", sim.events_processed() as f64);
    set(
        &mut l,
        "sim.ns_per_event",
        p.advance.ns as f64 / sim.events_processed().max(1) as f64,
    );
    set(
        &mut l,
        "sim.requests_completed",
        sim.completed_requests() as f64,
    );
    set(&mut l, "sim.boxed_events", sim.boxed_events() as f64);
    set(&mut l, "world.pre_tick_s", p.pre_tick.secs());
    set(&mut l, "world.telemetry_s", p.telemetry.secs());
    set(&mut l, "world.telemetry_calls", p.telemetry.calls as f64);
    set(&mut l, "telemetry.vm_rows", p.vm_rows as f64);
    set(&mut l, "world.apply_s", p.apply.secs());
    set(&mut l, "world.apply_calls", p.apply.calls as f64);
    for verb in VERBS {
        let s = p.verb(verb);
        set(&mut l, &format!("world.apply.{verb}_s"), s.secs());
        set(&mut l, &format!("world.apply.{verb}_calls"), s.calls as f64);
    }
    set(&mut l, "world.apply_rejected", p.rejected as f64);
    set(
        &mut l,
        "world.apply_accept_ratio",
        if p.apply.calls == 0 {
            1.0
        } else {
            1.0 - p.rejected as f64 / p.apply.calls as f64
        },
    );
    set(
        &mut l,
        "world.complete_scale_out_s",
        p.complete_scale_out.secs(),
    );
    let mut ctl_ns = 0u64;
    for stats in ctl_stats {
        let (observe, applied) = (stats.observe.get(), stats.applied.get());
        ctl_ns += observe.ns + applied.ns;
        let name = stats.name;
        set(&mut l, &format!("ctl.{name}.observe_s"), observe.secs());
        set(
            &mut l,
            &format!("ctl.{name}.observe_calls"),
            observe.calls as f64,
        );
        set(
            &mut l,
            &format!("ctl.{name}.actions"),
            stats.actions.get() as f64,
        );
        set(&mut l, &format!("ctl.{name}.applied_s"), applied.secs());
    }
    let (hits, misses) = world.model_cache_counters();
    set(&mut l, "power.cache_hits", hits as f64);
    set(&mut l, "power.cache_misses", misses as f64);
    set(
        &mut l,
        "power.cache_hit_rate",
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
    );
    set(
        &mut l,
        "power.demand_refreshes",
        world.demand_refreshes() as f64,
    );
    set(
        &mut l,
        "world.failures_applied",
        world.failures_applied() as f64,
    );
    set(&mut l, "world.recovered_vms", world.recovered_vms() as f64);
    set(&mut l, "plane.ticks", plane.ticks_total() as f64);
    set(&mut l, "plane.events", plane.events_processed() as f64);
    let total_s: f64 = windows_s.iter().sum();
    let timed_s = (p.total_ns() + ctl_ns) as f64 * 1e-9;
    let self_s = total_s - timed_s;
    checks.check(self_s >= 0.0, || {
        format!("closure: timed layers {timed_s} s exceed window total {total_s} s")
    });
    set(&mut l, "plane.self_s", self_s.max(0.0));
    l
}

/// The reference Table XI runs: the library's own batch path.
pub fn table11_one_shot(seed: u64) -> Vec<RunResult> {
    let (base, oce, oca) = ic_autoscale::runner::table11_runs(table11_config(), seed);
    vec![base, oce, oca]
}

/// The three Table XI runs as pool tasks: the set-up of `table11`
/// (each `Runner` builds its own world inside the task).
fn table11_tasks(seed: u64) -> Vec<(RunnerConfig, Policy, u64)> {
    let config = table11_config();
    TABLE11_POLICIES
        .iter()
        .map(|&policy| (config.clone(), policy, seed))
        .collect()
}

/// Host seconds of one set-up (build the plane, world and controllers,
/// or the Table XI task list) without running it.
pub fn setup_s(spec: Option<&FleetSpec>, seed: u64) -> f64 {
    let start = Instant::now();
    match spec {
        Some(spec) => drop(build(spec, |w| w, &mut |c| c)),
        None => drop(table11_tasks(seed)),
    }
    start.elapsed().as_secs_f64()
}

/// One repetition of `table11`: the three policies fanned out over
/// `pool`, each policy run timed from outside.
pub fn table11_rep(
    pool: ParPool,
    seed: u64,
    traced: bool,
    checks: &mut Checks,
) -> (Rep, Vec<RunResult>) {
    let start = Instant::now();
    let tasks = table11_tasks(seed);
    let setup_s = start.elapsed().as_secs_f64();
    let duration_s = tasks[0].0.duration_s();
    let max_vms = tasks[0].0.asc.max_vms;
    let wall = Instant::now();
    let timed: Vec<(RunResult, f64)> = pool.scatter_gather(tasks, |_, (config, policy, seed)| {
        let start = Instant::now();
        let result = Runner::new(config, policy, seed).run();
        (result, start.elapsed().as_secs_f64())
    });
    let run_s = wall.elapsed().as_secs_f64();
    let windows = duration_s / WINDOW_S as f64;
    let windows_s = timed.iter().map(|(_, s)| s / windows).collect();
    let results: Vec<RunResult> = timed.iter().map(|(r, _)| r.clone()).collect();
    for r in &results {
        checks.check(
            [r.p95_latency_s, r.avg_latency_s, r.vm_hours, r.avg_power_w]
                .iter()
                .all(|v| v.is_finite() && *v > 0.0)
                && r.completed > 0
                && (1..=max_vms).contains(&r.max_vms),
            || format!("table11 {}: non-finite or out-of-range outputs", r.policy),
        );
    }
    let mut layers = BTreeMap::new();
    if traced {
        layers = empty_layers();
        let busy_s: f64 = timed.iter().map(|(_, s)| s).sum();
        for (r, s) in &timed {
            let policy = policy_key(r.policy);
            set(&mut layers, &format!("autoscale.run_s.{policy}"), *s);
            set(
                &mut layers,
                &format!("autoscale.sim_events.{policy}"),
                r.sim_events as f64,
            );
        }
        let events: u64 = results.iter().map(|r| r.sim_events).sum();
        let completed: u64 = results.iter().map(|r| r.completed).sum();
        set(&mut layers, "sim.events", events as f64);
        set(&mut layers, "sim.requests_completed", completed as f64);
        set(&mut layers, "par.workers", pool.workers() as f64);
        set(&mut layers, "par.busy_s", busy_s);
        set(
            &mut layers,
            "par.efficiency",
            busy_s / (pool.workers() as f64 * run_s),
        );
    }
    let rep = Rep {
        setup_s,
        windows_s,
        run_s,
        sim_s: duration_s * TABLE11_POLICIES.len() as f64,
        digest: table11_digest(&results),
        layers,
    };
    (rep, results)
}
