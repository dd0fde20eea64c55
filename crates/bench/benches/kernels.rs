//! Microbenchmarks for the hot paths of the workspace: the
//! discrete-event queue, the M/G/k simulation, the auto-scaler control
//! step, VM placement, and the analytic models the governor evaluates on
//! every decision.
//!
//! Criterion is unavailable in the hermetic build, so this is a plain
//! `harness = false` binary with a small best-of-N timing loop. Run with
//! `cargo bench -p ic-bench`; each line reports the best per-iteration
//! time over several batches, which is stable enough to catch order-of-
//! magnitude regressions in CI logs.
//!
//! # Perf trajectory (`--json`)
//!
//! `cargo bench -p ic-bench --bench kernels -- --json [--quick]` prints a
//! single machine-readable JSON object to stdout — the format checked in
//! as `BENCH_sim.json` at the repo root and compared by the CI
//! `bench-smoke` job. It reports raw-queue and M/G/k events/sec (the
//! latter under both sampler stream versions — `mgk_events_per_sec` on
//! the frozen v1 stream, `mgk_events_per_sec_v2` on the ziggurat v2
//! stream — plus the per-draw `normal_ns_per_sample_{v1,v2}` costs), the
//! steady-state allocations per event (counted by this binary's global
//! allocator — expected to be exactly 0 once the queue's heap has grown
//! to its working size), the M/G/k boxed-event count, the end-to-end
//! wall time of the `table11` experiment from the registry (three
//! policies through the `ic-par` scatter-gather pool), the throughput
//! of a three-policy sweep (runs/sec), the control-plane scheduling rate of the composed
//! experiment under both streams (controller ticks/sec,
//! `composed_ctrl_ticks_per_sec{,_v2}`), the fleet-scale counterparts at
//! 10 000 power domains (`fleet10k_ctrl_ticks_per_sec`, plus the
//! per-VM telemetry-snapshot refill cost `fleet_snapshot_ns_per_vm` —
//! the key that would regress if the snapshot path went O(fleet)),
//! the chaos experiment's fault-injection event throughput
//! (`chaos_events_per_sec` — B2 and OC3 fleets end-to-end, gating the
//! hazard/burst bookkeeping on the event loop), server failover
//! throughput at 512 and 16 servers under the same VM density
//! (`failover_fails_per_sec{,_16}` — `check` holds the 512-server rate to
//! a fixed fraction of the 16-server rate, so a failover that rescans
//! the fleet fails the gate on any host),
//! the governor's steady-state cache hit rate, and the worker count
//! the pool resolved (`IC_PAR_WORKERS` or the machine's parallelism —
//! wall-clock numbers only speed up with real cores).
//! In `--quick` mode (what CI gates on) every key is the median of
//! three full measurement passes, so a single noisy runner sample
//! cannot move the gate.
//! Floats are encoded with [`ic_sim::json::write_f64`] so equal
//! measurements encode identically.

use ic_autoscale::asc::AutoScaler;
use ic_autoscale::policy::{AscConfig, Policy};
use ic_autoscale::runner::{run_batch, RunnerConfig};
use ic_bench::experiments::{chaos, fleet_scale};
use ic_bench::registry::{run_one, Mode};
use ic_cluster::cluster::Cluster;
use ic_cluster::placement::{Oversubscription, PlacementPolicy};
use ic_cluster::server::ServerSpec;
use ic_cluster::vm::VmSpec;
use ic_controlplane::controllers::PowerCapController;
use ic_controlplane::{
    Action, ControlPlane, Controller, FleetConfigBuilder, FleetWorld, FreqTarget, Outcome, World,
};
use ic_core::governor::{GovernorConfig, OverclockGovernor};
use ic_power::capping::PowerAllocator;
use ic_power::cpu::CpuSku;
use ic_power::units::Frequency;
use ic_reliability::lifetime::{CompositeLifetimeModel, OperatingConditions};
use ic_reliability::stability::StabilityModel;
use ic_scenario::Scenario;
use ic_sim::dist::{DrawCounts, DRAW_AHEAD_START};
use ic_sim::json::{write_escaped, write_f64};
use ic_sim::queue::EventQueue;
use ic_sim::rng::{SimRng, StreamVersion};
use ic_sim::time::{SimDuration, SimTime};
use ic_thermal::fluid::DielectricFluid;
use ic_thermal::junction::ThermalInterface;
use ic_workloads::mgk::ClientServerSim;
use ic_workloads::queueing::MgkQueue;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Counts every heap allocation made by this binary. Lives only in the
/// bench target — the library crates never pay for the counter — and
/// backs the allocations-per-event measurement in the JSON report.
struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Runs `f` in `batches` batches of `iters` iterations and returns the
/// best mean per-iteration time in seconds (the least-perturbed batch).
fn best_of<T>(batches: u32, iters: u32, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..batches {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let per_iter = start.elapsed().as_secs_f64() / iters as f64;
        best = best.min(per_iter);
    }
    best
}

/// Prints one human-readable result line.
fn report(name: &str, best: f64) {
    let (value, unit) = if best >= 1e-3 {
        (best * 1e3, "ms")
    } else if best >= 1e-6 {
        (best * 1e6, "us")
    } else {
        (best * 1e9, "ns")
    };
    println!("{name:<28} {value:>10.3} {unit}/iter");
}

const ENGINE_EVENTS: u64 = 100_000;

/// Drains every pending event of `queue`, counting each into `count`.
fn drain_count(queue: &mut EventQueue<()>, count: &mut u64) {
    while queue.pop_at_most(SimTime::MAX).is_some() {
        *count += 1;
    }
}

/// The raw-queue microbench: build a fresh [`EventQueue`], bulk-schedule
/// 100k trivial events, drain. Returns best seconds per iteration.
fn engine_iter_secs(batches: u32) -> f64 {
    best_of(batches, 3, || {
        let mut queue = EventQueue::new();
        for i in 0..ENGINE_EVENTS {
            queue.schedule(SimTime::from_nanos(i * 13 % 1_000_000), ());
        }
        let mut count = 0u64;
        drain_count(&mut queue, &mut count);
        count
    })
}

/// Steady-state queue throughput and allocation rate: one long-lived
/// [`EventQueue`] pumps repeated 100k-event waves, so its heap buffer is
/// warm. Returns `(events_per_sec, allocations_per_event)`; the latter
/// is expected to be exactly 0 — events are plain values and the heap
/// keeps its capacity between waves.
fn engine_steady_state(waves: u32) -> (f64, f64) {
    let mut queue = EventQueue::new();
    let mut count = 0u64;
    let wave = |queue: &mut EventQueue<()>, count: &mut u64| {
        let base = queue.now() + SimDuration::from_nanos(1);
        for i in 0..ENGINE_EVENTS {
            queue.schedule(base + SimDuration::from_nanos(i * 13 % 1_000_000), ());
        }
        drain_count(queue, count);
    };
    for _ in 0..3 {
        wave(&mut queue, &mut count);
    }
    let allocs_before = ALLOCATIONS.load(Ordering::Relaxed);
    let start = Instant::now();
    for _ in 0..waves {
        wave(&mut queue, &mut count);
    }
    let elapsed = start.elapsed().as_secs_f64();
    let allocs = ALLOCATIONS.load(Ordering::Relaxed) - allocs_before;
    black_box(count);
    let events = (waves as u64 * ENGINE_EVENTS) as f64;
    (events / elapsed, allocs as f64 / events)
}

/// Times [`SimRng::standard_normal`] under the given stream version and
/// returns nanoseconds per sample. v1 is the frozen Box-Muller pair
/// path the historical records replay; v2 is the 256-layer ziggurat,
/// whose rectangle branch (~98.8% of draws) is log/exp-free — the
/// sampler the `normal_ns_per_sample_v2` ceiling in `check` gates.
fn normal_ns_per_sample(batches: u32, version: StreamVersion) -> f64 {
    const DRAWS: u32 = 100_000;
    let mut rng = SimRng::seed_versioned(1, version);
    let best = best_of(batches, 3, || {
        let mut acc = 0.0;
        for _ in 0..DRAWS {
            acc += rng.standard_normal();
        }
        acc
    });
    best / DRAWS as f64 * 1e9
}

/// Simulated seconds of the long M/G/k lines: 300k arrivals at 2000
/// QPS, past the draw-ahead start threshold of 65 536 arrivals.
const MGK_LONG_SECS: u64 = 150;

/// The M/G/k end-to-end bench. Returns `(best_secs, engine_events,
/// boxed_events, draw_counts)` for one simulated run of `sim_secs` at
/// 2000 QPS on 4 VMs under the given sampler stream version; the draw
/// counts are the last run's.
fn mgk_measure(batches: u32, sim_secs: u64, version: StreamVersion) -> (f64, u64, u64, DrawCounts) {
    let mut events = 0u64;
    let mut boxed = 0u64;
    let mut draws = DrawCounts::default();
    let best = best_of(batches, 3, || {
        let mut sim = ClientServerSim::with_stream_version(1, 0.0028, 2.0, 4, 0.1, version);
        for _ in 0..4 {
            sim.add_vm();
        }
        sim.set_qps(2000.0);
        sim.advance_to(SimTime::from_secs(sim_secs));
        events = sim.events_processed();
        boxed = sim.boxed_events();
        draws = sim.draw_counts();
        sim.completed_requests()
    });
    (best, events, boxed, draws)
}

/// One auto-scaler decision window on the runner's world: the ASC alone
/// on a `FleetWorld` with no power domains, 3 VMs at 1500 QPS.
fn bench_autoscaler_step() {
    let asc = AscConfig::paper();
    let world = FleetWorld::new(
        FleetConfigBuilder::small(2)
            .initial_vms(3)
            .schedule(vec![(0.0, 1500.0)])
            .servers(asc.max_vms)
            .domains(vec![])
            .budget_w(0.0)
            .build(),
    );
    let mut plane = ControlPlane::new(world);
    plane.register(
        Box::new(AutoScaler::new(asc, Policy::OcA)),
        SimDuration::from_secs(3),
    );
    let mut t = SimTime::ZERO;
    report(
        "autoscaler_control_step",
        best_of(5, 200, || {
            t += SimDuration::from_secs(3);
            plane.run_until(t);
            plane.ticks_total()
        }),
    );
}

fn bench_placement() {
    report(
        "best_fit_place_200_vms",
        best_of(5, 20, || {
            let mut cluster = Cluster::new(
                vec![ServerSpec::open_compute(); 50],
                PlacementPolicy::BestFit,
                Oversubscription::ratio(1.2),
            );
            for _ in 0..200 {
                let _ = cluster.create_vm(SimTime::ZERO, VmSpec::new(4, 16.0));
            }
            cluster.vm_count()
        }),
    );
}

fn bench_governor() {
    let governor = OverclockGovernor::new(
        CpuSku::skylake_8180(),
        ThermalInterface::two_phase(DielectricFluid::hfe7000(), 0.084, 0.0),
        CompositeLifetimeModel::fitted_5nm(),
        StabilityModel::paper_characterization(),
        GovernorConfig::default(),
    );
    report(
        "governor_decide",
        best_of(5, 500, || governor.decide(Frequency::from_ghz(3.3), 305.0)),
    );
}

fn bench_models() {
    let model = CompositeLifetimeModel::fitted_5nm();
    let cond = OperatingConditions::new(0.98, 74.0, 50.0);
    report(
        "lifetime_eval",
        best_of(5, 10_000, || model.lifetime_years(&cond)),
    );
    report(
        "mgk_p95_quantile",
        best_of(5, 2_000, || {
            MgkQueue::new(16, 1230.0, 0.01, 1.5).sojourn_quantile(0.95)
        }),
    );
}

/// Times a three-policy scatter-gather sweep (the Figure 8 scenario
/// through [`run_batch`]) and returns completed runs per second.
fn sweep_runs_per_sec(quick: bool) -> f64 {
    let mut config = RunnerConfig::paper();
    config.schedule = vec![(0.0, 500.0), (300.0, if quick { 900.0 } else { 1000.0 })];
    config.tail_s = 300.0;
    let tasks: Vec<_> = [Policy::Baseline, Policy::OcE, Policy::OcA]
        .into_iter()
        .map(|policy| (config.clone(), policy, 42))
        .collect();
    let n = tasks.len() as f64;
    let start = Instant::now();
    black_box(run_batch(tasks, None));
    n / start.elapsed().as_secs_f64()
}

/// Times a composed control-plane experiment (`composed` on the v1
/// stream, `composed_v2` on the ziggurat stream) end-to-end and returns
/// controller ticks per wall second — the gate on the [`ic_controlplane`]
/// scheduler's overhead (telemetry assembly, action dispatch, and the
/// tick events themselves, on top of the workload sim). Like every
/// other kernel it keeps the least-perturbed of three runs; a single
/// ~60 ms sample is at the mercy of scheduler noise.
fn composed_ctrl_ticks_per_sec(quick: bool, id: &str) -> f64 {
    let mode = if quick { Mode::Quick } else { Mode::Full };
    let mut best = 0.0f64;
    for _ in 0..3 {
        let record =
            run_one(id, &Scenario::paper(), mode).expect("composed variants are registered");
        let ticks = record
            .metrics
            .iter()
            .find(|m| m.name == "cp_ticks")
            .map(|m| m.measured)
            .expect("composed reports cp_ticks");
        best = best.max(ticks / (record.wall_ms / 1e3));
    }
    best
}

/// Times the persistent telemetry-snapshot refill on a 10 000-domain
/// fleet carrying 64 serving VMs, in nanoseconds per VM row. At steady
/// state the power and cluster sections are clean (kept current at
/// actuation time), so the per-tick cost must track the active VMs
/// (64), not the fleet (10 000) — this key regressing is exactly what
/// an accidental O(fleet) snapshot rebuild looks like.
fn fleet_snapshot_ns_per_vm(batches: u32) -> f64 {
    const VMS: usize = 64;
    let mut config = fleet_scale::fleet_config(10_000, true);
    config.initial_vms = VMS;
    let mut world = FleetWorld::new(config);
    let t = SimTime::from_secs(1);
    // The first call computes the cluster section (dirty at
    // construction); the timed calls hit the steady-state path.
    let _ = world.telemetry(t);
    let best = best_of(batches, 1_000, || world.telemetry(t).vms.len());
    best / VMS as f64 * 1e9
}

/// Times the fleet-scale experiment's 10 000-domain size end-to-end
/// and returns controller ticks per wall second. The composed
/// experiment runs the same control loops at 2 domains; per-tick work
/// is O(dirty), so a hundredfold fleet must stay within the same
/// decade rather than dropping 100x.
fn fleet10k_ctrl_ticks_per_sec(quick: bool) -> f64 {
    let (ticks, secs) = fleet_scale::timed_ctrl_ticks(10_000, quick);
    ticks as f64 / secs
}

/// Times one capping re-plan of the 10 000-domain fleet plus its grant
/// actuation: a fleet-wide frequency step re-solves every domain's
/// demand, the capper re-allocates, and each grant that moved is
/// applied to the world. The ratio alternates between 1.0 and 1.2, so
/// every iteration is a real re-plan. Returns the best seconds per
/// re-plan and the grants one re-plan applies.
fn fleet10k_replan(batches: u32) -> (f64, usize) {
    let config = fleet_scale::fleet_config(10_000, true);
    let mut cap = PowerCapController::new(PowerAllocator::new(config.budget_w));
    let mut world = FleetWorld::new(config);
    let t = SimTime::from_secs(1);
    let mut ratio = 1.0;
    let mut grants = 0;
    let best = best_of(batches, 20, || {
        ratio = if ratio == 1.0 { 1.2 } else { 1.0 };
        let step = Action::SetFrequency {
            target: FreqTarget::Fleet,
            ratio,
        };
        world.apply(t, "bench", &step);
        let actions = cap.observe(world.telemetry(t));
        for action in &actions {
            world.apply(t, "powercap", action);
        }
        grants = actions.len();
    });
    (best, grants)
}

/// Times the chaos experiment (wear-coupled fault injection, B2 vs OC3
/// fleets with degradation controllers) end-to-end and returns engine
/// events per wall second across both fleets. This is the gate on the
/// fault-injection path: hazard inversion, burst accrual, and the
/// degradation/failover controllers all ride the event loop, so this
/// key regressing means fault bookkeeping went superlinear.
fn chaos_events_per_sec(quick: bool) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..3 {
        let start = Instant::now();
        let (events, metrics) = chaos::chaos_record(StreamVersion::V1, quick, None);
        let secs = start.elapsed().as_secs_f64();
        black_box(metrics);
        best = best.max(events as f64 / secs);
    }
    best
}

/// Fail/repair cycles per failover measurement batch: a multiple of
/// both fleet sizes, so every batch walks whole round-robin passes.
const FAILOVER_CYCLES: u32 = 16_384;

/// A fleet world of `servers` servers carrying `servers / 2` serving
/// VMs (the `chaos` workload's density), with its round-robin cursor.
fn failover_world(servers: usize) -> (FleetWorld, usize) {
    let config = FleetConfigBuilder::small(1)
        .servers(servers)
        .initial_vms(servers / 2)
        .build();
    (FleetWorld::new(config), 0)
}

/// Fails the cursor's server, repairs it at once and advances the
/// cursor, so the VMs keep moving from server to server.
fn failover_cycle((world, next): &mut (FleetWorld, usize)) -> Outcome {
    let t = SimTime::from_secs(1);
    let server = *next;
    *next = (server + 1) % world.cluster().servers().len();
    let outcome = world.apply(t, "bench", &Action::FailServer { server });
    world.apply(t, "bench", &Action::RepairServer { server });
    outcome
}

/// Times `FailServer` at 512 and at 16 servers under the same VM
/// density and returns failures per wall second at each size. Failover
/// costs one placement per displaced VM, so the 512-server rate must
/// not fall with the fleet size the way a fleet-wide rescan per failure
/// makes it fall. Batches of the two sizes alternate, so a change in
/// host speed moves both rates together and cancels out of the ratio
/// `check` gates.
fn failover_fails_per_sec(batches: u32) -> (f64, f64) {
    let mut large = failover_world(512);
    let mut small = failover_world(16);
    let (mut best_large, mut best_small) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..batches {
        best_large = best_large.min(best_of(1, FAILOVER_CYCLES, || failover_cycle(&mut large)));
        best_small = best_small.min(best_of(1, FAILOVER_CYCLES, || failover_cycle(&mut small)));
    }
    (1.0 / best_large, 1.0 / best_small)
}

/// Exercises the governor's decision loop over a grid of power grants
/// and reports the steady-state memo table's hit rate — the fraction of
/// power/temperature fixed points served without re-solving.
fn governor_cache_hit_rate() -> f64 {
    let governor = OverclockGovernor::new(
        CpuSku::skylake_8180(),
        ThermalInterface::two_phase(DielectricFluid::hfe7000(), 0.084, 0.0),
        CompositeLifetimeModel::fitted_5nm(),
        StabilityModel::paper_characterization(),
        GovernorConfig::default(),
    );
    for grant in [180.0, 205.0, 255.0, 305.0, 400.0] {
        for _ in 0..40 {
            black_box(governor.decide(Frequency::from_ghz(3.3), grant));
        }
    }
    governor.cache().hit_rate()
}

/// Collects the perf-trajectory metrics (the `BENCH_sim.json`
/// payload). Quick mode takes the per-key median of three full
/// measurement passes — CI gates on quick numbers, and one descheduled
/// runner must not be able to move them.
fn trajectory(quick: bool) -> Vec<(&'static str, f64)> {
    if !quick {
        return trajectory_once(false);
    }
    let first = trajectory_once(true);
    let second = trajectory_once(true);
    let third = trajectory_once(true);
    first
        .iter()
        .zip(&second)
        .zip(&third)
        .map(|((&(key, a), &(_, b)), &(_, c))| {
            let mut reps = [a, b, c];
            reps.sort_by(f64::total_cmp);
            (key, reps[1])
        })
        .collect()
}

/// One full measurement pass over every trajectory key.
fn trajectory_once(quick: bool) -> Vec<(&'static str, f64)> {
    let batches = if quick { 3 } else { 5 };
    let engine_best = engine_iter_secs(batches);
    let (steady_eps, allocs_per_event) = engine_steady_state(if quick { 5 } else { 15 });
    let sim_secs = if quick { 3 } else { 10 };
    let (mgk_best, mgk_events, mgk_boxed, _) = mgk_measure(batches, sim_secs, StreamVersion::V1);
    let (mgk_best_v2, mgk_events_v2, _, _) = mgk_measure(batches, sim_secs, StreamVersion::V2);
    let mode = if quick { Mode::Quick } else { Mode::Full };
    let table11 = run_one("table11", &Scenario::paper(), mode).expect("table11 is registered");
    let sweep_rps = sweep_runs_per_sec(quick);
    let (failover_512, failover_16) = failover_fails_per_sec(batches);
    vec![
        ("engine_events_per_sec", ENGINE_EVENTS as f64 / engine_best),
        ("engine_ms_per_100k_events", engine_best * 1e3),
        ("engine_steady_events_per_sec", steady_eps),
        ("engine_steady_allocs_per_event", allocs_per_event),
        (
            "normal_ns_per_sample_v1",
            normal_ns_per_sample(batches, StreamVersion::V1),
        ),
        (
            "normal_ns_per_sample_v2",
            normal_ns_per_sample(batches, StreamVersion::V2),
        ),
        ("mgk_events_per_sec", mgk_events as f64 / mgk_best),
        ("mgk_events_per_sec_v2", mgk_events_v2 as f64 / mgk_best_v2),
        ("mgk_boxed_events", mgk_boxed as f64),
        ("table11_wall_ms", table11.wall_ms),
        ("sweep_runs_per_sec", sweep_rps),
        (
            "composed_ctrl_ticks_per_sec",
            composed_ctrl_ticks_per_sec(quick, "composed"),
        ),
        (
            "composed_ctrl_ticks_per_sec_v2",
            composed_ctrl_ticks_per_sec(quick, "composed_v2"),
        ),
        (
            "fleet_snapshot_ns_per_vm",
            fleet_snapshot_ns_per_vm(batches),
        ),
        (
            "fleet10k_ctrl_ticks_per_sec",
            fleet10k_ctrl_ticks_per_sec(quick),
        ),
        ("chaos_events_per_sec", chaos_events_per_sec(quick)),
        ("failover_fails_per_sec", failover_512),
        ("failover_fails_per_sec_16", failover_16),
        ("steady_cache_hit_rate", governor_cache_hit_rate()),
        ("par_workers", ic_par::pool().workers() as f64),
    ]
}

/// Encodes the trajectory metrics as one deterministic-layout JSON
/// object (only the measurements themselves vary run to run).
fn trajectory_json(quick: bool, metrics: &[(&'static str, f64)]) -> String {
    let mut out = String::from("{\"schema\":\"ic-bench/kernels/v7\",\"mode\":");
    write_escaped(&mut out, if quick { "quick" } else { "full" });
    for (key, value) in metrics {
        out.push(',');
        write_escaped(&mut out, key);
        out.push(':');
        write_f64(&mut out, *value);
    }
    out.push('}');
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let quick = args.iter().any(|a| a == "--quick");

    if json {
        // JSON mode prints nothing but the object, so the output can be
        // redirected straight into BENCH_sim.json.
        let metrics = trajectory(quick);
        println!("{}", trajectory_json(quick, &metrics));
        return;
    }

    println!("kernel microbenchmarks (best of 5 batches)\n");
    report("engine_100k_events", engine_iter_secs(5));
    let (steady_eps, allocs_per_event) = engine_steady_state(15);
    println!(
        "engine_steady_state          {:>10.3} Mev/s  ({allocs_per_event} allocs/event)",
        steady_eps / 1e6
    );
    println!(
        "standard_normal_v1           {:>10.3} ns/sample",
        normal_ns_per_sample(5, StreamVersion::V1)
    );
    println!(
        "standard_normal_v2           {:>10.3} ns/sample",
        normal_ns_per_sample(5, StreamVersion::V2)
    );
    let (mgk_best, mgk_events, mgk_boxed, _) = mgk_measure(5, 10, StreamVersion::V1);
    report("mgk_sim_10s_at_2000qps", mgk_best);
    println!(
        "mgk_throughput               {:>10.3} Mev/s  ({mgk_boxed} boxed of {mgk_events} events)",
        mgk_events as f64 / mgk_best / 1e6
    );
    let (mgk_best_v2, mgk_events_v2, mgk_boxed_v2, _) = mgk_measure(5, 10, StreamVersion::V2);
    println!(
        "mgk_throughput_v2            {:>10.3} Mev/s  ({mgk_boxed_v2} boxed of {mgk_events_v2} events)",
        mgk_events_v2 as f64 / mgk_best_v2 / 1e6
    );
    // Long enough to pass the draw-ahead start threshold, so these two
    // lines include the helper thread; the shapes above (and the
    // `--json` keys) stay on the inline path.
    let long_arrivals = MGK_LONG_SECS * 2000;
    for (label, version) in [
        ("mgk_long_throughput", StreamVersion::V1),
        ("mgk_long_throughput_v2", StreamVersion::V2),
    ] {
        let (best, events, _, draws) = mgk_measure(3, MGK_LONG_SECS, version);
        println!(
            "{label:<28} {:>10.3} Mev/s  ({long_arrivals} arrivals; helper after {} values; \
             last run drew {} values from helper blocks, {} inline)",
            events as f64 / best / 1e6,
            DRAW_AHEAD_START,
            draws.helper,
            draws.inline
        );
    }
    bench_autoscaler_step();
    bench_placement();
    bench_governor();
    bench_models();
    println!(
        "sweep_throughput             {:>10.3} runs/s ({} pool workers)",
        sweep_runs_per_sec(true),
        ic_par::pool().workers()
    );
    println!(
        "composed_ctrl_ticks          {:>10.3} ticks/s",
        composed_ctrl_ticks_per_sec(true, "composed")
    );
    println!(
        "composed_ctrl_ticks_v2       {:>10.3} ticks/s",
        composed_ctrl_ticks_per_sec(true, "composed_v2")
    );
    println!(
        "fleet_snapshot               {:>10.3} ns/vm   (10k domains, 64 vms)",
        fleet_snapshot_ns_per_vm(5)
    );
    println!(
        "fleet10k_ctrl_ticks          {:>10.3} ticks/s",
        fleet10k_ctrl_ticks_per_sec(true)
    );
    let (replan_s, replan_grants) = fleet10k_replan(5);
    println!(
        "fleet10k_replan              {:>10.3} us/iter (10k domains, {replan_grants} grants)",
        replan_s * 1e6
    );
    println!(
        "chaos_events                 {:>10.3} Mev/s  (B2 + OC3 fleets)",
        chaos_events_per_sec(true) / 1e6
    );
    let (failover_512, failover_16) = failover_fails_per_sec(5);
    println!("failover_fails               {failover_512:>10.3} fails/s (512 servers, 256 vms)");
    println!("failover_fails_16            {failover_16:>10.3} fails/s (16 servers, 8 vms)");
    println!(
        "steady_cache_hit_rate        {:>10.3}",
        governor_cache_hit_rate()
    );
}
