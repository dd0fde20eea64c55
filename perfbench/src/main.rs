//! `perfbench --workload <serve|fleet10k|chaos|table11> --seed <n>
//! --seconds <s> --trace <0|1>`
//!
//! Repeats the workload until `--seconds` of host time have passed and
//! prints a human-readable report followed, on the last line, by one
//! JSON object: `{"correct", "attempted", "failed", "metrics"}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`
//! untraced and traced repetitions alternate and the metrics are the
//! per-layer ones. Every repetition's output digest must equal that of
//! a one-shot `run_until(end)` reference run.

use ic_par::ParPool;
use perfbench::compose::{chaos_spec, fleet10k_spec, serve_spec, table11_record, FleetSpec};
use perfbench::run::{
    fleet_digest, fleet_one_shot, fleet_rep, per_layer_metrics, setup_s, table11_digest,
    table11_one_shot, table11_rep, Checks, Rep,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Workload {
    Serve,
    Fleet10k,
    Chaos,
    Table11,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::Serve,
        Workload::Fleet10k,
        Workload::Chaos,
        Workload::Table11,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::Serve => "serve",
            Workload::Fleet10k => "fleet10k",
            Workload::Chaos => "chaos",
            Workload::Table11 => "table11",
        }
    }

    fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn spec(self, seed: u64) -> Option<FleetSpec> {
        match self {
            Workload::Serve => Some(serve_spec(seed)),
            Workload::Fleet10k => Some(fleet10k_spec(seed)),
            Workload::Chaos => Some(chaos_spec(seed)),
            Workload::Table11 => None,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// Dedicated set-up samples taken before each repetition.
const SETUP_SAMPLES_PER_REP: usize = 8;

const USAGE: &str =
    "usage: perfbench --workload <serve|fleet10k|chaos|table11> --seed <n> --seconds <s> --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" | "--seed" | "--seconds" | "--trace" => {
                flags.insert(flag, value);
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    let get = |name: &str| flags.get(name).copied().ok_or(format!("missing {name}"));
    let workload = get("--workload")?;
    let workload =
        Workload::parse(workload).ok_or_else(|| format!("unknown workload {workload}"))?;
    let seed = get("--seed")?
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = get("--seconds")?
        .parse::<f64>()
        .ok()
        .filter(|s| s.is_finite() && *s > 0.0)
        .ok_or("--seconds must be a positive number")?;
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

/// The table11 pool: `IC_PAR_WORKERS` or the machine's parallelism,
/// never more threads than cores.
fn table11_pool() -> ParPool {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    ParPool::with_workers(ic_par::pool().workers().min(cores))
}

/// Runs the reference and returns its digest plus report lines.
fn reference(args: &Args, spec: Option<&FleetSpec>) -> (u64, Vec<String>) {
    match spec {
        Some(spec) => {
            let outcome = fleet_one_shot(spec);
            let lines = vec![format!(
                "outputs: {} completed, P95 {:.2} ms, {} control ticks, governor {:.2} GHz, \
                 {} failures applied, {} sim events",
                outcome.completed,
                outcome.p95_latency_s * 1e3,
                outcome.cp_ticks,
                outcome.governor_ghz,
                outcome.failures_applied,
                outcome.sim_events
            )];
            (fleet_digest(&outcome), lines)
        }
        None => {
            let runs = table11_one_shot(args.seed);
            let (_, metrics) = table11_record(&runs);
            let mut lines = vec!["model vs paper (Table XI):".to_string()];
            for m in metrics {
                let paper = m.paper.expect("table11 metrics carry paper values");
                lines.push(format!(
                    "  {:<24} model {:>8.3}  paper {:>6.2}  gap {:>+8.3}",
                    m.name,
                    m.measured,
                    paper,
                    m.measured - paper
                ));
            }
            (table11_digest(&runs), lines)
        }
    }
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        values[n / 2]
    } else {
        0.5 * (values[n / 2 - 1] + values[n / 2])
    }
}

/// Nearest-rank percentile of sorted `values`.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Peak resident set of this process, MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let spec = args.workload.spec(args.seed);
    let pool = table11_pool();
    let mut checks = Checks::default();

    let reference = catch_unwind(AssertUnwindSafe(|| reference(&args, spec.as_ref())));
    let (ref_digest, ref_lines) = match reference {
        Ok(r) => r,
        Err(_) => {
            checks.check(false, || "reference run panicked".to_string());
            (0, Vec::new())
        }
    };

    // Set-up is short next to a run, so it is sampled on its own:
    // before every repetition a few builds are timed and dropped unrun,
    // spreading the samples over the whole run like the repetitions.
    let mut setups: Vec<f64> = Vec::new();
    let mut untraced: Vec<Rep> = Vec::new();
    let mut traced: Vec<Rep> = Vec::new();
    let started = Instant::now();
    for i in 0.. {
        let trace_rep = args.trace && i % 2 == 1;
        if !args.trace {
            // The first build after a repetition refaults the memory the
            // repetition released; it warms the heap and is not counted.
            setup_s(spec.as_ref(), args.seed);
            for _ in 0..SETUP_SAMPLES_PER_REP {
                setups.push(setup_s(spec.as_ref(), args.seed));
            }
        }
        let rep = catch_unwind(AssertUnwindSafe(|| match &spec {
            Some(spec) => fleet_rep(spec, trace_rep, &mut checks).0,
            None => table11_rep(pool, args.seed, trace_rep, &mut checks).0,
        }));
        match rep {
            Ok(rep) => {
                checks.check(rep.digest == ref_digest, || {
                    format!(
                        "rep {i} ({}) digest {:016x} != reference {ref_digest:016x}",
                        if trace_rep { "traced" } else { "untraced" },
                        rep.digest
                    )
                });
                if trace_rep {
                    traced.push(rep);
                } else {
                    untraced.push(rep);
                }
            }
            Err(_) => checks.check(false, || format!("rep {i} panicked")),
        }
        let elapsed = started.elapsed().as_secs_f64();
        let windows: usize = untraced.iter().map(|r| r.windows_s.len()).sum();
        let enough = untraced.len() >= 2
            && (!args.trace || traced.len() >= 2)
            && (spec.is_none() || windows >= 100);
        if (elapsed >= args.seconds && enough) || elapsed >= 4.0 * args.seconds + 60.0 {
            break;
        }
    }

    println!(
        "workload {}, seed {}, {} untraced + {} traced reps in {:.1} s",
        args.workload.name(),
        args.seed,
        untraced.len(),
        traced.len(),
        started.elapsed().as_secs_f64()
    );
    for line in &ref_lines {
        println!("{line}");
    }
    println!("digest {ref_digest:016x}");

    let mut metrics: Vec<(String, f64, &'static str)> = Vec::new();
    let run_s = |reps: &[Rep]| median(&mut reps.iter().map(|r| r.run_s).collect::<Vec<_>>());
    if args.trace {
        let names = per_layer_metrics();
        for (metric, unit) in &names {
            let mut values: Vec<f64> = traced
                .iter()
                .filter_map(|r| r.layers.get(metric).copied())
                .collect();
            metrics.push((metric.clone(), median(&mut values), unit));
        }
        let overhead = run_s(&traced) / run_s(&untraced);
        if let Some(slot) = metrics.iter_mut().find(|m| m.0 == "trace.overhead_ratio") {
            slot.1 = overhead;
        }
        println!("layer profile (median traced rep, share of run time):");
        let total = run_s(&traced);
        for (metric, value, unit) in &metrics {
            if *unit == "s" && *value > 0.0 {
                println!(
                    "  {metric:<32} {value:>10.6} s  {:>5.1}%",
                    value / total * 100.0
                );
            }
        }
    } else {
        // Rates and window percentiles are taken within each
        // repetition and reported as the median across repetitions, so
        // a slow stretch on a shared host moves them only if it covers
        // most of the run.
        let mut rates: Vec<f64> = untraced.iter().map(|r| r.sim_s / r.run_s).collect();
        let window_pct = |q: f64| {
            let mut per_rep: Vec<f64> = untraced
                .iter()
                .map(|r| {
                    let mut ms: Vec<f64> = r.windows_s.iter().map(|s| s * 1e3).collect();
                    ms.sort_by(f64::total_cmp);
                    percentile(&ms, q)
                })
                .collect();
            median(&mut per_rep)
        };
        let (p50, p90) = (window_pct(0.50), window_pct(0.90));
        setups.extend(untraced.iter().map(|r| r.setup_s));
        let reps: Vec<String> = untraced.iter().map(|r| format!("{:.3}", r.run_s)).collect();
        println!("rep run_s: {}", reps.join(" "));
        let windows: usize = untraced.iter().map(|r| r.windows_s.len()).sum();
        println!("{windows} window samples, {} set-up samples", setups.len());
        metrics.push(("sim_s_per_s".into(), median(&mut rates), "s/s"));
        metrics.push(("window_ms_p50".into(), p50, "ms"));
        metrics.push(("window_ms_p90".into(), p90, "ms"));
        metrics.push(("setup_s".into(), median(&mut setups), "s"));
        metrics.push(("peak_rss_mb".into(), peak_rss_mb(), "MiB"));
    }
    for (metric, value, _) in &metrics {
        checks.check(value.is_finite(), || format!("{metric} is not finite"));
    }
    for note in &checks.notes {
        println!("check failed: {note}");
    }
    println!(
        "error_rate {} ({} of {} checks failed)",
        checks.failed as f64 / checks.attempted.max(1) as f64,
        checks.failed,
        checks.attempted
    );

    let body: Vec<String> = metrics
        .iter()
        .map(|(metric, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{metric}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
    ExitCode::SUCCESS
}
