//! Runs every table and figure experiment in paper order, then the
//! reproduction's own runs and ablations.
//!
//! Flags:
//!
//! ```text
//!   --quick            shorten the simulation-backed experiments
//!   --json             emit one JSONL record per experiment
//!   --list             print id and title of every registered experiment
//!   --only <ids>       run only the comma-separated experiment ids
//!   --scenario <file>  load the calibration scenario from a JSON file
//!                      instead of the built-in paper scenario
//!   --jobs <N>         fan experiments out across N worker threads
//!                      (output order stays deterministic)
//!   --trace-out <file>    record a flight-recorder trace of the run;
//!                         stdout is byte-identical to an untraced run
//!                         and the self-time summary goes to stderr
//!   --trace-format <fmt>  trace file format: chrome (default; load
//!                         in Perfetto / chrome://tracing) or jsonl
//! ```

use ic_bench::registry::{self, Mode};
use ic_obs::flight::shared_flight_from_env;
use ic_scenario::Scenario;
use std::process::ExitCode;

/// Ring capacity of the merged top-level recorder: every experiment's
/// absorbed spans land here, so it is sized above the sum of the
/// per-experiment rings seen in a full sweep.
const TRACE_CAPACITY: usize = 1 << 20;

#[derive(Clone, Copy, PartialEq, Eq)]
enum TraceFormat {
    Chrome,
    Jsonl,
}

struct Args {
    quick: bool,
    json: bool,
    list: bool,
    only: Option<Vec<String>>,
    scenario: Option<String>,
    jobs: usize,
    trace_out: Option<String>,
    trace_format: Option<TraceFormat>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        json: false,
        list: false,
        only: None,
        scenario: None,
        jobs: 1,
        trace_out: None,
        trace_format: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--json" => args.json = true,
            "--list" => args.list = true,
            "--only" => {
                let ids = iter
                    .next()
                    .ok_or("--only needs a comma-separated id list")?;
                args.only = Some(
                    ids.split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(String::from)
                        .collect(),
                );
            }
            "--scenario" => {
                args.scenario = Some(iter.next().ok_or("--scenario needs a file path")?);
            }
            "--jobs" => {
                let n = iter.next().ok_or("--jobs needs a thread count")?;
                args.jobs = n
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n >= 1)
                    .ok_or_else(|| format!("invalid --jobs value {n:?}"))?;
            }
            "--trace-out" => {
                args.trace_out = Some(iter.next().ok_or("--trace-out needs a file path")?);
            }
            "--trace-format" => {
                let fmt = iter
                    .next()
                    .ok_or("--trace-format needs `chrome` or `jsonl`")?;
                args.trace_format = Some(match fmt.as_str() {
                    "chrome" => TraceFormat::Chrome,
                    "jsonl" => TraceFormat::Jsonl,
                    other => return Err(format!("invalid --trace-format {other:?}")),
                });
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.trace_format.is_some() && args.trace_out.is_none() {
        return Err("--trace-format requires --trace-out".to_string());
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    if args.list {
        for exp in registry::registry() {
            use ic_bench::registry::Experiment;
            println!("{:<8} {}", exp.id(), exp.title());
        }
        return Ok(());
    }
    let scenario = match &args.scenario {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read scenario {path:?}: {e}"))?;
            Scenario::from_json(&text).map_err(|e| format!("invalid scenario {path:?}: {e}"))?
        }
        None => Scenario::paper(),
    };
    let mode = if args.quick { Mode::Quick } else { Mode::Full };
    let only = args.only.as_deref();
    let flight = args
        .trace_out
        .as_ref()
        .map(|_| shared_flight_from_env(TRACE_CAPACITY));
    if args.json {
        let records = match &flight {
            Some(flight) => registry::run_selected_traced(&scenario, mode, args.jobs, only, flight),
            None => registry::run_selected(&scenario, mode, args.jobs, only),
        }
        .map_err(|e| e.to_string())?;
        let mut out = String::new();
        for record in records {
            out.push_str(&record.to_json());
            out.push('\n');
        }
        print!("{out}");
    } else {
        let out = registry::render_selected(&scenario, mode, args.jobs, only)
            .map_err(|e| e.to_string())?;
        print!("{out}");
        // The text report comes from `render`; the trace needs the
        // instrumented measurement pass, so run it separately. stdout
        // stays byte-identical to an untraced run either way.
        if let Some(flight) = &flight {
            registry::run_selected_traced(&scenario, mode, args.jobs, only, flight)
                .map_err(|e| e.to_string())?;
        }
    }
    if let (Some(path), Some(flight)) = (&args.trace_out, &flight) {
        let chrome = args.trace_format.unwrap_or(TraceFormat::Chrome) == TraceFormat::Chrome;
        let file = std::fs::File::create(path)
            .map_err(|e| format!("cannot create trace file {path:?}: {e}"))?;
        let mut writer = std::io::BufWriter::new(file);
        let recorder = flight.borrow();
        recorder
            .write_trace(&mut writer, chrome)
            .map_err(|e| format!("cannot write trace file {path:?}: {e}"))?;
        eprint!("{}", recorder.summary());
    }
    Ok(())
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("run_all: {message}");
            ExitCode::from(2)
        }
    }
}
