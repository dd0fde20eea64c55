//! `check`: the CI perf-regression gate.
//!
//! Compares a kernel-benchmark snapshot against the checked-in
//! baseline (`BENCH_sim.json`) using the per-key tolerance rules in
//! [`ic_bench::check`].
//!
//! Flags:
//!
//! ```text
//!   --baseline <file>  baseline snapshot (default: BENCH_sim.json)
//!   --current <file>   snapshot to judge; - or omitted reads stdin
//! ```
//!
//! Exit status: 0 when every key is within tolerance, 1 on a
//! regression, 2 on usage or I/O errors.

use ic_bench::check::check;
use std::io::Read as _;
use std::process::ExitCode;

struct Args {
    baseline: String,
    current: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        baseline: "BENCH_sim.json".to_string(),
        current: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--baseline" => {
                args.baseline = iter.next().ok_or("--baseline needs a file path")?;
            }
            "--current" => {
                args.current = Some(iter.next().ok_or("--current needs a file path (or `-`)")?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn run() -> Result<bool, String> {
    let args = parse_args()?;
    let baseline = std::fs::read_to_string(&args.baseline)
        .map_err(|e| format!("cannot read baseline {:?}: {e}", args.baseline))?;
    let current = match args.current.as_deref() {
        None | Some("-") => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("cannot read current snapshot from stdin: {e}"))?;
            buf
        }
        Some(path) => std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read current snapshot {path:?}: {e}"))?,
    };
    let report = check(&baseline, &current)?;
    print!("{}", report.render());
    Ok(report.passed())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("check: {message}");
            ExitCode::from(2)
        }
    }
}
