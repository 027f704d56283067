//! `stepbench` — the step-ledger benchmark: cells processed per second on
//! three rotating-star workloads, with an outside-in per-layer probe.
//!
//! ```text
//! stepbench --workload star-l3|dist2-l3|amr-l2 --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics from untraced runs of the
//! public drivers; `--trace 1` runs the probe and prints the per-layer
//! metrics. Either way the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`, and the exit
//! code is non-zero when any output check failed. See `README.md` for
//! the workloads, every metric and how to read the probe trace.

mod check;
mod probe;
mod stats;
mod traced;
mod workload;

use std::process::ExitCode;

use workload::{Outcome, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: stepbench --workload star-l3|dist2-l3|amr-l2 \
                     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 20, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: {value:?} is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("stepbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Err(e) = check::self_test() {
        eprintln!("stepbench: harness self-test failed: {e}");
        return ExitCode::FAILURE;
    }

    let w = args.workload;
    let mut out: Outcome = if args.trace {
        traced::per_layer(w, args.seed, args.seconds)
    } else {
        workload::end_to_end(w, args.seed, args.seconds)
    };
    let bad = out.metrics.non_finite();
    if !bad.is_empty() {
        out.problems
            .push(format!("non-finite metrics: {}", bad.join(", ")));
    }
    let correct = out.failed == 0 && out.problems.is_empty();

    println!(
        "workload {} seed {} ({} mode): {} of {} timed steps failed",
        w.name(),
        args.seed,
        if args.trace { "traced" } else { "end-to-end" },
        out.failed,
        out.attempted
    );
    for (name, value, unit) in &out.metrics.0 {
        println!("  {name:<32} {value:>16.6} {unit}");
    }
    for p in &out.problems {
        println!("FAILED CHECK: {p}");
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.attempted.max(1),
        out.failed,
        out.metrics.to_json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
