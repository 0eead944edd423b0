//! End-to-end and per-layer benchmark of the DiGamma search stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload zoo-cold|service-durable \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs in its own process, generates its inputs from
//! `--seed`, measures for about `--seconds`, runs its correctness
//! gates, prints every metric by name and unit, and ends with one JSON
//! line: `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones (and
//! writes a Chrome trace under `--out-dir`). The exit code is non-zero
//! when any gate fails.
//!
//! Seeds 1..=10 are the tuning seeds; seed 4242 is held out for claims.

mod common;
mod service;
mod zoo;

use common::{Metrics, Options, Outcome};
use std::path::PathBuf;
use std::process::ExitCode;

const WORKLOADS: &[&str] = &["zoo-cold", "service-durable"];

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        out_dir: PathBuf::from(".bench_out"),
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| "--seed needs an integer")?,
            "--seconds" => {
                opts.seconds = value.parse().map_err(|_| "--seconds needs a number")?;
                if !opts.seconds.is_finite() || opts.seconds <= 0.0 {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                }
            }
            "--out-dir" => opts.out_dir = PathBuf::from(value),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !WORKLOADS.contains(&opts.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    Ok(opts)
}

/// Renders a metric table as the JSON `metrics` object. Values keep
/// every digit Rust's shortest round-trip formatting gives them.
fn metrics_json(metrics: &Metrics) -> String {
    let fields: Vec<String> = metrics
        .entries
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { format!("{value:?}") } else { "null".to_owned() };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The metric table a run must report: every end-to-end metric, or
/// with `--trace 1` every per-layer one, by name and unit in order.
fn complete(metrics: &Metrics, expected: &[(&str, &str)]) -> bool {
    metrics.entries.len() == expected.len()
        && metrics.entries.iter().zip(expected).all(|((n, _, u), (en, eu))| n == en && u == eu)
}

fn report(opts: &Options, outcome: &mut Outcome) -> bool {
    let expected = if opts.trace { common::PER_LAYER } else { common::END_TO_END };
    let metrics = if opts.trace { &outcome.per_layer } else { &outcome.end_to_end };
    if !complete(metrics, expected) {
        outcome.gates.fail("the metric table is incomplete".to_owned());
    }
    let gates = &outcome.gates;
    for note in &outcome.notes {
        println!("# {note}");
    }
    let ungated = if opts.trace { &[][..] } else { &outcome.ungated.entries[..] };
    for (name, value, unit) in metrics.entries.iter().chain(ungated) {
        println!("{:<40} {value:>16.6} {unit}", format!("{}.{name}", opts.workload));
    }
    println!(
        "{:<40} {:>16.6} fraction",
        format!("{}.error_rate", opts.workload),
        gates.error_rate()
    );
    println!(
        "# gates: {} checks, {} operations attempted, {} failed",
        gates.checks, gates.attempted, gates.failed
    );
    for message in &gates.messages {
        println!("# FAILED: {message}");
    }
    let correct = gates.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        gates.attempted.max(1),
        gates.failed,
        metrics_json(metrics)
    );
    correct
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let mut outcome = match opts.workload.as_str() {
        "zoo-cold" => zoo::run(&opts),
        _ => match service::run(&opts) {
            Ok(outcome) => outcome,
            Err(message) => {
                eprintln!("perfbench: service-durable: {message}");
                return ExitCode::FAILURE;
            }
        },
    };
    if report(&opts, &mut outcome) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
