//! `perf`: the evaluator perf harness → `BENCH_eval.json`.
//!
//! ```text
//! cargo run --release -p digamma_bench --bin perf -- [--mode full|smoke] [--out BENCH_eval.json]
//! ```
//!
//! Runs the fixed seeded workloads (`gemm`, `vgg16`, `bert`) through
//! the allocating baseline and the scratch evaluation paths, the
//! cold/warm memo searches, and the paired on/off comparisons (metrics,
//! tracing, disarmed failpoints, search analytics), writes the JSON
//! report, re-validates it, and exits non-zero if any timed comparison
//! diverged bit-wise or the file is malformed. Recorded numbers come
//! from `--mode full` on a release build; CI runs `--mode smoke`.

use digamma_bench::perfjson::{render_json, run, validate_json, PerfConfig};
use digamma_bench::Args;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1));
    let config = match args.get("mode").unwrap_or("full") {
        "full" => PerfConfig::full(),
        "smoke" => PerfConfig::smoke(),
        other => {
            eprintln!("perf: unknown --mode {other:?} (full | smoke)");
            return ExitCode::FAILURE;
        }
    };
    let out = args.get("out").unwrap_or("BENCH_eval.json").to_owned();

    let report = run(&config);
    for e in &report.eval {
        println!(
            "eval  {:<8} {:>6} evals | baseline {:>9.1} ns/eval | scratch {:>9.1} ns/eval | {:.2}x | bit-identical: {}",
            e.workload, e.evals, e.baseline_ns_per_eval, e.scratch_ns_per_eval, e.speedup, e.bit_identical
        );
    }
    for m in &report.memo {
        println!(
            "memo  {:<8} cold {:>8.1} ms | warm {:>8.1} ms | {:.2}x | warm genome hit rate {:.3}",
            m.workload, m.cold_wall_ms, m.warm_wall_ms, m.warm_speedup, m.warm_genome_hit_rate
        );
    }
    for section in &report.paired {
        for p in &section.rows {
            println!(
                "{:<15} {:<8} {:>6} evals | off {:>11.0} evals/s | on {:>11.0} evals/s | overhead {:>6.2}% | bit-identical: {}",
                section.name,
                p.workload,
                p.evals,
                p.off_evals_per_sec,
                p.on_evals_per_sec,
                p.overhead_pct,
                p.bit_identical
            );
        }
    }

    let json = render_json(&report);
    if let Err(e) = std::fs::write(&out, &json) {
        eprintln!("perf: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    let written = match std::fs::read_to_string(&out) {
        Ok(written) => written,
        Err(e) => {
            eprintln!("perf: cannot re-read {out}: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = validate_json(&written) {
        eprintln!("perf: {out} is malformed: {e}");
        return ExitCode::FAILURE;
    }
    if report.eval.iter().any(|e| !e.bit_identical) {
        eprintln!("perf: scratch path diverged from the allocating baseline — numbers are void");
        return ExitCode::FAILURE;
    }
    for section in &report.paired {
        if section.rows.iter().any(|p| !p.bit_identical) {
            eprintln!("perf: enabling {} changed the results — numbers are void", section.feature);
            return ExitCode::FAILURE;
        }
    }
    println!("perf: wrote {out}");
    ExitCode::SUCCESS
}
