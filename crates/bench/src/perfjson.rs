//! The evaluator perf harness: fixed seeded workloads → `BENCH_eval.json`.
//!
//! Every perf claim in this repository is anchored to the cost model's
//! evaluation throughput (the paper's whole speed argument rests on the
//! MAESTRO-style evaluation block being cheap to call millions of
//! times). This module measures it reproducibly and emits a JSON file —
//! `BENCH_eval.json` — that seeds the repo's performance trajectory;
//! future perf PRs are judged against it.
//!
//! Three fixed seeded workloads (`gemm`, `vgg16`, `bert`) are measured
//! six ways:
//!
//! * **eval** — raw `(layer, mapping) → CostReport` throughput, the
//!   allocating pre-change path (`Evaluator::evaluate_baseline`) vs the
//!   scratch path (`Evaluator::evaluate_with_scratch`), same seeded
//!   mapping set, with a bit-identity checksum gate: a speedup measured
//!   on diverging results would be meaningless.
//! * **memo** — a cold search followed by an identical warm search on a
//!   shared server, recording the genome-memo / per-layer-cache /
//!   batch-dedupe counters and the warm-over-cold wall-clock ratio.
//! * **instrumentation** — `CoOptProblem::evaluate_batch` throughput
//!   with the metrics registry detached vs attached
//!   ([`EvalHooks::metrics`]), guarding the observability layer's
//!   promise that the eval hot path stays allocation-free and within a
//!   few percent of the uninstrumented speed, again behind a
//!   bit-identity checksum gate.
//! * **tracing** — the same paired measurement for the span tracer
//!   ([`EvalHooks::trace`]): evaluation throughput with no tracer vs
//!   with sampled eval spans recording into a live [`Tracer`], guarding
//!   the tracing layer's promise that sampled spans stay within a few
//!   percent and change no results.
//! * **fault_injection** — the same paired measurement for the
//!   failpoint framework ([`digamma_obs::FailSet`]): evaluation
//!   throughput with no failpoint set vs with a set attached but
//!   *disarmed*, guarding the chaos layer's promise that every
//!   production `evaluate_batch` call pays at most one relaxed atomic
//!   load (≈1% budget) for the ability to inject faults at all.
//! * **analytics** — the same paired measurement one layer up, at the
//!   search loop: a full seeded `DiGamma::search` with
//!   [`digamma::DiGammaConfig::analytics`] off vs on, guarding the
//!   search-introspection layer's promise that per-generation
//!   [`GenStats`](digamma_obs::GenStats) and operator attribution are
//!   pure bookkeeping over already-evaluated data — zero extra RNG
//!   draws, bit-identical incumbents and history, ≤1% search wall time.
//!
//! The last four are one measurement, `paired_ratio`, with different
//! "off" and "on" closures.
//!
//! `--mode smoke` shrinks the budgets so CI can assert the file is
//! produced and well-formed in seconds; recorded numbers come from
//! `--mode full` on a release build (see the README's Performance
//! section).

use digamma::{
    CoOptProblem, DesignEvaluation, DiGamma, DiGammaConfig, EvalHooks, EvalMetrics, EvalTrace,
    Objective, SearchResult,
};
use digamma_costmodel::{EvalScratch, Evaluator, Mapping, Platform};
use digamma_encoding::Genome;
use digamma_obs::{parse_json, FailSet, MetricsRegistry, SpanContext, Tracer};
use digamma_server::{JobAlgorithm, JobReport, JobSpec, SearchServer, ServerConfig};
use digamma_workload::{zoo, Layer, Model, UniqueLayer};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Instant;

/// Harness knobs. `full()` is what recorded numbers use; `smoke()` is
/// the CI-sized variant.
#[derive(Debug, Clone)]
pub struct PerfConfig {
    /// Label recorded in the output (`full` or `smoke`).
    pub mode: String,
    /// Target `(layer, mapping)` evaluations per workload per path.
    pub evals_per_workload: usize,
    /// Timing repeats per path (the minimum is recorded).
    pub repeats: usize,
    /// Search budget for the memo measurement.
    pub memo_budget: usize,
    /// GA population for the memo measurement.
    pub memo_population: usize,
    /// RNG seed for mapping generation and the searches.
    pub seed: u64,
}

impl PerfConfig {
    /// The recorded-numbers configuration.
    pub fn full() -> PerfConfig {
        PerfConfig {
            mode: "full".to_owned(),
            evals_per_workload: 4096,
            repeats: 5,
            memo_budget: 600,
            memo_population: 20,
            seed: 7,
        }
    }

    /// The CI smoke configuration: seconds, not minutes.
    pub fn smoke() -> PerfConfig {
        PerfConfig {
            mode: "smoke".to_owned(),
            evals_per_workload: 64,
            repeats: 2,
            memo_budget: 48,
            memo_population: 8,
            seed: 7,
        }
    }
}

/// Raw-evaluator throughput for one workload.
#[derive(Debug, Clone)]
pub struct EvalPerf {
    /// Workload name (`gemm` / `vgg16` / `bert`).
    pub workload: String,
    /// `(layer, mapping)` evaluations per timed pass.
    pub evals: usize,
    /// Allocating pre-change path, nanoseconds per evaluation.
    pub baseline_ns_per_eval: f64,
    /// Scratch path, nanoseconds per evaluation.
    pub scratch_ns_per_eval: f64,
    /// Allocating path throughput.
    pub baseline_evals_per_sec: f64,
    /// Scratch path throughput.
    pub scratch_evals_per_sec: f64,
    /// `scratch_evals_per_sec / baseline_evals_per_sec`.
    pub speedup: f64,
    /// Whether both paths produced bit-identical report checksums (a
    /// `false` here invalidates the whole measurement).
    pub bit_identical: bool,
}

/// Memo-layer effectiveness for one workload (cold job then identical
/// warm job on one server).
#[derive(Debug, Clone)]
pub struct MemoPerf {
    /// Workload name.
    pub workload: String,
    /// Cold-search wall time in milliseconds.
    pub cold_wall_ms: f64,
    /// Warm (identical rerun) wall time in milliseconds.
    pub warm_wall_ms: f64,
    /// `cold_wall_ms / warm_wall_ms`.
    pub warm_speedup: f64,
    /// Genome-memo hits in the cold job (elite recurrence).
    pub cold_genome_hits: u64,
    /// Genome-memo hit rate of the warm job (expected ≈ 1).
    pub warm_genome_hit_rate: f64,
    /// Per-layer cache hits across both jobs.
    pub cache_hits: u64,
    /// Per-layer cache misses across both jobs.
    pub cache_misses: u64,
    /// Batch-local dedupe skips across both jobs.
    pub dedup_skipped: u64,
}

/// One workload's row of a paired on/off overhead section: the same
/// seeded work timed with a feature off and on.
#[derive(Debug, Clone)]
pub struct PairedPerf {
    /// Workload name.
    pub workload: String,
    /// Per-layer evaluations per timed batch (before dedupe), or
    /// design-point evaluations per search for the analytics section.
    pub evals: usize,
    /// Completed generations per search (analytics section only).
    pub generations: Option<u64>,
    /// Throughput with the feature off.
    pub off_evals_per_sec: f64,
    /// Throughput with the feature on.
    pub on_evals_per_sec: f64,
    /// `(off - on) / off`, as a percentage — positive means the
    /// feature-on path is slower.
    pub overhead_pct: f64,
    /// Whether both paths produced bit-identical results (a `false`
    /// here invalidates the row).
    pub bit_identical: bool,
}

/// A paired on/off overhead section of the report.
#[derive(Debug, Clone)]
pub struct PairedSection {
    /// JSON section key (`instrumentation`, `tracing`, ...).
    pub name: &'static str,
    /// Prefix of the throughput keys: `metrics` renders as
    /// `metrics_off_evals_per_sec` / `metrics_on_evals_per_sec`.
    pub prefix: &'static str,
    /// What the "on" side turns on, for console rows and divergence
    /// messages.
    pub feature: &'static str,
    /// One row per workload.
    pub rows: Vec<PairedPerf>,
}

/// The full harness output.
#[derive(Debug, Clone)]
pub struct PerfReport {
    /// The configuration that produced it.
    pub config: PerfConfig,
    /// Raw evaluator throughput per workload.
    pub eval: Vec<EvalPerf>,
    /// Memo effectiveness per workload.
    pub memo: Vec<MemoPerf>,
    /// The paired on/off sections, in JSON order: metrics, tracing,
    /// disarmed failpoints (all on `evaluate_batch`), then search
    /// analytics (on whole searches).
    pub paired: Vec<PairedSection>,
}

/// The three fixed workloads the harness sweeps.
pub fn workloads() -> Vec<Model> {
    vec![Model::new("gemm", vec![Layer::gemm("gemm", 256, 128, 256)]), zoo::vgg16(), zoo::bert()]
}

/// Seeded `(unique-layer index, mapping)` pairs for one workload:
/// random genomes decoded exactly as the search would decode them.
fn seeded_pairs(unique: &[UniqueLayer], target_evals: usize, seed: u64) -> Vec<(usize, Mapping)> {
    let platform = Platform::edge();
    let mut rng = SmallRng::seed_from_u64(seed);
    let genomes = target_evals.div_ceil(unique.len()).max(1);
    let mut pairs = Vec::with_capacity(genomes * unique.len());
    for _ in 0..genomes {
        let genome = Genome::random(&mut rng, unique, &platform, 2);
        for (li, mapping) in genome.decode(unique).into_iter().enumerate() {
            pairs.push((li, mapping));
        }
    }
    pairs
}

/// Minimum wall time over `repeats` runs of `pass`, in nanoseconds.
fn best_of<F: FnMut()>(repeats: usize, mut pass: F) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let start = Instant::now();
        pass();
        best = best.min(start.elapsed().as_nanos() as f64);
    }
    best
}

fn measure_eval(model: &Model, config: &PerfConfig) -> EvalPerf {
    let unique = model.unique_layers();
    let pairs = seeded_pairs(&unique, config.evals_per_workload, config.seed);
    let evaluator = Evaluator::new(Platform::edge());
    let mut scratch = EvalScratch::new();

    // Checksum gate: both paths must agree to the bit before any
    // timing is worth recording.
    let checksum = |report: &digamma_costmodel::CostReport| {
        report
            .latency_cycles
            .to_bits()
            .wrapping_mul(31)
            .wrapping_add(report.energy_pj.to_bits())
            .wrapping_add(report.buffers.l2_words)
    };
    let mut baseline_sum = 0u64;
    let mut scratch_sum = 0u64;
    for (li, mapping) in &pairs {
        let b = evaluator.evaluate_baseline(&unique[*li].layer, mapping).expect("valid mapping");
        let s = evaluator
            .evaluate_with_scratch(&unique[*li].layer, mapping, &mut scratch)
            .expect("valid mapping");
        baseline_sum = baseline_sum.wrapping_add(checksum(&b));
        scratch_sum = scratch_sum.wrapping_add(checksum(&s));
    }

    let baseline_ns = best_of(config.repeats, || {
        for (li, mapping) in &pairs {
            let report =
                evaluator.evaluate_baseline(&unique[*li].layer, mapping).expect("valid mapping");
            std::hint::black_box(&report);
        }
    });
    let scratch_ns = best_of(config.repeats, || {
        for (li, mapping) in &pairs {
            let report = evaluator
                .evaluate_with_scratch(&unique[*li].layer, mapping, &mut scratch)
                .expect("valid mapping");
            std::hint::black_box(&report);
        }
    });

    let evals = pairs.len();
    let baseline_ns_per_eval = baseline_ns / evals as f64;
    let scratch_ns_per_eval = scratch_ns / evals as f64;
    EvalPerf {
        workload: model.name().to_owned(),
        evals,
        baseline_ns_per_eval,
        scratch_ns_per_eval,
        baseline_evals_per_sec: 1e9 / baseline_ns_per_eval,
        scratch_evals_per_sec: 1e9 / scratch_ns_per_eval,
        speedup: baseline_ns_per_eval / scratch_ns_per_eval,
        bit_identical: baseline_sum == scratch_sum,
    }
}

fn measure_memo(model: &Model, config: &PerfConfig) -> MemoPerf {
    let server = SearchServer::new(ServerConfig { workers: 1, ..ServerConfig::default() });
    let job = |name: &str| {
        let mut spec = JobSpec::new(
            name,
            model.clone(),
            Platform::edge(),
            digamma::Objective::Latency,
            JobAlgorithm::DiGamma,
        );
        spec.budget = config.memo_budget;
        spec.population_size = config.memo_population;
        spec.seed = config.seed;
        spec
    };
    let cold: JobReport = server.run_job(&job("cold"));
    let warm: JobReport = server.run_job(&job("warm"));
    let cold_wall_ms = cold.wall.as_secs_f64() * 1e3;
    let warm_wall_ms = warm.wall.as_secs_f64() * 1e3;
    MemoPerf {
        workload: model.name().to_owned(),
        cold_wall_ms,
        warm_wall_ms,
        warm_speedup: cold_wall_ms / warm_wall_ms.max(1e-9),
        cold_genome_hits: cold.genome_hits,
        warm_genome_hit_rate: warm.genome_hit_rate(),
        cache_hits: cold.cache_hits + warm.cache_hits,
        cache_misses: cold.cache_misses + warm.cache_misses,
        dedup_skipped: cold.dedup_skipped + warm.dedup_skipped,
    }
}

/// Times `off` and `on` against each other and returns the fastest
/// `off` call in nanoseconds and the median `on / off` time ratio.
///
/// The expected deltas are ~1%, far below machine drift, so the
/// comparison is made *pairwise*: each iteration times an off/on/on/off
/// quartet (ABBA), each pass `calls` calls long so scheduler hiccups
/// amortize, and contributes one ratio. Any drift that is linear in
/// time (turbo decay, a neighbour ramping up) lands equally on both
/// sides of a quartet and cancels, and the median keeps outlier
/// quartets from deciding the result the way they decide independent
/// minima.
fn paired_ratio(
    quartets: usize,
    calls: usize,
    mut off: impl FnMut(),
    mut on: impl FnMut(),
) -> (f64, f64) {
    let pass = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        for _ in 0..calls {
            f();
        }
        start.elapsed().as_nanos() as f64 / calls as f64
    };
    let mut off_ns = f64::INFINITY;
    let mut ratios = Vec::with_capacity(quartets);
    for _ in 0..quartets.max(1) {
        let off_a = pass(&mut off);
        let on_a = pass(&mut on);
        let on_b = pass(&mut on);
        let off_b = pass(&mut off);
        off_ns = off_ns.min(off_a.min(off_b));
        ratios.push((on_a + on_b) / (off_a + off_b));
    }
    ratios.sort_by(f64::total_cmp);
    (off_ns, ratios[ratios.len() / 2])
}

/// One row from a [`paired_ratio`] result over `evals` evaluations per call.
fn paired_row(
    model: &Model,
    evals: usize,
    generations: Option<u64>,
    (off_ns, ratio): (f64, f64),
    bit_identical: bool,
) -> PairedPerf {
    let off_evals_per_sec = evals as f64 / (off_ns / 1e9);
    PairedPerf {
        workload: model.name().to_owned(),
        evals,
        generations,
        off_evals_per_sec,
        on_evals_per_sec: off_evals_per_sec / ratio,
        overhead_pct: (ratio - 1.0) * 100.0,
        bit_identical,
    }
}

/// `evaluate_batch` throughput with no hooks vs with `hooks` attached.
/// Neither problem has a cache or memo: the measurement isolates the
/// hooks themselves, not the memo layers they count.
fn measure_hooks(model: &Model, config: &PerfConfig, hooks: EvalHooks) -> PairedPerf {
    let platform = Platform::edge();
    let unique = model.unique_layers();
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let count = config.evals_per_workload.div_ceil(unique.len()).max(1);
    let genomes: Vec<Genome> =
        (0..count).map(|_| Genome::random(&mut rng, &unique, &platform, 2)).collect();
    let off = CoOptProblem::new(model.clone(), platform, Objective::Latency);
    let on = off.clone().with_eval_hooks(hooks);

    // Bit-identity gate first: an overhead number measured on diverging
    // evaluations would be meaningless.
    let checksum = |evaluations: &[DesignEvaluation]| {
        evaluations.iter().fold(0u64, |acc, e| {
            acc.wrapping_mul(31)
                .wrapping_add(e.cost.to_bits())
                .wrapping_add(e.latency_cycles.to_bits())
                .wrapping_add(e.energy_pj.to_bits())
        })
    };
    let bit_identical =
        checksum(&off.evaluate_batch(&genomes, 1)) == checksum(&on.evaluate_batch(&genomes, 1));
    let timing = paired_ratio(
        config.repeats * 16,
        2,
        || {
            std::hint::black_box(off.evaluate_batch(&genomes, 1));
        },
        || {
            std::hint::black_box(on.evaluate_batch(&genomes, 1));
        },
    );
    paired_row(model, genomes.len() * unique.len(), None, timing, bit_identical)
}

/// A complete seeded [`DiGamma::search`] with analytics off vs on. The
/// budget reuses the memo knobs — analytics cost scales with
/// generations, and the memo search is the harness's canonical "whole
/// search" size.
fn measure_analytics(model: &Model, config: &PerfConfig) -> PairedPerf {
    let platform = Platform::edge();
    let problem = CoOptProblem::new(model.clone(), platform, Objective::Latency);
    let budget = config.memo_budget;
    let ga = |analytics: bool| {
        DiGamma::new(DiGammaConfig {
            population_size: config.memo_population,
            threads: 1,
            analytics,
            seed: config.seed,
            ..DiGammaConfig::default()
        })
    };

    // Bit-identity gate first — and stricter than the evaluate_batch
    // measurements: the whole best-so-far trajectory must match, not
    // just a batch of independent evaluations. Any divergence means the
    // analytics path consumed RNG or reordered the search.
    let fingerprint = |result: &SearchResult| {
        let mut acc = result.samples as u64;
        for cost in &result.history {
            acc = acc.wrapping_mul(31).wrapping_add(cost.to_bits());
        }
        if let Some(best) = &result.best {
            acc = acc.wrapping_mul(31).wrapping_add(best.cost.to_bits());
        }
        acc
    };
    let off_result = ga(false).search(&problem, budget);
    let on_ga = ga(true);
    let mut on_state = on_ga.init(&problem, budget);
    while on_ga.step(&problem, &mut on_state, budget) {}
    let generations = on_state.generation();
    let on_result = on_state.into_result();
    let bit_identical = fingerprint(&off_result) == fingerprint(&on_result);

    let timing = paired_ratio(
        config.repeats * 24,
        4,
        || {
            std::hint::black_box(ga(false).search(&problem, budget));
        },
        || {
            std::hint::black_box(ga(true).search(&problem, budget));
        },
    );
    paired_row(model, off_result.samples, Some(generations), timing, bit_identical)
}

/// Runs the full harness.
pub fn run(config: &PerfConfig) -> PerfReport {
    let models = workloads();
    let eval = models.iter().map(|m| measure_eval(m, config)).collect();
    let memo = models.iter().map(|m| measure_memo(m, config)).collect();
    let hooks_section = |name, prefix, feature, hooks: &dyn Fn() -> EvalHooks| PairedSection {
        name,
        prefix,
        feature,
        rows: models.iter().map(|m| measure_hooks(m, config, hooks())).collect(),
    };
    let registry = MetricsRegistry::new();
    let paired = vec![
        hooks_section("instrumentation", "metrics", "metrics", &|| EvalHooks {
            metrics: Some(EvalMetrics::for_tenant(&registry, "bench")),
            ..EvalHooks::default()
        }),
        hooks_section("tracing", "trace", "tracing", &|| EvalHooks {
            trace: Some(EvalTrace::new(Tracer::new(), SpanContext::generate(), 1)),
            ..EvalHooks::default()
        }),
        // Attached and *disarmed*: the set exists, no `worker.eval`
        // action is configured, so every call pays exactly the
        // advertised relaxed atomic load and nothing fires.
        hooks_section("fault_injection", "faults", "a disarmed failpoint set", &|| EvalHooks {
            faults: Some(Arc::new(FailSet::new())),
            ..EvalHooks::default()
        }),
        PairedSection {
            name: "analytics",
            prefix: "analytics",
            feature: "search analytics",
            rows: models.iter().map(|m| measure_analytics(m, config)).collect(),
        },
    ];
    PerfReport { config: config.clone(), eval, memo, paired }
}

/// JSON string escaping (the only non-trivial JSON need this file has —
/// workload names are ASCII identifiers, but be correct anyway).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A JSON number: finite floats rounded to a stable precision, so the
/// file diffs cleanly between runs of the same build.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "null".to_owned()
    }
}

/// Renders the report as pretty-printed JSON (hand-rolled — the
/// workspace has no serde_json).
pub fn render_json(report: &PerfReport) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": {},\n", json_str("digamma-bench-eval/5")));
    out.push_str(&format!("  \"mode\": {},\n", json_str(&report.config.mode)));
    out.push_str(&format!("  \"seed\": {},\n", report.config.seed));
    out.push_str("  \"eval\": [\n");
    for (i, e) in report.eval.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"workload\": {}, ", json_str(&e.workload)));
        out.push_str(&format!("\"evals\": {}, ", e.evals));
        out.push_str(&format!("\"baseline_ns_per_eval\": {}, ", json_num(e.baseline_ns_per_eval)));
        out.push_str(&format!("\"scratch_ns_per_eval\": {}, ", json_num(e.scratch_ns_per_eval)));
        out.push_str(&format!(
            "\"baseline_evals_per_sec\": {}, ",
            json_num(e.baseline_evals_per_sec)
        ));
        out.push_str(&format!(
            "\"scratch_evals_per_sec\": {}, ",
            json_num(e.scratch_evals_per_sec)
        ));
        out.push_str(&format!("\"speedup\": {}, ", json_num(e.speedup)));
        out.push_str(&format!("\"bit_identical\": {}", e.bit_identical));
        out.push_str(if i + 1 < report.eval.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ],\n");
    out.push_str("  \"memo\": [\n");
    for (i, m) in report.memo.iter().enumerate() {
        out.push_str("    {");
        out.push_str(&format!("\"workload\": {}, ", json_str(&m.workload)));
        out.push_str(&format!("\"cold_wall_ms\": {}, ", json_num(m.cold_wall_ms)));
        out.push_str(&format!("\"warm_wall_ms\": {}, ", json_num(m.warm_wall_ms)));
        out.push_str(&format!("\"warm_speedup\": {}, ", json_num(m.warm_speedup)));
        out.push_str(&format!("\"cold_genome_hits\": {}, ", m.cold_genome_hits));
        out.push_str(&format!("\"warm_genome_hit_rate\": {}, ", json_num(m.warm_genome_hit_rate)));
        out.push_str(&format!("\"cache_hits\": {}, ", m.cache_hits));
        out.push_str(&format!("\"cache_misses\": {}, ", m.cache_misses));
        out.push_str(&format!("\"dedup_skipped\": {}", m.dedup_skipped));
        out.push_str(if i + 1 < report.memo.len() { "},\n" } else { "}\n" });
    }
    out.push_str("  ],\n");
    for (si, section) in report.paired.iter().enumerate() {
        out.push_str(&format!("  {}: [\n", json_str(section.name)));
        let prefix = section.prefix;
        for (i, p) in section.rows.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"workload\": {}, ", json_str(&p.workload)));
            out.push_str(&format!("\"evals\": {}, ", p.evals));
            if let Some(generations) = p.generations {
                out.push_str(&format!("\"generations\": {generations}, "));
            }
            out.push_str(&format!(
                "\"{prefix}_off_evals_per_sec\": {}, ",
                json_num(p.off_evals_per_sec)
            ));
            out.push_str(&format!(
                "\"{prefix}_on_evals_per_sec\": {}, ",
                json_num(p.on_evals_per_sec)
            ));
            out.push_str(&format!("\"overhead_pct\": {}, ", json_num(p.overhead_pct)));
            out.push_str(&format!("\"bit_identical\": {}", p.bit_identical));
            out.push_str(if i + 1 < section.rows.len() { "},\n" } else { "}\n" });
        }
        out.push_str(if si + 1 < report.paired.len() { "  ],\n" } else { "  ]\n" });
    }
    out.push_str("}\n");
    out
}

/// Well-formedness check for the emitted JSON: it must parse as one
/// JSON document and carry every required key. CI runs this against
/// the freshly-written `BENCH_eval.json`.
///
/// # Errors
///
/// Returns a description of the first problem found.
pub fn validate_json(text: &str) -> Result<(), String> {
    parse_json(text)?;
    for key in [
        "\"schema\"",
        "\"mode\"",
        "\"seed\"",
        "\"eval\"",
        "\"memo\"",
        "\"workload\"",
        "\"baseline_ns_per_eval\"",
        "\"scratch_ns_per_eval\"",
        "\"speedup\"",
        "\"bit_identical\"",
        "\"warm_genome_hit_rate\"",
        "\"instrumentation\"",
        "\"metrics_off_evals_per_sec\"",
        "\"metrics_on_evals_per_sec\"",
        "\"overhead_pct\"",
        "\"tracing\"",
        "\"trace_off_evals_per_sec\"",
        "\"trace_on_evals_per_sec\"",
        "\"fault_injection\"",
        "\"faults_off_evals_per_sec\"",
        "\"faults_on_evals_per_sec\"",
        "\"analytics\"",
        "\"analytics_off_evals_per_sec\"",
        "\"analytics_on_evals_per_sec\"",
        "\"generations\"",
    ] {
        if !text.contains(key) {
            return Err(format!("missing required key {key}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_emits_wellformed_json_with_identical_paths() {
        let report = run(&PerfConfig::smoke());
        assert_eq!(report.eval.len(), 3);
        assert_eq!(report.memo.len(), 3);
        let names: Vec<&str> = report.paired.iter().map(|s| s.name).collect();
        assert_eq!(names, ["instrumentation", "tracing", "fault_injection", "analytics"]);
        for e in &report.eval {
            assert!(e.bit_identical, "{}: scratch path diverged from baseline", e.workload);
            assert!(e.evals > 0);
            assert!(e.baseline_ns_per_eval > 0.0 && e.scratch_ns_per_eval > 0.0);
        }
        for section in &report.paired {
            assert_eq!(section.rows.len(), 3, "{}", section.name);
            for p in &section.rows {
                assert!(p.bit_identical, "{}: {} changed results", p.workload, section.feature);
                assert!(p.evals > 0);
                assert!(p.off_evals_per_sec > 0.0 && p.on_evals_per_sec > 0.0);
                assert_eq!(p.generations.is_some(), section.name == "analytics");
                assert!(p.generations != Some(0), "{}: no generations ran", p.workload);
            }
        }
        for m in &report.memo {
            assert!(
                (m.warm_genome_hit_rate - 1.0).abs() < 1e-9,
                "{}: identical rerun must be all genome hits ({})",
                m.workload,
                m.warm_genome_hit_rate
            );
            assert!(m.cold_genome_hits > 0, "{}: elites must recur", m.workload);
        }
        let json = render_json(&report);
        validate_json(&json).expect("emitted JSON must be well-formed");
    }

    /// Manual probe for iterating on the analytics hot path without
    /// sitting through the full harness:
    /// `cargo test --release -p digamma_bench -- --ignored analytics_overhead_probe --nocapture`
    #[test]
    #[ignore = "manual perf probe; run --release with --nocapture"]
    fn analytics_overhead_probe() {
        for model in workloads() {
            let a = measure_analytics(&model, &PerfConfig::full());
            println!(
                "{:<8} overhead {:>6.2}% | off {:>9.0} evals/s | bit-identical: {}",
                a.workload, a.overhead_pct, a.off_evals_per_sec, a.bit_identical
            );
        }
    }

    #[test]
    fn validator_rejects_structural_damage() {
        let report = run(&PerfConfig {
            evals_per_workload: 4,
            repeats: 1,
            memo_budget: 16,
            memo_population: 8,
            ..PerfConfig::smoke()
        });
        let json = render_json(&report);
        validate_json(&json).unwrap();
        assert!(validate_json(&json[..json.len() - 3]).is_err(), "truncation must fail");
        assert!(validate_json(&json.replace("\"eval\"", "\"val\"")).is_err());
        assert!(validate_json(&json.replace("\"overhead_pct\"", "\"ovrhead_pct\"")).is_err());
        assert!(validate_json(&json.replace("\"trace_on_evals_per_sec\"", "\"trace_on\"")).is_err());
        assert!(validate_json(&json.replace("\"fault_injection\"", "\"faults\"")).is_err());
        assert!(validate_json(&json.replace("\"analytics_on_evals_per_sec\"", "\"analytics_on\""))
            .is_err());
        assert!(validate_json("{\"unterminated").is_err());
    }
}
