//! `zoo-cold`: the paper's own task. DiGamma co-optimises the seven
//! Fig. 5 models on the edge and cloud platforms, single-threaded and
//! with no cache or memo attached, so every genome is scored cold.
//!
//! A round is a fixed set of 56 searches (each pair under four seeds);
//! rounds repeat identically until the time is up, so every count
//! repeats exactly. A job is one search, a request one `init` or
//! `step` call; each is reported at its fastest over the rounds.

use crate::common::{
    bench_tracer, geomean, layer_table, median, peak_rss_mb, percentile, ratio, write_trace, Gates,
    Options, Outcome, Replay, SplitMix,
};
use digamma::{CoOptProblem, DiGamma, DiGammaConfig, Objective, SearchResult};
use digamma_costmodel::{EvalScratch, Platform};
use digamma_obs::{SpanContext, SpanRecord, Tracer};
use digamma_workload::zoo;
use std::time::{Duration, Instant};

/// Design points per search.
pub const BUDGET: usize = 2000;

/// Attribution tolerance: GA busy + problem busy must cover the
/// search wall time to within this share.
const ATTRIBUTION_TOLERANCE: f64 = 0.03;

/// Set-ups timed after every round; `setup_s` is their median over
/// the run, so it samples the host through the run like the rounds.
const SETUPS_PER_ROUND: usize = 5;

struct Search {
    label: String,
    problem: CoOptProblem,
    ga: DiGamma,
}

/// Searches per (model, platform) pair, each with its own seed: one
/// trajectory's cost per genome swings with its seed, so a round
/// averages several.
const SEEDS_PER_PAIR: usize = 4;

fn build(seed: u64) -> Vec<Search> {
    let mut rng = SplitMix::new(seed);
    let mut searches = Vec::new();
    for model in zoo::all_models() {
        for platform in [Platform::edge(), Platform::cloud()] {
            for k in 0..SEEDS_PER_PAIR {
                let label = format!("{}-{}-s{k}", model.name(), platform.name);
                let problem =
                    CoOptProblem::new(model.clone(), platform.clone(), Objective::Latency);
                let ga = DiGamma::new(DiGammaConfig {
                    threads: 1,
                    seed: rng.search_seed(),
                    ..DiGammaConfig::default()
                });
                searches.push(Search { label, problem, ga });
            }
        }
    }
    searches
}

/// The fastest time each unit of work took over a run's rounds.
///
/// Every round repeats the same units (a search, an `init` or `step`
/// call) in the same order. The shared host runs programs at full
/// speed for a while, then slower for seconds at a time while its
/// neighbours are busy; the slow stretches fall on different units in
/// different rounds, so each unit's fastest time measures the program
/// and not the neighbours. Percentiles and rates are then taken over
/// the units' fastest times.
#[derive(Debug, Default)]
struct Fastest(Vec<f64>);

impl Fastest {
    /// Records one round's times, unit by unit in the fixed order.
    fn round(&mut self, times: &[f64]) {
        if self.0.len() < times.len() {
            self.0.resize(times.len(), f64::INFINITY);
        }
        for (best, &t) in self.0.iter_mut().zip(times) {
            *best = best.min(t);
        }
    }

    fn times(&self) -> &[f64] {
        &self.0
    }

    fn sum(&self) -> f64 {
        self.0.iter().sum()
    }
}

/// One search's timings, split by layer.
#[derive(Default)]
struct SearchTiming {
    /// `init` + every `step`, as the caller sees them.
    calls: Duration,
    /// `eval_wall` delta over the search (time inside `evaluate_batch`).
    problem: Duration,
    /// The whole search loop, replay excluded.
    wall: Duration,
    /// Each `init` and `step` call in order, in ms.
    call_ms: Vec<f64>,
    generations: u64,
    dedup_skipped: u64,
}

fn run_search(
    s: &Search,
    trace: Option<(&Tracer, SpanContext, &mut Replay, &mut EvalScratch)>,
) -> (SearchResult, SearchTiming) {
    let eval_before = s.problem.eval_wall();
    let dedup_before = s.problem.batch_dedup_skipped();
    let mut timing = SearchTiming::default();
    let started = Instant::now();
    let mut replay_time = Duration::ZERO;
    let (tracer, parent, mut replay, mut scratch) = match trace {
        Some((t, p, r, sc)) => (Some(t), Some(p), Some(r), Some(sc)),
        None => (None, None, None, None),
    };
    let search_span = tracer.zip(parent).map(|(t, p)| {
        let mut span = t.start_child("search", p);
        span.set_attr("search", s.label.clone());
        span
    });
    let search_ctx = search_span.as_ref().and_then(|sp| sp.context());

    let call_started = Instant::now();
    let mut state = s.ga.init(&s.problem, BUDGET);
    let init_wall = call_started.elapsed();
    timing.calls += init_wall;
    timing.call_ms.push(init_wall.as_secs_f64() * 1e3);
    loop {
        let eval_at_step = s.problem.eval_wall();
        let step_span = tracer.zip(search_ctx).map(|(t, c)| t.start_child("ga.step", c));
        let call_started = Instant::now();
        let stepped = s.ga.step(&s.problem, &mut state, BUDGET);
        let step_wall = call_started.elapsed();
        if !stepped {
            break;
        }
        timing.calls += step_wall;
        timing.call_ms.push(step_wall.as_secs_f64() * 1e3);
        timing.generations += 1;
        if let (Some(t), Some(span)) = (tracer, step_span.as_ref().and_then(|sp| sp.context())) {
            // evaluate_batch runs inside step; its interval is known
            // only as the eval_wall delta, so it is recorded back-dated.
            let dur_ns = (s.problem.eval_wall() - eval_at_step).as_nanos() as u64;
            t.record(SpanRecord {
                trace: span.trace,
                span: t.span_id(),
                parent: Some(span.span),
                name: "problem.evaluate_batch",
                job: None,
                start_ns: t.now_ns().saturating_sub(dur_ns),
                dur_ns,
                attrs: vec![("genomes", state.population().len().to_string())],
            });
        }
        drop(step_span);
        if let (Some(replay), Some(scratch)) = (replay.as_deref_mut(), scratch.as_deref_mut()) {
            let replay_started = Instant::now();
            replay.batch(&s.problem, state.population(), scratch);
            replay_time += replay_started.elapsed();
        }
    }
    timing.wall = started.elapsed() - replay_time;
    timing.problem = s.problem.eval_wall() - eval_before;
    timing.dedup_skipped = s.problem.batch_dedup_skipped() - dedup_before;
    (state.into_result(), timing)
}

/// The correctness gates for one finished search.
fn check(gates: &mut Gates, s: &Search, result: &SearchResult) {
    gates.check(result.samples == BUDGET, || {
        format!("{}: samples {} != budget {BUDGET}", s.label, result.samples)
    });
    gates.check(result.history.windows(2).all(|w| w[1] <= w[0]), || {
        format!("{}: best-cost history increases", s.label)
    });
    let Some(best) = &result.best else {
        gates.fail(format!("{}: no feasible design", s.label));
        return;
    };
    let fresh = CoOptProblem::new(
        s.problem.model().clone(),
        s.problem.platform().clone(),
        s.problem.objective(),
    );
    let rescored = fresh.evaluate(&best.genome);
    gates.check(rescored.cost.to_bits() == best.cost.to_bits() && rescored.feasible, || {
        format!("{}: best re-scores to {} not {}", s.label, rescored.cost, best.cost)
    });
}

pub fn run(opts: &Options) -> Outcome {
    let mut out = Outcome::default();
    let started = Instant::now();
    let searches = build(opts.seed);
    let mut setups = vec![started.elapsed().as_secs_f64()];

    let tracer = bench_tracer();
    let mut replay = Replay::default();
    let mut scratch = EvalScratch::new();
    let (mut fastest_search, mut fastest_call) = (Fastest::default(), Fastest::default());
    let mut rates = Vec::new();
    let mut traced_rates = Vec::new();
    let mut reference: Option<Vec<u64>> = None;
    let mut best_latencies = Vec::new();
    let mut traced_rounds = 0u64;
    let (mut calls, mut problem_busy, mut wall) = (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut generations, mut dedup_skipped, mut samples) = (0u64, 0u64, 0u64);
    let (mut round0_skipped, mut round0_keys) = (0u64, 0u64);

    let start = Instant::now();
    let deadline = opts.deadline(start);
    let mut round = 0u64;
    // Traced runs alternate untraced and traced rounds so the tracing
    // overhead is a paired difference.
    while round < 2 || Instant::now() < deadline {
        let traced = opts.trace && round % 2 == 1;
        let root = traced.then(|| {
            let mut span = tracer.start_root("workload");
            span.set_attr("workload", "zoo-cold");
            span.set_attr("round", round.to_string());
            span
        });
        let root_ctx = root.as_ref().and_then(|r| r.context());
        let mut round_samples = 0usize;
        let mut round_wall = Duration::ZERO;
        let (mut search_ms, mut call_ms) = (Vec::new(), Vec::new());
        let mut fingerprint = Vec::new();
        for s in &searches {
            let trace = root_ctx.map(|ctx| (&tracer, ctx, &mut replay, &mut scratch));
            let (result, timing) = run_search(s, trace);
            out.gates.attempted += 1;
            check(&mut out.gates, s, &result);
            round_samples += result.samples;
            round_wall += timing.wall;
            fingerprint.push(result.best.as_ref().map_or(0, |b| b.cost.to_bits()));
            if round == 0 {
                best_latencies.push(result.best.as_ref().map_or(f64::NAN, |b| b.latency_cycles));
                round0_skipped += timing.dedup_skipped;
                round0_keys += (result.samples * s.problem.unique_layers().len()) as u64;
            }
            if traced {
                calls += timing.calls;
                problem_busy += timing.problem;
                wall += timing.wall;
                generations += timing.generations;
                dedup_skipped += timing.dedup_skipped;
                samples += result.samples as u64;
            } else {
                search_ms.push(timing.wall.as_secs_f64() * 1e3);
                call_ms.extend_from_slice(&timing.call_ms);
            }
        }
        drop(root);
        // Single-threaded and seeded: every round must repeat exactly.
        match &reference {
            None => reference = Some(fingerprint),
            Some(first) => out.gates.check(*first == fingerprint, || {
                format!("round {round}: best costs differ from round 0")
            }),
        }
        let rate = round_samples as f64 / round_wall.as_secs_f64();
        if traced {
            traced_rounds += 1;
            traced_rates.push(rate);
        } else {
            rates.push(rate);
            fastest_search.round(&search_ms);
            fastest_call.round(&call_ms);
        }
        for _ in 0..SETUPS_PER_ROUND {
            let started = Instant::now();
            let rebuilt = build(opts.seed);
            setups.push(started.elapsed().as_secs_f64());
            drop(rebuilt);
        }
        round += 1;
    }

    // A round at every search's fastest: all searches back to back.
    let round_s = fastest_search.sum() / 1e3;
    let e = &mut out.end_to_end;
    e.push("evals_per_s", (searches.len() * BUDGET) as f64 / round_s, "genomes/s");
    e.push("best_cost_geomean", geomean(&best_latencies), "cycles");
    e.push("jobs_per_s", searches.len() as f64 / round_s, "jobs/s");
    e.push("job_latency_p50_ms", percentile(fastest_search.times(), 0.5), "ms");
    e.push("job_latency_p95_ms", percentile(fastest_search.times(), 0.95), "ms");
    e.push("request_latency_p50_ms", percentile(fastest_call.times(), 0.5), "ms");
    e.push("setup_s", median(&setups), "s");
    e.push("peak_rss_mb", peak_rss_mb(), "MiB");
    out.ungated.push("request_latency_p90_ms", percentile(fastest_call.times(), 0.9), "ms");

    out.notes.push(format!(
        "zoo-cold: {} searches x budget {BUDGET} per round (7 models x edge/cloud x \
         {SEEDS_PER_PAIR} seeds, latency, threads=1, no cache/memo); {round} rounds; a job is \
         one search, a request one init or step call, each at its fastest over the untraced \
         rounds",
        searches.len()
    ));
    out.notes.push(format!(
        "zoo-cold inputs: repeated specs 0; no genome memo or layer cache; dedupe ratio {:.3}",
        ratio(round0_skipped as f64, round0_keys as f64)
    ));
    out.notes.push(format!(
        "zoo-cold samples: job latency n={}, request latency n={}, fastest of {} untraced rounds",
        fastest_search.times().len(),
        fastest_call.times().len(),
        rates.len()
    ));

    if opts.trace {
        let problem_s = problem_busy.as_secs_f64();
        let ga_s = (calls - problem_busy).as_secs_f64();
        let wall_s = wall.as_secs_f64();
        let unattributed = ratio(wall_s - ga_s - problem_s, wall_s);
        out.gates.check(unattributed.abs() <= ATTRIBUTION_TOLERANCE, || {
            format!(
                "attribution: ga {ga_s:.3}s + problem {problem_s:.3}s leaves {:.1}% of {wall_s:.3}s \
                 unattributed (tolerance {:.0}%)",
                unattributed * 100.0,
                ATTRIBUTION_TOLERANCE * 100.0
            )
        });
        // The replay must see exactly the batches evaluate_batch saw.
        out.gates.check(replay.skipped == dedup_skipped && replay.eval_errors == 0, || {
            format!(
                "replay dedupe skipped {} vs evaluate_batch {dedup_skipped} ({} eval errors)",
                replay.skipped, replay.eval_errors
            )
        });
        let per_round = |v: f64| v / traced_rounds.max(1) as f64;
        let covered = (replay.decode + replay.key + replay.eval).as_secs_f64();
        let spans = write_trace(&tracer, &opts.out_dir.join("trace-zoo-cold.json")).unwrap_or(0);
        out.notes.push(format!(
            "zoo-cold attribution: ga {:.1}% + problem {:.1}% of search wall, unattributed {:.2}% \
             (tolerance {:.0}%); replay covers {:.1}% of problem time",
            100.0 * ratio(ga_s, wall_s),
            100.0 * ratio(problem_s, wall_s),
            100.0 * unattributed,
            100.0 * ATTRIBUTION_TOLERANCE,
            100.0 * ratio(covered, problem_s)
        ));
        out.per_layer = layer_table(&[
            ("costmodel.evals", per_round(replay.distinct as f64)),
            ("costmodel.eval_ns", replay.eval_ns()),
            ("costmodel.key_ns", replay.key_ns()),
            ("encoding.decode_ns", replay.decode_ns()),
            ("core.problem.busy_s", per_round(problem_s)),
            ("core.problem.ns_per_genome", ratio(problem_s * 1e9, samples as f64)),
            ("core.problem.dedup_ratio", ratio(replay.skipped as f64, replay.keys as f64)),
            ("core.problem.other_share", 1.0 - ratio(covered, problem_s)),
            ("core.ga.busy_s", per_round(ga_s)),
            ("core.ga.ns_per_genome", ratio(ga_s * 1e9, samples as f64)),
            ("core.ga.generations", per_round(generations as f64)),
            ("core.unattributed_share", unattributed),
            ("trace.overhead_share", ratio(median(&rates), median(&traced_rates)) - 1.0),
            ("trace.spans", spans as f64),
        ]);
    }
    out
}
