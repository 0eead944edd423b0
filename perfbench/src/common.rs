//! Shared plumbing: options, the metric table, correctness gates,
//! statistics, and the per-genome layer replay every workload reports.

use digamma::CoOptProblem;
use digamma_costmodel::EvalScratch;
use digamma_encoding::Genome;
use digamma_obs::{render_chrome_trace, Tracer};
use digamma_server::CacheStats;
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Command-line options shared by every workload.
#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for checkpoints and trace files, relative to
    /// the working directory (the repository checkout).
    pub out_dir: PathBuf,
}

impl Options {
    pub fn deadline(&self, start: Instant) -> Instant {
        start + Duration::from_secs_f64(self.seconds)
    }
}

/// An ordered table of named measurements with units.
#[derive(Debug, Default)]
pub struct Metrics {
    pub entries: Vec<(String, f64, &'static str)>,
}

impl Metrics {
    pub fn push(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.entries.push((name.into(), value, unit));
    }
}

/// Correctness gates plus the operation tally behind `error_rate`.
#[derive(Debug, Default)]
pub struct Gates {
    /// Operations the workload attempted (searches, jobs, requests).
    pub attempted: u64,
    /// Failed or refused operations plus failed correctness checks.
    pub failed: u64,
    /// Correctness checks evaluated.
    pub checks: u64,
    /// The first few failure messages (all failures are counted).
    pub messages: Vec<String>,
}

impl Gates {
    /// Records one correctness check; a failure counts into `failed`.
    pub fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.checks += 1;
        if !ok {
            self.fail(message());
        }
    }

    /// Records one failed operation or check.
    pub fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.messages.len() < 20 {
            self.messages.push(message);
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// End-to-end metrics (untraced measurement).
    pub end_to_end: Metrics,
    /// Per-layer metrics (traced measurement only).
    pub per_layer: Metrics,
    /// End-to-end figures printed with the table but left out of the
    /// JSON, because their run-to-run spread can exceed the widest
    /// bound a gated metric may have.
    pub ungated: Metrics,
    pub gates: Gates,
    /// Human-readable lines describing the inputs and the load shape.
    pub notes: Vec<String>,
}

/// SplitMix64: the workload generator's only randomness, so a seed
/// fixes every generated input.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n.max(1)
    }

    /// A search seed kept small so it reads well in manifests.
    pub fn search_seed(&mut self) -> u64 {
        self.next_u64() % 1_000_000_007
    }
}

/// Linear-interpolated percentile (`q` in 0..=1); 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Counter growth between two cache snapshots (`entries` as of `after`).
pub fn cache_delta(after: Option<CacheStats>, before: Option<CacheStats>) -> CacheStats {
    let (a, b) = (after.unwrap_or_default(), before.unwrap_or_default());
    CacheStats {
        hits: a.hits.saturating_sub(b.hits),
        misses: a.misses.saturating_sub(b.misses),
        insertions: a.insertions.saturating_sub(b.insertions),
        evictions: a.evictions.saturating_sub(b.evictions),
        entries: a.entries,
    }
}

/// Peak resident set (`VmHWM`) of this process in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hands freed heap pages back to the kernel between rounds. Without
/// it, memory a dropped server freed in one worker's malloc arena can
/// sit resident while the next round allocates in another, and
/// `peak_rss_mb` jumps by a round's worth of caches at random.
pub fn release_freed_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: glibc's malloc_trim only returns free pages to the
    // kernel; it touches no live allocation.
    unsafe {
        malloc_trim(0);
    }
}

/// A tracer for the benchmark's own spans. Rounds run for seconds, so
/// the slow-span warning is pushed out of the way.
pub fn bench_tracer() -> Tracer {
    let tracer = Tracer::with_capacity(1 << 16);
    tracer.set_slow_span_threshold(Duration::from_secs(3600));
    tracer
}

/// Writes every retained span as Chrome-trace JSON.
pub fn write_trace(tracer: &Tracer, path: &Path) -> std::io::Result<usize> {
    let spans = tracer.recent(usize::MAX);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, render_chrome_trace(&spans))?;
    Ok(spans.len())
}

/// Time and counts of replaying genomes through the layers below
/// `evaluate_batch`: decode, per-layer key, batch dedupe, cost model.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub genomes: u64,
    pub keys: u64,
    pub distinct: u64,
    pub skipped: u64,
    pub decode: Duration,
    pub key: Duration,
    pub eval: Duration,
    pub eval_errors: u64,
}

impl Replay {
    /// Replays one batch exactly as `evaluate_batch` splits it without
    /// caches: decode every genome, key every (layer, mapping), and
    /// score each distinct key once.
    pub fn batch(&mut self, problem: &CoOptProblem, genomes: &[Genome], scratch: &mut EvalScratch) {
        let unique = problem.unique_layers();
        let started = Instant::now();
        let decoded: Vec<_> =
            genomes.iter().map(|g| g.decode_with_fanouts(unique, &g.fanouts)).collect();
        let decoded_at = Instant::now();
        let mut keys = Vec::with_capacity(decoded.len() * unique.len());
        for mappings in &decoded {
            for (li, mapping) in mappings.iter().enumerate() {
                keys.push(problem.evaluator().cache_key(&unique[li].layer, mapping));
            }
        }
        let keyed_at = Instant::now();
        let mut seen = HashSet::with_capacity(keys.len());
        let mut work = Vec::new();
        let mut k = 0;
        for mappings in &decoded {
            for (li, mapping) in mappings.iter().enumerate() {
                if seen.insert(keys[k]) {
                    work.push((li, mapping));
                }
                k += 1;
            }
        }
        let eval_started = Instant::now();
        for &(li, mapping) in &work {
            if problem
                .evaluator()
                .evaluate_with_scratch(&unique[li].layer, mapping, scratch)
                .is_err()
            {
                self.eval_errors += 1;
            }
        }
        let done = Instant::now();
        self.genomes += genomes.len() as u64;
        self.keys += keys.len() as u64;
        self.distinct += work.len() as u64;
        self.skipped += (keys.len() - work.len()) as u64;
        self.decode += decoded_at - started;
        self.key += keyed_at - decoded_at;
        self.eval += done - eval_started;
    }

    pub fn decode_ns(&self) -> f64 {
        ratio(self.decode.as_nanos() as f64, self.genomes as f64)
    }

    pub fn key_ns(&self) -> f64 {
        ratio(self.key.as_nanos() as f64, self.keys as f64)
    }

    pub fn eval_ns(&self) -> f64 {
        ratio(self.eval.as_nanos() as f64, self.distinct as f64)
    }
}

/// Per-layer metrics a workload does not exercise are reported as 0,
/// so every run carries the full table.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("costmodel.evals", "count"),
    ("costmodel.eval_ns", "ns"),
    ("costmodel.key_ns", "ns"),
    ("encoding.decode_ns", "ns"),
    ("core.problem.busy_s", "s"),
    ("core.problem.ns_per_genome", "ns"),
    ("core.problem.dedup_ratio", "fraction"),
    ("core.problem.other_share", "fraction"),
    ("core.ga.busy_s", "s"),
    ("core.ga.ns_per_genome", "ns"),
    ("core.ga.generations", "count"),
    ("core.unattributed_share", "fraction"),
    ("server.cache.genome_hit_rate", "fraction"),
    ("server.cache.layer_hit_rate", "fraction"),
    ("server.cache.genome_evictions", "count"),
    ("server.cache.layer_evictions", "count"),
    ("server.cache.genome_fill", "fraction"),
    ("server.queue.wait_ms_p50", "ms"),
    ("server.queue.claim_s", "s"),
    ("server.job.run_ms_p50.digamma", "ms"),
    ("server.job.run_ms_p50.gamma", "ms"),
    ("server.job.run_ms_p50.cma", "ms"),
    ("server.job.eval_share", "fraction"),
    ("server.persist.checkpoint_s", "s"),
    ("server.persist.spill_s", "s"),
    ("server.persist.spills", "count"),
    ("net.requests", "count"),
    ("net.non_2xx", "count"),
    ("net.request_ms_p50.submit", "ms"),
    ("net.request_ms_p50.status", "ms"),
    ("net.request_ms_p50.events", "ms"),
    ("net.request_ms_p50.analytics", "ms"),
    ("net.request_ms_p50.stats", "ms"),
    ("net.front_ms_p50", "ms"),
    ("trace.overhead_share", "fraction"),
    ("trace.spans", "count"),
];

/// The end-to-end metrics every workload reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("evals_per_s", "genomes/s"),
    ("best_cost_geomean", "cycles"),
    ("jobs_per_s", "jobs/s"),
    ("job_latency_p50_ms", "ms"),
    ("job_latency_p95_ms", "ms"),
    ("request_latency_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Fills `layer` with the measured values, zero for the rest, in the
/// canonical order.
pub fn layer_table(measured: &[(&str, f64)]) -> Metrics {
    let mut out = Metrics::default();
    for &(name, unit) in PER_LAYER {
        let value = measured.iter().find(|(n, _)| *n == name).map_or(0.0, |&(_, v)| v);
        out.push(name, value, unit);
    }
    out
}
