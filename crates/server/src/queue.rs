//! What every search job shares, and the body that runs one.
//!
//! [`SearchServer`] owns one [`ShardedFitnessCache`] and one
//! [`ShardedGenomeMemo`] for all jobs, so a request for a model another
//! job already explored — or a re-submitted search — skips straight to
//! memoized cost-model results; per-job [`JobCacheView`]s keep each
//! report's hit/miss counters honest and charge every probe to the
//! tenant's [`TenantMeters`]. [`SearchServer::run_job_controlled`] is
//! what a [`crate::JobRegistry`] worker runs for each job it claims.
//!
//! GA jobs additionally checkpoint: with a checkpoint directory
//! configured, the server snapshots every few generations, and a
//! re-submitted job whose snapshot survives resumes bit-identically
//! instead of starting over.

use crate::cache::{
    CacheLayer, CacheStats, EvictionPolicy, JobCacheView, ProbeCounts, ShardedFitnessCache,
    ShardedGenomeMemo,
};
use crate::cachefile;
use crate::job::{JobAlgorithm, JobReport, JobSpec};
use crate::snapshot::Snapshot;
use crate::tenant::{TenantMeters, TenantSet};
use digamma::{
    run_algorithm, CoOptProblem, DiGamma, DiGammaConfig, EvalHooks, EvalMetrics, EvalTrace, Gamma,
    GammaConfig, SearchResult, SearchState, StepAction, StepObserver,
};
use digamma_obs::{
    FailSet, GenStats, Histogram, LogLevel, MetricsRegistry, OpCounters, SpanContext, SpanRecord,
    Tracer, DEFAULT_LATENCY_BUCKETS,
};
use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Server-wide knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads a [`crate::JobRegistry`] drains its queues with.
    pub workers: usize,
    /// Total fitness-cache capacity in memoized per-layer costs;
    /// `0` runs the server cache-less.
    pub cache_capacity: usize,
    /// Whole-genome memo capacity in memoized design evaluations; `0`
    /// disables the genome layer (the per-layer cache still applies).
    pub genome_cache_capacity: usize,
    /// How the fitness cache evicts past capacity.
    pub eviction: EvictionPolicy,
    /// Where GA jobs write checkpoints; `None` disables checkpointing
    /// (and with it the fitness-memo disk spill).
    pub checkpoint_dir: Option<PathBuf>,
    /// Default snapshot cadence in generations (jobs may override).
    pub checkpoint_every: u64,
    /// Per-job event-log ring capacity: the newest this many event
    /// lines are retained for late subscribers; older lines are dropped
    /// (the stream reports the first retained sequence number).
    pub event_log_capacity: usize,
    /// Whether the server's [`MetricsRegistry`] records anything. Off,
    /// the registry hands out detached cells: instrumentation still
    /// compiles and runs, but costs only a few dead atomic ops and
    /// `/metrics` renders empty. The tenant ledgers keep counting
    /// either way, so `/stats` is unaffected.
    pub metrics_enabled: bool,
    /// Whether the server's [`Tracer`] records spans. Off, the tracer
    /// is [`Tracer::disabled`]: span guards are inert, nothing is
    /// retained, and `/trace` endpoints report tracing as unavailable.
    pub trace_enabled: bool,
    /// Load-shed watermark: total jobs the tenant queues may hold
    /// before new submissions are rejected as retryable back-pressure
    /// (the wire layer answers 503 + `Retry-After`). `0` disables
    /// shedding.
    pub shed_queue_depth: usize,
    /// How long a graceful drain waits for queued and running jobs to
    /// finish before cancelling the stragglers cooperatively (each
    /// checkpoints and resumes on the next start).
    pub drain_deadline: Duration,
    /// The failpoint set every failure domain under this server
    /// consults: journal appends, snapshot/spill writes, worker evals
    /// (the wire layer shares it for socket faults). Defaults to a
    /// fresh inactive set — one relaxed load per site — and is armed by
    /// `digamma-netd --failpoints` or a test.
    pub faults: Arc<FailSet>,
    /// Per-job analytics window: the newest this many per-generation
    /// [`GenStats`] records are retained for `GET /jobs/{id}/analytics`
    /// and the `netc top` dashboard; older records are dropped (the
    /// cumulative operator counters are never windowed).
    pub analytics_capacity: usize,
    /// After this many stagnant generations (no incumbent improvement)
    /// the job's event log gains a `stalled` line — once per stall
    /// episode, re-armed by the next improvement. `0` disables the
    /// stall detector.
    pub stall_after: u64,
    /// The tenant roster the [`crate::JobRegistry`] admits against.
    /// Empty (the default) is permissive single-user mode: any
    /// well-formed tenant id registers on first sight with default
    /// weight and no quotas. A non-empty roster is strict: jobs must
    /// name a listed tenant, whose weight and quotas apply.
    pub tenants: TenantSet,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: digamma::default_threads(),
            cache_capacity: 256 * 1024,
            genome_cache_capacity: 64 * 1024,
            eviction: EvictionPolicy::Fifo,
            checkpoint_dir: None,
            checkpoint_every: 8,
            event_log_capacity: 1024,
            metrics_enabled: true,
            trace_enabled: true,
            shed_queue_depth: 0,
            drain_deadline: Duration::from_secs(10),
            faults: Arc::new(FailSet::new()),
            analytics_capacity: 512,
            stall_after: 25,
            tenants: TenantSet::default(),
        }
    }
}

/// A per-generation progress observation from a running GA job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobProgress {
    /// Completed generations.
    pub generation: u64,
    /// Design points evaluated so far.
    pub samples: usize,
    /// The job's total sample budget.
    pub budget: usize,
    /// Best feasible cost found so far, if any.
    pub best_cost: Option<f64>,
}

impl JobProgress {
    /// The one-line wire/log form streamed to clients:
    /// `gen=<g> samples=<s>/<budget> best=<cost|none>`.
    pub fn line(&self) -> String {
        let best = match self.best_cost {
            Some(c) => format!("{c:.6e}"),
            None => "none".to_owned(),
        };
        format!("gen={} samples={}/{} best={}", self.generation, self.samples, self.budget, best)
    }
}

/// One generation boundary's search telemetry, forwarded from the GA to
/// whoever attached an analytics sink (the registry pushes it into the
/// job's [`GenStats`] ring and keeps the attribution counters current).
/// `ops` is the job's *cumulative absolute* attribution — after a
/// resume it already includes the pre-kill half restored from the
/// snapshot, so consumers tracking deltas must diff against their last
/// seen absolutes rather than assume a fresh zero.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyticsUpdate {
    /// The boundary's per-generation statistics.
    pub stats: GenStats,
    /// Cumulative per-operator attribution counters, absolute.
    pub ops: OpCounters,
    /// On the *first* boundary of a run only: the full
    /// cost-vs-evaluations history so far — the generation-0 point for
    /// a fresh search, or the restored pre-kill curve after a resume.
    /// `None` on every later boundary (the receiver extends its curve
    /// from `stats` alone).
    pub seed_points: Option<Vec<digamma_obs::CostPoint>>,
}

/// External handles into a running job: a cooperative cancellation flag
/// (checked at generation boundaries) and an optional per-generation
/// progress sink.
#[derive(Default)]
pub struct JobControl {
    cancel: AtomicBool,
    progress: Option<Box<dyn Fn(JobProgress) + Send + Sync>>,
    analytics: Option<Box<dyn Fn(AnalyticsUpdate) + Send + Sync>>,
    /// The job's identity inside the span store: its id plus the claim
    /// span its run should nest under. Stamped by the registry's worker
    /// at claim time, read by [`SearchServer::run_job_controlled`].
    trace: Mutex<Option<(u64, SpanContext)>>,
}

impl JobControl {
    /// A control that never cancels and reports nowhere.
    pub fn new() -> JobControl {
        JobControl::default()
    }

    /// Attaches a per-generation progress callback.
    pub fn with_progress(
        mut self,
        progress: impl Fn(JobProgress) + Send + Sync + 'static,
    ) -> JobControl {
        self.progress = Some(Box::new(progress));
        self
    }

    /// Attaches a per-generation analytics callback (see
    /// [`AnalyticsUpdate`]); called once per stepped generation with the
    /// boundary's [`GenStats`] and the cumulative operator counters.
    pub fn with_analytics(
        mut self,
        analytics: impl Fn(AnalyticsUpdate) + Send + Sync + 'static,
    ) -> JobControl {
        self.analytics = Some(Box::new(analytics));
        self
    }

    /// Requests cooperative cancellation: the job stops at its next
    /// generation boundary, snapshotting first when checkpointing is on.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.cancel.load(Ordering::Relaxed)
    }

    /// Stamps the job id and parent span context the run should trace
    /// under (normally the claim span recorded by the registry worker).
    pub fn set_trace(&self, job: u64, parent: SpanContext) {
        *self.trace.lock().expect("trace slot poisoned") = Some((job, parent));
    }

    /// The stamped job id and parent span context, if any.
    pub fn trace(&self) -> Option<(u64, SpanContext)> {
        *self.trace.lock().expect("trace slot poisoned")
    }

    fn report(&self, progress: JobProgress) {
        if let Some(sink) = &self.progress {
            sink(progress);
        }
    }

    fn report_analytics(&self, update: AnalyticsUpdate) {
        if let Some(sink) = &self.analytics {
            sink(update);
        }
    }
}

impl fmt::Debug for JobControl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobControl")
            .field("cancel", &self.is_cancelled())
            .field("progress", &self.progress.as_ref().map(|_| "fn"))
            .field("analytics", &self.analytics.as_ref().map(|_| "fn"))
            .finish()
    }
}

/// The state every search job runs against: the shared fitness memo
/// (per-layer and whole-genome layers), the checkpoint directory and
/// memo spill file, and the metric and span stores. A
/// [`crate::JobRegistry`] schedules jobs onto it.
#[derive(Debug)]
pub struct SearchServer {
    config: ServerConfig,
    cache: Option<Arc<ShardedFitnessCache>>,
    genome_memo: Option<Arc<ShardedGenomeMemo>>,
    /// The fitness-memo spill file (`<checkpoint_dir>/fitness-memo.cache`)
    /// when both checkpointing and caching are on.
    cache_file: Option<PathBuf>,
    /// `insertions` counter value at the last spill; a spill is skipped
    /// while nothing new was memoized.
    spilled_insertions: AtomicU64,
    /// Serializes spills: concurrent finishing jobs must not interleave
    /// writes to the shared tmp file.
    spill_lock: Mutex<()>,
    /// The server's metric store ([`MetricsRegistry::disabled`] when
    /// `config.metrics_enabled` is off). Everything downstream — the
    /// net front-end, the job registry, per-job eval metrics — records
    /// into this one registry, so one render covers the whole stack.
    metrics: Arc<MetricsRegistry>,
    /// Each tenant's ledger, resolved once from `metrics` on first use
    /// and held here so its cells outlive any one job (and keep
    /// counting under a disabled registry).
    tenants: Mutex<HashMap<String, Arc<TenantMeters>>>,
    /// The server's span store ([`Tracer::disabled`] when
    /// `config.trace_enabled` is off). Request spans, job-lifecycle
    /// spans, and sampled eval spans all record here, so one trace id
    /// walks a request end to end.
    tracer: Tracer,
}

impl SearchServer {
    /// Builds a server (allocating its shared caches up front). With a
    /// checkpoint directory configured, the fitness memo **warm-starts**
    /// from the previous life's spill file — a corrupt or version-stale
    /// file degrades to a cold start.
    pub fn new(config: ServerConfig) -> SearchServer {
        let cache = (config.cache_capacity > 0).then(|| {
            Arc::new(ShardedFitnessCache::with_policy(config.cache_capacity, config.eviction))
        });
        let genome_memo = (config.genome_cache_capacity > 0).then(|| {
            Arc::new(ShardedGenomeMemo::with_policy(config.genome_cache_capacity, config.eviction))
        });
        let cache_file = match (&config.checkpoint_dir, &cache) {
            (Some(dir), Some(_)) => Some(dir.join("fitness-memo.cache")),
            _ => None,
        };
        let metrics = Arc::new(if config.metrics_enabled {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::disabled()
        });
        let tracer = if config.trace_enabled { Tracer::new() } else { Tracer::disabled() };
        let server = SearchServer {
            config,
            cache,
            genome_memo,
            cache_file,
            spilled_insertions: AtomicU64::new(0),
            spill_lock: Mutex::new(()),
            metrics,
            tenants: Mutex::new(HashMap::new()),
            tracer,
        };
        server.warm_start();
        server
    }

    /// The server's metric registry (shared with the registry and the
    /// network front-end, so one `/metrics` render covers the stack).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// `tenant`'s ledger, created empty on first sight.
    pub(crate) fn tenant_meters(&self, tenant: &str) -> Arc<TenantMeters> {
        let mut tenants = self.tenants.lock().expect("tenant meters poisoned");
        let meters = tenants
            .entry(tenant.to_owned())
            .or_insert_with(|| Arc::new(TenantMeters::new(Arc::clone(&self.metrics), tenant)));
        Arc::clone(meters)
    }

    /// The server's span store (disabled when `trace_enabled` is off).
    /// Shared with the registry and the network front-end, so request
    /// and job spans land in one store.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The failpoint set this server's failure domains consult (shared
    /// with the registry's journal and the network front-end).
    pub fn faults(&self) -> &Arc<FailSet> {
        &self.config.faults
    }

    /// Loads the spill file (if any) into the fresh cache.
    fn warm_start(&self) {
        let (Some(path), Some(cache)) = (&self.cache_file, &self.cache) else { return };
        let (entries, _load) = cachefile::read_cache_file(path);
        for (key, cost) in entries {
            digamma::EvalCache::store(cache.as_ref(), key, cost);
        }
        // The warm-start insertions are already on disk; don't let them
        // alone trigger a rewrite.
        self.spilled_insertions.store(cache.stats().insertions, Ordering::Relaxed);
    }

    /// New insertions a *cadence* spill waits for before rewriting the
    /// file. A spill serializes the whole resident cache (potentially
    /// hundreds of thousands of entries) on the searching thread, so
    /// mid-search spills must amortize: a long job spills only per this
    /// many new memoizations, while job completion and shutdown spill
    /// on any dirt at all.
    const SPILL_CADENCE_MIN_INSERTIONS: u64 = 4096;

    /// Spills the fitness memo to its file when new entries were
    /// memoized since the last spill. Called at job completion and
    /// registry shutdown; cheap when clean (one atomic read). Errors
    /// are swallowed — a spill is an optimization, never worth failing
    /// a search over.
    pub fn spill_cache_if_dirty(&self) {
        self.spill_cache(1);
    }

    /// The checkpoint-cadence variant: only rewrites once at least
    /// [`SearchServer::SPILL_CADENCE_MIN_INSERTIONS`] new entries
    /// accumulated, bounding how often a long search pays the
    /// serialize-everything cost mid-run.
    fn spill_cache_at_cadence(&self) -> bool {
        self.spill_cache(SearchServer::SPILL_CADENCE_MIN_INSERTIONS)
    }

    /// Returns whether a spill actually happened (so callers can trace
    /// only real writes, not clean-exit no-ops).
    fn spill_cache(&self, min_new_insertions: u64) -> bool {
        let (Some(path), Some(cache)) = (&self.cache_file, &self.cache) else { return false };
        let _guard = self.spill_lock.lock().expect("spill lock poisoned");
        let insertions = cache.stats().insertions;
        let since_last = insertions.saturating_sub(self.spilled_insertions.load(Ordering::Relaxed));
        if since_last < min_new_insertions.max(1) {
            return false;
        }
        self.spilled_insertions.store(insertions, Ordering::Relaxed);
        let spill_started = Instant::now();
        if let Err(e) = cachefile::write_cache_file(path, &cache.entries(), &self.config.faults) {
            // A failed spill (disk full, torn write) loses nothing but
            // warmth: the atomic-rename discipline keeps the previous
            // good file, and the next spill retries from scratch.
            self.spilled_insertions.store(insertions.saturating_sub(since_last), Ordering::Relaxed);
            digamma_obs::log::global().log(
                LogLevel::Warn,
                "server",
                None,
                "cache spill failed; previous spill file retained",
                &[("path", path.display().to_string()), ("err", e.to_string())],
            );
        }
        if self.metrics.enabled() {
            self.metrics
                .histogram(
                    "digamma_cache_spill_seconds",
                    "Wall time of fitness-memo disk spills (serialize + write).",
                    &[],
                    DEFAULT_LATENCY_BUCKETS,
                )
                .observe_duration(spill_started.elapsed());
        }
        true
    }

    /// The active configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Counters of the shared cache (`None` when running cache-less).
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Counters of the whole-genome memo (`None` when disabled).
    pub fn genome_memo_stats(&self) -> Option<CacheStats> {
        self.genome_memo.as_ref().map(|c| c.stats())
    }

    /// Runs one job inline on the calling thread (the worker body).
    pub fn run_job(&self, spec: &JobSpec) -> JobReport {
        self.run_job_controlled(spec, &JobControl::new())
    }

    /// Runs one job under external control: `control`'s progress sink is
    /// invoked at every generation boundary, and its cancellation flag
    /// stops the job cooperatively at the next boundary (snapshotting
    /// first when checkpointing is on, so the partial search is
    /// resumable and its best-so-far design survives in the report).
    pub fn run_job_controlled(&self, spec: &JobSpec, control: &JobControl) -> JobReport {
        let started = Instant::now();
        let meters = self.tenant_meters(&spec.tenant);
        let mut problem =
            CoOptProblem::new(spec.model.clone(), spec.platform.clone(), spec.objective);
        let view = self.cache.as_ref().map(|c| {
            Arc::new(JobCacheView::new(
                Arc::clone(c),
                Arc::clone(meters.layer(CacheLayer::Fitness)),
            ))
        });
        if let Some(view) = &view {
            problem = problem.with_cache(Arc::clone(view) as _);
        }
        let genome_view = self.genome_memo.as_ref().map(|m| {
            Arc::new(JobCacheView::new(Arc::clone(m), Arc::clone(meters.layer(CacheLayer::Genome))))
        });
        if let Some(genome_view) = &genome_view {
            problem = problem.with_genome_memo(Arc::clone(genome_view) as _);
        }

        // With tracing on and a claim span stamped on the control, the
        // whole run nests under it: one `job.run` span covering the
        // search, `job.generation`/`job.checkpoint`/`cache.spill`
        // children from the observer, and sampled eval spans from the
        // problem's `EvalTrace` — all tagged with the job id so they
        // share a Perfetto lane.
        let mut run_span = control.trace().map(|(job, parent)| {
            let mut span = self.tracer.start_child("job.run", parent);
            span.set_job(job);
            span.set_attr("name", spec.name.clone());
            span.set_attr("algorithm", spec.algorithm.to_string());
            span
        });
        let run_trace = match (run_span.as_ref().and_then(|s| s.context()), control.trace()) {
            (Some(ctx), Some((job, _))) => Some((job, ctx)),
            _ => None,
        };
        // Every evaluation — GA batch or baseline sample — feeds the
        // tenant's eval metrics and the run's spans, and hits the
        // `worker.eval` failpoint (disarmed by default: one relaxed load
        // per call).
        problem = problem.with_eval_hooks(EvalHooks {
            metrics: self
                .metrics
                .enabled()
                .then(|| EvalMetrics::for_tenant(&self.metrics, &spec.tenant)),
            trace: run_trace.map(|(job, ctx)| EvalTrace::new(self.tracer.clone(), ctx, job)),
            faults: Some(Arc::clone(&self.config.faults)),
        });

        let outcome = match spec.algorithm {
            JobAlgorithm::DiGamma => {
                let ga = DiGamma::new(DiGammaConfig {
                    population_size: spec.population_size,
                    seed: spec.seed,
                    threads: spec.threads,
                    ..Default::default()
                });
                self.drive_ga(spec, &ga, &problem, control, run_trace)
            }
            JobAlgorithm::Gamma(preset) => {
                let hw = preset.build(&spec.platform, problem.evaluator().area_model());
                let gamma = Gamma::new(GammaConfig {
                    population_size: spec.population_size,
                    seed: spec.seed,
                    threads: spec.threads,
                    ..Default::default()
                });
                // The constrained clone shares `problem`'s dedupe
                // counter, so the report below reads it transparently.
                let (constrained, ga) = gamma.searcher(&problem, &hw);
                self.drive_ga(spec, &ga, &constrained, control, run_trace)
            }
            JobAlgorithm::Baseline(alg) => {
                // Ask/tell baselines run to completion; cancellation is
                // only honoured before they start.
                if control.is_cancelled() {
                    GaOutcome::finished(
                        SearchResult { best: None, history: Vec::new(), samples: 0 },
                        true,
                    )
                } else {
                    GaOutcome::finished(run_algorithm(alg, &problem, spec.budget, spec.seed), false)
                }
            }
        };

        // The job just memoized its work; persist it so a restart keeps
        // it (cheap no-op when nothing new was inserted).
        self.spill_cache_if_dirty();

        if let Some(span) = &mut run_span {
            span.set_attr("generations", outcome.generations.to_string());
            span.set_attr("samples", outcome.result.samples.to_string());
            if outcome.cancelled {
                span.set_attr("cancelled", "true");
            }
        }
        drop(run_span);

        let cache = view.map_or_else(ProbeCounts::default, |v| v.counts());
        let genome = genome_view.map_or_else(ProbeCounts::default, |v| v.counts());
        JobReport {
            name: spec.name.clone(),
            algorithm: spec.algorithm.to_string(),
            best: outcome.result.best,
            samples: outcome.result.samples,
            generations: outcome.generations,
            resumed_at: outcome.resumed_at,
            cancelled: outcome.cancelled,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            cache_insertions: cache.stores,
            genome_hits: genome.hits,
            genome_misses: genome.misses,
            genome_insertions: genome.stores,
            dedup_skipped: problem.batch_dedup_skipped(),
            wall: started.elapsed(),
            queue_wait: Duration::ZERO,
            eval_wall: problem.eval_wall(),
            checkpoint_wall: outcome.checkpoint_wall,
        }
    }

    /// Steps a GA job to completion, checkpointing at the configured
    /// cadence and resuming from a surviving snapshot of the *same* job
    /// (identity checked by fingerprint; a stale or foreign snapshot is
    /// ignored and the search starts over). The checkpoint is removed
    /// when the job completes — but kept when the job is cancelled, so a
    /// cancelled search can resume later.
    fn drive_ga(
        &self,
        spec: &JobSpec,
        ga: &DiGamma,
        problem: &CoOptProblem,
        control: &JobControl,
        run_trace: Option<(u64, SpanContext)>,
    ) -> GaOutcome {
        let path = self.checkpoint_path(spec);
        let fingerprint = spec.fingerprint();
        let mut resumed_at = None;
        let restored = path
            .as_ref()
            .and_then(|p| std::fs::read_to_string(p).ok())
            .and_then(|text| Snapshot::parse(&text).ok())
            .and_then(|snap| snap.restore(ga, problem, &fingerprint).ok());
        let mut state = match restored {
            Some(state) => {
                resumed_at = Some(state.generation());
                state
            }
            None => ga.init(problem, spec.budget),
        };
        let every = spec.checkpoint_every.unwrap_or(self.config.checkpoint_every).max(1);
        let enabled = self.metrics.enabled();
        let mut observer = DriveObserver {
            server: self,
            path: path.as_deref(),
            fingerprint: &fingerprint,
            every,
            control,
            cancelled: false,
            checkpoint_wall: Duration::ZERO,
            checkpoint_seconds: enabled.then(|| {
                self.metrics.histogram(
                    "digamma_checkpoint_write_seconds",
                    "Wall time of snapshot writes (capture + render + write-then-rename).",
                    &[],
                    DEFAULT_LATENCY_BUCKETS,
                )
            }),
            generation_seconds: enabled.then(|| {
                self.metrics.histogram(
                    "digamma_generation_seconds",
                    "Wall time between GA generation boundaries.",
                    &[("tenant", &spec.tenant)],
                    DEFAULT_LATENCY_BUCKETS,
                )
            }),
            last_boundary: Instant::now(),
            run_trace,
            last_boundary_ns: self.tracer.now_ns(),
            analytics_seeded: false,
        };
        ga.run_observed(problem, &mut state, spec.budget, &mut observer);
        let cancelled = observer.cancelled;
        let checkpoint_wall = observer.checkpoint_wall;
        if !cancelled {
            if let Some(p) = &path {
                let _ = std::fs::remove_file(p);
            }
        }
        let generations = state.generation();
        GaOutcome {
            result: state.into_result(),
            generations,
            resumed_at,
            cancelled,
            checkpoint_wall,
        }
    }

    /// The snapshot file for a job, when checkpointing is on and the
    /// algorithm supports it. The filename is a readable sanitized
    /// prefix plus a stable hash of the *raw* name, so distinct job
    /// names that sanitize alike (`"exp 1"` / `"exp.1"`) can never
    /// share — and clobber — one checkpoint file.
    pub fn checkpoint_path(&self, spec: &JobSpec) -> Option<PathBuf> {
        if !spec.algorithm.supports_checkpointing() {
            return None;
        }
        let dir = self.config.checkpoint_dir.as_ref()?;
        let safe: String = spec
            .name
            .chars()
            .map(|c| if c.is_ascii_alphanumeric() || c == '-' || c == '_' { c } else { '-' })
            .collect();
        let mut hasher = digamma_costmodel::StableHasher::new();
        hasher.write_bytes(spec.name.as_bytes());
        Some(dir.join(format!("{safe}-{:08x}.snapshot", hasher.finish() as u32)))
    }
}

/// What [`SearchServer::drive_ga`] (or a baseline run) produced, plus
/// the timing the report breaks out.
struct GaOutcome {
    result: SearchResult,
    generations: u64,
    resumed_at: Option<u64>,
    cancelled: bool,
    checkpoint_wall: Duration,
}

impl GaOutcome {
    /// A non-GA outcome: no generations, no resume, no checkpoints.
    fn finished(result: SearchResult, cancelled: bool) -> GaOutcome {
        GaOutcome {
            result,
            generations: 0,
            resumed_at: None,
            cancelled,
            checkpoint_wall: Duration::ZERO,
        }
    }
}

/// The server's per-generation observer: streams progress, writes
/// checkpoints at the configured cadence (spilling the fitness memo on
/// the same beat), and honours cooperative cancellation (snapshotting
/// before stopping so the partial search survives). It also keeps the
/// job's checkpoint wall-clock total (for the report's timing
/// breakdown) and, with metrics on, feeds the generation-boundary and
/// checkpoint-write histograms.
struct DriveObserver<'a> {
    server: &'a SearchServer,
    path: Option<&'a std::path::Path>,
    fingerprint: &'a str,
    every: u64,
    control: &'a JobControl,
    cancelled: bool,
    checkpoint_wall: Duration,
    checkpoint_seconds: Option<Histogram>,
    generation_seconds: Option<Histogram>,
    last_boundary: Instant,
    /// The job id and run span the lifecycle spans nest under, when
    /// tracing is on for this job.
    run_trace: Option<(u64, SpanContext)>,
    /// Tracer-clock reading at the last generation boundary — the start
    /// of the next `job.generation` span.
    last_boundary_ns: u64,
    /// Whether the first analytics update (which carries the seed
    /// cost-point history) has been sent yet.
    analytics_seeded: bool,
}

impl DriveObserver<'_> {
    /// Records one completed lifecycle span under the run span,
    /// back-dated by its measured duration.
    fn record_span(
        &self,
        name: &'static str,
        elapsed: Duration,
        attrs: Vec<(&'static str, String)>,
    ) {
        let Some((job, parent)) = self.run_trace else { return };
        let tracer = self.server.tracer();
        let dur_ns = elapsed.as_nanos() as u64;
        tracer.record(SpanRecord {
            trace: parent.trace,
            span: tracer.span_id(),
            parent: Some(parent.span),
            name,
            job: Some(job),
            start_ns: tracer.now_ns().saturating_sub(dur_ns),
            dur_ns,
            attrs,
        });
    }

    /// Spills the fitness memo, tracing the write when one happens.
    fn spill(&self, at_cadence: bool) {
        let spill_started = Instant::now();
        let spilled = if at_cadence {
            self.server.spill_cache_at_cadence()
        } else {
            self.server.spill_cache(1)
        };
        if spilled {
            self.record_span("cache.spill", spill_started.elapsed(), Vec::new());
        }
    }

    fn snapshot(&mut self, state: &SearchState) {
        let Some(p) = self.path else { return };
        let write_started = Instant::now();
        let rendered = Snapshot::capture(self.fingerprint, state).render();
        // Write, fsync, then rename: a kill or power cut mid-write must
        // never destroy the previous good snapshot or promote a
        // half-written new one. Failures (including the injected
        // `snapshot.write` faults) keep the old snapshot and warn.
        let tmp = p.with_extension("snapshot.tmp");
        if let Err(e) = cachefile::persist_atomic(
            &tmp,
            p,
            rendered.as_bytes(),
            &self.server.config.faults,
            "snapshot.write",
        ) {
            digamma_obs::log::global().log(
                LogLevel::Warn,
                "server",
                None,
                "checkpoint write failed; previous snapshot retained",
                &[("path", p.display().to_string()), ("err", e.to_string())],
            );
        }
        let elapsed = write_started.elapsed();
        self.checkpoint_wall += elapsed;
        if let Some(h) = &self.checkpoint_seconds {
            h.observe_duration(elapsed);
        }
        self.record_span("job.checkpoint", elapsed, vec![("gen", state.generation().to_string())]);
    }
}

impl StepObserver for DriveObserver<'_> {
    fn on_generation(&mut self, state: &SearchState, budget: usize) -> StepAction {
        if let Some(h) = &self.generation_seconds {
            h.observe_duration(self.last_boundary.elapsed());
        }
        if let Some((job, parent)) = self.run_trace {
            let tracer = self.server.tracer();
            let now_ns = tracer.now_ns();
            tracer.record(SpanRecord {
                trace: parent.trace,
                span: tracer.span_id(),
                parent: Some(parent.span),
                name: "job.generation",
                job: Some(job),
                start_ns: self.last_boundary_ns,
                dur_ns: now_ns.saturating_sub(self.last_boundary_ns),
                attrs: vec![
                    ("gen", state.generation().to_string()),
                    ("samples", state.samples().to_string()),
                ],
            });
        }
        self.control.report(JobProgress {
            generation: state.generation(),
            samples: state.samples(),
            budget,
            best_cost: state.best_cost(),
        });
        if let Some(stats) = state.last_gen_stats() {
            let seed_points = (!self.analytics_seeded).then(|| state.cost_points().to_vec());
            self.analytics_seeded = true;
            self.control.report_analytics(AnalyticsUpdate {
                stats,
                ops: *state.op_counters(),
                seed_points,
            });
        }
        if self.control.is_cancelled() {
            self.snapshot(state);
            self.spill(false);
            self.cancelled = true;
            return StepAction::Stop;
        }
        if state.generation().is_multiple_of(self.every) {
            self.snapshot(state);
            self.spill(true);
        }
        self.last_boundary = Instant::now();
        self.last_boundary_ns = self.server.tracer().now_ns();
        StepAction::Continue
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma::Objective;
    use digamma_costmodel::Platform;
    use digamma_opt::Algorithm;
    use digamma_workload::zoo;

    fn spec(name: &str, algorithm: JobAlgorithm) -> JobSpec {
        let mut s = JobSpec::new(name, zoo::ncf(), Platform::edge(), Objective::Latency, algorithm);
        s.budget = 120;
        s.population_size = 12;
        s.seed = 5;
        s
    }

    #[test]
    fn shared_cache_reports_per_job_hits() {
        // Genome memo off: the per-layer cache is the first memo layer,
        // so elite re-evaluations hit it directly (the original
        // behaviour, still reachable by configuration).
        let server =
            SearchServer::new(ServerConfig { genome_cache_capacity: 0, ..Default::default() });
        // The same search twice: the second run should hit constantly.
        let reports = [
            server.run_job(&spec("first", JobAlgorithm::DiGamma)),
            server.run_job(&spec("again", JobAlgorithm::DiGamma)),
        ];
        assert!(reports[0].cache_hits > 0, "elite re-evaluation hits within one search");
        assert!(
            reports[1].cache_hit_rate() > reports[0].cache_hit_rate(),
            "a repeated search reuses the first one's entries: {} vs {}",
            reports[1].cache_hit_rate(),
            reports[0].cache_hit_rate()
        );
        assert_eq!(reports[0].genome_hits + reports[1].genome_hits, 0, "memo disabled");
        let stats = server.cache_stats().expect("cache enabled");
        assert_eq!(stats.hits, reports[0].cache_hits + reports[1].cache_hits);
    }

    #[test]
    fn genome_memo_absorbs_recurring_genomes_above_the_layer_cache() {
        let server = SearchServer::new(ServerConfig::default());
        let reports = [
            server.run_job(&spec("first", JobAlgorithm::DiGamma)),
            server.run_job(&spec("again", JobAlgorithm::DiGamma)),
        ];
        // Within one search, elites recur every generation: the genome
        // layer catches them before any per-layer work happens.
        assert!(reports[0].genome_hits > 0, "elites must hit the genome memo");
        // The second job is byte-identical (same model/seed/budget), so
        // its deterministic trajectory revisits only genomes the first
        // job memoized: every single lookup hits.
        assert_eq!(reports[1].genome_misses, 0, "identical rerun must be all genome hits");
        assert!(reports[1].genome_hits >= reports[1].samples as u64);
        assert!((reports[1].genome_hit_rate() - 1.0).abs() < 1e-12);
        // And identical results, of course.
        assert_eq!(
            reports[0].best.as_ref().map(|b| b.cost.to_bits()),
            reports[1].best.as_ref().map(|b| b.cost.to_bits()),
        );
        let stats = server.genome_memo_stats().expect("genome memo enabled");
        assert_eq!(stats.hits, reports[0].genome_hits + reports[1].genome_hits);
    }

    #[test]
    fn fitness_memo_spills_and_warm_starts_across_server_lives() {
        let dir = std::env::temp_dir().join(format!("digamma-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let config = ServerConfig {
            workers: 1,
            checkpoint_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };

        let first_life = SearchServer::new(config.clone());
        let r1 = first_life.run_job(&spec("life1", JobAlgorithm::DiGamma));
        assert!(r1.cache_misses > 0, "a cold cache must miss");
        let resident = first_life.cache_stats().unwrap().entries;
        drop(first_life);
        let spill = dir.join("fitness-memo.cache");
        assert!(spill.exists(), "job completion must spill the memo");

        // Second life: the memo warm-starts from disk, so the identical
        // search (fresh genome memo, deterministic trajectory) re-probes
        // exactly the keys the first life stored — zero misses.
        let second_life = SearchServer::new(config);
        let loaded = second_life.cache_stats().unwrap().entries;
        assert_eq!(loaded, resident, "every spilled entry must reload");
        let r2 = second_life.run_job(&spec("life2", JobAlgorithm::DiGamma));
        assert!(r2.cache_hits > 0, "warm cache must serve the rerun");
        assert_eq!(r2.cache_misses, 0, "identical rerun on a warm cache misses nothing");
        assert_eq!(
            r1.best.as_ref().map(|b| b.cost.to_bits()),
            r2.best.as_ref().map(|b| b.cost.to_bits()),
            "replayed reports must not change results"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn cacheless_server_still_searches() {
        let server =
            SearchServer::new(ServerConfig { workers: 1, cache_capacity: 0, ..Default::default() });
        let report = server.run_job(&spec("raw", JobAlgorithm::DiGamma));
        assert!(report.best.is_some());
        assert_eq!(report.cache_hits + report.cache_misses, 0);
        assert!(server.cache_stats().is_none());
    }

    #[test]
    fn checkpoint_paths_sanitize_names() {
        let server = SearchServer::new(ServerConfig {
            checkpoint_dir: Some(PathBuf::from("/tmp/ckpt")),
            ..Default::default()
        });
        let s = spec("a job/with weird:name", JobAlgorithm::DiGamma);
        let path = server.checkpoint_path(&s).unwrap();
        let file = path.file_name().unwrap().to_str().unwrap();
        assert!(file.starts_with("a-job-with-weird-name-"), "{file}");
        assert!(file.ends_with(".snapshot"), "{file}");
        let baseline = spec("b", JobAlgorithm::Baseline(Algorithm::Cma));
        assert!(server.checkpoint_path(&baseline).is_none());
    }

    #[test]
    fn distinct_names_never_share_a_checkpoint_file() {
        // "exp 1" and "exp.1" sanitize to the same prefix; the raw-name
        // hash keeps their snapshot files apart.
        let server = SearchServer::new(ServerConfig {
            checkpoint_dir: Some(PathBuf::from("/tmp/ckpt")),
            ..Default::default()
        });
        let a = server.checkpoint_path(&spec("exp 1", JobAlgorithm::DiGamma)).unwrap();
        let b = server.checkpoint_path(&spec("exp.1", JobAlgorithm::DiGamma)).unwrap();
        assert_ne!(a, b);
        // Same name → same path across server instances (resume relies
        // on it).
        let again = server.checkpoint_path(&spec("exp 1", JobAlgorithm::DiGamma)).unwrap();
        assert_eq!(a, again);
    }
}
