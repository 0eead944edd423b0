//! The co-optimization problem: the evaluation block of Fig. 3(a).

use crate::objective::Objective;
use digamma_costmodel::{
    EvalError, Evaluator, HwConfig, LayerCost, Mapping, Platform, StableHasher,
};
use digamma_encoding::Genome;
use digamma_obs::{
    Counter, FailAction, FailSet, Histogram, MetricsRegistry, SampleTick, SpanContext, SpanRecord,
    Tracer, DEFAULT_LATENCY_BUCKETS,
};
use digamma_workload::{LayerKind, Model, UniqueLayer};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-evaluation latency is sampled 1-in-N rather than timed on every
/// call: a scratch eval runs in ~450ns (see `BENCH_eval.json`), so two
/// clock reads per eval would distort the very number being measured.
/// 64 keeps the whole instrumented delta under the harness's 3%
/// overhead budget while a smoke-sized job (≈100 evals) still lands a
/// couple of observations.
const EVAL_LATENCY_SAMPLE_EVERY: u64 = 64;

/// Metric handles for the evaluation hot path, registered once per job
/// (labelled by tenant) and shared by every clone of the problem.
///
/// All handles are pre-resolved atomics, so the instrumented path adds
/// a handful of relaxed atomic ops per *call* plus one relaxed
/// `fetch_add` per distinct evaluation; wall-clock reads for the
/// per-eval latency histogram are sampled (see
/// [`EvalMetrics::for_tenant`]). A problem without attached metrics
/// pays nothing beyond one branch per call.
#[derive(Debug)]
pub struct EvalMetrics {
    evals: Counter,
    eval_seconds: Histogram,
    batch_seconds: Histogram,
    dedup_skipped: Counter,
    sample: SampleTick,
}

impl EvalMetrics {
    /// Registers (or re-resolves) the eval-path metric family for one
    /// tenant: `digamma_evals_total`, `digamma_eval_seconds` (sampled
    /// 1-in-64), `digamma_eval_batch_seconds`, and
    /// `digamma_eval_dedup_skipped_total`. Cache traffic is not counted
    /// here: every probe passes through the attached [`EvalCache`] /
    /// [`GenomeMemo`], so the memo implementation meters its own probes
    /// (the server's per-job cache views feed
    /// `digamma_cache_probes_total` and
    /// `digamma_genome_memo_probes_total`).
    #[must_use]
    pub fn for_tenant(registry: &MetricsRegistry, tenant: &str) -> EvalMetrics {
        let t = [("tenant", tenant)];
        EvalMetrics {
            evals: registry.counter(
                "digamma_evals_total",
                "Distinct per-layer cost-model evaluations performed (after batch dedupe).",
                &t,
            ),
            eval_seconds: registry.histogram(
                "digamma_eval_seconds",
                "Per-layer cost-model evaluation latency, sampled 1 in 64 evaluations \
                 so the ~450ns hot path is not distorted by timing it.",
                &t,
                DEFAULT_LATENCY_BUCKETS,
            ),
            batch_seconds: registry.histogram(
                "digamma_eval_batch_seconds",
                "Wall time of whole evaluation calls (one per evaluate/evaluate_batch call).",
                &t,
                DEFAULT_LATENCY_BUCKETS,
            ),
            dedup_skipped: registry.counter(
                "digamma_eval_dedup_skipped_total",
                "Identical (layer, mapping) evaluations skipped by batch-local dedupe.",
                &t,
            ),
            sample: SampleTick::new(EVAL_LATENCY_SAMPLE_EVERY),
        }
    }
}

/// Span handles for the evaluation hot path, attached by the server
/// when tracing is enabled for a job. The same sampling discipline as
/// [`EvalMetrics`]: individual eval spans are recorded 1-in-64 (the
/// ~450ns hot path must not be dominated by clock reads and span
/// bookkeeping), while whole-batch spans — one per `evaluate` /
/// `evaluate_batch` call — are recorded every call. All spans nest
/// under the job's run span and carry its job id, so they land in the
/// job's Perfetto lane.
#[derive(Debug)]
pub struct EvalTrace {
    tracer: Tracer,
    parent: SpanContext,
    job: u64,
    sample: SampleTick,
}

impl EvalTrace {
    /// Builds span handles parented under `parent` (a job's run span)
    /// and tagged with `job`.
    #[must_use]
    pub fn new(tracer: Tracer, parent: SpanContext, job: u64) -> EvalTrace {
        EvalTrace { tracer, parent, job, sample: SampleTick::new(EVAL_LATENCY_SAMPLE_EVERY) }
    }

    /// Records one sampled per-layer eval span, back-dated by its
    /// measured duration.
    fn record_eval(&self, layer: usize, elapsed: Duration) {
        let dur_ns = elapsed.as_nanos() as u64;
        self.tracer.record(SpanRecord {
            trace: self.parent.trace,
            span: self.tracer.span_id(),
            parent: Some(self.parent.span),
            name: "eval.layer",
            job: Some(self.job),
            start_ns: self.tracer.now_ns().saturating_sub(dur_ns),
            dur_ns,
            attrs: vec![("layer", layer.to_string())],
        });
    }

    /// Records one whole-batch eval span (one per `evaluate` /
    /// `evaluate_batch` call), back-dated by its measured duration.
    fn record_batch(&self, genomes: usize, distinct_evals: usize, elapsed: Duration) {
        let dur_ns = elapsed.as_nanos() as u64;
        self.tracer.record(SpanRecord {
            trace: self.parent.trace,
            span: self.tracer.span_id(),
            parent: Some(self.parent.span),
            name: "eval.batch",
            job: Some(self.job),
            start_ns: self.tracer.now_ns().saturating_sub(dur_ns),
            dur_ns,
            attrs: vec![
                ("genomes", genomes.to_string()),
                ("distinct_evals", distinct_evals.to_string()),
            ],
        });
    }
}

/// The optional hooks on the evaluation hot path, attached together by
/// [`CoOptProblem::with_eval_hooks`] and shared by every clone of the
/// problem. The default (all `None`) is a bare problem. With neither
/// metric nor span handles, per-layer evaluations run the bare closure
/// whether or not a failpoint set is attached.
#[derive(Debug, Default)]
pub struct EvalHooks {
    /// Tenant-labelled metric handles; attached by the server when its
    /// registry is enabled.
    pub metrics: Option<EvalMetrics>,
    /// Span handles parented under the job's run span; attached by the
    /// server when tracing is enabled.
    pub trace: Option<EvalTrace>,
    /// Failpoint set consulted once per [`CoOptProblem::evaluate`] /
    /// [`CoOptProblem::evaluate_batch`] call (the `worker.eval` point):
    /// a [`FailAction::Panic`] firing panics the call — the injected
    /// "worker dies mid-search" fault the registry must catch. Disarmed,
    /// the hit costs one relaxed atomic load per call.
    pub faults: Option<Arc<FailSet>>,
}

/// Base cost assigned to infeasible designs (the paper's "negative
/// fitness"); scaled by the constraint overshoot so the search still sees
/// a gradient toward feasibility.
pub(crate) const INFEASIBLE_COST: f64 = 1e18;

/// Optional design constraint restricting the search space (Sec. III-B).
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// Full co-optimization: both HW and mapping are free.
    None,
    /// Fixed-HW use-case: the hardware is given; only mappings are
    /// searched and they must fit the given buffers and PE array.
    FixedHw(HwConfig),
}

/// A shared, thread-safe memo for per-layer cost-model results.
///
/// Implementations map the stable key from
/// [`Evaluator::cache_key`](digamma_costmodel::Evaluator::cache_key) to
/// the [`LayerCost`] that evaluation produced. A hit must return a value
/// identical to what the cost model would compute — evaluation is pure,
/// so storing and replaying it is semantics-preserving; the
/// `digamma-server` crate's sharded fitness cache is the production
/// implementation and property-tests exactly that equivalence.
pub trait EvalCache: std::fmt::Debug + Send + Sync {
    /// Returns the memoized cost for `key`, if present.
    fn lookup(&self, key: u64) -> Option<LayerCost>;
    /// Memoizes `cost` under `key` (implementations may evict).
    fn store(&self, key: u64, cost: LayerCost);
}

/// A shared, thread-safe memo for **whole-genome** evaluations: the
/// second memo layer above the per-layer [`EvalCache`].
///
/// Elites survive generations unchanged, crossover re-creates recent
/// parents, and resubmitted jobs re-score entire populations — the
/// batch-local dedupe counters show whole genomes recur constantly. A
/// genome-memo hit skips the decode → per-layer-evaluate → aggregate
/// pipeline entirely, returning the finished [`DesignEvaluation`].
///
/// Keys come from [`CoOptProblem::genome_key`], which hashes everything
/// the evaluation reads (model constants, budget, objective, constraint,
/// layer shapes, and every gene), so equal keys guarantee identical
/// evaluations; storing and replaying them is semantics-preserving. The
/// `digamma-server` crate's `ShardedGenomeMemo` is the production
/// implementation.
pub trait GenomeMemo: std::fmt::Debug + Send + Sync {
    /// Returns the memoized evaluation for `key`, if present.
    fn lookup(&self, key: u64) -> Option<Arc<DesignEvaluation>>;
    /// Memoizes `evaluation` under `key` (implementations may evict).
    fn store(&self, key: u64, evaluation: &Arc<DesignEvaluation>);
}

/// The outcome of evaluating one design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignEvaluation {
    /// Scalar cost the optimizer minimizes (lower is better; designs
    /// violating the constraint receive a large penalty cost ≥ 1e18
    /// scaled by the overshoot).
    pub cost: f64,
    /// Whether the design satisfies the area budget / fixed-HW constraint.
    pub feasible: bool,
    /// Total model latency in cycles (valid even for infeasible designs).
    pub latency_cycles: f64,
    /// Total model energy in pJ.
    pub energy_pj: f64,
    /// Area of the (derived or fixed) hardware in µm².
    pub area_um2: f64,
    /// PE-only area in µm².
    pub pe_area_um2: f64,
    /// The hardware configuration backing this design.
    pub hw: HwConfig,
}

/// A `(model, platform, objective, constraint)` bundle that scores
/// genomes. This is the generic interface the paper exposes to *any*
/// optimization algorithm (Sec. III-B1).
#[derive(Debug, Clone)]
pub struct CoOptProblem {
    model: Model,
    unique: Vec<UniqueLayer>,
    evaluator: Evaluator,
    objective: Objective,
    constraint: Constraint,
    num_levels: usize,
    cache: Option<Arc<dyn EvalCache>>,
    genome_memo: Option<Arc<dyn GenomeMemo>>,
    /// The problem-identity prefix of [`CoOptProblem::genome_key`],
    /// hashed once here (and re-hashed by [`CoOptProblem::with_constraint`])
    /// instead of per genome — on the memoized hot path only the genes
    /// remain to hash.
    genome_key_prefix: StableHasher,
    /// Identical `(layer shape, mapping)` evaluations skipped by the
    /// batch-local dedupe map (shared across clones of this problem, so a
    /// server's per-job problem copies report one total).
    batch_dedup_skipped: Arc<AtomicU64>,
    /// Wall-clock nanoseconds spent inside [`CoOptProblem::evaluate_batch`]
    /// (and so [`CoOptProblem::evaluate`]), shared across clones like the
    /// dedupe counter — a job's timing breakdown reads one total even
    /// when the search uses constrained problem copies.
    eval_wall_ns: Arc<AtomicU64>,
    /// Metric, span and failpoint hooks (see [`EvalHooks`]).
    hooks: Arc<EvalHooks>,
}

/// One genome the genome memo could not answer, decoded for the
/// per-layer pipeline of [`CoOptProblem::evaluate_batch`].
struct Miss<'a> {
    /// Position in the batch.
    index: usize,
    /// Its genome-memo key, when a memo is attached.
    memo_key: Option<u64>,
    /// Its fan-outs under the active constraint.
    fanouts: &'a [u64],
    /// Its decoded per-unique-layer mappings.
    mappings: Vec<Mapping>,
}

impl CoOptProblem {
    /// Creates an unconstrained co-optimization problem with 2 cluster
    /// levels (the paper's default encoding).
    pub fn new(model: Model, platform: Platform, objective: Objective) -> CoOptProblem {
        let unique = model.unique_layers();
        let evaluator = Evaluator::new(platform);
        let constraint = Constraint::None;
        let genome_key_prefix =
            Self::compute_genome_key_prefix(&evaluator, objective, &constraint, &unique);
        CoOptProblem {
            model,
            unique,
            evaluator,
            objective,
            constraint,
            num_levels: 2,
            cache: None,
            genome_memo: None,
            genome_key_prefix,
            batch_dedup_skipped: Arc::new(AtomicU64::new(0)),
            eval_wall_ns: Arc::new(AtomicU64::new(0)),
            hooks: Arc::default(),
        }
    }

    /// Restricts the search with a design constraint.
    pub fn with_constraint(mut self, constraint: Constraint) -> CoOptProblem {
        self.constraint = constraint;
        self.genome_key_prefix = Self::compute_genome_key_prefix(
            &self.evaluator,
            self.objective,
            &self.constraint,
            &self.unique,
        );
        self
    }

    /// Attaches a shared fitness memo: per-layer evaluations whose key is
    /// already cached skip the cost model entirely. The cache may be
    /// shared across problems, searches, and threads.
    pub fn with_cache(mut self, cache: Arc<dyn EvalCache>) -> CoOptProblem {
        self.cache = Some(cache);
        self
    }

    /// Detaches any attached fitness memo.
    pub fn without_cache(mut self) -> CoOptProblem {
        self.cache = None;
        self
    }

    /// The attached fitness memo, if any.
    pub fn cache(&self) -> Option<&Arc<dyn EvalCache>> {
        self.cache.as_ref()
    }

    /// Attaches a whole-genome memo (the layer above the per-layer
    /// cache): genomes whose [`CoOptProblem::genome_key`] is already
    /// memoized skip decoding and per-layer evaluation entirely.
    pub fn with_genome_memo(mut self, memo: Arc<dyn GenomeMemo>) -> CoOptProblem {
        self.genome_memo = Some(memo);
        self
    }

    /// Detaches any attached genome memo.
    pub fn without_genome_memo(mut self) -> CoOptProblem {
        self.genome_memo = None;
        self
    }

    /// The attached genome memo, if any.
    pub fn genome_memo(&self) -> Option<&Arc<dyn GenomeMemo>> {
        self.genome_memo.as_ref()
    }

    /// Attaches the evaluation hooks (metrics, spans, failpoints),
    /// replacing any attached before. Shared by every clone of this
    /// problem, like the cache and dedupe counter.
    pub fn with_eval_hooks(mut self, hooks: EvalHooks) -> CoOptProblem {
        self.hooks = Arc::new(hooks);
        self
    }

    /// The attached evaluation hooks.
    pub fn eval_hooks(&self) -> &EvalHooks {
        &self.hooks
    }

    /// Total wall time spent inside [`CoOptProblem::evaluate_batch`]
    /// (and so [`CoOptProblem::evaluate`]) across all clones of this
    /// problem — the "eval" slice of a job's timing breakdown.
    pub fn eval_wall(&self) -> Duration {
        Duration::from_nanos(self.eval_wall_ns.load(Ordering::Relaxed))
    }

    /// Sets the number of cluster levels genomes use (2 or 3).
    ///
    /// # Panics
    ///
    /// Panics if `num_levels` is not 1, 2, or 3.
    pub fn with_num_levels(mut self, num_levels: usize) -> CoOptProblem {
        assert!((1..=3).contains(&num_levels), "supported level counts: 1..=3");
        self.num_levels = num_levels;
        self
    }

    /// The target model.
    pub fn model(&self) -> &Model {
        &self.model
    }

    /// The model's deduplicated layers (the genome's mapping granularity).
    pub fn unique_layers(&self) -> &[UniqueLayer] {
        &self.unique
    }

    /// The platform envelope (budget, bandwidths).
    pub fn platform(&self) -> &Platform {
        self.evaluator.platform()
    }

    /// The cost-model evaluator.
    pub fn evaluator(&self) -> &Evaluator {
        &self.evaluator
    }

    /// The search objective.
    pub fn objective(&self) -> Objective {
        self.objective
    }

    /// The active constraint.
    pub fn constraint(&self) -> &Constraint {
        &self.constraint
    }

    /// Number of cluster levels genomes must carry.
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// The genome's hardware fan-outs after applying the constraint
    /// (Fixed-HW pins them to the given array shape). Borrowed — neither
    /// path clones anything.
    fn effective_fanouts<'a>(&'a self, genome: &'a Genome) -> &'a [u64] {
        match &self.constraint {
            Constraint::None => &genome.fanouts,
            Constraint::FixedHw(hw) => &hw.fanouts,
        }
    }

    /// Decodes a genome under the active constraint without cloning the
    /// genome to override fields: `Constraint::None` decodes in place,
    /// and Fixed-HW threads the pinned fan-outs straight into the
    /// decoder.
    fn decode_effective<'a>(&'a self, genome: &'a Genome) -> (&'a [u64], Vec<Mapping>) {
        let fanouts = self.effective_fanouts(genome);
        (fanouts, genome.decode_with_fanouts(&self.unique, fanouts))
    }

    /// Scores a genome: the full evaluation block (decode → cost model →
    /// buffer allocation → constraint check), short-circuited by the
    /// genome memo when one is attached and already holds this genome.
    /// It is a batch of one: [`CoOptProblem::evaluate_batch`]'s pipeline,
    /// hooks included.
    ///
    /// Structurally invalid genomes (which repair should have prevented)
    /// are treated as maximally infeasible rather than panicking.
    pub fn evaluate(&self, genome: &Genome) -> DesignEvaluation {
        self.evaluate_batch(std::slice::from_ref(genome), 1)
            .pop()
            .expect("a batch of one yields one evaluation")
    }

    /// The maximally-infeasible evaluation assigned to structurally
    /// invalid genomes (which repair should have prevented).
    fn invalid_evaluation(fanouts: Vec<u64>) -> DesignEvaluation {
        DesignEvaluation {
            cost: INFEASIBLE_COST * 10.0,
            feasible: false,
            latency_cycles: f64::INFINITY,
            energy_pj: f64::INFINITY,
            area_um2: f64::INFINITY,
            pe_area_um2: f64::INFINITY,
            hw: HwConfig { fanouts, l2_words: 0, mid_words_per_unit: vec![], l1_words_per_pe: 0 },
        }
    }

    /// Scores a whole batch of genomes (a GA population), deduplicating
    /// identical `(layer shape, mapping)` evaluations *within the batch*
    /// before they reach the cache or the cost model.
    ///
    /// Elites survive generations unchanged and crossover children
    /// inherit whole per-layer gene sets from surviving parents, so one
    /// generation's batch re-states many identical per-layer evaluations
    /// — on deep CNNs (many unique shapes, few mutated per child) most of
    /// a child's layers duplicate an elite's. A batch-local map collapses
    /// each distinct key to one evaluation (and one shared-cache probe),
    /// and [`CoOptProblem::batch_dedup_skipped`] counts the skips.
    ///
    /// Results are identical to decoding each genome and scoring it with
    /// [`CoOptProblem::evaluate_mappings`], in order, for any `threads`
    /// value — evaluation is pure, so deduplication is
    /// semantics-preserving.
    pub fn evaluate_batch(&self, genomes: &[Genome], threads: usize) -> Vec<DesignEvaluation> {
        let hooks = &*self.hooks;
        if let Some(faults) = &hooks.faults {
            if faults.fired("worker.eval") == Some(FailAction::Panic) {
                panic!("injected panic at failpoint \"worker.eval\"");
            }
        }
        let started = Instant::now();

        // Layer 0: the genome memo. Hits skip decoding entirely; each miss
        // is decoded once (no genome clones: the constraint's fan-outs
        // thread straight into the decoder) for the per-layer pipeline.
        let mut out: Vec<Option<DesignEvaluation>> = Vec::with_capacity(genomes.len());
        let mut misses: Vec<Miss<'_>> = Vec::new();
        for (index, genome) in genomes.iter().enumerate() {
            let memo_key = match &self.genome_memo {
                Some(memo) => {
                    let key = self.genome_key(genome);
                    if let Some(hit) = memo.lookup(key) {
                        out.push(Some((*hit).clone()));
                        continue;
                    }
                    Some(key)
                }
                None => None,
            };
            let (fanouts, mappings) = self.decode_effective(genome);
            misses.push(Miss { index, memo_key, fanouts, mappings });
            out.push(None);
        }
        let distinct =
            if misses.is_empty() { 0 } else { self.evaluate_misses(&misses, threads, &mut out) };

        let elapsed = started.elapsed();
        self.eval_wall_ns.fetch_add(elapsed.as_nanos() as u64, Ordering::Relaxed);
        if let Some(m) = &hooks.metrics {
            m.batch_seconds.observe_duration(elapsed);
        }
        if let Some(t) = &hooks.trace {
            t.record_batch(genomes.len(), distinct, elapsed);
        }
        out.into_iter().map(|e| e.expect("every genome evaluated")).collect()
    }

    /// The per-layer pipeline of [`CoOptProblem::evaluate_batch`] below
    /// the genome memo: scores every miss into `out[miss.index]` (and
    /// the memo), returning the number of distinct per-layer evaluations.
    fn evaluate_misses(
        &self,
        misses: &[Miss<'_>],
        threads: usize,
        out: &mut [Option<DesignEvaluation>],
    ) -> usize {
        let hooks = &*self.hooks;

        // Layer 1: batch-local dedupe. The first occurrence of a key
        // claims a work slot and repeats reuse it; `layout` holds every
        // miss's per-layer slots back to back. A key is computed at most
        // once per `(layer, mapping)` and rides along to the cache probe.
        // One genome cannot repeat a key (unique layers have distinct
        // shapes), so a lone miss skips this layer: its layers are its
        // work, and the cache probe computes their keys only when a
        // cache exists.
        let layers = self.unique.len();
        let lone = misses.len() == 1;
        let mut work: Vec<(usize, &Mapping, u64)> = Vec::new();
        let mut layout: Vec<usize> = Vec::new();
        if !lone {
            let mut slots: HashMap<u64, usize> = HashMap::new();
            layout.reserve(misses.len() * layers);
            for miss in misses {
                for (li, mapping) in miss.mappings.iter().enumerate() {
                    let key = self.evaluator.cache_key(&self.unique[li].layer, mapping);
                    layout.push(*slots.entry(key).or_insert_with(|| {
                        work.push((li, mapping, key));
                        work.len() - 1
                    }));
                }
            }
        }
        let skipped = (layout.len() - work.len()) as u64;
        if skipped > 0 {
            self.batch_dedup_skipped.fetch_add(skipped, Ordering::Relaxed);
        }

        // Layer 2: only distinct evaluations run (and probe the attached
        // shared per-layer cache, when there is one). With metrics or
        // tracing attached, per-eval latency is observed on independent
        // 1-in-64 samples so the clock reads stay off the common path;
        // fully uninstrumented problems take the bare arm.
        let results = match (&hooks.metrics, &hooks.trace) {
            (None, None) => Self::run_work(misses, &work, threads, |li, mapping, key| {
                self.evaluate_layer(li, mapping, key).ok()
            }),
            (metrics, trace) => Self::run_work(misses, &work, threads, |li, mapping, key| {
                let sample_metrics = metrics.as_ref().is_some_and(|m| m.sample.due());
                let sample_trace = trace.as_ref().is_some_and(|t| t.sample.due());
                if sample_metrics || sample_trace {
                    let eval_started = Instant::now();
                    let result = self.evaluate_layer(li, mapping, key);
                    let elapsed = eval_started.elapsed();
                    if sample_metrics {
                        if let Some(m) = metrics {
                            m.eval_seconds.observe_duration(elapsed);
                        }
                    }
                    if sample_trace {
                        if let Some(t) = trace {
                            t.record_eval(li, elapsed);
                        }
                    }
                    result.ok()
                } else {
                    self.evaluate_layer(li, mapping, key).ok()
                }
            }),
        };
        if let Some(m) = &hooks.metrics {
            m.dedup_skipped.add(skipped);
            m.evals.add(results.len() as u64);
        }

        // Layer 3: aggregate each miss from its slots' costs. A slot
        // without a cost (its layer failed, or a lone miss stopped
        // before it) makes the genome invalid.
        let cost = |flat: usize| {
            let slot = if lone { flat } else { layout[flat] };
            results.get(slot).copied().flatten()
        };
        for (mi, miss) in misses.iter().enumerate() {
            let per_genome = mi * layers..(mi + 1) * layers;
            let evaluation = if per_genome.clone().all(|flat| cost(flat).is_some()) {
                self.aggregate(miss.fanouts, &miss.mappings, per_genome.filter_map(cost))
            } else {
                Self::invalid_evaluation(miss.fanouts.to_vec())
            };
            if let (Some(memo), Some(key)) = (&self.genome_memo, miss.memo_key) {
                memo.store(key, &Arc::new(evaluation.clone()));
            }
            out[miss.index] = Some(evaluation);
        }
        results.len()
    }

    /// Runs `eval` (`None` marks a failed layer): a lone miss's layers
    /// in order on the calling thread, up to the first failure, since
    /// the genome is invalid then and nothing consumes the rest; a
    /// batch's deduplicated `work`, fanned out across `threads`.
    fn run_work(
        misses: &[Miss<'_>],
        work: &[(usize, &Mapping, u64)],
        threads: usize,
        eval: impl Fn(usize, &Mapping, Option<u64>) -> Option<LayerCost> + Sync,
    ) -> Vec<Option<LayerCost>> {
        match misses {
            [lone] => {
                let mut results = Vec::with_capacity(lone.mappings.len());
                results.extend(
                    lone.mappings
                        .iter()
                        .enumerate()
                        .map(|(li, mapping)| eval(li, mapping, None))
                        .take_while(Option::is_some),
                );
                results
            }
            _ => crate::parallel::parallel_map(work, threads, |&(li, mapping, key)| {
                eval(li, mapping, Some(key))
            }),
        }
    }

    /// Identical `(layer shape, mapping)` evaluations skipped so far by
    /// [`CoOptProblem::evaluate_batch`]'s batch-local dedupe map. The
    /// counter is shared across clones of this problem.
    pub fn batch_dedup_skipped(&self) -> u64 {
        self.batch_dedup_skipped.load(Ordering::Relaxed)
    }

    /// Stable memo key for a whole-genome evaluation on this problem.
    ///
    /// Follows the FNV discipline of [`digamma_costmodel::cachekey`]
    /// (process- and seed-independent, versioned through `KEY_VERSION`
    /// via [`StableHasher::new`]): two keys are equal only when
    /// [`CoOptProblem::evaluate`] is guaranteed to return an identical
    /// [`DesignEvaluation`]. The key therefore covers
    ///
    /// * every cost-model constant the evaluator reads (bandwidths,
    ///   area/energy coefficients),
    /// * the platform's area budget (it decides feasibility and the
    ///   penalty gradient),
    /// * the objective and the constraint (a Fixed-HW config hashes all
    ///   its fields),
    /// * each unique layer's kind, extents, stride, and multiplicity
    ///   (names are excluded, like the per-layer key), and
    /// * every gene: fan-outs, and per layer per level the spatial dim,
    ///   loop order, and tile extents.
    ///
    /// A domain tag separates this key space from the per-layer one, so
    /// the same `u64` can never mean both.
    ///
    /// The problem-identity prefix (everything except the genes) is
    /// hashed once at construction — per call only the genome's genes
    /// are fed in, keeping key computation cheap on the memoized path.
    pub fn genome_key(&self, genome: &Genome) -> u64 {
        let mut h = self.genome_key_prefix.clone();
        h.write_u64(genome.fanouts.len() as u64);
        for &f in &genome.fanouts {
            h.write_u64(f);
        }
        for lg in &genome.layers {
            h.write_u64(lg.levels.len() as u64);
            for level in &lg.levels {
                // The spatial dim and loop order, one nibble per dim, go
                // in as one word: the memo-hit path is mostly this hash.
                let dims = level
                    .order
                    .iter()
                    .fold(level.spatial_dim.index() as u64, |acc, d| acc << 4 | d.index() as u64);
                h.write_u64(dims);
                for (_, t) in level.tile.iter() {
                    h.write_u64(t);
                }
            }
        }
        h.finish()
    }

    /// Hashes the problem-identity prefix of [`CoOptProblem::genome_key`]:
    /// the cost-model constants, area budget, objective, constraint, and
    /// every unique layer's shape and multiplicity.
    fn compute_genome_key_prefix(
        evaluator: &Evaluator,
        objective: Objective,
        constraint: &Constraint,
        unique: &[UniqueLayer],
    ) -> StableHasher {
        /// Domain separator ("genome" in ASCII), so genome keys and
        /// per-layer keys can never alias even under one `HashMap`.
        const GENOME_KEY_DOMAIN: u64 = 0x67656e_6f6d65;
        let mut h = StableHasher::new();
        h.write_u64(GENOME_KEY_DOMAIN);
        evaluator.write_model_constants(&mut h);
        h.write_f64(evaluator.platform().area_budget_um2);
        h.write_u64(match objective {
            Objective::Latency => 0,
            Objective::Energy => 1,
            Objective::Edp => 2,
        });
        match constraint {
            Constraint::None => h.write_u64(0),
            Constraint::FixedHw(hw) => {
                h.write_u64(1);
                h.write_u64(hw.fanouts.len() as u64);
                for &f in &hw.fanouts {
                    h.write_u64(f);
                }
                h.write_u64(hw.l2_words);
                h.write_u64(hw.mid_words_per_unit.len() as u64);
                for &m in &hw.mid_words_per_unit {
                    h.write_u64(m);
                }
                h.write_u64(hw.l1_words_per_pe);
            }
        }
        h.write_u64(unique.len() as u64);
        for u in unique {
            h.write_u64(match u.layer.kind() {
                LayerKind::Conv => 0,
                LayerKind::DepthwiseConv => 1,
                LayerKind::Gemm => 2,
            });
            for (_, extent) in u.layer.dims().iter() {
                h.write_u64(extent);
            }
            h.write_u64(u.layer.stride());
            h.write_u64(u.count);
        }
        h
    }

    /// Scores explicit per-unique-layer mappings on the given PE array.
    ///
    /// This is the entry point the template/grid-search baselines use
    /// (they construct [`Mapping`]s directly rather than genomes).
    ///
    /// # Errors
    ///
    /// Returns [`EvalError`] if any mapping is structurally invalid.
    ///
    /// # Panics
    ///
    /// Panics if `mappings.len()` differs from the unique-layer count.
    pub fn evaluate_mappings(
        &self,
        fanouts: &[u64],
        mappings: &[Mapping],
    ) -> Result<DesignEvaluation, EvalError> {
        assert_eq!(mappings.len(), self.unique.len(), "one mapping per unique layer");
        let mut costs = Vec::with_capacity(mappings.len());
        for (li, mapping) in mappings.iter().enumerate() {
            costs.push(self.evaluate_layer(li, mapping, None)?);
        }
        Ok(self.aggregate(fanouts, mappings, costs))
    }

    /// Combines per-layer costs into one design evaluation: sum
    /// latency/energy weighted by layer multiplicity, derive the
    /// minimum-footprint hardware (or check the fixed one), and score
    /// against the area budget.
    fn aggregate(
        &self,
        fanouts: &[u64],
        mappings: &[Mapping],
        costs: impl IntoIterator<Item = LayerCost>,
    ) -> DesignEvaluation {
        let mut latency = 0.0;
        let mut energy = 0.0;
        let mut derived = HwConfig {
            fanouts: fanouts.to_vec(),
            l2_words: 0,
            mid_words_per_unit: vec![0; fanouts.len().saturating_sub(2)],
            l1_words_per_pe: 0,
        };
        let mut fits_fixed = true;

        for ((u, mapping), cost) in self.unique.iter().zip(mappings).zip(costs) {
            latency += cost.latency_cycles * u.count as f64;
            energy += cost.energy_pj * u.count as f64;
            if let Constraint::FixedHw(hw) = &self.constraint {
                fits_fixed &= hw.accommodates(&mapping.pe_shape(), &cost.buffers);
            }
            derived.grow_to_fit(&cost.buffers);
        }

        // The hardware that must exist: the fixed one, or the derived
        // minimum (buffer allocation strategy).
        let hw = match &self.constraint {
            Constraint::FixedHw(fixed) => fixed.clone(),
            Constraint::None => derived,
        };
        let area = self.evaluator.area_model().area_um2(&hw);
        let pe_area = self.evaluator.area_model().pe_area_um2(&hw);
        let budget = self.platform().area_budget_um2;

        let over_budget = area > budget;
        let feasible = !over_budget && fits_fixed;
        let cost = if feasible {
            self.objective.score(latency, energy)
        } else if over_budget {
            INFEASIBLE_COST * (1.0 + (area - budget) / budget)
        } else {
            INFEASIBLE_COST * 2.0
        };

        DesignEvaluation {
            cost,
            feasible,
            latency_cycles: latency,
            energy_pj: energy,
            area_um2: area,
            pe_area_um2: pe_area,
            hw,
        }
    }

    /// One cost-model call for unique layer `li`, routed through the
    /// attached memo cache when there is one. `key` is the layer's cache
    /// key when the caller already has it; otherwise it is computed here,
    /// and only when a cache will probe it. Errors (structurally invalid
    /// mappings) are never cached — repair upstream makes them rare, and
    /// a penalty evaluation is cheap anyway.
    fn evaluate_layer(
        &self,
        li: usize,
        mapping: &Mapping,
        key: Option<u64>,
    ) -> Result<LayerCost, EvalError> {
        let layer = &self.unique[li].layer;
        let Some(cache) = &self.cache else {
            return self.evaluator.layer_cost(layer, mapping);
        };
        let key = key.unwrap_or_else(|| self.evaluator.cache_key(layer, mapping));
        if let Some(cost) = cache.lookup(key) {
            return Ok(cost);
        }
        let cost = self.evaluator.layer_cost(layer, mapping)?;
        cache.store(key, cost);
        Ok(cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma_workload::zoo;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn problem() -> CoOptProblem {
        CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency)
    }

    #[test]
    fn random_genomes_evaluate_without_panicking() {
        let p = problem();
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..30 {
            let g = Genome::random(&mut rng, p.unique_layers(), p.platform(), 2);
            let e = p.evaluate(&g);
            assert!(e.latency_cycles > 0.0);
            assert!(e.area_um2 > 0.0);
            if e.feasible {
                assert!(e.area_um2 <= p.platform().area_budget_um2);
                assert!(e.cost < INFEASIBLE_COST);
            } else {
                assert!(e.cost >= INFEASIBLE_COST);
            }
        }
    }

    /// A test per-layer cache: a plain locked map.
    #[derive(Debug, Default)]
    struct MapCache(std::sync::Mutex<HashMap<u64, LayerCost>>);

    impl EvalCache for MapCache {
        fn lookup(&self, key: u64) -> Option<LayerCost> {
            self.0.lock().unwrap().get(&key).copied()
        }
        fn store(&self, key: u64, cost: LayerCost) {
            self.0.lock().unwrap().insert(key, cost);
        }
    }

    #[test]
    fn evaluate_batch_matches_per_genome_evaluate() {
        let fixed = Constraint::FixedHw(HwConfig {
            fanouts: vec![8, 8],
            l2_words: 1 << 16,
            mid_words_per_unit: vec![],
            l1_words_per_pe: 256,
        });
        let mut rng = SmallRng::seed_from_u64(8);
        for constraint in [Constraint::None, fixed] {
            let plain = problem().with_constraint(constraint.clone());
            let memoized = plain
                .clone()
                .with_cache(Arc::new(MapCache::default()))
                .with_genome_memo(Arc::new(CountingMemo::default()));
            let mut genomes: Vec<Genome> = (0..8)
                .map(|_| Genome::random(&mut rng, plain.unique_layers(), plain.platform(), 2))
                .collect();
            // A duplicate genome, as elites and their unmutated offspring
            // produce in every real generation.
            genomes.push(genomes[0].clone());
            // The independent reference: decode each genome under the
            // constraint and score its mappings directly.
            let reference: Vec<DesignEvaluation> = genomes
                .iter()
                .map(|g| {
                    let fanouts = match plain.constraint() {
                        Constraint::None => &g.fanouts,
                        Constraint::FixedHw(hw) => &hw.fanouts,
                    };
                    let mappings = g.decode_with_fanouts(plain.unique_layers(), fanouts);
                    plain
                        .evaluate_mappings(fanouts, &mappings)
                        .unwrap_or_else(|_| CoOptProblem::invalid_evaluation(fanouts.clone()))
                })
                .collect();
            assert!(reference.iter().any(|e| e.feasible), "{constraint:?}: all infeasible");
            // Memoized passes run twice: cold, then served by the memo.
            for p in [&plain, &memoized, &memoized] {
                for threads in [1, 4] {
                    assert_eq!(p.evaluate_batch(&genomes, threads), reference, "{constraint:?}");
                }
                for (g, e) in genomes.iter().zip(&reference) {
                    assert_eq!(p.evaluate(g), *e, "{constraint:?}: batch of one diverged");
                }
            }
            // The duplicate's per-layer evaluations were all skipped, on
            // each uncached pass over the batch.
            assert!(
                plain.batch_dedup_skipped() >= 2 * plain.unique_layers().len() as u64,
                "skipped only {}",
                plain.batch_dedup_skipped()
            );
        }
    }

    /// A test genome memo that counts traffic and records stores.
    #[derive(Debug, Default)]
    struct CountingMemo {
        map: std::sync::Mutex<HashMap<u64, Arc<DesignEvaluation>>>,
        hits: AtomicU64,
        misses: AtomicU64,
    }

    impl GenomeMemo for CountingMemo {
        fn lookup(&self, key: u64) -> Option<Arc<DesignEvaluation>> {
            let found = self.map.lock().unwrap().get(&key).cloned();
            match &found {
                Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
                None => self.misses.fetch_add(1, Ordering::Relaxed),
            };
            found
        }
        fn store(&self, key: u64, evaluation: &Arc<DesignEvaluation>) {
            self.map.lock().unwrap().insert(key, Arc::clone(evaluation));
        }
    }

    #[test]
    fn genome_memo_hits_preserve_results_exactly() {
        let memo = Arc::new(CountingMemo::default());
        let without = problem();
        let with = problem().with_genome_memo(Arc::clone(&memo) as _);
        let mut rng = SmallRng::seed_from_u64(12);
        let genomes: Vec<Genome> = (0..6)
            .map(|_| Genome::random(&mut rng, without.unique_layers(), without.platform(), 2))
            .collect();
        // First pass populates; second pass must be served entirely from
        // the memo with identical results.
        let first = with.evaluate_batch(&genomes, 1);
        let hits_after_first = memo.hits.load(Ordering::Relaxed);
        let second = with.evaluate_batch(&genomes, 1);
        assert_eq!(
            memo.hits.load(Ordering::Relaxed) - hits_after_first,
            genomes.len() as u64,
            "second pass must hit for every genome"
        );
        let plain = without.evaluate_batch(&genomes, 1);
        for ((a, b), c) in first.iter().zip(&second).zip(&plain) {
            assert_eq!(a, b, "memo hit changed a result");
            assert_eq!(a, c, "memoized batch diverged from unmemoized");
        }
        // Single-genome evaluation shares the same memo layer.
        for g in &genomes {
            assert_eq!(with.evaluate(g), without.evaluate(g));
        }
    }

    #[test]
    fn genome_key_tracks_every_identity_input() {
        let p = problem();
        let mut rng = SmallRng::seed_from_u64(13);
        let g = Genome::random(&mut rng, p.unique_layers(), p.platform(), 2);
        let base = p.genome_key(&g);
        assert_eq!(base, p.genome_key(&g), "key must be deterministic");

        // Any gene change moves the key.
        let mut mutated = g.clone();
        mutated.fanouts[0] = mutated.fanouts[0].saturating_add(1);
        assert_ne!(base, p.genome_key(&mutated));
        let mut mutated = g.clone();
        mutated.layers[0].levels[0].tile[digamma_workload::Dim::K] += 1;
        assert_ne!(base, p.genome_key(&mutated));
        let mut mutated = g.clone();
        mutated.layers[0].levels[0].order.swap(0, 5);
        assert_ne!(base, p.genome_key(&mutated));

        // Problem identity changes move it too.
        let edp = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Edp);
        assert_ne!(base, edp.genome_key(&g));
        let cloud = CoOptProblem::new(zoo::ncf(), Platform::cloud(), Objective::Latency);
        assert_ne!(base, cloud.genome_key(&g));
        let fixed = problem().with_constraint(Constraint::FixedHw(HwConfig {
            fanouts: vec![4, 4],
            l2_words: 1024,
            mid_words_per_unit: vec![],
            l1_words_per_pe: 64,
        }));
        assert_ne!(base, fixed.genome_key(&g));
        // A different model with different shapes moves it.
        let dlrm = CoOptProblem::new(zoo::dlrm(), Platform::edge(), Objective::Latency);
        let g_dlrm = Genome::random(&mut rng, dlrm.unique_layers(), dlrm.platform(), 2);
        // (Different genome anyway; the point is no panic and no alias.)
        assert_ne!(base, dlrm.genome_key(&g_dlrm));

        // The genome key can never alias a per-layer key for the same
        // design (domain separation).
        let mappings = g.decode(p.unique_layers());
        for (u, m) in p.unique_layers().iter().zip(&mappings) {
            assert_ne!(base, p.evaluator().cache_key(&u.layer, m));
        }
    }

    #[test]
    fn eval_metrics_do_not_change_results_and_wall_clock_accumulates() {
        let registry = MetricsRegistry::new();
        let metered = problem().with_eval_hooks(EvalHooks {
            metrics: Some(EvalMetrics::for_tenant(&registry, "t")),
            ..EvalHooks::default()
        });
        let plain = problem();
        let mut rng = SmallRng::seed_from_u64(21);
        let genomes: Vec<Genome> = (0..4)
            .map(|_| Genome::random(&mut rng, plain.unique_layers(), plain.platform(), 2))
            .collect();
        assert_eq!(
            metered.evaluate_batch(&genomes, 2),
            plain.evaluate_batch(&genomes, 2),
            "attached metrics must not perturb evaluation results"
        );
        assert!(metered.eval_wall() > Duration::ZERO);
        assert!(plain.eval_wall() > Duration::ZERO, "wall accumulates with or without metrics");

        // Clones (as the server and Gamma's constrained copy make)
        // share the accumulator and the handles.
        let clone = metered.clone();
        let before = metered.eval_wall();
        clone.evaluate(&genomes[0]);
        assert!(metered.eval_wall() > before, "clone must feed the shared eval-wall total");

        // One batch call plus the clone's single-genome call: both are
        // batches, so both observe the histogram.
        let text = registry.render();
        assert!(text.contains("digamma_evals_total{tenant=\"t\"}"), "{text}");
        assert!(text.contains("digamma_eval_batch_seconds_count{tenant=\"t\"} 2"), "{text}");
    }

    #[test]
    fn eval_trace_does_not_change_results_and_records_batch_spans() {
        let tracer = Tracer::new();
        let root = {
            let span = tracer.start_root("job.run");
            span.context().expect("enabled tracer yields contexts")
        };
        let traced = problem().with_eval_hooks(EvalHooks {
            trace: Some(EvalTrace::new(tracer.clone(), root, 9)),
            ..EvalHooks::default()
        });
        let plain = problem();
        let mut rng = SmallRng::seed_from_u64(33);
        let genomes: Vec<Genome> = (0..4)
            .map(|_| Genome::random(&mut rng, plain.unique_layers(), plain.platform(), 2))
            .collect();
        assert_eq!(
            traced.evaluate_batch(&genomes, 2),
            plain.evaluate_batch(&genomes, 2),
            "attached tracing must not perturb evaluation results"
        );
        let spans = tracer.spans_for(root.trace);
        let batch = spans.iter().find(|s| s.name == "eval.batch").expect("one batch span");
        assert_eq!(batch.parent, Some(root.span), "eval spans nest under the run span");
        assert_eq!(batch.job, Some(9));
        assert!(batch.attrs.iter().any(|(k, v)| *k == "genomes" && v == "4"), "{:?}", batch.attrs);
        // Any sampled per-eval spans also nest under the run span.
        for span in spans.iter().filter(|s| s.name == "eval.layer") {
            assert_eq!(span.parent, Some(root.span));
            assert_eq!(span.job, Some(9));
        }
    }

    #[test]
    fn infeasible_cost_grows_with_overshoot() {
        let p = problem();
        let mut rng = SmallRng::seed_from_u64(2);
        // Force enormous hardware: max fan-outs with huge tiles.
        let mut g = Genome::random(&mut rng, p.unique_layers(), p.platform(), 2);
        g.fanouts = vec![64, 16]; // 1024 PEs on edge: PE area alone ≈ 0.36 mm² > 0.2 mm².
        for lg in &mut g.layers {
            for lvl in &mut lg.levels {
                lvl.tile = digamma_workload::DimVec::splat(u64::MAX);
            }
        }
        let e = p.evaluate(&g);
        assert!(!e.feasible);
        assert!(e.cost > INFEASIBLE_COST);
    }

    #[test]
    fn latency_accounts_for_layer_multiplicity() {
        let model = zoo::dlrm();
        let p = CoOptProblem::new(model.clone(), Platform::edge(), Objective::Latency);
        let mut rng = SmallRng::seed_from_u64(3);
        let g = Genome::random(&mut rng, p.unique_layers(), p.platform(), 2);
        let e = p.evaluate(&g);
        // Evaluating per-layer manually must reproduce the aggregate.
        let mappings = {
            let mut eff = g.clone();
            eff.fanouts = g.fanouts.clone();
            eff.decode(p.unique_layers())
        };
        let mut manual = 0.0;
        for (u, m) in p.unique_layers().iter().zip(&mappings) {
            let r = p.evaluator().evaluate(&u.layer, m).unwrap();
            manual += r.latency_cycles * u.count as f64;
        }
        assert!((manual - e.latency_cycles).abs() < 1e-6);
    }

    #[test]
    fn fixed_hw_constraint_penalizes_oversized_mappings() {
        let tiny_hw = HwConfig {
            fanouts: vec![2, 2],
            l2_words: 64,
            mid_words_per_unit: vec![],
            l1_words_per_pe: 8,
        };
        let p = problem().with_constraint(Constraint::FixedHw(tiny_hw.clone()));
        let mut rng = SmallRng::seed_from_u64(4);
        let mut any_feasible = false;
        let mut any_infeasible = false;
        for _ in 0..60 {
            let g = Genome::random(&mut rng, p.unique_layers(), p.platform(), 2);
            let e = p.evaluate(&g);
            // Fixed hardware: the reported hw is always the given one.
            assert_eq!(e.hw, tiny_hw);
            any_feasible |= e.feasible;
            any_infeasible |= !e.feasible;
        }
        assert!(any_infeasible, "random mappings should often overflow 8-word L1s");
        // (Some random mapping with unit tiles may fit; either way the
        // penalty path must be exercised above.)
        let _ = any_feasible;
    }

    #[test]
    fn objective_changes_ranking_dimension() {
        let p_lat = problem();
        let p_edp = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Edp);
        let mut rng = SmallRng::seed_from_u64(5);
        let g = Genome::random(&mut rng, p_lat.unique_layers(), p_lat.platform(), 2);
        let e_lat = p_lat.evaluate(&g);
        let e_edp = p_edp.evaluate(&g);
        if e_lat.feasible {
            assert!((e_lat.cost - e_lat.latency_cycles).abs() < 1e-9);
            assert!(
                (e_edp.cost - e_lat.latency_cycles * e_lat.energy_pj).abs() / e_edp.cost.max(1.0)
                    < 1e-9
            );
        }
    }
}
