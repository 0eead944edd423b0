//! The sharded, capacity-bounded memoization caches.
//!
//! Across a population — and across the many searches a co-design
//! service runs — the same evaluations recur constantly: elites are
//! re-scored every generation, template seeds recur across jobs, and
//! different users ask about the same models. This module memoizes at
//! two granularities over one shared sharded-map core:
//!
//! * [`ShardedFitnessCache`] — per-layer [`LayerCost`]s under the
//!   stable key from [`digamma_costmodel::Evaluator::cache_key`]; hits
//!   skip one cost-model call. A `LayerCost` is the latency, energy and
//!   buffer needs that design aggregation reads, a `Copy` value stored
//!   inline in the map: a hit is a copy, with no refcount and no heap.
//! * [`ShardedGenomeMemo`] — whole-genome [`DesignEvaluation`]s under
//!   [`digamma::CoOptProblem::genome_key`]; hits skip the entire
//!   decode → per-layer loop → aggregate pipeline.
//!
//! Design points (shared by both):
//!
//! * **Sharded** — the key space is split across independently locked
//!   shards, so worker threads hammering the cache contend only when
//!   they collide on a shard, not on every lookup.
//! * **Capacity-bounded** — each shard evicts past its capacity share
//!   under a selectable [`EvictionPolicy`], so a long-running service
//!   cannot grow without bound. FIFO keeps the hot path a single
//!   `HashMap` probe; LRU pays one recency-queue push per hit to keep
//!   long-lived hot keys (template seeds, co-tenant models) resident
//!   through churn. `digamma_bench::cachebench` records the measured
//!   difference on a long multi-model batch.
//! * **Counted** — hits, misses, insertions, and evictions are atomic
//!   counters. A [`JobCacheView`] fronts a shared cache for one job and
//!   counts each probe once into the job's report and its tenant's
//!   [`LayerMeters`], the cells `/stats` and `/metrics` both read.

use digamma::{DesignEvaluation, EvalCache, GenomeMemo};
use digamma_costmodel::LayerCost;
use digamma_obs::{Counter, Histogram, MetricsRegistry, SampleTick, DEFAULT_LATENCY_BUCKETS};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// How a shard evicts once it exceeds its capacity share.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EvictionPolicy {
    /// Evict in insertion order. Cheapest: lookups never write.
    #[default]
    Fifo,
    /// Evict the least-recently-used entry. Hits refresh recency (one
    /// lazy queue push per hit), so keys that stay hot across jobs
    /// survive churn from one-off requests.
    Lru,
}

impl EvictionPolicy {
    /// Parses a manifest/CLI spelling (`fifo` or `lru`).
    pub fn parse(s: &str) -> Option<EvictionPolicy> {
        match s.trim().to_ascii_lowercase().as_str() {
            "fifo" => Some(EvictionPolicy::Fifo),
            "lru" => Some(EvictionPolicy::Lru),
            _ => None,
        }
    }
}

impl fmt::Display for EvictionPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvictionPolicy::Fifo => f.write_str("fifo"),
            EvictionPolicy::Lru => f.write_str("lru"),
        }
    }
}

/// A point-in-time view of a cache's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found a memoized entry.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Entries stored (first insertion of a key).
    pub insertions: u64,
    /// Entries dropped to respect the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when there were none).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Debug)]
struct Entry<V> {
    value: V,
    /// Tick of the last ordering-relevant touch (insertion; plus hits
    /// under LRU). The order queue pairs carrying an older tick for this
    /// key are stale.
    touched: u64,
}

#[derive(Debug)]
struct Shard<V> {
    map: HashMap<u64, Entry<V>>,
    /// `(tick, key)` pairs in tick order. A pair is live only while the
    /// entry's `touched` still equals its tick; stale pairs are skipped
    /// lazily at eviction and swept by [`Shard::compact`].
    order: VecDeque<(u64, u64)>,
    tick: u64,
}

impl<V> Default for Shard<V> {
    fn default() -> Shard<V> {
        Shard { map: HashMap::new(), order: VecDeque::new(), tick: 0 }
    }
}

impl<V> Shard<V> {
    fn next_tick(&mut self) -> u64 {
        self.tick += 1;
        self.tick
    }

    /// Refreshes `key`'s recency (the LRU hit path).
    fn touch(&mut self, key: u64) {
        let tick = self.next_tick();
        if let Some(entry) = self.map.get_mut(&key) {
            entry.touched = tick;
            self.order.push_back((tick, key));
        }
        // Hits never evict, so the lazy queue needs an occasional sweep
        // to stay proportional to the resident set.
        if self.order.len() > 2 * self.map.len() + 64 {
            self.compact();
        }
    }

    /// Drops stale `(tick, key)` pairs, keeping live ones in tick order.
    fn compact(&mut self) {
        let map = &self.map;
        self.order.retain(|&(tick, key)| map.get(&key).is_some_and(|e| e.touched == tick));
    }

    /// Evicts oldest-live-tick entries until at most `capacity` remain;
    /// returns how many were dropped.
    fn evict_to(&mut self, capacity: usize) -> u64 {
        let mut evicted = 0u64;
        while self.map.len() > capacity {
            let Some((tick, key)) = self.order.pop_front() else { break };
            if self.map.get(&key).is_some_and(|e| e.touched == tick) {
                self.map.remove(&key);
                evicted += 1;
            }
        }
        evicted
    }
}

/// The value-generic sharded memo both public caches wrap.
#[derive(Debug)]
struct ShardedMemo<V> {
    shards: Vec<Mutex<Shard<V>>>,
    shard_capacity: usize,
    policy: EvictionPolicy,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
}

/// Default shard count: enough that a worker pool on a big machine
/// rarely collides, small enough that an empty cache stays tiny.
const DEFAULT_SHARDS: usize = 64;

impl<V: Clone> ShardedMemo<V> {
    /// Shard count is rounded up to a power of two (minimum 1); total
    /// capacity splits evenly across shards, each holding at least one
    /// entry.
    fn new(capacity: usize, shards: usize, policy: EvictionPolicy) -> ShardedMemo<V> {
        let shards = shards.max(1).next_power_of_two();
        let shard_capacity = capacity.div_ceil(shards).max(1);
        ShardedMemo {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_capacity,
            policy,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: u64) -> &Mutex<Shard<V>> {
        // Fold the high bits in so shard choice isn't just the key's low
        // bits (FNV mixes well, but this is free insurance).
        let mixed = key ^ (key >> 32);
        &self.shards[(mixed as usize) & (self.shards.len() - 1)]
    }

    fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().expect("cache shard poisoned").map.len()).sum()
    }

    fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.len() as u64,
        }
    }

    fn lookup(&self, key: u64) -> Option<V> {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        let found = shard.map.get(&key).map(|e| e.value.clone());
        if found.is_some() && self.policy == EvictionPolicy::Lru {
            shard.touch(key);
        }
        drop(shard);
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    fn store(&self, key: u64, value: V) {
        let mut shard = self.shard(key).lock().expect("cache shard poisoned");
        // Two workers may race to evaluate the same key; the racing
        // re-store refreshes the value without a new order-queue pair
        // (the existing tick stays authoritative).
        if let Some(entry) = shard.map.get_mut(&key) {
            entry.value = value;
            return;
        }
        let tick = shard.next_tick();
        shard.map.insert(key, Entry { value, touched: tick });
        shard.order.push_back((tick, key));
        let evicted = shard.evict_to(self.shard_capacity);
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of every resident entry (shard by shard —
    /// concurrent writers may land between shards, which is fine for
    /// the disk-spill use).
    fn entries(&self) -> Vec<(u64, V)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let shard = shard.lock().expect("cache shard poisoned");
            out.extend(shard.map.iter().map(|(&k, e)| (k, e.value.clone())));
        }
        out
    }
}

/// The shared per-layer fitness memo: see the module docs.
#[derive(Debug)]
pub struct ShardedFitnessCache {
    memo: ShardedMemo<LayerCost>,
}

impl ShardedFitnessCache {
    /// Creates a FIFO-evicting cache bounded to roughly `capacity`
    /// entries total, with the default shard count.
    pub fn new(capacity: usize) -> ShardedFitnessCache {
        ShardedFitnessCache::with_shards_and_policy(capacity, DEFAULT_SHARDS, EvictionPolicy::Fifo)
    }

    /// Creates a cache with the given eviction policy and the default
    /// shard count.
    pub fn with_policy(capacity: usize, policy: EvictionPolicy) -> ShardedFitnessCache {
        ShardedFitnessCache::with_shards_and_policy(capacity, DEFAULT_SHARDS, policy)
    }

    /// Creates a FIFO cache with an explicit shard count (rounded up to a
    /// power of two, minimum 1). Total capacity splits evenly across
    /// shards, each shard holding at least one entry.
    pub fn with_shards(capacity: usize, shards: usize) -> ShardedFitnessCache {
        ShardedFitnessCache::with_shards_and_policy(capacity, shards, EvictionPolicy::Fifo)
    }

    /// The fully-explicit constructor: capacity, shard count, and policy.
    pub fn with_shards_and_policy(
        capacity: usize,
        shards: usize,
        policy: EvictionPolicy,
    ) -> ShardedFitnessCache {
        ShardedFitnessCache { memo: ShardedMemo::new(capacity, shards, policy) }
    }

    /// The active eviction policy.
    pub fn policy(&self) -> EvictionPolicy {
        self.memo.policy
    }

    /// Entries currently resident across all shards.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// True when no entries are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum resident entries (shard capacity × shard count).
    pub fn capacity(&self) -> usize {
        self.memo.capacity()
    }

    /// A consistent-enough snapshot of the counters (each counter is
    /// individually exact; the set is not taken under one lock).
    pub fn stats(&self) -> CacheStats {
        self.memo.stats()
    }

    /// A point-in-time copy of every resident `(key, cost)` pair —
    /// what the disk spill persists.
    pub fn entries(&self) -> Vec<(u64, LayerCost)> {
        self.memo.entries()
    }
}

impl EvalCache for ShardedFitnessCache {
    fn lookup(&self, key: u64) -> Option<LayerCost> {
        self.memo.lookup(key)
    }

    fn store(&self, key: u64, cost: LayerCost) {
        self.memo.store(key, cost);
    }
}

/// The shared whole-genome memo: [`DesignEvaluation`]s keyed by
/// [`digamma::CoOptProblem::genome_key`]. Same sharding, bounds, and
/// eviction machinery as the fitness cache.
#[derive(Debug)]
pub struct ShardedGenomeMemo {
    memo: ShardedMemo<Arc<DesignEvaluation>>,
}

impl ShardedGenomeMemo {
    /// Creates a FIFO-evicting memo bounded to roughly `capacity`
    /// evaluations total.
    pub fn new(capacity: usize) -> ShardedGenomeMemo {
        ShardedGenomeMemo::with_policy(capacity, EvictionPolicy::Fifo)
    }

    /// Creates a memo with the given eviction policy.
    pub fn with_policy(capacity: usize, policy: EvictionPolicy) -> ShardedGenomeMemo {
        ShardedGenomeMemo { memo: ShardedMemo::new(capacity, DEFAULT_SHARDS, policy) }
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.memo.len()
    }

    /// True when nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum resident evaluations.
    pub fn capacity(&self) -> usize {
        self.memo.capacity()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.memo.stats()
    }
}

impl GenomeMemo for ShardedGenomeMemo {
    fn lookup(&self, key: u64) -> Option<Arc<DesignEvaluation>> {
        self.memo.lookup(key)
    }

    fn store(&self, key: u64, evaluation: &Arc<DesignEvaluation>) {
        self.memo.store(key, Arc::clone(evaluation));
    }
}

/// Which shared cache a [`JobCacheView`] fronts; names its probe
/// series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CacheLayer {
    /// The per-layer [`ShardedFitnessCache`].
    Fitness,
    /// The whole-genome [`ShardedGenomeMemo`].
    Genome,
}

/// Probe latency is sampled 1-in-16: a sharded-map probe is tens of
/// nanoseconds, so timing every one would cost more than the probe.
const PROBE_LATENCY_SAMPLE_EVERY: u64 = 16;

/// Hit, miss, and store counts through one cache layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct ProbeCounts {
    pub(crate) hits: u64,
    pub(crate) misses: u64,
    /// Store calls. Counts *attempts* (the shared cache may coalesce a
    /// racing duplicate): how much cache space the work demanded.
    pub(crate) stores: u64,
}

/// Hit, miss, and store counters for traffic through one cache layer.
#[derive(Debug, Default)]
struct ProbeCells {
    hits: Counter,
    misses: Counter,
    stores: Counter,
}

impl ProbeCells {
    fn count_probe(&self, hit: bool) {
        if hit {
            self.hits.inc();
        } else {
            self.misses.inc();
        }
    }

    fn counts(&self) -> ProbeCounts {
        ProbeCounts {
            hits: self.hits.value(),
            misses: self.misses.value(),
            stores: self.stores.value(),
        }
    }
}

/// One tenant's traffic through one cache layer: hits and misses are
/// the tenant's `/metrics` probe series (detached cells under a
/// disabled registry, so they keep counting); stores have no series.
#[derive(Debug)]
pub(crate) struct LayerMeters {
    cells: ProbeCells,
    /// `digamma_cache_probe_seconds{cache}`: one server-wide series per
    /// layer, shared by every tenant.
    probe_seconds: Histogram,
}

impl LayerMeters {
    /// Registers `tenant`'s probe series for `layer`:
    /// `digamma_cache_probes_total{cache="fitness",result,tenant}` or
    /// `digamma_genome_memo_probes_total{result,tenant}`, plus the
    /// layer's `digamma_cache_probe_seconds{cache}`.
    pub(crate) fn new(registry: &MetricsRegistry, tenant: &str, layer: CacheLayer) -> LayerMeters {
        let (cache, name, help) = match layer {
            CacheLayer::Fitness => (
                "fitness",
                "digamma_cache_probes_total",
                "Cache probes by cache layer, result, and tenant.",
            ),
            CacheLayer::Genome => (
                "genome",
                "digamma_genome_memo_probes_total",
                "Whole-genome memo probes by result.",
            ),
        };
        let probes = |result| {
            let mut labels = vec![("result", result), ("tenant", tenant)];
            if layer == CacheLayer::Fitness {
                labels.push(("cache", cache));
            }
            registry.counter(name, help, &labels)
        };
        LayerMeters {
            cells: ProbeCells {
                hits: probes("hit"),
                misses: probes("miss"),
                stores: Counter::default(),
            },
            probe_seconds: registry.histogram(
                "digamma_cache_probe_seconds",
                "Cache probe latency by cache layer, sampled 1 in 16 probes.",
                &[("cache", cache)],
                DEFAULT_LATENCY_BUCKETS,
            ),
        }
    }

    /// The tenant's counts so far.
    pub(crate) fn counts(&self) -> ProbeCounts {
        self.cells.counts()
    }
}

/// A job's window onto a shared cache `C` ([`ShardedFitnessCache`] or
/// [`ShardedGenomeMemo`]) — the only layer between the job's problem
/// and the cache.
///
/// Lookups and stores delegate to the shared cache. Each probe is
/// counted once per ledger: the job's own counters (its report's
/// reuse, even though concurrent jobs share one memo) and its tenant's
/// [`LayerMeters`] (`/stats` and `/metrics`). Every 16th probe is
/// timed into the layer's probe-latency histogram. (Evictions are a
/// property of the shared cache and are reported there.)
#[derive(Debug)]
pub(crate) struct JobCacheView<C> {
    shared: Arc<C>,
    job: ProbeCells,
    tenant: Arc<LayerMeters>,
    sample: SampleTick,
}

impl<C> JobCacheView<C> {
    /// A view over `shared` with zeroed job counters, charging probes to
    /// `tenant`.
    pub(crate) fn new(shared: Arc<C>, tenant: Arc<LayerMeters>) -> JobCacheView<C> {
        JobCacheView {
            shared,
            job: ProbeCells::default(),
            tenant,
            sample: SampleTick::new(PROBE_LATENCY_SAMPLE_EVERY),
        }
    }

    /// The job's counts so far.
    pub(crate) fn counts(&self) -> ProbeCounts {
        self.job.counts()
    }

    fn probe<V>(&self, lookup: impl FnOnce(&C) -> Option<V>) -> Option<V> {
        let found = if self.sample.due() {
            let started = Instant::now();
            let found = lookup(&self.shared);
            self.tenant.probe_seconds.observe_duration(started.elapsed());
            found
        } else {
            lookup(&self.shared)
        };
        self.job.count_probe(found.is_some());
        self.tenant.cells.count_probe(found.is_some());
        found
    }

    fn count_store(&self) {
        self.job.stores.inc();
        self.tenant.cells.stores.inc();
    }
}

impl EvalCache for JobCacheView<ShardedFitnessCache> {
    fn lookup(&self, key: u64) -> Option<LayerCost> {
        self.probe(|shared| shared.lookup(key))
    }

    fn store(&self, key: u64, cost: LayerCost) {
        self.count_store();
        self.shared.store(key, cost);
    }
}

impl GenomeMemo for JobCacheView<ShardedGenomeMemo> {
    fn lookup(&self, key: u64) -> Option<Arc<DesignEvaluation>> {
        self.probe(|shared| shared.lookup(key))
    }

    fn store(&self, key: u64, evaluation: &Arc<DesignEvaluation>) {
        self.count_store();
        self.shared.store(key, evaluation);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use digamma::{CoOptProblem, Objective};
    use digamma_costmodel::{Evaluator, Mapping, Platform};
    use digamma_workload::{zoo, Layer};

    fn cost_for(rows: u64, cols: u64) -> (u64, LayerCost) {
        let layer = Layer::conv("l", 64, 32, 16, 16, 3, 3, 1);
        let mapping = Mapping::row_major_example(&layer, rows, cols);
        let eval = Evaluator::new(Platform::edge());
        (eval.cache_key(&layer, &mapping), eval.layer_cost(&layer, &mapping).unwrap())
    }

    #[test]
    fn lookup_returns_exactly_what_was_stored() {
        let cache = ShardedFitnessCache::new(100);
        let (key, cost) = cost_for(8, 4);
        assert!(cache.lookup(key).is_none());
        cache.store(key, cost);
        let back = cache.lookup(key).expect("stored");
        assert_eq!(back.latency_cycles.to_bits(), cost.latency_cycles.to_bits());
        assert_eq!(back.energy_pj.to_bits(), cost.energy_pj.to_bits());
        assert_eq!(back.buffers, cost.buffers);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        // One shard makes the FIFO order observable.
        let cache = ShardedFitnessCache::with_shards(2, 1);
        let (k1, r) = cost_for(2, 2);
        let (k2, _) = cost_for(4, 2);
        let (k3, _) = cost_for(8, 2);
        cache.store(k1, r);
        cache.store(k2, r);
        cache.store(k3, r);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(k1).is_none(), "oldest entry must be gone");
        assert!(cache.lookup(k2).is_some());
        assert!(cache.lookup(k3).is_some());
    }

    #[test]
    fn lru_keeps_recently_used_entries() {
        // One shard, capacity 2. Under LRU, touching k1 makes k2 the
        // eviction victim; under FIFO (tested above) k1 would go.
        let cache = ShardedFitnessCache::with_shards_and_policy(2, 1, EvictionPolicy::Lru);
        let (k1, r) = cost_for(2, 2);
        let (k2, _) = cost_for(4, 2);
        let (k3, _) = cost_for(8, 2);
        cache.store(k1, r);
        cache.store(k2, r);
        assert!(cache.lookup(k1).is_some(), "refreshes k1's recency");
        cache.store(k3, r);
        assert!(cache.lookup(k1).is_some(), "recently-used entry survives");
        assert!(cache.lookup(k2).is_none(), "least-recently-used entry evicted");
        assert!(cache.lookup(k3).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn lru_order_queue_stays_bounded() {
        // Hammering one key with hits must not grow the shard's lazy
        // recency queue without bound.
        let cache = ShardedFitnessCache::with_shards_and_policy(4, 1, EvictionPolicy::Lru);
        let (key, cost) = cost_for(8, 4);
        cache.store(key, cost);
        for _ in 0..10_000 {
            assert!(cache.lookup(key).is_some());
        }
        let shard = cache.memo.shards[0].lock().unwrap();
        assert!(shard.order.len() <= 2 * shard.map.len() + 65, "queue len {}", shard.order.len());
    }

    #[test]
    fn eviction_policy_parses_and_displays() {
        assert_eq!(EvictionPolicy::parse("LRU"), Some(EvictionPolicy::Lru));
        assert_eq!(EvictionPolicy::parse(" fifo "), Some(EvictionPolicy::Fifo));
        assert_eq!(EvictionPolicy::parse("2q"), None);
        assert_eq!(EvictionPolicy::Lru.to_string(), "lru");
        assert_eq!(ShardedFitnessCache::new(8).policy(), EvictionPolicy::Fifo);
        assert_eq!(
            ShardedFitnessCache::with_policy(8, EvictionPolicy::Lru).policy(),
            EvictionPolicy::Lru
        );
    }

    #[test]
    fn double_store_does_not_duplicate() {
        let cache = ShardedFitnessCache::with_shards(4, 1);
        let (key, cost) = cost_for(8, 4);
        cache.store(key, cost);
        cache.store(key, cost);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.stats().insertions, 1);
    }

    fn fitness_view(
        shared: &Arc<ShardedFitnessCache>,
        tenant: &Arc<LayerMeters>,
    ) -> JobCacheView<ShardedFitnessCache> {
        JobCacheView::new(Arc::clone(shared), Arc::clone(tenant))
    }

    #[test]
    fn job_views_count_independently() {
        let registry = MetricsRegistry::new();
        let tenant = Arc::new(LayerMeters::new(&registry, "t", CacheLayer::Fitness));
        let shared = Arc::new(ShardedFitnessCache::new(100));
        let a = fitness_view(&shared, &tenant);
        let b = fitness_view(&shared, &tenant);
        let (key, cost) = cost_for(8, 4);
        assert!(a.lookup(key).is_none());
        a.store(key, cost);
        assert!(a.lookup(key).is_some());
        assert!(b.lookup(key).is_some(), "views share the underlying memo");
        assert_eq!(a.counts(), ProbeCounts { hits: 1, misses: 1, stores: 1 });
        assert_eq!(b.counts(), ProbeCounts { hits: 1, misses: 0, stores: 0 });
        assert_eq!(tenant.counts(), ProbeCounts { hits: 2, misses: 1, stores: 1 });
        assert_eq!(shared.stats().hits, 2);
    }

    #[test]
    fn metered_cache_counts_hits_and_misses_and_delegates() {
        let registry = MetricsRegistry::new();
        let tenant = Arc::new(LayerMeters::new(&registry, "t", CacheLayer::Fitness));
        let shared = Arc::new(ShardedFitnessCache::new(100));
        let view = fitness_view(&shared, &tenant);
        let (key, cost) = cost_for(8, 4);
        assert!(view.lookup(key).is_none());
        view.store(key, cost);
        assert!(view.lookup(key).is_some(), "store must delegate to the shared cache");
        assert!(shared.lookup(key).is_some());
        assert_eq!(view.counts(), ProbeCounts { hits: 1, misses: 1, stores: 1 });
        assert_eq!(tenant.counts(), view.counts());
        let text = registry.render();
        for series in [
            "digamma_cache_probes_total{cache=\"fitness\",result=\"hit\",tenant=\"t\"} 1",
            "digamma_cache_probes_total{cache=\"fitness\",result=\"miss\",tenant=\"t\"} 1",
            "digamma_cache_probe_seconds_count{cache=\"fitness\"}",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
    }

    #[test]
    fn metered_genome_memo_counts_hits_and_misses_and_delegates() {
        let problem = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency);
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::SmallRng::seed_from_u64(5)
        };
        let genome = digamma_encoding::Genome::random(
            &mut rng,
            problem.unique_layers(),
            problem.platform(),
            2,
        );
        let key = problem.genome_key(&genome);
        let evaluation = Arc::new(problem.evaluate(&genome));

        let registry = MetricsRegistry::new();
        let tenant = Arc::new(LayerMeters::new(&registry, "t", CacheLayer::Genome));
        let shared = Arc::new(ShardedGenomeMemo::new(64));
        let view = JobCacheView::new(Arc::clone(&shared), Arc::clone(&tenant));
        assert!(view.lookup(key).is_none());
        view.store(key, &evaluation);
        assert!(view.lookup(key).is_some(), "store must delegate to the shared memo");
        assert!(shared.lookup(key).is_some());
        assert_eq!(view.counts(), ProbeCounts { hits: 1, misses: 1, stores: 1 });
        assert_eq!(tenant.counts(), view.counts());
        let text = registry.render();
        for series in [
            "digamma_genome_memo_probes_total{result=\"hit\",tenant=\"t\"} 1",
            "digamma_genome_memo_probes_total{result=\"miss\",tenant=\"t\"} 1",
            "digamma_cache_probe_seconds_count{cache=\"genome\"}",
        ] {
            assert!(text.contains(series), "missing {series} in:\n{text}");
        }
        assert!(!text.contains("digamma_cache_probes_total"), "{text}");
    }

    #[test]
    fn shard_count_rounds_to_power_of_two() {
        let cache = ShardedFitnessCache::with_shards(100, 3);
        assert_eq!(cache.memo.shards.len(), 4);
        assert!(cache.capacity() >= 100);
        assert!(ShardedFitnessCache::with_shards(10, 0).capacity() >= 10);
    }

    #[test]
    fn entries_snapshot_round_trips_through_a_fresh_cache() {
        let cache = ShardedFitnessCache::new(100);
        let pairs: Vec<_> = [(2, 2), (4, 2), (8, 4)].map(|(r, c)| cost_for(r, c)).into();
        for &(key, cost) in &pairs {
            cache.store(key, cost);
        }
        let mut exported = cache.entries();
        assert_eq!(exported.len(), pairs.len());
        // Re-import into a fresh cache: lookups serve identical costs.
        let fresh = ShardedFitnessCache::new(100);
        exported.sort_by_key(|(k, _)| *k);
        for &(key, cost) in &exported {
            fresh.store(key, cost);
        }
        for &(key, cost) in &pairs {
            let back = fresh.lookup(key).expect("re-imported");
            assert_eq!(back.latency_cycles.to_bits(), cost.latency_cycles.to_bits());
        }
    }

    #[test]
    fn genome_memo_shares_machinery_and_counts() {
        let problem = CoOptProblem::new(zoo::ncf(), Platform::edge(), Objective::Latency);
        let mut rng = {
            use rand::SeedableRng;
            rand::rngs::SmallRng::seed_from_u64(3)
        };
        let genome = digamma_encoding::Genome::random(
            &mut rng,
            problem.unique_layers(),
            problem.platform(),
            2,
        );
        let key = problem.genome_key(&genome);
        let evaluation = Arc::new(problem.evaluate(&genome));
        let memo = Arc::new(ShardedGenomeMemo::new(64));
        assert!(memo.lookup(key).is_none());
        memo.store(key, &evaluation);
        let back = memo.lookup(key).expect("stored");
        assert_eq!(*back, *evaluation);
        assert_eq!((memo.stats().hits, memo.stats().misses), (1, 1));
        assert_eq!(memo.stats().insertions, 1);
        assert_eq!(memo.len(), 1);
        assert!(memo.capacity() >= 64);
    }
}
