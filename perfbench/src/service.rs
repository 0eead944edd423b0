//! `service-durable`: an in-process `digamma-netd` (`JobRegistry` +
//! `NetServer`, default config plus a checkpoint directory and one
//! worker) under closed-loop load from two clients over loopback
//! sockets.
//!
//! An earlier, untimed life of the same generator under another seed
//! leaves a checkpoint directory behind. Each timed *life* restarts the
//! daemon on a fresh copy of it (journal replay plus fitness-memo warm
//! start: the set-up), serves the same fixed job sequence, and stops.
//! Lives repeat until the time is up, so each is the same episode and
//! the reported figures are medians over lives.

use crate::common::{
    bench_tracer, cache_delta, geomean, layer_table, median, peak_rss_mb, percentile, ratio,
    release_freed_memory, write_trace, Gates, Options, Outcome, Replay, SplitMix,
};
use digamma::{CoOptProblem, Gamma, GammaConfig};
use digamma_costmodel::EvalScratch;
use digamma_encoding::Genome;
use digamma_net::{client, httpio::Response, NetServer, ShutdownHandle};
use digamma_obs::{parse_text, Sample, SpanContext, Tracer};
use digamma_server::textio::{parse_sections, Section};
use digamma_server::{render_job, CacheStats, JobAlgorithm, JobRegistry, JobSpec, ServerConfig};
use digamma_workload::zoo;
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub const MODELS: &[&str] = &["ncf", "dlrm", "mbnet-v2", "bert"];
pub const ALGORITHMS: &[&str] = &["digamma", "gamma:medium", "cma"];
pub const BUDGET: usize = 600;
/// One search worker leaves the second core to the clients and the
/// daemon's connection threads. With two busy workers a woken request
/// thread often waited for the next scheduler tick (4 ms), and the
/// request latency tail measured the scheduler, not the daemon.
pub const WORKERS: usize = 1;
pub const CLIENTS: usize = 2;
/// Jobs the earlier, untimed life completes. Kept small: every spill
/// rewrites the whole memo, so a bigger warm start slows every life.
const EARLIER_LIFE_JOBS: usize = 4;
/// Jobs per timed life: one block of 12 fresh specs plus 4 repeats.
const LIFE_JOBS: usize = 16;
/// Control-plane requests: status, analytics, stats and metrics.
/// Event streams last as long as the job and are excluded.
const CONTROL: &[&str] = &["status", "analytics", "stats", "metrics"];

/// The seeded job stream. Every fourth job repeats the spec of a
/// seeded-random earlier job; the others are fresh, with fresh search
/// seeds, and each block of 12 fresh jobs covers every model ×
/// algorithm pair once in a fixed order. Spills grow with every insert,
/// so a seeded order would let the seed decide how early the heavy
/// inserters run; a fixed one keeps the mix and its order steady.
#[derive(Debug, Clone)]
struct Generator {
    seed: u64,
    prefix: &'static str,
}

impl Generator {
    fn rng(&self, salt: u64) -> SplitMix {
        SplitMix::new(self.seed.wrapping_mul(0x100_0000_01b3) ^ salt)
    }

    /// Job `i` and the index of the first job with the same spec.
    fn spec(&self, i: usize) -> (JobSpec, usize) {
        if i % 4 == 3 {
            let (mut spec, root) = self.spec(self.rng(i as u64).below(i as u64) as usize);
            spec.name = format!("{}-{i}", self.prefix);
            return (spec, root);
        }
        let fresh = i - (i + 1) / 4;
        let model = MODELS[fresh % MODELS.len()];
        let algorithm = ALGORITHMS[(fresh / MODELS.len()) % ALGORITHMS.len()];
        let mut spec = JobSpec::new(
            format!("{}-{i}", self.prefix),
            zoo::by_name(model).expect("zoo model"),
            JobSpec::platform_by_name("edge").expect("edge"),
            digamma::Objective::Latency,
            JobAlgorithm::parse(algorithm).expect("known algorithm"),
        );
        spec.budget = BUDGET;
        spec.seed = self.rng(i as u64).search_seed();
        (spec, i)
    }
}

fn config(dir: &Path) -> ServerConfig {
    ServerConfig {
        workers: WORKERS,
        checkpoint_dir: Some(dir.to_path_buf()),
        ..ServerConfig::default()
    }
}

/// What one client saw of one job.
#[derive(Debug, Clone, Default)]
struct JobRecord {
    index: usize,
    root: usize,
    done: bool,
    submit_to_done_ms: f64,
    report: HashMap<String, String>,
    job_status: String,
}

impl JobRecord {
    fn field(&self, key: &str) -> f64 {
        self.report.get(key).and_then(|v| v.parse().ok()).unwrap_or(0.0)
    }
}

/// Per-kind request latencies and counts, shared by both clients.
#[derive(Debug, Default)]
struct Requests {
    ms: HashMap<&'static str, Vec<f64>>,
    sent: u64,
    non_2xx: u64,
    errors: Vec<String>,
}

impl Requests {
    fn record(&mut self, kind: &'static str, ms: f64) {
        self.sent += 1;
        self.ms.entry(kind).or_default().push(ms);
    }

    fn of(&self, kind: &str) -> &[f64] {
        self.ms.get(kind).map_or(&[], |v| &v[..])
    }
}

struct Client<'a> {
    addr: &'a str,
    requests: &'a Mutex<Requests>,
    tracer: &'a Tracer,
}

impl Client<'_> {
    fn call(
        &self,
        kind: &'static str,
        method: &str,
        path: &str,
        body: Option<&str>,
        parent: Option<SpanContext>,
    ) -> Option<Response> {
        let _span = parent.map(|p| self.tracer.start_child(kind, p));
        let started = Instant::now();
        let result = client::request(self.addr, method, path, body);
        let ms = started.elapsed().as_secs_f64() * 1e3;
        let mut requests = self.requests.lock().expect("request log");
        requests.record(kind, ms);
        match result {
            Ok(response) if (200..300).contains(&response.status) => Some(response),
            Ok(response) => {
                requests.non_2xx += 1;
                requests.errors.push(format!("{kind} {path}: HTTP {}", response.status));
                None
            }
            Err(e) => {
                requests.errors.push(format!("{kind} {path}: {e}"));
                None
            }
        }
    }

    /// Submit, stream events to the end, then read status, analytics,
    /// `/stats` and `/metrics`.
    fn job(&self, index: usize, spec: &JobSpec, traced: bool) -> JobRecord {
        let mut record = JobRecord { index, root: index, ..JobRecord::default() };
        let job_span = traced.then(|| {
            let mut span = self.tracer.start_root("client.job");
            span.set_attr("name", spec.name.clone());
            span
        });
        let ctx = job_span.as_ref().and_then(|s| s.context());
        let manifest = render_job(spec).render();
        let started = Instant::now();
        let Some(accepted) = self.call("submit", "POST", "/jobs", Some(&manifest), ctx) else {
            return record;
        };
        let Some(id) = section_map(&accepted.body, "submitted").remove("id") else {
            return record;
        };
        let events_span = ctx.map(|p| self.tracer.start_child("events", p));
        let events_started = Instant::now();
        let streamed = client::stream_events(self.addr, id.parse().unwrap_or(0), 0, |line| {
            !line.starts_with("end ")
        });
        let done_at = Instant::now();
        drop(events_span);
        let ended_done =
            matches!(&streamed, Ok(lines) if lines.last().is_some_and(|l| l == "end status=done"));
        {
            let mut requests = self.requests.lock().expect("request log");
            requests.record("events", (done_at - events_started).as_secs_f64() * 1e3);
            match &streamed {
                Err(e) => requests.errors.push(format!("events {id}: {e}")),
                Ok(lines) if !ended_done => {
                    requests.errors.push(format!("events {id}: ended {:?}", lines.last()));
                }
                Ok(_) => {}
            }
        }
        record.submit_to_done_ms = (done_at - started).as_secs_f64() * 1e3;
        if let Some(view) = self.call("status", "GET", &format!("/jobs/{id}"), None, ctx) {
            record.job_status = section_map(&view.body, "job").remove("status").unwrap_or_default();
            record.report = section_map(&view.body, "report");
        }
        record.done = ended_done && record.job_status == "done";
        let _ = self.call("analytics", "GET", &format!("/jobs/{id}/analytics"), None, ctx);
        let _ = self.call("stats", "GET", "/stats", None, ctx);
        let _ = self.call("metrics", "GET", "/metrics", None, ctx);
        record
    }
}

fn section_map(body: &str, name: &str) -> HashMap<String, String> {
    parse_sections(body)
        .ok()
        .and_then(|sections| sections.into_iter().find(|s: &Section| s.name == name))
        .map(|s| s.entries.into_iter().collect())
        .unwrap_or_default()
}

/// A running daemon: registry, listener thread, shutdown handle.
struct Daemon {
    addr: String,
    registry: Arc<JobRegistry>,
    shutdown: ShutdownHandle,
    serving: JoinHandle<std::io::Result<()>>,
}

impl Daemon {
    /// Journal replay, warm start and bind: the timed set-up.
    fn start(dir: &Path) -> Result<(Arc<JobRegistry>, NetServer), String> {
        let registry = Arc::new(
            JobRegistry::start(config(dir), Some(dir.join("jobs.journal")))
                .map_err(|e| format!("cannot start registry: {e}"))?,
        );
        let server = NetServer::bind("127.0.0.1:0", Arc::clone(&registry))
            .map_err(|e| format!("cannot bind: {e}"))?;
        Ok((registry, server))
    }

    fn serve(registry: Arc<JobRegistry>, server: NetServer) -> Result<Daemon, String> {
        let addr = server.local_addr().map_err(|e| e.to_string())?.to_string();
        let shutdown = server.shutdown_handle().map_err(|e| e.to_string())?;
        let serving = std::thread::spawn(move || server.serve());
        Ok(Daemon { addr, registry, shutdown, serving })
    }

    /// Stops the listener; `serve` then shuts the registry down (final
    /// cache spill included) before returning.
    fn stop(self) -> Result<(), String> {
        self.shutdown.shutdown();
        drop(self.registry);
        match self.serving.join() {
            Ok(Ok(())) => Ok(()),
            Ok(Err(e)) => Err(format!("serve failed: {e}")),
            Err(_) => Err("serve thread panicked".to_owned()),
        }
    }
}

/// Closed-loop load: `CLIENTS` threads, each with one request in
/// flight, until `jobs` jobs were taken.
fn load(
    addr: &str,
    generator: &Generator,
    jobs: usize,
    traced: bool,
    tracer: &Tracer,
) -> (Vec<JobRecord>, Requests, Duration) {
    let next = AtomicUsize::new(0);
    let requests = Mutex::new(Requests::default());
    let records = Mutex::new(Vec::new());
    let started = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..CLIENTS {
            scope.spawn(|| {
                let client = Client { addr, requests: &requests, tracer };
                let mut mine = Vec::new();
                loop {
                    let index = next.fetch_add(1, Ordering::Relaxed);
                    if index >= jobs {
                        break;
                    }
                    let (spec, root) = generator.spec(index);
                    let mut record = client.job(index, &spec, traced);
                    record.root = root;
                    mine.push(record);
                }
                records.lock().expect("job records").extend(mine);
            });
        }
    });
    let wall = started.elapsed();
    let mut records = records.into_inner().expect("job records");
    records.sort_by_key(|r| r.index);
    (records, requests.into_inner().expect("request log"), wall)
}

fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}

/// One timed life of the daemon.
struct Life {
    traced: bool,
    setup_s: f64,
    wall: Duration,
    records: Vec<JobRecord>,
    requests: Requests,
    genome: CacheStats,
    layer: CacheStats,
    warm_entries: u64,
    replayed: usize,
    /// The end-of-life `/metrics` scrape (traced lives only).
    scrape: Vec<Sample>,
}

impl Life {
    fn run(
        base: &Path,
        dir: &Path,
        generator: &Generator,
        traced: bool,
        tracer: &Tracer,
    ) -> Result<Life, String> {
        copy_dir(base, dir).map_err(|e| format!("copy checkpoint dir: {e}"))?;
        let started = Instant::now();
        let (registry, server) = Daemon::start(dir)?;
        let setup_s = started.elapsed().as_secs_f64();
        let replayed = registry.stats().replayed_jobs;
        let (genome0, layer0) =
            (registry.server().genome_memo_stats(), registry.server().cache_stats());
        let daemon = Daemon::serve(registry, server)?;
        let (records, requests, wall) = load(&daemon.addr, generator, LIFE_JOBS, traced, tracer);
        let server = daemon.registry.server();
        let genome = cache_delta(server.genome_memo_stats(), genome0);
        let layer = cache_delta(server.cache_stats(), layer0);
        let scrape = if traced {
            let body = client::get(&daemon.addr, "/metrics").map_err(|e| format!("scrape: {e}"))?;
            parse_text(&body).map_err(|e| format!("scrape: {e}"))?
        } else {
            Vec::new()
        };
        daemon.stop()?;
        let _ = std::fs::remove_dir_all(dir);
        release_freed_memory();
        Ok(Life {
            traced,
            setup_s,
            wall,
            records,
            requests,
            genome,
            layer,
            warm_entries: layer0.map_or(0, |s| s.entries),
            replayed,
            scrape,
        })
    }

    fn done(&self) -> impl Iterator<Item = &JobRecord> {
        self.records.iter().filter(|r| r.done)
    }

    fn sum(&self, key: &str) -> f64 {
        self.done().map(|r| r.field(key)).sum()
    }

    fn scraped(&self, name: &str) -> f64 {
        self.scrape.iter().filter(|s| s.name == name).map(|s| s.value).sum()
    }
}

/// Re-scores a reported best genome on a fresh, cache-less problem and
/// compares it at the 7 significant digits the report prints.
fn rescore_matches(spec: &JobSpec, record: &JobRecord) -> Result<(), String> {
    let text = record.report.get("best_genome").ok_or("no best_genome")?;
    let printed = record.report.get("best_cost").ok_or("no best_cost")?;
    let genome = Genome::from_text(text).map_err(|e| format!("bad best_genome: {e}"))?;
    let fresh = CoOptProblem::new(spec.model.clone(), spec.platform.clone(), spec.objective);
    let problem = match spec.algorithm {
        JobAlgorithm::Gamma(preset) => {
            let hw = preset.build(&spec.platform, fresh.evaluator().area_model());
            Gamma::new(GammaConfig::default()).searcher(&fresh, &hw).0
        }
        _ => fresh,
    };
    let rescored = format!("{:.6e}", problem.evaluate(&genome).cost);
    if &rescored == printed {
        Ok(())
    } else {
        Err(format!("best re-scores to {rescored}, report says {printed}"))
    }
}

/// The best a job reported, as the fields a repeat must reproduce.
fn best_of(record: &JobRecord) -> [Option<&String>; 3] {
    ["best_cost", "best_genome", "samples"].map(|k| record.report.get(k))
}

fn check(gates: &mut Gates, generator: &Generator, life: &Life, first: Option<&Life>) {
    gates.attempted += life.records.len() as u64 + life.requests.sent;
    for e in &life.requests.errors {
        gates.fail(e.clone());
    }
    for r in &life.records {
        let (spec, _) = generator.spec(r.index);
        gates.check(r.done, || {
            format!("{}: did not reach done (status {:?})", spec.name, r.job_status)
        });
        if !r.done {
            continue;
        }
        if let Err(e) = rescore_matches(&spec, r) {
            gates.fail(format!("{}: {e}", spec.name));
        }
        if r.root != r.index {
            let root = &life.records[r.root];
            gates.check(best_of(root) == best_of(r), || {
                format!("{}: repeat of job {} differs", spec.name, r.root)
            });
        }
        // Every life serves the same specs, so bests must match life 0.
        if let Some(first) = first {
            gates.check(best_of(&first.records[r.index]) == best_of(r), || {
                format!("{}: best differs from the first life", spec.name)
            });
        }
    }
}

pub fn run(opts: &Options) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let work = opts.out_dir.join(format!("service-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    let result = run_in(opts, &work, &mut out);
    let _ = std::fs::remove_dir_all(&work);
    result.map(|()| out)
}

fn run_in(opts: &Options, work: &Path, out: &mut Outcome) -> Result<(), String> {
    let tracer = bench_tracer();

    // The earlier life: same generator, another seed, untimed.
    let base = work.join("base");
    std::fs::create_dir_all(&base).map_err(|e| e.to_string())?;
    let (registry, server) = Daemon::start(&base)?;
    let earlier = Daemon::serve(registry, server)?;
    let earlier_gen = Generator { seed: opts.seed ^ 0x00ea_717e, prefix: "earlier" };
    let (earlier_jobs, earlier_requests, _) =
        load(&earlier.addr, &earlier_gen, EARLIER_LIFE_JOBS, false, &tracer);
    earlier.stop()?;
    if earlier_jobs.iter().any(|r| !r.done) || !earlier_requests.errors.is_empty() {
        return Err(format!("earlier life failed: {:?}", earlier_requests.errors.first()));
    }
    release_freed_memory();

    // Timed lives, alternating untraced and traced in a traced run.
    let generator = Generator { seed: opts.seed, prefix: "job" };
    let deadline = opts.deadline(Instant::now());
    let mut lives: Vec<Life> = Vec::new();
    while lives.len() < 2 || Instant::now() < deadline {
        let traced = opts.trace && lives.len() % 2 == 1;
        let dir = work.join(format!("life-{}", lives.len()));
        let life = Life::run(&base, &dir, &generator, traced, &tracer)?;
        check(&mut out.gates, &generator, &life, lives.first());
        lives.push(life);
    }

    // Rates and job latencies are taken per life, then the median over
    // the untraced lives, so one disturbed life does not set a tail.
    let untraced: Vec<&Life> = lives.iter().filter(|l| !l.traced).collect();
    let per_life =
        |f: &dyn Fn(&Life) -> f64| median(&untraced.iter().map(|l| f(l)).collect::<Vec<f64>>());
    let job_ms = |l: &Life| l.done().map(|r| r.submit_to_done_ms).collect::<Vec<f64>>();
    // Request latencies are pooled over the untraced lives per kind, and
    // the kinds' percentiles combined by geomean: each kind has a cost
    // of its own, so a percentile of all kinds pooled would fall in a
    // gap between two of them and jump with their mix.
    let control_ms = |kind: &str| {
        untraced.iter().flat_map(|l| l.requests.of(kind).to_vec()).collect::<Vec<f64>>()
    };
    let control_pct = |q: f64| {
        geomean(&CONTROL.iter().map(|k| percentile(&control_ms(k), q)).collect::<Vec<_>>())
    };
    // One of each model × algorithm pair: the fresh jobs of the first
    // block (every life reproduces them; the gates check it).
    let head: Vec<f64> = lives[0]
        .done()
        .filter(|r| r.root == r.index)
        .map(|r| r.field("best_latency_cycles"))
        .collect();
    let e = &mut out.end_to_end;
    let jobs_per_s = |l: &Life| l.done().count() as f64 / l.wall.as_secs_f64();
    e.push("evals_per_s", per_life(&|l| l.sum("samples") / l.wall.as_secs_f64()), "genomes/s");
    e.push("best_cost_geomean", geomean(&head), "cycles");
    e.push("jobs_per_s", per_life(&jobs_per_s), "jobs/s");
    e.push("job_latency_p50_ms", per_life(&|l| percentile(&job_ms(l), 0.5)), "ms");
    e.push("job_latency_p95_ms", per_life(&|l| percentile(&job_ms(l), 0.95)), "ms");
    e.push("request_latency_p50_ms", control_pct(0.5), "ms");
    e.push("setup_s", median(&lives.iter().map(|l| l.setup_s).collect::<Vec<_>>()), "s");
    e.push("peak_rss_mb", peak_rss_mb(), "MiB");
    out.ungated.push("request_latency_p90_ms", control_pct(0.9), "ms");

    let first = &lives[0];
    let lookups = |s: &CacheStats| (s.hits + s.misses) as f64;
    let layer_lookups = |l: &Life| l.sum("cache_hits") + l.sum("cache_misses");
    let capacity = ServerConfig::default().genome_cache_capacity as f64;
    let repeats = first.records.iter().filter(|r| r.root != r.index).count();
    out.notes.push(format!(
        "service-durable load: closed loop, {CLIENTS} clients, one connection each (one request in \
         flight per client); ROADMAP's 4- and 16-client points are left out: on 2 cores they would \
         measure the scheduler"
    ));
    out.notes.push(format!(
        "service-durable: {} lives x {LIFE_JOBS} jobs ({} x {} at budget {BUDGET}, edge, latency) \
         on {WORKERS} worker; each restart replays {} journaled job(s) and warm-starts {} layer \
         reports left by a {EARLIER_LIFE_JOBS}-job earlier life",
        lives.len(),
        MODELS.join("/"),
        ALGORITHMS.join("/"),
        first.replayed,
        first.warm_entries
    ));
    out.notes.push(format!(
        "service-durable inputs (first life): repeated specs {:.3}; genome memo hit rate {:.3}; \
         layer cache hit rate {:.3}; dedupe ratio {:.3}; distinct genomes {} = {:.3} x \
         genome_cache_capacity",
        ratio(repeats as f64, first.records.len() as f64),
        ratio(first.genome.hits as f64, lookups(&first.genome)),
        ratio(first.layer.hits as f64, lookups(&first.layer)),
        ratio(first.sum("dedup_skipped"), first.sum("dedup_skipped") + layer_lookups(first)),
        first.genome.insertions,
        first.genome.insertions as f64 / capacity
    ));
    out.notes.push(format!(
        "service-durable samples: job latency n={LIFE_JOBS} per life (median over {} untraced \
         lives); request latency n={} per kind ({}) pooled over those lives",
        untraced.len(),
        control_ms(CONTROL[0]).len(),
        CONTROL.join("/")
    ));
    let per_kind: Vec<String> = CONTROL
        .iter()
        .map(|k| {
            let ms = control_ms(k);
            format!("{k} {:.3}/{:.3}", percentile(&ms, 0.5), percentile(&ms, 0.9))
        })
        .collect();
    out.notes.push(format!(
        "service-durable request latency p50/p90 ms per kind: {}",
        per_kind.join(", ")
    ));

    if opts.trace {
        let traced: Vec<&Life> = lives.iter().filter(|l| l.traced).collect();
        let n = traced.len().max(1) as f64;
        let sum = |f: &dyn Fn(&Life) -> f64| traced.iter().map(|l| f(l)).sum::<f64>();
        let pool =
            |f: &dyn Fn(&Life) -> Vec<f64>| traced.iter().flat_map(|l| f(l)).collect::<Vec<f64>>();
        let mut replay = Replay::default();
        let mut scratch = EvalScratch::new();
        for r in first.done() {
            let (spec, _) = generator.spec(r.index);
            let Some(genome) = r.report.get("best_genome").and_then(|t| Genome::from_text(t).ok())
            else {
                continue;
            };
            let problem =
                CoOptProblem::new(spec.model.clone(), spec.platform.clone(), spec.objective);
            for _ in 0..50 {
                replay.batch(&problem, std::slice::from_ref(&genome), &mut scratch);
            }
        }
        let samples = sum(&|l| l.sum("samples"));
        let eval_ms = sum(&|l| l.sum("eval_ms"));
        let wall_ms = sum(&|l| l.sum("wall_ms"));
        let dedup = sum(&|l| l.sum("dedup_skipped"));
        let probes = sum(&|l| layer_lookups(l));
        let layer_misses = sum(&|l| l.sum("cache_misses"));
        let covered_ns = sum(&|l| l.sum("genome_misses")) * replay.decode_ns()
            + (dedup + 2.0 * probes) * replay.key_ns()
            + layer_misses * replay.eval_ns();
        let stat = |f: &dyn Fn(&Life) -> u64| sum(&|l| f(l) as f64);
        let run_p50 = |alg: &str| {
            let ms = pool(&|l| {
                l.done()
                    .filter(|r| generator.spec(r.index).0.algorithm.to_string().starts_with(alg))
                    .map(|r| r.field("wall_ms"))
                    .collect()
            });
            percentile(&ms, 0.5)
        };
        let req_p50 = |kind: &str| percentile(&pool(&|l| l.requests.of(kind).to_vec()), 0.5);
        let traced_rate = median(&traced.iter().map(|l| jobs_per_s(l)).collect::<Vec<_>>());
        let spans =
            write_trace(&tracer, &opts.out_dir.join("trace-service-durable.json")).unwrap_or(0);
        out.per_layer = layer_table(&[
            ("costmodel.evals", layer_misses / n),
            ("costmodel.eval_ns", replay.eval_ns()),
            ("costmodel.key_ns", replay.key_ns()),
            ("encoding.decode_ns", replay.decode_ns()),
            ("core.problem.busy_s", eval_ms / 1e3 / n),
            ("core.problem.ns_per_genome", ratio(eval_ms * 1e6, samples)),
            ("core.problem.dedup_ratio", ratio(dedup, dedup + probes)),
            ("core.problem.other_share", 1.0 - ratio(covered_ns, eval_ms * 1e6)),
            ("core.ga.generations", sum(&|l| l.sum("generations")) / n),
            (
                "server.cache.genome_hit_rate",
                ratio(stat(&|l| l.genome.hits), stat(&|l| l.genome.hits + l.genome.misses)),
            ),
            (
                "server.cache.layer_hit_rate",
                ratio(stat(&|l| l.layer.hits), stat(&|l| l.layer.hits + l.layer.misses)),
            ),
            ("server.cache.genome_evictions", stat(&|l| l.genome.evictions) / n),
            ("server.cache.layer_evictions", stat(&|l| l.layer.evictions) / n),
            ("server.cache.genome_fill", stat(&|l| l.genome.insertions) / n / capacity),
            (
                "server.queue.wait_ms_p50",
                percentile(&pool(&|l| l.done().map(|r| r.field("queue_wait_ms")).collect()), 0.5),
            ),
            (
                "server.queue.claim_s",
                sum(&|l| l.scraped("digamma_scheduler_claim_seconds_sum")) / n,
            ),
            ("server.job.run_ms_p50.digamma", run_p50("digamma")),
            ("server.job.run_ms_p50.gamma", run_p50("gamma")),
            ("server.job.run_ms_p50.cma", run_p50("cma")),
            ("server.job.eval_share", ratio(eval_ms, wall_ms)),
            (
                "server.persist.checkpoint_s",
                sum(&|l| l.scraped("digamma_checkpoint_write_seconds_sum")) / n,
            ),
            ("server.persist.spill_s", sum(&|l| l.scraped("digamma_cache_spill_seconds_sum")) / n),
            ("server.persist.spills", sum(&|l| l.scraped("digamma_cache_spill_seconds_count")) / n),
            ("net.requests", stat(&|l| l.requests.sent) / n),
            ("net.non_2xx", stat(&|l| l.requests.non_2xx) / n),
            ("net.request_ms_p50.submit", req_p50("submit")),
            ("net.request_ms_p50.status", req_p50("status")),
            ("net.request_ms_p50.events", req_p50("events")),
            ("net.request_ms_p50.analytics", req_p50("analytics")),
            ("net.request_ms_p50.stats", req_p50("stats")),
            (
                "net.front_ms_p50",
                percentile(
                    &pool(&|l| {
                        l.done()
                            .map(|r| {
                                r.submit_to_done_ms - r.field("queue_wait_ms") - r.field("wall_ms")
                            })
                            .collect()
                    }),
                    0.5,
                ),
            ),
            ("trace.overhead_share", ratio(per_life(&jobs_per_s), traced_rate) - 1.0),
            ("trace.spans", spans as f64),
        ]);
    }
    Ok(())
}
