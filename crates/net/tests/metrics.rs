//! `/metrics` over real sockets: the exposition parses, counters move,
//! label escaping survives hostile configuration values, tenant labels
//! appear only for tenants that actually did work, and every `/stats`
//! tenant counter equals the series that counts the same events.

use digamma_net::{client, NetServer, ShutdownHandle};
use digamma_obs::parse_text;
use digamma_server::textio::{parse_sections, Section};
use digamma_server::{JobRegistry, ServerConfig, TenantSet};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

struct Service {
    addr: String,
    handle: ShutdownHandle,
    serving: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Service {
    fn start(config: ServerConfig, tenants: TenantSet) -> Service {
        let config = ServerConfig { tenants, ..config };
        let registry = Arc::new(JobRegistry::start(config, None).unwrap());
        let server = NetServer::bind("127.0.0.1:0", registry).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.shutdown_handle().unwrap();
        let serving = std::thread::spawn(move || server.serve());
        Service { addr, handle, serving: Some(serving) }
    }

    fn scrape(&self, token: Option<&str>) -> String {
        client::get_as(&self.addr, "/metrics", token).unwrap()
    }

    fn wait_status(&self, id: u64, wanted: &str, token: Option<&str>) {
        for _ in 0..600 {
            let body = client::get_as(&self.addr, &format!("/jobs/{id}"), token).unwrap();
            if body.contains(&format!("status = {wanted}")) {
                return;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        panic!("job {id} never reached status {wanted}");
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.handle.shutdown();
        if let Some(serving) = self.serving.take() {
            let _ = serving.join();
        }
    }
}

fn small_job(name: &str, tenant: Option<&str>) -> String {
    let tenant = tenant.map_or_else(String::new, |t| format!("tenant = {t}\n"));
    format!("[job]\nname = {name}\nmodel = ncf\nbudget = 96\npopulation = 8\nseed = 4\n{tenant}")
}

fn series_total(samples: &[digamma_obs::Sample], name: &str) -> f64 {
    samples.iter().filter(|s| s.name == name).map(|s| s.value).sum()
}

fn submitted_id(accepted: &str) -> u64 {
    accepted.lines().find_map(|l| l.strip_prefix("id = ")?.trim().parse().ok()).unwrap()
}

/// The `[tenant <id>]` section of a `/stats` body.
fn tenant_section(stats: &str, tenant: &str) -> Section {
    parse_sections(stats)
        .unwrap()
        .into_iter()
        .find(|s| s.name == format!("tenant {tenant}"))
        .unwrap_or_else(|| panic!("no [tenant {tenant}] in:\n{stats}"))
}

fn field(section: &Section, key: &str) -> u64 {
    section.get(key).and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("no {key}"))
}

/// Labels (besides `tenant`) that pick one series out of a family.
type Labels = &'static [(&'static str, &'static str)];

/// Every `/stats` tenant field that has a `/metrics` series, with the
/// series that counts the same events.
const LEDGER_SERIES: [(&str, &str, Labels); 7] = [
    ("done", "digamma_jobs_completed_total", &[("status", "done")]),
    ("cancelled", "digamma_jobs_completed_total", &[("status", "cancelled")]),
    ("failed", "digamma_jobs_completed_total", &[("status", "panicked")]),
    ("cache_hits", "digamma_cache_probes_total", &[("cache", "fitness"), ("result", "hit")]),
    ("cache_misses", "digamma_cache_probes_total", &[("cache", "fitness"), ("result", "miss")]),
    ("genome_hits", "digamma_genome_memo_probes_total", &[("result", "hit")]),
    ("genome_misses", "digamma_genome_memo_probes_total", &[("result", "miss")]),
];

#[test]
fn scrape_parses_and_request_counters_increase_across_submits() {
    let config = ServerConfig { workers: 2, ..ServerConfig::default() };
    let service = Service::start(config, TenantSet::default());

    // First scrape: valid exposition with the right content type, the
    // process gauges already present.
    let response = client::request(&service.addr, "GET", "/metrics", None).unwrap();
    assert_eq!(response.status, 200);
    assert_eq!(response.header("content-type"), Some("text/plain; version=0.0.4; charset=utf-8"));
    let first = parse_text(&response.body).expect("exposition must parse");
    assert!(first.iter().any(|s| s.name == "digamma_process_uptime_seconds"), "{}", response.body);
    assert!(first.iter().any(|s| s.name == "digamma_workers" && s.value == 2.0));

    // Run a job; every lifecycle family must move and the HTTP counter
    // must be strictly larger than before (monotonic, and our own
    // requests count).
    let before = series_total(&first, "digamma_http_requests_total");
    let accepted = client::post(&service.addr, "/jobs", Some(&small_job("scraped", None))).unwrap();
    let id: u64 =
        accepted.lines().find_map(|l| l.strip_prefix("id = ")?.trim().parse().ok()).unwrap();
    service.wait_status(id, "done", None);

    let samples = parse_text(&service.scrape(None)).expect("exposition must parse");
    let after = series_total(&samples, "digamma_http_requests_total");
    assert!(after > before, "request counter must increase: {before} -> {after}");
    let completed = samples
        .iter()
        .find(|s| {
            s.name == "digamma_jobs_completed_total"
                && s.label("tenant") == Some("default")
                && s.label("status") == Some("done")
        })
        .expect("completed counter");
    assert!(completed.value >= 1.0);
    for family in [
        "digamma_evals_total",
        "digamma_eval_batch_seconds_count",
        "digamma_job_run_seconds_count",
        "digamma_job_queue_wait_seconds_count",
        "digamma_scheduler_claim_seconds_count",
        "digamma_cache_probes_total",
        "digamma_http_request_seconds_count",
        "digamma_http_bytes_in_total",
        "digamma_http_bytes_out_total",
    ] {
        assert!(samples.iter().any(|s| s.name == family), "missing family {family}");
    }
    let status_ok = samples.iter().any(|s| {
        s.name == "digamma_http_requests_total"
            && s.label("endpoint") == Some("/jobs/{id}")
            && s.label("status") == Some("200")
    });
    assert!(status_ok, "status polling must be labelled by route template");

    // A second scrape is again strictly larger: the counter admits no
    // resets while the service lives.
    let again = parse_text(&service.scrape(None)).unwrap();
    assert!(series_total(&again, "digamma_http_requests_total") > after);
}

#[test]
fn label_values_with_spaces_quotes_and_backslashes_escape_per_exposition_rules() {
    let dir =
        std::env::temp_dir().join(format!("digamma metrics \"esc\\ape\"-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let config = ServerConfig {
        workers: 1,
        checkpoint_dir: Some(PathBuf::from(&dir)),
        ..ServerConfig::default()
    };
    let service = Service::start(config, TenantSet::default());
    let text = service.scrape(None);
    // The raw exposition carries the escape sequences...
    assert!(text.contains("\\\""), "quotes must be escaped in:\n{text}");
    assert!(text.contains("\\\\"), "backslashes must be escaped in:\n{text}");
    // ...and a conforming parser recovers the original value exactly.
    let samples = parse_text(&text).expect("escaped exposition must parse");
    let info =
        samples.iter().find(|s| s.name == "digamma_process_info").expect("process info gauge");
    assert_eq!(info.label("checkpoint_dir"), Some(dir.to_str().unwrap()));
    drop(service);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn tenant_labelled_series_appear_only_for_tenants_that_did_work() {
    let roster = TenantSet::parse("[tenant]\nid = alpha\n\n[tenant]\nid = idle\n").unwrap();
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let service = Service::start(config, roster);

    let accepted =
        client::post(&service.addr, "/jobs", Some(&small_job("active", Some("alpha")))).unwrap();
    let id: u64 =
        accepted.lines().find_map(|l| l.strip_prefix("id = ")?.trim().parse().ok()).unwrap();
    service.wait_status(id, "done", None);

    let samples = parse_text(&service.scrape(None)).unwrap();
    assert!(
        samples.iter().any(|s| s.label("tenant") == Some("alpha")),
        "the working tenant must have labelled series"
    );
    assert!(
        !samples.iter().any(|s| s.label("tenant") == Some("idle")),
        "a rostered-but-idle tenant must not mint series"
    );
}

#[test]
fn metrics_respect_the_bearer_token_gate() {
    let roster = TenantSet::parse("[tenant]\nid = alpha\ntoken = hunter2\n").unwrap();
    let config = ServerConfig { workers: 1, ..ServerConfig::default() };
    let service = Service::start(config, roster);

    let denied = client::request(&service.addr, "GET", "/metrics", None).unwrap();
    assert_eq!(denied.status, 401, "unauthenticated scrape must bounce");
    let allowed =
        client::request_with_headers(&service.addr, "GET", "/metrics", None, Some("hunter2"), &[])
            .unwrap();
    assert_eq!(allowed.status, 200);
    assert!(parse_text(&allowed.body).is_ok());
    // The denial itself is visible in the next authorized scrape.
    let samples = parse_text(&service.scrape(Some("hunter2"))).unwrap();
    let unauthorized = samples
        .iter()
        .any(|s| s.name == "digamma_http_requests_total" && s.label("status") == Some("401"));
    assert!(unauthorized, "401s must be counted too");
}

#[test]
fn no_metrics_mode_serves_an_empty_exposition() {
    let config = ServerConfig { workers: 1, metrics_enabled: false, ..ServerConfig::default() };
    let service = Service::start(config, TenantSet::default());
    let accepted = client::post(&service.addr, "/jobs", Some(&small_job("dark", None))).unwrap();
    let id: u64 =
        accepted.lines().find_map(|l| l.strip_prefix("id = ")?.trim().parse().ok()).unwrap();
    service.wait_status(id, "done", None);
    assert_eq!(service.scrape(None), "", "disabled metrics must render nothing");
}

#[test]
fn stats_tenant_counters_equal_their_metrics_series() {
    // `parked` may never run a job, so its submission stays queued
    // until it is cancelled.
    let roster =
        TenantSet::parse("[tenant]\nid = alpha\n\n[tenant]\nid = parked\nmax_running = 0\n")
            .unwrap();
    let service = Service::start(ServerConfig { workers: 1, ..ServerConfig::default() }, roster);
    let finished = submitted_id(
        &client::post(&service.addr, "/jobs", Some(&small_job("finished", Some("alpha")))).unwrap(),
    );
    service.wait_status(finished, "done", None);
    let parked = submitted_id(
        &client::post(&service.addr, "/jobs", Some(&small_job("parked", Some("parked")))).unwrap(),
    );
    service.wait_status(parked, "queued", None);
    client::post(&service.addr, &format!("/jobs/{parked}/cancel"), None).unwrap();
    service.wait_status(parked, "cancelled", None);

    let stats = client::get(&service.addr, "/stats").unwrap();
    let samples = parse_text(&service.scrape(None)).unwrap();
    for tenant in ["alpha", "parked"] {
        let section = tenant_section(&stats, tenant);
        for (key, name, labels) in LEDGER_SERIES {
            let series = samples
                .iter()
                .find(|s| {
                    s.name == name
                        && s.label("tenant") == Some(tenant)
                        && labels.iter().all(|&(k, v)| s.label(k) == Some(v))
                })
                .map_or(0, |s| s.value as u64);
            assert_eq!(field(&section, key), series, "tenant {tenant} `{key}` vs {name}");
        }
    }
    let alpha = tenant_section(&stats, "alpha");
    assert_eq!(field(&alpha, "done"), 1);
    assert!(field(&alpha, "cache_misses") > 0 && field(&alpha, "genome_misses") > 0);
    assert_eq!(field(&tenant_section(&stats, "parked"), "cancelled"), 1);

    // With the registry off, the ledger still counts: `/stats` moves
    // while `/metrics` stays empty.
    let config = ServerConfig { workers: 1, metrics_enabled: false, ..ServerConfig::default() };
    let dark = Service::start(config, TenantSet::default());
    let id =
        submitted_id(&client::post(&dark.addr, "/jobs", Some(&small_job("dark", None))).unwrap());
    dark.wait_status(id, "done", None);
    let section = tenant_section(&client::get(&dark.addr, "/stats").unwrap(), "default");
    assert_eq!(field(&section, "done"), 1);
    assert!(field(&section, "cache_misses") > 0 && field(&section, "genome_misses") > 0);
    assert_eq!(dark.scrape(None), "");
}
