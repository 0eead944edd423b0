//! Wire integration for the search-analytics surface: a real daemon on
//! an ephemeral port, `GET /jobs/{id}/analytics` parsed through the
//! in-tree JSON parser, the `[analytics]` summary in `/stats`, the
//! per-operator counters in `/metrics`, and the auth/404 edges.

use digamma_net::{client, NetServer, ShutdownHandle};
use digamma_obs::{parse_json, JsonValue, OpKind};
use digamma_server::{JobRegistry, ServerConfig, TenantSet};
use std::sync::Arc;
use std::time::Duration;

struct Service {
    addr: String,
    handle: ShutdownHandle,
    serving: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Service {
    fn start(workers: usize, tenants: TenantSet) -> Service {
        let config = ServerConfig { workers, tenants, ..ServerConfig::default() };
        let registry = Arc::new(JobRegistry::start(config, None).unwrap());
        let server = NetServer::bind("127.0.0.1:0", registry).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = server.shutdown_handle().unwrap();
        let serving = std::thread::spawn(move || server.serve());
        Service { addr, handle, serving: Some(serving) }
    }

    fn submit(&self, manifest: &str, token: Option<&str>) -> u64 {
        let body = client::post_as(&self.addr, "/jobs", Some(manifest), token).unwrap();
        body.lines()
            .find_map(|l| l.strip_prefix("id = "))
            .and_then(|v| v.trim().parse().ok())
            .expect("submit returns an id")
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

    fn analytics(&self, id: u64, token: Option<&str>) -> JsonValue {
        let body = client::get_as(&self.addr, &format!("/jobs/{id}/analytics"), token).unwrap();
        parse_json(&body).expect("analytics body is valid JSON")
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

fn job(name: &str, budget: usize) -> String {
    format!("[job]\nname = {name}\nmodel = ncf\nbudget = {budget}\npopulation = 8\nseed = 4\n")
}

fn op_field(doc: &JsonValue, operator: &str, field: &str) -> u64 {
    doc.get("operators")
        .and_then(|v| v.as_arr())
        .expect("operators array")
        .iter()
        .find(|op| op.get("operator").and_then(|v| v.as_str()) == Some(operator))
        .unwrap_or_else(|| panic!("operator {operator} missing"))
        .get(field)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("{operator}.{field} missing"))
}

#[test]
fn analytics_document_for_a_completed_job() {
    let service = Service::start(1, TenantSet::default());
    let id = service.submit(&job("done-doc", 96), None);
    service.wait_status(id, "done", None);

    let doc = service.analytics(id, None);
    assert_eq!(doc.get("job").and_then(|v| v.as_u64()), Some(id));
    let generations = doc.get("generations").and_then(|v| v.as_arr()).unwrap();
    assert!(!generations.is_empty(), "a finished search has telemetry");
    for g in generations {
        let best = g.get("best").and_then(|v| v.as_num()).expect("finite best");
        let median = g.get("median").and_then(|v| v.as_num()).unwrap_or(f64::INFINITY);
        assert!(best <= median, "best is never worse than the median");
        let diversity = g.get("diversity").and_then(|v| v.as_num()).unwrap();
        assert!((0.0..=1.0).contains(&diversity), "{diversity}");
        let feasible = g.get("feasible_frac").and_then(|v| v.as_num()).unwrap();
        assert!((0.0..=1.0).contains(&feasible), "{feasible}");
    }

    // Every stepped child carries exactly one provenance tag: the
    // per-operator attempted counters sum to budget − initial
    // population.
    let attempted: u64 = OpKind::ALL.iter().map(|k| op_field(&doc, k.name(), "attempted")).sum();
    assert_eq!(attempted, 96 - 8);

    // The convergence curve starts at the initial population and its
    // eval coordinates are strictly increasing.
    let points = doc.get("cost_points").and_then(|v| v.as_arr()).unwrap();
    assert!(!points.is_empty());
    assert_eq!(points[0].get("generation").and_then(|v| v.as_u64()), Some(0));
    let evals: Vec<u64> =
        points.iter().map(|p| p.get("evals").and_then(|v| v.as_u64()).unwrap()).collect();
    assert!(evals.windows(2).all(|w| w[0] < w[1]), "{evals:?}");

    // The aggregate surfaces in /stats and /metrics.
    let stats = client::get(&service.addr, "/stats").unwrap();
    assert!(stats.contains("[analytics]"), "{stats}");
    assert!(stats.contains("stalled = "), "{stats}");
    let incumbents: u64 = OpKind::ALL.iter().map(|k| op_field(&doc, k.name(), "incumbents")).sum();
    let metrics = client::get(&service.addr, "/metrics").unwrap();
    let metric_total: u64 = metrics
        .lines()
        .filter(|l| l.starts_with("digamma_search_improvements_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum();
    assert_eq!(metric_total, incumbents, "metrics mirror the attribution counters");
}

#[test]
fn analytics_counters_are_monotone_across_polls() {
    let service = Service::start(1, TenantSet::default());
    // A budget big enough to watch mid-flight: poll while it runs.
    let id = service.submit(&job("live-doc", 4000), None);
    let mut last: Vec<u64> = vec![0; OpKind::ALL.len()];
    let mut polls_with_progress = 0;
    for _ in 0..600 {
        let doc = service.analytics(id, None);
        let now: Vec<u64> =
            OpKind::ALL.iter().map(|k| op_field(&doc, k.name(), "attempted")).collect();
        for (prev, cur) in last.iter().zip(&now) {
            assert!(cur >= prev, "operator counters never regress: {last:?} -> {now:?}");
        }
        if now.iter().sum::<u64>() > last.iter().sum::<u64>() {
            polls_with_progress += 1;
        }
        last = now;
        let body = client::get(&service.addr, &format!("/jobs/{id}")).unwrap();
        if body.contains("status = done") {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(polls_with_progress > 0, "polling a live job observes counter growth");
    // The loop's last sample may predate the final generations; the
    // settled document must account for the whole budget.
    let doc = service.analytics(id, None);
    let total: u64 = OpKind::ALL.iter().map(|k| op_field(&doc, k.name(), "attempted")).sum();
    assert_eq!(total, 4000 - 8, "final attribution covers the budget");
}

#[test]
fn analytics_is_bearer_gated_and_404s_unknown_jobs() {
    let roster = TenantSet::parse("[tenant]\nid = alpha\ntoken = alpha-secret\n").unwrap();
    let service = Service::start(1, roster);
    let alpha = Some("alpha-secret");

    let err = client::get(&service.addr, "/jobs/1/analytics").unwrap_err();
    assert!(err.to_string().contains("401"), "{err}");
    let err = client::get_as(&service.addr, "/jobs/1/analytics", Some("nope")).unwrap_err();
    assert!(err.to_string().contains("401"), "{err}");

    let err = client::get_as(&service.addr, "/jobs/999/analytics", alpha).unwrap_err();
    assert!(err.to_string().contains("404"), "{err}");
    let err = client::get_as(&service.addr, "/jobs/not-a-number/analytics", alpha).unwrap_err();
    assert!(err.to_string().contains("404"), "{err}");

    // Wrong method on a known route is 405, not 404.
    let err = client::post_as(&service.addr, "/jobs/1/analytics", None, alpha).unwrap_err();
    assert!(err.to_string().contains("405"), "{err}");

    // A queued-or-running job answers immediately with a valid (possibly
    // empty-window) document.
    let id = service.submit(&job("gated", 96), alpha);
    let doc = service.analytics(id, alpha);
    assert!(doc.get("generations").and_then(|v| v.as_arr()).is_some());
    service.wait_status(id, "done", alpha);
}
