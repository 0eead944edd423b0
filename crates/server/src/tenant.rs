//! Tenants: who a job belongs to, and what that tenant may consume.
//!
//! The registry serves many users from one worker pool and one cache.
//! A [`TenantSpec`] names one of those users and carries their
//! scheduling weight, optional bearer token, and admission quotas; a
//! [`TenantSet`] is the service's whole roster, parsed from a
//! `--tenants` file of `[tenant]` sections:
//!
//! ```text
//! [tenant]
//! id = alpha                 # required; [A-Za-z0-9._-]
//! token = alpha-secret       # optional bearer token (auth is enforced
//!                            # once any tenant in the set has one)
//! weight = 3                 # weighted-round-robin share (default 1)
//! max_queued = 100           # cap on jobs waiting in the queue
//! max_running = 2            # cap on jobs running concurrently
//! max_evals = 1000000        # lifetime cap on submitted eval budget
//! ```
//!
//! An *empty* set is the permissive single-user mode every earlier
//! version ran in: unknown tenant ids are auto-registered with default
//! weight and no quotas, and nothing on the wire needs a token. A
//! non-empty set is strict: submitting under an unlisted tenant id is
//! rejected, and — when any tenant defines a token — every request must
//! authenticate.
//!
//! What a tenant *has* consumed lives in its [`TenantMeters`]: the one
//! ledger of its cache traffic and job outcomes that `/stats` and
//! `/metrics` both read.

use crate::cache::{CacheLayer, LayerMeters, ProbeCounts};
use crate::registry::JobStatus;
use crate::textio::{self, Section, TextError};
use digamma_obs::{Counter, MetricsRegistry};
use std::sync::{Arc, OnceLock};

/// The tenant jobs belong to when nobody says otherwise (including every
/// job replayed from a journal written before tenancy existed).
pub const DEFAULT_TENANT: &str = "default";

/// One tenant: identity, credential, scheduling weight, and quotas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TenantSpec {
    /// The tenant id jobs are tagged with (`[A-Za-z0-9._-]+`).
    pub id: String,
    /// Bearer token for the wire front-end; `None` means this tenant
    /// cannot authenticate (usable only when the service runs authless).
    pub token: Option<String>,
    /// Weighted-round-robin share relative to other tenants (≥ 1).
    pub weight: u64,
    /// Cap on jobs waiting in this tenant's queue, when set.
    pub max_queued: Option<usize>,
    /// Cap on this tenant's concurrently running jobs, when set.
    pub max_running: Option<usize>,
    /// Lifetime cap on total submitted eval budget, when set.
    pub max_evals: Option<u64>,
}

impl TenantSpec {
    /// A tenant with default weight and no token or quotas.
    pub fn named(id: impl Into<String>) -> TenantSpec {
        TenantSpec {
            id: id.into(),
            token: None,
            weight: 1,
            max_queued: None,
            max_running: None,
            max_evals: None,
        }
    }

    fn validate(&self) -> Result<(), TextError> {
        if !valid_tenant_id(&self.id) {
            return Err(TextError::new(format!(
                "bad tenant id {:?} (use letters, digits, '.', '_', '-')",
                self.id
            )));
        }
        if self.weight == 0 {
            return Err(TextError::new(format!("tenant {:?}: weight must be at least 1", self.id)));
        }
        Ok(())
    }
}

impl Default for TenantSpec {
    fn default() -> TenantSpec {
        TenantSpec::named(DEFAULT_TENANT)
    }
}

/// Whether `id` is usable as a tenant id: non-empty ASCII letters,
/// digits, `.`, `_`, `-` (it travels through section names, journal
/// lines, and URLs, so no whitespace or brackets).
pub fn valid_tenant_id(id: &str) -> bool {
    !id.is_empty()
        && id.chars().all(|c| c.is_ascii_alphanumeric() || c == '.' || c == '_' || c == '-')
}

/// The service's tenant roster. See the module docs for the two modes
/// (empty = permissive, non-empty = strict).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantSet {
    tenants: Vec<TenantSpec>,
}

impl TenantSet {
    /// Builds a set, validating ids, weights, and uniqueness.
    ///
    /// # Errors
    ///
    /// Returns [`TextError`] on a bad id, zero weight, duplicate id, or
    /// duplicate token (tokens identify tenants, so sharing one would
    /// make authentication ambiguous).
    pub fn new(tenants: Vec<TenantSpec>) -> Result<TenantSet, TextError> {
        let mut ids = std::collections::HashSet::new();
        let mut tokens = std::collections::HashSet::new();
        for tenant in &tenants {
            tenant.validate()?;
            if !ids.insert(tenant.id.clone()) {
                return Err(TextError::new(format!("duplicate tenant id {:?}", tenant.id)));
            }
            if let Some(token) = &tenant.token {
                if token.is_empty() {
                    return Err(TextError::new(format!("tenant {:?}: empty token", tenant.id)));
                }
                if !tokens.insert(token.clone()) {
                    return Err(TextError::new(format!(
                        "tenant {:?}: token already belongs to another tenant",
                        tenant.id
                    )));
                }
            }
        }
        Ok(TenantSet { tenants })
    }

    /// Parses a roster document: one `[tenant]` section per tenant with
    /// the keys shown in the module docs.
    ///
    /// # Errors
    ///
    /// Returns [`TextError`] on syntax errors, unknown sections or keys,
    /// or any [`TenantSet::new`] violation.
    pub fn parse(text: &str) -> Result<TenantSet, TextError> {
        let mut tenants = Vec::new();
        for section in &textio::parse_sections(text)? {
            if section.name != "tenant" {
                return Err(TextError::new(format!(
                    "unknown section [{}] (tenant files contain [tenant] sections)",
                    section.name
                )));
            }
            tenants.push(parse_tenant_section(section)?);
        }
        TenantSet::new(tenants)
    }

    /// True when no tenants are configured (permissive mode).
    pub fn is_empty(&self) -> bool {
        self.tenants.is_empty()
    }

    /// How many tenants are configured.
    pub fn len(&self) -> usize {
        self.tenants.len()
    }

    /// Whether the wire front-end must demand bearer tokens: yes as soon
    /// as any tenant defines one (a token-less set still configures
    /// weights and quotas for trusted local use).
    pub fn requires_auth(&self) -> bool {
        self.tenants.iter().any(|t| t.token.is_some())
    }

    /// The tenant with this id, if configured.
    pub fn get(&self, id: &str) -> Option<&TenantSpec> {
        self.tenants.iter().find(|t| t.id == id)
    }

    /// The tenant this bearer token authenticates, if any.
    pub fn by_token(&self, token: &str) -> Option<&TenantSpec> {
        self.tenants.iter().find(|t| t.token.as_deref() == Some(token))
    }

    /// Iterates the configured tenants in declaration order.
    pub fn iter(&self) -> impl Iterator<Item = &TenantSpec> {
        self.tenants.iter()
    }
}

/// One tenant's live ledger: its traffic through each cache layer and
/// its terminal job outcomes. Resolved once per tenant by the
/// [`crate::SearchServer`], which owns it; every probe and outcome is
/// counted here once, and `/stats` reads the same cells `/metrics`
/// renders. Under a disabled registry the cells are detached, so
/// `/stats` keeps counting while `/metrics` stays empty.
///
/// Each cell registers its series on first use, so a tenant mints
/// exactly the series of the work it did: none while idle, no probe
/// series for a disabled cache layer, one outcome series per status
/// it reached.
#[derive(Debug)]
pub(crate) struct TenantMeters {
    registry: Arc<MetricsRegistry>,
    tenant: String,
    /// Indexed by [`CacheLayer`].
    layers: [OnceLock<Arc<LayerMeters>>; 2],
    /// `digamma_jobs_completed_total{status,tenant}` for `done`,
    /// `cancelled`, `panicked`.
    outcomes: [OnceLock<Counter>; 3],
}

impl TenantMeters {
    /// An empty ledger for `tenant`; nothing registers until used.
    pub(crate) fn new(registry: Arc<MetricsRegistry>, tenant: &str) -> TenantMeters {
        TenantMeters {
            registry,
            tenant: tenant.to_owned(),
            layers: Default::default(),
            outcomes: Default::default(),
        }
    }

    /// The tenant's meters for `layer`, registered on first use.
    pub(crate) fn layer(&self, layer: CacheLayer) -> &Arc<LayerMeters> {
        self.layers[layer as usize]
            .get_or_init(|| Arc::new(LayerMeters::new(&self.registry, &self.tenant, layer)))
    }

    /// The tenant's counts through `layer` so far.
    pub(crate) fn layer_counts(&self, layer: CacheLayer) -> ProbeCounts {
        self.layers[layer as usize].get().map_or_else(ProbeCounts::default, |m| m.counts())
    }

    /// Counts one job reaching the terminal `status`.
    pub(crate) fn record_outcome(&self, status: JobStatus) {
        let Some((slot, label)) = outcome_slot(status) else { return };
        self.outcomes[slot]
            .get_or_init(|| {
                self.registry.counter(
                    "digamma_jobs_completed_total",
                    "Jobs finished, by tenant and terminal status.",
                    &[("status", label), ("tenant", &self.tenant)],
                )
            })
            .inc();
    }

    /// Jobs that reached the terminal `status` so far.
    pub(crate) fn outcomes(&self, status: JobStatus) -> usize {
        outcome_slot(status)
            .and_then(|(slot, _)| self.outcomes[slot].get())
            .map_or(0, |c| c.value() as usize)
    }
}

/// A terminal status's outcome cell and its `status` label (a
/// panic-failure is labelled `panicked` so dashboards can alert on
/// crashes separately from ordinary failures).
fn outcome_slot(status: JobStatus) -> Option<(usize, &'static str)> {
    match status {
        JobStatus::Done => Some((0, "done")),
        JobStatus::Cancelled => Some((1, "cancelled")),
        JobStatus::Failed => Some((2, "panicked")),
        JobStatus::Queued | JobStatus::Running => None,
    }
}

fn parse_tenant_section(section: &Section) -> Result<TenantSpec, TextError> {
    let mut tenant = TenantSpec::named(section.require("id")?);
    for (key, value) in &section.entries {
        match key.as_str() {
            "id" => {}
            "token" => tenant.token = Some(value.clone()),
            "weight" => tenant.weight = section.get_parsed_or("weight", 1)?,
            "max_queued" => tenant.max_queued = Some(section.get_parsed_or("max_queued", 0)?),
            "max_running" => tenant.max_running = Some(section.get_parsed_or("max_running", 0)?),
            "max_evals" => tenant.max_evals = Some(section.get_parsed_or("max_evals", 0)?),
            other => {
                return Err(TextError::new(format!(
                    "[tenant {}] has unknown key `{other}`",
                    tenant.id
                )));
            }
        }
    }
    Ok(tenant)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_parses_with_defaults_and_quotas() {
        let text = "\
# staging roster
[tenant]
id = alpha
token = alpha-secret
weight = 3
max_queued = 10
max_running = 2
max_evals = 5000

[tenant]
id = beta
";
        let set = TenantSet::parse(text).unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.requires_auth(), "one token is enough to demand auth");
        let alpha = set.get("alpha").unwrap();
        assert_eq!(alpha.weight, 3);
        assert_eq!(alpha.max_queued, Some(10));
        assert_eq!(alpha.max_running, Some(2));
        assert_eq!(alpha.max_evals, Some(5000));
        let beta = set.get("beta").unwrap();
        assert_eq!(beta.weight, 1, "weight defaults to 1");
        assert_eq!((beta.max_queued, beta.max_running, beta.max_evals), (None, None, None));
        assert_eq!(set.by_token("alpha-secret").unwrap().id, "alpha");
        assert!(set.by_token("wrong").is_none());
    }

    #[test]
    fn tokenless_roster_configures_weights_without_auth() {
        let set = TenantSet::parse("[tenant]\nid = a\nweight = 3\n[tenant]\nid = b\n").unwrap();
        assert!(!set.requires_auth());
        assert!(!set.is_empty());
    }

    #[test]
    fn bad_rosters_are_named_errors() {
        for (text, needle) in [
            ("[tenant]\nweight = 2\n", "missing `id`"),
            ("[tenant]\nid = sp ace\n", "bad tenant id"),
            ("[tenant]\nid = a\nweight = 0\n", "weight"),
            ("[tenant]\nid = a\nweight = nope\n", "bad `weight`"),
            ("[tenant]\nid = a\n[tenant]\nid = a\n", "duplicate tenant id"),
            ("[tenant]\nid = a\ntoken = t\n[tenant]\nid = b\ntoken = t\n", "token"),
            ("[tenant]\nid = a\ntoken =\n", "empty token"),
            ("[tenant]\nid = a\nquota = 4\n", "unknown key"),
            ("[user]\nid = a\n", "unknown section"),
        ] {
            let err = TenantSet::parse(text).unwrap_err();
            assert!(err.to_string().contains(needle), "{text:?} → {err}");
        }
    }

    #[test]
    fn empty_set_is_permissive_default() {
        let set = TenantSet::default();
        assert!(set.is_empty());
        assert!(!set.requires_auth());
        assert!(set.get(DEFAULT_TENANT).is_none());
        assert!(valid_tenant_id(DEFAULT_TENANT));
    }
}
