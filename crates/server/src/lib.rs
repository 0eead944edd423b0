//! `digamma-server`: a concurrent search service over the DiGamma
//! co-optimization library.
//!
//! The library crates answer one question at a time ("best design for
//! this model on this platform"); this crate is the layer between those
//! calls and a service that answers *many* users' questions fast:
//!
//! * [`JobRegistry`] / [`SubmitRequest`] — the job queue: every
//!   submission, whether one spec or a parsed `POST /jobs` manifest
//!   ([`SubmitRequest::manifest`], format in [`parse_manifest`]), is one
//!   request through [`JobRegistry::submit`]; long-lived workers drain
//!   the tenants' queues by weighted round-robin,
//! * [`SearchServer`] — what every job shares: the caches below, the
//!   checkpoint directory and the metric and span stores;
//!   [`SearchServer::run_job`] is the body one worker runs per
//!   [`JobSpec`] (model × platform × objective × algorithm),
//! * [`ShardedFitnessCache`] — a capacity-bounded memo of per-layer
//!   cost-model results keyed by a stable hash of (layer shape, decoded
//!   mapping, hardware/model constants); hits skip the cost model
//!   entirely, and a per-job view counts each probe once into the
//!   job's report and its tenant's ledger (what `/stats` and
//!   `/metrics` both read), and
//! * [`Snapshot`] — versioned text checkpoints of GA state, so a killed
//!   search resumes **bit-identically** instead of starting over.
//!
//! # Quickstart
//!
//! ```
//! use digamma_server::{JobAlgorithm, JobSpec, SearchServer, ServerConfig};
//! use digamma::Objective;
//! use digamma_costmodel::Platform;
//! use digamma_workload::zoo;
//!
//! let server = SearchServer::new(ServerConfig::default());
//! let mut job = JobSpec::new(
//!     "ncf-edge",
//!     zoo::ncf(),
//!     Platform::edge(),
//!     Objective::Latency,
//!     JobAlgorithm::DiGamma,
//! );
//! job.budget = 120;
//! job.population_size = 12;
//! let report = server.run_job(&job);
//! assert!(report.best.is_some());
//! assert!(report.cache_hits > 0, "elite re-evaluations hit the memo");
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod cache;
pub mod cachefile;
mod job;
mod journal;
mod manifest;
mod queue;
mod registry;
mod snapshot;
pub mod textio;

mod tenant;

pub use journal::{Journal, JOURNAL_VERSION};

pub use cache::{CacheStats, EvictionPolicy, ShardedFitnessCache, ShardedGenomeMemo};
pub use job::{JobAlgorithm, JobReport, JobSpec};
pub use manifest::{parse_manifest, render_job};
pub use queue::{AnalyticsUpdate, JobControl, JobProgress, SearchServer, ServerConfig};
pub use registry::{
    JobId, JobRegistry, JobStatus, JobView, RegistryStats, SubmitError, SubmitRequest, TenantStats,
};
pub use snapshot::{Snapshot, SNAPSHOT_VERSION};
pub use tenant::{valid_tenant_id, TenantSet, TenantSpec, DEFAULT_TENANT};
