//! `digamma-net`: the TCP/HTTP front-end over the DiGamma search
//! service.
//!
//! `digamma-server` owns the job queue (`JobRegistry`), the shared
//! fitness memo and checkpoint/resume; this crate puts a network
//! listener in front of that queue so clients submit co-optimization
//! jobs over a socket, watch per-generation progress stream back, and
//! cancel mid-search:
//!
//! * [`httpio`] — hand-rolled HTTP/1.1 framing (requests, fixed and
//!   chunked responses, keep-alive) over `std::net`, crates.io-free like
//!   the rest of the workspace,
//! * [`routes`] — the endpoint set (`POST /jobs`, `GET /jobs/{id}`,
//!   `GET /jobs/{id}/events`, `POST /jobs/{id}/cancel`, `GET /stats`,
//!   `POST /shutdown`) rendered in the workspace's text-section format,
//! * [`NetServer`] — the accept loop and connection threads, and
//! * [`client`] — a minimal blocking client (used by `digamma-netc`,
//!   the integration tests, and the CI smoke).
//!
//! Durability falls out of the layers below: jobs journal before they
//! run, GA searches snapshot at generation boundaries, and a killed
//! `digamma-netd` replays its journal on restart and resumes every
//! in-flight job from its snapshot — proven over real sockets and a
//! real `SIGKILL` in `tests/restart.rs`.
//!
//! # Quickstart
//!
//! ```
//! use digamma_net::{client, NetServer};
//! use digamma_server::{JobRegistry, ServerConfig};
//! use std::sync::Arc;
//!
//! let registry =
//!     Arc::new(JobRegistry::start(ServerConfig { workers: 1, ..Default::default() }, None)?);
//! let server = NetServer::bind("127.0.0.1:0", Arc::clone(&registry))?;
//! let addr = server.local_addr()?.to_string();
//! let handle = server.shutdown_handle()?;
//! let serving = std::thread::spawn(move || server.serve());
//!
//! let accepted =
//!     client::post(&addr, "/jobs", Some("[job]\nmodel = ncf\nbudget = 64\npopulation = 8\n"))?;
//! assert!(accepted.contains("id = 1"));
//! let events = client::stream_events(&addr, 1, 0, |_| true)?;
//! assert!(events.last().unwrap().starts_with("end status="));
//!
//! handle.shutdown();
//! serving.join().unwrap()?;
//! # Ok::<(), std::io::Error>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod client;
pub mod httpio;
mod metrics;
pub mod routes;

mod server;

pub use routes::ShutdownFlag;
pub use server::{NetServer, ShutdownHandle};
