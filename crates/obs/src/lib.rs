//! # maybms-obs
//!
//! The observability layer of MayBMS-rs: a dependency-free (hand-rolled,
//! like everything else in this workspace) metrics registry, per-query
//! tracing, a slow-query ring buffer, and a Prometheus text-format
//! encoder. Every other crate in the workspace threads its counters
//! through here; the SQL surface (`SHOW METRICS`, `SHOW SLOW QUERIES`,
//! `SHOW REPLICATION STATUS`) and the `\metrics` REPL command read the
//! same registry back out.
//!
//! Design constraints, in order:
//!
//! 1. **Inert.** Recording a metric must never change query results, WAL
//!    bytes, or any other engine output — metrics are strictly
//!    write-only side channels (enforced by the tracing-is-inert
//!    property in `tests/observability.rs`).
//! 2. **Near-zero overhead.** A counter bump is one relaxed atomic add
//!    guarded by one relaxed atomic load of the global enable flag.
//!    Registry lookups (a mutex + map walk) happen once per call site:
//!    hot paths cache the returned handle in a `OnceLock`. With the
//!    `off` cargo feature every operation compiles to nothing.
//! 3. **Deterministic where the engine is.** Counters driven by the
//!    deterministic execution paths (rows per operator, normalize
//!    passes) total identically at every worker count; a counter that
//!    depends on scheduling or the worker count (`pool.tasks`) is
//!    documented as such.
//!
//! ```
//! let c = maybms_obs::counter("demo.requests");
//! c.inc();
//! assert!(c.get() >= 1);
//! let text = maybms_obs::prometheus_text(maybms_obs::global());
//! assert!(text.contains("maybms_demo_requests"));
//! ```

#![forbid(unsafe_code)]

#![warn(missing_docs)]

pub mod prometheus;
pub mod registry;
pub mod slowlog;
pub mod trace;

pub use prometheus::prometheus_text;
pub use registry::{
    counter, enabled, gauge, global, histogram, set_enabled, Counter, Gauge, Histogram, Metric,
    MetricValue, Registry,
};
pub use slowlog::{SlowLog, SlowQuery};
pub use trace::{QueryTrace, Span};
