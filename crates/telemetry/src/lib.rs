#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used, clippy::expect_used)]

//! `swiftrl-telemetry` — deterministic, engine-invariant observability
//! for the SwiftRL PIM simulator (DESIGN.md §11).
//!
//! The crate provides four layers:
//!
//! 1. **Event stream** ([`event::Event`], recorded by a [`Telemetry`]
//!    sink attached to `PimConfig`): typed host-side events for program
//!    loads, transfers, kernel launches (with per-DPU cycle spans on
//!    the simulated clock), sync rounds, fault injections and the
//!    resilience actions (retry/rollback/degradation). Everything is
//!    emitted after the engine's ordered merge, so the serial and
//!    threaded engines produce byte-identical streams.
//! 2. **Metrics snapshot** ([`MetricsSnapshot`]): cycle-class
//!    histograms, the per-launch imbalance distribution, transfer
//!    byte/latency totals and fault/resilience counters, rendered as
//!    versioned JSON shared by every bench binary.
//! 3. **Chrome trace export** ([`chrome_trace`]): a Perfetto-loadable
//!    `trace_event` timeline with one process per run, each with a
//!    host lane and one lane per DPU.
//! 4. **Service observability** ([`service`]): the typed
//!    [`ServiceEvent`] lifecycle/occupancy stream emitted by the
//!    multi-tenant training service, its logical-clock deterministic
//!    projection, the aggregated [`ServiceMetrics`] registry with
//!    Prometheus-style text exposition, and a fleet-wide
//!    [`service_trace`] timeline merging every tenant onto worker,
//!    rank and per-job lanes.
//!
//! Both streams are recorded by one generic [`Recorder`]:
//! [`Telemetry`] is `Recorder<Event>` and [`ServiceTelemetry`] is
//! `Recorder<ServiceRecord>`. Both timelines lay a run's events out
//! through the same per-run lane writer.
//!
//! The off switch is a true zero: a default (disabled) [`Telemetry`]
//! never evaluates event constructors, allocates nothing on the launch
//! hot path, and changes no simulated observable — pinned by the
//! differential test in `tests/telemetry.rs`.
//!
//! The crate is dependency-free; JSON is built and validated by the
//! hand-rolled [`json`] module.

pub mod event;
pub mod json;
pub mod metrics;
pub mod service;
pub mod sink;
pub mod trace;

pub use event::{CycleClassTotals, Event, TransferFaultKind, TransferKind};
pub use json::Json;
pub use metrics::{percentile, snapshot_bundle, Histogram, MetricsSnapshot, TransferTotals};
pub use service::{
    deterministic_projection, render_deterministic, ServiceEvent, ServiceMetrics, ServiceRecord,
    ServiceTelemetry,
};
pub use sink::{Recorder, Telemetry};
pub use trace::{chrome_trace, service_trace};
