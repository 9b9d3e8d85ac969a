//! Service-level observability: the typed [`ServiceEvent`] stream the
//! multi-tenant training service emits, its deterministic projection,
//! and the aggregated [`ServiceMetrics`] registry with Prometheus-style
//! text exposition (DESIGN.md §15).
//!
//! The stream records the **job lifecycle** (submitted → admitted →
//! sync rounds → completed/cancelled/failed) together with **fleet
//! occupancy** (worker busy/idle transitions, rank-lease changes,
//! queue-depth samples). Two clocks coexist:
//!
//! - a **logical clock** — job id, sync round, rank id — that keys the
//!   structure of every event and is a pure function of the submitted
//!   job set, hence identical across execution engines and worker
//!   counts;
//! - **wall-clock seconds** ([`ServiceRecord::wall_s`]) — the one
//!   explicitly non-deterministic section, used only for timeline
//!   layout and latency histograms, and never read by the
//!   deterministic projection.
//!
//! [`deterministic_projection`] extracts the engine-invariant core:
//! lifecycle events only (scheduling-dependent occupancy events are
//! dropped), sorted by the logical clock, with the sync rounds of
//! cancelled jobs removed (how many rounds a job completes before its
//! cancel lands is inherently a race). `tests/service.rs` pins this
//! projection byte-identical across the Serial and Threaded engines for
//! a 100-tenant mixed-fault run.

use crate::json::Json;
use crate::metrics::Histogram;
use crate::sink::Recorder;

/// One occurrence in the training service's lifecycle/occupancy stream.
///
/// All fields are logical-clock quantities (ids, counts, simulated
/// seconds); host wall-clock lives only on the enclosing
/// [`ServiceRecord`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceEvent {
    /// A job entered the FIFO queue.
    JobSubmitted {
        /// Service-assigned job id (submission order).
        job: u64,
        /// Tenant label from the request.
        tenant: String,
        /// DPUs the job asked for.
        dpus: usize,
    },
    /// A worker admitted the job: lease granted, private DPU set
    /// allocated, training about to start.
    JobAdmitted {
        /// Job id.
        job: u64,
        /// DPUs allocated to the job.
        dpus: usize,
    },
    /// Ranks were leased to a job (occupancy; scheduling-dependent).
    LeaseGranted {
        /// Job id holding the lease.
        job: u64,
        /// Rank indices leased, ascending.
        ranks: Vec<usize>,
        /// Fleet-wide count of leased ranks after this grant.
        leased_ranks: usize,
    },
    /// A job's rank lease was returned (occupancy).
    LeaseReleased {
        /// Job id that held the lease.
        job: u64,
        /// Rank indices released, ascending.
        ranks: Vec<usize>,
        /// Fleet-wide count of leased ranks after this release.
        leased_ranks: usize,
    },
    /// A synchronization round of one job completed (re-emitted from
    /// the job's private telemetry onto the service timeline).
    SyncRound {
        /// Job id.
        job: u64,
        /// Zero-based round index within the job.
        round: u32,
        /// DPUs still participating in the job.
        live_dpus: usize,
    },
    /// The job trained to completion. Counters are folded from the
    /// job's private event stream; all are simulated observables.
    JobCompleted {
        /// Job id.
        job: u64,
        /// Synchronization rounds completed.
        sync_rounds: u64,
        /// Kernel launches (including retried subsets).
        launches: u64,
        /// Launches with at least one aborted DPU.
        faulted_launches: u64,
        /// Resilience retries issued.
        retries: u64,
        /// Resilience rollbacks to a checkpoint.
        rollbacks: u64,
        /// DPUs dropped by graceful degradation.
        degraded_dpus: u64,
        /// Simulated kernel seconds across all launches.
        kernel_seconds: f64,
        /// Per-launch critical-path cycles, in launch order.
        launch_cycles: Vec<f64>,
    },
    /// The job ended by cancellation (queued or mid-run).
    JobCancelled {
        /// Job id.
        job: u64,
    },
    /// The job failed with a PIM error.
    JobFailed {
        /// Job id.
        job: u64,
        /// Rendered error message.
        error: String,
    },
    /// A worker picked a job off the queue (occupancy).
    WorkerBusy {
        /// Worker index.
        worker: usize,
        /// Job id the worker is driving.
        job: u64,
    },
    /// A worker finished its job and returned to the queue (occupancy).
    WorkerIdle {
        /// Worker index.
        worker: usize,
    },
    /// Queue depth observed after an enqueue or dequeue (occupancy).
    QueueDepth {
        /// Jobs waiting in the FIFO queue.
        depth: usize,
    },
}

impl ServiceEvent {
    /// Stable snake_case discriminator used in JSON artifacts.
    pub fn name(&self) -> &'static str {
        match self {
            ServiceEvent::JobSubmitted { .. } => "job_submitted",
            ServiceEvent::JobAdmitted { .. } => "job_admitted",
            ServiceEvent::LeaseGranted { .. } => "lease_granted",
            ServiceEvent::LeaseReleased { .. } => "lease_released",
            ServiceEvent::SyncRound { .. } => "sync_round",
            ServiceEvent::JobCompleted { .. } => "job_completed",
            ServiceEvent::JobCancelled { .. } => "job_cancelled",
            ServiceEvent::JobFailed { .. } => "job_failed",
            ServiceEvent::WorkerBusy { .. } => "worker_busy",
            ServiceEvent::WorkerIdle { .. } => "worker_idle",
            ServiceEvent::QueueDepth { .. } => "queue_depth",
        }
    }

    /// The job id this event is about, if it is a per-job event.
    pub fn job(&self) -> Option<u64> {
        match self {
            ServiceEvent::JobSubmitted { job, .. }
            | ServiceEvent::JobAdmitted { job, .. }
            | ServiceEvent::LeaseGranted { job, .. }
            | ServiceEvent::LeaseReleased { job, .. }
            | ServiceEvent::SyncRound { job, .. }
            | ServiceEvent::JobCompleted { job, .. }
            | ServiceEvent::JobCancelled { job, .. }
            | ServiceEvent::JobFailed { job, .. }
            | ServiceEvent::WorkerBusy { job, .. } => Some(*job),
            ServiceEvent::WorkerIdle { .. } | ServiceEvent::QueueDepth { .. } => None,
        }
    }

    /// Renders the event as a JSON object with a `"type"` discriminator
    /// and fixed key order.
    pub fn to_json(&self) -> Json {
        let typed = |fields: Vec<(String, Json)>| {
            let mut obj = vec![("type".to_string(), Json::str(self.name()))];
            obj.extend(fields);
            Json::Obj(obj)
        };
        let ranks_json =
            |ranks: &[usize]| Json::Arr(ranks.iter().map(|&r| Json::UInt(r as u64)).collect());
        match self {
            ServiceEvent::JobSubmitted { job, tenant, dpus } => typed(vec![
                ("job".to_string(), Json::UInt(*job)),
                ("tenant".to_string(), Json::str(tenant.clone())),
                ("dpus".to_string(), Json::UInt(*dpus as u64)),
            ]),
            ServiceEvent::JobAdmitted { job, dpus } => typed(vec![
                ("job".to_string(), Json::UInt(*job)),
                ("dpus".to_string(), Json::UInt(*dpus as u64)),
            ]),
            ServiceEvent::LeaseGranted {
                job,
                ranks,
                leased_ranks,
            } => typed(vec![
                ("job".to_string(), Json::UInt(*job)),
                ("ranks".to_string(), ranks_json(ranks)),
                ("leased_ranks".to_string(), Json::UInt(*leased_ranks as u64)),
            ]),
            ServiceEvent::LeaseReleased {
                job,
                ranks,
                leased_ranks,
            } => typed(vec![
                ("job".to_string(), Json::UInt(*job)),
                ("ranks".to_string(), ranks_json(ranks)),
                ("leased_ranks".to_string(), Json::UInt(*leased_ranks as u64)),
            ]),
            ServiceEvent::SyncRound {
                job,
                round,
                live_dpus,
            } => typed(vec![
                ("job".to_string(), Json::UInt(*job)),
                ("round".to_string(), Json::UInt(*round as u64)),
                ("live_dpus".to_string(), Json::UInt(*live_dpus as u64)),
            ]),
            ServiceEvent::JobCompleted {
                job,
                sync_rounds,
                launches,
                faulted_launches,
                retries,
                rollbacks,
                degraded_dpus,
                kernel_seconds,
                launch_cycles,
            } => typed(vec![
                ("job".to_string(), Json::UInt(*job)),
                ("sync_rounds".to_string(), Json::UInt(*sync_rounds)),
                ("launches".to_string(), Json::UInt(*launches)),
                (
                    "faulted_launches".to_string(),
                    Json::UInt(*faulted_launches),
                ),
                ("retries".to_string(), Json::UInt(*retries)),
                ("rollbacks".to_string(), Json::UInt(*rollbacks)),
                ("degraded_dpus".to_string(), Json::UInt(*degraded_dpus)),
                ("kernel_seconds".to_string(), Json::Num(*kernel_seconds)),
                (
                    "launch_cycles".to_string(),
                    Json::Arr(launch_cycles.iter().map(|&c| Json::Num(c)).collect()),
                ),
            ]),
            ServiceEvent::JobCancelled { job } => {
                typed(vec![("job".to_string(), Json::UInt(*job))])
            }
            ServiceEvent::JobFailed { job, error } => typed(vec![
                ("job".to_string(), Json::UInt(*job)),
                ("error".to_string(), Json::str(error.clone())),
            ]),
            ServiceEvent::WorkerBusy { worker, job } => typed(vec![
                ("worker".to_string(), Json::UInt(*worker as u64)),
                ("job".to_string(), Json::UInt(*job)),
            ]),
            ServiceEvent::WorkerIdle { worker } => typed(vec![(
                "worker".to_string(),
                Json::UInt(*worker as u64),
            )]),
            ServiceEvent::QueueDepth { depth } => {
                typed(vec![("depth".to_string(), Json::UInt(*depth as u64))])
            }
        }
    }
}

/// One recorded service event: the event plus its position on the
/// wall clock. Its arrival order is its position in
/// [`Recorder::records`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceRecord {
    /// Host wall-clock seconds since the service started — **the
    /// non-deterministic section**.
    pub wall_s: f64,
    /// The event itself (logical-clock quantities only).
    pub event: ServiceEvent,
}

/// The training service's record stream: the same closure-lazy,
/// clone-shared [`Recorder`] as [`Telemetry`](crate::Telemetry), over
/// [`ServiceRecord`]s.
pub type ServiceTelemetry = Recorder<ServiceRecord>;

/// Logical-clock sort key of a lifecycle event: `(job, phase, round)`.
/// Submission < admission < sync rounds (by round) < terminal.
fn lifecycle_key(event: &ServiceEvent) -> Option<(u64, u8, u32)> {
    match event {
        ServiceEvent::JobSubmitted { job, .. } => Some((*job, 0, 0)),
        ServiceEvent::JobAdmitted { job, .. } => Some((*job, 1, 0)),
        ServiceEvent::SyncRound { job, round, .. } => Some((*job, 2, *round)),
        ServiceEvent::JobCompleted { job, .. }
        | ServiceEvent::JobCancelled { job }
        | ServiceEvent::JobFailed { job, .. } => Some((*job, 3, 0)),
        ServiceEvent::LeaseGranted { .. }
        | ServiceEvent::LeaseReleased { .. }
        | ServiceEvent::WorkerBusy { .. }
        | ServiceEvent::WorkerIdle { .. }
        | ServiceEvent::QueueDepth { .. } => None,
    }
}

/// Extracts the deterministic (engine- and scheduling-invariant) core
/// of a service stream:
///
/// - **lifecycle events only** — occupancy events (leases, worker
///   transitions, queue depth) encode scheduling choices and are
///   dropped;
/// - **sorted by the logical clock** `(job id, phase, round)` — arrival
///   order under concurrency is a race, the logical order is not;
/// - **cancelled jobs keep only submission/admission/terminal** — how
///   many sync rounds a job completes before its cancel lands depends
///   on wall-clock timing, so their `SyncRound` events are removed.
///
/// The result is a pure function of the submitted job set (given every
/// cancel lands after admission), pinned byte-identical across engines
/// and worker counts by `tests/service.rs`.
pub fn deterministic_projection(records: &[ServiceRecord]) -> Vec<ServiceEvent> {
    let cancelled: Vec<u64> = records
        .iter()
        .filter_map(|r| match &r.event {
            ServiceEvent::JobCancelled { job } => Some(*job),
            _ => None,
        })
        .collect();
    let mut keyed: Vec<((u64, u8, u32), ServiceEvent)> = records
        .iter()
        .filter_map(|r| lifecycle_key(&r.event).map(|key| (key, r.event.clone())))
        .filter(|((job, phase, _), _)| !(*phase == 2 && cancelled.contains(job)))
        .collect();
    keyed.sort_by_key(|(key, _)| *key);
    keyed.into_iter().map(|(_, event)| event).collect()
}

/// Renders the deterministic projection as a versioned JSON document
/// (schema `swiftrl-service-events-v1`). Byte-identical for identical
/// projections — the form the determinism tests compare.
pub fn render_deterministic(records: &[ServiceRecord]) -> String {
    let events = deterministic_projection(records);
    Json::obj([
        ("schema", Json::str("swiftrl-service-events-v1")),
        ("events", Json::Arr(events.iter().map(ServiceEvent::to_json).collect())),
    ])
    .render_pretty()
}

/// Aggregated service metrics: counters, occupancy gauges (maxima) and
/// latency/cycle histograms folded from a service stream.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ServiceMetrics {
    /// Jobs that entered the queue.
    pub jobs_submitted: u64,
    /// Jobs admitted (lease granted, training started).
    pub jobs_admitted: u64,
    /// Jobs that trained to completion.
    pub jobs_completed: u64,
    /// Jobs that ended by cancellation.
    pub jobs_cancelled: u64,
    /// Jobs that failed with a PIM error.
    pub jobs_failed: u64,
    /// Kernel launches summed over completed jobs.
    pub launches: u64,
    /// Faulted launches summed over completed jobs.
    pub faulted_launches: u64,
    /// Resilience retries summed over completed jobs.
    pub retries: u64,
    /// Rollbacks summed over completed jobs.
    pub rollbacks: u64,
    /// Degraded DPUs summed over completed jobs.
    pub degraded_dpus: u64,
    /// Sync rounds summed over completed jobs.
    pub sync_rounds: u64,
    /// Simulated kernel seconds summed over completed jobs.
    pub kernel_seconds: f64,
    /// Deepest queue observed.
    pub queue_depth_max: u64,
    /// Most ranks leased at once.
    pub leased_ranks_max: u64,
    /// Most workers busy at once.
    pub workers_busy_max: u64,
    /// Wall-clock seconds from submission to admission, one sample per
    /// admitted job.
    pub admission_wait_s: Histogram,
    /// Wall-clock seconds from admission to the terminal event, one
    /// sample per finished job.
    pub run_duration_s: Histogram,
    /// Per-launch critical-path cycles over completed jobs (simulated;
    /// deterministic).
    pub launch_cycles: Histogram,
}

impl ServiceMetrics {
    /// Folds a service stream into the registry.
    pub fn from_records(records: &[ServiceRecord]) -> Self {
        let mut m = ServiceMetrics::default();
        // (job, wall_s) of submissions and admissions, for the latency
        // histograms. Linear lookup: job counts are small.
        let mut submitted_at: Vec<(u64, f64)> = Vec::new();
        let mut admitted_at: Vec<(u64, f64)> = Vec::new();
        let wall_of = |table: &[(u64, f64)], job: u64| {
            table.iter().find(|(j, _)| *j == job).map(|(_, w)| *w)
        };
        let mut workers_busy = 0u64;
        for record in records {
            match &record.event {
                ServiceEvent::JobSubmitted { job, .. } => {
                    m.jobs_submitted += 1;
                    submitted_at.push((*job, record.wall_s));
                }
                ServiceEvent::JobAdmitted { job, .. } => {
                    m.jobs_admitted += 1;
                    admitted_at.push((*job, record.wall_s));
                    if let Some(sub) = wall_of(&submitted_at, *job) {
                        m.admission_wait_s.record((record.wall_s - sub).max(0.0));
                    }
                }
                ServiceEvent::LeaseGranted { leased_ranks, .. } => {
                    m.leased_ranks_max = m.leased_ranks_max.max(*leased_ranks as u64);
                }
                ServiceEvent::LeaseReleased { .. } | ServiceEvent::SyncRound { .. } => {}
                ServiceEvent::JobCompleted {
                    job,
                    sync_rounds,
                    launches,
                    faulted_launches,
                    retries,
                    rollbacks,
                    degraded_dpus,
                    kernel_seconds,
                    launch_cycles,
                } => {
                    m.jobs_completed += 1;
                    m.sync_rounds += sync_rounds;
                    m.launches += launches;
                    m.faulted_launches += faulted_launches;
                    m.retries += retries;
                    m.rollbacks += rollbacks;
                    m.degraded_dpus += degraded_dpus;
                    m.kernel_seconds += kernel_seconds;
                    for &cycles in launch_cycles {
                        m.launch_cycles.record(cycles);
                    }
                    if let Some(adm) = wall_of(&admitted_at, *job) {
                        m.run_duration_s.record((record.wall_s - adm).max(0.0));
                    }
                }
                ServiceEvent::JobCancelled { job } => {
                    m.jobs_cancelled += 1;
                    if let Some(adm) = wall_of(&admitted_at, *job) {
                        m.run_duration_s.record((record.wall_s - adm).max(0.0));
                    }
                }
                ServiceEvent::JobFailed { job, .. } => {
                    m.jobs_failed += 1;
                    if let Some(adm) = wall_of(&admitted_at, *job) {
                        m.run_duration_s.record((record.wall_s - adm).max(0.0));
                    }
                }
                ServiceEvent::WorkerBusy { .. } => {
                    workers_busy += 1;
                    m.workers_busy_max = m.workers_busy_max.max(workers_busy);
                }
                ServiceEvent::WorkerIdle { .. } => {
                    workers_busy = workers_busy.saturating_sub(1);
                }
                ServiceEvent::QueueDepth { depth } => {
                    m.queue_depth_max = m.queue_depth_max.max(*depth as u64);
                }
            }
        }
        m
    }

    /// Renders the registry as a versioned JSON object (schema
    /// `swiftrl-service-metrics-v1`). Key order fixed, rendering
    /// byte-deterministic.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", Json::str("swiftrl-service-metrics-v1")),
            (
                "jobs",
                Json::obj([
                    ("submitted", Json::UInt(self.jobs_submitted)),
                    ("admitted", Json::UInt(self.jobs_admitted)),
                    ("completed", Json::UInt(self.jobs_completed)),
                    ("cancelled", Json::UInt(self.jobs_cancelled)),
                    ("failed", Json::UInt(self.jobs_failed)),
                ]),
            ),
            (
                "totals",
                Json::obj([
                    ("launches", Json::UInt(self.launches)),
                    ("faulted_launches", Json::UInt(self.faulted_launches)),
                    ("retries", Json::UInt(self.retries)),
                    ("rollbacks", Json::UInt(self.rollbacks)),
                    ("degraded_dpus", Json::UInt(self.degraded_dpus)),
                    ("sync_rounds", Json::UInt(self.sync_rounds)),
                    ("kernel_seconds", Json::Num(self.kernel_seconds)),
                ]),
            ),
            (
                "occupancy",
                Json::obj([
                    ("queue_depth_max", Json::UInt(self.queue_depth_max)),
                    ("leased_ranks_max", Json::UInt(self.leased_ranks_max)),
                    ("workers_busy_max", Json::UInt(self.workers_busy_max)),
                ]),
            ),
            ("admission_wait_seconds", self.admission_wait_s.to_json()),
            ("run_duration_seconds", self.run_duration_s.to_json()),
            ("launch_cycles", self.launch_cycles.to_json()),
        ])
    }

    /// Renders the registry in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` headers, `_total` counters,
    /// occupancy-max gauges, and summaries with p50/p95/p99 quantile
    /// lines plus `_sum`/`_count`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, help, value) in [
            (
                "swiftrl_service_jobs_submitted_total",
                "Jobs submitted to the service.",
                self.jobs_submitted,
            ),
            (
                "swiftrl_service_jobs_admitted_total",
                "Jobs admitted to the fleet.",
                self.jobs_admitted,
            ),
            (
                "swiftrl_service_jobs_completed_total",
                "Jobs that trained to completion.",
                self.jobs_completed,
            ),
            (
                "swiftrl_service_jobs_cancelled_total",
                "Jobs that ended by cancellation.",
                self.jobs_cancelled,
            ),
            (
                "swiftrl_service_jobs_failed_total",
                "Jobs that failed with a PIM error.",
                self.jobs_failed,
            ),
            (
                "swiftrl_service_launches_total",
                "Kernel launches across completed jobs.",
                self.launches,
            ),
            (
                "swiftrl_service_faulted_launches_total",
                "Launches with at least one aborted DPU.",
                self.faulted_launches,
            ),
            (
                "swiftrl_service_retries_total",
                "Resilience retries across completed jobs.",
                self.retries,
            ),
            (
                "swiftrl_service_rollbacks_total",
                "Resilience rollbacks across completed jobs.",
                self.rollbacks,
            ),
            (
                "swiftrl_service_degraded_dpus_total",
                "DPUs dropped by graceful degradation.",
                self.degraded_dpus,
            ),
            (
                "swiftrl_service_sync_rounds_total",
                "Synchronization rounds across completed jobs.",
                self.sync_rounds,
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} counter\n{name} {value}\n"
            ));
        }
        out.push_str(&format!(
            "# HELP swiftrl_service_kernel_seconds_total Simulated kernel seconds across completed jobs.\n# TYPE swiftrl_service_kernel_seconds_total counter\nswiftrl_service_kernel_seconds_total {}\n",
            self.kernel_seconds
        ));
        for (name, help, value) in [
            (
                "swiftrl_service_queue_depth_max",
                "Deepest FIFO queue observed.",
                self.queue_depth_max,
            ),
            (
                "swiftrl_service_leased_ranks_max",
                "Most ranks leased at once.",
                self.leased_ranks_max,
            ),
            (
                "swiftrl_service_workers_busy_max",
                "Most workers busy at once.",
                self.workers_busy_max,
            ),
        ] {
            out.push_str(&format!(
                "# HELP {name} {help}\n# TYPE {name} gauge\n{name} {value}\n"
            ));
        }
        for (name, help, hist) in [
            (
                "swiftrl_service_admission_wait_seconds",
                "Wall-clock seconds from submission to admission.",
                &self.admission_wait_s,
            ),
            (
                "swiftrl_service_run_duration_seconds",
                "Wall-clock seconds from admission to the terminal state.",
                &self.run_duration_s,
            ),
            (
                "swiftrl_service_launch_cycles",
                "Per-launch critical-path cycles (simulated).",
                &self.launch_cycles,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} summary\n"));
            for (q, v) in [
                ("0.5", hist.p50()),
                ("0.95", hist.p95()),
                ("0.99", hist.p99()),
            ] {
                out.push_str(&format!("{name}{{quantile=\"{q}\"}} {v}\n"));
            }
            out.push_str(&format!("{name}_sum {}\n", hist.sum()));
            out.push_str(&format!("{name}_count {}\n", hist.count()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(wall_s: f64, event: ServiceEvent) -> ServiceRecord {
        ServiceRecord { wall_s, event }
    }

    fn sample_records() -> Vec<ServiceRecord> {
        vec![
            rec(
                0.0,
                ServiceEvent::JobSubmitted {
                    job: 0,
                    tenant: "a".into(),
                    dpus: 4,
                },
            ),
            rec(0.0, ServiceEvent::QueueDepth { depth: 1 }),
            rec(
                0.1,
                ServiceEvent::JobSubmitted {
                    job: 1,
                    tenant: "b".into(),
                    dpus: 4,
                },
            ),
            rec(0.1, ServiceEvent::QueueDepth { depth: 2 }),
            rec(0.2, ServiceEvent::WorkerBusy { worker: 0, job: 0 }),
            rec(
                0.2,
                ServiceEvent::LeaseGranted {
                    job: 0,
                    ranks: vec![0],
                    leased_ranks: 1,
                },
            ),
            rec(0.2, ServiceEvent::JobAdmitted { job: 0, dpus: 4 }),
            rec(
                0.3,
                ServiceEvent::SyncRound {
                    job: 0,
                    round: 0,
                    live_dpus: 4,
                },
            ),
            rec(0.35, ServiceEvent::WorkerBusy { worker: 1, job: 1 }),
            rec(
                0.35,
                ServiceEvent::LeaseGranted {
                    job: 1,
                    ranks: vec![1],
                    leased_ranks: 2,
                },
            ),
            rec(0.35, ServiceEvent::JobAdmitted { job: 1, dpus: 4 }),
            rec(
                0.4,
                ServiceEvent::SyncRound {
                    job: 1,
                    round: 0,
                    live_dpus: 4,
                },
            ),
            rec(
                0.5,
                ServiceEvent::JobCompleted {
                    job: 0,
                    sync_rounds: 1,
                    launches: 2,
                    faulted_launches: 1,
                    retries: 1,
                    rollbacks: 0,
                    degraded_dpus: 0,
                    kernel_seconds: 0.25,
                    launch_cycles: vec![100.0, 300.0],
                },
            ),
            rec(
                0.5,
                ServiceEvent::LeaseReleased {
                    job: 0,
                    ranks: vec![0],
                    leased_ranks: 1,
                },
            ),
            rec(0.5, ServiceEvent::WorkerIdle { worker: 0 }),
            rec(0.6, ServiceEvent::JobCancelled { job: 1 }),
            rec(
                0.6,
                ServiceEvent::LeaseReleased {
                    job: 1,
                    ranks: vec![1],
                    leased_ranks: 0,
                },
            ),
            rec(0.6, ServiceEvent::WorkerIdle { worker: 1 }),
        ]
    }

    #[test]
    fn projection_keeps_lifecycle_drops_occupancy_and_cancelled_rounds() {
        let events = deterministic_projection(&sample_records());
        // Job 0: submitted, admitted, round 0, completed.
        // Job 1 (cancelled): submitted, admitted, cancelled — its sync
        // round is dropped.
        assert_eq!(events.len(), 7);
        let names: Vec<&str> = events.iter().map(ServiceEvent::name).collect();
        assert_eq!(
            names,
            vec![
                "job_submitted",
                "job_admitted",
                "sync_round",
                "job_completed",
                "job_submitted",
                "job_admitted",
                "job_cancelled",
            ]
        );
        assert!(events.iter().all(|e| e.job().is_some()));
    }

    #[test]
    fn projection_is_arrival_order_invariant() {
        let records = sample_records();
        let mut shuffled = records.clone();
        shuffled.reverse();
        assert_eq!(
            render_deterministic(&records),
            render_deterministic(&shuffled)
        );
        let doc = crate::json::parse(&render_deterministic(&records)).expect("parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("swiftrl-service-events-v1")
        );
    }

    #[test]
    fn metrics_fold_counters_gauges_and_histograms() {
        let m = ServiceMetrics::from_records(&sample_records());
        assert_eq!(m.jobs_submitted, 2);
        assert_eq!(m.jobs_admitted, 2);
        assert_eq!(m.jobs_completed, 1);
        assert_eq!(m.jobs_cancelled, 1);
        assert_eq!(m.jobs_failed, 0);
        assert_eq!(m.launches, 2);
        assert_eq!(m.faulted_launches, 1);
        assert_eq!(m.retries, 1);
        assert_eq!(m.sync_rounds, 1);
        assert_eq!(m.kernel_seconds, 0.25);
        assert_eq!(m.queue_depth_max, 2);
        assert_eq!(m.leased_ranks_max, 2);
        assert_eq!(m.workers_busy_max, 2);
        assert_eq!(m.admission_wait_s.count(), 2);
        // Job 0 waited 0.2 s, job 1 waited 0.25 s.
        assert!((m.admission_wait_s.max() - 0.25).abs() < 1e-12);
        assert_eq!(m.run_duration_s.count(), 2);
        assert_eq!(m.launch_cycles.count(), 2);
        assert_eq!(m.launch_cycles.p50(), 100.0);
    }

    #[test]
    fn json_and_prometheus_expositions_agree() {
        let m = ServiceMetrics::from_records(&sample_records());
        let doc = crate::json::parse(&m.to_json().render_pretty()).expect("parses");
        assert_eq!(
            doc.get("schema").and_then(Json::as_str),
            Some("swiftrl-service-metrics-v1")
        );
        assert_eq!(
            doc.get("jobs")
                .and_then(|j| j.get("submitted"))
                .and_then(Json::as_u64),
            Some(2)
        );
        let text = m.to_prometheus();
        assert!(text.contains("swiftrl_service_jobs_submitted_total 2\n"));
        assert!(text.contains("# TYPE swiftrl_service_jobs_submitted_total counter\n"));
        assert!(text.contains("# TYPE swiftrl_service_admission_wait_seconds summary\n"));
        assert!(text.contains("swiftrl_service_admission_wait_seconds_count 2\n"));
        assert!(text.contains("swiftrl_service_launch_cycles{quantile=\"0.5\"} 100\n"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().expect("value");
            assert!(value.parse::<f64>().is_ok(), "bad exposition line: {line}");
            assert!(parts.next().is_some(), "bad exposition line: {line}");
        }
        assert_eq!(m.to_prometheus(), text, "exposition is deterministic");
    }
}
