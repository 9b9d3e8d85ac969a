//! Multi-tenant training service: an async job queue multiplexing many
//! concurrent training jobs over one shared simulated PIM fleet.
//!
//! The paper's machine is a single 2,524-DPU fleet, but a deployment
//! rarely dedicates it to one workload: tuning sweeps, per-team
//! experiments and fault-injection campaigns all want slices of the
//! same ranks at the same time. [`TrainingService`] provides that
//! multiplexing with *fault isolation by construction*:
//!
//! - **Admission control** leases whole 64-DPU ranks (the transfer
//!   bandwidth granularity) to each job from a shared rank bitmap.
//!   Leases never overlap, so a job's CPU↔PIM traffic is modelled on
//!   its own ranks exactly as a solo run would be.
//! - **Per-job platform views**: every admitted job gets its own
//!   [`DpuSet`] built from its own [`PimConfig`] — its own
//!   [`FaultPlan`], its own
//!   [`Telemetry`] sink, local DPU indices `0..n`. The only shared
//!   pieces of machinery are the fleet's memory arena (accounting) and
//!   the DPU/rank capacity counters, neither of which feeds any
//!   simulated observable of the run. One tenant's injected faults
//!   therefore cannot perturb another tenant's bit-exact Q-tables.
//! - **Fair scheduling with cancellation**: jobs are admitted strictly
//!   in submission order (FIFO; a job that does not fit blocks the
//!   queue rather than being starved by smaller late arrivals), and
//!   every job carries a [`CancelToken`] checked by the runner at each
//!   sync-round boundary, so a cancelled job frees its lease within
//!   one round. [`JobHandle::cancel`] ends a job that is still queued,
//!   or still waiting for ranks, at once.
//! - **One host thread budget**: the fleet's auto engine width
//!   (`Threaded { workers: 0 }`) is split, at each admission, between
//!   the jobs that share the host at that moment
//!   ([`ExecutionEngine::within`]): a lone job gets every host thread,
//!   and a full queue gives each of N workers a 1/N share instead of N
//!   whole-host pools. Every job runs on the [`ExecTier::Batched`]
//!   tier. Neither choice moves a simulated bit or cycle (DESIGN.md
//!   §8.1, §14).
//!
//! The isolation claim is pinned by `tests/service.rs`, which runs 100+
//! concurrent jobs with mixed fault plans and diffs every tenant's
//! Q-table byte-for-byte against its solo run.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::thread::JoinHandle;

use swiftrl_env::dataset::ExperienceDataset;
use swiftrl_pim::config::{ExecTier, PimConfig};
use swiftrl_pim::engine::host_threads;
use swiftrl_pim::faults::FaultPlan;
use swiftrl_pim::host::{DpuSet, PimError, PimSystem};
use swiftrl_pim::ExecutionEngine;
use swiftrl_telemetry::{
    MetricsSnapshot, ServiceEvent, ServiceRecord, ServiceTelemetry, Telemetry,
};

use crate::config::{RunConfig, WorkloadSpec};
use crate::resilience::ResilienceConfig;
use crate::runner::{PimRunner, RunOutcome};

/// Cooperative cancellation flag shared between a [`JobHandle`] and the
/// worker driving the job.
///
/// The runner polls the token at every sync-round boundary; a cancelled
/// run stops before its next launch and surfaces
/// [`PimError::Cancelled`], leaving the leased DPU set consistent so
/// the service can free it immediately.
///
/// A token made with [`at_round`](Self::at_round) also stops a run
/// when it reaches a given sync round: a cancellation point on the
/// run's logical clock instead of the host's. The round is checked
/// against each run on its own, so clones of one such token drive
/// several jobs and each stops at that round.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Sync round at which every run driven by the token stops, if any.
    trip_round: Option<u32>,
}

impl CancelToken {
    /// Creates a fresh, un-cancelled token.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that stops a run once it reaches sync round `round`: the
    /// run completes rounds `0..round` (launches, retries and syncs
    /// included) and stops before the next launch. `at_round(0)` stops
    /// a job after admission, before its first launch. [`cancel`](Self::cancel)
    /// still stops it earlier.
    pub fn at_round(round: u32) -> Self {
        Self {
            trip_round: Some(round),
            ..Self::default()
        }
    }

    /// Requests cancellation. Idempotent. A running job stops at its
    /// next round boundary. On its own, a token only raises its flag: a
    /// job still queued ends when a worker dequeues it, and one waiting
    /// for ranks when the next lease is released.
    /// [`JobHandle::cancel`] also ends either of those at once.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether cancellation has been requested.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }

    /// Whether a run about to start sync round `round` must stop: it was
    /// cancelled, or it has reached the token's stop round. A pure
    /// check: reaching the stop round cancels no other run.
    pub(crate) fn stops_at(&self, round: u32) -> bool {
        self.is_cancelled() || self.trip_round.is_some_and(|trip| round >= trip)
    }
}

/// Errors surfaced by [`TrainingService`] admission and job handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The job asks for no DPUs, or for more than the whole fleet has.
    TooLarge {
        /// DPUs the job asked for.
        requested_dpus: usize,
        /// DPUs the fleet has in total.
        fleet_dpus: usize,
    },
    /// The service is shutting down and no longer accepts jobs.
    ShuttingDown,
}

impl std::fmt::Display for ServiceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServiceError::TooLarge {
                requested_dpus,
                fleet_dpus,
            } => write!(
                f,
                "job wants {requested_dpus} DPUs but the fleet has only {fleet_dpus}"
            ),
            ServiceError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServiceError {}

/// Everything a tenant submits to run one training job.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// Tenant label; stamped on the job's [`MetricsSnapshot`].
    pub tenant: String,
    /// Workload variant (algorithm × data type).
    pub spec: WorkloadSpec,
    /// Run configuration; `cfg.dpus` is the job's fleet slice size.
    pub cfg: RunConfig,
    /// Host-side resilience policy for this job.
    pub resilience: ResilienceConfig,
    /// The job's private fault-injection plan. Applied only to the
    /// job's own DPU set; other tenants never observe it.
    pub faults: FaultPlan,
    /// Offline experience dataset to train on.
    pub dataset: ExperienceDataset,
}

impl JobRequest {
    /// Convenience constructor for a fault-free job with no resilience
    /// policy.
    pub fn new(
        tenant: impl Into<String>,
        spec: WorkloadSpec,
        cfg: RunConfig,
        dataset: ExperienceDataset,
    ) -> Self {
        Self {
            tenant: tenant.into(),
            spec,
            cfg,
            resilience: ResilienceConfig::none(),
            faults: FaultPlan::none(),
            dataset,
        }
    }

    /// Sets the job's fault-injection plan.
    pub fn with_faults(mut self, faults: FaultPlan) -> Self {
        self.faults = faults;
        self
    }

    /// Sets the job's resilience policy.
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }
}

/// Terminal state of a job.
#[derive(Debug, Clone)]
pub enum JobOutcome {
    /// The job trained to completion.
    Completed(Box<RunOutcome>),
    /// The job failed with a PIM error (unrecovered kernel fault,
    /// transfer failure, ...).
    Failed(PimError),
    /// The job was cancelled — either while still queued or at a
    /// round boundary mid-run.
    Cancelled,
}

impl JobOutcome {
    /// The completed run outcome, if the job finished training.
    pub fn completed(&self) -> Option<&RunOutcome> {
        match self {
            JobOutcome::Completed(out) => Some(out),
            _ => None,
        }
    }

    /// Whether the job ended by cancellation.
    pub fn is_cancelled(&self) -> bool {
        matches!(self, JobOutcome::Cancelled)
    }
}

/// Where a job currently is in its lifecycle, as observed through
/// [`JobHandle::status`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Waiting in the FIFO queue for a worker and a rank lease.
    Queued,
    /// Admitted: holding a lease and training on its own DPU set.
    Running,
    /// Reached a terminal state ([`JobHandle::wait`] returns it).
    Done,
}

/// Where a job currently is in its lifecycle.
#[derive(Debug, Clone)]
enum JobState {
    Queued,
    Running,
    Done(JobOutcome),
}

/// Shared cell a worker publishes job progress into and a
/// [`JobHandle`] waits on.
#[derive(Debug)]
struct JobCell {
    state: Mutex<JobState>,
    done_cv: Condvar,
    /// The engine the job was admitted with (unset until admission).
    engine: OnceLock<ExecutionEngine>,
}

impl JobCell {
    fn new() -> Self {
        Self {
            state: Mutex::new(JobState::Queued),
            done_cv: Condvar::new(),
            engine: OnceLock::new(),
        }
    }

    fn set(&self, state: JobState) {
        *lock_recover(&self.state) = state;
        self.done_cv.notify_all();
    }
}

/// Caller-side handle to a submitted job: wait for the outcome, cancel
/// it, and read its private telemetry.
#[derive(Clone)]
pub struct JobHandle {
    id: u64,
    tenant: String,
    token: CancelToken,
    cell: Arc<JobCell>,
    telemetry: Telemetry,
    shared: Arc<Shared>,
}

impl std::fmt::Debug for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("JobHandle")
            .field("id", &self.id)
            .field("tenant", &self.tenant)
            .field("status", &self.status())
            .finish_non_exhaustive()
    }
}

impl JobHandle {
    /// Service-assigned job id (submission order).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The tenant label the job was submitted under.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Requests cancellation: a queued job leaves the queue and ends at
    /// once, without touching the fleet; a job waiting for ranks is
    /// woken and ends; a running job stops at its next sync-round
    /// boundary and frees its lease.
    pub fn cancel(&self) {
        self.token.cancel();
        let shared = &self.shared;
        let mut queue = lock_recover(&shared.queue);
        let queued = queue.iter().position(|job| job.id == self.id);
        let Some(job) = queued.and_then(|at| queue.remove(at)) else {
            drop(queue);
            // A worker may hold the job in the lease wait. It checks the
            // token under the fleet lock, so taking that lock before the
            // wake orders the wake after the check: it cannot be lost.
            drop(lock_recover(&shared.fleet));
            shared.lease_cv.notify_all();
            return;
        };
        let depth = queue.len();
        drop(queue);
        shared.observer.emit(|| ServiceEvent::QueueDepth { depth });
        finish(shared, &job, JobOutcome::Cancelled, None);
    }

    /// The execution engine the job was admitted with: its share of the
    /// host's threads (see [`TrainingService::new`]). `None` until the
    /// job is admitted, and for a job cancelled or failed before it.
    pub fn engine(&self) -> Option<ExecutionEngine> {
        self.cell.engine.get().copied()
    }

    /// A non-blocking snapshot of where the job is in its lifecycle.
    pub fn status(&self) -> JobStatus {
        match &*lock_recover(&self.cell.state) {
            JobState::Queued => JobStatus::Queued,
            JobState::Running => JobStatus::Running,
            JobState::Done(_) => JobStatus::Done,
        }
    }

    /// Blocks until the job reaches a terminal state and returns it.
    /// Safe to call from several clones of the handle; each receives
    /// the same outcome.
    pub fn wait(&self) -> JobOutcome {
        let mut state = lock_recover(&self.cell.state);
        loop {
            if let JobState::Done(outcome) = &*state {
                return outcome.clone();
            }
            state = self
                .cell
                .done_cv
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }

    /// The job's private telemetry sink. Contains only this job's
    /// events — launches, transfers, faults, resilience actions — and
    /// nothing from any other tenant.
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// Per-tenant metrics snapshot aggregated from the job's private
    /// event stream, labelled `tenant/job-<id>`.
    pub fn metrics(&self) -> MetricsSnapshot {
        MetricsSnapshot::from_events(
            format!("{}/job-{}", self.tenant, self.id),
            &self.telemetry.records(),
        )
    }
}

/// A job sitting in the FIFO queue, waiting for a worker.
struct QueuedJob {
    id: u64,
    request: JobRequest,
    token: CancelToken,
    cell: Arc<JobCell>,
    telemetry: Telemetry,
}

/// The fleet-side state every admission decision reads and writes.
struct FleetState {
    /// The one shared machine. Tracks DPU capacity and fleet-wide
    /// memory accounting; per-job sets draw from it via
    /// [`PimSystem::alloc_with_config`].
    system: PimSystem,
    /// `true` for each rank currently leased to a *running* job.
    rank_leased: Vec<bool>,
    /// Jobs currently holding a lease.
    running: usize,
}

/// Scheduler shared state: FIFO queue + fleet + coordination.
struct Shared {
    /// The fleet platform as the caller configured it.
    config: PimConfig,
    /// Worker threads: the most jobs that run at once.
    workers: usize,
    fleet: Mutex<FleetState>,
    /// Signalled when a lease is released (capacity may now fit the
    /// head-of-line job) or a job waiting for one is cancelled.
    lease_cv: Condvar,
    queue: Mutex<VecDeque<QueuedJob>>,
    /// Signalled when a job is enqueued or shutdown begins.
    queue_cv: Condvar,
    shutdown: AtomicBool,
    /// Service observability sink + wall-clock anchor. Disabled by
    /// default; a disabled observer emits nothing and allocates
    /// nothing.
    observer: Observer,
}

/// The service's observability emitter: a [`ServiceTelemetry`] sink
/// plus the **one wall-clock anchor** in the service (DESIGN.md §15).
///
/// ---- Non-deterministic section ----
/// `started` is host wall-clock; elapsed seconds stamp every record's
/// `wall_s` for timeline layout and latency histograms. Wall time
/// never feeds a simulated observable, and the deterministic
/// projection never reads it. Everything else on a [`ServiceEvent`]
/// is logical-clock data (job id, round, rank id) or a simulated
/// quantity.
struct Observer {
    sink: ServiceTelemetry,
    started: std::time::Instant,
}

impl Observer {
    fn new(sink: ServiceTelemetry) -> Self {
        Self {
            sink,
            started: std::time::Instant::now(),
        }
    }

    /// Whether expensive payload construction should run at all.
    #[inline]
    fn on(&self) -> bool {
        self.sink.is_enabled()
    }

    /// Records an event stamped with the current wall-clock offset.
    /// The closure is evaluated only when the sink is enabled.
    #[inline]
    fn emit(&self, make: impl FnOnce() -> ServiceEvent) {
        self.sink.emit(|| ServiceRecord {
            wall_s: self.started.elapsed().as_secs_f64(),
            event: make(),
        });
    }
}

/// Locks a mutex, recovering the guard if a worker panicked while
/// holding it (the state itself stays consistent: every critical
/// section is a small, non-panicking bookkeeping update).
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Multi-tenant training service over one shared simulated fleet.
///
/// Construct with [`TrainingService::new`], submit jobs with
/// [`submit`](Self::submit), and stop with
/// [`shutdown`](Self::shutdown) (also run on drop). Worker threads the
/// service owns admit jobs strictly in submission order, lease each
/// one a disjoint slice of 64-DPU ranks, and drive the training run on
/// a private [`DpuSet`] with the job's own fault plan and telemetry
/// sink.
pub struct TrainingService {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next_id: AtomicU64,
}

impl TrainingService {
    /// Builds a service over a fleet described by `config`, with
    /// `workers` concurrent admission/execution threads.
    ///
    /// `workers` is clamped to at least 1. More workers means more
    /// jobs training concurrently (each on its own lease); one worker
    /// serializes the fleet. The jobs share the host's threads: with a
    /// fleet engine of `Threaded { workers: 0 }`, a job admitted while
    /// `k` jobs share the host (itself and the others running, plus the
    /// queued ones, at most `workers`) runs on `max(1, host threads / k)`
    /// of them, `Serial` at a share of one (see
    /// [`ExecutionEngine::within`]). A lone job gets the whole host; a
    /// full queue gives each worker its `1/workers` share. A job keeps
    /// its share to the end, so jobs arriving one by one while wider
    /// ones run can together ask for more threads than the host has
    /// until those finish.
    ///
    /// Observability is off: the service emits no [`ServiceEvent`]s
    /// and pays nothing for the instrumentation. Use
    /// [`with_observability`](Self::with_observability) to attach a
    /// sink.
    pub fn new(config: PimConfig, workers: usize) -> Self {
        Self::with_observability(config, workers, ServiceTelemetry::disabled())
    }

    /// Builds a service like [`new`](Self::new) with a service-event
    /// sink attached: every job-lifecycle transition, worker busy/idle
    /// change, rank-lease change and queue-depth sample is recorded
    /// into `sink` (see [`ServiceTelemetry`]).
    pub fn with_observability(config: PimConfig, workers: usize, sink: ServiceTelemetry) -> Self {
        let ranks = config.ranks_for(config.dpus);
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            workers,
            fleet: Mutex::new(FleetState {
                system: PimSystem::new(config.clone()),
                rank_leased: vec![false; ranks],
                running: 0,
            }),
            lease_cv: Condvar::new(),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            observer: Observer::new(sink),
            config,
        });
        let handles = (0..workers)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, worker))
            })
            .collect();
        Self {
            shared,
            workers: handles,
            next_id: AtomicU64::new(0),
        }
    }

    /// The service-event sink attached at construction (disabled for
    /// [`new`](Self::new)). Snapshot it with
    /// [`ServiceTelemetry::records`] to read the stream.
    pub fn service_telemetry(&self) -> &ServiceTelemetry {
        &self.shared.observer.sink
    }

    /// The fleet's platform configuration, as passed to the
    /// constructor (jobs run under [`job_platform`](Self::job_platform)).
    pub fn fleet_config(&self) -> &PimConfig {
        &self.shared.config
    }

    /// The platform configuration a job submitted as `request` runs
    /// under when admitted to an idle service: the fleet platform with
    /// the job's own DPU count and fault plan, the whole host's engine
    /// width, the batched tier, and telemetry off. A job admitted
    /// beside others differs only in its narrower engine
    /// ([`JobHandle::engine`]). A solo [`PimRunner`] run on this
    /// platform is bit-identical to the job's in-service run — the
    /// equivalence the service's isolation tests pin.
    pub fn job_platform(&self, request: &JobRequest) -> PimConfig {
        let engine = self.shared.config.engine.within(host_threads(), 1);
        job_platform(&self.shared.config, request, engine, Telemetry::disabled())
    }

    /// Submits a job. Admission control runs synchronously: a job that
    /// can never fit the fleet is rejected here; everything else is
    /// queued FIFO and picked up by a worker as capacity frees.
    ///
    /// # Errors
    ///
    /// [`ServiceError::TooLarge`] if `cfg.dpus` is zero or exceeds the
    /// fleet, and [`ServiceError::ShuttingDown`] after
    /// [`shutdown`](Self::shutdown).
    pub fn submit(&self, request: JobRequest) -> Result<JobHandle, ServiceError> {
        self.submit_with_token(request, CancelToken::new())
    }

    /// Submits a job like [`submit`](Self::submit), driven by `token`:
    /// [`JobHandle::cancel`] trips it as usual, and a token made with
    /// [`CancelToken::at_round`] also stops the job at that sync round.
    ///
    /// # Errors
    ///
    /// As for [`submit`](Self::submit).
    pub fn submit_with_token(
        &self,
        request: JobRequest,
        token: CancelToken,
    ) -> Result<JobHandle, ServiceError> {
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return Err(ServiceError::ShuttingDown);
        }
        let fleet_dpus = self.shared.config.dpus;
        if request.cfg.dpus == 0 || request.cfg.dpus > fleet_dpus {
            return Err(ServiceError::TooLarge {
                requested_dpus: request.cfg.dpus,
                fleet_dpus,
            });
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let cell = Arc::new(JobCell::new());
        let telemetry = Telemetry::enabled();
        let handle = JobHandle {
            id,
            tenant: request.tenant.clone(),
            token: token.clone(),
            cell: Arc::clone(&cell),
            telemetry: telemetry.clone(),
            shared: Arc::clone(&self.shared),
        };
        // Clone the tenant label only when someone is listening:
        // `String::new()` does not allocate, keeping the disabled
        // path a true zero.
        let tenant = if self.shared.observer.on() {
            request.tenant.clone()
        } else {
            String::new()
        };
        // Recorded before the job is queued, so it precedes every event
        // a worker records for the job.
        let dpus = request.cfg.dpus;
        self.shared.observer.emit(|| ServiceEvent::JobSubmitted {
            job: id,
            tenant,
            dpus,
        });
        let mut queue = lock_recover(&self.shared.queue);
        queue.push_back(QueuedJob {
            id,
            request,
            token,
            cell,
            telemetry,
        });
        let depth = queue.len();
        drop(queue);
        self.shared.queue_cv.notify_one();
        self.shared
            .observer
            .emit(|| ServiceEvent::QueueDepth { depth });
        Ok(handle)
    }

    /// Stops accepting jobs, drains the queue (every queued and
    /// running job still reaches a terminal state), and joins the
    /// workers. Idempotent.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_cv.notify_all();
        self.shared.lease_cv.notify_all();
        for handle in self.workers.drain(..) {
            drop(handle.join());
        }
    }
}

impl Drop for TrainingService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Picks the lowest free ranks whose combined DPU capacity covers
/// `dpus`, or returns `None` if the free set is currently too small.
fn pick_free_ranks(config: &PimConfig, leased: &[bool], dpus: usize) -> Option<Vec<usize>> {
    let per_rank = config.dpus_per_rank.max(1);
    let mut chosen = Vec::new();
    let mut capacity = 0usize;
    for rank in (0..leased.len()).filter(|&rank| !leased[rank]) {
        chosen.push(rank);
        // The last rank of a fleet whose DPU count is not a rank
        // multiple is partial.
        capacity += config.dpus.saturating_sub(rank * per_rank).min(per_rank);
        if capacity >= dpus {
            return Some(chosen);
        }
    }
    None
}

/// The platform a job runs under on `engine`, with `telemetry` as its
/// event sink: the `fleet` platform with the job's DPU count and fault
/// plan, on [`ExecTier::Batched`]. The one builder behind both the
/// in-service run and [`TrainingService::job_platform`].
fn job_platform(
    fleet: &PimConfig,
    request: &JobRequest,
    engine: ExecutionEngine,
    telemetry: Telemetry,
) -> PimConfig {
    let mut platform = fleet.clone();
    platform.dpus = request.cfg.dpus;
    platform.faults = request.faults.clone();
    platform.telemetry = telemetry;
    platform.engine = engine;
    platform.cost.arith_tier = ExecTier::Batched;
    platform
}

/// One worker: pop jobs FIFO, lease ranks, run, release.
fn worker_loop(shared: &Shared, worker: usize) {
    loop {
        let (job, depth) = {
            let mut queue = lock_recover(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break (job, queue.len());
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(|e| e.into_inner());
            }
        };
        let id = job.id;
        shared
            .observer
            .emit(|| ServiceEvent::WorkerBusy { worker, job: id });
        shared.observer.emit(|| ServiceEvent::QueueDepth { depth });
        run_job(shared, job);
        shared.observer.emit(|| ServiceEvent::WorkerIdle { worker });
    }
}

/// The ranks leased to an admitted job, with the DPU set allocated on
/// them (`None` if the allocation failed).
type Lease = (Vec<usize>, Option<DpuSet>);

/// Admits and executes one job end to end, then ends it through
/// [`finish`].
fn run_job(shared: &Shared, job: QueuedJob) {
    // ---- Admission: lease ranks and allocate the job's private set ----
    let dpus = job.request.cfg.dpus;
    let mut fleet = lock_recover(&shared.fleet);
    let ranks = loop {
        if job.token.is_cancelled() {
            drop(fleet);
            return finish(shared, &job, JobOutcome::Cancelled, None);
        }
        if let Some(ranks) = pick_free_ranks(&shared.config, &fleet.rank_leased, dpus) {
            break ranks;
        }
        fleet = shared
            .lease_cv
            .wait(fleet)
            .unwrap_or_else(|e| e.into_inner());
    };
    for &rank in &ranks {
        fleet.rank_leased[rank] = true;
    }
    fleet.running += 1;
    // The jobs sharing the host from now on: the running ones, this
    // one included, and the queued ones, up to one per worker.
    let sharing = (fleet.running + lock_recover(&shared.queue).len()).min(shared.workers);
    let engine = shared.config.engine.within(host_threads(), sharing);
    shared.observer.emit(|| ServiceEvent::LeaseGranted {
        job: job.id,
        ranks: ranks.clone(),
        leased_ranks: fleet.rank_leased.iter().filter(|&&l| l).count(),
    });
    let platform = job_platform(&shared.config, &job.request, engine, job.telemetry.clone());
    let allocated = fleet.system.alloc_with_config(dpus, platform);
    drop(fleet);
    let mut set = match allocated {
        Ok(set) => set,
        // Unreachable by construction (leases bound capacity), but fail
        // the job cleanly rather than poisoning the fleet if the
        // invariant is ever broken.
        Err(err) => return finish(shared, &job, JobOutcome::Failed(err), Some((ranks, None))),
    };
    job.cell.engine.get_or_init(|| engine);
    job.cell.set(JobState::Running);
    shared
        .observer
        .emit(|| ServiceEvent::JobAdmitted { job: job.id, dpus });

    // ---- Execution: drive the run outside every lock ----
    let outcome = match PimRunner::with_platform(
        job.request.spec,
        job.request.cfg,
        set.config().clone(),
    ) {
        Ok(runner) => {
            let runner = runner.with_resilience(job.request.resilience);
            match runner.run_on(&mut set, &job.request.dataset, Some(&job.token)) {
                Ok(out) => JobOutcome::Completed(Box::new(out)),
                Err(PimError::Cancelled) => JobOutcome::Cancelled,
                Err(err) => JobOutcome::Failed(err),
            }
        }
        Err(err) => JobOutcome::Failed(err),
    };
    finish(shared, &job, outcome, Some((ranks, Some(set))));
}

/// Ends `job` with `outcome`, however it got there. In order: re-emits
/// the job's simulated sync rounds and then its terminal event onto the
/// service stream (all folded from the job's private telemetry, and
/// skipped when no sink is attached), returns its lease if it holds
/// one, and publishes the outcome, so a woken [`JobHandle::wait`] finds
/// the stream complete and the ranks free.
fn finish(shared: &Shared, job: &QueuedJob, outcome: JobOutcome, lease: Option<Lease>) {
    if shared.observer.on() {
        let id = job.id;
        let events = job.telemetry.records();
        for event in &events {
            if let swiftrl_telemetry::Event::SyncRound { round, live_dpus } = event {
                let (round, live_dpus) = (*round, *live_dpus);
                shared.observer.emit(|| ServiceEvent::SyncRound {
                    job: id,
                    round,
                    live_dpus,
                });
            }
        }
        shared.observer.emit(|| match &outcome {
            JobOutcome::Completed(_) => {
                let snap = MetricsSnapshot::from_events("", &events);
                ServiceEvent::JobCompleted {
                    job: id,
                    sync_rounds: snap.sync_rounds,
                    launches: snap.launches,
                    faulted_launches: snap.faulted_launches,
                    retries: snap.retries,
                    rollbacks: snap.rollbacks,
                    degraded_dpus: snap.degraded_dpus,
                    kernel_seconds: snap.kernel_seconds,
                    launch_cycles: snap.launch_cycles,
                }
            }
            JobOutcome::Cancelled => ServiceEvent::JobCancelled { job: id },
            JobOutcome::Failed(err) => ServiceEvent::JobFailed {
                job: id,
                error: err.to_string(),
            },
        });
    }
    if let Some(lease) = lease {
        release_lease(shared, job.id, lease);
    }
    job.cell.set(JobState::Done(outcome));
}

/// Returns job `id`'s lease to the fleet — its DPU set, if allocated,
/// and its ranks — and wakes the workers waiting for ranks.
fn release_lease(shared: &Shared, id: u64, (ranks, set): Lease) {
    let mut fleet = lock_recover(&shared.fleet);
    if let Some(set) = set {
        fleet.system.free(set);
    }
    for &rank in &ranks {
        fleet.rank_leased[rank] = false;
    }
    fleet.running -= 1;
    shared.observer.emit(|| ServiceEvent::LeaseReleased {
        job: id,
        leased_ranks: fleet.rank_leased.iter().filter(|&&l| l).count(),
        ranks,
    });
    drop(fleet);
    shared.lease_cv.notify_all();
}
