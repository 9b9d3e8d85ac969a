//! Multi-tenant training-service tests: fault isolation, lease
//! admission, cancellation, and per-tenant telemetry.
//!
//! The headline test runs 100+ concurrent jobs with mixed fault plans
//! over one shared fleet and diffs every tenant's Q-table byte-for-byte
//! against its solo run — one tenant's `FaultPlan` must never perturb
//! another tenant's results.

use swiftrl::core::config::{RunConfig, WorkloadSpec};
use swiftrl::core::resilience::ResilienceConfig;
use swiftrl::core::runner::PimRunner;
use swiftrl::core::service::{
    CancelToken, JobHandle, JobOutcome, JobRequest, JobStatus, ServiceError, TrainingService,
};
use swiftrl::env::collect::collect_random;
use swiftrl::env::frozen_lake::FrozenLake;
use swiftrl::env::taxi::Taxi;
use swiftrl::env::ExperienceDataset;
use swiftrl::pim::config::{ExecTier, PimConfig};
use swiftrl::pim::engine::host_threads;
use swiftrl::pim::faults::FaultPlan;
use swiftrl::pim::ExecutionEngine;
use swiftrl::telemetry::{
    render_deterministic, Event, ServiceEvent, ServiceMetrics, ServiceRecord, ServiceTelemetry,
};

fn frozen_dataset(transitions: usize, seed: u32) -> ExperienceDataset {
    let mut env = FrozenLake::slippery_4x4();
    collect_random(&mut env, transitions, u64::from(seed))
}

fn taxi_dataset(transitions: usize, seed: u32) -> ExperienceDataset {
    let mut env = Taxi::new();
    collect_random(&mut env, transitions, u64::from(seed))
}

/// A small fleet for tests: 16 ranks of 4 DPUs, so single-rank jobs
/// multiplex heavily.
fn small_fleet() -> PimConfig {
    PimConfig::builder().dpus(64).dpus_per_rank(4).build()
}

/// Returns once the job's private telemetry holds a `KernelLaunch`: the
/// job has been admitted, holds its lease and has done real work, so a
/// cancel issued afterwards lands mid-run with `launches > 0` by
/// construction, however the threads are scheduled.
fn wait_for_first_launch(handle: &JobHandle) {
    let launched = || {
        handle
            .telemetry()
            .records()
            .iter()
            .any(|e| matches!(e, Event::KernelLaunch { .. }))
    };
    while !launched() {
        std::thread::yield_now();
    }
}

/// The events `records` hold about job `id`, in record order: its
/// lifecycle, its sync rounds and its lease. Worker and queue occupancy
/// events are left out.
fn job_events(records: &[ServiceRecord], id: u64) -> Vec<ServiceEvent> {
    records
        .iter()
        .filter(|r| match &r.event {
            ServiceEvent::JobSubmitted { job, .. }
            | ServiceEvent::JobAdmitted { job, .. }
            | ServiceEvent::LeaseGranted { job, .. }
            | ServiceEvent::LeaseReleased { job, .. }
            | ServiceEvent::SyncRound { job, .. }
            | ServiceEvent::JobCompleted { job, .. }
            | ServiceEvent::JobCancelled { job }
            | ServiceEvent::JobFailed { job, .. } => *job == id,
            ServiceEvent::WorkerBusy { .. }
            | ServiceEvent::WorkerIdle { .. }
            | ServiceEvent::QueueDepth { .. } => false,
        })
        .map(|r| r.event.clone())
        .collect()
}

/// The exact event stream of a fault-free, 4-DPU job 0 that leases rank
/// 0 on an otherwise idle fleet and is cancelled on reaching sync round
/// `rounds`.
fn cancelled_at_round(tenant: &str, rounds: u32) -> Vec<ServiceEvent> {
    let mut events = vec![
        ServiceEvent::JobSubmitted {
            job: 0,
            tenant: tenant.to_string(),
            dpus: 4,
        },
        ServiceEvent::LeaseGranted {
            job: 0,
            ranks: vec![0],
            leased_ranks: 1,
        },
        ServiceEvent::JobAdmitted { job: 0, dpus: 4 },
    ];
    events.extend((0..rounds).map(|round| ServiceEvent::SyncRound {
        job: 0,
        round,
        live_dpus: 4,
    }));
    events.extend([
        ServiceEvent::JobCancelled { job: 0 },
        ServiceEvent::LeaseReleased {
            job: 0,
            ranks: vec![0],
            leased_ranks: 0,
        },
    ]);
    events
}

fn cfg(dpus: usize, episodes: u32, seed: u32) -> RunConfig {
    RunConfig::paper_defaults()
        .with_dpus(dpus)
        .with_episodes(episodes)
        .with_tau(2)
        .with_seed(seed)
}

/// The tentpole correctness claim: 100+ jobs from different tenants —
/// different workloads, datasets, seeds, and fault plans (including
/// dead DPUs absorbed by degradation and transient faults absorbed by
/// retries) — run concurrently over one shared fleet, and every
/// tenant's final Q-table and time breakdown are bit-identical to the
/// same job run solo on a private platform — both on the platform the
/// service ran it under (the batched tier on the engine share it was
/// admitted with) and on the plain fleet platform pinned to the fast
/// tier.
#[test]
fn hundred_concurrent_tenants_match_their_solo_runs_bit_exactly() {
    let specs = [
        WorkloadSpec::q_learning_seq_fp32(),
        WorkloadSpec::q_learning_seq_int32(),
        WorkloadSpec::sarsa_seq_fp32(),
        WorkloadSpec::sarsa_seq_int32(),
    ];
    let workers = 8;
    let service = TrainingService::new(small_fleet(), workers);
    // The service keeps the caller's fleet platform and runs every job
    // on the batched tier, on its share of the host's threads: the
    // whole host split between the 1..=workers jobs sharing it.
    assert_eq!(service.fleet_config().engine, small_fleet().engine);
    assert_eq!(service.fleet_config().cost.arith_tier, ExecTier::Fast);
    let shares: Vec<_> = (1..=workers)
        .map(|jobs| small_fleet().engine.within(host_threads(), jobs))
        .collect();

    let mut requests = Vec::new();
    for i in 0..104u32 {
        let spec = specs[(i % 4) as usize];
        let dpus = 2 + (i as usize % 3); // 2..=4 DPUs, single-rank jobs
        let transitions = 400 + 40 * (i as usize % 5);
        let dataset = if i % 2 == 0 {
            frozen_dataset(transitions, 100 + i)
        } else {
            taxi_dataset(transitions, 100 + i)
        };
        let (faults, resilience) = match i % 4 {
            // Clean tenant.
            0 => (FaultPlan::none(), ResilienceConfig::none()),
            // Transient faults, absorbed by retries.
            1 => (
                FaultPlan::seeded(u64::from(i)).with_dpu_fail_rate(0.25),
                ResilienceConfig::none().with_max_retries(8),
            ),
            // A DPU dead from its second launch, absorbed by
            // checkpointed degradation.
            2 => (
                FaultPlan::seeded(u64::from(i)).with_dead_dpus(vec![i as usize % dpus], 1),
                ResilienceConfig::none()
                    .with_max_retries(1)
                    .with_checkpoint_every(1)
                    .with_degrade(true),
            ),
            // Stragglers: timing-only faults.
            _ => (
                FaultPlan::seeded(u64::from(i)).with_stragglers(0.3, 2.0),
                ResilienceConfig::none(),
            ),
        };
        let request = JobRequest::new(format!("tenant-{i}"), spec, cfg(dpus, 8, i), dataset)
            .with_faults(faults)
            .with_resilience(resilience);
        requests.push(request);
    }

    // Submit everything up front so the queue really is concurrent,
    // then wait for all jobs.
    let handles: Vec<_> = requests
        .iter()
        .map(|r| service.submit(r.clone()).expect("admission"))
        .collect();

    let mut mismatches = Vec::new();
    for (request, handle) in requests.iter().zip(&handles) {
        let outcome = handle.wait();
        let JobOutcome::Completed(service_out) = outcome else {
            panic!("job {} did not complete: {:?}", handle.id(), outcome);
        };

        // The same job, solo, on a private platform with the identical
        // per-job configuration the service derived and the engine it
        // was admitted with...
        let engine = handle.engine().expect("a completed job was admitted");
        assert!(shares.contains(&engine), "{engine:?} not in {shares:?}");
        let mut job_platform = service.job_platform(request);
        assert_eq!(job_platform.engine, shares[0]);
        assert_eq!(job_platform.cost.arith_tier, ExecTier::Batched);
        job_platform.engine = engine;
        // ...and on the plain fleet platform, pinned to the fast tier.
        let mut fast_platform = small_fleet();
        fast_platform.dpus = request.cfg.dpus;
        fast_platform.faults = request.faults.clone();
        fast_platform.cost.arith_tier = ExecTier::Fast;

        for (platform, tag) in [(job_platform, "job platform"), (fast_platform, "fast")] {
            let solo_out = PimRunner::with_platform(request.spec, request.cfg, platform)
                .expect("solo runner")
                .with_resilience(request.resilience)
                .run(&request.dataset)
                .expect("solo run");

            // Byte-for-byte Q-table equality, exact breakdown equality.
            if service_out.q_table != solo_out.q_table
                || service_out.breakdown != solo_out.breakdown
                || service_out.resilience != solo_out.resilience
            {
                mismatches.push(format!("{} ({tag})", handle.tenant()));
            }
        }
    }
    assert!(
        mismatches.is_empty(),
        "tenants diverged from their solo runs: {mismatches:?}"
    );

    // Sanity: the sweep actually exercised faults and resilience.
    let faulted = handles
        .iter()
        .filter(|h| h.metrics().faulted_launches > 0)
        .count();
    assert!(faulted > 20, "fault plans never fired; the test is vacuous");
}

/// Lease admission rejects overlapping pinned rank sets synchronously,
/// and malformed pins never reach the queue.
#[test]
fn lease_admission_rejects_overlapping_pins() {
    // One worker: the first (unpinned) job occupies it, so the pinned
    // jobs stay queued — their pins must still exclude each other.
    let service = TrainingService::new(small_fleet(), 1);

    let busy = service
        .submit(JobRequest::new(
            "busy",
            WorkloadSpec::q_learning_seq_fp32(),
            cfg(4, 8, 1),
            frozen_dataset(600, 1),
        ))
        .expect("unpinned job admitted");

    let pinned = service
        .submit(
            JobRequest::new(
                "pinned",
                WorkloadSpec::q_learning_seq_fp32(),
                cfg(4, 4, 2),
                frozen_dataset(400, 2),
            )
            .with_pinned_ranks(vec![0, 1]),
        )
        .expect("first pin accepted");

    // Overlap with a queued pin is rejected before queueing.
    let overlap = service.submit(
        JobRequest::new(
            "overlap",
            WorkloadSpec::q_learning_seq_fp32(),
            cfg(4, 4, 3),
            frozen_dataset(400, 3),
        )
        .with_pinned_ranks(vec![1, 2]),
    );
    assert_eq!(overlap.unwrap_err(), ServiceError::LeaseOverlap { rank: 1 });

    // Disjoint pins are fine.
    let disjoint = service
        .submit(
            JobRequest::new(
                "disjoint",
                WorkloadSpec::q_learning_seq_fp32(),
                cfg(4, 4, 4),
                frozen_dataset(400, 4),
            )
            .with_pinned_ranks(vec![2, 3]),
        )
        .expect("disjoint pin accepted");

    // Malformed pins: out-of-range rank, duplicate rank, and a pin too
    // small for the job's DPU count.
    for (ranks, dpus) in [(vec![99], 4), (vec![0, 0], 4), (vec![0], 5)] {
        let err = service
            .submit(
                JobRequest::new(
                    "bad-pin",
                    WorkloadSpec::q_learning_seq_fp32(),
                    cfg(dpus, 4, 5),
                    frozen_dataset(400, 5),
                )
                .with_pinned_ranks(ranks),
            )
            .unwrap_err();
        assert!(matches!(err, ServiceError::BadPin(_)), "{err}");
    }

    // A job larger than the whole fleet is rejected outright.
    let err = service
        .submit(JobRequest::new(
            "giant",
            WorkloadSpec::q_learning_seq_fp32(),
            cfg(65, 4, 6),
            frozen_dataset(400, 6),
        ))
        .unwrap_err();
    assert!(matches!(err, ServiceError::TooLarge { .. }));

    for h in [busy, pinned, disjoint] {
        assert!(h.wait().completed().is_some(), "{} failed", h.tenant());
    }

    // Completed pins release their reservation: the once-contested
    // ranks are pinnable again.
    let repinned = service
        .submit(
            JobRequest::new(
                "repinned",
                WorkloadSpec::q_learning_seq_fp32(),
                cfg(4, 4, 7),
                frozen_dataset(400, 7),
            )
            .with_pinned_ranks(vec![0, 1]),
        )
        .expect("released pin is reusable");
    assert!(repinned.wait().completed().is_some());
}

/// Cancelling a running job stops it at a round boundary and frees its
/// lease; the fleet stays fully reusable afterwards. Cancelling a
/// queued job discards it before it ever touches the fleet.
#[test]
fn cancellation_mid_round_leaves_the_fleet_reusable() {
    let service =
        TrainingService::with_observability(small_fleet(), 2, ServiceTelemetry::enabled());

    // A per-intrinsic (fast-tier) job far too long to finish on its
    // own, cancelled on reaching sync round 3.
    let marathon = service
        .submit_with_token(
            JobRequest::new(
                "marathon",
                WorkloadSpec::q_learning_seq_fp32(),
                cfg(4, 200_000, 1),
                frozen_dataset(800, 1),
            )
            .with_exec_tier(ExecTier::Fast),
            CancelToken::at_round(3),
        )
        .expect("admitted");
    let outcome = marathon.wait();
    assert!(outcome.is_cancelled(), "expected cancellation: {outcome:?}");
    // The cancelled job did exactly rounds 0..3, one launch each.
    assert_eq!(marathon.metrics().launches, 3);
    assert_eq!(marathon.metrics().sync_rounds, 3);
    assert_eq!(
        job_events(&service.service_telemetry().records(), marathon.id()),
        cancelled_at_round("marathon", 3)
    );

    // Cancel a queued job before any worker admits it: submit enough
    // work to keep both workers busy, then a job whose token is
    // cancelled before submission, so whichever worker dequeues it
    // discards it without touching the fleet. (Cancelling after
    // `submit` raced the job's own completion.)
    let fillers: Vec<_> = (0..2)
        .map(|i| {
            service
                .submit(JobRequest::new(
                    format!("filler-{i}"),
                    WorkloadSpec::q_learning_seq_fp32(),
                    cfg(4, 8, 10 + i),
                    frozen_dataset(600, 10 + i),
                ))
                .expect("admitted")
        })
        .collect();
    let token = CancelToken::new();
    token.cancel();
    let queued = service
        .submit_with_token(
            JobRequest::new(
                "queued-cancel",
                WorkloadSpec::q_learning_seq_fp32(),
                cfg(4, 8, 20),
                frozen_dataset(600, 20),
            ),
            token,
        )
        .expect("admitted");
    assert!(queued.wait().is_cancelled());
    assert_eq!(queued.metrics().launches, 0);

    for f in fillers {
        assert!(f.wait().completed().is_some());
    }

    // The whole fleet is allocatable again: a job spanning every rank
    // completes.
    let full = service
        .submit(JobRequest::new(
            "full-fleet",
            WorkloadSpec::q_learning_seq_int32(),
            cfg(64, 4, 30),
            frozen_dataset(1_000, 30),
        ))
        .expect("full-fleet job admitted");
    assert!(full.wait().completed().is_some());
}

/// Cancelling a batched-tier job works exactly like cancelling a
/// per-intrinsic one: the `CancelToken` is checked at round boundaries
/// regardless of how the launch between them executed, so a marathon
/// batched job stops at its round, reports exactly that work, and
/// frees its lease.
#[test]
fn batched_job_cancellation_mid_round_frees_the_lease() {
    let service =
        TrainingService::with_observability(small_fleet(), 1, ServiceTelemetry::enabled());
    let marathon = service
        .submit_with_token(
            JobRequest::new(
                "batched-marathon",
                WorkloadSpec::q_learning_seq_fp32(),
                cfg(4, 200_000, 1),
                frozen_dataset(800, 1),
            )
            .with_exec_tier(ExecTier::Batched),
            CancelToken::at_round(5),
        )
        .expect("admitted");
    let outcome = marathon.wait();
    assert!(outcome.is_cancelled(), "expected cancellation: {outcome:?}");
    assert_eq!(marathon.metrics().launches, 5);
    assert_eq!(marathon.metrics().sync_rounds, 5);
    assert_eq!(
        job_events(&service.service_telemetry().records(), marathon.id()),
        cancelled_at_round("batched-marathon", 5)
    );

    // The lease is free: a follow-up batched job completes.
    let follow_up = service
        .submit(
            JobRequest::new(
                "follow-up",
                WorkloadSpec::q_learning_seq_int32(),
                cfg(4, 8, 2),
                frozen_dataset(600, 2),
            )
            .with_exec_tier(ExecTier::Batched),
        )
        .expect("admitted");
    assert!(follow_up.wait().completed().is_some());
}

/// An `at_round` token stops every job it drives at that round, each on
/// its own logical clock: two jobs sharing clones of one token run
/// concurrently and both stop at round 3, and a third job submitted
/// after they stopped still runs its own three rounds.
#[test]
fn one_at_round_token_stops_each_job_at_its_own_round() {
    let service = TrainingService::new(small_fleet(), 2);
    let token = CancelToken::at_round(3);
    let marathon = |i: u32| {
        JobRequest::new(
            format!("marathon-{i}"),
            WorkloadSpec::q_learning_seq_fp32(),
            cfg(4, 200_000, i),
            frozen_dataset(800, i),
        )
    };
    let pair: Vec<_> = (0..2)
        .map(|i| {
            service
                .submit_with_token(marathon(i), token.clone())
                .expect("admitted")
        })
        .collect();
    for handle in &pair {
        assert!(handle.wait().is_cancelled());
    }
    let late = service
        .submit_with_token(marathon(2), token.clone())
        .expect("admitted");
    assert!(late.wait().is_cancelled());
    for handle in pair.iter().chain([&late]) {
        assert_eq!(handle.metrics().launches, 3, "{}", handle.tenant());
        assert_eq!(handle.metrics().sync_rounds, 3, "{}", handle.tenant());
    }
    assert!(
        !token.is_cancelled(),
        "reaching the round cancelled the token"
    );
}

/// A job's engine is its share of the host's threads among the jobs
/// sharing the host when it is admitted: a lone job gets the whole host
/// (the engine `job_platform` reports), a job admitted beside it half.
/// Either engine leaves the job bit-identical to its solo run.
#[test]
fn job_engine_is_the_share_of_the_jobs_sharing_the_host() {
    let auto = small_fleet().engine;
    assert_eq!(auto, ExecutionEngine::Threaded { workers: 0 });
    let service = TrainingService::new(small_fleet(), 2);
    let lone = JobRequest::new(
        "lone",
        WorkloadSpec::q_learning_seq_fp32(),
        cfg(4, 200_000, 1),
        frozen_dataset(800, 1),
    );
    let first = service.submit(lone.clone()).expect("admitted");
    while first.status() == JobStatus::Queued {
        std::thread::yield_now();
    }
    let whole_host = auto.within(host_threads(), 1);
    assert_eq!(first.engine(), Some(whole_host));
    assert_eq!(service.job_platform(&lone).engine, whole_host);

    let beside = JobRequest::new(
        "beside",
        WorkloadSpec::sarsa_seq_int32(),
        cfg(4, 8, 2),
        taxi_dataset(800, 2),
    );
    let second = service.submit(beside.clone()).expect("admitted");
    let JobOutcome::Completed(service_out) = second.wait() else {
        panic!("the second job did not complete");
    };
    let half_host = auto.within(host_threads(), 2);
    assert_eq!(second.engine(), Some(half_host));
    first.cancel();
    assert!(first.wait().is_cancelled());

    for engine in [half_host, whole_host] {
        let mut platform = service.job_platform(&beside);
        platform.engine = engine;
        let solo_out = PimRunner::with_platform(beside.spec, beside.cfg, platform)
            .expect("solo runner")
            .run(&beside.dataset)
            .expect("solo run");
        assert_eq!(service_out.q_table, solo_out.q_table, "{engine:?}");
        assert_eq!(service_out.breakdown, solo_out.breakdown, "{engine:?}");
    }
}

/// Execution tiers are a per-tenant choice: a batched-tier job running
/// next to a reference-tier tenant on the same shared fleet leaves both
/// bit-identical to their solo runs — the tier changes host wall-clock
/// only, never a simulated observable, even across tenants.
#[test]
fn batched_tenant_next_to_reference_tenant_matches_solo_runs() {
    let service = TrainingService::new(small_fleet(), 2);
    let requests = [
        JobRequest::new(
            "batched-tenant",
            WorkloadSpec::sarsa_seq_fp32(),
            cfg(4, 8, 1),
            frozen_dataset(800, 1),
        )
        .with_exec_tier(ExecTier::Batched),
        JobRequest::new(
            "reference-tenant",
            WorkloadSpec::q_learning_seq_int32(),
            cfg(4, 8, 2),
            taxi_dataset(800, 2),
        )
        .with_exec_tier(ExecTier::Reference),
    ];
    let handles: Vec<_> = requests
        .iter()
        .map(|r| service.submit(r.clone()).expect("admission"))
        .collect();
    for (request, handle) in requests.iter().zip(&handles) {
        let outcome = handle.wait();
        let JobOutcome::Completed(service_out) = outcome else {
            panic!("job {} did not complete: {:?}", handle.id(), outcome);
        };
        // The solo platform carries the same per-job tier override.
        let platform = service.job_platform(request);
        assert_eq!(
            platform.cost.arith_tier,
            request.exec_tier.expect("tier set"),
            "job_platform must carry the per-job tier override"
        );
        assert_eq!(
            platform.engine,
            small_fleet().engine.within(host_threads(), 1),
            "job_platform must carry a lone job's engine share"
        );
        let solo_out = PimRunner::with_platform(request.spec, request.cfg, platform)
            .expect("solo runner")
            .run(&request.dataset)
            .expect("solo run");
        assert_eq!(
            service_out.q_table, solo_out.q_table,
            "{}: in-service Q-table diverged from solo run",
            handle.tenant()
        );
        assert_eq!(
            service_out.breakdown, solo_out.breakdown,
            "{}: in-service breakdown diverged from solo run",
            handle.tenant()
        );
    }
}

/// Every tenant's telemetry sink contains only its own events: fault
/// and resilience counters from a faulty neighbour never leak into a
/// clean tenant's metrics, and each tenant's sync rounds match its own
/// schedule.
#[test]
fn per_tenant_metrics_are_isolated() {
    let service = TrainingService::new(small_fleet(), 4);

    let clean = service
        .submit(JobRequest::new(
            "clean",
            WorkloadSpec::q_learning_seq_fp32(),
            cfg(4, 8, 1),
            frozen_dataset(800, 1),
        ))
        .expect("admitted");
    let faulty = service
        .submit(
            JobRequest::new(
                "faulty",
                WorkloadSpec::q_learning_seq_fp32(),
                cfg(4, 8, 2),
                frozen_dataset(800, 2),
            )
            .with_faults(FaultPlan::seeded(3).with_dead_dpus(vec![1], 1))
            .with_resilience(
                ResilienceConfig::none()
                    .with_max_retries(1)
                    .with_checkpoint_every(1)
                    .with_degrade(true),
            ),
        )
        .expect("admitted");

    let clean_out = clean.wait().completed().cloned().expect("clean completes");
    let faulty_out = faulty.wait().completed().cloned().expect("faulty recovers");

    let clean_metrics = clean.metrics();
    let faulty_metrics = faulty.metrics();
    assert_eq!(clean_metrics.label, "clean/job-0");
    assert_eq!(faulty_metrics.label, "faulty/job-1");

    // The faulty tenant's story shows up in its own metrics...
    assert!(faulty_out.resilience.faults_seen > 0);
    assert!(faulty_metrics.faulted_launches > 0);
    assert_eq!(faulty_metrics.retries, faulty_out.resilience.retries);
    assert_eq!(faulty_metrics.rollbacks, faulty_out.resilience.rollbacks);
    assert_eq!(
        faulty_metrics.degraded_dpus as usize,
        faulty_out.resilience.degraded_dpus.len()
    );

    // ...and leaves no trace in the clean tenant's.
    assert!(clean_out.resilience.is_clean());
    assert_eq!(clean_metrics.faulted_launches, 0);
    assert_eq!(clean_metrics.retries, 0);
    assert_eq!(clean_metrics.rollbacks, 0);
    assert_eq!(clean_metrics.degraded_dpus, 0);
    assert_eq!(clean_metrics.faulted_dpu_events, 0);

    // Each tenant sees exactly its own schedule: 8 episodes at τ=2 is
    // 4 sync rounds and 4 launches — nothing more, nothing less.
    assert_eq!(clean_metrics.sync_rounds, u64::from(clean_out.comm_rounds));
    assert_eq!(clean_metrics.launches, u64::from(clean_out.comm_rounds));
}

/// Submissions after shutdown are rejected; jobs already queued still
/// drain to a terminal state.
#[test]
fn shutdown_drains_and_rejects_new_jobs() {
    let mut service = TrainingService::new(small_fleet(), 2);
    let handles: Vec<_> = (0..6)
        .map(|i| {
            service
                .submit(JobRequest::new(
                    format!("drain-{i}"),
                    WorkloadSpec::q_learning_seq_fp32(),
                    cfg(2, 4, i),
                    frozen_dataset(300, i),
                ))
                .expect("admitted")
        })
        .collect();
    service.shutdown();
    for h in &handles {
        assert!(h.wait().completed().is_some(), "{} failed", h.tenant());
    }
    let err = service
        .submit(JobRequest::new(
            "late",
            WorkloadSpec::q_learning_seq_fp32(),
            cfg(2, 4, 99),
            frozen_dataset(300, 99),
        ))
        .unwrap_err();
    assert_eq!(err, ServiceError::ShuttingDown);
}

/// The mixed-fault tenant batch used by the observability tests: clean,
/// transient-fault, dead-DPU (degradation) and straggler tenants, as in
/// the headline isolation test but smaller episodes.
fn observability_requests(jobs: u32) -> Vec<JobRequest> {
    let specs = [
        WorkloadSpec::q_learning_seq_fp32(),
        WorkloadSpec::q_learning_seq_int32(),
        WorkloadSpec::sarsa_seq_fp32(),
        WorkloadSpec::sarsa_seq_int32(),
    ];
    (0..jobs)
        .map(|i| {
            let spec = specs[(i % 4) as usize];
            let dpus = 2 + (i as usize % 3);
            let transitions = 300 + 30 * (i as usize % 5);
            let dataset = if i % 2 == 0 {
                frozen_dataset(transitions, 500 + i)
            } else {
                taxi_dataset(transitions, 500 + i)
            };
            let (faults, resilience) = match i % 4 {
                1 => (
                    FaultPlan::seeded(u64::from(i)).with_dpu_fail_rate(0.25),
                    ResilienceConfig::none().with_max_retries(8),
                ),
                2 => (
                    FaultPlan::seeded(u64::from(i)).with_dead_dpus(vec![i as usize % dpus], 1),
                    ResilienceConfig::none()
                        .with_max_retries(1)
                        .with_checkpoint_every(1)
                        .with_degrade(true),
                ),
                _ => (FaultPlan::none(), ResilienceConfig::none()),
            };
            JobRequest::new(format!("tenant-{i}"), spec, cfg(dpus, 6, i), dataset)
                .with_faults(faults)
                .with_resilience(resilience)
        })
        .collect()
}

/// The observability determinism contract (DESIGN.md §15): the
/// deterministic projection of the service-event stream — lifecycle
/// events keyed by the logical clock, occupancy dropped, cancelled
/// jobs' sync rounds dropped — renders byte-identically across the
/// serial and threaded engines *and* across worker counts, for a
/// 100-tenant mixed-fault batch that includes dead-DPU tenants and a
/// job cancelled mid-round. Both engines are explicit, so the service
/// keeps them: the threaded case really runs every job on 3 threads.
#[test]
fn deterministic_service_stream_is_byte_identical_across_engines() {
    let requests = observability_requests(100);
    let marathon = JobRequest::new(
        "marathon",
        WorkloadSpec::q_learning_seq_fp32(),
        cfg(4, 200_000, 7),
        frozen_dataset(600, 7),
    );

    let mut rendered: Vec<(String, String)> = Vec::new();
    for (engine, workers, tag) in [
        (ExecutionEngine::Serial, 8, "serial"),
        (ExecutionEngine::Threaded { workers: 3 }, 5, "threaded"),
    ] {
        let fleet = PimConfig::builder()
            .dpus(64)
            .dpus_per_rank(4)
            .engine(engine)
            .build();
        let service =
            TrainingService::with_observability(fleet, workers, ServiceTelemetry::enabled());
        assert_eq!(service.job_platform(&marathon).engine, engine, "{tag}");
        let handles: Vec<_> = requests
            .iter()
            .map(|r| service.submit(r.clone()).expect("admission"))
            .collect();
        // One tenant is cancelled mid-round: wait until it has launched
        // (so its admission is deterministic), then cancel. How many
        // rounds it completed first is a race the projection drops.
        let cancelled = service.submit(marathon.clone()).expect("admission");
        wait_for_first_launch(&cancelled);
        cancelled.cancel();
        assert!(cancelled.wait().is_cancelled());
        for handle in &handles {
            assert!(
                handle.wait().completed().is_some(),
                "{tag}: job {} did not complete",
                handle.id()
            );
        }
        rendered.push((
            tag.to_string(),
            render_deterministic(&service.service_telemetry().records()),
        ));
    }

    let (base_tag, baseline) = &rendered[0];
    assert!(
        baseline.contains("\"schema\": \"swiftrl-service-events-v1\""),
        "rendered stream must carry the schema tag"
    );
    // Every lifecycle phase of the fixture appears in the projection.
    for needle in ["job_submitted", "job_admitted", "sync_round", "job_completed", "job_cancelled"]
    {
        assert!(baseline.contains(needle), "projection lost {needle} events");
    }
    for (tag, stream) in &rendered[1..] {
        assert_eq!(
            stream, baseline,
            "deterministic stream diverged between {base_tag} and {tag} engines"
        );
    }
}

/// The service metrics registry is an exact fold of the event stream:
/// its counters reconcile with the per-tenant metrics snapshots and
/// outcome totals, and the Prometheus exposition carries the same
/// numbers.
#[test]
fn service_metrics_reconcile_with_per_tenant_totals() {
    let requests = observability_requests(16);
    let service = TrainingService::with_observability(
        small_fleet(),
        4,
        ServiceTelemetry::enabled(),
    );
    let handles: Vec<_> = requests
        .iter()
        .map(|r| service.submit(r.clone()).expect("admission"))
        .collect();
    let mut kernel_seconds = 0.0_f64;
    for handle in &handles {
        let outcome = handle.wait();
        let out = outcome.completed().expect("job completes");
        kernel_seconds += out.breakdown.pim_kernel_s;
    }

    let records = service.service_telemetry().records();
    let registry = ServiceMetrics::from_records(&records);

    assert_eq!(registry.jobs_submitted, 16);
    assert_eq!(registry.jobs_admitted, 16);
    assert_eq!(registry.jobs_completed, 16);
    assert_eq!(registry.jobs_cancelled, 0);
    assert_eq!(registry.jobs_failed, 0);

    // Counter totals match the sum of every tenant's private snapshot.
    let mut launches = 0u64;
    let mut faulted = 0u64;
    let mut retries = 0u64;
    let mut rollbacks = 0u64;
    let mut degraded = 0u64;
    let mut sync_rounds = 0u64;
    for handle in &handles {
        let m = handle.metrics();
        launches += m.launches;
        faulted += m.faulted_launches;
        retries += m.retries;
        rollbacks += m.rollbacks;
        degraded += m.degraded_dpus;
        sync_rounds += m.sync_rounds;
    }
    assert_eq!(registry.launches, launches);
    assert_eq!(registry.faulted_launches, faulted);
    assert_eq!(registry.retries, retries);
    assert_eq!(registry.rollbacks, rollbacks);
    assert_eq!(registry.degraded_dpus, degraded);
    assert_eq!(registry.sync_rounds, sync_rounds);
    assert!(faulted > 0, "fault plans never fired; reconciliation is vacuous");
    assert!(
        (registry.kernel_seconds - kernel_seconds).abs() < 1e-9,
        "kernel seconds diverged: registry {} vs outcomes {kernel_seconds}",
        registry.kernel_seconds
    );

    // The latency histograms saw every job once.
    assert_eq!(registry.admission_wait_s.count(), 16);
    assert_eq!(registry.run_duration_s.count(), 16);
    assert_eq!(registry.launch_cycles.count(), launches);

    // The exposition carries the same totals.
    let prom = registry.to_prometheus();
    for line in [
        "swiftrl_service_jobs_completed_total 16".to_string(),
        format!("swiftrl_service_launches_total {launches}"),
        format!("swiftrl_service_retries_total {retries}"),
    ] {
        assert!(prom.contains(&line), "exposition missing `{line}`:\n{prom}");
    }
}

/// An enabled sink stamps every record with the wall-clock offset the
/// service measured: after a drain, some record lies past time zero.
#[test]
fn enabled_sink_stamps_wall_clock_offsets() {
    let service =
        TrainingService::with_observability(small_fleet(), 2, ServiceTelemetry::enabled());
    let handles: Vec<_> = observability_requests(2)
        .into_iter()
        .map(|r| service.submit(r).expect("admission"))
        .collect();
    for handle in &handles {
        assert!(handle.wait().completed().is_some());
    }
    let records = service.service_telemetry().records();
    assert!(
        records.iter().any(|r| r.wall_s > 0.0),
        "no record carries a wall-clock offset: {records:?}"
    );
}

/// Observability off is the default and costs nothing: a service built
/// with [`TrainingService::new`] records no service events, and its
/// tenants' simulated results are byte-identical to an observed run —
/// the observer never touches a simulated observable.
#[test]
fn disabled_observability_records_nothing_and_changes_no_observable() {
    let requests = observability_requests(8);

    let run = |service: &TrainingService| {
        let handles: Vec<_> = requests
            .iter()
            .map(|r| service.submit(r.clone()).expect("admission"))
            .collect();
        handles
            .iter()
            .map(|h| h.wait().completed().cloned().expect("job completes"))
            .collect::<Vec<_>>()
    };

    let plain = TrainingService::new(small_fleet(), 4);
    let plain_outs = run(&plain);
    assert!(
        plain.service_telemetry().records().is_empty(),
        "a default service must record no service events"
    );

    let observed =
        TrainingService::with_observability(small_fleet(), 4, ServiceTelemetry::enabled());
    let observed_outs = run(&observed);
    assert!(
        !observed.service_telemetry().records().is_empty(),
        "the observed run recorded nothing; the comparison is vacuous"
    );

    for (i, (a, b)) in plain_outs.iter().zip(&observed_outs).enumerate() {
        assert_eq!(a.q_table, b.q_table, "job {i}: observer changed the Q-table");
        assert_eq!(a.breakdown, b.breakdown, "job {i}: observer changed timing");
        assert_eq!(a.resilience, b.resilience, "job {i}: observer changed resilience");
    }
}
