//! Service throughput: multi-tenant job multiplexing over one fleet.
//!
//! Submits a batch of heterogeneous training jobs — mixed workloads,
//! DPU counts, and fault plans — to the [`TrainingService`] job queue
//! and measures end-to-end drain time against running the same batch
//! serially, one job after another, on the platforms the service runs
//! them under ([`TrainingService::job_platform`]: same tier) with the
//! engine width each job gets while the queue keeps every worker busy,
//! so `speedup_vs_serial` measures multiplexing alone. Every wall time
//! is the median of [`REPEATS`] runs; the artifact also records the
//! host's thread count and, per worker count, that engine width. Reports
//! per-batch throughput (jobs/s), aggregate simulated kernel time, and
//! the fault/resilience totals across tenants. Results land in
//! `BENCH_SERVICE.json` in the current directory.
//!
//! ```text
//! cargo run --release -p swiftrl-bench -- service_throughput
//! cargo run --release -p swiftrl-bench -- service_throughput --quick
//! cargo run --release -p swiftrl-bench -- service_throughput \
//!     --quick --trace service.trace.json --metrics service.metrics.json
//! ```
//!
//! `--trace` / `--metrics` run one extra *observed* drain after the
//! measured sweep (which stays un-instrumented so the ratcheted
//! `BENCH_SERVICE.json` numbers are untouched): a service built with
//! [`TrainingService::with_observability`] records the full
//! [`ServiceEvent`](swiftrl_telemetry::ServiceEvent) stream, from which
//! the fleet-wide Chrome trace, the `swiftrl-service-metrics-v1`
//! snapshot and a Prometheus text exposition (`.prom` sibling of the
//! metrics path) are derived.

use std::time::Instant;
use swiftrl_bench::cli::{read_flags, ArgError};
use swiftrl_bench::write_artifact;
use swiftrl_core::config::{RunConfig, WorkloadSpec};
use swiftrl_core::resilience::ResilienceConfig;
use swiftrl_core::runner::PimRunner;
use swiftrl_core::service::{JobOutcome, JobRequest, TrainingService};
use swiftrl_env::collect::collect_random;
use swiftrl_env::frozen_lake::FrozenLake;
use swiftrl_env::taxi::Taxi;
use swiftrl_env::ExperienceDataset;
use swiftrl_pim::config::PimConfig;
use swiftrl_pim::engine::host_threads;
use swiftrl_pim::faults::FaultPlan;
use swiftrl_pim::ExecutionEngine;
use swiftrl_telemetry::{
    service_trace, Event, Json, MetricsSnapshot, ServiceMetrics, ServiceTelemetry, Telemetry,
};

/// Builds the heterogeneous tenant batch: four workload variants,
/// 2–4-DPU slices, a quarter of the tenants with transient faults and
/// a quarter with a dead DPU recovered by checkpointed degradation.
fn build_requests(jobs: usize, episodes: u32) -> Vec<JobRequest> {
    let specs = [
        WorkloadSpec::q_learning_seq_fp32(),
        WorkloadSpec::q_learning_seq_int32(),
        WorkloadSpec::sarsa_seq_fp32(),
        WorkloadSpec::sarsa_seq_int32(),
    ];
    (0..jobs)
        .map(|i| {
            let spec = specs[i % 4];
            let dpus = 2 + i % 3;
            let transitions = 600 + 60 * (i % 5);
            let dataset: ExperienceDataset = if i % 2 == 0 {
                let mut env = Taxi::new();
                collect_random(&mut env, transitions, 1_000 + i as u64)
            } else {
                let mut env = FrozenLake::slippery_4x4();
                collect_random(&mut env, transitions, 1_000 + i as u64)
            };
            let cfg = RunConfig::paper_defaults()
                .with_dpus(dpus)
                .with_episodes(episodes)
                .with_tau(2)
                .with_seed(i as u32);
            let (faults, resilience) = match i % 4 {
                1 => (
                    FaultPlan::seeded(i as u64).with_dpu_fail_rate(0.2),
                    ResilienceConfig::none().with_max_retries(8),
                ),
                3 => (
                    FaultPlan::seeded(i as u64).with_dead_dpus(vec![i % dpus], 1),
                    ResilienceConfig::none()
                        .with_max_retries(1)
                        .with_checkpoint_every(1)
                        .with_degrade(true),
                ),
                _ => (FaultPlan::none(), ResilienceConfig::none()),
            };
            JobRequest::new(format!("tenant-{i}"), spec, cfg, dataset)
                .with_faults(faults)
                .with_resilience(resilience)
        })
        .collect()
}

/// Timed runs per point; every reported wall time is their median.
const REPEATS: usize = 5;

/// Simulated totals of one pass over the batch: kernel seconds, faulted
/// launches, retries, rollbacks. Identical for every pass, serial or
/// multiplexed, at every worker count.
type SimTotals = (f64, u64, u64, u64);

/// Runs every job solo, one after another, on the platform `service`
/// runs it under with `engine`, with a private event sink and metrics
/// fold per job as the service keeps them.
fn serial_pass(
    service: &TrainingService,
    requests: &[JobRequest],
    engine: ExecutionEngine,
) -> SimTotals {
    let mut totals: SimTotals = (0.0, 0, 0, 0);
    for request in requests {
        let telemetry = Telemetry::enabled();
        let mut platform = service.job_platform(request);
        platform.engine = engine;
        platform.telemetry = telemetry.clone();
        let out = PimRunner::with_platform(request.spec, request.cfg, platform)
            .expect("runner")
            .with_resilience(request.resilience)
            .run(&request.dataset)
            .expect("serial run");
        let metrics = MetricsSnapshot::from_events("", &telemetry.records());
        totals.0 += out.breakdown.pim_kernel_s;
        totals.1 += metrics.faulted_launches;
        totals.2 += metrics.retries;
        totals.3 += metrics.rollbacks;
    }
    totals
}

/// Submits the whole batch to `service` and waits for every job.
fn drain(service: &TrainingService, requests: &[JobRequest]) -> SimTotals {
    let handles: Vec<_> = requests
        .iter()
        .map(|r| service.submit(r.clone()).expect("admission"))
        .collect();
    let mut totals: SimTotals = (0.0, 0, 0, 0);
    for handle in &handles {
        match handle.wait() {
            JobOutcome::Completed(out) => totals.0 += out.breakdown.pim_kernel_s,
            other => panic!("job {} did not complete: {other:?}", handle.id()),
        }
        let metrics = handle.metrics();
        totals.1 += metrics.faulted_launches;
        totals.2 += metrics.retries;
        totals.3 += metrics.rollbacks;
    }
    totals
}

/// Wall seconds of `f`, with its result.
fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let started = Instant::now();
    let out = f();
    (started.elapsed().as_secs_f64(), out)
}

/// Median of `samples` (non-empty).
fn median(samples: &mut [f64]) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    if n % 2 == 1 {
        samples[n / 2]
    } else {
        (samples[n / 2 - 1] + samples[n / 2]) / 2.0
    }
}

pub fn run(args: &[String]) -> Result<(), ArgError> {
    let flags = read_flags(
        args,
        &[
            "--quick (fewer jobs and episodes for CI)",
            "--trace <path> (fleet-wide Chrome trace from an observed drain)",
            "--metrics <path> (service metrics JSON + .prom exposition sibling)",
        ],
    )?;
    let quick = flags.has("--quick");
    let trace = flags.value("--trace").map(std::path::PathBuf::from);
    let metrics = flags.value("--metrics").map(std::path::PathBuf::from);

    let (jobs, episodes, worker_sweep): (usize, u32, Vec<usize>) = if quick {
        (24, 8, vec![1, 4])
    } else {
        (120, 16, vec![1, 2, 4, 8])
    };
    // 16 ranks of 4 DPUs: single-rank jobs multiplex heavily without
    // the host cost of simulating the full 2,524-DPU machine per job.
    let fleet = PimConfig::builder().dpus(64).dpus_per_rank(4).build();
    let requests = build_requests(jobs, episodes);

    println!("# Service throughput: multi-tenant multiplexing over one shared fleet\n");
    let threads = host_threads();
    println!(
        "{jobs} jobs, {episodes} episodes each, fleet of {} DPUs in {} ranks, \
         {threads} host threads, median of {REPEATS} runs{}\n",
        fleet.dpus,
        fleet.ranks_for(fleet.dpus),
        if quick { " (--quick)" } else { "" }
    );

    let mut rows = Vec::new();
    let mut points = Vec::new();
    let mut sim_totals: Option<SimTotals> = None;
    for &workers in &worker_sweep {
        let service = TrainingService::new(fleet.clone(), workers);
        // The engine each job gets while every worker is busy, and its
        // width unclamped by the job's DPU count.
        let busy_engine = fleet.engine.within(threads, workers);
        let engine_workers = busy_engine.workers_for(usize::MAX);
        // Alternate the serial baseline and the drain so both see the
        // same host conditions.
        let (mut serial_s, mut drain_s) = (Vec::new(), Vec::new());
        for _ in 0..REPEATS {
            let (wall_s, serial) = timed(|| serial_pass(&service, &requests, busy_engine));
            serial_s.push(wall_s);
            let (wall_s, totals) = timed(|| drain(&service, &requests));
            drain_s.push(wall_s);
            let expected = *sim_totals.get_or_insert(totals);
            assert!(
                totals == expected && serial == expected,
                "simulated totals moved with the schedule: drain {totals:?}, \
                 serial {serial:?}, first drain {expected:?}"
            );
        }
        let serial_wall_s = median(&mut serial_s);
        let wall_s = median(&mut drain_s);
        let (sim_kernel_s, faulted_launches, retries, rollbacks) =
            sim_totals.expect("at least one repeat");
        let jobs_per_s = if wall_s > 0.0 {
            jobs as f64 / wall_s
        } else {
            0.0
        };

        rows.push(vec![
            workers.to_string(),
            engine_workers.to_string(),
            jobs.to_string(),
            swiftrl_bench::fmt_secs(wall_s),
            swiftrl_bench::fmt_secs(serial_wall_s),
            format!("{jobs_per_s:.1}"),
            swiftrl_bench::fmt_secs(sim_kernel_s),
            faulted_launches.to_string(),
            retries.to_string(),
            rollbacks.to_string(),
        ]);
        points.push(Json::obj([
            ("workers", Json::UInt(workers as u64)),
            ("engine_workers", Json::UInt(engine_workers as u64)),
            ("jobs", Json::UInt(jobs as u64)),
            ("host_wall_s", Json::Num(wall_s)),
            ("serial_wall_s", Json::Num(serial_wall_s)),
            // `null` instead of a non-finite value on a degenerate
            // zero-wall measurement.
            ("jobs_per_s", swiftrl_bench::ratio_json(jobs as f64, wall_s)),
            (
                "speedup_vs_serial",
                swiftrl_bench::ratio_json(serial_wall_s, wall_s),
            ),
            ("sim_kernel_s", Json::Num(sim_kernel_s)),
            ("faulted_launches", Json::UInt(faulted_launches)),
            ("retries", Json::UInt(retries)),
            ("rollbacks", Json::UInt(rollbacks)),
        ]));
    }

    swiftrl_bench::print_table(
        &[
            "Workers",
            "Busy job engine width",
            "Jobs",
            "Drain wall",
            "Serial wall",
            "Jobs/s",
            "Sim kernel",
            "Faulted",
            "Retries",
            "Rollbacks",
        ],
        &rows,
    );
    println!(
        "\nSerial wall: the same jobs one after another, each on a busy job's platform.\n"
    );

    let doc = Json::obj([
        ("benchmark", Json::str("service_throughput")),
        ("quick", Json::Bool(quick)),
        ("jobs", Json::UInt(jobs as u64)),
        ("episodes", Json::UInt(u64::from(episodes))),
        ("fleet_dpus", Json::UInt(fleet.dpus as u64)),
        ("fleet_ranks", Json::UInt(fleet.ranks_for(fleet.dpus) as u64)),
        ("host_threads", Json::UInt(threads as u64)),
        ("points", Json::Arr(points)),
    ]);
    write_artifact(std::path::Path::new("BENCH_SERVICE.json"), &doc.render_pretty())
        .expect("write BENCH_SERVICE.json");
    println!("\nWrote BENCH_SERVICE.json");

    if trace.is_some() || metrics.is_some() {
        observed_drain(&fleet, &requests, *worker_sweep.last().unwrap_or(&4), trace, metrics);
    }
    Ok(())
}

/// One extra drain with service observability on, separate from the
/// measured sweep above so the ratcheted numbers never pay for it.
/// Writes the fleet-wide Chrome trace (worker/rank/per-job lanes), the
/// `swiftrl-service-metrics-v1` snapshot, and its Prometheus text
/// exposition as a `.prom` sibling of the metrics path.
fn observed_drain(
    fleet: &PimConfig,
    requests: &[JobRequest],
    workers: usize,
    trace: Option<std::path::PathBuf>,
    metrics: Option<std::path::PathBuf>,
) {
    let service =
        TrainingService::with_observability(fleet.clone(), workers, ServiceTelemetry::enabled());
    let handles: Vec<_> = requests
        .iter()
        .map(|r| service.submit(r.clone()).expect("admission"))
        .collect();
    for handle in &handles {
        match handle.wait() {
            JobOutcome::Completed(_) => {}
            other => panic!("observed job {} did not complete: {other:?}", handle.id()),
        }
    }
    let records = service.service_telemetry().records();
    println!(
        "\nObserved drain: {} jobs on {workers} workers, {} service events",
        handles.len(),
        records.len()
    );

    if let Some(path) = &trace {
        let owned: Vec<(u64, String, Vec<Event>)> = handles
            .iter()
            .map(|h| {
                (
                    h.id(),
                    format!("{}/job-{}", h.tenant(), h.id()),
                    h.telemetry().records(),
                )
            })
            .collect();
        let jobs: Vec<(u64, &str, &[Event])> = owned
            .iter()
            .map(|(id, label, events)| (*id, label.as_str(), events.as_slice()))
            .collect();
        write_artifact(path, &service_trace(&records, &jobs))
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("service trace: {}", path.display());
    }
    if let Some(path) = &metrics {
        let registry = ServiceMetrics::from_records(&records);
        write_artifact(path, &registry.to_json().render_pretty())
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        let prom_path = path.with_extension("prom");
        std::fs::write(&prom_path, registry.to_prometheus())
            .unwrap_or_else(|e| panic!("writing {}: {e}", prom_path.display()));
        println!(
            "service metrics: {}; exposition: {}",
            path.display(),
            prom_path.display()
        );
    }
}
