//! Chrome `trace_event` JSON export: lays the event stream out as host
//! and per-DPU lanes on the **simulated** timeline, loadable in
//! Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`.
//!
//! Mapping:
//! - one *process* per run, named by its label, at the stable
//!   `pid = JOB_PID_BASE + id` ([`JOB_PID_BASE`]);
//! - `tid 0` is the host lane: program loads, transfers, launch
//!   critical paths and host aggregations as `"X"` complete events;
//! - `tid i+1` is DPU `i`: each launch contributes one `"X"` span per
//!   surviving DPU, scaled by its cycle share of the launch critical
//!   path (`seconds * cycles / max_cycles`) so lane lengths visualise
//!   load imbalance directly;
//! - faults, retries, rollbacks, degradations and sync-round boundaries
//!   are `"i"` instant events on the host lane.
//!
//! Timestamps (`ts`) and durations (`dur`) are microseconds of
//! simulated time accumulated event by event, matching the serialized
//! host timeline of the cost model. The export is a pure function of
//! the stream, hence byte-deterministic and engine-invariant.

use crate::event::Event;
use crate::json::Json;
use crate::service::{ServiceEvent, ServiceRecord};

const US_PER_S: f64 = 1e6;

/// Trace process id of the service scheduler/worker lanes in a merged
/// service timeline.
pub const SERVICE_PID: u64 = 1;
/// Trace process id of the rank-occupancy lanes in a merged service
/// timeline.
pub const RANKS_PID: u64 = 2;
/// First trace process id available to per-run and per-job processes:
/// run or job `j` maps to `pid = JOB_PID_BASE + j`, which is stable
/// across exports and can never collide with the service or rank
/// processes.
pub const JOB_PID_BASE: u64 = 10;

/// Renders runs side by side with **stable** lane identity: each
/// `(id, label, events)` run gets `pid = JOB_PID_BASE + id`, so merged
/// traces keep one distinct process per run no matter which subset of
/// runs is exported or in what order. A single run is `&[(0, label,
/// events)]`.
pub fn chrome_trace(runs: &[(u64, &str, &[Event])]) -> String {
    let mut trace_events = Vec::new();
    for &(id, label, events) in runs {
        emit_run(&mut trace_events, JOB_PID_BASE + id, label, events, 0.0);
    }
    wrap(trace_events)
}

fn wrap(trace_events: Vec<Json>) -> String {
    Json::obj([
        ("traceEvents", Json::Arr(trace_events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
    .render_pretty()
}

/// Renders the fleet-wide service timeline: every tenant merged onto
/// one trace with lanes per worker, per rank, and per job.
///
/// Layout:
/// - process [`SERVICE_PID`] (`service`): `tid 0` is the scheduler lane
///   (job lifecycle instants and the `queue_depth` counter series);
///   `tid w+1` is worker `w`, with one `"X"` span per job it drove
///   (from its `WorkerBusy` to the matching `WorkerIdle`);
/// - process [`RANKS_PID`] (`ranks`): `tid r+1` is rank `r`, with one
///   span per lease it served (from `LeaseGranted` to
///   `LeaseReleased`);
/// - one process per job at the stable `pid = JOB_PID_BASE + job_id`,
///   laying the job's private event stream out exactly like
///   [`chrome_trace`] but offset by the job's admission wall time, so
///   per-job simulated timelines sit in service wall-clock context.
///
/// Service lanes are on the **wall clock** ([`ServiceRecord::wall_s`]);
/// job lanes are simulated time offset by admission. `jobs` supplies
/// `(job_id, label, events)` for every job process to render.
pub fn service_trace(records: &[ServiceRecord], jobs: &[(u64, &str, &[Event])]) -> String {
    let mut out = Vec::new();
    out.push(metadata(SERVICE_PID, 0, "process_name", "service"));
    out.push(metadata(SERVICE_PID, 0, "thread_name", "scheduler"));

    // Name worker and rank lanes once each, in index order.
    let mut workers = Vec::new();
    let mut ranks = Vec::new();
    for record in records {
        match &record.event {
            ServiceEvent::WorkerBusy { worker, .. } | ServiceEvent::WorkerIdle { worker }
                if !workers.contains(worker) =>
            {
                workers.push(*worker);
            }
            ServiceEvent::LeaseGranted { ranks: r, .. }
            | ServiceEvent::LeaseReleased { ranks: r, .. } => {
                for rank in r {
                    if !ranks.contains(rank) {
                        ranks.push(*rank);
                    }
                }
            }
            _ => {}
        }
    }
    workers.sort_unstable();
    ranks.sort_unstable();
    for &worker in &workers {
        out.push(metadata(
            SERVICE_PID,
            worker as u64 + 1,
            "thread_name",
            &format!("worker {worker}"),
        ));
    }
    if !ranks.is_empty() {
        out.push(metadata(RANKS_PID, 0, "process_name", "ranks"));
        for &rank in &ranks {
            out.push(metadata(
                RANKS_PID,
                rank as u64 + 1,
                "thread_name",
                &format!("rank {rank}"),
            ));
        }
    }

    // Occupancy spans: track open worker-busy and rank-lease intervals
    // keyed by the logical ids, closing each on its matching release.
    let mut open_workers: Vec<(usize, f64, u64)> = Vec::new();
    let mut open_ranks: Vec<(usize, f64, u64)> = Vec::new();
    let mut last_ts = 0.0_f64;
    for record in records {
        let ts = record.wall_s * US_PER_S;
        last_ts = last_ts.max(ts);
        match &record.event {
            ServiceEvent::WorkerBusy { worker, job } => {
                open_workers.push((*worker, ts, *job));
            }
            ServiceEvent::WorkerIdle { worker } => {
                if let Some(pos) = open_workers.iter().position(|(w, _, _)| w == worker) {
                    let (worker, start, job) = open_workers.remove(pos);
                    out.push(complete(
                        SERVICE_PID,
                        worker as u64 + 1,
                        &format!("job {job}"),
                        start,
                        ts - start,
                        Json::obj([("job", Json::UInt(job))]),
                    ));
                }
            }
            ServiceEvent::LeaseGranted { job, ranks, .. } => {
                for &rank in ranks {
                    open_ranks.push((rank, ts, *job));
                }
            }
            ServiceEvent::LeaseReleased { job, ranks, .. } => {
                for &rank in ranks {
                    if let Some(pos) = open_ranks
                        .iter()
                        .position(|(r, _, j)| *r == rank && j == job)
                    {
                        let (rank, start, job) = open_ranks.remove(pos);
                        out.push(complete(
                            RANKS_PID,
                            rank as u64 + 1,
                            &format!("job {job}"),
                            start,
                            ts - start,
                            Json::obj([("job", Json::UInt(job))]),
                        ));
                    }
                }
            }
            ServiceEvent::QueueDepth { depth } => {
                out.push(Json::obj([
                    ("ph", Json::str("C")),
                    ("pid", Json::UInt(SERVICE_PID)),
                    ("tid", Json::UInt(0)),
                    ("name", Json::str("queue_depth")),
                    ("ts", Json::Num(ts)),
                    ("args", Json::obj([("depth", Json::UInt(*depth as u64))])),
                ]));
            }
            ServiceEvent::JobSubmitted { .. }
            | ServiceEvent::JobAdmitted { .. }
            | ServiceEvent::JobCompleted { .. }
            | ServiceEvent::JobCancelled { .. }
            | ServiceEvent::JobFailed { .. } => {
                let job = record.event.job().unwrap_or(0);
                out.push(instant(
                    SERVICE_PID,
                    record.event.name(),
                    ts,
                    Json::obj([("job", Json::UInt(job))]),
                ));
            }
            // Per-job sync rounds already appear on the job's own lanes.
            ServiceEvent::SyncRound { .. } => {}
        }
    }
    // Close intervals still open when the stream was snapshotted.
    for (worker, start, job) in open_workers {
        out.push(complete(
            SERVICE_PID,
            worker as u64 + 1,
            &format!("job {job}"),
            start,
            last_ts - start,
            Json::obj([("job", Json::UInt(job))]),
        ));
    }
    for (rank, start, job) in open_ranks {
        out.push(complete(
            RANKS_PID,
            rank as u64 + 1,
            &format!("job {job}"),
            start,
            last_ts - start,
            Json::obj([("job", Json::UInt(job))]),
        ));
    }

    // Per-job processes at stable pids, offset by admission wall time.
    for &(job, label, events) in jobs {
        let admitted_us = records
            .iter()
            .find_map(|r| match &r.event {
                ServiceEvent::JobAdmitted { job: j, .. } if *j == job => Some(r.wall_s * US_PER_S),
                _ => None,
            })
            .unwrap_or(0.0);
        emit_run(&mut out, JOB_PID_BASE + job, label, events, admitted_us);
    }
    wrap(out)
}

fn metadata(pid: u64, tid: u64, what: &'static str, name: &str) -> Json {
    Json::obj([
        ("ph", Json::str("M")),
        ("pid", Json::UInt(pid)),
        ("tid", Json::UInt(tid)),
        ("name", Json::str(what)),
        ("args", Json::obj([("name", Json::str(name))])),
    ])
}

fn complete(pid: u64, tid: u64, name: &str, ts_us: f64, dur_us: f64, args: Json) -> Json {
    Json::obj([
        ("ph", Json::str("X")),
        ("pid", Json::UInt(pid)),
        ("tid", Json::UInt(tid)),
        ("name", Json::str(name)),
        ("ts", Json::Num(ts_us)),
        ("dur", Json::Num(dur_us)),
        ("args", args),
    ])
}

fn instant(pid: u64, name: &str, ts_us: f64, args: Json) -> Json {
    Json::obj([
        ("ph", Json::str("i")),
        ("pid", Json::UInt(pid)),
        ("tid", Json::UInt(0)),
        ("name", Json::str(name)),
        ("ts", Json::Num(ts_us)),
        ("s", Json::str("t")),
        ("args", args),
    ])
}

fn emit_run(out: &mut Vec<Json>, pid: u64, label: &str, events: &[Event], start_us: f64) {
    out.push(metadata(pid, 0, "process_name", label));
    out.push(metadata(pid, 0, "thread_name", "host"));
    // Name each DPU lane once, in index order: the sorted, deduplicated
    // set of DPUs that ever ran a span.
    let mut named: Vec<usize> = events
        .iter()
        .flat_map(|event| match event {
            Event::KernelLaunch { dpu_cycles, .. } => dpu_cycles.as_slice(),
            _ => &[],
        })
        .map(|&(dpu, _)| dpu)
        .collect();
    named.sort_unstable();
    named.dedup();
    for &dpu in &named {
        out.push(metadata(
            pid,
            dpu as u64 + 1,
            "thread_name",
            &format!("dpu {dpu}"),
        ));
    }

    let mut now_us = start_us;
    for event in events {
        match event {
            Event::ProgramLoad {
                dpus,
                bytes,
                seconds,
            } => {
                let dur = seconds * US_PER_S;
                out.push(complete(
                    pid,
                    0,
                    "program_load",
                    now_us,
                    dur,
                    Json::obj([("dpus", Json::UInt(*dpus as u64)), ("bytes", Json::UInt(*bytes))]),
                ));
                now_us += dur;
            }
            Event::Transfer {
                kind,
                bytes,
                dpus,
                seconds,
            } => {
                let dur = seconds * US_PER_S;
                out.push(complete(
                    pid,
                    0,
                    kind.name(),
                    now_us,
                    dur,
                    Json::obj([("dpus", Json::UInt(*dpus as u64)), ("bytes", Json::UInt(*bytes))]),
                ));
                now_us += dur;
            }
            Event::TransferFault { kind, seq, dpu } => {
                out.push(instant(
                    pid,
                    &format!("transfer_fault:{}", kind.name()),
                    now_us,
                    Json::obj([("seq", Json::UInt(*seq)), ("dpu", Json::UInt(*dpu as u64))]),
                ));
            }
            Event::KernelLaunch {
                dpus,
                max_cycles,
                min_cycles,
                mean_cycles,
                seconds,
                dpu_cycles,
                faulted_dpus,
                ..
            } => {
                let dur = seconds * US_PER_S;
                out.push(complete(
                    pid,
                    0,
                    "kernel_launch",
                    now_us,
                    dur,
                    Json::obj([
                        ("dpus", Json::UInt(*dpus as u64)),
                        ("max_cycles", Json::UInt(*max_cycles)),
                        ("min_cycles", Json::UInt(*min_cycles)),
                        ("mean_cycles", Json::Num(*mean_cycles)),
                        (
                            "imbalance",
                            Json::Num(if *mean_cycles > 0.0 {
                                *max_cycles as f64 / *mean_cycles
                            } else {
                                0.0
                            }),
                        ),
                        (
                            "faulted_dpus",
                            Json::Arr(
                                faulted_dpus.iter().map(|&d| Json::UInt(d as u64)).collect(),
                            ),
                        ),
                    ]),
                ));
                for &(dpu, cycles) in dpu_cycles {
                    // Scale each lane by its cycle share of the critical
                    // path: the slowest DPU spans the full launch.
                    let share = if *max_cycles > 0 {
                        cycles as f64 / *max_cycles as f64
                    } else {
                        0.0
                    };
                    out.push(complete(
                        pid,
                        dpu as u64 + 1,
                        "kernel",
                        now_us,
                        dur * share,
                        Json::obj([("cycles", Json::UInt(cycles))]),
                    ));
                }
                now_us += dur;
            }
            Event::SyncRound { round, live_dpus } => {
                out.push(instant(
                    pid,
                    "sync_round",
                    now_us,
                    Json::obj([
                        ("round", Json::UInt(*round as u64)),
                        ("live_dpus", Json::UInt(*live_dpus as u64)),
                    ]),
                ));
            }
            Event::HostAggregate {
                tables,
                bytes,
                seconds,
            } => {
                let dur = seconds * US_PER_S;
                out.push(complete(
                    pid,
                    0,
                    "host_aggregate",
                    now_us,
                    dur,
                    Json::obj([
                        ("tables", Json::UInt(*tables as u64)),
                        ("bytes", Json::UInt(*bytes)),
                    ]),
                ));
                now_us += dur;
            }
            Event::Retry { attempt, dpus } => {
                out.push(instant(
                    pid,
                    "retry",
                    now_us,
                    Json::obj([
                        ("attempt", Json::UInt(*attempt as u64)),
                        (
                            "dpus",
                            Json::Arr(dpus.iter().map(|&d| Json::UInt(d as u64)).collect()),
                        ),
                    ]),
                ));
            }
            Event::Rollback { to_round } => {
                out.push(instant(
                    pid,
                    "rollback",
                    now_us,
                    Json::obj([("to_round", Json::UInt(*to_round as u64))]),
                ));
            }
            Event::Degradation {
                dead_dpus,
                survivors,
            } => {
                out.push(instant(
                    pid,
                    "degradation",
                    now_us,
                    Json::obj([
                        (
                            "dead_dpus",
                            Json::Arr(dead_dpus.iter().map(|&d| Json::UInt(d as u64)).collect()),
                        ),
                        ("survivors", Json::UInt(*survivors as u64)),
                    ]),
                ));
            }
            Event::MemoryCeilings {
                bank_bytes,
                bank_peak_bytes,
                arena_bytes,
                arena_peak_bytes,
            } => {
                out.push(instant(
                    pid,
                    "memory_ceilings",
                    now_us,
                    Json::obj([
                        ("bank_bytes", Json::UInt(*bank_bytes)),
                        ("bank_peak_bytes", Json::UInt(*bank_peak_bytes)),
                        ("arena_bytes", Json::UInt(*arena_bytes)),
                        ("arena_peak_bytes", Json::UInt(*arena_peak_bytes)),
                    ]),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{CycleClassTotals, TransferKind};
    use crate::json::{parse, Json};

    fn stream() -> Vec<Event> {
        vec![
            Event::ProgramLoad {
                dpus: 2,
                bytes: 64,
                seconds: 0.001,
            },
            Event::Transfer {
                kind: TransferKind::Scatter,
                bytes: 512,
                dpus: 2,
                seconds: 0.002,
            },
            Event::KernelLaunch {
                dpus: 2,
                max_cycles: 1000,
                min_cycles: 500,
                mean_cycles: 750.0,
                seconds: 0.004,
                dpu_cycles: vec![(0, 1000), (1, 500)],
                faulted_dpus: vec![],
                classes: CycleClassTotals::default(),
                sanitizer_findings: 0,
            },
            Event::SyncRound {
                round: 0,
                live_dpus: 2,
            },
        ]
    }

    fn trace_events(rendered: &str) -> Vec<Json> {
        parse(rendered)
            .expect("valid JSON")
            .get("traceEvents")
            .and_then(Json::as_array)
            .expect("traceEvents array")
            .to_vec()
    }

    fn pids(events: &[Json]) -> Vec<u64> {
        events
            .iter()
            .filter_map(|e| e.get("pid").and_then(Json::as_u64))
            .collect()
    }

    #[test]
    fn trace_parses_and_lays_out_lanes() {
        let s = stream();
        let events = trace_events(&chrome_trace(&[(0, "unit test", &s)]));
        // 2 process/host metadata + 2 DPU lane names + load + transfer
        // + launch + 2 spans + sync instant.
        assert_eq!(events.len(), 10);
        assert!(pids(&events).iter().all(|&pid| pid == JOB_PID_BASE));
        let spans: Vec<_> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("kernel"))
            .collect();
        assert_eq!(spans.len(), 2);
        // The slowest DPU spans the full launch; the other is scaled.
        let durs: Vec<f64> = spans
            .iter()
            .map(|s| s.get("dur").and_then(Json::as_f64).expect("dur"))
            .collect();
        assert!((durs[0] - 4000.0).abs() < 1e-9);
        assert!((durs[1] - 2000.0).abs() < 1e-9);
        // Spans start after load + transfer (3 ms in).
        assert_eq!(spans[0].get("ts").and_then(Json::as_f64), Some(3000.0));
    }

    /// A many-DPU, multi-launch stream: launches cover overlapping DPU
    /// ranges, one lists its DPUs out of order, and a late launch adds
    /// new ones.
    fn wide_stream(dpus: usize, launches: usize) -> Vec<Event> {
        (0..launches)
            .map(|l| {
                let mut dpu_cycles: Vec<(usize, u64)> = (l..dpus)
                    .step_by(1 + l % 3)
                    .map(|d| (d, 100 + d as u64))
                    .collect();
                if l == 1 {
                    dpu_cycles.reverse();
                }
                Event::KernelLaunch {
                    dpus: dpu_cycles.len(),
                    max_cycles: 100 + dpus as u64,
                    min_cycles: 100,
                    mean_cycles: 100.0,
                    seconds: 0.001,
                    dpu_cycles,
                    faulted_dpus: vec![],
                    classes: CycleClassTotals::default(),
                    sanitizer_findings: 0,
                }
            })
            .collect()
    }

    #[test]
    fn dpu_lanes_are_named_once_in_index_order() {
        let (dpus, launches) = (3_000, 12);
        let s = wide_stream(dpus, launches);
        let rendered = chrome_trace(&[(0, "wide", &s)]);
        let events = trace_events(&rendered);
        let lanes: Vec<(u64, &str)> = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("thread_name"))
            .map(|e| {
                let tid = e.get("tid").and_then(Json::as_u64).expect("tid");
                let name = e
                    .get("args")
                    .and_then(|a| a.get("name"))
                    .and_then(Json::as_str)
                    .expect("lane name");
                (tid, name)
            })
            .collect();
        // Launch 0 covers every DPU, so every lane is named: the host
        // lane, then DPU `d` on lane `d + 1`, each exactly once.
        assert_eq!(lanes.len(), dpus + 1);
        assert_eq!(lanes[0], (0, "host"));
        for (d, &(tid, name)) in lanes[1..].iter().enumerate() {
            assert_eq!(tid, d as u64 + 1);
            assert_eq!(name, format!("dpu {d}"));
        }
        // The names lead the run (process name, then the lanes), and
        // every span of every launch is still rendered after them.
        let ph = |e: &Json| e.get("ph").and_then(Json::as_str).map(str::to_owned);
        assert!(events[..dpus + 2].iter().all(|e| ph(e).as_deref() == Some("M")));
        assert!(events[dpus + 2..].iter().all(|e| ph(e).as_deref() != Some("M")));
        let spans = events
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some("kernel"))
            .count();
        let expected: usize = (0..launches).map(|l| (l..dpus).step_by(1 + l % 3).len()).sum();
        assert_eq!(spans, expected);
    }

    #[test]
    fn export_is_deterministic() {
        let s = stream();
        assert_eq!(chrome_trace(&[(0, "x", &s)]), chrome_trace(&[(0, "x", &s)]));
    }

    #[test]
    fn runs_get_stable_pids_regardless_of_order() {
        let s = stream();
        for runs in [
            [(3, "job-3", &s[..]), (7, "job-7", &s[..])],
            [(7, "job-7", &s[..]), (3, "job-3", &s[..])],
        ] {
            let pids = pids(&trace_events(&chrome_trace(&runs)));
            assert!(pids.contains(&(JOB_PID_BASE + 3)));
            assert!(pids.contains(&(JOB_PID_BASE + 7)));
            assert!(pids
                .iter()
                .all(|&pid| pid == JOB_PID_BASE + 3 || pid == JOB_PID_BASE + 7));
        }
    }

    fn record(wall_s: f64, event: ServiceEvent) -> ServiceRecord {
        ServiceRecord { wall_s, event }
    }

    #[test]
    fn service_job_lanes_are_the_chrome_trace_of_the_job() {
        // A job admitted at wall time 0 sits on the same lanes, with the
        // same timestamps, as its stand-alone trace.
        let (job, label, s) = (4, "tenant/job-4", stream());
        let records = [
            record(0.0, ServiceEvent::WorkerBusy { worker: 0, job }),
            record(0.0, ServiceEvent::JobAdmitted { job, dpus: 2 }),
            record(0.002, ServiceEvent::WorkerIdle { worker: 0 }),
        ];
        let runs = [(job, label, &s[..])];
        let merged: Vec<Json> = trace_events(&service_trace(&records, &runs))
            .into_iter()
            .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(JOB_PID_BASE + job))
            .collect();
        assert_eq!(merged, trace_events(&chrome_trace(&runs)));
    }

    #[test]
    fn service_trace_lays_out_worker_rank_and_job_lanes() {
        let records = vec![
            record(
                0.0,
                ServiceEvent::JobSubmitted {
                    job: 0,
                    tenant: "t".into(),
                    dpus: 2,
                },
            ),
            record(0.0, ServiceEvent::QueueDepth { depth: 1 }),
            record(0.001, ServiceEvent::WorkerBusy { worker: 0, job: 0 }),
            record(
                0.001,
                ServiceEvent::LeaseGranted {
                    job: 0,
                    ranks: vec![2],
                    leased_ranks: 1,
                },
            ),
            record(0.001, ServiceEvent::JobAdmitted { job: 0, dpus: 2 }),
            record(
                0.004,
                ServiceEvent::JobCompleted {
                    job: 0,
                    sync_rounds: 1,
                    launches: 1,
                    faulted_launches: 0,
                    retries: 0,
                    rollbacks: 0,
                    degraded_dpus: 0,
                    kernel_seconds: 0.004,
                    launch_cycles: vec![1000.0],
                },
            ),
            record(
                0.004,
                ServiceEvent::LeaseReleased {
                    job: 0,
                    ranks: vec![2],
                    leased_ranks: 0,
                },
            ),
            record(0.004, ServiceEvent::WorkerIdle { worker: 0 }),
        ];
        let s = stream();
        let jobs = [(0, "tenant/job-0", &s[..])];
        let rendered = service_trace(&records, &jobs);
        let events = trace_events(&rendered);
        let by = |pred: &dyn Fn(&&Json) -> bool| events.iter().filter(pred).count();
        // Worker span on the service process, lane 1.
        assert_eq!(
            by(&|e| e.get("pid").and_then(Json::as_u64) == Some(SERVICE_PID)
                && e.get("tid").and_then(Json::as_u64) == Some(1)
                && e.get("ph").and_then(Json::as_str) == Some("X")),
            1
        );
        // Rank lease span on the ranks process, lane rank+1 = 3.
        assert_eq!(
            by(&|e| e.get("pid").and_then(Json::as_u64) == Some(RANKS_PID)
                && e.get("tid").and_then(Json::as_u64) == Some(3)
                && e.get("ph").and_then(Json::as_str) == Some("X")),
            1
        );
        // Queue-depth counter sample.
        assert_eq!(by(&|e| e.get("ph").and_then(Json::as_str) == Some("C")), 1);
        // The job's own process is present at its stable pid and its
        // spans are offset by the admission wall time (1 ms).
        let job_events: Vec<_> = events
            .iter()
            .filter(|e| e.get("pid").and_then(Json::as_u64) == Some(JOB_PID_BASE))
            .collect();
        assert!(!job_events.is_empty());
        let first_span_ts = job_events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("program_load"))
            .and_then(|e| e.get("ts").and_then(Json::as_f64))
            .expect("program_load span");
        assert!((first_span_ts - 1000.0).abs() < 1e-9);
        assert_eq!(rendered, service_trace(&records, &jobs), "deterministic");
    }
}
