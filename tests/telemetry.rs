//! The two contracts of the telemetry layer (DESIGN.md §11):
//!
//! 1. **Engine invariance** — the event stream is recorded host-side
//!    after `DpuSet::launch_on`'s ordered merge, so the Serial and
//!    Threaded engines produce byte-identical streams (and therefore
//!    byte-identical trace/metrics artifacts), including under fault
//!    injection with retries, rollbacks and degradation in play.
//! 2. **Zero when off** — with the sink disabled (the default), no
//!    simulated observable changes: Q-table bits, time breakdowns and
//!    sanitizer reports are identical to a telemetry-enabled run across
//!    all 12 paper variants.

use swiftrl::core::config::{RunConfig, WorkloadSpec};
use swiftrl::core::resilience::ResilienceConfig;
use swiftrl::core::runner::{PimRunner, RunOutcome};
use swiftrl::env::collect::collect_random;
use swiftrl::env::frozen_lake::FrozenLake;
use swiftrl::env::ExperienceDataset;
use swiftrl::pim::config::PimConfig;
use swiftrl::pim::faults::FaultPlan;
use swiftrl::pim::ExecutionEngine;
use swiftrl::telemetry::{chrome_trace, Event, MetricsSnapshot, Telemetry};

fn dataset() -> ExperienceDataset {
    let mut env = FrozenLake::slippery_4x4();
    collect_random(&mut env, 2_000, 13)
}

fn cfg(dpus: usize) -> RunConfig {
    RunConfig::paper_defaults()
        .with_dpus(dpus)
        .with_episodes(4)
        .with_tau(2)
}

/// Runs one variant with an attached sink and returns the outcome plus
/// the recorded stream.
fn traced_run(
    spec: WorkloadSpec,
    run_cfg: RunConfig,
    engine: ExecutionEngine,
    faults: FaultPlan,
    resilience: ResilienceConfig,
) -> (RunOutcome, Vec<Event>) {
    let telemetry = Telemetry::enabled();
    let platform = PimConfig::builder()
        .dpus(run_cfg.dpus)
        .engine(engine)
        .faults(faults)
        .telemetry(telemetry.clone())
        .build();
    let out = PimRunner::with_platform(spec, run_cfg, platform)
        .unwrap()
        .with_resilience(resilience)
        .run(&dataset())
        .unwrap();
    (out, telemetry.records())
}

/// Serial and Threaded record identical event streams for every paper
/// variant — compared structurally *and* through both rendered
/// artifacts, so the byte-identity claim covers the exporters too.
#[test]
fn engines_emit_byte_identical_streams_across_all_variants() {
    for spec in WorkloadSpec::paper_variants() {
        let (_, serial) = traced_run(
            spec,
            cfg(6),
            ExecutionEngine::Serial,
            FaultPlan::none(),
            ResilienceConfig::none(),
        );
        let (_, threaded) = traced_run(
            spec,
            cfg(6),
            ExecutionEngine::Threaded { workers: 3 },
            FaultPlan::none(),
            ResilienceConfig::none(),
        );
        assert!(!serial.is_empty(), "{spec}: no events recorded");
        assert_eq!(serial, threaded, "{spec}: event streams diverged");
        assert_eq!(
            chrome_trace(&[(0, "run", &serial)]),
            chrome_trace(&[(0, "run", &threaded)]),
            "{spec}: rendered traces diverged"
        );
        assert_eq!(
            MetricsSnapshot::from_events("run", &serial).to_json().render(),
            MetricsSnapshot::from_events("run", &threaded).to_json().render(),
            "{spec}: rendered metrics diverged"
        );
    }
}

/// Engine invariance holds under fault injection too — transient faults
/// absorbed by retries (so the stream contains `TransferFault`/`Retry`
/// events) and a dead DPU absorbed by checkpoint rollback + degradation
/// (so it contains `Rollback`/`Degradation`).
#[test]
fn engines_emit_byte_identical_streams_under_faults() {
    let spec = WorkloadSpec::q_learning_seq_fp32();
    let run_cfg = RunConfig::paper_defaults()
        .with_dpus(4)
        .with_episodes(20)
        .with_tau(5);

    // Transient aborts, retried.
    let retry_faults = || FaultPlan::seeded(7).with_dpu_fail_rate(0.3);
    let retry_policy = ResilienceConfig::none().with_max_retries(8);
    let (out_s, serial) = traced_run(
        spec,
        run_cfg,
        ExecutionEngine::Serial,
        retry_faults(),
        retry_policy,
    );
    let (_, threaded) = traced_run(
        spec,
        run_cfg,
        ExecutionEngine::Threaded { workers: 3 },
        retry_faults(),
        retry_policy,
    );
    assert!(out_s.resilience.retries > 0, "faults never fired; vacuous");
    assert!(serial.iter().any(|e| matches!(e, Event::Retry { .. })));
    assert!(serial
        .iter()
        .any(|e| matches!(e, Event::KernelLaunch { faulted_dpus, .. } if !faulted_dpus.is_empty())));
    assert_eq!(serial, threaded, "faulted streams diverged");

    // A permanently dead DPU: rollback to checkpoint, then degrade.
    let dead_faults = || FaultPlan::seeded(9).with_dead_dpus(vec![1], 2);
    let dead_policy = ResilienceConfig::none()
        .with_checkpoint_every(1)
        .with_degrade(true);
    let (out_s, serial) = traced_run(
        spec,
        run_cfg,
        ExecutionEngine::Serial,
        dead_faults(),
        dead_policy,
    );
    let (_, threaded) = traced_run(
        spec,
        run_cfg,
        ExecutionEngine::Threaded { workers: 3 },
        dead_faults(),
        dead_policy,
    );
    assert_eq!(out_s.resilience.degraded_dpus, vec![1]);
    assert!(serial.iter().any(|e| matches!(e, Event::Rollback { .. })));
    assert!(serial.iter().any(
        |e| matches!(e, Event::Degradation { dead_dpus, survivors: 3 } if dead_dpus == &[1])
    ));
    assert_eq!(serial, threaded, "degraded streams diverged");
}

/// Telemetry off is a true zero: for all 12 variants the default
/// (disabled) runner and a telemetry-enabled runner produce identical
/// Q-table bits, breakdowns and sanitizer reports, while the enabled
/// sink actually recorded the run and a disabled handle stays empty.
#[test]
fn disabled_telemetry_changes_no_simulated_observable() {
    let d = dataset();
    for spec in WorkloadSpec::paper_variants() {
        let off = PimRunner::new(spec, cfg(6)).unwrap().run(&d).unwrap();

        let disabled = Telemetry::disabled();
        let enabled = Telemetry::enabled();
        let on = PimRunner::new(spec, cfg(6))
            .unwrap()
            .with_telemetry(enabled.clone())
            .run(&d)
            .unwrap();

        assert_eq!(off.q_table, on.q_table, "{spec}: Q-table bits diverged");
        assert_eq!(off.breakdown, on.breakdown, "{spec}: breakdowns diverged");
        assert_eq!(
            off.sanitizer.findings, on.sanitizer.findings,
            "{spec}: sanitizer reports diverged"
        );
        assert_eq!(off.comm_rounds, on.comm_rounds, "{spec}");
        assert!(disabled.is_empty() && !disabled.is_enabled());
        assert!(!enabled.is_empty(), "{spec}: enabled sink recorded nothing");
    }
}

/// The stream's structure matches the run's phases: program load first,
/// one clean launch and one sync round per communication round, and a
/// host aggregate closing every round (intermediate + final).
#[test]
fn event_stream_matches_run_phases() {
    let spec = WorkloadSpec::q_learning_seq_int32();
    let (out, events) = traced_run(
        spec,
        cfg(6),
        ExecutionEngine::Serial,
        FaultPlan::none(),
        ResilienceConfig::none(),
    );
    assert!(
        matches!(events[0], Event::ProgramLoad { dpus: 6, .. }),
        "first event should be the program load: {:?}",
        events[0]
    );
    let rounds = u64::from(out.comm_rounds);
    let snap = MetricsSnapshot::from_events("run", &events);
    assert_eq!(snap.launches, rounds);
    assert_eq!(snap.sync_rounds, rounds);
    assert_eq!(snap.aggregates.count, rounds);
    assert_eq!(snap.faulted_launches, 0);
    assert_eq!(snap.retries, 0);
    assert!(snap.kernel_seconds > 0.0);
    assert_eq!(snap.imbalance.len() as u64, rounds);
    // Simulated kernel time in the stream equals the breakdown's.
    assert!((snap.kernel_seconds - out.breakdown.pim_kernel_s).abs() < 1e-12);
}

/// Two identical runs render byte-identical artifacts end to end — the
/// property CI relies on when it validates committed traces.
#[test]
fn artifacts_are_deterministic_across_runs() {
    let spec = WorkloadSpec::sarsa_seq_fp32();
    let run = || {
        traced_run(
            spec,
            cfg(5),
            ExecutionEngine::Threaded { workers: 2 },
            FaultPlan::none(),
            ResilienceConfig::none(),
        )
        .1
    };
    let (a, b) = (run(), run());
    assert_eq!(chrome_trace(&[(0, "run", &a)]), chrome_trace(&[(0, "run", &b)]));
    assert_eq!(
        MetricsSnapshot::from_events("run", &a).to_json().render_pretty(),
        MetricsSnapshot::from_events("run", &b).to_json().render_pretty()
    );
}
