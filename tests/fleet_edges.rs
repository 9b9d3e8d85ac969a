//! Fleet-edge-case sweep: configurations at the boundaries of the
//! fleet model — more DPUs than transitions (empty tail chunks from
//! [`swiftrl::core::partition::partition_even`]) — must stay correct
//! in both results and transfer-time/rank accounting.

use swiftrl::core::config::{RunConfig, WorkloadSpec};
use swiftrl::core::runner::PimRunner;
use swiftrl::env::collect::collect_random;
use swiftrl::env::frozen_lake::FrozenLake;
use swiftrl::pim::config::{ExecTier, PimConfig};
use swiftrl::pim::host::PimSystem;
use swiftrl::pim::xfer::Direction;
use swiftrl::telemetry::TransferKind;

/// More DPUs than transitions: the tail DPUs receive empty chunks. The
/// dataset scatter must charge transfer time for the addressed DPUs
/// only and must not count the all-empty tail ranks toward the
/// transfer's rank parallelism.
#[test]
fn empty_chunks_charge_no_transfer_time_or_ranks() {
    let mut env = FrozenLake::slippery_4x4();
    let dataset = collect_random(&mut env, 6, 42);

    // 10 DPUs at 4 per rank = 3 ranks; 6 transitions fill one-element
    // chunks on DPUs 0..6 (ranks 0-1) and leave DPUs 6..10 empty —
    // rank 2 is entirely empty and must not be "touched" by the load.
    let platform = PimConfig::builder().dpus(10).dpus_per_rank(4).build();
    let cfg = RunConfig::paper_defaults()
        .with_dpus(10)
        .with_episodes(4)
        .with_tau(2);
    let spec = WorkloadSpec::q_learning_seq_fp32();
    let runner = PimRunner::with_platform(spec, cfg, platform.clone()).unwrap();

    let mut system = PimSystem::new(platform);
    let mut set = system.alloc(10).unwrap();
    let out = runner.run_on(&mut set, &dataset, None).unwrap();
    assert_eq!(out.dpus, 10);
    assert!(out.breakdown.total_seconds() > 0.0);

    // The dataset scatter is the largest CPU→PIM scatter of the run
    // (headers are scattered too, to all 10 DPUs).
    let chunk_scatter = set
        .ledger()
        .records()
        .iter()
        .filter(|r| r.direction == Direction::CpuToPim)
        .find(|r| r.dpus == 6)
        .expect("dataset chunk scatter addressing exactly the 6 non-empty DPUs");
    assert_eq!(chunk_scatter.ranks, 2, "empty rank 2 is not addressed");
    assert!(chunk_scatter.seconds > 0.0);
}

/// A run with empty tail chunks completes, learns on the transitions
/// it has, and the empty-chunk DPUs contribute all-zero Q-tables to
/// the average exactly like a solo small fleet padded with idle DPUs.
#[test]
fn run_with_more_dpus_than_transitions_completes() {
    // Taxi's -1 step reward makes any learning visible in the Q-table.
    let mut env = swiftrl::env::taxi::Taxi::new();
    let dataset = collect_random(&mut env, 40, 7);

    let spec = WorkloadSpec::q_learning_seq_int32();
    let cfg = RunConfig::paper_defaults()
        .with_dpus(64)
        .with_episodes(4)
        .with_tau(2);
    let out = PimRunner::new(spec, cfg).unwrap().run(&dataset).unwrap();
    assert_eq!(out.comm_rounds, 2);
    assert!(out.q_table.values().iter().any(|&v| v != 0.0));
}

/// The batched tier handles empty replay chunks: with more DPUs than
/// transitions, the tail DPUs' fused sweeps see `n_transitions == 0`
/// and still charge the per-episode control slots the interpreter
/// charges, so the run is bit- and cycle-identical to the reference
/// tier — empty-chunk DPUs included.
#[test]
fn batched_tier_identical_with_empty_replay_chunks() {
    let mut env = FrozenLake::slippery_4x4();
    // 6 transitions over 10 DPUs: DPUs 6..10 hold empty chunks.
    let dataset = collect_random(&mut env, 6, 42);
    let cfg = RunConfig::paper_defaults()
        .with_dpus(10)
        .with_episodes(4)
        .with_tau(2);
    let run = |tier| {
        let platform = PimConfig::builder()
            .dpus(10)
            .dpus_per_rank(4)
            .exec_tier(tier)
            .build();
        PimRunner::with_platform(WorkloadSpec::q_learning_seq_fp32(), cfg, platform)
            .unwrap()
            .run(&dataset)
            .unwrap()
    };
    let reference = run(ExecTier::Reference);
    let batched = run(ExecTier::Batched);
    assert_eq!(
        reference.q_table.to_bytes(),
        batched.q_table.to_bytes(),
        "empty-chunk run: Q-tables diverged under the batched tier"
    );
    assert_eq!(
        reference.breakdown, batched.breakdown,
        "empty-chunk run: time breakdowns diverged under the batched tier"
    );
}

/// More DPUs than transitions under the batched tier completes, learns,
/// and matches the fast tier byte-for-byte — including the all-zero
/// contributions of the idle tail DPUs to the aggregated average.
#[test]
fn batched_run_with_more_dpus_than_transitions_matches_fast() {
    let mut env = swiftrl::env::taxi::Taxi::new();
    let dataset = collect_random(&mut env, 40, 7);
    let cfg = RunConfig::paper_defaults()
        .with_dpus(64)
        .with_episodes(4)
        .with_tau(2);
    let run = |tier| {
        let platform = PimConfig::builder().dpus(64).exec_tier(tier).build();
        PimRunner::with_platform(WorkloadSpec::q_learning_seq_int32(), cfg, platform)
            .unwrap()
            .run(&dataset)
            .unwrap()
    };
    let fast = run(ExecTier::Fast);
    let batched = run(ExecTier::Batched);
    assert_eq!(batched.comm_rounds, 2);
    assert!(batched.q_table.values().iter().any(|&v| v != 0.0));
    assert_eq!(fast.q_table.to_bytes(), batched.q_table.to_bytes());
    assert_eq!(fast.breakdown, batched.breakdown);
}

/// Telemetry cross-check: the scatter event stream agrees with the
/// ledger on the byte totals of an empty-tail load.
#[test]
fn scatter_event_reports_addressed_dpus_only() {
    use swiftrl::telemetry::{Event, Telemetry};

    let telemetry = Telemetry::enabled();
    let platform = PimConfig::builder()
        .dpus(8)
        .dpus_per_rank(4)
        .telemetry(telemetry.clone())
        .build();
    let mut system = PimSystem::new(platform);
    let mut set = system.alloc(8).unwrap();
    let mut parts = vec![vec![9u8; 16]; 3];
    parts.resize(8, Vec::new());
    set.scatter(0, &parts).unwrap();

    let scatters: Vec<(u64, usize)> = telemetry
        .records()
        .iter()
        .filter_map(|e| match e {
            Event::Transfer {
                kind: TransferKind::Scatter,
                bytes,
                dpus,
                ..
            } => Some((*bytes, *dpus)),
            _ => None,
        })
        .collect();
    assert_eq!(scatters, vec![(48, 3)]);
}
