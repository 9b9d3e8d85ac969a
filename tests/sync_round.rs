//! The fused sync round (`DpuSet::sync_round`, DESIGN.md §9.2) against
//! the stepwise loop it replaces on clean runs.
//!
//! A run under `FaultPlan::seeded(1).with_stragglers(1.0, 1.0)` takes the
//! stepwise path: the plan is not `is_none()`, yet a slowdown of 1 never
//! changes a cycle and no other fault is armed. Each test pairs a clean
//! run (fused wherever the runner allows it) with the same run under
//! that inert plan, and demands identical Q-table bytes, breakdown bits,
//! resilience and memory accounting, set statistics, last launch,
//! transfer ledger, event stream (structural and rendered) and bank
//! bytes.

use swiftrl::core::config::{Algorithm, DataType, RunConfig, WorkloadSpec};
use swiftrl::core::resilience::ResilienceConfig;
use swiftrl::core::runner::PimRunner;
use swiftrl::core::service::CancelToken;
use swiftrl::env::collect::collect_random;
use swiftrl::env::frozen_lake::FrozenLake;
use swiftrl::env::ExperienceDataset;
use swiftrl::pim::config::{ExecTier, PimConfig};
use swiftrl::pim::faults::FaultPlan;
use swiftrl::pim::host::{PimError, PimSystem};
use swiftrl::pim::{ExecutionEngine, MemoryStats};
use swiftrl::rl::SamplingStrategy;
use swiftrl::telemetry::{chrome_trace, Event, Telemetry};

/// Leading bank bytes compared per DPU: header, Q-table and every
/// replay chunk these tests stage.
const BANK_PREFIX: usize = 32 * 1024;

const ENGINES: [ExecutionEngine; 3] = [
    ExecutionEngine::Serial,
    ExecutionEngine::Threaded { workers: 2 },
    ExecutionEngine::Threaded { workers: 3 },
];

fn dataset(n: usize) -> ExperienceDataset {
    let mut env = FrozenLake::slippery_4x4();
    collect_random(&mut env, n, 13)
}

/// Not `is_none()`, so the runner stays stepwise, but inert.
fn inert() -> FaultPlan {
    FaultPlan::seeded(1).with_stragglers(1.0, 1.0)
}

/// One run's observables.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Q-table bytes and breakdown bits, or the run's error.
    outcome: Result<(Vec<u8>, [u64; 5]), PimError>,
    resilience: String,
    stats: String,
    last_launch: String,
    ledger: String,
    memory: MemoryStats,
    events: Vec<Event>,
    trace: String,
    banks: Vec<u8>,
}

struct Run<'a> {
    spec: WorkloadSpec,
    cfg: RunConfig,
    tier: ExecTier,
    engine: ExecutionEngine,
    resilience: ResilienceConfig,
    data: &'a ExperienceDataset,
    cancel: Option<CancelToken>,
}

impl<'a> Run<'a> {
    fn new(spec: WorkloadSpec, cfg: RunConfig, data: &'a ExperienceDataset) -> Self {
        Self {
            spec,
            cfg,
            tier: ExecTier::Batched,
            engine: ExecutionEngine::Serial,
            resilience: ResilienceConfig::none(),
            data,
            cancel: None,
        }
    }

    fn observe(&self, faults: FaultPlan) -> Observed {
        let telemetry = Telemetry::enabled();
        let platform = PimConfig::builder()
            .dpus(self.cfg.dpus)
            .exec_tier(self.tier)
            .engine(self.engine)
            .faults(faults)
            .telemetry(telemetry.clone())
            .build();
        let runner = PimRunner::with_platform(self.spec, self.cfg, platform.clone())
            .unwrap()
            .with_resilience(self.resilience);
        let mut system = PimSystem::new(platform);
        let mut set = system.alloc(self.cfg.dpus).unwrap();
        let out = runner.run_on(&mut set, self.data, self.cancel.as_ref());
        let resilience = format!("{:?}", out.as_ref().map(|o| o.resilience.clone()));
        let outcome = out.map(|o| {
            let b = o.breakdown;
            let bits = [
                b.pim_kernel_s.to_bits(),
                b.cpu_pim_s.to_bits(),
                b.pim_cpu_s.to_bits(),
                b.inter_pim_s.to_bits(),
                b.program_load_s.to_bits(),
            ];
            (o.q_table.to_bytes(), bits)
        });
        let events = telemetry.records();
        let trace = chrome_trace(&[(0, "run", &events)]);
        let stats = format!("{:?}", set.stats());
        let last_launch = format!("{:?}", set.last_launch());
        let ledger = format!("{:?}", set.ledger().records());
        let memory = set.memory_stats();
        // Read last: the gather records a transfer of its own.
        let mut banks = Vec::new();
        set.gather_with(0, BANK_PREFIX, None, |b| banks.extend_from_slice(b))
            .unwrap();
        Observed {
            outcome,
            resilience,
            stats,
            last_launch,
            ledger,
            memory,
            events,
            trace,
            banks,
        }
    }

    /// Runs clean and under the inert plan and demands identical
    /// observables; returns the clean run's.
    fn check(&self, label: &str) -> Observed {
        let clean = self.observe(FaultPlan::none());
        let stepwise = self.observe(inert());
        assert!(!clean.events.is_empty(), "{label}: no events recorded");
        assert_eq!(
            clean.outcome, stepwise.outcome,
            "{label}: Q-table or breakdown"
        );
        assert_eq!(clean.resilience, stepwise.resilience, "{label}: resilience");
        assert_eq!(clean.stats, stepwise.stats, "{label}: SystemStats");
        assert_eq!(
            clean.last_launch, stepwise.last_launch,
            "{label}: last launch"
        );
        assert_eq!(clean.ledger, stepwise.ledger, "{label}: transfer ledger");
        assert_eq!(clean.memory, stepwise.memory, "{label}: MemoryStats");
        if let Some(i) = (0..clean.events.len().max(stepwise.events.len()))
            .find(|&i| clean.events.get(i) != stepwise.events.get(i))
        {
            panic!(
                "{label}: event {i} differs: {:?} vs {:?}",
                clean.events.get(i),
                stepwise.events.get(i)
            );
        }
        assert_eq!(clean.trace, stepwise.trace, "{label}: rendered trace");
        assert!(clean.banks == stepwise.banks, "{label}: bank bytes differ");
        clean
    }
}

fn cfg(dpus: usize, episodes: u32, tau: u32) -> RunConfig {
    RunConfig::paper_defaults()
        .with_dpus(dpus)
        .with_episodes(episodes)
        .with_tau(tau)
}

/// All 12 paper variants on both fused-sweep tiers and three engines.
/// INT32 runs fuse on every engine; FP32 runs fuse on `Serial` and stay
/// stepwise on two or three workers.
#[test]
fn fused_rounds_match_the_stepwise_loop_across_variants_tiers_and_engines() {
    let data = dataset(2_000);
    for tier in [ExecTier::Batched, ExecTier::Fast] {
        for engine in ENGINES {
            for spec in WorkloadSpec::paper_variants() {
                let run = Run {
                    tier,
                    engine,
                    ..Run::new(spec, cfg(6, 6, 2), &data)
                };
                let clean = run.check(&format!("{spec}/{tier:?}/{engine:?}"));
                assert!(clean.outcome.is_ok(), "{spec}/{tier:?}/{engine:?}");
            }
        }
    }
}

#[test]
fn fused_rounds_match_the_stepwise_loop_on_the_reference_tier() {
    let data = dataset(300);
    for engine in [
        ExecutionEngine::Serial,
        ExecutionEngine::Threaded { workers: 2 },
    ] {
        for spec in WorkloadSpec::paper_variants() {
            let run = Run {
                tier: ExecTier::Reference,
                engine,
                ..Run::new(spec, cfg(3, 2, 1), &data)
            };
            run.check(&format!("{spec}/Reference/{engine:?}"));
        }
    }
}

#[test]
fn edge_cases_match_the_stepwise_loop() {
    let data = dataset(2_000);
    let int32 = WorkloadSpec::q_learning_seq_int32();
    let fp32 = WorkloadSpec {
        algorithm: Algorithm::Sarsa,
        sampling: SamplingStrategy::Random,
        dtype: DataType::Fp32,
    };
    for engine in ENGINES {
        for spec in [int32, fp32] {
            let label = |what: &str| format!("{spec}/{engine:?}: {what}");
            // A non-zero initial Q-value adds the initial broadcast to
            // round 0's deliveries.
            let run = Run {
                engine,
                ..Run::new(spec, cfg(5, 6, 2).with_initial_q(0.25), &data)
            };
            run.check(&label("initial Q-value"));
            // A single round: round 0 is also the last.
            let run = Run {
                engine,
                ..Run::new(spec, cfg(5, 3, 3), &data)
            };
            run.check(&label("single round"));
            // Checkpoints are counted on the fused path as well.
            let run = Run {
                engine,
                resilience: ResilienceConfig::none().with_checkpoint_every(1),
                ..Run::new(spec, cfg(5, 6, 2), &data)
            };
            run.check(&label("checkpoints"));
        }
    }
    // More DPUs than transitions leaves empty chunks: stepwise.
    let few = dataset(10);
    for engine in ENGINES {
        let run = Run {
            engine,
            ..Run::new(int32, cfg(16, 4, 2), &few)
        };
        run.check(&format!("16 DPUs, 10 transitions, {engine:?}"));
    }
}

/// A run cancelled at round `k` stops at the same point on both paths:
/// same launches, same event stream, same bank bytes.
#[test]
fn cancellation_at_every_round_matches_the_stepwise_loop() {
    let data = dataset(2_000);
    let rounds = 4;
    for spec in [
        WorkloadSpec::q_learning_seq_int32(),
        WorkloadSpec::q_learning_seq_fp32(),
    ] {
        for engine in ENGINES {
            for k in 0..=rounds {
                let run = Run {
                    engine,
                    cancel: Some(CancelToken::at_round(k)),
                    ..Run::new(spec, cfg(4, 2 * rounds, 2), &data)
                };
                let clean = run.check(&format!("{spec}/{engine:?}: cancel at round {k}"));
                assert_eq!(
                    clean.outcome.is_err(),
                    k < rounds,
                    "{spec}/{engine:?}: cancel at round {k}"
                );
                let launches = clean
                    .events
                    .iter()
                    .filter(|e| matches!(e, Event::KernelLaunch { .. }));
                assert_eq!(launches.count(), k as usize, "{spec}/{engine:?}: round {k}");
            }
        }
    }
}
