//! The runner's one round loop (`DpuSet::sync_round`, DESIGN.md §9.2)
//! against its specification: the same run composed of the public
//! stepwise `DpuSet` calls — `scatter`, `broadcast`, `launch`,
//! `launch_subset`, `gather_with`, `broadcast_subset`, `copy_to`,
//! `copy_from` — with the runner's staging, host average, retry, degrade
//! and checkpoint policy, and accounting written out here.
//!
//! Each case runs once through `PimRunner::run_on` and once through
//! [`Run::stepwise`] on an identically configured set, and demands
//! identical Q-table bytes, breakdown bits, resilience and memory
//! accounting, set statistics, last launch, transfer ledger, sanitizer
//! report, event stream (structural and rendered) and bank bytes — or
//! the identical error.

use std::ops::Range;
use swiftrl::baselines::specs::MachineSpec;
use swiftrl::core::breakdown::TimeBreakdown;
use swiftrl::core::config::{Algorithm, DataType, RunConfig, WorkloadSpec};
use swiftrl::core::kernels::SwiftRlKernel;
use swiftrl::core::layout::{encode_chunk, KernelHeader, HEADER_BYTES, Q_TABLE_OFFSET};
use swiftrl::core::partition::partition_even;
use swiftrl::core::resilience::{ResilienceConfig, ResilienceStats};
use swiftrl::core::runner::PimRunner;
use swiftrl::core::service::CancelToken;
use swiftrl::env::collect::collect_random;
use swiftrl::env::frozen_lake::FrozenLake;
use swiftrl::env::taxi::Taxi;
use swiftrl::env::{ExperienceDataset, Transition};
use swiftrl::pim::config::{ExecTier, PimConfig};
use swiftrl::pim::faults::{FaultPlan, MramRegion};
use swiftrl::pim::host::{DpuSet, PimError, PimSystem};
use swiftrl::pim::sanitize::SanitizeLevel;
use swiftrl::pim::stats::SystemStats;
use swiftrl::pim::{ExecutionEngine, MemoryStats};
use swiftrl::rl::qtable::{FixedQTable, FixedQTableSum, QTable, QTableSum};
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

const TIERS: [ExecTier; 2] = [ExecTier::Batched, ExecTier::Fast];

fn dataset(n: usize) -> ExperienceDataset {
    let mut env = FrozenLake::slippery_4x4();
    collect_random(&mut env, n, 13)
}

/// Q-table bytes and breakdown bits, or the run's error.
type Outcome = Result<(Vec<u8>, [u64; 5]), PimError>;

/// One run's observables.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: Outcome,
    resilience: String,
    stats: String,
    last_launch: String,
    ledger: String,
    sanitizer: String,
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
    faults: FaultPlan,
    sanitize: SanitizeLevel,
    resilience: ResilienceConfig,
    data: &'a ExperienceDataset,
    /// The round a `CancelToken::at_round` stops the run at.
    cancel_at: Option<u32>,
}

impl<'a> Run<'a> {
    fn new(spec: WorkloadSpec, cfg: RunConfig, data: &'a ExperienceDataset) -> Self {
        Self {
            spec,
            cfg,
            tier: ExecTier::Batched,
            engine: ExecutionEngine::Serial,
            faults: FaultPlan::none(),
            sanitize: SanitizeLevel::Off,
            resilience: ResilienceConfig::none(),
            data,
            cancel_at: None,
        }
    }

    fn observe(&self, through_runner: bool) -> Observed {
        let telemetry = Telemetry::enabled();
        let platform = PimConfig::builder()
            .dpus(self.cfg.dpus)
            .exec_tier(self.tier)
            .engine(self.engine)
            .faults(self.faults.clone())
            .sanitize(self.sanitize)
            .telemetry(telemetry.clone())
            .build();
        let mut set = PimSystem::new(platform.clone())
            .alloc(self.cfg.dpus)
            .unwrap();
        let out = if through_runner {
            PimRunner::with_platform(self.spec, self.cfg, platform)
                .unwrap()
                .with_resilience(self.resilience)
                .run_on(&mut set, self.data, self.cancel_at.map(CancelToken::at_round).as_ref())
                .map(|o| (o.q_table.to_bytes(), o.breakdown, o.resilience))
        } else {
            self.stepwise(&mut set, &telemetry)
        };
        let resilience = format!("{:?}", out.as_ref().map(|o| o.2.clone()));
        let outcome = out.map(|(q, b, _)| {
            let bits = [
                b.pim_kernel_s.to_bits(),
                b.cpu_pim_s.to_bits(),
                b.pim_cpu_s.to_bits(),
                b.inter_pim_s.to_bits(),
                b.program_load_s.to_bits(),
            ];
            (q, bits)
        });
        let events = telemetry.records();
        let trace = chrome_trace(&[(0, "run", &events)]);
        let stats = format!("{:?}", set.stats());
        let last_launch = format!("{:?}", set.last_launch());
        let ledger = format!("{:?}", set.ledger().records());
        let sanitizer = format!("{:?}", set.sanitizer_report());
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
            sanitizer,
            memory,
            events,
            trace,
            banks,
        }
    }

    /// The specification of `PimRunner::run_on`: phase 1's staging, then
    /// per round a launch on the live DPUs with relaunches of the faulted
    /// ones, a gather averaged in DPU order and broadcast back, and on a
    /// DPU that faults past the retry budget a degrade onto the survivors
    /// with a rollback to the latest checkpoint; then the final average.
    fn stepwise(
        &self,
        set: &mut DpuSet,
        telemetry: &Telemetry,
    ) -> Result<(Vec<u8>, TimeBreakdown, ResilienceStats), PimError> {
        let (spec, cfg, data) = (self.spec, &self.cfg, self.data);
        let rounds = cfg.comm_rounds()?;
        let n = set.ndpus();
        let (ns, na) = (data.num_states(), data.num_actions());
        let q_bytes = ns * na * 4;
        let bandwidth = MachineSpec::xeon_silver_4110().memory_bandwidth_gbps * 1.0e9;
        let aggregate_s = |tables: usize| ((tables + 1) * q_bytes) as f64 / bandwidth;
        let mut b = TimeBreakdown::default();
        let mut res = ResilienceStats::default();

        set.reset_stats();
        set.load_program();
        let ranges = partition_even(data.len(), n);
        let header = |dpu: usize, len: usize| KernelHeader::for_chunk(spec, cfg, data, dpu, len, cfg.tau);
        let headers: Vec<Vec<u8>> = ranges
            .iter()
            .enumerate()
            .map(|(dpu, r)| header(dpu, r.len()).to_bytes())
            .collect();
        let trans_offset = header(0, ranges[0].len()).transitions_offset();
        let scale = cfg.scale();
        let initial = match spec.dtype {
            DataType::Fp32 => QTable::filled(ns, na, cfg.initial_q).to_bytes(),
            DataType::Int32 => {
                FixedQTable::filled(ns, na, scale, scale.to_fixed(cfg.initial_q)).to_bytes()
            }
        };
        set.scatter(0, &headers)?;
        if cfg.initial_q != 0.0 {
            set.broadcast(Q_TABLE_OFFSET, &initial)?;
        }
        let chunks: Vec<Vec<u8>> = ranges
            .iter()
            .map(|r| encode_chunk(spec, cfg, data, r.clone()))
            .collect();
        set.scatter(trans_offset, &chunks)?;
        b.cpu_pim_s = set.stats().cpu_to_pim_seconds;
        b.program_load_s = set.stats().program_load_seconds;

        // The mean of `tables` in DPU order, as MRAM bytes.
        let mean_bytes = |tables: &[Vec<u8>]| match spec.dtype {
            DataType::Fp32 => {
                let mut sum = QTableSum::new(ns, na);
                tables.iter().for_each(|t| sum.add_bytes(t));
                sum.mean().to_bytes()
            }
            DataType::Int32 => {
                let mut sum = FixedQTableSum::new(ns, na, scale);
                tables.iter().for_each(|t| sum.add_bytes(t));
                sum.mean().to_bytes()
            }
        };
        let close = |b: &mut TimeBreakdown, start: &SystemStats, now: &SystemStats, last: bool| {
            b.pim_kernel_s += now.kernel_seconds - start.kernel_seconds;
            let sync_cpu = now.cpu_to_pim_seconds - start.cpu_to_pim_seconds;
            let sync_pim = now.pim_to_cpu_seconds - start.pim_to_cpu_seconds;
            if last {
                b.pim_cpu_s += sync_pim;
                b.inter_pim_s += sync_cpu;
            } else {
                b.inter_pim_s += sync_cpu + sync_pim;
            }
        };

        let kernel = SwiftRlKernel::with_tasklets(spec, cfg.tasklets);
        let mut alive: Vec<usize> = (0..n).collect();
        let mut assignments: Vec<Vec<Range<usize>>> = ranges.iter().map(|r| vec![r.clone()]).collect();
        let mut counts: Vec<usize> = ranges.iter().map(Range::len).collect();
        let mut checkpoint = (0u32, initial);
        let mut tables: Vec<Vec<u8>> = Vec::new();
        let mut round = 0;
        while round < rounds {
            if self.cancel_at.is_some_and(|k| round >= k) {
                return Err(PimError::Cancelled);
            }
            let start = set.stats().clone();
            let launched = if alive.len() == n {
                set.launch(&kernel).map(drop)
            } else {
                set.launch_subset(&kernel, &alive).map(drop)
            };
            let mut dead = Vec::new();
            if let Err(first) = launched {
                let mut pending = set.last_launch().faulted_dpus.clone();
                res.faults_seen += pending.len() as u64;
                let mut last_err = Some(first);
                for attempt in 1..=self.resilience.max_retries {
                    res.retries += 1;
                    telemetry.emit(|| Event::Retry {
                        attempt,
                        dpus: pending.clone(),
                    });
                    match set.launch_subset(&kernel, &pending) {
                        Ok(_) => {
                            last_err = None;
                            break;
                        }
                        Err(e) => {
                            pending = set.last_launch().faulted_dpus.clone();
                            res.faults_seen += pending.len() as u64;
                            last_err = Some(e);
                        }
                    }
                }
                if let Some(e) = last_err {
                    if !(self.resilience.degrade && pending.len() < alive.len()) {
                        return Err(e);
                    }
                    dead = pending;
                }
            }

            if !dead.is_empty() {
                // Degrade: drop the dead DPUs, cut their ranges into even
                // shares appended behind the survivors' own records, and
                // roll the survivors back to the checkpoint.
                alive.retain(|d| !dead.contains(d));
                res.degraded_dpus.extend_from_slice(&dead);
                telemetry.emit(|| Event::Degradation {
                    dead_dpus: dead.clone(),
                    survivors: alive.len(),
                });
                let orphans: Vec<Range<usize>> = dead
                    .iter()
                    .flat_map(|&d| {
                        counts[d] = 0;
                        std::mem::take(&mut assignments[d])
                    })
                    .collect();
                let total = orphans.iter().map(Range::len).sum();
                let mut shares = partition_even(total, alive.len()).into_iter().map(|s| s.len());
                let mut pieces: Vec<Vec<Range<usize>>> = vec![Vec::new(); alive.len()];
                let (mut slot, mut room) = (0, shares.next().unwrap_or(0));
                for mut r in orphans {
                    while !r.is_empty() && slot < pieces.len() {
                        if room == 0 {
                            slot += 1;
                            room = shares.next().unwrap_or(0);
                            continue;
                        }
                        let take = room.min(r.len());
                        pieces[slot].push(r.start..r.start + take);
                        r.start += take;
                        room -= take;
                    }
                }
                set.broadcast_subset(Q_TABLE_OFFSET, &checkpoint.1, &alive)?;
                res.rollbacks += 1;
                telemetry.emit(|| Event::Rollback {
                    to_round: checkpoint.0,
                });
                for (slot, &dpu) in alive.iter().enumerate() {
                    let added: usize = pieces[slot].iter().map(Range::len).sum();
                    if added > 0 {
                        let bytes: Vec<u8> = pieces[slot]
                            .iter()
                            .flat_map(|r| encode_chunk(spec, cfg, data, r.clone()))
                            .collect();
                        set.copy_to(dpu, trans_offset + counts[dpu] * Transition::RECORD_BYTES, &bytes)?;
                        assignments[dpu].append(&mut pieces[slot]);
                        counts[dpu] += added;
                    }
                    let raw = set.copy_from(dpu, 0, HEADER_BYTES)?;
                    let mut h = KernelHeader::from_bytes(&raw).unwrap();
                    h.n_transitions = counts[dpu] as u32;
                    h.episode_base = checkpoint.0 * cfg.tau;
                    set.copy_to(dpu, 0, &h.to_bytes())?;
                }
                close(&mut b, &start, set.stats(), false);
                round = checkpoint.0;
                continue;
            }

            tables.clear();
            let subset = (alive.len() < n).then_some(alive.as_slice());
            set.gather_with(Q_TABLE_OFFSET, q_bytes, subset, |t| tables.push(t.to_vec()))?;
            let last = round + 1 == rounds;
            if !last {
                let avg = mean_bytes(&tables);
                let seconds = aggregate_s(alive.len());
                b.inter_pim_s += seconds;
                telemetry.emit(|| Event::HostAggregate {
                    tables: alive.len(),
                    bytes: q_bytes as u64,
                    seconds,
                });
                match subset {
                    None => set.broadcast(Q_TABLE_OFFSET, &avg)?,
                    Some(alive) => set.broadcast_subset(Q_TABLE_OFFSET, &avg, alive)?,
                }
                let every = self.resilience.checkpoint_every;
                if every > 0 && (round + 1) % every == 0 {
                    res.checkpoints += 1;
                    res.checkpoint_bytes += avg.len() as u64;
                    checkpoint = (round + 1, avg);
                }
            }
            close(&mut b, &start, set.stats(), last);
            telemetry.emit(|| Event::SyncRound {
                round,
                live_dpus: alive.len(),
            });
            round += 1;
        }

        let mean = mean_bytes(&tables);
        let q = match spec.dtype {
            DataType::Fp32 => QTable::from_bytes(ns, na, &mean),
            DataType::Int32 => FixedQTable::from_bytes(ns, na, scale, &mean).to_float(),
        };
        let seconds = aggregate_s(alive.len());
        b.pim_cpu_s += seconds;
        telemetry.emit(|| Event::HostAggregate {
            tables: tables.len(),
            bytes: q_bytes as u64,
            seconds,
        });
        b.pim_kernel_s += set.stats().faulted_kernel_seconds;
        res.faulted_kernel_seconds = set.stats().faulted_kernel_seconds;
        let memory = set.memory_stats();
        telemetry.emit(|| Event::MemoryCeilings {
            bank_bytes: memory.bank_bytes,
            bank_peak_bytes: memory.bank_peak_bytes,
            arena_bytes: memory.arena_bytes,
            arena_peak_bytes: memory.arena_peak_bytes,
        });
        Ok((q.to_bytes(), b, res))
    }

    /// Runs through the runner and through the specification and demands
    /// identical observables; returns the runner's.
    fn check(&self, label: &str) -> Observed {
        let runner = self.observe(true);
        let spec = self.observe(false);
        assert!(!runner.events.is_empty(), "{label}: no events recorded");
        assert_eq!(runner.outcome, spec.outcome, "{label}: Q-table or breakdown");
        assert_eq!(runner.resilience, spec.resilience, "{label}: resilience");
        assert_eq!(runner.stats, spec.stats, "{label}: SystemStats");
        assert_eq!(runner.last_launch, spec.last_launch, "{label}: last launch");
        assert_eq!(runner.ledger, spec.ledger, "{label}: transfer ledger");
        assert_eq!(runner.sanitizer, spec.sanitizer, "{label}: sanitizer report");
        assert_eq!(runner.memory, spec.memory, "{label}: MemoryStats");
        if let Some(i) = (0..runner.events.len().max(spec.events.len()))
            .find(|&i| runner.events.get(i) != spec.events.get(i))
        {
            panic!(
                "{label}: event {i} differs: {:?} vs {:?}",
                runner.events.get(i),
                spec.events.get(i)
            );
        }
        assert_eq!(runner.trace, spec.trace, "{label}: rendered trace");
        assert!(runner.banks == spec.banks, "{label}: bank bytes differ");
        runner
    }
}

fn cfg(dpus: usize, episodes: u32, tau: u32) -> RunConfig {
    RunConfig::paper_defaults()
        .with_dpus(dpus)
        .with_episodes(episodes)
        .with_tau(tau)
}

fn sarsa_ran_fp32() -> WorkloadSpec {
    WorkloadSpec {
        algorithm: Algorithm::Sarsa,
        sampling: SamplingStrategy::Random,
        dtype: DataType::Fp32,
    }
}

/// All 12 paper variants on both fused-sweep tiers and three engines.
/// FP32 on two or three workers folds its sums over element ranges.
#[test]
fn fused_rounds_match_the_stepwise_loop_across_variants_tiers_and_engines() {
    let data = dataset(2_000);
    for tier in TIERS {
        for engine in ENGINES {
            for spec in WorkloadSpec::paper_variants() {
                let run = Run {
                    tier,
                    engine,
                    ..Run::new(spec, cfg(6, 6, 2), &data)
                };
                let out = run.check(&format!("{spec}/{tier:?}/{engine:?}"));
                assert!(out.outcome.is_ok(), "{spec}/{tier:?}/{engine:?}");
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
    let few = dataset(10);
    let taxi = collect_random(&mut Taxi::new(), 320, 21);
    for tier in TIERS {
        for engine in ENGINES {
            for spec in [WorkloadSpec::q_learning_seq_int32(), sarsa_ran_fp32()] {
                let label = |what: &str| format!("{spec}/{tier:?}/{engine:?}: {what}");
                // Paper-shaped: a 500 × 6 Taxi table over 64 DPUs of five
                // records each, so almost every entry of every DPU's table
                // is one it never writes; with and without an initial
                // broadcast under the round-0 table.
                for initial_q in [0.0, -1.5] {
                    Run {
                        tier,
                        engine,
                        ..Run::new(spec, cfg(64, 4, 2).with_initial_q(initial_q), &taxi)
                    }
                    .check(&label(&format!("Taxi, 64 DPUs of 5 records, initial Q {initial_q}")));
                }
                let base = |cfg| Run {
                    tier,
                    engine,
                    ..Run::new(spec, cfg, &data)
                };
                // A non-zero initial Q-value adds the initial broadcast to
                // round 0's deliveries.
                base(cfg(5, 6, 2).with_initial_q(0.25)).check(&label("initial Q-value"));
                // A single round: round 0 is also the last.
                base(cfg(5, 3, 3)).check(&label("single round"));
                Run {
                    resilience: ResilienceConfig::none().with_checkpoint_every(1),
                    ..base(cfg(5, 6, 2))
                }
                .check(&label("checkpoints"));
                // One DPU runs one worker on every engine, so FP32 folds
                // inside the pass.
                base(cfg(1, 4, 2)).check(&label("one DPU"));
                // More DPUs than transitions leaves empty chunks, which
                // the chunk scatter does not address.
                Run {
                    tier,
                    engine,
                    ..Run::new(spec, cfg(16, 4, 2), &few)
                }
                .check(&label("16 DPUs, 10 transitions"));
            }
        }
    }
}

/// Every fault kind, with and without the resilience policy, on every
/// tier and engine: retries (including a retry that faults again), a
/// retry budget that runs out, degrade with a rollback to a checkpoint,
/// MRAM bit flips, stragglers, and corrupted or dropped transfers.
#[test]
fn faulted_runs_match_the_stepwise_loop() {
    let data = dataset(2_000);
    let few = dataset(10);
    let q_region = MramRegion {
        offset: Q_TABLE_OFFSET,
        len: data.num_states() * data.num_actions() * 4,
    };
    let retry = ResilienceConfig::none().with_max_retries(8);
    let degrade = ResilienceConfig::none()
        .with_max_retries(1)
        .with_degrade(true);
    let cases = [
        ("retry", FaultPlan::seeded(7).with_dpu_fail_rate(0.3), retry),
        ("retry faults again", FaultPlan::seeded(3).with_dpu_fail_rate(0.6), retry),
        (
            "retries run out",
            FaultPlan::seeded(1).with_dead_dpus(vec![2], 1),
            ResilienceConfig::none().with_max_retries(2),
        ),
        (
            "degrade, roll back to round 0",
            FaultPlan::seeded(1).with_dead_dpus(vec![1], 1),
            degrade,
        ),
        (
            "degrade, roll back to a checkpoint",
            FaultPlan::seeded(1).with_dead_dpus(vec![0, 3], 3),
            degrade.with_checkpoint_every(1),
        ),
        ("bit flips", FaultPlan::seeded(3).with_bitflips(0.5, q_region), ResilienceConfig::none()),
        ("stragglers", FaultPlan::seeded(5).with_stragglers(0.5, 3.0), ResilienceConfig::none()),
        ("transfer faults", FaultPlan::seeded(10).with_transfer_faults(0.2, 0.2), retry),
        ("transfer faults that break a run", FaultPlan::seeded(9).with_transfer_faults(0.2, 0.2), retry),
    ];
    let mut retried_twice = false;
    for tier in TIERS {
        for engine in ENGINES {
            for spec in [WorkloadSpec::q_learning_seq_int32(), sarsa_ran_fp32()] {
                for (what, faults, resilience) in &cases {
                    let label = format!("{spec}/{tier:?}/{engine:?}: {what}");
                    let run = Run {
                        tier,
                        engine,
                        faults: faults.clone(),
                        resilience: *resilience,
                        ..Run::new(spec, cfg(5, 8, 2).with_initial_q(0.5), &data)
                    };
                    let out = run.check(&label);
                    retried_twice |= out
                        .events
                        .iter()
                        .any(|e| matches!(e, Event::Retry { attempt: 2.., .. }));
                    match *what {
                        "retries run out" => assert!(out.outcome.is_err(), "{label}"),
                        "transfer faults that break a run" => {}
                        _ => assert!(out.outcome.is_ok(), "{label}: {:?}", out.outcome),
                    }
                    if what.starts_with("degrade") {
                        assert!(out.resilience.contains("rollbacks: 1"), "{label}: {}", out.resilience);
                    }
                }
                // Transfer faults on a set with empty chunks.
                Run {
                    tier,
                    engine,
                    faults: FaultPlan::seeded(4).with_transfer_faults(0.1, 0.1),
                    ..Run::new(spec, cfg(16, 4, 2), &few)
                }
                .check(&format!("{spec}/{tier:?}/{engine:?}: transfer faults, 16 DPUs"));
            }
        }
    }
    assert!(retried_twice, "no round retried a DPU twice");
}

#[test]
fn sanitized_runs_match_the_stepwise_loop() {
    let data = dataset(600);
    for tier in TIERS {
        for engine in ENGINES {
            for spec in [WorkloadSpec::q_learning_seq_int32(), sarsa_ran_fp32()] {
                let run = Run {
                    tier,
                    engine,
                    sanitize: SanitizeLevel::Full,
                    ..Run::new(spec, cfg(4, 4, 2), &data)
                };
                let out = run.check(&format!("{spec}/{tier:?}/{engine:?}: sanitizer"));
                assert!(out.sanitizer.contains("sanitized_launches: 2"), "{}", out.sanitizer);
            }
        }
    }
}

/// A run cancelled at round `k` stops at the same point as the
/// specification: same launches, same event stream, same bank bytes —
/// clean, and with a relaunch in flight.
#[test]
fn cancellation_at_every_round_matches_the_stepwise_loop() {
    let data = dataset(2_000);
    let rounds = 4;
    for tier in TIERS {
        for engine in ENGINES {
            for spec in [
                WorkloadSpec::q_learning_seq_int32(),
                WorkloadSpec::q_learning_seq_fp32(),
            ] {
                for (faults, resilience) in [
                    (FaultPlan::none(), ResilienceConfig::none()),
                    (
                        FaultPlan::seeded(7).with_dpu_fail_rate(0.3),
                        ResilienceConfig::none().with_max_retries(8),
                    ),
                ] {
                    for k in 0..=rounds {
                        let label = format!("{spec}/{tier:?}/{engine:?}/{faults:?}: cancel at round {k}");
                        let run = Run {
                            tier,
                            engine,
                            faults: faults.clone(),
                            resilience,
                            cancel_at: Some(k),
                            ..Run::new(spec, cfg(4, 2 * rounds, 2), &data)
                        };
                        let out = run.check(&label);
                        assert_eq!(out.outcome.is_err(), k < rounds, "{label}");
                        let rounds_synced = out
                            .events
                            .iter()
                            .filter(|e| matches!(e, Event::SyncRound { .. }));
                        assert_eq!(rounds_synced.count(), k as usize, "{label}");
                    }
                }
            }
        }
    }
}
