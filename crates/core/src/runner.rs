//! The SwiftRL execution driver (the paper's Figure 4).
//!
//! [`PimRunner`] allocates a fresh DPU set per run and drives the four
//! phases: load (CPU→PIM), kernel rounds, τ-periodic inter-PIM-core
//! synchronization through the host, and final retrieval (PIM→CPU) +
//! aggregation. It reports the trained Q-table and a
//! [`TimeBreakdown`] with the same four categories as Figures 5–6.
//!
//! The runner is execution-tier agnostic: it stages headers and replay
//! chunks the same way under every [`ExecTier`](swiftrl_pim::config::ExecTier),
//! and [`SwiftRlKernel`] advertises its fused batched implementation via
//! `Kernel::batch` — whether a launch interprets per-intrinsic or takes
//! the host-fused sweep is decided per DPU inside the platform
//! (DESIGN.md §14), never here.

use crate::breakdown::TimeBreakdown;
use crate::config::{DataType, RunConfig, WorkloadSpec};
use crate::kernels::SwiftRlKernel;
use crate::layout::{encode_chunk, KernelHeader, HEADER_BYTES, Q_TABLE_OFFSET};
use crate::partition::partition_even;
use crate::resilience::{ResilienceConfig, ResilienceStats};
use std::ops::Range;
use std::time::Instant;
use swiftrl_baselines::specs::MachineSpec;
use swiftrl_env::{ExperienceDataset, Transition};
use swiftrl_pim::config::PimConfig;
use swiftrl_pim::host::{check_alloc, DpuSet, PimError, PimSystem};
use swiftrl_pim::report::SanitizerReport;
use swiftrl_rl::qtable::{FixedQTable, FixedQTableSum, QTable, QTableSum};
use swiftrl_telemetry::{Event, Telemetry};

/// Host DRAM bandwidth assumed for the aggregation (averaging) step, in
/// bytes/second. The averaging of N small Q-tables is bandwidth-bound on
/// the host, so this is the Table 1 memory bandwidth of the paper's CPU
/// baseline (Xeon Silver 4110), sourced from `baselines::specs` so the
/// figure lives in exactly one place.
fn host_aggregate_bw() -> f64 {
    MachineSpec::xeon_silver_4110().memory_bandwidth_gbps * 1.0e9
}

/// Result of a SwiftRL training run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The final aggregated Q-table (descaled to FP32 for INT32 runs,
    /// exactly as the PIM cores convert before the final transfer).
    pub q_table: QTable,
    /// Modelled execution-time breakdown.
    pub breakdown: TimeBreakdown,
    /// Synchronization rounds performed (`E/τ`).
    pub comm_rounds: u32,
    /// DPUs used.
    pub dpus: usize,
    /// Accumulated runtime-sanitizer findings over every launch of the
    /// run. Empty (and `is_clean()`) when the platform runs with
    /// [`swiftrl_pim::sanitize::SanitizeLevel::Off`].
    pub sanitizer: SanitizerReport,
    /// What the resilience loop did: faults seen, retries, degraded
    /// DPUs, checkpoints, rollbacks. All-zero (`is_clean()`) for a
    /// fault-free run.
    pub resilience: ResilienceStats,
    /// Host wall-clock seconds this process spent inside DPU kernel
    /// launches — the simulator's own compute cost, not a modelled
    /// quantity. Machine- and tier-dependent; excluded from every
    /// determinism comparison.
    pub host_kernel_s: f64,
    /// Fleet-wide bank-memory accounting at the end of the run: how
    /// many bank bytes the lazily-materialized banks actually held
    /// (current and peak) and the footprint of the segment arena
    /// backing them. Engine-invariant; host-machine-dependent only in
    /// the sense that it reflects the simulated working set, never
    /// wall-clock.
    pub memory: swiftrl_pim::MemoryStats,
}

/// Drives one workload variant on a simulated PIM platform.
///
/// Construction validates the schedule (`episodes` divisible by `τ`) and
/// checks the DPU count against the platform's capacity, so a
/// successfully built runner is known to be executable. Each
/// [`run`](PimRunner::run) allocates a fresh DPU set on the stored
/// platform configuration, so the runner is reusable and every run
/// starts from zeroed simulated memory.
#[derive(Debug, Clone)]
pub struct PimRunner {
    spec: WorkloadSpec,
    cfg: RunConfig,
    platform: PimConfig,
    resilience: ResilienceConfig,
}

impl PimRunner {
    /// Builds a runner on a default-shaped platform big enough for the
    /// run.
    ///
    /// # Errors
    ///
    /// Returns a [`PimError`] if the configuration is invalid (see
    /// [`Self::with_platform`]).
    pub fn new(spec: WorkloadSpec, cfg: RunConfig) -> Result<Self, PimError> {
        let platform = PimConfig::builder().dpus(cfg.dpus).build();
        Self::with_platform(spec, cfg, platform)
    }

    /// Builds a runner on a custom platform configuration.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::BadArgument`] if `cfg.episodes` is not
    /// divisible by `cfg.tau`, or [`PimError::Alloc`] if fewer than
    /// `cfg.dpus` DPUs are available on the platform.
    pub fn with_platform(
        spec: WorkloadSpec,
        cfg: RunConfig,
        platform: PimConfig,
    ) -> Result<Self, PimError> {
        cfg.comm_rounds()?;
        // Fail a bad DPU count at construction, before any dataset work,
        // with the error a fresh platform's `alloc` would raise.
        check_alloc(cfg.dpus, platform.dpus)?;
        Ok(Self {
            spec,
            cfg,
            platform,
            resilience: ResilienceConfig::none(),
        })
    }

    /// Sets the host-side resilience policy (retry / checkpoint /
    /// degrade) applied by every subsequent [`run`](Self::run).
    pub fn with_resilience(mut self, resilience: ResilienceConfig) -> Self {
        self.resilience = resilience;
        self
    }

    /// Attaches a telemetry sink: every subsequent [`run`](Self::run)
    /// records its full event stream (transfers, launches with per-DPU
    /// cycle spans, sync rounds, faults and resilience actions) into
    /// the handle the caller keeps. Equivalent to building the platform
    /// with [`swiftrl_pim::config::PimConfigBuilder::telemetry`].
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.platform.telemetry = telemetry;
        self
    }

    /// The resilience policy in effect.
    pub fn resilience(&self) -> &ResilienceConfig {
        &self.resilience
    }

    /// The workload variant.
    pub fn spec(&self) -> WorkloadSpec {
        self.spec
    }

    /// The run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// The platform configuration each run allocates its DPU set on.
    pub fn platform(&self) -> &PimConfig {
        &self.platform
    }

    /// Trains over `dataset` and returns the aggregated Q-table with the
    /// time breakdown.
    ///
    /// # Errors
    ///
    /// Returns a [`PimError`] on kernel faults or transfer failures
    /// (e.g. a chunk that does not fit in MRAM).
    pub fn run(&self, dataset: &ExperienceDataset) -> Result<RunOutcome, PimError> {
        let mut system = PimSystem::new(self.platform.clone());
        let mut set = system.alloc(self.cfg.dpus)?;
        self.run_on(&mut set, dataset, None)
    }

    /// [`Self::run`] on a caller-allocated DPU set. Multi-tenant hosts
    /// lease sets from one shared [`PimSystem`] (see
    /// [`crate::service::TrainingService`]) and drive each tenant's run
    /// on its own set; because the set carries its own
    /// [`PimConfig`] — fault plan and telemetry sink included — the run
    /// is bit-identical to a solo [`Self::run`] on an identically
    /// configured private platform (only fleet-wide memory accounting
    /// is shared).
    ///
    /// When `cancel` is given, the token is checked at every round
    /// boundary; a cancelled run stops before its next launch and
    /// returns [`PimError::Cancelled`], leaving `set` consistent (and
    /// reusable or freeable by the caller). A token made with
    /// [`CancelToken::at_round(k)`](crate::service::CancelToken::at_round)
    /// stops the run at round `k` exactly.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::BadArgument`] if the set's size differs from
    /// the configured DPU count, [`PimError::Cancelled`] on
    /// cancellation, or any [`PimError`] a plain run can produce.
    pub fn run_on(
        &self,
        set: &mut DpuSet,
        dataset: &ExperienceDataset,
        cancel: Option<&crate::service::CancelToken>,
    ) -> Result<RunOutcome, PimError> {
        let rounds = self.cfg.comm_rounds()?;
        let ndpus = set.ndpus();
        if ndpus != self.cfg.dpus {
            return Err(PimError::BadArgument(format!(
                "run_on expects a set of {} DPUs, got {ndpus}",
                self.cfg.dpus
            )));
        }
        let ns = dataset.num_states();
        let na = dataset.num_actions();
        let q_bytes = ns * na * 4;
        let scale = self.cfg.scale();

        let mut breakdown = TimeBreakdown::default();
        let mut res = ResilienceStats::default();
        let mut host_kernel_s = 0.0_f64;

        // ---- Phase 1: CPU→PIM program + dataset + header + Q-table load ----
        set.reset_stats();
        set.load_program();
        let ranges = partition_even(dataset.len(), ndpus);
        let headers: Vec<KernelHeader> = ranges
            .iter()
            .enumerate()
            .map(|(dpu, range)| {
                KernelHeader::for_chunk(
                    self.spec,
                    &self.cfg,
                    dataset,
                    dpu,
                    range.len(),
                    self.cfg.tau,
                )
            })
            .collect();

        let header_parts: Vec<Vec<u8>> = headers.iter().map(|h| h.to_bytes()).collect();
        set.scatter(0, &header_parts)?;

        // Zero-initialized Q-tables need no transfer (fresh MRAM reads as
        // zero); an arbitrary initial value is broadcast to every DPU.
        let initial_q_bytes: Vec<u8> = if self.cfg.initial_q != 0.0 {
            let init = match self.spec.dtype {
                DataType::Fp32 => QTable::filled(ns, na, self.cfg.initial_q).to_bytes(),
                DataType::Int32 => FixedQTable::filled(
                    ns,
                    na,
                    scale,
                    scale.to_fixed(self.cfg.initial_q),
                )
                .to_bytes(),
            };
            set.broadcast(Q_TABLE_OFFSET, &init)?;
            init
        } else {
            vec![0u8; q_bytes]
        };
        let trans_offset = headers[0].transitions_offset();
        let chunk_parts: Vec<Vec<u8>> = ranges
            .iter()
            .map(|r| encode_chunk(self.spec, &self.cfg, dataset, r.clone()))
            .collect();
        set.scatter(trans_offset, &chunk_parts)?;
        breakdown.cpu_pim_s = set.stats().cpu_to_pim_seconds;
        breakdown.program_load_s = set.stats().program_load_seconds;

        // ---- Phase 2+3: kernel rounds with τ-periodic synchronization ----
        //
        // The resilient form of the plain `for round in 0..rounds` loop:
        // `alive` tracks the DPUs still in the run, `assignments`/`counts`
        // which dataset ranges each holds (for degrade remapping), and
        // `checkpoint` the most recent host-side Q-table snapshot. While
        // every DPU is alive the loop takes exactly the same full-set
        // launch/gather/broadcast path as before, so fault-free runs are
        // bit-identical to the non-resilient driver.
        let kernel = SwiftRlKernel::with_tasklets(self.spec, self.cfg.tasklets);
        let mut alive: Vec<usize> = (0..ndpus).collect();
        let mut assignments: Vec<Vec<Range<usize>>> =
            ranges.iter().map(|r| vec![r.clone()]).collect();
        let mut counts: Vec<usize> = ranges.iter().map(|r| r.len()).collect();
        // The checkpoint is never absent: before `checkpoint_every`
        // first fires (or when it is 0), the snapshot is the *initial*
        // Q-table at round 0, so a degradation in the first window rolls
        // survivors back to a from-scratch replay instead of keeping the
        // partially-updated tables the dead DPU contributed to. The
        // implicit round-0 snapshot is not counted in
        // `ResilienceStats::checkpoints`/`checkpoint_bytes` (those count
        // explicit periodic checkpoints only).
        let mut checkpoint: Option<(u32, Vec<u8>)> = Some((0, initial_q_bytes));
        // Every sync round folds the gathered tables into this DPU-order
        // sum as they arrive; after the last round it holds the final
        // tables.
        let mut sum = match self.spec.dtype {
            DataType::Fp32 => RoundSum::Fp32(QTableSum::new(ns, na)),
            DataType::Int32 => RoundSum::Int32(FixedQTableSum::new(ns, na, scale)),
        };
        let mut round: u32 = 0;
        while round < rounds {
            if cancel.is_some_and(|token| token.stops_at(round)) {
                return Err(PimError::Cancelled);
            }
            // The kernel advances its own episode window in MRAM, so no
            // header re-arm is needed between rounds.
            let kernel_before = set.stats().kernel_seconds;
            let sync_cpu_before = set.stats().cpu_to_pim_seconds;
            let sync_pim_before = set.stats().pim_to_cpu_seconds;

            let launch_started = Instant::now();
            let dead = self.launch_with_retry(set, &kernel, &alive, ndpus, &mut res)?;
            host_kernel_s += launch_started.elapsed().as_secs_f64();
            let rollback = if dead.is_empty() {
                None
            } else {
                self.degrade(
                    set,
                    dataset,
                    &mut alive,
                    &mut assignments,
                    &mut counts,
                    &dead,
                    checkpoint.as_ref(),
                    trans_offset,
                    &mut res,
                )?
            };

            let is_last = rollback.is_none() && round + 1 == rounds;
            if rollback.is_none() {
                // Gather local Q-tables (survivors only once degraded),
                // folding each into the round's sum.
                let live = alive.len();
                let subset = (live < ndpus).then_some(alive.as_slice());
                sum.clear();
                set.gather_with(Q_TABLE_OFFSET, q_bytes, subset, |table| sum.add_bytes(table))?;

                if !is_last {
                    // Host-side aggregation + broadcast of the average.
                    let avg = sum.mean_bytes();
                    let agg_s = self.aggregate_seconds(live, q_bytes);
                    breakdown.inter_pim_s += agg_s;
                    self.platform.telemetry.emit(|| Event::HostAggregate {
                        tables: live,
                        bytes: q_bytes as u64,
                        seconds: agg_s,
                    });
                    if alive.len() == ndpus {
                        set.broadcast(Q_TABLE_OFFSET, &avg)?;
                    } else {
                        set.broadcast_subset(Q_TABLE_OFFSET, &avg, &alive)?;
                    }
                    let every = self.resilience.checkpoint_every;
                    if every > 0 && (round + 1).is_multiple_of(every) {
                        res.checkpoints += 1;
                        res.checkpoint_bytes += avg.len() as u64;
                        checkpoint = Some((round + 1, avg));
                    }
                }
            }

            let kernel_delta = set.stats().kernel_seconds - kernel_before;
            breakdown.pim_kernel_s += kernel_delta;
            let sync_cpu = set.stats().cpu_to_pim_seconds - sync_cpu_before;
            let sync_pim = set.stats().pim_to_cpu_seconds - sync_pim_before;
            if is_last {
                // The final gather is the PIM→CPU retrieval phase.
                breakdown.pim_cpu_s += sync_pim;
                breakdown.inter_pim_s += sync_cpu;
            } else {
                // Repair traffic (rollback broadcast, chunk remapping)
                // rides the same host-mediated path as synchronization.
                breakdown.inter_pim_s += sync_cpu + sync_pim;
            }

            if rollback.is_none() {
                self.platform.telemetry.emit(|| Event::SyncRound {
                    round,
                    live_dpus: alive.len(),
                });
            }
            round = match rollback {
                Some(ck_round) => ck_round,
                None => round + 1,
            };
        }

        // ---- Phase 4: final aggregation on the host ----
        let q_table = sum.mean_table();
        let final_agg_s = self.aggregate_seconds(alive.len(), q_bytes);
        breakdown.pim_cpu_s += final_agg_s;
        self.platform.telemetry.emit(|| Event::HostAggregate {
            tables: sum.tables(),
            bytes: q_bytes as u64,
            seconds: final_agg_s,
        });

        // Launches that ended in a fault still cost modelled wall time
        // (the host waited on the slowest survivor); the DpuSet keeps
        // them out of its clean kernel counters, so fold them in here.
        breakdown.pim_kernel_s += set.stats().faulted_kernel_seconds;
        res.faulted_kernel_seconds = set.stats().faulted_kernel_seconds;

        let memory = set.memory_stats();
        self.platform.telemetry.emit(|| Event::MemoryCeilings {
            bank_bytes: memory.bank_bytes,
            bank_peak_bytes: memory.bank_peak_bytes,
            arena_bytes: memory.arena_bytes,
            arena_peak_bytes: memory.arena_peak_bytes,
        });

        Ok(RunOutcome {
            q_table,
            breakdown,
            comm_rounds: rounds,
            dpus: ndpus,
            sanitizer: set.sanitizer_report().clone(),
            resilience: res,
            host_kernel_s,
            memory,
        })
    }

    /// Launches one round on `alive`, retrying the faulted subset up to
    /// the configured budget. Returns the DPUs still faulting after all
    /// retries (empty on a clean round) — non-empty only when degrade
    /// mode may absorb them; otherwise the launch error propagates.
    fn launch_with_retry(
        &self,
        set: &mut DpuSet,
        kernel: &SwiftRlKernel,
        alive: &[usize],
        ndpus: usize,
        res: &mut ResilienceStats,
    ) -> Result<Vec<usize>, PimError> {
        let first = if alive.len() == ndpus {
            set.launch(kernel).map(|_| ())
        } else {
            set.launch_subset(kernel, alive).map(|_| ())
        };
        let mut last_err = match first {
            Ok(()) => return Ok(Vec::new()),
            Err(e) => e,
        };
        // Survivors of a faulted launch completed their episode window;
        // only the faulted DPUs are relaunched. An injected fault aborts
        // before any kernel work, so the faulted DPU's MRAM — episode
        // window included — is untouched and the relaunch replays it.
        let mut pending = set.last_launch().faulted_dpus.clone();
        res.faults_seen += pending.len() as u64;
        for attempt in 1..=self.resilience.max_retries {
            res.retries += 1;
            self.platform.telemetry.emit(|| Event::Retry {
                attempt,
                dpus: pending.clone(),
            });
            match set.launch_subset(kernel, &pending) {
                Ok(_) => return Ok(Vec::new()),
                Err(e) => {
                    pending = set.last_launch().faulted_dpus.clone();
                    res.faults_seen += pending.len() as u64;
                    last_err = e;
                }
            }
        }
        if self.resilience.degrade && pending.len() < alive.len() {
            Ok(pending)
        } else {
            Err(last_err)
        }
    }

    /// Drops `dead` from the run and remaps their dataset chunks onto
    /// the survivors (appended behind each survivor's own records, with
    /// a header patch for the new transition count). The survivors are
    /// rolled back to the latest checkpoint — Q-table snapshot
    /// re-broadcast, episode windows re-armed — and the checkpointed
    /// round index is returned so the caller replays from there. Before
    /// the first periodic checkpoint fires (or with `checkpoint_every`
    /// 0) the snapshot is the initial round-0 Q-table, so the replay is
    /// a from-scratch run on the survivors.
    #[allow(clippy::too_many_arguments)]
    fn degrade(
        &self,
        set: &mut DpuSet,
        dataset: &ExperienceDataset,
        alive: &mut Vec<usize>,
        assignments: &mut [Vec<Range<usize>>],
        counts: &mut [usize],
        dead: &[usize],
        checkpoint: Option<&(u32, Vec<u8>)>,
        trans_offset: usize,
        res: &mut ResilienceStats,
    ) -> Result<Option<u32>, PimError> {
        alive.retain(|d| !dead.contains(d));
        res.degraded_dpus.extend_from_slice(dead);
        self.platform.telemetry.emit(|| Event::Degradation {
            dead_dpus: dead.to_vec(),
            survivors: alive.len(),
        });
        if alive.is_empty() {
            return Err(PimError::BadArgument(
                "every DPU faulted; no survivors to degrade onto".to_string(),
            ));
        }

        // Orphaned dataset ranges, in dead-DPU order.
        let mut orphans: Vec<Range<usize>> = Vec::new();
        for &d in dead {
            orphans.append(&mut assignments[d]);
            counts[d] = 0;
        }
        let total: usize = orphans.iter().map(|r| r.len()).sum();

        // Cut the orphan ranges into contiguous per-survivor shares,
        // using the same even split as the initial partition.
        let shares = partition_even(total, alive.len());
        let mut pieces: Vec<Vec<Range<usize>>> = vec![Vec::new(); alive.len()];
        let mut slot = 0usize;
        let mut filled = 0usize;
        for mut r in orphans {
            while !r.is_empty() && slot < pieces.len() {
                let room = shares[slot].len() - filled;
                if room == 0 {
                    slot += 1;
                    filled = 0;
                    continue;
                }
                let take = room.min(r.len());
                pieces[slot].push(r.start..r.start + take);
                r.start += take;
                filled += take;
            }
        }

        // Roll back to the latest checkpoint if one exists: survivors
        // get the snapshot Q-table and replay from that round, so no
        // episodes on the orphaned data are lost since the checkpoint.
        let rollback = match checkpoint {
            Some((ck_round, snapshot)) => {
                set.broadcast_subset(Q_TABLE_OFFSET, snapshot, alive)?;
                res.rollbacks += 1;
                self.platform.telemetry.emit(|| Event::Rollback {
                    to_round: *ck_round,
                });
                Some(*ck_round)
            }
            None => None,
        };

        for (slot, &dpu) in alive.iter().enumerate() {
            let added: usize = pieces[slot].iter().map(|r| r.len()).sum();
            if added > 0 {
                let mut bytes = Vec::with_capacity(added * Transition::RECORD_BYTES);
                for r in &pieces[slot] {
                    let part = encode_chunk(self.spec, &self.cfg, dataset, r.clone());
                    bytes.extend_from_slice(&part);
                }
                set.copy_to(
                    dpu,
                    trans_offset + counts[dpu] * Transition::RECORD_BYTES,
                    &bytes,
                )?;
                assignments[dpu].append(&mut pieces[slot]);
                counts[dpu] += added;
            }
            if added > 0 || rollback.is_some() {
                // Read-modify-write the header so the kernel-advanced
                // episode window survives a pure chunk-count patch.
                let raw = set.copy_from(dpu, 0, HEADER_BYTES)?;
                let mut header = KernelHeader::from_bytes(&raw)
                    .map_err(|e| PimError::BadArgument(e.to_string()))?;
                header.n_transitions = counts[dpu] as u32;
                if let Some(ck_round) = rollback {
                    header.episode_base = ck_round * self.cfg.tau;
                }
                set.copy_to(dpu, 0, &header.to_bytes())?;
            }
        }
        Ok(rollback)
    }

    /// Modelled host time to average `n` Q-tables of `q_bytes` each.
    fn aggregate_seconds(&self, n: usize, q_bytes: usize) -> f64 {
        ((n + 1) * q_bytes) as f64 / host_aggregate_bw()
    }
}

/// One sync round's DPU-order Q-table sum, in the run's data type.
enum RoundSum {
    Fp32(QTableSum),
    Int32(FixedQTableSum),
}

impl RoundSum {
    fn add_bytes(&mut self, table: &[u8]) {
        match self {
            Self::Fp32(sum) => sum.add_bytes(table),
            Self::Int32(sum) => sum.add_bytes(table),
        }
    }

    fn clear(&mut self) {
        match self {
            Self::Fp32(sum) => sum.clear(),
            Self::Int32(sum) => sum.clear(),
        }
    }

    fn tables(&self) -> usize {
        match self {
            Self::Fp32(sum) => sum.tables(),
            Self::Int32(sum) => sum.tables(),
        }
    }

    /// The average in its MRAM layout, ready to broadcast.
    fn mean_bytes(&self) -> Vec<u8> {
        match self {
            Self::Fp32(sum) => sum.mean().to_bytes(),
            Self::Int32(sum) => sum.mean().to_bytes(),
        }
    }

    /// The average as the run's result, descaled to FP32 for INT32 runs.
    fn mean_table(&self) -> QTable {
        match self {
            Self::Fp32(sum) => sum.mean(),
            Self::Int32(sum) => sum.mean().to_float(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::dpu_seed;
    use swiftrl_env::collect::collect_random;
    use swiftrl_env::frozen_lake::FrozenLake;
    use swiftrl_rl::sampling::SamplingStrategy;

    fn dataset() -> ExperienceDataset {
        let mut env = FrozenLake::slippery_4x4();
        collect_random(&mut env, 2_000, 42)
    }

    fn quick_cfg(dpus: usize) -> RunConfig {
        RunConfig::paper_defaults()
            .with_dpus(dpus)
            .with_episodes(20)
            .with_tau(10)
    }

    #[test]
    fn run_produces_breakdown_and_table() {
        let d = dataset();
        let out = PimRunner::new(WorkloadSpec::q_learning_seq_int32(), quick_cfg(4))
            .unwrap()
            .run(&d)
            .unwrap();
        assert_eq!(out.comm_rounds, 2);
        assert_eq!(out.dpus, 4);
        assert!(out.breakdown.pim_kernel_s > 0.0);
        assert!(out.breakdown.cpu_pim_s > 0.0);
        assert!(out.breakdown.pim_cpu_s > 0.0);
        assert!(out.breakdown.inter_pim_s > 0.0);
        // Training moved some Q-values.
        assert!(out.q_table.values().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn single_dpu_single_round_matches_host_training() {
        let d = dataset();
        let cfg = quick_cfg(1).with_episodes(10).with_tau(10);
        let out = PimRunner::new(WorkloadSpec::q_learning_seq_fp32(), cfg)
            .unwrap()
            .run(&d)
            .unwrap();

        let mut host = QTable::zeros(d.num_states(), d.num_actions());
        let qcfg = swiftrl_rl::qlearning::QLearningConfig {
            alpha: 0.1,
            gamma: 0.95,
            episodes: 10,
        };
        swiftrl_rl::qlearning::train_offline_into(
            &mut host,
            d.transitions(),
            &qcfg,
            SamplingStrategy::Sequential,
            dpu_seed(cfg.seed, 0),
        );
        assert_eq!(out.q_table, host, "1-DPU PIM run must equal host training");
    }

    #[test]
    fn more_dpus_cut_kernel_time() {
        let d = dataset();
        let t = |dpus| {
            PimRunner::new(WorkloadSpec::q_learning_seq_int32(), quick_cfg(dpus))
                .unwrap()
                .run(&d)
                .unwrap()
                .breakdown
                .pim_kernel_s
        };
        let t4 = t(4);
        let t16 = t(16);
        assert!(
            t16 < t4 / 2.0,
            "strong scaling failed: 4 DPUs {t4}s vs 16 DPUs {t16}s"
        );
    }

    #[test]
    fn int32_outcome_close_to_fp32_outcome() {
        let d = dataset();
        let fp = PimRunner::new(WorkloadSpec::q_learning_seq_fp32(), quick_cfg(4))
            .unwrap()
            .run(&d)
            .unwrap();
        let ix = PimRunner::new(WorkloadSpec::q_learning_seq_int32(), quick_cfg(4))
            .unwrap()
            .run(&d)
            .unwrap();
        let diff = fp.q_table.max_abs_diff(&ix.q_table);
        assert!(diff < 0.05, "INT32 drifted {diff} from FP32");
    }

    #[test]
    fn construction_checks_the_dpu_count_without_a_platform() {
        let spec = WorkloadSpec::q_learning_seq_int32();
        let platform = PimConfig::builder().dpus(8).build();
        let build = |dpus| {
            PimRunner::with_platform(spec, quick_cfg(dpus), platform.clone()).map(|_| ())
        };
        assert_eq!(
            build(0),
            Err(PimError::BadArgument("cannot allocate 0 DPUs".into()))
        );
        assert_eq!(
            build(9),
            Err(PimError::Alloc {
                requested: 9,
                available: 8
            })
        );
        assert_eq!(build(8), Ok(()));
    }

    #[test]
    fn all_twelve_variants_run() {
        let d = dataset();
        for spec in WorkloadSpec::paper_variants() {
            let out = PimRunner::new(spec, quick_cfg(2).with_episodes(4).with_tau(2))
                .unwrap()
                .run(&d)
                .unwrap_or_else(|e| panic!("{spec} failed: {e}"));
            assert!(out.breakdown.total_seconds() > 0.0, "{spec}");
        }
    }
}
