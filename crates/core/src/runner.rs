//! The SwiftRL execution driver (the paper's Figure 4).
//!
//! [`PimRunner`] allocates a fresh DPU set per run and drives the four
//! phases: load (CPU→PIM), kernel rounds, τ-periodic inter-PIM-core
//! synchronization through the host, and final retrieval (PIM→CPU) +
//! aggregation. It reports the trained Q-table and a
//! [`TimeBreakdown`] with the same four categories as Figures 5–6.
//!
//! Every sync round is one engine pass, [`DpuSet::sync_round`]: each DPU
//! of the round receives its deliveries, runs its sweep and has its
//! Q-table folded while the table is still in cache. The one round loop
//! around it carries the resilience policy: it relaunches faulted DPUs,
//! degrades onto survivors and rolls back to checkpoints. It produces
//! the bits, events and accounting of the equivalent stepwise
//! [`DpuSet`] calls (`tests/sync_round.rs`).
//!
//! A fault-free INT32 round folds sparsely. Every DPU of such a round
//! starts from the same Q-table image B (zeros or the initial table at
//! round 0, the broadcast average later), and every kernel tier writes
//! only `Q(s, a)` of the DPU's own records. So the round's sum is N·B
//! plus each DPU's `q − B` over the distinct entries its records name,
//! and since integer sums do not depend on order, that is the dense
//! sum bit for bit. FP32 sums depend on order, so FP32 stays dense; so
//! does any run with a fault plan, where a corrupted or dropped
//! delivery or an MRAM bit flip can change entries no record names, and
//! any round after a degrade, whose survivors hold remapped records.
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
use crate::service::CancelToken;
use std::ops::Range;
#[expect(clippy::disallowed_types, reason = "host wall time; never a simulated observable")]
use std::time::Instant;
use swiftrl_baselines::specs::MachineSpec;
use swiftrl_env::{ExperienceDataset, Transition};
use swiftrl_pim::config::PimConfig;
use swiftrl_pim::host::{check_alloc, Delivery, DpuSet, PimError, PimSystem};
use swiftrl_pim::report::SanitizerReport;
use swiftrl_pim::stats::SystemStats;
use swiftrl_rl::qtable::{FixedQTable, FixedQTableSum, QTable, QTableSum, QTableSumRange};
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
    /// Host wall-clock seconds this process spent in the rounds' per-DPU
    /// passes — deliveries, kernel and fold, including relaunches of
    /// faulted DPUs and the FP32 range fold — the simulator's own
    /// compute cost, not a modelled quantity. Machine- and
    /// tier-dependent; excluded from every determinism comparison.
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
    /// `set` must be fresh, as [`PimSystem::alloc`] returns it: round 0
    /// relies on fresh MRAM reading as zero, both for a zero initial
    /// Q-table, which is not transferred, and for the fault-free INT32
    /// fold, which adds only the entries each DPU's records can write.
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
        cancel: Option<&CancelToken>,
    ) -> Result<RunOutcome, PimError> {
        let rounds = self.cfg.comm_rounds()?;
        let ndpus = set.ndpus();
        if ndpus != self.cfg.dpus {
            return Err(PimError::BadArgument(format!(
                "run_on expects a set of {} DPUs, got {ndpus}",
                self.cfg.dpus
            )));
        }
        let mut tally = RunTally::default();

        // ---- Phase 1: CPU→PIM program + dataset + header + Q-table load ----
        // The round loop delivers the staging.
        set.reset_stats();
        set.load_program();
        let stage = self.stage(dataset, ndpus);
        let q_bytes = stage.q_bytes();

        // ---- Phase 2+3: kernel rounds with τ-periodic synchronization ----
        let kernel = SwiftRlKernel::with_tasklets(self.spec, self.cfg.tasklets);
        let (sum, live) = self.rounds(set, dataset, cancel, &stage, &kernel, &mut tally)?;
        let RunTally {
            mut breakdown,
            mut res,
            host_kernel_s,
        } = tally;

        // ---- Phase 4: final aggregation on the host ----
        let q_table = sum.mean_table();
        let final_agg_s = self.aggregate_seconds(live, q_bytes);
        breakdown.pim_cpu_s += final_agg_s;
        self.platform.telemetry.emit(|| Event::HostAggregate {
            tables: live,
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

    /// Phase 1's host-side staging: every DPU's kernel header and
    /// encoded replay chunk, and the initial Q-table image when it is
    /// not all zeros.
    fn stage(&self, dataset: &ExperienceDataset, ndpus: usize) -> Staging {
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
        let header_parts = headers.iter().map(|h| h.to_bytes()).collect();

        // Zero-initialized Q-tables need no transfer (fresh MRAM reads as
        // zero); an arbitrary initial value is broadcast to every DPU.
        let (ns, na) = (dataset.num_states(), dataset.num_actions());
        let scale = self.cfg.scale();
        let initial_q = (self.cfg.initial_q != 0.0).then(|| match self.spec.dtype {
            DataType::Fp32 => QTable::filled(ns, na, self.cfg.initial_q).to_bytes(),
            DataType::Int32 => {
                FixedQTable::filled(ns, na, scale, scale.to_fixed(self.cfg.initial_q)).to_bytes()
            }
        });
        let chunk_parts = ranges
            .iter()
            .map(|r| encode_chunk(self.spec, &self.cfg, dataset, r.clone()))
            .collect();
        Staging {
            ns,
            na,
            trans_offset: headers[0].transitions_offset(),
            ranges,
            header_parts,
            initial_q,
            chunk_parts,
        }
    }

    /// Phases 1–3 as one [`DpuSet::sync_round`] per round over the DPUs
    /// still alive: round 0 delivers the staging, a later round the
    /// previous round's average (nothing after a rollback, which
    /// delivered its snapshot itself). Round `r − 1` is closed
    /// (breakdown deltas, `SyncRound` event) and round `r`'s
    /// cancellation checked once round `r`'s deliveries are recorded.
    /// Faulted DPUs are relaunched up to the retry budget; DPUs that
    /// still fault are dropped, their chunks remapped onto the
    /// survivors, and the run rolls back to `checkpoint`, the latest
    /// host-side Q-table snapshot. Returns the last round's sum and the
    /// number of DPUs still alive.
    fn rounds(
        &self,
        set: &mut DpuSet,
        dataset: &ExperienceDataset,
        cancel: Option<&CancelToken>,
        stage: &Staging,
        kernel: &SwiftRlKernel,
        tally: &mut RunTally,
    ) -> Result<(RoundSums, usize), PimError> {
        let rounds = self.cfg.comm_rounds()?;
        let ndpus = set.ndpus();
        let q_bytes = stage.q_bytes();
        let q_range = Q_TABLE_OFFSET..Q_TABLE_OFFSET + q_bytes;
        let workers = set.config().engine.workers_for(ndpus);
        // An FP32 sum depends on the order of its tables, so only one
        // worker folds it inside the pass.
        let fold_in_pass = self.spec.dtype == DataType::Int32 || workers == 1;
        let mut sums = match self.spec.dtype {
            DataType::Fp32 => RoundSums::Fp32(
                (0..workers)
                    .map(|_| QTableSum::new(stage.ns, stage.na))
                    .collect(),
            ),
            DataType::Int32 => RoundSums::Int32(
                (0..workers)
                    .map(|_| FixedQTableSum::new(stage.ns, stage.na, self.cfg.scale()))
                    .collect(),
            ),
        };
        let staging = stage.deliveries();
        let mut alive: Vec<usize> = (0..ndpus).collect();
        // Each DPU's dataset ranges and record count, built on the first
        // degrade: a run that never degrades never reads them.
        let mut remap = None;
        // Before `checkpoint_every` first fires (or when it is 0), the
        // snapshot is the *initial* Q-table at round 0, so a degradation
        // in the first window rolls survivors back to a from-scratch
        // replay instead of keeping the partially-updated tables the dead
        // DPU contributed to. The implicit round-0 snapshot is not counted
        // in `ResilienceStats::checkpoints`/`checkpoint_bytes` (those
        // count explicit periodic checkpoints only).
        let initial_q = stage.initial_q.clone().unwrap_or_else(|| vec![0u8; q_bytes]);
        let mut checkpoint: (u32, Vec<u8>) = (0, initial_q);
        // A fault-free INT32 round folds only the entries each DPU's
        // records can write (`RoundSums::Int32`), until a degrade remaps
        // records onto the survivors.
        let mut written = (self.spec.dtype == DataType::Int32 && set.config().faults.is_none())
            .then(|| WriteSets::new(dataset, &stage.ranges, stage.ns, stage.na));
        let mut avg: Option<Vec<u8>> = None;
        let mut staged = false;
        // The round in flight and its opening clocks, until it is closed.
        let mut open: Option<(u32, RoundStart)> = None;
        let mut round: u32 = 0;
        while round < rounds {
            let live = alive.len();
            let subset = (live < ndpus).then_some(alive.as_slice());
            let broadcast;
            let deliveries: &[Delivery<'_>] = match &avg {
                _ if !staged => &staging,
                Some(avg) => {
                    broadcast = [Delivery::Broadcast {
                        offset: Q_TABLE_OFFSET,
                        data: avg,
                    }];
                    &broadcast
                }
                None => &[],
            };
            // The Q-table every DPU of the round starts from: the initial
            // table, the previous round's average, or the rollback's
            // snapshot.
            let base: &[u8] = avg.as_deref().unwrap_or(&checkpoint.1);
            sums.clear();
            let mut started = None;
            let on_delivered = |stats: &SystemStats| {
                if let Some((previous, start)) = open.take() {
                    start.close(stats, false, &mut tally.breakdown);
                    self.platform.telemetry.emit(|| Event::SyncRound {
                        round: previous,
                        live_dpus: live,
                    });
                } else if !staged {
                    tally.breakdown.cpu_pim_s = stats.cpu_to_pim_seconds;
                    tally.breakdown.program_load_s = stats.program_load_seconds;
                }
                staged = true;
                if cancel.is_some_and(|token| token.stops_at(round)) {
                    return false;
                }
                open = Some((round, RoundStart::at(stats)));
                #[expect(
                    clippy::disallowed_types,
                    reason = "host wall time; never a simulated observable"
                )]
                let now = Instant::now();
                started = Some(now);
                true
            };
            let launched = match &mut sums {
                RoundSums::Int32(parts) => set.sync_round(
                    deliveries,
                    kernel,
                    subset,
                    q_range.clone(),
                    on_delivered,
                    parts,
                    |sum, dpu, table| match &written {
                        Some(written) => sum.add_written(table, base, written.of(dpu)),
                        None => sum.add_bytes(table),
                    },
                ),
                RoundSums::Fp32(parts) => set.sync_round(
                    deliveries,
                    kernel,
                    subset,
                    q_range.clone(),
                    on_delivered,
                    parts,
                    |sum, _, table| {
                        if fold_in_pass {
                            sum.add_bytes(table);
                        }
                    },
                ),
            };
            // The DPUs the pass faulted on, and those that still fault
            // after every retry.
            let (faulted, dead) = match launched {
                Ok(true) => (Vec::new(), Vec::new()),
                Ok(false) => return Err(PimError::Cancelled),
                Err(e @ PimError::Kernel { .. }) => {
                    let faulted = set.last_launch().faulted_dpus.clone();
                    let dead = self.retry(set, kernel, &faulted, live, e, &mut tally.res)?;
                    (faulted, dead)
                }
                Err(e) => return Err(e),
            };
            if dead.is_empty() {
                let base = written.is_some().then_some(base);
                sums.gather(set, subset, q_bytes, &faulted, fold_in_pass, base)?;
            }
            if let Some(started) = started {
                tally.host_kernel_s += started.elapsed().as_secs_f64();
            }
            if !dead.is_empty() {
                let (assignments, counts) = remap.get_or_insert_with(|| {
                    let assignments: Vec<Vec<Range<usize>>> =
                        stage.ranges.iter().map(|r| vec![r.clone()]).collect();
                    let counts: Vec<usize> = stage.ranges.iter().map(|r| r.len()).collect();
                    (assignments, counts)
                });
                let rollback = self.degrade(
                    set,
                    dataset,
                    &mut alive,
                    assignments,
                    counts,
                    &dead,
                    &checkpoint,
                    stage.trans_offset,
                    &mut tally.res,
                )?;
                written = None;
                // The rolled-back round ends here, its repair traffic
                // charged to synchronization, and emits no `SyncRound`.
                if let Some((_, start)) = open.take() {
                    start.close(set.stats(), false, &mut tally.breakdown);
                }
                avg = None;
                round = rollback;
                continue;
            }
            if round + 1 < rounds {
                // The host-side average, broadcast by the next round.
                let next = sums.mean_bytes();
                let seconds = self.aggregate_seconds(live, q_bytes);
                tally.breakdown.inter_pim_s += seconds;
                self.platform.telemetry.emit(|| Event::HostAggregate {
                    tables: live,
                    bytes: q_bytes as u64,
                    seconds,
                });
                let every = self.resilience.checkpoint_every;
                if every > 0 && (round + 1).is_multiple_of(every) {
                    tally.res.checkpoints += 1;
                    tally.res.checkpoint_bytes += next.len() as u64;
                    checkpoint = (round + 1, next.clone());
                }
                avg = Some(next);
            }
            round += 1;
        }
        if let Some((last, start)) = open {
            start.close(set.stats(), true, &mut tally.breakdown);
            self.platform.telemetry.emit(|| Event::SyncRound {
                round: last,
                live_dpus: alive.len(),
            });
        }
        Ok((sums, alive.len()))
    }

    /// Relaunches the DPUs a round's pass `faulted` on, up to the
    /// configured budget, `first` being the pass's error. Returns the
    /// DPUs still faulting after all retries (empty when a retry
    /// succeeds) — non-empty only when degrade mode may absorb them out
    /// of `live` DPUs; otherwise the last launch error propagates.
    fn retry(
        &self,
        set: &mut DpuSet,
        kernel: &SwiftRlKernel,
        faulted: &[usize],
        live: usize,
        first: PimError,
        res: &mut ResilienceStats,
    ) -> Result<Vec<usize>, PimError> {
        // Survivors of a faulted launch completed their episode window;
        // only the faulted DPUs are relaunched. An injected fault aborts
        // before any kernel work, so the faulted DPU's MRAM — episode
        // window included — is untouched and the relaunch replays it.
        let mut pending = faulted.to_vec();
        let mut last_err = first;
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
        if self.resilience.degrade && pending.len() < live {
            Ok(pending)
        } else {
            Err(last_err)
        }
    }

    /// Drops `dead` from the run and remaps their dataset chunks onto
    /// the survivors (appended behind each survivor's own records, with
    /// a header patch for the new transition count). The survivors are
    /// rolled back to `checkpoint` — Q-table snapshot re-broadcast,
    /// episode windows re-armed — and the checkpointed round index is
    /// returned so the caller replays from there. Before the first
    /// periodic checkpoint fires (or with `checkpoint_every` 0) the
    /// snapshot is the initial round-0 Q-table, so the replay is a
    /// from-scratch run on the survivors.
    #[allow(clippy::too_many_arguments)]
    fn degrade(
        &self,
        set: &mut DpuSet,
        dataset: &ExperienceDataset,
        alive: &mut Vec<usize>,
        assignments: &mut [Vec<Range<usize>>],
        counts: &mut [usize],
        dead: &[usize],
        checkpoint: &(u32, Vec<u8>),
        trans_offset: usize,
        res: &mut ResilienceStats,
    ) -> Result<u32, PimError> {
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

        // Roll back to the checkpoint: survivors get the snapshot Q-table
        // and replay from that round, so no episodes on the orphaned data
        // are lost since the checkpoint.
        let (ck_round, snapshot) = checkpoint;
        set.broadcast_subset(Q_TABLE_OFFSET, snapshot, alive)?;
        res.rollbacks += 1;
        self.platform.telemetry.emit(|| Event::Rollback {
            to_round: *ck_round,
        });

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
            // Read-modify-write the header: new transition count, episode
            // window re-armed at the checkpoint.
            let raw = set.copy_from(dpu, 0, HEADER_BYTES)?;
            let mut header =
                KernelHeader::from_bytes(&raw).map_err(|e| PimError::BadArgument(e.to_string()))?;
            header.n_transitions = counts[dpu] as u32;
            header.episode_base = ck_round * self.cfg.tau;
            set.copy_to(dpu, 0, &header.to_bytes())?;
        }
        Ok(*ck_round)
    }

    /// Modelled host time to average `n` Q-tables of `q_bytes` each.
    fn aggregate_seconds(&self, n: usize, q_bytes: usize) -> f64 {
        ((n + 1) * q_bytes) as f64 / host_aggregate_bw()
    }
}

/// Phase 1's staging.
struct Staging {
    /// Q-table shape.
    ns: usize,
    na: usize,
    /// Each DPU's dataset range.
    ranges: Vec<Range<usize>>,
    header_parts: Vec<Vec<u8>>,
    /// The initial Q-table image, when it is not all zeros.
    initial_q: Option<Vec<u8>>,
    chunk_parts: Vec<Vec<u8>>,
    /// MRAM offset of the replay chunks.
    trans_offset: usize,
}

impl Staging {
    /// Bytes of one Q-table.
    fn q_bytes(&self) -> usize {
        self.ns * self.na * 4
    }

    /// The staging transfers in order: headers, the initial Q-table if
    /// any, replay chunks.
    fn deliveries(&self) -> Vec<Delivery<'_>> {
        let mut out = vec![Delivery::Scatter {
            offset: 0,
            parts: &self.header_parts,
        }];
        if let Some(init) = &self.initial_q {
            out.push(Delivery::Broadcast {
                offset: Q_TABLE_OFFSET,
                data: init,
            });
        }
        out.push(Delivery::Scatter {
            offset: self.trans_offset,
            parts: &self.chunk_parts,
        });
        out
    }
}

/// Each DPU's Q-table entries its own records can write, for the
/// fault-free INT32 fold: the kernel writes only `Q(s, a)` of the
/// records it holds, so a DPU's table differs from the round's base at
/// most there. One flat buffer for the whole set.
struct WriteSets {
    /// DPU `d`'s entries are `entries[starts[d]..starts[d + 1]]`.
    starts: Vec<usize>,
    /// Each DPU's sorted, distinct `s · num_actions + a`.
    entries: Vec<u32>,
}

impl WriteSets {
    /// The write sets of the DPUs holding `ranges` of `dataset` on an
    /// `ns × na` table. A record outside the table faults its launch
    /// before any fold, so its entry is left out.
    fn new(dataset: &ExperienceDataset, ranges: &[Range<usize>], ns: usize, na: usize) -> Self {
        let mut starts = Vec::with_capacity(ranges.len() + 1);
        let mut entries = Vec::with_capacity(dataset.len());
        let mut own = Vec::new();
        starts.push(0);
        for range in ranges {
            own.clear();
            own.extend(
                dataset.transitions()[range.clone()]
                    .iter()
                    .filter(|t| t.state.index() < ns && t.action.index() < na)
                    .map(|t| (t.state.index() * na + t.action.index()) as u32),
            );
            own.sort_unstable();
            own.dedup();
            entries.extend_from_slice(&own);
            starts.push(entries.len());
        }
        Self { starts, entries }
    }

    /// DPU `dpu`'s entries.
    fn of(&self, dpu: usize) -> &[u32] {
        &self.entries[self.starts[dpu]..self.starts[dpu + 1]]
    }
}

/// What a run accumulates besides its Q-table.
#[derive(Default)]
struct RunTally {
    breakdown: TimeBreakdown,
    res: ResilienceStats,
    host_kernel_s: f64,
}

/// The simulated clocks at the start of a sync round.
struct RoundStart {
    kernel: f64,
    cpu_to_pim: f64,
    pim_to_cpu: f64,
}

impl RoundStart {
    fn at(stats: &SystemStats) -> Self {
        Self {
            kernel: stats.kernel_seconds,
            cpu_to_pim: stats.cpu_to_pim_seconds,
            pim_to_cpu: stats.pim_to_cpu_seconds,
        }
    }

    /// Charges the round's kernel and transfer time up to `stats`.
    fn close(&self, stats: &SystemStats, is_last: bool, breakdown: &mut TimeBreakdown) {
        breakdown.pim_kernel_s += stats.kernel_seconds - self.kernel;
        let sync_cpu = stats.cpu_to_pim_seconds - self.cpu_to_pim;
        let sync_pim = stats.pim_to_cpu_seconds - self.pim_to_cpu;
        if is_last {
            // The final gather is the PIM→CPU retrieval phase.
            breakdown.pim_cpu_s += sync_pim;
            breakdown.inter_pim_s += sync_cpu;
        } else {
            // Repair traffic (rollback broadcast, chunk remapping)
            // rides the same host-mediated path as synchronization.
            breakdown.inter_pim_s += sync_cpu + sync_pim;
        }
    }
}

/// One sync round's Q-table sum, in the run's data type, as one part
/// per engine worker. The whole sum ends up in the first part.
enum RoundSums {
    /// A DPU-order sum. The pass folds into it only on one worker;
    /// otherwise it is rebuilt by a range pass, and the other parts stay
    /// empty.
    Fp32(Vec<QTableSum>),
    /// Exact sums: each worker folds the DPUs it ran, and the parts add
    /// up in any order. A fault-free round folds each DPU as its
    /// [`WriteSets`] entries' differences from the round's base
    /// ([`FixedQTableSum::add_written`]) and adds the base once per
    /// folded DPU at the gather; any other round folds whole tables.
    Int32(Vec<FixedQTableSum>),
}

impl RoundSums {
    /// Completes the round's sum and records its one `Gather` from the
    /// DPUs of `subset` (`None` = all). The pass folded every DPU but the
    /// `faulted` ones, since relaunched: INT32 adds `base` once per DPU
    /// the pass folded when the pass added written entries only
    /// (`base` is `Some`), then the relaunched DPUs' whole tables; an
    /// FP32 sum that one worker could not fold in DPU order is rebuilt
    /// over element ranges by the engine.
    fn gather(
        &mut self,
        set: &mut DpuSet,
        subset: Option<&[usize]>,
        q_bytes: usize,
        faulted: &[usize],
        fold_in_pass: bool,
        base: Option<&[u8]>,
    ) -> Result<(), PimError> {
        match self {
            RoundSums::Int32(parts) => {
                let (total, rest) = parts.split_at_mut(1);
                let total = &mut total[0];
                rest.iter().for_each(|part| total.merge(part));
                if let Some(base) = base {
                    total.add_base(base, total.tables());
                }
                set.gather_folded(Q_TABLE_OFFSET, q_bytes, subset, faulted, |table| {
                    total.add_bytes(table)
                })
            }
            RoundSums::Fp32(_) if fold_in_pass && faulted.is_empty() => {
                set.gather_folded(Q_TABLE_OFFSET, q_bytes, subset, &[], |_| {})
            }
            RoundSums::Fp32(parts) => {
                let total = &mut parts[0];
                total.clear();
                let live = subset.map_or(set.ndpus(), <[usize]>::len);
                // One range per worker, of at least 4 KiB: a small table
                // is folded inline.
                let parts = set.config().engine.workers_for(live).min(q_bytes.div_ceil(4096));
                let mut pieces: Vec<_> = total
                    .ranges_mut(live, parts)
                    .into_iter()
                    .map(|range| (range.bytes(), range))
                    .collect();
                let fold = QTableSumRange::add_bytes;
                set.gather_ranges(Q_TABLE_OFFSET, q_bytes, subset, &mut pieces, fold)
            }
        }
    }

    fn clear(&mut self) {
        match self {
            Self::Fp32(parts) => parts.iter_mut().for_each(QTableSum::clear),
            Self::Int32(parts) => parts.iter_mut().for_each(FixedQTableSum::clear),
        }
    }

    /// The average in its MRAM layout, ready to broadcast.
    fn mean_bytes(&self) -> Vec<u8> {
        match self {
            Self::Fp32(parts) => parts[0].mean().to_bytes(),
            Self::Int32(parts) => parts[0].mean().to_bytes(),
        }
    }

    /// The average as the run's result, descaled to FP32 for INT32 runs.
    fn mean_table(&self) -> QTable {
        match self {
            Self::Fp32(parts) => parts[0].mean(),
            Self::Int32(parts) => parts[0].mean().to_float(),
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
