//! Static description of the simulated PIM platform.
//!
//! The default values describe the UPMEM server used by the SwiftRL paper
//! (Table 1): 2,524 DPUs at 425 MHz, 64-MB MRAM banks, 64-KB WRAM, 24-KB
//! IRAM, 24 hardware threads (tasklets) per DPU. Cost-model constants are
//! calibrated to the PrIM characterization of the same hardware
//! (Gómez-Luna et al., IEEE Access 2022), which SwiftRL cites for all of
//! its per-instruction cost claims.

/// WRAM scratchpad capacity per DPU in bytes (64 KB on UPMEM). One source
/// of truth for [`PimConfig::default`] and for the analyzer's K009 static
/// WRAM-budget proof.
pub const WRAM_CAPACITY_BYTES: usize = 64 * 1024;

/// MRAM bank capacity per DPU in bytes (64 MB on UPMEM); the budget of the
/// analyzer's K010 MRAM-region proof.
pub const MRAM_BANK_CAPACITY_BYTES: usize = 64 * 1024 * 1024;

/// Geometry and clocking of the simulated PIM platform.
///
/// Construct with [`PimConfig::default`] for the paper's server, or use
/// [`PimConfig::builder`] to customize.
///
/// ```rust
/// use swiftrl_pim::config::PimConfig;
///
/// let cfg = PimConfig::builder().dpus(2000).frequency_mhz(425).build();
/// assert_eq!(cfg.dpus, 2000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PimConfig {
    /// Total number of DPUs (PIM cores) available in the system.
    pub dpus: usize,
    /// DPU clock frequency in MHz.
    pub frequency_mhz: u64,
    /// MRAM bank capacity per DPU in bytes (64 MB on UPMEM).
    pub mram_bytes: usize,
    /// WRAM scratchpad capacity per DPU in bytes (64 KB on UPMEM).
    pub wram_bytes: usize,
    /// Instruction memory per DPU in bytes (24 KB on UPMEM). Only used for
    /// reporting; kernels in this simulator are host closures.
    pub iram_bytes: usize,
    /// Hardware threads (tasklets) per DPU.
    pub tasklets_per_dpu: usize,
    /// DPUs per memory rank; determines how many ranks a DPU set spans,
    /// which drives the CPU↔PIM transfer bandwidth model.
    pub dpus_per_rank: usize,
    /// Cycle-cost constants for the DPU and DMA models.
    pub cost: CostModel,
    /// CPU↔PIM transfer model constants.
    pub transfer: TransferModel,
    /// Runtime sanitizer level applied to every launch (default: off).
    pub sanitize: crate::sanitize::SanitizeLevel,
    /// Execution engine used to schedule DPU execution on the host
    /// (default: threaded over the host's available parallelism). Every
    /// engine produces bit-identical simulated results; only wall-clock
    /// differs. See [`crate::engine::ExecutionEngine`].
    pub engine: crate::engine::ExecutionEngine,
    /// Deterministic fault-injection plan (default: no faults). A seeded
    /// plan injects identical faults under every execution engine. See
    /// [`crate::faults::FaultPlan`].
    pub faults: crate::faults::FaultPlan,
    /// Telemetry sink recording the typed event stream of every run on
    /// this platform (default: disabled — a true zero on the hot path).
    /// Clones of the config share the sink, so the handle the caller
    /// keeps observes everything a `DpuSet` built from this config does.
    pub telemetry: swiftrl_telemetry::Telemetry,
}

impl Default for PimConfig {
    fn default() -> Self {
        Self {
            dpus: 2524,
            frequency_mhz: 425,
            mram_bytes: MRAM_BANK_CAPACITY_BYTES,
            wram_bytes: WRAM_CAPACITY_BYTES,
            iram_bytes: 24 * 1024,
            tasklets_per_dpu: 24,
            dpus_per_rank: 64,
            cost: CostModel::default(),
            transfer: TransferModel::default(),
            sanitize: crate::sanitize::SanitizeLevel::Off,
            engine: crate::engine::ExecutionEngine::default(),
            faults: crate::faults::FaultPlan::none(),
            telemetry: swiftrl_telemetry::Telemetry::disabled(),
        }
    }
}

impl PimConfig {
    /// Starts building a configuration from the paper's defaults.
    pub fn builder() -> PimConfigBuilder {
        PimConfigBuilder {
            inner: PimConfig::default(),
        }
    }

    /// DPU clock frequency in Hz.
    pub fn frequency_hz(&self) -> f64 {
        self.frequency_mhz as f64 * 1.0e6
    }

    /// Number of memory ranks spanned by `dpus` DPUs.
    ///
    /// UPMEM DIMMs hold two ranks of 8 chips × 8 DPUs = 64 DPUs per rank;
    /// transfers to distinct ranks proceed in parallel.
    pub fn ranks_for(&self, dpus: usize) -> usize {
        dpus.div_ceil(self.dpus_per_rank).max(1)
    }

    /// The rank that DPU `dpu` lives on: DPUs are laid out densely, 64
    /// per rank (the paper's server), so rank membership is just
    /// `dpu / dpus_per_rank`.
    pub fn rank_of(&self, dpu: usize) -> usize {
        dpu / self.dpus_per_rank.max(1)
    }

    /// Number of *distinct* ranks addressed by a strictly increasing DPU
    /// index list — the rank parallelism a transfer to exactly those
    /// DPUs enjoys. For a dense prefix `0..n` this equals
    /// [`ranks_for`](Self::ranks_for)`(n)`; a sparse subset spread
    /// across the machine touches more ranks than its size suggests.
    pub fn ranks_spanned(&self, indices: &[usize]) -> usize {
        let mut ranks = 0usize;
        let mut prev = None;
        for &dpu in indices {
            let rank = self.rank_of(dpu);
            if prev != Some(rank) {
                ranks += 1;
                prev = Some(rank);
            }
        }
        ranks.max(1)
    }

    /// Converts a DPU cycle count to seconds at this clock.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / self.frequency_hz()
    }
}

/// Builder for [`PimConfig`].
#[derive(Debug, Clone)]
pub struct PimConfigBuilder {
    inner: PimConfig,
}

impl PimConfigBuilder {
    /// Sets the total number of DPUs.
    pub fn dpus(mut self, dpus: usize) -> Self {
        self.inner.dpus = dpus;
        self
    }

    /// Sets the DPU clock frequency in MHz.
    pub fn frequency_mhz(mut self, mhz: u64) -> Self {
        self.inner.frequency_mhz = mhz;
        self
    }

    /// Sets the MRAM capacity per DPU in bytes.
    pub fn mram_bytes(mut self, bytes: usize) -> Self {
        self.inner.mram_bytes = bytes;
        self
    }

    /// Sets the WRAM capacity per DPU in bytes.
    pub fn wram_bytes(mut self, bytes: usize) -> Self {
        self.inner.wram_bytes = bytes;
        self
    }

    /// Sets the number of tasklets per DPU.
    pub fn tasklets_per_dpu(mut self, tasklets: usize) -> Self {
        self.inner.tasklets_per_dpu = tasklets;
        self
    }

    /// Sets the number of DPUs per memory rank (64 on the paper's
    /// server). Drives both the bandwidth model and the rank-grouped
    /// transfer iteration of [`crate::host::DpuSet`].
    pub fn dpus_per_rank(mut self, dpus: usize) -> Self {
        self.inner.dpus_per_rank = dpus;
        self
    }

    /// Overrides the cycle-cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.inner.cost = cost;
        self
    }

    /// Overrides the transfer model.
    pub fn transfer(mut self, transfer: TransferModel) -> Self {
        self.inner.transfer = transfer;
        self
    }

    /// Selects the execution tier (batched aggregate charging, fast
    /// per-intrinsic charging, or the instrumented reference loops). See
    /// [`ExecTier`].
    pub fn exec_tier(mut self, tier: ExecTier) -> Self {
        self.inner.cost.arith_tier = tier;
        self
    }

    /// Sets the execution engine used to schedule DPU execution.
    pub fn engine(mut self, engine: crate::engine::ExecutionEngine) -> Self {
        self.inner.engine = engine;
        self
    }

    /// Sets the runtime sanitizer level for every launch on the platform.
    pub fn sanitize(mut self, level: crate::sanitize::SanitizeLevel) -> Self {
        self.inner.sanitize = level;
        self
    }

    /// Attaches a deterministic fault-injection plan to the platform.
    pub fn faults(mut self, plan: crate::faults::FaultPlan) -> Self {
        self.inner.faults = plan;
        self
    }

    /// Attaches a telemetry sink; every `DpuSet` built from the config
    /// records its event stream into it. See [`swiftrl_telemetry`].
    pub fn telemetry(mut self, telemetry: swiftrl_telemetry::Telemetry) -> Self {
        self.inner.telemetry = telemetry;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> PimConfig {
        self.inner
    }
}

/// Cycle-cost constants of the DPU pipeline and DMA engine.
///
/// The DPU is an in-order, 14-stage, fine-grained multithreaded pipeline.
/// Instructions from the *same* tasklet must be dispatched at least
/// `issue_period` (= 11 on UPMEM) cycles apart, so a single tasklet runs at
/// 1/11 IPC and at least 11 tasklets are needed to reach the 1-IPC peak
/// (PrIM, §3.1). SwiftRL pins one tasklet per DPU, which this model
/// captures via [`CostModel::tasklet_issue_interval`].
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Minimum cycles between two instructions of the same tasklet.
    pub issue_period: u64,
    /// Fixed DMA setup latency in cycles for an MRAM↔WRAM transfer.
    pub dma_setup_cycles: u64,
    /// DMA cycles per byte transferred (MRAM↔WRAM), after setup.
    /// PrIM measures ~0.5 cycles/byte at large transfer sizes.
    pub dma_cycles_per_byte_num: u64,
    /// Denominator of the per-byte DMA cost (allows fractional rates).
    pub dma_cycles_per_byte_den: u64,
    /// Minimum DMA transfer granule in bytes (UPMEM DMA is 8-byte aligned).
    pub dma_granule_bytes: usize,
    /// Instruction-slot costs of the emulated arithmetic routines.
    pub ops: OpCosts,
    /// How emulated-arithmetic cost (integer multiply/divide and all
    /// floating point) is charged.
    pub emulation_charging: EmulationCharging,
    /// Which arithmetic tier executes the emulated operations (default:
    /// the batched tier, proven bit- and cycle-identical to the
    /// reference).
    pub arith_tier: ExecTier,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            issue_period: 11,
            dma_setup_cycles: 77,
            dma_cycles_per_byte_num: 1,
            dma_cycles_per_byte_den: 2,
            dma_granule_bytes: 8,
            ops: OpCosts::default(),
            emulation_charging: EmulationCharging::Calibrated,
            arith_tier: ExecTier::default(),
        }
    }
}

/// Which execution tier runs kernels and computes their emulated
/// arithmetic (integer multiply/divide and all floating point).
///
/// Every tier produces bit-identical results and charges identical cycles
/// in both [`EmulationCharging`] modes — the contract "a faster tier may
/// never change a bit or a cycle" is enforced differentially by
/// `tests/fastpath_parity.rs` and `tests/engine_determinism.rs`. Only host
/// wall-clock differs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ExecTier {
    /// Execute the instrumented soft-float / shift-add loops in
    /// [`crate::softfloat`] and [`crate::emul`], tallying every primitive
    /// op. The ground truth; keep for audits and the parity suite.
    Reference,
    /// Compute results with host-native arithmetic and charge cycles from
    /// the closed-form tally formulas in [`crate::fastpath`]: same bits,
    /// same cycles, a fraction of the host time. Still interprets the
    /// kernel one charged intrinsic at a time. [`ExecTier::Batched`]
    /// falls back to it for every launch it cannot fuse.
    Fast,
    /// Fuse the whole per-launch update loop into one host-native sweep
    /// per DPU (see [`crate::batch`]): kernels that opt in via
    /// [`Kernel::batch`](crate::kernel::Kernel::batch) compute all values
    /// with [`crate::fastpath`] and charge closed-form *aggregate* cycle
    /// tallies (loop-trip counts × per-intrinsic costs) instead of being
    /// interpreted per intrinsic. A launch that a fault plan touches, a
    /// sanitizing run, or a kernel without a batch implementation falls
    /// back to the per-intrinsic fast path, so resilience and sanitizer
    /// semantics are untouched. The default.
    #[default]
    Batched,
}

/// Charging policy for emulated arithmetic (integer multiply/divide and
/// floating point).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EmulationCharging {
    /// Charge the calibrated per-operation slot constants from [`OpCosts`].
    /// This matches the *measured* per-op throughput of the UPMEM runtime
    /// library (PrIM, Fig. 7) and is the default.
    Calibrated,
    /// Charge the primitive integer operations actually executed by the
    /// simulator's own soft-float routines plus
    /// [`OpCosts::fp_call_overhead_slots`] per call. Data-dependent; used
    /// by the charging-mode ablation.
    Tally,
}

/// Instruction-slot costs of emulated arithmetic, calibrated to the
/// arithmetic-throughput microbenchmarks of the PrIM characterization of
/// UPMEM hardware (Gómez-Luna et al., IEEE Access 2022, Fig. 7):
/// at a saturated pipeline (425 MIPS), measured FLOAT ADD/MUL throughput
/// implies ≈75–80 instructions per operation and 32-bit integer multiply
/// ≈6. The divide costs model what the compiler actually emits in the RL
/// kernels — division by the constant scale factor strength-reduced to a
/// magic-number multiply-high plus shifts (≈1.5× a wide multiply), not a
/// full restoring divide. Native 32-bit add/sub/logic and 8-bit multiply
/// are single-slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpCosts {
    /// Slots per emulated FP32 add/sub.
    pub fadd_slots: u64,
    /// Slots per emulated FP32 multiply.
    pub fmul_slots: u64,
    /// Slots per emulated FP32 divide.
    pub fdiv_slots: u64,
    /// Slots per emulated FP32 compare.
    pub fcmp_slots: u64,
    /// Slots per emulated int↔float conversion.
    pub fconv_slots: u64,
    /// Call/prologue/epilogue overhead added per FP routine in
    /// [`EmulationCharging::Tally`] mode.
    pub fp_call_overhead_slots: u64,
    /// Slots per emulated 32×32→32 integer multiply.
    pub mul32_slots: u64,
    /// Slots per emulated 32×32→64 integer multiply.
    pub mul64_slots: u64,
    /// Slots per emulated 32-bit integer divide.
    pub div32_slots: u64,
    /// Slots per emulated 64-bit integer divide.
    pub div64_slots: u64,
}

impl Default for OpCosts {
    fn default() -> Self {
        Self {
            fadd_slots: 78,
            fmul_slots: 73,
            fdiv_slots: 130,
            fcmp_slots: 30,
            fconv_slots: 40,
            fp_call_overhead_slots: 40,
            mul32_slots: 6,
            mul64_slots: 10,
            div32_slots: 10,
            div64_slots: 14,
        }
    }
}

impl CostModel {
    /// Dispatch interval for one tasklet when `active` tasklets run
    /// concurrently on the pipeline.
    ///
    /// The revolver scheduler issues one instruction per cycle round-robin,
    /// but a tasklet cannot re-issue within `issue_period` cycles, so the
    /// per-tasklet interval is `max(active, issue_period)`.
    pub fn tasklet_issue_interval(&self, active: usize) -> u64 {
        (active as u64).max(self.issue_period)
    }

    /// DMA cost in cycles for a transfer of `bytes` bytes.
    ///
    /// The transfer is rounded up to the DMA granule.
    // Forced inline: it is part of the kernel's per-record DMA
    // (`DpuContext::mram_to_wram`).
    #[inline(always)]
    pub fn dma_cycles(&self, bytes: usize) -> u64 {
        let granule = self.dma_granule_bytes.max(1);
        // Identical arithmetic to the div_ceil forms below, but free of
        // runtime division for the (default) power-of-two parameters —
        // this sits on the per-DMA hot path of the simulator.
        let rounded = if granule.is_power_of_two() {
            bytes.checked_add(granule - 1).map(|n| n & !(granule - 1))
        } else {
            bytes.div_ceil(granule).checked_mul(granule)
        };
        let rounded = match rounded {
            Some(r) => r,
            None => bytes.div_ceil(granule).wrapping_mul(granule),
        };
        let scaled = rounded as u64 * self.dma_cycles_per_byte_num;
        let den = self.dma_cycles_per_byte_den;
        let per_byte = if den.is_power_of_two() {
            scaled
                .checked_add(den - 1)
                .map_or_else(|| scaled.div_ceil(den), |n| n >> den.trailing_zeros())
        } else {
            scaled.div_ceil(den)
        };
        self.dma_setup_cycles + per_byte
    }
}

/// CPU↔PIM transfer bandwidth model.
///
/// Parallel CPU→DPU and DPU→CPU transfers scale with the number of ranks
/// addressed, saturating at a system-wide cap (PrIM, Fig. 9). Time for a
/// transfer of `total_bytes` spread over `ranks` ranks is
/// `latency + total_bytes / min(ranks * per_rank_gbps, cap_gbps)`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferModel {
    /// Fixed software/driver latency per transfer operation, in seconds.
    pub latency_s: f64,
    /// Sustained bandwidth per rank for parallel transfers, in GB/s.
    pub per_rank_gbps: f64,
    /// System-wide bandwidth cap for parallel transfers, in GB/s.
    pub cap_gbps: f64,
    /// Bandwidth ratio applied to broadcast (copy same buffer to all DPUs);
    /// broadcasts are faster because the source is read once.
    pub broadcast_factor: f64,
    /// Fixed host-side cost of loading a DPU program binary into the
    /// set's IRAMs (driver + allocation overhead), seconds.
    pub program_load_base_s: f64,
    /// Additional program-load cost per DPU, seconds. On UPMEM,
    /// `dpu_load` across thousands of DPUs costs on the order of a
    /// second; the paper's FrozenLake runs show the one-time setup
    /// reaching ~30% of total time for the fastest kernels (§4.3,
    /// observation 3), which this term reproduces.
    pub program_load_per_dpu_s: f64,
}

impl Default for TransferModel {
    fn default() -> Self {
        // Bandwidths are calibrated to the KB-scale per-DPU buffers the
        // SwiftRL protocol actually moves (Q-tables and dataset chunks):
        // PrIM measures aggregate parallel-transfer bandwidth well below
        // the channel peak for small per-DPU sizes, and the paper's taxi
        // runs show the τ-periodic Q-table exchange reaching ~21% of
        // total time at 2,000 DPUs, which these constants reproduce.
        Self {
            latency_s: 20.0e-6,
            per_rank_gbps: 0.045,
            cap_gbps: 1.0,
            broadcast_factor: 1.35,
            program_load_base_s: 0.05,
            program_load_per_dpu_s: 0.6e-3,
        }
    }
}

impl TransferModel {
    /// Effective bandwidth in bytes/second for a scatter/gather across
    /// `ranks` ranks.
    pub fn bandwidth_bytes_per_s(&self, ranks: usize) -> f64 {
        let gbps = (ranks as f64 * self.per_rank_gbps).min(self.cap_gbps);
        gbps * 1.0e9
    }

    /// Seconds needed to scatter or gather `total_bytes` across `ranks`.
    pub fn scatter_gather_seconds(&self, total_bytes: usize, ranks: usize) -> f64 {
        if total_bytes == 0 {
            return 0.0;
        }
        self.latency_s + total_bytes as f64 / self.bandwidth_bytes_per_s(ranks)
    }

    /// One-time cost of loading the kernel binary onto `dpus` DPUs.
    pub fn program_load_seconds(&self, dpus: usize) -> f64 {
        self.program_load_base_s + dpus as f64 * self.program_load_per_dpu_s
    }

    /// Seconds needed to broadcast `bytes` (one buffer) to every DPU in a
    /// set spanning `ranks` ranks.
    pub fn broadcast_seconds(&self, bytes: usize, dpus: usize, ranks: usize) -> f64 {
        if bytes == 0 || dpus == 0 {
            return 0.0;
        }
        let total = bytes * dpus;
        self.latency_s
            + total as f64 / (self.bandwidth_bytes_per_s(ranks) * self.broadcast_factor)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_table1() {
        let cfg = PimConfig::default();
        assert_eq!(cfg.dpus, 2524);
        assert_eq!(cfg.frequency_mhz, 425);
        assert_eq!(cfg.mram_bytes, 64 << 20);
        assert_eq!(cfg.wram_bytes, 64 << 10);
        assert_eq!(cfg.tasklets_per_dpu, 24);
    }

    #[test]
    fn builder_overrides_fields() {
        let cfg = PimConfig::builder()
            .dpus(125)
            .frequency_mhz(400)
            .wram_bytes(32 << 10)
            .build();
        assert_eq!(cfg.dpus, 125);
        assert_eq!(cfg.frequency_mhz, 400);
        assert_eq!(cfg.wram_bytes, 32 << 10);
        // Untouched fields keep defaults.
        assert_eq!(cfg.mram_bytes, 64 << 20);
    }

    #[test]
    fn ranks_round_up() {
        let cfg = PimConfig::default();
        assert_eq!(cfg.ranks_for(1), 1);
        assert_eq!(cfg.ranks_for(64), 1);
        assert_eq!(cfg.ranks_for(65), 2);
        assert_eq!(cfg.ranks_for(2000), 32);
    }

    #[test]
    fn rank_membership_is_dense_64_per_rank() {
        let cfg = PimConfig::default();
        assert_eq!(cfg.rank_of(0), 0);
        assert_eq!(cfg.rank_of(63), 0);
        assert_eq!(cfg.rank_of(64), 1);
        assert_eq!(cfg.rank_of(2523), 39);
        let custom = PimConfig::builder().dpus_per_rank(8).build();
        assert_eq!(custom.rank_of(15), 1);
        assert_eq!(custom.ranks_for(16), 2);
    }

    #[test]
    fn ranks_spanned_counts_distinct_ranks() {
        let cfg = PimConfig::default();
        // A dense prefix matches ranks_for.
        let dense: Vec<usize> = (0..130).collect();
        assert_eq!(cfg.ranks_spanned(&dense), cfg.ranks_for(130));
        // Two DPUs on the same rank span one rank; a sparse pair that
        // straddles a rank boundary spans two.
        assert_eq!(cfg.ranks_spanned(&[0, 63]), 1);
        assert_eq!(cfg.ranks_spanned(&[0, 64]), 2);
        // Four DPUs scattered over four ranks span four ranks even
        // though ranks_for(4) == 1.
        assert_eq!(cfg.ranks_spanned(&[0, 70, 140, 210]), 4);
        assert_eq!(cfg.ranks_for(4), 1);
    }

    #[test]
    fn single_tasklet_issues_every_11_cycles() {
        let cost = CostModel::default();
        assert_eq!(cost.tasklet_issue_interval(1), 11);
        assert_eq!(cost.tasklet_issue_interval(11), 11);
        assert_eq!(cost.tasklet_issue_interval(16), 16);
    }

    #[test]
    fn dma_cost_rounds_to_granule() {
        let cost = CostModel::default();
        // 1 byte rounds to 8 bytes: 77 + ceil(8/2) = 81.
        assert_eq!(cost.dma_cycles(1), 81);
        assert_eq!(cost.dma_cycles(8), 81);
        assert_eq!(cost.dma_cycles(16), 85);
        // Zero-byte transfers still pay setup (degenerate but defined).
        assert_eq!(cost.dma_cycles(0), 77);
    }

    #[test]
    fn transfer_bandwidth_saturates() {
        let t = TransferModel::default();
        let one = t.bandwidth_bytes_per_s(1);
        let many = t.bandwidth_bytes_per_s(1000);
        assert!(one < many);
        assert!((many - t.cap_gbps * 1.0e9).abs() < 1.0);
    }

    #[test]
    fn transfer_seconds_monotonic_in_bytes() {
        let t = TransferModel::default();
        let a = t.scatter_gather_seconds(1 << 20, 4);
        let b = t.scatter_gather_seconds(2 << 20, 4);
        assert!(b > a);
        assert_eq!(t.scatter_gather_seconds(0, 4), 0.0);
    }

    #[test]
    fn cycles_to_seconds_uses_clock() {
        let cfg = PimConfig::builder().frequency_mhz(425).build();
        let s = cfg.cycles_to_seconds(425_000_000);
        assert!((s - 1.0).abs() < 1e-12);
    }
}
