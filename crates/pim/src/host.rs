//! Host-side interface: DPU allocation, data transfers, kernel launches.
//!
//! Mirrors the structure of the UPMEM host API (`dpu_alloc`,
//! `dpu_copy_to`, parallel `dpu_push_xfer` scatter/gather,
//! `dpu_launch`): the host can touch MRAM between launches, kernels run
//! to completion, and all timing is accumulated in [`SystemStats`].
//!
//! Launches are tier-oblivious: whether a DPU interpreted its kernel
//! per-intrinsic or took the fused batched sweep (DESIGN.md §14), the
//! per-DPU cycle counters merged into [`LaunchStats`] here are
//! identical, so `last_launch()` and the accumulated [`SystemStats`]
//! never reveal which tier ran.

use crate::config::PimConfig;
use crate::dpu::Dpu;
use crate::faults::FaultPlan;
use crate::kernel::{Kernel, KernelError};
use crate::memory::{Bank, MemoryError};
use crate::report::SanitizerReport;
use crate::sanitize::{FindingKind, SanitizeLevel, SanitizerFinding};
use crate::stats::{LaunchStats, SystemStats};
use crate::xfer::{Direction, TransferLedger, TransferRecord};
use std::fmt;
use std::ops::Range;
use swiftrl_telemetry::{CycleClassTotals, Event, TransferFaultKind, TransferKind};

/// Error raised by host-side PIM operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PimError {
    /// Requested more DPUs than the system has available.
    Alloc {
        /// DPUs requested.
        requested: usize,
        /// DPUs still available.
        available: usize,
    },
    /// A DPU index was out of range for the set.
    BadDpu {
        /// The offending index.
        index: usize,
        /// Number of DPUs in the set.
        dpus: usize,
    },
    /// A host-side MRAM access failed.
    Memory(MemoryError),
    /// A kernel failed during a launch.
    Kernel {
        /// DPU on which the kernel faulted.
        dpu: usize,
        /// The kernel's error.
        error: KernelError,
    },
    /// An argument was invalid (e.g. mismatched scatter part count).
    BadArgument(String),
    /// The host abandoned the run at a round boundary (job cancellation
    /// in a multi-tenant service). The DPU set is left in a consistent
    /// state and can be freed or reused.
    Cancelled,
}

impl fmt::Display for PimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PimError::Alloc {
                requested,
                available,
            } => write!(f, "requested {requested} DPUs but only {available} are available"),
            PimError::BadDpu { index, dpus } => {
                write!(f, "DPU index {index} out of range for a set of {dpus}")
            }
            PimError::Memory(e) => write!(f, "host MRAM access failed: {e}"),
            PimError::Kernel { dpu, error } => write!(f, "kernel fault on DPU {dpu}: {error}"),
            PimError::BadArgument(msg) => write!(f, "invalid argument: {msg}"),
            PimError::Cancelled => write!(f, "run cancelled by the host"),
        }
    }
}

impl std::error::Error for PimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PimError::Memory(e) => Some(e),
            PimError::Kernel { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<MemoryError> for PimError {
    fn from(e: MemoryError) -> Self {
        PimError::Memory(e)
    }
}

/// The capacity rule [`PimSystem::alloc`] enforces: a request for `dpus`
/// DPUs against `available` free ones. A host can apply it to a platform
/// configuration before building any [`PimSystem`].
///
/// # Errors
///
/// Returns [`PimError::BadArgument`] for an empty request, or
/// [`PimError::Alloc`] if `dpus > available`.
pub fn check_alloc(dpus: usize, available: usize) -> Result<(), PimError> {
    if dpus == 0 {
        return Err(PimError::BadArgument("cannot allocate 0 DPUs".into()));
    }
    if dpus > available {
        return Err(PimError::Alloc {
            requested: dpus,
            available,
        });
    }
    Ok(())
}

/// The whole PIM platform; allocates [`DpuSet`]s.
///
/// Owns the [`FleetArena`](crate::arena::FleetArena) that backs every
/// bank segment of every set it allocates: per-DPU memory is
/// materialized lazily on first write, accounted fleet-wide, and pooled
/// for reuse when sets are freed — so a 2,524-DPU platform costs host
/// memory proportional to the bytes its workloads actually touch, not
/// to 2,524 × 64 MB of nominal bank capacity.
#[derive(Debug)]
pub struct PimSystem {
    config: PimConfig,
    allocated: usize,
    arena: crate::arena::FleetArena,
}

impl PimSystem {
    /// Creates a system with the given platform configuration.
    pub fn new(config: PimConfig) -> Self {
        Self {
            config,
            allocated: 0,
            arena: crate::arena::FleetArena::new(),
        }
    }

    /// The platform configuration.
    pub fn config(&self) -> &PimConfig {
        &self.config
    }

    /// Fleet-wide bank-memory accounting (current and peak allocated
    /// bank bytes, arena footprint) across every set this system has
    /// allocated, live or freed.
    pub fn memory_stats(&self) -> crate::arena::MemoryStats {
        self.arena.stats()
    }

    /// DPUs not yet allocated to a set.
    pub fn available_dpus(&self) -> usize {
        self.config.dpus - self.allocated
    }

    /// Allocates a set of `dpus` DPUs.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::Alloc`] if fewer than `dpus` remain, or
    /// [`PimError::BadArgument`] for an empty request.
    pub fn alloc(&mut self, dpus: usize) -> Result<DpuSet, PimError> {
        self.alloc_with_config(dpus, self.config.clone())
    }

    /// [`Self::alloc`], but the set runs under `config` — its own fault
    /// plan, telemetry sink, and arithmetic tier — while still drawing
    /// bank segments from (and counting against) this system's shared
    /// fleet arena and DPU capacity. Multi-tenant hosts use this to give
    /// every job an isolated platform view over one shared machine.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::Alloc`] if fewer than `dpus` remain, or
    /// [`PimError::BadArgument`] for an empty request.
    pub fn alloc_with_config(
        &mut self,
        dpus: usize,
        config: PimConfig,
    ) -> Result<DpuSet, PimError> {
        check_alloc(dpus, self.available_dpus())?;
        self.allocated += dpus;
        Ok(DpuSet::new(config, dpus, &self.arena))
    }

    /// Returns a set's DPUs to the pool.
    pub fn free(&mut self, set: DpuSet) {
        self.allocated -= set.ndpus();
    }
}

/// One host→DPU transfer of a [`DpuSet::sync_round`]. It is recorded
/// exactly as the stepwise call it stands for.
#[derive(Debug, Clone, Copy)]
pub enum Delivery<'a> {
    /// [`DpuSet::scatter`]: part `i` goes to DPU `i` at `offset`. A DPU
    /// whose part is empty is not addressed.
    Scatter {
        /// MRAM offset on every DPU.
        offset: usize,
        /// One part per DPU of the set.
        parts: &'a [Vec<u8>],
    },
    /// [`DpuSet::broadcast`], or [`DpuSet::broadcast_subset`] in a round
    /// over a subset: `data` goes to every DPU of the round at `offset`.
    Broadcast {
        /// MRAM offset on every DPU.
        offset: usize,
        /// The payload.
        data: &'a [u8],
    },
}

impl<'a> Delivery<'a> {
    /// Where DPU `dpu` receives this delivery, and its bytes.
    fn payload(&self, dpu: usize) -> (usize, &'a [u8]) {
        match *self {
            Delivery::Scatter { offset, parts } => (offset, &parts[dpu]),
            Delivery::Broadcast { offset, data } => (offset, data),
        }
    }

    /// Whether the transfer addresses `dpu`, a DPU of the round.
    fn addresses(&self, dpu: usize) -> bool {
        match *self {
            Delivery::Scatter { parts, .. } => !parts[dpu].is_empty(),
            Delivery::Broadcast { .. } => true,
        }
    }
}

/// What the fault plan does to one DPU's payload of a CPU→PIM transfer.
#[derive(Clone, Copy)]
enum TransferFault {
    /// The payload never lands.
    Dropped,
    /// The payload lands with the byte at `pos` XORed with `mask`.
    Corrupted { pos: usize, mask: u8 },
}

impl TransferFault {
    /// The fault plan's decision for transfer `seq` of `len` bytes to
    /// `dpu`. Pure data, so a pass can apply it inside each DPU's
    /// delivery while the host records it beforehand.
    fn decide(faults: &FaultPlan, seq: u64, dpu: usize, len: usize) -> Option<Self> {
        if faults.is_none() {
            None
        } else if faults.drop_transfer(seq, dpu) {
            Some(TransferFault::Dropped)
        } else {
            faults
                .corrupt_transfer(seq, dpu, len)
                .map(|(pos, mask)| TransferFault::Corrupted { pos, mask })
        }
    }

    fn kind(self) -> TransferFaultKind {
        match self {
            TransferFault::Dropped => TransferFaultKind::Dropped,
            TransferFault::Corrupted { .. } => TransferFaultKind::Corrupted,
        }
    }
}

/// Lands `deliveries`, recorded with transfer sequence numbers `seqs`,
/// on `dpu` as the fault plan leaves each payload: a dropped payload
/// never reaches the bank; a corrupted one lands directly and its one
/// corrupted byte is patched in place, so nothing is allocated on any
/// path.
fn land(
    dpu: &mut Dpu,
    faults: &FaultPlan,
    deliveries: &[Delivery<'_>],
    seqs: &[u64],
) -> Result<(), MemoryError> {
    let id = dpu.id();
    for (delivery, &seq) in deliveries.iter().zip(seqs) {
        if !delivery.addresses(id) {
            continue;
        }
        let (offset, data) = delivery.payload(id);
        let bank = dpu.mram_mut();
        match TransferFault::decide(faults, seq, id, data.len()) {
            Some(TransferFault::Dropped) => {}
            fault => {
                bank.write(offset, data)?;
                if let Some(TransferFault::Corrupted { pos, mask }) = fault {
                    let mut byte = [0u8; 1];
                    bank.read(offset + pos, &mut byte)?;
                    byte[0] ^= mask;
                    bank.write(offset + pos, &byte)?;
                }
            }
        }
    }
    Ok(())
}

/// A set of allocated DPUs operated on collectively, like a UPMEM
/// `dpu_set_t`.
#[derive(Debug)]
pub struct DpuSet {
    config: PimConfig,
    dpus: Vec<Dpu>,
    arena: crate::arena::FleetArena,
    stats: SystemStats,
    ledger: TransferLedger,
    last_launch: LaunchStats,
    program_loaded: bool,
    sanitizer_report: SanitizerReport,
    kernel_running: bool,
    // Host-side serial number of CPU→PIM transfer operations; the fault
    // plan keys in-flight corruption/drop decisions on it, which makes
    // transfer faults engine-invariant by construction.
    transfer_seq: u64,
}

impl DpuSet {
    fn new(config: PimConfig, n: usize, arena: &crate::arena::FleetArena) -> Self {
        let dpus = (0..n).map(|i| Dpu::with_arena(i, &config, arena)).collect();
        let sanitizer_report = SanitizerReport {
            level: config.sanitize,
            ..SanitizerReport::default()
        };
        Self {
            config,
            dpus,
            arena: arena.clone(),
            stats: SystemStats::default(),
            ledger: TransferLedger::new(),
            last_launch: LaunchStats::default(),
            program_loaded: false,
            sanitizer_report,
            kernel_running: false,
            transfer_seq: 0,
        }
    }

    /// Number of DPUs in the set.
    pub fn ndpus(&self) -> usize {
        self.dpus.len()
    }

    /// The platform configuration.
    pub fn config(&self) -> &PimConfig {
        &self.config
    }

    /// Cumulative time/byte statistics.
    pub fn stats(&self) -> &SystemStats {
        &self.stats
    }

    /// Statistics of the most recent launch.
    pub fn last_launch(&self) -> &LaunchStats {
        &self.last_launch
    }

    /// The transfer ledger (every recorded transfer, in order).
    pub fn ledger(&self) -> &TransferLedger {
        &self.ledger
    }

    /// Fleet-wide bank-memory accounting of the arena backing this
    /// set's banks (shared with the owning [`PimSystem`]): current and
    /// peak allocated bank bytes, and the arena's own footprint
    /// including pooled segments.
    pub fn memory_stats(&self) -> crate::arena::MemoryStats {
        self.arena.stats()
    }

    /// Resets cumulative statistics (keeps memory contents and the
    /// loaded program).
    pub fn reset_stats(&mut self) {
        self.stats.reset();
        self.ledger.clear();
        self.last_launch = LaunchStats::default();
    }

    /// Sets the runtime sanitization level for subsequent launches.
    ///
    /// Sanitization is observation-only: Q-tables and cycle counts are
    /// bit-identical with it on or off; only diagnostics are collected.
    pub fn set_sanitize_level(&mut self, level: SanitizeLevel) {
        self.config.sanitize = level;
        self.sanitizer_report.level = level;
    }

    /// The sanitization level launches currently run at.
    pub fn sanitize_level(&self) -> SanitizeLevel {
        self.config.sanitize
    }

    /// Accumulated sanitizer diagnostics across launches.
    pub fn sanitizer_report(&self) -> &SanitizerReport {
        &self.sanitizer_report
    }

    /// Clears accumulated sanitizer findings (keeps the level).
    pub fn reset_sanitizer_report(&mut self) {
        self.sanitizer_report.reset();
    }

    /// Records a host MRAM access inside an async launch window.
    fn note_host_access(&mut self, dpu: usize, offset: usize, len: usize) {
        if self.kernel_running && self.config.sanitize.enabled() {
            self.sanitizer_report.findings.push(SanitizerFinding {
                dpu,
                tasklet: None,
                kind: FindingKind::HostAccessDuringLaunch { offset, len },
            });
        }
    }

    fn check_dpu(&self, index: usize) -> Result<(), PimError> {
        if index >= self.dpus.len() {
            return Err(PimError::BadDpu {
                index,
                dpus: self.dpus.len(),
            });
        }
        Ok(())
    }

    /// The range check the set's banks (all of one capacity) apply to a
    /// host access of `len` bytes at `offset`.
    fn check_mram(&self, offset: usize, len: usize) -> Result<(), MemoryError> {
        match self.dpus.first() {
            Some(dpu) => dpu.mram().check(offset, len).map(drop),
            None => Ok(()),
        }
    }

    fn ranks(&self) -> usize {
        self.config.ranks_for(self.dpus.len())
    }

    /// The distinct ranks a transfer to `indices` (strictly increasing;
    /// `None` = the whole set) addresses — the rank parallelism the
    /// bandwidth model charges every scatter, broadcast and gather for.
    /// A full set of `n` DPUs addresses `ranks_for(n)`; a sparse subset
    /// spread across the machine addresses more ranks than a dense
    /// packing of its size would.
    fn ranks_addressed(&self, indices: Option<&[usize]>) -> usize {
        match indices {
            // A strictly increasing list of every DPU is the whole set.
            Some(indices) if indices.len() < self.dpus.len() => {
                let rank = |dpu| self.config.rank_of(dpu);
                1 + indices.windows(2).filter(|w| rank(w[0]) != rank(w[1])).count()
            }
            _ => self.ranks(),
        }
    }

    /// Validates a DPU index list for a subset operation: non-empty,
    /// strictly increasing, all in range.
    fn check_indices(&self, indices: &[usize]) -> Result<(), PimError> {
        if indices.is_empty() {
            return Err(PimError::BadArgument(
                "subset operation expects at least one DPU index".into(),
            ));
        }
        for w in indices.windows(2) {
            if w[0] >= w[1] {
                return Err(PimError::BadArgument(
                    "subset DPU indices must be strictly increasing".into(),
                ));
            }
        }
        match indices.last() {
            Some(&last) => self.check_dpu(last),
            None => Ok(()),
        }
    }

    fn next_transfer_seq(&mut self) -> u64 {
        let seq = self.transfer_seq;
        self.transfer_seq += 1;
        seq
    }

    /// The DPUs of `indices` (checked), or every DPU of the set.
    fn dpu_ids(&self, indices: Option<&[usize]>) -> Result<Vec<usize>, PimError> {
        match indices {
            Some(indices) => {
                self.check_indices(indices)?;
                Ok(indices.to_vec())
            }
            None => Ok((0..self.dpus.len()).collect()),
        }
    }

    /// Checks `deliveries` to the DPUs `ids`: one scatter part per DPU of
    /// the set, and every addressed range inside the bank.
    fn check_deliveries(&self, deliveries: &[Delivery<'_>], ids: &[usize]) -> Result<(), PimError> {
        let n = self.dpus.len();
        for delivery in deliveries {
            match *delivery {
                Delivery::Scatter { parts, .. } if parts.len() != n => {
                    return Err(PimError::BadArgument(format!(
                        "scatter expects {n} parts, got {}",
                        parts.len()
                    )));
                }
                Delivery::Scatter { offset, parts } => {
                    for &dpu in ids.iter().filter(|&&dpu| !parts[dpu].is_empty()) {
                        self.check_mram(offset, parts[dpu].len())?;
                    }
                }
                Delivery::Broadcast { offset, data } => self.check_mram(offset, data.len())?,
            }
        }
        Ok(())
    }

    /// Records checked `deliveries` to the DPUs `ids` (ascending), one
    /// CPU→PIM transfer each: sanitizer host-access checks, the transfer
    /// sequence number, the fault plan's decisions for every addressed
    /// DPU, then the ledger record and `Transfer` event. Returns the
    /// sequence numbers; [`land`] then writes the payloads. A transfer is
    /// charged for the ranks it addresses: an empty scatter part (the
    /// `partition_even` tail when DPUs outnumber items) is not addressed,
    /// sees no fault decision, and its rank does not count.
    fn record_deliveries(&mut self, deliveries: &[Delivery<'_>], ids: &[usize]) -> Vec<u64> {
        let mut seqs = Vec::with_capacity(deliveries.len());
        for delivery in deliveries {
            let addressed: Vec<usize> =
                ids.iter().copied().filter(|&dpu| delivery.addresses(dpu)).collect();
            for &dpu in &addressed {
                let (offset, data) = delivery.payload(dpu);
                self.note_host_access(dpu, offset, data.len());
            }
            let seq = self.next_transfer_seq();
            if !self.config.faults.is_none() {
                for &dpu in &addressed {
                    self.transfer_fault(seq, dpu, delivery.payload(dpu).1.len());
                }
            }
            let ranks = if addressed.is_empty() {
                0
            } else {
                self.ranks_addressed(Some(&addressed))
            };
            match *delivery {
                Delivery::Scatter { parts, .. } => {
                    let total = addressed.iter().map(|&dpu| parts[dpu].len() as u64).sum();
                    self.charge_scatter(total, addressed.len(), ranks);
                }
                Delivery::Broadcast { data, .. } => {
                    self.charge_broadcast(data.len(), addressed.len(), ranks);
                }
            }
            seqs.push(seq);
        }
        seqs
    }

    /// Counts and emits the fault plan's decision for `dpu`'s `len`-byte
    /// payload of transfer `seq` when it is a fault. The host cannot
    /// observe it, so the transfer is charged as if it succeeded.
    fn transfer_fault(&mut self, seq: u64, dpu: usize, len: usize) {
        if let Some(fault) = TransferFault::decide(&self.config.faults, seq, dpu, len) {
            self.stats.injected_transfer_faults += 1;
            self.config.telemetry.emit(|| Event::TransferFault {
                kind: fault.kind(),
                seq,
                dpu,
            });
        }
    }

    /// `deliveries` to the DPUs of `indices` (`None` = all), checked,
    /// recorded and landed: the stepwise scatter and broadcasts.
    fn transfer(&mut self, deliveries: &[Delivery<'_>], indices: Option<&[usize]>) -> Result<(), PimError> {
        let ids = self.dpu_ids(indices)?;
        self.check_deliveries(deliveries, &ids)?;
        let seqs = self.record_deliveries(deliveries, &ids);
        for dpu in select(&mut self.dpus, indices) {
            land(dpu, &self.config.faults, deliveries, &seqs)?;
        }
        Ok(())
    }

    fn record(&mut self, direction: Direction, bytes: u64, dpus: usize, ranks: usize, seconds: f64) {
        self.ledger.record(TransferRecord {
            direction,
            bytes,
            dpus,
            ranks,
            seconds,
        });
        match direction {
            Direction::CpuToPim => {
                self.stats.cpu_to_pim_seconds += seconds;
                self.stats.cpu_to_pim_bytes += bytes;
            }
            Direction::PimToCpu => {
                self.stats.pim_to_cpu_seconds += seconds;
                self.stats.pim_to_cpu_bytes += bytes;
            }
        }
    }

    /// [`Self::record`] for data transfers, plus the telemetry event.
    /// Direction follows the transfer kind; program loads go through
    /// plain `record` and emit their own [`Event::ProgramLoad`].
    fn record_xfer(&mut self, kind: TransferKind, bytes: u64, dpus: usize, ranks: usize, seconds: f64) {
        let direction = if kind.is_cpu_to_pim() {
            Direction::CpuToPim
        } else {
            Direction::PimToCpu
        };
        self.record(direction, bytes, dpus, ranks, seconds);
        self.config.telemetry.emit(|| Event::Transfer {
            kind,
            bytes,
            dpus,
            seconds,
        });
    }

    /// Charges a scatter of `total` bytes addressed to `dpus` DPUs in
    /// `ranks` ranks; a scatter that addresses no rank takes no time.
    fn charge_scatter(&mut self, total: u64, dpus: usize, ranks: usize) {
        let seconds = if ranks == 0 {
            0.0
        } else {
            self.config
                .transfer
                .scatter_gather_seconds(total as usize, ranks)
        };
        self.record_xfer(TransferKind::Scatter, total, dpus, ranks, seconds);
    }

    /// Charges a broadcast of `len` bytes to `dpus` DPUs in `ranks` ranks.
    fn charge_broadcast(&mut self, len: usize, dpus: usize, ranks: usize) {
        let seconds = self.config.transfer.broadcast_seconds(len, dpus, ranks);
        self.record_xfer(TransferKind::Broadcast, (len * dpus) as u64, dpus, ranks, seconds);
    }

    /// Charges a gather of `len` bytes from each of `dpus` DPUs in
    /// `ranks` ranks.
    fn charge_gather(&mut self, len: usize, dpus: usize, ranks: usize) {
        let total = (len * dpus) as u64;
        let seconds = self
            .config
            .transfer
            .scatter_gather_seconds(total as usize, ranks);
        self.record_xfer(TransferKind::Gather, total, dpus, ranks, seconds);
    }

    // ---- transfers -------------------------------------------------------

    /// Copies `data` into one DPU's MRAM at `mram_offset`.
    ///
    /// # Errors
    ///
    /// Fails on a bad DPU index or an out-of-range MRAM write.
    pub fn copy_to(&mut self, dpu: usize, mram_offset: usize, data: &[u8]) -> Result<(), PimError> {
        self.check_dpu(dpu)?;
        self.check_mram(mram_offset, data.len())?;
        self.note_host_access(dpu, mram_offset, data.len());
        let seq = self.next_transfer_seq();
        self.transfer_fault(seq, dpu, data.len());
        let delivery = Delivery::Broadcast {
            offset: mram_offset,
            data,
        };
        land(&mut self.dpus[dpu], &self.config.faults, &[delivery], &[seq])?;
        let seconds = self.config.transfer.scatter_gather_seconds(data.len(), 1);
        self.record_xfer(TransferKind::CopyTo, data.len() as u64, 1, 1, seconds);
        Ok(())
    }

    /// Reads `len` bytes from one DPU's MRAM at `mram_offset`.
    ///
    /// # Errors
    ///
    /// Fails on a bad DPU index or an out-of-range MRAM read.
    pub fn copy_from(
        &mut self,
        dpu: usize,
        mram_offset: usize,
        len: usize,
    ) -> Result<Vec<u8>, PimError> {
        self.check_dpu(dpu)?;
        self.note_host_access(dpu, mram_offset, len);
        let mut buf = vec![0u8; len];
        self.dpus[dpu].mram().read(mram_offset, &mut buf)?;
        let seconds = self.config.transfer.scatter_gather_seconds(len, 1);
        self.record_xfer(TransferKind::CopyFrom, len as u64, 1, 1, seconds);
        Ok(buf)
    }

    /// Parallel scatter: part `i` of `parts` goes to DPU `i` at
    /// `mram_offset`. This is the UPMEM `dpu_push_xfer(..., TO_DPU)`
    /// equivalent and the fast path for dataset-chunk loading.
    ///
    /// # Errors
    ///
    /// Fails if `parts.len() != ndpus()` or any MRAM write is out of range.
    pub fn scatter(&mut self, mram_offset: usize, parts: &[Vec<u8>]) -> Result<(), PimError> {
        let offset = mram_offset;
        self.transfer(&[Delivery::Scatter { offset, parts }], None)
    }

    /// Broadcast: copies the same buffer to every DPU at `mram_offset`
    /// (UPMEM `dpu_broadcast_to`).
    ///
    /// # Errors
    ///
    /// Fails if the MRAM write is out of range.
    pub fn broadcast(&mut self, mram_offset: usize, data: &[u8]) -> Result<(), PimError> {
        let offset = mram_offset;
        self.transfer(&[Delivery::Broadcast { offset, data }], None)
    }

    /// [`Self::broadcast`] restricted to the DPUs in `indices` (strictly
    /// increasing). Used by resilient hosts to refresh only the healthy
    /// subset, e.g. when rolling back to a Q-table checkpoint.
    ///
    /// # Errors
    ///
    /// Fails on an invalid index list or an out-of-range MRAM write.
    pub fn broadcast_subset(
        &mut self,
        mram_offset: usize,
        data: &[u8],
        indices: &[usize],
    ) -> Result<(), PimError> {
        let offset = mram_offset;
        self.transfer(&[Delivery::Broadcast { offset, data }], Some(indices))
    }

    /// Parallel gather: reads `len` bytes at `mram_offset` from each
    /// addressed DPU — the whole set for `indices: None`, else the
    /// strictly increasing `indices` — and hands them to `visit` in
    /// ascending DPU order (UPMEM `dpu_push_xfer(..., FROM_DPU)`). A DPU's
    /// bytes are lent straight from its bank when they lie in one
    /// materialized segment, and are otherwise read into one reused
    /// `len`-byte buffer, so a gather allocates at most that buffer
    /// however many DPUs it reads. Hosts fold each table as it arrives
    /// instead of keeping per-DPU copies. Records one `Gather` transfer,
    /// charged for the distinct ranks addressed.
    ///
    /// # Errors
    ///
    /// Fails on an invalid index list or an out-of-range MRAM read.
    pub fn gather_with(
        &mut self,
        mram_offset: usize,
        len: usize,
        indices: Option<&[usize]>,
        visit: impl FnMut(&[u8]),
    ) -> Result<(), PimError> {
        self.gather_core(mram_offset, len, indices, None, visit)
    }

    /// The gather that closes a [`Self::sync_round`] whose pass already
    /// folded the tables: records the one `Gather` from the DPUs in
    /// `indices` exactly as [`Self::gather_with`] does, but hands `visit`
    /// only the bytes of the DPUs in `refold` (strictly increasing, a
    /// subset of `indices`) — those the pass could not fold, such as
    /// DPUs relaunched after a fault — in ascending DPU order.
    ///
    /// # Errors
    ///
    /// As [`Self::gather_with`].
    pub fn gather_folded(
        &mut self,
        mram_offset: usize,
        len: usize,
        indices: Option<&[usize]>,
        refold: &[usize],
        visit: impl FnMut(&[u8]),
    ) -> Result<(), PimError> {
        self.gather_core(mram_offset, len, indices, Some(refold), visit)
    }

    /// [`Self::gather_with`] as an engine pass over byte ranges instead
    /// of DPUs: `pieces` pairs disjoint ranges of the `len` gathered
    /// bytes with an accumulator each, and every piece is handed its
    /// range of each addressed DPU's bytes in ascending DPU order. So a
    /// fold that depends on the order of the DPUs (an FP32 sum) comes
    /// out of a piece bit for bit as the DPU-order fold of its range,
    /// while the engine's workers split the pieces between them.
    /// Records the same single `Gather`.
    ///
    /// # Errors
    ///
    /// Fails on an invalid index list, a range outside `0..len`, or an
    /// out-of-range MRAM read, before reading anything.
    pub fn gather_ranges<P: Send>(
        &mut self,
        mram_offset: usize,
        len: usize,
        indices: Option<&[usize]>,
        pieces: &mut [(Range<usize>, P)],
        fold: impl Fn(&mut P, &[u8]) + Sync,
    ) -> Result<(), PimError> {
        let ids = self.dpu_ids(indices)?;
        if pieces.iter().any(|(range, _)| range.end > len) {
            return Err(PimError::BadArgument(format!(
                "gather_ranges pieces must lie in 0..{len}"
            )));
        }
        self.check_mram(mram_offset, len)?;
        let dpus = &self.dpus;
        let mut bufs = vec![Vec::new(); self.config.engine.workers_for(pieces.len())];
        let results = self.config.engine.execute_chunks(&mut bufs, pieces, |buf, (range, piece)| {
            for &dpu in &ids {
                let offset = mram_offset + range.start;
                lend_or_read(dpus[dpu].mram(), offset, range.len(), buf, |b| fold(piece, b))?;
            }
            Ok(0)
        });
        for result in results {
            if let Err(KernelError::Memory(e)) = result {
                return Err(e.into());
            }
        }
        self.gather_core(mram_offset, len, indices, Some(&[]), |_| {})
    }

    /// The one gather core: records a `Gather` of `len` bytes at
    /// `mram_offset` from each addressed DPU, and hands `visit` the
    /// bytes of the DPUs in `read` (`None` = every addressed DPU) in
    /// ascending order.
    fn gather_core(
        &mut self,
        mram_offset: usize,
        len: usize,
        indices: Option<&[usize]>,
        read: Option<&[usize]>,
        mut visit: impl FnMut(&[u8]),
    ) -> Result<(), PimError> {
        let ids = self.dpu_ids(indices)?;
        for &dpu in &ids {
            self.note_host_access(dpu, mram_offset, len);
        }
        self.check_mram(mram_offset, len)?;
        let mut buf = Vec::new();
        for &dpu in &ids {
            if read.is_none_or(|read| read.binary_search(&dpu).is_ok()) {
                lend_or_read(self.dpus[dpu].mram(), mram_offset, len, &mut buf, &mut visit)?;
            }
        }
        self.charge_gather(len, ids.len(), self.ranks_addressed(indices));
        Ok(())
    }

    /// [`Self::gather_with`] over the whole set into the caller-owned
    /// flat buffer `out`: DPU `i`'s chunk lands at
    /// `out[i * len .. (i + 1) * len]`.
    ///
    /// # Errors
    ///
    /// Fails if `out.len() != len * ndpus()` or any MRAM read is out of
    /// range.
    pub fn gather_into(
        &mut self,
        mram_offset: usize,
        len: usize,
        out: &mut [u8],
    ) -> Result<(), PimError> {
        let expected = len * self.dpus.len();
        if out.len() != expected {
            return Err(PimError::BadArgument(format!(
                "gather_into expects a {expected}-byte buffer, got {}",
                out.len()
            )));
        }
        let mut at = 0;
        self.gather_with(mram_offset, len, None, |bytes| {
            out[at..at + len].copy_from_slice(bytes);
            at += len;
        })
    }

    // ---- launch ----------------------------------------------------------

    /// One-time `dpu_load` of the kernel binary into the set's IRAMs.
    /// Charged to the CPU→PIM category (and tracked separately in
    /// [`SystemStats::program_load_seconds`]). Idempotent; `launch` calls
    /// it implicitly if the host has not done so.
    pub fn load_program(&mut self) {
        if self.program_loaded {
            return;
        }
        let n = self.dpus.len();
        let seconds = self.config.transfer.program_load_seconds(n);
        let bytes = (self.config.iram_bytes * n) as u64;
        let ranks = self.ranks();
        self.record(Direction::CpuToPim, bytes, n, ranks, seconds);
        self.stats.program_load_seconds += seconds;
        self.program_loaded = true;
        self.config.telemetry.emit(|| Event::ProgramLoad {
            dpus: n,
            bytes,
            seconds,
        });
    }

    /// Launches `kernel` on every DPU in the set and blocks until all
    /// finish. Launch latency is the slowest DPU's cycle count at the
    /// platform clock. Equivalent to [`Self::launch_async`] followed by
    /// [`Self::sync`].
    ///
    /// # Errors
    ///
    /// Returns the first kernel fault with its DPU index.
    pub fn launch(&mut self, kernel: &dyn Kernel) -> Result<&LaunchStats, PimError> {
        self.launch_async(kernel)?;
        Ok(self.sync())
    }

    /// Starts a launch without closing its window (UPMEM
    /// `DPU_ASYNCHRONOUS`). The simulator executes the kernel eagerly —
    /// scheduled across host threads per the configured
    /// [`crate::engine::ExecutionEngine`] — but host MRAM accesses before
    /// [`Self::sync`] are flagged by the sanitizer as
    /// [`FindingKind::HostAccessDuringLaunch`] — on real hardware they
    /// would race the running kernel.
    ///
    /// All DPUs execute (as they would on hardware, where every core runs
    /// to completion or fault independently); results are then merged in
    /// DPU-index order, so cycle statistics, sanitizer finding order, and
    /// fault attribution are identical for every engine.
    ///
    /// # Errors
    ///
    /// Returns the lowest-indexed kernel fault with its DPU index (unlike
    /// real hardware, faults are reported here rather than at `sync`).
    pub fn launch_async(&mut self, kernel: &dyn Kernel) -> Result<(), PimError> {
        self.launch_on(kernel, None)
    }

    /// Launches `kernel` on the DPUs in `indices` only (strictly
    /// increasing) and blocks until they finish. The other DPUs are left
    /// untouched — their MRAM, counters, and launch indices do not
    /// advance. This is the host's relaunch primitive for faulted DPUs
    /// and the degraded-mode launch path.
    ///
    /// # Errors
    ///
    /// Fails on an invalid index list; otherwise as [`Self::launch`].
    pub fn launch_subset(
        &mut self,
        kernel: &dyn Kernel,
        indices: &[usize],
    ) -> Result<&LaunchStats, PimError> {
        self.check_indices(indices)?;
        self.launch_on(kernel, Some(indices))?;
        Ok(self.sync())
    }

    /// Shared launch core: launches the full set (`indices: None`) or
    /// that strictly increasing subset.
    fn launch_on(&mut self, kernel: &dyn Kernel, indices: Option<&[usize]>) -> Result<(), PimError> {
        self.load_program();
        self.kernel_running = true;
        let mut selected = select(&mut self.dpus, indices);
        let results = self
            .config
            .engine
            .execute_refs(&self.config, &mut selected, kernel);
        self.finish_launch(results, indices)
    }

    /// The ordered launch merge shared by [`Self::launch_on`] and
    /// [`Self::sync_round`]: folds the engine's per-DPU `results` (of the
    /// full set, or of `indices`) into `last_launch`, the sanitizer
    /// report, the telemetry stream and the cumulative statistics, and
    /// returns the lowest-indexed kernel fault.
    fn finish_launch(
        &mut self,
        results: Vec<Result<u64, KernelError>>,
        indices: Option<&[usize]>,
    ) -> Result<(), PimError> {
        let launched = indices.map_or(self.dpus.len(), <[usize]>::len);

        // Ordered merge: walk the per-DPU results strictly in DPU-index
        // order so every engine reports bit-identical statistics. Cycle
        // aggregates cover the DPUs that completed; faulted DPUs are
        // listed in `faulted_dpus` instead.
        let mut max_cycles = 0u64;
        let mut min_cycles = u64::MAX;
        let mut sum_cycles = 0u128;
        let mut survivors = 0usize;
        let mut merged = crate::cost::CycleCounter::new();
        let mut faulted_dpus = Vec::new();
        let mut fault = None;
        // Per-DPU spans are collected only when telemetry is on: with it
        // off the launch hot path allocates and pushes nothing.
        let telemetry_on = self.config.telemetry.is_enabled();
        let mut dpu_cycles: Vec<(usize, u64)> = Vec::new();
        for (i, result) in results.into_iter().enumerate() {
            let idx = match indices {
                None => i,
                Some(indices) => indices[i],
            };
            match result {
                Ok(cycles) => {
                    survivors += 1;
                    max_cycles = max_cycles.max(cycles);
                    min_cycles = min_cycles.min(cycles);
                    sum_cycles += cycles as u128;
                    merged.merge(self.dpus[idx].last_counter());
                    if telemetry_on {
                        dpu_cycles.push((idx, cycles));
                    }
                }
                Err(error) => {
                    if fault.is_none() {
                        fault = Some(PimError::Kernel { dpu: idx, error });
                    }
                    faulted_dpus.push(idx);
                }
            }
        }
        // Drain sanitizer findings even when a DPU faulted: partial
        // access sets still carry diagnostics.
        let mut launch_findings = 0u64;
        for dpu in &mut self.dpus {
            let (findings, dropped) = dpu.sanitizer_mut().drain();
            launch_findings += findings.len() as u64;
            self.sanitizer_report.findings.extend(findings);
            self.sanitizer_report.dropped += dropped;
        }
        if self.config.sanitize.enabled() {
            self.sanitizer_report.level = self.config.sanitize;
            self.sanitizer_report.sanitized_launches += 1;
        }
        let seconds = self.config.cycles_to_seconds(max_cycles);
        // Even a faulted launch overwrites `last_launch`: `sync()` after
        // a fault reports the faulted launch (marked via `faulted_dpus`,
        // with the survivors' merged cycle accounting), never the stale
        // statistics of an earlier launch.
        self.last_launch = LaunchStats {
            dpus: launched,
            max_cycles,
            min_cycles: if survivors == 0 { 0 } else { min_cycles },
            mean_cycles: if survivors == 0 {
                0.0
            } else {
                sum_cycles as f64 / survivors as f64
            },
            seconds,
            merged,
            sanitizer_findings: launch_findings,
            faulted_dpus,
        };
        if telemetry_on {
            // Emitted for clean and faulted launches alike, after the
            // ordered merge above — so the stream is identical for every
            // execution engine, exactly like `LaunchStats`.
            let stats = &self.last_launch;
            let classes = CycleClassTotals {
                alu_slots: stats.merged.alu_slots,
                wram_slots: stats.merged.wram_slots,
                control_slots: stats.merged.control_slots,
                int_emul_slots: stats.merged.int_emul_slots,
                float_emul_slots: stats.merged.float_emul_slots,
                dma_cycles: stats.merged.dma_cycles,
                dma_bytes: stats.merged.dma_bytes,
            };
            self.config.telemetry.emit(|| Event::KernelLaunch {
                dpus: survivors,
                max_cycles: stats.max_cycles,
                min_cycles: stats.min_cycles,
                mean_cycles: stats.mean_cycles,
                seconds,
                dpu_cycles,
                faulted_dpus: stats.faulted_dpus.clone(),
                classes,
                sanitizer_findings: launch_findings,
            });
        }
        if let Some(e) = fault {
            self.kernel_running = false;
            // Faulted launches never contribute to `launches` or
            // `kernel_seconds`; the time the host spent waiting on the
            // surviving DPUs is tracked separately.
            self.stats.faulted_launches += 1;
            self.stats.faulted_kernel_seconds += seconds;
            return Err(e);
        }
        self.stats.launches += 1;
        self.stats.last_kernel_seconds = seconds;
        self.stats.kernel_seconds += seconds;
        Ok(())
    }

    /// Closes the launch window opened by [`Self::launch_async`]: after
    /// this the host may touch MRAM freely again. Returns the launch's
    /// statistics. Idempotent.
    pub fn sync(&mut self) -> &LaunchStats {
        self.kernel_running = false;
        &self.last_launch
    }

    /// One synchronization round as a single engine pass over the DPUs
    /// of `indices` (strictly increasing; `None` = the whole set). For
    /// each DPU the pass writes `deliveries` into its bank, executes
    /// `kernel`, and, unless the DPU faulted, calls `fold` with its
    /// worker's slot of `sums`, its index in the set and its MRAM bytes
    /// `fold_bytes` while the bank is still in cache. The index lets a
    /// fold read only what that DPU can have changed.
    ///
    /// Every observable — bank bytes, [`SystemStats`], `last_launch`,
    /// ledger, transfer sequence, sanitizer report, telemetry — is the one
    /// [`Self::scatter`]/[`Self::broadcast`]/[`Self::broadcast_subset`]
    /// per delivery, then [`Self::launch`]/[`Self::launch_subset`], leave
    /// behind, under any fault plan: deliveries are recorded by the same
    /// code, and each DPU's transfer faults, pure functions of (sequence
    /// number, DPU, length), are applied inside its delivery. Only which
    /// DPUs share a slot of `sums` depends on the schedule, so the slots'
    /// combined fold must not depend on DPU order unless the engine runs
    /// one worker. [`Self::gather_folded`] or [`Self::gather_ranges`]
    /// records the round's gather, after any relaunch.
    ///
    /// `on_delivered` sees the statistics once the deliveries are
    /// recorded and before the launch. When it returns `false` the pass
    /// only writes the deliveries, exactly as the stepwise calls would
    /// stop before their launch, and `sync_round` returns `Ok(false)`.
    ///
    /// # Errors
    ///
    /// Fails, before recording anything, on an invalid index list, on no
    /// accumulator slots, on a scatter whose part count differs from the
    /// set, and on an out-of-range delivery or fold range. A kernel fault
    /// is returned as [`Self::launch`] returns it; the faulted DPUs are
    /// listed in `last_launch().faulted_dpus` and were not folded.
    #[allow(clippy::too_many_arguments)]
    pub fn sync_round<A: Send>(
        &mut self,
        deliveries: &[Delivery<'_>],
        kernel: &dyn Kernel,
        indices: Option<&[usize]>,
        fold_bytes: Range<usize>,
        on_delivered: impl FnOnce(&SystemStats) -> bool,
        sums: &mut [A],
        fold: impl Fn(&mut A, usize, &[u8]) + Sync,
    ) -> Result<bool, PimError> {
        if sums.is_empty() {
            return Err(PimError::BadArgument(
                "sync_round needs at least one accumulator slot".into(),
            ));
        }
        let ids = self.dpu_ids(indices)?;
        self.check_deliveries(deliveries, &ids)?;
        self.check_mram(fold_bytes.start, fold_bytes.len())?;
        let seqs = self.record_deliveries(deliveries, &ids);
        if !on_delivered(&self.stats) {
            for dpu in select(&mut self.dpus, indices) {
                land(dpu, &self.config.faults, deliveries, &seqs)?;
            }
            return Ok(false);
        }

        self.load_program();
        self.kernel_running = true;
        let config = &self.config;
        // Each worker also owns a buffer for a table its bank cannot lend
        // in one piece.
        let mut slots: Vec<(&mut A, Vec<u8>)> =
            sums.iter_mut().map(|sum| (sum, Vec::new())).collect();
        let pass = |(sum, buf): &mut (&mut A, Vec<u8>), dpu: &mut &mut Dpu| {
            land(dpu, &config.faults, deliveries, &seqs)?;
            let cycles = dpu.execute(kernel, config)?;
            let (offset, len) = (fold_bytes.start, fold_bytes.len());
            lend_or_read(dpu.mram(), offset, len, buf, |table| fold(sum, dpu.id(), table))?;
            Ok(cycles)
        };
        let mut selected = select(&mut self.dpus, indices);
        let results = config.engine.execute_chunks(&mut slots, &mut selected, pass);
        self.finish_launch(results, indices)?;
        self.kernel_running = false;
        Ok(true)
    }
}

/// The DPUs of `indices` (strictly increasing; `None` = all), in order.
fn select<'a>(dpus: &'a mut [Dpu], indices: Option<&[usize]>) -> Vec<&'a mut Dpu> {
    match indices {
        None => dpus.iter_mut().collect(),
        Some(indices) => {
            let mut want = indices.iter().copied().peekable();
            dpus.iter_mut()
                .enumerate()
                .filter_map(|(i, dpu)| want.next_if_eq(&i).map(|_| dpu))
                .collect()
        }
    }
}

/// Hands `visit` the `len` bytes at `offset` of `bank`: lent straight
/// from the bank when they lie in one materialized segment, else read
/// into `buf`, which is reused across calls.
fn lend_or_read(
    bank: &Bank,
    offset: usize,
    len: usize,
    buf: &mut Vec<u8>,
    visit: impl FnOnce(&[u8]),
) -> Result<(), MemoryError> {
    match bank.slice(offset, len) {
        Some(bytes) => visit(bytes),
        None => {
            buf.resize(len, 0);
            bank.read(offset, buf)?;
            visit(buf);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::DpuContext;

    /// One owned buffer per addressed DPU, in visit order.
    fn gathered(
        set: &mut DpuSet,
        mram_offset: usize,
        len: usize,
        indices: Option<&[usize]>,
    ) -> Result<Vec<Vec<u8>>, PimError> {
        let mut out = Vec::new();
        set.gather_with(mram_offset, len, indices, |bytes| out.push(bytes.to_vec()))?;
        Ok(out)
    }

    fn tiny_system() -> PimSystem {
        PimSystem::new(
            PimConfig::builder()
                .dpus(8)
                .mram_bytes(1 << 16)
                .build(),
        )
    }

    struct IdKernel;
    impl Kernel for IdKernel {
        fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
            let id = ctx.dpu_id() as u64;
            ctx.charge_alu(10 * (id + 1)); // skewed load
            ctx.mram_write(0, &id.to_le_bytes())?;
            Ok(())
        }
    }

    #[test]
    fn alloc_respects_capacity() {
        let mut sys = tiny_system();
        assert!(sys.alloc(0).is_err());
        let a = sys.alloc(5).unwrap();
        assert_eq!(sys.available_dpus(), 3);
        assert!(matches!(sys.alloc(4), Err(PimError::Alloc { .. })));
        sys.free(a);
        assert_eq!(sys.available_dpus(), 8);
    }

    #[test]
    fn scatter_gather_round_trip() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(4).unwrap();
        let parts: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i; 16]).collect();
        set.scatter(0, &parts).unwrap();
        let back = gathered(&mut set, 0, 16, None).unwrap();
        assert_eq!(back, parts);
        assert_eq!(set.stats().cpu_to_pim_bytes, 64);
        assert_eq!(set.stats().pim_to_cpu_bytes, 64);
        assert!(set.stats().cpu_to_pim_seconds > 0.0);
    }

    #[test]
    fn scatter_skips_empty_parts_in_time_and_rank_accounting() {
        // 6 DPUs at 2 per rank: parts for DPUs 0..3 carry data, 4..6
        // are empty (the `partition_even` tail when parts > items), so
        // only ranks 0–1 are addressed and rank 2 must not inflate the
        // modelled bandwidth parallelism.
        let mut sys = PimSystem::new(
            PimConfig::builder()
                .dpus(6)
                .dpus_per_rank(2)
                .mram_bytes(1 << 16)
                .build(),
        );
        let mut set = sys.alloc(6).unwrap();
        let parts = vec![
            vec![1u8; 8],
            vec![2u8; 8],
            vec![3u8; 8],
            vec![],
            vec![],
            vec![],
        ];
        set.scatter(0, &parts).unwrap();
        let rec = *set.ledger().records().last().unwrap();
        assert_eq!(rec.bytes, 24);
        assert_eq!(rec.dpus, 3, "empty parts are not addressed");
        assert_eq!(rec.ranks, 2, "the all-empty rank is not touched");
        assert!(rec.seconds > 0.0);

        // Same payload scattered to a 3-DPU set spans the same 2 ranks
        // and must cost exactly the same modelled time: the empty tail
        // is free.
        let mut dense_sys = PimSystem::new(
            PimConfig::builder()
                .dpus(3)
                .dpus_per_rank(2)
                .mram_bytes(1 << 16)
                .build(),
        );
        let mut dense = dense_sys.alloc(3).unwrap();
        dense.scatter(0, &parts[..3]).unwrap();
        let dense_rec = dense.ledger().records().last().unwrap();
        assert_eq!(rec.seconds, dense_rec.seconds);
    }

    #[test]
    fn all_empty_scatter_is_free() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(4).unwrap();
        let parts = vec![Vec::new(); 4];
        set.scatter(0, &parts).unwrap();
        let rec = set.ledger().records().last().unwrap();
        assert_eq!(rec.bytes, 0);
        assert_eq!(rec.dpus, 0);
        assert_eq!(rec.ranks, 0);
        assert_eq!(rec.seconds, 0.0);
        assert_eq!(set.stats().cpu_to_pim_seconds, 0.0);
    }

    #[test]
    fn scatter_part_count_validated() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(4).unwrap();
        let parts = vec![vec![0u8; 4]; 3];
        assert!(matches!(
            set.scatter(0, &parts),
            Err(PimError::BadArgument(_))
        ));
    }

    #[test]
    fn broadcast_reaches_all_dpus() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(3).unwrap();
        set.broadcast(8, &[7u8; 8]).unwrap();
        for dpu in 0..3 {
            assert_eq!(set.copy_from(dpu, 8, 8).unwrap(), vec![7u8; 8]);
        }
    }

    #[test]
    fn launch_reports_skewed_load() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(4).unwrap();
        set.launch(&IdKernel).unwrap();
        let stats = set.last_launch();
        assert_eq!(stats.dpus, 4);
        assert_eq!(stats.max_cycles, 40 * 11 + set.config().cost.dma_cycles(8));
        assert!(stats.imbalance() > 1.0);
        // Each DPU wrote its id.
        for dpu in 0..4 {
            let bytes = set.copy_from(dpu, 0, 8).unwrap();
            assert_eq!(u64::from_le_bytes(bytes.try_into().unwrap()), dpu as u64);
        }
    }

    #[test]
    fn host_access_during_async_launch_is_flagged() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(2).unwrap();
        set.set_sanitize_level(SanitizeLevel::Memory);
        set.launch_async(&IdKernel).unwrap();
        // The launch window is still open: this read races the kernel.
        let _ = set.copy_from(0, 0, 8).unwrap();
        set.sync();
        let report = set.sanitizer_report();
        assert_eq!(report.counts(), [0, 0, 0, 1]);
        // After sync the window is closed; accesses are clean again.
        let _ = set.copy_from(0, 0, 8).unwrap();
        assert_eq!(set.sanitizer_report().counts(), [0, 0, 0, 1]);
    }

    #[test]
    fn sanitized_launch_of_clean_kernel_reports_clean() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(4).unwrap();
        set.set_sanitize_level(SanitizeLevel::Full);
        set.launch(&IdKernel).unwrap();
        assert!(set.sanitizer_report().is_clean());
        assert_eq!(set.sanitizer_report().sanitized_launches, 1);
        assert_eq!(set.last_launch().sanitizer_findings, 0);
    }

    #[test]
    fn sanitize_level_off_records_nothing() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(2).unwrap();
        assert_eq!(set.sanitize_level(), SanitizeLevel::Off);
        set.launch_async(&IdKernel).unwrap();
        let _ = set.copy_from(0, 0, 8).unwrap();
        set.sync();
        assert!(set.sanitizer_report().is_clean());
        assert_eq!(set.sanitizer_report().sanitized_launches, 0);
    }

    struct FaultyOn2;
    impl Kernel for FaultyOn2 {
        fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
            if ctx.dpu_id() == 2 {
                return Err(KernelError::Fault("boom".into()));
            }
            ctx.charge_alu(10);
            Ok(())
        }
    }

    #[test]
    fn kernel_fault_names_dpu() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(4).unwrap();
        match set.launch(&FaultyOn2) {
            Err(PimError::Kernel { dpu, .. }) => assert_eq!(dpu, 2),
            other => panic!("expected kernel fault, got {other:?}"),
        }
    }

    #[test]
    fn mean_cycles_keeps_fractional_part() {
        // Two DPUs at 11 and 22 cycles: the true mean is 16.5 — the old
        // u128 integer division truncated it to 16.0 and skewed
        // imbalance().
        struct Uneven;
        impl Kernel for Uneven {
            fn run(&self, ctx: &mut DpuContext<'_>) -> Result<(), KernelError> {
                ctx.charge_alu(ctx.dpu_id() as u64 + 1);
                Ok(())
            }
        }
        let mut sys = tiny_system();
        let mut set = sys.alloc(2).unwrap();
        set.launch(&Uneven).unwrap();
        let stats = set.last_launch();
        assert_eq!(stats.max_cycles, 22);
        assert_eq!(stats.min_cycles, 11);
        assert_eq!(stats.mean_cycles, 16.5);
        assert!((stats.imbalance() - 22.0 / 16.5).abs() < 1e-12);
    }

    #[test]
    fn faulted_launch_overwrites_last_launch_and_merges_survivors() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(4).unwrap();
        // A first, clean launch seeds last_launch with stale stats.
        set.launch(&IdKernel).unwrap();
        assert!(!set.last_launch().is_faulted());
        let stale_max = set.last_launch().max_cycles;

        assert!(set.launch(&FaultyOn2).is_err());
        let stats = set.last_launch();
        // sync()/last_launch now describe the faulted launch, not the
        // previous one.
        assert_eq!(stats.faulted_dpus, vec![2]);
        assert!(stats.is_faulted());
        assert_eq!(stats.dpus, 4);
        // Survivors (DPUs 0, 1, 3) each charged 10 ALU slots.
        assert_eq!(stats.merged.alu_slots, 30);
        assert_eq!(stats.max_cycles, 10 * 11);
        assert_ne!(stats.max_cycles, stale_max);
        assert_eq!(stats.mean_cycles, 110.0);
        // Accounting: the clean launch counted, the faulted one went to
        // the faulted counters.
        assert_eq!(set.stats().launches, 1);
        assert_eq!(set.stats().faulted_launches, 1);
        assert!(set.stats().faulted_kernel_seconds > 0.0);
        let synced = set.sync().clone();
        assert_eq!(synced.faulted_dpus, vec![2]);
    }

    #[test]
    fn subset_launch_touches_only_selected_dpus() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(4).unwrap();
        let stats = set.launch_subset(&IdKernel, &[1, 3]).unwrap().clone();
        assert_eq!(stats.dpus, 2);
        assert_eq!(stats.max_cycles, 40 * 11 + set.config().cost.dma_cycles(8));
        // Selected DPUs wrote their ids; the others still hold zeros.
        for dpu in [1usize, 3] {
            let bytes = set.copy_from(dpu, 0, 8).unwrap();
            assert_eq!(u64::from_le_bytes(bytes.try_into().unwrap()), dpu as u64);
        }
        for dpu in [0usize, 2] {
            assert_eq!(set.copy_from(dpu, 0, 8).unwrap(), vec![0u8; 8]);
        }
    }

    #[test]
    fn subset_indices_validated() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(4).unwrap();
        assert!(matches!(
            set.launch_subset(&IdKernel, &[]),
            Err(PimError::BadArgument(_))
        ));
        assert!(matches!(
            set.launch_subset(&IdKernel, &[1, 1]),
            Err(PimError::BadArgument(_))
        ));
        assert!(matches!(
            set.launch_subset(&IdKernel, &[3, 1]),
            Err(PimError::BadArgument(_))
        ));
        assert!(matches!(
            set.launch_subset(&IdKernel, &[0, 7]),
            Err(PimError::BadDpu { .. })
        ));
        assert!(matches!(
            gathered(&mut set, 0, 8, Some(&[2, 2])),
            Err(PimError::BadArgument(_))
        ));
        assert!(matches!(
            gathered(&mut set, 0, 8, Some(&[0, 7])),
            Err(PimError::BadDpu { .. })
        ));
        assert!(matches!(
            set.broadcast_subset(0, &[0u8; 8], &[9]),
            Err(PimError::BadDpu { .. })
        ));
    }

    #[test]
    fn subset_gather_and_broadcast_follow_indices() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(4).unwrap();
        set.broadcast_subset(0, &[5u8; 8], &[0, 2]).unwrap();
        let picked = gathered(&mut set, 0, 8, Some(&[0, 2])).unwrap();
        assert_eq!(picked, vec![vec![5u8; 8], vec![5u8; 8]]);
        // DPUs 1 and 3 were not addressed.
        assert_eq!(set.copy_from(1, 0, 8).unwrap(), vec![0u8; 8]);
        assert_eq!(set.copy_from(3, 0, 8).unwrap(), vec![0u8; 8]);
    }

    #[test]
    fn dropped_transfer_charges_time_but_loses_payload() {
        use crate::faults::FaultPlan;
        let mut sys = PimSystem::new(
            PimConfig::builder()
                .dpus(4)
                .mram_bytes(1 << 16)
                .faults(FaultPlan::seeded(1).with_transfer_faults(0.0, 1.0))
                .build(),
        );
        let mut set = sys.alloc(2).unwrap();
        set.broadcast(0, &[9u8; 16]).unwrap();
        // Every payload was dropped in flight; banks still hold zeros.
        for dpu in 0..2 {
            assert_eq!(set.copy_from(dpu, 0, 16).unwrap(), vec![0u8; 16]);
        }
        // The host cannot observe the loss: bytes and seconds recorded.
        assert_eq!(set.stats().cpu_to_pim_bytes, 32);
        assert!(set.stats().cpu_to_pim_seconds > 0.0);
        assert_eq!(set.stats().injected_transfer_faults, 2);
    }

    #[test]
    fn corrupted_transfer_flips_exactly_one_byte() {
        use crate::faults::FaultPlan;
        let mut sys = PimSystem::new(
            PimConfig::builder()
                .dpus(4)
                .mram_bytes(1 << 16)
                .faults(FaultPlan::seeded(2).with_transfer_faults(1.0, 0.0))
                .build(),
        );
        let mut set = sys.alloc(1).unwrap();
        let payload: Vec<u8> = (0..128).map(|i| i as u8).collect();
        set.copy_to(0, 0, &payload).unwrap();
        let landed = set.copy_from(0, 0, 128).unwrap();
        let diffs: Vec<usize> = (0..128).filter(|&i| landed[i] != payload[i]).collect();
        assert_eq!(diffs.len(), 1, "exactly one byte must differ");
        assert_eq!((landed[diffs[0]] ^ payload[diffs[0]]).count_ones(), 1, "one bit flipped");
        assert_eq!(set.stats().injected_transfer_faults, 1);
    }

    #[test]
    fn gather_into_matches_gather_with() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(4).unwrap();
        let parts: Vec<Vec<u8>> = (0..4u8).map(|i| vec![i + 1; 16]).collect();
        set.scatter(0, &parts).unwrap();
        let nested = gathered(&mut set, 0, 16, None).unwrap();
        let mut flat = vec![0u8; 16 * 4];
        set.gather_into(0, 16, &mut flat).unwrap();
        for (i, part) in nested.iter().enumerate() {
            assert_eq!(&flat[i * 16..(i + 1) * 16], part.as_slice());
        }
        // Same transfer accounting as the allocating variant.
        let records = set.ledger().records();
        let (a, b) = (&records[records.len() - 2], &records[records.len() - 1]);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.dpus, b.dpus);
        assert_eq!(a.seconds, b.seconds);
        // A mis-sized buffer is rejected before any read.
        let mut short = vec![0u8; 7];
        assert!(matches!(
            set.gather_into(0, 16, &mut short),
            Err(PimError::BadArgument(_))
        ));
    }

    #[test]
    fn subset_gather_visits_in_index_order() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(4).unwrap();
        let parts: Vec<Vec<u8>> = (0..4u8).map(|i| vec![10 * (i + 1); 8]).collect();
        set.scatter(0, &parts).unwrap();
        let picked = gathered(&mut set, 0, 8, Some(&[1, 3])).unwrap();
        assert_eq!(picked, vec![parts[1].clone(), parts[3].clone()]);
        assert!(matches!(
            gathered(&mut set, 0, 8, Some(&[3, 1])),
            Err(PimError::BadArgument(_))
        ));
    }

    #[test]
    fn gather_with_records_the_gather_into_transfer() {
        // 128 DPUs = 2 ranks of 64; the subset {1, 63, 64} straddles both.
        let mut sys = PimSystem::new(PimConfig::builder().dpus(128).mram_bytes(1 << 17).build());
        let mut set = sys.alloc(128).unwrap();
        let parts: Vec<Vec<u8>> = (0..128u8).map(|i| vec![i; 8]).collect();
        set.scatter(0, &parts).unwrap();
        // DPU 5's bytes straddle a segment boundary, so the visitor sees
        // both the borrowed and the buffered read.
        let straddle = crate::memory::BANK_SEGMENT_BYTES - 4;
        set.copy_to(5, straddle, &[0xAB; 8]).unwrap();
        for (offset, subset) in [(0, None), (straddle, None), (0, Some(&[1, 63, 64][..]))] {
            let ix: Vec<usize> = subset.map_or_else(|| (0..128).collect(), <[usize]>::to_vec);
            let mut want = Vec::new();
            for &i in &ix {
                want.extend(set.copy_from(i, offset, 8).unwrap());
            }
            let mut seen = Vec::new();
            set.gather_with(offset, 8, subset, |b| seen.extend_from_slice(b))
                .unwrap();
            let rec = *set.ledger().records().last().unwrap();
            assert_eq!(seen, want);
            assert_eq!((rec.bytes, rec.dpus, rec.ranks), (8 * ix.len() as u64, ix.len(), 2));
            if subset.is_none() {
                let mut flat = vec![0u8; 8 * 128];
                set.gather_into(offset, 8, &mut flat).unwrap();
                assert_eq!(*set.ledger().records().last().unwrap(), rec);
                assert_eq!(flat, seen);
            }
        }
        assert!(matches!(
            set.gather_with(0, 8, Some(&[3, 2]), |_| {}),
            Err(PimError::BadArgument(_))
        ));
    }

    #[test]
    fn clean_delivery_is_byte_identical_under_a_fault_plan() {
        use crate::faults::FaultPlan;
        // A fault plan with zero transfer-fault probability exercises the
        // fault-aware deliver path; payloads still land untouched.
        let mut sys = PimSystem::new(
            PimConfig::builder()
                .dpus(2)
                .mram_bytes(1 << 16)
                .faults(FaultPlan::seeded(3).with_transfer_faults(0.0, 0.0))
                .build(),
        );
        let mut set = sys.alloc(2).unwrap();
        let payload: Vec<u8> = (0..64u8).collect();
        set.copy_to(0, 0, &payload).unwrap();
        assert_eq!(set.copy_from(0, 0, 64).unwrap(), payload);
        assert_eq!(set.stats().injected_transfer_faults, 0);
    }

    #[test]
    fn subset_transfers_charge_distinct_ranks() {
        // 128 DPUs = 2 ranks of 64. The subset {0, 64} has only two
        // DPUs but straddles both ranks: the unified charging semantics
        // bills it for 2 ranks of parallelism, not ranks_for(2) == 1 as
        // a dense packing of its size would.
        let mut sys = PimSystem::new(PimConfig::builder().dpus(128).mram_bytes(1 << 16).build());
        let mut set = sys.alloc(128).unwrap();
        let t = set.config().transfer.clone();
        set.broadcast_subset(0, &[1u8; 64], &[0, 64]).unwrap();
        let rec = *set.ledger().records().last().unwrap();
        assert_eq!(rec.ranks, 2);
        assert!((rec.seconds - t.broadcast_seconds(64, 2, 2)).abs() < 1e-15);
        // A subset confined to one rank is charged one rank.
        gathered(&mut set, 0, 8, Some(&[1, 2, 63])).unwrap();
        let rec = *set.ledger().records().last().unwrap();
        assert_eq!(rec.ranks, 1);
        assert!((rec.seconds - t.scatter_gather_seconds(8 * 3, 1)).abs() < 1e-15);
        // Full-set operations keep the dense count: 128 DPUs, 2 ranks.
        gathered(&mut set, 0, 8, None).unwrap();
        let rec = *set.ledger().records().last().unwrap();
        assert_eq!(rec.ranks, 2);
        assert!((rec.seconds - t.scatter_gather_seconds(8 * 128, 2)).abs() < 1e-15);
        // A two-DPU subset straddling both ranks is charged both.
        gathered(&mut set, 0, 8, Some(&[0, 64])).unwrap();
        let rec = *set.ledger().records().last().unwrap();
        assert_eq!(rec.ranks, 2);
    }

    #[test]
    fn paper_scale_sparse_workload_stays_lazy() {
        // Full 64-MB banks at the paper's 2,524-DPU scale: an eager
        // allocator would commit 2,524 × 64 MB ≈ 158 GB up front. A
        // sparse workload touching ~4 KB per DPU must materialize well
        // under 10% of that.
        let mut sys = PimSystem::new(PimConfig::default());
        let mut set = sys.alloc(2524).unwrap();
        let parts: Vec<Vec<u8>> = (0..2524).map(|i| vec![i as u8; 4096]).collect();
        set.scatter(32 << 20, &parts).unwrap();
        let stats = set.memory_stats();
        let eager = 2524u64 * (64 << 20);
        assert!(
            stats.bank_peak_bytes < eager / 10,
            "sparse run materialized {} of {} eager bytes",
            stats.bank_peak_bytes,
            eager
        );
        // Exactly one 64-KB segment per DPU (4 KB at a segment-aligned
        // offset), and the data is really there.
        assert_eq!(stats.bank_bytes, 2524 * 64 * 1024);
        assert_eq!(set.copy_from(1234, 32 << 20, 4096).unwrap(), parts[1234]);
    }

    #[test]
    fn freed_sets_return_segments_to_the_arena_pool() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(4).unwrap();
        set.broadcast(0, &[9u8; 1024]).unwrap();
        let after_first = sys.memory_stats();
        assert!(after_first.bank_bytes > 0);
        assert_eq!(after_first.bank_bytes, set.memory_stats().bank_bytes);
        sys.free(set);
        let freed = sys.memory_stats();
        // Dropping the set released every segment into the pool: no
        // bank bytes are live, but the arena keeps its footprint for
        // reuse.
        assert_eq!(freed.bank_bytes, 0);
        assert_eq!(freed.arena_bytes, after_first.bank_bytes);
        // A second set draws from the pool: the footprint peak does not
        // grow.
        let mut set = sys.alloc(4).unwrap();
        set.broadcast(0, &[5u8; 1024]).unwrap();
        let reused = sys.memory_stats();
        assert_eq!(reused.bank_bytes, after_first.bank_bytes);
        assert_eq!(reused.arena_peak_bytes, freed.arena_peak_bytes);
    }

    /// Sums the 8-byte little-endian words a fold sees.
    fn fold_words(sum: &mut u64, bytes: &[u8]) {
        let word: [u8; 8] = bytes[..8].try_into().unwrap();
        *sum += u64::from_le_bytes(word);
    }

    #[test]
    fn sync_round_records_what_the_stepwise_calls_record() {
        let parts: Vec<Vec<u8>> = (0..5u8).map(|i| vec![i + 1; 24]).collect();
        let data = [7u8; 16];
        for engine in [
            crate::engine::ExecutionEngine::Serial,
            crate::engine::ExecutionEngine::Threaded { workers: 3 },
        ] {
            let config = PimConfig::builder()
                .dpus(8)
                .dpus_per_rank(2)
                .mram_bytes(1 << 16)
                .engine(engine)
                .build();
            let mut stepwise = PimSystem::new(config.clone()).alloc(5).unwrap();
            stepwise.scatter(8, &parts).unwrap();
            stepwise.broadcast(64, &data).unwrap();
            stepwise.launch(&IdKernel).unwrap();
            let mut want = 0u64;
            stepwise
                .gather_with(0, 16, None, |b| fold_words(&mut want, b))
                .unwrap();

            let mut fused = PimSystem::new(config).alloc(5).unwrap();
            let deliveries = [
                Delivery::Scatter {
                    offset: 8,
                    parts: &parts,
                },
                Delivery::Broadcast {
                    offset: 64,
                    data: &data,
                },
            ];
            let mut seen_stats = None;
            let mut sums = vec![0u64; 3];
            let launched = fused
                .sync_round(
                    &deliveries,
                    &IdKernel,
                    None,
                    0..16,
                    |stats| {
                        seen_stats = Some(stats.clone());
                        true
                    },
                    &mut sums,
                    |sum, dpu, b| {
                        // `IdKernel` wrote each DPU's index at offset 0.
                        assert_eq!(b[..8], (dpu as u64).to_le_bytes());
                        fold_words(sum, b);
                    },
                )
                .unwrap();
            assert!(launched);
            fused.gather_folded(0, 16, None, &[], |_| {}).unwrap();
            assert_eq!(sums.iter().sum::<u64>(), want, "{engine:?}");
            // The hook saw the deliveries recorded and nothing else.
            let seen = seen_stats.unwrap();
            assert_eq!((seen.cpu_to_pim_bytes, seen.launches), (5 * 24 + 5 * 16, 0));
            assert_eq!(fused.ledger().records(), stepwise.ledger().records(), "{engine:?}");
            assert_eq!(fused.stats(), stepwise.stats(), "{engine:?}");
            assert_eq!(fused.last_launch(), stepwise.last_launch(), "{engine:?}");
            assert_eq!(fused.transfer_seq, stepwise.transfer_seq, "{engine:?}");
            for dpu in 0..5 {
                assert_eq!(
                    fused.copy_from(dpu, 0, 96).unwrap(),
                    stepwise.copy_from(dpu, 0, 96).unwrap(),
                    "{engine:?}, DPU {dpu}"
                );
            }
        }
    }

    #[test]
    fn a_stopped_sync_round_only_delivers() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(3).unwrap();
        let mut sums = [0u64];
        let launched = set
            .sync_round(
                &[Delivery::Broadcast {
                    offset: 32,
                    data: &[5u8; 8],
                }],
                &IdKernel,
                None,
                0..8,
                |_| false,
                &mut sums,
                |sum, _, b| fold_words(sum, b),
            )
            .unwrap();
        assert!(!launched);
        assert_eq!(sums, [0]);
        assert_eq!(set.stats().launches, 0);
        assert_eq!(set.ledger().records().len(), 1, "only the broadcast");
        for dpu in 0..3 {
            assert_eq!(set.copy_from(dpu, 32, 8).unwrap(), vec![5u8; 8]);
            assert_eq!(set.copy_from(dpu, 0, 8).unwrap(), vec![0u8; 8], "no kernel ran");
        }
    }

    #[test]
    fn sync_round_refuses_before_recording_anything() {
        let capacity = 1 << 16;
        let good = vec![vec![1u8; 8]; 2];
        let mut with_long = good.clone();
        with_long[1] = vec![1u8; 16];
        let scatter = |offset, parts| vec![Delivery::Scatter { offset, parts }];
        let broadcast = |offset, data| Delivery::Broadcast { offset, data };
        let cases = [
            ("no slots", None, vec![], 0..8),
            ("bad indices", Some(&[1, 0][..]), vec![], 0..8),
            ("part count", None, scatter(0, &good[..1]), 0..8),
            ("scatter range", None, scatter(capacity - 8, &with_long), 0..8),
            ("broadcast range", None, vec![broadcast(usize::MAX, &[1])], 0..8),
            ("fold range", None, vec![], capacity - 4..capacity + 4),
            // A valid delivery ahead of the bad one records nothing either.
            ("late refusal", None, [scatter(0, &good), vec![broadcast(capacity, &[1])]].concat(), 0..8),
        ];
        for (what, indices, deliveries, fold_bytes) in cases {
            let config = PimConfig::builder().dpus(4).mram_bytes(capacity).build();
            let mut set = PimSystem::new(config).alloc(2).unwrap();
            set.broadcast(0, &[3u8; 8]).unwrap();
            let (ledger, stats, seq) = (set.ledger().clone(), set.stats().clone(), set.transfer_seq);
            let mut sums = vec![0u64; usize::from(what != "no slots")];
            let result = set.sync_round(
                &deliveries,
                &IdKernel,
                indices,
                fold_bytes,
                |_| panic!("{what}: the hook ran"),
                &mut sums,
                |sum, _, b| fold_words(sum, b),
            );
            assert!(
                matches!(result, Err(PimError::BadArgument(_) | PimError::Memory(_))),
                "{what}: {result:?}"
            );
            assert_eq!(set.ledger(), &ledger, "{what}");
            assert_eq!(set.stats(), &stats, "{what}");
            assert_eq!(set.transfer_seq, seq, "{what}");
            assert_eq!(set.copy_from(1, 0, 16).unwrap(), [[3u8; 8], [0u8; 8]].concat(), "{what}");
        }
    }

    #[test]
    fn gather_ranges_visits_each_range_in_dpu_order() {
        let mut sys = PimSystem::new(
            PimConfig::builder()
                .dpus(8)
                .mram_bytes(1 << 16)
                .engine(crate::engine::ExecutionEngine::Threaded { workers: 3 })
                .build(),
        );
        let mut set = sys.alloc(6).unwrap();
        let parts: Vec<Vec<u8>> = (0..6u8).map(|i| (0..24).map(|b| i * 24 + b).collect()).collect();
        set.scatter(0, &parts).unwrap();
        for indices in [None, Some(&[1, 4, 5][..])] {
            let mut pieces: Vec<(Range<usize>, Vec<u8>)> =
                [0..5, 5..16, 16..24].into_iter().map(|r| (r, Vec::new())).collect();
            set.gather_ranges(0, 24, indices, &mut pieces, |seen, b| seen.extend_from_slice(b))
                .unwrap();
            let want = gathered(&mut set, 0, 24, indices).unwrap();
            let records = set.ledger().records();
            assert_eq!(records[records.len() - 2], records[records.len() - 1], "one Gather each");
            for (range, seen) in &pieces {
                let expect: Vec<u8> = want.iter().flat_map(|t| t[range.clone()].to_vec()).collect();
                assert_eq!(seen, &expect, "{indices:?}, {range:?}");
            }
        }
        let mut outside = [(20..25, Vec::new())];
        assert!(matches!(
            set.gather_ranges(0, 24, None, &mut outside, |_: &mut Vec<u8>, _| {}),
            Err(PimError::BadArgument(_))
        ));
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut sys = tiny_system();
        let mut set = sys.alloc(2).unwrap();
        set.broadcast(0, &[1u8; 32]).unwrap();
        set.launch(&IdKernel).unwrap();
        assert_eq!(set.stats().launches, 1);
        assert!(set.stats().total_seconds() > 0.0);
        set.reset_stats();
        assert_eq!(set.stats().launches, 0);
        assert_eq!(set.stats().total_seconds(), 0.0);
        assert!(set.ledger().records().is_empty());
    }
}
