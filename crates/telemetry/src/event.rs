//! Typed events forming the telemetry stream.
//!
//! Every event is emitted **host-side**, after any per-worker state has
//! been merged in DPU-index order (the same ordered merge that makes
//! `LaunchStats` engine-invariant), so the stream is byte-identical
//! between the serial and threaded execution engines by construction.
//! Kernel regions must never emit events — analyzer rule K008 enforces
//! this statically.
//!
//! All fields are primitives (or vectors of primitives) so the stream
//! can be compared with `==`, rendered to JSON deterministically, and
//! replayed without touching simulator types.

/// Direction/shape of a host↔PIM bulk transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferKind {
    /// Host → one DPU, `copy_to`.
    CopyTo,
    /// One DPU → host, `copy_from`.
    CopyFrom,
    /// Host → all DPUs, distinct chunk per DPU (`scatter`).
    Scatter,
    /// Host → all (or a subset of) DPUs, same bytes replicated
    /// (`broadcast` / `broadcast_subset`).
    Broadcast,
    /// All (or a subset of) DPUs → host (`gather` family, including the
    /// zero-copy `_into` variants).
    Gather,
}

impl TransferKind {
    /// Stable lowercase name used in JSON artifacts and trace labels.
    pub fn name(self) -> &'static str {
        match self {
            TransferKind::CopyTo => "copy_to",
            TransferKind::CopyFrom => "copy_from",
            TransferKind::Scatter => "scatter",
            TransferKind::Broadcast => "broadcast",
            TransferKind::Gather => "gather",
        }
    }

    /// Whether bytes flow from the host into PIM memory.
    pub fn is_cpu_to_pim(self) -> bool {
        matches!(
            self,
            TransferKind::CopyTo | TransferKind::Scatter | TransferKind::Broadcast
        )
    }
}

/// What an injected transfer fault did to the payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransferFaultKind {
    /// The transfer was silently dropped (bytes never arrived).
    Dropped,
    /// One byte of the payload was flipped in place.
    Corrupted,
}

impl TransferFaultKind {
    /// Stable lowercase name used in JSON artifacts and trace labels.
    pub fn name(self) -> &'static str {
        match self {
            TransferFaultKind::Dropped => "dropped",
            TransferFaultKind::Corrupted => "corrupted",
        }
    }
}

/// Cycle-class totals mirroring `swiftrl_pim::cost::CycleCounter`,
/// duplicated here (primitives only) so the telemetry crate stays a
/// dependency-free leaf.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleClassTotals {
    /// Native ALU instruction slots charged.
    pub alu_slots: u64,
    /// WRAM access slots charged.
    pub wram_slots: u64,
    /// Control-flow slots charged.
    pub control_slots: u64,
    /// Slots executed by the integer multiply/divide emulation routines.
    pub int_emul_slots: u64,
    /// Slots executed by the soft-float runtime library.
    pub float_emul_slots: u64,
    /// Cycles spent in MRAM↔WRAM DMA transfers.
    pub dma_cycles: u64,
    /// Bytes moved over the MRAM↔WRAM DMA engine.
    pub dma_bytes: u64,
}

impl CycleClassTotals {
    /// Accumulates another total into this one.
    pub fn merge(&mut self, other: &CycleClassTotals) {
        self.alu_slots += other.alu_slots;
        self.wram_slots += other.wram_slots;
        self.control_slots += other.control_slots;
        self.int_emul_slots += other.int_emul_slots;
        self.float_emul_slots += other.float_emul_slots;
        self.dma_cycles += other.dma_cycles;
        self.dma_bytes += other.dma_bytes;
    }

    /// Total instruction slots charged (everything except DMA).
    pub fn total_slots(&self) -> u64 {
        self.alu_slots
            + self.wram_slots
            + self.control_slots
            + self.int_emul_slots
            + self.float_emul_slots
    }
}

/// One host-observed occurrence on the simulated timeline.
///
/// Durations are simulated seconds (the same numbers that feed
/// `TimeBreakdown`), never host wall-clock, so the stream is fully
/// deterministic for a given configuration and dataset.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A kernel binary was loaded onto every DPU.
    ProgramLoad {
        /// Number of DPUs the program was pushed to.
        dpus: usize,
        /// Total bytes written across all DPUs.
        bytes: u64,
        /// Simulated seconds the load occupied the host.
        seconds: f64,
    },
    /// A bulk host↔PIM data transfer.
    Transfer {
        /// Direction/shape of the transfer.
        kind: TransferKind,
        /// Total bytes moved across all participating DPUs.
        bytes: u64,
        /// Number of DPUs that took part.
        dpus: usize,
        /// Simulated seconds under the transfer bandwidth model.
        seconds: f64,
    },
    /// The fault plan dropped or corrupted a host transfer.
    TransferFault {
        /// What happened to the payload.
        kind: TransferFaultKind,
        /// Monotonic per-`DpuSet` transfer sequence number the fault
        /// keyed on (deterministic across engines).
        seq: u64,
        /// Index of the DPU whose payload was hit.
        dpu: usize,
    },
    /// One kernel launch across a DPU set (or a retried subset).
    KernelLaunch {
        /// DPUs that completed the launch (survivors).
        dpus: usize,
        /// Slowest surviving DPU's cycle count — the launch critical path.
        max_cycles: u64,
        /// Fastest surviving DPU's cycle count.
        min_cycles: u64,
        /// Mean cycles over surviving DPUs.
        mean_cycles: f64,
        /// Simulated seconds: `max_cycles / f_clk`.
        seconds: f64,
        /// Per-DPU `(dpu_index, cycles)` spans in ascending index order
        /// (the ordered-merge order); survivors only.
        dpu_cycles: Vec<(usize, u64)>,
        /// Indices of DPUs the fault plan aborted this launch.
        faulted_dpus: Vec<usize>,
        /// Cycle-class totals merged over surviving DPUs.
        classes: CycleClassTotals,
        /// Sanitizer findings attributed to this launch.
        sanitizer_findings: u64,
    },
    /// A synchronization round completed: Q-tables gathered, averaged
    /// and re-broadcast.
    SyncRound {
        /// Zero-based round index within the run.
        round: u32,
        /// DPUs still participating (shrinks under degradation).
        live_dpus: usize,
    },
    /// Host-side aggregation (Q-table averaging) on the simulated clock.
    HostAggregate {
        /// Number of per-DPU tables reduced.
        tables: usize,
        /// Bytes in one table.
        bytes: u64,
        /// Simulated seconds under the host aggregate bandwidth model.
        seconds: f64,
    },
    /// The resilience layer re-launched the faulted subset of a launch.
    Retry {
        /// 1-based attempt number for this launch.
        attempt: u32,
        /// DPU indices being retried, ascending.
        dpus: Vec<usize>,
    },
    /// The resilience layer rolled the run back to a checkpoint.
    Rollback {
        /// Synchronization round the Q-table was restored from.
        to_round: u32,
    },
    /// DPUs were declared dead and their work remapped onto survivors.
    Degradation {
        /// Indices of the DPUs dropped from the run, ascending.
        dead_dpus: Vec<usize>,
        /// DPUs remaining after the remap.
        survivors: usize,
    },
    /// Fleet-wide bank-memory ceilings observed by the run: how many
    /// bank bytes the lazily-materialized banks actually held (current
    /// and peak) and the footprint of the segment arena backing them.
    /// Emitted host-side at the end of a run; engine-invariant because
    /// launches only ever *allocate* segments (a segment is released
    /// only when its bank drops, on the single-threaded host paths), so
    /// the peak is a monotone function of the touched working set.
    MemoryCeilings {
        /// Bank bytes currently materialized across the fleet.
        bank_bytes: u64,
        /// Peak bank bytes materialized at any point in the run.
        bank_peak_bytes: u64,
        /// Arena footprint (live + pooled segments) in bytes.
        arena_bytes: u64,
        /// Peak arena footprint in bytes.
        arena_peak_bytes: u64,
    },
}

impl Event {
    /// Stable snake_case name of the event variant, used as the JSON
    /// `"event"` discriminator and trace label.
    pub fn name(&self) -> &'static str {
        match self {
            Event::ProgramLoad { .. } => "program_load",
            Event::Transfer { .. } => "transfer",
            Event::TransferFault { .. } => "transfer_fault",
            Event::KernelLaunch { .. } => "kernel_launch",
            Event::SyncRound { .. } => "sync_round",
            Event::HostAggregate { .. } => "host_aggregate",
            Event::Retry { .. } => "retry",
            Event::Rollback { .. } => "rollback",
            Event::Degradation { .. } => "degradation",
            Event::MemoryCeilings { .. } => "memory_ceilings",
        }
    }

    /// Simulated seconds this event occupies on the host timeline
    /// (instantaneous events return 0).
    pub fn seconds(&self) -> f64 {
        match self {
            Event::ProgramLoad { seconds, .. }
            | Event::Transfer { seconds, .. }
            | Event::KernelLaunch { seconds, .. }
            | Event::HostAggregate { seconds, .. } => *seconds,
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_names_are_stable() {
        assert_eq!(TransferKind::Scatter.name(), "scatter");
        assert_eq!(TransferKind::Gather.name(), "gather");
        assert!(TransferKind::Broadcast.is_cpu_to_pim());
        assert!(!TransferKind::CopyFrom.is_cpu_to_pim());
        assert_eq!(TransferFaultKind::Dropped.name(), "dropped");
    }

    #[test]
    fn class_totals_merge_and_sum() {
        let mut a = CycleClassTotals {
            alu_slots: 1,
            wram_slots: 2,
            control_slots: 3,
            int_emul_slots: 4,
            float_emul_slots: 5,
            dma_cycles: 6,
            dma_bytes: 7,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.total_slots(), 2 * (1 + 2 + 3 + 4 + 5));
        assert_eq!(a.dma_bytes, 14);
    }

    #[test]
    fn event_names_and_durations() {
        let e = Event::Transfer {
            kind: TransferKind::Broadcast,
            bytes: 64,
            dpus: 4,
            seconds: 0.5,
        };
        assert_eq!(e.name(), "transfer");
        assert_eq!(e.seconds(), 0.5);
        let i = Event::Rollback { to_round: 3 };
        assert_eq!(i.name(), "rollback");
        assert_eq!(i.seconds(), 0.0);
        let m = Event::MemoryCeilings {
            bank_bytes: 1,
            bank_peak_bytes: 2,
            arena_bytes: 3,
            arena_peak_bytes: 4,
        };
        assert_eq!(m.name(), "memory_ceilings");
        assert_eq!(m.seconds(), 0.0);
    }
}
