//! Bank memory that follows the bytes a run writes: segment buffers are
//! only as long as their written bytes and are recycled across fleets
//! through a process-wide spare list. Neither may show through — a
//! recycled buffer never leaks a previous fleet's bytes — and the
//! accounting still counts whole segments.

use swiftrl::core::config::{RunConfig, WorkloadSpec};
use swiftrl::core::runner::{PimRunner, RunOutcome};
use swiftrl::env::collect::collect_random;
use swiftrl::env::taxi::Taxi;
use swiftrl::pim::config::{ExecTier, PimConfig};
use swiftrl::pim::host::PimSystem;
use swiftrl::pim::memory::BANK_SEGMENT_BYTES;
use std::sync::{Mutex, MutexGuard};

const SEG: usize = BANK_SEGMENT_BYTES;

/// The spare list is process-wide: each test holds this lock so another
/// test's fleet cannot take the buffers it stained first.
fn spare_list() -> MutexGuard<'static, ()> {
    static SPARE_LIST: Mutex<()> = Mutex::new(());
    SPARE_LIST.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Allocates a fleet on `platform`, fills the first two whole MRAM
/// segments of every DPU with `0xFF`, and drops it, leaving its
/// buffers on the spare list.
fn stain_and_drop(platform: &PimConfig) {
    let mut system = PimSystem::new(platform.clone());
    let mut set = system.alloc(platform.dpus).unwrap();
    let ones = vec![0xFFu8; 2 * SEG];
    for dpu in 0..platform.dpus {
        set.copy_to(dpu, 0, &ones).unwrap();
    }
    assert_eq!(set.memory_stats().bank_bytes, (2 * SEG * platform.dpus) as u64);
}

#[test]
fn no_stale_bytes_across_fleets() {
    let _spares = spare_list();
    let dpus = 16;
    let platform = PimConfig::builder().dpus(dpus).exec_tier(ExecTier::Batched).build();
    let dataset = collect_random(&mut Taxi::new(), 2_000, 3);
    let cfg = RunConfig::paper_defaults()
        .with_dpus(dpus)
        .with_episodes(4)
        .with_tau(2);
    let run = || {
        PimRunner::with_platform(WorkloadSpec::q_learning_seq_int32(), cfg, platform.clone())
            .unwrap()
            .run(&dataset)
            .unwrap()
    };
    let first = run();

    stain_and_drop(&platform);
    let mut system = PimSystem::new(platform.clone());
    let mut set = system.alloc(dpus).unwrap();
    for dpu in 0..dpus {
        // Unwritten banks read zero.
        assert!(set.copy_from(dpu, 0, 2 * SEG).unwrap().iter().all(|&b| b == 0));
        // A small write materializes a segment on a recycled buffer;
        // every byte past it still reads zero.
        set.copy_to(dpu, 8, &[1u8; 8]).unwrap();
        let back = set.copy_from(dpu, 0, 2 * SEG).unwrap();
        assert_eq!(&back[8..16], &[1u8; 8]);
        assert!(back[..8].iter().chain(&back[16..]).all(|&b| b == 0), "dpu {dpu}");
        // Writing the segment's last word grows the buffer over its old
        // capacity; the whole segment, lent as one slice, is zeros around
        // the two writes.
        set.copy_to(dpu, SEG - 8, &[2u8; 8]).unwrap();
    }
    let mut lent = 0;
    set.gather_with(0, SEG, None, |bytes| {
        assert_eq!(&bytes[8..16], &[1u8; 8]);
        assert_eq!(&bytes[SEG - 8..], &[2u8; 8]);
        assert!(bytes[..8].iter().chain(&bytes[16..SEG - 8]).all(|&b| b == 0));
        lent += 1;
    })
    .unwrap();
    assert_eq!(lent, dpus);
    drop(set);
    drop(system);

    stain_and_drop(&platform);
    let second = run();
    assert_eq!(first.q_table.to_bytes(), second.q_table.to_bytes());
    assert_eq!(first.breakdown, second.breakdown);
    assert_eq!(first.memory, second.memory);
}

/// The paper-scale Batched run: Taxi, 20k transitions, Q-SEQ-INT32,
/// 40 episodes, τ = 20, 2,524 DPUs.
fn paper_scale_run() -> RunOutcome {
    let dpus = 2_524;
    let dataset = collect_random(&mut Taxi::new(), 20_000, 5);
    let cfg = RunConfig::paper_defaults()
        .with_dpus(dpus)
        .with_episodes(40)
        .with_tau(20);
    let platform = PimConfig::builder().dpus(dpus).exec_tier(ExecTier::Batched).build();
    PimRunner::with_platform(WorkloadSpec::q_learning_seq_int32(), cfg, platform)
        .unwrap()
        .run(&dataset)
        .unwrap()
}

/// Every DPU writes well under one segment (64 B header, 12 KB Q-table,
/// a few replay records), yet the accounting charges each its whole
/// first segment, and a second run — drawing recycled buffers — reports
/// the same numbers.
#[test]
fn paper_scale_runs_account_whole_segments_every_time() {
    let _spares = spare_list();
    let first = paper_scale_run();
    let second = paper_scale_run();
    let whole = 2_524 * SEG as u64;
    assert_eq!(first.memory.bank_peak_bytes, whole);
    assert_eq!(first.memory.arena_peak_bytes, whole);
    assert_eq!(first.memory, second.memory);
    assert_eq!(first.q_table.to_bytes(), second.q_table.to_bytes());
}
