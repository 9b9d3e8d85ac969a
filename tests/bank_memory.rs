//! Bank memory that follows the bytes a run writes: segment buffers are
//! only as long as their written bytes and are recycled across fleets
//! through a process-wide spare list. Neither may show through — a
//! recycled buffer never leaks a previous fleet's bytes — and the
//! accounting still counts whole segments. The MRAM↔WRAM copies, with
//! their one-segment fast path, behave exactly like a staged read and
//! write.

use swiftrl::core::config::{RunConfig, WorkloadSpec};
use swiftrl::core::runner::{PimRunner, RunOutcome};
use swiftrl::env::collect::collect_random;
use swiftrl::env::taxi::Taxi;
use swiftrl::pim::config::{ExecTier, PimConfig};
use swiftrl::pim::host::PimSystem;
use swiftrl::pim::memory::{Bank, DpuMemory, MemoryError, BANK_SEGMENT_BYTES};
use swiftrl::pim::{FleetArena, MemoryStats};
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

/// The memory gauges depend on the execution tier, by exactly one WRAM
/// segment per DPU: an interpreted launch (`Fast`, `Reference`) stages
/// the Q-table and records through the 64 KiB WRAM bank, which
/// materializes it, while a batched launch models the WRAM working set
/// without touching it. Everything else about the runs is identical.
#[test]
fn interpreted_runs_count_one_wram_segment_per_dpu_more_than_batched() {
    let _spares = spare_list();
    let dpus = 8;
    let dataset = collect_random(&mut Taxi::new(), 2_000, 3);
    let cfg = RunConfig::paper_defaults()
        .with_dpus(dpus)
        .with_episodes(4)
        .with_tau(2);
    let run = |tier| {
        let platform = PimConfig::builder().dpus(dpus).exec_tier(tier).build();
        PimRunner::with_platform(WorkloadSpec::q_learning_seq_int32(), cfg, platform)
            .unwrap()
            .run(&dataset)
            .unwrap()
    };
    let batched = run(ExecTier::Batched);
    let one_segment_each = (dpus * SEG) as u64;
    assert_eq!(batched.memory.bank_peak_bytes, one_segment_each);
    assert_eq!(batched.memory.arena_peak_bytes, one_segment_each);
    for tier in [ExecTier::Fast, ExecTier::Reference] {
        let interpreted = run(tier);
        assert_eq!(batched.q_table.to_bytes(), interpreted.q_table.to_bytes());
        assert_eq!(batched.breakdown, interpreted.breakdown);
        assert_eq!(interpreted.memory.bank_peak_bytes, 2 * one_segment_each, "{tier:?}");
        assert_eq!(interpreted.memory.arena_peak_bytes, 2 * one_segment_each, "{tier:?}");
    }
}

/// MRAM of two full segments plus a sub-granule tail; WRAM of one.
const MRAM_BYTES: usize = 2 * SEG + 4096;
const WRAM_BYTES: usize = SEG;

/// Which way a copy runs.
#[derive(Clone, Copy, Debug)]
enum Direction {
    MramToWram,
    WramToMram,
}

/// Everything a copy may change, MRAM then WRAM.
#[derive(Debug, PartialEq)]
struct Fingerprint {
    bytes: [Vec<u8>; 2],
    /// Each segment's written length (`None`: unmaterialized).
    written: [Vec<Option<usize>>; 2],
    allocated: [usize; 2],
    stats: MemoryStats,
}

fn written_lens(bank: &Bank) -> Vec<Option<usize>> {
    (0..bank.capacity().div_ceil(SEG))
        .map(|index| {
            let start = index * SEG;
            bank.slice(start, 0)?;
            // `slice` lends only written bytes: find the longest prefix.
            let (mut lo, mut hi) = (0, SEG.min(bank.capacity() - start));
            while lo < hi {
                let mid = (lo + hi).div_ceil(2);
                if bank.slice(start, mid).is_some() {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            Some(lo)
        })
        .collect()
}

fn fingerprint(memory: &DpuMemory, arena: &FleetArena) -> Fingerprint {
    let bytes = |bank: &Bank| {
        let mut all = vec![0u8; bank.capacity()];
        bank.read(0, &mut all).unwrap();
        all
    };
    Fingerprint {
        bytes: [bytes(&memory.mram), bytes(&memory.wram)],
        written: [written_lens(&memory.mram), written_lens(&memory.wram)],
        allocated: [memory.mram.allocated_bytes(), memory.wram.allocated_bytes()],
        stats: arena.stats(),
    }
}

fn is_materialized(bank: &Bank, at: usize) -> bool {
    bank.slice(at - at % SEG, 0).is_some()
}

/// The copy's specification: read the source range into a zeroed
/// buffer, check the destination range, then write the buffer piece by
/// piece, skipping every piece whose source and destination segments
/// are both unmaterialized (zeros copied there would read back as zeros
/// anyway, so they materialize nothing).
fn staged_copy(
    src: &Bank,
    dst: &mut Bank,
    src_offset: usize,
    dst_offset: usize,
    len: usize,
) -> Result<(), MemoryError> {
    let mut staged = vec![0u8; len];
    src.read(src_offset, &mut staged)?;
    dst.read(dst_offset, &mut vec![0u8; len])?;
    let mut done = 0;
    while done < len {
        let (s, d) = (src_offset + done, dst_offset + done);
        let n = (SEG - s % SEG).min(SEG - d % SEG).min(len - done);
        if is_materialized(src, s) || is_materialized(dst, d) {
            dst.write(d, &staged[done..done + n])?;
        }
        done += n;
    }
    Ok(())
}

/// Runs one copy through `DpuMemory`, or (`staged`) through its
/// specification.
fn copy(
    memory: &mut DpuMemory,
    direction: Direction,
    mram_offset: usize,
    wram_offset: usize,
    len: usize,
    staged: bool,
) -> Result<(), MemoryError> {
    match (direction, staged) {
        (Direction::MramToWram, false) => memory.copy_mram_to_wram(mram_offset, wram_offset, len),
        (Direction::WramToMram, false) => memory.copy_wram_to_mram(wram_offset, mram_offset, len),
        (Direction::MramToWram, true) => staged_copy(
            &memory.mram,
            &mut memory.wram,
            mram_offset,
            wram_offset,
            len,
        ),
        (Direction::WramToMram, true) => staged_copy(
            &memory.wram,
            &mut memory.mram,
            wram_offset,
            mram_offset,
            len,
        ),
    }
}

/// Writes `fill(i)` into `bank[i]` from the start of the segment holding
/// `start` up to `end` (clamped to the bank), or nothing for `None`.
fn prepare(bank: &mut Bank, start: usize, end: Option<usize>, fill: impl Fn(usize) -> u8) {
    if let Some(end) = end {
        let from = start - start % SEG;
        let bytes: Vec<u8> = (from..end.min(bank.capacity())).map(fill).collect();
        bank.write(from, &bytes).unwrap();
    }
}

/// Both copy directions match their staged specification bit for bit,
/// written length for written length and counter for counter, whichever
/// of them take the one-segment fast path: over sources and
/// destinations that are unmaterialized or written short of, into, up
/// to or past the range, ranges inside one segment, across a 64 KiB
/// boundary and into the sub-granule tail, and empty ranges.
#[test]
fn dma_copies_match_a_staged_read_then_write() {
    let _spares = spare_list();
    // (MRAM offset, WRAM offset, length)
    let ranges = [
        (64, 128, 16),
        (SEG - 8, 256, 32),
        (2 * SEG - 8, SEG - 40, 32),
        (128, 64, 0),
    ];
    let mut fast = 0;
    for direction in [Direction::MramToWram, Direction::WramToMram] {
        for (mram_offset, wram_offset, len) in ranges {
            let (src_start, dst_start) = match direction {
                Direction::MramToWram => (mram_offset, wram_offset),
                Direction::WramToMram => (wram_offset, mram_offset),
            };
            // Written ends: none, short of the range, into it, up to its
            // end, past it.
            let ends = |start: usize| {
                let end = start + len;
                [
                    None,
                    Some(start - 8),
                    Some(start + len / 2),
                    Some(end),
                    Some(end + 40),
                ]
            };
            for src_end in ends(src_start) {
                for dst_end in ends(dst_start) {
                    let twins = [false, true].map(|staged| {
                        let arena = FleetArena::new();
                        let mut memory = DpuMemory::with_arena(MRAM_BYTES, WRAM_BYTES, &arena);
                        let (src, dst) = match direction {
                            Direction::MramToWram => (&mut memory.mram, &mut memory.wram),
                            Direction::WramToMram => (&mut memory.wram, &mut memory.mram),
                        };
                        prepare(src, src_start, src_end, |i| (i % 251) as u8 + 1);
                        prepare(dst, dst_start, dst_end, |_| 0xEE);
                        copy(
                            &mut memory,
                            direction,
                            mram_offset,
                            wram_offset,
                            len,
                            staged,
                        )
                        .unwrap();
                        fingerprint(&memory, &arena)
                    });
                    let at = format!(
                        "{direction:?} {mram_offset}/{wram_offset}/{len}, \
                         src {src_end:?}, dst {dst_end:?}"
                    );
                    assert_eq!(twins[0], twins[1], "{at}: the copy diverged");
                    // Inside the written bytes of one segment.
                    let fits = |start: usize, end: Option<usize>| {
                        let within = start / SEG == (start + len) / SEG;
                        within && end.is_some_and(|end| start + len <= end)
                    };
                    if len > 0 && fits(src_start, src_end) && fits(dst_start, dst_end) {
                        fast += 1;
                    }
                }
            }
        }
    }
    assert!(fast > 0, "no case took the one-segment fast path");
}

/// A copy with either range out of bounds returns the same error as its
/// specification and moves no byte and no counter, whether or not the
/// in-range side holds written bytes.
#[test]
fn out_of_range_dma_copies_change_nothing() {
    let _spares = spare_list();
    // (MRAM offset, WRAM offset, length)
    let ranges = [
        (MRAM_BYTES - 8, 0, 16),
        (0, WRAM_BYTES - 8, 16),
        (MRAM_BYTES, WRAM_BYTES, 8),
        (usize::MAX - 4, 0, 8),
        (0, usize::MAX - 4, 8),
    ];
    for direction in [Direction::MramToWram, Direction::WramToMram] {
        for (mram_offset, wram_offset, len) in ranges {
            for written in [false, true] {
                let errors = [false, true].map(|staged| {
                    let arena = FleetArena::new();
                    let mut memory = DpuMemory::with_arena(MRAM_BYTES, WRAM_BYTES, &arena);
                    if written {
                        memory.mram.write(0, &[7u8; 100]).unwrap();
                        memory.mram.write(2 * SEG - 16, &[8u8; 32]).unwrap();
                        memory.wram.write(0, &[9u8; 100]).unwrap();
                    }
                    let before = fingerprint(&memory, &arena);
                    let error = copy(
                        &mut memory,
                        direction,
                        mram_offset,
                        wram_offset,
                        len,
                        staged,
                    );
                    let at = format!("{direction:?} {mram_offset}/{wram_offset}/{len}, {written}");
                    assert_eq!(
                        fingerprint(&memory, &arena),
                        before,
                        "{at}: a failed copy wrote"
                    );
                    (error, at)
                });
                let at = &errors[0].1;
                assert!(errors[0].0.is_err(), "{at}: out of range but accepted");
                assert_eq!(errors[0].0, errors[1].0, "{at}: errors differ");
            }
        }
    }
}
