//! Fleet-owned segment arena backing every DPU's MRAM/WRAM banks.
//!
//! At paper scale (2,524 DPUs, 64 MB of MRAM each) eager per-DPU
//! allocation would cost ~160 GB of host memory before a single byte is
//! written. Instead, [`crate::memory::Bank`] materializes fixed-size
//! segments on first write and draws every segment buffer from one
//! `FleetArena` shared by the whole [`crate::host::DpuSet`]. A buffer
//! is handed out empty and only grows to the bytes its bank writes (a
//! DPU's header, Q-table and replay chunk are ~12 KB of a 64 KB
//! segment). The arena
//!
//! * **pools** retired full-size segments, cleared to length 0, so
//!   repeated alloc/free cycles on one [`crate::host::PimSystem`] reuse
//!   buffers instead of hitting the host allocator;
//! * **hands its pool on** when it drops: the buffers go to one
//!   process-wide spare list (capped at 256 MiB of buffer capacity),
//!   and an arena that finds its own pool empty draws from that list
//!   before allocating, so a repeated run does not page-fault its
//!   buffers back in; and
//! * **accounts** every segment as a whole [`BANK_SEGMENT_BYTES`] (or
//!   sub-granule tail) however short its buffer is: live bank bytes
//!   (current and peak) and the arena's total footprint (live + pooled,
//!   current and peak), queryable at any quiescent point via
//!   [`FleetArena::stats`]. Spare-list buffers belong to no arena and
//!   are counted by none.
//!
//! Every segment is uniquely owned by the one bank slot that acquired
//! it, and goes back to the arena only when that bank drops.
//! Accounting is therefore deterministic across execution engines:
//! during a launch nothing is released, so the live byte count only
//! grows — concurrent workers race only on the *order* of
//! `fetch_add`s, never on the final total or the peak. Releases (bank
//! drop) happen host-side between launches.
//!
//! The allocation routine is reachable from kernel code through the
//! `DpuContext` DMA intrinsics, so its tokens must satisfy the analyzer's
//! kernel-discipline rules (no `vec!`/`Vec` spelled in reachable
//! signatures or bodies): buffers are cloned from an empty prototype and
//! grown by the bank, and signatures go through type aliases.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Size of one bank segment: 64 KB, the WRAM capacity, so a WRAM bank is
/// exactly one segment and a 64-MB MRAM bank is 1,024 lazily-filled
/// slots.
pub const BANK_SEGMENT_BYTES: usize = 64 * 1024;

/// Most buffer capacity the process-wide spare list keeps; buffers of a
/// dropped arena beyond it go back to the host allocator.
const SPARE_LIMIT_BYTES: usize = 256 << 20;

/// A segment buffer handed out by the arena: empty when acquired, grown
/// by its bank up to the segment length, and owned by that bank alone
/// until it is released.
pub(crate) type Segment = Vec<u8>;

type BufList = Vec<Segment>;

/// Length-0 buffers left over by dropped arenas, and their total
/// capacity.
struct Spares {
    bufs: BufList,
    bytes: usize,
}

static SPARES: Mutex<Spares> = Mutex::new(Spares {
    bufs: Vec::new(),
    bytes: 0,
});

/// Locks `mutex`, recovering from poisoning: a panic mid-push leaves
/// the buffer list structurally valid.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    match mutex.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Memory ceilings of one fleet, sampled from its arena.
///
/// `bank_*` counts bytes live inside bank segments (what an eager
/// simulator would have allocated up front, truncated to touched
/// segments); `arena_*` counts the arena's total host footprint
/// including pooled-but-idle buffers. Both count whole segments, not
/// the shorter buffers that back them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryStats {
    /// Bytes currently live in bank segments.
    pub bank_bytes: u64,
    /// High-water mark of [`MemoryStats::bank_bytes`].
    pub bank_peak_bytes: u64,
    /// Total host bytes held by the arena (live segments + pool).
    pub arena_bytes: u64,
    /// High-water mark of [`MemoryStats::arena_bytes`].
    pub arena_peak_bytes: u64,
}

struct ArenaInner {
    /// Retired full-size (`BANK_SEGMENT_BYTES`) segments' buffers,
    /// cleared to length 0, awaiting reuse. Sub-size tail segments are
    /// returned to the host allocator instead.
    pool: Mutex<BufList>,
    /// Empty prototype buffer cloned by the kernel-reachable allocation
    /// path (see the module docs on token discipline).
    proto: Segment,
    bank_bytes: AtomicU64,
    bank_peak: AtomicU64,
    footprint: AtomicU64,
    footprint_peak: AtomicU64,
}

impl Drop for ArenaInner {
    fn drop(&mut self) {
        let pool = std::mem::take(&mut *lock(&self.pool));
        let mut spares = lock(&SPARES);
        for buf in pool {
            if spares.bytes + buf.capacity() > SPARE_LIMIT_BYTES {
                break;
            }
            spares.bytes += buf.capacity();
            spares.bufs.push(buf);
        }
    }
}

/// Cheaply-cloneable handle to a shared segment arena.
#[derive(Clone)]
pub struct FleetArena {
    inner: Arc<ArenaInner>,
}

impl Default for FleetArena {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for FleetArena {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetArena").field("stats", &self.stats()).finish()
    }
}

/// Raises `slot` to at least `value` (a lock-free `fetch_max`).
fn bump_peak(slot: &AtomicU64, value: u64) {
    slot.fetch_max(value, Ordering::Relaxed);
}

impl FleetArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self {
            inner: Arc::new(ArenaInner {
                pool: Mutex::new(Vec::new()),
                proto: Vec::new(),
                bank_bytes: AtomicU64::new(0),
                bank_peak: AtomicU64::new(0),
                footprint: AtomicU64::new(0),
                footprint_peak: AtomicU64::new(0),
            }),
        }
    }

    /// Hands out an empty buffer for a segment of `seg_len` bytes — from
    /// this arena's pool, else from the spare list, else freshly
    /// allocated — and charges the whole segment as live bank bytes. The
    /// bank grows the buffer with zeros as it writes.
    pub(crate) fn acquire(&self, seg_len: usize) -> Segment {
        let len = seg_len as u64;
        let pooled = if seg_len == BANK_SEGMENT_BYTES {
            lock(&self.inner.pool).pop()
        } else {
            None
        };
        let buf = match pooled {
            Some(b) => b,
            None => {
                let now = self.inner.footprint.fetch_add(len, Ordering::Relaxed) + len;
                bump_peak(&self.inner.footprint_peak, now);
                let mut spares = lock(&SPARES);
                match spares.bufs.pop() {
                    Some(b) => {
                        spares.bytes -= b.capacity();
                        b
                    }
                    None => self.inner.proto.clone(),
                }
            }
        };
        let now = self.inner.bank_bytes.fetch_add(len, Ordering::Relaxed) + len;
        bump_peak(&self.inner.bank_peak, now);
        buf
    }

    /// Returns a segment of `seg_len` bytes to the arena.
    pub(crate) fn release(&self, mut buf: Segment, seg_len: usize) {
        let len = seg_len as u64;
        self.inner.bank_bytes.fetch_sub(len, Ordering::Relaxed);
        if seg_len == BANK_SEGMENT_BYTES {
            buf.clear();
            lock(&self.inner.pool).push(buf);
        } else {
            self.inner.footprint.fetch_sub(len, Ordering::Relaxed);
        }
    }

    /// Current and peak byte counters. Exact at quiescent points (no
    /// launch in flight).
    pub fn stats(&self) -> MemoryStats {
        MemoryStats {
            bank_bytes: self.inner.bank_bytes.load(Ordering::Relaxed),
            bank_peak_bytes: self.inner.bank_peak.load(Ordering::Relaxed),
            arena_bytes: self.inner.footprint.load(Ordering::Relaxed),
            arena_peak_bytes: self.inner.footprint_peak.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEG: u64 = BANK_SEGMENT_BYTES as u64;

    #[test]
    fn acquire_charges_a_whole_segment_for_an_empty_buffer() {
        let arena = FleetArena::new();
        let mut seg = arena.acquire(BANK_SEGMENT_BYTES);
        assert!(seg.is_empty(), "a fresh segment holds no written bytes");
        let s = arena.stats();
        assert_eq!(s.bank_bytes, SEG);
        assert_eq!(s.arena_bytes, SEG);
        // Growing the buffer does not change the accounting.
        seg.resize(100, 0xAB);
        assert_eq!(arena.stats(), s);
        arena.release(seg, BANK_SEGMENT_BYTES);
        let s = arena.stats();
        assert_eq!(s.bank_bytes, 0);
        // The buffer went to the pool: still part of the host footprint.
        assert_eq!(s.arena_bytes, SEG);
    }

    #[test]
    fn released_full_segments_come_back_empty_from_the_pool() {
        let arena = FleetArena::new();
        let mut seg = arena.acquire(BANK_SEGMENT_BYTES);
        seg.resize(4096, 0xFF);
        arena.release(seg, BANK_SEGMENT_BYTES);
        // Re-acquiring reuses the pooled buffer (its capacity survives)
        // without growing the footprint, and none of its old bytes show.
        let seg = arena.acquire(BANK_SEGMENT_BYTES);
        assert!(seg.is_empty(), "pooled segment not cleared");
        assert!(seg.capacity() >= 4096, "pooled buffer not reused");
        let s = arena.stats();
        assert_eq!(s.arena_bytes, SEG);
        assert_eq!(s.arena_peak_bytes, SEG);
        arena.release(seg, BANK_SEGMENT_BYTES);
    }

    #[test]
    fn sub_size_segments_are_freed_not_pooled() {
        let arena = FleetArena::new();
        let mut seg = arena.acquire(100);
        seg.resize(10, 1);
        assert_eq!(arena.stats().bank_bytes, 100);
        arena.release(seg, 100);
        let s = arena.stats();
        assert_eq!(s.bank_bytes, 0);
        assert_eq!(s.arena_bytes, 0);
        assert_eq!(s.arena_peak_bytes, 100);
    }

    #[test]
    fn a_dropped_arenas_buffers_serve_a_new_arena_empty() {
        let first = FleetArena::new();
        let mut seg = first.acquire(BANK_SEGMENT_BYTES);
        seg.resize(BANK_SEGMENT_BYTES, 0xFF);
        first.release(seg, BANK_SEGMENT_BYTES);
        drop(first);
        // The new arena starts its own accounting from zero and charges a
        // spare buffer like a fresh one; whichever buffer it gets is empty.
        let second = FleetArena::new();
        assert_eq!(second.stats(), MemoryStats::default());
        let seg = second.acquire(BANK_SEGMENT_BYTES);
        assert!(seg.is_empty(), "a spare buffer kept its bytes");
        let s = second.stats();
        assert_eq!((s.bank_bytes, s.arena_bytes, s.arena_peak_bytes), (SEG, SEG, SEG));
        second.release(seg, BANK_SEGMENT_BYTES);
    }
}
