//! Per-DPU memories: the MRAM DRAM bank and the WRAM scratchpad.
//!
//! On UPMEM hardware each DPU owns a 64-MB DRAM bank (MRAM) and a 64-KB
//! SRAM scratchpad (WRAM). The DPU pipeline can only operate on WRAM;
//! data moves between MRAM and WRAM through an explicit DMA engine with
//! 8-byte granularity. The host can read and write MRAM (but not WRAM)
//! while no kernel is running.
//!
//! Banks are lazily materialized in fixed
//! [`BANK_SEGMENT_BYTES`]-sized segments drawn from a
//! [`FleetArena`] shared by the whole DPU set, which keeps thousand-DPU
//! fleets affordable while still enforcing the capacity limits:
//!
//! * a segment only consumes host memory once a byte inside it is
//!   written, and its buffer is only as long as the highest byte written
//!   so far (writes grow it with zeros);
//! * the slot table grows on demand up to the highest materialized
//!   segment, so an idle 64-MB bank allocates nothing;
//! * unwritten bytes — in an unmaterialized segment or past a buffer's
//!   end — read as zero.
//!
//! Each bank owns its segments outright, so a write is a plain store
//! into the segment's buffer, and an MRAM↔WRAM copy whose two ranges
//! each lie inside the written bytes of one segment is a single slice
//! copy. The arena accounts every materialized segment at its full
//! length, so fleet-wide memory ceilings are queryable at any quiescent
//! point and do not depend on how far into a segment a run wrote.
//!
//! The read/write paths here are reachable from kernel code through the
//! `DpuContext` DMA intrinsics, so their tokens must satisfy the
//! analyzer's kernel-discipline rules; buffer creation lives in the
//! arena (see its module docs).

use std::fmt;

use crate::arena::{FleetArena, Segment};
pub use crate::arena::BANK_SEGMENT_BYTES;

/// Error raised by out-of-range or misaligned memory accesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MemoryError {
    /// The access extends past the bank capacity.
    OutOfRange {
        /// Attempted end offset of the access.
        end: usize,
        /// Capacity of the bank in bytes.
        capacity: usize,
        /// Which memory was accessed.
        kind: MemoryKind,
    },
    /// A DMA transfer violated the engine's alignment/granularity rules.
    Misaligned {
        /// Offset the transfer started at.
        offset: usize,
        /// Length of the transfer in bytes.
        len: usize,
        /// Required alignment/granule in bytes.
        granule: usize,
        /// Which memory was accessed.
        kind: MemoryKind,
    },
}

/// Which memory an error refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemoryKind {
    /// The per-DPU DRAM bank.
    Mram,
    /// The per-DPU scratchpad.
    Wram,
}

impl fmt::Display for MemoryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MemoryError::OutOfRange {
                end,
                capacity,
                kind,
            } => {
                let name = match kind {
                    MemoryKind::Mram => "MRAM",
                    MemoryKind::Wram => "WRAM",
                };
                write!(
                    f,
                    "{name} access ends at byte {end} but the bank holds {capacity} bytes"
                )
            }
            MemoryError::Misaligned {
                offset,
                len,
                granule,
                kind,
            } => {
                let name = match kind {
                    MemoryKind::Mram => "MRAM",
                    MemoryKind::Wram => "WRAM",
                };
                write!(
                    f,
                    "misaligned {name} DMA: offset {offset} / length {len} must be \
                     multiples of the {granule}-byte DMA granule"
                )
            }
        }
    }
}

impl std::error::Error for MemoryError {}

/// A lazily-segmented byte bank with a hard capacity.
///
/// The bank uniquely owns its materialized segments and returns them to
/// its arena when it drops.
#[derive(Debug)]
pub struct Bank {
    /// Slot per segment up to the highest one materialized so far.
    segments: Vec<Option<Segment>>,
    capacity: usize,
    kind: MemoryKind,
    arena: FleetArena,
}

impl Bank {
    /// Creates an empty bank with the given capacity, backed by its own
    /// private arena (tests and standalone use).
    pub fn new(capacity: usize, kind: MemoryKind) -> Self {
        Self::with_arena(capacity, kind, FleetArena::new())
    }

    /// Creates an empty bank drawing segments from `arena`.
    pub fn with_arena(capacity: usize, kind: MemoryKind, arena: FleetArena) -> Self {
        Self {
            segments: Vec::new(),
            capacity,
            kind,
            arena,
        }
    }

    /// Bank capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Bytes this bank's materialized segments account for: whole
    /// segments touched by at least one write, however few bytes of each
    /// were written.
    pub fn allocated_bytes(&self) -> usize {
        (0..self.segments.len())
            .filter(|&i| self.segments[i].is_some())
            .map(|i| self.seg_len(i))
            .sum()
    }

    /// Length of segment `index`: the fixed granule, except for a
    /// sub-granule tail.
    fn seg_len(&self, index: usize) -> usize {
        BANK_SEGMENT_BYTES.min(self.capacity - index * BANK_SEGMENT_BYTES)
    }

    /// The materialized segment `index`, if any.
    fn segment(&self, index: usize) -> Option<&Segment> {
        self.segments.get(index)?.as_ref()
    }

    /// Materializes segment `index` and grows its buffer with zeros to
    /// at least `end` bytes, returning the buffer's bytes.
    fn segment_mut(&mut self, index: usize, end: usize) -> &mut [u8] {
        let len = self.seg_len(index);
        if self.segments.len() <= index {
            self.segments.resize(index + 1, None);
        }
        let arena = &self.arena;
        let buf = self.segments[index].get_or_insert_with(|| arena.acquire(len));
        if buf.len() < end {
            buf.resize(end, 0);
        }
        buf
    }

    /// The written bytes `offset..offset + len`, borrowed for writing in
    /// place. `Some` only when the range lies inside the written bytes of
    /// one materialized segment, so nothing grows or materializes.
    #[inline]
    fn written_mut(&mut self, offset: usize, len: usize) -> Option<&mut [u8]> {
        let within = offset % BANK_SEGMENT_BYTES;
        self.segments
            .get_mut(offset / BANK_SEGMENT_BYTES)?
            .as_mut()?
            .get_mut(within..within.checked_add(len)?)
    }

    /// The range check of every access: the end of `len` bytes at
    /// `offset`, or [`MemoryError::OutOfRange`] past the capacity.
    pub(crate) fn check(&self, offset: usize, len: usize) -> Result<usize, MemoryError> {
        let end = offset.checked_add(len).ok_or(MemoryError::OutOfRange {
            end: usize::MAX,
            capacity: self.capacity,
            kind: self.kind,
        })?;
        if end > self.capacity {
            return Err(MemoryError::OutOfRange {
                end,
                capacity: self.capacity,
                kind: self.kind,
            });
        }
        Ok(end)
    }

    /// Reads `dst.len()` bytes starting at `offset`. Unwritten bytes read
    /// as zero, like freshly powered DRAM contents after host clearing.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfRange`] if the access exceeds capacity.
    #[inline]
    pub fn read(&self, offset: usize, dst: &mut [u8]) -> Result<(), MemoryError> {
        self.check(offset, dst.len())?;
        let mut done = 0;
        while done < dst.len() {
            let at = offset + done;
            let index = at / BANK_SEGMENT_BYTES;
            let within = at % BANK_SEGMENT_BYTES;
            let n = (self.seg_len(index) - within).min(dst.len() - done);
            read_segment(self.segment(index), within, &mut dst[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Writes `src` starting at `offset`, materializing the segments it
    /// touches.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfRange`] if the access exceeds capacity.
    #[inline]
    pub fn write(&mut self, offset: usize, src: &[u8]) -> Result<(), MemoryError> {
        self.check(offset, src.len())?;
        let mut done = 0;
        while done < src.len() {
            let at = offset + done;
            let index = at / BANK_SEGMENT_BYTES;
            let within = at % BANK_SEGMENT_BYTES;
            let n = (self.seg_len(index) - within).min(src.len() - done);
            self.segment_mut(index, within + n)[within..within + n]
                .copy_from_slice(&src[done..done + n]);
            done += n;
        }
        Ok(())
    }

    /// Borrows `offset..offset + len` straight from the bank. `Some` only
    /// when the range lies inside the written bytes of one materialized
    /// segment; `None` when it spans a segment boundary, touches an
    /// unmaterialized segment, reaches past the segment's written length
    /// or leaves the bank.
    pub fn slice(&self, offset: usize, len: usize) -> Option<&[u8]> {
        let within = offset % BANK_SEGMENT_BYTES;
        self.segment(offset / BANK_SEGMENT_BYTES)?
            .get(within..within.checked_add(len)?)
    }

    /// [`Self::slice`] for writing in place. Unlike `slice`, a range past
    /// the segment's written length is grown with zeros first. `None`
    /// when the range spans a segment boundary, touches an
    /// unmaterialized segment or leaves the bank.
    pub fn slice_mut(&mut self, offset: usize, len: usize) -> Option<&mut [u8]> {
        let index = offset / BANK_SEGMENT_BYTES;
        let within = offset % BANK_SEGMENT_BYTES;
        let end = within.checked_add(len)?;
        if self.segment(index).is_none() || end > self.seg_len(index) {
            return None;
        }
        self.segment_mut(index, end).get_mut(within..end)
    }

    /// Reads a little-endian `u32` at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfRange`] if the access exceeds capacity.
    #[inline]
    pub fn read_u32(&self, offset: usize) -> Result<u32, MemoryError> {
        // Hot path: the word sits inside the written bytes of one
        // materialized segment — one bounds-checked slice load.
        let within = offset % BANK_SEGMENT_BYTES;
        if let Some(seg) = self.segment(offset / BANK_SEGMENT_BYTES) {
            if let Some(bytes) = seg
                .get(within..within.wrapping_add(4))
                .and_then(|s| <[u8; 4]>::try_from(s).ok())
            {
                return Ok(u32::from_le_bytes(bytes));
            }
        }
        self.read_u32_slow(offset)
    }

    /// [`Self::read_u32`] off the hot path (a word past the written bytes
    /// or across a segment boundary), kept out of line so the hot path
    /// stays small enough to inline into the WRAM load/store intrinsics.
    #[cold]
    #[inline(never)]
    fn read_u32_slow(&self, offset: usize) -> Result<u32, MemoryError> {
        let mut buf = [0u8; 4];
        self.read(offset, &mut buf)?;
        Ok(u32::from_le_bytes(buf))
    }

    /// Writes a little-endian `u32` at `offset`.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfRange`] if the access exceeds capacity.
    #[inline]
    pub fn write_u32(&mut self, offset: usize, value: u32) -> Result<(), MemoryError> {
        // Hot path: the word sits inside the written bytes of one
        // materialized segment — store in place.
        if let Some(slot) = self.written_mut(offset, 4) {
            slot.copy_from_slice(&value.to_le_bytes());
            return Ok(());
        }
        self.write_u32_slow(offset, value)
    }

    /// [`Self::write_u32`] off the hot path, out of line for the same
    /// reason as [`Self::read_u32_slow`].
    #[cold]
    #[inline(never)]
    fn write_u32_slow(&mut self, offset: usize, value: u32) -> Result<(), MemoryError> {
        self.write(offset, &value.to_le_bytes())
    }
}

impl Drop for Bank {
    fn drop(&mut self) {
        for (index, slot) in std::mem::take(&mut self.segments).into_iter().enumerate() {
            if let Some(seg) = slot {
                self.arena.release(seg, self.seg_len(index));
            }
        }
    }
}

/// Fills `dst` with the bytes of segment `seg` (`None`: unmaterialized)
/// from `within` on; bytes past the segment's written length read as
/// zero.
#[inline]
fn read_segment(seg: Option<&Segment>, within: usize, dst: &mut [u8]) {
    match seg.and_then(|seg| seg.get(within..within + dst.len())) {
        Some(bytes) => dst.copy_from_slice(bytes),
        None => read_zero_extended(seg, within, dst),
    }
}

/// [`read_segment`] for a range that reaches past the written bytes.
#[cold]
fn read_zero_extended(seg: Option<&Segment>, within: usize, dst: &mut [u8]) {
    let written = seg.and_then(|seg| seg.get(within..)).unwrap_or_default();
    let n = written.len().min(dst.len());
    dst[..n].copy_from_slice(&written[..n]);
    dst[n..].fill(0);
}

/// The per-DPU memory pair.
#[derive(Debug)]
pub struct DpuMemory {
    /// The DRAM bank (host-visible, kernel-visible via DMA only).
    pub mram: Bank,
    /// The scratchpad (kernel-visible only).
    pub wram: Bank,
}

impl DpuMemory {
    /// Creates the memory pair with the given capacities, backed by a
    /// private arena shared between the two banks.
    pub fn new(mram_bytes: usize, wram_bytes: usize) -> Self {
        Self::with_arena(mram_bytes, wram_bytes, &FleetArena::new())
    }

    /// Creates the memory pair drawing segments from a fleet-owned arena.
    pub fn with_arena(mram_bytes: usize, wram_bytes: usize, arena: &FleetArena) -> Self {
        Self {
            mram: Bank::with_arena(mram_bytes, MemoryKind::Mram, arena.clone()),
            wram: Bank::with_arena(wram_bytes, MemoryKind::Wram, arena.clone()),
        }
    }

    /// Copies `len` bytes MRAM → WRAM without a staging buffer,
    /// preserving [`Bank::read`]'s zero-fill of unwritten source
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfRange`] if either range exceeds its
    /// bank's capacity; nothing is copied in that case.
    #[inline]
    pub fn copy_mram_to_wram(
        &mut self,
        mram_offset: usize,
        wram_offset: usize,
        len: usize,
    ) -> Result<(), MemoryError> {
        copy_between(&self.mram, &mut self.wram, mram_offset, wram_offset, len)
    }

    /// Copies `len` bytes WRAM → MRAM without a staging buffer,
    /// preserving [`Bank::read`]'s zero-fill of unwritten source
    /// bytes.
    ///
    /// # Errors
    ///
    /// Returns [`MemoryError::OutOfRange`] if either range exceeds its
    /// bank's capacity; nothing is copied in that case.
    #[inline]
    pub fn copy_wram_to_mram(
        &mut self,
        wram_offset: usize,
        mram_offset: usize,
        len: usize,
    ) -> Result<(), MemoryError> {
        copy_between(&self.wram, &mut self.mram, wram_offset, mram_offset, len)
    }
}

/// Direct bank-to-bank copy with the exact semantics of a `read` into a
/// zeroed buffer followed by a `write`: both ranges are validated before
/// any byte moves, and source bytes that were never written read as
/// zero. Copying zeroes into a destination segment that was never
/// materialized leaves it unmaterialized — the bytes read back as zero
/// either way, so only the allocation counters can tell the difference.
/// Which segments materialize depends only on which source segments are
/// materialized, never on how far they were written.
///
/// When each range lies inside the written bytes of one materialized
/// segment (every per-record DMA of a staged replay chunk), the copy is
/// a single slice copy that grows and materializes nothing, exactly like
/// the general loop on those ranges. That path is tried before the
/// capacity checks: written bytes lie inside the capacity, so the checks
/// could not fail there. Forced inline, as part of the kernel's
/// per-record DMA (`DpuContext::mram_to_wram`).
#[inline(always)]
fn copy_between(
    src: &Bank,
    dst: &mut Bank,
    src_offset: usize,
    dst_offset: usize,
    len: usize,
) -> Result<(), MemoryError> {
    if let (Some(from), Some(to)) = (src.slice(src_offset, len), dst.written_mut(dst_offset, len)) {
        to.copy_from_slice(from);
        return Ok(());
    }
    src.check(src_offset, len)?;
    dst.check(dst_offset, len)?;
    let mut done = 0;
    while done < len {
        let s_at = src_offset + done;
        let d_at = dst_offset + done;
        let s_index = s_at / BANK_SEGMENT_BYTES;
        let s_within = s_at % BANK_SEGMENT_BYTES;
        let d_index = d_at / BANK_SEGMENT_BYTES;
        let d_within = d_at % BANK_SEGMENT_BYTES;
        let n = (src.seg_len(s_index) - s_within)
            .min(dst.seg_len(d_index) - d_within)
            .min(len - done);
        let seg = src.segment(s_index);
        if seg.is_some() || dst.segment(d_index).is_some() {
            let end = d_within + n;
            read_segment(seg, s_within, &mut dst.segment_mut(d_index, end)[d_within..end]);
        }
        done += n;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_bytes_read_zero() {
        let bank = Bank::new(64, MemoryKind::Mram);
        let mut buf = [0xFFu8; 8];
        bank.read(16, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 8]);
        assert_eq!(bank.allocated_bytes(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut bank = Bank::new(64, MemoryKind::Wram);
        bank.write(8, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0u8; 6];
        bank.read(7, &mut buf).unwrap();
        assert_eq!(buf, [0, 1, 2, 3, 4, 0]);
        // One (sub-granule) segment spanning the whole 64-byte bank.
        assert_eq!(bank.allocated_bytes(), 64);
    }

    #[test]
    fn only_touched_segments_materialize() {
        let mut bank = Bank::new(16 * BANK_SEGMENT_BYTES, MemoryKind::Mram);
        assert_eq!(bank.allocated_bytes(), 0);
        bank.write(0, &[1u8; 4]).unwrap();
        assert_eq!(bank.allocated_bytes(), BANK_SEGMENT_BYTES);
        // A far-away write materializes just its own segment.
        bank.write(10 * BANK_SEGMENT_BYTES + 100, &[2u8; 4]).unwrap();
        assert_eq!(bank.allocated_bytes(), 2 * BANK_SEGMENT_BYTES);
        assert_eq!(bank.read_u32(0).unwrap(), u32::from_le_bytes([1, 1, 1, 1]));
        assert_eq!(bank.read_u32(5 * BANK_SEGMENT_BYTES).unwrap(), 0);
    }

    #[test]
    fn writes_spanning_segments_round_trip() {
        let mut bank = Bank::new(2 * BANK_SEGMENT_BYTES, MemoryKind::Mram);
        let boundary = BANK_SEGMENT_BYTES - 2;
        bank.write(boundary, &[9, 8, 7, 6]).unwrap();
        let mut buf = [0u8; 4];
        bank.read(boundary, &mut buf).unwrap();
        assert_eq!(buf, [9, 8, 7, 6]);
        bank.write_u32(boundary, 0x0102_0304).unwrap();
        assert_eq!(bank.read_u32(boundary).unwrap(), 0x0102_0304);
        assert_eq!(bank.allocated_bytes(), 2 * BANK_SEGMENT_BYTES);
    }

    #[test]
    fn slices_borrow_one_materialized_segment() {
        let mut bank = Bank::new(2 * BANK_SEGMENT_BYTES, MemoryKind::Mram);
        assert!(bank.slice(8, 4).is_none(), "unmaterialized");
        bank.write(8, &[1, 2, 3, 4]).unwrap();
        assert_eq!(bank.slice(8, 4), Some(&[1u8, 2, 3, 4][..]));
        bank.slice_mut(8, 4).unwrap()[0] = 9;
        assert_eq!(bank.read_u32(8).unwrap(), u32::from_le_bytes([9, 2, 3, 4]));
        bank.write(BANK_SEGMENT_BYTES, &[5]).unwrap();
        assert!(bank.slice(BANK_SEGMENT_BYTES - 2, 4).is_none(), "spans a boundary");
        assert!(bank.slice(2 * BANK_SEGMENT_BYTES - 1, 2).is_none(), "leaves the bank");
        assert!(bank.slice_mut(BANK_SEGMENT_BYTES - 2, 4).is_none(), "spans a boundary");
        assert!(bank.slice_mut(2 * BANK_SEGMENT_BYTES - 1, 2).is_none(), "leaves the bank");
    }

    #[test]
    fn out_of_range_rejected() {
        let mut bank = Bank::new(16, MemoryKind::Mram);
        assert!(bank.write(12, &[0u8; 8]).is_err());
        let mut buf = [0u8; 8];
        assert!(bank.read(9, &mut buf).is_err());
        // Exactly at the boundary is fine.
        assert!(bank.write(8, &[0u8; 8]).is_ok());
    }

    #[test]
    fn misaligned_error_names_the_granule() {
        let e = MemoryError::Misaligned {
            offset: 3,
            len: 4,
            granule: 8,
            kind: MemoryKind::Wram,
        };
        let text = e.to_string();
        assert!(text.contains("WRAM"));
        assert!(text.contains("offset 3"));
        assert!(text.contains("8-byte"));
    }

    #[test]
    fn offset_overflow_rejected() {
        let bank = Bank::new(16, MemoryKind::Mram);
        let mut buf = [0u8; 1];
        assert!(bank.read(usize::MAX, &mut buf).is_err());
    }

    #[test]
    fn u32_round_trip() {
        let mut bank = Bank::new(32, MemoryKind::Wram);
        bank.write_u32(4, 0xDEAD_BEEF).unwrap();
        assert_eq!(bank.read_u32(4).unwrap(), 0xDEAD_BEEF);
        assert_eq!(bank.read_u32(0).unwrap(), 0);
    }

    #[test]
    fn copy_between_zero_fills_without_materializing() {
        let mut mem = DpuMemory::new(4 * BANK_SEGMENT_BYTES, 1 << 16);
        // Source untouched, destination untouched: stays unmaterialized.
        mem.copy_mram_to_wram(BANK_SEGMENT_BYTES, 0, 64).unwrap();
        assert_eq!(mem.wram.allocated_bytes(), 0);
        // A materialized destination really gets the zeroes.
        mem.wram.write(0, &[0xFFu8; 64]).unwrap();
        mem.copy_mram_to_wram(BANK_SEGMENT_BYTES, 0, 64).unwrap();
        let mut buf = [0xAAu8; 64];
        mem.wram.read(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 64]);
        // And copying real data round-trips.
        mem.mram.write(8, &[5u8; 16]).unwrap();
        mem.copy_mram_to_wram(8, 128, 16).unwrap();
        let mut out = [0u8; 16];
        mem.wram.read(128, &mut out).unwrap();
        assert_eq!(out, [5u8; 16]);
    }

    #[test]
    fn reads_past_the_written_length_return_zeros() {
        let mut bank = Bank::new(2 * BANK_SEGMENT_BYTES, MemoryKind::Mram);
        bank.write(8, &[1, 2, 3, 4]).unwrap();
        let mut buf = [0xAAu8; 8];
        bank.read(10, &mut buf).unwrap();
        assert_eq!(buf, [3, 4, 0, 0, 0, 0, 0, 0]);
        assert_eq!(bank.read_u32(10).unwrap(), 0x0403);
        assert_eq!(bank.read_u32(12).unwrap(), 0);
        assert_eq!(bank.read_u32(4096).unwrap(), 0);
        // Across a boundary: segment 0 was written up to byte 12 and
        // segment 1 up to its byte 3.
        bank.write(BANK_SEGMENT_BYTES + 2, &[9]).unwrap();
        let mut buf = [0xAAu8; 8];
        bank.read(BANK_SEGMENT_BYTES - 4, &mut buf).unwrap();
        assert_eq!(buf, [0, 0, 0, 0, 0, 0, 9, 0]);
        assert_eq!(bank.read_u32(BANK_SEGMENT_BYTES - 1).unwrap(), 0x0900_0000);
    }

    #[test]
    fn slice_stops_at_the_written_length_and_slice_mut_grows_it() {
        let mut bank = Bank::new(2 * BANK_SEGMENT_BYTES, MemoryKind::Mram);
        bank.write(8, &[1, 2, 3, 4]).unwrap();
        assert_eq!(bank.slice(8, 4), Some(&[1u8, 2, 3, 4][..]));
        assert!(bank.slice(8, 5).is_none(), "one byte past the written length");
        assert!(bank.slice(100, 4).is_none());
        assert_eq!(bank.slice_mut(100, 4).unwrap(), &mut [0u8; 4][..]);
        // The growth zero-filled everything up to the new end.
        let grown = bank.slice(8, 96).unwrap();
        assert_eq!(&grown[..4], &[1, 2, 3, 4]);
        assert!(grown[4..].iter().all(|&b| b == 0));
        // Growth stops at the segment: a boundary-spanning range and an
        // unmaterialized segment still refuse, and nothing materializes.
        assert!(bank.slice_mut(BANK_SEGMENT_BYTES - 2, 4).is_none());
        assert!(bank.slice_mut(BANK_SEGMENT_BYTES + 8, 4).is_none());
        assert_eq!(bank.allocated_bytes(), BANK_SEGMENT_BYTES);
        // The whole segment can be lent for writing.
        assert_eq!(bank.slice_mut(0, BANK_SEGMENT_BYTES).unwrap().len(), BANK_SEGMENT_BYTES);
        assert!(bank.slice(BANK_SEGMENT_BYTES - 4, 4).is_some());
    }

    #[test]
    fn copy_between_from_a_short_source_zero_fills_the_rest() {
        let mut mem = DpuMemory::new(4 * BANK_SEGMENT_BYTES, 1 << 16);
        mem.mram.write(0, &[5u8; 8]).unwrap();
        mem.wram.write(0, &[0xFFu8; 64]).unwrap();
        // 8 written source bytes, then 24 the source never wrote.
        mem.copy_mram_to_wram(0, 0, 32).unwrap();
        let mut buf = [0xAAu8; 64];
        mem.wram.read(0, &mut buf).unwrap();
        assert_eq!(&buf[..8], &[5u8; 8]);
        assert_eq!(&buf[8..32], &[0u8; 24]);
        assert_eq!(&buf[32..], &[0xFFu8; 32]);
        // A range wholly past the source's written length copies zeros.
        mem.copy_mram_to_wram(1000, 32, 16).unwrap();
        mem.wram.read(0, &mut buf).unwrap();
        assert_eq!(&buf[32..48], &[0u8; 16]);
        assert_eq!(&buf[48..], &[0xFFu8; 16]);
        // Into a fresh bank, a materialized-but-short source materializes
        // the destination segment, as it always has, and writes zeros.
        let mut fresh = DpuMemory::new(4 * BANK_SEGMENT_BYTES, 1 << 16);
        fresh.mram.write(0, &[5u8; 8]).unwrap();
        fresh.copy_mram_to_wram(1000, 0, 16).unwrap();
        assert_eq!(fresh.wram.allocated_bytes(), 1 << 16);
        assert_eq!(fresh.wram.slice(0, 16), Some(&[0u8; 16][..]));
        // And WRAM → MRAM across an MRAM segment boundary.
        fresh.wram.write(0, &[3u8; 8]).unwrap();
        fresh.copy_wram_to_mram(0, BANK_SEGMENT_BYTES - 4, 16).unwrap();
        let mut out = [0xAAu8; 16];
        fresh.mram.read(BANK_SEGMENT_BYTES - 4, &mut out).unwrap();
        assert_eq!(out, [3, 3, 3, 3, 3, 3, 3, 3, 0, 0, 0, 0, 0, 0, 0, 0]);
    }

    #[test]
    fn accounting_counts_whole_segments_not_written_bytes() {
        let arena = FleetArena::new();
        let seg = BANK_SEGMENT_BYTES as u64;
        let mut bank = Bank::with_arena(3 * BANK_SEGMENT_BYTES + 100, MemoryKind::Mram, arena.clone());
        bank.write(0, &[1]).unwrap();
        assert_eq!(bank.allocated_bytes(), BANK_SEGMENT_BYTES);
        assert_eq!(arena.stats().bank_bytes, seg);
        // The sub-granule tail counts its own length.
        bank.write(3 * BANK_SEGMENT_BYTES + 5, &[1]).unwrap();
        assert_eq!(bank.allocated_bytes(), BANK_SEGMENT_BYTES + 100);
        let before = arena.stats();
        assert_eq!(before.bank_bytes, seg + 100);
        // Filling a segment to its end changes nothing.
        bank.write(BANK_SEGMENT_BYTES - 4, &[1; 4]).unwrap();
        bank.slice_mut(3 * BANK_SEGMENT_BYTES, 100).unwrap().fill(7);
        assert_eq!(arena.stats(), before);
        drop(bank);
        let after = arena.stats();
        assert_eq!(after.bank_bytes, 0);
        assert_eq!(after.bank_peak_bytes, seg + 100);
        // The full segment pooled; the tail went back to the allocator.
        assert_eq!(after.arena_bytes, seg);
    }

    #[test]
    fn an_idle_bank_has_no_slots() {
        let mut bank = Bank::new(1024 * BANK_SEGMENT_BYTES, MemoryKind::Mram);
        assert!(bank.segments.is_empty());
        assert_eq!(bank.read_u32(1000 * BANK_SEGMENT_BYTES).unwrap(), 0);
        assert!(bank.slice_mut(0, 4).is_none());
        assert!(bank.segments.is_empty());
        bank.write(2 * BANK_SEGMENT_BYTES, &[1]).unwrap();
        assert_eq!(bank.segments.len(), 3);
    }

    #[test]
    fn error_display_names_memory() {
        let e = MemoryError::OutOfRange {
            end: 100,
            capacity: 64,
            kind: MemoryKind::Wram,
        };
        assert!(e.to_string().contains("WRAM"));
    }
}
