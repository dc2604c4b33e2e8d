//! Sparse physical-memory model of the Zynq-7000 PS memory map.
//!
//! Two RAM regions exist, mirroring the real part: 512 MB of DDR3 at
//! physical 0 and 256 KB of on-chip memory (OCM) high in the map. Storage is
//! allocated lazily in 64 KB chunks so that "512 MB" costs nothing until
//! software actually touches it.
//!
//! This model carries *real bytes* — guest page tables, bitstream files,
//! sample buffers and hardware-task data sections all live here, which is
//! what lets the integration tests verify accelerator results against golden
//! models instead of pretending.

use mnv_hal::{HalError, HalResult, PhysAddr};

/// log2 of the lazy-allocation chunk size.
const CHUNK_SHIFT: u32 = 16;
/// Lazy-allocation chunk size (64 KB).
const CHUNK_SIZE: usize = 1 << CHUNK_SHIFT;

/// Base of the DDR region (as on Zynq: DDR starts at 0, the first 1 MB is
/// normally remapped but we keep it simple and usable).
pub const DDR_BASE: u64 = 0x0000_0000;
/// Size of the DDR region: 512 MB, as on the evaluated board.
pub const DDR_SIZE: u64 = 512 * 1024 * 1024;
/// Base of the 256 KB on-chip memory, placed high as in the common Zynq
/// configuration.
pub const OCM_BASE: u64 = 0xFFFC_0000;
/// Size of the on-chip memory.
pub const OCM_SIZE: u64 = 256 * 1024;

/// One lazily-allocated RAM region.
struct Region {
    base: u64,
    size: u64,
    chunks: Vec<Option<Box<[u8; CHUNK_SIZE]>>>,
    /// Chunks known to back decoded code blocks (set by
    /// [`PhysMemory::note_code`]); a store into a flagged chunk clears the
    /// flag and reports the chunk as dirty so the block cache can
    /// invalidate. One bool per chunk keeps the store fast path at two
    /// array indexes.
    code: Vec<bool>,
    /// Per-chunk watch stamps for [`PhysMemory::watch`]: the low bit is
    /// the watch flag, and a store into a watched chunk clears it by
    /// bumping the stamp, so a stamp once handed out never comes back.
    /// Empty until the region's first watch.
    watch: Vec<u32>,
}

impl Region {
    fn new(base: u64, size: u64) -> Self {
        assert_eq!(size % CHUNK_SIZE as u64, 0);
        Region {
            base,
            size,
            chunks: (0..size >> CHUNK_SHIFT).map(|_| None).collect(),
            code: vec![false; (size >> CHUNK_SHIFT) as usize],
            watch: Vec::new(),
        }
    }

    /// Chunk indexes covering `off..off+len` (`len` ≥ 1, in range).
    fn chunk_span(off: u64, len: usize) -> std::ops::RangeInclusive<usize> {
        (off >> CHUNK_SHIFT) as usize..=((off + len as u64 - 1) >> CHUNK_SHIFT) as usize
    }

    #[inline]
    fn contains(&self, addr: u64, len: usize) -> bool {
        addr >= self.base && addr + len as u64 <= self.base + self.size
    }

    fn chunk_mut(&mut self, off: u64) -> &mut [u8; CHUNK_SIZE] {
        let idx = (off >> CHUNK_SHIFT) as usize;
        self.chunks[idx].get_or_insert_with(|| Box::new([0u8; CHUNK_SIZE]))
    }

    fn read(&self, off: u64, out: &mut [u8]) {
        let mut off = off;
        let mut out = out;
        while !out.is_empty() {
            let idx = (off >> CHUNK_SHIFT) as usize;
            let in_chunk = (off & (CHUNK_SIZE as u64 - 1)) as usize;
            let take = out.len().min(CHUNK_SIZE - in_chunk);
            match &self.chunks[idx] {
                Some(c) => out[..take].copy_from_slice(&c[in_chunk..in_chunk + take]),
                None => out[..take].fill(0),
            }
            out = &mut out[take..];
            off += take as u64;
        }
    }

    fn write(&mut self, off: u64, data: &[u8], dirty: &mut Vec<u64>) {
        let mut off = off;
        let mut data = data;
        while !data.is_empty() {
            let in_chunk = (off & (CHUNK_SIZE as u64 - 1)) as usize;
            let take = data.len().min(CHUNK_SIZE - in_chunk);
            let idx = (off >> CHUNK_SHIFT) as usize;
            if self.code[idx] {
                self.code[idx] = false;
                dirty.push(self.base + ((idx as u64) << CHUNK_SHIFT));
            }
            if let Some(w) = self.watch.get_mut(idx) {
                *w += *w & 1;
            }
            let chunk = self.chunk_mut(off);
            chunk[in_chunk..in_chunk + take].copy_from_slice(&data[..take]);
            data = &data[take..];
            off += take as u64;
        }
    }
}

/// The physical RAM of the simulated platform (DDR + OCM).
///
/// All accessors take byte counts; width-specific helpers exist for the
/// common 32-bit case. Accesses that fall outside both regions return
/// [`HalError::UnmappedPhysical`] — device windows are handled one level up,
/// by the bus.
pub struct PhysMemory {
    ddr: Region,
    ocm: Region,
    /// Chunk base addresses whose code flag was cleared by a store since
    /// the last [`PhysMemory::take_dirty_code`]. Every write path funnels
    /// through [`PhysMemory::write`] — guest stores, DMA, boot loads,
    /// fault-plane bit flips — so this is the single choke point the
    /// decoded-block cache watches for self-modifying code.
    dirty_code: Vec<u64>,
    /// Monotonic count of code-chunk invalidation events; lets the block
    /// cache detect "something was dirtied" with one integer compare.
    code_gen: u64,
}

impl Default for PhysMemory {
    fn default() -> Self {
        Self::new()
    }
}

impl PhysMemory {
    /// A fresh, zeroed memory with the standard Zynq regions.
    pub fn new() -> Self {
        PhysMemory {
            ddr: Region::new(DDR_BASE, DDR_SIZE),
            ocm: Region::new(OCM_BASE, OCM_SIZE),
            dirty_code: Vec::new(),
            code_gen: 0,
        }
    }

    fn region_for(&self, addr: u64, len: usize) -> HalResult<&Region> {
        if self.ddr.contains(addr, len) {
            Ok(&self.ddr)
        } else if self.ocm.contains(addr, len) {
            Ok(&self.ocm)
        } else {
            Err(HalError::UnmappedPhysical(PhysAddr::new(addr)))
        }
    }

    fn region_for_mut(&mut self, addr: u64, len: usize) -> HalResult<&mut Region> {
        if self.ddr.contains(addr, len) {
            Ok(&mut self.ddr)
        } else if self.ocm.contains(addr, len) {
            Ok(&mut self.ocm)
        } else {
            Err(HalError::UnmappedPhysical(PhysAddr::new(addr)))
        }
    }

    /// True if `addr..addr+len` lies fully inside a RAM region.
    pub fn is_ram(&self, addr: PhysAddr, len: usize) -> bool {
        self.region_for(addr.raw(), len).is_ok()
    }

    /// True if the address is in the (slower) on-chip memory.
    pub fn is_ocm(&self, addr: PhysAddr) -> bool {
        self.ocm.contains(addr.raw(), 1)
    }

    /// Read `out.len()` bytes starting at `addr`.
    pub fn read(&self, addr: PhysAddr, out: &mut [u8]) -> HalResult<()> {
        let r = self.region_for(addr.raw(), out.len())?;
        r.read(addr.raw() - r.base, out);
        Ok(())
    }

    /// Write `data` starting at `addr`.
    pub fn write(&mut self, addr: PhysAddr, data: &[u8]) -> HalResult<()> {
        let base = {
            let r = self.region_for(addr.raw(), data.len())?;
            r.base
        };
        let before = self.dirty_code.len();
        let dirty = &mut self.dirty_code;
        let r = if self.ddr.contains(addr.raw(), data.len()) {
            &mut self.ddr
        } else {
            &mut self.ocm
        };
        debug_assert_eq!(r.base, base);
        r.write(addr.raw() - base, data, dirty);
        if self.dirty_code.len() != before {
            self.code_gen += 1;
        }
        Ok(())
    }

    // -- code-chunk tracking (decoded-block cache support) --------------------

    /// Flag the chunks covering `addr..addr+len` as backing decoded code.
    /// A later store into any of them clears the flag and records the chunk
    /// in the dirty list (see [`PhysMemory::take_dirty_code`]).
    pub fn note_code(&mut self, addr: PhysAddr, len: usize) {
        let Ok(r) = self.region_for_mut(addr.raw(), len.max(1)) else {
            return;
        };
        let first = (addr.raw() - r.base) >> CHUNK_SHIFT;
        let last = (addr.raw() + len.max(1) as u64 - 1 - r.base) >> CHUNK_SHIFT;
        for idx in first..=last {
            r.code[idx as usize] = true;
        }
    }

    /// Monotonic counter bumped whenever a store hits a code-flagged chunk.
    /// The block cache compares this against its own high-water mark to
    /// decide whether [`PhysMemory::take_dirty_code`] needs draining.
    #[inline]
    pub fn code_gen(&self) -> u64 {
        self.code_gen
    }

    /// Drain the list of dirtied code chunks (base address of each 64 KB
    /// chunk whose code flag was cleared by a store).
    pub fn take_dirty_code(&mut self) -> Vec<u64> {
        std::mem::take(&mut self.dirty_code)
    }

    /// Size of a dirty-tracking chunk in bytes (one entry of
    /// [`PhysMemory::take_dirty_code`] covers this much).
    pub const fn code_chunk_size() -> u64 {
        CHUNK_SIZE as u64
    }

    // -- watched ranges (memoised checks over unchanged bytes) ---------------

    /// Watch the chunks covering `addr..addr+len` and return their stamps:
    /// [`PhysMemory::unchanged`] answers whether any store has landed in
    /// those chunks since. Every write path clears the watch, like the
    /// code flag. `None` when the range is not RAM or empty.
    pub fn watch(&mut self, addr: PhysAddr, len: usize) -> Option<Box<[u32]>> {
        if len == 0 {
            return None;
        }
        let r = self.region_for_mut(addr.raw(), len).ok()?;
        if r.watch.is_empty() {
            r.watch = vec![0; r.code.len()];
        }
        let span = Region::chunk_span(addr.raw() - r.base, len);
        Some(
            r.watch[span]
                .iter_mut()
                .map(|w| {
                    *w |= 1;
                    *w
                })
                .collect(),
        )
    }

    /// True when no store has reached the chunks covering `addr..addr+len`
    /// since [`PhysMemory::watch`] handed out `stamps` for the same range.
    /// Conservative at chunk grain: a store anywhere in a covered chunk
    /// counts.
    pub fn unchanged(&self, addr: PhysAddr, len: usize, stamps: &[u32]) -> bool {
        let Ok(r) = self.region_for(addr.raw(), len.max(1)) else {
            return false;
        };
        r.watch
            .get(Region::chunk_span(addr.raw() - r.base, len.max(1)))
            .is_some_and(|w| w == stamps)
    }

    /// Read a little-endian u32. Word accesses are the data-path common
    /// case, so the in-chunk case skips the generic span loop.
    pub fn read_u32(&self, addr: PhysAddr) -> HalResult<u32> {
        let a = addr.raw();
        let r = self.region_for(a, 4)?;
        let off = a - r.base;
        let in_chunk = (off & (CHUNK_SIZE as u64 - 1)) as usize;
        if in_chunk <= CHUNK_SIZE - 4 {
            return Ok(match &r.chunks[(off >> CHUNK_SHIFT) as usize] {
                Some(c) => u32::from_le_bytes(c[in_chunk..in_chunk + 4].try_into().unwrap()),
                None => 0,
            });
        }
        let mut b = [0u8; 4];
        self.read(addr, &mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Write a little-endian u32 (single-chunk fast path, with the same
    /// code-chunk dirty tracking as the generic span path).
    pub fn write_u32(&mut self, addr: PhysAddr, val: u32) -> HalResult<()> {
        let a = addr.raw();
        let in_chunk = (a & (CHUNK_SIZE as u64 - 1)) as usize;
        if in_chunk <= CHUNK_SIZE - 4 {
            let r = self.region_for_mut(a, 4)?;
            let off = a - r.base;
            let idx = (off >> CHUNK_SHIFT) as usize;
            if r.code[idx] {
                r.code[idx] = false;
                let base = r.base;
                self.dirty_code.push(base + ((idx as u64) << CHUNK_SHIFT));
                self.code_gen += 1;
            }
            let r = self.region_for_mut(a, 4)?;
            if let Some(w) = r.watch.get_mut(idx) {
                *w += *w & 1;
            }
            let chunk = r.chunk_mut(off);
            chunk[in_chunk..in_chunk + 4].copy_from_slice(&val.to_le_bytes());
            return Ok(());
        }
        self.write(addr, &val.to_le_bytes())
    }

    /// Read a little-endian u64.
    pub fn read_u64(&self, addr: PhysAddr) -> HalResult<u64> {
        let mut b = [0u8; 8];
        self.read(addr, &mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Write a little-endian u64.
    pub fn write_u64(&mut self, addr: PhysAddr, val: u64) -> HalResult<()> {
        self.write(addr, &val.to_le_bytes())
    }

    /// Fill `len` bytes with a value (used to scrub hardware-task data
    /// sections and zero page tables).
    pub fn fill(&mut self, addr: PhysAddr, len: usize, val: u8) -> HalResult<()> {
        // Work chunk-wise to avoid a giant temporary.
        let mut done = 0usize;
        let buf = [val; 4096];
        while done < len {
            let take = (len - done).min(buf.len());
            self.write(addr + done as u64, &buf[..take])?;
            done += take;
        }
        Ok(())
    }

    /// Approximate count of resident (actually allocated) bytes; used by
    /// footprint reporting.
    pub fn resident_bytes(&self) -> usize {
        let count = |r: &Region| r.chunks.iter().filter(|c| c.is_some()).count();
        (count(&self.ddr) + count(&self.ocm)) * CHUNK_SIZE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_initialised_and_lazy() {
        let mem = PhysMemory::new();
        assert_eq!(mem.read_u32(PhysAddr::new(0x100)).unwrap(), 0);
        assert_eq!(mem.resident_bytes(), 0);
    }

    #[test]
    fn read_write_round_trip() {
        let mut mem = PhysMemory::new();
        mem.write_u32(PhysAddr::new(0x1000), 0xdead_beef).unwrap();
        assert_eq!(mem.read_u32(PhysAddr::new(0x1000)).unwrap(), 0xdead_beef);
        mem.write_u64(PhysAddr::new(0x2000), 0x0123_4567_89ab_cdef)
            .unwrap();
        assert_eq!(
            mem.read_u64(PhysAddr::new(0x2000)).unwrap(),
            0x0123_4567_89ab_cdef
        );
    }

    #[test]
    fn cross_chunk_access() {
        let mut mem = PhysMemory::new();
        let addr = PhysAddr::new((CHUNK_SIZE as u64) - 2);
        mem.write_u32(addr, 0xa1b2_c3d4).unwrap();
        assert_eq!(mem.read_u32(addr).unwrap(), 0xa1b2_c3d4);
        let mut buf = vec![0u8; CHUNK_SIZE + 64];
        mem.read(PhysAddr::new(CHUNK_SIZE as u64 / 2), &mut buf)
            .unwrap();
    }

    #[test]
    fn ocm_region_accessible() {
        let mut mem = PhysMemory::new();
        let a = PhysAddr::new(OCM_BASE + 0x40);
        mem.write_u32(a, 7).unwrap();
        assert_eq!(mem.read_u32(a).unwrap(), 7);
        assert!(mem.is_ocm(a));
        assert!(!mem.is_ocm(PhysAddr::new(0x1000)));
    }

    #[test]
    fn unmapped_hole_rejected() {
        let mut mem = PhysMemory::new();
        let hole = PhysAddr::new(0x8000_0000); // between DDR top and OCM
        assert!(matches!(
            mem.read_u32(hole),
            Err(HalError::UnmappedPhysical(_))
        ));
        assert!(mem.write_u32(hole, 1).is_err());
    }

    #[test]
    fn straddling_region_end_rejected() {
        let mem = PhysMemory::new();
        let mut b = [0u8; 8];
        let end = PhysAddr::new(DDR_BASE + DDR_SIZE - 4);
        assert!(mem.read(end, &mut b).is_err());
    }

    #[test]
    fn fill_scrubs() {
        let mut mem = PhysMemory::new();
        mem.write_u32(PhysAddr::new(0x3000), 0xffff_ffff).unwrap();
        mem.fill(PhysAddr::new(0x3000), 8192, 0).unwrap();
        assert_eq!(mem.read_u32(PhysAddr::new(0x3000)).unwrap(), 0);
        assert_eq!(mem.read_u32(PhysAddr::new(0x4ffc)).unwrap(), 0);
    }

    #[test]
    fn code_chunk_dirty_tracking() {
        let mut mem = PhysMemory::new();
        let code = PhysAddr::new(2 * CHUNK_SIZE as u64 + 0x100);
        mem.note_code(code, 64);
        let gen0 = mem.code_gen();

        // Stores to unflagged chunks are invisible to the tracker.
        mem.write_u32(PhysAddr::new(0x10), 1).unwrap();
        assert_eq!(mem.code_gen(), gen0);

        // A store into the flagged chunk bumps the generation and reports
        // the chunk base exactly once.
        mem.write_u32(code + 8, 0xAB).unwrap();
        assert_eq!(mem.code_gen(), gen0 + 1);
        assert_eq!(mem.take_dirty_code(), vec![2 * CHUNK_SIZE as u64]);

        // The flag was consumed: a second store to the same chunk is quiet
        // until note_code flags it again.
        mem.write_u32(code, 0xCD).unwrap();
        assert_eq!(mem.code_gen(), gen0 + 1);
        assert!(mem.take_dirty_code().is_empty());
        mem.note_code(code, 64);
        mem.write_u32(code, 0xEF).unwrap();
        assert_eq!(mem.code_gen(), gen0 + 2);
    }

    #[test]
    fn note_code_spanning_chunks_flags_both() {
        let mut mem = PhysMemory::new();
        let last8 = PhysAddr::new(CHUNK_SIZE as u64 - 4);
        mem.note_code(last8, 8); // straddles chunk 0 and chunk 1
        mem.write_u32(PhysAddr::new(4), 1).unwrap();
        mem.write_u32(PhysAddr::new(CHUNK_SIZE as u64 + 4), 1)
            .unwrap();
        let dirty = mem.take_dirty_code();
        assert_eq!(dirty, vec![0, CHUNK_SIZE as u64]);
    }

    #[test]
    fn note_code_outside_ram_is_ignored() {
        let mut mem = PhysMemory::new();
        mem.note_code(PhysAddr::new(0x8000_0000), 8);
        assert_eq!(mem.code_gen(), 0);
    }

    #[test]
    fn a_store_anywhere_in_a_watched_chunk_ends_the_watch() {
        let mut mem = PhysMemory::new();
        let img = PhysAddr::new(CHUNK_SIZE as u64 + 0x100);
        let len = CHUNK_SIZE; // straddles chunks 1 and 2
        let stamps = mem.watch(img, len).expect("RAM");
        assert!(mem.unchanged(img, len, &stamps));
        mem.write_u32(PhysAddr::new(0x10), 1).unwrap(); // chunk 0: unwatched
        assert!(mem.unchanged(img, len, &stamps));
        // A store past the image's end but inside its last chunk counts.
        mem.write(PhysAddr::new(3 * CHUNK_SIZE as u64 - 8), &[1; 4])
            .unwrap();
        assert!(!mem.unchanged(img, len, &stamps));
        // Re-watching hands out new stamps; the old ones stay stale.
        let fresh = mem.watch(img, len).expect("RAM");
        assert!(mem.unchanged(img, len, &fresh));
        assert!(!mem.unchanged(img, len, &stamps));
        mem.fill(img, 4, 0).unwrap();
        assert!(!mem.unchanged(img, len, &fresh));
        assert!(mem.watch(PhysAddr::new(0x8000_0000), 4).is_none());
    }

    #[test]
    fn resident_grows_with_touch() {
        let mut mem = PhysMemory::new();
        mem.write_u32(PhysAddr::new(0), 1).unwrap();
        assert_eq!(mem.resident_bytes(), CHUNK_SIZE);
        mem.write_u32(PhysAddr::new(10 * CHUNK_SIZE as u64), 1)
            .unwrap();
        assert_eq!(mem.resident_bytes(), 2 * CHUNK_SIZE);
    }
}
