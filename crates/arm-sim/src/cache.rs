//! Physically-indexed, physically-tagged cache timing models.
//!
//! The evaluated Cortex-A9 has 32 KB separate L1 instruction and data caches
//! and a 512 KB unified L2. §III-C of the paper leans on the fact that both
//! L1 caches are physically tagged, so address-space switches do not require
//! cache flushes; and §V-B attributes the growth of the Hardware Task
//! Manager entry cost with guest count to cache (and TLB) pollution. This
//! module therefore models tags and replacement faithfully — but not data:
//! actual bytes live in [`crate::memory::PhysMemory`]; the cache's only job
//! is to decide *how many cycles* an access costs and to keep statistics.

use mnv_hal::PhysAddr;

use crate::timing;

/// Per-cache hit/miss counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Accesses that hit in this cache.
    pub hits: u64,
    /// Accesses that missed and were filled from the next level.
    pub misses: u64,
}

impl CacheStats {
    /// Total accesses.
    pub fn accesses(&self) -> u64 {
        self.hits + self.misses
    }

    /// Miss ratio in 0..=1 (0 when no accesses have happened).
    pub fn miss_ratio(&self) -> f64 {
        if self.accesses() == 0 {
            0.0
        } else {
            self.misses as f64 / self.accesses() as f64
        }
    }
}

/// One set-associative tag store with LRU replacement.
///
/// `line_shift` = log2(line size), standard 32-byte lines on the A9.
pub struct Cache {
    name: &'static str,
    line_shift: u32,
    num_sets: usize,
    ways: usize,
    /// tags[set * ways + way] — tag value, or `u64::MAX` for invalid.
    tags: Vec<u64>,
    /// LRU stamps parallel to `tags`.
    stamps: Vec<u64>,
    tick: u64,
    stats: CacheStats,
    /// Bumped on every mutation of line *presence* (fill or invalidate).
    /// Hits only re-stamp LRU state; they leave the epoch alone. The
    /// decoded-block executor memoizes run residency checks against this.
    epoch: u64,
}

/// Tag value meaning "invalid line".
const INVALID: u64 = u64::MAX;

impl Cache {
    /// Build a cache of `size_bytes` with `ways` ways and 32-byte lines.
    pub fn new(name: &'static str, size_bytes: usize, ways: usize) -> Self {
        let line = 32usize;
        let num_sets = size_bytes / line / ways;
        assert!(num_sets.is_power_of_two(), "{name}: sets must be 2^n");
        Cache {
            name,
            line_shift: line.trailing_zeros(),
            num_sets,
            ways,
            tags: vec![INVALID; num_sets * ways],
            stamps: vec![0; num_sets * ways],
            tick: 0,
            stats: CacheStats::default(),
            epoch: 0,
        }
    }

    /// Cache identification, for diagnostics.
    pub fn name(&self) -> &'static str {
        self.name
    }

    #[inline]
    fn set_and_tag(&self, pa: PhysAddr) -> (usize, u64) {
        let line = pa.raw() >> self.line_shift;
        (
            (line as usize) & (self.num_sets - 1),
            line >> self.num_sets.trailing_zeros(),
        )
    }

    /// Look up `pa`; on miss, fill (LRU eviction). Returns `true` on hit.
    pub fn access(&mut self, pa: PhysAddr) -> bool {
        // The L1s' 4 ways and the L2's 8 get a lookup the compiler
        // unrolls; any other geometry runs the same code with a run-time
        // bound.
        match self.ways {
            4 => self.lookup(pa, 4),
            8 => self.lookup(pa, 8),
            w => self.lookup(pa, w),
        }
    }

    /// [`Cache::access`] in a set of `ways` ways. The hit search compares
    /// every way, with no early exit; only a miss looks at the stamps,
    /// and it evicts the first way with the oldest one, the way
    /// `Iterator::min_by_key` picks.
    #[inline(always)]
    fn lookup(&mut self, pa: PhysAddr, ways: usize) -> bool {
        self.tick += 1;
        let (set, tag) = self.set_and_tag(pa);
        let base = set * ways;
        let tags = &mut self.tags[base..base + ways];
        let stamps = &mut self.stamps[base..base + ways];
        let mut hit = ways;
        for (w, &t) in tags.iter().enumerate() {
            if t == tag {
                hit = w;
            }
        }
        if hit < ways {
            stamps[hit] = self.tick;
            self.stats.hits += 1;
            return true;
        }
        let (mut victim, mut oldest) = (0, stamps[0]);
        for (w, &s) in stamps.iter().enumerate().skip(1) {
            if s < oldest {
                victim = w;
                oldest = s;
            }
        }
        tags[victim] = tag;
        stamps[victim] = self.tick;
        self.epoch += 1;
        self.stats.misses += 1;
        false
    }

    /// Probe without filling or counting (used by tests/inspection).
    pub fn probe(&self, pa: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(pa);
        let base = set * self.ways;
        (0..self.ways).any(|w| self.tags[base + w] == tag)
    }

    /// Slot index (`set * ways + way`) currently holding `pa`'s line, if
    /// resident. No fill, no stats — the decoded-block executor resolves
    /// slots up front and credits the hits via [`Cache::replay_hit`] /
    /// [`Cache::replay_hits`].
    pub fn probe_slot(&self, pa: PhysAddr) -> Option<usize> {
        let (set, tag) = self.set_and_tag(pa);
        let base = set * self.ways;
        (0..self.ways)
            .find(|&w| self.tags[base + w] == tag)
            .map(|w| base + w)
    }

    /// True if `slot` currently holds `pa`'s line. This is the by-value
    /// revalidation the replay data hints rely on: the slot's tag is
    /// compared against the address on every use, so the check stays
    /// correct across arbitrary intervening fills and invalidations with
    /// no epoch or hook required.
    #[inline]
    pub fn slot_holds(&self, slot: usize, pa: PhysAddr) -> bool {
        let (set, tag) = self.set_and_tag(pa);
        slot.wrapping_sub(set * self.ways) < self.ways && self.tags[slot] == tag
    }

    /// Credit one hit on `slot`: exactly the bookkeeping a hitting
    /// [`Cache::access`] performs.
    #[inline]
    pub fn replay_hit(&mut self, slot: usize) {
        self.tick += 1;
        self.stamps[slot] = self.tick;
        self.stats.hits += 1;
    }

    /// Credit `n` hits whose per-line LRU order is known: each `(slot, ord)`
    /// stamps `slot` as if its line's last access had been the `ord`-th
    /// (1-based) of the `n` — the exact final state `n` interleaved hitting
    /// accesses would leave.
    pub fn replay_hits(&mut self, n: u64, stamped: &[(usize, u64)]) {
        let t0 = self.tick;
        self.tick += n;
        self.stats.hits += n;
        for &(slot, ord) in stamped {
            self.stamps[slot] = t0 + ord;
        }
    }

    /// log2 of the line size.
    #[inline]
    pub fn line_shift(&self) -> u32 {
        self.line_shift
    }

    /// Invalidate everything; returns the number of lines that were valid
    /// (maintenance loops cost cycles per line).
    pub fn invalidate_all(&mut self) -> usize {
        self.epoch += 1;
        let valid = self.tags.iter().filter(|&&t| t != INVALID).count();
        self.tags.fill(INVALID);
        valid
    }

    /// Invalidate a single line by physical address; returns true if it was
    /// present.
    pub fn invalidate_line(&mut self, pa: PhysAddr) -> bool {
        self.epoch += 1;
        let (set, tag) = self.set_and_tag(pa);
        let base = set * self.ways;
        for w in 0..self.ways {
            if self.tags[base + w] == tag {
                self.tags[base + w] = INVALID;
                return true;
            }
        }
        false
    }

    /// Line-presence epoch (see the field docs): unchanged epoch means
    /// every probe resolves exactly as it did when the epoch was read.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Reset statistics (the benchmark harness does this between phases).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Number of currently valid lines.
    pub fn valid_lines(&self) -> usize {
        self.tags.iter().filter(|&&t| t != INVALID).count()
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> usize {
        1 << self.line_shift
    }

    /// Digest of the replacement state: every slot's tag and LRU stamp,
    /// and the tick. Two caches with equal digests evict the same lines
    /// from here on; the lockstep suites compare executors with it.
    pub fn state_digest(&self) -> u64 {
        // A multiply-xor fold: the L2's 16K slots make a byte-wise hash
        // the cost of every lockstep comparison in debug builds.
        let words = self.tags.iter().chain(&self.stamps);
        words.fold(self.tick, |h, &w| (h ^ w).wrapping_mul(0x0100_0000_01B3))
    }
}

/// Kind of access presented to the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemAccessKind {
    /// Instruction fetch (L1I).
    Fetch,
    /// Data read (L1D).
    Read,
    /// Data write (L1D, write-allocate).
    Write,
}

/// The A9 cache hierarchy: L1I + L1D backed by a unified L2.
pub struct CacheHierarchy {
    /// 32 KB 4-way L1 instruction cache.
    pub l1i: Cache,
    /// 32 KB 4-way L1 data cache.
    pub l1d: Cache,
    /// 512 KB 8-way unified L2.
    pub l2: Cache,
    /// Caches enabled (SCTLR.C / SCTLR.I folded into one switch; when off,
    /// every access costs a DDR trip, as during early boot).
    pub enabled: bool,
}

impl Default for CacheHierarchy {
    fn default() -> Self {
        Self::new()
    }
}

impl CacheHierarchy {
    /// The evaluated platform's geometry: 32 KB/32 KB L1, 512 KB L2.
    pub fn new() -> Self {
        CacheHierarchy {
            l1i: Cache::new("L1I", 32 * 1024, 4),
            l1d: Cache::new("L1D", 32 * 1024, 4),
            l2: Cache::new("L2", 512 * 1024, 8),
            enabled: true,
        }
    }

    /// Charge one access through the hierarchy and return its cost in
    /// cycles. `is_ocm` selects the OCM backing latency instead of DDR.
    pub fn access(&mut self, pa: PhysAddr, kind: MemAccessKind, is_ocm: bool) -> u64 {
        let backing = if is_ocm { timing::OCM } else { timing::DDR };
        if !self.enabled {
            return backing;
        }
        let l1 = match kind {
            MemAccessKind::Fetch => &mut self.l1i,
            MemAccessKind::Read | MemAccessKind::Write => &mut self.l1d,
        };
        if l1.access(pa) {
            return timing::L1_HIT;
        }
        if self.l2.access(pa) {
            return timing::L2_HIT;
        }
        backing
    }

    /// Invalidate both L1s and the L2; returns maintenance cost in cycles.
    /// This is the expensive operation §III-C's physically-tagged design
    /// avoids on VM switches.
    pub fn flush_all(&mut self) -> u64 {
        let lines =
            self.l1i.invalidate_all() + self.l1d.invalidate_all() + self.l2.invalidate_all();
        lines as u64 * timing::CACHE_MAINT_PER_LINE
    }

    /// Invalidate one line in all levels (DMA coherence maintenance).
    pub fn flush_line(&mut self, pa: PhysAddr) -> u64 {
        let mut n = 0;
        n += self.l1i.invalidate_line(pa) as u64;
        n += self.l1d.invalidate_line(pa) as u64;
        n += self.l2.invalidate_line(pa) as u64;
        n * timing::CACHE_MAINT_PER_LINE + timing::CACHE_MAINT_PER_LINE
    }

    /// Reset all statistics.
    pub fn reset_stats(&mut self) {
        self.l1i.reset_stats();
        self.l1d.reset_stats();
        self.l2.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pa(x: u64) -> PhysAddr {
        PhysAddr::new(x)
    }

    #[test]
    fn first_access_misses_then_hits() {
        let mut c = Cache::new("t", 32 * 1024, 4);
        assert!(!c.access(pa(0x1000)));
        assert!(c.access(pa(0x1000)));
        assert!(c.access(pa(0x1004))); // same 32-byte line
        assert!(!c.access(pa(0x1020))); // next line
        assert_eq!(c.stats(), CacheStats { hits: 2, misses: 2 });
    }

    #[test]
    fn lru_eviction_within_set() {
        // 4-way: five distinct tags mapping to the same set evict the LRU.
        let mut c = Cache::new("t", 32 * 1024, 4);
        let set_stride = (32 * 1024 / 4) as u64; // sets * line = way size
        for i in 0..4 {
            assert!(!c.access(pa(i * set_stride)));
        }
        // Touch line 0 so line 1 becomes LRU.
        assert!(c.access(pa(0)));
        assert!(!c.access(pa(4 * set_stride))); // evicts tag 1
        assert!(c.access(pa(0))); // still resident
        assert!(!c.access(pa(set_stride))); // tag 1 was evicted
    }

    #[test]
    fn invalidate_all_counts_lines() {
        let mut c = Cache::new("t", 4 * 1024, 2);
        for i in 0..10 {
            c.access(pa(i * 32));
        }
        assert_eq!(c.valid_lines(), 10);
        assert_eq!(c.invalidate_all(), 10);
        assert_eq!(c.valid_lines(), 0);
        assert!(!c.probe(pa(0)));
    }

    #[test]
    fn invalidate_single_line() {
        let mut c = Cache::new("t", 4 * 1024, 2);
        c.access(pa(0x40));
        assert!(c.invalidate_line(pa(0x40)));
        assert!(!c.invalidate_line(pa(0x40)));
        assert!(!c.probe(pa(0x40)));
    }

    /// The set scan as it stood before the unrolled lookup: an
    /// early-exit hit search, then `min_by_key` over the stamps.
    fn reference_access(c: &mut Cache, pa: PhysAddr) -> bool {
        c.tick += 1;
        let (set, tag) = c.set_and_tag(pa);
        let base = set * c.ways;
        for w in 0..c.ways {
            if c.tags[base + w] == tag {
                c.stamps[base + w] = c.tick;
                c.stats.hits += 1;
                return true;
            }
        }
        c.epoch += 1;
        let victim = (0..c.ways)
            .min_by_key(|&w| c.stamps[base + w])
            .expect("ways >= 1");
        c.tags[base + victim] = tag;
        c.stamps[base + victim] = c.tick;
        c.stats.misses += 1;
        false
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Drive `access` and the reference scan with the same seeded stream
    /// of fills, hits, invalidations and replayed hits, and require the
    /// same answer, statistics, epoch and replacement state after every
    /// operation. Addresses come from a few sets and twice as many tags
    /// as ways, so hits, evictions and stamp ties (fresh sets, replayed
    /// hits sharing an order) are all frequent. The digest folds every
    /// slot, so `steps` stays small enough for a debug build.
    fn differential(size: usize, ways: usize, seed: u64, steps: usize) {
        let mut fast = Cache::new("fast", size, ways);
        let mut slow = Cache::new("slow", size, ways);
        let way_bytes = (size / ways) as u64;
        let mut rng = seed;
        let addr = |rng: &mut u64| {
            let r = splitmix(rng);
            let tag = r % (2 * ways as u64 + 1);
            let set = (r >> 16) % 4;
            pa(tag * way_bytes + set * 32 + (r >> 32) % 32)
        };
        for step in 0..steps {
            let op = splitmix(&mut rng) % 100;
            let (a, b) = match op {
                0..=69 => {
                    let p = addr(&mut rng);
                    (fast.access(p) as u64, reference_access(&mut slow, p) as u64)
                }
                70..=79 => {
                    let p = addr(&mut rng);
                    (
                        fast.invalidate_line(p) as u64,
                        slow.invalidate_line(p) as u64,
                    )
                }
                80 => (fast.invalidate_all() as u64, slow.invalidate_all() as u64),
                81..=92 => {
                    let p = addr(&mut rng);
                    let slot = fast.probe_slot(p);
                    assert_eq!(slot, slow.probe_slot(p), "step {step}");
                    if let Some(slot) = slot {
                        fast.replay_hit(slot);
                        slow.replay_hit(slot);
                    }
                    (0, 0)
                }
                _ => {
                    let n = 1 + splitmix(&mut rng) % 6;
                    let mut stamped = Vec::new();
                    for _ in 0..n {
                        if let Some(slot) = fast.probe_slot(addr(&mut rng)) {
                            stamped.push((slot, 1 + splitmix(&mut rng) % n));
                        }
                    }
                    fast.replay_hits(n, &stamped);
                    slow.replay_hits(n, &stamped);
                    (0, 0)
                }
            };
            assert_eq!(a, b, "{ways}-way seed {seed} step {step}: op {op}");
            assert_eq!(
                fast.stats(),
                slow.stats(),
                "{ways}-way seed {seed} step {step}"
            );
            assert_eq!(
                fast.epoch(),
                slow.epoch(),
                "{ways}-way seed {seed} step {step}"
            );
            assert_eq!(
                fast.state_digest(),
                slow.state_digest(),
                "{ways}-way seed {seed} step {step}"
            );
        }
        assert!(fast.stats().hits > 0 && fast.stats().misses > 0);
    }

    #[test]
    fn unrolled_lookup_matches_reference_scan_l1() {
        for seed in [1, 11, 227] {
            differential(32 * 1024, 4, seed, 4_000);
        }
    }

    #[test]
    fn unrolled_lookup_matches_reference_scan_l2() {
        for seed in [1, 11, 227] {
            differential(512 * 1024, 8, seed, 1_500);
        }
    }

    #[test]
    fn unrolled_lookup_matches_reference_scan_other_geometry() {
        differential(4 * 1024, 2, 5, 4_000);
    }

    #[test]
    fn hierarchy_costs_ordered() {
        let mut h = CacheHierarchy::new();
        let a = pa(0x8000);
        let miss = h.access(a, MemAccessKind::Read, false);
        let hit = h.access(a, MemAccessKind::Read, false);
        assert_eq!(miss, timing::DDR);
        assert_eq!(hit, timing::L1_HIT);
        // Instruction fetch uses the separate L1I: first fetch misses L1I
        // but hits L2 (filled by the data access above).
        let ifetch = h.access(a, MemAccessKind::Fetch, false);
        assert_eq!(ifetch, timing::L2_HIT);
    }

    #[test]
    fn disabled_hierarchy_charges_backing() {
        let mut h = CacheHierarchy::new();
        h.enabled = false;
        assert_eq!(h.access(pa(0x100), MemAccessKind::Read, false), timing::DDR);
        assert_eq!(h.access(pa(0x100), MemAccessKind::Read, true), timing::OCM);
    }

    #[test]
    fn flush_all_cost_proportional_to_contents() {
        let mut h = CacheHierarchy::new();
        for i in 0..100u64 {
            h.access(pa(i * 32), MemAccessKind::Read, false);
        }
        let cost = h.flush_all();
        // 100 L1D lines + 100 L2 lines.
        assert_eq!(cost, 200 * timing::CACHE_MAINT_PER_LINE);
    }

    #[test]
    fn ocm_misses_cost_less_than_ddr() {
        let mut h = CacheHierarchy::new();
        let m_ddr = h.access(pa(0x10_0000), MemAccessKind::Read, false);
        let m_ocm = h.access(pa(0xFFFC_0040), MemAccessKind::Read, true);
        assert!(m_ocm < m_ddr);
    }
}
