//! ASID-tagged translation lookaside buffer model.
//!
//! §III-C of the paper: "We utilize the address space identifier (ASID) to
//! simplify the management of TLB. Translations with different ASIDs are
//! respectively labeled in TLB. Each VM is associated with one unique ASID
//! value. The microkernel reloads the ASID register whenever a virtual
//! machine is switched." This module provides exactly that machinery: the
//! kernel never needs to flush on a VM switch, and the benchmark harness can
//! measure how much that saves (ablation `asid`).
//!
//! Geometry: one unified 128-entry, 2-way set-associative main TLB with
//! per-set LRU replacement, matching the Cortex-A9's main TLB
//! organisation. Small pages index by VA bits above the page offset,
//! sections by bits above the section offset, both masked to the
//! power-of-two set count; a lookup probes both candidate sets, the
//! small-page set first (the hardware resolves this in the micro-TLBs).
//! Entries carry the decoded descriptor attributes so a hit skips the
//! page-table walk entirely.

use std::hash::{Hash, Hasher};

use mnv_hal::{Asid, Domain, VirtAddr, PAGE_SHIFT, SECTION_SHIFT};

/// Access-permission encoding carried in a TLB entry (decoded AP/APX bits).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Ap {
    /// No access at any privilege level.
    None,
    /// PL1 read/write, PL0 no access.
    PrivOnly,
    /// PL1 read/write, PL0 read-only.
    PrivRwUserRo,
    /// Full access from both privilege levels.
    Full,
    /// Read-only at both privilege levels.
    ReadOnly,
}

/// Mapping granularity of an entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// 4 KB small page (second-level descriptor).
    Small,
    /// 1 MB section (first-level descriptor).
    Section,
}

impl PageKind {
    /// log2 of the mapping size.
    #[inline]
    pub fn shift(self) -> u32 {
        match self {
            PageKind::Small => PAGE_SHIFT,
            PageKind::Section => SECTION_SHIFT,
        }
    }
}

/// One cached translation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TlbEntry {
    /// Virtual base of the mapping (page- or section-aligned).
    pub va_base: u64,
    /// Physical base of the mapping.
    pub pa_base: u64,
    /// Granularity.
    pub kind: PageKind,
    /// Address-space tag (ignored for global mappings).
    pub asid: Asid,
    /// Global mappings match under any ASID (kernel mappings use this).
    pub global: bool,
    /// Decoded access permission.
    pub ap: Ap,
    /// MMU domain of the first-level descriptor.
    pub domain: Domain,
    /// Execute-never attribute.
    pub xn: bool,
}

impl TlbEntry {
    /// True when this entry translates `va` under `asid`.
    #[inline]
    pub fn matches(&self, va: VirtAddr, asid: Asid) -> bool {
        let mask = !((1u64 << self.kind.shift()) - 1);
        (va.raw() & mask) == self.va_base && (self.global || self.asid == asid)
    }

    /// Translate an address that matches this entry.
    #[inline]
    pub fn translate(&self, va: VirtAddr) -> u64 {
        let off_mask = (1u64 << self.kind.shift()) - 1;
        self.pa_base | (va.raw() & off_mask)
    }
}

/// TLB hit/miss/flush statistics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TlbStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed (page-table walk required).
    pub misses: u64,
    /// Entries discarded by flush operations.
    pub flushed_entries: u64,
}

impl TlbStats {
    /// Miss ratio in 0..=1.
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// Associativity of the main TLB (the A9's main TLB is 2-way).
pub const TLB_WAYS: usize = 2;

/// The unified main TLB.
pub struct Tlb {
    entries: Vec<Option<TlbEntry>>,
    stamps: Vec<u64>,
    /// Set count minus one: the set index of a VA is its page (or section)
    /// number masked with this.
    set_mask: usize,
    tick: u64,
    stats: TlbStats,
    /// Bumped on every mutation of entry *presence* (insert or flush).
    /// Hits only re-stamp LRU state, which cannot change what any future
    /// probe resolves to, so they leave the epoch alone. The decoded-block
    /// executor uses this to memoize run verification: an unchanged epoch
    /// proves every slot still holds the same entry.
    epoch: u64,
}

impl Default for Tlb {
    fn default() -> Self {
        Self::new(128)
    }
}

impl Tlb {
    /// Build a TLB with `capacity` entries (128 on the A9), organised as
    /// `capacity / 2` sets of [`TLB_WAYS`] ways; the set count must be a
    /// power of two.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity >= TLB_WAYS && capacity.is_multiple_of(TLB_WAYS));
        let sets = capacity / TLB_WAYS;
        assert!(
            sets.is_power_of_two(),
            "TLB set count must be a power of two"
        );
        Tlb {
            entries: vec![None; capacity],
            stamps: vec![0; capacity],
            set_mask: sets - 1,
            tick: 0,
            stats: TlbStats::default(),
            epoch: 0,
        }
    }

    /// First slot of the set a VA indexes under the given granularity.
    #[inline(always)]
    fn set_base(&self, va: u64, kind: PageKind) -> usize {
        ((va >> kind.shift()) as usize & self.set_mask) * TLB_WAYS
    }

    /// The one candidate-slot search behind [`Tlb::lookup`] and
    /// [`Tlb::probe_slot`]: the small-page set's ways, then the section
    /// set's, first match wins.
    #[inline(always)]
    fn find(&self, va: VirtAddr, asid: Asid) -> Option<(usize, TlbEntry)> {
        let small = self.set_base(va.raw(), PageKind::Small);
        let sect = self.set_base(va.raw(), PageKind::Section);
        for base in [small, sect] {
            for i in base..base + TLB_WAYS {
                if let Some(e) = self.entries[i] {
                    if e.matches(va, asid) {
                        return Some((i, e));
                    }
                }
            }
        }
        None
    }

    /// Look up a translation; counts a hit or a miss. Probes the candidate
    /// set under both granularities (small-page and section indexing).
    #[inline]
    pub fn lookup(&mut self, va: VirtAddr, asid: Asid) -> Option<TlbEntry> {
        self.tick += 1;
        match self.find(va, asid) {
            Some((i, e)) => {
                self.stamps[i] = self.tick;
                self.stats.hits += 1;
                Some(e)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Probe for the slot a [`Tlb::lookup`] of `(va, asid)` would hit,
    /// without counting or re-stamping: the same search.
    /// The decoded-block executor resolves the slot once and then credits
    /// hits in bulk via [`Tlb::replay_hits`].
    pub fn probe_slot(&self, va: VirtAddr, asid: Asid) -> Option<(usize, TlbEntry)> {
        self.find(va, asid)
    }

    /// Entry currently held by `slot` (replay-hint verification).
    #[inline]
    pub fn entry_at(&self, slot: usize) -> Option<TlbEntry> {
        self.entries[slot]
    }

    /// Credit `n` back-to-back hits on `slot`: exactly the bookkeeping `n`
    /// consecutive [`Tlb::lookup`] calls hitting that slot perform (each
    /// ticks once and re-stamps the slot, so only the final stamp survives).
    #[inline]
    pub fn replay_hits(&mut self, slot: usize, n: u64) {
        self.tick += n;
        self.stamps[slot] = self.tick;
        self.stats.hits += n;
    }

    /// Insert a translation after a walk (per-set LRU replacement;
    /// duplicates of the same va/asid are overwritten in place).
    pub fn insert(&mut self, entry: TlbEntry) {
        self.tick += 1;
        self.epoch += 1;
        let base = self.set_base(entry.va_base, entry.kind);
        let slots = base..base + TLB_WAYS;
        // Overwrite a matching entry if present (walk after explicit
        // invalidate-by-MVA, or permission upgrade).
        for i in slots.clone() {
            if let Some(e) = self.entries[i] {
                if e.va_base == entry.va_base
                    && e.kind == entry.kind
                    && (e.global == entry.global && (e.global || e.asid == entry.asid))
                {
                    self.entries[i] = Some(entry);
                    self.stamps[i] = self.tick;
                    return;
                }
            }
        }
        // Free way in the set, else the set's LRU victim.
        let victim = slots
            .clone()
            .find(|&i| self.entries[i].is_none())
            .unwrap_or_else(|| slots.min_by_key(|&i| self.stamps[i]).expect("TLB_WAYS > 0"));
        self.entries[victim] = Some(entry);
        self.stamps[victim] = self.tick;
    }

    /// Invalidate everything (TLBIALL).
    pub fn flush_all(&mut self) {
        self.epoch += 1;
        let n = self.entries.iter().filter(|e| e.is_some()).count();
        self.stats.flushed_entries += n as u64;
        self.entries.iter_mut().for_each(|e| *e = None);
    }

    /// Invalidate all non-global entries with the given ASID (TLBIASID).
    pub fn flush_asid(&mut self, asid: Asid) {
        self.epoch += 1;
        for slot in self.entries.iter_mut() {
            if let Some(e) = slot {
                if !e.global && e.asid == asid {
                    *slot = None;
                    self.stats.flushed_entries += 1;
                }
            }
        }
    }

    /// Invalidate any entry covering `va` under `asid` (TLBIMVA); global
    /// entries covering `va` are removed regardless of ASID.
    pub fn flush_mva(&mut self, va: VirtAddr, asid: Asid) {
        self.epoch += 1;
        for slot in self.entries.iter_mut() {
            if let Some(e) = slot {
                if e.matches(va, asid) {
                    *slot = None;
                    self.stats.flushed_entries += 1;
                }
            }
        }
    }

    /// Entry-presence epoch (see the field docs): unchanged epoch means
    /// every slot resolves exactly as it did when the epoch was read.
    #[inline]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current statistics.
    pub fn stats(&self) -> TlbStats {
        self.stats
    }

    /// Reset statistics.
    pub fn reset_stats(&mut self) {
        self.stats = TlbStats::default();
    }

    /// Number of valid entries.
    pub fn valid_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.is_some()).count()
    }

    /// Digest of the replacement state: every slot's entry and LRU stamp,
    /// and the tick. Two TLBs with equal digests evict the same victims
    /// from here on; the lockstep suites compare executors with it.
    pub fn state_digest(&self) -> u64 {
        let mut h = std::hash::DefaultHasher::new();
        (&self.entries, &self.stamps, self.tick).hash(&mut h);
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(va: u64, pa: u64, asid: u8, global: bool, kind: PageKind) -> TlbEntry {
        TlbEntry {
            va_base: va,
            pa_base: pa,
            kind,
            asid: Asid(asid),
            global,
            ap: Ap::Full,
            domain: Domain::GUEST_USER,
            xn: false,
        }
    }

    #[test]
    fn hit_after_insert_and_offset_translation() {
        let mut tlb = Tlb::new(8);
        tlb.insert(entry(
            0x1000,
            0x8000_1000 & !0xFFF,
            3,
            false,
            PageKind::Small,
        ));
        let e = tlb.lookup(VirtAddr::new(0x1abc), Asid(3)).unwrap();
        assert_eq!(
            e.translate(VirtAddr::new(0x1abc)),
            0x8000_1abc & !0xFFF | 0xabc
        );
        assert_eq!(tlb.stats().hits, 1);
    }

    #[test]
    fn asid_isolation() {
        let mut tlb = Tlb::new(8);
        tlb.insert(entry(0x1000, 0x4000, 1, false, PageKind::Small));
        assert!(tlb.lookup(VirtAddr::new(0x1000), Asid(2)).is_none());
        assert!(tlb.lookup(VirtAddr::new(0x1000), Asid(1)).is_some());
        assert_eq!(tlb.stats().misses, 1);
    }

    #[test]
    fn global_entries_match_any_asid() {
        let mut tlb = Tlb::new(8);
        tlb.insert(entry(0xC000_0000, 0x0, 0, true, PageKind::Section));
        assert!(tlb.lookup(VirtAddr::new(0xC008_0000), Asid(7)).is_some());
        assert!(tlb.lookup(VirtAddr::new(0xC00F_FFFF), Asid(1)).is_some());
    }

    #[test]
    fn section_granularity() {
        let mut tlb = Tlb::new(8);
        tlb.insert(entry(0x0010_0000, 0x2000_0000, 1, false, PageKind::Section));
        let e = tlb.lookup(VirtAddr::new(0x001A_BCDE), Asid(1)).unwrap();
        assert_eq!(e.translate(VirtAddr::new(0x001A_BCDE)), 0x200A_BCDE);
        // Next section must miss.
        assert!(tlb.lookup(VirtAddr::new(0x0020_0000), Asid(1)).is_none());
    }

    #[test]
    fn flush_asid_spares_globals_and_other_asids() {
        let mut tlb = Tlb::new(8);
        tlb.insert(entry(0x1000, 0x1000, 1, false, PageKind::Small));
        tlb.insert(entry(0x2000, 0x2000, 2, false, PageKind::Small));
        tlb.insert(entry(0xC000_0000, 0x0, 0, true, PageKind::Section));
        tlb.flush_asid(Asid(1));
        assert!(tlb.lookup(VirtAddr::new(0x1000), Asid(1)).is_none());
        assert!(tlb.lookup(VirtAddr::new(0x2000), Asid(2)).is_some());
        assert!(tlb.lookup(VirtAddr::new(0xC000_0000), Asid(1)).is_some());
        assert_eq!(tlb.stats().flushed_entries, 1);
    }

    #[test]
    fn flush_mva_removes_covering_entry() {
        let mut tlb = Tlb::new(8);
        tlb.insert(entry(0x3000, 0x3000, 1, false, PageKind::Small));
        tlb.flush_mva(VirtAddr::new(0x3abc), Asid(1));
        assert!(tlb.lookup(VirtAddr::new(0x3000), Asid(1)).is_none());
    }

    #[test]
    fn lru_replacement_when_full() {
        let mut tlb = Tlb::new(2);
        tlb.insert(entry(0x1000, 0x1000, 1, false, PageKind::Small));
        tlb.insert(entry(0x2000, 0x2000, 1, false, PageKind::Small));
        // Touch 0x1000 so 0x2000 becomes LRU.
        tlb.lookup(VirtAddr::new(0x1000), Asid(1));
        tlb.insert(entry(0x3000, 0x3000, 1, false, PageKind::Small));
        assert!(tlb.lookup(VirtAddr::new(0x1000), Asid(1)).is_some());
        assert!(tlb.lookup(VirtAddr::new(0x2000), Asid(1)).is_none());
    }

    #[test]
    fn insert_overwrites_same_mapping() {
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(0x1000, 0x1000, 1, false, PageKind::Small));
        let mut e2 = entry(0x1000, 0x9000, 1, false, PageKind::Small);
        e2.ap = Ap::PrivOnly;
        tlb.insert(e2);
        assert_eq!(tlb.valid_entries(), 1);
        let got = tlb.lookup(VirtAddr::new(0x1000), Asid(1)).unwrap();
        assert_eq!(got.pa_base, 0x9000);
        assert_eq!(got.ap, Ap::PrivOnly);
    }

    #[test]
    fn flush_all_clears() {
        let mut tlb = Tlb::new(4);
        tlb.insert(entry(0x1000, 0x1000, 1, false, PageKind::Small));
        tlb.insert(entry(0x2000, 0x2000, 2, false, PageKind::Small));
        tlb.flush_all();
        assert_eq!(tlb.valid_entries(), 0);
        assert_eq!(tlb.stats().flushed_entries, 2);
    }

    /// The chained two-set scan `lookup` and `probe_slot` each ran before
    /// the one candidate-slot search, with its `%` set index, kept as the
    /// differential oracle.
    fn reference_slots(tlb: &Tlb, va_base: u64, kind: PageKind) -> std::ops::Range<usize> {
        let set = (va_base >> kind.shift()) as usize % (tlb.set_mask + 1);
        set * TLB_WAYS..(set + 1) * TLB_WAYS
    }

    fn reference_lookup(tlb: &mut Tlb, va: VirtAddr, asid: Asid) -> Option<TlbEntry> {
        tlb.tick += 1;
        let small = reference_slots(tlb, va.raw(), PageKind::Small);
        let sect = reference_slots(tlb, va.raw(), PageKind::Section);
        for i in small.chain(sect) {
            if let Some(e) = tlb.entries[i] {
                if e.matches(va, asid) {
                    tlb.stamps[i] = tlb.tick;
                    tlb.stats.hits += 1;
                    return Some(e);
                }
            }
        }
        tlb.stats.misses += 1;
        None
    }

    fn reference_probe_slot(tlb: &Tlb, va: VirtAddr, asid: Asid) -> Option<(usize, TlbEntry)> {
        let small = reference_slots(tlb, va.raw(), PageKind::Small);
        let sect = reference_slots(tlb, va.raw(), PageKind::Section);
        small.chain(sect).find_map(|i| {
            tlb.entries[i]
                .filter(|e| e.matches(va, asid))
                .map(|e| (i, e))
        })
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Drive `lookup`/`probe_slot` and the reference scan on two TLBs with
    /// the same seeded stream of inserts, lookups, probes, replayed hits
    /// and flushes, and require the same entry and slot, statistics, epoch
    /// and replacement state after every operation. Addresses come from
    /// a few sections and pages chosen so that small-page and section sets
    /// collide and a small entry and a section entry often both match one
    /// VA: then only the probe order decides which one hits.
    fn differential(capacity: usize, seed: u64, steps: usize) {
        let mut fast = Tlb::new(capacity);
        let mut slow = Tlb::new(capacity);
        let mut rng = seed;
        let va = |rng: &mut u64| {
            let r = splitmix(rng);
            let section = [0u64, 1, 2, 64, 65, 0x800][(r % 6) as usize];
            let page = [0u64, 1, 2, 3, 64, 65, 255][((r >> 8) % 7) as usize];
            VirtAddr::new((section << SECTION_SHIFT) | (page << PAGE_SHIFT) | ((r >> 16) & 0xFFF))
        };
        let asid = |rng: &mut u64| Asid(1 + (splitmix(rng) % 3) as u8);
        for step in 0..steps {
            let op = splitmix(&mut rng) % 100;
            let ctx = format!("capacity {capacity} seed {seed} step {step} op {op}");
            match op {
                0..=34 => {
                    let (v, a) = (va(&mut rng), asid(&mut rng));
                    assert_eq!(
                        fast.lookup(v, a),
                        reference_lookup(&mut slow, v, a),
                        "{ctx}"
                    );
                }
                35..=49 => {
                    let (v, a) = (va(&mut rng), asid(&mut rng));
                    assert_eq!(
                        fast.probe_slot(v, a),
                        reference_probe_slot(&slow, v, a),
                        "{ctx}"
                    );
                }
                50..=79 => {
                    let v = va(&mut rng);
                    let r = splitmix(&mut rng);
                    let kind = if r.is_multiple_of(3) {
                        PageKind::Section
                    } else {
                        PageKind::Small
                    };
                    let base = v.raw() & !((1u64 << kind.shift()) - 1);
                    let e = TlbEntry {
                        va_base: base,
                        pa_base: ((r >> 32) << kind.shift()) & 0xFFFF_FFFF,
                        kind,
                        asid: asid(&mut rng),
                        global: (r >> 8) & 3 == 0,
                        ap: [Ap::None, Ap::PrivOnly, Ap::Full][((r >> 12) % 3) as usize],
                        domain: Domain(((r >> 16) % 4) as u8),
                        xn: (r >> 20) & 1 == 0,
                    };
                    fast.insert(e);
                    slow.insert(e);
                }
                80..=91 => {
                    let (v, a) = (va(&mut rng), asid(&mut rng));
                    if let Some((slot, _)) = fast.probe_slot(v, a) {
                        let n = 1 + splitmix(&mut rng) % 5;
                        fast.replay_hits(slot, n);
                        slow.replay_hits(slot, n);
                    }
                }
                92..=93 => {
                    fast.flush_all();
                    slow.flush_all();
                }
                94..=96 => {
                    let a = asid(&mut rng);
                    fast.flush_asid(a);
                    slow.flush_asid(a);
                }
                _ => {
                    let (v, a) = (va(&mut rng), asid(&mut rng));
                    fast.flush_mva(v, a);
                    slow.flush_mva(v, a);
                }
            }
            assert_eq!(fast.stats(), slow.stats(), "{ctx}");
            assert_eq!(fast.epoch(), slow.epoch(), "{ctx}");
            assert_eq!(fast.state_digest(), slow.state_digest(), "{ctx}");
        }
    }

    #[test]
    fn lookup_matches_reference_scan() {
        for capacity in [128, 32, 8, 4, 2] {
            for seed in 1..=4 {
                differential(capacity, seed, 3_000);
            }
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn set_count_must_be_a_power_of_two() {
        Tlb::new(6);
    }
}
