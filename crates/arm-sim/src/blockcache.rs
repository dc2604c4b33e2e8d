//! Decoded basic-block cache, superblocks and block chaining for the MIR
//! interpreter.
//!
//! Fast ARM virtual platforms get their speed from three techniques the
//! per-instruction interpreter leaves on the table: *translation caching*
//! (decode a straight-line run once, replay the decoded form), *block
//! chaining* (jump from a finished block straight to its successor without
//! going back through the dispatch lookup) and *quantum-based device sync*
//! (compute the next point at which a device can change observable state
//! instead of ticking every model on every instruction). This module
//! provides the first two; `Machine::run_slice` pairs them with the third.
//!
//! Blocks are keyed by **(ASID, starting virtual PC)** and hold the decoded
//! [`Instr`] run together with the physical address each instruction was
//! fetched from. The ASID key keeps per-VM translations alive across world
//! switches (the same §III-C argument that motivates the ASID-tagged TLB);
//! the recorded physical addresses make replay self-checking — every
//! replayed instruction still runs a live MMU translation of its PC, and a
//! mismatch against the recorded address (remap, MMU toggle, ASID games)
//! aborts the replay and falls back to a fresh fetch+decode.
//!
//! **Superblocks.** A recording continues across *unconditionally taken*
//! statically-targeted transfers (`B` with `Cond::Al`, `Bl`), so one block
//! can span several straight-line segments joined by those seams — up to
//! [`MAX_SEGS`] segments and [`MAX_BLOCK_LEN`] instructions total. Each
//! [`BlockSeg`] is virtually and physically contiguous and stays within one
//! page, so invalidation ranges remain tight and a segment can be verified
//! with a single TLB entry. A block still ends after every *dynamic*
//! transfer (conditional `B`, `Ret`) and every [`FastClass::Exit`]
//! instruction, at [`MAX_BLOCK_LEN`], or when falling through a page
//! boundary.
//!
//! **Chaining.** Each block carries two lazily patched successor links
//! (taken/other-target and fallthrough), filled in the first time control
//! actually flows from this block to a cached successor. Links are held as
//! `Weak` references plus a per-block `valid` flag: every invalidation path
//! (chunk drain, TLBIALL/ASID/MVA, cache maintenance, capacity eviction,
//! replay abort) clears the flag, so stale links die at the follow check —
//! no back-pointer bookkeeping, and a replay abort automatically de-chains
//! every predecessor pointing at the removed block.
//!
//! Invalidation sources, all funnelled through two cheap integer checks:
//!
//! * **Stores to cached pages** — every write path into [`PhysMemory`]
//!   (guest stores, DMA from the PL, PCAP/bitstream ingest, boot loads,
//!   fault-plane memory flips) marks dirtied 64 KB code chunks;
//!   the executor drains them at block boundaries.
//! * **TLB maintenance** — `TLBIALL`/`TLBIASID`/`TLBIMVA` invalidate the
//!   affected (ASID, VA) blocks.
//! * **Cache maintenance** — a full clean+invalidate drops everything.
//!
//! **Capacity.** At [`MAX_BLOCKS`] resident blocks every insert evicts
//! exactly one victim, chosen by a CLOCK (second-chance) hand over a ring
//! with one slot per resident block: a lookup or chain follow sets the
//! block's referenced bit, the hand clears set bits as it passes and takes
//! the first block whose bit is already clear. A hot working set at
//! capacity keeps its translations and chains, and code larger than the
//! cache costs one eviction per miss instead of periodic whole-map sweeps.
//!
//! [`PhysMemory`]: crate::memory::PhysMemory
//! [`FastClass::Exit`]: crate::mir::FastClass::Exit

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::{Rc, Weak};

use crate::mir::{FastClass, Instr, INSTR_SIZE};
use crate::timing;
use crate::tlb::TlbEntry;

/// Maximum instructions per cached block (superblocks included).
pub const MAX_BLOCK_LEN: usize = 64;

/// Maximum straight-line segments a superblock may fuse (1 = a plain basic
/// block; each unconditional-branch seam adds one).
pub const MAX_SEGS: usize = 4;

/// Minimum length at which a stretch of pure instructions is worth planning
/// as a [`PureRun`] (below this the per-instruction replay path is cheaper
/// than the run's verification overhead).
pub const MIN_RUN_LEN: usize = 2;

/// Maximum resident blocks; an insert at capacity first evicts one block
/// chosen by the CLOCK hand (see [`BlockCache::insert`]).
pub const MAX_BLOCKS: usize = 8192;

/// Counters for the block cache (host-side observability only — none of
/// these feed the PMU or the cycle accounting, which must stay bit-identical
/// to the per-instruction path).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BlockCacheStats {
    /// Block lookups that found a cached block.
    pub hits: u64,
    /// Block lookups that missed and started a recording.
    pub misses: u64,
    /// Block transitions resolved through a successor link, skipping the
    /// lookup entirely.
    pub chain_follows: u64,
    /// Instructions replayed from cached blocks (decode + bus read skipped).
    pub replayed_instrs: u64,
    /// Subset of `replayed_instrs` executed through whole-run batches (one
    /// up-front verification, specialized execution loop).
    pub batched_instrs: u64,
    /// Blocks dropped because a store dirtied their backing chunk.
    pub store_invalidations: u64,
    /// Blocks dropped by TLB/cache maintenance operations.
    pub maint_invalidations: u64,
    /// Replays aborted because a live translation disagreed with the
    /// recorded physical address (remap/MMU-state change).
    pub replay_aborts: u64,
    /// Blocks evicted by the CLOCK hand to make room at capacity (one per
    /// insert of a new key into a full cache).
    pub evictions: u64,
    /// Committed blocks that fused more than one segment.
    pub superblocks: u64,
    /// Extra segments fused beyond the first, summed over all superblocks.
    pub fused_segs: u64,
}

impl BlockCacheStats {
    /// Block transitions served from the cache — by lookup or by chain
    /// follow — over all transitions (0.0 when none happened).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.chain_follows + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.chain_follows) as f64 / total as f64
        }
    }

    /// Fraction of all block transitions resolved through a successor link
    /// (0.0 when none happened).
    pub fn chain_follow_ratio(&self) -> f64 {
        let total = self.hits + self.chain_follows + self.misses;
        if total == 0 {
            0.0
        } else {
            self.chain_follows as f64 / total as f64
        }
    }
}

/// One virtually and physically contiguous, single-page segment of a cached
/// block. Instruction `k` of the segment was fetched at `va + k*8` /
/// `pa + k*8`. Per-segment ranges keep invalidation tight for superblocks
/// whose segments land in different pages or chunks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BlockSeg {
    /// Virtual address of the segment's first instruction.
    pub va: u32,
    /// Physical address of the segment's first instruction.
    pub pa: u64,
    /// Instructions in the segment.
    pub len: u32,
}

impl BlockSeg {
    /// Exclusive end of the segment's VA range, computed in u64 so a
    /// segment ending at the top of the 32-bit address space doesn't wrap.
    pub fn va_end(&self) -> u64 {
        self.va as u64 + self.len as u64 * INSTR_SIZE
    }

    /// Exclusive end of the segment's PA range.
    pub fn pa_end(&self) -> u64 {
        self.pa + self.len as u64 * INSTR_SIZE
    }
}

/// A run segment: like [`BlockSeg`] but relative to a [`PureRun`] (a run
/// may start mid-segment and span seams).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunSeg {
    /// Virtual address of the first fetch of this piece of the run.
    pub va: u32,
    /// Physical address of the first fetch.
    pub pa: u64,
    /// Instructions fetched contiguously from here.
    pub len: u32,
}

/// A maximal stretch of *pure* (register-only) instructions inside a cached
/// block, planned once at commit time so the executor can replay the whole
/// stretch in one step.
///
/// Pure instructions cannot trap, touch memory or devices, change privilege,
/// the ASID, DACR or any mapping — so a per-segment up-front verification
/// (TLB entry covers the page and translates to the recorded addresses,
/// every I-cache line resident) holds for every fetch in the run, every
/// fetch is a plain L1I + TLB hit, and every cycle charge is statically
/// known. The executor then defers the (exactly reproduced) TLB/L1I
/// bookkeeping to one bulk update after the run.
///
/// Runs extend across superblock seams (the seam's `B`/`Bl` is itself pure
/// and its taken-branch cycles are statically known) and may end with one
/// *dynamic* trailing transfer (conditional `B`, `Ret`) when that transfer
/// is the block's last instruction — its successor is resolved by the
/// specialized loop and its taken-branch cost charged dynamically.
#[derive(Clone, Debug)]
pub struct PureRun {
    /// Index of the run's first instruction within the block.
    pub start: u32,
    /// Number of instructions in the run.
    pub len: u32,
    /// Simulated cycles accrued strictly before the boundary check of the
    /// run's *last* instruction (fetch + static execute charges of the first
    /// `len - 1`): the reference interpreter executes the whole run without
    /// an intervening sync iff `clock + cost_before_last` is still below
    /// the next deadline.
    pub cost_before_last: u64,
    /// Total statically known cycles of the run: every fetch plus every
    /// static execute charge (compute bursts, MUL extra, taken-branch cost
    /// of unconditional transfers). A trailing *conditional* branch
    /// contributes no static execute cycles — its taken cost is charged
    /// dynamically by the specialized loop, exactly as the reference
    /// interpreter does.
    pub static_cost: u64,
    /// Bitmask over the run (bit `k` = instruction `start + k`): set when
    /// the instruction writes N/Z/C that are provably overwritten by a
    /// later setter in the same run before any reader (conditional branch,
    /// `MrsCpsr`) and before the run ends. The specialized loop skips the
    /// flag computation for those — a dead `Cmp` is a complete no-op.
    pub flags_dead: u64,
    /// Contiguous (VA, PA) pieces of the run in fetch order; one entry per
    /// superblock seam crossed (plus the head). Each piece is verified
    /// against a single TLB entry.
    pub segs: Vec<RunSeg>,
    /// Distinct I-cache lines the run fetches through, in fetch order, as
    /// `(pa of first fetch in the line, 1-based index of the last fetch in
    /// the line)` — enough to replay the per-line LRU stamps exactly.
    pub lines: Vec<(u64, u64)>,
}

/// Static cycles `Machine::execute` charges for a pure instruction on top of
/// the fetch (`L1_HIT + INSTR_BASE`). Must mirror the interpreter's charges;
/// the lockstep differential suite pins the two together. Unconditionally
/// taken transfers (`B` `Al`, `Bl`, `Ret`) charge their taken-branch cost
/// statically; a conditional `B` charges 0 here (dynamic, only ever the last
/// instruction of a run).
fn static_execute_cycles(i: Instr) -> u64 {
    use crate::mir::{AluOp, Cond};
    match i {
        Instr::Compute { cycles } => cycles as u64,
        Instr::Alu { op: AluOp::Mul, .. } | Instr::AluImm { op: AluOp::Mul, .. } => {
            timing::MUL - timing::INSTR_BASE
        }
        Instr::B { cond: Cond::Al, .. } | Instr::Bl { .. } | Instr::Ret => timing::BRANCH_TAKEN,
        _ => 0,
    }
}

/// Plan the pure runs of a decoded block (see [`PureRun`]). `segs` is the
/// block's segment map (drives per-instruction VA/PA reconstruction and
/// seam detection); `line_shift` is log2 of the I-cache line size.
fn plan_runs(instrs: &[(u64, Instr)], segs: &[BlockSeg], line_shift: u32) -> Vec<PureRun> {
    let fetch = timing::L1_HIT + timing::INSTR_BASE;

    // Reconstruct per-instruction VAs from the segment map.
    let n = instrs.len();
    let mut vas = [0u32; MAX_BLOCK_LEN];
    let mut k = 0;
    for s in segs {
        for j in 0..s.len {
            vas[k] = s.va.wrapping_add(j * INSTR_SIZE as u32);
            k += 1;
        }
    }
    debug_assert_eq!(k, n, "segment map covers the block");

    let pure = |k: usize| instrs[k].1.fast_class() == FastClass::Pure;
    // Whether control and fetch contiguity flow from instruction k to k+1
    // inside one run: plain fallthrough (VA and PA both advance by one
    // slot) or an unconditional statically-targeted seam whose recorded
    // successor is the target.
    let continues = |k: usize| -> bool {
        if k + 1 >= n {
            return false;
        }
        match instrs[k].1.static_target() {
            Some(t) => vas[k + 1] == t,
            None if !instrs[k].1.is_control_transfer() => {
                vas[k + 1] == vas[k].wrapping_add(INSTR_SIZE as u32)
                    && instrs[k + 1].0 == instrs[k].0 + INSTR_SIZE
            }
            None => false,
        }
    };

    let mut runs = Vec::new();
    let mut i = 0usize;
    while i < n {
        if !pure(i) || instrs[i].1.is_control_transfer() {
            // Sideband/exit instructions never join a run; a transfer can
            // only *end* one (handled while extending below).
            i += 1;
            continue;
        }
        // Extend while pure; an unconditional seam continues the run, a
        // dynamic transfer (conditional B, Ret) may be included as the
        // run's final instruction when nothing follows it in the block.
        let mut j = i + 1;
        while j < n && pure(j) && continues(j - 1) {
            if instrs[j].1.is_control_transfer() && instrs[j].1.static_target().is_none() {
                // Trailing dynamic transfer: include it only as the block's
                // last instruction (recording rules guarantee that anyway).
                if j + 1 == n {
                    j += 1;
                }
                break;
            }
            j += 1;
        }
        if j - i >= MIN_RUN_LEN {
            let cost = |k: usize| fetch + static_execute_cycles(instrs[k].1);
            let cost_before_last: u64 = (i..j - 1).map(cost).sum();
            let static_cost = cost_before_last + cost(j - 1);

            // Flag liveness, backward within the run. At the run's end the
            // flags are conservatively live (an IRQ, a later block or a
            // sideband consumer may observe them).
            let mut flags_dead = 0u64;
            let mut live = true;
            for k in (i..j).rev() {
                let ins = instrs[k].1;
                if ins.sets_nzcv() {
                    if !live {
                        flags_dead |= 1u64 << (k - i);
                    }
                    live = false;
                }
                if ins.reads_nzcv() {
                    live = true;
                }
            }

            // Run segments: split at every fetch discontinuity (seams).
            let mut rsegs: Vec<RunSeg> = Vec::new();
            for k in i..j {
                let (pa, _) = instrs[k];
                match rsegs.last_mut() {
                    Some(s)
                        if s.va.wrapping_add(s.len * INSTR_SIZE as u32) == vas[k]
                            && s.pa + s.len as u64 * INSTR_SIZE == pa =>
                    {
                        s.len += 1;
                    }
                    _ => rsegs.push(RunSeg {
                        va: vas[k],
                        pa,
                        len: 1,
                    }),
                }
            }

            let mut lines: Vec<(u64, u64)> = Vec::new();
            for (k, &(pa, _)) in instrs[i..j].iter().enumerate() {
                let ord = (k + 1) as u64;
                match lines.last_mut() {
                    Some(l) if l.0 >> line_shift == pa >> line_shift => l.1 = ord,
                    _ => lines.push((pa, ord)),
                }
            }
            runs.push(PureRun {
                start: i as u32,
                len: (j - i) as u32,
                cost_before_last,
                static_cost,
                flags_dead,
                segs: rsegs,
                lines,
            });
        }
        i = j;
    }
    runs
}

/// Everything a [`PureRun`]'s up-front verification depends on. If a stored
/// stamp equals the current one, re-running the probes would resolve the
/// same slots with the same outcome:
///
/// * `tlb_epoch` unchanged ⇒ no TLB insert or flush happened, and hits only
///   re-stamp LRU state ⇒ every slot holds the same entry ⇒ the same probes
///   match, and each matched entry translates and checks identically —
///   *given* the same ASID, DACR word (domain rights), privilege level and
///   MMU enable, which the stamp carries explicitly because `mmu.check`
///   reads them afresh on every access.
/// * `l1i_epoch` unchanged ⇒ no I-cache fill or invalidate happened ⇒ the
///   same lines are resident in the same slots.
///
/// The memo only short-circuits the *probes*; the observable bulk hit
/// bookkeeping (TLB/L1I ticks, stamps, hit counters) runs on every replay
/// either way, so LRU evolution and statistics stay bit-identical.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct VerifyStamp {
    /// [`crate::tlb::Tlb::epoch`] at verification time.
    pub tlb_epoch: u64,
    /// [`crate::cache::Cache::epoch`] of the L1I at verification time.
    pub l1i_epoch: u64,
    /// Raw DACR word (domain rights feed every permission check).
    pub dacr: u32,
    /// Current ASID.
    pub asid: u8,
    /// Privilege level of the executing mode.
    pub privileged: bool,
    /// MMU enable bit (selects translation vs. flat verification).
    pub mmu_on: bool,
}

/// A successful, memoized verification of one [`PureRun`]: the resolved
/// slots plus the [`VerifyStamp`] conditioning them.
#[derive(Clone, Debug)]
pub struct RunVerify {
    /// The state this verification is conditioned on.
    pub stamp: VerifyStamp,
    /// Fetch-translation hint after the run: the last segment's TLB slot
    /// and entry (`None` when the MMU was off).
    pub tlb_hint: Option<(usize, TlbEntry)>,
    /// I-cache hint after the run: (line number, L1I slot) of the run's
    /// last fetch.
    pub line_hint: Option<(u64, usize)>,
    /// Per-segment `(TLB slot, fetch count)` for the bulk TLB credit
    /// (empty when the MMU was off).
    pub seg_slots: Box<[(usize, u64)]>,
    /// Per-line `(L1I slot, last-access ordinal)` for the bulk L1I credit.
    pub line_slots: Box<[(usize, u64)]>,
}

/// One decoded (super)block.
#[derive(Debug)]
pub struct CachedBlock {
    /// Decoded run: (physical fetch address, instruction) per slot.
    pub instrs: Box<[(u64, Instr)]>,
    /// Pure runs planned at commit time (see [`PureRun`]).
    pub runs: Vec<PureRun>,
    /// Straight-line segments (see [`BlockSeg`]); one for a plain basic
    /// block, one extra per fused unconditional-branch seam.
    pub segs: Box<[BlockSeg]>,
    /// ASID the block was recorded under (also part of the key).
    pub asid: u8,
    /// Starting virtual PC (also part of the key; kept for VA-targeted
    /// invalidation).
    pub va: u32,
    /// VA following the block's last instruction — the not-taken /
    /// fallthrough successor address, selecting which chain slot a
    /// successor link lands in.
    pub fall_va: u32,
    /// Cleared by every invalidation path. A successor link is only
    /// followed into a block that is still valid; the flag is what lets
    /// links be torn down lazily (including "replay abort de-chains its
    /// predecessors") without back-pointers.
    valid: Cell<bool>,
    /// CLOCK referenced bit: set by every lookup and chain follow, cleared
    /// by the capacity hand as it passes. The hand evicts the first block
    /// it finds with the bit already clear.
    referenced: Cell<bool>,
    /// The block's slot in the cache's CLOCK ring (assigned on insert).
    slot: u32,
    /// Successor links: slot 0 = taken/other target, slot 1 = fallthrough
    /// (`fall_va`). `Weak` so chains (including self-loops) never leak;
    /// validity is re-checked at follow time anyway.
    succ: [RefCell<Option<Weak<CachedBlock>>>; 2],
    /// Memoized verification per pure run (parallel to `runs` once one of
    /// them first verifies; empty until then): the slots a
    /// successful verification resolved plus the [`VerifyStamp`] it is
    /// conditioned on. A stamp match proves the probes would resolve
    /// identically, so the executor skips them and goes straight to the
    /// (observable, always-performed) bulk hit bookkeeping.
    pub verify: RefCell<Vec<Option<RunVerify>>>,
}

impl CachedBlock {
    /// Build a block from a non-empty recording of at most
    /// [`MAX_BLOCK_LEN`] instructions and its segment map, then plan the
    /// pure runs. `line_shift` is log2 of the I-cache line size (the run
    /// plans carry per-line LRU ordinals).
    pub fn new(
        instrs: &[(u64, Instr)],
        segs: &[BlockSeg],
        asid: u8,
        va: u32,
        line_shift: u32,
    ) -> CachedBlock {
        assert!(!instrs.is_empty() && instrs.len() <= MAX_BLOCK_LEN);
        debug_assert_eq!(
            segs.iter().map(|s| s.len as usize).sum::<usize>(),
            instrs.len(),
            "segment map covers the recording"
        );
        let fall_va = segs
            .last()
            .map(|s| s.va.wrapping_add(s.len * INSTR_SIZE as u32))
            .unwrap_or(va);
        CachedBlock {
            runs: plan_runs(instrs, segs, line_shift),
            instrs: instrs.into(),
            verify: RefCell::new(Vec::new()),
            segs: segs.into(),
            asid,
            va,
            fall_va,
            valid: Cell::new(true),
            referenced: Cell::new(false),
            slot: 0,
            succ: [RefCell::new(None), RefCell::new(None)],
        }
    }

    /// Convenience for a single-segment block whose VAs mirror its PAs'
    /// layout starting at `va` (tests and simple callers).
    pub fn from_contiguous(
        instrs: &[(u64, Instr)],
        asid: u8,
        va: u32,
        line_shift: u32,
    ) -> CachedBlock {
        let pa = instrs.first().map(|&(pa, _)| pa).unwrap_or(0);
        let seg = BlockSeg {
            va,
            pa,
            len: instrs.len() as u32,
        };
        CachedBlock::new(instrs, &[seg], asid, va, line_shift)
    }

    /// Still safe to enter through a successor link.
    pub fn is_valid(&self) -> bool {
        self.valid.get()
    }

    /// Tear the block out of every chain: followers see `valid == false`
    /// and fall back to a lookup. Also drops its own outgoing links so the
    /// `Weak` graph doesn't pin allocation metadata.
    fn invalidate(&self) {
        self.valid.set(false);
        *self.succ[0].borrow_mut() = None;
        *self.succ[1].borrow_mut() = None;
    }

    /// Chain slot for a successor starting at `va`.
    fn slot_for(&self, va: u32) -> usize {
        usize::from(va == self.fall_va)
    }

    /// True when any segment's physical range intersects the 64 KB chunk at
    /// `chunk`.
    fn touches_chunk(&self, chunk: u64, chunk_size: u64) -> bool {
        self.segs
            .iter()
            .any(|s| s.pa_end() > chunk && s.pa < chunk + chunk_size)
    }

    /// True when any segment's VA range intersects `[page, page + size)`
    /// (all in u64: segments ending at the top of the 32-bit space must not
    /// wrap).
    fn touches_page(&self, page: u64, page_size: u64) -> bool {
        self.segs
            .iter()
            .any(|s| s.va_end() > page && (s.va as u64) < page + page_size)
    }
}

/// The decoded-block cache. Lives on the [`Machine`](crate::Machine); the
/// `enabled` flag is a run-time switch (the lockstep suites and the
/// benchmark's lockstep gate compare both executors in one build).
pub struct BlockCache {
    /// Runtime switch; `false` makes `Machine::run_slice` take the
    /// per-instruction reference path.
    pub enabled: bool,
    /// Counters.
    pub stats: BlockCacheStats,
    blocks: HashMap<(u8, u32), Rc<CachedBlock>>,
    /// CLOCK ring: slot `i` holds the resident block whose `slot` is `i`.
    /// Slots vacated by invalidation go on `free` and are refilled before
    /// the ring grows, so the ring never exceeds [`MAX_BLOCKS`] slots and
    /// every slot is resident whenever the cache is full.
    ring: Vec<Weak<CachedBlock>>,
    /// Vacated ring slots.
    free: Vec<u32>,
    /// Next ring slot the CLOCK hand examines.
    hand: usize,
    /// High-water mark of `PhysMemory::code_gen` already drained.
    seen_gen: u64,
}

impl Default for BlockCache {
    fn default() -> Self {
        BlockCache {
            enabled: true,
            stats: BlockCacheStats::default(),
            blocks: HashMap::new(),
            ring: Vec::new(),
            free: Vec::new(),
            hand: 0,
            seen_gen: 0,
        }
    }
}

impl BlockCache {
    /// Number of resident blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// True when no blocks are cached.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// Look up the block starting at `(asid, va)`, counting the outcome.
    pub fn lookup(&mut self, asid: u8, va: u32) -> Option<Rc<CachedBlock>> {
        match self.blocks.get(&(asid, va)) {
            Some(b) => {
                self.stats.hits += 1;
                b.referenced.set(true);
                Some(Rc::clone(b))
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Resolve the block after `prev` through its chain link: the candidate
    /// must still be valid, recorded under the same ASID and start exactly
    /// at `pc` (a conditional branch selects between both slots; an
    /// intervening world switch changes the ASID; `Ret` makes the taken
    /// slot a monomorphic inline cache that simply misses when the return
    /// target moved).
    pub fn follow(&mut self, prev: &CachedBlock, asid: u8, pc: u32) -> Option<Rc<CachedBlock>> {
        let cand = prev.succ[prev.slot_for(pc)].borrow().as_ref()?.upgrade()?;
        if cand.is_valid() && cand.asid == asid && cand.va == pc {
            self.stats.chain_follows += 1;
            cand.referenced.set(true);
            Some(cand)
        } else {
            None
        }
    }

    /// Fast self-loop follow: when a block's dynamic successor is the block
    /// itself (a tight loop whose back edge re-enters at the block's own
    /// start), the executor re-enters its replay cursor in place instead of
    /// tearing it down and chasing the `Weak` self-link. This performs the
    /// exact bookkeeping [`BlockCache::follow`] would (a chain-follow count
    /// and the referenced bit) and the same guards (validity, ASID, PC).
    pub fn follow_self(&mut self, b: &CachedBlock, asid: u8, pc: u32) -> bool {
        if b.is_valid() && b.asid == asid && b.va == pc {
            self.stats.chain_follows += 1;
            b.referenced.set(true);
            true
        } else {
            false
        }
    }

    /// Patch `next` in as `prev`'s successor (lazily, on first traversal of
    /// the edge). Patching an already-invalidated predecessor is harmless:
    /// its links are never followed.
    pub fn patch(&mut self, prev: &CachedBlock, next: &Rc<CachedBlock>) {
        *prev.succ[prev.slot_for(next.va)].borrow_mut() = Some(Rc::downgrade(next));
    }

    /// The generation of store-dirtied code chunks already processed.
    pub fn seen_gen(&self) -> u64 {
        self.seen_gen
    }

    /// Insert a finished block, returning the shared handle (so the caller
    /// can immediately chain its recorded predecessor to it). A block
    /// re-recorded over a resident key takes over the displaced block's
    /// ring slot; a new key takes a vacated slot or a new one, or — at
    /// capacity — the slot of the one block the CLOCK hand evicts.
    pub fn insert(&mut self, mut block: CachedBlock) -> Rc<CachedBlock> {
        debug_assert_eq!(self.ring.len() - self.free.len(), self.blocks.len());
        if block.segs.len() > 1 {
            self.stats.superblocks += 1;
            self.stats.fused_segs += block.segs.len() as u64 - 1;
        }
        let key = (block.asid, block.va);
        block.slot = match self.blocks.get(&key) {
            // Re-recording over an existing key (e.g. after an SMC rewrite
            // within the same chunk generation): the displaced block must
            // not stay reachable through chains.
            Some(old) => {
                old.invalidate();
                old.slot
            }
            None if self.blocks.len() >= MAX_BLOCKS => self.evict_one(),
            None => self.free.pop().unwrap_or_else(|| {
                self.ring.push(Weak::new());
                self.ring.len() as u32 - 1
            }),
        };
        let rc = Rc::new(block);
        self.ring[rc.slot as usize] = Rc::downgrade(&rc);
        self.blocks.insert(key, Rc::clone(&rc));
        rc
    }

    /// Advance the CLOCK hand to the first block whose referenced bit is
    /// clear, clearing set bits on the way (so it stops within one
    /// revolution), evict that block exactly as an invalidation would, and
    /// return its slot. Only called at capacity, when every ring slot holds
    /// a resident block.
    fn evict_one(&mut self) -> u32 {
        loop {
            let slot = self.hand;
            self.hand = (slot + 1) % self.ring.len();
            let b = self.ring[slot]
                .upgrade()
                .expect("a full ring holds only resident blocks");
            if !b.referenced.replace(false) {
                self.blocks.remove(&(b.asid, b.va));
                b.invalidate();
                self.stats.evictions += 1;
                return slot as u32;
            }
        }
    }

    /// Drop every resident block `doomed` selects: invalidate it (which
    /// de-chains it from every predecessor) and vacate its ring slot.
    /// Returns how many were dropped.
    fn drop_where(&mut self, mut doomed: impl FnMut(&CachedBlock) -> bool) -> u64 {
        let before = self.blocks.len();
        let free = &mut self.free;
        self.blocks.retain(|_, b| {
            let drop = doomed(b);
            if drop {
                b.invalidate();
                free.push(b.slot);
            }
            !drop
        });
        (before - self.blocks.len()) as u64
    }

    /// Remove one block (replay found it stale). Invalidation de-chains it
    /// from every predecessor.
    pub fn remove(&mut self, asid: u8, va: u32) {
        if let Some(b) = self.blocks.remove(&(asid, va)) {
            b.invalidate();
            self.free.push(b.slot);
        }
    }

    /// Drop blocks with any segment intersecting any of the dirtied 64 KB
    /// chunks (chunk base addresses from `PhysMemory::take_dirty_code`),
    /// and advance the drained generation.
    pub fn invalidate_chunks(&mut self, chunks: &[u64], chunk_size: u64, gen: u64) {
        self.seen_gen = gen;
        if chunks.is_empty() || self.blocks.is_empty() {
            return;
        }
        self.stats.store_invalidations +=
            self.drop_where(|b| chunks.iter().any(|&c| b.touches_chunk(c, chunk_size)));
    }

    /// Drop everything (cache-maintenance ops, TLBIALL).
    pub fn invalidate_all(&mut self) {
        self.stats.maint_invalidations += self.drop_where(|_| true);
    }

    /// Drop all blocks recorded under `asid` (TLBIASID).
    pub fn invalidate_asid(&mut self, asid: u8) {
        self.stats.maint_invalidations += self.drop_where(|b| b.asid == asid);
    }

    /// Drop `asid`-tagged blocks with any segment intersecting the page
    /// holding `va` (TLBIMVA). Range math is per-segment and in u64, so a
    /// superblock's far-apart segments don't smear the range and a block
    /// ending at `0xFFFF_FFF8` doesn't wrap.
    pub fn invalidate_mva(&mut self, asid: u8, va: u32, page_size: u64) {
        let page = va as u64 & !(page_size - 1);
        self.stats.maint_invalidations +=
            self.drop_where(|b| b.asid == asid && b.touches_page(page, page_size));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::{AluOp, Cond};

    fn block(asid: u8, va: u32, lo: u64, n: usize) -> CachedBlock {
        let instrs: Vec<_> = (0..n as u64).map(|i| (lo + i * 8, Instr::Ret)).collect();
        CachedBlock::from_contiguous(&instrs, asid, va, 5)
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let mut c = BlockCache::default();
        assert!(c.lookup(1, 0x8000).is_none());
        c.insert(block(1, 0x8000, 0x8000, 4));
        assert!(c.lookup(1, 0x8000).is_some());
        assert!(c.lookup(2, 0x8000).is_none(), "ASID is part of the key");
        assert_eq!(c.stats.hits, 1);
        assert_eq!(c.stats.misses, 2);
        assert!((c.stats.hit_ratio() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn chunk_invalidation_is_range_based() {
        let mut c = BlockCache::default();
        c.insert(block(1, 0x8000, 0x8000, 4));
        c.insert(block(1, 0x2_0000, 0x2_0000, 4));
        c.invalidate_chunks(&[0x0], 0x1_0000, 7);
        assert_eq!(c.seen_gen(), 7);
        assert!(c.lookup(1, 0x8000).is_none(), "chunk 0 block dropped");
        assert!(c.lookup(1, 0x2_0000).is_some(), "other chunk survives");
        assert_eq!(c.stats.store_invalidations, 1);
    }

    #[test]
    fn asid_and_mva_invalidation() {
        let mut c = BlockCache::default();
        c.insert(block(1, 0x8000, 0x8000, 4));
        c.insert(block(2, 0x8000, 0x18000, 4));
        c.invalidate_asid(1);
        assert!(c.lookup(1, 0x8000).is_none());
        assert!(c.lookup(2, 0x8000).is_some());
        c.invalidate_mva(2, 0x8010, 4096);
        assert!(c.lookup(2, 0x8000).is_none(), "same page, same ASID");
        assert_eq!(c.stats.maint_invalidations, 2);
    }

    #[test]
    fn mva_invalidation_at_top_of_address_space_does_not_wrap() {
        // A block whose last instruction sits at 0xFFFF_FFF8: its exclusive
        // VA end is 0x1_0000_0000, representable only in u64. TLBIMVA on
        // its page must drop it, TLBIMVA on a low page must not.
        let mut c = BlockCache::default();
        c.insert(block(1, 0xFFFF_FFF0, 0x8000, 2));
        c.invalidate_mva(1, 0x0000_1000, 4096);
        assert!(
            c.lookup(1, 0xFFFF_FFF0).is_some(),
            "low page must not alias the top of the address space"
        );
        c.invalidate_mva(1, 0xFFFF_F123, 4096);
        assert!(c.lookup(1, 0xFFFF_FFF0).is_none(), "its own page drops it");
        assert_eq!(c.stats.maint_invalidations, 1);
    }

    #[test]
    fn superblock_invalidation_is_per_segment() {
        // Two segments in far-apart pages/chunks; the hole between them
        // must not be treated as covered.
        let instrs = vec![
            (
                0x8000,
                Instr::B {
                    cond: Cond::Al,
                    target: 0x4_0000,
                },
            ),
            (0x4_0000, Instr::Ret),
        ];
        let segs = vec![
            BlockSeg {
                va: 0x8000,
                pa: 0x8000,
                len: 1,
            },
            BlockSeg {
                va: 0x4_0000,
                pa: 0x4_0000,
                len: 1,
            },
        ];
        let mut c = BlockCache::default();
        c.insert(CachedBlock::new(&instrs, &segs, 1, 0x8000, 5));
        assert_eq!(c.stats.superblocks, 1);
        assert_eq!(c.stats.fused_segs, 1);
        // A page strictly between the segments touches neither.
        c.invalidate_mva(1, 0x2_0000, 4096);
        assert!(c.lookup(1, 0x8000).is_some(), "hole page touches no seg");
        // The second segment's page drops the whole block.
        c.invalidate_mva(1, 0x4_0000, 4096);
        assert!(c.lookup(1, 0x8000).is_none());

        // Same for chunks: only chunks actually containing a segment count.
        let mut c = BlockCache::default();
        c.insert(CachedBlock::new(&instrs, &segs, 1, 0x8000, 5));
        c.invalidate_chunks(&[0x1_0000], 0x1_0000, 1);
        assert!(c.lookup(1, 0x8000).is_some(), "hole chunk touches no seg");
        c.invalidate_chunks(&[0x4_0000], 0x1_0000, 2);
        assert!(c.lookup(1, 0x8000).is_none());
    }

    #[test]
    fn run_plan_covers_pure_stretches_only() {
        // [alu, alu, alu, str, alu, mul, b] at contiguous pa from 0x8000.
        let seq = [
            Instr::Alu {
                op: AluOp::Add,
                rd: 0,
                rn: 0,
                rm: 1,
            },
            Instr::AluImm {
                op: AluOp::Eor,
                rd: 0,
                rn: 0,
                imm: 3,
            },
            Instr::MovImm { rd: 2, imm: 7 },
            Instr::Str {
                rs: 0,
                rn: 4,
                imm: 0,
            },
            Instr::Compute { cycles: 11 },
            Instr::AluImm {
                op: AluOp::Mul,
                rd: 0,
                rn: 0,
                imm: 3,
            },
            Instr::B {
                cond: crate::mir::Cond::Eq,
                target: 0x8000,
            },
        ];
        let instrs: Vec<(u64, Instr)> = seq
            .iter()
            .enumerate()
            .map(|(i, &s)| (0x8000 + i as u64 * 8, s))
            .collect();
        let b = CachedBlock::from_contiguous(&instrs, 0, 0x8000, 5);
        assert_eq!(b.runs.len(), 2, "two pure stretches split by the str");
        let fetch = timing::L1_HIT + timing::INSTR_BASE;
        assert_eq!((b.runs[0].start, b.runs[0].len), (0, 3));
        assert_eq!(b.runs[0].cost_before_last, 2 * fetch);
        assert_eq!(b.runs[0].static_cost, 3 * fetch);
        // Second run: compute(11) + mul + trailing conditional branch; cost
        // before last = fetch+11 + fetch+(MUL-INSTR_BASE); the untaken
        // branch contributes nothing statically.
        assert_eq!((b.runs[1].start, b.runs[1].len), (4, 3));
        assert_eq!(
            b.runs[1].cost_before_last,
            2 * fetch + 11 + (timing::MUL - timing::INSTR_BASE)
        );
        assert_eq!(
            b.runs[1].static_cost,
            3 * fetch + 11 + (timing::MUL - timing::INSTR_BASE)
        );
        // 0x8000..0x8018 is one 32-byte line, 0x8020 starts the next.
        assert_eq!(b.runs[0].lines, vec![(0x8000, 3)]);
        assert_eq!(b.runs[1].lines, vec![(0x8020, 3)]);
        assert_eq!(b.runs[0].segs.len(), 1);
        assert_eq!(b.runs[1].segs.len(), 1);
    }

    #[test]
    fn run_plan_splits_on_physical_seams() {
        // Contiguity break between index 1 and 2 ends the first candidate
        // run; the remainder is long enough to stand alone. (The segment
        // map records the same discontinuity, as the recorder would.)
        let instrs = vec![
            (0x8000, Instr::MovImm { rd: 0, imm: 1 }),
            (0x8008, Instr::MovImm { rd: 1, imm: 2 }),
            (0x9000, Instr::MovImm { rd: 2, imm: 3 }),
            (0x9008, Instr::MovImm { rd: 3, imm: 4 }),
        ];
        let segs = vec![
            BlockSeg {
                va: 0x8000,
                pa: 0x8000,
                len: 2,
            },
            BlockSeg {
                va: 0x8010,
                pa: 0x9000,
                len: 2,
            },
        ];
        let b = CachedBlock::new(&instrs, &segs, 0, 0x8000, 5);
        assert_eq!(b.runs.len(), 2);
        assert_eq!((b.runs[0].start, b.runs[0].len), (0, 2));
        assert_eq!((b.runs[1].start, b.runs[1].len), (2, 2));
    }

    #[test]
    fn run_plan_extends_across_unconditional_seams() {
        // [mov, b.al -> far, mov, ret]: one run spanning the seam, two run
        // segments, the branch and ret charged statically.
        let instrs = vec![
            (0x8000, Instr::MovImm { rd: 0, imm: 1 }),
            (
                0x8008,
                Instr::B {
                    cond: Cond::Al,
                    target: 0x9000,
                },
            ),
            (0x1_9000, Instr::MovImm { rd: 1, imm: 2 }),
            (0x1_9008, Instr::Ret),
        ];
        let segs = vec![
            BlockSeg {
                va: 0x8000,
                pa: 0x8000,
                len: 2,
            },
            BlockSeg {
                va: 0x9000,
                pa: 0x1_9000,
                len: 2,
            },
        ];
        let b = CachedBlock::new(&instrs, &segs, 0, 0x8000, 5);
        assert_eq!(b.runs.len(), 1, "seam does not split the run");
        let run = &b.runs[0];
        assert_eq!((run.start, run.len), (0, 4));
        assert_eq!(run.segs.len(), 2);
        assert_eq!(
            (run.segs[0].va, run.segs[0].pa, run.segs[0].len),
            (0x8000, 0x8000, 2)
        );
        assert_eq!(
            (run.segs[1].va, run.segs[1].pa, run.segs[1].len),
            (0x9000, 0x1_9000, 2)
        );
        let fetch = timing::L1_HIT + timing::INSTR_BASE;
        assert_eq!(run.static_cost, 4 * fetch + 2 * timing::BRANCH_TAKEN);
        assert_eq!(run.cost_before_last, 3 * fetch + timing::BRANCH_TAKEN);
    }

    #[test]
    fn flag_liveness_marks_dead_setters() {
        // sub (dead: overwritten by cmp), mov, cmp (live: read by b.ne).
        let mk = |seq: &[Instr]| {
            let instrs: Vec<(u64, Instr)> = seq
                .iter()
                .enumerate()
                .map(|(i, &s)| (0x8000 + i as u64 * 8, s))
                .collect();
            CachedBlock::from_contiguous(&instrs, 0, 0x8000, 5)
        };
        let sub = Instr::AluImm {
            op: AluOp::Sub,
            rd: 0,
            rn: 0,
            imm: 1,
        };
        let cmp = Instr::AluImm {
            op: AluOp::Cmp,
            rd: 0,
            rn: 0,
            imm: 0,
        };
        let mov = Instr::MovImm { rd: 1, imm: 0 };
        let bne = Instr::B {
            cond: Cond::Ne,
            target: 0x8000,
        };

        let b = mk(&[sub, mov, cmp, bne]);
        assert_eq!(b.runs.len(), 1);
        assert_eq!(
            b.runs[0].flags_dead, 0b0001,
            "sub's flags die at the cmp; cmp's are read by b.ne"
        );

        // A reader between the setters keeps the first setter live.
        let mrs = Instr::MrsCpsr { rd: 2 };
        let b = mk(&[sub, mrs, cmp, bne]);
        assert_eq!(b.runs[0].flags_dead, 0, "mrs reads the sub's flags");

        // A setter at the end of a run is conservatively live (IRQ entry,
        // the next block or a sideband consumer may observe CPSR).
        let b = mk(&[sub, mov]);
        assert_eq!(b.runs[0].flags_dead, 0);
    }

    /// A cache filled with one-instruction ASID-0 blocks at VAs `0, 8, 16,
    /// ...`; block `i` sits in ring slot `i`.
    fn full_cache() -> BlockCache {
        let mut c = BlockCache::default();
        for i in 0..MAX_BLOCKS as u32 {
            c.insert(block(0, i * 8, i as u64 * 8, 1));
        }
        c
    }

    #[test]
    fn insert_at_capacity_evicts_exactly_one_block() {
        let mut c = full_cache();
        for (n, va) in [(1, 0x8000), (2, 0x9000)] {
            c.insert(block(1, va, va as u64, 1));
            assert_eq!((c.len(), c.stats.evictions), (MAX_BLOCKS, n));
        }
        // Re-recording a resident key replaces it in place: no victim.
        c.insert(block(1, 0x9000, 0x9000, 2));
        assert_eq!((c.len(), c.stats.evictions), (MAX_BLOCKS, 2));
    }

    #[test]
    fn block_referenced_since_the_hand_passed_survives() {
        let mut c = full_cache();
        assert!(c.lookup(0, 8).is_some()); // references slot 1 only
        c.insert(block(1, 0x8000, 0x8000, 1)); // the hand takes slot 0
        c.insert(block(1, 0x9000, 0x9000, 1)); // clears slot 1, takes slot 2
        let resident = |c: &BlockCache, va| c.blocks.contains_key(&(0, va));
        assert!(!resident(&c, 0) && resident(&c, 8) && !resident(&c, 16));
        // Unreferenced since the hand cleared its bit: gone next time round.
        for i in 0..MAX_BLOCKS as u32 {
            c.insert(block(2, i * 8, 0x10_0000, 1));
        }
        assert!(!resident(&c, 8));
    }

    #[test]
    fn evicted_block_is_invalidated_and_unchained() {
        let mut c = full_cache();
        let victim = Rc::clone(&c.blocks[&(0, 0)]); // slot 0: the first victim
        let pred = Rc::clone(&c.blocks[&(0, 8)]);
        c.patch(&pred, &victim); // a back edge, patched but never followed
        c.insert(block(1, 0x8000, 0x8000, 1));
        assert_eq!(c.stats.evictions, 1);
        assert!(!victim.is_valid() && pred.is_valid());
        assert!(c.follow(&pred, 0, 0).is_none(), "the chain into it is dead");
        assert!(c.lookup(0, 0).is_none());
    }

    #[test]
    fn insert_invalidate_cycles_keep_the_ring_bounded() {
        // 64 resident blocks plus a stream of fresh keys, each dropped by
        // one of the invalidation paths before the next one arrives.
        let mut c = BlockCache::default();
        for i in 0..64u32 {
            c.insert(block(2, i * 8, 0x10_0000, 1));
        }
        for round in 0..4 * MAX_BLOCKS as u32 {
            let va = 0x4_0000 + round * 8;
            c.insert(block(1, va, 0x8000, 1));
            match round % 4 {
                0 => c.remove(1, va),
                1 => c.invalidate_mva(1, va, 4096),
                2 => c.invalidate_asid(1),
                _ => c.invalidate_chunks(&[0], 0x1_0000, round as u64),
            }
            assert_eq!((c.len(), c.ring.len()), (64, 65));
        }
        c.invalidate_all();
        assert_eq!((c.len(), c.free.len()), (0, c.ring.len()));
    }

    #[test]
    fn chains_patch_follow_and_tear_down() {
        let mut c = BlockCache::default();
        let a = c.insert(block(1, 0x8000, 0x8000, 2));
        let b = c.insert(block(1, 0x8010, 0x8010, 2)); // a's fallthrough
        let t = c.insert(block(1, 0x9000, 0x9000, 2)); // a's taken target

        c.patch(&a, &b);
        c.patch(&a, &t);
        // Both slots resolve independently by successor PC.
        assert!(Rc::ptr_eq(&c.follow(&a, 1, 0x8010).unwrap(), &b));
        assert!(Rc::ptr_eq(&c.follow(&a, 1, 0x9000).unwrap(), &t));
        assert_eq!(c.stats.chain_follows, 2);
        // Wrong ASID never follows (world switch between the blocks).
        assert!(c.follow(&a, 2, 0x8010).is_none());
        // A PC matching neither slot's block misses (Ret target moved).
        assert!(c.follow(&a, 1, 0xAAAA).is_none());

        // Invalidation tears the link down even though `a` still points
        // at the dead block.
        c.remove(1, 0x8010);
        assert!(!b.is_valid());
        assert!(c.follow(&a, 1, 0x8010).is_none(), "stale link not followed");
        // Maintenance invalidation kills the taken slot the same way.
        c.invalidate_asid(1);
        assert!(c.follow(&a, 1, 0x9000).is_none());
    }

    #[test]
    fn self_loops_chain_without_leaking() {
        let mut c = BlockCache::default();
        let a = c.insert(block(1, 0x8000, 0x8000, 2));
        c.patch(&a, &a); // tight loop: block branches to itself
        assert!(Rc::ptr_eq(&c.follow(&a, 1, 0x8000).unwrap(), &a));
        // Weak self-links keep the strong count at the map + local handles
        // only, so dropping the cache actually frees the block.
        assert_eq!(Rc::strong_count(&a), 2);
    }

    #[test]
    fn reinsert_over_same_key_invalidates_displaced_block() {
        let mut c = BlockCache::default();
        c.insert(block(1, 0x8000, 0x8000, 2));
        let old = c.lookup(1, 0x8000).unwrap();
        c.insert(block(1, 0x8000, 0x8000, 3));
        assert!(!old.is_valid(), "displaced block must leave every chain");
        let new = c.lookup(1, 0x8000).unwrap();
        assert_eq!(new.instrs.len(), 3);
    }
}
