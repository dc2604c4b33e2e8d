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
//! **Runs and micro-ops.** At commit each block is planned into
//! [`Run`]s: stretches the executor replays as one batch, verified
//! once. At the first successful verification of any of its runs, the
//! block's runs are lowered once into one flat array of [`Uop`]s, which
//! the batch loop executes with a single dispatch per instruction and no
//! per-instruction PC, banking or flag-liveness decisions left to make.
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

use std::cell::{Cell, OnceCell, RefCell};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::{Rc, Weak};

use crate::mir::{AluOp, Cond, FastClass, Instr, INSTR_SIZE};
use crate::timing;

/// Maximum instructions per cached block (superblocks included).
pub const MAX_BLOCK_LEN: usize = 64;

/// Maximum straight-line segments a superblock may fuse (1 = a plain basic
/// block; each unconditional-branch seam adds one).
pub const MAX_SEGS: usize = 4;

/// Minimum length at which a stretch of batchable instructions is worth
/// planning as a [`Run`] (below this the per-instruction replay path is
/// cheaper than the run's verification overhead).
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

/// A maximal stretch of *batchable* instructions inside a cached block,
/// planned once at commit time so the executor can replay the whole
/// stretch in one step: pure (register-only) instructions plus at most one
/// `Ldr`/`Str` whose registers are all unbanked (r0–r7).
///
/// Pure instructions cannot trap, touch memory or devices, change privilege,
/// the ASID, DACR or any mapping — so a per-segment up-front verification
/// (TLB entry covers the page and translates to the recorded addresses,
/// every I-cache line resident) holds for every fetch in the run, every
/// fetch is a plain L1I + TLB hit, and every cycle charge is statically
/// known. The run's one memory access runs behind a side-effect-free guard
/// (the checks of the per-instruction replay's data fast path: TLB hit and
/// permission, plain RAM, L1D hit), so when it passes its charge is static
/// too; when it fails the batch stops just before it (see [`RunMem`]). The
/// executor defers the (exactly reproduced) TLB/L1I bookkeeping to one bulk
/// update after the batch.
///
/// Runs extend across superblock seams (the seam's `B`/`Bl` is itself pure
/// and its taken-branch cycles are statically known) and may end with one
/// *dynamic* trailing transfer (conditional `B`, `Ret`) when that transfer
/// is the block's last instruction — its successor is resolved by the
/// micro-op loop and its taken-branch cost charged dynamically.
#[derive(Clone, Copy, Debug)]
pub struct Run {
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
    /// of unconditional transfers, the L1D hit of a guarded memory access).
    /// A trailing *conditional* branch contributes no static execute cycles
    /// — its taken cost is charged dynamically by the micro-op loop,
    /// exactly as the reference interpreter does.
    pub static_cost: u64,
    /// Bitmask over the run (bit `k` = instruction `start + k`): set when
    /// the instruction writes N/Z/C that are provably overwritten by a
    /// later setter in the same run before any reader (conditional branch,
    /// `MrsCpsr`, or the run's memory access, where the batch may stop) and
    /// before the run ends. Lowering drops the flag computation for those —
    /// a dead `Cmp` is a complete no-op.
    pub flags_dead: u64,
    /// PC after the run's last instruction when it is not a dynamic
    /// transfer: the fallthrough address, or an unconditional transfer's
    /// static target. For a trailing conditional `B` it is the not-taken
    /// successor.
    pub end_pc: u32,
    /// The run's one memory access, if it has one.
    pub mem: Option<RunMem>,
}

/// Where a [`Run`]'s memory access sits, with what a batch that stops
/// there needs to settle exactly the prefix that ran.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunMem {
    /// Offset of the `Ldr`/`Str` within the run.
    pub at: u32,
    /// Its virtual PC (where a failed guard leaves the CPU).
    pub pc: u32,
    /// Static cycles of the instructions before it.
    pub cost_before: u64,
}

/// Static cycles `Machine::execute` charges for a batchable instruction on
/// top of the fetch (`L1_HIT + INSTR_BASE`). Must mirror the interpreter's
/// charges; the lockstep differential suite pins the two together.
/// Unconditionally taken transfers (`B` `Al`, `Bl`, `Ret`) charge their
/// taken-branch cost statically; a conditional `B` charges 0 here (dynamic,
/// only ever the last instruction of a run); a memory access charges the
/// L1D hit its guard proves.
fn static_execute_cycles(i: Instr) -> u64 {
    match i {
        Instr::Compute { cycles } => cycles as u64,
        Instr::Alu { op: AluOp::Mul, .. } | Instr::AluImm { op: AluOp::Mul, .. } => {
            timing::MUL - timing::INSTR_BASE
        }
        Instr::B { cond: Cond::Al, .. } | Instr::Bl { .. } | Instr::Ret => timing::BRANCH_TAKEN,
        Instr::Ldr { .. } | Instr::Str { .. } => timing::L1_HIT,
        _ => 0,
    }
}

/// True for the memory accesses a run may hold: `Ldr`/`Str` on unbanked
/// registers only.
fn batchable_mem(i: Instr) -> bool {
    match i {
        Instr::Ldr { rd: r, rn, .. } | Instr::Str { rs: r, rn, .. } => (r | rn) < 8,
        _ => false,
    }
}

/// True when the instruction reads r15, i.e. its own address. The PC is
/// not kept per instruction inside a batch, so such an instruction never
/// joins a run.
fn reads_pc(i: Instr) -> bool {
    matches!(
        i,
        Instr::Alu { rn: 15, .. } | Instr::Alu { rm: 15, .. } | Instr::AluImm { rn: 15, .. }
    )
}

/// Per-instruction VAs of a block, reconstructed from its segment map.
fn block_vas(segs: &[BlockSeg]) -> [u32; MAX_BLOCK_LEN] {
    let mut vas = [0u32; MAX_BLOCK_LEN];
    let mut k = 0;
    for s in segs {
        for j in 0..s.len {
            vas[k] = s.va.wrapping_add(j * INSTR_SIZE as u32);
            k += 1;
        }
    }
    vas
}

/// Plan the batchable runs of a decoded block (see [`Run`]). `segs` is
/// the block's segment map (drives per-instruction VA reconstruction and
/// seam detection).
fn plan_runs(instrs: &[(u64, Instr)], segs: &[BlockSeg]) -> Vec<Run> {
    let fetch = timing::L1_HIT + timing::INSTR_BASE;
    let n = instrs.len();
    let vas = block_vas(segs);

    let pure = |k: usize| instrs[k].1.fast_class() == FastClass::Pure && !reads_pc(instrs[k].1);
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
        let head = instrs[i].1;
        let opens = batchable_mem(head) || (pure(i) && !head.is_control_transfer());
        if !opens {
            // Sideband/exit instructions never join a run; a transfer can
            // only *end* one (handled while extending below).
            i += 1;
            continue;
        }
        // Extend while batchable, with at most one memory access; an
        // unconditional seam continues the run, a dynamic transfer
        // (conditional B, Ret) may be included as the run's final
        // instruction when nothing follows it in the block.
        let mut mem_at = batchable_mem(head).then_some(i);
        let mut j = i + 1;
        while j < n && continues(j - 1) {
            let ins = instrs[j].1;
            if batchable_mem(ins) {
                if mem_at.is_some() {
                    break;
                }
                mem_at = Some(j);
            } else if !pure(j) {
                break;
            } else if ins.is_control_transfer() && ins.static_target().is_none() {
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

            // Flag liveness, backward within the run. At the run's end and
            // at its memory access (where a failed guard stops the batch)
            // the flags are conservatively live: an IRQ, a fault, a later
            // block or a sideband consumer may observe them.
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
                if ins.reads_nzcv() || Some(k) == mem_at {
                    live = true;
                }
            }

            let last = instrs[j - 1].1;
            runs.push(Run {
                start: i as u32,
                len: (j - i) as u32,
                cost_before_last,
                static_cost,
                flags_dead,
                end_pc: last
                    .static_target()
                    .unwrap_or(vas[j - 1].wrapping_add(INSTR_SIZE as u32)),
                mem: mem_at.map(|m| RunMem {
                    at: (m - i) as u32,
                    pc: vas[m],
                    cost_before: (i..m).map(cost).sum(),
                }),
            });
        }
        i = j;
    }
    runs
}

/// One pre-resolved micro-op of a lowered run. Lowering decides everything
/// that does not depend on register values once, so the executor's batch
/// loop is a single dispatch per instruction: the operation (one variant
/// per ALU op and operand form), whether every register is unbanked
/// (r0–r7, read and written directly), whether a flag-setter's flags are
/// live (`Subs`/`Cmp`) or dead (`Sub`, `Nop`), and every static PC
/// (seams and fallthroughs need no micro-op; `Bl` carries its return
/// address). Semantics are exactly [`Machine::execute`]'s for the
/// instruction; the unit tests run both over the same inputs.
///
/// [`Machine::execute`]: crate::Machine
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Uop {
    /// No effect beyond the fetch: a compute burst (cycles are static), an
    /// unconditional `B` (static PC) or a `Cmp` with dead flags.
    Nop,
    /// `rd = imm`.
    Mov { rd: u8, imm: u32 },
    /// `rd = rn + rm`.
    Add { rd: u8, rn: u8, rm: u8 },
    /// `rd = rn + imm`.
    AddI { rd: u8, rn: u8, imm: u32 },
    /// `rd = rn - rm`, flags dead.
    Sub { rd: u8, rn: u8, rm: u8 },
    /// `rd = rn - imm`, flags dead.
    SubI { rd: u8, rn: u8, imm: u32 },
    /// `rd = rn - rm`, setting N/Z/C.
    Subs { rd: u8, rn: u8, rm: u8 },
    /// `rd = rn - imm`, setting N/Z/C.
    SubsI { rd: u8, rn: u8, imm: u32 },
    /// N/Z/C of `rn - rm`.
    Cmp { rn: u8, rm: u8 },
    /// N/Z/C of `rn - imm`.
    CmpI { rn: u8, imm: u32 },
    /// `rd = rn & rm`.
    And { rd: u8, rn: u8, rm: u8 },
    /// `rd = rn & imm`.
    AndI { rd: u8, rn: u8, imm: u32 },
    /// `rd = rn | rm`.
    Orr { rd: u8, rn: u8, rm: u8 },
    /// `rd = rn | imm`.
    OrrI { rd: u8, rn: u8, imm: u32 },
    /// `rd = rn ^ rm`.
    Eor { rd: u8, rn: u8, rm: u8 },
    /// `rd = rn ^ imm`.
    EorI { rd: u8, rn: u8, imm: u32 },
    /// `rd = rn * rm`.
    Mul { rd: u8, rn: u8, rm: u8 },
    /// `rd = rn * imm`.
    MulI { rd: u8, rn: u8, imm: u32 },
    /// `rd = rn << (rm & 31)`.
    Lsl { rd: u8, rn: u8, rm: u8 },
    /// `rd = rn << imm` (`imm` pre-masked to 0–31).
    LslI { rd: u8, rn: u8, imm: u32 },
    /// `rd = rn >> (rm & 31)`.
    Lsr { rd: u8, rn: u8, rm: u8 },
    /// `rd = rn >> imm` (`imm` pre-masked to 0–31).
    LsrI { rd: u8, rn: u8, imm: u32 },
    /// `MovImm` to a banked register (r8–r14).
    MovBanked { rd: u8, imm: u32 },
    /// Register ALU op touching a banked register, through the generic
    /// path (flags computed even when dead: harmless, they are overwritten
    /// before any reader).
    AluBanked { op: AluOp, rd: u8, rn: u8, rm: u8 },
    /// Immediate ALU op touching a banked register (as `AluBanked`).
    AluImmBanked { op: AluOp, rd: u8, rn: u8, imm: u32 },
    /// `rd = CPSR`.
    Mrs { rd: u8 },
    /// `lr = ret` (the branch itself is a static PC).
    Bl { ret: u32 },
    /// Trailing conditional branch to `target` (else the run's `end_pc`).
    BCond { cond: Cond, target: u32 },
    /// Trailing return: PC = lr.
    Ret,
    /// Guarded `rd = mem32[rn + imm]`.
    Ldr { rd: u8, rn: u8, imm: u32 },
    /// Guarded `mem32[rn + imm] = rs`.
    Str { rs: u8, rn: u8, imm: u32 },
}

/// Lower one batchable instruction at `va` (see [`Uop`]); `flags_dead` is
/// its bit of [`Run::flags_dead`].
fn lower(instr: Instr, va: u32, flags_dead: bool) -> Uop {
    use AluOp::*;
    let low = |r: u8| r < 8;
    match instr {
        Instr::MovImm { rd, imm } if low(rd) => Uop::Mov { rd, imm },
        Instr::MovImm { rd, imm } => Uop::MovBanked { rd, imm },
        Instr::Alu { op, rd, rn, rm } if low(rd | rn | rm) => match (op, flags_dead) {
            (Add, _) => Uop::Add { rd, rn, rm },
            (Sub, true) => Uop::Sub { rd, rn, rm },
            (Sub, false) => Uop::Subs { rd, rn, rm },
            (Cmp, true) => Uop::Nop,
            (Cmp, false) => Uop::Cmp { rn, rm },
            (And, _) => Uop::And { rd, rn, rm },
            (Orr, _) => Uop::Orr { rd, rn, rm },
            (Eor, _) => Uop::Eor { rd, rn, rm },
            (Mul, _) => Uop::Mul { rd, rn, rm },
            (Lsl, _) => Uop::Lsl { rd, rn, rm },
            (Lsr, _) => Uop::Lsr { rd, rn, rm },
        },
        Instr::Alu { op, rd, rn, rm } => Uop::AluBanked { op, rd, rn, rm },
        Instr::AluImm { op, rd, rn, imm } if low(rd | rn) => match (op, flags_dead) {
            (Add, _) => Uop::AddI { rd, rn, imm },
            (Sub, true) => Uop::SubI { rd, rn, imm },
            (Sub, false) => Uop::SubsI { rd, rn, imm },
            (Cmp, true) => Uop::Nop,
            (Cmp, false) => Uop::CmpI { rn, imm },
            (And, _) => Uop::AndI { rd, rn, imm },
            (Orr, _) => Uop::OrrI { rd, rn, imm },
            (Eor, _) => Uop::EorI { rd, rn, imm },
            (Mul, _) => Uop::MulI { rd, rn, imm },
            (Lsl, _) => Uop::LslI {
                rd,
                rn,
                imm: imm & 31,
            },
            (Lsr, _) => Uop::LsrI {
                rd,
                rn,
                imm: imm & 31,
            },
        },
        Instr::AluImm { op, rd, rn, imm } => Uop::AluImmBanked { op, rd, rn, imm },
        Instr::MrsCpsr { rd } => Uop::Mrs { rd },
        Instr::Compute { .. } | Instr::B { cond: Cond::Al, .. } => Uop::Nop,
        Instr::B { cond, target } => Uop::BCond { cond, target },
        Instr::Bl { .. } => Uop::Bl {
            ret: va.wrapping_add(INSTR_SIZE as u32),
        },
        Instr::Ret => Uop::Ret,
        Instr::Ldr { rd, rn, imm } => Uop::Ldr { rd, rn, imm },
        Instr::Str { rs, rn, imm } => Uop::Str { rs, rn, imm },
        _ => unreachable!("only batchable instructions are lowered"),
    }
}

/// Everything a [`Run`]'s up-front verification depends on. If a stored
/// stamp equals the current one, re-running the probes would resolve the
/// same slots with the same outcome:
///
/// * `tlb_epoch` unchanged ⇒ no TLB insert or flush happened, and hits only
///   re-stamp LRU state ⇒ every slot holds the same entry ⇒ the same probes
///   match, and each matched entry translates and checks identically —
///   *given* the same ASID, DACR word (domain rights), privilege level and
///   MMU enable, which the stamp carries explicitly because `mmu::hit`
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

/// A successful, memoized verification of one [`Run`]: the resolved
/// slots plus the [`VerifyStamp`] conditioning them.
#[derive(Clone, Debug)]
pub struct RunVerify {
    /// The state this verification is conditioned on.
    pub stamp: VerifyStamp,
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
    /// Runs planned at commit time (see [`Run`]).
    pub runs: Vec<Run>,
    /// The runs lowered to micro-ops, built on first use (see
    /// [`CachedBlock::uops`]).
    uops: OnceCell<Box<[Uop]>>,
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
    /// Memoized verification per run (parallel to `runs` once one of
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
    /// runs.
    pub fn new(instrs: &[(u64, Instr)], segs: &[BlockSeg], asid: u8, va: u32) -> CachedBlock {
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
            runs: plan_runs(instrs, segs),
            uops: OnceCell::new(),
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
    pub fn from_contiguous(instrs: &[(u64, Instr)], asid: u8, va: u32) -> CachedBlock {
        let pa = instrs.first().map(|&(pa, _)| pa).unwrap_or(0);
        let seg = BlockSeg {
            va,
            pa,
            len: instrs.len() as u32,
        };
        CachedBlock::new(instrs, &[seg], asid, va)
    }

    /// The block's runs lowered to micro-ops, one per instruction (`Nop`
    /// outside runs, so run `r` is `uops()[start..start + len]`). Built in
    /// one allocation at the first call — the executor's first successful
    /// run verification, so blocks that never batch never lower — and kept
    /// for the block's lifetime, however often its verification memo is
    /// invalidated.
    pub fn uops(&self) -> &[Uop] {
        self.uops.get_or_init(|| {
            let vas = block_vas(&self.segs);
            let mut uops = vec![Uop::Nop; self.instrs.len()];
            for run in self.runs.iter() {
                for k in 0..run.len as usize {
                    let i = run.start as usize + k;
                    let dead = run.flags_dead & (1 << k) != 0;
                    uops[i] = lower(self.instrs[i].1, vas[i], dead);
                }
            }
            uops.into_boxed_slice()
        })
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

/// Hasher for the `(ASID, VA)` block keys: one multiply, with the high
/// half folded into the low bits the table indexes by. Fixed, so every
/// process lays the table out the same way, and cheaper than the default
/// SipHash on the lookup and eviction paths. The keys are guest PCs: a
/// guest that picks colliding PCs can slow the host's table, never change
/// what the simulation computes.
#[derive(Default)]
struct KeyHasher(u64);

impl Hasher for KeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u8(b);
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.0 = (self.0 << 8) | n as u64;
    }

    fn write_u32(&mut self, n: u32) {
        self.0 = (self.0 << 32) | n as u64;
    }

    fn finish(&self) -> u64 {
        let h = self.0.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^ (h >> 32)
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
    blocks: HashMap<(u8, u32), Rc<CachedBlock>, BuildHasherDefault<KeyHasher>>,
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
            blocks: HashMap::default(),
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
        CachedBlock::from_contiguous(&instrs, asid, va)
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
        c.insert(CachedBlock::new(&instrs, &segs, 1, 0x8000));
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
        c.insert(CachedBlock::new(&instrs, &segs, 1, 0x8000));
        c.invalidate_chunks(&[0x1_0000], 0x1_0000, 1);
        assert!(c.lookup(1, 0x8000).is_some(), "hole chunk touches no seg");
        c.invalidate_chunks(&[0x4_0000], 0x1_0000, 2);
        assert!(c.lookup(1, 0x8000).is_none());
    }

    /// A single-segment block of `seq` at contiguous addresses from 0x8000.
    fn contiguous(seq: &[Instr]) -> CachedBlock {
        let instrs: Vec<(u64, Instr)> = seq
            .iter()
            .enumerate()
            .map(|(i, &s)| (0x8000 + i as u64 * 8, s))
            .collect();
        CachedBlock::from_contiguous(&instrs, 0, 0x8000)
    }

    #[test]
    fn run_plan_admits_one_unbanked_memory_access_per_run() {
        let add = Instr::Alu {
            op: AluOp::Add,
            rd: 0,
            rn: 0,
            rm: 1,
        };
        let mul = Instr::AluImm {
            op: AluOp::Mul,
            rd: 0,
            rn: 0,
            imm: 3,
        };
        let str0 = Instr::Str {
            rs: 0,
            rn: 4,
            imm: 0,
        };
        let ldr3 = Instr::Ldr {
            rd: 3,
            rn: 4,
            imm: 8,
        };
        let beq = Instr::B {
            cond: Cond::Eq,
            target: 0x8000,
        };
        let fetch = timing::L1_HIT + timing::INSTR_BASE;
        let mul_extra = timing::MUL - timing::INSTR_BASE;

        // [add, mov, str, compute(11), mul, b.eq]: one run over the whole
        // block, the str its memory access, charged one L1D hit.
        let b = contiguous(&[
            add,
            Instr::MovImm { rd: 2, imm: 7 },
            str0,
            Instr::Compute { cycles: 11 },
            mul,
            beq,
        ]);
        assert_eq!(b.runs.len(), 1);
        let run = b.runs[0];
        assert_eq!((run.start, run.len), (0, 6));
        assert_eq!(
            run.mem,
            Some(RunMem {
                at: 2,
                pc: 0x8010,
                cost_before: 2 * fetch,
            })
        );
        // The untaken branch contributes nothing statically.
        let before_last = 5 * fetch + timing::L1_HIT + 11 + mul_extra;
        assert_eq!(run.cost_before_last, before_last);
        assert_eq!(run.static_cost, before_last + fetch);
        assert_eq!(run.end_pc, 0x8030, "not-taken successor");

        // A second access ends the run just before itself and heads the
        // next one: [add, str, ldr, add, b.eq] plans as [add, str] and
        // [ldr, add, b.eq].
        let b = contiguous(&[add, str0, ldr3, add, beq]);
        let plan: Vec<_> = b
            .runs
            .iter()
            .map(|r| (r.start, r.len, r.mem.map(|m| m.at)))
            .collect();
        assert_eq!(plan, vec![(0, 2, Some(1)), (2, 3, Some(0))]);
        assert_eq!(b.runs[0].end_pc, 0x8010, "fallthrough into the ldr");
        assert_eq!(b.runs[0].static_cost, 2 * fetch + timing::L1_HIT);

        // An access through a banked register (r8–r14) never joins a run.
        let banked = Instr::Ldr {
            rd: 9,
            rn: 4,
            imm: 0,
        };
        let b = contiguous(&[add, add, banked, add, add]);
        let plan: Vec<_> = b.runs.iter().map(|r| (r.start, r.len, r.mem)).collect();
        assert_eq!(plan, vec![(0, 2, None), (3, 2, None)]);
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
        let b = CachedBlock::new(&instrs, &segs, 0, 0x8000);
        assert_eq!(b.runs.len(), 2);
        assert_eq!((b.runs[0].start, b.runs[0].len), (0, 2));
        assert_eq!((b.runs[1].start, b.runs[1].len), (2, 2));
    }

    #[test]
    fn run_plan_extends_across_unconditional_seams() {
        // [mov, b.al -> far, mov, ret]: one run spanning the seam, the
        // branch and ret charged statically.
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
        let b = CachedBlock::new(&instrs, &segs, 0, 0x8000);
        assert_eq!(b.runs.len(), 1, "seam does not split the run");
        let run = &b.runs[0];
        assert_eq!((run.start, run.len), (0, 4));
        // The seam's branch lowers to nothing: its target is static.
        assert_eq!(b.uops()[1], Uop::Nop);
        assert_eq!(b.uops()[3], Uop::Ret);
        let fetch = timing::L1_HIT + timing::INSTR_BASE;
        assert_eq!(run.static_cost, 4 * fetch + 2 * timing::BRANCH_TAKEN);
        assert_eq!(run.cost_before_last, 3 * fetch + timing::BRANCH_TAKEN);
    }

    #[test]
    fn flag_liveness_marks_dead_setters() {
        // sub (dead: overwritten by cmp), mov, cmp (live: read by b.ne).
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

        let b = contiguous(&[sub, mov, cmp, bne]);
        assert_eq!(b.runs.len(), 1);
        assert_eq!(
            b.runs[0].flags_dead, 0b0001,
            "sub's flags die at the cmp; cmp's are read by b.ne"
        );

        // A reader between the setters keeps the first setter live.
        let mrs = Instr::MrsCpsr { rd: 2 };
        let b = contiguous(&[sub, mrs, cmp, bne]);
        assert_eq!(b.runs[0].flags_dead, 0, "mrs reads the sub's flags");

        // So does a memory access: a failed guard stops the batch there,
        // and a data abort would save the CPSR.
        let ldr = Instr::Ldr {
            rd: 2,
            rn: 4,
            imm: 0,
        };
        let b = contiguous(&[sub, ldr, cmp, bne]);
        assert_eq!(
            b.runs[0].flags_dead, 0,
            "the ldr may observe the sub's flags"
        );

        // A setter at the end of a run is conservatively live (IRQ entry,
        // the next block or a sideband consumer may observe CPSR).
        let b = contiguous(&[sub, mov]);
        assert_eq!(b.runs[0].flags_dead, 0);

        // Lowering drops a dead setter's flag work: the dead sub keeps its
        // register write, a dead cmp becomes a no-op.
        let b = contiguous(&[sub, cmp, mov, cmp, bne]);
        assert_eq!(b.runs[0].flags_dead, 0b0011);
        assert_eq!(
            b.uops(),
            [
                Uop::SubI {
                    rd: 0,
                    rn: 0,
                    imm: 1
                },
                Uop::Nop,
                Uop::Mov { rd: 1, imm: 0 },
                Uop::CmpI { rn: 0, imm: 0 },
                Uop::BCond {
                    cond: Cond::Ne,
                    target: 0x8000
                },
            ]
        );
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
