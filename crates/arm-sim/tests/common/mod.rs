//! Shared pieces of the lockstep differential harnesses: the seeded
//! program generators (MMU off with one RAM data pointer, and MMU on with
//! paged data, MMIO, a read-only page and stores into the program text),
//! the full architectural-state comparison and the minimal trap servicing
//! loop. Used by `lockstep.rs` (block cache vs reference interpreter) and
//! `profile_lockstep.rs` (profiler on vs off).
//!
//! Randomisation uses the same zero-dependency LCG as `proptests.rs`, so
//! every failure is reproducible from its seed.

#![allow(dead_code)] // each harness uses a subset

use mnv_arm::cp15::{DomainAccess, SCTLR_M};
use mnv_arm::cpu::{CpuEvent, ExceptionKind};
use mnv_arm::machine::{bare_machine, Machine, UndKind, GIC_BASE};
use mnv_arm::mir::{AluOp, Cond, Instr, MirCp15, Program, ProgramBuilder, INSTR_SIZE};
use mnv_arm::mmu::{l1_table_desc, l2_small_desc};
use mnv_arm::psr::Psr;
use mnv_arm::tlb::Ap;
use mnv_hal::{Asid, Cycles, Domain, IrqNum, PhysAddr, PAGE_SIZE};

/// Minimal 64-bit LCG (Knuth MMIX constants) for deterministic fuzzing.
pub struct Lcg(u64);

impl Lcg {
    pub fn new(seed: u64) -> Self {
        Lcg(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 1
    }
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 16) as u32
    }
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
    /// Uniform in `0..n` from the high bits (an LCG's low bits cycle with
    /// short periods, which starves some choices of [`Lcg::range`]).
    pub fn below(&mut self, n: u64) -> u64 {
        (self.next_u64() >> 31) % n
    }
}

pub const CODE_BASE: u64 = 0x8000;
/// Data traffic targets a different 64 KiB code-tracking chunk than the
/// program, like a real guest's layout (stores into the code chunk are
/// legal too — they just conservatively invalidate, which the fault-flip
/// test exercises on purpose).
pub const DATA_BASE: u32 = 0x2_0000;

const ALU_OPS: [AluOp; 8] = [
    AluOp::Add,
    AluOp::Sub,
    AluOp::And,
    AluOp::Orr,
    AluOp::Eor,
    AluOp::Mul,
    AluOp::Lsl,
    AluOp::Lsr,
];

/// Generate a random program: r0–r5 data, r6 the data pointer, r8–r11 loop
/// counters. Backward branches are guarded by a compare-and-skip on a
/// dedicated counter so every program terminates (modulo the explicit
/// instruction budget enforced by the harness deadline).
pub fn gen_program(rng: &mut Lcg) -> Program {
    let mut b = ProgramBuilder::new();
    for r in 0..6u8 {
        b.mov(r, rng.next_u32() & 0xFFFF);
    }
    b.mov(6, DATA_BASE + rng.range(0, 64) as u32 * 8);
    let counters = [8u8, 9, 10, 11];
    for &c in &counters {
        b.mov(c, 2 + rng.range(0, 6) as u32);
    }
    let mut bound = Vec::new();
    let nblocks = rng.range(3, 7);
    for bi in 0..nblocks {
        let l = b.label();
        b.bind(l);
        bound.push(l);
        for _ in 0..rng.range(3, 12) {
            let rd = rng.range(0, 6) as u8;
            let rn = rng.range(0, 6) as u8;
            let rm = rng.range(0, 6) as u8;
            match rng.range(0, 16) {
                0..=3 => {
                    b.alu(ALU_OPS[rng.range(0, 8) as usize], rd, rn, rm);
                }
                4..=6 => {
                    b.alu_imm(
                        ALU_OPS[rng.range(0, 8) as usize],
                        rd,
                        rn,
                        rng.next_u32() & 0xFF,
                    );
                }
                7 => {
                    b.mov(rd, rng.next_u32());
                }
                8..=9 => {
                    b.str(rd, 6, rng.range(0, 32) as u32 * 4);
                }
                10..=11 => {
                    b.ldr(rd, 6, rng.range(0, 32) as u32 * 4);
                }
                12 => {
                    b.compute(1 + rng.range(0, 60) as u32);
                }
                13 => {
                    b.push(Instr::MrsCpsr { rd });
                }
                14 => {
                    // PL0-readable CP15: executes without trapping.
                    b.push(Instr::Mrc {
                        rd,
                        reg: MirCp15::Tpidruro,
                    });
                }
                15 => match rng.range(0, 4) {
                    0 => {
                        b.svc(rng.next_u32() as u8);
                    }
                    1 => {
                        // USR-mode MSR: silently updates flags only.
                        b.push(Instr::MsrCpsr { rs: rn });
                    }
                    2 => {
                        // Privileged CP15 write from USR: traps Undefined.
                        b.push(Instr::Mcr {
                            reg: MirCp15::Dacr,
                            rs: rn,
                        });
                    }
                    _ => {
                        // First use traps UndKind::VfpAccess (lazy switch).
                        b.push(Instr::VfpOp {
                            op: rng.range(0, 2) as u8,
                            rd: rd & 3,
                            rn: rn & 3,
                            rm: rm & 3,
                        });
                    }
                },
                _ => unreachable!(),
            }
        }
        // Guarded backward branch: `if ctr != 0 { ctr -= 1; goto earlier }`.
        // The compare-first shape cannot wrap the counter, so each counter
        // bounds the total number of jumps across every site sharing it.
        if bi > 0 && rng.range(0, 100) < 60 {
            let c = counters[(bi - 1) as usize % counters.len()];
            let target = bound[rng.range(0, bound.len() as u64 - 1) as usize];
            let skip = b.label();
            b.alu_imm(AluOp::Cmp, c, c, 0);
            b.branch(Cond::Eq, skip);
            b.alu_imm(AluOp::Sub, c, c, 1);
            b.branch(Cond::Al, target);
            b.bind(skip);
        }
    }
    b.halt();
    b.assemble(CODE_BASE)
}

/// Pages of program text the MMU-on harness maps (identity, writable):
/// generated programs fill well under the first, and stores aimed at the
/// last 256 bytes land in the same 64 KiB code-tracking chunk.
pub const MMU_CODE_PAGES: u32 = 4;
/// Data pages the MMU-on harness walks (identity-mapped small pages from
/// [`WALK_VA`]): 256 pages, twice the 128-entry TLB's reach, competing
/// with the code pages for its sets.
pub const WALK_PAGES: u32 = 256;
/// First walked data page.
pub const WALK_VA: u32 = 0x0040_0000;
/// A page mapped onto the GIC window: accesses through it are MMIO.
pub const GIC_PAGE_VA: u32 = 0x0050_0000;
/// A read-only page: loads work, stores raise data aborts.
pub const RO_PAGE_VA: u32 = 0x0050_1000;
/// ASID the MMU-on harness runs under (its mappings are non-global).
pub const MMU_ASID: u8 = 5;
/// First-level table; each MiB of VA gets its L2 table at
/// `L2_PA + mib * 1 KiB`.
const L1_PA: u64 = 0x10_0000;
const L2_PA: u64 = 0x10_4000;

/// A target for the special pointer r7: the text tail, the GIC page or the
/// read-only page, at a random word.
fn special_pointer(rng: &mut Lcg) -> u32 {
    let word = rng.below(32) as u32 * 4;
    match rng.below(3) {
        0 => CODE_BASE as u32 + MMU_CODE_PAGES * PAGE_SIZE as u32 - 256 + word,
        1 => GIC_PAGE_VA + word,
        _ => RO_PAGE_VA + word,
    }
}

/// Generate a random program for [`mmu_machine`]: r0–r5 data, r6 a
/// pointer walking the [`WALK_PAGES`] data pages a page and a bit at a
/// time, r7 a pointer re-aimed now and then at the text tail, the GIC
/// page or the read-only page, r8–r11 loop counters, r12 the count of an
/// outer loop around the whole body (so the walker keeps moving and the
/// banked-register micro-ops run too). Loads and stores are dense, so
/// most block-cache runs carry one, and every memory operand is an
/// unbanked register, so the runs may batch it.
pub fn gen_mmu_program(rng: &mut Lcg) -> Program {
    let mut b = ProgramBuilder::new();
    for r in 0..6u8 {
        b.mov(r, rng.next_u32() & 0xFFFF);
    }
    b.mov(
        6,
        WALK_VA + rng.below(WALK_PAGES as u64) as u32 * PAGE_SIZE as u32,
    );
    b.mov(7, special_pointer(rng));
    let counters = [8u8, 9, 10, 11];
    for &c in &counters {
        b.mov(c, 2 + rng.below(6) as u32);
    }
    b.mov(12, 40 + rng.below(40) as u32);
    let outer = b.label();
    b.bind(outer);
    let mut bound = Vec::new();
    let nblocks = 3 + rng.below(4);
    for bi in 0..nblocks {
        let l = b.label();
        b.bind(l);
        bound.push(l);
        for _ in 0..3 + rng.below(11) {
            let rd = rng.below(6) as u8;
            let rn = rng.below(6) as u8;
            let rm = rng.below(6) as u8;
            let off = rng.below(32) as u32 * 4;
            match rng.below(16) {
                0..=3 => {
                    b.alu(ALU_OPS[rng.below(8) as usize], rd, rn, rm);
                }
                4..=5 => {
                    b.alu_imm(
                        ALU_OPS[rng.below(8) as usize],
                        rd,
                        rn,
                        rng.next_u32() & 0xFF,
                    );
                }
                6 => {
                    b.alu_imm(AluOp::Cmp, rd, rn, rng.next_u32() & 0xFF);
                }
                7..=8 => {
                    b.str(rd, 6, off);
                }
                9..=10 => {
                    b.ldr(rd, 6, off);
                }
                11 => {
                    if rng.below(2) == 0 {
                        b.str(rd, 7, off);
                    } else {
                        b.ldr(rd, 7, off);
                    }
                }
                12 => {
                    // Next page and a bit, wrapped inside the walked
                    // region (word-aligned; an offset from the last word
                    // of its last page reaches the GIC page right after).
                    let stride = PAGE_SIZE as u32 + rng.below(32) as u32 * 4;
                    b.alu_imm(AluOp::Add, 6, 6, stride);
                    b.alu_imm(AluOp::And, 6, 6, 0xF_FFFC);
                    b.alu_imm(AluOp::Orr, 6, 6, WALK_VA);
                }
                13 => {
                    b.mov(7, special_pointer(rng));
                }
                14 => match rng.below(3) {
                    0 => {
                        b.compute(1 + rng.below(60) as u32);
                    }
                    1 => {
                        b.push(Instr::MrsCpsr { rd });
                    }
                    _ => {
                        // Reads r15: the instruction's own address.
                        b.alu_imm(AluOp::Add, rd, 15, rng.next_u32() & 0xFF);
                    }
                },
                15 => {
                    b.svc(rng.next_u32() as u8);
                }
                _ => unreachable!(),
            }
        }
        if bi > 0 && rng.below(100) < 60 {
            let c = counters[(bi - 1) as usize % counters.len()];
            let target = bound[rng.below(bound.len() as u64 - 1) as usize];
            let skip = b.label();
            b.alu_imm(AluOp::Cmp, c, c, 0);
            b.branch(Cond::Eq, skip);
            b.alu_imm(AluOp::Sub, c, c, 1);
            b.branch(Cond::Al, target);
            b.bind(skip);
        }
    }
    b.alu_imm(AluOp::Sub, 12, 12, 1);
    b.alu_imm(AluOp::Cmp, 12, 12, 0);
    b.branch(Cond::Ne, outer);
    b.halt();
    b.assemble(CODE_BASE)
}

/// A machine running `prog` in user mode with the MMU on: small-page
/// tables (built with `mmu::l1_table_desc`/`l2_small_desc`) mapping the
/// program text, the walked data pages, the GIC page and the read-only
/// page, all non-global under [`MMU_ASID`] in a client domain, and IRQs
/// unmasked.
pub fn mmu_machine(prog: &Program) -> Machine {
    let mut m = bare_machine();
    m.load_program(prog, PhysAddr::new(CODE_BASE)).unwrap();
    let domain = Domain::GUEST_USER;
    let mut map = |va: u32, pa: u64, ap: Ap| {
        let mib = (va >> 20) as u64;
        let l2 = PhysAddr::new(L2_PA + mib * 0x400);
        let l1_slot = PhysAddr::new(L1_PA + mib * 4);
        m.mem.write_u32(l1_slot, l1_table_desc(l2, domain)).unwrap();
        let l2_slot = l2 + ((va as u64 >> 12) & 0xFF) * 4;
        let desc = l2_small_desc(PhysAddr::new(pa), ap, false, false);
        m.mem.write_u32(l2_slot, desc).unwrap();
    };
    let page = PAGE_SIZE as u32;
    for p in 0..MMU_CODE_PAGES {
        let va = CODE_BASE as u32 + p * page;
        map(va, va as u64, Ap::Full);
    }
    for p in 0..WALK_PAGES {
        let va = WALK_VA + p * page;
        map(va, va as u64, Ap::Full);
    }
    map(GIC_PAGE_VA, GIC_BASE, Ap::Full);
    map(RO_PAGE_VA, RO_PAGE_VA as u64, Ap::ReadOnly);
    m.cp15.ttbr0 = L1_PA as u32;
    m.cp15.set_asid(Asid(MMU_ASID));
    m.cp15.set_domain_access(domain, DomainAccess::Client);
    m.cp15.sctlr |= SCTLR_M;
    m.cpu.pc = CODE_BASE as u32;
    m.cpu.cpsr = Psr::user();
    m.cpu.cpsr.irq_masked = false;
    m
}

/// Directed chain-heavy program: a loop of small blocks stitched together
/// by *unconditional* branches and leaf calls, the exact shape the block
/// cache turns into chained superblocks. Used by the chain/SMC lockstep
/// tests and the profiler quad-lockstep extension, where the point is to
/// prove identity while chains and fused segments are actually in play
/// (random programs only hit that path occasionally).
pub fn chain_heavy_program(rng: &mut Lcg) -> Program {
    let mut b = ProgramBuilder::new();
    for r in 0..6u8 {
        b.mov(r, rng.next_u32() & 0xFFFF);
    }
    b.mov(6, DATA_BASE);
    b.mov(8, 0x0FFF_FFFF); // outlives any harness horizon
    let entry = b.label();
    b.branch(Cond::Al, entry);
    // Two leaf routines: Bl/Ret seams the decoder fuses across.
    let leaf_a = b.label();
    b.bind(leaf_a);
    b.alu_imm(AluOp::Add, 0, 0, 13);
    b.alu(AluOp::Eor, 1, 1, 0);
    b.ret();
    let leaf_b = b.label();
    b.bind(leaf_b);
    b.alu_imm(AluOp::Lsr, 3, 3, 1);
    b.alu(AluOp::Add, 3, 3, 2);
    b.ret();
    b.bind(entry);
    let top = b.label();
    b.bind(top);
    for i in 0..4 {
        b.alu_imm(AluOp::Add, 0, 0, 7 + i);
    }
    b.call(leaf_a);
    let mid = b.label();
    b.branch(Cond::Al, mid); // unconditional block seam: fusion candidate
    b.bind(mid);
    b.str(0, 6, 8);
    b.ldr(4, 6, 8);
    b.call(leaf_b);
    let tail = b.label();
    b.branch(Cond::Al, tail);
    b.bind(tail);
    b.alu_imm(AluOp::Sub, 8, 8, 1);
    b.alu_imm(AluOp::Cmp, 8, 8, 0);
    b.branch(Cond::Ne, top);
    b.halt();
    b.assemble(CODE_BASE)
}

/// Full architectural-state comparison. Anything observable by a guest or
/// by the kernel's accounting must match exactly.
pub fn assert_same(seed: u64, at: &str, fast: &Machine, slow: &Machine) {
    assert_eq!(fast.now(), slow.now(), "seed {seed} @ {at}: clock");
    assert_eq!(
        fast.instructions_retired, slow.instructions_retired,
        "seed {seed} @ {at}: retired"
    );
    assert_eq!(fast.cpu.pc, slow.cpu.pc, "seed {seed} @ {at}: pc");
    assert_eq!(fast.cpu.cpsr, slow.cpu.cpsr, "seed {seed} @ {at}: cpsr");
    for r in 0..15u8 {
        assert_eq!(fast.cpu.reg(r), slow.cpu.reg(r), "seed {seed} @ {at}: r{r}");
    }
    assert_eq!(
        fast.pmu_inputs(),
        slow.pmu_inputs(),
        "seed {seed} @ {at}: PMU inputs"
    );
    assert_eq!(
        fast.replacement_digest(),
        slow.replacement_digest(),
        "seed {seed} @ {at}: TLB/L1I/L1D/L2 replacement state"
    );
    assert_eq!(
        fast.ptimer().expiries,
        slow.ptimer().expiries,
        "seed {seed} @ {at}: timer expiries"
    );
    assert_eq!(
        fast.gic.is_pending(IrqNum::PRIVATE_TIMER),
        slow.gic.is_pending(IrqNum::PRIVATE_TIMER),
        "seed {seed} @ {at}: timer IRQ pending"
    );
}

/// [`service`], except that a data abort skips the faulting instruction
/// and carries on (the MMU-on programs store to a read-only page on
/// purpose).
pub fn service_skipping_data_aborts(m: &mut Machine, ev: CpuEvent) -> bool {
    if ev != CpuEvent::Exception(ExceptionKind::DataAbort) {
        return service(m, ev);
    }
    let ret = m.cpu.reg(14).wrapping_add(INSTR_SIZE as u32);
    m.exception_return(ret);
    true
}

/// Run until `deadline` or the first non-Retired event.
pub fn advance(m: &mut Machine, deadline: Cycles) -> Option<CpuEvent> {
    while m.now() < deadline {
        match m.run_slice(deadline) {
            CpuEvent::Retired => {}
            ev => return Some(ev),
        }
    }
    None
}

/// Minimal trap servicing, mirroring what `MirGuest::handle_exception`
/// does: IRQs are acked, SVCs return, Undefined is emulated or skipped.
/// Returns false when the program is over (halt/WFI/abort).
pub fn service(m: &mut Machine, ev: CpuEvent) -> bool {
    match ev {
        CpuEvent::Halted | CpuEvent::Wfi => false,
        CpuEvent::Exception(ExceptionKind::Irq) => {
            if let Some(irq) = m.gic.ack() {
                m.gic.eoi(irq);
            }
            let ret = m.cpu.reg(14);
            m.exception_return(ret);
            true
        }
        CpuEvent::Exception(ExceptionKind::Svc) => {
            let _ = m.last_svc.take();
            let ret = m.cpu.reg(14);
            m.exception_return(ret);
            true
        }
        CpuEvent::Exception(ExceptionKind::Undefined) => {
            let cause = m.last_und.take().expect("UND without cause");
            let pc = cause.pc.raw() as u32;
            match cause.kind {
                UndKind::VfpAccess => {
                    m.vfp.enabled = true;
                    m.exception_return(pc); // retry with VFP on
                }
                _ => m.exception_return(pc.wrapping_add(INSTR_SIZE as u32)),
            }
            true
        }
        // A fault-flipped branch target can point into unmapped space;
        // both machines must get there identically, then we stop.
        CpuEvent::Exception(ExceptionKind::PrefetchAbort)
        | CpuEvent::Exception(ExceptionKind::DataAbort) => false,
        ev => panic!("unexpected event {ev:?}"),
    }
}
