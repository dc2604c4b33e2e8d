//! MIR — the micro instruction set guest programs are written in.
//!
//! Mini-NOVA's virtualization story is about *what happens when deprivileged
//! code executes particular instructions*: privileged CP15 accesses must
//! trap (UND), supervisor calls must reach the hypercall portal (SVC),
//! memory accesses must be translated and can abort (ABT), VFP use must trap
//! while the bank is lazily switched out, and MSR-style sensitive-but-
//! non-trapping instructions must *silently misbehave* — the classic ARM
//! virtualization hole paravirtualization exists to plug.
//!
//! MIR is a small register machine with exactly those behaviours. Programs
//! are encoded into simulated guest memory (8 bytes per instruction) and
//! fetched through the MMU with instruction-cache charging, so running one
//! exercises the same machinery real guest code would.

use mnv_hal::VirtAddr;

/// Arithmetic/logic operations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AluOp {
    /// rd = rn + rm
    Add,
    /// rd = rn - rm (sets flags)
    Sub,
    /// rd = rn & rm
    And,
    /// rd = rn | rm
    Orr,
    /// rd = rn ^ rm
    Eor,
    /// rd = rn * rm
    Mul,
    /// rd = rn << (rm & 31)
    Lsl,
    /// rd = rn >> (rm & 31) (logical)
    Lsr,
    /// flags = rn - rm, rd unused
    Cmp,
}

impl AluOp {
    fn code(self) -> u8 {
        match self {
            AluOp::Add => 0,
            AluOp::Sub => 1,
            AluOp::And => 2,
            AluOp::Orr => 3,
            AluOp::Eor => 4,
            AluOp::Mul => 5,
            AluOp::Lsl => 6,
            AluOp::Lsr => 7,
            AluOp::Cmp => 8,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            0 => AluOp::Add,
            1 => AluOp::Sub,
            2 => AluOp::And,
            3 => AluOp::Orr,
            4 => AluOp::Eor,
            5 => AluOp::Mul,
            6 => AluOp::Lsl,
            7 => AluOp::Lsr,
            8 => AluOp::Cmp,
            _ => return None,
        })
    }
}

/// Branch conditions over the N/Z/C flags.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Cond {
    /// Always.
    Al,
    /// Z set.
    Eq,
    /// Z clear.
    Ne,
    /// C clear (unsigned lower).
    Lo,
    /// C set (unsigned higher-or-same).
    Hs,
    /// N set (negative).
    Mi,
    /// N clear.
    Pl,
}

impl Cond {
    fn code(self) -> u8 {
        match self {
            Cond::Al => 0,
            Cond::Eq => 1,
            Cond::Ne => 2,
            Cond::Lo => 3,
            Cond::Hs => 4,
            Cond::Mi => 5,
            Cond::Pl => 6,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            0 => Cond::Al,
            1 => Cond::Eq,
            2 => Cond::Ne,
            3 => Cond::Lo,
            4 => Cond::Hs,
            5 => Cond::Mi,
            6 => Cond::Pl,
            _ => return None,
        })
    }
}

/// CP15 registers addressable from MIR (a guest will mostly *fail* to touch
/// these — that is the point).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MirCp15 {
    /// SCTLR.
    Sctlr,
    /// TTBR0.
    Ttbr0,
    /// DACR.
    Dacr,
    /// CONTEXTIDR.
    Contextidr,
    /// DFAR.
    Dfar,
    /// DFSR.
    Dfsr,
    /// TPIDRURO — readable from PL0 by architecture; used to show that
    /// *unprivileged* CP15 reads do not trap.
    Tpidruro,
    /// PMCR — performance monitor control (c9 group).
    Pmcr,
    /// PMCNTENSET — counter-enable set.
    Pmcntenset,
    /// PMCNTENCLR — counter-enable clear.
    Pmcntenclr,
    /// PMSELR — event-counter selector.
    Pmselr,
    /// PMXEVTYPER — event type of the selected counter.
    Pmxevtyper,
    /// PMXEVCNTR — value of the selected counter.
    Pmxevcntr,
    /// PMCCNTR — cycle counter.
    Pmccntr,
    /// PMOVSR — overflow flag status.
    Pmovsr,
    /// PMUSERENR — user-enable; its EN bit gates PL0 access to the rest of
    /// the PMU *dynamically* (unlike [`MirCp15::pl0_readable`], which is
    /// the static architectural whitelist).
    Pmuserenr,
}

impl MirCp15 {
    fn code(self) -> u8 {
        match self {
            MirCp15::Sctlr => 0,
            MirCp15::Ttbr0 => 1,
            MirCp15::Dacr => 2,
            MirCp15::Contextidr => 3,
            MirCp15::Dfar => 4,
            MirCp15::Dfsr => 5,
            MirCp15::Tpidruro => 6,
            MirCp15::Pmcr => 7,
            MirCp15::Pmcntenset => 8,
            MirCp15::Pmcntenclr => 9,
            MirCp15::Pmselr => 10,
            MirCp15::Pmxevtyper => 11,
            MirCp15::Pmxevcntr => 12,
            MirCp15::Pmccntr => 13,
            MirCp15::Pmovsr => 14,
            MirCp15::Pmuserenr => 15,
        }
    }

    fn from_code(c: u8) -> Option<Self> {
        Some(match c {
            0 => MirCp15::Sctlr,
            1 => MirCp15::Ttbr0,
            2 => MirCp15::Dacr,
            3 => MirCp15::Contextidr,
            4 => MirCp15::Dfar,
            5 => MirCp15::Dfsr,
            6 => MirCp15::Tpidruro,
            7 => MirCp15::Pmcr,
            8 => MirCp15::Pmcntenset,
            9 => MirCp15::Pmcntenclr,
            10 => MirCp15::Pmselr,
            11 => MirCp15::Pmxevtyper,
            12 => MirCp15::Pmxevcntr,
            13 => MirCp15::Pmccntr,
            14 => MirCp15::Pmovsr,
            15 => MirCp15::Pmuserenr,
            _ => return None,
        })
    }

    /// True for the registers PL0 may read without trapping regardless of
    /// configuration. PMU registers are *not* listed: their PL0 access is
    /// decided at execution time by PMUSERENR ([`MirCp15::pmu_reg`]).
    pub fn pl0_readable(self) -> bool {
        matches!(self, MirCp15::Tpidruro)
    }

    /// The PMU register this name addresses, if it is part of the c9
    /// performance-monitor group.
    pub fn pmu_reg(self) -> Option<crate::pmu::PmuReg> {
        use crate::pmu::PmuReg;
        Some(match self {
            MirCp15::Pmcr => PmuReg::Pmcr,
            MirCp15::Pmcntenset => PmuReg::Pmcntenset,
            MirCp15::Pmcntenclr => PmuReg::Pmcntenclr,
            MirCp15::Pmselr => PmuReg::Pmselr,
            MirCp15::Pmxevtyper => PmuReg::Pmxevtyper,
            MirCp15::Pmxevcntr => PmuReg::Pmxevcntr,
            MirCp15::Pmccntr => PmuReg::Pmccntr,
            MirCp15::Pmovsr => PmuReg::Pmovsr,
            MirCp15::Pmuserenr => PmuReg::Pmuserenr,
            _ => return None,
        })
    }
}

/// One MIR instruction. Each occupies [`INSTR_SIZE`] bytes in memory.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Instr {
    /// Stop the program (tests / task completion).
    Halt,
    /// rd = imm.
    MovImm { rd: u8, imm: u32 },
    /// Register ALU operation.
    Alu { op: AluOp, rd: u8, rn: u8, rm: u8 },
    /// Immediate ALU operation.
    AluImm { op: AluOp, rd: u8, rn: u8, imm: u32 },
    /// `rd = mem32[rn + imm]`.
    Ldr { rd: u8, rn: u8, imm: u32 },
    /// `mem32[rn + imm] = rs`.
    Str { rs: u8, rn: u8, imm: u32 },
    /// Conditional absolute branch.
    B { cond: Cond, target: u32 },
    /// Branch-and-link: lr = next pc, pc = target.
    Bl { target: u32 },
    /// Return: pc = lr.
    Ret,
    /// Supervisor call with an 8-bit immediate — the hypercall gateway.
    Svc { imm: u8 },
    /// rd = CP15 register (privileged unless [`MirCp15::pl0_readable`]).
    Mrc { rd: u8, reg: MirCp15 },
    /// CP15 register = rs (always privileged).
    Mcr { reg: MirCp15, rs: u8 },
    /// rd = CPSR (in USR mode, reads with mode bits visible — sensitive!).
    MrsCpsr { rd: u8 },
    /// CPSR = rs. In USR mode this *silently* updates only the flags — the
    /// non-trapping sensitive instruction of §II-A.
    MsrCpsr { rs: u8 },
    /// Wait for interrupt.
    Wfi,
    /// Consume `cycles` of pure computation (abstract DSP burst).
    Compute { cycles: u32 },
    /// VFP operation `d[rd] = d[rn] op d[rm]`; op 0=add 1=mul. Traps UND when
    /// the VFP is disabled (lazy-switch trap).
    VfpOp { op: u8, rd: u8, rn: u8, rm: u8 },
}

/// Encoded size of every instruction, in bytes.
pub const INSTR_SIZE: u64 = 8;

/// How the decoded-block executor may treat an instruction (see
/// [`crate::blockcache`]). The split is about *observability*, not about
/// whether the instruction can be cached — everything decodable is cached:
///
/// * [`FastClass::Pure`] touches only core registers and the clock. Nothing
///   it does can raise an interrupt, change the IRQ mask, fault, or write
///   memory, so a run of them needs no device sync / IRQ poll between
///   instructions (the per-block device deadline covers timer expiry).
/// * [`FastClass::Sideband`] may access memory/MMIO, trap, or rewrite the
///   CPSR: after executing one, the fast path must re-sync devices and
///   re-poll exactly as the per-instruction path would.
/// * [`FastClass::Exit`] always leaves the interpreter loop (event or
///   exception), ending the block.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FastClass {
    /// Register-only: ALU, moves, flag reads, taken/untaken branches,
    /// abstract compute bursts.
    Pure,
    /// Memory, CP15, VFP or CPSR-writing: forces a device sync + IRQ poll
    /// at the next instruction boundary, like the per-instruction path.
    Sideband,
    /// Halt/Svc/Wfi: returns a non-`Retired` event unconditionally.
    Exit,
}

impl Instr {
    /// Classification used by the decoded basic-block cache.
    pub fn fast_class(self) -> FastClass {
        match self {
            Instr::MovImm { .. }
            | Instr::Alu { .. }
            | Instr::AluImm { .. }
            | Instr::MrsCpsr { .. }
            | Instr::Compute { .. }
            | Instr::B { .. }
            | Instr::Bl { .. }
            | Instr::Ret => FastClass::Pure,
            Instr::Ldr { .. }
            | Instr::Str { .. }
            | Instr::Mrc { .. }
            | Instr::Mcr { .. }
            | Instr::MsrCpsr { .. }
            | Instr::VfpOp { .. } => FastClass::Sideband,
            Instr::Halt | Instr::Svc { .. } | Instr::Wfi => FastClass::Exit,
        }
    }

    /// True for control transfers: a basic block ends *after* one of these
    /// (the instruction itself is still part of the block).
    pub fn is_control_transfer(self) -> bool {
        matches!(
            self,
            Instr::B { .. }
                | Instr::Bl { .. }
                | Instr::Ret
                | Instr::Halt
                | Instr::Svc { .. }
                | Instr::Wfi
        )
    }

    /// Statically-known successor of an *unconditionally taken* transfer:
    /// `B` with `Cond::Al` or `Bl`. These are the only transfers a
    /// superblock may fuse across — the recorded instruction stream after
    /// one of them is guaranteed to continue at the returned target, so the
    /// seam can be re-verified at replay time without evaluating anything.
    /// Conditional branches and `Ret` return `None` (dynamic successors).
    pub fn static_target(self) -> Option<u32> {
        match self {
            Instr::B {
                cond: Cond::Al,
                target,
            }
            | Instr::Bl { target } => Some(target),
            _ => None,
        }
    }

    /// True when executing the instruction overwrites the N/Z/C condition
    /// flags (the interpreter's ALU sets them for `Sub` and `Cmp` only).
    /// Used by the block cache's flag-liveness pass: a setter whose flags
    /// are overwritten by a later setter before any reader is lowered
    /// without the flag computation.
    pub fn sets_nzcv(self) -> bool {
        matches!(
            self,
            Instr::Alu {
                op: AluOp::Sub | AluOp::Cmp,
                ..
            } | Instr::AluImm {
                op: AluOp::Sub | AluOp::Cmp,
                ..
            }
        )
    }

    /// True when the instruction observes the condition flags: conditional
    /// branches evaluate N/Z/C and `MrsCpsr` materialises the whole CPSR
    /// (flags included) into a register. `MsrCpsr` *writes* flags but is
    /// [`FastClass::Sideband`], so it never appears inside a batched run
    /// and needs no entry here.
    pub fn reads_nzcv(self) -> bool {
        match self {
            Instr::B { cond, .. } => cond != Cond::Al,
            Instr::MrsCpsr { .. } => true,
            _ => false,
        }
    }

    /// Encode to the fixed 8-byte format.
    pub fn encode(self) -> [u8; 8] {
        let (op, a, b, c, imm): (u8, u8, u8, u8, u32) = match self {
            Instr::Halt => (0, 0, 0, 0, 0),
            Instr::MovImm { rd, imm } => (1, rd, 0, 0, imm),
            Instr::Alu { op, rd, rn, rm } => (2, rd, rn, rm, op.code() as u32),
            Instr::AluImm { op, rd, rn, imm } => (3, rd, rn, op.code(), imm),
            Instr::Ldr { rd, rn, imm } => (4, rd, rn, 0, imm),
            Instr::Str { rs, rn, imm } => (5, rs, rn, 0, imm),
            Instr::B { cond, target } => (6, cond.code(), 0, 0, target),
            Instr::Bl { target } => (7, 0, 0, 0, target),
            Instr::Ret => (8, 0, 0, 0, 0),
            Instr::Svc { imm } => (9, 0, 0, 0, imm as u32),
            Instr::Mrc { rd, reg } => (10, rd, reg.code(), 0, 0),
            Instr::Mcr { reg, rs } => (11, rs, reg.code(), 0, 0),
            Instr::MrsCpsr { rd } => (12, rd, 0, 0, 0),
            Instr::MsrCpsr { rs } => (13, rs, 0, 0, 0),
            Instr::Wfi => (14, 0, 0, 0, 0),
            Instr::Compute { cycles } => (15, 0, 0, 0, cycles),
            Instr::VfpOp { op, rd, rn, rm } => (16, rd, rn, rm, op as u32),
        };
        let mut out = [0u8; 8];
        out[0] = op;
        out[1] = a;
        out[2] = b;
        out[3] = c;
        out[4..8].copy_from_slice(&imm.to_le_bytes());
        out
    }

    /// Decode from the 8-byte format; `None` on an invalid encoding (the
    /// interpreter raises an undefined-instruction exception for those).
    pub fn decode(bytes: [u8; 8]) -> Option<Self> {
        let (op, a, b, c) = (bytes[0], bytes[1], bytes[2], bytes[3]);
        let imm = u32::from_le_bytes(bytes[4..8].try_into().unwrap());
        Some(match op {
            0 => Instr::Halt,
            1 => Instr::MovImm { rd: a, imm },
            2 => Instr::Alu {
                op: AluOp::from_code(imm as u8)?,
                rd: a,
                rn: b,
                rm: c,
            },
            3 => Instr::AluImm {
                op: AluOp::from_code(c)?,
                rd: a,
                rn: b,
                imm,
            },
            4 => Instr::Ldr { rd: a, rn: b, imm },
            5 => Instr::Str { rs: a, rn: b, imm },
            6 => Instr::B {
                cond: Cond::from_code(a)?,
                target: imm,
            },
            7 => Instr::Bl { target: imm },
            8 => Instr::Ret,
            9 => Instr::Svc { imm: imm as u8 },
            10 => Instr::Mrc {
                rd: a,
                reg: MirCp15::from_code(b)?,
            },
            11 => Instr::Mcr {
                reg: MirCp15::from_code(b)?,
                rs: a,
            },
            12 => Instr::MrsCpsr { rd: a },
            13 => Instr::MsrCpsr { rs: a },
            14 => Instr::Wfi,
            15 => Instr::Compute { cycles: imm },
            16 => Instr::VfpOp {
                op: imm as u8,
                rd: a,
                rn: b,
                rm: c,
            },
            _ => return None,
        })
    }
}

/// A label handle issued by [`ProgramBuilder`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Label(usize);

enum Slot {
    Fixed(Instr),
    BranchTo { cond: Cond, label: Label },
    CallTo { label: Label },
}

/// Assembles MIR programs with forward-reference labels.
///
/// ```
/// use mnv_arm::mir::{ProgramBuilder, AluOp, Cond};
/// let mut b = ProgramBuilder::new();
/// let top = b.label();
/// b.mov(0, 10);
/// b.bind(top);
/// b.alu_imm(AluOp::Sub, 0, 0, 1);
/// b.alu_imm(AluOp::Cmp, 0, 0, 0);
/// b.branch(Cond::Ne, top);
/// b.halt();
/// let prog = b.assemble(0x8000);
/// assert_eq!(prog.base.raw(), 0x8000);
/// ```
pub struct ProgramBuilder {
    slots: Vec<Slot>,
    labels: Vec<Option<usize>>,
}

impl Default for ProgramBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ProgramBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        ProgramBuilder {
            slots: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Allocate an unbound label.
    pub fn label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Bind a label to the *next* emitted instruction.
    pub fn bind(&mut self, l: Label) {
        assert!(self.labels[l.0].is_none(), "label bound twice");
        self.labels[l.0] = Some(self.slots.len());
    }

    /// Emit a raw instruction.
    pub fn push(&mut self, i: Instr) -> &mut Self {
        self.slots.push(Slot::Fixed(i));
        self
    }

    /// `rd = imm`.
    pub fn mov(&mut self, rd: u8, imm: u32) -> &mut Self {
        self.push(Instr::MovImm { rd, imm })
    }

    /// Register ALU op.
    pub fn alu(&mut self, op: AluOp, rd: u8, rn: u8, rm: u8) -> &mut Self {
        self.push(Instr::Alu { op, rd, rn, rm })
    }

    /// Immediate ALU op.
    pub fn alu_imm(&mut self, op: AluOp, rd: u8, rn: u8, imm: u32) -> &mut Self {
        self.push(Instr::AluImm { op, rd, rn, imm })
    }

    /// Load word.
    pub fn ldr(&mut self, rd: u8, rn: u8, imm: u32) -> &mut Self {
        self.push(Instr::Ldr { rd, rn, imm })
    }

    /// Store word.
    pub fn str(&mut self, rs: u8, rn: u8, imm: u32) -> &mut Self {
        self.push(Instr::Str { rs, rn, imm })
    }

    /// Conditional branch to a label.
    pub fn branch(&mut self, cond: Cond, label: Label) -> &mut Self {
        self.slots.push(Slot::BranchTo { cond, label });
        self
    }

    /// Call a label (lr-link).
    pub fn call(&mut self, label: Label) -> &mut Self {
        self.slots.push(Slot::CallTo { label });
        self
    }

    /// Return through lr.
    pub fn ret(&mut self) -> &mut Self {
        self.push(Instr::Ret)
    }

    /// Supervisor call.
    pub fn svc(&mut self, imm: u8) -> &mut Self {
        self.push(Instr::Svc { imm })
    }

    /// Abstract compute burst.
    pub fn compute(&mut self, cycles: u32) -> &mut Self {
        self.push(Instr::Compute { cycles })
    }

    /// Halt.
    pub fn halt(&mut self) -> &mut Self {
        self.push(Instr::Halt)
    }

    /// Number of instructions emitted so far.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// True when no instruction has been emitted.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Resolve labels against `base` and produce the encoded program.
    pub fn assemble(&self, base: u64) -> Program {
        let addr_of = |idx: usize| base + idx as u64 * INSTR_SIZE;
        let resolve = |l: Label| -> u32 {
            let idx = self.labels[l.0].expect("unbound label at assemble time");
            addr_of(idx) as u32
        };
        let mut bytes = Vec::with_capacity(self.slots.len() * INSTR_SIZE as usize);
        for slot in &self.slots {
            let ins = match slot {
                Slot::Fixed(i) => *i,
                Slot::BranchTo { cond, label } => Instr::B {
                    cond: *cond,
                    target: resolve(*label),
                },
                Slot::CallTo { label } => Instr::Bl {
                    target: resolve(*label),
                },
            };
            bytes.extend_from_slice(&ins.encode());
        }
        Program {
            base: VirtAddr::new(base),
            bytes,
        }
    }
}

/// An assembled MIR program: bytes to be loaded at `base`.
#[derive(Clone, Debug)]
pub struct Program {
    /// Virtual address the program must be loaded at.
    pub base: VirtAddr,
    /// Encoded instruction stream.
    pub bytes: Vec<u8>,
}

impl Program {
    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Virtual address just past the program.
    pub fn end(&self) -> VirtAddr {
        self.base + self.bytes.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let cases = [
            Instr::Halt,
            Instr::MovImm {
                rd: 3,
                imm: 0xDEAD_BEEF,
            },
            Instr::Alu {
                op: AluOp::Mul,
                rd: 1,
                rn: 2,
                rm: 3,
            },
            Instr::AluImm {
                op: AluOp::Cmp,
                rd: 0,
                rn: 4,
                imm: 77,
            },
            Instr::Ldr {
                rd: 5,
                rn: 6,
                imm: 0x40,
            },
            Instr::Str {
                rs: 7,
                rn: 8,
                imm: 0x44,
            },
            Instr::B {
                cond: Cond::Ne,
                target: 0x8010,
            },
            Instr::Bl { target: 0x9000 },
            Instr::Ret,
            Instr::Svc { imm: 17 },
            Instr::Mrc {
                rd: 1,
                reg: MirCp15::Dacr,
            },
            Instr::Mcr {
                reg: MirCp15::Ttbr0,
                rs: 2,
            },
            Instr::Mrc {
                rd: 4,
                reg: MirCp15::Pmccntr,
            },
            Instr::Mcr {
                reg: MirCp15::Pmcr,
                rs: 5,
            },
            Instr::MrsCpsr { rd: 9 },
            Instr::MsrCpsr { rs: 10 },
            Instr::Wfi,
            Instr::Compute { cycles: 12345 },
            Instr::VfpOp {
                op: 1,
                rd: 0,
                rn: 1,
                rm: 2,
            },
        ];
        for c in cases {
            assert_eq!(Instr::decode(c.encode()), Some(c), "{c:?}");
        }
    }

    #[test]
    fn invalid_opcode_decodes_none() {
        let mut b = [0u8; 8];
        b[0] = 0xFF;
        assert_eq!(Instr::decode(b), None);
        // Invalid ALU sub-code.
        let mut b = Instr::Alu {
            op: AluOp::Add,
            rd: 0,
            rn: 0,
            rm: 0,
        }
        .encode();
        b[4] = 99;
        assert_eq!(Instr::decode(b), None);
    }

    #[test]
    fn builder_resolves_forward_and_backward_labels() {
        let mut b = ProgramBuilder::new();
        let fwd = b.label();
        b.mov(0, 1);
        b.branch(Cond::Al, fwd);
        b.mov(0, 2); // skipped
        b.bind(fwd);
        b.halt();
        let p = b.assemble(0x1000);
        assert_eq!(p.len(), 4 * INSTR_SIZE as usize);
        // Instruction 1 must branch to instruction 3's address.
        let ins = Instr::decode(p.bytes[8..16].try_into().unwrap()).unwrap();
        assert_eq!(
            ins,
            Instr::B {
                cond: Cond::Al,
                target: 0x1000 + 3 * INSTR_SIZE as u32
            }
        );
    }

    #[test]
    #[should_panic(expected = "unbound label")]
    fn unbound_label_panics_at_assembly() {
        let mut b = ProgramBuilder::new();
        let l = b.label();
        b.branch(Cond::Al, l);
        let _ = b.assemble(0);
    }

    #[test]
    fn pl0_readable_cp15_whitelist() {
        assert!(MirCp15::Tpidruro.pl0_readable());
        assert!(!MirCp15::Dacr.pl0_readable());
        assert!(!MirCp15::Sctlr.pl0_readable());
        // PMU registers are dynamically gated, never statically readable.
        assert!(!MirCp15::Pmccntr.pl0_readable());
        assert!(MirCp15::Pmccntr.pmu_reg().is_some());
        assert!(MirCp15::Sctlr.pmu_reg().is_none());
    }

    #[test]
    fn program_end() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.assemble(0x2000);
        assert_eq!(p.end().raw(), 0x2008);
        assert!(!p.is_empty());
    }
}
