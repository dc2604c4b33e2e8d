//! CPU core state: general-purpose registers with mode banking, CPSR/SPSRs,
//! and the architectural exception entry/return sequences.
//!
//! §III of the paper: "Whenever an exception occurs, the CPU leaves the user
//! mode and enters the corresponding exception mode, which would later give
//! control back to the SVC mode to handle this exception." The six modes and
//! their banked SP/LR/SPSR sets are modelled faithfully — the microkernel's
//! exception vectors and the world-switch code run against this state.

use mnv_hal::VirtAddr;

use crate::psr::{Mode, Psr};

/// Exception classes of the ARMv7 vector table.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExceptionKind {
    /// Reset (vector 0x00).
    Reset,
    /// Undefined instruction — privileged-instruction traps land here.
    Undefined,
    /// Supervisor call — hypercalls and guest syscalls.
    Svc,
    /// Prefetch abort — instruction-fetch translation/permission faults.
    PrefetchAbort,
    /// Data abort — data-access faults (the page-fault path of §IV-C).
    DataAbort,
    /// Interrupt request.
    Irq,
    /// Fast interrupt request.
    Fiq,
}

impl ExceptionKind {
    /// Vector table offset.
    pub fn vector_offset(self) -> u64 {
        match self {
            ExceptionKind::Reset => 0x00,
            ExceptionKind::Undefined => 0x04,
            ExceptionKind::Svc => 0x08,
            ExceptionKind::PrefetchAbort => 0x0C,
            ExceptionKind::DataAbort => 0x10,
            ExceptionKind::Irq => 0x18,
            ExceptionKind::Fiq => 0x1C,
        }
    }

    /// The mode entered when this exception is taken.
    pub fn target_mode(self) -> Mode {
        match self {
            ExceptionKind::Reset | ExceptionKind::Svc => Mode::Svc,
            ExceptionKind::Undefined => Mode::Und,
            ExceptionKind::PrefetchAbort | ExceptionKind::DataAbort => Mode::Abt,
            ExceptionKind::Irq => Mode::Irq,
            ExceptionKind::Fiq => Mode::Fiq,
        }
    }
}

/// Events the execution loop reports upward after a step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CpuEvent {
    /// Normal instruction retired.
    Retired,
    /// A `Halt` instruction executed.
    Halted,
    /// Waiting for interrupt.
    Wfi,
    /// An exception was taken; the CPU is now at the vector, in
    /// `kind.target_mode()`.
    Exception(ExceptionKind),
}

const NUM_BANKS: usize = 6;
const NUM_SPSRS: usize = 5;

/// The register file: r0–r12 shared (FIQ bank of r8–r12 modelled too),
/// SP/LR banked per mode, PC, CPSR, and the five SPSRs.
#[derive(Clone, Debug)]
pub struct Cpu {
    /// Low registers r0–r7 (never banked).
    regs: [u32; 13],
    /// FIQ's private r8–r12 bank.
    fiq_regs: [u32; 5],
    /// Banked stack pointers (index by `Mode::bank`).
    sp: [u32; NUM_BANKS],
    /// Banked link registers.
    lr: [u32; NUM_BANKS],
    /// Program counter.
    pub pc: u32,
    /// Current program status register.
    pub cpsr: Psr,
    /// Saved PSRs for the exception modes.
    spsr: [Psr; NUM_SPSRS],
    /// Count of exceptions taken, per class (diagnostics).
    pub exception_counts: [u64; 7],
}

impl Default for Cpu {
    fn default() -> Self {
        Self::new()
    }
}

impl Cpu {
    /// A core in its post-reset state (SVC mode, interrupts masked, PC 0).
    pub fn new() -> Self {
        Cpu {
            regs: [0; 13],
            fiq_regs: [0; 5],
            sp: [0; NUM_BANKS],
            lr: [0; NUM_BANKS],
            pc: 0,
            cpsr: Psr::reset(),
            spsr: [Psr::reset(); NUM_SPSRS],
            exception_counts: [0; 7],
        }
    }

    /// Read general register `r` (0–15) as seen from the current mode.
    pub fn reg(&self, r: u8) -> u32 {
        match r {
            0..=7 => self.regs[r as usize],
            8..=12 => {
                if self.cpsr.mode == Mode::Fiq {
                    self.fiq_regs[r as usize - 8]
                } else {
                    self.regs[r as usize]
                }
            }
            13 => self.sp[self.cpsr.mode.bank()],
            14 => self.lr[self.cpsr.mode.bank()],
            15 => self.pc,
            _ => panic!("register r{r} out of range"),
        }
    }

    /// Direct read of an unbanked low register (r0–r7, identical in every
    /// mode). The decoded-block executor's specialized ALU arms use these
    /// to skip the banking dispatch; callers must guarantee `r < 8`.
    #[inline(always)]
    pub fn low_reg(&self, r: u8) -> u32 {
        debug_assert!(r < 8);
        self.regs[(r & 7) as usize]
    }

    /// Direct write of an unbanked low register; see [`Cpu::low_reg`].
    #[inline(always)]
    pub fn set_low_reg(&mut self, r: u8, v: u32) {
        debug_assert!(r < 8);
        self.regs[(r & 7) as usize] = v;
    }

    /// Write general register `r` as seen from the current mode.
    pub fn set_reg(&mut self, r: u8, v: u32) {
        match r {
            0..=7 => self.regs[r as usize] = v,
            8..=12 => {
                if self.cpsr.mode == Mode::Fiq {
                    self.fiq_regs[r as usize - 8] = v;
                } else {
                    self.regs[r as usize] = v;
                }
            }
            13 => self.sp[self.cpsr.mode.bank()] = v,
            14 => self.lr[self.cpsr.mode.bank()] = v,
            15 => self.pc = v,
            _ => panic!("register r{r} out of range"),
        }
    }

    /// Read the *user-mode* view of a register regardless of current mode
    /// (what the kernel saves into a vCPU frame).
    pub fn user_reg(&self, r: u8) -> u32 {
        match r {
            0..=12 => self.regs[r as usize],
            13 => self.sp[Mode::Usr.bank()],
            14 => self.lr[Mode::Usr.bank()],
            15 => self.pc,
            _ => panic!("register r{r} out of range"),
        }
    }

    /// Write the user-mode view of a register.
    pub fn set_user_reg(&mut self, r: u8, v: u32) {
        match r {
            0..=12 => self.regs[r as usize] = v,
            13 => self.sp[Mode::Usr.bank()] = v,
            14 => self.lr[Mode::Usr.bank()] = v,
            15 => self.pc = v,
            _ => panic!("register r{r} out of range"),
        }
    }

    /// SPSR of the current mode (panics outside exception modes).
    pub fn spsr(&self) -> Psr {
        self.spsr[self.cpsr.mode.spsr_index().expect("mode has no SPSR")]
    }

    /// Set the SPSR of the current mode.
    pub fn set_spsr(&mut self, p: Psr) {
        let i = self.cpsr.mode.spsr_index().expect("mode has no SPSR");
        self.spsr[i] = p;
    }

    /// Architectural exception entry: bank switch, SPSR save, LR = return
    /// address, IRQ mask, jump to the vector. `return_pc` is the address the
    /// handler should eventually resume at.
    pub fn take_exception(&mut self, kind: ExceptionKind, return_pc: u32, vbar: u32) {
        let target = kind.target_mode();
        let old = self.cpsr;
        self.cpsr.mode = target;
        self.cpsr.irq_masked = true;
        if kind == ExceptionKind::Fiq {
            self.cpsr.fiq_masked = true;
        }
        let i = target.spsr_index().expect("exception modes have SPSRs");
        self.spsr[i] = old;
        self.lr[target.bank()] = return_pc;
        self.pc = vbar.wrapping_add(kind.vector_offset() as u32);
        self.exception_counts[exception_index(kind)] += 1;
    }

    /// Architectural exception return: CPSR = SPSR, PC = `return_pc`
    /// (normally LR of the exception mode, possibly adjusted by the kernel).
    pub fn exception_return(&mut self, return_pc: u32) {
        let spsr = self.spsr();
        self.cpsr = spsr;
        self.pc = return_pc;
    }

    /// Enter a specific mode directly (used by the kernel's world switch,
    /// which runs at PL1 and may write the CPSR).
    pub fn set_mode(&mut self, mode: Mode) {
        assert!(
            self.cpsr.mode.is_privileged(),
            "mode change attempted from USR"
        );
        self.cpsr.mode = mode;
    }
}

fn exception_index(kind: ExceptionKind) -> usize {
    match kind {
        ExceptionKind::Reset => 0,
        ExceptionKind::Undefined => 1,
        ExceptionKind::Svc => 2,
        ExceptionKind::PrefetchAbort => 3,
        ExceptionKind::DataAbort => 4,
        ExceptionKind::Irq => 5,
        ExceptionKind::Fiq => 6,
    }
}

/// Convenience for tests: number of exceptions of `kind` taken.
pub fn exceptions_taken(cpu: &Cpu, kind: ExceptionKind) -> u64 {
    cpu.exception_counts[exception_index(kind)]
}

/// Helper bundling PC as a virtual address.
pub fn pc_va(cpu: &Cpu) -> VirtAddr {
    VirtAddr::new(cpu.pc as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn banked_sp_lr_per_mode() {
        let mut cpu = Cpu::new();
        cpu.set_reg(13, 0x1000); // SVC sp
        cpu.cpsr.mode = Mode::Irq;
        cpu.set_reg(13, 0x2000);
        assert_eq!(cpu.reg(13), 0x2000);
        cpu.cpsr.mode = Mode::Svc;
        assert_eq!(cpu.reg(13), 0x1000);
        // USR and SYS share a bank.
        cpu.cpsr.mode = Mode::Usr;
        cpu.set_reg(14, 0xAAAA);
        cpu.cpsr.mode = Mode::Svc; // privileged, can switch to SYS
        cpu.set_mode(Mode::Sys);
        assert_eq!(cpu.reg(14), 0xAAAA);
    }

    #[test]
    fn fiq_shadow_registers() {
        let mut cpu = Cpu::new();
        cpu.set_reg(8, 0x11);
        cpu.cpsr.mode = Mode::Fiq;
        assert_eq!(cpu.reg(8), 0, "FIQ sees its own r8");
        cpu.set_reg(8, 0x22);
        cpu.cpsr.mode = Mode::Svc;
        assert_eq!(cpu.reg(8), 0x11);
        // r0-r7 are shared with FIQ.
        cpu.set_reg(0, 7);
        cpu.cpsr.mode = Mode::Fiq;
        assert_eq!(cpu.reg(0), 7);
    }

    #[test]
    fn exception_entry_sequence() {
        let mut cpu = Cpu::new();
        cpu.cpsr = Psr::user();
        cpu.pc = 0x8000;
        cpu.take_exception(ExceptionKind::Svc, 0x8008, 0xFFFF_0000);
        assert_eq!(cpu.cpsr.mode, Mode::Svc);
        assert!(cpu.cpsr.irq_masked);
        assert_eq!(cpu.pc, 0xFFFF_0008);
        assert_eq!(cpu.reg(14), 0x8008, "LR_svc holds the return address");
        assert_eq!(cpu.spsr().mode, Mode::Usr);
        assert_eq!(exceptions_taken(&cpu, ExceptionKind::Svc), 1);
    }

    #[test]
    fn exception_return_restores_user_state() {
        let mut cpu = Cpu::new();
        cpu.cpsr = Psr::user();
        cpu.pc = 0x8000;
        cpu.take_exception(ExceptionKind::Irq, 0x8000, 0);
        assert_eq!(cpu.cpsr.mode, Mode::Irq);
        cpu.exception_return(0x8000);
        assert_eq!(cpu.cpsr.mode, Mode::Usr);
        assert!(!cpu.cpsr.irq_masked);
        assert_eq!(cpu.pc, 0x8000);
    }

    #[test]
    fn fiq_masks_both() {
        let mut cpu = Cpu::new();
        cpu.cpsr = Psr::user();
        cpu.take_exception(ExceptionKind::Fiq, 0x100, 0);
        assert!(cpu.cpsr.irq_masked && cpu.cpsr.fiq_masked);
        assert_eq!(cpu.cpsr.mode, Mode::Fiq);
    }

    #[test]
    fn nested_exceptions_use_distinct_spsrs() {
        let mut cpu = Cpu::new();
        cpu.cpsr = Psr::user();
        cpu.take_exception(ExceptionKind::Svc, 0x10, 0);
        // From SVC, a data abort nests into ABT mode.
        cpu.take_exception(ExceptionKind::DataAbort, 0x20, 0);
        assert_eq!(cpu.cpsr.mode, Mode::Abt);
        assert_eq!(cpu.spsr().mode, Mode::Svc);
        cpu.exception_return(0x10);
        assert_eq!(cpu.cpsr.mode, Mode::Svc);
        assert_eq!(cpu.spsr().mode, Mode::Usr);
    }

    #[test]
    fn user_reg_view_from_privileged_mode() {
        let mut cpu = Cpu::new();
        cpu.cpsr = Psr::user();
        cpu.set_reg(13, 0xCAFE);
        cpu.take_exception(ExceptionKind::Svc, 0, 0);
        assert_eq!(cpu.user_reg(13), 0xCAFE);
        cpu.set_user_reg(13, 0xBEEF);
        cpu.exception_return(0);
        assert_eq!(cpu.reg(13), 0xBEEF);
    }

    #[test]
    fn vector_offsets() {
        assert_eq!(ExceptionKind::Undefined.vector_offset(), 0x4);
        assert_eq!(ExceptionKind::DataAbort.vector_offset(), 0x10);
        assert_eq!(ExceptionKind::Irq.vector_offset(), 0x18);
    }

    #[test]
    #[should_panic(expected = "mode change attempted from USR")]
    fn user_cannot_switch_mode() {
        let mut cpu = Cpu::new();
        cpu.cpsr = Psr::user();
        cpu.set_mode(Mode::Svc);
    }
}
