//! CP15 system-control coprocessor register file.
//!
//! Holds the privileged state Table I of the paper puts in the vCPU's
//! active-switch set: translation table base (TTBR0), domain access control
//! (DACR), context/ASID (CONTEXTIDR), control register (SCTLR), coprocessor
//! access control (CPACR, which gates the VFP and drives lazy switching) and
//! the vector base (VBAR). Reads and writes from PL0 are refused by the CPU
//! front-end (undefined-instruction trap) — that refusal is what lets
//! Mini-NOVA trap and emulate guest accesses.

use mnv_hal::Asid;

/// Named CP15 registers modelled by the simulator.
///
/// The discriminants follow (CRn, opc1, CRm, opc2) loosely but we name them
/// instead of encoding them — the MIR instruction set addresses registers by
/// this enum.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Cp15Reg {
    /// SCTLR — system control: MMU enable (bit 0), D-cache (2), I-cache (12),
    /// high vectors (13).
    Sctlr,
    /// TTBR0 — translation table base 0.
    Ttbr0,
    /// TTBCR — translation table base control (N, kept 0 in Mini-NOVA).
    Ttbcr,
    /// DACR — domain access control register, 16 × 2-bit fields.
    Dacr,
    /// CONTEXTIDR — context ID; low 8 bits are the ASID.
    Contextidr,
    /// CPACR — coprocessor access control; gates VFP (cp10/cp11).
    Cpacr,
    /// VBAR — vector base address.
    Vbar,
    /// DFAR — data fault address (read by the abort handler).
    Dfar,
    /// DFSR — data fault status.
    Dfsr,
    /// IFAR — instruction fault address.
    Ifar,
    /// IFSR — instruction fault status.
    Ifsr,
    /// TPIDRURO — user read-only thread ID (handy for per-VM scratch).
    Tpidruro,
}

/// Domain access field values (pairs of bits in the DACR).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DomainAccess {
    /// 0b00 — any access generates a domain fault.
    NoAccess,
    /// 0b01 — accesses are checked against the descriptor AP bits.
    Client,
    /// 0b11 — accesses are never checked (AP ignored).
    Manager,
}

impl DomainAccess {
    /// Decode a 2-bit field (0b10 is reserved and reads as NoAccess here).
    #[inline]
    pub fn from_bits(b: u32) -> Self {
        match b & 0b11 {
            0b01 => DomainAccess::Client,
            0b11 => DomainAccess::Manager,
            _ => DomainAccess::NoAccess,
        }
    }

    /// Encode to the 2-bit field.
    pub fn bits(self) -> u32 {
        match self {
            DomainAccess::NoAccess => 0b00,
            DomainAccess::Client => 0b01,
            DomainAccess::Manager => 0b11,
        }
    }
}

/// The CP15 register file.
#[derive(Clone, Debug)]
pub struct Cp15 {
    /// System control register.
    pub sctlr: u32,
    /// Translation table base 0 (physical address of the L1 table).
    pub ttbr0: u32,
    /// Translation table control.
    pub ttbcr: u32,
    /// Domain access control (raw 32-bit, 16 × 2-bit fields).
    pub dacr: u32,
    /// Context ID register (ASID in bits \[7:0\]).
    pub contextidr: u32,
    /// Coprocessor access control.
    pub cpacr: u32,
    /// Vector base.
    pub vbar: u32,
    /// Data fault address register.
    pub dfar: u32,
    /// Data fault status register.
    pub dfsr: u32,
    /// Instruction fault address register.
    pub ifar: u32,
    /// Instruction fault status register.
    pub ifsr: u32,
    /// User read-only thread register.
    pub tpidruro: u32,
}

/// SCTLR bit: MMU enable.
pub const SCTLR_M: u32 = 1 << 0;
/// SCTLR bit: data cache enable.
pub const SCTLR_C: u32 = 1 << 2;
/// SCTLR bit: instruction cache enable.
pub const SCTLR_I: u32 = 1 << 12;

/// CPACR field granting PL0+PL1 access to cp10/cp11 (the VFP).
pub const CPACR_VFP_FULL: u32 = 0b1111 << 20;

impl Default for Cp15 {
    fn default() -> Self {
        Self::reset()
    }
}

impl Cp15 {
    /// Architectural-reset values: MMU and caches off, VFP access denied.
    pub fn reset() -> Self {
        Cp15 {
            sctlr: 0,
            ttbr0: 0,
            ttbcr: 0,
            dacr: 0,
            contextidr: 0,
            cpacr: 0,
            vbar: 0,
            dfar: 0,
            dfsr: 0,
            ifar: 0,
            ifsr: 0,
            tpidruro: 0,
        }
    }

    /// Read a register by name.
    pub fn read(&self, r: Cp15Reg) -> u32 {
        match r {
            Cp15Reg::Sctlr => self.sctlr,
            Cp15Reg::Ttbr0 => self.ttbr0,
            Cp15Reg::Ttbcr => self.ttbcr,
            Cp15Reg::Dacr => self.dacr,
            Cp15Reg::Contextidr => self.contextidr,
            Cp15Reg::Cpacr => self.cpacr,
            Cp15Reg::Vbar => self.vbar,
            Cp15Reg::Dfar => self.dfar,
            Cp15Reg::Dfsr => self.dfsr,
            Cp15Reg::Ifar => self.ifar,
            Cp15Reg::Ifsr => self.ifsr,
            Cp15Reg::Tpidruro => self.tpidruro,
        }
    }

    /// Write a register by name.
    pub fn write(&mut self, r: Cp15Reg, v: u32) {
        match r {
            Cp15Reg::Sctlr => self.sctlr = v,
            Cp15Reg::Ttbr0 => self.ttbr0 = v,
            Cp15Reg::Ttbcr => self.ttbcr = v,
            Cp15Reg::Dacr => self.dacr = v,
            Cp15Reg::Contextidr => self.contextidr = v,
            Cp15Reg::Cpacr => self.cpacr = v,
            Cp15Reg::Vbar => self.vbar = v,
            Cp15Reg::Dfar => self.dfar = v,
            Cp15Reg::Dfsr => self.dfsr = v,
            Cp15Reg::Ifar => self.ifar = v,
            Cp15Reg::Ifsr => self.ifsr = v,
            Cp15Reg::Tpidruro => self.tpidruro = v,
        }
    }

    /// MMU enabled?
    #[inline]
    pub fn mmu_enabled(&self) -> bool {
        self.sctlr & SCTLR_M != 0
    }

    /// Caches enabled? (We fold I and C together for the timing model.)
    pub fn caches_enabled(&self) -> bool {
        self.sctlr & SCTLR_C != 0
    }

    /// The current ASID from CONTEXTIDR\[7:0\].
    #[inline]
    pub fn asid(&self) -> Asid {
        Asid((self.contextidr & 0xFF) as u8)
    }

    /// Set the ASID, preserving the PROCID field.
    pub fn set_asid(&mut self, asid: Asid) {
        self.contextidr = (self.contextidr & !0xFF) | asid.0 as u32;
    }

    /// Access field for MMU domain `d` from the DACR.
    #[inline]
    pub fn domain_access(&self, d: mnv_hal::Domain) -> DomainAccess {
        DomainAccess::from_bits(self.dacr >> (2 * d.0 as u32))
    }

    /// Set the access field for MMU domain `d` in the DACR.
    pub fn set_domain_access(&mut self, d: mnv_hal::Domain, a: DomainAccess) {
        let shift = 2 * d.0 as u32;
        self.dacr = (self.dacr & !(0b11 << shift)) | (a.bits() << shift);
    }

    /// VFP usable at the moment? (CPACR grants cp10/cp11.)
    pub fn vfp_enabled(&self) -> bool {
        self.cpacr & CPACR_VFP_FULL == CPACR_VFP_FULL
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnv_hal::Domain;

    #[test]
    fn reset_state_is_bare() {
        let c = Cp15::reset();
        assert!(!c.mmu_enabled());
        assert!(!c.caches_enabled());
        assert!(!c.vfp_enabled());
        assert_eq!(c.asid(), Asid(0));
    }

    #[test]
    fn read_write_all_registers() {
        let mut c = Cp15::reset();
        let regs = [
            Cp15Reg::Sctlr,
            Cp15Reg::Ttbr0,
            Cp15Reg::Ttbcr,
            Cp15Reg::Dacr,
            Cp15Reg::Contextidr,
            Cp15Reg::Cpacr,
            Cp15Reg::Vbar,
            Cp15Reg::Dfar,
            Cp15Reg::Dfsr,
            Cp15Reg::Ifar,
            Cp15Reg::Ifsr,
            Cp15Reg::Tpidruro,
        ];
        for (i, r) in regs.iter().enumerate() {
            c.write(*r, 0x100 + i as u32);
        }
        for (i, r) in regs.iter().enumerate() {
            assert_eq!(c.read(*r), 0x100 + i as u32, "{r:?}");
        }
    }

    #[test]
    fn asid_field_isolated_from_procid() {
        let mut c = Cp15::reset();
        c.contextidr = 0xABCD_EF00;
        c.set_asid(Asid(0x42));
        assert_eq!(c.asid(), Asid(0x42));
        assert_eq!(c.contextidr & !0xFF, 0xABCD_EF00);
    }

    #[test]
    fn dacr_fields() {
        let mut c = Cp15::reset();
        c.set_domain_access(Domain::KERNEL, DomainAccess::Client);
        c.set_domain_access(Domain::GUEST_KERNEL, DomainAccess::NoAccess);
        c.set_domain_access(Domain(15), DomainAccess::Manager);
        assert_eq!(c.domain_access(Domain::KERNEL), DomainAccess::Client);
        assert_eq!(
            c.domain_access(Domain::GUEST_KERNEL),
            DomainAccess::NoAccess
        );
        assert_eq!(c.domain_access(Domain(15)), DomainAccess::Manager);
        // Field encodings round-trip.
        for a in [
            DomainAccess::NoAccess,
            DomainAccess::Client,
            DomainAccess::Manager,
        ] {
            assert_eq!(DomainAccess::from_bits(a.bits()), a);
        }
        // Reserved encoding decodes to NoAccess.
        assert_eq!(DomainAccess::from_bits(0b10), DomainAccess::NoAccess);
    }

    #[test]
    fn enables() {
        let mut c = Cp15::reset();
        c.sctlr = SCTLR_M | SCTLR_C | SCTLR_I;
        assert!(c.mmu_enabled() && c.caches_enabled());
        c.cpacr = CPACR_VFP_FULL;
        assert!(c.vfp_enabled());
    }
}
