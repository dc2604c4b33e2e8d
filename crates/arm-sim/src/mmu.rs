//! ARMv7 short-descriptor MMU: two-stage table walk, domain access control,
//! permission checking and fault generation.
//!
//! This is the mechanism §III-C of the paper builds on. Guest page tables
//! are *real tables in simulated physical memory*, written in the
//! architectural descriptor format by the microkernel's page-table editor,
//! and walked here on TLB misses. Faults carry the same classification the
//! real fault-status register encodes (translation / domain / permission ×
//! level), because the microkernel's abort handler dispatches on it.
//!
//! Two functions make up the unit: [`hit`], the domain and permission
//! check every translation ends with (TLB hit or fresh walk), and [`walk`],
//! the table walk a miss runs. [`crate::machine::Machine::translate`]
//! composes them with the [`crate::tlb::Tlb`]. The MMU holds no state of
//! its own — configuration lives in CP15 (TTBR0, DACR, SCTLR, CONTEXTIDR),
//! cached translations in the TLB. That split mirrors hardware and means a
//! vCPU switch is nothing more than a CP15 reload, exactly the cheap
//! operation the paper relies on.

use mnv_hal::{Domain, PhysAddr, VirtAddr};

use crate::cache::{CacheHierarchy, MemAccessKind};
use crate::cp15::{Cp15, DomainAccess};
use crate::memory::PhysMemory;
use crate::tlb::{Ap, PageKind, TlbEntry};

/// What kind of access is being translated.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AccessKind {
    /// Data read.
    Read,
    /// Data write.
    Write,
    /// Instruction fetch.
    Execute,
}

/// Architectural fault classification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// Descriptor was invalid (unmapped) at the given level.
    Translation,
    /// The DACR field for the descriptor's domain was NoAccess.
    Domain,
    /// AP/XN bits denied the access (only possible in Client domains).
    Permission,
}

/// A translation fault, as delivered to the abort/prefetch-abort handler.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fault {
    /// Classification.
    pub kind: FaultKind,
    /// Walk level at which the fault was detected (1 or 2).
    pub level: u8,
    /// Faulting virtual address (goes to DFAR/IFAR).
    pub va: VirtAddr,
    /// The access that faulted.
    pub access: AccessKind,
    /// Domain of the descriptor (when it got far enough to have one).
    pub domain: Option<Domain>,
}

impl Fault {
    /// Encode the short-descriptor FSR status value the handler would read.
    pub fn fsr(&self) -> u32 {
        match (self.kind, self.level) {
            (FaultKind::Translation, 1) => 0b00101,
            (FaultKind::Translation, _) => 0b00111,
            (FaultKind::Domain, 1) => 0b01001,
            (FaultKind::Domain, _) => 0b01011,
            (FaultKind::Permission, 1) => 0b01101,
            (FaultKind::Permission, _) => 0b01111,
        }
    }
}

// ---------------------------------------------------------------------------
// Descriptor encoding helpers (shared with the kernel's page-table editor).
// ---------------------------------------------------------------------------

/// L1 descriptor type field.
const L1_TYPE_MASK: u32 = 0b11;

const L1_TYPE_TABLE: u32 = 0b01;
const L1_TYPE_SECTION: u32 = 0b10;

/// Encode a first-level *section* descriptor (1 MB mapping).
pub fn l1_section_desc(pa: PhysAddr, domain: Domain, ap: Ap, xn: bool, global: bool) -> u32 {
    debug_assert!(pa.is_section_aligned());
    let (apx, ap10) = encode_ap(ap);
    (pa.raw() as u32 & 0xFFF0_0000)
        | L1_TYPE_SECTION
        | ((domain.0 as u32) << 5)
        | (ap10 << 10)
        | (apx << 15)
        | ((!global as u32) << 17)
        | ((xn as u32) << 4)
}

/// Encode a first-level *page table* descriptor pointing at a 1 KB L2 table.
pub fn l1_table_desc(table_pa: PhysAddr, domain: Domain) -> u32 {
    debug_assert_eq!(table_pa.raw() & 0x3FF, 0, "L2 tables are 1KB aligned");
    (table_pa.raw() as u32 & 0xFFFF_FC00) | L1_TYPE_TABLE | ((domain.0 as u32) << 5)
}

/// Encode a second-level *small page* descriptor (4 KB mapping).
pub fn l2_small_desc(pa: PhysAddr, ap: Ap, xn: bool, global: bool) -> u32 {
    debug_assert!(pa.is_page_aligned());
    let (apx, ap10) = encode_ap(ap);
    (pa.raw() as u32 & 0xFFFF_F000)
        | 0b10
        | (xn as u32)
        | (ap10 << 4)
        | (apx << 9)
        | ((!global as u32) << 11)
}

/// The all-zero "fault" descriptor (both levels).
pub const FAULT_DESC: u32 = 0;

fn encode_ap(ap: Ap) -> (u32, u32) {
    match ap {
        Ap::None => (0, 0b00),
        Ap::PrivOnly => (0, 0b01),
        Ap::PrivRwUserRo => (0, 0b10),
        Ap::Full => (0, 0b11),
        Ap::ReadOnly => (1, 0b11),
    }
}

fn decode_ap(apx: u32, ap10: u32) -> Ap {
    match (apx, ap10) {
        (0, 0b00) => Ap::None,
        (0, 0b01) => Ap::PrivOnly,
        (0, 0b10) => Ap::PrivRwUserRo,
        (0, 0b11) => Ap::Full,
        (1, 0b11) => Ap::ReadOnly,
        // Deprecated/reserved APX=1 rows collapse to priv-only read: treat
        // as PrivOnly, the closest conservative behaviour.
        _ => Ap::PrivOnly,
    }
}

// ---------------------------------------------------------------------------
// The MMU proper.
// ---------------------------------------------------------------------------

/// The TLB-hit routine: the live domain and permission check of a cached
/// entry, then the translated address. It runs on every hit — this is what
/// makes Mini-NOVA's DACR trick (Table II) work without TLB flushes when
/// switching between guest kernel and guest user — and on every freshly
/// walked entry before it is inserted. [`crate::machine::Machine::translate`]
/// inlines it behind the TLB lookup; the decoded-block executor's batch
/// verification and replayed data guard call it on the entries they probe.
#[inline]
pub fn hit(
    entry: &TlbEntry,
    va: VirtAddr,
    access: AccessKind,
    privileged: bool,
    cp15: &Cp15,
) -> Result<PhysAddr, Fault> {
    let allowed = match cp15.domain_access(entry.domain) {
        DomainAccess::NoAccess => return Err(fault(FaultKind::Domain, entry, va, access)),
        // AP ignored; XN still enforced.
        DomainAccess::Manager => !(access == AccessKind::Execute && entry.xn),
        DomainAccess::Client => {
            !(access == AccessKind::Execute && entry.xn)
                && match (entry.ap, privileged, access) {
                    (Ap::None, _, _) => false,
                    (Ap::PrivOnly, p, _) => p,
                    (Ap::PrivRwUserRo, p, AccessKind::Write) => p,
                    (Ap::PrivRwUserRo, _, _) => true,
                    (Ap::Full, _, _) => true,
                    (Ap::ReadOnly, _, AccessKind::Write) => false,
                    (Ap::ReadOnly, _, _) => true,
                }
        }
    };
    if allowed {
        Ok(PhysAddr::new(entry.translate(va)))
    } else {
        Err(fault(FaultKind::Permission, entry, va, access))
    }
}

/// A domain or permission fault on `entry`, at the level its granularity
/// implies (sections are first-level descriptors, small pages second).
#[cold]
fn fault(kind: FaultKind, entry: &TlbEntry, va: VirtAddr, access: AccessKind) -> Fault {
    Fault {
        kind,
        level: if entry.kind == PageKind::Section {
            1
        } else {
            2
        },
        va,
        access,
        domain: Some(entry.domain),
    }
}

/// The hardware table walk: what runs on a TLB miss. Walks the tables
/// TTBR0 names for `va`, charging the descriptor reads through `caches`.
/// Returns the decoded entry (tagged with the current ASID) and the walk's
/// cycle cost, or the level-1 or level-2 translation fault of an invalid
/// descriptor. The caller runs [`hit`] on the entry and inserts it into
/// the TLB.
pub fn walk(
    va: VirtAddr,
    access: AccessKind,
    cp15: &Cp15,
    mem: &PhysMemory,
    caches: &mut CacheHierarchy,
) -> Result<(TlbEntry, u64), Fault> {
    let mut cost = crate::timing::L1_HIT; // walker issue overhead
    let l1_base = PhysAddr::new((cp15.ttbr0 & 0xFFFF_C000) as u64);
    let l1_addr = l1_base + (va.l1_index() as u64) * 4;
    cost += caches.access(l1_addr, MemAccessKind::Read, mem.is_ocm(l1_addr));
    let l1 = mem.read_u32(l1_addr).unwrap_or(FAULT_DESC);

    let entry = match l1 & L1_TYPE_MASK {
        L1_TYPE_SECTION => {
            let domain = Domain(((l1 >> 5) & 0xF) as u8);
            let ap = decode_ap((l1 >> 15) & 1, (l1 >> 10) & 0b11);
            TlbEntry {
                va_base: va.section_base().raw(),
                pa_base: (l1 & 0xFFF0_0000) as u64,
                kind: PageKind::Section,
                asid: cp15.asid(),
                global: (l1 >> 17) & 1 == 0,
                ap,
                domain,
                xn: (l1 >> 4) & 1 == 1,
            }
        }
        L1_TYPE_TABLE => {
            let domain = Domain(((l1 >> 5) & 0xF) as u8);
            let l2_base = PhysAddr::new((l1 & 0xFFFF_FC00) as u64);
            let l2_addr = l2_base + (va.l2_index() as u64) * 4;
            cost += caches.access(l2_addr, MemAccessKind::Read, mem.is_ocm(l2_addr));
            let l2 = mem.read_u32(l2_addr).unwrap_or(FAULT_DESC);
            if l2 & 0b10 == 0 {
                return Err(Fault {
                    kind: FaultKind::Translation,
                    level: 2,
                    va,
                    access,
                    domain: Some(domain),
                });
            }
            let ap = decode_ap((l2 >> 9) & 1, (l2 >> 4) & 0b11);
            TlbEntry {
                va_base: va.page_base().raw(),
                pa_base: (l2 & 0xFFFF_F000) as u64,
                kind: PageKind::Small,
                asid: cp15.asid(),
                global: (l2 >> 11) & 1 == 0,
                ap,
                domain,
                xn: l2 & 1 == 1,
            }
        }
        _ => {
            return Err(Fault {
                kind: FaultKind::Translation,
                level: 1,
                va,
                access,
                domain: None,
            })
        }
    };
    Ok((entry, cost))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cp15::{DomainAccess, SCTLR_C, SCTLR_M};
    use crate::machine::{Machine, MachineConfig};
    use mnv_hal::Asid;

    /// Fixture: memory with an L1 table at 0x4000 mapping
    ///   section VA 0x0010_0000 -> PA 0x0050_0000 (domain 0, Full)
    ///   L2 table for VA 0x0000_0000 at 0x8000:
    ///     page VA 0x0000_1000 -> PA 0x0060_0000 (Full, global)
    ///     page VA 0x0000_2000 -> PA 0x0060_1000 (PrivOnly)
    ///     page VA 0x0000_3000 -> PA 0x0060_2000 (Full, XN, non-global)
    fn fixture() -> Machine {
        let mut m = Machine::new(MachineConfig { tlb_entries: 32 });
        let l1 = PhysAddr::new(0x4000);
        let l2 = PhysAddr::new(0x8000);
        let mem = &mut m.mem;
        mem.write_u32(
            l1 + 4,
            l1_section_desc(
                PhysAddr::new(0x0050_0000),
                Domain::KERNEL,
                Ap::Full,
                false,
                true,
            ),
        )
        .unwrap();
        mem.write_u32(l1 + 0, l1_table_desc(l2, Domain::GUEST_USER))
            .unwrap();
        mem.write_u32(
            l2 + 4,
            l2_small_desc(PhysAddr::new(0x0060_0000), Ap::Full, false, true),
        )
        .unwrap();
        mem.write_u32(
            l2 + 2 * 4,
            l2_small_desc(PhysAddr::new(0x0060_1000), Ap::PrivOnly, false, true),
        )
        .unwrap();
        mem.write_u32(
            l2 + 3 * 4,
            l2_small_desc(PhysAddr::new(0x0060_2000), Ap::Full, true, false),
        )
        .unwrap();

        let cp15 = &mut m.cp15;
        cp15.sctlr = SCTLR_M | SCTLR_C;
        cp15.ttbr0 = 0x4000;
        cp15.set_domain_access(Domain::KERNEL, DomainAccess::Client);
        cp15.set_domain_access(Domain::GUEST_USER, DomainAccess::Client);
        cp15.set_asid(Asid(5));
        m
    }

    /// Translate through the machine; also reports whether it walked.
    fn xlate(
        m: &mut Machine,
        va: u64,
        access: AccessKind,
        privileged: bool,
    ) -> (Result<PhysAddr, Fault>, bool) {
        let walks = m.pt_walks;
        let r = m.translate(VirtAddr::new(va), access, privileged);
        (r, m.pt_walks > walks)
    }

    #[test]
    fn mmu_off_is_flat() {
        let mut m = fixture();
        m.cp15.sctlr = 0;
        let (r, walked) = xlate(&mut m, 0xDEAD_B000, AccessKind::Read, false);
        assert_eq!(r.unwrap().raw(), 0xDEAD_B000);
        assert!(!walked);
        assert_eq!(m.tlb.stats().hits + m.tlb.stats().misses, 0);
    }

    #[test]
    fn section_translation() {
        let mut m = fixture();
        let (r, walked) = xlate(&mut m, 0x0012_3456, AccessKind::Read, true);
        assert_eq!(r.unwrap().raw(), 0x0052_3456);
        assert!(walked);
        // Second access hits the TLB: no walk, zero extra cost.
        let before = m.now();
        let (r2, walked2) = xlate(&mut m, 0x001F_0000, AccessKind::Read, true);
        assert!(r2.is_ok());
        assert!(!walked2);
        assert_eq!(m.now(), before);
    }

    #[test]
    fn small_page_translation() {
        let mut m = fixture();
        let (r, _) = xlate(&mut m, 0x0000_1ABC, AccessKind::Read, false);
        assert_eq!(r.unwrap().raw(), 0x0060_0ABC);
    }

    #[test]
    fn l1_translation_fault_on_unmapped() {
        let mut m = fixture();
        let f = xlate(&mut m, 0x4000_0000, AccessKind::Read, true)
            .0
            .unwrap_err();
        assert_eq!(f.kind, FaultKind::Translation);
        assert_eq!(f.level, 1);
        assert_eq!(f.fsr(), 0b00101);
        assert_eq!(m.last_fault, Some(f));
    }

    #[test]
    fn l2_translation_fault_on_unmapped_page() {
        let mut m = fixture();
        let f = xlate(&mut m, 0x0000_7000, AccessKind::Read, true)
            .0
            .unwrap_err();
        assert_eq!(f.kind, FaultKind::Translation);
        assert_eq!(f.level, 2);
        assert_eq!(f.fsr(), 0b00111);
    }

    #[test]
    fn user_denied_priv_only_page() {
        let mut m = fixture();
        assert!(xlate(&mut m, 0x0000_2000, AccessKind::Read, true).0.is_ok());
        let f = xlate(&mut m, 0x0000_2000, AccessKind::Read, false)
            .0
            .unwrap_err();
        assert_eq!(f.kind, FaultKind::Permission);
        assert_eq!(f.level, 2);
    }

    #[test]
    fn xn_blocks_execution_even_for_manager() {
        let mut m = fixture();
        let f = xlate(&mut m, 0x0000_3000, AccessKind::Execute, true)
            .0
            .unwrap_err();
        assert_eq!(f.kind, FaultKind::Permission);
        // Reads still fine.
        assert!(xlate(&mut m, 0x0000_3000, AccessKind::Read, false)
            .0
            .is_ok());
        // Manager domain: AP ignored, XN still enforced.
        m.cp15
            .set_domain_access(Domain::GUEST_USER, DomainAccess::Manager);
        m.tlb.flush_all();
        let f = xlate(&mut m, 0x0000_3000, AccessKind::Execute, true)
            .0
            .unwrap_err();
        assert_eq!(f.kind, FaultKind::Permission);
    }

    #[test]
    fn domain_no_access_faults_even_on_tlb_hit() {
        // This is the core of the paper's Table II mechanism: flipping the
        // DACR must take effect immediately, *without* a TLB flush.
        let mut m = fixture();
        assert!(xlate(&mut m, 0x0000_1000, AccessKind::Read, false)
            .0
            .is_ok());
        m.cp15
            .set_domain_access(Domain::GUEST_USER, DomainAccess::NoAccess);
        let (r, walked) = xlate(&mut m, 0x0000_1000, AccessKind::Read, false);
        let f = r.unwrap_err();
        assert!(!walked);
        assert_eq!(f.kind, FaultKind::Domain);
        assert_eq!(f.fsr() & 0b1111, 0b1011 & 0b1111);
        // Flip back: access works again, still no flush needed.
        m.cp15
            .set_domain_access(Domain::GUEST_USER, DomainAccess::Client);
        assert!(xlate(&mut m, 0x0000_1000, AccessKind::Read, false)
            .0
            .is_ok());
    }

    #[test]
    fn manager_domain_ignores_ap() {
        let mut m = fixture();
        m.cp15
            .set_domain_access(Domain::GUEST_USER, DomainAccess::Manager);
        // PrivOnly page readable from user mode under a manager domain.
        assert!(xlate(&mut m, 0x0000_2000, AccessKind::Read, false)
            .0
            .is_ok());
    }

    #[test]
    fn write_to_readonly_page_faults() {
        let mut m = fixture();
        let l2 = PhysAddr::new(0x8000);
        m.mem
            .write_u32(
                l2 + 4 * 4,
                l2_small_desc(PhysAddr::new(0x0060_3000), Ap::ReadOnly, false, true),
            )
            .unwrap();
        assert!(xlate(&mut m, 0x0000_4000, AccessKind::Read, false)
            .0
            .is_ok());
        let f = xlate(&mut m, 0x0000_4100, AccessKind::Write, true)
            .0
            .unwrap_err();
        assert_eq!(f.kind, FaultKind::Permission);
    }

    #[test]
    fn non_global_pages_are_asid_tagged() {
        let mut m = fixture();
        assert!(xlate(&mut m, 0x0000_3000, AccessKind::Read, false)
            .0
            .is_ok());
        // Same VA under a different ASID misses the TLB and re-walks.
        m.cp15.set_asid(Asid(9));
        let (r, walked) = xlate(&mut m, 0x0000_3000, AccessKind::Read, false);
        assert!(r.is_ok());
        assert!(walked);
    }

    #[test]
    fn walk_cost_is_charged() {
        let mut m = fixture();
        let before = m.now();
        assert!(xlate(&mut m, 0x0000_1000, AccessKind::Read, false)
            .0
            .is_ok());
        assert!(m.now() > before, "walk must cost cycles");
    }

    #[test]
    fn ap_encode_decode_round_trip() {
        for ap in [
            Ap::None,
            Ap::PrivOnly,
            Ap::PrivRwUserRo,
            Ap::Full,
            Ap::ReadOnly,
        ] {
            let (apx, ap10) = encode_ap(ap);
            assert_eq!(decode_ap(apx, ap10), ap);
        }
    }

    /// The domain and permission check as it ran before the one hit
    /// routine, kept as the differential oracle.
    fn reference_check(
        entry: &TlbEntry,
        va: VirtAddr,
        access: AccessKind,
        privileged: bool,
        cp15: &Cp15,
        level: u8,
    ) -> Result<(), Fault> {
        let perm = Fault {
            kind: FaultKind::Permission,
            level,
            va,
            access,
            domain: Some(entry.domain),
        };
        match cp15.domain_access(entry.domain) {
            DomainAccess::NoAccess => {
                return Err(Fault {
                    kind: FaultKind::Domain,
                    ..perm
                })
            }
            DomainAccess::Manager => {
                if access == AccessKind::Execute && entry.xn {
                    return Err(perm);
                }
                return Ok(());
            }
            DomainAccess::Client => {}
        }
        if access == AccessKind::Execute && entry.xn {
            return Err(perm);
        }
        let allowed = match (entry.ap, privileged, access) {
            (Ap::None, _, _) => false,
            (Ap::PrivOnly, true, _) => true,
            (Ap::PrivOnly, false, _) => false,
            (Ap::PrivRwUserRo, true, _) => true,
            (Ap::PrivRwUserRo, false, AccessKind::Write) => false,
            (Ap::PrivRwUserRo, false, _) => true,
            (Ap::Full, _, _) => true,
            (Ap::ReadOnly, _, AccessKind::Write) => false,
            (Ap::ReadOnly, _, _) => true,
        };
        if allowed {
            Ok(())
        } else {
            Err(perm)
        }
    }

    /// The reference translation: a TLB lookup, the reference check on a
    /// hit, else the walk, the reference check and the insert, then the
    /// walk's charge — the order translation kept before the hit routine
    /// was inlined — with a fault recorded as the machine records it.
    fn reference_translate(
        m: &mut Machine,
        va: VirtAddr,
        access: AccessKind,
        privileged: bool,
    ) -> Result<PhysAddr, Fault> {
        if !m.cp15.mmu_enabled() {
            return Ok(PhysAddr::new(va.raw()));
        }
        let level = |e: &TlbEntry| if e.kind == PageKind::Section { 1 } else { 2 };
        let r = match m.tlb.lookup(va, m.cp15.asid()) {
            Some(e) => reference_check(&e, va, access, privileged, &m.cp15, level(&e))
                .map(|()| PhysAddr::new(e.translate(va))),
            None => walk(va, access, &m.cp15, &m.mem, &mut m.caches).and_then(|(e, cost)| {
                reference_check(&e, va, access, privileged, &m.cp15, level(&e))?;
                m.tlb.insert(e);
                m.charge(cost);
                m.pt_walks += 1;
                Ok(PhysAddr::new(e.translate(va)))
            }),
        };
        if let Err(f) = r {
            m.last_fault = Some(f);
            if access == AccessKind::Execute {
                m.cp15.ifar = va.raw() as u32;
                m.cp15.ifsr = f.fsr();
            } else {
                m.cp15.dfar = va.raw() as u32;
                m.cp15.dfsr = f.fsr();
            }
        }
        r
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Two address spaces over real page tables: each maps a global
    /// kernel section at 0xC000_0000 (domain KERNEL, PrivOnly), a user
    /// section at 0x0010_0000 (GUEST_KERNEL) and an L2 table for the
    /// first megabyte (GUEST_USER) whose sixteen small pages cycle
    /// through every AP, XN and global combination, with every fifth
    /// page unmapped; the second space's sections are non-global and
    /// read-only. Returns the two `(ttbr0, asid)` pairs.
    fn two_spaces(m: &mut Machine) -> [(u32, Asid); 2] {
        let aps = [
            Ap::None,
            Ap::PrivOnly,
            Ap::PrivRwUserRo,
            Ap::Full,
            Ap::ReadOnly,
        ];
        let mut spaces = [(0, Asid(0)); 2];
        for (s, space) in spaces.iter_mut().enumerate() {
            let l1 = PhysAddr::new(0x4000 + 0x4000 * s as u64);
            let l2 = PhysAddr::new(0x1_0000 + 0x400 * s as u64);
            let kernel = l1_section_desc(
                PhysAddr::new(0x0100_0000),
                Domain::KERNEL,
                Ap::PrivOnly,
                false,
                true,
            );
            let user = l1_section_desc(
                PhysAddr::new(0x0200_0000 + 0x10_0000 * s as u64),
                Domain::GUEST_KERNEL,
                if s == 0 { Ap::Full } else { Ap::ReadOnly },
                s == 1,
                s == 0,
            );
            m.mem.write_u32(l1 + 0xC00 * 4, kernel).unwrap();
            m.mem.write_u32(l1 + 4, user).unwrap();
            m.mem
                .write_u32(l1 + 0, l1_table_desc(l2, Domain::GUEST_USER))
                .unwrap();
            for p in 0..16u64 {
                let desc = if p % 5 == 4 {
                    FAULT_DESC
                } else {
                    let pa = PhysAddr::new(0x0300_0000 + 0x10_0000 * s as u64 + p * 0x1000);
                    l2_small_desc(pa, aps[(p + s as u64) as usize % 5], p % 3 == 0, p % 4 == 0)
                };
                m.mem.write_u32(l2 + p * 4, desc).unwrap();
            }
            *space = (l1.raw() as u32, Asid(1 + s as u8));
        }
        spaces
    }

    /// The inlined hit routine in `Machine::translate` against the
    /// reference path, on two machines driven by the same seeded stream:
    /// accesses of every kind at both privileges to small pages, sections,
    /// the global kernel section and unmapped addresses, interleaved with
    /// address-space switches, DACR rewrites (NoAccess, Client, Manager
    /// per domain), TLB maintenance and MMU off/on. A small TLB keeps
    /// walks, evictions and hits all frequent. After every operation the
    /// result, clock, walk count, recorded fault and fault registers, TLB
    /// state and the walk's cache traffic must agree.
    #[test]
    fn translate_matches_reference_path() {
        for seed in 1..=6u64 {
            let mut fast = Machine::new(MachineConfig { tlb_entries: 8 });
            let spaces = two_spaces(&mut fast);
            let mut slow = Machine::new(MachineConfig { tlb_entries: 8 });
            two_spaces(&mut slow);
            for m in [&mut fast, &mut slow] {
                m.cp15.sctlr = SCTLR_M | SCTLR_C;
                (m.cp15.ttbr0, _) = spaces[0];
                m.cp15.set_asid(spaces[0].1);
                m.cp15.dacr = 0x5555_5555; // every domain Client
            }
            let mut rng = seed;
            let mut faults = [0u32; 3];
            for step in 0..3_000 {
                let op = splitmix(&mut rng) % 100;
                let r = splitmix(&mut rng);
                let mut results = None;
                match op {
                    0..=79 | 98..=99 => {
                        let base =
                            [0u64, 0, 0x0010_0000, 0xC000_0000, 0x4000_0000][(r % 5) as usize];
                        let span = if base == 0 { 0x1_1000 } else { 0x10_0000 };
                        let va = VirtAddr::new(base + (r >> 8) % span);
                        let access = [AccessKind::Read, AccessKind::Write, AccessKind::Execute]
                            [((r >> 40) % 3) as usize];
                        let privileged = (r >> 44) & 1 == 0;
                        // A translation with the MMU off: the free identity.
                        let off = op >= 98;
                        for m in [&mut fast, &mut slow] {
                            m.cp15.sctlr ^= SCTLR_M * off as u32;
                        }
                        let (a, b) = (
                            fast.translate(va, access, privileged),
                            reference_translate(&mut slow, va, access, privileged),
                        );
                        for m in [&mut fast, &mut slow] {
                            m.cp15.sctlr ^= SCTLR_M * off as u32;
                        }
                        if let Err(f) = a {
                            faults[f.kind as usize] += 1;
                        }
                        results = Some((a, b));
                    }
                    80..=86 => {
                        let d = Domain((r % 3) as u8);
                        let a = [
                            DomainAccess::NoAccess,
                            DomainAccess::Client,
                            DomainAccess::Manager,
                        ][((r >> 8) % 3) as usize];
                        fast.cp15.set_domain_access(d, a);
                        slow.cp15.set_domain_access(d, a);
                    }
                    87..=92 => {
                        let (ttbr0, asid) = spaces[(r % 2) as usize];
                        for m in [&mut fast, &mut slow] {
                            m.cp15.ttbr0 = ttbr0;
                            m.cp15.set_asid(asid);
                        }
                    }
                    93..=95 => {
                        let va = VirtAddr::new((r >> 8) % 0x1_1000);
                        let asid = fast.cp15.asid();
                        fast.tlb.flush_mva(va, asid);
                        slow.tlb.flush_mva(va, asid);
                    }
                    _ => {
                        let asid = spaces[(r % 2) as usize].1;
                        fast.tlb.flush_asid(asid);
                        slow.tlb.flush_asid(asid);
                    }
                }
                let ctx = format!("seed {seed} step {step} op {op}");
                if let Some((a, b)) = results {
                    assert_eq!(a, b, "{ctx}");
                }
                assert_eq!(fast.now(), slow.now(), "{ctx}");
                assert_eq!(fast.pt_walks, slow.pt_walks, "{ctx}");
                assert_eq!(fast.last_fault, slow.last_fault, "{ctx}");
                let regs = |m: &Machine| (m.cp15.dfar, m.cp15.dfsr, m.cp15.ifar, m.cp15.ifsr);
                assert_eq!(regs(&fast), regs(&slow), "{ctx}");
                assert_eq!(fast.tlb.stats(), slow.tlb.stats(), "{ctx}");
                assert_eq!(fast.tlb.state_digest(), slow.tlb.state_digest(), "{ctx}");
                assert_eq!(
                    fast.caches.l1d.state_digest(),
                    slow.caches.l1d.state_digest(),
                    "{ctx}"
                );
            }
            assert!(
                fast.pt_walks > 100 && fast.tlb.stats().hits > 500,
                "seed {seed}"
            );
            assert!(faults.iter().all(|&n| n > 20), "seed {seed}: {faults:?}");
        }
    }
}
