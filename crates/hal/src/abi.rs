//! The Mini-NOVA hypercall ABI — the guest↔hypervisor vocabulary.
//!
//! §V-B of the paper: "A total number of 25 hypercalls are provided to
//! paravirtualized operating systems", of which the uC/OS-II port uses 17
//! (§V-A: "Mini-NOVA provides dedicated hypercalls (a total number of 17)
//! for the guest uCOS-II"). The numbers below define the complete provided
//! set; the paravirtualized port's patch marks the subset it uses, and both
//! counts are asserted by tests.
//!
//! This reproduction adds one call beyond the paper's 25: a read-only
//! [`Hypercall::VmStats`] through which a guest can query its own
//! performance accounting (cycles, instructions, cache/TLB refills charged
//! to it by the kernel's per-VM PMU attribution — see the `vm_stats`
//! selector module).
//!
//! Calling convention (mirrors the SVC path on the real system): the guest
//! executes `SVC #nr` with up to four arguments in r0–r3; the result comes
//! back in r0, with r1 carrying an error code when r0 is the failure
//! sentinel.

use core::fmt;

/// Hypercall numbers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum Hypercall {
    /// Voluntarily yield the rest of the time quantum.
    Yield = 0,
    /// Query VM identity and layout: returns VM id; a1 selects field
    /// (0 = id, 1 = data-section base, 2 = data-section size).
    VmInfo = 1,
    /// Clean+invalidate the whole cache hierarchy (privileged maintenance).
    CacheFlushAll = 2,
    /// Invalidate a single line by virtual address (a0 = VA).
    CacheFlushLine = 3,
    /// Invalidate the guest's TLB entries (its ASID only).
    TlbFlush = 4,
    /// Invalidate one TLB entry by virtual address (a0 = VA).
    TlbFlushMva = 5,
    /// Enable a virtual IRQ in the VM's vGIC list (a0 = IRQ number).
    IrqEnable = 6,
    /// Disable a virtual IRQ (a0 = IRQ number).
    IrqDisable = 7,
    /// Signal end-of-interrupt for a vIRQ (a0 = IRQ number).
    IrqEoi = 8,
    /// Register the VM's IRQ entry point (a0 = entry VA) in the vGIC.
    IrqSetEntry = 9,
    /// Program the VM's virtual timer for a periodic tick (a0 = period in
    /// microseconds).
    TimerProgram = 10,
    /// Stop the virtual timer.
    TimerStop = 11,
    /// Insert a mapping into the guest's page table (a0 = VA, a1 = offset
    /// into the VM's memory allocation, a2 = flags).
    MapInsert = 12,
    /// Remove a mapping (a0 = VA).
    MapRemove = 13,
    /// Create a second-level guest page table covering a0's 1 MB section.
    PtCreate = 14,
    /// Read an emulated privileged register (a0 = register id).
    RegRead = 15,
    /// Write an emulated privileged register (a0 = id, a1 = value).
    RegWrite = 16,
    /// Request a hardware task (a0 = task id, a1 = VA to map the task
    /// interface at, a2 = VA of the hardware-task data section). The
    /// Fig. 7 hypercall.
    HwTaskRequest = 17,
    /// Release a hardware task back to the manager (a0 = task id).
    HwTaskRelease = 18,
    /// Query a hardware task's state (a0 = task id): returns a
    /// [`HwTaskState`] discriminant.
    HwTaskQuery = 19,
    /// Poll the PCAP for completion of the VM's pending reconfiguration.
    PcapPoll = 20,
    /// Send an inter-VM message (a0 = destination VM, a1..a3 payload).
    IpcSend = 21,
    /// Receive a pending inter-VM message; returns sender VM id or the
    /// empty sentinel, payload via the VM's message buffer.
    IpcRecv = 22,
    /// Write a byte to the supervised shared UART (a0 = byte).
    ConsoleWrite = 23,
    /// Read a block from the supervised shared SD card (a0 = block number,
    /// a1 = destination VA).
    SdRead = 24,
    /// Read one field of the caller's performance accounting (a0 = a
    /// [`vm_stats`] selector). Read-only: a guest can observe what the
    /// kernel charged it, never another VM's counters. A reproduction
    /// extension beyond the paper's 25 calls.
    VmStats = 25,
    /// Kick a shared-memory descriptor ring (a0 = ring base VA): the
    /// Hardware Task Manager consumes every descriptor the guest posted
    /// since the last kick in one invocation, and the whole drained batch
    /// completes with a single coalesced completion vIRQ. See the [`ring`]
    /// module for the shared-page layout. A reproduction extension in the
    /// spirit of Virtio-FPGA's paravirtual queues.
    RingKick = 26,
}

/// Total number of hypercalls provided — the paper's 25 plus the
/// reproduction's read-only [`Hypercall::VmStats`] and the paravirtual
/// queue kick [`Hypercall::RingKick`].
pub const HYPERCALL_COUNT: usize = 27;

impl Hypercall {
    /// All hypercalls in numeric order.
    pub const ALL: [Hypercall; HYPERCALL_COUNT] = [
        Hypercall::Yield,
        Hypercall::VmInfo,
        Hypercall::CacheFlushAll,
        Hypercall::CacheFlushLine,
        Hypercall::TlbFlush,
        Hypercall::TlbFlushMva,
        Hypercall::IrqEnable,
        Hypercall::IrqDisable,
        Hypercall::IrqEoi,
        Hypercall::IrqSetEntry,
        Hypercall::TimerProgram,
        Hypercall::TimerStop,
        Hypercall::MapInsert,
        Hypercall::MapRemove,
        Hypercall::PtCreate,
        Hypercall::RegRead,
        Hypercall::RegWrite,
        Hypercall::HwTaskRequest,
        Hypercall::HwTaskRelease,
        Hypercall::HwTaskQuery,
        Hypercall::PcapPoll,
        Hypercall::IpcSend,
        Hypercall::IpcRecv,
        Hypercall::ConsoleWrite,
        Hypercall::SdRead,
        Hypercall::VmStats,
        Hypercall::RingKick,
    ];

    /// Decode from the SVC immediate.
    pub fn from_nr(nr: u8) -> Option<Self> {
        Self::ALL.get(nr as usize).copied()
    }

    /// The SVC immediate encoding.
    pub fn nr(self) -> u8 {
        self as u8
    }
}

impl fmt::Display for Hypercall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hc:{self:?}")
    }
}

/// A hypercall invocation: number + the four argument registers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HypercallArgs {
    /// Which call.
    pub nr: Hypercall,
    /// r0.
    pub a0: u32,
    /// r1.
    pub a1: u32,
    /// r2.
    pub a2: u32,
    /// r3.
    pub a3: u32,
}

impl HypercallArgs {
    /// Build with all arguments zero.
    pub fn new(nr: Hypercall) -> Self {
        HypercallArgs {
            nr,
            a0: 0,
            a1: 0,
            a2: 0,
            a3: 0,
        }
    }

    /// Builder: set a0.
    pub fn a0(mut self, v: u32) -> Self {
        self.a0 = v;
        self
    }

    /// Builder: set a1.
    pub fn a1(mut self, v: u32) -> Self {
        self.a1 = v;
        self
    }

    /// Builder: set a2.
    pub fn a2(mut self, v: u32) -> Self {
        self.a2 = v;
        self
    }

    /// Builder: set a3.
    pub fn a3(mut self, v: u32) -> Self {
        self.a3 = v;
        self
    }
}

/// Hypercall error codes (returned in r1 with the failure sentinel in r0,
/// and in a rejected ring descriptor's status bits 15:8). The wire value
/// is the discriminant: `e as u32`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum HcError {
    /// The call number is outside the provided set.
    BadCall = 1,
    /// An argument was invalid (address, id, flag…).
    BadArg = 2,
    /// The caller lacks the capability for this operation.
    Denied = 3,
    /// The referenced object does not exist.
    NotFound = 4,
    /// Resource temporarily unavailable — the Busy status of Fig. 7
    /// stage 2 ("if no idle PRR is available, the manager service would
    /// return to the applicant guest OS with a Busy status").
    Busy = 5,
    /// Out of kernel resources (ASIDs, IRQ lines, table slots…).
    NoResource = 6,
}

/// Status values returned by [`Hypercall::HwTaskRequest`] (§IV-E stage 6:
/// "If a PCAP reconfiguration is made, a reconfig. flag is returned,
/// otherwise a success flag is returned").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum HwTaskStatus {
    /// Task already resident: ready for use immediately.
    Success = 0,
    /// Task dispatched; a PCAP reconfiguration is in flight — poll or take
    /// the completion IRQ before use.
    Reconfiguring = 1,
}

impl HwTaskStatus {
    /// Decode from a hypercall return value.
    pub fn from_u32(v: u32) -> Option<Self> {
        match v {
            0 => Some(HwTaskStatus::Success),
            1 => Some(HwTaskStatus::Reconfiguring),
            _ => None,
        }
    }
}

/// Field layout of the [`Hypercall::HwTaskRequest`] result word: the
/// [`HwTaskStatus`] in bits 7:0, the dispatched PRR in bits 15:8, the
/// allocated PL IRQ line index in bits 23:16 and the degraded flag in
/// bit 24 (set when the kernel serves the task in software because no
/// healthy fabric region is available).
pub mod hw_task_result {
    /// The dispatch is served by the kernel's software fallback.
    pub const DEGRADED: u32 = 1 << 24;
    /// PRR field value when no fabric region backs the dispatch.
    pub const NO_PRR: u32 = 0xFF;
    /// Line field value when no PL IRQ line is allocated.
    pub const NO_LINE: u32 = 0xFF;
}

/// Consistency states of a dispatched hardware task, kept in the reserved
/// structure at the head of the hardware-task data section (Fig. 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u32)]
pub enum HwTaskState {
    /// Never dispatched to this VM.
    Unknown = 0,
    /// Dispatched and exclusively owned by this VM; interface mapped.
    Consistent = 1,
    /// Was owned, but reclaimed for another VM: register contents were
    /// saved to the data section and the interface was demapped.
    Inconsistent = 2,
}

impl HwTaskState {
    /// Decode from a hypercall return value.
    pub fn from_u32(v: u32) -> Option<Self> {
        match v {
            0 => Some(HwTaskState::Unknown),
            1 => Some(HwTaskState::Consistent),
            2 => Some(HwTaskState::Inconsistent),
            _ => None,
        }
    }
}

/// Selectors for [`Hypercall::VmStats`] (passed in a0). 64-bit quantities
/// are exposed as LO/HI halves; everything is a point-in-time read of the
/// caller's own accounting.
pub mod vm_stats {
    /// CPU cycles charged by the scheduler, low half.
    pub const CPU_CYCLES_LO: u32 = 0;
    /// CPU cycles charged by the scheduler, high half.
    pub const CPU_CYCLES_HI: u32 = 1;
    /// Hypercalls issued.
    pub const HYPERCALLS: u32 = 2;
    /// Times scheduled in.
    pub const ACTIVATIONS: u32 = 3;
    /// Times preempted with quantum remaining.
    pub const PREEMPTIONS: u32 = 4;
    /// Virtual IRQs injected into this VM.
    pub const VIRQS: u32 = 5;
    /// Page faults forwarded to the guest.
    pub const FAULTS_FORWARDED: u32 = 6;
    /// D-cache accesses attributed by the PMU epoch accounting.
    pub const DCACHE_ACCESS: u32 = 7;
    /// D-cache refills (misses) attributed.
    pub const DCACHE_REFILL: u32 = 8;
    /// TLB refills attributed.
    pub const TLB_REFILL: u32 = 9;
    /// I-cache refills attributed.
    pub const ICACHE_REFILL: u32 = 10;
    /// Page-table walks attributed.
    pub const PT_WALKS: u32 = 11;
    /// Exceptions taken while this VM held the CPU.
    pub const EXC_TAKEN: u32 = 12;
    /// PMU-attributed cycles, low half.
    pub const PMU_CYCLES_LO: u32 = 13;
    /// PMU-attributed cycles, high half.
    pub const PMU_CYCLES_HI: u32 = 14;
    /// Instructions retired while this VM held the CPU.
    pub const INSTR_RETIRED: u32 = 15;
    /// Number of valid selectors (larger values return `BadArg`).
    pub const SELECTOR_COUNT: u32 = 16;
}

/// Layout of the shared-memory descriptor ring behind
/// [`Hypercall::RingKick`] — a virtqueue-style paravirtual queue, one ring
/// per accelerator interface family.
///
/// The ring lives in a single guest page inside the VM's own region. The
/// header is followed by `size` 32-byte descriptors; a descriptor's ring
/// slot is `index & (size - 1)`. Index ownership is strict:
///
/// * **avail** ([`HDR_AVAIL`](ring::HDR_AVAIL)) is written by the *guest only*: a
///   free-running u16 (stored in a u32 word) counting descriptors ever
///   posted. The guest fills the slot, then bumps avail, then (eventually)
///   kicks.
/// * **used** ([`HDR_USED`](ring::HDR_USED)) is written by the *kernel only*: a
///   free-running u16 counting descriptors ever completed. Completions are
///   strictly FIFO — `used` advancing past an index publishes that
///   descriptor's result fields ([`DESC_STATUS`](ring::DESC_STATUS), [`DESC_RESULT_LEN`](ring::DESC_RESULT_LEN)) in
///   place.
///
/// Both indices wrap freely through 65535 → 0; the in-flight count is
/// always `avail.wrapping_sub(used)` and must never exceed `size`.
/// One kick may drain many descriptors; the batch completes with a single
/// coalesced completion vIRQ on the PL line of the last allocation,
/// delivered (or buffered, if the owner is descheduled) when the final
/// descriptor of the drain finishes.
pub mod ring {
    /// Magic word a valid ring header must carry ("MNVQ").
    pub const MAGIC: u32 = 0x4D4E_5651;
    /// Maximum descriptors per ring (header + 64 × 32 B fits one 4 KB page).
    pub const MAX_DESCS: u16 = 64;

    /// Header word: magic ([`MAGIC`]).
    pub const HDR_MAGIC: u64 = 0x00;
    /// Header word: descriptor count (power of two, 2..=[`MAX_DESCS`]).
    pub const HDR_SIZE: u64 = 0x04;
    /// Header word: guest-owned avail index (free-running u16 in a u32).
    pub const HDR_AVAIL: u64 = 0x08;
    /// Header word: kernel-owned used index (free-running u16 in a u32).
    pub const HDR_USED: u64 = 0x0C;
    /// Header word: VA of the hardware-task data section all descriptors'
    /// offsets are relative to.
    pub const HDR_DATA_VA: u64 = 0x10;
    /// Header word: VA the task interface (PRR register group) is mapped at
    /// while the ring's descriptors run.
    pub const HDR_IFACE_VA: u64 = 0x14;
    /// Header word: interface family (0 = FFT, 1 = QAM, 2 = FIR). Every
    /// descriptor's task must belong to this family.
    pub const HDR_FAMILY: u64 = 0x18;
    /// Header length in bytes (descriptor 0 starts here).
    pub const HDR_LEN: u64 = 0x20;

    /// Descriptor word: hardware-task id.
    pub const DESC_TASK: u64 = 0x00;
    /// Descriptor word: input offset within the data section.
    pub const DESC_SRC_OFF: u64 = 0x04;
    /// Descriptor word: input length in bytes.
    pub const DESC_SRC_LEN: u64 = 0x08;
    /// Descriptor word: output offset within the data section.
    pub const DESC_DST_OFF: u64 = 0x0C;
    /// Descriptor word: output capacity in bytes.
    pub const DESC_DST_CAP: u64 = 0x10;
    /// Descriptor word (kernel-written): completion status — low byte a
    /// `desc_status` code, bits 15:8 an error detail.
    pub const DESC_STATUS: u64 = 0x14;
    /// Descriptor word (kernel-written): result length in bytes.
    pub const DESC_RESULT_LEN: u64 = 0x18;
    /// Descriptor word (kernel-written): the causal request id minted for
    /// this descriptor (diagnostics — matches the trace waterfall).
    pub const DESC_REQ: u64 = 0x1C;
    /// Descriptor stride in bytes.
    pub const DESC_LEN: u64 = 0x20;

    /// Byte offset of descriptor `index` in a ring of `size` descriptors.
    pub fn desc_off(size: u16, index: u16) -> u64 {
        HDR_LEN + (index & (size - 1)) as u64 * DESC_LEN
    }

    /// Completion codes written to the low byte of [`DESC_STATUS`].
    pub mod desc_status {
        /// Not yet completed (the guest should write this when posting).
        pub const PENDING: u32 = 0;
        /// Completed on fabric hardware.
        pub const OK: u32 = 1;
        /// Completed bit-identically by the software fallback.
        pub const OK_DEGRADED: u32 = 2;
        /// Rejected before dispatch (validation or allocation failure);
        /// the detail byte carries the would-be hypercall error code.
        pub const ERR_REJECTED: u32 = 3;
        /// The device reported an error; the detail byte carries its code.
        pub const ERR_DEVICE: u32 = 4;
    }
}

/// Layout of the reserved consistency structure at the head of every
/// hardware-task data section (Fig. 5: "we allocate a reserved data
/// structure to hold the state of a hardware task, the state flag and the
/// hardware task interface registers").
pub mod data_section {
    /// Offset of the state flag word ([`super::HwTaskState`]).
    pub const STATE_FLAG: u64 = 0x00;
    /// Offset of the saved task id.
    pub const SAVED_TASK: u64 = 0x04;
    /// Offset of the 16 saved interface registers.
    pub const SAVED_REGS: u64 = 0x08;
    /// Size of the reserved structure (flag + id + 16 registers).
    pub const RESERVED_LEN: u64 = 0x48;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_hypercalls_plus_vm_stats() {
        // The paper's 25 plus the reproduction's read-only VmStats and the
        // paravirtual ring kick.
        assert_eq!(HYPERCALL_COUNT, 27);
        assert_eq!(Hypercall::ALL.len(), 27);
        assert_eq!(Hypercall::VmStats.nr(), 25);
        assert_eq!(Hypercall::RingKick.nr(), 26);
        assert_eq!(Hypercall::SdRead.nr(), 24, "the paper set stays 0..=24");
    }

    #[test]
    fn error_wire_codes_are_pinned() {
        let codes = [
            (HcError::BadCall, 1),
            (HcError::BadArg, 2),
            (HcError::Denied, 3),
            (HcError::NotFound, 4),
            (HcError::Busy, 5),
            (HcError::NoResource, 6),
        ];
        for (e, code) in codes {
            assert_eq!(e as u32, code, "{e:?}");
        }
    }

    #[test]
    fn numbering_is_dense_and_round_trips() {
        for (i, hc) in Hypercall::ALL.iter().enumerate() {
            assert_eq!(hc.nr() as usize, i);
            assert_eq!(Hypercall::from_nr(i as u8), Some(*hc));
        }
        assert_eq!(Hypercall::from_nr(HYPERCALL_COUNT as u8), None);
        assert_eq!(Hypercall::from_nr(255), None);
    }

    #[test]
    fn args_builder() {
        let a = HypercallArgs::new(Hypercall::HwTaskRequest)
            .a0(3)
            .a1(0x4000_0000)
            .a2(0x0080_0000)
            .a3(7);
        assert_eq!(a.nr, Hypercall::HwTaskRequest);
        assert_eq!((a.a0, a.a1, a.a2, a.a3), (3, 0x4000_0000, 0x0080_0000, 7));
    }

    #[test]
    fn status_decoding() {
        assert_eq!(HwTaskStatus::from_u32(0), Some(HwTaskStatus::Success));
        assert_eq!(HwTaskStatus::from_u32(1), Some(HwTaskStatus::Reconfiguring));
        assert_eq!(HwTaskStatus::from_u32(2), None);
        assert_eq!(HwTaskState::from_u32(2), Some(HwTaskState::Inconsistent));
        assert_eq!(HwTaskState::from_u32(9), None);
    }

    #[test]
    fn reserved_structure_fits_16_registers() {
        use data_section::*;
        assert_eq!(RESERVED_LEN, SAVED_REGS + 16 * 4);
    }

    #[test]
    fn ring_fits_one_page_and_slots_wrap_by_mask() {
        use ring::*;
        assert!(HDR_LEN + MAX_DESCS as u64 * DESC_LEN <= crate::PAGE_SIZE);
        assert_eq!(desc_off(8, 0), HDR_LEN);
        assert_eq!(
            desc_off(8, 9),
            HDR_LEN + DESC_LEN,
            "slot = index & (size-1)"
        );
        // Free-running indices keep addressing valid slots through the
        // u16 wrap: 65535 is slot size-1, 0 is slot 0 again.
        assert_eq!(desc_off(64, 65535), HDR_LEN + 63 * DESC_LEN);
        assert_eq!(desc_off(64, 65535u16.wrapping_add(1)), HDR_LEN);
    }
}
