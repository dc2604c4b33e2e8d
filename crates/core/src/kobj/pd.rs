//! Protection domains (§III-A): "A Protection domain acts as a resource
//! container and a capability interface between a virtual machine and the
//! microkernel. It holds the state of a virtual machine (the ID number,
//! the priority level, etc)."

use mnv_arm::PmuInputs;
use mnv_hal::{Asid, Cycles, HwTaskId, PhysAddr, Priority, VirtAddr, VmId};
use std::collections::{BTreeMap, VecDeque};

use crate::kobj::portal::PortalTable;
use crate::kobj::vcpu::Vcpu;
use crate::vgic::Vgic;
use crate::vtimer::VTimer;

/// Scheduling state of a PD (run queue vs. suspend queue of Fig. 3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PdState {
    /// In the run queue.
    Runnable,
    /// In the suspend queue ("only invoked when necessary" — the manager
    /// service parks here between requests).
    Suspended,
    /// Halted (guest exited or was killed on an unrecoverable fault).
    Halted,
}

/// The guest's hardware-task data section (registered at the first
/// HwTaskRequest; Fig. 4's "HW task data" region).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DataSection {
    /// Guest VA of the section.
    pub va: VirtAddr,
    /// Physical base (inside the VM's region).
    pub pa: PhysAddr,
    /// Length in bytes.
    pub len: u64,
}

/// An inter-VM message (IpcSend payload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IpcMsg {
    /// Sending VM.
    pub from: VmId,
    /// Three payload words.
    pub payload: [u32; 3],
}

/// Per-PD accounting: the one store of every per-VM counter. The metrics
/// snapshot reads it (see [`crate::obs::snapshot`]) and the machine-wide
/// totals in [`crate::stats::KernelStats`] must equal its sums.
#[derive(Clone, Copy, Debug, Default)]
pub struct PdStats {
    /// Cycles of CPU time consumed.
    pub cpu_cycles: u64,
    /// Hypercalls issued with a known number, portal-denied ones included
    /// (what the VmStats hypercall serves).
    pub hypercalls: u64,
    /// Hypercalls refused by the portal check.
    pub hypercalls_denied: u64,
    /// SVC numbers that decode to no hypercall.
    pub hypercalls_invalid: u64,
    /// Times scheduled in.
    pub activations: u64,
    /// Times preempted with quantum remaining.
    pub preemptions: u64,
    /// Page faults forwarded to the guest.
    pub faults_forwarded: u64,
    /// Virtual IRQs injected into this VM.
    pub virqs_injected: u64,
    /// `RingKick` drains of this VM's rings.
    pub ring_kicks: u64,
    /// Coalesced ring-completion vIRQs delivered to this VM.
    pub ring_virqs: u64,
    /// Supervised relaunches of this VM.
    pub restarts: u64,
    /// This VM's degraded clients promoted back onto fabric hardware.
    pub repromotions: u64,
    /// Machine events attributed to this VM by the kernel's epoch
    /// accounting: everything the PMU saw between this VM's switch-in and
    /// switch-out (cycles, instructions, cache/TLB refills…). Always
    /// maintained — this is what the VmStats hypercall serves.
    pub pmu: PmuInputs,
}

impl PdStats {
    /// Hypercalls that reached the dispatcher or decoded to no call: the
    /// `hypercalls` metric, whose sum is `KernelStats::hypercalls_total`.
    pub fn hypercalls_served(&self) -> u64 {
        self.hypercalls - self.hypercalls_denied + self.hypercalls_invalid
    }

    /// Fold another incarnation's accounting into this one.
    pub fn merge(&mut self, o: &PdStats) {
        self.cpu_cycles += o.cpu_cycles;
        self.hypercalls += o.hypercalls;
        self.hypercalls_denied += o.hypercalls_denied;
        self.hypercalls_invalid += o.hypercalls_invalid;
        self.activations += o.activations;
        self.preemptions += o.preemptions;
        self.faults_forwarded += o.faults_forwarded;
        self.virqs_injected += o.virqs_injected;
        self.ring_kicks += o.ring_kicks;
        self.ring_virqs += o.ring_virqs;
        self.restarts += o.restarts;
        self.repromotions += o.repromotions;
        self.pmu.accumulate(&o.pmu);
    }
}

/// A protection domain.
pub struct Pd {
    /// VM identity.
    pub vm: VmId,
    /// Human-readable name.
    pub name: &'static str,
    /// Fixed scheduling priority (Fig. 3; higher value preempts lower).
    pub priority: Priority,
    /// The VM's unique ASID (§III-C).
    pub asid: Asid,
    /// Physical base of the VM's private memory region.
    pub region: PhysAddr,
    /// Region length.
    pub region_len: u64,
    /// Physical address of the VM's L1 page table.
    pub l1: PhysAddr,
    /// Saved vCPU.
    pub vcpu: Vcpu,
    /// The VM's virtual interrupt controller.
    pub vgic: Vgic,
    /// The VM's virtual timer.
    pub vtimer: VTimer,
    /// Hypercall capability table.
    pub portals: PortalTable,
    /// Scheduling state.
    pub state: PdState,
    /// Remaining quantum (preserved across preemption — §III-D: "When this
    /// VM is resumed, its time quantum is also resumed so that its total
    /// execution time slice is constant").
    pub quantum_left: Cycles,
    /// Registered hardware-task data section.
    pub data_section: Option<DataSection>,
    /// Hardware-task interfaces currently mapped into this VM:
    /// task id → (interface VA, PRR id).
    pub iface_maps: BTreeMap<HwTaskId, (VirtAddr, u8)>,
    /// The in-flight PCAP reconfiguration this VM owns (task id). Set when
    /// its job launches, cleared when the job completes or is given up; a
    /// job still queued for the channel leaves it `None`.
    pub pcap_pending: Option<HwTaskId>,
    /// Inter-VM message queue (bounded).
    pub ipc_queue: VecDeque<IpcMsg>,
    /// Supervised console output buffer.
    pub console: Vec<u8>,
    /// Emulated privileged registers (RegRead/RegWrite space; index 2
    /// shadows TPIDRURO).
    pub emulated_regs: [u32; 8],
    /// Cursor into the guest's code working set (instruction-fetch traffic
    /// model — see `VmEnv::compute`).
    pub text_cursor: u64,
    /// LCG state of the guest's data-side traffic model (skewed-reuse
    /// sweep over the page-mapped work megabyte — see `VmEnv::compute`).
    pub data_rng: u64,
    /// Absolute cycle time of this VM's next wake-up event (0 = awake now).
    /// Set when the guest idles; cleared when a vIRQ is buffered for it.
    pub wake_at: u64,
    /// Accounting.
    pub stats: PdStats,
}

/// IPC queue bound.
pub const IPC_QUEUE_DEPTH: usize = 8;

impl Pd {
    /// Construct a PD (the kernel fills in memory layout fields).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        vm: VmId,
        name: &'static str,
        priority: Priority,
        asid: Asid,
        region: PhysAddr,
        region_len: u64,
        l1: PhysAddr,
        entry: u32,
    ) -> Self {
        Pd {
            vm,
            name,
            priority,
            asid,
            region,
            region_len,
            l1,
            vcpu: Vcpu::new(entry),
            vgic: Vgic::new(),
            vtimer: VTimer::default(),
            portals: PortalTable::guest_default(),
            state: PdState::Runnable,
            quantum_left: Cycles::ZERO,
            data_section: None,
            iface_maps: BTreeMap::new(),
            pcap_pending: None,
            ipc_queue: VecDeque::new(),
            console: Vec::new(),
            emulated_regs: [0; 8],
            text_cursor: 0,
            data_rng: 0x243F_6A88_85A3_08D3 ^ ((vm.0 as u64) << 32),
            wake_at: 0,
            stats: PdStats::default(),
        }
    }

    /// Translate a guest VA to a physical address *within this VM's own
    /// region* using the region-offset identity (fast path used by the
    /// kernel for argument marshalling; full page-table walks are used
    /// where mappings may differ, e.g. interface pages).
    pub fn guest_pa(&self, va: VirtAddr) -> Option<PhysAddr> {
        (va.raw() < self.region_len).then(|| self.region + va.raw())
    }

    /// Enqueue an IPC message; false when the queue is full.
    pub fn ipc_push(&mut self, msg: IpcMsg) -> bool {
        if self.ipc_queue.len() >= IPC_QUEUE_DEPTH {
            return false;
        }
        self.ipc_queue.push_back(msg);
        true
    }

    /// Dequeue the oldest IPC message.
    pub fn ipc_pop(&mut self) -> Option<IpcMsg> {
        self.ipc_queue.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pd() -> Pd {
        Pd::new(
            VmId(1),
            "g1",
            Priority::GUEST,
            Asid(1),
            PhysAddr::new(0x0400_0000),
            0x0100_0000,
            PhysAddr::new(0x0200_0000),
            0x1_0000,
        )
    }

    #[test]
    fn guest_pa_is_region_offset() {
        let p = pd();
        assert_eq!(
            p.guest_pa(VirtAddr::new(0x1234)).unwrap(),
            PhysAddr::new(0x0400_1234)
        );
        assert!(p.guest_pa(VirtAddr::new(0x0100_0000)).is_none());
    }

    #[test]
    fn ipc_queue_bounded() {
        let mut p = pd();
        let msg = IpcMsg {
            from: VmId(2),
            payload: [1, 2, 3],
        };
        for _ in 0..IPC_QUEUE_DEPTH {
            assert!(p.ipc_push(msg));
        }
        assert!(!p.ipc_push(msg), "queue must bound");
        assert_eq!(p.ipc_pop().unwrap().payload, [1, 2, 3]);
        assert!(p.ipc_push(msg), "pop frees a slot");
    }

    #[test]
    fn fresh_pd_is_runnable_with_full_portals() {
        let p = pd();
        assert_eq!(p.state, PdState::Runnable);
        assert!(p
            .portals
            .check(mnv_hal::abi::Hypercall::HwTaskRequest)
            .is_ok());
        assert!(p.data_section.is_none());
        assert!(p.iface_maps.is_empty());
    }
}
