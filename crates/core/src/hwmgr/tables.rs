//! The manager's two lookup tables (§IV-B, §IV-E and Fig. 7).
//!
//! *Hardware task table*: "hardware tasks are organized by the Hardware
//! Task Manager in a look-up table that is indexed with unique ID numbers.
//! For each task, the address and size of its .bit file, the
//! reconfiguration latency and the list of predefined PRRs are stored."
//!
//! *PRR table*: "a PRR table is built to record the states of the PRRs.
//! Its contents include the PRR's current client, the hardware task, the
//! execution state (idle or busy), etc."
//!
//! Table lookups are charged against the manager's private memory region so
//! that the allocation cost genuinely grows when more guests thrash the
//! cache — the effect §V-B measures.

use mnv_arm::machine::Machine;
use mnv_fpga::bitstream::CoreKind;
use mnv_fpga::pl::pcap_transfer_cycles;
use mnv_fpga::prr::REG_COUNT;
use mnv_hal::{Cycles, HwTaskId, PhysAddr, VmId};
use std::collections::BTreeMap;

use crate::mem::layout;

/// One hardware-task table entry.
#[derive(Clone, Debug)]
pub struct HwTaskEntry {
    /// Unique task id.
    pub id: HwTaskId,
    /// The IP core the bitstream configures.
    pub core: CoreKind,
    /// Physical address of the .bit file in the bitstream store.
    pub bit_addr: PhysAddr,
    /// Length of the .bit file.
    pub bit_len: u32,
    /// Reconfiguration latency (derived from the bitstream size and PCAP
    /// throughput — the paper stores it per task).
    pub recon_latency: Cycles,
    /// Predefined PRR list.
    pub prrs: Vec<u8>,
}

/// The hardware-task lookup table.
#[derive(Default)]
pub struct HwTaskTable {
    entries: BTreeMap<u16, HwTaskEntry>,
}

impl HwTaskTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a task.
    pub fn register(
        &mut self,
        id: HwTaskId,
        core: CoreKind,
        bit_addr: PhysAddr,
        bit_len: u32,
        prrs: Vec<u8>,
    ) {
        assert!(!prrs.is_empty(), "a task needs at least one PRR");
        self.entries.insert(
            id.0,
            HwTaskEntry {
                id,
                core,
                bit_addr,
                bit_len,
                recon_latency: Cycles::new(pcap_transfer_cycles(bit_len as u64)),
                prrs,
            },
        );
    }

    /// Charged lookup: touches the entry's backing lines in the manager's
    /// region, then returns the entry.
    pub fn lookup(&self, m: &mut Machine, id: HwTaskId) -> Option<&HwTaskEntry> {
        // Each entry occupies two cache lines in the manager's table area.
        let addr = layout::HWMGR_BASE + 0x1000 + (id.0 as u64) * 128;
        let _ = m.phys_read_u32(addr);
        let _ = m.phys_read_u32(addr + 64);
        self.entries.get(&id.0)
    }

    /// Uncharged lookup (introspection).
    pub fn get(&self, id: HwTaskId) -> Option<&HwTaskEntry> {
        self.entries.get(&id.0)
    }

    /// All registered ids.
    pub fn ids(&self) -> Vec<HwTaskId> {
        self.entries.keys().map(|&k| HwTaskId(k)).collect()
    }

    /// Number of tasks.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// A minted request id plus its hypercall-entry timestamp. `id == 0` means
/// "no open request": ids are minted from 1, so the default tag is the
/// absent tag. The tag travels with whatever object currently owns the
/// request's completion — a [`PrrEntry`] while the task runs on fabric, a
/// `PcapJob` during reconfiguration, a `SwShadow` when degraded — and is
/// consumed exactly once when the completion is delivered to the guest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReqTag {
    /// Request id (0 = none).
    pub id: u32,
    /// Mint timestamp (absolute cycles at hypercall entry).
    pub started: u64,
}

impl ReqTag {
    /// True when this slot holds an open request.
    pub fn is_open(&self) -> bool {
        self.id != 0
    }

    /// Take the tag out of the slot, leaving it empty.
    pub fn take(&mut self) -> ReqTag {
        std::mem::take(self)
    }
}

/// Scrub health of a quarantined region, driving the reinstate/retire
/// decision.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrrHealth {
    /// Consecutive scrub passes.
    pub passes: u8,
    /// Consecutive scrub failures.
    pub fails: u8,
    /// Earliest cycle time of the next scrub attempt (`u64::MAX` marks a
    /// region with no compatible registered task — unscrubbable).
    pub next_scrub_at: u64,
}

/// Escalation-ladder state of one hung region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Ladder {
    /// Current rung: 1 retry, 2 relocate (3 and 4 resolve immediately and
    /// never persist here).
    pub rung: u8,
    /// Deadline after which the next rung is taken.
    pub deadline: u64,
    /// Interface register image captured at the first escalation (the
    /// client's staged run, replayed on retry and relocation).
    pub saved: [u32; REG_COUNT],
}

/// Where a region stands with the allocator. Only
/// [`PrrEntry::quarantine`], [`PrrEntry::reinstate`] and
/// [`PrrEntry::retire`] move a region between these states.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PrrService {
    /// In the allocator pool, watched by the hang watchdog.
    InService {
        /// Cycle time at which the region was first observed BUSY (`None`
        /// = not busy); the hang watchdog's reference point.
        busy_since: Option<u64>,
        /// The escalation ladder open on the region's hung run, if any.
        ladder: Option<Ladder>,
    },
    /// Taken out of service by the watchdog or the escalation ladder. A
    /// hung PRR never comes back by itself, but a full reconfiguration
    /// resets the region's logic: the supervisor's background scrubber
    /// (test-bitstream PCAP load + CRC readback) reinstates the region
    /// after enough consecutive passes.
    Quarantined(PrrHealth),
    /// Permanently out of service: the scrubber's failure budget was
    /// exhausted, so the region's fabric (or its configuration path) is
    /// considered genuinely damaged. Terminal.
    Retired,
}

impl Default for PrrService {
    fn default() -> Self {
        PrrService::InService {
            busy_since: None,
            ladder: None,
        }
    }
}

/// One PRR-table entry.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PrrEntry {
    /// Current client VM, if dispatched.
    pub client: Option<VmId>,
    /// Hardware task currently implemented in the region.
    pub task: Option<HwTaskId>,
    /// Interface VA in the client's space (for demapping at reclaim).
    pub iface_va: Option<u64>,
    /// Service state: in the allocator pool, quarantined or retired.
    pub service: PrrService,
    /// The open causal request awaiting its first completion through this
    /// region (cleared when the completion vIRQ is attributed to it).
    pub req: ReqTag,
}

impl PrrEntry {
    /// True while the region is in the allocator pool.
    pub fn in_service(&self) -> bool {
        matches!(self.service, PrrService::InService { .. })
    }

    /// True once the region is retired for good.
    pub fn is_retired(&self) -> bool {
        self.service == PrrService::Retired
    }

    /// The escalation ladder open on the region's hung run, if any.
    pub fn ladder(&self) -> Option<&Ladder> {
        match &self.service {
            PrrService::InService { ladder, .. } => ladder.as_ref(),
            _ => None,
        }
    }

    /// Drop the region's client binding (the task stays resident).
    pub fn detach(&mut self) {
        self.client = None;
        self.iface_va = None;
    }

    /// Take the region out of service with a fresh scrub cycle, due
    /// immediately. Quarantining a quarantined region restarts its cycle;
    /// a retired region stays retired.
    pub fn quarantine(&mut self) {
        if !self.is_retired() {
            self.service = PrrService::Quarantined(PrrHealth::default());
        }
    }

    /// Return a quarantined region to the allocator pool.
    pub fn reinstate(&mut self) {
        debug_assert!(
            matches!(self.service, PrrService::Quarantined(_)),
            "reinstate from {:?}",
            self.service
        );
        self.service = PrrService::default();
    }

    /// Retire a quarantined region permanently.
    pub fn retire(&mut self) {
        debug_assert!(
            matches!(self.service, PrrService::Quarantined(_)),
            "retire from {:?}",
            self.service
        );
        self.service = PrrService::Retired;
    }
}

/// The PRR state table.
pub struct PrrTable {
    entries: Vec<PrrEntry>,
}

impl PrrTable {
    /// Table for `n` regions.
    pub fn new(n: usize) -> Self {
        PrrTable {
            entries: vec![PrrEntry::default(); n],
        }
    }

    /// Charged access to a PRR's entry.
    pub fn touch(&self, m: &mut Machine, prr: u8) {
        let addr = layout::HWMGR_BASE + 0x4000 + (prr as u64) * 64;
        let _ = m.phys_read_u32(addr);
    }

    /// Entry accessor.
    pub fn entry(&self, prr: u8) -> &PrrEntry {
        &self.entries[prr as usize]
    }

    /// Mutable entry accessor (charges the write line).
    pub fn entry_mut(&mut self, m: &mut Machine, prr: u8) -> &mut PrrEntry {
        let addr = layout::HWMGR_BASE + 0x4000 + (prr as u64) * 64;
        let _ = m.phys_write_u32(addr, 0);
        &mut self.entries[prr as usize]
    }

    /// Uncharged access to the causal-request slot of `prr`. Request
    /// bookkeeping shares the entry's cache line, which the charged
    /// accessors already touched on every path that reaches it, so the
    /// tracing layer stays cycle-neutral.
    pub fn req_slot(&mut self, prr: u8) -> &mut ReqTag {
        &mut self.entries[prr as usize].req
    }

    /// Uncharged access to an in-service region's hang watch (when it was
    /// first seen BUSY, its open ladder); `None` out of service.
    pub fn watch_slot(&mut self, prr: u8) -> Option<(&mut Option<u64>, &mut Option<Ladder>)> {
        match &mut self.entries[prr as usize].service {
            PrrService::InService { busy_since, ladder } => Some((busy_since, ladder)),
            _ => None,
        }
    }

    /// Close `prr`'s escalation ladder, returning it (uncharged).
    pub fn take_ladder(&mut self, prr: u8) -> Option<Ladder> {
        self.watch_slot(prr).and_then(|(_, ladder)| ladder.take())
    }

    /// Uncharged access to a quarantined region's scrub health.
    pub fn health_slot(&mut self, prr: u8) -> Option<&mut PrrHealth> {
        match &mut self.entries[prr as usize].service {
            PrrService::Quarantined(health) => Some(health),
            _ => None,
        }
    }

    /// Number of regions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when there are no regions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The PRR currently dispatched to `vm` for `task`, if any.
    pub fn find_dispatch(&self, vm: VmId, task: HwTaskId) -> Option<u8> {
        self.entries
            .iter()
            .position(|e| e.client == Some(vm) && e.task == Some(task))
            .map(|i| i as u8)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_table_register_lookup() {
        let mut m = Machine::default();
        let mut t = HwTaskTable::new();
        t.register(
            HwTaskId(3),
            CoreKind::Fft { log2_points: 9 },
            PhysAddr::new(0x0100_0000),
            200_000,
            vec![0, 1],
        );
        let e = t.lookup(&mut m, HwTaskId(3)).unwrap();
        assert_eq!(e.core, CoreKind::Fft { log2_points: 9 });
        assert_eq!(e.prrs, vec![0, 1]);
        assert!(e.recon_latency.raw() > 0);
        assert!(t.lookup(&mut m, HwTaskId(9)).is_none());
        assert_eq!(t.ids(), vec![HwTaskId(3)]);
    }

    #[test]
    fn recon_latency_scales_with_size() {
        let mut t = HwTaskTable::new();
        t.register(
            HwTaskId(0),
            CoreKind::Qam { bits_per_symbol: 2 },
            PhysAddr::new(0),
            50_000,
            vec![0],
        );
        t.register(
            HwTaskId(1),
            CoreKind::Fft { log2_points: 13 },
            PhysAddr::new(0),
            500_000,
            vec![0],
        );
        assert!(
            t.get(HwTaskId(1)).unwrap().recon_latency > t.get(HwTaskId(0)).unwrap().recon_latency
        );
    }

    #[test]
    fn prr_table_dispatch_tracking() {
        let mut m = Machine::default();
        let mut p = PrrTable::new(4);
        assert_eq!(p.len(), 4);
        {
            let e = p.entry_mut(&mut m, 2);
            e.client = Some(VmId(1));
            e.task = Some(HwTaskId(5));
        }
        assert_eq!(p.find_dispatch(VmId(1), HwTaskId(5)), Some(2));
        assert_eq!(p.find_dispatch(VmId(2), HwTaskId(5)), None);
        assert_eq!(p.find_dispatch(VmId(1), HwTaskId(6)), None);
    }

    #[test]
    #[should_panic(expected = "at least one PRR")]
    fn empty_prr_list_rejected() {
        let mut t = HwTaskTable::new();
        t.register(
            HwTaskId(0),
            CoreKind::Fir { taps: 4 },
            PhysAddr::new(0),
            1,
            vec![],
        );
    }

    fn in_state(service: PrrService) -> PrrEntry {
        PrrEntry {
            service,
            ..PrrEntry::default()
        }
    }

    #[test]
    fn legal_service_edges() {
        let fresh = PrrService::Quarantined(PrrHealth::default());

        // InService → Quarantined drops the hang watch.
        let mut e = in_state(PrrService::InService {
            busy_since: Some(3),
            ladder: Some(Ladder {
                rung: 1,
                deadline: 5,
                saved: [0; REG_COUNT],
            }),
        });
        e.quarantine();
        assert_eq!(e.service, fresh);

        // Quarantined → Quarantined restarts the scrub cycle.
        let mut e = in_state(PrrService::Quarantined(PrrHealth {
            passes: 1,
            fails: 0,
            next_scrub_at: 9,
        }));
        e.quarantine();
        assert_eq!(e.service, fresh);

        // Quarantined → InService with an empty hang watch.
        e.reinstate();
        assert_eq!(e.service, PrrService::default());

        // Quarantined → Retired, and a retired region stays retired.
        e.quarantine();
        e.retire();
        assert!(e.is_retired() && !e.in_service());
        e.quarantine();
        assert!(e.is_retired());
    }

    #[test]
    #[cfg(debug_assertions)]
    fn illegal_service_edges_are_rejected() {
        type Edge = fn(&mut PrrEntry);
        let edges: [(PrrService, Edge); 4] = [
            (PrrService::default(), PrrEntry::reinstate),
            (PrrService::Retired, PrrEntry::reinstate),
            (PrrService::default(), PrrEntry::retire),
            (PrrService::Retired, PrrEntry::retire),
        ];
        for (from, edge) in edges {
            let r = std::panic::catch_unwind(move || edge(&mut in_state(from)));
            assert!(r.is_err(), "edge from {from:?} must be rejected");
        }
    }

    #[test]
    fn table_slots_follow_the_service_state() {
        let mut m = Machine::default();
        let mut p = PrrTable::new(2);
        let ladder = Ladder {
            rung: 1,
            deadline: 7,
            saved: [0; REG_COUNT],
        };
        *p.watch_slot(0).unwrap().1 = Some(ladder);
        assert!(p.health_slot(0).is_none(), "in service: no scrub health");
        assert_eq!(p.take_ladder(0), Some(ladder));
        assert_eq!(p.take_ladder(0), None);

        p.entry_mut(&mut m, 1).quarantine();
        assert!(p.watch_slot(1).is_none(), "quarantined: no hang watch");
        assert!(p.take_ladder(1).is_none());
        p.health_slot(1).unwrap().next_scrub_at = 11;
        let h = PrrHealth {
            next_scrub_at: 11,
            ..PrrHealth::default()
        };
        assert_eq!(p.entry(1).service, PrrService::Quarantined(h));
    }
}
