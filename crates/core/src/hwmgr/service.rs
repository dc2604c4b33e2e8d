//! The Hardware Task Manager's request handling — the six-stage routine of
//! Fig. 7, plus release/query/poll and the reclaim path of Fig. 5.
//!
//! Everything here is *charged work* against the machine: table lookups hit
//! the manager's memory region, PRR status checks and hwMMU/PCAP/route
//! programming are AXI GP register accesses, page-table updates are real
//! descriptor writes followed by TLB maintenance. That is what makes the
//! "HW Manager execution" row of Table III grow with allocation complexity
//! exactly as the paper describes.

use mnv_arm::machine::Machine;
use mnv_arm::tlb::Ap;
use mnv_fpga::bitstream::{Bitstream, CoreKind};
use mnv_fpga::cores::make_core;
use mnv_fpga::fabric::FabricConfig;
use mnv_fpga::pl::{pcap_status, pcap_transfer_cycles, plregs, Pl, PAGE, PL_GP_BASE};
use mnv_fpga::prr::ctrl as prr_ctrl;
use mnv_fpga::prr::errcode as prr_errcode;
use mnv_fpga::prr::regs as prr_regs;
use mnv_fpga::prr::status as prr_status;
use mnv_hal::abi::{data_section, hw_task_result, HcError, HwTaskState, HwTaskStatus};
use mnv_hal::{Cycles, Domain, HwTaskId, IrqNum, PhysAddr, VirtAddr, VmId};
use mnv_metrics::Label;
use mnv_profile::SampleCtx;
use mnv_trace::event::{iface_name, req_stage};
use mnv_trace::TraceEvent;
use std::collections::{BTreeMap, VecDeque};

use super::irqalloc::PlIrqAllocator;
use super::tables::{HwTaskTable, PrrTable, ReqTag};
use crate::kobj::pd::{DataSection, Pd};
use crate::mem::layout::{self, ktext};
use crate::mem::pagetable::{self, PtAlloc};
use crate::obs::Sinks;
use crate::slo::{iface_of, SloTracker};
use crate::supervisor::timing;

/// Fixed hardware-task data-section length (the guests' convention).
pub const DATA_SECTION_LEN: u64 = 0x2_0000;

/// Software-fallback slowdown: a CPU implementation of an accelerated
/// workload is charged this many times the fabric core's compute cycles
/// (the degraded-but-correct operating point).
pub const SW_SLOWDOWN: u64 = 8;

/// Default watchdog timeout for a continuously-BUSY region, in cycles —
/// generously above the longest legitimate run (full-data-section DMA plus
/// the slowest core's compute is well under 5 M cycles).
pub const DEFAULT_WATCHDOG_TIMEOUT: u64 = 20_000_000;

/// Bound on PCAP relaunch attempts per client reconfiguration.
pub const MAX_PCAP_RETRIES: u8 = 3;

/// Pseudo-region namespace for completion lines parked by a quarantine
/// migration: the line stays allocated to the client (so the shadow service
/// keeps delivering on it) but is re-keyed to `SHADOW_LINE_KEY | line_idx`,
/// leaving the real region key free for reinstatement and reuse. Real PRR
/// indices are tiny (≤15), so the namespaces cannot collide.
pub(crate) const SHADOW_LINE_KEY: u8 = 0x80;

/// What a PCAP transfer is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PcapJobKind {
    /// A guest's stage-5 reconfiguration: it raises PCAP_DONE and is
    /// settled by a waiting client's poll or the fabric tick, which
    /// relaunch it when it fails. It waits
    /// in [`HwMgr::pcap_queue`] as a [`QueuedPcap`] while another client's
    /// transfer holds the channel.
    Client {
        /// VM waiting on the reconfiguration.
        vm: VmId,
        /// Relaunches performed so far.
        attempts: u8,
        /// The causal request waiting on this reconfiguration (stamps the
        /// PCAP launch/retry/done/abort hops into its waterfall).
        req: ReqTag,
    },
    /// Background scrub of a quarantined region: a test-bitstream load
    /// whose CRC-checked ingest doubles as configuration readback.
    Scrub,
    /// Escalation-ladder rung 2: load the hung client's task onto a
    /// compatible region, then move the client across.
    Relocate {
        /// The client being moved.
        vm: VmId,
        /// The hung region it is leaving.
        from: u8,
    },
}

/// The PCAP engine's one in-flight transfer: a client reconfiguration or
/// a kernel-initiated load (scrub or relocation). A client
/// launch aborts a kernel load in flight; a client job that finds another
/// client's transfer in flight waits in [`HwMgr::pcap_queue`]. Kernel loads
/// start only on an idle channel with no client waiting.
#[derive(Clone, Copy, Debug)]
pub struct PcapJob {
    /// The task whose bitstream is being loaded.
    pub task: HwTaskId,
    /// Target region.
    pub prr: u8,
    /// Bitstream length (stall-deadline input).
    pub bit_len: u32,
    /// Cycle time of the current launch (stall-watchdog reference).
    pub started_at: u64,
    /// Purpose of the transfer.
    pub kind: PcapJobKind,
}

impl PcapJob {
    /// Cycle deadline after which the transfer is considered stalled (4×
    /// the nominal PCAP duration plus slack — a healthy transfer is long
    /// done by then).
    pub fn stall_deadline(&self) -> u64 {
        self.started_at + 4 * pcap_transfer_cycles(self.bit_len as u64) + timing::PCAP_STALL_SLACK
    }

    /// The VM waiting on the transfer when it is a client
    /// reconfiguration; `None` for a kernel load.
    pub fn client(&self) -> Option<VmId> {
        match self.kind {
            PcapJobKind::Client { vm, .. } => Some(vm),
            _ => None,
        }
    }
}

/// A client reconfiguration waiting in [`HwMgr::pcap_queue`] for the
/// channel. It launches as a [`PcapJobKind::Client`] job with no attempts
/// made.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct QueuedPcap {
    /// The task whose bitstream will be loaded.
    pub task: HwTaskId,
    /// Target region.
    pub prr: u8,
    /// The client that will wait on the transfer.
    pub vm: VmId,
    /// The request the reconfiguration belongs to.
    pub req: ReqTag,
}

/// A software-fallback dispatch: the client's interface VA is backed by a
/// kernel-owned RAM page (the "shadow register group") which the kernel
/// services in software instead of fabric. It is the dispatch's only
/// record: no PRR-table entry names a degraded client, and its way back to
/// hardware is the six-stage routine at its next request.
#[derive(Clone, Copy, Debug)]
pub struct SwShadow {
    /// Owning VM.
    pub vm: VmId,
    /// The degraded task.
    pub task: HwTaskId,
    /// Functional model to run on the CPU.
    pub core: CoreKind,
    /// Physical page holding the shadow register group.
    pub page: PhysAddr,
    /// The client's data section (DMA-window equivalent for validation).
    pub ds: DataSection,
    /// Completion IRQ line, when the dispatch inherited one from a
    /// quarantined region (pure-software dispatches poll).
    pub line: Option<IrqNum>,
    /// The open causal request this dispatch will complete (migrated off
    /// the quarantined region's PRR entry, or minted by the request that
    /// created the pure-software dispatch).
    pub req: ReqTag,
}

/// The manager service state.
pub struct HwMgr {
    /// Hardware-task lookup table.
    pub tasks: HwTaskTable,
    /// PRR state table.
    pub prrs: PrrTable,
    /// PL interrupt-line allocator.
    pub irqs: PlIrqAllocator,
    /// VM whose client reconfiguration is in flight (the PCAP completion
    /// IRQ "is always connected to the VM which launches the current
    /// transfer" — §IV-D). Set when a `Client` job launches, cleared when
    /// it completes, is given up or its VM dies; exactly this VM has
    /// `Pd::pcap_pending` set (see [`HwMgr::check_invariants`]).
    pub pcap_owner: Option<VmId>,
    /// The PCAP channel's one in-flight transfer, client or kernel.
    pub pcap_job: Option<PcapJob>,
    /// Client reconfigurations waiting for the channel, oldest first. The
    /// head launches as soon as the channel frees, ahead of any kernel
    /// load. A queued VM's poll reads 0.
    pub pcap_queue: VecDeque<QueuedPcap>,
    /// Active software-fallback dispatches.
    pub shadows: Vec<SwShadow>,
    /// Bump cursor into the shadow-page pool.
    shadow_cursor: u64,
    /// Bump cursor into the bitstream store (see [`HwMgr::register_task`]).
    store_cursor: u64,
    /// Shadow pages returned by dropped dispatches, reused before
    /// the cursor advances.
    shadow_free: Vec<PhysAddr>,
    /// Escalate a hung region's run after this many cycles of continuous
    /// BUSY (ladder rung 1; regions with no client go straight to
    /// quarantine).
    pub watchdog_timeout: u64,
    /// Relocation hops consumed by a dispatch's current no-completion
    /// streak (bounds the ladder's rung 2; see
    /// [`crate::supervisor::MAX_RELOCATION_HOPS`]). Reset by a fresh
    /// request or a completed software round trip.
    pub relocations: BTreeMap<(VmId, HwTaskId), u8>,
    /// Interval between background scrubs of one quarantined region.
    pub scrub_interval: u64,
    /// Native-baseline mode: unified memory space, so the page-table
    /// update stages are skipped (§V-B: "in native uCOS-II, the hardware
    /// task manager service does not need to update the page tables").
    pub native: bool,
    /// Monotonic `ReqId` mint counter, advanced only by
    /// `HwMgr::mint_req`.
    pub next_req: u32,
    /// Per-interface-family latency objectives and windowed burn state.
    /// Unconditional like the mint counter: its counters feed
    /// `KernelStats`, which lockstep compares.
    pub slo: SloTracker,
    /// Completions buffered toward a descheduled owner: the request stays
    /// open (stage `virq:buffer`) until the owner is switched back in,
    /// where the `resume` hop closes it.
    pub pending_resume: Vec<PendingResume>,
    /// Registered shared-memory descriptor rings (one per VM × interface
    /// family; see [`super::ring`]).
    pub rings: Vec<super::ring::RingCtx>,
}

/// A completion buffered toward a VM that was not running when it was
/// delivered; consumed (and its request closed) when the VM resumes.
#[derive(Clone, Copy, Debug)]
pub struct PendingResume {
    /// The owner the completion is waiting on.
    pub vm: VmId,
    /// The open request the completion belongs to.
    pub req: ReqTag,
    /// Interface family (for the SLO observation at resume).
    pub iface: u8,
}

pub(crate) fn ctrl_reg(off: u64) -> PhysAddr {
    PhysAddr::new(PL_GP_BASE + off)
}

impl HwMgr {
    /// Build for a PL with `num_prrs` regions.
    pub fn new(num_prrs: usize, native: bool) -> Self {
        HwMgr {
            tasks: HwTaskTable::new(),
            prrs: PrrTable::new(num_prrs),
            irqs: PlIrqAllocator::new(),
            pcap_owner: None,
            pcap_job: None,
            pcap_queue: VecDeque::new(),
            shadows: Vec::new(),
            shadow_cursor: 0,
            store_cursor: layout::BITSTREAM_BASE.raw(),
            shadow_free: Vec::new(),
            watchdog_timeout: DEFAULT_WATCHDOG_TIMEOUT,
            relocations: BTreeMap::new(),
            scrub_interval: timing::SCRUB_INTERVAL,
            native,
            next_req: 0,
            slo: SloTracker::new(),
            pending_resume: Vec::new(),
            rings: Vec::new(),
        }
    }

    /// Mint the causal request for one hardware-task request (a
    /// `HwTaskRequest` hypercall or one ring descriptor) and open its
    /// span. The counter and the stat advance whether or not tracing is
    /// enabled, so instrumented and bare lockstep runs agree on every
    /// piece of kernel state.
    pub(crate) fn mint_req(&mut self, now: Cycles, sinks: &mut Sinks<'_>, vm: VmId) -> ReqTag {
        self.next_req = self.next_req.wrapping_add(1).max(1);
        let req = ReqTag {
            id: self.next_req,
            started: now.raw(),
        };
        sinks.stats.reqs_minted += 1;
        sinks.tracer.emit(
            now,
            TraceEvent::ReqSpan {
                req: req.id,
                vm: vm.0,
                end: false,
            },
        );
        req
    }

    /// Register a hardware task: encode its bitstream into the store and
    /// enter it into the lookup table. Returns the task id. Panics when
    /// the task fits no region of the paper fabric or the store is full.
    pub(crate) fn register_task(&mut self, m: &mut Machine, core: CoreKind) -> HwTaskId {
        let compat = FabricConfig::paper_fabric().compatible_prrs(core);
        assert!(!compat.is_empty(), "{} fits no PRR", core.name());
        let bytes = Bitstream::for_core(core, &compat).encode();
        let addr = PhysAddr::new(self.store_cursor);
        assert!(
            self.store_cursor + bytes.len() as u64
                <= layout::BITSTREAM_BASE.raw() + layout::BITSTREAM_LEN,
            "bitstream store full"
        );
        m.load_bytes(addr, &bytes).expect("store is RAM");
        self.store_cursor += (bytes.len() as u64).next_multiple_of(0x1000);
        let id = HwTaskId(self.tasks.len() as u16);
        self.tasks
            .register(id, core, addr, bytes.len() as u32, compat);
        id
    }

    /// Carve (or recycle) one zeroed 4 KB shadow page from the pool.
    fn alloc_shadow_page(&mut self, m: &mut Machine) -> Option<PhysAddr> {
        let pa = match self.shadow_free.pop() {
            Some(pa) => pa,
            None => {
                if self.shadow_cursor + mnv_hal::PAGE_SIZE > layout::SHADOW_LEN {
                    return None;
                }
                let pa = layout::SHADOW_BASE + self.shadow_cursor;
                self.shadow_cursor += mnv_hal::PAGE_SIZE;
                pa
            }
        };
        if m.phys_write_block(pa, &[0u8; mnv_hal::PAGE_SIZE as usize])
            .is_err()
        {
            self.shadow_free.push(pa);
            return None;
        }
        Some(pa)
    }

    /// Return a shadow page to the free pool.
    pub(crate) fn free_shadow_page(&mut self, pa: PhysAddr) {
        self.shadow_free.push(pa);
    }

    /// Shadow pages currently backing live dispatches.
    pub fn shadow_pages_live(&self) -> usize {
        self.shadows.len()
    }

    /// Shadow pages sitting in the free pool.
    pub fn shadow_pages_free(&self) -> usize {
        self.shadow_free.len()
    }

    /// Shadow pages ever carved from the pool (live + free when nothing
    /// leaks — the invariant checker's conservation law).
    pub fn shadow_pages_carved(&self) -> usize {
        (self.shadow_cursor / mnv_hal::PAGE_SIZE) as usize
    }

    /// Touch the manager's code path (instruction-fetch traffic).
    fn touch_code(&self, m: &mut Machine, lines: u64) {
        for i in 0..lines {
            let pa = ktext::HWMGR + i * 32;
            let cost = m
                .caches
                .access(pa, mnv_arm::cache::MemAccessKind::Fetch, false);
            m.charge(cost);
        }
    }

    /// Close an open request's root span after stamping `stage`,
    /// observing its end-to-end latency in the `req_latency` histogram
    /// (with the request id as the exemplar) and against the interface
    /// family's SLO. No-op for the absent tag.
    pub(crate) fn finish_req(
        &mut self,
        now: Cycles,
        sinks: &mut Sinks<'_>,
        req: ReqTag,
        vm: VmId,
        iface: u8,
        stage: u8,
    ) {
        if !req.is_open() {
            return;
        }
        sinks.end_req(now, req, vm, stage);
        let latency = now.raw().saturating_sub(req.started);
        let label = Label::Iface(iface_name(iface));
        sinks.metrics.observe("req_latency", label, latency, req.id);
        let outcome = self.slo.observe(iface, latency, now.raw());
        if outcome.violated {
            sinks.stats.slo_violations[iface as usize] += 1;
        }
        if let Some(violations) = outcome.burned {
            sinks.note(now, TraceEvent::SloBurn { iface, violations });
        }
    }

    /// Attach an open request to a PRR's completion slot. A stale request
    /// still parked there is closed as released first — its completion
    /// can no longer be told apart from the new one.
    fn attach_req(&mut self, now: Cycles, sinks: &Sinks<'_>, prr: u8, vm: VmId, req: ReqTag) {
        let old = std::mem::replace(self.prrs.req_slot(prr), req);
        sinks.end_req(now, old, vm, req_stage::RELEASED);
    }

    /// Interface family of the task currently resident in `prr`.
    pub(crate) fn prr_iface(&self, prr: u8) -> u8 {
        self.prrs
            .entry(prr)
            .task
            .and_then(|t| self.tasks.get(t))
            .map(|e| iface_of(e.core))
            .unwrap_or(0)
    }

    /// Close the `resume` hop of every completion buffered toward `vm` —
    /// called when the VM is switched in and its buffered vIRQs drain.
    pub(crate) fn drain_resumes(&mut self, now: Cycles, sinks: &mut Sinks<'_>, vm: VmId) {
        // Single pass: partition out this VM's entries in posting order,
        // keep everyone else's in place. (`Vec::remove` in a scan loop
        // shifted the tail on every hit — O(n²) under completion storms.)
        let pending = std::mem::take(&mut self.pending_resume);
        let mut mine = Vec::new();
        for p in pending {
            if p.vm == vm {
                mine.push(p);
            } else {
                self.pending_resume.push(p);
            }
        }
        for p in mine {
            self.finish_req(now, sinks, p.req, vm, p.iface, req_stage::RESUME);
        }
    }

    /// Drop every open request owned by `vm` (VM teardown): buffered
    /// resumes, PRR slots and shadow dispatches all close as failed.
    pub(crate) fn forget_vm_reqs(&mut self, now: Cycles, sinks: &Sinks<'_>, vm: VmId) {
        // Ring teardown first: its queued requests are owned by the ring
        // alone; an active run's request is caught by the sweeps below.
        self.forget_vm_rings(now, sinks, vm);
        // Same single-pass FIFO drain as `drain_resumes`.
        let pending = std::mem::take(&mut self.pending_resume);
        for p in pending {
            if p.vm == vm {
                sinks.end_req(now, p.req, vm, req_stage::FAILED);
            } else {
                self.pending_resume.push(p);
            }
        }
        for prr in 0..self.prrs.len() as u8 {
            if self.prrs.entry(prr).client == Some(vm) {
                let old = self.prrs.req_slot(prr).take();
                sinks.end_req(now, old, vm, req_stage::FAILED);
            }
        }
        for i in 0..self.shadows.len() {
            if self.shadows[i].vm == vm {
                let old = self.shadows[i].req.take();
                sinks.end_req(now, old, vm, req_stage::FAILED);
            }
        }
    }

    /// The manager's allocation algorithm: request validation, policy
    /// walk, bookkeeping. A fixed compute component (the dominant ~13 us
    /// of Table III's execution row, present natively too) plus a sweep of
    /// the manager's working data, which is what makes execution grow
    /// mildly with cache pressure as guest count rises.
    fn charge_allocation_work(&self, m: &mut Machine) {
        m.charge(9_300);
        for i in 0..150u64 {
            let addr = crate::mem::layout::HWMGR_BASE + 0x8000 + (i * 64) % 0x4000;
            let _ = m.phys_read_u32(addr);
        }
    }

    /// PRR device status via the controller (charged MMIO).
    pub(crate) fn prr_status(&self, m: &mut Machine, prr: u8) -> u32 {
        let page = Pl::prr_page(prr);
        m.phys_read_u32(page + 4 * prr_regs::STATUS as u64)
            .unwrap_or(prr_status::ERROR)
    }

    /// Stage 2 of Fig. 7: select a PRR for the task. Preference order:
    /// already-loaded idle region (no reconfiguration), then empty idle
    /// region, then reclaimable idle region held by another client.
    fn select_prr(&self, m: &mut Machine, entry_prrs: &[u8], task: HwTaskId) -> Option<u8> {
        let mut empty = None;
        let mut reclaim = None;
        for &p in entry_prrs {
            self.prrs.touch(m, p);
            if !self.prrs.entry(p).in_service() {
                continue; // out of service — the watchdog retired it
            }
            if matches!(self.pcap_job, Some(j) if j.prr == p && j.client().is_none()) {
                continue; // a kernel-initiated load holds the region
            }
            let status = self.prr_status(m, p);
            if status == prr_status::BUSY {
                continue;
            }
            let e = self.prrs.entry(p);
            if e.task == Some(task) && e.client.is_none() {
                return Some(p); // resident and free: best case
            }
            if e.client.is_none() {
                empty.get_or_insert(p);
            } else {
                reclaim.get_or_insert(p);
            }
        }
        empty.or(reclaim)
    }

    /// The Fig. 5 reclaim path: save the interface registers into the old
    /// client's data section, flag it inconsistent, demap its interface
    /// page and revoke its IRQ line. A reconfiguration of the region still
    /// queued or in flight for the old client is dropped, so the client's
    /// next poll reads 1 and its consistency check sends it back to Pick.
    fn reclaim(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        prr: u8,
        sinks: &mut Sinks<'_>,
    ) {
        let (old_vm, old_task, iface_va) = {
            let e = self.prrs.entry(prr);
            (e.client, e.task, e.iface_va)
        };
        let Some(old_vm) = old_vm else { return };
        sinks.stats.hwmgr.reclaims += 1;
        self.drop_jobs(m, pds, sinks, |vm, p| vm == old_vm && p == prr);

        // Save the 16 interface registers (charged MMIO reads).
        let page = Pl::prr_page(prr);
        let mut regs = [0u32; 16];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = m.phys_read_u32(page + (i as u64) * 4).unwrap_or(0);
        }

        if let Some(old) = pds.get_mut(&old_vm) {
            // Write the register image + inconsistency flag into the old
            // client's data section (Fig. 5: "the register group content of
            // T1 is saved to the VM1 hardware task data section, with a
            // state flag indicating to VM1 that T1 has been used by other
            // clients").
            if let Some(ds) = old.data_section {
                let mut bytes = Vec::with_capacity(16 * 4);
                for r in regs {
                    bytes.extend_from_slice(&r.to_le_bytes());
                }
                let _ = m.phys_write_block(ds.pa + data_section::SAVED_REGS, &bytes);
                let _ = m.phys_write_u32(
                    ds.pa + data_section::STATE_FLAG,
                    HwTaskState::Inconsistent as u32,
                );
                if let Some(t) = old_task {
                    let _ = m.phys_write_u32(ds.pa + data_section::SAVED_TASK, t.0 as u32);
                }
            }
            // Demap the interface page so any further access traps (the
            // second acknowledgement method of §IV-E).
            if !self.native {
                if let Some(va) = iface_va {
                    let _ = pagetable::unmap_page(m, old.l1, VirtAddr::new(va), old.asid);
                }
            }
            if let Some(t) = old_task {
                old.iface_maps.remove(&t);
                self.relocations.remove(&(old_vm, t));
            }
            // Revoke the IRQ route.
            if let Some(line) = self.irqs.free_prr(prr) {
                let _ = m.phys_write_u32(ctrl_reg(plregs::IRQ_ROUTE), ((prr as u32) << 8) | 0xFF);
                old.vgic.remove(line);
                m.gic.disable(line);
            }
        }
        self.prrs.entry_mut(m, prr).detach();
    }

    /// The HwTaskRequest hypercall body — stages 1..6 of Fig. 7. Returns
    /// the status value for the guest (Success / Reconfiguring), with the
    /// PRR in bits 15:8, the IRQ line in bits 23:16 and the degraded flag
    /// in bit 24 (see `mnv_hal::abi::hw_task_result`).
    #[allow(clippy::too_many_arguments)]
    pub fn handle_request(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        sinks: &mut Sinks<'_>,
        caller: VmId,
        task: HwTaskId,
        iface_va: VirtAddr,
        data_va: VirtAddr,
        req: ReqTag,
    ) -> Result<u32, HcError> {
        // Stage attribution brackets the whole allocation routine; the
        // caller's context (the HwTaskRequest hypercall) is restored on
        // every exit path, early returns included.
        let outer = sinks.profiler.swap_ctx(SampleCtx::DprStage(1));
        sinks.req_stamp(m.now(), req, 1);
        let r = self.request_inner(m, pds, pt, sinks, caller, task, iface_va, data_va, req);
        sinks.profiler.swap_ctx(outer);
        r
    }

    #[allow(clippy::too_many_arguments)]
    fn request_inner(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        sinks: &mut Sinks<'_>,
        caller: VmId,
        task: HwTaskId,
        iface_va: VirtAddr,
        data_va: VirtAddr,
        req: ReqTag,
    ) -> Result<u32, HcError> {
        self.touch_code(m, 24);
        sinks.stats.hwmgr.invocations += 1;
        self.charge_allocation_work(m);
        // A fresh request opens a fresh escalation budget.
        self.relocations.remove(&(caller, task));

        // Stage 1–2: look the task up and select a region.
        let (entry_prrs, core) = {
            let e = self.tasks.lookup(m, task).ok_or(HcError::NotFound)?;
            (e.prrs.clone(), e.core)
        };

        // Register (or refresh) the caller's data section.
        let ds = {
            let pd = pds.get_mut(&caller).ok_or(HcError::BadArg)?;
            // The interface page must be page-aligned and inside the
            // caller's guest window — a VA beyond it would let the guest
            // graft device mappings over foreign address space.
            if !iface_va.is_page_aligned() || iface_va.raw() >= pd.region_len {
                return Err(HcError::BadArg);
            }
            let pa = pd.guest_pa(data_va).ok_or(HcError::BadArg)?;
            let ds = DataSection {
                va: data_va,
                pa,
                len: DATA_SECTION_LEN,
            };
            pd.data_section = Some(ds);
            ds
        };

        // Fast path: the caller already holds this task.
        if let Some(prr) = self.prrs.find_dispatch(caller, task) {
            if self.prrs.entry(prr).in_service() {
                // Re-establish the interface mapping: a client that reuses
                // one interface slot across tasks has since pointed this VA
                // at another region's page, and the held dispatch would be
                // programmed through the wrong window.
                self.map_iface(m, pds, pt, caller, task, iface_va, Pl::prr_page(prr), prr)?;
                self.prrs.entry_mut(m, prr).iface_va = Some(iface_va.raw());
                self.program_hwmmu(m, prr, ds);
                self.attach_req(m.now(), sinks, prr, caller, req);
                let line = self
                    .irqs
                    .alloc(caller, prr)
                    .ok()
                    .and_then(|l| l.pl_index())
                    .unwrap_or(0xFF) as u32;
                return Ok(HwTaskStatus::Success as u32 | ((prr as u32) << 8) | (line << 16));
            }
            // Ladder rung 4 left the client bound to a region out of
            // service: release that dispatch and allocate afresh.
            self.handle_release(m, pds, sinks, caller, task)?;
        }

        // A degraded dispatch lives only in the shadow list. Probe for
        // hardware before settling for the shadow: if a compatible region
        // is idle or reclaimable, the shadow is torn down and the stages
        // below rebuild a real hardware dispatch (the one way back).
        if let Some(i) = self
            .shadows
            .iter()
            .position(|s| s.vm == caller && s.task == task)
        {
            if let Some(prr) = self.select_prr(m, &entry_prrs, task) {
                self.drop_shadow_of(m, pds, sinks, caller, task);
                if let Some(pd) = pds.get_mut(&caller) {
                    self.unmap_iface(m, pd, task);
                    pd.stats.repromotions += 1;
                }
                let ev = TraceEvent::Repromote {
                    vm: caller.0,
                    task: task.0 as u32,
                    prr,
                };
                sinks.note(m.now(), ev);
            } else {
                // Still degraded: point the interface VA back at the
                // shadow page, which another task's dispatch through the
                // same slot may have replaced.
                let page = self.shadows[i].page;
                let no_prr = hw_task_result::NO_PRR as u8;
                self.map_iface(m, pds, pt, caller, task, iface_va, page, no_prr)?;
                self.shadows[i].ds = ds;
                let old = std::mem::replace(&mut self.shadows[i].req, req);
                sinks.end_req(m.now(), old, caller, req_stage::RELEASED);
                sinks.req_stamp(m.now(), req, req_stage::SW_DISPATCH);
                return Ok(HwTaskStatus::Success as u32
                    | (hw_task_result::NO_PRR << 8)
                    | (hw_task_result::NO_LINE << 16)
                    | hw_task_result::DEGRADED);
            }
        }

        sinks.dpr_stage(m.now(), req, 2);
        let Some(prr) = self.select_prr(m, &entry_prrs, task) else {
            if !entry_prrs.is_empty()
                && entry_prrs.iter().all(|&p| !self.prrs.entry(p).in_service())
            {
                // Every region this task fits is out of service: degrade
                // to a pure-software dispatch instead of failing forever.
                return self
                    .dispatch_software(m, pds, pt, sinks, caller, task, core, iface_va, ds, req);
            }
            // Fig. 7 stage 2: "if no idle PRR is available, the manager
            // service would return to the applicant guest OS with a Busy
            // status".
            sinks.stats.hwmgr.busy += 1;
            return Err(HcError::Busy);
        };

        // Reclaim from a previous client if needed (consistency handling
        // between stages 2 and 3). The reclaim may drop a transfer that
        // never finished loading the region, so read the resident task
        // after it.
        if self.prrs.entry(prr).client.is_some() {
            self.reclaim(m, pds, prr, sinks);
        }
        let needs_reconfig = self.prrs.entry(prr).task != Some(task);
        if needs_reconfig {
            // A VM waits on one reconfiguration at a time: this request
            // supersedes an older one of the caller's, on another region,
            // whose dispatch is released as HwTaskRelease would release it
            // (before stage 3, as both may use one interface VA).
            let older = self
                .pcap_queue
                .iter()
                .find(|q| q.vm == caller)
                .map(|q| q.task)
                .or(self
                    .pcap_job
                    .filter(|j| j.client() == Some(caller))
                    .map(|j| j.task));
            if let Some(older) = older {
                self.handle_release(m, pds, sinks, caller, older)?;
            }
        }

        // Stage 3: map the interface page into the caller.
        sinks.dpr_stage(m.now(), req, 3);
        self.map_iface(m, pds, pt, caller, task, iface_va, Pl::prr_page(prr), prr)?;

        // Stage 4: load the hwMMU with the client's data section.
        sinks.dpr_stage(m.now(), req, 4);
        self.program_hwmmu(m, prr, ds);

        // §IV-D: allocate a PL IRQ line and register it in the vGIC. The
        // line index is reported back to the guest (bits 23:16 of the
        // result) so it can wire its local IRQ handling to it.
        let line = self
            .irqs
            .alloc(caller, prr)
            .map_err(|_| HcError::NoResource)?;
        // The allocator only hands out PL lines, but never trust that with
        // a panic on a guest-reachable path.
        let line_idx = line.pl_index().ok_or(HcError::NoResource)? as u32;
        let _ = m.phys_write_u32(ctrl_reg(plregs::IRQ_ROUTE), ((prr as u32) << 8) | line_idx);
        if let Some(pd) = pds.get_mut(&caller) {
            pd.vgic.enable(line);
        }
        m.gic.enable(line); // caller is the running VM

        // Initialise the consistency structure: the task now belongs to
        // this client.
        let _ = m.phys_write_u32(
            ds.pa + data_section::STATE_FLAG,
            HwTaskState::Consistent as u32,
        );
        let _ = m.phys_write_u32(ds.pa + data_section::SAVED_TASK, task.0 as u32);

        // Update the PRR table.
        {
            let e = self.prrs.entry_mut(m, prr);
            e.client = Some(caller);
            e.task = Some(task);
            e.iface_va = Some(iface_va.raw());
        }
        self.attach_req(m.now(), sinks, prr, caller, req);

        // Stage 5: launch the PCAP download if the task is not resident.
        if needs_reconfig {
            sinks.dpr_stage(m.now(), req, 5);
            sinks.stats.hwmgr.reconfigs += 1;
            // Client reconfigurations queue behind each other in arrival
            // order and pre-empt background scrub/relocation loads.
            let wait =
                self.pcap_job.is_some_and(|j| j.client().is_some()) || !self.pcap_queue.is_empty();
            self.pcap_queue.push_back(QueuedPcap {
                task,
                prr,
                vm: caller,
                req,
            });
            self.launch_queued(m, pds, sinks);
            // Stage 6: return immediately with the reconfig flag — the
            // manager "does not check the completion of the PCAP transfer".
            sinks.dpr_stage(m.now(), req, 6);
            if wait {
                // Stamped after stage 6, so the waterfall's `pcap:queued`
                // row spans the wait for the channel and `pcap:launch` the
                // transfer.
                sinks.req_stamp(m.now(), req, req_stage::PCAP_QUEUED);
            }
            return Ok(HwTaskStatus::Reconfiguring as u32 | ((prr as u32) << 8) | (line_idx << 16));
        }
        sinks.dpr_stage(m.now(), req, 6);
        Ok(HwTaskStatus::Success as u32 | ((prr as u32) << 8) | (line_idx << 16))
    }

    /// Map `caller`'s interface VA for `task` onto `page` and record the
    /// region behind it (`NO_PRR` for a shadow page). The VA may have
    /// pointed at another page until now (a client reusing one interface
    /// slot across tasks): the remap must shoot the stale translation down,
    /// or the guest's register writes keep reaching the old page.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn map_iface(
        &self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        caller: VmId,
        task: HwTaskId,
        iface_va: VirtAddr,
        page: PhysAddr,
        prr: u8,
    ) -> Result<(), HcError> {
        let pd = pds.get_mut(&caller).ok_or(HcError::BadArg)?;
        if !self.native {
            pagetable::map_page(
                m,
                pd.l1,
                iface_va,
                page,
                Domain::DEVICE,
                Ap::Full,
                true,
                false,
                pt,
            )
            .map_err(|_| HcError::NoResource)?;
            m.tlb_flush_mva(iface_va, pd.asid);
        }
        pd.iface_maps.insert(task, (iface_va, prr));
        Ok(())
    }

    /// Drop `task` from the client's interface map and unmap its VA.
    fn unmap_iface(&self, m: &mut Machine, pd: &mut Pd, task: HwTaskId) {
        if let Some((va, _)) = pd.iface_maps.remove(&task) {
            if !self.native {
                let _ = pagetable::unmap_page(m, pd.l1, va, pd.asid);
            }
        }
    }

    pub(crate) fn program_hwmmu(&self, m: &mut Machine, prr: u8, ds: DataSection) {
        let _ = m.phys_write_u32(ctrl_reg(plregs::HWMMU_SEL), prr as u32);
        let _ = m.phys_write_u32(ctrl_reg(plregs::HWMMU_BASE), ds.pa.raw() as u32);
        let _ = m.phys_write_u32(ctrl_reg(plregs::HWMMU_LEN), ds.len as u32);
    }

    /// HwTaskRelease: the client gives the task back; the region keeps the
    /// bitstream (future requests may hit the no-reconfig path).
    pub fn handle_release(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        sinks: &Sinks<'_>,
        caller: VmId,
        task: HwTaskId,
    ) -> Result<u32, HcError> {
        self.touch_code(m, 8);
        let Some(prr) = self.prrs.find_dispatch(caller, task) else {
            return self.release_shadow(m, pds, sinks, caller, task);
        };
        // A reconfiguration of the region still queued or loading is void
        // now; it is aborted before the request closes.
        self.drop_jobs(m, pds, sinks, |vm, p| vm == caller && p == prr);
        // A release closes whatever request was still waiting on the
        // dispatch — its completion will never be attributed.
        let old = self.prrs.req_slot(prr).take();
        sinks.end_req(m.now(), old, caller, req_stage::RELEASED);
        self.relocations.remove(&(caller, task));
        let pd = pds.get_mut(&caller).ok_or(HcError::BadArg)?;
        self.unmap_iface(m, pd, task);
        self.free_region(m, Some(pd), prr);
        Ok(0)
    }

    /// Free `prr` from its client: revoke the completion line and clear
    /// the hwMMU window (nothing may DMA on behalf of a released task).
    fn free_region(&mut self, m: &mut Machine, pd: Option<&mut Pd>, prr: u8) {
        if let Some(line) = self.irqs.free_prr(prr) {
            let _ = m.phys_write_u32(ctrl_reg(plregs::IRQ_ROUTE), ((prr as u32) << 8) | 0xFF);
            if let Some(pd) = pd {
                pd.vgic.remove(line);
            }
            m.gic.disable(line);
        }
        let _ = m.phys_write_u32(ctrl_reg(plregs::HWMMU_SEL), prr as u32);
        let _ = m.phys_write_u32(ctrl_reg(plregs::HWMMU_LEN), 0);
        self.prrs.entry_mut(m, prr).detach();
    }

    /// Tear down the shadow dispatch of (`vm`, `task`), if one exists:
    /// remove it from the service list, return its page to the pool and
    /// free its completion line, parked under the [`SHADOW_LINE_KEY`]
    /// pseudo-region.
    fn drop_shadow_of(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        sinks: &Sinks<'_>,
        vm: VmId,
        task: HwTaskId,
    ) {
        let Some(idx) = self
            .shadows
            .iter()
            .position(|s| s.vm == vm && s.task == task)
        else {
            return;
        };
        let s = self.shadows.remove(idx);
        sinks.end_req(m.now(), s.req, vm, req_stage::RELEASED);
        self.free_shadow_page(s.page);
        if let Some(line) = s.line {
            if let Some(li) = line.pl_index() {
                if self.irqs.free_prr(SHADOW_LINE_KEY | li as u8).is_some() {
                    if let Some(pd) = pds.get_mut(&vm) {
                        pd.vgic.remove(line);
                    }
                    m.gic.disable(line);
                }
            }
        }
    }

    /// Release a degraded dispatch (its shadow is its only record).
    fn release_shadow(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        sinks: &Sinks<'_>,
        caller: VmId,
        task: HwTaskId,
    ) -> Result<u32, HcError> {
        if !self
            .shadows
            .iter()
            .any(|s| s.vm == caller && s.task == task)
        {
            return Err(HcError::NotFound);
        }
        self.drop_shadow_of(m, pds, sinks, caller, task);
        self.relocations.remove(&(caller, task));
        let pd = pds.get_mut(&caller).ok_or(HcError::BadArg)?;
        self.unmap_iface(m, pd, task);
        Ok(0)
    }

    /// Dispatch a task in software only: map the client's interface VA to
    /// a fresh shadow register page and register the dispatch for the
    /// kernel's service loop. Used when every compatible region has been
    /// quarantined — degraded, but the guest's workload still completes.
    #[allow(clippy::too_many_arguments)]
    fn dispatch_software(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        sinks: &mut Sinks<'_>,
        caller: VmId,
        task: HwTaskId,
        core: CoreKind,
        iface_va: VirtAddr,
        ds: DataSection,
        req: ReqTag,
    ) -> Result<u32, HcError> {
        let page = self.alloc_shadow_page(m).ok_or(HcError::NoResource)?;
        let _ = m.phys_write_u32(page + 4 * prr_regs::STATUS as u64, prr_status::IDLE);
        let _ = m.phys_write_u32(page + 4 * prr_regs::CORE_KIND as u64, core.encode());

        let no_prr = hw_task_result::NO_PRR as u8;
        self.map_iface(m, pds, pt, caller, task, iface_va, page, no_prr)?;

        let _ = m.phys_write_u32(
            ds.pa + data_section::STATE_FLAG,
            HwTaskState::Consistent as u32,
        );
        let _ = m.phys_write_u32(ds.pa + data_section::SAVED_TASK, task.0 as u32);

        self.shadows.push(SwShadow {
            vm: caller,
            task,
            core,
            page,
            ds,
            line: None,
            req,
        });
        sinks.req_stamp(m.now(), req, req_stage::SW_DISPATCH);
        let ev = TraceEvent::SwFallback {
            vm: caller.0,
            task: task.0 as u32,
        };
        sinks.note(m.now(), ev);
        Ok(HwTaskStatus::Success as u32
            | (hw_task_result::NO_PRR << 8)
            | (hw_task_result::NO_LINE << 16)
            | hw_task_result::DEGRADED)
    }

    /// The reconfiguration watchdog and software-fallback service pass.
    /// Called from the kernel's main loop between scheduling slices; the
    /// kernel has the CPU, so everything here is charged kernel time.
    ///
    /// Four duties:
    /// 1. escalate a region whose STATUS has been BUSY for longer than
    ///    [`HwMgr::watchdog_timeout`] onto the hardware-task escalation
    ///    ladder (retry → relocate → software fallback → error), and
    ///    advance any open ladder past its rung deadline;
    /// 2. serve start requests the guests wrote into shadow pages;
    /// 3. settle the PCAP channel and drive the supervisor's background
    ///    fabric work (scrub and relocation loads);
    /// 4. service shared-ring batches whose owners are descheduled (see
    ///    [`super::ring`]).
    pub fn watchdog(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        sinks: &mut Sinks<'_>,
    ) {
        let now = m.now().raw();

        // 1. Hang detection and ladder advancement.
        for prr in 0..self.prrs.len() as u8 {
            if !self.prrs.entry(prr).in_service() {
                continue;
            }
            let status = self.prr_status(m, prr);
            let Some((busy_since, ladder)) = self.prrs.watch_slot(prr) else {
                continue;
            };
            if status != prr_status::BUSY {
                // The retried (or relocated-away) run resolved; close the
                // region's ladder.
                *busy_since = None;
                *ladder = None;
                continue;
            }
            let since = *busy_since.get_or_insert(now);
            let deadline = ladder.as_ref().map(|l| l.deadline);
            if let Some(deadline) = deadline {
                if now > deadline {
                    self.ladder_advance(m, pds, pt, sinks, prr, now);
                }
            } else if now.saturating_sub(since) > self.watchdog_timeout {
                if self.prrs.entry(prr).client.is_some() {
                    self.ladder_retry(m, sinks, prr, now);
                } else {
                    // No client to preserve: skip the ladder.
                    let _ = self.quarantine(m, pds, pt, sinks, prr);
                }
            }
        }

        // 2. Shadow service.
        self.serve_shadows(m, pds, sinks);

        // 3. The PCAP channel and background fabric maintenance.
        self.fabric_tick(m, pds, pt, sinks);

        // 4. Ring service: drive shared-ring batches whose owners are
        //    descheduled or idle (a running owner's poll path drives its
        //    own rings between these passes).
        self.ring_tick(m, pds, pt, sinks, None);
    }

    /// Take a hung region out of service and migrate its client to a
    /// shadow page, completing the wedged run in software (bit-identical
    /// output — the shadow runs the same functional model as the fabric).
    /// The migrated client is detached from the region: from here on the
    /// shadow is the dispatch's only record.
    ///
    /// Returns `true` when the region had no client, or its client was
    /// migrated successfully; `false` when a client exists but could not
    /// be migrated (the escalation ladder's final rung then reports the
    /// error to the guest, and the client stays bound to the region).
    pub(crate) fn quarantine(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        sinks: &mut Sinks<'_>,
        prr: u8,
    ) -> bool {
        // Read the dispatch first: a load given up with the region no
        // longer leaves it claiming the task.
        let (client, task, iface_va) = {
            let e = self.prrs.entry(prr);
            (e.client, e.task, e.iface_va)
        };
        self.take_out_of_service(m, pds, sinks, prr);
        let (Some(vm), Some(task), Some(iface_va)) = (client, task, iface_va) else {
            return true; // nobody was using it — just retired
        };
        let Some(core) = self.tasks.get(task).map(|e| e.core) else {
            return false;
        };
        let Some(ds) = pds.get(&vm).and_then(|pd| pd.data_section) else {
            return false;
        };
        let Some(page) = self.alloc_shadow_page(m) else {
            return false; // pool exhausted: region stays retired, no migration
        };
        self.prrs.entry_mut(m, prr).detach();

        // Copy the register group so the client's programming survives the
        // migration, then swing its interface mapping onto the shadow. A
        // map failure leaves the VA on the wedged device page, which is
        // still contained.
        let dev = Pl::prr_page(prr);
        let mut regs = [0u32; 16];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = m.phys_read_u32(dev + (i as u64) * 4).unwrap_or(0);
            let _ = m.phys_write_u32(page + (i as u64) * 4, *r);
        }
        let va = VirtAddr::new(iface_va);
        let no_prr = hw_task_result::NO_PRR as u8;
        let _ = self.map_iface(m, pds, pt, vm, task, va, page, no_prr);
        // Keep (or take) a completion line for the shadow service, then
        // park it under the pseudo-region key so the real region key is
        // free for reinstatement and reuse. The fabric route is cleared
        // either way — a wedged region must not raise completions.
        let line = self.irqs.alloc(vm, prr).ok();
        if let Some(li) = line.and_then(|l| l.pl_index()) {
            self.irqs.retarget_prr(prr, SHADOW_LINE_KEY | li as u8);
        }
        let _ = m.phys_write_u32(ctrl_reg(plregs::IRQ_ROUTE), ((prr as u32) << 8) | 0xFF);
        // The open request follows its client onto the shadow: whatever
        // completes the migrated dispatch closes it.
        let req = self.prrs.req_slot(prr).take();
        sinks.req_stamp(m.now(), req, req_stage::SW_DISPATCH);
        let mut shadow = SwShadow {
            vm,
            task,
            core,
            page,
            ds,
            line,
            req,
        };

        // The wedged run: the guest is polling STATUS (or waiting on the
        // completion IRQ) — finish it on the CPU now.
        if regs[prr_regs::STATUS] == prr_status::BUSY {
            self.serve_one(m, pds, sinks, &mut shadow, regs[prr_regs::CTRL]);
        }
        self.shadows.push(shadow);
        true
    }

    /// The steps every quarantine shares: record it (counted, traced and
    /// post-mortem-dumped by [`Sinks::note_dump`]), move the region to quarantine
    /// with a fresh scrub cycle, revoke its DMA rights and drop the loads
    /// into it. The client binding is the caller's to move.
    pub(crate) fn take_out_of_service(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        sinks: &mut Sinks<'_>,
        prr: u8,
    ) {
        let vm = self.prrs.entry(prr).client;
        sinks.note_dump(m, pds, vm, TraceEvent::PrrQuarantine { prr });
        self.prrs.entry_mut(m, prr).quarantine();
        // A wedged region must not keep DMA rights.
        let _ = m.phys_write_u32(ctrl_reg(plregs::HWMMU_SEL), prr as u32);
        let _ = m.phys_write_u32(ctrl_reg(plregs::HWMMU_LEN), 0);
        // A load into a region out of service would never be served; its
        // client stops waiting and follows the region's migration.
        self.drop_jobs(m, pds, sinks, |_, p| p == prr);
    }

    /// Serve pending start requests written into shadow register pages.
    fn serve_shadows(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        sinks: &mut Sinks<'_>,
    ) {
        for i in 0..self.shadows.len() {
            let mut s = self.shadows[i];
            let ctrl = m
                .phys_read_u32(s.page + 4 * prr_regs::CTRL as u64)
                .unwrap_or(0);
            if ctrl & prr_ctrl::START != 0 {
                self.serve_one(m, pds, sinks, &mut s, ctrl);
                self.shadows[i] = s;
            }
        }
    }

    /// Run one software-fallback request to completion: validate the DMA
    /// windows like the hwMMU would, run the functional model, publish the
    /// results into the shadow register group and deliver the completion.
    pub(crate) fn serve_one(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        sinks: &mut Sinks<'_>,
        s: &mut SwShadow,
        ctrl: u32,
    ) {
        let page = s.page;
        let ds = s.ds;
        let reg = move |m: &mut Machine, idx: usize| {
            m.phys_read_u32(page + 4 * idx as u64).unwrap_or(0) as u64
        };
        let src = reg(m, prr_regs::SRC_ADDR);
        let src_len = reg(m, prr_regs::SRC_LEN);
        let dst = reg(m, prr_regs::DST_ADDR);
        let dst_cap = reg(m, prr_regs::DST_LEN);

        let in_window = move |a: u64, l: u64| {
            a >= ds.pa.raw() && a.checked_add(l).is_some_and(|e| e <= ds.pa.raw() + ds.len)
        };
        let core = make_core(s.core);
        let out_len = core.output_len(src_len as usize) as u64;

        let fail = move |m: &mut Machine, code: u32| {
            let _ = m.phys_write_u32(page + 4 * prr_regs::STATUS as u64, prr_status::ERROR);
            let _ = m.phys_write_u32(page + 4 * prr_regs::PARAM0 as u64, code);
        };
        // Clear the START pulse either way (IRQ_EN is a level setting).
        let _ = m.phys_write_u32(page + 4 * prr_regs::CTRL as u64, ctrl & prr_ctrl::IRQ_EN);
        if !in_window(src, src_len) || !in_window(dst, out_len) {
            fail(m, prr_errcode::HWMMU_VIOLATION);
            sinks.end_req(m.now(), s.req.take(), s.vm, req_stage::FAILED);
            return;
        }
        if out_len > dst_cap {
            fail(m, prr_errcode::DST_OVERFLOW);
            sinks.end_req(m.now(), s.req.take(), s.vm, req_stage::FAILED);
            return;
        }

        let mut input = vec![0u8; src_len as usize];
        if m.phys_read_block(PhysAddr::new(src), &mut input).is_err() {
            fail(m, prr_errcode::HWMMU_VIOLATION);
            sinks.end_req(m.now(), s.req.take(), s.vm, req_stage::FAILED);
            return;
        }
        // The same functional model the fabric runs — the output bytes are
        // bit-identical; only the time cost differs.
        let output = core.process(&input);
        let sw_cycles = core.compute_cycles(src_len as usize) * SW_SLOWDOWN;
        m.charge(sw_cycles);
        if m.phys_write_block(PhysAddr::new(dst), &output).is_err() {
            fail(m, prr_errcode::HWMMU_VIOLATION);
            sinks.end_req(m.now(), s.req.take(), s.vm, req_stage::FAILED);
            return;
        }
        let _ = m.phys_write_u32(page + 4 * prr_regs::RESULT_LEN as u64, output.len() as u32);
        let _ = m.phys_write_u32(page + 4 * prr_regs::PERF_CYCLES as u64, sw_cycles as u32);
        let _ = m.phys_write_u32(page + 4 * prr_regs::STATUS as u64, prr_status::DONE);

        // A completed (software) round trip ends the no-completion streak.
        self.relocations.remove(&(s.vm, s.task));
        let ev = TraceEvent::SwFallback {
            vm: s.vm.0,
            task: s.task.0 as u32,
        };
        sinks.note(m.now(), ev);
        // Completion delivery: buffer the vIRQ like the vGIC routing path
        // does for an inactive owner, and wake the VM.
        let req = s.req.take();
        let mut buffered = false;
        if ctrl & prr_ctrl::IRQ_EN != 0 {
            if let (Some(line), Some(pd)) = (s.line, pds.get_mut(&s.vm)) {
                pd.vgic.buffer(line);
                if pd.vgic.is_enabled(line) {
                    pd.wake_at = 0;
                }
                buffered = true;
            }
        }
        if buffered && req.is_open() {
            // The request stays open through the buffered delivery; the
            // owner's next switch-in closes it at the `resume` hop.
            sinks.req_stamp(m.now(), req, req_stage::SW_DONE);
            sinks.req_stamp(m.now(), req, req_stage::VIRQ_BUFFER);
            self.pending_resume.push(PendingResume {
                vm: s.vm,
                req,
                iface: iface_of(s.core),
            });
        } else {
            // Polling dispatch: publishing DONE is the completion.
            self.finish_req(
                m.now(),
                sinks,
                req,
                s.vm,
                iface_of(s.core),
                req_stage::SW_DONE,
            );
        }
    }

    /// HwTaskQuery: consistency state of `task` as seen by `caller`.
    pub fn handle_query(
        &mut self,
        m: &mut Machine,
        pds: &BTreeMap<VmId, Pd>,
        caller: VmId,
        task: HwTaskId,
    ) -> Result<u32, HcError> {
        self.touch_code(m, 4);
        if self.prrs.find_dispatch(caller, task).is_some() {
            return Ok(HwTaskState::Consistent as u32);
        }
        let pd = pds.get(&caller).ok_or(HcError::BadArg)?;
        if let Some(ds) = pd.data_section {
            let saved = m
                .phys_read_u32(ds.pa + data_section::SAVED_TASK)
                .unwrap_or(0);
            if saved == task.0 as u32 {
                let flag = m
                    .phys_read_u32(ds.pa + data_section::STATE_FLAG)
                    .unwrap_or(0);
                return Ok(flag);
            }
        }
        Ok(HwTaskState::Unknown as u32)
    }

    /// Program the PCAP engine to load `task`'s bitstream into `prr` and
    /// start it; the transfer becomes the channel's one job. Only a client
    /// reconfiguration raises PCAP_DONE: kernel loads complete by poll, so
    /// the line stays with the VM that launched a client transfer.
    pub(crate) fn launch_pcap(
        &mut self,
        m: &mut Machine,
        task: HwTaskId,
        prr: u8,
        kind: PcapJobKind,
    ) {
        let Some((bit_addr, bit_len)) = self.tasks.get(task).map(|e| (e.bit_addr, e.bit_len))
        else {
            return;
        };
        let irq_en = matches!(kind, PcapJobKind::Client { .. }) as u32;
        let _ = m.phys_write_u32(ctrl_reg(plregs::PCAP_SRC), bit_addr.raw() as u32);
        let _ = m.phys_write_u32(ctrl_reg(plregs::PCAP_LEN), bit_len);
        let _ = m.phys_write_u32(ctrl_reg(plregs::PCAP_TARGET), prr as u32);
        let _ = m.phys_write_u32(ctrl_reg(plregs::PCAP_IRQ_EN), irq_en);
        let _ = m.phys_write_u32(ctrl_reg(plregs::PCAP_CTRL), 1);
        self.pcap_job = Some(PcapJob {
            task,
            prr,
            bit_len,
            started_at: m.now().raw(),
            kind,
        });
    }

    /// Empty the channel's slot. The PCAP owner, if any, stops waiting:
    /// the slot, `pcap_owner` and `Pd::pcap_pending` change together.
    fn vacate(&mut self, pds: &mut BTreeMap<VmId, Pd>) {
        if let Some(pd) = self.pcap_owner.take().and_then(|vm| pds.get_mut(&vm)) {
            pd.pcap_pending = None;
        }
        self.pcap_job = None;
    }

    /// PcapPoll: 1 once the caller waits on no reconfiguration. A waiting
    /// caller (the PCAP owner or a queued client) settles the channel
    /// first, so a queued client's poll also moves a descheduled owner's
    /// transfer on.
    pub fn handle_pcap_poll(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        sinks: &mut Sinks<'_>,
        caller: VmId,
    ) -> Result<u32, HcError> {
        pds.get(&caller).ok_or(HcError::BadArg)?;
        let waiting = |mgr: &Self| {
            mgr.pcap_owner == Some(caller) || mgr.pcap_queue.iter().any(|q| q.vm == caller)
        };
        if !waiting(self) {
            return Ok(1);
        }
        self.settle(m, pds, pt, sinks, false);
        Ok(!waiting(self) as u32)
    }

    /// Resolve whatever the channel's slot holds from one PCAP_STATUS read
    /// — the channel's one way forward, called by a waiting client's poll
    /// and by the fabric tick (`tick`).
    ///
    /// The tick is the channel's watchdog: a transfer past its stall
    /// deadline is aborted and handled as failed. A DONE client transfer
    /// completes; a failed one is relaunched with backoff up to
    /// [`MAX_PCAP_RETRIES`] times, after which its region is quarantined
    /// and the client degrades to the software fallback (its poll still
    /// reads 1). A kernel load completes or fails by kind. The tick leaves
    /// a client transfer with nobody queued behind it to its owner's poll.
    /// Once the slot empties, the next queued client job launches.
    pub(crate) fn settle(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        sinks: &mut Sinks<'_>,
        tick: bool,
    ) {
        let Some(job) = self.pcap_job else { return };
        let mut status = m
            .phys_read_u32(ctrl_reg(plregs::PCAP_STATUS))
            .unwrap_or(pcap_status::ERROR);
        if status != pcap_status::DONE && status != pcap_status::ERROR {
            if !tick || m.now().raw() <= job.stall_deadline() {
                return; // still in flight
            }
            let _ = m.phys_write_u32(ctrl_reg(plregs::PCAP_CTRL), 0b10);
            status = pcap_status::ERROR;
            if let PcapJobKind::Client { vm, req, .. } = job.kind {
                sinks.req_stamp(m.now(), req, req_stage::PCAP_ABORT);
                sinks.dump(m, pds, Some(vm), "pcap-watchdog-abort");
            }
        }
        let done = status == pcap_status::DONE;
        if let PcapJobKind::Client { vm, attempts, req } = job.kind {
            if tick && self.pcap_queue.is_empty() {
                // Left to the owner's poll, which keeps every simulated
                // count of a single-client run unchanged.
                return;
            }
            if !done && attempts < MAX_PCAP_RETRIES {
                let attempts = attempts + 1;
                let ev = TraceEvent::PcapRetry {
                    prr: job.prr,
                    attempt: attempts,
                };
                sinks.note(m.now(), ev);
                sinks.req_stamp(m.now(), req, req_stage::PCAP_RETRY);
                // Exponential backoff, then relaunch the transfer.
                m.charge(timing::PCAP_RETRY_BACKOFF_BASE << attempts);
                let kind = PcapJobKind::Client { vm, attempts, req };
                self.launch_pcap(m, job.task, job.prr, kind);
                return;
            }
        }
        self.vacate(pds);
        match job.kind {
            PcapJobKind::Client { req, .. } if done => {
                sinks.req_stamp(m.now(), req, req_stage::PCAP_DONE);
                let latency = m.now().raw().saturating_sub(job.started_at);
                sinks
                    .metrics
                    .observe("pcap_latency", Label::Prr(job.prr), latency, req.id);
            }
            PcapJobKind::Client { req, .. } => {
                // Retries exhausted: the transfer path to this region is
                // persistently failing (e.g. a damaged bitstream store).
                // Quarantine it and serve the client on the CPU — the
                // reconfiguration completes, degraded.
                sinks.req_stamp(m.now(), req, req_stage::PCAP_ABORT);
                let _ = self.quarantine(m, pds, pt, sinks, job.prr);
            }
            PcapJobKind::Scrub => self.scrub_done(m, sinks, job, done),
            PcapJobKind::Relocate { vm, from } => {
                self.relocation_load_done(m, pds, pt, sinks, job, vm, from, done)
            }
        }
        self.launch_queued(m, pds, sinks);
    }

    /// Start the oldest queued client job unless another client's transfer
    /// holds the channel; a kernel load in flight is aborted (clients
    /// pre-empt kernel loads). The launched job's VM becomes the PCAP owner
    /// and waits on it. Returns whether a job started.
    pub(crate) fn launch_queued(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        sinks: &Sinks<'_>,
    ) -> bool {
        if self.pcap_job.is_some_and(|j| j.client().is_some()) {
            return false;
        }
        let Some(QueuedPcap { task, prr, vm, req }) = self.pcap_queue.pop_front() else {
            return false;
        };
        self.cancel_kernel_job(m);
        let kind = PcapJobKind::Client {
            vm,
            attempts: 0,
            req,
        };
        self.launch_pcap(m, task, prr, kind);
        self.pcap_owner = Some(vm);
        sinks.req_stamp(m.now(), req, req_stage::PCAP_LAUNCH);
        if let Some(pd) = pds.get_mut(&vm) {
            pd.pcap_pending = Some(task);
        }
        true
    }

    /// Give up the client jobs `hit(vm, prr)` selects, queued or in flight
    /// — the channel's one drop path (stage-5 supersede, reclaim, release,
    /// quarantine, teardown). An in-flight job is aborted and stamped
    /// `pcap:abort`, and the channel passes to the next queued client. A
    /// dropped job's region no longer claims its task, since the bitstream
    /// never finished loading.
    pub(crate) fn drop_jobs(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        sinks: &Sinks<'_>,
        hit: impl Fn(VmId, u8) -> bool,
    ) {
        let mut regions = Vec::new();
        self.pcap_queue.retain(|q| {
            let drop = hit(q.vm, q.prr);
            if drop {
                regions.push(q.prr);
            }
            !drop
        });
        if let Some(PcapJob {
            prr,
            kind: PcapJobKind::Client { vm, req, .. },
            ..
        }) = self.pcap_job
        {
            if hit(vm, prr) {
                self.vacate(pds);
                let _ = m.phys_write_u32(ctrl_reg(plregs::PCAP_CTRL), 0b10);
                sinks.req_stamp(m.now(), req, req_stage::PCAP_ABORT);
                regions.push(prr);
            }
        }
        for p in regions {
            self.prrs.entry_mut(m, p).task = None;
        }
        self.launch_queued(m, pds, sinks);
    }

    /// Convenience for tests: PRR interface page physical address.
    pub fn iface_page(prr: u8) -> PhysAddr {
        PhysAddr::new(PL_GP_BASE + (1 + prr as u64) * PAGE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hypercall::hypercall;
    use crate::kernel::{GuestKind, Kernel, KernelConfig, VmSpec};
    use crate::stats::KernelStats;
    use mnv_hal::abi::{Hypercall, HypercallArgs};
    use mnv_hal::Priority;
    use mnv_metrics::Registry;
    use mnv_profile::Profiler;
    use mnv_trace::Tracer;
    use mnv_ucos::kernel::{Ucos, UcosConfig};
    use mnv_ucos::layout::{hwiface_slot, HWDATA_BASE};

    fn tag(id: u32) -> ReqTag {
        ReqTag { id, started: 0 }
    }

    fn pend(vm: u16, id: u32) -> PendingResume {
        PendingResume {
            vm: VmId(vm),
            req: tag(id),
            iface: 0,
        }
    }

    #[test]
    fn drain_resumes_preserves_posting_order_per_vm() {
        // Regression: the old `Vec::remove(i)` scan both re-shifted the
        // tail (O(n²) under completion storms) and was easy to get wrong
        // around index advancement. The drain must close VM 1's requests
        // in exactly the order they were buffered, and leave VM 2's
        // entries untouched and in order.
        let mut mgr = HwMgr::new(4, false);
        let tracer = Tracer::enabled(64);
        let mut sinks = Sinks {
            tracer: &tracer,
            stats: &mut KernelStats::default(),
            metrics: &Registry::disabled(),
            profiler: &Profiler::disabled(),
        };
        for p in [pend(1, 1), pend(2, 10), pend(1, 2), pend(2, 11), pend(1, 3)] {
            mgr.pending_resume.push(p);
        }
        mgr.drain_resumes(Cycles::new(0), &mut sinks, VmId(1));

        let resumed: Vec<u32> = tracer
            .snapshot()
            .into_iter()
            .filter_map(|(_, ev)| match ev {
                TraceEvent::ReqStage { req, stage } if stage == req_stage::RESUME => Some(req),
                _ => None,
            })
            .collect();
        assert_eq!(resumed, vec![1, 2, 3], "VM 1 closes in posting order");
        let left: Vec<(VmId, u32)> = mgr
            .pending_resume
            .iter()
            .map(|p| (p.vm, p.req.id))
            .collect();
        assert_eq!(
            left,
            vec![(VmId(2), 10), (VmId(2), 11)],
            "other VMs keep their entries, in order"
        );
    }

    /// A kernel with `n` idle uC/OS guests (their OSes never run: the
    /// tests issue hypercalls on their behalf) and the paper task set.
    fn pcap_kernel(n: usize) -> (Kernel, Vec<HwTaskId>, Vec<VmId>) {
        let mut k = Kernel::new(KernelConfig::default());
        let ids = k.register_paper_task_set();
        let vms = (0..n)
            .map(|_| {
                k.create_vm(VmSpec {
                    name: "g",
                    priority: Priority::GUEST,
                    guest: GuestKind::Ucos(Box::new(Ucos::new(UcosConfig::default()))),
                })
            })
            .collect();
        (k, ids, vms)
    }

    fn call(k: &mut Kernel, vm: VmId, args: HypercallArgs) -> Result<u32, HcError> {
        hypercall(&mut k.machine, &mut k.state, vm, args)
    }

    /// HwTaskRequest; returns (status, region).
    fn request(k: &mut Kernel, vm: VmId, task: HwTaskId) -> (HwTaskStatus, u8) {
        let args = HypercallArgs::new(Hypercall::HwTaskRequest)
            .a0(task.0 as u32)
            .a1(hwiface_slot(0).raw() as u32)
            .a2(HWDATA_BASE.raw() as u32);
        let r = call(k, vm, args).expect("request granted");
        (HwTaskStatus::from_u32(r & 0xFF).unwrap(), (r >> 8) as u8)
    }

    fn poll(k: &mut Kernel, vm: VmId) -> u32 {
        call(k, vm, HypercallArgs::new(Hypercall::PcapPoll)).unwrap()
    }

    /// Let simulated time pass until the in-flight transfer has finished.
    fn finish_transfer(k: &mut Kernel) {
        for _ in 0..10_000 {
            let st = k
                .machine
                .phys_read_u32(ctrl_reg(plregs::PCAP_STATUS))
                .unwrap();
            if st != pcap_status::BUSY {
                return;
            }
            k.machine.charge(20_000);
            k.machine.sync_devices();
        }
        panic!("PCAP transfer never finished");
    }

    fn queued_vms(k: &Kernel) -> Vec<VmId> {
        k.state.hwmgr.pcap_queue.iter().map(|q| q.vm).collect()
    }

    fn invariants(k: &Kernel) {
        k.check_recovery_invariants().unwrap();
    }

    #[test]
    fn queued_clients_are_served_in_arrival_order() {
        let (mut k, ids, vms) = pcap_kernel(3);
        let (v1, v2, v3) = (vms[0], vms[1], vms[2]);
        for (&vm, &task) in vms.iter().zip(&ids[6..9]) {
            assert_eq!(request(&mut k, vm, task).0, HwTaskStatus::Reconfiguring);
            invariants(&k);
        }
        assert_eq!(k.state.hwmgr.pcap_owner, Some(v1));
        assert_eq!(queued_vms(&k), vec![v2, v3]);
        // Queued VMs wait; only the owner holds `pcap_pending`.
        assert_eq!((poll(&mut k, v2), poll(&mut k, v3)), (0, 0));
        assert!(k.pd(v2).pcap_pending.is_none());
        for (i, &vm) in vms.iter().enumerate() {
            finish_transfer(&mut k);
            // The channel passes on at the owner's DONE poll, not before.
            for &later in &vms[i + 1..] {
                assert_eq!(poll(&mut k, later), 0);
            }
            assert_eq!(poll(&mut k, vm), 1);
            invariants(&k);
            assert_eq!(k.state.hwmgr.pcap_owner, vms.get(i + 1).copied());
        }
        assert!(k.state.hwmgr.pcap_queue.is_empty());
        assert_eq!(k.pl().pcap_transfers(), 3);
    }

    #[test]
    fn a_queued_request_stamps_its_wait_apart_from_its_transfer() {
        let (mut k, ids, vms) = pcap_kernel(2);
        let tracer = k.enable_tracing(4096);
        request(&mut k, vms[0], ids[6]);
        request(&mut k, vms[1], ids[7]);
        finish_transfer(&mut k);
        assert_eq!(poll(&mut k, vms[0]), 1);
        let events = tracer.snapshot();
        let req = events
            .iter()
            .find_map(|(_, ev)| match *ev {
                TraceEvent::ReqSpan {
                    req,
                    vm,
                    end: false,
                } if vm == vms[1].0 => Some(req),
                _ => None,
            })
            .expect("second request minted");
        let stamps: Vec<(u64, u8)> = events
            .iter()
            .filter_map(|(t, ev)| match *ev {
                TraceEvent::ReqStage { req: r, stage } if r == req && stage >= 5 => {
                    Some((t.raw(), stage))
                }
                _ => None,
            })
            .collect();
        let order: Vec<u8> = stamps.iter().map(|s| s.1).collect();
        use req_stage::{PCAP_LAUNCH, PCAP_QUEUED};
        assert_eq!(order, vec![5, 6, PCAP_QUEUED, PCAP_LAUNCH], "{stamps:?}");
        // The launch waits out the first client's whole transfer (every
        // bitstream is over 32 KB).
        let wait = stamps[3].0 - stamps[2].0;
        assert!(wait > pcap_transfer_cycles(32 << 10), "{stamps:?}");
    }

    #[test]
    fn reclaiming_a_queued_region_sends_its_client_back_to_pick() {
        let (mut k, ids, vms) = pcap_kernel(3);
        let (v1, v2, v3) = (vms[0], vms[1], vms[2]);
        // FFTs fit PRR0 and PRR1 only. v1 loads PRR0; v2 waits for PRR1.
        let (_, p1) = request(&mut k, v1, ids[0]);
        let (_, p2) = request(&mut k, v2, ids[1]);
        assert_ne!(p1, p2);
        finish_transfer(&mut k);
        assert_eq!(poll(&mut k, v1), 1);
        // v2's job now holds the channel; v3 reclaims v1's idle region and
        // queues behind it.
        assert_eq!(k.state.hwmgr.pcap_owner, Some(v2));
        let (st, p3) = request(&mut k, v3, ids[2]);
        assert_eq!((st, p3), (HwTaskStatus::Reconfiguring, p1));
        assert_eq!(queued_vms(&k), vec![v3]);
        assert_eq!(poll(&mut k, v3), 0);
        // v1 takes the region back before v3's load ever started, asking
        // for the task v3 queued: it was never loaded, so v1 reconfigures.
        let (st, p) = request(&mut k, v1, ids[2]);
        assert_eq!((st, p), (HwTaskStatus::Reconfiguring, p1));
        assert_eq!(queued_vms(&k), vec![v1]);
        invariants(&k);
        // The victim stops waiting and finds its dispatch inconsistent.
        assert_eq!(poll(&mut k, v3), 1);
        let ds = k.pd(v3).data_section.unwrap();
        let flag = k.machine.phys_read_u32(ds.pa + data_section::STATE_FLAG);
        assert_eq!(flag.ok(), Some(HwTaskState::Inconsistent as u32));
    }

    #[test]
    fn killing_a_queued_vm_or_the_owner_passes_the_channel_on() {
        let (mut k, ids, vms) = pcap_kernel(3);
        let (v1, v2, v3) = (vms[0], vms[1], vms[2]);
        for (&vm, &task) in vms.iter().zip(&ids[6..9]) {
            request(&mut k, vm, task);
        }
        k.destroy_vm(v2);
        invariants(&k);
        assert_eq!(queued_vms(&k), vec![v3]);
        assert_eq!(k.state.hwmgr.pcap_owner, Some(v1));
        let p1 = k.state.hwmgr.pcap_job.unwrap().prr;
        k.destroy_vm(v1);
        invariants(&k);
        assert_eq!(k.state.hwmgr.pcap_owner, Some(v3));
        assert!(k.pd(v3).pcap_pending.is_some());
        // v1's load was aborted for v3's: its region must not claim the
        // task, or the next request for it would skip the reconfiguration.
        assert_eq!(k.state.hwmgr.prrs.entry(p1).task, None);
        finish_transfer(&mut k);
        assert_eq!(poll(&mut k, v3), 1);
        invariants(&k);
        let (st, _) = request(&mut k, v3, ids[6]);
        assert_eq!(st, HwTaskStatus::Reconfiguring);
    }

    /// The core `task` loads into a region.
    fn core_of(k: &Kernel, task: HwTaskId) -> CoreKind {
        k.state.hwmgr.tasks.get(task).unwrap().core
    }

    /// After v1's load of `task` into `p` was given up, v2 asks for the
    /// same task: it must reconfigure the region, and its poll must read 1
    /// only once the region really holds the task's core.
    fn second_requester_waits_for_the_core(k: &mut Kernel, v2: VmId, task: HwTaskId, p: u8) {
        assert_eq!(request(k, v2, task), (HwTaskStatus::Reconfiguring, p));
        invariants(k);
        assert_ne!(k.pl().prr(p).loaded_kind(), Some(core_of(k, task)));
        assert_eq!(poll(k, v2), 0);
        finish_transfer(k);
        assert_eq!(poll(k, v2), 1);
        assert_eq!(k.pl().prr(p).loaded_kind(), Some(core_of(k, task)));
        invariants(k);
    }

    #[test]
    fn releasing_a_loading_task_aborts_its_transfer() {
        let (mut k, ids, vms) = pcap_kernel(2);
        let (st, p) = request(&mut k, vms[0], ids[6]);
        assert_eq!(st, HwTaskStatus::Reconfiguring);
        let args = HypercallArgs::new(Hypercall::HwTaskRelease).a0(ids[6].0 as u32);
        call(&mut k, vms[0], args).unwrap();
        invariants(&k);
        assert!(k.state.hwmgr.pcap_job.is_none());
        assert_eq!(k.state.hwmgr.prrs.entry(p).task, None);
        second_requester_waits_for_the_core(&mut k, vms[1], ids[6], p);
    }

    #[test]
    fn killing_the_sole_client_mid_load_aborts_its_transfer() {
        let (mut k, ids, vms) = pcap_kernel(2);
        let (st, p) = request(&mut k, vms[0], ids[6]);
        assert_eq!(st, HwTaskStatus::Reconfiguring);
        k.destroy_vm(vms[0]);
        invariants(&k);
        assert!(k.state.hwmgr.pcap_job.is_none());
        assert_eq!(k.state.hwmgr.prrs.entry(p).task, None);
        second_requester_waits_for_the_core(&mut k, vms[1], ids[6], p);
    }

    #[test]
    fn a_busy_engine_outside_the_slot_breaks_the_invariant() {
        // The state a dead sole client's teardown used to leave behind: the
        // slot emptied while its transfer kept running.
        let (mut k, ids, vms) = pcap_kernel(1);
        request(&mut k, vms[0], ids[6]);
        invariants(&k);
        let mgr = &mut k.state.hwmgr;
        mgr.pcap_job = None;
        mgr.pcap_owner = None;
        k.state.pds.get_mut(&vms[0]).unwrap().pcap_pending = None;
        let err = k.check_recovery_invariants().unwrap_err();
        assert!(err.contains("PCAP engine busy"), "{err}");
    }

    #[test]
    fn a_failing_transfer_behind_a_descheduled_owner_passes_the_channel_on() {
        let (mut k, ids, vms) = pcap_kernel(2);
        let (v1, v2) = (vms[0], vms[1]);
        // Damage v1's bitstream payload in RAM: every attempt fails its CRC.
        let bits = k.state.hwmgr.tasks.get(ids[6]).unwrap().bit_addr;
        let word = bits + mnv_fpga::bitstream::HEADER_LEN as u64 + 16;
        let v = k.machine.phys_read_u32(word).unwrap();
        k.machine.phys_write_u32(word, !v).unwrap();
        let (_, p1) = request(&mut k, v1, ids[6]);
        request(&mut k, v2, ids[7]);
        assert_eq!(queued_vms(&k), vec![v2]);
        // v1 is never polled: only the fabric tick drives the channel.
        for _ in 0..2_000 {
            if k.state.hwmgr.pcap_owner == Some(v2) {
                break;
            }
            k.machine.charge(20_000);
            let (hwmgr, pds, pt, mut sinks) = k.state.manager();
            hwmgr.watchdog(&mut k.machine, pds, pt, &mut sinks);
            invariants(&k);
        }
        assert_eq!(
            k.state.hwmgr.pcap_owner,
            Some(v2),
            "v2's job never launched"
        );
        assert_eq!(k.state.stats.hwmgr.pcap_retries, MAX_PCAP_RETRIES as u64);
        assert!(!k.state.hwmgr.prrs.entry(p1).in_service());
        // The owner degraded to the software fallback; its poll reads 1.
        assert!(k.state.hwmgr.shadows.iter().any(|s| s.vm == v1));
        assert_eq!(poll(&mut k, v1), 1);
        finish_transfer(&mut k);
        assert_eq!(poll(&mut k, v2), 1);
        invariants(&k);
    }

    #[test]
    fn a_displaced_pcap_owner_breaks_the_invariant() {
        // The state stage 5 used to leave behind: a second client's job
        // replaced the first's and took `pcap_owner`, while the first VM
        // still waited on a transfer no poll could ever complete.
        let (mut k, ids, vms) = pcap_kernel(2);
        let (v1, v2) = (vms[0], vms[1]);
        request(&mut k, v1, ids[6]);
        invariants(&k);
        let mgr = &mut k.state.hwmgr;
        let job = mgr.pcap_job.as_mut().unwrap();
        let PcapJobKind::Client { attempts, req, .. } = job.kind else {
            panic!("client job expected");
        };
        job.kind = PcapJobKind::Client {
            vm: v2,
            attempts,
            req,
        };
        mgr.pcap_owner = Some(v2);
        k.state.pds.get_mut(&v2).unwrap().pcap_pending = Some(ids[7]);
        let err = k.check_recovery_invariants().unwrap_err();
        assert!(err.contains(&format!("vm{} pcap_pending", v1.0)), "{err}");
    }

    #[test]
    fn a_degraded_answer_remaps_the_interface() {
        let (mut k, ids, vms) = pcap_kernel(1);
        let vm = vms[0];
        for p in [0, 1] {
            k.state.hwmgr.prrs.entry_mut(&mut k.machine, p).quarantine();
        }
        let raw = |k: &mut Kernel, task: HwTaskId| {
            let args = HypercallArgs::new(Hypercall::HwTaskRequest)
                .a0(task.0 as u32)
                .a1(hwiface_slot(0).raw() as u32)
                .a2(HWDATA_BASE.raw() as u32);
            call(k, vm, args).expect("request answered")
        };
        let walk = |k: &mut Kernel| {
            let l1 = k.pd(vm).l1;
            pagetable::walk(&mut k.machine, l1, hwiface_slot(0)).map(|pa| pa.raw())
        };
        // FFTs fit PRR0 and PRR1 only: a pure-software shadow.
        assert_ne!(raw(&mut k, ids[0]) & hw_task_result::DEGRADED, 0);
        let page = k.state.hwmgr.shadows[0].page;
        // QAM-4 through the same interface slot lands on PRR2.
        assert_eq!(
            request(&mut k, vm, ids[6]),
            (HwTaskStatus::Reconfiguring, 2)
        );
        assert_eq!(walk(&mut k), Some(0x4000_3000));
        // Asking for the FFT again is answered degraded, so the slot must
        // lead back to the shadow page, not to PRR2's QAM core.
        assert_ne!(raw(&mut k, ids[0]) & hw_task_result::DEGRADED, 0);
        assert_eq!(walk(&mut k), Some(page.raw()));
        invariants(&k);
    }

    #[test]
    fn a_binding_left_on_a_region_out_of_service_is_released_on_request() {
        // Ladder rung 4 leaves a client bound to its quarantined region
        // (no shadow could be made). Its next request must not be answered
        // degraded with no shadow behind it: the binding is released and
        // the routine allocates afresh.
        let (mut k, ids, vms) = pcap_kernel(1);
        let vm = vms[0];
        assert_eq!(
            request(&mut k, vm, ids[6]),
            (HwTaskStatus::Reconfiguring, 0)
        );
        finish_transfer(&mut k);
        assert_eq!(poll(&mut k, vm), 1);
        k.state.hwmgr.prrs.entry_mut(&mut k.machine, 0).quarantine();
        assert_eq!(
            request(&mut k, vm, ids[6]),
            (HwTaskStatus::Reconfiguring, 1)
        );
        assert_eq!(k.state.hwmgr.prrs.entry(0).client, None);
        assert!(k.state.hwmgr.shadows.is_empty());
        invariants(&k);
    }

    #[test]
    fn a_superseded_dispatch_frees_its_region() {
        let (mut k, ids, vms) = pcap_kernel(2);
        let (v1, v2) = (vms[0], vms[1]);
        assert_eq!(
            request(&mut k, v1, ids[0]),
            (HwTaskStatus::Reconfiguring, 0)
        );
        // v1's QAM request supersedes its FFT load on PRR0.
        assert_eq!(
            request(&mut k, v1, ids[6]),
            (HwTaskStatus::Reconfiguring, 1)
        );
        invariants(&k);
        assert_eq!(k.state.hwmgr.prrs.entry(0).client, None);
        assert!(!k.pd(v1).iface_maps.contains_key(&ids[0]));
        // Another VM takes PRR0 without reclaiming it from v1.
        assert_eq!(request(&mut k, v2, ids[1]).1, 0);
        assert_eq!(k.state.stats.hwmgr.reclaims, 0);
        invariants(&k);
    }

    #[test]
    fn forget_vm_reqs_drops_only_the_dead_vms_resumes() {
        let mut mgr = HwMgr::new(4, false);
        let sinks = Sinks {
            tracer: &Tracer::disabled(),
            stats: &mut KernelStats::default(),
            metrics: &Registry::disabled(),
            profiler: &Profiler::disabled(),
        };
        for p in [pend(3, 7), pend(4, 20), pend(3, 8)] {
            mgr.pending_resume.push(p);
        }
        mgr.forget_vm_reqs(Cycles::new(0), &sinks, VmId(3));
        let left: Vec<u32> = mgr.pending_resume.iter().map(|p| p.req.id).collect();
        assert_eq!(left, vec![20]);
    }
}
