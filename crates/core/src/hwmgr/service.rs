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
use mnv_fpga::bitstream::CoreKind;
use mnv_fpga::cores::make_core;
use mnv_fpga::pl::{pcap_status, pcap_transfer_cycles, plregs, Pl, PAGE, PL_GP_BASE};
use mnv_fpga::prr::ctrl as prr_ctrl;
use mnv_fpga::prr::errcode as prr_errcode;
use mnv_fpga::prr::regs as prr_regs;
use mnv_fpga::prr::status as prr_status;
use mnv_hal::abi::{data_section, hw_task_result, HcError, HwTaskState, HwTaskStatus};
use mnv_hal::{Cycles, Domain, HwTaskId, IrqNum, PhysAddr, VirtAddr, VmId};
use mnv_metrics::{Label, Registry};
use mnv_profile::{Profiler, SampleCtx};
use mnv_trace::event::{iface_name, req_stage};
use mnv_trace::{TraceEvent, Tracer};
use std::collections::BTreeMap;

use super::irqalloc::PlIrqAllocator;
use super::tables::{HwTaskTable, PrrTable, ReqTag};
use crate::kobj::pd::{DataSection, Pd};
use crate::mem::layout::{self, ktext};
use crate::mem::pagetable::{self, PtAlloc};
use crate::obs;
use crate::postmortem;
use crate::slo::{iface_of, SloTracker};
use crate::stats::KernelStats;
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

/// What an in-flight PCAP transfer is for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PcapJobKind {
    /// A guest's stage-5 reconfiguration: it raises PCAP_DONE, completes
    /// through the client's poll and is relaunched when it fails.
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
    /// Load a degraded client's task onto a healthy free region so the
    /// client can be promoted back to hardware.
    Repromote {
        /// The shadow-fallback client being promoted.
        vm: VmId,
    },
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
/// a kernel-initiated load (scrub, re-promotion, relocation). A client
/// launch aborts a kernel load in flight and replaces an older client job;
/// kernel loads start only on an idle channel.
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

/// A software-fallback dispatch: the client's interface VA is backed by a
/// kernel-owned RAM page (the "shadow register group") which the kernel
/// services in software instead of fabric.
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
    /// The region this dispatch was migrated off (None for pure-software
    /// dispatches that never had hardware).
    pub from_prr: Option<u8>,
    /// Set by the supervisor when a healthy region has been reserved and
    /// programmed for this client: the next START is transplanted onto it
    /// instead of being served in software.
    pub promote_to: Option<u8>,
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
    /// VM that launched the in-flight client reconfiguration (the PCAP
    /// completion IRQ "is always connected to the VM which launches the
    /// current transfer" — §IV-D). Set with a `Client` job; an error poll
    /// by another VM clears it while the job stays in the channel.
    pub pcap_owner: Option<VmId>,
    /// The PCAP channel's one in-flight transfer, client or kernel.
    pub pcap_job: Option<PcapJob>,
    /// Active software-fallback dispatches.
    pub shadows: Vec<SwShadow>,
    /// Bump cursor into the shadow-page pool.
    shadow_cursor: u64,
    /// Shadow pages returned by released/promoted dispatches, reused before
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
    /// Metrics registry handle (a disabled no-op unless the kernel's
    /// `enable_metrics` installed a live clone); mirrors the fault-path
    /// counters so harnesses can cross-check them against `KernelStats`.
    pub metrics: Registry,
    /// Profiler handle (a disabled no-op unless the kernel's
    /// `enable_profiling` installed a live clone): samples taken inside
    /// the allocation routine attribute to the active Fig. 7 stage, and
    /// quarantine / watchdog aborts trigger post-mortem dumps.
    pub profiler: Profiler,
    /// Monotonic `ReqId` mint counter. Incremented unconditionally on
    /// every HwTaskRequest hypercall — enabling tracing must not change
    /// the id sequence (lockstep bit-identity).
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
            shadows: Vec::new(),
            shadow_cursor: 0,
            shadow_free: Vec::new(),
            watchdog_timeout: DEFAULT_WATCHDOG_TIMEOUT,
            relocations: BTreeMap::new(),
            scrub_interval: timing::SCRUB_INTERVAL,
            native,
            metrics: Registry::disabled(),
            profiler: Profiler::disabled(),
            next_req: 0,
            slo: SloTracker::new(),
            pending_resume: Vec::new(),
            rings: Vec::new(),
        }
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

    /// Mark entry into stage `stage` (1-6 of Fig. 7): samples taken until
    /// the next marker attribute to it, and the open request (if any) gets
    /// a stage stamp in its causal waterfall.
    fn stage(&self, m: &Machine, tracer: &Tracer, req: ReqTag, stage: u8) {
        self.profiler.swap_ctx(SampleCtx::DprStage(stage));
        self.req_stamp(m.now(), tracer, req, stage);
    }

    /// Stamp one causal hop into an open request's waterfall (no-op for
    /// the absent tag). Pure observation: charges nothing.
    pub(crate) fn req_stamp(&self, now: Cycles, tracer: &Tracer, req: ReqTag, stage: u8) {
        if req.is_open() {
            tracer.emit(now, TraceEvent::ReqStage { req: req.id, stage });
        }
    }

    /// Close an open request's root span after stamping `stage`,
    /// observing its end-to-end latency in the `req_latency` histogram
    /// (with the request id as the exemplar) and against the interface
    /// family's SLO. No-op for the absent tag.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn finish_req(
        &mut self,
        now: Cycles,
        tracer: &Tracer,
        stats: &mut KernelStats,
        req: ReqTag,
        vm: VmId,
        iface: u8,
        stage: u8,
    ) {
        if !req.is_open() {
            return;
        }
        tracer.emit(now, TraceEvent::ReqStage { req: req.id, stage });
        tracer.emit(
            now,
            TraceEvent::ReqSpan {
                req: req.id,
                vm: vm.0,
                end: true,
            },
        );
        let latency = now.raw().saturating_sub(req.started);
        self.metrics.observe(
            "req_latency",
            Label::Iface(iface_name(iface)),
            latency,
            req.id,
        );
        let outcome = self.slo.observe(iface, latency, now.raw());
        if outcome.violated {
            stats.slo_violations += 1;
            self.metrics
                .inc("slo_violations", Label::Iface(iface_name(iface)));
        }
        if let Some(violations) = outcome.burned {
            self.note(
                now,
                tracer,
                stats,
                TraceEvent::SloBurn { iface, violations },
            );
        }
    }

    /// Close an open request that ended without a completion (an error
    /// status, a release, or a superseding request). Stamps `stage`
    /// (`FAILED` or `RELEASED`) and ends the root span; no SLO
    /// observation — the guest did not get a service completion.
    pub(crate) fn fail_req(&self, now: Cycles, tracer: &Tracer, req: ReqTag, vm: VmId, stage: u8) {
        if !req.is_open() {
            return;
        }
        tracer.emit(now, TraceEvent::ReqStage { req: req.id, stage });
        tracer.emit(
            now,
            TraceEvent::ReqSpan {
                req: req.id,
                vm: vm.0,
                end: true,
            },
        );
    }

    /// Attach an open request to a PRR's completion slot. A stale request
    /// still parked there is closed as released first — its completion
    /// can no longer be told apart from the new one.
    fn attach_req(&mut self, now: Cycles, tracer: &Tracer, prr: u8, vm: VmId, req: ReqTag) {
        let old = std::mem::replace(self.prrs.req_slot(prr), req);
        self.fail_req(now, tracer, old, vm, req_stage::RELEASED);
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
    pub(crate) fn drain_resumes(
        &mut self,
        now: Cycles,
        tracer: &Tracer,
        stats: &mut KernelStats,
        vm: VmId,
    ) {
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
            self.finish_req(now, tracer, stats, p.req, vm, p.iface, req_stage::RESUME);
        }
    }

    /// Drop every open request owned by `vm` (VM teardown): buffered
    /// resumes, PRR slots and shadow dispatches all close as failed.
    pub(crate) fn forget_vm_reqs(&mut self, now: Cycles, tracer: &Tracer, vm: VmId) {
        // Ring teardown first: its queued requests are owned by the ring
        // alone; an active run's request is caught by the sweeps below.
        self.forget_vm_rings(now, tracer, vm);
        // Same single-pass FIFO drain as `drain_resumes`.
        let pending = std::mem::take(&mut self.pending_resume);
        for p in pending {
            if p.vm == vm {
                self.fail_req(now, tracer, p.req, vm, req_stage::FAILED);
            } else {
                self.pending_resume.push(p);
            }
        }
        for prr in 0..self.prrs.len() as u8 {
            if self.prrs.entry(prr).client == Some(vm) {
                let old = self.prrs.req_slot(prr).take();
                self.fail_req(now, tracer, old, vm, req_stage::FAILED);
            }
        }
        for i in 0..self.shadows.len() {
            if self.shadows[i].vm == vm {
                let old = self.shadows[i].req.take();
                self.fail_req(now, tracer, old, vm, req_stage::FAILED);
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
            if self.shadows.iter().any(|s| s.promote_to == Some(p)) {
                continue; // reserved as a pending re-promotion target
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
    /// page and revoke its IRQ line.
    fn reclaim(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        prr: u8,
        stats: &mut KernelStats,
    ) {
        let (old_vm, old_task, iface_va) = {
            let e = self.prrs.entry(prr);
            (e.client, e.task, e.iface_va)
        };
        let Some(old_vm) = old_vm else { return };
        stats.hwmgr.reclaims += 1;
        self.metrics.inc("hwmgr_reclaims", Label::Machine);

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
        let e = self.prrs.entry_mut(m, prr);
        e.client = None;
        e.iface_va = None;
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
        stats: &mut KernelStats,
        tracer: &Tracer,
        caller: VmId,
        task: HwTaskId,
        iface_va: VirtAddr,
        data_va: VirtAddr,
        req: ReqTag,
    ) -> Result<u32, HcError> {
        // Stage attribution brackets the whole allocation routine; the
        // caller's context (the HwTaskRequest hypercall) is restored on
        // every exit path, early returns included.
        let outer = self.profiler.swap_ctx(SampleCtx::DprStage(1));
        self.req_stamp(m.now(), tracer, req, 1);
        let r = self.request_inner(
            m, pds, pt, stats, tracer, caller, task, iface_va, data_va, req,
        );
        self.profiler.swap_ctx(outer);
        r
    }

    #[allow(clippy::too_many_arguments)]
    fn request_inner(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        stats: &mut KernelStats,
        tracer: &Tracer,
        caller: VmId,
        task: HwTaskId,
        iface_va: VirtAddr,
        data_va: VirtAddr,
        req: ReqTag,
    ) -> Result<u32, HcError> {
        self.touch_code(m, 24);
        stats.hwmgr.invocations += 1;
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
            if !self.prrs.entry(prr).in_service() {
                // Migrated to the software fallback when its region was
                // quarantined: refresh the data section and re-report the
                // degraded dispatch — the interface mapping already points
                // at the shadow page.
                if let Some(i) = self
                    .shadows
                    .iter()
                    .position(|s| s.vm == caller && s.task == task)
                {
                    self.shadows[i].ds = ds;
                    let old = std::mem::replace(&mut self.shadows[i].req, req);
                    self.fail_req(m.now(), tracer, old, caller, req_stage::RELEASED);
                    self.req_stamp(m.now(), tracer, req, req_stage::SW_DISPATCH);
                }
                return Ok(HwTaskStatus::Success as u32
                    | ((prr as u32) << 8)
                    | (hw_task_result::NO_LINE << 16)
                    | hw_task_result::DEGRADED);
            }
            // A pending re-promotion completes here: at request time the
            // guest is provably not mid-poll on the shadow page, so the
            // mapping can switch to the reserved region immediately (the
            // guest programs the run after this returns).
            if let Some(idx) = self
                .shadows
                .iter()
                .position(|s| s.vm == caller && s.task == task && s.promote_to == Some(prr))
            {
                let s = self.shadows.remove(idx);
                self.transplant(m, pds, pt, stats, tracer, &s, prr, 0);
            }
            // Re-establish the interface mapping: a client that reuses
            // one interface slot across tasks has since pointed this VA
            // at another region's page, and the held dispatch would be
            // programmed through the wrong window.
            self.map_iface(m, pds, pt, caller, task, iface_va, Pl::prr_page(prr), prr)?;
            self.prrs.entry_mut(m, prr).iface_va = Some(iface_va.raw());
            self.program_hwmmu(m, prr, ds);
            self.attach_req(m.now(), tracer, prr, caller, req);
            let line = self
                .irqs
                .alloc(caller, prr)
                .ok()
                .and_then(|l| l.pl_index())
                .unwrap_or(0xFF) as u32;
            return Ok(HwTaskStatus::Success as u32 | ((prr as u32) << 8) | (line << 16));
        }

        // A pure-software dispatch (made when every compatible region was
        // quarantined) has no PRR-table entry; it lives in the shadow list.
        // Probe for recovered hardware before settling for the shadow: if a
        // compatible region has come back into service (reinstated by the
        // scrubber, or merely reclaimable again), the degraded client is
        // re-promoted on this very request — the shadow is torn down and
        // the normal stages below rebuild a real hardware dispatch.
        if self
            .shadows
            .iter()
            .any(|s| s.vm == caller && s.task == task)
        {
            if let Some(prr) = self.select_prr(m, &entry_prrs, task) {
                self.drop_shadow_of(m, pds, tracer, caller, task);
                if let Some(pd) = pds.get_mut(&caller) {
                    self.unmap_iface(m, pd, task);
                }
                let ev = TraceEvent::Repromote {
                    vm: caller.0,
                    task: task.0 as u32,
                    prr,
                };
                self.note(m.now(), tracer, stats, ev);
            } else if let Some(i) = self
                .shadows
                .iter()
                .position(|s| s.vm == caller && s.task == task)
            {
                self.shadows[i].ds = ds;
                let old = std::mem::replace(&mut self.shadows[i].req, req);
                self.fail_req(m.now(), tracer, old, caller, req_stage::RELEASED);
                self.req_stamp(m.now(), tracer, req, req_stage::SW_DISPATCH);
                return Ok(HwTaskStatus::Success as u32
                    | (hw_task_result::NO_PRR << 8)
                    | (hw_task_result::NO_LINE << 16)
                    | hw_task_result::DEGRADED);
            }
        }

        self.stage(m, tracer, req, 2);
        let Some(prr) = self.select_prr(m, &entry_prrs, task) else {
            if !entry_prrs.is_empty()
                && entry_prrs.iter().all(|&p| !self.prrs.entry(p).in_service())
            {
                // Every region this task fits is out of service: degrade
                // to a pure-software dispatch instead of failing forever.
                return self.dispatch_software(
                    m, pds, pt, stats, tracer, caller, task, core, iface_va, ds, req,
                );
            }
            // Fig. 7 stage 2: "if no idle PRR is available, the manager
            // service would return to the applicant guest OS with a Busy
            // status".
            stats.hwmgr.busy += 1;
            self.metrics.inc("hwmgr_busy", Label::Machine);
            return Err(HcError::Busy);
        };

        // Reclaim from a previous client if needed (consistency handling
        // between stages 2 and 3).
        let needs_reconfig = self.prrs.entry(prr).task != Some(task);
        if self.prrs.entry(prr).client.is_some() {
            self.reclaim(m, pds, prr, stats);
        }

        // Stage 3: map the interface page into the caller.
        self.stage(m, tracer, req, 3);
        self.map_iface(m, pds, pt, caller, task, iface_va, Pl::prr_page(prr), prr)?;

        // Stage 4: load the hwMMU with the client's data section.
        self.stage(m, tracer, req, 4);
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
            e.dispatches += 1;
        }
        self.attach_req(m.now(), tracer, prr, caller, req);

        // Stage 5: launch the PCAP download if the task is not resident.
        if needs_reconfig {
            self.stage(m, tracer, req, 5);
            stats.hwmgr.reconfigs += 1;
            self.metrics.inc("hwmgr_reconfigs", Label::Machine);
            // Client reconfigurations always win the channel: a background
            // scrub/relocation load in flight is aborted and rescheduled,
            // an older client job is replaced.
            self.cancel_kernel_job(m);
            let kind = PcapJobKind::Client {
                vm: caller,
                attempts: 0,
                req,
            };
            self.launch_pcap(m, task, prr, kind);
            self.pcap_owner = Some(caller);
            self.req_stamp(m.now(), tracer, req, req_stage::PCAP_LAUNCH);
            if let Some(pd) = pds.get_mut(&caller) {
                pd.pcap_pending = Some(task);
            }
            // Stage 6: return immediately with the reconfig flag — the
            // manager "does not check the completion of the PCAP transfer".
            self.stage(m, tracer, req, 6);
            return Ok(HwTaskStatus::Reconfiguring as u32 | ((prr as u32) << 8) | (line_idx << 16));
        }
        self.stage(m, tracer, req, 6);
        Ok(HwTaskStatus::Success as u32 | ((prr as u32) << 8) | (line_idx << 16))
    }

    /// Map `caller`'s interface VA for `task` onto `page` and record the
    /// region behind it (`NO_PRR` for a shadow page). The VA may have
    /// pointed at another page until now (a client reusing one interface
    /// slot across tasks): the remap must shoot the stale translation down,
    /// or the guest's register writes keep reaching the old page.
    #[allow(clippy::too_many_arguments)]
    fn map_iface(
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
        tracer: &Tracer,
        caller: VmId,
        task: HwTaskId,
    ) -> Result<u32, HcError> {
        self.touch_code(m, 8);
        let Some(prr) = self.prrs.find_dispatch(caller, task) else {
            return self.release_shadow(m, pds, tracer, caller, task);
        };
        // A release closes whatever request was still waiting on the
        // dispatch — its completion will never be attributed.
        let old = self.prrs.req_slot(prr).take();
        self.fail_req(m.now(), tracer, old, caller, req_stage::RELEASED);
        // A quarantined region's client was migrated to a shadow page;
        // dropping the dispatch drops the shadow too (and frees its page
        // and parked completion line).
        self.drop_shadow_of(m, pds, tracer, caller, task);
        self.relocations.remove(&(caller, task));
        let pd = pds.get_mut(&caller).ok_or(HcError::BadArg)?;
        self.unmap_iface(m, pd, task);
        if let Some(line) = self.irqs.free_prr(prr) {
            let _ = m.phys_write_u32(ctrl_reg(plregs::IRQ_ROUTE), ((prr as u32) << 8) | 0xFF);
            pd.vgic.remove(line);
            m.gic.disable(line);
        }
        // Clear the hwMMU window: nothing may DMA on behalf of a released
        // task.
        let _ = m.phys_write_u32(ctrl_reg(plregs::HWMMU_SEL), prr as u32);
        let _ = m.phys_write_u32(ctrl_reg(plregs::HWMMU_LEN), 0);
        let e = self.prrs.entry_mut(m, prr);
        e.client = None;
        e.iface_va = None;
        Ok(0)
    }

    /// Tear down the shadow dispatch of (`vm`, `task`), if one exists:
    /// remove it from the service list, return its page to the pool and
    /// free its parked completion line. Lines parked under the
    /// [`SHADOW_LINE_KEY`] pseudo-region are freed here; a line already
    /// re-keyed back onto a real region (promoted shadow) is left for the
    /// normal release path, so the vGIC/GIC teardown only runs when the
    /// pseudo-key actually held it.
    fn drop_shadow_of(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        tracer: &Tracer,
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
        self.fail_req(m.now(), tracer, s.req, vm, req_stage::RELEASED);
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

    /// Release a pure-software dispatch (no PRR-table entry backs it).
    fn release_shadow(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        tracer: &Tracer,
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
        self.drop_shadow_of(m, pds, tracer, caller, task);
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
        stats: &mut KernelStats,
        tracer: &Tracer,
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
            from_prr: None,
            promote_to: None,
            req,
        });
        self.req_stamp(m.now(), tracer, req, req_stage::SW_DISPATCH);
        let ev = TraceEvent::SwFallback {
            vm: caller.0,
            task: task.0 as u32,
        };
        self.note(m.now(), tracer, stats, ev);
        Ok(HwTaskStatus::Success as u32
            | (hw_task_result::NO_PRR << 8)
            | (hw_task_result::NO_LINE << 16)
            | hw_task_result::DEGRADED)
    }

    /// The reconfiguration watchdog and software-fallback service pass.
    /// Called from the kernel's main loop between scheduling slices; the
    /// kernel has the CPU, so everything here is charged kernel time.
    ///
    /// Five duties:
    /// 1. abort a PCAP transfer that has been BUSY past its deadline (the
    ///    guest's next PcapPoll then takes the retry path);
    /// 2. escalate a region whose STATUS has been BUSY for longer than
    ///    [`HwMgr::watchdog_timeout`] onto the hardware-task escalation
    ///    ladder (retry → relocate → software fallback → error), and
    ///    advance any open ladder past its rung deadline;
    /// 3. serve start requests the guests wrote into shadow pages
    ///    (transplanting promoted ones back onto fabric);
    /// 4. drive the supervisor's background fabric work (scrubs,
    ///    re-promotion and relocation loads);
    /// 5. service shared-ring batches whose owners are descheduled (see
    ///    [`super::ring`]).
    pub fn watchdog(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        stats: &mut KernelStats,
        tracer: &Tracer,
    ) {
        let now = m.now().raw();

        // 1. PCAP stall abort of a client transfer (step 4 polls kernel loads).
        if let Some(job) = self.pcap_job {
            if let PcapJobKind::Client { vm, req, .. } = job.kind {
                let status = m.phys_read_u32(ctrl_reg(plregs::PCAP_STATUS)).unwrap_or(0);
                if status == pcap_status::BUSY && now > job.stall_deadline() {
                    let _ = m.phys_write_u32(ctrl_reg(plregs::PCAP_CTRL), 0b10);
                    self.req_stamp(m.now(), tracer, req, req_stage::PCAP_ABORT);
                    obs::dump(
                        &self.profiler,
                        tracer,
                        "pcap-watchdog-abort",
                        m.now(),
                        || postmortem::context(m, pds, Some(vm), &self.metrics),
                    );
                }
            }
        }

        // 2. Hang detection and ladder advancement.
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
                    self.ladder_advance(m, pds, pt, stats, tracer, prr, now);
                }
            } else if now.saturating_sub(since) > self.watchdog_timeout {
                if self.prrs.entry(prr).client.is_some() {
                    self.ladder_retry(m, stats, tracer, prr, now);
                } else {
                    // No client to preserve: skip the ladder.
                    let _ = self.quarantine(m, pds, pt, stats, tracer, prr);
                }
            }
        }

        // 3. Shadow service.
        self.serve_shadows(m, pds, pt, stats, tracer);

        // 4. Background fabric maintenance.
        self.fabric_tick(m, pds, pt, stats, tracer);

        // 5. Ring service: drive shared-ring batches whose owners are
        //    descheduled or idle (a running owner's poll path drives its
        //    own rings between these passes).
        self.ring_tick(m, pds, pt, stats, tracer, None);
    }

    /// Take a hung region out of service and migrate its client to a
    /// shadow page, completing the wedged run in software (bit-identical
    /// output — the shadow runs the same functional model as the fabric).
    ///
    /// Returns `true` when the region had no client, or its client was
    /// migrated successfully; `false` when a client exists but could not
    /// be migrated (the escalation ladder's final rung then reports the
    /// error to the guest).
    pub(crate) fn quarantine(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        stats: &mut KernelStats,
        tracer: &Tracer,
        prr: u8,
    ) -> bool {
        self.take_out_of_service(m, pds, stats, tracer, prr, false);
        let (client, task, iface_va) = {
            let e = self.prrs.entry(prr);
            (e.client, e.task, e.iface_va)
        };
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

        // Copy the register group so the client's programming survives the
        // migration, then swing its interface mapping onto the shadow.
        let dev = Pl::prr_page(prr);
        let mut regs = [0u32; 16];
        for (i, r) in regs.iter_mut().enumerate() {
            *r = m.phys_read_u32(dev + (i as u64) * 4).unwrap_or(0);
            let _ = m.phys_write_u32(page + (i as u64) * 4, *r);
        }
        if !self.native {
            if let Some(pd) = pds.get_mut(&vm) {
                let _ = pagetable::unmap_page(m, pd.l1, VirtAddr::new(iface_va), pd.asid);
                // The shadow keeps the interface VA alive; a map failure
                // leaves the VA unmapped and the guest takes a fault, which
                // is still contained.
                let _ = pagetable::map_page(
                    m,
                    pd.l1,
                    VirtAddr::new(iface_va),
                    page,
                    Domain::DEVICE,
                    Ap::Full,
                    true,
                    false,
                    pt,
                );
            }
        }
        // Keep (or take) a completion line for the shadow service, then
        // park it under the pseudo-region key so the real region key is
        // free for reinstatement. The fabric route is cleared either way —
        // a wedged region must not raise completions.
        let line = self.irqs.alloc(vm, prr).ok();
        if line.is_some() {
            if let Some(li) = line.and_then(|l| l.pl_index()) {
                self.irqs.retarget_prr(prr, SHADOW_LINE_KEY | li as u8);
            }
        }
        let _ = m.phys_write_u32(ctrl_reg(plregs::IRQ_ROUTE), ((prr as u32) << 8) | 0xFF);
        // The open request follows its client onto the shadow: whatever
        // completes the migrated dispatch closes it.
        let req = self.prrs.req_slot(prr).take();
        self.req_stamp(m.now(), tracer, req, req_stage::SW_DISPATCH);
        let mut shadow = SwShadow {
            vm,
            task,
            core,
            page,
            ds,
            line,
            from_prr: Some(prr),
            promote_to: None,
            req,
        };

        // The wedged run: the guest is polling STATUS (or waiting on the
        // completion IRQ) — finish it on the CPU now.
        if regs[prr_regs::STATUS] == prr_status::BUSY {
            self.serve_one(m, pds, stats, tracer, &mut shadow, regs[prr_regs::CTRL]);
        }
        self.shadows.push(shadow);
        true
    }

    /// The steps every quarantine shares: record it (counted, traced and
    /// post-mortem-dumped by [`obs::note`]), move the region to quarantine
    /// with a fresh scrub cycle and revoke its DMA rights.
    /// `detach` also drops the region's client binding — for callers that
    /// move the client elsewhere themselves, where [`HwMgr::quarantine`]
    /// keeps it to migrate.
    pub(crate) fn take_out_of_service(
        &mut self,
        m: &mut Machine,
        pds: &BTreeMap<VmId, Pd>,
        stats: &mut KernelStats,
        tracer: &Tracer,
        prr: u8,
        detach: bool,
    ) {
        let vm = self.prrs.entry(prr).client;
        obs::note(
            m.now(),
            TraceEvent::PrrQuarantine { prr },
            tracer,
            stats,
            &self.metrics,
            &self.profiler,
            || postmortem::context(m, pds, vm, &self.metrics),
        );
        let e = self.prrs.entry_mut(m, prr);
        e.quarantine();
        if detach {
            e.client = None;
            e.iface_va = None;
        }
        // A wedged region must not keep DMA rights.
        let _ = m.phys_write_u32(ctrl_reg(plregs::HWMMU_SEL), prr as u32);
        let _ = m.phys_write_u32(ctrl_reg(plregs::HWMMU_LEN), 0);
    }

    /// Serve pending start requests written into shadow register pages. A
    /// shadow flagged for re-promotion is transplanted onto its reserved
    /// region at its next START instead of being served in software.
    fn serve_shadows(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        stats: &mut KernelStats,
        tracer: &Tracer,
    ) {
        let shadows = std::mem::take(&mut self.shadows);
        let mut kept = Vec::with_capacity(shadows.len());
        for mut s in shadows {
            let ctrl = m
                .phys_read_u32(s.page + 4 * prr_regs::CTRL as u64)
                .unwrap_or(0);
            if ctrl & prr_ctrl::START == 0 {
                kept.push(s);
                continue;
            }
            if let Some(prr) = s.promote_to {
                // Promoted: hand the request to the fabric and drop the
                // shadow — the dispatch is hardware-backed from here on.
                self.transplant(m, pds, pt, stats, tracer, &s, prr, ctrl);
            } else {
                self.serve_one(m, pds, stats, tracer, &mut s, ctrl);
                kept.push(s);
            }
        }
        // serve_one/transplant never re-enter the shadow list, but restore
        // anything a future path might have pushed, defensively.
        kept.append(&mut self.shadows);
        self.shadows = kept;
    }

    /// Run one software-fallback request to completion: validate the DMA
    /// windows like the hwMMU would, run the functional model, publish the
    /// results into the shadow register group and deliver the completion.
    pub(crate) fn serve_one(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        stats: &mut KernelStats,
        tracer: &Tracer,
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
            self.fail_req(m.now(), tracer, s.req.take(), s.vm, req_stage::FAILED);
            return;
        }
        if out_len > dst_cap {
            fail(m, prr_errcode::DST_OVERFLOW);
            self.fail_req(m.now(), tracer, s.req.take(), s.vm, req_stage::FAILED);
            return;
        }

        let mut input = vec![0u8; src_len as usize];
        if m.phys_read_block(PhysAddr::new(src), &mut input).is_err() {
            fail(m, prr_errcode::HWMMU_VIOLATION);
            self.fail_req(m.now(), tracer, s.req.take(), s.vm, req_stage::FAILED);
            return;
        }
        // The same functional model the fabric runs — the output bytes are
        // bit-identical; only the time cost differs.
        let output = core.process(&input);
        let sw_cycles = core.compute_cycles(src_len as usize) * SW_SLOWDOWN;
        m.charge(sw_cycles);
        if m.phys_write_block(PhysAddr::new(dst), &output).is_err() {
            fail(m, prr_errcode::HWMMU_VIOLATION);
            self.fail_req(m.now(), tracer, s.req.take(), s.vm, req_stage::FAILED);
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
        self.note(m.now(), tracer, stats, ev);
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
            self.req_stamp(m.now(), tracer, req, req_stage::SW_DONE);
            self.req_stamp(m.now(), tracer, req, req_stage::VIRQ_BUFFER);
            self.pending_resume.push(PendingResume {
                vm: s.vm,
                req,
                iface: iface_of(s.core),
            });
        } else {
            // Polling dispatch: publishing DONE is the completion.
            self.finish_req(
                m.now(),
                tracer,
                stats,
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

    /// PcapPoll: 1 when the caller's pending reconfiguration completed.
    ///
    /// A failed transfer (CRC reject, malformed header, watchdog abort) is
    /// relaunched with backoff up to [`MAX_PCAP_RETRIES`] times;
    /// past that the target region is quarantined and the client degrades
    /// to the software fallback — the poll still reports completion.
    pub fn handle_pcap_poll(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        stats: &mut KernelStats,
        tracer: &Tracer,
        caller: VmId,
    ) -> Result<u32, HcError> {
        if pds
            .get(&caller)
            .ok_or(HcError::BadArg)?
            .pcap_pending
            .is_none()
        {
            return Ok(1);
        }
        let status = m.phys_read_u32(ctrl_reg(plregs::PCAP_STATUS)).unwrap_or(0);
        if self.pcap_owner == Some(caller) && status == pcap_status::DONE {
            if let Some(pd) = pds.get_mut(&caller) {
                pd.pcap_pending = None;
            }
            if let Some(PcapJob {
                prr,
                started_at,
                kind: PcapJobKind::Client { req, .. },
                ..
            }) = self.pcap_job
            {
                self.req_stamp(m.now(), tracer, req, req_stage::PCAP_DONE);
                self.metrics.observe(
                    "pcap_latency",
                    Label::Prr(prr),
                    m.now().raw().saturating_sub(started_at),
                    req.id,
                );
            }
            self.pcap_owner = None;
            self.pcap_job = None;
            return Ok(1);
        }
        if status == pcap_status::ERROR {
            if self.pcap_owner == Some(caller) {
                if let Some(PcapJob {
                    task,
                    prr,
                    kind: PcapJobKind::Client { vm, attempts, req },
                    ..
                }) = self.pcap_job
                {
                    if attempts < MAX_PCAP_RETRIES {
                        let attempts = attempts + 1;
                        let ev = TraceEvent::PcapRetry {
                            prr,
                            attempt: attempts,
                        };
                        self.note(m.now(), tracer, stats, ev);
                        self.req_stamp(m.now(), tracer, req, req_stage::PCAP_RETRY);
                        // Exponential backoff, then relaunch the transfer.
                        m.charge(timing::PCAP_RETRY_BACKOFF_BASE << attempts);
                        let kind = PcapJobKind::Client { vm, attempts, req };
                        self.launch_pcap(m, task, prr, kind);
                        return Ok(0);
                    }
                    // Retries exhausted: the transfer path to this region
                    // is persistently failing (e.g. a damaged bitstream
                    // store). Quarantine it and serve the client on the
                    // CPU — the reconfiguration completes, degraded.
                    self.req_stamp(m.now(), tracer, req, req_stage::PCAP_ABORT);
                    self.pcap_job = None;
                    self.pcap_owner = None;
                    if let Some(pd) = pds.get_mut(&caller) {
                        pd.pcap_pending = None;
                    }
                    let _ = self.quarantine(m, pds, pt, stats, tracer, prr);
                    return Ok(1);
                }
            }
            if let Some(pd) = pds.get_mut(&caller) {
                pd.pcap_pending = None;
            }
            self.pcap_owner = None;
            return Err(HcError::BadArg);
        }
        Ok(0)
    }

    /// Convenience for tests: PRR interface page physical address.
    pub fn iface_page(prr: u8) -> PhysAddr {
        PhysAddr::new(PL_GP_BASE + (1 + prr as u64) * PAGE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let mut stats = KernelStats::default();
        for p in [pend(1, 1), pend(2, 10), pend(1, 2), pend(2, 11), pend(1, 3)] {
            mgr.pending_resume.push(p);
        }
        mgr.drain_resumes(Cycles::new(0), &tracer, &mut stats, VmId(1));

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

    #[test]
    fn forget_vm_reqs_drops_only_the_dead_vms_resumes() {
        let mut mgr = HwMgr::new(4, false);
        let tracer = Tracer::disabled();
        for p in [pend(3, 7), pend(4, 20), pend(3, 8)] {
            mgr.pending_resume.push(p);
        }
        mgr.forget_vm_reqs(Cycles::new(0), &tracer, VmId(3));
        let left: Vec<u32> = mgr.pending_resume.iter().map(|p| p.req.id).collect();
        assert_eq!(left, vec![20]);
    }
}
