//! Shared-memory descriptor rings: batched hardware-task submission with
//! coalesced completion vIRQs.
//!
//! The per-call path costs the guest one `HwTaskRequest` hypercall (two
//! world switches through the manager invocation protocol) plus a
//! completion vIRQ per hardware task. A ring turns that into one
//! `RingKick` hypercall for a whole batch: the guest owns a 4 KB page laid
//! out per [`mnv_hal::abi::ring`] — header (avail index guest-owned, used
//! index kernel-owned, both free-running `u16`s) followed by up to 64
//! 32-byte descriptors — posts descriptors, bumps `avail` and kicks once.
//!
//! The kernel consumes the batch *serially* through the existing six-stage
//! allocation routine ([`HwMgr::handle_request`]), so every descriptor
//! still gets the full Fig. 7 treatment (task lookup, PRR selection,
//! hwMMU programming, PRR-table bookkeeping) and a per-descriptor
//! [`ReqTag`] waterfall (`ring:post` → stages → `ring:done`). Serial
//! consumption is also what batches the DPR work: the first descriptor
//! needing a core pays the PCAP transfer; every queued descriptor for the
//! same task then hits the resident fast path — one reconfiguration
//! serves the whole run of same-core requests.
//!
//! Fabric runs started by the ring keep `IRQ_EN` clear, so the device
//! never raises a per-task completion interrupt; the engine polls the
//! region's STATUS register (from the owner's own `poll_virq` ticks and
//! from the kernel watchdog when the owner is descheduled) and publishes
//! each completion in place into its descriptor, bumping the used index.
//! When the batch drains, exactly ONE coalesced completion vIRQ is
//! buffered to the owner's vGIC — the "interrupt coalescing" half of the
//! hypercall-reduction story.
//!
//! Escalation interop: a descriptor whose dispatch degrades (quarantined
//! region, pure-software fallback) completes bit-identically through the
//! shadow-service path and is published `OK_DEGRADED`; the return to
//! hardware is picked up naturally because every descriptor re-enters
//! `handle_request`, the one way back.

use mnv_arm::machine::Machine;
use mnv_fpga::pl::Pl;
use mnv_fpga::prr::ctrl as prr_ctrl;
use mnv_fpga::prr::errcode as prr_errcode;
use mnv_fpga::prr::regs as prr_regs;
use mnv_fpga::prr::status as prr_status;
use mnv_hal::abi::ring::{self, desc_status};
use mnv_hal::abi::{hw_task_result, HcError, HwTaskStatus};
use mnv_hal::{HwTaskId, IrqNum, PhysAddr, VirtAddr, VmId};
use mnv_trace::event::req_stage;
use std::collections::{BTreeMap, VecDeque};

use super::service::{HwMgr, DATA_SECTION_LEN};
use super::tables::ReqTag;
use crate::kobj::pd::Pd;
use crate::mem::pagetable::PtAlloc;
use crate::obs::Sinks;
use crate::slo::{iface_of, FAMILIES};

/// The in-flight descriptor currently owning the fabric (or the PCAP
/// channel). Its open [`ReqTag`] is *not* stored here: it travels through
/// the same slots the per-call path uses (the PRR entry's request slot, or
/// a shadow's), so the escalation machinery keeps working unmodified.
#[derive(Clone, Copy, Debug)]
pub struct RingRun {
    /// Free-running descriptor index (slot = `idx & (size-1)`).
    pub idx: u16,
    /// The descriptor's hardware task.
    pub task: HwTaskId,
    /// Input offset within the data section.
    pub src_off: u32,
    /// Input length.
    pub src_len: u32,
    /// Output offset within the data section.
    pub dst_off: u32,
    /// Output capacity.
    pub dst_cap: u32,
    /// Region the dispatch landed on.
    pub prr: u8,
    /// Waiting on a PCAP reconfiguration before the run can start.
    pub await_pcap: bool,
}

/// One registered ring: a (VM, interface family) pair's shared page plus
/// the kernel-side cursor state.
pub struct RingCtx {
    /// Owning VM.
    pub vm: VmId,
    /// Interface family (0 = FFT, 1 = QAM, 2 = FIR) every descriptor's
    /// task must belong to.
    pub family: u8,
    /// Guest VA of the ring page (re-kicks must match).
    pub base_va: u64,
    /// Resolved physical address of the ring page.
    pub base_pa: PhysAddr,
    /// Descriptor count (power of two).
    pub size: u16,
    /// Data-section VA descriptors' offsets are relative to.
    pub data_va: VirtAddr,
    /// Interface VA the dispatches map the register group at.
    pub iface_va: VirtAddr,
    /// Avail value the kernel has consumed up to (free-running).
    pub avail_seen: u16,
    /// Kernel-owned used index (free-running; mirrored to the header).
    pub used: u16,
    /// Accepted descriptors not yet dispatched, in posting order.
    pub queued: VecDeque<(u16, ReqTag)>,
    /// The descriptor currently on the fabric/PCAP channel.
    pub active: Option<RingRun>,
    /// Completions published since the last coalesced vIRQ.
    pub completed: u16,
    /// Completion line for the coalesced vIRQ (the line the last fabric
    /// dispatch allocated; `None` until a dispatch yields one).
    pub line: Option<IrqNum>,
}

impl RingCtx {
    /// Work is pending: something queued or on the fabric.
    pub fn has_work(&self) -> bool {
        self.active.is_some() || !self.queued.is_empty()
    }
}

/// Write a descriptor's transfer into the staging registers of `page` (a
/// region's fabric page or a shadow page), in register order: SRC_ADDR,
/// SRC_LEN, DST_ADDR, DST_LEN. Offsets are relative to the data section
/// at `ds_pa`.
fn stage_transfer(m: &mut Machine, page: PhysAddr, ds_pa: PhysAddr, run: &RingRun) {
    let regs = [
        (
            prr_regs::SRC_ADDR,
            (ds_pa + run.src_off as u64).raw() as u32,
        ),
        (prr_regs::SRC_LEN, run.src_len),
        (
            prr_regs::DST_ADDR,
            (ds_pa + run.dst_off as u64).raw() as u32,
        ),
        (prr_regs::DST_LEN, run.dst_cap),
    ];
    for (idx, val) in regs {
        let _ = m.phys_write_u32(page + 4 * idx as u64, val);
    }
}

impl HwMgr {
    /// The `RingKick` hypercall body: validate (or register) the ring at
    /// `ring_va`, accept newly posted descriptors, and drive the batch as
    /// far as the fabric allows. Returns the number of descriptors
    /// accepted by this kick.
    pub fn handle_ring_kick(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        sinks: &mut Sinks<'_>,
        caller: VmId,
        ring_va: u64,
    ) -> Result<u32, HcError> {
        let va = VirtAddr::new(ring_va);
        // Hostile-address hardening: the ring page must be page-aligned
        // and fully inside the caller's own region — `guest_pa` rejects
        // anything else, so a forged pointer can never make the kernel
        // read or write foreign physical memory.
        if !va.is_page_aligned() {
            return Err(HcError::BadArg);
        }
        let (base_pa, region_len) = {
            let pd = pds.get(&caller).ok_or(HcError::BadArg)?;
            (pd.guest_pa(va).ok_or(HcError::BadArg)?, pd.region_len)
        };

        // Charged header reads — the kick genuinely walks the shared page.
        let rd = |m: &mut Machine, off: u64| m.phys_read_u32(base_pa + off).unwrap_or(0);
        if rd(m, ring::HDR_MAGIC) != ring::MAGIC {
            return Err(HcError::BadArg);
        }
        let size_w = rd(m, ring::HDR_SIZE);
        if size_w < 2 || size_w > ring::MAX_DESCS as u32 || !size_w.is_power_of_two() {
            return Err(HcError::BadArg);
        }
        let size = size_w as u16;
        let family = rd(m, ring::HDR_FAMILY);
        if family as usize >= FAMILIES {
            return Err(HcError::BadArg);
        }
        let data_va = VirtAddr::new(rd(m, ring::HDR_DATA_VA) as u64);
        let iface_va = VirtAddr::new(rd(m, ring::HDR_IFACE_VA) as u64);
        // The data section and interface page get the same screening the
        // per-call path applies, up front — a hostile header is rejected
        // at the kick instead of poisoning every descriptor.
        {
            let pd = pds.get(&caller).ok_or(HcError::BadArg)?;
            pd.guest_pa(data_va).ok_or(HcError::BadArg)?;
            if data_va.raw() + DATA_SECTION_LEN > region_len {
                return Err(HcError::BadArg);
            }
            if !iface_va.is_page_aligned() || iface_va.raw() >= region_len {
                return Err(HcError::BadArg);
            }
        }

        // Find or register the (vm, family) ring.
        let ci = match self
            .rings
            .iter()
            .position(|r| r.vm == caller && r.family == family as u8)
        {
            Some(i) => {
                let r = &self.rings[i];
                // A re-kick must describe the same ring; silently adopting
                // a moved page would let two pages alias one cursor state.
                if r.base_va != ring_va || r.size != size {
                    return Err(HcError::BadArg);
                }
                i
            }
            None => {
                // First kick adopts the guest's starting indices (the used
                // word), so rings may begin anywhere in the u16 space —
                // the wrap tests start at 65530.
                let start = rd(m, ring::HDR_USED) as u16;
                self.rings.push(RingCtx {
                    vm: caller,
                    family: family as u8,
                    base_va: ring_va,
                    base_pa,
                    size,
                    data_va,
                    iface_va,
                    avail_seen: start,
                    used: start,
                    queued: VecDeque::new(),
                    active: None,
                    completed: 0,
                    line: None,
                });
                self.rings.len() - 1
            }
        };
        // The data/interface VAs may be refreshed by a kick (same rules as
        // the per-call path re-registering the data section).
        self.rings[ci].data_va = data_va;
        self.rings[ci].iface_va = iface_va;

        let avail = rd(m, ring::HDR_AVAIL) as u16;
        let (avail_seen, used) = (self.rings[ci].avail_seen, self.rings[ci].used);
        let new = avail.wrapping_sub(avail_seen);
        let in_flight = avail_seen.wrapping_sub(used);
        // Hostile-index hardening: the guest may never claim more slots
        // than the ring holds. A wild avail jump is rejected, not chased.
        if new as u32 + in_flight as u32 > size as u32 {
            return Err(HcError::BadArg);
        }

        let now = m.now();
        for i in 0..new {
            let idx = avail_seen.wrapping_add(i);
            let req = self.mint_req(now, sinks, caller);
            sinks.req_stamp(now, req, req_stage::RING_POST);
            let doff = ring::desc_off(self.rings[ci].size, idx);
            let _ = m.phys_write_u32(base_pa + doff + ring::DESC_REQ, req.id);
            let _ = m.phys_write_u32(base_pa + doff + ring::DESC_STATUS, desc_status::PENDING);
            self.rings[ci].queued.push_back((idx, req));
        }
        self.rings[ci].avail_seen = avail;
        sinks.stats.hwmgr.ring_kicks += 1;
        if let Some(pd) = pds.get_mut(&caller) {
            pd.stats.ring_kicks += 1;
        }
        sinks.stats.hwmgr.ring_descs += new as u64;

        // Drive the batch as far as the fabric allows right now; a drain
        // completed inside the kick still delivers its coalesced vIRQ
        // through the vGIC buffer (the caller is mid-hypercall).
        if let Some((vm, line)) = self.ring_advance(m, pds, pt, sinks, ci) {
            self.ring_deliver(pds, sinks, vm, line);
        }
        Ok(new as u32)
    }

    /// Drive ring `ci` forward: poll the active run's PCAP/fabric state,
    /// publish completions, dispatch queued descriptors. Returns the
    /// coalesced-completion delivery `(vm, line)` when the batch fully
    /// drained with at least one completion since the last vIRQ.
    pub(crate) fn ring_advance(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        sinks: &mut Sinks<'_>,
        ci: usize,
    ) -> Option<(VmId, IrqNum)> {
        // Nothing below re-enters the ring list, so the context can be
        // lifted out while the manager's other tables are borrowed.
        let mut ctx = self.rings.remove(ci);
        let mut delivery = None;
        loop {
            if let Some(run) = ctx.active {
                if run.await_pcap {
                    match self.handle_pcap_poll(m, pds, pt, sinks, ctx.vm) {
                        Ok(1) => {
                            ctx.active = None;
                            self.ring_start_or_complete(m, pds, sinks, &mut ctx, run);
                            continue;
                        }
                        Ok(_) => break, // transfer still in flight
                        Err(e) => {
                            ctx.active = None;
                            self.ring_publish(
                                m,
                                &mut ctx,
                                run.idx,
                                desc_status::ERR_REJECTED | ((e as u32) << 8),
                                0,
                            );
                            let req = self.prrs.req_slot(run.prr).take();
                            sinks.end_req(m.now(), req, ctx.vm, req_stage::FAILED);
                            continue;
                        }
                    }
                }
                // A fabric run in flight. The dispatch may have been pulled
                // from under it by the supervisor (quarantine, relocation):
                // follow it to the shadow service if so.
                let disp = self.prrs.find_dispatch(ctx.vm, run.task);
                if disp != Some(run.prr) || !self.prrs.entry(run.prr).in_service() {
                    ctx.active = None;
                    self.ring_complete_shadow(m, pds, sinks, &mut ctx, &run);
                    continue;
                }
                let status = self.prr_status(m, run.prr);
                if status == prr_status::BUSY {
                    break; // still computing — poll again next tick
                }
                ctx.active = None;
                let dev = Pl::prr_page(run.prr);
                let req = self.prrs.req_slot(run.prr).take();
                if status == prr_status::DONE {
                    let rl = m
                        .phys_read_u32(dev + 4 * prr_regs::RESULT_LEN as u64)
                        .unwrap_or(0);
                    self.ring_publish(m, &mut ctx, run.idx, desc_status::OK, rl);
                    self.finish_req(
                        m.now(),
                        sinks,
                        req,
                        ctx.vm,
                        ctx.family,
                        req_stage::RING_DONE,
                    );
                } else {
                    // ERROR — or a foreign status meaning the region was
                    // reprogrammed under the run.
                    let code = if status == prr_status::ERROR {
                        m.phys_read_u32(dev + 4 * prr_regs::PARAM0 as u64)
                            .unwrap_or(0)
                    } else {
                        prr_errcode::TASK_ABANDONED
                    };
                    self.ring_publish(
                        m,
                        &mut ctx,
                        run.idx,
                        desc_status::ERR_DEVICE | (code << 8),
                        0,
                    );
                    sinks.end_req(m.now(), req, ctx.vm, req_stage::FAILED);
                }
                continue;
            }

            // No active run: dispatch the next queued descriptor.
            let Some((idx, req)) = ctx.queued.pop_front() else {
                if ctx.completed > 0 {
                    ctx.completed = 0;
                    delivery = ctx.line.map(|l| (ctx.vm, l));
                }
                break;
            };
            let doff = ctx.base_pa + ring::desc_off(ctx.size, idx);
            let rd = |m: &mut Machine, off: u64| m.phys_read_u32(doff + off).unwrap_or(0);
            let task = HwTaskId(rd(m, ring::DESC_TASK) as u16);
            let run = RingRun {
                idx,
                task,
                src_off: rd(m, ring::DESC_SRC_OFF),
                src_len: rd(m, ring::DESC_SRC_LEN),
                dst_off: rd(m, ring::DESC_DST_OFF),
                dst_cap: rd(m, ring::DESC_DST_CAP),
                prr: 0,
                await_pcap: false,
            };
            // Descriptor screening: the task must exist, belong to the
            // ring's family, and both transfer windows must sit inside the
            // data section (overflow-safe in u64).
            let family_ok = self
                .tasks
                .get(task)
                .is_some_and(|e| iface_of(e.core) == ctx.family);
            let in_ds = |off: u32, len: u32| off as u64 + len as u64 <= DATA_SECTION_LEN;
            if !family_ok || !in_ds(run.src_off, run.src_len) || !in_ds(run.dst_off, run.dst_cap) {
                self.ring_publish(
                    m,
                    &mut ctx,
                    idx,
                    desc_status::ERR_REJECTED | ((HcError::BadArg as u32) << 8),
                    0,
                );
                sinks.end_req(m.now(), req, ctx.vm, req_stage::FAILED);
                continue;
            }
            match self.handle_request(
                m,
                pds,
                pt,
                sinks,
                ctx.vm,
                task,
                ctx.iface_va,
                ctx.data_va,
                req,
            ) {
                Err(HcError::Busy) => {
                    // Every compatible region busy: keep the descriptor at
                    // the head and retry on a later tick.
                    ctx.queued.push_front((idx, req));
                    break;
                }
                Err(e) => {
                    self.ring_publish(
                        m,
                        &mut ctx,
                        idx,
                        desc_status::ERR_REJECTED | ((e as u32) << 8),
                        0,
                    );
                    sinks.end_req(m.now(), req, ctx.vm, req_stage::FAILED);
                    continue;
                }
                Ok(v) => {
                    let mut run = run;
                    run.prr = ((v >> 8) & 0xFF) as u8;
                    if v & hw_task_result::DEGRADED != 0 {
                        // Shadow-backed dispatch (the request now lives in
                        // the shadow's slot): complete it synchronously.
                        self.ring_complete_shadow(m, pds, sinks, &mut ctx, &run);
                        continue;
                    }
                    let line = (v >> 16) & 0xFF;
                    if line != hw_task_result::NO_LINE {
                        ctx.line = Some(IrqNum::pl(line as u16));
                    }
                    if v & 0xFF == HwTaskStatus::Reconfiguring as u32 {
                        run.await_pcap = true;
                        ctx.active = Some(run);
                        continue; // poll the PCAP channel right away
                    }
                    self.ring_program_start(m, pds, &ctx, &run);
                    ctx.active = Some(run);
                    continue; // falls into the status poll above
                }
            }
        }
        self.rings.insert(ci, ctx);
        delivery
    }

    /// A reconfiguration the ring was waiting on resolved: restart the run
    /// on the (re-)dispatched region, or complete it through the shadow
    /// service if the region was quarantined meanwhile.
    fn ring_start_or_complete(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        sinks: &mut Sinks<'_>,
        ctx: &mut RingCtx,
        mut run: RingRun,
    ) {
        match self.prrs.find_dispatch(ctx.vm, run.task) {
            Some(prr) if self.prrs.entry(prr).in_service() => {
                run.prr = prr;
                run.await_pcap = false;
                if let Ok(l) = self.irqs.alloc(ctx.vm, prr) {
                    ctx.line = Some(l);
                }
                self.ring_program_start(m, pds, ctx, &run);
                ctx.active = Some(run);
            }
            _ => self.ring_complete_shadow(m, pds, sinks, ctx, &run),
        }
    }

    /// Program the region's transfer registers from the descriptor and
    /// pulse START — with IRQ_EN clear: ring completions are polled and
    /// coalesced, never per-task interrupts.
    fn ring_program_start(
        &self,
        m: &mut Machine,
        pds: &BTreeMap<VmId, Pd>,
        ctx: &RingCtx,
        run: &RingRun,
    ) {
        let Some(ds) = pds.get(&ctx.vm).and_then(|p| p.data_section) else {
            return;
        };
        let dev = Pl::prr_page(run.prr);
        stage_transfer(m, dev, ds.pa, run);
        // Pre-mark BUSY (the guest driver's race guard) then pulse START.
        let _ = m.phys_write_u32(dev + 4 * prr_regs::STATUS as u64, prr_status::BUSY);
        let _ = m.phys_write_u32(dev + 4 * prr_regs::CTRL as u64, prr_ctrl::START);
    }

    /// Complete a descriptor through the shadow service: program the
    /// shadow register group from the descriptor, run the software model
    /// synchronously, and publish the result as `OK_DEGRADED` (the output
    /// bytes are bit-identical to the fabric's). Also covers the
    /// quarantine-served case where the wedged run already finished — the
    /// shadow page then already holds DONE and a closed request.
    fn ring_complete_shadow(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        sinks: &mut Sinks<'_>,
        ctx: &mut RingCtx,
        run: &RingRun,
    ) {
        let Some(si) = self
            .shadows
            .iter()
            .position(|s| s.vm == ctx.vm && s.task == run.task)
        else {
            // The dispatch vanished entirely (released/reclaimed from
            // under the batch): the descriptor fails, the batch goes on.
            self.ring_publish(
                m,
                ctx,
                run.idx,
                desc_status::ERR_DEVICE | (prr_errcode::TASK_ABANDONED << 8),
                0,
            );
            return;
        };
        let mut s = self.shadows.remove(si);
        let req = s.req.take();
        if req.is_open() {
            // Fresh degraded dispatch: program and serve it now. Taking
            // the request first makes serve_one's own delivery a no-op, so
            // the completion is attributed here with the ring stages.
            stage_transfer(m, s.page, s.ds.pa, run);
            self.serve_one(m, pds, sinks, &mut s, prr_ctrl::START);
        }
        let status = m
            .phys_read_u32(s.page + 4 * prr_regs::STATUS as u64)
            .unwrap_or(prr_status::ERROR);
        if status == prr_status::DONE {
            let rl = m
                .phys_read_u32(s.page + 4 * prr_regs::RESULT_LEN as u64)
                .unwrap_or(0);
            self.ring_publish(m, ctx, run.idx, desc_status::OK_DEGRADED, rl);
            self.finish_req(
                m.now(),
                sinks,
                req,
                ctx.vm,
                ctx.family,
                req_stage::RING_DONE,
            );
        } else {
            let code = m
                .phys_read_u32(s.page + 4 * prr_regs::PARAM0 as u64)
                .unwrap_or(0);
            self.ring_publish(m, ctx, run.idx, desc_status::ERR_DEVICE | (code << 8), 0);
            sinks.end_req(m.now(), req, ctx.vm, req_stage::FAILED);
        }
        self.shadows.push(s);
    }

    /// Publish one completion in place: status + result length into the
    /// descriptor, then the bumped used index into the header (the
    /// guest-visible commit point).
    fn ring_publish(
        &mut self,
        m: &mut Machine,
        ctx: &mut RingCtx,
        idx: u16,
        status: u32,
        result_len: u32,
    ) {
        let doff = ctx.base_pa + ring::desc_off(ctx.size, idx);
        let _ = m.phys_write_u32(doff + ring::DESC_RESULT_LEN, result_len);
        let _ = m.phys_write_u32(doff + ring::DESC_STATUS, status);
        ctx.used = ctx.used.wrapping_add(1);
        ctx.completed = ctx.completed.saturating_add(1);
        let _ = m.phys_write_u32(ctx.base_pa + ring::HDR_USED, ctx.used as u32);
    }

    /// Buffer the coalesced completion vIRQ toward the ring's owner (the
    /// same delivery the shadow service uses for a descheduled VM: buffer
    /// in the vGIC, wake the owner if it listens).
    fn ring_deliver(
        &mut self,
        pds: &mut BTreeMap<VmId, Pd>,
        sinks: &mut Sinks<'_>,
        vm: VmId,
        line: IrqNum,
    ) {
        sinks.stats.hwmgr.ring_virqs += 1;
        if let Some(pd) = pds.get_mut(&vm) {
            pd.stats.ring_virqs += 1;
            pd.vgic.buffer(line);
            if pd.vgic.is_enabled(line) {
                pd.wake_at = 0;
            }
        }
    }

    /// Service every ring with pending work (watchdog duty 5, and the
    /// per-slice poll hook). `only` restricts the pass to one VM's rings —
    /// the running guest's poll path drives its own batches so their cost
    /// is charged to the VM that benefits.
    pub fn ring_tick(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        sinks: &mut Sinks<'_>,
        only: Option<VmId>,
    ) {
        let mut i = 0;
        while i < self.rings.len() {
            let r = &self.rings[i];
            if r.has_work() && only.is_none_or(|vm| r.vm == vm) {
                if let Some((vm, line)) = self.ring_advance(m, pds, pt, sinks, i) {
                    self.ring_deliver(pds, sinks, vm, line);
                }
            }
            i += 1;
        }
    }

    /// Drop `vm`'s rings at teardown, failing every queued request. The
    /// active run's request lives in a PRR/shadow slot and is closed by
    /// [`HwMgr::forget_vm_reqs`]'s table sweeps.
    pub(crate) fn forget_vm_rings(&mut self, now: mnv_hal::Cycles, sinks: &Sinks<'_>, vm: VmId) {
        let rings = std::mem::take(&mut self.rings);
        for r in rings {
            if r.vm == vm {
                for (_, req) in r.queued {
                    sinks.end_req(now, req, vm, req_stage::FAILED);
                }
            } else {
                self.rings.push(r);
            }
        }
    }
}
