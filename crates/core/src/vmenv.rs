//! The VM execution environment: how a paravirtualized guest sees the
//! machine.
//!
//! Implements `mnv_ucos::GuestEnv` over the real machine: memory accesses
//! are deprivileged (translated by the guest's page table under its ASID
//! and DACR), hypercalls run the SVC path into the kernel dispatcher, and
//! `poll_virq` is the vGIC injection path of §III-B/§IV-D — including the
//! "PL IRQ entry" measurement of Table III: "This process begins from the
//! exception vector table and ends when the vGIC injects the virtual
//! interrupt to the VM."

use mnv_arm::cache::MemAccessKind;
use mnv_arm::machine::Machine;
use mnv_arm::mmu::AccessKind;
use mnv_hal::abi::{HcError, HypercallArgs};
use mnv_hal::{Cycles, IrqNum, PhysAddr, VirtAddr, VmId};
use mnv_trace::event::req_stage;
use mnv_trace::{TraceEvent, TrapKind};
use mnv_ucos::env::{GuestEnv, GuestFault};

use crate::hwmgr::service::{PendingResume, SHADOW_LINE_KEY};
use crate::hypercall::{self, touch_ktext};
use crate::kernel::KernelState;
use crate::mem::layout::ktext;

/// The environment handed to a running guest.
pub struct VmEnv<'a> {
    m: &'a mut Machine,
    ks: &'a mut KernelState,
    vm: VmId,
    granted: Cycles,
    start: Cycles,
}

impl<'a> VmEnv<'a> {
    /// Build for one scheduling slice.
    pub fn new(
        m: &'a mut Machine,
        ks: &'a mut KernelState,
        vm: VmId,
        granted: Cycles,
        start: Cycles,
    ) -> Self {
        VmEnv {
            m,
            ks,
            vm,
            granted,
            start,
        }
    }

    fn fault_of(&self, va: VirtAddr, write: bool) -> GuestFault {
        GuestFault { va, write }
    }

    /// Deliver one pending physical interrupt through the vGIC. Returns the
    /// vIRQ for *this* VM, buffering deliveries owned by other VMs.
    fn gic_path(&mut self) -> Option<u16> {
        self.m.sync_devices();
        let pending = self.m.gic.highest_pending()?;
        let t0 = self.m.now();
        self.ks.tracer.emit(
            t0,
            TraceEvent::TrapEnter {
                kind: TrapKind::Irq,
            },
        );
        // Exception entry + IRQ dispatch path + GIC ack.
        self.m.charge(mnv_arm::timing::EXC_ENTRY);
        touch_ktext(self.m, ktext::IRQ_ENTRY, 8);
        self.m.charge(mnv_arm::timing::MMIO); // ICCIAR read
        let Some(irq) = self.m.gic.ack() else {
            self.ks.tracer.emit(self.m.now(), TraceEvent::TrapExit);
            return None;
        };
        debug_assert_eq!(irq, pending);
        // §III-B: "Mini-NOVA writes an End of Interrupt (EOI) value to the
        // GIC interface, then uses the vGIC to inject".
        self.m.charge(mnv_arm::timing::MMIO); // ICCEOIR write
        self.m.gic.eoi(irq);

        // Route: PCAP completions go to the VM that launched the transfer;
        // PL lines to their allocated owner; anything else to the current
        // VM if its vGIC lists it.
        let owner = if irq == IrqNum::PCAP_DONE {
            self.ks.hwmgr.pcap_owner
        } else if irq.pl_index().is_some() {
            self.ks.hwmgr.irqs.owner(irq).map(|(vm, _)| vm)
        } else {
            Some(self.vm)
        };

        let is_pl = irq.pl_index().is_some();
        let mut buffered_for: Option<VmId> = None;
        let result = match owner {
            Some(vm) if vm == self.vm => match self.ks.pds.get_mut(&self.vm) {
                None => None,
                Some(pd) if !pd.vgic.is_enabled(irq) && irq != IrqNum::PCAP_DONE => {
                    pd.vgic.buffer(irq);
                    buffered_for = Some(vm);
                    None
                }
                Some(pd) => {
                    pd.vgic.note_injected(irq);
                    pd.stats.virqs_injected += 1;
                    self.ks.stats.virqs_injected += 1;
                    // Charge the forced jump to the VM's IRQ entry.
                    self.m.charge(mnv_arm::timing::EXC_RETURN);
                    if is_pl {
                        let dt = self.m.now() - t0;
                        self.ks.stats.hwmgr.irq_entry.push(Cycles::new(dt.raw()));
                    }
                    self.ks.tracer.emit(
                        self.m.now(),
                        TraceEvent::VirqInject {
                            vm: self.vm.0,
                            irq: irq.0,
                        },
                    );
                    Some(irq.0)
                }
            },
            Some(other) => {
                // Owned by an inactive VM: buffer it; it is delivered when
                // that VM is next scheduled (§IV-D). The delivery also
                // wakes the owner if it was sleeping.
                if let Some(pd) = self.ks.pds.get_mut(&other) {
                    pd.vgic.buffer(irq);
                    if pd.vgic.is_enabled(irq) {
                        pd.wake_at = 0;
                    }
                    buffered_for = Some(other);
                }
                None
            }
            None => None,
        };
        // Causal-request attribution for PL completion lines: an injected
        // vIRQ closes the region's open request; a buffered one parks it in
        // the resume queue, closed when the owner is next switched in.
        // PCAP_DONE traffic is the manager's own and never closes a request;
        // shadow pseudo-keys never reach this path's region lookup.
        if is_pl && irq != IrqNum::PCAP_DONE {
            if let Some((owner_vm, key)) = self.ks.hwmgr.irqs.owner(irq) {
                if key & SHADOW_LINE_KEY == 0 && (key as usize) < self.ks.hwmgr.prrs.len() {
                    let now = self.m.now();
                    let (hwmgr, _, _, mut sinks) = self.ks.manager();
                    if result.is_some() {
                        let req = hwmgr.prrs.req_slot(key).take();
                        let iface = hwmgr.prr_iface(key);
                        let stage = req_stage::VIRQ_INJECT;
                        hwmgr.finish_req(now, &mut sinks, req, owner_vm, iface, stage);
                    } else if let Some(vm) = buffered_for {
                        let req = hwmgr.prrs.req_slot(key).take();
                        if req.is_open() {
                            sinks.req_stamp(now, req, req_stage::VIRQ_BUFFER);
                            let iface = hwmgr.prr_iface(key);
                            hwmgr.pending_resume.push(PendingResume { vm, req, iface });
                        }
                    }
                }
            }
        }
        self.ks.tracer.emit(self.m.now(), TraceEvent::TrapExit);
        result
    }
}

impl GuestEnv for VmEnv<'_> {
    fn vm_id(&self) -> VmId {
        self.vm
    }

    fn now(&self) -> Cycles {
        self.m.now()
    }

    fn compute(&mut self, cycles: u64) {
        self.m.charge(cycles);
        // Paravirtualized guests never execute guest PCs on the
        // interpreter, so their compute charges are the sample points —
        // attribution rides on the kernel's VM/context annotations.
        self.m.profile_poll();
        // Retired-instruction model for paravirtualized compute: the A9 is
        // dual-issue, but memory stalls in real workloads hold sustained
        // IPC near 0.5 of the charged budget. MIR guests retire for real
        // in the interpreter; this covers the uC/OS-II task bodies.
        self.m.instructions_retired += cycles / 2;
        if let Some(pd) = self.ks.pds.get_mut(&self.vm) {
            let code = pd.region + mnv_ucos::layout::CODE_BASE.raw();
            let work = mnv_ucos::layout::WORK_BASE.raw();
            let (cursor, rng) = (&mut pd.text_cursor, &mut pd.data_rng);
            guest_traffic(self.m, cycles, self.vm, code, work, cursor, rng);
        }
    }

    fn read_u32(&mut self, va: VirtAddr) -> Result<u32, GuestFault> {
        self.m
            .virt_read_u32(va, false)
            .map_err(|f| self.fault_of(f.va, false))
    }

    fn write_u32(&mut self, va: VirtAddr, val: u32) -> Result<(), GuestFault> {
        self.m
            .virt_write_u32(va, val, false)
            .map_err(|f| self.fault_of(f.va, true))
    }

    fn read_block(&mut self, va: VirtAddr, out: &mut [u8]) -> Result<(), GuestFault> {
        // Translate page-wise; bulk-charge the data traffic.
        let mut off = 0usize;
        while off < out.len() {
            let cur = va + off as u64;
            let in_page = (mnv_hal::PAGE_SIZE - cur.page_offset()) as usize;
            let take = in_page.min(out.len() - off);
            let pa = self
                .m
                .translate(cur, mnv_arm::mmu::AccessKind::Read, false)
                .map_err(|f| self.fault_of(f.va, false))?;
            self.m
                .phys_read_block(pa, &mut out[off..off + take])
                .map_err(|_| self.fault_of(cur, false))?;
            off += take;
        }
        Ok(())
    }

    fn write_block(&mut self, va: VirtAddr, data: &[u8]) -> Result<(), GuestFault> {
        let mut off = 0usize;
        while off < data.len() {
            let cur = va + off as u64;
            let in_page = (mnv_hal::PAGE_SIZE - cur.page_offset()) as usize;
            let take = in_page.min(data.len() - off);
            let pa = self
                .m
                .translate(cur, mnv_arm::mmu::AccessKind::Write, false)
                .map_err(|f| self.fault_of(f.va, true))?;
            self.m
                .phys_write_block(pa, &data[off..off + take])
                .map_err(|_| self.fault_of(cur, true))?;
            off += take;
        }
        Ok(())
    }

    fn hypercall(&mut self, args: HypercallArgs) -> Result<u32, HcError> {
        hypercall::hypercall(self.m, self.ks, self.vm, args)
    }

    fn budget_left(&self) -> i64 {
        if self.ks.yield_requested {
            return 0;
        }
        self.granted.raw() as i64 - (self.m.now() - self.start).raw() as i64
    }

    fn poll_virq(&mut self) -> Option<u16> {
        // Virtual timer first (cheap check against the global clock).
        let now = self.m.now();
        {
            let pd = self.ks.pds.get_mut(&self.vm)?;
            if pd.vtimer.poll(now).is_some() {
                pd.vgic.note_injected(IrqNum(mnv_ucos::layout::TIMER_VIRQ));
                pd.stats.virqs_injected += 1;
                self.ks.stats.virqs_injected += 1;
                self.m
                    .charge(mnv_arm::timing::EXC_ENTRY + mnv_arm::timing::EXC_RETURN);
                self.ks.tracer.emit(
                    self.m.now(),
                    TraceEvent::VirqInject {
                        vm: self.vm.0,
                        irq: mnv_ucos::layout::TIMER_VIRQ,
                    },
                );
                return Some(mnv_ucos::layout::TIMER_VIRQ);
            }
        }
        // Ring service for the running guest: drive its shared-ring
        // batches (descriptor dispatch, completion publication, the
        // coalesced drain vIRQ) so in-slice progress doesn't wait for the
        // kernel's watchdog pass — and its cost is charged to the VM that
        // benefits. Other VMs' rings advance from the watchdog.
        if self
            .ks
            .hwmgr
            .rings
            .iter()
            .any(|r| r.vm == self.vm && r.has_work())
        {
            self.m.sync_devices();
            let (hwmgr, pds, pt, mut sinks) = self.ks.manager();
            hwmgr.ring_tick(self.m, pds, pt, &mut sinks, Some(self.vm));
        }
        self.gic_path()
    }
}

impl Drop for VmEnv<'_> {
    fn drop(&mut self) {
        // A Yield consumes the rest of the slice only once.
        self.ks.yield_requested = false;
    }
}

/// The memory traffic of a uC/OS-II guest's compute burst of `cycles`, for
/// a virtualized guest and the native baseline alike: the workload is
/// identical, only the hosting differs. `code` is the physical base of the
/// guest's code working set, `work` the base of its data megabyte as the
/// guest addresses it (translated by [`Machine::translate`]: the guest's
/// page table in a VM, the free identity natively, where the MMU is off).
/// `cursor` and `rng` carry the code sweep's position and the data
/// sweep's draw from one burst to the next.
pub(crate) fn guest_traffic(
    m: &mut Machine,
    cycles: u64,
    vm: VmId,
    code: PhysAddr,
    work: u64,
    cursor: &mut u64,
    rng: &mut u64,
) {
    // Instruction-fetch traffic model: a guest burning CPU is fetching
    // code from its own region. Each VM sweeps a private code working
    // set, so caches genuinely fill with per-VM lines — the mechanism
    // behind Table III's growth with guest count ("the related cache
    // and TLB list of the Hardware Task Manager hypercall and entry
    // code can be easily flushed when multiple OSes exist").
    const CODE_WS: u64 = 256 * 1024; // per-VM code+library working set
    let touches = (cycles / 160).min(256);
    for _ in 0..touches {
        let pa = code + *cursor;
        *cursor = (*cursor + 32) % CODE_WS;
        let cost = m.caches.access(pa, MemAccessKind::Fetch, false);
        // The base `cycles` already covers the hit-case fetch; charge
        // only the miss penalty on top.
        m.charge(cost.saturating_sub(mnv_arm::timing::L1_HIT));
    }
    // Data-side traffic model: loads from the page-mapped work
    // megabyte with a hot-head/cold-tail reuse profile (a squared
    // uniform draw skews toward small slot numbers, like real heap
    // traffic reuses a few hot structures and streams over the rest).
    // Each VM's heap layout differs, so the slot→(page, line)
    // placement is a per-VM hash over the megabyte's 256 frames.
    // Running alone, the hot slots stay L1/TLB-resident between
    // activations; every additional multiplexed VM drops its own
    // lines and page entries into the same cache/TLB sets in between,
    // pushing progressively colder slots out — so per-VM refill
    // counts rise smoothly with guest count instead of jumping at a
    // capacity cliff.
    const DATA_SLOTS: u64 = 384; // distinct hot+cold addresses per VM
    const DATA_PAGES: u64 = 64; // page aliasing classes per VM
    let data_touches = (cycles / 128).min(256);
    let vm_salt = (vm.0 as u64) << 10;
    for _ in 0..data_touches {
        *rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = (*rng >> 33) % DATA_SLOTS;
        let slot = r * r / DATA_SLOTS;
        let hp = ((slot % DATA_PAGES) + vm_salt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let hl = (slot + vm_salt).wrapping_mul(0xFF51_AFD7_ED55_8CCD);
        let page = (hp >> 16) % 256;
        let line = (hl >> 40) % 128;
        let va = VirtAddr::new(work + page * mnv_hal::PAGE_SIZE + line * 32);
        if let Ok(pa) = m.translate(va, AccessKind::Read, false) {
            let cost = m.caches.access(pa, MemAccessKind::Read, false);
            m.charge(cost.saturating_sub(mnv_arm::timing::L1_HIT));
        }
    }
}
