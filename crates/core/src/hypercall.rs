//! The hypercall layer: trap cost, portal check and dispatch of the
//! paper's 25 calls (§III-A) plus the reproduction's read-only
//! [`Hypercall::VmStats`] accounting extension.
//!
//! For the hardware-task calls the dispatcher also performs the *manager
//! invocation protocol* of §IV-E: the caller's vCPU is saved, the machine
//! switches into the Hardware Task Manager's memory space (it runs in "an
//! independent memory space" at a priority above the guests), the request
//! is handled, and the machine switches back — with the entry, execution
//! and exit phases measured separately, which is precisely how Table III
//! is produced.

use mnv_arm::cp15::Cp15Reg;
use mnv_arm::machine::Machine;
use mnv_hal::abi::{vm_stats, HcError, Hypercall, HypercallArgs};
use mnv_hal::{Cycles, HwTaskId, IrqNum, PhysAddr, VirtAddr, VmId};
use mnv_metrics::Label;
use mnv_profile::SampleCtx;
use mnv_trace::event::req_stage;
use mnv_trace::{MgrPhase, TraceEvent, TrapKind};

use crate::ipc;
use crate::kernel::{sd_block, KernelState};
use crate::mem::dacr::{self, GuestContext};
use crate::mem::layout::ktext;
use crate::mem::pagetable;

/// Charge instruction-fetch traffic on a kernel code path.
pub(crate) fn touch_ktext(m: &mut Machine, base: PhysAddr, lines: u64) {
    for i in 0..lines {
        let cost = m
            .caches
            .access(base + i * 32, mnv_arm::cache::MemAccessKind::Fetch, false);
        m.charge(cost);
    }
}

/// Per-VM emulated privileged register count (RegRead/RegWrite space).
pub const EMULATED_REGS: usize = 8;

/// Execute a hypercall from `caller`. Charges the full SVC trap round trip
/// around the handler.
pub fn hypercall(
    m: &mut Machine,
    ks: &mut KernelState,
    caller: VmId,
    args: HypercallArgs,
) -> Result<u32, HcError> {
    // SVC trap entry: exception + hypercall entry code + PD/portal lookup.
    ks.tracer.emit(
        m.now(),
        TraceEvent::TrapEnter {
            kind: TrapKind::Svc,
        },
    );
    m.charge(mnv_arm::timing::EXC_ENTRY);
    let r = hypercall_from_trap(m, ks, caller, args);
    // Exception return to the guest.
    m.charge(mnv_arm::timing::EXC_RETURN);
    ks.tracer.emit(m.now(), TraceEvent::TrapExit);
    r
}

/// Hypercall body for callers that already paid the architectural
/// exception entry/return (the MIR interpreter's SVC path).
pub fn hypercall_from_trap(
    m: &mut Machine,
    ks: &mut KernelState,
    caller: VmId,
    args: HypercallArgs,
) -> Result<u32, HcError> {
    touch_ktext(m, ktext::HC_ENTRY, 10);
    {
        let pd = ks.pds.get_mut(&caller).ok_or(HcError::BadArg)?;
        pd.stats.hypercalls += 1;
        if let Err(e) = pd.portals.check(args.nr) {
            pd.stats.hypercalls_denied += 1;
            return Err(e);
        }
    }
    // The typed `Hypercall` can only carry in-range numbers (raw decode
    // counts unknown ones in `PdStats::hypercalls_invalid` before
    // dispatch), but never let a stats index become an out-of-bounds
    // write regardless.
    if let Some(slot) = ks.stats.hypercalls.get_mut(args.nr.nr() as usize) {
        *slot += 1;
    }
    ks.stats.hypercalls_total += 1;
    ks.tracer
        .emit(m.now(), TraceEvent::Hypercall { nr: args.nr.nr() });
    // Samples taken while the dispatcher runs attribute to this hypercall
    // (nested contexts restore on the way out, e.g. a DPR stage inside).
    let outer = ks.profiler.swap_ctx(SampleCtx::Hypercall(args.nr.nr()));
    let r = dispatch(m, ks, caller, args);
    ks.profiler.swap_ctx(outer);
    r
}

fn dispatch(
    m: &mut Machine,
    ks: &mut KernelState,
    caller: VmId,
    args: HypercallArgs,
) -> Result<u32, HcError> {
    use Hypercall::*;
    match args.nr {
        Yield => {
            ks.yield_requested = true;
            Ok(0)
        }
        VmInfo => {
            let pd = ks.pds.get(&caller).ok_or(HcError::BadArg)?;
            match args.a1 {
                0 => Ok(caller.0 as u32),
                1 => Ok(pd.region.raw() as u32),
                2 => Ok(pd.region_len as u32),
                _ => Err(HcError::BadArg),
            }
        }
        VmStats => {
            // Reading the accounting block is one emulated register access.
            m.charge(mnv_arm::timing::CP15_ACCESS);
            let pd = ks.pds.get(&caller).ok_or(HcError::BadArg)?;
            let s = &pd.stats;
            match args.a0 {
                vm_stats::CPU_CYCLES_LO => Ok(s.cpu_cycles as u32),
                vm_stats::CPU_CYCLES_HI => Ok((s.cpu_cycles >> 32) as u32),
                vm_stats::HYPERCALLS => Ok(s.hypercalls as u32),
                vm_stats::ACTIVATIONS => Ok(s.activations as u32),
                vm_stats::PREEMPTIONS => Ok(s.preemptions as u32),
                vm_stats::VIRQS => Ok(s.virqs_injected as u32),
                vm_stats::FAULTS_FORWARDED => Ok(s.faults_forwarded as u32),
                vm_stats::DCACHE_ACCESS => Ok(s.pmu.l1d_access as u32),
                vm_stats::DCACHE_REFILL => Ok(s.pmu.l1d_refill as u32),
                vm_stats::TLB_REFILL => Ok(s.pmu.tlb_refill as u32),
                vm_stats::ICACHE_REFILL => Ok(s.pmu.l1i_refill as u32),
                vm_stats::PT_WALKS => Ok(s.pmu.pt_walks as u32),
                vm_stats::EXC_TAKEN => Ok(s.pmu.exc_taken as u32),
                vm_stats::PMU_CYCLES_LO => Ok(s.pmu.cycles as u32),
                vm_stats::PMU_CYCLES_HI => Ok((s.pmu.cycles >> 32) as u32),
                vm_stats::INSTR_RETIRED => Ok(s.pmu.instr_retired as u32),
                _ => Err(HcError::BadArg),
            }
        }
        CacheFlushAll => {
            m.cache_flush_all();
            Ok(0)
        }
        CacheFlushLine => {
            let pd = ks.pds.get(&caller).ok_or(HcError::BadArg)?;
            let pa = pd
                .guest_pa(VirtAddr::new(args.a0 as u64))
                .ok_or(HcError::BadArg)?;
            let cost = m.caches.flush_line(pa);
            m.charge(cost);
            Ok(0)
        }
        TlbFlush => {
            let asid = ks.pds.get(&caller).ok_or(HcError::BadArg)?.asid;
            m.tlb_flush_asid(asid);
            Ok(0)
        }
        TlbFlushMva => {
            let asid = ks.pds.get(&caller).ok_or(HcError::BadArg)?.asid;
            m.tlb_flush_mva(VirtAddr::new(args.a0 as u64), asid);
            Ok(0)
        }
        IrqEnable => {
            let irq = valid_irq(args.a0)?;
            let pd = ks.pds.get_mut(&caller).ok_or(HcError::BadArg)?;
            pd.vgic.enable(irq);
            if ks.current == Some(caller) {
                m.charge(mnv_arm::timing::MMIO);
                m.gic.enable(irq);
            }
            Ok(0)
        }
        IrqDisable => {
            let irq = valid_irq(args.a0)?;
            let pd = ks.pds.get_mut(&caller).ok_or(HcError::BadArg)?;
            pd.vgic.disable(irq);
            if ks.current == Some(caller) {
                m.charge(mnv_arm::timing::MMIO);
                m.gic.disable(irq);
            }
            Ok(0)
        }
        IrqEoi => {
            let irq = valid_irq(args.a0)?;
            let pd = ks.pds.get_mut(&caller).ok_or(HcError::BadArg)?;
            pd.vgic.note_eoi(irq);
            Ok(0)
        }
        IrqSetEntry => {
            let pd = ks.pds.get_mut(&caller).ok_or(HcError::BadArg)?;
            pd.vgic.set_entry(VirtAddr::new(args.a0 as u64));
            Ok(0)
        }
        TimerProgram => {
            if args.a0 == 0 {
                return Err(HcError::BadArg);
            }
            let period = args.a0 as u64 * mnv_hal::cycles::CPU_HZ / 1_000_000;
            let now = m.now();
            let pd = ks.pds.get_mut(&caller).ok_or(HcError::BadArg)?;
            pd.vtimer.program(period, now);
            Ok(0)
        }
        TimerStop => {
            let pd = ks.pds.get_mut(&caller).ok_or(HcError::BadArg)?;
            pd.vtimer.stop();
            Ok(0)
        }
        MapInsert => {
            let va = VirtAddr::new(args.a0 as u64);
            let offset = args.a1 as u64;
            let pd = ks.pds.get(&caller).ok_or(HcError::BadArg)?;
            let l1 = pd.l1;
            // Security: guests may only map their own region.
            if offset + mnv_hal::PAGE_SIZE > pd.region_len {
                return Err(HcError::Denied);
            }
            if va.raw() + mnv_hal::PAGE_SIZE > mnv_ucos::layout::GUEST_SPACE {
                return Err(HcError::Denied);
            }
            let pa = pd.region + offset;
            let domain = if args.a2 & 1 != 0 {
                mnv_hal::Domain::GUEST_KERNEL
            } else {
                mnv_hal::Domain::GUEST_USER
            };
            let xn = args.a2 & 2 != 0;
            pagetable::map_page(
                m,
                l1,
                va,
                pa,
                domain,
                mnv_arm::tlb::Ap::Full,
                xn,
                false,
                &mut ks.pt,
            )
            .map_err(|_| HcError::BadArg)?;
            Ok(0)
        }
        MapRemove => {
            let pd = ks.pds.get(&caller).ok_or(HcError::BadArg)?;
            let va = VirtAddr::new(args.a0 as u64);
            if va.raw() >= mnv_ucos::layout::GUEST_SPACE {
                return Err(HcError::Denied);
            }
            let (l1, asid) = (pd.l1, pd.asid);
            pagetable::unmap_page(m, l1, va, asid).map_err(|_| HcError::BadArg)?;
            Ok(0)
        }
        PtCreate => {
            let pd = ks.pds.get(&caller).ok_or(HcError::BadArg)?;
            let va = VirtAddr::new(args.a0 as u64);
            if va.raw() >= mnv_ucos::layout::GUEST_SPACE {
                return Err(HcError::Denied);
            }
            let l1 = pd.l1;
            pagetable::ensure_l2(m, l1, va, mnv_hal::Domain::GUEST_USER, &mut ks.pt)
                .map_err(|_| HcError::NoResource)?;
            Ok(0)
        }
        RegRead => {
            let pd = ks.pds.get(&caller).ok_or(HcError::BadArg)?;
            let id = args.a0 as usize;
            if id >= EMULATED_REGS {
                return Err(HcError::BadArg);
            }
            m.charge(mnv_arm::timing::CP15_ACCESS);
            Ok(emulated_read(pd, id))
        }
        RegWrite => {
            let id = args.a0 as usize;
            if id >= EMULATED_REGS {
                return Err(HcError::BadArg);
            }
            m.charge(mnv_arm::timing::CP15_ACCESS);
            let pd = ks.pds.get_mut(&caller).ok_or(HcError::BadArg)?;
            emulated_write(pd, id, args.a1);
            if id == 2 && ks.current == Some(caller) {
                m.cp15.write(Cp15Reg::Tpidruro, args.a1);
            }
            Ok(0)
        }
        HwTaskRequest => {
            let req = {
                let (hwmgr, _, _, mut sinks) = ks.manager();
                hwmgr.mint_req(m.now(), &mut sinks, caller)
            };
            let r = with_manager(m, ks, caller, req.id, |m, ks| {
                let (hwmgr, pds, pt, mut sinks) = ks.manager();
                hwmgr.handle_request(
                    m,
                    pds,
                    pt,
                    &mut sinks,
                    caller,
                    HwTaskId(args.a0 as u16),
                    VirtAddr::new(args.a1 as u64),
                    VirtAddr::new(args.a2 as u64),
                    req,
                )
            });
            if r.is_err() {
                // A refused request never produces a completion — close the
                // span here so the waterfall shows the failure, not a leak.
                ks.sinks().end_req(m.now(), req, caller, req_stage::FAILED);
            }
            r
        }
        RingKick => {
            // One manager invocation (two world switches) drains a whole
            // batch — the per-descriptor hypercalls the per-call path
            // would have paid collapse into this single protocol round.
            with_manager(m, ks, caller, 0, |m, ks| {
                let (hwmgr, pds, pt, mut sinks) = ks.manager();
                hwmgr.handle_ring_kick(m, pds, pt, &mut sinks, caller, args.a0 as u64)
            })
        }
        HwTaskRelease => with_manager(m, ks, caller, 0, |m, ks| {
            let (hwmgr, pds, _, sinks) = ks.manager();
            hwmgr.handle_release(m, pds, &sinks, caller, HwTaskId(args.a0 as u16))
        }),
        HwTaskQuery => ks
            .hwmgr
            .handle_query(m, &ks.pds, caller, HwTaskId(args.a0 as u16)),
        PcapPoll => {
            let (hwmgr, pds, pt, mut sinks) = ks.manager();
            hwmgr.handle_pcap_poll(m, pds, pt, &mut sinks, caller)
        }
        IpcSend => ipc::send(
            &mut ks.pds,
            caller,
            VmId(args.a0 as u16),
            [args.a1, args.a2, args.a3],
        ),
        IpcRecv => ipc::recv(m, &mut ks.pds, caller, VirtAddr::new(args.a0 as u64)),
        ConsoleWrite => {
            m.charge(mnv_arm::timing::MMIO); // the supervised UART access
            let pd = ks.pds.get_mut(&caller).ok_or(HcError::BadArg)?;
            pd.console.push(args.a0 as u8);
            Ok(0)
        }
        SdRead => {
            let pd = ks.pds.get(&caller).ok_or(HcError::BadArg)?;
            let pa = pd
                .guest_pa(VirtAddr::new(args.a1 as u64))
                .ok_or(HcError::BadArg)?;
            let block = sd_block(args.a0);
            m.charge(2_000); // SD controller DMA latency
            m.phys_write_block(pa, &block)
                .map_err(|_| HcError::BadArg)?;
            Ok(0)
        }
    }
}

fn valid_irq(n: u32) -> Result<IrqNum, HcError> {
    if n < mnv_arm::gic::NUM_IRQS as u32 {
        Ok(IrqNum(n as u16))
    } else {
        Err(HcError::BadArg)
    }
}

fn emulated_read(pd: &crate::kobj::pd::Pd, id: usize) -> u32 {
    if id == 2 {
        pd.vcpu.tpidruro
    } else {
        pd.emulated_regs[id]
    }
}

fn emulated_write(pd: &mut crate::kobj::pd::Pd, id: usize, v: u32) {
    pd.emulated_regs[id] = v;
    if id == 2 {
        pd.vcpu.tpidruro = v;
    }
}

/// The manager invocation protocol: world-switch into the Hardware Task
/// Manager's domain, run the body, switch back — with the three phases
/// measured into the Table III accumulators.
fn with_manager(
    m: &mut Machine,
    ks: &mut KernelState,
    caller: VmId,
    exemplar: u32,
    body: impl FnOnce(&mut Machine, &mut KernelState) -> Result<u32, HcError>,
) -> Result<u32, HcError> {
    // ---- entry: save the caller, enter the manager's memory space ----
    let t0 = m.now();
    ks.tracer.emit(
        t0,
        TraceEvent::HwMgrPhase {
            phase: MgrPhase::Entry,
            end: false,
        },
    );
    if ks.defer_manager {
        // Ablation: a manager at guest priority cannot preempt — the
        // request waits, on average, half the remaining slice of the
        // system's other runnable work before being served. The wait is
        // part of the observed entry latency.
        let wait = ks.quantum.raw() / 2;
        m.charge(wait);
    }
    // Fixed portion of the invocation path (register shuffling, PD/portal
    // bookkeeping — cache-insensitive).
    m.charge(400);
    touch_ktext(m, ktext::MGR_ENTRY, 16);
    {
        let pd = ks.pds.get_mut(&caller).ok_or(HcError::BadArg)?;
        pd.vcpu.save_active(m, caller);
        // Mask the caller's lines while the service runs (it preempts).
        for line in pd.vgic.all_lines() {
            m.charge(mnv_arm::timing::MMIO);
            m.gic.disable(line);
        }
    }
    // Manager memory space: kernel table, ASID 0, host DACR.
    m.charge(mnv_arm::timing::CP15_ACCESS * 3);
    m.cp15
        .write(Cp15Reg::Dacr, dacr::dacr_for(GuestContext::HostKernel));
    m.cp15.set_asid(mnv_hal::Asid(0));
    ks.stats.vm_switches += 1;
    let t1 = m.now();
    ks.sinks()
        .mgr_phase(MgrPhase::Entry, caller, t0, t1, exemplar);

    // ---- execution ----
    let result = body(m, ks);
    let t2 = m.now();
    ks.sinks()
        .mgr_phase(MgrPhase::Exec, caller, t1, t2, exemplar);

    // ---- exit: resume the interrupted guest ----
    m.charge(280);
    touch_ktext(m, ktext::MGR_EXIT, 12);
    {
        // The caller was checked at entry, but the body may have destroyed
        // or restructured PDs — never panic on the exit path.
        if let Some(pd) = ks.pds.get_mut(&caller) {
            pd.vcpu.restore_active(m, caller);
            for line in pd.vgic.enabled_lines() {
                m.charge(mnv_arm::timing::MMIO);
                m.gic.enable(line);
            }
        }
    }
    ks.stats.vm_switches += 1;
    let t3 = m.now();
    let total = (t3 - t0).raw();
    ks.stats.hwmgr.total.push(Cycles::new(total));
    let vm_label = Label::Vm(caller.0 as u8);
    ks.metrics
        .observe("mgr_total_latency", vm_label, total, exemplar);
    ks.sinks()
        .mgr_phase(MgrPhase::Exit, caller, t2, t3, exemplar);
    result
}
