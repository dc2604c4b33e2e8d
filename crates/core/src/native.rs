//! The native baseline of the paper's evaluation (§V-B): "The native
//! execution is measured by implementing the uCOS-II natively on the ARM
//! processor, and implementing the hardware task management service as a
//! uCOS-II function."
//!
//! The same uC/OS-II kernel and tasks run against a privileged environment:
//! no MMU, no hypercall traps (service calls are plain function calls), no
//! world switches, and the manager "does not need to update the page tables
//! since all tasks execute in a unified memory space". Entry, exit and
//! PL-IRQ-entry overheads are *zero by construction*, exactly as Table III
//! reports for the native column — only the manager's execution time
//! remains, and it is measured with the same accumulators.

use mnv_arm::machine::Machine;
use mnv_fpga::bitstream::CoreKind;
use mnv_fpga::fabric::FabricConfig;
use mnv_fpga::pl::{Pl, PlConfig};
use mnv_hal::abi::{HcError, Hypercall, HypercallArgs};
use mnv_hal::{Cycles, HwTaskId, IrqNum, PhysAddr, Priority, VirtAddr, VmId};
use mnv_metrics::Registry;
use mnv_profile::Profiler;
use mnv_trace::Tracer;
use mnv_ucos::env::{GuestEnv, GuestFault};
use mnv_ucos::kernel::{RunExit, Ucos};
use std::collections::BTreeMap;

use crate::hwmgr::HwMgr;
use crate::kobj::pd::Pd;
use crate::mem::layout;
use crate::mem::pagetable::PtAlloc;
use crate::obs::Sinks;
use crate::stats::KernelStats;
use crate::vmenv::guest_traffic;
use crate::vtimer::VTimer;

/// The bare-metal harness: machine + PL + the manager as a library
/// function, one uC/OS-II instance owning the whole processor.
pub struct NativeHarness {
    /// The simulated platform.
    pub machine: Machine,
    /// The manager (native mode: no page-table stages).
    pub hwmgr: HwMgr,
    /// Statistics (exec row of Table III; entry/exit/irq stay empty).
    pub stats: KernelStats,
    /// The single protection context (unified memory space).
    pub pds: BTreeMap<VmId, Pd>,
    /// Page-table allocator (unused in native mode, kept for signature
    /// compatibility with the manager).
    pub pt: PtAlloc,
    /// The OS instance.
    pub os: Ucos,
    vtimer: VTimer,
    text_cursor: u64,
    data_rng: u64,
}

/// The VM id used for the unified native context.
pub const NATIVE_VM: VmId = VmId(1);

impl NativeHarness {
    /// Build with the paper's fabric, the given OS instance.
    pub fn new(os: Ucos) -> Self {
        let mut machine = Machine::default();
        let fabric = FabricConfig::paper_fabric();
        let num_prrs = fabric.num_prrs();
        machine.add_peripheral(Box::new(Pl::new(PlConfig { fabric })));
        machine.gic.enable(IrqNum::PCAP_DONE);
        let mut pds = BTreeMap::new();
        // One PD describing the unified space (used by the manager for the
        // data-section bookkeeping; region-offset identity as for guests).
        pds.insert(
            NATIVE_VM,
            Pd::new(
                NATIVE_VM,
                "native",
                Priority::GUEST,
                mnv_hal::Asid(1),
                layout::vm_region(NATIVE_VM),
                layout::VM_REGION_LEN,
                PhysAddr::new(0),
                0,
            ),
        );
        NativeHarness {
            machine,
            hwmgr: HwMgr::new(num_prrs, true),
            stats: KernelStats::default(),
            pds,
            pt: PtAlloc::new(),
            os,
            vtimer: VTimer::default(),
            text_cursor: 0,
            data_rng: 0x243F_6A88_85A3_08D3,
        }
    }

    /// Register a hardware task (the kernel's routine and store).
    pub fn register_hw_task(&mut self, core: CoreKind) -> HwTaskId {
        self.hwmgr.register_task(&mut self.machine, core)
    }

    /// Register the paper's evaluation task set.
    pub fn register_paper_task_set(&mut self) -> Vec<HwTaskId> {
        mnv_fpga::bitstream::paper_task_set()
            .into_iter()
            .map(|c| self.register_hw_task(c))
            .collect()
    }

    /// Run the OS natively for `duration` cycles.
    pub fn run(&mut self, duration: Cycles) {
        let deadline = self.machine.now() + duration;
        while self.machine.now() < deadline {
            let NativeHarness {
                machine,
                hwmgr,
                stats,
                pds,
                pt,
                os,
                vtimer,
                text_cursor,
                data_rng,
                ..
            } = self;
            let mut env = NativeEnv {
                m: machine,
                hwmgr,
                stats,
                pds,
                pt,
                vtimer,
                text_cursor,
                data_rng,
                deadline,
            };
            match os.run(&mut env) {
                RunExit::Idle => {
                    // Nothing runnable: advance to the next timer event.
                    let left = deadline - self.machine.now();
                    self.machine.wait_for_irq(left.min(Cycles::new(100_000)));
                    self.machine
                        .charge(self.vtimer.period.max(1_000).min(left.raw()));
                }
                RunExit::QuantumExhausted => {}
            }
        }
    }
}

/// The privileged environment: flat memory at the region-offset identity,
/// direct service calls, physical timer semantics via a VTimer against the
/// global clock.
struct NativeEnv<'a> {
    m: &'a mut Machine,
    hwmgr: &'a mut HwMgr,
    stats: &'a mut KernelStats,
    pds: &'a mut BTreeMap<VmId, Pd>,
    pt: &'a mut PtAlloc,
    vtimer: &'a mut VTimer,
    text_cursor: &'a mut u64,
    data_rng: &'a mut u64,
    deadline: Cycles,
}

impl NativeEnv<'_> {
    fn pa(&self, va: VirtAddr) -> PhysAddr {
        if va.raw() < mnv_ucos::layout::GUEST_SPACE {
            layout::vm_region(NATIVE_VM) + va.raw()
        } else {
            // Unified space: everything above the application window is a
            // physical address (device registers, other RAM).
            PhysAddr::new(va.raw())
        }
    }
}

impl GuestEnv for NativeEnv<'_> {
    fn vm_id(&self) -> VmId {
        NATIVE_VM
    }

    fn now(&self) -> Cycles {
        self.m.now()
    }

    fn compute(&mut self, cycles: u64) {
        self.m.charge(cycles);
        // Same instruction-retired and traffic models as the virtualized
        // guests (`VmEnv::compute`): the workload is identical, only the
        // hosting differs. Natively the MMU is off, so the data sweep is
        // physically addressed and exercises no TLB.
        self.m.instructions_retired += cycles / 2;
        let region = layout::vm_region(NATIVE_VM);
        let code = region + mnv_ucos::layout::CODE_BASE.raw();
        let work = region.raw() + mnv_ucos::layout::WORK_BASE.raw();
        let (cursor, rng) = (&mut *self.text_cursor, &mut *self.data_rng);
        guest_traffic(self.m, cycles, NATIVE_VM, code, work, cursor, rng);
    }

    fn read_u32(&mut self, va: VirtAddr) -> Result<u32, GuestFault> {
        let pa = self.pa(va);
        self.m
            .phys_read_u32(pa)
            .map_err(|_| GuestFault { va, write: false })
    }

    fn write_u32(&mut self, va: VirtAddr, val: u32) -> Result<(), GuestFault> {
        let pa = self.pa(va);
        self.m
            .phys_write_u32(pa, val)
            .map_err(|_| GuestFault { va, write: true })
    }

    fn read_block(&mut self, va: VirtAddr, out: &mut [u8]) -> Result<(), GuestFault> {
        let pa = self.pa(va);
        self.m
            .phys_read_block(pa, out)
            .map_err(|_| GuestFault { va, write: false })
    }

    fn write_block(&mut self, va: VirtAddr, data: &[u8]) -> Result<(), GuestFault> {
        let pa = self.pa(va);
        self.m
            .phys_write_block(pa, data)
            .map_err(|_| GuestFault { va, write: true })
    }

    fn hypercall(&mut self, args: HypercallArgs) -> Result<u32, HcError> {
        // Native: a plain function call — a couple of cycles of call
        // overhead, no trap, no world switch.
        self.m.charge(4);
        // The manager's sinks: this harness's stats, nothing else observed.
        let mut sinks = Sinks {
            tracer: &Tracer::disabled(),
            stats: self.stats,
            metrics: &Registry::disabled(),
            profiler: &Profiler::disabled(),
        };
        match args.nr {
            Hypercall::HwTaskRequest => {
                // The manager runs inline; only its execution is measured
                // (Table III native column: entry/exit/IRQ-entry are 0).
                let t0 = self.m.now();
                // Requests are minted on the native path too — the counter
                // is kernel state, so the baseline stays comparable.
                let req = self.hwmgr.mint_req(t0, &mut sinks, NATIVE_VM);
                let r = self.hwmgr.handle_request(
                    self.m,
                    self.pds,
                    self.pt,
                    &mut sinks,
                    NATIVE_VM,
                    HwTaskId(args.a0 as u16),
                    VirtAddr::new(args.a1 as u64),
                    VirtAddr::new(args.a2 as u64),
                    req,
                );
                let dt = self.m.now() - t0;
                sinks.stats.hwmgr.exec.push(Cycles::new(dt.raw()));
                r
            }
            Hypercall::HwTaskRelease => self.hwmgr.handle_release(
                self.m,
                self.pds,
                &sinks,
                NATIVE_VM,
                HwTaskId(args.a0 as u16),
            ),
            Hypercall::HwTaskQuery => {
                self.hwmgr
                    .handle_query(self.m, self.pds, NATIVE_VM, HwTaskId(args.a0 as u16))
            }
            Hypercall::PcapPoll => self
                .hwmgr
                .handle_pcap_poll(self.m, self.pds, self.pt, &mut sinks, NATIVE_VM),
            Hypercall::VmInfo => match args.a1 {
                0 => Ok(NATIVE_VM.0 as u32),
                1 => Ok(layout::vm_region(NATIVE_VM).raw() as u32),
                2 => Ok(layout::VM_REGION_LEN as u32),
                _ => Err(HcError::BadArg),
            },
            Hypercall::TimerProgram => {
                let period = args.a0 as u64 * mnv_hal::cycles::CPU_HZ / 1_000_000;
                let now = self.m.now();
                self.vtimer.program(period, now);
                Ok(0)
            }
            Hypercall::TimerStop => {
                self.vtimer.stop();
                Ok(0)
            }
            Hypercall::CacheFlushAll => {
                self.m.cache_flush_all();
                Ok(0)
            }
            Hypercall::TlbFlush => {
                self.m.tlb_flush_all();
                Ok(0)
            }
            // IRQ table management is local state in native mode.
            Hypercall::IrqEnable
            | Hypercall::IrqDisable
            | Hypercall::IrqEoi
            | Hypercall::IrqSetEntry => Ok(0),
            Hypercall::ConsoleWrite => {
                self.m.charge(mnv_arm::timing::MMIO);
                if let Some(pd) = self.pds.get_mut(&NATIVE_VM) {
                    pd.console.push(args.a0 as u8);
                }
                Ok(0)
            }
            Hypercall::SdRead => {
                let pa = self.pa(VirtAddr::new(args.a1 as u64));
                let block = crate::kernel::sd_block(args.a0);
                self.m.charge(2_000);
                self.m
                    .phys_write_block(pa, &block)
                    .map_err(|_| HcError::BadArg)?;
                Ok(0)
            }
            // No other VMs to talk to, no guest page tables to manage.
            _ => Ok(0),
        }
    }

    fn budget_left(&self) -> i64 {
        self.deadline.raw() as i64 - self.m.now().raw() as i64
    }

    fn is_native(&self) -> bool {
        true
    }

    fn poll_virq(&mut self) -> Option<u16> {
        let now = self.m.now();
        if self.vtimer.poll(now).is_some() {
            // Native IRQ: vector + handler, no hypervisor in the path.
            self.m
                .charge(mnv_arm::timing::EXC_ENTRY + mnv_arm::timing::EXC_RETURN);
            return Some(mnv_ucos::layout::TIMER_VIRQ);
        }
        self.m.sync_devices();
        let irq = self.m.gic.highest_pending()?;
        self.m.charge(mnv_arm::timing::EXC_ENTRY);
        self.m.charge(mnv_arm::timing::MMIO); // ICCIAR
        let irq = {
            let got = self.m.gic.ack()?;
            debug_assert_eq!(got, irq);
            got
        };
        self.m.charge(mnv_arm::timing::MMIO); // ICCEOIR
        self.m.gic.eoi(irq);
        self.m.charge(mnv_arm::timing::EXC_RETURN);
        // Native PL IRQ entry is effectively the bare vector cost; the
        // paper reports it as zero overhead, so it is not accumulated.
        Some(irq.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnv_ucos::kernel::UcosConfig;
    use mnv_ucos::tasks::THwTask;

    #[test]
    fn native_baseline_measures_only_execution() {
        let os = Ucos::new(UcosConfig::default());
        let mut h = NativeHarness::new(os);
        let ids = h.register_paper_task_set();
        let qam: Vec<HwTaskId> = ids[6..].to_vec();
        h.os.task_create(8, Box::new(THwTask::new(qam, 42)));
        h.run(Cycles::from_millis(120.0));

        let s = &h.stats.hwmgr;
        assert!(s.invocations > 3, "manager ran: {s:?}");
        assert!(s.exec.samples > 3);
        // Native column of Table III: entry/exit/IRQ-entry are zero.
        assert_eq!(s.entry.samples, 0);
        assert_eq!(s.exit.samples, 0);
        assert_eq!(s.irq_entry.samples, 0);
        // Execution lands near the paper's ~15 us scale.
        let us = s.exec.mean_us();
        assert!((8.0..25.0).contains(&us), "exec {us:.2} us");
    }

    #[test]
    #[should_panic(expected = "bitstream store full")]
    fn overfilling_the_bitstream_store_panics_natively() {
        // Every bitstream takes at least one 4 KB page of the store, so
        // this many registrations overrun it; the page-table pool lies
        // right behind it.
        let mut h = NativeHarness::new(Ucos::new(UcosConfig::default()));
        for _ in 0..=layout::BITSTREAM_LEN / 0x1000 {
            h.register_hw_task(CoreKind::Fft { log2_points: 13 });
        }
    }

    #[test]
    fn native_hw_task_produces_verifiable_results() {
        let os = Ucos::new(UcosConfig::default());
        let mut h = NativeHarness::new(os);
        let ids = h.register_paper_task_set();
        h.os.task_create(8, Box::new(THwTask::new(vec![ids[6]], 7))); // QAM-4
        h.run(Cycles::from_millis(60.0));
        let pl: &Pl = h.machine.peripheral::<Pl>().unwrap();
        let runs: u64 = (0..pl.num_prrs()).map(|p| pl.prr(p as u8).runs).sum();
        assert!(runs > 0, "accelerator ran natively");
        assert_eq!(pl.hwmmu().violation_count, 0);
    }
}
