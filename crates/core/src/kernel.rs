//! Kernel composition: boot, VM lifecycle, world switch and the main
//! scheduling loop.

use mnv_arm::cp15::Cp15Reg;
use mnv_arm::machine::{Machine, MachineConfig};
use mnv_arm::tlb::Ap;
use mnv_arm::PmuInputs;
use mnv_fault::{FaultPlan, FaultPlane, FaultSite};
use mnv_fpga::bitstream::CoreKind;
use mnv_fpga::fabric::FabricConfig;
use mnv_fpga::pl::{pcap_status, plregs, Pl, PlConfig, PL_GP_BASE};
use mnv_hal::{Cycles, Domain, HwTaskId, PhysAddr, Priority, VirtAddr, VmId};
use mnv_metrics::{Registry, Snapshot};
use mnv_profile::Profiler;
use mnv_trace::{TraceEvent, Tracer};
use mnv_ucos::kernel::{RunExit, Ucos};
use std::collections::BTreeMap;

use crate::hwmgr::HwMgr;
use crate::kobj::pd::{Pd, PdState};
use crate::mem::asid::AsidAllocator;
use crate::mem::dacr::{self, GuestContext};
use crate::mem::layout::{self, ktext};
use crate::mem::pagetable::{self, PtAlloc};
use crate::mirguest::MirGuest;
use crate::obs::{self, Sinks};
use crate::sched::scheduler::{Scheduler, StopReason};
use crate::sched::DEFAULT_QUANTUM;
use crate::stats::KernelStats;
use crate::supervisor::{timing, CrashDecision, Supervisor, VmImage};
use crate::vmenv::VmEnv;

/// The guest payload of a VM.
pub enum GuestKind {
    /// A paravirtualized uC/OS-II instance (the paper's evaluation guest).
    Ucos(Box<Ucos>),
    /// A deprivileged MIR program executed on the interpreter (used by
    /// trap-and-emulate tests and the lazy-switch ablation).
    Mir(Box<MirGuest>),
}

/// Parameters of one VM.
pub struct VmSpec {
    /// Name for diagnostics.
    pub name: &'static str,
    /// Scheduling priority (guests default to [`Priority::GUEST`]).
    pub priority: Priority,
    /// The guest payload.
    pub guest: GuestKind,
}

/// Kernel construction parameters.
pub struct KernelConfig {
    /// FPGA fabric geometry (defaults to the paper's four-PRR fabric).
    pub fabric: FabricConfig,
    /// Scheduler time slice (the paper's 33 ms by default).
    pub quantum: Cycles,
    /// Machine configuration.
    pub machine: MachineConfig,
    /// Ablation: eagerly switch the VFP bank on every VM switch instead of
    /// the paper's lazy policy (Table I).
    pub eager_vfp: bool,
    /// Ablation: flush the whole TLB on every VM switch instead of relying
    /// on ASID tagging (§III-C).
    pub flush_tlb_on_switch: bool,
    /// Ablation: run the Hardware Task Manager at guest priority instead of
    /// above it — requests wait out the remainder of the current slice
    /// before being served (§IV-E motivates the high-priority choice).
    pub defer_manager: bool,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            fabric: FabricConfig::paper_fabric(),
            quantum: DEFAULT_QUANTUM,
            machine: MachineConfig::default(),
            eager_vfp: false,
            flush_tlb_on_switch: false,
            defer_manager: false,
        }
    }
}

/// Mutable kernel state reachable from hypercall context (everything except
/// the machine and the guest payloads).
pub struct KernelState {
    /// Protection domains by VM id.
    pub pds: BTreeMap<VmId, Pd>,
    /// The scheduler.
    pub sched: Scheduler,
    /// The Hardware Task Manager service.
    pub hwmgr: HwMgr,
    /// ASID allocator.
    pub asids: AsidAllocator,
    /// Page-table pool allocator.
    pub pt: PtAlloc,
    /// Instrumentation.
    pub stats: KernelStats,
    /// The VM currently holding the CPU.
    pub current: Option<VmId>,
    /// Set by the Yield hypercall; the VM env ends the slice early.
    pub yield_requested: bool,
    /// Owner of the VFP bank under lazy switching.
    pub vfp_owner: Option<VmId>,
    /// Ablation flags copied from the [`KernelConfig`].
    pub eager_vfp: bool,
    /// See [`KernelConfig::flush_tlb_on_switch`].
    pub flush_tlb_on_switch: bool,
    /// See [`KernelConfig::defer_manager`].
    pub defer_manager: bool,
    /// Quantum (needed by the deferred-manager wait model).
    pub quantum: Cycles,
    /// Event tracer (disabled unless [`Kernel::enable_tracing`] is called;
    /// shares its ring with [`Machine::tracer`]).
    pub tracer: Tracer,
    /// Metrics registry (disabled unless [`Kernel::enable_metrics`] is
    /// called; shared with the PL, lent to the Hardware Task Manager
    /// through [`KernelState::manager`]).
    pub metrics: Registry,
    /// PMU-input sample at the last attribution boundary: the epoch
    /// accounting charges `machine.pmu_inputs() - meter_base` to whichever
    /// world ran since (the VM on switch-out, the host otherwise).
    pub meter_base: PmuInputs,
    /// Sampling profiler and post-mortem dumps (disabled unless
    /// [`Kernel::enable_profiling`] is called; shared with the machine,
    /// lent to the Hardware Task Manager through [`KernelState::manager`]).
    pub profiler: Profiler,
}

impl KernelState {
    /// The Hardware Task Manager beside what its methods borrow: the PDs,
    /// the page-table pool and the observability [`Sinks`].
    #[inline]
    pub fn manager(&mut self) -> (&mut HwMgr, &mut BTreeMap<VmId, Pd>, &mut PtAlloc, Sinks<'_>) {
        let sinks = Sinks {
            tracer: &self.tracer,
            stats: &mut self.stats,
            metrics: &self.metrics,
            profiler: &self.profiler,
        };
        (&mut self.hwmgr, &mut self.pds, &mut self.pt, sinks)
    }

    /// The observability [`Sinks`] alone.
    #[inline]
    pub(crate) fn sinks(&mut self) -> Sinks<'_> {
        self.manager().3
    }
}

/// The composed kernel.
pub struct Kernel {
    /// The simulated platform.
    pub machine: Machine,
    /// Kernel state.
    pub state: KernelState,
    /// VM-level supervision: registered restart images, liveness
    /// watchdogs, pending relaunches and the crash-loop window.
    pub supervisor: Supervisor,
    guests: BTreeMap<VmId, GuestKind>,
    next_vm: u16,
}

/// Synthetic SD-card block content (deterministic; the "external 4 GB SD
/// card" of the evaluation platform).
pub fn sd_block(block: u32) -> [u8; 512] {
    let seed = block.wrapping_mul(0x9E37_79B1).wrapping_add(0x85EB_CA6B);
    let mut out = [0u8; 512];
    for (i, b) in out.iter_mut().enumerate() {
        let word = seed.rotate_left((i as u32 % 4) * 8);
        *b = (word as u8)
            .wrapping_add((i as u8).wrapping_mul(17))
            .wrapping_add(5);
    }
    out
}

impl Kernel {
    /// Boot the kernel: build the machine, attach the PL, initialise Dom0
    /// and the Hardware Task Manager.
    pub fn new(cfg: KernelConfig) -> Self {
        let mut machine = Machine::new(cfg.machine);
        let num_prrs = cfg.fabric.num_prrs();
        machine.add_peripheral(Box::new(Pl::new(PlConfig { fabric: cfg.fabric })));
        machine.gic.enable(mnv_hal::IrqNum::PCAP_DONE);

        let state = KernelState {
            pds: BTreeMap::new(),
            sched: Scheduler::new(cfg.quantum),
            hwmgr: HwMgr::new(num_prrs, false),
            asids: AsidAllocator::new(),
            pt: PtAlloc::new(),
            stats: KernelStats::default(),
            current: None,
            yield_requested: false,
            vfp_owner: None,
            eager_vfp: cfg.eager_vfp,
            flush_tlb_on_switch: cfg.flush_tlb_on_switch,
            defer_manager: cfg.defer_manager,
            quantum: cfg.quantum,
            tracer: Tracer::disabled(),
            metrics: Registry::disabled(),
            meter_base: PmuInputs::default(),
            profiler: Profiler::disabled(),
        };
        Kernel {
            machine,
            state,
            supervisor: Supervisor::new(),
            guests: BTreeMap::new(),
            next_vm: 1,
        }
    }

    /// Turn on event tracing with a ring retaining `cap` events. The kernel
    /// and the machine (and through it the PL peripheral) share one ring,
    /// producing a single merged timeline. Returns a handle for export.
    pub fn enable_tracing(&mut self, cap: usize) -> Tracer {
        let t = Tracer::enabled(cap);
        self.state.tracer = t.clone();
        self.machine.tracer = t.clone();
        t
    }

    /// Turn on the per-VM metrics registry: the kernel (and through its
    /// [`Sinks`] the Hardware Task Manager) and the PL peripheral share one
    /// registry for the series only it keeps; [`Kernel::metrics`] reads
    /// the rest from the kernel's own counters. Call it before the first
    /// [`Kernel::run`]: those counters run from boot, so metrics count
    /// from here only while nothing has run yet.
    pub fn enable_metrics(&mut self) {
        debug_assert_eq!(self.state.stats.vm_switches, 0, "enabled after a run");
        self.state.metrics = Registry::enabled();
        let pl = self.machine.peripheral_mut::<Pl>().expect("PL attached");
        pl.set_metrics(self.state.metrics.clone());
        // Epoch accounting starts here: the boot work before enablement is
        // in no epoch.
        self.state.meter_base = self.machine.pmu_inputs();
    }

    /// A metrics snapshot: the registry's series and a view of every
    /// kernel, block-cache and PL counter (see [`obs::snapshot`]). Empty
    /// until [`Kernel::enable_metrics`].
    pub fn metrics(&self) -> Snapshot {
        let s = &self.state;
        obs::snapshot(&self.machine, &s.pds, &s.stats, &s.metrics)
    }

    /// Turn on the cycle-driven sampling profiler and post-mortem dumps:
    /// the kernel (and through its [`Sinks`] the Hardware Task Manager) and
    /// the machine share one profiler, so samples carry the (VM,
    /// hypercall/DPR-stage) annotations. Dumps read the newest events of
    /// the kernel's trace ring (the flight recorder), so when tracing is
    /// off this turns it on with a [`mnv_profile::DEFAULT_FLIGHT_CAP`]
    /// ring. `period` is the sampling period in cycles
    /// ([`mnv_profile::DEFAULT_PERIOD`] is 10 us of simulated time).
    /// Sampling and tracing are pure observation — a profiled run is
    /// bit-identical to an unprofiled one.
    pub fn enable_profiling(&mut self, period: u64) -> Profiler {
        let p = Profiler::enabled(period, self.machine.now());
        if !self.state.tracer.is_enabled() {
            self.enable_tracing(mnv_profile::DEFAULT_FLIGHT_CAP);
        }
        self.state.profiler = p.clone();
        self.machine.profiler = p.clone();
        p
    }

    /// Arm deterministic fault injection over the whole substrate: one
    /// seeded [`FaultPlane`] is shared by the machine (AXI errors, spurious
    /// IRQs, memory flips) and the PL peripheral (PCAP corruption/stalls,
    /// PRR hangs). Returns a handle for replay assertions — the same plan
    /// against the same workload yields an identical fault record.
    pub fn enable_faults(&mut self, mut plan: FaultPlan) -> FaultPlane {
        if plan.mem_flip_window == (0, 0) {
            // Default the flip window to the bitstream store: persistent
            // corruption there is what the CRC/retry/quarantine paths are
            // built to survive.
            plan.mem_flip_window = (layout::BITSTREAM_BASE.raw(), layout::BITSTREAM_LEN);
        }
        let plane = FaultPlane::armed(plan);
        self.machine.fault = plane.clone();
        self.machine
            .peripheral_mut::<Pl>()
            .expect("PL attached")
            .set_fault_plane(plane.clone());
        plane
    }

    /// Kill a VM on an unrecoverable fault: the errant guest is destroyed
    /// (its hardware tasks released, IRQ routes closed) while every other
    /// VM keeps running — the containment boundary of §III-B.
    pub fn kill_vm(&mut self, vm: VmId) {
        let (_, pds, _, mut sinks) = self.state.manager();
        let ev = TraceEvent::VmKilled { vm: vm.0 };
        sinks.note_dump(&self.machine, pds, Some(vm), ev);
        // Supervised VMs get a backed-off relaunch — unless they crashed
        // too often inside the window, which makes the kill permanent.
        match self.supervisor.record_crash(vm, self.machine.now().raw()) {
            CrashDecision::Unsupervised | CrashDecision::Restart { .. } => {}
            CrashDecision::BudgetExhausted => self.state.stats.crash_loop_kills += 1,
        }
        self.destroy_vm(vm);
    }

    /// Register a hardware task: encode its bitstream into the store and
    /// enter it into the manager's lookup table. Returns the task id.
    pub fn register_hw_task(&mut self, core: CoreKind) -> HwTaskId {
        self.state.hwmgr.register_task(&mut self.machine, core)
    }

    /// Register the paper's full evaluation task set (FFT-256…FFT-8192,
    /// QAM-4/16/64). Returns the ids in order.
    pub fn register_paper_task_set(&mut self) -> Vec<HwTaskId> {
        mnv_fpga::bitstream::paper_task_set()
            .into_iter()
            .map(|c| self.register_hw_task(c))
            .collect()
    }

    /// Create a VM: allocates identity, ASID, region and page table; builds
    /// the guest-window mappings (sections for RAM, 4 KB pages for the
    /// first work megabyte, leaving the interface megabyte to on-demand
    /// 4 KB pages); enqueues it runnable.
    pub fn create_vm(&mut self, spec: VmSpec) -> VmId {
        let vm = VmId(self.next_vm);
        self.next_vm += 1;
        self.install_vm(vm, spec);
        vm
    }

    /// Create a VM under supervision: the builder produces the initial
    /// guest payload and is retained as the restart image — after a
    /// `kill_vm` the supervisor rebuilds the payload and relaunches the VM
    /// (same id, same region) under bounded exponential backoff.
    pub fn create_supervised_vm(
        &mut self,
        name: &'static str,
        priority: Priority,
        mut build: Box<dyn FnMut() -> GuestKind>,
    ) -> VmId {
        let guest = build();
        let vm = self.create_vm(VmSpec {
            name,
            priority,
            guest,
        });
        self.supervisor.register(
            vm,
            VmImage {
                name,
                priority,
                build,
            },
        );
        vm
    }

    /// Arm (or re-arm) the liveness watchdog for `vm`: kill after
    /// `hang_cycles` on-CPU cycles without retired-instruction progress.
    /// Works for unsupervised VMs too — the kill is then final.
    pub fn watch_liveness(&mut self, vm: VmId, hang_cycles: u64) {
        self.supervisor.watch(vm, hang_cycles);
    }

    /// Install `vm` with a given identity: the shared tail of first
    /// creation and supervised relaunch. A relaunch reuses the VM id and
    /// its statically-carved region but allocates a fresh ASID and L1
    /// (old page-table pages are not reclaimed — the leak is bounded by
    /// the crash budget).
    fn install_vm(&mut self, vm: VmId, spec: VmSpec) {
        let asid = self.state.asids.alloc().expect("ASIDs available");
        let region = layout::vm_region(vm);
        let l1 = self
            .state
            .pt
            .alloc_l1(&mut self.machine)
            .expect("page-table pool");

        // Map the guest window: 1 MB sections with the guest-kernel /
        // guest-user domain split of Table II; the interface megabyte
        // (holding layout slots for PRR register pages) stays unmapped at
        // section level — the manager inserts 4 KB pages there.
        let iface_mb = mnv_ucos::layout::HWIFACE_BASE.section_base().raw();
        let work_mb = mnv_ucos::layout::WORK_BASE.section_base().raw();
        let gu_base = mnv_ucos::layout::GUEST_USER_BASE.raw();
        let mut va = 0u64;
        while va < mnv_ucos::layout::GUEST_SPACE {
            if va != iface_mb && va != work_mb {
                let domain = if va < gu_base {
                    Domain::GUEST_KERNEL
                } else {
                    Domain::GUEST_USER
                };
                pagetable::map_section(
                    &mut self.machine,
                    l1,
                    VirtAddr::new(va),
                    region + va,
                    domain,
                    Ap::Full,
                    false,
                )
                .expect("section map");
            }
            va += mnv_hal::SECTION_SIZE;
        }
        // The first work megabyte is mapped at 4 KB granularity, like a
        // real OS maps its heap/working buffers. Guest data traffic through
        // it therefore exercises the TLB page-by-page, which is what makes
        // per-VM TLB pressure measurable under multiplexing (§V-B).
        let mut off = 0u64;
        while off < mnv_hal::SECTION_SIZE {
            pagetable::map_page(
                &mut self.machine,
                l1,
                VirtAddr::new(work_mb + off),
                region + work_mb + off,
                Domain::GUEST_KERNEL,
                Ap::Full,
                false,
                false,
                &mut self.state.pt,
            )
            .expect("work-megabyte page map");
            off += mnv_hal::PAGE_SIZE;
        }

        let entry = mnv_ucos::layout::CODE_BASE.raw() as u32;
        let mut pd = Pd::new(
            vm,
            spec.name,
            spec.priority,
            asid,
            region,
            layout::VM_REGION_LEN,
            l1,
            entry,
        );
        pd.vcpu.ttbr0 = l1.raw() as u32;
        pd.vcpu.contextidr = asid.0 as u32;
        pd.vcpu.dacr = dacr::dacr_for(GuestContext::GuestKernel);

        // Load MIR guests' code into their region now.
        if let GuestKind::Mir(mir) = &spec.guest {
            let pa = region + mir.program.base.raw();
            self.machine
                .load_bytes(pa, &mir.program.bytes)
                .expect("guest region is RAM");
        }

        self.state.sched.add(vm, spec.priority);
        self.state.pds.insert(vm, pd);
        self.guests.insert(vm, spec.guest);
    }

    /// Number of guest VMs.
    pub fn vm_count(&self) -> usize {
        self.guests.len()
    }

    /// Access a PD.
    pub fn pd(&self, vm: VmId) -> &Pd {
        &self.state.pds[&vm]
    }

    /// Mutable guest access (tests inspect task stats through this).
    pub fn guest_mut(&mut self, vm: VmId) -> Option<&mut GuestKind> {
        self.guests.get_mut(&vm)
    }

    /// Typed PL access.
    pub fn pl(&self) -> &Pl {
        self.machine.peripheral::<Pl>().expect("PL attached")
    }

    /// Move a VM to the suspend queue (Fig. 3: "the suspend queue …
    /// contains the ones that are not necessarily schedulable to avoid
    /// wasting the CPU resource. By default, some user service applications
    /// of Mini-NOVA are in the suspend queue because they are only invoked
    /// when necessary").
    pub fn suspend_vm(&mut self, vm: VmId) {
        self.state.sched.queue.suspend(vm);
    }

    /// Move a suspended VM back into the run queue at its priority
    /// (Fig. 3b: the invoked service preempts lower-priority VMs).
    pub fn resume_vm(&mut self, vm: VmId) {
        let prio = self.state.pds[&vm].priority;
        if let Some(pd) = self.state.pds.get_mut(&vm) {
            pd.wake_at = 0;
        }
        self.state.sched.queue.resume(vm, prio);
    }

    /// Is the VM currently suspended?
    pub fn is_suspended(&self, vm: VmId) -> bool {
        self.state.sched.queue.is_suspended(vm)
    }

    /// Destroy a VM: release its hardware tasks (closing their hwMMU
    /// windows and IRQ routes), remove it from the scheduler and return
    /// its ASID to the pool. Its physical region is left as-is (regions
    /// are statically carved per VM id and may be reused by a later VM
    /// with the same id).
    pub fn destroy_vm(&mut self, vm: VmId) {
        self.guests.remove(&vm);
        self.state.sched.queue.remove(vm);
        let held: Vec<HwTaskId> = self
            .state
            .pds
            .get(&vm)
            .map(|pd| pd.iface_maps.keys().copied().collect())
            .unwrap_or_default();
        let (hwmgr, pds, _, sinks) = self.state.manager();
        for t in held {
            let _ = hwmgr.handle_release(&mut self.machine, pds, &sinks, vm, t);
        }
        // Close any causal requests still waiting on the dead VM (buffered
        // completions, slots the releases above did not reach): their
        // completion can never be delivered.
        hwmgr.forget_vm_reqs(self.machine.now(), &sinks, vm);
        // Nobody is left to poll the dead VM's reconfigurations: drop what
        // the releases above did not reach.
        hwmgr.drop_jobs(&mut self.machine, pds, &sinks, |v, _| v == vm);
        if let Some(pd) = self.state.pds.remove(&vm) {
            self.state.asids.free(pd.asid);
            let retired = self.state.stats.retired.entry(vm).or_default();
            retired.merge(&pd.stats);
        }
        if self.state.current == Some(vm) {
            self.state.current = None;
        }
    }

    // -- world switch ---------------------------------------------------------

    /// Close the current attribution epoch: everything the machine counted
    /// since the last boundary (cycles, instructions, cache/TLB refills,
    /// walks, exceptions) is charged to `vm` — or to the host (kernel,
    /// world-switch code, idle loop) when `vm` is `None`. The VM's share
    /// backs the VmStats hypercall; the metrics snapshot reads both.
    fn account_epoch(&mut self, vm: Option<VmId>) {
        let now = self.machine.pmu_inputs();
        let d = now.delta(&self.state.meter_base);
        self.state.meter_base = now;
        if let Some(vm) = vm {
            if let Some(pd) = self.state.pds.get_mut(&vm) {
                pd.stats.pmu.accumulate(&d);
            }
        } else {
            self.state.stats.host_pmu.accumulate(&d);
        }
    }

    fn touch_ktext(&mut self, base: PhysAddr, lines: u64) {
        for i in 0..lines {
            let cost = self.machine.caches.access(
                base + i * 32,
                mnv_arm::cache::MemAccessKind::Fetch,
                false,
            );
            self.machine.charge(cost);
        }
    }

    /// Switch the machine into `vm`'s world: restore the active vCPU set,
    /// reprogram the GIC per the vGIC lists, reload TTBR/ASID/DACR. Returns
    /// buffered vIRQs to inject.
    fn switch_in(&mut self, vm: VmId) -> Vec<(mnv_hal::IrqNum, u32)> {
        // Everything since the last boundary was host work (scheduler,
        // watchdog, idle fast-forward); the epoch opening here is the VM's.
        self.account_epoch(None);
        self.touch_ktext(ktext::WORLD_SWITCH, 16);
        self.state.stats.vm_switches += 1;
        self.state.tracer.emit(
            self.machine.now(),
            TraceEvent::VmSwitch { from: 0, to: vm.0 },
        );
        self.state.profiler.set_vm(vm.0 as u8);
        {
            let pd = self.state.pds.get_mut(&vm).expect("vm exists");
            pd.stats.activations += 1;
            pd.vcpu.restore_active(&mut self.machine, vm);
            // Unmask this VM's enabled lines (charged MMIO per line).
            for line in pd.vgic.enabled_lines() {
                self.machine.charge(mnv_arm::timing::MMIO);
                self.machine.gic.enable(line);
            }
        }
        if self.state.flush_tlb_on_switch {
            // Ablation: the no-ASID world — every switch flushes.
            self.machine.tlb_flush_all();
        }
        if self.state.eager_vfp {
            // Ablation: eager policy — transfer the bank on every switch.
            if self.state.vfp_owner != Some(vm) {
                if let Some(owner) = self.state.vfp_owner {
                    self.machine.vfp.enabled = true;
                    if let Some(opd) = self.state.pds.get_mut(&owner) {
                        opd.vcpu.vfp_park(&mut self.machine, owner);
                    }
                }
                if let Some(pd) = self.state.pds.get_mut(&vm) {
                    pd.vcpu.vfp_adopt(&mut self.machine, vm);
                }
                self.state.vfp_owner = Some(vm);
            }
            self.machine.cp15.cpacr = mnv_arm::cp15::CPACR_VFP_FULL;
            self.machine.vfp.enabled = true;
        } else if self.state.vfp_owner == Some(vm) {
            // Lazy state: the bank is already this VM's.
            self.machine.cp15.cpacr = mnv_arm::cp15::CPACR_VFP_FULL;
            self.machine.vfp.enabled = true;
        } else {
            // Lazy state: VFP disabled; first use traps and adopts.
            self.machine.cp15.cpacr = 0;
            self.machine.vfp.enabled = false;
        }
        self.machine.cp15.sctlr |= mnv_arm::cp15::SCTLR_M | mnv_arm::cp15::SCTLR_C;
        self.state.current = Some(vm);
        self.state
            .pds
            .get_mut(&vm)
            .expect("vm exists")
            .vgic
            .drain_buffered()
    }

    /// Switch out of `vm`: save the active set and mask its lines.
    fn switch_out(&mut self, vm: VmId) {
        // The epoch since switch-in — guest execution plus the traps and
        // manager phases it caused — is the VM's.
        self.account_epoch(Some(vm));
        self.touch_ktext(ktext::WORLD_SWITCH, 12);
        self.state.tracer.emit(
            self.machine.now(),
            TraceEvent::VmSwitch { from: vm.0, to: 0 },
        );
        self.state.profiler.set_vm(0);
        let pd = self.state.pds.get_mut(&vm).expect("vm exists");
        pd.vcpu.save_active(&mut self.machine, vm);
        for line in pd.vgic.all_lines() {
            self.machine.charge(mnv_arm::timing::MMIO);
            self.machine.gic.disable(line);
        }
        // Host context: MMU off (kernel runs identity-mapped), host DACR.
        self.machine.cp15.sctlr &= !mnv_arm::cp15::SCTLR_M;
        self.machine
            .cp15
            .write(Cp15Reg::Dacr, dacr::dacr_for(GuestContext::HostKernel));
        self.state.current = None;
    }

    // -- the main loop ----------------------------------------------------------

    /// Run the system for `duration` simulated cycles.
    pub fn run(&mut self, duration: Cycles) {
        let deadline = self.machine.now() + duration;
        while self.machine.now() < deadline {
            // The loop head is a quiescent point: no VM is mid-hypercall.
            debug_assert_eq!(self.check_recovery_invariants(), Ok(()));
            // Reconfiguration watchdog: abort stalled PCAP transfers,
            // quarantine PRRs stuck BUSY past the timeout and serve any
            // software-fallback shadow interfaces.
            let (hwmgr, pds, pt, mut sinks) = self.state.manager();
            hwmgr.watchdog(&mut self.machine, pds, pt, &mut sinks);
            // VM supervision: liveness kills and due relaunches.
            self.supervise();
            let now = self.machine.now().raw();
            let Some(vm) = self.pick_awake(now) else {
                // Everyone is asleep (WFI): fast-forward to the earliest
                // wake-up event — a runnable VM's wake time or a pending
                // supervised relaunch — as a real kernel's idle loop would.
                let wake = self
                    .state
                    .pds
                    .values()
                    .filter(|p| p.state == PdState::Runnable)
                    .map(|p| p.wake_at.max(now + 1))
                    .min();
                let restart = self
                    .supervisor
                    .pending_restarts()
                    .iter()
                    .map(|(_, p)| p.at.max(now + 1))
                    .min();
                let next = wake
                    .into_iter()
                    .chain(restart)
                    .min()
                    .unwrap_or(now + timing::IDLE_RESYNC)
                    .clamp(now + 1, deadline.raw().max(now + 1));
                self.machine.charge(next - now);
                self.machine.sync_devices();
                self.machine.profile_poll();
                continue;
            };

            // Quantum: the preserved remainder, else a fresh slice —
            // truncated by the run deadline and by the earliest wake-up of
            // any higher-priority VM (the physical timer interrupt through
            // which the kernel preempts, §III-D).
            self.state.sched.stats.dispatches += 1;
            self.state
                .tracer
                .emit(self.machine.now(), TraceEvent::SchedPick { vm: vm.0 });
            let left = self.state.pds[&vm].quantum_left;
            let full = if left.is_zero() {
                self.state.sched.quantum
            } else {
                left
            };
            let my_prio = self.state.pds[&vm].priority;
            let preempt_at = self
                .state
                .pds
                .values()
                .filter(|p| {
                    p.state == PdState::Runnable
                        && Scheduler::preempts(p.priority, my_prio)
                        && p.vm != vm
                })
                .map(|p| p.wake_at)
                .min()
                .unwrap_or(u64::MAX);
            let horizon = deadline.raw().min(preempt_at).max(now + 1);
            let grant = Cycles::new(full.raw().min(horizon - now));
            // Only a higher-priority wake-up is a *preemption*; truncation
            // by the run() deadline is a harness artifact and counts as
            // ordinary expiry (rotate as usual).
            let preempt_truncated = preempt_at.saturating_sub(now) < full.raw() && grant < full;

            let (used, exit) = self.run_vm(vm, grant);
            let reason = match exit {
                RunExit::QuantumExhausted if preempt_truncated => StopReason::Preempted,
                RunExit::QuantumExhausted => StopReason::QuantumExpired,
                RunExit::Idle => StopReason::Idled,
            };
            // On preemption the *full* slice remainder is preserved
            // (§III-D: "its total execution time slice is constant").
            let left = self.state.sched.stopped(vm, full, used, reason);
            let end = self.machine.now().raw();
            let pd = self.state.pds.get_mut(&vm).expect("vm exists");
            pd.quantum_left = left;
            pd.stats.cpu_cycles += used.raw();
            if reason == StopReason::Preempted {
                pd.stats.preemptions += 1;
            }
            pd.wake_at = match reason {
                // Still has work: runnable immediately.
                StopReason::QuantumExpired | StopReason::Preempted => end,
                // Idle: sleeps until its next timer tick (or a buffered
                // vIRQ clears wake_at), with a bounded poll fallback.
                StopReason::Idled => {
                    if pd.vgic.has_buffered_enabled() {
                        end
                    } else if pd.vtimer.running() {
                        pd.vtimer.deadline
                    } else {
                        end + timing::IDLE_POLL_BACKOFF
                    }
                }
            };
            if pd.state == PdState::Halted {
                self.state.sched.queue.remove(vm);
            }
        }
    }

    /// One VM-supervision pass, run from the main loop between slices:
    /// kill guests whose liveness watchdog expired (on-CPU time with no
    /// retired-instruction progress), then relaunch supervised VMs whose
    /// restart backoff has elapsed.
    fn supervise(&mut self) {
        for vm in self.supervisor.hung_vms(&self.state.pds) {
            self.state.stats.liveness_kills += 1;
            self.kill_vm(vm);
        }
        let now = self.machine.now().raw();
        while let Some((vm, attempt)) = self.supervisor.take_due_restart(now) {
            let Some((guest, name, priority)) = self.supervisor.build_guest(vm) else {
                continue;
            };
            self.install_vm(
                vm,
                VmSpec {
                    name,
                    priority,
                    guest,
                },
            );
            if let Some(pd) = self.state.pds.get_mut(&vm) {
                pd.stats.restarts += 1;
            }
            self.state.sinks().note(
                self.machine.now(),
                TraceEvent::VmRestart { vm: vm.0, attempt },
            );
        }
    }

    /// Debug invariant check: no fabric resource may reference a dead VM,
    /// a PCAP owner's transfer must be in the channel, a busy PCAP engine
    /// must be loading the region the channel's slot names, and the
    /// shadow-page pool must balance. [`Kernel::run`] asserts it at the
    /// head of every loop iteration in debug builds; soak harnesses call it
    /// too.
    pub fn check_recovery_invariants(&self) -> Result<(), String> {
        self.state.hwmgr.check_invariants(&self.state.pds)?;
        self.state.stats.check_vm_totals(&self.state.pds)?;
        let (status, target) = self.pl().pcap_engine();
        let slot = self.state.hwmgr.pcap_job.map(|j| j.prr as u32);
        if status == pcap_status::BUSY && slot != Some(target) && !self.pcap_write_dropped() {
            return Err(format!(
                "PCAP engine busy loading prr{target}, but the slot names {slot:?}"
            ));
        }
        Ok(())
    }

    /// Has the fault plane dropped a write to PCAP_TARGET or PCAP_CTRL?
    /// The kernel does not read its launch and abort writes back, so such
    /// a drop leaves the engine loading another region, or running with
    /// the slot empty, which the engine check cannot tell from a kernel
    /// bug.
    fn pcap_write_dropped(&self) -> bool {
        let regs = [plregs::PCAP_TARGET, plregs::PCAP_CTRL].map(|r| PL_GP_BASE + r);
        self.machine
            .fault
            .records()
            .iter()
            .any(|r| r.site == FaultSite::AxiWriteError && regs.contains(&r.arg))
    }

    /// Highest-priority runnable VM that is awake at `now`, honouring the
    /// round-robin order within each level.
    fn pick_awake(&self, now: u64) -> Option<VmId> {
        for prio in (0..Priority::LEVELS as u8).rev() {
            for vm in self.state.sched.queue.level(Priority(prio)) {
                let pd = &self.state.pds[&vm];
                if pd.state == PdState::Runnable
                    && (pd.wake_at <= now || pd.vgic.has_buffered_enabled())
                {
                    return Some(vm);
                }
            }
        }
        None
    }

    /// Run one VM for (at most) `grant` cycles; returns (used, exit).
    fn run_vm(&mut self, vm: VmId, grant: Cycles) -> (Cycles, RunExit) {
        let buffered = self.switch_in(vm);
        // Buffered completion vIRQs are delivered below — close their
        // causal requests' `resume` hop at the same simulated instant.
        let (hwmgr, _, _, mut sinks) = self.state.manager();
        hwmgr.drain_resumes(self.machine.now(), &mut sinks, vm);
        let start = self.machine.now();

        let mut guest = self.guests.remove(&vm).expect("guest exists");
        let exit = match &mut guest {
            GuestKind::Ucos(os) => {
                let mut env = VmEnv::new(&mut self.machine, &mut self.state, vm, grant, start);
                for (line, _coalesced) in buffered {
                    os.inject_virq(&mut env, line.0);
                }
                os.run(&mut env)
            }
            GuestKind::Mir(mir) => mir.run(&mut self.machine, &mut self.state, vm, grant),
        };
        self.guests.insert(vm, guest);

        let used = self.machine.now() - start;
        self.switch_out(vm);
        (Cycles::new(used.raw()), exit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnv_ucos::kernel::UcosConfig;
    use mnv_ucos::task::{GuestTask, TaskAction, TaskCtx};

    struct Spin {
        steps: std::rc::Rc<std::cell::Cell<u64>>,
    }

    impl GuestTask for Spin {
        fn name(&self) -> &'static str {
            "spin"
        }
        fn step(&mut self, ctx: &mut TaskCtx<'_>) -> TaskAction {
            ctx.env.compute(10_000);
            self.steps.set(self.steps.get() + 1);
            TaskAction::Continue
        }
    }

    fn spin_guest() -> (GuestKind, std::rc::Rc<std::cell::Cell<u64>>) {
        let steps = std::rc::Rc::new(std::cell::Cell::new(0));
        let mut os = Ucos::new(UcosConfig::default());
        os.task_create(
            10,
            Box::new(Spin {
                steps: steps.clone(),
            }),
        );
        (GuestKind::Ucos(Box::new(os)), steps)
    }

    #[test]
    fn boot_and_register_tasks() {
        let mut k = Kernel::new(KernelConfig::default());
        let ids = k.register_paper_task_set();
        assert_eq!(ids.len(), 9, "6 FFT sizes + 3 QAM orders");
        assert_eq!(k.state.hwmgr.tasks.len(), 9);
        // FFT tasks restricted to the large PRRs.
        let fft = k.state.hwmgr.tasks.get(ids[0]).unwrap();
        assert_eq!(fft.prrs, vec![0, 1]);
    }

    #[test]
    fn guests_share_cpu_round_robin() {
        let mut k = Kernel::new(KernelConfig {
            quantum: Cycles::new(200_000),
            ..Default::default()
        });
        let (g1, s1) = spin_guest();
        let (g2, s2) = spin_guest();
        k.create_vm(VmSpec {
            name: "g1",
            priority: Priority::GUEST,
            guest: g1,
        });
        k.create_vm(VmSpec {
            name: "g2",
            priority: Priority::GUEST,
            guest: g2,
        });
        k.run(Cycles::new(4_000_000));
        assert!(s1.get() > 0 && s2.get() > 0);
        let ratio = s1.get() as f64 / s2.get() as f64;
        assert!(
            (0.5..2.0).contains(&ratio),
            "equal sharing expected, got {} vs {}",
            s1.get(),
            s2.get()
        );
        assert!(k.state.stats.vm_switches >= 4);
    }

    #[test]
    fn vm_regions_and_asids_are_distinct() {
        let mut k = Kernel::new(KernelConfig::default());
        let (g1, _) = spin_guest();
        let (g2, _) = spin_guest();
        let v1 = k.create_vm(VmSpec {
            name: "a",
            priority: Priority::GUEST,
            guest: g1,
        });
        let v2 = k.create_vm(VmSpec {
            name: "b",
            priority: Priority::GUEST,
            guest: g2,
        });
        let (p1, p2) = (k.pd(v1), k.pd(v2));
        assert_ne!(p1.asid, p2.asid);
        assert_ne!(p1.region, p2.region);
        assert_ne!(p1.l1, p2.l1);
    }

    #[test]
    fn sd_block_is_deterministic() {
        assert_eq!(sd_block(3), sd_block(3));
        assert_ne!(sd_block(3)[..16], sd_block(4)[..16]);
    }
}
