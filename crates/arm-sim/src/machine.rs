//! The simulated Zynq-7000 processing system: CPU + MMU + caches + TLB +
//! GIC + timers + peripherals on one clock, plus the MIR interpreter.
//!
//! The machine is the *only* way software models touch hardware state, and
//! every access advances the global cycle clock through the cache/TLB
//! models — which is what makes the Table III reproduction meaningful: the
//! kernel's entry paths get slower with more VMs because their cache lines
//! really do get evicted by the other guests' traffic.

use mnv_fault::{FaultPlane, FaultSite};
use mnv_hal::{Cycles, HalResult, IrqNum, PhysAddr, VirtAddr};
use mnv_profile::Profiler;
use mnv_trace::{TraceEvent, Tracer, TrapKind};

use crate::blockcache::BlockCache;
use crate::blockcache::{
    BlockSeg, CachedBlock, Run, RunVerify, Uop, VerifyStamp, MAX_BLOCK_LEN, MAX_SEGS,
};
use crate::bus::{PeriphCtx, Peripheral};
use crate::cache::{CacheHierarchy, MemAccessKind};
use crate::cp15::{Cp15, Cp15Reg};
use crate::cpu::{Cpu, CpuEvent, ExceptionKind};
use crate::gic::Gic;
use crate::memory::PhysMemory;
use crate::mir::FastClass;
use crate::mir::{AluOp, Cond, Instr, MirCp15, Program, INSTR_SIZE};
use crate::mmu::{self, AccessKind, Fault};
use crate::pmu::{Pmu, PmuInputs};
use crate::psr::Psr;
use crate::timer::{GlobalTimer, PrivateTimer};
use crate::timing;
use crate::tlb::Tlb;
use crate::tlb::{PageKind, TlbEntry};
use crate::vfp::Vfp;

/// MMIO window of the GIC (distributor + CPU interface).
pub const GIC_BASE: u64 = 0xF8F0_1000;
/// Size of the GIC window.
pub const GIC_SIZE: u64 = 0x3000;
/// MMIO window of the MPCore private timer.
pub const PTIMER_BASE: u64 = 0xF8F0_0600;
/// Size of the private-timer window.
pub const PTIMER_SIZE: u64 = 0x20;

/// Why an undefined-instruction exception was raised — the kernel's
/// trap-and-emulate logic dispatches on this.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct UndCause {
    /// Address of the trapping instruction.
    pub pc: VirtAddr,
    /// Classification.
    pub kind: UndKind,
}

/// Classification of undefined-instruction causes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum UndKind {
    /// PL0 attempted to read a privileged CP15 register into `rd`.
    Cp15Read {
        /// Target register of the read.
        rd: u8,
        /// The CP15 register addressed.
        reg: MirCp15,
    },
    /// PL0 attempted to write a CP15 register with `value`.
    Cp15Write {
        /// The CP15 register addressed.
        reg: MirCp15,
        /// The value the guest tried to write.
        value: u32,
    },
    /// A VFP instruction executed while the VFP was disabled (lazy switch).
    VfpAccess,
    /// The fetched bytes did not decode to any MIR instruction.
    InvalidInstr,
    /// A privileged CPSR write attempted an illegal mode value.
    MsrBadMode,
}

/// An open (super)block recording: the decoded instructions, their segment
/// map (one [`BlockSeg`] per straight-line piece — a new segment opens at
/// every fetch discontinuity and every page boundary, so segments never span
/// pages and each one verifies against a single TLB entry), the memory
/// generation the recording must survive to be committable, and the cached
/// predecessor block (if any) to chain to at commit time. Its buffers are
/// recycled through `Machine::rec_bufs`, so recording allocates nothing once
/// they have reached [`MAX_BLOCK_LEN`].
struct Recording {
    /// Block key: (ASID, entry VA).
    key: (u8, u32),
    /// `code_gen` when the recording opened; a mismatch at commit means a
    /// store landed under the open recording and it must be discarded.
    gen: u64,
    /// Decoded instructions with their fetch PAs, in execution order.
    instrs: Vec<(u64, Instr)>,
    /// Straight-line segments covering `instrs`.
    segs: Vec<BlockSeg>,
    /// VA the next contiguous fetch would have.
    next_va: u32,
    /// PA the next contiguous fetch would have.
    next_pa: u64,
    /// Block whose exit edge started this recording (chained at commit).
    pred: Option<std::rc::Rc<CachedBlock>>,
}

/// A recording's instruction and segment buffers.
type RecordingBufs = (Vec<(u64, Instr)>, Vec<BlockSeg>);

impl Recording {
    /// Open a recording at `key` into `bufs`, the empty buffers a committed
    /// recording left behind.
    fn new(
        key: (u8, u32),
        gen: u64,
        pred: Option<std::rc::Rc<CachedBlock>>,
        bufs: RecordingBufs,
    ) -> Recording {
        let (mut instrs, mut segs) = bufs;
        instrs.reserve(MAX_BLOCK_LEN);
        segs.reserve(MAX_SEGS);
        Recording {
            key,
            gen,
            instrs,
            segs,
            next_va: key.1,
            next_pa: 0,
            pred,
        }
    }

    /// Append a decoded instruction fetched at (`pc`, `pa`), extending the
    /// current segment or opening a new one at a fetch discontinuity (a
    /// fused branch seam) or a page boundary.
    fn push(&mut self, pc: u32, pa: u64, instr: Instr) {
        let contiguous = !self.segs.is_empty()
            && pc == self.next_va
            && pa == self.next_pa
            && !(pc as u64).is_multiple_of(mnv_hal::PAGE_SIZE);
        if contiguous {
            self.segs.last_mut().unwrap().len += 1;
        } else {
            self.segs.push(BlockSeg { va: pc, pa, len: 1 });
        }
        self.next_va = pc.wrapping_add(INSTR_SIZE as u32);
        self.next_pa = pa + INSTR_SIZE;
        self.instrs.push((pa, instr));
    }
}

/// Validated-by-value fast-path hint for replayed `Ldr`/`Str` data
/// accesses (one per direction, surviving across blocks and slices).
///
/// Nothing in the hint is *trusted*: on every use the TLB slot is
/// recompared against the live entry, permissions are rechecked against
/// live CP15 state, the physical range against the generation-stamped
/// MMIO window list, and the L1D slot against the live tag. A hint can
/// therefore never go stale — at worst it stops matching and the access
/// takes the full model (which refreshes it) — so no invalidation hooks
/// are needed and bit-identity holds unconditionally.
#[derive(Clone, Copy)]
struct DataHint {
    /// TLB slot + entry that translated the last access in this
    /// direction; `None` means the MMU was off (flat mapping).
    tlb: Option<(usize, TlbEntry)>,
    /// Physical range (`[lo, hi)`, the mapped page/section) proven
    /// disjoint from the GIC, private-timer and every peripheral window.
    ram_lo: u64,
    ram_hi: u64,
    /// `Machine::mmio_gen` the RAM-range proof was made against.
    mmio_gen: u32,
    /// L1D slot that held the last access's line.
    line_slot: usize,
}

/// What a passing data guard resolved (see [`Machine::mem_guard`]).
#[derive(Clone, Copy)]
struct DataHit {
    /// Physical address of the access.
    pa: PhysAddr,
    /// TLB slot the access hits (`None`: MMU off, no TLB traffic).
    tlb_slot: Option<usize>,
    /// L1D slot holding the line.
    line_slot: usize,
}

/// How a batched run ended (see [`Machine::run_uops`]).
struct BatchExit {
    /// Instructions that ran (the whole run, or the prefix before a failed
    /// memory guard, or through a store that dirtied code).
    done: usize,
    /// PC to continue at.
    pc: u32,
    /// Cycles the instructions that ran charge.
    cycles: u64,
    /// TLB slot of the run's data access, when it ran with the MMU on.
    data_tlb: Option<usize>,
    /// The run's store dirtied a code chunk: the replay must stop.
    dirtied: bool,
}

/// Machine construction parameters.
#[derive(Clone, Copy, Debug)]
pub struct MachineConfig {
    /// Main-TLB capacity (128 on the A9).
    pub tlb_entries: usize,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig { tlb_entries: 128 }
    }
}

/// The composed machine.
pub struct Machine {
    /// Physical RAM.
    pub mem: PhysMemory,
    /// Cache hierarchy (timing).
    pub caches: CacheHierarchy,
    /// Main TLB.
    pub tlb: Tlb,
    /// System coprocessor registers.
    pub cp15: Cp15,
    /// Core registers, modes, exception machinery.
    pub cpu: Cpu,
    /// VFP bank.
    pub vfp: Vfp,
    /// Interrupt controller.
    pub gic: Gic,
    /// Private (tick) timer: read it through [`Machine::ptimer`], program
    /// it through [`Machine::ptimer_mut`] or its MMIO window.
    ptimer: PrivateTimer,
    /// Global free-running counter (as of the last device catch-up; see
    /// [`Machine::settle_devices`]).
    pub gtimer: GlobalTimer,
    /// Event tracer (disabled by default; the kernel installs a shared one).
    pub tracer: Tracer,
    /// Fault-injection plane (disabled by default; the kernel arms a shared
    /// one through [`Machine::set_fault_plane`]). The machine consults it
    /// for AXI bus errors on peripheral windows, spurious/storming PL
    /// interrupts and memory bit flips.
    fault: FaultPlane,
    /// Cause of the most recent undefined-instruction exception.
    pub last_und: Option<UndCause>,
    /// Immediate of the most recent SVC.
    pub last_svc: Option<u8>,
    /// Most recent translation fault (also encoded into DFSR/IFSR).
    pub last_fault: Option<Fault>,
    /// Retired MIR instruction count.
    pub instructions_retired: u64,
    /// Hardware page-table walks performed (TLB-miss translations).
    pub pt_walks: u64,
    /// Exceptions taken (all kinds, including injected IRQs).
    pub exceptions_taken: u64,
    /// Performance monitoring unit (CP15 c9 group, delta-sampled from the
    /// counters above — see [`crate::pmu`]).
    pub pmu: Pmu,
    /// Decoded basic-block cache used by [`Machine::run_slice`]; the
    /// run-time switch is `bcache.enabled`.
    pub bcache: BlockCache,
    /// Sampling profiler handle (disabled by default; the kernel installs
    /// a shared one). Consulted at instruction boundaries only — see
    /// [`Machine::profile_poll`].
    pub profiler: Profiler,
    /// Replay data-access hints, indexed `[read, write]`; see [`DataHint`].
    dhint: [Option<DataHint>; 2],
    /// Bumped whenever the MMIO window list changes (peripheral attach),
    /// expiring every [`DataHint`] RAM-range proof.
    mmio_gen: u32,
    /// Emptied buffers of the last committed recording, handed to the next.
    rec_bufs: RecordingBufs,
    clock: Cycles,
    /// Clock at the last [`Machine::sync_devices`] call that saw time
    /// move: the instant the devices are observed at.
    last_sync: Cycles,
    /// Clock the devices have actually been advanced to (≤ `last_sync`).
    dev_time: Cycles,
    /// The one device deadline: no device changes observable state, and
    /// no fault-plane probe changes the plane, before this time. Never
    /// late; lowering it only costs an early catch-up.
    dev_deadline: Cycles,
    periphs: Vec<Box<dyn Peripheral>>,
}

impl Default for Machine {
    fn default() -> Self {
        Self::new(MachineConfig::default())
    }
}

impl Machine {
    /// Build a machine with the given configuration.
    pub fn new(cfg: MachineConfig) -> Self {
        Machine {
            mem: PhysMemory::new(),
            caches: CacheHierarchy::new(),
            tlb: Tlb::new(cfg.tlb_entries),
            cp15: Cp15::reset(),
            cpu: Cpu::new(),
            vfp: Vfp::new(),
            gic: Gic::new(),
            ptimer: PrivateTimer::new(),
            gtimer: GlobalTimer::default(),
            tracer: Tracer::disabled(),
            fault: FaultPlane::disabled(),
            last_und: None,
            last_svc: None,
            last_fault: None,
            instructions_retired: 0,
            pt_walks: 0,
            exceptions_taken: 0,
            pmu: Pmu::default(),
            bcache: BlockCache::default(),
            profiler: Profiler::disabled(),
            dhint: [None; 2],
            mmio_gen: 0,
            rec_bufs: RecordingBufs::default(),
            clock: Cycles::ZERO,
            last_sync: Cycles::ZERO,
            dev_time: Cycles::ZERO,
            dev_deadline: Cycles::ZERO,
            periphs: Vec::new(),
        }
    }

    // -- clock --------------------------------------------------------------

    /// Current simulated time.
    pub fn now(&self) -> Cycles {
        self.clock
    }

    /// Advance the clock by `n` cycles (does not tick devices; see
    /// [`Machine::sync_devices`]).
    #[inline]
    pub fn charge(&mut self, n: u64) {
        self.clock += Cycles::new(n);
    }

    /// Bring timers and peripherals up to the current clock. Called at
    /// instruction boundaries and before interrupt checks.
    ///
    /// Device time runs on demand: below the device deadline (the
    /// earliest timer expiry, peripheral event or fault-plane due time)
    /// nothing can change, so the call only notes the instant and
    /// returns. The devices catch up in one closed-form step when a sync
    /// reaches the deadline, and through [`Machine::settle_devices`] when
    /// something reads a value that moves with time or reprograms a
    /// device. Either way every event lands on the same sync as it would
    /// if every call advanced every device.
    #[inline]
    pub fn sync_devices(&mut self) {
        if self.clock <= self.last_sync {
            return;
        }
        self.last_sync = self.clock;
        if self.clock >= self.dev_deadline {
            self.catch_up();
        }
    }

    /// A sync that reached the device deadline: time-driven faults first,
    /// then the devices, then the next deadline.
    #[inline(never)]
    fn catch_up(&mut self) {
        self.inject_time_faults();
        self.settle_devices();
        self.rearm();
    }

    /// Advance the devices to the instant of the last sync. Below the
    /// deadline that advance is additive (counters, countdowns and busy
    /// time move; no event fires), so it is exact whenever it runs:
    /// before a read of a value that moves with time (the timer counter,
    /// a PRR's `PERF_CYCLES` or `busy_cycles`), before a device is
    /// reprogrammed, and wherever the kernel hands device state out. It
    /// probes no fault site.
    pub fn settle_devices(&mut self) {
        let dt = self.last_sync - self.dev_time;
        if dt.is_zero() {
            return;
        }
        self.dev_time = self.last_sync;
        self.gtimer.advance(dt);
        let fired = self.ptimer.advance(dt);
        for _ in 0..fired {
            self.gic.raise(self.ptimer.irq());
        }
        let Machine {
            ref mut periphs,
            ref mut mem,
            ref mut gic,
            ref tracer,
            last_sync,
            ..
        } = *self;
        let mut ctx = PeriphCtx {
            mem,
            gic,
            now: last_sync,
            tracer,
        };
        for p in periphs.iter_mut() {
            p.advance(dt, &mut ctx);
        }
    }

    /// Recompute the device deadline from settled devices
    /// (`dev_time == last_sync`).
    fn rearm(&mut self) {
        let now = self.dev_time;
        let mut d = self.fault.next_due(now).map_or(u64::MAX, Cycles::raw);
        if let Some(t) = self.ptimer.next_expiry_in() {
            d = d.min(now.raw() + t);
        }
        for p in &self.periphs {
            if let Some(t) = p.next_event(now) {
                d = d.min(now.raw().saturating_add(t));
            }
        }
        self.dev_deadline = Cycles::new(d);
    }

    /// Settle the devices and make the next sync re-arm the deadline: the
    /// way in for anything that reprograms a device outside its MMIO
    /// window ([`Machine::ptimer_mut`], [`Machine::peripheral_mut`], a new
    /// peripheral or fault plane).
    fn reprogram_devices(&mut self) {
        self.settle_devices();
        self.dev_deadline = self.dev_deadline.min(self.last_sync);
    }

    /// The private timer, as of the last device catch-up (call
    /// [`Machine::settle_devices`] first for its running counter).
    pub fn ptimer(&self) -> &PrivateTimer {
        &self.ptimer
    }

    /// Program the private timer: settles the devices first and re-arms
    /// the device deadline at the next sync.
    pub fn ptimer_mut(&mut self) -> &mut PrivateTimer {
        self.reprogram_devices();
        &mut self.ptimer
    }

    /// The fault plane the machine consults.
    pub fn fault(&self) -> &FaultPlane {
        &self.fault
    }

    /// Install a fault plane (a shared handle; see [`FaultPlane`]). Its
    /// first time-driven deadlines are stamped by the next sync, as when
    /// the plane was a public field.
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        self.reprogram_devices();
        self.fault = plane;
    }

    /// Inject the time-driven fault classes (spurious interrupts, interrupt
    /// storms, memory bit flips) whose deadlines have passed. A no-op when
    /// the plane is disarmed.
    fn inject_time_faults(&mut self) {
        if !self.fault.is_armed() {
            return;
        }
        let now = self.clock;
        if self.fault.due(FaultSite::IrqSpurious, now) {
            let line =
                self.fault
                    .pick(FaultSite::IrqSpurious, IrqNum::PL_COUNT as u64) as u16;
            let irq = IrqNum::pl(line);
            self.gic.raise(irq);
            self.tracer.emit(
                now,
                TraceEvent::FaultInjected {
                    site: FaultSite::IrqSpurious as u8,
                },
            );
        }
        if self.fault.due(FaultSite::IrqStorm, now) {
            // A storm asserts every fabric line at once — the worst case
            // the kernel's vGIC routing has to absorb.
            for line in 0..IrqNum::PL_COUNT {
                self.gic.raise(IrqNum::pl(line));
            }
            self.tracer.emit(
                now,
                TraceEvent::FaultInjected {
                    site: FaultSite::IrqStorm as u8,
                },
            );
        }
        if self.fault.due(FaultSite::MemFlip, now) {
            let window = self.fault.plan().map(|p| p.mem_flip_window);
            if let Some((base, len)) = window {
                if len >= 4 {
                    let word = self.fault.pick(FaultSite::MemFlip, len / 4) * 4;
                    let bit = self.fault.pick(FaultSite::MemFlip, 32) as u32;
                    let pa = PhysAddr::new(base + word);
                    if let Ok(v) = self.mem.read_u32(pa) {
                        let _ = self.mem.write_u32(pa, v ^ (1 << bit));
                        self.tracer.emit(
                            now,
                            TraceEvent::FaultInjected {
                                site: FaultSite::MemFlip as u8,
                            },
                        );
                    }
                }
            }
        }
    }

    /// Advance simulated time until the GIC asserts an interrupt or `limit`
    /// cycles elapse; returns the cycles actually waited. This is the WFI /
    /// idle-loop helper. Time moves in 64-cycle steps, each ending in a
    /// sync and a profiler poll, but a step below both the device deadline
    /// and the next sample changes nothing, so the loop jumps to the first
    /// step at or after the earlier of the two.
    pub fn wait_for_irq(&mut self, limit: Cycles) -> Cycles {
        const STEP: u64 = 64;
        let start = self.clock.raw();
        let end = start + limit.raw();
        while self.gic.highest_pending().is_none() && self.clock.raw() < end {
            let next = self.clock.raw() + STEP;
            let due = self
                .dev_deadline
                .raw()
                .min(self.profiler.next_deadline())
                .min(end);
            let at = if due > next {
                start + (due - start).div_ceil(STEP) * STEP
            } else {
                next
            };
            self.charge(at.min(end) - self.clock.raw());
            self.sync_devices();
            self.profile_poll();
        }
        Cycles::new(self.clock.raw() - start)
    }

    // -- peripherals ---------------------------------------------------------

    /// Attach a peripheral to the bus.
    pub fn add_peripheral(&mut self, p: Box<dyn Peripheral>) {
        let (base, len) = p.window();
        // Windows must not overlap RAM or each other.
        assert!(
            !self.mem.is_ram(base, len as usize),
            "peripheral window overlaps RAM"
        );
        for q in &self.periphs {
            let (qb, ql) = q.window();
            assert!(
                base.raw() + len <= qb.raw() || qb.raw() + ql <= base.raw(),
                "peripheral windows overlap"
            );
        }
        self.reprogram_devices();
        self.periphs.push(p);
        self.mmio_gen += 1;
    }

    /// Typed access to an attached peripheral, as of the last device
    /// catch-up: a value that moves with time (a PRR's busy cycles) is
    /// current after [`Machine::settle_devices`].
    pub fn peripheral<T: 'static>(&self) -> Option<&T> {
        self.periphs.iter().find_map(|p| p.as_any().downcast_ref())
    }

    /// Typed mutable access to an attached peripheral: settles the devices
    /// first and re-arms the device deadline at the next sync.
    pub fn peripheral_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.reprogram_devices();
        self.periphs
            .iter_mut()
            .find_map(|p| p.as_any_mut().downcast_mut())
    }

    // -- physical access ------------------------------------------------------

    fn mmio_lookup(&self, pa: PhysAddr) -> Option<usize> {
        self.periphs.iter().position(|p| {
            let (b, l) = p.window();
            pa >= b && pa.raw() < b.raw() + l
        })
    }

    /// True if `pa` is a device register (GIC, timer or peripheral window).
    pub fn is_mmio(&self, pa: PhysAddr) -> bool {
        let a = pa.raw();
        (GIC_BASE..GIC_BASE + GIC_SIZE).contains(&a)
            || (PTIMER_BASE..PTIMER_BASE + PTIMER_SIZE).contains(&a)
            || self.mmio_lookup(pa).is_some()
    }

    /// 32-bit physical read with cycle charging (RAM via caches, devices at
    /// AXI GP cost).
    pub fn phys_read_u32(&mut self, pa: PhysAddr) -> HalResult<u32> {
        let a = pa.raw();
        if (GIC_BASE..GIC_BASE + GIC_SIZE).contains(&a) {
            self.charge(timing::MMIO);
            self.sync_devices();
            return Ok(self.gic.mmio_read(a - GIC_BASE));
        }
        if (PTIMER_BASE..PTIMER_BASE + PTIMER_SIZE).contains(&a) {
            self.charge(timing::MMIO);
            self.sync_devices();
            self.settle_devices();
            return Ok(self.ptimer.mmio_read(a - PTIMER_BASE));
        }
        if let Some(i) = self.mmio_lookup(pa) {
            self.charge(timing::MMIO);
            self.sync_devices();
            let (base, _) = self.periphs[i].window();
            if self.periphs[i].reads_time(pa - base) {
                self.settle_devices();
            }
            if self.fault.trip(FaultSite::AxiReadError, self.clock, a) {
                // AXI DECERR: the interconnect answers with the error
                // pattern instead of reaching the device.
                self.tracer.emit(
                    self.clock,
                    TraceEvent::FaultInjected {
                        site: FaultSite::AxiReadError as u8,
                    },
                );
                return Ok(0xFFFF_FFFF);
            }
            let Machine {
                ref mut periphs,
                ref mut mem,
                ref mut gic,
                ref tracer,
                clock,
                ..
            } = *self;
            let mut ctx = PeriphCtx {
                mem,
                gic,
                now: clock,
                tracer,
            };
            return Ok(periphs[i].read32(pa - base, &mut ctx));
        }
        let cost = self
            .caches
            .access(pa, MemAccessKind::Read, self.mem.is_ocm(pa));
        self.charge(cost);
        self.mem.read_u32(pa)
    }

    /// 32-bit physical write with cycle charging.
    pub fn phys_write_u32(&mut self, pa: PhysAddr, val: u32) -> HalResult<()> {
        let a = pa.raw();
        if (GIC_BASE..GIC_BASE + GIC_SIZE).contains(&a) {
            self.charge(timing::MMIO);
            self.sync_devices();
            self.gic.mmio_write(a - GIC_BASE, val);
            return Ok(());
        }
        if (PTIMER_BASE..PTIMER_BASE + PTIMER_SIZE).contains(&a) {
            self.charge(timing::MMIO);
            self.sync_devices();
            self.settle_devices();
            self.ptimer.mmio_write(a - PTIMER_BASE, val);
            self.rearm();
            return Ok(());
        }
        if let Some(i) = self.mmio_lookup(pa) {
            self.charge(timing::MMIO);
            self.sync_devices();
            if self.fault.trip(FaultSite::AxiWriteError, self.clock, a) {
                // The interconnect drops the write (SLVERR on the response
                // channel; the store itself never reaches the device).
                self.tracer.emit(
                    self.clock,
                    TraceEvent::FaultInjected {
                        site: FaultSite::AxiWriteError as u8,
                    },
                );
                return Ok(());
            }
            self.settle_devices();
            let Machine {
                ref mut periphs,
                ref mut mem,
                ref mut gic,
                ref tracer,
                clock,
                ..
            } = *self;
            let (base, _) = periphs[i].window();
            let mut ctx = PeriphCtx {
                mem,
                gic,
                now: clock,
                tracer,
            };
            periphs[i].write32(pa - base, val, &mut ctx);
            self.rearm();
            return Ok(());
        }
        let cost = self
            .caches
            .access(pa, MemAccessKind::Write, self.mem.is_ocm(pa));
        self.charge(cost);
        self.mem.write_u32(pa, val)
    }

    /// Charged block read (per-cache-line accounting).
    pub fn phys_read_block(&mut self, pa: PhysAddr, out: &mut [u8]) -> HalResult<()> {
        self.charge_block(pa, out.len(), MemAccessKind::Read);
        self.mem.read(pa, out)
    }

    /// Charged block write.
    pub fn phys_write_block(&mut self, pa: PhysAddr, data: &[u8]) -> HalResult<()> {
        self.charge_block(pa, data.len(), MemAccessKind::Write);
        self.mem.write(pa, data)
    }

    fn charge_block(&mut self, pa: PhysAddr, len: usize, kind: MemAccessKind) {
        let line = self.caches.l1d.line_size() as u64;
        let mut a = pa.raw() & !(line - 1);
        let end = pa.raw() + len as u64;
        let mut cost = 0;
        while a < end {
            cost += self
                .caches
                .access(PhysAddr::new(a), kind, self.mem.is_ocm(PhysAddr::new(a)));
            a += line;
        }
        self.charge(cost);
    }

    /// Uncharged, unchecked store of bytes — boot-time loading only (the
    /// equivalent of JTAG/SD preload, not an architectural access).
    pub fn load_bytes(&mut self, pa: PhysAddr, data: &[u8]) -> HalResult<()> {
        self.mem.write(pa, data)
    }

    // -- virtual access -------------------------------------------------------

    /// Record `fault` into the fault registers and hand it back.
    #[cold]
    fn record_fault(&mut self, fault: Fault) -> Fault {
        self.last_fault = Some(fault);
        match fault.access {
            AccessKind::Execute => {
                self.cp15.write(Cp15Reg::Ifar, fault.va.raw() as u32);
                self.cp15.write(Cp15Reg::Ifsr, fault.fsr());
            }
            _ => {
                self.cp15.write(Cp15Reg::Dfar, fault.va.raw() as u32);
                self.cp15.write(Cp15Reg::Dfsr, fault.fsr());
            }
        }
        fault
    }

    /// Translate only (charges walk traffic). Faults are recorded into the
    /// fault registers as a side effect. A TLB hit costs nothing beyond the
    /// access itself and runs inline: the lookup, then [`mmu::hit`]'s live
    /// DACR/AP check. A miss walks the tables ([`mmu::walk`]).
    /// With the MMU off the translation is a free identity, no TLB traffic.
    #[inline]
    pub fn translate(
        &mut self,
        va: VirtAddr,
        access: AccessKind,
        privileged: bool,
    ) -> Result<PhysAddr, Fault> {
        if !self.cp15.mmu_enabled() {
            return Ok(PhysAddr::new(va.raw()));
        }
        let Some(e) = self.tlb.lookup(va, self.cp15.asid()) else {
            return self.translate_walk(va, access, privileged);
        };
        mmu::hit(&e, va, access, privileged, &self.cp15).map_err(|f| self.record_fault(f))
    }

    /// The miss half of [`Machine::translate`]: walk, check the walked
    /// entry with the hit routine, insert it, then charge the walk and
    /// count it. A faulting walk or check charges nothing and inserts
    /// nothing.
    #[inline(never)]
    fn translate_walk(
        &mut self,
        va: VirtAddr,
        access: AccessKind,
        privileged: bool,
    ) -> Result<PhysAddr, Fault> {
        let walked = mmu::walk(va, access, &self.cp15, &self.mem, &mut self.caches)
            .and_then(|(e, cost)| Ok((e, cost, mmu::hit(&e, va, access, privileged, &self.cp15)?)));
        let (entry, cost, pa) = walked.map_err(|f| self.record_fault(f))?;
        self.tlb.insert(entry);
        self.charge(cost);
        self.pt_walks += 1;
        Ok(pa)
    }

    /// Charged virtual 32-bit read at the given privilege.
    pub fn virt_read_u32(&mut self, va: VirtAddr, privileged: bool) -> Result<u32, Fault> {
        let pa = self.translate(va, AccessKind::Read, privileged)?;
        Ok(self.phys_read_u32(pa).unwrap_or(0))
    }

    /// Charged virtual 32-bit write at the given privilege.
    pub fn virt_write_u32(
        &mut self,
        va: VirtAddr,
        val: u32,
        privileged: bool,
    ) -> Result<(), Fault> {
        let pa = self.translate(va, AccessKind::Write, privileged)?;
        let _ = self.phys_write_u32(pa, val);
        Ok(())
    }

    // -- maintenance wrappers (what the kernel's CP15 ops do) ------------------

    /// TLBIALL with its issue cost. Also drops every decoded block: the
    /// mappings the blocks' recorded physical addresses came from may be
    /// stale after the flush.
    pub fn tlb_flush_all(&mut self) {
        self.charge(timing::TLB_MAINT);
        self.tracer.emit(self.clock, TraceEvent::TlbFlush);
        self.tlb.flush_all();
        self.bcache.invalidate_all();
    }

    /// TLBIASID.
    pub fn tlb_flush_asid(&mut self, asid: mnv_hal::Asid) {
        self.charge(timing::TLB_MAINT);
        self.tracer.emit(self.clock, TraceEvent::TlbFlush);
        self.tlb.flush_asid(asid);
        self.bcache.invalidate_asid(asid.0);
    }

    /// TLBIMVA.
    pub fn tlb_flush_mva(&mut self, va: VirtAddr, asid: mnv_hal::Asid) {
        self.charge(timing::TLB_MAINT);
        self.tracer.emit(self.clock, TraceEvent::TlbFlush);
        self.tlb.flush_mva(va, asid);
        self.bcache
            .invalidate_mva(asid.0, va.raw() as u32, mnv_hal::PAGE_SIZE);
    }

    /// Full cache clean+invalidate, charged per resident line. Decoded
    /// blocks go with it — I-cache maintenance is how architectural code
    /// modification is published.
    pub fn cache_flush_all(&mut self) {
        let cost = self.caches.flush_all();
        self.charge(cost);
        self.bcache.invalidate_all();
    }

    // -- exceptions ------------------------------------------------------------

    /// Deliver an exception: architectural entry + cycle cost + trace event.
    pub fn deliver_exception(&mut self, kind: ExceptionKind, return_pc: u32) {
        self.exceptions_taken += 1;
        self.charge(timing::EXC_ENTRY);
        self.tracer.emit(
            self.clock,
            TraceEvent::TrapEnter {
                kind: trap_kind(kind),
            },
        );
        self.cpu
            .take_exception(kind, return_pc, self.cp15.read(Cp15Reg::Vbar));
    }

    /// Return from the current exception to `pc`.
    pub fn exception_return(&mut self, pc: u32) {
        self.charge(timing::EXC_RETURN);
        self.tracer.emit(self.clock, TraceEvent::TrapExit);
        self.cpu.exception_return(pc);
    }

    // -- performance monitoring --------------------------------------------------

    /// Assemble the cumulative raw event totals the PMU (and the kernel's
    /// per-VM accounting) samples: everything comes from the timing models
    /// that already run on every access, so gathering them costs nothing
    /// on the hot paths.
    pub fn pmu_inputs(&self) -> PmuInputs {
        let l1i = self.caches.l1i.stats();
        let l1d = self.caches.l1d.stats();
        let tlb = self.tlb.stats();
        PmuInputs {
            cycles: self.clock.raw(),
            instr_retired: self.instructions_retired,
            l1i_access: l1i.accesses(),
            l1i_refill: l1i.misses,
            l1d_access: l1d.accesses(),
            l1d_refill: l1d.misses,
            tlb_refill: tlb.misses,
            pt_walks: self.pt_walks,
            exc_taken: self.exceptions_taken,
        }
    }

    /// Digests of the TLB, L1I, L1D and L2 replacement state, in that order
    /// (see [`Tlb::state_digest`]). Hit and miss counts reach the PMU; these
    /// cover what decides future evictions — entries, tags, LRU stamps and
    /// ticks — so an executor that stamps in the wrong order diverges here
    /// long before a miss count does.
    pub fn replacement_digest(&self) -> [u64; 4] {
        [
            self.tlb.state_digest(),
            self.caches.l1i.state_digest(),
            self.caches.l1d.state_digest(),
            self.caches.l2.state_digest(),
        ]
    }

    /// Take a profile sample if the clock has reached the profiler's next
    /// sample deadline. Pure observation — it reads the PC, ASID and mode
    /// and never charges cycles, syncs devices or touches cache/TLB state
    /// — so a profiled run is bit-identical to an unprofiled one. Both
    /// executors call this at instruction boundaries (the block executor
    /// additionally folds the sample deadline into its batch bound so a
    /// decoded run never strides over a sample point), which makes the
    /// fast and reference paths sample at identical boundaries.
    #[inline]
    pub fn profile_poll(&self) {
        if self.clock.raw() < self.profiler.next_deadline() {
            return;
        }
        self.profiler.poll(
            self.clock,
            self.cpu.pc,
            self.cp15.asid().0,
            self.cpu.cpsr.mode.is_privileged(),
        );
    }

    // -- program loading --------------------------------------------------------

    /// Load an assembled MIR program at its base address *physically* (the
    /// caller ensures the VA->PA mapping makes it reachable).
    pub fn load_program(&mut self, prog: &Program, pa: PhysAddr) -> HalResult<()> {
        self.load_bytes(pa, &prog.bytes)
    }

    // -- the interpreter ----------------------------------------------------------

    /// Check for a deliverable IRQ; if one is pending and the CPU has IRQs
    /// unmasked, perform exception entry and report it. The kernel then
    /// acknowledges via the GIC.
    pub fn poll_irq(&mut self) -> Option<CpuEvent> {
        self.sync_devices();
        if self.cpu.cpsr.irq_masked {
            return None;
        }
        self.gic.highest_pending()?;
        let ret = self.cpu.pc; // resume at the interrupted instruction
        self.deliver_exception(ExceptionKind::Irq, ret);
        Some(CpuEvent::Exception(ExceptionKind::Irq))
    }

    /// Charge an instruction fetch from `pa`: its I-cache access and the
    /// base instruction cost. Every fetch runs this, reference and replay
    /// alike.
    #[inline]
    fn charge_fetch(&mut self, pa: PhysAddr) {
        let cost = self
            .caches
            .access(pa, MemAccessKind::Fetch, self.mem.is_ocm(pa));
        self.charge(cost + timing::INSTR_BASE);
    }

    /// Execute one MIR instruction at the current PC. Devices are synced and
    /// pending IRQs are taken first.
    pub fn step(&mut self) -> CpuEvent {
        if let Some(ev) = self.poll_irq() {
            return ev;
        }

        let pc = self.cpu.pc;
        let privileged = self.cpu.cpsr.mode.is_privileged();

        // Fetch through the MMU + I-cache.
        let va = VirtAddr::new(pc as u64);
        let pa = match self.translate(va, AccessKind::Execute, privileged) {
            Ok(pa) => pa,
            Err(_) => {
                self.deliver_exception(ExceptionKind::PrefetchAbort, pc);
                return CpuEvent::Exception(ExceptionKind::PrefetchAbort);
            }
        };
        // Bus check first: a fetch that aborts on the bus never occupies the
        // I-cache or charges fetch cost (it dies on the AXI response, not in
        // the cache pipeline).
        let mut bytes = [0u8; 8];
        if self.mem.read(pa, &mut bytes).is_err() {
            self.deliver_exception(ExceptionKind::PrefetchAbort, pc);
            return CpuEvent::Exception(ExceptionKind::PrefetchAbort);
        }
        self.charge_fetch(pa);

        let instr = match Instr::decode(bytes) {
            Some(i) => i,
            None => {
                self.last_und = Some(UndCause {
                    pc: va,
                    kind: UndKind::InvalidInstr,
                });
                self.deliver_exception(ExceptionKind::Undefined, pc.wrapping_add(8));
                return CpuEvent::Exception(ExceptionKind::Undefined);
            }
        };

        self.execute(instr, pc, privileged)
    }

    // -- the block executor ------------------------------------------------------

    /// Commit a recorded (super)block. Discards the recording if any store
    /// landed while it was open (the dirty-chunk drain only protects blocks
    /// that are already resident). When the recording knows its dynamic
    /// predecessor (the block whose exit started it), the new block is
    /// chained in immediately — the edge was just traversed. The emptied
    /// buffers go back to `rec_bufs` for the next recording.
    fn bcache_commit(&mut self, rec: Recording) {
        let Recording {
            key,
            gen,
            mut instrs,
            mut segs,
            pred,
            ..
        } = rec;
        if !instrs.is_empty() && self.mem.code_gen() == gen {
            let rc = self
                .bcache
                .insert(CachedBlock::new(&instrs, &segs, key.0, key.1));
            if let Some(p) = pred {
                self.bcache.patch(&p, &rc);
            }
        }
        instrs.clear();
        segs.clear();
        self.rec_bufs = (instrs, segs);
    }

    /// Run until the clock reaches `deadline` or a non-`Retired` event
    /// occurs. Architecturally **bit-identical** to the reference loop
    ///
    /// ```ignore
    /// while m.now() < deadline {
    ///     match m.step() { CpuEvent::Retired => {}, ev => return ev }
    /// }
    /// ```
    ///
    /// (the lockstep differential suite enforces this), but when
    /// `bcache.enabled` is set it replays decoded basic blocks and syncs
    /// the device models only at computed deadlines instead of every
    /// instruction.
    pub fn run_slice(&mut self, deadline: Cycles) -> CpuEvent {
        if self.bcache.enabled {
            return self.run_slice_fast(deadline);
        }
        while self.clock < deadline {
            self.profile_poll();
            match self.step() {
                CpuEvent::Retired => {}
                ev => return ev,
            }
        }
        CpuEvent::Retired
    }

    /// Replayed `Ldr`/`Str`: bit-identical to the [`Machine::execute`]
    /// arms, with a validated-by-value fast path for the common case — a
    /// TLB-hitting, permission-passing access to plain RAM whose line sits
    /// in L1D ([`Machine::mem_guard`]). The guard mutates nothing, so a
    /// failure cleanly runs the [`Machine::execute`] arm itself and then
    /// refreshes the hint. A passing access commits the reference
    /// bookkeeping in reference order: TLB hit credit, L1D hit credit and
    /// charge, then the RAM access.
    fn execute_mem_replay(&mut self, instr: Instr, pc: u32, privileged: bool) -> CpuEvent {
        let (write, rn, imm) = match instr {
            Instr::Ldr { rn, imm, .. } => (false, rn, imm),
            Instr::Str { rn, imm, .. } => (true, rn, imm),
            _ => return self.execute(instr, pc, privileged),
        };
        let va = VirtAddr::new(self.cpu.reg(rn).wrapping_add(imm) as u64);
        if let Some(g) = self.mem_guard(write, va, privileged) {
            if let Some(slot) = g.tlb_slot {
                self.tlb.replay_hits(slot, 1);
            }
            self.caches.l1d.replay_hit(g.line_slot);
            self.charge(timing::L1_HIT);
            match instr {
                Instr::Ldr { rd, .. } => {
                    let v = self.mem.read_u32(g.pa).unwrap_or(0);
                    self.cpu.set_reg(rd, v);
                }
                Instr::Str { rs, .. } => {
                    let _ = self.mem.write_u32(g.pa, self.cpu.reg(rs));
                }
                _ => unreachable!(),
            }
            self.cpu.pc = pc.wrapping_add(INSTR_SIZE as u32);
            self.instructions_retired += 1;
            return CpuEvent::Retired;
        }
        let ev = self.execute(instr, pc, privileged);
        if ev == CpuEvent::Retired {
            self.dhint[write as usize] = self.make_data_hint(va);
        }
        ev
    }

    /// The side-effect-free guard of the replayed data fast path: the
    /// direction's [`DataHint`] still describes this access — its TLB slot
    /// holds an entry translating `va` under the live ASID and passing the
    /// live permission check (or the MMU is off, as when the hint was
    /// made), the physical address is inside the proven RAM range, and the
    /// L1D slot still holds the line. `Some` proves the reference path
    /// would take exactly one TLB hit (on that slot) and one L1D hit (on
    /// that slot) and touch RAM; `None` proves nothing and changes nothing.
    #[inline]
    fn mem_guard(&self, write: bool, va: VirtAddr, privileged: bool) -> Option<DataHit> {
        let h = self.dhint[write as usize]?;
        if h.mmio_gen != self.mmio_gen || !self.caches.enabled {
            return None;
        }
        let (pa, tlb_slot) = match h.tlb {
            Some((slot, e)) => {
                if !self.cp15.mmu_enabled()
                    || self.tlb.entry_at(slot) != Some(e)
                    || !e.matches(va, self.cp15.asid())
                {
                    return None;
                }
                let access = if write {
                    AccessKind::Write
                } else {
                    AccessKind::Read
                };
                let pa = mmu::hit(&e, va, access, privileged, &self.cp15).ok()?;
                (pa.raw(), Some(slot))
            }
            None if self.cp15.mmu_enabled() => return None,
            None => (va.raw(), None),
        };
        // The window check keys off the access's start address, as the
        // physical routing in `phys_read_u32`/`phys_write_u32` does.
        if pa < h.ram_lo || pa >= h.ram_hi {
            return None;
        }
        let pa = PhysAddr::new(pa);
        if !self.caches.l1d.slot_holds(h.line_slot, pa) {
            return None;
        }
        Some(DataHit {
            pa,
            tlb_slot,
            line_slot: h.line_slot,
        })
    }

    /// Build a [`DataHint`] for a just-completed data access, or `None`
    /// when the fast path can't serve this page (MMIO in range, cold L1D
    /// line, no TLB entry, caches disabled) — meaning the next access
    /// simply takes the full model again. The access's physical address
    /// comes from the TLB entry that translated it (the VA with the MMU
    /// off).
    fn make_data_hint(&self, va: VirtAddr) -> Option<DataHint> {
        if !self.caches.enabled {
            return None;
        }
        let tlb = if self.cp15.mmu_enabled() {
            Some(self.tlb.probe_slot(va, self.cp15.asid())?)
        } else {
            None
        };
        let (pa, ram_lo, ram_hi) = match tlb {
            Some((_, e)) => {
                let size = match e.kind {
                    PageKind::Section => mnv_hal::SECTION_SIZE,
                    PageKind::Small => mnv_hal::PAGE_SIZE,
                };
                (e.translate(va), e.pa_base, e.pa_base + size)
            }
            None => {
                let lo = va.raw() & !(mnv_hal::PAGE_SIZE - 1);
                (va.raw(), lo, lo + mnv_hal::PAGE_SIZE)
            }
        };
        let pa = PhysAddr::new(pa);
        let disjoint = |lo: u64, len: u64| ram_hi <= lo || lo + len <= ram_lo;
        if !disjoint(GIC_BASE, GIC_SIZE) || !disjoint(PTIMER_BASE, PTIMER_SIZE) {
            return None;
        }
        for p in &self.periphs {
            let (b, l) = p.window();
            if !disjoint(b.raw(), l) {
                return None;
            }
        }
        let line_slot = self.caches.l1d.probe_slot(pa)?;
        Some(DataHint {
            tlb,
            ram_lo,
            ram_hi,
            mmio_gen: self.mmio_gen,
            line_slot,
        })
    }

    /// The decoded-block fast path with block chaining. Whole planned runs
    /// (see [`Run`]) are replayed in one step: translation and L1I
    /// residency are verified once up front (per superblock segment), the
    /// run's pre-lowered micro-ops execute back-to-back (its one memory
    /// access behind [`Machine::mem_guard`]), and the cycles and the
    /// TLB/L1I hit bookkeeping the reference path would have done per
    /// fetch are settled in one exact bulk update for exactly the
    /// instructions that ran. Everything else fetches per instruction
    /// through the reference path's translation and I-cache model
    /// ([`Machine::translate`], [`CacheHierarchy::access`]); a replayed
    /// instruction skips only the bus read and the decode.
    ///
    /// Block transitions follow chain links where possible: when a block
    /// finishes, its successor is resolved through the lazily patched link
    /// (validity-, ASID- and PC-checked) without a cache lookup. The slice
    /// deadline, the device-sync deadline and the profiler's sample
    /// deadline are folded into one precomputed *chain exit bound*, so the
    /// hot path pays a single compare per block boundary; the dirty-chunk
    /// `code_gen` drain stays a second integer compare. Device models sync
    /// only at the machine's device deadline; after a load or store the
    /// bound re-reads that deadline (a device write re-arms it) and the
    /// O(1) GIC query, while CP15/CPSR writes conservatively force a sync
    /// + poll at the next boundary.
    fn run_slice_fast(&mut self, deadline: Cycles) -> CpuEvent {
        use std::rc::Rc;

        /// Replay cursor: the block being replayed.
        struct Replay {
            block: Rc<CachedBlock>,
            idx: usize,
            /// Cursor into the block's runs (runs are met in order;
            /// entering a run mid-way — after a deadline split — skips its
            /// batch).
            next_run: usize,
        }

        // Set when the next boundary must sync + poll for an IRQ whatever
        // the device deadline says. Starts set so the first iteration
        // syncs + polls exactly like the first reference `step()`.
        let mut poll_due = true;
        // The chain exit bound: min(slice deadline, device deadline,
        // profiler sample deadline). While the clock is strictly below it,
        // a block boundary needs no deadline processing at all — one
        // compare and control stays inside the chained blocks. Starting at
        // `clock` forces the first iteration through the slow boundary.
        let mut chain_bound = self.clock;

        let mut replay: Option<Replay> = None;

        // Open recording (absent while replaying).
        let mut rec: Option<Recording> = None;

        // The block that just finished, waiting to learn its successor:
        // either followed through its chain link, or patched to the next
        // lookup/commit result on this first traversal of the edge.
        let mut pending_link: Option<Rc<CachedBlock>> = None;

        // Scratch for batch line slots and per-segment TLB slots (reused
        // across batches).
        let mut line_slots: Vec<(usize, u64)> = Vec::new();
        let mut seg_slots: Vec<(usize, u64)> = Vec::new();

        'slice: loop {
            if self.clock >= chain_bound {
                // Slow boundary: at least one of the folded deadlines is
                // due. Handle them in the reference order, then recompute
                // the bound.
                if self.clock >= deadline {
                    // Slice exhausted: an open recording is still a valid
                    // straight-line prefix — keep it.
                    if let Some(r) = rec.take() {
                        self.bcache_commit(r);
                    }
                    return CpuEvent::Retired;
                }
                // Sample before the boundary's IRQ poll, exactly where the
                // reference path samples (before `step()`'s `poll_irq`).
                self.profile_poll();
                if poll_due || self.clock >= self.dev_deadline {
                    if let Some(ev) = self.poll_irq() {
                        if let Some(r) = rec.take() {
                            self.bcache_commit(r);
                        }
                        return ev;
                    }
                    poll_due = false;
                    // The sync may have DMA'd over code or flipped a bit in
                    // it (fault plane): stop trusting the run being
                    // replayed; the boundary drain below reconciles the
                    // cache itself.
                    if replay.is_some() && self.mem.code_gen() != self.bcache.seen_gen() {
                        replay = None;
                        pending_link = None;
                    }
                }
                chain_bound = deadline
                    .min(self.dev_deadline)
                    .min(Cycles::new(self.profiler.next_deadline()));
            }

            // Block boundary: finished (or abandoned) a replay and no
            // recording is open — reconcile invalidations, then resolve the
            // next block (chain link first, lookup second). A finished block
            // whose successor is itself (hot loop back edge) re-enters in
            // place, skipping the cursor teardown and link chase.
            if let Some(r) = replay.as_mut() {
                if r.idx >= r.block.instrs.len() {
                    if self.mem.code_gen() == self.bcache.seen_gen()
                        && self
                            .bcache
                            .follow_self(&r.block, self.cp15.asid().0, self.cpu.pc)
                    {
                        r.idx = 0;
                        r.next_run = 0;
                    } else {
                        pending_link = replay.take().map(|r| r.block);
                    }
                }
            }
            if replay.is_none() && rec.is_none() {
                if self.mem.code_gen() != self.bcache.seen_gen() {
                    let gen = self.mem.code_gen();
                    let dirty = self.mem.take_dirty_code();
                    self.bcache
                        .invalidate_chunks(&dirty, PhysMemory::code_chunk_size(), gen);
                }
                let asid = self.cp15.asid().0;
                let pc = self.cpu.pc;
                let pred = pending_link.take();
                let chained = pred.as_ref().and_then(|p| self.bcache.follow(p, asid, pc));
                let hit = match chained {
                    Some(b) => Some(b),
                    None => {
                        let b = self.bcache.lookup(asid, pc);
                        // First traversal of this edge: patch the link so
                        // the next one follows it without the lookup.
                        if let (Some(p), Some(b)) = (pred.as_ref(), b.as_ref()) {
                            self.bcache.patch(p, b);
                        }
                        b
                    }
                };
                match hit {
                    Some(block) => {
                        replay = Some(Replay {
                            block,
                            idx: 0,
                            next_run: 0,
                        })
                    }
                    // On a miss the predecessor rides along in the
                    // recording and is chained to the new block at commit.
                    None => {
                        let bufs = std::mem::take(&mut self.rec_bufs);
                        rec = Some(Recording::new((asid, pc), self.mem.code_gen(), pred, bufs))
                    }
                }
            }

            let pc = self.cpu.pc;
            let privileged = self.cpu.cpsr.mode.is_privileged();
            let va = VirtAddr::new(pc as u64);

            // -- whole-run batch ------------------------------------------
            // If the replay cursor sits at the start of a planned run and
            // every boundary inside it falls strictly before the chain exit
            // bound, verify the run's translation (per segment) and L1I
            // residency once and execute its micro-ops in one step. Any
            // failed precondition falls through to the per-instruction
            // path, which reproduces the reference behaviour (including
            // fault delivery) exactly; so does a failed memory guard, for
            // the instructions from the memory access on.
            'batch: {
                let Some(r) = replay.as_mut() else {
                    break 'batch;
                };
                let block = Rc::clone(&r.block);
                while r.next_run < block.runs.len()
                    && (block.runs[r.next_run].start as usize) < r.idx
                {
                    r.next_run += 1;
                }
                let Some(run) = block.runs.get(r.next_run) else {
                    break 'batch;
                };
                if run.start as usize != r.idx {
                    break 'batch;
                }
                // One compare folds slice deadline, device deadline and
                // sample deadline: a run may not stride over any of them
                // (the reference path checks all three at every
                // instruction boundary).
                if self.clock + Cycles::new(run.cost_before_last) >= chain_bound {
                    break 'batch;
                }
                if !self.caches.enabled {
                    break 'batch;
                }
                let (start, len) = (run.start as usize, run.len as usize);
                // Verification is memoized per run on the block: when the
                // stamp matches, the probes below would provably resolve the
                // same slots with the same outcome (see [`VerifyStamp`]), so
                // they are skipped. The *observable* bookkeeping — bulk
                // TLB/L1I hit credit — always runs, memo hit or not.
                let stamp = VerifyStamp {
                    tlb_epoch: self.tlb.epoch(),
                    l1i_epoch: self.caches.l1i.epoch(),
                    dacr: self.cp15.dacr,
                    asid: self.cp15.asid().0,
                    privileged,
                    mmu_on: self.cp15.mmu_enabled(),
                };
                let mut memo = block.verify.borrow_mut();
                let memo_hit = memo
                    .get(r.next_run)
                    .and_then(Option::as_ref)
                    .is_some_and(|v| v.stamp == stamp);
                if !memo_hit {
                    // Per-segment translation check over the block segments
                    // the run covers: nothing inside a run can change the
                    // mapping, the ASID, DACR, the privilege level or the
                    // TLB itself, and every segment is physically
                    // contiguous within one page — so one TLB entry check
                    // per segment covers every fetch in the run.
                    seg_slots.clear();
                    let asid = self.cp15.asid();
                    let mut base = 0;
                    for seg in block.segs.iter() {
                        let seg_start = base;
                        base += seg.len as usize;
                        let lo = seg_start.max(start);
                        let hi = base.min(start + len);
                        if lo >= hi {
                            continue;
                        }
                        let off = (lo - seg_start) as u64 * INSTR_SIZE;
                        let sva = VirtAddr::new(seg.va.wrapping_add(off as u32) as u64);
                        let spa = seg.pa + off;
                        if !stamp.mmu_on {
                            if sva.raw() != spa {
                                break 'batch;
                            }
                            continue;
                        }
                        let Some((slot, entry)) = self.tlb.probe_slot(sva, asid) else {
                            break 'batch;
                        };
                        let exec = AccessKind::Execute;
                        match mmu::hit(&entry, sva, exec, privileged, &self.cp15) {
                            Ok(pa) if pa.raw() == spa => {}
                            _ => break 'batch,
                        }
                        seg_slots.push((slot, (hi - lo) as u64));
                    }
                    // Every line resident ⇒ every fetch is a plain L1I hit
                    // (a hit never evicts, and only these fetches touch L1I).
                    // Each line keeps the 1-based ordinal of its last fetch,
                    // enough to replay the per-line LRU stamps exactly.
                    line_slots.clear();
                    let shift = self.caches.l1i.line_shift();
                    let mut line = u64::MAX;
                    for (k, &(pa, _)) in block.instrs[start..start + len].iter().enumerate() {
                        let ord = k as u64 + 1;
                        if pa >> shift == line {
                            line_slots.last_mut().expect("line opened").1 = ord;
                            continue;
                        }
                        line = pa >> shift;
                        match self.caches.l1i.probe_slot(PhysAddr::new(pa)) {
                            Some(s) => line_slots.push((s, ord)),
                            None => break 'batch,
                        }
                    }
                    // The memo is allocated by a block's first successful
                    // verification: most blocks of code larger than the
                    // caches never get one.
                    if memo.is_empty() {
                        memo.resize(block.runs.len(), None);
                    }
                    memo[r.next_run] = Some(RunVerify {
                        stamp,
                        seg_slots: seg_slots.as_slice().into(),
                        line_slots: line_slots.as_slice().into(),
                    });
                }
                let v = memo[r.next_run].as_ref().expect("verified above");
                // Committed. Run the micro-ops (lowered at the block's
                // first successful verification), then charge and settle
                // what ran: nothing in a run observes the clock or the
                // TLB/L1I replacement state, so only the final values
                // matter.
                let exit = self.run_uops(&block.uops()[start..start + len], run, privileged);
                let done = exit.done as u64;
                self.settle_batch(run, v, &exit, &mut line_slots);
                r.idx += exit.done;
                r.next_run += 1;
                self.charge(exit.cycles);
                self.cpu.pc = exit.pc;
                self.instructions_retired += done;
                self.bcache.stats.replayed_instrs += done;
                self.bcache.stats.batched_instrs += done;
                if exit.dirtied {
                    // A store over cached code stops the replay before the
                    // next (now stale) instruction.
                    replay = None;
                }
                continue 'slice;
            }

            // -- per-instruction ------------------------------------------
            let instr = 'fetch: {
                if let Some(r) = replay.as_mut() {
                    let (blk_pa, instr) = r.block.instrs[r.idx];
                    let pa = match self.translate(va, AccessKind::Execute, privileged) {
                        Ok(pa) => pa,
                        Err(_) => {
                            self.deliver_exception(ExceptionKind::PrefetchAbort, pc);
                            return CpuEvent::Exception(ExceptionKind::PrefetchAbort);
                        }
                    };
                    if pa.raw() == blk_pa {
                        // Replay: the bytes at `pa` are unchanged (chunk
                        // tracking) and map-checked (live translation
                        // above) — skip the bus read and the decode, keep
                        // the charges.
                        r.idx += 1;
                        self.bcache.stats.replayed_instrs += 1;
                        self.charge_fetch(pa);
                        break 'fetch instr;
                    }
                    // The mapping moved under the block (remap without TLB
                    // maintenance — MIR can do it): drop the block — which
                    // also invalidates it, de-chaining it from every
                    // predecessor — and fetch this instruction the slow
                    // way, without recording.
                    self.bcache.stats.replay_aborts += 1;
                    let (basid, bva) = (r.block.asid, r.block.va);
                    self.bcache.remove(basid, bva);
                    replay = None;
                    match self.fetch_slow(pc, pa, &mut rec) {
                        Ok(i) => break 'fetch i,
                        Err(ev) => return ev,
                    }
                }
                // Recording/uncached: translate the fetch exactly as the
                // reference path does — same TLB evolution, same walk
                // charges, same prefetch aborts — then bus-read + decode.
                let pa = match self.translate(va, AccessKind::Execute, privileged) {
                    Ok(pa) => pa,
                    Err(_) => {
                        if let Some(r) = rec.take() {
                            self.bcache_commit(r);
                        }
                        self.deliver_exception(ExceptionKind::PrefetchAbort, pc);
                        return CpuEvent::Exception(ExceptionKind::PrefetchAbort);
                    }
                };
                match self.fetch_slow(pc, pa, &mut rec) {
                    Ok(i) => i,
                    Err(ev) => return ev,
                }
            };

            let ev = match instr {
                Instr::Ldr { .. } | Instr::Str { .. } => {
                    self.execute_mem_replay(instr, pc, privileged)
                }
                _ => self.execute(instr, pc, privileged),
            };
            match ev {
                CpuEvent::Retired => {}
                ev => {
                    // Halt/SVC/WFI/exception: the recorded run up to and
                    // including this instruction is a valid block.
                    if let Some(r) = rec.take() {
                        self.bcache_commit(r);
                    }
                    return ev;
                }
            }

            match instr.fast_class() {
                FastClass::Pure => {}
                _ if replay.is_some() => match instr {
                    Instr::Ldr { .. } | Instr::Str { .. } => {
                        // A RAM access cannot move the device deadline or
                        // raise an IRQ. A device write re-arms the deadline
                        // and a GIC write can make a pending line
                        // deliverable; both show at the next boundary.
                        chain_bound = chain_bound.min(self.dev_deadline);
                        if !self.cpu.cpsr.irq_masked && self.gic.highest_pending().is_some() {
                            poll_due = true;
                            chain_bound = self.clock;
                        }
                        // A store over cached code must stop the replay
                        // before the next (now stale) instruction.
                        if matches!(instr, Instr::Str { .. })
                            && self.mem.code_gen() != self.bcache.seen_gen()
                        {
                            replay = None;
                        }
                    }
                    // Register-file only: cannot touch devices, masks or
                    // mappings (a disabled-VFP trap exits above).
                    Instr::VfpOp { .. } => {}
                    // CP15/CPSR writes can unmask IRQs, remap, retune
                    // devices: re-sync and re-poll at the next boundary.
                    _ => {
                        poll_due = true;
                        chain_bound = self.clock;
                    }
                },
                _ => {
                    // Recording: keep the reference path's conservative
                    // per-boundary sync after any sideband instruction.
                    poll_due = true;
                    chain_bound = self.clock;
                }
            }

            if let Some(r) = rec.as_ref() {
                // A recording continues across unconditionally taken
                // statically-targeted transfers (superblock fusion) while
                // segment and length budgets allow; everything else ends
                // the block exactly as a plain basic block would.
                let fused = instr.static_target().is_some() && r.segs.len() < MAX_SEGS;
                let page_end = (pc as u64 + INSTR_SIZE).is_multiple_of(mnv_hal::PAGE_SIZE);
                let end = if fused {
                    r.instrs.len() >= MAX_BLOCK_LEN
                } else {
                    instr.is_control_transfer() || r.instrs.len() >= MAX_BLOCK_LEN || page_end
                };
                if end {
                    let r = rec.take().unwrap();
                    self.bcache_commit(r);
                }
            }
        }
    }

    /// Execute a run's micro-ops (`uops` is `run`'s slice of its block's
    /// lowered form) against the register file and, through its guard, the
    /// run's one memory access. Charges nothing and settles no fetch
    /// bookkeeping — the caller does both from the returned exit, which
    /// says how much of the run ran: all of it, the prefix before a failed
    /// memory guard, or everything through a store that dirtied a code
    /// chunk.
    fn run_uops(&mut self, uops: &[Uop], run: &Run, privileged: bool) -> BatchExit {
        let mut exit = BatchExit {
            done: uops.len(),
            pc: run.end_pc,
            cycles: run.static_cost,
            data_tlb: None,
            dirtied: false,
        };
        for &u in uops {
            let cpu = &mut self.cpu;
            macro_rules! rr {
                ($rd:expr, $rn:expr, $rm:expr, $f:expr) => {{
                    let v = $f(cpu.low_reg($rn), cpu.low_reg($rm));
                    cpu.set_low_reg($rd, v)
                }};
            }
            macro_rules! ri {
                ($rd:expr, $rn:expr, $imm:expr, $f:expr) => {{
                    let v = $f(cpu.low_reg($rn), $imm);
                    cpu.set_low_reg($rd, v)
                }};
            }
            match u {
                Uop::Nop => {}
                Uop::Mov { rd, imm } => cpu.set_low_reg(rd, imm),
                Uop::Add { rd, rn, rm } => rr!(rd, rn, rm, u32::wrapping_add),
                Uop::AddI { rd, rn, imm } => ri!(rd, rn, imm, u32::wrapping_add),
                Uop::Sub { rd, rn, rm } => rr!(rd, rn, rm, u32::wrapping_sub),
                Uop::SubI { rd, rn, imm } => ri!(rd, rn, imm, u32::wrapping_sub),
                Uop::Subs { rd, rn, rm } => {
                    let v = sub_flags(cpu, cpu.low_reg(rn), cpu.low_reg(rm));
                    cpu.set_low_reg(rd, v);
                }
                Uop::SubsI { rd, rn, imm } => {
                    let v = sub_flags(cpu, cpu.low_reg(rn), imm);
                    cpu.set_low_reg(rd, v);
                }
                Uop::Cmp { rn, rm } => {
                    sub_flags(cpu, cpu.low_reg(rn), cpu.low_reg(rm));
                }
                Uop::CmpI { rn, imm } => {
                    sub_flags(cpu, cpu.low_reg(rn), imm);
                }
                Uop::And { rd, rn, rm } => rr!(rd, rn, rm, |a, b| a & b),
                Uop::AndI { rd, rn, imm } => ri!(rd, rn, imm, |a, b| a & b),
                Uop::Orr { rd, rn, rm } => rr!(rd, rn, rm, |a, b| a | b),
                Uop::OrrI { rd, rn, imm } => ri!(rd, rn, imm, |a, b| a | b),
                Uop::Eor { rd, rn, rm } => rr!(rd, rn, rm, |a, b| a ^ b),
                Uop::EorI { rd, rn, imm } => ri!(rd, rn, imm, |a, b| a ^ b),
                Uop::Mul { rd, rn, rm } => rr!(rd, rn, rm, u32::wrapping_mul),
                Uop::MulI { rd, rn, imm } => ri!(rd, rn, imm, u32::wrapping_mul),
                Uop::Lsl { rd, rn, rm } => rr!(rd, rn, rm, |a: u32, b| a << (b & 31)),
                Uop::LslI { rd, rn, imm } => ri!(rd, rn, imm, |a: u32, b| a << b),
                Uop::Lsr { rd, rn, rm } => rr!(rd, rn, rm, |a: u32, b| a >> (b & 31)),
                Uop::LsrI { rd, rn, imm } => ri!(rd, rn, imm, |a: u32, b| a >> b),
                Uop::MovBanked { rd, imm } => cpu.set_reg(rd, imm),
                Uop::AluBanked { op, rd, rn, rm } => {
                    let (a, b) = (cpu.reg(rn), cpu.reg(rm));
                    alu(cpu, op, rd, a, b);
                }
                Uop::AluImmBanked { op, rd, rn, imm } => {
                    let a = cpu.reg(rn);
                    alu(cpu, op, rd, a, imm);
                }
                Uop::Mrs { rd } => {
                    let v = cpu.cpsr.to_bits();
                    cpu.set_reg(rd, v);
                }
                Uop::Bl { ret } => cpu.set_reg(14, ret),
                Uop::BCond { cond, target } => {
                    if cond_holds(cpu, cond) {
                        exit.pc = target;
                        exit.cycles += timing::BRANCH_TAKEN;
                    }
                }
                Uop::Ret => exit.pc = cpu.reg(14),
                Uop::Ldr { rd, rn, imm } | Uop::Str { rs: rd, rn, imm } => {
                    let write = matches!(u, Uop::Str { .. });
                    let mem = run.mem.expect("a lowered access is the run's one");
                    let va = VirtAddr::new(cpu.low_reg(rn).wrapping_add(imm) as u64);
                    let Some(g) = self.mem_guard(write, va, privileged) else {
                        return BatchExit {
                            done: mem.at as usize,
                            pc: mem.pc,
                            cycles: mem.cost_before,
                            data_tlb: None,
                            dirtied: false,
                        };
                    };
                    self.caches.l1d.replay_hit(g.line_slot);
                    exit.data_tlb = g.tlb_slot;
                    let cpu = &mut self.cpu;
                    if !write {
                        let v = self.mem.read_u32(g.pa).unwrap_or(0);
                        cpu.set_low_reg(rd, v);
                        continue;
                    }
                    let _ = self.mem.write_u32(g.pa, cpu.low_reg(rd));
                    if self.mem.code_gen() != self.bcache.seen_gen() {
                        // Through the store: its fetch and its L1D hit.
                        let fetch = timing::L1_HIT + timing::INSTR_BASE;
                        exit.done = mem.at as usize + 1;
                        exit.pc = mem.pc.wrapping_add(INSTR_SIZE as u32);
                        exit.cycles = mem.cost_before + fetch + timing::L1_HIT;
                        exit.dirtied = true;
                        return exit;
                    }
                }
            }
        }
        exit
    }

    /// Settle the fetch bookkeeping a batch deferred, for exactly the
    /// `exit.done` instructions that ran: TLB hits in reference order (the
    /// run's data hit right after its own instruction's fetch, so fetch
    /// and data stamps interleave as the reference's lookups do) and L1I
    /// hits with each line's stamp clipped to the prefix (built in the
    /// reused `clipped` buffer).
    fn settle_batch(
        &mut self,
        run: &Run,
        v: &RunVerify,
        exit: &BatchExit,
        clipped: &mut Vec<(usize, u64)>,
    ) {
        let done = exit.done as u64;
        let mut data = exit
            .data_tlb
            .zip(run.mem)
            .map(|(slot, m)| (m.at as u64 + 1, slot));
        let mut fetched = 0;
        for &(slot, n) in v.seg_slots.iter() {
            let mut n = n.min(done - fetched);
            if let Some((after, dslot)) = data.filter(|&(after, _)| after <= fetched + n) {
                // `after` > `fetched`: an earlier piece ending at or past
                // it would have taken the data hit already.
                let m = after - fetched;
                self.tlb.replay_hits(slot, m);
                self.tlb.replay_hits(dslot, 1);
                (fetched, n, data) = (after, n - m, None);
            }
            if n > 0 {
                self.tlb.replay_hits(slot, n);
                fetched += n;
            }
            if fetched == done {
                break;
            }
        }
        if exit.done == run.len as usize {
            self.caches.l1i.replay_hits(done, &v.line_slots);
            return;
        }
        clipped.clear();
        let mut prev = 0;
        for &(slot, ord) in v.line_slots.iter() {
            if prev >= done {
                break;
            }
            clipped.push((slot, ord.min(done)));
            prev = ord;
        }
        self.caches.l1i.replay_hits(done, clipped);
    }

    /// Slow fetch for the block executor: bus read + decode with the same
    /// ordering and event delivery as [`Machine::step`], appending to the
    /// open recording when there is one. On an event the caller gets it
    /// after any open recording has been committed.
    fn fetch_slow(
        &mut self,
        pc: u32,
        pa: PhysAddr,
        rec: &mut Option<Recording>,
    ) -> Result<Instr, CpuEvent> {
        let mut bytes = [0u8; 8];
        if self.mem.read(pa, &mut bytes).is_err() {
            if let Some(r) = rec.take() {
                self.bcache_commit(r);
            }
            self.deliver_exception(ExceptionKind::PrefetchAbort, pc);
            return Err(CpuEvent::Exception(ExceptionKind::PrefetchAbort));
        }
        self.charge_fetch(pa);
        let instr = match Instr::decode(bytes) {
            Some(i) => i,
            None => {
                // Invalid encodings are never recorded.
                if let Some(r) = rec.take() {
                    self.bcache_commit(r);
                }
                self.last_und = Some(UndCause {
                    pc: VirtAddr::new(pc as u64),
                    kind: UndKind::InvalidInstr,
                });
                self.deliver_exception(ExceptionKind::Undefined, pc.wrapping_add(8));
                return Err(CpuEvent::Exception(ExceptionKind::Undefined));
            }
        };
        if let Some(r) = rec.as_mut() {
            r.push(pc, pa.raw(), instr);
            // Mark the backing chunk now, not at commit: a store landing
            // between this push and the commit must bump the generation the
            // commit checks.
            self.mem.note_code(pa, INSTR_SIZE as usize);
        }
        Ok(instr)
    }

    fn und(&mut self, pc: u32, kind: UndKind) -> CpuEvent {
        self.last_und = Some(UndCause {
            pc: VirtAddr::new(pc as u64),
            kind,
        });
        self.deliver_exception(ExceptionKind::Undefined, pc.wrapping_add(8));
        CpuEvent::Exception(ExceptionKind::Undefined)
    }

    fn execute(&mut self, instr: Instr, pc: u32, privileged: bool) -> CpuEvent {
        let next = pc.wrapping_add(INSTR_SIZE as u32);
        let mut new_pc = next;
        match instr {
            Instr::Halt => {
                self.instructions_retired += 1;
                return CpuEvent::Halted;
            }
            Instr::MovImm { rd, imm } => self.cpu.set_reg(rd, imm),
            Instr::Alu { op, rd, rn, rm } => {
                let a = self.cpu.reg(rn);
                let b = self.cpu.reg(rm);
                alu(&mut self.cpu, op, rd, a, b);
            }
            Instr::AluImm { op, rd, rn, imm } => {
                let a = self.cpu.reg(rn);
                alu(&mut self.cpu, op, rd, a, imm);
            }
            Instr::Ldr { rd, rn, imm } => {
                let va = VirtAddr::new(self.cpu.reg(rn).wrapping_add(imm) as u64);
                match self.virt_read_u32(va, privileged) {
                    Ok(v) => self.cpu.set_reg(rd, v),
                    Err(_) => {
                        // Return address = faulting instruction (retry).
                        self.deliver_exception(ExceptionKind::DataAbort, pc);
                        return CpuEvent::Exception(ExceptionKind::DataAbort);
                    }
                }
            }
            Instr::Str { rs, rn, imm } => {
                let va = VirtAddr::new(self.cpu.reg(rn).wrapping_add(imm) as u64);
                let val = self.cpu.reg(rs);
                if self.virt_write_u32(va, val, privileged).is_err() {
                    self.deliver_exception(ExceptionKind::DataAbort, pc);
                    return CpuEvent::Exception(ExceptionKind::DataAbort);
                }
            }
            Instr::B { cond, target } => {
                if cond_holds(&self.cpu, cond) {
                    new_pc = target;
                    self.charge(timing::BRANCH_TAKEN);
                }
            }
            Instr::Bl { target } => {
                self.cpu.set_reg(14, next);
                new_pc = target;
                self.charge(timing::BRANCH_TAKEN);
            }
            Instr::Ret => {
                new_pc = self.cpu.reg(14);
                self.charge(timing::BRANCH_TAKEN);
            }
            Instr::Svc { imm } => {
                self.instructions_retired += 1;
                self.last_svc = Some(imm);
                self.deliver_exception(ExceptionKind::Svc, next);
                return CpuEvent::Exception(ExceptionKind::Svc);
            }
            Instr::Mrc { rd, reg } => {
                if let Some(preg) = reg.pmu_reg() {
                    // PMU access at PL0 is gated dynamically by PMUSERENR,
                    // not by the static whitelist.
                    if !privileged && !self.pmu.pl0_allowed(preg) {
                        return self.und(pc, UndKind::Cp15Read { rd, reg });
                    }
                    self.charge(timing::CP15_ACCESS);
                    let now = self.pmu_inputs();
                    let v = self.pmu.read(preg, now);
                    self.cpu.set_reg(rd, v);
                } else {
                    if !privileged && !reg.pl0_readable() {
                        return self.und(pc, UndKind::Cp15Read { rd, reg });
                    }
                    self.charge(timing::CP15_ACCESS);
                    let v = self.cp15.read(map_cp15(reg));
                    self.cpu.set_reg(rd, v);
                }
            }
            Instr::Mcr { reg, rs } => {
                let value = self.cpu.reg(rs);
                if let Some(preg) = reg.pmu_reg() {
                    // PMUSERENR.EN opens PL0 writes to the counter
                    // registers; PMUSERENR itself stays PL1-only.
                    let pl0_ok =
                        preg != crate::pmu::PmuReg::Pmuserenr && self.pmu.pl0_allowed(preg);
                    if !privileged && !pl0_ok {
                        return self.und(pc, UndKind::Cp15Write { reg, value });
                    }
                    self.charge(timing::CP15_ACCESS);
                    let now = self.pmu_inputs();
                    self.pmu.write(preg, value, now);
                } else {
                    if !privileged {
                        return self.und(pc, UndKind::Cp15Write { reg, value });
                    }
                    self.charge(timing::CP15_ACCESS);
                    self.cp15.write(map_cp15(reg), value);
                }
            }
            Instr::MrsCpsr { rd } => {
                let v = self.cpu.cpsr.to_bits();
                self.cpu.set_reg(rd, v);
            }
            Instr::MsrCpsr { rs } => {
                let v = self.cpu.reg(rs);
                if privileged {
                    match Psr::from_bits(v) {
                        Some(p) => self.cpu.cpsr = p,
                        None => return self.und(pc, UndKind::MsrBadMode),
                    }
                } else {
                    // The classic sensitive-but-non-trapping hole: only the
                    // condition flags are updated; mode and mask bits are
                    // silently ignored.
                    self.cpu.cpsr.n = v & (1 << 31) != 0;
                    self.cpu.cpsr.z = v & (1 << 30) != 0;
                    self.cpu.cpsr.c = v & (1 << 29) != 0;
                    self.cpu.cpsr.v = v & (1 << 28) != 0;
                }
            }
            Instr::Wfi => {
                self.cpu.pc = next;
                self.instructions_retired += 1;
                return CpuEvent::Wfi;
            }
            Instr::Compute { cycles } => {
                self.charge(cycles as u64);
            }
            Instr::VfpOp { op, rd, rn, rm } => {
                if !self.cp15.vfp_enabled() || !self.vfp.enabled {
                    return self.und(pc, UndKind::VfpAccess);
                }
                self.charge(2);
                let a = self.vfp.d[rn as usize % 32];
                let b = self.vfp.d[rm as usize % 32];
                self.vfp.d[rd as usize % 32] = match op {
                    0 => a + b,
                    1 => a * b,
                    _ => a - b,
                };
            }
        }
        if matches!(
            instr,
            Instr::Alu { op: AluOp::Mul, .. } | Instr::AluImm { op: AluOp::Mul, .. }
        ) {
            self.charge(timing::MUL - timing::INSTR_BASE);
        }
        self.cpu.pc = new_pc;
        self.instructions_retired += 1;
        CpuEvent::Retired
    }

    /// Run until a non-`Retired` event occurs or `max_instrs` retire.
    pub fn run(&mut self, max_instrs: u64) -> CpuEvent {
        for _ in 0..max_instrs {
            match self.step() {
                CpuEvent::Retired => continue,
                ev => return ev,
            }
        }
        CpuEvent::Retired
    }
}

/// `rd = a op b` with the interpreter's flag rules: only `Sub` and `Cmp`
/// set N/Z/C, and `Cmp` writes no register.
fn alu(cpu: &mut Cpu, op: AluOp, rd: u8, a: u32, b: u32) {
    let result = match op {
        AluOp::Add => a.wrapping_add(b),
        AluOp::Sub | AluOp::Cmp => sub_flags(cpu, a, b),
        AluOp::And => a & b,
        AluOp::Orr => a | b,
        AluOp::Eor => a ^ b,
        AluOp::Mul => a.wrapping_mul(b),
        AluOp::Lsl => a.wrapping_shl(b & 31),
        AluOp::Lsr => a.wrapping_shr(b & 31),
    };
    if op != AluOp::Cmp {
        cpu.set_reg(rd, result);
    }
}

/// `a - b`, setting N, Z and C (no borrow) from the result.
#[inline(always)]
fn sub_flags(cpu: &mut Cpu, a: u32, b: u32) -> u32 {
    let result = a.wrapping_sub(b);
    cpu.cpsr.n = result & 0x8000_0000 != 0;
    cpu.cpsr.z = result == 0;
    cpu.cpsr.c = a >= b;
    result
}

fn cond_holds(cpu: &Cpu, c: Cond) -> bool {
    let p = &cpu.cpsr;
    match c {
        Cond::Al => true,
        Cond::Eq => p.z,
        Cond::Ne => !p.z,
        Cond::Lo => !p.c,
        Cond::Hs => p.c,
        Cond::Mi => p.n,
        Cond::Pl => !p.n,
    }
}

fn trap_kind(k: ExceptionKind) -> TrapKind {
    match k {
        ExceptionKind::Reset => TrapKind::Reset,
        ExceptionKind::Undefined => TrapKind::Undefined,
        ExceptionKind::Svc => TrapKind::Svc,
        ExceptionKind::PrefetchAbort => TrapKind::PrefetchAbort,
        ExceptionKind::DataAbort => TrapKind::DataAbort,
        ExceptionKind::Irq => TrapKind::Irq,
        ExceptionKind::Fiq => TrapKind::Fiq,
    }
}

fn map_cp15(r: MirCp15) -> Cp15Reg {
    match r {
        MirCp15::Sctlr => Cp15Reg::Sctlr,
        MirCp15::Ttbr0 => Cp15Reg::Ttbr0,
        MirCp15::Dacr => Cp15Reg::Dacr,
        MirCp15::Contextidr => Cp15Reg::Contextidr,
        MirCp15::Dfar => Cp15Reg::Dfar,
        MirCp15::Dfsr => Cp15Reg::Dfsr,
        MirCp15::Tpidruro => Cp15Reg::Tpidruro,
        // The c9 performance-monitor group is dispatched to the PMU before
        // this mapping is consulted (see the Mrc/Mcr arms in `execute`).
        _ => unreachable!("PMU registers are handled by Machine::execute"),
    }
}

/// Convenience: construct a machine where the MMU is off and programs can
/// run flat — used heavily by unit tests below this layer.
pub fn bare_machine() -> Machine {
    Machine::default()
}

#[allow(unused_imports)]
#[cfg(test)]
mod tests {
    use super::*;
    use crate::mir::ProgramBuilder;
    use crate::psr::Mode;
    use mnv_hal::IrqNum;

    /// Assemble + load a program at 0x8000 (flat, MMU off) and point PC at it.
    fn with_program(build: impl FnOnce(&mut ProgramBuilder)) -> Machine {
        let mut m = bare_machine();
        let mut b = ProgramBuilder::new();
        build(&mut b);
        let p = b.assemble(0x8000);
        m.load_program(&p, PhysAddr::new(0x8000)).unwrap();
        m.cpu.pc = 0x8000;
        m.cpu.cpsr = Psr::user();
        m
    }

    #[test]
    fn arithmetic_program_runs() {
        let mut m = with_program(|b| {
            b.mov(0, 6);
            b.mov(1, 7);
            b.alu(AluOp::Mul, 2, 0, 1);
            b.halt();
        });
        assert_eq!(m.run(100), CpuEvent::Halted);
        assert_eq!(m.cpu.reg(2), 42);
        assert_eq!(m.instructions_retired, 4);
    }

    #[test]
    fn loop_with_flags_and_branches() {
        // Sum 1..=5 using a countdown loop.
        let mut m = with_program(|b| {
            b.mov(0, 5); // counter
            b.mov(1, 0); // acc
            let top = b.label();
            b.bind(top);
            b.alu(AluOp::Add, 1, 1, 0);
            b.alu_imm(AluOp::Sub, 0, 0, 1);
            b.alu_imm(AluOp::Cmp, 0, 0, 0);
            b.branch(Cond::Ne, top);
            b.halt();
        });
        assert_eq!(m.run(100), CpuEvent::Halted);
        assert_eq!(m.cpu.reg(1), 15);
    }

    #[test]
    fn loads_and_stores_flat() {
        let mut m = with_program(|b| {
            b.mov(0, 0x9000);
            b.mov(1, 0xCAFE);
            b.str(1, 0, 4);
            b.ldr(2, 0, 4);
            b.halt();
        });
        assert_eq!(m.run(100), CpuEvent::Halted);
        assert_eq!(m.cpu.reg(2), 0xCAFE);
        assert_eq!(m.mem.read_u32(PhysAddr::new(0x9004)).unwrap(), 0xCAFE);
    }

    #[test]
    fn call_and_return() {
        let mut m = with_program(|b| {
            let f = b.label();
            b.mov(0, 1);
            b.call(f);
            b.halt();
            b.bind(f);
            b.mov(0, 99);
            b.ret();
        });
        assert_eq!(m.run(100), CpuEvent::Halted);
        assert_eq!(m.cpu.reg(0), 99);
    }

    #[test]
    fn svc_traps_to_svc_mode() {
        let mut m = with_program(|b| {
            b.svc(17);
            b.halt();
        });
        let ev = m.run(10);
        assert_eq!(ev, CpuEvent::Exception(ExceptionKind::Svc));
        assert_eq!(m.last_svc, Some(17));
        assert_eq!(m.cpu.cpsr.mode, Mode::Svc);
        // LR_svc points past the SVC; returning resumes at Halt.
        let ret = m.cpu.reg(14);
        m.exception_return(ret);
        assert_eq!(m.run(10), CpuEvent::Halted);
    }

    #[test]
    fn privileged_cp15_write_traps_in_user_mode() {
        let mut m = with_program(|b| {
            b.mov(0, 0x1234);
            b.push(Instr::Mcr {
                reg: MirCp15::Dacr,
                rs: 0,
            });
            b.halt();
        });
        let ev = m.run(10);
        assert_eq!(ev, CpuEvent::Exception(ExceptionKind::Undefined));
        let cause = m.last_und.unwrap();
        assert_eq!(
            cause.kind,
            UndKind::Cp15Write {
                reg: MirCp15::Dacr,
                value: 0x1234
            }
        );
        assert_eq!(m.cp15.dacr, 0, "the write must NOT have taken effect");
        assert_eq!(m.cpu.cpsr.mode, Mode::Und);
    }

    #[test]
    fn privileged_cp15_write_succeeds_in_svc() {
        let mut m = with_program(|b| {
            b.mov(0, 0x5);
            b.push(Instr::Mcr {
                reg: MirCp15::Tpidruro,
                rs: 0,
            });
            b.halt();
        });
        m.cpu.cpsr = Psr::reset(); // SVC
        assert_eq!(m.run(10), CpuEvent::Halted);
        assert_eq!(m.cp15.tpidruro, 0x5);
    }

    #[test]
    fn pl0_readable_cp15_does_not_trap() {
        let mut m = with_program(|b| {
            b.push(Instr::Mrc {
                rd: 3,
                reg: MirCp15::Tpidruro,
            });
            b.halt();
        });
        m.cp15.tpidruro = 0x77;
        assert_eq!(m.run(10), CpuEvent::Halted);
        assert_eq!(m.cpu.reg(3), 0x77);
    }

    #[test]
    fn msr_in_user_mode_silently_drops_mode_change() {
        // The non-trapping sensitive instruction that motivates
        // paravirtualization: a guest trying to raise its own privilege
        // gets its flags updated and nothing else — no trap, no escalation.
        let mut m = with_program(|b| {
            b.mov(0, 0b10011 | (1 << 31)); // request SVC mode + N flag
            b.push(Instr::MsrCpsr { rs: 0 });
            b.halt();
        });
        assert_eq!(m.run(10), CpuEvent::Halted);
        assert_eq!(m.cpu.cpsr.mode, Mode::Usr, "privilege must not escalate");
        assert!(m.cpu.cpsr.n, "flags do update — silently wrong semantics");
    }

    #[test]
    fn vfp_disabled_traps_lazily() {
        let mut m = with_program(|b| {
            b.push(Instr::VfpOp {
                op: 0,
                rd: 0,
                rn: 1,
                rm: 2,
            });
            b.halt();
        });
        let ev = m.run(10);
        assert_eq!(ev, CpuEvent::Exception(ExceptionKind::Undefined));
        assert_eq!(m.last_und.unwrap().kind, UndKind::VfpAccess);
        // Kernel enables the VFP and retries the faulting instruction.
        let fault_pc = m.last_und.unwrap().pc.raw() as u32;
        m.cp15.cpacr = crate::cp15::CPACR_VFP_FULL;
        m.vfp.enabled = true;
        m.vfp.d[1] = 2.0;
        m.vfp.d[2] = 3.0;
        m.exception_return(fault_pc);
        assert_eq!(m.run(10), CpuEvent::Halted);
        assert_eq!(m.vfp.d[0], 5.0);
    }

    #[test]
    fn irq_preempts_user_code() {
        let mut m = with_program(|b| {
            let top = b.label();
            b.bind(top);
            b.compute(10);
            b.branch(Cond::Al, top);
        });
        m.gic.enable(IrqNum::PRIVATE_TIMER);
        m.ptimer_mut().program_periodic(Cycles::new(200));
        let ev = m.run(1_000);
        assert_eq!(ev, CpuEvent::Exception(ExceptionKind::Irq));
        assert_eq!(m.cpu.cpsr.mode, Mode::Irq);
        assert_eq!(m.gic.ack(), Some(IrqNum::PRIVATE_TIMER));
    }

    #[test]
    fn masked_irq_not_delivered() {
        let mut m = with_program(|b| {
            b.compute(1000);
            b.halt();
        });
        m.cpu.cpsr.irq_masked = true;
        m.gic.enable(IrqNum::PRIVATE_TIMER);
        m.ptimer_mut().program_periodic(Cycles::new(100));
        assert_eq!(m.run(10), CpuEvent::Halted);
        assert!(m.gic.is_pending(IrqNum::PRIVATE_TIMER));
    }

    #[test]
    fn wfi_then_wait_for_irq() {
        let mut m = with_program(|b| {
            b.push(Instr::Wfi);
            b.halt();
        });
        assert_eq!(m.run(10), CpuEvent::Wfi);
        m.gic.enable(IrqNum::PRIVATE_TIMER);
        m.ptimer_mut().program_periodic(Cycles::new(500));
        let waited = m.wait_for_irq(Cycles::new(10_000));
        assert!(
            waited.raw() >= 500 - 64 && waited.raw() <= 600,
            "{waited:?}"
        );
        assert!(m.gic.highest_pending().is_some());
    }

    #[test]
    fn invalid_instruction_is_undefined() {
        let mut m = bare_machine();
        m.load_bytes(PhysAddr::new(0x8000), &[0xFF; 8]).unwrap();
        m.cpu.pc = 0x8000;
        m.cpu.cpsr = Psr::user();
        assert_eq!(m.step(), CpuEvent::Exception(ExceptionKind::Undefined));
        assert_eq!(m.last_und.unwrap().kind, UndKind::InvalidInstr);
    }

    #[test]
    fn mmio_gic_window_reachable_from_program() {
        let mut m = with_program(|b| {
            // Enable IRQ 32 through the distributor window, then read back.
            b.mov(0, (GIC_BASE + 0x104) as u32);
            b.mov(1, 1);
            b.str(1, 0, 0);
            b.ldr(2, 0, 0);
            b.halt();
        });
        m.cpu.cpsr = Psr::reset(); // privileged, MMU off
        assert_eq!(m.run(10), CpuEvent::Halted);
        assert_eq!(m.cpu.reg(2) & 1, 1);
        assert!(m.gic.is_enabled(IrqNum(32)));
    }

    #[test]
    fn clock_advances_with_execution() {
        let mut m = with_program(|b| {
            b.compute(500);
            b.halt();
        });
        let t0 = m.now();
        m.run(10);
        assert!(m.now() - t0 >= Cycles::new(500));
    }

    #[test]
    fn repeated_code_gets_cheaper_via_caches() {
        // Run the same small loop twice; the second pass must be faster
        // because the I-cache and D-cache are warm.
        let mut m = with_program(|b| {
            b.mov(0, 0x9000);
            let top = b.label();
            b.bind(top);
            b.ldr(1, 0, 0);
            b.alu_imm(AluOp::Cmp, 1, 1, 0);
            b.branch(Cond::Ne, top); // not taken: loads are 0
            b.halt();
        });
        let t0 = m.now();
        m.run(100);
        let cold = m.now() - t0;
        m.cpu.pc = 0x8000;
        let t1 = m.now();
        m.run(100);
        let warm = m.now() - t1;
        assert!(warm < cold, "warm {warm:?} must be < cold {cold:?}");
    }

    #[test]
    fn failed_fetch_charges_nothing() {
        // Regression: a fetch that dies on the bus (unmapped physical
        // address) used to occupy the I-cache and charge fetch cost before
        // the abort was noticed. The AXI error happens before the line ever
        // reaches the cache pipeline, so a failed fetch must charge nothing.
        let mut m = bare_machine();
        m.cpu.cpsr = Psr::reset();
        m.cpu.pc = 0x8000_0000; // hole between DDR top and OCM: no backing
        let t0 = m.now();
        assert_eq!(m.step(), CpuEvent::Exception(ExceptionKind::PrefetchAbort));
        assert_eq!(
            m.caches.l1i.stats().accesses(),
            0,
            "bus-failed fetch must not touch the I-cache"
        );
        assert_eq!(
            m.now() - t0,
            Cycles::new(timing::EXC_ENTRY),
            "only exception entry is charged, no fetch cost"
        );
    }

    /// Shared program for the fast/slow differential tests: a loop mixing
    /// pure ALU work, memory traffic and flag-setting compares.
    fn diff_program(b: &mut ProgramBuilder) {
        b.mov(0, 0); // acc
        b.mov(2, 50); // iterations
                      // Scratch lives in a different 64 KiB code-tracking chunk than the
                      // program at 0x8000, as real guests lay out code vs. data — stores
                      // into the code chunk would (correctly, conservatively) invalidate
                      // the block under test.
        b.mov(4, 0x2_0000);
        let top = b.label();
        b.bind(top);
        b.alu_imm(AluOp::Add, 0, 0, 3);
        b.str(0, 4, 0);
        b.ldr(3, 4, 0);
        b.alu(AluOp::Add, 0, 0, 3);
        b.alu_imm(AluOp::Sub, 2, 2, 1);
        b.alu_imm(AluOp::Cmp, 2, 2, 0);
        b.branch(Cond::Ne, top);
        b.halt();
    }

    #[test]
    fn run_slice_matches_reference_interpreter() {
        // The block executor must be *bit-identical* to the per-instruction
        // path: same final registers, same retired count, same clock, same
        // timer expiries — with a periodic timer forcing device activity
        // mid-run.
        let mut fast = with_program(diff_program);
        let mut slow = with_program(diff_program);
        slow.bcache.enabled = false;
        for m in [&mut fast, &mut slow] {
            m.ptimer_mut().program_periodic(Cycles::new(700));
            m.cpu.cpsr.irq_masked = true; // observe, don't deliver
        }
        let run = |m: &mut Machine| loop {
            let deadline = m.now() + Cycles::new(100_000);
            match m.run_slice(deadline) {
                CpuEvent::Retired => {}
                ev => break ev,
            }
        };
        assert_eq!(run(&mut fast), CpuEvent::Halted);
        assert_eq!(run(&mut slow), CpuEvent::Halted);
        assert_eq!(fast.cpu.reg(0), slow.cpu.reg(0));
        assert_eq!(fast.cpu.reg(2), slow.cpu.reg(2));
        assert_eq!(fast.instructions_retired, slow.instructions_retired);
        assert_eq!(fast.now(), slow.now(), "charged cycles must be identical");
        assert_eq!(fast.ptimer().expiries, slow.ptimer().expiries);
        assert_eq!(
            fast.gic.is_pending(IrqNum::PRIVATE_TIMER),
            slow.gic.is_pending(IrqNum::PRIVATE_TIMER)
        );
        assert!(
            fast.bcache.stats.hits > 0,
            "the loop body must actually replay from the cache"
        );
    }

    #[test]
    fn irq_delivery_point_is_identical() {
        // IRQ delivery must land on the same instruction boundary (same
        // clock, same PC) whether devices are synced per instruction or
        // only at block-cache deadlines.
        fn spin(b: &mut ProgramBuilder) {
            b.mov(0, 0);
            let top = b.label();
            b.bind(top);
            b.alu_imm(AluOp::Add, 0, 0, 1);
            b.branch(Cond::Al, top);
        }
        let mut fast = with_program(spin);
        let mut slow = with_program(spin);
        slow.bcache.enabled = false;
        for m in [&mut fast, &mut slow] {
            m.gic.enable(IrqNum::PRIVATE_TIMER);
            m.ptimer_mut().program_periodic(Cycles::new(1234));
            m.cpu.cpsr.irq_masked = false;
        }
        let ev_f = fast.run_slice(fast.now() + Cycles::new(100_000));
        let ev_s = slow.run_slice(slow.now() + Cycles::new(100_000));
        assert_eq!(ev_f, CpuEvent::Exception(ExceptionKind::Irq));
        assert_eq!(ev_s, ev_f);
        assert_eq!(fast.now(), slow.now(), "same delivery cycle");
        assert_eq!(fast.cpu.pc, slow.cpu.pc, "same delivery PC");
        assert_eq!(fast.instructions_retired, slow.instructions_retired);
        assert_eq!(fast.cpu.reg(0), slow.cpu.reg(0));
    }

    #[test]
    fn stores_invalidate_cached_blocks() {
        let prog = |v: u32| {
            let mut b = ProgramBuilder::new();
            b.mov(0, v);
            b.halt();
            b.assemble(0x8000)
        };
        let mut m = bare_machine();
        m.load_program(&prog(1), PhysAddr::new(0x8000)).unwrap();
        m.cpu.pc = 0x8000;
        m.cpu.cpsr = Psr::user();
        let slice = Cycles::new(1_000_000);
        assert_eq!(m.run_slice(m.now() + slice), CpuEvent::Halted);
        assert_eq!(m.cpu.reg(0), 1);
        // Re-run unmodified: served from the decoded-block cache.
        m.cpu.pc = 0x8000;
        assert_eq!(m.run_slice(m.now() + slice), CpuEvent::Halted);
        assert!(m.bcache.stats.hits >= 1);
        assert!(m.bcache.stats.replayed_instrs >= 2);
        // Overwrite the code (the same PhysMemory::write funnel DMA and
        // PCAP land in): the stale decoded block must not survive.
        m.load_program(&prog(2), PhysAddr::new(0x8000)).unwrap();
        m.cpu.pc = 0x8000;
        assert_eq!(m.run_slice(m.now() + slice), CpuEvent::Halted);
        assert_eq!(m.cpu.reg(0), 2, "stale decoded block executed after store");
        assert!(m.bcache.stats.store_invalidations >= 1);
    }

    /// Run every planned run of `block` through [`Machine::run_uops`] on
    /// one machine and through [`Machine::execute`] on another, from the
    /// same register state, and demand the same registers (all banks),
    /// CPSR, PC and charged cycles after each run.
    fn uops_match_execute(block: &CachedBlock, mode: Mode, seed: u32) {
        let mut fast = bare_machine();
        let mut x = seed.wrapping_mul(0x9E37_79B9) | 1;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            x
        };
        fast.cpu.cpsr = Psr::reset();
        fast.cpu.set_mode(mode);
        for r in 0..15 {
            let v = next() % 5; // small values so compares hit every flag
            fast.cpu.set_reg(r, v);
        }
        let mut slow = bare_machine();
        slow.cpu = fast.cpu.clone();
        let privileged = mode.is_privileged();
        let fetch = timing::L1_HIT + timing::INSTR_BASE;
        let vas = {
            let mut vas = Vec::new();
            for seg in block.segs.iter() {
                vas.extend((0..seg.len).map(|j| seg.va + j * INSTR_SIZE as u32));
            }
            vas
        };
        for run in block.runs.iter() {
            let (start, len) = (run.start as usize, run.len as usize);
            let exit = fast.run_uops(&block.uops()[start..start + len], run, privileged);
            assert_eq!(exit.done, len);
            fast.cpu.pc = exit.pc;
            fast.charge(exit.cycles);
            slow.cpu.pc = vas[start];
            for &(_, instr) in &block.instrs[start..start + len] {
                slow.charge(fetch);
                let pc = slow.cpu.pc;
                assert_eq!(slow.execute(instr, pc, privileged), CpuEvent::Retired);
            }
            let at = format!("seed {seed} mode {mode:?} run at {start}");
            assert_eq!(format!("{:?}", fast.cpu), format!("{:?}", slow.cpu), "{at}");
            assert_eq!(fast.now(), slow.now(), "{at}");
        }
    }

    #[test]
    fn micro_ops_leave_the_interpreters_state() {
        use crate::blockcache::{BlockSeg, Uop};
        let alu = |op, rd, rn, rm| Instr::Alu { op, rd, rn, rm };
        let imm = |op, rd, rn, imm| Instr::AluImm { op, rd, rn, imm };
        // Segment A at 0x8000, then a `Bl` seam into segment B at 0x9000
        // (recorded at pa 0x1_9000). Dead setters (the first sub and cmp,
        // and the banked sub at 8), banked registers (r8–r14: banked in FIQ
        // mode, r13/r14 in every mode), a compute burst, MUL, shifts by an
        // immediate of 32 or more and a flag read by `mrs`.
        let seg_a = [
            imm(AluOp::Sub, 0, 0, 1),
            alu(AluOp::Cmp, 0, 0, 1),
            imm(AluOp::Add, 9, 9, 5),
            Instr::MovImm { rd: 10, imm: 77 },
            alu(AluOp::Lsl, 2, 0, 1),
            imm(AluOp::Lsr, 3, 2, 35),
            alu(AluOp::Mul, 4, 2, 3),
            Instr::Compute { cycles: 9 },
            alu(AluOp::Sub, 5, 4, 13),
            imm(AluOp::Cmp, 1, 1, 3),
            Instr::MrsCpsr { rd: 6 },
            Instr::Bl { target: 0x9000 },
        ];
        let build = |tail: Instr| {
            let seg_b = [
                alu(AluOp::Eor, 7, 6, 0),
                imm(AluOp::Mul, 11, 8, 3),
                alu(AluOp::Cmp, 1, 2, 3),
                tail,
            ];
            let at = |pa: u64, seg: &[Instr]| -> Vec<(u64, Instr)> {
                (0..)
                    .step_by(8)
                    .map(|k| pa + k)
                    .zip(seg.iter().copied())
                    .collect()
            };
            let instrs = [at(0x8000, &seg_a), at(0x1_9000, &seg_b)].concat();
            let segs = [
                BlockSeg {
                    va: 0x8000,
                    pa: 0x8000,
                    len: seg_a.len() as u32,
                },
                BlockSeg {
                    va: 0x9000,
                    pa: 0x1_9000,
                    len: seg_b.len() as u32,
                },
            ];
            CachedBlock::new(&instrs, &segs, 0, 0x8000)
        };
        let beq = Instr::B {
            cond: Cond::Eq,
            target: 0x8000,
        };
        for tail in [beq, Instr::Ret] {
            let block = build(tail);
            assert_eq!(block.runs.len(), 1, "one run across the seam");
            assert_ne!(block.runs[0].flags_dead, 0, "dead setters are lowered");
            assert!(block.uops().contains(&Uop::Nop), "the dead cmp is dropped");
            for seed in 0..32 {
                for mode in [Mode::Usr, Mode::Fiq, Mode::Svc] {
                    uops_match_execute(&block, mode, seed);
                }
            }
        }
    }

    #[test]
    fn pc_reads_inside_a_loop_see_their_own_address() {
        // Regression: a batch keeps the CPU's PC at the run's start, so an
        // ALU op reading r15 in the middle of a run read the wrong address.
        // Such instructions now run outside batches.
        fn pc_sum(b: &mut ProgramBuilder) {
            b.mov(2, 50);
            let top = b.label();
            b.bind(top);
            b.alu_imm(AluOp::Add, 1, 1, 1);
            b.alu_imm(AluOp::Add, 0, 15, 0);
            b.alu(AluOp::Add, 3, 3, 0);
            b.alu_imm(AluOp::Sub, 2, 2, 1);
            b.alu_imm(AluOp::Cmp, 2, 2, 0);
            b.branch(Cond::Ne, top);
            b.halt();
        }
        let mut fast = with_program(pc_sum);
        let mut slow = with_program(pc_sum);
        slow.bcache.enabled = false;
        let deadline = Cycles::new(1_000_000);
        assert_eq!(fast.run_slice(deadline), CpuEvent::Halted);
        assert_eq!(slow.run_slice(deadline), CpuEvent::Halted);
        assert_eq!(slow.cpu.reg(3), 50 * 0x8010);
        assert_eq!(fast.cpu.reg(3), slow.cpu.reg(3));
        assert_eq!(fast.now(), slow.now());
        assert!(fast.bcache.stats.batched_instrs > 0);
    }

    /// Everything the devices make observable without a settle: time,
    /// the CPU, every GIC line, the trace and the fault record.
    fn observe_events(m: &Machine) -> String {
        let lines = |f: &dyn Fn(IrqNum) -> bool| {
            (0..crate::gic::NUM_IRQS as u16).fold(0u128, |a, i| a | (f(IrqNum(i)) as u128) << i)
        };
        format!(
            "{:?} pc={:#x} r={:?} {:?} irq_masked={} retired={} exc={} \
             gic=({:#x},{:#x},{:#x}) trace={:?} faults={:?}",
            m.now(),
            m.cpu.pc,
            (0..8).map(|r| m.cpu.reg(r)).collect::<Vec<_>>(),
            m.cpu.cpsr.mode,
            m.cpu.cpsr.irq_masked,
            m.instructions_retired,
            m.exceptions_taken,
            lines(&|l| m.gic.is_pending(l)),
            lines(&|l| m.gic.is_enabled(l)),
            lines(&|l| m.gic.is_active(l)),
            m.tracer.snapshot(),
            m.fault().records(),
        )
    }

    /// The devices' own state, which moves with time between events, as
    /// an MMIO read sees it: synced to the clock, then settled.
    fn observe_settled(m: &mut Machine) -> String {
        m.sync_devices();
        m.settle_devices();
        let t = m.ptimer();
        format!(
            "timer={:?} expiries={} gtimer={}",
            [0x0, 0x4, 0x8, 0xC].map(|o| t.mmio_read(o)),
            t.expiries,
            m.gtimer.count
        )
    }

    #[test]
    fn lazy_device_time_matches_eager_sync() {
        // The differential oracle for on-demand device time: a machine
        // with [`EagerSync`] attached advances every device at every sync,
        // as the machine did before. Over seeded schedules of execution
        // (both executors), timer programming through the accessor and the
        // MMIO window, timer-counter and GIC reads from the program and
        // the harness, WFI waits, IRQ delivery and a fault plane armed and
        // then disarmed, both machines must agree after every step.
        fn program(b: &mut ProgramBuilder) {
            b.mov(4, 0x2_0000);
            b.mov(5, PTIMER_BASE as u32 + 4); // the timer counter
            b.mov(6, GIC_BASE as u32 + 0x200); // pending lines 0..31
            let top = b.label();
            b.bind(top);
            b.alu_imm(AluOp::Add, 0, 0, 3);
            b.str(0, 4, 0);
            b.ldr(3, 4, 0);
            b.alu(AluOp::Add, 0, 0, 3);
            b.ldr(7, 5, 0);
            b.alu(AluOp::Add, 1, 1, 7);
            b.ldr(7, 6, 0);
            b.alu(AluOp::Add, 2, 2, 7);
            b.compute(40);
            b.branch(Cond::Al, top);
        }
        let plan = mnv_fault::FaultPlan {
            irq_spurious: mnv_fault::PeriodCfg::new(40_000, 6),
            irq_storm: mnv_fault::PeriodCfg::new(150_000, 1),
            mem_flip: mnv_fault::PeriodCfg::new(60_000, 4),
            mem_flip_window: (0x2_0000, 0x40),
            ..mnv_fault::FaultPlan::none(0)
        };
        let (mut irqs, mut faults) = (0, 0);
        for seed in 0..24u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move |n: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % n
            };
            let mut lazy = with_program(program);
            let mut eager = with_program(program);
            eager.add_peripheral(Box::new(crate::bus::EagerSync));
            let mut planes = Vec::new();
            for m in [&mut lazy, &mut eager] {
                m.tracer = Tracer::enabled(1 << 16);
                m.cpu.cpsr.irq_masked = true;
                m.gic.enable(IrqNum::PRIVATE_TIMER);
                m.gic.enable(IrqNum::pl(3));
            }
            for step in 0..160 {
                let op = next(12);
                let arg = next(1 << 20);
                for m in [&mut lazy, &mut eager] {
                    match op {
                        0..=3 => {
                            let deadline = m.now() + Cycles::new(500 + arg % 30_000);
                            if let CpuEvent::Exception(ExceptionKind::Irq) = m.run_slice(deadline) {
                                if let Some(irq) = m.gic.ack() {
                                    m.gic.eoi(irq);
                                }
                                let ret = m.cpu.reg(14);
                                m.exception_return(ret);
                            }
                        }
                        4 => {
                            // Out-of-band programming acts on the devices
                            // as of the last sync; make that now on both.
                            m.sync_devices();
                            let t = m.ptimer_mut();
                            t.program_periodic(Cycles::new(300 + arg % 8_000));
                            t.prescale = (arg >> 16) as u8 % 3;
                            t.irq_enable = arg & 1 == 0;
                        }
                        5 => {
                            // Reload and control through the MMIO window.
                            let base = PhysAddr::new(PTIMER_BASE);
                            m.phys_write_u32(base, 200 + (arg % 5_000) as u32).unwrap();
                            m.phys_write_u32(base + 8, 0b101 | (arg as u32 & 2))
                                .unwrap();
                        }
                        6 => {
                            let off = [0x4, 0xC][(arg & 1) as usize];
                            let v = m.phys_read_u32(PhysAddr::new(PTIMER_BASE + off)).unwrap();
                            m.cpu.set_user_reg(8, v);
                        }
                        7 => {
                            m.wait_for_irq(Cycles::new(arg % 100_000));
                        }
                        8 => m.cpu.cpsr.irq_masked = arg & 1 == 0,
                        9 => {
                            m.charge(arg % 20_000);
                            m.sync_devices();
                        }
                        10 if planes.len() < 2 => {
                            let plane = mnv_fault::FaultPlane::armed(plan);
                            m.set_fault_plane(plane.clone());
                            planes.push(plane);
                        }
                        10 => planes.iter().for_each(|p| p.disarm()),
                        _ => m.bcache.enabled = arg & 3 != 0,
                    }
                }
                assert_eq!(
                    observe_events(&lazy),
                    observe_events(&eager),
                    "seed {seed} step {step} op {op}"
                );
                if step % 4 == 0 {
                    assert_eq!(
                        observe_settled(&mut lazy),
                        observe_settled(&mut eager),
                        "seed {seed} step {step} op {op}: settled devices"
                    );
                }
            }
            assert!(
                lazy.ptimer().expiries > 0,
                "seed {seed}: the timer never fired"
            );
            irqs += lazy.exceptions_taken;
            faults += lazy.fault().total();
        }
        assert!(
            irqs > 0 && faults > 0,
            "IRQs taken {irqs}, faults injected {faults}"
        );
    }

    #[test]
    fn tlb_maintenance_drops_decoded_blocks() {
        let mut m = with_program(|b| {
            b.mov(0, 7);
            b.halt();
        });
        assert_eq!(
            m.run_slice(m.now() + Cycles::new(1_000_000)),
            CpuEvent::Halted
        );
        assert!(!m.bcache.is_empty(), "halt must commit the open block");
        m.tlb_flush_all();
        assert!(
            m.bcache.is_empty(),
            "TLB maintenance must drop decoded blocks (mapping may change)"
        );
        assert!(m.bcache.stats.maint_invalidations >= 1);
    }
}
#[cfg(test)]
mod pc_probe {
    use super::*;
    use crate::mir::ProgramBuilder;
    #[test]
    fn pc_read_in_run() {
        let build = || {
            let mut m = bare_machine();
            let mut b = ProgramBuilder::new();
            b.mov(2, 50);
            let top = b.label();
            b.bind(top);
            b.alu_imm(AluOp::Add, 1, 1, 1);
            b.alu_imm(AluOp::Add, 0, 15, 0);
            b.alu(AluOp::Add, 3, 3, 0);
            b.alu_imm(AluOp::Sub, 2, 2, 1);
            b.alu_imm(AluOp::Cmp, 2, 2, 0);
            b.branch(Cond::Ne, top);
            b.halt();
            let p = b.assemble(0x8000);
            m.load_program(&p, PhysAddr::new(0x8000)).unwrap();
            m.cpu.pc = 0x8000;
            m.cpu.cpsr = Psr::user();
            m
        };
        let mut f = build();
        let mut s = build();
        s.bcache.enabled = false;
        f.run_slice(Cycles::new(1_000_000));
        s.run_slice(Cycles::new(1_000_000));
        assert_eq!(f.cpu.reg(3), s.cpu.reg(3));
    }
}
