//! Partially reconfigurable regions: register groups and the hardware-task
//! execution engine.
//!
//! §IV-B: "the PRR controller provides each PRR with a group of registers,
//! that configures and controls the behavior of the hardware task that is
//! located inside the region. Each PRR's register group is mapped into the
//! universal physical address space" — and, per §IV-C, each group sits at
//! the edge of its own small 4 KB page so the microkernel can map it into
//! exactly one VM at a time.
//!
//! A hardware task run is a three-phase pipeline, each phase costing
//! simulated time: DMA-in over the AXI HP port (checked by the hwMMU),
//! compute (core latency), DMA-out (checked again). Completion sets the
//! status register and, if enabled, pulses the PRR's allocated PL interrupt
//! line.

use mnv_hal::{IrqNum, PhysAddr};

use crate::cores::IpCore;
use crate::fabric::PrrGeometry;
use crate::hwmmu::HwMmu;
use mnv_arm::bus::PeriphCtx;

/// Number of 32-bit registers in a PRR register group.
pub const REG_COUNT: usize = 16;

/// Register indices within a group (byte offset = index × 4).
pub mod regs {
    /// Control: bit0 start, bit1 irq-enable, bit2 reset.
    pub const CTRL: usize = 0;
    /// Status: see [`super::status`].
    pub const STATUS: usize = 1;
    /// Physical source address of input data (inside the client's
    /// hardware-task data section).
    pub const SRC_ADDR: usize = 2;
    /// Input length in bytes.
    pub const SRC_LEN: usize = 3;
    /// Physical destination address for results.
    pub const DST_ADDR: usize = 4;
    /// Destination capacity in bytes.
    pub const DST_LEN: usize = 5;
    /// Free-form parameter register.
    pub const PARAM0: usize = 6;
    /// Bytes actually produced by the last run (read-only).
    pub const RESULT_LEN: usize = 7;
    /// Busy cycles of the last run (read-only).
    pub const PERF_CYCLES: usize = 8;
    /// Loaded core identification (read-only, 0 when empty).
    pub const CORE_KIND: usize = 9;
}

/// STATUS register values.
pub mod status {
    /// No bitstream loaded.
    pub const EMPTY: u32 = 0;
    /// Core loaded, ready to start.
    pub const IDLE: u32 = 1;
    /// A run is in progress.
    pub const BUSY: u32 = 2;
    /// Run finished; results are in memory.
    pub const DONE: u32 = 3;
    /// Run aborted (hwMMU violation, missing core, overflow).
    pub const ERROR: u32 = 4;
}

/// Error codes latched into PARAM0 when STATUS becomes ERROR.
pub mod errcode {
    /// Start written with no core loaded.
    pub const NO_CORE: u32 = 1;
    /// hwMMU rejected the input or output window.
    pub const HWMMU_VIOLATION: u32 = 2;
    /// Output would not fit DST_LEN.
    pub const DST_OVERFLOW: u32 = 3;
    /// The kernel abandoned the run: the region hung, every escalation
    /// rung (retry, relocation, software fallback) failed, and the client
    /// was handed an error instead of a result.
    pub const TASK_ABANDONED: u32 = 4;
}

/// CTRL register bits.
pub mod ctrl {
    /// Start a run.
    pub const START: u32 = 1 << 0;
    /// Raise the allocated PL IRQ on completion.
    pub const IRQ_EN: u32 = 1 << 1;
    /// Reset to IDLE (clears DONE/ERROR).
    pub const RESET: u32 = 1 << 2;
}

/// A PRR's register group — plain state, exposed so the Hardware Task
/// Manager can save/restore it on reclaim (the consistency mechanism of
/// Fig. 5).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RegGroup {
    /// Raw register words.
    pub r: [u32; REG_COUNT],
}

impl Default for RegGroup {
    fn default() -> Self {
        RegGroup { r: [0; REG_COUNT] }
    }
}

/// Execution-engine state.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum ExecState {
    /// No bitstream loaded.
    Empty,
    /// Ready.
    Idle,
    /// DMA-in phase; counts down remaining cycles.
    Fetching {
        /// Remaining DMA-in cycles.
        remaining: u64,
    },
    /// Compute phase.
    Computing {
        /// Remaining compute cycles.
        remaining: u64,
    },
    /// DMA-out phase.
    Writing {
        /// Remaining DMA-out cycles.
        remaining: u64,
    },
    /// Completed, status DONE published.
    Done,
    /// Aborted, status ERROR published.
    Error,
    /// Wedged mid-run: the region accepted a start and will never make
    /// progress again (a latched-up reconfigurable fabric). STATUS stays
    /// BUSY forever — only the kernel's watchdog can take the region out
    /// of service.
    Hung,
}

/// AXI HP port model: bytes moved per CPU cycle during DMA bursts.
pub const HP_BYTES_PER_CYCLE: u64 = 2;
/// Fixed DMA setup cost per transfer (descriptor fetch, arbitration).
pub const DMA_SETUP_CYCLES: u64 = 30;

/// One partially reconfigurable region.
pub struct Prr {
    /// Static geometry.
    pub geometry: PrrGeometry,
    /// The memory-mapped register group.
    pub regs: RegGroup,
    /// Loaded IP core, if any.
    pub core: Option<Box<dyn IpCore>>,
    /// Engine state.
    pub state: ExecState,
    /// PL interrupt line allocated by the PRR controller (§IV-D).
    pub irq_line: Option<IrqNum>,
    /// Completed runs since configuration.
    pub runs: u64,
    /// Total busy cycles (all phases).
    pub busy_cycles: u64,
    /// Output staged during the compute phase, written back in DMA-out.
    staged_output: Option<Vec<u8>>,
}

impl Prr {
    /// An empty region.
    pub fn new(geometry: PrrGeometry) -> Self {
        Prr {
            geometry,
            regs: RegGroup::default(),
            core: None,
            state: ExecState::Empty,
            irq_line: None,
            runs: 0,
            busy_cycles: 0,
            staged_output: None,
        }
    }

    /// Load a core (completes a PCAP reconfiguration). Resets registers and
    /// state — a freshly configured region holds no stale client data.
    pub fn load_core(&mut self, core: Box<dyn IpCore>) {
        self.regs = RegGroup::default();
        self.regs.r[regs::CORE_KIND] = core.kind().encode();
        self.regs.r[regs::STATUS] = status::IDLE;
        self.core = Some(core);
        self.state = ExecState::Idle;
        self.runs = 0;
        self.staged_output = None;
    }

    /// Kind of the loaded core, if any.
    pub fn loaded_kind(&self) -> Option<crate::bitstream::CoreKind> {
        self.core.as_ref().map(|c| c.kind())
    }

    /// Register read (byte offset within the group's page).
    pub fn reg_read(&self, off: u64) -> u32 {
        let idx = (off / 4) as usize;
        if idx < REG_COUNT {
            self.regs.r[idx]
        } else {
            0
        }
    }

    /// Register write. A START bit kicks the engine; actual progress happens
    /// in [`Prr::advance`].
    pub fn reg_write(&mut self, off: u64, val: u32, hwmmu: &mut HwMmu) {
        let idx = (off / 4) as usize;
        match idx {
            regs::CTRL => {
                // IRQ_EN is a level setting; START and RESET are pulses.
                self.regs.r[regs::CTRL] = val & ctrl::IRQ_EN;
                if val & ctrl::RESET != 0 {
                    if self.core.is_some() {
                        self.state = ExecState::Idle;
                        self.regs.r[regs::STATUS] = status::IDLE;
                    } else {
                        self.state = ExecState::Empty;
                        self.regs.r[regs::STATUS] = status::EMPTY;
                    }
                }
                if val & ctrl::START != 0 {
                    self.start(hwmmu);
                }
            }
            regs::STATUS | regs::RESULT_LEN | regs::PERF_CYCLES | regs::CORE_KIND => {
                // Read-only.
            }
            i if i < REG_COUNT => self.regs.r[i] = val,
            _ => {}
        }
    }

    /// Wedge the engine mid-run (fault injection): STATUS stays BUSY and
    /// [`Prr::advance`] never progresses again.
    pub fn hang(&mut self) {
        self.state = ExecState::Hung;
        self.regs.r[regs::STATUS] = status::BUSY;
        self.staged_output = None;
    }

    /// True when the engine is wedged.
    pub fn is_hung(&self) -> bool {
        self.state == ExecState::Hung
    }

    fn fail(&mut self, code: u32) {
        self.state = ExecState::Error;
        self.regs.r[regs::STATUS] = status::ERROR;
        self.regs.r[regs::PARAM0] = code;
    }

    fn start(&mut self, hwmmu: &mut HwMmu) {
        let Some(core) = self.core.as_ref() else {
            self.fail(errcode::NO_CORE);
            return;
        };
        if matches!(
            self.state,
            ExecState::Fetching { .. } | ExecState::Computing { .. } | ExecState::Writing { .. }
        ) {
            return; // already running; ignore
        }
        let src = PhysAddr::new(self.regs.r[regs::SRC_ADDR] as u64);
        let src_len = self.regs.r[regs::SRC_LEN] as u64;
        let dst = PhysAddr::new(self.regs.r[regs::DST_ADDR] as u64);
        let dst_cap = self.regs.r[regs::DST_LEN] as u64;
        let out_len = core.output_len(src_len as usize) as u64;

        // hwMMU checks both windows before any data moves (§IV-C security
        // principle 2).
        let id = self.geometry.id;
        if !hwmmu.check(id, src, src_len, false) || !hwmmu.check(id, dst, out_len, true) {
            self.fail(errcode::HWMMU_VIOLATION);
            return;
        }
        if out_len > dst_cap {
            self.fail(errcode::DST_OVERFLOW);
            return;
        }
        self.regs.r[regs::STATUS] = status::BUSY;
        self.regs.r[regs::PERF_CYCLES] = 0;
        self.state = ExecState::Fetching {
            remaining: DMA_SETUP_CYCLES + src_len.div_ceil(HP_BYTES_PER_CYCLE),
        };
    }

    /// Advance the engine by `dt` cycles. Returns `true` if the run
    /// completed during this call (the caller pulses the IRQ line).
    pub fn advance(&mut self, mut dt: u64, ctx: &mut PeriphCtx<'_>) -> bool {
        let mut completed = false;
        while dt > 0 {
            match self.state {
                ExecState::Fetching { remaining } => {
                    let used = remaining.min(dt);
                    self.busy_cycles += used;
                    self.regs.r[regs::PERF_CYCLES] += used as u32;
                    dt -= used;
                    if used == remaining {
                        // DMA-in completes: read input, run the core's
                        // functional model, stage the output.
                        let src = PhysAddr::new(self.regs.r[regs::SRC_ADDR] as u64);
                        let len = self.regs.r[regs::SRC_LEN] as usize;
                        let mut input = vec![0u8; len];
                        if ctx.mem.read(src, &mut input).is_err() {
                            self.fail(errcode::HWMMU_VIOLATION);
                            continue;
                        }
                        let core = self.core.as_ref().expect("state machine guards core");
                        let output = core.process(&input);
                        let compute = core.compute_cycles(len);
                        self.staged_output = Some(output);
                        self.state = ExecState::Computing { remaining: compute };
                    } else {
                        self.state = ExecState::Fetching {
                            remaining: remaining - used,
                        };
                    }
                }
                ExecState::Computing { remaining } => {
                    let used = remaining.min(dt);
                    self.busy_cycles += used;
                    self.regs.r[regs::PERF_CYCLES] += used as u32;
                    dt -= used;
                    if used == remaining {
                        let out_len = self
                            .staged_output
                            .as_ref()
                            .map(|o| o.len() as u64)
                            .unwrap_or(0);
                        self.state = ExecState::Writing {
                            remaining: DMA_SETUP_CYCLES + out_len.div_ceil(HP_BYTES_PER_CYCLE),
                        };
                    } else {
                        self.state = ExecState::Computing {
                            remaining: remaining - used,
                        };
                    }
                }
                ExecState::Writing { remaining } => {
                    let used = remaining.min(dt);
                    self.busy_cycles += used;
                    self.regs.r[regs::PERF_CYCLES] += used as u32;
                    dt -= used;
                    if used == remaining {
                        let out = self.staged_output.take().unwrap_or_default();
                        let dst = PhysAddr::new(self.regs.r[regs::DST_ADDR] as u64);
                        if ctx.mem.write(dst, &out).is_err() {
                            self.fail(errcode::HWMMU_VIOLATION);
                            continue;
                        }
                        self.regs.r[regs::RESULT_LEN] = out.len() as u32;
                        self.regs.r[regs::STATUS] = status::DONE;
                        self.state = ExecState::Done;
                        self.runs += 1;
                        completed = true;
                    } else {
                        self.state = ExecState::Writing {
                            remaining: remaining - used,
                        };
                    }
                }
                _ => break,
            }
        }
        completed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitstream::CoreKind;
    use crate::cores::make_core;
    use crate::fabric::PrrResources;
    use mnv_arm::gic::Gic;
    use mnv_arm::memory::PhysMemory;
    use mnv_hal::Cycles;

    fn geometry() -> PrrGeometry {
        PrrGeometry {
            id: 0,
            resources: PrrResources {
                slices: 4000,
                bram: 40,
                dsp: 48,
            },
        }
    }

    fn run_to_completion(prr: &mut Prr, mem: &mut PhysMemory) -> u64 {
        let mut gic = Gic::new();
        let tracer = mnv_trace::Tracer::disabled();
        let mut cycles = 0u64;
        for _ in 0..1_000_000 {
            let mut ctx = PeriphCtx {
                mem,
                gic: &mut gic,
                now: Cycles::new(cycles),
                tracer: &tracer,
            };
            cycles += 100;
            if prr.advance(100, &mut ctx) {
                return cycles;
            }
            if prr.state == ExecState::Error {
                return cycles;
            }
        }
        panic!("run did not complete");
    }

    #[test]
    fn start_without_core_errors() {
        let mut prr = Prr::new(geometry());
        let mut hwmmu = HwMmu::new(1);
        prr.reg_write(regs::CTRL as u64 * 4, ctrl::START, &mut hwmmu);
        assert_eq!(prr.reg_read(regs::STATUS as u64 * 4), status::ERROR);
        assert_eq!(prr.reg_read(regs::PARAM0 as u64 * 4), errcode::NO_CORE);
    }

    #[test]
    fn qam_run_end_to_end() {
        let mut prr = Prr::new(geometry());
        prr.load_core(make_core(CoreKind::Qam { bits_per_symbol: 2 }));
        assert_eq!(prr.reg_read(regs::STATUS as u64 * 4), status::IDLE);

        let mut mem = PhysMemory::new();
        let input: Vec<u8> = (0..16).collect();
        mem.write(PhysAddr::new(0x10_0000), &input).unwrap();

        let mut hwmmu = HwMmu::new(1);
        hwmmu.load_window(0, PhysAddr::new(0x10_0000), 0x10000);
        prr.reg_write(regs::SRC_ADDR as u64 * 4, 0x10_0000, &mut hwmmu);
        prr.reg_write(regs::SRC_LEN as u64 * 4, 16, &mut hwmmu);
        prr.reg_write(regs::DST_ADDR as u64 * 4, 0x10_1000, &mut hwmmu);
        prr.reg_write(regs::DST_LEN as u64 * 4, 4096, &mut hwmmu);
        prr.reg_write(
            regs::CTRL as u64 * 4,
            ctrl::START | ctrl::IRQ_EN,
            &mut hwmmu,
        );
        assert_eq!(prr.reg_read(regs::STATUS as u64 * 4), status::BUSY);

        run_to_completion(&mut prr, &mut mem);
        assert_eq!(prr.reg_read(regs::STATUS as u64 * 4), status::DONE);
        let result_len = prr.reg_read(regs::RESULT_LEN as u64 * 4) as usize;
        assert_eq!(result_len, 64 * 8); // 16 bytes -> 64 QPSK symbols
                                        // Verify against the functional model directly.
        let expected = crate::cores::qam::qam_map(&input, 2);
        let mut got = vec![0u8; result_len];
        mem.read(PhysAddr::new(0x10_1000), &mut got).unwrap();
        assert_eq!(crate::cores::bytes_to_complex(&got), expected);
        assert_eq!(prr.runs, 1);
    }

    #[test]
    fn hwmmu_violation_blocks_run_before_any_data_moves() {
        let mut prr = Prr::new(geometry());
        prr.load_core(make_core(CoreKind::Qam { bits_per_symbol: 2 }));
        let mut mem = PhysMemory::new();
        mem.write_u32(PhysAddr::new(0x20_0000), 0x5555_5555)
            .unwrap();

        let mut hwmmu = HwMmu::new(1);
        hwmmu.load_window(0, PhysAddr::new(0x10_0000), 0x1000);
        // Source points OUTSIDE the window: another VM's memory.
        prr.reg_write(regs::SRC_ADDR as u64 * 4, 0x20_0000, &mut hwmmu);
        prr.reg_write(regs::SRC_LEN as u64 * 4, 16, &mut hwmmu);
        prr.reg_write(regs::DST_ADDR as u64 * 4, 0x10_0100, &mut hwmmu);
        prr.reg_write(regs::DST_LEN as u64 * 4, 512, &mut hwmmu);
        prr.reg_write(regs::CTRL as u64 * 4, ctrl::START, &mut hwmmu);

        assert_eq!(prr.reg_read(regs::STATUS as u64 * 4), status::ERROR);
        assert_eq!(
            prr.reg_read(regs::PARAM0 as u64 * 4),
            errcode::HWMMU_VIOLATION
        );
        assert_eq!(hwmmu.violation_count, 1);
        assert_eq!(prr.state, ExecState::Error);
    }

    #[test]
    fn dst_overflow_detected() {
        let mut prr = Prr::new(geometry());
        prr.load_core(make_core(CoreKind::Qam { bits_per_symbol: 2 }));
        let mut hwmmu = HwMmu::new(1);
        hwmmu.load_window(0, PhysAddr::new(0x10_0000), 0x10000);
        prr.reg_write(regs::SRC_ADDR as u64 * 4, 0x10_0000, &mut hwmmu);
        prr.reg_write(regs::SRC_LEN as u64 * 4, 16, &mut hwmmu);
        prr.reg_write(regs::DST_ADDR as u64 * 4, 0x10_1000, &mut hwmmu);
        prr.reg_write(regs::DST_LEN as u64 * 4, 8, &mut hwmmu); // too small
        prr.reg_write(regs::CTRL as u64 * 4, ctrl::START, &mut hwmmu);
        assert_eq!(prr.reg_read(regs::PARAM0 as u64 * 4), errcode::DST_OVERFLOW);
    }

    #[test]
    fn reset_recovers_from_error() {
        let mut prr = Prr::new(geometry());
        prr.load_core(make_core(CoreKind::Qam { bits_per_symbol: 2 }));
        let mut hwmmu = HwMmu::new(1);
        prr.reg_write(regs::CTRL as u64 * 4, ctrl::START, &mut hwmmu); // denied: empty window
        assert_eq!(prr.reg_read(regs::STATUS as u64 * 4), status::ERROR);
        prr.reg_write(regs::CTRL as u64 * 4, ctrl::RESET, &mut hwmmu);
        assert_eq!(prr.reg_read(regs::STATUS as u64 * 4), status::IDLE);
        assert_eq!(prr.state, ExecState::Idle);
    }

    #[test]
    fn reconfiguration_clears_stale_registers() {
        let mut prr = Prr::new(geometry());
        prr.load_core(make_core(CoreKind::Qam { bits_per_symbol: 2 }));
        let mut hwmmu = HwMmu::new(1);
        prr.reg_write(regs::SRC_ADDR as u64 * 4, 0xDEAD, &mut hwmmu);
        prr.load_core(make_core(CoreKind::Fft { log2_points: 8 }));
        assert_eq!(prr.reg_read(regs::SRC_ADDR as u64 * 4), 0);
        assert_eq!(prr.loaded_kind(), Some(CoreKind::Fft { log2_points: 8 }));
        assert_eq!(
            prr.reg_read(regs::CORE_KIND as u64 * 4),
            CoreKind::Fft { log2_points: 8 }.encode()
        );
    }

    #[test]
    fn read_only_registers_ignore_writes() {
        let mut prr = Prr::new(geometry());
        prr.load_core(make_core(CoreKind::Qam { bits_per_symbol: 2 }));
        let mut hwmmu = HwMmu::new(1);
        prr.reg_write(regs::STATUS as u64 * 4, 0x99, &mut hwmmu);
        prr.reg_write(regs::CORE_KIND as u64 * 4, 0x99, &mut hwmmu);
        assert_eq!(prr.reg_read(regs::STATUS as u64 * 4), status::IDLE);
        assert_ne!(prr.reg_read(regs::CORE_KIND as u64 * 4), 0x99);
    }

    #[test]
    fn phase_timing_scales_with_input() {
        // Bigger inputs must take longer (DMA bandwidth + compute scale).
        let mut mem = PhysMemory::new();
        let mut hwmmu = HwMmu::new(1);
        hwmmu.load_window(0, PhysAddr::new(0x10_0000), 0x100000);
        let mut time = |len: u32| {
            let mut prr = Prr::new(geometry());
            prr.load_core(make_core(CoreKind::Qam { bits_per_symbol: 2 }));
            prr.reg_write(regs::SRC_ADDR as u64 * 4, 0x10_0000, &mut hwmmu);
            prr.reg_write(regs::SRC_LEN as u64 * 4, len, &mut hwmmu);
            prr.reg_write(regs::DST_ADDR as u64 * 4, 0x14_0000, &mut hwmmu);
            prr.reg_write(regs::DST_LEN as u64 * 4, len * 64, &mut hwmmu);
            prr.reg_write(regs::CTRL as u64 * 4, ctrl::START, &mut hwmmu);
            run_to_completion(&mut prr, &mut mem);
            prr.busy_cycles
        };
        assert!(time(4096) > 4 * time(64));
    }
}
