//! # mnv-arm — behavioural Cortex-A9 processing-system simulator
//!
//! This crate models the Zynq-7000 *processing system* (PS) side that the
//! Mini-NOVA paper runs on: a 660 MHz ARM Cortex-A9 with its six operating
//! modes and two privilege levels, the ARMv7 short-descriptor MMU with
//! 16-domain access control (DACR) and ASID-tagged TLB, physically-tagged
//! L1/L2 caches, the generic interrupt controller (GIC), the MPCore private
//! timer, the VFP coprocessor (for lazy-switch experiments) and a small
//! trap-generating micro instruction set (**MIR**) whose interpreter
//! fetches, loads and stores through the MMU so that the microkernel's
//! trap-and-emulate, hypercall and page-fault paths are exercised exactly as
//! they are on real silicon.
//!
//! The simulator is *transaction-level with cycle costs*: every memory
//! access is translated, charged through the cache hierarchy, and advances
//! one global clock. Reported times in the benchmark harness are these cycle
//! counts converted at 660 MHz (see `mnv_hal::Cycles`).
//!
//! Nothing here depends on the microkernel: the machine is a blank Zynq PS
//! onto which `mini-nova` (the paper's contribution) is "loaded".

pub mod blockcache;
pub mod bus;
pub mod cache;
pub mod cp15;
pub mod cpu;
pub mod gic;
pub mod machine;
pub mod memory;
pub mod mir;
pub mod mmu;
pub mod pmu;
pub mod psr;
pub mod timer;
pub mod timing;
pub mod tlb;
pub mod vfp;

pub use blockcache::{BlockCache, BlockCacheStats, CachedBlock};
pub use bus::{PeriphCtx, Peripheral};
pub use cache::{Cache, CacheHierarchy, CacheStats};
pub use cp15::Cp15;
pub use cpu::{Cpu, CpuEvent, ExceptionKind};
pub use gic::Gic;
pub use machine::{Machine, MachineConfig};
pub use memory::PhysMemory;
pub use mir::{AluOp, Cond, Instr, Program, ProgramBuilder};
pub use mmu::{AccessKind, Fault, FaultKind};
pub use pmu::{Pmu, PmuInputs, PmuReg, PmuState};
pub use psr::{Mode, Psr};
pub use timer::{GlobalTimer, PrivateTimer};
pub use tlb::{Tlb, TlbStats};
pub use vfp::Vfp;
