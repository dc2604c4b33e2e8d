//! # mini-nova — the paper's contribution: a lightweight ARM virtualization
//! microkernel with dynamic-partial-reconfiguration support
//!
//! This crate is the reproduction of the Mini-NOVA microkernel itself
//! (Xia, Prévotet, Nouvel — IPDPSW 2015): a paravirtualizing VMM for the
//! Cortex-A9 that hosts deprivileged guest OSes in isolated virtual
//! machines and dispatches FPGA hardware tasks to them through a
//! user-level **Hardware Task Manager** service.
//!
//! Structure follows the paper:
//!
//! * **CPU virtualization** (§III-A): protection domains ([`kobj::pd`])
//!   holding vCPU state split into active- and lazy-switch classes
//!   (Table I, [`kobj::vcpu`]), an exception interface, and 25 hypercalls
//!   ([`hypercall`]).
//! * **Virtual interrupts** (§III-B): a per-VM vGIC ([`vgic`]) that masks
//!   and unmasks each VM's physical lines on every switch and injects
//!   vIRQs into the guest.
//! * **Memory management** (§III-C): per-VM ARMv7 page tables written into
//!   simulated DDR ([`mem::pagetable`]), the DACR-based guest-kernel /
//!   guest-user split (Table II, [`mem::dacr`]), per-VM ASIDs.
//! * **Scheduling** (§III-D): a preemptive priority-based round-robin
//!   scheduler with run and suspend queues and quantum preservation
//!   across preemption ([`sched`]).
//! * **DPR support** (§IV): the Hardware Task Manager service
//!   ([`hwmgr`]) — task and PRR lookup tables, the six-stage allocation
//!   routine of Fig. 7, exclusive interface mapping, hwMMU reloads,
//!   consistency save/restore, PL interrupt allocation, PCAP management.
//!
//! The kernel runs *on* the `mnv-arm` machine model: all of its state
//! manipulation flows through charged memory/MMIO accesses, so the
//! benchmark harness can reproduce the paper's Table III and Fig. 9 from
//! first principles rather than from hard-coded delays.

pub mod hwmgr;
pub mod hypercall;
pub mod ipc;
pub mod kernel;
pub mod kobj;
pub mod mem;
pub mod mirguest;
pub mod native;
pub mod obs;
pub mod postmortem;
pub mod sched;
pub mod slo;
pub mod stats;
pub mod supervisor;
pub mod vgic;
pub mod vmenv;
pub mod vtimer;

pub use kernel::{GuestKind, Kernel, KernelConfig, VmSpec};
pub use kobj::pd::{Pd, PdState};
pub use stats::KernelStats;
