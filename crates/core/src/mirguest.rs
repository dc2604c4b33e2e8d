//! MIR guests: deprivileged interpreted programs under full trap-and-
//! emulate.
//!
//! Where the uC/OS-II guests exercise the paravirtualized fast path, MIR
//! guests exercise the *architectural* one: every instruction is fetched
//! through the guest page table, privileged CP15 accesses raise UND and are
//! emulated or rejected by the kernel, VFP use drives the lazy-switch
//! machinery of Table I, SVC lands in the hypercall dispatcher
//! (arguments in r0–r3, result in r0), and data aborts are forwarded to
//! the guest's registered abort handler — the §IV-E mechanism by which a
//! guest learns its task interface was demapped.

use mnv_arm::cpu::{CpuEvent, ExceptionKind};
use mnv_arm::machine::{Machine, UndKind};
use mnv_arm::mir::Program;
use mnv_hal::abi::{HcError, Hypercall, HypercallArgs};
use mnv_hal::{Cycles, VmId};
use mnv_ucos::kernel::RunExit;

use crate::hypercall;
use crate::kernel::KernelState;
use crate::kobj::pd::PdState;

/// Value returned in r0 for a failed hypercall; r1 carries the error code.
pub const HC_FAIL: u32 = 0xFFFF_FFFF;

/// A MIR guest: its program plus run-time bookkeeping.
pub struct MirGuest {
    /// The assembled program (loaded at its base VA in the VM's region).
    pub program: Program,
    /// Guest abort-handler VA (0 = none registered; faults kill the VM).
    pub abort_handler: u32,
    /// Instructions retired in this guest.
    pub retired: u64,
    /// Faults forwarded to the guest handler.
    pub faults_taken: u64,
    /// True once the program executed `Halt`.
    pub halted: bool,
}

impl MirGuest {
    /// Wrap an assembled program.
    pub fn new(program: Program) -> Self {
        MirGuest {
            program,
            abort_handler: 0,
            retired: 0,
            faults_taken: 0,
            halted: false,
        }
    }

    /// Run under trap-and-emulate for at most `grant` cycles.
    pub fn run(
        &mut self,
        m: &mut Machine,
        ks: &mut KernelState,
        vm: VmId,
        grant: Cycles,
    ) -> RunExit {
        if self.halted {
            return RunExit::Idle;
        }
        let deadline = m.now() + grant;
        let start_retired = m.instructions_retired;
        while m.now() < deadline {
            // run_slice executes decoded basic blocks with event-driven
            // device sync when the block cache is enabled; `Retired` means
            // the slice deadline was reached with nothing to handle.
            match m.run_slice(deadline) {
                CpuEvent::Retired => continue,
                CpuEvent::Halted => {
                    self.halted = true;
                    if let Some(pd) = ks.pds.get_mut(&vm) {
                        pd.state = PdState::Halted;
                    }
                    break;
                }
                CpuEvent::Wfi => {
                    self.retired += m.instructions_retired - start_retired;
                    return RunExit::Idle;
                }
                CpuEvent::Exception(kind) => {
                    if !self.handle_exception(m, ks, vm, kind) {
                        break;
                    }
                }
            }
        }
        self.retired += m.instructions_retired - start_retired;
        if self.halted {
            RunExit::Idle
        } else {
            RunExit::QuantumExhausted
        }
    }

    /// Handle a trap; returns false when the VM was killed/halted.
    fn handle_exception(
        &mut self,
        m: &mut Machine,
        ks: &mut KernelState,
        vm: VmId,
        kind: ExceptionKind,
    ) -> bool {
        match kind {
            ExceptionKind::Svc => {
                let nr = m.last_svc.take().unwrap_or(0xFF);
                let ret = m.cpu.reg(14); // LR_svc = next instruction
                let args = match Hypercall::from_nr(nr) {
                    Some(h) => HypercallArgs {
                        nr: h,
                        a0: m.cpu.user_reg(0),
                        a1: m.cpu.user_reg(1),
                        a2: m.cpu.user_reg(2),
                        a3: m.cpu.user_reg(3),
                    },
                    None => {
                        // Unknown call: count it in the VM's invalid slot
                        // (never index the per-call array with an
                        // out-of-range number) and report BadCall.
                        ks.stats.hypercalls_total += 1;
                        if let Some(pd) = ks.pds.get_mut(&vm) {
                            pd.stats.hypercalls_invalid += 1;
                        }
                        m.cpu.set_user_reg(0, HC_FAIL);
                        m.cpu.set_user_reg(1, HcError::BadCall as u32);
                        m.exception_return(ret);
                        return true;
                    }
                };
                match hypercall::hypercall_from_trap(m, ks, vm, args) {
                    Ok(v) => {
                        m.cpu.set_user_reg(0, v);
                    }
                    Err(e) => {
                        m.cpu.set_user_reg(0, HC_FAIL);
                        m.cpu.set_user_reg(1, e as u32);
                    }
                }
                m.exception_return(ret);
                true
            }
            ExceptionKind::Undefined => {
                let cause = m.last_und.take();
                match cause.map(|c| c.kind) {
                    Some(UndKind::VfpAccess) => {
                        // Lazy VFP switch (Table I): park the previous
                        // owner's bank, adopt this VM's, retry the
                        // instruction.
                        let pc = cause.expect("cause present").pc.raw() as u32;
                        if let Some(owner) = ks.vfp_owner {
                            if owner != vm {
                                if let Some(opd) = ks.pds.get_mut(&owner) {
                                    m.vfp.enabled = true; // bank accessible to the kernel
                                    opd.vcpu.vfp_park(m, owner);
                                }
                            }
                        }
                        if let Some(pd) = ks.pds.get_mut(&vm) {
                            pd.vcpu.vfp_adopt(m, vm);
                        }
                        ks.vfp_owner = Some(vm);
                        ks.stats.vfp_lazy_switches += 1;
                        m.exception_return(pc); // retry faulting instruction
                        true
                    }
                    Some(UndKind::Cp15Read { rd, reg }) => {
                        // Trap & emulate: benign reads return the vCPU's
                        // shadow value instead of real hardware state. The
                        // kernel must fetch and decode the faulting
                        // instruction before it can emulate — the cost
                        // hypercalls exist to avoid (§III-A).
                        crate::hypercall::touch_ktext(
                            m,
                            crate::mem::layout::ktext::UND_EMULATE,
                            16,
                        );
                        m.charge(40); // software decode of the instruction
                        let pc = cause.expect("cause present").pc.raw() as u32;
                        let pd = ks.pds.get(&vm);
                        let val = match (reg, pd) {
                            (mnv_arm::mir::MirCp15::Contextidr, Some(p)) => p.vcpu.contextidr,
                            (mnv_arm::mir::MirCp15::Dacr, Some(p)) => p.vcpu.dacr,
                            _ => 0,
                        };
                        m.cpu.set_user_reg(rd, val);
                        m.exception_return(pc.wrapping_add(8)); // skip it
                        true
                    }
                    Some(UndKind::Cp15Write { .. }) => {
                        // A guest writing privileged system registers is a
                        // policy violation: kill the VM (sensitive writes
                        // must go through hypercalls).
                        self.kill(m, ks, vm);
                        false
                    }
                    _ => {
                        self.kill(m, ks, vm);
                        false
                    }
                }
            }
            // Forward to the guest's abort handler if registered (the §IV-E
            // page-fault acknowledgement path); else kill.
            ExceptionKind::DataAbort | ExceptionKind::PrefetchAbort if self.abort_handler != 0 => {
                ks.stats.faults_forwarded += 1;
                ks.tracer
                    .emit(m.now(), mnv_trace::TraceEvent::FaultForwarded { vm: vm.0 });
                self.faults_taken += 1;
                if let Some(pd) = ks.pds.get_mut(&vm) {
                    pd.stats.faults_forwarded += 1;
                }
                // r0 = faulting address (DFAR), r1 = status (DFSR).
                let dfar = m.cp15.read(mnv_arm::cp15::Cp15Reg::Dfar);
                let dfsr = m.cp15.read(mnv_arm::cp15::Cp15Reg::Dfsr);
                m.cpu.set_user_reg(0, dfar);
                m.cpu.set_user_reg(1, dfsr);
                m.exception_return(self.abort_handler);
                true
            }
            ExceptionKind::DataAbort | ExceptionKind::PrefetchAbort => {
                self.kill(m, ks, vm);
                false
            }
            ExceptionKind::Irq => {
                // Physical IRQ while interpreting: ack and buffer through
                // the vGIC bookkeeping (simplified: return to the guest).
                if let Some(irq) = m.gic.ack() {
                    m.gic.eoi(irq);
                    if let Some(pd) = ks.pds.get_mut(&vm) {
                        pd.vgic.buffer(irq);
                    }
                }
                let ret = m.cpu.reg(14);
                m.exception_return(ret);
                true
            }
            _ => {
                self.kill(m, ks, vm);
                false
            }
        }
    }

    /// Kill the VM on a policy violation or an unhandled fault: recorded
    /// exactly like [`crate::Kernel::kill_vm`] (trace, counters,
    /// post-mortem), but the guest only halts in place.
    fn kill(&mut self, m: &mut Machine, ks: &mut KernelState, vm: VmId) {
        self.halted = true;
        let (_, pds, _, mut sinks) = ks.manager();
        let ev = mnv_trace::TraceEvent::VmKilled { vm: vm.0 };
        sinks.note_dump(m, pds, Some(vm), ev);
        if let Some(pd) = ks.pds.get_mut(&vm) {
            pd.state = PdState::Halted;
        }
    }
}
