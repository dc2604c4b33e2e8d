//! Kernel instrumentation — the measurement points behind Table III.
//!
//! Four characteristic overheads are accumulated exactly as the paper
//! defines them (§V-B):
//!
//! * **HW Manager entry**: from the guest's hardware-task hypercall trap to
//!   the manager service starting execution (includes the memory-space
//!   switch into the manager's domain);
//! * **HW Manager execution**: the manager's own request handling;
//! * **HW Manager exit**: from manager completion back into the guest;
//! * **PL IRQ entry**: "from the exception vector table … until the vGIC
//!   injects the virtual interrupt to the VM".
//!
//! Each [`Acc`] carries a log-bucketed [`mnv_trace::Hist`] alongside the running
//! mean/min/max, so every Table III row can report p50/p90/p99 as well as
//! the paper's mean.

use mnv_arm::PmuInputs;
use mnv_hal::abi::HYPERCALL_COUNT;
use mnv_hal::VmId;
use std::collections::BTreeMap;

use crate::kobj::pd::{Pd, PdStats};
use crate::slo::FAMILIES;

/// The shared latency accumulator, re-exported from `mnv-trace` so the
/// mean/min/max/percentile arithmetic exists in exactly one place (the
/// trace summariser accumulates into the same type).
pub use mnv_trace::Acc;

/// Hardware Task Manager measurements (the rows of Table III).
#[derive(Clone, Copy, Debug, Default)]
pub struct HwMgrStats {
    /// HW Manager entry overhead.
    pub entry: Acc,
    /// HW Manager exit overhead.
    pub exit: Acc,
    /// HW Manager execution time.
    pub exec: Acc,
    /// PL IRQ entry (vGIC injection) overhead.
    pub irq_entry: Acc,
    /// End-to-end manager response delay (entry + execution + exit measured
    /// per invocation, so its percentiles are real, not sums of means).
    pub total: Acc,
    /// Allocation-routine runs: one per `HwTaskRequest` and one per ring
    /// descriptor dispatched. Not the registry's `hwmgr_invocations`,
    /// which counts manager invocations (requests, ring kicks and
    /// releases alike).
    pub invocations: u64,
    /// Requests answered Busy.
    pub busy: u64,
    /// PCAP reconfigurations launched.
    pub reconfigs: u64,
    /// Hardware tasks reclaimed from a previous client.
    pub reclaims: u64,
    /// Failed PCAP transfers relaunched by the retry path.
    pub pcap_retries: u64,
    /// PRRs quarantined by the reconfiguration watchdog.
    pub quarantines: u64,
    /// Hardware-task runs served by the software fallback.
    pub sw_fallbacks: u64,
    /// Background scrubs of quarantined PRRs that passed readback.
    pub scrubs: u64,
    /// Background scrubs that failed readback.
    pub scrub_fails: u64,
    /// Quarantined PRRs reinstated into the allocator pool.
    pub reinstates: u64,
    /// PRRs retired permanently after repeated scrub failures.
    pub prrs_retired: u64,
    /// Degraded shadow clients promoted back onto fabric hardware.
    pub repromotions: u64,
    /// Escalation-ladder rung 1: hung task restarted on the same PRR.
    pub ladder_retries: u64,
    /// Escalation-ladder rung 2: hung task relocated to a compatible PRR.
    pub ladder_relocations: u64,
    /// Escalation-ladder rung 3: hung task degraded to software fallback.
    pub ladder_fallbacks: u64,
    /// Escalation-ladder rung 4: hung task failed with an error to the guest.
    pub ladder_errors: u64,
    /// `RingKick` drains performed (one manager invocation per kick).
    pub ring_kicks: u64,
    /// Ring descriptors accepted across all kicks.
    pub ring_descs: u64,
    /// Coalesced ring-completion vIRQs delivered (one per drained batch,
    /// not one per descriptor).
    pub ring_virqs: u64,
}

impl HwMgrStats {
    /// Total mean response delay (entry + execution + exit), Table III's
    /// "Total overhead" row.
    pub fn total_mean_us(&self) -> f64 {
        self.entry.mean_us() + self.exec.mean_us() + self.exit.mean_us()
    }

    /// Fold another run's measurements into this one.
    pub fn merge(&mut self, other: &HwMgrStats) {
        self.entry.merge(&other.entry);
        self.exit.merge(&other.exit);
        self.exec.merge(&other.exec);
        self.irq_entry.merge(&other.irq_entry);
        self.total.merge(&other.total);
        self.invocations += other.invocations;
        self.busy += other.busy;
        self.reconfigs += other.reconfigs;
        self.reclaims += other.reclaims;
        self.pcap_retries += other.pcap_retries;
        self.quarantines += other.quarantines;
        self.sw_fallbacks += other.sw_fallbacks;
        self.scrubs += other.scrubs;
        self.scrub_fails += other.scrub_fails;
        self.reinstates += other.reinstates;
        self.prrs_retired += other.prrs_retired;
        self.repromotions += other.repromotions;
        self.ladder_retries += other.ladder_retries;
        self.ladder_relocations += other.ladder_relocations;
        self.ladder_fallbacks += other.ladder_fallbacks;
        self.ladder_errors += other.ladder_errors;
        self.ring_kicks += other.ring_kicks;
        self.ring_descs += other.ring_descs;
        self.ring_virqs += other.ring_virqs;
    }
}

/// Aggregate kernel statistics.
#[derive(Clone, Debug, Default)]
pub struct KernelStats {
    /// World switches: each switch into a VM plus the two manager-space
    /// switches (in and out) of every manager invocation. The
    /// `world_switches` metric counts the switches into a VM alone.
    pub vm_switches: u64,
    /// Per-hypercall invocation counts.
    pub hypercalls: [u64; HYPERCALL_COUNT],
    /// Total hypercalls.
    pub hypercalls_total: u64,
    /// Hardware Task Manager measurements.
    pub hwmgr: HwMgrStats,
    /// Virtual IRQs injected (all classes).
    pub virqs_injected: u64,
    /// Lazy VFP switches performed.
    pub vfp_lazy_switches: u64,
    /// Guest faults forwarded to guests.
    pub faults_forwarded: u64,
    /// VMs killed on unrecoverable faults.
    pub vms_killed: u64,
    /// VMs relaunched by the supervisor after a kill.
    pub vm_restarts: u64,
    /// VMs killed by the liveness watchdog (no retired-instruction progress).
    pub liveness_kills: u64,
    /// VMs killed permanently after exhausting the crash-loop budget.
    pub crash_loop_kills: u64,
    /// Hardware-task requests minted (every `HwTaskRequest` hypercall gets
    /// a fresh `ReqId`, whether or not it is eventually satisfied).
    pub reqs_minted: u64,
    /// Completed requests whose end-to-end latency exceeded their
    /// interface family's latency objective, per family.
    pub slo_violations: [u64; FAMILIES],
    /// SLO burn events per interface family: windows in which the
    /// violation count crossed the burn limit.
    pub slo_burns: [u64; FAMILIES],
    /// PMU inputs of every epoch the host (kernel, world-switch code, idle
    /// loop) ran; each VM's epochs are in its `PdStats::pmu`.
    pub host_pmu: PmuInputs,
    /// The folded accounting of destroyed PDs, per VM id: a relaunch
    /// reuses the id with fresh `PdStats`, so a VM's lifetime counts are
    /// this plus its live PD's.
    pub retired: BTreeMap<VmId, PdStats>,
    /// The manager statistics of every window [`KernelStats::reset_hwmgr`]
    /// closed.
    pub hwmgr_earlier: HwMgrStats,
}

impl KernelStats {
    /// Start a new Table III window (benchmarks call this between warm-up
    /// and measurement phases): `hwmgr` restarts from zero, and what it
    /// held folds into `hwmgr_earlier`.
    pub fn reset_hwmgr(&mut self) {
        self.hwmgr_earlier.merge(&self.hwmgr);
        self.hwmgr = HwMgrStats::default();
    }

    /// The manager statistics since boot, across every reset.
    pub fn hwmgr_lifetime(&self) -> HwMgrStats {
        let mut h = self.hwmgr_earlier;
        h.merge(&self.hwmgr);
        h
    }

    /// Every VM's accounting over all its incarnations: its retired PDs'
    /// folded with its live one's.
    pub fn per_vm(&self, pds: &BTreeMap<VmId, Pd>) -> BTreeMap<VmId, PdStats> {
        let mut all = self.retired.clone();
        for (vm, pd) in pds {
            all.entry(*vm).or_default().merge(&pd.stats);
        }
        all
    }

    /// Every machine-wide total that has a per-VM store must equal that
    /// store's sum over live and retired PDs.
    pub fn check_vm_totals(&self, pds: &BTreeMap<VmId, Pd>) -> Result<(), String> {
        let mut v = PdStats::default();
        self.per_vm(pds).values().for_each(|s| v.merge(s));
        let (s, h) = (self, self.hwmgr_lifetime());
        for (name, total, sum) in [
            ("hypercalls", s.hypercalls_total, v.hypercalls_served()),
            ("virqs_injected", s.virqs_injected, v.virqs_injected),
            ("vm_restarts", s.vm_restarts, v.restarts),
            ("ring_kicks", h.ring_kicks, v.ring_kicks),
            ("ring_virqs", h.ring_virqs, v.ring_virqs),
            ("repromotions", h.repromotions, v.repromotions),
        ] {
            if total != sum {
                return Err(format!("{name}: total {total}, per-VM sum {sum}"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mnv_hal::Cycles;

    #[test]
    fn total_is_sum_of_phases() {
        let mut h = HwMgrStats::default();
        h.entry.push(Cycles::new(660));
        h.exec.push(Cycles::new(6600));
        h.exit.push(Cycles::new(660));
        assert!((h.total_mean_us() - 12.0).abs() < 1e-9);
    }

    #[test]
    fn hwmgr_merge_combines_counters() {
        let mut a = HwMgrStats::default();
        let mut b = HwMgrStats::default();
        a.invocations = 2;
        a.entry.push(Cycles::new(660));
        b.invocations = 3;
        b.reconfigs = 1;
        b.entry.push(Cycles::new(1320));
        a.merge(&b);
        assert_eq!(a.invocations, 5);
        assert_eq!(a.reconfigs, 1);
        assert_eq!(a.entry.samples, 2);
    }

    #[test]
    fn reset_hwmgr_preserves_rest() {
        let mut s = KernelStats {
            vm_switches: 7,
            ..Default::default()
        };
        s.hwmgr.invocations = 3;
        s.reset_hwmgr();
        assert_eq!(s.vm_switches, 7);
        assert_eq!(s.hwmgr.invocations, 0);
    }

    #[test]
    fn every_total_must_equal_its_per_vm_sum() {
        type Bump = fn(&mut KernelStats, &mut PdStats);
        // Each pair: the machine-wide total and the per-VM field it sums.
        let pairs: [(Bump, Bump); 6] = [
            (|k, _| k.hypercalls_total += 1, |_, p| p.hypercalls += 1),
            (|k, _| k.virqs_injected += 1, |_, p| p.virqs_injected += 1),
            (|k, _| k.vm_restarts += 1, |_, p| p.restarts += 1),
            (|k, _| k.hwmgr.ring_kicks += 1, |_, p| p.ring_kicks += 1),
            (|k, _| k.hwmgr.ring_virqs += 1, |_, p| p.ring_virqs += 1),
            (|k, _| k.hwmgr.repromotions += 1, |_, p| p.repromotions += 1),
        ];
        let pds = BTreeMap::new();
        for (i, (total, per_vm)) in pairs.iter().enumerate() {
            // Both sides together, for a destroyed VM: the check holds,
            // and still holds after a Table III reset.
            let mut k = KernelStats::default();
            let mut p = PdStats::default();
            total(&mut k, &mut p);
            per_vm(&mut k, &mut p);
            k.retired.insert(VmId(2), p);
            assert_eq!(k.check_vm_totals(&pds), Ok(()), "pair {i}");
            k.reset_hwmgr();
            assert_eq!(k.check_vm_totals(&pds), Ok(()), "pair {i} after reset");
            // One side alone: the check fails.
            let mut lone = k.clone();
            total(&mut lone, &mut p);
            assert!(lone.check_vm_totals(&pds).is_err(), "pair {i}: total alone");
            per_vm(&mut k, &mut p);
            k.retired.insert(VmId(2), p);
            assert!(k.check_vm_totals(&pds).is_err(), "pair {i}: per-VM alone");
        }
    }
}
