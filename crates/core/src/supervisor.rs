//! Self-healing supervision — the recovery half of the containment story.
//!
//! The degradation paths (PCAP retry, watchdog quarantine, software
//! fallback, `kill_vm`) are all *terminal* on their own: a killed VM stays
//! dead, a quarantined PRR never returns to the §III-C allocator pool and a
//! degraded client runs the 8× shadow path forever. This module adds the
//! mechanisms that make a long-running fleet converge back to healthy
//! hardware service once the faults stop:
//!
//! * **VM liveness + restart** ([`Supervisor`]): a per-VM progress watchdog
//!   over the retired-instruction PMU counter detects guests that burn CPU
//!   without retiring instructions (a wedged hypercall/poll loop) and
//!   escalates to `kill_vm`; supervised VMs are rebuilt from their
//!   registered image and relaunched under bounded exponential backoff,
//!   with a crash-loop budget (more than [`CRASH_BUDGET`] failures inside
//!   [`timing::CRASH_WINDOW`] ⇒ permanent kill).
//! * **PRR scrub-and-reinstate** (`impl HwMgr` below): quarantined regions
//!   get periodic background scrubs — a full test-bitstream PCAP load whose
//!   CRC-checked ingest doubles as configuration readback. After
//!   [`SCRUB_PASSES_TO_REINSTATE`] consecutive passes the region returns to
//!   the first-fit pool, preferably with a degraded client's core resident;
//!   [`SCRUB_FAILS_TO_RETIRE`] consecutive failures retire it permanently.
//!   A degraded client returns to hardware one way only: the six-stage
//!   routine at its next request (bit-identical results either way).
//! * **Hardware-task escalation ladder**: a hung region no longer jumps
//!   straight to quarantine. The rungs are retry-same-PRR →
//!   relocate-to-compatible-PRR → software fallback → error, each with its
//!   own timeout, every transition recorded once through `Sinks::note`.

use mnv_arm::machine::Machine;
use mnv_fpga::pl::{plregs, Pl};
use mnv_fpga::prr::ctrl as prr_ctrl;
use mnv_fpga::prr::errcode as prr_errcode;
use mnv_fpga::prr::regs as prr_regs;
use mnv_fpga::prr::status as prr_status;
use mnv_fpga::prr::REG_COUNT;
use mnv_hal::{HwTaskId, Priority, VmId};
use mnv_trace::event::req_stage;
use mnv_trace::TraceEvent;
use std::collections::BTreeMap;

use crate::hwmgr::service::{ctrl_reg, PcapJob, PcapJobKind, QueuedPcap};
use crate::hwmgr::tables::{Ladder, PrrService};
use crate::hwmgr::HwMgr;
use crate::kernel::GuestKind;
use crate::kobj::pd::Pd;
use crate::mem::pagetable::PtAlloc;
use crate::obs::Sinks;

/// Named cycle constants for every supervision timer (660 cycles = 1 µs at
/// the platform's 660 MHz). The kernel's idle loop and the Hardware Task
/// Manager's watchdog use these too, replacing the magic literals they
/// previously carried inline.
pub mod timing {
    /// Idle-VM poll backoff: a guest that went idle with no timer armed is
    /// re-polled after 1 ms (the kernel's "1 ms poll backoff").
    pub const IDLE_POLL_BACKOFF: u64 = 660_000;

    /// Idle-loop resync bound when no runnable VM advertises a wake-up
    /// time: fast-forward at most this far before re-evaluating.
    pub const IDLE_RESYNC: u64 = 100_000;

    /// Slack added to the nominal PCAP transfer time before the stall
    /// watchdog aborts it.
    pub const PCAP_STALL_SLACK: u64 = 100_000;

    /// Base of the PCAP relaunch exponential backoff (doubled per
    /// attempt).
    pub const PCAP_RETRY_BACKOFF_BASE: u64 = 10_000;

    /// Liveness watchdog default: a VM that accumulates this much on-CPU
    /// time without retiring a single instruction is declared hung (idle
    /// VMs are parked and accumulate nothing, so only genuine no-progress
    /// spinning — e.g. a wedged hypercall loop — trips this).
    pub const LIVENESS_HANG_CYCLES: u64 = 50_000_000;

    /// First-restart backoff; doubled per crash inside the window.
    pub const RESTART_BACKOFF_BASE: u64 = 1_000_000;

    /// Cap on the restart backoff (~100 ms).
    pub const RESTART_BACKOFF_MAX: u64 = 66_000_000;

    /// Sliding window over which crashes count against the budget (~1 s).
    pub const CRASH_WINDOW: u64 = 660_000_000;

    /// Interval between background scrubs of one quarantined region.
    pub const SCRUB_INTERVAL: u64 = 4_000_000;

    /// Escalation ladder rung 1: how long a retried run may stay BUSY
    /// before the ladder advances.
    pub const LADDER_RETRY_TIMEOUT: u64 = 2_000_000;

    /// Escalation ladder rung 2: how long a relocation (PCAP load of the
    /// task onto a compatible region + restart) may take before the ladder
    /// falls back to software.
    pub const LADDER_RELOCATE_TIMEOUT: u64 = 4_000_000;
}

/// Crash-loop budget: more than this many crashes of one VM inside
/// [`timing::CRASH_WINDOW`] make the kill permanent.
pub const CRASH_BUDGET: usize = 3;

/// Consecutive scrub passes required to reinstate a quarantined region.
pub const SCRUB_PASSES_TO_REINSTATE: u8 = 2;

/// Consecutive scrub failures after which a region is retired for good.
pub const SCRUB_FAILS_TO_RETIRE: u8 = 3;

/// Relocation budget of one dispatch: how many times the escalation ladder
/// may move a client between regions before its next hang must take the
/// software rung. Without this bound a persistent fault storm ping-pongs a
/// client between freshly-scrubbed regions forever — relocation after
/// relocation, never a completed run. A new request (or a completed
/// software round trip) resets the streak.
pub const MAX_RELOCATION_HOPS: u8 = 2;

// ---------------------------------------------------------------------------
// VM supervision
// ---------------------------------------------------------------------------

/// A registered VM image: everything needed to rebuild the guest payload
/// after a kill. The builder is called once per restart and must produce a
/// freshly-initialised guest (restarts are cold boots, not resumes).
pub struct VmImage {
    /// Name for diagnostics (reused by the relaunched PD).
    pub name: &'static str,
    /// Scheduling priority of the relaunched VM.
    pub priority: Priority,
    /// Factory for the guest payload.
    pub build: Box<dyn FnMut() -> GuestKind>,
}

/// Per-VM liveness watchdog state.
struct Liveness {
    /// Kill after this many on-CPU cycles without retired-instruction
    /// progress.
    hang_cycles: u64,
    /// Retired-instruction count at the last observed progress.
    last_instr: u64,
    /// On-CPU cycle count at the last observed progress.
    cycles_at_progress: u64,
}

/// A scheduled relaunch of a supervised VM.
#[derive(Clone, Copy, Debug)]
pub struct PendingRestart {
    /// Cycle time at which the relaunch happens (kill time + backoff).
    pub at: u64,
    /// Crash count inside the current window (1 = first restart).
    pub attempt: u8,
}

/// What [`Supervisor::record_crash`] decided about a kill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashDecision {
    /// The VM has no registered image; the kill is final (the pre-existing
    /// behaviour for unsupervised VMs).
    Unsupervised,
    /// A relaunch was scheduled.
    Restart {
        /// When the relaunch fires.
        at: u64,
        /// Crash count inside the window (drives the backoff exponent).
        attempt: u8,
    },
    /// The crash-loop budget is exhausted; the image was dropped and the
    /// kill is permanent.
    BudgetExhausted,
}

/// The VM-level supervisor: registered images, liveness watchdogs, pending
/// restarts and the crash-loop sliding window.
#[derive(Default)]
pub struct Supervisor {
    images: BTreeMap<VmId, VmImage>,
    liveness: BTreeMap<VmId, Liveness>,
    pending: BTreeMap<VmId, PendingRestart>,
    crashes: BTreeMap<VmId, Vec<u64>>,
}

impl Supervisor {
    /// An empty supervisor (nothing is supervised until registered).
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `vm` for supervised restart and arm its liveness watchdog
    /// with the default threshold.
    pub fn register(&mut self, vm: VmId, image: VmImage) {
        self.images.insert(vm, image);
        self.watch(vm, timing::LIVENESS_HANG_CYCLES);
    }

    /// Arm (or re-arm) the liveness watchdog for `vm`: kill after
    /// `hang_cycles` on-CPU cycles without retired-instruction progress.
    pub fn watch(&mut self, vm: VmId, hang_cycles: u64) {
        self.liveness.insert(
            vm,
            Liveness {
                hang_cycles,
                last_instr: 0,
                cycles_at_progress: 0,
            },
        );
    }

    /// Is `vm` registered for supervised restart?
    pub fn is_supervised(&self, vm: VmId) -> bool {
        self.images.contains_key(&vm)
    }

    /// Restarts currently scheduled (for invariant checks and monitors).
    pub fn pending_restarts(&self) -> Vec<(VmId, PendingRestart)> {
        self.pending.iter().map(|(&vm, &p)| (vm, p)).collect()
    }

    /// Drop all supervision state for `vm` (used by explicit un-supervised
    /// destruction paths).
    pub fn forget(&mut self, vm: VmId) {
        self.images.remove(&vm);
        self.liveness.remove(&vm);
        self.pending.remove(&vm);
        self.crashes.remove(&vm);
    }

    /// Sweep the liveness watchdogs and return the VMs that exceeded their
    /// no-progress budget. The caller is expected to `kill_vm` each.
    pub fn hung_vms(&mut self, pds: &BTreeMap<VmId, Pd>) -> Vec<VmId> {
        let mut hung = Vec::new();
        for (&vm, lv) in self.liveness.iter_mut() {
            let Some(pd) = pds.get(&vm) else { continue };
            let cycles = pd.stats.pmu.cycles;
            let instr = pd.stats.pmu.instr_retired;
            if instr != lv.last_instr || cycles < lv.cycles_at_progress {
                // Progress — or a restart reset the counters; re-baseline.
                lv.last_instr = instr;
                lv.cycles_at_progress = cycles;
            } else if cycles - lv.cycles_at_progress > lv.hang_cycles {
                hung.push(vm);
            }
        }
        hung
    }

    /// Record a kill of `vm` at `now` and decide what happens next:
    /// schedule a backed-off relaunch, or declare the crash loop dead.
    pub fn record_crash(&mut self, vm: VmId, now: u64) -> CrashDecision {
        if !self.images.contains_key(&vm) {
            return CrashDecision::Unsupervised;
        }
        // A killed VM has no liveness to watch until it is relaunched.
        self.liveness.remove(&vm);
        let window = self.crashes.entry(vm).or_default();
        window.retain(|&t| now.saturating_sub(t) <= timing::CRASH_WINDOW);
        window.push(now);
        let attempt = window.len();
        if attempt > CRASH_BUDGET {
            self.images.remove(&vm);
            self.pending.remove(&vm);
            return CrashDecision::BudgetExhausted;
        }
        let backoff =
            (timing::RESTART_BACKOFF_BASE << (attempt as u32 - 1)).min(timing::RESTART_BACKOFF_MAX);
        let restart = PendingRestart {
            at: now + backoff,
            attempt: attempt as u8,
        };
        self.pending.insert(vm, restart);
        CrashDecision::Restart {
            at: restart.at,
            attempt: restart.attempt,
        }
    }

    /// Pop one restart whose backoff has elapsed, if any.
    pub fn take_due_restart(&mut self, now: u64) -> Option<(VmId, u8)> {
        let vm = self
            .pending
            .iter()
            .find(|(_, p)| p.at <= now)
            .map(|(&vm, _)| vm)?;
        let p = self.pending.remove(&vm)?;
        Some((vm, p.attempt))
    }

    /// Build a fresh guest payload for `vm` from its registered image and
    /// re-arm its liveness watchdog. Returns the payload plus the spec
    /// parameters the relaunch should reuse.
    pub fn build_guest(&mut self, vm: VmId) -> Option<(GuestKind, &'static str, Priority)> {
        let image = self.images.get_mut(&vm)?;
        let guest = (image.build)();
        let (name, priority) = (image.name, image.priority);
        self.watch(vm, timing::LIVENESS_HANG_CYCLES);
        Some((guest, name, priority))
    }
}

// ---------------------------------------------------------------------------
// Fabric recovery: scrub-and-reinstate, escalation ladder
// ---------------------------------------------------------------------------

/// The DMA-staging registers replayed across retry and relocation
/// (SRC_ADDR, SRC_LEN, DST_ADDR, DST_LEN, PARAM0).
const STAGING_REGS: [usize; 5] = [
    prr_regs::SRC_ADDR,
    prr_regs::SRC_LEN,
    prr_regs::DST_ADDR,
    prr_regs::DST_LEN,
    prr_regs::PARAM0,
];

impl HwMgr {
    /// One supervision pass over the fabric, run by the manager's
    /// watchdog: settle the PCAP channel, and when it is free launch the
    /// next queued client job, or else the next due scrub.
    pub fn fabric_tick(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        sinks: &mut Sinks<'_>,
    ) {
        self.settle(m, pds, pt, sinks, true);
        if self.pcap_job.is_none() && !self.launch_queued(m, pds, sinks) {
            self.launch_next_scrub(m, pds);
        }
    }

    /// Abort the in-flight kernel transfer (a client reconfiguration needs
    /// the channel). Not counted as a scrub failure — the scrub is simply
    /// rescheduled.
    pub(crate) fn cancel_kernel_job(&mut self, m: &mut Machine) {
        let Some(job) = self.pcap_job.filter(|j| j.client().is_none()) else {
            return;
        };
        self.pcap_job = None;
        let _ = m.phys_write_u32(ctrl_reg(plregs::PCAP_CTRL), 0b10);
        // A cancelled scrub moves its region's next scrub one interval out.
        // A cancelled relocation leaves the ladder in place; its deadline
        // escalates the hung region to the software rung.
        if job.kind == PcapJobKind::Scrub {
            let at = m.now().raw() + self.scrub_interval;
            if let Some(h) = self.prrs.health_slot(job.prr) {
                h.next_scrub_at = at;
            }
        }
    }

    /// Launch the scrub of the first quarantined region that is due. The
    /// scrub bitstream is chosen to be useful: prefer the task of a
    /// degraded client that could use this region, so the reinstating pass
    /// leaves the core that client's next request needs resident.
    fn launch_next_scrub(&mut self, m: &mut Machine, pds: &BTreeMap<VmId, Pd>) {
        let now = m.now().raw();
        for prr in 0..self.prrs.len() as u8 {
            let due = matches!(
                self.prrs.entry(prr).service,
                PrrService::Quarantined(h) if now >= h.next_scrub_at
            );
            if !due {
                continue;
            }
            let preferred = self
                .shadows
                .iter()
                .filter(|s| pds.contains_key(&s.vm))
                .map(|s| s.task)
                .find(|&t| self.task_fits(t, prr));
            let task = preferred.or_else(|| {
                self.tasks
                    .ids()
                    .into_iter()
                    .find(|&t| self.task_fits(t, prr))
            });
            let Some(task) = task else {
                // No registered task fits this region: it cannot be
                // scrubbed, so stop considering it (and exempt it from the
                // "no quarantined-but-scrubbable regions" invariant).
                if let Some(h) = self.prrs.health_slot(prr) {
                    h.next_scrub_at = u64::MAX;
                }
                continue;
            };
            self.launch_pcap(m, task, prr, PcapJobKind::Scrub);
            return;
        }
    }

    /// Record a scrub's outcome in the region's health and schedule the
    /// next one: [`SCRUB_PASSES_TO_REINSTATE`] consecutive passes reinstate
    /// the region, [`SCRUB_FAILS_TO_RETIRE`] consecutive failures retire it.
    pub(crate) fn scrub_done(
        &mut self,
        m: &mut Machine,
        sinks: &mut Sinks<'_>,
        job: PcapJob,
        pass: bool,
    ) {
        let next = m.now().raw() + self.scrub_interval;
        let streak = self.prrs.health_slot(job.prr).map_or(0, |h| {
            h.next_scrub_at = next;
            if pass {
                h.passes += 1;
                h.fails = 0;
                h.passes
            } else {
                h.fails += 1;
                h.passes = 0;
                h.fails
            }
        });
        let ev = TraceEvent::PrrScrub { prr: job.prr, pass };
        sinks.note(m.now(), ev);
        if !pass {
            if streak >= SCRUB_FAILS_TO_RETIRE {
                self.prrs.entry_mut(m, job.prr).retire();
                let ev = TraceEvent::PrrRetire { prr: job.prr };
                sinks.note(m.now(), ev);
            }
            return;
        }
        if streak < SCRUB_PASSES_TO_REINSTATE {
            return;
        }

        // Reinstate: back into the first-fit pool, with the scrub task's
        // core resident.
        {
            let e = self.prrs.entry_mut(m, job.prr);
            e.reinstate();
            e.detach();
            e.task = Some(job.task);
        }
        let ev = TraceEvent::PrrReinstate { prr: job.prr };
        sinks.note(m.now(), ev);
    }

    /// Escalation-ladder entry: a region exceeded the hang watchdog with a
    /// client attached and no ladder open. Rung 1 — reset the region and
    /// retry the client's run in place.
    pub(crate) fn ladder_retry(
        &mut self,
        m: &mut Machine,
        sinks: &mut Sinks<'_>,
        prr: u8,
        now: u64,
    ) {
        let dev = Pl::prr_page(prr);
        let mut saved = [0u32; REG_COUNT];
        for (i, r) in saved.iter_mut().enumerate() {
            *r = m.phys_read_u32(dev + (i as u64) * 4).unwrap_or(0);
        }
        let _ = m.phys_write_u32(dev + 4 * prr_regs::CTRL as u64, prr_ctrl::RESET);
        for idx in STAGING_REGS {
            let _ = m.phys_write_u32(dev + 4 * idx as u64, saved[idx]);
        }
        let _ = m.phys_write_u32(
            dev + 4 * prr_regs::CTRL as u64,
            (saved[prr_regs::CTRL] & prr_ctrl::IRQ_EN) | prr_ctrl::START,
        );
        if let Some((busy_since, ladder)) = self.prrs.watch_slot(prr) {
            *busy_since = Some(now);
            *ladder = Some(Ladder {
                rung: 1,
                deadline: now + timing::LADDER_RETRY_TIMEOUT,
                saved,
            });
        }
        let ev = TraceEvent::HwTaskEscalate { prr, rung: 1 };
        sinks.note(m.now(), ev);
        let req = self.prrs.entry(prr).req;
        sinks.req_stamp(m.now(), req, req_stage::LADDER_RETRY);
    }

    /// Advance the ladder for a region whose current rung timed out.
    pub(crate) fn ladder_advance(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        sinks: &mut Sinks<'_>,
        prr: u8,
        now: u64,
    ) {
        let Some(ladder) = self.prrs.entry(prr).ladder().copied() else {
            return;
        };
        if ladder.rung == 1 {
            // Rung 2: relocate to a compatible healthy region, if one is
            // free and the PCAP channel is ours to use.
            let (client, task) = {
                let e = self.prrs.entry(prr);
                (e.client, e.task)
            };
            if let (Some(vm), Some(task)) = (client, task) {
                let hops = self.relocations.get(&(vm, task)).copied().unwrap_or(0);
                let target = (hops < MAX_RELOCATION_HOPS)
                    .then(|| {
                        (0..self.prrs.len() as u8).find(|&p| p != prr && self.free_target(task, p))
                    })
                    .flatten();
                if let Some(target) = target {
                    if self.pcap_job.is_none()
                        && self.pcap_queue.is_empty()
                        && self.prr_status(m, target) != prr_status::BUSY
                    {
                        let kind = PcapJobKind::Relocate { vm, from: prr };
                        self.launch_pcap(m, task, target, kind);
                        if let Some((_, Some(l))) = self.prrs.watch_slot(prr) {
                            l.rung = 2;
                            l.deadline = now + timing::LADDER_RELOCATE_TIMEOUT;
                        }
                        let ev = TraceEvent::HwTaskEscalate { prr, rung: 2 };
                        sinks.note(m.now(), ev);
                        let req = self.prrs.entry(prr).req;
                        sinks.req_stamp(m.now(), req, req_stage::LADDER_RELOCATE);
                        return;
                    }
                }
            }
        }
        // Rung 3 (and 4 inside): no relocation possible, or it timed out.
        if matches!(
            self.pcap_job,
            Some(PcapJob { kind: PcapJobKind::Relocate { from, .. }, .. }) if from == prr
        ) {
            self.cancel_kernel_job(m);
        }
        self.prrs.take_ladder(prr);
        self.ladder_fallback(m, pds, pt, sinks, prr);
    }

    /// Rungs 3 and 4: quarantine the region and migrate the client to a
    /// shadow page; when even that is impossible (shadow pool exhausted),
    /// hand the client an explicit device error instead of silence.
    pub(crate) fn ladder_fallback(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        sinks: &mut Sinks<'_>,
        prr: u8,
    ) {
        let ev = TraceEvent::HwTaskEscalate { prr, rung: 3 };
        sinks.note(m.now(), ev);
        let req = self.prrs.entry(prr).req;
        sinks.req_stamp(m.now(), req, req_stage::LADDER_FALLBACK);
        if self.quarantine(m, pds, pt, sinks, prr) {
            return;
        }
        // Rung 4: a client exists but could not be migrated (shadow pool
        // exhausted, task unregistered, …) and is still mapped to the
        // wedged device page. Reset the region and latch an explicit error
        // so the guest's poll loop terminates with a diagnosable code.
        let ev = TraceEvent::HwTaskEscalate { prr, rung: 4 };
        sinks.note(m.now(), ev);
        {
            // Rung 4 is terminal for the causal request: the guest gets an
            // explicit device error, never a completion vIRQ.
            let vm = self.prrs.entry(prr).client.unwrap_or(VmId(0));
            let req = self.prrs.req_slot(prr).take();
            sinks.req_stamp(m.now(), req, req_stage::LADDER_ERROR);
            sinks.end_req(m.now(), req, vm, req_stage::FAILED);
        }
        let dev = Pl::prr_page(prr);
        let _ = m.phys_write_u32(dev + 4 * prr_regs::CTRL as u64, prr_ctrl::RESET);
        let _ = m.phys_write_u32(dev + 4 * prr_regs::STATUS as u64, prr_status::ERROR);
        let _ = m.phys_write_u32(
            dev + 4 * prr_regs::PARAM0 as u64,
            prr_errcode::TASK_ABANDONED,
        );
    }

    /// A rung-2 relocation load ended. A failed load falls straight through
    /// to the software rung for the hung region. A completed one quarantines
    /// the hung source, moves the client's mapping/hwMMU/IRQ route to the
    /// target and restarts the staged run there.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn relocation_load_done(
        &mut self,
        m: &mut Machine,
        pds: &mut BTreeMap<VmId, Pd>,
        pt: &mut PtAlloc,
        sinks: &mut Sinks<'_>,
        job: PcapJob,
        vm: VmId,
        from: u8,
        pass: bool,
    ) {
        if !pass {
            self.prrs.take_ladder(from);
            self.ladder_fallback(m, pds, pt, sinks, from);
            return;
        }
        self.prrs.entry_mut(m, job.prr).task = Some(job.task);
        let Some(ladder) = self.prrs.take_ladder(from) else {
            // The ladder already resolved another way (e.g. the run
            // completed right before the load finished); the load just
            // leaves a healthy free region with the task resident.
            return;
        };
        let still_client = self.prrs.entry(from).client == Some(vm);
        let ds = pds.get(&vm).and_then(|pd| pd.data_section);
        let iface = pds
            .get(&vm)
            .and_then(|pd| pd.iface_maps.get(&job.task))
            .copied();
        if !still_client || ds.is_none() || iface.is_none() {
            // Client released or died while the load was in flight: leave
            // the target free, quarantine the hung source the plain way.
            self.ladder_fallback(m, pds, pt, sinks, from);
            return;
        }
        let (ds, (iface_va, _)) = (ds.unwrap(), iface.unwrap());
        let target = job.prr;
        *self.relocations.entry((vm, job.task)).or_insert(0) += 1;

        // The open causal request follows the client to the target region
        // (taken before the quarantine clears the source entry).
        let moved = self.prrs.req_slot(from).take();

        // The hung source goes to quarantine (and the scrubber's care) —
        // without a client migration, since the client moves to hardware.
        self.take_out_of_service(m, pds, sinks, from);
        self.prrs.entry_mut(m, from).detach();

        // Move the dispatch.
        {
            let e = self.prrs.entry_mut(m, target);
            e.client = Some(vm);
            e.task = Some(job.task);
            e.iface_va = Some(iface_va.raw());
        }
        *self.prrs.req_slot(target) = moved;
        let page = Pl::prr_page(target);
        let _ = self.map_iface(m, pds, pt, vm, job.task, iface_va, page, target);
        self.program_hwmmu(m, target, ds);
        if let Some(line) = self.irqs.retarget_prr(from, target) {
            let _ = m.phys_write_u32(ctrl_reg(plregs::IRQ_ROUTE), ((from as u32) << 8) | 0xFF);
            if let Some(li) = line.pl_index() {
                let _ = m.phys_write_u32(
                    ctrl_reg(plregs::IRQ_ROUTE),
                    ((target as u32) << 8) | li as u32,
                );
            }
        }

        // Replay the staged run on the new region.
        let dev = Pl::prr_page(target);
        for idx in STAGING_REGS {
            let _ = m.phys_write_u32(dev + 4 * idx as u64, ladder.saved[idx]);
        }
        let _ = m.phys_write_u32(
            dev + 4 * prr_regs::CTRL as u64,
            (ladder.saved[prr_regs::CTRL] & prr_ctrl::IRQ_EN) | prr_ctrl::START,
        );
    }

    /// Does `task` list `prr` among its predefined regions?
    fn task_fits(&self, task: HwTaskId, prr: u8) -> bool {
        self.tasks.get(task).is_some_and(|e| e.prrs.contains(&prr))
    }

    /// Can a relocation load target `prr` for `task`? The region must be in
    /// service with no client and no open ladder.
    fn free_target(&self, task: HwTaskId, prr: u8) -> bool {
        let e = self.prrs.entry(prr);
        e.in_service() && e.client.is_none() && e.ladder().is_none() && self.task_fits(task, prr)
    }
}

// ---------------------------------------------------------------------------
// Debug invariants
// ---------------------------------------------------------------------------

impl HwMgr {
    /// Structural invariants that must hold at any quiescent point (no VM
    /// mid-hypercall): no fabric resource may reference a missing VM, the
    /// PCAP owner is exactly the VM whose client job is in the channel and
    /// exactly the owner waits on a transfer, the FIFO waits only behind a
    /// client transfer, every client job belongs to its region's client
    /// (a queued one once per VM, never the owner's), a shadow is the only
    /// record of its dispatch, and shadow-pool accounting must balance.
    pub fn check_invariants(&self, pds: &BTreeMap<VmId, Pd>) -> Result<(), String> {
        for (i, s) in self.shadows.iter().enumerate() {
            if !pds.contains_key(&s.vm) {
                return Err(format!("shadow {i} leaked to dead vm{}", s.vm.0));
            }
            if !pds[&s.vm].iface_maps.contains_key(&s.task) {
                return Err(format!(
                    "shadow {i} (vm{} task{}) has no interface mapping",
                    s.vm.0, s.task.0
                ));
            }
            if let Some(prr) = self.prrs.find_dispatch(s.vm, s.task) {
                return Err(format!(
                    "vm{} task{} is both a shadow and dispatched on prr{prr}",
                    s.vm.0, s.task.0
                ));
            }
        }
        for line in 0..mnv_hal::IrqNum::PL_COUNT {
            if let Some((vm, prr)) = self.irqs.owner(mnv_hal::IrqNum::pl(line)) {
                if !pds.contains_key(&vm) {
                    return Err(format!(
                        "IRQ line {line} (prr{prr}) leaked to dead vm{}",
                        vm.0
                    ));
                }
            }
        }
        for prr in 0..self.prrs.len() as u8 {
            if let Some(vm) = self.prrs.entry(prr).client {
                if !pds.contains_key(&vm) {
                    return Err(format!("prr{prr} client is dead vm{}", vm.0));
                }
            }
        }
        if let Some(vm) = self.pcap_owner {
            if !pds.contains_key(&vm) {
                return Err(format!("pcap owner is dead vm{}", vm.0));
            }
        }
        let client = self.pcap_job.and_then(|j| j.client());
        if self.pcap_owner != client {
            return Err(format!(
                "pcap owner {:?} but the slot's client is {:?}",
                self.pcap_owner.map(|v| v.0),
                client.map(|v| v.0)
            ));
        }
        if client.is_none() && !self.pcap_queue.is_empty() {
            return Err("the pcap queue waits behind no client transfer".into());
        }
        for (vm, pd) in pds {
            if pd.pcap_pending.is_some() != (self.pcap_owner == Some(*vm)) {
                return Err(format!(
                    "vm{} pcap_pending {:?} but pcap owner {:?}",
                    vm.0,
                    pd.pcap_pending.map(|t| t.0),
                    self.pcap_owner.map(|v| v.0)
                ));
            }
        }
        for (i, &QueuedPcap { vm, .. }) in self.pcap_queue.iter().enumerate() {
            if !pds.contains_key(&vm) {
                return Err(format!("pcap queue slot {i} leaked to dead vm{}", vm.0));
            }
            if self.pcap_owner == Some(vm) {
                return Err(format!("vm{} is both pcap owner and queued", vm.0));
            }
            let mut later = self.pcap_queue.iter().skip(i + 1);
            if later.any(|q| q.vm == vm) {
                return Err(format!("vm{} is queued twice for the pcap", vm.0));
            }
        }
        let in_flight = self
            .pcap_job
            .and_then(|j| Some((j.task, j.prr, j.client()?)));
        let queued = self.pcap_queue.iter().map(|q| (q.task, q.prr, q.vm));
        for (task, prr, vm) in in_flight.into_iter().chain(queued) {
            let e = self.prrs.entry(prr);
            if e.client != Some(vm) || e.task != Some(task) {
                return Err(format!(
                    "client job vm{} task{} names prr{prr}, whose entry is {:?}/{:?}",
                    vm.0,
                    task.0,
                    e.client.map(|v| v.0),
                    e.task.map(|t| t.0)
                ));
            }
        }
        let live = self.shadow_pages_live();
        let free = self.shadow_pages_free();
        let carved = self.shadow_pages_carved();
        if live + free != carved {
            return Err(format!(
                "shadow pool leak: {live} live + {free} free != {carved} carved"
            ));
        }
        Ok(())
    }

    /// Convergence check for soak tests: after faults stop, the fabric must
    /// drain back to full hardware service — no open ladders and no
    /// quarantined-but-scrubbable regions. A degraded client is not the
    /// fabric's to converge: it returns to hardware at its next request
    /// (the recovery soak checks that by issuing one).
    pub fn check_converged(&self) -> Result<(), String> {
        let open = (0..self.prrs.len() as u8)
            .filter(|&p| self.prrs.entry(p).ladder().is_some())
            .count();
        if open > 0 {
            return Err(format!("{open} escalation ladder(s) still open"));
        }
        for prr in 0..self.prrs.len() as u8 {
            let quarantined = matches!(self.prrs.entry(prr).service, PrrService::Quarantined(_));
            let scrubbable = self.tasks.ids().iter().any(|&t| self.task_fits(t, prr));
            if quarantined && scrubbable {
                return Err(format!("prr{prr} is quarantined but scrubbable"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_budget_exhausts_inside_window() {
        let mut sup = Supervisor::new();
        sup.register(
            VmId(1),
            VmImage {
                name: "t",
                priority: Priority::GUEST,
                build: Box::new(|| unreachable!("never built in this test")),
            },
        );
        let mut now = 0;
        for attempt in 1..=CRASH_BUDGET {
            match sup.record_crash(VmId(1), now) {
                CrashDecision::Restart { at, attempt: a } => {
                    assert_eq!(a as usize, attempt);
                    // Backoff doubles per attempt (until the cap).
                    let expect = (timing::RESTART_BACKOFF_BASE << (attempt as u32 - 1))
                        .min(timing::RESTART_BACKOFF_MAX);
                    assert_eq!(at - now, expect);
                }
                other => panic!("expected Restart, got {other:?}"),
            }
            now += 1_000;
        }
        assert_eq!(
            sup.record_crash(VmId(1), now),
            CrashDecision::BudgetExhausted
        );
        assert!(!sup.is_supervised(VmId(1)));
        assert_eq!(
            sup.record_crash(VmId(1), now),
            CrashDecision::Unsupervised,
            "image dropped: further kills are final"
        );
    }

    #[test]
    fn crashes_outside_window_do_not_count() {
        let mut sup = Supervisor::new();
        sup.register(
            VmId(2),
            VmImage {
                name: "t",
                priority: Priority::GUEST,
                build: Box::new(|| unreachable!()),
            },
        );
        let mut now = 0;
        // Far-apart crashes never exhaust the budget.
        for _ in 0..10 {
            match sup.record_crash(VmId(2), now) {
                CrashDecision::Restart { attempt, .. } => assert_eq!(attempt, 1),
                other => panic!("expected Restart, got {other:?}"),
            }
            now += timing::CRASH_WINDOW + 1;
        }
    }

    #[test]
    fn due_restart_pops_once() {
        let mut sup = Supervisor::new();
        sup.register(
            VmId(3),
            VmImage {
                name: "t",
                priority: Priority::GUEST,
                build: Box::new(|| unreachable!()),
            },
        );
        let CrashDecision::Restart { at, .. } = sup.record_crash(VmId(3), 100) else {
            panic!("expected Restart");
        };
        assert!(sup.take_due_restart(at - 1).is_none(), "not due yet");
        assert_eq!(sup.take_due_restart(at), Some((VmId(3), 1)));
        assert!(sup.take_due_restart(u64::MAX).is_none(), "popped once");
    }

    #[test]
    fn unsupervised_vm_is_final() {
        let mut sup = Supervisor::new();
        assert_eq!(sup.record_crash(VmId(9), 0), CrashDecision::Unsupervised);
        assert!(sup.take_due_restart(u64::MAX).is_none());
    }
}
