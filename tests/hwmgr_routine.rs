//! The six-stage Hardware Task Manager routine of Fig. 7, walked through
//! step by step via direct hypercall issue, including the Busy path of
//! stage 2 and the reclaim bookkeeping between stages 2 and 3.

use mini_nova::hypercall::hypercall;
use mini_nova_repro::prelude::*;
use mnv_hal::abi::{data_section, HcError};
use mnv_ucos::tasks::THwStats;
use std::cell::Cell;
use std::rc::Rc;

/// Issue a hypercall from `vm` as if it trapped from that guest.
fn hc(k: &mut Kernel, vm: VmId, args: HypercallArgs) -> Result<u32, HcError> {
    let (m, s) = (&mut k.machine, &mut k.state);
    hypercall(m, s, vm, args)
}

fn request(k: &mut Kernel, vm: VmId, task: HwTaskId, slot: u64) -> Result<u32, HcError> {
    hc(
        k,
        vm,
        HypercallArgs::new(Hypercall::HwTaskRequest)
            .a0(task.0 as u32)
            .a1(guest_layout::hwiface_slot(slot).raw() as u32)
            .a2(guest_layout::HWDATA_BASE.raw() as u32),
    )
}

fn wait_pcap(k: &mut Kernel, vm: VmId) {
    for _ in 0..100_000 {
        if hc(k, vm, HypercallArgs::new(Hypercall::PcapPoll)) == Ok(1) {
            return;
        }
        k.machine.charge(2_000);
        k.machine.sync_devices();
    }
    panic!("PCAP never completed");
}

/// Build a kernel with two idle guest VMs (their OSes never run — the test
/// drives the manager directly through the hypercall interface).
fn setup() -> (Kernel, Vec<HwTaskId>, VmId, VmId) {
    let mut k = Kernel::new(KernelConfig::default());
    let ids = k.register_paper_task_set();
    let v1 = k.create_vm(VmSpec {
        name: "vm1",
        priority: Priority::GUEST,
        guest: GuestKind::Ucos(Box::new(Ucos::new(UcosConfig::default()))),
    });
    let v2 = k.create_vm(VmSpec {
        name: "vm2",
        priority: Priority::GUEST,
        guest: GuestKind::Ucos(Box::new(Ucos::new(UcosConfig::default()))),
    });
    (k, ids, v1, v2)
}

#[test]
fn six_stage_routine_first_dispatch() {
    let (mut k, ids, v1, _) = setup();
    let fft512 = ids[1];

    // Stage 1: the hypercall reaches the manager (entry measured).
    let r = request(&mut k, v1, fft512, 0).unwrap();
    let status = HwTaskStatus::from_u32(r & 0xFF).unwrap();
    // Stage 5/6: first-ever dispatch must reconfigure and return without
    // waiting for the PCAP.
    assert_eq!(status, HwTaskStatus::Reconfiguring);
    assert_eq!(k.state.stats.hwmgr.invocations, 1);
    assert_eq!(k.state.stats.hwmgr.reconfigs, 1);

    // Stage 2 outcome: a PRR from the task's predefined list was selected.
    let prr = ((r >> 8) & 0xFF) as u8;
    assert!(prr <= 1, "FFT tasks only fit PRR0/PRR1, got PRR{prr}");
    let e = k.state.hwmgr.prrs.entry(prr);
    assert_eq!(e.client, Some(v1));
    assert_eq!(e.task, Some(fft512));

    // Stage 3: the interface page is mapped into VM1's table at the
    // requested VA (checked by walking the real page table).
    let l1 = k.state.pds[&v1].l1;
    let walked = mini_nova::mem::pagetable::walk(&mut k.machine, l1, guest_layout::hwiface_slot(0));
    assert_eq!(
        walked,
        Some(mnv_fpga::pl::Pl::prr_page(prr)),
        "interface VA must map to the PRR register page"
    );

    // Stage 4: the hwMMU window covers exactly the VM's data section.
    let w = k.pl().hwmmu().window(prr);
    let ds = k.pd(v1).data_section.unwrap();
    assert_eq!(w.base, ds.pa.raw());
    assert_eq!(w.len, ds.len);

    // PCAP completion is observable by polling (stage 6's deferred check).
    wait_pcap(&mut k, v1);
    assert_eq!(
        k.pl().prr(prr).loaded_kind(),
        Some(CoreKind::Fft { log2_points: 9 })
    );
}

#[test]
fn resident_task_fast_path_returns_success() {
    let (mut k, ids, v1, _) = setup();
    let qam = ids[6];
    let r1 = request(&mut k, v1, qam, 0).unwrap();
    assert_eq!(
        HwTaskStatus::from_u32(r1 & 0xFF),
        Some(HwTaskStatus::Reconfiguring)
    );
    wait_pcap(&mut k, v1);
    // Second request by the same client: no reconfiguration, no new PCAP.
    let transfers = k.pl().pcap_transfers();
    let r2 = request(&mut k, v1, qam, 0).unwrap();
    assert_eq!(
        HwTaskStatus::from_u32(r2 & 0xFF),
        Some(HwTaskStatus::Success)
    );
    assert_eq!(k.pl().pcap_transfers(), transfers);
}

#[test]
fn busy_when_all_suitable_prrs_are_occupied() {
    let (mut k, ids, v1, v2) = setup();
    // Dispatch two FFT-8192 tasks to VM1 (they occupy both large PRRs)
    // and let both reconfigurations finish first.
    let mut prrs = Vec::new();
    for (slot, task) in [(0u64, ids[5]), (1, ids[4])] {
        let r = request(&mut k, v1, task, slot).unwrap();
        prrs.push(((r >> 8) & 0xFF) as u8);
        wait_pcap(&mut k, v1);
    }
    // Start long-running jobs on both regions back to back so they are
    // BUSY at the device level when VM2 asks.
    let ds = k.pd(v1).data_section.unwrap();
    for &prr in &prrs {
        let page = mnv_fpga::pl::Pl::prr_page(prr);
        k.machine
            .phys_write_u32(
                page + 4 * mnv_fpga::prr::regs::SRC_ADDR as u64,
                ds.pa.raw() as u32,
            )
            .unwrap();
        k.machine
            .phys_write_u32(page + 4 * mnv_fpga::prr::regs::SRC_LEN as u64, 0x10000)
            .unwrap();
        k.machine
            .phys_write_u32(
                page + 4 * mnv_fpga::prr::regs::DST_ADDR as u64,
                (ds.pa.raw() + 0x10000) as u32,
            )
            .unwrap();
        k.machine
            .phys_write_u32(page + 4 * mnv_fpga::prr::regs::DST_LEN as u64, 0x10000)
            .unwrap();
        k.machine
            .phys_write_u32(
                page + 4 * mnv_fpga::prr::regs::CTRL as u64,
                mnv_fpga::prr::ctrl::START,
            )
            .unwrap();
        assert_eq!(
            k.machine
                .phys_read_u32(page + 4 * mnv_fpga::prr::regs::STATUS as u64)
                .unwrap(),
            mnv_fpga::prr::status::BUSY
        );
    }
    // VM2 wants an FFT now: every suitable PRR is busy -> Busy status
    // (Fig. 7 stage 2's refusal path).
    let e = request(&mut k, v2, ids[2], 0).unwrap_err();
    assert_eq!(e, HcError::Busy);
    assert_eq!(k.state.stats.hwmgr.busy, 1);
}

#[test]
fn reclaim_saves_registers_demaps_and_flags_inconsistent() {
    let (mut k, ids, v1, v2) = setup();
    let fft = ids[0];
    // VM1 acquires and the device sits idle afterwards.
    let r1 = request(&mut k, v1, fft, 0).unwrap();
    let prr = ((r1 >> 8) & 0xFF) as u8;
    wait_pcap(&mut k, v1);
    // Leave a recognisable value in a device register.
    let page = mnv_fpga::pl::Pl::prr_page(prr);
    k.machine
        .phys_write_u32(page + 4 * mnv_fpga::prr::regs::PARAM0 as u64, 0x7E57)
        .unwrap();

    // VM1 also occupies the *other* FFT PRR so VM2's request must reclaim
    // VM1's first region (otherwise the manager would just take the empty
    // one).
    let r_other = request(&mut k, v1, ids[1], 1).unwrap();
    wait_pcap(&mut k, v1);
    let other_prr = ((r_other >> 8) & 0xFF) as u8;
    assert_ne!(prr, other_prr);

    // VM2 requests a third FFT: both PRRs idle but owned -> reclaim.
    let before = k.state.stats.hwmgr.reclaims;
    let r2 = request(&mut k, v2, ids[2], 0).unwrap();
    assert_eq!(
        HwTaskStatus::from_u32(r2 & 0xFF),
        Some(HwTaskStatus::Reconfiguring)
    );
    assert_eq!(k.state.stats.hwmgr.reclaims, before + 1);

    let victim_prr = ((r2 >> 8) & 0xFF) as u8;
    // Fig. 5: the victim's data section now holds the saved registers and
    // the inconsistency flag.
    let ds1 = k.pd(v1).data_section.unwrap();
    let flag = k
        .machine
        .mem
        .read_u32(ds1.pa + data_section::STATE_FLAG)
        .unwrap();
    assert_eq!(HwTaskState::from_u32(flag), Some(HwTaskState::Inconsistent));
    if victim_prr == prr {
        let saved = k
            .machine
            .mem
            .read_u32(ds1.pa + data_section::SAVED_REGS + 4 * mnv_fpga::prr::regs::PARAM0 as u64)
            .unwrap();
        assert_eq!(saved, 0x7E57, "interface registers must be saved");
    }

    // §IV-E's second acknowledgement: VM1's interface page is demapped, so
    // a page-table walk now fails.
    let victim_slot = if victim_prr == prr { 0 } else { 1 };
    let l1 = k.state.pds[&v1].l1;
    let walked = mini_nova::mem::pagetable::walk(
        &mut k.machine,
        l1,
        guest_layout::hwiface_slot(victim_slot),
    );
    assert_eq!(walked, None, "victim interface must be demapped");

    // The HwTaskQuery hypercall reports the inconsistency too.
    let q = hc(
        &mut k,
        v1,
        HypercallArgs::new(Hypercall::HwTaskQuery).a0(if victim_prr == prr {
            fft.0 as u32
        } else {
            ids[1].0 as u32
        }),
    )
    .unwrap();
    assert_eq!(HwTaskState::from_u32(q), Some(HwTaskState::Inconsistent));
}

#[test]
fn unknown_task_is_not_found_and_costs_no_reconfig() {
    let (mut k, _ids, v1, _) = setup();
    let e = request(&mut k, v1, HwTaskId(999), 0).unwrap_err();
    assert_eq!(e, HcError::NotFound);
    assert_eq!(k.state.stats.hwmgr.reconfigs, 0);
    assert_eq!(k.pl().pcap_transfers(), 0);
}

#[test]
fn misaligned_interface_va_rejected() {
    let (mut k, ids, v1, _) = setup();
    let e = hc(
        &mut k,
        v1,
        HypercallArgs::new(Hypercall::HwTaskRequest)
            .a0(ids[6].0 as u32)
            .a1(guest_layout::hwiface_slot(0).raw() as u32 + 4)
            .a2(guest_layout::HWDATA_BASE.raw() as u32),
    )
    .unwrap_err();
    assert_eq!(e, HcError::BadArg);
}

#[test]
fn manager_phases_are_measured_for_every_request() {
    let (mut k, ids, v1, _) = setup();
    for (i, &t) in ids.iter().take(4).enumerate() {
        let _ = request(&mut k, v1, t, i as u64 % 4);
        wait_pcap(&mut k, v1);
    }
    let h = &k.state.stats.hwmgr;
    assert_eq!(h.entry.samples, 4);
    assert_eq!(h.exec.samples, 4);
    assert_eq!(h.exit.samples, 4);
    assert!(h.entry.mean_cycles() > 0.0);
    assert!(
        h.exec.mean_cycles() > h.entry.mean_cycles(),
        "execution dominates"
    );
}

/// Forwards to a [`THwTask`] and publishes its statistics after every step,
/// so the test can read them while the task lives inside its guest.
struct ThwProbe {
    inner: THwTask,
    out: Rc<Cell<THwStats>>,
}

impl GuestTask for ThwProbe {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> TaskAction {
        let action = self.inner.step(ctx);
        self.out.set(self.inner.stats);
        action
    }
}

#[test]
fn every_requester_is_served_with_four_guests() {
    // §V-B's setup: four guests, each running T_hw + GSM + ADPCM over the
    // paper task set, 4 ms quantum. Every stage-5 launch used to take the
    // one PCAP slot from the client before it, which then polled forever;
    // with the channel's FIFO every requester keeps completing runs.
    const GUESTS: u64 = 4;
    for seed in [11u64, 227] {
        let mut k = Kernel::new(KernelConfig {
            quantum: Cycles::from_millis(4.0),
            ..Default::default()
        });
        let ids = k.register_paper_task_set();
        let probes: Vec<Rc<Cell<THwStats>>> = (0..GUESTS)
            .map(|i| {
                let guest_seed = seed + i * 7919;
                let out = Rc::new(Cell::new(THwStats::default()));
                let mut os = Ucos::new(UcosConfig::default());
                let inner = THwTask::new(ids.clone(), guest_seed);
                let probe = ThwProbe {
                    inner,
                    out: out.clone(),
                };
                os.task_create(8, Box::new(probe));
                os.task_create(12, Box::new(GsmTask::new(guest_seed, 1)));
                os.task_create(20, Box::new(AdpcmTask::new(guest_seed + 99)));
                k.create_vm(VmSpec {
                    name: "guest",
                    priority: Priority::GUEST,
                    guest: GuestKind::Ucos(Box::new(os)),
                });
                out
            })
            .collect();
        k.run(Cycles::from_millis(40.0 * GUESTS as f64)); // warm-up
        let mut last: Vec<u64> = probes.iter().map(|p| p.get().completions).collect();
        for slice in 0..4 {
            k.run(Cycles::from_millis(100.0));
            k.check_recovery_invariants()
                .unwrap_or_else(|e| panic!("seed {seed} slice {slice}: {e}"));
            let now: Vec<u64> = probes.iter().map(|p| p.get().completions).collect();
            for (g, (a, b)) in last.iter().zip(&now).enumerate() {
                assert!(
                    b > a,
                    "seed {seed} slice {slice}: guest {g} completed nothing \
                     ({a} -> {b}; all guests {last:?} -> {now:?})"
                );
            }
            last = now;
        }
    }
}
