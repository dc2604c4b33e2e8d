//! The paper guests' GSM frames stay exact when a capture buffer changes
//! under them. Four paper guests run; a bit of one guest's staged PCM is
//! flipped in physical memory between two `Kernel::run` calls, and every
//! frame each guest encodes after that must equal what a plain
//! `GsmEncoder` fed the frames that guest read writes. `GsmTask` encodes through
//! `GsmLoopEncoder`, whose worker encodes the unflipped loop ahead, so
//! the flipped guest's bytes are right only if the frame read from guest
//! memory is checked against the loop before the worker's bytes are used.

use mini_nova::{GuestKind, Kernel, KernelConfig, VmSpec};
use mnv_hal::{Cycles, Priority, VirtAddr, VmId};
use mnv_ucos::kernel::{Ucos, UcosConfig};
use mnv_ucos::layout::{WORK_BASE, WORK_LEN};
use mnv_ucos::tasks::{AdpcmTask, GsmTask, THwTask};
use mnv_workloads::gsm::{GsmEncoder, GSM_FRAME_BYTES, GSM_FRAME_SAMPLES};

const GSM_PRIO: u8 = 12;
/// Frames in each guest's loop: a 1-s utterance.
const LOOP: usize = 50;
const FRAME_LEN: usize = GSM_FRAME_SAMPLES * 2;

/// Bytes at guest VA `va` of `vm`, read from physical memory.
fn guest_bytes(k: &Kernel, vm: VmId, va: u64, len: usize) -> Vec<u8> {
    let pa = k.pd(vm).guest_pa(VirtAddr::new(va)).expect("inside the VM");
    let mut buf = vec![0; len];
    k.machine.mem.read(pa, &mut buf).expect("guest RAM");
    buf
}

/// The loop frames staged in `vm`'s capture buffer.
fn capture(k: &Kernel, vm: VmId) -> Vec<[i16; GSM_FRAME_SAMPLES]> {
    let bytes = guest_bytes(k, vm, WORK_BASE.raw(), LOOP * FRAME_LEN);
    bytes
        .chunks_exact(FRAME_LEN)
        .map(|f| std::array::from_fn(|i| i16::from_le_bytes([f[2 * i], f[2 * i + 1]])))
        .collect()
}

/// Frames `vm`'s GSM task has encoded (its first step stages the PCM).
fn frames_encoded(k: &mut Kernel, vm: VmId) -> usize {
    match k.guest_mut(vm) {
        Some(GuestKind::Ucos(os)) => os.task_steps(GSM_PRIO).saturating_sub(1) as usize,
        _ => panic!("a uC/OS guest"),
    }
}

#[test]
fn a_flipped_capture_buffer_keeps_every_guests_frames_exact() {
    let mut k = Kernel::new(KernelConfig {
        quantum: Cycles::from_millis(4.0),
        ..Default::default()
    });
    let ids = k.register_paper_task_set();
    let vms: Vec<VmId> = (0..4u64)
        .map(|i| {
            let seed = 11 + i * 7919;
            let mut os = Ucos::new(UcosConfig::default());
            os.task_create(8, Box::new(THwTask::new(ids.clone(), seed)));
            os.task_create(GSM_PRIO, Box::new(GsmTask::new(seed, 1)));
            os.task_create(20, Box::new(AdpcmTask::new(seed + 99)));
            k.create_vm(VmSpec {
                name: "guest",
                priority: Priority::GUEST,
                guest: GuestKind::Ucos(Box::new(os)),
            })
        })
        .collect();
    k.run(Cycles::from_millis(60.0));
    let read_before: Vec<_> = vms.iter().map(|&vm| capture(&k, vm)).collect();
    let flipped_at: Vec<_> = vms.iter().map(|&vm| frames_encoded(&mut k, vm)).collect();
    assert!(flipped_at.iter().all(|&n| n > 0), "GSM ran: {flipped_at:?}");
    // Per guest, a plain encoder fed the frames the guest has read.
    let mut plain: Vec<GsmEncoder> = (0..vms.len()).map(|_| GsmEncoder::new()).collect();
    for (g, enc) in plain.iter_mut().enumerate() {
        for n in 0..flipped_at[g] {
            enc.encode_frame(&read_before[g][n % LOOP]);
        }
    }

    // One bit of guest 2's frame 7, behind the guest's back.
    let flipped = vms[1];
    let at = WORK_BASE.raw() + 7 * FRAME_LEN as u64 + 35;
    let pa = k.pd(flipped).guest_pa(VirtAddr::new(at)).unwrap();
    let mut byte = [0u8];
    k.machine.mem.read(pa, &mut byte).unwrap();
    k.machine.mem.write(pa, &[byte[0] ^ 0x10]).unwrap();
    let read_after: Vec<_> = vms.iter().map(|&vm| capture(&k, vm)).collect();
    for (g, &vm) in vms.iter().enumerate() {
        assert_eq!(read_after[g] != read_before[g], vm == flipped, "guest {g}");
    }

    // Run on in slices short enough that no guest encodes a loop's worth
    // of frames in one, so every frame encoded since the flip is still in
    // its slot of the output area when the slice ends.
    let out = WORK_BASE.raw() + WORK_LEN / 2;
    let mut checked = flipped_at.clone();
    for _ in 0..120 {
        k.run(Cycles::from_millis(1.0));
        for (g, &vm) in vms.iter().enumerate() {
            let total = frames_encoded(&mut k, vm);
            assert!(total - checked[g] < LOOP, "guest {g}: slice too long");
            let got = guest_bytes(&k, vm, out, LOOP * GSM_FRAME_BYTES);
            for n in checked[g]..total {
                let want = plain[g].encode_frame(&read_after[g][n % LOOP]);
                let slot = n % LOOP * GSM_FRAME_BYTES;
                assert_eq!(
                    &got[slot..][..GSM_FRAME_BYTES],
                    want,
                    "guest {g}, frame {n}"
                );
            }
            checked[g] = total;
        }
    }
    assert!(
        checked[1] > flipped_at[1] + LOOP,
        "guest 2 did not read frame 7 again"
    );
}
