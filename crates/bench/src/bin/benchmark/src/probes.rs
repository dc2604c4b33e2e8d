//! Layer probes for the traced run: each times one layer's unit of work in
//! isolation, on inputs shaped like the workload's traffic, for at least
//! the probe budget. A layer's estimated share of the window is then its
//! count in the window times the probe's cost.

use std::hint::black_box;
use std::time::Instant;

use mini_nova::kernel::{GuestKind, Kernel, KernelConfig, VmSpec};
use mini_nova::mirguest::MirGuest;
use mnv_arm::cache::{CacheHierarchy, MemAccessKind};
use mnv_arm::machine::Machine;
use mnv_arm::mir::{Cond, ProgramBuilder};
use mnv_fpga::bitstream::{Bitstream, CoreKind};
use mnv_fpga::cores::make_core;
use mnv_fpga::fabric::FabricConfig;
use mnv_fpga::pl::{pcap_status, plregs, Pl, PlConfig, PL_GP_BASE};
use mnv_hal::abi::Hypercall;
use mnv_hal::{Cycles, PhysAddr, Priority};
use mnv_workloads::adpcm::{adpcm_encode, AdpcmState};
use mnv_workloads::gsm::{GsmEncoder, GSM_FRAME_SAMPLES};
use mnv_workloads::signal::{Lcg, Signal};

use crate::spans::Recorder;

/// Host cost of one unit of each probed layer's work.
#[derive(Clone, Copy, Debug)]
pub struct Probes {
    pub cache_access_ns: f64,
    pub svc_roundtrip_ns: f64,
    pub pcap_transfer_us: f64,
    pub qam_ns: f64,
    pub fft_ns: f64,
    pub gsm_frame_ns: f64,
    pub adpcm_block_ns: f64,
}

/// Repeat `batch` (which returns the units of work it did) until `min_s`
/// host seconds have passed; returns host ns per unit.
fn per_unit_ns(min_s: f64, mut batch: impl FnMut() -> u64) -> f64 {
    let t0 = Instant::now();
    let mut units = 0u64;
    loop {
        units += batch();
        let s = t0.elapsed().as_secs_f64();
        if s >= min_s {
            return s * 1e9 / units.max(1) as f64;
        }
    }
}

/// Run every probe; `miss_ratio` is the share of the workload's cache-model
/// accesses that missed L1.
pub fn run(miss_ratio: f64, min_s: f64, rec: &mut Recorder) -> Probes {
    Probes {
        cache_access_ns: rec.span("probe:cache", |_| cache_access_ns(miss_ratio, min_s)),
        svc_roundtrip_ns: rec.span("probe:svc", |_| svc_roundtrip_ns(min_s)),
        pcap_transfer_us: rec.span("probe:pcap", |_| pcap_transfer_us(min_s)),
        qam_ns: rec.span("probe:qam", |_| {
            core_ns(CoreKind::Qam { bits_per_symbol: 4 }, 256, min_s)
        }),
        fft_ns: rec.span("probe:fft", |_| {
            core_ns(CoreKind::Fft { log2_points: 10 }, 1024 * 8, min_s)
        }),
        gsm_frame_ns: rec.span("probe:gsm", |_| gsm_frame_ns(min_s)),
        adpcm_block_ns: rec.span("probe:adpcm", |_| adpcm_block_ns(min_s)),
    }
}

/// One cache-model access, fetches and reads alternating, missing L1 at
/// the workload's rate: a miss goes to a random line of a span far larger
/// than the caches, a hit to a small hot set.
fn cache_access_ns(miss_ratio: f64, min_s: f64) -> f64 {
    const HOT: u64 = 0x0400_0000;
    const HOT_SPAN: u64 = 4 << 10;
    const COLD: u64 = 0x0800_0000;
    const COLD_SPAN: u64 = 64 << 20;
    let threshold = (miss_ratio.clamp(0.0, 1.0) * u32::MAX as f64) as u64;
    let mut caches = CacheHierarchy::new();
    let (mut rng, mut hot) = (0x2545_F491_4F6C_DD1Du64, 0u64);
    per_unit_ns(min_s, || {
        for i in 0..4096 {
            rng = rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let pa = if rng >> 32 < threshold {
                COLD + (((rng >> 8) % COLD_SPAN) & !31)
            } else {
                hot = (hot + 32) % HOT_SPAN;
                HOT + hot
            };
            let kind = if i % 2 == 0 {
                MemAccessKind::Fetch
            } else {
                MemAccessKind::Read
            };
            black_box(caches.access(PhysAddr::new(pa), kind, false));
        }
        4096
    })
}

/// One `VmInfo` hypercall round trip from a 1-VM MIR kernel: trap, portal
/// dispatch, return.
fn svc_roundtrip_ns(min_s: f64) -> f64 {
    let mut b = ProgramBuilder::new();
    let top = b.label();
    b.bind(top);
    b.mov(0, 0);
    b.mov(1, 0);
    b.svc(Hypercall::VmInfo.nr());
    b.branch(Cond::Al, top);
    let mut k = Kernel::new(KernelConfig::default());
    k.create_vm(VmSpec {
        name: "svc-probe",
        priority: Priority::GUEST,
        guest: GuestKind::Mir(Box::new(MirGuest::new(
            b.assemble(mnv_ucos::layout::CODE_BASE.raw()),
        ))),
    });
    per_unit_ns(min_s, || {
        let before = k.state.stats.hypercalls_total;
        k.run(Cycles::from_millis(5.0));
        k.state.stats.hypercalls_total - before
    })
}

/// One FFT-8192 bitstream download through the PCAP of a bare machine,
/// polled to completion.
fn pcap_transfer_us(min_s: f64) -> f64 {
    let mut m = Machine::default();
    m.add_peripheral(Box::new(Pl::new(PlConfig::default())));
    let core = CoreKind::Fft { log2_points: 13 };
    let compat = FabricConfig::paper_fabric().compatible_prrs(core);
    let bytes = Bitstream::for_core(core, &compat).encode();
    let src = 0x0100_0000u64;
    m.load_bytes(PhysAddr::new(src), &bytes)
        .expect("bitstream store is RAM");
    let reg = |off| PhysAddr::new(PL_GP_BASE + off);
    1e-3 * per_unit_ns(min_s, || {
        let w = |m: &mut Machine, off, v| m.phys_write_u32(reg(off), v).expect("PL register");
        w(&mut m, plregs::PCAP_SRC, src as u32);
        w(&mut m, plregs::PCAP_LEN, bytes.len() as u32);
        w(&mut m, plregs::PCAP_TARGET, compat[0] as u32);
        w(&mut m, plregs::PCAP_CTRL, 1);
        while m
            .phys_read_u32(reg(plregs::PCAP_STATUS))
            .expect("PL register")
            == pcap_status::BUSY
        {
            m.charge(2_000);
            m.sync_devices();
        }
        1
    })
}

/// One accelerator `process` call on `input_len` bytes.
fn core_ns(kind: CoreKind, input_len: usize, min_s: f64) -> f64 {
    let core = make_core(kind);
    let mut input = vec![0u8; input_len];
    Lcg::new(input_len as u64).fill_bytes(&mut input);
    per_unit_ns(min_s, || {
        black_box(core.process(black_box(&input)));
        1
    })
}

/// One 160-sample GSM frame encode (the guest's GSM task body).
fn gsm_frame_ns(min_s: f64) -> f64 {
    let pcm = Signal::speech_like(GSM_FRAME_SAMPLES * 50, 11);
    let mut enc = GsmEncoder::new();
    let mut frames = pcm.chunks_exact(GSM_FRAME_SAMPLES).cycle();
    per_unit_ns(min_s, || {
        black_box(enc.encode_frame(frames.next().expect("cycled")));
        1
    })
}

/// One 160-sample ADPCM block (the guest's ADPCM task body).
fn adpcm_block_ns(min_s: f64) -> f64 {
    let pcm = Signal::speech_like(160 * 50, 11);
    let mut state = AdpcmState::default();
    let mut blocks = pcm.chunks_exact(160).cycle();
    per_unit_ns(min_s, || {
        black_box(adpcm_encode(&mut state, blocks.next().expect("cycled")));
        1
    })
}
