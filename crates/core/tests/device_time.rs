//! Device time on demand against eager device time, through the kernel.
//!
//! The machine advances its devices only when the device deadline passes
//! or something reads or reprograms them (DESIGN "Device time on
//! demand"). [`EagerSync`] attached to a machine makes every sync advance
//! every device again, so a kernel carrying it is the eager oracle. Over
//! seeded schedules of runs, PCAP transfers and PRR runs (the guests'
//! hardware tasks), timer programming and MMIO reads of `PERF_CYCLES`,
//! `PCAP_STATUS` and the timer counter, with the chaos fault plane armed
//! and then disarmed, the two kernels must agree after every step: clock,
//! GIC lines, every PL register and busy count read through
//! [`Kernel::pl`], the metrics, the fault record and the trace.

mod common;

use common::chaos_kernel;
use mini_nova::mirguest::MirGuest;
use mini_nova::{GuestKind, Kernel, VmSpec};
use mnv_arm::bus::EagerSync;
use mnv_arm::machine::PTIMER_BASE;
use mnv_arm::mir::{AluOp, Cond, ProgramBuilder};
use mnv_fpga::pl::{plregs, PL_GP_BASE};
use mnv_fpga::prr::{regs, ExecState};
use mnv_hal::{Cycles, IrqNum, PhysAddr, Priority};
use mnv_trace::Tracer;

/// Chaos seed `seed`'s two hardware-task guests plus a MIR guest (the
/// block executor under the armed plane), traced, metered and profiled.
fn system(seed: u64) -> (Kernel, Tracer, mnv_fault::FaultPlane) {
    let (mut k, plane) = chaos_kernel(seed);
    let mut b = ProgramBuilder::new();
    b.mov(4, 0x0030_0000);
    let top = b.label();
    b.bind(top);
    b.alu_imm(AluOp::Add, 0, 0, 1);
    b.str(0, 4, 0);
    b.ldr(1, 4, 0);
    b.compute(200);
    b.branch(Cond::Al, top);
    k.create_vm(VmSpec {
        name: "mir",
        priority: Priority::GUEST,
        guest: GuestKind::Mir(Box::new(MirGuest::new(
            b.assemble(mnv_ucos::layout::CODE_BASE.raw()),
        ))),
    });
    let tracer = k.enable_tracing(1 << 20);
    k.enable_metrics();
    k.enable_profiling(mnv_profile::DEFAULT_PERIOD);
    (k, tracer, plane)
}

/// `json` without its block-cache series: how many instructions the
/// executor batched is host bookkeeping, and an eager machine batches none
/// (its device deadline is always due).
fn without_bcache(json: &str) -> String {
    let mut out = json.to_string();
    while let Some(i) = out.find("\"bcache_") {
        let end = i + out[i..].find('}').expect("a series object") + 1;
        let end = end + usize::from(out[end..].starts_with(','));
        out.replace_range(i..end, "");
    }
    out
}

/// What the kernel hands out between runs.
fn observe(k: &Kernel, tracer: &Tracer, plane: &mnv_fault::FaultPlane) -> String {
    let pl = k.pl();
    let prrs: Vec<String> = (0..pl.num_prrs() as u8)
        .map(|p| {
            let r = pl.prr(p);
            format!(
                "{:?} {:?} busy={} runs={}",
                r.regs.r, r.state, r.busy_cycles, r.runs
            )
        })
        .collect();
    let gic: Vec<(bool, bool, bool)> = (0..96)
        .map(|i| {
            let l = IrqNum(i);
            let g = &k.machine.gic;
            (g.is_pending(l), g.is_enabled(l), g.is_active(l))
        })
        .collect();
    format!(
        "{:?} prrs={prrs:?} pcap={:?} transfers={} checks={} gic={gic:?} stats={:?} \
         metrics={} faults={:?} events={} dump={:?}",
        k.machine.now(),
        pl.pcap_engine(),
        pl.pcap_transfers(),
        pl.pcap_crc_checks(),
        k.state.stats,
        without_bcache(&k.metrics().to_json().to_string()),
        plane.records(),
        tracer.snapshot().len(),
        k.state.profiler.last_dump().map(|d| without_bcache(&d)),
    )
}

#[test]
fn lazy_device_time_matches_eager_sync_through_the_kernel() {
    for seed in [11u64, 227, 3] {
        let (mut lazy, lazy_trace, lazy_plane) = system(seed);
        let (mut eager, eager_trace, eager_plane) = system(seed);
        eager.machine.add_peripheral(Box::new(EagerSync));
        let mut rng = seed;
        let mut next = move |n: u64| {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (rng >> 33) % n
        };
        let mut mid_run = 0;
        for step in 0..120 {
            let op = next(8);
            let arg = next(1 << 20);
            let mut reads = Vec::new();
            for (k, plane) in [(&mut lazy, &lazy_plane), (&mut eager, &eager_plane)] {
                let m = &mut k.machine;
                match op {
                    0..=3 => k.run(Cycles::new(200_000 + arg * 4)),
                    4 => {
                        // Run in short steps until a region is mid-run,
                        // let time pass unsynced, then read the counters
                        // that move with it.
                        let running = |k: &Kernel| {
                            (0..4).any(|p| {
                                matches!(
                                    k.pl().prr(p).state,
                                    ExecState::Fetching { .. }
                                        | ExecState::Computing { .. }
                                        | ExecState::Writing { .. }
                                )
                            })
                        };
                        let mut steps = 0u32;
                        while steps < 400 && !running(k) {
                            k.run(Cycles::new(3_000));
                            steps += 1;
                        }
                        mid_run += u32::from(running(k));
                        let m = &mut k.machine;
                        m.charge(700 + arg % 2_000);
                        reads.push(Ok(steps));
                        for p in 0..4 {
                            let page = PhysAddr::new(PL_GP_BASE + 0x1000 * (1 + p));
                            reads.push(m.phys_read_u32(page + 4 * regs::PERF_CYCLES as u64));
                        }
                        let status = PhysAddr::new(PL_GP_BASE + plregs::PCAP_STATUS);
                        reads.push(m.phys_read_u32(status));
                        reads.push(m.phys_read_u32(PhysAddr::new(PTIMER_BASE + 4)));
                        m.settle_devices();
                    }
                    5 => {
                        // Timer programming through its window; its line
                        // stays masked, so only the GIC's pending bit and
                        // the registers show it.
                        let t = PhysAddr::new(PTIMER_BASE);
                        m.phys_write_u32(t, 5_000 + arg as u32).unwrap();
                        m.phys_write_u32(t + 8, 0b111).unwrap();
                        m.settle_devices();
                    }
                    6 if step > 60 => plane.disarm(),
                    _ => {
                        m.charge(arg % 50_000);
                        m.sync_devices();
                        m.settle_devices();
                    }
                }
            }
            let (a, b) = reads.split_at(reads.len() / 2);
            assert_eq!(a, b, "seed {seed} step {step}: MMIO reads");
            assert_eq!(
                observe(&lazy, &lazy_trace, &lazy_plane),
                observe(&eager, &eager_trace, &eager_plane),
                "seed {seed} step {step} op {op}"
            );
        }
        assert_eq!(
            lazy_trace.snapshot(),
            eager_trace.snapshot(),
            "seed {seed}: trace"
        );
        let pl = lazy.pl();
        let busy: u64 = (0..pl.num_prrs() as u8)
            .map(|p| pl.prr(p).busy_cycles)
            .sum();
        assert!(
            busy > 0 && pl.pcap_transfers() > 0,
            "seed {seed}: the PL never ran"
        );
        assert!(
            !lazy_plane.records().is_empty(),
            "seed {seed}: no fault fired"
        );
        assert!(
            lazy_plane.is_disarmed(),
            "seed {seed}: the plane was never disarmed"
        );
        assert!(mid_run > 0, "seed {seed}: no read caught a region mid-run");
    }
}
