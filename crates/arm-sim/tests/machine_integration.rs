//! Machine-level integration tests: peripheral window rules, block
//! transfers, idle waiting, trap tracing and interpreter/device interplay.

use mnv_arm::bus::{PeriphCtx, Peripheral};
use mnv_arm::machine::{Machine, GIC_BASE, PTIMER_BASE};
use mnv_arm::mir::ProgramBuilder;
use mnv_arm::psr::Psr;
use mnv_hal::{Cycles, IrqNum, PhysAddr};
use mnv_trace::{TraceEvent, Tracer, TrapKind};
use std::any::Any;

struct Dummy {
    base: u64,
    len: u64,
    raises: bool,
    reg: u32,
}

impl Peripheral for Dummy {
    fn window(&self) -> (PhysAddr, u64) {
        (PhysAddr::new(self.base), self.len)
    }
    fn read32(&mut self, off: u64, _ctx: &mut PeriphCtx<'_>) -> u32 {
        if off == 0 {
            self.reg
        } else {
            0xDEAD
        }
    }
    fn write32(&mut self, off: u64, val: u32, _ctx: &mut PeriphCtx<'_>) {
        if off == 0 {
            self.reg = val;
        }
    }
    fn advance(&mut self, _dt: Cycles, ctx: &mut PeriphCtx<'_>) {
        if self.raises {
            ctx.gic.raise(IrqNum::pl(5));
            self.raises = false;
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

fn dummy(base: u64, len: u64) -> Box<Dummy> {
    Box::new(Dummy {
        base,
        len,
        raises: false,
        reg: 0,
    })
}

#[test]
fn peripheral_read_write_and_typed_access() {
    let mut m = Machine::default();
    m.add_peripheral(dummy(0x5000_0000, 0x1000));
    m.phys_write_u32(PhysAddr::new(0x5000_0000), 0x1234)
        .unwrap();
    assert_eq!(m.phys_read_u32(PhysAddr::new(0x5000_0000)).unwrap(), 0x1234);
    assert_eq!(m.phys_read_u32(PhysAddr::new(0x5000_0004)).unwrap(), 0xDEAD);
    let d: &Dummy = m.peripheral::<Dummy>().unwrap();
    assert_eq!(d.reg, 0x1234);
    assert!(m.is_mmio(PhysAddr::new(0x5000_0800)));
    assert!(!m.is_mmio(PhysAddr::new(0x5000_1000)));
}

#[test]
#[should_panic(expected = "overlap")]
fn overlapping_peripheral_windows_rejected() {
    let mut m = Machine::default();
    m.add_peripheral(dummy(0x5000_0000, 0x2000));
    m.add_peripheral(dummy(0x5000_1000, 0x1000));
}

#[test]
#[should_panic(expected = "overlaps RAM")]
fn peripheral_window_in_ram_rejected() {
    let mut m = Machine::default();
    m.add_peripheral(dummy(0x0100_0000, 0x1000));
}

#[test]
fn peripheral_advance_can_raise_interrupts() {
    let mut m = Machine::default();
    m.add_peripheral(Box::new(Dummy {
        base: 0x5000_0000,
        len: 0x1000,
        raises: true,
        reg: 0,
    }));
    m.gic.enable(IrqNum::pl(5));
    assert!(m.gic.highest_pending().is_none());
    m.charge(100);
    m.sync_devices();
    assert_eq!(m.gic.highest_pending(), Some(IrqNum::pl(5)));
}

#[test]
fn builtin_gic_and_timer_windows_are_mmio() {
    let m = Machine::default();
    assert!(m.is_mmio(PhysAddr::new(GIC_BASE)));
    assert!(m.is_mmio(PhysAddr::new(PTIMER_BASE)));
    assert!(!m.is_mmio(PhysAddr::new(0x1000)));
}

#[test]
fn block_transfers_round_trip_and_cost_scales() {
    let mut m = Machine::default();
    let data: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
    let t0 = m.now();
    m.phys_write_block(PhysAddr::new(0x10_0000), &data).unwrap();
    let write_cost = (m.now() - t0).raw();
    let mut back = vec![0u8; 4096];
    m.phys_read_block(PhysAddr::new(0x10_0000), &mut back)
        .unwrap();
    assert_eq!(back, data);
    // A 4 KB cold write sweeps 128 lines of DDR: cost must reflect that.
    assert!(write_cost >= 128, "cost {write_cost}");
    // Second write of the same range is cache-warm and cheaper.
    let t1 = m.now();
    m.phys_write_block(PhysAddr::new(0x10_0000), &data).unwrap();
    assert!((m.now() - t1).raw() < write_cost);
}

#[test]
fn wait_for_irq_times_out_without_sources() {
    let mut m = Machine::default();
    let waited = m.wait_for_irq(Cycles::new(5_000));
    assert!(waited.raw() >= 5_000, "{waited:?}");
    assert!(m.gic.highest_pending().is_none());
}

#[test]
fn exceptions_and_irqs_are_logged() {
    let mut m = Machine::default();
    m.tracer = Tracer::enabled(64);
    let mut b = ProgramBuilder::new();
    b.svc(3);
    b.halt();
    let p = b.assemble(0x8000);
    m.load_program(&p, PhysAddr::new(0x8000)).unwrap();
    m.cpu.pc = 0x8000;
    m.cpu.cpsr = Psr::user();
    m.run(10);
    assert!(
        m.tracer.snapshot().iter().any(|(_, e)| *e
            == TraceEvent::TrapEnter {
                kind: TrapKind::Svc
            }),
        "SVC exception must be traced"
    );
    // Timer expiry leaves its line pending in the GIC, the one record of
    // a raised interrupt.
    assert!(!m.gic.is_pending(IrqNum::PRIVATE_TIMER));
    m.ptimer.program_periodic(Cycles::new(100));
    m.charge(250);
    m.sync_devices();
    assert!(m.gic.is_pending(IrqNum::PRIVATE_TIMER));
}

#[test]
fn gic_mmio_window_via_machine_access() {
    let mut m = Machine::default();
    // Enable IRQ 33 through ISENABLER1 at +0x104.
    m.phys_write_u32(PhysAddr::new(GIC_BASE + 0x104), 1 << 1)
        .unwrap();
    assert!(m.gic.is_enabled(IrqNum(33)));
    m.gic.raise(IrqNum(33));
    // Ack via ICCIAR at +0x200C.
    let id = m.phys_read_u32(PhysAddr::new(GIC_BASE + 0x200C)).unwrap();
    assert_eq!(id, 33);
    // EOI via ICCEOIR.
    m.phys_write_u32(PhysAddr::new(GIC_BASE + 0x2010), 33)
        .unwrap();
    assert!(!m.gic.is_active(IrqNum(33)));
}

#[test]
fn private_timer_mmio_window_via_machine_access() {
    let mut m = Machine::default();
    m.phys_write_u32(PhysAddr::new(PTIMER_BASE), 1_000).unwrap(); // load
    m.phys_write_u32(PhysAddr::new(PTIMER_BASE + 8), 0b111)
        .unwrap(); // ctrl
    m.gic.enable(IrqNum::PRIVATE_TIMER);
    m.charge(1_500);
    m.sync_devices();
    assert!(m.gic.is_pending(IrqNum::PRIVATE_TIMER));
    // Counter reloaded and counting.
    let counter = m.phys_read_u32(PhysAddr::new(PTIMER_BASE + 4)).unwrap();
    assert!(counter > 0 && counter <= 1_000);
}

#[test]
fn resident_memory_stays_sparse() {
    let m = Machine::default();
    // A fresh 512 MB machine must not have allocated 512 MB.
    assert_eq!(m.mem.resident_bytes(), 0);
}
