//! Peripheral trait and MMIO dispatch context.
//!
//! The Zynq PS talks to the programmable logic (and to platform devices)
//! through memory-mapped windows. The machine owns a set of [`Peripheral`]
//! objects, routes physical accesses that fall inside their windows to them,
//! and ticks them as simulated time advances. The PL model in `mnv-fpga`
//! implements this trait — keeping the dependency arrow pointing from the
//! FPGA crate to this one, never backwards.

use mnv_hal::{Cycles, PhysAddr};
use mnv_trace::Tracer;
use std::any::Any;

use crate::gic::Gic;
use crate::memory::PhysMemory;

/// Mutable platform context handed to peripherals for DMA and interrupts.
///
/// A peripheral performing DMA reads/writes `mem` directly (that is the
/// point: on Zynq "the FPGA accesses directly the physical memory space,
/// without using the MMU" — §IV-C — which is why the paper needs the
/// hwMMU), and raises interrupt lines through `gic`.
pub struct PeriphCtx<'a> {
    /// Physical memory for DMA.
    pub mem: &'a mut PhysMemory,
    /// Interrupt controller for raising lines.
    pub gic: &'a mut Gic,
    /// Current simulated time.
    pub now: Cycles,
    /// Event tracer shared with the machine (emitting is `&self`).
    pub tracer: &'a Tracer,
}

/// A memory-mapped platform device.
pub trait Peripheral: Any {
    /// The device's MMIO window (base, length in bytes).
    fn window(&self) -> (PhysAddr, u64);

    /// 32-bit register read at `off` within the window.
    fn read32(&mut self, off: u64, ctx: &mut PeriphCtx<'_>) -> u32;

    /// 32-bit register write at `off` within the window.
    fn write32(&mut self, off: u64, val: u32, ctx: &mut PeriphCtx<'_>);

    /// Advance device-internal time by `dt` (DMA engines, transfer ports…).
    /// Below [`Peripheral::next_event`] the advance must be additive —
    /// `advance(a); advance(b)` leaves the state `advance(a + b)` does —
    /// because the machine advances devices only when the device deadline
    /// passes or something reads or reprograms them.
    fn advance(&mut self, _dt: Cycles, _ctx: &mut PeriphCtx<'_>) {}

    /// Cycles until this device next changes externally observable state on
    /// its own (completes a DMA, raises an interrupt…), or `None` when it
    /// is quiescent. The machine keeps the minimum over all devices as its
    /// device deadline and skips device syncs below it, so a conservative
    /// (too early) answer costs only extra catch-ups while a late one
    /// would delay an event — the default of `Some(0)` therefore makes
    /// every sync advance a peripheral that does not implement the query.
    fn next_event(&self, _now: Cycles) -> Option<u64> {
        Some(0)
    }

    /// True when the register at `off` holds a value that moves with
    /// device time between events (a running counter): the machine
    /// settles the devices before such a read. Any other register changes
    /// only at an event, which a sync has already delivered. The default
    /// settles before every read.
    fn reads_time(&self, _off: u64) -> bool {
        true
    }

    /// Downcasting support for typed test/introspection access.
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcasting support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// The eager-sync oracle: a register-less peripheral whose next event is
/// always due, so a machine it is attached to advances every device at
/// every sync, exactly as before device time ran on demand. The
/// differential tests run such a machine beside one without it and
/// compare everything observable; nothing else attaches it.
pub struct EagerSync;

impl Peripheral for EagerSync {
    fn window(&self) -> (PhysAddr, u64) {
        // Unused I/O space below the GIC and timers.
        (PhysAddr::new(0xE000_0000), 0x1000)
    }
    fn read32(&mut self, _off: u64, _ctx: &mut PeriphCtx<'_>) -> u32 {
        0
    }
    fn write32(&mut self, _off: u64, _val: u32, _ctx: &mut PeriphCtx<'_>) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Dummy {
        reg: u32,
    }

    impl Peripheral for Dummy {
        fn window(&self) -> (PhysAddr, u64) {
            (PhysAddr::new(0x4000_0000), 0x1000)
        }
        fn read32(&mut self, off: u64, _ctx: &mut PeriphCtx<'_>) -> u32 {
            if off == 0 {
                self.reg
            } else {
                0
            }
        }
        fn write32(&mut self, off: u64, val: u32, ctx: &mut PeriphCtx<'_>) {
            if off == 0 {
                self.reg = val;
                // DMA a marker into memory to prove ctx works.
                ctx.mem.write_u32(PhysAddr::new(0x100), val).unwrap();
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn peripheral_ctx_allows_dma() {
        let mut mem = PhysMemory::new();
        let mut gic = Gic::new();
        let mut d = Dummy { reg: 0 };
        let tracer = Tracer::disabled();
        let mut ctx = PeriphCtx {
            mem: &mut mem,
            gic: &mut gic,
            now: Cycles::ZERO,
            tracer: &tracer,
        };
        d.write32(0, 0xAB, &mut ctx);
        assert_eq!(d.read32(0, &mut ctx), 0xAB);
        assert_eq!(mem.read_u32(PhysAddr::new(0x100)).unwrap(), 0xAB);
    }
}
