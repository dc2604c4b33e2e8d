//! Generic interrupt controller (distributor + CPU interface).
//!
//! §III-B of the paper: "all physical interrupts are managed by the generic
//! interrupt controller (GIC), which receives different types of hardware
//! interrupt sources and generates IRQs to the CPU" — and the vGIC design
//! depends on the kernel being able to mask/unmask per-VM interrupt sets on
//! every VM switch and to ACK/EOI on behalf of guests.
//!
//! The model covers what that design exercises: per-line enable, pending and
//! active state, 8-bit priorities, highest-priority-pending selection,
//! acknowledge and end-of-interrupt. It is programmable both through a typed
//! API (used by the kernel's GIC driver) and through its MMIO window (used
//! by MIR guest programs and by tests that want the register path).

use mnv_hal::IrqNum;

/// Number of interrupt lines modelled (Zynq's GIC has 96 sources; we model
/// the same ID space).
pub const NUM_IRQS: usize = 96;

/// Spurious interrupt ID returned by an acknowledge with nothing pending.
pub const SPURIOUS: u32 = 1023;

/// The GIC: distributor state plus a single CPU interface (the reproduction
/// models one core, as the paper's evaluation pins Mini-NOVA to one).
pub struct Gic {
    /// Per-line state as bit masks (bit `i` = line `i`), so the "is any
    /// line deliverable" question every IRQ poll asks is one AND — a
    /// masked line that stays pending (§IV-D) costs nothing to skip.
    enabled: u128,
    pending: u128,
    active: u128,
    priority: [u8; NUM_IRQS],
    /// Distributor-level global enable.
    pub dist_enabled: bool,
    /// Statistics: how many interrupts were raised/acked.
    pub raised: u64,
    /// Statistics: acknowledged interrupt count.
    pub acked: u64,
}

impl Default for Gic {
    fn default() -> Self {
        Self::new()
    }
}

impl Gic {
    /// Fresh controller: everything disabled, nothing pending, default
    /// priority (lower value = higher priority, as in hardware).
    pub fn new() -> Self {
        Gic {
            enabled: 0,
            pending: 0,
            active: 0,
            priority: [0xF8; NUM_IRQS],
            dist_enabled: true,
            raised: 0,
            acked: 0,
        }
    }

    fn bit(irq: IrqNum) -> u128 {
        let i = irq.0 as usize;
        assert!(i < NUM_IRQS, "irq {i} out of modelled range");
        1 << i
    }

    /// A device asserts its interrupt line.
    pub fn raise(&mut self, irq: IrqNum) {
        self.pending |= Self::bit(irq);
        self.raised += 1;
    }

    /// Enable forwarding of a line (ISENABLER).
    pub fn enable(&mut self, irq: IrqNum) {
        self.enabled |= Self::bit(irq);
    }

    /// Disable (mask) a line (ICENABLER). Pending state is retained — this
    /// is what lets an inactive VM's hardware-task IRQ "remain the same
    /// until the next time the VM is scheduled" (§IV-D).
    pub fn disable(&mut self, irq: IrqNum) {
        self.enabled &= !Self::bit(irq);
    }

    /// Is the line currently enabled?
    pub fn is_enabled(&self, irq: IrqNum) -> bool {
        self.enabled & Self::bit(irq) != 0
    }

    /// Is the line pending (asserted but not yet acknowledged)?
    pub fn is_pending(&self, irq: IrqNum) -> bool {
        self.pending & Self::bit(irq) != 0
    }

    /// Clear a pending line without delivering it (ICPENDR).
    pub fn clear_pending(&mut self, irq: IrqNum) {
        self.pending &= !Self::bit(irq);
    }

    /// Set a line's priority (IPRIORITYR); lower value = more urgent.
    pub fn set_priority(&mut self, irq: IrqNum, prio: u8) {
        let i = irq.0 as usize;
        assert!(i < NUM_IRQS, "irq {i} out of modelled range");
        self.priority[i] = prio;
    }

    /// The highest-priority pending+enabled line, if any — i.e. whether the
    /// nIRQ signal to the core is asserted.
    #[inline]
    pub fn highest_pending(&self) -> Option<IrqNum> {
        let mut ready = self.pending & self.enabled & !self.active;
        if !self.dist_enabled || ready == 0 {
            return None;
        }
        // Lowest priority value wins; ties go to the lowest ID, which the
        // ascending walk over the set bits keeps by taking only a strictly
        // lower value.
        let mut best = ready.trailing_zeros() as usize;
        while ready != 0 {
            let i = ready.trailing_zeros() as usize;
            if self.priority[i] < self.priority[best] {
                best = i;
            }
            ready &= ready - 1;
        }
        Some(IrqNum(best as u16))
    }

    /// Acknowledge: returns and activates the highest-priority pending line
    /// (ICCIAR). `None` models the spurious ID.
    pub fn ack(&mut self) -> Option<IrqNum> {
        let irq = self.highest_pending()?;
        let b = Self::bit(irq);
        self.pending &= !b;
        self.active |= b;
        self.acked += 1;
        Some(irq)
    }

    /// End of interrupt (ICCEOIR): deactivates the line.
    pub fn eoi(&mut self, irq: IrqNum) {
        self.active &= !Self::bit(irq);
    }

    /// Is the line active (acknowledged, EOI not yet written)?
    pub fn is_active(&self, irq: IrqNum) -> bool {
        self.active & Self::bit(irq) != 0
    }

    // -- MMIO register interface ------------------------------------------
    //
    // Offsets follow the GIC architecture: distributor at 0x1000-size
    // window (ISENABLER at 0x100, ICENABLER 0x180, ISPENDR 0x200, ICPENDR
    // 0x280, IPRIORITYR 0x400), CPU interface appended at 0x2000 (ICCIAR
    // 0x0C, ICCEOIR 0x10) so one window serves both.

    /// MMIO read at `off` within the GIC window.
    pub fn mmio_read(&mut self, off: u64) -> u32 {
        match off {
            0x000 => self.dist_enabled as u32, // GICD_CTLR
            0x100..=0x10B => Self::word(self.enabled, off - 0x100),
            0x200..=0x20B => Self::word(self.pending, off - 0x200),
            0x400..=0x45F => {
                // Byte-packed priorities, 4 per word.
                let base = (off - 0x400) as usize;
                let mut v = 0u32;
                for b in 0..4 {
                    if base + b < NUM_IRQS {
                        v |= (self.priority[base + b] as u32) << (8 * b);
                    }
                }
                v
            }
            0x200C => self.ack().map(|i| i.0 as u32).unwrap_or(SPURIOUS), // ICCIAR
            _ => 0,
        }
    }

    /// MMIO write at `off` within the GIC window.
    pub fn mmio_write(&mut self, off: u64, val: u32) {
        match off {
            0x000 => self.dist_enabled = val & 1 != 0,
            0x100..=0x10B => self.enabled |= Self::lines(val, off - 0x100),
            0x180..=0x18B => self.enabled &= !Self::lines(val, off - 0x180),
            // ICPENDR: clear pending bits.
            0x280..=0x28B => self.pending &= !Self::lines(val, off - 0x280),
            0x400..=0x45F => {
                let base = (off - 0x400) as usize;
                for b in 0..4 {
                    if base + b < NUM_IRQS {
                        self.priority[base + b] = ((val >> (8 * b)) & 0xFF) as u8;
                    }
                }
            }
            0x2010 => self.eoi(IrqNum((val & 0x3FF) as u16)), // ICCEOIR
            _ => {}
        }
    }

    /// The 32-line word of `mask` that register byte offset `byte_off`
    /// (within a bitmap bank) covers.
    fn word(mask: u128, byte_off: u64) -> u32 {
        (mask >> ((byte_off / 4) * 32)) as u32
    }

    /// The lines a bitmap-register write of `val` at `byte_off` names,
    /// clipped to the modelled range.
    fn lines(val: u32, byte_off: u64) -> u128 {
        ((val as u128) << ((byte_off / 4) * 32)) & ((1u128 << NUM_IRQS) - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raise_then_ack_then_eoi() {
        let mut gic = Gic::new();
        let irq = IrqNum::pl(0);
        gic.enable(irq);
        gic.raise(irq);
        assert_eq!(gic.highest_pending(), Some(irq));
        assert_eq!(gic.ack(), Some(irq));
        assert!(gic.is_active(irq));
        assert!(!gic.is_pending(irq));
        assert_eq!(gic.ack(), None, "active line must not re-ack before EOI");
        gic.eoi(irq);
        assert!(!gic.is_active(irq));
    }

    #[test]
    fn masked_lines_stay_pending() {
        // §IV-D: an IRQ for an inactive (masked) VM is retained and
        // delivered when the VM's lines are unmasked again.
        let mut gic = Gic::new();
        let irq = IrqNum::pl(3);
        gic.raise(irq);
        assert_eq!(gic.highest_pending(), None);
        assert!(gic.is_pending(irq));
        gic.enable(irq);
        assert_eq!(gic.highest_pending(), Some(irq));
    }

    #[test]
    fn priority_ordering() {
        let mut gic = Gic::new();
        let lo = IrqNum::pl(1);
        let hi = IrqNum::PRIVATE_TIMER;
        gic.enable(lo);
        gic.enable(hi);
        gic.set_priority(lo, 0xA0);
        gic.set_priority(hi, 0x20);
        gic.raise(lo);
        gic.raise(hi);
        assert_eq!(gic.ack(), Some(hi));
        assert_eq!(gic.ack(), Some(lo));
    }

    #[test]
    fn equal_priority_resolves_by_lowest_id() {
        let mut gic = Gic::new();
        let a = IrqNum(40);
        let b = IrqNum(61);
        gic.enable(a);
        gic.enable(b);
        gic.raise(b);
        gic.raise(a);
        assert_eq!(gic.ack(), Some(a));
    }

    #[test]
    fn distributor_disable_gates_everything() {
        let mut gic = Gic::new();
        let irq = IrqNum::pl(0);
        gic.enable(irq);
        gic.raise(irq);
        gic.dist_enabled = false;
        assert_eq!(gic.highest_pending(), None);
        assert_eq!(gic.ack(), None);
    }

    #[test]
    fn mmio_enable_ack_eoi_path() {
        let mut gic = Gic::new();
        let irq = IrqNum::pl(2); // id 63
                                 // ISENABLER1 covers irqs 32..64 at offset 0x104.
        gic.mmio_write(0x104, 1 << (63 - 32));
        assert!(gic.is_enabled(irq));
        gic.raise(irq);
        assert_eq!(gic.mmio_read(0x200C), 63);
        assert!(gic.is_active(irq));
        gic.mmio_write(0x2010, 63);
        assert!(!gic.is_active(irq));
        // Spurious when nothing pending.
        assert_eq!(gic.mmio_read(0x200C), SPURIOUS);
    }

    #[test]
    fn mmio_disable_and_clear_pending() {
        let mut gic = Gic::new();
        let irq = IrqNum(33);
        gic.enable(irq);
        gic.raise(irq);
        gic.mmio_write(0x184, 1 << 1); // ICENABLER1 bit 1 -> irq 33
        assert!(!gic.is_enabled(irq));
        gic.mmio_write(0x284, 1 << 1); // ICPENDR1
        assert!(!gic.is_pending(irq));
    }

    #[test]
    fn mmio_priority_bytes() {
        let mut gic = Gic::new();
        gic.mmio_write(0x400 + 40, 0x1122_3344); // irqs 40..44
        assert_eq!(gic.mmio_read(0x400 + 40), 0x1122_3344);
        gic.enable(IrqNum(40));
        gic.enable(IrqNum(41));
        gic.raise(IrqNum(40)); // prio 0x44
        gic.raise(IrqNum(41)); // prio 0x33 -> more urgent
        assert_eq!(gic.ack(), Some(IrqNum(41)));
    }

    #[test]
    fn highest_pending_matches_a_scan_of_every_line() {
        // The mask query against the 96-line scan it replaced, over seeded
        // random line states and priorities.
        let mut seed = 0x9E37_79B9u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        for _ in 0..500 {
            let mut gic = Gic::new();
            for i in 0..NUM_IRQS as u16 {
                gic.set_priority(IrqNum(i), (next() % 4) as u8 * 0x40);
                match next() % 4 {
                    0 => gic.raise(IrqNum(i)),
                    1 => {
                        gic.raise(IrqNum(i));
                        gic.enable(IrqNum(i));
                    }
                    2 => gic.enable(IrqNum(i)),
                    _ => {}
                }
            }
            for _ in 0..(next() % 3) {
                let _ = gic.ack();
            }
            let scan = (0..NUM_IRQS)
                .filter(|&i| {
                    let l = IrqNum(i as u16);
                    gic.is_pending(l) && gic.is_enabled(l) && !gic.is_active(l)
                })
                .min_by_key(|&i| (gic.priority[i], i))
                .map(|i| IrqNum(i as u16));
            assert_eq!(gic.highest_pending(), scan);
        }
    }

    #[test]
    fn mmio_enabled_pending_readback() {
        let mut gic = Gic::new();
        gic.enable(IrqNum(5));
        gic.raise(IrqNum(5));
        gic.raise(IrqNum(40));
        assert_eq!(gic.mmio_read(0x100) & (1 << 5), 1 << 5);
        assert_eq!(gic.mmio_read(0x200) & (1 << 5), 1 << 5);
        assert_eq!(gic.mmio_read(0x204) & (1 << 8), 1 << 8); // irq 40
    }
}
