//! PL interrupt-line allocation (§IV-D).
//!
//! "The interrupt sources (PL_IRQ) are organized by the General Interrupt
//! Controller, and support up to 16 different IRQ sources generated from
//! the FPGA side. … When a VM requires an IRQ from its hardware task, the
//! Hardware Task Manager asks the PRR controller to allocate an available
//! IRQ source to the hardware task, and updates the VM's vGIC table to
//! register the IRQ source."

use mnv_hal::{HalError, HalResult, IrqNum, VmId};

/// Allocator over the 16 PL fabric lines.
pub struct PlIrqAllocator {
    /// line index -> (owner VM, PRR) when allocated.
    lines: [Option<(VmId, u8)>; IrqNum::PL_COUNT as usize],
}

impl Default for PlIrqAllocator {
    fn default() -> Self {
        Self::new()
    }
}

impl PlIrqAllocator {
    /// All lines free.
    pub fn new() -> Self {
        PlIrqAllocator {
            lines: [None; IrqNum::PL_COUNT as usize],
        }
    }

    /// Allocate a free line for (`vm`, `prr`). If that pair already holds a
    /// line, it is returned unchanged (idempotent re-request).
    pub fn alloc(&mut self, vm: VmId, prr: u8) -> HalResult<IrqNum> {
        if let Some(i) = self.lines.iter().position(|l| *l == Some((vm, prr))) {
            return Ok(IrqNum::pl(i as u16));
        }
        let free = self
            .lines
            .iter()
            .position(|l| l.is_none())
            .ok_or(HalError::ResourceExhausted("PL IRQ lines"))?;
        self.lines[free] = Some((vm, prr));
        Ok(IrqNum::pl(free as u16))
    }

    /// Free whatever line a PRR holds; returns it if one was allocated.
    pub fn free_prr(&mut self, prr: u8) -> Option<IrqNum> {
        let i = self
            .lines
            .iter()
            .position(|l| matches!(l, Some((_, p)) if *p == prr))?;
        self.lines[i] = None;
        Some(IrqNum::pl(i as u16))
    }

    /// Re-key the line a PRR holds onto another region, preserving the
    /// owner VM and the line number. Used when a client is migrated off a
    /// region (escalation-ladder relocation, quarantine onto a shadow
    /// page): the guest keeps receiving completions on the line it was
    /// originally assigned. Returns the moved line, if one existed.
    pub fn retarget_prr(&mut self, from: u8, to: u8) -> Option<IrqNum> {
        let i = self
            .lines
            .iter()
            .position(|l| matches!(l, Some((_, p)) if *p == from))?;
        let (vm, _) = self.lines[i]?;
        self.lines[i] = Some((vm, to));
        Some(IrqNum::pl(i as u16))
    }

    /// The owner of a PL line.
    pub fn owner(&self, irq: IrqNum) -> Option<(VmId, u8)> {
        let i = irq.pl_index()? as usize;
        self.lines[i]
    }

    /// Lines currently allocated.
    pub fn in_use(&self) -> usize {
        self.lines.iter().filter(|l| l.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocates_distinct_lines() {
        let mut a = PlIrqAllocator::new();
        let l0 = a.alloc(VmId(1), 0).unwrap();
        let l1 = a.alloc(VmId(2), 1).unwrap();
        assert_ne!(l0, l1);
        assert_eq!(a.owner(l0), Some((VmId(1), 0)));
        assert_eq!(a.in_use(), 2);
    }

    #[test]
    fn idempotent_for_same_pair() {
        let mut a = PlIrqAllocator::new();
        let l0 = a.alloc(VmId(1), 0).unwrap();
        assert_eq!(a.alloc(VmId(1), 0).unwrap(), l0);
        assert_eq!(a.in_use(), 1);
    }

    #[test]
    fn exhaustion_after_16() {
        let mut a = PlIrqAllocator::new();
        for i in 0..16u8 {
            a.alloc(VmId(1), i).unwrap();
        }
        assert!(matches!(
            a.alloc(VmId(2), 0),
            Err(HalError::ResourceExhausted(_))
        ));
    }

    #[test]
    fn free_recycles() {
        let mut a = PlIrqAllocator::new();
        let l = a.alloc(VmId(1), 3).unwrap();
        assert_eq!(a.free_prr(3), Some(l));
        assert_eq!(a.owner(l), None);
        assert_eq!(a.free_prr(3), None);
        // Line is reusable.
        assert_eq!(a.alloc(VmId(2), 5).unwrap(), l);
    }

    #[test]
    fn retarget_keeps_line_and_owner() {
        let mut a = PlIrqAllocator::new();
        let l = a.alloc(VmId(1), 2).unwrap();
        assert_eq!(a.retarget_prr(2, 5), Some(l));
        assert_eq!(a.owner(l), Some((VmId(1), 5)));
        // The old region holds nothing any more.
        assert_eq!(a.free_prr(2), None);
        assert_eq!(a.retarget_prr(7, 3), None);
    }

    #[test]
    fn owner_of_non_pl_line_is_none() {
        let a = PlIrqAllocator::new();
        assert_eq!(a.owner(IrqNum::PRIVATE_TIMER), None);
    }
}
