//! The programmable logic as a bus peripheral: PRR controller, PCAP port,
//! hwMMU programming interface and PL→PS interrupt routing.
//!
//! Address map (window at [`PL_GP_BASE`], reached through the AXI GP port as
//! in Fig. 4):
//!
//! | page | contents |
//! |------|----------|
//! | 0    | controller globals: PCAP registers, hwMMU programming, IRQ routing |
//! | 1+i  | PRR *i*'s register group (4 KB-aligned so the kernel can map each page to exactly one VM — §IV-C) |
//!
//! One deviation from the physical part is intentional and documented: on
//! real Zynq the PCAP lives in the PS DevCfg block at 0xF8007000; here its
//! registers sit in the controller page so the whole PL model is one
//! peripheral. The programming sequence (write source/length/target, set
//! start, poll status or take the completion IRQ) is preserved.

use mnv_hal::{Cycles, IrqNum, PhysAddr};
use std::any::Any;

use mnv_arm::bus::{PeriphCtx, Peripheral};
use mnv_fault::{FaultPlane, FaultSite};
use mnv_metrics::{Label, Registry};
use mnv_trace::TraceEvent;

use crate::bitstream::Bitstream;
use crate::cores::make_core;
use crate::fabric::FabricConfig;
use crate::hwmmu::HwMmu;
use crate::prr::{ctrl, regs, status, ExecState, Prr};

/// Base physical address of the PL register window (AXI GP0 segment).
pub const PL_GP_BASE: u64 = 0x4000_0000;

/// Size of one register page.
pub const PAGE: u64 = 0x1000;

/// Controller-page register offsets.
pub mod plregs {
    /// PCAP control (bit0: start transfer, bit1: abort an in-flight one).
    pub const PCAP_CTRL: u64 = 0x00;
    /// PCAP status: see [`super::pcap_status`].
    pub const PCAP_STATUS: u64 = 0x04;
    /// Physical address of the bitstream to download.
    pub const PCAP_SRC: u64 = 0x08;
    /// Bitstream length in bytes (header + payload).
    pub const PCAP_LEN: u64 = 0x0C;
    /// Target PRR id.
    pub const PCAP_TARGET: u64 = 0x10;
    /// Raise [`mnv_hal::IrqNum::PCAP_DONE`] on completion when nonzero.
    pub const PCAP_IRQ_EN: u64 = 0x14;
    /// Last PCAP error code (see [`super::pcap_err`]).
    pub const PCAP_ERR: u64 = 0x18;
    /// IRQ routing command: `(prr << 8) | line`, line 0xFF clears.
    pub const IRQ_ROUTE: u64 = 0x20;
    /// hwMMU: select PRR whose window is being programmed.
    pub const HWMMU_SEL: u64 = 0x24;
    /// hwMMU: window base (physical).
    pub const HWMMU_BASE: u64 = 0x28;
    /// hwMMU: window length; writing commits (0 clears the window).
    pub const HWMMU_LEN: u64 = 0x2C;
    /// hwMMU violation count (read-only).
    pub const HWMMU_VIOL: u64 = 0x30;
    /// Base of the per-PRR IRQ route readback array (4 bytes per PRR).
    pub const IRQ_ROUTE_RD: u64 = 0x40;
}

/// PCAP status values.
pub mod pcap_status {
    /// No transfer started since reset.
    pub const IDLE: u32 = 0;
    /// Transfer in progress.
    pub const BUSY: u32 = 1;
    /// Last transfer completed and the PRR was reconfigured.
    pub const DONE: u32 = 2;
    /// Last transfer failed; see PCAP_ERR.
    pub const ERROR: u32 = 3;
}

/// PCAP error codes.
pub mod pcap_err {
    /// Header malformed / bad magic / bad checksum.
    pub const BAD_BITSTREAM: u32 = 1;
    /// Bitstream not implemented for the target PRR.
    pub const INCOMPATIBLE: u32 = 2;
    /// Core resources exceed the PRR's capacity.
    pub const TOO_LARGE: u32 = 3;
    /// Target PRR id out of range.
    pub const BAD_TARGET: u32 = 4;
    /// Payload CRC check failed — the image was damaged in transfer.
    pub const CRC_MISMATCH: u32 = 5;
    /// The transfer was aborted through PCAP_CTRL bit 1.
    pub const ABORTED: u32 = 6;
}

/// PCAP throughput: cycles per byte on the 660 MHz clock, as a ratio
/// (≈4.5 cy/B ≈ 145 MB/s, the commonly cited Zynq PCAP figure).
pub const PCAP_CYCLES_PER_BYTE_NUM: u64 = 9;
/// Denominator of the PCAP cycles-per-byte ratio.
pub const PCAP_CYCLES_PER_BYTE_DEN: u64 = 2;

/// Cycles to download `bytes` through the PCAP.
pub fn pcap_transfer_cycles(bytes: u64) -> u64 {
    bytes * PCAP_CYCLES_PER_BYTE_NUM / PCAP_CYCLES_PER_BYTE_DEN + 500
}

/// PL construction parameters.
#[derive(Clone, Debug)]
pub struct PlConfig {
    /// Fabric geometry.
    pub fabric: FabricConfig,
}

impl Default for PlConfig {
    fn default() -> Self {
        PlConfig {
            fabric: FabricConfig::paper_fabric(),
        }
    }
}

struct PcapEngine {
    status: u32,
    err: u32,
    src: u32,
    len: u32,
    target: u32,
    irq_en: bool,
    remaining: u64,
    /// Injected stall: the transfer never completes until aborted.
    stalled: bool,
    /// Transfers completed (diagnostics / reconfiguration counting).
    transfers: u64,
}

/// The programmable logic peripheral.
pub struct Pl {
    prrs: Vec<Prr>,
    hwmmu: HwMmu,
    pcap: PcapEngine,
    /// Which PL line (0..16) each PRR's completion IRQ is routed to.
    routes: Vec<Option<u16>>,
    /// hwMMU programming latch.
    sel: u32,
    base_latch: u32,
    /// Fault-injection plane (disabled by default; see `mnv-fault`).
    fault: FaultPlane,
    /// Metrics registry handle (disabled no-op by default; the embedder
    /// clones a live registry in via [`Pl::set_metrics`], like the fault
    /// plane). Feeds the fabric-side series nothing else counts: PCAP
    /// bytes and stalls, AXI GP transactions and HP burst bytes. PCAP
    /// transfers, PRR occupancy and PRR status are read from the PL
    /// itself when a snapshot is taken.
    metrics: Registry,
}

impl Pl {
    /// Build the PL from a fabric configuration.
    pub fn new(cfg: PlConfig) -> Self {
        let prrs: Vec<Prr> = cfg.fabric.prrs.iter().map(|g| Prr::new(*g)).collect();
        let n = prrs.len();
        Pl {
            prrs,
            hwmmu: HwMmu::new(n),
            pcap: PcapEngine {
                status: pcap_status::IDLE,
                err: 0,
                src: 0,
                len: 0,
                target: 0,
                irq_en: false,
                remaining: 0,
                stalled: false,
                transfers: 0,
            },
            routes: vec![None; n],
            sel: 0,
            base_latch: 0,
            fault: FaultPlane::disabled(),
            metrics: Registry::disabled(),
        }
    }

    /// Attach a fault-injection plane. The plane is a shared handle: the
    /// embedder typically arms one plane and clones it into both the
    /// machine (bus/IRQ/memory faults) and the PL (PCAP/PRR faults) so a
    /// single seed drives the whole schedule.
    pub fn set_fault_plane(&mut self, plane: FaultPlane) {
        self.fault = plane;
    }

    /// Attach a metrics registry (a shared handle, like the fault plane).
    pub fn set_metrics(&mut self, registry: Registry) {
        self.metrics = registry;
    }

    /// Number of PRRs.
    pub fn num_prrs(&self) -> usize {
        self.prrs.len()
    }

    /// Immutable view of a PRR (tests / manager introspection).
    pub fn prr(&self, id: u8) -> &Prr {
        &self.prrs[id as usize]
    }

    /// Mutable view of a PRR.
    pub fn prr_mut(&mut self, id: u8) -> &mut Prr {
        &mut self.prrs[id as usize]
    }

    /// Bounds-checked view of a PRR — use this on ids that came from a
    /// guest or the wire instead of [`Pl::prr`], which panics.
    pub fn try_prr(&self, id: u8) -> Option<&Prr> {
        self.prrs.get(id as usize)
    }

    /// Bounds-checked mutable view of a PRR.
    pub fn try_prr_mut(&mut self, id: u8) -> Option<&mut Prr> {
        self.prrs.get_mut(id as usize)
    }

    /// The hwMMU (tests assert on violations through this).
    pub fn hwmmu(&self) -> &HwMmu {
        &self.hwmmu
    }

    /// Completed PCAP transfers.
    pub fn pcap_transfers(&self) -> u64 {
        self.pcap.transfers
    }

    /// The PCAP engine's status (a [`pcap_status`] value) and target
    /// region as of the last device sync: an uncharged look for invariant
    /// checks, which must not move simulated time.
    pub fn pcap_engine(&self) -> (u32, u32) {
        (self.pcap.status, self.pcap.target)
    }

    /// Physical address of PRR `id`'s register page.
    pub fn prr_page(id: u8) -> PhysAddr {
        PhysAddr::new(PL_GP_BASE + (1 + id as u64) * PAGE)
    }

    /// The PL line a PRR's IRQ is routed to, if any.
    pub fn route_of(&self, prr: u8) -> Option<IrqNum> {
        self.routes[prr as usize].map(IrqNum::pl)
    }

    fn start_pcap(&mut self, ctx: &mut PeriphCtx<'_>) {
        if self.pcap.status == pcap_status::BUSY {
            return;
        }
        if self.pcap.target as usize >= self.prrs.len() {
            self.pcap.status = pcap_status::ERROR;
            self.pcap.err = pcap_err::BAD_TARGET;
            return;
        }
        self.pcap.status = pcap_status::BUSY;
        self.pcap.err = 0;
        self.pcap.remaining = pcap_transfer_cycles(self.pcap.len as u64);
        self.pcap.stalled = false;
        if self
            .fault
            .trip(FaultSite::PcapStall, ctx.now, self.pcap.target as u64)
        {
            // The transfer wedges: status stays BUSY until a CTRL abort.
            self.pcap.stalled = true;
            self.metrics.inc("pcap_stalls", Label::Machine);
            ctx.tracer.emit(
                ctx.now,
                TraceEvent::FaultInjected {
                    site: FaultSite::PcapStall as u8,
                },
            );
        }
        ctx.tracer.emit(
            ctx.now,
            TraceEvent::PcapDma {
                bytes: self.pcap.len,
                end: false,
            },
        );
    }

    /// CTRL bit 1: abort an in-flight (possibly stalled) transfer.
    fn abort_pcap(&mut self, ctx: &mut PeriphCtx<'_>) {
        if self.pcap.status != pcap_status::BUSY {
            return;
        }
        self.pcap.status = pcap_status::ERROR;
        self.pcap.err = pcap_err::ABORTED;
        self.pcap.remaining = 0;
        self.pcap.stalled = false;
        ctx.tracer.emit(
            ctx.now,
            TraceEvent::PcapDma {
                bytes: self.pcap.len,
                end: true,
            },
        );
    }

    /// Stream the payload out of DDR, applying any injected transfer
    /// corruption. `Err(())` means the length field or source address do
    /// not describe readable memory.
    fn fetch_payload(&mut self, bs: &Bitstream, ctx: &mut PeriphCtx<'_>) -> Result<Vec<u8>, ()> {
        let plen = bs.payload_len as usize;
        if crate::bitstream::HEADER_LEN + plen > self.pcap.len as usize {
            return Err(()); // length field exceeds the programmed transfer
        }
        let mut payload = vec![0u8; plen];
        ctx.mem
            .read(
                PhysAddr::new(self.pcap.src as u64 + crate::bitstream::HEADER_LEN as u64),
                &mut payload,
            )
            .map_err(|_| ())?;
        if plen > 0
            && self
                .fault
                .trip(FaultSite::PcapCorrupt, ctx.now, self.pcap.target as u64)
        {
            let byte = self.fault.pick(FaultSite::PcapCorrupt, plen as u64) as usize;
            let bit = self.fault.pick(FaultSite::PcapCorrupt, 8) as u32;
            payload[byte] ^= 1u8 << bit;
            ctx.tracer.emit(
                ctx.now,
                TraceEvent::FaultInjected {
                    site: FaultSite::PcapCorrupt as u8,
                },
            );
        }
        Ok(payload)
    }

    fn finish_pcap(&mut self, ctx: &mut PeriphCtx<'_>) {
        let mut header = [0u8; crate::bitstream::HEADER_LEN];
        let ok = ctx
            .mem
            .read(PhysAddr::new(self.pcap.src as u64), &mut header)
            .is_ok();
        let parsed = if ok {
            Bitstream::parse_header(&header)
        } else {
            Err(mnv_hal::HalError::Invalid("unreadable bitstream"))
        };
        let target = self.pcap.target as u8;
        // start_pcap validated the target, but the register is writable
        // mid-transfer — never index on a stale check.
        if target as usize >= self.prrs.len() {
            self.pcap.status = pcap_status::ERROR;
            self.pcap.err = pcap_err::BAD_TARGET;
            return;
        }
        match parsed {
            Err(_) => {
                self.pcap.status = pcap_status::ERROR;
                self.pcap.err = pcap_err::BAD_BITSTREAM;
            }
            Ok(bs) if !bs.compatible_with(target) => {
                self.pcap.status = pcap_status::ERROR;
                self.pcap.err = pcap_err::INCOMPATIBLE;
            }
            Ok(bs)
                if !self.prrs[target as usize]
                    .geometry
                    .resources
                    .fits(&bs.core.resources()) =>
            {
                self.pcap.status = pcap_status::ERROR;
                self.pcap.err = pcap_err::TOO_LARGE;
            }
            Ok(bs) => match self.fetch_payload(&bs, ctx) {
                Ok(payload) if bs.verify_payload(&payload) => {
                    self.prrs[target as usize].load_core(make_core(bs.core));
                    self.pcap.status = pcap_status::DONE;
                    self.pcap.transfers += 1;
                    self.metrics
                        .add("pcap_bytes", Label::Machine, self.pcap.len as u64);
                    ctx.tracer.emit(
                        ctx.now,
                        TraceEvent::PrrReconfig {
                            prr: target,
                            task: bs.core.encode(),
                        },
                    );
                    if self.pcap.irq_en {
                        ctx.gic.raise(IrqNum::PCAP_DONE);
                    }
                }
                Ok(_) => {
                    self.pcap.status = pcap_status::ERROR;
                    self.pcap.err = pcap_err::CRC_MISMATCH;
                }
                Err(()) => {
                    self.pcap.status = pcap_status::ERROR;
                    self.pcap.err = pcap_err::BAD_BITSTREAM;
                }
            },
        }
        ctx.tracer.emit(
            ctx.now,
            TraceEvent::PcapDma {
                bytes: self.pcap.len,
                end: true,
            },
        );
    }

    fn ctrl_read(&mut self, off: u64) -> u32 {
        match off {
            plregs::PCAP_CTRL => 0,
            plregs::PCAP_STATUS => self.pcap.status,
            plregs::PCAP_SRC => self.pcap.src,
            plregs::PCAP_LEN => self.pcap.len,
            plregs::PCAP_TARGET => self.pcap.target,
            plregs::PCAP_IRQ_EN => self.pcap.irq_en as u32,
            plregs::PCAP_ERR => self.pcap.err,
            plregs::HWMMU_SEL => self.sel,
            plregs::HWMMU_BASE => self.base_latch,
            plregs::HWMMU_LEN => {
                let w = self.hwmmu.window(self.sel as u8);
                w.len as u32
            }
            plregs::HWMMU_VIOL => self.hwmmu.violation_count as u32,
            off if off >= plregs::IRQ_ROUTE_RD => {
                let prr = ((off - plregs::IRQ_ROUTE_RD) / 4) as usize;
                self.routes
                    .get(prr)
                    .and_then(|r| *r)
                    .map(|l| l as u32)
                    .unwrap_or(0xFF)
            }
            _ => 0,
        }
    }

    fn ctrl_write(&mut self, off: u64, val: u32, ctx: &mut PeriphCtx<'_>) {
        match off {
            plregs::PCAP_CTRL => {
                if val & 0b10 != 0 {
                    self.abort_pcap(ctx);
                } else if val & 1 != 0 {
                    self.start_pcap(ctx);
                }
            }
            plregs::PCAP_SRC => self.pcap.src = val,
            plregs::PCAP_LEN => self.pcap.len = val,
            plregs::PCAP_TARGET => self.pcap.target = val,
            plregs::PCAP_IRQ_EN => self.pcap.irq_en = val != 0,
            plregs::IRQ_ROUTE => {
                let prr = ((val >> 8) & 0xFF) as usize;
                let line = (val & 0xFF) as u16;
                if prr < self.prrs.len() {
                    let route = (line != 0xFF && line < IrqNum::PL_COUNT).then_some(line);
                    self.routes[prr] = route;
                    self.prrs[prr].irq_line = route.map(IrqNum::pl);
                }
            }
            plregs::HWMMU_SEL => self.sel = val,
            plregs::HWMMU_BASE => self.base_latch = val,
            plregs::HWMMU_LEN => {
                let prr = self.sel as u8;
                if (prr as usize) < self.prrs.len() {
                    if val == 0 {
                        self.hwmmu.clear_window(prr);
                    } else {
                        self.hwmmu.load_window(
                            prr,
                            PhysAddr::new(self.base_latch as u64),
                            val as u64,
                        );
                    }
                }
            }
            _ => {}
        }
    }
}

impl Peripheral for Pl {
    fn window(&self) -> (PhysAddr, u64) {
        (
            PhysAddr::new(PL_GP_BASE),
            PAGE * (1 + self.prrs.len() as u64),
        )
    }

    fn read32(&mut self, off: u64, _ctx: &mut PeriphCtx<'_>) -> u32 {
        // Every register access is one AXI GP0 transaction (Fig. 4).
        self.metrics.inc("axi_reads", Label::Iface("m-gp0"));
        let page = off / PAGE;
        if page == 0 {
            self.ctrl_read(off)
        } else {
            let prr = (page - 1) as usize;
            if prr < self.prrs.len() {
                self.prrs[prr].reg_read(off % PAGE)
            } else {
                0
            }
        }
    }

    fn write32(&mut self, off: u64, val: u32, ctx: &mut PeriphCtx<'_>) {
        self.metrics.inc("axi_writes", Label::Iface("m-gp0"));
        let page = off / PAGE;
        if page == 0 {
            self.ctrl_write(off, val, ctx);
        } else {
            let prr = (page - 1) as usize;
            if prr < self.prrs.len() {
                let reg_off = off % PAGE;
                self.prrs[prr].reg_write(reg_off, val, &mut self.hwmmu);
                // A start that actually engaged the engine may wedge it.
                if reg_off == 4 * regs::CTRL as u64
                    && val & ctrl::START != 0
                    && self.prrs[prr].reg_read(4 * regs::STATUS as u64) == status::BUSY
                    && self.fault.trip(FaultSite::PrrHang, ctx.now, prr as u64)
                {
                    self.prrs[prr].hang();
                    ctx.tracer.emit(
                        ctx.now,
                        TraceEvent::FaultInjected {
                            site: FaultSite::PrrHang as u8,
                        },
                    );
                }
            }
        }
    }

    fn advance(&mut self, dt: Cycles, ctx: &mut PeriphCtx<'_>) {
        // PCAP progress (a stalled transfer holds BUSY until aborted).
        if self.pcap.status == pcap_status::BUSY && !self.pcap.stalled {
            if self.pcap.remaining > dt.raw() {
                self.pcap.remaining -= dt.raw();
            } else {
                self.pcap.remaining = 0;
                self.finish_pcap(ctx);
            }
        }
        // PRR engines.
        for prr in self.prrs.iter_mut() {
            let irq_en = prr.regs.r[crate::prr::regs::CTRL] & ctrl::IRQ_EN != 0;
            let completed = prr.advance(dt.raw(), ctx);
            if completed {
                // One HP-port burst in (source) and one out (result).
                let bytes = prr.regs.r[regs::SRC_LEN] as u64 + prr.regs.r[regs::RESULT_LEN] as u64;
                self.metrics
                    .add("axi_hp_bytes", Label::Iface("s-hp0"), bytes);
            }
            if completed && irq_en {
                if let Some(line) = prr.irq_line {
                    ctx.gic.raise(line);
                }
            }
        }
    }

    fn next_event(&self, _now: Cycles) -> Option<u64> {
        // Report the earliest *phase boundary*, not the full completion:
        // each engine's later phase lengths are only computed when the
        // previous phase ends, so the machine re-queries at every boundary
        // and still lands the completion IRQ on the exact cycle. A stalled
        // PCAP or a hung PRR holds its state until software intervenes and
        // contributes no deadline.
        let mut d: Option<u64> = None;
        let mut merge = |v: u64| d = Some(d.map_or(v, |cur: u64| cur.min(v)));
        if self.pcap.status == pcap_status::BUSY && !self.pcap.stalled {
            merge(self.pcap.remaining);
        }
        for prr in &self.prrs {
            match prr.state {
                ExecState::Fetching { remaining }
                | ExecState::Computing { remaining }
                | ExecState::Writing { remaining } => merge(remaining),
                _ => {}
            }
        }
        d
    }

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
    use crate::bitstream::CoreKind;
    use crate::prr::{regs, status};
    use mnv_arm::machine::Machine;

    /// A machine with the paper's PL attached and a bitstream library
    /// preloaded into DDR at 0x100_0000 (16 MB).
    fn machine_with_pl() -> (Machine, Vec<(CoreKind, PhysAddr, u32)>) {
        let mut m = Machine::default();
        m.add_peripheral(Box::new(Pl::new(PlConfig::default())));
        let mut lib = Vec::new();
        let mut at = 0x100_0000u64;
        for core in crate::bitstream::paper_task_set() {
            let compat = FabricConfig::paper_fabric().compatible_prrs(core);
            let bs = Bitstream::for_core(core, &compat);
            let bytes = bs.encode();
            m.load_bytes(PhysAddr::new(at), &bytes).unwrap();
            lib.push((core, PhysAddr::new(at), bytes.len() as u32));
            at += (bytes.len() as u64).next_multiple_of(0x1000);
        }
        (m, lib)
    }

    fn reg(off: u64) -> PhysAddr {
        PhysAddr::new(PL_GP_BASE + off)
    }

    fn pcap_load(m: &mut Machine, src: PhysAddr, len: u32, target: u8) {
        m.phys_write_u32(reg(plregs::PCAP_SRC), src.raw() as u32)
            .unwrap();
        m.phys_write_u32(reg(plregs::PCAP_LEN), len).unwrap();
        m.phys_write_u32(reg(plregs::PCAP_TARGET), target as u32)
            .unwrap();
        m.phys_write_u32(reg(plregs::PCAP_CTRL), 1).unwrap();
    }

    fn pcap_wait(m: &mut Machine) -> u32 {
        for _ in 0..10_000 {
            let s = m.phys_read_u32(reg(plregs::PCAP_STATUS)).unwrap();
            if s != pcap_status::BUSY {
                return s;
            }
            m.charge(10_000);
            m.sync_devices();
        }
        panic!("PCAP stuck busy");
    }

    #[test]
    fn pcap_reconfigures_a_prr() {
        let (mut m, lib) = machine_with_pl();
        let (core, src, len) = lib[0]; // FFT-256, compat PRR0/1
        pcap_load(&mut m, src, len, 0);
        assert_eq!(
            m.phys_read_u32(reg(plregs::PCAP_STATUS)).unwrap(),
            pcap_status::BUSY
        );
        assert_eq!(pcap_wait(&mut m), pcap_status::DONE);
        let pl: &Pl = m.peripheral::<Pl>().unwrap();
        assert_eq!(pl.prr(0).loaded_kind(), Some(core));
        assert_eq!(pl.pcap_transfers(), 1);
    }

    #[test]
    fn pcap_latency_scales_with_bitstream_size() {
        let (mut m, lib) = machine_with_pl();
        let (_, src_big, len_big) = lib[5]; // FFT-8192
        let qam = lib
            .iter()
            .find(|(c, _, _)| matches!(c, CoreKind::Qam { bits_per_symbol: 2 }))
            .unwrap();
        let t0 = m.now();
        pcap_load(&mut m, src_big, len_big, 0);
        pcap_wait(&mut m);
        let t_big = (m.now() - t0).raw();
        let t1 = m.now();
        pcap_load(&mut m, qam.1, qam.2, 2);
        pcap_wait(&mut m);
        let t_small = (m.now() - t1).raw();
        assert!(t_big > 3 * t_small, "big={t_big} small={t_small}");
        // Absolute scale sanity: FFT-8192 bitstream ~ around 1-4 ms.
        let ms = Cycles::new(t_big).as_millis();
        assert!(ms > 0.5 && ms < 10.0, "{ms} ms");
    }

    #[test]
    fn pcap_refuses_incompatible_prr() {
        let (mut m, lib) = machine_with_pl();
        let (_, src, len) = lib[5]; // FFT-8192: only PRR0/1
        pcap_load(&mut m, src, len, 3);
        assert_eq!(pcap_wait(&mut m), pcap_status::ERROR);
        assert_eq!(
            m.phys_read_u32(reg(plregs::PCAP_ERR)).unwrap(),
            pcap_err::INCOMPATIBLE
        );
    }

    #[test]
    fn pcap_rejects_garbage_and_bad_target() {
        let (mut m, _) = machine_with_pl();
        m.load_bytes(PhysAddr::new(0x50_0000), &[0u8; 64]).unwrap();
        pcap_load(&mut m, PhysAddr::new(0x50_0000), 64, 0);
        assert_eq!(pcap_wait(&mut m), pcap_status::ERROR);
        assert_eq!(
            m.phys_read_u32(reg(plregs::PCAP_ERR)).unwrap(),
            pcap_err::BAD_BITSTREAM
        );
        pcap_load(&mut m, PhysAddr::new(0x50_0000), 64, 99);
        assert_eq!(
            m.phys_read_u32(reg(plregs::PCAP_STATUS)).unwrap(),
            pcap_status::ERROR
        );
        assert_eq!(
            m.phys_read_u32(reg(plregs::PCAP_ERR)).unwrap(),
            pcap_err::BAD_TARGET
        );
    }

    #[test]
    fn pcap_completion_irq_when_enabled() {
        let (mut m, lib) = machine_with_pl();
        m.phys_write_u32(reg(plregs::PCAP_IRQ_EN), 1).unwrap();
        m.gic.enable(IrqNum::PCAP_DONE);
        let (_, src, len) = lib[6]; // QAM-4
        pcap_load(&mut m, src, len, 2);
        pcap_wait(&mut m);
        assert!(m.gic.is_pending(IrqNum::PCAP_DONE));
    }

    #[test]
    fn full_hardware_task_run_through_mmio() {
        let (mut m, lib) = machine_with_pl();
        let qam = lib
            .iter()
            .find(|(c, _, _)| matches!(c, CoreKind::Qam { bits_per_symbol: 4 }))
            .unwrap();
        pcap_load(&mut m, qam.1, qam.2, 1);
        pcap_wait(&mut m);

        // Program the hwMMU window for PRR1 (data section at 0x80_0000).
        let section = PhysAddr::new(0x80_0000);
        m.phys_write_u32(reg(plregs::HWMMU_SEL), 1).unwrap();
        m.phys_write_u32(reg(plregs::HWMMU_BASE), section.raw() as u32)
            .unwrap();
        m.phys_write_u32(reg(plregs::HWMMU_LEN), 0x10000).unwrap();

        // Route PRR1's IRQ to PL line 2 and enable at the GIC.
        m.phys_write_u32(reg(plregs::IRQ_ROUTE), (1 << 8) | 2)
            .unwrap();
        m.gic.enable(IrqNum::pl(2));

        // Input data inside the section.
        let input: Vec<u8> = (0..32).collect();
        m.load_bytes(section, &input).unwrap();

        // Program the PRR register group through its own page.
        let page = Pl::prr_page(1);
        m.phys_write_u32(page + 4 * regs::SRC_ADDR as u64, section.raw() as u32)
            .unwrap();
        m.phys_write_u32(page + 4 * regs::SRC_LEN as u64, 32)
            .unwrap();
        m.phys_write_u32(
            page + 4 * regs::DST_ADDR as u64,
            (section.raw() + 0x1000) as u32,
        )
        .unwrap();
        m.phys_write_u32(page + 4 * regs::DST_LEN as u64, 0x1000)
            .unwrap();
        m.phys_write_u32(page + 4 * regs::CTRL as u64, ctrl::START | ctrl::IRQ_EN)
            .unwrap();

        // Let it run.
        for _ in 0..1000 {
            if m.gic.is_pending(IrqNum::pl(2)) {
                break;
            }
            m.charge(1000);
            m.sync_devices();
        }
        assert!(m.gic.is_pending(IrqNum::pl(2)), "completion IRQ missing");
        assert_eq!(
            m.phys_read_u32(page + 4 * regs::STATUS as u64).unwrap(),
            status::DONE
        );
        let rlen = m.phys_read_u32(page + 4 * regs::RESULT_LEN as u64).unwrap();
        assert_eq!(rlen as usize, 64 * 8); // 32 B = 256 bits -> 64 QAM-16 symbols

        // Cross-check the data against the functional model.
        let mut got = vec![0u8; rlen as usize];
        m.mem.read(section + 0x1000, &mut got).unwrap();
        let expected = crate::cores::qam::qam_map(&input, 4);
        assert_eq!(crate::cores::bytes_to_complex(&got), expected);
    }

    /// Like [`machine_with_pl`] but with an armed fault plane cloned into
    /// the PL (the way the kernel shares one plane with the machine).
    fn machine_with_faulty_pl(
        plan: mnv_fault::FaultPlan,
    ) -> (
        Machine,
        Vec<(CoreKind, PhysAddr, u32)>,
        mnv_fault::FaultPlane,
    ) {
        let (mut m, lib) = machine_with_pl();
        let plane = mnv_fault::FaultPlane::armed(plan);
        let pl: &mut Pl = m.peripheral_mut::<Pl>().unwrap();
        pl.set_fault_plane(plane.clone());
        (m, lib, plane)
    }

    #[test]
    fn pcap_rejects_corrupted_payload_with_crc_mismatch() {
        let (mut m, lib) = machine_with_pl();
        let (_, src, len) = lib[0];
        // Damage one payload byte in DDR — the header stays pristine, so
        // only the payload CRC can catch this.
        let addr = src + crate::bitstream::HEADER_LEN as u64 + 101;
        let mut b = [0u8; 1];
        m.mem.read(addr, &mut b).unwrap();
        m.mem.write(addr, &[b[0] ^ 0x20]).unwrap();
        pcap_load(&mut m, src, len, 0);
        assert_eq!(pcap_wait(&mut m), pcap_status::ERROR);
        assert_eq!(
            m.phys_read_u32(reg(plregs::PCAP_ERR)).unwrap(),
            pcap_err::CRC_MISMATCH
        );
        let pl: &Pl = m.peripheral::<Pl>().unwrap();
        assert_eq!(pl.prr(0).loaded_kind(), None, "no core may load");
    }

    #[test]
    fn injected_pcap_corruption_is_caught_by_crc() {
        let mut plan = mnv_fault::FaultPlan::none(11);
        plan.pcap_corrupt = mnv_fault::SiteCfg::new(1_000_000, 1);
        let (mut m, lib, plane) = machine_with_faulty_pl(plan);
        let (_, src, len) = lib[0];
        pcap_load(&mut m, src, len, 0);
        assert_eq!(pcap_wait(&mut m), pcap_status::ERROR);
        assert_eq!(
            m.phys_read_u32(reg(plregs::PCAP_ERR)).unwrap(),
            pcap_err::CRC_MISMATCH
        );
        assert_eq!(plane.count(mnv_fault::FaultSite::PcapCorrupt), 1);
        // The cap is spent: a retry goes through clean.
        pcap_load(&mut m, src, len, 0);
        assert_eq!(pcap_wait(&mut m), pcap_status::DONE);
    }

    #[test]
    fn stalled_pcap_holds_busy_until_aborted() {
        let mut plan = mnv_fault::FaultPlan::none(3);
        plan.pcap_stall = mnv_fault::SiteCfg::new(1_000_000, 1);
        let (mut m, lib, _plane) = machine_with_faulty_pl(plan);
        let (_, src, len) = lib[0];
        pcap_load(&mut m, src, len, 0);
        // Far past any legitimate transfer time, still BUSY.
        for _ in 0..100 {
            m.charge(100_000);
            m.sync_devices();
        }
        assert_eq!(
            m.phys_read_u32(reg(plregs::PCAP_STATUS)).unwrap(),
            pcap_status::BUSY
        );
        // Abort recovers the port.
        m.phys_write_u32(reg(plregs::PCAP_CTRL), 0b10).unwrap();
        assert_eq!(
            m.phys_read_u32(reg(plregs::PCAP_STATUS)).unwrap(),
            pcap_status::ERROR
        );
        assert_eq!(
            m.phys_read_u32(reg(plregs::PCAP_ERR)).unwrap(),
            pcap_err::ABORTED
        );
        // And the next transfer (stall cap spent) completes.
        pcap_load(&mut m, src, len, 0);
        assert_eq!(pcap_wait(&mut m), pcap_status::DONE);
    }

    #[test]
    fn injected_prr_hang_wedges_engine_forever() {
        let mut plan = mnv_fault::FaultPlan::none(5);
        plan.prr_hang = mnv_fault::SiteCfg::new(1_000_000, 1);
        let (mut m, lib, _plane) = machine_with_faulty_pl(plan);
        let qam = lib
            .iter()
            .find(|(c, _, _)| matches!(c, CoreKind::Qam { bits_per_symbol: 2 }))
            .unwrap();
        pcap_load(&mut m, qam.1, qam.2, 0);
        assert_eq!(pcap_wait(&mut m), pcap_status::DONE);
        let section = PhysAddr::new(0x80_0000);
        m.phys_write_u32(reg(plregs::HWMMU_SEL), 0).unwrap();
        m.phys_write_u32(reg(plregs::HWMMU_BASE), section.raw() as u32)
            .unwrap();
        m.phys_write_u32(reg(plregs::HWMMU_LEN), 0x10000).unwrap();
        m.load_bytes(section, &[7u8; 16]).unwrap();
        let page = Pl::prr_page(0);
        m.phys_write_u32(page + 4 * regs::SRC_ADDR as u64, section.raw() as u32)
            .unwrap();
        m.phys_write_u32(page + 4 * regs::SRC_LEN as u64, 16)
            .unwrap();
        m.phys_write_u32(
            page + 4 * regs::DST_ADDR as u64,
            (section.raw() + 0x1000) as u32,
        )
        .unwrap();
        m.phys_write_u32(page + 4 * regs::DST_LEN as u64, 0x1000)
            .unwrap();
        m.phys_write_u32(page + 4 * regs::CTRL as u64, ctrl::START)
            .unwrap();
        for _ in 0..100 {
            m.charge(100_000);
            m.sync_devices();
        }
        assert_eq!(
            m.phys_read_u32(page + 4 * regs::STATUS as u64).unwrap(),
            status::BUSY,
            "hung engine must hold BUSY"
        );
        let pl: &Pl = m.peripheral::<Pl>().unwrap();
        assert!(pl.prr(0).is_hung());
    }

    #[test]
    fn irq_route_readback_and_clear() {
        let (mut m, _) = machine_with_pl();
        m.phys_write_u32(reg(plregs::IRQ_ROUTE), (2 << 8) | 7)
            .unwrap();
        assert_eq!(m.phys_read_u32(reg(plregs::IRQ_ROUTE_RD + 8)).unwrap(), 7);
        let pl: &Pl = m.peripheral::<Pl>().unwrap();
        assert_eq!(pl.route_of(2), Some(IrqNum::pl(7)));
        m.phys_write_u32(reg(plregs::IRQ_ROUTE), (2 << 8) | 0xFF)
            .unwrap();
        assert_eq!(
            m.phys_read_u32(reg(plregs::IRQ_ROUTE_RD + 8)).unwrap(),
            0xFF
        );
    }

    #[test]
    fn hwmmu_violation_visible_through_controller_page() {
        let (mut m, lib) = machine_with_pl();
        let qam = lib
            .iter()
            .find(|(c, _, _)| matches!(c, CoreKind::Qam { bits_per_symbol: 2 }))
            .unwrap();
        pcap_load(&mut m, qam.1, qam.2, 0);
        pcap_wait(&mut m);
        // No hwMMU window programmed: starting must violate.
        let page = Pl::prr_page(0);
        m.phys_write_u32(page + 4 * regs::SRC_ADDR as u64, 0x10_0000)
            .unwrap();
        m.phys_write_u32(page + 4 * regs::SRC_LEN as u64, 16)
            .unwrap();
        m.phys_write_u32(page + 4 * regs::DST_ADDR as u64, 0x10_1000)
            .unwrap();
        m.phys_write_u32(page + 4 * regs::DST_LEN as u64, 4096)
            .unwrap();
        m.phys_write_u32(page + 4 * regs::CTRL as u64, ctrl::START)
            .unwrap();
        assert_eq!(
            m.phys_read_u32(page + 4 * regs::STATUS as u64).unwrap(),
            status::ERROR
        );
        assert_eq!(m.phys_read_u32(reg(plregs::HWMMU_VIOL)).unwrap(), 1);
    }
}
