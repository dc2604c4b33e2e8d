//! The trace event taxonomy.
//!
//! One variant per kernel mechanism the paper's evaluation measures: traps,
//! hypercalls, world switches, scheduler decisions, virtual-interrupt
//! injection, the Hardware Task Manager's three phases, PCAP transfers and
//! PRR reconfigurations, TLB maintenance and fault forwarding.
//!
//! Events are `Copy` and carry no owned data — recording one is a couple of
//! stores into a preallocated ring, never an allocation or a format.

use core::fmt;

/// Exception classes as seen by the tracer (mirrors the simulator's
/// `ExceptionKind` without depending on it — the dependency arrow points
/// from the simulator to this crate).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TrapKind {
    /// Reset entry.
    Reset,
    /// Undefined instruction (trap-and-emulate, lazy VFP).
    Undefined,
    /// Supervisor call — the hypercall trap.
    Svc,
    /// Prefetch abort.
    PrefetchAbort,
    /// Data abort.
    DataAbort,
    /// Physical interrupt.
    Irq,
    /// Fast interrupt.
    Fiq,
}

impl TrapKind {
    /// Short label used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            TrapKind::Reset => "trap:reset",
            TrapKind::Undefined => "trap:und",
            TrapKind::Svc => "trap:svc",
            TrapKind::PrefetchAbort => "trap:pabt",
            TrapKind::DataAbort => "trap:dabt",
            TrapKind::Irq => "trap:irq",
            TrapKind::Fiq => "trap:fiq",
        }
    }
}

/// The three measured phases of the Hardware Task Manager invocation
/// protocol (the Table III rows).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum MgrPhase {
    /// Caller save + switch into the manager's memory space.
    Entry,
    /// The manager's own request handling.
    Exec,
    /// Switch back into the interrupted guest.
    Exit,
}

impl MgrPhase {
    /// Short label used by the exporters.
    pub fn name(self) -> &'static str {
        match self {
            MgrPhase::Entry => "mgr:entry",
            MgrPhase::Exec => "mgr:exec",
            MgrPhase::Exit => "mgr:exit",
        }
    }
}

/// One trace event. VM ids are raw `u16`s (0 means "the kernel itself").
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// An exception was taken (span begin on the kernel track).
    TrapEnter {
        /// Exception class.
        kind: TrapKind,
    },
    /// Return from the innermost open trap (span end, paired by the
    /// exporters with the most recent unmatched [`TraceEvent::TrapEnter`]).
    TrapExit,
    /// A hypercall was dispatched.
    Hypercall {
        /// The SVC immediate (see `mnv_hal::abi::Hypercall`).
        nr: u8,
    },
    /// World switch. `from`/`to` of 0 denote the kernel, so a switch into a
    /// VM is `{from: 0, to: vm}` and a switch out is `{from: vm, to: 0}`.
    VmSwitch {
        /// Previous owner of the CPU.
        from: u16,
        /// New owner of the CPU.
        to: u16,
    },
    /// The scheduler picked a VM to dispatch.
    SchedPick {
        /// The chosen VM.
        vm: u16,
    },
    /// The vGIC injected a virtual interrupt.
    VirqInject {
        /// Receiving VM.
        vm: u16,
        /// Interrupt number.
        irq: u16,
    },
    /// A Hardware-Task-Manager phase boundary. Each phase emits a begin
    /// (`end: false`) and an end (`end: true`) event.
    HwMgrPhase {
        /// Which phase.
        phase: MgrPhase,
        /// False at the phase start, true at its completion.
        end: bool,
    },
    /// A PCAP bitstream transfer started (`end: false`) or completed
    /// (`end: true`).
    PcapDma {
        /// Transfer length in bytes.
        bytes: u32,
        /// False at launch, true at completion.
        end: bool,
    },
    /// A PRR was reconfigured with a new core.
    PrrReconfig {
        /// The region.
        prr: u8,
        /// Compact core code: `0x100 | log2(points)` for FFT cores,
        /// `0x200 | bits_per_symbol` for QAM cores.
        task: u32,
    },
    /// TLB maintenance was issued (any of TLBIALL/TLBIASID/TLBIMVA).
    TlbFlush,
    /// A guest fault was forwarded to the guest's handler (or killed it).
    FaultForwarded {
        /// The faulting VM.
        vm: u16,
    },
    /// The fault plane injected a hardware fault.
    FaultInjected {
        /// `mnv_fault::FaultSite` discriminant (kept as a raw `u8` so the
        /// dependency arrow stays pointing at this crate).
        site: u8,
    },
    /// The kernel relaunched a failed PCAP transfer.
    PcapRetry {
        /// Target PRR.
        prr: u8,
        /// Retry attempt number (1 = first relaunch).
        attempt: u8,
    },
    /// The reconfiguration watchdog quarantined a PRR.
    PrrQuarantine {
        /// The region taken out of service.
        prr: u8,
    },
    /// A hardware task was served by the software fallback implementation.
    SwFallback {
        /// Owning VM.
        vm: u16,
        /// The degraded task.
        task: u32,
    },
    /// The kernel killed a VM on an unrecoverable fault.
    VmKilled {
        /// The terminated VM.
        vm: u16,
    },
    /// The supervisor relaunched a killed VM from its registered image.
    VmRestart {
        /// The restarted VM.
        vm: u16,
        /// Restart attempt number within the crash-loop window (1 = first).
        attempt: u8,
    },
    /// A background scrub of a quarantined PRR completed.
    PrrScrub {
        /// The region under scrub.
        prr: u8,
        /// True when the test reconfiguration passed CRC/readback.
        pass: bool,
    },
    /// A quarantined PRR passed enough scrubs and returned to the
    /// first-fit pool.
    PrrReinstate {
        /// The reinstated region.
        prr: u8,
    },
    /// A PRR failed too many scrubs and was retired permanently.
    PrrRetire {
        /// The retired region.
        prr: u8,
    },
    /// A software-fallback client's request found a compatible region:
    /// its shadow is dropped and the six-stage routine dispatches it on
    /// fabric again.
    Repromote {
        /// Owning VM.
        vm: u16,
        /// The re-promoted task.
        task: u32,
        /// The region now serving it.
        prr: u8,
    },
    /// The hardware-task escalation ladder advanced a rung on a hung
    /// region: 1 = retry-same-PRR, 2 = relocate-to-compatible-PRR,
    /// 3 = software fallback, 4 = error to the guest.
    HwTaskEscalate {
        /// The hung region.
        prr: u8,
        /// The rung entered.
        rung: u8,
    },
    /// Root span of one request-scoped causal trace: minted at hardware-task
    /// hypercall entry (`end: false`), closed when the completion vIRQ is
    /// delivered to the running guest — or, for a buffered completion, when
    /// the guest resumes with it (`end: true`).
    ReqSpan {
        /// Monotonic per-machine request id (never 0).
        req: u32,
        /// Requesting VM.
        vm: u16,
        /// False at mint, true at terminal delivery.
        end: bool,
    },
    /// A stage stamp on a request's causal chain: the six-stage allocation
    /// routine plus every post-allocation hop (PCAP launch/retry/done,
    /// escalation rungs, software fallback, completion vIRQ, guest resume).
    /// Waterfalls are reconstructed as deltas between consecutive stamps of
    /// the same `req` (see [`req_stage_name`] for the taxonomy).
    ReqStage {
        /// The request this stamp belongs to.
        req: u32,
        /// Stage code (see [`req_stage_name`]).
        stage: u8,
    },
    /// The SLO engine detected an error-budget burn: too many requests on
    /// one interface family blew their latency objective within a window.
    SloBurn {
        /// Interface family code (see [`iface_name`]).
        iface: u8,
        /// Objective violations accumulated in the burning window.
        violations: u16,
    },
}

/// Request-stage codes used by [`TraceEvent::ReqStage`].
pub mod req_stage {
    /// Allocation-routine stages 1..=6 use their stage number directly.
    pub const ALLOC_BASE: u8 = 0; // stage n => code n (1..=6)
    /// A PCAP transfer was launched for this request.
    pub const PCAP_LAUNCH: u8 = 10;
    /// A failed PCAP transfer was relaunched.
    pub const PCAP_RETRY: u8 = 11;
    /// The PCAP transfer completed and the region is configured.
    pub const PCAP_DONE: u8 = 12;
    /// The PCAP transfer was aborted (retries exhausted, watchdog, or the
    /// region was reclaimed before the load finished).
    pub const PCAP_ABORT: u8 = 13;
    /// The request's PCAP job waits behind another client's transfer; its
    /// `pcap:launch` stamp follows when the channel frees.
    pub const PCAP_QUEUED: u8 = 14;
    /// Escalation ladder rung 1: restart in place.
    pub const LADDER_RETRY: u8 = 20;
    /// Escalation ladder rung 2: relocate to a compatible region.
    pub const LADDER_RELOCATE: u8 = 21;
    /// Escalation ladder rung 3: software fallback.
    pub const LADDER_FALLBACK: u8 = 22;
    /// Escalation ladder rung 4: error to the guest.
    pub const LADDER_ERROR: u8 = 23;
    /// The request was dispatched to the software-fallback lane.
    pub const SW_DISPATCH: u8 = 30;
    /// The software-fallback lane published the completed run.
    pub const SW_DONE: u8 = 31;
    /// The completion vIRQ was injected into the running owner.
    pub const VIRQ_INJECT: u8 = 40;
    /// The completion vIRQ was buffered (owner not running).
    pub const VIRQ_BUFFER: u8 = 41;
    /// The owner resumed and drained the buffered completion.
    pub const RESUME: u8 = 42;
    /// The allocation failed and the request terminated with an error.
    pub const FAILED: u8 = 50;
    /// The request was released/abandoned before a completion delivered.
    pub const RELEASED: u8 = 51;
    /// The request was posted as a shared-ring descriptor (`RingKick`
    /// accepted it into the kernel's queue).
    pub const RING_POST: u8 = 60;
    /// The ring engine published the descriptor's completion to the used
    /// ring (the guest-visible result is in place).
    pub const RING_DONE: u8 = 61;
}

/// Exporter-facing name of a [`TraceEvent::ReqStage`] code.
pub fn req_stage_name(stage: u8) -> &'static str {
    match stage {
        1 => "alloc:s1",
        2 => "alloc:s2",
        3 => "alloc:s3",
        4 => "alloc:s4",
        5 => "alloc:s5",
        6 => "alloc:s6",
        req_stage::PCAP_LAUNCH => "pcap:launch",
        req_stage::PCAP_RETRY => "pcap:retry",
        req_stage::PCAP_DONE => "pcap:done",
        req_stage::PCAP_ABORT => "pcap:abort",
        req_stage::PCAP_QUEUED => "pcap:queued",
        req_stage::LADDER_RETRY => "ladder:retry",
        req_stage::LADDER_RELOCATE => "ladder:relocate",
        req_stage::LADDER_FALLBACK => "ladder:fallback",
        req_stage::LADDER_ERROR => "ladder:error",
        req_stage::SW_DISPATCH => "sw:dispatch",
        req_stage::SW_DONE => "sw:done",
        req_stage::VIRQ_INJECT => "virq:inject",
        req_stage::VIRQ_BUFFER => "virq:buffer",
        req_stage::RESUME => "resume",
        req_stage::FAILED => "failed",
        req_stage::RELEASED => "released",
        req_stage::RING_POST => "ring:post",
        req_stage::RING_DONE => "ring:done",
        _ => "stage:?",
    }
}

/// Interface-family names used by [`TraceEvent::SloBurn`] and the SLO
/// engine's per-interface objectives (0 = FFT, 1 = QAM, 2 = FIR).
pub fn iface_name(iface: u8) -> &'static str {
    match iface {
        0 => "fft",
        1 => "qam",
        2 => "fir",
        _ => "iface:?",
    }
}

impl TraceEvent {
    /// Stable name of the event's *kind* (ignoring payload), used by the
    /// summary exporter and by tests counting distinct event types.
    pub fn kind_name(&self) -> &'static str {
        match self {
            TraceEvent::TrapEnter { .. } => "TrapEnter",
            TraceEvent::TrapExit => "TrapExit",
            TraceEvent::Hypercall { .. } => "Hypercall",
            TraceEvent::VmSwitch { .. } => "VmSwitch",
            TraceEvent::SchedPick { .. } => "SchedPick",
            TraceEvent::VirqInject { .. } => "VirqInject",
            TraceEvent::HwMgrPhase { .. } => "HwMgrPhase",
            TraceEvent::PcapDma { .. } => "PcapDma",
            TraceEvent::PrrReconfig { .. } => "PrrReconfig",
            TraceEvent::TlbFlush => "TlbFlush",
            TraceEvent::FaultForwarded { .. } => "FaultForwarded",
            TraceEvent::FaultInjected { .. } => "FaultInjected",
            TraceEvent::PcapRetry { .. } => "PcapRetry",
            TraceEvent::PrrQuarantine { .. } => "PrrQuarantine",
            TraceEvent::SwFallback { .. } => "SwFallback",
            TraceEvent::VmKilled { .. } => "VmKilled",
            TraceEvent::VmRestart { .. } => "VmRestart",
            TraceEvent::PrrScrub { .. } => "PrrScrub",
            TraceEvent::PrrReinstate { .. } => "PrrReinstate",
            TraceEvent::PrrRetire { .. } => "PrrRetire",
            TraceEvent::Repromote { .. } => "Repromote",
            TraceEvent::HwTaskEscalate { .. } => "HwTaskEscalate",
            TraceEvent::ReqSpan { .. } => "ReqSpan",
            TraceEvent::ReqStage { .. } => "ReqStage",
            TraceEvent::SloBurn { .. } => "SloBurn",
        }
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self:?}")
    }
}
