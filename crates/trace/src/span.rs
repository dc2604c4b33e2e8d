//! Track assignment and span begin/end pairing.
//!
//! Both exporters see the same view of a trace: events are placed on tracks
//! (kernel, HW Manager, PCAP, one per VM), begin/end pairs are matched with
//! a per-track stack, unmatched ends are dropped and unclosed begins are
//! closed at the trace's final timestamp — so a ring that wrapped mid-span
//! still renders as a well-formed timeline.

use crate::event::{iface_name, req_stage_name, TraceEvent};
use core::fmt;
use mnv_hal::Cycles;

/// Logical track (maps to a Chrome-trace "thread").
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Track {
    /// Kernel entry/exit paths, scheduler, TLB maintenance.
    Kernel,
    /// The Hardware Task Manager service.
    HwMgr,
    /// The PCAP reconfiguration port.
    Pcap,
    /// Request-scoped causal chains (root spans + stage stamps).
    Req,
    /// One guest VM.
    Vm(u16),
}

impl Track {
    /// Chrome-trace thread id.
    pub fn tid(self) -> u32 {
        match self {
            Track::Kernel => 1,
            Track::HwMgr => 2,
            Track::Pcap => 3,
            Track::Req => 4,
            Track::Vm(v) => 10 + v as u32,
        }
    }

    /// Human-readable thread name.
    pub fn name(self) -> String {
        match self {
            Track::Kernel => "kernel".into(),
            Track::HwMgr => "hw-manager".into(),
            Track::Pcap => "pcap".into(),
            Track::Req => "requests".into(),
            Track::Vm(v) => format!("vm{v}"),
        }
    }
}

/// What a span or instant is called: the event that named it, or the VM
/// `running` span derived from world switches. A `Copy` value, rendered to
/// text only when an exporter writes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Label {
    /// Named by this event (a begin event for spans).
    Event(TraceEvent),
    /// A VM's time on the CPU, between the world switches into and out of it.
    Running,
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ev = match *self {
            Label::Running => return f.write_str("running"),
            Label::Event(ev) => ev,
        };
        match ev {
            TraceEvent::TrapEnter { kind } => f.write_str(kind.name()),
            // An end event never names a record.
            TraceEvent::TrapExit => f.write_str(ev.kind_name()),
            TraceEvent::Hypercall { nr } => match mnv_hal::abi::Hypercall::from_nr(nr) {
                Some(hc) => write!(f, "hc:{hc:?}"),
                None => write!(f, "hc:#{nr}"),
            },
            TraceEvent::VmSwitch { from, to } => write!(f, "switch {from}->{to}"),
            TraceEvent::SchedPick { vm } => write!(f, "pick vm{vm}"),
            TraceEvent::VirqInject { irq, .. } => write!(f, "virq {irq}"),
            TraceEvent::HwMgrPhase { phase, .. } => f.write_str(phase.name()),
            TraceEvent::PcapDma { bytes, .. } => write!(f, "pcap-dma {bytes}B"),
            TraceEvent::PrrReconfig { prr, task } => {
                write!(f, "reconfig prr{prr} core:{task:#x}")
            }
            TraceEvent::TlbFlush => f.write_str("tlb-flush"),
            TraceEvent::FaultForwarded { .. } => f.write_str("fault-forwarded"),
            TraceEvent::FaultInjected { site } => write!(f, "fault-injected site:{site}"),
            TraceEvent::PcapRetry { prr, attempt } => write!(f, "pcap-retry prr{prr} #{attempt}"),
            TraceEvent::PrrQuarantine { prr } => write!(f, "quarantine prr{prr}"),
            TraceEvent::SwFallback { task, .. } => write!(f, "sw-fallback task:{task}"),
            TraceEvent::VmKilled { .. } => f.write_str("vm-killed"),
            TraceEvent::VmRestart { attempt, .. } => write!(f, "vm-restart #{attempt}"),
            TraceEvent::PrrScrub { prr, pass } => {
                write!(f, "scrub prr{prr} {}", if pass { "pass" } else { "fail" })
            }
            TraceEvent::PrrReinstate { prr } => write!(f, "reinstate prr{prr}"),
            TraceEvent::PrrRetire { prr } => write!(f, "retire prr{prr}"),
            TraceEvent::Repromote { task, prr, .. } => {
                write!(f, "repromote task:{task} -> prr{prr}")
            }
            TraceEvent::HwTaskEscalate { prr, rung } => write!(f, "escalate prr{prr} rung{rung}"),
            TraceEvent::ReqSpan { req, vm, .. } => write!(f, "r{req} vm{vm}"),
            TraceEvent::ReqStage { req, stage } => write!(f, "r{req}:{}", req_stage_name(stage)),
            TraceEvent::SloBurn { iface, violations } => {
                write!(f, "slo-burn {} x{violations}", iface_name(iface))
            }
        }
    }
}

/// A completed (paired) span.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Span {
    /// Track the span lives on.
    pub track: Track,
    /// Span name (its `Display` text).
    pub label: Label,
    /// Begin timestamp.
    pub start: Cycles,
    /// End timestamp.
    pub end: Cycles,
    /// Request id this span belongs to (0 = not request-scoped).
    pub req: u32,
}

impl Span {
    /// Span duration in cycles.
    pub fn cycles(&self) -> u64 {
        self.end.raw().saturating_sub(self.start.raw())
    }
}

/// An instantaneous event.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Instant {
    /// Track the marker lives on.
    pub track: Track,
    /// Marker name (its `Display` text).
    pub label: Label,
    /// Timestamp.
    pub ts: Cycles,
    /// Request id this marker belongs to (0 = not request-scoped).
    pub req: u32,
}

/// The paired view of a trace.
#[derive(Clone, Debug, Default)]
pub struct PairedTrace {
    /// Completed spans (begin/end matched, unclosed begins force-closed at
    /// the trace end).
    pub spans: Vec<Span>,
    /// Instant markers.
    pub instants: Vec<Instant>,
    /// End events whose begin was lost to ring wraparound (or whose
    /// surviving candidate named a *different* span — a stale slot that
    /// must not be paired into a bogus duration).
    pub orphan_spans: u64,
}

struct Open {
    track: Track,
    label: Label,
    start: Cycles,
    req: u32,
}

/// Pair a raw oldest-first event stream into spans and instants.
pub fn pair(events: &[(Cycles, TraceEvent)]) -> PairedTrace {
    let mut out = PairedTrace::default();
    // Per-track begin stacks; tracks are few, a linear scan is fine.
    let mut open: Vec<Open> = Vec::new();
    let mut last_ts = Cycles::ZERO;
    // The VM whose "running" span is currently open (VmSwitch pairing).
    let mut running: Option<u16> = None;

    let begin = |open: &mut Vec<Open>, track: Track, label: Label, ts: Cycles, req: u32| {
        open.push(Open {
            track,
            label,
            start: ts,
            req,
        });
    };
    // `expect`: when the end event itself names the span it closes (manager
    // phases, PCAP transfers, derived running spans), a surviving begin
    // with a different label is a *stale slot* — its real begin was evicted
    // by ring wraparound — and pairing against it would fabricate a bogus
    // duration. Such ends (and ends with no candidate at all) are counted
    // as orphans instead. `req != 0` additionally demands an exact
    // request-id match.
    let end = |open: &mut Vec<Open>,
               out: &mut PairedTrace,
               track: Track,
               ts: Cycles,
               expect: Option<Label>,
               req: u32| {
        // Innermost unmatched begin on this track (and label/req, if known).
        let found = open
            .iter()
            .rposition(|o| o.track == track && o.req == req && expect.is_none_or(|l| o.label == l));
        match found {
            Some(i) => {
                let o = open.remove(i);
                out.spans.push(Span {
                    track: o.track,
                    label: o.label,
                    start: o.start,
                    end: ts,
                    req: o.req,
                });
            }
            None => out.orphan_spans += 1,
        }
    };

    for &(ts, ev) in events {
        last_ts = last_ts.max(ts);
        let label = Label::Event(ev);
        // Every event that is not a span boundary is an instant marker
        // on this track (VmSwitch is both).
        let marker = match ev {
            TraceEvent::TrapEnter { .. } => {
                begin(&mut open, Track::Kernel, label, ts, 0);
                None
            }
            TraceEvent::TrapExit => {
                end(&mut open, &mut out, Track::Kernel, ts, None, 0);
                None
            }
            TraceEvent::VmSwitch { from, to } => {
                if let Some(v) = running.take().filter(|&v| v == from && v != 0) {
                    end(
                        &mut open,
                        &mut out,
                        Track::Vm(v),
                        ts,
                        Some(Label::Running),
                        0,
                    );
                }
                if to != 0 {
                    begin(&mut open, Track::Vm(to), Label::Running, ts, 0);
                    running = Some(to);
                }
                Some((Track::Kernel, 0))
            }
            TraceEvent::HwMgrPhase { phase, end: true } => {
                let named = Label::Event(TraceEvent::HwMgrPhase { phase, end: false });
                end(&mut open, &mut out, Track::HwMgr, ts, Some(named), 0);
                None
            }
            TraceEvent::HwMgrPhase { end: false, .. } => {
                begin(&mut open, Track::HwMgr, label, ts, 0);
                None
            }
            TraceEvent::PcapDma { bytes, end: true } => {
                let named = Label::Event(TraceEvent::PcapDma { bytes, end: false });
                end(&mut open, &mut out, Track::Pcap, ts, Some(named), 0);
                None
            }
            TraceEvent::PcapDma { end: false, .. } => {
                begin(&mut open, Track::Pcap, label, ts, 0);
                None
            }
            TraceEvent::ReqSpan { req, end: true, .. } => {
                end(&mut open, &mut out, Track::Req, ts, None, req);
                None
            }
            TraceEvent::ReqSpan {
                req, end: false, ..
            } => {
                begin(&mut open, Track::Req, label, ts, req);
                None
            }
            TraceEvent::ReqStage { req, .. } => Some((Track::Req, req)),
            TraceEvent::Hypercall { .. }
            | TraceEvent::SchedPick { .. }
            | TraceEvent::TlbFlush
            | TraceEvent::FaultInjected { .. } => Some((Track::Kernel, 0)),
            TraceEvent::VirqInject { vm, .. }
            | TraceEvent::FaultForwarded { vm }
            | TraceEvent::SwFallback { vm, .. }
            | TraceEvent::VmKilled { vm }
            | TraceEvent::VmRestart { vm, .. }
            | TraceEvent::Repromote { vm, .. } => Some((Track::Vm(vm), 0)),
            TraceEvent::PrrReconfig { .. }
            | TraceEvent::PcapRetry { .. }
            | TraceEvent::PrrQuarantine { .. }
            | TraceEvent::PrrScrub { .. }
            | TraceEvent::PrrReinstate { .. }
            | TraceEvent::PrrRetire { .. } => Some((Track::Pcap, 0)),
            TraceEvent::HwTaskEscalate { .. } | TraceEvent::SloBurn { .. } => {
                Some((Track::HwMgr, 0))
            }
        };
        if let Some((track, req)) = marker {
            out.instants.push(Instant {
                track,
                label,
                ts,
                req,
            });
        }
    }

    // Close whatever is still open (ring wrapped past the end events, or
    // the trace was snapshotted mid-span).
    for o in open {
        out.spans.push(Span {
            track: o.track,
            label: o.label,
            start: o.start,
            end: last_ts.max(o.start),
            req: o.req,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MgrPhase, TraceEvent as E, TrapKind};

    #[test]
    fn trap_spans_nest_and_pair() {
        let events = vec![
            (
                Cycles::new(10),
                E::TrapEnter {
                    kind: TrapKind::Svc,
                },
            ),
            (
                Cycles::new(20),
                E::TrapEnter {
                    kind: TrapKind::Irq,
                },
            ),
            (Cycles::new(30), E::TrapExit),
            (Cycles::new(40), E::TrapExit),
        ];
        let p = pair(&events);
        assert_eq!(p.spans.len(), 2);
        // Inner IRQ span closes first.
        assert_eq!(p.spans[0].label.to_string(), "trap:irq");
        assert_eq!(p.spans[0].cycles(), 10);
        assert_eq!(p.spans[1].label.to_string(), "trap:svc");
        assert_eq!(p.spans[1].cycles(), 30);
    }

    #[test]
    fn unmatched_end_dropped_unclosed_begin_closed() {
        let events = vec![
            // An end whose begin was lost to wraparound.
            (Cycles::new(5), E::TrapExit),
            // A begin that never ends.
            (
                Cycles::new(10),
                E::HwMgrPhase {
                    phase: MgrPhase::Exec,
                    end: false,
                },
            ),
            (Cycles::new(90), E::TlbFlush),
        ];
        let p = pair(&events);
        assert_eq!(p.spans.len(), 1);
        assert_eq!(p.spans[0].label.to_string(), "mgr:exec");
        assert_eq!(p.spans[0].end, Cycles::new(90), "closed at trace end");
        assert_eq!(p.instants.len(), 1);
        assert_eq!(p.orphan_spans, 1, "the begin-less TrapExit is an orphan");
    }

    #[test]
    fn stale_slot_is_not_paired_into_a_bogus_duration() {
        // The ring evicted `mgr:exec`'s begin but `mgr:entry`'s begin (an
        // earlier, still-open span on the same track) survived. The exec
        // end must NOT close the entry begin.
        let events = vec![
            (
                Cycles::new(10),
                E::HwMgrPhase {
                    phase: MgrPhase::Entry,
                    end: false,
                },
            ),
            (
                Cycles::new(20),
                E::HwMgrPhase {
                    phase: MgrPhase::Exec,
                    end: true,
                },
            ),
        ];
        let p = pair(&events);
        assert_eq!(p.orphan_spans, 1);
        assert_eq!(p.spans.len(), 1);
        assert_eq!(p.spans[0].label.to_string(), "mgr:entry");
        assert_eq!(p.spans[0].end, Cycles::new(20), "force-closed at trace end");
    }

    #[test]
    fn req_spans_pair_by_id_across_overlap() {
        // Two interleaved requests on the shared Req track: ends must match
        // their own begins by id, not innermost-first.
        let events = vec![
            (
                Cycles::new(0),
                E::ReqSpan {
                    req: 1,
                    vm: 1,
                    end: false,
                },
            ),
            (
                Cycles::new(10),
                E::ReqSpan {
                    req: 2,
                    vm: 2,
                    end: false,
                },
            ),
            (Cycles::new(15), E::ReqStage { req: 1, stage: 2 }),
            (
                Cycles::new(50),
                E::ReqSpan {
                    req: 1,
                    vm: 1,
                    end: true,
                },
            ),
            (
                Cycles::new(80),
                E::ReqSpan {
                    req: 2,
                    vm: 2,
                    end: true,
                },
            ),
        ];
        let p = pair(&events);
        assert_eq!(p.spans.len(), 2);
        let r1 = p.spans.iter().find(|s| s.req == 1).unwrap();
        assert_eq!(r1.label.to_string(), "r1 vm1");
        assert_eq!(r1.cycles(), 50);
        let r2 = p.spans.iter().find(|s| s.req == 2).unwrap();
        assert_eq!(r2.cycles(), 70);
        assert_eq!(p.orphan_spans, 0);
        assert_eq!(p.instants[0].label.to_string(), "r1:alloc:s2");
        assert_eq!(p.instants[0].req, 1);
        assert_eq!(p.instants[0].track, Track::Req);
    }

    #[test]
    fn vm_switch_derives_running_spans() {
        let events = vec![
            (Cycles::new(0), E::VmSwitch { from: 0, to: 1 }),
            (Cycles::new(100), E::VmSwitch { from: 1, to: 0 }),
            (Cycles::new(110), E::VmSwitch { from: 0, to: 2 }),
            (Cycles::new(200), E::VmSwitch { from: 2, to: 0 }),
        ];
        let p = pair(&events);
        let running: Vec<_> = p
            .spans
            .iter()
            .filter(|s| s.label == Label::Running)
            .collect();
        assert_eq!(running.len(), 2);
        assert_eq!(running[0].track, Track::Vm(1));
        assert_eq!(running[0].cycles(), 100);
        assert_eq!(running[1].track, Track::Vm(2));
        assert_eq!(running[1].cycles(), 90);
    }

    #[test]
    fn hypercall_names_resolve() {
        let hc = |nr| Label::Event(E::Hypercall { nr }).to_string();
        assert_eq!(hc(0), "hc:Yield");
        assert_eq!(hc(17), "hc:HwTaskRequest");
        assert_eq!(hc(200), "hc:#200");
    }
}
