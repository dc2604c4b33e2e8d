//! Track assignment and span begin/end pairing.
//!
//! Both exporters see the same view of a trace: events are placed on tracks
//! (kernel, HW Manager, PCAP, one per VM), begin/end pairs are matched with
//! a per-track stack, unmatched ends are dropped and unclosed begins are
//! closed at the trace's final timestamp — so a ring that wrapped mid-span
//! still renders as a well-formed timeline.

use crate::event::TraceEvent;
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

/// A completed (paired) span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Track the span lives on.
    pub track: Track,
    /// Span name.
    pub name: String,
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
#[derive(Clone, Debug, PartialEq)]
pub struct Instant {
    /// Track the marker lives on.
    pub track: Track,
    /// Marker name.
    pub name: String,
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
    name: String,
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

    let begin = |open: &mut Vec<Open>, track: Track, name: String, ts: Cycles, req: u32| {
        open.push(Open {
            track,
            name,
            start: ts,
            req,
        });
    };
    // `expect`: when the end event itself names the span it closes (manager
    // phases, PCAP transfers, derived running spans), a surviving begin
    // with a different name is a *stale slot* — its real begin was evicted
    // by ring wraparound — and pairing against it would fabricate a bogus
    // duration. Such ends (and ends with no candidate at all) are counted
    // as orphans instead. `req != 0` additionally demands an exact
    // request-id match.
    let end = |open: &mut Vec<Open>,
               out: &mut PairedTrace,
               track: Track,
               ts: Cycles,
               expect: Option<&str>,
               req: u32| {
        // Innermost unmatched begin on this track (and name/req, if known).
        let found = open
            .iter()
            .rposition(|o| o.track == track && o.req == req && expect.is_none_or(|n| o.name == n));
        match found {
            Some(i) => {
                let o = open.remove(i);
                out.spans.push(Span {
                    track: o.track,
                    name: o.name,
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
        match ev {
            TraceEvent::TrapEnter { kind } => {
                begin(&mut open, Track::Kernel, kind.name().to_string(), ts, 0)
            }
            TraceEvent::TrapExit => end(&mut open, &mut out, Track::Kernel, ts, None, 0),
            TraceEvent::Hypercall { nr } => out.instants.push(Instant {
                track: Track::Kernel,
                name: hypercall_name(nr),
                ts,
                req: 0,
            }),
            TraceEvent::VmSwitch { from, to } => {
                out.instants.push(Instant {
                    track: Track::Kernel,
                    name: format!("switch {from}->{to}"),
                    ts,
                    req: 0,
                });
                if let Some(v) = running.take().filter(|&v| v == from && v != 0) {
                    end(&mut open, &mut out, Track::Vm(v), ts, Some("running"), 0);
                }
                if to != 0 {
                    begin(&mut open, Track::Vm(to), "running".into(), ts, 0);
                    running = Some(to);
                }
            }
            TraceEvent::SchedPick { vm } => out.instants.push(Instant {
                track: Track::Kernel,
                name: format!("pick vm{vm}"),
                ts,
                req: 0,
            }),
            TraceEvent::VirqInject { vm, irq } => out.instants.push(Instant {
                track: Track::Vm(vm),
                name: format!("virq {irq}"),
                ts,
                req: 0,
            }),
            TraceEvent::HwMgrPhase { phase, end: e } => {
                if e {
                    end(&mut open, &mut out, Track::HwMgr, ts, Some(phase.name()), 0);
                } else {
                    begin(&mut open, Track::HwMgr, phase.name().to_string(), ts, 0);
                }
            }
            TraceEvent::PcapDma { bytes, end: e } => {
                let name = format!("pcap-dma {bytes}B");
                if e {
                    end(&mut open, &mut out, Track::Pcap, ts, Some(&name), 0);
                } else {
                    begin(&mut open, Track::Pcap, name, ts, 0);
                }
            }
            TraceEvent::PrrReconfig { prr, task } => out.instants.push(Instant {
                track: Track::Pcap,
                name: format!("reconfig prr{prr} core:{task:#x}"),
                ts,
                req: 0,
            }),
            TraceEvent::TlbFlush => out.instants.push(Instant {
                track: Track::Kernel,
                name: "tlb-flush".into(),
                ts,
                req: 0,
            }),
            TraceEvent::FaultForwarded { vm } => out.instants.push(Instant {
                track: Track::Vm(vm),
                name: "fault-forwarded".into(),
                ts,
                req: 0,
            }),
            TraceEvent::FaultInjected { site } => out.instants.push(Instant {
                track: Track::Kernel,
                name: format!("fault-injected site:{site}"),
                ts,
                req: 0,
            }),
            TraceEvent::PcapRetry { prr, attempt } => out.instants.push(Instant {
                track: Track::Pcap,
                name: format!("pcap-retry prr{prr} #{attempt}"),
                ts,
                req: 0,
            }),
            TraceEvent::PrrQuarantine { prr } => out.instants.push(Instant {
                track: Track::Pcap,
                name: format!("quarantine prr{prr}"),
                ts,
                req: 0,
            }),
            TraceEvent::SwFallback { vm, task } => out.instants.push(Instant {
                track: Track::Vm(vm),
                name: format!("sw-fallback task:{task}"),
                ts,
                req: 0,
            }),
            TraceEvent::VmKilled { vm } => out.instants.push(Instant {
                track: Track::Vm(vm),
                name: "vm-killed".into(),
                ts,
                req: 0,
            }),
            TraceEvent::VmRestart { vm, attempt } => out.instants.push(Instant {
                track: Track::Vm(vm),
                name: format!("vm-restart #{attempt}"),
                ts,
                req: 0,
            }),
            TraceEvent::PrrScrub { prr, pass } => out.instants.push(Instant {
                track: Track::Pcap,
                name: format!("scrub prr{prr} {}", if pass { "pass" } else { "fail" }),
                ts,
                req: 0,
            }),
            TraceEvent::PrrReinstate { prr } => out.instants.push(Instant {
                track: Track::Pcap,
                name: format!("reinstate prr{prr}"),
                ts,
                req: 0,
            }),
            TraceEvent::PrrRetire { prr } => out.instants.push(Instant {
                track: Track::Pcap,
                name: format!("retire prr{prr}"),
                ts,
                req: 0,
            }),
            TraceEvent::Repromote { vm, task, prr } => out.instants.push(Instant {
                track: Track::Vm(vm),
                name: format!("repromote task:{task} -> prr{prr}"),
                ts,
                req: 0,
            }),
            TraceEvent::HwTaskEscalate { prr, rung } => out.instants.push(Instant {
                track: Track::HwMgr,
                name: format!("escalate prr{prr} rung{rung}"),
                ts,
                req: 0,
            }),
            TraceEvent::ReqSpan { req, vm, end: e } => {
                if e {
                    end(&mut open, &mut out, Track::Req, ts, None, req);
                } else {
                    begin(&mut open, Track::Req, format!("r{req} vm{vm}"), ts, req);
                }
            }
            TraceEvent::ReqStage { req, stage } => out.instants.push(Instant {
                track: Track::Req,
                name: format!("r{req}:{}", crate::event::req_stage_name(stage)),
                ts,
                req,
            }),
            TraceEvent::SloBurn { iface, violations } => out.instants.push(Instant {
                track: Track::HwMgr,
                name: format!("slo-burn {} x{violations}", crate::event::iface_name(iface)),
                ts,
                req: 0,
            }),
        }
    }

    // Close whatever is still open (ring wrapped past the end events, or
    // the trace was snapshotted mid-span).
    for o in open {
        out.spans.push(Span {
            track: o.track,
            name: o.name,
            start: o.start,
            end: last_ts.max(o.start),
            req: o.req,
        });
    }
    out
}

/// The exporter-facing hypercall label.
fn hypercall_name(nr: u8) -> String {
    match mnv_hal::abi::Hypercall::from_nr(nr) {
        Some(hc) => format!("hc:{hc:?}"),
        None => format!("hc:#{nr}"),
    }
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
        assert_eq!(p.spans[0].name, "trap:irq");
        assert_eq!(p.spans[0].cycles(), 10);
        assert_eq!(p.spans[1].name, "trap:svc");
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
        assert_eq!(p.spans[0].name, "mgr:exec");
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
        assert_eq!(p.spans[0].name, "mgr:entry");
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
        assert_eq!(r1.name, "r1 vm1");
        assert_eq!(r1.cycles(), 50);
        let r2 = p.spans.iter().find(|s| s.req == 2).unwrap();
        assert_eq!(r2.cycles(), 70);
        assert_eq!(p.orphan_spans, 0);
        assert_eq!(p.instants[0].name, "r1:alloc:s2");
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
        let running: Vec<_> = p.spans.iter().filter(|s| s.name == "running").collect();
        assert_eq!(running.len(), 2);
        assert_eq!(running[0].track, Track::Vm(1));
        assert_eq!(running[0].cycles(), 100);
        assert_eq!(running[1].track, Track::Vm(2));
        assert_eq!(running[1].cycles(), 90);
    }

    #[test]
    fn hypercall_names_resolve() {
        assert_eq!(hypercall_name(0), "hc:Yield");
        assert_eq!(hypercall_name(17), "hc:HwTaskRequest");
        assert_eq!(hypercall_name(200), "hc:#200");
    }
}
