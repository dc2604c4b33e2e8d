//! Chrome trace-event (Perfetto-loadable) exporter.
//!
//! Produces the JSON object format (`{"traceEvents": [...]}`) understood by
//! `chrome://tracing` and <https://ui.perfetto.dev>. One process (pid 1)
//! carries one thread track per VM plus dedicated kernel, HW-Manager and
//! PCAP tracks. Timestamps are microseconds on the *simulated* 660 MHz
//! cycle clock, so a 33 ms guest time slice renders as 33 ms in the UI.

use crate::event::TraceEvent;
use crate::json::{write_num, write_str};
use crate::span::{pair, Track};
use mnv_hal::Cycles;
use std::collections::BTreeSet;
use std::fmt;

fn us(ts: Cycles) -> f64 {
    ts.as_micros()
}

/// Render an oldest-first event stream as a Chrome trace-event JSON
/// document string.
pub fn export(events: &[(Cycles, TraceEvent)]) -> String {
    export_with_drops(events, 0)
}

/// Like [`export`], recording in the document metadata how many events
/// the source ring lost to wraparound before this snapshot — a consumer
/// reading the timeline can tell a complete capture from a truncated one.
pub fn export_with_drops(events: &[(Cycles, TraceEvent)], dropped: u64) -> String {
    let mut doc = String::new();
    write_doc(&mut doc, events, dropped).expect("writing into a String cannot fail");
    doc
}

/// Stream the document record by record into `out`. Objects list their
/// keys in sorted order, as `Json`'s `BTreeMap` objects print them, so the
/// text is canonical: parsing it and printing it again gives it back.
fn write_doc(out: &mut String, events: &[(Cycles, TraceEvent)], dropped: u64) -> fmt::Result {
    let paired = pair(events);
    let mut tracks: BTreeSet<Track> = [Track::Kernel, Track::HwMgr, Track::Pcap].into();
    for s in &paired.spans {
        tracks.insert(s.track);
    }
    for i in &paired.instants {
        tracks.insert(i.track);
    }

    out.push_str(
        r#"{"displayTimeUnit":"ms","otherData":{"clock":"simulated 660 MHz cycle counter","events_dropped":"#,
    );
    write_num(dropped as f64, out)?;
    out.push_str(r#","orphan_spans":"#);
    write_num(paired.orphan_spans as f64, out)?;
    out.push_str(r#","source":"mnv-trace"},"traceEvents":["#);

    // Every track lives under process 1.
    out.push_str(r#"{"args":{"name":"mini-nova"},"name":"process_name","ph":"M","pid":1}"#);
    for &t in &tracks {
        let tid = t.tid() as f64;
        out.push_str(r#",{"args":{"name":"#);
        write_str(t.name(), out)?;
        out.push_str(r#"},"name":"thread_name","ph":"M","pid":1,"tid":"#);
        write_num(tid, out)?;
        out.push_str(r#"},{"args":{"sort_index":"#);
        write_num(tid, out)?;
        out.push_str(r#"},"name":"thread_sort_index","ph":"M","pid":1,"tid":"#);
        write_num(tid, out)?;
        out.push('}');
    }

    // Complete ("X") events need no B/E ordering care in the viewer.
    for s in &paired.spans {
        let dur = (s.cycles() as f64) * 1e6 / mnv_hal::cycles::CPU_HZ as f64;
        out.push_str(r#",{"dur":"#);
        write_num(dur, out)?;
        out.push_str(r#","name":"#);
        write_str(s.label, out)?;
        out.push_str(r#","ph":"X","pid":1,"tid":"#);
        write_num(s.track.tid() as f64, out)?;
        out.push_str(r#","ts":"#);
        write_num(us(s.start), out)?;
        out.push('}');
    }
    for i in &paired.instants {
        out.push_str(r#",{"name":"#);
        write_str(i.label, out)?;
        out.push_str(r#","ph":"i","pid":1,"s":"t","tid":"#);
        write_num(i.track.tid() as f64, out)?;
        out.push_str(r#","ts":"#);
        write_num(us(i.ts), out)?;
        out.push('}');
    }

    // Flow events: chain every request's hops ("s" at the first stamp,
    // "t" steps after) under one flow id so Perfetto renders each request
    // as a single connected arrow chain across tracks.
    let mut hops: Vec<(u32, Cycles, Track)> = Vec::new();
    for s in &paired.spans {
        if s.req != 0 {
            hops.push((s.req, s.start, s.track));
        }
    }
    for i in &paired.instants {
        if i.req != 0 {
            hops.push((i.req, i.ts, i.track));
        }
    }
    hops.sort_by_key(|&(req, ts, track)| (req, ts, track.tid()));
    let mut prev_req = 0u32;
    for (req, ts, track) in hops {
        let ph = if req == prev_req { "t" } else { "s" };
        prev_req = req;
        out.push_str(r#",{"cat":"req","id":"#);
        write_num(req as f64, out)?;
        out.push_str(r#","name":"#);
        write_str(format_args!("r{req}"), out)?;
        out.push_str(r#","ph":"#);
        write_str(ph, out)?;
        out.push_str(r#","pid":1,"tid":"#);
        write_num(track.tid() as f64, out)?;
        out.push_str(r#","ts":"#);
        write_num(us(ts), out)?;
        out.push('}');
    }
    out.push_str("]}");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{MgrPhase, TraceEvent as E, TrapKind};
    use crate::json::{self, Json};

    /// The document-tree exporter the streaming writer replaced: every
    /// record a `BTreeMap` object, printed by `Json`'s `Display`. The
    /// streamed text must match it byte for byte.
    fn oracle(events: &[(Cycles, TraceEvent)], dropped: u64) -> String {
        const PID: f64 = 1.0;
        let paired = pair(events);
        let mut tracks: BTreeSet<Track> = [Track::Kernel, Track::HwMgr, Track::Pcap].into();
        for s in &paired.spans {
            tracks.insert(s.track);
        }
        for i in &paired.instants {
            tracks.insert(i.track);
        }

        let mut out: Vec<Json> = Vec::new();
        out.push(Json::obj([
            ("name", Json::str("process_name")),
            ("ph", Json::str("M")),
            ("pid", Json::num(PID)),
            ("args", Json::obj([("name", Json::str("mini-nova"))])),
        ]));
        for &t in &tracks {
            out.push(Json::obj([
                ("name", Json::str("thread_name")),
                ("ph", Json::str("M")),
                ("pid", Json::num(PID)),
                ("tid", Json::num(t.tid() as f64)),
                ("args", Json::obj([("name", Json::str(t.name()))])),
            ]));
            out.push(Json::obj([
                ("name", Json::str("thread_sort_index")),
                ("ph", Json::str("M")),
                ("pid", Json::num(PID)),
                ("tid", Json::num(t.tid() as f64)),
                (
                    "args",
                    Json::obj([("sort_index", Json::num(t.tid() as f64))]),
                ),
            ]));
        }
        for s in &paired.spans {
            let dur = (s.cycles() as f64) * 1e6 / mnv_hal::cycles::CPU_HZ as f64;
            out.push(Json::obj([
                ("name", Json::str(s.label.to_string())),
                ("ph", Json::str("X")),
                ("ts", Json::num(us(s.start))),
                ("dur", Json::num(dur)),
                ("pid", Json::num(PID)),
                ("tid", Json::num(s.track.tid() as f64)),
            ]));
        }
        for i in &paired.instants {
            out.push(Json::obj([
                ("name", Json::str(i.label.to_string())),
                ("ph", Json::str("i")),
                ("s", Json::str("t")),
                ("ts", Json::num(us(i.ts))),
                ("pid", Json::num(PID)),
                ("tid", Json::num(i.track.tid() as f64)),
            ]));
        }
        let mut hops: Vec<(u32, Cycles, Track)> = Vec::new();
        for s in &paired.spans {
            if s.req != 0 {
                hops.push((s.req, s.start, s.track));
            }
        }
        for i in &paired.instants {
            if i.req != 0 {
                hops.push((i.req, i.ts, i.track));
            }
        }
        hops.sort_by_key(|&(req, ts, track)| (req, ts, track.tid()));
        let mut prev_req = 0u32;
        for (req, ts, track) in hops {
            let ph = if req == prev_req { "t" } else { "s" };
            prev_req = req;
            out.push(Json::obj([
                ("name", Json::str(format!("r{req}"))),
                ("cat", Json::str("req")),
                ("ph", Json::str(ph)),
                ("id", Json::num(req as f64)),
                ("ts", Json::num(us(ts))),
                ("pid", Json::num(PID)),
                ("tid", Json::num(track.tid() as f64)),
            ]));
        }

        Json::obj([
            ("traceEvents", Json::Arr(out)),
            ("displayTimeUnit", Json::str("ms")),
            (
                "otherData",
                Json::obj([
                    ("clock", Json::str("simulated 660 MHz cycle counter")),
                    ("events_dropped", Json::num(dropped as f64)),
                    ("orphan_spans", Json::num(paired.orphan_spans as f64)),
                    ("source", Json::str("mnv-trace")),
                ]),
            ),
        ])
        .to_string()
    }

    /// A seeded kernel-like stream touching every event kind: nested traps,
    /// manager phases and PCAP transfers that open and close (sometimes
    /// with a mismatched end), world switches in and out, and overlapping
    /// requests with stage stamps.
    fn seeded_stream(seed: u64, n: usize) -> Vec<(Cycles, E)> {
        let mut state = seed;
        let mut rnd = |bound: u64| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            (z ^ (z >> 31)) % bound
        };
        let kinds = [
            TrapKind::Reset,
            TrapKind::Undefined,
            TrapKind::Svc,
            TrapKind::PrefetchAbort,
            TrapKind::DataAbort,
            TrapKind::Irq,
            TrapKind::Fiq,
        ];
        let phases = [MgrPhase::Entry, MgrPhase::Exec, MgrPhase::Exit];
        let mut out = Vec::with_capacity(n);
        let mut now = 0u64;
        let mut running = 0u16;
        let mut traps = 0u32;
        let mut mgr: Option<MgrPhase> = None;
        let mut dma: Option<u32> = None;
        let mut next_req = 1u32;
        let mut live: Vec<(u32, u16)> = Vec::new();
        while out.len() < n {
            // Equal timestamps happen: the clock does not always advance.
            now += rnd(3) * rnd(700);
            let vm = 1 + rnd(4) as u16;
            let prr = rnd(4) as u8;
            // One end in eight names a phase or transfer other than the
            // open one: a stale slot that must stay unpaired.
            let stale = rnd(8) == 0;
            let ev = match rnd(25) {
                0 if traps < 3 => {
                    traps += 1;
                    E::TrapEnter {
                        kind: kinds[rnd(7) as usize],
                    }
                }
                0 | 1 => {
                    traps = traps.saturating_sub(1);
                    E::TrapExit
                }
                2 => E::Hypercall { nr: rnd(40) as u8 },
                3 => {
                    let (from, to) = if running == 0 { (0, vm) } else { (running, 0) };
                    running = to;
                    E::VmSwitch { from, to }
                }
                4 => E::SchedPick { vm },
                5 => E::VirqInject {
                    vm,
                    irq: rnd(96) as u16,
                },
                6 => match mgr.take() {
                    None => {
                        let phase = phases[rnd(3) as usize];
                        mgr = Some(phase);
                        E::HwMgrPhase { phase, end: false }
                    }
                    Some(phase) if stale => E::HwMgrPhase {
                        phase: phases[(phase as usize + 1) % 3],
                        end: true,
                    },
                    Some(phase) => E::HwMgrPhase { phase, end: true },
                },
                7 => match dma.take() {
                    None => {
                        let bytes = [4096, 65_536, 131_072][rnd(3) as usize];
                        dma = Some(bytes);
                        E::PcapDma { bytes, end: false }
                    }
                    Some(bytes) => E::PcapDma {
                        bytes: bytes + u32::from(stale),
                        end: true,
                    },
                },
                8 => E::PrrReconfig {
                    prr,
                    task: 0x100 | rnd(9) as u32,
                },
                9 => E::TlbFlush,
                10 => E::FaultForwarded { vm },
                11 => E::FaultInjected { site: rnd(8) as u8 },
                12 => E::PcapRetry {
                    prr,
                    attempt: 1 + rnd(3) as u8,
                },
                13 => E::PrrQuarantine { prr },
                14 => E::SwFallback {
                    vm,
                    task: rnd(3) as u32,
                },
                15 => E::VmKilled { vm },
                16 => E::VmRestart {
                    vm,
                    attempt: 1 + rnd(3) as u8,
                },
                17 => E::PrrScrub {
                    prr,
                    pass: rnd(2) == 1,
                },
                18 => E::PrrReinstate { prr },
                19 => E::PrrRetire { prr },
                20 => E::Repromote {
                    vm,
                    task: rnd(3) as u32,
                    prr,
                },
                21 => E::HwTaskEscalate {
                    prr,
                    rung: 1 + rnd(4) as u8,
                },
                22 if live.is_empty() || rnd(2) == 0 => {
                    live.push((next_req, vm));
                    next_req += 1;
                    E::ReqSpan {
                        req: next_req - 1,
                        vm,
                        end: false,
                    }
                }
                22 => {
                    let (req, vm) = live.swap_remove(rnd(live.len() as u64) as usize);
                    E::ReqSpan { req, vm, end: true }
                }
                23 => E::ReqStage {
                    req: live.get(rnd(4) as usize).map_or(next_req, |&(r, _)| r),
                    stage: [1, 2, 6, 10, 12, 20, 31, 40, 42, 60, 61, 99][rnd(12) as usize],
                },
                _ => E::SloBurn {
                    iface: rnd(4) as u8,
                    violations: rnd(50) as u16,
                },
            };
            out.push((Cycles::new(now), ev));
        }
        out
    }

    #[test]
    fn streamed_document_matches_the_tree_built_one() {
        // A ring that wrapped: the first events are gone, so the retained
        // stream starts with ends whose begins were lost, and it stops with
        // spans and requests still open.
        let stream = seeded_stream(0x5eed, 61_000);
        let (lost, kept) = stream.split_at(1_000);
        let kinds: BTreeSet<&str> = kept.iter().map(|(_, e)| e.kind_name()).collect();
        assert_eq!(kinds.len(), 25, "{kinds:?}");
        let paired = pair(kept);
        assert!(paired.orphan_spans > 0);
        let last = kept.last().unwrap().0;
        assert!(paired.spans.iter().any(|s| s.req != 0 && s.end == last));

        let dropped = lost.len() as u64;
        let doc = export_with_drops(kept, dropped);
        assert_eq!(doc, oracle(kept, dropped));
        // Keys come out in canonical (sorted) order: reprinting the parsed
        // document reproduces it.
        assert_eq!(json::parse(&doc).unwrap().to_string(), doc);

        for events in [&[][..], &sample_events()] {
            assert_eq!(export(events), oracle(events, 0));
        }
    }

    fn sample_events() -> Vec<(Cycles, E)> {
        vec![
            (Cycles::new(0), E::VmSwitch { from: 0, to: 1 }),
            (
                Cycles::new(660),
                E::TrapEnter {
                    kind: TrapKind::Svc,
                },
            ),
            (Cycles::new(700), E::Hypercall { nr: 17 }),
            (
                Cycles::new(800),
                E::HwMgrPhase {
                    phase: MgrPhase::Entry,
                    end: false,
                },
            ),
            (
                Cycles::new(1200),
                E::HwMgrPhase {
                    phase: MgrPhase::Entry,
                    end: true,
                },
            ),
            (Cycles::new(1500), E::TrapExit),
            (Cycles::new(2000), E::VmSwitch { from: 1, to: 0 }),
        ]
    }

    #[test]
    fn export_parses_and_has_tracks() {
        let text = export(&sample_events());
        let doc = json::parse(&text).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // Metadata (process + per-track name/sort) plus spans and instants.
        assert!(events.len() >= 10, "{}", events.len());

        let names: Vec<&str> = events
            .iter()
            .filter_map(|e| e.get("name").and_then(Json::as_str))
            .collect();
        assert!(names.contains(&"trap:svc"));
        assert!(names.contains(&"mgr:entry"));
        assert!(names.contains(&"running"));
        assert!(names.contains(&"hc:HwTaskRequest"));
        assert!(names.contains(&"thread_name"));
    }

    #[test]
    fn timestamps_are_simulated_microseconds() {
        let text = export(&sample_events());
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let svc = events
            .iter()
            .find(|e| e.get("name").and_then(Json::as_str) == Some("trap:svc"))
            .unwrap();
        // 660 cycles at 660 MHz is exactly 1 us.
        assert!((svc.get("ts").unwrap().as_num().unwrap() - 1.0).abs() < 1e-9);
        let dur = svc.get("dur").unwrap().as_num().unwrap();
        assert!((dur - (1500.0 - 660.0) / 660.0).abs() < 1e-9);
    }

    #[test]
    fn request_hops_export_as_flow_events() {
        let events = vec![
            (
                Cycles::new(0),
                E::ReqSpan {
                    req: 7,
                    vm: 1,
                    end: false,
                },
            ),
            (Cycles::new(100), E::ReqStage { req: 7, stage: 2 }),
            (
                Cycles::new(660),
                E::ReqSpan {
                    req: 7,
                    vm: 1,
                    end: true,
                },
            ),
        ];
        let text = export(&events);
        let doc = json::parse(&text).unwrap();
        let evs = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let flows: Vec<_> = evs
            .iter()
            .filter(|e| e.get("cat").and_then(Json::as_str) == Some("req"))
            .collect();
        // One "s" start then "t" steps, all under flow id 7.
        assert!(flows.len() >= 2, "{}", text);
        assert_eq!(flows[0].get("ph").and_then(Json::as_str), Some("s"));
        assert!(flows[1..]
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) == Some("t")));
        assert!(flows
            .iter()
            .all(|e| e.get("id").and_then(Json::as_num) == Some(7.0)));
        let orphans = doc
            .get("otherData")
            .and_then(|o| o.get("orphan_spans"))
            .and_then(Json::as_num);
        assert_eq!(orphans, Some(0.0));
    }

    #[test]
    fn vm_track_is_named() {
        let text = export(&sample_events());
        let doc = json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        let vm1 = events.iter().find(|e| {
            e.get("name").and_then(Json::as_str) == Some("thread_name")
                && e.get("tid").and_then(|t| t.as_num()) == Some(11.0)
        });
        let name = vm1
            .and_then(|e| e.get("args"))
            .and_then(|a| a.get("name"))
            .and_then(Json::as_str);
        assert_eq!(name, Some("vm1"));
    }
}
