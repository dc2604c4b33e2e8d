//! The post-mortem blob: a self-contained JSON document written when the
//! kernel hits a terminal diagnostic event (VM kill, PRR quarantine,
//! watchdog abort, chaos failure).
//!
//! The format is versioned and decodes without any simulator state, so the
//! `mnvdbg` binary (and CI) can round-trip a dump produced by a different
//! build configuration. Building a blob is plain data assembly; the live
//! capture path is [`crate::Profiler::trigger_dump`].

use mnv_hal::Cycles;
use mnv_trace::json::{self, Json};
use mnv_trace::TraceEvent;

/// Format tag of the current blob layout.
pub const FORMAT: &str = "mnv-postmortem-v1";

/// Assemble a post-mortem blob from its parts. `context` carries whatever
/// machine state the trigger site could capture (vCPU registers, CP15,
/// PMU totals, metrics snapshot) and passes through verbatim.
pub fn build_blob(
    reason: &str,
    now: Cycles,
    events: &[(Cycles, TraceEvent)],
    events_dropped: u64,
    profile_top: &[(String, u64)],
    total_samples: u64,
    context: Json,
) -> Json {
    let evs: Vec<Json> = events
        .iter()
        .map(|(t, ev)| {
            Json::obj([
                ("t", Json::num(t.raw() as f64)),
                ("event", Json::str(ev.kind_name())),
                ("detail", Json::str(format!("{ev:?}"))),
            ])
        })
        .collect();
    let top: Vec<Json> = profile_top
        .iter()
        .map(|(stack, n)| {
            Json::obj([
                ("stack", Json::str(stack.clone())),
                ("samples", Json::num(*n as f64)),
            ])
        })
        .collect();
    Json::obj([
        ("format", Json::str(FORMAT)),
        ("reason", Json::str(reason)),
        ("cycles", Json::num(now.raw() as f64)),
        ("events", Json::Arr(evs)),
        ("events_dropped", Json::num(events_dropped as f64)),
        ("profile_top", Json::Arr(top)),
        ("total_samples", Json::num(total_samples as f64)),
        ("context", context),
    ])
}

/// A decoded post-mortem blob.
#[derive(Clone, Debug)]
pub struct PostMortem {
    /// Why the dump fired.
    pub reason: String,
    /// Simulated cycle count at the trigger.
    pub cycles: u64,
    /// Recent flight-recorder events, oldest first: (cycles, kind, detail).
    pub events: Vec<(u64, String, String)>,
    /// Events lost to ring wraparound before the dump.
    pub events_dropped: u64,
    /// Hottest profile buckets (collapsed frames, sample count).
    pub profile_top: Vec<(String, u64)>,
    /// Total samples folded at dump time.
    pub total_samples: u64,
    /// Trigger-site machine context, verbatim.
    pub context: Json,
}

/// Decode a blob produced by [`build_blob`]. Errors name the missing or
/// malformed field so a truncated dump is diagnosable.
pub fn parse(text: &str) -> Result<PostMortem, String> {
    let doc = json::parse(text).map_err(|e| format!("not JSON: {e}"))?;
    let fmt = doc
        .get("format")
        .and_then(Json::as_str)
        .ok_or("missing `format`")?;
    if fmt != FORMAT {
        return Err(format!("unknown format `{fmt}` (expected `{FORMAT}`)"));
    }
    let num = |j: &Json, key: &str| -> Result<u64, String> {
        j.get(key)
            .and_then(Json::as_num)
            .map(|n| n as u64)
            .ok_or(format!("missing `{key}`"))
    };
    let mut pm = PostMortem {
        reason: doc
            .get("reason")
            .and_then(Json::as_str)
            .ok_or("missing `reason`")?
            .to_string(),
        cycles: num(&doc, "cycles")?,
        events: Vec::new(),
        events_dropped: num(&doc, "events_dropped")?,
        profile_top: Vec::new(),
        total_samples: num(&doc, "total_samples")?,
        context: doc.get("context").cloned().unwrap_or(Json::Null),
    };
    for ev in doc
        .get("events")
        .and_then(Json::as_arr)
        .ok_or("missing `events`")?
    {
        pm.events.push((
            num(ev, "t")?,
            ev.get("event")
                .and_then(Json::as_str)
                .ok_or("event without `event`")?
                .to_string(),
            ev.get("detail")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string(),
        ));
    }
    for b in doc
        .get("profile_top")
        .and_then(Json::as_arr)
        .ok_or("missing `profile_top`")?
    {
        pm.profile_top.push((
            b.get("stack")
                .and_then(Json::as_str)
                .ok_or("bucket without `stack`")?
                .to_string(),
            num(b, "samples")?,
        ));
    }
    Ok(pm)
}

impl PostMortem {
    /// Human-readable report: the trigger, the event timeline leading up
    /// to it, the hot profile buckets and the captured machine context.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "post-mortem: {}", self.reason);
        let _ = writeln!(
            out,
            "at cycle {} ({:.3} ms simulated)",
            self.cycles,
            self.cycles as f64 * 1e3 / mnv_hal::cycles::CPU_HZ as f64
        );
        let _ = writeln!(
            out,
            "flight recorder: {} events retained, {} lost to wraparound",
            self.events.len(),
            self.events_dropped
        );
        // The full ring is in the blob; the report shows the closing stretch.
        const SHOWN: usize = 48;
        if self.events.len() > SHOWN {
            let _ = writeln!(out, "  (showing the last {SHOWN})");
        }
        let skip = self.events.len().saturating_sub(SHOWN);
        for (t, _, detail) in &self.events[skip..] {
            let us = *t as f64 * 1e6 / mnv_hal::cycles::CPU_HZ as f64;
            let _ = writeln!(out, "  {us:>12.3} us  {detail}");
        }
        let _ = writeln!(
            out,
            "profile: {} samples, top {} buckets:",
            self.total_samples,
            self.profile_top.len()
        );
        for (stack, n) in &self.profile_top {
            let _ = writeln!(out, "  {n:>8}  {stack}");
        }
        if self.context != Json::Null {
            let _ = writeln!(out, "context: {}", self.context);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn blob_round_trips_through_parser() {
        let events = vec![
            (Cycles::new(100), TraceEvent::VmSwitch { from: 0, to: 1 }),
            (Cycles::new(660), TraceEvent::PrrQuarantine { prr: 2 }),
        ];
        let top = vec![("vm1;hc:HwTaskRequest;0x00008040~svc".to_string(), 12)];
        let blob = build_blob(
            "prr-quarantine",
            Cycles::new(1320),
            &events,
            3,
            &top,
            40,
            Json::obj([("r0", Json::num(7.0))]),
        );
        let pm = parse(&blob.to_string()).expect("decodes");
        assert_eq!(pm.reason, "prr-quarantine");
        assert_eq!(pm.cycles, 1320);
        assert_eq!(pm.events.len(), 2);
        assert_eq!(pm.events[1].1, "PrrQuarantine");
        assert_eq!(pm.events_dropped, 3);
        assert_eq!(pm.profile_top[0].1, 12);
        assert_eq!(pm.total_samples, 40);
        let text = pm.render();
        assert!(text.contains("post-mortem: prr-quarantine"), "{text}");
        assert!(text.contains("PrrQuarantine"), "{text}");
        assert!(text.contains("hc:HwTaskRequest"), "{text}");
    }

    #[test]
    fn truncated_blobs_error_with_field_names() {
        assert!(parse("{").unwrap_err().contains("not JSON"));
        let err = parse("{\"format\":\"mnv-postmortem-v1\"}").unwrap_err();
        assert!(err.contains("reason"), "{err}");
        let err = parse("{\"format\":\"v0\"}").unwrap_err();
        assert!(err.contains("unknown format"), "{err}");
    }
}
