//! Plain-text trace summary: per-span-name latency table plus marker counts.

use crate::acc::Acc;
use crate::event::TraceEvent;
use crate::span::{pair, Label};
use mnv_hal::Cycles;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

/// Render a top-`n` text summary of an oldest-first event stream.
///
/// Span names are ranked by total time spent; each row reports count, mean,
/// p50, p99 and max in microseconds. Instant markers follow, ranked by
/// count.
pub fn summarize(events: &[(Cycles, TraceEvent)], n: usize) -> String {
    summarize_with_drops(events, n, 0)
}

/// Like [`summarize`], noting in the header how many events the source
/// ring lost to wraparound before this snapshot.
pub fn summarize_with_drops(events: &[(Cycles, TraceEvent)], n: usize, dropped: u64) -> String {
    let paired = pair(events);

    // Tally by label, then render each distinct label once; labels that
    // print alike share a row.
    let mut span_labels: HashMap<Label, Acc> = HashMap::new();
    for s in &paired.spans {
        span_labels
            .entry(s.label)
            .or_default()
            .push(Cycles::new(s.cycles()));
    }
    let mut spans: BTreeMap<String, Acc> = BTreeMap::new();
    for (label, acc) in &span_labels {
        spans.entry(label.to_string()).or_default().merge(acc);
    }
    let mut marker_labels: HashMap<Label, u64> = HashMap::new();
    for i in &paired.instants {
        *marker_labels.entry(i.label).or_insert(0) += 1;
    }
    let mut markers: BTreeMap<String, u64> = BTreeMap::new();
    for (label, count) in &marker_labels {
        *markers.entry(label.to_string()).or_insert(0) += count;
    }

    let mut ranked: Vec<(&String, &Acc)> = spans.iter().collect();
    ranked.sort_by(|a, b| b.1.total.cmp(&a.1.total).then(a.0.cmp(b.0)));
    ranked.truncate(n);

    let mut out = String::new();
    let _ = writeln!(out, "trace summary ({} events)", events.len());
    if dropped > 0 {
        let _ = writeln!(
            out,
            "  (incomplete: {dropped} earlier events lost to ring wraparound)"
        );
    }
    if paired.orphan_spans > 0 {
        let _ = writeln!(
            out,
            "  ({} orphan span ends — begins evicted by wraparound, not paired)",
            paired.orphan_spans
        );
    }
    let _ = writeln!(
        out,
        "{:<22} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "span", "count", "mean_us", "p50_us", "p99_us", "max_us"
    );
    for (name, a) in &ranked {
        let _ = writeln!(
            out,
            "{:<22} {:>8} {:>10.3} {:>10.3} {:>10.3} {:>10.3}",
            name,
            a.samples,
            a.mean_us(),
            a.p50_us(),
            a.p99_us(),
            a.max_us(),
        );
    }

    let mut marker_ranked: Vec<(&String, &u64)> = markers.iter().collect();
    marker_ranked.sort_by(|a, b| b.1.cmp(a.1).then(a.0.cmp(b.0)));
    marker_ranked.truncate(n);
    if !marker_ranked.is_empty() {
        let _ = writeln!(out, "{:<22} {:>8}", "marker", "count");
        for (name, count) in marker_ranked {
            let _ = writeln!(out, "{name:<22} {count:>8}");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{TraceEvent as E, TrapKind};

    #[test]
    fn summary_ranks_and_formats() {
        let mut events = Vec::new();
        for i in 0..10u64 {
            let t0 = i * 10_000;
            events.push((
                Cycles::new(t0),
                E::TrapEnter {
                    kind: TrapKind::Svc,
                },
            ));
            events.push((Cycles::new(t0 + 660), E::TrapExit));
            events.push((Cycles::new(t0 + 700), E::TlbFlush));
        }
        let text = summarize(&events, 5);
        assert!(text.contains("trap:svc"), "{text}");
        assert!(text.contains("tlb-flush"), "{text}");
        // 660-cycle spans are exactly 1 us.
        assert!(text.contains("1.000"), "{text}");
    }

    #[test]
    fn top_n_truncates() {
        let mut events = Vec::new();
        for kind in [TrapKind::Svc, TrapKind::Irq, TrapKind::DataAbort] {
            events.push((Cycles::new(0), E::TrapEnter { kind }));
            events.push((Cycles::new(100), E::TrapExit));
        }
        let text = summarize(&events, 1);
        let rows = text.lines().filter(|l| l.starts_with("trap:")).count();
        assert_eq!(rows, 1, "{text}");
    }
}
