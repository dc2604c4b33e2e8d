//! # mnv-metrics — the counter plane of the Mini-NOVA reproduction
//!
//! PR 1 gave the stack latency *spans* (`mnv-trace`); this crate gives it
//! event *counts*: a registry of typed counters and gauges, labelled per
//! VM / per PRR / per AXI interface, that the kernel and the programmable-
//! logic simulator charge as they run. Where the tracer answers "how long
//! did the Hardware Task Manager entry take", the registry answers "how
//! many D-cache refills did VM 2 cause while it ran" — the measured form
//! of the paper's §V-B pollution argument.
//!
//! Design rules:
//!
//! * **Switched on at run time, not by a cargo feature.**
//!   [`Registry::disabled`] (the default) is an empty handle: every probe
//!   is one inlined `None` test and records nothing, so a kernel without
//!   a live registry pays one branch per probe. Call sites never need a
//!   `cfg`.
//! * **No allocation after init.** A counter allocates its slot on first
//!   touch; every subsequent `add`/`set` is a `BTreeMap` index lookup plus
//!   an integer add. Hot paths therefore settle into a fixed heap
//!   footprint after the first scheduling round.
//! * **Snapshot/delta arithmetic.** [`Registry::snapshot`] captures the
//!   whole registry; [`Snapshot::delta`] subtracts an earlier capture so
//!   harnesses can meter a measurement window exactly (counters subtract,
//!   gauges keep their latest value).
//! * **Two exporters.** Prometheus text exposition
//!   ([`Snapshot::prometheus`], every sample line `name{labels} value`)
//!   and `mnv_trace::json` ([`Snapshot::to_json`]) for machine-readable
//!   artefacts.
//! * **Histograms with exemplars.** [`Registry::observe`] records a latency
//!   sample into a log-bucketed histogram (reusing `mnv_trace::Hist`) and
//!   remembers, per bucket, the last request id that landed there. The
//!   classic exposition stays integer-valued; the OpenMetrics-style
//!   exposition ([`Snapshot::openmetrics`]) annotates p99-tail buckets
//!   with their exemplar so a tail sample links straight back to the
//!   request waterfall that caused it.

use mnv_trace::json::Json;

use mnv_trace::hist::{self, Hist, BUCKETS};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// What a metric is attributed to. Labels render into the Prometheus label
/// set; `Machine` is the unlabelled machine-wide scope.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Label {
    /// Machine-wide, no attribution.
    Machine,
    /// The microkernel itself (world-switch code, scheduler, idle loop).
    Host,
    /// A guest VM.
    Vm(u8),
    /// A partially reconfigurable region.
    Prr(u8),
    /// An AXI interface by name (e.g. `"m-gp0"`, `"s-hp0"`).
    Iface(&'static str),
}

/// Escape a label value per the Prometheus text exposition format:
/// backslash, double quote and line feed become `\\`, `\"` and `\n`.
/// Numeric labels never need it, but [`Label::Iface`] carries arbitrary
/// text and a hostile interface name must not break the line format.
pub fn escape_label_value(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

impl Label {
    /// Prometheus label-set rendering (empty string for [`Label::Machine`]).
    pub fn render(&self) -> String {
        match self {
            Label::Machine => String::new(),
            Label::Host => "{ctx=\"host\"}".to_string(),
            Label::Vm(v) => format!("{{vm=\"{v}\"}}"),
            Label::Prr(p) => format!("{{prr=\"{p}\"}}"),
            Label::Iface(i) => format!("{{iface=\"{}\"}}", escape_label_value(i)),
        }
    }

    fn json_key(&self) -> String {
        match self {
            Label::Machine => "machine".to_string(),
            Label::Host => "host".to_string(),
            Label::Vm(v) => format!("vm{v}"),
            Label::Prr(p) => format!("prr{p}"),
            Label::Iface(i) => format!("iface:{i}"),
        }
    }
}

/// Metric type: counters only go up, gauges hold a level.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// Monotonically increasing count.
    Counter,
    /// Instantaneous level (set, not accumulated).
    Gauge,
}

/// One exported sample.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Entry {
    /// Metric name (static, snake_case, unprefixed).
    pub name: &'static str,
    /// Attribution label.
    pub label: Label,
    /// Counter or gauge.
    pub kind: Kind,
    /// Current value.
    pub value: u64,
}

impl Entry {
    /// A counter sample.
    pub fn counter(name: &'static str, label: Label, value: u64) -> Entry {
        let kind = Kind::Counter;
        Entry {
            name,
            label,
            kind,
            value,
        }
    }

    /// A gauge sample.
    pub fn gauge(name: &'static str, label: Label, value: u64) -> Entry {
        let kind = Kind::Gauge;
        Entry {
            name,
            label,
            kind,
            value,
        }
    }
}

/// One exported histogram bucket: exclusive upper bound, the number of
/// samples that landed in it, and the exemplar — the last request id (with
/// its sampled value) observed in this bucket (`exemplar_req == 0` when no
/// request-attributed sample landed here).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistBucket {
    /// Exclusive upper bound of the bucket (saturating at `u64::MAX`).
    pub le: u64,
    /// Samples in this bucket (non-cumulative).
    pub count: u64,
    /// Last request id that landed here (0 = none).
    pub exemplar_req: u32,
    /// The sample value that request contributed.
    pub exemplar_value: u64,
}

/// One exported histogram series.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistEntry {
    /// Metric name (static, snake_case, unprefixed).
    pub name: &'static str,
    /// Attribution label.
    pub label: Label,
    /// Total sample count.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Smallest sample (0 when empty).
    pub min: u64,
    /// Largest sample (0 when empty).
    pub max: u64,
    /// Estimated 99th percentile (integer, same unit as the samples).
    pub p99: u64,
    /// Non-empty buckets, ascending by bound.
    pub buckets: Vec<HistBucket>,
}

impl HistEntry {
    /// True when `b` is a p99-tail bucket: its range reaches at or beyond
    /// the estimated 99th percentile, so its exemplar points at a genuine
    /// tail sample.
    pub fn is_tail(&self, b: &HistBucket) -> bool {
        b.le > self.p99
    }
}

/// A point-in-time capture of the whole registry. Plain data — empty for
/// a disabled registry.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Samples in (name, label) order.
    pub entries: Vec<Entry>,
    /// Histogram series in (name, label) order.
    pub hists: Vec<HistEntry>,
}

impl Snapshot {
    /// Value of one sample (0 when absent).
    pub fn get(&self, name: &str, label: Label) -> u64 {
        self.entries
            .iter()
            .find(|e| e.name == name && e.label == label)
            .map(|e| e.value)
            .unwrap_or(0)
    }

    /// Add samples kept outside the registry (an embedder's view of its
    /// own counters), keeping the (name, label) order.
    pub fn extend(&mut self, entries: impl IntoIterator<Item = Entry>) {
        self.entries.extend(entries);
        self.entries.sort_by_key(|e| (e.name, e.label));
    }

    /// Sum of a metric across all labels.
    pub fn total(&self, name: &str) -> u64 {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.value)
            .sum()
    }

    /// All labels a metric is recorded under.
    pub fn labels_of(&self, name: &str) -> Vec<Label> {
        self.entries
            .iter()
            .filter(|e| e.name == name)
            .map(|e| e.label)
            .collect()
    }

    /// The histogram series for one (name, label), if recorded.
    pub fn hist(&self, name: &str, label: Label) -> Option<&HistEntry> {
        self.hists
            .iter()
            .find(|h| h.name == name && h.label == label)
    }

    /// Measurement-window arithmetic: counters subtract the earlier
    /// capture (saturating, so a reset upstream cannot underflow); gauges
    /// keep their latest value. Samples missing from `earlier` pass
    /// through unchanged. Histograms are lifetime-cumulative and pass
    /// through as-is (their quantiles are only meaningful over the full
    /// distribution).
    pub fn delta(&self, earlier: &Snapshot) -> Snapshot {
        let entries = self
            .entries
            .iter()
            .map(|e| match e.kind {
                Kind::Counter => Entry {
                    value: e.value.saturating_sub(earlier.get(e.name, e.label)),
                    ..*e
                },
                Kind::Gauge => *e,
            })
            .collect();
        Snapshot {
            entries,
            hists: self.hists.clone(),
        }
    }

    /// Prometheus text exposition: `# HELP` and `# TYPE` headers plus one
    /// `mnv_name{labels} value` line per sample, and the classic
    /// cumulative `_bucket{le=...}` / `_sum` / `_count` series for every
    /// histogram. Label values are escaped per the format (see
    /// [`escape_label_value`]). Every sample value is an integer.
    pub fn prometheus(&self) -> String {
        self.exposition(false)
    }

    /// OpenMetrics-style text exposition: the same families as
    /// [`Snapshot::prometheus`], but p99-tail histogram buckets carry an
    /// exemplar annotation (`# {req_id="N"} value`) naming the last
    /// request that landed there, and the document ends with `# EOF`.
    pub fn openmetrics(&self) -> String {
        let mut out = self.exposition(true);
        out.push_str("# EOF\n");
        out
    }

    fn exposition(&self, exemplars: bool) -> String {
        let mut out = String::new();
        let mut last: Option<&'static str> = None;
        for e in &self.entries {
            if last != Some(e.name) {
                let t = match e.kind {
                    Kind::Counter => "counter",
                    Kind::Gauge => "gauge",
                };
                out.push_str(&format!(
                    "# HELP mnv_{} Mini-NOVA {} `{}` ({}).\n",
                    e.name,
                    t,
                    e.name,
                    match e.kind {
                        Kind::Counter => "cumulative since boot",
                        Kind::Gauge => "instantaneous level",
                    }
                ));
                out.push_str(&format!("# TYPE mnv_{} {t}\n", e.name));
                last = Some(e.name);
            }
            out.push_str(&format!("mnv_{}{} {}\n", e.name, e.label.render(), e.value));
        }
        let mut last: Option<&'static str> = None;
        for h in &self.hists {
            if last != Some(h.name) {
                out.push_str(&format!(
                    "# HELP mnv_{} Mini-NOVA histogram `{}` (log-bucketed distribution, cumulative since boot).\n",
                    h.name, h.name
                ));
                out.push_str(&format!("# TYPE mnv_{} histogram\n", h.name));
                last = Some(h.name);
            }
            let mut cum = 0u64;
            let mut had_inf = false;
            for b in &h.buckets {
                cum += b.count;
                let le = if b.le == u64::MAX {
                    had_inf = true;
                    "+Inf".to_string()
                } else {
                    b.le.to_string()
                };
                let series = format!(
                    "mnv_{}_bucket{}",
                    h.name,
                    label_set_with(&h.label, &format!("le=\"{le}\""))
                );
                if exemplars && h.is_tail(b) && b.exemplar_req != 0 {
                    out.push_str(&format!(
                        "{series} {cum} # {{req_id=\"{}\"}} {}\n",
                        b.exemplar_req, b.exemplar_value
                    ));
                } else {
                    out.push_str(&format!("{series} {cum}\n"));
                }
            }
            if !had_inf {
                out.push_str(&format!(
                    "mnv_{}_bucket{} {}\n",
                    h.name,
                    label_set_with(&h.label, "le=\"+Inf\""),
                    h.count
                ));
            }
            out.push_str(&format!(
                "mnv_{}_sum{} {}\n",
                h.name,
                h.label.render(),
                h.sum
            ));
            out.push_str(&format!(
                "mnv_{}_count{} {}\n",
                h.name,
                h.label.render(),
                h.count
            ));
        }
        out
    }

    /// JSON export: `{name: {label: value, ...}, ...}`; histogram series
    /// export their summary (`count`/`sum`/`p99`/`max`) per label.
    pub fn to_json(&self) -> Json {
        let mut metrics: std::collections::BTreeMap<String, Json> = Default::default();
        for e in &self.entries {
            let slot = metrics
                .entry(e.name.to_string())
                .or_insert_with(|| Json::Obj(Default::default()));
            if let Json::Obj(map) = slot {
                map.insert(e.label.json_key(), Json::num(e.value as f64));
            }
        }
        for h in &self.hists {
            let slot = metrics
                .entry(h.name.to_string())
                .or_insert_with(|| Json::Obj(Default::default()));
            if let Json::Obj(map) = slot {
                map.insert(
                    h.label.json_key(),
                    Json::obj([
                        ("count", Json::num(h.count as f64)),
                        ("sum", Json::num(h.sum as f64)),
                        ("p99", Json::num(h.p99 as f64)),
                        ("max", Json::num(h.max as f64)),
                    ]),
                );
            }
        }
        Json::Obj(metrics.into_iter().collect())
    }
}

/// Merge an extra `key="value"` pair into a rendered label set (labels
/// render as `{...}` or the empty string for [`Label::Machine`]).
fn label_set_with(label: &Label, extra: &str) -> String {
    let base = label.render();
    if base.is_empty() {
        format!("{{{extra}}}")
    } else {
        format!("{},{extra}}}", &base[..base.len() - 1])
    }
}

struct HistSlot {
    name: &'static str,
    label: Label,
    hist: Hist,
    /// Per-bucket exemplar: last (request id, sample value) that landed
    /// there; request id 0 means no request-attributed sample yet.
    exemplars: [(u32, u64); BUCKETS],
}

#[derive(Default)]
struct State {
    /// Slot storage; values mutate in place, slots are never removed.
    slots: Vec<Entry>,
    /// (name, label) → slot index; allocation happens only on first touch.
    index: BTreeMap<(&'static str, Label), usize>,
    /// Histogram slot storage, same first-touch discipline.
    hists: Vec<HistSlot>,
    /// (name, label) → histogram slot index.
    hist_index: BTreeMap<(&'static str, Label), usize>,
}

impl State {
    fn slot(&mut self, name: &'static str, label: Label, kind: Kind) -> &mut Entry {
        let idx = *self.index.entry((name, label)).or_insert_with(|| {
            self.slots.push(Entry {
                name,
                label,
                kind,
                value: 0,
            });
            self.slots.len() - 1
        });
        &mut self.slots[idx]
    }

    fn hist_slot(&mut self, name: &'static str, label: Label) -> &mut HistSlot {
        let idx = *self.hist_index.entry((name, label)).or_insert_with(|| {
            self.hists.push(HistSlot {
                name,
                label,
                hist: Hist::new(),
                exemplars: [(0, 0); BUCKETS],
            });
            self.hists.len() - 1
        });
        &mut self.hists[idx]
    }
}

/// Shared handle to the counter registry. Clones share state, exactly like
/// `Tracer` and `FaultPlane`: the kernel creates one with
/// [`Registry::enabled`] and hands clones to the machine layers.
#[derive(Clone, Default)]
pub struct Registry {
    inner: Option<Rc<RefCell<State>>>,
}

impl Registry {
    /// An inert registry: every probe is a no-op, every query empty.
    pub fn disabled() -> Self {
        Registry::default()
    }

    /// A live registry.
    pub fn enabled() -> Self {
        Registry {
            inner: Some(Rc::new(RefCell::new(State::default()))),
        }
    }

    /// True when this handle records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Add `n` to a counter.
    #[inline]
    pub fn add(&self, name: &'static str, label: Label, n: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().slot(name, label, Kind::Counter).value += n;
        }
    }

    /// Increment a counter by one.
    #[inline]
    pub fn inc(&self, name: &'static str, label: Label) {
        self.add(name, label, 1);
    }

    /// Record a histogram sample, optionally attributed to a request id
    /// (`exemplar != 0`): the sample's bucket remembers the last request
    /// that landed in it, which the OpenMetrics exposition surfaces as an
    /// exemplar annotation on p99-tail buckets.
    #[inline]
    pub fn observe(&self, name: &'static str, label: Label, value: u64, exemplar: u32) {
        if let Some(inner) = &self.inner {
            let mut s = inner.borrow_mut();
            let slot = s.hist_slot(name, label);
            slot.hist.record(value);
            if exemplar != 0 {
                slot.exemplars[hist::bucket_of(value)] = (exemplar, value);
            }
        }
    }

    /// Set a gauge to `v`.
    #[inline]
    pub fn set(&self, name: &'static str, label: Label, v: u64) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().slot(name, label, Kind::Gauge).value = v;
        }
    }

    /// Current value of one sample (0 when absent or disabled).
    pub fn get(&self, name: &'static str, label: Label) -> u64 {
        let Some(inner) = &self.inner else { return 0 };
        let s = inner.borrow();
        s.index
            .get(&(name, label))
            .map(|&i| s.slots[i].value)
            .unwrap_or(0)
    }

    /// Capture everything, sorted by (name, label). Empty when disabled.
    pub fn snapshot(&self) -> Snapshot {
        let Some(inner) = &self.inner else {
            return Snapshot::default();
        };
        let s = inner.borrow();
        // Both indexes iterate in (name, label) order.
        let entries = s.index.values().map(|&i| s.slots[i]).collect();
        let hists = s
            .hist_index
            .values()
            .map(|&i| {
                let sl = &s.hists[i];
                let buckets = (0..BUCKETS)
                    .filter(|&b| sl.hist.bucket_count(b) > 0)
                    .map(|b| HistBucket {
                        le: hist::bucket_hi(b),
                        count: sl.hist.bucket_count(b),
                        exemplar_req: sl.exemplars[b].0,
                        exemplar_value: sl.exemplars[b].1,
                    })
                    .collect();
                HistEntry {
                    name: sl.name,
                    label: sl.label,
                    count: sl.hist.count(),
                    sum: sl.hist.sum(),
                    min: sl.hist.min(),
                    max: sl.hist.max(),
                    p99: sl.hist.p99() as u64,
                    buckets,
                }
            })
            .collect();
        Snapshot { entries, hists }
    }

    /// OpenMetrics-style text of the current state (just the `# EOF`
    /// terminator when disabled).
    pub fn openmetrics(&self) -> String {
        self.snapshot().openmetrics()
    }

    /// Prometheus text of the current state (empty when disabled).
    pub fn prometheus(&self) -> String {
        self.snapshot().prometheus()
    }

    /// JSON export of the current state.
    pub fn to_json(&self) -> Json {
        self.snapshot().to_json()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Registry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_registry_is_inert() {
        let r = Registry::disabled();
        r.add("x", Label::Machine, 5);
        r.set("g", Label::Vm(1), 7);
        r.observe("h", Label::Machine, 100, 3);
        assert!(!r.is_enabled());
        assert_eq!(r.get("x", Label::Machine), 0);
        assert!(r.snapshot().entries.is_empty());
        assert!(r.snapshot().hists.is_empty());
        assert!(r.prometheus().is_empty());
        assert_eq!(r.openmetrics(), "# EOF\n");
    }

    #[test]
    fn counters_accumulate_and_clones_share_state() {
        let r = Registry::enabled();
        let r2 = r.clone();
        r.add("hypercalls", Label::Vm(1), 3);
        r2.inc("hypercalls", Label::Vm(1));
        r2.add("hypercalls", Label::Vm(2), 10);
        assert_eq!(r.get("hypercalls", Label::Vm(1)), 4);
        assert_eq!(r.snapshot().total("hypercalls"), 14);
    }

    #[test]
    fn gauges_set_not_accumulate() {
        let r = Registry::enabled();
        r.set("vm_count", Label::Machine, 2);
        r.set("vm_count", Label::Machine, 3);
        assert_eq!(r.get("vm_count", Label::Machine), 3);
        let s = r.snapshot();
        assert_eq!(s.entries[0].kind, Kind::Gauge);
    }

    #[test]
    fn snapshot_delta_subtracts_counters_keeps_gauges() {
        let r = Registry::enabled();
        r.add("c", Label::Vm(0), 10);
        r.set("g", Label::Machine, 5);
        let before = r.snapshot();
        r.add("c", Label::Vm(0), 7);
        r.set("g", Label::Machine, 9);
        let d = r.snapshot().delta(&before);
        assert_eq!(d.get("c", Label::Vm(0)), 7);
        assert_eq!(d.get("g", Label::Machine), 9);
    }

    #[test]
    fn prometheus_lines_are_name_labels_value() {
        let r = Registry::enabled();
        r.add("dcache_refill", Label::Vm(1), 42);
        r.add("dcache_refill", Label::Host, 7);
        r.add("pcap_bytes", Label::Machine, 1024);
        r.set("prr_busy", Label::Prr(2), 1);
        r.add("axi_reads", Label::Iface("m-gp0"), 3);
        let text = r.prometheus();
        assert!(text.contains("mnv_dcache_refill{vm=\"1\"} 42"), "{text}");
        assert!(text.contains("mnv_dcache_refill{ctx=\"host\"} 7"), "{text}");
        assert!(text.contains("mnv_pcap_bytes 1024"), "{text}");
        assert!(text.contains("mnv_prr_busy{prr=\"2\"} 1"), "{text}");
        assert!(text.contains("mnv_axi_reads{iface=\"m-gp0\"} 3"), "{text}");
        // Every non-comment line must parse as `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(value.parse::<u64>().is_ok(), "{line}");
            assert!(series.starts_with("mnv_"), "{line}");
            if let Some(open) = series.find('{') {
                assert!(series.ends_with('}'), "{line}");
                assert!(series[open..].contains('='), "{line}");
            }
        }
    }

    #[test]
    fn prometheus_emits_help_before_type() {
        let r = Registry::enabled();
        r.add("hypercalls", Label::Vm(1), 3);
        r.set("vm_count", Label::Machine, 2);
        let text = r.prometheus();
        let lines: Vec<&str> = text.lines().collect();
        let help = lines
            .iter()
            .position(|l| l.starts_with("# HELP mnv_hypercalls "))
            .expect("HELP line present");
        assert_eq!(
            lines[help + 1],
            "# TYPE mnv_hypercalls counter",
            "TYPE follows its HELP"
        );
        assert!(text.contains("# HELP mnv_vm_count "), "{text}");
        assert!(text.contains("# TYPE mnv_vm_count gauge"), "{text}");
    }

    #[test]
    fn hostile_label_values_are_escaped() {
        assert_eq!(escape_label_value("m-gp0"), "m-gp0");
        assert_eq!(
            escape_label_value("a\\b\"c\nd"),
            "a\\\\b\\\"c\\nd",
            "backslash, quote and newline escape"
        );
        let r = Registry::enabled();
        r.add("axi_reads", Label::Iface("evil\"}\nmnv_fake 1\\"), 3);
        let text = r.prometheus();
        // The hostile value must stay inside one quoted label value: no
        // sample line may be forged by the embedded newline/quote.
        assert!(
            text.contains("mnv_axi_reads{iface=\"evil\\\"}\\nmnv_fake 1\\\\\"} 3"),
            "{text}"
        );
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            assert!(line.starts_with("mnv_axi_reads"), "forged line: {line}");
        }
    }

    #[test]
    fn json_export_groups_by_metric_then_label() {
        let r = Registry::enabled();
        r.add("tlb_refill", Label::Vm(1), 5);
        r.add("tlb_refill", Label::Vm(2), 6);
        let j = r.to_json();
        let m = j.get("tlb_refill").expect("metric present");
        assert_eq!(m.get("vm1").and_then(Json::as_num), Some(5.0));
        assert_eq!(m.get("vm2").and_then(Json::as_num), Some(6.0));
        // Round-trips through the parser.
        let parsed = mnv_trace::json::parse(&j.to_string()).unwrap();
        assert_eq!(parsed.to_string(), j.to_string());
    }

    #[test]
    fn histograms_observe_and_snapshot() {
        let r = Registry::enabled();
        for _ in 0..99 {
            r.observe("req_latency", Label::Iface("fft"), 1_000, 0);
        }
        r.observe("req_latency", Label::Iface("fft"), 1_000_000, 42);
        let s = r.snapshot();
        let h = s.hist("req_latency", Label::Iface("fft")).expect("series");
        assert_eq!(h.count, 100);
        assert_eq!(h.sum, 99 * 1_000 + 1_000_000);
        assert_eq!(h.max, 1_000_000);
        assert!(h.p99 >= 1_000, "{}", h.p99);
        // Only the slow sample carried a request id; its bucket remembers it.
        let tail = h
            .buckets
            .iter()
            .find(|b| b.exemplar_req != 0)
            .expect("exemplar recorded");
        assert_eq!(tail.exemplar_req, 42);
        assert_eq!(tail.exemplar_value, 1_000_000);
        assert!(h.is_tail(tail), "the outlier bucket is in the p99 tail");
        // Deltas pass histograms through (they are lifetime-cumulative).
        let d = r.snapshot().delta(&s);
        assert_eq!(d.hist("req_latency", Label::Iface("fft")), Some(h));
    }

    #[test]
    fn prometheus_histograms_are_cumulative_integer_series() {
        let r = Registry::enabled();
        r.observe("req_latency", Label::Vm(1), 3, 0);
        r.observe("req_latency", Label::Vm(1), 5, 0);
        r.observe("req_latency", Label::Vm(1), 900, 7);
        let text = r.prometheus();
        assert!(text.contains("# TYPE mnv_req_latency histogram"), "{text}");
        // Buckets are cumulative: ⌈log2⌉ buckets with upper bounds 4, 8, 1024.
        assert!(
            text.contains("mnv_req_latency_bucket{vm=\"1\",le=\"4\"} 1"),
            "{text}"
        );
        assert!(
            text.contains("mnv_req_latency_bucket{vm=\"1\",le=\"8\"} 2"),
            "{text}"
        );
        assert!(
            text.contains("mnv_req_latency_bucket{vm=\"1\",le=\"1024\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("mnv_req_latency_bucket{vm=\"1\",le=\"+Inf\"} 3"),
            "{text}"
        );
        assert!(text.contains("mnv_req_latency_sum{vm=\"1\"} 908"), "{text}");
        assert!(text.contains("mnv_req_latency_count{vm=\"1\"} 3"), "{text}");
        // The classic exposition never carries exemplar annotations, so
        // every sample line still parses as `series u64-value`.
        assert!(!text.contains("req_id"), "{text}");
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (series, value) = line.rsplit_once(' ').expect("space-separated");
            assert!(value.parse::<u64>().is_ok(), "{line}");
            assert!(series.starts_with("mnv_"), "{line}");
        }
    }

    #[test]
    fn openmetrics_annotates_tail_buckets_with_exemplars() {
        let r = Registry::enabled();
        for _ in 0..99 {
            r.observe("lat", Label::Machine, 100, 1);
        }
        r.observe("lat", Label::Machine, 1_000_000, 17);
        let text = r.openmetrics();
        assert!(text.ends_with("# EOF\n"), "{text}");
        let tail = text
            .lines()
            .find(|l| l.contains("# {req_id=\"17\"}"))
            .expect("tail exemplar annotated");
        assert!(tail.starts_with("mnv_lat_bucket{le=\""), "{tail}");
        assert!(tail.ends_with(" 1000000"), "{tail}");
        // The bulk bucket sits below the p99 tail: its exemplar (request 1)
        // stays unannotated.
        assert!(!text.contains("req_id=\"1\""), "{text}");
    }

    #[test]
    fn no_alloc_after_first_touch() {
        let r = Registry::enabled();
        r.add("c", Label::Vm(1), 1);
        let before = r.inner.as_ref().unwrap().borrow().slots.capacity();
        for _ in 0..1000 {
            r.add("c", Label::Vm(1), 1);
        }
        let after = r.inner.as_ref().unwrap().borrow().slots.capacity();
        assert_eq!(before, after, "steady-state adds must not grow storage");
        // Histogram slots follow the same first-touch discipline.
        r.observe("h", Label::Vm(1), 100, 1);
        let before = r.inner.as_ref().unwrap().borrow().hists.capacity();
        for v in 0..1000 {
            r.observe("h", Label::Vm(1), v, 1);
        }
        let after = r.inner.as_ref().unwrap().borrow().hists.capacity();
        assert_eq!(before, after, "steady-state observes must not grow storage");
        assert_eq!(r.get("c", Label::Vm(1)), 1001);
    }
}
