//! # mnv-profile — deterministic guest profiling and the flight recorder
//!
//! Two diagnostic instruments on one shared handle:
//!
//! * a **PC sampling profiler**: sample deadlines are exact cycle counts
//!   on the simulated clock, and the simulator takes a sample at the first
//!   instruction boundary at or past each deadline. Because boundaries —
//!   not host wall time — define the sample points, a profile is exactly
//!   reproducible from the run's seed, and the decoded-block executor
//!   folds the next deadline into its batch bound so it samples at the
//!   *same* boundaries as the per-instruction reference interpreter.
//!   Samples fold per ([`SampleKey`]: VM, ASID, kernel context, PC, mode)
//!   into a `BTreeMap`, so exports are deterministic byte-for-byte;
//! * **post-mortem dumps**: on a terminal event the kernel calls
//!   [`Profiler::trigger_dump`], which reads the newest
//!   [`DEFAULT_FLIGHT_CAP`] events of the kernel's one [`Tracer`] ring
//!   (the flight recorder is the tail of the trace, not a second ring)
//!   and folds them, the hot profile buckets and the trigger-site
//!   machine context into one self-contained [`postmortem`] blob,
//!   decoded by the `mnvdbg` binary.
//!
//! ## Observation only
//!
//! Nothing in this crate charges cycles, syncs devices or touches caches,
//! TLBs or architectural registers: a profiled run is **bit-identical** to
//! an unprofiled one (cycles, retired instructions, PMU deltas, trap PCs
//! — enforced by the lockstep suites). The handle follows the shared
//! `Tracer`/`Registry`/`FaultPlane` idiom: `Clone` shares state, and the
//! disabled handle (the default) records nothing: every probe is one
//! inlined `None` test.

#![warn(missing_docs)]

pub mod postmortem;
pub mod sample;

pub use postmortem::PostMortem;
pub use sample::{SampleCtx, SampleKey, SampleMode};

use mnv_hal::Cycles;
use mnv_trace::json::Json;
use mnv_trace::Tracer;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Default sampling period: one sample per 6 600 simulated cycles (10 µs
/// at 660 MHz — 100 kHz sampling on the simulated clock).
pub const DEFAULT_PERIOD: u64 = 6_600;

/// Flight-recorder depth: the newest this-many trace events go into a
/// post-mortem, and the ring size a live profiler gives the kernel's
/// tracer when tracing was off.
pub const DEFAULT_FLIGHT_CAP: usize = 512;

/// Perfetto counter-track bucket width: 1 ms of simulated time.
const COUNTER_BUCKET: u64 = mnv_hal::cycles::CPU_HZ / 1000;

struct State {
    period: u64,
    next_sample: u64,
    samples: BTreeMap<SampleKey, u64>,
    total_samples: u64,
    /// Per-(1 ms bucket, scope) sample counts for the counter tracks.
    series: BTreeMap<(u64, u8), u64>,
    cur_vm: u8,
    ctx: SampleCtx,
    last_dump: Option<String>,
    /// Dumps fired so far, per reason.
    dumps: BTreeMap<&'static str, u64>,
}

/// Shared handle to the profiler and its post-mortem dumps. Clones share
/// state, exactly like `Tracer`: the kernel creates one with
/// [`Profiler::enabled`] and hands clones to the machine and the Hardware
/// Task Manager.
#[derive(Clone, Default)]
pub struct Profiler {
    inner: Option<Rc<RefCell<State>>>,
}

impl Profiler {
    /// An inert profiler: every probe is a no-op, every query empty.
    pub fn disabled() -> Self {
        Profiler::default()
    }

    /// A live profiler sampling every `period` cycles starting from `now`.
    pub fn enabled(period: u64, now: Cycles) -> Self {
        let period = period.max(1);
        Profiler {
            inner: Some(Rc::new(RefCell::new(State {
                period,
                next_sample: now.raw() + period,
                samples: BTreeMap::new(),
                total_samples: 0,
                series: BTreeMap::new(),
                cur_vm: 0,
                ctx: SampleCtx::None,
                last_dump: None,
                dumps: BTreeMap::new(),
            }))),
        }
    }

    /// True when this handle records.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The next sample deadline in raw cycles (`u64::MAX` when disabled).
    /// The block executor folds this into its batch deadline so no decoded
    /// run ever strides over a sample point.
    #[inline]
    pub fn next_deadline(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(u64::MAX, |inner| inner.borrow().next_sample)
    }

    /// Take a sample if `now` has reached the deadline. Called by the
    /// simulator at instruction boundaries (and by the kernel at charge
    /// points for paravirtualized guests, whose cycles never pass through
    /// the interpreter). When the clock stepped over several deadlines at
    /// once, the bucket is credited once per crossed period so profiles
    /// stay cycle-weighted.
    #[inline]
    pub fn poll(&self, now: Cycles, pc: u32, asid: u8, privileged: bool) {
        let Some(inner) = &self.inner else { return };
        let mut s = inner.borrow_mut();
        let now = now.raw();
        if now < s.next_sample {
            return;
        }
        let weight = 1 + (now - s.next_sample) / s.period;
        s.next_sample += weight * s.period;
        let key = SampleKey {
            vm: s.cur_vm,
            asid,
            ctx: s.ctx,
            pc,
            mode: if privileged {
                SampleMode::Privileged
            } else {
                SampleMode::User
            },
        };
        *s.samples.entry(key).or_insert(0) += weight;
        s.total_samples += weight;
        let scope = key.vm;
        *s.series.entry((now / COUNTER_BUCKET, scope)).or_insert(0) += weight;
    }

    /// Annotate subsequent samples and events with the running VM
    /// (0 = host). Set by the kernel at world switches.
    #[inline]
    pub fn set_vm(&self, vm: u8) {
        if let Some(inner) = &self.inner {
            inner.borrow_mut().cur_vm = vm;
        }
    }

    /// Swap the kernel-context annotation, returning the previous one so
    /// nested scopes (a DPR stage inside a hypercall) restore correctly.
    #[inline]
    pub fn swap_ctx(&self, ctx: SampleCtx) -> SampleCtx {
        match &self.inner {
            Some(inner) => std::mem::replace(&mut inner.borrow_mut().ctx, ctx),
            None => SampleCtx::None,
        }
    }

    /// Total samples folded so far (0 when disabled).
    pub fn total_samples(&self) -> u64 {
        self.inner
            .as_ref()
            .map_or(0, |inner| inner.borrow().total_samples)
    }

    /// Fraction of samples landing in attributable (VM, DPR
    /// stage/hypercall) buckets (1.0 for an empty profile).
    pub fn attributed_fraction(&self) -> f64 {
        let Some(inner) = &self.inner else { return 1.0 };
        let s = inner.borrow();
        if s.total_samples == 0 {
            return 1.0;
        }
        let attributed: u64 = s
            .samples
            .iter()
            .filter(|(k, _)| k.is_attributed())
            .map(|(_, n)| *n)
            .sum();
        attributed as f64 / s.total_samples as f64
    }

    /// The profile as collapsed-stack text (one `frames count` line per
    /// bucket, in deterministic key order) — the input format of every
    /// flame-graph renderer.
    pub fn collapsed(&self) -> String {
        let mut out = String::new();
        if let Some(inner) = &self.inner {
            for (k, n) in &inner.borrow().samples {
                out.push_str(&k.collapsed_frames());
                out.push(' ');
                out.push_str(&n.to_string());
                out.push('\n');
            }
        }
        out
    }

    /// The `k` hottest buckets, by sample count then key order.
    pub fn top_k(&self, k: usize) -> Vec<(String, u64)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut all: Vec<(String, u64)> = inner
            .borrow()
            .samples
            .iter()
            .map(|(key, n)| (key.collapsed_frames(), *n))
            .collect();
        all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all
    }

    /// Samples aggregated per (scope, kernel context) — the "where"
    /// breakdown next to the attribution report's "who" tables.
    pub fn hot_contexts(&self) -> Vec<(String, u64)> {
        let Some(inner) = &self.inner else {
            return Vec::new();
        };
        let mut agg: BTreeMap<String, u64> = BTreeMap::new();
        for (k, n) in &inner.borrow().samples {
            let scope = if k.vm == 0 {
                "host".to_string()
            } else {
                format!("vm{}", k.vm)
            };
            let frame = match k.ctx.frame() {
                Some(f) => format!("{scope};{f}"),
                None => scope,
            };
            *agg.entry(frame).or_insert(0) += n;
        }
        let mut out: Vec<(String, u64)> = agg.into_iter().collect();
        out.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        out
    }

    /// Per-VM sample-rate counter tracks as Chrome trace-event JSON
    /// (`ph:"C"` events, one track per scope, 1 ms buckets on the
    /// simulated clock) — loads in Perfetto next to the `mnv-trace`
    /// timeline.
    pub fn perfetto_counters(&self) -> String {
        let Some(inner) = &self.inner else {
            return String::new();
        };
        let mut out: Vec<Json> = Vec::new();
        for (&(bucket, scope), &n) in &inner.borrow().series {
            let name = if scope == 0 {
                "samples:host".to_string()
            } else {
                format!("samples:vm{scope}")
            };
            let ts = (bucket * COUNTER_BUCKET) as f64 * 1e6 / mnv_hal::cycles::CPU_HZ as f64;
            out.push(Json::obj([
                ("name", Json::str(name)),
                ("ph", Json::str("C")),
                ("ts", Json::num(ts)),
                ("pid", Json::num(1.0)),
                ("args", Json::obj([("samples", Json::num(n as f64))])),
            ]));
        }
        Json::obj([
            ("traceEvents", Json::Arr(out)),
            ("displayTimeUnit", Json::str("ms")),
            (
                "otherData",
                Json::obj([("source", Json::str("mnv-profile"))]),
            ),
        ])
        .to_string()
    }

    /// Capture a post-mortem blob: the newest [`DEFAULT_FLIGHT_CAP`]
    /// events of `tracer` (the kernel's one trace ring), the hottest
    /// profile buckets and the caller-supplied machine `context`, stored
    /// on the shared state (fetch with [`Profiler::last_dump`]) and
    /// returned. `None` when disabled.
    pub fn trigger_dump(
        &self,
        reason: &'static str,
        now: Cycles,
        tracer: &Tracer,
        context: Json,
    ) -> Option<String> {
        let inner = self.inner.as_ref()?;
        let events = tracer.tail(DEFAULT_FLIGHT_CAP);
        let dropped = tracer.total() - events.len() as u64;
        let blob = postmortem::build_blob(
            reason,
            now,
            &events,
            dropped,
            &self.top_k(10),
            inner.borrow().total_samples,
            context,
        )
        .to_string();
        let mut state = inner.borrow_mut();
        state.last_dump = Some(blob.clone());
        *state.dumps.entry(reason).or_default() += 1;
        Some(blob)
    }

    /// How many post-mortems fired so far, per reason.
    pub fn dumps(&self) -> BTreeMap<&'static str, u64> {
        self.inner
            .as_ref()
            .map_or_else(BTreeMap::new, |s| s.borrow().dumps.clone())
    }

    /// The most recent post-mortem blob, if any dump has fired.
    pub fn last_dump(&self) -> Option<String> {
        self.inner.as_ref()?.borrow().last_dump.clone()
    }
}

impl std::fmt::Debug for Profiler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Profiler")
            .field("enabled", &self.is_enabled())
            .field("samples", &self.total_samples())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let p = Profiler::disabled();
        p.poll(Cycles::new(1_000_000), 0x8000, 1, false);
        assert!(!p.is_enabled());
        assert_eq!(p.total_samples(), 0);
        assert!(p.collapsed().is_empty());
        assert_eq!(p.next_deadline(), u64::MAX);
        let t = Tracer::enabled(4);
        assert!(p.trigger_dump("x", Cycles::ZERO, &t, Json::Null).is_none());
    }

    #[test]
    fn sampling_fires_at_deadlines_and_folds() {
        let p = Profiler::enabled(100, Cycles::ZERO);
        assert_eq!(p.next_deadline(), 100);
        p.poll(Cycles::new(99), 0x10, 0, false);
        assert_eq!(p.total_samples(), 0, "before the deadline: no sample");
        p.poll(Cycles::new(100), 0x10, 0, false);
        assert_eq!(p.total_samples(), 1);
        assert_eq!(p.next_deadline(), 200);
        // A 350-cycle stride over deadlines at 200 and 300 weighs 2.
        p.poll(Cycles::new(350), 0x10, 0, false);
        assert_eq!(p.total_samples(), 3);
        assert_eq!(p.next_deadline(), 400);
        assert_eq!(p.collapsed(), "host;0x00000010 3\n");
    }

    #[test]
    fn annotations_split_buckets_and_clones_share_state() {
        let p = Profiler::enabled(10, Cycles::ZERO);
        let q = p.clone();
        q.set_vm(1);
        p.poll(Cycles::new(10), 0x20, 1, false);
        let prev = q.swap_ctx(SampleCtx::Hypercall(17));
        assert_eq!(prev, SampleCtx::None);
        p.poll(Cycles::new(20), 0x24, 1, true);
        q.swap_ctx(prev);
        p.poll(Cycles::new(30), 0x20, 1, false);
        let text = p.collapsed();
        assert_eq!(
            text,
            "vm1;0x00000020 2\nvm1;hc:HwTaskRequest;0x00000024~svc 1\n"
        );
        assert!(p.attributed_fraction() > 0.99);
        assert_eq!(p.hot_contexts()[0], ("vm1".to_string(), 2));
    }

    #[test]
    fn dump_round_trips_flight_and_top_buckets() {
        use mnv_trace::TraceEvent;
        let p = Profiler::enabled(10, Cycles::ZERO);
        p.set_vm(2);
        p.poll(Cycles::new(10), 0x40, 2, false);
        // The flight recorder is the tail of the tracer's ring: a ring
        // deeper than the dump reads DEFAULT_FLIGHT_CAP events, the rest
        // count as lost.
        let tracer = Tracer::enabled(DEFAULT_FLIGHT_CAP + 8);
        let n = DEFAULT_FLIGHT_CAP as u64 + 6;
        for i in 0..n {
            tracer.emit(
                Cycles::new(i * 100),
                TraceEvent::VmSwitch { from: 0, to: 2 },
            );
        }
        tracer.emit(Cycles::new(n * 100), TraceEvent::PrrQuarantine { prr: 1 });
        let blob = p
            .trigger_dump(
                "watchdog-abort",
                Cycles::new(n * 100),
                &tracer,
                Json::obj([("pc", Json::num(64.0))]),
            )
            .expect("enabled");
        assert_eq!(p.last_dump().as_deref(), Some(blob.as_str()));
        assert_eq!(p.dumps().get("watchdog-abort"), Some(&1));
        let pm = postmortem::parse(&blob).expect("decodes");
        assert_eq!(pm.reason, "watchdog-abort");
        assert_eq!(pm.events.len(), DEFAULT_FLIGHT_CAP, "the newest events");
        assert_eq!(pm.events_dropped, 7);
        assert_eq!(pm.events[0].0, 700, "oldest retained event");
        assert_eq!(pm.events.last().unwrap().1, "PrrQuarantine");
        assert_eq!(pm.profile_top[0].0, "vm2;0x00000040");
        assert_eq!(pm.context.get("pc").and_then(Json::as_num), Some(64.0));
    }

    #[test]
    fn perfetto_counters_parse_and_bucket_per_vm() {
        let p = Profiler::enabled(DEFAULT_PERIOD, Cycles::ZERO);
        p.set_vm(1);
        for i in 1..=5u64 {
            p.poll(Cycles::new(i * DEFAULT_PERIOD), 0x8000, 1, false);
        }
        let doc = mnv_trace::json::parse(&p.perfetto_counters()).expect("valid JSON");
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(!events.is_empty());
        assert!(events
            .iter()
            .all(|e| e.get("ph").and_then(Json::as_str) == Some("C")));
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("samples:vm1")));
    }
}
