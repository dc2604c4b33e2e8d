//! Ready-made guest tasks: the paper's evaluation workload mix.
//!
//! §V-B: "Each VM is assigned with a virtualized uC/OS-II, which is
//! executing heavy workload tasks, for example, GSM encoding, or Adaptive
//! differential pulse-code modulation (ADPCM) compression … and
//! particularly a special task (T_hw) programmed to invoke hardware task
//! requests. … Each time it executes, it randomly selects a hardware task
//! from the hardware task set and generates a hardware task hypercall."
//!
//! Each task couples a *functional* computation (from `mnv-workloads`) with
//! a *cost model*: cycles charged per unit of work plus genuine guest-
//! memory traffic, so running more VMs really does pollute the simulated
//! caches — the causal mechanism behind the paper's Table III trends.

use mnv_hal::abi::{ring as ringabi, HcError, HwTaskStatus};
use mnv_hal::{HwTaskId, VirtAddr};
use mnv_workloads::adpcm::{adpcm_encode, AdpcmState};
use mnv_workloads::gsm::{GsmEncoder, GSM_FRAME_BYTES, GSM_FRAME_SAMPLES};
use mnv_workloads::signal::{Lcg, Signal};

use crate::hwtask::{HwClientError, HwTaskClient};
use crate::layout;
use crate::ring::RingClient;
use crate::task::{GuestTask, TaskAction, TaskCtx};

/// Modelled cost of encoding one GSM frame on the A9 (≈90 µs at 660 MHz —
/// GSM-FR class complexity).
pub const GSM_CYCLES_PER_FRAME: u64 = 60_000;
/// Modelled ADPCM cost per sample.
pub const ADPCM_CYCLES_PER_SAMPLE: u64 = 6;

/// A pure compute-and-touch load generator.
pub struct ComputeTask {
    /// Cycles charged per step.
    pub cycles_per_step: u64,
    /// Working-set bytes touched per step.
    pub touch_bytes: u64,
    cursor: u64,
}

impl ComputeTask {
    /// Build with the given per-step cost and working set.
    pub fn new(cycles_per_step: u64, touch_bytes: u64) -> Self {
        ComputeTask {
            cycles_per_step,
            touch_bytes,
            cursor: 0,
        }
    }
}

impl GuestTask for ComputeTask {
    fn name(&self) -> &'static str {
        "compute"
    }

    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> TaskAction {
        ctx.env.compute(self.cycles_per_step);
        let mut off = 0;
        while off < self.touch_bytes {
            let va =
                VirtAddr::new(layout::WORK_BASE.raw() + (self.cursor + off) % layout::WORK_LEN);
            let _ = ctx.env.read_u32(va);
            off += 64;
        }
        self.cursor = (self.cursor + self.touch_bytes) % layout::WORK_LEN;
        TaskAction::Continue
    }
}

/// GSM encoder task: streams a synthetic utterance through the encoder,
/// one 160-sample frame per step, reading PCM from and writing the coded
/// frames into guest memory.
pub struct GsmTask {
    enc: GsmEncoder,
    pcm: Vec<i16>,
    frame: usize,
    out_va: VirtAddr,
    in_va: VirtAddr,
    initialised: bool,
    /// Frames encoded (observable by tests).
    pub frames: u64,
}

impl GsmTask {
    /// A task encoding a `seconds`-long looped utterance.
    pub fn new(seed: u64, seconds: usize) -> Self {
        GsmTask {
            enc: GsmEncoder::new(),
            pcm: Signal::speech_like(8000 * seconds.max(1), seed),
            frame: 0,
            in_va: layout::WORK_BASE,
            out_va: VirtAddr::new(layout::WORK_BASE.raw() + layout::WORK_LEN / 2),
            initialised: false,
            frames: 0,
        }
    }
}

impl GuestTask for GsmTask {
    fn name(&self) -> &'static str {
        "gsm-enc"
    }

    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> TaskAction {
        if !self.initialised {
            // Stage the PCM into guest memory (the "capture buffer").
            let bytes: Vec<u8> = self.pcm.iter().flat_map(|s| s.to_le_bytes()).collect();
            let n = bytes.len().min((layout::WORK_LEN / 2) as usize);
            let _ = ctx.env.write_block(self.in_va, &bytes[..n]);
            self.initialised = true;
            return TaskAction::Continue;
        }
        let frames_in_buf = self.pcm.len() / GSM_FRAME_SAMPLES;
        let idx = self.frame % frames_in_buf;
        // Read the frame from guest memory (real traffic)…
        let mut raw = vec![0u8; GSM_FRAME_SAMPLES * 2];
        let _ = ctx
            .env
            .read_block(self.in_va + (idx * GSM_FRAME_SAMPLES * 2) as u64, &mut raw);
        let pcm: Vec<i16> = raw
            .chunks_exact(2)
            .map(|c| i16::from_le_bytes([c[0], c[1]]))
            .collect();
        // …encode (host-side compute, charged at the modelled rate)…
        let coded = self.enc.encode_frame(&pcm);
        ctx.env.compute(GSM_CYCLES_PER_FRAME);
        // …and write the frame out.
        let _ = ctx
            .env
            .write_block(self.out_va + (idx * GSM_FRAME_BYTES) as u64, &coded);
        self.frame += 1;
        self.frames += 1;
        TaskAction::Continue
    }
}

/// ADPCM compressor task: one 160-sample block per step.
pub struct AdpcmTask {
    state: AdpcmState,
    pcm: Vec<i16>,
    block: usize,
    /// Blocks compressed.
    pub blocks: u64,
}

impl AdpcmTask {
    /// A task compressing a looped synthetic signal.
    pub fn new(seed: u64) -> Self {
        AdpcmTask {
            state: AdpcmState::default(),
            pcm: Signal::speech_like(16_000, seed),
            block: 0,
            blocks: 0,
        }
    }
}

impl GuestTask for AdpcmTask {
    fn name(&self) -> &'static str {
        "adpcm"
    }

    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> TaskAction {
        let blocks_in_buf = self.pcm.len() / 160;
        let idx = self.block % blocks_in_buf;
        let chunk = &self.pcm[idx * 160..(idx + 1) * 160];
        let coded = adpcm_encode(&mut self.state, chunk);
        ctx.env.compute(ADPCM_CYCLES_PER_SAMPLE * 160);
        let _ = ctx.env.write_block(
            VirtAddr::new(
                layout::WORK_BASE.raw() + layout::WORK_LEN / 4 * 3 + (idx * 80) as u64 % 0x1000,
            ),
            &coded,
        );
        self.block += 1;
        self.blocks += 1;
        // Pace like a real-time audio path: one block per tick.
        TaskAction::Delay(1)
    }
}

/// T_hw phases.
enum THwPhase {
    Pick,
    WaitConfig(HwTaskClient),
    Run(HwTaskClient),
    WaitDone(HwTaskClient, u64),
}

/// Statistics gathered by [`THwTask`].
#[derive(Clone, Copy, Debug, Default)]
pub struct THwStats {
    /// Hypercall requests issued.
    pub requests: u64,
    /// Requests answered Busy (no idle PRR).
    pub busy: u64,
    /// Requests that triggered a PCAP reconfiguration.
    pub reconfigs: u64,
    /// Completed accelerator runs.
    pub completions: u64,
    /// Times the task was found reclaimed (inconsistent/demapped).
    pub reclaims_seen: u64,
    /// Device or protocol errors.
    pub errors: u64,
    /// Completions served by the kernel's software fallback (degraded
    /// dispatches — bit-identical results, no fabric).
    pub degraded_runs: u64,
    /// Sum of request→completion latencies (cycles).
    pub total_latency: u64,
}

/// The measurement task: randomly requests hardware tasks and drives them
/// end to end.
pub struct THwTask {
    set: Vec<HwTaskId>,
    rng: Lcg,
    phase: THwPhase,
    input: Vec<u8>,
    /// Observable statistics.
    pub stats: THwStats,
    /// Mean pause between runs, in ticks (actual pauses are randomised
    /// around this to decorrelate requests from scheduling phases).
    pub cooldown: u32,
}

impl THwTask {
    /// Build with the hardware-task id set to draw from.
    pub fn new(set: Vec<HwTaskId>, seed: u64) -> Self {
        let mut rng = Lcg::new(seed);
        let mut input = vec![0u8; 2048];
        rng.fill_bytes(&mut input);
        THwTask {
            set,
            rng,
            phase: THwPhase::Pick,
            input,
            stats: THwStats::default(),
            cooldown: 3,
        }
    }
}

/// Offset of the input staging area within the data section (past the
/// reserved consistency structure).
pub const THW_SRC_OFF: u32 = 0x100;
/// Offset of the result area within the data section.
pub const THW_DST_OFF: u32 = 0x1_0000;

impl THwTask {
    fn pause(&mut self) -> TaskAction {
        // 1..=2*cooldown ticks, mean ~cooldown: decorrelates request
        // arrival from slice boundaries.
        let t = 1 + self.rng.next_bounded(2 * self.cooldown.max(1) as u64) as u32;
        TaskAction::Delay(t)
    }
}

impl GuestTask for THwTask {
    fn name(&self) -> &'static str {
        "t-hw"
    }

    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> TaskAction {
        match std::mem::replace(&mut self.phase, THwPhase::Pick) {
            THwPhase::Pick => {
                let task = self.set[self.rng.next_bounded(self.set.len() as u64) as usize];
                self.stats.requests += 1;
                let t0 = ctx.env.now().raw();
                match HwTaskClient::request(
                    ctx.env,
                    task,
                    layout::hwiface_slot(0),
                    layout::HWDATA_BASE,
                ) {
                    Ok((client, HwTaskStatus::Success)) => {
                        self.phase = THwPhase::Run(client);
                        self.stats.total_latency = self.stats.total_latency.wrapping_sub(t0);
                        TaskAction::Continue
                    }
                    Ok((client, HwTaskStatus::Reconfiguring)) => {
                        self.stats.reconfigs += 1;
                        self.stats.total_latency = self.stats.total_latency.wrapping_sub(t0);
                        self.phase = THwPhase::WaitConfig(client);
                        TaskAction::Continue
                    }
                    Err(HwClientError::Request(mnv_hal::abi::HcError::Busy)) => {
                        self.stats.busy += 1;
                        self.pause()
                    }
                    Err(_) => {
                        self.stats.errors += 1;
                        self.pause()
                    }
                }
            }
            THwPhase::WaitConfig(client) => {
                if crate::port::pcap_poll(ctx.env) {
                    self.phase = THwPhase::Run(client);
                } else {
                    ctx.env.compute(500);
                    self.phase = THwPhase::WaitConfig(client);
                }
                TaskAction::Continue
            }
            THwPhase::Run(client) => {
                // Fig. 5 consistency check before use.
                if let Err(e) = client.check_consistent(ctx.env) {
                    if matches!(
                        e,
                        HwClientError::Inconsistent | HwClientError::InterfaceDemapped(_)
                    ) {
                        self.stats.reclaims_seen += 1;
                    } else {
                        self.stats.errors += 1;
                    }
                    return self.pause(); // back to Pick next step
                }
                let run = (|| -> Result<(), HwClientError> {
                    client.write_input(ctx.env, THW_SRC_OFF, &self.input)?;
                    client.configure(
                        ctx.env,
                        THW_SRC_OFF,
                        self.input.len() as u32,
                        THW_DST_OFF,
                        (layout::HWDATA_LEN as u32) - THW_DST_OFF,
                    )?;
                    client.start(ctx.env, true)?;
                    Ok(())
                })();
                match run {
                    Ok(()) => {
                        let t = ctx.env.now().raw();
                        self.phase = THwPhase::WaitDone(client, t);
                        TaskAction::Continue
                    }
                    Err(HwClientError::InterfaceDemapped(_)) => {
                        self.stats.reclaims_seen += 1;
                        self.pause()
                    }
                    Err(_) => {
                        self.stats.errors += 1;
                        self.pause()
                    }
                }
            }
            THwPhase::WaitDone(client, t0) => match client.status(ctx.env) {
                Ok(mnv_fpga::prr::status::DONE) => {
                    let mut out = vec![0u8; 64];
                    let _ = client.read_output(ctx.env, THW_DST_OFF, &mut out);
                    self.stats.completions += 1;
                    if client.degraded {
                        self.stats.degraded_runs += 1;
                    }
                    self.stats.total_latency =
                        self.stats.total_latency.wrapping_add(ctx.env.now().raw());
                    let _ = t0;
                    self.pause()
                }
                Ok(mnv_fpga::prr::status::ERROR) => {
                    self.stats.errors += 1;
                    self.pause()
                }
                Ok(_) => {
                    ctx.env.compute(1_000);
                    self.phase = THwPhase::WaitDone(client, t0);
                    TaskAction::Continue
                }
                Err(_) => {
                    self.stats.reclaims_seen += 1;
                    self.pause()
                }
            },
        }
    }
}

/// Submission mode of [`HwBatchTask`]: the classic one-hypercall-per-task
/// path, or the shared-ring batched path.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchMode {
    /// One `HwTaskRequest` (plus `PcapPoll`s) per hardware task.
    PerCall,
    /// Post a whole batch of descriptors, then one `RingKick`.
    Ring,
}

/// Statistics gathered by [`HwBatchTask`].
#[derive(Clone, Copy, Debug, Default)]
pub struct HwBatchStats {
    /// Completed batch rounds.
    pub rounds: u64,
    /// Hardware tasks submitted (both modes count per descriptor/request).
    pub submitted: u64,
    /// Successful completions harvested.
    pub completions: u64,
    /// Completions served by the software fallback.
    pub degraded: u64,
    /// Rejections, device errors, faults.
    pub errors: u64,
    /// `RingKick` hypercalls issued.
    pub kicks: u64,
    /// Times the task fell back from ring to per-call mode.
    pub fallbacks: u64,
    /// Running FNV-1a digest over every harvested result (length + bytes,
    /// in posting order) — the lockstep fingerprint both modes must agree
    /// on for identical seeds.
    pub checksum: u32,
}

/// Input bytes per batch item. Sized so the worst expanding core still
/// fits a slot: QAM at 2 bits/symbol emits `input * 32` bytes, so 0x100
/// bytes in means at most 0x2000 out.
pub const BATCH_SRC_LEN: u32 = 0x100;
/// Result capacity per batch item: eight slots exactly tile the upper
/// half of the 128 KiB data section.
pub const BATCH_DST_CAP: u32 = 0x2000;
/// Guest VA where a batch task publishes its lockstep checkpoint: the
/// running checksum at +0 and the completion count at +4 (top of the
/// workload-buffer region: `WORK_BASE + WORK_LEN - 0x40`).
pub const BATCH_CHECK_VA: VirtAddr = VirtAddr::new(0x003F_FFC0);

/// Fold bytes into an FNV-1a digest (seed with [`fnv_init`]).
pub fn fnv_fold(mut h: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        h ^= b as u32;
        h = h.wrapping_mul(16_777_619);
    }
    h
}

/// FNV-1a offset basis.
pub fn fnv_init() -> u32 {
    0x811C_9DC5
}

enum BatchPhase {
    /// Start a round: stage inputs and (ring mode) post + kick the batch.
    Start,
    /// Ring mode: wait for the kernel to drain the batch.
    RingWait,
    /// Per-call mode: request item `slot`.
    PcRequest(u16),
    /// Per-call mode: wait out item `slot`'s reconfiguration.
    PcWaitCfg(u16, HwTaskClient),
    /// Per-call mode: program and start item `slot`.
    PcRun(u16, HwTaskClient),
    /// Per-call mode: poll item `slot` to completion.
    PcWaitDone(u16, HwTaskClient),
}

/// A deterministic batch submitter: every round runs the same `batch`-item
/// op stream (tasks rotated from `set`, inputs derived from the seed and
/// round number) and folds every result into a running checksum, so a
/// per-call instance and a ring instance with the same seed must publish
/// **bit-identical** checkpoints — the lockstep property
/// `ring_and_per_call_are_bit_identical_and_cheaper` in the kernel's ring
/// suite asserts. Ring mode degrades permanently to per-call when the
/// kernel refuses the kick.
pub struct HwBatchTask {
    set: Vec<HwTaskId>,
    family: u8,
    /// Active submission mode (observable: flips on fallback).
    pub mode: BatchMode,
    batch: u16,
    seed: u64,
    round: u64,
    ring: Option<RingClient>,
    /// Free-running ring index of this round's first descriptor.
    round_base: u16,
    phase: BatchPhase,
    /// Observable statistics.
    pub stats: HwBatchStats,
}

impl HwBatchTask {
    /// Build a batch task over `set` (all tasks must belong to `family` —
    /// the ring is per interface family). `batch` is clamped to 1..=8.
    pub fn new(set: Vec<HwTaskId>, family: u8, mode: BatchMode, batch: u16, seed: u64) -> Self {
        HwBatchTask {
            set,
            family,
            mode,
            batch: batch.clamp(1, 8),
            seed,
            round: 0,
            ring: None,
            round_base: 0,
            phase: BatchPhase::Start,
            stats: HwBatchStats {
                checksum: fnv_init(),
                ..Default::default()
            },
        }
    }

    fn src_off(slot: u16) -> u32 {
        THW_SRC_OFF + slot as u32 * BATCH_SRC_LEN
    }

    fn dst_off(slot: u16) -> u32 {
        THW_DST_OFF + slot as u32 * BATCH_DST_CAP
    }

    /// The item's task id: rotates deterministically through the set so
    /// consecutive descriptors often share a core — the pattern DPR
    /// batching exploits.
    fn item_task(&self, slot: u16) -> HwTaskId {
        let i = self.round as usize * self.batch as usize + slot as usize;
        self.set[i % self.set.len()]
    }

    /// The item's input bytes: a pure function of (seed, round, slot).
    fn item_input(&self, slot: u16) -> Vec<u8> {
        let mut rng = Lcg::new(
            self.seed
                ^ (self
                    .round
                    .wrapping_mul(0x9E37_79B9)
                    .wrapping_add(slot as u64 + 1)),
        );
        let mut buf = vec![0u8; BATCH_SRC_LEN as usize];
        rng.fill_bytes(&mut buf);
        buf
    }

    /// Fold one completed item into the running checksum.
    fn harvest_slot(&mut self, env: &mut dyn crate::env::GuestEnv, slot: u16, result_len: u32) {
        let n = result_len.min(BATCH_DST_CAP) as usize;
        let mut buf = vec![0u8; n];
        let _ = env.read_block(layout::HWDATA_BASE + Self::dst_off(slot) as u64, &mut buf);
        self.stats.checksum = fnv_fold(self.stats.checksum, &result_len.to_le_bytes());
        self.stats.checksum = fnv_fold(self.stats.checksum, &buf);
        self.stats.completions += 1;
    }

    /// Fold a failed item so a real failure shows up in the fingerprint.
    fn harvest_error(&mut self, code: u32) {
        self.stats.checksum = fnv_fold(self.stats.checksum, &code.to_le_bytes());
        self.stats.errors += 1;
    }

    /// Publish the lockstep checkpoint and arm the next round.
    fn finalize(&mut self, env: &mut dyn crate::env::GuestEnv) -> TaskAction {
        self.stats.rounds += 1;
        self.stats.submitted += self.batch as u64;
        let _ = env.write_u32(BATCH_CHECK_VA, self.stats.checksum);
        let _ = env.write_u32(BATCH_CHECK_VA + 4, self.stats.completions as u32);
        self.round += 1;
        self.phase = BatchPhase::Start;
        TaskAction::Delay(1)
    }

    /// Abandon the ring and redo the current round per-call.
    fn fall_back(&mut self) -> TaskAction {
        self.ring = None;
        self.mode = BatchMode::PerCall;
        self.stats.fallbacks += 1;
        self.phase = BatchPhase::PcRequest(0);
        TaskAction::Continue
    }
}

impl GuestTask for HwBatchTask {
    fn name(&self) -> &'static str {
        "hw-batch"
    }

    fn step(&mut self, ctx: &mut TaskCtx<'_>) -> TaskAction {
        match std::mem::replace(&mut self.phase, BatchPhase::Start) {
            BatchPhase::Start => match self.mode {
                BatchMode::Ring => {
                    if self.ring.is_none() {
                        match RingClient::init(
                            ctx.env,
                            self.family,
                            layout::ring_page(self.family),
                            8,
                            layout::HWDATA_BASE,
                            layout::hwiface_slot(1),
                        ) {
                            Ok(r) => self.ring = Some(r),
                            Err(_) => return self.fall_back(),
                        }
                    }
                    for s in 0..self.batch {
                        let input = self.item_input(s);
                        let _ = ctx
                            .env
                            .write_block(layout::HWDATA_BASE + Self::src_off(s) as u64, &input);
                        let task = self.item_task(s);
                        let ring = self.ring.as_mut().expect("ring initialised");
                        let posted = ring.post(
                            ctx.env,
                            task,
                            Self::src_off(s),
                            BATCH_SRC_LEN,
                            Self::dst_off(s),
                            BATCH_DST_CAP,
                        );
                        if s == 0 {
                            match posted {
                                Ok(idx) => self.round_base = idx,
                                Err(_) => return self.fall_back(),
                            }
                        } else if posted.is_err() {
                            self.harvest_error(u32::MAX);
                        }
                    }
                    self.stats.kicks += 1;
                    match self.ring.as_ref().expect("ring initialised").kick(ctx.env) {
                        Ok(_) => {
                            self.phase = BatchPhase::RingWait;
                            TaskAction::Continue
                        }
                        Err(_) => self.fall_back(),
                    }
                }
                BatchMode::PerCall => {
                    self.phase = BatchPhase::PcRequest(0);
                    TaskAction::Continue
                }
            },
            BatchPhase::RingWait => {
                let done = match self
                    .ring
                    .as_mut()
                    .expect("ring initialised")
                    .harvest(ctx.env)
                {
                    Ok(d) => d,
                    Err(_) => return self.fall_back(),
                };
                for c in done {
                    let slot = c.idx.wrapping_sub(self.round_base);
                    if c.ok() {
                        if c.code == ringabi::desc_status::OK_DEGRADED {
                            self.stats.degraded += 1;
                        }
                        self.harvest_slot(ctx.env, slot, c.result_len);
                    } else {
                        self.harvest_error(c.code << 8 | c.detail as u32);
                    }
                }
                if self.ring.as_ref().expect("ring initialised").in_flight() == 0 {
                    self.finalize(ctx.env)
                } else {
                    ctx.env.compute(500);
                    self.phase = BatchPhase::RingWait;
                    TaskAction::Continue
                }
            }
            BatchPhase::PcRequest(slot) => {
                if slot >= self.batch {
                    return self.finalize(ctx.env);
                }
                let task = self.item_task(slot);
                match HwTaskClient::request(
                    ctx.env,
                    task,
                    layout::hwiface_slot(1),
                    layout::HWDATA_BASE,
                ) {
                    Ok((client, HwTaskStatus::Success)) => {
                        self.phase = BatchPhase::PcRun(slot, client);
                        TaskAction::Continue
                    }
                    Ok((client, HwTaskStatus::Reconfiguring)) => {
                        self.phase = BatchPhase::PcWaitCfg(slot, client);
                        TaskAction::Continue
                    }
                    Err(HwClientError::Request(HcError::Busy)) => {
                        // Same item again next tick — order is preserved.
                        self.phase = BatchPhase::PcRequest(slot);
                        TaskAction::Delay(1)
                    }
                    Err(_) => {
                        self.harvest_error(u32::MAX - 1);
                        self.phase = BatchPhase::PcRequest(slot + 1);
                        TaskAction::Continue
                    }
                }
            }
            BatchPhase::PcWaitCfg(slot, client) => {
                if crate::port::pcap_poll(ctx.env) {
                    self.phase = BatchPhase::PcRun(slot, client);
                } else {
                    ctx.env.compute(500);
                    self.phase = BatchPhase::PcWaitCfg(slot, client);
                }
                TaskAction::Continue
            }
            BatchPhase::PcRun(slot, client) => {
                let input = self.item_input(slot);
                let run = (|| -> Result<(), HwClientError> {
                    client.write_input(ctx.env, Self::src_off(slot), &input)?;
                    client.configure(
                        ctx.env,
                        Self::src_off(slot),
                        BATCH_SRC_LEN,
                        Self::dst_off(slot),
                        BATCH_DST_CAP,
                    )?;
                    client.start(ctx.env, true)?;
                    Ok(())
                })();
                match run {
                    Ok(()) => {
                        self.phase = BatchPhase::PcWaitDone(slot, client);
                        TaskAction::Continue
                    }
                    Err(_) => {
                        self.harvest_error(u32::MAX - 1);
                        self.phase = BatchPhase::PcRequest(slot + 1);
                        TaskAction::Continue
                    }
                }
            }
            BatchPhase::PcWaitDone(slot, client) => match client.status(ctx.env) {
                Ok(mnv_fpga::prr::status::DONE) => {
                    let len = client.wait_done(ctx.env, 1).unwrap_or(0);
                    if client.degraded {
                        self.stats.degraded += 1;
                    }
                    self.harvest_slot(ctx.env, slot, len);
                    self.phase = BatchPhase::PcRequest(slot + 1);
                    TaskAction::Continue
                }
                Ok(mnv_fpga::prr::status::ERROR) => {
                    self.harvest_error(u32::MAX - 2);
                    self.phase = BatchPhase::PcRequest(slot + 1);
                    TaskAction::Continue
                }
                Ok(_) => {
                    ctx.env.compute(1_000);
                    self.phase = BatchPhase::PcWaitDone(slot, client);
                    TaskAction::Continue
                }
                Err(_) => {
                    self.harvest_error(u32::MAX - 1);
                    self.phase = BatchPhase::PcRequest(slot + 1);
                    TaskAction::Continue
                }
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::{GuestEnv, MockEnv};
    use crate::sync::OsServices;
    use mnv_hal::abi::Hypercall;

    fn ctx_parts() -> (MockEnv, OsServices) {
        (MockEnv::new(), OsServices::default())
    }

    #[test]
    fn gsm_task_encodes_into_guest_memory() {
        let (mut env, mut svc) = ctx_parts();
        let mut t = GsmTask::new(1, 1);
        for _ in 0..5 {
            let mut ctx = TaskCtx {
                env: &mut env,
                svc: &mut svc,
            };
            t.step(&mut ctx);
        }
        assert_eq!(t.frames, 4, "first step initialises, then one frame/step");
        // The coded output region must be non-zero.
        let out = t.out_va;
        let mut buf = [0u8; GSM_FRAME_BYTES];
        env.read_block(out, &mut buf).unwrap();
        assert!(buf.iter().any(|&b| b != 0));
    }

    #[test]
    fn gsm_task_charges_cycles() {
        let (mut env, mut svc) = ctx_parts();
        let mut t = GsmTask::new(2, 1);
        let mut ctx = TaskCtx {
            env: &mut env,
            svc: &mut svc,
        };
        t.step(&mut ctx); // init
        let before = ctx.env.now().raw();
        t.step(&mut ctx);
        assert!(ctx.env.now().raw() - before >= GSM_CYCLES_PER_FRAME);
    }

    #[test]
    fn adpcm_task_paces_with_delay() {
        let (mut env, mut svc) = ctx_parts();
        let mut t = AdpcmTask::new(3);
        let mut ctx = TaskCtx {
            env: &mut env,
            svc: &mut svc,
        };
        assert!(matches!(t.step(&mut ctx), TaskAction::Delay(_)));
        assert_eq!(t.blocks, 1);
    }

    #[test]
    fn thw_requests_and_backs_off_on_busy() {
        let (mut env, mut svc) = ctx_parts();
        env.respond(Hypercall::HwTaskRequest, Err(mnv_hal::abi::HcError::Busy));
        let mut t = THwTask::new(vec![HwTaskId(0), HwTaskId(1)], 7);
        let mut ctx = TaskCtx {
            env: &mut env,
            svc: &mut svc,
        };
        assert!(matches!(t.step(&mut ctx), TaskAction::Delay(_)));
        assert_eq!(t.stats.requests, 1);
        assert_eq!(t.stats.busy, 1);
    }

    #[test]
    fn thw_full_run_against_mock_device() {
        let (mut env, mut svc) = ctx_parts();
        env.respond(Hypercall::HwTaskRequest, Ok(0)); // Success, no reconfig
        env.respond(Hypercall::VmInfo, Ok(0x0300_0000));
        let mut t = THwTask::new(vec![HwTaskId(0)], 9);
        // Step 1: Pick -> Run.
        let mut ctx = TaskCtx {
            env: &mut env,
            svc: &mut svc,
        };
        t.step(&mut ctx);
        // Step 2: Run -> configure/start -> WaitDone.
        t.step(&mut ctx);
        // Pretend the device finished.
        env.write_u32(
            layout::hwiface_slot(0) + 4 * mnv_fpga::prr::regs::STATUS as u64,
            mnv_fpga::prr::status::DONE,
        )
        .unwrap();
        let mut ctx = TaskCtx {
            env: &mut env,
            svc: &mut svc,
        };
        let act = t.step(&mut ctx);
        assert!(matches!(act, TaskAction::Delay(_)));
        assert_eq!(t.stats.completions, 1);
        // The device registers were programmed with physical addresses.
        let src = env
            .read_u32(layout::hwiface_slot(0) + 4 * mnv_fpga::prr::regs::SRC_ADDR as u64)
            .unwrap();
        assert_eq!(
            src,
            0x0300_0000 + layout::HWDATA_BASE.raw() as u32 + THW_SRC_OFF
        );
    }

    #[test]
    fn thw_detects_reclaim_via_demap_fault() {
        let (mut env, mut svc) = ctx_parts();
        env.respond(Hypercall::HwTaskRequest, Ok(0));
        let mut t = THwTask::new(vec![HwTaskId(0)], 11);
        let mut ctx = TaskCtx {
            env: &mut env,
            svc: &mut svc,
        };
        t.step(&mut ctx); // Pick -> Run
        env.poison.push((layout::hwiface_slot(0).raw(), 0x1000));
        let mut ctx = TaskCtx {
            env: &mut env,
            svc: &mut svc,
        };
        t.step(&mut ctx); // Run fails at configure
        assert_eq!(t.stats.reclaims_seen, 1);
    }

    /// Mark `n` ring descriptors complete (64-byte results) and publish the
    /// used index, playing the kernel's role against the mock.
    fn mock_ring_complete(env: &mut MockEnv, n: u16) {
        let base = layout::ring_page(0);
        for i in 0..n {
            let d = base + mnv_hal::abi::ring::desc_off(8, i);
            env.write_u32(d + mnv_hal::abi::ring::DESC_STATUS, 1)
                .unwrap(); // OK
            env.write_u32(d + mnv_hal::abi::ring::DESC_RESULT_LEN, 64)
                .unwrap();
        }
        env.write_u32(base + mnv_hal::abi::ring::HDR_USED, n as u32)
            .unwrap();
    }

    #[test]
    fn batch_ring_round_is_one_hypercall() {
        let (mut env, mut svc) = ctx_parts();
        env.respond(Hypercall::RingKick, Ok(4));
        let mut t = HwBatchTask::new(vec![HwTaskId(0), HwTaskId(1)], 0, BatchMode::Ring, 4, 42);
        let mut ctx = TaskCtx {
            env: &mut env,
            svc: &mut svc,
        };
        t.step(&mut ctx); // Start: init + 4 posts + 1 kick
        mock_ring_complete(&mut env, 4);
        let mut ctx = TaskCtx {
            env: &mut env,
            svc: &mut svc,
        };
        let act = t.step(&mut ctx); // RingWait: harvest all, finalize
        assert!(matches!(act, TaskAction::Delay(_)));
        assert_eq!(t.stats.rounds, 1);
        assert_eq!(t.stats.completions, 4);
        assert_eq!(t.stats.kicks, 1);
        let hw_calls = env
            .calls
            .iter()
            .filter(|c| {
                matches!(
                    c.nr,
                    Hypercall::HwTaskRequest | Hypercall::PcapPoll | Hypercall::RingKick
                )
            })
            .count();
        assert_eq!(hw_calls, 1, "the whole batch cost one hypercall");
        // The lockstep checkpoint is published.
        assert_eq!(env.read_u32(BATCH_CHECK_VA + 4).unwrap(), 4);
        assert_eq!(env.read_u32(BATCH_CHECK_VA).unwrap(), t.stats.checksum);
    }

    #[test]
    fn batch_falls_back_to_per_call_when_kick_refused() {
        let (mut env, mut svc) = ctx_parts();
        env.respond(
            Hypercall::RingKick,
            Err(mnv_hal::abi::HcError::BadCall), // the kernel refuses the kick
        );
        env.respond(Hypercall::HwTaskRequest, Ok(0));
        let mut t = HwBatchTask::new(vec![HwTaskId(0)], 0, BatchMode::Ring, 2, 7);
        let mut ctx = TaskCtx {
            env: &mut env,
            svc: &mut svc,
        };
        t.step(&mut ctx); // Start: kick refused -> fall back
        assert_eq!(t.mode, BatchMode::PerCall);
        assert_eq!(t.stats.fallbacks, 1);
        let mut ctx = TaskCtx {
            env: &mut env,
            svc: &mut svc,
        };
        t.step(&mut ctx); // PcRequest(0) issues a per-call request
        assert!(env.calls.iter().any(|c| c.nr == Hypercall::HwTaskRequest));
    }

    #[test]
    fn batch_modes_agree_on_the_checksum() {
        // Same seed, same (mocked) results: per-call and ring instances
        // must publish identical fingerprints.
        let run_ring = || {
            let (mut env, mut svc) = ctx_parts();
            env.respond(Hypercall::RingKick, Ok(2));
            let mut t = HwBatchTask::new(vec![HwTaskId(0), HwTaskId(1)], 0, BatchMode::Ring, 2, 9);
            let mut ctx = TaskCtx {
                env: &mut env,
                svc: &mut svc,
            };
            t.step(&mut ctx);
            mock_ring_complete(&mut env, 2);
            let mut ctx = TaskCtx {
                env: &mut env,
                svc: &mut svc,
            };
            t.step(&mut ctx);
            assert_eq!(t.stats.rounds, 1);
            t.stats.checksum
        };
        let run_percall = || {
            let (mut env, mut svc) = ctx_parts();
            env.respond(Hypercall::HwTaskRequest, Ok(0));
            // Device "completes" instantly with the same 64-byte result.
            env.write_u32(
                layout::hwiface_slot(1) + 4 * mnv_fpga::prr::regs::STATUS as u64,
                mnv_fpga::prr::status::DONE,
            )
            .unwrap();
            env.write_u32(
                layout::hwiface_slot(1) + 4 * mnv_fpga::prr::regs::RESULT_LEN as u64,
                64,
            )
            .unwrap();
            let mut t =
                HwBatchTask::new(vec![HwTaskId(0), HwTaskId(1)], 0, BatchMode::PerCall, 2, 9);
            for _ in 0..32 {
                if t.stats.rounds == 1 {
                    break;
                }
                let mut ctx = TaskCtx {
                    env: &mut env,
                    svc: &mut svc,
                };
                t.step(&mut ctx);
                // The client pre-writes BUSY on start; restore DONE so the
                // next poll sees a finished device.
                env.write_u32(
                    layout::hwiface_slot(1) + 4 * mnv_fpga::prr::regs::STATUS as u64,
                    mnv_fpga::prr::status::DONE,
                )
                .unwrap();
            }
            assert_eq!(t.stats.rounds, 1);
            t.stats.checksum
        };
        assert_eq!(run_ring(), run_percall());
    }

    #[test]
    fn compute_task_touches_working_set() {
        let (mut env, mut svc) = ctx_parts();
        let mut t = ComputeTask::new(1_000, 256);
        let mut ctx = TaskCtx {
            env: &mut env,
            svc: &mut svc,
        };
        let before = ctx.env.now().raw();
        assert_eq!(t.step(&mut ctx), TaskAction::Continue);
        assert!(ctx.env.now().raw() >= before + 1_000);
    }
}
