//! Simplified GSM 06.10 full-rate (RPE-LTP) speech codec.
//!
//! The paper's guest VMs execute "heavy workload tasks, for example, GSM
//! encoding" (§V-B). This is a functional RPE-LTP codec with the real
//! standard's *structure* and *bit budget* — 160-sample frames encoded to
//! 260 bits (33 bytes): preprocessing, order-8 LPC analysis with quantised
//! reflection coefficients, 4 subframes with long-term prediction (lag
//! 40–120, 2-bit gain), regular-pulse-excitation grid selection and APCM
//! residual quantisation. The scalar quantisers are simplified relative to
//! the ETSI tables (linear in the reflection coefficients instead of true
//! log-area ratios), which keeps the code honest and testable without
//! copying the standard's tables; the compute profile and memory behaviour
//! — what the reproduction's cache model feeds on — match the real thing.
#![allow(clippy::needless_range_loop)] // index loops couple several arrays at once

use std::sync::mpsc::{sync_channel, Receiver};
use std::sync::Arc;
use std::thread::{self, JoinHandle};

use crate::signal::Signal;

/// Samples per GSM frame (20 ms at 8 kHz).
pub const GSM_FRAME_SAMPLES: usize = 160;
/// Encoded bytes per frame (260 bits, as GSM 06.10).
pub const GSM_FRAME_BYTES: usize = 33;

const LPC_ORDER: usize = 8;
const SUBFRAME: usize = 40;
const RPE_PULSES: usize = 13;
const LAG_MIN: usize = 40;
const LAG_MAX: usize = 120;
/// Bits per quantised reflection coefficient, as GSM 06.10: 6,6,5,5,4,4,3,3.
const LAR_BITS: [u32; LPC_ORDER] = [6, 6, 5, 5, 4, 4, 3, 3];
const LTP_GAINS: [f32; 4] = [0.1, 0.35, 0.65, 1.0];

// -- bit packing -------------------------------------------------------------

struct BitWriter {
    bytes: Vec<u8>,
    bit: u32,
}

impl BitWriter {
    fn new() -> Self {
        BitWriter {
            bytes: Vec::with_capacity(GSM_FRAME_BYTES),
            bit: 0,
        }
    }

    fn put(&mut self, value: u32, bits: u32) {
        debug_assert!(bits <= 32 && (bits == 32 || value < (1 << bits)));
        for i in (0..bits).rev() {
            if self.bit.is_multiple_of(8) {
                self.bytes.push(0);
            }
            let b = (value >> i) & 1;
            let idx = (self.bit / 8) as usize;
            self.bytes[idx] |= (b as u8) << (7 - self.bit % 8);
            self.bit += 1;
        }
    }

    fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

struct BitReader<'a> {
    bytes: &'a [u8],
    bit: u32,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, bit: 0 }
    }

    fn get(&mut self, bits: u32) -> u32 {
        let mut v = 0u32;
        for _ in 0..bits {
            let idx = (self.bit / 8) as usize;
            let b = (self.bytes[idx] >> (7 - self.bit % 8)) & 1;
            v = (v << 1) | b as u32;
            self.bit += 1;
        }
        v
    }
}

// -- scalar quantisers --------------------------------------------------------

fn quant_reflection(k: f32, bits: u32) -> u32 {
    let levels = (1u32 << bits) as f32;
    let x = ((k.clamp(-0.97, 0.97) + 1.0) / 2.0 * (levels - 1.0)).round();
    x as u32
}

fn dequant_reflection(code: u32, bits: u32) -> f32 {
    let levels = (1u32 << bits) as f32;
    (code as f32 / (levels - 1.0)) * 2.0 - 1.0
}

const SCALE_MAX_LOG: f32 = 16.0;

fn quant_scale(scale: f32) -> u32 {
    let l = (1.0 + scale.max(0.0)).log2().min(SCALE_MAX_LOG);
    ((l / SCALE_MAX_LOG) * 63.0).round() as u32
}

fn dequant_scale(code: u32) -> f32 {
    let l = code as f32 / 63.0 * SCALE_MAX_LOG;
    l.exp2() - 1.0
}

fn quant_pulse(x: f32, scale: f32) -> i32 {
    if scale <= 0.0 {
        return 0;
    }
    ((x / scale * 4.0).round() as i32).clamp(-4, 3)
}

fn dequant_pulse(q: i32, scale: f32) -> f32 {
    q as f32 / 4.0 * scale
}

// -- LPC ----------------------------------------------------------------------

/// Autocorrelation at lags 0..=LPC_ORDER. The samples are widened once
/// and every lag's sum is built in one pass over them; each sum still
/// adds its terms in sample order from `-0.0` (where `Iterator::sum`
/// starts), so the result is bit-identical to summing lag by lag.
fn autocorrelation(samples: &[f32]) -> [f64; LPC_ORDER + 1] {
    let x: Vec<f64> = samples.iter().map(|&v| v as f64).collect();
    let mut r = [-0.0f64; LPC_ORDER + 1];
    for (i, &a) in x.iter().enumerate() {
        for (slot, &b) in r.iter_mut().zip(&x[i..]) {
            *slot += a * b;
        }
    }
    r
}

/// Levinson-Durbin: autocorrelation → reflection coefficients.
fn reflection_coeffs(r: &[f64; LPC_ORDER + 1]) -> [f32; LPC_ORDER] {
    let mut k = [0.0f32; LPC_ORDER];
    if r[0] < 1e-9 {
        return k;
    }
    let mut a = [0.0f64; LPC_ORDER + 1];
    let mut e = r[0];
    for i in 1..=LPC_ORDER {
        let mut acc = r[i];
        for j in 1..i {
            acc -= a[j] * r[i - j];
        }
        let ki = (acc / e).clamp(-0.97, 0.97);
        k[i - 1] = ki as f32;
        let mut new_a = a;
        new_a[i] = ki;
        for j in 1..i {
            new_a[j] = a[j] - ki * a[i - j];
        }
        a = new_a;
        e *= 1.0 - ki * ki;
        if e < 1e-9 {
            break;
        }
    }
    k
}

/// Convert reflection coefficients to direct-form LPC coefficients.
fn k_to_lpc(k: &[f32; LPC_ORDER]) -> [f32; LPC_ORDER] {
    let mut a = [0.0f32; LPC_ORDER];
    for i in 0..LPC_ORDER {
        let ki = k[i];
        let mut new_a = a;
        new_a[i] = ki;
        for j in 0..i {
            new_a[j] = a[j] - ki * a[i - 1 - j];
        }
        a = new_a;
    }
    a
}

// -- LTP lag search ---------------------------------------------------------

/// Lags per block of the search: a block's correlation and energy sums
/// stay in registers while the subframe streams past them once.
const LAG_BLOCK: usize = 8;
const LAGS: usize = LAG_MAX - LAG_MIN + 1;

/// An LTP lag search, as [`ltp_search`]: (lag, correlation, energy).
type LtpSearch = fn(&[f32; SUBFRAME], &[f32; LAG_MAX]) -> (usize, f64, f64);

/// Long-term-prediction lag search for subframe `d` against the
/// `LAG_MAX` newest samples of the reconstructed residual `hist`: the lag
/// whose correlation explains most energy, with that correlation and
/// energy. The history is widened once (and squared in `f32`, as each
/// lag would), reversed so a block of consecutive lags reads one
/// contiguous run, and every lag's sums still add in subframe order, so
/// the result is bit-identical to searching lag by lag.
fn ltp_search(d: &[f32; SUBFRAME], hist: &[f32; LAG_MAX]) -> (usize, f64, f64) {
    // Lag LAG_MIN + j pairs d[n] with h[LAG_MIN - 1 - n + j].
    let mut h = [0.0f64; LAG_MAX + LAG_BLOCK];
    let mut h2 = [0.0f64; LAG_MAX + LAG_BLOCK];
    for (i, &x) in hist.iter().rev().enumerate() {
        h[i] = x as f64;
        h2[i] = (x * x) as f64;
    }
    let df = d.map(|x| x as f64);
    let (mut best_lag, mut best_corr, mut best_energy) = (LAG_MIN, 0.0f64, 1.0f64);
    for j0 in (0..LAGS).step_by(LAG_BLOCK) {
        let mut corr = [0.0f64; LAG_BLOCK];
        let mut energy = [1e-6f64; LAG_BLOCK];
        for (n, &dn) in df.iter().enumerate() {
            let at = LAG_MIN - 1 - n + j0;
            let (hb, h2b) = (&h[at..at + LAG_BLOCK], &h2[at..at + LAG_BLOCK]);
            for b in 0..LAG_BLOCK {
                corr[b] += dn * hb[b];
                energy[b] += h2b[b];
            }
        }
        for b in 0..LAG_BLOCK.min(LAGS - j0) {
            if corr[b] * corr[b] * best_energy > best_corr * best_corr * energy[b] {
                best_lag = LAG_MIN + j0 + b;
                best_corr = corr[b];
                best_energy = energy[b];
            }
        }
    }
    (best_lag, best_corr, best_energy)
}

// -- the codec ------------------------------------------------------------------

/// Streaming GSM encoder (keeps filter and LTP history across frames).
/// Its state is plain arrays, so a clone allocates nothing.
#[derive(Clone)]
pub struct GsmEncoder {
    pre_s: f32,
    pre_y: f32,
    emph_prev: f32,
    /// Short-term filter history (input samples).
    st_hist: [f32; LPC_ORDER],
    /// Reconstructed residual history for LTP (what the decoder will have).
    dprime: [f32; LAG_MAX + GSM_FRAME_SAMPLES],
    frames: u64,
}

impl Default for GsmEncoder {
    fn default() -> Self {
        Self::new()
    }
}

impl GsmEncoder {
    /// Fresh encoder.
    pub fn new() -> Self {
        GsmEncoder {
            pre_s: 0.0,
            pre_y: 0.0,
            emph_prev: 0.0,
            st_hist: [0.0; LPC_ORDER],
            dprime: [0.0; LAG_MAX + GSM_FRAME_SAMPLES],
            frames: 0,
        }
    }

    /// Frames encoded so far.
    pub fn frames_encoded(&self) -> u64 {
        self.frames
    }

    /// Encode one 160-sample frame into 33 bytes.
    pub fn encode_frame(&mut self, pcm: &[i16]) -> [u8; GSM_FRAME_BYTES] {
        self.encode_frame_with(pcm, autocorrelation, ltp_search)
    }

    /// [`GsmEncoder::encode_frame`] over the given autocorrelation and
    /// LTP search kernels (the tests pass the scalar reference forms).
    fn encode_frame_with(
        &mut self,
        pcm: &[i16],
        autocorr: fn(&[f32]) -> [f64; LPC_ORDER + 1],
        ltp: LtpSearch,
    ) -> [u8; GSM_FRAME_BYTES] {
        assert_eq!(pcm.len(), GSM_FRAME_SAMPLES, "GSM frames are 160 samples");
        // Preprocess: offset compensation + preemphasis.
        let mut s = [0.0f32; GSM_FRAME_SAMPLES];
        for (i, &x) in pcm.iter().enumerate() {
            let x = x as f32;
            let y = x - self.pre_s + 0.999 * self.pre_y;
            self.pre_s = x;
            self.pre_y = y;
            s[i] = y - 0.86 * self.emph_prev;
            self.emph_prev = y;
        }

        // LPC analysis on the preprocessed frame; quantise reflections.
        let k = reflection_coeffs(&autocorr(&s));
        let mut w = BitWriter::new();
        let mut kq = [0.0f32; LPC_ORDER];
        for i in 0..LPC_ORDER {
            let code = quant_reflection(k[i], LAR_BITS[i]);
            w.put(code, LAR_BITS[i]);
            kq[i] = dequant_reflection(code, LAR_BITS[i]);
        }
        let a = k_to_lpc(&kq);

        // Short-term analysis filter: d[n] = s[n] - Σ a_j s[n-j].
        let mut d = [0.0f32; GSM_FRAME_SAMPLES];
        for n in 0..GSM_FRAME_SAMPLES {
            let mut acc = s[n];
            for (j, &aj) in a.iter().enumerate() {
                let prev = if n > j {
                    s[n - 1 - j]
                } else {
                    self.st_hist[j - n]
                };
                acc -= aj * prev;
            }
            d[n] = acc;
        }
        // Save input history for the next frame.
        for j in 0..LPC_ORDER {
            self.st_hist[j] = s[GSM_FRAME_SAMPLES - 1 - j];
        }

        // Subframe loop: LTP + RPE.
        let hist_len = self.dprime.len() - GSM_FRAME_SAMPLES;
        for sf in 0..4 {
            let base = sf * SUBFRAME;
            // LTP lag search against reconstructed residual history.
            let (best_lag, best_corr, best_energy) = ltp(
                d[base..base + SUBFRAME]
                    .try_into()
                    .expect("a subframe is SUBFRAME samples"),
                self.dprime[hist_len + base - LAG_MAX..hist_len + base]
                    .try_into()
                    .expect("the LTP history is LAG_MAX samples"),
            );
            let gain = (best_corr / best_energy).clamp(0.0, 1.2) as f32;
            let gain_code = LTP_GAINS
                .iter()
                .enumerate()
                .min_by(|a, b| (a.1 - gain).abs().partial_cmp(&(b.1 - gain).abs()).unwrap())
                .map(|(i, _)| i as u32)
                .unwrap();
            let gq = LTP_GAINS[gain_code as usize];

            // Residual after LTP.
            let mut e = [0.0f32; SUBFRAME];
            for n in 0..SUBFRAME {
                let idx = hist_len + base + n - best_lag;
                e[n] = d[base + n] - gq * self.dprime[idx];
            }

            // RPE grid selection: offset 0..2, 13 pulses with stride 3.
            let grid_energy =
                |off: usize| -> f32 { (0..RPE_PULSES).map(|i| e[off + 3 * i].powi(2)).sum() };
            let grid = (0..3)
                .max_by(|&x, &y| grid_energy(x).partial_cmp(&grid_energy(y)).unwrap())
                .unwrap();

            // APCM quantisation of the selected pulses.
            let scale = (0..RPE_PULSES)
                .map(|i| e[grid + 3 * i].abs())
                .fold(0.0f32, f32::max);
            let scale_code = quant_scale(scale);
            let sq = dequant_scale(scale_code);

            w.put(best_lag as u32 - LAG_MIN as u32, 7);
            w.put(gain_code, 2);
            w.put(grid as u32, 2);
            w.put(scale_code, 6);

            // Reconstruct this subframe's residual as the decoder will, and
            // append it to the LTP history.
            let mut rec = [0.0f32; SUBFRAME];
            for n in 0..SUBFRAME {
                let idx = hist_len + base + n - best_lag;
                rec[n] = gq * self.dprime[idx];
            }
            for i in 0..RPE_PULSES {
                let q = quant_pulse(e[grid + 3 * i], sq);
                w.put((q + 4) as u32, 3);
                rec[grid + 3 * i] += dequant_pulse(q, sq);
            }
            for n in 0..SUBFRAME {
                self.dprime[hist_len + base + n] = rec[n];
            }
        }
        // Shift LTP history window forward by one frame.
        self.dprime.copy_within(GSM_FRAME_SAMPLES.., 0);
        self.frames += 1;

        let bytes = w.finish();
        debug_assert_eq!(bytes.len(), GSM_FRAME_BYTES);
        let mut out = [0u8; GSM_FRAME_BYTES];
        out.copy_from_slice(&bytes);
        out
    }
}

/// Frames a [`GsmLoopEncoder`]'s worker may encode ahead of its reader:
/// few, so a worker whose reader pauses stops within tens of
/// microseconds.
const AHEAD_FRAMES: usize = 4;

/// One frame encoded ahead: the encoder state before it and its bytes.
struct Ahead {
    before: GsmEncoder,
    coded: [u8; GSM_FRAME_BYTES],
}

/// A worker thread encoding a loop's frames, in order, into a bounded
/// queue.
struct Worker {
    queue: Receiver<Ahead>,
    handle: JoinHandle<()>,
}

impl Worker {
    /// Encode `frames` from `at` on, looping, starting from state `enc`;
    /// `None` when the host cannot start a thread.
    fn start(
        mut enc: GsmEncoder,
        frames: Arc<[[i16; GSM_FRAME_SAMPLES]]>,
        mut at: usize,
    ) -> Option<Self> {
        let (tx, queue) = sync_channel(AHEAD_FRAMES);
        let builder = thread::Builder::new().name("gsm-ahead".into());
        let handle = builder
            .spawn(move || loop {
                let before = enc.clone();
                let coded = enc.encode_frame(&frames[at]);
                if tx.send(Ahead { before, coded }).is_err() {
                    return; // the reader closed the queue
                }
                at = (at + 1) % frames.len();
            })
            .ok()?;
        Some(Worker { queue, handle })
    }

    /// Close the queue (the worker finishes at most the frame in hand)
    /// and join it, resuming a worker panic on this thread.
    fn stop(self) {
        drop(self.queue);
        if let Err(panic) = self.handle.join() {
            if !thread::panicking() {
                std::panic::resume_unwind(panic);
            }
        }
    }
}

/// An encoder for a looped utterance, bit-identical to a plain
/// [`GsmEncoder`] fed the same frames. While every frame it is given
/// equals the loop's next frame, a worker thread encodes the loop ahead
/// and each call takes the worker's bytes. The first frame that differs
/// closes the queue, joins the worker and takes the state the worker
/// queued before that frame; from then on every frame is encoded inline.
/// The worker starts on the first frame, and only on a host with more than
/// one CPU ([`std::thread::available_parallelism`]); where it cannot
/// start, every frame is encoded inline.
pub struct GsmLoopEncoder {
    frames: Arc<[[i16; GSM_FRAME_SAMPLES]]>,
    /// Loop index of the frame expected next.
    next: usize,
    /// The inline encoder; stale while a worker runs.
    enc: GsmEncoder,
    worker: Option<Worker>,
    /// False once a frame differed from the loop, on one CPU, or when no
    /// worker could start.
    speculate: bool,
}

impl GsmLoopEncoder {
    /// An encoder for the whole frames of `pcm`, looped (a trailing
    /// partial frame is not part of the loop).
    pub fn new(pcm: &[i16]) -> Self {
        let frames: Arc<[_]> = pcm
            .chunks_exact(GSM_FRAME_SAMPLES)
            .map(|c| c.try_into().expect("chunks are whole frames"))
            .collect();
        assert!(!frames.is_empty(), "a GSM loop needs one whole frame");
        GsmLoopEncoder {
            frames,
            next: 0,
            enc: GsmEncoder::new(),
            worker: None,
            speculate: true,
        }
    }

    /// The loop's frames.
    pub fn frames(&self) -> &[[i16; GSM_FRAME_SAMPLES]] {
        &self.frames
    }

    /// True while a worker encodes ahead.
    #[cfg(test)]
    fn running_ahead(&self) -> bool {
        self.worker.is_some()
    }

    /// Encode `pcm` as [`GsmEncoder::encode_frame`] would after every
    /// frame given so far.
    pub fn encode_frame(&mut self, pcm: &[i16; GSM_FRAME_SAMPLES]) -> [u8; GSM_FRAME_BYTES] {
        let at = self.next;
        self.next = (at + 1) % self.frames.len();
        let looped = self.speculate && *pcm == self.frames[at];
        if looped && self.worker.is_none() {
            if thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
                self.worker = Worker::start(self.enc.clone(), self.frames.clone(), at);
            }
            self.speculate = self.worker.is_some();
        }
        if let Some(worker) = self.worker.take() {
            let Ok(queued) = worker.queue.recv() else {
                worker.stop();
                unreachable!("a worker leaves an open queue only by panicking");
            };
            if looped {
                self.worker = Some(worker);
                return queued.coded;
            }
            self.enc = queued.before;
            worker.stop();
        }
        self.speculate = false;
        self.enc.encode_frame(pcm)
    }
}

impl Drop for GsmLoopEncoder {
    fn drop(&mut self) {
        if let Some(worker) = self.worker.take() {
            worker.stop();
        }
    }
}

/// Streaming GSM decoder.
pub struct GsmDecoder {
    st_hist: [f32; LPC_ORDER],
    dprime: Vec<f32>,
    de_y: f32,
}

impl Default for GsmDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl GsmDecoder {
    /// Fresh decoder.
    pub fn new() -> Self {
        GsmDecoder {
            st_hist: [0.0; LPC_ORDER],
            dprime: vec![0.0; LAG_MAX + GSM_FRAME_SAMPLES],
            de_y: 0.0,
        }
    }

    /// Decode one 33-byte frame into 160 samples.
    pub fn decode_frame(&mut self, frame: &[u8]) -> [i16; GSM_FRAME_SAMPLES] {
        assert_eq!(frame.len(), GSM_FRAME_BYTES);
        let mut r = BitReader::new(frame);
        let mut kq = [0.0f32; LPC_ORDER];
        for i in 0..LPC_ORDER {
            kq[i] = dequant_reflection(r.get(LAR_BITS[i]), LAR_BITS[i]);
        }
        let a = k_to_lpc(&kq);

        let hist_len = self.dprime.len() - GSM_FRAME_SAMPLES;
        let mut d = [0.0f32; GSM_FRAME_SAMPLES];
        for sf in 0..4 {
            let base = sf * SUBFRAME;
            let lag = r.get(7) as usize + LAG_MIN;
            let gq = LTP_GAINS[r.get(2) as usize];
            let grid = r.get(2) as usize;
            let sq = dequant_scale(r.get(6));
            let mut rec = [0.0f32; SUBFRAME];
            for n in 0..SUBFRAME {
                let idx = hist_len + base + n - lag;
                rec[n] = gq * self.dprime[idx];
            }
            for i in 0..RPE_PULSES {
                let q = r.get(3) as i32 - 4;
                rec[grid + 3 * i] += dequant_pulse(q, sq);
            }
            for n in 0..SUBFRAME {
                self.dprime[hist_len + base + n] = rec[n];
                d[base + n] = rec[n];
            }
        }

        // Short-term synthesis: s[n] = d[n] + Σ a_j s[n-j], then
        // deemphasis (inverse of the encoder's preemphasis).
        let mut s = [0.0f32; GSM_FRAME_SAMPLES];
        let mut out = [0i16; GSM_FRAME_SAMPLES];
        for n in 0..GSM_FRAME_SAMPLES {
            let mut acc = d[n];
            for (j, &aj) in a.iter().enumerate() {
                let prev = if n > j {
                    s[n - 1 - j]
                } else {
                    self.st_hist[j - n]
                };
                acc += aj * prev;
            }
            s[n] = acc;
            self.de_y = acc + 0.86 * self.de_y;
            out[n] = self.de_y.clamp(-32768.0, 32767.0) as i16;
        }
        for j in 0..LPC_ORDER {
            self.st_hist[j] = s[GSM_FRAME_SAMPLES - 1 - j];
        }
        self.dprime.copy_within(GSM_FRAME_SAMPLES.., 0);
        out
    }
}

/// Encode an arbitrary PCM buffer frame-by-frame (trailing partial frame is
/// zero-padded).
pub fn gsm_encode_stream(pcm: &[i16]) -> Vec<u8> {
    let mut enc = GsmEncoder::new();
    let mut out = Vec::new();
    for chunk in pcm.chunks(GSM_FRAME_SAMPLES) {
        let mut frame = [0i16; GSM_FRAME_SAMPLES];
        frame[..chunk.len()].copy_from_slice(chunk);
        out.extend_from_slice(&enc.encode_frame(&frame));
    }
    out
}

/// Normalised spectral correlation between two signals (coarse quality
/// metric robust to phase/delay, used to validate the codec round trip).
pub fn spectral_similarity(a: &[i16], b: &[i16]) -> f64 {
    let n = a.len().min(b.len()).min(2048).next_power_of_two() / 2;
    let to_mag = |x: &[i16]| -> Vec<f64> {
        let cx: Vec<(f32, f32)> = x[..n].iter().map(|&v| (v as f32, 0.0)).collect();
        crate::fft::fft_recursive(&cx)
            .iter()
            .take(n / 2)
            .map(|&(r, i)| ((r * r + i * i) as f64).sqrt())
            .collect()
    };
    let ma = to_mag(a);
    let mb = to_mag(b);
    let dot: f64 = ma.iter().zip(&mb).map(|(x, y)| x * y).sum();
    let na: f64 = ma.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = mb.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    dot / (na * nb)
}

/// Generate a speech-like test utterance (re-exported convenience).
pub fn test_utterance(frames: usize, seed: u64) -> Vec<i16> {
    Signal::speech_like(frames * GSM_FRAME_SAMPLES, seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The scalar kernels the encoder ran before its search was blocked:
    /// one autocorrelation sum per lag, and the lag search one lag at a
    /// time with each sample widened where it is used.
    fn scalar_autocorrelation(samples: &[f32]) -> [f64; LPC_ORDER + 1] {
        let mut r = [0.0f64; LPC_ORDER + 1];
        for (lag, slot) in r.iter_mut().enumerate() {
            *slot = samples
                .iter()
                .zip(samples.iter().skip(lag))
                .map(|(&a, &b)| a as f64 * b as f64)
                .sum();
        }
        r
    }

    fn scalar_ltp_search(d: &[f32; SUBFRAME], hist: &[f32; LAG_MAX]) -> (usize, f64, f64) {
        let (mut best_lag, mut best_corr, mut best_energy) = (LAG_MIN, 0.0f64, 1.0f64);
        for lag in LAG_MIN..=LAG_MAX {
            let mut corr = 0.0f64;
            let mut energy = 1e-6f64;
            for n in 0..SUBFRAME {
                let h = hist[LAG_MAX + n - lag];
                corr += d[n] as f64 * h as f64;
                energy += (h * h) as f64;
            }
            if corr * corr * best_energy > best_corr * best_corr * energy {
                best_lag = lag;
                best_corr = corr;
                best_energy = energy;
            }
        }
        (best_lag, best_corr, best_energy)
    }

    /// Encode `frames` with the encoder's kernels and with the scalar
    /// ones, side by side, and require every byte to agree.
    fn assert_bit_exact(frames: &[[i16; GSM_FRAME_SAMPLES]], what: &str) {
        let (mut fast, mut scalar) = (GsmEncoder::new(), GsmEncoder::new());
        for (i, f) in frames.iter().enumerate() {
            let want = scalar.encode_frame_with(f, scalar_autocorrelation, scalar_ltp_search);
            assert_eq!(fast.encode_frame(f), want, "{what}: frame {i}");
        }
    }

    fn frames_of(pcm: &[i16]) -> Vec<[i16; GSM_FRAME_SAMPLES]> {
        pcm.chunks_exact(GSM_FRAME_SAMPLES)
            .map(|c| c.try_into().unwrap())
            .collect()
    }

    #[test]
    fn blocked_kernels_match_scalar_forms_bit_for_bit() {
        // The encoded bytes quantise away a last-bit difference; compare
        // the kernels' own results, every f64 by its bits.
        let x: Vec<f32> = Signal::speech_like(4_000, 9)
            .iter()
            .map(|&v| v as f32 * 0.37)
            .collect();
        let bits = |r: [f64; LPC_ORDER + 1]| r.map(f64::to_bits);
        for len in (0..=20).chain([159, 160, 161, 1000]) {
            let s = &x[len..2 * len];
            assert_eq!(
                bits(autocorrelation(s)),
                bits(scalar_autocorrelation(s)),
                "autocorrelation of {len} samples"
            );
        }
        // A nearly silent history (a fresh encoder's, with one small
        // sample) leaves the energies' 1e-6 floor as their main term.
        let mut quiet = [0.0f32; LAG_MAX];
        quiet[LAG_MAX - 50] = 1e-3;
        let windows = (0..x.len() - LAG_MAX - SUBFRAME)
            .step_by(37)
            .map(|at| &x[at..]);
        for (i, w) in windows.chain([&quiet[..]]).enumerate() {
            let hist: &[f32; LAG_MAX] = w[..LAG_MAX].try_into().unwrap();
            let d: &[f32; SUBFRAME] = x[i..i + SUBFRAME].try_into().unwrap();
            let (lag, corr, energy) = ltp_search(d, hist);
            let (want_lag, want_corr, want_energy) = scalar_ltp_search(d, hist);
            assert_eq!(
                (lag, corr.to_bits(), energy.to_bits()),
                (want_lag, want_corr.to_bits(), want_energy.to_bits()),
                "ltp search, window {i}"
            );
        }
    }

    #[test]
    fn blocked_kernels_are_bit_exact_on_speech() {
        // Three passes over a 2 s utterance, as GsmTask loops its buffer,
        // so the LTP history is warm for most of the run.
        for seed in [1, 11, 227] {
            let once = frames_of(&Signal::speech_like(16_000, seed));
            assert_bit_exact(&once.repeat(3), &format!("speech seed {seed}"));
        }
    }

    #[test]
    fn blocked_kernels_are_bit_exact_on_silence_and_full_scale() {
        let silent = [0i16; GSM_FRAME_SAMPLES];
        let square: [i16; GSM_FRAME_SAMPLES] =
            std::array::from_fn(|i| if i % 2 == 0 { i16::MAX } else { i16::MIN });
        let rail = [i16::MAX; GSM_FRAME_SAMPLES];
        let speech = frames_of(&Signal::speech_like(8 * GSM_FRAME_SAMPLES, 3));
        // A fresh encoder on silence takes the `r[0] < 1e-9` path; the
        // rest switch between silence, full scale and speech mid-stream.
        let mut frames = vec![silent, silent, square, rail, square];
        frames.extend_from_slice(&speech);
        frames.extend([silent, rail, silent, square]);
        frames.extend_from_slice(&speech);
        assert_bit_exact(&frames, "silence and full scale");
    }

    fn many_cpus() -> bool {
        thread::available_parallelism().map_or(1, |n| n.get()) > 1
    }

    /// Feed `feed` to a [`GsmLoopEncoder`] over `pcm` and to a plain
    /// encoder side by side, requiring every byte to agree. Returns the
    /// loop encoder and whether its worker ran before the last frame.
    fn assert_loop_matches_plain(
        pcm: &[i16],
        feed: &[[i16; GSM_FRAME_SAMPLES]],
        what: &str,
    ) -> (GsmLoopEncoder, bool) {
        let (mut ahead, mut plain) = (GsmLoopEncoder::new(pcm), GsmEncoder::new());
        let mut ran = false;
        for (i, f) in feed.iter().enumerate() {
            assert_eq!(
                ahead.encode_frame(f),
                plain.encode_frame(f),
                "{what}: frame {i}"
            );
            ran |= ahead.running_ahead();
        }
        (ahead, ran)
    }

    #[test]
    fn loop_encoder_matches_plain_encoder_over_passes() {
        let pcm = test_utterance(12, 5);
        let feed = frames_of(&pcm).repeat(3);
        let (ahead, ran) = assert_loop_matches_plain(&pcm, &feed, "three passes");
        // The worker runs exactly when the host has a second CPU.
        assert_eq!(ran, many_cpus());
        assert_eq!(ahead.running_ahead(), many_cpus());
    }

    #[test]
    fn loop_encoder_matches_plain_encoder_past_differing_frames() {
        // A 12-frame loop, three passes; each case changes one sample of
        // the frames it names: the first, mid-loop, either side of the
        // wrap, and two in one run.
        let pcm = test_utterance(12, 6);
        let once = frames_of(&pcm);
        for flips in [&[0][..], &[5], &[11], &[12], &[4, 20]] {
            let mut feed = once.repeat(3);
            for &at in flips {
                feed[at][17] ^= 0x40;
            }
            let what = format!("frames {flips:?} differ");
            let (ahead, ran) = assert_loop_matches_plain(&pcm, &feed, &what);
            assert!(!ahead.running_ahead(), "{what}: the worker outlived them");
            assert_eq!(ran, many_cpus() && flips[0] > 0, "{what}");
        }
    }

    #[test]
    fn dropping_a_loop_encoder_mid_stream_returns_promptly() {
        // The worker goes on until its queue is full and then waits on
        // it; dropping the encoder must close the queue before joining,
        // or the join never returns.
        let pcm = test_utterance(12, 7);
        let mut ahead = GsmLoopEncoder::new(&pcm);
        for f in frames_of(&pcm).iter().take(3) {
            ahead.encode_frame(f);
        }
        let (done, dropped) = std::sync::mpsc::channel();
        thread::spawn(move || {
            drop(ahead);
            done.send(()).unwrap();
        });
        dropped
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("dropping the encoder hung");
    }

    #[test]
    fn frame_is_exactly_260_bits() {
        let pcm = test_utterance(1, 1);
        let mut enc = GsmEncoder::new();
        let f = enc.encode_frame(&pcm[..160]);
        assert_eq!(f.len(), 33);
        // Bit budget: 36 LAR + 4 × (7+2+2+6+39) = 260 bits = 32.5 bytes,
        // so the last nibble must be padding zeros.
        assert_eq!(f[32] & 0x0F, 0, "trailing padding must be zero");
    }

    #[test]
    fn deterministic() {
        let pcm = test_utterance(4, 7);
        assert_eq!(gsm_encode_stream(&pcm), gsm_encode_stream(&pcm));
    }

    #[test]
    fn round_trip_preserves_spectral_shape() {
        let pcm = test_utterance(8, 3);
        let mut enc = GsmEncoder::new();
        let mut dec = GsmDecoder::new();
        let mut rec = Vec::new();
        for chunk in pcm.chunks(160) {
            let f = enc.encode_frame(chunk);
            rec.extend_from_slice(&dec.decode_frame(&f));
        }
        // Skip the first two frames (filter warm-up).
        let sim = spectral_similarity(&pcm[320..], &rec[320..]);
        assert!(sim > 0.75, "spectral similarity {sim:.3} too low");
    }

    #[test]
    fn round_trip_energy_in_same_ballpark() {
        let pcm = test_utterance(8, 5);
        let mut enc = GsmEncoder::new();
        let mut dec = GsmDecoder::new();
        let mut rec = Vec::new();
        for chunk in pcm.chunks(160) {
            let f = enc.encode_frame(chunk);
            rec.extend_from_slice(&dec.decode_frame(&f));
        }
        let energy = |x: &[i16]| -> f64 { x.iter().map(|&v| (v as f64).powi(2)).sum() };
        let ea = energy(&pcm[320..]);
        let eb = energy(&rec[320..rec.len()]);
        let ratio = eb / ea;
        assert!((0.2..5.0).contains(&ratio), "energy ratio {ratio:.3}");
    }

    #[test]
    fn silence_stays_quiet() {
        let mut enc = GsmEncoder::new();
        let mut dec = GsmDecoder::new();
        let silent = [0i16; 160];
        for _ in 0..3 {
            let f = enc.encode_frame(&silent);
            let out = dec.decode_frame(&f);
            assert!(out.iter().all(|&s| s.abs() < 256), "noise from silence");
        }
    }

    #[test]
    fn compression_ratio_matches_gsm_fr() {
        // 160 samples × 2 bytes = 320 bytes -> 33 bytes ≈ 9.7:1.
        let pcm = test_utterance(10, 2);
        let enc = gsm_encode_stream(&pcm);
        let ratio = (pcm.len() * 2) as f64 / enc.len() as f64;
        assert!((9.0..10.5).contains(&ratio), "{ratio}");
    }

    #[test]
    #[should_panic(expected = "160 samples")]
    fn wrong_frame_size_rejected() {
        let mut enc = GsmEncoder::new();
        let _ = enc.encode_frame(&[0i16; 100]);
    }

    #[test]
    fn bitstream_varies_with_input() {
        let a = gsm_encode_stream(&test_utterance(2, 1));
        let b = gsm_encode_stream(&test_utterance(2, 2));
        assert_ne!(a, b);
    }

    #[test]
    fn bitio_round_trip() {
        let mut w = BitWriter::new();
        w.put(0b101, 3);
        w.put(0x3F, 6);
        w.put(0, 1);
        w.put(1234, 11);
        let bytes = w.finish();
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.get(3), 0b101);
        assert_eq!(r.get(6), 0x3F);
        assert_eq!(r.get(1), 0);
        assert_eq!(r.get(11), 1234);
    }

    #[test]
    fn levinson_on_known_ar_process() {
        // Generate an AR(1) process x[n] = 0.8 x[n-1] + noise; the first
        // reflection coefficient must come out near 0.8.
        let mut rng = crate::signal::Lcg::new(33);
        let mut x = vec![0.0f32; 4000];
        for i in 1..x.len() {
            x[i] = 0.8 * x[i - 1] + rng.next_f32();
        }
        let k = reflection_coeffs(&autocorrelation(&x[1000..]));
        assert!((k[0] - 0.8).abs() < 0.05, "k0={}", k[0]);
    }
}
