//! Host-speed calibration for the timed end-to-end metrics.
//!
//! The machines this benchmark runs on are shared: other tenants on the
//! same cores slow every instruction stream, by up to a half, in episodes
//! lasting from a fraction of a second to whole runs. Medians alone do not
//! remove that from a run-to-run comparison. So a fixed kernel owned by the
//! benchmark (never by the code under test) is timed next to every timed
//! region, and the region's host seconds are reported as reference-host
//! seconds: scaled by the kernel's speed at that moment relative to its
//! speed on an uncontended reference host.

use std::cell::RefCell;
use std::hint::black_box;
use std::time::Instant;

const TABLE: usize = 1 << 17;
const ITERS: u64 = 2_000;
/// Host seconds one kernel run takes on the reference host (one
/// uncontended core of a 2.1 GHz Xeon).
pub const REFERENCE_S: f64 = 200e-6;

thread_local! {
    static TABLE_BUF: RefCell<Vec<u32>> = RefCell::new(vec![0; TABLE]);
}

/// A small dispatch loop over a 512 KiB table: the interpreter-like mix of
/// branches, ALU work, and loads and stores into a working set the size of
/// a host L2 that the simulator itself spends its time on, so contention
/// slows both alike.
fn kernel(program: &[u8; 64], table: &mut [u32]) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut regs = [1u64; 8];
    for it in 0..ITERS {
        for &op in program {
            let r = (op & 7) as usize;
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(it);
            let slot = (x >> 40) as usize & (TABLE - 1);
            match op & 3 {
                0 => regs[r] = regs[r].wrapping_add(table[slot] as u64),
                1 => table[slot] = regs[r] as u32,
                2 => regs[r] = regs[r].rotate_left(3) ^ it,
                _ if regs[r] & 1 == 0 => regs[r] = regs[r].wrapping_add(7),
                _ => regs[r] = regs[r].wrapping_sub(3),
            }
        }
    }
    regs.iter().fold(x, |a, &r| a ^ r)
}

/// The host's speed right now relative to the reference host (1.0 at
/// reference speed, 0.6 when contention costs 40%): the median of three
/// kernel runs, so one preemption cannot skew it.
pub fn host_speed() -> f64 {
    let mut program = [0u8; 64];
    for (i, op) in program.iter_mut().enumerate() {
        *op = ((i as u32).wrapping_mul(2_654_435_761) >> 29) as u8;
    }
    let mut times = [0.0; 3];
    TABLE_BUF.with(|table| {
        let table = &mut table.borrow_mut()[..];
        for t in &mut times {
            let t0 = Instant::now();
            black_box(kernel(black_box(&program), table));
            *t = t0.elapsed().as_secs_f64();
        }
    });
    times.sort_by(f64::total_cmp);
    REFERENCE_S / times[1]
}

/// Run `f`, returning its result and its host seconds scaled to the
/// reference host by the mean of the speeds measured just before and just
/// after it.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = host_speed();
    let t0 = Instant::now();
    let out = f();
    let host_s = t0.elapsed().as_secs_f64();
    (out, host_s * (before + host_speed()) / 2.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_a_positive_finite_ratio() {
        let s = host_speed();
        assert!(s.is_finite() && s > 0.0, "{s}");
    }

    #[test]
    fn timed_returns_the_result_and_a_duration() {
        let (v, ref_s) = timed(|| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            7
        });
        assert_eq!(v, 7);
        assert!(ref_s > 0.0, "{ref_s}");
    }
}
