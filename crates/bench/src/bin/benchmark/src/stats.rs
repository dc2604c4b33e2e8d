//! Summary arithmetic shared by the workloads: medians, the tail-percentile
//! rule, the paper's Table III, and host memory readings.

/// Median (mean of the two middle values for an even count; 0 when empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    }
}

/// Samples a tail percentile must leave beyond it to be reported.
pub const TAIL_SAMPLES: u64 = 10;

/// The highest of p99.9, p99, p90 and p50 that leaves at least
/// [`TAIL_SAMPLES`] of `n` samples beyond it.
pub fn tail_quantile(n: u64) -> Option<f64> {
    [(999, 1000), (99, 100), (9, 10), (1, 2)]
        .into_iter()
        .find(|&(num, den)| n - (n * num).div_ceil(den) >= TAIL_SAMPLES)
        .map(|(num, den)| num as f64 / den as f64)
}

/// Table III rows, in the paper's order.
pub const T3_ROWS: [&str; 5] = ["entry", "exit", "irq_entry", "exec", "total"];

/// The paper's Table III (µs): rows as [`T3_ROWS`], columns native, 1, 2, 3
/// and 4 guest OSes. Zero cells are zero by construction (no trap natively)
/// and take no part in the error.
pub const PAPER_T3: [[f64; 5]; 5] = [
    [0.0, 0.87, 1.11, 1.26, 1.29],
    [0.0, 0.72, 0.91, 0.96, 0.99],
    [0.0, 0.23, 0.46, 0.50, 0.51],
    [15.01, 15.46, 15.83, 16.11, 16.31],
    [15.01, 17.06, 17.84, 18.33, 18.57],
];

/// Mean |measured − paper| / paper over the paper's non-zero Table III
/// cells, in percent.
pub fn paper_err_pct(measured: &[[f64; 5]; 5]) -> f64 {
    let mut sum = 0.0;
    let mut cells = 0;
    for (paper_row, row) in PAPER_T3.iter().zip(measured) {
        for (&p, &m) in paper_row.iter().zip(row) {
            if p != 0.0 {
                sum += (m - p).abs() / p;
                cells += 1;
            }
        }
    }
    100.0 * sum / cells as f64
}

/// A `/proc/self/status` size field (`VmHWM`, `VmRSS`) in MB; 0 where the
/// file is unavailable.
pub fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':').map(str::to_owned))
        })
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(1_000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.9));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(20), Some(0.5));
        assert_eq!(tail_quantile(19), None);
    }

    #[test]
    fn paper_error_covers_the_22_nonzero_cells() {
        let cells = PAPER_T3.iter().flatten().filter(|&&p| p != 0.0).count();
        assert_eq!(cells, 22);
        assert_eq!(paper_err_pct(&PAPER_T3), 0.0);
        let mut high = PAPER_T3;
        for v in high.iter_mut().flatten() {
            *v *= 1.1;
        }
        assert!((paper_err_pct(&high) - 10.0).abs() < 1e-9);
        // A wrong zero cell is not an error term; a wrong non-zero one is,
        // weighted 1/22.
        let mut one = PAPER_T3;
        one[0][0] = 5.0;
        assert_eq!(paper_err_pct(&one), 0.0);
        one[3][0] = 2.0 * PAPER_T3[3][0];
        assert!((paper_err_pct(&one) - 100.0 / 22.0).abs() < 1e-9);
    }

    #[test]
    fn peak_rss_is_read_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(status_mb("VmHWM") > 0.0);
            assert!(status_mb("VmHWM") >= status_mb("VmRSS"));
        }
    }
}
