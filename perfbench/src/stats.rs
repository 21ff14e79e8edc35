//! Order statistics, grind normalization and process measurements.

/// Nearest-rank percentile (`p` in 0..=100) of `values`; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median as the mean of the two middle values for even counts.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; `NaN` when empty.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Grind attempts of a proof: the grind keeps the lowest qualifying nonce
/// scanning from 0, so it tried `pow_witness + 1` nonces.
pub fn grind_attempts(pow_witness: u64) -> u64 {
    pow_witness + 1
}

/// Replaces a measured time's actual grind with the expected one:
/// `measured − (attempts − 2^bits) · ns_per_attempt`. A lucky transcript
/// (fewer attempts than expected) is charged the difference, an unlucky
/// one is refunded it.
pub fn normalize_ns(measured_ns: f64, attempts: u64, pow_bits: usize, ns_per_attempt: f64) -> f64 {
    let expected = (1u64 << pow_bits) as f64;
    measured_ns - (attempts as f64 - expected) * ns_per_attempt
}

/// Peak resident set size (`VmHWM`) of this process in MiB, read from
/// `/proc/self/status`.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Nanoseconds elapsed since `start`, as a float.
pub fn ns_since(start: std::time::Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 10.0);
        assert_eq!(percentile(&v, 90.0), 18.0);
        assert_eq!(percentile(&v, 100.0), 20.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn normalization_matches_hand_computed_values() {
        // 100,000 attempts against 65,536 expected at 2 µs each: the
        // 34,464 surplus attempts (68.928 ms) are refunded.
        let n = normalize_ns(300e6, 100_000, 16, 2_000.0);
        assert!((n - (300e6 - 68_928_000.0)).abs() < 1e-3, "{n}");
        // A lucky 4,992-attempt transcript is charged the 60,544 missing
        // attempts: 60,544 × 2.5 µs = 151.36 ms.
        let n = normalize_ns(50e6, 4_992, 16, 2_500.0);
        assert!((n - (50e6 + 151_360_000.0)).abs() < 1e-3, "{n}");
        // Exactly the expected grind leaves the measurement untouched.
        assert_eq!(normalize_ns(1e6, 1 << 10, 10, 123.0), 1e6);
        assert_eq!(grind_attempts(0), 1);
        assert_eq!(grind_attempts(65_535), 65_536);
    }

    #[test]
    fn peak_rss_is_read_from_proc() {
        let rss = peak_rss_mib();
        assert!(rss > 0.0 && rss < 1e6, "{rss}");
    }
}
