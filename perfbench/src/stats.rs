//! Order statistics, set-up timing and process memory readings.

use std::time::Instant;

/// Fewest set-ups one call of [`time_setups`] times.
pub const MIN_SETUPS: usize = 3;
/// Set-ups repeat until this much time has passed, so a cheap set-up is
/// timed many times and the median of its times is steady.
pub const SETUP_SECONDS: f64 = 0.5;

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `values` by linear interpolation
/// between closest ranks; 0 for an empty slice (a run that measured
/// nothing, e.g. because its server died, reads 0 and fails its checks).
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The mean of `values`; 0 for an empty slice.
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    ratio(values.iter().sum(), values.len() as f64)
}

/// `num / den`, or 0 when `den` is not positive.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `build` at least [`MIN_SETUPS`] times and until [`SETUP_SECONDS`]
/// have passed, timing each run, and keeps the last result. An earlier
/// result is dropped outside the timed window.
///
/// # Errors
///
/// Propagates the first failing build.
pub fn time_setups<T>(
    mut build: impl FnMut() -> Result<T, String>,
) -> Result<(T, Vec<f64>), String> {
    let start = Instant::now();
    let mut times = Vec::new();
    let mut last = None;
    while times.len() < MIN_SETUPS || start.elapsed().as_secs_f64() < SETUP_SECONDS {
        let t = Instant::now();
        let built = build()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(built);
    }
    Ok((last.expect("MIN_SETUPS > 0"), times))
}

/// Peak resident set size (`VmHWM`) in MiB of process `pid`, or of this
/// process for `None`. `None` when the process is gone or the kernel does
/// not report it.
#[must_use]
pub fn peak_rss_mib(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(pid) => format!("/proc/{pid}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn own_peak_rss_is_readable() {
        assert!(peak_rss_mib(None).is_some_and(|mib| mib > 0.0));
    }
}
