//! Summary statistics and failure accounting shared by every workload.
//!
//! Timings are reported as a median plus a *tail*: the highest percentile
//! that still has at least [`TAIL_BEYOND`] samples beyond it, together with
//! which percentile that was and how many samples it came from.

/// How many samples must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of `values` (mean of the two middle values for an even count);
/// `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile by the "exclusive" method of
/// Python's `statistics.quantiles(values, n=4)`, so the benchmark's own
/// spread matches the one computed over repeated runs.  `None` for fewer
/// than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n as f64 + 1.0;
    let q = |i: f64| {
        // Position i*m/4 (1-based); like Python, the index is clamped to
        // 1..n-1 and the value extrapolates beyond it.
        let pos = i * m / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let delta = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some([q(1.0), q(2.0), q(3.0)])
}

/// The tail of a latency sample: the value at the highest percentile that
/// has at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile reported, `100 · (n − 10) / n`.
    pub percentile: f64,
    /// The sample at that percentile (nearest-rank).
    pub value: f64,
    /// Number of samples the tail was taken from.
    pub samples: usize,
}

/// The tail of `values`, or `None` when fewer than `TAIL_BEYOND + 1` samples
/// exist (no percentile has ten samples beyond it).
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let v = sorted(values);
    Some(Tail {
        percentile: 100.0 * (n - TAIL_BEYOND) as f64 / n as f64,
        value: v[n - TAIL_BEYOND - 1],
        samples: n,
    })
}

/// Counts operations attempted and failed.  An operation fails when it
/// returns an error or its output fails a check.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpLog {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned an error or failed a check.
    pub failed: u64,
}

impl OpLog {
    /// Records one operation: `ok` is false when it errored or failed a check.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Adds another log's counts.
    pub fn absorb(&mut self, other: OpLog) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    /// Failed operations over attempted ones (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Milliseconds in a duration.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration.
pub fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Runs `f` `reps` times and returns the median wall-clock time in
/// milliseconds plus the last result.
pub fn median_ms<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    assert!(reps > 0, "at least one repetition");
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        let out = std::hint::black_box(f());
        times.push(ms(start.elapsed()));
        last = Some(out);
    }
    (median(&times), last.expect("reps > 0"))
}

/// [`median_ms`] for a fallible operation: the first error ends the timing
/// and is returned.
///
/// # Errors
/// Propagates the operation's first error.
pub fn median_ms_ok<T, E>(reps: usize, mut f: impl FnMut() -> Result<T, E>) -> Result<(f64, T), E> {
    assert!(reps > 0, "at least one repetition");
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        let out = std::hint::black_box(f()?);
        times.push(ms(start.elapsed()));
        last = Some(out);
    }
    Ok((median(&times), last.expect("reps > 0")))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]: the
        // index is clamped but the value extrapolates.
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(tail(&ten), None, "ten samples leave none with ten beyond");

        let eleven: Vec<f64> = (1..=11).map(f64::from).collect();
        let t = tail(&eleven).expect("eleven samples have a tail");
        assert_eq!(t.value, 1.0, "exactly ten samples lie beyond the smallest");
        assert_eq!(t.samples, 11);
        assert!((t.percentile - 100.0 / 11.0).abs() < 1e-12);

        let hundred: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let t = tail(&hundred).expect("tail exists");
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.value, 90.0, "p90 of 1..=100 with 91..=100 beyond it");
        let beyond = hundred.iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn failed_ops_frac_counts_errors_and_failed_checks() {
        let mut log = OpLog::default();
        assert_eq!(log.failed_frac(), 0.0, "nothing attempted, nothing failed");
        log.record(true);
        log.record(false);
        log.record(true);
        log.record(true);
        assert_eq!(log.attempted, 4);
        assert_eq!(log.failed, 1);
        assert_eq!(log.failed_frac(), 0.25);

        let mut other = OpLog::default();
        other.record(false);
        log.absorb(other);
        assert_eq!(log.failed_frac(), 2.0 / 5.0);
    }
}
