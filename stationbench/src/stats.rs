//! Sample statistics the benchmark reports: nearest-rank percentiles
//! with a sample-support check, medians, and ratios that carry their
//! base.

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p <= 100) of an ascending sample:
/// the smallest value with at least `p`% of the sample at or below it.
///
/// # Panics
/// On an empty sample or `p` outside (0, 100].
#[must_use]
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` in a sample of `n`.
fn rank(n: usize, p: f64) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} outside (0, 100]");
    // The epsilon keeps exact products (99% of 1000 = 990) from
    // rounding up a rank through float error.
    ((p / 100.0 * n as f64) - 1e-9).ceil().max(1.0) as usize
}

/// Samples strictly beyond percentile `p` in a sample of `n`.
#[must_use]
pub fn beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// The highest of `candidates` (tried in the given order, highest
/// first) that leaves at least [`MIN_BEYOND`] samples beyond it.
#[must_use]
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .find(|&p| n > 0 && beyond(n, p) >= MIN_BEYOND)
}

/// Tail percentiles tried, highest first: a latency summary reports the
/// highest one its pooled sample supports, so the traffic is never sized
/// around a percentile.
pub const TAIL_CANDIDATES: [f64; 4] = [99.0, 98.0, 95.0, 90.0];

/// First quartile (nearest rank) of a run's per-part times: the edge of
/// its fastest quarter. Other tenants of a shared host only ever add
/// time, and they do so in episodes that cover some of the parts a run
/// spreads over its length, not all; the fast end of the parts is the
/// most repeatable estimate of the program's own cost, and a change in
/// that cost moves the fast parts as much as the slow ones.
///
/// # Panics
/// On an empty sample.
#[must_use]
pub fn fast_time(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), 25.0) - 1]
}

/// Third quartile (nearest rank) of a run's per-part rates, for the
/// reason [`fast_time`] gives.
///
/// # Panics
/// On an empty sample.
#[must_use]
pub fn fast_rate(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[rank(v.len(), 75.0) - 1]
}

/// Latency summary of one operation class measured in parts (instructor
/// sessions, student slices).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Samples measured, all parts.
    pub n: usize,
    /// [`fast_time`] over parts of each part's median, µs.
    pub p50_us: f64,
    /// The tail percentile reported: the highest of [`TAIL_CANDIDATES`]
    /// the pooled sample supports.
    pub tail_pct: f64,
    /// That percentile of the pooled sample, µs.
    pub tail_us: f64,
}

/// Summarise latencies given in nanoseconds, one sample per part. The
/// median is taken per part and then [`fast_time`] over parts, so a
/// stall of the host during some parts moves only those values; the tail
/// comes from the pooled sample.
///
/// # Errors
/// When a part is empty or the pooled sample supports none of
/// [`TAIL_CANDIDATES`] — the size is then a configuration error, not a
/// number to report.
pub fn latency(parts: Vec<Vec<u64>>, what: &str) -> Result<Latency, String> {
    let mut p50s = Vec::with_capacity(parts.len());
    let mut pooled = Vec::new();
    for mut part in parts {
        if part.is_empty() {
            return Err(format!("{what}: a part has no samples"));
        }
        part.sort_unstable();
        p50s.push(percentile(&part, 50.0) as f64 / 1e3);
        pooled.extend(part);
    }
    pooled.sort_unstable();
    let Some(tail_pct) = highest_supported(pooled.len(), &TAIL_CANDIDATES) else {
        return Err(format!(
            "{what}: {} samples support none of {TAIL_CANDIDATES:?} ({MIN_BEYOND} must lie beyond it)",
            pooled.len()
        ));
    };
    Ok(Latency {
        n: pooled.len(),
        p50_us: fast_time(&p50s),
        tail_pct,
        tail_us: percentile(&pooled, tail_pct) as f64 / 1e3,
    })
}

/// Median of a non-empty sample (mean of the middle pair when even).
///
/// # Panics
/// On an empty sample.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A ratio reported with the base it divides by.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Numerator.
    pub value: f64,
    /// Denominator.
    pub base: f64,
}

impl Ratio {
    /// `value / base`, or 0 when the base is 0 (nothing to compare).
    #[must_use]
    pub fn get(&self) -> f64 {
        if self.base == 0.0 {
            0.0
        } else {
            self.value / self.base
        }
    }
}

impl std::fmt::Display for Ratio {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.4} ({} / base {})", self.get(), self.value, self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&v, 50.0), 500);
        assert_eq!(percentile(&v, 99.0), 990);
        assert_eq!(percentile(&v, 100.0), 1000);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[1, 2], 50.0), 1);
        assert_eq!(percentile(&[1, 2], 51.0), 2);
    }

    #[test]
    fn p99_needs_ten_samples_beyond() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(highest_supported(1000, &[99.9, 99.0, 90.0]), Some(99.0));
        assert_eq!(highest_supported(999, &[99.0, 95.0]), Some(95.0));
        assert_eq!(highest_supported(10_000, &[99.9, 99.0]), Some(99.9));
        assert_eq!(highest_supported(15, &[99.0, 50.0]), None);
        assert_eq!(highest_supported(0, &[50.0]), None);
    }

    #[test]
    fn latency_reports_the_highest_supported_tail() {
        let l = latency(vec![(0..1000).map(|i| i * 1000).collect()], "x").unwrap();
        assert_eq!(
            (l.n, l.p50_us, l.tail_pct, l.tail_us),
            (1000, 499.0, 99.0, 989.0)
        );
        // 600 samples leave 6 beyond p99 and 12 beyond p98.
        let l = latency(vec![(0..600).collect()], "x").unwrap();
        assert_eq!(l.tail_pct, 98.0);
        // 99 samples leave 9 beyond p90: no tail is supported.
        assert!(latency(vec![(0..99).collect()], "x").is_err());
        assert!(latency(vec![(0..2000).collect(), vec![]], "x").is_err());
    }

    #[test]
    fn latency_takes_the_fast_quartile_of_part_medians_and_pools_the_tail() {
        // Part medians 2, 20, 200 and 2000 µs: the first quartile over
        // parts is 2; the pooled p99 lies in the slowest part.
        let parts: Vec<Vec<u64>> = [200_000, 2_000, 2_000_000, 20_000]
            .iter()
            .map(|&v| vec![v; 300])
            .collect();
        let l = latency(parts, "x").unwrap();
        assert_eq!(
            (l.n, l.p50_us, l.tail_pct, l.tail_us),
            (1200, 2.0, 99.0, 2000.0)
        );
    }

    #[test]
    fn fast_quartiles_of_parts() {
        let times = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 7.0, 6.0];
        // Nearest rank: the 2nd of 8 from either end.
        assert_eq!(fast_time(&times), 2.0);
        assert_eq!(fast_rate(&times), 6.0);
        assert_eq!(fast_time(&[9.0]), 9.0);
        assert_eq!(fast_rate(&[9.0]), 9.0);
        // Five parts: ranks 2 and 4.
        assert_eq!(fast_time(&[1.0, 2.0, 3.0, 4.0, 5.0]), 2.0);
        assert_eq!(fast_rate(&[1.0, 2.0, 3.0, 4.0, 5.0]), 4.0);
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn ratios_keep_their_base() {
        let r = Ratio {
            value: 3.0,
            base: 2.0,
        };
        assert_eq!(r.get(), 1.5);
        assert_eq!(r.to_string(), "1.5000 (3 / base 2)");
        let zero = Ratio {
            value: 5.0,
            base: 0.0,
        };
        assert_eq!(zero.get(), 0.0);
    }
}
