//! Reading the `obs::Registry` metrics the program already emits.

use crate::stats::Ratio;
use obs::{Histogram, Registry};
use std::collections::BTreeMap;

/// A metric's value whatever its kind: a histogram's sum, a gauge, or
/// a counter (0 when never emitted).
#[must_use]
pub fn value(r: &Registry, name: &str) -> f64 {
    if let Some(h) = r.histogram(name) {
        h.sum() as f64
    } else if let Some(g) = r.gauge(name) {
        g as f64
    } else {
        r.counter(name) as f64
    }
}

/// Nearest-rank percentile of a bucketed histogram, as the upper bound
/// of the bucket holding that rank (the last bound for the overflow
/// bucket); 0 when empty.
#[must_use]
pub fn hist_pct(h: &Histogram, p: f64) -> f64 {
    if h.count() == 0 {
        return 0.0;
    }
    let rank = ((p / 100.0 * h.count() as f64).ceil() as u64).max(1);
    let mut seen = 0;
    for (i, c) in h.counts().iter().enumerate() {
        seen += c;
        if seen >= rank {
            let b = h.bounds();
            return b.get(i).or(b.last()).copied().unwrap_or(0) as f64;
        }
    }
    0.0
}

/// The relstore metrics summed over one or more engines' registries.
pub fn relstore_layers(regs: &[&Registry], out: &mut BTreeMap<String, f64>) {
    let sum = |name: &str| regs.iter().map(|r| value(r, name)).sum::<f64>();
    for name in [
        "relstore.lock.waits",
        "relstore.lock.wait_us",
        "relstore.lock.wait_die_aborts",
        "relstore.txn.commits",
        "relstore.txn.aborts",
        "relstore.txn.retries",
        "relstore.select.rows_examined",
    ] {
        out.insert(name.into(), sum(name));
    }
    let mut commit: Option<Histogram> = None;
    for h in regs
        .iter()
        .filter_map(|r| r.histogram("relstore.txn.commit_us"))
    {
        commit = Some(match commit {
            Some(c) => c.merge(&h),
            None => h,
        });
    }
    let commit = commit.unwrap_or_else(|| Histogram::new(&[]));
    out.insert("relstore.txn.commit_us.p50".into(), hist_pct(&commit, 50.0));
    out.insert("relstore.txn.commit_us.p99".into(), hist_pct(&commit, 99.0));
}

/// `relstore.rows_examined_per_returned`: rows the engines examined
/// over rows the benchmark's read verbs got back.
pub fn rows_per_returned(out: &mut BTreeMap<String, f64>, returned: u64) {
    let examined = out
        .get("relstore.select.rows_examined")
        .copied()
        .unwrap_or(0.0);
    out.insert(
        "relstore.rows_examined_per_returned".into(),
        Ratio {
            value: examined,
            base: returned as f64,
        }
        .get(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_percentiles() {
        let mut h = Histogram::new(&[10, 100, 1000]);
        for v in [1, 2, 3, 50, 5000] {
            h.record(v);
        }
        assert_eq!(hist_pct(&h, 50.0), 10.0);
        assert_eq!(hist_pct(&h, 80.0), 100.0);
        assert_eq!(
            hist_pct(&h, 99.0),
            1000.0,
            "overflow reads as the last bound"
        );
        assert_eq!(hist_pct(&Histogram::new(&[1]), 50.0), 0.0);
    }
}
