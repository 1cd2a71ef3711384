//! Order statistics for timing cells.
//!
//! Every cell is reported as median + quartiles + sample count + the
//! highest percentile that still has ten samples beyond it. Means and
//! fixed p95/p99 are deliberately absent: on an oversubscribed two-core
//! host one descheduled rank moves a mean by double digits, and a p99 of
//! 150 samples is the second-worst sample.

/// Median of `v` (mean of the two middle samples for even lengths).
/// Returns 0 for an empty slice so that an unmeasured cell reads as 0,
/// not NaN, in the report.
pub fn median(v: &[f64]) -> f64 {
    quartiles(v).1
}

/// `(q1, median, q3)` by the exclusive method — the same cut points as
/// Python's `statistics.quantiles(v, n=4)`, which is what the driver
/// applies to the per-run values.
pub fn quartiles(v: &[f64]) -> (f64, f64, f64) {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (s[0], s[0], s[0]),
        n => {
            let at = |q: usize| {
                // Position q*(n+1)/4 in 1-based ranks; like Python, the
                // end intervals extrapolate when the position falls
                // outside the data.
                let pos = q as f64 * (n as f64 + 1.0) / 4.0;
                let lo = (pos.floor() as usize).clamp(1, n - 1);
                let frac = pos - lo as f64;
                s[lo - 1] + frac * (s[lo] - s[lo - 1])
            };
            (at(1), at(2), at(3))
        }
    }
}

/// Interquartile range as a share of the median: the spread the driver
/// compares against a metric's bound.
pub fn rel_spread(v: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(v);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The highest percentile of the ladder 50/75/90/95/99/99.9 that has at
/// least ten samples strictly beyond it, with its value. `None` below
/// twenty samples.
pub fn tail_percentile(v: &[f64]) -> Option<(f64, f64)> {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    // Per-mille, so that the nearest-rank index is exact integer math.
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find_map(|pm| {
            let idx = (pm * n).div_ceil(1000);
            (idx >= 1 && n - idx >= 10).then(|| (pm as f64 / 10.0, s[idx - 1]))
        })
}

/// Median over rounds of the paired ratio `a[i] / b[i]`. Pairs whose
/// denominator is zero are skipped.
pub fn paired_ratio_median(a: &[f64], b: &[f64]) -> f64 {
    let ratios: Vec<f64> = a
        .iter()
        .zip(b)
        .filter(|&(_, &d)| d > 0.0)
        .map(|(&n, &d)| n / d)
        .collect();
    median(&ratios)
}

/// Flags a cell whose samples sit in two clusters: the widest gap
/// between neighbouring sorted samples exceeds a quarter of the median
/// and leaves at least a fifth of the samples on each side.
pub fn is_bimodal(v: &[f64]) -> bool {
    let mut s: Vec<f64> = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 10 {
        return false;
    }
    let med = median(&s);
    let lo = n / 5;
    let hi = n - n / 5;
    (lo.max(1)..hi).any(|i| s[i] - s[i - 1] > 0.25 * med)
}

/// One timing cell, summarised.
#[derive(Clone, Debug, Default)]
pub struct Summary {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub tail: Option<(f64, f64)>,
    pub bimodal: bool,
}

pub fn summarize(v: &[f64]) -> Summary {
    let (q1, median, q3) = quartiles(v);
    Summary {
        n: v.len(),
        q1,
        median,
        q3,
        tail: tail_percentile(v),
        bimodal: is_bimodal(v),
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "median {:.3} [q1 {:.3}, q3 {:.3}] n={}",
            self.median, self.q1, self.q3, self.n
        )?;
        if let Some((pct, val)) = self.tail {
            write!(f, " p{pct}={val:.3}")?;
        }
        if self.bimodal {
            write!(f, " BIMODAL")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let (a, b, c) = quartiles(&[1.0, 2.0]);
        assert_eq!((a, b, c), (0.75, 1.5, 2.25));
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((rel_spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(rel_spread(&[5.0, 5.0, 5.0, 5.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail_percentile(&v(19)), None);
        // 20 samples: the median has exactly ten beyond it.
        assert_eq!(tail_percentile(&v(20)), Some((50.0, 10.0)));
        // 300 samples: p95 leaves 15 beyond, p99 only 3.
        assert_eq!(tail_percentile(&v(300)), Some((95.0, 285.0)));
        // 1000 samples: p99 leaves exactly ten.
        assert_eq!(tail_percentile(&v(1000)), Some((99.0, 990.0)));
        assert_eq!(tail_percentile(&v(10_000)), Some((99.9, 9990.0)));
    }

    #[test]
    fn paired_ratio_uses_pairs_not_medians() {
        // Drift moves both sides together; the paired ratio stays put.
        let a = [11.0, 22.0, 33.0];
        let b = [10.0, 20.0, 30.0];
        assert!((paired_ratio_median(&a, &b) - 1.1).abs() < 1e-12);
        assert_eq!(paired_ratio_median(&[1.0], &[0.0]), 0.0);
    }

    #[test]
    fn bimodal_flag() {
        let mut two: Vec<f64> = vec![41.0; 30];
        two.extend(vec![105.0; 30]);
        assert!(is_bimodal(&two));
        let one: Vec<f64> = (0..60).map(|i| 50.0 + i as f64 * 0.1).collect();
        assert!(!is_bimodal(&one));
        // One straggler is a tail, not a mode.
        let mut tail = vec![50.0; 59];
        tail.push(500.0);
        assert!(!is_bimodal(&tail));
    }
}
