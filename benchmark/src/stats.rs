//! Order statistics over repetitions and the bound/direction comparison
//! that judges one result set against another.

/// Median and quartiles of one metric over the reps of a run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` gives
    /// them (the "exclusive" method), so spreads computed here match the
    /// ones the driver computes. One sample is its own quartiles.
    pub fn of(values: &[f64]) -> Summary {
        assert!(!values.is_empty(), "summary of no samples");
        let mut v = values.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are never NaN"));
        let n = v.len();
        if n == 1 {
            return Summary {
                median: v[0],
                q1: v[0],
                q3: v[0],
                n,
            };
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Summary {
            median: cut(2),
            q1: cut(1),
            q3: cut(3),
            n,
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            return 0.0;
        }
        ((self.q3 - self.q1) / self.median).abs()
    }
}

/// The quantiles a tail report may use, most extreme last.
const TAIL_QUANTILES: [f64; 5] = [0.5, 0.9, 0.99, 0.999, 0.9999];

/// Samples that must lie beyond the window a tail report averages.
const MIN_BEYOND: f64 = 10.0;

/// Half width, in quantile units, of the window [`windowed_quantile`]
/// averages around `q`: half the distance to the nearer end.
pub fn window_half_width(q: f64) -> f64 {
    q.min(1.0 - q) / 2.0
}

/// The highest quantile not above `wanted` whose averaging window still
/// leaves at least ten of `n` samples beyond it (the median when even
/// p90 does not).
pub fn tail_quantile(n: usize, wanted: f64) -> f64 {
    TAIL_QUANTILES
        .into_iter()
        .rev()
        .find(|q| *q <= wanted && (n as f64) * (1.0 - q - window_half_width(*q)) >= MIN_BEYOND)
        .unwrap_or(0.5)
}

/// Value at quantile `q` of an ascending-sorted sample (nearest rank).
pub fn quantile_sorted(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let idx = ((sorted.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
    sorted[idx]
}

/// Mean of the order statistics within [`window_half_width`] of
/// quantile `q`. Virtual service demands are multiples of 500 ns, so a
/// single order statistic is quantized to that grid and reads the same
/// for every seed; the window mean is a continuous estimate of the same
/// quantile.
pub fn windowed_quantile(sorted: &[u64], q: f64) -> f64 {
    let hw = window_half_width(q);
    window_mean(sorted, q - hw, q + hw)
}

/// Mean of the order statistics between quantiles `lo` and `hi` of an
/// ascending-sorted sample (a trimmed mean when the window is wide).
pub fn window_mean(sorted: &[u64], lo: f64, hi: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let last = (sorted.len() - 1) as f64;
    let lo = (lo * last).floor().max(0.0) as usize;
    let hi = ((hi * last).ceil() as usize).min(sorted.len() - 1);
    let window = &sorted[lo..=hi];
    window.iter().map(|v| *v as f64).sum::<f64>() / window.len() as f64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge candidate `b` against baseline `a` for one workload x metric.
/// `Unresolved` when the quartile spread of the baseline's own reps
/// exceeds the bound (the run-to-run noise is wider than what the bound
/// could resolve); otherwise `Worse` when `b`'s median is worse than
/// `a`'s by more than `bound` x `a`'s median.
pub fn judge(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    if a.spread() > bound {
        return Verdict::Unresolved;
    }
    let allowed = bound * a.median.abs();
    let worse_by = match better {
        Better::Higher => a.median - b.median,
        Better::Lower => b.median - a.median,
    };
    if worse_by > allowed {
        Verdict::Worse
    } else {
        Verdict::Ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (1.5, 3.0, 4.5, 5));
        // statistics.quantiles([10,20,30,40], n=4) == [12.5, 25.0, 37.5]
        let s = Summary::of(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!((s.q1, s.median, s.q3), (12.5, 25.0, 37.5));
        // statistics.quantiles([1,2,4], n=4) == [1.0, 2.0, 4.0]
        let s = Summary::of(&[4.0, 1.0, 2.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 4.0));
        // statistics.quantiles([3,9], n=4) == [1.5, 6.0, 10.5]
        let s = Summary::of(&[9.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 6.0, 10.5));
        // Ten samples, as the driver takes them.
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert!((s.spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_has_no_spread() {
        let s = Summary::of(&[7.5]);
        assert_eq!((s.q1, s.median, s.q3, s.n), (7.5, 7.5, 7.5, 1));
        assert_eq!(s.spread(), 0.0);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond_it() {
        let beyond = |n: usize, q: f64| n as f64 * (1.0 - q - window_half_width(q));
        for n in [
            1usize, 9, 39, 40, 199, 200, 1_999, 2_000, 19_999, 20_000, 88_000, 2_000_000,
        ] {
            let q = tail_quantile(n, 0.9999);
            assert!(q == 0.5 || beyond(n, q) >= 10.0, "n={n} q={q}");
            // ...and it is the highest such quantile.
            if let Some(next) = TAIL_QUANTILES.into_iter().find(|c| *c > q) {
                assert!(beyond(n, next) < 10.0, "n={n} could use {next}");
            }
        }
        assert_eq!(tail_quantile(88_000, 0.999), 0.999);
        assert_eq!(
            tail_quantile(88_000, 0.9999),
            0.999,
            "4.4 samples beyond p9999's window"
        );
        assert_eq!(
            tail_quantile(19_999, 0.999),
            0.99,
            "just under ten beyond p999's window"
        );
        assert_eq!(
            tail_quantile(3_840, 0.999),
            0.99,
            "smoke-sized run falls back to p99"
        );
        assert_eq!(
            tail_quantile(2_000_000, 0.999),
            0.999,
            "never above what was asked"
        );
    }

    #[test]
    fn windowed_quantile_averages_around_the_rank() {
        let v: Vec<u64> = (0..=10_000).collect();
        // Symmetric windows on a linear sample return the quantile itself.
        assert!((windowed_quantile(&v, 0.5) - 5_000.0).abs() < 1e-9);
        assert!((windowed_quantile(&v, 0.999) - 9_990.0).abs() < 1e-9);
        // p999 averages ranks 9985..=9995 and leaves 5 beyond here; a
        // quantized sample gets a value off its grid.
        let grid: Vec<u64> = (0..=10_000u64).map(|i| i / 4 * 500).collect();
        let w = windowed_quantile(&grid, 0.999);
        assert!(
            w > 1_248_000.0 && w < 1_249_500.0 && w % 500.0 != 0.0,
            "{w}"
        );
        assert_eq!(windowed_quantile(&[42], 0.999), 42.0);
        // A wide window is a trimmed mean: the outliers at both ends of
        // this sample do not move it.
        let mut tailed: Vec<u64> = (0..=100).map(|i| 1_000 + i).collect();
        tailed[0] = 0;
        tailed[100] = 1_000_000;
        assert!((window_mean(&tailed, 0.05, 0.95) - 1_050.0).abs() < 1e-9);
        assert_eq!(window_half_width(0.5), 0.25);
        assert!((window_half_width(0.99) - 0.005).abs() < 1e-12);
        assert!((window_half_width(0.999) - 0.0005).abs() < 1e-12);
    }

    #[test]
    fn nearest_rank_quantile() {
        let v: Vec<u64> = (0..=1000).collect();
        assert_eq!(quantile_sorted(&v, 0.5), 500);
        assert_eq!(quantile_sorted(&v, 0.999), 999);
        assert_eq!(quantile_sorted(&v, 1.0), 1000);
        assert_eq!(quantile_sorted(&[42], 0.999), 42);
    }

    fn flat(x: f64) -> Summary {
        Summary {
            median: x,
            q1: x,
            q3: x,
            n: 5,
        }
    }

    #[test]
    fn judge_applies_bound_and_direction() {
        // Higher is better: a 5 % drop is inside an 8 % bound, 10 % is not.
        assert_eq!(
            judge(&flat(100.0), &flat(95.0), Better::Higher, 0.08),
            Verdict::Ok
        );
        assert_eq!(
            judge(&flat(100.0), &flat(90.0), Better::Higher, 0.08),
            Verdict::Worse
        );
        assert_eq!(
            judge(&flat(100.0), &flat(150.0), Better::Higher, 0.08),
            Verdict::Ok
        );
        // Lower is better: the same numbers flip.
        assert_eq!(
            judge(&flat(100.0), &flat(105.0), Better::Lower, 0.08),
            Verdict::Ok
        );
        assert_eq!(
            judge(&flat(100.0), &flat(110.0), Better::Lower, 0.08),
            Verdict::Worse
        );
        assert_eq!(
            judge(&flat(100.0), &flat(50.0), Better::Lower, 0.08),
            Verdict::Ok
        );
        // Exactly on the bound is still ok.
        assert_eq!(
            judge(&flat(100.0), &flat(92.0), Better::Higher, 0.08),
            Verdict::Ok
        );
    }

    #[test]
    fn judge_reports_unresolved_when_the_baseline_is_noisier_than_the_bound() {
        let noisy = Summary {
            median: 100.0,
            q1: 94.0,
            q3: 104.0,
            n: 5,
        };
        assert!(noisy.spread() > 0.08);
        // Even a large apparent regression cannot be resolved...
        assert_eq!(
            judge(&noisy, &flat(70.0), Better::Higher, 0.08),
            Verdict::Unresolved
        );
        // ...but a wider bound resolves it.
        assert_eq!(
            judge(&noisy, &flat(70.0), Better::Higher, 0.25),
            Verdict::Worse
        );
        // The candidate's own spread does not matter.
        assert_eq!(
            judge(&flat(100.0), &noisy, Better::Higher, 0.08),
            Verdict::Ok
        );
    }
}
