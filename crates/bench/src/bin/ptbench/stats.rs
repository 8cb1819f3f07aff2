//! Order statistics and the parent-vs-change comparison rules.

/// Percentiles offered for a latency tail, highest first.
const TAIL_PERCENTILES: [f64; 3] = [99.0, 90.0, 50.0];

/// The highest tail percentile that still has at least ten samples beyond
/// it: p99 needs 1,000 samples, p90 needs 100, p50 needs 20. `None` below
/// that.
pub fn tail_percentile(samples: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .into_iter()
        .find(|p| samples as f64 * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Nearest-rank percentile `p` (0..=100) of `sorted` (ascending).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default "exclusive"
/// method), so spreads printed here match the ones the acceptance rules
/// are stated in. A single value is its own quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let (n, m) = (4usize, ld + 1);
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        // Negative when the clamp moved `j` up: extrapolation below the
        // first value, as Python does.
        let delta = (i * m) as f64 - (j * n) as f64;
        (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        if q3 == q1 {
            0.0
        } else {
            f64::INFINITY
        }
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The verdict for one metric on one workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change's median is worse than the parent's by more than the
    /// bound.
    Regressed,
    /// Run-to-run spread is wider than the bound, so "unchanged" cannot be
    /// claimed (and every change run did not beat every parent run).
    Unresolved,
    /// Won at least nine tenths of the pairs, and the medians differ by
    /// more than the parent's own interquartile distance.
    Gain,
    /// Within the bound.
    NoRegression,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
            Verdict::Gain => "gain",
            Verdict::NoRegression => "no regression",
        }
    }
}

/// Parent-vs-change summary of one metric on one workload.
#[derive(Clone, Debug)]
pub struct Comparison {
    pub parent: (f64, f64, f64),
    pub change: (f64, f64, f64),
    /// Relative change of the median, signed so that positive is worse.
    pub worse_by: f64,
    /// Share of index-aligned (parent, change) pairs the change won; ties
    /// count for neither side.
    pub won: f64,
    pub verdict: Verdict,
}

/// Apply the bound and the small-sandbox rules to two sets of runs. Runs
/// are paired by position, so alternate the sides when taking them.
pub fn compare(parent: &[f64], change: &[f64], better: Better, bound: f64) -> Comparison {
    let p = quartiles(parent);
    let c = quartiles(change);
    let is_better = |a: f64, b: f64| match better {
        Better::Lower => a < b,
        Better::Higher => a > b,
    };
    let signed = |x: f64| match better {
        Better::Lower => x,
        Better::Higher => -x,
    };
    let worse_by = if p.1 == 0.0 {
        if c.1 == p.1 {
            0.0
        } else {
            signed(f64::INFINITY.copysign(c.1 - p.1))
        }
    } else {
        signed((c.1 - p.1) / p.1.abs())
    };
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| is_better(**c, **p))
        .count();
    let won = if pairs == 0 {
        0.0
    } else {
        wins as f64 / pairs as f64
    };
    let all_better = change
        .iter()
        .all(|c| parent.iter().all(|p| is_better(*c, *p)));
    let spread_wider = spread(parent).max(spread(change)) > bound;
    let verdict = if spread_wider && !all_better {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else if won >= 0.9 && worse_by < 0.0 && (c.1 - p.1).abs() > p.2 - p.0 {
        Verdict::Gain
    } else {
        Verdict::NoRegression
    };
    Comparison {
        parent: p,
        change: c,
        worse_by,
        won,
        verdict,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(100_000), Some(99.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(0), None);
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0, 4.0));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn compare_flags_a_regression_beyond_the_bound() {
        let parent = [100.0, 101.0, 99.0, 100.5, 100.2];
        let change = [120.0, 121.0, 119.0, 120.5, 120.2];
        let c = compare(&parent, &change, Better::Lower, 0.10);
        assert_eq!(c.verdict, Verdict::Regressed);
        assert!((c.worse_by - 0.2).abs() < 1e-3);
        assert_eq!(c.won, 0.0);
        // The same numbers are a gain when higher is better.
        let c = compare(&parent, &change, Better::Higher, 0.10);
        assert_eq!(c.verdict, Verdict::Gain);
        assert_eq!(c.won, 1.0);
    }

    #[test]
    fn compare_within_bound_is_no_regression() {
        let parent = [100.0, 101.0, 99.0, 100.5, 100.2];
        let change = [103.0, 104.0, 102.0, 103.5, 103.2];
        let c = compare(&parent, &change, Better::Lower, 0.10);
        assert_eq!(c.verdict, Verdict::NoRegression);
        // Identical exact counters: no regression, no gain.
        let c = compare(&[98.0; 5], &[98.0; 5], Better::Lower, 0.01);
        assert_eq!(c.verdict, Verdict::NoRegression);
        assert_eq!(c.won, 0.0, "ties count for neither side");
    }

    #[test]
    fn compare_is_unresolved_when_spread_exceeds_bound() {
        let parent = [80.0, 120.0, 100.0, 90.0, 110.0];
        let change = [85.0, 118.0, 97.0, 92.0, 109.0];
        let c = compare(&parent, &change, Better::Lower, 0.10);
        assert_eq!(c.verdict, Verdict::Unresolved);
        // ...unless every change run beats every parent run.
        let change = [10.0, 12.0, 11.0, 10.5, 11.5];
        let c = compare(&parent, &change, Better::Lower, 0.10);
        assert_eq!(c.verdict, Verdict::Gain);
    }

    #[test]
    fn gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_parent_spread() {
        // Medians differ, but by less than the parent's own spread.
        let parent = [100.0, 102.0, 98.0, 101.0, 99.0];
        let change = [99.0, 101.0, 97.5, 100.0, 98.0];
        let c = compare(&parent, &change, Better::Lower, 0.10);
        assert_eq!(c.won, 1.0);
        assert_eq!(c.verdict, Verdict::NoRegression);
    }
}
