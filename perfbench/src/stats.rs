//! Order statistics for timed samples.
//!
//! Every timed metric is summarised the same way: sample count,
//! median, first and third quartile, and the highest percentile from
//! [`TAIL_PERCENTILES`] that still has at least ten samples beyond it.

/// Candidate tail percentiles, highest first.
const TAIL_PERCENTILES: [f64; 5] = [99.9, 99.0, 95.0, 90.0, 75.0];

/// Linear-interpolation quantile of an ascending slice (`q` in 0..=1).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

pub fn sorted(v: &[f64]) -> Vec<f64> {
    let mut s: Vec<f64> = v.iter().copied().filter(|x| x.is_finite()).collect();
    s.sort_by(f64::total_cmp);
    s
}

pub fn median(v: &[f64]) -> f64 {
    quantile_sorted(&sorted(v), 0.5)
}

/// The median of a trended series, read quarter by quarter: the
/// geometric mean of the medians of its four consecutive quarters.
/// On a stationary series it is the median. When the values rise
/// through the series, it samples the whole series rather than its
/// middle alone, so noise around that moment weighs less.
pub fn quarter_median(v: &[f64]) -> f64 {
    let n = v.len();
    if n < 4 {
        return median(v);
    }
    let logs: f64 = (0..4).map(|q| median(&v[q * n / 4..(q + 1) * n / 4]).ln()).sum();
    (logs / 4.0).exp()
}

/// Nearest-rank percentile `p` (0..=100) of an ascending slice: the
/// value a fraction `p` of the samples lies at or below.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile `p` of unsorted samples.
pub fn percentile(v: &[f64], p: f64) -> f64 {
    percentile_sorted(&sorted(v), p)
}

/// The highest tail percentile with at least ten samples beyond it,
/// or `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_PERCENTILES
        .iter()
        .copied()
        .find(|&p| (n as f64) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
}

/// Summary of one timed metric's samples.
#[derive(Clone, Debug)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` per [`tail_percentile`].
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    pub fn of(v: &[f64]) -> Summary {
        let s = sorted(v);
        Summary {
            n: s.len(),
            median: quantile_sorted(&s, 0.5),
            q1: quantile_sorted(&s, 0.25),
            q3: quantile_sorted(&s, 0.75),
            tail: tail_percentile(s.len()).map(|p| (p, percentile_sorted(&s, p))),
        }
    }

    pub fn json(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!("{{\"p\": {p}, \"value\": {}}}", num(v)),
            None => "null".to_string(),
        };
        format!(
            "{{\"n\": {}, \"median\": {}, \"q1\": {}, \"q3\": {}, \"tail\": {tail}}}",
            self.n,
            num(self.median),
            num(self.q1),
            num(self.q3)
        )
    }

    pub fn text(&self) -> String {
        let tail = match self.tail {
            Some((p, v)) => format!(" p{p}={v:.4}"),
            None => String::new(),
        };
        format!(
            "median={:.4} q1={:.4} q3={:.4}{tail} (n={})",
            self.median, self.q1, self.q3, self.n
        )
    }
}

/// A finite number as JSON (`null` otherwise).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// `a / b`, NaN when `b` is zero.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        f64::NAN
    } else {
        a / b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_beyond() {
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
    }

    #[test]
    fn quarter_median_of_flat_series_is_its_median() {
        let v = [3.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0];
        assert!((quarter_median(&v) - 2.0).abs() < 1e-12);
        // Doubling from quarter to quarter: the geometric mean of 1, 2, 4, 8.
        let v = [1.0, 1.0, 2.0, 2.0, 4.0, 4.0, 8.0, 8.0];
        assert!((quarter_median(&v) - 8f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn quartiles_interpolate() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.q1, 2.0);
        assert_eq!(s.q3, 4.0);
    }
}
