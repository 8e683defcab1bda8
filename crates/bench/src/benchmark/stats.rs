//! Order statistics of host-time samples: medians, quartiles and the
//! inter-quartile spread that bounds are compared against.

/// Quartiles `(q1, median, q3)` exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method, extrapolating at the ends like Python does) — the rule the
/// benchmark driver applies to our output, so spreads printed here are the
/// spreads it will see. A single value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0], v[0]);
    }
    let at = |k: usize| {
        let j = ((n + 1) * k / 4).clamp(1, n - 1);
        let delta = ((n + 1) * k) as f64 - (4 * j) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), median_sorted(&v), at(3))
}

fn median_sorted(v: &[f64]) -> f64 {
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Inter-quartile range as a share of the median: the run-to-run spread
/// that bounds are compared against. Zero for fewer than two values.
pub fn iqr_share(values: &[f64]) -> f64 {
    if values.len() < 2 {
        return 0.0;
    }
    let (q1, med, q3) = quartiles(values);
    if med == 0.0 {
        return 0.0;
    }
    (q3 - q1) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([10,20,30,40,50,60,70], n=4) == [20, 40, 60]
        let v: Vec<f64> = (1..=7).map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(quartiles(&v), (20.0, 40.0, 60.0));
    }

    #[test]
    fn median_and_single_value() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0, 5.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn iqr_share_is_relative_to_median() {
        let v: Vec<f64> = (1..=7).map(|i| f64::from(i) * 10.0).collect();
        assert_eq!(iqr_share(&v), 1.0); // (60 - 20) / 40
        assert_eq!(iqr_share(&[7.0]), 0.0);
        assert_eq!(iqr_share(&[0.0, 0.0, 0.0]), 0.0);
    }
}
