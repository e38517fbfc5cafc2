//! Order statistics over timing samples.

/// Value at fraction `p` (0..=1) of an ascending slice, linearly
/// interpolated between neighbours. Empty input gives NaN, which the JSON
/// writer renders as `null` and the checker reports as a failure.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = p * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples), 0.5)
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_rel(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    (percentile(&s, 0.75) - percentile(&s, 0.25)) / percentile(&s, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn percentile_interpolates() {
        let s = [10.0, 20.0, 30.0, 40.0, 50.0];
        assert_eq!(percentile(&s, 0.0), 10.0);
        assert_eq!(percentile(&s, 0.75), 40.0);
        assert_eq!(percentile(&s, 0.9), 46.0);
        assert_eq!(percentile(&s, 1.0), 50.0);
    }

    #[test]
    fn iqr_is_relative_to_the_median() {
        assert_eq!(
            iqr_rel(&[10.0, 20.0, 30.0, 40.0, 50.0]),
            (40.0 - 20.0) / 30.0
        );
        assert_eq!(iqr_rel(&[7.0, 7.0, 7.0]), 0.0);
    }
}
