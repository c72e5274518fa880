//! The summary statistics the benchmark reports.

/// The median of `xs` (mean of the two middle values for an even count),
/// or `None` when `xs` is empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 { s[n / 2] } else { (s[n / 2 - 1] + s[n / 2]) / 2.0 })
}

/// Samples that must lie above a percentile before it is reported: a tail
/// estimated from fewer samples is noise.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-th percentile of `xs` (`0 < q < 100`), or `None`
/// unless at least [`MIN_BEYOND`] samples lie beyond the selected rank.
pub fn percentile(xs: &[f64], q: f64) -> Option<f64> {
    assert!(q > 0.0 && q < 100.0, "percentile must lie strictly between 0 and 100");
    let n = xs.len();
    let rank = (q / 100.0 * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_BEYOND {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank - 1])
}

/// Kendall's tau-b rank correlation between paired samples, corrected for
/// ties. `None` when it is undefined: fewer than two pairs, or every value
/// of one side tied.
pub fn kendall_tau_b(x: &[f64], y: &[f64]) -> Option<f64> {
    assert_eq!(x.len(), y.len(), "kendall tau needs paired samples");
    let n = x.len();
    let (mut concordant, mut discordant, mut tied_x, mut tied_y) = (0i64, 0i64, 0i64, 0i64);
    for i in 0..n {
        for j in i + 1..n {
            let dx = x[i].total_cmp(&x[j]) as i64;
            let dy = y[i].total_cmp(&y[j]) as i64;
            match (dx, dy) {
                (0, 0) => {
                    tied_x += 1;
                    tied_y += 1;
                }
                (0, _) => tied_x += 1,
                (_, 0) => tied_y += 1,
                _ if dx == dy => concordant += 1,
                _ => discordant += 1,
            }
        }
    }
    let pairs = (n * n.saturating_sub(1) / 2) as i64;
    let denom = (((pairs - tied_x) * (pairs - tied_y)) as f64).sqrt();
    (denom > 0.0).then(|| (concordant - discordant) as f64 / denom)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        // Rank 90 of 100 leaves exactly ten samples beyond it.
        assert_eq!(percentile(&xs, 90.0), Some(90.0));
        assert_eq!(percentile(&xs[..99], 90.0), None);
        // p99 of 100 has one sample beyond.
        assert_eq!(percentile(&xs, 99.0), None);
        // p50 needs twenty samples.
        assert_eq!(percentile(&xs[..20], 50.0), Some(10.0));
        assert_eq!(percentile(&xs[..19], 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn percentile_ignores_input_order() {
        let xs: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(20.0));
    }

    #[test]
    fn tau_of_same_and_reversed_order() {
        let x = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(kendall_tau_b(&x, &[10.0, 20.0, 30.0, 40.0]), Some(1.0));
        assert_eq!(kendall_tau_b(&x, &[40.0, 30.0, 20.0, 10.0]), Some(-1.0));
    }

    #[test]
    fn tau_corrects_for_ties() {
        // Five concordant pairs, one pair tied in x only:
        // 5 / sqrt((6 - 1) * (6 - 0)).
        let tau = kendall_tau_b(&[1.0, 2.0, 2.0, 3.0], &[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert!((tau - 5.0 / 30f64.sqrt()).abs() < 1e-12);
        // A pair tied on both sides drops out of both denominator terms:
        // 2 / sqrt((3 - 1) * (3 - 1)).
        let tau = kendall_tau_b(&[1.0, 2.0, 2.0], &[1.0, 5.0, 5.0]).unwrap();
        assert!((tau - 1.0).abs() < 1e-12);
        // Every x tied: undefined.
        assert_eq!(kendall_tau_b(&[7.0, 7.0, 7.0], &[1.0, 2.0, 3.0]), None);
    }

    #[test]
    fn tau_of_a_single_candidate_is_undefined() {
        assert_eq!(kendall_tau_b(&[1.0], &[2.0]), None);
        assert_eq!(kendall_tau_b(&[], &[]), None);
    }
}
