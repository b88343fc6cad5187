//! Order statistics over measured samples.
//!
//! A tail percentile is only reported when the sample supports it: at least
//! [`MIN_BEYOND`] samples must lie above it, so p90 needs 100 samples and p99
//! needs 1,000. The median is always reported.

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// The median, averaging the two middle samples of an even-sized set; `0` for none.
pub fn median(samples: &[f64]) -> f64 {
    let sorted = sorted(samples);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// The nearest-rank `q`-quantile (`0 < q < 1`), or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(samples: &[f64], q: f64) -> Option<f64> {
    let sorted = sorted(samples);
    let n = sorted.len();
    // Nearest rank: the smallest sample with at least a `q` share of the set at or
    // below it. The float product is rounded first so 0.9 * 100 lands on 90.
    let rank = ((q * n as f64 * 1e9).round() / 1e9).ceil() as usize;
    if rank == 0 || n - rank.min(n) < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The largest value; `0` for none.
pub fn max(samples: &[f64]) -> f64 {
    samples.iter().copied().fold(0.0, f64::max)
}

/// `num / den`, or `0` when the base is empty.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The samples taken while the host stole no more than [`STEAL_LIMIT`] of the
/// machine's CPU time, or every sample when none was.
///
/// On a virtual machine the hypervisor may run other guests on this one's CPUs.
/// Two ranks that work in lock-step stall whenever either CPU is taken, so a job
/// slows by about twice the stolen share: with 22% stolen a job took 1.9 times
/// as long. Such samples measure the host, not the program.
pub fn undisturbed(samples: &[(f64, f64)]) -> Vec<f64> {
    let clean: Vec<f64> = samples
        .iter()
        .filter(|&&(_, steal)| steal <= STEAL_LIMIT)
        .map(|&(value, _)| value)
        .collect();
    if clean.is_empty() {
        samples.iter().map(|&(value, _)| value).collect()
    } else {
        clean
    }
}

/// The share of `samples` taken while the host stole more than [`STEAL_LIMIT`].
pub fn disturbed_frac(samples: &[(f64, f64)]) -> f64 {
    let disturbed = samples
        .iter()
        .filter(|&&(_, steal)| steal > STEAL_LIMIT)
        .count();
    ratio(disturbed as f64, samples.len() as f64)
}

/// Largest share of CPU time the host may steal while a sample is taken before
/// the sample is set aside.
pub const STEAL_LIMIT: f64 = 0.05;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled order, so sorting is exercised.
        (0..n).map(|i| ((i * 37) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn median_of_odd_and_even_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn p90_needs_a_hundred_samples() {
        assert_eq!(percentile(&ramp(99), 0.9), None);
        assert_eq!(percentile(&ramp(100), 0.9), Some(90.0));
        assert_eq!(percentile(&ramp(250), 0.9), Some(225.0));
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
    }

    #[test]
    fn small_sets_support_no_tail() {
        for n in 0..20 {
            assert_eq!(percentile(&ramp(n), 0.5), None, "n = {n}");
        }
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
    }

    #[test]
    fn disturbed_samples_are_set_aside_unless_all_are() {
        let samples = [(1.0, 0.0), (9.0, 0.3), (2.0, 0.05)];
        assert_eq!(undisturbed(&samples), vec![1.0, 2.0]);
        assert!((disturbed_frac(&samples) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(undisturbed(&[(9.0, 0.3), (8.0, 0.2)]), vec![9.0, 8.0]);
    }

    #[test]
    fn ratio_of_empty_base_is_zero() {
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 2.0), 1.5);
        assert_eq!(max(&[1.0, 4.0, 2.0]), 4.0);
    }
}
