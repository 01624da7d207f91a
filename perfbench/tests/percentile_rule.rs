//! The tail-percentile rule: report the highest percentile that still has
//! at least ten samples beyond it.

use perfbench::stats::{highest_supported, percentile_sorted, samples_beyond, supports, P99};

#[test]
fn ten_samples_beyond_is_the_threshold() {
    assert_eq!(samples_beyond(1000, 9900), 10);
    assert!(supports(1000, P99));
    assert!(!supports(999, P99));
    assert_eq!(samples_beyond(100, 9000), 10);
    assert!(!supports(99, 9000));
}

#[test]
fn highest_supported_percentile_grows_with_samples() {
    assert_eq!(highest_supported(99), None);
    assert_eq!(highest_supported(100), Some(9000));
    assert_eq!(highest_supported(199), Some(9000));
    assert_eq!(highest_supported(200), Some(9500));
    assert_eq!(highest_supported(999), Some(9500));
    assert_eq!(highest_supported(1000), Some(9900));
    assert_eq!(highest_supported(9_999), Some(9900));
    assert_eq!(highest_supported(10_000), Some(9990));
    assert_eq!(highest_supported(100_000), Some(9999));
    assert_eq!(highest_supported(10_000_000), Some(9999));
}

#[test]
fn p99_of_a_thousand_samples_leaves_ten_above_it() {
    let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
    let p99 = percentile_sorted(&sorted, P99);
    assert_eq!(p99, 990.0);
    assert_eq!(sorted.iter().filter(|&&x| x > p99).count(), 10);
}
