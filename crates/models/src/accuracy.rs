//! Mixture accuracy.
//!
//! The paper defines the service's overall accuracy as "the weighted average
//! accuracy of requests served by each model variant" (Sec. 3). This module
//! computes that weighting from served counts; the capacity-proportional
//! prediction ORACLE's offline profiling and the optimizer's pre-filter use
//! is `clover_serving::analytic::estimate`'s `accuracy_pct`.

use crate::variant::ModelFamily;

/// Weighted-average accuracy of requests served per variant, percent.
/// `served` yields one count per variant in ordinal order (the `i`-th is
/// `VariantId(i)`'s), the layout of the simulator's and the run roll-ups'
/// dense counters. Integer counts are exact in `f64` below 2⁵³.
///
/// Returns `None` when nothing was served.
pub fn served_weighted_accuracy(
    family: &ModelFamily,
    served: impl IntoIterator<Item = f64>,
) -> Option<f64> {
    let mut total = 0.0;
    let mut weighted = 0.0;
    for (variant, n) in family.variants.iter().zip(served) {
        total += n;
        weighted += variant.accuracy_pct * n;
    }
    (total > 0.0).then(|| weighted / total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::zoo::efficientnet;

    #[test]
    fn served_weighting() {
        let fam = efficientnet();
        // 3 parts B1 (79.1), 1 part B7 (84.3).
        let acc = served_weighted_accuracy(&fam, [300.0, 0.0, 0.0, 100.0]).unwrap();
        let expected = (79.1 * 300.0 + 84.3 * 100.0) / 400.0;
        assert!((acc - expected).abs() < 1e-12);
    }

    #[test]
    fn empty_counts_are_none() {
        let fam = efficientnet();
        assert_eq!(served_weighted_accuracy(&fam, []), None);
        assert_eq!(served_weighted_accuracy(&fam, vec![0.0; fam.len()]), None);
    }
}
