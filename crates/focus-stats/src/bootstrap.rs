//! Bootstrap machinery for the FOCUS qualification procedure (Section 3.4).
//!
//! The question the paper asks is: *is an observed deviation `d` between two
//! datasets large enough that they are unlikely to come from the same
//! generating process?* The answer is obtained by bootstrapping: pool the two
//! datasets, repeatedly resample two pseudo-datasets of the original sizes
//! from the pool (with replacement), recompute the deviation for each
//! replicate, and read off where the observed value falls in that null
//! distribution. The same engine estimates the exact null distribution of
//! the chi-squared statistic when the textbook applicability conditions fail
//! (Section 5.2.2), and calibrates drift-monitor thresholds.
//!
//! [`replicates`] is the one resample-and-evaluate loop: the caller's draw
//! closure resamples (indices, so rows are never cloned) and evaluates one
//! replicate from a per-replicate RNG. [`BootstrapResult::new`] turns the
//! replicate values into the significance the paper reports.

use focus_exec::{derive_seed, map_indices, Parallelism};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Outcome of a bootstrap significance computation.
#[derive(Debug, Clone, PartialEq)]
pub struct BootstrapResult {
    /// The observed statistic (deviation) between the two real datasets.
    pub observed: f64,
    /// The bootstrap null distribution (one value per replicate), sorted
    /// ascending.
    pub null_distribution: Vec<f64>,
    /// Significance as a percentage: `100 · (fraction of null values that are
    /// strictly below the observed value)`. A value of 99 means the observed
    /// deviation exceeds 99% of deviations expected between two datasets
    /// drawn from the same process — the paper's "%sig" columns.
    pub significance_percent: f64,
}

impl BootstrapResult {
    /// Situates `observed` in the null distribution `null` (the replicate
    /// values [`replicates`] returned) and sorts the distribution
    /// ascending.
    ///
    /// # Panics
    ///
    /// If `null` holds a NaN, which [`replicates`] never returns.
    pub fn new(observed: f64, mut null: Vec<f64>) -> Self {
        let significance_percent = significance_percent(observed, &null);
        null.sort_by(|a, b| {
            a.partial_cmp(b)
                .expect("NaN in a bootstrap null distribution")
        });
        Self {
            observed,
            null_distribution: null,
            significance_percent,
        }
    }

    /// True if the observed deviation is significant at level `alpha`
    /// (e.g. `0.05` for 95%).
    pub fn is_significant(&self, alpha: f64) -> bool {
        self.significance_percent >= 100.0 * (1.0 - alpha)
    }
}

/// Runs `reps` bootstrap replicates, fanned out over `par` worker threads,
/// and returns their values in replicate order.
///
/// Replicate `i` hands `draw` its own `StdRng`, seeded from
/// `derive_seed(seed, i)`: its random draws depend only on `(seed, i)` —
/// never on the thread count — so the returned vector is bit-identical
/// whether it was computed on one thread or many.
///
/// # Panics
///
/// If a replicate evaluates to NaN. The panic names the first such
/// replicate and its derived seed, so the failing resample can be
/// reproduced; a NaN would otherwise make the null distribution
/// unorderable.
pub fn replicates<F>(reps: usize, seed: u64, par: Parallelism, draw: F) -> Vec<f64>
where
    F: Fn(&mut StdRng) -> f64 + Sync,
{
    let null = map_indices(par, reps, |rep| {
        draw(&mut StdRng::seed_from_u64(derive_seed(seed, rep as u64)))
    });
    if let Some(rep) = null.iter().position(|v| v.is_nan()) {
        panic!(
            "bootstrap replicate {rep} (seed {}) produced a NaN statistic; \
             the pipeline must return finite values",
            derive_seed(seed, rep as u64)
        );
    }
    null
}

/// Computes the paper's "%sig" number: the percentage of null values that
/// fall strictly below the observed statistic.
///
/// `null` need not be sorted.
pub fn significance_percent(observed: f64, null: &[f64]) -> f64 {
    if null.is_empty() {
        return 0.0;
    }
    let below = null.iter().filter(|&&v| v < observed).count();
    100.0 * below as f64 / null.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::describe::mean;
    use rand::Rng;

    /// A two-sample mean-difference replicate over a pooled grid, drawn
    /// as index resamples.
    fn mean_gap(pool: &[f64], n1: usize, n2: usize) -> impl Fn(&mut StdRng) -> f64 + Sync + '_ {
        move |rng| {
            let mut draw = |n: usize| -> Vec<f64> {
                (0..n).map(|_| pool[rng.gen_range(0..pool.len())]).collect()
            };
            let (a, b) = (draw(n1), draw(n2));
            (mean(&a) - mean(&b)).abs()
        }
    }

    #[test]
    fn null_distribution_is_deterministic_per_seed() {
        let pool: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let r1 = replicates(50, 1, Parallelism::Global, mean_gap(&pool, 30, 30));
        let r2 = replicates(50, 1, Parallelism::Global, mean_gap(&pool, 30, 30));
        let r3 = replicates(50, 2, Parallelism::Global, mean_gap(&pool, 30, 30));
        assert_eq!(r1, r2);
        assert_ne!(r1, r3);
    }

    #[test]
    fn null_distribution_is_thread_count_invariant() {
        // The per-replicate seeding makes the null distribution (in
        // replicate order) bit-identical for every worker-thread count.
        let pool: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let seq = replicates(33, 9, Parallelism::Sequential, mean_gap(&pool, 40, 25));
        for t in [2usize, 4, 7] {
            let par = replicates(33, 9, Parallelism::Threads(t), mean_gap(&pool, 40, 25));
            assert_eq!(seq, par, "threads = {t}");
        }
    }

    #[test]
    fn same_process_deviation_is_not_significant() {
        // Both datasets drawn from the same uniform grid: the observed mean
        // difference should be unremarkable under the bootstrap null.
        let d1: Vec<f64> = (0..200).map(|i| (i % 20) as f64).collect();
        let d2: Vec<f64> = (0..200).map(|i| ((i + 7) % 20) as f64).collect();
        let observed = (mean(&d1) - mean(&d2)).abs();
        let pool: Vec<f64> = d1.iter().chain(&d2).copied().collect();
        let null = replicates(199, 42, Parallelism::Global, mean_gap(&pool, 200, 200));
        let r = BootstrapResult::new(observed, null);
        assert!(!r.is_significant(0.05), "sig = {}", r.significance_percent);
    }

    #[test]
    fn shifted_process_is_significant() {
        let d1: Vec<f64> = (0..200).map(|i| (i % 20) as f64).collect();
        let d2: Vec<f64> = (0..200).map(|i| (i % 20) as f64 + 25.0).collect();
        let observed = (mean(&d1) - mean(&d2)).abs();
        let pool: Vec<f64> = d1.iter().chain(&d2).copied().collect();
        let null = replicates(199, 42, Parallelism::Global, mean_gap(&pool, 200, 200));
        let r = BootstrapResult::new(observed, null);
        assert!(r.is_significant(0.01), "sig = {}", r.significance_percent);
        assert_eq!(r.significance_percent, 100.0);
    }

    #[test]
    fn significance_percent_counts_strictly_below() {
        let null = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(significance_percent(2.5, &null), 50.0);
        assert_eq!(significance_percent(0.0, &null), 0.0);
        assert_eq!(significance_percent(10.0, &null), 100.0);
        // Ties are not counted as "below".
        assert_eq!(significance_percent(3.0, &null), 50.0);
    }

    #[test]
    fn null_distribution_is_sorted_in_result() {
        let r = BootstrapResult::new(2.5, vec![3.0, 1.0, 4.0, 2.0]);
        assert_eq!(r.null_distribution, vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(r.significance_percent, 50.0);
    }

    #[test]
    #[should_panic(expected = "bootstrap replicate 0 (seed")]
    fn nan_replicate_is_named() {
        replicates(4, 7, Parallelism::Sequential, |_| f64::NAN);
    }
}
