//! Cross-implementation differential testing of support counting.
//!
//! The workspace carries three independent ways to count how many
//! transactions contain an itemset:
//!
//! 1. **naive subset counting** — the textbook double loop, written out
//!    here from scratch so it shares no code with any backend;
//! 2. the **horizontal scan** ([`count_itemsets_par`]) — per-transaction
//!    bitmap containment, the arm the cost model picks for small
//!    workloads;
//! 3. the **grouped tid-bitset index** ([`VerticalIndex`] counted through
//!    [`count_itemsets_grouped`], Eclat-style: one ANDed prefix mask per
//!    run of sibling itemsets, one masked popcount per member) — the arm
//!    the cost model picks for large workloads.
//!
//! Each implementation has a different traversal order and data-structure
//! shape, so a bug in any one of them (bitmap containment, bitset
//! intersection, prefix-run grouping) is unlikely to be mirrored by the
//! others. The first property demands **three-way agreement**, plus
//! agreement with the supports the Apriori miner recorded, on
//! proptest-generated transaction sets at every itemset length the miner
//! produced. The second demands that the miner produces the identical
//! model under the cost model ([`CountBackend::Auto`]) and under the
//! forced DFS scan ([`CountBackend::Dfs`]), on a shape where the cost
//! model is pinned to pick the index. The third pins the [`CountSource`]
//! dispatch seam: the auto-dispatching handle, a budget-0 handle (forced
//! horizontal) and the index counted directly must return `u64`-identical
//! counts no matter which side of the cost model's gate the workload
//! lands on.

use focus::core::prelude::*;
use focus::exec::Parallelism;
use focus::mining::{Apriori, AprioriParams, CountBackend};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Naive reference: for each candidate, scan every transaction and test
/// subset inclusion by merge-walking the two sorted item lists.
fn naive_counts(data: &TransactionSet, candidates: &[Vec<u32>]) -> Vec<u64> {
    fn is_subset(sub: &[u32], sup: &[u32]) -> bool {
        let mut it = sup.iter();
        sub.iter().all(|x| it.any(|y| y == x))
    }
    candidates
        .iter()
        .map(|c| data.iter().filter(|t| is_subset(c, t)).count() as u64)
        .collect()
}

fn random_data(seed: u64, n: usize, n_items: u32, density: f64) -> TransactionSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut data = TransactionSet::new(n_items);
    for _ in 0..n {
        let t: Vec<u32> = (0..n_items)
            .filter(|_| rng.gen::<f64>() < density)
            .collect();
        data.push(t);
    }
    data
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Three-way agreement: naive ≡ horizontal scan ≡ grouped index, and
    /// all three ≡ the miner's recorded supports, for every level the
    /// miner produced, on random transaction data.
    #[test]
    fn counting_backends_agree_three_ways(seed in 0u64..1_000_000,
                                          n in 30usize..200,
                                          n_items in 4u32..12,
                                          density in 0.15f64..0.8,
                                          minsup in 0.05f64..0.4) {
        let data = random_data(seed, n, n_items, density);
        let model = Apriori::new(AprioriParams::with_minsup(minsup).max_len(5)).mine(&data);
        prop_assume!(!model.is_empty());
        let n_txn = model.n_transactions() as f64;
        let vindex = VerticalIndex::build(&data);

        let max_len = model.itemsets().iter().map(|s| s.len()).max().unwrap();
        for k in 1..=max_len {
            let level: Vec<(Vec<u32>, f64)> = model
                .itemsets()
                .iter()
                .zip(model.supports())
                .filter(|(s, _)| s.len() == k)
                .map(|(s, &sup)| (s.items().to_vec(), sup))
                .collect();
            if level.is_empty() {
                continue;
            }
            let candidates: Vec<Vec<u32>> = level.iter().map(|(c, _)| c.clone()).collect();
            let naive = naive_counts(&data, &candidates);

            for (i, (cand, sup)) in level.iter().enumerate() {
                // The miner stores count / n exactly (one f64 division),
                // so the product recovers the integer count exactly.
                let apriori_count = (sup * n_txn).round() as u64;
                prop_assert_eq!(apriori_count, naive[i],
                                "apriori vs naive for {:?} at level {}", cand, k);
            }

            let itemsets: Vec<Itemset> = candidates
                .iter()
                .map(|c| Itemset::from_slice(c))
                .collect();
            let horizontal = count_itemsets_par(&data, &itemsets, Parallelism::Global);
            prop_assert_eq!(&horizontal, &naive, "horizontal scan vs naive at level {}", k);
            let grouped = count_itemsets_grouped(&vindex, &itemsets);
            prop_assert_eq!(&grouped, &naive, "grouped index vs naive at level {}", k);
            // …and vs the horizontal scan, so the index is pinned against
            // a second independent witness rather than one anchor.
            prop_assert_eq!(&grouped, &horizontal,
                            "grouped index vs horizontal scan at level {}", k);
        }
    }

    /// The Apriori miner must produce the identical model — itemsets,
    /// supports, transaction count — under the cost model and under the
    /// forced DFS scan. The dense shape is chosen so every item is
    /// frequent, and the test pins that the cost model builds the index
    /// for level 2: the index-counted levels are what `Auto` is checked
    /// on. A sparse dataset drawn alongside covers the DFS-only path.
    #[test]
    fn apriori_backends_mine_identical_models(seed in 0u64..1_000_000,
                                              n in 100usize..300,
                                              n_items in 6u32..12,
                                              density in 0.3f64..0.6,
                                              minsup in 0.02f64..0.1) {
        let dense = random_data(seed, n, n_items, density);
        let sparse = random_data(seed ^ 0x5eed, n / 3, n_items, density / 3.0);
        let params = AprioriParams::with_minsup(minsup).max_len(4);
        for data in [&dense, &sparse] {
            let reference = Apriori::new(params.backend(CountBackend::Dfs)).mine(data);
            let auto = Apriori::new(params).mine(data);
            prop_assert_eq!(&auto, &reference);
        }

        // Level 2 joins every pair of frequent items.
        let reference = Apriori::new(params.backend(CountBackend::Dfs)).mine(&dense);
        let f1 = reference.itemsets().iter().filter(|s| s.len() == 1).count();
        prop_assert_eq!(f1, n_items as usize, "every item should be frequent");
        prop_assert!(
            prefers_index(
                f1 * (f1 - 1),
                dense.len(),
                dense.n_items(),
                dense.total_items(),
                global_index_budget(),
            ),
            "the cost model must pick the index for level 2 of this shape"
        );
    }

    /// Cost-model dispatch witness: whichever arm the auto-dispatching
    /// [`CountSource`] picks for this workload, its counts are
    /// `u64`-identical to both forced extremes — a budget-0 handle that can
    /// never build an index (pure horizontal scan) and the grouped index
    /// counted directly (pure vertical popcounts). The same agreement is
    /// re-demanded of the mined models above, so the dispatch seam cannot
    /// smuggle in a count difference at any layer.
    #[test]
    fn cost_model_dispatch_agrees_with_forced_backends(seed in 0u64..1_000_000,
                                                       n in 30usize..300,
                                                       n_items in 4u32..12,
                                                       density in 0.15f64..0.5,
                                                       minsup in 0.05f64..0.4) {
        let data = random_data(seed, n, n_items, density);
        let model = Apriori::new(AprioriParams::with_minsup(minsup).max_len(5)).mine(&data);
        prop_assume!(!model.is_empty());

        // Budgets are pinned per handle so a concurrently running test
        // cannot skew the dispatch through the process-wide knob.
        let auto = CountSource::borrowed(&data).with_index_budget(DEFAULT_INDEX_BUDGET);
        let forced_horizontal = CountSource::borrowed(&data).with_index_budget(0);

        let reference = forced_horizontal.counts(model.itemsets(), Parallelism::Global);
        prop_assert!(!forced_horizontal.index_built(), "budget 0 must never build an index");
        prop_assert_eq!(&auto.counts(model.itemsets(), Parallelism::Global), &reference,
                        "auto vs forced horizontal");
        prop_assert_eq!(
            &count_itemsets_grouped_par(
                &VerticalIndex::build(&data),
                model.itemsets(),
                Parallelism::Global,
            ),
            &reference,
            "forced index vs forced horizontal"
        );
    }
}
