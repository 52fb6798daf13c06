//! Word-boundary coverage for the vertical tid-bitset index.
//!
//! Every counting kernel on the index walks `u64` words with a ragged
//! tail: `n_transactions % 64` live bits in the last word, the rest
//! required to be zero — in every item row and in every intersection
//! mask. An off-by-one at a word boundary would silently inflate
//! popcounts, so this suite sweeps transaction counts *at* the
//! boundaries — `{63, 64, 65, 127, 128, 129}` — and pins
//! [`VerticalIndex::support_count`], [`VerticalIndex::count_with_mask`],
//! [`VerticalIndex::intersect_into`] and the grouped counter against a
//! from-scratch naive scan, directed and property-tested.

use focus::core::prelude::*;
use focus::exec::Parallelism;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The transaction counts under test: one each side of the 1- and 2-word
/// boundaries plus the exact multiples.
const BOUNDARY_NS: [usize; 6] = [63, 64, 65, 127, 128, 129];

fn random_transactions(n: usize, n_items: u32, density: f64, seed: u64) -> TransactionSet {
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

/// Naive reference support: merge-walk subset test per transaction.
fn naive_support(data: &TransactionSet, items: &[u32]) -> u64 {
    data.iter()
        .filter(|t| {
            let mut it = t.iter();
            items.iter().all(|x| it.any(|y| y == x))
        })
        .count() as u64
}

/// Bits at positions `≥ n_transactions` must be zero in `words`.
fn assert_tail_zero(words: &[u64], n_transactions: usize, what: &str) {
    let live: u32 = words.iter().map(|w| w.count_ones()).sum();
    let mut masked = words.to_vec();
    let tail = n_transactions % 64;
    if tail != 0 {
        if let Some(last) = masked.last_mut() {
            *last &= (1u64 << tail) - 1;
        }
    }
    let live_masked: u32 = masked.iter().map(|w| w.count_ones()).sum();
    assert_eq!(live, live_masked, "{what}: bits set past n_transactions");
}

/// Every index entry point, against the naive scan, for one dataset.
fn check_index(data: &TransactionSet, index: &VerticalIndex, what: &str) {
    let n = data.len();
    let n_items = data.n_items();
    // Row storage honours the tail.
    for it in 0..n_items {
        assert_tail_zero(index.item_bits(it), n, what);
        assert_eq!(
            index.item_support(it),
            naive_support(data, &[it]),
            "{what}: item_support({it})"
        );
    }
    // support_count over singles, pairs, a triple, the empty itemset, and
    // an out-of-range probe.
    let mut probes: Vec<Vec<u32>> = (0..n_items).map(|i| vec![i]).collect();
    for a in 0..n_items {
        for b in (a + 1)..n_items {
            probes.push(vec![a, b]);
        }
    }
    if n_items >= 3 {
        probes.push(vec![0, 1, 2]);
    }
    probes.push(vec![]);
    probes.push(vec![n_items + 5]);
    let mut mask = Vec::new();
    for p in &probes {
        let want = if p.iter().any(|&it| it >= n_items) {
            0
        } else {
            naive_support(data, p)
        };
        assert_eq!(
            index.support_count(p, Parallelism::Sequential),
            want,
            "{what}: support_count({p:?})"
        );
        // intersect_into materialises the same cover (tail zeroed), and
        // count_with_mask extends it exactly like a direct count.
        let in_range = index.intersect_into(p, &mut mask);
        assert_eq!(
            in_range,
            !p.iter().any(|&it| it >= n_items),
            "{what}: {p:?}"
        );
        assert_tail_zero(&mask, n, what);
        if in_range {
            assert_eq!(
                mask.iter().map(|w| u64::from(w.count_ones())).sum::<u64>(),
                want,
                "{what}: intersect_into({p:?}) popcount"
            );
            for ext in 0..n_items {
                let mut extended = p.clone();
                if !extended.contains(&ext) {
                    extended.push(ext);
                    extended.sort_unstable();
                }
                assert_eq!(
                    index.count_with_mask(&mask, ext),
                    naive_support(data, &extended),
                    "{what}: count_with_mask({p:?} + {ext})"
                );
            }
        }
    }
    // The grouped batch counter agrees wholesale.
    let itemsets: Vec<Itemset> = probes.iter().map(|p| Itemset::from_slice(p)).collect();
    let want: Vec<u64> = probes
        .iter()
        .map(|p| {
            if p.is_empty() {
                n as u64
            } else if p.iter().any(|&it| it >= n_items) {
                0
            } else {
                naive_support(data, p)
            }
        })
        .collect();
    assert_eq!(
        count_itemsets_grouped(index, &itemsets),
        want,
        "{what}: grouped counts"
    );
}

#[test]
fn directed_boundary_sweep() {
    // Deterministic datasets at every boundary width, sparse and dense.
    for (i, &n) in BOUNDARY_NS.iter().enumerate() {
        for density in [0.2f64, 0.7] {
            let data = random_transactions(n, 6, density, 1000 + i as u64);
            let index = VerticalIndex::build(&data);
            check_index(&data, &index, &format!("n={n} density={density}"));
        }
    }
}

#[test]
fn all_and_none_items_at_every_boundary() {
    // Item 0 in every transaction, item 1 in none, item 2 alternating:
    // the extreme rows where a tail-bit error is most visible (an
    // all-ones row is live up to exactly the tail).
    for &n in &BOUNDARY_NS {
        let mut data = TransactionSet::new(3);
        for t in 0..n {
            let mut txn = vec![0u32];
            if t % 2 == 0 {
                txn.push(2);
            }
            data.push(txn);
        }
        let index = VerticalIndex::build(&data);
        assert!(
            index.item_bits(1).iter().all(|&w| w == 0),
            "n={n}: the never-present item's row must be empty, tail included"
        );
        check_index(&data, &index, &format!("n={n} extremes"));
        assert_eq!(index.item_support(0), n as u64);
        assert_eq!(index.item_support(1), 0);
        assert_eq!(index.item_support(2), n.div_ceil(2) as u64);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Random data at the word boundaries: every entry point,
    /// naive-scan agreement, trailing bits zero.
    #[test]
    fn boundary_counting_matches_naive(which in 0usize..6,
                                       n_items in 3u32..8,
                                       density in 0.1f64..0.9,
                                       seed in 0u64..1_000_000) {
        let n = BOUNDARY_NS[which];
        let data = random_transactions(n, n_items, density, seed);
        check_index(&data, &VerticalIndex::build(&data), "proptest");
    }
}
