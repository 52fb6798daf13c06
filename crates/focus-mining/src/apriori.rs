//! The Apriori algorithm: level-wise frequent-itemset mining.
//!
//! Level `k` proceeds in three steps:
//! 1. **candidate generation** — join pairs of frequent `(k−1)`-itemsets
//!    sharing a `(k−2)`-prefix;
//! 2. **candidate pruning** — drop candidates with an infrequent
//!    `(k−1)`-subset (downward closure);
//! 3. **support counting** — one dataset scan; per transaction, enumerate
//!    exactly the candidate itemsets it contains by a depth-first walk that
//!    only extends prefixes of surviving candidates.
//!
//! The prefix-guided walk keeps counting polynomial in the number of
//! candidates rather than in `C(|t|, k)` — the practical trick that replaces
//! the original paper's hash tree.
//!
//! Step 3 runs on one of the two arms of the counting engine
//! ([`CountBackend`]). Under the default [`CountBackend::Auto`] the cost
//! model of [`focus_core::source`] is consulted once per level, and the
//! first level whose projected scan cost favours the vertical tid-bitset
//! index ([`focus_core::vertical`]) builds it; that level and every later
//! one count through the batched prefix-run kernel
//! ([`count_itemsets_grouped`]) — one cached `(k−1)`-prefix mask per
//! candidate run, one masked popcount per extension. Both arms produce
//! identical `u64` counts, hence identical mined models.

use focus_core::data::TransactionSet;
use focus_core::model::LitsModel;
use focus_core::region::Itemset;
use focus_core::source::{global_index_budget, prefers_index};
use focus_core::vertical::{count_itemsets_grouped, VerticalIndex};
use focus_exec::{map_chunks, merge_counts, Parallelism};
use std::collections::{HashMap, HashSet};

/// Minimum transactions per worker chunk for the counting scans.
const SCAN_GRAIN: usize = focus_exec::DEFAULT_GRAIN;

/// Which arm of the counting engine the miner uses for candidate levels.
///
/// Both arms count the same thing and are parity-tested to agree exactly,
/// so the mined model is backend-independent; they differ only in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CountBackend {
    /// Cost-model dispatch (the default): each level asks
    /// [`focus_core::source::prefers_index`] whether the projected
    /// candidate workload amortises building the vertical index (within the
    /// process-wide index budget); until a build wins, levels count with
    /// the DFS scan. The decision depends only on data shape and workload —
    /// never thread count or timing — so the chosen arm sequence, and hence
    /// the mined model, is identical on every run.
    #[default]
    Auto,
    /// Forced horizontal: every level counts with the prefix-guided DFS
    /// scan. The reference the differential tests compare `Auto` against.
    Dfs,
}

/// Tuning parameters for the miner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AprioriParams {
    /// Minimum support as a fraction of the number of transactions
    /// (the paper's `ms`, e.g. `0.01` for 1%).
    pub minsup: f64,
    /// Optional cap on itemset length (`None` = unbounded, the classical
    /// algorithm). Useful to bound exploratory runs.
    pub max_len: Option<usize>,
    /// Absolute floor on the supporting-transaction count (default 1, the
    /// classical semantics). On very small datasets a fractional threshold
    /// can collapse to "1 transaction suffices", at which point *every*
    /// subset of every transaction is frequent and the lattice explodes
    /// combinatorially; setting the floor to 2+ keeps tiny-sample runs
    /// (e.g. a 1% sample of an already-scaled-down dataset) well-posed.
    pub min_count_floor: u64,
    /// Worker threads for the support-counting scans (default
    /// [`Parallelism::Global`]). Mined models are bit-identical for every
    /// setting: per-chunk transaction counts merge by `u64` addition.
    pub parallelism: Parallelism,
    /// Support-counting backend for candidate levels (default
    /// [`CountBackend::Auto`]). Mined models are backend-independent.
    pub backend: CountBackend,
}

impl AprioriParams {
    /// Parameters with the given minimum support and no length cap.
    pub fn with_minsup(minsup: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&minsup) && minsup > 0.0,
            "minsup must be in (0, 1], got {minsup}"
        );
        Self {
            minsup,
            max_len: None,
            min_count_floor: 1,
            parallelism: Parallelism::Global,
            backend: CountBackend::Auto,
        }
    }

    /// Caps the maximum itemset length.
    pub fn max_len(mut self, len: usize) -> Self {
        assert!(len >= 1);
        self.max_len = Some(len);
        self
    }

    /// Sets the absolute supporting-count floor (see
    /// [`AprioriParams::min_count_floor`]).
    pub fn min_count_floor(mut self, floor: u64) -> Self {
        assert!(floor >= 1);
        self.min_count_floor = floor;
        self
    }

    /// Sets the worker-thread policy for the support-counting scans.
    pub fn parallelism(mut self, par: Parallelism) -> Self {
        self.parallelism = par;
        self
    }

    /// Sets the support-counting backend for candidate levels.
    pub fn backend(mut self, backend: CountBackend) -> Self {
        self.backend = backend;
        self
    }
}

/// The Apriori miner.
#[derive(Debug, Clone)]
pub struct Apriori {
    params: AprioriParams,
}

impl Apriori {
    /// Creates a miner with the given parameters.
    pub fn new(params: AprioriParams) -> Self {
        Self { params }
    }

    /// Mines the frequent itemsets of `data` and returns them as a
    /// [`LitsModel`] (itemsets + supports + the mining threshold).
    pub fn mine(&self, data: &TransactionSet) -> LitsModel {
        let n = data.len();
        if n == 0 {
            return LitsModel::new(Vec::new(), Vec::new(), self.params.minsup, 0);
        }
        // ceil(minsup · n) supporting transactions required.
        let min_count = ((self.params.minsup * n as f64).ceil().max(1.0) as u64)
            .max(self.params.min_count_floor);

        let mut all_frequent: Vec<(Itemset, u64)> = Vec::new();

        // Level 1: per-item counts, a plain array count over transaction
        // chunks merged by addition.
        let item_counts = merge_counts(map_chunks(
            self.params.parallelism,
            data.len(),
            SCAN_GRAIN,
            |range| {
                let mut counts = vec![0u64; data.n_items() as usize];
                for t in range {
                    for &it in data.get(t) {
                        counts[it as usize] += 1;
                    }
                }
                counts
            },
        ));
        let mut frontier: Vec<Itemset> = Vec::new();
        for (it, &c) in item_counts.iter().enumerate() {
            if c >= min_count {
                let single = Itemset::new(vec![it as u32]);
                frontier.push(single.clone());
                all_frequent.push((single, c));
            }
        }

        // Auto builds the index the first level whose candidate workload
        // amortises it; once built it serves every later level (this loop
        // is strictly sequential, so consulting the already-built state
        // stays deterministic). The index budget is snapshotted once so a
        // concurrent `set_global_index_budget` cannot split one run's
        // decisions.
        let budget = global_index_budget();
        let mut vindex: Option<VerticalIndex> = None;
        let mut k = 2usize;
        while !frontier.is_empty() {
            if let Some(cap) = self.params.max_len {
                if k > cap {
                    break;
                }
            }
            let candidates = generate_candidates(&frontier);
            if candidates.is_empty() {
                break;
            }
            if self.params.backend == CountBackend::Auto
                && vindex.is_none()
                && prefers_index(
                    candidates.len() * k,
                    n,
                    data.n_items(),
                    data.total_items(),
                    budget,
                )
            {
                vindex = Some(VerticalIndex::build(data));
            }
            let counts = match &vindex {
                Some(idx) => count_itemsets_grouped(idx, &candidates, self.params.parallelism),
                None => count_candidates(data, &candidates, k, self.params.parallelism),
            };
            let mut next: Vec<Itemset> = Vec::new();
            for (cand, count) in candidates.into_iter().zip(counts) {
                if count >= min_count {
                    all_frequent.push((cand.clone(), count));
                    next.push(cand);
                }
            }
            frontier = next;
            k += 1;
        }

        let (itemsets, counts): (Vec<Itemset>, Vec<u64>) = all_frequent.into_iter().unzip();
        let supports = counts.iter().map(|&c| c as f64 / n as f64).collect();
        LitsModel::new(itemsets, supports, self.params.minsup, n as u64)
    }
}

/// Join + prune: candidates of size `k` from frequent itemsets of size
/// `k − 1`, returned sorted.
fn generate_candidates(frequent: &[Itemset]) -> Vec<Itemset> {
    let freq_set: HashSet<&[u32]> = frequent.iter().map(Itemset::items).collect();
    // Frequent itemsets are sorted lexicographically so prefix-sharing pairs
    // are adjacent runs.
    let mut sorted: Vec<&[u32]> = frequent.iter().map(Itemset::items).collect();
    sorted.sort();
    let mut out = Vec::new();
    let k1 = match sorted.first() {
        Some(v) => v.len(),
        None => return out,
    };
    let mut start = 0;
    while start < sorted.len() {
        // Run of itemsets sharing the first k1−1 items.
        let prefix = &sorted[start][..k1 - 1];
        let mut end = start + 1;
        while end < sorted.len() && &sorted[end][..k1 - 1] == prefix {
            end += 1;
        }
        for i in start..end {
            for j in (i + 1)..end {
                let mut cand = sorted[i].to_vec();
                cand.push(*sorted[j].last().expect("non-empty itemset"));
                // Downward-closure prune: every (k−1)-subset frequent.
                if all_subsets_frequent(&cand, &freq_set) {
                    out.push(Itemset::new(cand));
                }
            }
        }
        start = end;
    }
    out.sort();
    out
}

/// True if every subset of `cand` missing one element is in `freq_set`.
fn all_subsets_frequent(cand: &[u32], freq_set: &HashSet<&[u32]>) -> bool {
    let mut sub: Vec<u32> = Vec::with_capacity(cand.len() - 1);
    for skip in 0..cand.len() {
        sub.clear();
        sub.extend(
            cand.iter()
                .enumerate()
                .filter(|(i, _)| *i != skip)
                .map(|(_, &x)| x),
        );
        if !freq_set.contains(sub.as_slice()) {
            return false;
        }
    }
    true
}

/// One scan of the data, counting every candidate of size `k`, with the
/// transaction range fanned out over `par` worker threads.
///
/// For each transaction a DFS enumerates its subsets of size `k`, extending
/// a partial itemset only while it remains a prefix of some candidate. The
/// candidate index and prefix set are built once and shared read-only; each
/// chunk tallies into its own counter vector, merged by `u64` addition, so
/// the counts are bit-identical to a sequential scan.
fn count_candidates(
    data: &TransactionSet,
    candidates: &[Itemset],
    k: usize,
    par: Parallelism,
) -> Vec<u64> {
    // Index of each full candidate, plus the set of all proper prefixes.
    let mut index: HashMap<&[u32], usize> = HashMap::with_capacity(candidates.len());
    let mut prefixes: HashSet<&[u32]> = HashSet::new();
    for (i, c) in candidates.iter().enumerate() {
        let c = c.items();
        index.insert(c, i);
        for plen in 1..k {
            prefixes.insert(&c[..plen]);
        }
    }
    // Items that appear in at least one candidate: transactions are filtered
    // to these before enumeration.
    let active: HashSet<u32> = candidates
        .iter()
        .flat_map(|c| c.items().iter().copied())
        .collect();

    let (index, prefixes, active) = (&index, &prefixes, &active);
    let parts = map_chunks(par, data.len(), SCAN_GRAIN, |range| {
        let mut counts = vec![0u64; candidates.len()];
        let mut filtered: Vec<u32> = Vec::new();
        let mut stack: Vec<u32> = Vec::with_capacity(k);
        for t in range {
            filtered.clear();
            filtered.extend(data.get(t).iter().copied().filter(|it| active.contains(it)));
            if filtered.len() < k {
                continue;
            }
            dfs_count(&filtered, k, &mut stack, index, prefixes, &mut counts);
        }
        counts
    });
    if parts.is_empty() {
        return vec![0u64; candidates.len()];
    }
    merge_counts(parts)
}

fn dfs_count(
    items: &[u32],
    k: usize,
    stack: &mut Vec<u32>,
    index: &HashMap<&[u32], usize>,
    prefixes: &HashSet<&[u32]>,
    counts: &mut [u64],
) {
    let need = k - stack.len();
    if items.len() < need {
        return;
    }
    for (pos, &it) in items.iter().enumerate() {
        if items.len() - pos < need {
            break;
        }
        stack.push(it);
        if stack.len() == k {
            if let Some(&i) = index.get(stack.as_slice()) {
                counts[i] += 1;
            }
        } else if prefixes.contains(stack.as_slice()) {
            dfs_count(&items[pos + 1..], k, stack, index, prefixes, counts);
        }
        stack.pop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use focus_core::model::count_itemsets;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(rows: &[&[u32]], n_items: u32) -> TransactionSet {
        let mut ts = TransactionSet::new(n_items);
        for r in rows {
            ts.push(r.to_vec());
        }
        ts
    }

    #[test]
    fn textbook_example() {
        // The classic Agrawal–Srikant toy dataset.
        let data = dataset(&[&[0, 2, 3], &[1, 2, 4], &[0, 1, 2, 4], &[1, 4]], 5);
        // minsup 50% → min_count 2.
        let m = Apriori::new(AprioriParams::with_minsup(0.5)).mine(&data);
        let expect = |items: &[u32], sup: f64| {
            let got = m
                .support_of(&Itemset::from_slice(items))
                .unwrap_or_else(|| panic!("{items:?} should be frequent"));
            assert!((got - sup).abs() < 1e-12, "{items:?}: {got} vs {sup}");
        };
        expect(&[0], 0.5);
        expect(&[1], 0.75);
        expect(&[2], 0.75);
        expect(&[4], 0.75);
        expect(&[0, 2], 0.5);
        expect(&[1, 2], 0.5);
        expect(&[1, 4], 0.75);
        expect(&[2, 4], 0.5);
        expect(&[1, 2, 4], 0.5);
        // {3} has support 0.25 — infrequent.
        assert!(m.support_of(&Itemset::from_slice(&[3])).is_none());
        assert_eq!(m.len(), 9);
    }

    #[test]
    fn empty_dataset() {
        let data = TransactionSet::new(4);
        let m = Apriori::new(AprioriParams::with_minsup(0.1)).mine(&data);
        assert!(m.is_empty());
        assert_eq!(m.n_transactions(), 0);
    }

    #[test]
    fn minsup_one_keeps_only_universal_items() {
        let data = dataset(&[&[0, 1], &[0, 2], &[0]], 3);
        let m = Apriori::new(AprioriParams::with_minsup(1.0)).mine(&data);
        assert_eq!(m.len(), 1);
        assert_eq!(m.support_of(&Itemset::from_slice(&[0])), Some(1.0));
    }

    #[test]
    fn max_len_caps_levels() {
        let rows: Vec<&[u32]> = vec![&[0, 1, 2]; 10];
        let data = dataset(&rows, 3);
        let m = Apriori::new(AprioriParams::with_minsup(0.5).max_len(2)).mine(&data);
        // 3 singletons + 3 pairs, no triple.
        assert_eq!(m.len(), 6);
        assert!(m.support_of(&Itemset::from_slice(&[0, 1, 2])).is_none());
    }

    /// Exhaustive reference miner for small universes.
    fn brute_force(data: &TransactionSet, minsup: f64) -> Vec<(Itemset, f64)> {
        let n_items = data.n_items();
        assert!(n_items <= 16);
        let all: Vec<Itemset> = (1u32..(1 << n_items))
            .map(|mask| Itemset::new((0..n_items).filter(|i| mask & (1 << i) != 0).collect()))
            .collect();
        let counts = count_itemsets(data, &all, Parallelism::Global);
        let n = data.len() as f64;
        let min_count = (minsup * n).ceil().max(1.0) as u64;
        let mut out: Vec<(Itemset, f64)> = all
            .into_iter()
            .zip(counts)
            .filter(|(_, c)| *c >= min_count)
            .map(|(s, c)| (s, c as f64 / n))
            .collect();
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }

    #[test]
    fn agrees_with_brute_force_on_random_data() {
        let mut rng = StdRng::seed_from_u64(2024);
        for trial in 0..10 {
            let mut data = TransactionSet::new(8);
            let n = 60 + trial * 10;
            for _ in 0..n {
                let mut t = Vec::new();
                for item in 0..8u32 {
                    // Skewed inclusion probabilities create multi-level
                    // frequent itemsets.
                    if rng.gen::<f64>() < 0.55 - item as f64 * 0.06 {
                        t.push(item);
                    }
                }
                data.push(t);
            }
            for minsup in [0.1, 0.25, 0.4] {
                let mined = Apriori::new(AprioriParams::with_minsup(minsup)).mine(&data);
                let reference = brute_force(&data, minsup);
                assert_eq!(
                    mined.len(),
                    reference.len(),
                    "trial {trial} minsup {minsup}: {} vs {}",
                    mined.len(),
                    reference.len()
                );
                for (s, sup) in &reference {
                    let got = mined.support_of(s).expect("missing frequent itemset");
                    assert!((got - sup).abs() < 1e-12);
                }
            }
        }
    }

    #[test]
    fn candidate_generation_joins_and_prunes() {
        // Frequent pairs: {0,1}, {0,2}, {1,2}, {1,3}.
        // Join on shared prefix: {0,1}+{0,2}→{0,1,2}; {1,2}+{1,3}→{1,2,3}.
        // {0,1,2} survives the prune ({0,1},{0,2},{1,2} all frequent);
        // {1,2,3} is pruned because {2,3} is not frequent.
        let frequent: Vec<Itemset> = [[0, 1], [0, 2], [1, 2], [1, 3]]
            .iter()
            .map(|s| Itemset::from_slice(s))
            .collect();
        let cands = generate_candidates(&frequent);
        assert_eq!(cands, vec![Itemset::from_slice(&[0, 1, 2])]);
    }

    #[test]
    fn support_counts_match_core_counter() {
        // The DFS counter and focus-core's bitmap counter must agree.
        let mut rng = StdRng::seed_from_u64(7);
        let mut data = TransactionSet::new(12);
        for _ in 0..200 {
            let t: Vec<u32> = (0..12).filter(|_| rng.gen::<f64>() < 0.3).collect();
            data.push(t);
        }
        let m = Apriori::new(AprioriParams::with_minsup(0.05)).mine(&data);
        let counts = count_itemsets(&data, m.itemsets(), Parallelism::Global);
        for (i, &c) in counts.iter().enumerate() {
            let sup = c as f64 / data.len() as f64;
            assert!(
                (sup - m.supports()[i]).abs() < 1e-12,
                "{}: {} vs {}",
                m.itemsets()[i],
                sup,
                m.supports()[i]
            );
        }
    }

    #[test]
    fn backends_mine_identical_models() {
        let mut rng = StdRng::seed_from_u64(314);
        for trial in 0..5 {
            let mut data = TransactionSet::new(14);
            for _ in 0..(150 + trial * 40) {
                let t: Vec<u32> = (0..14).filter(|_| rng.gen::<f64>() < 0.35).collect();
                data.push(t);
            }
            for minsup in [0.05, 0.2] {
                let base = AprioriParams::with_minsup(minsup).max_len(6);
                let auto = Apriori::new(base).mine(&data);
                let dfs = Apriori::new(base.backend(CountBackend::Dfs)).mine(&data);
                assert_eq!(auto, dfs, "trial {trial} minsup {minsup}");
            }
        }
    }

    #[test]
    fn auto_is_the_default_backend() {
        assert_eq!(CountBackend::default(), CountBackend::Auto);
        assert_eq!(AprioriParams::with_minsup(0.1).backend, CountBackend::Auto);
    }

    #[test]
    fn auto_backend_on_empty_and_tiny_data() {
        let params = AprioriParams::with_minsup(0.1).backend(CountBackend::Dfs);
        assert!(Apriori::new(params)
            .mine(&TransactionSet::new(4))
            .is_empty());

        let data = dataset(&[&[0, 2, 3], &[1, 2, 4], &[0, 1, 2, 4], &[1, 4]], 5);
        let auto = Apriori::new(AprioriParams::with_minsup(0.5)).mine(&data);
        let dfs =
            Apriori::new(AprioriParams::with_minsup(0.5).backend(CountBackend::Dfs)).mine(&data);
        assert_eq!(auto, dfs);
    }

    #[test]
    #[should_panic(expected = "minsup must be in")]
    fn rejects_zero_minsup() {
        AprioriParams::with_minsup(0.0);
    }

    #[test]
    fn min_count_floor_prevents_tiny_sample_explosion() {
        // 20 transactions, minsup 1% → fractional threshold is below one
        // transaction. Without a floor every subset of every transaction is
        // frequent; with floor 3, only genuinely repeated itemsets survive.
        let mut data = TransactionSet::new(50);
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..20 {
            let t: Vec<u32> = (0..50).filter(|_| rng.gen::<f64>() < 0.2).collect();
            data.push(t);
        }
        let floored = Apriori::new(
            AprioriParams::with_minsup(0.01)
                .max_len(10)
                .min_count_floor(3),
        )
        .mine(&data);
        // Everything kept is supported by at least 3 of 20 transactions.
        for &s in floored.supports() {
            assert!(s >= 3.0 / 20.0 - 1e-12);
        }
        // And the model stays small rather than exponential.
        assert!(floored.len() < 1000, "model size {}", floored.len());
    }
}
