//! The counting-source layer: one handle per dataset that serves itemset
//! support counts through whichever arm a deterministic cost model picks,
//! building the vertical index at most once per handle.
//!
//! Every measure-extension scan in the FOCUS pipeline ultimately asks the
//! same question — "how many transactions support each of these itemsets?"
//! A [`CountSource`] is the snapshot-scoped answer: it borrows the
//! horizontal [`TransactionSet`] view and lazily caches the
//! [`VerticalIndex`] behind a [`OnceLock`] so `Fn + Sync` parallel closures
//! can share one handle across worker threads.
//!
//! ## The cost model
//!
//! [`prefers_index`] is a two-way comparison between the two arms of the
//! counting engine:
//!
//! * horizontal scan ≈ `rows × Σ|itemset|` subset probes plus one bitmap
//!   build per transaction (`total_items` touches);
//! * index count ≈ `Σ|itemset| × words` AND/popcount word ops through the
//!   batched prefix-run kernel, plus a build pass weighted by
//!   [`INDEX_BUILD_WEIGHT`] so a throwaway index never wins on a workload
//!   too small to amortise it.
//!
//! The choice is a **pure function of data shape, workload and budget** —
//! never thread count, timing, or whether a cache already holds the index
//! — so dispatch can never violate the workspace's
//! bit-identical-for-any-thread-count contract. Both arms produce
//! identical `u64` counts (the differential suite enforces this), so the
//! model can only change cost, never a result.
//!
//! ## The index budget
//!
//! A huge sparse item universe over few transactions makes the bit matrix
//! mostly zeros; the budget caps how large an index the cost model may
//! choose to build. It resolves like `FOCUS_THREADS`: the CLI override
//! ([`set_global_index_budget`], the `--index-budget` flag) beats the
//! `FOCUS_INDEX_BUDGET` environment variable (bytes, with optional
//! `k`/`m`/`g` binary suffixes; unparseable values warn once and fall
//! back) beats the [`DEFAULT_INDEX_BUDGET`] of 128 MiB. A budget of `0`
//! never builds an index — a forced-horizontal knob.

use crate::data::TransactionSet;
use crate::model::count_itemsets;
use crate::region::Itemset;
use crate::vertical::{count_itemsets_grouped, VerticalIndex};
use focus_exec::Parallelism;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

// ---------------------------------------------------------------------------
// Index budget plumbing (mirrors focus-exec's FOCUS_THREADS handling)

/// Default cap on the bit-matrix size the cost model may build: 128 MiB.
pub const DEFAULT_INDEX_BUDGET: usize = 128 << 20;

/// Sentinel for "no process-wide override set".
const BUDGET_UNSET: usize = usize::MAX;

/// Process-wide budget override (CLI `--index-budget`).
static GLOBAL_BUDGET: AtomicUsize = AtomicUsize::new(BUDGET_UNSET);

/// Lazily parsed `FOCUS_INDEX_BUDGET` environment setting.
static ENV_BUDGET: OnceLock<Option<usize>> = OnceLock::new();

/// Parses a byte-count knob: a plain byte count, optionally suffixed with
/// `k`, `m` or `g` (case-insensitive, binary units). `"0"` is valid and
/// means "never build an index".
pub fn parse_index_budget(s: &str) -> Option<usize> {
    let t = s.trim();
    let (digits, unit) = match t.as_bytes().last()? {
        b'k' | b'K' => (&t[..t.len() - 1], 1usize << 10),
        b'm' | b'M' => (&t[..t.len() - 1], 1 << 20),
        b'g' | b'G' => (&t[..t.len() - 1], 1 << 30),
        _ => (t, 1),
    };
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse::<usize>().ok()?.checked_mul(unit)
}

fn env_index_budget() -> Option<usize> {
    // A typo'd budget silently falling back would be invisible (counts are
    // bit-identical either way), so say so once.
    focus_exec::env_knob_once(
        &ENV_BUDGET,
        "FOCUS_INDEX_BUDGET",
        parse_index_budget,
        |raw| {
            eprintln!(
                "focus-core: ignoring unparseable FOCUS_INDEX_BUDGET={raw:?} \
             (want a byte count, optionally with a k/m/g suffix); \
             using the {} MiB default",
                DEFAULT_INDEX_BUDGET >> 20
            )
        },
    )
}

/// Sets the process-wide index budget in bytes (the CLI's `--index-budget`
/// flag). Takes precedence over the `FOCUS_INDEX_BUDGET` environment
/// variable. `0` means "never build an index".
pub fn set_global_index_budget(bytes: usize) {
    GLOBAL_BUDGET.store(bytes.min(BUDGET_UNSET - 1), Ordering::Relaxed);
}

/// The process-wide index budget: [`set_global_index_budget`] if called,
/// else `FOCUS_INDEX_BUDGET`, else [`DEFAULT_INDEX_BUDGET`].
pub fn global_index_budget() -> usize {
    match GLOBAL_BUDGET.load(Ordering::Relaxed) {
        BUDGET_UNSET => env_index_budget().unwrap_or(DEFAULT_INDEX_BUDGET),
        b => b,
    }
}

// ---------------------------------------------------------------------------
// The cost model

/// How much more a build-pass touch costs than a steady-state word op.
/// Building writes scattered cache lines (item-major matrix, row-major
/// input) while counting streams them, and a throwaway build is pure
/// overhead if the workload never revisits the index — so the build term
/// is up-weighted to keep one-shot small workloads on the horizontal scan.
const INDEX_BUILD_WEIGHT: usize = 4;

/// The deterministic two-way choice for counting itemsets totalling
/// `workload_items` items over the given data shape: `true` when the
/// vertical word fold plus the [`INDEX_BUILD_WEIGHT`]-weighted build pass
/// beats the horizontal scan and the index fits `budget_bytes`.
///
/// Inputs are data shape, workload and budget only — never thread count,
/// timing, or cache state — so for a fixed dataset and call sequence the
/// dispatch decision is identical on every run and every `FOCUS_THREADS`
/// setting. The Apriori level loop asks once per level until an index is
/// built; [`CountSource`] asks on every call, so its dispatch never depends
/// on what a previous call happened to cache.
pub fn prefers_index(
    workload_items: usize,
    n_transactions: usize,
    n_items: u32,
    total_items: usize,
    budget_bytes: usize,
) -> bool {
    if workload_items == 0
        || n_transactions == 0
        || VerticalIndex::estimate_bytes_for(n_items, n_transactions) > budget_bytes
    {
        return false;
    }
    let words = n_transactions.div_ceil(64) as u128;
    // Horizontal: every transaction is bitmapped once (≈ total_items
    // touches) and probed once per itemset item.
    let horizontal = (n_transactions as u128) * (workload_items as u128) + total_items as u128;
    // Index: AND + popcount over each itemset item's word row, plus the
    // weighted build pass (one touch per stored item, one per matrix byte).
    let build = (INDEX_BUILD_WEIGHT as u128)
        * (total_items as u128 + (n_items as u128) * words.div_ceil(8));
    (workload_items as u128) * words + build < horizontal
}

// ---------------------------------------------------------------------------
// CountSource

/// A snapshot-scoped counting handle: borrows one dataset and serves
/// [`CountSource::counts`] through whichever arm [`prefers_index`] picks
/// per call, building the [`VerticalIndex`] at most once for the handle's
/// lifetime.
///
/// The handle is `Sync` and interior-mutable ([`OnceLock`]), so parallel
/// `Fn + Sync` closures — the matrix engine's per-pair fan-out — can share
/// one source per snapshot and still pay at most one index build between
/// them. The index budget is snapshotted at construction, so every count
/// through one handle sees the same budget regardless of later knob turns.
pub struct CountSource<'a> {
    data: &'a TransactionSet,
    cache: OnceLock<VerticalIndex>,
    budget: usize,
}

impl std::fmt::Debug for CountSource<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountSource")
            .field("transactions", &self.len())
            .field("indexed", &self.index_built())
            .field("budget", &self.budget)
            .finish()
    }
}

impl<'a> CountSource<'a> {
    /// A source borrowing `data` (no copy).
    pub fn borrowed(data: &'a TransactionSet) -> CountSource<'a> {
        CountSource {
            data,
            cache: OnceLock::new(),
            budget: global_index_budget(),
        }
    }

    /// Overrides the handle's index budget (tests and benches; production
    /// callers use the process-wide knob).
    pub fn with_index_budget(mut self, bytes: usize) -> CountSource<'a> {
        self.budget = bytes;
        self
    }

    /// Number of transactions behind the handle.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when the handle holds no transactions.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Size of the item universe behind the handle.
    pub fn n_items(&self) -> u32 {
        self.data.n_items()
    }

    /// True when the vertical index has been built and cached.
    pub fn index_built(&self) -> bool {
        self.cache.get().is_some()
    }

    /// Support counts for `itemsets`, dispatched by the cost model.
    ///
    /// Every call consults [`prefers_index`] — dispatch depends only on
    /// the workload's shape, never on what an earlier call cached — and a
    /// winning index choice reuses (or race-safely builds) the cached
    /// index. Index counting goes through the batched prefix-run path
    /// ([`count_itemsets_grouped`]), so sibling itemsets in a
    /// measure-extension workload share one cached prefix mask per run.
    /// Counts are bit-identical across arms and thread counts.
    pub fn counts(&self, itemsets: &[Itemset], par: Parallelism) -> Vec<u64> {
        let data = self.data;
        let workload_items: usize = itemsets.iter().map(Itemset::len).sum();
        if prefers_index(
            workload_items,
            data.len(),
            data.n_items(),
            data.total_items(),
            self.budget,
        ) {
            let index = self.cache.get_or_init(|| VerticalIndex::build(data));
            count_itemsets_grouped(index, itemsets, par)
        } else {
            count_itemsets(data, itemsets, par)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Compile-time contract: sources are shared across worker threads.
    const fn assert_sync<T: Sync>() {}
    const _: () = assert_sync::<CountSource<'static>>();

    fn toy() -> TransactionSet {
        let mut ts = TransactionSet::new(2);
        ts.push(vec![0, 1]);
        ts.push(vec![0]);
        ts.push(vec![1]);
        ts.push(vec![0, 1]);
        ts
    }

    fn random_set(seed: u64, n: usize, n_items: u32, density: f64) -> TransactionSet {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ts = TransactionSet::new(n_items);
        for _ in 0..n {
            let t: Vec<u32> = (0..n_items)
                .filter(|_| rng.gen::<f64>() < density)
                .collect();
            ts.push(t);
        }
        ts
    }

    #[test]
    fn parse_index_budget_accepts_bytes_and_binary_suffixes() {
        assert_eq!(parse_index_budget("0"), Some(0));
        assert_eq!(parse_index_budget("4096"), Some(4096));
        assert_eq!(parse_index_budget("64k"), Some(64 << 10));
        assert_eq!(parse_index_budget("64K"), Some(64 << 10));
        assert_eq!(parse_index_budget("128m"), Some(128 << 20));
        assert_eq!(parse_index_budget("2G"), Some(2 << 30));
        assert_eq!(parse_index_budget(" 16m "), Some(16 << 20));
        for bad in ["", "m", "-1", "1.5g", "12kb", "lots", "1 6k"] {
            assert_eq!(parse_index_budget(bad), None, "{bad:?}");
        }
        // Overflow saturates to None, never wraps.
        assert_eq!(parse_index_budget(&format!("{}g", usize::MAX)), None);
    }

    #[test]
    fn cost_model_is_deterministic_and_budget_capped() {
        // A workload big enough to amortise the build prefers the index…
        let big = prefers_index(25, 2000, 9, 7200, DEFAULT_INDEX_BUDGET);
        assert!(big);
        // …and the same inputs always give the same answer.
        for _ in 0..8 {
            assert_eq!(prefers_index(25, 2000, 9, 7200, DEFAULT_INDEX_BUDGET), big);
        }
        // Density does not move the choice: sparse data amortises the
        // build just the same.
        assert!(prefers_index(25, 2000, 9, 2700, DEFAULT_INDEX_BUDGET));
        // A single tiny scan never pays for a throwaway build.
        assert!(!prefers_index(2, 1000, 10, 3000, DEFAULT_INDEX_BUDGET));
        // Budget 0 forbids building regardless of workload.
        assert!(!prefers_index(5000, 100_000, 50, 1_000_000, 0));
        // Degenerate shapes never dispatch a build.
        assert!(!prefers_index(0, 1000, 10, 3000, DEFAULT_INDEX_BUDGET));
        assert!(!prefers_index(10, 0, 10, 0, DEFAULT_INDEX_BUDGET));
    }

    #[test]
    fn counts_match_horizontal_at_every_budget() {
        let ts = random_set(21, 600, 11, 0.35);
        let sets: Vec<Itemset> = (0..11u32)
            .map(|i| Itemset::from_slice(&[i]))
            .chain((0..10u32).map(|i| Itemset::from_slice(&[i, i + 1])))
            .chain([Itemset::new(vec![]), Itemset::from_slice(&[40])])
            .collect();
        let reference = count_itemsets(&ts, &sets, Parallelism::Sequential);
        let borrowed = CountSource::borrowed(&ts).with_index_budget(DEFAULT_INDEX_BUDGET);
        assert_eq!(borrowed.counts(&sets, Parallelism::Sequential), reference);
        assert!(
            borrowed.index_built(),
            "this workload should build the index"
        );
        // Forced-horizontal budget: still the same counts.
        let capped = CountSource::borrowed(&ts).with_index_budget(0);
        assert_eq!(capped.counts(&sets, Parallelism::Sequential), reference);
        assert!(!capped.index_built(), "budget 0 must never build");
    }

    #[test]
    fn index_is_cached_across_calls() {
        let ts = random_set(5, 2000, 9, 0.4);
        let sets: Vec<Itemset> = (0..9u32)
            .map(|i| Itemset::from_slice(&[i]))
            .chain((0..8u32).map(|i| Itemset::from_slice(&[i, i + 1])))
            .collect();
        // Pin the budget: another test in this binary may be exercising
        // the process-wide setter concurrently.
        let source = CountSource::borrowed(&ts).with_index_budget(DEFAULT_INDEX_BUDGET);
        assert!(!source.index_built());
        let first = source.counts(&sets, Parallelism::Sequential);
        assert!(source.index_built(), "this workload should go vertical");
        // The second call reuses the cached index and agrees bit-for-bit.
        let second = source.counts(&sets, Parallelism::Sequential);
        assert_eq!(first, second);
        assert_eq!(first, count_itemsets(&ts, &sets, Parallelism::Sequential));
    }

    #[test]
    fn accessors_and_empty_sources() {
        let ts = toy();
        let borrowed = CountSource::borrowed(&ts);
        assert_eq!(borrowed.len(), 4);
        assert_eq!(borrowed.n_items(), 2);
        assert!(!borrowed.is_empty());
        assert!(!borrowed.index_built());
        let none = TransactionSet::new(3);
        let empty = CountSource::borrowed(&none);
        assert!(empty.is_empty());
        assert_eq!(
            empty.counts(
                &[Itemset::new(vec![]), Itemset::from_slice(&[1])],
                Parallelism::Sequential
            ),
            vec![0, 0]
        );
    }

    #[test]
    fn global_budget_defaults_and_overrides() {
        // No override set in this test binary unless another test in this
        // process set one; exercise the setter round trip explicitly.
        set_global_index_budget(64 << 10);
        assert_eq!(global_index_budget(), 64 << 10);
        set_global_index_budget(0);
        assert_eq!(global_index_budget(), 0);
        // usize::MAX is clamped below the "unset" sentinel, not treated
        // as unset.
        set_global_index_budget(usize::MAX);
        assert_eq!(global_index_budget(), usize::MAX - 1);
        set_global_index_budget(DEFAULT_INDEX_BUDGET);
        assert_eq!(global_index_budget(), DEFAULT_INDEX_BUDGET);
    }
}
