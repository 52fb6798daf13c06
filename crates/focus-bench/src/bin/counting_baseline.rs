//! **Counting baseline** — itemset-support counting compared at three
//! sparse dataset scales plus a dense scale, recorded PR-over-PR in
//! `BENCH_counting.json`:
//!
//! ```text
//! cargo run --release -p focus-bench --bin counting_baseline -- --threads 4 > BENCH_counting.json
//! ```
//!
//! Per scale the binary generates a dataset, mines its frequent itemsets
//! once (the realistic counting workload: the measure extension re-counts
//! a model's itemsets against another dataset), and times the two arms of
//! the counting engine, each row varying one layer:
//!
//! * `bitmap_scan` — the horizontal `count_itemsets_par` scan (one
//!   membership bitmap per transaction, subset test per itemset);
//! * `index_cold`  — the tid-bitset index of `focus_core::vertical`,
//!   **index build included**, counted through the batched prefix-run
//!   path — what a cold `CountSource` pays when the cost model picks the
//!   index;
//! * `index_warm`  — the same batched count over a prebuilt index (build
//!   excluded), the per-call cost `family.rs`'s `extend_supports` pays
//!   once a source's cache is hot.
//!
//! A further pair of rows measures **index reuse** — the matrix-run
//! regime, where the same snapshot is re-counted once per surviving
//! pair:
//!
//! * `vertical_rebuild_x4` — four batched scans, each rebuilding the
//!   index from scratch (the per-pair-load behaviour before the
//!   counting-source layer);
//! * `source_cached_x4` — four scans through one shared
//!   [`focus_core::source::CountSource`] handle, which builds its index
//!   lazily at most once and serves the remaining scans from the cache.
//!
//! For the reuse rows `speedup_vs_bitmap` compares against four
//! horizontal scans — the bitmap cost of the same workload.
//!
//! The sparse scales use the paper's association generator; the `dense`
//! scale is an independent-Bernoulli dataset at 0.7 fill over 32 items,
//! whose mined workload (triples at minsup 0.3) has deep shared prefixes
//! for the batched path.
//!
//! All rows must (and are asserted to) produce identical `u64` counts.
//! Each regime runs `--samples` times; the recorded time is the minimum.
//! One JSON object per (scale, backend) lands on stdout — with `threads`,
//! `cores` and `commit` machine-context fields — and the human table goes
//! to stderr.

use focus_bench::{git_commit, timed, ExpConfig};
use focus_core::data::TransactionSet;
use focus_core::model::count_itemsets_par;
use focus_core::source::{CountSource, DEFAULT_INDEX_BUDGET};
use focus_core::vertical::{count_itemsets_grouped_par, VerticalIndex};
use focus_data::assoc::{AssocGen, AssocGenParams};
use focus_exec::Parallelism;
use focus_mining::{Apriori, AprioriParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scans per reuse row — stands in for a matrix run's repeated re-counts
/// of one snapshot (one per surviving pair).
const REUSE_SCANS: usize = 4;

struct Row {
    scale: &'static str,
    transactions: usize,
    itemsets: usize,
    backend: &'static str,
    secs: f64,
    speedup_vs_bitmap: f64,
}

/// Runs one backend `samples` times, checks every run against the
/// reference counts, and returns the minimum elapsed seconds.
fn best_of(samples: usize, reference: &[u64], mut run: impl FnMut() -> Vec<u64>) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples {
        let (counts, secs) = timed(&mut run);
        assert_eq!(counts, reference, "counting backends disagree");
        best = best.min(secs);
    }
    best
}

/// An independent-Bernoulli dense dataset: every item present with the
/// given probability.
fn dense_transactions(n: usize, n_items: u32, density: f64, seed: u64) -> TransactionSet {
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

fn main() {
    let cfg = ExpConfig::parse(std::env::args().skip(1));
    let par = Parallelism::Global;
    let base = cfg.rows(250_000);
    let threads = par.threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = git_commit();
    let mut rows = Vec::new();

    // (scale, dataset, mining params): the sparse scales carry the
    // paper-shaped association workload; the dense scale carries a
    // triple-heavy mined workload.
    let scales: Vec<(&'static str, TransactionSet, AprioriParams)> = vec![
        ("small", AprioriParams::with_minsup(0.01), base),
        ("medium", AprioriParams::with_minsup(0.01), base * 4),
        ("large", AprioriParams::with_minsup(0.01), base * 16),
    ]
    .into_iter()
    .map(|(scale, params, n)| {
        let gen = AssocGen::new(AssocGenParams::paper(500, 4.0), cfg.seed);
        (
            scale,
            gen.generate(n, cfg.seed + 1),
            params.max_len(10).min_count_floor(2),
        )
    })
    .chain(std::iter::once((
        "dense",
        dense_transactions(base * 16, 32, 0.7, cfg.seed + 7),
        AprioriParams::with_minsup(0.3)
            .max_len(4)
            .min_count_floor(2),
    )))
    .collect();

    for (scale, data, mine_params) in scales {
        // The realistic workload: a mined model's itemsets, re-counted the
        // way the measure-extension step re-counts them against a second
        // dataset.
        let model = Apriori::new(mine_params).mine(&data);
        let itemsets = model.itemsets().to_vec();
        let reference = count_itemsets_par(&data, &itemsets, par);

        let bitmap_secs = best_of(cfg.samples, &reference, || {
            count_itemsets_par(&data, &itemsets, par)
        });
        // Cold: index build + batched prefix-run counting.
        let cold_secs = best_of(cfg.samples, &reference, || {
            let index = VerticalIndex::build(&data);
            count_itemsets_grouped_par(&index, &itemsets, par)
        });
        // Warm: batched counting over a prebuilt index, build excluded.
        let warm_index = VerticalIndex::build(&data);
        let warm_secs = best_of(cfg.samples, &reference, || {
            count_itemsets_grouped_par(&warm_index, &itemsets, par)
        });

        // Reuse regime: the same itemsets re-counted REUSE_SCANS times,
        // once rebuilding the index per scan, once through a shared
        // CountSource whose cache pays the build exactly once.
        let rebuild_secs = best_of(cfg.samples, &reference, || {
            let mut counts = Vec::new();
            for _ in 0..REUSE_SCANS {
                let index = VerticalIndex::build(&data);
                counts = count_itemsets_grouped_par(&index, &itemsets, par);
            }
            counts
        });
        let cached_secs = best_of(cfg.samples, &reference, || {
            let source = CountSource::borrowed(&data).with_index_budget(DEFAULT_INDEX_BUDGET);
            let mut counts = Vec::new();
            for _ in 0..REUSE_SCANS {
                counts = source.counts(&itemsets, par);
            }
            counts
        });

        for (backend, secs, one_scan_bitmap) in [
            ("bitmap_scan", bitmap_secs, 1),
            ("index_cold", cold_secs, 1),
            ("index_warm", warm_secs, 1),
            ("vertical_rebuild_x4", rebuild_secs, REUSE_SCANS),
            ("source_cached_x4", cached_secs, REUSE_SCANS),
        ] {
            rows.push(Row {
                scale,
                transactions: data.len(),
                itemsets: itemsets.len(),
                backend,
                secs,
                speedup_vs_bitmap: bitmap_secs * one_scan_bitmap as f64 / secs,
            });
        }
    }

    // JSON lines to stdout (the `BENCH_counting.json` payload), the human
    // table to stderr so a redirect stays machine-readable.
    eprintln!(
        "{:>7}  {:>12}  {:>8}  {:>18}  {:>10}  {:>8}",
        "Scale", "Transactions", "Itemsets", "Backend", "Best s", "Speedup"
    );
    for r in &rows {
        println!(
            "{{\"bench\":\"counting\",\"scale\":\"{}\",\"transactions\":{},\"itemsets\":{},\
             \"backend\":\"{}\",\"secs\":{:.6},\"speedup_vs_bitmap\":{:.2},\
             \"threads\":{},\"cores\":{},\"commit\":\"{}\"}}",
            r.scale,
            r.transactions,
            r.itemsets,
            r.backend,
            r.secs,
            r.speedup_vs_bitmap,
            threads,
            cores,
            commit
        );
        eprintln!(
            "{:>7}  {:>12}  {:>8}  {:>18}  {:>10.4}  {:>7.2}x",
            r.scale, r.transactions, r.itemsets, r.backend, r.secs, r.speedup_vs_bitmap
        );
    }
}
