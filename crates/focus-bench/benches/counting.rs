//! Criterion bench B5: support counting on the two arms of the counting
//! engine — the horizontal bitmap scan and the batched prefix-run count
//! over a prebuilt tid-bitset index — for the frequent pairs of a mined
//! model, the shape GCR measure extension re-counts.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use focus_core::model::count_itemsets;
use focus_core::region::Itemset;
use focus_core::vertical::{count_itemsets_grouped, VerticalIndex};
use focus_data::assoc::{AssocGen, AssocGenParams};
use focus_mining::{Apriori, AprioriParams};
use std::hint::black_box;

fn bench_counting(c: &mut Criterion) {
    let gen = AssocGen::new(AssocGenParams::paper(2000, 4.0), 3);
    let data = gen.generate(5_000, 5);
    let model = Apriori::new(AprioriParams::with_minsup(0.008).max_len(10)).mine(&data);
    // Count the frequent pairs (usually the largest level).
    let itemsets: Vec<Itemset> = model
        .itemsets()
        .iter()
        .filter(|s| s.len() == 2)
        .cloned()
        .collect();
    let mut group = c.benchmark_group("counting");
    group.bench_with_input(
        BenchmarkId::new("bitmap_scan", itemsets.len()),
        &itemsets,
        |b, sets| b.iter(|| black_box(count_itemsets(&data, sets))),
    );
    let index = VerticalIndex::build(&data);
    group.bench_with_input(
        BenchmarkId::new("index_warm", itemsets.len()),
        &itemsets,
        |b, sets| b.iter(|| black_box(count_itemsets_grouped(&index, sets))),
    );
    group.finish();
}

criterion_group!(benches, bench_counting);
criterion_main!(benches);
