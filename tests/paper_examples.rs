//! The worked examples of Section 2 of the paper, reproduced end-to-end as
//! executable assertions: the dt-model deviation of Figure 5 (0.175 over
//! the class-C1 regions, 0.08 focussed on `age < 30`) and the lits-model
//! deviation of Figure 6.

use focus::core::prelude::*;
use std::sync::Arc;

/// Builds the Figure 5 scenario: two datasets over (age, salary) with two
/// classes, and the two decision-tree partitions T1 and T2 whose overlay
/// (GCR, T3) carries the paper's class-C1 measures:
///
/// | GCR cell                      | σ(·, D1) | σ(·, D2) |
/// |-------------------------------|----------|----------|
/// | age<30, salary<80K            | 0.10     | 0.14     |
/// | age<30, 80K≤salary<100K       | 0.00     | 0.04     |
/// | age<30, salary≥100K           | 0.00     | 0.00     |
/// | age≥30, salary<80K            | 0.00     | 0.00     |
/// | age≥30, 80K≤salary<100K       | 0.00     | 0.00     |
/// | age≥30, salary≥100K           | 0.005    | 0.10     |
fn figure5() -> (Arc<Schema>, LabeledTable, LabeledTable, DtModel, DtModel) {
    let schema = Arc::new(Schema::new(vec![
        Schema::numeric("age"),
        Schema::numeric("salary"),
    ]));
    const C1: u32 = 1;
    const C2: u32 = 0;
    let young_low = [Value::Num(20.0), Value::Num(50_000.0)];
    let young_mid = [Value::Num(20.0), Value::Num(90_000.0)];
    let old_high = [Value::Num(40.0), Value::Num(150_000.0)];
    let filler = [Value::Num(40.0), Value::Num(50_000.0)];

    // D1: 1000 rows; C1 measures 0.10 / 0.0 / 0.005 in the cells above.
    let mut d1 = LabeledTable::new(Arc::clone(&schema), 2);
    for _ in 0..100 {
        d1.push_row(&young_low, C1);
    }
    for _ in 0..5 {
        d1.push_row(&old_high, C1);
    }
    for _ in 0..895 {
        d1.push_row(&filler, C2);
    }

    // D2: 1000 rows; C1 measures 0.14 / 0.04 / 0.10.
    let mut d2 = LabeledTable::new(Arc::clone(&schema), 2);
    for _ in 0..140 {
        d2.push_row(&young_low, C1);
    }
    for _ in 0..40 {
        d2.push_row(&young_mid, C1);
    }
    for _ in 0..100 {
        d2.push_row(&old_high, C1);
    }
    for _ in 0..720 {
        d2.push_row(&filler, C2);
    }

    // T1: the Figure 1 tree — age<30 leaf; age≥30 split at salary 100K.
    let t1 = induce_dt_measures(
        vec![
            BoxBuilder::new(&schema).lt("age", 30.0).build(),
            BoxBuilder::new(&schema)
                .ge("age", 30.0)
                .lt("salary", 100_000.0)
                .build(),
            BoxBuilder::new(&schema)
                .ge("age", 30.0)
                .ge("salary", 100_000.0)
                .build(),
        ],
        &d1,
    );
    // T2: splits at age 30 and salary 80K / 100K on the left branch, so the
    // overlay yields the six GCR cells of Figure 5.
    let t2 = induce_dt_measures(
        vec![
            BoxBuilder::new(&schema)
                .lt("age", 30.0)
                .lt("salary", 80_000.0)
                .build(),
            BoxBuilder::new(&schema)
                .lt("age", 30.0)
                .range("salary", 80_000.0, 100_000.0)
                .build(),
            BoxBuilder::new(&schema)
                .lt("age", 30.0)
                .ge("salary", 100_000.0)
                .build(),
            BoxBuilder::new(&schema)
                .ge("age", 30.0)
                .lt("salary", 80_000.0)
                .build(),
            BoxBuilder::new(&schema)
                .ge("age", 30.0)
                .range("salary", 80_000.0, 100_000.0)
                .build(),
            BoxBuilder::new(&schema)
                .ge("age", 30.0)
                .ge("salary", 100_000.0)
                .build(),
        ],
        &d2,
    );
    (schema, d1, d2, t1, t2)
}

#[test]
fn figure5_deviation_over_c1_regions_is_0_175() {
    // Section 2.1: δ(f_a, g_sum) over the class-C1 regions of the GCR is
    // |0−0| + |0−0.04| + |0.1−0.14| + |0−0| + |0−0| + |0.005−0.1| = 0.175.
    let (schema, d1, d2, t1, t2) = figure5();
    let c1_focus = BoxBuilder::new(&schema).class(1).build();
    let dev = deviate_focussed::<DtFamily>(
        &t1,
        &d1,
        &t2,
        &d2,
        &c1_focus,
        DiffFn::Absolute,
        AggFn::Sum,
        Parallelism::Global,
    );
    assert!((dev.value - 0.175).abs() < 1e-12, "got {}", dev.value);
    assert_eq!(dev.gcr.cells().len(), 6, "Figure 5's GCR has six cells");
}

#[test]
fn figure5_focussed_deviation_on_age_lt_30_is_0_08() {
    // Section 2.3: focussing on ρ: age < 30 keeps the three leftmost GCR
    // regions; the C1 deviation is |0−0| + |0−0.04| + |0.1−0.14| = 0.08.
    let (schema, d1, d2, t1, t2) = figure5();
    let focus = BoxBuilder::new(&schema).lt("age", 30.0).class(1).build();
    let dev = deviate_focussed::<DtFamily>(
        &t1,
        &d1,
        &t2,
        &d2,
        &focus,
        DiffFn::Absolute,
        AggFn::Sum,
        Parallelism::Global,
    );
    assert!((dev.value - 0.08).abs() < 1e-12, "got {}", dev.value);
    assert_eq!(dev.gcr.cells().len(), 3);
}

#[test]
fn figure5_gcr_measures_match_paper() {
    let (schema, d1, d2, t1, t2) = figure5();
    let c1_focus = BoxBuilder::new(&schema).class(1).build();
    let dev = deviate_focussed::<DtFamily>(
        &t1,
        &d1,
        &t2,
        &d2,
        &c1_focus,
        DiffFn::Absolute,
        AggFn::Sum,
        Parallelism::Global,
    );
    // Collect the C1 measures per cell from both datasets and compare to
    // the sets the paper prints in T3 (order-independent).
    // Selectivities: the dt engine measures absolute counts.
    let (n1, n2) = (d1.len() as f64, d2.len() as f64);
    let k = dev.gcr.n_classes() as usize;
    let mut pairs: Vec<(f64, f64)> = (0..dev.gcr.cells().len())
        .map(|i| (dev.raw1[i * k + 1] / n1, dev.raw2[i * k + 1] / n2))
        .collect();
    pairs.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let mut expected = vec![
        (0.0, 0.0),
        (0.0, 0.0),
        (0.0, 0.0),
        (0.0, 0.04),
        (0.005, 0.1),
        (0.1, 0.14),
    ];
    expected.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for (got, want) in pairs.iter().zip(&expected) {
        assert!(
            (got.0 - want.0).abs() < 1e-12 && (got.1 - want.1).abs() < 1e-12,
            "{got:?} vs {want:?}"
        );
    }
}

/// Figure 3/6: items a=0, b=1, c=2; L1 = {a, b, ab} from D1 with supports
/// (0.5, 0.4, 0.25); L2 = {b, c, bc} from D2 with supports (0.3, 0.5, 0.2).
fn figure6() -> (TransactionSet, TransactionSet, LitsModel, LitsModel) {
    let mut d1 = TransactionSet::new(3);
    for _ in 0..5 {
        d1.push(vec![0, 1]);
    }
    for _ in 0..5 {
        d1.push(vec![0]);
    }
    d1.push(vec![1, 2]);
    for _ in 0..2 {
        d1.push(vec![1]);
    }
    d1.push(vec![2]);
    while d1.len() < 20 {
        d1.push(vec![]);
    }
    let mut d2 = TransactionSet::new(3);
    d2.push(vec![0, 1]);
    d2.push(vec![0]);
    for _ in 0..4 {
        d2.push(vec![1, 2]);
    }
    d2.push(vec![1]);
    for _ in 0..6 {
        d2.push(vec![2]);
    }
    while d2.len() < 20 {
        d2.push(vec![]);
    }
    let l1 = induce_lits_measures(
        vec![
            Itemset::from_slice(&[0]),
            Itemset::from_slice(&[1]),
            Itemset::from_slice(&[0, 1]),
        ],
        0.25,
        &d1,
    );
    let l2 = induce_lits_measures(
        vec![
            Itemset::from_slice(&[1]),
            Itemset::from_slice(&[2]),
            Itemset::from_slice(&[1, 2]),
        ],
        0.25,
        &d2,
    );
    (d1, d2, l1, l2)
}

#[test]
fn figure6_gcr_is_the_union_of_the_models() {
    let (_, _, l1, l2) = figure6();
    let gcr = gcr_lits(l1.itemsets(), l2.itemsets());
    assert_eq!(gcr.len(), 5, "L3 = {{a, b, c, ab, bc}}");
}

#[test]
fn figure6_sum_and_max_deviations() {
    // Per-region terms (Section 2.2): |0.5−0.1|, |0.4−0.3|, |0.1−0.5|,
    // |0.25−0.05|, |0.05−0.2| — summing to 1.25 (the paper's printed total
    // "1.125" contradicts its own five terms; we assert the terms) and
    // maxing to 0.4 (Section 4.1).
    let (d1, d2, l1, l2) = figure6();
    let sum = deviate::<LitsFamily>(&l1, &d1, &l2, &d2, DiffFn::Absolute, AggFn::Sum).value;
    let max = deviate::<LitsFamily>(&l1, &d1, &l2, &d2, DiffFn::Absolute, AggFn::Max).value;
    assert!((sum - 1.25).abs() < 1e-12, "got {sum}");
    assert!((max - 0.4).abs() < 1e-12, "got {max}");
}

#[test]
fn figure6_upper_bound_uses_model_supports_only() {
    // δ* replaces the cross-supports (which the models do not know) by 0:
    // a: |0.5−0| = 0.5 wait — a IS only in L1, so 0.5; b in both: |0.4−0.3|
    // = 0.1; c only in L2: 0.5; ab only in L1: 0.25; bc only in L2: 0.2.
    // δ*(sum) = 0.5 + 0.1 + 0.5 + 0.25 + 0.2 = 1.55 ≥ δ = 1.25. ✓
    let (d1, d2, l1, l2) = figure6();
    let bound = lits_upper_bound(&l1, &l2, AggFn::Sum);
    assert!((bound - 1.55).abs() < 1e-12, "got {bound}");
    let exact = deviate::<LitsFamily>(&l1, &d1, &l2, &d2, DiffFn::Absolute, AggFn::Sum).value;
    assert!(bound >= exact);
}

#[test]
fn section2_4_deviation_comparability() {
    // "Suppose the deviation between D1 and D2 is 0.005 and between D1 and
    // D3 is 0.01 — D1 and D2 are more similar." Deviations from a common
    // reference dataset are directly comparable; verify the ordering holds
    // between a near-identical and a shifted dataset.
    let (d1, _, l1, _) = figure6();
    // D2': identical process (same distribution as d1).
    let d2 = d1.clone();
    let l2 = induce_lits_measures(l1.itemsets().to_vec(), 0.25, &d2);
    // D3: b and c swap roles.
    let (_, d3, _, l3) = figure6();
    let dev_same = deviate::<LitsFamily>(&l1, &d1, &l2, &d2, DiffFn::Absolute, AggFn::Sum).value;
    let dev_diff = deviate::<LitsFamily>(&l1, &d1, &l3, &d3, DiffFn::Absolute, AggFn::Sum).value;
    assert_eq!(dev_same, 0.0);
    assert!(dev_diff > dev_same);
}
