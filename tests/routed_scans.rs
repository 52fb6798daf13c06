//! Differential testing of the routed measure scans.
//!
//! The dt and cluster measure scans do not test every region against every
//! row. A dt scan descends each model's [`LeafIndex`] to the row's leaf; a
//! cluster scan tests the row against the two models' boxes once and
//! credits GCR regions through the GCR's origin tables. Both must return
//! exactly the counts of the brute-force definitions written out here:
//!
//! * the first leaf of a list that contains a row (`position`), for every
//!   leaf list — tree partitions, overlapping lists, degenerate boxes;
//! * the number of rows inside each GCR region, region by region, for
//!   overlapping box families with categorical attributes, rows on
//!   interval endpoints, NaN values, degenerate boxes, class-pinned boxes
//!   and focussed GCRs.

use focus::core::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// The thread counts the scans are checked at.
const THREADS: [usize; 4] = [1, 2, 4, 7];

fn schema() -> Arc<Schema> {
    Arc::new(Schema::new(vec![
        Schema::numeric("x"),
        Schema::numeric("y"),
        Schema::categorical("c", 5),
    ]))
}

/// A random box on the integer grid `0..=10` (so rows land on its
/// endpoints), sometimes unbounded on a side, sometimes degenerate.
fn random_box(rng: &mut StdRng, schema: &Arc<Schema>) -> BoxRegion {
    let mut b = BoxRegion::full(schema);
    for attr in 0..2 {
        if rng.gen_bool(0.2) {
            continue;
        }
        let lo = f64::from(rng.gen_range(0..10u32));
        let hi = lo + f64::from(rng.gen_range(1..7u32));
        b.constraints[attr] = AttrConstraint::Interval {
            lo: if rng.gen_bool(0.1) {
                f64::NEG_INFINITY
            } else {
                lo
            },
            hi: if rng.gen_bool(0.1) { f64::INFINITY } else { hi },
        };
    }
    if rng.gen_bool(0.5) {
        let codes: Vec<u32> = (0..5).filter(|_| rng.gen_bool(0.5)).collect();
        b.constraints[2] = AttrConstraint::Cats(CatMask::of(5, &codes));
    }
    if rng.gen_bool(0.05) {
        // Degenerate: admits no row at all.
        b.constraints[0] = AttrConstraint::Interval { lo: 4.0, hi: 4.0 };
    }
    b
}

/// A random row on the grid: integers hit box endpoints, halves fall
/// inside, and some numeric values are NaN.
fn random_row(rng: &mut StdRng) -> Vec<Value> {
    let mut num = || {
        if rng.gen_bool(0.05) {
            f64::NAN
        } else {
            f64::from(rng.gen_range(0..25u32)) / 2.0 - 0.5
        }
    };
    let (x, y) = (num(), num());
    vec![
        Value::Num(x),
        Value::Num(y),
        Value::Cat(rng.gen_range(0..5)),
    ]
}

fn random_table(rng: &mut StdRng, schema: &Arc<Schema>, n: usize) -> Table {
    let mut t = Table::new(Arc::clone(schema));
    for _ in 0..n {
        t.push_row(&random_row(rng));
    }
    t
}

/// A random guillotine partition of the attribute space: the leaves of a
/// random tree of numeric and categorical splits, in shuffled order.
fn random_partition(rng: &mut StdRng, schema: &Arc<Schema>, depth: u32) -> Vec<BoxRegion> {
    let mut leaves = Vec::new();
    let mut open = vec![(BoxRegion::full(schema), 0u32)];
    while let Some((b, d)) = open.pop() {
        if d == depth || rng.gen_bool(0.2) {
            leaves.push(b);
            continue;
        }
        let attr = rng.gen_range(0..3usize);
        let (mut left, mut right) = (b.clone(), b.clone());
        match &b.constraints[attr] {
            AttrConstraint::Interval { lo, hi } => {
                let v = f64::from(rng.gen_range(0..11u32));
                if !(*lo < v && v < *hi) {
                    leaves.push(b);
                    continue;
                }
                left.constraints[attr] = AttrConstraint::Interval { lo: *lo, hi: v };
                right.constraints[attr] = AttrConstraint::Interval { lo: v, hi: *hi };
            }
            AttrConstraint::Cats(mask) => {
                let codes: Vec<u32> = mask.iter().collect();
                if codes.len() < 2 {
                    leaves.push(b);
                    continue;
                }
                let split = rng.gen_range(1..codes.len());
                left.constraints[attr] = AttrConstraint::Cats(CatMask::of(5, &codes[..split]));
                right.constraints[attr] = AttrConstraint::Cats(CatMask::of(5, &codes[split..]));
            }
        }
        open.push((left, d + 1));
        open.push((right, d + 1));
    }
    for i in (1..leaves.len()).rev() {
        leaves.swap(i, rng.gen_range(0..i + 1));
    }
    leaves
}

/// The brute-force count of every region: one containment test per
/// (row, region).
fn every_region_counts(data: &Table, regions: &[BoxRegion]) -> Vec<f64> {
    regions
        .iter()
        .map(|r| data.rows().filter(|row| r.contains(row)).count() as f64)
        .collect()
}

/// `k` random boxes; with `classes`, each box is pinned to class 0 or 1,
/// so boxes of different classes do not intersect and neither takes rows
/// from the other's remainder.
fn cluster_model(rng: &mut StdRng, schema: &Arc<Schema>, k: usize, classes: bool) -> ClusterModel {
    let boxes: Vec<BoxRegion> = (0..k)
        .map(|_| {
            let b = random_box(rng, schema);
            if classes {
                b.with_class(rng.gen_range(0..2))
            } else {
                b
            }
        })
        .collect();
    ClusterModel::new(boxes, vec![1.0 / k as f64; k], 100)
}

/// Checks the routed cluster scan against the every-region oracle on one
/// GCR, at every thread count.
fn check_cluster_scan(
    gcr: &ClusterGcr,
    m1: &ClusterModel,
    m2: &ClusterModel,
    data: &Table,
) -> Result<(), TestCaseError> {
    let want = every_region_counts(data, gcr.regions());
    for t in THREADS {
        let got = ClusterFamily::measures(gcr, m1, m2, &data, Side::Left, Parallelism::Threads(t));
        prop_assert_eq!(&got, &want, "threads = {}", t);
    }
    Ok(())
}

/// Checks `LeafIndex::locate` against a first-match linear scan on random
/// rows, including out-of-range categorical codes.
fn check_locate(leaves: &[BoxRegion], rng: &mut StdRng) -> Result<(), TestCaseError> {
    let index = LeafIndex::new(leaves);
    for _ in 0..300 {
        let mut row = random_row(rng);
        if rng.gen_bool(0.05) {
            row[2] = Value::Cat(7);
        }
        let want = leaves.iter().position(|l| l.contains(&row));
        prop_assert_eq!(index.locate(leaves, &row), want, "row {:?}", row);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Routed cluster counts equal the every-region oracle on plain and
    /// focussed GCRs of random overlapping box families.
    #[test]
    fn routed_cluster_counts_match_every_region_oracle(seed in 0u64..1_000_000,
                                                       k1 in 1usize..6, k2 in 1usize..6,
                                                       n in 0usize..400) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = schema();
        let classes = rng.gen_bool(0.3);
        let m1 = cluster_model(&mut rng, &s, k1, classes);
        let mut m2 = cluster_model(&mut rng, &s, k2, classes);
        if rng.gen_bool(0.3) {
            // Shared boxes: intersections equal to a model box.
            let mut boxes = m2.clusters().to_vec();
            boxes[0] = m1.clusters()[0].clone();
            m2 = ClusterModel::new(boxes, m2.measures().to_vec(), 100);
        }
        let data = random_table(&mut rng, &s, n);
        let gcr = ClusterFamily::gcr(&m1, &m2);
        check_cluster_scan(&gcr, &m1, &m2, &data)?;
        let focus = random_box(&mut rng, &s);
        check_cluster_scan(&ClusterFamily::restrict(gcr, &focus), &m1, &m2, &data)?;
        // The same family on both sides: every box meets itself.
        check_cluster_scan(&ClusterFamily::gcr(&m1, &m1), &m1, &m1, &data)?;
    }

    /// `LeafIndex` and `DtModel::locate` give the first matching leaf on
    /// random tree partitions and on overlapping leaf lists.
    #[test]
    fn leaf_index_matches_first_match_scan(seed in 0u64..1_000_000, depth in 0u32..6,
                                           n_boxes in 0usize..12) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = schema();
        let partition = random_partition(&mut rng, &s, depth);
        check_locate(&partition, &mut rng)?;
        let overlapping: Vec<BoxRegion> = (0..n_boxes).map(|_| random_box(&mut rng, &s)).collect();
        check_locate(&overlapping, &mut rng)?;

        let model = DtModel::new(partition.clone(), 2, vec![0.0; partition.len() * 2], 0);
        let mut data = LabeledTable::new(Arc::clone(&s), 2);
        for _ in 0..200 {
            data.push_row(&random_row(&mut rng), rng.gen_range(0..2));
        }
        let mut want = vec![0u64; partition.len() * 2];
        for (row, label) in data.rows() {
            let leaf = partition.iter().position(|l| l.contains(row));
            prop_assert_eq!(model.locate(row), leaf);
            if let Some(leaf) = leaf {
                want[leaf * 2 + label as usize] += 1;
            }
        }
        for t in THREADS {
            prop_assert_eq!(
                count_partition(&data, &partition, 2, Parallelism::Threads(t)),
                want.clone(),
                "threads = {}", t
            );
        }
    }

    /// Routed dt cell counts equal the every-cell oracle on the overlay of
    /// two random partitions, plain and focussed on a class-pinned box.
    #[test]
    fn routed_dt_counts_match_every_cell_oracle(seed in 0u64..1_000_000,
                                                d1 in 1u32..5, d2 in 1u32..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = schema();
        let leaves1 = random_partition(&mut rng, &s, d1);
        let leaves2 = random_partition(&mut rng, &s, d2);
        let mut data = LabeledTable::new(Arc::clone(&s), 3);
        for _ in 0..300 {
            data.push_row(&random_row(&mut rng), rng.gen_range(0..3));
        }
        let m1 = induce_dt_measures(leaves1, &data);
        let m2 = induce_dt_measures(leaves2, &data);
        let plain = DtFamily::gcr(&m1, &m2);
        let focus = random_box(&mut rng, &s).with_class(rng.gen_range(0..3));
        let focussed = DtFamily::restrict(plain.clone(), &focus);
        for gcr in [&plain, &focussed] {
            let mut want = vec![0.0; gcr.cells().len() * 3];
            for (idx, cell) in gcr.cells().iter().enumerate() {
                for (row, label) in data.rows() {
                    if cell.region.contains_labeled(row, label) {
                        want[idx * 3 + label as usize] += 1.0;
                    }
                }
            }
            for t in THREADS {
                let got = DtFamily::measures(gcr, &m1, &m2, &&data, Side::Right,
                                             Parallelism::Threads(t));
                prop_assert_eq!(&got, &want, "threads = {}", t);
            }
        }
    }
}
