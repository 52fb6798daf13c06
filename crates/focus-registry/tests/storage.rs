//! Storage-tier equivalence: the same snapshot collection persisted as
//! classic flat/text, flat/binary, and sharded/binary registries must
//! load bit-identical datasets and models, and must produce bit-identical
//! screened deviation matrices — for all three model families. This pins
//! the binary decoders to the text baseline.

use focus_core::data::{LabeledTable, Schema, Table, TransactionSet, Value};
use focus_core::family::{ClusterFamily, DtFamily, LitsFamily};
use focus_core::model::{induce_dt_measures, ClusterModel};
use focus_core::region::BoxBuilder;
use focus_registry::{DeviationMatrix, MatrixParams, Registry, RegistryLayout, StorageFormat};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::sync::Arc;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("focus-storage-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    dir
}

fn transactions(seed: u64, skew: f64) -> TransactionSet {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut ts = TransactionSet::new(8);
    for _ in 0..250 {
        let t: Vec<u32> = (0..8u32)
            .filter(|&i| rng.gen::<f64>() < 0.15 + skew * (i as f64 / 8.0) * 0.4)
            .collect();
        ts.push(t);
    }
    ts
}

fn dt_snapshot(boundary: f64, rows: usize) -> (LabeledTable, focus_core::model::DtModel) {
    let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
    let mut d = LabeledTable::new(Arc::clone(&schema), 2);
    for r in 0..rows {
        let x = r as f64;
        d.push_row(&[Value::Num(x)], u32::from(x < boundary));
    }
    let model = induce_dt_measures(
        vec![
            BoxBuilder::new(&schema).lt("x", boundary).build(),
            BoxBuilder::new(&schema).ge("x", boundary).build(),
        ],
        &d,
    );
    (d, model)
}

fn cluster_snapshot(split: f64, rows: usize) -> (Table, ClusterModel) {
    let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
    let mut t = Table::new(Arc::clone(&schema));
    for r in 0..rows {
        t.push_row(&[Value::Num(r as f64)]);
    }
    let below = (0..rows).filter(|&r| (r as f64) < split).count() as f64 / rows as f64;
    let clusters = vec![
        BoxBuilder::new(&schema).lt("x", split).build(),
        BoxBuilder::new(&schema).ge("x", split).build(),
    ];
    (
        t,
        ClusterModel::new(clusters, vec![below, 1.0 - below], rows as u64),
    )
}

/// Fills a registry with the same three snapshots of every family.
fn populate(reg: &mut Registry) {
    for (name, seed, skew) in [("t-a", 1, 0.0), ("t-b", 2, 0.4), ("t-c", 3, 1.0)] {
        reg.add(name, &transactions(seed, skew), 0.15).unwrap();
    }
    for (name, boundary, rows) in [("d-a", 30.0, 120), ("d-b", 45.0, 150), ("d-c", 90.0, 150)] {
        let (d, m) = dt_snapshot(boundary, rows);
        reg.add_snapshot::<DtFamily>(name, &d, &m).unwrap();
    }
    for (name, split, rows) in [("c-a", 20.0, 100), ("c-b", 50.0, 100), ("c-c", 75.0, 120)] {
        let (d, m) = cluster_snapshot(split, rows);
        reg.add_snapshot::<ClusterFamily>(name, &d, &m).unwrap();
    }
}

fn assert_matrices_identical(label: &str, a: &DeviationMatrix, b: &DeviationMatrix) {
    assert_eq!(a.names(), b.names(), "{label}: names");
    assert_eq!(a.scanned(), b.scanned(), "{label}: scanned");
    assert_eq!(a.pruned(), b.pruned(), "{label}: pruned");
    for i in 0..a.len() {
        for j in 0..a.len() {
            assert_eq!(
                a.bound(i, j).to_bits(),
                b.bound(i, j).to_bits(),
                "{label}: bound({i},{j})"
            );
            assert_eq!(
                a.exact(i, j).map(f64::to_bits),
                b.exact(i, j).map(f64::to_bits),
                "{label}: exact({i},{j})"
            );
        }
    }
}

#[test]
fn binary_and_sharded_registries_match_text_bit_for_bit() {
    let layouts = [
        ("text", RegistryLayout::flat_text()),
        (
            "bin",
            RegistryLayout {
                shards: 0,
                format: StorageFormat::Binary,
            },
        ),
        (
            "bin-sharded",
            RegistryLayout {
                shards: 3,
                format: StorageFormat::Binary,
            },
        ),
    ];
    let mut regs = Vec::new();
    for (tag, layout) in layouts {
        let dir = scratch(tag);
        let mut reg = Registry::open_or_create_with(&dir, layout).unwrap();
        populate(&mut reg);
        // Reopen through the public entry point so the on-disk state —
        // not the in-memory handle — is what's compared.
        regs.push((tag, dir, Registry::open(scratch_path(tag)).unwrap()));
    }
    let (_, _, text) = &regs[0];

    // Loaded artifacts are bit-identical to the text baseline.
    for (tag, _, reg) in &regs[1..] {
        assert_eq!(reg.entries(), text.entries(), "{tag}: entries");
        for e in text.entries() {
            match e.kind {
                focus_registry::SnapshotKind::Lits => {
                    assert_eq!(
                        reg.load_snapshot_dataset::<LitsFamily>(&e.name).unwrap(),
                        text.load_snapshot_dataset::<LitsFamily>(&e.name).unwrap(),
                        "{tag}: {} dataset",
                        e.name
                    );
                    assert_eq!(
                        reg.load_snapshot_model::<LitsFamily>(&e.name).unwrap(),
                        text.load_snapshot_model::<LitsFamily>(&e.name).unwrap(),
                        "{tag}: {} model",
                        e.name
                    );
                }
                focus_registry::SnapshotKind::Dt => {
                    assert_eq!(
                        reg.load_snapshot_dataset::<DtFamily>(&e.name).unwrap(),
                        text.load_snapshot_dataset::<DtFamily>(&e.name).unwrap(),
                        "{tag}: {} dataset",
                        e.name
                    );
                    assert_eq!(
                        reg.load_snapshot_model::<DtFamily>(&e.name).unwrap(),
                        text.load_snapshot_model::<DtFamily>(&e.name).unwrap(),
                        "{tag}: {} model",
                        e.name
                    );
                }
                focus_registry::SnapshotKind::Cluster => {
                    assert_eq!(
                        reg.load_snapshot_dataset::<ClusterFamily>(&e.name).unwrap(),
                        text.load_snapshot_dataset::<ClusterFamily>(&e.name)
                            .unwrap(),
                        "{tag}: {} dataset",
                        e.name
                    );
                    assert_eq!(
                        reg.load_snapshot_model::<ClusterFamily>(&e.name).unwrap(),
                        text.load_snapshot_model::<ClusterFamily>(&e.name).unwrap(),
                        "{tag}: {} model",
                        e.name
                    );
                }
            }
        }
    }

    // Deviation matrices — unscreened and screened — are bit-identical
    // over every storage tier, for all three families.
    for params in [
        MatrixParams::default(),
        MatrixParams {
            threshold: 0.3,
            ..MatrixParams::default()
        },
    ] {
        let label = format!("threshold {}", params.threshold);
        let lits = text.matrix_of::<LitsFamily>(&params).unwrap();
        let dt = text.matrix_of::<DtFamily>(&params).unwrap();
        let clu = text.matrix_of::<ClusterFamily>(&params).unwrap();
        for (tag, _, reg) in &regs[1..] {
            assert_matrices_identical(
                &format!("{tag} lits {label}"),
                &reg.matrix_of::<LitsFamily>(&params).unwrap(),
                &lits,
            );
            assert_matrices_identical(
                &format!("{tag} dt {label}"),
                &reg.matrix_of::<DtFamily>(&params).unwrap(),
                &dt,
            );
            assert_matrices_identical(
                &format!("{tag} cluster {label}"),
                &reg.matrix_of::<ClusterFamily>(&params).unwrap(),
                &clu,
            );
        }
    }

    for (_, dir, _) in regs {
        std::fs::remove_dir_all(dir).ok();
    }
}

/// `scratch` without the delete-if-exists step, for reopening.
fn scratch_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("focus-storage-{tag}-{}", std::process::id()))
}
