//! Workload inputs: generated from the run seed with the `focus-data`
//! generators and written to files, which are all the CLI is given.
//!
//! The pattern tables (the generating processes) are fixed per workload;
//! the seed and the set number pick the data seeds. A run cycles through
//! several input sets, because the time of one command differs a lot
//! between samples of one process. On a 2-core x86-64 host, mining eight
//! 10k samples of one process took 0.48–0.80 s (IQR/median 0.38), and
//! eight copies of one file 0.76–0.81 s. The likely cause: `mine` splits
//! the transactions into one contiguous block per thread, and the DFS cost
//! of a transaction grows steeply with its length, so where the long ones
//! fall sets the slower block. A run's median over rounds on several sets
//! averages that out; rounds on one set cannot.

use focus_data::classify::{ClassifyFn, ClassifyGen};
use focus_data::io::{write_labeled_table, write_transactions};
use focus_data::{AssocGen, AssocGenParams};
use focus_exec::derive_seed;
use std::fs::File;
use std::path::{Path, PathBuf};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    LitsPair,
    LitsAtlas,
    BoxAtlas,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::LitsPair, Workload::LitsAtlas, Workload::BoxAtlas];

    pub fn name(self) -> &'static str {
        match self {
            Workload::LitsPair => "lits_pair",
            Workload::LitsAtlas => "lits_atlas",
            Workload::BoxAtlas => "box_atlas",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Input sizes. `Full` is the benchmark; `Tiny` keeps every op and every
/// check but finishes in seconds, for the benchmark's own tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    Full,
    Tiny,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spec {
    /// Transactions per dataset of the `lits_pair` deviate pair.
    pub pair_rows: usize,
    pub minsup: f64,
    /// Transactions per dataset of the `lits_pair` qualify pair.
    pub qualify_rows: usize,
    pub qualify_minsup: f64,
    pub reps: usize,
    /// Transactions per `lits_atlas` snapshot.
    pub snapshot_rows: usize,
    /// Rows per `box_atlas` table.
    pub table_rows: usize,
}

/// Snapshots per atlas family, and the `--top` cut of `lits_atlas`.
pub const LITS_SNAPSHOTS: usize = 8;
pub const BOX_SNAPSHOTS: usize = 6;
pub const TOP: usize = 8;
pub const CLUSTERS: usize = 5;
pub const NOISE: f64 = 0.05;
const PATS: usize = 200;
const PATLEN: f64 = 4.0;
/// Two pattern tables with similar itemset counts at minsup 0.01 (about
/// 10k each on 10k transactions) but different patterns, so a pair of
/// them deviates and an atlas alternating between them has two clusters
/// for δ* screening to find.
const PATTERN_SEEDS: [u64; 2] = [1, 4];

impl Shape {
    /// How many input sets a `--trace 0` run cycles through. A set costs
    /// its generation and an in-process reference pass, which for the box
    /// workload is as long as a CLI round, so it gets fewer.
    pub fn input_sets(self, workload: Workload) -> usize {
        match (self, workload) {
            (Shape::Tiny, _) => 2,
            (Shape::Full, Workload::LitsPair) => 8,
            (Shape::Full, Workload::LitsAtlas) => 6,
            (Shape::Full, Workload::BoxAtlas) => 3,
        }
    }

    pub fn spec(self) -> Spec {
        match self {
            Shape::Full => Spec {
                pair_rows: 10_000,
                minsup: 0.01,
                qualify_rows: 5_000,
                qualify_minsup: 0.02,
                reps: 9,
                snapshot_rows: 10_000,
                table_rows: 20_000,
            },
            Shape::Tiny => Spec {
                pair_rows: 600,
                minsup: 0.05,
                qualify_rows: 400,
                qualify_minsup: 0.05,
                reps: 3,
                snapshot_rows: 400,
                table_rows: 600,
            },
        }
    }
}

/// The files of one workload and what they hold.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub dir: PathBuf,
    pub spec: Spec,
    /// `(file name, rows)` in generation order.
    pub files: Vec<(String, usize)>,
    /// The `--seed` passed to `qualify`.
    pub qualify_seed: u64,
}

impl Inputs {
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    pub fn total_rows(&self) -> usize {
        self.files.iter().map(|(_, n)| n).sum()
    }
}

fn assoc(
    dir: &Path,
    name: &str,
    rows: usize,
    pattern_seed: u64,
    seed: u64,
) -> std::io::Result<(String, usize)> {
    let data =
        AssocGen::new(AssocGenParams::paper(PATS, PATLEN), pattern_seed).generate(rows, seed);
    write_transactions(&data, File::create(dir.join(name))?)?;
    Ok((name.to_string(), data.len()))
}

fn table(
    dir: &Path,
    name: &str,
    rows: usize,
    function: ClassifyFn,
    seed: u64,
) -> std::io::Result<(String, usize)> {
    let data = ClassifyGen::new(function).noise(NOISE).generate(rows, seed);
    write_labeled_table(&data, File::create(dir.join(name))?)?;
    Ok((name.to_string(), data.len()))
}

pub fn lits_snapshot(i: usize) -> String {
    format!("s{i}")
}

pub fn dt_snapshot(i: usize) -> String {
    format!("t{i}")
}

pub fn cluster_snapshot(i: usize) -> String {
    format!("c{i}")
}

/// Generates input set `set` of `workload` from `seed` into `dir`
/// (created if missing). The same seed and set write byte-identical files.
pub fn generate(
    workload: Workload,
    shape: Shape,
    seed: u64,
    set: usize,
    dir: &Path,
) -> std::io::Result<Inputs> {
    std::fs::create_dir_all(dir)?;
    let spec = shape.spec();
    let set_seed = derive_seed(seed, set as u64);
    let s = |k: u64| derive_seed(set_seed, k);
    let mut files = Vec::new();
    match workload {
        Workload::LitsPair => {
            let [pa, pb] = PATTERN_SEEDS;
            files.push(assoc(dir, "a.txt", spec.pair_rows, pa, s(0))?);
            files.push(assoc(dir, "b.txt", spec.pair_rows, pb, s(1))?);
            // Both qualify datasets come from one process: the null
            // hypothesis the bootstrap tests.
            files.push(assoc(dir, "qa.txt", spec.qualify_rows, pa, s(2))?);
            files.push(assoc(dir, "qb.txt", spec.qualify_rows, pa, s(3))?);
        }
        Workload::LitsAtlas => {
            for i in 0..LITS_SNAPSHOTS {
                let name = format!("{}.txt", lits_snapshot(i));
                let pattern = PATTERN_SEEDS[i % 2];
                files.push(assoc(
                    dir,
                    &name,
                    spec.snapshot_rows,
                    pattern,
                    s(10 + i as u64),
                )?);
            }
        }
        Workload::BoxAtlas => {
            // F1–F3 in rotation: three class functions, each seen twice.
            for i in 0..BOX_SNAPSHOTS {
                let f = ClassifyFn::ALL[i % 3];
                let name = format!("{}.tbl", dt_snapshot(i));
                files.push(table(dir, &name, spec.table_rows, f, s(20 + i as u64))?);
            }
            for i in 0..BOX_SNAPSHOTS {
                let f = ClassifyFn::ALL[i % 3];
                let name = format!("{}.tbl", cluster_snapshot(i));
                files.push(table(dir, &name, spec.table_rows, f, s(40 + i as u64))?);
            }
        }
    }
    Ok(Inputs {
        dir: dir.to_path_buf(),
        spec,
        files,
        qualify_seed: s(5) % 1_000_000,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read_all(inputs: &Inputs) -> Vec<Vec<u8>> {
        inputs
            .files
            .iter()
            .map(|(name, _)| std::fs::read(inputs.path(name)).unwrap())
            .collect()
    }

    #[test]
    fn same_seed_same_bytes_other_seed_or_set_other_bytes() {
        let root = std::env::temp_dir().join(format!("pipebench-inputs-{}", std::process::id()));
        for w in Workload::ALL {
            let a = generate(w, Shape::Tiny, 7, 0, &root.join("a")).unwrap();
            let b = generate(w, Shape::Tiny, 7, 0, &root.join("b")).unwrap();
            let fa = read_all(&a);
            assert!(!fa.is_empty());
            assert_eq!(
                fa,
                read_all(&b),
                "{}: same seed must give identical files",
                w.name()
            );
            assert_eq!(a.qualify_seed, b.qualify_seed);
            for (seed, set) in [(8, 0), (7, 1)] {
                let c = generate(w, Shape::Tiny, seed, set, &root.join("c")).unwrap();
                for (x, z) in fa.iter().zip(&read_all(&c)) {
                    assert_ne!(
                        x,
                        z,
                        "{}: seed {seed} set {set} must give other files",
                        w.name()
                    );
                }
            }
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
