//! Registry storage-tier baseline — records `BENCH_registry.json`.
//!
//! Two regimes:
//!
//! * **load** — one lits snapshot (transactions + mined model) per scale,
//!   persisted as text and as the binary columnar format, then loaded
//!   back through each storage path: the text readers, an owned
//!   `read`-to-`Vec` binary decode, and the memory-mapped zero-copy
//!   decode ([`focus_registry::MappedBytes::open`]). Every decoded
//!   artifact is equality-checked against the text-loaded baseline
//!   before its timing is accepted.
//! * **matrix** — the same snapshot collection in a classic flat/text
//!   registry, a flat/binary one and a sharded/binary one, timing
//!   [`Registry::matrix_of`] end to end (manifest + model + dataset IO
//!   plus the deviation scans) and asserting identical scan/prune
//!   counts across tiers.
//!
//! JSON lines go to stdout (redirect into `BENCH_registry.json`); the
//! human-readable table goes to stderr. `speedup` is text-load seconds
//! over this row's seconds, so the acceptance bar — binary and mmap
//! loads at least 5× faster than text at the largest scale — can be
//! read straight off the largest-scale rows.

use focus_bench::{git_commit, timed, ExpConfig};
use focus_core::data::TransactionSet;
use focus_core::family::LitsFamily;
use focus_core::model::LitsModel;
use focus_core::persist::{read_lits_model, write_lits_model};
use focus_data::assoc::{AssocGen, AssocGenParams};
use focus_data::io::{read_transactions, write_transactions};
use focus_exec::Parallelism;
use focus_mining::{Apriori, AprioriParams};
use focus_registry::binfmt::{
    decode_lits_model, decode_transactions, encode_lits_model, encode_transactions,
};
use focus_registry::{
    mmap_active, MappedBytes, MatrixParams, Registry, RegistryLayout, StorageFormat,
};
use std::fs::File;
use std::path::{Path, PathBuf};

const MINSUP: f64 = 0.05;

struct Row {
    regime: &'static str,
    format: &'static str,
    txns: usize,
    bytes: u64,
    secs: f64,
    speedup: f64,
}

fn scratch() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("focus-registry-baseline-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).expect("clear scratch dir");
    }
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn snapshot(n_txns: usize, pattern_seed: u64, seed: u64) -> (TransactionSet, LitsModel) {
    let data = AssocGen::new(AssocGenParams::paper(500, 4.0), pattern_seed).generate(n_txns, seed);
    let model = Apriori::new(AprioriParams::with_minsup(MINSUP).max_len(6)).mine(&data);
    (data, model)
}

/// Best-of-`samples` minimum of a load routine, checking each result
/// against the in-memory originals so a wrong read can never post a time.
fn best_of(
    samples: usize,
    data: &TransactionSet,
    model: &LitsModel,
    load: impl Fn() -> (TransactionSet, LitsModel),
) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..samples.max(1) {
        let ((d, m), secs) = timed(&load);
        assert_eq!(&d, data, "loaded dataset differs from the original");
        assert_eq!(&m, model, "loaded model differs from the original");
        best = best.min(secs);
    }
    best
}

/// The text vs binary vs mmap load comparison at one scale.
fn run_load(dir: &Path, n_txns: usize, samples: usize, rows: &mut Vec<Row>) {
    let (data, model) = snapshot(n_txns, 1, 100 + n_txns as u64);

    let data_txt = dir.join(format!("{n_txns}.txt"));
    let model_txt = dir.join(format!("{n_txns}.model"));
    write_transactions(&data, File::create(&data_txt).unwrap()).unwrap();
    write_lits_model(&model, File::create(&model_txt).unwrap()).unwrap();
    let data_bin = dir.join(format!("{n_txns}.bin"));
    let model_bin = dir.join(format!("{n_txns}.model.bin"));
    std::fs::write(&data_bin, encode_transactions(&data)).unwrap();
    std::fs::write(&model_bin, encode_lits_model(&model)).unwrap();

    let text_bytes = data_txt.metadata().unwrap().len() + model_txt.metadata().unwrap().len();
    let bin_bytes = data_bin.metadata().unwrap().len() + model_bin.metadata().unwrap().len();

    let text = best_of(samples, &data, &model, || {
        (
            read_transactions(File::open(&data_txt).unwrap()).unwrap(),
            read_lits_model(File::open(&model_txt).unwrap()).unwrap(),
        )
    });
    let owned = best_of(samples, &data, &model, || {
        (
            decode_transactions(&MappedBytes::read_owned(&data_bin).unwrap()).unwrap(),
            decode_lits_model(&MappedBytes::read_owned(&model_bin).unwrap()).unwrap(),
        )
    });
    let mmap = best_of(samples, &data, &model, || {
        (
            decode_transactions(&MappedBytes::open(&data_bin).unwrap()).unwrap(),
            decode_lits_model(&MappedBytes::open(&model_bin).unwrap()).unwrap(),
        )
    });

    for (format, bytes, secs) in [
        ("text", text_bytes, text),
        ("bin", bin_bytes, owned),
        ("mmap", bin_bytes, mmap),
    ] {
        rows.push(Row {
            regime: "load",
            format,
            txns: n_txns,
            bytes,
            secs,
            speedup: text / secs,
        });
    }
}

/// End-to-end `matrix_of` wall time over the three storage tiers.
fn run_matrix(dir: &Path, n_txns: usize, samples: usize, rows: &mut Vec<Row>) {
    let snapshots: Vec<(String, TransactionSet)> = (0..6u64)
        .map(|i| {
            let (data, _) = snapshot(n_txns, 1 + (i % 2) * 8, 200 + i);
            (format!("snap-{i}"), data)
        })
        .collect();
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
                shards: 4,
                format: StorageFormat::Binary,
            },
        ),
    ];
    let params = MatrixParams::default();
    let mut baseline: Option<(f64, usize, usize)> = None;
    for (tag, layout) in layouts {
        let root = dir.join(format!("reg-{tag}"));
        let mut reg = Registry::open_or_create_with(&root, layout).unwrap();
        for (name, data) in &snapshots {
            reg.add(name, data, MINSUP).unwrap();
        }
        let reg = Registry::open(&root).unwrap();
        let mut best = f64::INFINITY;
        let mut counts = (0, 0);
        for _ in 0..samples.max(1) {
            let (matrix, secs) = timed(|| reg.matrix_of::<LitsFamily>(&params).unwrap());
            counts = (matrix.scanned(), matrix.pruned());
            best = best.min(secs);
        }
        let (text_secs, scanned, pruned) = *baseline.get_or_insert((best, counts.0, counts.1));
        assert_eq!(
            counts,
            (scanned, pruned),
            "{tag}: matrix scan/prune counts diverge from the text tier"
        );
        rows.push(Row {
            regime: "matrix",
            format: tag,
            txns: n_txns * snapshots.len(),
            bytes: 0,
            secs: best,
            speedup: text_secs / best,
        });
    }
}

fn main() {
    let cfg = ExpConfig::parse(std::env::args().skip(1));
    let dir = scratch();

    // Paper-fraction scales: `--scale 0.02` (the default) makes the
    // largest snapshot 20K transactions of the paper's 1M-row base.
    let base = ((1_000_000.0 * cfg.scale) as usize).max(100);
    let scales = [base / 10, base / 3, base];

    let mut rows = Vec::new();
    for n in scales {
        run_load(&dir, n, cfg.samples, &mut rows);
    }
    run_matrix(&dir, base / 5, cfg.samples, &mut rows);
    std::fs::remove_dir_all(&dir).ok();

    // JSON lines to stdout (the `BENCH_registry.json` payload), the
    // human table to stderr so a redirect stays machine-readable.
    let threads = Parallelism::Global.threads();
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let commit = git_commit();
    eprintln!("mmap active: {}", mmap_active());
    eprintln!(
        "{:>8}  {:>12}  {:>8}  {:>9}  {:>10}  {:>8}",
        "Regime", "Format", "Txns", "Bytes", "Best s", "Speedup"
    );
    for r in &rows {
        println!(
            "{{\"bench\":\"registry\",\"regime\":\"{}\",\"format\":\"{}\",\"txns\":{},\
             \"bytes\":{},\"mmap_active\":{},\"secs\":{:.6},\"speedup\":{:.2},\
             \"threads\":{},\"cores\":{},\"commit\":\"{}\"}}",
            r.regime,
            r.format,
            r.txns,
            r.bytes,
            mmap_active(),
            r.secs,
            r.speedup,
            threads,
            cores,
            commit
        );
        eprintln!(
            "{:>8}  {:>12}  {:>8}  {:>9}  {:>10.6}  {:>8.2}",
            r.regime, r.format, r.txns, r.bytes, r.secs, r.speedup
        );
    }
}
