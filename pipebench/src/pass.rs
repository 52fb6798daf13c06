//! The in-process pass: each workload's CLI commands re-done through the
//! library's public functions, built exactly as `focus-cli` builds them,
//! with a span around every call.
//!
//! One pass serves two purposes. Its results, in the shapes the CLI parsers
//! return, are the reference every CLI op is checked against; its spans and
//! counts are the per-layer metrics of a traced run.

use crate::cli::{Cell, Deviated, Embedded, MatrixOut, Qualified, Registered};
use crate::inputs::{
    cluster_snapshot, dt_snapshot, lits_snapshot, Inputs, Workload, BOX_SNAPSHOTS, CLUSTERS,
    LITS_SNAPSHOTS, TOP,
};
use crate::trace::Tracer;
use focus_cluster::{KMeans, KMeansParams};
use focus_core::bound::{cluster_upper_bound, dt_upper_bound, lits_upper_bound};
use focus_core::data::{LabeledTable, Table, TransactionSet};
use focus_core::deviation::deviate;
use focus_core::diff::{AggFn, DiffFn};
use focus_core::family::{ClusterFamily, DtFamily, LitsFamily};
use focus_core::gcr::{gcr_boxes, gcr_lits, gcr_partition};
use focus_core::model::LitsModel;
use focus_core::persist::write_lits_model;
use focus_core::qualify::qualify_transactions;
use focus_core::source::CountSource;
use focus_data::io::{read_labeled_table, read_table, read_transactions};
use focus_exec::{derive_seed, Parallelism};
use focus_mining::{Apriori, AprioriParams, CountBackend};
use focus_registry::{
    DeviationMatrix, MatrixParams, Registry, RegistryLayout, SnapshotEntry, SnapshotFamily,
    StorageFormat,
};
use focus_tree::{DecisionTree, TreeParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs::File;
use std::hint::black_box;
use std::path::Path;

/// What each CLI op of a workload must print.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Expect {
    /// One per `mine --out`, in op order: itemset count and the model
    /// file's bytes.
    pub mined: Vec<(u64, Vec<u8>)>,
    pub deviate: Option<Deviated>,
    pub qualify: Option<Qualified>,
    /// One per `registry-add`, in op order.
    pub added: Vec<Registered>,
    /// One per `matrix`, in op order.
    pub matrices: Vec<MatrixOut>,
    pub embed: Option<Embedded>,
}

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The miner `focus-cli` builds for `mine`, `deviate`, `qualify` and
/// `registry-add` (`max_len 10`, `min_count_floor 2`), with `backend` in
/// place of the CLI's default. Every backend mines the same model.
fn miner(minsup: f64, backend: CountBackend) -> Apriori {
    Apriori::new(
        AprioriParams::with_minsup(minsup)
            .max_len(10)
            .min_count_floor(2)
            .backend(backend),
    )
}

/// The tree parameters `focus-cli` uses for `--kind dt` without flags.
fn tree_params(rows: usize) -> TreeParams {
    TreeParams::default()
        .max_depth(10)
        .min_leaf((rows / 200).max(5))
}

/// `registry-add --format bin` on a new registry.
const BIN: RegistryLayout = RegistryLayout {
    shards: 0,
    format: StorageFormat::Binary,
};

fn read_txns(t: &mut Tracer, path: &Path) -> Res<TransactionSet> {
    t.span("focus-data.read_transactions_s", || {
        read_transactions(File::open(path)?)
    })
    .map_err(|e| format!("{}: {e}", path.display()))
}

fn read_labeled(t: &mut Tracer, path: &Path) -> Res<LabeledTable> {
    t.span("focus-data.read_labeled_table_s", || {
        read_labeled_table(File::open(path)?)
    })
    .map_err(|e| format!("{}: {e}", path.display()))
}

/// `--kind cluster` reads the same file format and drops the labels.
fn read_plain(t: &mut Tracer, path: &Path) -> Res<Table> {
    t.span("focus-data.read_labeled_table_s", || {
        read_table(File::open(path)?)
    })
    .map_err(|e| format!("{}: {e}", path.display()))
}

fn mine(t: &mut Tracer, m: &Apriori, data: &TransactionSet) -> LitsModel {
    let model = t.span("focus-mining.mine_s", || m.mine(data));
    t.count("focus-mining.itemsets", model.len() as u64);
    model
}

fn registered(e: &SnapshotEntry) -> Registered {
    Registered {
        name: e.name.clone(),
        kind: e.kind.to_string(),
        rows: e.n_rows,
        regions: e.n_regions,
    }
}

/// A matrix as `focus-cli matrix` lists it.
fn listed(m: &DeviationMatrix) -> MatrixOut {
    let names = m.names();
    let mut cells = Vec::new();
    for i in 0..m.len() {
        for j in (i + 1)..m.len() {
            cells.push(Cell {
                a: names[i].clone(),
                b: names[j].clone(),
                bound: m.bound(i, j),
                exact: m.exact(i, j),
            });
        }
    }
    MatrixOut {
        pairs: m.n_pairs() as u64,
        scanned: m.scanned() as u64,
        pruned: m.pruned() as u64,
        cells,
    }
}

fn params(threshold: f64, top: Option<usize>) -> MatrixParams {
    MatrixParams {
        threshold,
        top,
        ..MatrixParams::default()
    }
}

fn open(t: &mut Tracer, dir: &Path) -> Res<Registry> {
    t.span("focus-registry.open_s", || Registry::open(dir))
        .map_err(err)
}

fn open_or_create(t: &mut Tracer, dir: &Path) -> Res<Registry> {
    t.span("focus-registry.open_s", || {
        Registry::open_or_create_with(dir, BIN)
    })
    .map_err(err)
}

fn matrix_of<F: SnapshotFamily>(
    t: &mut Tracer,
    name: &'static str,
    reg: &Registry,
    p: MatrixParams,
) -> Res<DeviationMatrix> {
    t.span(name, || reg.matrix_of::<F>(&p)).map_err(err)
}

fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_bytes(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Counts `model`'s itemsets over `data` twice through one
/// [`CountSource`]: the first call pays whatever the cost model decides to
/// build, the second reuses it.
fn count_probe(t: &mut Tracer, model: &LitsModel, data: &TransactionSet) {
    let src = CountSource::borrowed(data);
    let par = Parallelism::Global;
    black_box(t.span("focus-core.source.counts_cold_s", || {
        src.counts(model.itemsets(), par)
    }));
    black_box(t.span("focus-core.source.counts_warm_s", || {
        src.counts(model.itemsets(), par)
    }));
    t.count(
        "focus-core.source.index_built",
        u64::from(src.index_built()),
    );
}

/// Runs one pass of `workload` over `inputs`, writing its own artifacts
/// under `out`. `CountBackend::default()` does exactly what the CLI does;
/// any other backend gives the same results faster or slower.
pub fn run(
    workload: Workload,
    inputs: &Inputs,
    out: &Path,
    t: &mut Tracer,
    backend: CountBackend,
) -> Res<Expect> {
    std::fs::create_dir_all(out).map_err(err)?;
    match workload {
        Workload::LitsPair => lits_pair(inputs, out, t, backend),
        Workload::LitsAtlas => lits_atlas(inputs, out, t, backend),
        Workload::BoxAtlas => box_atlas(inputs, out, t),
    }
}

/// The `lits_pair` inputs `mine --out` runs on, with their minimum
/// supports: the deviate pair, then the qualify pair.
pub fn lits_pair_mines(inputs: &Inputs) -> [(&'static str, f64); 4] {
    let spec = inputs.spec;
    [
        ("a", spec.minsup),
        ("b", spec.minsup),
        ("qa", spec.qualify_minsup),
        ("qb", spec.qualify_minsup),
    ]
}

fn lits_pair(inputs: &Inputs, out: &Path, t: &mut Tracer, backend: CountBackend) -> Res<Expect> {
    let spec = inputs.spec;
    let m = miner(spec.minsup, backend);
    let mut expect = Expect::default();
    for (name, minsup) in lits_pair_mines(inputs) {
        let model_path = out.join(format!("{name}.model"));
        let itemsets = t.op("mine", |t| -> Res<u64> {
            let data = read_txns(t, &inputs.path(&format!("{name}.txt")))?;
            let model = mine(t, &miner(minsup, backend), &data);
            t.span("focus-core.persist.write_lits_model_s", || {
                write_lits_model(&model, File::create(&model_path)?)
            })
            .map_err(err)?;
            Ok(model.len() as u64)
        })?;
        expect
            .mined
            .push((itemsets, std::fs::read(&model_path).map_err(err)?));
    }

    let (a, ma, mb, deviated) = t.op("deviate", |t| -> Res<_> {
        let a = read_txns(t, &inputs.path("a.txt"))?;
        let b = read_txns(t, &inputs.path("b.txt"))?;
        let ma = mine(t, &m, &a);
        let mb = mine(t, &m, &b);
        let dev = t.span("focus-core.deviate_s", || {
            deviate::<LitsFamily>(&ma, &a, &mb, &b, DiffFn::Absolute, AggFn::Sum)
        });
        let deviated = Deviated {
            value: dev.value,
            regions: dev.gcr.len() as u64,
            itemsets: (ma.len() as u64, mb.len() as u64),
        };
        Ok((a, ma, mb, deviated))
    })?;

    let qm = miner(spec.qualify_minsup, backend);
    let pipeline = |x: &TransactionSet, y: &TransactionSet| {
        let mx = qm.mine(x);
        let my = qm.mine(y);
        deviate::<LitsFamily>(&mx, x, &my, y, DiffFn::Absolute, AggFn::Sum).value
    };
    let seed = inputs.qualify_seed;
    let (qa, qb, qualified) = t.op("qualify", |t| -> Res<_> {
        let qa = read_txns(t, &inputs.path("qa.txt"))?;
        let qb = read_txns(t, &inputs.path("qb.txt"))?;
        let m1 = mine(t, &qm, &qa);
        let m2 = mine(t, &qm, &qb);
        let observed = t.span("focus-core.deviate_s", || {
            deviate::<LitsFamily>(&m1, &qa, &m2, &qb, DiffFn::Absolute, AggFn::Sum).value
        });
        let q = t.span("focus-core.qualify_s", || {
            qualify_transactions(&qa, &qb, observed, spec.reps, seed, pipeline)
        });
        let qualified = Qualified {
            deviation: observed,
            significance: q.significance_percent,
        };
        Ok((qa, qb, qualified))
    })?;

    // Probes: one layer each, outside any op.
    count_probe(t, &ma, &a);
    let gcr = t.span("focus-core.gcr_lits_s", || {
        gcr_lits(ma.itemsets(), mb.itemsets())
    });
    t.count("focus-core.gcr_regions", gcr.len() as u64);
    // Replicate 0 of the bootstrap, drawn as `qualify_transactions` draws it.
    let (r1, r2) = t.span("focus-core.resample_s", || {
        let pool = qa.concat(&qb);
        let mut rng = StdRng::seed_from_u64(derive_seed(seed, 0));
        let i1: Vec<usize> = (0..qa.len())
            .map(|_| rng.gen_range(0..pool.len()))
            .collect();
        let i2: Vec<usize> = (0..qb.len())
            .map(|_| rng.gen_range(0..pool.len()))
            .collect();
        (pool.subset(&i1), pool.subset(&i2))
    });
    black_box(t.span("focus-core.qualify.replicate_s", || pipeline(&r1, &r2)));

    expect.deviate = Some(deviated);
    expect.qualify = Some(qualified);
    Ok(expect)
}

fn lits_atlas(inputs: &Inputs, out: &Path, t: &mut Tracer, backend: CountBackend) -> Res<Expect> {
    let m = miner(inputs.spec.minsup, backend);
    let reg_dir = out.join("reg");
    let mut expect = Expect::default();
    for i in 0..LITS_SNAPSHOTS {
        let name = lits_snapshot(i);
        let entry = t.op("registry-add", |t| -> Res<Registered> {
            let mut reg = open_or_create(t, &reg_dir)?;
            let data = read_txns(t, &inputs.path(&format!("{name}.txt")))?;
            let model = mine(t, &m, &data);
            t.span("focus-registry.add_with_model_s", || {
                reg.add_with_model(&name, &data, &model).map(registered)
            })
            .map_err(err)
        })?;
        expect.added.push(entry);
    }
    t.count("focus-registry.bytes", dir_bytes(&reg_dir).map_err(err)?);

    let full = t.op("matrix", |t| {
        let reg = open(t, &reg_dir)?;
        matrix_of::<LitsFamily>(t, "focus-registry.matrix_full_s", &reg, params(0.0, None))
    })?;
    let top = t.op("matrix-top", |t| {
        let reg = open(t, &reg_dir)?;
        matrix_of::<LitsFamily>(
            t,
            "focus-registry.matrix_top_s",
            &reg,
            params(0.0, Some(TOP)),
        )
    })?;
    // lits δ* is a metric, so `embed` runs off the bound grid alone.
    let embedded = t.op("embed", |t| -> Res<Embedded> {
        let reg = open(t, &reg_dir)?;
        let grid = matrix_of::<LitsFamily>(
            t,
            "focus-registry.matrix_bounds_only_s",
            &reg,
            params(f64::INFINITY, None),
        )?;
        let coords = t
            .span("focus-core.embed_s", || grid.embed(2))
            .map_err(err)?;
        let stress = t
            .span("focus-core.stress_s", || grid.stress(&coords))
            .map_err(err)?;
        let points = grid.names().iter().cloned().zip(coords).collect();
        Ok(Embedded { points, stress })
    })?;
    t.count("focus-registry.pairs_scanned", top.scanned() as u64);
    t.count("focus-registry.pairs_pruned", top.pruned() as u64);
    expect.matrices = vec![listed(&full), listed(&top)];
    expect.embed = Some(embedded);

    // Probes: loads, bounds and counting in isolation.
    let reg = Registry::open(&reg_dir).map_err(err)?;
    let names: Vec<String> = (0..LITS_SNAPSHOTS).map(lits_snapshot).collect();
    let mut models = Vec::new();
    for n in &names {
        models.push(
            t.span("focus-registry.load_model_s", || reg.load_model(n))
                .map_err(err)?,
        );
    }
    let mut first = None;
    for n in &names {
        let d = t
            .span("focus-registry.load_dataset_s", || reg.load_dataset(n))
            .map_err(err)?;
        first.get_or_insert(d);
    }
    t.span("focus-core.bound_lits_s", || {
        for i in 0..models.len() {
            for j in (i + 1)..models.len() {
                black_box(lits_upper_bound(&models[i], &models[j], AggFn::Sum));
            }
        }
    });
    count_probe(t, &models[0], &first.expect("at least one snapshot"));
    Ok(expect)
}

fn box_atlas(inputs: &Inputs, out: &Path, t: &mut Tracer) -> Res<Expect> {
    let reg_dir = out.join("reg");
    let mut expect = Expect::default();
    for i in 0..BOX_SNAPSHOTS {
        let name = dt_snapshot(i);
        let entry = t.op("registry-add-dt", |t| -> Res<Registered> {
            let mut reg = open_or_create(t, &reg_dir)?;
            let data = read_labeled(t, &inputs.path(&format!("{name}.tbl")))?;
            let model = t.span("focus-tree.fit_s", || {
                DecisionTree::fit(&data, tree_params(data.len())).to_model()
            });
            t.count("focus-tree.leaves", model.leaves().len() as u64);
            t.span("focus-registry.add_snapshot_dt_s", || {
                reg.add_snapshot::<DtFamily>(&name, &data, &model)
                    .map(registered)
            })
            .map_err(err)
        })?;
        expect.added.push(entry);
    }
    for i in 0..BOX_SNAPSHOTS {
        let name = cluster_snapshot(i);
        let entry = t.op("registry-add-cluster", |t| -> Res<Registered> {
            let mut reg = open_or_create(t, &reg_dir)?;
            let data = read_plain(t, &inputs.path(&format!("{name}.tbl")))?;
            // `focus-cli` seeds k-means with 0 unless `--seed` is given.
            let model = t.span("focus-cluster.kmeans_fit_s", || {
                KMeans::new(KMeansParams::new(CLUSTERS).seed(0))
                    .fit(&data)
                    .to_model(&data)
            });
            t.span("focus-registry.add_snapshot_cluster_s", || {
                reg.add_snapshot::<ClusterFamily>(&name, &data, &model)
                    .map(registered)
            })
            .map_err(err)
        })?;
        expect.added.push(entry);
    }
    t.count("focus-registry.bytes", dir_bytes(&reg_dir).map_err(err)?);

    let dt = t.op("matrix-dt", |t| {
        let reg = open(t, &reg_dir)?;
        matrix_of::<DtFamily>(t, "focus-registry.matrix_full_s", &reg, params(0.0, None))
    })?;
    let cluster = t.op("matrix-cluster", |t| {
        let reg = open(t, &reg_dir)?;
        matrix_of::<ClusterFamily>(t, "focus-registry.matrix_full_s", &reg, params(0.0, None))
    })?;
    for m in [&dt, &cluster] {
        t.count("focus-registry.pairs_scanned", m.scanned() as u64);
        t.count("focus-registry.pairs_pruned", m.pruned() as u64);
    }
    expect.matrices = vec![listed(&dt), listed(&cluster)];

    // Probes: loads, bounds, the bound-only screen and the GCR overlays.
    let reg = Registry::open(&reg_dir).map_err(err)?;
    let dt_names: Vec<String> = (0..BOX_SNAPSHOTS).map(dt_snapshot).collect();
    let cl_names: Vec<String> = (0..BOX_SNAPSHOTS).map(cluster_snapshot).collect();
    let mut dt_models = Vec::new();
    let mut cl_models = Vec::new();
    for n in &dt_names {
        let model = t.span("focus-registry.load_model_s", || {
            reg.load_snapshot_model::<DtFamily>(n)
        });
        dt_models.push(model.map_err(err)?);
    }
    for n in &cl_names {
        let model = t.span("focus-registry.load_model_s", || {
            reg.load_snapshot_model::<ClusterFamily>(n)
        });
        cl_models.push(model.map_err(err)?);
    }
    for n in &dt_names {
        let d = t.span("focus-registry.load_dataset_s", || {
            reg.load_snapshot_dataset::<DtFamily>(n)
        });
        black_box(d.map_err(err)?);
    }
    for n in &cl_names {
        let d = t.span("focus-registry.load_dataset_s", || {
            reg.load_snapshot_dataset::<ClusterFamily>(n)
        });
        black_box(d.map_err(err)?);
    }
    let pairs = |n: usize| (0..n).flat_map(move |i| ((i + 1)..n).map(move |j| (i, j)));
    t.span("focus-core.bound_dt_s", || {
        for (i, j) in pairs(dt_models.len()) {
            black_box(dt_upper_bound(&dt_models[i], &dt_models[j], AggFn::Sum));
        }
    });
    t.span("focus-core.bound_cluster_s", || {
        for (i, j) in pairs(cl_models.len()) {
            black_box(cluster_upper_bound(
                &cl_models[i],
                &cl_models[j],
                AggFn::Sum,
            ));
        }
    });
    let inf = params(f64::INFINITY, None);
    black_box(matrix_of::<DtFamily>(
        t,
        "focus-registry.matrix_bounds_only_s",
        &reg,
        inf,
    )?);
    black_box(matrix_of::<ClusterFamily>(
        t,
        "focus-registry.matrix_bounds_only_s",
        &reg,
        inf,
    )?);
    let cells = t.span("focus-core.gcr_partition_s", || {
        pairs(dt_models.len())
            .map(|(i, j)| gcr_partition(dt_models[i].leaves(), dt_models[j].leaves()).len())
            .sum::<usize>()
    });
    t.count("focus-core.gcr_cells", cells as u64);
    let boxes = t.span("focus-core.gcr_boxes_s", || {
        pairs(cl_models.len())
            .map(|(i, j)| gcr_boxes(cl_models[i].clusters(), cl_models[j].clusters()).len())
            .sum::<usize>()
    });
    t.count("focus-core.gcr_boxes", boxes as u64);
    Ok(expect)
}
