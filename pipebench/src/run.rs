//! One benchmark run: set up input set 0 and its in-process reference,
//! then either drive `focus-cli` in a closed loop over the workload's input
//! sets (`--trace 0`) or repeat the traced pass on set 0 (`--trace 1`), and
//! reduce what was measured to metrics.

use crate::cli::{
    parse_deviate, parse_embed, parse_matrix, parse_mined, parse_qualify, parse_registered, Cli,
    Embedded, MatrixOut, OpRun,
};
use crate::inputs::{
    cluster_snapshot, dt_snapshot, generate, lits_snapshot, Inputs, Shape, Workload, BOX_SNAPSHOTS,
    CLUSTERS, LITS_SNAPSHOTS, TOP,
};
use crate::pass::{self, Expect};
use crate::trace::Tracer;
use focus_mining::CountBackend;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Config {
    pub workload: Workload,
    pub shape: Shape,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub cli: Cli,
    /// Scratch directory for this run; removed when the run ends.
    pub dir: PathBuf,
}

/// A named value with its unit and the number of samples behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

#[derive(Debug, Clone)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// The metrics of the mode that ran: end-to-end or per-layer.
    pub metrics: Vec<Metric>,
    /// Per-command timings under the command names, for the record.
    pub ops: Vec<Metric>,
    /// Input sizes and work counts (rows, itemsets, regions, pairs).
    pub sizes: BTreeMap<String, u64>,
    pub errors: Vec<String>,
}

/// Which half of a round an op belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Model induction and persistence: `mine --out`, `registry-add`.
    Write,
    /// The comparison commands run over what was written.
    Query,
}

#[derive(Debug, Clone)]
enum Check {
    Mined(usize, PathBuf),
    Deviate,
    Qualify,
    Added(usize),
    Matrix(usize),
    Embed,
}

#[derive(Debug, Clone)]
struct Op {
    /// The per-command timing this op adds to (whole batch for ingests).
    label: &'static str,
    phase: Phase,
    args: Vec<String>,
    check: Check,
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn s(p: &Path) -> String {
    p.display().to_string()
}

fn args(list: &[&str]) -> Vec<String> {
    list.iter().map(|a| a.to_string()).collect()
}

/// The CLI commands of one closed-loop round, writing under `dir`.
fn round_ops(workload: Workload, inputs: &Inputs, dir: &Path) -> Vec<Op> {
    let spec = inputs.spec;
    let input = |name: &str| s(&inputs.path(name));
    let minsup = spec.minsup.to_string();
    let reg = s(&dir.join("reg"));
    let mut ops = Vec::new();
    match workload {
        Workload::LitsPair => {
            for (k, (name, ms)) in pass::lits_pair_mines(inputs).into_iter().enumerate() {
                let model = dir.join(format!("{name}.model"));
                ops.push(Op {
                    label: "mine_s",
                    phase: Phase::Write,
                    args: args(&[
                        "mine",
                        "--data",
                        &input(&format!("{name}.txt")),
                        "--minsup",
                        &ms.to_string(),
                        "--out",
                        &s(&model),
                    ]),
                    check: Check::Mined(k, model),
                });
            }
            ops.push(Op {
                label: "deviate_s",
                phase: Phase::Query,
                args: args(&[
                    "deviate",
                    "--d1",
                    &input("a.txt"),
                    "--d2",
                    &input("b.txt"),
                    "--minsup",
                    &minsup,
                ]),
                check: Check::Deviate,
            });
            ops.push(Op {
                label: "qualify_s",
                phase: Phase::Query,
                args: args(&[
                    "qualify",
                    "--d1",
                    &input("qa.txt"),
                    "--d2",
                    &input("qb.txt"),
                    "--minsup",
                    &spec.qualify_minsup.to_string(),
                    "--reps",
                    &spec.reps.to_string(),
                    "--seed",
                    &inputs.qualify_seed.to_string(),
                ]),
                check: Check::Qualify,
            });
        }
        Workload::LitsAtlas => {
            for i in 0..LITS_SNAPSHOTS {
                let name = lits_snapshot(i);
                ops.push(Op {
                    label: "ingest_lits_s",
                    phase: Phase::Write,
                    args: args(&[
                        "registry-add",
                        "--dir",
                        &reg,
                        "--data",
                        &input(&format!("{name}.txt")),
                        "--name",
                        &name,
                        "--format",
                        "bin",
                        "--minsup",
                        &minsup,
                    ]),
                    check: Check::Added(i),
                });
            }
            let top = TOP.to_string();
            let queries: [(&'static str, Vec<&str>, Check); 3] = [
                (
                    "matrix_lits_s",
                    vec!["matrix", "--dir", &reg],
                    Check::Matrix(0),
                ),
                (
                    "matrix_lits_top_s",
                    vec!["matrix", "--dir", &reg, "--top", &top],
                    Check::Matrix(1),
                ),
                (
                    "embed_lits_s",
                    vec!["embed", "--dir", &reg, "--k", "2"],
                    Check::Embed,
                ),
            ];
            for (label, a, check) in queries {
                ops.push(Op {
                    label,
                    phase: Phase::Query,
                    args: args(&a),
                    check,
                });
            }
        }
        Workload::BoxAtlas => {
            let clusters = CLUSTERS.to_string();
            for i in 0..BOX_SNAPSHOTS {
                let name = dt_snapshot(i);
                ops.push(Op {
                    label: "ingest_dt_s",
                    phase: Phase::Write,
                    args: args(&[
                        "registry-add",
                        "--dir",
                        &reg,
                        "--kind",
                        "dt",
                        "--data",
                        &input(&format!("{name}.tbl")),
                        "--name",
                        &name,
                        "--format",
                        "bin",
                    ]),
                    check: Check::Added(i),
                });
            }
            for i in 0..BOX_SNAPSHOTS {
                let name = cluster_snapshot(i);
                ops.push(Op {
                    label: "ingest_cluster_s",
                    phase: Phase::Write,
                    args: args(&[
                        "registry-add",
                        "--dir",
                        &reg,
                        "--kind",
                        "cluster",
                        "--clusters",
                        &clusters,
                        "--data",
                        &input(&format!("{name}.tbl")),
                        "--name",
                        &name,
                        "--format",
                        "bin",
                    ]),
                    check: Check::Added(BOX_SNAPSHOTS + i),
                });
            }
            for (k, (label, kind)) in [("matrix_dt_s", "dt"), ("matrix_cluster_s", "cluster")]
                .into_iter()
                .enumerate()
            {
                ops.push(Op {
                    label,
                    phase: Phase::Query,
                    args: args(&["matrix", "--dir", &reg, "--kind", kind]),
                    check: Check::Matrix(k),
                });
            }
        }
    }
    ops
}

/// Two printed numbers agree when they print the same at the CLI's
/// precision.
fn same(a: f64, b: f64, digits: usize) -> bool {
    format!("{a:.digits$}") == format!("{b:.digits$}")
}

fn agree(
    what: &str,
    ok: bool,
    cli: impl std::fmt::Debug,
    want: impl std::fmt::Debug,
) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("{what}: printed {cli:?}, reference {want:?}"))
    }
}

fn check_matrix(got: &MatrixOut, want: &MatrixOut) -> Result<(), String> {
    let counts = |m: &MatrixOut| (m.pairs, m.scanned, m.pruned);
    agree(
        "matrix counts",
        counts(got) == counts(want),
        counts(got),
        counts(want),
    )?;
    for (g, w) in got.cells.iter().zip(&want.cells) {
        let exact_same = match (g.exact, w.exact) {
            (Some(a), Some(b)) => same(a, b, 6),
            (None, None) => true,
            _ => false,
        };
        let ok = g.a == w.a && g.b == w.b && same(g.bound, w.bound, 6) && exact_same;
        agree("matrix cell", ok, g, w)?;
    }
    Ok(())
}

fn check_embed(got: &Embedded, want: &Embedded) -> Result<(), String> {
    let ok = got.points.len() == want.points.len()
        && got
            .points
            .iter()
            .zip(&want.points)
            .all(|((gn, gc), (wn, wc))| {
                gn == wn && gc.len() == wc.len() && gc.iter().zip(wc).all(|(a, b)| same(*a, *b, 6))
            })
        && same(got.stress, want.stress, 6);
    agree("embed", ok, got, want)
}

/// Checks one finished op against the reference.
fn check(op: &Op, run: &OpRun, want: &Expect) -> Result<(), String> {
    if !run.success {
        return Err(format!("exited with failure: {}", run.stderr.trim()));
    }
    let missing = || "no reference for this op".to_string();
    match &op.check {
        Check::Mined(k, path) => {
            let n = parse_mined(&run.stdout, &run.stderr)?;
            let (wn, bytes) = want.mined.get(*k).ok_or_else(missing)?;
            agree("itemsets", n == *wn, n, wn)?;
            let written = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
            agree("model file", &written == bytes, written.len(), bytes.len())
        }
        Check::Deviate => {
            let got = parse_deviate(&run.stdout, &run.stderr)?;
            let w = want.deviate.as_ref().ok_or_else(missing)?;
            let ok = same(got.value, w.value, 6)
                && got.regions == w.regions
                && got.itemsets == w.itemsets;
            agree("deviate", ok, &got, w)
        }
        Check::Qualify => {
            let got = parse_qualify(&run.stdout)?;
            let w = want.qualify.as_ref().ok_or_else(missing)?;
            let ok =
                same(got.deviation, w.deviation, 6) && same(got.significance, w.significance, 2);
            agree("qualify", ok, &got, w)
        }
        Check::Added(i) => {
            let got = parse_registered(&run.stderr)?;
            let w = want.added.get(*i).ok_or_else(missing)?;
            agree("registry-add", &got == w, &got, w)
        }
        Check::Matrix(i) => {
            let got = parse_matrix(&run.stdout)?;
            check_matrix(&got, want.matrices.get(*i).ok_or_else(missing)?)
        }
        Check::Embed => {
            let got = parse_embed(&run.stdout)?;
            check_embed(&got, want.embed.as_ref().ok_or_else(missing)?)
        }
    }
}

/// Timings of one closed-loop round.
#[derive(Debug, Default)]
struct Round {
    write: f64,
    query: f64,
    by_label: BTreeMap<&'static str, f64>,
}

struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        eprintln!("pipebench: {msg}");
        self.errors.push(msg);
    }
}

/// Runs every op of one round once, checking each against `want`.
fn cli_round(
    cfg: &Config,
    inputs: &Inputs,
    want: &Expect,
    k: usize,
    tally: &mut Tally,
) -> Result<Round, String> {
    let dir = cfg.dir.join(format!("round-{k}"));
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let mut round = Round::default();
    for op in round_ops(cfg.workload, inputs, &dir) {
        let run = cfg
            .cli
            .run(&op.args)
            .map_err(|e| format!("cannot run {}: {e}", cfg.cli.bin.display()))?;
        tally.attempted += 1;
        if let Err(e) = check(&op, &run, want) {
            tally.fail(format!("{} ({}): {e}", op.args[0], op.label));
        }
        match op.phase {
            Phase::Write => round.write += run.secs,
            Phase::Query => round.query += run.secs,
        }
        *round.by_label.entry(op.label).or_insert(0.0) += run.secs;
    }
    std::fs::remove_dir_all(&dir).map_err(|e| e.to_string())?;
    Ok(round)
}

/// Resets the process's `VmHWM` to its current resident size, so a later
/// reading covers only what ran after this call.
fn reset_hwm() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("/proc/self/clear_refs: {e}"))
}

fn vm_hwm_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("bad VmHWM line {line:?}: {e}"))?;
    Ok(kb / 1024.0)
}

fn metric(name: &str, value: f64, unit: &'static str, samples: usize) -> Metric {
    Metric {
        name: name.to_string(),
        value,
        unit,
        samples,
    }
}

/// Generates input set `set` into the run's directory and records how long
/// that took.
fn generate_set(cfg: &Config, set: usize, setup_secs: &mut Vec<f64>) -> Result<Inputs, String> {
    let dir = cfg.dir.join(format!("inputs-{set}"));
    let start = Instant::now();
    let inputs = generate(cfg.workload, cfg.shape, cfg.seed, set, &dir)
        .map_err(|e| format!("setup: {e}"))?;
    setup_secs.push(start.elapsed().as_secs_f64());
    Ok(inputs)
}

/// Every per-layer span metric, in report order: the names `pass.rs` opens
/// layer spans under. A layer the workload's commands never call reports
/// 0 seconds.
pub const LAYER_SPANS: [&str; 29] = [
    "focus-data.read_transactions_s",
    "focus-data.read_labeled_table_s",
    "focus-mining.mine_s",
    "focus-core.source.counts_cold_s",
    "focus-core.source.counts_warm_s",
    "focus-core.gcr_lits_s",
    "focus-core.deviate_s",
    "focus-core.qualify_s",
    "focus-core.qualify.replicate_s",
    "focus-core.resample_s",
    "focus-core.persist.write_lits_model_s",
    "focus-registry.add_with_model_s",
    "focus-registry.add_snapshot_dt_s",
    "focus-registry.add_snapshot_cluster_s",
    "focus-registry.open_s",
    "focus-registry.load_model_s",
    "focus-registry.load_dataset_s",
    "focus-core.bound_lits_s",
    "focus-core.bound_dt_s",
    "focus-core.bound_cluster_s",
    "focus-registry.matrix_bounds_only_s",
    "focus-registry.matrix_full_s",
    "focus-registry.matrix_top_s",
    "focus-core.embed_s",
    "focus-core.stress_s",
    "focus-tree.fit_s",
    "focus-cluster.kmeans_fit_s",
    "focus-core.gcr_partition_s",
    "focus-core.gcr_boxes_s",
];

/// Every per-layer work count with its unit; 0 where the workload does no
/// such work.
pub const LAYER_COUNTS: [(&str, &str); 10] = [
    ("focus-mining.itemsets", "count"),
    ("focus-core.source.index_built", "count"),
    ("focus-core.gcr_regions", "count"),
    ("focus-registry.bytes", "bytes"),
    ("focus-registry.pairs_scanned", "count"),
    ("focus-registry.pairs_pruned", "count"),
    ("focus-tree.leaves", "count"),
    ("focus-core.gcr_cells", "count"),
    ("focus-core.gcr_boxes", "count"),
    ("focus-exec.threads", "count"),
];

/// The work counts a CLI round reports, which the traced pass must match.
fn cli_counts(want: &Expect) -> BTreeMap<String, u64> {
    let mut c = BTreeMap::new();
    for (k, (n, _)) in want.mined.iter().enumerate() {
        c.insert(format!("itemsets.mine{k}"), *n);
    }
    if let Some(d) = &want.deviate {
        c.insert(
            "itemsets.deviate_pair".to_string(),
            d.itemsets.0 + d.itemsets.1,
        );
        c.insert("gcr_regions".to_string(), d.regions);
    }
    for r in &want.added {
        c.insert(format!("regions.{}", r.name), r.regions);
    }
    for (i, m) in want.matrices.iter().enumerate() {
        c.insert(format!("matrix{i}.pairs"), m.pairs);
        c.insert(format!("matrix{i}.scanned"), m.scanned);
        c.insert(format!("matrix{i}.pruned"), m.pruned);
    }
    c
}

pub fn run(cfg: &Config) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.dir).map_err(|e| format!("{}: {e}", cfg.dir.display()))?;
    let result = run_in_dir(cfg);
    std::fs::remove_dir_all(&cfg.dir).ok();
    result
}

fn run_in_dir(cfg: &Config) -> Result<Report, String> {
    // The CLI gets `--threads $(nproc)`; the in-process passes pin the same.
    focus_exec::set_global_threads(cfg.cli.threads);
    let mut setup_secs = Vec::new();
    let inputs = generate_set(cfg, 0, &mut setup_secs)?;
    let mut tally = Tally {
        attempted: 0,
        failed: 0,
        errors: Vec::new(),
    };

    // Set 0's reference pass is built exactly as the CLI builds its
    // commands: its high-water mark is `peak_rss_mb`, and in traced mode
    // it is the first traced pass.
    let mut tracer = Tracer::new();
    reset_hwm()?;
    let out = cfg.dir.join("pass-0");
    let want = pass::run(
        cfg.workload,
        &inputs,
        &out,
        &mut tracer,
        CountBackend::default(),
    )?;
    let peak_mb = vm_hwm_mb()?;
    let mut passes = vec![tracer];

    let mut sizes: BTreeMap<String, u64> = BTreeMap::new();
    sizes.insert("input_rows".to_string(), inputs.total_rows() as u64);
    sizes.insert("input_files".to_string(), inputs.files.len() as u64);
    for (k, v) in cli_counts(&want) {
        sizes.insert(k, v);
    }
    let mut sets = vec![(inputs, want)];

    let mut rounds = Vec::new();
    if !cfg.trace {
        // Round k runs on set k mod n, each set made on first use. Only the
        // CLI's time counts against `--seconds`.
        let n = cfg.shape.input_sets(cfg.workload);
        let mut measured = 0.0;
        loop {
            let k = rounds.len();
            if k % n == sets.len() {
                let inputs = generate_set(cfg, k, &mut setup_secs)?;
                // Every backend mines the same models; the cost model's
                // is the quickest reference.
                let out = cfg.dir.join(format!("ref-{k}"));
                let want = pass::run(
                    cfg.workload,
                    &inputs,
                    &out,
                    &mut Tracer::new(),
                    CountBackend::Auto,
                )?;
                sets.push((inputs, want));
            }
            let (inputs, want) = &sets[k % n];
            let round = cli_round(cfg, inputs, want, k, &mut tally)?;
            measured += round.write + round.query;
            rounds.push(round);
            // Another round starts while it should end at most half a round
            // past `--seconds`, so a run measures `--seconds` on average.
            let est = median(&rounds.iter().map(|r| r.write + r.query).collect::<Vec<_>>());
            if measured + est / 2.0 > cfg.seconds {
                break;
            }
        }
    } else {
        let (inputs, want) = &sets[0];
        let start = Instant::now();
        // One untraced round: the CLI's own counts and the overhead base.
        rounds.push(cli_round(cfg, inputs, want, 0, &mut tally)?);
        loop {
            let est = median(&passes.iter().map(Tracer::op_secs).collect::<Vec<_>>());
            if start.elapsed().as_secs_f64() + est > cfg.seconds {
                break;
            }
            let k = passes.len();
            let mut tracer = Tracer::new();
            let again = pass::run(
                cfg.workload,
                inputs,
                &cfg.dir.join(format!("pass-{k}")),
                &mut tracer,
                CountBackend::default(),
            )?;
            tally.attempted += 1;
            if &again != want || tracer.counts() != passes[0].counts() {
                tally.fail(format!("traced pass {k} did other work than pass 0"));
            }
            passes.push(tracer);
        }
    }
    sizes.insert("input_sets".to_string(), sets.len() as u64);

    let mut ops = Vec::new();
    let labels: Vec<&'static str> = rounds[0].by_label.keys().copied().collect();
    for label in labels {
        let v: Vec<f64> = rounds.iter().map(|r| r.by_label[label]).collect();
        ops.push(metric(label, median(&v), "s", v.len()));
    }
    let rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    ops.push(metric(
        "error_rate",
        rate,
        "ratio",
        tally.attempted as usize,
    ));

    let metrics = if !cfg.trace {
        let write: Vec<f64> = rounds.iter().map(|r| r.write).collect();
        let query: Vec<f64> = rounds.iter().map(|r| r.query).collect();
        vec![
            metric("setup_s", median(&setup_secs), "s", setup_secs.len()),
            metric("write_s", median(&write), "s", write.len()),
            metric("query_s", median(&query), "s", query.len()),
            metric("peak_rss_mb", peak_mb, "MB", 1),
        ]
    } else {
        layer_metrics(&passes, rounds[0].write + rounds[0].query, cfg.cli.threads)
    };
    Ok(Report {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        ops,
        sizes,
        errors: tally.errors,
    })
}

fn layer_metrics(passes: &[Tracer], cli_secs: f64, threads: usize) -> Vec<Metric> {
    let n = passes.len();
    let mut out = Vec::new();
    for name in LAYER_SPANS {
        let v: Vec<f64> = passes.iter().map(|p| p.layer_secs(name)).collect();
        out.push(metric(name, median(&v), "s", n));
    }
    let counts = passes[0].counts();
    for (name, unit) in LAYER_COUNTS {
        let value = match name {
            "focus-exec.threads" => threads as u64,
            _ => counts.get(name).copied().unwrap_or(0),
        };
        out.push(metric(name, value as f64, unit, n));
    }
    let coverage: Vec<f64> = passes.iter().map(Tracer::min_coverage).collect();
    out.push(metric("trace.coverage", median(&coverage), "ratio", n));
    let overhead: Vec<f64> = passes.iter().map(|p| p.op_secs() / cli_secs).collect();
    out.push(metric("trace.overhead", median(&overhead), "ratio", n));
    out
}
