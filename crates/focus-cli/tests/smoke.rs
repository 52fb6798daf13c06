//! End-to-end smoke test: drives the `focus-cli` binary through the full
//! lits pipeline (generate → mine → deviate → bound → qualify) and the dt
//! pipeline (generate → deviate-dt) on tiny datasets, asserting each step
//! exits 0 and emits a well-formed report.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_focus-cli")
}

fn run(args: &[&str]) -> Output {
    let out = Command::new(bin())
        .args(args)
        .output()
        .expect("failed to spawn focus-cli");
    assert!(
        out.status.success(),
        "focus-cli {:?} failed with {}\nstdout: {}\nstderr: {}",
        args,
        out.status,
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr),
    );
    out
}

fn stdout(out: &Output) -> String {
    String::from_utf8(out.stdout.clone()).expect("stdout is not UTF-8")
}

/// Fresh scratch directory under the target-provided temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("focus-cli-smoke-{tag}-{}", std::process::id()));
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn path_str(p: &Path) -> &str {
    p.to_str().expect("non-UTF-8 temp path")
}

#[test]
fn lits_pipeline_end_to_end() {
    let dir = scratch("lits");
    let d1 = dir.join("d1.txt");
    let d2 = dir.join("d2.txt");
    let m1 = dir.join("m1.model");
    let m2 = dir.join("m2.model");

    // Two small datasets from the same generating process, different seeds.
    run(&[
        "gen-assoc",
        "--out",
        path_str(&d1),
        "--n",
        "400",
        "--pats",
        "50",
        "--patlen",
        "3",
        "--pattern-seed",
        "1",
        "--seed",
        "2",
    ]);
    run(&[
        "gen-assoc",
        "--out",
        path_str(&d2),
        "--n",
        "400",
        "--pats",
        "50",
        "--patlen",
        "3",
        "--pattern-seed",
        "1",
        "--seed",
        "3",
    ]);
    assert!(d1.exists() && d2.exists(), "generated datasets must exist");

    // Mine both into model files.
    run(&[
        "mine",
        "--data",
        path_str(&d1),
        "--minsup",
        "0.05",
        "--out",
        path_str(&m1),
    ]);
    run(&[
        "mine",
        "--data",
        path_str(&d2),
        "--minsup",
        "0.05",
        "--out",
        path_str(&m2),
    ]);

    // Exact deviation: stdout is a single non-negative finite number.
    let dev_out = run(&[
        "deviate",
        "--d1",
        path_str(&d1),
        "--d2",
        path_str(&d2),
        "--minsup",
        "0.05",
    ]);
    let dev: f64 = stdout(&dev_out)
        .trim()
        .parse()
        .expect("deviate must print a number");
    assert!(dev.is_finite() && dev >= 0.0, "deviation {dev}");

    // Upper bound from the persisted models dominates the exact deviation.
    let bound_out = run(&["bound", "--m1", path_str(&m1), "--m2", path_str(&m2)]);
    let bound: f64 = stdout(&bound_out)
        .trim()
        .parse()
        .expect("bound must print a number");
    assert!(bound >= dev - 1e-9, "δ* = {bound} must dominate δ = {dev}");

    // Qualify: a well-formed deviation report with a significance percentage.
    let qual_out = run(&[
        "qualify",
        "--d1",
        path_str(&d1),
        "--d2",
        path_str(&d2),
        "--minsup",
        "0.05",
        "--reps",
        "19",
        "--seed",
        "7",
    ]);
    let report = stdout(&qual_out);
    assert!(
        report.contains("deviation") && report.contains("significance"),
        "malformed report: {report:?}"
    );
    let sig: f64 = report
        .split_whitespace()
        .last()
        .unwrap()
        .trim_end_matches('%')
        .parse()
        .expect("significance must be a percentage");
    assert!((0.0..=100.0).contains(&sig), "significance {sig}");

    // Deterministic: the same invocation prints the same deviation.
    let dev_out2 = run(&[
        "deviate",
        "--d1",
        path_str(&d1),
        "--d2",
        path_str(&d2),
        "--minsup",
        "0.05",
    ]);
    assert_eq!(stdout(&dev_out), stdout(&dev_out2));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn dt_pipeline_end_to_end() {
    let dir = scratch("dt");
    let d1 = dir.join("d1.tbl");
    let d2 = dir.join("d2.tbl");

    // Same Agrawal function, different seeds — a small honest drift test.
    run(&[
        "gen-class",
        "--out",
        path_str(&d1),
        "--n",
        "500",
        "--function",
        "F2",
        "--seed",
        "1",
    ]);
    run(&[
        "gen-class",
        "--out",
        path_str(&d2),
        "--n",
        "500",
        "--function",
        "F2",
        "--seed",
        "2",
    ]);

    // Fit a tree on one dataset; just a structural sanity check.
    run(&[
        "tree",
        "--data",
        path_str(&d1),
        "--max-depth",
        "4",
        "--min-leaf",
        "20",
    ]);

    let out = run(&[
        "deviate-dt",
        "--d1",
        path_str(&d1),
        "--d2",
        path_str(&d2),
        "--max-depth",
        "4",
        "--min-leaf",
        "20",
    ]);
    let dev: f64 = stdout(&out)
        .trim()
        .parse()
        .expect("deviate-dt must print a number");
    assert!(dev.is_finite() && dev >= 0.0, "dt deviation {dev}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn binary_sharded_registry_matrix_matches_text() {
    let dir = scratch("registry-bin");
    let d1 = dir.join("d1.txt");
    let d2 = dir.join("d2.txt");
    for (out, seed) in [(&d1, "2"), (&d2, "9")] {
        run(&[
            "gen-assoc",
            "--out",
            path_str(out),
            "--n",
            "300",
            "--pats",
            "40",
            "--patlen",
            "3",
            "--pattern-seed",
            "1",
            "--seed",
            seed,
        ]);
    }

    // The same snapshots into a classic text registry and a sharded
    // binary one.
    let reg_text = dir.join("reg-text");
    let reg_bin = dir.join("reg-bin");
    for (reg, extra) in [
        (&reg_text, &[][..]),
        (&reg_bin, &["--format", "bin", "--shards", "2"][..]),
    ] {
        for (data, name) in [(&d1, "day-01"), (&d2, "day-02")] {
            let mut args = vec![
                "registry-add",
                "--dir",
                path_str(reg),
                "--data",
                path_str(data),
                "--name",
                name,
                "--minsup",
                "0.05",
            ];
            args.extend_from_slice(extra);
            run(&args);
        }
    }
    // The binary registry's artifacts live in shard directories as .bin
    // files; nothing readable as text sits in the root.
    assert!(reg_bin.join("registry.layout").exists());
    assert!(reg_bin.join("shard-000").is_dir() && reg_bin.join("shard-001").is_dir());

    // The matrix over both registries is byte-identical on stdout.
    let matrix_args = |reg: &Path| {
        let r = path_str(reg).to_string();
        ["matrix", "--dir"]
            .into_iter()
            .map(String::from)
            .chain([r])
            .collect::<Vec<_>>()
    };
    let text_out = run(&matrix_args(&reg_text)
        .iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>());
    let bin_out = run(&matrix_args(&reg_bin)
        .iter()
        .map(|s| s.as_str())
        .collect::<Vec<_>>());
    assert_eq!(stdout(&text_out), stdout(&bin_out));
    assert!(stdout(&text_out).contains("pairs 1"));

    // Asking an existing registry for a different layout is refused.
    let clash = Command::new(bin())
        .args([
            "registry-add",
            "--dir",
            path_str(&reg_bin),
            "--data",
            path_str(&d1),
            "--name",
            "day-03",
            "--format",
            "text",
        ])
        .output()
        .expect("failed to spawn focus-cli");
    assert!(!clash.status.success(), "layout mismatch must fail");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn help_lists_all_commands() {
    let out = run(&["help"]);
    let text = stdout(&out);
    for cmd in [
        "gen-assoc",
        "gen-class",
        "mine",
        "deviate",
        "bound",
        "qualify",
        "tree",
        "deviate-dt",
    ] {
        assert!(text.contains(cmd), "usage must mention {cmd}");
    }
}

#[test]
fn unknown_command_fails_nonzero() {
    let out = Command::new(bin())
        .arg("no-such-command")
        .output()
        .expect("failed to spawn focus-cli");
    assert!(!out.status.success());
}

#[test]
fn dt_class_count_mismatch_fails_closed() {
    // Regression: two tables declaring 2 and 3 classes panicked inside
    // the dt GCR ("class sets must agree", exit 101) in both deviate-dt
    // and matrix --kind dt.
    let dir = scratch("dt-classes");
    let two = dir.join("two.tbl");
    let three = dir.join("three.tbl");
    for (path, seed) in [(&two, "1"), (&three, "2")] {
        run(&[
            "gen-class",
            "--out",
            path_str(path),
            "--n",
            "300",
            "--function",
            "F2",
            "--seed",
            seed,
        ]);
    }
    let text = std::fs::read_to_string(&three).unwrap();
    std::fs::write(&three, text.replace("#classes 2", "#classes 3")).unwrap();
    let reg = dir.join("reg");
    for (name, path) in [("two", &two), ("three", &three)] {
        run(&[
            "registry-add",
            "--dir",
            path_str(&reg),
            "--data",
            path_str(path),
            "--name",
            name,
            "--kind",
            "dt",
        ]);
    }
    let runs: [(&str, Vec<&str>); 2] = [
        (
            "deviate-dt",
            vec![
                "deviate-dt",
                "--d1",
                path_str(&two),
                "--d2",
                path_str(&three),
            ],
        ),
        (
            "matrix",
            vec!["matrix", "--dir", path_str(&reg), "--kind", "dt"],
        ),
    ];
    for (tag, args) in runs {
        let out = Command::new(bin())
            .args(&args)
            .output()
            .expect("failed to spawn focus-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert!(stderr.starts_with("error: "), "{tag}: {stderr}");
        assert!(
            stderr.contains("class counts differ (2 vs 3)"),
            "{tag}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{tag}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bound_rejects_out_of_range_model_files_without_panicking() {
    // Regression: `minsup 2` panicked inside `LitsModel::new` (exit 101
    // with a backtrace) and a `nan` support printed `NaN` with exit 0.
    let dir = scratch("bad-model");
    let good = dir.join("good.model");
    std::fs::write(&good, "#lits-model minsup 0.2 n 5\n0 | 0.6\n").unwrap();
    for (tag, text) in [
        ("minsup", "#lits-model minsup 2 n 5\n0 | 0.5\n"),
        ("nan", "#lits-model minsup 0.2 n 5\n0 | nan\n"),
    ] {
        let bad = dir.join(format!("{tag}.model"));
        std::fs::write(&bad, text).unwrap();
        let out = Command::new(bin())
            .args(["bound", "--m1", path_str(&good), "--m2", path_str(&bad)])
            .output()
            .expect("failed to spawn focus-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert!(out.stdout.is_empty(), "{tag}: printed a bound");
        assert!(stderr.starts_with("error: "), "{tag}: {stderr}");
        assert!(!stderr.contains("panicked"), "{tag}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bound_rejects_duplicate_and_empty_itemsets() {
    // Regression: a model listing `1 2` twice loaded with the first copy
    // kept (so `bound` printed 0.000000 and exited 0), and a `| 0.7` line
    // loaded as the empty itemset.
    let dir = scratch("dup-itemset");
    let good = dir.join("good.model");
    std::fs::write(&good, "#lits-model minsup 0.2 n 5\n1 2 | 0.3\n").unwrap();
    for (tag, text, named) in [
        (
            "duplicate",
            "#lits-model minsup 0.2 n 5\n1 2 | 0.3\n1 2 | 0.9\n",
            "duplicate itemset {1,2}",
        ),
        (
            "empty",
            "#lits-model minsup 0.2 n 5\n1 2 | 0.3\n | 0.7\n",
            "empty itemset",
        ),
        (
            "repeat",
            "#lits-model minsup 0.2 n 5\n1 2 1 | 0.3\n",
            "itemset {1,2} lists an item twice",
        ),
    ] {
        let bad = dir.join(format!("{tag}.model"));
        std::fs::write(&bad, text).unwrap();
        let out = Command::new(bin())
            .args(["bound", "--m1", path_str(&good), "--m2", path_str(&bad)])
            .output()
            .expect("failed to spawn focus-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{tag}: {stderr}");
        assert!(out.stdout.is_empty(), "{tag}: printed a bound");
        assert!(stderr.starts_with("error: "), "{tag}: {stderr}");
        assert!(stderr.contains(named), "{tag}: {stderr}");
    }
    std::fs::remove_dir_all(&dir).ok();
}
