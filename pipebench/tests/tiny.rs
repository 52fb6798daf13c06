//! Tiny-shape runs of every workload against the real `focus-cli`: every
//! op must pass its check, and a CLI that prints a wrong number must be
//! caught; the metric names stay in step with the traced pass and
//! `BENCHMARK.json`. Set `FOCUS_CLI` to use an already built binary; otherwise the
//! test builds `focus-cli` into the repository's `target/`.

use focus_mining::CountBackend;
use pipebench::cli::Cli;
use pipebench::inputs::{generate, Shape, Workload};
use pipebench::pass;
use pipebench::run::{run, Config, Report, LAYER_COUNTS, LAYER_SPANS};
use pipebench::trace::{Kind, Tracer};
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::process::Command;

fn cli_binary() -> PathBuf {
    if let Some(p) = std::env::var_os("FOCUS_CLI") {
        return p.into();
    }
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let target = repo.join("target");
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--quiet",
            "-p",
            "focus-cli",
            "--manifest-path",
        ])
        .arg(repo.join("Cargo.toml"))
        .env("CARGO_TARGET_DIR", &target)
        .status()
        .expect("cargo runs");
    assert!(status.success(), "building focus-cli failed");
    target.join("release").join("focus-cli")
}

fn tiny(workload: Workload, trace: bool, bin: PathBuf, dir: &Path) -> Report {
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cfg = Config {
        workload,
        shape: Shape::Tiny,
        seed: 3,
        seconds: 2.0,
        trace,
        cli: Cli { bin, threads },
        dir: dir.to_path_buf(),
    };
    let report = run(&cfg).expect("run completes");
    assert!(!dir.exists(), "the run removes its directory");
    report
}

/// The metric names `BENCHMARK.json` declares in one section
/// (`end_to_end` or `per_layer`).
fn declared(section: &str) -> BTreeSet<String> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let body = &text[text
        .find(&format!("\"{section}\""))
        .expect("section present")..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| rest.split('"').nth(1).expect("quoted name").to_string())
        .collect()
}

fn names(r: &Report) -> BTreeSet<String> {
    r.metrics.iter().map(|m| m.name.clone()).collect()
}

fn error_rate(r: &Report) -> f64 {
    r.ops
        .iter()
        .find(|m| m.name == "error_rate")
        .expect("error_rate is reported")
        .value
}

#[test]
fn tiny_runs_of_every_workload_pass_every_check() {
    let bin = cli_binary();
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("tiny");
    for w in Workload::ALL {
        for trace in [false, true] {
            let r = tiny(
                w,
                trace,
                bin.clone(),
                &work.join(format!("{}-{trace}", w.name())),
            );
            assert!(r.attempted > 0);
            assert_eq!(r.failed, 0, "{} trace {trace}: {:?}", w.name(), r.errors);
            assert_eq!(error_rate(&r), 0.0);
            assert!(r.metrics.iter().all(|m| m.value.is_finite()));
            if !trace {
                assert_eq!(
                    r.sizes["input_sets"],
                    2,
                    "{}: rounds cycle over sets",
                    w.name()
                );
            }
            let section = if trace { "per_layer" } else { "end_to_end" };
            assert_eq!(names(&r), declared(section), "{} trace {trace}", w.name());
        }
    }
}

/// A misspelt or renamed span would otherwise read 0 forever, which is
/// also the honest reading of a layer a workload bypasses.
#[test]
fn every_layer_metric_is_recorded_and_every_recorded_layer_is_reported() {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join("layers");
    let mut spans = BTreeSet::new();
    let mut counts = BTreeSet::from(["focus-exec.threads"]);
    for w in Workload::ALL {
        let dir = root.join(w.name());
        let inputs = generate(w, Shape::Tiny, 3, 0, &dir.join("inputs")).unwrap();
        let mut t = Tracer::new();
        pass::run(
            w,
            &inputs,
            &dir.join("pass"),
            &mut t,
            CountBackend::default(),
        )
        .unwrap();
        spans.extend(
            t.spans()
                .iter()
                .filter(|s| s.kind == Kind::Layer)
                .map(|s| s.name),
        );
        counts.extend(t.counts().keys().copied());
    }
    std::fs::remove_dir_all(&root).ok();
    assert_eq!(spans, BTreeSet::from(LAYER_SPANS));
    assert_eq!(counts, LAYER_COUNTS.iter().map(|(n, _)| *n).collect());
}

#[test]
fn a_wrong_deviation_counts_as_a_failed_op() {
    use std::os::unix::fs::PermissionsExt;
    let work = Path::new(env!("CARGO_TARGET_TMPDIR")).join("mutant");
    std::fs::create_dir_all(&work).unwrap();
    // Passes every command through, but bumps the last digit `deviate`
    // prints.
    let script = work.join("focus-cli");
    std::fs::write(
        &script,
        format!(
            "#!/usr/bin/env bash\nif [ \"$1\" = deviate ]; then\n  \
             set -o pipefail\n  '{}' \"$@\" | sed 's/0$/1/;t;s/[0-9]$/0/'\nelse\n  \
             exec '{}' \"$@\"\nfi\n",
            cli_binary().display(),
            cli_binary().display()
        ),
    )
    .unwrap();
    std::fs::set_permissions(&script, std::fs::Permissions::from_mode(0o755)).unwrap();
    let r = tiny(Workload::LitsPair, false, script, &work.join("run"));
    let rounds = r
        .ops
        .iter()
        .find(|m| m.name == "deviate_s")
        .unwrap()
        .samples;
    assert_eq!(
        r.failed, rounds as u64,
        "one deviate per round fails: {:?}",
        r.errors
    );
    assert!(r.errors.iter().all(|e| e.starts_with("deviate")));
    assert!(error_rate(&r) > 0.0);
}
