//! `pipebench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --cli <path to focus-cli>`
//!
//! Prints a provenance line and then, as the last line of stdout, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`.

use pipebench::cli::Cli;
use pipebench::inputs::{Shape, Workload};
use pipebench::run::{run, Config, Metric, Report};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode};

fn main() -> ExitCode {
    match parse(std::env::args().skip(1).collect()) {
        Err(e) => {
            eprintln!("pipebench: {e}");
            ExitCode::FAILURE
        }
        Ok(cfg) => match run(&cfg) {
            Err(e) => {
                eprintln!("pipebench: {e}");
                ExitCode::FAILURE
            }
            Ok(report) => {
                println!("{}", provenance(&cfg, &report));
                println!("{}", result(&report));
                ExitCode::SUCCESS
            }
        },
    }
}

fn parse(args: Vec<String>) -> Result<Config, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("expected a --flag, found {flag:?}"))?
            .to_string();
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        flags.insert(name, value);
    }
    let get = |name: &str| {
        flags
            .get(name)
            .cloned()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let workload = get("workload")?;
    let workload = Workload::parse(&workload).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "--workload must be one of {}, got {workload:?}",
            names.join(", ")
        )
    })?;
    let seed: u64 = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let bin = PathBuf::from(get("cli")?);
    if !bin.is_file() {
        return Err(format!("--cli {}: no such binary", bin.display()));
    }
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let work = PathBuf::from(".bench_work");
    let tag = format!("{}-seed{seed}-trace{}", workload.name(), u8::from(trace));
    Ok(Config {
        workload,
        shape: Shape::Full,
        seed,
        seconds,
        trace,
        cli: Cli { bin, threads },
        dir: work.join(format!("{tag}-pid{}", std::process::id())),
    })
}

fn num(v: f64) -> String {
    // Shortest round-trip form: every digit the measurement has.
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn metrics_json(ms: &[Metric], with_samples: bool) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            let samples = if with_samples {
                format!(", \"samples\": {}", m.samples)
            } else {
                String::new()
            };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"{samples}}}",
                m.name,
                num(m.value),
                m.unit
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

fn result(r: &Report) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.failed == 0,
        r.attempted,
        r.failed,
        metrics_json(&r.metrics, false)
    )
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn commit() -> String {
    let out = Command::new("git").args(["rev-parse", "HEAD"]).output();
    match out {
        Ok(o) if o.status.success() => String::from_utf8_lossy(&o.stdout).trim().to_string(),
        _ => "unknown".to_string(),
    }
}

fn provenance(cfg: &Config, r: &Report) -> String {
    let sizes: Vec<String> = r
        .sizes
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    let errors: Vec<String> = r.errors.iter().map(|e| json_string(e)).collect();
    format!(
        "{{\"provenance\": {{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, \"seconds\": {}, \
         \"commit\": \"{}\", \"nproc\": {}, \"threads\": {}, \
         \"sizes\": {{{}}}}}, \"metrics\": {}, \"ops\": {}, \"errors\": [{}]}}",
        cfg.workload.name(),
        cfg.seed,
        u8::from(cfg.trace),
        num(cfg.seconds),
        commit(),
        cfg.cli.threads,
        cfg.cli.threads,
        sizes.join(", "),
        metrics_json(&r.metrics, true),
        metrics_json(&r.ops, true),
        errors.join(", ")
    )
}
