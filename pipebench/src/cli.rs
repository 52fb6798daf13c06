//! Running `focus-cli` as a subprocess, and parsing what it prints.
//!
//! Every parser checks the whole shape of the output and rejects anything
//! else, so a command that prints a truncated or garbled result counts as a
//! failed op instead of passing a lenient match.

use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// The release binary, run with a pinned thread count.
#[derive(Debug, Clone)]
pub struct Cli {
    pub bin: PathBuf,
    pub threads: usize,
}

/// One finished command.
#[derive(Debug, Clone)]
pub struct OpRun {
    /// Wall seconds from spawn to exit.
    pub secs: f64,
    pub success: bool,
    pub stdout: String,
    pub stderr: String,
}

impl Cli {
    /// Runs one command and waits for it to exit (the closed loop: the next
    /// op starts only after this returns).
    pub fn run(&self, args: &[String]) -> std::io::Result<OpRun> {
        let start = Instant::now();
        let out = Command::new(&self.bin)
            .args(args)
            .arg("--threads")
            .arg(self.threads.to_string())
            .output()?;
        let secs = start.elapsed().as_secs_f64();
        Ok(OpRun {
            secs,
            success: out.status.success(),
            stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
            stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
        })
    }
}

/// `deviate`: the value on stdout, the GCR and model sizes on stderr.
#[derive(Debug, Clone, PartialEq)]
pub struct Deviated {
    pub value: f64,
    pub regions: u64,
    pub itemsets: (u64, u64),
}

/// `qualify`: the observed deviation and its significance in percent.
#[derive(Debug, Clone, PartialEq)]
pub struct Qualified {
    pub deviation: f64,
    pub significance: f64,
}

/// `registry-add`: the summary line on stderr.
#[derive(Debug, Clone, PartialEq)]
pub struct Registered {
    pub name: String,
    pub kind: String,
    pub rows: u64,
    pub regions: u64,
}

/// One off-diagonal cell of a `matrix` listing.
#[derive(Debug, Clone, PartialEq)]
pub struct Cell {
    pub a: String,
    pub b: String,
    pub bound: f64,
    /// `None` where the pair was pruned.
    pub exact: Option<f64>,
}

/// `matrix`: the header counts and every cell.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixOut {
    pub pairs: u64,
    pub scanned: u64,
    pub pruned: u64,
    pub cells: Vec<Cell>,
}

/// `embed`: one coordinate row per snapshot and the stress.
#[derive(Debug, Clone, PartialEq)]
pub struct Embedded {
    pub points: Vec<(String, Vec<f64>)>,
    pub stress: f64,
}

fn num(tok: &str) -> Result<f64, String> {
    match tok.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(v),
        _ => Err(format!("expected a finite number, found {tok:?}")),
    }
}

fn count(tok: &str) -> Result<u64, String> {
    tok.parse::<u64>()
        .map_err(|_| format!("expected a count, found {tok:?}"))
}

fn expect_word(got: Option<&str>, want: &str) -> Result<(), String> {
    match got {
        Some(w) if w == want => Ok(()),
        other => Err(format!("expected {want:?}, found {other:?}")),
    }
}

fn single_line(out: &str) -> Result<&str, String> {
    let mut lines = out.lines();
    match (lines.next(), lines.next()) {
        (Some(l), None) => Ok(l),
        _ => Err(format!("expected exactly one line, found {out:?}")),
    }
}

fn no_more<'a>(mut toks: impl Iterator<Item = &'a str>) -> Result<(), String> {
    match toks.next() {
        None => Ok(()),
        Some(t) => Err(format!("unexpected trailing {t:?}")),
    }
}

/// `mine --out`: stdout stays empty; stderr reports the itemset count.
pub fn parse_mined(stdout: &str, stderr: &str) -> Result<u64, String> {
    if !stdout.is_empty() {
        return Err(format!("mine --out printed to stdout: {stdout:?}"));
    }
    let line = stderr
        .lines()
        .find(|l| l.contains(" frequent itemsets at minsup "))
        .ok_or_else(|| format!("no itemset count in {stderr:?}"))?;
    let (_, rest) = line
        .rsplit_once(": ")
        .ok_or_else(|| format!("malformed count line {line:?}"))?;
    let mut toks = rest.split(' ');
    let n = count(toks.next().unwrap_or(""))?;
    for w in ["frequent", "itemsets", "at", "minsup"] {
        expect_word(toks.next(), w)?;
    }
    num(toks.next().unwrap_or(""))?;
    no_more(toks)?;
    Ok(n)
}

pub fn parse_deviate(stdout: &str, stderr: &str) -> Result<Deviated, String> {
    let value = num(single_line(stdout)?.trim_end())?;
    let line = stderr
        .lines()
        .find(|l| l.starts_with("GCR: "))
        .ok_or_else(|| format!("no GCR line in {stderr:?}"))?;
    // GCR: N regions; models: A and B itemsets
    let mut toks = line.split(' ');
    expect_word(toks.next(), "GCR:")?;
    let regions = count(toks.next().unwrap_or(""))?;
    expect_word(toks.next(), "regions;")?;
    expect_word(toks.next(), "models:")?;
    let a = count(toks.next().unwrap_or(""))?;
    expect_word(toks.next(), "and")?;
    let b = count(toks.next().unwrap_or(""))?;
    expect_word(toks.next(), "itemsets")?;
    no_more(toks)?;
    Ok(Deviated {
        value,
        regions,
        itemsets: (a, b),
    })
}

pub fn parse_qualify(stdout: &str) -> Result<Qualified, String> {
    // deviation X  significance Y%
    let line = single_line(stdout)?;
    let mut toks = line.split_whitespace();
    expect_word(toks.next(), "deviation")?;
    let deviation = num(toks.next().unwrap_or(""))?;
    expect_word(toks.next(), "significance")?;
    let pct = toks.next().unwrap_or("");
    let significance = num(pct
        .strip_suffix('%')
        .ok_or_else(|| format!("significance {pct:?} lacks %"))?)?;
    no_more(toks)?;
    if !(0.0..=100.0).contains(&significance) {
        return Err(format!("significance {significance} outside 0..=100"));
    }
    Ok(Qualified {
        deviation,
        significance,
    })
}

pub fn parse_registered(stderr: &str) -> Result<Registered, String> {
    // registered "NAME" in DIR (kind K, R rows, G regions[ at minsup M])
    let line = stderr
        .lines()
        .find(|l| l.starts_with("registered "))
        .ok_or_else(|| format!("no registered line in {stderr:?}"))?;
    let quoted = line["registered ".len()..]
        .strip_prefix('"')
        .ok_or_else(|| format!("unquoted name in {line:?}"))?;
    let (name, _) = quoted
        .split_once('"')
        .ok_or_else(|| format!("unterminated name in {line:?}"))?;
    let (_, summary) = line
        .rsplit_once(" (kind ")
        .ok_or_else(|| format!("no summary in {line:?}"))?;
    let summary = summary
        .strip_suffix(')')
        .ok_or_else(|| format!("unterminated summary in {line:?}"))?;
    let mut toks = summary.split(' ');
    let kind = toks
        .next()
        .and_then(|k| k.strip_suffix(','))
        .ok_or_else(|| format!("malformed kind in {line:?}"))?;
    let rows = count(toks.next().unwrap_or(""))?;
    expect_word(toks.next(), "rows,")?;
    let regions = count(toks.next().unwrap_or(""))?;
    expect_word(toks.next(), "regions")?;
    if let Some(w) = toks.next() {
        expect_word(Some(w), "at")?;
        expect_word(toks.next(), "minsup")?;
        num(toks.next().unwrap_or(""))?;
        no_more(toks)?;
    }
    Ok(Registered {
        name: name.to_string(),
        kind: kind.to_string(),
        rows,
        regions,
    })
}

pub fn parse_matrix(stdout: &str) -> Result<MatrixOut, String> {
    let mut lines = stdout.lines();
    let header = lines.next().ok_or("empty matrix output")?;
    // pairs P scanned S pruned R (threshold T | top K)
    let mut toks = header.split(' ');
    expect_word(toks.next(), "pairs")?;
    let pairs = count(toks.next().unwrap_or(""))?;
    expect_word(toks.next(), "scanned")?;
    let scanned = count(toks.next().unwrap_or(""))?;
    expect_word(toks.next(), "pruned")?;
    let pruned = count(toks.next().unwrap_or(""))?;
    match toks.next() {
        Some("threshold") => {
            num(toks.next().unwrap_or(""))?;
        }
        Some("top") => {
            count(toks.next().unwrap_or(""))?;
        }
        other => return Err(format!("expected threshold or top, found {other:?}")),
    }
    no_more(toks)?;
    let mut cells = Vec::new();
    for line in lines {
        // A B bound X (exact Y | pruned)
        let mut toks = line.split(' ');
        let a = toks
            .next()
            .filter(|s| !s.is_empty())
            .ok_or("missing name")?;
        let b = toks
            .next()
            .filter(|s| !s.is_empty())
            .ok_or("missing name")?;
        expect_word(toks.next(), "bound")?;
        let bound = num(toks.next().unwrap_or(""))?;
        let exact = match toks.next() {
            Some("exact") => Some(num(toks.next().unwrap_or(""))?),
            Some("pruned") => None,
            other => return Err(format!("expected exact or pruned, found {other:?}")),
        };
        no_more(toks)?;
        cells.push(Cell {
            a: a.to_string(),
            b: b.to_string(),
            bound,
            exact,
        });
    }
    let listed_scans = cells.iter().filter(|c| c.exact.is_some()).count() as u64;
    if cells.len() as u64 != pairs || scanned + pruned != pairs || listed_scans != scanned {
        return Err(format!(
            "header says {pairs} pairs, {scanned} scanned, {pruned} pruned; listing has {} \
             cells, {listed_scans} scanned",
            cells.len()
        ));
    }
    Ok(MatrixOut {
        pairs,
        scanned,
        pruned,
        cells,
    })
}

pub fn parse_embed(stdout: &str) -> Result<Embedded, String> {
    let lines: Vec<&str> = stdout.lines().collect();
    let (last, rows) = lines.split_last().ok_or("empty embed output")?;
    let mut toks = last.split(' ');
    expect_word(toks.next(), "stress")?;
    let stress = num(toks.next().unwrap_or(""))?;
    no_more(toks)?;
    let mut points = Vec::new();
    for line in rows {
        let mut toks = line.split(' ');
        let name = toks
            .next()
            .filter(|s| !s.is_empty())
            .ok_or("missing name")?;
        let coords = toks.map(num).collect::<Result<Vec<f64>, String>>()?;
        points.push((name.to_string(), coords));
    }
    let dims = points.first().map(|(_, c)| c.len()).ok_or("no points")?;
    if dims == 0 || points.iter().any(|(_, c)| c.len() != dims) {
        return Err(format!("ragged or empty coordinates in {stdout:?}"));
    }
    Ok(Embedded { points, stress })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mined_parses_and_rejects() {
        let err = "a.txt: 10816 frequent itemsets at minsup 0.01\nmodel written to m\n";
        assert_eq!(parse_mined("", err), Ok(10816));
        assert!(parse_mined("x\n", err).is_err());
        assert!(parse_mined("", "a.txt: many frequent itemsets at minsup 0.01").is_err());
        assert!(parse_mined("", "a.txt: 3 frequent itemsets at minsup").is_err());
        assert!(parse_mined("", "error: boom").is_err());
    }

    #[test]
    fn deviate_parses_and_rejects() {
        let err = "GCR: 20415 regions; models: 10816 and 9782 itemsets\n";
        assert_eq!(
            parse_deviate("416.549600\n", err),
            Ok(Deviated {
                value: 416.5496,
                regions: 20415,
                itemsets: (10816, 9782)
            })
        );
        assert!(parse_deviate("", err).is_err());
        assert!(parse_deviate("416.5\n1\n", err).is_err());
        assert!(parse_deviate("NaN\n", err).is_err());
        assert!(parse_deviate("416.5\n", "GCR: 5 regions\n").is_err());
        assert!(parse_deviate("416.5\n", "").is_err());
    }

    #[test]
    fn qualify_parses_and_rejects() {
        let q = parse_qualify("deviation 9.111600  significance 55.56%\n").unwrap();
        assert_eq!(q.deviation, 9.1116);
        assert_eq!(q.significance, 55.56);
        assert!(parse_qualify("deviation 9.1  significance 55.56\n").is_err());
        assert!(parse_qualify("deviation 9.1  significance 155%\n").is_err());
        assert!(parse_qualify("deviation x  significance 5%\n").is_err());
        assert!(parse_qualify("").is_err());
    }

    #[test]
    fn registered_parses_and_rejects() {
        let r = parse_registered(
            "registered \"s0\" in reg (kind lits, 10000 rows, 10298 regions at minsup 0.01)\n",
        )
        .unwrap();
        assert_eq!((r.name.as_str(), r.kind.as_str()), ("s0", "lits"));
        assert_eq!((r.rows, r.regions), (10000, 10298));
        let d = parse_registered("registered \"t0\" in r (kind dt, 20000 rows, 120 regions)\n");
        assert_eq!(d.unwrap().regions, 120);
        assert!(parse_registered("registered \"t0\" in r (kind dt, 20000 rows, 120)\n").is_err());
        assert!(parse_registered("registered t0 in r (kind dt, 1 rows, 2 regions)\n").is_err());
        assert!(parse_registered("error: snapshot exists\n").is_err());
    }

    #[test]
    fn matrix_parses_and_rejects() {
        let out = "pairs 3 scanned 2 pruned 1 top 2\n\
                   a b bound 2.000000 exact 1.248200\n\
                   a c bound 1.000000 pruned\n\
                   b c bound 3.500000 exact 0.500000\n";
        let m = parse_matrix(out).unwrap();
        assert_eq!((m.pairs, m.scanned, m.pruned), (3, 2, 1));
        assert_eq!(m.cells[1].exact, None);
        assert_eq!(m.cells[2].exact, Some(0.5));
        // Header and listing disagree.
        assert!(parse_matrix(&out.replace("scanned 2 pruned 1", "scanned 3 pruned 0")).is_err());
        // A cell went missing.
        assert!(parse_matrix(out.rsplit_once("b c").unwrap().0).is_err());
        assert!(parse_matrix(&out.replace("exact 0.5", "exakt 0.5")).is_err());
        assert!(parse_matrix(&out.replace("top 2", "cut 2")).is_err());
        assert!(parse_matrix("").is_err());
    }

    #[test]
    fn embed_parses_and_rejects() {
        let out = "s0 0.100000 -0.200000\ns1 -0.100000 0.200000\nstress 0.051479\n";
        let e = parse_embed(out).unwrap();
        assert_eq!(e.points.len(), 2);
        assert_eq!(e.points[1].1, vec![-0.1, 0.2]);
        assert_eq!(e.stress, 0.051479);
        assert!(parse_embed("s0 0.1 0.2\ns1 0.1\nstress 0.1\n").is_err());
        assert!(parse_embed("s0 0.1 0.2\n").is_err());
        assert!(parse_embed("stress 0.1\n").is_err());
        assert!(parse_embed("s0 0.1 inf\nstress 0.1\n").is_err());
    }
}
