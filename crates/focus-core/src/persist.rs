//! Model persistence: plain-text serialization of lits-, dt- and
//! cluster-models.
//!
//! A mined model is a first-class artifact in FOCUS workflows — the δ*
//! screening of Section 4.1.1 operates on models *without* their datasets,
//! so models need to outlive the mining run. The format is line-oriented
//! and diff-friendly:
//!
//! ```text
//! #lits-model minsup 0.01 n 100000
//! 3 7 19 | 0.0421            (itemset items | support)
//! ```
//!
//! dt-models serialize their schema, leaf boxes (one constraint per
//! attribute) and the per-(leaf, class) measures; cluster-models use the
//! same schema and box-constraint grammar with one selectivity per
//! cluster. Floats round-trip exactly via Rust's shortest representation.

use crate::data::{AttrType, Schema, Value};
use crate::model::{ClusterModel, DtModel, LitsModel};
use crate::region::{AttrConstraint, BoxRegion, CatMask};
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::sync::Arc;

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

/// Writes a lits-model.
pub fn write_lits_model<W: Write>(model: &LitsModel, w: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(
        w,
        "#lits-model minsup {} n {}",
        model.minsup(),
        model.n_transactions()
    )?;
    for (s, sup) in model.itemsets().iter().zip(model.supports()) {
        for (i, item) in s.items().iter().enumerate() {
            if i > 0 {
                write!(w, " ")?;
            }
            write!(w, "{item}")?;
        }
        writeln!(w, " | {sup}")?;
    }
    w.flush()
}

/// Reads a lits-model written by [`write_lits_model`].
pub fn read_lits_model<R: Read>(r: R) -> std::io::Result<LitsModel> {
    let mut lines = BufReader::new(r).lines();
    let header = lines.next().ok_or_else(|| bad("empty model file"))??;
    let rest = header
        .strip_prefix("#lits-model minsup ")
        .ok_or_else(|| bad("missing lits-model header"))?;
    let mut parts = rest.split(" n ");
    let minsup: f64 = parts
        .next()
        .ok_or_else(|| bad("missing minsup"))?
        .trim()
        .parse()
        .map_err(|e| bad(&format!("bad minsup: {e}")))?;
    if !(0.0..=1.0).contains(&minsup) {
        return Err(bad(&format!("minsup {minsup} is not a fraction in [0, 1]")));
    }
    let n: u64 = parts
        .next()
        .ok_or_else(|| bad("missing n"))?
        .trim()
        .parse()
        .map_err(|e| bad(&format!("bad n: {e}")))?;
    let mut itemsets = Vec::new();
    let mut supports = Vec::new();
    for line in lines {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let (items_part, sup_part) = line
            .split_once('|')
            .ok_or_else(|| bad("itemset line missing '|'"))?;
        let items: Vec<u32> = items_part
            .split_whitespace()
            .map(|t| t.parse().map_err(|e| bad(&format!("bad item: {e}"))))
            .collect::<Result<_, _>>()?;
        let sup: f64 = sup_part
            .trim()
            .parse()
            .map_err(|e| bad(&format!("bad support: {e}")))?;
        // A support is a fraction of transactions (Definition 3.2); NaN or
        // out-of-range values would poison every bound and deviation.
        if !(0.0..=1.0).contains(&sup) {
            return Err(bad(&format!("support {sup} is not a fraction in [0, 1]")));
        }
        itemsets.push(items);
        supports.push(sup);
    }
    LitsModel::try_new(itemsets, supports, minsup, n).map_err(|e| bad(&e))
}

/// Writes a dt-model (schema + leaf boxes + measures).
pub fn write_dt_model<W: Write>(model: &DtModel, schema: &Schema, w: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    writeln!(
        w,
        "#dt-model classes {} n {} leaves {}",
        model.n_classes(),
        model.n_rows(),
        model.leaves().len()
    )?;
    for a in schema.attrs() {
        match &a.ty {
            AttrType::Numeric => writeln!(w, "#num {}", a.name)?,
            AttrType::Categorical { cardinality } => {
                writeln!(w, "#cat {} {}", a.name, cardinality)?
            }
        }
    }
    for (li, leaf) in model.leaves().iter().enumerate() {
        write!(w, "leaf")?;
        write_constraints(&mut w, &leaf.constraints)?;
        write!(w, " |")?;
        for c in 0..model.n_classes() {
            write!(w, " {}", model.measure(li, c))?;
        }
        writeln!(w)?;
    }
    w.flush()
}

/// Reads a dt-model written by [`write_dt_model`]; returns the model and
/// its schema.
pub fn read_dt_model<R: Read>(r: R) -> std::io::Result<(DtModel, Arc<Schema>)> {
    let mut lines = BufReader::new(r).lines();
    let header = lines.next().ok_or_else(|| bad("empty model file"))??;
    let rest = header
        .strip_prefix("#dt-model classes ")
        .ok_or_else(|| bad("missing dt-model header"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // classes <k> n <rows> leaves <l>  →  [k, "n", rows, "leaves", l]
    if fields.len() != 5 || fields[1] != "n" || fields[3] != "leaves" {
        return Err(bad("malformed dt-model header"));
    }
    let k: u32 = fields[0]
        .parse()
        .map_err(|e| bad(&format!("bad classes: {e}")))?;
    if k == 0 {
        return Err(bad("dt-model needs at least one class"));
    }
    let n_rows: u64 = fields[2].parse().map_err(|e| bad(&format!("bad n: {e}")))?;

    let (schema, region_lines) = read_schema_and_regions(lines, "leaf")?;

    let mut leaves = Vec::new();
    let mut measures = Vec::new();
    for line in region_lines {
        let (region, meas) = read_region_line(&line, "leaf", &schema)?;
        leaves.push(region);
        measures.extend(meas);
    }
    if measures.len() != leaves.len() * k as usize {
        return Err(bad("measure count does not match leaves × classes"));
    }
    Ok((DtModel::new(leaves, k, measures, n_rows), schema))
}

/// Writes one box's constraints in the shared `I lo hi` / `C card codes`
/// grammar (used by both dt leaves and cluster regions).
fn write_constraints<W: Write>(w: &mut W, constraints: &[AttrConstraint]) -> std::io::Result<()> {
    for c in constraints {
        match c {
            AttrConstraint::Interval { lo, hi } => write!(w, " I {lo} {hi}")?,
            AttrConstraint::Cats(m) => {
                write!(w, " C {}", m.cardinality())?;
                if m.is_empty() {
                    // An empty mask would otherwise emit zero tokens
                    // and the reader would see the next field instead;
                    // an explicit sentinel keeps the grammar LL(1).
                    write!(w, " -")?;
                } else {
                    let codes: Vec<String> = m.iter().map(|x| x.to_string()).collect();
                    write!(w, " {}", codes.join(","))?;
                }
            }
        }
    }
    Ok(())
}

/// Splits a model file's remaining lines into schema attribute headers and
/// the region lines starting with `region_kw`.
fn read_schema_and_regions(
    lines: impl Iterator<Item = std::io::Result<String>>,
    region_kw: &str,
) -> std::io::Result<(Arc<Schema>, Vec<String>)> {
    let mut attrs = Vec::new();
    let mut region_lines: Vec<String> = Vec::new();
    for line in lines {
        let line = line?;
        if let Some(rest) = line.strip_prefix("#num ") {
            attrs.push(Schema::numeric(rest.trim()));
        } else if let Some(rest) = line.strip_prefix("#cat ") {
            let mut p = rest.split_whitespace();
            let name = p.next().ok_or_else(|| bad("missing #cat name"))?;
            let card: u32 = p
                .next()
                .ok_or_else(|| bad("missing cardinality"))?
                .parse()
                .map_err(|e| bad(&format!("bad cardinality: {e}")))?;
            attrs.push(Schema::categorical(name, card));
        } else if line.starts_with(region_kw) {
            region_lines.push(line);
        }
    }
    Ok((Arc::new(Schema::new(attrs)), region_lines))
}

/// Parses one `<kw> <constraints> | <floats>` region line against `schema`,
/// returning the (class-free) box and the float list after the separator.
fn read_region_line(
    line: &str,
    region_kw: &str,
    schema: &Schema,
) -> std::io::Result<(BoxRegion, Vec<f64>)> {
    let (geom, meas) = line
        .split_once('|')
        .ok_or_else(|| bad(&format!("{region_kw} line missing '|'")))?;
    let mut toks = geom.split_whitespace();
    toks.next(); // the region keyword itself
    let mut constraints = Vec::with_capacity(schema.len());
    while let Some(kind) = toks.next() {
        match kind {
            "I" => {
                let lo: f64 = parse_tok(&mut toks, "interval lo")?;
                let hi: f64 = parse_tok(&mut toks, "interval hi")?;
                if lo.is_nan() || hi.is_nan() {
                    return Err(bad("interval bound is NaN"));
                }
                constraints.push(AttrConstraint::Interval { lo, hi });
            }
            "C" => {
                let card: u32 = parse_tok(&mut toks, "cardinality")?;
                let codes_tok = toks.next().ok_or_else(|| bad("missing codes"))?;
                // `-` is the empty-mask sentinel: `split_whitespace`
                // never yields an empty token, so an empty mask must be
                // spelled explicitly to round-trip.
                let codes: Vec<u32> = if codes_tok == "-" {
                    Vec::new()
                } else {
                    codes_tok
                        .split(',')
                        .map(|t| t.parse().map_err(|e| bad(&format!("bad code: {e}"))))
                        .collect::<Result<_, _>>()?
                };
                // Range-check before `CatMask::of`, whose insert is an
                // assert (programmer-error guard) — a malformed file
                // must fail with `InvalidData`, not a panic.
                if let Some(&code) = codes.iter().find(|&&c| c >= card) {
                    return Err(bad(&format!("category code {code} out of range 0..{card}")));
                }
                constraints.push(AttrConstraint::Cats(CatMask::of(card, &codes)));
            }
            other => return Err(bad(&format!("unknown constraint kind {other:?}"))),
        }
    }
    if constraints.len() != schema.len() {
        return Err(bad(&format!(
            "{region_kw} constraint count does not match schema"
        )));
    }
    let floats = meas
        .split_whitespace()
        .map(|tok| {
            tok.parse::<f64>()
                .map_err(|e| bad(&format!("bad measure: {e}")))
        })
        .collect::<Result<Vec<f64>, _>>()?;
    Ok((
        BoxRegion {
            constraints,
            class: None,
        },
        floats,
    ))
}

/// Checks that a cluster-model is persistable: its regions must be
/// class-free, because neither the text nor the binary snapshot format
/// records a region class — persisting one would silently drop it. Both
/// writers call this, so they reject the same models with `InvalidInput`.
pub fn check_cluster_model_persistable(model: &ClusterModel) -> std::io::Result<()> {
    if model.clusters().iter().any(|c| c.class.is_some()) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "cluster regions must be class-free to persist",
        ));
    }
    Ok(())
}

/// Writes a cluster-model (schema + cluster boxes + one selectivity per
/// cluster). Cluster regions must be class-free — a class-carrying region
/// is rejected with `InvalidInput` rather than silently dropped.
pub fn write_cluster_model<W: Write>(
    model: &ClusterModel,
    schema: &Schema,
    w: W,
) -> std::io::Result<()> {
    check_cluster_model_persistable(model)?;
    let mut w = BufWriter::new(w);
    writeln!(
        w,
        "#cluster-model n {} clusters {}",
        model.n_rows(),
        model.clusters().len()
    )?;
    for a in schema.attrs() {
        match &a.ty {
            AttrType::Numeric => writeln!(w, "#num {}", a.name)?,
            AttrType::Categorical { cardinality } => {
                writeln!(w, "#cat {} {}", a.name, cardinality)?
            }
        }
    }
    for (ci, cluster) in model.clusters().iter().enumerate() {
        write!(w, "cluster")?;
        write_constraints(&mut w, &cluster.constraints)?;
        writeln!(w, " | {}", model.measures()[ci])?;
    }
    w.flush()
}

/// Reads a cluster-model written by [`write_cluster_model`]; returns the
/// model and its schema.
pub fn read_cluster_model<R: Read>(r: R) -> std::io::Result<(ClusterModel, Arc<Schema>)> {
    let mut lines = BufReader::new(r).lines();
    let header = lines.next().ok_or_else(|| bad("empty model file"))??;
    let rest = header
        .strip_prefix("#cluster-model n ")
        .ok_or_else(|| bad("missing cluster-model header"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // n <rows> clusters <c>  →  [rows, "clusters", c]
    if fields.len() != 3 || fields[1] != "clusters" {
        return Err(bad("malformed cluster-model header"));
    }
    let n_rows: u64 = fields[0].parse().map_err(|e| bad(&format!("bad n: {e}")))?;
    let n_clusters: u64 = fields[2]
        .parse()
        .map_err(|e| bad(&format!("bad cluster count: {e}")))?;

    let (schema, region_lines) = read_schema_and_regions(lines, "cluster")?;
    let mut clusters = Vec::new();
    let mut measures = Vec::new();
    for line in region_lines {
        let (region, meas) = read_region_line(&line, "cluster", &schema)?;
        if meas.len() != 1 {
            return Err(bad("cluster line must carry exactly one selectivity"));
        }
        clusters.push(region);
        measures.push(meas[0]);
    }
    if clusters.len() as u64 != n_clusters {
        return Err(bad("cluster count does not match header"));
    }
    Ok((ClusterModel::new(clusters, measures, n_rows), schema))
}

fn parse_tok<'a, T: std::str::FromStr>(
    toks: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> std::io::Result<T>
where
    T::Err: std::fmt::Display,
{
    toks.next()
        .ok_or_else(|| bad(&format!("missing {what}")))?
        .parse()
        .map_err(|e| bad(&format!("bad {what}: {e}")))
}

/// A row used by persisted-model round-trip tests (exported for reuse).
pub fn probe_row(schema: &Schema, seed: u64) -> Vec<Value> {
    schema
        .attrs()
        .iter()
        .enumerate()
        .map(|(i, a)| match &a.ty {
            AttrType::Numeric => Value::Num(((seed + i as u64 * 7) % 100) as f64),
            AttrType::Categorical { cardinality } => {
                Value::Cat(((seed + i as u64) % *cardinality as u64) as u32)
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::LabeledTable;
    use crate::model::induce_dt_measures;
    use crate::region::{BoxBuilder, Itemset};

    #[test]
    fn lits_model_round_trip() {
        let model = LitsModel::new(
            vec![
                Itemset::from_slice(&[0]),
                Itemset::from_slice(&[2, 5]),
                Itemset::from_slice(&[1, 2, 9]),
            ],
            vec![0.5, 1.0 / 3.0, 0.125],
            0.01,
            12_345,
        );
        let mut buf = Vec::new();
        write_lits_model(&model, &mut buf).unwrap();
        let back = read_lits_model(buf.as_slice()).unwrap();
        assert_eq!(model, back);
    }

    #[test]
    fn empty_lits_model_round_trip() {
        let model = LitsModel::new(Vec::new(), Vec::new(), 0.05, 0);
        let mut buf = Vec::new();
        write_lits_model(&model, &mut buf).unwrap();
        assert_eq!(read_lits_model(buf.as_slice()).unwrap(), model);
    }

    #[test]
    fn dt_model_round_trip_mixed_schema() {
        let schema = Arc::new(Schema::new(vec![
            Schema::numeric("age"),
            Schema::categorical("elevel", 5),
        ]));
        let mut data = LabeledTable::new(Arc::clone(&schema), 2);
        for i in 0..100 {
            data.push_row(
                &[Value::Num(i as f64), Value::Cat((i % 5) as u32)],
                (i % 2) as u32,
            );
        }
        let model = induce_dt_measures(
            vec![
                BoxBuilder::new(&schema)
                    .lt("age", 50.0)
                    .cats("elevel", &[0, 1])
                    .build(),
                BoxBuilder::new(&schema)
                    .lt("age", 50.0)
                    .cats("elevel", &[2, 3, 4])
                    .build(),
                BoxBuilder::new(&schema).ge("age", 50.0).build(),
            ],
            &data,
        );
        let mut buf = Vec::new();
        write_dt_model(&model, &schema, &mut buf).unwrap();
        let (back, back_schema) = read_dt_model(buf.as_slice()).unwrap();
        assert_eq!(model, back);
        assert_eq!(*back_schema, *schema);
        // Behavioral equivalence on probe rows.
        for seed in 0..20u64 {
            let row = probe_row(&schema, seed);
            assert_eq!(model.locate(&row), back.locate(&row));
            assert_eq!(model.predict(&row), back.predict(&row));
        }
    }

    #[test]
    fn infinite_bounds_round_trip() {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let mut data = LabeledTable::new(Arc::clone(&schema), 2);
        data.push_row(&[Value::Num(1.0)], 0);
        data.push_row(&[Value::Num(5.0)], 1);
        let model = induce_dt_measures(
            vec![
                BoxBuilder::new(&schema).lt("x", 3.0).build(),
                BoxBuilder::new(&schema).ge("x", 3.0).build(),
            ],
            &data,
        );
        let mut buf = Vec::new();
        write_dt_model(&model, &schema, &mut buf).unwrap();
        let (back, _) = read_dt_model(buf.as_slice()).unwrap();
        assert_eq!(model, back, "±inf endpoints must survive");
    }

    #[test]
    fn empty_cat_mask_round_trips() {
        // Regression: an empty `Cats` mask used to emit zero code tokens,
        // so the reader consumed the *next* field as the code list and
        // failed with "missing codes". The `-` sentinel fixes that.
        let schema = Arc::new(Schema::new(vec![
            Schema::categorical("color", 4),
            Schema::numeric("x"),
        ]));
        let leaves = vec![
            BoxRegion {
                constraints: vec![
                    AttrConstraint::Cats(CatMask::empty(4)),
                    AttrConstraint::Interval {
                        lo: f64::NEG_INFINITY,
                        hi: 1.0,
                    },
                ],
                class: None,
            },
            BoxRegion {
                constraints: vec![
                    AttrConstraint::Cats(CatMask::full(4)),
                    AttrConstraint::Interval {
                        lo: 1.0,
                        hi: f64::INFINITY,
                    },
                ],
                class: None,
            },
        ];
        let model = DtModel::new(leaves, 2, vec![0.0, 0.0, 0.25, 0.75], 40);
        let mut buf = Vec::new();
        write_dt_model(&model, &schema, &mut buf).unwrap();
        let text = String::from_utf8(buf.clone()).unwrap();
        assert!(text.contains(" C 4 -"), "sentinel missing:\n{text}");
        let (back, back_schema) = read_dt_model(buf.as_slice()).unwrap();
        assert_eq!(model, back);
        assert_eq!(*back_schema, *schema);
    }

    #[test]
    fn cluster_model_round_trip_mixed_schema() {
        let schema = Arc::new(Schema::new(vec![
            Schema::numeric("x"),
            Schema::categorical("color", 4),
        ]));
        let clusters = vec![
            BoxRegion {
                constraints: vec![
                    AttrConstraint::Interval {
                        lo: f64::NEG_INFINITY,
                        hi: 2.5,
                    },
                    AttrConstraint::Cats(CatMask::of(4, &[0, 3])),
                ],
                class: None,
            },
            BoxRegion {
                constraints: vec![
                    AttrConstraint::Interval { lo: 2.5, hi: 2.5 },
                    AttrConstraint::Cats(CatMask::empty(4)),
                ],
                class: None,
            },
        ];
        let model = ClusterModel::new(clusters, vec![0.75, 0.0], 120);
        let mut buf = Vec::new();
        write_cluster_model(&model, &schema, &mut buf).unwrap();
        let (back, back_schema) = read_cluster_model(buf.as_slice()).unwrap();
        assert_eq!(model, back);
        assert_eq!(*back_schema, *schema);
    }

    #[test]
    fn empty_cluster_model_round_trips() {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let model = ClusterModel::new(Vec::new(), Vec::new(), 0);
        let mut buf = Vec::new();
        write_cluster_model(&model, &schema, &mut buf).unwrap();
        let (back, back_schema) = read_cluster_model(buf.as_slice()).unwrap();
        assert_eq!(model, back);
        assert_eq!(*back_schema, *schema);
    }

    #[test]
    fn cluster_model_rejects_classful_regions() {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let region = BoxBuilder::new(&schema).lt("x", 1.0).class(0).build();
        let model = ClusterModel::new(vec![region], vec![1.0], 10);
        let err = write_cluster_model(&model, &schema, Vec::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
    }

    #[test]
    fn cluster_model_rejects_garbage() {
        assert!(read_cluster_model("nonsense".as_bytes()).is_err());
        assert!(read_cluster_model("#cluster-model n 5 clusters x".as_bytes()).is_err());
        // Header/body cluster-count mismatch.
        let text = "#cluster-model n 5 clusters 2\n#num x\ncluster I 0 1 | 0.5\n";
        assert!(read_cluster_model(text.as_bytes()).is_err());
        // Two selectivities on one cluster line.
        let text = "#cluster-model n 5 clusters 1\n#num x\ncluster I 0 1 | 0.5 0.5\n";
        assert!(read_cluster_model(text.as_bytes()).is_err());
    }

    #[test]
    fn rejects_garbage() {
        assert!(read_lits_model("nonsense".as_bytes()).is_err());
        assert!(read_dt_model("#dt-model classes x".as_bytes()).is_err());
        assert!(
            read_lits_model("#lits-model minsup 0.1 n 10\n1 2 0.5\n".as_bytes()).is_err(),
            "missing '|' separator must fail"
        );
    }

    #[test]
    fn rejects_nan_interval_bounds() {
        // A NaN bound admits no row, but box intersection reads it as
        // unbounded: the GCR would hold regions no scan can agree on.
        for line in ["cluster I nan 1 | 0.5", "cluster I 0 NaN | 0.5"] {
            let text = format!("#cluster-model n 5 clusters 1\n#num x\n{line}\n");
            let err = read_cluster_model(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{line}");
            assert!(err.to_string().contains("NaN"), "{err}");
        }
    }

    #[test]
    fn rejects_out_of_range_category_code_without_panicking() {
        // Code 5 exceeds the declared cardinality 3: must be InvalidData,
        // not the assert inside CatMask::insert.
        let text = "#dt-model classes 2 n 10 leaves 1\n#cat color 3\nleaf C 3 0,5 | 0.5 0.5\n";
        let err = read_dt_model(text.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("code 5"), "{err}");
    }

    #[test]
    fn lits_reader_rejects_minsup_outside_the_unit_interval() {
        // Regression: minsup 2 reached the assert in `LitsModel::new`.
        for minsup in ["2", "-0.5", "NaN", "inf"] {
            let text = format!("#lits-model minsup {minsup} n 5\n0 | 0.5\n");
            let err = read_lits_model(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{minsup}");
            assert!(err.to_string().contains("minsup"), "{err}");
        }
    }

    #[test]
    fn lits_reader_rejects_supports_outside_the_unit_interval() {
        // Regression: a `nan` support loaded and made `bound` print NaN.
        for sup in ["nan", "NaN", "inf", "-inf", "-3", "7", "1.0000001"] {
            let text = format!("#lits-model minsup 0.1 n 5\n0 | {sup}\n");
            let err = read_lits_model(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{sup}");
            assert!(err.to_string().contains("support"), "{err}");
        }
        let edges = "#lits-model minsup 0 n 5\n0 | 0\n1 | 1\n";
        assert_eq!(read_lits_model(edges.as_bytes()).unwrap().len(), 2);
    }

    #[test]
    fn lits_reader_rejects_duplicate_and_empty_itemsets() {
        // Regression: `LitsModel::new` kept the first of two copies of an
        // itemset, collapsed a repeated item, and a `| 0.7` line loaded
        // as the empty itemset.
        for (body, named) in [
            ("1 2 | 0.3\n1 2 | 0.9\n", "duplicate itemset {1,2}"),
            ("2 1 | 0.3\n1 2 | 0.3\n", "duplicate itemset {1,2}"),
            ("1 2 | 0.3\n | 0.7\n", "empty itemset"),
            ("3 1 3 | 0.3\n", "itemset {1,3} lists an item twice"),
        ] {
            let text = format!("#lits-model minsup 0.1 n 5\n{body}");
            let err = read_lits_model(text.as_bytes()).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{body}");
            assert!(err.to_string().contains(named), "{body}: {err}");
        }
    }

    #[test]
    fn dt_reader_rejects_zero_classes() {
        // Regression: `classes 0` with zero leaves reached the
        // `n_classes > 0` assert in `DtModel::new`.
        let text = "#dt-model classes 0 n 10 leaves 0\n#num x\n";
        let err = read_dt_model(text.as_bytes()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("class"), "{err}");
    }
}
