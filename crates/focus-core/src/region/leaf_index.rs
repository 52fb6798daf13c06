//! A routing index over a list of boxes: finds the first box that contains
//! a row by descending a tree of axis cuts instead of testing every box.

use super::{AttrConstraint, BoxRegion, CatMask};
use crate::data::Value;

/// Routes a row to the first box of a fixed list that contains it — the
/// answer of `boxes.iter().position(|b| b.contains(row))` — with one
/// comparison per tree level plus the `contains` tests of one small bucket.
///
/// The index is a tree of axis cuts that no box straddles:
///
/// * a numeric cut at `v` on attribute `a`: every box of the node has
///   `hi ≤ v` (rows with `x < v` descend there) or `lo ≥ v` (rows with
///   `x ≥ v`);
/// * a categorical cut: a code set closed under the boxes' masks (every
///   mask lies inside the set or misses it).
///
/// A row can only fall in boxes on its side of a cut, so descending never
/// skips a box that contains it. A node without such a cut keeps its boxes
/// in index order and tests each in turn, so first-match semantics hold
/// even for overlapping or non-guillotine box lists (e.g. read from a
/// model file). Boxes that admit no row (an empty interval or mask) are
/// left out; a NaN value descends to neither side of a numeric cut and
/// matches no box, exactly as [`BoxRegion::contains`] rejects it.
///
/// The index stores box *indices* only: [`LeafIndex::locate`] takes the
/// box list it was built from.
#[derive(Debug, Clone, PartialEq)]
pub struct LeafIndex {
    /// The tree; node 0 is the root.
    nodes: Vec<Node>,
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    /// Rows with `row[attr] < cut` descend to `below`, rows with
    /// `row[attr] ≥ cut` to `above`.
    Num {
        attr: usize,
        cut: f64,
        below: usize,
        above: usize,
    },
    /// Rows whose code is in `codes` descend to `inside`, the rest to
    /// `outside`.
    Cat {
        attr: usize,
        codes: CatMask,
        inside: usize,
        outside: usize,
    },
    /// Candidate boxes in index order; the first that contains the row wins.
    Scan(Vec<usize>),
}

/// A cut of one node's boxes. Boxes on its first side (`hi ≤ v`, or mask
/// inside the code set) take the rows the cut's test accepts.
enum Cut {
    Num(usize, f64),
    Cat(usize, CatMask),
}

impl Cut {
    fn first_side(&self, b: &BoxRegion) -> bool {
        match self {
            Cut::Num(attr, v) => interval(b, *attr).1 <= *v,
            Cut::Cat(attr, codes) => cats(b, *attr).difference(codes).is_empty(),
        }
    }
}

impl LeafIndex {
    /// Builds the index over `boxes`. Every node takes the most balanced
    /// cut over all attributes (ties to the lower attribute); finding it
    /// sorts the node's boxes once per numeric attribute, so one level of
    /// the tree costs `O(d · L log L)` for `L` boxes over `d` attributes.
    pub fn new(boxes: &[BoxRegion]) -> Self {
        let live: Vec<usize> = (0..boxes.len())
            .filter(|&i| admits_rows(&boxes[i]))
            .collect();
        let mut nodes = vec![Node::Scan(Vec::new())];
        let mut work = vec![(0, live)];
        while let Some((at, ids)) = work.pop() {
            nodes[at] = match best_cut(boxes, &ids) {
                None => Node::Scan(ids),
                Some(cut) => {
                    let (first, second): (Vec<usize>, Vec<usize>) =
                        ids.iter().partition(|&&i| cut.first_side(&boxes[i]));
                    let (a, b) = (nodes.len(), nodes.len() + 1);
                    nodes.push(Node::Scan(Vec::new()));
                    nodes.push(Node::Scan(Vec::new()));
                    work.push((a, first));
                    work.push((b, second));
                    match cut {
                        Cut::Num(attr, cut) => Node::Num {
                            attr,
                            cut,
                            below: a,
                            above: b,
                        },
                        Cut::Cat(attr, codes) => Node::Cat {
                            attr,
                            codes,
                            inside: a,
                            outside: b,
                        },
                    }
                }
            };
        }
        Self { nodes }
    }

    /// Index of the first box of `boxes` (the list the index was built
    /// from) that contains `row`, if any.
    pub fn locate(&self, boxes: &[BoxRegion], row: &[Value]) -> Option<usize> {
        let mut at = 0;
        loop {
            at = match &self.nodes[at] {
                Node::Num {
                    attr,
                    cut,
                    below,
                    above,
                } => match row[*attr] {
                    Value::Num(x) if x < *cut => *below,
                    Value::Num(x) if x >= *cut => *above,
                    Value::Num(_) => return None,
                    Value::Cat(_) => panic!("constraint kind does not match value kind"),
                },
                Node::Cat {
                    attr,
                    codes,
                    inside,
                    outside,
                } => match row[*attr] {
                    Value::Cat(c) if codes.contains(c) => *inside,
                    Value::Cat(_) => *outside,
                    Value::Num(_) => panic!("constraint kind does not match value kind"),
                },
                Node::Scan(ids) => return ids.iter().copied().find(|&i| boxes[i].contains(row)),
            };
        }
    }
}

/// True unless some constraint of `b` is empty, in which case no row can
/// fall in `b` (a NaN endpoint makes an interval empty too).
fn admits_rows(b: &BoxRegion) -> bool {
    b.constraints.iter().all(|c| match c {
        AttrConstraint::Interval { lo, hi } => lo < hi,
        AttrConstraint::Cats(m) => !m.is_empty(),
    })
}

fn interval(b: &BoxRegion, attr: usize) -> (f64, f64) {
    match &b.constraints[attr] {
        AttrConstraint::Interval { lo, hi } => (*lo, *hi),
        AttrConstraint::Cats(_) => unreachable!("cut attribute checked numeric"),
    }
}

fn cats(b: &BoxRegion, attr: usize) -> &CatMask {
    match &b.constraints[attr] {
        AttrConstraint::Cats(m) => m,
        AttrConstraint::Interval { .. } => unreachable!("cut attribute checked categorical"),
    }
}

/// The most balanced cut of the boxes `ids` over any attribute, `None`
/// when no attribute separates them. An attribute whose constraints mix
/// kinds or cardinalities across the boxes (a malformed model file) is
/// never cut on.
fn best_cut(boxes: &[BoxRegion], ids: &[usize]) -> Option<Cut> {
    if ids.len() < 2 {
        return None;
    }
    let first = &boxes[ids[0]];
    let mut best: Option<(usize, Cut)> = None;
    for (attr, c) in first.constraints.iter().enumerate() {
        let uniform = ids
            .iter()
            .all(|&i| match (c, boxes[i].constraints.get(attr)) {
                (AttrConstraint::Interval { .. }, Some(AttrConstraint::Interval { .. })) => true,
                (AttrConstraint::Cats(a), Some(AttrConstraint::Cats(b))) => {
                    a.cardinality() == b.cardinality()
                }
                _ => false,
            });
        if !uniform {
            continue;
        }
        let found = match c {
            AttrConstraint::Interval { .. } => numeric_cut(boxes, ids, attr),
            AttrConstraint::Cats(_) => categorical_cut(boxes, ids, attr),
        };
        if let Some((larger, cut)) = found {
            if best.as_ref().is_none_or(|(b, _)| larger < *b) {
                best = Some((larger, cut));
            }
        }
    }
    best.map(|(_, cut)| cut)
}

/// Sweeps the boxes in `lo` order: between positions `t − 1` and `t` a cut
/// at `lo[t]` is valid when no earlier box reaches past it. Returns the
/// valid cut with the smallest larger side.
fn numeric_cut(boxes: &[BoxRegion], ids: &[usize], attr: usize) -> Option<(usize, Cut)> {
    let mut spans: Vec<(f64, f64)> = ids.iter().map(|&i| interval(&boxes[i], attr)).collect();
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let n = spans.len();
    let mut reach = f64::NEG_INFINITY;
    let mut best: Option<(usize, f64)> = None;
    for t in 1..n {
        reach = reach.max(spans[t - 1].1);
        let larger = t.max(n - t);
        if reach <= spans[t].0 && best.is_none_or(|(b, _)| larger < b) {
            best = Some((larger, spans[t].0));
        }
    }
    best.map(|(larger, v)| (larger, Cut::Num(attr, v)))
}

/// Merges the boxes' masks into connected code components (two masks that
/// share a code land in one component); any union of components is a
/// closed code set. Returns the most balanced prefix union.
fn categorical_cut(boxes: &[BoxRegion], ids: &[usize], attr: usize) -> Option<(usize, Cut)> {
    let mut comps: Vec<(CatMask, usize)> = Vec::new();
    for &i in ids {
        let mask = cats(&boxes[i], attr);
        let mut merged = (mask.clone(), 1usize);
        comps.retain(|(codes, k)| {
            if codes.intersect(mask).is_empty() {
                return true;
            }
            merged.0 = merged.0.union(codes);
            merged.1 += k;
            false
        });
        comps.push(merged);
    }
    let n = ids.len();
    let mut codes = CatMask::empty(cats(&boxes[ids[0]], attr).cardinality());
    let mut inside = 0;
    let mut best: Option<(usize, CatMask)> = None;
    for (comp, k) in comps.iter().take(comps.len().saturating_sub(1)) {
        codes = codes.union(comp);
        inside += k;
        let larger = inside.max(n - inside);
        if best.as_ref().is_none_or(|(b, _)| larger < *b) {
            best = Some((larger, codes.clone()));
        }
    }
    best.map(|(larger, codes)| (larger, Cut::Cat(attr, codes)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Schema;
    use crate::region::BoxBuilder;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Schema::numeric("x"),
            Schema::categorical("c", 4),
        ]))
    }

    fn linear(boxes: &[BoxRegion], row: &[Value]) -> Option<usize> {
        boxes.iter().position(|b| b.contains(row))
    }

    fn probes() -> Vec<Vec<Value>> {
        let mut rows = Vec::new();
        for x in [
            -1.0,
            0.0,
            2.5,
            5.0,
            7.0,
            10.0,
            12.0,
            f64::NAN,
            f64::INFINITY,
        ] {
            for c in 0..5 {
                rows.push(vec![Value::Num(x), Value::Cat(c)]);
            }
        }
        rows
    }

    #[test]
    fn guillotine_partition_is_cut_to_single_boxes() {
        let s = schema();
        let boxes = vec![
            BoxBuilder::new(&s).lt("x", 5.0).cats("c", &[0, 1]).build(),
            BoxBuilder::new(&s).lt("x", 5.0).cats("c", &[2, 3]).build(),
            BoxBuilder::new(&s).range("x", 5.0, 10.0).build(),
            BoxBuilder::new(&s).ge("x", 10.0).build(),
        ];
        let index = LeafIndex::new(&boxes);
        assert!(index
            .nodes
            .iter()
            .all(|n| !matches!(n, Node::Scan(ids) if ids.len() > 1)));
        for row in probes() {
            assert_eq!(index.locate(&boxes, &row), linear(&boxes, &row), "{row:?}");
        }
    }

    #[test]
    fn overlapping_boxes_keep_first_match() {
        let s = schema();
        let mut boxes = vec![
            BoxBuilder::new(&s).range("x", 0.0, 7.0).build(),
            BoxBuilder::new(&s).range("x", 2.5, 12.0).build(),
            BoxBuilder::new(&s).ge("x", 4.0).build(),
            BoxBuilder::new(&s).cats("c", &[]).build(),
            BoxBuilder::new(&s).ge("x", 12.0).build(),
        ];
        // A degenerate interval admits no row.
        boxes[2].constraints[0] = AttrConstraint::Interval { lo: 5.0, hi: 5.0 };
        let index = LeafIndex::new(&boxes);
        for row in probes() {
            assert_eq!(index.locate(&boxes, &row), linear(&boxes, &row), "{row:?}");
        }
    }

    #[test]
    fn empty_list_locates_nothing() {
        let index = LeafIndex::new(&[]);
        assert_eq!(index.locate(&[], &[Value::Num(1.0), Value::Cat(0)]), None);
    }
}
