//! Greatest common refinement (GCR) of structural components.
//!
//! The refinement relation `≼` (Definition 3.4) orders structural
//! components: `Γ1 ≼ Γ2` when every region of `Γ2` is exactly covered by a
//! set of regions of `Γ1` (measures add up for any dataset). The GCR of two
//! structures is their greatest lower bound under `≼`; extending both models
//! to the GCR is what makes two structurally different models comparable
//! (Definition 3.6).
//!
//! * **lits** (Section 4.1): structures are sets of itemsets ordered by `⊇`;
//!   the GCR is the union of the two families.
//! * **dt** (Section 4.2, Definition 4.2): structures are leaf partitions of
//!   the attribute space; the GCR is the overlay — all non-empty pairwise
//!   intersections of leaf cells ("anding all possible pairs of predicates").
//! * **cluster**: same overlay idea but the regions need not be exhaustive,
//!   so the GCR adds the *remainders* — the parts of each cluster not
//!   covered by the other model's clusters — decomposed into disjoint boxes
//!   ([`ClusterGcr`], which records each region's origin so the measure
//!   scan can route rows instead of testing every region).

use crate::data::Value;
use crate::region::{BoxRegion, Itemset};

/// GCR of two lits-model structures: the union of the itemset families,
/// deduplicated, in canonical order (Proposition 4.1 — the powerset with
/// `⊇` is a meet-semilattice and the meet is the union).
pub fn gcr_lits(a: &[Itemset], b: &[Itemset]) -> Vec<Itemset> {
    let mut out: Vec<Itemset> = a.iter().chain(b.iter()).cloned().collect();
    out.sort();
    out.dedup();
    out
}

/// A cell of a dt-model GCR: the intersection of leaf `i` of the first model
/// with leaf `j` of the second, remembering its parentage so measures can be
/// attributed back to the original leaves.
#[derive(Debug, Clone, PartialEq)]
pub struct OverlayCell {
    /// The geometric cell.
    pub region: BoxRegion,
    /// Index of the first model's leaf this cell refines.
    pub left: usize,
    /// Index of the second model's leaf this cell refines.
    pub right: usize,
}

/// GCR of two exhaustive leaf partitions: all non-empty pairwise
/// intersections (Definition 4.2). Because both inputs partition the
/// attribute space, the output partitions it too and refines both inputs.
pub fn gcr_partition(a: &[BoxRegion], b: &[BoxRegion]) -> Vec<OverlayCell> {
    let mut cells = Vec::new();
    for (i, ra) in a.iter().enumerate() {
        for (j, rb) in b.iter().enumerate() {
            if let Some(region) = ra.intersect(rb) {
                cells.push(OverlayCell {
                    region,
                    left: i,
                    right: j,
                });
            }
        }
    }
    cells
}

/// Where a region of a [`ClusterGcr`] comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BoxOrigin {
    /// The intersection `aᵢ ∩ bⱼ`.
    Both(usize, usize),
    /// A piece of the remainder `aᵢ \ ∪ⱼ bⱼ`.
    LeftOnly(usize),
    /// A piece of the remainder `bⱼ \ ∪ᵢ aᵢ`.
    RightOnly(usize),
}

/// GCR of two *non-exhaustive* box families (cluster-models): the regions,
/// each with its [`BoxOrigin`], and the tables from origins to region slots
/// that the measure scan routes rows by.
///
/// The regions come in three groups, in this order:
/// 1. pairwise intersections `aᵢ ∩ bⱼ` (`i`-major);
/// 2. for each `aᵢ`, the pieces of its remainder `aᵢ \ ∪ⱼ bⱼ` (the part
///    the right model does not cover);
/// 3. for each `bⱼ`, the pieces of its remainder `bⱼ \ ∪ᵢ aᵢ`.
///
/// The pieces of one remainder are disjoint boxes that cover it exactly
/// ([`BoxRegion::subtract`]). Intersections overlap one another when one
/// model's boxes overlap. Together the regions refine every input region:
/// each `aᵢ` is exactly the union of its intersections with the `b`s plus
/// its remainder (and symmetrically), so measures add up for any dataset —
/// the Definition 3.4 condition.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterGcr {
    regions: Vec<BoxRegion>,
    origins: Vec<BoxOrigin>,
    /// `both[i * n_right + j]`: the slot of the region `aᵢ ∩ bⱼ`, if any.
    both: Vec<Option<usize>>,
    /// Slots of each left box's remainder pieces.
    left_pieces: Vec<Vec<usize>>,
    /// Slots of each right box's remainder pieces.
    right_pieces: Vec<Vec<usize>>,
}

impl ClusterGcr {
    /// The GCR of the box families `a` and `b`.
    pub(crate) fn new(a: &[BoxRegion], b: &[BoxRegion]) -> Self {
        let mut regions = Vec::new();
        let mut origins = Vec::new();
        for (i, ra) in a.iter().enumerate() {
            for (j, rb) in b.iter().enumerate() {
                if let Some(r) = ra.intersect(rb) {
                    regions.push(r);
                    origins.push(BoxOrigin::Both(i, j));
                }
            }
        }
        for (i, ra) in a.iter().enumerate() {
            for piece in remainder(ra, b) {
                regions.push(piece);
                origins.push(BoxOrigin::LeftOnly(i));
            }
        }
        for (j, rb) in b.iter().enumerate() {
            for piece in remainder(rb, a) {
                regions.push(piece);
                origins.push(BoxOrigin::RightOnly(j));
            }
        }
        Self::routed(regions, origins, a.len(), b.len())
    }

    /// Builds the origin-to-slot tables for `regions`.
    fn routed(
        regions: Vec<BoxRegion>,
        origins: Vec<BoxOrigin>,
        n_left: usize,
        n_right: usize,
    ) -> Self {
        let mut both = vec![None; n_left * n_right];
        let mut left_pieces = vec![Vec::new(); n_left];
        let mut right_pieces = vec![Vec::new(); n_right];
        for (slot, origin) in origins.iter().enumerate() {
            match *origin {
                BoxOrigin::Both(i, j) => both[i * n_right + j] = Some(slot),
                BoxOrigin::LeftOnly(i) => left_pieces[i].push(slot),
                BoxOrigin::RightOnly(j) => right_pieces[j].push(slot),
            }
        }
        Self {
            regions,
            origins,
            both,
            left_pieces,
            right_pieces,
        }
    }

    /// Intersects every region with the focussing region ρ; regions that
    /// miss ρ drop out (Definition 5.2). The origin tables follow.
    pub(crate) fn restrict(self, focus: &BoxRegion) -> Self {
        let (n_left, n_right) = self.model_sizes();
        let (regions, origins) = self
            .regions
            .iter()
            .zip(&self.origins)
            .filter_map(|(r, o)| r.intersect(focus).map(|r| (r, *o)))
            .unzip();
        Self::routed(regions, origins, n_left, n_right)
    }

    /// The regions, in group order.
    pub fn regions(&self) -> &[BoxRegion] {
        &self.regions
    }

    /// The origin of each region, parallel to [`Self::regions`].
    pub fn origins(&self) -> &[BoxOrigin] {
        &self.origins
    }

    /// Number of boxes of the left and right model the GCR was built from.
    pub(crate) fn model_sizes(&self) -> (usize, usize) {
        (self.left_pieces.len(), self.right_pieces.len())
    }

    /// Adds a row that lies in exactly the left boxes `in_a` and the right
    /// boxes `in_b` to the count of every region that contains it.
    ///
    /// The row is credited to `aᵢ ∩ bⱼ` for every pair it is in. Only when
    /// no box of `in_b` has an intersection region with `aᵢ` does the row
    /// search `aᵢ`'s remainder pieces (and symmetrically for `bⱼ`): the
    /// pieces are disjoint, so at most one holds the row, and none holds a
    /// row of a box that meets `aᵢ`. This gives the counts of testing the
    /// row against every region.
    pub(crate) fn tally(&self, row: &[Value], in_a: &[usize], in_b: &[usize], counts: &mut [u64]) {
        let n_right = self.right_pieces.len();
        let mut credit = |slot: usize| {
            let hit = self.regions[slot].contains(row);
            counts[slot] += u64::from(hit);
            hit
        };
        for &i in in_a {
            let mut met = false;
            for &j in in_b {
                if let Some(slot) = self.both[i * n_right + j] {
                    met = true;
                    credit(slot);
                }
            }
            if !met {
                self.left_pieces[i].iter().any(|&slot| credit(slot));
            }
        }
        for &j in in_b {
            if in_a.iter().all(|&i| self.both[i * n_right + j].is_none()) {
                self.right_pieces[j].iter().any(|&slot| credit(slot));
            }
        }
    }
}

/// The regions of the [`ClusterGcr`] of `a` and `b`: pairwise
/// intersections, then the remainder pieces of each left box, then those
/// of each right box.
pub fn gcr_boxes(a: &[BoxRegion], b: &[BoxRegion]) -> Vec<BoxRegion> {
    ClusterGcr::new(a, b).regions
}

/// The disjoint boxes covering the part of `r` not covered by any region
/// of `minus`.
fn remainder(r: &BoxRegion, minus: &[BoxRegion]) -> Vec<BoxRegion> {
    let mut pieces = vec![r.clone()];
    for m in minus {
        let mut next = Vec::new();
        for p in pieces {
            next.extend(p.subtract(m));
        }
        pieces = next;
        if pieces.is_empty() {
            break;
        }
    }
    pieces
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Schema, Value};
    use crate::region::BoxBuilder;
    use std::sync::Arc;

    #[test]
    fn gcr_lits_is_sorted_union() {
        let a = vec![Itemset::from_slice(&[0]), Itemset::from_slice(&[0, 1])];
        let b = vec![Itemset::from_slice(&[1]), Itemset::from_slice(&[0])];
        let g = gcr_lits(&a, &b);
        assert_eq!(
            g,
            vec![
                Itemset::from_slice(&[0]),
                Itemset::from_slice(&[0, 1]),
                Itemset::from_slice(&[1]),
            ]
        );
    }

    #[test]
    fn gcr_lits_paper_figure_6() {
        // L1 = {a, b, ab}, L2 = {b, c, bc} over items a=0, b=1, c=2.
        // GCR = {a, b, c, ab, bc} — five itemsets.
        let l1 = vec![
            Itemset::from_slice(&[0]),
            Itemset::from_slice(&[1]),
            Itemset::from_slice(&[0, 1]),
        ];
        let l2 = vec![
            Itemset::from_slice(&[1]),
            Itemset::from_slice(&[2]),
            Itemset::from_slice(&[1, 2]),
        ];
        assert_eq!(gcr_lits(&l1, &l2).len(), 5);
    }

    fn schema2d() -> Arc<Schema> {
        Arc::new(Schema::new(vec![
            Schema::numeric("age"),
            Schema::numeric("salary"),
        ]))
    }

    #[test]
    fn gcr_partition_overlay_counts() {
        // T1 splits age at 30 (2 leaves); T2 splits salary at 80K (2 leaves).
        // The overlay is a 2×2 grid: 4 cells.
        let s = schema2d();
        let t1 = vec![
            BoxBuilder::new(&s).lt("age", 30.0).build(),
            BoxBuilder::new(&s).ge("age", 30.0).build(),
        ];
        let t2 = vec![
            BoxBuilder::new(&s).lt("salary", 80_000.0).build(),
            BoxBuilder::new(&s).ge("salary", 80_000.0).build(),
        ];
        let cells = gcr_partition(&t1, &t2);
        assert_eq!(cells.len(), 4);
        // Parentage covers every (left, right) pair exactly once here.
        let mut pairs: Vec<(usize, usize)> = cells.iter().map(|c| (c.left, c.right)).collect();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 0), (0, 1), (1, 0), (1, 1)]);
    }

    #[test]
    fn gcr_partition_refines_both_inputs() {
        // Each input leaf must equal the union of its overlay cells:
        // verified pointwise on a grid of probe points.
        let s = schema2d();
        let t1 = vec![
            BoxBuilder::new(&s).lt("age", 30.0).build(),
            BoxBuilder::new(&s).range("age", 30.0, 50.0).build(),
            BoxBuilder::new(&s).ge("age", 50.0).build(),
        ];
        let t2 = vec![
            BoxBuilder::new(&s).lt("salary", 80_000.0).build(),
            BoxBuilder::new(&s).ge("salary", 80_000.0).build(),
        ];
        let cells = gcr_partition(&t1, &t2);
        for age in [10.0, 30.0, 40.0, 50.0, 90.0] {
            for salary in [10_000.0, 80_000.0, 200_000.0] {
                let row = [Value::Num(age), Value::Num(salary)];
                // Exactly one cell contains each point (it is a partition)…
                let hits: Vec<&OverlayCell> =
                    cells.iter().filter(|c| c.region.contains(&row)).collect();
                assert_eq!(hits.len(), 1, "point ({age},{salary})");
                // …and its parentage agrees with the original partitions.
                let c = hits[0];
                assert!(t1[c.left].contains(&row));
                assert!(t2[c.right].contains(&row));
            }
        }
    }

    #[test]
    fn gcr_partition_skips_empty_intersections() {
        let s = schema2d();
        let t1 = vec![
            BoxBuilder::new(&s).lt("age", 30.0).build(),
            BoxBuilder::new(&s).ge("age", 30.0).build(),
        ];
        // T2 also splits on age — half the pairwise intersections are empty.
        let t2 = vec![
            BoxBuilder::new(&s).lt("age", 30.0).build(),
            BoxBuilder::new(&s).ge("age", 30.0).build(),
        ];
        let cells = gcr_partition(&t1, &t2);
        assert_eq!(cells.len(), 2);
    }

    #[test]
    fn gcr_boxes_cluster_overlap() {
        // Two overlapping clusters on a line: a = [0,10), b = [5,15).
        // GCR: intersection [5,10), remainder of a [0,5), remainder of b
        // [10,15) — three disjoint pieces covering a ∪ b.
        let s = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let a = vec![BoxBuilder::new(&s).range("x", 0.0, 10.0).build()];
        let b = vec![BoxBuilder::new(&s).range("x", 5.0, 15.0).build()];
        let g = gcr_boxes(&a, &b);
        assert_eq!(g.len(), 3);
        for (i, p) in g.iter().enumerate() {
            for q in &g[i + 1..] {
                assert!(p.intersect(q).is_none(), "pieces must be disjoint");
            }
        }
        // Pointwise coverage of a: [0,10) must be exactly covered.
        for x in [0.0, 2.5, 5.0, 7.5, 9.9] {
            let row = [Value::Num(x)];
            let hits = g.iter().filter(|r| r.contains(&row)).count();
            assert_eq!(hits, 1, "x = {x}");
        }
    }

    #[test]
    fn gcr_boxes_disjoint_clusters_pass_through() {
        let s = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let a = vec![BoxBuilder::new(&s).range("x", 0.0, 1.0).build()];
        let b = vec![BoxBuilder::new(&s).range("x", 5.0, 6.0).build()];
        let g = gcr_boxes(&a, &b);
        // No intersections; each cluster survives as its own remainder.
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn gcr_boxes_identical_families_no_remainder() {
        let s = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let a = vec![BoxBuilder::new(&s).range("x", 0.0, 1.0).build()];
        let g = gcr_boxes(&a, &a);
        assert_eq!(g.len(), 1);
        assert_eq!(g[0], a[0]);
    }

    #[test]
    fn cluster_gcr_origins_follow_the_groups_through_restrict() {
        // a = [0,10), b = [5,15): intersection, then a's remainder, then
        // b's. Focussing on [8,20) drops a's remainder [0,5) and keeps the
        // other two regions with their origins.
        let s = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let a = vec![BoxBuilder::new(&s).range("x", 0.0, 10.0).build()];
        let b = vec![BoxBuilder::new(&s).range("x", 5.0, 15.0).build()];
        let gcr = ClusterGcr::new(&a, &b);
        assert_eq!(
            gcr.origins(),
            [
                BoxOrigin::Both(0, 0),
                BoxOrigin::LeftOnly(0),
                BoxOrigin::RightOnly(0)
            ]
        );
        let focussed = gcr.restrict(&BoxBuilder::new(&s).range("x", 8.0, 20.0).build());
        assert_eq!(
            focussed.origins(),
            [BoxOrigin::Both(0, 0), BoxOrigin::RightOnly(0)]
        );
        assert_eq!(
            focussed.regions(),
            [
                BoxBuilder::new(&s).range("x", 8.0, 10.0).build(),
                BoxBuilder::new(&s).range("x", 10.0, 15.0).build()
            ]
        );
        // Rows in both boxes are credited to the intersection only; a row
        // in a alone finds no piece (its remainder was focussed away).
        let mut counts = vec![0; 2];
        focussed.tally(&[Value::Num(9.0)], &[0], &[0], &mut counts);
        focussed.tally(&[Value::Num(6.0)], &[0], &[0], &mut counts);
        focussed.tally(&[Value::Num(2.0)], &[0], &[], &mut counts);
        focussed.tally(&[Value::Num(12.0)], &[], &[0], &mut counts);
        assert_eq!(counts, vec![1, 1]);
    }

    #[test]
    fn remainders_subtract_union_not_pieces() {
        // One left cluster covered by the union of two right clusters: the
        // remainder must be empty even though neither right cluster alone
        // covers it.
        let s = Arc::new(Schema::new(vec![Schema::numeric("x")]));
        let a = BoxBuilder::new(&s).range("x", 0.0, 10.0).build();
        let b = vec![
            BoxBuilder::new(&s).range("x", 0.0, 6.0).build(),
            BoxBuilder::new(&s).range("x", 6.0, 10.0).build(),
        ];
        assert!(remainder(&a, &b).is_empty());
    }
}
