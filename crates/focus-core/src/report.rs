//! One-call comparison reports: deviation + qualification + drill-down in
//! a single artifact.
//!
//! The paper's workflow (Sections 3–5) is: compute `δ`, qualify it against
//! the bootstrap null, and — if significant — rank regions to find *where*
//! the change lives. [`lits_report`] and [`dt_report`] run that pipeline
//! end-to-end and return a structured [`ComparisonReport`] with a
//! human-readable `Display`, which is what a monitoring job would log or
//! page on.

use crate::data::{LabeledTable, TransactionSet};
use crate::deviation::deviate;
use crate::diff::{AggFn, DiffFn};
use crate::family::{DtFamily, LitsFamily};
use crate::model::{DtModel, LitsModel};
use crate::qualify::{qualify, qualify_transactions};
use focus_exec::Parallelism;
use std::fmt;

/// Options for report generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReportOptions {
    /// Bootstrap replicates for the significance column (0 = skip
    /// qualification — e.g. when the caller already knows the verdict).
    pub reps: usize,
    /// Seed for the bootstrap.
    pub seed: u64,
    /// How many top drifting regions to include.
    pub top_k: usize,
}

impl Default for ReportOptions {
    fn default() -> Self {
        Self {
            reps: 49,
            seed: 7,
            top_k: 5,
        }
    }
}

/// The outcome of a full dataset comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ComparisonReport {
    /// Which model class produced the report (`"lits"` or `"dt"`).
    pub model_class: &'static str,
    /// The deviation `δ(f_a, g_sum)`.
    pub deviation: f64,
    /// The model-only upper bound δ* — computable without scans.
    pub bound: Option<f64>,
    /// Bootstrap significance percentage, when requested.
    pub significance_percent: Option<f64>,
    /// Number of GCR regions the deviation aggregated over.
    pub n_regions: usize,
    /// The `top_k` regions by per-region difference: (description, Δ).
    pub top_regions: Vec<(String, f64)>,
    /// Sizes of the two datasets.
    pub sizes: (usize, usize),
}

impl ComparisonReport {
    /// True if the report carries a significance at or above
    /// `100·(1 − alpha)` percent.
    pub fn is_significant(&self, alpha: f64) -> bool {
        self.significance_percent
            .is_some_and(|s| s >= 100.0 * (1.0 - alpha))
    }
}

impl fmt::Display for ComparisonReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "FOCUS {} comparison: |D1| = {}, |D2| = {}",
            self.model_class, self.sizes.0, self.sizes.1
        )?;
        write!(f, "  δ(f_a, g_sum) = {:.6}", self.deviation)?;
        if let Some(b) = self.bound {
            write!(f, "   (δ* = {b:.6})")?;
        }
        writeln!(f)?;
        match self.significance_percent {
            Some(s) => writeln!(f, "  significance: {s:.2}% (bootstrap)")?,
            None => writeln!(f, "  significance: not evaluated")?,
        }
        writeln!(f, "  GCR regions: {}", self.n_regions)?;
        if !self.top_regions.is_empty() {
            writeln!(f, "  top drifting regions:")?;
            for (desc, d) in &self.top_regions {
                writeln!(f, "    Δ = {d:.5}  {desc}")?;
            }
        }
        Ok(())
    }
}

/// Runs the full lits pipeline: deviation over the GCR, δ*, optional
/// bootstrap qualification (re-mining per replicate via `miner`), and the
/// top-k drifting itemsets.
pub fn lits_report<M>(
    d1: &TransactionSet,
    d2: &TransactionSet,
    miner: M,
    opts: ReportOptions,
) -> ComparisonReport
where
    M: Fn(&TransactionSet) -> LitsModel + Sync,
{
    let m1 = miner(d1);
    let m2 = miner(d2);
    let dev = deviate::<LitsFamily>(&m1, d1, &m2, d2, DiffFn::Absolute, AggFn::Sum);
    let bound = crate::bound::lits_upper_bound(&m1, &m2, AggFn::Sum);

    let significance = if opts.reps > 0 {
        let q = qualify_transactions(d1, d2, dev.value, opts.reps, opts.seed, |a, b| {
            let ma = miner(a);
            let mb = miner(b);
            deviate::<LitsFamily>(&ma, a, &mb, b, DiffFn::Absolute, AggFn::Sum).value
        });
        Some(q.significance_percent)
    } else {
        None
    };

    let mut ranked: Vec<(String, f64)> = dev
        .gcr
        .iter()
        .zip(&dev.per_region)
        .map(|(s, &d)| (s.to_string(), d))
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite diffs"));
    ranked.truncate(opts.top_k);

    ComparisonReport {
        model_class: "lits",
        deviation: dev.value,
        bound: Some(bound),
        significance_percent: significance,
        n_regions: dev.gcr.len(),
        top_regions: ranked,
        sizes: (d1.len(), d2.len()),
    }
}

/// Runs the full dt pipeline with a caller-supplied model builder
/// (typically a CART fit).
pub fn dt_report<M>(
    d1: &LabeledTable,
    d2: &LabeledTable,
    fit: M,
    opts: ReportOptions,
) -> ComparisonReport
where
    M: Fn(&LabeledTable) -> DtModel + Sync,
{
    let m1 = fit(d1);
    let m2 = fit(d2);
    let dev = deviate::<DtFamily>(&m1, d1, &m2, d2, DiffFn::Absolute, AggFn::Sum);
    let significance = if opts.reps > 0 {
        let q = qualify(
            d1,
            d2,
            dev.value,
            opts.reps,
            opts.seed,
            Parallelism::Global,
            |a, b| {
                let ma = fit(a);
                let mb = fit(b);
                deviate::<DtFamily>(&ma, a, &mb, b, DiffFn::Absolute, AggFn::Sum).value
            },
        );
        Some(q.significance_percent)
    } else {
        None
    };

    let schema = d1.table.schema();
    let k = m1.n_classes() as usize;
    let mut ranked: Vec<(String, f64)> = dev
        .gcr
        .cells()
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            let total: f64 = (0..k).map(|c| dev.per_region[i * k + c]).sum();
            (cell.region.describe(schema), total)
        })
        .collect();
    ranked.sort_by(|a, b| b.1.partial_cmp(&a.1).expect("finite diffs"));
    ranked.truncate(opts.top_k);

    ComparisonReport {
        model_class: "dt",
        deviation: dev.value,
        bound: Some(crate::bound::dt_upper_bound(&m1, &m2, AggFn::Sum)),
        significance_percent: significance,
        n_regions: dev.gcr.cells().len() * k,
        top_regions: ranked,
        sizes: (d1.len(), d2.len()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::{Schema, Value};
    use crate::model::{induce_dt_measures, induce_lits_measures};
    use crate::region::{BoxBuilder, Itemset};
    use std::sync::Arc;

    fn txns(rows: &[&[u32]]) -> TransactionSet {
        let mut t = TransactionSet::new(4);
        for r in rows {
            t.push(r.to_vec());
        }
        t
    }

    /// A trivial "miner" with a fixed structure — keeps tests fast and
    /// deterministic without depending on the mining crate.
    fn fixed_miner(d: &TransactionSet) -> LitsModel {
        induce_lits_measures(
            vec![
                Itemset::from_slice(&[0]),
                Itemset::from_slice(&[1]),
                Itemset::from_slice(&[0, 1]),
            ],
            0.1,
            d,
        )
    }

    #[test]
    fn lits_report_end_to_end() {
        let d1 = txns(&[&[0, 1], &[0], &[0, 1], &[1]]);
        let d2 = txns(&[&[2], &[2, 3], &[3], &[2]]);
        let r = lits_report(&d1, &d2, fixed_miner, ReportOptions::default());
        assert_eq!(r.model_class, "lits");
        assert!(r.deviation > 0.0);
        assert!(r.bound.unwrap() >= r.deviation - 1e-12);
        assert!(r.significance_percent.is_some());
        assert_eq!(r.sizes, (4, 4));
        assert!(!r.top_regions.is_empty());
        // Top regions are sorted descending.
        assert!(r.top_regions.windows(2).all(|w| w[0].1 >= w[1].1));
    }

    #[test]
    fn report_skips_qualification_when_reps_zero() {
        let d1 = txns(&[&[0, 1], &[0]]);
        let r = lits_report(
            &d1,
            &d1,
            fixed_miner,
            ReportOptions {
                reps: 0,
                ..Default::default()
            },
        );
        assert_eq!(r.significance_percent, None);
        assert_eq!(r.deviation, 0.0);
        assert!(!r.is_significant(0.05));
    }

    #[test]
    fn dt_report_end_to_end_and_display() {
        let schema = Arc::new(Schema::new(vec![Schema::numeric("age")]));
        let mut d1 = LabeledTable::new(Arc::clone(&schema), 2);
        let mut d2 = LabeledTable::new(Arc::clone(&schema), 2);
        for i in 0..200 {
            let age = (i % 100) as f64;
            d1.push_row(&[Value::Num(age)], u32::from(age < 30.0));
            d2.push_row(&[Value::Num(age)], u32::from(age < 60.0));
        }
        let fit = |d: &LabeledTable| {
            induce_dt_measures(
                vec![
                    BoxBuilder::new(&schema).lt("age", 45.0).build(),
                    BoxBuilder::new(&schema).ge("age", 45.0).build(),
                ],
                d,
            )
        };
        let r = dt_report(&d1, &d2, fit, ReportOptions::default());
        assert_eq!(r.model_class, "dt");
        assert!(r.deviation > 0.1);
        assert!(r.is_significant(0.05), "{:?}", r.significance_percent);
        let text = r.to_string();
        assert!(text.contains("FOCUS dt comparison"));
        assert!(text.contains("significance"));
        assert!(text.contains("top drifting regions"));
    }

    #[test]
    fn top_k_truncates() {
        let d1 = txns(&[&[0, 1], &[0], &[1]]);
        let d2 = txns(&[&[0], &[1], &[0, 1]]);
        let r = lits_report(
            &d1,
            &d2,
            fixed_miner,
            ReportOptions {
                reps: 0,
                top_k: 2,
                ..Default::default()
            },
        );
        assert!(r.top_regions.len() <= 2);
    }
}
