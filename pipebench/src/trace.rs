//! In-memory spans and work counts for the in-process passes.
//!
//! An *op* span stands for one CLI command (`deviate`, one `registry-add`,
//! …); the *layer* spans opened inside it are the library calls that
//! command makes, so the share of an op its children cover says how much of
//! the command the per-layer metrics explain. Layer spans opened outside
//! any op are probes: isolated calls into one layer (a warm recount, one
//! bootstrap replicate) whose time no CLI command reports on its own.

use std::collections::BTreeMap;
use std::time::Instant;

/// Whether a span is a whole CLI-equivalent command or one library call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Op,
    Layer,
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub kind: Kind,
    /// The op this span belongs to (its own id for an op span); `None` for
    /// probes.
    pub op: Option<u32>,
    pub parent: Option<usize>,
    /// Seconds since the tracer was created.
    pub start: f64,
    pub end: f64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }
}

/// Records the spans and counts of one in-process pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    next_op: u32,
    counts: BTreeMap<&'static str, u64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            next_op: 0,
            counts: BTreeMap::new(),
        }
    }

    fn enter(&mut self, name: &'static str, kind: Kind) -> usize {
        let parent = self.open.last().copied();
        let op = match kind {
            Kind::Op => {
                self.next_op += 1;
                Some(self.next_op)
            }
            Kind::Layer => parent.and_then(|p| self.spans[p].op),
        };
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            kind,
            op,
            parent,
            start,
            end: start,
        });
        let idx = self.spans.len() - 1;
        self.open.push(idx);
        idx
    }

    fn exit(&mut self, idx: usize) {
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
        self.spans[idx].end = self.origin.elapsed().as_secs_f64();
    }

    /// Runs one CLI-equivalent command; layer spans opened by `f` become
    /// its children.
    pub fn op<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.enter(name, Kind::Op);
        let out = f(self);
        self.exit(idx);
        out
    }

    /// Times one library call.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let idx = self.enter(name, Kind::Layer);
        let out = f();
        self.exit(idx);
        out
    }

    /// Adds `n` to a work count.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Seconds spent in layer spans called `name`, summed over the pass.
    pub fn layer_secs(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.kind == Kind::Layer && s.name == name)
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// Seconds spent in op spans, summed over the pass.
    pub fn op_secs(&self) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.kind == Kind::Op)
            .fold(0.0, |acc, s| acc + s.secs())
    }

    /// The smallest share of an op's time that its direct children cover;
    /// 1 when the pass ran no op.
    pub fn min_coverage(&self) -> f64 {
        let mut worst: f64 = 1.0;
        for (idx, op) in self.spans.iter().enumerate() {
            if op.kind != Kind::Op || op.secs() <= 0.0 {
                continue;
            }
            let covered: f64 = self
                .spans
                .iter()
                .filter(|s| s.parent == Some(idx))
                .map(Span::secs)
                .sum();
            worst = worst.min(covered / op.secs());
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(secs: f64) {
        let t = Instant::now();
        while t.elapsed().as_secs_f64() < secs {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn spans_nest_under_ops_and_probes_stay_outside() {
        let mut t = Tracer::new();
        t.op("deviate", |t| {
            t.span("a", || spin(0.002));
            t.span("b", || spin(0.002));
        });
        t.span("a", || spin(0.001));
        t.count("regions", 3);
        t.count("regions", 4);
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].op, Some(1));
        assert_eq!(spans[3].parent, None);
        assert_eq!(spans[3].op, None);
        assert!(t.layer_secs("a") > t.spans()[1].secs());
        assert!(t.op_secs() >= t.layer_secs("b"));
        let cov = t.min_coverage();
        assert!(cov > 0.5 && cov <= 1.0, "{cov}");
        assert_eq!(t.counts()["regions"], 7);
    }
}
