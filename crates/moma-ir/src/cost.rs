//! Operation counting for lowered kernels.
//!
//! The analytical GPU cost model (in `moma-gpu`) consumes per-thread word-level
//! operation counts. They can be obtained either statically ([`static_counts`], one
//! count per statement — exact for straight-line kernels) or dynamically from the
//! interpreter, which records every executed operation in an [`OpCounts`].

use crate::kernel::MNEMONICS;
use crate::{Kernel, Op};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::Add;

/// A multiset of executed (or statically counted) operations, keyed by mnemonic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OpCounts {
    counts: BTreeMap<&'static str, u64>,
}

impl OpCounts {
    /// An empty count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one occurrence of `op`.
    ///
    /// The accumulation loop is the one op whose work scales with its payload, so
    /// it is counted per product term ("macreduce" × the number of pairs) plus one
    /// "reducewide" for the closing reduction — a flat per-statement count would
    /// make a 17-term loop look as cheap as a 1-term one.
    pub fn record(&mut self, op: &Op) {
        if let Op::MacReduceMod { pairs, .. } = op {
            self.add_mnemonic("macreduce", pairs.len() as u64);
            self.add_mnemonic("reducewide", 1);
            return;
        }
        *self.counts.entry(op.mnemonic()).or_insert(0) += 1;
    }

    /// The count for a given mnemonic (see [`Op::mnemonic`]).
    pub fn get(&self, mnemonic: &str) -> u64 {
        self.counts.get(mnemonic).copied().unwrap_or(0)
    }

    /// Adds `count` occurrences of a mnemonic directly, without constructing an
    /// [`Op`].
    fn add_mnemonic(&mut self, mnemonic: &'static str, count: u64) {
        if count > 0 {
            *self.counts.entry(mnemonic).or_insert(0) += count;
        }
    }

    /// Total number of operations.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }

    /// Number of word multiplications (widening plus low-half).
    pub fn multiplications(&self) -> u64 {
        self.get("mulwide") + self.get("mullow")
    }

    /// Number of word additions and subtractions.
    pub fn add_sub(&self) -> u64 {
        self.get("add") + self.get("sub")
    }

    /// Number of comparisons, boolean combinations, and selects (the "cheap" ALU ops).
    pub fn logic(&self) -> u64 {
        self.get("lt") + self.get("eq") + self.get("and") + self.get("or") + self.get("select")
    }

    /// Number of multi-word shift statements.
    pub fn shifts(&self) -> u64 {
        self.get("shr")
    }

    /// Iterates over `(mnemonic, count)` pairs in alphabetical order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counts.iter().map(|(k, v)| (*k, *v))
    }

    /// Scales every count by `factor` (e.g. ops per butterfly × number of butterflies).
    pub fn scaled(&self, factor: u64) -> OpCounts {
        OpCounts {
            counts: self.counts.iter().map(|(k, v)| (*k, v * factor)).collect(),
        }
    }
}

impl Add for OpCounts {
    type Output = OpCounts;
    fn add(self, rhs: OpCounts) -> OpCounts {
        let mut counts = self.counts;
        for (k, v) in rhs.counts {
            *counts.entry(k).or_insert(0) += v;
        }
        OpCounts { counts }
    }
}

impl fmt::Display for OpCounts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (k, v) in &self.counts {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
            first = false;
        }
        if first {
            write!(f, "(empty)")?;
        }
        Ok(())
    }
}

/// Counts the statements of a kernel by mnemonic (exact execution counts for the
/// straight-line kernels the rewrite system produces).
pub fn static_counts(kernel: &Kernel) -> OpCounts {
    // One array slot per operation kind, then one map entry per kind present.
    let mut tally = [0u64; MNEMONICS.len()];
    let mut counts = OpCounts::new();
    for stmt in &kernel.body {
        match &stmt.op {
            op @ Op::MacReduceMod { .. } => counts.record(op),
            op => tally[op.kind()] += 1,
        }
    }
    for (mnemonic, count) in MNEMONICS.into_iter().zip(tally) {
        counts.add_mnemonic(mnemonic, count);
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelBuilder, Operand, Ty};

    #[test]
    fn counting_and_categories() {
        let mut kb = KernelBuilder::new("k");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let hi = kb.local("hi", Ty::UInt(64));
        let lo = kb.local("lo", Ty::UInt(64));
        let f = kb.local("f", Ty::Flag);
        let o = kb.output("o", Ty::UInt(64));
        kb.push(
            vec![hi, lo],
            Op::MulWide {
                a: a.into(),
                b: b.into(),
            },
        );
        kb.push(
            vec![f],
            Op::Lt {
                a: hi.into(),
                b: lo.into(),
            },
        );
        kb.push(
            vec![o],
            Op::Select {
                cond: f.into(),
                if_true: hi.into(),
                if_false: lo.into(),
            },
        );
        let counts = static_counts(&kb.build());
        assert_eq!(counts.total(), 3);
        assert_eq!(counts.multiplications(), 1);
        assert_eq!(counts.logic(), 2);
        assert_eq!(counts.add_sub(), 0);
        assert_eq!(counts.get("mulwide"), 1);
        assert_eq!(counts.get("nonexistent"), 0);
    }

    #[test]
    fn scaling_and_addition() {
        let mut a = OpCounts::new();
        a.record(&Op::MulLow {
            a: Operand::Const(1),
            b: Operand::Const(2),
        });
        let b = a.scaled(10);
        assert_eq!(b.get("mullow"), 10);
        let c = a.clone() + b;
        assert_eq!(c.get("mullow"), 11);
        assert_eq!(c.total(), 11);
    }

    #[test]
    fn display_is_never_empty() {
        assert_eq!(OpCounts::new().to_string(), "(empty)");
        let mut a = OpCounts::new();
        a.record(&Op::Copy {
            src: Operand::Const(0),
        });
        assert!(a.to_string().contains("copy: 1"));
    }
}
