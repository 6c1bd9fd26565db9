//! Kernels: straight-line sequences of typed assignments.

use crate::Ty;
use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};

/// Identifier of a variable inside one [`Kernel`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub usize);

/// A named, typed variable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Var {
    /// Human-readable name (used by the emitters).
    pub name: String,
    /// Data type.
    pub ty: Ty,
}

/// An operand of an operation: either a variable or a small literal constant.
///
/// Large constants never appear in kernels — moduli and Barrett constants are kernel
/// *parameters* — so a `u64` literal (zero, one, shift amounts…) is sufficient. A
/// constant may be used wherever a word or flag is expected as long as the value fits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Operand {
    /// A variable reference.
    Var(VarId),
    /// A literal constant.
    Const(u64),
}

impl Operand {
    /// The constant zero.
    pub const ZERO: Operand = Operand::Const(0);

    /// Returns the variable id if the operand is a variable.
    pub fn as_var(&self) -> Option<VarId> {
        match self {
            Operand::Var(v) => Some(*v),
            Operand::Const(_) => None,
        }
    }

    /// Returns `true` if the operand is the literal constant `c`.
    pub fn is_const(&self, c: u64) -> bool {
        matches!(self, Operand::Const(v) if *v == c)
    }
}

impl From<VarId> for Operand {
    fn from(v: VarId) -> Self {
        Operand::Var(v)
    }
}

/// An operation. Shapes mirror the left-hand sides of the paper's rewrite rules
/// (Table 1): multi-destination assignments carry their extra outputs (carry bits,
/// product high halves) explicitly.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Op {
    /// `dst = src` — a move between equal-width values (or a flag into a word).
    Copy {
        /// Source operand.
        src: Operand,
    },
    /// `[carry, sum] = a + b (+ carry_in)` — destinations are `[Flag, UInt(w)]`
    /// (rules (22), (23), (29)).
    AddWide {
        /// First addend.
        a: Operand,
        /// Second addend.
        b: Operand,
        /// Optional incoming carry (a flag).
        carry_in: Option<Operand>,
    },
    /// `dst = a − b (− borrow_in)`, wrapping at the operand width (rule (25)).
    Sub {
        /// Minuend.
        a: Operand,
        /// Subtrahend.
        b: Operand,
        /// Optional incoming borrow (a flag).
        borrow_in: Option<Operand>,
    },
    /// `[hi, lo] = a · b` — the full double-width product (rule (28)).
    MulWide {
        /// First factor.
        a: Operand,
        /// Second factor.
        b: Operand,
    },
    /// `dst = (a · b) mod 2^w` — only the low half of the product (the paper's
    /// Listing 4 optimization where the discarded high half of `r·q` is never computed).
    MulLow {
        /// First factor.
        a: Operand,
        /// Second factor.
        b: Operand,
    },
    /// `flag = a < b` (rule (26) left-hand side).
    Lt {
        /// Left comparand.
        a: Operand,
        /// Right comparand.
        b: Operand,
    },
    /// `flag = (a =? b)` (rule (27) left-hand side).
    Eq {
        /// Left comparand.
        a: Operand,
        /// Right comparand.
        b: Operand,
    },
    /// `flag = a ∧ b` on flags.
    BoolAnd {
        /// Left flag.
        a: Operand,
        /// Right flag.
        b: Operand,
    },
    /// `flag = a ∨ b` on flags.
    BoolOr {
        /// Left flag.
        a: Operand,
        /// Right flag.
        b: Operand,
    },
    /// `dst = cond ? if_true : if_false` — the conditional assignment ending rules
    /// (24) and the modular subtraction.
    Select {
        /// Condition flag.
        cond: Operand,
        /// Value when the condition is 1.
        if_true: Operand,
        /// Value when the condition is 0.
        if_false: Operand,
    },
    /// `dsts = (words ∥ … ∥ words) >> shift` — right shift of a multi-word quantity by a
    /// compile-time constant, keeping as many words as there are destinations
    /// (the paper's `_qshr`). `words` are given most-significant first, as are `dsts`.
    ShrMulti {
        /// Source words, most significant first.
        words: Vec<Operand>,
        /// Shift amount in bits (must be less than the total source width).
        shift: u32,
    },
    /// `dst = (a + b) mod q` — high-level modular addition (Equation 30), the seed of
    /// the worked rewrite example in §4.
    AddMod {
        /// First addend (reduced).
        a: Operand,
        /// Second addend (reduced).
        b: Operand,
        /// Modulus.
        q: Operand,
    },
    /// `dst = (a − b) mod q` — high-level modular subtraction.
    SubMod {
        /// Minuend (reduced).
        a: Operand,
        /// Subtrahend (reduced).
        b: Operand,
        /// Modulus.
        q: Operand,
    },
    /// `dst = (a · b) mod q` — high-level Barrett modular multiplication with the
    /// precomputed constant `μ` and the modulus bit-width `mbits` known at generation
    /// time (Equation 18).
    MulModBarrett {
        /// First factor (reduced).
        a: Operand,
        /// Second factor (reduced).
        b: Operand,
        /// Modulus (of `mbits` bits).
        q: Operand,
        /// Barrett constant `⌊2^(2·mbits+3)/q⌋`.
        mu: Operand,
        /// Bit-width of the modulus.
        mbits: u32,
    },
    /// `dst = (a · b + c) mod q` — high-level fused multiply-accumulate, the inner
    /// step of sum-of-products reductions (RNS base extension accumulates one of
    /// these per source modulus). Expands to [`Op::MulModBarrett`] followed by
    /// [`Op::AddMod`]; the interpreter and compiled executor run it fused.
    MulAddMod {
        /// First factor (reduced).
        a: Operand,
        /// Second factor (reduced).
        b: Operand,
        /// Accumulator (reduced).
        c: Operand,
        /// Modulus (of `mbits` bits).
        q: Operand,
        /// Barrett constant `⌊2^(2·mbits+3)/q⌋`.
        mu: Operand,
        /// Bit-width of the modulus.
        mbits: u32,
    },
    /// `dst = (Σᵢ aᵢ · bᵢ) mod q` — the accumulation-loop form produced by the
    /// kernel-fusion pass: a whole sum-of-products chain accumulated exactly in a
    /// double-word register and reduced **once** at the end, instead of one
    /// modular reduction per term (`moma_mp::single::smac` + `reduce_wide` as a
    /// single IR statement).
    ///
    /// Unlike the other modular ops, the modulus is a literal value, not an
    /// operand (the fusion pass only fires for constant-modulus chains), and it is
    /// the only literal: the compiled executor takes the division-free
    /// reduction's constants from [`moma_mp::single::SingleBarrett::new`]`(q)`, so
    /// no op can carry constants that disagree with `q`. The validator statically
    /// bounds `Σᵢ aᵢ · bᵢ` by the operand widths (and literal values) so the
    /// 128-bit accumulator can never wrap.
    MacReduceMod {
        /// The product terms `(aᵢ, bᵢ)`, accumulated in order.
        pairs: Vec<(Operand, Operand)>,
        /// Modulus, `2 ≤ q` of at most 60 bits.
        q: u64,
    },
}

/// Applies `$f` to every operand slot of `$op`, in one fixed order. The slots
/// are `&Operand` or `&mut Operand` as `$op` is a shared or a mutable reference.
macro_rules! visit_operands {
    ($op:expr, $f:ident) => {
        match $op {
            Op::Copy { src } => $f(src),
            Op::AddWide { a, b, carry_in: c } | Op::Sub { a, b, borrow_in: c } => {
                $f(a);
                $f(b);
                if let Some(c) = c {
                    $f(c);
                }
            }
            Op::MulWide { a, b }
            | Op::MulLow { a, b }
            | Op::Lt { a, b }
            | Op::Eq { a, b }
            | Op::BoolAnd { a, b }
            | Op::BoolOr { a, b } => {
                $f(a);
                $f(b);
            }
            Op::Select {
                cond,
                if_true,
                if_false,
            } => {
                $f(cond);
                $f(if_true);
                $f(if_false);
            }
            Op::ShrMulti { words, .. } => {
                for w in words {
                    $f(w);
                }
            }
            Op::AddMod { a, b, q } | Op::SubMod { a, b, q } => {
                $f(a);
                $f(b);
                $f(q);
            }
            Op::MulModBarrett { a, b, q, mu, .. } => {
                $f(a);
                $f(b);
                $f(q);
                $f(mu);
            }
            Op::MulAddMod { a, b, c, q, mu, .. } => {
                $f(a);
                $f(b);
                $f(c);
                $f(q);
                $f(mu);
            }
            Op::MacReduceMod { pairs, .. } => {
                for (a, b) in pairs {
                    $f(a);
                    $f(b);
                }
            }
        }
    };
}

/// [`Op::mnemonic`] of every variant, indexed by [`Op::kind`].
pub(crate) const MNEMONICS: [&str; 16] = [
    "copy",
    "add",
    "sub",
    "mulwide",
    "mullow",
    "lt",
    "eq",
    "and",
    "or",
    "select",
    "shr",
    "addmod",
    "submod",
    "mulmod",
    "macmod",
    "macreduce",
];

impl Op {
    /// All operands read by this operation, in [`Op::for_each_operand`] order.
    pub fn operands(&self) -> Vec<Operand> {
        let mut v = Vec::new();
        self.for_each_operand(|o| v.push(o));
        v
    }

    /// Passes every operand read by this operation to `f`, without allocating.
    pub fn for_each_operand(&self, mut f: impl FnMut(Operand)) {
        let mut read = |o: &Operand| f(*o);
        visit_operands!(self, read);
    }

    /// Passes every operand slot of this operation to `f`, which may rewrite
    /// it, in [`Op::for_each_operand`] order.
    pub fn for_each_operand_mut(&mut self, mut f: impl FnMut(&mut Operand)) {
        visit_operands!(self, f);
    }

    /// A short mnemonic used by the pretty-printer and the operation counter.
    pub fn mnemonic(&self) -> &'static str {
        MNEMONICS[self.kind()]
    }

    /// The index of this operation's variant, and of its entry in [`MNEMONICS`].
    pub(crate) fn kind(&self) -> usize {
        match self {
            Op::Copy { .. } => 0,
            Op::AddWide { .. } => 1,
            Op::Sub { .. } => 2,
            Op::MulWide { .. } => 3,
            Op::MulLow { .. } => 4,
            Op::Lt { .. } => 5,
            Op::Eq { .. } => 6,
            Op::BoolAnd { .. } => 7,
            Op::BoolOr { .. } => 8,
            Op::Select { .. } => 9,
            Op::ShrMulti { .. } => 10,
            Op::AddMod { .. } => 11,
            Op::SubMod { .. } => 12,
            Op::MulModBarrett { .. } => 13,
            Op::MulAddMod { .. } => 14,
            Op::MacReduceMod { .. } => 15,
        }
    }

    /// Returns `true` if this is one of the high-level modular operations that the
    /// rewrite system must expand before emission.
    pub fn is_high_level(&self) -> bool {
        matches!(
            self,
            Op::AddMod { .. } | Op::SubMod { .. } | Op::MulModBarrett { .. } | Op::MulAddMod { .. }
        )
    }
}

/// One assignment: `dsts = op(…)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Stmt {
    /// Destination variables (most significant first for multi-destination ops).
    pub dsts: Dsts,
    /// The operation.
    pub op: Op,
    /// Optional provenance note carried into the emitted source as a comment.
    pub comment: Option<String>,
}

/// The destination variables of one [`Stmt`], read through the slice they
/// dereference to.
///
/// Every operation but a multi-word shift writes one or two variables, and
/// those are held inline: building a statement allocates nothing for them.
/// Equality, hashing and `Debug` are the slice's, as they were for the
/// `Vec<VarId>` this replaces.
#[derive(Clone)]
pub struct Dsts(DstsRepr);

#[derive(Clone)]
enum DstsRepr {
    One(VarId),
    Two([VarId; 2]),
    /// None, or more than two.
    Many(Vec<VarId>),
}

impl Dsts {
    /// Shortens the list to its first `len` destinations (no-op if it is not
    /// longer).
    pub fn truncate(&mut self, len: usize) {
        if len < self.len() {
            *self = Dsts::from(&self[..len]);
        }
    }
}

impl std::ops::Deref for Dsts {
    type Target = [VarId];

    fn deref(&self) -> &[VarId] {
        match &self.0 {
            DstsRepr::One(d) => std::slice::from_ref(d),
            DstsRepr::Two(ds) => ds,
            DstsRepr::Many(ds) => ds,
        }
    }
}

impl std::ops::DerefMut for Dsts {
    fn deref_mut(&mut self) -> &mut [VarId] {
        match &mut self.0 {
            DstsRepr::One(d) => std::slice::from_mut(d),
            DstsRepr::Two(ds) => ds,
            DstsRepr::Many(ds) => ds,
        }
    }
}

impl From<&[VarId]> for Dsts {
    fn from(ds: &[VarId]) -> Self {
        Dsts(match *ds {
            [d] => DstsRepr::One(d),
            [hi, lo] => DstsRepr::Two([hi, lo]),
            _ => DstsRepr::Many(ds.to_vec()),
        })
    }
}

impl<const N: usize> From<[VarId; N]> for Dsts {
    fn from(ds: [VarId; N]) -> Self {
        Dsts::from(&ds[..])
    }
}

impl From<Vec<VarId>> for Dsts {
    fn from(ds: Vec<VarId>) -> Self {
        match ds.len() {
            1 | 2 => Dsts::from(&ds[..]),
            _ => Dsts(DstsRepr::Many(ds)),
        }
    }
}

impl<'a> IntoIterator for &'a Dsts {
    type Item = &'a VarId;
    type IntoIter = std::slice::Iter<'a, VarId>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl PartialEq for Dsts {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Dsts {}

impl Hash for Dsts {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

impl fmt::Debug for Dsts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A straight-line kernel: parameters in, outputs out, no control flow (conditional
/// assignment is expressed with [`Op::Select`], exactly as in the paper's listings).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Kernel {
    /// Kernel name (used as the function name by the emitters).
    pub name: String,
    /// All variables; indices are [`VarId`]s.
    pub vars: Vec<Var>,
    /// Parameter variables, in signature order.
    pub params: Vec<VarId>,
    /// Output variables, in signature order.
    pub outputs: Vec<VarId>,
    /// The body, executed top to bottom.
    pub body: Vec<Stmt>,
    /// Declared upper bounds of parameters: every input for a parameter in this
    /// table is at most its bound (a residue below its modulus `q` is bounded by
    /// `q − 1`). Both executors refuse an input above its bound, and
    /// [`CompiledKernel::compile`](crate::CompiledKernel::compile) picks cheaper
    /// exact arithmetic from the bounds. Empty for every kernel the rewrite
    /// system generates.
    pub bounds: BTreeMap<VarId, u64>,
}

impl Kernel {
    /// Looks up a variable.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn var(&self, id: VarId) -> &Var {
        &self.vars[id.0]
    }

    /// The type of a variable.
    pub fn ty(&self, id: VarId) -> Ty {
        self.vars[id.0].ty
    }

    /// The widest integer type appearing in the kernel.
    pub fn max_width(&self) -> u32 {
        self.vars.iter().map(|v| v.ty.bits()).max().unwrap_or(0)
    }

    /// Returns `true` if every variable fits in `word_bits` bits (i.e. the kernel is
    /// fully lowered to machine words).
    pub fn is_machine_level(&self, word_bits: u32) -> bool {
        self.vars.iter().all(|v| !v.ty.needs_lowering(word_bits))
            && self.body.iter().all(|s| !s.op.is_high_level())
    }

    /// Number of statements.
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Returns `true` if the kernel body is empty.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// A structural fingerprint of what the kernel computes: every variable's
    /// type, the parameter and output lists, each statement's destinations
    /// and operation (tag, operands, constants), and the parameter bounds.
    /// Names and comments are left out, so two kernels that differ only in
    /// those share a fingerprint. An empty bound table hashes to nothing, so
    /// declaring no bounds leaves the fingerprint as it was before bounds
    /// existed.
    ///
    /// The walk allocates nothing, and the value is the same in every process
    /// and on every target: a build script and the program it builds agree on
    /// it, which is how a kernel compiled at run time finds the native twin
    /// lowered from the same spec at build time.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fingerprinter::default();
        h.write_usize(self.vars.len());
        for var in &self.vars {
            var.ty.hash(&mut h);
        }
        self.params.hash(&mut h);
        self.outputs.hash(&mut h);
        h.write_usize(self.body.len());
        for stmt in &self.body {
            stmt.dsts.hash(&mut h);
            stmt.op.hash(&mut h);
        }
        if !self.bounds.is_empty() {
            h.write_usize(self.bounds.len());
            for (v, bound) in &self.bounds {
                v.hash(&mut h);
                h.write_u64(*bound);
            }
        }
        h.finish()
    }
}

/// The hasher behind [`Kernel::fingerprint`]: every write is widened to one
/// little-endian `u64` word and mixed in FxHash style (rotate, xor, multiply),
/// then finished with the splitmix64 finalizer. Unlike the standard library's
/// hashers it is unseeded and independent of the target's pointer width.
#[derive(Default)]
struct Fingerprinter(u64);

impl Hasher for Fingerprinter {
    fn finish(&self) -> u64 {
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.write_u64(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = (self.0.rotate_left(5) ^ n).wrapping_mul(0x517c_c1b7_2722_0a95);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write_isize(&mut self, n: isize) {
        self.write_u64(n as u64);
    }
}

impl fmt::Display for Kernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "kernel {}(", self.name)?;
        for (i, p) in self.params.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", self.var(*p).name, self.ty(*p))?;
        }
        write!(f, ") -> (")?;
        for (i, o) in self.outputs.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}: {}", self.var(*o).name, self.ty(*o))?;
        }
        writeln!(f, ") {{")?;
        for stmt in &self.body {
            write!(f, "  [")?;
            for (i, d) in stmt.dsts.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{}", self.var(*d).name)?;
            }
            write!(f, "] = {}(", stmt.op.mnemonic())?;
            for (i, o) in stmt.op.operands().iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                match o {
                    Operand::Var(v) => write!(f, "{}", self.var(*v).name)?,
                    Operand::Const(c) => write!(f, "{c}")?,
                }
            }
            if let Op::ShrMulti { shift, .. } = &stmt.op {
                write!(f, ") >> {shift}")?;
            } else if let Op::MacReduceMod { q, .. } = &stmt.op {
                write!(f, ") mod {q}")?;
            } else {
                write!(f, ")")?;
            }
            if let Some(c) = &stmt.comment {
                write!(f, "  ; {c}")?;
            }
            writeln!(f)?;
        }
        write!(f, "}}")
    }
}

/// Incremental builder for [`Kernel`]s.
///
/// # Example
///
/// ```
/// use moma_ir::{KernelBuilder, Op, Operand, Ty};
///
/// let mut kb = KernelBuilder::new("add64");
/// let a = kb.param("a", Ty::UInt(64));
/// let b = kb.param("b", Ty::UInt(64));
/// let carry = kb.local("carry", Ty::Flag);
/// let sum = kb.output("sum", Ty::UInt(64));
/// kb.push(vec![carry, sum], Op::AddWide { a: a.into(), b: b.into(), carry_in: None });
/// let kernel = kb.build();
/// assert_eq!(kernel.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct KernelBuilder {
    name: String,
    vars: Vec<Var>,
    params: Vec<VarId>,
    outputs: Vec<VarId>,
    body: Vec<Stmt>,
    bounds: BTreeMap<VarId, u64>,
    fresh_counter: usize,
}

impl KernelBuilder {
    /// Starts a new kernel with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        KernelBuilder {
            name: name.into(),
            vars: Vec::new(),
            params: Vec::new(),
            outputs: Vec::new(),
            body: Vec::new(),
            bounds: BTreeMap::new(),
            fresh_counter: 0,
        }
    }

    fn add_var(&mut self, name: impl Into<String>, ty: Ty) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(Var {
            name: name.into(),
            ty,
        });
        id
    }

    /// Declares a parameter.
    pub fn param(&mut self, name: impl Into<String>, ty: Ty) -> VarId {
        let id = self.add_var(name, ty);
        self.params.push(id);
        id
    }

    /// Declares a parameter whose every input is at most `bound` (see
    /// [`Kernel::bounds`]).
    pub fn param_below(&mut self, name: impl Into<String>, ty: Ty, bound: u64) -> VarId {
        let id = self.param(name, ty);
        self.bounds.insert(id, bound);
        id
    }

    /// Declares an output.
    pub fn output(&mut self, name: impl Into<String>, ty: Ty) -> VarId {
        let id = self.add_var(name, ty);
        self.outputs.push(id);
        id
    }

    /// Declares a local (temporary) variable.
    pub fn local(&mut self, name: impl Into<String>, ty: Ty) -> VarId {
        self.add_var(name, ty)
    }

    /// Declares a local with a unique generated name based on `prefix`.
    pub fn fresh(&mut self, prefix: &str, ty: Ty) -> VarId {
        self.fresh_counter += 1;
        let name = format!("{prefix}_{}", self.fresh_counter);
        self.add_var(name, ty)
    }

    /// Appends a statement.
    pub fn push(&mut self, dsts: impl Into<Dsts>, op: Op) {
        self.body.push(Stmt {
            dsts: dsts.into(),
            op,
            comment: None,
        });
    }

    /// Appends a statement with a provenance comment.
    pub fn push_commented(&mut self, dsts: impl Into<Dsts>, op: Op, comment: impl Into<String>) {
        self.body.push(Stmt {
            dsts: dsts.into(),
            op,
            comment: Some(comment.into()),
        });
    }

    /// Finishes the kernel.
    pub fn build(self) -> Kernel {
        Kernel {
            name: self.name,
            vars: self.vars,
            params: self.params,
            outputs: self.outputs,
            body: self.body,
            bounds: self.bounds,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("demo");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let c = kb.local("c", Ty::Flag);
        let s = kb.output("s", Ty::UInt(64));
        kb.push(
            vec![c, s],
            Op::AddWide {
                a: a.into(),
                b: b.into(),
                carry_in: None,
            },
        );
        kb.build()
    }

    #[test]
    fn builder_assigns_sequential_ids() {
        let k = small_kernel();
        assert_eq!(k.params, vec![VarId(0), VarId(1)]);
        assert_eq!(k.outputs, vec![VarId(3)]);
        assert_eq!(k.ty(VarId(2)), Ty::Flag);
        assert_eq!(k.max_width(), 64);
        assert!(k.is_machine_level(64));
        assert!(!k.is_machine_level(32));
    }

    #[test]
    fn operands_enumeration() {
        let op = Op::Select {
            cond: Operand::Const(1),
            if_true: VarId(0).into(),
            if_false: VarId(1).into(),
        };
        assert_eq!(op.operands().len(), 3);
        assert_eq!(op.mnemonic(), "select");
        assert!(!op.is_high_level());
        assert!(Op::AddMod {
            a: Operand::ZERO,
            b: Operand::ZERO,
            q: Operand::ZERO
        }
        .is_high_level());
    }

    #[test]
    fn display_contains_signature_and_ops() {
        let k = small_kernel();
        let text = k.to_string();
        assert!(text.contains("kernel demo(a: u64, b: u64) -> (s: u64)"));
        assert!(text.contains("add"));
    }

    #[test]
    fn fingerprint_follows_structure_not_names() {
        let k = small_kernel();
        let mut renamed = k.clone();
        renamed.name = "other".to_string();
        renamed.vars[0].name = "x".to_string();
        renamed.body[0].comment = Some("note".to_string());
        assert_eq!(k.fingerprint(), renamed.fingerprint());

        let mut carried = k.clone();
        if let Op::AddWide { carry_in, .. } = &mut carried.body[0].op {
            *carry_in = Some(Operand::Const(1));
        }
        let mut narrower = k.clone();
        narrower.vars[1].ty = Ty::UInt(32);
        let mut swapped = k.clone();
        swapped.params.swap(0, 1);
        let mut bounded = k.clone();
        bounded.bounds.insert(VarId(0), 100);
        let mut tighter = bounded.clone();
        tighter.bounds.insert(VarId(0), 99);
        assert_ne!(bounded.fingerprint(), tighter.fingerprint());
        for changed in [carried, narrower, swapped, bounded] {
            assert_ne!(k.fingerprint(), changed.fingerprint(), "{changed}");
        }
    }

    /// Every length, built every way, reads, compares, hashes and prints as
    /// the `Vec<VarId>` it replaces (the fingerprint hashes it).
    #[test]
    fn dsts_behave_as_their_slice() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |h: &dyn Fn(&mut DefaultHasher)| {
            let mut state = DefaultHasher::new();
            h(&mut state);
            state.finish()
        };
        for len in 0..5 {
            let ids: Vec<VarId> = (0..len).map(VarId).collect();
            for dsts in [Dsts::from(ids.clone()), Dsts::from(&ids[..])] {
                assert_eq!(dsts[..], ids[..]);
                assert_eq!(format!("{dsts:?}"), format!("{ids:?}"));
                assert_eq!(hash(&|s| dsts.hash(s)), hash(&|s| ids.hash(s)));
                let mut cut = dsts.clone();
                cut.truncate(1);
                assert_eq!(cut, Dsts::from(&ids[..len.min(1)]));
            }
        }
        assert_eq!(
            Dsts::from([VarId(4), VarId(5)]),
            Dsts::from(vec![VarId(4), VarId(5)])
        );
    }

    #[test]
    fn fresh_names_are_unique() {
        let mut kb = KernelBuilder::new("f");
        let x = kb.fresh("t", Ty::UInt(64));
        let y = kb.fresh("t", Ty::UInt(64));
        let k = kb.build();
        assert_ne!(k.var(x).name, k.var(y).name);
    }

    #[test]
    fn operand_helpers() {
        assert!(Operand::Const(0).is_const(0));
        assert!(!Operand::Var(VarId(1)).is_const(0));
        assert_eq!(Operand::Var(VarId(3)).as_var(), Some(VarId(3)));
        assert_eq!(Operand::Const(7).as_var(), None);
    }
}
