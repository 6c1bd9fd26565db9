//! Type splitting: one application of the paper's recursive rewrite rules.
//!
//! [`split_once`] takes a kernel whose widest integer type is `UInt(W)` and produces an
//! equivalent kernel in which every `W`-wide value has been replaced by a pair of
//! `W/2`-wide values (rule (19)), with every operation rewritten accordingly:
//!
//! * wide addition → carry chain over the halves (rules (22), (23), (29));
//! * subtraction → borrow chain (rule (25), extended with an incoming borrow);
//! * comparison → lexicographic combination (rules (26), (27));
//! * widening multiplication → schoolbook (rule (28)) or Karatsuba (Equation 9);
//! * low-half multiplication → the three products whose results land in the low half;
//! * conditional select and copies → per-half copies (the "trivial" rewrites the paper
//!   does not list);
//! * constant multi-word shifts → the same shift over twice as many half-words.
//!
//! Applying [`split_once`] repeatedly until the maximal width reaches the machine word
//! realizes the recursion of §3.2 ("multi-word modular arithmetic via recursion").

use crate::MulAlgorithm;
use moma_ir::{Dsts, Kernel, Op, Operand, Stmt, Ty, Var, VarId};

/// How an original variable maps into the split kernel.
#[derive(Debug, Clone, Copy)]
enum VarMapping {
    /// The variable was below the split width and is carried over unchanged.
    Single(VarId),
    /// The variable was split into `(hi, lo)` halves (paper order: `[x0, x1]` with `x0`
    /// the most significant half).
    Pair(VarId, VarId),
}

/// Result of one splitting step.
#[derive(Debug, Clone)]
pub(crate) struct SplitResult {
    /// The rewritten kernel (maximal width halved).
    pub kernel: Kernel,
    /// Known-zero-top-bits facts for the new kernel's variables, indexed by [`VarId`]
    /// (the step's fresh variables, past the end, have none).
    pub zero_top_bits: Vec<u32>,
}

struct Splitter {
    out: Kernel,
    /// Indexed by the old kernel's [`VarId`].
    mapping: Vec<VarMapping>,
    body: Vec<Stmt>,
    half: u32,
    mul_algorithm: MulAlgorithm,
    fresh_counter: usize,
}

impl Splitter {
    /// A new variable named `{prefix}_{half}_{n}`, `n` counting the step's fresh
    /// variables. Every step halves the width, so no two steps share a `half` and
    /// the name is unique in the kernel. It is written digit by digit into a
    /// string of its final size.
    fn fresh(&mut self, prefix: &str, ty: Ty) -> VarId {
        self.fresh_counter += 1;
        let (half, n) = (self.half as usize, self.fresh_counter);
        let (half_digits, n_digits) = (half.ilog10() + 1, n.ilog10() + 1);
        let mut name = String::with_capacity(prefix.len() + 2 + (half_digits + n_digits) as usize);
        name.push_str(prefix);
        for (value, digits) in [(half, half_digits), (n, n_digits)] {
            name.push('_');
            for place in (0..digits).rev() {
                name.push(char::from(b'0' + (value / 10usize.pow(place) % 10) as u8));
            }
        }
        let id = VarId(self.out.vars.len());
        self.out.vars.push(Var { name, ty });
        id
    }

    fn push(&mut self, dsts: impl Into<Dsts>, op: Op, comment: Option<String>) {
        self.body.push(Stmt {
            dsts: dsts.into(),
            op,
            comment,
        });
    }

    /// Maps an operand at the old width to its `(hi, lo)` halves.
    fn split_operand(&self, o: Operand) -> (Operand, Operand) {
        match o {
            Operand::Var(v) => match self.mapping[v.0] {
                VarMapping::Pair(hi, lo) => (hi.into(), lo.into()),
                VarMapping::Single(s) => {
                    // A narrower value used in a wide context: high half is zero.
                    (Operand::Const(0), s.into())
                }
            },
            Operand::Const(c) => (Operand::Const(0), Operand::Const(c)),
        }
    }

    /// Maps an operand that stays at its own (narrow) width.
    fn map_operand(&self, o: Operand) -> Operand {
        match o {
            Operand::Var(v) => match self.mapping[v.0] {
                VarMapping::Single(s) => s.into(),
                VarMapping::Pair(_, _) => unreachable!("operand was split but used narrow"),
            },
            c => c,
        }
    }

    /// Maps a destination variable that was split.
    fn split_dst(&self, d: VarId) -> (VarId, VarId) {
        match self.mapping[d.0] {
            VarMapping::Pair(hi, lo) => (hi, lo),
            VarMapping::Single(_) => panic!("destination was not split"),
        }
    }

    fn map_dst(&self, d: VarId) -> VarId {
        match self.mapping[d.0] {
            VarMapping::Single(s) => s,
            VarMapping::Pair(_, _) => panic!("destination was split but used narrow"),
        }
    }

    /// `flag = a < b` over split operands (rule (26)).
    fn emit_lt(&mut self, dst: VarId, a: Operand, b: Operand, comment: Option<String>) {
        let (a_hi, a_lo) = self.split_operand(a);
        let (b_hi, b_lo) = self.split_operand(b);
        let lt_hi = self.fresh("lt_hi", Ty::Flag);
        let eq_hi = self.fresh("eq_hi", Ty::Flag);
        let lt_lo = self.fresh("lt_lo", Ty::Flag);
        let both = self.fresh("eq_and_lt", Ty::Flag);
        self.push([lt_hi], Op::Lt { a: a_hi, b: b_hi }, comment);
        self.push([eq_hi], Op::Eq { a: a_hi, b: b_hi }, None);
        self.push([lt_lo], Op::Lt { a: a_lo, b: b_lo }, None);
        self.push(
            [both],
            Op::BoolAnd {
                a: eq_hi.into(),
                b: lt_lo.into(),
            },
            None,
        );
        self.push(
            [dst],
            Op::BoolOr {
                a: lt_hi.into(),
                b: both.into(),
            },
            None,
        );
    }

    /// Borrow-out of `a - b - borrow_in` over split operands:
    /// `(a < b) ∨ ((a =? b) ∧ borrow_in)`.
    fn emit_borrow_out(
        &mut self,
        a_lo: Operand,
        b_lo: Operand,
        borrow_in: Option<Operand>,
    ) -> VarId {
        let lt = self.fresh("bor_lt", Ty::Flag);
        self.push([lt], Op::Lt { a: a_lo, b: b_lo }, None);
        match borrow_in {
            None => lt,
            Some(bin) => {
                let eq = self.fresh("bor_eq", Ty::Flag);
                let and = self.fresh("bor_and", Ty::Flag);
                let or = self.fresh("bor", Ty::Flag);
                self.push([eq], Op::Eq { a: a_lo, b: b_lo }, None);
                self.push(
                    [and],
                    Op::BoolAnd {
                        a: eq.into(),
                        b: bin,
                    },
                    None,
                );
                self.push(
                    [or],
                    Op::BoolOr {
                        a: lt.into(),
                        b: and.into(),
                    },
                    None,
                );
                or
            }
        }
    }

    /// Rewrites one statement operating at the old wide width.
    fn rewrite_wide_stmt(&mut self, stmt: Stmt) {
        let half_ty = Ty::UInt(self.half);
        let Stmt { dsts, op, comment } = stmt;
        match op {
            Op::Copy { src } => {
                let (d_hi, d_lo) = self.split_dst(dsts[0]);
                let (s_hi, s_lo) = self.split_operand(src);
                self.push([d_hi], Op::Copy { src: s_hi }, comment);
                self.push([d_lo], Op::Copy { src: s_lo }, None);
            }
            Op::AddWide { a, b, carry_in } => {
                // rule (22)/(29): carry chain from the least significant half upward.
                let carry_dst = self.map_dst(dsts[0]);
                let (s_hi, s_lo) = self.split_dst(dsts[1]);
                let (a_hi, a_lo) = self.split_operand(a);
                let (b_hi, b_lo) = self.split_operand(b);
                let mid = self.fresh("carry_mid", Ty::Flag);
                let cin = carry_in.map(|c| self.map_operand(c));
                self.push(
                    [mid, s_lo],
                    Op::AddWide {
                        a: a_lo,
                        b: b_lo,
                        carry_in: cin,
                    },
                    comment,
                );
                self.push(
                    [carry_dst, s_hi],
                    Op::AddWide {
                        a: a_hi,
                        b: b_hi,
                        carry_in: Some(mid.into()),
                    },
                    None,
                );
            }
            Op::Sub { a, b, borrow_in } => {
                // rule (25), extended with an incoming borrow.
                let (d_hi, d_lo) = self.split_dst(dsts[0]);
                let (a_hi, a_lo) = self.split_operand(a);
                let (b_hi, b_lo) = self.split_operand(b);
                let bin = borrow_in.map(|c| self.map_operand(c));
                self.push(
                    [d_lo],
                    Op::Sub {
                        a: a_lo,
                        b: b_lo,
                        borrow_in: bin,
                    },
                    comment,
                );
                let borrow = self.emit_borrow_out(a_lo, b_lo, bin);
                self.push(
                    [d_hi],
                    Op::Sub {
                        a: a_hi,
                        b: b_hi,
                        borrow_in: Some(borrow.into()),
                    },
                    None,
                );
            }
            Op::MulWide { a, b } => {
                let (hh, hl) = self.split_dst(dsts[0]);
                let (lh, ll) = self.split_dst(dsts[1]);
                let (a_hi, a_lo) = self.split_operand(a);
                let (b_hi, b_lo) = self.split_operand(b);
                match self.mul_algorithm {
                    MulAlgorithm::Schoolbook => self.emit_mul_schoolbook(
                        half_ty,
                        [hh, hl, lh, ll],
                        a_hi,
                        a_lo,
                        b_hi,
                        b_lo,
                        comment,
                    ),
                    MulAlgorithm::Karatsuba => self.emit_mul_karatsuba(
                        half_ty,
                        [hh, hl, lh, ll],
                        a_hi,
                        a_lo,
                        b_hi,
                        b_lo,
                        comment,
                    ),
                }
            }
            Op::MulLow { a, b } => {
                // Low W bits of the product: a_lo*b_lo (full) plus the low halves of the
                // cross products shifted by W/2.
                let (d_hi, d_lo) = self.split_dst(dsts[0]);
                let (a_hi, a_lo) = self.split_operand(a);
                let (b_hi, b_lo) = self.split_operand(b);
                let p_hi = self.fresh("ml_hi", half_ty);
                let p_lo = self.fresh("ml_lo", half_ty);
                let e = self.fresh("ml_cross1", half_ty);
                let f = self.fresh("ml_cross2", half_ty);
                let t = self.fresh("ml_t", half_ty);
                let k1 = self.fresh("ml_c1", Ty::Flag);
                let k2 = self.fresh("ml_c2", Ty::Flag);
                self.push([p_hi, p_lo], Op::MulWide { a: a_lo, b: b_lo }, comment);
                self.push([e], Op::MulLow { a: a_lo, b: b_hi }, None);
                self.push([f], Op::MulLow { a: a_hi, b: b_lo }, None);
                self.push([d_lo], Op::Copy { src: p_lo.into() }, None);
                self.push(
                    [k1, t],
                    Op::AddWide {
                        a: p_hi.into(),
                        b: e.into(),
                        carry_in: None,
                    },
                    None,
                );
                self.push(
                    [k2, d_hi],
                    Op::AddWide {
                        a: t.into(),
                        b: f.into(),
                        carry_in: None,
                    },
                    None,
                );
            }
            Op::Lt { a, b } => {
                let dst = self.map_dst(dsts[0]);
                self.emit_lt(dst, a, b, comment);
            }
            Op::Eq { a, b } => {
                // rule (27)
                let dst = self.map_dst(dsts[0]);
                let (a_hi, a_lo) = self.split_operand(a);
                let (b_hi, b_lo) = self.split_operand(b);
                let eq_hi = self.fresh("eq_hi", Ty::Flag);
                let eq_lo = self.fresh("eq_lo", Ty::Flag);
                self.push([eq_hi], Op::Eq { a: a_hi, b: b_hi }, comment);
                self.push([eq_lo], Op::Eq { a: a_lo, b: b_lo }, None);
                self.push(
                    [dst],
                    Op::BoolAnd {
                        a: eq_hi.into(),
                        b: eq_lo.into(),
                    },
                    None,
                );
            }
            Op::Select {
                cond,
                if_true,
                if_false,
            } => {
                let cond = self.map_operand(cond);
                if let VarMapping::Pair(..) = self.mapping[dsts[0].0] {
                    let (d_hi, d_lo) = self.split_dst(dsts[0]);
                    let (t_hi, t_lo) = self.split_operand(if_true);
                    let (f_hi, f_lo) = self.split_operand(if_false);
                    self.push(
                        [d_hi],
                        Op::Select {
                            cond,
                            if_true: t_hi,
                            if_false: f_hi,
                        },
                        comment,
                    );
                    self.push(
                        [d_lo],
                        Op::Select {
                            cond,
                            if_true: t_lo,
                            if_false: f_lo,
                        },
                        None,
                    );
                } else {
                    let d = self.map_dst(dsts[0]);
                    let t = self.map_operand(if_true);
                    let f = self.map_operand(if_false);
                    self.push(
                        [d],
                        Op::Select {
                            cond,
                            if_true: t,
                            if_false: f,
                        },
                        comment,
                    );
                }
            }
            Op::ShrMulti { words, shift } => {
                let mut new_words = Vec::with_capacity(words.len() * 2);
                for w in words {
                    let (hi, lo) = self.split_operand(w);
                    new_words.push(hi);
                    new_words.push(lo);
                }
                let mut new_dsts = Vec::with_capacity(dsts.len() * 2);
                for &d in &dsts {
                    let (hi, lo) = self.split_dst(d);
                    new_dsts.push(hi);
                    new_dsts.push(lo);
                }
                self.push(
                    new_dsts,
                    Op::ShrMulti {
                        words: new_words,
                        shift,
                    },
                    comment,
                );
            }
            Op::BoolAnd { .. } | Op::BoolOr { .. } => unreachable!("flag ops are never wide"),
            Op::AddMod { .. }
            | Op::SubMod { .. }
            | Op::MulModBarrett { .. }
            | Op::MulAddMod { .. } => {
                unreachable!("high-level ops must be expanded before splitting")
            }
            Op::MacReduceMod { .. } => {
                unreachable!("accumulation loops are introduced by fusion, after lowering")
            }
        }
    }

    /// Schoolbook splitting of a widening multiplication (rule (28) followed by (29)).
    #[allow(clippy::too_many_arguments)]
    fn emit_mul_schoolbook(
        &mut self,
        half_ty: Ty,
        [hh, hl, lh, ll]: [VarId; 4],
        a_hi: Operand,
        a_lo: Operand,
        b_hi: Operand,
        b_lo: Operand,
        comment: Option<String>,
    ) {
        // Four half products.
        let p0h = self.fresh("p_ll_hi", half_ty);
        let p0l = self.fresh("p_ll_lo", half_ty);
        let p3h = self.fresh("p_hh_hi", half_ty);
        let p3l = self.fresh("p_hh_lo", half_ty);
        let p1h = self.fresh("p_hl_hi", half_ty);
        let p1l = self.fresh("p_hl_lo", half_ty);
        let p2h = self.fresh("p_lh_hi", half_ty);
        let p2l = self.fresh("p_lh_lo", half_ty);
        self.push([p0h, p0l], Op::MulWide { a: a_lo, b: b_lo }, comment);
        self.push([p3h, p3l], Op::MulWide { a: a_hi, b: b_hi }, None);
        self.push([p1h, p1l], Op::MulWide { a: a_hi, b: b_lo }, None);
        self.push([p2h, p2l], Op::MulWide { a: a_lo, b: b_hi }, None);
        // Cross sum: [cr, x_hi, x_lo] = p1 + p2 (rule (22)).
        let cf = self.fresh("cross_c", Ty::Flag);
        let x_lo = self.fresh("cross_lo", half_ty);
        let cr = self.fresh("cross_carry", Ty::Flag);
        let x_hi = self.fresh("cross_hi", half_ty);
        self.push(
            [cf, x_lo],
            Op::AddWide {
                a: p1l.into(),
                b: p2l.into(),
                carry_in: None,
            },
            None,
        );
        self.push(
            [cr, x_hi],
            Op::AddWide {
                a: p1h.into(),
                b: p2h.into(),
                carry_in: Some(cf.into()),
            },
            None,
        );
        // Accumulate into the four result words (rule (29)).
        let k1 = self.fresh("acc_c1", Ty::Flag);
        let k2 = self.fresh("acc_c2", Ty::Flag);
        let k3 = self.fresh("acc_c3", Ty::Flag);
        self.push([ll], Op::Copy { src: p0l.into() }, None);
        self.push(
            [k1, lh],
            Op::AddWide {
                a: p0h.into(),
                b: x_lo.into(),
                carry_in: None,
            },
            None,
        );
        self.push(
            [k2, hl],
            Op::AddWide {
                a: p3l.into(),
                b: x_hi.into(),
                carry_in: Some(k1.into()),
            },
            None,
        );
        self.push(
            [k3, hh],
            Op::AddWide {
                a: p3h.into(),
                b: cr.into(),
                carry_in: Some(k2.into()),
            },
            None,
        );
    }

    /// Karatsuba splitting of a widening multiplication (Equation 9): three half
    /// products plus extra additions/subtractions and carry corrections.
    #[allow(clippy::too_many_arguments)]
    fn emit_mul_karatsuba(
        &mut self,
        half_ty: Ty,
        [hh, hl, lh, ll]: [VarId; 4],
        a_hi: Operand,
        a_lo: Operand,
        b_hi: Operand,
        b_lo: Operand,
        comment: Option<String>,
    ) {
        // z0 = a_lo*b_lo, z2 = a_hi*b_hi
        let z0h = self.fresh("z0_hi", half_ty);
        let z0l = self.fresh("z0_lo", half_ty);
        let z2h = self.fresh("z2_hi", half_ty);
        let z2l = self.fresh("z2_lo", half_ty);
        self.push([z0h, z0l], Op::MulWide { a: a_lo, b: b_lo }, comment);
        self.push([z2h, z2l], Op::MulWide { a: a_hi, b: b_hi }, None);
        // sa = a_lo + a_hi (carry ca), sb = b_lo + b_hi (carry cb)
        let ca = self.fresh("ka_ca", Ty::Flag);
        let sa = self.fresh("ka_sa", half_ty);
        let cb = self.fresh("ka_cb", Ty::Flag);
        let sb = self.fresh("ka_sb", half_ty);
        self.push(
            [ca, sa],
            Op::AddWide {
                a: a_lo,
                b: a_hi,
                carry_in: None,
            },
            None,
        );
        self.push(
            [cb, sb],
            Op::AddWide {
                a: b_lo,
                b: b_hi,
                carry_in: None,
            },
            None,
        );
        // m = sa*sb
        let mh = self.fresh("ka_m_hi", half_ty);
        let ml = self.fresh("ka_m_lo", half_ty);
        self.push(
            [mh, ml],
            Op::MulWide {
                a: sa.into(),
                b: sb.into(),
            },
            None,
        );
        // Carry corrections: (ca·2^H + sa)(cb·2^H + sb)
        //   = m + ca·sb·2^H + cb·sa·2^H + (ca∧cb)·2^2H  — a 3-half-word value [e2, e1, e0].
        let t1 = self.fresh("ka_t1", half_ty);
        let t2 = self.fresh("ka_t2", half_ty);
        self.push(
            [t1],
            Op::Select {
                cond: ca.into(),
                if_true: sb.into(),
                if_false: Operand::Const(0),
            },
            None,
        );
        self.push(
            [t2],
            Op::Select {
                cond: cb.into(),
                if_true: sa.into(),
                if_false: Operand::Const(0),
            },
            None,
        );
        let e0 = ml;
        let k1 = self.fresh("ka_k1", Ty::Flag);
        let e1a = self.fresh("ka_e1a", half_ty);
        let k2 = self.fresh("ka_k2", Ty::Flag);
        let e1 = self.fresh("ka_e1", half_ty);
        self.push(
            [k1, e1a],
            Op::AddWide {
                a: mh.into(),
                b: t1.into(),
                carry_in: None,
            },
            None,
        );
        self.push(
            [k2, e1],
            Op::AddWide {
                a: e1a.into(),
                b: t2.into(),
                carry_in: None,
            },
            None,
        );
        let cacb = self.fresh("ka_cacb", Ty::Flag);
        self.push(
            [cacb],
            Op::BoolAnd {
                a: ca.into(),
                b: cb.into(),
            },
            None,
        );
        let kz1 = self.fresh("ka_kz1", Ty::Flag);
        let e2a = self.fresh("ka_e2a", half_ty);
        let kz2 = self.fresh("ka_kz2", Ty::Flag);
        let e2 = self.fresh("ka_e2", half_ty);
        self.push(
            [kz1, e2a],
            Op::AddWide {
                a: k1.into(),
                b: k2.into(),
                carry_in: None,
            },
            None,
        );
        self.push(
            [kz2, e2],
            Op::AddWide {
                a: e2a.into(),
                b: cacb.into(),
                carry_in: None,
            },
            None,
        );
        // cross = [e2, e1, e0] − z0 − z2, a value of at most 2H+1 bits.
        let (s2, s1, s0) = self.emit_sub3(half_ty, e2, e1, e0, z0h, z0l);
        let (u2, u1, u0) = self.emit_sub3(half_ty, s2, s1, s0, z2h, z2l);
        // result = z2·2^(2H) + cross·2^H + z0
        let r1c = self.fresh("ka_r1c", Ty::Flag);
        let r2c = self.fresh("ka_r2c", Ty::Flag);
        let r3c = self.fresh("ka_r3c", Ty::Flag);
        self.push([ll], Op::Copy { src: z0l.into() }, None);
        self.push(
            [r1c, lh],
            Op::AddWide {
                a: z0h.into(),
                b: u0.into(),
                carry_in: None,
            },
            None,
        );
        self.push(
            [r2c, hl],
            Op::AddWide {
                a: z2l.into(),
                b: u1.into(),
                carry_in: Some(r1c.into()),
            },
            None,
        );
        self.push(
            [r3c, hh],
            Op::AddWide {
                a: z2h.into(),
                b: u2.into(),
                carry_in: Some(r2c.into()),
            },
            None,
        );
    }

    /// Three-half-word minus two-half-word subtraction used by the Karatsuba rewrite:
    /// `[e2, e1, e0] − [s_hi, s_lo]`, returning the three result half-words.
    fn emit_sub3(
        &mut self,
        half_ty: Ty,
        e2: VarId,
        e1: VarId,
        e0: VarId,
        s_hi: VarId,
        s_lo: VarId,
    ) -> (VarId, VarId, VarId) {
        let r0 = self.fresh("ks_r0", half_ty);
        let r1 = self.fresh("ks_r1", half_ty);
        let r2 = self.fresh("ks_r2", half_ty);
        self.push(
            [r0],
            Op::Sub {
                a: e0.into(),
                b: s_lo.into(),
                borrow_in: None,
            },
            None,
        );
        let b0 = self.emit_borrow_out(e0.into(), s_lo.into(), None);
        self.push(
            [r1],
            Op::Sub {
                a: e1.into(),
                b: s_hi.into(),
                borrow_in: Some(b0.into()),
            },
            None,
        );
        let b1 = self.emit_borrow_out(e1.into(), s_hi.into(), Some(b0.into()));
        self.push(
            [r2],
            Op::Sub {
                a: e2.into(),
                b: Operand::Const(0),
                borrow_in: Some(b1.into()),
            },
            None,
        );
        (r2, r1, r0)
    }
}

/// Splits every variable of the widest integer width into two halves and rewrites the
/// body accordingly (one recursion step of §3.2).
///
/// `zero_top_bits[v]` is the number of top bits of variable `v` known to be zero
/// (used by the non-power-of-two-width optimization of §4; a variable past the end of
/// the slice has none); the result carries the corresponding facts about the new
/// variables. The kernel is consumed: names and comments move into the result.
///
/// # Panics
///
/// Panics if the kernel still contains high-level modular operations (call
/// [`crate::expand::expand_modular_ops`] first) or if the widest width is odd.
pub(crate) fn split_once(
    kernel: Kernel,
    zero_top_bits: &[u32],
    mul_algorithm: MulAlgorithm,
) -> SplitResult {
    let wide = kernel.max_width();
    assert!(wide % 2 == 0, "cannot split an odd width {wide}");
    let half = wide / 2;
    let Kernel {
        name,
        vars,
        params,
        outputs,
        body,
        bounds,
    } = kernel;

    // Sized for the growth seen on the evaluation's kernels: one step turns a
    // statement into at most ~4.6 statements and ~5 new variables.
    let split_count = vars.iter().filter(|v| v.ty == Ty::UInt(wide)).count();
    let mut out = Kernel {
        name,
        vars: Vec::with_capacity(vars.len() + split_count + body.len() * 5),
        params: Vec::with_capacity(params.len() * 2),
        outputs: Vec::with_capacity(outputs.len() * 2),
        body: Vec::new(),
        bounds: Default::default(),
    };
    let mut mapping = Vec::with_capacity(vars.len());
    let mut new_zero_top = Vec::with_capacity(vars.len() + split_count);

    // Rebuild the variable table: wide variables become (hi, lo) pairs, everything else
    // is carried over. Parameters and outputs keep their relative order, with the high
    // half first (the paper's big-endian digit order [x0, x1]).
    for (i, var) in vars.into_iter().enumerate() {
        let zt = zero_top_bits.get(i).copied().unwrap_or(0);
        if var.ty == Ty::UInt(wide) {
            // The high half's name is a new string; the low half's extends the old one.
            let mut hi_name = String::with_capacity(var.name.len() + 3);
            hi_name.push_str(&var.name);
            hi_name.push_str("_hi");
            let hi = VarId(out.vars.len());
            out.vars.push(Var {
                name: hi_name,
                ty: Ty::UInt(half),
            });
            let lo = VarId(out.vars.len());
            let mut lo_name = var.name;
            lo_name.push_str("_lo");
            out.vars.push(Var {
                name: lo_name,
                ty: Ty::UInt(half),
            });
            mapping.push(VarMapping::Pair(hi, lo));
            new_zero_top.extend([zt.min(half), zt.saturating_sub(half)]);
        } else {
            mapping.push(VarMapping::Single(VarId(out.vars.len())));
            out.vars.push(var);
            new_zero_top.push(zt);
        }
    }
    for (list, new_list) in [(params, &mut out.params), (outputs, &mut out.outputs)] {
        for v in list {
            match mapping[v.0] {
                VarMapping::Pair(hi, lo) => new_list.extend([hi, lo]),
                VarMapping::Single(s) => new_list.push(s),
            }
        }
    }
    // A bound follows a variable that keeps its width; a split one drops it.
    out.bounds = bounds
        .into_iter()
        .filter_map(|(v, bound)| match mapping[v.0] {
            VarMapping::Single(s) => Some((s, bound)),
            VarMapping::Pair(..) => None,
        })
        .collect();

    let mut splitter = Splitter {
        out,
        mapping,
        body: Vec::with_capacity(body.len() * 5),
        half,
        mul_algorithm,
        fresh_counter: 0,
    };

    for mut stmt in body {
        let is_wide = |v: VarId| matches!(splitter.mapping[v.0], VarMapping::Pair(..));
        let mut touches_wide = stmt.dsts.iter().any(|d| is_wide(*d));
        stmt.op
            .for_each_operand(|o| touches_wide |= o.as_var().is_some_and(is_wide));
        if touches_wide {
            splitter.rewrite_wide_stmt(stmt);
        } else {
            // Narrow statement: remap variable ids in place and keep it.
            for d in stmt.dsts.iter_mut() {
                *d = splitter.map_dst(*d);
            }
            stmt.op
                .for_each_operand_mut(|o| *o = splitter.map_operand(*o));
            splitter.body.push(stmt);
        }
    }

    let mut kernel = splitter.out;
    kernel.body = splitter.body;
    SplitResult {
        kernel,
        zero_top_bits: new_zero_top,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{build, KernelOp, KernelSpec};
    use crate::expand::expand_modular_ops;
    use moma_ir::validate::validate;
    use moma_ir::{cost, interp};

    /// Lowers a 128-bit kernel to 64-bit words with one split step and checks it against
    /// direct 128-bit arithmetic.
    fn check_128(op: KernelOp, alg: MulAlgorithm, cases: &[(u128, u128)]) {
        let hl = build(&KernelSpec::new(op, 128));
        let expanded = expand_modular_ops(&hl.kernel);
        let split = split_once(expanded, &[], alg);
        validate(&split.kernel).unwrap();
        assert!(split.kernel.is_machine_level(64));

        let q: u128 = (1u128 << 124) - 159; // a 124-bit prime-like modulus
        let _mbits = 124u32;
        let mu: u128 = {
            // floor(2^(2*124+3)/q) computed via long division over u128 halves.
            // 2^(251)/q: since q ~ 2^124, mu ~ 2^127 fits u128.
            let mut rem: u128 = 0;
            let mut quotient: u128 = 0;
            for i in (0..252u32).rev() {
                rem <<= 1;
                if i == 251 {
                    rem |= 1;
                }
                quotient <<= 1;
                if rem >= q {
                    rem -= q;
                    quotient |= 1;
                }
            }
            quotient
        };
        let split_u128 = |x: u128| [(x >> 64) as u64, x as u64];

        for &(a, b) in cases {
            let a = a % q;
            let b = b % q;
            let mut inputs = Vec::new();
            match op {
                KernelOp::ModAdd | KernelOp::ModSub => {
                    inputs.extend(split_u128(a));
                    inputs.extend(split_u128(b));
                    inputs.extend(split_u128(q));
                }
                KernelOp::ModMul => {
                    inputs.extend(split_u128(a));
                    inputs.extend(split_u128(b));
                    inputs.extend(split_u128(q));
                    inputs.extend(split_u128(mu));
                }
                _ => unreachable!(),
            }
            let r = interp::run(&split.kernel, &inputs).unwrap();
            let got = (r.outputs[0] as u128) << 64 | r.outputs[1] as u128;
            let expected = match op {
                KernelOp::ModAdd => (a + b) % q,
                KernelOp::ModSub => {
                    if a >= b {
                        a - b
                    } else {
                        a + q - b
                    }
                }
                KernelOp::ModMul => {
                    // (a*b) mod q via 256-bit arithmetic emulated with u128 halves:
                    // use repeated doubling to stay within u128.
                    let mut result = 0u128;
                    let mut acc = a % q;
                    let mut bb = b;
                    while bb > 0 {
                        if bb & 1 == 1 {
                            result = (result + acc) % q;
                        }
                        acc = (acc + acc) % q;
                        bb >>= 1;
                    }
                    result
                }
                _ => unreachable!(),
            };
            assert_eq!(got, expected, "{op:?} a={a:x} b={b:x}");
        }
    }

    #[test]
    fn split_addmod_128_matches_reference() {
        check_128(
            KernelOp::ModAdd,
            MulAlgorithm::Schoolbook,
            &[(0, 0), (1, 2), (u128::MAX, u128::MAX), (1 << 100, 1 << 123)],
        );
    }

    #[test]
    fn split_submod_128_matches_reference() {
        check_128(
            KernelOp::ModSub,
            MulAlgorithm::Schoolbook,
            &[(0, 0), (5, 9), (u128::MAX, 3), (1 << 64, u128::MAX >> 5)],
        );
    }

    #[test]
    fn split_mulmod_128_matches_reference_schoolbook() {
        check_128(
            KernelOp::ModMul,
            MulAlgorithm::Schoolbook,
            &[
                (0, 12345),
                (1, u128::MAX),
                (u128::MAX, u128::MAX),
                (
                    0xdeadbeefdeadbeefdeadbeefdeadbeef,
                    0xcafebabecafebabecafebabecafebabe,
                ),
                ((1 << 124) - 160, (1 << 124) - 161),
            ],
        );
    }

    #[test]
    fn split_mulmod_128_matches_reference_karatsuba() {
        check_128(
            KernelOp::ModMul,
            MulAlgorithm::Karatsuba,
            &[
                (0, 12345),
                (u128::MAX, u128::MAX),
                (
                    0x123456789abcdef0123456789abcdef0,
                    0xfedcba9876543210fedcba9876543210,
                ),
                ((1 << 124) - 160, 7),
            ],
        );
    }

    #[test]
    fn schoolbook_vs_karatsuba_multiplication_counts() {
        // The paper §5.4: schoolbook double-word multiplication uses 4 single-word
        // multiplications, Karatsuba uses 3.
        let hl = build(&KernelSpec::new(KernelOp::ModMul, 128));
        let expanded = expand_modular_ops(&hl.kernel);
        let sb = split_once(expanded.clone(), &[], MulAlgorithm::Schoolbook);
        let ka = split_once(expanded, &[], MulAlgorithm::Karatsuba);
        let sb_counts = cost::static_counts(&sb.kernel);
        let ka_counts = cost::static_counts(&ka.kernel);
        // Two wide MulWide (a*b and r1*mu) plus one wide MulLow in the Barrett sequence.
        // Schoolbook: 2*4 + (1 wide MulWide inside MulLow split + 2 MulLow) = 8 + 1 = 9 MulWide, 2 MulLow
        assert_eq!(sb_counts.get("mulwide"), 9);
        assert_eq!(ka_counts.get("mulwide"), 7); // 2*3 Karatsuba + 1 inside MulLow split
        assert!(ka_counts.add_sub() > sb_counts.add_sub());
    }

    /// A wide value read where a narrow one belongs (here a select's
    /// condition) is a malformed kernel, not one to lower through its low half.
    #[test]
    #[should_panic(expected = "operand was split but used narrow")]
    fn wide_operand_in_a_narrow_slot_is_rejected() {
        let mut kb = moma_ir::KernelBuilder::new("wide_cond");
        let a = kb.param("a", Ty::UInt(128));
        let b = kb.param("b", Ty::UInt(128));
        let o = kb.output("o", Ty::UInt(128));
        kb.push(
            vec![o],
            Op::Select {
                cond: a.into(),
                if_true: b.into(),
                if_false: Operand::Const(0),
            },
        );
        split_once(kb.build(), &[], MulAlgorithm::Schoolbook);
    }

    #[test]
    fn zero_top_bits_propagate_through_split() {
        let hl = build(&KernelSpec::new(KernelOp::ModAdd, 384));
        assert_eq!(hl.zero_top_bits, 128);
        let expanded = expand_modular_ops(&hl.kernel);
        let mut zt = vec![0; expanded.vars.len()];
        for p in &hl.kernel.params {
            zt[p.0] = hl.zero_top_bits;
        }
        let split = split_once(expanded, &zt, MulAlgorithm::Schoolbook);
        // 512-bit params split into 256-bit halves; the high half of each original
        // parameter has 128 of its 256 bits known zero.
        let a_hi = split.kernel.params[0];
        let a_lo = split.kernel.params[1];
        assert_eq!(split.zero_top_bits[a_hi.0], 128);
        assert_eq!(split.zero_top_bits[a_lo.0], 0);
        // Splitting again: the top 256-bit half becomes two 128-bit quarters, the
        // topmost of which is entirely zero.
        let split2 = split_once(split.kernel, &split.zero_top_bits, MulAlgorithm::Schoolbook);
        let a_hi_hi = split2.kernel.params[0];
        assert_eq!(split2.zero_top_bits[a_hi_hi.0], 128);
    }
}
