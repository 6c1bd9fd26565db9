//! Type and well-formedness checking for kernels.
//!
//! The validator enforces the width discipline that the paper's rules rely on: carries
//! are flags, the two destinations of a widening addition are `[flag, word]`, the
//! destinations of a widening multiplication are two words of the operand width, every
//! variable is assigned before it is used, parameters are never re-assigned, and no two
//! variables share a name (the emitted C declares every variable once, by name).

use crate::{Kernel, Op, Operand, Stmt, Ty, VarId};
use std::collections::HashSet;
use std::error::Error;
use std::fmt;

/// A validation failure, with the index of the offending statement when applicable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ValidateError {
    /// Statement index in the kernel body (`None` for signature-level problems).
    pub stmt: Option<usize>,
    /// Explanation of the failure.
    pub message: String,
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.stmt {
            Some(i) => write!(f, "statement {i}: {}", self.message),
            None => write!(f, "{}", self.message),
        }
    }
}

impl Error for ValidateError {}

/// Validates a kernel.
///
/// # Errors
///
/// Returns a [`ValidateError`] describing the first problem found: two variables with
/// one name, ill-typed operation, use of an undefined variable, re-assignment of a
/// parameter, an output that is never assigned, or a constant that cannot fit its use
/// site.
pub fn validate(kernel: &Kernel) -> Result<(), ValidateError> {
    let mut names = HashSet::with_capacity(kernel.vars.len());
    if let Some(var) = kernel.vars.iter().find(|v| !names.insert(v.name.as_str())) {
        return Err(ValidateError {
            stmt: None,
            message: format!("two variables are named '{}'", var.name),
        });
    }
    let mut defined: HashSet<VarId> = kernel.params.iter().copied().collect();
    let param_set: HashSet<VarId> = kernel.params.iter().copied().collect();

    for (i, stmt) in kernel.body.iter().enumerate() {
        check_stmt(kernel, stmt, i, &defined, &param_set)?;
        for d in &stmt.dsts {
            defined.insert(*d);
        }
    }

    for out in &kernel.outputs {
        if !defined.contains(out) {
            return Err(ValidateError {
                stmt: None,
                message: format!(
                    "output variable '{}' is never assigned",
                    kernel.var(*out).name
                ),
            });
        }
    }
    Ok(())
}

fn err(stmt: usize, message: impl Into<String>) -> ValidateError {
    ValidateError {
        stmt: Some(stmt),
        message: message.into(),
    }
}

fn check_stmt(
    kernel: &Kernel,
    stmt: &Stmt,
    idx: usize,
    defined: &HashSet<VarId>,
    params: &HashSet<VarId>,
) -> Result<(), ValidateError> {
    // Every operand variable must be defined.
    for op in stmt.op.operands() {
        if let Operand::Var(v) = op {
            if v.0 >= kernel.vars.len() {
                return Err(err(idx, format!("operand {v:?} out of range")));
            }
            if !defined.contains(&v) {
                return Err(err(
                    idx,
                    format!("use of undefined variable '{}'", kernel.var(v).name),
                ));
            }
        }
    }
    // Destinations must exist and must not be parameters.
    for d in &stmt.dsts {
        if d.0 >= kernel.vars.len() {
            return Err(err(idx, format!("destination {d:?} out of range")));
        }
        if params.contains(d) {
            return Err(err(
                idx,
                format!("parameter '{}' cannot be assigned", kernel.var(*d).name),
            ));
        }
    }

    let dst_ty = |n: usize| kernel.ty(stmt.dsts[n]);
    let word_of = |o: Operand| -> Option<u32> {
        match o {
            Operand::Var(v) => match kernel.ty(v) {
                Ty::UInt(w) => Some(w),
                Ty::Flag => None,
            },
            Operand::Const(_) => None, // constants adapt to context
        }
    };
    // The width of a word operation: widths of all word operands must agree; constants
    // and flags are flexible.
    let op_width = |ops: &[Operand]| -> Result<Option<u32>, ValidateError> {
        let mut width = None;
        for &o in ops {
            if let Some(w) = word_of(o) {
                match width {
                    None => width = Some(w),
                    Some(prev) if prev != w => {
                        return Err(err(idx, format!("operand width mismatch: {prev} vs {w}")))
                    }
                    _ => {}
                }
            }
        }
        Ok(width)
    };
    let expect_dsts = |n: usize| -> Result<(), ValidateError> {
        if stmt.dsts.len() != n {
            Err(err(
                idx,
                format!(
                    "{} expects {n} destination(s), got {}",
                    stmt.op.mnemonic(),
                    stmt.dsts.len()
                ),
            ))
        } else {
            Ok(())
        }
    };
    let expect_flag_operand = |o: Operand| -> Result<(), ValidateError> {
        match o {
            Operand::Var(v) if kernel.ty(v) != Ty::Flag => Err(err(
                idx,
                format!(
                    "expected a flag, got '{}': {}",
                    kernel.var(v).name,
                    kernel.ty(v)
                ),
            )),
            Operand::Const(c) if c > 1 => {
                Err(err(idx, format!("flag constant must be 0 or 1, got {c}")))
            }
            _ => Ok(()),
        }
    };

    match &stmt.op {
        Op::Copy { src } => {
            expect_dsts(1)?;
            // A flag may be copied into a word; a word copy must not narrow.
            if let (Some(sw), Ty::UInt(dw)) = (word_of(*src), dst_ty(0)) {
                if sw > dw {
                    return Err(err(idx, format!("copy narrows {sw} bits into {dw}")));
                }
            }
        }
        Op::AddWide { a, b, carry_in } => {
            expect_dsts(2)?;
            if dst_ty(0) != Ty::Flag {
                return Err(err(idx, "first destination of add must be the carry flag"));
            }
            let w = op_width(&[*a, *b])?;
            if let (Some(w), Ty::UInt(dw)) = (w, dst_ty(1)) {
                if w != dw {
                    return Err(err(idx, format!("sum width {dw} != operand width {w}")));
                }
            }
            if let Some(c) = carry_in {
                expect_flag_operand(*c)?;
            }
        }
        Op::Sub { a, b, borrow_in } => {
            expect_dsts(1)?;
            let w = op_width(&[*a, *b])?;
            if let (Some(w), Ty::UInt(dw)) = (w, dst_ty(0)) {
                if w != dw {
                    return Err(err(
                        idx,
                        format!("difference width {dw} != operand width {w}"),
                    ));
                }
            }
            if let Some(bi) = borrow_in {
                expect_flag_operand(*bi)?;
            }
        }
        Op::MulWide { a, b } => {
            expect_dsts(2)?;
            let w = op_width(&[*a, *b])?;
            for n in 0..2 {
                if let (Some(w), Ty::UInt(dw)) = (w, dst_ty(n)) {
                    if w != dw {
                        return Err(err(
                            idx,
                            format!("product half width {dw} != operand width {w}"),
                        ));
                    }
                }
            }
        }
        Op::MulLow { a, b } => {
            expect_dsts(1)?;
            op_width(&[*a, *b, Operand::Var(stmt.dsts[0])])?;
        }
        Op::Lt { a, b } | Op::Eq { a, b } => {
            expect_dsts(1)?;
            if dst_ty(0) != Ty::Flag {
                return Err(err(idx, "comparison destination must be a flag"));
            }
            op_width(&[*a, *b])?;
        }
        Op::BoolAnd { a, b } | Op::BoolOr { a, b } => {
            expect_dsts(1)?;
            if dst_ty(0) != Ty::Flag {
                return Err(err(idx, "boolean destination must be a flag"));
            }
            expect_flag_operand(*a)?;
            expect_flag_operand(*b)?;
        }
        Op::Select {
            cond,
            if_true,
            if_false,
        } => {
            expect_dsts(1)?;
            expect_flag_operand(*cond)?;
            if dst_ty(0) != Ty::Flag {
                op_width(&[*if_true, *if_false, Operand::Var(stmt.dsts[0])])?;
            }
        }
        Op::ShrMulti { words, shift } => {
            if stmt.dsts.is_empty() {
                return Err(err(idx, "shift needs at least one destination"));
            }
            let w = op_width(words)?;
            if let Some(w) = w {
                let total = w * words.len() as u32;
                if *shift >= total {
                    return Err(err(
                        idx,
                        format!("shift amount {shift} >= total width {total}"),
                    ));
                }
                for d in &stmt.dsts {
                    if kernel.ty(*d) != Ty::UInt(w) {
                        return Err(err(
                            idx,
                            "shift destinations must have the source word width",
                        ));
                    }
                }
            }
        }
        Op::AddMod { a, b, q } | Op::SubMod { a, b, q } => {
            expect_dsts(1)?;
            op_width(&[*a, *b, *q, Operand::Var(stmt.dsts[0])])?;
        }
        Op::MulModBarrett { a, b, q, mu, mbits } => {
            expect_dsts(1)?;
            let w = op_width(&[*a, *b, *q, *mu, Operand::Var(stmt.dsts[0])])?;
            if let Some(w) = w {
                if *mbits + 4 > w {
                    return Err(err(
                        idx,
                        format!("Barrett modulus bit-width {mbits} too large for {w}-bit operands"),
                    ));
                }
            }
        }
        Op::MulAddMod {
            a,
            b,
            c,
            q,
            mu,
            mbits,
        } => {
            expect_dsts(1)?;
            let w = op_width(&[*a, *b, *c, *q, *mu, Operand::Var(stmt.dsts[0])])?;
            if let Some(w) = w {
                if *mbits + 4 > w {
                    return Err(err(
                        idx,
                        format!("Barrett modulus bit-width {mbits} too large for {w}-bit operands"),
                    ));
                }
            }
        }
        Op::MacReduceMod { pairs, q } => {
            expect_dsts(1)?;
            if pairs.is_empty() {
                return Err(err(idx, "accumulation needs at least one product term"));
            }
            // The compiled executor reduces through `SingleBarrett`, whose domain
            // is a modulus of 2 to 60 bits.
            if *q < 2 {
                return Err(err(idx, "accumulation modulus must be at least 2"));
            }
            let mbits = 64 - q.leading_zeros();
            if mbits > 60 {
                return Err(err(
                    idx,
                    format!("accumulation modulus has {mbits} bits, more than 60"),
                ));
            }
            // Static overflow bound: the 128-bit accumulator must hold the worst
            // case of Σᵢ aᵢ·bᵢ, bounding each operand by its literal value or by
            // its declared width. Fusion bails out when this cannot be shown, so
            // a validated accumulation is always exact.
            let bound = |o: Operand| -> Result<u128, ValidateError> {
                match o {
                    Operand::Const(v) => Ok(v as u128),
                    Operand::Var(v) => match kernel.ty(v) {
                        Ty::UInt(w) => Ok(if w >= 128 {
                            u128::MAX
                        } else {
                            (1u128 << w) - 1
                        }),
                        Ty::Flag => Err(err(idx, "accumulation terms must be words")),
                    },
                }
            };
            let mut worst: u128 = 0;
            for (a, b) in pairs {
                let term = bound(*a)?.checked_mul(bound(*b)?);
                worst = match term.and_then(|t| worst.checked_add(t)) {
                    Some(w) => w,
                    None => {
                        return Err(err(
                            idx,
                            "sum of products can overflow the 128-bit accumulator",
                        ))
                    }
                };
            }
            match dst_ty(0) {
                Ty::UInt(dw) if dw >= mbits => {}
                Ty::UInt(dw) => {
                    return Err(err(
                        idx,
                        format!("destination width {dw} cannot hold a residue of {mbits} bits"),
                    ))
                }
                Ty::Flag => return Err(err(idx, "accumulation destination must be a word")),
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::KernelBuilder;

    #[test]
    fn accepts_well_typed_kernel() {
        let mut kb = KernelBuilder::new("ok");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let carry = kb.local("carry", Ty::Flag);
        let s = kb.output("s", Ty::UInt(64));
        kb.push(
            vec![carry, s],
            Op::AddWide {
                a: a.into(),
                b: b.into(),
                carry_in: None,
            },
        );
        assert!(validate(&kb.build()).is_ok());
    }

    #[test]
    fn rejects_use_before_definition() {
        let mut kb = KernelBuilder::new("bad");
        let a = kb.param("a", Ty::UInt(64));
        let t = kb.local("t", Ty::UInt(64));
        let out = kb.output("o", Ty::UInt(64));
        kb.push(
            vec![out],
            Op::MulLow {
                a: a.into(),
                b: t.into(),
            },
        );
        let e = validate(&kb.build()).unwrap_err();
        assert!(e.to_string().contains("undefined variable"));
    }

    #[test]
    fn rejects_unassigned_output() {
        let mut kb = KernelBuilder::new("bad");
        let _a = kb.param("a", Ty::UInt(64));
        let _o = kb.output("o", Ty::UInt(64));
        let e = validate(&kb.build()).unwrap_err();
        assert!(e.to_string().contains("never assigned"));
    }

    #[test]
    fn rejects_two_variables_with_one_name() {
        let mut kb = KernelBuilder::new("bad");
        let a = kb.param("a", Ty::UInt(64));
        let t = kb.local("t", Ty::UInt(64));
        let o = kb.output("t", Ty::UInt(64));
        kb.push(vec![t], Op::Copy { src: a.into() });
        kb.push(vec![o], Op::Copy { src: t.into() });
        let e = validate(&kb.build()).unwrap_err();
        assert_eq!(e.to_string(), "two variables are named 't'");
    }

    #[test]
    fn rejects_parameter_assignment() {
        let mut kb = KernelBuilder::new("bad");
        let a = kb.param("a", Ty::UInt(64));
        kb.push(
            vec![a],
            Op::Copy {
                src: Operand::Const(0),
            },
        );
        let e = validate(&kb.build()).unwrap_err();
        assert!(e.to_string().contains("cannot be assigned"));
    }

    #[test]
    fn rejects_width_mismatch() {
        let mut kb = KernelBuilder::new("bad");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(128));
        let o = kb.output("o", Ty::UInt(64));
        kb.push(
            vec![o],
            Op::MulLow {
                a: a.into(),
                b: b.into(),
            },
        );
        let e = validate(&kb.build()).unwrap_err();
        assert!(e.to_string().contains("width mismatch"));
    }

    #[test]
    fn rejects_non_flag_carry_destination() {
        let mut kb = KernelBuilder::new("bad");
        let a = kb.param("a", Ty::UInt(64));
        let c = kb.local("c", Ty::UInt(64));
        let s = kb.output("s", Ty::UInt(64));
        kb.push(
            vec![c, s],
            Op::AddWide {
                a: a.into(),
                b: Operand::Const(1),
                carry_in: None,
            },
        );
        let e = validate(&kb.build()).unwrap_err();
        assert!(e.to_string().contains("carry"));
    }

    #[test]
    fn rejects_oversized_shift() {
        let mut kb = KernelBuilder::new("bad");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let o = kb.output("o", Ty::UInt(64));
        kb.push(
            vec![o],
            Op::ShrMulti {
                words: vec![a.into(), b.into()],
                shift: 128,
            },
        );
        let e = validate(&kb.build()).unwrap_err();
        assert!(e.to_string().contains("shift amount"));
    }
}
