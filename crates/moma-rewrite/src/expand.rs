//! Expansion of high-level modular operations into mid-level word algebra.
//!
//! This is the first rewriting stage: `AddMod`, `SubMod`, and `MulModBarrett` at their
//! native width `W` are rewritten into the sequences of widening additions,
//! subtractions, widening multiplications, comparisons, constant shifts, and conditional
//! selects that the paper's Listings 1–4 use. The resulting kernel still contains
//! `W`-wide values; the type-splitting stage (the private `split` module) then recurses
//! over the data types.
//!
//! One deliberate deviation from the paper: Equation (2) and Listing 1 perform the
//! conditional subtraction when `(a + b) > q`, which leaves the unreduced value `q`
//! when `a + b == q`. We subtract on `>=` instead so that results always land in
//! `[0, q)`; this costs one extra equality comparison per modular addition and is
//! required for the generated code to agree bit-for-bit with the arbitrary-precision
//! oracle.

use moma_ir::{Kernel, Op, Operand, Stmt, Ty, Var, VarId};

/// Creates a new local variable in an existing kernel.
pub(crate) fn fresh(kernel: &mut Kernel, prefix: &str, ty: Ty) -> VarId {
    let id = VarId(kernel.vars.len());
    kernel.vars.push(Var {
        name: format!("{prefix}{}", kernel.vars.len()),
        ty,
    });
    id
}

/// Expands every high-level modular operation in the kernel.
///
/// Statements that are already mid-level are kept unchanged. The output contains no
/// `AddMod`, `SubMod`, `MulModBarrett`, or `MulAddMod` statements.
pub(crate) fn expand_modular_ops(kernel: &Kernel) -> Kernel {
    let mut out = kernel.clone();
    let body = std::mem::take(&mut out.body);
    let mut new_body = Vec::with_capacity(body.len() * 8);
    for stmt in body {
        match &stmt.op {
            Op::AddMod { a, b, q } => {
                expand_addmod(&mut out, &mut new_body, stmt.dsts[0], *a, *b, *q, &stmt);
            }
            Op::SubMod { a, b, q } => {
                expand_submod(&mut out, &mut new_body, stmt.dsts[0], *a, *b, *q, &stmt);
            }
            Op::MulModBarrett { a, b, q, mu, mbits } => {
                expand_mulmod(
                    &mut out,
                    &mut new_body,
                    stmt.dsts[0],
                    *a,
                    *b,
                    *q,
                    *mu,
                    *mbits,
                    &stmt,
                );
            }
            Op::MulAddMod {
                a,
                b,
                c,
                q,
                mu,
                mbits,
            } => {
                // Fused multiply-accumulate: expand as the product into a fresh
                // temporary followed by the modular addition of the accumulator.
                let w = width_of(&out, stmt.dsts[0]);
                let prod = fresh(&mut out, "macprod", w);
                expand_mulmod(
                    &mut out,
                    &mut new_body,
                    prod,
                    *a,
                    *b,
                    *q,
                    *mu,
                    *mbits,
                    &stmt,
                );
                expand_addmod(
                    &mut out,
                    &mut new_body,
                    stmt.dsts[0],
                    prod.into(),
                    *c,
                    *q,
                    &stmt,
                );
            }
            _ => new_body.push(stmt),
        }
    }
    out.body = new_body;
    out
}

fn width_of(kernel: &Kernel, dst: VarId) -> Ty {
    kernel.ty(dst)
}

fn comment(src: &Stmt, text: &str) -> Option<String> {
    src.comment
        .as_ref()
        .map(|c| format!("{c}: {text}"))
        .or_else(|| Some(text.to_string()))
}

/// `c = (a + b) mod q`  →  Listing 2's `_daddmod` structure at width `W`.
fn expand_addmod(
    kernel: &mut Kernel,
    body: &mut Vec<Stmt>,
    c: VarId,
    a: Operand,
    b: Operand,
    q: Operand,
    src: &Stmt,
) {
    let w = width_of(kernel, c);
    let carry = fresh(kernel, "carry", Ty::Flag);
    let sum = fresh(kernel, "sum", w);
    let lt = fresh(kernel, "lt", Ty::Flag);
    let eq = fresh(kernel, "eq", Ty::Flag);
    let ge = fresh(kernel, "ge", Ty::Flag);
    let cond = fresh(kernel, "cond", Ty::Flag);
    let diff = fresh(kernel, "diff", w);

    body.push(Stmt {
        dsts: [carry, sum].into(),
        op: Op::AddWide {
            a,
            b,
            carry_in: None,
        },
        comment: comment(src, "rule (22): wide addition with carry"),
    });
    body.push(Stmt {
        dsts: [lt].into(),
        op: Op::Lt {
            a: q,
            b: sum.into(),
        },
        comment: comment(src, "rule (24): q < sum"),
    });
    body.push(Stmt {
        dsts: [eq].into(),
        op: Op::Eq {
            a: q,
            b: sum.into(),
        },
        comment: comment(src, "rule (24): q =? sum (>= correction)"),
    });
    body.push(Stmt {
        dsts: [ge].into(),
        op: Op::BoolOr {
            a: lt.into(),
            b: eq.into(),
        },
        comment: None,
    });
    body.push(Stmt {
        dsts: [cond].into(),
        op: Op::BoolOr {
            a: carry.into(),
            b: ge.into(),
        },
        comment: comment(src, "rule (24): overflow or sum >= q"),
    });
    body.push(Stmt {
        dsts: [diff].into(),
        op: Op::Sub {
            a: sum.into(),
            b: q,
            borrow_in: None,
        },
        comment: comment(src, "rule (25): conditional subtraction value"),
    });
    body.push(Stmt {
        dsts: [c].into(),
        op: Op::Select {
            cond: cond.into(),
            if_true: diff.into(),
            if_false: sum.into(),
        },
        comment: comment(src, "conditional assignment"),
    });
}

/// `c = (a - b) mod q`  →  Listing 2's `_dsubmod` structure at width `W`.
fn expand_submod(
    kernel: &mut Kernel,
    body: &mut Vec<Stmt>,
    c: VarId,
    a: Operand,
    b: Operand,
    q: Operand,
    src: &Stmt,
) {
    let w = width_of(kernel, c);
    let diff = fresh(kernel, "diff", w);
    let borrow = fresh(kernel, "borrow", Ty::Flag);
    let carry = fresh(kernel, "carry", Ty::Flag);
    let fixed = fresh(kernel, "fixed", w);

    body.push(Stmt {
        dsts: [diff].into(),
        op: Op::Sub {
            a,
            b,
            borrow_in: None,
        },
        comment: comment(src, "rule (25): wrapping subtraction"),
    });
    body.push(Stmt {
        dsts: [borrow].into(),
        op: Op::Lt { a, b },
        comment: comment(src, "rule (26): borrow = a < b"),
    });
    body.push(Stmt {
        dsts: [carry, fixed].into(),
        op: Op::AddWide {
            a: diff.into(),
            b: q,
            carry_in: None,
        },
        comment: comment(src, "add modulus back"),
    });
    body.push(Stmt {
        dsts: [c].into(),
        op: Op::Select {
            cond: borrow.into(),
            if_true: fixed.into(),
            if_false: diff.into(),
        },
        comment: comment(src, "conditional assignment"),
    });
}

/// `c = (a · b) mod q` via Barrett  →  Listing 4's `_dmulmod` structure at width `W`.
#[allow(clippy::too_many_arguments)]
fn expand_mulmod(
    kernel: &mut Kernel,
    body: &mut Vec<Stmt>,
    c: VarId,
    a: Operand,
    b: Operand,
    q: Operand,
    mu: Operand,
    mbits: u32,
    src: &Stmt,
) {
    let w = width_of(kernel, c);
    let t_hi = fresh(kernel, "t_hi", w);
    let t_lo = fresh(kernel, "t_lo", w);
    let r1 = fresh(kernel, "r1", w);
    let p_hi = fresh(kernel, "p_hi", w);
    let p_lo = fresh(kernel, "p_lo", w);
    let r2 = fresh(kernel, "r2", w);
    let r2q = fresh(kernel, "r2q", w);
    let c0 = fresh(kernel, "c0", w);
    let lt = fresh(kernel, "lt", Ty::Flag);
    let c1 = fresh(kernel, "c1", w);

    body.push(Stmt {
        dsts: [t_hi, t_lo].into(),
        op: Op::MulWide { a, b },
        comment: comment(src, "t = a * b (rule (28))"),
    });
    body.push(Stmt {
        dsts: [r1].into(),
        op: Op::ShrMulti {
            words: vec![t_hi.into(), t_lo.into()],
            shift: mbits - 2,
        },
        comment: comment(src, "r1 = t >> (mbits - 2)"),
    });
    body.push(Stmt {
        dsts: [p_hi, p_lo].into(),
        op: Op::MulWide {
            a: r1.into(),
            b: mu,
        },
        comment: comment(src, "p = r1 * mu"),
    });
    body.push(Stmt {
        dsts: [r2].into(),
        op: Op::ShrMulti {
            words: vec![p_hi.into(), p_lo.into()],
            shift: mbits + 5,
        },
        comment: comment(src, "r2 = p >> (mbits + 5) ~= floor(a*b/q)"),
    });
    body.push(Stmt {
        dsts: [r2q].into(),
        op: Op::MulLow { a: r2.into(), b: q },
        comment: comment(src, "r2*q (low half only, Listing 4 optimization)"),
    });
    body.push(Stmt {
        dsts: [c0].into(),
        op: Op::Sub {
            a: t_lo.into(),
            b: r2q.into(),
            borrow_in: None,
        },
        comment: comment(src, "c0 = t - r2*q, fits one word since c0 < 2q"),
    });
    body.push(Stmt {
        dsts: [lt].into(),
        op: Op::Lt { a: c0.into(), b: q },
        comment: comment(src, "off-by-one correction test"),
    });
    body.push(Stmt {
        dsts: [c1].into(),
        op: Op::Sub {
            a: c0.into(),
            b: q,
            borrow_in: None,
        },
        comment: None,
    });
    body.push(Stmt {
        dsts: [c].into(),
        op: Op::Select {
            cond: lt.into(),
            if_true: c0.into(),
            if_false: c1.into(),
        },
        comment: comment(src, "conditional assignment"),
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{build, KernelOp, KernelSpec};
    use moma_ir::validate::validate;
    use moma_ir::{cost, interp};
    use moma_mp::single::SingleBarrett;

    #[test]
    fn expansion_removes_high_level_ops() {
        for op in KernelOp::all() {
            let hl = build(&KernelSpec::new(op, 128));
            let expanded = expand_modular_ops(&hl.kernel);
            assert!(
                expanded.body.iter().all(|s| !s.op.is_high_level()),
                "{op:?} still has high-level statements"
            );
            validate(&expanded).unwrap();
        }
    }

    #[test]
    fn expanded_64_bit_addmod_is_executable_and_correct() {
        // At 64 bits the expansion alone is already machine level — the Listing 1 case.
        let hl = build(&KernelSpec::new(KernelOp::ModAdd, 64));
        let expanded = expand_modular_ops(&hl.kernel);
        assert!(expanded.is_machine_level(64));
        let q = 0x0FFF_FFA0_0000_0001u64; // 60-bit prime
        for (a, b) in [
            (0u64, 0u64),
            (q - 1, q - 1),
            (1, q - 1),
            (123456, 654321),
            (q / 2, q / 2 + 1),
        ] {
            let r = interp::run(&expanded, &[a, b, q]).unwrap();
            let expected = ((a as u128 + b as u128) % q as u128) as u64;
            assert_eq!(r.outputs[0], expected, "a={a} b={b}");
        }
    }

    #[test]
    fn expanded_64_bit_submod_and_mulmod_are_correct() {
        let q = 0x0FFF_FFA0_0000_0001u64;
        let mu = SingleBarrett::new(q).mu;

        let sub = expand_modular_ops(&build(&KernelSpec::new(KernelOp::ModSub, 64)).kernel);
        let mul = expand_modular_ops(&build(&KernelSpec::new(KernelOp::ModMul, 64)).kernel);
        assert!(sub.is_machine_level(64) && mul.is_machine_level(64));

        let mut state = 0x2545F4914F6CDD1Du64;
        for _ in 0..200 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let a = state % q;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let b = state % q;
            let r = interp::run(&sub, &[a, b, q]).unwrap();
            let expected = if a >= b { a - b } else { a + q - b };
            assert_eq!(r.outputs[0], expected);

            let r = interp::run(&mul, &[a, b, q, mu]).unwrap();
            let expected = ((a as u128 * b as u128) % q as u128) as u64;
            assert_eq!(r.outputs[0], expected);
        }
    }

    #[test]
    fn expanded_64_bit_muladdmod_matches_fused_semantics() {
        // Build a one-statement kernel around the fused op and check that its
        // expansion (MulModBarrett + AddMod word algebra) computes (a·b + c) mod q.
        let q = 0x0FFF_FFA0_0000_0001u64;
        let SingleBarrett { mu, mbits, .. } = SingleBarrett::new(q);
        let mut kb = moma_ir::KernelBuilder::new("macmod64");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let c = kb.param("c", Ty::UInt(64));
        let qv = kb.param("q", Ty::UInt(64));
        let muv = kb.param("mu", Ty::UInt(64));
        let out = kb.output("out", Ty::UInt(64));
        kb.push(
            vec![out],
            Op::MulAddMod {
                a: a.into(),
                b: b.into(),
                c: c.into(),
                q: qv.into(),
                mu: muv.into(),
                mbits,
            },
        );
        let kernel = kb.build();
        let expanded = expand_modular_ops(&kernel);
        assert!(expanded.body.iter().all(|s| !s.op.is_high_level()));
        assert!(expanded.is_machine_level(64));
        validate(&expanded).unwrap();

        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..200 {
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                state % q
            };
            let (a, b, c) = (next(), next(), next());
            let fused = interp::run(&kernel, &[a, b, c, q, mu]).unwrap();
            let lowered = interp::run(&expanded, &[a, b, c, q, mu]).unwrap();
            let expected = ((a as u128 * b as u128 + c as u128) % q as u128) as u64;
            assert_eq!(fused.outputs[0], expected, "a={a} b={b} c={c}");
            assert_eq!(lowered.outputs[0], expected, "a={a} b={b} c={c}");
        }
    }

    #[test]
    fn butterfly_expansion_counts() {
        // A butterfly is one modular multiplication, one addition, one subtraction.
        let hl = build(&KernelSpec::new(KernelOp::Butterfly, 128));
        let expanded = expand_modular_ops(&hl.kernel);
        let counts = cost::static_counts(&expanded);
        assert_eq!(counts.get("mulwide"), 2); // a*b and r1*mu
        assert_eq!(counts.get("mullow"), 1); // r2*q
        assert_eq!(counts.get("shr"), 2);
        assert_eq!(counts.get("select"), 3);
    }
}
