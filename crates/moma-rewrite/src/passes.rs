//! Optimization passes over lowered kernels.
//!
//! Three passes run after lowering (all optional, see [`crate::LoweringConfig`]):
//!
//! * **zero pruning** — the §4 optimization for non-power-of-two input widths:
//!   parameters whose words are known to be zero at run time are replaced by the
//!   constant 0, so the later passes can delete the operations that only shuffle zeros
//!   around;
//! * **simplification** — constant folding of the operation forms that zero pruning
//!   exposes (`x + 0`, `x · 0`, selects with equal arms, …) plus copy propagation;
//! * **dead-code elimination** — removes statements whose results are never used.
//!
//! [`optimize`] runs simplification, fusion and dead-code elimination to a fixed
//! point. Every pass rewrites the kernel it is handed in place and reports whether it
//! changed anything; statements are moved, never copied.

use moma_ir::{Kernel, Op, Operand, Stmt};

/// Replaces every use of a fully-known-zero variable with the constant zero.
///
/// `zero_top_bits[v]` is the number of known-zero high bits of variable `v` (none past
/// the end of the slice); a variable is pruned when that number equals its full width
/// (which is how padded parameters end up after the recursive splitting of a 384-bit
/// value stored in a 512-bit container).
pub(crate) fn prune_known_zeros(kernel: &mut Kernel, zero_top_bits: &[u32]) {
    let zero: Vec<bool> = kernel
        .vars
        .iter()
        .enumerate()
        .map(|(i, var)| zero_top_bits.get(i).is_some_and(|&zt| var.ty.bits() <= zt))
        .collect();
    for stmt in &mut kernel.body {
        stmt.op.for_each_operand_mut(|o| {
            if matches!(*o, Operand::Var(v) if zero[v.0]) {
                *o = Operand::Const(0);
            }
        });
    }
}

/// Applies one round of constant folding and copy propagation. Returns whether
/// anything changed.
pub(crate) fn simplify(kernel: &mut Kernel) -> bool {
    let mut changed = false;
    let n = kernel.vars.len();
    let mut is_output = vec![false; n];
    for v in &kernel.outputs {
        is_output[v.0] = true;
    }
    // Copy propagation: `env[d]` is the operand a read of `d` is replaced by, with
    // the write count of that operand's variable when the copy was recorded. Kernels
    // are not strictly SSA after repeated passes, so an entry is stale once `d` or
    // the variable it copies has been written again.
    let mut env: Vec<Option<(Operand, u32)>> = vec![None; n];
    let mut writes: Vec<u32> = vec![0; n];

    let body = std::mem::take(&mut kernel.body);
    let mut new_body = Vec::with_capacity(body.len());
    for mut stmt in body {
        // Rewrite operands through the environment first.
        let mut rewritten = false;
        stmt.op.for_each_operand_mut(|o| {
            if let Operand::Var(v) = *o {
                if let Some((repl, written)) = env[v.0] {
                    let current = repl.as_var().map_or(true, |r| writes[r.0] == written);
                    if current && repl != *o {
                        *o = repl;
                        rewritten = true;
                    }
                }
            }
        });
        for d in &stmt.dsts {
            env[d.0] = None;
            writes[d.0] += 1;
        }
        match fold(&mut stmt, kernel) {
            Some(Folded::Copies(first, second)) => {
                changed = true;
                let second = second.map(|src| Stmt {
                    dsts: [stmt.dsts[1]].into(),
                    op: Op::Copy { src },
                    comment: None,
                });
                stmt.dsts.truncate(1);
                stmt.op = Op::Copy { src: first };
                stmt.comment = None;
                for s in std::iter::once(stmt).chain(second) {
                    register_copy(&s, &is_output, &writes, &mut env);
                    new_body.push(s);
                }
            }
            folded => {
                changed |= rewritten || folded.is_some();
                register_copy(&stmt, &is_output, &writes, &mut env);
                new_body.push(stmt);
            }
        }
    }
    kernel.body = new_body;
    changed
}

/// Records `dst -> src` for copies of locals so later uses can be propagated.
fn register_copy(
    stmt: &Stmt,
    is_output: &[bool],
    writes: &[u32],
    env: &mut [Option<(Operand, u32)>],
) {
    if let Op::Copy { src } = stmt.op {
        let dst = stmt.dsts[0];
        if !is_output[dst.0] {
            env[dst.0] = Some((src, src.as_var().map_or(0, |v| writes[v.0])));
        }
    }
}

/// What [`fold`] made of a statement.
enum Folded {
    /// The statement becomes copies into its destinations: the first operand into
    /// the first destination, the second (if any) into the second.
    Copies(Operand, Option<Operand>),
    /// The operation was narrowed in place.
    Trimmed,
}

/// Attempts to fold a single statement into simpler ones.
fn fold(stmt: &mut Stmt, kernel: &Kernel) -> Option<Folded> {
    let copies = |first, second| Some(Folded::Copies(first, second));
    let copy = |src| copies(src, None);
    match &mut stmt.op {
        Op::AddWide { a, b, carry_in } => {
            let no_carry = carry_in.is_none() || carry_in.map(|c| c.is_const(0)).unwrap_or(false);
            if !no_carry {
                return None;
            }
            if a.is_const(0) || b.is_const(0) {
                let other = if a.is_const(0) { *b } else { *a };
                return copies(Operand::Const(0), Some(other));
            }
            None
        }
        Op::Sub { a, b, borrow_in } => {
            let no_borrow =
                borrow_in.is_none() || borrow_in.map(|c| c.is_const(0)).unwrap_or(false);
            if no_borrow && b.is_const(0) {
                return copy(*a);
            }
            None
        }
        Op::MulWide { a, b } => {
            if a.is_const(0) || b.is_const(0) {
                return copies(Operand::Const(0), Some(Operand::Const(0)));
            }
            if a.is_const(1) || b.is_const(1) {
                let other = if a.is_const(1) { *b } else { *a };
                return copies(Operand::Const(0), Some(other));
            }
            None
        }
        Op::MulLow { a, b } => {
            if a.is_const(0) || b.is_const(0) {
                return copy(Operand::Const(0));
            }
            if b.is_const(1) {
                return copy(*a);
            }
            if a.is_const(1) {
                return copy(*b);
            }
            None
        }
        Op::Lt { a, b } => {
            if b.is_const(0) {
                // Nothing is less than zero.
                return copy(Operand::Const(0));
            }
            if let (Operand::Const(x), Operand::Const(y)) = (a, b) {
                return copy(Operand::Const((x < y) as u64));
            }
            None
        }
        Op::Eq { a, b } => {
            if let (Operand::Const(x), Operand::Const(y)) = (a, b) {
                return copy(Operand::Const((x == y) as u64));
            }
            None
        }
        Op::BoolAnd { a, b } => {
            if a.is_const(0) || b.is_const(0) {
                return copy(Operand::Const(0));
            }
            if a.is_const(1) {
                return copy(*b);
            }
            if b.is_const(1) {
                return copy(*a);
            }
            None
        }
        Op::BoolOr { a, b } => {
            if a.is_const(1) || b.is_const(1) {
                return copy(Operand::Const(1));
            }
            if a.is_const(0) {
                return copy(*b);
            }
            if b.is_const(0) {
                return copy(*a);
            }
            None
        }
        Op::Select {
            cond,
            if_true,
            if_false,
        } => {
            if cond.is_const(1) {
                return copy(*if_true);
            }
            if cond.is_const(0) {
                return copy(*if_false);
            }
            if if_true == if_false {
                return copy(*if_true);
            }
            None
        }
        Op::ShrMulti { words, shift } => {
            // Drop known-zero leading (most significant) words as long as the shift
            // still addresses the remaining width.
            let word_bits = words
                .iter()
                .find_map(|o| o.as_var().map(|v| kernel.ty(v).bits()))
                .unwrap_or(64);
            let mut drop = 0;
            while words.len() - drop > stmt.dsts.len()
                && words[drop].is_const(0)
                && *shift < word_bits * ((words.len() - drop) as u32 - 1)
            {
                drop += 1;
            }
            if drop > 0 {
                words.drain(..drop);
                return Some(Folded::Trimmed);
            }
            None
        }
        _ => None,
    }
}

/// Removes statements none of whose destinations are ever used (transitively).
/// Returns whether any was removed.
pub(crate) fn eliminate_dead_code(kernel: &mut Kernel) -> bool {
    let mut live = vec![false; kernel.vars.len()];
    for v in &kernel.outputs {
        live[v.0] = true;
    }
    let mut keep = vec![false; kernel.body.len()];
    // Walk backwards: a statement is live if any destination is live; its operands then
    // become live.
    for (i, stmt) in kernel.body.iter().enumerate().rev() {
        if stmt.dsts.iter().any(|d| live[d.0]) {
            keep[i] = true;
            stmt.op.for_each_operand(|o| {
                if let Operand::Var(v) = o {
                    live[v.0] = true;
                }
            });
            // A destination written here no longer needs earlier definitions unless it
            // is also read by this same statement; for simplicity (and correctness) we
            // keep it live, which only ever retains more code than strictly necessary.
        }
    }
    if keep.iter().all(|k| *k) {
        return false;
    }
    let mut keep = keep.into_iter();
    kernel.body.retain(|_| keep.next() == Some(true));
    true
}

/// Runs simplification, fusion, and dead-code elimination to a fixed point
/// (bounded at 16 rounds, far beyond what any generated kernel needs). A second
/// call on the result is a no-op: each round's passes report whether they
/// changed anything, and the loop exits on the first quiet round.
pub fn optimize(mut kernel: Kernel) -> Kernel {
    for _ in 0..16 {
        let simplified = simplify(&mut kernel);
        let fused = crate::fuse::fuse(&mut kernel);
        let cleaned = eliminate_dead_code(&mut kernel);
        if !simplified && !fused && !cleaned {
            break;
        }
    }
    kernel
}

/// Removes unused parameters (those never read by any statement). Used after pruning so
/// that fully-zero padded words disappear from the generated signature, exactly as the
/// paper's generated code for 381/753-bit inputs omits the zero words.
pub(crate) fn drop_unused_params(kernel: &mut Kernel) {
    let mut used = vec![false; kernel.vars.len()];
    for stmt in &kernel.body {
        stmt.op.for_each_operand(|o| {
            if let Operand::Var(v) = o {
                used[v.0] = true;
            }
        });
    }
    kernel.params.retain(|p| used[p.0]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_ir::{interp, KernelBuilder};
    use moma_ir::{Ty, VarId};

    /// Builds a kernel computing (a*b) where b's "high half" is a known-zero parameter,
    /// mimicking a padded input.
    fn padded_mul_kernel() -> (Kernel, Vec<u32>) {
        let mut kb = KernelBuilder::new("padded");
        let a = kb.param("a", Ty::UInt(64));
        let b_hi = kb.param("b_hi", Ty::UInt(64));
        let b_lo = kb.param("b_lo", Ty::UInt(64));
        let hi1 = kb.local("hi1", Ty::UInt(64));
        let lo1 = kb.local("lo1", Ty::UInt(64));
        let hi2 = kb.local("hi2", Ty::UInt(64));
        let lo2 = kb.local("lo2", Ty::UInt(64));
        let f = kb.local("f", Ty::Flag);
        let out = kb.output("out", Ty::UInt(64));
        kb.push(
            vec![hi1, lo1],
            Op::MulWide {
                a: a.into(),
                b: b_lo.into(),
            },
        );
        kb.push(
            vec![hi2, lo2],
            Op::MulWide {
                a: a.into(),
                b: b_hi.into(),
            },
        );
        kb.push(
            vec![f, out],
            Op::AddWide {
                a: lo1.into(),
                b: lo2.into(),
                carry_in: None,
            },
        );
        let kernel = kb.build();
        let mut zt = vec![0; kernel.vars.len()];
        zt[b_hi.0] = 64; // the entire high word is known zero
        (kernel, zt)
    }

    #[test]
    fn pruning_plus_optimization_removes_zero_work() {
        let (kernel, zt) = padded_mul_kernel();
        let before = moma_ir::cost::static_counts(&kernel);
        let mut pruned = kernel.clone();
        prune_known_zeros(&mut pruned, &zt);
        let optimized = optimize(pruned);
        let after = moma_ir::cost::static_counts(&optimized);
        assert_eq!(before.get("mulwide"), 2);
        assert_eq!(
            after.get("mulwide"),
            1,
            "multiplication by the zero word must vanish"
        );
        assert!(after.total() < before.total());
        // Semantics preserved: out = low(a*b_lo) + 0.
        let r_before = interp::run(&kernel, &[7, 0, 1 << 40]).unwrap();
        let r_after = interp::run(&optimized, &[7, 0, 1 << 40]).unwrap();
        assert_eq!(r_before.outputs, r_after.outputs);
    }

    #[test]
    fn select_with_equal_arms_folds() {
        let mut kb = KernelBuilder::new("sel");
        let a = kb.param("a", Ty::UInt(64));
        let c = kb.param("c", Ty::Flag);
        let o = kb.output("o", Ty::UInt(64));
        kb.push(
            vec![o],
            Op::Select {
                cond: c.into(),
                if_true: a.into(),
                if_false: a.into(),
            },
        );
        let mut s = kb.build();
        assert!(simplify(&mut s));
        assert!(matches!(s.body[0].op, Op::Copy { .. }));
    }

    /// A copy of a variable that is written again later must not be replaced by
    /// that variable: `o = t` stays `t`'s old value, not the new `x`.
    #[test]
    fn copy_propagation_stops_at_a_rewritten_source() {
        let mut kb = KernelBuilder::new("rewritten");
        let p = kb.param("p", Ty::UInt(64));
        let q = kb.param("q", Ty::UInt(64));
        let c = kb.local("c", Ty::Flag);
        let x = kb.local("x", Ty::UInt(64));
        let t = kb.local("t", Ty::UInt(64));
        let o = kb.output("o", Ty::UInt(64));
        let add = |a: VarId, b: VarId| Op::AddWide {
            a: a.into(),
            b: b.into(),
            carry_in: None,
        };
        kb.push(vec![c, x], add(p, q));
        kb.push(vec![t], Op::Copy { src: x.into() });
        kb.push(vec![c, x], add(q, q));
        kb.push(vec![o], Op::Copy { src: t.into() });
        let kernel = kb.build();
        let mut simplified = kernel.clone();
        simplify(&mut simplified);
        let inputs = [5, 7];
        assert_eq!(
            interp::run(&simplified, &inputs).unwrap().outputs,
            interp::run(&kernel, &inputs).unwrap().outputs
        );
        assert_eq!(interp::run(&kernel, &inputs).unwrap().outputs, vec![12]);
    }

    #[test]
    fn dce_removes_unreachable_statements() {
        let mut kb = KernelBuilder::new("dce");
        let a = kb.param("a", Ty::UInt(64));
        let unused = kb.local("unused", Ty::UInt(64));
        let also_unused = kb.local("also_unused", Ty::UInt(64));
        let o = kb.output("o", Ty::UInt(64));
        kb.push(
            vec![unused],
            Op::MulLow {
                a: a.into(),
                b: a.into(),
            },
        );
        kb.push(
            vec![also_unused],
            Op::MulLow {
                a: unused.into(),
                b: a.into(),
            },
        );
        kb.push(vec![o], Op::Copy { src: a.into() });
        let mut out = kb.build();
        assert!(eliminate_dead_code(&mut out));
        assert_eq!(out.body.len(), 1);
    }

    #[test]
    fn boolean_folds() {
        let mut kb = KernelBuilder::new("bools");
        let f = kb.param("f", Ty::Flag);
        let o1 = kb.output("o1", Ty::Flag);
        let o2 = kb.output("o2", Ty::Flag);
        let o3 = kb.output("o3", Ty::Flag);
        kb.push(
            vec![o1],
            Op::BoolAnd {
                a: f.into(),
                b: Operand::Const(0),
            },
        );
        kb.push(
            vec![o2],
            Op::BoolOr {
                a: f.into(),
                b: Operand::Const(1),
            },
        );
        kb.push(
            vec![o3],
            Op::BoolOr {
                a: f.into(),
                b: Operand::Const(0),
            },
        );
        let mut s = kb.build();
        simplify(&mut s);
        assert!(matches!(
            s.body[0].op,
            Op::Copy {
                src: Operand::Const(0)
            }
        ));
        assert!(matches!(
            s.body[1].op,
            Op::Copy {
                src: Operand::Const(1)
            }
        ));
        assert!(matches!(
            s.body[2].op,
            Op::Copy {
                src: Operand::Var(_)
            }
        ));
    }

    #[test]
    fn optimize_is_idempotent_including_fusion() {
        // One fixpoint run must leave nothing for a second run to do — on a plain
        // word-level kernel and on a fusable constant-modulus MAC chain alike.
        let (mut kernel, zt) = padded_mul_kernel();
        prune_known_zeros(&mut kernel, &zt);
        let once = optimize(kernel);
        assert_eq!(optimize(once.clone()), once);

        let q = (1u64 << 40) - 87;
        let mbits = 40u32;
        let mu = ((1u128 << (2 * mbits as u64 + 3)) / q as u128) as u64;
        let mut kb = KernelBuilder::new("mac_fix");
        let x = kb.param("x", Ty::UInt(44));
        let y = kb.param("y", Ty::UInt(44));
        let acc = kb.local("acc", Ty::UInt(44));
        let out = kb.output("out", Ty::UInt(44));
        kb.push(
            vec![acc],
            Op::MulAddMod {
                a: x.into(),
                b: Operand::Const(3),
                c: Operand::Const(0),
                q: Operand::Const(q),
                mu: Operand::Const(mu),
                mbits,
            },
        );
        kb.push(
            vec![out],
            Op::MulAddMod {
                a: y.into(),
                b: Operand::Const(5),
                c: acc.into(),
                q: Operand::Const(q),
                mu: Operand::Const(mu),
                mbits,
            },
        );
        let chain = kb.build();
        let once = optimize(chain.clone());
        assert_eq!(
            moma_ir::cost::static_counts(&once).get("reducewide"),
            1,
            "the chain must fuse into a single accumulation loop"
        );
        assert_eq!(optimize(once.clone()), once);
        // Semantics preserved through the fused fixpoint.
        let inputs = [(1u64 << 44) - 1, 987654321];
        assert_eq!(
            interp::run(&once, &inputs).unwrap().outputs,
            interp::run(&chain, &inputs).unwrap().outputs
        );
    }

    #[test]
    fn unused_params_are_dropped() {
        let (mut kernel, zt) = padded_mul_kernel();
        prune_known_zeros(&mut kernel, &zt);
        let mut trimmed = optimize(kernel);
        drop_unused_params(&mut trimmed);
        assert_eq!(trimmed.params.len(), 2); // b_hi disappeared
        assert!(trimmed
            .params
            .iter()
            .all(|p| trimmed.var(*p).name != "b_hi"));
    }
}
