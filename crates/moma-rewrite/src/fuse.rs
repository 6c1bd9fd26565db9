//! Dataflow-graph fusion: collapse producer→consumer element-wise chains into
//! single statements with loop-level accumulation.
//!
//! The compiled executor pays for every intermediate value twice — once to write
//! the register, once to feed the next modular reduction (a `u128` division in
//! the bytecode loop). This pass removes both costs for the chains the RNS layer
//! actually generates:
//!
//! 1. **mul→add** — a [`Op::MulModBarrett`] whose single use is the addend of an
//!    [`Op::AddMod`] under the same modulus becomes one [`Op::MulAddMod`].
//! 2. **MAC chains** — a run of constant-modulus [`Op::MulAddMod`] statements
//!    linked through their single-use accumulator operands (the shape of each
//!    target row inside `BaseConvPlan::fused_kernel_ir`) becomes one
//!    [`Op::MacReduceMod`] accumulation loop: the whole Σᵢ aᵢ·bᵢ runs in a
//!    128-bit register and is reduced *once*, division-free.
//! 3. **lone muls** — any remaining constant-modulus [`Op::MulModBarrett`]
//!    becomes a single-pair accumulation, trading the executor's `u128 %` for
//!    the Barrett sequence.
//!
//! Fusion is conservative: it runs only on SSA kernels (every variable written
//! exactly once — true of everything the builders and the lowering pipeline
//! produce), and a chain is rewritten only when the 128-bit accumulator provably
//! cannot overflow for the operands' declared widths, the same static bound the
//! validator re-checks. When the bound cannot be shown, the chain is left
//! unfused — correctness never depends on this pass firing.
//!
//! Statements made dead by fusion (the producers whose only consumer was
//! rewritten) are left in place for [`crate::passes::eliminate_dead_code`],
//! which runs alongside this pass in [`crate::passes::optimize`].

use moma_ir::{Kernel, Op, Operand, Stmt, Ty, VarId};
use std::collections::{HashMap, HashSet};

/// Applies one round of fusion. Returns the new kernel and whether anything
/// changed.
pub fn fuse(kernel: &Kernel) -> (Kernel, bool) {
    if !is_ssa(kernel) {
        return (kernel.clone(), false);
    }
    let mut body = kernel.body.clone();
    let a = fuse_mul_into_add(kernel, &mut body);
    let b = fuse_mac_chains(kernel, &mut body);
    let c = fuse_lone_mulmods(kernel, &mut body);
    if !(a || b || c) {
        return (kernel.clone(), false);
    }
    let mut out = kernel.clone();
    out.body = body;
    (out, true)
}

/// True when every variable is written at most once and no parameter is ever
/// rewritten — the precondition under which "defined before the consumer" implies
/// "still holds that value at the consumer".
fn is_ssa(kernel: &Kernel) -> bool {
    let mut written = vec![false; kernel.vars.len()];
    for p in &kernel.params {
        written[p.0] = true;
    }
    for stmt in &kernel.body {
        for d in &stmt.dsts {
            if written[d.0] {
                return false;
            }
            written[d.0] = true;
        }
    }
    true
}

/// Number of operand occurrences of each variable in `body`.
fn use_counts(kernel: &Kernel, body: &[Stmt]) -> Vec<u32> {
    let mut counts = vec![0u32; kernel.vars.len()];
    for stmt in body {
        for o in stmt.op.operands() {
            if let Some(v) = o.as_var() {
                counts[v.0] += 1;
            }
        }
    }
    counts
}

/// Rule 1: `t = (a·b) mod q; d = (t + y) mod q` with `t` used only here becomes
/// `d = (a·b + y) mod q`, eliminating the intermediate (the producer is left for
/// dead-code elimination).
fn fuse_mul_into_add(kernel: &Kernel, body: &mut [Stmt]) -> bool {
    let uses = use_counts(kernel, body);
    let outputs: HashSet<VarId> = kernel.outputs.iter().copied().collect();
    let mut def: HashMap<VarId, usize> = HashMap::new();
    let mut changed = false;
    for j in 0..body.len() {
        if let Op::AddMod { a, b, q } = body[j].op {
            for (t, other) in [(a, b), (b, a)] {
                let Operand::Var(v) = t else { continue };
                if uses[v.0] != 1 || outputs.contains(&v) {
                    continue;
                }
                let Some(&i) = def.get(&v) else { continue };
                let Op::MulModBarrett {
                    a: ma,
                    b: mb,
                    q: mq,
                    mu,
                    mbits,
                } = body[i].op
                else {
                    continue;
                };
                if mq != q {
                    continue;
                }
                body[j].op = Op::MulAddMod {
                    a: ma,
                    b: mb,
                    c: other,
                    q,
                    mu,
                    mbits,
                };
                changed = true;
                break;
            }
        }
        for d in &body[j].dsts {
            def.insert(*d, j);
        }
    }
    changed
}

/// A run of constant-modulus multiply-accumulates linked through single-use
/// accumulator operands.
struct Chain {
    q: u64,
    pairs: Vec<(Operand, Operand)>,
    last: usize,
}

/// Rule 2: a chain `t₁ = (a₁·b₁ + seed) mod q; t₂ = (a₂·b₂ + t₁) mod q; …`
/// becomes one accumulation loop `d = (Σᵢ aᵢ·bᵢ [+ seed·1]) mod q` at the final
/// statement's position. A zero seed is dropped; any other seed folds in as the
/// extra pair `(seed, 1)`.
fn fuse_mac_chains(kernel: &Kernel, body: &mut [Stmt]) -> bool {
    let uses = use_counts(kernel, body);
    let outputs: HashSet<VarId> = kernel.outputs.iter().copied().collect();
    let mut chains: HashMap<VarId, Chain> = HashMap::new();
    let mut consumed: HashSet<VarId> = HashSet::new();
    for (i, stmt) in body.iter().enumerate() {
        if let Op::MulAddMod {
            a,
            b,
            c,
            q: Operand::Const(qv),
            ..
        } = stmt.op
        {
            let extends = match c {
                Operand::Var(v) if uses[v.0] == 1 && !outputs.contains(&v) => {
                    chains.get(&v).filter(|chain| chain.q == qv).map(|_| v)
                }
                _ => None,
            };
            let pairs = match extends {
                Some(v) => {
                    consumed.insert(v);
                    let mut pairs = chains[&v].pairs.clone();
                    pairs.push((a, b));
                    pairs
                }
                None if c.is_const(0) => vec![(a, b)],
                None => vec![(c, Operand::Const(1)), (a, b)],
            };
            chains.insert(
                stmt.dsts[0],
                Chain {
                    q: qv,
                    pairs,
                    last: i,
                },
            );
        }
    }
    let mut changed = false;
    for (dst, chain) in chains {
        if consumed.contains(&dst) {
            continue;
        }
        if let Some(op) = macreduce_op(kernel, chain.q, &chain.pairs, dst) {
            body[chain.last].op = op;
            changed = true;
        }
    }
    changed
}

/// Rule 3: any remaining constant-modulus multiplication becomes a single-pair
/// accumulation (always within the 128-bit bound for word operands).
fn fuse_lone_mulmods(kernel: &Kernel, body: &mut [Stmt]) -> bool {
    let mut changed = false;
    for stmt in body.iter_mut() {
        if let Op::MulModBarrett {
            a,
            b,
            q: Operand::Const(qv),
            ..
        } = stmt.op
        {
            if let Some(op) = macreduce_op(kernel, qv, &[(a, b)], stmt.dsts[0]) {
                stmt.op = op;
                changed = true;
            }
        }
    }
    changed
}

/// Builds a validated [`Op::MacReduceMod`] for `pairs` under `q`, or `None` when
/// the modulus is outside the single-word Barrett domain, the destination cannot
/// hold a residue, or the accumulator bound cannot be shown statically (the same
/// checks the validator enforces — fusion must never produce an invalid kernel).
fn macreduce_op(kernel: &Kernel, q: u64, pairs: &[(Operand, Operand)], dst: VarId) -> Option<Op> {
    if q < 2 {
        return None;
    }
    let mbits = 64 - q.leading_zeros();
    if mbits > 60 {
        return None;
    }
    match kernel.ty(dst) {
        Ty::UInt(dw) if dw >= mbits => {}
        _ => return None,
    }
    let bound = |o: &Operand| -> Option<u128> {
        match o {
            Operand::Const(v) => Some(*v as u128),
            Operand::Var(v) => match kernel.ty(*v) {
                Ty::UInt(w) if w < 128 => Some((1u128 << w) - 1),
                _ => None,
            },
        }
    };
    let mut worst: u128 = 0;
    for (a, b) in pairs {
        worst = worst.checked_add(bound(a)?.checked_mul(bound(b)?)?)?;
    }
    let q128 = q as u128;
    Some(Op::MacReduceMod {
        pairs: pairs.to_vec(),
        q,
        mu: ((1u128 << (2 * mbits + 3)) / q128) as u64,
        mbits,
        radix: ((1u128 << 64) % q128) as u64,
        recip: ((1u128 << 64) / q128) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_ir::{interp, validate::validate, KernelBuilder};

    fn barrett_operands(q: u64) -> (Operand, u32) {
        let mbits = 64 - q.leading_zeros();
        let mu = ((1u128 << (2 * mbits + 3)) / q as u128) as u64;
        (Operand::Const(mu), mbits)
    }

    /// One base-conversion target row: out = Σᵢ xᵢ·cᵢ mod q over a zero seed.
    fn mac_chain_kernel(q: u64, terms: u64) -> Kernel {
        let (mu, mbits) = barrett_operands(q);
        let mut kb = KernelBuilder::new("chain");
        let xs: Vec<VarId> = (0..terms)
            .map(|i| kb.param(format!("x{i}"), Ty::UInt(56)))
            .collect();
        let out = kb.output("out", Ty::UInt(56));
        let mut acc = Operand::Const(0);
        for (i, x) in xs.iter().enumerate() {
            let dst = if i + 1 == xs.len() {
                out
            } else {
                kb.local(format!("acc{i}"), Ty::UInt(56))
            };
            kb.push(
                vec![dst],
                Op::MulAddMod {
                    a: (*x).into(),
                    b: Operand::Const(1000 + i as u64),
                    c: acc,
                    q: Operand::Const(q),
                    mu,
                    mbits,
                },
            );
            acc = dst.into();
        }
        kb.build()
    }

    #[test]
    fn mac_chain_collapses_to_one_accumulation_loop() {
        let q = (1u64 << 52) - 47;
        let k = mac_chain_kernel(q, 6);
        let (fused, changed) = fuse(&k);
        assert!(changed);
        validate(&fused).unwrap();
        let loops: Vec<&Stmt> = fused
            .body
            .iter()
            .filter(|s| matches!(s.op, Op::MacReduceMod { .. }))
            .collect();
        assert_eq!(loops.len(), 1);
        if let Op::MacReduceMod { pairs, .. } = &loops[0].op {
            assert_eq!(pairs.len(), 6);
        }
        // Bit-identical to the unfused chain.
        let inputs: Vec<u64> = (0..6).map(|i| (1u64 << 52) - 1 - i).collect();
        assert_eq!(
            interp::run(&crate::passes::eliminate_dead_code(&fused).0, &inputs)
                .unwrap()
                .outputs,
            interp::run(&k, &inputs).unwrap().outputs
        );
    }

    #[test]
    fn mul_then_add_becomes_mac_then_accumulation() {
        let q = (1u64 << 31) - 1;
        let (mu, mbits) = barrett_operands(q);
        let mut kb = KernelBuilder::new("axpy_like");
        let s = kb.param("s", Ty::UInt(35));
        let x = kb.param("x", Ty::UInt(35));
        let y = kb.param("y", Ty::UInt(35));
        let t = kb.local("t", Ty::UInt(35));
        let out = kb.output("out", Ty::UInt(35));
        kb.push(
            vec![t],
            Op::MulModBarrett {
                a: s.into(),
                b: x.into(),
                q: Operand::Const(q),
                mu,
                mbits,
            },
        );
        kb.push(
            vec![out],
            Op::AddMod {
                a: t.into(),
                b: y.into(),
                q: Operand::Const(q),
            },
        );
        let k = kb.build();
        let (fused, changed) = fuse(&k);
        assert!(changed);
        // mul+add collapsed to a MulAddMod, then into an accumulation loop with
        // the addend folded as (y, 1).
        let last = &fused.body.last().unwrap().op;
        let Op::MacReduceMod { pairs, .. } = last else {
            panic!("expected an accumulation loop, got {last:?}");
        };
        assert_eq!(pairs.len(), 2);
        validate(&crate::passes::eliminate_dead_code(&fused).0).unwrap();
        for inputs in [[0u64, 0, 0], [q - 1, q - 1, q - 1], [12345, 6789, 424242]] {
            assert_eq!(
                interp::run(&crate::passes::eliminate_dead_code(&fused).0, &inputs)
                    .unwrap()
                    .outputs,
                interp::run(&k, &inputs).unwrap().outputs
            );
        }
    }

    #[test]
    fn overflow_risk_blocks_fusion() {
        // Three 64-bit×64-bit products cannot be bounded in a u128 accumulator,
        // so the chain must stay unfused rather than risk wrapping.
        let q = (1u64 << 52) - 47;
        let (mu, mbits) = barrett_operands(q);
        let mut kb = KernelBuilder::new("wide_chain");
        let xs: Vec<VarId> = (0..3)
            .map(|i| kb.param(format!("x{i}"), Ty::UInt(64)))
            .collect();
        let ys: Vec<VarId> = (0..3)
            .map(|i| kb.param(format!("y{i}"), Ty::UInt(64)))
            .collect();
        let out = kb.output("out", Ty::UInt(64));
        let mut acc = Operand::Const(0);
        for i in 0..3 {
            let dst = if i == 2 {
                out
            } else {
                kb.local(format!("acc{i}"), Ty::UInt(64))
            };
            kb.push(
                vec![dst],
                Op::MulAddMod {
                    a: xs[i].into(),
                    b: ys[i].into(),
                    c: acc,
                    q: Operand::Const(q),
                    mu,
                    mbits,
                },
            );
            acc = dst.into();
        }
        let k = kb.build();
        let (fused, changed) = fuse(&k);
        assert!(!changed);
        assert_eq!(fused.body.len(), k.body.len());
    }

    #[test]
    fn non_constant_modulus_is_left_alone() {
        let mut kb = KernelBuilder::new("var_q");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let q = kb.param("q", Ty::UInt(64));
        let mu = kb.param("mu", Ty::UInt(64));
        let out = kb.output("out", Ty::UInt(64));
        kb.push(
            vec![out],
            Op::MulModBarrett {
                a: a.into(),
                b: b.into(),
                q: q.into(),
                mu: mu.into(),
                mbits: 52,
            },
        );
        let k = kb.build();
        let (_, changed) = fuse(&k);
        assert!(!changed);
    }
}
