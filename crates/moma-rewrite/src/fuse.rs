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
//! 4. **dead terms** — a pair with a constant factor `c ≡ 0 (mod q)` is
//!    dropped from every accumulation the stage builds or meets; a sum that
//!    loses every pair becomes a [`Op::Copy`] of the constant 0. A base
//!    conversion whose target modulus is also a source modulus has exactly
//!    one such row entry that is not zero, `(M/m_s) mod m_s`.
//! 5. **scaled sums** — a pair `(p, c)` with constant `c` whose producer is
//!    `p = (Σᵢ aᵢ·kᵢ) mod q` — an accumulation under the same `q` with every
//!    `kᵢ` constant, used only here and not an output — becomes the pairs
//!    `(aᵢ, kᵢ·c mod q)`; the producer is left for dead-code elimination.
//!
//! 6. **composed constant products** — a one-pair accumulation `(v, c)` with
//!    constant `c` whose producer is the one-pair accumulation
//!    `v = (x·a) mod q` under the same `q`, with constant `a`, becomes
//!    `(x, a·c mod q)`. The producer is left for its other readers, so the
//!    rule never adds a statement and fires however many uses the producer
//!    has: in a base extension onto a basis that shares moduli with the
//!    source, each shared target row is `x̃_r·(M/m_r) mod m_r` over the
//!    pseudo-residue `x̃_r = x_r·(M/m_r)^{-1} mod m_r`, which also feeds the
//!    rows of the new moduli; the rule makes that row `x_r·1`.
//!
//! Rules 4 to 6 are exact modular algebra on constants: the sum they leave
//! is congruent to the old one term for term, and the one reduction at the
//! end makes the results equal.
//!
//! Fusion is conservative: it runs only on SSA kernels (every variable written
//! exactly once — true of everything the builders and the lowering pipeline
//! produce), and a chain is rewritten only when the 128-bit accumulator provably
//! cannot overflow for the operands' declared widths, the same static bound the
//! validator re-checks. When the bound cannot be shown, the chain is left
//! unfused — correctness never depends on this pass firing.
//!
//! Statements made dead by fusion (the producers whose only consumer was
//! rewritten) are left in place for dead-code elimination, which runs
//! alongside this pass in [`crate::passes::optimize`].

use moma_ir::{Kernel, Op, Operand, Stmt, Ty, Var, VarId};

/// Applies one round of fusion to `kernel` in place. Returns whether anything
/// changed.
pub(crate) fn fuse(kernel: &mut Kernel) -> bool {
    // Every rule rewrites a modular operation; word-level kernels have none.
    let modular = |s: &Stmt| s.op.is_high_level() || matches!(s.op, Op::MacReduceMod { .. });
    if !kernel.body.iter().any(modular) || !is_ssa(kernel) {
        return false;
    }
    let mut is_output = vec![false; kernel.vars.len()];
    for v in &kernel.outputs {
        is_output[v.0] = true;
    }
    let Kernel { vars, body, .. } = kernel;
    let scope = Scope { vars, is_output };
    let a = fuse_mul_into_add(&scope, body);
    let b = fuse_mac_chains(&scope, body);
    let c = fuse_lone_mulmods(&scope, body);
    let d = fold_constant_sums(&scope, body);
    let e = compose_constant_products(&scope, body);
    a || b || c || d || e
}

/// What the rules read of the kernel whose body they rewrite.
struct Scope<'a> {
    vars: &'a [Var],
    is_output: Vec<bool>,
}

impl Scope<'_> {
    fn ty(&self, v: VarId) -> Ty {
        self.vars[v.0].ty
    }

    /// True when `v` has exactly one use in the body and is not an output:
    /// the only shape a rule may fold into its consumer.
    fn single_use_local(&self, uses: &[u32], v: VarId) -> bool {
        uses[v.0] == 1 && !self.is_output[v.0]
    }
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
fn use_counts(scope: &Scope, body: &[Stmt]) -> Vec<u32> {
    let mut counts = vec![0u32; scope.vars.len()];
    for stmt in body {
        stmt.op.for_each_operand(|o| {
            if let Some(v) = o.as_var() {
                counts[v.0] += 1;
            }
        });
    }
    counts
}

/// Rule 1: `t = (a·b) mod q; d = (t + y) mod q` with `t` used only here becomes
/// `d = (a·b + y) mod q`, eliminating the intermediate (the producer is left for
/// dead-code elimination).
fn fuse_mul_into_add(scope: &Scope, body: &mut [Stmt]) -> bool {
    let uses = use_counts(scope, body);
    let mut def: Vec<Option<usize>> = vec![None; scope.vars.len()];
    let mut changed = false;
    for j in 0..body.len() {
        if let Op::AddMod { a, b, q } = body[j].op {
            for (t, other) in [(a, b), (b, a)] {
                let Operand::Var(v) = t else { continue };
                if !scope.single_use_local(&uses, v) {
                    continue;
                }
                let Some(i) = def[v.0] else { continue };
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
            def[d.0] = Some(j);
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
/// statement's position. The seed folds in as the extra pair `(seed, 1)`, which
/// rule 4 drops when the seed is a constant `≡ 0 (mod q)`.
fn fuse_mac_chains(scope: &Scope, body: &mut [Stmt]) -> bool {
    let uses = use_counts(scope, body);
    // The chain ending at each variable; a chain is taken out when a longer
    // one extends it, so what is left at the end are the maximal chains.
    let mut chains: Vec<Option<Chain>> = (0..scope.vars.len()).map(|_| None).collect();
    for (i, stmt) in body.iter().enumerate() {
        if let Op::MulAddMod {
            a,
            b,
            c,
            q: Operand::Const(qv),
            ..
        } = stmt.op
        {
            let extended = match c {
                Operand::Var(v)
                    if scope.single_use_local(&uses, v)
                        && chains[v.0].as_ref().is_some_and(|chain| chain.q == qv) =>
                {
                    chains[v.0].take()
                }
                _ => None,
            };
            let pairs = match extended {
                Some(mut chain) => {
                    chain.pairs.push((a, b));
                    chain.pairs
                }
                None => vec![(c, Operand::Const(1)), (a, b)],
            };
            chains[stmt.dsts[0].0] = Some(Chain {
                q: qv,
                pairs,
                last: i,
            });
        }
    }
    let mut changed = false;
    for (dst, chain) in chains.into_iter().enumerate() {
        let Some(chain) = chain else { continue };
        if let Some(op) = macreduce_op(scope, chain.q, &chain.pairs, VarId(dst)) {
            body[chain.last].op = op;
            changed = true;
        }
    }
    changed
}

/// Rule 3: any remaining constant-modulus multiplication becomes a single-pair
/// accumulation (always within the 128-bit bound for word operands).
fn fuse_lone_mulmods(scope: &Scope, body: &mut [Stmt]) -> bool {
    let mut changed = false;
    for stmt in body.iter_mut() {
        if let Op::MulModBarrett {
            a,
            b,
            q: Operand::Const(qv),
            ..
        } = stmt.op
        {
            if let Some(op) = macreduce_op(scope, qv, &[(a, b)], stmt.dsts[0]) {
                stmt.op = op;
                changed = true;
            }
        }
    }
    changed
}

/// Rules 4 and 5 on the accumulations already built: each one absorbs the
/// constant-coefficient sums that feed it through a constant factor (rule 5)
/// and sheds the terms a constant zeroes (rule 4). An accumulation whose
/// absorbed form fails the accumulator bound keeps its producers.
fn fold_constant_sums(scope: &Scope, body: &mut [Stmt]) -> bool {
    let uses = use_counts(scope, body);
    let mut def: Vec<Option<usize>> = vec![None; scope.vars.len()];
    let mut changed = false;
    for j in 0..body.len() {
        if let Op::MacReduceMod { pairs, q, .. } = &body[j].op {
            let q = *q;
            let mut folded = Vec::with_capacity(pairs.len());
            let mut absorbed = false;
            for &pair in pairs {
                let terms = constant_factor(pair).and_then(|(p, c)| {
                    let Operand::Var(v) = p else { return None };
                    if !scope.single_use_local(&uses, v) {
                        return None;
                    }
                    scaled_terms(&body[def[v.0]?].op, q, c)
                });
                match terms {
                    Some(terms) => {
                        folded.extend(terms);
                        absorbed = true;
                    }
                    None => folded.push(pair),
                }
            }
            let dst = body[j].dsts[0];
            let mut rebuilt = None;
            if absorbed {
                rebuilt = macreduce_op(scope, q, &folded, dst);
            }
            if rebuilt.is_none() && pairs.iter().any(|&pair| is_dead(pair, q)) {
                rebuilt = macreduce_op(scope, q, pairs, dst);
            }
            if let Some(op) = rebuilt {
                body[j].op = op;
                changed = true;
            }
        }
        for d in &body[j].dsts {
            def[d.0] = Some(j);
        }
    }
    changed
}

/// Rule 6: a one-pair accumulation `(v, c) mod q` whose `v` is the one-pair
/// accumulation `(x, a) mod q` — constants `a` and `c`, one modulus — reads
/// `(x, a·c mod q)` instead. The producer keeps its other readers.
fn compose_constant_products(scope: &Scope, body: &mut [Stmt]) -> bool {
    let mut def: Vec<Option<usize>> = vec![None; scope.vars.len()];
    let mut changed = false;
    for j in 0..body.len() {
        if let Op::MacReduceMod { pairs, q } = &body[j].op {
            let q = *q;
            let composed = match pairs[..] {
                [pair] => constant_factor(pair).and_then(|(v, c)| {
                    let (x, a) = one_constant_product(scope, &body[def[v.as_var()?.0]?], q)?;
                    Some((x, (a as u128 * c as u128 % q as u128) as u64))
                }),
                _ => None,
            };
            if let Some((x, ac)) = composed {
                let dst = body[j].dsts[0];
                if let Some(op) = macreduce_op(scope, q, &[(x, Operand::Const(ac))], dst) {
                    body[j].op = op;
                    changed = true;
                }
            }
        }
        for d in &body[j].dsts {
            def[d.0] = Some(j);
        }
    }
    changed
}

/// `(x, a)` when `producer` is the one-pair accumulation `(x·a) mod q` with a
/// constant factor `a`, into a destination wide enough to hold every residue.
fn one_constant_product(scope: &Scope, producer: &Stmt, q: u64) -> Option<(Operand, u64)> {
    let Op::MacReduceMod { pairs, q: pq } = &producer.op else {
        return None;
    };
    let holds_residues =
        matches!(scope.ty(producer.dsts[0]), Ty::UInt(w) if w >= 64 - q.leading_zeros());
    match pairs[..] {
        [pair] if *pq == q && holds_residues => constant_factor(pair),
        _ => None,
    }
}

/// Splits a product term into its other operand and its constant factor, if
/// it has one (the right-hand constant when both are).
fn constant_factor((a, b): (Operand, Operand)) -> Option<(Operand, u64)> {
    match (a, b) {
        (other, Operand::Const(c)) | (Operand::Const(c), other) => Some((other, c)),
        _ => None,
    }
}

/// The terms `(aᵢ, kᵢ·c mod q)` of `c · producer` when `producer` is an
/// accumulation under `q` whose every term has a constant factor `kᵢ`.
fn scaled_terms(producer: &Op, q: u64, c: u64) -> Option<Vec<(Operand, Operand)>> {
    let Op::MacReduceMod { pairs, q: pq, .. } = producer else {
        return None;
    };
    if *pq != q {
        return None;
    }
    pairs
        .iter()
        .map(|&pair| {
            let (a, k) = constant_factor(pair)?;
            let kc = (k as u128 * c as u128 % q as u128) as u64;
            Some((a, Operand::Const(kc)))
        })
        .collect()
}

/// True when a product term is `≡ 0 (mod q)` by a constant factor alone.
fn is_dead((a, b): (Operand, Operand), q: u64) -> bool {
    [a, b]
        .iter()
        .any(|o| matches!(o, Operand::Const(c) if c % q == 0))
}

/// Builds a validated [`Op::MacReduceMod`] for `pairs` under `q`, or `None` when
/// the modulus is outside the single-word Barrett domain, the destination cannot
/// hold a residue, or the accumulator bound cannot be shown statically (the same
/// checks the validator enforces — fusion must never produce an invalid kernel).
/// Dead terms (rule 4) are dropped first; when none is left the result is a
/// copy of the constant 0.
fn macreduce_op(scope: &Scope, q: u64, pairs: &[(Operand, Operand)], dst: VarId) -> Option<Op> {
    if q < 2 {
        return None;
    }
    let mbits = 64 - q.leading_zeros();
    if mbits > 60 {
        return None;
    }
    match scope.ty(dst) {
        Ty::UInt(dw) if dw >= mbits => {}
        _ => return None,
    }
    let pairs: Vec<(Operand, Operand)> = pairs
        .iter()
        .copied()
        .filter(|&pair| !is_dead(pair, q))
        .collect();
    if pairs.is_empty() {
        return Some(Op::Copy {
            src: Operand::Const(0),
        });
    }
    let bound = |o: &Operand| -> Option<u128> {
        match o {
            Operand::Const(v) => Some(*v as u128),
            Operand::Var(v) => match scope.ty(*v) {
                Ty::UInt(w) if w < 128 => Some((1u128 << w) - 1),
                _ => None,
            },
        }
    };
    let mut worst: u128 = 0;
    for (a, b) in &pairs {
        worst = worst.checked_add(bound(a)?.checked_mul(bound(b)?)?)?;
    }
    Some(Op::MacReduceMod { pairs, q })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::passes::{eliminate_dead_code, optimize};
    use moma_ir::{interp, validate::validate, CompiledKernel, KernelBuilder};
    use moma_mp::single::SingleBarrett;

    fn barrett_operands(q: u64) -> (Operand, u32) {
        let barrett = SingleBarrett::new(q);
        (Operand::Const(barrett.mu), barrett.mbits)
    }

    /// One base-conversion target row: out = Σᵢ xᵢ·cᵢ mod q over a zero seed.
    fn mac_chain_kernel(q: u64, terms: u64) -> Kernel {
        let coeffs: Vec<u64> = (0..terms).map(|i| 1000 + i).collect();
        chain_kernel(q, &coeffs, Operand::Const(0))
    }

    /// out = (Σᵢ xᵢ·coeffsᵢ + seed) mod q as a `MulAddMod` chain over 56-bit
    /// parameters.
    fn chain_kernel(q: u64, coeffs: &[u64], seed: Operand) -> Kernel {
        let mut kb = KernelBuilder::new("chain");
        let xs: Vec<VarId> = (0..coeffs.len())
            .map(|i| kb.param(format!("x{i}"), Ty::UInt(56)))
            .collect();
        let out = kb.output("out", Ty::UInt(56));
        let mut acc = seed;
        for (i, (x, &c)) in xs.iter().zip(coeffs).enumerate() {
            let dst = if i + 1 == xs.len() {
                out
            } else {
                kb.local(format!("acc{i}"), Ty::UInt(56))
            };
            mac(&mut kb, dst, (*x).into(), Operand::Const(c), acc, q);
            acc = dst.into();
        }
        kb.build()
    }

    /// Pushes `dst = (a·b + c) mod q`.
    fn mac(kb: &mut KernelBuilder, dst: VarId, a: Operand, b: Operand, c: Operand, q: u64) {
        let (mu, mbits) = barrett_operands(q);
        kb.push(
            vec![dst],
            Op::MulAddMod {
                a,
                b,
                c,
                q: Operand::Const(q),
                mu,
                mbits,
            },
        );
    }

    /// Optimizes `k`, validates the result, and holds it to `k` — interpreted
    /// and compiled — on all-zero, all-ones and mixed inputs (each masked to
    /// its parameter's width).
    fn optimized_matches_unfused(k: &Kernel) -> Kernel {
        let fused = optimize(k.clone());
        validate(&fused).unwrap();
        let compiled = CompiledKernel::compile(&fused).unwrap();
        let masked = |f: &dyn Fn(usize) -> u64| -> Vec<u64> {
            k.params
                .iter()
                .enumerate()
                .map(|(i, p)| f(i) & (u64::MAX >> (64 - k.ty(*p).bits())))
                .collect()
        };
        for inputs in [
            masked(&|_| 0),
            masked(&|_| u64::MAX),
            masked(&|i| 0x9e37_79b9_7f4a_7c15u64.rotate_left(7 * i as u32)),
        ] {
            let oracle = interp::run(k, &inputs).unwrap().outputs;
            let via_interp = interp::run(&fused, &inputs).unwrap().outputs;
            assert_eq!(via_interp, oracle, "inputs {inputs:x?}");
            let batch = compiled.run_batch(&inputs).unwrap();
            assert_eq!(batch.element(0), &oracle[..], "inputs {inputs:x?}");
        }
        fused
    }

    /// The product terms of the accumulation that writes `dst`.
    fn pairs_of(kernel: &Kernel, dst: VarId) -> Vec<(Operand, Operand)> {
        let stmt = kernel.body.iter().find(|s| s.dsts[..] == [dst]).unwrap();
        match &stmt.op {
            Op::MacReduceMod { pairs, .. } => pairs.clone(),
            other => panic!("expected an accumulation, got {other:?}"),
        }
    }

    #[test]
    fn mac_chain_collapses_to_one_accumulation_loop() {
        let q = (1u64 << 52) - 47;
        let k = mac_chain_kernel(q, 6);
        let mut fused = k.clone();
        assert!(fuse(&mut fused));
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
        eliminate_dead_code(&mut fused);
        let inputs: Vec<u64> = (0..6).map(|i| (1u64 << 52) - 1 - i).collect();
        assert_eq!(
            interp::run(&fused, &inputs).unwrap().outputs,
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
        let mut fused = k.clone();
        assert!(fuse(&mut fused));
        // mul+add collapsed to a MulAddMod, then into an accumulation loop with
        // the addend folded as (y, 1).
        let last = &fused.body.last().unwrap().op;
        let Op::MacReduceMod { pairs, .. } = last else {
            panic!("expected an accumulation loop, got {last:?}");
        };
        assert_eq!(pairs.len(), 2);
        eliminate_dead_code(&mut fused);
        validate(&fused).unwrap();
        for inputs in [[0u64, 0, 0], [q - 1, q - 1, q - 1], [12345, 6789, 424242]] {
            assert_eq!(
                interp::run(&fused, &inputs).unwrap().outputs,
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
        let mut fused = k.clone();
        assert!(!fuse(&mut fused));
        assert_eq!(fused, k);
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
        let mut fused = k.clone();
        assert!(!fuse(&mut fused));
        assert_eq!(fused, k);
    }

    #[test]
    fn dead_terms_are_dropped_wherever_they_sit() {
        let q = (1u64 << 52) - 47;
        let seed = Operand::Const(0);
        for (coeffs, seed, live) in [
            (vec![0, 3, 5, 7], seed, 3),        // head
            (vec![3, 0, 5, 7], seed, 3),        // middle
            (vec![3, 5, 7, 0], seed, 3),        // tail
            (vec![3, 5], Operand::Const(q), 2), // a seed ≡ 0 (mod q)
            (vec![3, q, 5, 2 * q], seed, 2),    // nonzero literals ≡ 0 (mod q)
        ] {
            let k = chain_kernel(q, &coeffs, seed);
            let fused = optimized_matches_unfused(&k);
            let pairs = pairs_of(&fused, k.outputs[0]);
            assert_eq!(pairs.len(), live, "{coeffs:?}");
            assert!(pairs.iter().all(|&pair| !is_dead(pair, q)), "{pairs:?}");
        }
    }

    #[test]
    fn an_all_zero_chain_becomes_a_copy_of_zero() {
        let q = (1u64 << 52) - 47;
        let k = chain_kernel(q, &[0, q, 0], Operand::Const(2 * q));
        let fused = optimized_matches_unfused(&k);
        assert_eq!(fused.body.len(), 1);
        assert_eq!(
            fused.body[0].op,
            Op::Copy {
                src: Operand::Const(0)
            }
        );
    }

    #[test]
    fn a_propagated_zero_is_dropped_from_a_built_accumulation() {
        // `t` sums to a copy of 0 once its terms die; copy propagation then
        // hands the consumer's built accumulation the term `(0, 5)`.
        let q = (1u64 << 52) - 47;
        let mut kb = KernelBuilder::new("zero_feeds_sum");
        let x = kb.param("x", Ty::UInt(56));
        let t = kb.local("t", Ty::UInt(56));
        let a0 = kb.local("a0", Ty::UInt(56));
        let out = kb.output("out", Ty::UInt(56));
        mac(
            &mut kb,
            t,
            x.into(),
            Operand::Const(q),
            Operand::Const(0),
            q,
        );
        mac(
            &mut kb,
            a0,
            x.into(),
            Operand::Const(3),
            Operand::Const(0),
            q,
        );
        mac(&mut kb, out, t.into(), Operand::Const(5), a0.into(), q);
        let k = kb.build();
        let fused = optimized_matches_unfused(&k);
        assert_eq!(
            pairs_of(&fused, out),
            [(Operand::Var(x), Operand::Const(3))]
        );
    }

    /// A two-term producer `t = (x₀·k₀ + x₁·k₁) mod qp` and a consumer
    /// `out = (t·c + x₂·5) mod q`, with `t` also an output or feeding a second
    /// output as asked. 60-bit parameters over a 40-bit modulus.
    fn scaled_sum_kernel(
        qp: u64,
        q: u64,
        ks: [Operand; 2],
        c: u64,
        t_is_output: bool,
        second_use: bool,
    ) -> (Kernel, VarId, VarId) {
        let mut kb = KernelBuilder::new("scaled_sum");
        let xs: Vec<VarId> = (0..3)
            .map(|i| kb.param(format!("x{i}"), Ty::UInt(60)))
            .collect();
        let t0 = kb.local("t0", Ty::UInt(60));
        let t = if t_is_output {
            kb.output("t", Ty::UInt(60))
        } else {
            kb.local("t", Ty::UInt(60))
        };
        let a0 = kb.local("a0", Ty::UInt(60));
        let out = kb.output("out", Ty::UInt(60));
        mac(&mut kb, t0, xs[0].into(), ks[0], Operand::Const(0), qp);
        mac(&mut kb, t, xs[1].into(), ks[1], t0.into(), qp);
        mac(
            &mut kb,
            a0,
            t.into(),
            Operand::Const(c),
            Operand::Const(0),
            q,
        );
        mac(&mut kb, out, xs[2].into(), Operand::Const(5), a0.into(), q);
        if second_use {
            let again = kb.output("again", Ty::UInt(60));
            mac(
                &mut kb,
                again,
                t.into(),
                Operand::Const(c),
                Operand::Const(0),
                q,
            );
        }
        (kb.build(), t, out)
    }

    #[test]
    fn a_constant_scaled_sum_absorbs_its_producer() {
        let q = (1u64 << 40) - 87;
        let ks = [Operand::Const(q - 2), Operand::Const(11)];
        let (k, t, out) = scaled_sum_kernel(q, q, ks, q - 3, false, false);
        let fused = optimized_matches_unfused(&k);
        // (q−2)(q−3) ≡ 6 and 11·(q−3) ≡ −33 (mod q).
        let pairs = pairs_of(&fused, out);
        let consts: Vec<Operand> = pairs.iter().map(|p| p.1).collect();
        assert_eq!(
            consts,
            [Operand::Const(6), Operand::Const(q - 33), Operand::Const(5)]
        );
        assert!(
            fused.body.iter().all(|s| s.dsts[..] != [t]),
            "producer is dead"
        );
    }

    #[test]
    fn scaled_sums_fold_only_single_use_same_modulus_constant_producers() {
        let q = (1u64 << 40) - 87;
        let consts = [Operand::Const(7), Operand::Const(11)];
        let cases = [
            ("multi-use producer", q, consts, true, false),
            ("output producer", q, consts, false, true),
            (
                "different modulus",
                (1u64 << 40) - 195,
                consts,
                false,
                false,
            ),
        ];
        for (what, qp, ks, second_use, t_is_output) in cases {
            let (k, t, out) = scaled_sum_kernel(qp, q, ks, 3, t_is_output, second_use);
            let fused = optimized_matches_unfused(&k);
            assert!(
                pairs_of(&fused, out).contains(&(Operand::Var(t), Operand::Const(3))),
                "{what}"
            );
        }
        // A var × var term has no constant to scale.
        let mut kb = KernelBuilder::new("var_var_producer");
        let xs: Vec<VarId> = (0..3)
            .map(|i| kb.param(format!("x{i}"), Ty::UInt(60)))
            .collect();
        let t = kb.local("t", Ty::UInt(60));
        let out = kb.output("out", Ty::UInt(60));
        mac(&mut kb, t, xs[0].into(), xs[1].into(), xs[2].into(), q);
        mac(
            &mut kb,
            out,
            t.into(),
            Operand::Const(3),
            Operand::Const(0),
            q,
        );
        let k = kb.build();
        let fused = optimized_matches_unfused(&k);
        assert_eq!(
            pairs_of(&fused, out),
            [(Operand::Var(t), Operand::Const(3))]
        );
    }

    #[test]
    fn a_scaled_sum_past_the_accumulator_bound_stays_unfolded() {
        // Twenty 64-bit terms with small constants fit the accumulator; scaled
        // by q−1 they become twenty 64 × 60-bit terms (~20·2^124), which do not.
        let q = (1u64 << 60) - 93;
        let mut kb = KernelBuilder::new("wide_producer");
        let xs: Vec<VarId> = (0..20)
            .map(|i| kb.param(format!("x{i}"), Ty::UInt(64)))
            .collect();
        let t = kb.local("t", Ty::UInt(64));
        let out = kb.output("out", Ty::UInt(64));
        let mut acc = Operand::Const(0);
        for (i, x) in xs.iter().enumerate() {
            let dst = if i + 1 == xs.len() {
                t
            } else {
                kb.local(format!("acc{i}"), Ty::UInt(64))
            };
            mac(
                &mut kb,
                dst,
                (*x).into(),
                Operand::Const(i as u64 + 1),
                acc,
                q,
            );
            acc = dst.into();
        }
        mac(
            &mut kb,
            out,
            t.into(),
            Operand::Const(q - 1),
            Operand::Const(0),
            q,
        );
        let k = kb.build();
        let fused = optimized_matches_unfused(&k);
        assert_eq!(pairs_of(&fused, t).len(), 20);
        assert_eq!(
            pairs_of(&fused, out),
            [(Operand::Var(t), Operand::Const(q - 1))]
        );
    }

    /// The base-extension shape: a pseudo-residue `t = Σ (x·a [+ y·3]) mod q`,
    /// a shared-modulus row `out = (t·c) mod qs`, and a new-modulus row
    /// `wide = (t·7 + y·5) mod qn` that keeps `t` alive. 64-bit parameters.
    fn composed_kernel(q: u64, qs: u64, c: Operand, two_pairs: bool) -> (Kernel, [VarId; 3]) {
        let qn = (1u64 << 40) - 87;
        let mut kb = KernelBuilder::new("composed");
        let x = kb.param("x", Ty::UInt(64));
        let y = kb.param("y", Ty::UInt(64));
        let t = kb.local("t", Ty::UInt(64));
        let out = kb.output("out", Ty::UInt(64));
        let wide = kb.output("wide", Ty::UInt(64));
        let mut pairs = vec![(x.into(), Operand::Const(q - 2))];
        if two_pairs {
            pairs.push((y.into(), Operand::Const(3)));
        }
        kb.push(vec![t], Op::MacReduceMod { pairs, q });
        let row = vec![(t.into(), c)];
        kb.push(vec![out], Op::MacReduceMod { pairs: row, q: qs });
        let row = vec![(t.into(), Operand::Const(7)), (y.into(), Operand::Const(5))];
        kb.push(vec![wide], Op::MacReduceMod { pairs: row, q: qn });
        (kb.build(), [x, t, out])
    }

    #[test]
    fn constant_products_compose_and_keep_a_shared_producer() {
        let q = (1u64 << 52) - 47;
        // (q − 2)·(q − 3) ≡ 6, and (q − 2)·inv(q − 2) ≡ 1: the base-extension
        // row becomes a copy of its input.
        let inverse = moma_mp::single::SingleBarrett::new(q).pow_mod(q - 2, q - 2);
        for (c, composed) in [(q - 3, 6), (inverse, 1)] {
            let (k, [x, t, out]) = composed_kernel(q, q, Operand::Const(c), false);
            let fused = optimized_matches_unfused(&k);
            assert_eq!(
                pairs_of(&fused, out),
                [(Operand::Var(x), Operand::Const(composed))]
            );
            assert_eq!(
                pairs_of(&fused, t).len(),
                1,
                "the producer keeps its other reader"
            );
            assert_eq!(fused.body.len(), k.body.len());
        }
    }

    #[test]
    fn constant_products_compose_only_one_pair_under_one_modulus_by_constants() {
        let q = (1u64 << 52) - 47;
        let cases = [
            (
                "different modulus",
                (1u64 << 52) - 95,
                Operand::Const(5),
                false,
            ),
            // `VarId(1)` is the parameter `y`.
            ("variable factor", q, Operand::Var(VarId(1)), false),
            ("two-pair producer", q, Operand::Const(5), true),
        ];
        for (what, qs, c, two_pairs) in cases {
            let (k, [_, t, out]) = composed_kernel(q, qs, c, two_pairs);
            let fused = optimized_matches_unfused(&k);
            assert_eq!(pairs_of(&fused, out), [(Operand::Var(t), c)], "{what}");
            assert!(fused.body.len() <= k.body.len(), "{what}");
        }
    }
}
