//! RNS base extension and approximate scaled rounding on the planned engine.
//!
//! Element-wise residue arithmetic ([`crate::plan`]) is only half of the GRNS
//! workload the paper's Figure 2 models: FHE pipelines chain two more RNS
//! primitives *between* the NTT and BLAS stages, and both are sum-of-products
//! reductions rather than independent per-residue maps:
//!
//! * **Fast base extension** (`FastBConv` in the BEHZ literature): re-express a
//!   value known modulo basis `B = {m_1, …, m_k}` (product `M`) in a second
//!   basis `B' = {m'_1, …, m'_l}` without reconstructing the positional value.
//!   With pseudo-residues `x̃_r = x_r · (M/m_r)^{-1} mod m_r`, each target
//!   residue is `y_s = Σ_r x̃_r · |M/m_r|_{m'_s} mod m'_s`. The conversion is
//!   *approximate*: the sum equals `x + α·M` for an overshoot `0 ≤ α < k`,
//!   which downstream FHE operations absorb by design.
//! * **Approximate scaled rounding** (the CKKS/BGV rescale): divide by the last
//!   basis modulus `m_k` with rounding, dropping that modulus from the basis —
//!   `y = (x − [x]_{m_k})/m_k + ([x]_{m_k} > m_k/2)`, computed residue-locally
//!   as `y_r = (x_r − c)·m_k^{-1} mod m_r` plus the rounding increment.
//!
//! [`BaseConvPlan`] precomputes, **once per basis pair**, the punctured-product
//! inverses `(M/m_r)^{-1} mod m_r` and the cross-basis table
//! `|M/m_r|_{m'_s}`; [`RescalePlan`] precomputes the dropped modulus' inverses
//! and the output-basis plan; [`RescaleExtendPlan`] folds the two. Each
//! operation then has exactly one implementation:
//!
//! * [`RnsPlan::base_convert`] runs the *generated* all-rows kernel of
//!   [`BaseConvPlan::fused_kernel_ir`] in **one** launch: an element's raw
//!   source residues go in, every target residue comes out, and the
//!   pseudo-residues live in registers. The `moma-rewrite` fusion pass
//!   collapses the kernel's [`moma_ir::Op::MulAddMod`] chains into
//!   division-free [`moma_ir::Op::MacReduceMod`] accumulation loops. It is
//!   the only implementation because a hand-written sweep needs a second
//!   launch and a pseudo-residue plane written and re-read for the same
//!   arithmetic (246 vs 290–362 ns/element where both were measured).
//! * [`RnsPlan::scale_and_round`] is a residue-local map: one virtual GPU
//!   thread per output row through [`moma_gpu::launch_chunks`], like the
//!   element-wise operations.
//! * [`RnsPlan::rescale_then_extend`] chains the two (the BEHZ `FastBConvSK`
//!   shape) as a folded two-round sweep: the dropped modulus' inverse is
//!   folded *into* the punctured-product inverses at plan-build time, so the
//!   conversion's pseudo-residues come straight off the unrescaled data
//!   ([`moma_mp::single::smac`] accumulation, one
//!   [`SingleBarrett::reduce_wide`] per element) and no intermediate rescaled
//!   matrix is written. Running the two steps separately is strictly more
//!   launches and memory traffic; a caller who wants that composes
//!   [`RnsPlan::scale_and_round`] and [`RnsPlan::base_convert`].
//! * [`RnsPlan::mul_rescale_then_extend`] puts the element-wise product in
//!   front of that chain and runs the whole thing as the generated kernel of
//!   [`RescaleExtendPlan::mul_fused_kernel_ir`], one launch, every
//!   intermediate in registers.
//!
//! Every entry point takes the [`BufferPool`] its planes come from (a
//! stand-alone caller passes `&BufferPool::new()`), and the generated ones take
//! the [`CompiledKernel`] to run: plans carry tables and IR builders, the caller
//! owns compilation.
//!
//! Every operation is cross-checked bit-for-bit against the `BigUint` oracles
//! [`RnsContext::base_convert`] and [`RnsContext::scale_and_round`].

use crate::plan::{mul_mod, RnsMatrix, RnsPlan};
use crate::RnsContext;
use moma_gpu::launch::{launch_chunks, launch_compiled_rows, LaunchStats};
use moma_gpu::pool::BufferPool;
use moma_ir::compiled::{CompiledKernel, Plane};
use moma_ir::{Kernel, KernelBuilder, Op, Operand, Ty};
use moma_mp::single::{smac, SingleBarrett};

/// Precomputed tables for fast base extension from one basis into another.
///
/// Built once per `(source, target)` basis pair; every subsequent
/// [`RnsPlan::base_convert`] is pure machine-word arithmetic.
///
/// # Example
///
/// ```
/// use moma_bignum::BigUint;
/// use moma_gpu::BufferPool;
/// use moma_ir::CompiledKernel;
/// use moma_rns::{BaseConvPlan, RnsContext, RnsMatrix, RnsPlan};
///
/// let src = RnsPlan::new(&RnsContext::with_moduli_count(4));
/// let dst = RnsPlan::new(&RnsContext::with_moduli(&[2147481173, 2147482223]));
/// let bc = BaseConvPlan::new(&src, &dst);
/// let kernel = CompiledKernel::compile(&bc.fused_kernel_ir()).unwrap();
/// let m = RnsMatrix::from_biguints(&src, &[BigUint::from(12345u64)]);
/// let (converted, stats) = src.base_convert(&bc, &m, &kernel, &BufferPool::new());
/// assert_eq!(converted.row_count(), 2);
/// assert_eq!(stats.launches, 1);
/// ```
#[derive(Debug, Clone)]
pub struct BaseConvPlan {
    /// Source basis moduli, for validating that a conversion is run from the
    /// plan it was built for.
    src_moduli: Vec<u64>,
    /// `(M/m_r)^{-1} mod m_r` per source modulus — the pseudo-residue factors.
    inv_punctured: Vec<u64>,
    /// Row-major cross-basis table: `cross[s·k + r] = |M/m_r|_{m'_s}`, laid out
    /// so each target row's accumulation streams its own contiguous slice.
    cross: Vec<u64>,
    /// The target plan (cloned so converted matrices can be used immediately).
    dst: RnsPlan,
}

impl BaseConvPlan {
    /// Builds the conversion tables for the `src → dst` basis pair.
    ///
    /// # Panics
    ///
    /// Panics when [`BaseConvPlan::try_new`] refuses the pair.
    pub fn new(src: &RnsPlan, dst: &RnsPlan) -> Self {
        Self::try_new(src, dst).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`BaseConvPlan::new`], returning an error instead of panicking when the
    /// widening sum-of-products could overflow its 128-bit accumulator — `k`
    /// terms of `(m_r − 1)·(m'_s − 1)` each — which needs ≥ 2^8 source moduli
    /// of 60 bits.
    pub fn try_new(src: &RnsPlan, dst: &RnsPlan) -> Result<Self, &'static str> {
        let k = src.moduli_count();
        let max_src = src.moduli().max().expect("basis is non-empty");
        let max_dst = dst.moduli().max().expect("basis is non-empty");
        let worst_term = (max_src - 1) as u128 * (max_dst - 1) as u128;
        if worst_term != 0 && k as u128 > u128::MAX / worst_term {
            return Err("basis pair too large for the widening accumulator");
        }
        // crt[r] = (M/m_r, (M/m_r)^{-1} mod m_r): both halves of the fast
        // conversion are already precomputed by the source plan.
        let inv_punctured: Vec<u64> = src.crt.iter().map(|(_, yi)| *yi).collect();
        let mut cross = Vec::with_capacity(dst.moduli_count() * k);
        for dst_ctx in &dst.ctxs {
            let m_big = moma_bignum::BigUint::from(dst_ctx.q);
            for (mi, _) in &src.crt {
                cross.push((mi % &m_big).to_u64().expect("residue fits a word"));
            }
        }
        Ok(BaseConvPlan {
            src_moduli: src.moduli().collect(),
            inv_punctured,
            cross,
            dst: dst.clone(),
        })
    }

    /// The target plan matrices produced by this conversion live over.
    pub fn dst_plan(&self) -> &RnsPlan {
        &self.dst
    }

    pub(crate) fn check_source(&self, src: &RnsPlan) {
        assert!(
            src.moduli().eq(self.src_moduli.iter().copied()),
            "conversion plan was built for a different source basis"
        );
    }

    /// Builds the IR of the **all-rows** conversion kernel: one generated
    /// program whose parameters are an element's raw source residues and whose
    /// outputs are every target residue at once — the pseudo-residue
    /// multiplications and all `l` cross-basis accumulations live in the same
    /// kernel, so the whole conversion is one launch and one read of the
    /// element.
    ///
    /// The kernel is generated naively — one [`Op::MulModBarrett`] per source
    /// modulus, then one [`Op::MulAddMod`] chain per target modulus — and
    /// handed to [`moma_rewrite::passes::optimize`], whose fusion stage
    /// collapses every multiplication and chain into [`Op::MacReduceMod`]
    /// accumulation loops; the compiled executor then runs the whole
    /// conversion division-free.
    pub fn fused_kernel_ir(&self) -> Kernel {
        moma_rewrite::passes::optimize(self.fused_kernel_ir_unfused())
    }

    /// The naive (pre-fusion) form of [`BaseConvPlan::fused_kernel_ir`] — the
    /// literal two-stage op sequence written as one program. Kept public as the
    /// interpreter oracle for fusion cross-checks.
    pub fn fused_kernel_ir_unfused(&self) -> Kernel {
        let k = self.src_moduli.len();
        let mut kb = KernelBuilder::new("rns_baseconv_fused");
        // Every residue parameter is declared below its source modulus.
        let params: Vec<_> = self
            .src_moduli
            .iter()
            .enumerate()
            .map(|(r, &m)| kb.param_below(format!("x{r}"), Ty::UInt(64), m - 1))
            .collect();
        let outs: Vec<_> = (0..self.dst.moduli_count())
            .map(|s| kb.output(format!("y{s}"), Ty::UInt(64)))
            .collect();
        let mut pseudo = Vec::with_capacity(k);
        for ((&x, &m), &inv) in params.iter().zip(&self.src_moduli).zip(&self.inv_punctured) {
            let ctx = SingleBarrett::new(m);
            let t = kb.fresh("ps", Ty::UInt(64));
            kb.push(
                vec![t],
                Op::MulModBarrett {
                    a: x.into(),
                    b: Operand::Const(inv),
                    q: Operand::Const(ctx.q),
                    mu: Operand::Const(ctx.mu),
                    mbits: ctx.mbits,
                },
            );
            pseudo.push(t);
        }
        for (s, (&out, ctx)) in outs.iter().zip(&self.dst.ctxs).enumerate() {
            let cross_row = &self.cross[s * k..(s + 1) * k];
            let mut acc = Operand::Const(0);
            let last = k - 1;
            for (r, (&t, &c)) in pseudo.iter().zip(cross_row).enumerate() {
                let dst = if r == last {
                    out
                } else {
                    kb.fresh("acc", Ty::UInt(64))
                };
                kb.push(
                    vec![dst],
                    Op::MulAddMod {
                        a: t.into(),
                        b: Operand::Const(c),
                        c: acc,
                        q: Operand::Const(ctx.q),
                        mu: Operand::Const(ctx.mu),
                        mbits: ctx.mbits,
                    },
                );
                acc = dst.into();
            }
        }
        kb.build()
    }
}

impl RnsPlan {
    /// Fast base extension: re-expresses every element of `a` (over this plan's
    /// basis `B`, product `M`) in the target basis of `bc`, entirely in
    /// machine-word arithmetic, in **one** launch of the generated all-rows
    /// kernel `compiled` (compiled by the caller from
    /// [`BaseConvPlan::fused_kernel_ir`]).
    ///
    /// Each element's raw source residues go in, every target residue comes
    /// out, and the pseudo-residues `x̃_r = x_r · (M/m_r)^{-1} mod m_r` live in
    /// registers; every multiplication and cross-basis accumulation executes
    /// as a division-free [`Op::MacReduceMod`] loop. The result represents
    /// `x + α·M` for an overshoot `0 ≤ α < k` — the approximate conversion FHE
    /// pipelines use, bit-for-bit equal to the [`RnsContext::base_convert`]
    /// oracle.
    ///
    /// The output plane comes from `pool`; `allocs` reports the pool-miss
    /// delta of the call.
    ///
    /// # Panics
    ///
    /// Panics if `bc` was built for a different source basis, `a` does not
    /// match this plan, or `compiled` does not take one parameter per source
    /// modulus and produce one output per target modulus.
    pub fn base_convert(
        &self,
        bc: &BaseConvPlan,
        a: &RnsMatrix,
        compiled: &CompiledKernel,
        pool: &BufferPool,
    ) -> (RnsMatrix, LaunchStats) {
        bc.check_source(self);
        self.check_shape(a);
        let cols = a.len();
        let rows = bc.dst.moduli_count();
        assert_eq!(
            (compiled.param_count(), compiled.output_count()),
            (self.moduli_count(), rows),
            "fused conversion kernel shape must match the basis pair"
        );
        RnsMatrix::filled_from(pool, rows, cols, |data| {
            launch_compiled_rows(compiled, data, cols, |r| Plane::Row(a.row(r)))
        })
    }

    /// Builds the rescale tables for dropping this basis' last modulus.
    ///
    /// # Panics
    ///
    /// Panics if the basis has fewer than two moduli.
    pub fn rescale_plan(&self) -> RescalePlan {
        RescalePlan::new(self)
    }

    /// Approximate scaled rounding (the CKKS/BGV rescale): divides every
    /// element by the last basis modulus `m_k` with rounding and returns the
    /// result over the shortened basis, one launcher thread per output residue
    /// row.
    ///
    /// Residue-locally, `y_r = (x_r − c)·m_k^{-1} mod m_r` with `c` the
    /// element's last residue, plus one when `c > m_k/2` — so the result is
    /// within one of `x/m_k`, bit-for-bit equal to the
    /// [`RnsContext::scale_and_round`] oracle.
    ///
    /// The output plane comes from `pool`; `allocs` reports the pool-miss
    /// delta of the call.
    ///
    /// # Panics
    ///
    /// Panics if `rp` was built for a different basis or `a` does not match
    /// this plan.
    pub fn scale_and_round(
        &self,
        rp: &RescalePlan,
        a: &RnsMatrix,
        pool: &BufferPool,
    ) -> (RnsMatrix, LaunchStats) {
        rp.check_source(self);
        self.check_shape(a);
        let cols = a.len();
        let rows = rp.out.moduli_count();
        let last = self.ctxs[rows].q;
        let half = last / 2;
        let c_row = a.row(rows);
        RnsMatrix::filled_from(pool, rows, cols, |data| {
            launch_chunks(data, cols, |r, out| {
                let ctx = &rp.out.ctxs[r];
                let narrow = rp.out.narrow[r];
                let inv = rp.inv_last[r];
                for ((o, &x), &c) in out.iter_mut().zip(a.row(r)).zip(c_row) {
                    // (x_r − c)·m_k^{-1}, then the rounding increment. The
                    // dropped residue c lives in [0, m_k), possibly above this
                    // row's modulus, so fold it first — with a hardware `%`.
                    // Timed on a ring ladder's eight rescales (n = 4096,
                    // k ≤ 9, alternating 50/30-bit; median over 11 rounds of
                    // the round's minimum / first quartile): `%` 1.39 / 1.70
                    // ms, `reduce_word(c)` 1.55 / 2.35 ms, `%` skipped on
                    // rows with m_k ≤ m_r 1.36 / 1.58 ms — the skip is inside
                    // the 1.20–1.71 ms spread of `%`'s own minima and
                    // `reduce_word` is behind, so the plain `%` stays.
                    let diff = ctx.sub_mod(x, c % ctx.q);
                    let y = mul_mod(ctx, narrow, diff, inv);
                    *o = if c > half { ctx.add_mod(y, 1) } else { y };
                }
            })
        })
    }

    /// Builds the fused rescale-and-extend tables for dropping this basis' last
    /// modulus and re-expressing the result in `dst`'s basis.
    ///
    /// # Panics
    ///
    /// Panics if the basis has fewer than two moduli, or under the
    /// [`BaseConvPlan::new`] accumulator-width conditions.
    pub fn rescale_extend_plan(&self, dst: &RnsPlan) -> RescaleExtendPlan {
        RescaleExtendPlan::new(self, dst)
    }

    /// Fused rescale-and-extend (the BEHZ `FastBConvSK` shape): divides every
    /// element by the last basis modulus `m_k` with rounding **and** re-expresses
    /// the quotient in the target basis, in one launch round per residue-row set —
    /// the pseudo-residues come straight off the source data, with no
    /// intermediate rescaled matrix ever written.
    ///
    /// Residue-locally, with `c` the element's last residue and
    /// `δ = (c > m_k/2)`: the rescaled value is `y_r = (x_r − c)·m_k^{-1} + δ`,
    /// and its pseudo-residue for the conversion is
    /// `ỹ_r = y_r·(M⁻/m_r)^{-1} = (x_r − c)·f_r + δ·(M⁻/m_r)^{-1} (mod m_r)`
    /// where `f_r = m_k^{-1}·(M⁻/m_r)^{-1} mod m_r` was folded at plan-build
    /// time. The target residues are then the cross-basis sums
    /// `Σ_r ỹ_r·|M⁻/m_r|_{m'_s}`, accumulated widening ([`smac`]) and reduced
    /// once per element ([`SingleBarrett::reduce_wide`]). The result is
    /// bit-for-bit the [`RnsPlan::scale_and_round`]-then-
    /// [`RnsPlan::base_convert`] chain (including the `x + αM⁻` overshoot).
    ///
    /// Both working planes (the pseudo-residues, recycled before returning,
    /// and the output) come from `pool`; `allocs` reports the pool-miss delta
    /// of the call.
    ///
    /// # Panics
    ///
    /// Panics if `p` was built for a different source basis or `a` does not
    /// match this plan.
    pub fn rescale_then_extend(
        &self,
        p: &RescaleExtendPlan,
        a: &RnsMatrix,
        pool: &BufferPool,
    ) -> (RnsMatrix, LaunchStats) {
        p.rescale.check_source(self);
        self.check_shape(a);
        let cols = a.len();
        let km1 = self.moduli_count() - 1;
        let last = self.ctxs[km1].q;
        let half = last / 2;
        let c_row = a.row(km1);
        RnsMatrix::filled_from(pool, p.bc.dst.moduli_count(), cols, |data| {
            // Round 1 — fused pseudo-residues, one thread per surviving source
            // row, reading the source data directly.
            let mut pseudo = pool.acquire(km1 * cols);
            let mut stats = launch_chunks(&mut pseudo, cols, |r, out| {
                let ctx = &self.ctxs[r];
                let narrow = self.narrow[r];
                let f = p.fused[r];
                let ip = p.bc.inv_punctured[r];
                for ((o, &x), &c) in out.iter_mut().zip(a.row(r)).zip(c_row) {
                    // The dropped residue c lives in [0, m_k), possibly above
                    // this row's modulus; fold it first (see scale_and_round).
                    let diff = ctx.sub_mod(x, c % ctx.q);
                    let t = mul_mod(ctx, narrow, diff, f);
                    *o = if c > half { ctx.add_mod(t, ip) } else { t };
                }
            });
            // Round 2 — the cross-basis accumulation, one thread per target row.
            stats.accumulate(launch_chunks(data, cols, |s, out| {
                let ctx = &p.bc.dst.ctxs[s];
                let cross_row = &p.bc.cross[s * km1..(s + 1) * km1];
                for (i, o) in out.iter_mut().enumerate() {
                    let mut acc = 0u128;
                    for (r, &c) in cross_row.iter().enumerate() {
                        acc = smac(acc, pseudo[r * cols + i], c);
                    }
                    *o = ctx.reduce_wide(acc);
                }
            }));
            pool.recycle(pseudo);
            stats
        })
    }

    /// The whole `mul→rescale→extend` chain — element-wise product, rounded
    /// division by the dropped modulus, re-expression in the target basis — in
    /// **one** launch of the generated chain kernel `compiled` (compiled by
    /// the caller from [`RescaleExtendPlan::mul_fused_kernel_ir`]), with every
    /// intermediate in registers. Bit-for-bit equal to [`RnsPlan::apply`] with
    /// [`moma_blas::BlasOp::VecMul`] followed by
    /// [`RnsPlan::rescale_then_extend`].
    ///
    /// The output plane comes from `pool`; `allocs` reports the pool-miss
    /// delta of the call.
    ///
    /// # Panics
    ///
    /// Panics if `p` was built for a different source basis, the matrices do
    /// not match this plan, or `compiled` does not take two parameters per
    /// source modulus and produce one output per target modulus.
    pub fn mul_rescale_then_extend(
        &self,
        p: &RescaleExtendPlan,
        a: &RnsMatrix,
        b: &RnsMatrix,
        compiled: &CompiledKernel,
        pool: &BufferPool,
    ) -> (RnsMatrix, LaunchStats) {
        p.rescale.check_source(self);
        self.check_shape(a);
        self.check_shape(b);
        assert_eq!(a.cols, b.cols, "matrix width mismatch");
        let rows = p.bc.dst.moduli_count();
        let cols = a.cols;
        assert_eq!(
            (compiled.param_count(), compiled.output_count()),
            (2 * self.moduli_count(), rows),
            "fused chain kernel shape must match the basis pair"
        );
        RnsMatrix::filled_from(pool, rows, cols, |data| {
            launch_compiled_rows(compiled, data, cols, |p| {
                Plane::Row(if p % 2 == 0 { a } else { b }.row(p / 2))
            })
        })
    }
}

/// Precomputed tables for one rescale step: dropping the last basis modulus
/// with approximate rounding.
///
/// Built once per basis; holds the output-basis [`RnsPlan`] (the source basis
/// without its last modulus) and the dropped modulus' inverse in every
/// remaining residue ring.
#[derive(Debug, Clone)]
pub struct RescalePlan {
    /// Source basis moduli, for validating the plan pairing.
    src_moduli: Vec<u64>,
    /// The output plan (source basis without the last modulus).
    out: RnsPlan,
    /// `m_k^{-1} mod m_r` per remaining modulus.
    inv_last: Vec<u64>,
}

impl RescalePlan {
    /// Builds the rescale tables for dropping `src`'s last modulus.
    ///
    /// # Panics
    ///
    /// Panics if `src` has fewer than two moduli.
    pub fn new(src: &RnsPlan) -> Self {
        Self::try_new(src).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`RescalePlan::new`], returning an error instead of panicking when
    /// `src` has fewer than two moduli.
    pub fn try_new(src: &RnsPlan) -> Result<Self, &'static str> {
        let moduli: Vec<u64> = src.moduli().collect();
        if moduli.len() < 2 {
            return Err("rescale needs at least two basis moduli");
        }
        let last = *moduli.last().expect("non-empty basis");
        // The source plan already validated its basis; skip re-running the
        // primality checks on the surviving moduli.
        let out = RnsPlan::new(&RnsContext::from_moduli(
            moduli[..moduli.len() - 1].to_vec(),
        ));
        let inv_last = out
            .ctxs
            .iter()
            .map(|ctx| ctx.inv_mod(last % ctx.q))
            .collect();
        Ok(RescalePlan {
            src_moduli: moduli,
            out,
            inv_last,
        })
    }

    /// The plan the rescaled matrices live over.
    pub fn output_plan(&self) -> &RnsPlan {
        &self.out
    }

    /// The dropped modulus' inverses, `m_k^{-1} mod m_r` per surviving modulus
    /// — what the ring's evaluation-domain rescale multiplies each survivor
    /// row by.
    pub fn inverse_table(&self) -> &[u64] {
        &self.inv_last
    }

    pub(crate) fn check_source(&self, src: &RnsPlan) {
        assert!(
            src.moduli().eq(self.src_moduli.iter().copied()),
            "rescale plan was built for a different source basis"
        );
    }
}

/// Precomputed tables for the fused rescale-and-extend chain: dropping the
/// source basis' last modulus with rounding and re-expressing the quotient in a
/// target basis, in one launch round per residue-row set.
///
/// Built once per `(source, target)` basis pair; contains the [`RescalePlan`]
/// and [`BaseConvPlan`] halves (whose tables the sweep reads) plus the fused
/// per-row factors `f_r = m_k^{-1}·(M⁻/m_r)^{-1} mod m_r` that let the
/// pseudo-residues of the conversion be computed straight from the unrescaled
/// data.
#[derive(Debug, Clone)]
pub struct RescaleExtendPlan {
    /// The rescale half (also carries the output plan of the dropped basis).
    rescale: RescalePlan,
    /// The conversion half, built over the rescaled (shortened) basis.
    bc: BaseConvPlan,
    /// `f_r = m_k^{-1}·(M⁻/m_r)^{-1} mod m_r` per surviving source modulus.
    fused: Vec<u64>,
}

impl RescaleExtendPlan {
    /// Builds the fused tables for `src` (whose last modulus is dropped) into
    /// `dst`.
    ///
    /// # Panics
    ///
    /// Panics when [`RescaleExtendPlan::try_new`] refuses the pair.
    pub fn new(src: &RnsPlan, dst: &RnsPlan) -> Self {
        Self::try_new(src, dst).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`RescaleExtendPlan::new`], returning an error instead of panicking
    /// under the [`RescalePlan::try_new`] and [`BaseConvPlan::try_new`]
    /// conditions.
    pub fn try_new(src: &RnsPlan, dst: &RnsPlan) -> Result<Self, &'static str> {
        let rescale = RescalePlan::try_new(src)?;
        let bc = BaseConvPlan::try_new(&rescale.out, dst)?;
        let fused = rescale
            .out
            .ctxs
            .iter()
            .zip(&rescale.inv_last)
            .zip(&bc.inv_punctured)
            .map(|((ctx, &inv_last), &ip)| ctx.mul_mod(inv_last, ip))
            .collect();
        Ok(RescaleExtendPlan { rescale, bc, fused })
    }

    /// Builds the IR of the **all-rows** `mul→rescale→extend` chain kernel: one
    /// generated program whose parameters are an element's residues in *both*
    /// operand matrices (over the full source basis, dropped modulus included)
    /// and whose outputs are every target residue of
    /// `round((a·b)/m_k)` re-expressed in the target basis — the element-wise
    /// product, the rounding decision, the fused pseudo-residues, and all
    /// cross-basis sums live in the same kernel, so **one** launch replaces the
    /// three of an element-wise multiply followed by
    /// [`RnsPlan::rescale_then_extend`].
    ///
    /// Generated naively — Barrett multiplications, a comparison/select pair
    /// for the rounding increment, and one [`Op::MulAddMod`] chain per target
    /// row — then handed to [`moma_rewrite::passes::optimize`], whose fusion
    /// stage collapses every multiplication and chain into division-free
    /// [`Op::MacReduceMod`] accumulation loops.
    pub fn mul_fused_kernel_ir(&self) -> Kernel {
        moma_rewrite::passes::optimize(self.mul_fused_kernel_ir_unfused())
    }

    /// The naive (pre-fusion) form of [`RescaleExtendPlan::mul_fused_kernel_ir`]
    /// — the literal unfused op sequence written as one program. Kept public as
    /// the interpreter oracle for fusion cross-checks.
    pub fn mul_fused_kernel_ir_unfused(&self) -> Kernel {
        let src_ctxs: Vec<SingleBarrett> = self
            .rescale
            .src_moduli
            .iter()
            .map(|&m| SingleBarrett::new(m))
            .collect();
        let k = src_ctxs.len();
        let km1 = k - 1;
        let half = src_ctxs[km1].q / 2;
        let mut kb = KernelBuilder::new("rns_mul_rescale_extend_fused");
        // Every residue parameter is declared below its source modulus.
        let params: Vec<_> = src_ctxs
            .iter()
            .enumerate()
            .map(|(r, ctx)| {
                (
                    kb.param_below(format!("x{r}"), Ty::UInt(64), ctx.q - 1),
                    kb.param_below(format!("w{r}"), Ty::UInt(64), ctx.q - 1),
                )
            })
            .collect();
        let outs: Vec<_> = (0..self.bc.dst.moduli_count())
            .map(|s| kb.output(format!("y{s}"), Ty::UInt(64)))
            .collect();
        // The products of the element-wise multiply, in registers.
        let v: Vec<_> = params
            .iter()
            .zip(&src_ctxs)
            .map(|(&(x, w), ctx)| {
                let t = kb.fresh("v", Ty::UInt(64));
                kb.push(
                    vec![t],
                    Op::MulModBarrett {
                        a: x.into(),
                        b: w.into(),
                        q: Operand::Const(ctx.q),
                        mu: Operand::Const(ctx.mu),
                        mbits: ctx.mbits,
                    },
                );
                t
            })
            .collect();
        let c = v[km1];
        // The rounding decision δ = (c > m_k/2), made once per element.
        let delta = kb.fresh("delta", Ty::Flag);
        kb.push(
            vec![delta],
            Op::Lt {
                a: Operand::Const(half),
                b: c.into(),
            },
        );
        let mut pseudo = Vec::with_capacity(km1);
        for (r, ctx) in self.rescale.out.ctxs.iter().enumerate() {
            // Fold the dropped product residue into this row's ring (it lives
            // in [0, m_k), possibly above m_r); a multiply by 1 is an exact
            // modular fold on both executors.
            let cr = kb.fresh("cr", Ty::UInt(64));
            kb.push(
                vec![cr],
                Op::MulModBarrett {
                    a: c.into(),
                    b: Operand::Const(1),
                    q: Operand::Const(ctx.q),
                    mu: Operand::Const(ctx.mu),
                    mbits: ctx.mbits,
                },
            );
            let diff = kb.fresh("diff", Ty::UInt(64));
            kb.push(
                vec![diff],
                Op::SubMod {
                    a: v[r].into(),
                    b: cr.into(),
                    q: Operand::Const(ctx.q),
                },
            );
            // ỹ_r = (v_r − c)·f_r + δ·(M⁻/m_r)^{-1}: the mul→add pair below is
            // exactly the shape fusion rule 1 collapses.
            let t = kb.fresh("t", Ty::UInt(64));
            kb.push(
                vec![t],
                Op::MulModBarrett {
                    a: diff.into(),
                    b: Operand::Const(self.fused[r]),
                    q: Operand::Const(ctx.q),
                    mu: Operand::Const(ctx.mu),
                    mbits: ctx.mbits,
                },
            );
            let inc = kb.fresh("inc", Ty::UInt(64));
            kb.push(
                vec![inc],
                Op::Select {
                    cond: delta.into(),
                    if_true: Operand::Const(self.bc.inv_punctured[r]),
                    if_false: Operand::Const(0),
                },
            );
            let p = kb.fresh("ps", Ty::UInt(64));
            kb.push(
                vec![p],
                Op::AddMod {
                    a: t.into(),
                    b: inc.into(),
                    q: Operand::Const(ctx.q),
                },
            );
            pseudo.push(p);
        }
        for (s, (&out, ctx)) in outs.iter().zip(&self.bc.dst.ctxs).enumerate() {
            let cross_row = &self.bc.cross[s * km1..(s + 1) * km1];
            let mut acc = Operand::Const(0);
            for (r, (&p, &cv)) in pseudo.iter().zip(cross_row).enumerate() {
                let dst = if r + 1 == km1 {
                    out
                } else {
                    kb.fresh("acc", Ty::UInt(64))
                };
                kb.push(
                    vec![dst],
                    Op::MulAddMod {
                        a: p.into(),
                        b: Operand::Const(cv),
                        c: acc,
                        q: Operand::Const(ctx.q),
                        mu: Operand::Const(ctx.mu),
                        mbits: ctx.mbits,
                    },
                );
                acc = dst.into();
            }
        }
        kb.build()
    }

    /// The unfused rescale half (whose output plan is the shortened basis).
    pub fn rescale_plan(&self) -> &RescalePlan {
        &self.rescale
    }

    /// The unfused conversion half (over the shortened basis).
    pub fn base_conv_plan(&self) -> &BaseConvPlan {
        &self.bc
    }

    /// The target plan the chain's results live over.
    pub fn dst_plan(&self) -> &RnsPlan {
        &self.bc.dst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_bignum::random::random_bits;
    use moma_bignum::BigUint;
    use moma_blas::BlasOp;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The conversion kernel a stand-alone caller compiles for `bc`.
    fn conversion_kernel(bc: &BaseConvPlan) -> CompiledKernel {
        CompiledKernel::compile(&bc.fused_kernel_ir()).unwrap()
    }

    /// Base conversion on a fresh pool with a freshly compiled kernel.
    fn convert(src: &RnsPlan, bc: &BaseConvPlan, a: &RnsMatrix) -> (RnsMatrix, LaunchStats) {
        src.base_convert(bc, a, &conversion_kernel(bc), &BufferPool::new())
    }

    /// Generates `count` distinct primes of `bits` bits from a seeded rng
    /// (through the shared deterministic basis builder).
    fn primes(seed: u64, count: usize, bits: u32) -> Vec<u64> {
        RnsContext::with_random_primes(count, bits, seed)
            .moduli()
            .to_vec()
    }

    /// A mixed basis: narrow 31-bit primes interleaved with wide 40/52-bit ones.
    fn mixed_basis(seed: u64) -> Vec<u64> {
        let narrow = primes(seed, 2, 31);
        let wide = [primes(seed ^ 1, 1, 40), primes(seed ^ 2, 1, 52)].concat();
        vec![narrow[0], wide[0], narrow[1], wide[1]]
    }

    #[test]
    fn base_convert_matches_oracle_per_element() {
        let src_ctx = RnsContext::with_capacity_bits(200);
        let src = RnsPlan::new(&src_ctx);
        let dst_ctx = RnsContext::with_moduli(&primes(0xbc, 5, 31));
        let dst = RnsPlan::new(&dst_ctx);
        let bc = BaseConvPlan::new(&src, &dst);
        let mut rng = StdRng::seed_from_u64(0xba5e);
        let values: Vec<BigUint> = (0..17).map(|_| random_bits(&mut rng, 190)).collect();
        let a = RnsMatrix::from_biguints(&src, &values);
        let (out, stats) = convert(&src, &bc, &a);
        assert_eq!(out.row_count(), dst.moduli_count());
        assert_eq!(out.len(), values.len());
        assert_eq!(stats.threads, values.len(), "one thread per element");
        for (c, v) in values.iter().enumerate() {
            let oracle = src_ctx.base_convert(&dst_ctx, &src_ctx.to_residues(v));
            assert_eq!(out.element(c), oracle, "column {c}");
        }
    }

    #[test]
    fn base_convert_overshoot_is_a_small_multiple_of_the_source_product() {
        // Choose a target basis with enough headroom that x + αM reconstructs
        // exactly; then the overshoot α must be below the source basis size.
        let src = RnsPlan::new(&RnsContext::with_moduli_count(4));
        let dst = RnsPlan::new(&RnsContext::with_moduli(&primes(0x41, 7, 31)));
        let bc = BaseConvPlan::new(&src, &dst);
        let mut rng = StdRng::seed_from_u64(7);
        let values: Vec<BigUint> = (0..9)
            .map(|_| moma_bignum::random::random_below(&mut rng, src.product()))
            .collect();
        let a = RnsMatrix::from_biguints(&src, &values);
        let (out, _) = convert(&src, &bc, &a);
        for (c, v) in values.iter().enumerate() {
            let reconstructed = dst.to_biguints(&out)[c].clone();
            let excess = &reconstructed - v;
            let (alpha, rem) = excess.div_rem(src.product());
            assert!(
                rem.is_zero(),
                "column {c}: overshoot must be a multiple of M"
            );
            assert!(
                alpha.to_u64().unwrap() < src.moduli_count() as u64,
                "column {c}: α = {alpha:?} out of range"
            );
        }
    }

    #[test]
    fn base_convert_on_mixed_narrow_wide_bases_matches_oracle() {
        let src_ctx = RnsContext::with_moduli(&mixed_basis(0x51));
        let dst_ctx = RnsContext::with_moduli(&mixed_basis(0x99));
        let src = RnsPlan::new(&src_ctx);
        let dst = RnsPlan::new(&dst_ctx);
        let bc = BaseConvPlan::new(&src, &dst);
        let mut rng = StdRng::seed_from_u64(0x1117);
        let values: Vec<BigUint> = (0..11)
            .map(|_| moma_bignum::random::random_below(&mut rng, src.product()))
            .collect();
        let a = RnsMatrix::from_biguints(&src, &values);
        let (out, _) = convert(&src, &bc, &a);
        for (c, v) in values.iter().enumerate() {
            let oracle = src_ctx.base_convert(&dst_ctx, &src_ctx.to_residues(v));
            assert_eq!(out.element(c), oracle, "column {c}");
        }
    }

    #[test]
    fn fused_kernel_collapses_the_whole_conversion() {
        let src = RnsPlan::new(&RnsContext::with_moduli_count(4));
        let dst = RnsPlan::new(&RnsContext::with_moduli(&primes(0x2e, 5, 31)));
        let bc = BaseConvPlan::new(&src, &dst);
        let kernel = bc.fused_kernel_ir();
        moma_ir::validate::validate(&kernel).expect("fused conversion kernel validates");
        let (k, l) = (src.moduli_count() as u64, dst.moduli_count() as u64);
        let counts = CompiledKernel::compile(&kernel)
            .unwrap()
            .counts_per_element()
            .clone();
        // k single-term loops (the pseudo-residue multiplications) plus one
        // k-term loop per target row; nothing survives unfused.
        assert_eq!(counts.get("macreduce"), k + l * k);
        assert_eq!(counts.get("reducewide"), k + l);
        assert_eq!(counts.get("mulmod"), 0);
        assert_eq!(counts.get("macmod"), 0);
    }

    #[test]
    fn fused_base_convert_matches_direct_in_one_launch() {
        let src_ctx = RnsContext::with_moduli(&mixed_basis(0x51));
        let dst_ctx = RnsContext::with_moduli(&mixed_basis(0x99));
        let src = RnsPlan::new(&src_ctx);
        let dst = RnsPlan::new(&dst_ctx);
        let bc = BaseConvPlan::new(&src, &dst);
        let mut rng = StdRng::seed_from_u64(0xf00d);
        let values: Vec<BigUint> = (0..23)
            .map(|_| moma_bignum::random::random_below(&mut rng, src.product()))
            .collect();
        let a = RnsMatrix::from_biguints(&src, &values);
        let (fused, fused_stats) = convert(&src, &bc, &a);
        assert_eq!(
            fused_stats.launches, 1,
            "the whole conversion is one launch"
        );
        assert_eq!(fused_stats.threads, values.len(), "one thread per element");
        // Bit for bit the direct BigUint oracle, per element.
        for (c, v) in values.iter().enumerate() {
            let oracle = src_ctx.base_convert(&dst_ctx, &src_ctx.to_residues(v));
            assert_eq!(fused.element(c), oracle, "column {c}");
        }
        // Empty batches short-circuit.
        let empty = RnsMatrix::from_biguints(&src, &[]);
        let (out, stats) = convert(&src, &bc, &empty);
        assert!(out.is_empty());
        assert_eq!(stats.launches, 0);
    }

    #[test]
    #[should_panic(expected = "kernel shape")]
    fn fused_base_convert_rejects_a_mismatched_kernel() {
        let src = RnsPlan::new(&RnsContext::with_moduli_count(3));
        let dst = RnsPlan::new(&RnsContext::with_moduli(&primes(0x7a, 3, 31)));
        let bc = BaseConvPlan::new(&src, &dst);
        let wider = RnsPlan::new(&RnsContext::with_moduli_count(4));
        let wrong = conversion_kernel(&BaseConvPlan::new(&wider, &dst));
        let a = RnsMatrix::from_biguints(&src, &[BigUint::one()]);
        src.base_convert(&bc, &a, &wrong, &BufferPool::new());
    }

    #[test]
    fn scale_and_round_matches_oracle_and_stays_within_one() {
        let ctx = RnsContext::with_moduli_count(5);
        let plan = RnsPlan::new(&ctx);
        let rp = plan.rescale_plan();
        let mut rng = StdRng::seed_from_u64(0x5ca1e);
        let values: Vec<BigUint> = (0..15)
            .map(|_| moma_bignum::random::random_below(&mut rng, plan.product()))
            .collect();
        let a = RnsMatrix::from_biguints(&plan, &values);
        let (out, stats) = plan.scale_and_round(&rp, &a, &BufferPool::new());
        assert_eq!(out.row_count(), plan.moduli_count() - 1);
        assert_eq!(stats.threads, plan.moduli_count() - 1);
        let last = BigUint::from(*ctx.moduli().last().unwrap());
        for (c, v) in values.iter().enumerate() {
            let oracle = ctx.scale_and_round(&ctx.to_residues(v));
            assert_eq!(out.element(c), oracle, "column {c}");
            // Semantics: the reconstructed quotient is within one of v / m_k
            // (both sides exact integers, so compare v − y·m_k against m_k).
            let y = rp.output_plan().to_biguints(&out)[c].clone();
            let scaled = &y * &last;
            let distance = if scaled >= *v {
                &scaled - v
            } else {
                v - &scaled
            };
            assert!(distance <= last, "column {c}: |y·m_k − v| must be ≤ m_k");
        }
    }

    #[test]
    fn scale_and_round_on_mixed_basis_matches_oracle() {
        let ctx = RnsContext::with_moduli(&mixed_basis(0x77));
        let plan = RnsPlan::new(&ctx);
        let rp = plan.rescale_plan();
        let mut rng = StdRng::seed_from_u64(0x700);
        let values: Vec<BigUint> = (0..9)
            .map(|_| moma_bignum::random::random_below(&mut rng, plan.product()))
            .collect();
        let a = RnsMatrix::from_biguints(&plan, &values);
        let (out, _) = plan.scale_and_round(&rp, &a, &BufferPool::new());
        for (c, v) in values.iter().enumerate() {
            assert_eq!(
                out.element(c),
                ctx.scale_and_round(&ctx.to_residues(v)),
                "column {c}"
            );
        }
    }

    #[test]
    fn scale_and_round_agrees_with_the_oracle_at_every_width() {
        // Column counts either side of a lane block, one column, and none; the
        // columns cycle through the last residues 0, 1, ⌊m_k/2⌋, ⌊m_k/2⌋ + 1
        // and m_k − 1 under random quotients.
        let ctx = RnsContext::with_moduli(&mixed_basis(0x5c));
        let plan = RnsPlan::new(&ctx);
        let rp = plan.rescale_plan();
        let last = *ctx.moduli().last().unwrap();
        let quotients = plan.product() / &BigUint::from(last);
        let mut rng = StdRng::seed_from_u64(0x5c);
        let pool = BufferPool::new();
        for cols in [0usize, 1, 127, 128, 129] {
            let values: Vec<BigUint> = (0..cols)
                .map(|i| {
                    let c = [0, 1, last / 2, last / 2 + 1, last - 1][i % 5];
                    let t = moma_bignum::random::random_below(&mut rng, &quotients);
                    &(&t * &BigUint::from(last)) + &BigUint::from(c)
                })
                .collect();
            let a = RnsMatrix::from_biguints(&plan, &values);
            let (mut out, stats) = plan.scale_and_round(&rp, &a, &pool);
            assert_eq!(out.len(), cols);
            assert_eq!(stats.launches, usize::from(cols > 0), "{cols} columns");
            for (c, v) in values.iter().enumerate() {
                assert_eq!(
                    out.element(c),
                    ctx.scale_and_round(&ctx.to_residues(v)),
                    "{cols} columns, column {c}"
                );
            }
            pool.recycle(out.take_storage());
        }
    }

    #[test]
    fn rescale_then_convert_chains_across_bases() {
        // The FHE-style chain: rescale to drop a modulus, then base-extend the
        // result into a fresh basis — every intermediate checked by oracle.
        let ctx = RnsContext::with_moduli_count(4);
        let plan = RnsPlan::new(&ctx);
        let rp = plan.rescale_plan();
        let dst = RnsPlan::new(&RnsContext::with_moduli(&primes(0xf00, 4, 31)));
        let bc = BaseConvPlan::new(rp.output_plan(), &dst);
        let mut rng = StdRng::seed_from_u64(0xc11a);
        let values: Vec<BigUint> = (0..6)
            .map(|_| moma_bignum::random::random_below(&mut rng, plan.product()))
            .collect();
        let a = RnsMatrix::from_biguints(&plan, &values);
        let (rescaled, _) = plan.scale_and_round(&rp, &a, &BufferPool::new());
        let (extended, _) = convert(rp.output_plan(), &bc, &rescaled);
        let out_ctx = ctx.without_last();
        let dst_ctx = RnsContext::with_moduli(&primes(0xf00, 4, 31));
        for (c, v) in values.iter().enumerate() {
            let oracle_rescaled = ctx.scale_and_round(&ctx.to_residues(v));
            let oracle_extended = out_ctx.base_convert(&dst_ctx, &oracle_rescaled);
            assert_eq!(extended.element(c), oracle_extended, "column {c}");
        }
    }

    #[test]
    fn fused_rescale_extend_matches_the_two_pass_chain_bit_for_bit() {
        let ctx = RnsContext::with_moduli_count(5);
        let plan = RnsPlan::new(&ctx);
        let dst = RnsPlan::new(&RnsContext::with_moduli(&primes(0xfe, 5, 31)));
        let p = plan.rescale_extend_plan(&dst);
        let mut rng = StdRng::seed_from_u64(0xf5ed);
        let values: Vec<BigUint> = (0..21)
            .map(|_| moma_bignum::random::random_below(&mut rng, plan.product()))
            .collect();
        let a = RnsMatrix::from_biguints(&plan, &values);
        let pool = BufferPool::new();
        let (fused, fused_stats) = plan.rescale_then_extend(&p, &a, &pool);
        // The two-pass chain, composed from its single entry points: rescale
        // into an intermediate matrix, then convert it.
        let (rescaled, _) = plan.scale_and_round(p.rescale_plan(), &a, &pool);
        let (two_pass, _) = convert(
            p.rescale_plan().output_plan(),
            p.base_conv_plan(),
            &rescaled,
        );
        assert_eq!(fused, two_pass, "folding must not change a single bit");
        assert_eq!(fused_stats.launches, 2);
        assert_eq!(
            fused_stats.threads,
            plan.moduli_count() - 1 + dst.moduli_count(),
            "one thread per surviving source row plus one per target row"
        );
        // And matches the BigUint oracle chain per element.
        let out_ctx = ctx.without_last();
        let dst_ctx = RnsContext::with_moduli(&primes(0xfe, 5, 31));
        for (c, v) in values.iter().enumerate() {
            let oracle = out_ctx.base_convert(&dst_ctx, &ctx.scale_and_round(&ctx.to_residues(v)));
            assert_eq!(fused.element(c), oracle, "column {c}");
        }
    }

    #[test]
    fn fused_rescale_extend_on_mixed_bases_matches_oracle() {
        let ctx = RnsContext::with_moduli(&mixed_basis(0x3a));
        let plan = RnsPlan::new(&ctx);
        let dst_moduli = mixed_basis(0x2b);
        let dst = RnsPlan::new(&RnsContext::with_moduli(&dst_moduli));
        let p = plan.rescale_extend_plan(&dst);
        let mut rng = StdRng::seed_from_u64(0x31bb);
        let values: Vec<BigUint> = (0..13)
            .map(|_| moma_bignum::random::random_below(&mut rng, plan.product()))
            .collect();
        let a = RnsMatrix::from_biguints(&plan, &values);
        let (fused, _) = plan.rescale_then_extend(&p, &a, &BufferPool::new());
        let out_ctx = ctx.without_last();
        let dst_ctx = RnsContext::with_moduli(&dst_moduli);
        for (c, v) in values.iter().enumerate() {
            let oracle = out_ctx.base_convert(&dst_ctx, &ctx.scale_and_round(&ctx.to_residues(v)));
            assert_eq!(fused.element(c), oracle, "column {c}");
        }
    }

    #[test]
    fn fused_mul_rescale_extend_collapses_the_whole_chain() {
        let ctx = RnsContext::with_moduli(&mixed_basis(0x47));
        let plan = RnsPlan::new(&ctx);
        let dst = RnsPlan::new(&RnsContext::with_moduli(&mixed_basis(0x58)));
        let p = plan.rescale_extend_plan(&dst);
        let kernel = p.mul_fused_kernel_ir();
        moma_ir::validate::validate(&kernel).expect("fused chain kernel validates");
        let counts = CompiledKernel::compile(&kernel)
            .unwrap()
            .counts_per_element()
            .clone();
        let (k, l) = (plan.moduli_count() as u64, dst.moduli_count() as u64);
        let km1 = k - 1;
        // k single-pair loops (the products), a single-pair fold plus a
        // two-pair pseudo-residue loop per surviving row, one (k−1)-pair loop
        // per target row; no Barrett multiplication survives unfused.
        assert_eq!(counts.get("macreduce"), k + 3 * km1 + l * km1);
        assert_eq!(counts.get("reducewide"), k + 2 * km1 + l);
        assert_eq!(counts.get("submod"), km1);
        assert_eq!(counts.get("mulmod"), 0);
        assert_eq!(counts.get("macmod"), 0);
    }

    #[test]
    fn fused_mul_rescale_extend_matches_the_unfused_chain_in_one_launch() {
        let ctx = RnsContext::with_moduli(&mixed_basis(0x47));
        let plan = RnsPlan::new(&ctx);
        let dst = RnsPlan::new(&RnsContext::with_moduli(&mixed_basis(0x58)));
        let p = plan.rescale_extend_plan(&dst);
        let mut rng = StdRng::seed_from_u64(0x90ab);
        let mut draw = |n: usize| -> Vec<BigUint> {
            (0..n)
                .map(|_| moma_bignum::random::random_below(&mut rng, plan.product()))
                .collect()
        };
        let (va, vb) = (draw(17), draw(17));
        let a = RnsMatrix::from_biguints(&plan, &va);
        let b = RnsMatrix::from_biguints(&plan, &vb);
        let pool = BufferPool::new();
        let compiled = CompiledKernel::compile(&p.mul_fused_kernel_ir()).unwrap();
        let (prod, _) = plan.apply(BlasOp::VecMul, None, &a, &b, &pool);
        let (unfused, chain_stats) = plan.rescale_then_extend(&p, &prod, &pool);
        let (fused, stats) = plan.mul_rescale_then_extend(&p, &a, &b, &compiled, &pool);
        assert_eq!(fused, unfused, "fusion must not change a single bit");
        // mul (1 launch) + rescale_then_extend (2) vs the whole chain in one.
        assert_eq!(chain_stats.launches, 2);
        assert_eq!(stats.launches, 1, "the whole chain is one launch");
        assert_eq!(stats.threads, va.len(), "one thread per element");
        // Empty batches short-circuit.
        let empty = RnsMatrix::from_biguints(&plan, &[]);
        let (out, stats) = plan.mul_rescale_then_extend(&p, &empty, &empty, &compiled, &pool);
        assert!(out.is_empty());
        assert_eq!(stats.launches, 0);
    }

    #[test]
    fn empty_matrices_are_fine() {
        let src = RnsPlan::new(&RnsContext::with_moduli_count(3));
        let dst = RnsPlan::new(&RnsContext::with_moduli(&primes(0xe, 3, 31)));
        let bc = BaseConvPlan::new(&src, &dst);
        let empty = RnsMatrix::from_biguints(&src, &[]);
        assert!(convert(&src, &bc, &empty).0.is_empty());
        let rp = src.rescale_plan();
        assert!(src
            .scale_and_round(&rp, &empty, &BufferPool::new())
            .0
            .is_empty());
    }

    #[test]
    #[should_panic(expected = "different source basis")]
    fn base_convert_rejects_mismatched_plan_pairing() {
        let a = RnsPlan::new(&RnsContext::with_moduli_count(3));
        let b = RnsPlan::new(&RnsContext::with_moduli_count(5));
        let dst = RnsPlan::new(&RnsContext::with_moduli(&primes(0xd, 3, 31)));
        let bc = BaseConvPlan::new(&a, &dst);
        let m = RnsMatrix::from_biguints(&b, &[BigUint::one()]);
        convert(&b, &bc, &m);
    }

    #[test]
    fn oracle_base_convert_round_trips_when_target_covers_source() {
        // Values below M that convert into a larger basis reconstruct to
        // x + αM; reducing mod M recovers x — the RnsInt-level sanity check.
        let src = RnsContext::with_moduli_count(3);
        let dst = RnsContext::with_moduli(&primes(0xab, 6, 31));
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..8 {
            let x = moma_bignum::random::random_below(&mut rng, src.product());
            let converted = src.base_convert(&dst, &src.to_residues(&x));
            let back = dst.from_residues(&converted);
            assert_eq!(&back % src.product(), x);
        }
    }

    /// A (source, fused-chain) pair plus a batch of values under the source
    /// product.
    fn chain_fixture() -> (RnsPlan, RescaleExtendPlan, Vec<BigUint>) {
        let src = RnsPlan::new(&RnsContext::with_moduli(&mixed_basis(0x77)));
        let dst = RnsPlan::new(&RnsContext::with_moduli(&primes(0xd0, 5, 31)));
        let p = RescaleExtendPlan::new(&src, &dst);
        let mut rng = StdRng::seed_from_u64(0xf1f7);
        let values: Vec<BigUint> = (0..13)
            .map(|_| moma_bignum::random::random_below(&mut rng, src.product()))
            .collect();
        (src, p, values)
    }

    #[test]
    fn pooled_conversion_chain_matches_heap_and_goes_allocation_free() {
        let (src, p, values) = chain_fixture();
        let pool = BufferPool::new();
        let a = RnsMatrix::from_biguints(&src, &values);
        let kernel = conversion_kernel(&p.bc);

        // Stand-alone references: a fresh pool per call allocates each plane.
        let (heap_sr, sr_stats) = src.scale_and_round(&p.rescale, &a, &BufferPool::new());
        assert_eq!(sr_stats.allocs, 1);
        let (heap_bc, bc_stats) =
            p.rescale
                .out
                .base_convert(&p.bc, &heap_sr, &kernel, &BufferPool::new());
        assert_eq!(bc_stats.allocs, 1, "the output plane only");
        let (heap_fused, fused_stats) = src.rescale_then_extend(&p, &a, &BufferPool::new());
        assert_eq!(fused_stats.allocs, 2, "output plane plus pseudo plane");
        assert_eq!(heap_fused, heap_bc);

        // Round 0 runs on the cold pool, shaped exactly like the steady state —
        // all three results held concurrently — so the shelves end up with
        // enough resident planes for the peak demand; every later round is
        // bit-identical to the stand-alone results with zero pool misses.
        for round in 0..5 {
            let before = pool.misses();
            let (mut sr, sr_stats) = src.scale_and_round(&p.rescale, &a, &pool);
            let (mut bc, bc_stats) = p.rescale.out.base_convert(&p.bc, &sr, &kernel, &pool);
            let (mut fused, fused_stats) = src.rescale_then_extend(&p, &a, &pool);
            assert_eq!(sr, heap_sr, "round {round}");
            assert_eq!(bc, heap_bc, "round {round}");
            assert_eq!(fused, heap_fused, "round {round}");
            let allocs = sr_stats.allocs + bc_stats.allocs + fused_stats.allocs;
            assert_eq!(allocs, if round == 0 { 4 } else { 0 }, "round {round}");
            assert_eq!(pool.misses() - before, allocs as u64, "round {round}");
            pool.recycle(sr.take_storage());
            pool.recycle(bc.take_storage());
            pool.recycle(fused.take_storage());
        }
    }
}
