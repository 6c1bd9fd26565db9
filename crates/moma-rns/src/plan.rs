//! The planned residue engine: precompute-once-execute-many RNS arithmetic in
//! structure-of-arrays layout on the simulated GPU launcher.
//!
//! The original [`RnsContext`]/[`RnsInt`] path is a readable oracle, but it is the
//! wrong shape for a throughput comparison against MoMA's positional kernels: every
//! element owns its own `Vec<u64>` of residues (array-of-structures), every
//! multiplication reduces through a `u128 %` division, and every conversion
//! allocates one `BigUint` per modulus. GRNS — the baseline the paper compares
//! against — stores residues *plane by plane* and runs each plane as an independent
//! data-parallel kernel. This module reproduces that organisation:
//!
//! * [`RnsPlan`] precomputes, once per basis, a [`SingleBarrett`] context per
//!   modulus (so hot-path reductions are Barrett multiplications, not `u128`
//!   divisions), the residues of every power of the limb radix `2^64` (so
//!   positional→residue conversion is a dot product over machine words with no
//!   arbitrary-precision arithmetic), and the CRT reconstruction data, both as
//!   `BigUint`s (what base-conversion tables derive from) and as fixed-width
//!   word rows (what residue→positional conversion runs on);
//! * [`RnsMatrix`] stores a vector of `n` big integers as a flat `#moduli × n`
//!   row-major matrix (structure-of-arrays): row `r` holds the residues of all `n`
//!   elements modulo basis prime `m_r`;
//! * element-wise operations run through exactly one entry point,
//!   [`RnsPlan::apply`]: one virtual GPU thread per residue row through
//!   [`moma_gpu::launch_chunks`], each thread filling its row of the flat
//!   output in place against the row's precomputed Barrett context;
//! * the `mul→axpy` chain runs through [`RnsPlan::mul_axpy`], which executes
//!   the *generated* all-rows chain kernel ([`RnsPlan::mul_axpy_kernel_ir`]) in
//!   one launch via [`moma_gpu::launch::launch_compiled_rows`]. It is the only
//!   implementation because the alternative is two [`RnsPlan::apply`] calls and
//!   a full intermediate matrix, which any caller can still compose by hand.
//!
//! Every entry point takes the [`BufferPool`] its output plane comes from (a
//! stand-alone caller passes `&BufferPool::new()`) and, where the op is
//! generated, the [`CompiledKernel`] to run: a plan carries tables and IR
//! builders only, and whoever calls it owns compilation — `moma::Session`
//! through its fused-kernel cache, a test or bench through
//! `CompiledKernel::compile(&plan.mul_axpy_kernel_ir())`.
//!
//! The conversion-cost trade-off the paper measures is explicit in the types:
//! everything on [`RnsMatrix`] is residue-local, while [`RnsPlan::to_biguints`]
//! and [`RnsPlan::reduce_mod`] — the operations RNS cannot do residue-locally —
//! pay a CRT reconstruction per element: `#moduli` scalar × multi-word
//! multiply-accumulates and a conditional-subtraction ladder. The codec itself
//! is the paper's premise applied to its own boundary — both directions run on
//! fixed-width machine words as launches ([`RnsMatrix::from_biguints`] one
//! thread per residue row, [`RnsPlan::to_biguints`] one thread per column
//! chunk), with no `BigUint` arithmetic and no hardware division; a `BigUint`
//! is only read limb by limb on the way in and built from finished limbs on the
//! way out. Positional (MoMA-style) multi-word arithmetic never pays that step
//! at all, which is the heart of the Figure 2 comparison.

use crate::{RnsContext, RnsInt};
use moma_bignum::BigUint;
use moma_blas::BlasOp;
use moma_gpu::launch::{launch_chunks, launch_compiled_rows, LaunchStats};
use moma_gpu::pool::BufferPool;
use moma_ir::compiled::{CompiledKernel, Plane};
use moma_ir::{Kernel, KernelBuilder, Op, Operand, Ty};
use moma_mp::single::{smac, SingleBarrett};

/// Terms of one exact `u128` sum of products in forward conversion: a limb is
/// below `2^64` and a table entry below `q < 2^60`, so sixteen products sum to
/// less than `16 · 2^124 = 2^128`.
const ENCODE_GROUP: usize = 16;

/// Columns per virtual thread of [`RnsPlan::to_biguints`]. A matrix of at most
/// this many columns is one chunk, which the launcher runs on the calling
/// thread without spawning.
const DECODE_CHUNK: usize = 256;

/// Precomputed per-basis execution data for the planned residue engine.
///
/// Built once per basis (from an existing [`RnsContext`] or directly from a
/// capacity); every subsequent element-wise operation is pure machine-word
/// arithmetic.
///
/// # Example
///
/// ```
/// use moma_bignum::BigUint;
/// use moma_blas::BlasOp;
/// use moma_gpu::BufferPool;
/// use moma_rns::{RnsContext, RnsMatrix, RnsPlan};
///
/// let ctx = RnsContext::with_capacity_bits(256);
/// let plan = RnsPlan::new(&ctx);
/// let a: Vec<BigUint> = (1u64..5).map(BigUint::from).collect();
/// let b: Vec<BigUint> = (5u64..9).map(BigUint::from).collect();
/// let ma = RnsMatrix::from_biguints(&plan, &a);
/// let mb = RnsMatrix::from_biguints(&plan, &b);
/// let (prod, _) = plan.apply(BlasOp::VecMul, None, &ma, &mb, &BufferPool::new());
/// assert_eq!(plan.to_biguints(&prod)[0], &a[0] * &b[0]);
/// ```
#[derive(Debug, Clone)]
pub struct RnsPlan {
    /// One Barrett context per basis modulus, in basis order.
    pub(crate) ctxs: Vec<SingleBarrett>,
    /// Narrow-path verdict per modulus, decided **once at plan construction**:
    /// `narrow[r]` is `true` iff modulus `r` has at most 32 bits, so
    /// [`SingleBarrett::mul_mod_narrow`]'s single-widening-multiplication path is
    /// valid for it. Row kernels dispatch on this precomputed flag instead of
    /// relying on every call site to re-check the precondition — on a wide
    /// modulus the narrow path silently truncates in release builds.
    pub(crate) narrow: Vec<bool>,
    /// `limb_residues[r][j] = 2^(64·j) mod m_r` for every limb position `j` the
    /// dynamic range can hold — the dot-product table for `BigUint`-free forward
    /// conversion.
    pub(crate) limb_residues: Vec<Vec<u64>>,
    /// Product of the basis (the dynamic range).
    pub(crate) product: BigUint,
    /// CRT reconstruction data per modulus: `(M_i = product / m_i, y_i =
    /// M_i^{-1} mod m_i)`.
    pub(crate) crt: Vec<(BigUint, u64)>,
    /// The `M_i` of `crt` as fixed-width little-endian rows, `limbs` words each
    /// (`limbs` = the word count of the product, the row length of
    /// `limb_residues`), flat in basis order — the multiplicands of reverse
    /// conversion's scalar × multi-word multiply-accumulate.
    pub(crate) crt_words: Vec<u64>,
    /// `2^j · product` for `j < ⌈log₂(k + 1)⌉` (`k` moduli) as `limbs + 1`-word
    /// rows, flat in ascending `j`: the CRT sum is below `k · product`, so one
    /// conditional subtraction per row, largest first, reduces it modulo the
    /// product.
    pub(crate) product_shifts: Vec<u64>,
}

impl RnsPlan {
    /// Builds the plan for the basis of an existing context.
    ///
    /// The plan computes the same residues and reconstructions as the context; the
    /// crosscheck tests exploit that to use [`RnsContext`] as the oracle.
    pub fn new(ctx: &RnsContext) -> Self {
        let ctxs: Vec<SingleBarrett> = ctx.moduli.iter().map(|&m| SingleBarrett::new(m)).collect();
        let (product, crt) = (ctx.product.clone(), ctx.crt.clone());
        // The narrow-vs-wide multiplication dispatch is validated here, once per
        // basis, where the path is *selected* — not at each call site. Mixed
        // bases (narrow and wide moduli in one plan) are fully supported; each
        // residue row gets the fastest multiplication that is correct for it.
        let narrow: Vec<bool> = ctxs.iter().map(SingleBarrett::is_narrow).collect();
        let limbs = product.bits().div_ceil(64) as usize;
        let limb_residues = ctxs
            .iter()
            .map(|b| {
                // Successive powers of the limb radix 2^64 mod m, by Barrett
                // multiplication.
                let mut pows = Vec::with_capacity(limbs);
                let mut cur = 1u64;
                for _ in 0..limbs {
                    pows.push(cur);
                    cur = b.mul_mod(cur, b.radix);
                }
                pows
            })
            .collect();
        let crt_words = crt
            .iter()
            .flat_map(|(mi, _)| mi.to_limbs_le(limbs))
            .collect();
        // Each CRT term is at most (m_i − 1)·M_i < product, so the sum of all k
        // is below k·product, which must fit the `limbs + 1`-word accumulator;
        // with 2^(shifts−1) ≤ k < 2^shifts every row fits it too, and one
        // conditional subtraction per row brings the sum below the product.
        let k = ctxs.len();
        assert!(
            product.mul_u64(k as u64).bits() <= 64 * (limbs as u32 + 1),
            "a CRT sum of {k} terms does not fit {} words",
            limbs + 1
        );
        let shifts = (k + 1).next_power_of_two().trailing_zeros();
        let product_shifts = (0..shifts)
            .flat_map(|j| product.shl_bits(j).to_limbs_le(limbs + 1))
            .collect();
        RnsPlan {
            ctxs,
            narrow,
            limb_residues,
            product,
            crt,
            crt_words,
            product_shifts,
        }
    }

    /// Convenience constructor: builds a deterministic basis covering at least
    /// `bits` bits of dynamic range (same basis as
    /// [`RnsContext::with_capacity_bits`]).
    pub fn with_capacity_bits(bits: u32) -> Self {
        Self::new(&RnsContext::with_capacity_bits(bits))
    }

    /// Number of basis moduli (= rows of every matrix over this plan).
    pub fn moduli_count(&self) -> usize {
        self.ctxs.len()
    }

    /// The basis moduli, in basis order.
    pub fn moduli(&self) -> impl Iterator<Item = u64> + '_ {
        self.ctxs.iter().map(|c| c.q)
    }

    /// The product of the basis (the dynamic range).
    pub fn product(&self) -> &BigUint {
        &self.product
    }

    /// Converts one positional integer into residues with no `BigUint`
    /// arithmetic: each residue is an exact sum of products of the value's
    /// machine words against the precomputed limb-radix residues, reduced once
    /// per group of 16 terms (see [`RnsMatrix::from_biguints`], of which this
    /// is one column).
    ///
    /// # Panics
    ///
    /// Panics if `x` is not below the dynamic range.
    pub fn to_residues(&self, x: &BigUint) -> RnsInt {
        assert!(x < &self.product, "value exceeds the RNS dynamic range");
        let limbs = x.limbs();
        RnsInt {
            residues: self
                .ctxs
                .iter()
                .zip(&self.limb_residues)
                .map(|(ctx, pows)| residue_of(ctx, pows, limbs))
                .collect(),
        }
    }

    /// Reconstructs the positional value of one residue column via the Chinese
    /// remainder theorem — one column of [`RnsPlan::to_biguints`], with the same
    /// word-level arithmetic under the same `Σ < k · product` bound. Residues
    /// need not be normalised: each is reduced modulo its basis prime first.
    pub fn from_residues(&self, x: &RnsInt) -> BigUint {
        assert_eq!(x.residues.len(), self.moduli_count());
        self.crt_reconstruct(|r| x.residues[r])
    }

    /// Runs one BLAS operation element-wise over two matrices, one virtual GPU
    /// thread per residue row, and reports the launch statistics.
    ///
    /// This is the planned hot path: each row runs against its own precomputed
    /// Barrett context, performs no `BigUint` arithmetic and no per-element
    /// allocation, and all rows share the same [`moma_gpu::launch_chunks`]
    /// infrastructure the positional BLAS batches use.
    ///
    /// The output plane is acquired from `pool` and `allocs` counts the pool
    /// *misses* of the call, so a warm pool reports `allocs == 0`; the caller
    /// owns the result and decides when its storage flows back (see
    /// [`RnsMatrix::take_storage`]).
    ///
    /// # Panics
    ///
    /// Panics if the matrix shapes do not match the plan (or each other), or if
    /// `op` is [`BlasOp::Axpy`] and no scalar is supplied.
    pub fn apply(
        &self,
        op: BlasOp,
        scalar: Option<&RnsInt>,
        a: &RnsMatrix,
        b: &RnsMatrix,
        pool: &BufferPool,
    ) -> (RnsMatrix, LaunchStats) {
        self.check_shape(a);
        self.check_shape(b);
        assert_eq!(a.cols, b.cols, "matrix width mismatch");
        let scalar = match op {
            BlasOp::Axpy => {
                let s = scalar.expect("axpy requires an RNS scalar");
                assert_eq!(
                    s.residues.len(),
                    self.moduli_count(),
                    "scalar basis mismatch"
                );
                Some(s)
            }
            _ => None,
        };
        let cols = a.cols;
        RnsMatrix::filled_from(pool, self.moduli_count(), cols, |data| {
            launch_chunks(data, cols, |r, out| {
                let ctx = &self.ctxs[r];
                // Per-row dispatch recorded at plan build: the narrow
                // single-widening-multiplication path for validated ≤32-bit
                // moduli, the general Barrett path otherwise.
                let narrow = self.narrow[r];
                let ar = a.row(r);
                let br = b.row(r);
                match op {
                    BlasOp::VecMul => {
                        for (o, (&x, &y)) in out.iter_mut().zip(ar.iter().zip(br)) {
                            *o = mul_mod(ctx, narrow, x, y);
                        }
                    }
                    BlasOp::VecAdd => {
                        for (o, (&x, &y)) in out.iter_mut().zip(ar.iter().zip(br)) {
                            *o = ctx.add_mod(x, y);
                        }
                    }
                    BlasOp::VecSub => {
                        for (o, (&x, &y)) in out.iter_mut().zip(ar.iter().zip(br)) {
                            *o = ctx.sub_mod(x, y);
                        }
                    }
                    BlasOp::Axpy => {
                        let s = scalar.unwrap().residues[r];
                        for (o, (&x, &y)) in out.iter_mut().zip(ar.iter().zip(br)) {
                            *o = ctx.add_mod(mul_mod(ctx, narrow, s, x), y);
                        }
                    }
                }
            })
        })
    }

    /// Builds the IR of the **all-rows** fused `s·(a∘b) + y` chain kernel: one
    /// generated program computing, per element, every residue row of the
    /// multiply-then-axpy chain — four parameters (`x_r`, `w_r`, `s_r`, `z_r`)
    /// and one output per basis modulus.
    ///
    /// The kernel is generated naively (a Barrett multiplication and a
    /// multiply-accumulate per row) and handed to
    /// [`moma_rewrite::passes::optimize`], whose fusion stage collapses each
    /// row into two division-free [`Op::MacReduceMod`] accumulation loops (the
    /// product, then `t·s + z` with the addend folded as an extra pair). The
    /// scalar rides as a *parameter*, not a baked constant, so one compiled
    /// kernel serves every scalar over this basis — which is what makes the
    /// kernel worth caching under a basis-shaped key.
    pub fn mul_axpy_kernel_ir(&self) -> Kernel {
        moma_rewrite::passes::optimize(self.mul_axpy_kernel_ir_unfused())
    }

    /// The naive (pre-fusion) form of [`RnsPlan::mul_axpy_kernel_ir`]: one
    /// Barrett multiplication and one multiply-accumulate per row, exactly the
    /// unfused `mul` → `axpy` sequence written as a single program. Kept public
    /// as the interpreter oracle for fusion cross-checks.
    pub fn mul_axpy_kernel_ir_unfused(&self) -> Kernel {
        let mut kb = KernelBuilder::new("rns_mul_axpy_fused");
        // Every residue parameter is declared below its row's modulus.
        let rows: Vec<_> = self
            .ctxs
            .iter()
            .enumerate()
            .map(|(r, ctx)| {
                (
                    kb.param_below(format!("x{r}"), Ty::UInt(64), ctx.q - 1),
                    kb.param_below(format!("w{r}"), Ty::UInt(64), ctx.q - 1),
                    kb.param_below(format!("s{r}"), Ty::UInt(64), ctx.q - 1),
                    kb.param_below(format!("z{r}"), Ty::UInt(64), ctx.q - 1),
                    kb.output(format!("y{r}"), Ty::UInt(64)),
                )
            })
            .collect();
        for (ctx, (x, w, s, z, out)) in self.ctxs.iter().zip(rows) {
            let t = kb.fresh("t", Ty::UInt(64));
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
            kb.push(
                vec![out],
                Op::MulAddMod {
                    a: t.into(),
                    b: s.into(),
                    c: z.into(),
                    q: Operand::Const(ctx.q),
                    mu: Operand::Const(ctx.mu),
                    mbits: ctx.mbits,
                },
            );
        }
        kb.build()
    }

    /// `s·(a∘b) + z` — the element-wise multiply immediately scaled and
    /// accumulated — in **one** launch through the generated chain kernel
    /// `compiled` (compiled by the caller from
    /// [`RnsPlan::mul_axpy_kernel_ir`]; the scalar is a kernel parameter, so
    /// one compilation serves every scalar over the basis). Bit-for-bit equal
    /// to [`RnsPlan::apply`] with [`BlasOp::VecMul`] followed by
    /// [`BlasOp::Axpy`], without their second launch and intermediate matrix.
    ///
    /// The output plane comes from `pool`; `allocs` reports the pool-miss
    /// delta of the call.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shapes or the scalar basis do not match the plan,
    /// or if `compiled` does not take four parameters and produce one output
    /// per basis modulus.
    pub fn mul_axpy(
        &self,
        a: &RnsMatrix,
        b: &RnsMatrix,
        s: &RnsInt,
        z: &RnsMatrix,
        compiled: &CompiledKernel,
        pool: &BufferPool,
    ) -> (RnsMatrix, LaunchStats) {
        self.check_shape(a);
        self.check_shape(b);
        self.check_shape(z);
        assert_eq!(a.cols, b.cols, "matrix width mismatch");
        assert_eq!(a.cols, z.cols, "matrix width mismatch");
        assert_eq!(
            s.residues.len(),
            self.moduli_count(),
            "scalar basis mismatch"
        );
        let rows = self.moduli_count();
        let cols = a.cols;
        assert_eq!(
            (compiled.param_count(), compiled.output_count()),
            (4 * rows, rows),
            "fused chain kernel shape must match the basis"
        );
        RnsMatrix::filled_from(pool, rows, cols, |data| {
            launch_compiled_rows(compiled, data, cols, |p| {
                let r = p / 4;
                match p % 4 {
                    0 => Plane::Row(a.row(r)),
                    1 => Plane::Row(b.row(r)),
                    2 => Plane::Uniform(s.residues[r]),
                    _ => Plane::Row(z.row(r)),
                }
            })
        })
    }

    /// Reduces every element modulo a user modulus `q` that is not the basis
    /// product: CRT reconstruction, positional reduction, forward conversion.
    /// This is the expensive round trip positional arithmetic avoids.
    pub fn reduce_mod(&self, a: &RnsMatrix, q: &BigUint) -> RnsMatrix {
        let reduced: Vec<BigUint> = self.to_biguints(a).into_iter().map(|x| &x % q).collect();
        RnsMatrix::from_biguints(self, &reduced)
    }

    /// Converts a whole matrix back to positional integers: one CRT
    /// reconstruction per column, run as one launch with a virtual thread per
    /// chunk of 256 columns (a matrix that fits one chunk decodes on the calling
    /// thread).
    ///
    /// A column is reconstructed on machine words only. Per basis modulus
    /// `t_r = y_r · (residue_r mod m_r) mod m_r` is one division-free word
    /// reduction and one Barrett multiplication, and `t_r · M_r` is added into a
    /// `limbs + 1`-word accumulator by a scalar × multi-word
    /// multiply-accumulate. The sum is below `k · product` for `k` moduli — the
    /// bound the plan asserts against the accumulator width when it is built —
    /// so subtracting `2^j · product` where it fits, for `j` from
    /// `⌈log₂(k + 1)⌉ − 1` down to 0, leaves the value below the product. The
    /// accumulator becomes the result's limbs, the only allocation per column.
    pub fn to_biguints(&self, a: &RnsMatrix) -> Vec<BigUint> {
        self.check_shape(a);
        let mut out = vec![BigUint::zero(); a.cols];
        launch_chunks(&mut out, DECODE_CHUNK, |chunk, values| {
            for (c, v) in (chunk * DECODE_CHUNK..).zip(values) {
                *v = self.crt_reconstruct(|r| a.data[r * a.cols + c]);
            }
        });
        out
    }

    fn crt_reconstruct(&self, residue: impl Fn(usize) -> u64) -> BigUint {
        let limbs = self.limb_residues[0].len();
        let mut acc = vec![0u64; limbs + 1];
        let rows = self.crt_words.chunks_exact(limbs);
        for (r, ((ctx, (_, yi)), mi)) in self.ctxs.iter().zip(&self.crt).zip(rows).enumerate() {
            let t = ctx.mul_mod(ctx.reduce_word(residue(r)), *yi);
            mac_words(&mut acc, t, mi);
        }
        for shifted in self.product_shifts.chunks_exact(limbs + 1).rev() {
            sub_words_if_fits(&mut acc, shifted);
        }
        BigUint::from_limbs_le(acc)
    }

    pub(crate) fn check_shape(&self, a: &RnsMatrix) {
        assert_eq!(a.rows, self.moduli_count(), "matrix basis mismatch");
        assert_eq!(a.data.len(), a.rows * a.cols, "matrix storage corrupt");
    }
}

/// `(a · b) mod q`, dispatching on the `narrow` verdict the caller recorded
/// once per row ([`SingleBarrett::is_narrow`], as the plan does at
/// construction): the single-widening-multiplication path for ≤32-bit moduli
/// (always true for the 31-bit bases [`RnsContext`] constructs by default),
/// the general Barrett path for wide rows of a mixed basis.
#[inline]
pub fn mul_mod(ctx: &SingleBarrett, narrow: bool, a: u64, b: u64) -> u64 {
    if narrow {
        ctx.mul_mod_narrow(a, b)
    } else {
        ctx.mul_mod(a, b)
    }
}

/// Computes `value mod q` from little-endian machine words: the dot product of
/// the words with the precomputed residues of the limb-radix powers, summed
/// exactly in a `u128` and reduced once per [`ENCODE_GROUP`] terms — a limb is
/// below `2^64` and a table entry below `q < 2^60`, so sixteen products cannot
/// overflow the accumulator. No per-limb reduction and no hardware division.
fn residue_of(ctx: &SingleBarrett, pows: &[u64], limbs: &[u64]) -> u64 {
    assert!(
        limbs.len() <= pows.len(),
        "value exceeds the RNS dynamic range"
    );
    let groups = limbs.chunks(ENCODE_GROUP).zip(pows.chunks(ENCODE_GROUP));
    groups.fold(0u64, |acc, (limbs, pows)| {
        let sum = limbs
            .iter()
            .zip(pows)
            .fold(0u128, |sum, (&limb, &pow)| smac(sum, limb, pow));
        ctx.add_mod(acc, ctx.reduce_wide(sum))
    })
}

/// `acc += t · words`: the scalar × multi-word multiply-accumulate of reverse
/// conversion, over little-endian words. `acc` is one word longer than `words`
/// and the caller guarantees the sum fits it (the `k · product` bound of
/// [`RnsPlan::to_biguints`]).
fn mac_words(acc: &mut [u64], t: u64, words: &[u64]) {
    let (top, low) = acc.split_last_mut().expect("accumulator is never empty");
    debug_assert_eq!(low.len(), words.len());
    let mut carry = 0u64;
    for (a, &w) in low.iter_mut().zip(words) {
        // t·w + a + carry ≤ (2^64 − 1)^2 + 2·(2^64 − 1) = 2^128 − 1.
        let wide = t as u128 * w as u128 + *a as u128 + carry as u128;
        *a = wide as u64;
        carry = (wide >> 64) as u64;
    }
    let (sum, overflow) = top.overflowing_add(carry);
    debug_assert!(!overflow, "CRT accumulator overflowed");
    *top = sum;
}

/// `acc -= sub` if `acc ≥ sub`, over equal-length little-endian words.
fn sub_words_if_fits(acc: &mut [u64], sub: &[u64]) {
    debug_assert_eq!(acc.len(), sub.len());
    if acc.iter().rev().lt(sub.iter().rev()) {
        return;
    }
    let mut borrow = false;
    for (a, &s) in acc.iter_mut().zip(sub) {
        let (d, b1) = a.overflowing_sub(s);
        let (d, b2) = d.overflowing_sub(borrow as u64);
        *a = d;
        borrow = b1 | b2;
    }
    debug_assert!(!borrow);
}

/// A vector of big integers in residue form, stored structure-of-arrays.
///
/// Row `r` of the flat row-major storage holds the residues of all `cols`
/// elements modulo basis prime `m_r` — the GRNS "residue plane" layout, which is
/// what lets one launcher thread stream a whole row with perfect locality.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RnsMatrix {
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) data: Vec<u64>,
}

impl RnsMatrix {
    /// Converts a slice of positional integers into SoA residue form, one
    /// launcher thread per residue row. Apart from reading each value's machine
    /// words, the conversion performs no `BigUint` arithmetic: a residue is the
    /// exact `u128` sum of `limb_j · (2^(64·j) mod m_r)` over the value's limbs,
    /// reduced once per group of 16 terms (sixteen products of a word and a
    /// sub-`2^60` table entry cannot overflow) — no per-limb reduction, no
    /// hardware division.
    ///
    /// # Panics
    ///
    /// Panics if any value is not below the plan's dynamic range.
    pub fn from_biguints(plan: &RnsPlan, values: &[BigUint]) -> Self {
        Self::encoded(plan, values, |len| vec![0u64; len])
    }

    /// [`RnsMatrix::from_biguints`] with the residue plane acquired from `pool`
    /// instead of the allocator. The matrix owns the buffer; recycle it through
    /// [`RnsMatrix::take_storage`] (or an owner's `Drop`, as `moma`'s `RnsVec`
    /// does) when the matrix is done. A rejected value panics before the pool
    /// is touched.
    pub fn from_biguints_pooled(plan: &RnsPlan, values: &[BigUint], pool: &BufferPool) -> Self {
        Self::encoded(plan, values, |len| pool.acquire(len))
    }

    /// The shared forward-conversion body: range-checks every value, only then
    /// takes the residue plane from `acquire`, and fills it with one launcher
    /// thread per residue row.
    fn encoded(
        plan: &RnsPlan,
        values: &[BigUint],
        acquire: impl FnOnce(usize) -> Vec<u64>,
    ) -> Self {
        for v in values {
            assert!(v < &plan.product, "value exceeds the RNS dynamic range");
        }
        let (rows, cols) = (plan.moduli_count(), values.len());
        let mut data = acquire(rows * cols);
        if cols > 0 {
            launch_chunks(&mut data, cols, |r, out| {
                let ctx = &plan.ctxs[r];
                let pows = &plan.limb_residues[r];
                for (o, v) in out.iter_mut().zip(values) {
                    *o = residue_of(ctx, pows, v.limbs());
                }
            });
        }
        RnsMatrix { rows, cols, data }
    }

    /// The shared tail of every [`RnsPlan`] execution entry point, and of the
    /// ring layer's fused kernels: acquires a `rows × cols` plane from `pool`,
    /// lets `fill` run the launches over it, and adds the pool misses of that
    /// window (`fill` may draw scratch planes from the same pool) to the
    /// reported `allocs`. An empty result touches neither the pool nor the
    /// launcher. `fill` must write every word of the plane — it is not
    /// zero-filled first ([`BufferPool::acquire_for_overwrite`]; a debug
    /// build checks that no word was left unwritten) — and leave every row
    /// reduced below its modulus.
    pub fn filled_from(
        pool: &BufferPool,
        rows: usize,
        cols: usize,
        fill: impl FnOnce(&mut [u64]) -> LaunchStats,
    ) -> (Self, LaunchStats) {
        if cols == 0 {
            let data = Vec::new();
            return (RnsMatrix { rows, cols, data }, LaunchStats::default());
        }
        let before = pool.misses();
        let mut data = pool.acquire_for_overwrite(rows * cols);
        let mut stats = fill(&mut data);
        debug_assert!(
            !data.contains(&u64::MAX),
            "fill left a word of the plane unwritten"
        );
        stats.allocs += (pool.misses() - before) as usize;
        (RnsMatrix { rows, cols, data }, stats)
    }

    /// A copy of this matrix whose residue plane comes from `pool` instead of
    /// the allocator — the pooled twin of `Clone`, used by owners that recycle
    /// their planes on drop.
    pub fn clone_with_pool(&self, pool: &BufferPool) -> Self {
        let mut data = pool.acquire_for_overwrite(self.data.len());
        data.copy_from_slice(&self.data);
        RnsMatrix {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Tears the matrix down to its flat storage, leaving it empty (0 × 0).
    /// This is the hand-back half of the pooled lifecycle: an owner that
    /// acquired the plane from a [`BufferPool`] takes the storage here and
    /// recycles it instead of letting the `Vec` drop to the allocator.
    pub fn take_storage(&mut self) -> Vec<u64> {
        self.rows = 0;
        self.cols = 0;
        std::mem::take(&mut self.data)
    }

    /// Number of residue rows (= basis moduli).
    pub fn row_count(&self) -> usize {
        self.rows
    }

    /// Number of elements (columns).
    pub fn len(&self) -> usize {
        self.cols
    }

    /// Returns `true` if the matrix holds no elements.
    pub fn is_empty(&self) -> bool {
        self.cols == 0
    }

    /// One residue row: the residues of every element modulo basis prime `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row(&self, r: usize) -> &[u64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable view of the whole residue plane, row-major (`row_count() × len()`,
    /// row `r` at `r * len()`) — the in-place hook that lets ring-level callers
    /// run every row's per-modulus transform (e.g. a negacyclic NTT) as one
    /// multi-row operation directly on the plane, without copying rows out and
    /// back.
    pub fn plane_mut(&mut self) -> &mut [u64] {
        &mut self.data
    }

    /// Extracts one element's residue column as an [`RnsInt`] (inspection /
    /// interop path; allocates).
    ///
    /// # Panics
    ///
    /// Panics if `c` is out of range.
    pub fn element(&self, c: usize) -> RnsInt {
        assert!(c < self.cols, "column out of range");
        RnsInt {
            residues: (0..self.rows)
                .map(|r| self.data[r * self.cols + c])
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector::RnsVector;
    use moma_bignum::random::random_bits;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup(n: usize, bits: u32) -> (RnsContext, RnsPlan, Vec<BigUint>, Vec<BigUint>) {
        let ctx = RnsContext::with_capacity_bits(2 * bits + 8);
        let plan = RnsPlan::new(&ctx);
        let mut rng = StdRng::seed_from_u64(0x504c_414e);
        let a: Vec<BigUint> = (0..n).map(|_| random_bits(&mut rng, bits)).collect();
        let b: Vec<BigUint> = (0..n).map(|_| random_bits(&mut rng, bits)).collect();
        (ctx, plan, a, b)
    }

    /// Element-wise product on a fresh pool (the stand-alone form of `apply`).
    fn mul(plan: &RnsPlan, a: &RnsMatrix, b: &RnsMatrix) -> RnsMatrix {
        plan.apply(BlasOp::VecMul, None, a, b, &BufferPool::new()).0
    }

    #[test]
    fn residues_match_context_oracle() {
        let (ctx, plan, a, _) = setup(12, 140);
        for v in a.iter().chain([&BigUint::zero(), &BigUint::one()]) {
            assert_eq!(plan.to_residues(v), ctx.to_residues(v), "value {v:?}");
        }
    }

    #[test]
    fn matrix_round_trips_through_crt() {
        let (_, plan, a, _) = setup(9, 200);
        let m = RnsMatrix::from_biguints(&plan, &a);
        assert_eq!(m.row_count(), plan.moduli_count());
        assert_eq!(m.len(), 9);
        assert_eq!(plan.to_biguints(&m), a);
    }

    #[test]
    fn elementwise_ops_match_vector_oracle() {
        let (ctx, plan, a, b) = setup(16, 120);
        let va = RnsVector::from_biguints(&ctx, &a);
        let vb = RnsVector::from_biguints(&ctx, &b);
        let ma = RnsMatrix::from_biguints(&plan, &a);
        let mb = RnsMatrix::from_biguints(&plan, &b);
        type Oracle = fn(&RnsContext, &RnsInt, &RnsInt) -> RnsInt;
        let checks: [(BlasOp, Oracle); 3] = [
            (BlasOp::VecMul, |c, x, y| c.mul(x, y)),
            (BlasOp::VecAdd, |c, x, y| c.add(x, y)),
            (BlasOp::VecSub, |c, x, y| c.sub(x, y)),
        ];
        for (op, oracle) in checks {
            let (out, stats) = plan.apply(op, None, &ma, &mb, &BufferPool::new());
            assert_eq!(stats.threads, plan.moduli_count(), "{op:?}");
            for c in 0..a.len() {
                assert_eq!(
                    out.element(c),
                    oracle(&ctx, &va.elements[c], &vb.elements[c]),
                    "{op:?} column {c}"
                );
            }
        }
    }

    #[test]
    fn axpy_matches_positional() {
        let (_, plan, x, y) = setup(8, 100);
        let s = BigUint::from(0xdead_beefu64);
        let mx = RnsMatrix::from_biguints(&plan, &x);
        let my = RnsMatrix::from_biguints(&plan, &y);
        let scalar = plan.to_residues(&s);
        let (out, _) = plan.apply(BlasOp::Axpy, Some(&scalar), &mx, &my, &BufferPool::new());
        let back = plan.to_biguints(&out);
        for c in 0..x.len() {
            assert_eq!(back[c], &(&s * &x[c]) + &y[c]);
        }
    }

    #[test]
    fn mul_axpy_kernel_collapses_to_accumulation_loops() {
        let plan = RnsPlan::with_capacity_bits(160);
        let kernel = plan.mul_axpy_kernel_ir();
        moma_ir::validate::validate(&kernel).expect("fused chain kernel validates");
        let k = plan.moduli_count() as u64;
        let counts = CompiledKernel::compile(&kernel)
            .unwrap()
            .counts_per_element()
            .clone();
        // Per row: a single-pair loop for the product and a two-pair loop for
        // `t·s + z` (the addend folded as the extra pair); nothing survives
        // unfused.
        assert_eq!(counts.get("macreduce"), 3 * k);
        assert_eq!(counts.get("reducewide"), 2 * k);
        assert_eq!(counts.get("mulmod"), 0);
        assert_eq!(counts.get("macmod"), 0);
    }

    #[test]
    fn fused_mul_axpy_matches_the_unfused_chain_in_one_launch() {
        // A mixed narrow/wide basis so both multiplication dispatches of the
        // unfused path are crosschecked against the generated kernel.
        let narrow = RnsContext::with_random_primes(2, 31, 0xa1)
            .moduli()
            .to_vec();
        let wide = RnsContext::with_random_primes(2, 52, 0xa2)
            .moduli()
            .to_vec();
        let ctx = RnsContext::with_moduli(&[narrow[0], wide[0], narrow[1], wide[1]]);
        let plan = RnsPlan::new(&ctx);
        let mut rng = StdRng::seed_from_u64(0xaf99);
        let mut draw = |n: usize| -> Vec<BigUint> {
            (0..n)
                .map(|_| moma_bignum::random::random_below(&mut rng, &plan.product))
                .collect()
        };
        let (va, vb, vz) = (draw(19), draw(19), draw(19));
        let s_val = draw(1).remove(0);
        let a = RnsMatrix::from_biguints(&plan, &va);
        let b = RnsMatrix::from_biguints(&plan, &vb);
        let z = RnsMatrix::from_biguints(&plan, &vz);
        let s = plan.to_residues(&s_val);
        let pool = BufferPool::new();
        let compiled = CompiledKernel::compile(&plan.mul_axpy_kernel_ir()).unwrap();
        let (prod, mul_stats) = plan.apply(BlasOp::VecMul, None, &a, &b, &pool);
        let (unfused, axpy_stats) = plan.apply(BlasOp::Axpy, Some(&s), &prod, &z, &pool);
        let (fused, stats) = plan.mul_axpy(&a, &b, &s, &z, &compiled, &pool);
        assert_eq!(fused, unfused, "fusion must not change a single bit");
        assert_eq!(mul_stats.launches + axpy_stats.launches, 2);
        assert_eq!(stats.launches, 1, "the whole chain is one launch");
        assert_eq!(stats.threads, va.len(), "one thread per element");
        // And positionally: s·(a·b mod M) + z (mod M).
        for (c, back) in plan.to_biguints(&fused).iter().enumerate() {
            let expect =
                &(&(&s_val * &(&(&va[c] * &vb[c]) % &plan.product)) + &vz[c]) % &plan.product;
            assert_eq!(back, &expect, "column {c}");
        }
        // Empty batches short-circuit.
        let empty = RnsMatrix::from_biguints(&plan, &[]);
        let (out, stats) = plan.mul_axpy(&empty, &empty, &s, &empty, &compiled, &pool);
        assert!(out.is_empty());
        assert_eq!(stats.launches, 0);
    }

    #[test]
    #[should_panic(expected = "kernel shape")]
    fn fused_mul_axpy_rejects_a_mismatched_kernel() {
        let plan = RnsPlan::with_capacity_bits(96);
        let other = RnsPlan::with_capacity_bits(256);
        let m = RnsMatrix::from_biguints(&plan, &[BigUint::one()]);
        let s = plan.to_residues(&BigUint::one());
        let wrong = CompiledKernel::compile(&other.mul_axpy_kernel_ir()).unwrap();
        plan.mul_axpy(&m, &m, &s, &m, &wrong, &BufferPool::new());
    }

    #[test]
    fn reduce_mod_matches_oracle() {
        let (ctx, plan, a, b) = setup(4, 120);
        let q = BigUint::from_hex("ffffffffffffffffffffffffffffff61").unwrap();
        let prod = mul(
            &plan,
            &RnsMatrix::from_biguints(&plan, &a),
            &RnsMatrix::from_biguints(&plan, &b),
        );
        let reduced = plan.reduce_mod(&prod, &q);
        for (c, back) in plan.to_biguints(&reduced).iter().enumerate() {
            assert_eq!(back, &((&a[c] * &b[c]) % &q));
            assert_eq!(reduced.element(c), ctx.reduce_mod(&prod.element(c), &q));
        }
    }

    #[test]
    fn empty_matrix_is_fine() {
        let plan = RnsPlan::with_capacity_bits(64);
        let m = RnsMatrix::from_biguints(&plan, &[]);
        assert!(m.is_empty());
        assert!(mul(&plan, &m, &m).is_empty());
        assert!(plan.to_biguints(&m).is_empty());
        // The pooled form draws nothing for an empty plane.
        let pool = BufferPool::new();
        let pooled = RnsMatrix::from_biguints_pooled(&plan, &[], &pool);
        assert_eq!(pooled, m);
        assert!(plan.to_biguints(&pooled).is_empty());
        assert_eq!(pool.stats(), BufferPool::new().stats());
    }

    /// The codec at every column count around the decode chunk: a launch of
    /// zero, one, and several chunks with a ragged tail, the matrix forms
    /// agreeing column by column with the one-value forms and with the
    /// `RnsContext` oracle, edge values (`0`, `1`, `M−1`) landing on both sides
    /// of every chunk boundary.
    #[test]
    fn codec_agrees_with_the_oracle_at_every_chunk_shape() {
        let ctx = RnsContext::with_capacity_bits(190);
        let plan = RnsPlan::new(&ctx);
        let top = &plan.product - &BigUint::one();
        let mut rng = StdRng::seed_from_u64(0xc0dec);
        for cols in [0, 1, DECODE_CHUNK - 1, DECODE_CHUNK, DECODE_CHUNK + 1, 4096] {
            let values: Vec<BigUint> = (0..cols)
                .map(|c| match c % 5 {
                    0 => top.clone(),
                    1 => BigUint::zero(),
                    2 => BigUint::one(),
                    _ => moma_bignum::random::random_below(&mut rng, &plan.product),
                })
                .collect();
            let m = RnsMatrix::from_biguints(&plan, &values);
            let back = plan.to_biguints(&m);
            assert_eq!(back, values, "{cols} columns");
            for (c, v) in values.iter().enumerate() {
                let column = m.element(c);
                assert_eq!(column, ctx.to_residues(v), "{cols} columns, column {c}");
                assert_eq!(column, plan.to_residues(v), "{cols} columns, column {c}");
                assert_eq!(
                    &plan.from_residues(&column),
                    v,
                    "{cols} columns, column {c}"
                );
                assert_eq!(&ctx.from_residues(&column), v, "{cols} columns, column {c}");
            }
        }
    }

    /// The word-level helpers at their stated bounds, against `u128` and
    /// `BigUint` arithmetic: a full group of worst-case products (every limb
    /// `2^64 − 1`, every table entry `q − 1` for the largest supported `q`) is
    /// exact in `residue_of`, on either side of the group boundary; `mac_words`
    /// carries into the accumulator's extra word; `sub_words_if_fits` subtracts
    /// on equality and leaves a smaller accumulator alone.
    #[test]
    fn word_helpers_are_exact_at_their_bounds() {
        let ctx = SingleBarrett::new((1 << 60) - 1);
        let q = ctx.q as u128;
        for len in [1, ENCODE_GROUP - 1, ENCODE_GROUP, ENCODE_GROUP + 1, 40] {
            let (limbs, pows) = (vec![u64::MAX; len], vec![ctx.q - 1; len]);
            let term = (u64::MAX as u128 % q) * (q - 1) % q;
            let expect = (0..len).fold(0u128, |sum, _| (sum + term) % q);
            assert_eq!(
                residue_of(&ctx, &pows, &limbs) as u128,
                expect,
                "{len} limbs"
            );
        }

        let big = |words: &[u64]| BigUint::from_limbs_le(words.to_vec());
        let words = [u64::MAX, u64::MAX - 1, u64::MAX];
        let mut acc = vec![u64::MAX, 7, u64::MAX, 0];
        let expect = &big(&acc) + &big(&words).mul_u64(u64::MAX);
        mac_words(&mut acc, u64::MAX, &words);
        assert_eq!(big(&acc), expect);
        assert_ne!(acc[3], 0, "the product carried into the extra word");

        let equal = acc.clone();
        sub_words_if_fits(&mut acc, &equal);
        assert_eq!(acc, [0; 4], "an equal subtrahend fits");
        let mut acc = vec![5, 0, 1, 0];
        sub_words_if_fits(&mut acc, &[6, 0, 1, 0]);
        assert_eq!(acc, [5, 0, 1, 0], "a larger subtrahend does not");
        sub_words_if_fits(&mut acc, &[6, 0, 0, 0]);
        assert_eq!(acc, [u64::MAX, u64::MAX, 0, 0], "borrows ripple upward");
    }

    /// A rejected encode must leave a warm pool exactly as it found it: the
    /// range check runs before the plane is acquired, so the shelved plane is
    /// still there for the next valid encode of that size.
    #[test]
    fn rejected_pooled_encode_leaves_the_pool_untouched() {
        let (_, plan, a, _) = setup(14, 120);
        let pool = BufferPool::new();
        let mut warm = RnsMatrix::from_biguints_pooled(&plan, &a, &pool);
        pool.recycle(warm.take_storage());
        let before = pool.stats();
        assert_eq!((before.misses, before.resident_buffers), (1, 1));

        let mut bad = a.clone();
        bad[13] = plan.product.clone();
        let rejected = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            RnsMatrix::from_biguints_pooled(&plan, &bad, &pool)
        }));
        let message = *rejected
            .expect_err("a value equal to the product is out of range")
            .downcast::<&str>()
            .expect("assert! with a literal message panics with a &str");
        assert_eq!(message, "value exceeds the RNS dynamic range");
        assert_eq!(pool.stats(), before, "the rejected encode touched the pool");

        // The next valid encode of that size is still a hit.
        let again = RnsMatrix::from_biguints_pooled(&plan, &a, &pool);
        assert_eq!(pool.stats().misses, before.misses);
        assert_eq!(plan.to_biguints(&again), a);
    }

    #[test]
    #[should_panic(expected = "dynamic range")]
    fn oversized_value_rejected() {
        let plan = RnsPlan::with_capacity_bits(64);
        RnsMatrix::from_biguints(&plan, &[BigUint::from(1u64) << 200]);
    }

    #[test]
    #[should_panic(expected = "basis mismatch")]
    fn mismatched_bases_rejected() {
        let small = RnsPlan::with_capacity_bits(64);
        let large = RnsPlan::with_capacity_bits(256);
        let m = RnsMatrix::from_biguints(&large, &[BigUint::one()]);
        mul(&small, &m, &m);
    }

    #[test]
    fn pooled_ops_match_heap_and_go_allocation_free_when_warm() {
        let (_, plan, a, b) = setup(14, 120);
        let pool = BufferPool::new();
        let ma = RnsMatrix::from_biguints(&plan, &a);
        let mb = RnsMatrix::from_biguints(&plan, &b);
        let s = plan.to_residues(&BigUint::from(0x5eedu64));
        let compiled = CompiledKernel::compile(&plan.mul_axpy_kernel_ir()).unwrap();

        // A fresh pool per call is the stand-alone form: it allocates its plane.
        let (heap_mul, heap_stats) = plan.apply(BlasOp::VecMul, None, &ma, &mb, &BufferPool::new());
        assert_eq!(heap_stats.allocs, 1, "a fresh pool allocates the plane");
        let (heap_fused, _) = plan.mul_axpy(&ma, &mb, &s, &mb, &compiled, &BufferPool::new());

        // Round 0 runs on the cold pool and misses once per plane; from then on
        // every plane is served from the shelves, bit-identical results.
        for round in 0..6 {
            let before = pool.misses();
            let (mut mul, mul_stats) = plan.apply(BlasOp::VecMul, None, &ma, &mb, &pool);
            let (mut fused, fused_stats) = plan.mul_axpy(&ma, &mb, &s, &mb, &compiled, &pool);
            assert_eq!(mul, heap_mul, "round {round}");
            assert_eq!(fused, heap_fused, "round {round}");
            let expect = usize::from(round == 0);
            assert_eq!(mul_stats.allocs, expect, "round {round} mul");
            assert_eq!(fused_stats.allocs, expect, "round {round} fused");
            assert_eq!(pool.misses() - before, 2 * expect as u64, "round {round}");
            pool.recycle(mul.take_storage());
            pool.recycle(fused.take_storage());
        }

        // from_biguints_pooled follows the same contract.
        let mut pooled_in = RnsMatrix::from_biguints_pooled(&plan, &a, &pool);
        assert_eq!(pooled_in, ma);
        pool.recycle(pooled_in.take_storage());
    }
}
