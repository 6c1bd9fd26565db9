//! Precomputed NTT execution plans — the hot-path replacement for the naive
//! transforms in [`crate::transform`].
//!
//! The naive loops recompute every twiddle factor on the fly: a serial modular
//! multiplication chain inside each block plus a stage-root derivation per stage.
//! That is two modular multiplications per butterfly where one suffices, and it
//! serializes work the paper distributes across CUDA threads. A plan performs all
//! of that work **once per (modulus, n)**.
//!
//! There is one plan type, [`Plan`], generic over the word its residues are
//! stored in ([`NttWord`]): [`NttPlan64`] is `Plan<u64>`, over machine words,
//! and [`NttPlan<L>`](NttPlan) is `Plan<MpUint<L>>`, over `L`-word integers —
//! the multi-word transform is the single-word algorithm re-run on a wider
//! word. One builder precomputes the flat bit-reversed-order twiddle tables
//! (Harvey's layout: entry `m + j` holds `ω_{2m}^j`, so every stage reads its
//! twiddles sequentially) for both directions plus `n^{-1}`, each with a column
//! of Shoup precomputed quotients. One loop runs Harvey's butterfly on them:
//! one lazy Shoup product each (on `L` words a fixed-shape high product and two
//! low products — no Barrett reduction, no shift, no correction), values in
//! `[0, 4q)` through the stages, one normalize pass at the end. Valid because
//! every constructor checks that `4q` fits the word.
//!
//! Only the `u64` constructors build **negacyclic** plans: the `ψ^i` twist is
//! folded into the first forward stage and the `ψ^{-i}` untwist into the
//! inverse's scaling pass. The `u64` plans also hand the launcher its stage
//! views ([`Stage64`], [`Twist64View`]).

use crate::params::NttParams;
use crate::transform::{bit_reverse_permute, stage_roots, BitReversal, Ntt64};
use moma_mp::single::SingleBarrett;
use moma_mp::{ModRing, MpUint, MulAlgorithm};
use std::fmt::Debug;

/// The word a [`Plan`] stores its residues in: the primitives the table
/// builder and the lazy butterflies need, each of which `moma-mp` provides on
/// both `u64` ([`SingleBarrett`]) and [`MpUint<L>`] ([`ModRing<L>`]).
pub trait NttWord: Copy + PartialOrd + Debug {
    /// The coefficient ring `Z_q` over this word.
    type Ring: Copy + Debug;
    /// The multiplicative identity.
    const ONE: Self;
    /// `self + rhs`, wrapping at the word width.
    fn add_wrapping(self, rhs: Self) -> Self;
    /// `self − rhs`, wrapping at the word width.
    fn sub_wrapping(self, rhs: Self) -> Self;
    /// One conditional subtraction as a select: `v − bound` if `v ≥ bound`,
    /// else `v` — in `[0, bound)` for any `v < 2·bound`. Every fold of the lazy
    /// discipline is spelled with it (see [`reduce_once`]).
    fn reduce_once(v: Self, bound: Self) -> Self;
    /// The modulus `q` of `ring`.
    fn modulus(ring: &Self::Ring) -> Self;
    /// The Shoup quotient `⌊w · 2^bits / q⌋` of a fixed multiplicand `w < q`.
    fn shoup_precompute(ring: &Self::Ring, w: Self) -> Self;
    /// The lazy Shoup product with the modulus passed by value: a value
    /// congruent to `w · y (mod q)` in `[0, 2q)`, for any `y < 4q`, when
    /// `w_shoup` is [`NttWord::shoup_precompute`]`(w)`.
    fn mul_mod_shoup_lazy(y: Self, w: Self, w_shoup: Self, q: Self) -> Self;
    /// `(a · b) mod q` of reduced operands — what the tables are built with.
    fn mul(ring: &Self::Ring, a: Self, b: Self) -> Self;
}

impl NttWord for u64 {
    type Ring = SingleBarrett;
    const ONE: Self = 1;

    #[inline]
    fn add_wrapping(self, rhs: Self) -> Self {
        self.wrapping_add(rhs)
    }

    #[inline]
    fn sub_wrapping(self, rhs: Self) -> Self {
        self.wrapping_sub(rhs)
    }

    #[inline]
    fn reduce_once(v: Self, bound: Self) -> Self {
        reduce_once(v, bound)
    }

    #[inline]
    fn modulus(ring: &SingleBarrett) -> Self {
        ring.q
    }

    #[inline]
    fn shoup_precompute(ring: &SingleBarrett, w: Self) -> Self {
        ring.shoup_precompute(w)
    }

    /// [`SingleBarrett::mul_mod_shoup_lazy`]: one high `u128` product and two
    /// wrapping word products.
    #[inline]
    fn mul_mod_shoup_lazy(y: Self, w: Self, w_shoup: Self, q: Self) -> Self {
        let hi = ((w_shoup as u128 * y as u128) >> 64) as u64;
        w.wrapping_mul(y).wrapping_sub(hi.wrapping_mul(q))
    }

    #[inline]
    fn mul(ring: &SingleBarrett, a: Self, b: Self) -> Self {
        ring.mul_mod(a, b)
    }
}

impl<const L: usize> NttWord for MpUint<L> {
    type Ring = ModRing<L>;
    const ONE: Self = MpUint::ONE;

    #[inline]
    fn add_wrapping(self, rhs: Self) -> Self {
        self.wrapping_add(&rhs)
    }

    #[inline]
    fn sub_wrapping(self, rhs: Self) -> Self {
        self.wrapping_sub(&rhs)
    }

    #[inline]
    fn reduce_once(v: Self, bound: Self) -> Self {
        let (reduced, borrow) = v.overflowing_sub(&bound);
        if borrow {
            v
        } else {
            reduced
        }
    }

    #[inline]
    fn modulus(ring: &ModRing<L>) -> Self {
        ring.modulus()
    }

    #[inline]
    fn shoup_precompute(ring: &ModRing<L>, w: Self) -> Self {
        ring.shoup_precompute(w)
    }

    /// [`ModRing::mul_mod_shoup_lazy`] (which proves the bound): one
    /// fixed-shape high product and two low products.
    #[inline]
    fn mul_mod_shoup_lazy(y: Self, w: Self, w_shoup: Self, q: Self) -> Self {
        let h = w_shoup.mul_hi(&y);
        w.wrapping_mul(&y).wrapping_sub(&h.wrapping_mul(&q))
    }

    #[inline]
    fn mul(ring: &ModRing<L>, a: Self, b: Self) -> Self {
        ring.mul(a, b)
    }
}

/// One conditional subtraction as a select: `v − bound` if `v ≥ bound`, else
/// `v` — in `[0, bound)` for any `v < 2·bound`. The plans and the stage
/// executor spell every single-word fold of the lazy discipline with it: into
/// `[0, 2q)` before a butterfly, and from `[0, 4q)` to `[0, q)` after the last
/// stage. The borrow of the subtraction picks the result, so it compiles to a
/// compare and a conditional move, not a data-dependent jump, and it keeps the
/// butterfly loop scalar (written as `v.min(v − bound)`, LLVM vectorizes that
/// loop for SSE2 and emulates its 64-bit products, ~40 % slower at n = 4096).
#[inline]
pub fn reduce_once(v: u64, bound: u64) -> u64 {
    let (reduced, borrow) = v.overflowing_sub(bound);
    if borrow {
        v
    } else {
        reduced
    }
}

/// A reusable execution plan for `n`-point transforms over the word `W`.
///
/// Building a plan costs about `2n` ring multiplications (one serial pass per
/// stage-aggregate table, per direction) plus one Shoup quotient per twiddle;
/// every subsequent transform then spends one lazy Shoup product per butterfly
/// where the naive loop spends two full Barrett multiplications, and does no
/// stage-root derivation. Each butterfly is Harvey's: fold `x` into `[0, 2q)`
/// with one conditional subtraction, take the lazy Shoup product
/// `t = w·y mod q ∈ [0, 2q)` (which accepts `y` unfolded), and emit `x + t`
/// and `x − t + 2q`, both `< 4q`.
///
/// Use it through its two instantiations, [`NttPlan64`] and [`NttPlan`].
#[derive(Debug, Clone)]
pub struct Plan<W: NttWord> {
    /// Transform size (a power of two).
    pub n: usize,
    /// The coefficient ring `Z_q` (used for setup and by callers' pointwise
    /// steps; the hot loop uses the Shoup tables).
    pub ring: W::Ring,
    /// `2q`, the fold bound of the lazy butterflies.
    two_q: W,
    /// Forward twiddles in bit-reversed (Harvey) layout: `fwd[m + j] = ω_{2m}^j`
    /// for every stage half-length `m = 1, 2, …, n/2` and `0 ≤ j < m`. Entry 0 is
    /// unused padding so the table is indexed directly by `m + j`.
    fwd: Vec<W>,
    /// [`NttWord::shoup_precompute`] of every forward twiddle, same layout.
    fwd_shoup: Vec<W>,
    /// Inverse twiddles in the same layout, built from `ω^{-1}`.
    inv: Vec<W>,
    inv_shoup: Vec<W>,
    /// `n^{-1} mod q` for the inverse transform's final scaling, and its quotient.
    n_inv: W,
    n_inv_shoup: W,
    /// The negacyclic twist tables; `None` for a cyclic plan.
    twist: Option<Twist<W>>,
    /// The permutation every transform opens with, built once from `n`.
    bit_reversal: BitReversal,
}

/// A single-machine-word plan (the 60-bit evaluation modulus, or any
/// NTT-friendly prime below `2^60`), cyclic or negacyclic.
///
/// Each butterfly performs one lazy Shoup product (one `u128` high product and
/// two wrapping word multiplications), one addition and one subtraction.
/// Compare the naive [`Ntt64`], which spends two full Barrett multiplications
/// (three `u128` products each) per butterfly on the twiddle chain alone.
pub type NttPlan64 = Plan<u64>;

/// A plan over `L`-limb elements: the same loop on [`MpUint<L>`] words, built
/// from [`NttParams`].
///
/// # Example
///
/// ```
/// use moma_ntt::{NttParams, NttPlan};
/// use moma_mp::MulAlgorithm;
///
/// let params = NttParams::<2>::for_paper_modulus(16, 128, MulAlgorithm::Schoolbook);
/// let plan = NttPlan::new(&params);
/// let mut data = vec![moma_mp::U128::from_u64(7); 16];
/// let original = data.clone();
/// plan.forward(&mut data);
/// plan.inverse(&mut data);
/// assert_eq!(data, original);
/// ```
pub type NttPlan<const L: usize> = Plan<MpUint<L>>;

/// Precomputed negacyclic twist tables: the diagonal `ψ^i` multiply of the
/// forward transform folded into the (otherwise multiplication-free) first
/// butterfly stage, and the `ψ^{-i}` untwist folded into the inverse
/// transform's scaling pass — a negacyclic ring multiply is therefore
/// transform → pointwise → inverse with **no separate twist pass**.
#[derive(Debug, Clone)]
struct Twist<W> {
    /// The primitive `2n`-th root of unity (`ψ² = ω`, `ψ^n = −1`).
    psi: W,
    /// `ψ^{rev(i)}` for `i ∈ [0, n)`: the twist factor of slot `i` *after* the
    /// bit-reverse permutation, consumed by the folded first stage.
    fwd_rev: Vec<W>,
    fwd_rev_shoup: Vec<W>,
    /// `ψ^{-i}·n^{-1}` in natural order: the untwist and the `1/n` scaling in
    /// one Shoup multiply per element, consumed by the inverse's final pass.
    inv_scale: Vec<W>,
    inv_scale_shoup: Vec<W>,
}

/// Borrowed view of a plan's negacyclic twist tables, the interface stage-level
/// executors (the launcher, session batching) consume the fold through.
#[derive(Debug, Clone, Copy)]
pub struct Twist64View<'a> {
    /// The primitive `2n`-th root `ψ`.
    pub psi: u64,
    /// Per-slot twist factors `ψ^{rev(i)}` for the folded forward first stage
    /// (indexed by position in the bit-reverse-permuted array).
    pub forward: Stage64<'a>,
    /// Per-slot untwist-and-scale factors `ψ^{-i}·n^{-1}` for the inverse's
    /// final pass (natural output order).
    pub inverse_scale: Stage64<'a>,
}

/// One butterfly stage's twiddle view for [`NttPlan64`]: the twiddle factors and
/// their Shoup precomputed quotients, in lock-step order (entry `j` is
/// `ω_{2m}^j` and its quotient).
#[derive(Debug, Clone, Copy)]
pub struct Stage64<'a> {
    /// The stage's twiddle factors: entry `j` is `ω_{2m}^j`.
    pub twiddles: &'a [u64],
    /// Shoup precomputed quotients, one per twiddle.
    pub shoup: &'a [u64],
}

impl<W: NttWord> Plan<W> {
    /// The one table and quotient builder every constructor ends in: the
    /// twiddle tables of `omega` and `omega_inv`, `n_inv`, and — given a
    /// primitive `2n`-th root `psi` with `psi² = omega` — the negacyclic twist.
    fn from_roots(
        ring: W::Ring,
        n: usize,
        omega: W,
        omega_inv: W,
        n_inv: W,
        psi: Option<W>,
    ) -> Self {
        let quotients = |table: &[W]| -> Vec<W> {
            table
                .iter()
                .map(|&w| W::shoup_precompute(&ring, w))
                .collect()
        };
        let twist = psi.map(|psi| {
            let mut fwd_rev: Vec<W> = powers(ring, W::ONE, psi).take(n).collect();
            bit_reverse_permute(&mut fwd_rev);
            // ψ^{-1} = ψ·ω^{-1}, since ψ² = ω.
            let psi_inv = W::mul(&ring, psi, omega_inv);
            let inv_scale: Vec<W> = powers(ring, n_inv, psi_inv).take(n).collect();
            Twist {
                psi,
                fwd_rev_shoup: quotients(&fwd_rev),
                fwd_rev,
                inv_scale_shoup: quotients(&inv_scale),
                inv_scale,
            }
        });
        let fwd = build_table(&ring, omega, n);
        let inv = build_table(&ring, omega_inv, n);
        let q = W::modulus(&ring);
        Plan {
            n,
            ring,
            two_q: q.add_wrapping(q),
            fwd_shoup: quotients(&fwd),
            inv_shoup: quotients(&inv),
            fwd,
            inv,
            n_inv,
            n_inv_shoup: W::shoup_precompute(&ring, n_inv),
            twist,
            bit_reversal: BitReversal::new(n),
        }
    }

    /// The bit-reversal swap list every transform opens with — the stage
    /// executor permutes its rows with it too.
    pub fn bit_reversal(&self) -> &BitReversal {
        &self.bit_reversal
    }

    /// In-place forward transform using the precomputed tables. Inputs must be
    /// reduced (`< q`); outputs are reduced.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.n`.
    pub fn forward(&self, data: &mut [W]) {
        self.run_lazy(data, true);
        // Two passes of one select each: in one pass the two dependent
        // selects per element are turned back into branches by x86 codegen.
        for x in data.iter_mut() {
            *x = W::reduce_once(*x, self.two_q);
        }
        let q = W::modulus(&self.ring);
        for x in data.iter_mut() {
            *x = W::reduce_once(*x, q);
        }
    }

    /// In-place inverse transform (including the `1/n` scaling) using the
    /// precomputed tables. Inputs must be reduced (`< q`); outputs are reduced.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != self.n`.
    pub fn inverse(&self, data: &mut [W]) {
        self.run_lazy(data, false);
        // The scaling multiplication doubles as the normalize pass: the lazy
        // Shoup product accepts the stages' [0, 4q) values and lands in
        // [0, 2q). On a negacyclic plan the per-index factor ψ^{-i}·n^{-1}
        // replaces the uniform n^{-1}: the untwist rides the same multiply.
        let q = W::modulus(&self.ring);
        let scale = |x, s, s_shoup| W::reduce_once(W::mul_mod_shoup_lazy(x, s, s_shoup, q), q);
        match &self.twist {
            Some(tw) => {
                for (x, (&s, &ss)) in data
                    .iter_mut()
                    .zip(tw.inv_scale.iter().zip(&tw.inv_scale_shoup))
                {
                    *x = scale(*x, s, ss);
                }
            }
            None => {
                for x in data.iter_mut() {
                    *x = scale(*x, self.n_inv, self.n_inv_shoup);
                }
            }
        }
    }

    /// Runs the butterfly stages with values lazily reduced in `[0, 4q)`.
    ///
    /// Stage `m = 1` needs no multiplication: its only twiddle is `ω^0 = 1`.
    /// A negacyclic forward folds the `ψ` twist in there instead. The loops are
    /// structured as exact chunks so the compiler drops every bounds check from
    /// the inner loop.
    fn run_lazy(&self, data: &mut [W], forward: bool) {
        assert_eq!(
            data.len(),
            self.n,
            "data length must equal the transform size"
        );
        let q = W::modulus(&self.ring);
        let two_q = self.two_q;
        debug_assert!(data.iter().all(|&x| x < q), "inputs must be reduced");
        let (table, shoup) = self.tables(forward);
        self.bit_reversal.apply(data);

        // Inputs are reduced, so `x + y < 2q` and `x + 2q − y < 4q` keep the
        // lazy invariant. The folded twist multiplies each input by its slot's
        // ψ^{rev(i)} first (lazy Shoup product in [0, 2q)): `t₀ + t₁ < 4q` and
        // `t₀ + 2q − t₁ < 4q` keep the same invariant at the cost of the one
        // multiply the twist needs anyway.
        match self.twist.as_ref().filter(|_| forward) {
            Some(tw) => {
                for ((pair, w), ws) in data
                    .chunks_exact_mut(2)
                    .zip(tw.fwd_rev.chunks_exact(2))
                    .zip(tw.fwd_rev_shoup.chunks_exact(2))
                {
                    let t0 = W::mul_mod_shoup_lazy(pair[0], w[0], ws[0], q);
                    let t1 = W::mul_mod_shoup_lazy(pair[1], w[1], ws[1], q);
                    pair[0] = t0.add_wrapping(t1);
                    pair[1] = t0.add_wrapping(two_q).sub_wrapping(t1);
                }
            }
            None => {
                for pair in data.chunks_exact_mut(2) {
                    let (x, y) = (pair[0], pair[1]);
                    pair[0] = x.add_wrapping(y);
                    pair[1] = x.add_wrapping(two_q).sub_wrapping(y);
                }
            }
        }

        let mut m = 2;
        while m < self.n {
            let twiddles = &table[m..2 * m];
            let quotients = &shoup[m..2 * m];
            for block in data.chunks_exact_mut(2 * m) {
                let (xs, ys) = block.split_at_mut(m);
                for (((x, y), &w), &ws) in xs
                    .iter_mut()
                    .zip(ys.iter_mut())
                    .zip(twiddles)
                    .zip(quotients)
                {
                    debug_assert!(self.in_lazy_range(*x) && self.in_lazy_range(*y));
                    let xv = W::reduce_once(*x, two_q);
                    let t = W::mul_mod_shoup_lazy(*y, w, ws, q);
                    *x = xv.add_wrapping(t);
                    *y = xv.add_wrapping(two_q).sub_wrapping(t);
                }
            }
            m <<= 1;
        }
        debug_assert!(data.iter().all(|&v| self.in_lazy_range(v)));
    }

    /// `v < 4q`: the invariant every value between stages satisfies.
    fn in_lazy_range(&self, v: W) -> bool {
        v < self.two_q.add_wrapping(self.two_q)
    }

    /// One direction's twiddle table and its Shoup quotients.
    fn tables(&self, forward: bool) -> (&[W], &[W]) {
        if forward {
            (&self.fwd, &self.fwd_shoup)
        } else {
            (&self.inv, &self.inv_shoup)
        }
    }

    /// The twiddles of stage half-length `m` and their Shoup quotients.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a power of two in `[1, n)`.
    fn stage_tables(&self, forward: bool, m: usize) -> (&[W], &[W]) {
        assert!(
            m.is_power_of_two() && m < self.n,
            "stage half-length must be a power of two below n"
        );
        let (table, shoup) = self.tables(forward);
        (&table[m..2 * m], &shoup[m..2 * m])
    }
}

impl<const L: usize> Plan<MpUint<L>> {
    /// Builds a plan from existing transform parameters.
    ///
    /// # Panics
    ///
    /// Panics unless `4q < 2^(64·L)`, i.e. the modulus leaves two bits of
    /// headroom in its `L` words. The lazy butterflies keep values in `[0, 4q)`
    /// between stages. Every [`ModRing`] today holds a modulus of at most
    /// `64·L − 4` bits, but the plan does not inherit its headroom from that:
    /// this is a real `assert!` where the lazy discipline is entered (as in
    /// [`NttPlan64::from_ntt`]) — a violation in a release build would silently
    /// wrap the butterfly arithmetic.
    pub fn new(params: &NttParams<L>) -> Self {
        let q = params.ring.modulus();
        assert!(
            q.bits() + 2 <= MpUint::<L>::BITS,
            "lazy-reduction NTT requires q < 2^{} so values in [0, 4q) fit {} words (got {} bits)",
            MpUint::<L>::BITS - 2,
            L,
            q.bits()
        );
        Self::from_roots(
            params.ring,
            params.n,
            params.omega,
            params.omega_inv,
            params.n_inv,
            None,
        )
    }

    /// Convenience constructor: derives parameters for the evaluation modulus of
    /// `bits`-bit kernels and builds the plan.
    ///
    /// `alg` selects the products of the ring's Barrett multiplication — what
    /// the plan build and [`crate::polymul`]'s pointwise step run on. The
    /// butterflies do not consult it: their three products are fixed-shape
    /// schoolbook ([`ModRing::mul_mod_shoup_lazy`]).
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`NttParams::for_paper_modulus`].
    pub fn for_paper_modulus(n: usize, bits: u32, alg: MulAlgorithm) -> Self {
        Self::new(&NttParams::for_paper_modulus(n, bits, alg))
    }

    /// The twiddle factors of one butterfly stage, selected by direction and
    /// stage half-length `m` (a power of two below `n`): entry `j` is `ω_{2m}^j`,
    /// reduced. (Their Shoup quotients are derived data and stay private.)
    ///
    /// This — not the raw tables — is the interface stage-level executors
    /// consume plans through, so the table layout can change without breaking
    /// them.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a power of two in `[1, n)`.
    pub fn stage(&self, forward: bool, m: usize) -> &[MpUint<L>] {
        self.stage_tables(forward, m).0
    }
}

impl Plan<u64> {
    /// Builds the plan for an `n`-point transform over the 60-bit evaluation
    /// modulus.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two between 2 and 2^32.
    pub fn new(n: usize) -> Self {
        Self::from_ntt(&Ntt64::new(n))
    }

    /// Builds the plan for an `n`-point transform over an explicit NTT-friendly
    /// prime modulus — the `(q, n)`-keyed constructor session plan caches use.
    ///
    /// # Panics
    ///
    /// Panics when [`Ntt64::try_with_modulus`] refuses the key.
    pub fn with_modulus(q: u64, n: usize) -> Self {
        Self::try_with_modulus(q, n).unwrap_or_else(|e| panic!("{e} (q = {q}, n = {n})"))
    }

    /// [`NttPlan64::with_modulus`], returning why a key is refused (see
    /// [`Ntt64::try_with_modulus`]) instead of panicking — the entry point
    /// snapshot restore builds untrusted keys through. The 60-bit modulus cap
    /// implies the `q < 2^62` lazy-reduction bound.
    pub fn try_with_modulus(q: u64, n: usize) -> Result<Self, &'static str> {
        Ntt64::try_with_modulus(q, n).map(|ntt| Self::from_ntt(&ntt))
    }

    /// Builds the plan from an existing naive transform context (same modulus,
    /// same roots — the two paths compute identical transforms).
    ///
    /// # Panics
    ///
    /// Panics unless the modulus is below `2^62` (i.e. at 63 or more
    /// significant bits, or exactly `q = 2^62`). The Harvey lazy butterflies
    /// keep values in `[0, 4q)` between stages, so `4q` must fit a machine word;
    /// this is a real `assert!` (not a `debug_assert!`) because a violation in a
    /// release build would silently wrap the butterfly arithmetic instead of
    /// failing loudly. [`SingleBarrett::new`] already caps moduli at 60 bits, but
    /// the plan's invariant is `q < 2^62` and is enforced where the lazy
    /// discipline is entered, not inherited from a caller's context.
    pub fn from_ntt(ntt: &Ntt64) -> Self {
        let q = ntt.ctx.q;
        assert!(
            q < 1 << 62,
            "lazy-reduction NTT requires q < 2^62 so values in [0, 4q) fit a word (got {} bits)",
            64 - q.leading_zeros()
        );
        Self::from_roots(ntt.ctx, ntt.n, ntt.omega, ntt.omega_inv, ntt.n_inv, None)
    }

    /// Builds a **negacyclic** plan over `Z_q[X]/(X^n + 1)`: the transform pair
    /// that turns negacyclic (anti-circular) convolution into a pointwise
    /// product. Requires `q ≡ 1 (mod 2n)` so a primitive `2n`-th root of unity
    /// `ψ` exists; the cyclic stages then run over `ω = ψ²` while the `ψ^i`
    /// twist is folded into the first forward stage and the `ψ^{-i}` untwist
    /// into the inverse's scaling pass (see [`Twist64View`]) — the marginal
    /// cost over the cyclic transform is one Shoup multiply per element on each
    /// direction, with no separate pass.
    ///
    /// The search for `ψ` is deterministic (smallest generator base, as in
    /// [`Ntt64::with_modulus`]), so equal `(q, n)` always yield bit-identical
    /// plans — the property the session's negacyclic plan cache and snapshot
    /// restore rely on.
    ///
    /// # Panics
    ///
    /// Panics when [`NttPlan64::try_negacyclic`] refuses the key.
    pub fn negacyclic(q: u64, n: usize) -> Self {
        Self::try_negacyclic(q, n).unwrap_or_else(|e| panic!("{e} (q = {q}, n = {n})"))
    }

    /// [`NttPlan64::negacyclic`], returning why a key is refused instead of
    /// panicking: `n` not a power of two in `[2, 2^31]`, `q` not an odd prime
    /// below `2^60`, or `2n` not dividing `q − 1`.
    pub fn try_negacyclic(q: u64, n: usize) -> Result<Self, &'static str> {
        if !(n.is_power_of_two() && (2..=1 << 31).contains(&n)) {
            return Err("transform size must be a power of two in [2, 2^31]");
        }
        if !(3..1 << 60).contains(&q) {
            return Err("NTT modulus must be an odd prime below 2^60");
        }
        let two_n = 2 * n as u64;
        if (q - 1) % two_n != 0 {
            return Err(
                "negacyclic transform requires q ≡ 1 (mod 2n): no primitive 2n-th root otherwise",
            );
        }
        if !moma_bignum::prime::is_prime_u64(q) {
            return Err("NTT modulus must be prime");
        }
        let ctx = SingleBarrett::new(q);
        // Deterministic ψ search: ψ = g^((q−1)/2n) is a 2n-th root; it is
        // primitive exactly when ψ^n = −1 (its order divides 2n = 2^{k+1} but
        // not 2^k, hence equals 2n).
        let cofactor = (q - 1) / two_n;
        let psi = (3u64..2000)
            .map(|g| ctx.pow_mod(g, cofactor))
            .find(|&candidate| ctx.pow_mod(candidate, n as u64) == q - 1)
            .ok_or("no primitive 2n-th root found")?;
        let omega = ctx.mul_mod(psi, psi);
        let n_inv = ctx.inv_mod(n as u64 % q);
        Ok(Self::from_roots(
            ctx,
            n,
            omega,
            ctx.inv_mod(omega),
            n_inv,
            Some(psi),
        ))
    }

    /// `true` if this plan computes the negacyclic transform pair over
    /// `Z_q[X]/(X^n + 1)` rather than the cyclic one.
    pub fn is_negacyclic(&self) -> bool {
        self.twist.is_some()
    }

    /// Borrowed view of the negacyclic twist tables (`None` for cyclic plans):
    /// the folded forward first-stage factors and the inverse's combined
    /// untwist-and-scale factors, with their Shoup quotients.
    pub fn twist(&self) -> Option<Twist64View<'_>> {
        self.twist.as_ref().map(|t| Twist64View {
            psi: t.psi,
            forward: Stage64 {
                twiddles: &t.fwd_rev,
                shoup: &t.fwd_rev_shoup,
            },
            inverse_scale: Stage64 {
                twiddles: &t.inv_scale,
                shoup: &t.inv_scale_shoup,
            },
        })
    }

    /// The twiddle factors and Shoup quotients of one butterfly stage, selected
    /// by direction and stage half-length `m` (a power of two below `n`).
    ///
    /// This is the stable interface stage-level executors (the launcher, session
    /// batching) consume the plan through; the flat bit-reversed table layout
    /// stays an implementation detail.
    ///
    /// # Panics
    ///
    /// Panics if `m` is not a power of two in `[1, n)`.
    pub fn stage(&self, forward: bool, m: usize) -> Stage64<'_> {
        let (twiddles, shoup) = self.stage_tables(forward, m);
        Stage64 { twiddles, shoup }
    }

    /// `2q` — the upper bound of the lazy-reduction fold (values live in
    /// `[0, 4q)` between stages; see [`NttPlan64::from_ntt`]).
    pub fn two_q(&self) -> u64 {
        self.two_q
    }

    /// The inverse transform's final scaling factors as a table whose length
    /// is a power of two: the `n` per-index factors `ψ^{-i}·n^{-1}` of a
    /// negacyclic plan, or the single uniform `n^{-1}` of a cyclic one — so
    /// element `i` of either kind is scaled by entry `i & (len − 1)`.
    pub(crate) fn inverse_scale(&self) -> Stage64<'_> {
        match &self.twist {
            Some(tw) => Stage64 {
                twiddles: &tw.inv_scale,
                shoup: &tw.inv_scale_shoup,
            },
            None => Stage64 {
                twiddles: std::slice::from_ref(&self.n_inv),
                shoup: std::slice::from_ref(&self.n_inv_shoup),
            },
        }
    }
}

/// `start·ratio^i` for `i = 0, 1, 2, …`, one ring multiplication per term.
fn powers<W: NttWord>(ring: W::Ring, start: W, ratio: W) -> impl Iterator<Item = W> {
    std::iter::successors(Some(start), move |&p| Some(W::mul(&ring, p, ratio)))
}

/// Builds the flat bit-reversed-layout twiddle table for `root` (a primitive `n`-th
/// root of unity): entry `m + j` is `root^{(n/2m)·j}`, i.e. `ω_{2m}^j`.
fn build_table<W: NttWord>(ring: &W::Ring, root: W, n: usize) -> Vec<W> {
    // Entry 0 is padding, so stage m's twiddles sit at m..2m.
    let mut table = Vec::with_capacity(n);
    table.push(W::ONE);
    // stage_roots[k] = root^(n / 2^(k+1)) = ω_{2m} for m = 2^k, off one squaring ladder.
    for (k, w_2m) in stage_roots(ring, root, n).into_iter().enumerate() {
        table.extend(powers(*ring, W::ONE, w_2m).take(1 << k));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_dft;
    use crate::transform::{forward, inverse};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn plan_matches_naive_transform_128() {
        let params = NttParams::<2>::for_paper_modulus(64, 128, MulAlgorithm::Schoolbook);
        let plan = NttPlan::new(&params);
        let mut rng = StdRng::seed_from_u64(71);
        let data: Vec<_> = (0..64)
            .map(|_| params.ring.random_element(&mut rng))
            .collect();
        let mut a = data.clone();
        let mut b = data;
        forward(&params, &mut a);
        plan.forward(&mut b);
        assert_eq!(a, b, "planned forward must match the naive path");
        inverse(&params, &mut a);
        plan.inverse(&mut b);
        assert_eq!(a, b, "planned inverse must match the naive path");
    }

    /// `forward` pinned to the O(n²) definition of the DFT and `inverse` to the
    /// definition of its inverse, bit for bit, with every output reduced — on
    /// random inputs and on the ones that sit at the ends of the lazy range. A
    /// round trip alone would survive a range error made consistently in both
    /// directions.
    #[test]
    fn plan_matches_dft_oracle() {
        fn check<const L: usize>(bits: u32, n: usize) {
            let params = NttParams::<L>::for_paper_modulus(n, bits, MulAlgorithm::Schoolbook);
            let plan = NttPlan::new(&params);
            let ring = &params.ring;
            let q = ring.modulus();
            // Σ x[j]·ω^(−jk): the inverse's definition before its 1/n scaling.
            let conjugate = NttParams {
                omega: params.omega_inv,
                omega_inv: params.omega,
                ..params.clone()
            };
            let mut rng = StdRng::seed_from_u64(72 + bits as u64 + n as u64);
            let mut impulse = vec![MpUint::ZERO; n];
            impulse[1] = MpUint::ONE;
            let inputs = [
                (0..n).map(|_| ring.random_element(&mut rng)).collect(),
                vec![q.wrapping_sub(&MpUint::ONE); n],
                vec![MpUint::ZERO; n],
                impulse,
            ];
            for (case, data) in inputs.iter().enumerate() {
                let mut actual = data.clone();
                plan.forward(&mut actual);
                assert!(actual.iter().all(|x| *x < q), "{bits} bits, n={n}, #{case}");
                assert_eq!(
                    actual,
                    naive_dft(&params, data),
                    "{bits} bits, n={n}, #{case}"
                );
                let mut actual = data.clone();
                plan.inverse(&mut actual);
                assert!(actual.iter().all(|x| *x < q), "{bits} bits, n={n}, #{case}");
                let expected: Vec<_> = naive_dft(&conjugate, data)
                    .into_iter()
                    .map(|x| ring.mul(x, params.n_inv))
                    .collect();
                assert_eq!(actual, expected, "inverse: {bits} bits, n={n}, #{case}");
            }
        }
        check::<1>(64, 64);
        check::<2>(128, 2);
        check::<2>(128, 32);
        check::<2>(128, 1024);
        check::<4>(256, 32);
        check::<6>(384, 16);
        check::<16>(1024, 8);
    }

    /// The evaluation moduli have exactly `64L − 4` bits: `4q` fits with two bits
    /// to spare, and on the input that drives the lazy values highest (every
    /// coefficient `q − 1`) nothing between stages reaches `4q` — the per-stage
    /// `debug_assert!`s in `run_lazy` check every intermediate, the explicit
    /// assertion the last stage's.
    #[test]
    fn plan_paper_moduli_keep_lazy_values_below_4q() {
        fn check<const L: usize>(bits: u32, n: usize) {
            let plan = NttPlan::<L>::for_paper_modulus(n, bits, MulAlgorithm::Schoolbook);
            let q = plan.ring.modulus();
            assert_eq!(q.bits(), bits - 4);
            let four_q = plan
                .two_q
                .checked_add(&plan.two_q)
                .expect("4q must fit the word count");
            assert_eq!(plan.two_q, q.checked_add(&q).expect("no wrap computing 2q"));
            let data = vec![q.wrapping_sub(&MpUint::ONE); n];
            for forward in [true, false] {
                let mut lazy = data.clone();
                plan.run_lazy(&mut lazy, forward);
                assert!(lazy.iter().all(|x| *x < four_q), "{bits} bits");
            }
            let mut work = data.clone();
            plan.forward(&mut work);
            assert!(work.iter().all(|x| *x < q));
            plan.inverse(&mut work);
            assert_eq!(work, data, "{bits} bits");
        }
        check::<1>(64, 64);
        check::<2>(128, 256);
        check::<3>(192, 16);
        check::<4>(256, 16);
        check::<5>(320, 16);
        check::<6>(384, 16);
        check::<8>(512, 8);
        check::<12>(768, 8);
        check::<16>(1024, 8);
    }

    #[test]
    fn plan_roundtrip_at_multiple_widths() {
        fn roundtrip<const L: usize>(bits: u32, n: usize) {
            let plan = NttPlan::<L>::for_paper_modulus(n, bits, MulAlgorithm::Schoolbook);
            let mut rng = StdRng::seed_from_u64(bits as u64 + n as u64);
            let data: Vec<_> = (0..n).map(|_| plan.ring.random_element(&mut rng)).collect();
            let mut work = data.clone();
            plan.forward(&mut work);
            assert_ne!(work, data);
            plan.inverse(&mut work);
            assert_eq!(work, data, "{bits} bits, n={n}");
        }
        roundtrip::<2>(128, 64);
        roundtrip::<4>(256, 32);
        roundtrip::<6>(384, 16);
    }

    #[test]
    fn plan64_matches_naive_ntt64() {
        let ntt = Ntt64::new(512);
        let plan = NttPlan64::from_ntt(&ntt);
        let mut rng = StdRng::seed_from_u64(73);
        let data: Vec<u64> = (0..512).map(|_| rng.gen::<u64>() % ntt.ctx.q).collect();
        let mut a = data.clone();
        let mut b = data.clone();
        ntt.forward(&mut a);
        plan.forward(&mut b);
        assert_eq!(a, b, "planned u64 forward must match the naive path");
        ntt.inverse(&mut a);
        plan.inverse(&mut b);
        assert_eq!(a, b, "planned u64 inverse must match the naive path");
        assert_eq!(a, data, "inverse ∘ forward must be the identity");
    }

    #[test]
    fn plan64_outputs_are_fully_reduced() {
        let plan = NttPlan64::new(256);
        let mut rng = StdRng::seed_from_u64(74);
        let mut data: Vec<u64> = (0..256).map(|_| rng.gen::<u64>() % plan.ring.q).collect();
        plan.forward(&mut data);
        assert!(data.iter().all(|&x| x < plan.ring.q));
        plan.inverse(&mut data);
        assert!(data.iter().all(|&x| x < plan.ring.q));
    }

    /// The normalize pass sees the whole lazy range: at the ladder's 60-bit
    /// prime (n = 4096) the stages leave values in `[3q, 4q)`, and `forward`
    /// still reduces every one to its residue.
    #[test]
    fn plan64_forward_normalizes_the_top_of_the_lazy_range() {
        let q = 0x0fff_ffff_ffff_c001;
        let mut rng = StdRng::seed_from_u64(80);
        for plan in [
            NttPlan64::with_modulus(q, 4096),
            NttPlan64::negacyclic(q, 4096),
        ] {
            let data: Vec<u64> = (0..4096).map(|_| rng.gen_range(0..q)).collect();
            let mut lazy = data.clone();
            plan.run_lazy(&mut lazy, true);
            assert!(lazy.iter().all(|&v| v < 4 * q));
            assert!(
                lazy.iter().any(|&v| v >= 3 * q),
                "the stages must reach the top quarter"
            );
            let mut out = data;
            plan.forward(&mut out);
            let residues: Vec<u64> = lazy.iter().map(|&v| v % q).collect();
            assert_eq!(out, residues, "negacyclic: {}", plan.is_negacyclic());
        }
    }

    #[test]
    #[should_panic(expected = "q < 2^62")]
    fn plan64_rejects_moduli_at_the_lazy_reduction_boundary() {
        // Forge a context whose modulus breaks the [0, 4q) word-width invariant
        // (SingleBarrett::new itself would reject it, but the plan must not rely
        // on every caller having gone through that constructor).
        let good = Ntt64::new(4);
        let forged = Ntt64 {
            n: good.n,
            ctx: SingleBarrett {
                q: 1 << 62,
                mu: 1,
                mbits: 63,
                radix: 0,
                recip: 0,
            },
            omega: good.omega,
            omega_inv: good.omega_inv,
            n_inv: good.n_inv,
        };
        NttPlan64::from_ntt(&forged);
    }

    #[test]
    fn plan64_boundary_modulus_keeps_lazy_values_in_range() {
        // The largest modulus the stack can build is 60-bit, comfortably below
        // the 2^62 bound: 4q must fit a u64 and a forward/inverse round trip must
        // stay exact on inputs packed at the top of the reduced range.
        let plan = NttPlan64::new(64);
        assert!(plan.ring.q < 1 << 62);
        assert_eq!(plan.two_q, 2 * plan.ring.q); // no wrap computing 2q
        assert!(plan.two_q.checked_mul(2).is_some(), "4q must fit a u64");
        let data: Vec<u64> = (0..64).map(|i| plan.ring.q - 1 - i as u64).collect();
        let mut work = data.clone();
        plan.forward(&mut work);
        assert!(work.iter().all(|&x| x < plan.ring.q));
        plan.inverse(&mut work);
        assert_eq!(work, data);
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn plan_wrong_length_panics() {
        let plan = NttPlan::<2>::for_paper_modulus(16, 128, MulAlgorithm::Schoolbook);
        let mut data = vec![MpUint::ZERO; 8];
        plan.forward(&mut data);
    }

    /// Schoolbook negacyclic convolution in `Z_q[X]/(X^n + 1)`: products that
    /// wrap past degree `n` come back negated.
    fn naive_negacyclic_mul(ctx: &SingleBarrett, a: &[u64], b: &[u64]) -> Vec<u64> {
        let n = a.len();
        let mut c = vec![0u64; n];
        for (i, &ai) in a.iter().enumerate() {
            for (j, &bj) in b.iter().enumerate() {
                let p = ctx.mul_mod(ai, bj);
                let k = (i + j) % n;
                c[k] = if i + j < n {
                    ctx.add_mod(c[k], p)
                } else {
                    ctx.sub_mod(c[k], p)
                };
            }
        }
        c
    }

    #[test]
    fn negacyclic_roundtrip_and_reduction() {
        for (q, n) in [(12289u64, 2usize), (12289, 8), (12289, 256)] {
            let plan = NttPlan64::negacyclic(q, n);
            assert!(plan.is_negacyclic());
            assert!(!NttPlan64::with_modulus(q, n).is_negacyclic());
            let psi = plan.twist().expect("negacyclic plan has a twist").psi;
            assert_eq!(
                plan.ring.pow_mod(psi, n as u64),
                q - 1,
                "ψ^n = −1 (q = {q}, n = {n})"
            );
            let mut rng = StdRng::seed_from_u64(q ^ n as u64);
            let data: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % q).collect();
            let mut work = data.clone();
            plan.forward(&mut work);
            assert!(work.iter().all(|&x| x < q), "forward outputs reduced");
            assert_ne!(work, data);
            plan.inverse(&mut work);
            assert!(work.iter().all(|&x| x < q), "inverse outputs reduced");
            assert_eq!(work, data, "inverse ∘ forward must be the identity");
        }
    }

    #[test]
    fn negacyclic_pointwise_product_matches_schoolbook_oracle() {
        for n in [4usize, 32, 128] {
            let plan = NttPlan64::negacyclic(12289, n);
            let ctx = plan.ring;
            let mut rng = StdRng::seed_from_u64(1000 + n as u64);
            let a: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % ctx.q).collect();
            let b: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % ctx.q).collect();
            let expected = naive_negacyclic_mul(&ctx, &a, &b);
            let mut fa = a.clone();
            let mut fb = b.clone();
            plan.forward(&mut fa);
            plan.forward(&mut fb);
            let mut fc: Vec<u64> = fa
                .iter()
                .zip(&fb)
                .map(|(&x, &y)| ctx.mul_mod(x, y))
                .collect();
            plan.inverse(&mut fc);
            assert_eq!(
                fc, expected,
                "transform → pointwise → inverse must equal the X^n+1 schoolbook (n = {n})"
            );
        }
    }

    #[test]
    fn negacyclic_on_default_evaluation_modulus() {
        // The 60-bit paper modulus has the form c·2^32 + 1, so every power-of-two
        // 2n up to 2^32 divides q − 1 and the negacyclic plan exists at scale.
        let cyclic = NttPlan64::new(64);
        let q = cyclic.ring.q;
        let plan = NttPlan64::negacyclic(q, 64);
        let ctx = plan.ring;
        let mut rng = StdRng::seed_from_u64(77);
        let a: Vec<u64> = (0..64).map(|_| rng.gen::<u64>() % q).collect();
        let b: Vec<u64> = (0..64).map(|_| rng.gen::<u64>() % q).collect();
        let expected = naive_negacyclic_mul(&ctx, &a, &b);
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let mut fc: Vec<u64> = fa
            .iter()
            .zip(&fb)
            .map(|(&x, &y)| ctx.mul_mod(x, y))
            .collect();
        plan.inverse(&mut fc);
        assert_eq!(fc, expected);
    }

    #[test]
    fn try_constructors_refuse_what_the_panicking_ones_panic_on() {
        // 65 = 5 · 13 is ≡ 1 mod 64 but composite; 17 is prime but 64 ∤ 16;
        // 2^60 + 1 is past the single-word Barrett cap.
        for (q, n) in [
            (65u64, 32usize),
            (17, 64),
            ((1 << 60) + 1, 2),
            (12289, 48),
            (0, 2),
        ] {
            assert!(
                NttPlan64::try_with_modulus(q, n).is_err(),
                "cyclic ({q}, {n})"
            );
            assert!(
                NttPlan64::try_negacyclic(q, n).is_err(),
                "negacyclic ({q}, {n})"
            );
        }
        // 12289 = 3 · 2^12 + 1 admits a cyclic plan at n = 4096 but no
        // negacyclic one (that needs 2n | q − 1).
        assert!(NttPlan64::try_with_modulus(12289, 4096).is_ok());
        assert_eq!(
            NttPlan64::try_negacyclic(12289, 4096).err(),
            Some("negacyclic transform requires q ≡ 1 (mod 2n): no primitive 2n-th root otherwise")
        );
        let fallible = NttPlan64::try_negacyclic(12289, 64).expect("valid key");
        let panicking = NttPlan64::negacyclic(12289, 64);
        let mut a: Vec<u64> = (0..64).collect();
        let mut b = a.clone();
        fallible.forward(&mut a);
        panicking.forward(&mut b);
        assert_eq!(a, b, "one constructor behind both entry points");
        // q = 3, n = 2 is a valid key (ω = 2 = −1): the root search must skip
        // the base g = 3 ≡ 0, not give up on it.
        let tiny = NttPlan64::try_with_modulus(3, 2).expect("valid key");
        let mut row = vec![1u64, 2];
        tiny.forward(&mut row);
        assert_eq!(row, [0, 2], "(1 + 2, 1 − 2) mod 3");
        tiny.inverse(&mut row);
        assert_eq!(row, [1, 2]);
    }

    /// `NttPlan::<1>` over the 64-bit paper modulus and `NttPlan64::new` share
    /// the modulus and the root search, so the two instantiations of the one
    /// loop must agree bit for bit — this pins the `MpUint` and `u64` word
    /// impls against each other.
    #[test]
    fn one_word_and_multiword_plans_agree_bit_for_bit() {
        let widen =
            |v: &[u64]| -> Vec<MpUint<1>> { v.iter().map(|&x| MpUint::from_u64(x)).collect() };
        let mut rng = StdRng::seed_from_u64(81);
        for log_n in 1..=12 {
            let n = 1usize << log_n;
            let word = NttPlan64::new(n);
            let limbs = NttPlan::<1>::for_paper_modulus(n, 64, MulAlgorithm::Schoolbook);
            let q = word.ring.q;
            assert_eq!(limbs.ring.modulus(), MpUint::from_u64(q));
            let data: Vec<u64> = (0..n)
                .map(|i| {
                    if i % 3 == 0 {
                        q - 1
                    } else {
                        rng.gen_range(0..q)
                    }
                })
                .collect();
            let mut a = data.clone();
            let mut b = widen(&data);
            word.forward(&mut a);
            limbs.forward(&mut b);
            assert_eq!(b, widen(&a), "forward, n = {n}");
            word.inverse(&mut a);
            limbs.inverse(&mut b);
            assert_eq!(a, data, "n = {n}");
            assert_eq!(b, widen(&a), "inverse, n = {n}");
        }
    }

    /// The one loop states its input contract on both words.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "inputs must be reduced")]
    fn plan64_rejects_unreduced_inputs() {
        let plan = NttPlan64::new(8);
        let mut data = vec![1u64; 8];
        data[5] = plan.ring.q;
        plan.forward(&mut data);
    }
}
