//! Single-word modular arithmetic — the runtime equivalent of the paper's Listing 1.
//!
//! All inputs fit in one 64-bit machine word, intermediate results use the
//! compiler-supported double word (`u128`), and modular multiplication uses Barrett
//! reduction with the precomputed constant `μ = ⌊2^(2m+3) / q⌋` where `m` is the
//! modulus bit-width (at most 60 = 64 − 4, as in the paper's `MBITS`).

/// Precomputed single-word Barrett parameters for a modulus `q`.
///
/// # Example
///
/// ```
/// use moma_mp::single::SingleBarrett;
///
/// let q = 0x0fff_ffff_ffff_ff9Bu64; // a 60-bit modulus
/// let ctx = SingleBarrett::new(q);
/// assert_eq!(ctx.mul_mod(3, 5), 15);
/// assert_eq!(ctx.mul_mod(q - 1, q - 1), 1); // (-1)^2 = 1
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SingleBarrett {
    /// The modulus.
    pub q: u64,
    /// The Barrett constant `⌊2^(2·mbits+3) / q⌋`.
    pub mu: u64,
    /// Significant bits of the modulus.
    pub mbits: u32,
    /// The limb-radix residue `2^64 mod q`, precomputed for
    /// [`Self::reduce_wide`]'s high-word fold.
    pub radix: u64,
    /// The word reciprocal `⌊2^64 / q⌋`, precomputed so reducing a full machine
    /// word modulo `q` ([`Self::reduce_word`]) costs two multiplications and a
    /// conditional subtraction instead of a hardware division.
    pub recip: u64,
}

impl SingleBarrett {
    /// Creates the context for modulus `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2` or `q` has more than 60 bits (the paper's `MBITS` bound,
    /// needed so that μ itself fits in a machine word).
    pub fn new(q: u64) -> Self {
        assert!(q >= 2, "modulus must be at least 2");
        let mbits = 64 - q.leading_zeros();
        assert!(
            mbits <= 60,
            "single-word Barrett requires a modulus of at most 60 bits (got {mbits})"
        );
        // mu = floor(2^(2*mbits+3) / q) fits in 64 bits because q >= 2^(mbits-1).
        let mu = ((1u128 << (2 * mbits + 3)) / q as u128) as u64;
        let radix = {
            let r = (u64::MAX % q) + 1;
            if r == q {
                0
            } else {
                r
            }
        };
        // recip = floor(2^64 / q) <= 2^63 for q >= 2, so it fits a word.
        let recip = ((1u128 << 64) / q as u128) as u64;
        SingleBarrett {
            q,
            mu,
            mbits,
            radix,
            recip,
        }
    }

    /// `(a + b) mod q` (paper `_saddmod`). Inputs must already be reduced.
    #[inline]
    pub fn add_mod(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let t = a as u128 + b as u128;
        if t >= self.q as u128 {
            (t - self.q as u128) as u64
        } else {
            t as u64
        }
    }

    /// `(a - b) mod q` (paper `_ssubmod`). Inputs must already be reduced.
    #[inline]
    pub fn sub_mod(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let t = a.wrapping_sub(b);
        if a < b {
            t.wrapping_add(self.q)
        } else {
            t
        }
    }

    /// `(a · b) mod q` via Barrett reduction (paper `_smulmod`).
    #[inline]
    pub fn mul_mod(&self, a: u64, b: u64) -> u64 {
        debug_assert!(a < self.q && b < self.q);
        let t = a as u128 * b as u128;
        // r = ((t >> (m-2)) * mu) >> (m+5)  ≈  floor(t / q), off by at most one.
        let r = (t >> (self.mbits - 2)) * self.mu as u128;
        let r = r >> (self.mbits + 5);
        let mut c = t - r * self.q as u128;
        if c >= self.q as u128 {
            c -= self.q as u128;
        }
        debug_assert!(c < self.q as u128);
        c as u64
    }

    /// Returns `true` if the modulus qualifies for the narrow fast path
    /// ([`Self::mul_mod_narrow`]): at most 32 significant bits, so the product of
    /// two reduced inputs fits one machine word.
    ///
    /// **Dispatch rule:** callers that select a multiplication routine per modulus
    /// must branch on this *once, where the routine is chosen* (e.g. when a plan
    /// is built), not rely on every call site remembering the precondition —
    /// `mul_mod_narrow` on a wide modulus silently truncates in release builds.
    /// `RnsPlan::new` in `moma-rns` is the reference caller: it records the
    /// verdict per basis modulus at construction and routes wide rows through
    /// [`Self::mul_mod`].
    #[inline]
    pub fn is_narrow(&self) -> bool {
        self.mbits <= 32
    }

    /// `(a · b) mod q` for *narrow* moduli (at most 32 bits): the same Barrett
    /// reduction as [`Self::mul_mod`], but since reduced inputs multiply to one
    /// machine word, the whole computation needs a single widening `u128`
    /// multiplication (against `μ`) instead of three. This is the hot kernel of
    /// the RNS residue planes, whose 31-bit moduli always qualify.
    ///
    /// For moduli wider than 32 bits the single-word product `a · b` wraps and
    /// the result is silently wrong in release builds — gate on
    /// [`Self::is_narrow`] where the path is selected (see its dispatch rule).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the modulus has more than 32 bits or the
    /// inputs are not reduced.
    #[inline]
    pub fn mul_mod_narrow(&self, a: u64, b: u64) -> u64 {
        debug_assert!(self.mbits <= 32, "narrow path requires a 32-bit modulus");
        debug_assert!(a < self.q && b < self.q);
        // t < 2^(2·mbits) ≤ 2^64: the full product is one word.
        let t = a * b;
        // r ≈ floor(t / q), off by at most one (same bound as `mul_mod`):
        // (t >> (mbits−2)) < 2^(mbits+2) and μ < 2^(mbits+4), so the product fits
        // comfortably in the single widening multiplication below.
        let r = (((t >> (self.mbits - 2)) as u128 * self.mu as u128) >> (self.mbits + 5)) as u64;
        let mut c = t.wrapping_sub(r.wrapping_mul(self.q));
        if c >= self.q {
            c -= self.q;
        }
        debug_assert!(c < self.q);
        c
    }

    /// Precomputes the Shoup quotient `⌊w · 2^64 / q⌋` for a fixed multiplicand
    /// `w < q`.
    ///
    /// Shoup's trick trades one division at precompute time for a much cheaper
    /// multiplication at use time: with the quotient in hand, [`Self::mul_mod_shoup`]
    /// needs one high-half `u128` multiplication and two wrapping `u64`
    /// multiplications instead of the three `u128` multiplications of Barrett
    /// reduction. It is the single-word analogue of the paper's precomputed-constant
    /// strategy (`μ` in Listing 1), applied per twiddle factor by the NTT plan.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `w >= q`.
    #[inline]
    pub fn shoup_precompute(&self, w: u64) -> u64 {
        debug_assert!(w < self.q);
        (((w as u128) << 64) / self.q as u128) as u64
    }

    /// Lazy Shoup multiplication: returns `x · w − ⌊x · w / q⌋_approx · q`, a value
    /// congruent to `x · w (mod q)` in the half-reduced range `[0, 2q)`.
    ///
    /// `w_shoup` must be [`Self::shoup_precompute`]`(w)`. The input `x` may itself be
    /// lazily reduced: any `x < 4q` is accepted (the constructor's 60-bit modulus
    /// bound guarantees `4q < 2^64`, which is what makes the error term stay below
    /// one extra `q`). Callers chaining butterflies keep values in `[0, 4q)` and
    /// normalize once at the end — the lazy-reduction discipline of the NTT hot path.
    #[inline]
    pub fn mul_mod_shoup_lazy(&self, x: u64, w: u64, w_shoup: u64) -> u64 {
        debug_assert!(w < self.q);
        debug_assert!((x as u128) < 4 * self.q as u128);
        let hi = ((w_shoup as u128 * x as u128) >> 64) as u64;
        w.wrapping_mul(x).wrapping_sub(hi.wrapping_mul(self.q))
    }

    /// Fully reduced Shoup multiplication: `(x · w) mod q` with `w_shoup`
    /// precomputed by [`Self::shoup_precompute`]. Accepts `x < 4q` like the lazy
    /// variant and adds the single conditional subtraction the lazy variant omits.
    #[inline]
    pub fn mul_mod_shoup(&self, x: u64, w: u64, w_shoup: u64) -> u64 {
        let r = self.mul_mod_shoup_lazy(x, w, w_shoup);
        if r >= self.q {
            r - self.q
        } else {
            r
        }
    }

    /// Reduces a full machine word modulo `q`: `x mod q` for any `x`, with no
    /// hardware division — one widening multiplication against the precomputed
    /// reciprocal, one low multiplication, one conditional subtraction.
    ///
    /// With `recip = ⌊2^64/q⌋ = (2^64 − ρ)/q` (`0 ≤ ρ < q`), the quotient
    /// estimate `q̂ = ⌊x·recip/2^64⌋` satisfies `x/q − 2 < q̂ ≤ x/q`, so
    /// `x − q̂·q ∈ [0, 2q)` and a single conditional subtraction finishes.
    #[inline]
    pub fn reduce_word(&self, x: u64) -> u64 {
        let qhat = ((x as u128 * self.recip as u128) >> 64) as u64;
        let r = x.wrapping_sub(qhat.wrapping_mul(self.q));
        let r = if r >= self.q { r - self.q } else { r };
        debug_assert_eq!(r, x % self.q);
        r
    }

    /// Reduces a full double-word value modulo `q`: `t mod q` for any `t < 2^128`.
    ///
    /// This is the closing step of a widening sum-of-products reduction: callers
    /// accumulate `Σ aᵢ·bᵢ` exactly in a `u128` (see [`smac`]) and reduce once at
    /// the end, instead of performing one modular reduction per term. The high
    /// word is folded in through the precomputed radix residue `2^64 mod q`, and
    /// both word reductions go through the division-free [`Self::reduce_word`].
    /// The fold runs for every `t`, with no branch on whether the high word is
    /// zero: a sum of products straddles `2^64` unpredictably.
    #[inline]
    pub fn reduce_wide(&self, t: u128) -> u64 {
        let hi = (t >> 64) as u64;
        let lo = t as u64;
        // t = hi·2^64 + lo ≡ (hi mod q)·(2^64 mod q) + (lo mod q)  (mod q);
        // both factors are reduced, so `mul_mod` is exact (and 0 when hi = 0).
        let folded = self.mul_mod(self.reduce_word(hi), self.radix);
        self.add_mod(folded, self.reduce_word(lo))
    }

    /// Modular exponentiation by square-and-multiply.
    pub fn pow_mod(&self, base: u64, mut exp: u64) -> u64 {
        let mut result = 1 % self.q;
        let mut base = base % self.q;
        while exp > 0 {
            if exp & 1 == 1 {
                result = self.mul_mod(result, base);
            }
            base = self.mul_mod(base, base);
            exp >>= 1;
        }
        result
    }

    /// Modular inverse for prime `q` via Fermat's little theorem.
    pub fn inv_mod(&self, a: u64) -> u64 {
        self.pow_mod(a, self.q - 2)
    }
}

/// Widening single-word multiply-accumulate: `acc + a · b` in the full 128-bit
/// accumulator — the inner step of sum-of-products reductions (RNS base
/// extension accumulates one of these per source modulus, then reduces once via
/// [`SingleBarrett::reduce_wide`]).
///
/// The accumulator has at least 8 bits of headroom over any sum of ≤ 2^8
/// products of 60-bit values, far beyond any practical basis size; debug builds
/// panic on the (theoretical) overflow, release builds are saturation-free
/// because callers bound the term count (see `BaseConvPlan::new` in `moma-rns`).
#[inline]
pub fn smac(acc: u128, a: u64, b: u64) -> u128 {
    debug_assert!(
        acc.checked_add(a as u128 * b as u128).is_some(),
        "sum-of-products accumulator overflowed"
    );
    acc.wrapping_add(a as u128 * b as u128)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 60-bit NTT-friendly prime: q = 0x0FFF_FFA0_0000_0001 (q ≡ 1 mod 2^32).
    const Q60: u64 = 0x0FFF_FFA0_0000_0001;

    #[test]
    fn context_construction() {
        let ctx = SingleBarrett::new(Q60);
        assert_eq!(ctx.mbits, 60);
        assert_eq!(ctx.mu, ((1u128 << 123) / Q60 as u128) as u64);
    }

    #[test]
    #[should_panic(expected = "at most 60 bits")]
    fn oversized_modulus_rejected() {
        SingleBarrett::new(u64::MAX);
    }

    #[test]
    fn add_sub_mod_inverse_each_other() {
        let ctx = SingleBarrett::new(Q60);
        let a = Q60 - 3;
        let b = Q60 - 7;
        let s = ctx.add_mod(a, b);
        assert!(s < Q60);
        assert_eq!(ctx.sub_mod(s, b), a);
        assert_eq!(ctx.sub_mod(0, 1), Q60 - 1);
    }

    #[test]
    fn mul_mod_matches_u128_reference() {
        let ctx = SingleBarrett::new(Q60);
        let cases = [
            (0u64, 0u64),
            (1, Q60 - 1),
            (Q60 - 1, Q60 - 1),
            (123456789, 987654321),
            (Q60 / 2, Q60 / 3),
        ];
        for (a, b) in cases {
            let expected = ((a as u128 * b as u128) % Q60 as u128) as u64;
            assert_eq!(ctx.mul_mod(a, b), expected, "a={a} b={b}");
        }
    }

    #[test]
    fn mul_mod_randomized_against_reference() {
        let ctx = SingleBarrett::new(Q60);
        let mut state = 0x853c49e6748fea9bu64;
        for _ in 0..10_000 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = state % Q60;
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let b = state % Q60;
            let expected = ((a as u128 * b as u128) % Q60 as u128) as u64;
            assert_eq!(ctx.mul_mod(a, b), expected);
        }
    }

    #[test]
    fn narrow_mul_matches_reference() {
        for q in [3u64, 17, 65537, 2_147_483_647, 4_294_967_291] {
            let ctx = SingleBarrett::new(q);
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for _ in 0..2_000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = state % q;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let b = state % q;
                let expected = ((a as u128 * b as u128) % q as u128) as u64;
                assert_eq!(ctx.mul_mod_narrow(a, b), expected, "q={q} a={a} b={b}");
            }
            // Extremes.
            assert_eq!(ctx.mul_mod_narrow(q - 1, q - 1), ctx.mul_mod(q - 1, q - 1));
            assert_eq!(ctx.mul_mod_narrow(0, q - 1), 0);
        }
    }

    #[test]
    fn pow_and_inverse() {
        let ctx = SingleBarrett::new(Q60);
        assert_eq!(ctx.pow_mod(2, 10), 1024);
        assert_eq!(ctx.pow_mod(5, 0), 1);
        // Fermat: a^(q-1) = 1 for prime q.
        assert_eq!(ctx.pow_mod(123456789, Q60 - 1), 1);
        let inv = ctx.inv_mod(123456789);
        assert_eq!(ctx.mul_mod(inv, 123456789), 1);
    }

    #[test]
    fn shoup_matches_barrett_reference() {
        let ctx = SingleBarrett::new(Q60);
        let mut state = 0x2545f4914f6cdd1du64;
        for _ in 0..5_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let w = state % Q60;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = state % Q60;
            let ws = ctx.shoup_precompute(w);
            let expected = ((x as u128 * w as u128) % Q60 as u128) as u64;
            assert_eq!(ctx.mul_mod_shoup(x, w, ws), expected, "x={x} w={w}");
            let lazy = ctx.mul_mod_shoup_lazy(x, w, ws);
            assert!(lazy < 2 * Q60, "lazy result must stay below 2q");
            assert_eq!(lazy % Q60, expected, "lazy result must be congruent");
        }
    }

    #[test]
    fn shoup_accepts_lazily_reduced_inputs() {
        // Inputs anywhere in [0, 4q) must produce a congruent result below 2q.
        let ctx = SingleBarrett::new(Q60);
        let w = Q60 - 12345;
        let ws = ctx.shoup_precompute(w);
        for x in [0, 1, Q60 - 1, Q60, 2 * Q60 - 1, 3 * Q60 + 17, 4 * Q60 - 1] {
            let lazy = ctx.mul_mod_shoup_lazy(x, w, ws);
            assert!(lazy < 2 * Q60);
            let expected = ((x as u128 % Q60 as u128) * w as u128 % Q60 as u128) as u64;
            assert_eq!(lazy % Q60, expected);
            assert_eq!(ctx.mul_mod_shoup(x, w, ws), expected);
        }
    }

    #[test]
    fn widening_helpers() {
        assert_eq!(smac(10, 3, 4), 22);
        assert_eq!(
            smac(1 << 60, u64::MAX, u64::MAX),
            (1u128 << 60) + u64::MAX as u128 * u64::MAX as u128
        );
    }

    #[test]
    fn narrow_predicate_flips_at_32_bits() {
        // (2^32 − 1) has exactly 32 significant bits; 2^32 has 33.
        assert!(SingleBarrett::new((1 << 32) - 1).is_narrow());
        assert!(!SingleBarrett::new(1 << 32).is_narrow());
        assert!(!SingleBarrett::new((1 << 32) + 1).is_narrow());
        assert!(SingleBarrett::new((1 << 31) + 11).is_narrow());
        assert!(!SingleBarrett::new(Q60).is_narrow());
    }

    #[test]
    fn reduce_word_matches_hardware_division() {
        for q in [
            2u64,
            3,
            7,
            65537,
            2_147_483_647,
            4_294_967_291,
            1 << 32,
            Q60,
        ] {
            let ctx = SingleBarrett::new(q);
            for x in [0u64, 1, q - 1, q, q + 1, 2 * q + 3, u64::MAX, u64::MAX - q] {
                assert_eq!(ctx.reduce_word(x), x % q, "q={q} x={x}");
            }
            let mut state = 0xfeed_f00d_dead_beefu64;
            for _ in 0..2_000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                assert_eq!(ctx.reduce_word(state), state % q, "q={q} x={state}");
            }
        }
    }

    #[test]
    fn reduce_wide_matches_u128_reference() {
        for q in [2u64, 3, 65537, 2_147_483_647, 4_294_967_291, Q60] {
            let ctx = SingleBarrett::new(q);
            let radix_expected = ((1u128 << 64) % q as u128) as u64;
            assert_eq!(ctx.radix, radix_expected, "q={q}");
            let mut state = 0x0123_4567_89ab_cdefu64;
            for _ in 0..2_000 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let hi = state;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let lo = state;
                let t = (hi as u128) << 64 | lo as u128;
                assert_eq!(ctx.reduce_wide(t), (t % q as u128) as u64, "q={q} t={t}");
            }
            // Both sides of 2^64, where the high word turns non-zero.
            let word = 1u128 << 64;
            let q128 = q as u128;
            for t in [
                0,
                1,
                q128 - 1,
                q128,
                word - q128,
                word - 2,
                word - 1,
                word,
                word + 1,
                word + q128,
                2 * word - 1,
                u128::MAX - q128,
                u128::MAX,
            ] {
                assert_eq!(ctx.reduce_wide(t), (t % q128) as u64, "q={q} t={t}");
            }
        }
    }

    #[test]
    fn small_moduli() {
        for q in [2u64, 3, 17, 257, 65537] {
            let ctx = SingleBarrett::new(q);
            for a in 0..q.min(50) {
                for b in 0..q.min(50) {
                    assert_eq!(ctx.mul_mod(a, b), (a * b) % q);
                    assert_eq!(ctx.add_mod(a, b), (a + b) % q);
                }
            }
        }
    }
}
