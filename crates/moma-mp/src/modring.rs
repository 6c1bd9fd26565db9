//! A modular-ring context over [`MpUint`] elements.
//!
//! [`ModRing`] bundles a modulus with its multi-word Barrett reduction (the paper's
//! Listing 4, see the `barrett` module) and exposes the exact operation set a
//! cryptographic kernel needs: `add`, `sub`, `mul`, `pow`, `inv`, plus element
//! sampling. The NTT and BLAS crates are generic over the limb count `L` and use
//! this context for every butterfly / element operation.

use crate::barrett::{compute_mu, shr_wide};
use crate::{MpUint, MulAlgorithm};
use rand::Rng;

/// A modular ring `Z_q` over `L`-limb elements, for a modulus of at most `64·L − 4`
/// bits (the paper's `k − 4`-bit convention), with Barrett multiplication.
///
/// # Example
///
/// ```
/// use moma_mp::{ModRing, U128};
///
/// let q = U128::from_hex("fffffffffffffffffffffffffffff61"); // 124 bits
/// let ring = ModRing::new(q);
/// let a = U128::from_u64(10);
/// let b = U128::from_u64(32);
/// assert_eq!(ring.mul(a, b), U128::from_u64(320));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModRing<const L: usize> {
    /// The modulus `q`.
    q: MpUint<L>,
    /// The Barrett constant `μ = ⌊2^(2·mbits+3) / q⌋`.
    mu: MpUint<L>,
    /// Significant bits of `q`.
    mbits: u32,
    /// The algorithm of the three wide products in [`Self::mul`].
    mul_algorithm: MulAlgorithm,
}

impl<const L: usize> ModRing<L> {
    /// Creates a ring with Barrett reduction and schoolbook multiplication.
    ///
    /// # Panics
    ///
    /// Panics if `q < 2` or `q` has more than `64·L − 4` significant bits.
    pub fn new(q: MpUint<L>) -> Self {
        Self::with_mul_algorithm(q, MulAlgorithm::Schoolbook)
    }

    /// Creates a ring with Barrett reduction and an explicit multiplication
    /// algorithm (the paper's Figure 5b ablation).
    ///
    /// # Panics
    ///
    /// Panics if `q < 2` or `q` has more than `64·L − 4` significant bits.
    pub fn with_mul_algorithm(q: MpUint<L>, mul_algorithm: MulAlgorithm) -> Self {
        let mbits = q.bits();
        assert!(mbits >= 2, "modulus must be at least 2");
        assert!(
            mbits + 4 <= 64 * L as u32,
            "Barrett requires a modulus of at most {} bits for a {}-bit kernel (got {})",
            64 * L as u32 - 4,
            64 * L as u32,
            mbits
        );
        ModRing {
            q,
            mu: compute_mu(&q, mbits),
            mbits,
            mul_algorithm,
        }
    }

    /// The modulus `q`.
    #[inline]
    pub fn modulus(&self) -> MpUint<L> {
        self.q
    }

    /// Modular addition of reduced elements.
    #[inline]
    pub fn add(&self, a: MpUint<L>, b: MpUint<L>) -> MpUint<L> {
        let q = self.q;
        debug_assert!(a < q && b < q);
        let (sum, carry) = a.overflowing_add(&b);
        if carry || sum >= q {
            sum.wrapping_sub(&q)
        } else {
            sum
        }
    }

    /// Modular subtraction of reduced elements.
    #[inline]
    pub fn sub(&self, a: MpUint<L>, b: MpUint<L>) -> MpUint<L> {
        let q = self.q;
        debug_assert!(a < q && b < q);
        let (diff, borrow) = a.overflowing_sub(&b);
        if borrow {
            diff.wrapping_add(&q)
        } else {
            diff
        }
    }

    /// Modular multiplication of reduced elements, by Barrett reduction.
    #[inline]
    pub fn mul(&self, a: MpUint<L>, b: MpUint<L>) -> MpUint<L> {
        debug_assert!(a < self.q && b < self.q);
        let widening = |x: &MpUint<L>, y: &MpUint<L>| match self.mul_algorithm {
            MulAlgorithm::Schoolbook => x.widening_mul_schoolbook(y),
            MulAlgorithm::Karatsuba => x.widening_mul_karatsuba(y),
        };
        // t = a*b, as (lo, hi) limbs.
        let (t_lo, t_hi) = widening(&a, &b);
        // r1 = t >> (mbits - 2): fits in L limbs because t < q^2 < 2^(2*mbits).
        let r1 = shr_wide(&t_lo, &t_hi, self.mbits - 2);
        // r2 = (r1 * mu) >> (mbits + 5): fits in L limbs (it approximates floor(t/q) < q).
        let (p_lo, p_hi) = widening(&r1, &self.mu);
        let r2 = shr_wide(&p_lo, &p_hi, self.mbits + 5);
        // c = t - r2*q. Only the low L limbs are needed: the result is < 2q (paper's
        // "optimization given that the first half matches" in Listing 4).
        let mut c = t_lo.wrapping_sub(&r2.wrapping_mul(&self.q));
        if c >= self.q {
            c = c.wrapping_sub(&self.q);
        }
        debug_assert!(c < self.q);
        c
    }

    /// Precomputes the Shoup quotient `⌊w · 2^(64·L) / q⌋` for a fixed
    /// multiplicand `w < q` — the `L`-word counterpart of
    /// [`crate::single::SingleBarrett::shoup_precompute`].
    ///
    /// The quotient is built one 64-bit word at a time, most significant first.
    /// With the running remainder `r < q` (initially `w`), `r·2^64 = d·q + r'`
    /// where `r' = r·(2^64 mod q) mod q` is one ring multiplication and the
    /// word `d < 2^64` is the exact quotient `(r·2^64 − r')/q`. Exact division
    /// by an odd `q` is multiplication by its inverse, so
    /// `d = −r'·q⁻¹ mod 2^64` needs only `r'`'s low limb. A quotient therefore
    /// costs `L` ring multiplications and `L` word products. At `L = 2` (the
    /// 124-bit evaluation modulus, 2-core x86-64 host) the 2046 quotients of
    /// an `n = 1024` plan take ~0.16 ms, ~4.5× the ring multiplications that
    /// build its twiddles; the bit-serial division this replaced took ~1.1 ms.
    ///
    /// The modulus must be odd (every NTT modulus is).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `w >= q` or `q` is even.
    pub fn shoup_precompute(&self, w: MpUint<L>) -> MpUint<L> {
        let q = self.q;
        debug_assert!(w < q);
        debug_assert!(
            q.is_odd(),
            "word-at-a-time Shoup quotients need an odd modulus"
        );
        let q_inv = inv_mod_2_64(q.limbs[0]);
        // 2^64 mod q: 2^64 itself fits two or more words; one word holds
        // 2^64 − q instead, which is congruent.
        let word = self.reduce(if L == 1 {
            MpUint::ZERO.wrapping_sub(&q)
        } else {
            MpUint::<L>::ONE.shl_bits(64)
        });
        let mut rem = w;
        let mut quotient = MpUint::<L>::ZERO;
        for digit in quotient.limbs.iter_mut().rev() {
            rem = self.mul(rem, word);
            *digit = rem.limbs[0].wrapping_neg().wrapping_mul(q_inv);
        }
        quotient
    }

    /// Lazy Shoup multiplication: `lo(w·y) − lo(hi(w_shoup·y)·q)`, a value
    /// congruent to `w · y (mod q)` in the half-reduced range `[0, 2q)` — the
    /// `L`-word counterpart of
    /// [`crate::single::SingleBarrett::mul_mod_shoup_lazy`].
    ///
    /// `w_shoup` must be [`Self::shoup_precompute`]`(w)`. **Any** `y < 2^(64·L)`
    /// is accepted, so callers chaining butterflies may leave `y` lazily reduced.
    /// With `w_shoup = (w·β − r)/q`, `β = 2^(64·L)`, `0 ≤ r < q`, the quotient
    /// estimate `h = ⌊w_shoup·y/β⌋` satisfies `w·y/q − 1 − r·y/(q·β) < h ≤ w·y/q`,
    /// hence `0 ≤ w·y − h·q < q + r·y/β < 2q`; the bound needs the *exact* high
    /// product ([`MpUint::mul_hi`]), which is why it is not a truncated one.
    ///
    /// One fixed-shape high product and two low products — no shift, no
    /// comparison, no correction. The result is computed modulo `β`, so the ring
    /// needs `2q ≤ β`, which a modulus of at most `64·L − 4` bits leaves with room.
    #[inline]
    pub fn mul_mod_shoup_lazy(&self, y: MpUint<L>, w: MpUint<L>, w_shoup: MpUint<L>) -> MpUint<L> {
        let q = self.q;
        debug_assert!(w < q);
        debug_assert!(q.bits() < MpUint::<L>::BITS, "2q must fit the word count");
        let h = w_shoup.mul_hi(&y);
        w.wrapping_mul(&y).wrapping_sub(&h.wrapping_mul(&q))
    }

    /// Fully reduced Shoup multiplication: `(w · y) mod q`, the lazy product of
    /// [`Self::mul_mod_shoup_lazy`] plus the one conditional subtraction it omits.
    #[inline]
    pub fn mul_mod_shoup(&self, y: MpUint<L>, w: MpUint<L>, w_shoup: MpUint<L>) -> MpUint<L> {
        let t = self.mul_mod_shoup_lazy(y, w, w_shoup);
        let (reduced, borrow) = t.overflowing_sub(&self.q);
        if borrow {
            t
        } else {
            reduced
        }
    }

    /// Modular exponentiation.
    pub fn pow(&self, base: MpUint<L>, exp: &MpUint<L>) -> MpUint<L> {
        let mut result = MpUint::<L>::ONE;
        for i in (0..exp.bits()).rev() {
            result = self.mul(result, result);
            if exp.bit(i) {
                result = self.mul(result, base);
            }
        }
        result
    }

    /// Modular inverse assuming a prime modulus (Fermat).
    pub fn inv(&self, a: MpUint<L>) -> MpUint<L> {
        let exp = self.q.wrapping_sub(&MpUint::from_u64(2));
        self.pow(a, &exp)
    }

    /// Reduces an arbitrary value into `[0, q)` by repeated conditional
    /// subtraction of shifted multiples of `q` (binary long division). Used only
    /// at setup time (e.g. reducing constants), never on the hot path.
    pub fn reduce(&self, x: MpUint<L>) -> MpUint<L> {
        let mut x = x;
        if x < self.q {
            return x;
        }
        let mut shift = x.bits() - self.mbits;
        loop {
            let shifted = self.q.shl_bits(shift);
            // Only subtract if the shifted modulus did not lose its top bits.
            if shifted.bits() == self.mbits + shift && shifted <= x {
                x = x.wrapping_sub(&shifted);
            }
            if shift == 0 {
                break;
            }
            shift -= 1;
        }
        debug_assert!(x < self.q);
        x
    }

    /// Samples a uniformly random reduced element.
    pub fn random_element<R: Rng + ?Sized>(&self, rng: &mut R) -> MpUint<L> {
        let q = self.q;
        let bits = q.bits();
        let top_mask = if bits % 64 == 0 {
            u64::MAX
        } else {
            (1u64 << (bits % 64)) - 1
        };
        let top_limb = (bits.div_ceil(64) - 1) as usize;
        loop {
            let mut limbs = [0u64; L];
            for (i, slot) in limbs.iter_mut().enumerate().take(top_limb + 1) {
                *slot = rng.gen();
                if i == top_limb {
                    *slot &= top_mask;
                }
            }
            let candidate = MpUint::from_limbs(limbs);
            if candidate < q {
                return candidate;
            }
        }
    }
}

/// Inverse of an odd `x` modulo 2^64 by Newton iteration.
fn inv_mod_2_64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // correct to 3 bits
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{U128, U256};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn barrett_ring() -> ModRing<2> {
        ModRing::new(U128::from_hex("fffffffffffffffffffffffffffff61")) // 124-bit
    }

    #[test]
    fn add_sub_mul_consistency() {
        let ring = barrett_ring();
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let a = ring.random_element(&mut rng);
            let b = ring.random_element(&mut rng);
            let c = ring.random_element(&mut rng);
            // (a + b) - b = a
            assert_eq!(ring.sub(ring.add(a, b), b), a);
            // a*(b + c) = a*b + a*c
            assert_eq!(
                ring.mul(a, ring.add(b, c)),
                ring.add(ring.mul(a, b), ring.mul(a, c))
            );
            // The identities and the edges of subtraction.
            assert_eq!(ring.mul(a, U128::ONE), a);
            assert_eq!(ring.mul(a, U128::ZERO), U128::ZERO);
            assert_eq!(ring.sub(a, a), U128::ZERO);
        }
        let q = ring.modulus();
        assert_eq!(ring.sub(U128::ZERO, U128::ONE), q.wrapping_sub(&U128::ONE));
    }

    #[test]
    fn limb_inverse() {
        for x in [1u64, 3, 0xdeadbeef | 1, u64::MAX] {
            assert_eq!(x.wrapping_mul(inv_mod_2_64(x)), 1);
        }
    }

    /// The 256-bit kernels' 252-bit evaluation prime, the widest Barrett
    /// modulus at L = 4.
    fn prime_252() -> U256 {
        let q = U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffe200000001");
        assert_eq!(q.bits(), 252);
        q
    }

    #[test]
    fn pow_and_inv() {
        let ring = ModRing::new(prime_252());
        let mut rng = StdRng::seed_from_u64(13);
        let a = ring.random_element(&mut rng);
        let inv = ring.inv(a);
        assert_eq!(ring.mul(a, inv), U256::ONE);
        assert_eq!(ring.pow(a, &U256::ZERO), U256::ONE);
        assert_eq!(ring.pow(a, &U256::ONE), a);
        assert_eq!(ring.pow(a, &U256::from_u64(2)), ring.mul(a, a));
    }

    #[test]
    fn fermat_on_252_bit_prime() {
        let q = prime_252();
        let ring = ModRing::new(q);
        // a^(q-1) = 1 for a fixed and a random unit.
        let exp = q.wrapping_sub(&U256::ONE);
        let fixed = U256::from_hex("123456789abcdef0123456789abcdef0");
        assert_eq!(ring.pow(fixed, &exp), U256::ONE);
        let mut rng = StdRng::seed_from_u64(15);
        let a = ring.random_element(&mut rng);
        assert_eq!(ring.pow(a, &exp), U256::ONE);
    }

    #[test]
    fn wraparound_operands() {
        // (q-1)^2 mod q = 1 at the top of the range, for both widths.
        let ring = barrett_ring();
        let a = ring.modulus().wrapping_sub(&U128::ONE);
        assert_eq!(ring.mul(a, a), U128::ONE);
        let q = prime_252();
        let ring = ModRing::new(q);
        let a = q.wrapping_sub(&U256::ONE);
        assert_eq!(ring.mul(a, a), U256::ONE);
    }

    #[test]
    fn reduce_arbitrary_values() {
        let ring = barrett_ring();
        assert_eq!(ring.reduce(U128::ZERO), U128::ZERO);
        assert_eq!(ring.reduce(ring.modulus()), U128::ZERO);
        let r = ring.reduce(U128::MAX);
        assert!(r < ring.modulus());
    }

    #[test]
    fn random_elements_are_reduced_and_varied() {
        let ring = barrett_ring();
        let mut rng = StdRng::seed_from_u64(14);
        let a = ring.random_element(&mut rng);
        let b = ring.random_element(&mut rng);
        assert!(a < ring.modulus());
        assert_ne!(a, b);
    }
}
