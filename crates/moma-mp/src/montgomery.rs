//! Multi-word Montgomery multiplication.
//!
//! The paper uses Barrett reduction for its `k − 4`-bit moduli but notes (§5.2) that the
//! infrastructure "also supports a modulus of full bit-width, employing Montgomery
//! multiplication". This module provides that path: CIOS (coarsely integrated operand
//! scanning) Montgomery multiplication for odd moduli of up to the full `64·L` bits.

use crate::MpUint;

/// Precomputed Montgomery parameters for an odd modulus `q`.
///
/// Values are kept in Montgomery form `aR mod q` with `R = 2^(64·L)`; use
/// [`MontgomeryContext::to_mont`] / [`MontgomeryContext::from_mont`] at the boundary.
///
/// # Example
///
/// ```
/// use moma_mp::{MontgomeryContext, U256};
///
/// // A full-width 255-bit modulus (2^255 - 19, the Curve25519 prime).
/// let q = U256::from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed");
/// let ctx = MontgomeryContext::new(q);
/// let a = U256::from_u64(3);
/// let b = U256::from_u64(7);
/// let am = ctx.to_mont(a);
/// let bm = ctx.to_mont(b);
/// assert_eq!(ctx.from_mont(ctx.mul_mont(am, bm)), U256::from_u64(21));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MontgomeryContext<const L: usize> {
    /// The modulus `q` (odd).
    pub q: MpUint<L>,
    /// `-q^{-1} mod 2^64`, the per-limb reduction factor.
    pub n0_inv: u64,
    /// `R^2 mod q`, used to convert into Montgomery form.
    pub r2: MpUint<L>,
}

impl<const L: usize> MontgomeryContext<L> {
    /// Creates a context for the odd modulus `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is even or less than 3.
    pub fn new(q: MpUint<L>) -> Self {
        assert!(
            q.is_odd(),
            "Montgomery multiplication requires an odd modulus"
        );
        assert!(q > MpUint::from_u64(2), "modulus must be at least 3");
        let n0_inv = inv_mod_2_64(q.limbs()[0]).wrapping_neg();
        // r2 = (2^(64L))^2 mod q computed by repeated doubling: start from
        // r = 2^(64L) mod q obtained via 64L doublings of 1, then 64L more doublings.
        let mut r = mod_reduce_once(MpUint::<L>::ONE, &q);
        for _ in 0..(128 * L) {
            r = double_mod(r, &q);
        }
        MontgomeryContext { q, n0_inv, r2: r }
    }

    /// Converts into Montgomery form: `a·R mod q`.
    pub fn to_mont(&self, a: MpUint<L>) -> MpUint<L> {
        self.mul_mont(a, self.r2)
    }

    /// Converts out of Montgomery form: `a·R^{-1} mod q`.
    pub fn from_mont(&self, a: MpUint<L>) -> MpUint<L> {
        self.mul_mont(a, MpUint::ONE)
    }

    /// Montgomery product `a·b·R^{-1} mod q` (CIOS).
    #[allow(clippy::needless_range_loop)] // CIOS walks limb arrays by index, as in the literature
    pub fn mul_mont(&self, a: MpUint<L>, b: MpUint<L>) -> MpUint<L> {
        let q = self.q.limbs();
        let a = a.limbs();
        let b = b.limbs();
        // Accumulator with two extra limbs.
        let mut t = vec![0u64; L + 2];
        for i in 0..L {
            // t += a[i] * b
            let mut carry = 0u64;
            for j in 0..L {
                let s = t[j] as u128 + a[i] as u128 * b[j] as u128 + carry as u128;
                t[j] = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = t[L] as u128 + carry as u128;
            t[L] = s as u64;
            t[L + 1] = (s >> 64) as u64;

            // m = t[0] * n0_inv mod 2^64 ; t += m * q ; t >>= 64
            let m = t[0].wrapping_mul(self.n0_inv);
            let s = t[0] as u128 + m as u128 * q[0] as u128;
            let mut carry = (s >> 64) as u64;
            for j in 1..L {
                let s = t[j] as u128 + m as u128 * q[j] as u128 + carry as u128;
                t[j - 1] = s as u64;
                carry = (s >> 64) as u64;
            }
            let s = t[L] as u128 + carry as u128;
            t[L - 1] = s as u64;
            t[L] = t[L + 1] + ((s >> 64) as u64);
            t[L + 1] = 0;
        }
        let mut out = [0u64; L];
        out.copy_from_slice(&t[..L]);
        let result = MpUint::from_limbs(out);
        // Final conditional subtraction: t < 2q at this point.
        if t[L] != 0 || result >= self.q {
            result.wrapping_sub(&self.q)
        } else {
            result
        }
    }

    /// Full modular multiplication `(a·b) mod q` for values *not* in Montgomery form
    /// (converts in, multiplies, converts out). Handy for one-off products.
    pub fn mul_mod(&self, a: MpUint<L>, b: MpUint<L>) -> MpUint<L> {
        let am = self.to_mont(a);
        let bm = self.to_mont(b);
        self.from_mont(self.mul_mont(am, bm))
    }
}

/// Inverse of an odd `x` modulo 2^64 by Newton iteration.
pub(crate) fn inv_mod_2_64(x: u64) -> u64 {
    debug_assert!(x & 1 == 1);
    let mut inv = x; // correct to 3 bits
    for _ in 0..5 {
        inv = inv.wrapping_mul(2u64.wrapping_sub(x.wrapping_mul(inv)));
    }
    debug_assert_eq!(x.wrapping_mul(inv), 1);
    inv
}

/// Reduces a value already known to be `< 2q` into `[0, q)`.
fn mod_reduce_once<const L: usize>(x: MpUint<L>, q: &MpUint<L>) -> MpUint<L> {
    if x >= *q {
        x.wrapping_sub(q)
    } else {
        x
    }
}

/// Doubles a reduced value modulo `q`.
fn double_mod<const L: usize>(x: MpUint<L>, q: &MpUint<L>) -> MpUint<L> {
    let (d, carry) = x.overflowing_add(&x);
    if carry || d >= *q {
        d.wrapping_sub(q)
    } else {
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{U128, U256};

    #[test]
    fn limb_inverse() {
        for x in [1u64, 3, 0xdeadbeef | 1, u64::MAX] {
            assert_eq!(x.wrapping_mul(inv_mod_2_64(x)), 1);
        }
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_rejected() {
        MontgomeryContext::new(U128::from_u64(100));
    }

    #[test]
    fn small_values_round_trip() {
        // Full-width 128-bit odd modulus.
        let q = U128::from_hex("ffffffffffffffffffffffffffffff61");
        let ctx = MontgomeryContext::new(q);
        for v in [0u64, 1, 2, 12345, u64::MAX] {
            let x = U128::from_u64(v);
            assert_eq!(ctx.from_mont(ctx.to_mont(x)), x, "v = {v}");
        }
    }

    #[test]
    fn multiplication_matches_small_cases() {
        let q = U128::from_hex("ffffffffffffffffffffffffffffff61");
        let ctx = MontgomeryContext::new(q);
        let a = U128::from_u64(0xdeadbeef);
        let b = U128::from_u64(0xcafebabe);
        assert_eq!(
            ctx.mul_mod(a, b),
            U128::from_u128(0xdeadbeefu128 * 0xcafebabeu128)
        );
    }

    #[test]
    fn fermat_on_curve25519_prime() {
        let q = U256::from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed");
        let ctx = MontgomeryContext::new(q);
        // a^(q-1) = 1 via repeated Montgomery squaring.
        let a = ctx.to_mont(U256::from_hex("123456789abcdef0123456789abcdef0"));
        let exp = q.wrapping_sub(&U256::ONE);
        let mut result = ctx.to_mont(U256::ONE);
        for i in (0..exp.bits()).rev() {
            result = ctx.mul_mont(result, result);
            if exp.bit(i) {
                result = ctx.mul_mont(result, a);
            }
        }
        assert_eq!(ctx.from_mont(result), U256::ONE);
    }

    #[test]
    fn wraparound_operands() {
        let q = U128::from_hex("ffffffffffffffffffffffffffffff61");
        let ctx = MontgomeryContext::new(q);
        let a = q.wrapping_sub(&U128::ONE);
        // (q-1)^2 mod q = 1
        assert_eq!(ctx.mul_mod(a, a), U128::ONE);
    }
}
