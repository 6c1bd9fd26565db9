//! Modular arithmetic on [`BigUint`]: the reference (oracle) implementations of the
//! operations the paper's generated kernels compute (Equations 1–4).

use crate::BigUint;

impl BigUint {
    /// Reduces `self` modulo `modulus`.
    ///
    /// # Panics
    ///
    /// Panics if `modulus` is zero.
    pub fn reduce(&self, modulus: &BigUint) -> BigUint {
        self % modulus
    }

    /// Modular addition `(self + other) mod modulus` (paper Equation 2).
    ///
    /// Both inputs must already be reduced; the result is then obtained with a single
    /// conditional subtraction, exactly as the generated kernels do.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if either operand is not reduced.
    pub fn mod_add(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        debug_assert!(
            self < modulus && other < modulus,
            "operands must be reduced"
        );
        let sum = self + other;
        if &sum >= modulus {
            sum - modulus
        } else {
            sum
        }
    }

    /// Modular subtraction `(self - other) mod modulus` (paper Equation 3).
    pub fn mod_sub(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        debug_assert!(
            self < modulus && other < modulus,
            "operands must be reduced"
        );
        if self < other {
            self + modulus - other
        } else {
            self - other
        }
    }

    /// Modular multiplication `(self * other) mod modulus` (paper Equation 4), computed
    /// with a full product followed by division — the baseline strategy a GMP user
    /// would write (`mpz_mul` + `mpz_mod`).
    pub fn mod_mul(&self, other: &BigUint, modulus: &BigUint) -> BigUint {
        (self * other) % modulus
    }

    /// Modular exponentiation by square-and-multiply (left-to-right).
    ///
    /// ```
    /// # use moma_bignum::BigUint;
    /// let q = BigUint::from(97u64);
    /// let x = BigUint::from(5u64);
    /// assert_eq!(x.mod_pow(&BigUint::from(96u64), &q), BigUint::one()); // Fermat
    /// ```
    pub fn mod_pow(&self, exponent: &BigUint, modulus: &BigUint) -> BigUint {
        assert!(!modulus.is_zero(), "division by zero");
        if modulus.is_one() {
            return BigUint::zero();
        }
        let mut result = BigUint::one();
        let base = self % modulus;
        let bits = exponent.bits();
        for i in (0..bits).rev() {
            result = result.mod_mul(&result, modulus);
            if exponent.bit(i) {
                result = result.mod_mul(&base, modulus);
            }
        }
        result
    }

    /// Modular multiplicative inverse via the extended Euclidean algorithm.
    ///
    /// Returns `None` if `gcd(self, modulus) != 1` (no inverse exists).
    ///
    /// ```
    /// # use moma_bignum::BigUint;
    /// let q = BigUint::from(97u64);
    /// let x = BigUint::from(35u64);
    /// let inv = x.mod_inverse(&q).unwrap();
    /// assert_eq!(x.mod_mul(&inv, &q), BigUint::one());
    /// ```
    pub fn mod_inverse(&self, modulus: &BigUint) -> Option<BigUint> {
        if modulus.is_zero() || self.is_zero() {
            return None;
        }
        // Extended Euclid with sign-tracked coefficients:
        // invariant  s_i * self ≡ r_i (mod modulus).
        let mut r0 = modulus.clone();
        let mut r1 = self % modulus;
        let mut s0 = (BigUint::zero(), false); // (magnitude, negative?)
        let mut s1 = (BigUint::one(), false);
        while !r1.is_zero() {
            let (q, r2) = r0.div_rem(&r1);
            // s2 = s0 - q * s1  (signed)
            let qs1 = (&q * &s1.0, s1.1);
            let s2 = signed_sub(&s0, &qs1);
            r0 = r1;
            r1 = r2;
            s0 = s1;
            s1 = s2;
        }
        if !r0.is_one() {
            return None;
        }
        let inv = if s0.1 {
            modulus - (&s0.0 % modulus)
        } else {
            &s0.0 % modulus
        };
        Some(inv % modulus)
    }
}

/// Subtracts two sign-magnitude numbers: `a - b`.
fn signed_sub(a: &(BigUint, bool), b: &(BigUint, bool)) -> (BigUint, bool) {
    match (a.1, b.1) {
        // a - b with both positive
        (false, false) => {
            if a.0 >= b.0 {
                (&a.0 - &b.0, false)
            } else {
                (&b.0 - &a.0, true)
            }
        }
        // a - (-b) = a + b
        (false, true) => (&a.0 + &b.0, false),
        // -a - b = -(a + b)
        (true, false) => (&a.0 + &b.0, true),
        // -a - (-b) = b - a
        (true, true) => {
            if b.0 >= a.0 {
                (&b.0 - &a.0, false)
            } else {
                (&a.0 - &b.0, true)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(s: &str) -> BigUint {
        BigUint::from_hex(s).unwrap()
    }

    #[test]
    fn mod_add_sub_within_ring() {
        let q = BigUint::from(1_000_003u64);
        let a = BigUint::from(999_999u64);
        let b = BigUint::from(7u64);
        assert_eq!(a.mod_add(&b, &q), BigUint::from(3u64));
        assert_eq!(b.mod_sub(&a, &q), BigUint::from(1_000_003 - 999_992u64));
        assert_eq!(a.mod_sub(&a, &q), BigUint::zero());
    }

    #[test]
    fn mod_mul_matches_definition() {
        let q = big("ffffffffffffffffffffffffffffff61"); // 128-bit prime-ish modulus
        let a = big("123456789abcdef0123456789abcdef0");
        let b = big("fedcba9876543210fedcba9876543210");
        let c = a.mod_mul(&b, &q);
        assert_eq!(c, (&a * &b) % &q);
        assert!(c < q);
    }

    #[test]
    fn mod_pow_edge_cases() {
        let q = BigUint::from(13u64);
        assert_eq!(
            BigUint::from(5u64).mod_pow(&BigUint::zero(), &q),
            BigUint::one()
        );
        assert_eq!(
            BigUint::from(5u64).mod_pow(&BigUint::one(), &q),
            BigUint::from(5u64)
        );
        assert_eq!(
            BigUint::from(5u64).mod_pow(&BigUint::from(2u64), &q),
            BigUint::from(12u64)
        );
        // Modulus one: everything is zero.
        assert_eq!(
            BigUint::from(5u64).mod_pow(&BigUint::from(100u64), &BigUint::one()),
            BigUint::zero()
        );
    }

    #[test]
    fn fermat_little_theorem_128_bit() {
        // q = 2^127 - 1 is a Mersenne prime.
        let q = (BigUint::from(1u64) << 127) - BigUint::one();
        let a = big("123456789abcdef0fedcba9876543210");
        assert_eq!(a.mod_pow(&(&q - &BigUint::one()), &q), BigUint::one());
    }

    #[test]
    fn mod_inverse_round_trips() {
        let q = (BigUint::from(1u64) << 127) - BigUint::one();
        for seed in 1u64..20 {
            let a = BigUint::from(seed.wrapping_mul(0x9e3779b97f4a7c15));
            let inv = a.mod_inverse(&q).expect("prime modulus: inverse exists");
            assert_eq!(a.mod_mul(&inv, &q), BigUint::one());
        }
    }

    #[test]
    fn mod_inverse_nonexistent() {
        let q = BigUint::from(12u64);
        assert_eq!(BigUint::from(8u64).mod_inverse(&q), None);
        assert_eq!(BigUint::zero().mod_inverse(&q), None);
        assert_eq!(
            BigUint::from(5u64).mod_inverse(&q),
            Some(BigUint::from(5u64))
        );
    }
}
