//! Division with remainder (Knuth, The Art of Computer Programming Vol. 2, Algorithm D).

use crate::BigUint;
use std::ops::{Div, Rem};

impl BigUint {
    /// Computes the quotient and remainder of `self / divisor`.
    ///
    /// Uses a single-limb short division when the divisor fits one limb, and Knuth's
    /// Algorithm D (normalized schoolbook long division with a two-limb quotient-digit
    /// estimate) otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    ///
    /// ```
    /// # use moma_bignum::BigUint;
    /// let a = BigUint::from(1000u64);
    /// let b = BigUint::from(7u64);
    /// let (q, r) = a.div_rem(&b);
    /// assert_eq!(q, BigUint::from(142u64));
    /// assert_eq!(r, BigUint::from(6u64));
    /// ```
    pub fn div_rem(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        assert!(!divisor.is_zero(), "division by zero");
        if self < divisor {
            return (BigUint::zero(), self.clone());
        }
        if divisor.limbs.len() == 1 {
            let (q, r) = self.div_rem_u64(divisor.limbs[0]);
            return (q, BigUint::from(r));
        }
        self.div_rem_knuth(divisor)
    }

    /// Divides by a single 64-bit word, returning quotient and remainder.
    ///
    /// # Panics
    ///
    /// Panics if `word` is zero.
    pub(crate) fn div_rem_u64(&self, word: u64) -> (BigUint, u64) {
        assert!(word != 0, "division by zero");
        let mut rem = 0u64;
        let mut out = vec![0u64; self.limbs.len()];
        for i in (0..self.limbs.len()).rev() {
            let cur = (rem as u128) << 64 | self.limbs[i] as u128;
            out[i] = (cur / word as u128) as u64;
            rem = (cur % word as u128) as u64;
        }
        (BigUint::from_limbs_le(out), rem)
    }

    /// Knuth Algorithm D for divisors of at least two limbs.
    fn div_rem_knuth(&self, divisor: &BigUint) -> (BigUint, BigUint) {
        // D1: normalize so the divisor's top limb has its high bit set.
        let shift = divisor.limbs.last().unwrap().leading_zeros();
        let u = self.shl_bits(shift);
        let v = divisor.shl_bits(shift);
        let n = v.limbs.len();
        let m = u.limbs.len() - n;

        // Working copy of the dividend with one extra high limb.
        let mut un = u.limbs.clone();
        un.push(0);
        let vn = &v.limbs;
        let v_hi = vn[n - 1];
        let v_lo = vn[n - 2];

        let mut quotient = vec![0u64; m + 1];

        // D2..D7: compute one quotient digit per iteration, most significant first.
        for j in (0..=m).rev() {
            // D3: estimate q̂ from the top two limbs of the current remainder window.
            let numerator = (un[j + n] as u128) << 64 | un[j + n - 1] as u128;
            let mut q_hat = numerator / v_hi as u128;
            let mut r_hat = numerator % v_hi as u128;
            // Refine: q̂ can be at most 2 too large.
            while q_hat >> 64 != 0 || q_hat * v_lo as u128 > (r_hat << 64 | un[j + n - 2] as u128) {
                q_hat -= 1;
                r_hat += v_hi as u128;
                if r_hat >> 64 != 0 {
                    break;
                }
            }

            // D4: multiply and subtract q̂ * v from the window un[j..j+n].
            let mut borrow: i128 = 0;
            let mut carry: u128 = 0;
            for i in 0..n {
                let p = q_hat * vn[i] as u128 + carry;
                carry = p >> 64;
                let sub = un[j + i] as i128 - (p as u64) as i128 + borrow;
                un[j + i] = sub as u64;
                borrow = sub >> 64; // arithmetic shift: 0 or -1
            }
            let sub = un[j + n] as i128 - carry as i128 + borrow;
            un[j + n] = sub as u64;
            borrow = sub >> 64;

            // D5/D6: if we subtracted too much (q̂ was one too large), add back.
            if borrow != 0 {
                q_hat -= 1;
                let mut carry = 0u128;
                for i in 0..n {
                    let s = un[j + i] as u128 + vn[i] as u128 + carry;
                    un[j + i] = s as u64;
                    carry = s >> 64;
                }
                un[j + n] = un[j + n].wrapping_add(carry as u64);
            }
            quotient[j] = q_hat as u64;
        }

        // D8: denormalize the remainder.
        let rem = BigUint::from_limbs_le(un[..n].to_vec()).shr_bits(shift);
        (BigUint::from_limbs_le(quotient), rem)
    }
}

impl Div<&BigUint> for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).0
    }
}

impl Rem<&BigUint> for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

impl Div<BigUint> for BigUint {
    type Output = BigUint;
    fn div(self, rhs: BigUint) -> BigUint {
        self.div_rem(&rhs).0
    }
}

impl Rem<BigUint> for BigUint {
    type Output = BigUint;
    fn rem(self, rhs: BigUint) -> BigUint {
        self.div_rem(&rhs).1
    }
}

impl Div<&BigUint> for BigUint {
    type Output = BigUint;
    fn div(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).0
    }
}

impl Rem<&BigUint> for BigUint {
    type Output = BigUint;
    fn rem(self, rhs: &BigUint) -> BigUint {
        self.div_rem(rhs).1
    }
}

impl Div<BigUint> for &BigUint {
    type Output = BigUint;
    fn div(self, rhs: BigUint) -> BigUint {
        self.div_rem(&rhs).0
    }
}

impl Rem<BigUint> for &BigUint {
    type Output = BigUint;
    fn rem(self, rhs: BigUint) -> BigUint {
        self.div_rem(&rhs).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(s: &str) -> BigUint {
        BigUint::from_hex(s).unwrap()
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn divide_by_zero_panics() {
        let _ = BigUint::one().div_rem(&BigUint::zero());
    }

    #[test]
    fn small_cases() {
        let (q, r) = BigUint::from(100u64).div_rem(&BigUint::from(9u64));
        assert_eq!((q.to_u64(), r.to_u64()), (Some(11), Some(1)));
        let (q, r) = BigUint::from(5u64).div_rem(&BigUint::from(10u64));
        assert_eq!((q.to_u64(), r.to_u64()), (Some(0), Some(5)));
    }

    #[test]
    fn single_limb_divisor() {
        let a = big("123456789abcdef0fedcba9876543210aaaabbbbccccdddd");
        let (q, r) = a.div_rem(&BigUint::from(0xdeadbeefu64));
        assert_eq!(&q * &BigUint::from(0xdeadbeefu64) + &r, a);
        assert!(r < BigUint::from(0xdeadbeefu64));
    }

    #[test]
    fn multi_limb_reconstruction() {
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for a_limbs in [2usize, 3, 5, 8, 16, 20] {
            for b_limbs in [2usize, 3, 4, 8, 15] {
                if b_limbs > a_limbs {
                    continue;
                }
                let a = BigUint::from_limbs_le((0..a_limbs).map(|_| next()).collect());
                let b = BigUint::from_limbs_le((0..b_limbs).map(|_| next() | 1).collect());
                let (q, r) = a.div_rem(&b);
                assert!(r < b, "remainder bound {a_limbs}x{b_limbs}");
                assert_eq!(&(&q * &b) + &r, a, "reconstruction {a_limbs}x{b_limbs}");
            }
        }
    }

    #[test]
    fn knuth_add_back_case() {
        // Classic case exercising the D6 "add back" path: dividend crafted so the
        // first quotient-digit estimate is one too large.
        let u = BigUint::from_limbs_le(vec![0, 0, 0x8000_0000_0000_0000, 0x7fff_ffff_ffff_ffff]);
        let v = BigUint::from_limbs_le(vec![1, 0, 0x8000_0000_0000_0000]);
        let (q, r) = u.div_rem(&v);
        assert_eq!(&(&q * &v) + &r, u);
        assert!(r < v);
    }

    #[test]
    fn exact_divisions() {
        let a = big("fedcba9876543210fedcba9876543210");
        let b = big("1234567890abcdef");
        let prod = &a * &b;
        let (q, r) = prod.div_rem(&a);
        assert_eq!(q, b);
        assert!(r.is_zero());
        let (q, r) = prod.div_rem(&b);
        assert_eq!(q, a);
        assert!(r.is_zero());
    }
}
