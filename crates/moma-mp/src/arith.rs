//! Core non-modular arithmetic on [`MpUint`]: carries, borrows, shifts, bitwise
//! operations, and widening multiplication.
//!
//! These routines are the runtime counterparts of the paper's multi-digit schoolbook
//! algorithms (Equations 6–8) with a 64-bit machine word as the digit. They are exactly
//! what the MoMA rewrite system's output computes once lowered to machine words — the
//! generated code and this library agree limb for limb, which the cross-crate
//! integration tests assert.

// Carry/borrow chains index several limb arrays in lockstep; indexed loops keep them
// shaped like the multi-digit algorithms they implement.
#![allow(clippy::needless_range_loop)]

use crate::MpUint;
use std::ops::{Add, BitAnd, BitOr, BitXor, Not, Shl, Shr, Sub};

impl<const L: usize> MpUint<L> {
    /// Adds with carry-out: returns `(self + rhs) mod 2^(64·L)` and the carry bit.
    ///
    /// This is rule (22)/(29) of the paper at runtime: a chain of 64-bit
    /// add-with-carry steps from the least significant limb upward.
    #[inline]
    pub fn overflowing_add(&self, rhs: &Self) -> (Self, bool) {
        let mut out = [0u64; L];
        let mut carry = 0u64;
        for i in 0..L {
            let s = self.limbs[i] as u128 + rhs.limbs[i] as u128 + carry as u128;
            out[i] = s as u64;
            carry = (s >> 64) as u64;
        }
        (MpUint { limbs: out }, carry != 0)
    }

    /// Wrapping addition (discards the final carry).
    #[inline]
    pub fn wrapping_add(&self, rhs: &Self) -> Self {
        self.overflowing_add(rhs).0
    }

    /// Subtracts with borrow-out: returns `(self - rhs) mod 2^(64·L)` and the borrow bit.
    ///
    /// Runtime counterpart of rule (25): limb-wise subtract-with-borrow.
    #[inline]
    pub fn overflowing_sub(&self, rhs: &Self) -> (Self, bool) {
        let mut out = [0u64; L];
        let mut borrow = 0u64;
        for i in 0..L {
            let (d1, b1) = self.limbs[i].overflowing_sub(rhs.limbs[i]);
            let (d2, b2) = d1.overflowing_sub(borrow);
            out[i] = d2;
            borrow = (b1 as u64) + (b2 as u64);
        }
        (MpUint { limbs: out }, borrow != 0)
    }

    /// Wrapping subtraction (discards the final borrow).
    #[inline]
    pub fn wrapping_sub(&self, rhs: &Self) -> Self {
        self.overflowing_sub(rhs).0
    }

    /// Checked addition, `None` on overflow.
    pub fn checked_add(&self, rhs: &Self) -> Option<Self> {
        match self.overflowing_add(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Checked subtraction, `None` on underflow.
    pub fn checked_sub(&self, rhs: &Self) -> Option<Self> {
        match self.overflowing_sub(rhs) {
            (v, false) => Some(v),
            _ => None,
        }
    }

    /// Full schoolbook widening multiplication: returns `(lo, hi)` with
    /// `self · rhs = hi · 2^(64·L) + lo` (paper Equation 8 generalized to `L` digits).
    #[inline]
    pub fn widening_mul_schoolbook(&self, rhs: &Self) -> (Self, Self) {
        let mut out = [0u64; 64]; // scratch covers up to L = 32
        assert!(2 * L <= 64, "widening_mul supports at most 32 limbs");
        for i in 0..L {
            let mut carry = 0u64;
            let a = self.limbs[i];
            if a == 0 {
                continue;
            }
            for j in 0..L {
                let t = a as u128 * rhs.limbs[j] as u128 + out[i + j] as u128 + carry as u128;
                out[i + j] = t as u64;
                carry = (t >> 64) as u64;
            }
            out[i + L] = carry;
        }
        let mut lo = [0u64; L];
        let mut hi = [0u64; L];
        lo.copy_from_slice(&out[..L]);
        hi.copy_from_slice(&out[L..2 * L]);
        (MpUint { limbs: lo }, MpUint { limbs: hi })
    }

    /// Widening multiplication using the Karatsuba algorithm (paper Equation 9) at the
    /// top level with schoolbook leaves, on stack scratch.
    #[inline]
    pub fn widening_mul_karatsuba(&self, rhs: &Self) -> (Self, Self) {
        use crate::karatsuba::{karatsuba_mul, scratch_len};
        assert!(2 * L <= 64, "widening_mul supports at most 32 limbs");
        let mut out = [0u64; 64];
        let mut scratch = [0u64; scratch_len(32)];
        karatsuba_mul(
            &self.limbs,
            &rhs.limbs,
            &mut out[..2 * L],
            &mut scratch[..scratch_len(L)],
        );
        let mut lo = [0u64; L];
        let mut hi = [0u64; L];
        lo.copy_from_slice(&out[..L]);
        hi.copy_from_slice(&out[L..2 * L]);
        (MpUint { limbs: lo }, MpUint { limbs: hi })
    }

    /// Truncated (low half) multiplication: `(self · rhs) mod 2^(64·L)`.
    #[inline]
    pub fn wrapping_mul(&self, rhs: &Self) -> Self {
        let mut out = [0u64; L];
        for i in 0..L {
            let mut carry = 0u64;
            let a = self.limbs[i];
            if a == 0 {
                continue;
            }
            for j in 0..L - i {
                let t = a as u128 * rhs.limbs[j] as u128 + out[i + j] as u128 + carry as u128;
                out[i + j] = t as u64;
                carry = (t >> 64) as u64;
            }
        }
        MpUint { limbs: out }
    }

    /// High half of the full product: `⌊self · rhs / 2^(64·L)⌋`, exactly (every
    /// column of the schoolbook product is accumulated, so the carries out of the
    /// discarded low half are not lost).
    ///
    /// Fixed shape — `L²` word products, no data-dependent branch. Row `i` adds
    /// `self[i] · rhs` into an `L`-limb window over limbs `i..i+L` of the running
    /// product and slides the window up one limb; the limb that slides out is a
    /// finished limb of the low half.
    #[inline]
    pub fn mul_hi(&self, rhs: &Self) -> Self {
        let mut window = [0u64; L];
        for i in 0..L {
            let a = self.limbs[i];
            let mut carry = 0u64;
            for j in 0..L {
                let t = a as u128 * rhs.limbs[j] as u128 + window[j] as u128 + carry as u128;
                if j > 0 {
                    window[j - 1] = t as u64;
                }
                carry = (t >> 64) as u64;
            }
            window[L - 1] = carry;
        }
        MpUint { limbs: window }
    }

    /// Left shift by `bits` (bits shifted past the top are lost).
    pub fn shl_bits(&self, bits: u32) -> Self {
        if bits as usize >= 64 * L {
            return Self::ZERO;
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut out = [0u64; L];
        for i in (0..L).rev() {
            if i < limb_shift {
                break;
            }
            let src = i - limb_shift;
            let mut v = self.limbs[src] << bit_shift;
            if bit_shift > 0 && src > 0 {
                v |= self.limbs[src - 1] >> (64 - bit_shift);
            }
            out[i] = v;
        }
        MpUint { limbs: out }
    }

    /// Logical right shift by `bits`.
    pub fn shr_bits(&self, bits: u32) -> Self {
        if bits as usize >= 64 * L {
            return Self::ZERO;
        }
        let limb_shift = (bits / 64) as usize;
        let bit_shift = bits % 64;
        let mut out = [0u64; L];
        for i in 0..L {
            let src = i + limb_shift;
            if src >= L {
                break;
            }
            let mut v = self.limbs[src] >> bit_shift;
            if bit_shift > 0 && src + 1 < L {
                v |= self.limbs[src + 1] << (64 - bit_shift);
            }
            out[i] = v;
        }
        MpUint { limbs: out }
    }
}

impl<const L: usize> Add for MpUint<L> {
    type Output = Self;
    /// Addition. Panics on overflow in debug builds, wraps in release builds (the same
    /// contract as the primitive integer types).
    fn add(self, rhs: Self) -> Self {
        let (v, carry) = self.overflowing_add(&rhs);
        debug_assert!(!carry, "attempt to add with overflow");
        v
    }
}

impl<const L: usize> Sub for MpUint<L> {
    type Output = Self;
    /// Subtraction. Panics on underflow in debug builds, wraps in release builds.
    fn sub(self, rhs: Self) -> Self {
        let (v, borrow) = self.overflowing_sub(&rhs);
        debug_assert!(!borrow, "attempt to subtract with overflow");
        v
    }
}

impl<const L: usize> Shl<u32> for MpUint<L> {
    type Output = Self;
    fn shl(self, rhs: u32) -> Self {
        self.shl_bits(rhs)
    }
}

impl<const L: usize> Shr<u32> for MpUint<L> {
    type Output = Self;
    fn shr(self, rhs: u32) -> Self {
        self.shr_bits(rhs)
    }
}

impl<const L: usize> BitAnd for MpUint<L> {
    type Output = Self;
    fn bitand(self, rhs: Self) -> Self {
        let mut out = [0u64; L];
        for i in 0..L {
            out[i] = self.limbs[i] & rhs.limbs[i];
        }
        MpUint { limbs: out }
    }
}

impl<const L: usize> BitOr for MpUint<L> {
    type Output = Self;
    fn bitor(self, rhs: Self) -> Self {
        let mut out = [0u64; L];
        for i in 0..L {
            out[i] = self.limbs[i] | rhs.limbs[i];
        }
        MpUint { limbs: out }
    }
}

impl<const L: usize> BitXor for MpUint<L> {
    type Output = Self;
    fn bitxor(self, rhs: Self) -> Self {
        let mut out = [0u64; L];
        for i in 0..L {
            out[i] = self.limbs[i] ^ rhs.limbs[i];
        }
        MpUint { limbs: out }
    }
}

impl<const L: usize> Not for MpUint<L> {
    type Output = Self;
    fn not(self) -> Self {
        let mut out = [0u64; L];
        for i in 0..L {
            out[i] = !self.limbs[i];
        }
        MpUint { limbs: out }
    }
}

#[cfg(test)]
mod tests {
    use crate::{U128, U256};

    #[test]
    fn add_with_carry_across_limbs() {
        let a = U128::from_u128(u128::MAX);
        let (s, carry) = a.overflowing_add(&U128::ONE);
        assert!(s.is_zero());
        assert!(carry);
        let (s, carry) = a.overflowing_add(&U128::ZERO);
        assert_eq!(s, a);
        assert!(!carry);
    }

    #[test]
    fn sub_with_borrow_across_limbs() {
        let a = U128::from_u128(1u128 << 64);
        let (d, borrow) = a.overflowing_sub(&U128::ONE);
        assert_eq!(d.to_u128(), Some(u64::MAX as u128));
        assert!(!borrow);
        let (_, borrow) = U128::ZERO.overflowing_sub(&U128::ONE);
        assert!(borrow);
    }

    #[test]
    fn checked_variants() {
        assert_eq!(U128::MAX.checked_add(&U128::ONE), None);
        assert_eq!(U128::ZERO.checked_sub(&U128::ONE), None);
        assert_eq!(
            U128::from_u64(5).checked_add(&U128::from_u64(6)),
            Some(U128::from_u64(11))
        );
    }

    #[test]
    fn widening_mul_matches_u128() {
        let a = crate::MpUint::<1>::from_u64(u64::MAX);
        let (lo, hi) = a.widening_mul_schoolbook(&a);
        let expected = u64::MAX as u128 * u64::MAX as u128;
        assert_eq!(lo.to_u64(), Some(expected as u64));
        assert_eq!(hi.to_u64(), Some((expected >> 64) as u64));
    }

    #[test]
    fn widening_mul_256() {
        // (2^256 - 1)^2 = 2^512 - 2^257 + 1: lo = 1, hi = 2^256 - 2 (all ones except bit 0).
        let a = U256::MAX;
        let (lo, hi) = a.widening_mul_schoolbook(&a);
        assert_eq!(lo, U256::ONE);
        assert_eq!(hi, U256::MAX.wrapping_sub(&U256::ONE));
        let (lo_k, hi_k) = a.widening_mul_karatsuba(&a);
        assert_eq!((lo_k, hi_k), (lo, hi));
    }

    #[test]
    fn wrapping_mul_is_low_half() {
        let a = U256::from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff");
        let b = U256::from_hex("123456789abcdef0123456789abcdef");
        let (lo, _) = a.widening_mul_schoolbook(&b);
        assert_eq!(a.wrapping_mul(&b), lo);
    }

    #[test]
    fn shifts() {
        let a = U256::from_u64(0xff);
        assert_eq!((a << 8).limbs()[0], 0xff00);
        assert_eq!((a << 64).limbs()[1], 0xff);
        assert_eq!((a << 200) >> 200, a);
        assert_eq!(a << 256, U256::ZERO);
        assert_eq!(a >> 256, U256::ZERO);
        assert_eq!((a << 65).limbs()[1], 0x1fe);
    }

    #[test]
    fn bitwise() {
        let a = U128::from_u64(0b1100);
        let b = U128::from_u64(0b1010);
        assert_eq!((a & b).to_u64(), Some(0b1000));
        assert_eq!((a | b).to_u64(), Some(0b1110));
        assert_eq!((a ^ b).to_u64(), Some(0b0110));
        assert_eq!((!U128::ZERO), U128::MAX);
    }

    #[test]
    fn add_carry_bit_propagates() {
        let a = U256::from_hex("ffffffffffffffffffffffffffffffff");
        let (s, c) = a.overflowing_add(&U256::ONE);
        assert_eq!(s, U256::from_u64(1) << 128);
        assert!(!c);
        let (s, c) = U256::MAX.overflowing_add(&U256::ONE);
        assert!(s.is_zero());
        assert!(c);
    }

    // `Add` panics on overflow in debug builds and wraps in release builds:
    // each build checks its own half of the contract.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "add with overflow")]
    fn operator_add_overflow_panics_in_debug() {
        let _ = U128::MAX + U128::ONE;
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn operator_add_overflow_wraps_in_release() {
        assert_eq!(U128::MAX + U128::ONE, U128::ZERO);
    }
}
