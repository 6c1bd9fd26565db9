//! The fixed-width multi-word unsigned integer type [`MpUint`].

use std::cmp::Ordering;
use std::fmt;

/// A fixed-width unsigned integer stored as `L` 64-bit limbs (little-endian).
///
/// This is the runtime representation of the paper's multi-word values
/// `x = [x_0^{ω0}, ..., x_{k-1}^{ω0}]` (Equation 14): for machine word width ω₀ = 64
/// a `λ`-bit input uses `L = λ / 64` limbs. The paper lists digits most-significant
/// first; we store limbs least-significant first and convert at the boundary
/// ([`MpUint::from_limbs_be`] / [`MpUint::to_limbs_be`]).
///
/// # Example
///
/// ```
/// use moma_mp::U256;
///
/// let a = U256::from_u64(1) << 200;
/// let b = U256::from_u64(12345);
/// assert_eq!((a | b).to_hex(), format!("1{}3039", "0".repeat(46)));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct MpUint<const L: usize> {
    pub(crate) limbs: [u64; L],
}

/// 128-bit value (two limbs).
pub type U128 = MpUint<2>;
/// 256-bit value (four limbs).
pub type U256 = MpUint<4>;

impl<const L: usize> MpUint<L> {
    /// The value zero.
    pub const ZERO: Self = MpUint { limbs: [0; L] };
    /// The value one.
    pub const ONE: Self = {
        let mut limbs = [0u64; L];
        limbs[0] = 1;
        MpUint { limbs }
    };
    /// The largest representable value, `2^(64·L) − 1`.
    pub const MAX: Self = MpUint {
        limbs: [u64::MAX; L],
    };
    /// The width of the type in bits.
    pub const BITS: u32 = 64 * L as u32;

    /// Creates a value from a `u64`.
    pub const fn from_u64(v: u64) -> Self {
        let mut limbs = [0u64; L];
        limbs[0] = v;
        MpUint { limbs }
    }

    /// Creates a value from a `u128`.
    ///
    /// # Panics
    ///
    /// Panics if `L == 1` and the value does not fit in 64 bits.
    pub fn from_u128(v: u128) -> Self {
        let mut limbs = [0u64; L];
        limbs[0] = v as u64;
        let hi = (v >> 64) as u64;
        if L > 1 {
            limbs[1] = hi;
        } else {
            assert_eq!(hi, 0, "value does not fit in 64 bits");
        }
        MpUint { limbs }
    }

    /// Creates a value from little-endian limbs.
    pub const fn from_limbs(limbs: [u64; L]) -> Self {
        MpUint { limbs }
    }

    /// Creates a value from a little-endian limb slice, zero-extending.
    ///
    /// # Panics
    ///
    /// Panics if the slice has more than `L` significant limbs.
    pub fn from_limbs_le(slice: &[u64]) -> Self {
        let mut limbs = [0u64; L];
        for (i, &l) in slice.iter().enumerate() {
            if i < L {
                limbs[i] = l;
            } else {
                assert_eq!(l, 0, "value does not fit in {} limbs", L);
            }
        }
        MpUint { limbs }
    }

    /// Creates a value from big-endian limbs (the paper's notation order).
    pub fn from_limbs_be(slice: &[u64]) -> Self {
        let le: Vec<u64> = slice.iter().rev().copied().collect();
        Self::from_limbs_le(&le)
    }

    /// Returns the little-endian limbs.
    pub const fn limbs(&self) -> &[u64; L] {
        &self.limbs
    }

    /// Returns the limbs in big-endian (paper) order.
    pub fn to_limbs_be(&self) -> [u64; L] {
        let mut out = self.limbs;
        out.reverse();
        out
    }

    /// Parses a hexadecimal string (no prefix).
    ///
    /// # Panics
    ///
    /// Panics if the string contains non-hex characters or does not fit in `L` limbs.
    pub fn from_hex(s: &str) -> Self {
        let mut limbs = [0u64; L];
        let bytes = s.as_bytes();
        let mut end = bytes.len();
        let mut i = 0;
        while end > 0 {
            let start = end.saturating_sub(16);
            let mut limb = 0u64;
            for c in s[start..end].chars() {
                limb = limb << 4 | c.to_digit(16).expect("invalid hex digit") as u64;
            }
            assert!(i < L || limb == 0, "hex value does not fit in {} limbs", L);
            if i < L {
                limbs[i] = limb;
            }
            i += 1;
            end = start;
        }
        MpUint { limbs }
    }

    /// Formats as a minimal-length lowercase hexadecimal string.
    pub fn to_hex(&self) -> String {
        let mut s = String::new();
        let mut started = false;
        for &l in self.limbs.iter().rev() {
            if started {
                s.push_str(&format!("{l:016x}"));
            } else if l != 0 {
                s.push_str(&format!("{l:x}"));
                started = true;
            }
        }
        if s.is_empty() {
            s.push('0');
        }
        s
    }

    /// Returns `true` if the value is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Returns `true` if the value is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs[0] & 1 == 1
    }

    /// Number of significant bits.
    pub fn bits(&self) -> u32 {
        for (i, &l) in self.limbs.iter().enumerate().rev() {
            if l != 0 {
                return i as u32 * 64 + (64 - l.leading_zeros());
            }
        }
        0
    }

    /// Returns bit `i` (least significant bit is bit 0). Bits at or beyond the width
    /// read as `false`.
    pub fn bit(&self, i: u32) -> bool {
        let limb = (i / 64) as usize;
        if limb >= L {
            return false;
        }
        (self.limbs[limb] >> (i % 64)) & 1 == 1
    }

    /// Converts to `u64`, returning `None` if the value does not fit.
    pub fn to_u64(&self) -> Option<u64> {
        if self.limbs[1..].iter().all(|&l| l == 0) {
            Some(self.limbs[0])
        } else {
            None
        }
    }

    /// Converts to `u128`, returning `None` if the value does not fit.
    pub fn to_u128(&self) -> Option<u128> {
        if self.limbs.len() > 2 && self.limbs[2..].iter().any(|&l| l != 0) {
            None
        } else {
            let hi = if L > 1 { self.limbs[1] } else { 0 };
            Some(self.limbs[0] as u128 | (hi as u128) << 64)
        }
    }

    /// Widens into a larger limb count.
    ///
    /// # Panics
    ///
    /// Panics at compile time via `const` assertion if `M < L` semantics are violated at
    /// run time (the value must fit, which it always does when `M >= L`).
    pub fn widen<const M: usize>(&self) -> MpUint<M> {
        MpUint::<M>::from_limbs_le(&self.limbs)
    }

    /// Truncates (or zero-extends) into a different limb count, keeping the low limbs.
    pub fn resize<const M: usize>(&self) -> MpUint<M> {
        let mut limbs = [0u64; M];
        let n = M.min(L);
        limbs[..n].copy_from_slice(&self.limbs[..n]);
        MpUint { limbs }
    }
}

impl<const L: usize> Default for MpUint<L> {
    fn default() -> Self {
        Self::ZERO
    }
}

impl<const L: usize> Ord for MpUint<L> {
    fn cmp(&self, other: &Self) -> Ordering {
        for i in (0..L).rev() {
            match self.limbs[i].cmp(&other.limbs[i]) {
                Ordering::Equal => continue,
                ord => return ord,
            }
        }
        Ordering::Equal
    }
}

impl<const L: usize> PartialOrd for MpUint<L> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<const L: usize> From<u64> for MpUint<L> {
    fn from(v: u64) -> Self {
        Self::from_u64(v)
    }
}

impl<const L: usize> fmt::Debug for MpUint<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MpUint<{}>(0x{})", L, self.to_hex())
    }
}

impl<const L: usize> fmt::Display for MpUint<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "0x", &self.to_hex())
    }
}

impl<const L: usize> fmt::LowerHex for MpUint<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "0x", &self.to_hex())
    }
}

impl<const L: usize> fmt::UpperHex for MpUint<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad_integral(true, "0x", &self.to_hex().to_uppercase())
    }
}

impl<const L: usize> fmt::Binary for MpUint<L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = String::new();
        let mut started = false;
        for &l in self.limbs.iter().rev() {
            if started {
                s.push_str(&format!("{l:064b}"));
            } else if l != 0 {
                s.push_str(&format!("{l:b}"));
                started = true;
            }
        }
        if s.is_empty() {
            s.push('0');
        }
        f.pad_integral(true, "0b", &s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_have_expected_shapes() {
        assert!(U256::ZERO.is_zero());
        assert_eq!(U256::ONE.to_u64(), Some(1));
        assert_eq!(U256::MAX.bits(), 256);
        assert_eq!(U128::BITS, 128);
    }

    #[test]
    fn hex_round_trip() {
        let s = "123456789abcdef0fedcba98765432100123456789abcdef";
        let x = U256::from_hex(s);
        assert_eq!(x.to_hex(), s);
        assert_eq!(U256::from_hex("0").to_hex(), "0");
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn from_hex_overflow_panics() {
        let _ = U128::from_hex("1ffffffffffffffffffffffffffffffff");
    }

    #[test]
    fn limb_order_conversions() {
        let be = [1u64, 2, 3, 4]; // paper order: most significant first
        let x = U256::from_limbs_be(&be);
        assert_eq!(x.limbs(), &[4, 3, 2, 1]);
        assert_eq!(x.to_limbs_be(), be);
    }

    #[test]
    fn bits_and_bit() {
        let x = U256::from_u64(1) << 200;
        assert_eq!(x.bits(), 201);
        assert!(x.bit(200));
        assert!(!x.bit(199));
        assert!(!x.bit(1000));
        assert_eq!(U256::ZERO.bits(), 0);
    }

    #[test]
    fn ordering() {
        let a = U256::from_u64(5);
        let b = U256::from_u64(1) << 128;
        assert!(a < b);
        assert!(b > a);
        assert_eq!(a.cmp(&a), Ordering::Equal);
    }

    #[test]
    fn conversions_to_primitives() {
        assert_eq!(U256::from_u64(7).to_u64(), Some(7));
        assert_eq!((U256::from_u64(1) << 64).to_u64(), None);
        assert_eq!(U256::from_u128(u128::MAX).to_u128(), Some(u128::MAX));
        assert_eq!((U256::from_u64(1) << 128).to_u128(), None);
    }

    #[test]
    fn widen_and_resize() {
        let x = U128::from_u128(u128::MAX);
        let w: U256 = x.widen();
        assert_eq!(w.to_u128(), Some(u128::MAX));
        let t: U128 = (U256::MAX).resize();
        assert_eq!(t, U128::MAX);
    }

    #[test]
    fn formatting() {
        let x = U128::from_u64(255);
        assert_eq!(format!("{x}"), "ff");
        assert_eq!(format!("{x:#x}"), "0xff");
        assert_eq!(format!("{x:X}"), "FF");
        assert_eq!(format!("{:b}", U128::from_u64(5)), "101");
        assert_eq!(format!("{:?}", U128::ZERO), "MpUint<2>(0x0)");
    }
}
