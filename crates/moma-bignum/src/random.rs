//! Uniform random sampling of [`BigUint`] values.

use crate::BigUint;
use rand::Rng;

/// Samples a uniformly random integer with exactly `bits` significant bits
/// (the top bit is always set), so `2^(bits-1) <= x < 2^bits`.
///
/// # Panics
///
/// Panics if `bits` is zero.
///
/// ```
/// use moma_bignum::random::random_bits;
/// let mut rng = rand::thread_rng();
/// let x = random_bits(&mut rng, 256);
/// assert_eq!(x.bits(), 256);
/// ```
pub fn random_bits<R: Rng + ?Sized>(rng: &mut R, bits: u32) -> BigUint {
    assert!(bits > 0, "bits must be positive");
    let limbs = bits.div_ceil(64) as usize;
    let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
    let top_bits = bits - (limbs as u32 - 1) * 64;
    let top = &mut v[limbs - 1];
    if top_bits < 64 {
        *top &= (1u64 << top_bits) - 1;
    }
    *top |= 1u64 << (top_bits - 1);
    BigUint::from_limbs_le(v)
}

/// Samples a uniformly random integer in `[0, bound)` by rejection sampling.
///
/// # Panics
///
/// Panics if `bound` is zero.
///
/// ```
/// use moma_bignum::{random::random_below, BigUint};
/// let mut rng = rand::thread_rng();
/// let bound = BigUint::from(1000u64);
/// let x = random_below(&mut rng, &bound);
/// assert!(x < bound);
/// ```
pub fn random_below<R: Rng + ?Sized>(rng: &mut R, bound: &BigUint) -> BigUint {
    assert!(!bound.is_zero(), "bound must be positive");
    let bits = bound.bits();
    let limbs = bits.div_ceil(64) as usize;
    let top_bits = bits - (limbs as u32 - 1) * 64;
    let mask = if top_bits == 64 {
        u64::MAX
    } else {
        (1u64 << top_bits) - 1
    };
    loop {
        let mut v: Vec<u64> = (0..limbs).map(|_| rng.gen()).collect();
        v[limbs - 1] &= mask;
        let candidate = BigUint::from_limbs_le(v);
        if &candidate < bound {
            return candidate;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_bits_has_exact_width() {
        let mut rng = StdRng::seed_from_u64(42);
        for bits in [1u32, 2, 63, 64, 65, 127, 128, 129, 381, 753, 1024] {
            let x = random_bits(&mut rng, bits);
            assert_eq!(x.bits(), bits, "width {bits}");
        }
    }

    #[test]
    fn random_below_respects_bound() {
        let mut rng = StdRng::seed_from_u64(7);
        let bound = BigUint::from_hex("1000000000000000000000001").unwrap();
        for _ in 0..100 {
            assert!(random_below(&mut rng, &bound) < bound);
        }
        // Tiny bound: only zero is possible.
        assert!(random_below(&mut rng, &BigUint::one()).is_zero());
    }

    #[test]
    fn random_values_are_not_constant() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = random_bits(&mut rng, 256);
        let b = random_bits(&mut rng, 256);
        assert_ne!(a, b);
    }

    #[test]
    #[should_panic(expected = "bits must be positive")]
    fn zero_bits_panics() {
        let mut rng = StdRng::seed_from_u64(0);
        random_bits(&mut rng, 0);
    }
}
