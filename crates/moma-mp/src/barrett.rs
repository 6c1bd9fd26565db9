//! Multi-word Barrett reduction — the runtime equivalent of the paper's Listing 4
//! generalized from double words to any number of limbs. [`crate::ModRing`] runs it;
//! this module holds its setup-time constant and its wide shift.
//!
//! For a modulus `q` of `m` bits (with `m ≤ 64·L − 4`, the paper's "modulus of bit-width
//! k − 4" convention), the precomputed constant is `μ = ⌊2^(2m+3) / q⌋` and
//!
//! ```text
//! t  = a·b                              (2L limbs)
//! r  = ((t >> (m−2)) · μ) >> (m+5)      (≈ ⌊t/q⌋, off by at most one)
//! c  = t − r·q                          (< 2q, one conditional subtraction)
//! ```

use crate::MpUint;

/// Computes `μ = ⌊2^(2·mbits+3) / q⌋` using schoolbook long division on limbs.
///
/// The numerator has `2·mbits + 4` bits which can exceed `64·L`, so the division is done
/// over a `2L`-limb scratch value bit by bit (this is setup-time only).
pub(crate) fn compute_mu<const L: usize>(q: &MpUint<L>, mbits: u32) -> MpUint<L> {
    // Binary long division: numerator = 2^(2*mbits+3).
    let num_bits = 2 * mbits + 4; // numerator has this many bits (top bit at 2*mbits+3)
    let mut remainder = vec![0u64; 2 * L + 1];
    let mut quotient = vec![0u64; 2 * L + 1];
    for i in (0..num_bits).rev() {
        // remainder = remainder * 2 + bit_i(numerator)
        shl1_in_place(&mut remainder);
        if i == num_bits - 1 {
            remainder[0] |= 1;
        }
        // if remainder >= q { remainder -= q; quotient_bit = 1 }
        if slice_geq(&remainder, q.limbs()) {
            slice_sub(&mut remainder, q.limbs());
            let limb = (i / 64) as usize;
            quotient[limb] |= 1u64 << (i % 64);
        }
    }
    // mu must fit in L limbs: mu < 2^(mbits+4) <= 2^(64L). The only way it would not is
    // a power-of-two modulus, which is never a valid prime field modulus.
    assert!(
        quotient[L..].iter().all(|&l| l == 0),
        "Barrett constant overflows {} limbs (is the modulus a power of two?)",
        L
    );
    MpUint::from_limbs_le(&quotient[..L])
}

/// Right-shifts the 2L-limb value `(hi, lo)` by `bits` (< 128·L), keeping L limbs.
#[inline]
pub(crate) fn shr_wide<const L: usize>(lo: &MpUint<L>, hi: &MpUint<L>, bits: u32) -> MpUint<L> {
    let limb_shift = (bits / 64) as usize;
    let bit_shift = bits % 64;
    let get = |i: usize| -> u64 {
        if i < L {
            lo.limbs()[i]
        } else if i < 2 * L {
            hi.limbs()[i - L]
        } else {
            0
        }
    };
    let mut out = [0u64; L];
    for (i, slot) in out.iter_mut().enumerate() {
        let src = i + limb_shift;
        let mut v = get(src) >> bit_shift;
        if bit_shift > 0 {
            v |= get(src + 1) << (64 - bit_shift);
        }
        *slot = v;
    }
    MpUint::from_limbs(out)
}

fn shl1_in_place(v: &mut [u64]) {
    let mut carry = 0u64;
    for limb in v.iter_mut() {
        let new_carry = *limb >> 63;
        *limb = *limb << 1 | carry;
        carry = new_carry;
    }
}

fn slice_geq(a: &[u64], b: &[u64]) -> bool {
    // a has at least as many limbs as b; treat missing b limbs as zero.
    for i in (0..a.len()).rev() {
        let bi = b.get(i).copied().unwrap_or(0);
        if a[i] != bi {
            return a[i] > bi;
        }
    }
    true
}

#[allow(clippy::needless_range_loop)] // borrow chain indexes two limb arrays in lockstep
fn slice_sub(a: &mut [u64], b: &[u64]) {
    let mut borrow = 0u64;
    for i in 0..a.len() {
        let bi = b.get(i).copied().unwrap_or(0);
        let (d1, b1) = a[i].overflowing_sub(bi);
        let (d2, b2) = d1.overflowing_sub(borrow);
        a[i] = d2;
        borrow = (b1 as u64) + (b2 as u64);
    }
    debug_assert_eq!(borrow, 0);
}

#[cfg(test)]
mod tests {
    use super::compute_mu;
    use crate::{ModRing, MulAlgorithm, U128, U256};

    /// The paper's 124-bit setting (Listing 4, `MBITS = 124`): q has 128 − 4 bits.
    fn q124() -> U128 {
        U128::from_hex("fffffffffffffffffffffffffffff61")
    }

    #[test]
    fn mu_matches_definition_for_small_modulus() {
        // For a single-limb-sized modulus we can cross-check mu against u128 division.
        let q = U128::from_u64(0x0fff_ffff_f000_0001);
        let mbits = 60;
        assert_eq!(q.bits(), mbits);
        let expected = (1u128 << (2 * mbits + 3)) / 0x0fff_ffff_f000_0001u128;
        assert_eq!(compute_mu(&q, mbits).to_u128(), Some(expected));
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn oversized_modulus_rejected() {
        let _ = ModRing::new(U128::MAX);
    }

    #[test]
    fn mul_mod_against_u128_reference_modulus() {
        // Use a 124-bit modulus but operands small enough to verify with u128 splitting:
        // check (q-1)^2 mod q = 1.
        let ring = ModRing::new(q124());
        let qm1 = ring.modulus().wrapping_sub(&U128::ONE);
        assert_eq!(ring.mul(qm1, qm1), U128::ONE);
        // (q-1)*(q-2) mod q = 2
        let qm2 = ring.modulus().wrapping_sub(&U128::from_u64(2));
        assert_eq!(ring.mul(qm1, qm2), U128::from_u64(2));
    }

    #[test]
    fn karatsuba_and_schoolbook_agree() {
        let q = U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff43");
        let sb = ModRing::with_mul_algorithm(q, MulAlgorithm::Schoolbook);
        let ka = ModRing::with_mul_algorithm(q, MulAlgorithm::Karatsuba);
        let mut state = 1u64;
        for _ in 0..50 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            let a = sb.reduce(U256::from_limbs([state, !state, state ^ 0xabc, state >> 3]));
            state = state.wrapping_mul(6364136223846793005).wrapping_add(7);
            let b = sb.reduce(U256::from_limbs([!state, state, state ^ 0xdef, state >> 5]));
            assert_eq!(sb.mul(a, b), ka.mul(a, b));
        }
    }

    #[test]
    fn reduce_full_handles_large_values() {
        let ring = ModRing::new(q124());
        let q = ring.modulus();
        assert_eq!(ring.reduce(U128::ZERO), U128::ZERO);
        assert_eq!(ring.reduce(q), U128::ZERO);
        assert_eq!(ring.reduce(q.wrapping_add(&U128::ONE)), U128::ONE);
        let r = ring.reduce(U128::MAX);
        assert!(r < q);
    }
}
