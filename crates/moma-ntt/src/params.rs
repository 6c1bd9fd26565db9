//! NTT parameters: prime moduli, roots of unity, and their inverses.

use moma_bignum::BigUint;
use moma_mp::{ModRing, MpUint, MulAlgorithm};

/// NTT-friendly prime moduli used throughout the evaluation, one per kernel bit-width.
///
/// Each prime has exactly `k − 4` bits for the `k`-bit kernel (the paper's Barrett
/// convention, §5.2) and is congruent to `1 (mod 2^32)`, so primitive roots of unity
/// exist for every transform size up to `2^32` — far beyond the largest size the paper
/// evaluates (`2^22`).
pub const PAPER_MODULI_HEX: [(u32, &str); 9] = [
    (64, "fffffa000000001"),
    (128, "fffffffffffffffffffffe100000001"),
    (192, "fffffffffffffffffffffffffffffffffffffd800000001"),
    (256, "fffffffffffffffffffffffffffffffffffffffffffffffffffffe200000001"),
    (320, "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7900000001"),
    (384, "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff1500000001"),
    (512, "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff1900000001"),
    (768, "fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff5100000001"),
    (1024, "ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffebc00000001"),
];

/// The largest transform size the evaluation moduli support: every one of them is
/// `≡ 1 (mod 2^32)`, so `2^32` is the largest power of two dividing `q − 1`.
pub const MAX_PAPER_TRANSFORM_SIZE: usize = 1 << 32;

/// Returns the evaluation modulus for a given kernel bit-width as a [`BigUint`].
///
/// # Panics
///
/// Panics if the bit-width is not one of the evaluated widths.
pub fn paper_modulus(bits: u32) -> BigUint {
    let hex = PAPER_MODULI_HEX
        .iter()
        .find(|(b, _)| *b == bits)
        .unwrap_or_else(|| panic!("no evaluation modulus for {bits}-bit kernels"))
        .1;
    BigUint::from_hex(hex).expect("modulus table entries are valid hex")
}

/// Parameters for an `n`-point NTT over `L`-limb elements.
#[derive(Debug, Clone)]
pub struct NttParams<const L: usize> {
    /// Transform size (a power of two).
    pub n: usize,
    /// The coefficient ring `Z_q`.
    pub ring: ModRing<L>,
    /// A primitive `n`-th root of unity.
    pub omega: MpUint<L>,
    /// `omega^{-1} mod q`.
    pub omega_inv: MpUint<L>,
    /// `n^{-1} mod q` (for the inverse transform's final scaling).
    pub n_inv: MpUint<L>,
}

impl<const L: usize> NttParams<L> {
    /// Builds parameters for an `n`-point transform over the evaluation modulus for
    /// `bits`-bit kernels, using the requested multiplication algorithm for Barrett
    /// reduction.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two of at least 2, `n > 2^32`, or the modulus for
    /// `bits` does not fit `L` limbs.
    pub fn for_paper_modulus(n: usize, bits: u32, alg: MulAlgorithm) -> Self {
        assert!(
            n.is_power_of_two() && n >= 2,
            "NTT size must be a power of two"
        );
        assert!(
            n <= MAX_PAPER_TRANSFORM_SIZE,
            "the evaluation moduli support sizes up to 2^32"
        );
        let q_big = paper_modulus(bits);
        let q = MpUint::<L>::from_limbs_le(&q_big.to_limbs_le(L));
        let ring = ModRing::with_mul_algorithm(q, alg);

        let omega = find_root_of_unity(&ring, n as u64);
        let omega_inv = ring.inv(omega);
        let n_inv = ring.inv(ring.reduce(MpUint::from_u64(n as u64)));
        NttParams {
            n,
            ring,
            omega,
            omega_inv,
            n_inv,
        }
    }
}

/// Finds a primitive `n`-th root of unity modulo `q`, where `n ≥ 2` is a power of two
/// dividing `q - 1`: `g^((q-1)/n)` for the first candidate `g = 3, 4, …` that gives one.
fn find_root_of_unity<const L: usize>(ring: &ModRing<L>, n: u64) -> MpUint<L> {
    debug_assert!(n.is_power_of_two() && n >= 2);
    let q_minus_1 = ring.modulus().wrapping_sub(&MpUint::ONE);
    let log_n = n.trailing_zeros();
    assert!(
        (0..log_n).all(|i| !q_minus_1.bit(i)),
        "transform size must divide q - 1"
    );
    let cofactor = q_minus_1.shr_bits(log_n);
    let half = MpUint::from_u64(n / 2);
    for g in 3u64..=1001 {
        let omega = ring.pow(ring.reduce(MpUint::from_u64(g)), &cofactor);
        // omega has order dividing n; it is primitive iff omega^(n/2) != 1.
        if ring.pow(omega, &half) != MpUint::ONE {
            return omega;
        }
    }
    panic!("no primitive root found (is q really of the form c*2^k + 1?)");
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_bignum::prime::is_prime;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn all_paper_moduli_are_valid() {
        let mut rng = StdRng::seed_from_u64(5);
        for (bits, _) in PAPER_MODULI_HEX {
            let q = paper_modulus(bits);
            assert_eq!(
                q.bits(),
                bits - 4,
                "modulus for {bits}-bit kernels has k-4 bits"
            );
            assert!(
                ((&q - &BigUint::one()) % &(BigUint::from(1u64) << 32)).is_zero(),
                "q - 1 divisible by 2^32"
            );
            assert!(is_prime(&mut rng, &q), "modulus for {bits} is prime");
        }
    }

    #[test]
    #[should_panic(expected = "no evaluation modulus")]
    fn unknown_width_rejected() {
        paper_modulus(96);
    }

    #[test]
    fn root_of_unity_has_exact_order() {
        let params = NttParams::<2>::for_paper_modulus(1024, 128, MulAlgorithm::Schoolbook);
        let ring = &params.ring;
        // omega^n = 1 and omega^(n/2) = q - 1 (i.e. -1).
        let pow_n = ring.pow(params.omega, &MpUint::from_u64(1024));
        let pow_half = ring.pow(params.omega, &MpUint::from_u64(512));
        assert_eq!(pow_n, MpUint::ONE);
        assert_eq!(pow_half, ring.modulus().wrapping_sub(&MpUint::ONE));
        // omega * omega_inv = 1, n * n_inv = 1.
        assert_eq!(ring.mul(params.omega, params.omega_inv), MpUint::ONE);
        let n_red = ring.reduce(MpUint::from_u64(1024));
        assert_eq!(ring.mul(n_red, params.n_inv), MpUint::ONE);
    }
}
