//! Primality testing and generation of NTT-friendly prime moduli.
//!
//! The paper evaluates NTTs over "general" primes of a given bit-width (no Goldilocks
//! or Montgomery-friendly structure, §5.3). An `n`-point NTT over `Z_q` needs a
//! primitive `n`-th root of unity, which exists iff `n | q - 1`; we therefore generate
//! primes of the form `q = c * 2^e + 1` ("Proth-form" / NTT-friendly primes) with the
//! requested bit-width and `2^e` dividing `q - 1` for the largest transform we intend
//! to run.

use crate::random::{random_below, random_bits};
use crate::BigUint;
use rand::Rng;

/// Number of Miller–Rabin rounds used by [`is_prime`]. 40 rounds gives an error
/// probability below 2^-80 for random candidates.
pub const MILLER_RABIN_ROUNDS: u32 = 40;

/// Deterministic small-prime trial division table used to cheaply reject candidates.
const SMALL_PRIMES: [u64; 25] = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97,
];

/// Probabilistic primality test (trial division + Miller–Rabin).
///
/// ```
/// use moma_bignum::{prime::is_prime, BigUint};
/// let mut rng = rand::thread_rng();
/// // 2^127 - 1 is a Mersenne prime.
/// let p = (BigUint::from(1u64) << 127) - BigUint::one();
/// assert!(is_prime(&mut rng, &p));
/// assert!(!is_prime(&mut rng, &(p + BigUint::from(2u64))));
/// ```
pub fn is_prime<R: Rng + ?Sized>(rng: &mut R, n: &BigUint) -> bool {
    if n < &BigUint::from(2u64) {
        return false;
    }
    for &p in &SMALL_PRIMES {
        let p_big = BigUint::from(p);
        if n == &p_big {
            return true;
        }
        if (n % &p_big).is_zero() {
            return false;
        }
    }
    miller_rabin(rng, n, MILLER_RABIN_ROUNDS)
}

/// Exact primality test for machine words: trial division by the primes
/// below 100, then Miller–Rabin over fixed bases. The twelve bases 2…37 admit
/// no strong pseudoprime below `2^64` (Sorenson & Webster, "Strong
/// pseudoprimes to twelve prime bases", Math. Comp. 2017), and a shorter
/// prefix of them is exact below the least strong pseudoprime to that prefix
/// (Jaeschke 1993; Jiang & Deng 2014), so a 31-bit RNS modulus takes four
/// rounds. Every product is one `u128` multiply and remainder; no RNG, no
/// allocation.
///
/// This is the test for *verifying* a given word-size modulus. The prime
/// searches ([`random_prime`], [`ntt_friendly_prime`]) stay on the RNG-driven
/// [`is_prime`]: its random stream fixes which primes a seeded search yields.
///
/// ```
/// use moma_bignum::prime::is_prime_u64;
/// assert!(is_prime_u64((1 << 61) - 1));
/// assert!(!is_prime_u64(3_215_031_751)); // strong pseudoprime to 2, 3, 5, 7
/// ```
pub fn is_prime_u64(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for &p in &SMALL_PRIMES {
        if n % p == 0 {
            return n == p;
        }
    }
    // n is odd and above 97, so every base below is a valid witness in [2, n − 2].
    let mul = |a: u64, b: u64| (a as u128 * b as u128 % n as u128) as u64;
    let s = (n - 1).trailing_zeros();
    let d = (n - 1) >> s;
    // Each arm ends just below the least strong pseudoprime to its `rounds` bases.
    let rounds = match n {
        ..=3_215_031_750 => 4,
        3_215_031_751..=341_550_071_728_320 => 7,
        341_550_071_728_321..=3_825_123_056_546_413_050 => 9,
        _ => 12,
    };
    'witness: for &a in &SMALL_PRIMES[..rounds] {
        let (mut x, mut base, mut e) = (1, a, d);
        while e > 0 {
            if e & 1 == 1 {
                x = mul(x, base);
            }
            base = mul(base, base);
            e >>= 1;
        }
        if x == 1 || x == n - 1 {
            continue 'witness;
        }
        for _ in 1..s {
            x = mul(x, x);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Miller–Rabin with `rounds` random bases. `n` must be odd and greater than 3.
fn miller_rabin<R: Rng + ?Sized>(rng: &mut R, n: &BigUint, rounds: u32) -> bool {
    let one = BigUint::one();
    let two = BigUint::from(2u64);
    let n_minus_1 = n - &one;
    // Write n - 1 = d * 2^s with d odd.
    let mut d = n_minus_1.clone();
    let mut s = 0u32;
    while d.is_even() {
        d = d >> 1;
        s += 1;
    }
    'witness: for _ in 0..rounds {
        let a = &random_below(rng, &(n - &BigUint::from(4u64))) + &two; // a in [2, n-2]
        let mut x = a.mod_pow(&d, n);
        if x == one || x == n_minus_1 {
            continue 'witness;
        }
        for _ in 0..s - 1 {
            x = x.mod_mul(&x, n);
            if x == n_minus_1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

/// Generates a random prime with exactly `bits` bits.
///
/// # Panics
///
/// Panics if `bits < 2`.
pub fn random_prime<R: Rng + ?Sized>(rng: &mut R, bits: u32) -> BigUint {
    assert!(bits >= 2, "a prime needs at least 2 bits");
    loop {
        let mut candidate = random_bits(rng, bits);
        if candidate.is_even() {
            candidate = candidate + BigUint::one();
        }
        if candidate.bits() == bits && is_prime(rng, &candidate) {
            return candidate;
        }
    }
}

/// Generates an NTT-friendly prime `q` with exactly `bits` bits such that
/// `2^two_adicity` divides `q - 1`.
///
/// The returned prime supports NTTs of any power-of-two size up to `2^two_adicity`.
///
/// # Panics
///
/// Panics if `two_adicity + 2 > bits` (no such prime can exist with that shape).
///
/// ```
/// use moma_bignum::{prime::ntt_friendly_prime, BigUint};
/// let mut rng = rand::thread_rng();
/// let q = ntt_friendly_prime(&mut rng, 64, 20);
/// assert_eq!(q.bits(), 64);
/// assert!(((q - BigUint::one()) % (BigUint::from(1u64) << 20)).is_zero());
/// ```
pub fn ntt_friendly_prime<R: Rng + ?Sized>(rng: &mut R, bits: u32, two_adicity: u32) -> BigUint {
    assert!(
        two_adicity + 2 <= bits,
        "two_adicity {two_adicity} too large for {bits}-bit prime"
    );
    let pow2 = BigUint::from(1u64) << two_adicity;
    loop {
        // q = c * 2^e + 1 with c random of (bits - e) bits and odd top bit set.
        let c = random_bits(rng, bits - two_adicity);
        let q = &(&c * &pow2) + &BigUint::one();
        if q.bits() == bits && is_prime(rng, &q) {
            return q;
        }
    }
}

/// Finds a generator of the order-`2^two_adicity` subgroup of `Z_q^*`, i.e. a primitive
/// `2^two_adicity`-th root of unity modulo `q`.
///
/// `q` must be prime with `2^two_adicity | q - 1`. Returns `omega` such that
/// `omega^(2^two_adicity) = 1` and `omega^(2^(two_adicity-1)) != 1`.
pub fn primitive_root_of_unity<R: Rng + ?Sized>(
    rng: &mut R,
    q: &BigUint,
    two_adicity: u32,
) -> BigUint {
    assert!(two_adicity >= 1);
    let q_minus_1 = q - &BigUint::one();
    let cofactor = &q_minus_1 >> two_adicity;
    assert!(
        (&q_minus_1 - &(&cofactor * &(BigUint::from(1u64) << two_adicity))).is_zero(),
        "2^{two_adicity} must divide q-1"
    );
    let half_order_exp = BigUint::from(1u64) << (two_adicity - 1);
    loop {
        let g = &random_below(rng, &(&q_minus_1 - &BigUint::one())) + &BigUint::from(2u64);
        let omega = g.mod_pow(&cofactor, q);
        // omega has order dividing 2^two_adicity; it is primitive iff
        // omega^(2^(two_adicity-1)) != 1.
        if !omega.mod_pow(&half_order_exp, q).is_one() {
            return omega;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn small_prime_classification() {
        let mut rng = StdRng::seed_from_u64(1);
        let primes = [2u64, 3, 5, 7, 97, 65537, 4294967291];
        let composites = [0u64, 1, 4, 9, 91, 65535, 4294967295];
        for p in primes {
            assert!(is_prime(&mut rng, &BigUint::from(p)), "{p} is prime");
        }
        for c in composites {
            assert!(!is_prime(&mut rng, &BigUint::from(c)), "{c} is composite");
        }
    }

    #[test]
    fn carmichael_numbers_are_rejected() {
        let mut rng = StdRng::seed_from_u64(2);
        for c in [561u64, 1105, 1729, 2465, 2821, 6601, 8911] {
            assert!(
                !is_prime(&mut rng, &BigUint::from(c)),
                "{c} is a Carmichael number"
            );
        }
    }

    /// Sieve of Eratosthenes below `limit`.
    fn sieve(limit: usize) -> Vec<bool> {
        let mut prime = vec![true; limit];
        prime[0] = false;
        prime[1] = false;
        let mut i = 2;
        while i * i < limit {
            if prime[i] {
                (i * i..limit).step_by(i).for_each(|j| prime[j] = false);
            }
            i += 1;
        }
        prime
    }

    #[test]
    fn is_prime_u64_agrees_with_a_sieve_below_2_pow_20() {
        for (n, &expected) in sieve(1 << 20).iter().enumerate() {
            assert_eq!(is_prime_u64(n as u64), expected, "{n}");
        }
    }

    #[test]
    fn is_prime_u64_agrees_with_miller_rabin_on_hard_cases() {
        let mut rng = StdRng::seed_from_u64(7);
        let strong_pseudoprimes = [
            2047u64,
            1_373_653,
            25_326_001,
            3_215_031_751,
            2_152_302_898_747,
            3_474_749_660_383,
            341_550_071_728_321,
            3_825_123_056_546_413_051,
        ];
        let carmichael = [561u64, 1105, 1729];
        let primes = [(1u64 << 61) - 1, u64::MAX - 58];
        for n in strong_pseudoprimes.into_iter().chain(carmichael) {
            assert!(!is_prime_u64(n), "{n} is composite");
        }
        for n in primes {
            assert!(is_prime_u64(n), "{n} is prime");
        }
        for n in strong_pseudoprimes
            .into_iter()
            .chain(carmichael)
            .chain(primes)
        {
            assert_eq!(
                is_prime_u64(n),
                is_prime(&mut rng, &BigUint::from(n)),
                "{n}"
            );
        }
    }

    /// The candidates a ladder search walks: `q = k·2n + 1` downward from the
    /// top of the 30- and 50-bit windows at the ring degrees the ladder uses.
    #[test]
    fn is_prime_u64_agrees_with_miller_rabin_on_ladder_windows() {
        let mut rng = StdRng::seed_from_u64(8);
        for n in [16u64, 1024, 4096] {
            for bits in [30u32, 50] {
                let top = ((1u64 << bits) - 2) / (2 * n);
                for k in top - 300..=top {
                    let q = k * 2 * n + 1;
                    assert_eq!(
                        is_prime_u64(q),
                        is_prime(&mut rng, &BigUint::from(q)),
                        "{q}"
                    );
                }
            }
        }
    }

    #[test]
    fn known_large_primes() {
        let mut rng = StdRng::seed_from_u64(3);
        // 2^127 - 1 (Mersenne) and the Goldilocks prime 2^64 - 2^32 + 1.
        let m127 = (BigUint::from(1u64) << 127) - BigUint::one();
        assert!(is_prime(&mut rng, &m127));
        assert!(is_prime(&mut rng, &BigUint::from(0xffff_ffff_0000_0001u64)));
    }

    #[test]
    fn random_prime_has_requested_width() {
        let mut rng = StdRng::seed_from_u64(4);
        for bits in [32u32, 64, 96] {
            let p = random_prime(&mut rng, bits);
            assert_eq!(p.bits(), bits);
            assert!(is_prime(&mut rng, &p));
        }
    }

    #[test]
    fn ntt_friendly_prime_structure() {
        let mut rng = StdRng::seed_from_u64(5);
        let q = ntt_friendly_prime(&mut rng, 60, 16);
        assert_eq!(q.bits(), 60);
        assert!(((&q - &BigUint::one()) % &(BigUint::from(1u64) << 16)).is_zero());
        assert!(is_prime(&mut rng, &q));
    }

    #[test]
    fn primitive_root_has_exact_order() {
        let mut rng = StdRng::seed_from_u64(6);
        let two_adicity = 12;
        let q = ntt_friendly_prime(&mut rng, 62, two_adicity);
        let omega = primitive_root_of_unity(&mut rng, &q, two_adicity);
        let full = BigUint::from(1u64) << two_adicity;
        let half = BigUint::from(1u64) << (two_adicity - 1);
        assert!(omega.mod_pow(&full, &q).is_one());
        assert!(!omega.mod_pow(&half, &q).is_one());
    }
}
