//! Primality testing and random prime generation.
//!
//! [`is_prime`] is the oracle's probabilistic test for arbitrary widths,
//! [`is_prime_u64`] the exact one for machine-word moduli, and [`random_prime`] a
//! seeded search for a prime of a given width.

use crate::random::{random_below, random_bits};
use crate::BigUint;
use rand::Rng;

/// Number of Miller–Rabin rounds used by [`is_prime`]. 40 rounds gives an error
/// probability below 2^-80 for random candidates.
const MILLER_RABIN_ROUNDS: u32 = 40;

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
/// search ([`random_prime`]) stays on the RNG-driven [`is_prime`]: its random
/// stream fixes which primes a seeded search yields.
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
}
