//! Deterministic ladder-prime search.
//!
//! A negacyclic transform of size `n` over `Z_q` needs a primitive `2n`-th
//! root of unity, i.e. `q ≡ 1 (mod 2n)`. Ladder moduli are therefore drawn
//! from the arithmetic progression `q = k·2n + 1`, scanning `k` downward from
//! the top of the requested bit width so the search is reproducible and the
//! primes are as large as the width allows (maximising rescale headroom).

use moma_bignum::prime::is_prime_u64;

/// Largest prime `q = k·2n + 1` of exactly `bits` bits not already in `taken`.
fn next_ladder_prime(n: usize, bits: u32, taken: &[u64]) -> u64 {
    let two_n = 2 * n as u64;
    assert!(
        (1u64 << bits) / two_n >= 8,
        "bit width {bits} leaves no room for primes ≡ 1 mod {two_n}"
    );
    // Largest k with q = k·2n + 1 < 2^bits.
    let mut k = ((1u64 << bits) - 2) / two_n;
    loop {
        let q = k * two_n + 1;
        assert!(
            q >= 1u64 << (bits - 1),
            "prime search exhausted the {bits}-bit window for n = {n}"
        );
        if !taken.contains(&q) && is_prime_u64(q) {
            return q;
        }
        k -= 1;
    }
}

/// One ladder prime per requested bit width, all distinct, all `≡ 1 (mod
/// 2n)`, each the largest such prime of its width not already chosen. The
/// search is fully deterministic: the same `(n, bits)` always yields the same
/// ladder.
///
/// # Panics
///
/// Panics if `n` is not a power of two ≥ 2, a width is outside `[16, 60]`
/// (60 bits is the engine's single-word Barrett cap), or a width window is
/// too narrow to hold a prime `≡ 1 (mod 2n)`.
pub fn ladder_primes(n: usize, bits: &[u32]) -> Vec<u64> {
    assert!(
        n.is_power_of_two() && n >= 2,
        "ring degree must be a power of two ≥ 2"
    );
    let mut out: Vec<u64> = Vec::with_capacity(bits.len());
    for &b in bits {
        assert!(
            (16..=60).contains(&b),
            "ladder prime width {b} outside [16, 60]"
        );
        let q = next_ladder_prime(n, b, &out);
        out.push(q);
    }
    out
}

/// The default mixed narrow/wide ladder for a depth-`levels` computation:
/// `levels + 1` moduli alternating 50-bit (wide Barrett path) and 30-bit
/// (single-widening-multiplication narrow path), widest first.
pub fn default_ladder(n: usize, levels: usize) -> Vec<u64> {
    let bits: Vec<u32> = (0..=levels)
        .map(|i| if i % 2 == 0 { 50 } else { 30 })
        .collect();
    ladder_primes(n, &bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_primes_are_distinct_congruent_and_deterministic() {
        let n = 1 << 10;
        let moduli = ladder_primes(n, &[50, 30, 50, 30, 30]);
        assert_eq!(moduli.len(), 5);
        for (i, &q) in moduli.iter().enumerate() {
            assert_eq!((q - 1) % (2 * n as u64), 0, "q ≡ 1 mod 2n");
            assert!(is_prime_u64(q));
            assert!(!moduli[..i].contains(&q), "distinct");
        }
        // Repeated same-width requests walk further down the progression.
        assert!(moduli[4] < moduli[1] || moduli[4] < moduli[3]);
        assert_eq!(moduli, ladder_primes(n, &[50, 30, 50, 30, 30]));
    }

    #[test]
    fn default_ladder_has_levels_plus_one_moduli() {
        let moduli = default_ladder(1 << 8, 4);
        assert_eq!(moduli.len(), 5);
        assert!(moduli[0] > (1 << 49) && moduli[1] < (1 << 30));
    }
}
