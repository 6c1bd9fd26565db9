//! References the workloads check the engine against. Nothing here calls the
//! planned engine: it is `BigUint` arithmetic, the `RnsContext` reference
//! implementation, and the definitions of the transforms.

use moma::bignum::BigUint;
use moma::ring::oracle as ring_oracle;
use moma::rns::{RnsContext, RnsInt};

/// FNV-1a over machine words: the digest ladder results are compared by.
pub fn digest(words: &[u64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Digest of coefficients that each fit one word (a ladder's floor level has
/// a single modulus, so its coefficients do).
pub fn digest_small(coeffs: &[BigUint]) -> u64 {
    let words: Vec<u64> = coeffs
        .iter()
        .map(|c| c.to_u64().expect("floor-level coefficient fits a word"))
        .collect();
    digest(&words)
}

/// Coefficients `ks` of one ladder level computed from the definition: the
/// negacyclic product `a·b mod (X^n + 1, Q_level)`, then the reference rescale
/// by the level's last modulus. `moduli` is the whole ladder.
pub fn ladder_level_coeffs(
    moduli: &[u64],
    level: usize,
    a: &[BigUint],
    b: &[BigUint],
    ks: &[usize],
) -> Vec<BigUint> {
    let n = a.len();
    let ctx = RnsContext::with_moduli(&moduli[..moduli.len() - level]);
    let q = ctx.product();
    let products: Vec<BigUint> = ks
        .iter()
        .map(|&k| {
            // c_k = Σ_{i+j=k} a_i·b_j − Σ_{i+j=k+n} a_i·b_j.
            let mut pos = BigUint::zero();
            let mut neg = BigUint::zero();
            for (i, ai) in a.iter().enumerate() {
                if i <= k {
                    pos = &pos + &(ai * &b[k - i]);
                } else {
                    neg = &neg + &(ai * &b[n + k - i]);
                }
            }
            (&pos % q).mod_sub(&(&neg % q), q)
        })
        .collect();
    ring_oracle::rescale(&ctx, &products)
}

/// Reference for one element of the `rns_chain_inline` operation over the
/// basis `src` and `dst = src` minus its last modulus:
/// `t = s·x·y + z`, `u = round(t·w / q_last)` re-expressed on `dst`, then the
/// approximate extension of `u` back onto `src` (overshoot included).
pub fn chain_element(
    src: &RnsContext,
    dst: &RnsContext,
    [x, y, z, w]: [&BigUint; 4],
    s: &BigUint,
) -> RnsInt {
    let q = src.product();
    let t = s.mod_mul(&x.mod_mul(y, q), q).mod_add(z, q);
    let u = src.scale_and_round(&src.to_residues(&t.mod_mul(w, q)));
    dst.base_convert(src, &u)
}

/// Reference for a served `RnsMulRescaleExtend` over `src → dst` where `dst`
/// is a prefix of `src` without its last modulus: `round(a·b / q_last)` read
/// modulo the product of `dst`.
pub fn mul_rescale_extend(
    src: &RnsContext,
    dst: &RnsContext,
    a: &[BigUint],
    b: &[BigUint],
) -> Vec<BigUint> {
    let shortened = src.without_last();
    a.iter()
        .zip(b)
        .map(|(a, b)| {
            let u = src.scale_and_round(&src.to_residues(&a.mod_mul(b, src.product())));
            shortened.from_residues(&u).reduce(dst.product())
        })
        .collect()
}

/// Output `k` of the forward transform from its definition,
/// `Σ_j x_j·ω^{jk} mod q`, after checking that `omega` is a primitive `n`-th
/// root of unity.
pub fn dft_coeff(q: &BigUint, omega: &BigUint, data: &[BigUint], k: usize) -> BigUint {
    let n = data.len();
    let one = BigUint::one();
    assert!(
        omega.mod_pow(&BigUint::from(n as u64), q) == one
            && omega.mod_pow(&BigUint::from(n as u64 / 2), q) != one,
        "omega is not a primitive n-th root of unity"
    );
    let step = omega.mod_pow(&BigUint::from(k as u64), q);
    let mut power = one;
    let mut acc = BigUint::zero();
    for x in data {
        acc = acc.mod_add(&x.mod_mul(&power, q), q);
        power = power.mod_mul(&step, q);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma::bignum::random::random_below;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sampled_ladder_level_agrees_with_the_full_schoolbook_oracle() {
        let n = 32;
        let moduli = moma::ring::default_ladder(n, 3);
        let mut rng = StdRng::seed_from_u64(5);
        for level in 0..2 {
            let ctx = RnsContext::with_moduli(&moduli[..moduli.len() - level]);
            let coeffs = |rng: &mut StdRng| -> Vec<BigUint> {
                (0..n).map(|_| random_below(rng, ctx.product())).collect()
            };
            let (a, b) = (coeffs(&mut rng), coeffs(&mut rng));
            let full =
                ring_oracle::rescale(&ctx, &ring_oracle::negacyclic_mul(ctx.product(), &a, &b));
            let ks = [0, 1, n / 2, n - 1];
            let sampled = ladder_level_coeffs(&moduli, level, &a, &b, &ks);
            for (k, got) in ks.iter().zip(sampled) {
                assert_eq!(got, full[*k], "level {level}, coefficient {k}");
            }
        }
    }

    #[test]
    fn dft_coeff_of_a_delta_is_a_power_of_omega() {
        // q = 17, n = 4, ω = 4 (4² = 16 = −1).
        let q = BigUint::from(17u64);
        let omega = BigUint::from(4u64);
        let delta: Vec<BigUint> = [0u64, 1, 0, 0].map(BigUint::from).to_vec();
        assert_eq!(dft_coeff(&q, &omega, &delta, 3), BigUint::from(13u64)); // 4³ = 64 = 13
    }

    #[test]
    fn digest_depends_on_order_and_value() {
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
        assert_eq!(digest(&[1, 2]), digest_small(&[1u64, 2].map(BigUint::from)));
    }
}
