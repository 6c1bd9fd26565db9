//! The readable `BigUint` reference for the ring layer.
//!
//! Everything here is deliberately slow and obvious: schoolbook `X^n + 1`
//! reduction and a per-coefficient [`RnsContext::scale_and_round`] replay.
//! The property tests, `ring.rs::full_ladder_matches_oracle_replay` and the
//! repository benchmark's `ladder_inline` reference check pin the planned
//! engine path (folded-twist NTT → pointwise → inverse → residue-local
//! rescale) against these functions **bit for bit**.

use moma_bignum::BigUint;
use moma_rns::RnsContext;

/// Schoolbook negacyclic convolution: `c = a·b mod (X^n + 1)` over
/// `Z_modulus`, with wrapped terms (`i + j ≥ n`) subtracted.
///
/// # Panics
///
/// Panics if `a` and `b` differ in length.
pub fn negacyclic_mul(modulus: &BigUint, a: &[BigUint], b: &[BigUint]) -> Vec<BigUint> {
    let n = a.len();
    assert_eq!(b.len(), n, "operand length mismatch");
    let mut pos = vec![BigUint::zero(); n];
    let mut neg = vec![BigUint::zero(); n];
    for (i, ai) in a.iter().enumerate() {
        for (j, bj) in b.iter().enumerate() {
            let p = ai.mod_mul(bj, modulus);
            let k = i + j;
            if k < n {
                pos[k] = pos[k].mod_add(&p, modulus);
            } else {
                neg[k - n] = neg[k - n].mod_add(&p, modulus);
            }
        }
    }
    pos.iter()
        .zip(&neg)
        .map(|(p, m)| p.mod_sub(m, modulus))
        .collect()
}

/// Coefficient-wise addition over `Z_modulus`.
pub fn add(modulus: &BigUint, a: &[BigUint], b: &[BigUint]) -> Vec<BigUint> {
    assert_eq!(a.len(), b.len(), "operand length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| x.mod_add(y, modulus))
        .collect()
}

/// One oracle rescale: each coefficient through the
/// [`RnsContext::scale_and_round`] reference (divide by the basis' last
/// modulus with the engine's exact rounding), reconstructed over the
/// shortened basis.
///
/// # Panics
///
/// Panics if `ctx` has fewer than two moduli.
pub fn rescale(ctx: &RnsContext, values: &[BigUint]) -> Vec<BigUint> {
    let next = ctx.without_last();
    values
        .iter()
        .map(|v| next.from_residues(&ctx.scale_and_round(&ctx.to_residues(v))))
        .collect()
}

/// Replays a depth-`steps` squaring ladder entirely in `BigUint` arithmetic:
/// step 1 computes `rescale(a·b)`, every later step squares the running value
/// and rescales, dropping one modulus per step. Returns the end-state
/// coefficients over the shortened basis — the bit-for-bit reference for the
/// engine's `ladder_step` chain.
///
/// # Panics
///
/// Panics if `steps ≥ moduli.len()` (rescale needs two moduli).
pub fn ladder_replay(moduli: &[u64], a: &[BigUint], b: &[BigUint], steps: usize) -> Vec<BigUint> {
    assert!(steps < moduli.len(), "ladder deeper than the moduli chain");
    let mut ctx = RnsContext::with_moduli(moduli);
    let mut x = a.to_vec();
    let mut y = b.to_vec();
    for _ in 0..steps {
        let prod = negacyclic_mul(ctx.product(), &x, &y);
        let next = rescale(&ctx, &prod);
        ctx = ctx.without_last();
        x = next.clone();
        y = next;
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    fn big(v: u64) -> BigUint {
        BigUint::from(v)
    }

    #[test]
    fn negacyclic_mul_wraps_with_negation() {
        // (1 + X)·(1 + X) mod (X² + 1) = 1 + 2X + X² = 2X over Z_17.
        let q = big(17);
        let c = negacyclic_mul(&q, &[big(1), big(1)], &[big(1), big(1)]);
        assert_eq!(c, vec![big(0), big(2)]);
        // X·X = X² = −1 ≡ 16.
        let c = negacyclic_mul(&q, &[big(0), big(1)], &[big(0), big(1)]);
        assert_eq!(c, vec![big(16), big(0)]);
    }

    #[test]
    fn ladder_replay_zero_steps_is_identity() {
        let moduli = crate::ladder::ladder_primes(4, &[30, 30]);
        let a = vec![big(5), big(6), big(7), big(8)];
        let b = vec![big(1), big(0), big(0), big(0)];
        assert_eq!(ladder_replay(&moduli, &a, &b, 0), a);
    }
}
