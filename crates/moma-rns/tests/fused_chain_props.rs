//! Property tests for the fused rescale-and-extend chain: on random mixed
//! narrow/wide bases and random inputs, `rescale_then_extend` must match the
//! `scale_and_round` → `base_convert` two-step `BigUint` oracle **bit for bit**
//! (including the `x + αM⁻` overshoot), and so must the same two steps run one
//! after the other on the planned engine.

use moma_bignum::BigUint;
use moma_gpu::BufferPool;
use moma_ir::CompiledKernel;
use moma_rns::{RnsContext, RnsMatrix, RnsPlan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a deterministic basis of `count` primes whose widths cycle through
/// `widths` (31-bit narrow rows exercise the single-widening-multiplication
/// path, 40/52-bit rows the general Barrett path).
fn mixed_basis(seed: u64, count: usize, widths: &[u32]) -> Vec<u64> {
    let mut moduli = Vec::with_capacity(count);
    for (i, &bits) in widths.iter().cycle().take(count).enumerate() {
        // One fresh prime per slot; distinct seeds keep the slots distinct.
        let m = RnsContext::with_random_primes(1, bits, seed ^ ((i as u64 + 1) << 17)).moduli()[0];
        if !moduli.contains(&m) {
            moduli.push(m);
        }
    }
    // Collisions are vanishingly rare; top up deterministically if one happened.
    let mut extra = 0u64;
    while moduli.len() < count {
        let m = RnsContext::with_random_primes(1, 31, seed ^ 0xdead ^ extra).moduli()[0];
        if !moduli.contains(&m) {
            moduli.push(m);
        }
        extra += 1;
    }
    moduli
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fused chain equals the BigUint oracle chain bit for bit, on random
    /// mixed narrow/wide source and target bases.
    #[test]
    fn fused_chain_matches_biguint_oracle(
        seed in any::<u64>(),
        src_count in 3usize..6,
        dst_count in 2usize..6,
        cols in 1usize..12,
    ) {
        let src_moduli = mixed_basis(seed, src_count, &[31, 40, 31, 52]);
        let dst_moduli = mixed_basis(seed ^ 0xb1ab, dst_count, &[52, 31, 40]);
        let src_ctx = RnsContext::with_moduli(&src_moduli);
        let dst_ctx = RnsContext::with_moduli(&dst_moduli);
        let src = RnsPlan::new(&src_ctx);
        let dst = RnsPlan::new(&dst_ctx);
        let p = src.rescale_extend_plan(&dst);

        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9));
        let values: Vec<BigUint> = (0..cols)
            .map(|_| moma_bignum::random::random_below(&mut rng, src.product()))
            .collect();
        let a = RnsMatrix::from_biguints(&src, &values);

        let pool = BufferPool::new();
        let (fused, fused_stats) = src.rescale_then_extend(&p, &a, &pool);
        let (rescaled, _) = src.scale_and_round(p.rescale_plan(), &a, &pool);
        let bc = p.base_conv_plan();
        let kernel = CompiledKernel::compile(&bc.fused_kernel_ir()).unwrap();
        let (two_pass, _) = p
            .rescale_plan()
            .output_plan()
            .base_convert(bc, &rescaled, &kernel, &pool);
        prop_assert_eq!(&fused, &two_pass, "the folded sweep and the two steps must agree");
        prop_assert_eq!(fused_stats.launches, 2, "the folded sweep is two launch rounds");

        let out_ctx = src_ctx.without_last();
        for (c, v) in values.iter().enumerate() {
            let oracle = out_ctx.base_convert(
                &dst_ctx,
                &src_ctx.scale_and_round(&src_ctx.to_residues(v)),
            );
            prop_assert_eq!(fused.element(c), oracle, "column {}", c);
        }
    }

    /// The fused chain's reconstructed value is the rescaled quotient plus a
    /// small multiple of the shortened basis product (the approximate-conversion
    /// overshoot contract), whenever the target basis has headroom to represent
    /// it exactly.
    #[test]
    fn fused_chain_overshoot_stays_bounded(seed in any::<u64>(), cols in 1usize..8) {
        let src = RnsPlan::new(&RnsContext::with_moduli(&mixed_basis(seed, 4, &[31, 40])));
        // A roomy all-wide target: 4 × 52-bit ≫ 3 × ≤40-bit source product.
        let dst = RnsPlan::new(&RnsContext::with_moduli(&mixed_basis(seed ^ 0x77, 4, &[52])));
        let p = src.rescale_extend_plan(&dst);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let values: Vec<BigUint> = (0..cols)
            .map(|_| moma_bignum::random::random_below(&mut rng, src.product()))
            .collect();
        let a = RnsMatrix::from_biguints(&src, &values);
        let (out, _) = src.rescale_then_extend(&p, &a, &BufferPool::new());
        let src_ctx = RnsContext::with_moduli(&src.moduli().collect::<Vec<_>>());
        let short_product = p.rescale_plan().output_plan().product().clone();
        for (c, v) in values.iter().enumerate() {
            let rescaled = p
                .rescale_plan()
                .output_plan()
                .from_residues(&src_ctx.scale_and_round(&src_ctx.to_residues(v)));
            let reconstructed = dst.to_biguints(&out)[c].clone();
            let excess = &reconstructed - &rescaled;
            let (alpha, rem) = excess.div_rem(&short_product);
            prop_assert!(rem.is_zero(), "column {}: overshoot must be a multiple of M⁻", c);
            prop_assert!(
                alpha.to_u64().unwrap() < p.rescale_plan().output_plan().moduli_count() as u64,
                "column {}: α out of range",
                c
            );
        }
    }
}
