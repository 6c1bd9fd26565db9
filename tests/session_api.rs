//! Cross-crate integration tests for the `moma::Session` API: plan and kernel
//! reuse is asserted through the hit counters (a second identical request must
//! build nothing), and the typed handles must agree with the low-level oracles
//! they wrap.

use moma::bignum::BigUint;
use moma::gpu::DeviceSpec;
use moma::rns::RnsContext;
use moma::{KernelOp, KernelSpec, Session};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn random_values(seed: u64, count: usize, below: &BigUint) -> Vec<BigUint> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..count)
        .map(|_| moma::bignum::random::random_below(&mut rng, below))
        .collect()
}

#[test]
fn second_identical_request_builds_nothing_anywhere() {
    let session = Session::default();
    let src = session.rns_with_capacity(160);
    let src_moduli = src.moduli();
    let dst = session.rns(&src_moduli[..4]);
    let values = random_values(1, 6, src.product());

    // Warm-up: every cache misses once.
    let _ = session.compile(&KernelSpec::new(KernelOp::Butterfly, 256));
    let ntt = session.ntt_default(256);
    let _ = src.conversion_to(&dst);
    let warm = src.encode(&values).mul(&src.encode(&values));
    let _ = warm.rescale_then_extend(&dst);
    let _ = warm.base_convert(&dst);
    let _ = warm.rescale();
    let baseline = session.stats();
    assert!(baseline.generated.misses > 0);
    assert!(baseline.ntt.misses > 0);
    assert!(baseline.rns.misses > 0);
    assert!(baseline.baseconv.misses > 0);
    assert!(baseline.rescale.misses > 0);
    assert!(baseline.rescale_extend.misses > 0);
    assert!(baseline.fused.misses > 0);

    // The identical second round: hits only, not a single new build.
    let _ = session.compile(&KernelSpec::new(KernelOp::Butterfly, 256));
    let ntt_again = session.ntt_default(256);
    assert!(std::ptr::eq(ntt.plan(), ntt_again.plan()));
    let _ = src.conversion_to(&dst);
    let again = src.encode(&values).mul(&src.encode(&values));
    let _ = again.rescale_then_extend(&dst);
    let _ = again.base_convert(&dst);
    let _ = again.rescale();
    let after = session.stats();

    assert_eq!(after.generated.misses, baseline.generated.misses);
    assert_eq!(after.ntt.misses, baseline.ntt.misses);
    assert_eq!(after.rns.misses, baseline.rns.misses);
    assert_eq!(after.baseconv.misses, baseline.baseconv.misses);
    assert_eq!(after.rescale.misses, baseline.rescale.misses);
    assert_eq!(after.rescale_extend.misses, baseline.rescale_extend.misses);
    assert_eq!(after.fused.misses, baseline.fused.misses);
    assert!(after.generated.hits > baseline.generated.hits);
    assert!(after.ntt.hits > baseline.ntt.hits);
    assert!(after.baseconv.hits > baseline.baseconv.hits);
    assert!(after.rescale_extend.hits > baseline.rescale_extend.hits);
    assert!(after.fused.hits > baseline.fused.hits);
}

#[test]
fn fused_chain_kernels_are_cached_once_per_shape() {
    let session = Session::default();
    let src = session.rns_with_capacity(160);
    let src_moduli = src.moduli();
    let dst = session.rns(&src_moduli[..4]);
    let x = src.encode(&random_values(7, 5, src.product()));
    let w = src.encode(&random_values(8, 5, src.product()));
    let y = src.encode(&random_values(9, 5, src.product()));
    let a = BigUint::from(0x1234_5678_9abc_u64);
    assert_eq!(session.stats().fused.misses, 0);

    // Warm-up: exactly one fused-kernel compile per chain *shape*.
    let chained = x.mul_axpy(&w, &a, &y);
    let rescaled = x.mul_rescale_then_extend(&w, &dst);
    let _ = x.base_convert(&dst);
    let baseline = session.stats();
    assert_eq!(baseline.fused.misses, 3, "one compile per chain shape");
    assert_eq!(baseline.fused.hits, 0);

    // The fused chains are bit-for-bit the unfused sequences.
    assert_eq!(chained.matrix(), x.mul(&w).axpy(&a, &y).matrix());
    assert_eq!(
        rescaled.matrix(),
        x.mul(&w).rescale_then_extend(&dst).matrix()
    );

    // The identical second round: served entirely from the fused cache.
    let _ = x.mul_axpy(&w, &a, &y);
    let _ = x.mul_rescale_then_extend(&w, &dst);
    let _ = x.base_convert(&dst);
    let after = session.stats();
    assert_eq!(after.fused.misses, baseline.fused.misses);
    assert_eq!(
        after.fused.hits, 3,
        "second identical chain hits every shape"
    );
}

#[test]
fn session_chain_matches_the_biguint_oracle() {
    let session = Session::default();
    let src = session.rns_with_capacity(128);
    let src_moduli = src.moduli();
    let dst = session.rns(&src_moduli[..4]);
    let values = random_values(2, 8, src.product());
    let out = src
        .encode(&values)
        .mul(&src.encode(&values))
        .rescale_then_extend(&dst);

    let ctx = RnsContext::with_moduli(&src_moduli);
    let dst_ctx = RnsContext::with_moduli(&dst.moduli());
    let out_ctx = ctx.without_last();
    for (c, x) in values.iter().enumerate() {
        let sq = (x * x) % src.product();
        let oracle = out_ctx.base_convert(&dst_ctx, &ctx.scale_and_round(&ctx.to_residues(&sq)));
        assert_eq!(out.matrix().element(c), oracle, "column {c}");
    }
}

#[test]
fn batched_ntt_launch_count_is_independent_of_batch_size() {
    let session = Session::default();
    let n = 256;
    let space = session.ntt_default(n);
    let expected_launches = n.trailing_zeros() as usize + 1; // stages + normalize
    let q = BigUint::from(space.modulus());
    for batch in [1usize, 4, 16] {
        let data: Vec<u64> = random_values(batch as u64, batch * n, &q)
            .iter()
            .map(|v| v.to_u64().unwrap())
            .collect();
        let mut work = data.clone();
        let stats = space.forward_batch(&mut work);
        assert_eq!(
            stats.launches, expected_launches,
            "batch {batch}: stage launches must not scale with batch size"
        );
        assert_eq!(
            stats.threads,
            batch * (n / 2) * n.trailing_zeros() as usize + batch * n,
            "batch {batch}: one thread per butterfly plus the normalize pass"
        );
        // Batched execution is still the same transform.
        let mut reference = data.clone();
        for transform in reference.chunks_exact_mut(n) {
            space.forward(transform);
        }
        assert_eq!(work, reference, "batch {batch}");
        space.inverse_batch(&mut work);
        assert_eq!(work, data, "batch {batch}: inverse ∘ forward");
    }
}

/// Each chain op runs its one implementation whatever the device or length:
/// the generated all-rows kernel (one launch) for `base_convert`, `mul_axpy`
/// and `mul_rescale_then_extend`, the folded two-round sweep for
/// `rescale_then_extend` — and on a warm pool none of them allocates.
#[test]
fn chain_ops_launch_counts_hold_on_every_device_and_length() {
    for device in DeviceSpec::all() {
        let session = Session::new(device);
        let src = session.rns_with_capacity(160);
        let dst = session.rns(&src.moduli()[..4]);
        let a = BigUint::from(0x1234_5678_9abc_u64);
        for len in [1usize, 7, 4096] {
            let x = src.encode(&random_values(11, len, src.product()));
            let w = src.encode(&random_values(12, len, src.product()));
            let run = || {
                [
                    x.base_convert_with_stats(&dst).1,
                    x.mul_axpy_with_stats(&w, &a, &x).1,
                    x.mul_rescale_then_extend_with_stats(&w, &dst).1,
                    x.rescale_then_extend_with_stats(&dst).1,
                ]
            };
            run(); // every result dropped again: the pool is warm from here on
            let warm = run();
            assert_eq!(
                warm.map(|s| s.launches),
                [1, 1, 1, 2],
                "{} len {len}",
                device.name
            );
            assert_eq!(
                warm.map(|s| s.allocs),
                [0; 4],
                "{} len {len}: warm pool",
                device.name
            );
        }
    }
}
