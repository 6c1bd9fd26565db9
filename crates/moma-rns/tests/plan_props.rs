//! Property tests for the planned residue engine: on random bases, sizes, and
//! values, `RnsPlan`/`RnsMatrix` operations must agree residue-for-residue with
//! the `BigUint`-backed `RnsContext` oracle, and conversions must round-trip.

use moma_bignum::prime::random_prime;
use moma_bignum::{random::random_bits, BigUint};
use moma_blas::BlasOp;
use moma_gpu::BufferPool;
use moma_ir::CompiledKernel;
use moma_rns::vector::RnsVector;
use moma_rns::{BaseConvPlan, RnsContext, RnsMatrix, RnsPlan};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_values(seed: u64, n: usize, bits: u32) -> (Vec<BigUint>, Vec<BigUint>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = (0..n).map(|_| random_bits(&mut rng, bits)).collect();
    let b = (0..n).map(|_| random_bits(&mut rng, bits)).collect();
    (a, b)
}

/// A random basis of `count` distinct primes whose widths straddle the narrow
/// (≤32-bit) / wide boundary: each modulus is drawn at 30–33 bits or genuinely
/// wide (up to 58 bits), so every plan exercises the per-row dispatch.
fn random_mixed_basis(seed: u64, count: usize) -> Vec<u64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out: Vec<u64> = Vec::with_capacity(count);
    while out.len() < count {
        let bits = match rng.gen_range(0..4) {
            0 => rng.gen_range(30..32) as u32,
            1 => 32,
            2 => 33,
            _ => rng.gen_range(34..59) as u32,
        };
        let p = random_prime(&mut rng, bits).to_u64().expect("fits u64");
        if !out.contains(&p) {
            out.push(p);
        }
    }
    out
}

/// Element-wise product on a fresh pool (the stand-alone form of `apply`).
fn mul(plan: &RnsPlan, a: &RnsMatrix, b: &RnsMatrix) -> RnsMatrix {
    plan.apply(BlasOp::VecMul, None, a, b, &BufferPool::new()).0
}

/// Random values strictly below `bound`.
fn random_below_n(seed: u64, n: usize, bound: &BigUint) -> Vec<BigUint> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| moma_bignum::random::random_below(&mut rng, bound))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Forward conversion agrees with the oracle and CRT round-trips.
    #[test]
    fn conversion_matches_oracle_and_round_trips(
        seed in any::<u64>(),
        n in 1usize..20,
        bits in 1u32..220,
    ) {
        let ctx = RnsContext::with_capacity_bits(bits.max(8));
        let plan = RnsPlan::new(&ctx);
        let mut rng = StdRng::seed_from_u64(seed);
        let values: Vec<BigUint> = (0..n).map(|_| random_bits(&mut rng, bits)).collect();
        let m = RnsMatrix::from_biguints(&plan, &values);
        for (c, v) in values.iter().enumerate() {
            prop_assert_eq!(m.element(c), ctx.to_residues(v), "column {}", c);
            prop_assert_eq!(&plan.from_residues(&m.element(c)), v);
        }
        prop_assert_eq!(plan.to_biguints(&m), values);
    }

    /// Element-wise matrix ops equal the per-element context ops, residue for
    /// residue.
    #[test]
    fn elementwise_ops_match_context_oracle(
        seed in any::<u64>(),
        n in 1usize..20,
        bits in 8u32..160,
    ) {
        let ctx = RnsContext::with_capacity_bits(2 * bits + 8);
        let plan = RnsPlan::new(&ctx);
        let (a, b) = random_values(seed, n, bits);
        let va = RnsVector::from_biguints(&ctx, &a);
        let vb = RnsVector::from_biguints(&ctx, &b);
        let ma = RnsMatrix::from_biguints(&plan, &a);
        let mb = RnsMatrix::from_biguints(&plan, &b);
        for op in [BlasOp::VecMul, BlasOp::VecAdd, BlasOp::VecSub] {
            let (out, _) = plan.apply(op, None, &ma, &mb, &BufferPool::new());
            for c in 0..n {
                let oracle = match op {
                    BlasOp::VecMul => ctx.mul(&va.elements[c], &vb.elements[c]),
                    BlasOp::VecAdd => ctx.add(&va.elements[c], &vb.elements[c]),
                    BlasOp::VecSub => ctx.sub(&va.elements[c], &vb.elements[c]),
                    BlasOp::Axpy => unreachable!(),
                };
                prop_assert_eq!(out.element(c), oracle, "{:?} column {}", op, c);
            }
        }
    }

    /// axpy positionally equals `a·x + y` (values sized so no wraparound).
    #[test]
    fn axpy_matches_positional(
        seed in any::<u64>(),
        n in 1usize..16,
        bits in 8u32..120,
        scalar in any::<u64>(),
    ) {
        let plan = RnsPlan::with_capacity_bits(2 * bits.max(64) + 8);
        let (x, y) = random_values(seed, n, bits);
        let s = BigUint::from(scalar);
        let (out, _) = plan.apply(
            BlasOp::Axpy,
            Some(&plan.to_residues(&s)),
            &RnsMatrix::from_biguints(&plan, &x),
            &RnsMatrix::from_biguints(&plan, &y),
            &BufferPool::new(),
        );
        let back = plan.to_biguints(&out);
        for c in 0..n {
            prop_assert_eq!(&back[c], &(&(&s * &x[c]) + &y[c]), "column {}", c);
        }
    }

    /// The planned engine round-trips on bases mixing narrow (≤32-bit) and wide
    /// moduli: conversion, CRT reconstruction, and element-wise multiplication
    /// must all agree with the context oracle when the per-row narrow/wide
    /// dispatch is exercised on both sides of the boundary.
    #[test]
    fn mixed_narrow_wide_basis_round_trips_and_multiplies(
        seed in any::<u64>(),
        count in 2usize..7,
        n in 1usize..12,
    ) {
        let ctx = RnsContext::with_moduli(&random_mixed_basis(seed, count));
        let plan = RnsPlan::new(&ctx);
        let a = random_below_n(seed ^ 0xa, n, ctx.product());
        let b = random_below_n(seed ^ 0xb, n, ctx.product());
        let ma = RnsMatrix::from_biguints(&plan, &a);
        prop_assert_eq!(plan.to_biguints(&ma), a.clone(), "round trip");
        let mb = RnsMatrix::from_biguints(&plan, &b);
        let out = mul(&plan, &ma, &mb);
        for c in 0..n {
            prop_assert_eq!(
                out.element(c),
                ctx.mul(&ctx.to_residues(&a[c]), &ctx.to_residues(&b[c])),
                "column {}", c
            );
        }
    }

    /// Fast base extension agrees bit-for-bit with the BigUint oracle on random
    /// basis pairs mixing narrow and wide moduli.
    #[test]
    fn base_convert_matches_oracle_on_random_bases(
        seed in any::<u64>(),
        src_count in 2usize..6,
        dst_count in 1usize..6,
        n in 1usize..10,
    ) {
        let src_ctx = RnsContext::with_moduli(&random_mixed_basis(seed, src_count));
        let dst_ctx = RnsContext::with_moduli(&random_mixed_basis(seed ^ 0xd57, dst_count));
        let src = RnsPlan::new(&src_ctx);
        let dst = RnsPlan::new(&dst_ctx);
        let bc = BaseConvPlan::new(&src, &dst);
        let values = random_below_n(seed ^ 0x5a1, n, src_ctx.product());
        let a = RnsMatrix::from_biguints(&src, &values);
        let kernel = CompiledKernel::compile(&bc.fused_kernel_ir()).unwrap();
        let (out, _) = src.base_convert(&bc, &a, &kernel, &BufferPool::new());
        for (c, v) in values.iter().enumerate() {
            let oracle = src_ctx.base_convert(&dst_ctx, &src_ctx.to_residues(v));
            prop_assert_eq!(out.element(c), oracle, "column {}", c);
        }
    }

    /// Approximate scaled rounding agrees with the BigUint oracle and lands
    /// within one of the true quotient on random mixed bases.
    #[test]
    fn scale_and_round_matches_oracle_on_random_bases(
        seed in any::<u64>(),
        count in 2usize..7,
        n in 1usize..10,
    ) {
        let ctx = RnsContext::with_moduli(&random_mixed_basis(seed, count));
        let plan = RnsPlan::new(&ctx);
        let rp = plan.rescale_plan();
        let values = random_below_n(seed ^ 0x0f, n, ctx.product());
        let a = RnsMatrix::from_biguints(&plan, &values);
        let (out, _) = plan.scale_and_round(&rp, &a, &BufferPool::new());
        let last = BigUint::from(*ctx.moduli().last().unwrap());
        for (c, v) in values.iter().enumerate() {
            prop_assert_eq!(
                out.element(c),
                ctx.scale_and_round(&ctx.to_residues(v)),
                "column {}", c
            );
            let y = rp.output_plan().to_biguints(&out)[c].clone();
            let scaled = &y * &last;
            let distance = if scaled >= *v { &scaled - v } else { v - &scaled };
            prop_assert!(distance <= last, "column {}: rounding error exceeds m_k", c);
        }
    }

    /// reduce_mod agrees with the context oracle element by element.
    #[test]
    fn reduce_mod_matches_oracle(
        seed in any::<u64>(),
        n in 1usize..8,
        bits in 16u32..100,
    ) {
        let ctx = RnsContext::with_capacity_bits(2 * bits + 8);
        let plan = RnsPlan::new(&ctx);
        let (a, b) = random_values(seed, n, bits);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let q = random_bits(&mut rng, bits.max(2)) + BigUint::one();
        let prod = mul(
            &plan,
            &RnsMatrix::from_biguints(&plan, &a),
            &RnsMatrix::from_biguints(&plan, &b),
        );
        let reduced = plan.reduce_mod(&prod, &q);
        for c in 0..n {
            prop_assert_eq!(
                reduced.element(c),
                ctx.reduce_mod(&prod.element(c), &q),
                "column {}",
                c
            );
        }
    }
}

/// The largest prime below `2^60` — the largest modulus the stack can build
/// (`SingleBarrett` caps at 60 bits).
fn largest_60_bit_prime() -> u64 {
    let mut rng = StdRng::seed_from_u64(0x60);
    (0..1u64 << 60)
        .rev()
        .find(|&p| moma_bignum::prime::is_prime(&mut rng, &BigUint::from(p)))
        .expect("there is a prime below 2^60")
}

/// The codec at its arithmetic edges, against `RnsContext`'s `BigUint` CRT. On
/// bases of one modulus, two 32-bit moduli whose product fills its word, only
/// 60-bit moduli (the largest 60-bit prime first; 18 limbs, so a residue is a
/// sum over two 16-term groups of full-width products), only 30-bit moduli, a
/// narrow/wide mix, and the default 31-bit moduli out to 19 limbs, the values
/// `0`, `1`, `M−1` (every residue `m_r − 1`), every `M − m_r`, and the
/// limb-count boundaries encode to the oracle's residues and decode back —
/// through the matrix forms and the one-value forms alike. Decode is then
/// repeated on *unnormalised* planes (each residue raised to the largest word
/// in its class, or replaced by `u64::MAX`), which must still reduce every
/// residue modulo its prime first.
#[test]
fn codec_matches_the_biguint_crt_at_the_edges() {
    let top = largest_60_bit_prime();
    assert_eq!(64 - top.leading_zeros(), 60);
    let mut wide_only = vec![top];
    wide_only.extend(
        RnsContext::with_random_primes(18, 60, 0xed6e)
            .moduli()
            .iter()
            .filter(|&&m| m != top),
    );
    let bases = [
        ("one 60-bit modulus", RnsContext::with_moduli(&[top])),
        ("one 31-bit modulus", RnsContext::with_moduli_count(1)),
        // A 64-bit product: the CRT sum (below 2·M) carries into the
        // accumulator's extra word.
        (
            "product fills its limb",
            RnsContext::with_moduli(&[(1 << 32) - 5, (1 << 32) - 17]),
        ),
        ("60-bit moduli only", RnsContext::with_moduli(&wide_only)),
        (
            "30-bit moduli only",
            RnsContext::with_random_primes(9, 30, 0x30),
        ),
        (
            "mixed widths",
            RnsContext::with_moduli(&random_mixed_basis(0xed6e, 6)),
        ),
        ("19 limbs", RnsContext::with_capacity_bits(1100)),
    ];
    for (name, ctx) in &bases {
        let plan = RnsPlan::new(ctx);
        let product = ctx.product();
        let limbs = product.bits().div_ceil(64);
        let mut values = vec![BigUint::zero(), BigUint::one(), product - &BigUint::one()];
        values.extend(ctx.moduli().iter().map(|&m| product - &BigUint::from(m)));
        // One limb fewer than the product, all ones; and the smallest value
        // with as many limbs as the product — on the 19-limb basis also the
        // 16/17-limb pair either side of the encode group boundary.
        for words in [limbs - 1, 16] {
            if (1..limbs).contains(&words) {
                let radix_power = BigUint::one() << (64 * words);
                values.push(&radix_power - &BigUint::one());
                values.push(radix_power);
            }
        }
        values.extend(random_below_n(0xed6e, 5, product));
        if limbs > 16 {
            assert!(values.iter().any(|v| v.limbs().len() == 16));
            assert!(values.iter().filter(|v| v.limbs().len() >= 17).count() > 5);
        }

        let mut m = RnsMatrix::from_biguints(&plan, &values);
        assert_eq!(plan.to_biguints(&m), values, "{name}: round trip");
        for (c, v) in values.iter().enumerate() {
            let residues = ctx.to_residues(v);
            assert_eq!(m.element(c), residues, "{name}: encode, column {c}");
            assert_eq!(plan.to_residues(v), residues, "{name}: to_residues {c}");
            assert_eq!(&plan.from_residues(&residues), v, "{name}: decode {c}");
        }
        assert!(
            m.element(2)
                .residues
                .iter()
                .zip(ctx.moduli())
                .all(|(&r, &q)| r == q - 1),
            "{name}: M−1 is q−1 in every row"
        );

        // Unnormalised planes: same classes, residues up to `u64::MAX`.
        let cols = values.len();
        let moduli = ctx.moduli().to_vec();
        for (i, x) in m.plane_mut().iter_mut().enumerate() {
            let (q, c) = (moduli[i / cols], i % cols);
            *x = match c % 3 {
                0 => *x + (u64::MAX - *x) / q * q,
                1 => u64::MAX,
                _ => *x + q,
            };
            assert!(*x >= q);
        }
        let decoded = plan.to_biguints(&m);
        for (c, got) in decoded.iter().enumerate() {
            let column = m.element(c);
            let oracle = ctx.from_residues(&column);
            assert_eq!(got, &oracle, "{name}: unnormalised column {c}");
            assert_eq!(plan.from_residues(&column), oracle, "{name}: column {c}");
            if c % 3 != 1 {
                assert_eq!(got, &values[c], "{name}: class of column {c} unchanged");
            }
        }
    }
}

/// The rescale at its arithmetic edges. Every value below `M` is `t·m_k + c`
/// with `c` its last residue, and rescales to `t + (c > ⌊m_k/2⌋)`: the suite
/// crosses the quotients `0`, `1`, `M/m_k − 1` and a random one with the last
/// residues `0` (exact multiples of `m_k`), `1`, `⌊m_k/2⌋` and `⌊m_k/2⌋ + 1`
/// (either side of the rounding threshold) and `m_k − 1` — so `0`, `1` and
/// `M − 1` (every residue `m_r − 1`, rounding up to `M/m_k ≡ 0`) are among
/// them — on bases whose dropped modulus is above every survivor (`c` must be
/// folded into each row), below every survivor (the fold is inert), the
/// largest 60-bit prime as the dropped modulus and as a survivor, and `k = 2`
/// both ways round. Checked against the `BigUint` oracle and against that
/// definition directly.
#[test]
fn scale_and_round_matches_the_oracle_at_the_edges() {
    let top = largest_60_bit_prime();
    let mut rng = StdRng::seed_from_u64(0x5ca1e);
    let mut prime = |bits| random_prime(&mut rng, bits).to_u64().expect("fits u64");
    let (p30, p33, p50) = (prime(30), prime(33), prime(50));
    let bases = [
        ("dropped above every survivor", vec![p33, p30, p50, top]),
        ("dropped below every survivor", vec![p50, top, p33, p30]),
        ("k = 2, wide dropped", vec![p30, top]),
        ("k = 2, narrow dropped", vec![top, p30]),
        ("60-bit moduli only", vec![prime(60), top, prime(60)]),
        ("mixed widths", random_mixed_basis(0x5ca1e, 6)),
    ];
    for (name, moduli) in &bases {
        let ctx = RnsContext::with_moduli(moduli);
        let plan = RnsPlan::new(&ctx);
        let rp = plan.rescale_plan();
        let last = *moduli.last().unwrap();
        let half = last / 2;
        let quotients = &(ctx.product() / &BigUint::from(last));
        let mut pairs = Vec::new();
        for t in [
            BigUint::zero(),
            BigUint::one(),
            quotients - &BigUint::one(),
            random_below_n(0x7, 1, quotients).remove(0),
        ] {
            for c in [0, 1, half, half + 1, last - 1] {
                pairs.push((t.clone(), c));
            }
        }
        let values: Vec<BigUint> = pairs
            .iter()
            .map(|(t, c)| &(t * &BigUint::from(last)) + &BigUint::from(*c))
            .collect();
        let a = RnsMatrix::from_biguints(&plan, &values);
        assert!(
            (a.element(14).residues.iter().zip(moduli)).all(|(&r, &q)| r == q - 1),
            "{name}: column 14 is M−1"
        );
        let (out, stats) = plan.scale_and_round(&rp, &a, &BufferPool::new());
        assert_eq!(stats.launches, 1, "{name}");
        for (col, ((t, c), v)) in pairs.iter().zip(&values).enumerate() {
            let got = out.element(col);
            assert_eq!(
                got,
                ctx.scale_and_round(&ctx.to_residues(v)),
                "{name}: column {col} vs the oracle"
            );
            let y = t + &BigUint::from(u64::from(*c > half));
            let by_definition: Vec<u64> = moduli[..moduli.len() - 1]
                .iter()
                .map(|&m| (&y % &BigUint::from(m)).to_u64().unwrap())
                .collect();
            assert_eq!(got.residues, by_definition, "{name}: column {col}");
        }
    }
}

/// An empty vector goes through every execution entry point without touching
/// the pool or the launcher, and a one-element vector matches the `BigUint`
/// oracle through all six.
#[test]
fn empty_and_single_element_vectors_through_every_entry_point() {
    let src_ctx = RnsContext::with_moduli(&random_mixed_basis(0x5e7, 4));
    let dst_ctx = RnsContext::with_moduli(&random_mixed_basis(0xd57, 3));
    let out_ctx = src_ctx.without_last();
    let src = RnsPlan::new(&src_ctx);
    let dst = RnsPlan::new(&dst_ctx);
    let bc = BaseConvPlan::new(&src, &dst);
    let rp = src.rescale_plan();
    let p = src.rescale_extend_plan(&dst);
    let compile = |ir| CompiledKernel::compile(&ir).unwrap();
    let bc_kernel = compile(bc.fused_kernel_ir());
    let axpy_kernel = compile(src.mul_axpy_kernel_ir());
    let chain_kernel = compile(p.mul_fused_kernel_ir());
    let s = src.to_residues(&BigUint::from(0x5ca1a7u64));
    let pool = BufferPool::new();

    for cols in [0usize, 1] {
        let x = random_below_n(0xa ^ cols as u64, cols, src_ctx.product());
        let y = random_below_n(0xb ^ cols as u64, cols, src_ctx.product());
        let a = RnsMatrix::from_biguints(&src, &x);
        let b = RnsMatrix::from_biguints(&src, &y);
        let before = pool.stats();
        let results = [
            src.apply(BlasOp::VecMul, None, &a, &b, &pool),
            src.mul_axpy(&a, &b, &s, &b, &axpy_kernel, &pool),
            src.base_convert(&bc, &a, &bc_kernel, &pool),
            src.scale_and_round(&rp, &a, &pool),
            src.rescale_then_extend(&p, &a, &pool),
            src.mul_rescale_then_extend(&p, &a, &b, &chain_kernel, &pool),
        ];
        if cols == 0 {
            assert_eq!(pool.stats(), before, "an empty op must not touch the pool");
            for (out, stats) in &results {
                assert!(out.is_empty());
                assert_eq!((stats.launches, stats.allocs), (0, 0));
            }
            continue;
        }
        let (ra, rb) = (src_ctx.to_residues(&x[0]), src_ctx.to_residues(&y[0]));
        let prod = src_ctx.mul(&ra, &rb);
        let oracles = [
            prod.clone(),
            src_ctx.add(&src_ctx.mul(&prod, &s), &rb),
            src_ctx.base_convert(&dst_ctx, &ra),
            src_ctx.scale_and_round(&ra),
            out_ctx.base_convert(&dst_ctx, &src_ctx.scale_and_round(&ra)),
            out_ctx.base_convert(&dst_ctx, &src_ctx.scale_and_round(&prod)),
        ];
        for (i, ((out, _), oracle)) in results.iter().zip(&oracles).enumerate() {
            assert_eq!(&out.element(0), oracle, "entry point {i}");
        }
    }
}
