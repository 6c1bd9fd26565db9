//! Property-based cross-checks of `moma-mp` fixed-width arithmetic against the
//! `moma-bignum` arbitrary-precision oracle, at every bit-width the paper evaluates.

use moma_bignum::BigUint;
use moma_mp::single::{smac, SingleBarrett};
use moma_mp::{ModRing, MpUint, MulAlgorithm};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Converts a fixed-width value to the oracle type.
fn to_big<const L: usize>(x: &MpUint<L>) -> BigUint {
    BigUint::from_limbs_le(x.limbs().to_vec())
}

/// Converts an oracle value (must fit) to the fixed-width type.
fn from_big<const L: usize>(x: &BigUint) -> MpUint<L> {
    MpUint::from_limbs_le(&x.to_limbs_le(L))
}

/// Strategy producing a random L-limb value.
fn mp<const L: usize>() -> impl Strategy<Value = MpUint<L>> {
    prop::collection::vec(any::<u64>(), L).prop_map(|v| MpUint::from_limbs_le(&v))
}

/// Runs the full arithmetic cross-check for one limb count.
fn check_ring_ops<const L: usize>(a: MpUint<L>, b: MpUint<L>, q: MpUint<L>) {
    // Force the modulus into the "k-4 bits, top bit set" shape the paper uses.
    let q = {
        let mut limbs = *q.limbs();
        limbs[L - 1] |= 1 << 58; // ensure high-ish bit so q has ~64L-5..64L-4 bits
        limbs[L - 1] &= (1 << 60) - 1; // keep at most 64L-4 bits
        limbs[0] |= 1; // odd, as word-at-a-time Shoup quotients need
        MpUint::from_limbs(limbs)
    };
    let ring = ModRing::new(q);
    let karatsuba = ModRing::with_mul_algorithm(q, MulAlgorithm::Karatsuba);
    let q_big = to_big(&q);

    let raw = a;
    let a = ring.reduce(a);
    let b = ring.reduce(b);
    let (a_big, b_big) = (to_big(&a), to_big(&b));
    assert!(a_big < q_big && b_big < q_big);

    // Shoup products take any L-word value on the lazy side, reduced or not.
    let b_shoup = ring.shoup_precompute(b);
    let lazy = ring.mul_mod_shoup_lazy(raw, b, b_shoup);
    assert!(to_big(&lazy) < &q_big + &q_big);
    let expected_raw = to_big(&raw).mod_mul(&b_big, &q_big);
    assert_eq!(&to_big(&lazy) % &q_big, expected_raw);
    assert_eq!(to_big(&ring.mul_mod_shoup(raw, b, b_shoup)), expected_raw);

    // Addition / subtraction.
    assert_eq!(to_big(&ring.add(a, b)), a_big.mod_add(&b_big, &q_big));
    assert_eq!(to_big(&ring.sub(a, b)), a_big.mod_sub(&b_big, &q_big));

    // Multiplication, both strategies.
    let expected_mul = a_big.mod_mul(&b_big, &q_big);
    assert_eq!(to_big(&ring.mul(a, b)), expected_mul);
    assert_eq!(to_big(&karatsuba.mul(a, b)), expected_mul);

    // Widening multiplication against the oracle's full product.
    let (lo, hi) = a.widening_mul_schoolbook(&b);
    let full = &a_big * &b_big;
    assert_eq!(to_big(&lo), full.low_bits(64 * L as u32));
    assert_eq!(to_big(&hi), &full >> (64 * L as u32));
    let (lo_k, hi_k) = a.widening_mul_karatsuba(&b);
    assert_eq!((lo_k, hi_k), (lo, hi));
    assert_eq!(a.mul_hi(&b), hi);

    // Exponentiation on a small exponent.
    let exp = MpUint::<L>::from_u64(13);
    assert_eq!(
        to_big(&ring.pow(a, &exp)),
        a_big.mod_pow(&BigUint::from(13u64), &q_big)
    );
}

/// The `L`-word Shoup primitives at the edges of their domains: the lazy
/// operand at both ends of `[0, q)`, `[0, 2q)`, `[0, 4q)` and of the word count
/// itself; the fixed multiplicand at both ends of `[0, q)`.
fn check_shoup_edges<const L: usize>(q_hex: &str) {
    let q = MpUint::<L>::from_hex(q_hex);
    assert_eq!(q.bits(), 64 * L as u32 - 4);
    let ring = ModRing::new(q);
    let q_big = to_big(&q);
    let radix = BigUint::one() << (64 * L as u32);
    let one = MpUint::<L>::ONE;
    let two_q = q.wrapping_add(&q);
    let four_q = two_q.wrapping_add(&two_q);
    let ys = [
        MpUint::ZERO,
        one,
        q.wrapping_sub(&one),
        q,
        two_q.wrapping_sub(&one),
        four_q.wrapping_sub(&one),
        MpUint::MAX,
    ];
    for w in [MpUint::ZERO, one, MpUint::from_u64(2), q.wrapping_sub(&one)] {
        let w_big = to_big(&w);
        let w_shoup = ring.shoup_precompute(w);
        assert_eq!(
            to_big(&w_shoup),
            &(&w_big * &radix) / &q_big,
            "quotient: L={L} w={w}"
        );
        for y in ys {
            let expected = to_big(&y).mod_mul(&w_big, &q_big);
            let lazy = ring.mul_mod_shoup_lazy(y, w, w_shoup);
            assert!(lazy < two_q, "range: L={L} w={w} y={y}");
            assert_eq!(
                &to_big(&lazy) % &q_big,
                expected,
                "residue: L={L} w={w} y={y}"
            );
            assert_eq!(
                to_big(&ring.mul_mod_shoup(y, w, w_shoup)),
                expected,
                "reduced: L={L} w={w} y={y}"
            );
            let full = &to_big(&w_shoup) * &to_big(&y);
            assert_eq!(
                to_big(&w_shoup.mul_hi(&y)),
                &full >> (64 * L as u32),
                "high product: L={L} w={w} y={y}"
            );
        }
    }
}

/// At the paper's evaluation moduli (`moma_ntt::params::PAPER_MODULI_HEX`):
/// exactly `64L − 4` bits, the least headroom a Barrett ring can have.
#[test]
fn shoup_primitives_match_the_oracle_at_the_edges() {
    check_shoup_edges::<1>("fffffa000000001");
    check_shoup_edges::<2>("fffffffffffffffffffffe100000001");
    check_shoup_edges::<3>("fffffffffffffffffffffffffffffffffffffd800000001");
    check_shoup_edges::<4>("fffffffffffffffffffffffffffffffffffffffffffffffffffffe200000001");
    check_shoup_edges::<6>("fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff1500000001");
    check_shoup_edges::<16>("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffebc00000001");
}

/// The evaluation moduli, by kernel width (`moma_ntt::params::PAPER_MODULI_HEX`):
/// the `k`-bit kernel's modulus has `k − 4` bits.
const PAPER_MODULI_HEX: [(u32, &str); 9] = [
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

/// `shoup_precompute` is the exact `⌊w·2^(64L)/q⌋` for `w` at 0, 1, 2,
/// `2^64 mod q` (the word-at-a-time multiplier itself), `q − 2`, `q − 1`, and
/// 200 seeded random elements.
fn check_shoup_quotients<const L: usize>(ring: ModRing<L>, rng: &mut StdRng) {
    let q = ring.modulus();
    let q_big = to_big(&q);
    let one = MpUint::<L>::ONE;
    let two = MpUint::<L>::from_u64(2);
    let word = from_big(&(&(BigUint::one() << 64) % &q_big));
    let edges = [
        MpUint::ZERO,
        one,
        two,
        word,
        q.wrapping_sub(&two),
        q.wrapping_sub(&one),
    ];
    let random: Vec<MpUint<L>> = (0..200).map(|_| ring.random_element(rng)).collect();
    for w in edges.into_iter().chain(random) {
        assert_eq!(
            to_big(&ring.shoup_precompute(w)),
            &(to_big(&w) << (64 * L as u32)) / &q_big,
            "L={L} q={q} w={w}"
        );
    }
}

/// The widest modulus a Barrett ring takes at `L` words, `2^(64·L − 4) − 1`.
fn widest_ring<const L: usize>() -> ModRing<L> {
    ModRing::new(
        MpUint::ONE
            .shl_bits(64 * L as u32 - 4)
            .wrapping_sub(&MpUint::ONE),
    )
}

/// Every evaluation modulus that fits `L = 2, 4, 8, 16` words in a Barrett
/// ring, and the widest Barrett modulus at each of those `L`.
#[test]
fn shoup_quotients_match_the_oracle() {
    let mut rng = StdRng::seed_from_u64(44);
    for (bits, hex) in PAPER_MODULI_HEX {
        if bits <= 128 {
            check_shoup_quotients(ModRing::<2>::new(MpUint::from_hex(hex)), &mut rng);
        }
        if bits <= 256 {
            check_shoup_quotients(ModRing::<4>::new(MpUint::from_hex(hex)), &mut rng);
        }
        if bits <= 512 {
            check_shoup_quotients(ModRing::<8>::new(MpUint::from_hex(hex)), &mut rng);
        }
        check_shoup_quotients(ModRing::<16>::new(MpUint::from_hex(hex)), &mut rng);
    }
    check_shoup_quotients(widest_ring::<2>(), &mut rng);
    check_shoup_quotients(widest_ring::<4>(), &mut rng);
    check_shoup_quotients(widest_ring::<8>(), &mut rng);
    check_shoup_quotients(widest_ring::<16>(), &mut rng);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn ops_match_oracle_128(a in mp::<2>(), b in mp::<2>(), q in mp::<2>()) {
        check_ring_ops(a, b, q);
    }

    #[test]
    fn ops_match_oracle_256(a in mp::<4>(), b in mp::<4>(), q in mp::<4>()) {
        check_ring_ops(a, b, q);
    }

    #[test]
    fn ops_match_oracle_384(a in mp::<6>(), b in mp::<6>(), q in mp::<6>()) {
        check_ring_ops(a, b, q);
    }

    #[test]
    fn ops_match_oracle_512(a in mp::<8>(), b in mp::<8>(), q in mp::<8>()) {
        check_ring_ops(a, b, q);
    }

    #[test]
    fn ops_match_oracle_768(a in mp::<12>(), b in mp::<12>(), q in mp::<12>()) {
        check_ring_ops(a, b, q);
    }

    #[test]
    fn ops_match_oracle_1024(a in mp::<16>(), b in mp::<16>(), q in mp::<16>()) {
        check_ring_ops(a, b, q);
    }

    #[test]
    fn add_sub_round_trip_256(a in mp::<4>(), b in mp::<4>()) {
        let (sum, carry) = a.overflowing_add(&b);
        let expected = &to_big(&a) + &to_big(&b);
        let mut reconstructed = to_big(&sum);
        if carry {
            reconstructed = reconstructed + (BigUint::from(1u64) << 256);
        }
        prop_assert_eq!(reconstructed, expected);
        let (back, borrow) = sum.overflowing_sub(&b);
        prop_assert_eq!(back, a);
        prop_assert_eq!(borrow, carry);
    }

    #[test]
    fn shifts_match_oracle_512(a in mp::<8>(), bits in 0u32..512) {
        let expected_shr = &to_big(&a) >> bits;
        prop_assert_eq!(to_big(&a.shr_bits(bits)), expected_shr);
        let expected_shl = (&to_big(&a) << bits).low_bits(512);
        prop_assert_eq!(to_big(&a.shl_bits(bits)), expected_shl);
    }

    #[test]
    fn conversion_round_trip(a in mp::<6>()) {
        prop_assert_eq!(from_big::<6>(&to_big(&a)), a);
        prop_assert_eq!(MpUint::<6>::from_hex(&a.to_hex()), a);
    }

    /// The narrow/wide dispatch boundary: for moduli drawn around 2^31..2^32 the
    /// narrow single-widening-multiplication path must agree with the general
    /// Barrett path exactly when `is_narrow()` says it applies, and `is_narrow`
    /// itself must flip precisely at 32 significant bits.
    #[test]
    fn narrow_mul_matches_general_at_the_32_bit_boundary(
        q_off in 0u64..(1 << 20),
        seed in any::<u64>(),
        wide_bits in 33u32..=60,
    ) {
        // Moduli straddling the boundary: just under 2^31, around 2^32, and a
        // genuinely wide one (where only the general path is valid).
        let near = [
            (1u64 << 31) - 1 - (q_off % ((1 << 20) - 1)),
            (1u64 << 31) + 1 + q_off,
            (1u64 << 32) - 1 - (q_off % ((1 << 20) - 1)),
            (1u64 << 32).saturating_sub(1).max(2),
        ];
        let wide = (1u64 << (wide_bits - 1)) | (q_off | 1);
        for q in near.into_iter().chain([wide]) {
            let ctx = SingleBarrett::new(q);
            prop_assert_eq!(ctx.is_narrow(), 64 - q.leading_zeros() <= 32, "q={}", q);
            let mut state = seed | 1;
            for _ in 0..32 {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let a = state % q;
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let b = state % q;
                let expected = ((a as u128 * b as u128) % q as u128) as u64;
                prop_assert_eq!(ctx.mul_mod(a, b), expected, "general q={} a={} b={}", q, a, b);
                if ctx.is_narrow() {
                    prop_assert_eq!(
                        ctx.mul_mod_narrow(a, b), expected,
                        "narrow q={} a={} b={}", q, a, b
                    );
                }
            }
        }
    }

    /// A widening sum-of-products accumulated with `smac` and closed with
    /// `reduce_wide` equals the term-by-term modular computation.
    #[test]
    fn smac_reduce_wide_matches_term_by_term(
        terms in prop::collection::vec((any::<u64>(), any::<u64>()), 1..24),
        q_seed in any::<u64>(),
        narrow in any::<bool>(),
    ) {
        let q = if narrow {
            (q_seed % ((1 << 32) - 2)).max(2)
        } else {
            ((1 << 33) + q_seed % ((1 << 59) - (1 << 33))).max(2)
        };
        let ctx = SingleBarrett::new(q);
        let mut acc = 0u128;
        let mut expected = 0u64;
        for (a, b) in terms {
            let (a, b) = (a % q, b % q);
            acc = smac(acc, a, b);
            expected = ctx.add_mod(expected, ctx.mul_mod(a, b));
        }
        prop_assert_eq!(ctx.reduce_wide(acc), expected, "q={}", q);
    }
}
