//! `base_convert`, `rescale_then_extend`, `mul_rescale_then_extend` and
//! `mul_axpy` at their arithmetic edges, through the session entry points and
//! against the `RnsContext` `BigUint` oracle: moduli at the largest 60-bit
//! primes (the top of the fused kernels' single-word Barrett domain), residues
//! that are all `q−1`, all `0` and all `1`, basis pairs that share moduli and
//! pairs that do not, and the longest source basis the conversion's 128-bit
//! accumulator bound admits.

use moma::bignum::BigUint;
use moma::rns::{BaseConvPlan, RnsContext, RnsPlan};
use moma::Session;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The largest prime below `2^60`.
fn largest_60_bit_prime() -> u64 {
    let mut rng = StdRng::seed_from_u64(0x60);
    (0..1u64 << 60)
        .rev()
        .find(|&p| moma::bignum::prime::is_prime(&mut rng, &BigUint::from(p)))
        .expect("there is a prime below 2^60")
}

/// `count` distinct 60-bit primes drawn from `seed`, none equal to `avoid`.
fn wide_primes(count: usize, seed: u64, avoid: &[u64]) -> Vec<u64> {
    RnsContext::with_random_primes(count + avoid.len(), 60, seed)
        .moduli()
        .iter()
        .copied()
        .filter(|m| !avoid.contains(m))
        .take(count)
        .collect()
}

/// `0`, `1`, `M−1` (every residue `q−1`) and two values in between.
fn edge_values(ctx: &RnsContext) -> Vec<BigUint> {
    let m = ctx.product();
    let mut rng = StdRng::seed_from_u64(0xed6e);
    let mut values = vec![BigUint::zero(), BigUint::one(), m - &BigUint::one()];
    values.extend((0..2).map(|_| moma::bignum::random::random_below(&mut rng, m)));
    values
}

/// `base_convert` from `src` into `dst` on the edge values, every column
/// against the oracle.
fn check_base_convert(session: &Session, name: &str, src: &[u64], dst: &[u64]) {
    let (src_ctx, dst_ctx) = (RnsContext::with_moduli(src), RnsContext::with_moduli(dst));
    let (src_space, dst_space) = (session.rns(src), session.rns(dst));
    let values = edge_values(&src_ctx);
    assert!(
        (src_ctx.to_residues(&values[2]).residues.iter())
            .zip(src)
            .all(|(&r, &q)| r == q - 1),
        "{name}: M−1 is q−1 in every row"
    );
    let converted = src_space.encode(&values).base_convert(&dst_space);
    for (c, v) in values.iter().enumerate() {
        assert_eq!(
            converted.matrix().element(c),
            src_ctx.base_convert(&dst_ctx, &src_ctx.to_residues(v)),
            "{name}: base_convert, column {c}"
        );
    }
}

/// `rescale_then_extend` on the edge values, and `mul_rescale_then_extend`
/// on every ordered pair of them (so the products include all-`q−1`, all-`0`
/// and all-`1` residue columns), from `src` into `dst`; every column against
/// the oracle.
fn check_rescale_then_extend(session: &Session, name: &str, src: &[u64], dst: &[u64]) {
    let (src_ctx, dst_ctx) = (RnsContext::with_moduli(src), RnsContext::with_moduli(dst));
    let (src_space, dst_space) = (session.rns(src), session.rns(dst));
    let out_ctx = src_ctx.without_last();
    let values = edge_values(&src_ctx);
    let extended = src_space.encode(&values).rescale_then_extend(&dst_space);
    for (c, v) in values.iter().enumerate() {
        assert_eq!(
            extended.matrix().element(c),
            out_ctx.base_convert(&dst_ctx, &src_ctx.scale_and_round(&src_ctx.to_residues(v))),
            "{name}: rescale_then_extend, column {c}"
        );
    }
    let (xs, ys): (Vec<BigUint>, Vec<BigUint>) = values
        .iter()
        .flat_map(|x| values.iter().map(move |y| (x.clone(), y.clone())))
        .unzip();
    let chained = src_space
        .encode(&xs)
        .mul_rescale_then_extend(&src_space.encode(&ys), &dst_space);
    for (c, (x, y)) in xs.iter().zip(&ys).enumerate() {
        let product = src_ctx.mul(&src_ctx.to_residues(x), &src_ctx.to_residues(y));
        assert_eq!(
            chained.matrix().element(c),
            out_ctx.base_convert(&dst_ctx, &src_ctx.scale_and_round(&product)),
            "{name}: mul_rescale_then_extend, column {c}"
        );
    }
}

/// `mul_axpy` over `basis`: `s·(x∘y) + z` for the scalars `0`, `1` and
/// `M−1`, with `(x, y)` every ordered pair of edge values and `z` cycling
/// through them; every column against the oracle.
fn check_mul_axpy(session: &Session, name: &str, basis: &[u64]) {
    let ctx = RnsContext::with_moduli(basis);
    let space = session.rns(basis);
    let values = edge_values(&ctx);
    let (xs, ys): (Vec<BigUint>, Vec<BigUint>) = values
        .iter()
        .flat_map(|x| values.iter().map(move |y| (x.clone(), y.clone())))
        .unzip();
    let zs: Vec<BigUint> = values.iter().cycle().take(xs.len()).cloned().collect();
    let (x, y, z) = (space.encode(&xs), space.encode(&ys), space.encode(&zs));
    let top = ctx.product() - &BigUint::one();
    for s in [BigUint::zero(), BigUint::one(), top] {
        let got = x.mul_axpy(&y, &s, &z);
        for c in 0..xs.len() {
            let product = ctx.mul(&ctx.to_residues(&xs[c]), &ctx.to_residues(&ys[c]));
            let scaled = ctx.mul(&ctx.to_residues(&s), &product);
            assert_eq!(
                got.matrix().element(c),
                ctx.add(&scaled, &ctx.to_residues(&zs[c])),
                "{name}: mul_axpy by {s}, column {c}"
            );
        }
    }
}

/// Both entry points from `src` into `dst`.
fn check_pair(session: &Session, name: &str, src: &[u64], dst: &[u64]) {
    check_base_convert(session, name, src, dst);
    check_rescale_then_extend(session, name, src, dst);
}

#[test]
fn conversion_chains_match_the_oracle_at_60_bit_moduli_on_shared_and_disjoint_bases() {
    let top = largest_60_bit_prime();
    assert_eq!(64 - top.leading_zeros(), 60);
    let mut src = vec![top];
    src.extend(wide_primes(4, 0x60a, &[top]));
    let disjoint = wide_primes(3, 0x60b, &src);
    let n = src.len();
    let every_other: Vec<u64> = src.iter().step_by(2).copied().collect();
    let session = Session::default();
    for (name, from, to) in [
        ("disjoint", src.clone(), disjoint.clone()),
        (
            "dst = src without its last",
            src.clone(),
            src[..n - 1].to_vec(),
        ),
        (
            "src without its last, and back",
            src[..n - 1].to_vec(),
            src.clone(),
        ),
        ("dst ⊂ src", src.clone(), every_other.clone()),
        ("src ⊂ dst", every_other, src.clone()),
        (
            "partial overlap",
            src[1..].to_vec(),
            [&src[..2], &disjoint[..]].concat(),
        ),
        (
            "largest prime dropped",
            [&disjoint[..], &[top]].concat(),
            src.clone(),
        ),
    ] {
        check_pair(&session, name, &from, &to);
    }
    // `mul_axpy` works on one basis: the two 60-bit ones above.
    check_mul_axpy(&session, "60-bit, largest prime", &src);
    check_mul_axpy(&session, "60-bit, disjoint", &disjoint);
    // The workload's own shape on the default 31-bit basis.
    let capacity = RnsContext::with_capacity_bits(520).moduli().to_vec();
    let k = capacity.len();
    check_pair(
        &session,
        "520-bit, rescale shape",
        &capacity,
        &capacity[..k - 1],
    );
    check_pair(
        &session,
        "520-bit, extend shape",
        &capacity[..k - 1],
        &capacity,
    );
}

/// `BaseConvPlan::new` admits `k` source moduli while `k·(q_src−1)(q_dst−1)`
/// fits in a `u128`: 256 moduli at 60 bits. That longest basis converts into
/// a target sharing its largest prime (the shared row folds to one term, the
/// other row stays a 256-term chain past fusion's accumulator bound), and one
/// modulus more is refused.
#[test]
fn conversion_chains_match_the_oracle_at_the_longest_admitted_basis() {
    let top = largest_60_bit_prime();
    let worst = (top as u128 - 1) * (top as u128 - 1);
    let longest = (u128::MAX / worst) as usize;
    assert_eq!(longest, 256);
    let mut src = vec![top];
    src.extend(wide_primes(longest, 0x256, &[top]));
    let dst = [top, wide_primes(1, 0xd57, &src)[0]];
    let session = Session::default();
    check_base_convert(&session, "longest, 256 → 2", &src[..longest], &dst);
    // The rescale-then-extend chains convert from the source minus its last
    // modulus, so their longest source is one modulus longer.
    check_rescale_then_extend(&session, "longest, 257 → 2", &src, &dst);
    let plan = |moduli: &[u64]| RnsPlan::new(&RnsContext::with_moduli(moduli));
    let (too_long, target) = (plan(&src), plan(&dst));
    let refused = std::panic::catch_unwind(|| BaseConvPlan::new(&too_long, &target));
    assert!(refused.is_err(), "257 60-bit source moduli must be refused");
}
