//! Edge suite for the block-resident row transforms a ring raises and lowers
//! with (`moma_ntt::launcher::{forward_rows, inverse_rows}`), and so for
//! `NttPlan64`'s lazy `[0, 4q)` butterflies and folded negacyclic twist: the
//! largest 60-bit ladder prime in the same launch as a 16-, a 45- and a 30-bit
//! row, on rows that are all 0, all 1, all `q − 1` or random, at n = 2, 64 and
//! 4096.
//!
//! Every forward output is held to the inline plan row by row and checked
//! reduced, every round trip is the identity, and pointwise products are held
//! to [`oracle::negacyclic_mul`]: schoolbook at n ≤ 64, and at n = 4096 (where
//! the O(n²) oracle is too slow for a debug test run) to the closed form of a
//! product of constant rows, which the small sizes pin to the oracle first.

use moma_bignum::BigUint;
use moma_ntt::launcher::{forward_rows, inverse_rows};
use moma_ntt::NttPlan64;
use moma_ring::{ladder_primes, oracle};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One launch's row moduli: the top of the 60-bit ladder range beside narrow,
/// wide and mid-width rows.
const WIDTHS: [u32; 4] = [60, 16, 45, 30];

/// What a row holds.
#[derive(Clone, Copy, Debug)]
enum Fill {
    Zero,
    One,
    MinusOne,
    Random,
}

const FILLS: [Fill; 4] = [Fill::Zero, Fill::One, Fill::MinusOne, Fill::Random];

fn plans(n: usize) -> Vec<NttPlan64> {
    ladder_primes(n, &WIDTHS)
        .into_iter()
        .map(|q| NttPlan64::negacyclic(q, n))
        .collect()
}

/// A plane whose row `r` holds `fills[r]` under row `r`'s modulus.
fn plane(plans: &[NttPlan64], fills: &[Fill], rng: &mut StdRng) -> Vec<u64> {
    plans
        .iter()
        .zip(fills)
        .flat_map(|(plan, &fill)| {
            let q = plan.ring.q;
            (0..plan.n)
                .map(|_| match fill {
                    Fill::Zero => 0,
                    Fill::One => 1,
                    Fill::MinusOne => q - 1,
                    Fill::Random => rng.gen_range(0..q),
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// The fills of rotation `k`: row `r` gets `FILLS[(r + k) % 4]`, so four
/// rotations put every fill on every modulus.
fn rotation(k: usize) -> Vec<Fill> {
    (0..WIDTHS.len()).map(|r| FILLS[(r + k) % 4]).collect()
}

/// Forward-transforms `input` in one launch, checks every row against the
/// inline plan and for reduction, checks the round trip, and returns the
/// evaluations.
fn raise_and_check(plans: &[NttPlan64], input: &[u64], what: &str) -> Vec<u64> {
    let n = plans[0].n;
    let mut raised = input.to_vec();
    assert_eq!(forward_rows(plans, &mut raised).launches, 1);
    for (r, (plan, (got, x))) in plans
        .iter()
        .zip(raised.chunks(n).zip(input.chunks(n)))
        .enumerate()
    {
        let mut inline = x.to_vec();
        plan.forward(&mut inline);
        assert_eq!(got, inline, "{what}: row {r} forward vs the inline plan");
        assert!(
            got.iter().all(|&v| v < plan.ring.q),
            "{what}: row {r} forward output not reduced"
        );
    }
    let mut lowered = raised.clone();
    assert_eq!(inverse_rows(plans, &mut lowered).launches, 1);
    assert_eq!(
        lowered, input,
        "{what}: inverse ∘ forward is not the identity"
    );
    raised
}

/// Row-wise negacyclic products of two planes through raise → pointwise →
/// lower, every stage checked by [`raise_and_check`].
fn products(plans: &[NttPlan64], a: &[u64], b: &[u64], what: &str) -> Vec<u64> {
    let n = plans[0].n;
    let fa = raise_and_check(plans, a, what);
    let fb = raise_and_check(plans, b, what);
    let mut prod: Vec<u64> = plans
        .iter()
        .zip(fa.chunks(n).zip(fb.chunks(n)))
        .flat_map(|(plan, (x, y))| {
            x.iter()
                .zip(y)
                .map(|(&x, &y)| plan.ring.mul_mod(x, y))
                .collect::<Vec<_>>()
        })
        .collect();
    inverse_rows(plans, &mut prod);
    for (r, (plan, row)) in plans.iter().zip(prod.chunks(n)).enumerate() {
        let q = plan.ring.q;
        assert!(
            row.iter().all(|&v| v < q),
            "{what}: row {r} product not reduced"
        );
    }
    prod
}

fn schoolbook(q: u64, a: &[u64], b: &[u64]) -> Vec<u64> {
    let big = |row: &[u64]| row.iter().map(|&v| BigUint::from(v)).collect::<Vec<_>>();
    oracle::negacyclic_mul(&BigUint::from(q), &big(a), &big(b))
        .iter()
        .map(|c| c.to_u64().expect("a residue fits a word"))
        .collect()
}

/// The negacyclic product of the constant rows `α` and `β`: coefficient `k`
/// collects `k + 1` products `αβ` and subtracts the `n − 1 − k` that wrap,
/// so it is `αβ·(2k + 2 − n) mod q`.
fn constant_product(q: u64, alpha: u64, beta: u64, n: usize) -> Vec<u64> {
    let q = q as u128;
    let ab = alpha as u128 * beta as u128 % q;
    let minus_n = q - n as u128 % q;
    (0..n)
        .map(|k| (ab * ((2 * k as u128 + 2 + minus_n) % q) % q) as u64)
        .collect()
}

fn constant(fill: Fill, q: u64) -> Option<u64> {
    match fill {
        Fill::Zero => Some(0),
        Fill::One => Some(1),
        Fill::MinusOne => Some(q - 1),
        Fill::Random => None,
    }
}

#[test]
fn row_transforms_match_the_inline_plan_and_round_trip_at_the_edges() {
    let mut rng = StdRng::seed_from_u64(0xed9e);
    for n in [2, 64, 4096] {
        let plans = plans(n);
        assert_eq!(plans[0].ring.q >> 59, 1, "a 60-bit top row");
        for k in 0..FILLS.len() {
            let input = plane(&plans, &rotation(k), &mut rng);
            raise_and_check(&plans, &input, &format!("n = {n}, rotation {k}"));
        }
        // Every row of the launch the same fill, so the top of the lazy range
        // is reached on all moduli at once.
        for fill in FILLS {
            let input = plane(&plans, &[fill; WIDTHS.len()], &mut rng);
            raise_and_check(&plans, &input, &format!("n = {n}, all {fill:?}"));
        }
    }
}

#[test]
fn row_products_match_the_schoolbook_oracle_at_the_edges() {
    let mut rng = StdRng::seed_from_u64(0x0dd5);
    for n in [2, 64] {
        let plans = plans(n);
        for k in 0..FILLS.len() {
            for shift in 0..FILLS.len() {
                let (fills_a, fills_b) = (rotation(k), rotation(k + shift));
                let a = plane(&plans, &fills_a, &mut rng);
                let b = plane(&plans, &fills_b, &mut rng);
                let what = format!("n = {n}, rotations {k} × {}", k + shift);
                let prod = products(&plans, &a, &b, &what);
                for (r, plan) in plans.iter().enumerate() {
                    let q = plan.ring.q;
                    let row = r * n..(r + 1) * n;
                    let want = schoolbook(q, &a[row.clone()], &b[row.clone()]);
                    assert_eq!(prod[row], want, "{what}: row {r} vs the oracle");
                    if let (Some(alpha), Some(beta)) =
                        (constant(fills_a[r], q), constant(fills_b[r], q))
                    {
                        assert_eq!(constant_product(q, alpha, beta, n), want, "{what}: row {r}");
                    }
                }
            }
        }
    }
}

#[test]
fn constant_row_products_at_n_4096_match_the_closed_form() {
    let n = 4096;
    let plans = plans(n);
    let mut rng = StdRng::seed_from_u64(0x4096);
    let constants = [Fill::Zero, Fill::One, Fill::MinusOne];
    for (i, &fill_a) in constants.iter().enumerate() {
        for &fill_b in &constants[i..] {
            let a = plane(&plans, &[fill_a; WIDTHS.len()], &mut rng);
            let b = plane(&plans, &[fill_b; WIDTHS.len()], &mut rng);
            let what = format!("n = {n}, {fill_a:?} × {fill_b:?}");
            let prod = products(&plans, &a, &b, &what);
            for (r, plan) in plans.iter().enumerate() {
                let q = plan.ring.q;
                let (alpha, beta) = (constant(fill_a, q).unwrap(), constant(fill_b, q).unwrap());
                let want = constant_product(q, alpha, beta, n);
                assert_eq!(prod[r * n..(r + 1) * n], want, "{what}: row {r}");
            }
        }
    }
}
