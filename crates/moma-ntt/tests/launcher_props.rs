//! Property tests for launcher-routed NTT execution: on random inputs and
//! sizes, the stage executor (one launch per stage, one thread per butterfly)
//! and the block-resident rows executor (one launch, one block per row) must
//! compute exactly what the inline plan loops compute.

use moma_bignum::prime::is_prime;
use moma_bignum::BigUint;
use moma_gpu::{BufferPool, LaunchStats};
use moma_ntt::launcher::{forward_rows, inverse_rows};
use moma_ntt::plan::NttPlan64;
use moma_ntt::transform::butterfly_count;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A prime `q = k·2n + 1` of exactly `bits` bits (so both the cyclic and the
/// negacyclic plan exist for it): the first one at or below the `pick`-th
/// candidate from the top of the window, wrapping round — `pick = 0` is the
/// largest such prime.
fn prime_in_window(n: usize, bits: u32, pick: u64) -> u64 {
    let two_n = 2 * n as u64;
    let k_lo = (1u64 << (bits - 1)).div_ceil(two_n);
    let k_hi = ((1u64 << bits) - 2) / two_n;
    let span = k_hi - k_lo + 1;
    (0..span)
        .map(|step| (k_hi - (pick % span + step) % span) * two_n + 1)
        .find(|&q| is_prime(&mut StdRng::seed_from_u64(q), &BigUint::from(q)))
        .unwrap_or_else(|| panic!("no {bits}-bit prime ≡ 1 mod {two_n}"))
}

fn plan_for(q: u64, n: usize, negacyclic: bool) -> NttPlan64 {
    if negacyclic {
        NttPlan64::negacyclic(q, n)
    } else {
        NttPlan64::with_modulus(q, n)
    }
}

#[test]
#[should_panic(expected = "cyclic and negacyclic plans cannot share")]
fn row_executor_rejects_mixed_cyclic_and_negacyclic_plans() {
    let plans = [plan_for(12289, 64, true), plan_for(12289, 64, false)];
    forward_rows(&plans, &mut [0u64; 128]);
}

#[test]
#[should_panic(expected = "same transform size")]
fn row_executor_rejects_mismatched_transform_sizes() {
    let plans = [plan_for(12289, 64, true), plan_for(12289, 32, true)];
    inverse_rows(&plans, &mut [0u64; 128]);
}

#[test]
#[should_panic(expected = "data length must be rows")]
fn row_executor_rejects_a_plane_of_the_wrong_length() {
    let plans = [plan_for(12289, 64, true), plan_for(12289, 64, true)];
    forward_rows(&plans, &mut [0u64; 64]);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The block-resident rows executor: each row of a `rows × n` plane under
    /// its own modulus (random mixed widths, 16–60 bits) is bit-identical to
    /// that row's inline plan *and* to the stage executor run on that row (a
    /// one-row batch), in both directions, in one launch whatever the row
    /// count — rows 1–9 cover `rows < workers` and ragged
    /// `rows % workers ≠ 0` splits. Row 0 is the
    /// arithmetic edge: the largest modulus the stack can build (60 bits, so
    /// the lazy `[0, 4q)` values run closest to the word boundary) with every
    /// input at `q − 1`.
    #[test]
    fn row_executor_matches_each_rows_inline_plan(
        seed in any::<u64>(),
        log_n in 1u32..11,
        rows in 1usize..10,
        negacyclic in any::<bool>(),
    ) {
        let n = 1usize << log_n;
        let mut rng = StdRng::seed_from_u64(seed);
        let min_bits = u64::from(16.max(log_n + 6));
        let plans: Vec<NttPlan64> = (0..rows)
            .map(|r| {
                let q = if r == 0 {
                    prime_in_window(n, 60, 0)
                } else {
                    prime_in_window(n, rng.gen_range(min_bits..61) as u32, rng.gen())
                };
                plan_for(q, n, negacyclic)
            })
            .collect();
        let data: Vec<u64> = plans
            .iter()
            .enumerate()
            .flat_map(|(r, plan)| {
                let q = plan.ring.q;
                (0..n)
                    .map(|_| if r == 0 { q - 1 } else { rng.gen::<u64>() % q })
                    .collect::<Vec<_>>()
            })
            .collect();
        let shape = |stats: LaunchStats| {
            stats.launches == 1 && stats.threads == rows * n / 2 && stats.allocs == 0
        };

        let pool = BufferPool::new();
        let mut inline = data.clone();
        let mut staged = data.clone();
        let mut launched = data.clone();
        for (row, plan) in inline.chunks_exact_mut(n).zip(&plans) {
            plan.forward(row);
        }
        for (row, plan) in staged.chunks_exact_mut(n).zip(&plans) {
            plan.forward_batch_on_launcher(row, &pool);
        }
        let stats = forward_rows(&plans, &mut launched);
        prop_assert_eq!(&launched, &inline, "forward vs inline");
        prop_assert_eq!(&launched, &staged, "forward vs stage executor");
        prop_assert!(shape(stats), "forward stats {:?}", stats);

        for (row, plan) in inline.chunks_exact_mut(n).zip(&plans) {
            plan.inverse(row);
        }
        for (row, plan) in staged.chunks_exact_mut(n).zip(&plans) {
            plan.inverse_batch_on_launcher(row, &pool);
        }
        let stats = inverse_rows(&plans, &mut launched);
        prop_assert_eq!(&launched, &inline, "inverse vs inline");
        prop_assert_eq!(&launched, &staged, "inverse vs stage executor");
        prop_assert!(shape(stats), "inverse stats {:?}", stats);
        prop_assert_eq!(launched, data, "identity");
    }

    /// The stage executor on a one-row batch: forward/inverse match the inline
    /// plan and compose to the identity, with fully reduced outputs.
    #[test]
    fn launcher64_matches_inline_plan(seed in any::<u64>(), log_n in 1u32..10) {
        let n = 1usize << log_n;
        let plan = NttPlan64::new(n);
        let pool = BufferPool::new();
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % plan.ring.q).collect();
        let mut inline = data.clone();
        let mut launched = data.clone();
        plan.forward(&mut inline);
        let stats = plan.forward_batch_on_launcher(&mut launched, &pool);
        prop_assert_eq!(&launched, &inline, "forward");
        prop_assert!(launched.iter().all(|&x| x < plan.ring.q), "reduced");
        prop_assert_eq!(stats.threads as u64, butterfly_count(n) + n as u64);
        plan.inverse(&mut inline);
        plan.inverse_batch_on_launcher(&mut launched, &pool);
        prop_assert_eq!(&launched, &inline, "inverse");
        prop_assert_eq!(launched, data, "identity");
    }
}
