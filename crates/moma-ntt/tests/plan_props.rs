//! Property tests for the NTT execution plans: the planned transforms must be
//! inverses of each other and must agree with the `O(n^2)` schoolbook oracle for
//! polynomial products, on random inputs across random sizes.

use moma_mp::MulAlgorithm;
use moma_ntt::params::NttParams;
use moma_ntt::plan::{NttPlan, NttPlan64};
use moma_ntt::polymul::ntt_polymul;
use moma_ntt::reference::schoolbook_polymul;
use moma_ntt::transform::Ntt64;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// NttPlan (multi-word, Shoup + lazy reduction): inverse ∘ forward is the
    /// identity, every output is fully reduced, and the forward transform is the
    /// naive Barrett path's bit for bit.
    #[test]
    fn plan_forward_inverse_is_identity(seed in any::<u64>(), log_n in 1u32..7) {
        let n = 1usize << log_n;
        let params = NttParams::<2>::for_paper_modulus(n, 128, MulAlgorithm::Schoolbook);
        let plan = NttPlan::new(&params);
        let q = params.ring.modulus();
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<_> = (0..n).map(|_| params.ring.random_element(&mut rng)).collect();
        let mut work = data.clone();
        plan.forward(&mut work);
        prop_assert!(work.iter().all(|x| *x < q), "forward output reduced");
        let mut naive = data.clone();
        moma_ntt::forward(&params, &mut naive);
        prop_assert_eq!(&work, &naive);
        plan.inverse(&mut work);
        prop_assert!(work.iter().all(|x| *x < q), "inverse output reduced");
        prop_assert_eq!(work, data);
    }

    /// NttPlan64 (single-word, Shoup + lazy reduction): inverse ∘ forward is the
    /// identity and every intermediate output is fully reduced.
    #[test]
    fn plan64_forward_inverse_is_identity(seed in any::<u64>(), log_n in 1u32..10) {
        let n = 1usize << log_n;
        let plan = NttPlan64::new(n);
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % plan.ring.q).collect();
        let mut work = data.clone();
        plan.forward(&mut work);
        prop_assert!(work.iter().all(|&x| x < plan.ring.q), "forward output reduced");
        plan.inverse(&mut work);
        prop_assert!(work.iter().all(|&x| x < plan.ring.q), "inverse output reduced");
        prop_assert_eq!(work, data);
    }

    /// The planned single-word transform agrees with the naive Barrett path.
    #[test]
    fn plan64_agrees_with_naive(seed in any::<u64>(), log_n in 1u32..9) {
        let n = 1usize << log_n;
        let ntt = Ntt64::new(n);
        let plan = NttPlan64::from_ntt(&ntt);
        let mut rng = StdRng::seed_from_u64(seed);
        let data: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % ntt.ctx.q).collect();
        let mut a = data.clone();
        let mut b = data;
        ntt.forward(&mut a);
        plan.forward(&mut b);
        prop_assert_eq!(a, b);
    }

    /// Planned polynomial multiplication equals the schoolbook product.
    #[test]
    fn planned_polymul_matches_schoolbook(
        seed in any::<u64>(),
        len_a in 1usize..24,
        len_b in 1usize..24,
    ) {
        let params = NttParams::<2>::for_paper_modulus(2, 128, MulAlgorithm::Schoolbook);
        let mut rng = StdRng::seed_from_u64(seed);
        let a: Vec<_> = (0..len_a).map(|_| params.ring.random_element(&mut rng)).collect();
        let b: Vec<_> = (0..len_b).map(|_| params.ring.random_element(&mut rng)).collect();
        let fast = ntt_polymul(128, MulAlgorithm::Schoolbook, &a, &b);
        let slow = schoolbook_polymul(&params, &a, &b);
        prop_assert_eq!(fast, slow);
    }
}
