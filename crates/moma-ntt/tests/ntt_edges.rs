//! Edge suite for the two pieces every `NttPlan64`/`NttPlan<L>` transform opens
//! and closes with: the select-form fold [`reduce_once`] at the ends of the
//! lazy `[0, 4q)` range, and the plan-owned bit-reversal swap list
//! ([`BitReversal`]) against the free `bit_reverse_permute` for every size up
//! to 2^16 and from every plan constructor.

use moma_bignum::prime::is_prime;
use moma_bignum::BigUint;
use moma_mp::MulAlgorithm;
use moma_ntt::plan::reduce_once;
use moma_ntt::transform::{bit_reverse_permute, BitReversal};
use moma_ntt::{NttPlan, NttPlan64};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The largest 60-bit prime, the ladder's 50- and 30-bit primes at n = 4096
/// (the first two of `moma_ring::default_ladder(4096, _)`), and `q = 3`.
const MODULI: [u64; 4] = [(1 << 60) - 93, 1_125_899_906_826_241, 1_073_692_673, 3];

#[test]
fn reduce_once_folds_the_ends_of_the_lazy_range() {
    for q in MODULI {
        assert!(is_prime(&mut StdRng::seed_from_u64(q), &BigUint::from(q)));
        let two_q = 2 * q;
        for v in [0, 1, q - 1, q, 2 * q - 1, 2 * q, 3 * q, 4 * q - 1] {
            // The butterflies' fold into [0, 2q), then the forward's normalize.
            let folded = reduce_once(v, two_q);
            assert_eq!(folded, v % two_q, "fold of {v} by 2q, q = {q}");
            assert_eq!(reduce_once(folded, q), v % q, "normalize of {v}, q = {q}");
            if v < two_q {
                assert_eq!(reduce_once(v, q), v % q, "fold of {v} by q, q = {q}");
            }
        }
    }
}

#[test]
fn swap_list_is_the_bit_reverse_permutation_for_every_size() {
    for log_n in 1..=16u32 {
        let n = 1usize << log_n;
        let reversal = BitReversal::new(n);
        // Only the indices that are not bit palindromes move, each pair once.
        let palindromes = 1usize << log_n.div_ceil(2);
        assert_eq!(reversal.swaps().len(), (n - palindromes) / 2, "n = {n}");
        assert!(reversal.swaps().iter().all(|&(i, j)| i < j), "n = {n}");
        let original: Vec<u32> = (0..n as u32).collect();
        let mut expected = original.clone();
        bit_reverse_permute(&mut expected);
        let mut walked = original.clone();
        reversal.apply(&mut walked);
        assert_eq!(walked, expected, "n = {n}");
        reversal.apply(&mut walked);
        assert_eq!(walked, original, "applying the list twice, n = {n}");
    }
    assert_eq!(BitReversal::new(4096).swaps().len(), 2016);
}

#[test]
fn every_constructor_builds_the_same_swap_list() {
    let q = MODULI[1];
    for n in [2usize, 64, 4096] {
        let expected = BitReversal::new(n);
        let cyclic = NttPlan64::with_modulus(q, n);
        let negacyclic = NttPlan64::negacyclic(q, n);
        let multiword = NttPlan::<2>::for_paper_modulus(n, 128, MulAlgorithm::Schoolbook);
        for (constructor, list) in [
            ("with_modulus", cyclic.bit_reversal()),
            ("negacyclic", negacyclic.bit_reversal()),
            ("NttPlan::new", multiword.bit_reversal()),
        ] {
            assert_eq!(list, &expected, "{constructor}, n = {n}");
        }
    }
}
