//! Reference `O(n^2)` direct DFT over `Z_q` (Equation 12), used as the correctness
//! oracle for the fast transform.

use crate::params::NttParams;
use moma_mp::MpUint;

/// Computes `y[k] = Σ_j x[j]·ω^(jk) mod q` directly.
///
/// # Panics
///
/// Panics if `data.len() != params.n`.
pub fn naive_dft<const L: usize>(params: &NttParams<L>, data: &[MpUint<L>]) -> Vec<MpUint<L>> {
    assert_eq!(data.len(), params.n);
    let ring = &params.ring;
    let n = params.n;
    // ω^0 .. ω^(n−1), one multiplication each; ω^(jk) is entry `jk mod n`.
    let mut powers = Vec::with_capacity(n);
    let mut cur = MpUint::<L>::ONE;
    for _ in 0..n {
        powers.push(cur);
        cur = ring.mul(cur, params.omega);
    }
    (0..n)
        .map(|k| {
            data.iter().enumerate().fold(MpUint::ZERO, |acc, (j, &x)| {
                let w = powers[(j as u64 * k as u64 % n as u64) as usize];
                ring.add(acc, ring.mul(x, w))
            })
        })
        .collect()
}

/// Schoolbook polynomial multiplication over `Z_q` (Equation 11): the `O(n^2)` oracle
/// for NTT-based polynomial products.
pub fn schoolbook_polymul<const L: usize>(
    params: &NttParams<L>,
    a: &[MpUint<L>],
    b: &[MpUint<L>],
) -> Vec<MpUint<L>> {
    let ring = &params.ring;
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![MpUint::<L>::ZERO; a.len() + b.len() - 1];
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let prod = ring.mul(ai, bj);
            out[i + j] = ring.add(out[i + j], prod);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_mp::MulAlgorithm;

    #[test]
    fn dft_of_delta_is_all_ones() {
        let params = NttParams::<2>::for_paper_modulus(8, 128, MulAlgorithm::Schoolbook);
        let mut delta = vec![MpUint::ZERO; 8];
        delta[0] = MpUint::ONE;
        let spectrum = naive_dft(&params, &delta);
        assert!(spectrum.iter().all(|&x| x == MpUint::ONE));
    }

    #[test]
    fn dft_of_constant_is_scaled_delta() {
        let params = NttParams::<2>::for_paper_modulus(8, 128, MulAlgorithm::Schoolbook);
        let ones = vec![MpUint::ONE; 8];
        let spectrum = naive_dft(&params, &ones);
        assert_eq!(spectrum[0], params.ring.reduce(MpUint::from_u64(8)));
        assert!(spectrum[1..].iter().all(|&x| x == MpUint::ZERO));
    }

    #[test]
    fn schoolbook_polymul_known_case() {
        let params = NttParams::<2>::for_paper_modulus(8, 128, MulAlgorithm::Schoolbook);
        // (1 + 2x)(3 + x) = 3 + 7x + 2x^2
        let a = vec![MpUint::from_u64(1), MpUint::from_u64(2)];
        let b = vec![MpUint::from_u64(3), MpUint::from_u64(1)];
        let prod = schoolbook_polymul(&params, &a, &b);
        assert_eq!(
            prod,
            vec![
                MpUint::from_u64(3),
                MpUint::from_u64(7),
                MpUint::from_u64(2)
            ]
        );
        assert!(schoolbook_polymul(&params, &[], &b).is_empty());
    }
}
