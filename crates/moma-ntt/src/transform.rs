//! Iterative radix-2 Cooley–Tukey NTT (decimation in time).

use crate::params::NttParams;
use crate::plan::NttWord;
use moma_mp::single::SingleBarrett;
use moma_mp::MpUint;

/// Permutes `data` into bit-reversed order in place, deriving every index on
/// the fly. The plans' hot path walks a precomputed [`BitReversal`] instead;
/// this stays for the naive transforms and one-off table builds.
pub fn bit_reverse_permute<T>(data: &mut [T]) {
    let n = data.len();
    assert!(n.is_power_of_two(), "length must be a power of two");
    let bits = n.trailing_zeros();
    for i in 0..n {
        let j = (i as u64).reverse_bits() >> (64 - bits);
        let j = j as usize;
        if i < j {
            data.swap(i, j);
        }
    }
}

/// The bit-reversal permutation of an `n`-point transform as a precomputed swap
/// list: the pairs `(i, j)` with `i < j = rev(i)`, in increasing `i`. Applying
/// it performs exactly the swaps [`bit_reverse_permute`] performs, without
/// recomputing `rev(i)` or branching on `i < j` per index. A plan builds one
/// per constructor and opens every transform with it; at `n = 4096` it is 2016
/// pairs (16 KiB).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitReversal {
    n: usize,
    swaps: Vec<(u32, u32)>,
}

impl BitReversal {
    /// Builds the swap list for `n`-element data.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two in `[1, 2^32]`.
    pub fn new(n: usize) -> Self {
        assert!(
            n.is_power_of_two() && n <= 1 << 32,
            "length must be a power of two no larger than 2^32"
        );
        let bits = n.trailing_zeros();
        let swaps = (0..n)
            .filter_map(|i| {
                // n = 1 has the empty index width: shifting by 64 yields None.
                let j = (i as u64)
                    .reverse_bits()
                    .checked_shr(64 - bits)
                    .unwrap_or(0) as usize;
                (i < j).then_some((i as u32, j as u32))
            })
            .collect();
        BitReversal { n, swaps }
    }

    /// The swapped pairs `(i, rev(i))` with `i < rev(i)`.
    pub fn swaps(&self) -> &[(u32, u32)] {
        &self.swaps
    }

    /// Permutes `data` into bit-reversed order in place.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not the `n` the list was built for.
    pub fn apply<T>(&self, data: &mut [T]) {
        assert_eq!(data.len(), self.n, "data length must match the permutation");
        for &(i, j) in &self.swaps {
            data.swap(i as usize, j as usize);
        }
    }
}

/// Derives every per-stage root for an `n`-point transform from one power ladder.
///
/// Stage `len` of the decimation-in-time loop needs `w_len = root^(n/len)`, a primitive
/// `len`-th root of unity. Those exponents are successive powers of two, so the whole
/// set is one squaring chain: `roots[k]` (for stage `len = 2^(k+1)`) is
/// `roots[k+1]` squared, starting from `roots[log2 n − 1] = root`. This replaces the
/// full `ring.pow` modular exponentiation the old loop ran once per stage —
/// `log2 n` squarings instead of `log2 n` square-and-multiply chains.
pub(crate) fn stage_roots<W: NttWord>(ring: &W::Ring, root: W, n: usize) -> Vec<W> {
    let stages = n.trailing_zeros() as usize;
    let mut roots = vec![W::ONE; stages];
    let mut cur = root;
    for slot in roots.iter_mut().rev() {
        *slot = cur;
        cur = W::mul(ring, cur, cur);
    }
    roots
}

fn transform_in_place<const L: usize>(
    params: &NttParams<L>,
    root: MpUint<L>,
    data: &mut [MpUint<L>],
) {
    let ring = &params.ring;
    let n = params.n;
    bit_reverse_permute(data);
    let roots = stage_roots(ring, root, n);
    let mut len = 2;
    let mut stage = 0;
    while len <= n {
        // w_len = root^(n/len): a primitive len-th root of unity, off the ladder.
        let w_len = roots[stage];
        let mut start = 0;
        while start < n {
            let mut w = MpUint::<L>::ONE;
            for j in 0..len / 2 {
                let x = data[start + j];
                let wy = ring.mul(w, data[start + j + len / 2]);
                data[start + j] = ring.add(x, wy);
                data[start + j + len / 2] = ring.sub(x, wy);
                w = ring.mul(w, w_len);
            }
            start += len;
        }
        len <<= 1;
        stage += 1;
    }
}

/// In-place forward NTT of `data` (length `params.n`).
///
/// Each stage executes `n/2` independent butterflies — the unit of parallelism the
/// paper assigns to CUDA threads (§5.1). The butterfly is exactly the kernel produced
/// by `moma_rewrite::builders::KernelOp::Butterfly`: one modular multiplication by the
/// twiddle factor, one modular addition, one modular subtraction.
///
/// This is the *naive* path: it derives stage roots on the fly (from one power
/// ladder) and walks the twiddle chain serially inside each block. Repeated
/// transforms of the same size should build an [`crate::plan::NttPlan`] once and
/// reuse its precomputed tables instead.
///
/// # Panics
///
/// Panics if `data.len() != params.n`.
pub fn forward<const L: usize>(params: &NttParams<L>, data: &mut [MpUint<L>]) {
    assert_eq!(
        data.len(),
        params.n,
        "data length must equal the transform size"
    );
    transform_in_place(params, params.omega, data);
}

/// In-place inverse NTT of `data`, including the `1/n` scaling.
///
/// # Panics
///
/// Panics if `data.len() != params.n`.
pub fn inverse<const L: usize>(params: &NttParams<L>, data: &mut [MpUint<L>]) {
    assert_eq!(
        data.len(),
        params.n,
        "data length must equal the transform size"
    );
    transform_in_place(params, params.omega_inv, data);
    let ring = &params.ring;
    for x in data.iter_mut() {
        *x = ring.mul(*x, params.n_inv);
    }
}

/// Total number of butterflies in an `n`-point NTT: `(n/2)·log2 n`.
pub fn butterfly_count(n: usize) -> u64 {
    (n as u64 / 2) * n.trailing_zeros() as u64
}

/// A single-machine-word (64-bit) NTT using the paper's single-word Barrett kernels —
/// the leftmost data point of Figure 5a.
#[derive(Debug, Clone)]
pub struct Ntt64 {
    /// Transform size.
    pub n: usize,
    /// Single-word Barrett context for the 60-bit modulus.
    pub ctx: SingleBarrett,
    pub(crate) omega: u64,
    pub(crate) omega_inv: u64,
    pub(crate) n_inv: u64,
}

impl Ntt64 {
    /// Builds a 64-bit NTT over the 60-bit evaluation modulus.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not a power of two between 2 and 2^32.
    pub fn new(n: usize) -> Self {
        let q = crate::params::paper_modulus(64)
            .to_u64()
            .expect("60-bit modulus");
        Self::with_modulus(q, n)
    }

    /// Builds a 64-bit NTT over an explicit NTT-friendly prime modulus `q` —
    /// the constructor session caches key their plans by `(q, n)`.
    ///
    /// # Panics
    ///
    /// Panics when [`Ntt64::try_with_modulus`] refuses the key.
    pub fn with_modulus(q: u64, n: usize) -> Self {
        Self::try_with_modulus(q, n).unwrap_or_else(|e| panic!("{e} (q = {q}, n = {n})"))
    }

    /// [`Ntt64::with_modulus`], returning why a key is refused instead of
    /// panicking: `n` not a power of two between 2 and 2^32, `q` not an odd
    /// prime below `2^60` (the [`SingleBarrett`] bound), or `n` not dividing
    /// `q − 1` (no primitive `n`-th root of unity exists then).
    pub fn try_with_modulus(q: u64, n: usize) -> Result<Self, &'static str> {
        if !(n.is_power_of_two() && (2..=1 << 32).contains(&n)) {
            return Err("transform size must be a power of two in [2, 2^32]");
        }
        if !(3..1 << 60).contains(&q) {
            return Err("NTT modulus must be an odd prime below 2^60");
        }
        if (q - 1) % n as u64 != 0 {
            return Err("transform size must divide q - 1 (no primitive root of unity otherwise)");
        }
        if !moma_bignum::prime::is_prime_u64(q) {
            return Err("NTT modulus must be prime");
        }
        let ctx = SingleBarrett::new(q);
        // Deterministic generator search as in the multi-word case.
        let cofactor = (q - 1) / n as u64;
        // A base divisible by q (only possible for q < 1000) yields 0, which is
        // no root at all: skip it before the primitivity test, not after.
        let omega = (3u64..1000)
            .map(|g| ctx.pow_mod(g, cofactor))
            .filter(|&candidate| candidate != 0)
            .find(|&candidate| ctx.pow_mod(candidate, n as u64 / 2) != 1)
            .ok_or("no primitive root found")?;
        let omega_inv = ctx.inv_mod(omega);
        let n_inv = ctx.inv_mod(n as u64 % q);
        Ok(Ntt64 {
            n,
            ctx,
            omega,
            omega_inv,
            n_inv,
        })
    }

    /// In-place forward transform.
    pub fn forward(&self, data: &mut [u64]) {
        self.transform(data, self.omega);
    }

    /// In-place inverse transform (with `1/n` scaling).
    pub fn inverse(&self, data: &mut [u64]) {
        self.transform(data, self.omega_inv);
        for x in data.iter_mut() {
            *x = self.ctx.mul_mod(*x, self.n_inv);
        }
    }

    fn transform(&self, data: &mut [u64], root: u64) {
        assert_eq!(data.len(), self.n);
        bit_reverse_permute(data);
        // Stage roots off one squaring ladder: stage `len` needs root^(n/len), and
        // those exponents are successive powers of two.
        let roots = stage_roots(&self.ctx, root, self.n);
        let mut len = 2;
        let mut stage = 0;
        while len <= self.n {
            let w_len = roots[stage];
            let mut start = 0;
            while start < self.n {
                let mut w = 1u64;
                for j in 0..len / 2 {
                    let x = data[start + j];
                    let wy = self.ctx.mul_mod(w, data[start + j + len / 2]);
                    data[start + j] = self.ctx.add_mod(x, wy);
                    data[start + j + len / 2] = self.ctx.sub_mod(x, wy);
                    w = self.ctx.mul_mod(w, w_len);
                }
                start += len;
            }
            len <<= 1;
            stage += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::naive_dft;
    use moma_mp::MulAlgorithm;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn bit_reversal_is_involutive() {
        let mut v: Vec<u32> = (0..16).collect();
        let original = v.clone();
        bit_reverse_permute(&mut v);
        assert_ne!(v, original);
        bit_reverse_permute(&mut v);
        assert_eq!(v, original);
    }

    #[test]
    fn butterfly_count_formula() {
        assert_eq!(butterfly_count(2), 1);
        assert_eq!(butterfly_count(1024), 512 * 10);
        assert_eq!(butterfly_count(1 << 16), (1 << 15) * 16);
    }

    #[test]
    fn forward_matches_naive_dft_128() {
        let params = NttParams::<2>::for_paper_modulus(32, 128, MulAlgorithm::Schoolbook);
        let mut rng = StdRng::seed_from_u64(21);
        let data: Vec<_> = (0..32)
            .map(|_| params.ring.random_element(&mut rng))
            .collect();
        let expected = naive_dft(&params, &data);
        let mut actual = data.clone();
        forward(&params, &mut actual);
        assert_eq!(actual, expected);
    }

    #[test]
    fn roundtrip_at_multiple_widths_and_sizes() {
        fn roundtrip<const L: usize>(bits: u32, n: usize) {
            let params = NttParams::<L>::for_paper_modulus(n, bits, MulAlgorithm::Schoolbook);
            let mut rng = StdRng::seed_from_u64(bits as u64);
            let data: Vec<_> = (0..n)
                .map(|_| params.ring.random_element(&mut rng))
                .collect();
            let mut work = data.clone();
            forward(&params, &mut work);
            assert_ne!(work, data, "transform must change the data");
            inverse(&params, &mut work);
            assert_eq!(
                work, data,
                "NTT ∘ INTT must be the identity ({bits} bits, n={n})"
            );
        }
        roundtrip::<2>(128, 64);
        roundtrip::<4>(256, 128);
        roundtrip::<6>(384, 32);
        roundtrip::<12>(768, 16);
    }

    #[test]
    fn karatsuba_and_schoolbook_transforms_agree() {
        let sb = NttParams::<4>::for_paper_modulus(64, 256, MulAlgorithm::Schoolbook);
        let ka = NttParams::<4>::for_paper_modulus(64, 256, MulAlgorithm::Karatsuba);
        let mut rng = StdRng::seed_from_u64(33);
        let data: Vec<_> = (0..64).map(|_| sb.ring.random_element(&mut rng)).collect();
        let mut a = data.clone();
        let mut b = data;
        forward(&sb, &mut a);
        forward(&ka, &mut b);
        assert_eq!(a, b);
    }

    #[test]
    fn ntt64_roundtrip_and_linearity() {
        let ntt = Ntt64::new(256);
        let mut rng = StdRng::seed_from_u64(44);
        let data: Vec<u64> = (0..256).map(|_| rng.gen::<u64>() % ntt.ctx.q).collect();
        let mut work = data.clone();
        ntt.forward(&mut work);
        ntt.inverse(&mut work);
        assert_eq!(work, data);

        // Linearity: NTT(a + b) = NTT(a) + NTT(b) point-wise.
        let a: Vec<u64> = (0..256).map(|_| rng.gen::<u64>() % ntt.ctx.q).collect();
        let b: Vec<u64> = (0..256).map(|_| rng.gen::<u64>() % ntt.ctx.q).collect();
        let sum: Vec<u64> = a
            .iter()
            .zip(&b)
            .map(|(x, y)| ntt.ctx.add_mod(*x, *y))
            .collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        let mut fsum = sum;
        ntt.forward(&mut fa);
        ntt.forward(&mut fb);
        ntt.forward(&mut fsum);
        for i in 0..256 {
            assert_eq!(fsum[i], ntt.ctx.add_mod(fa[i], fb[i]));
        }
    }

    #[test]
    #[should_panic(expected = "data length")]
    fn wrong_length_panics() {
        let params = NttParams::<2>::for_paper_modulus(16, 128, MulAlgorithm::Schoolbook);
        let mut data = vec![MpUint::ZERO; 8];
        forward(&params, &mut data);
    }
}
