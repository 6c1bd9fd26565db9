//! Batched execution of BLAS kernels.
//!
//! The paper reaches steady-state throughput by processing many independent vectors in
//! one launch (§5.1: "we employ batch processing on the GPU to harness additional
//! levels of parallelism") and reports the per-element runtime at the best batch size.
//! A [`Batch`] is simply a contiguous collection of `batch_size` vectors of `n`
//! elements each.

use crate::BlasOp;
use moma_mp::{ModRing, MpUint};
use rand::Rng;

/// A batch of equal-length vectors stored contiguously.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Batch<const L: usize> {
    /// Elements, vector after vector.
    pub data: Vec<MpUint<L>>,
    /// Length of each vector.
    pub vector_len: usize,
}

impl<const L: usize> Batch<L> {
    /// Creates a batch of `batch_size` vectors of `vector_len` uniformly random reduced
    /// elements.
    pub fn random<R: Rng + ?Sized>(
        ring: &ModRing<L>,
        rng: &mut R,
        batch_size: usize,
        vector_len: usize,
    ) -> Self {
        Batch {
            data: (0..batch_size * vector_len)
                .map(|_| ring.random_element(rng))
                .collect(),
            vector_len,
        }
    }

    /// Number of vectors in the batch.
    pub fn batch_size(&self) -> usize {
        self.data.len().checked_div(self.vector_len).unwrap_or(0)
    }
}

/// Applies one BLAS operation element-wise across two batches (scalar `a` is used only
/// by `axpy`), sequentially. Returns the result batch.
///
/// # Panics
///
/// Panics if the batches have different shapes.
pub fn run_batch<const L: usize>(
    ring: &ModRing<L>,
    op: BlasOp,
    a_scalar: MpUint<L>,
    x: &Batch<L>,
    y: &Batch<L>,
) -> Batch<L> {
    assert_eq!(x.data.len(), y.data.len(), "batch shape mismatch");
    assert_eq!(x.vector_len, y.vector_len, "batch shape mismatch");
    let data = x
        .data
        .iter()
        .zip(&y.data)
        .map(|(&xi, &yi)| apply_element(ring, op, a_scalar, xi, yi))
        .collect();
    Batch {
        data,
        vector_len: x.vector_len,
    }
}

/// The per-element computation of each BLAS operation — exactly the element kernel a
/// GPU thread executes.
#[inline]
pub(crate) fn apply_element<const L: usize>(
    ring: &ModRing<L>,
    op: BlasOp,
    a_scalar: MpUint<L>,
    x: MpUint<L>,
    y: MpUint<L>,
) -> MpUint<L> {
    match op {
        BlasOp::VecMul => ring.mul(x, y),
        BlasOp::VecAdd => ring.add(x, y),
        BlasOp::VecSub => ring.sub(x, y),
        BlasOp::Axpy => ring.add(ring.mul(a_scalar, x), y),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_mp::U256;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring() -> ModRing<4> {
        ModRing::new(U256::from_hex(
            "fffffffffffffffffffffffffffffffffffffffffffffffffffffe200000001",
        ))
    }

    #[test]
    fn batch_shape() {
        let ring = ring();
        let mut rng = StdRng::seed_from_u64(1);
        let batch = Batch::random(&ring, &mut rng, 8, 32);
        assert_eq!(batch.batch_size(), 8);
        assert_eq!(batch.data.len(), 256);
    }

    #[test]
    fn batched_result_matches_per_vector_result() {
        let ring = ring();
        let mut rng = StdRng::seed_from_u64(2);
        let x = Batch::random(&ring, &mut rng, 4, 16);
        let y = Batch::random(&ring, &mut rng, 4, 16);
        let a = ring.random_element(&mut rng);
        for op in BlasOp::all() {
            let batched = run_batch(&ring, op, a, &x, &y);
            for i in 0..x.data.len() {
                assert_eq!(
                    batched.data[i],
                    apply_element(&ring, op, a, x.data[i], y.data[i])
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn shape_mismatch_panics() {
        let ring = ring();
        let mut rng = StdRng::seed_from_u64(3);
        let x = Batch::random(&ring, &mut rng, 2, 16);
        let y = Batch::random(&ring, &mut rng, 2, 8);
        run_batch(&ring, BlasOp::VecAdd, U256::ONE, &x, &y);
    }
}
