//! Data-parallel BLAS execution on the simulated GPU launcher.

use crate::batch::{apply_element, Batch};
use crate::BlasOp;
use moma_gpu::launch::{launch_chunks, LaunchStats};
use moma_mp::{ModRing, MpUint};

/// Runs one BLAS operation over a batch with one virtual GPU thread per element,
/// returning the result and the launch statistics (wall-clock time on the host thread
/// pool).
///
/// The output is sized up front and filled in place by
/// [`launch_chunks`] with unit chunks: contiguous element ranges go to
/// `std::thread::scope` workers sized by the machine's available parallelism and
/// every worker writes its own disjoint slice, so the launch has no lock and no
/// collection step on its hot path. The output vector is the one allocation the
/// statistics report.
///
/// # Panics
///
/// Panics if the batches have different shapes.
pub fn run_batch_parallel<const L: usize>(
    ring: &ModRing<L>,
    op: BlasOp,
    a_scalar: MpUint<L>,
    x: &Batch<L>,
    y: &Batch<L>,
) -> (Batch<L>, LaunchStats) {
    assert_eq!(x.data.len(), y.data.len(), "batch shape mismatch");
    assert_eq!(x.vector_len, y.vector_len, "batch shape mismatch");
    let mut data = vec![MpUint::ZERO; x.data.len()];
    let mut stats = launch_chunks(&mut data, 1, |i, out| {
        out[0] = apply_element(ring, op, a_scalar, x.data[i], y.data[i]);
    });
    stats.allocs += usize::from(!data.is_empty());
    (
        Batch {
            data,
            vector_len: x.vector_len,
        },
        stats,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::run_batch;
    use moma_mp::U128;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn parallel_matches_sequential_for_all_ops() {
        let ring = ModRing::new(U128::from_hex("fffffffffffffffffffffe100000001"));
        let mut rng = StdRng::seed_from_u64(7);
        let x = Batch::random(&ring, &mut rng, 4, 64);
        let y = Batch::random(&ring, &mut rng, 4, 64);
        let a = ring.random_element(&mut rng);
        for op in BlasOp::all() {
            let sequential = run_batch(&ring, op, a, &x, &y);
            let (parallel, stats) = run_batch_parallel(&ring, op, a, &x, &y);
            assert_eq!(parallel, sequential, "{op:?}");
            assert_eq!(stats.threads, 256);
        }
    }

    #[test]
    fn large_batch_round_trips_add_then_sub() {
        let ring = ModRing::new(U128::from_hex("fffffffffffffffffffffe100000001"));
        let mut rng = StdRng::seed_from_u64(8);
        let x = Batch::random(&ring, &mut rng, 16, 256);
        let y = Batch::random(&ring, &mut rng, 16, 256);
        let a = ring.random_element(&mut rng);
        let (sum, _) = run_batch_parallel(&ring, BlasOp::VecAdd, a, &x, &y);
        let (back, _) = run_batch_parallel(&ring, BlasOp::VecSub, a, &sum, &y);
        assert_eq!(back, x);
    }
}
