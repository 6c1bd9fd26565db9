//! Execution and estimation engine: the machinery behind every evaluation figure.
//!
//! Two kinds of numbers are produced:
//!
//! * **measured** — wall-clock times of the runtime-library kernels (`moma-mp`,
//!   `moma-bignum`, `moma-rns`) executed on the host, either sequentially or through
//!   the simulated GPU launcher; these drive the relative comparisons (MoMA vs GMP vs
//!   GRNS, schoolbook vs Karatsuba, bit-width scaling);
//! * **modelled** — analytical per-device estimates obtained by feeding the word-level
//!   operation counts of the *generated* kernels into the GPU cost model; these stand
//!   in for the paper's H100 / RTX 4090 / V100 measurements.
//!
//! The estimation entry points live on [`crate::Session`]
//! ([`crate::Session::butterfly_op_counts`],
//! [`crate::Session::modelled_ntt_ns_per_butterfly`],
//! [`crate::Session::modelled_blas_ns_per_element`],
//! [`crate::Session::ntt_series`]) — they compile each kernel once and share it
//! across devices and figures. The pre-`Session` free-function shims that used
//! to live here were deprecated for one release and have been removed. This
//! module keeps the figure data type, [`Series`].

/// One row of a figure: system label, platform, and the series of (x, ns) points.
#[derive(Debug, Clone, PartialEq)]
pub struct Series {
    /// System under test (e.g. "MoMA (modelled)", "ICICLE").
    pub system: String,
    /// Hardware platform.
    pub platform: String,
    /// Data points: x (log2 size or bit-width) and nanoseconds.
    pub points: Vec<(u32, f64)>,
}

#[cfg(test)]
mod tests {
    use crate::session::Session;
    use moma_gpu::DeviceSpec;
    use moma_rewrite::{KernelOp, MulAlgorithm};

    #[test]
    fn butterfly_counts_grow_quadratically_with_width() {
        let session = Session::default();
        let c128 = session.butterfly_op_counts(128, MulAlgorithm::Schoolbook);
        let c256 = session.butterfly_op_counts(256, MulAlgorithm::Schoolbook);
        let c512 = session.butterfly_op_counts(512, MulAlgorithm::Schoolbook);
        // Schoolbook multiplication is O(k^2) in the number of words.
        assert!(c256.multiplications() >= 3 * c128.multiplications());
        assert!(c512.multiplications() >= 3 * c256.multiplications());
    }

    #[test]
    fn karatsuba_reduces_butterfly_multiplications() {
        let session = Session::default();
        let sb = session.butterfly_op_counts(256, MulAlgorithm::Schoolbook);
        let ka = session.butterfly_op_counts(256, MulAlgorithm::Karatsuba);
        assert!(ka.multiplications() < sb.multiplications());
    }

    #[test]
    fn modelled_times_scale_with_width_and_device() {
        let session = Session::default();
        let h100_128 = session.modelled_ntt_ns_per_butterfly(
            DeviceSpec::H100,
            128,
            12,
            MulAlgorithm::Schoolbook,
        );
        let h100_768 = session.modelled_ntt_ns_per_butterfly(
            DeviceSpec::H100,
            768,
            12,
            MulAlgorithm::Schoolbook,
        );
        let v100_128 = session.modelled_ntt_ns_per_butterfly(
            DeviceSpec::V100,
            128,
            12,
            MulAlgorithm::Schoolbook,
        );
        assert!(h100_768 > 10.0 * h100_128);
        assert!(v100_128 > h100_128);
    }

    #[test]
    fn blas_estimates_are_positive_and_mul_heavier_than_add() {
        let session = Session::default();
        let mul = session.modelled_blas_ns_per_element(
            DeviceSpec::RTX4090,
            KernelOp::ModMul,
            256,
            1 << 16,
        );
        let add = session.modelled_blas_ns_per_element(
            DeviceSpec::RTX4090,
            KernelOp::ModAdd,
            256,
            1 << 16,
        );
        assert!(mul > add);
        assert!(add > 0.0);
    }

    #[test]
    fn series_have_one_point_per_size() {
        let session = Session::default();
        let series = session.ntt_series(128, &[10, 12, 14], MulAlgorithm::Schoolbook);
        assert_eq!(series.len(), 3);
        assert!(series.iter().all(|s| s.points.len() == 3));
    }
}
