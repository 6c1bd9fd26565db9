//! Finite-field BLAS level-1 kernels over multi-word moduli.
//!
//! These are the point-wise polynomial operations of the paper's §2.3 / Figure 2:
//! vector addition, subtraction, multiplication, and `axpy` over `Z_q`, with each
//! element processed by one virtual GPU thread. [`vec_add_mod`] and [`vec_mul_mod`]
//! operate on slices of [`moma_mp::MpUint`], [`batch::run_batch`] runs any of the four
//! operations over a [`batch::Batch`]; the [`gpu`] module runs the same element kernels
//! data-parallel on the simulated GPU launcher and reports launch statistics, and
//! [`batch`] provides the batched execution the paper uses to reach steady-state
//! throughput.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod gpu;

use moma_mp::{ModRing, MpUint};

/// Element-wise `c[i] = (a[i] + b[i]) mod q`.
///
/// # Panics
///
/// Panics if the inputs have different lengths.
pub fn vec_add_mod<const L: usize>(
    ring: &ModRing<L>,
    a: &[MpUint<L>],
    b: &[MpUint<L>],
) -> Vec<MpUint<L>> {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter().zip(b).map(|(&x, &y)| ring.add(x, y)).collect()
}

/// Element-wise `c[i] = (a[i] * b[i]) mod q` (the point-wise product used between the
/// forward and inverse NTT).
///
/// # Panics
///
/// Panics if the inputs have different lengths.
pub fn vec_mul_mod<const L: usize>(
    ring: &ModRing<L>,
    a: &[MpUint<L>],
    b: &[MpUint<L>],
) -> Vec<MpUint<L>> {
    assert_eq!(a.len(), b.len(), "vector length mismatch");
    a.iter().zip(b).map(|(&x, &y)| ring.mul(x, y)).collect()
}

/// The four BLAS operations the paper evaluates in Figure 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BlasOp {
    /// Point-wise vector multiplication.
    VecMul,
    /// Vector addition.
    VecAdd,
    /// Vector subtraction.
    VecSub,
    /// `y = a·x + y`.
    Axpy,
}

impl BlasOp {
    /// All operations in the paper's reporting order.
    pub fn all() -> [BlasOp; 4] {
        [BlasOp::VecMul, BlasOp::VecAdd, BlasOp::VecSub, BlasOp::Axpy]
    }

    /// Display name matching the paper's figure labels.
    pub fn name(&self) -> &'static str {
        match self {
            BlasOp::VecMul => "vector multiplication",
            BlasOp::VecAdd => "vector addition",
            BlasOp::VecSub => "vector subtraction",
            BlasOp::Axpy => "axpy",
        }
    }

    /// Stable snake_case key for machine-readable output (the row names of
    /// `BENCH_ntt_blas.json`), shared by the positional and RNS engines.
    pub fn key(&self) -> &'static str {
        match self {
            BlasOp::VecMul => "vec_mul",
            BlasOp::VecAdd => "vec_add",
            BlasOp::VecSub => "vec_sub",
            BlasOp::Axpy => "axpy",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::apply_element;
    use moma_mp::U128;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn ring() -> ModRing<2> {
        ModRing::new(U128::from_hex("fffffffffffffffffffffe100000001"))
    }

    fn random_vec(ring: &ModRing<2>, n: usize, seed: u64) -> Vec<U128> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| ring.random_element(&mut rng)).collect()
    }

    #[test]
    fn add_sub_round_trip() {
        let ring = ring();
        let a = random_vec(&ring, 100, 1);
        let b = random_vec(&ring, 100, 2);
        let sum = vec_add_mod(&ring, &a, &b);
        let back: Vec<U128> = sum
            .iter()
            .zip(&b)
            .map(|(&s, &y)| apply_element(&ring, BlasOp::VecSub, U128::ZERO, s, y))
            .collect();
        assert_eq!(back, a);
    }

    #[test]
    fn mul_distributes_over_add() {
        let ring = ring();
        let a = random_vec(&ring, 50, 3);
        let b = random_vec(&ring, 50, 4);
        let c = random_vec(&ring, 50, 5);
        let lhs = vec_mul_mod(&ring, &a, &vec_add_mod(&ring, &b, &c));
        let rhs = vec_add_mod(
            &ring,
            &vec_mul_mod(&ring, &a, &b),
            &vec_mul_mod(&ring, &a, &c),
        );
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn axpy_matches_manual_computation() {
        let ring = ring();
        let x = random_vec(&ring, 20, 6);
        let y = random_vec(&ring, 20, 7);
        let a = random_vec(&ring, 1, 8)[0];
        for i in 0..x.len() {
            assert_eq!(
                apply_element(&ring, BlasOp::Axpy, a, x[i], y[i]),
                ring.add(ring.mul(a, x[i]), y[i])
            );
        }
    }

    #[test]
    fn blas_op_enumeration() {
        assert_eq!(BlasOp::all().len(), 4);
        assert_eq!(BlasOp::Axpy.name(), "axpy");
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn length_mismatch_panics() {
        let ring = ring();
        let a = random_vec(&ring, 4, 9);
        let b = random_vec(&ring, 5, 10);
        vec_add_mod(&ring, &a, &b);
    }
}
