//! Fixed-width multi-word integers and multi-word modular arithmetic.
//!
//! This crate is the *runtime library* of the reproduction: it implements, as native
//! Rust, exactly the word-level algorithms that the MoMA rewrite system generates —
//! the single-word kernels of the paper's Listing 1 ([`single`], whose
//! [`single::SingleBarrett::new`] is the one place the single-word reduction constants
//! are worked out, for this crate and for `moma-ir`'s bytecode executor), the multi-word
//! carry/borrow chains and schoolbook/Karatsuba products of Listings 2–3 ([`MpUint`],
//! [`MpUint::widening_mul_karatsuba`]), and the multi-word Barrett modular
//! multiplication of Listing 4 in [`ModRing`], the one multi-word ring, for moduli of
//! up to `64·L − 4` bits.
//!
//! Where the paper's tool chain emits CUDA that `nvcc` compiles for a GPU, this crate
//! is what that emitted code *computes*; the `moma-rewrite` crate generates the IR and
//! the cross-crate tests check that interpreting the generated code agrees limb-for-limb
//! with this library and with the `moma-bignum` oracle.
//!
//! # Example
//!
//! ```
//! use moma_mp::{ModRing, U256};
//!
//! // A 252-bit modulus (the paper's "k - 4 bits" convention for 256-bit kernels).
//! let q = U256::from_hex("fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff43");
//! let ring = ModRing::new(q);
//! let a = ring.reduce(U256::from_hex("123456789abcdef0123456789abcdef0"));
//! let b = ring.reduce(U256::from_hex("fedcba9876543210fedcba9876543210"));
//! let c = ring.mul(a, b);
//! assert!(c < q);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arith;
mod barrett;
mod karatsuba;
mod modring;
pub mod single;
mod uint;

pub use modring::ModRing;
pub use uint::{MpUint, U128, U256};

/// Choice of multi-word multiplication algorithm (the paper's §5.4 ablation,
/// Figure 5b): for the runtime library's products and for the rewrite system's
/// splitting of a widening multiplication.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MulAlgorithm {
    /// Schoolbook multiplication: 4 single-word multiplications and 6 additions per
    /// double-word product (paper Equation 8, rule (28)).
    #[default]
    Schoolbook,
    /// Karatsuba multiplication: 3 single-word multiplications and 12
    /// additions/subtractions per double-word product (paper Equation 9).
    Karatsuba,
}

/// Returns the number of 64-bit limbs needed for a value of `bits` bits.
///
/// ```
/// assert_eq!(moma_mp::limbs_for_bits(128), 2);
/// assert_eq!(moma_mp::limbs_for_bits(381), 6);
/// ```
pub const fn limbs_for_bits(bits: u32) -> usize {
    bits.div_ceil(64) as usize
}
