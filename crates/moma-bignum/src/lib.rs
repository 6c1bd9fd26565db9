//! Arbitrary-precision unsigned integer arithmetic.
//!
//! This crate is the repository's stand-in for the GNU Multiple Precision library
//! (GMP), which the paper uses both as the CPU baseline in Figure 2 / Figure 4 and,
//! implicitly, as the ground truth for all fixed-width kernels. Everything is written
//! from scratch on top of 64-bit limbs:
//!
//! * [`BigUint`] — a dynamically sized unsigned integer (little-endian `u64` limbs),
//! * schoolbook and Karatsuba multiplication ([`BigUint::mul_schoolbook`],
//!   [`BigUint::mul_karatsuba`]),
//! * Knuth Algorithm D division ([`BigUint::div_rem`]),
//! * modular arithmetic ([`BigUint::mod_add`], [`BigUint::mod_mul`],
//!   [`BigUint::mod_pow`], [`BigUint::mod_inverse`]),
//! * primality testing and prime generation ([`prime`]),
//! * uniform random sampling ([`random`]).
//!
//! The same algorithmic regime as GMP applies for the bit-widths relevant to the paper
//! (128–1,024 bits): schoolbook/Karatsuba multiplication and word-by-word division.
//! GMP's FFT-based multiplication only becomes relevant far above 1,024 bits, which the
//! paper's §7 calls out explicitly.
//!
//! # Example
//!
//! ```
//! use moma_bignum::BigUint;
//!
//! let a = BigUint::from_hex("ffffffffffffffffffffffffffffffff").unwrap();
//! let b = BigUint::from(3u64);
//! let q = BigUint::from_hex("fffffffffffffffffffffffffffffff1").unwrap();
//! let c = a.mod_mul(&b, &q);
//! assert!(c < q);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod biguint;
mod convert;
mod div;
mod fmt;
mod modular;
mod mul;
mod ops;
pub mod prime;
pub mod random;

pub use biguint::BigUint;
pub use convert::ParseBigUintError;
