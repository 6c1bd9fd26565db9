//! The MoMA rewrite system — recursive lowering of multi-word modular arithmetic.
//!
//! This crate is the reproduction of the paper's central contribution (§3–§4): a
//! program-transformation pass that takes a kernel expressed over large integer data
//! types (128–1,024 bits) and rewrites it, *type by type*, into an equivalent
//! straight-line program over machine words.
//!
//! The pipeline mirrors the paper exactly:
//!
//! 1. **Kernel builders** ([`builders`]) produce the high-level kernels the evaluation
//!    uses — modular addition/subtraction/multiplication, the NTT butterfly, and the
//!    BLAS `axpy` element — as single high-level operations over `UInt(λ)`.
//! 2. **Expansion** (the private `expand` module) rewrites each high-level modular operation at its
//!    native width into the mid-level operations of Table 1's right-hand sides:
//!    widening adds with explicit carries, widening multiplies, comparisons, conditional
//!    selects, and constant multi-word shifts (the Barrett sequence of Listing 4).
//! 3. **Type splitting** (the private `split` module) applies rules (19)–(29)
//!    recursively: every value of the current maximal width `2ω` becomes a pair of
//!    `ω`-wide values and every operation is rewritten accordingly, until all values
//!    fit the machine word `ω₀`.
//! 4. **Optimization passes** ([`passes`]) perform the zero-pruning the paper describes
//!    for non-power-of-two bit-widths (381-, 753-bit style inputs), plus constant
//!    folding, copy propagation, and dead-code elimination.
//!
//! The driver ([`lower`], [`lower_with_trace`]) assembles these steps and reports
//! per-stage statistics.
//!
//! # Example
//!
//! ```
//! use moma_rewrite::{builders, lower, KernelOp, KernelSpec, LoweringConfig};
//!
//! // Generate a 256-bit modular multiplication kernel for a 64-bit machine.
//! let spec = KernelSpec::new(KernelOp::ModMul, 256);
//! let hl = builders::build(&spec);
//! let lowered = lower(&hl, &LoweringConfig::default());
//! assert!(lowered.kernel.is_machine_level(64));
//! // The generated code can now be emitted as CUDA-like C:
//! let cuda = moma_ir::emit::emit_cuda(&lowered.kernel).unwrap();
//! assert!(cuda.contains("__int128"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builders;
mod expand;
mod fuse;
pub mod passes;
pub mod rules;
mod split;

mod driver;

pub use builders::{HighLevelKernel, KernelOp, KernelSpec};
pub use driver::{lower, lower_with_trace, Lowered, StageInfo};
/// The multiplication rule used when splitting a widening multiplication: the
/// runtime library's choice, so a lowering and a runtime ring name it alike.
pub use moma_mp::MulAlgorithm;

/// Configuration of the lowering pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoweringConfig {
    /// Machine word width ω₀ in bits (64 for the paper's GPUs; 32 and 16 are supported
    /// to model the "small machine word" hardware discussed in §7).
    pub word_bits: u32,
    /// Multiplication splitting rule.
    pub mul_algorithm: MulAlgorithm,
}

impl Default for LoweringConfig {
    fn default() -> Self {
        LoweringConfig {
            word_bits: 64,
            mul_algorithm: MulAlgorithm::Schoolbook,
        }
    }
}

impl LoweringConfig {
    /// A configuration for the given machine word width.
    pub fn for_word_bits(word_bits: u32) -> Self {
        assert!(
            word_bits.is_power_of_two() && (16..=64).contains(&word_bits),
            "machine word width must be 16, 32, or 64 bits"
        );
        LoweringConfig {
            word_bits,
            ..Self::default()
        }
    }
}
