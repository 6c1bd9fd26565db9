//! Number theoretic transforms over multi-word prime fields.
//!
//! The NTT is the flagship kernel of the paper's evaluation (Figures 1, 3, 4, 5): an
//! `n`-point transform over `Z_q` built from `(n/2)·log2 n` butterflies, each of which
//! performs one modular multiplication, one modular addition, and one modular
//! subtraction. This crate provides:
//!
//! * [`params`] — NTT-friendly prime moduli of every evaluated bit-width (all of the
//!   form `c·2^32 + 1`, so every power-of-two transform size up to `2^32` is supported)
//!   and root-of-unity generation;
//! * [`transform`] — the iterative radix-2 Cooley–Tukey forward and inverse transforms
//!   over [`moma_mp::MpUint`] elements, plus a 64-bit single-word variant;
//! * [`plan`] — precomputed execution plans: one type, [`plan::Plan`], generic
//!   over the residue word ([`plan::NttWord`]), with the aliases [`NttPlan64`]
//!   (`u64`) and [`NttPlan`] (`MpUint<L>`). Bit-reversed twiddle tables are
//!   built once per (modulus, n) with Shoup precomputed quotients, and one lazy
//!   butterfly loop runs every plan — the hot-path entry points for repeated
//!   transforms;
//! * [`launcher`] — execution of the single-word plans on the simulated GPU
//!   launcher, the paper's §5.1 execution shape: a same-modulus batch dispatches
//!   one virtual thread per butterfly per stage through `moma_gpu::launch_indexed`
//!   (`NttPlan64::{forward,inverse}_batch_on_launcher`), a residue plane runs one
//!   resident block per row through `moma_gpu::launch_chunks`
//!   (`launcher::{forward,inverse}_rows`);
//! * [`mod@reference`] — the `O(n^2)` direct DFT used as a correctness oracle;
//! * [`polymul`] — NTT-based polynomial multiplication (the application motivating the
//!   kernel in FHE/ZKP workloads).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod launcher;
pub mod params;
pub mod plan;
pub mod polymul;
pub mod reference;
pub mod transform;

pub use params::NttParams;
pub use plan::{NttPlan, NttPlan64, Stage64};
pub use transform::{forward, inverse, Ntt64};
