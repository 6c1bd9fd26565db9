//! Negacyclic polynomial ring layer: `R_q = Z_q[X]/(X^n + 1)` over RNS moduli
//! ladders.
//!
//! This crate composes the engine's primitives — planned negacyclic NTTs
//! ([`moma_ntt::NttPlan64::negacyclic`]), the RNS BLAS plan, and the
//! residue-local rescale ([`moma_rns::RnsPlan::scale_and_round`]) — into the
//! workload they exist for: a CKKS/BGV-shaped **level ladder** where each
//! step multiplies pointwise in the evaluation domain (the `ψ`-twist folded
//! into the transforms, no separate twist pass) and drops one modulus from the
//! basis with an exact rescale — done in the evaluation domain too, so a
//! ladder raises its operands once, transforms only the dropped row and the
//! survivors' rounding corrections per step (`k` row transforms on a
//! `k`-modulus basis), and lowers once, on the step onto the floor.
//!
//! * [`RingContext`] — a moduli ladder `Q = q₀·…·q_L` with one negacyclic NTT
//!   plan per modulus and one RNS plan + rescale step per level.
//! * [`RingElt`] — an element of `R_Q` at some level, tagged with the
//!   [`Domain`] its residue rows hold (coefficients or NTT evaluations), with
//!   its residue plane pooled so steady-state ladder traffic is
//!   allocation-free on a warm [`moma_gpu::BufferPool`]. `decode` reads
//!   either domain.
//! * [`RingPlanSource`] — the provider hook a caching session implements so
//!   ring contexts ride its stampede-controlled plan caches; [`ColdSource`]
//!   builds everything from scratch.
//! * [`ladder`] — deterministic ladder-prime search (`q ≡ 1 mod 2n`, mixed
//!   narrow/wide widths).
//! * [`oracle`] — the readable `BigUint` reference: schoolbook `X^n + 1`
//!   multiply and a per-coefficient `scale_and_round` replay, used by the
//!   property tests and the bench crosscheck to pin the engine bit for bit.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ladder;
pub mod oracle;
mod ring;

pub use ladder::{default_ladder, ladder_primes};
pub use ring::{ColdSource, Domain, RingContext, RingElt, RingPlanSource};
