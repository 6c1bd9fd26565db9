//! MoMA: multi-word modular arithmetic code generation for cryptographic kernels.
//!
//! This is the facade crate of the reproduction of *"Code Generation for Cryptographic
//! Kernels using Multi-word Modular Arithmetic on GPU"* (CGO 2025). It ties the
//! subsystem crates together behind one public API:
//!
//! * [`Session`] — **the entry point**: owns a device, a compiled-kernel cache,
//!   and plan caches for every precompute-once object in the runtime
//!   ([`ntt::NttPlan64`] keyed by `(q, n)`, [`rns::RnsPlan`] keyed by basis,
//!   conversion/rescale/fused-chain plans keyed by basis pair), every
//!   `get_or_build` hit-counted and stampede-controlled (builds run outside the
//!   cache lock; same-key requests build exactly once, different-key requests
//!   never serialize). The session is a cheap `Clone` handle over shared state
//!   — `Send + Sync`, shareable across threads. Typed handles —
//!   [`session::RnsSpace`] / [`session::RnsVec`] with chainable ops, each
//!   running the one implementation `moma-rns` has for it (including the fused
//!   [`session::RnsVec::rescale_then_extend`] chain), [`session::NttSpace`]
//!   with stage-batched transforms — sit on top and are *owned*
//!   (`Send + 'static`), free to cross threads or sit in a request queue;
//! * [`Compiler`] — the stateless kernel generator underneath (modular
//!   add/sub/mul, NTT butterfly, BLAS axpy at any input bit-width, lowered with
//!   the MoMA rewrite system to word-level IR, emitted CUDA-like and Rust
//!   source, and operation counts). Prefer [`Session::compile`], which caches;
//! * [`Series`] — the figure data type (the estimation entry points live on
//!   [`Session`]);
//! * [`paper_data`] — the published baseline series (ICICLE, GZKP, RPU, FPMM, PipeZK,
//!   GMP, GRNS, …) digitised from the paper's figures, so each figure can be
//!   regenerated with all of its lines;
//! * re-exports of the subsystem crates ([`bignum`], [`mp`], [`ir`], [`rewrite`],
//!   [`rns`], [`gpu`], [`ntt`], [`blas`]).
//!
//! # Quickstart
//!
//! ```
//! use moma::{KernelOp, KernelSpec, Session};
//!
//! let session = Session::default();
//!
//! // Generate a 256-bit Barrett modular multiplication for a 64-bit machine word.
//! // Compiling emits no text; the CUDA-like source is emitted on call.
//! let kernel = session.compile(&KernelSpec::new(KernelOp::ModMul, 256));
//! assert!(kernel.cuda_source().contains("__device__"));
//! assert!(kernel.op_counts.multiplications() > 0);
//!
//! // Compile once, execute many: the second request builds nothing.
//! let again = session.compile(&KernelSpec::new(KernelOp::ModMul, 256));
//! assert_eq!(session.stats().generated.hits, 1);
//! assert!(std::sync::Arc::ptr_eq(&kernel, &again));
//!
//! // Typed handles over the cached plans: an RNS space and a batched NTT space.
//! let space = session.rns_with_capacity(128);
//! let ntt = session.ntt_default(1024);
//! assert_eq!(ntt.n(), 1024);
//! assert!(space.moduli().len() >= 4);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compiler;
mod engine;
pub mod paper_data;
pub mod session;
pub mod snapshot;

pub use compiler::{Compiler, GeneratedKernel};
pub use engine::Series;
pub use moma_rewrite::{KernelOp, KernelSpec, LoweringConfig, MulAlgorithm};
pub use session::{
    CacheStats, NttSpace, RingSpace, RingVec, RnsSpace, RnsVec, Session, SessionStats,
};
pub use snapshot::{RestoreReport, SnapshotError};

/// Re-export of the arbitrary-precision integer crate (GMP stand-in / oracle).
pub use moma_bignum as bignum;
/// Re-export of the finite-field BLAS kernels.
pub use moma_blas as blas;
/// Re-export of the GPU simulator.
pub use moma_gpu as gpu;
/// Re-export of the abstract-code IR.
pub use moma_ir as ir;
/// Re-export of the fixed-width multi-word runtime library.
pub use moma_mp as mp;
/// Re-export of the NTT crate.
pub use moma_ntt as ntt;
/// Re-export of the MoMA rewrite system.
pub use moma_rewrite as rewrite;

/// Negacyclic polynomial ring layer (ladders, ring contexts, oracles).
pub use moma_ring as ring;
/// Re-export of the RNS (GRNS stand-in) crate.
pub use moma_rns as rns;
