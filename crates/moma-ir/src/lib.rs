//! Abstract-code intermediate representation for MoMA code generation.
//!
//! The paper (§4) implements multi-word modular arithmetic as a *rewrite system over
//! data types* inside the SPIRAL code generator: computations on wide integer types are
//! recursively rewritten into equivalent sequences over narrower types until every value
//! is a machine word. This crate provides the program representation that the rewrite
//! pass (in `moma-rewrite`) operates on:
//!
//! * [`Ty`] — integer data types of arbitrary bit-width plus a 1-bit flag type for
//!   carries, borrows, and comparison results;
//! * [`Op`] / [`Stmt`] / [`Kernel`] — straight-line assignments whose shapes mirror the
//!   left-hand sides of the paper's rewrite rules (Table 1): wide additions producing
//!   carries, widening multiplications, comparisons, conditional selects, multi-word
//!   shifts, and the high-level modular operations that seed the rewriting;
//! * [`validate`] — a type checker enforcing the width discipline of the rules;
//! * [`interp`] — a tree-walking interpreter for machine-level kernels (the semantic
//!   reference and correctness oracle) that also counts word-level operations for the
//!   cost model;
//! * [`compiled`] — a bytecode executor that register-allocates temporaries into
//!   dense slots at compile time and runs every instruction across a block of 128
//!   elements before dispatching the next, reading parameters from the caller's
//!   planes and writing outputs to the caller's rows in place
//!   ([`compiled::CompiledKernel::run_lanes`]); batch execution
//!   ([`compiled::CompiledKernel::run_batch`]) walks blocks on one frame. It is
//!   the execution backend of the simulated GPU's hot path;
//! * [`emit`] — source emitters producing CUDA-like C (mirroring the paper's
//!   Listings 1–4) and safe Rust. The Rust is compiled: `moma-gpu`'s build
//!   script builds a fixed kernel set from it, found again at run time by
//!   [`Kernel::fingerprint`], and a test fixture builds 32-bit-word kernels
//!   to check it against the interpreter.
//!
//! # Example
//!
//! ```
//! use moma_ir::{KernelBuilder, Op, Operand, Ty};
//!
//! // c = (a + b) mod q, all 128-bit — the paper's Equation 30.
//! let mut kb = KernelBuilder::new("daddmod_128");
//! let a = kb.param("a", Ty::UInt(128));
//! let b = kb.param("b", Ty::UInt(128));
//! let q = kb.param("q", Ty::UInt(128));
//! let c = kb.output("c", Ty::UInt(128));
//! kb.push(vec![c], Op::AddMod { a: Operand::Var(a), b: Operand::Var(b), q: Operand::Var(q) });
//! let kernel = kb.build();
//! assert!(moma_ir::validate::validate(&kernel).is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compiled;
pub mod cost;
pub mod emit;
pub mod interp;
mod kernel;
mod ty;
pub mod validate;

pub use compiled::{BatchRunResult, CompiledKernel};
pub use kernel::{Dsts, Kernel, KernelBuilder, Op, Operand, Stmt, Var, VarId};
pub use ty::Ty;
