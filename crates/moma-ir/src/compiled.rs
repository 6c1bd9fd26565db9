//! A compiled bytecode executor for machine-level kernels.
//!
//! The tree interpreter in [`crate::interp`] resolves every operand through an
//! `Option`-checked lookup, allocates a fresh value table per run, and updates a
//! `BTreeMap`-backed operation counter on every statement. That is fine as a
//! correctness oracle, but it dominates the runtime of the simulated GPU, where the
//! same kernel executes once per element across large batches.
//!
//! [`CompiledKernel`] moves all of that work to compile time:
//!
//! * **Register allocation** — variables are linear-scan-allocated into dense `u64`
//!   slots; a slot is recycled as soon as the last read of its variable has
//!   executed, so the scratch frame is much smaller than the variable count and is
//!   reused across lane blocks with zero per-element allocation.
//! * **Static checking** — width limits and use-before-def are verified once at
//!   compile time (straight-line code makes the check exact), so the execution loop
//!   has no error paths.
//! * **Precomputed masks and counts** — destination masks are baked into each
//!   bytecode op, and the per-element [`OpCounts`] is computed once (statement
//!   counts are exact execution counts for straight-line kernels).
//! * **Range-chosen accumulations** — a kernel with `MacReduceMod` statements
//!   gets one forward pass that bounds every variable from the declared
//!   parameter bounds ([`Kernel::bounds`]), the constants, the declared widths
//!   and each op's exact result range, and each accumulation runs the cheapest
//!   arm that is exact under those bounds:
//!   - a `·1` pair on a value below `q` is a copy, below `2q` one conditional
//!     subtraction;
//!   - a sum of one or two pairs that provably fits a `u64` runs in one pass
//!     over the lanes, with constant operands as immediates, and closes with
//!     [`SingleBarrett::reduce_word`];
//!   - everything else accumulates in `u128` lanes and closes with
//!     [`SingleBarrett::reduce_wide`] (or an exact `u128 %` for moduli outside
//!     the single-word Barrett domain).
//!
//!   The word arms multiply and add with plain `*`/`+`, so a build with
//!   overflow checks turns an unsound bound into a panic rather than a wrong
//!   answer.
//!
//! One loop gives the bytecode its meaning: `exec_lanes` runs every instruction
//! across a block of up to [`LANE_BLOCK`] elements before dispatching the next.
//! [`CompiledKernel::run_lanes`] is its entry point (callers fill and drain whole
//! lane runs), [`CompiledKernel::run_elements`] walks an element-major batch over it
//! block by block, and [`CompiledKernel::run`] / [`CompiledKernel::run_batch`] are
//! that walk over one element and over a whole batch; there is no per-element frame
//! or executor.
//!
//! The interpreter remains the semantic reference: `CompiledKernel::run` is
//! observationally identical to [`interp::run`](crate::interp::run), and the test
//! suites cross-check the two on every kernel the rewrite system produces.

use crate::cost::{static_counts, OpCounts};
use crate::interp::{InterpError, RunResult};
use crate::{Kernel, Op, Operand, VarId};
use moma_mp::single::SingleBarrett;

/// A bytecode operand: a register slot index.
///
/// There are no immediate operands at execution time — compile-time constants are
/// materialized into dedicated registers, broadcast across their lanes once when a
/// [`BlockScratch`] frame is first used by the kernel. That keeps every instruction
/// small (better bytecode cache density) and every operand read a single indexed
/// load.
type Src = u32;

/// A bytecode destination: a register slot plus the write mask of its type width.
#[derive(Debug, Clone, Copy)]
struct Dst {
    reg: u32,
    mask: u64,
}

/// The multi-word-shift payload, boxed so the rare variant does not inflate every
/// [`Code`] instruction.
#[derive(Debug, Clone)]
struct ShrOp {
    dsts: Vec<Dst>,
    words: Vec<Src>,
    shift: u32,
    word_bits: u32,
}

/// One bytecode instruction with fully resolved register slots.
#[derive(Debug, Clone)]
enum Code {
    Copy {
        d: Dst,
        s: Src,
    },
    AddWide {
        carry: Dst,
        sum: Dst,
        a: Src,
        b: Src,
        cin: Src,
        sum_bits: u32,
    },
    Sub {
        d: Dst,
        a: Src,
        b: Src,
        bin: Src,
    },
    MulWide {
        hi: Dst,
        lo: Dst,
        a: Src,
        b: Src,
        lo_bits: u32,
    },
    MulLow {
        d: Dst,
        a: Src,
        b: Src,
    },
    Lt {
        d: Dst,
        a: Src,
        b: Src,
    },
    Eq {
        d: Dst,
        a: Src,
        b: Src,
    },
    BoolAnd {
        d: Dst,
        a: Src,
        b: Src,
    },
    BoolOr {
        d: Dst,
        a: Src,
        b: Src,
    },
    Select {
        d: Dst,
        cond: Src,
        if_true: Src,
        if_false: Src,
    },
    ShrMulti(Box<ShrOp>),
    AddMod {
        d: Dst,
        a: Src,
        b: Src,
        q: Src,
    },
    SubMod {
        d: Dst,
        a: Src,
        b: Src,
        q: Src,
    },
    MulModBarrett {
        d: Dst,
        a: Src,
        b: Src,
        q: Src,
    },
    MulAddMod {
        d: Dst,
        a: Src,
        b: Src,
        c: Src,
        q: Src,
    },
    MacReduceMod(Box<MacReduceOp>),
}

/// The accumulation payload, boxed like [`ShrOp`] so the variadic variant does
/// not inflate every [`Code`] instruction.
///
/// `arm` is chosen at compile time from the operands' upper bounds (see
/// [`mac_arm`]): the cheapest form that is exact — `== Σaᵢbᵢ mod q` — for every
/// input the kernel accepts, validated or not.
#[derive(Debug, Clone)]
struct MacReduceOp {
    d: Dst,
    q: u64,
    arm: MacArm,
}

/// How one `MacReduceMod` runs. Which arm runs when:
/// - [`MacArm::Reduced`]: one pair `x·1` with `x < q` — a copy;
/// - [`MacArm::CondSub`]: one pair `x·1` with `x < 2q` — one conditional
///   subtraction;
/// - the word arms: one or two pairs whose sum of products is at most
///   `u64::MAX` for every accepted input, and a modulus in the single-word
///   Barrett domain (`2 ≤ q < 2^60`) — one pass over the lanes, closed by
///   [`SingleBarrett::reduce_word`]. `Word1K`/`Word2K` take every pair's
///   constant operand as an immediate; `Word1`/`Word2` read both operands
///   from registers;
/// - [`MacArm::Wide`]: everything else — `u128` accumulator lanes, pairs
///   outer, closed by [`SingleBarrett::reduce_wide`], or by an exact `u128 %`
///   when `barrett` is `None` (`q < 2` or wider than 60 bits).
#[derive(Debug, Clone)]
enum MacArm {
    Reduced {
        x: Src,
    },
    CondSub {
        x: Src,
    },
    Word1 {
        a: Src,
        b: Src,
        barrett: SingleBarrett,
    },
    Word1K {
        a: Src,
        k: u64,
        barrett: SingleBarrett,
    },
    Word2 {
        a: [Src; 2],
        b: [Src; 2],
        barrett: SingleBarrett,
    },
    Word2K {
        a: [Src; 2],
        k: [u64; 2],
        barrett: SingleBarrett,
    },
    Wide {
        pairs: Vec<(Src, Src)>,
        barrett: Option<SingleBarrett>,
    },
}

/// Picks the arm of `Σ pairs mod q` (see [`MacArm`]) that is exact when every
/// operand is at most `bound(operand)`. `src` resolves an operand to its
/// register; a constant that an arm takes as an immediate (or the `1` of a
/// `·1` pair) is never resolved, so it takes no register.
fn mac_arm(
    pairs: &[(Operand, Operand)],
    q: u64,
    bound: impl Fn(Operand) -> u64,
    mut src: impl FnMut(Operand) -> Src,
) -> MacArm {
    if let [(a, b)] = *pairs {
        let x = match (a, b) {
            (x, Operand::Const(1)) | (Operand::Const(1), x) => Some(x),
            _ => None,
        };
        if let Some(x) = x {
            let bx = u128::from(bound(x));
            if bx < u128::from(q) {
                return MacArm::Reduced { x: src(x) };
            }
            if bx < 2 * u128::from(q) {
                return MacArm::CondSub { x: src(x) };
            }
        }
    }
    let barrett = (2..1 << 60).contains(&q).then(|| SingleBarrett::new(q));
    let sum = pairs.iter().try_fold(0u128, |sum, &(a, b)| {
        sum.checked_add(u128::from(bound(a)) * u128::from(bound(b)))
    });
    let fits_word = sum.is_some_and(|s| s <= u128::from(u64::MAX));
    // The pair as (register operand, immediate) when one side is a constant.
    let imm = |(a, b): (Operand, Operand)| match (a, b) {
        (x, Operand::Const(k)) | (Operand::Const(k), x) => Some((x, k)),
        _ => None,
    };
    match (barrett, pairs) {
        (Some(barrett), &[p]) if fits_word => match imm(p) {
            Some((a, k)) => MacArm::Word1K {
                a: src(a),
                k,
                barrett,
            },
            None => MacArm::Word1 {
                a: src(p.0),
                b: src(p.1),
                barrett,
            },
        },
        (Some(barrett), &[p0, p1]) if fits_word => match (imm(p0), imm(p1)) {
            (Some((a0, k0)), Some((a1, k1))) => MacArm::Word2K {
                a: [src(a0), src(a1)],
                k: [k0, k1],
                barrett,
            },
            _ => MacArm::Word2 {
                a: [src(p0.0), src(p1.0)],
                b: [src(p0.1), src(p1.1)],
                barrett,
            },
        },
        _ => MacArm::Wide {
            pairs: pairs.iter().map(|&(a, b)| (src(a), src(b))).collect(),
            barrett,
        },
    }
}

/// The largest value `op` can leave in a single destination, given the
/// largest value of each operand, under the executor's own semantics (the
/// destination mask is applied by the caller). Ops whose result is not
/// range-limited, and multi-destination ops, give `u64::MAX`.
fn result_bound(op: &Op, bound: impl Fn(Operand) -> u64) -> u64 {
    match op {
        Op::Copy { src } => bound(*src),
        Op::Lt { .. } | Op::Eq { .. } | Op::BoolAnd { .. } | Op::BoolOr { .. } => 1,
        Op::Select {
            if_true, if_false, ..
        } => bound(*if_true).max(bound(*if_false)),
        Op::AddMod { q, .. } | Op::MulModBarrett { q, .. } | Op::MulAddMod { q, .. } => {
            bound(*q).saturating_sub(1)
        }
        // `a − b` when `a ≥ b`, `a + q − b < q` otherwise.
        Op::SubMod { a, q, .. } => bound(*q).saturating_sub(1).max(bound(*a)),
        Op::MacReduceMod { q, .. } => q.saturating_sub(1),
        _ => u64::MAX,
    }
}

/// Number of elements [`CompiledKernel::run_lanes`] executes in lock-step. Sized
/// so a typical fused-kernel frame (a few dozen registers × `LANE_BLOCK` lanes ×
/// 8 bytes) stays cache-resident while still amortizing instruction dispatch.
pub const LANE_BLOCK: usize = 128;

/// Reusable lane-block execution state for [`CompiledKernel::run_lanes`]: a
/// register frame holding [`LANE_BLOCK`] lanes per register (lane-major per
/// register, so each register's lanes are one contiguous run), plus the
/// multi-word shift staging buffer (the source words' lanes, word-major).
/// Create one per worker with [`CompiledKernel::block_scratch`] and reuse it
/// across blocks.
#[derive(Debug, Clone, Default)]
pub struct BlockScratch {
    regs: Vec<u64>,
    shr: Vec<u64>,
    /// Id of the kernel whose constants currently occupy the frame's constant
    /// registers (`0` = none). Constant registers are never written by the body,
    /// so [`CompiledKernel::run_lanes`] skips the resize-and-broadcast when the
    /// same kernel reuses the frame — which matters for constant-heavy fused
    /// kernels run over many blocks.
    tag: u64,
}

/// A parameter's register slot and what [`CompiledKernel::run_lanes`] checks
/// its inputs against.
#[derive(Debug, Clone, Copy)]
struct Param {
    slot: u32,
    /// Declared bit-width.
    bits: u32,
    /// Declared bound ([`Kernel::bounds`]), if any.
    bound: Option<u64>,
}

/// A kernel compiled to register-allocated bytecode.
///
/// # Example
///
/// ```
/// use moma_ir::{compiled::CompiledKernel, interp, KernelBuilder, Op, Ty};
///
/// let mut kb = KernelBuilder::new("addmod64");
/// let a = kb.param("a", Ty::UInt(64));
/// let b = kb.param("b", Ty::UInt(64));
/// let q = kb.param("q", Ty::UInt(64));
/// let c = kb.output("c", Ty::UInt(64));
/// kb.push(vec![c], Op::AddMod { a: a.into(), b: b.into(), q: q.into() });
/// let kernel = kb.build();
///
/// let compiled = CompiledKernel::compile(&kernel).unwrap();
/// let fast = compiled.run(&[90, 80, 100]).unwrap();
/// let slow = interp::run(&kernel, &[90, 80, 100]).unwrap();
/// assert_eq!(fast, slow);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledKernel {
    name: String,
    /// Process-unique id (clones share it — they carry identical constants), used
    /// to recognize a [`BlockScratch`] frame whose constant registers are already
    /// loaded for this kernel.
    id: u64,
    /// [`Kernel::fingerprint`] of the kernel this was compiled from.
    fingerprint: u64,
    code: Vec<Code>,
    /// Each parameter's register slot and entry check, in signature order.
    params: Vec<Param>,
    /// Parameter names, for error messages only (cold path).
    param_names: Vec<String>,
    /// Register slot of each output, in signature order.
    outputs: Vec<u32>,
    /// Materialized constants: `const_values[k]` is broadcast into register
    /// `const_base + k` when a frame is preloaded.
    const_base: usize,
    const_values: Vec<u64>,
    n_regs: usize,
    counts: OpCounts,
}

impl CompiledKernel {
    /// Compiles a machine-level kernel to bytecode.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::UnsupportedWidth`] if any variable is wider than 64
    /// bits and [`InterpError::UseBeforeDef`] if a variable is read (or an output
    /// left) before assignment — exactly the conditions under which the interpreter
    /// would fail at runtime.
    pub fn compile(kernel: &Kernel) -> Result<Self, InterpError> {
        for v in &kernel.vars {
            if v.ty.bits() > 64 {
                return Err(InterpError::UnsupportedWidth {
                    var: v.name.clone(),
                    bits: v.ty.bits(),
                });
            }
        }

        let alloc = RegAlloc::run(kernel)?;
        let slot_of = |v: VarId| alloc.slot_at_def[v.0].expect("defined vars have slots");

        // Constants are interned into registers past the allocator's frame; they
        // are broadcast once per frame and never written by the body.
        let const_base = alloc.n_regs;
        let mut const_values: Vec<u64> = Vec::new();
        let mut const_map: std::collections::HashMap<u64, u32> = std::collections::HashMap::new();

        // The largest value each variable can hold at the current statement,
        // which `MacReduceMod` arms are chosen from. Only a kernel that has
        // one builds the table.
        let has_mac = kernel
            .body
            .iter()
            .any(|s| matches!(s.op, Op::MacReduceMod { .. }));
        let mut bounds: Vec<u64> = Vec::new();
        if has_mac {
            bounds = kernel.vars.iter().map(|v| mask64(v.ty.bits())).collect();
            for p in &kernel.params {
                if let Some(&b) = kernel.bounds.get(p) {
                    bounds[p.0] = bounds[p.0].min(b);
                }
            }
        }

        let mut code = Vec::with_capacity(kernel.body.len());
        for (i, stmt) in kernel.body.iter().enumerate() {
            let bound = |o: Operand| match o {
                Operand::Const(c) => c,
                Operand::Var(v) => bounds[v.0],
            };
            let mut src = |o: Operand| -> Src {
                match o {
                    Operand::Const(c) => *const_map.entry(c).or_insert_with(|| {
                        const_values.push(c);
                        (const_base + const_values.len() - 1) as u32
                    }),
                    Operand::Var(v) => alloc.slot_at_use[i][&v],
                }
            };
            let dst = |d: VarId| -> Dst {
                Dst {
                    reg: alloc.slot_at_write[i][&d],
                    mask: mask64(kernel.ty(d).bits()),
                }
            };
            code.push(match &stmt.op {
                Op::Copy { src: s } => Code::Copy {
                    d: dst(stmt.dsts[0]),
                    s: src(*s),
                },
                Op::AddWide { a, b, carry_in } => Code::AddWide {
                    carry: dst(stmt.dsts[0]),
                    sum: dst(stmt.dsts[1]),
                    a: src(*a),
                    b: src(*b),
                    cin: src(carry_in.unwrap_or(Operand::ZERO)),
                    sum_bits: kernel.ty(stmt.dsts[1]).bits(),
                },
                Op::Sub { a, b, borrow_in } => Code::Sub {
                    d: dst(stmt.dsts[0]),
                    a: src(*a),
                    b: src(*b),
                    bin: src(borrow_in.unwrap_or(Operand::ZERO)),
                },
                Op::MulWide { a, b } => Code::MulWide {
                    hi: dst(stmt.dsts[0]),
                    lo: dst(stmt.dsts[1]),
                    a: src(*a),
                    b: src(*b),
                    lo_bits: kernel.ty(stmt.dsts[1]).bits(),
                },
                Op::MulLow { a, b } => Code::MulLow {
                    d: dst(stmt.dsts[0]),
                    a: src(*a),
                    b: src(*b),
                },
                Op::Lt { a, b } => Code::Lt {
                    d: dst(stmt.dsts[0]),
                    a: src(*a),
                    b: src(*b),
                },
                Op::Eq { a, b } => Code::Eq {
                    d: dst(stmt.dsts[0]),
                    a: src(*a),
                    b: src(*b),
                },
                Op::BoolAnd { a, b } => Code::BoolAnd {
                    d: dst(stmt.dsts[0]),
                    a: src(*a),
                    b: src(*b),
                },
                Op::BoolOr { a, b } => Code::BoolOr {
                    d: dst(stmt.dsts[0]),
                    a: src(*a),
                    b: src(*b),
                },
                Op::Select {
                    cond,
                    if_true,
                    if_false,
                } => Code::Select {
                    d: dst(stmt.dsts[0]),
                    cond: src(*cond),
                    if_true: src(*if_true),
                    if_false: src(*if_false),
                },
                Op::ShrMulti { words, shift } => Code::ShrMulti(Box::new(ShrOp {
                    dsts: stmt.dsts.iter().map(|d| dst(*d)).collect(),
                    words: words.iter().map(|w| src(*w)).collect(),
                    shift: *shift,
                    // Matches the interpreter: the width of the first variable word
                    // (constants are typed by their use sites).
                    word_bits: words
                        .iter()
                        .find_map(|o| o.as_var().map(|v| kernel.ty(v).bits()))
                        .unwrap_or(64),
                })),
                Op::AddMod { a, b, q } => Code::AddMod {
                    d: dst(stmt.dsts[0]),
                    a: src(*a),
                    b: src(*b),
                    q: src(*q),
                },
                Op::SubMod { a, b, q } => Code::SubMod {
                    d: dst(stmt.dsts[0]),
                    a: src(*a),
                    b: src(*b),
                    q: src(*q),
                },
                Op::MulModBarrett { a, b, q, .. } => Code::MulModBarrett {
                    d: dst(stmt.dsts[0]),
                    a: src(*a),
                    b: src(*b),
                    q: src(*q),
                },
                Op::MulAddMod { a, b, c, q, .. } => Code::MulAddMod {
                    d: dst(stmt.dsts[0]),
                    a: src(*a),
                    b: src(*b),
                    c: src(*c),
                    q: src(*q),
                },
                Op::MacReduceMod { pairs, q } => Code::MacReduceMod(Box::new(MacReduceOp {
                    d: dst(stmt.dsts[0]),
                    q: *q,
                    arm: mac_arm(pairs, *q, bound, src),
                })),
            });
            if has_mac {
                let value = result_bound(&stmt.op, bound);
                for d in &stmt.dsts {
                    bounds[d.0] = value.min(mask64(kernel.ty(*d).bits()));
                }
            }
        }

        Ok(CompiledKernel {
            name: kernel.name.clone(),
            id: next_kernel_id(),
            fingerprint: kernel.fingerprint(),
            code,
            params: kernel
                .params
                .iter()
                .map(|p| Param {
                    slot: slot_of(*p),
                    bits: kernel.ty(*p).bits(),
                    bound: kernel.bounds.get(p).copied(),
                })
                .collect(),
            param_names: kernel
                .params
                .iter()
                .map(|p| kernel.var(*p).name.clone())
                .collect(),
            outputs: alloc.output_slots,
            const_base,
            n_regs: const_base + const_values.len(),
            const_values,
            counts: static_counts(kernel),
        })
    }

    /// The kernel name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The [`Kernel::fingerprint`] of the kernel this was compiled from: what a
    /// launcher matches against the kernels it has a native build of.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Number of register slots in the execution frame (after linear-scan reuse;
    /// at most the kernel's variable count).
    pub fn register_count(&self) -> usize {
        self.n_regs
    }

    /// Number of parameters expected per element.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Number of outputs produced per element.
    pub fn output_count(&self) -> usize {
        self.outputs.len()
    }

    /// The word-level operations one element executes (exact, since kernels are
    /// straight-line).
    pub fn counts_per_element(&self) -> &OpCounts {
        &self.counts
    }

    /// Executes the kernel once and returns outputs plus operation counts — the
    /// drop-in equivalent of [`interp::run`](crate::interp::run), run as a
    /// one-lane block.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::ArgumentCount`] or [`InterpError::InputTooWide`] on
    /// bad inputs (all other failure modes were ruled out at compile time).
    pub fn run(&self, inputs: &[u64]) -> Result<RunResult, InterpError> {
        if inputs.len() != self.params.len() {
            return Err(InterpError::ArgumentCount {
                expected: self.params.len(),
                got: inputs.len(),
            });
        }
        let mut outputs = vec![0; self.outputs.len()];
        self.run_elements(1, inputs, &mut self.block_scratch(), &mut outputs)?;
        Ok(RunResult {
            outputs,
            counts: self.counts.clone(),
        })
    }

    /// Executes the kernel over a whole batch, [`LANE_BLOCK`] elements at a time
    /// on one frame.
    ///
    /// `inputs` is row-major: element `i`'s parameters occupy
    /// `inputs[i * param_count .. (i + 1) * param_count]`. Outputs are returned
    /// row-major in the same element order, and `counts` aggregates the operations
    /// of every element (per-element counts × batch size).
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::ArgumentCount`] if `inputs.len()` is not a multiple
    /// of the parameter count, or [`InterpError::InputTooWide`] for any bad element
    /// input.
    pub fn run_batch(&self, inputs: &[u64]) -> Result<BatchRunResult, InterpError> {
        let p = self.params.len().max(1);
        if inputs.len() % p != 0 {
            return Err(InterpError::ArgumentCount {
                expected: p,
                got: inputs.len() % p,
            });
        }
        let elements = if self.params.is_empty() {
            0
        } else {
            inputs.len() / p
        };
        let mut outputs = vec![0; elements * self.outputs.len()];
        self.run_elements(elements, inputs, &mut self.block_scratch(), &mut outputs)?;
        Ok(BatchRunResult {
            elements,
            outputs_per_element: self.outputs.len(),
            outputs,
            counts: self.counts.scaled(elements as u64),
        })
    }

    /// Executes `n` elements of an element-major batch on the caller's frame:
    /// element `e`'s parameters are `inputs[e * param_count .. (e + 1) * param_count]`
    /// and its outputs land in `out[e * output_count .. (e + 1) * output_count]`.
    /// This is the one walk over lane blocks — [`Self::run_lanes`] with a strided
    /// gather as `fill` and a strided scatter as `sink` — under [`Self::run`],
    /// [`Self::run_batch`] and each worker range of the batch launcher.
    ///
    /// # Errors
    ///
    /// See [`Self::run_lanes`].
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len() != n * param_count` or
    /// `out.len() != n * output_count` — a caller bug, like a mis-sliced row.
    pub fn run_elements(
        &self,
        n: usize,
        inputs: &[u64],
        scratch: &mut BlockScratch,
        out: &mut [u64],
    ) -> Result<(), InterpError> {
        let (p, oc) = (self.params.len(), self.outputs.len());
        assert_eq!(inputs.len(), n * p, "inputs must hold n parameter rows");
        assert_eq!(out.len(), n * oc, "out must hold n output rows");
        for base in (0..n).step_by(LANE_BLOCK) {
            let len = (n - base).min(LANE_BLOCK);
            let rows = &inputs[base * p..(base + len) * p];
            let outs = &mut out[base * oc..(base + len) * oc];
            self.run_lanes(
                len,
                scratch,
                |k, lanes| {
                    for (lane, row) in lanes.iter_mut().zip(rows.chunks_exact(p)) {
                        *lane = row[k];
                    }
                },
                |j, lanes| {
                    for (row, &v) in outs.chunks_exact_mut(oc).zip(lanes) {
                        row[j] = v;
                    }
                },
            )?;
        }
        Ok(())
    }

    /// Creates a reusable lane-block frame for [`Self::run_lanes`].
    pub fn block_scratch(&self) -> BlockScratch {
        let mut scratch = BlockScratch::default();
        self.preload_block(&mut scratch);
        scratch
    }

    /// Executes the kernel over `n` elements (`n ≤ LANE_BLOCK`) in lock-step
    /// lanes: every bytecode instruction runs across all `n` lanes before the
    /// next instruction dispatches, so the per-instruction dispatch is amortized
    /// over the whole block — the difference that makes generated fused kernels
    /// competitive with hand-written loops on wide batches.
    ///
    /// `fill(p, lanes)` must write parameter `p`'s value for each of the `n`
    /// elements into `lanes` (for row-major planes this is a contiguous row
    /// copy, not a per-element gather). `sink(j, lanes)` receives output `j`'s
    /// `n` values after execution.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::InputTooWide`] if any filled lane exceeds its
    /// parameter's declared width, and [`InterpError::InputAboveBound`] if one
    /// is above its parameter's declared bound.
    ///
    /// # Panics
    ///
    /// Panics if `n > LANE_BLOCK`.
    pub fn run_lanes<F, S>(
        &self,
        n: usize,
        scratch: &mut BlockScratch,
        mut fill: F,
        mut sink: S,
    ) -> Result<(), InterpError>
    where
        F: FnMut(usize, &mut [u64]),
        S: FnMut(usize, &[u64]),
    {
        assert!(
            n <= LANE_BLOCK,
            "lane block holds at most {LANE_BLOCK} elements"
        );
        if scratch.tag != self.id {
            self.preload_block(scratch);
        }
        for (idx, p) in self.params.iter().enumerate() {
            let base = p.slot as usize * LANE_BLOCK;
            let lanes = &mut scratch.regs[base..base + n];
            fill(idx, lanes);
            // Branch-free folds over the lanes: every input against the
            // bound, or every input's bits against the width.
            let refused = match p.bound {
                Some(bound) => any_above(lanes, bound.min(mask64(p.bits))),
                None => p.bits < 64 && lanes.iter().fold(0, |m, &v| m | v) >> p.bits != 0,
            };
            if refused {
                return Err(self.input_error(idx, lanes));
            }
        }
        self.exec_lanes(scratch, n);
        for (j, o) in self.outputs.iter().enumerate() {
            let base = *o as usize * LANE_BLOCK;
            sink(j, &scratch.regs[base..base + n]);
        }
        Ok(())
    }

    /// The interpreter's error for parameter `idx` given refused `lanes`: the
    /// width test first, then the bound.
    #[cold]
    fn input_error(&self, idx: usize, lanes: &[u64]) -> InterpError {
        let p = &self.params[idx];
        let var = self.param_names[idx].clone();
        if lanes.iter().any(|&v| v > mask64(p.bits)) {
            InterpError::InputTooWide { var }
        } else {
            InterpError::InputAboveBound {
                var,
                bound: p
                    .bound
                    .expect("only a bound refuses an input that fits its width"),
            }
        }
    }

    /// Sizes a block frame for this kernel and broadcasts the constant
    /// registers across their lanes.
    fn preload_block(&self, scratch: &mut BlockScratch) {
        scratch.regs.clear();
        scratch.regs.resize(self.n_regs * LANE_BLOCK, 0);
        for (k, &c) in self.const_values.iter().enumerate() {
            let base = (self.const_base + k) * LANE_BLOCK;
            scratch.regs[base..base + LANE_BLOCK].fill(c);
        }
        scratch.tag = self.id;
    }

    /// The bytecode execution loop — the only one: one instruction dispatch per
    /// block, a tight `0..n` lane loop per instruction, no lookups, no `Option`s,
    /// no allocation. The tree interpreter is its oracle: the tests here and the
    /// crosscheck suites compare the two element by element.
    ///
    /// The arms the RNS chain kernels run (`MacReduceMod`, `SubMod`, `Select`,
    /// `Lt`) zip the source registers' lane slices into `out`, a block-sized
    /// buffer, and copy it to the destination register (which may be one of
    /// the sources), so their lane loops carry no index checks; their
    /// data-dependent choices are masks, not branches. `Copy` moves its lanes
    /// with one `copy_within`.
    fn exec_lanes(&self, scratch: &mut BlockScratch, n: usize) {
        const B: usize = LANE_BLOCK;
        let consts_from = self.const_base;
        let regs = &mut scratch.regs;
        // Shared accumulator lanes for `MacReduceMod`'s `u128` arm (first pair
        // assigns, so stale values between instructions are never read).
        let mut accs = [0u128; LANE_BLOCK];
        let mut buf = [0u64; LANE_BLOCK];
        let out = &mut buf[..n];
        for op in &self.code {
            match op {
                Code::Copy { d, s } => {
                    let db = d.reg as usize * B;
                    regs.copy_within(*s as usize * B..*s as usize * B + n, db);
                    if d.mask != u64::MAX {
                        regs[db..db + n].iter_mut().for_each(|v| *v &= d.mask);
                    }
                }
                Code::AddWide {
                    carry,
                    sum,
                    a,
                    b,
                    cin,
                    sum_bits,
                } => {
                    let (cb, sb) = (carry.reg as usize * B, sum.reg as usize * B);
                    let (ab, bb, ib) = (*a as usize * B, *b as usize * B, *cin as usize * B);
                    for e in 0..n {
                        let t = regs[ab + e] as u128 + regs[bb + e] as u128 + regs[ib + e] as u128;
                        regs[cb + e] = ((t >> sum_bits) as u64) & carry.mask;
                        regs[sb + e] = (t as u64) & sum.mask;
                    }
                }
                Code::Sub { d, a, b, bin } => {
                    let (db, ab, bb, ib) = (
                        d.reg as usize * B,
                        *a as usize * B,
                        *b as usize * B,
                        *bin as usize * B,
                    );
                    for e in 0..n {
                        let t = regs[ab + e]
                            .wrapping_sub(regs[bb + e])
                            .wrapping_sub(regs[ib + e]);
                        regs[db + e] = t & d.mask;
                    }
                }
                Code::MulWide {
                    hi,
                    lo,
                    a,
                    b,
                    lo_bits,
                } => {
                    let (hb, lb) = (hi.reg as usize * B, lo.reg as usize * B);
                    let (ab, bb) = (*a as usize * B, *b as usize * B);
                    for e in 0..n {
                        let p = regs[ab + e] as u128 * regs[bb + e] as u128;
                        regs[hb + e] = ((p >> lo_bits) as u64) & hi.mask;
                        regs[lb + e] = (p as u64) & lo.mask;
                    }
                }
                Code::MulLow { d, a, b } => {
                    let (db, ab, bb) = (d.reg as usize * B, *a as usize * B, *b as usize * B);
                    for e in 0..n {
                        regs[db + e] = regs[ab + e].wrapping_mul(regs[bb + e]) & d.mask;
                    }
                }
                Code::Lt { d, a, b } => {
                    for ((o, &a), &b) in out
                        .iter_mut()
                        .zip(lanes(regs, *a, n))
                        .zip(lanes(regs, *b, n))
                    {
                        *o = (a < b) as u64;
                    }
                    store(regs, d.reg, out);
                }
                Code::Eq { d, a, b } => {
                    let (db, ab, bb) = (d.reg as usize * B, *a as usize * B, *b as usize * B);
                    for e in 0..n {
                        regs[db + e] = (regs[ab + e] == regs[bb + e]) as u64;
                    }
                }
                Code::BoolAnd { d, a, b } => {
                    let (db, ab, bb) = (d.reg as usize * B, *a as usize * B, *b as usize * B);
                    for e in 0..n {
                        regs[db + e] = (regs[ab + e] != 0 && regs[bb + e] != 0) as u64;
                    }
                }
                Code::BoolOr { d, a, b } => {
                    let (db, ab, bb) = (d.reg as usize * B, *a as usize * B, *b as usize * B);
                    for e in 0..n {
                        regs[db + e] = (regs[ab + e] != 0 || regs[bb + e] != 0) as u64;
                    }
                }
                Code::Select {
                    d,
                    cond,
                    if_true,
                    if_false,
                } => {
                    let arms = lanes(regs, *if_true, n)
                        .iter()
                        .zip(lanes(regs, *if_false, n));
                    for ((o, &c), (&t, &f)) in out.iter_mut().zip(lanes(regs, *cond, n)).zip(arms) {
                        *o = (f ^ ((t ^ f) & all_ones_if(c != 0))) & d.mask;
                    }
                    store(regs, d.reg, out);
                }
                Code::ShrMulti(op) => {
                    // A limb shift plus one funnel shift per destination word,
                    // as the emitters spell it; the interpreter's bit walk is
                    // the oracle. Every source word's lanes are staged first —
                    // destinations may alias sources — least-significant word
                    // first and masked to the word width, which a constant word
                    // may exceed. `max(1)`: a zero-width word masks to zero and
                    // must not divide by it.
                    let wb = op.word_bits.max(1) as usize;
                    let wmask = mask64(op.word_bits);
                    let nw = op.words.len();
                    let shr = &mut scratch.shr;
                    shr.clear();
                    for w in op.words.iter().rev() {
                        let sb = *w as usize * B;
                        shr.extend(regs[sb..sb + n].iter().map(|&v| v & wmask));
                    }
                    for (k, dst) in op.dsts.iter().rev().enumerate() {
                        let off = op.shift as usize + k * wb;
                        let (idx, r) = (off / wb, off % wb);
                        let db = dst.reg as usize * B;
                        let out = &mut regs[db..db + n];
                        if idx >= nw {
                            out.fill(0);
                        } else if r == 0 || idx + 1 == nw {
                            for (o, &lo) in out.iter_mut().zip(&shr[idx * n..]) {
                                *o = (lo >> r) & dst.mask;
                            }
                        } else {
                            let (lo, hi) = shr[idx * n..].split_at(n);
                            let mask = wmask & dst.mask;
                            for ((o, &lo), &hi) in out.iter_mut().zip(lo).zip(hi) {
                                *o = ((lo >> r) | (hi << (wb - r))) & mask;
                            }
                        }
                    }
                }
                Code::AddMod { d, a, b, q } => {
                    let (db, ab, bb, qb) = (
                        d.reg as usize * B,
                        *a as usize * B,
                        *b as usize * B,
                        *q as usize * B,
                    );
                    for e in 0..n {
                        let v =
                            (regs[ab + e] as u128 + regs[bb + e] as u128) % (regs[qb + e] as u128);
                        regs[db + e] = (v as u64) & d.mask;
                    }
                }
                Code::SubMod { d, a, b, q } => {
                    let operands = lanes(regs, *a, n).iter().zip(lanes(regs, *b, n));
                    for ((o, (&a, &b)), &q) in out.iter_mut().zip(operands).zip(lanes(regs, *q, n))
                    {
                        // `a < b` leaves `a + q − b < q`: exact in one word.
                        let (v, borrow) = a.overflowing_sub(b);
                        *o = v.wrapping_add(q & all_ones_if(borrow)) & d.mask;
                    }
                    store(regs, d.reg, out);
                }
                Code::MulModBarrett { d, a, b, q } => {
                    let (db, ab, bb, qb) = (
                        d.reg as usize * B,
                        *a as usize * B,
                        *b as usize * B,
                        *q as usize * B,
                    );
                    for e in 0..n {
                        let v =
                            (regs[ab + e] as u128 * regs[bb + e] as u128) % (regs[qb + e] as u128);
                        regs[db + e] = (v as u64) & d.mask;
                    }
                }
                Code::MulAddMod { d, a, b, c, q } => {
                    let (db, ab, bb) = (d.reg as usize * B, *a as usize * B, *b as usize * B);
                    let (cb, qb) = (*c as usize * B, *q as usize * B);
                    for e in 0..n {
                        let v = (regs[ab + e] as u128 * regs[bb + e] as u128
                            + regs[cb + e] as u128)
                            % (regs[qb + e] as u128);
                        regs[db + e] = (v as u64) & d.mask;
                    }
                }
                Code::MacReduceMod(op) => {
                    let mask = op.d.mask;
                    match &op.arm {
                        MacArm::Reduced { x } => {
                            for (o, &x) in out.iter_mut().zip(lanes(regs, *x, n)) {
                                *o = x & mask;
                            }
                        }
                        MacArm::CondSub { x } => {
                            let q = op.q;
                            for (o, &x) in out.iter_mut().zip(lanes(regs, *x, n)) {
                                let (r, borrow) = x.overflowing_sub(q);
                                *o = r.wrapping_add(q & all_ones_if(borrow)) & mask;
                            }
                        }
                        MacArm::Word1 { a, b, barrett } => {
                            let terms = lanes(regs, *a, n).iter().zip(lanes(regs, *b, n));
                            for (o, (&a, &b)) in out.iter_mut().zip(terms) {
                                *o = barrett.reduce_word(a * b) & mask;
                            }
                        }
                        MacArm::Word1K { a, k, barrett } => {
                            for (o, &a) in out.iter_mut().zip(lanes(regs, *a, n)) {
                                *o = barrett.reduce_word(a * k) & mask;
                            }
                        }
                        MacArm::Word2 { a, b, barrett } => {
                            let first = lanes(regs, a[0], n).iter().zip(lanes(regs, b[0], n));
                            let second = lanes(regs, a[1], n).iter().zip(lanes(regs, b[1], n));
                            for (o, ((&a0, &b0), (&a1, &b1))) in
                                out.iter_mut().zip(first.zip(second))
                            {
                                *o = barrett.reduce_word(a0 * b0 + a1 * b1) & mask;
                            }
                        }
                        MacArm::Word2K { a, k, barrett } => {
                            let [k0, k1] = *k;
                            let terms = lanes(regs, a[0], n).iter().zip(lanes(regs, a[1], n));
                            for (o, (&a0, &a1)) in out.iter_mut().zip(terms) {
                                *o = barrett.reduce_word(a0 * k0 + a1 * k1) & mask;
                            }
                        }
                        MacArm::Wide { pairs, barrett } => {
                            // Pairs outer, lanes inner: each pair's register
                            // bases are resolved once per block, and the inner
                            // multiply-accumulate zips contiguous lane slices.
                            // A constant operand — a fused cross-basis
                            // coefficient, say — is read once as a scalar
                            // instead of streaming its broadcast lanes. The
                            // first pair *assigns*, so the accumulators need no
                            // per-instruction zeroing. The validator bounds
                            // Σᵢ aᵢ·bᵢ by the operand widths, so they cannot
                            // wrap.
                            let accs = &mut accs[..n];
                            if pairs.is_empty() {
                                accs.fill(0);
                            }
                            for (i, &(a, b)) in pairs.iter().enumerate() {
                                // Put a constant operand on the scalar side.
                                let (va, vb) = if (a as usize) >= consts_from {
                                    (b, a)
                                } else {
                                    (a, b)
                                };
                                let first = i == 0;
                                if (vb as usize) >= consts_from {
                                    let bv = regs[vb as usize * B] as u128;
                                    for (acc, &av) in accs.iter_mut().zip(lanes(regs, va, n)) {
                                        let p = av as u128 * bv;
                                        *acc = if first { p } else { *acc + p };
                                    }
                                } else {
                                    let terms = lanes(regs, va, n).iter().zip(lanes(regs, vb, n));
                                    for (acc, (&av, &bv)) in accs.iter_mut().zip(terms) {
                                        let p = av as u128 * bv as u128;
                                        *acc = if first { p } else { *acc + p };
                                    }
                                }
                            }
                            match barrett {
                                Some(barrett) => {
                                    for (o, &acc) in out.iter_mut().zip(&*accs) {
                                        *o = barrett.reduce_wide(acc) & mask;
                                    }
                                }
                                None => {
                                    for (o, &acc) in out.iter_mut().zip(&*accs) {
                                        *o = (acc % op.q as u128) as u64 & mask;
                                    }
                                }
                            }
                        }
                    }
                    store(regs, op.d.reg, out);
                }
            }
        }
    }
}

/// True when some lane is above `limit`, as an OR-fold over the lanes with no
/// branch and no compare: plain 64-bit SIMD arithmetic, even where the target
/// has no unsigned 64-bit compare or max. The top bit of the fold is the borrow
/// out of `limit − v` for some lane; below `2^63` that borrow is the top bit of
/// `v | (limit − v)`, and in general that of
/// `(!limit & v) | (!(limit ^ v) & (limit − v))`.
fn any_above(lanes: &[u64], limit: u64) -> bool {
    let borrows = if limit >> 63 == 0 {
        lanes
            .iter()
            .fold(0, |acc, &v| acc | v | limit.wrapping_sub(v))
    } else {
        lanes.iter().fold(0, |acc, &v| {
            acc | (!limit & v) | (!(limit ^ v) & limit.wrapping_sub(v))
        })
    };
    borrows >> 63 != 0
}

/// `u64::MAX` if `c`, else 0: the mask that picks between two lane values
/// without a branch, which random data would mispredict half the time.
fn all_ones_if(c: bool) -> u64 {
    (c as u64).wrapping_neg()
}

/// Lanes `..n` of register `r`.
fn lanes(regs: &[u64], r: Src, n: usize) -> &[u64] {
    let base = r as usize * LANE_BLOCK;
    &regs[base..base + n]
}

/// Writes `out` to the lanes of register `r`.
fn store(regs: &mut [u64], r: u32, out: &[u64]) {
    let base = r as usize * LANE_BLOCK;
    regs[base..base + out.len()].copy_from_slice(out);
}

/// Hands out process-unique kernel ids, starting at 1 so the `Default` scratch tag
/// (`0`) never matches a kernel.
fn next_kernel_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Result of one batched execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRunResult {
    /// Number of elements executed.
    pub elements: usize,
    /// Outputs per element (the kernel's output arity).
    pub outputs_per_element: usize,
    /// Row-major outputs: element `i`'s outputs occupy
    /// `outputs[i * outputs_per_element .. (i + 1) * outputs_per_element]`.
    pub outputs: Vec<u64>,
    /// Total operations executed across the batch.
    pub counts: OpCounts,
}

impl BatchRunResult {
    /// The outputs of element `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.elements`.
    pub fn element(&self, i: usize) -> &[u64] {
        let w = self.outputs_per_element;
        &self.outputs[i * w..(i + 1) * w]
    }
}

fn mask64(bits: u32) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

/// Linear-scan register allocation over a straight-line kernel.
///
/// Walks the body once, assigning each live variable a dense slot and recycling a
/// slot as soon as its variable's last read has executed. Because the code is
/// straight-line, liveness is exact: a variable is live from its (re)definition to
/// its final read (outputs are live to the end).
struct RegAlloc {
    /// Slot each variable holds at its defining write (for parameters: at entry).
    slot_at_def: Vec<Option<u32>>,
    /// Per-statement read map: variable → slot at that statement.
    slot_at_use: Vec<std::collections::HashMap<VarId, u32>>,
    /// Per-statement write map: variable → slot assigned for that write.
    slot_at_write: Vec<std::collections::HashMap<VarId, u32>>,
    output_slots: Vec<u32>,
    n_regs: usize,
}

impl RegAlloc {
    fn run(kernel: &Kernel) -> Result<RegAlloc, InterpError> {
        use std::collections::HashMap;

        // Last statement index that reads each variable (outputs never expire).
        let mut last_read: Vec<Option<usize>> = vec![None; kernel.vars.len()];
        for (i, stmt) in kernel.body.iter().enumerate() {
            for o in stmt.op.operands() {
                if let Some(v) = o.as_var() {
                    last_read[v.0] = Some(i);
                }
            }
        }
        let is_output: Vec<bool> = {
            let mut f = vec![false; kernel.vars.len()];
            for o in &kernel.outputs {
                f[o.0] = true;
            }
            f
        };

        let mut current: Vec<Option<u32>> = vec![None; kernel.vars.len()];
        let mut slot_at_def: Vec<Option<u32>> = vec![None; kernel.vars.len()];
        let mut free: Vec<u32> = Vec::new();
        let mut n_regs: u32 = 0;
        let mut allocate = |free: &mut Vec<u32>| -> u32 {
            free.pop().unwrap_or_else(|| {
                n_regs += 1;
                n_regs - 1
            })
        };

        for p in &kernel.params {
            let slot = allocate(&mut free);
            current[p.0] = Some(slot);
            slot_at_def[p.0] = Some(slot);
        }

        let mut slot_at_use = Vec::with_capacity(kernel.body.len());
        let mut slot_at_write = Vec::with_capacity(kernel.body.len());
        for (i, stmt) in kernel.body.iter().enumerate() {
            let mut uses = HashMap::new();
            for o in stmt.op.operands() {
                if let Some(v) = o.as_var() {
                    let slot = current[v.0].ok_or_else(|| InterpError::UseBeforeDef {
                        var: kernel.var(v).name.clone(),
                    })?;
                    uses.insert(v, slot);
                }
            }
            // Expire operands whose last read is this statement *before* assigning
            // destination slots — but only release slots that none of this
            // statement's destinations are about to keep (a destination may be the
            // same variable as an operand).
            for (&v, &slot) in &uses {
                if last_read[v.0] == Some(i) && !is_output[v.0] && !stmt.dsts.contains(&v) {
                    current[v.0] = None;
                    free.push(slot);
                }
            }
            let mut writes = HashMap::new();
            for d in &stmt.dsts {
                let slot = match current[d.0] {
                    Some(slot) => slot,
                    None => {
                        let slot = allocate(&mut free);
                        current[d.0] = Some(slot);
                        if slot_at_def[d.0].is_none() {
                            slot_at_def[d.0] = Some(slot);
                        }
                        slot
                    }
                };
                writes.insert(*d, slot);
                // A destination that is never read and is not an output dies
                // immediately; keep its slot live through this statement (the write
                // still happens) and recycle it afterwards.
                if !is_output[d.0] && last_read[d.0].map_or(true, |l| l <= i) {
                    current[d.0] = None;
                    free.push(slot);
                }
            }
            slot_at_use.push(uses);
            slot_at_write.push(writes);
        }

        let mut output_slots = Vec::with_capacity(kernel.outputs.len());
        for o in &kernel.outputs {
            let slot = current[o.0].ok_or_else(|| InterpError::UseBeforeDef {
                var: kernel.var(*o).name.clone(),
            })?;
            output_slots.push(slot);
        }

        Ok(RegAlloc {
            slot_at_def,
            slot_at_use,
            slot_at_write,
            output_slots,
            n_regs: n_regs as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{interp, KernelBuilder, Ty};

    fn modops_kernel() -> Kernel {
        let mut kb = KernelBuilder::new("modops");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let q = kb.param("q", Ty::UInt(64));
        let s = kb.output("s", Ty::UInt(64));
        let d = kb.output("d", Ty::UInt(64));
        let p = kb.output("p", Ty::UInt(64));
        kb.push(
            vec![s],
            Op::AddMod {
                a: a.into(),
                b: b.into(),
                q: q.into(),
            },
        );
        kb.push(
            vec![d],
            Op::SubMod {
                a: a.into(),
                b: b.into(),
                q: q.into(),
            },
        );
        kb.push(
            vec![p],
            Op::MulModBarrett {
                a: a.into(),
                b: b.into(),
                q: q.into(),
                mu: Operand::Const(0),
                mbits: 7,
            },
        );
        kb.build()
    }

    #[test]
    fn matches_interpreter_on_modops() {
        let k = modops_kernel();
        let c = CompiledKernel::compile(&k).unwrap();
        for inputs in [[90u64, 95, 101], [0, 0, 7], [100, 3, 101]] {
            assert_eq!(c.run(&inputs).unwrap(), interp::run(&k, &inputs).unwrap());
        }
    }

    #[test]
    fn muladdmod_matches_interpreter_and_chains() {
        // A two-step multiply-accumulate chain: acc = (a·c0) mod q, then
        // out = (b·c1 + acc) mod q — the shape of the generated base-extension
        // kernels, with the constants interned into preloaded registers.
        let mut kb = KernelBuilder::new("mac_chain");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let acc = kb.local("acc", Ty::UInt(64));
        let out = kb.output("out", Ty::UInt(64));
        let q = 101u64;
        kb.push(
            vec![acc],
            Op::MulAddMod {
                a: a.into(),
                b: Operand::Const(7),
                c: Operand::Const(0),
                q: Operand::Const(q),
                mu: Operand::Const(0),
                mbits: 7,
            },
        );
        kb.push(
            vec![out],
            Op::MulAddMod {
                a: b.into(),
                b: Operand::Const(13),
                c: acc.into(),
                q: Operand::Const(q),
                mu: Operand::Const(0),
                mbits: 7,
            },
        );
        let k = kb.build();
        let c = CompiledKernel::compile(&k).unwrap();
        for inputs in [[0u64, 0], [100, 100], [u64::MAX, u64::MAX], [17, 91]] {
            let fast = c.run(&inputs).unwrap();
            assert_eq!(fast, interp::run(&k, &inputs).unwrap());
            let expected =
                ((inputs[1] as u128 * 13 + (inputs[0] as u128 * 7) % q as u128) % q as u128) as u64;
            assert_eq!(fast.outputs, vec![expected]);
        }
        assert_eq!(c.run(&[1, 1]).unwrap().counts.get("macmod"), 2);
    }

    #[test]
    fn macreduce_matches_interpreter_across_wide_accumulators() {
        // Three-term accumulation over 56-bit operands: the u128 accumulator
        // exceeds 2^64, exercising the radix-fold path of the division-free
        // reduction.
        let q = (1u64 << 52) - 47;
        let mut kb = KernelBuilder::new("macreduce3");
        let a = kb.param("a", Ty::UInt(56));
        let b = kb.param("b", Ty::UInt(56));
        let out = kb.output("out", Ty::UInt(64));
        kb.push(
            vec![out],
            Op::MacReduceMod {
                pairs: vec![
                    (a.into(), b.into()),
                    (a.into(), Operand::Const(7)),
                    (b.into(), b.into()),
                ],
                q,
            },
        );
        let k = kb.build();
        let c = CompiledKernel::compile(&k).unwrap();
        let m = (1u64 << 56) - 1;
        for inputs in [[0u64, 0], [m, m], [m, 1], [12345, 987654321]] {
            let fast = c.run(&inputs).unwrap();
            assert_eq!(fast, interp::run(&k, &inputs).unwrap());
            let (a, b) = (inputs[0] as u128, inputs[1] as u128);
            let expected = ((a * b + a * 7 + b * b) % q as u128) as u64;
            assert_eq!(fast.outputs, vec![expected]);
        }
        let counts = c.run(&[1, 1]).unwrap().counts;
        assert_eq!(counts.get("macreduce"), 3);
        assert_eq!(counts.get("reducewide"), 1);
    }

    #[test]
    fn run_lanes_matches_per_element_run() {
        // The lane-block executor must be element-wise identical to the tree
        // interpreter run once per element, including the constant-operand
        // scalar fast path in `MacReduceMod` (the `Const(7)` / `Const(11)` pairs
        // below) and partial trailing blocks. One scratch frame is reused
        // across block sizes to exercise the preload tag as well.
        let q = (1u64 << 52) - 47;
        let mut kb = KernelBuilder::new("lanes_mix");
        let a = kb.param("a", Ty::UInt(52));
        let b = kb.param("b", Ty::UInt(52));
        let t = kb.local("t", Ty::UInt(64));
        let s = kb.output("s", Ty::UInt(64));
        let out = kb.output("out", Ty::UInt(64));
        kb.push(
            vec![t],
            Op::MacReduceMod {
                pairs: vec![(a.into(), b.into()), (a.into(), Operand::Const(7))],
                q,
            },
        );
        kb.push(
            vec![s],
            Op::AddMod {
                a: t.into(),
                b: b.into(),
                q: Operand::Const(q),
            },
        );
        kb.push(
            vec![out],
            Op::MacReduceMod {
                pairs: vec![(t.into(), Operand::Const(11)), (s.into(), s.into())],
                q,
            },
        );
        let k = kb.build();
        let c = CompiledKernel::compile(&k).unwrap();
        let vals = |seed: u64, n: usize| -> Vec<u64> {
            let mut x = seed;
            (0..n)
                .map(|_| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    x % q
                })
                .collect()
        };
        let mut scratch = c.block_scratch();
        for n in [1usize, 37, LANE_BLOCK] {
            let a_vals = vals(0x9e37 ^ n as u64, n);
            let b_vals = vals(0x79b9 ^ n as u64, n);
            let mut got = vec![Vec::new(); 2];
            c.run_lanes(
                n,
                &mut scratch,
                |p, lanes| {
                    let src = if p == 0 { &a_vals } else { &b_vals };
                    lanes.copy_from_slice(&src[..lanes.len()]);
                },
                |j, lanes| got[j] = lanes.to_vec(),
            )
            .unwrap();
            for e in 0..n {
                let one = interp::run(&k, &[a_vals[e], b_vals[e]]).unwrap();
                assert_eq!(
                    vec![got[0][e], got[1][e]],
                    one.outputs,
                    "element {e} of block {n}"
                );
            }
        }
    }

    #[test]
    fn macreduce_falls_back_to_exact_division_for_wide_moduli() {
        // mbits > 60 is outside the single-word Barrett domain; the compiled
        // executor must fall back to `%` and still match the interpreter.
        let q = u64::MAX - 58;
        let mut kb = KernelBuilder::new("macreduce_wideq");
        let a = kb.param("a", Ty::UInt(64));
        let out = kb.output("out", Ty::UInt(64));
        kb.push(
            vec![out],
            Op::MacReduceMod {
                pairs: vec![(a.into(), Operand::Const(3))],
                q,
            },
        );
        let k = kb.build();
        let c = CompiledKernel::compile(&k).unwrap();
        for a in [0u64, 1, q - 1, u64::MAX] {
            let fast = c.run(&[a]).unwrap();
            assert_eq!(fast, interp::run(&k, &[a]).unwrap());
            assert_eq!(fast.outputs, vec![((a as u128 * 3) % q as u128) as u64]);
        }
    }

    #[test]
    fn macreduce_closing_reduction_at_the_edges_of_the_barrett_domain() {
        // (modulus, reduces through SingleBarrett): 2^60 − 93 is the widest
        // Barrett modulus, 2^60 + 33 the first on the `%` path.
        let moduli = [
            (2u64, true),
            (3, true),
            ((1 << 32) - 5, true),
            ((1 << 32) + 15, true),
            ((1 << 60) - 93, true),
            ((1 << 60) + 33, false),
            (u64::MAX - 58, false),
        ];
        // (operand width, most pairs): three products of 64-bit words can wrap
        // the 128-bit accumulator, so all-ones at 64 bits runs one pair.
        for (q, barrett) in moduli {
            for (width, max_pairs) in [(56u32, 3usize), (64, 1)] {
                let ones = u64::MAX >> (64 - width);
                let values: Vec<u64> = [0, 1, q - 1, ones]
                    .into_iter()
                    .filter(|&v| v <= ones)
                    .collect();
                for pairs in 1..=max_pairs {
                    let mut kb = KernelBuilder::new("macreduce_edges");
                    let params: Vec<VarId> = (0..2 * pairs)
                        .map(|i| kb.param(format!("x{i}"), Ty::UInt(width)))
                        .collect();
                    let out = kb.output("out", Ty::UInt(64));
                    let terms = params.chunks(2).map(|p| (p[0].into(), p[1].into()));
                    kb.push(
                        vec![out],
                        Op::MacReduceMod {
                            pairs: terms.collect(),
                            q,
                        },
                    );
                    let k = kb.build();
                    let c = CompiledKernel::compile(&k).unwrap();
                    let Code::MacReduceMod(op) = &c.code[0] else {
                        panic!("one accumulation instruction");
                    };
                    let MacArm::Wide {
                        barrett: closing, ..
                    } = &op.arm
                    else {
                        panic!("unbounded {width}-bit products accumulate in u128");
                    };
                    assert_eq!(closing.is_some(), barrett, "q={q}");
                    for row in 0..values.len().pow(2 * pairs as u32) {
                        let inputs: Vec<u64> = (0..2 * pairs)
                            .map(|i| values[row / values.len().pow(i as u32) % values.len()])
                            .collect();
                        let sum: u128 = inputs.chunks(2).map(|p| p[0] as u128 * p[1] as u128).sum();
                        let fast = c.run(&inputs).unwrap();
                        assert_eq!(fast, interp::run(&k, &inputs).unwrap(), "q={q} {inputs:?}");
                        assert_eq!(fast.outputs, vec![(sum % q as u128) as u64], "q={q}");
                    }
                }
            }
        }
    }

    #[test]
    fn scratch_tag_skips_stale_constant_reload_only_for_same_kernel() {
        // A block frame carried from kernel A to kernel B must be refilled with
        // B's constants (different id), while reuse under one kernel keeps them.
        let build = |name: &str, k: u64| {
            let mut kb = KernelBuilder::new(name);
            let a = kb.param("a", Ty::UInt(64));
            let o = kb.output("o", Ty::UInt(64));
            kb.push(
                vec![o],
                Op::MulLow {
                    a: a.into(),
                    b: Operand::Const(k),
                },
            );
            let kernel = kb.build();
            let compiled = CompiledKernel::compile(&kernel).unwrap();
            (kernel, compiled)
        };
        let times3 = build("times3", 3);
        let times5 = build("times5", 5);
        let mut scratch = times3.1.block_scratch();
        for ((kernel, compiled), input) in [(&times3, 10), (&times5, 10), (&times3, 11)] {
            let mut out = [0];
            compiled
                .run_elements(1, &[input], &mut scratch, &mut out)
                .unwrap();
            assert_eq!(out[..], interp::run(kernel, &[input]).unwrap().outputs);
        }
    }

    #[test]
    fn add_with_carry_and_flag_masking() {
        let mut kb = KernelBuilder::new("add64");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let carry = kb.output("carry", Ty::Flag);
        let sum = kb.output("sum", Ty::UInt(64));
        kb.push(
            vec![carry, sum],
            Op::AddWide {
                a: a.into(),
                b: b.into(),
                carry_in: None,
            },
        );
        let k = kb.build();
        let c = CompiledKernel::compile(&k).unwrap();
        assert_eq!(c.run(&[u64::MAX, 1]).unwrap().outputs, vec![1, 0]);
        assert_eq!(c.run(&[2, 3]).unwrap().outputs, vec![0, 5]);
        assert_eq!(c.run(&[2, 3]).unwrap().counts.total(), 1);
    }

    /// Runs 129 elements of `k` through `run` (each) and through `run_batch` at
    /// sizes on both sides of a block boundary, and compares every element with
    /// the tree interpreter.
    fn assert_matches_interp_across_blocks(k: &Kernel, what: &str) {
        let c = CompiledKernel::compile(k).unwrap();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let rows: Vec<Vec<u64>> = (0..LANE_BLOCK + 1)
            .map(|_| {
                let draw = |p: &VarId| {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    (x ^ x >> 31) & mask64(k.ty(*p).bits())
                };
                k.params.iter().map(draw).collect()
            })
            .collect();
        let oracle: Vec<Vec<u64>> = rows
            .iter()
            .map(|row| interp::run(k, row).unwrap().outputs)
            .collect();
        for (e, row) in rows.iter().enumerate() {
            assert_eq!(
                c.run(row).unwrap().outputs,
                oracle[e],
                "{what}: run, element {e}"
            );
        }
        for n in [1, LANE_BLOCK - 1, LANE_BLOCK, LANE_BLOCK + 1] {
            let batch = c.run_batch(&rows[..n].concat()).unwrap();
            assert_eq!(batch.elements, n);
            for (e, want) in oracle[..n].iter().enumerate() {
                assert_eq!(batch.element(e), want, "{what}: batch of {n}, element {e}");
            }
        }
    }

    #[test]
    fn shr_multi_with_aliased_destinations() {
        // The executor shifts by limb plus funnel shift where the interpreter
        // walks bits. Per word width, word count and shift (including the limb
        // boundaries and shifts at or past the total width, which the validator
        // rejects but compile() does not), five shapes: as many fresh
        // destinations as words (the allocator hands them the dying sources'
        // slots), fewer destinations than words, the source variables
        // themselves as destinations in reverse order, a constant source word
        // with bits above the word width, and destinations wider than it.
        for word_bits in [64u32, 32] {
            for n_words in 2..=4usize {
                let total = word_bits * n_words as u32;
                for shift in [
                    0,
                    1,
                    word_bits - 1,
                    word_bits,
                    word_bits + 1,
                    total - 1,
                    total,
                    total + 5,
                    // The original case of this test: 100 of 128 bits.
                    100,
                ] {
                    for shape in ["fresh", "fewer", "in_place", "const_word", "wide_dsts"] {
                        let ty = Ty::UInt(word_bits);
                        let mut kb = KernelBuilder::new("shr");
                        let vars: Vec<VarId> = (0..n_words)
                            .map(|i| kb.param(format!("w{i}"), ty))
                            .collect();
                        let mut words: Vec<Operand> = vars.iter().map(|v| (*v).into()).collect();
                        if shape == "const_word" {
                            words[1] = Operand::Const(0xdead_beef_cafe_f00d);
                        }
                        let n_dsts = if shape == "fewer" {
                            n_words - 1
                        } else {
                            n_words
                        };
                        let out_ty = if shape == "wide_dsts" {
                            Ty::UInt(64)
                        } else {
                            ty
                        };
                        let outs: Vec<VarId> = (0..n_dsts)
                            .map(|i| kb.output(format!("o{i}"), out_ty))
                            .collect();
                        if shape == "in_place" {
                            let dsts: Vec<VarId> = vars.iter().rev().copied().collect();
                            kb.push(dsts.clone(), Op::ShrMulti { words, shift });
                            for (o, d) in outs.iter().zip(dsts) {
                                kb.push(vec![*o], Op::Copy { src: d.into() });
                            }
                        } else {
                            kb.push(outs, Op::ShrMulti { words, shift });
                        }
                        assert_matches_interp_across_blocks(
                            &kb.build(),
                            &format!("{shape}, {n_words} x {word_bits} bits >> {shift}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn register_reuse_shrinks_the_frame() {
        // A long chain of temporaries: t1 = a+b; t2 = t1+b; ... each ti dies as
        // soon as t(i+1) is computed, so the frame stays small.
        let mut kb = KernelBuilder::new("chain");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let mut prev = a;
        for i in 0..32 {
            let f = kb.fresh(&format!("c{i}"), Ty::Flag);
            let t = kb.fresh(&format!("t{i}"), Ty::UInt(64));
            kb.push(
                vec![f, t],
                Op::AddWide {
                    a: prev.into(),
                    b: b.into(),
                    carry_in: None,
                },
            );
            prev = t;
        }
        let o = kb.output("o", Ty::UInt(64));
        kb.push(vec![o], Op::Copy { src: prev.into() });
        let k = kb.build();
        let c = CompiledKernel::compile(&k).unwrap();
        assert!(
            c.register_count() < k.vars.len() / 4,
            "expected heavy slot reuse: {} regs for {} vars",
            c.register_count(),
            k.vars.len()
        );
        assert_eq!(c.run(&[5, 3]).unwrap(), interp::run(&k, &[5, 3]).unwrap());
    }

    #[test]
    fn batch_matches_per_element_runs() {
        let k = modops_kernel();
        let c = CompiledKernel::compile(&k).unwrap();
        let rows: Vec<[u64; 3]> = (0..50).map(|i| [i * 7 % 101, i * 13 % 101, 101]).collect();
        let flat: Vec<u64> = rows.iter().flatten().copied().collect();
        let batch = c.run_batch(&flat).unwrap();
        assert_eq!(batch.elements, 50);
        let mut total = OpCounts::new();
        for (i, row) in rows.iter().enumerate() {
            let single = interp::run(&k, row).unwrap();
            assert_eq!(batch.element(i), &single.outputs[..]);
            total = total + single.counts;
        }
        assert_eq!(batch.counts, total);
    }

    #[test]
    fn error_cases_mirror_the_interpreter() {
        let k = modops_kernel();
        let c = CompiledKernel::compile(&k).unwrap();
        assert!(matches!(
            c.run(&[1]),
            Err(InterpError::ArgumentCount {
                expected: 3,
                got: 1
            })
        ));
        assert!(matches!(
            c.run_batch(&[1, 2, 3, 4]),
            Err(InterpError::ArgumentCount { .. })
        ));

        let mut kb = KernelBuilder::new("wide");
        let a = kb.param("a", Ty::UInt(128));
        let o = kb.output("o", Ty::UInt(128));
        kb.push(vec![o], Op::Copy { src: a.into() });
        assert!(matches!(
            CompiledKernel::compile(&kb.build()),
            Err(InterpError::UnsupportedWidth { .. })
        ));

        let mut kb = KernelBuilder::new("narrow");
        let a = kb.param("a", Ty::UInt(8));
        let o = kb.output("o", Ty::UInt(8));
        kb.push(vec![o], Op::Copy { src: a.into() });
        let c = CompiledKernel::compile(&kb.build()).unwrap();
        assert_eq!(c.run(&[200]).unwrap().outputs, vec![200]);
        assert!(matches!(
            c.run(&[300]),
            Err(InterpError::InputTooWide { .. })
        ));

        // An input one above its declared bound is refused alike by the
        // interpreter, `run` and `run_batch` (at any lane of the block);
        // one at the bound is accepted.
        for bound in [100, (1 << 63) - 1, 1 << 63, u64::MAX - 1] {
            let mut kb = KernelBuilder::new("bounded");
            let a = kb.param_below("a", Ty::UInt(64), bound);
            let o = kb.output("o", Ty::UInt(64));
            kb.push(vec![o], Op::Copy { src: a.into() });
            let k = kb.build();
            let c = CompiledKernel::compile(&k).unwrap();
            let refused = Err(InterpError::InputAboveBound {
                var: "a".into(),
                bound,
            });
            assert_eq!(interp::run(&k, &[bound + 1]), refused);
            assert_eq!(c.run(&[bound + 1]), refused);
            assert_eq!(
                c.run_batch(&[0, bound, bound + 1]).map(|_| ()),
                refused.clone().map(|_| ())
            );
            assert_eq!(c.run_batch(&[u64::MAX, 0]).map(|_| ()), refused.map(|_| ()));
            assert_eq!(c.run(&[bound]).unwrap(), interp::run(&k, &[bound]).unwrap());
            assert_eq!(
                c.run_batch(&[0, 1, bound]).unwrap().outputs,
                vec![0, 1, bound]
            );
        }
    }

    /// The name of the arm the one `MacReduceMod` of `c` compiled to.
    fn mac_arm_name(c: &CompiledKernel) -> &'static str {
        let arms = c.code.iter().filter_map(|op| match op {
            Code::MacReduceMod(op) => Some(match op.arm {
                MacArm::Reduced { .. } => "Reduced",
                MacArm::CondSub { .. } => "CondSub",
                MacArm::Word1 { .. } => "Word1",
                MacArm::Word1K { .. } => "Word1K",
                MacArm::Word2 { .. } => "Word2",
                MacArm::Word2K { .. } => "Word2K",
                MacArm::Wide { .. } => "Wide",
            }),
            _ => None,
        });
        let arms: Vec<_> = arms.collect();
        assert_eq!(arms.len(), 1, "one accumulation");
        arms[0]
    }

    /// Each `MacReduceMod` arm at the edges of its choice: which arm
    /// compiles, and that it equals the interpreter on every input row built
    /// from 0, 1 and each parameter's bound (through `run` and `run_batch`).
    #[test]
    fn accumulation_arms_at_their_edges() {
        const W: u64 = 1 << 32;
        /// `(case, [(parameter bound, ...)], pairs over parameters p0.. and
        /// constants, modulus, statement before the sum, expected arm)`.
        enum T {
            P(usize),
            K(u64),
        }
        let q31 = (1u64 << 31) - 1;
        let q60 = (1u64 << 60) - 93;
        let q20 = 1_000_003u64;
        #[allow(clippy::type_complexity)]
        let cases: Vec<(&str, Vec<u64>, Vec<(T, T)>, u64, bool, &str)> = vec![
            (
                "residue product",
                vec![q31 - 1, q31 - 1],
                vec![(T::P(0), T::P(1))],
                q31,
                false,
                "Word1",
            ),
            (
                "one pair at u64::MAX",
                vec![W - 1, W + 1],
                vec![(T::P(0), T::P(1))],
                q60,
                false,
                "Word1",
            ),
            (
                "one pair at u64::MAX + 1",
                vec![W, W],
                vec![(T::P(0), T::P(1))],
                q60,
                false,
                "Wide",
            ),
            (
                "constant pair at u64::MAX",
                vec![W - 1],
                vec![(T::P(0), T::K(W + 1))],
                q60,
                false,
                "Word1K",
            ),
            (
                "constant pair at u64::MAX + 1",
                vec![W],
                vec![(T::P(0), T::K(W))],
                q60,
                false,
                "Wide",
            ),
            (
                "two pairs at u64::MAX",
                vec![W - 1, W - 1, 2 * W - 2],
                vec![(T::P(0), T::P(1)), (T::P(2), T::K(1))],
                q60,
                false,
                "Word2",
            ),
            (
                "two pairs at u64::MAX + 1",
                vec![W - 1, W - 1, 2 * W - 1],
                vec![(T::P(0), T::P(1)), (T::P(2), T::K(1))],
                q60,
                false,
                "Wide",
            ),
            (
                "two constant pairs at u64::MAX",
                vec![W - 1, 2 * W - 2],
                vec![(T::K(W - 1), T::P(0)), (T::P(1), T::K(1))],
                q60,
                false,
                "Word2K",
            ),
            (
                "two constant pairs at u64::MAX + 1",
                vec![W - 1, 2 * W - 1],
                vec![(T::K(W - 1), T::P(0)), (T::P(1), T::K(1))],
                q60,
                false,
                "Wide",
            ),
            (
                "times one below q",
                vec![q20 - 1],
                vec![(T::P(0), T::K(1))],
                q20,
                false,
                "Reduced",
            ),
            (
                "times one below 2q",
                vec![2 * q20 - 1],
                vec![(T::K(1), T::P(0))],
                q20,
                false,
                "CondSub",
            ),
            (
                "times one at 2q",
                vec![2 * q20],
                vec![(T::P(0), T::K(1))],
                q20,
                false,
                "Word1K",
            ),
            (
                "unbounded",
                vec![u64::MAX],
                vec![(T::P(0), T::K(3))],
                q60,
                false,
                "Wide",
            ),
            (
                "outside the Barrett domain",
                vec![1],
                vec![(T::P(0), T::K(3))],
                u64::MAX - 58,
                false,
                "Wide",
            ),
            // `t = (p0 − p1) mod q` with `p0 ≥ q` can reach `2q − 1`: the sum
            // `t·1` then needs the conditional subtraction.
            (
                "difference of an unreduced minuend",
                vec![2 * q20 - 1, q20 - 1],
                vec![(T::P(2), T::K(1))],
                q20,
                true,
                "CondSub",
            ),
        ];
        for (case, bounds, terms, q, submod, arm) in cases {
            let mut kb = KernelBuilder::new("arm");
            let mut ps: Vec<VarId> = bounds
                .iter()
                .enumerate()
                .map(|(i, &b)| kb.param_below(format!("p{i}"), Ty::UInt(64), b))
                .collect();
            if submod {
                let t = kb.local("t", Ty::UInt(64));
                let sub = Op::SubMod {
                    a: ps[0].into(),
                    b: ps[1].into(),
                    q: Operand::Const(q),
                };
                kb.push(vec![t], sub);
                ps.push(t);
            }
            let operand = |t: &T| match *t {
                T::P(i) => Operand::Var(ps[i]),
                T::K(k) => Operand::Const(k),
            };
            let pairs = terms
                .iter()
                .map(|(a, b)| (operand(a), operand(b)))
                .collect();
            let out = kb.output("out", Ty::UInt(64));
            kb.push(vec![out], Op::MacReduceMod { pairs, q });
            let k = kb.build();
            let c = CompiledKernel::compile(&k).unwrap();
            assert_eq!(mac_arm_name(&c), arm, "{case}");
            // Every row over {0, 1, bound} per parameter.
            let edges: Vec<[u64; 3]> = bounds.iter().map(|&b| [0, 1.min(b), b]).collect();
            let rows: Vec<Vec<u64>> = (0..3usize.pow(bounds.len() as u32))
                .map(|r| {
                    (0..bounds.len())
                        .map(|i| edges[i][r / 3usize.pow(i as u32) % 3])
                        .collect()
                })
                .collect();
            let mut oracle = Vec::new();
            for row in &rows {
                let want = interp::run(&k, row).unwrap();
                assert_eq!(c.run(row).unwrap(), want, "{case}: {row:?}");
                oracle.extend(want.outputs);
            }
            assert_eq!(
                c.run_batch(&rows.concat()).unwrap().outputs,
                oracle,
                "{case}"
            );
        }
    }

    #[test]
    fn use_before_def_is_a_compile_error() {
        let mut kb = KernelBuilder::new("ubd");
        let _a = kb.param("a", Ty::UInt(64));
        let t = kb.local("t", Ty::UInt(64));
        let o = kb.output("o", Ty::UInt(64));
        kb.push(vec![o], Op::Copy { src: t.into() });
        assert!(matches!(
            CompiledKernel::compile(&kb.build()),
            Err(InterpError::UseBeforeDef { .. })
        ));
    }

    #[test]
    fn undefined_output_is_a_compile_error() {
        let mut kb = KernelBuilder::new("noout");
        let a = kb.param("a", Ty::UInt(64));
        let t = kb.local("t", Ty::UInt(64));
        let _o = kb.output("o", Ty::UInt(64));
        kb.push(vec![t], Op::Copy { src: a.into() });
        assert!(matches!(
            CompiledKernel::compile(&kb.build()),
            Err(InterpError::UseBeforeDef { .. })
        ));
    }
}
