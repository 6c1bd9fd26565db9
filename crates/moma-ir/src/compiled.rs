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
//! * **Operands read where they live** — like a generated kernel's thread,
//!   which reads its operands from device memory and writes its results back,
//!   every instruction reads each operand's lanes from one of three places:
//!   - a parameter from the caller's lanes ([`Plane::Row`] in place, or the
//!     broadcast of a [`Plane::Uniform`]);
//!   - a constant from lanes the kernel broadcasts once, at compile time;
//!   - a temporary from the register frame.
//!
//!   An output's last write, when nothing reads the output afterwards, is
//!   stored straight into the caller's output row. Parameters, constants and
//!   such outputs take no register; [`CompiledKernel::run_lanes`] copies
//!   nothing into the frame before a block runs or out of it afterwards.
//! * **Register allocation** — temporaries are linear-scan-allocated into dense
//!   `u64` slots; a slot is recycled as soon as the last read of its variable has
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
//! [`CompiledKernel::run_lanes`] walks it over the caller's planes and output
//! rows, checking each parameter's lanes on entry;
//! [`CompiledKernel::run_elements`] walks it over an element-major batch,
//! gathered block by block into a staging area of the scratch; and
//! [`CompiledKernel::run`] / [`CompiledKernel::run_batch`] are that walk over
//! one element and over a whole batch. There is no per-element frame or
//! executor.
//!
//! The interpreter remains the semantic reference: `CompiledKernel::run` is
//! observationally identical to [`interp::run`](crate::interp::run), and the test
//! suites cross-check the two on every kernel the rewrite system produces.

use crate::cost::{static_counts, OpCounts};
use crate::interp::{InterpError, RunResult};
use crate::{Kernel, Op, Operand, VarId};
use moma_mp::single::SingleBarrett;
use std::collections::HashMap;

/// A bytecode operand: where its lanes are read from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Src {
    /// A temporary: a register slot of the frame.
    Reg(u32),
    /// An interned constant: its lanes are broadcast once, at compile time.
    Const(u32),
    /// A parameter, by signature position: the caller's lanes.
    Param(u32),
}

/// Where a destination's lanes are written.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// A register slot of the frame.
    Reg(u32),
    /// The caller's row of output `j`: the output's last write, read by
    /// nothing after it.
    Out(u32),
}

/// A bytecode destination: where it is written, plus the write mask of its
/// type width.
#[derive(Debug, Clone, Copy)]
struct Dst {
    slot: Slot,
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

/// One bytecode instruction with fully resolved operand sources.
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
///   constant operand as an immediate; `Word1`/`Word2` read both operands'
///   lanes;
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
/// source; a constant that an arm takes as an immediate (or the `1` of a
/// `·1` pair) is never resolved, so it is not interned.
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
    // The pair as (lane operand, immediate) when one side is a constant.
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

/// Number of elements `exec_lanes` executes in lock-step. Sized so a typical
/// fused-kernel frame (a few dozen registers × `LANE_BLOCK` lanes × 8 bytes)
/// stays cache-resident while still amortizing instruction dispatch.
pub const LANE_BLOCK: usize = 128;

/// Where one parameter's values come from in [`CompiledKernel::run_lanes`].
#[derive(Debug, Clone, Copy)]
pub enum Plane<'a> {
    /// One value per element, read in place (and checked once per block).
    Row(&'a [u64]),
    /// One value for every element: checked once per call and broadcast
    /// once into the scratch.
    Uniform(u64),
}

/// Reusable execution state for [`CompiledKernel::run_lanes`] and
/// [`CompiledKernel::run_elements`]: one frame holding [`LANE_BLOCK`] lanes
/// per temporary register (lane-major per register, so each register's lanes
/// are one contiguous run), then one lane run per parameter (the broadcast of
/// a [`Plane::Uniform`], or `run_elements`' gathered inputs), then, for
/// `run_elements`, one per output; plus the multi-word shift staging buffer
/// (the source words' lanes, word-major). Any kernel can use any scratch: it
/// grows to the largest frame it has served and never needs clearing, since
/// every lane is written before it is read. Keep one per worker and reuse it.
#[derive(Debug, Clone, Default)]
pub struct BlockScratch {
    frame: Vec<u64>,
    shr: Vec<u64>,
}

/// A parameter's entry check: what [`CompiledKernel::run_lanes`] checks its
/// inputs against.
#[derive(Debug, Clone, Copy)]
struct Param {
    /// Declared bit-width.
    bits: u32,
    /// Declared bound ([`Kernel::bounds`]), if any.
    bound: Option<u64>,
}

impl Param {
    /// True when some lane is above this parameter's width or bound, as
    /// branch-free folds over the lanes.
    fn refuses(&self, lanes: &[u64]) -> bool {
        match self.bound {
            Some(bound) => any_above(lanes, bound.min(mask64(self.bits))),
            None => self.bits < 64 && lanes.iter().fold(0, |m, &v| m | v) >> self.bits != 0,
        }
    }
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
    /// [`Kernel::fingerprint`] of the kernel this was compiled from.
    fingerprint: u64,
    code: Vec<Code>,
    /// Each parameter's entry check, in signature order.
    params: Vec<Param>,
    /// Parameter names, for error messages only (cold path).
    param_names: Vec<String>,
    /// Number of outputs per element.
    output_count: usize,
    /// The outputs not written in place by their last write (read after it,
    /// listed twice, or never written by the body): `(source, output index)`,
    /// copied into the output's lanes after the block runs.
    tail: Vec<(Src, u32)>,
    /// Interned constant `k` ([`Src::Const`]) broadcast across lanes
    /// `k * LANE_BLOCK..`, once, at compile time.
    const_lanes: Vec<u64>,
    /// Temporary register slots in the frame.
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

        // Constants are interned by value; their lanes are broadcast below.
        let mut const_values: Vec<u64> = Vec::new();
        let mut const_map: HashMap<u64, u32> = HashMap::new();

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
                    Operand::Const(c) => Src::Const(*const_map.entry(c).or_insert_with(|| {
                        const_values.push(c);
                        (const_values.len() - 1) as u32
                    })),
                    Operand::Var(v) => alloc.reads[i][&v],
                }
            };
            let dst = |d: VarId| -> Dst {
                Dst {
                    slot: alloc.writes[i][&d],
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

        let const_lanes = const_values
            .iter()
            .flat_map(|&c| std::iter::repeat(c).take(LANE_BLOCK))
            .collect();
        Ok(CompiledKernel {
            name: kernel.name.clone(),
            fingerprint: kernel.fingerprint(),
            code,
            params: kernel
                .params
                .iter()
                .map(|p| Param {
                    bits: kernel.ty(*p).bits(),
                    bound: kernel.bounds.get(p).copied(),
                })
                .collect(),
            param_names: kernel
                .params
                .iter()
                .map(|p| kernel.var(*p).name.clone())
                .collect(),
            output_count: kernel.outputs.len(),
            tail: alloc.tail,
            const_lanes,
            n_regs: alloc.n_regs,
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

    /// Number of register slots in the execution frame: the temporaries,
    /// after linear-scan reuse (parameters, constants and outputs written in
    /// place take none).
    pub fn register_count(&self) -> usize {
        self.n_regs
    }

    /// Number of parameters expected per element.
    pub fn param_count(&self) -> usize {
        self.params.len()
    }

    /// Number of outputs produced per element.
    pub fn output_count(&self) -> usize {
        self.output_count
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
        let mut outputs = vec![0; self.output_count];
        self.run_elements(1, inputs, &mut BlockScratch::default(), &mut outputs)?;
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
        let mut outputs = vec![0; elements * self.output_count];
        self.run_elements(elements, inputs, &mut BlockScratch::default(), &mut outputs)?;
        Ok(BatchRunResult {
            elements,
            outputs_per_element: self.output_count,
            outputs,
            counts: self.counts.scaled(elements as u64),
        })
    }

    /// Executes `n` elements of an element-major batch on the caller's scratch:
    /// element `e`'s parameters are `inputs[e * param_count .. (e + 1) * param_count]`
    /// and its outputs land in `out[e * output_count .. (e + 1) * output_count]`.
    /// Each block's inputs are gathered into the scratch's parameter lanes and
    /// its outputs scattered from the scratch's output lanes. This is the walk
    /// under [`Self::run`], [`Self::run_batch`] and each worker range of the
    /// batch launcher.
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
        const B: usize = LANE_BLOCK;
        let (p, oc) = (self.params.len(), self.output_count);
        assert_eq!(inputs.len(), n * p, "inputs must hold n parameter rows");
        assert_eq!(out.len(), n * oc, "out must hold n output rows");
        let (regs, stage, staged_outs, shr) = self.frame(scratch, oc);
        for base in (0..n).step_by(B) {
            let len = (n - base).min(B);
            let rows = &inputs[base * p..(base + len) * p];
            for (k, param) in self.params.iter().enumerate() {
                let lanes = &mut stage[k * B..k * B + len];
                for (lane, row) in lanes.iter_mut().zip(rows.chunks_exact(p)) {
                    *lane = row[k];
                }
                if param.refuses(lanes) {
                    return Err(self.input_error(k, lanes));
                }
            }
            let params = |k: usize| &stage[k * B..k * B + len];
            let src = self.sources(&params, len);
            self.exec_lanes(&src, regs, shr, &mut Outs::Staged(staged_outs));
            let outs = &mut out[base * oc..(base + len) * oc];
            for j in 0..oc {
                let lanes = &staged_outs[j * B..j * B + len];
                for (row, &v) in outs.chunks_exact_mut(oc).zip(lanes) {
                    row[j] = v;
                }
            }
        }
        Ok(())
    }

    /// Executes the kernel over `n` elements in lock-step lane blocks: every
    /// bytecode instruction runs across a block of up to [`LANE_BLOCK`]
    /// elements before the next instruction dispatches, so the per-instruction
    /// dispatch is amortized over the whole block — the difference that makes
    /// generated fused kernels competitive with hand-written loops on wide
    /// batches.
    ///
    /// `plane(p)` says where parameter `p`'s `n` values are. A
    /// [`Plane::Row`] is read in place, block by block, and each block's
    /// lanes are checked before it runs; a [`Plane::Uniform`] is checked once
    /// and broadcast once into the scratch. Output `j`'s `n` values are
    /// written to `outs[j]`; an output whose last write nothing reads
    /// afterwards is stored straight into it by that instruction.
    ///
    /// # Errors
    ///
    /// Returns [`InterpError::InputTooWide`] if any parameter value exceeds its
    /// declared width, and [`InterpError::InputAboveBound`] if one is above
    /// its declared bound — the interpreter's errors. A refused uniform is
    /// reported before any row is read; otherwise the blocks before the one
    /// that holds the refused value have been written.
    ///
    /// # Panics
    ///
    /// Panics if `outs` does not hold one row per output, or a row or a
    /// [`Plane::Row`] is not `n` long — a caller bug, like a mis-sliced row.
    pub fn run_lanes<'p>(
        &self,
        n: usize,
        scratch: &mut BlockScratch,
        plane: impl Fn(usize) -> Plane<'p>,
        outs: &mut [&mut [u64]],
    ) -> Result<(), InterpError> {
        const B: usize = LANE_BLOCK;
        assert_eq!(outs.len(), self.output_count, "one row per output");
        assert!(
            outs.iter().all(|row| row.len() == n),
            "every output row holds n values"
        );
        if n == 0 {
            return Ok(());
        }
        let (regs, stage, _, shr) = self.frame(scratch, 0);
        for (k, param) in self.params.iter().enumerate() {
            match plane(k) {
                Plane::Row(row) => assert_eq!(row.len(), n, "every row plane holds n values"),
                Plane::Uniform(v) => {
                    if param.refuses(&[v]) {
                        return Err(self.input_error(k, &[v]));
                    }
                    stage[k * B..(k + 1) * B].fill(v);
                }
            }
        }
        let stage = &*stage;
        for base in (0..n).step_by(B) {
            let len = (n - base).min(B);
            for (k, param) in self.params.iter().enumerate() {
                if let Plane::Row(row) = plane(k) {
                    let lanes = &row[base..base + len];
                    if param.refuses(lanes) {
                        return Err(self.input_error(k, lanes));
                    }
                }
            }
            let params = |k: usize| match plane(k) {
                Plane::Row(row) => &row[base..base + len],
                Plane::Uniform(_) => &stage[k * B..k * B + len],
            };
            let mut outs = Outs::Rows {
                rows: &mut *outs,
                at: base,
            };
            self.exec_lanes(&self.sources(&params, len), regs, shr, &mut outs);
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

    /// The sources of a block of `n` lanes whose parameter `p` reads
    /// `params(p)`.
    fn sources<'a, 's>(
        &'a self,
        params: &'a dyn Fn(usize) -> &'s [u64],
        n: usize,
    ) -> Sources<'a, 's> {
        Sources {
            consts: &self.const_lanes,
            params,
            n,
        }
    }

    /// Splits `scratch` into this kernel's register lanes, one lane run per
    /// parameter, `outputs` lane runs, and the shift staging buffer, growing
    /// the frame if it is smaller than that.
    #[allow(clippy::type_complexity)]
    fn frame<'s>(
        &self,
        scratch: &'s mut BlockScratch,
        outputs: usize,
    ) -> (
        &'s mut [u64],
        &'s mut [u64],
        &'s mut [u64],
        &'s mut Vec<u64>,
    ) {
        let regs = self.n_regs * LANE_BLOCK;
        let params = self.params.len() * LANE_BLOCK;
        let len = regs + params + outputs * LANE_BLOCK;
        if scratch.frame.len() < len {
            scratch.frame.resize(len, 0);
        }
        let (regs, rest) = scratch.frame.split_at_mut(regs);
        let (params, rest) = rest.split_at_mut(params);
        (
            regs,
            params,
            &mut rest[..outputs * LANE_BLOCK],
            &mut scratch.shr,
        )
    }

    /// The bytecode execution loop — the only one: one instruction dispatch per
    /// block, a tight lane loop per instruction, no lookups, no `Option`s,
    /// no allocation. The tree interpreter is its oracle: the tests here and the
    /// crosscheck suites compare the two element by element.
    ///
    /// Every arm reads its operands through [`Sources::lanes`] — a
    /// parameter's lanes from `params`, a constant's from the kernel's
    /// broadcast, a temporary's from `regs` — zips them into a block-sized
    /// buffer, and [`store`]s the buffer at its destination: a register
    /// (which may be one of the sources), or the caller's output lanes for
    /// an output written in place. So the lane loops carry no index checks,
    /// and their data-dependent choices are masks, not branches. The
    /// two-destination arms fill two buffers and store both. (Computing
    /// straight into an output's lanes instead of the stack buffer let LLVM
    /// vectorize the word arms' `u64` products with emulated 64-bit SSE2
    /// multiplies, which made `Word1`/`Word2` ~1.8× slower.)
    fn exec_lanes(
        &self,
        src: &Sources<'_, '_>,
        regs: &mut [u64],
        shr: &mut Vec<u64>,
        outs: &mut Outs<'_, '_>,
    ) {
        let n = src.n;
        // Shared accumulator lanes for `MacReduceMod`'s `u128` arm (first pair
        // assigns, so stale values between instructions are never read).
        let mut accs = [0u128; LANE_BLOCK];
        let mut bufs = [[0u64; LANE_BLOCK]; 2];
        let [buf, buf2] = &mut bufs;
        let (buf, buf2) = (&mut buf[..n], &mut buf2[..n]);
        for op in &self.code {
            match op {
                Code::Copy { d, s } => {
                    for (o, &v) in buf.iter_mut().zip(src.lanes(regs, *s)) {
                        *o = v & d.mask;
                    }
                    store(regs, outs, d.slot, buf);
                }
                Code::AddWide {
                    carry,
                    sum,
                    a,
                    b,
                    cin,
                    sum_bits,
                } => {
                    let terms = src.lanes(regs, *a).iter().zip(src.lanes(regs, *b));
                    let lanes = buf2.iter_mut().zip(buf.iter_mut());
                    for (((c, s), (&a, &b)), &cin) in lanes.zip(terms).zip(src.lanes(regs, *cin)) {
                        let t = a as u128 + b as u128 + cin as u128;
                        *c = ((t >> sum_bits) as u64) & carry.mask;
                        *s = (t as u64) & sum.mask;
                    }
                    store(regs, outs, carry.slot, buf2);
                    store(regs, outs, sum.slot, buf);
                }
                Code::Sub { d, a, b, bin } => {
                    let terms = src.lanes(regs, *a).iter().zip(src.lanes(regs, *b));
                    for ((o, (&a, &b)), &bin) in
                        buf.iter_mut().zip(terms).zip(src.lanes(regs, *bin))
                    {
                        *o = a.wrapping_sub(b).wrapping_sub(bin) & d.mask;
                    }
                    store(regs, outs, d.slot, buf);
                }
                Code::MulWide {
                    hi,
                    lo,
                    a,
                    b,
                    lo_bits,
                } => {
                    let terms = src.lanes(regs, *a).iter().zip(src.lanes(regs, *b));
                    for ((h, l), (&a, &b)) in buf2.iter_mut().zip(buf.iter_mut()).zip(terms) {
                        let p = a as u128 * b as u128;
                        *h = ((p >> lo_bits) as u64) & hi.mask;
                        *l = (p as u64) & lo.mask;
                    }
                    store(regs, outs, hi.slot, buf2);
                    store(regs, outs, lo.slot, buf);
                }
                Code::MulLow { d, a, b } => {
                    let terms = src.lanes(regs, *a).iter().zip(src.lanes(regs, *b));
                    for (o, (&a, &b)) in buf.iter_mut().zip(terms) {
                        *o = a.wrapping_mul(b) & d.mask;
                    }
                    store(regs, outs, d.slot, buf);
                }
                Code::Lt { d, a, b } => {
                    let terms = src.lanes(regs, *a).iter().zip(src.lanes(regs, *b));
                    for (o, (&a, &b)) in buf.iter_mut().zip(terms) {
                        *o = (a < b) as u64;
                    }
                    store(regs, outs, d.slot, buf);
                }
                Code::Eq { d, a, b } => {
                    let terms = src.lanes(regs, *a).iter().zip(src.lanes(regs, *b));
                    for (o, (&a, &b)) in buf.iter_mut().zip(terms) {
                        *o = (a == b) as u64;
                    }
                    store(regs, outs, d.slot, buf);
                }
                Code::BoolAnd { d, a, b } => {
                    let terms = src.lanes(regs, *a).iter().zip(src.lanes(regs, *b));
                    for (o, (&a, &b)) in buf.iter_mut().zip(terms) {
                        *o = (a != 0 && b != 0) as u64;
                    }
                    store(regs, outs, d.slot, buf);
                }
                Code::BoolOr { d, a, b } => {
                    let terms = src.lanes(regs, *a).iter().zip(src.lanes(regs, *b));
                    for (o, (&a, &b)) in buf.iter_mut().zip(terms) {
                        *o = (a != 0 || b != 0) as u64;
                    }
                    store(regs, outs, d.slot, buf);
                }
                Code::Select {
                    d,
                    cond,
                    if_true,
                    if_false,
                } => {
                    let arms = src
                        .lanes(regs, *if_true)
                        .iter()
                        .zip(src.lanes(regs, *if_false));
                    for ((o, &c), (&t, &f)) in buf.iter_mut().zip(src.lanes(regs, *cond)).zip(arms)
                    {
                        *o = (f ^ ((t ^ f) & all_ones_if(c != 0))) & d.mask;
                    }
                    store(regs, outs, d.slot, buf);
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
                    shr.clear();
                    for w in op.words.iter().rev() {
                        shr.extend(src.lanes(regs, *w).iter().map(|&v| v & wmask));
                    }
                    for (k, dst) in op.dsts.iter().rev().enumerate() {
                        let off = op.shift as usize + k * wb;
                        let (idx, r) = (off / wb, off % wb);
                        if idx >= nw {
                            buf.fill(0);
                        } else if r == 0 || idx + 1 == nw {
                            for (o, &lo) in buf.iter_mut().zip(&shr[idx * n..]) {
                                *o = (lo >> r) & dst.mask;
                            }
                        } else {
                            let (lo, hi) = shr[idx * n..].split_at(n);
                            let mask = wmask & dst.mask;
                            for ((o, &lo), &hi) in buf.iter_mut().zip(lo).zip(hi) {
                                *o = ((lo >> r) | (hi << (wb - r))) & mask;
                            }
                        }
                        store(regs, outs, dst.slot, buf);
                    }
                }
                Code::AddMod { d, a, b, q } => {
                    let terms = src.lanes(regs, *a).iter().zip(src.lanes(regs, *b));
                    for ((o, (&a, &b)), &q) in buf.iter_mut().zip(terms).zip(src.lanes(regs, *q)) {
                        *o = ((a as u128 + b as u128) % q as u128) as u64 & d.mask;
                    }
                    store(regs, outs, d.slot, buf);
                }
                Code::SubMod { d, a, b, q } => {
                    let terms = src.lanes(regs, *a).iter().zip(src.lanes(regs, *b));
                    for ((o, (&a, &b)), &q) in buf.iter_mut().zip(terms).zip(src.lanes(regs, *q)) {
                        // `a < b` leaves `a + q − b < q`: exact in one word.
                        let (v, borrow) = a.overflowing_sub(b);
                        *o = v.wrapping_add(q & all_ones_if(borrow)) & d.mask;
                    }
                    store(regs, outs, d.slot, buf);
                }
                Code::MulModBarrett { d, a, b, q } => {
                    let terms = src.lanes(regs, *a).iter().zip(src.lanes(regs, *b));
                    for ((o, (&a, &b)), &q) in buf.iter_mut().zip(terms).zip(src.lanes(regs, *q)) {
                        *o = ((a as u128 * b as u128) % q as u128) as u64 & d.mask;
                    }
                    store(regs, outs, d.slot, buf);
                }
                Code::MulAddMod { d, a, b, c, q } => {
                    let terms = src.lanes(regs, *a).iter().zip(src.lanes(regs, *b));
                    let addends = src.lanes(regs, *c).iter().zip(src.lanes(regs, *q));
                    for ((o, (&a, &b)), (&c, &q)) in buf.iter_mut().zip(terms).zip(addends) {
                        *o = ((a as u128 * b as u128 + c as u128) % q as u128) as u64 & d.mask;
                    }
                    store(regs, outs, d.slot, buf);
                }
                Code::MacReduceMod(op) => {
                    let mask = op.d.mask;
                    match &op.arm {
                        MacArm::Reduced { x } => {
                            for (o, &x) in buf.iter_mut().zip(src.lanes(regs, *x)) {
                                *o = x & mask;
                            }
                        }
                        MacArm::CondSub { x } => {
                            let q = op.q;
                            for (o, &x) in buf.iter_mut().zip(src.lanes(regs, *x)) {
                                let (r, borrow) = x.overflowing_sub(q);
                                *o = r.wrapping_add(q & all_ones_if(borrow)) & mask;
                            }
                        }
                        MacArm::Word1 { a, b, barrett } => {
                            let terms = src.lanes(regs, *a).iter().zip(src.lanes(regs, *b));
                            for (o, (&a, &b)) in buf.iter_mut().zip(terms) {
                                *o = barrett.reduce_word(a * b) & mask;
                            }
                        }
                        MacArm::Word1K { a, k, barrett } => {
                            for (o, &a) in buf.iter_mut().zip(src.lanes(regs, *a)) {
                                *o = barrett.reduce_word(a * k) & mask;
                            }
                        }
                        MacArm::Word2 { a, b, barrett } => {
                            let first = src.lanes(regs, a[0]).iter().zip(src.lanes(regs, b[0]));
                            let second = src.lanes(regs, a[1]).iter().zip(src.lanes(regs, b[1]));
                            for (o, ((&a0, &b0), (&a1, &b1))) in
                                buf.iter_mut().zip(first.zip(second))
                            {
                                *o = barrett.reduce_word(a0 * b0 + a1 * b1) & mask;
                            }
                        }
                        MacArm::Word2K { a, k, barrett } => {
                            let [k0, k1] = *k;
                            let terms = src.lanes(regs, a[0]).iter().zip(src.lanes(regs, a[1]));
                            for (o, (&a0, &a1)) in buf.iter_mut().zip(terms) {
                                *o = barrett.reduce_word(a0 * k0 + a1 * k1) & mask;
                            }
                        }
                        MacArm::Wide { pairs, barrett } => {
                            // Pairs outer, lanes inner: each pair's sources are
                            // resolved once per block, and the inner
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
                                let (va, vb) = match a {
                                    Src::Const(_) => (b, a),
                                    _ => (a, b),
                                };
                                let first = i == 0;
                                if let Src::Const(k) = vb {
                                    let bv = self.const_lanes[k as usize * LANE_BLOCK] as u128;
                                    for (acc, &av) in accs.iter_mut().zip(src.lanes(regs, va)) {
                                        let p = av as u128 * bv;
                                        *acc = if first { p } else { *acc + p };
                                    }
                                } else {
                                    let terms = src.lanes(regs, va).iter().zip(src.lanes(regs, vb));
                                    for (acc, (&av, &bv)) in accs.iter_mut().zip(terms) {
                                        let p = av as u128 * bv as u128;
                                        *acc = if first { p } else { *acc + p };
                                    }
                                }
                            }
                            match barrett {
                                Some(barrett) => {
                                    for (o, &acc) in buf.iter_mut().zip(&*accs) {
                                        *o = barrett.reduce_wide(acc) & mask;
                                    }
                                }
                                None => {
                                    for (o, &acc) in buf.iter_mut().zip(&*accs) {
                                        *o = (acc % op.q as u128) as u64 & mask;
                                    }
                                }
                            }
                        }
                    }
                    store(regs, outs, op.d.slot, buf);
                }
            }
        }
        for &(s, j) in &self.tail {
            outs.lanes(j, n).copy_from_slice(src.lanes(regs, s));
        }
    }
}

/// Where `exec_lanes` reads one block's operands from.
struct Sources<'a, 's> {
    /// The kernel's broadcast constants.
    consts: &'a [u64],
    /// Parameter `p`'s lanes for this block.
    params: &'a dyn Fn(usize) -> &'s [u64],
    /// Lanes in the block.
    n: usize,
}

impl<'s> Sources<'_, 's> {
    /// The block's lanes of operand `s`.
    #[inline]
    fn lanes<'x>(&'x self, regs: &'x [u64], s: Src) -> &'x [u64]
    where
        's: 'x,
    {
        match s {
            Src::Reg(r) => &regs[r as usize * LANE_BLOCK..][..self.n],
            Src::Const(k) => &self.consts[k as usize * LANE_BLOCK..][..self.n],
            Src::Param(p) => (self.params)(p as usize),
        }
    }
}

/// Where `exec_lanes` writes one block's outputs.
enum Outs<'a, 'o> {
    /// The caller's output rows: output `j`'s lanes at `rows[j][at..]`.
    Rows {
        rows: &'a mut [&'o mut [u64]],
        at: usize,
    },
    /// `run_elements`' staging: output `j`'s lanes at `j * LANE_BLOCK..`.
    Staged(&'a mut [u64]),
}

impl Outs<'_, '_> {
    /// Output `j`'s `n` lanes of this block.
    fn lanes(&mut self, j: u32, n: usize) -> &mut [u64] {
        match self {
            Outs::Rows { rows, at } => &mut rows[j as usize][*at..*at + n],
            Outs::Staged(lanes) => &mut lanes[j as usize * LANE_BLOCK..][..n],
        }
    }
}

/// Stores an instruction's lanes `buf` at `slot`: a register, or an output's
/// own lanes.
fn store(regs: &mut [u64], outs: &mut Outs<'_, '_>, slot: Slot, buf: &[u64]) {
    match slot {
        Slot::Reg(r) => regs[r as usize * LANE_BLOCK..][..buf.len()].copy_from_slice(buf),
        Slot::Out(j) => outs.lanes(j, buf.len()).copy_from_slice(buf),
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
/// Walks the body once, assigning each live temporary a dense slot and
/// recycling a slot as soon as its variable's last read has executed. Because
/// the code is straight-line, liveness is exact: a variable is live from its
/// (re)definition to its final read. A parameter is read from the caller's
/// lanes until a statement overwrites it. An output listed once is written
/// straight into its lanes by its last write when no later statement reads it;
/// any other output stays in its register to the end and is copied out.
struct RegAlloc {
    /// Per-statement read map: variable → where it is read at that statement.
    reads: Vec<HashMap<VarId, Src>>,
    /// Per-statement write map: variable → where that write goes.
    writes: Vec<HashMap<VarId, Slot>>,
    /// Outputs copied out after the block: `(source, output index)`.
    tail: Vec<(Src, u32)>,
    n_regs: usize,
}

impl RegAlloc {
    fn run(kernel: &Kernel) -> Result<RegAlloc, InterpError> {
        let n_vars = kernel.vars.len();
        // Last statement index that reads and that writes each variable.
        let mut last_read: Vec<Option<usize>> = vec![None; n_vars];
        let mut last_write: Vec<Option<usize>> = vec![None; n_vars];
        for (i, stmt) in kernel.body.iter().enumerate() {
            for o in stmt.op.operands() {
                if let Some(v) = o.as_var() {
                    last_read[v.0] = Some(i);
                }
            }
            for d in &stmt.dsts {
                last_write[d.0] = Some(i);
            }
        }
        // How often each variable is listed as an output, and where first.
        let mut listed = vec![0usize; n_vars];
        let mut first_output: Vec<u32> = vec![0; n_vars];
        for (j, o) in kernel.outputs.iter().enumerate().rev() {
            listed[o.0] += 1;
            first_output[o.0] = j as u32;
        }
        // The output a variable's last write goes straight into.
        let in_place = |v: VarId| -> Option<u32> {
            let i = last_write[v.0]?;
            (listed[v.0] == 1 && last_read[v.0].map_or(true, |r| r <= i))
                .then_some(first_output[v.0])
        };
        // Variables whose value must survive to the end of the body.
        let kept = |v: VarId| listed[v.0] > 0 && in_place(v).is_none();

        let mut current: Vec<Option<Src>> = vec![None; n_vars];
        for (k, p) in kernel.params.iter().enumerate() {
            current[p.0] = Some(Src::Param(k as u32));
        }
        let mut free: Vec<u32> = Vec::new();
        let mut n_regs: u32 = 0;
        let mut allocate = |free: &mut Vec<u32>| -> u32 {
            free.pop().unwrap_or_else(|| {
                n_regs += 1;
                n_regs - 1
            })
        };

        let mut reads = Vec::with_capacity(kernel.body.len());
        let mut writes = Vec::with_capacity(kernel.body.len());
        for (i, stmt) in kernel.body.iter().enumerate() {
            let mut uses = HashMap::new();
            for o in stmt.op.operands() {
                if let Some(v) = o.as_var() {
                    let at = current[v.0].ok_or_else(|| InterpError::UseBeforeDef {
                        var: kernel.var(v).name.clone(),
                    })?;
                    uses.insert(v, at);
                }
            }
            // Expire operands whose last read is this statement *before*
            // assigning destination slots — but only release slots that none of
            // this statement's destinations are about to keep (a destination may
            // be the same variable as an operand). Every arm reads all of its
            // operands before it stores a destination, so a destination may take
            // a slot released here.
            for (&v, &at) in &uses {
                if last_read[v.0] == Some(i) && !kept(v) && !stmt.dsts.contains(&v) {
                    current[v.0] = None;
                    if let Src::Reg(slot) = at {
                        free.push(slot);
                    }
                }
            }
            let mut dsts = HashMap::new();
            for d in &stmt.dsts {
                if last_write[d.0] == Some(i) {
                    if let Some(j) = in_place(*d) {
                        if let Some(Src::Reg(slot)) = current[d.0].take() {
                            free.push(slot);
                        }
                        dsts.insert(*d, Slot::Out(j));
                        continue;
                    }
                }
                let slot = match current[d.0] {
                    Some(Src::Reg(slot)) => slot,
                    _ => {
                        let slot = allocate(&mut free);
                        current[d.0] = Some(Src::Reg(slot));
                        slot
                    }
                };
                dsts.insert(*d, Slot::Reg(slot));
                // A destination that is never read again and need not survive
                // dies immediately; keep its slot live through this statement
                // (the write still happens) and recycle it afterwards.
                if !kept(*d) && last_read[d.0].map_or(true, |l| l <= i) {
                    current[d.0] = None;
                    free.push(slot);
                }
            }
            reads.push(uses);
            writes.push(dsts);
        }

        let mut tail = Vec::new();
        for (j, o) in kernel.outputs.iter().enumerate() {
            if in_place(*o) == Some(j as u32) {
                continue;
            }
            let at = current[o.0].ok_or_else(|| InterpError::UseBeforeDef {
                var: kernel.var(*o).name.clone(),
            })?;
            tail.push((at, j as u32));
        }

        Ok(RegAlloc {
            reads,
            writes,
            tail,
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
        // kernels, with the constants interned and broadcast at compile time.
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
        // below), partial trailing blocks and runs of several blocks. One
        // scratch is reused across run lengths.
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
        let mut scratch = BlockScratch::default();
        for n in [1usize, 37, LANE_BLOCK, 2 * LANE_BLOCK + 3] {
            let a_vals = vals(0x9e37 ^ n as u64, n);
            let b_vals = vals(0x79b9 ^ n as u64, n);
            let mut got = vec![vec![0; n]; 2];
            let mut rows: Vec<&mut [u64]> = got.iter_mut().map(|r| &mut r[..]).collect();
            let plane = |p| Plane::Row(if p == 0 { &a_vals } else { &b_vals });
            c.run_lanes(n, &mut scratch, plane, &mut rows).unwrap();
            for e in 0..n {
                let one = interp::run(&k, &[a_vals[e], b_vals[e]]).unwrap();
                assert_eq!(
                    vec![got[0][e], got[1][e]],
                    one.outputs,
                    "element {e} of {n}"
                );
            }
        }
    }

    /// Runs `k` over `n` elements through `run_lanes` (parameter `p` from
    /// `planes[p]`) and returns the output rows, or the refusal.
    fn lanes_of(k: &Kernel, n: usize, planes: &[Plane]) -> Result<Vec<Vec<u64>>, InterpError> {
        let c = CompiledKernel::compile(k).unwrap();
        let mut rows = vec![vec![u64::MAX; n]; k.outputs.len()];
        let mut outs: Vec<&mut [u64]> = rows.iter_mut().map(|r| &mut r[..]).collect();
        c.run_lanes(n, &mut BlockScratch::default(), |p| planes[p], &mut outs)?;
        Ok(rows)
    }

    /// The interpreter's outputs of `k` for element `e` of `planes`, as rows.
    fn interp_rows(k: &Kernel, n: usize, planes: &[Plane]) -> Vec<Vec<u64>> {
        let mut rows = vec![Vec::new(); k.outputs.len()];
        for e in 0..n {
            let inputs: Vec<u64> = planes
                .iter()
                .map(|plane| match *plane {
                    Plane::Row(row) => row[e],
                    Plane::Uniform(v) => v,
                })
                .collect();
            for (row, v) in rows
                .iter_mut()
                .zip(interp::run(k, &inputs).unwrap().outputs)
            {
                row.push(v);
            }
        }
        rows
    }

    /// `o = (a·s) mod q` over a row `a ≤ 1000` and a scalar `s ≤ 50`.
    fn bounded_product() -> Kernel {
        let mut kb = KernelBuilder::new("bounded_product");
        let a = kb.param_below("a", Ty::UInt(64), 1000);
        let s = kb.param_below("s", Ty::UInt(64), 50);
        let o = kb.output("o", Ty::UInt(64));
        let q = 1_000_003;
        kb.push(
            vec![o],
            Op::MacReduceMod {
                pairs: vec![(a.into(), s.into())],
                q,
            },
        );
        kb.build()
    }

    #[test]
    fn run_lanes_refuses_a_bad_uniform_or_row_value_like_the_interpreter() {
        let k = bounded_product();
        let n = 2 * LANE_BLOCK + 5;
        let row: Vec<u64> = (0..n as u64).map(|i| i * 7 % 1001).collect();
        // A uniform at its bound runs; one above it is refused, naming it.
        let planes = [Plane::Row(&row), Plane::Uniform(50)];
        assert_eq!(
            lanes_of(&k, n, &planes).unwrap(),
            interp_rows(&k, n, &planes)
        );
        let refused = lanes_of(&k, n, &[Plane::Row(&row), Plane::Uniform(51)]);
        assert_eq!(refused, interp::run(&k, &[row[0], 51]).map(|_| vec![]));
        assert_eq!(
            refused,
            Err(InterpError::InputAboveBound {
                var: "s".into(),
                bound: 50
            })
        );
        // A bad row value in the last, partial block.
        let mut bad = row.clone();
        bad[n - 1] = 1001;
        assert_eq!(
            lanes_of(&k, n, &[Plane::Row(&bad), Plane::Uniform(3)]),
            interp::run(&k, &[1001, 3]).map(|_| vec![])
        );
        // No elements: nothing runs, so nothing is refused.
        assert_eq!(
            lanes_of(&k, 0, &[Plane::Row(&[]), Plane::Uniform(51)]),
            Ok(vec![vec![]])
        );
    }

    #[test]
    fn outputs_read_later_listed_twice_or_never_written() {
        // `o1` is read by the statement after its write, `o2` is listed
        // twice, and the parameter `b` is itself an output.
        let mut kb = KernelBuilder::new("output_shapes");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(16));
        let o1 = kb.output("o1", Ty::UInt(64));
        let o2 = kb.output("o2", Ty::UInt(32));
        kb.push(
            vec![o1],
            Op::MulLow {
                a: a.into(),
                b: b.into(),
            },
        );
        kb.push(
            vec![o2],
            Op::MulLow {
                a: o1.into(),
                b: Operand::Const(3),
            },
        );
        let mut k = kb.build();
        k.outputs.extend([o2, b]);
        let n = LANE_BLOCK + 9;
        let a_row: Vec<u64> = (0..n as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .collect();
        let b_row: Vec<u64> = (0..n as u64).map(|i| i * 131 % (1 << 16)).collect();
        let planes = [Plane::Row(&a_row), Plane::Row(&b_row)];
        assert_eq!(
            lanes_of(&k, n, &planes).unwrap(),
            interp_rows(&k, n, &planes)
        );
        assert_matches_interp_across_blocks(&k, "output shapes");
    }

    #[test]
    fn a_kernel_without_parameters() {
        let mut kb = KernelBuilder::new("constants_only");
        let t = kb.local("t", Ty::UInt(64));
        let o = kb.output("o", Ty::UInt(64));
        kb.push(
            vec![t],
            Op::Copy {
                src: Operand::Const(7),
            },
        );
        kb.push(
            vec![o],
            Op::AddMod {
                a: t.into(),
                b: Operand::Const(9),
                q: Operand::Const(11),
            },
        );
        let k = kb.build();
        let c = CompiledKernel::compile(&k).unwrap();
        assert_eq!(c.run(&[]).unwrap(), interp::run(&k, &[]).unwrap());
        let n = LANE_BLOCK + 1;
        assert_eq!(lanes_of(&k, n, &[]).unwrap(), vec![vec![5; n]]);
        let mut out = vec![0; n];
        c.run_elements(n, &[], &mut BlockScratch::default(), &mut out)
            .unwrap();
        assert_eq!(out, vec![5; n]);
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
    fn one_scratch_serves_kernels_in_turn() {
        // A scratch carried from kernel A to kernel B and back holds no state
        // either depends on: each reads its constants from its own lanes.
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
        let mut scratch = BlockScratch::default();
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
