//! An interpreter for machine-level kernels.
//!
//! Once the rewrite system has lowered a kernel so that every variable fits in at most
//! 64 bits, the kernel can be executed directly on word values. The interpreter is the
//! execution backend of the simulated GPU (each virtual CUDA thread interprets the
//! kernel on its element) and the correctness oracle used by the rewrite-system tests.
//! It also counts the word-level operations actually executed, which feeds the
//! analytical GPU cost model.

use crate::cost::OpCounts;
use crate::{Kernel, Op, Operand, VarId};
use std::error::Error;
use std::fmt;

/// Failure while interpreting a kernel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InterpError {
    /// A variable was wider than 64 bits — the kernel has not been fully lowered.
    UnsupportedWidth {
        /// The variable name.
        var: String,
        /// Its bit-width.
        bits: u32,
    },
    /// A variable was read before being assigned.
    UseBeforeDef {
        /// The variable name.
        var: String,
    },
    /// The number of supplied inputs does not match the kernel's parameter count.
    ArgumentCount {
        /// Parameters expected.
        expected: usize,
        /// Inputs supplied.
        got: usize,
    },
    /// An input value does not fit the parameter's declared width.
    InputTooWide {
        /// The parameter name.
        var: String,
    },
    /// An input value is above the parameter's declared bound
    /// ([`Kernel::bounds`]).
    InputAboveBound {
        /// The parameter name.
        var: String,
        /// The bound the input exceeds.
        bound: u64,
    },
}

impl fmt::Display for InterpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterpError::UnsupportedWidth { var, bits } => {
                write!(
                    f,
                    "variable '{var}' has {bits} bits; lower the kernel to machine words first"
                )
            }
            InterpError::UseBeforeDef { var } => {
                write!(f, "variable '{var}' read before assignment")
            }
            InterpError::ArgumentCount { expected, got } => {
                write!(f, "expected {expected} inputs, got {got}")
            }
            InterpError::InputTooWide { var } => {
                write!(
                    f,
                    "input for parameter '{var}' does not fit its declared width"
                )
            }
            InterpError::InputAboveBound { var, bound } => {
                write!(
                    f,
                    "input for parameter '{var}' is above its declared bound {bound}"
                )
            }
        }
    }
}

impl Error for InterpError {}

/// Result of one interpretation: output values (in output order) and executed operation
/// counts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// Output values, one per kernel output, in declaration order.
    pub outputs: Vec<u64>,
    /// Word-level operations executed.
    pub counts: OpCounts,
}

/// Interprets `kernel` on the given parameter values (one `u64` per parameter, in
/// declaration order).
///
/// # Errors
///
/// Returns an [`InterpError`] if the kernel is not fully lowered (any variable wider
/// than 64 bits), if the input count is wrong, if an input does not fit its
/// parameter's width or is above its declared bound, or if a value is read
/// before being written.
///
/// # Example
///
/// ```
/// use moma_ir::{interp, KernelBuilder, Op, Ty};
///
/// let mut kb = KernelBuilder::new("addmod64");
/// let a = kb.param("a", Ty::UInt(64));
/// let b = kb.param("b", Ty::UInt(64));
/// let q = kb.param("q", Ty::UInt(64));
/// let c = kb.output("c", Ty::UInt(64));
/// kb.push(vec![c], Op::AddMod { a: a.into(), b: b.into(), q: q.into() });
/// let result = interp::run(&kb.build(), &[90, 80, 100]).unwrap();
/// assert_eq!(result.outputs, vec![70]);
/// ```
pub fn run(kernel: &Kernel, inputs: &[u64]) -> Result<RunResult, InterpError> {
    if inputs.len() != kernel.params.len() {
        return Err(InterpError::ArgumentCount {
            expected: kernel.params.len(),
            got: inputs.len(),
        });
    }
    for v in &kernel.vars {
        if v.ty.bits() > 64 {
            return Err(InterpError::UnsupportedWidth {
                var: v.name.clone(),
                bits: v.ty.bits(),
            });
        }
    }

    let mut values: Vec<Option<u128>> = vec![None; kernel.vars.len()];
    for (p, &input) in kernel.params.iter().zip(inputs) {
        let bits = kernel.ty(*p).bits();
        if bits < 64 && input >> bits != 0 {
            return Err(InterpError::InputTooWide {
                var: kernel.var(*p).name.clone(),
            });
        }
        if let Some(&bound) = kernel.bounds.get(p) {
            if input > bound {
                return Err(InterpError::InputAboveBound {
                    var: kernel.var(*p).name.clone(),
                    bound,
                });
            }
        }
        values[p.0] = Some(input as u128);
    }

    let mut counts = OpCounts::new();
    for stmt in &kernel.body {
        exec_stmt(kernel, stmt, &mut values, &mut counts)?;
    }

    let mut outputs = Vec::with_capacity(kernel.outputs.len());
    for o in &kernel.outputs {
        let v = values[o.0].ok_or_else(|| InterpError::UseBeforeDef {
            var: kernel.var(*o).name.clone(),
        })?;
        outputs.push(v as u64);
    }
    Ok(RunResult { outputs, counts })
}

fn mask(bits: u32) -> u128 {
    if bits >= 128 {
        u128::MAX
    } else {
        (1u128 << bits) - 1
    }
}

fn exec_stmt(
    kernel: &Kernel,
    stmt: &crate::Stmt,
    values: &mut [Option<u128>],
    counts: &mut OpCounts,
) -> Result<(), InterpError> {
    let read = |o: Operand, values: &[Option<u128>]| -> Result<u128, InterpError> {
        match o {
            Operand::Const(c) => Ok(c as u128),
            Operand::Var(v) => values[v.0].ok_or_else(|| InterpError::UseBeforeDef {
                var: kernel.var(v).name.clone(),
            }),
        }
    };
    let width_of_dst = |d: VarId| kernel.ty(d).bits();
    let write = |d: VarId, v: u128, values: &mut [Option<u128>]| {
        let bits = width_of_dst(d);
        values[d.0] = Some(v & mask(bits));
    };

    counts.record(&stmt.op);
    match &stmt.op {
        Op::Copy { src } => {
            let v = read(*src, values)?;
            write(stmt.dsts[0], v, values);
        }
        Op::AddWide { a, b, carry_in } => {
            let w = width_of_dst(stmt.dsts[1]);
            let cin = match carry_in {
                Some(c) => read(*c, values)?,
                None => 0,
            };
            let sum = read(*a, values)? + read(*b, values)? + cin;
            write(stmt.dsts[0], sum >> w, values);
            write(stmt.dsts[1], sum, values);
        }
        Op::Sub { a, b, borrow_in } => {
            let w = width_of_dst(stmt.dsts[0]);
            let bin = match borrow_in {
                Some(c) => read(*c, values)?,
                None => 0,
            };
            let diff = read(*a, values)?
                .wrapping_sub(read(*b, values)?)
                .wrapping_sub(bin);
            write(stmt.dsts[0], diff & mask(w), values);
        }
        Op::MulWide { a, b } => {
            let w = width_of_dst(stmt.dsts[1]);
            let p = read(*a, values)? * read(*b, values)?;
            write(stmt.dsts[0], p >> w, values);
            write(stmt.dsts[1], p, values);
        }
        Op::MulLow { a, b } => {
            let p = read(*a, values)?.wrapping_mul(read(*b, values)?);
            write(stmt.dsts[0], p, values);
        }
        Op::Lt { a, b } => {
            let v = (read(*a, values)? < read(*b, values)?) as u128;
            write(stmt.dsts[0], v, values);
        }
        Op::Eq { a, b } => {
            let v = (read(*a, values)? == read(*b, values)?) as u128;
            write(stmt.dsts[0], v, values);
        }
        Op::BoolAnd { a, b } => {
            let v = ((read(*a, values)? != 0) && (read(*b, values)? != 0)) as u128;
            write(stmt.dsts[0], v, values);
        }
        Op::BoolOr { a, b } => {
            let v = ((read(*a, values)? != 0) || (read(*b, values)? != 0)) as u128;
            write(stmt.dsts[0], v, values);
        }
        Op::Select {
            cond,
            if_true,
            if_false,
        } => {
            let v = if read(*cond, values)? != 0 {
                read(*if_true, values)?
            } else {
                read(*if_false, values)?
            };
            write(stmt.dsts[0], v, values);
        }
        Op::ShrMulti { words, shift } => {
            // Words are most significant first; assemble, shift, split back.
            let word_bits = words
                .iter()
                .find_map(|o| o.as_var().map(|v| kernel.ty(v).bits()))
                .unwrap_or(64);
            // Total width can be up to 4 * 64 = 256 bits, so shift limb-wise over u64s.
            let src: Vec<u64> = {
                let mut v = Vec::with_capacity(words.len());
                for w in words {
                    v.push(read(*w, values)? as u64);
                }
                v
            };
            let n = src.len();
            let get_bit = |i: u32| -> u64 {
                // Bit index counted from the least significant end of the concatenation.
                let word = n as u32 - 1 - i / word_bits;
                (src[word as usize] >> (i % word_bits)) & 1
            };
            let total_bits = word_bits * n as u32;
            for (k, dst) in stmt.dsts.iter().rev().enumerate() {
                // dst[last] is the least significant output word.
                let mut v: u128 = 0;
                for bit in 0..word_bits {
                    let src_bit = shift + k as u32 * word_bits + bit;
                    if src_bit < total_bits {
                        v |= (get_bit(src_bit) as u128) << bit;
                    }
                }
                write(*dst, v, values);
            }
        }
        Op::AddMod { a, b, q } => {
            let q = read(*q, values)?;
            let v = (read(*a, values)? + read(*b, values)?) % q;
            write(stmt.dsts[0], v, values);
        }
        Op::SubMod { a, b, q } => {
            let q = read(*q, values)?;
            let a = read(*a, values)?;
            let b = read(*b, values)?;
            let v = if a < b { a + q - b } else { a - b };
            write(stmt.dsts[0], v, values);
        }
        Op::MulModBarrett { a, b, q, .. } => {
            let q = read(*q, values)?;
            let v = (read(*a, values)? * read(*b, values)?) % q;
            write(stmt.dsts[0], v, values);
        }
        Op::MulAddMod { a, b, c, q, .. } => {
            let q = read(*q, values)?;
            // Word-sized operands: a·b < 2^128 − 2^65 + 1, so adding a third word
            // can never overflow the u128 intermediate.
            let v = (read(*a, values)? * read(*b, values)? + read(*c, values)?) % q;
            write(stmt.dsts[0], v, values);
        }
        Op::MacReduceMod { pairs, q, .. } => {
            // Exact accumulation, one reduction at the end. The validator bounds
            // Σᵢ aᵢ·bᵢ by the operand widths, so the u128 sum cannot wrap.
            let mut acc: u128 = 0;
            for (a, b) in pairs {
                acc += read(*a, values)? * read(*b, values)?;
            }
            write(stmt.dsts[0], acc % *q as u128, values);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelBuilder, Ty};

    fn add_kernel() -> Kernel {
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
        kb.build()
    }

    #[test]
    fn add_with_carry() {
        let k = add_kernel();
        let r = run(&k, &[u64::MAX, 1]).unwrap();
        assert_eq!(r.outputs, vec![1, 0]); // carry = 1, sum = 0
        let r = run(&k, &[2, 3]).unwrap();
        assert_eq!(r.outputs, vec![0, 5]);
        assert_eq!(r.counts.total(), 1);
    }

    #[test]
    fn mulwide_and_mullow() {
        let mut kb = KernelBuilder::new("mul");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let hi = kb.output("hi", Ty::UInt(64));
        let lo = kb.output("lo", Ty::UInt(64));
        let low_only = kb.output("low_only", Ty::UInt(64));
        kb.push(
            vec![hi, lo],
            Op::MulWide {
                a: a.into(),
                b: b.into(),
            },
        );
        kb.push(
            vec![low_only],
            Op::MulLow {
                a: a.into(),
                b: b.into(),
            },
        );
        let k = kb.build();
        let r = run(&k, &[u64::MAX, u64::MAX]).unwrap();
        let p = u64::MAX as u128 * u64::MAX as u128;
        assert_eq!(r.outputs, vec![(p >> 64) as u64, p as u64, p as u64]);
    }

    #[test]
    fn select_and_comparisons() {
        let mut kb = KernelBuilder::new("sel");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let lt = kb.local("lt", Ty::Flag);
        let min = kb.output("min", Ty::UInt(64));
        kb.push(
            vec![lt],
            Op::Lt {
                a: a.into(),
                b: b.into(),
            },
        );
        kb.push(
            vec![min],
            Op::Select {
                cond: lt.into(),
                if_true: a.into(),
                if_false: b.into(),
            },
        );
        let k = kb.build();
        assert_eq!(run(&k, &[3, 9]).unwrap().outputs, vec![3]);
        assert_eq!(run(&k, &[9, 3]).unwrap().outputs, vec![3]);
        assert_eq!(run(&k, &[4, 4]).unwrap().outputs, vec![4]);
    }

    #[test]
    fn shr_multi_matches_u128_shift() {
        // Two 64-bit words shifted right by 100 bits, keep both output words.
        let mut kb = KernelBuilder::new("shr");
        let hi = kb.param("hi", Ty::UInt(64));
        let lo = kb.param("lo", Ty::UInt(64));
        let out_hi = kb.output("out_hi", Ty::UInt(64));
        let out_lo = kb.output("out_lo", Ty::UInt(64));
        kb.push(
            vec![out_hi, out_lo],
            Op::ShrMulti {
                words: vec![hi.into(), lo.into()],
                shift: 100,
            },
        );
        let k = kb.build();
        let (h, l) = (0x1234_5678_9abc_def0u64, 0x0fed_cba9_8765_4321u64);
        let full = (h as u128) << 64 | l as u128;
        let shifted = full >> 100;
        let r = run(&k, &[h, l]).unwrap();
        assert_eq!(r.outputs, vec![(shifted >> 64) as u64, shifted as u64]);
    }

    #[test]
    fn high_level_ops_at_word_width() {
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
        let k = kb.build();
        let r = run(&k, &[90, 95, 101]).unwrap();
        assert_eq!(r.outputs, vec![84, 96, (90 * 95) % 101]);
    }

    #[test]
    fn error_cases() {
        let k = add_kernel();
        assert!(matches!(
            run(&k, &[1]),
            Err(InterpError::ArgumentCount {
                expected: 2,
                got: 1
            })
        ));
        let mut kb = KernelBuilder::new("wide");
        let a = kb.param("a", Ty::UInt(128));
        let o = kb.output("o", Ty::UInt(128));
        kb.push(vec![o], Op::Copy { src: a.into() });
        assert!(matches!(
            run(&kb.build(), &[1, 2]),
            Err(InterpError::ArgumentCount { .. }) | Err(InterpError::UnsupportedWidth { .. })
        ));
    }

    #[test]
    fn narrow_inputs_are_range_checked() {
        let mut kb = KernelBuilder::new("narrow");
        let a = kb.param("a", Ty::UInt(8));
        let o = kb.output("o", Ty::UInt(8));
        kb.push(vec![o], Op::Copy { src: a.into() });
        let k = kb.build();
        assert_eq!(run(&k, &[200]).unwrap().outputs, vec![200]);
        assert!(matches!(
            run(&k, &[300]),
            Err(InterpError::InputTooWide { .. })
        ));
    }

    #[test]
    fn bounded_inputs_are_range_checked() {
        let mut kb = KernelBuilder::new("bounded");
        let a = kb.param_below("a", Ty::UInt(8), 100);
        let o = kb.output("o", Ty::UInt(8));
        kb.push(vec![o], Op::Copy { src: a.into() });
        let k = kb.build();
        assert_eq!(run(&k, &[100]).unwrap().outputs, vec![100]);
        assert_eq!(
            run(&k, &[101]),
            Err(InterpError::InputAboveBound {
                var: "a".into(),
                bound: 100
            })
        );
        // The width test comes first, as it does in the compiled executor.
        assert!(matches!(
            run(&k, &[300]),
            Err(InterpError::InputTooWide { .. })
        ));
    }
}
