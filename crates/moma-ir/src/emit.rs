//! Source emitters: CUDA-like C (mirroring the paper's Listings 1–4) and Rust.
//!
//! Both emitters require a fully lowered kernel (every variable at most 64 bits, no
//! remaining high-level modular operations). The CUDA emitter writes the same style of
//! code as the paper's listings: `uint64_t` words, `unsigned __int128` for the
//! intermediate double words, carries extracted with shifts, and conditional assignments
//! with the ternary operator. The Rust emitter's output is compiled: `moma-gpu`'s build
//! script builds the fixed kernel set from it.

use crate::{Kernel, Op, Operand, Ty, VarId};
use std::error::Error;
use std::fmt::{self, Write};

/// Failure while emitting source code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EmitError {
    /// The kernel still contains variables wider than the machine word.
    NotLowered {
        /// The offending variable.
        var: String,
        /// Its width in bits.
        bits: u32,
    },
    /// The kernel still contains a high-level modular operation.
    HighLevelOp {
        /// Statement index.
        stmt: usize,
    },
}

impl fmt::Display for EmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EmitError::NotLowered { var, bits } => write!(
                f,
                "variable '{var}' has {bits} bits; lower the kernel before emitting"
            ),
            EmitError::HighLevelOp { stmt } => {
                write!(f, "statement {stmt} is a high-level modular operation; lower the kernel before emitting")
            }
        }
    }
}

impl Error for EmitError {}

fn check_lowered(kernel: &Kernel) -> Result<(), EmitError> {
    for v in &kernel.vars {
        if v.ty.bits() > 64 {
            return Err(EmitError::NotLowered {
                var: v.name.clone(),
                bits: v.ty.bits(),
            });
        }
    }
    for (i, stmt) in kernel.body.iter().enumerate() {
        if stmt.op.is_high_level() {
            return Err(EmitError::HighLevelOp { stmt: i });
        }
    }
    Ok(())
}

fn c_ty(ty: Ty) -> &'static str {
    match ty {
        Ty::Flag => "int",
        Ty::UInt(w) if w <= 8 => "uint8_t",
        Ty::UInt(w) if w <= 16 => "uint16_t",
        Ty::UInt(w) if w <= 32 => "uint32_t",
        Ty::UInt(_) => "uint64_t",
    }
}

fn c_wide_ty(ty: Ty) -> &'static str {
    match ty {
        Ty::UInt(w) if w <= 32 => "uint64_t",
        _ => "unsigned __int128",
    }
}

/// Emits CUDA-like C source for a fully lowered kernel.
///
/// The generated function takes output pointers first and value parameters second,
/// matching the calling convention of the paper's listings
/// (e.g. `void _daddmod(i64 *c0, i64 *c1, i64 a0, i64 a1, ...)`).
///
/// # Errors
///
/// Returns [`EmitError`] if the kernel is not fully lowered.
pub fn emit_cuda(kernel: &Kernel) -> Result<String, EmitError> {
    check_lowered(kernel)?;
    let name = |v: VarId| kernel.var(v).name.clone();
    let operand = |o: Operand| -> String {
        match o {
            Operand::Var(v) => name(v),
            Operand::Const(c) => format!("{c}ULL"),
        }
    };
    let mut out = String::new();
    out.push_str(&format!(
        "// Generated by the MoMA rewrite system (machine word: {} bits).\n",
        word_bits(kernel)
    ));
    out.push_str(&format!("__device__ void {}(", kernel.name));
    let mut first = true;
    for o in &kernel.outputs {
        if !first {
            out.push_str(", ");
        }
        out.push_str(&format!("{} *{}", c_ty(kernel.ty(*o)), name(*o)));
        first = false;
    }
    for p in &kernel.params {
        if !first {
            out.push_str(", ");
        }
        out.push_str(&format!("{} {}", c_ty(kernel.ty(*p)), name(*p)));
        first = false;
    }
    out.push_str(") {\n");

    // Local declarations: everything that is neither a parameter nor an output.
    let is_interface = |v: VarId| kernel.params.contains(&v) || kernel.outputs.contains(&v);
    for (i, var) in kernel.vars.iter().enumerate() {
        let id = VarId(i);
        if !is_interface(id) {
            out.push_str(&format!("  {} {};\n", c_ty(var.ty), var.name));
        }
    }

    // A destination that is an output is written through its pointer.
    let dst = |v: VarId| -> String {
        if kernel.outputs.contains(&v) {
            format!("*{}", name(v))
        } else {
            name(v)
        }
    };

    for (i, stmt) in kernel.body.iter().enumerate() {
        if let Some(c) = &stmt.comment {
            out.push_str(&format!("  // {c}\n"));
        }
        match &stmt.op {
            Op::Copy { src } => {
                out.push_str(&format!("  {} = {};\n", dst(stmt.dsts[0]), operand(*src)));
            }
            Op::AddWide { a, b, carry_in } => {
                let w = kernel.ty(stmt.dsts[1]).bits();
                let wide = c_wide_ty(kernel.ty(stmt.dsts[1]));
                let carry_term = carry_in
                    .map(|c| format!(" + ({wide}) {}", operand(c)))
                    .unwrap_or_default();
                out.push_str(&format!(
                    "  {{ {wide} s{i} = ({wide}) {} + ({wide}) {}{};\n",
                    operand(*a),
                    operand(*b),
                    carry_term
                ));
                out.push_str(&format!(
                    "    {} = ({}) s{i}; {} = (int) (s{i} >> {w}); }}\n",
                    dst(stmt.dsts[1]),
                    c_ty(kernel.ty(stmt.dsts[1])),
                    dst(stmt.dsts[0]),
                ));
            }
            Op::Sub { a, b, borrow_in } => {
                let borrow_term = borrow_in
                    .map(|c| format!(" - {}", operand(c)))
                    .unwrap_or_default();
                out.push_str(&format!(
                    "  {} = {} - {}{};\n",
                    dst(stmt.dsts[0]),
                    operand(*a),
                    operand(*b),
                    borrow_term
                ));
            }
            Op::MulWide { a, b } => {
                let w = kernel.ty(stmt.dsts[1]).bits();
                let wide = c_wide_ty(kernel.ty(stmt.dsts[1]));
                out.push_str(&format!(
                    "  {{ {wide} p{i} = ({wide}) {} * ({wide}) {};\n",
                    operand(*a),
                    operand(*b)
                ));
                out.push_str(&format!(
                    "    {} = ({}) p{i}; {} = ({}) (p{i} >> {w}); }}\n",
                    dst(stmt.dsts[1]),
                    c_ty(kernel.ty(stmt.dsts[1])),
                    dst(stmt.dsts[0]),
                    c_ty(kernel.ty(stmt.dsts[0])),
                ));
            }
            Op::MulLow { a, b } => {
                out.push_str(&format!(
                    "  {} = {} * {};\n",
                    dst(stmt.dsts[0]),
                    operand(*a),
                    operand(*b)
                ));
            }
            Op::Lt { a, b } => {
                out.push_str(&format!(
                    "  {} = {} < {};\n",
                    dst(stmt.dsts[0]),
                    operand(*a),
                    operand(*b)
                ));
            }
            Op::Eq { a, b } => {
                out.push_str(&format!(
                    "  {} = {} == {};\n",
                    dst(stmt.dsts[0]),
                    operand(*a),
                    operand(*b)
                ));
            }
            Op::BoolAnd { a, b } => {
                out.push_str(&format!(
                    "  {} = {} && {};\n",
                    dst(stmt.dsts[0]),
                    operand(*a),
                    operand(*b)
                ));
            }
            Op::BoolOr { a, b } => {
                out.push_str(&format!(
                    "  {} = {} || {};\n",
                    dst(stmt.dsts[0]),
                    operand(*a),
                    operand(*b)
                ));
            }
            Op::Select {
                cond,
                if_true,
                if_false,
            } => {
                out.push_str(&format!(
                    "  {} = {} ? {} : {};\n",
                    dst(stmt.dsts[0]),
                    operand(*cond),
                    operand(*if_true),
                    operand(*if_false)
                ));
            }
            Op::ShrMulti { words, shift } => {
                emit_shr_multi_c(kernel, &mut out, stmt, words, *shift, &operand, &dst);
            }
            Op::MacReduceMod { pairs, q, .. } => {
                // Accumulation loop: exact double-word sum, one reduction. The
                // modulus is a compile-time constant, so the C compiler strength-
                // reduces the division itself.
                out.push_str(&format!("  {{ unsigned __int128 acc{i} = 0;\n"));
                for (a, b) in pairs {
                    out.push_str(&format!(
                        "    acc{i} += (unsigned __int128) {} * (unsigned __int128) {};\n",
                        operand(*a),
                        operand(*b)
                    ));
                }
                out.push_str(&format!(
                    "    {} = ({}) (acc{i} % {q}ULL); }}\n",
                    dst(stmt.dsts[0]),
                    c_ty(kernel.ty(stmt.dsts[0])),
                ));
            }
            Op::AddMod { .. }
            | Op::SubMod { .. }
            | Op::MulModBarrett { .. }
            | Op::MulAddMod { .. } => {
                unreachable!("checked by check_lowered")
            }
        }
    }
    out.push_str("}\n");
    Ok(out)
}

/// Emits word-level shift/or code for a multi-word right shift by a constant.
#[allow(clippy::too_many_arguments)]
fn emit_shr_multi_c(
    kernel: &Kernel,
    out: &mut String,
    stmt: &crate::Stmt,
    words: &[Operand],
    shift: u32,
    operand: &dyn Fn(Operand) -> String,
    dst: &dyn Fn(VarId) -> String,
) {
    let word_bits = shr_word_bits(kernel, words);
    let n = words.len() as u32;
    let limb_shift = shift / word_bits;
    let bit_shift = shift % word_bits;
    // Source words are most significant first: words[0] is limb n-1 (counting LSB = 0).
    let src_limb = |limb: u32| -> Option<String> {
        if limb >= n {
            None
        } else {
            Some(operand(words[(n - 1 - limb) as usize]))
        }
    };
    // Destinations are most significant first too.
    let m = stmt.dsts.len() as u32;
    for (di, d) in stmt.dsts.iter().enumerate() {
        let limb = m - 1 - di as u32; // output limb index, LSB = 0
        let lo_src = limb + limb_shift;
        let mut expr = match src_limb(lo_src) {
            Some(s) if bit_shift > 0 => format!("({s} >> {bit_shift})"),
            Some(s) => s,
            None => "0ULL".to_string(),
        };
        if bit_shift > 0 {
            if let Some(hi) = src_limb(lo_src + 1) {
                expr = format!("{expr} | ({hi} << {})", word_bits - bit_shift);
            }
        }
        out.push_str(&format!("  {} = {};\n", dst(*d), expr));
    }
}

/// Emits safe Rust source for a fully lowered kernel: one function that takes
/// the parameters as a `[u64; P]` array (destructured into their names, in
/// signature order) and returns the outputs as a `[u64; O]` array, with `u128`
/// for the intermediate double words and `bool` for flags.
///
/// Words narrower than 64 bits are held in `u64`s and every such destination
/// is masked to its width, so on inputs that fit their parameters the function
/// computes exactly what [`interp::run`](crate::interp::run) computes. A name
/// that nothing reads is bound with a `_` prefix, literal zero addends are
/// left out, and no expression carries parentheses it does not need, so the
/// kernels the rewrite system emits build without `#[allow]`s under the
/// workspace's `clippy -D warnings`.
///
/// # Errors
///
/// Returns [`EmitError`] if the kernel is not fully lowered.
pub fn emit_rust(kernel: &Kernel) -> Result<String, EmitError> {
    check_lowered(kernel)?;
    let mut read = vec![false; kernel.vars.len()];
    for v in kernel
        .body
        .iter()
        .flat_map(|stmt| rust_reads(kernel, stmt))
        .filter_map(|o| o.as_var())
        .chain(kernel.outputs.iter().copied())
    {
        read[v.0] = true;
    }
    let is_flag = |v: VarId| kernel.ty(v) == Ty::Flag;
    let name = |v: VarId| kernel.var(v).name.as_str();
    // An operand read as a word, as a double word, and as a flag.
    let word = |o: Operand| match o {
        Operand::Var(v) if is_flag(v) => format!("u64::from({})", name(v)),
        Operand::Var(v) => name(v).to_string(),
        Operand::Const(c) => format!("{c}u64"),
    };
    let wide = |o: Operand| match o {
        Operand::Var(v) => format!("u128::from({})", name(v)),
        Operand::Const(c) => format!("{c}u128"),
    };
    let flag = |o: Operand| match o {
        Operand::Var(v) if is_flag(v) => name(v).to_string(),
        Operand::Var(v) => format!("{} != 0", name(v)),
        Operand::Const(c) => (c != 0).to_string(),
    };
    // A destination's read as a word or as a flag, by its own type.
    let value = |d: VarId, o: Operand| if is_flag(d) { flag(o) } else { word(o) };
    // `let dst = expr;`, masked to the width of a sub-64-bit word.
    let bind = |out: &mut String, d: VarId, expr: String| {
        let (underscore, name) = (if read[d.0] { "" } else { "_" }, name(d));
        let written = match kernel.ty(d) {
            Ty::UInt(w) if w < 64 && expr.contains(' ') => {
                writeln!(
                    out,
                    "    let {underscore}{name} = ({expr}) & {:#x};",
                    mask(w)
                )
            }
            Ty::UInt(w) if w < 64 => {
                writeln!(out, "    let {underscore}{name} = {expr} & {:#x};", mask(w))
            }
            _ => writeln!(out, "    let {underscore}{name} = {expr};"),
        };
        written.expect("writing to a String");
    };

    let mut out = format!(
        "/// Generated by the MoMA rewrite system (machine word: {} bits).\n",
        word_bits(kernel)
    );
    let params: Vec<String> = kernel
        .params
        .iter()
        .map(|&p| {
            let underscore = if read[p.0] { "" } else { "_" };
            format!("{underscore}{}", name(p))
        })
        .collect();
    out.push_str(&format!(
        "pub fn {}([{}]: [u64; {}]) -> [u64; {}] {{\n",
        kernel.name,
        params.join(", "),
        params.len(),
        kernel.outputs.len()
    ));
    for &p in &kernel.params {
        if is_flag(p) && read[p.0] {
            out.push_str(&format!("    let {0} = {0} != 0;\n", name(p)));
        }
    }

    for (i, stmt) in kernel.body.iter().enumerate() {
        if let Some(c) = &stmt.comment {
            out.push_str(&format!("    // {c}\n"));
        }
        let d = stmt.dsts[0];
        match &stmt.op {
            Op::Copy { src } => bind(&mut out, d, value(d, *src)),
            Op::AddWide { a, b, carry_in } => {
                // Literal zero addends are left out; an all-zero sum is `0u128`.
                let terms: Vec<String> = [Some(*a), Some(*b), *carry_in]
                    .into_iter()
                    .flatten()
                    .filter(|o| !o.is_const(0))
                    .map(wide)
                    .collect();
                let sum = if terms.is_empty() {
                    "0u128".to_string()
                } else {
                    terms.join(" + ")
                };
                out.push_str(&format!("    let s{i} = {sum};\n"));
                let w = kernel.ty(stmt.dsts[1]).bits();
                bind(&mut out, d, format!("s{i} >> {w} != 0"));
                bind(&mut out, stmt.dsts[1], format!("s{i} as u64"));
            }
            Op::Sub { a, b, borrow_in } => {
                let borrow_term = borrow_in
                    .map(|c| format!(".wrapping_sub({})", word(c)))
                    .unwrap_or_default();
                let diff = format!("{}.wrapping_sub({}){borrow_term}", word(*a), word(*b));
                bind(&mut out, d, diff);
            }
            Op::MulWide { a, b } => {
                out.push_str(&format!("    let p{i} = {} * {};\n", wide(*a), wide(*b)));
                let w = kernel.ty(stmt.dsts[1]).bits();
                bind(&mut out, d, format!("(p{i} >> {w}) as u64"));
                bind(&mut out, stmt.dsts[1], format!("p{i} as u64"));
            }
            Op::MulLow { a, b } => {
                bind(
                    &mut out,
                    d,
                    format!("{}.wrapping_mul({})", word(*a), word(*b)),
                );
            }
            Op::Lt { a, b } => bind(&mut out, d, format!("{} < {}", word(*a), word(*b))),
            Op::Eq { a, b } => bind(&mut out, d, format!("{} == {}", word(*a), word(*b))),
            Op::BoolAnd { a, b } => bind(&mut out, d, format!("{} && {}", flag(*a), flag(*b))),
            Op::BoolOr { a, b } => bind(&mut out, d, format!("{} || {}", flag(*a), flag(*b))),
            Op::Select {
                cond,
                if_true,
                if_false,
            } => {
                let select = format!(
                    "if {} {{ {} }} else {{ {} }}",
                    flag(*cond),
                    value(d, *if_true),
                    value(d, *if_false)
                );
                bind(&mut out, d, select);
            }
            Op::ShrMulti { words, shift } => {
                let word_bits = shr_word_bits(kernel, words);
                let n = words.len() as u32;
                let limb_shift = shift / word_bits;
                let bit_shift = shift % word_bits;
                let src_limb = |limb: u32| (limb < n).then(|| word(words[(n - 1 - limb) as usize]));
                let m = stmt.dsts.len() as u32;
                for (di, &dst) in stmt.dsts.iter().enumerate() {
                    let lo_src = limb_shift + m - 1 - di as u32;
                    let lo = match src_limb(lo_src) {
                        Some(s) if bit_shift > 0 => format!("{s} >> {bit_shift}"),
                        Some(s) => s,
                        None => "0u64".to_string(),
                    };
                    let expr = match src_limb(lo_src + 1) {
                        Some(hi) if bit_shift > 0 => {
                            format!("({lo}) | ({hi} << {})", word_bits - bit_shift)
                        }
                        _ => lo,
                    };
                    bind(&mut out, dst, expr);
                }
            }
            Op::MacReduceMod { pairs, q, .. } => {
                let terms: Vec<String> = pairs
                    .iter()
                    .map(|(a, b)| format!("{} * {}", wide(*a), wide(*b)))
                    .collect();
                let sum = match terms.as_slice() {
                    [term] => term.clone(),
                    _ => format!("({})", terms.join(" + ")),
                };
                bind(&mut out, d, format!("({sum} % {q}u128) as u64"));
            }
            Op::AddMod { .. }
            | Op::SubMod { .. }
            | Op::MulModBarrett { .. }
            | Op::MulAddMod { .. } => {
                unreachable!("checked by check_lowered")
            }
        }
    }
    let outputs: Vec<String> = kernel
        .outputs
        .iter()
        .map(|&o| word(Operand::Var(o)))
        .collect();
    out.push_str(&format!("    [{}]\n}}\n", outputs.join(", ")));
    Ok(out)
}

/// The operands the emitted Rust for `stmt` reads: all of them, except the
/// source words of a multi-word shift that lie wholly below the shift or above
/// the words it keeps.
fn rust_reads(kernel: &Kernel, stmt: &crate::Stmt) -> Vec<Operand> {
    match &stmt.op {
        Op::ShrMulti { words, shift } => {
            let word_bits = shr_word_bits(kernel, words);
            let n = words.len() as u32;
            let (limb_shift, bit_shift) = (shift / word_bits, shift % word_bits);
            let top = limb_shift + stmt.dsts.len() as u32 + u32::from(bit_shift > 0);
            (limb_shift..top.min(n))
                .map(|limb| words[(n - 1 - limb) as usize])
                .collect()
        }
        op => op.operands(),
    }
}

/// The word width of a multi-word shift: that of its first variable word
/// (constants are typed by their use sites), as the interpreter reads it.
fn shr_word_bits(kernel: &Kernel, words: &[Operand]) -> u32 {
    words
        .iter()
        .find_map(|o| o.as_var().map(|v| kernel.ty(v).bits()))
        .unwrap_or(64)
}

/// The low `bits` bits set (`bits < 64`).
fn mask(bits: u32) -> u64 {
    (1u64 << bits) - 1
}

/// The machine word a lowered kernel was split to: its widest word type.
fn word_bits(kernel: &Kernel) -> u32 {
    kernel
        .vars
        .iter()
        .filter_map(|v| match v.ty {
            Ty::UInt(w) => Some(w),
            Ty::Flag => None,
        })
        .max()
        .unwrap_or(64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{KernelBuilder, Ty};

    fn addmod_like_kernel() -> Kernel {
        // A miniature version of Listing 2's _daddmod structure at word level.
        let mut kb = KernelBuilder::new("saddmod");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let q = kb.param("q", Ty::UInt(64));
        let carry = kb.local("carry", Ty::Flag);
        let sum = kb.local("sum", Ty::UInt(64));
        let lt = kb.local("lt", Ty::Flag);
        let diff = kb.local("diff", Ty::UInt(64));
        let c = kb.output("c", Ty::UInt(64));
        kb.push(
            vec![carry, sum],
            Op::AddWide {
                a: a.into(),
                b: b.into(),
                carry_in: None,
            },
        );
        kb.push(
            vec![lt],
            Op::Lt {
                a: sum.into(),
                b: q.into(),
            },
        );
        kb.push(
            vec![diff],
            Op::Sub {
                a: sum.into(),
                b: q.into(),
                borrow_in: None,
            },
        );
        kb.push(
            vec![c],
            Op::Select {
                cond: lt.into(),
                if_true: sum.into(),
                if_false: diff.into(),
            },
        );
        kb.build()
    }

    #[test]
    fn cuda_emission_structure() {
        let src = emit_cuda(&addmod_like_kernel()).unwrap();
        assert!(src
            .contains("__device__ void saddmod(uint64_t *c, uint64_t a, uint64_t b, uint64_t q)"));
        assert!(src.contains("unsigned __int128"));
        assert!(src.contains("*c = lt ? sum : diff;"));
        assert!(src.contains("diff = sum - q;"));
    }

    #[test]
    fn rust_emission_structure() {
        let src = emit_rust(&addmod_like_kernel()).unwrap();
        assert!(src.contains("(machine word: 64 bits)"));
        assert!(src.contains("pub fn saddmod([a, b, q]: [u64; 3]) -> [u64; 1]"));
        assert!(src.contains("let _carry = s0 >> 64 != 0;"));
        assert!(src.contains("u128::from(a)"));
        assert!(src.contains("wrapping_sub"));
        assert!(src.ends_with("    [c]\n}\n"));
    }

    #[test]
    fn refuses_unlowered_kernels() {
        let mut kb = KernelBuilder::new("wide");
        let a = kb.param("a", Ty::UInt(128));
        let o = kb.output("o", Ty::UInt(128));
        kb.push(vec![o], Op::Copy { src: a.into() });
        assert!(matches!(
            emit_cuda(&kb.build()),
            Err(EmitError::NotLowered { .. })
        ));

        let mut kb = KernelBuilder::new("hi");
        let a = kb.param("a", Ty::UInt(64));
        let b = kb.param("b", Ty::UInt(64));
        let q = kb.param("q", Ty::UInt(64));
        let o = kb.output("o", Ty::UInt(64));
        kb.push(
            vec![o],
            Op::AddMod {
                a: a.into(),
                b: b.into(),
                q: q.into(),
            },
        );
        assert!(matches!(
            emit_rust(&kb.build()),
            Err(EmitError::HighLevelOp { stmt: 0 })
        ));
    }

    #[test]
    fn shr_multi_emission() {
        let mut kb = KernelBuilder::new("qshr");
        let w3 = kb.param("t3", Ty::UInt(64));
        let w2 = kb.param("t2", Ty::UInt(64));
        let w1 = kb.param("t1", Ty::UInt(64));
        let w0 = kb.param("t0", Ty::UInt(64));
        let hi = kb.output("hi", Ty::UInt(64));
        let lo = kb.output("lo", Ty::UInt(64));
        kb.push(
            vec![hi, lo],
            Op::ShrMulti {
                words: vec![w3.into(), w2.into(), w1.into(), w0.into()],
                shift: 122,
            },
        );
        let src = emit_cuda(&kb.build()).unwrap();
        // shift 122 = 1 limb + 58 bits: lo output reads t1/t2, hi output reads t2/t3.
        assert!(src.contains(">> 58"));
        assert!(src.contains("<< 6"));
    }
}
