//! Builders for the high-level kernels used in the paper's evaluation.
//!
//! Each builder produces a [`HighLevelKernel`]: a kernel whose body is a handful of
//! high-level modular operations over the *padded* power-of-two width, together with
//! the bookkeeping the lowering pipeline needs (the actual value width, so that the
//! zero-pruning optimization of §4 can remove the operations on known-zero words).

use moma_ir::{Kernel, KernelBuilder, Op, Ty};

/// The cryptographic kernels the paper evaluates (Figures 2–5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelOp {
    /// `c = (a + b) mod q` — element of vector addition (Figure 2).
    ModAdd,
    /// `c = (a - b) mod q` — element of vector subtraction (Figure 2).
    ModSub,
    /// `c = (a · b) mod q` — element of point-wise vector multiplication (Figure 2).
    ModMul,
    /// `y = (a · x + y) mod q` — element of the BLAS `axpy` operation (Figure 2).
    Axpy,
    /// The radix-2 NTT butterfly: `(x, y) -> (x + w·y mod q, x - w·y mod q)`
    /// (one modular addition, one subtraction, one multiplication — §5.3).
    Butterfly,
}

impl KernelOp {
    /// Short name used for kernel naming and reporting.
    pub fn name(&self) -> &'static str {
        match self {
            KernelOp::ModAdd => "modadd",
            KernelOp::ModSub => "modsub",
            KernelOp::ModMul => "modmul",
            KernelOp::Axpy => "axpy",
            KernelOp::Butterfly => "butterfly",
        }
    }

    /// All kernels, in the order the evaluation reports them.
    pub fn all() -> [KernelOp; 5] {
        [
            KernelOp::ModMul,
            KernelOp::ModAdd,
            KernelOp::ModSub,
            KernelOp::Axpy,
            KernelOp::Butterfly,
        ]
    }
}

/// A request for a generated kernel: which operation, at which input bit-width.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct KernelSpec {
    /// The operation.
    pub op: KernelOp,
    /// The actual input bit-width λ (need not be a power of two: 381- and 753-bit style
    /// widths are padded and pruned as in §4).
    pub bits: u32,
}

impl KernelSpec {
    /// Creates a spec.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is zero or below 8.
    pub fn new(op: KernelOp, bits: u32) -> Self {
        assert!(bits >= 8, "input bit-width must be at least 8 bits");
        KernelSpec { op, bits }
    }

    /// The padded power-of-two width the kernel is generated at.
    pub fn padded_bits(&self) -> u32 {
        self.bits.next_power_of_two()
    }

    /// The modulus bit-width: the paper uses moduli of `k − 4` bits for `k`-bit kernels
    /// so that the Barrett constant fits in `k` bits (§5.2).
    pub fn modulus_bits(&self) -> u32 {
        self.bits - 4
    }
}

/// A built high-level kernel plus the metadata the lowering pipeline needs.
#[derive(Debug, Clone)]
pub struct HighLevelKernel {
    /// The kernel (all values at the padded power-of-two width).
    pub kernel: Kernel,
    /// The spec this kernel was built from.
    pub spec: KernelSpec,
    /// Number of known-zero high bits in every parameter (padded − actual width).
    pub zero_top_bits: u32,
}

/// Builds the high-level kernel for a spec.
///
/// Every parameter and output has the padded power-of-two width; the difference between
/// the padded width and the requested width is recorded in
/// [`HighLevelKernel::zero_top_bits`] and exploited by zero pruning during lowering.
pub fn build(spec: &KernelSpec) -> HighLevelKernel {
    let width = Ty::UInt(spec.padded_bits());
    let mbits = spec.modulus_bits();
    let name = format!("moma_{}_{}", spec.op.name(), spec.bits);
    let mut kb = KernelBuilder::new(name);

    let kernel = match spec.op {
        KernelOp::ModAdd | KernelOp::ModSub => {
            let a = kb.param("a", width);
            let b = kb.param("b", width);
            let q = kb.param("q", width);
            let c = kb.output("c", width);
            let op = if spec.op == KernelOp::ModAdd {
                Op::AddMod {
                    a: a.into(),
                    b: b.into(),
                    q: q.into(),
                }
            } else {
                Op::SubMod {
                    a: a.into(),
                    b: b.into(),
                    q: q.into(),
                }
            };
            kb.push_commented(
                vec![c],
                op,
                format!(
                    "c = (a {} b) mod q",
                    if spec.op == KernelOp::ModAdd {
                        "+"
                    } else {
                        "-"
                    }
                ),
            );
            kb.build()
        }
        KernelOp::ModMul => {
            let a = kb.param("a", width);
            let b = kb.param("b", width);
            let q = kb.param("q", width);
            let mu = kb.param("mu", width);
            let c = kb.output("c", width);
            kb.push_commented(
                vec![c],
                Op::MulModBarrett {
                    a: a.into(),
                    b: b.into(),
                    q: q.into(),
                    mu: mu.into(),
                    mbits,
                },
                "c = (a * b) mod q, Barrett",
            );
            kb.build()
        }
        KernelOp::Axpy => {
            // y' = (a * x + y) mod q
            let a = kb.param("a", width);
            let x = kb.param("x", width);
            let y = kb.param("y", width);
            let q = kb.param("q", width);
            let mu = kb.param("mu", width);
            let ax = kb.local("ax", width);
            let y_out = kb.output("y_out", width);
            kb.push_commented(
                vec![ax],
                Op::MulModBarrett {
                    a: a.into(),
                    b: x.into(),
                    q: q.into(),
                    mu: mu.into(),
                    mbits,
                },
                "ax = a * x mod q",
            );
            kb.push_commented(
                vec![y_out],
                Op::AddMod {
                    a: ax.into(),
                    b: y.into(),
                    q: q.into(),
                },
                "y = ax + y mod q",
            );
            kb.build()
        }
        KernelOp::Butterfly => {
            // (x, y) -> (x + w*y, x - w*y) mod q: the Cooley–Tukey decimation-in-time
            // butterfly the NTT executes (n log n)/2 times.
            let x = kb.param("x", width);
            let y = kb.param("y", width);
            let w = kb.param("w", width);
            let q = kb.param("q", width);
            let mu = kb.param("mu", width);
            let wy = kb.local("wy", width);
            let x_out = kb.output("x_out", width);
            let y_out = kb.output("y_out", width);
            kb.push_commented(
                vec![wy],
                Op::MulModBarrett {
                    a: w.into(),
                    b: y.into(),
                    q: q.into(),
                    mu: mu.into(),
                    mbits,
                },
                "wy = w * y mod q",
            );
            kb.push_commented(
                vec![x_out],
                Op::AddMod {
                    a: x.into(),
                    b: wy.into(),
                    q: q.into(),
                },
                "x' = x + wy mod q",
            );
            kb.push_commented(
                vec![y_out],
                Op::SubMod {
                    a: x.into(),
                    b: wy.into(),
                    q: q.into(),
                },
                "y' = x - wy mod q",
            );
            kb.build()
        }
    };

    HighLevelKernel {
        kernel,
        spec: *spec,
        zero_top_bits: spec.padded_bits() - spec.bits,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_ir::validate::validate;

    #[test]
    fn spec_padding_and_modulus_bits() {
        let s = KernelSpec::new(KernelOp::ModMul, 384);
        assert_eq!(s.padded_bits(), 512);
        assert_eq!(s.modulus_bits(), 380);
        let s = KernelSpec::new(KernelOp::ModAdd, 256);
        assert_eq!(s.padded_bits(), 256);
        assert_eq!(s.modulus_bits(), 252);
    }

    #[test]
    fn all_builders_produce_valid_kernels() {
        for op in KernelOp::all() {
            for bits in [64u32, 128, 256, 381, 384, 753, 768, 1024] {
                let hl = build(&KernelSpec::new(op, bits));
                validate(&hl.kernel).unwrap_or_else(|e| panic!("{:?} {bits}: {e}", op));
                assert_eq!(hl.kernel.max_width(), bits.next_power_of_two());
                assert_eq!(hl.zero_top_bits, bits.next_power_of_two() - bits);
            }
        }
    }

    #[test]
    fn butterfly_has_three_modular_ops() {
        let hl = build(&KernelSpec::new(KernelOp::Butterfly, 256));
        assert_eq!(hl.kernel.len(), 3);
        assert_eq!(hl.kernel.outputs.len(), 2);
        assert_eq!(hl.kernel.params.len(), 5);
    }

    #[test]
    fn param_lookup() {
        let hl = build(&KernelSpec::new(KernelOp::ModAdd, 128));
        let kernel = &hl.kernel;
        let has_param = |name: &str| kernel.params.iter().any(|p| kernel.var(*p).name == name);
        assert!(has_param("q"));
        assert!(!has_param("nonexistent"));
    }

    #[test]
    #[should_panic(expected = "at least 8 bits")]
    fn tiny_widths_rejected() {
        KernelSpec::new(KernelOp::ModAdd, 4);
    }
}
