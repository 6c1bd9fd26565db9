//! The compiler facade: spec in, generated kernel out.

use moma_ir::cost::OpCounts;
use moma_ir::emit::{emit_cuda, emit_rust};
use moma_ir::{interp, Kernel};
use moma_rewrite::{builders, lower, lower_with_trace, KernelSpec, Lowered, LoweringConfig};

/// A generated, fully lowered cryptographic kernel.
#[derive(Debug, Clone)]
pub struct GeneratedKernel {
    /// The spec the kernel was generated from.
    pub spec: KernelSpec,
    /// The machine-level kernel IR.
    pub kernel: Kernel,
    /// Per-stage lowering statistics.
    pub lowered: Lowered,
    /// Emitted CUDA-like C source (what the paper's tool chain hands to nvcc).
    pub cuda_source: String,
    /// Emitted Rust source: what the fixed kernel set is built from natively
    /// (`moma-gpu`'s build script compiles this emitter's output for the
    /// default-config modmul at 128 and 256 bits, and batch launches of those
    /// kernels run it).
    pub rust_source: String,
    /// Static word-level operation counts (the cost model input).
    pub op_counts: OpCounts,
}

impl GeneratedKernel {
    /// Executes the generated kernel once on the given machine words (one `u64` per
    /// surviving parameter, in signature order) by interpretation.
    ///
    /// # Errors
    ///
    /// Returns the interpreter error if the inputs do not match the kernel signature.
    pub fn run(&self, inputs: &[u64]) -> Result<Vec<u64>, interp::InterpError> {
        interp::run(&self.kernel, inputs).map(|r| r.outputs)
    }

    /// Number of machine words per original value (padded width / word width).
    pub fn words_per_value(&self) -> usize {
        (self.spec.padded_bits() / self.lowered.word_bits) as usize
    }
}

/// The compiler: a [`LoweringConfig`] plus convenience entry points.
///
/// # Example
///
/// ```
/// use moma::{Compiler, KernelOp, KernelSpec, MulAlgorithm};
///
/// let compiler = Compiler::new(moma::LoweringConfig {
///     mul_algorithm: MulAlgorithm::Karatsuba,
///     ..Default::default()
/// });
/// let butterfly = compiler.compile(&KernelSpec::new(KernelOp::Butterfly, 384));
/// assert!(butterfly.kernel.is_machine_level(64));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Compiler {
    /// The lowering configuration used for every kernel.
    pub config: LoweringConfig,
}

impl Compiler {
    /// Creates a compiler with an explicit configuration.
    pub fn new(config: LoweringConfig) -> Self {
        Compiler { config }
    }

    /// Generates, lowers, and emits one kernel.
    ///
    /// # Panics
    ///
    /// Panics if emission fails, which would indicate an incomplete lowering (a bug).
    pub fn compile(&self, spec: &KernelSpec) -> GeneratedKernel {
        let hl = builders::build(spec);
        let lowered = lower(&hl, &self.config);
        let cuda_source = emit_cuda(&lowered.kernel).expect("lowered kernels are emittable");
        let rust_source = emit_rust(&lowered.kernel).expect("lowered kernels are emittable");
        GeneratedKernel {
            spec: *spec,
            kernel: lowered.kernel.clone(),
            op_counts: lowered.op_counts(),
            cuda_source,
            rust_source,
            lowered,
        }
    }

    /// Like [`Compiler::compile`], but also returns the per-stage rewrite trace
    /// (the §4 worked example as the tool performs it).
    pub fn compile_with_trace(
        &self,
        spec: &KernelSpec,
    ) -> (GeneratedKernel, Vec<(String, String)>) {
        let hl = builders::build(spec);
        let (lowered, trace) = lower_with_trace(&hl, &self.config);
        let cuda_source = emit_cuda(&lowered.kernel).expect("lowered kernels are emittable");
        let rust_source = emit_rust(&lowered.kernel).expect("lowered kernels are emittable");
        (
            GeneratedKernel {
                spec: *spec,
                kernel: lowered.kernel.clone(),
                op_counts: lowered.op_counts(),
                cuda_source,
                rust_source,
                lowered,
            },
            trace,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_rewrite::KernelOp;

    #[test]
    fn compile_produces_all_artifacts() {
        let compiler = Compiler::default();
        let k = compiler.compile(&KernelSpec::new(KernelOp::ModMul, 256));
        assert!(k.kernel.is_machine_level(64));
        assert!(k.cuda_source.contains("moma_modmul_256"));
        assert!(k.rust_source.contains("pub fn moma_modmul_256"));
        assert!(k.op_counts.multiplications() >= 16);
        assert_eq!(k.words_per_value(), 4);
    }

    #[test]
    fn generated_modadd_runs_correctly() {
        let compiler = Compiler::default();
        let k = compiler.compile(&KernelSpec::new(KernelOp::ModAdd, 128));
        // Params: a_hi, a_lo, b_hi, b_lo, q_hi, q_lo. Compute (3 + 5) mod 7 = 1.
        let out = k.run(&[0, 3, 0, 5, 0, 7]).unwrap();
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn trace_is_returned() {
        let compiler = Compiler::default();
        let (_, trace) = compiler.compile_with_trace(&KernelSpec::new(KernelOp::ModAdd, 128));
        assert!(trace.len() >= 3);
    }
}
