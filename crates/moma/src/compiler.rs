//! The compiler facade: spec in, generated kernel out.

use moma_ir::cost::OpCounts;
use moma_ir::emit::{emit_cuda, emit_rust};
use moma_ir::{interp, Kernel};
use moma_rewrite::{
    builders, lower, lower_with_trace, KernelSpec, Lowered, LoweringConfig, StageInfo,
};

/// A generated, fully lowered cryptographic kernel. Its sources are emitted
/// from [`GeneratedKernel::kernel`] on call ([`GeneratedKernel::cuda_source`],
/// [`GeneratedKernel::rust_source`]); compiling a kernel emits no text.
#[derive(Debug, Clone)]
pub struct GeneratedKernel {
    /// The spec the kernel was generated from.
    pub spec: KernelSpec,
    /// The machine-level kernel IR.
    pub kernel: Kernel,
    /// Per-stage lowering statistics, outermost width first.
    pub stages: Vec<StageInfo>,
    /// The machine word width the kernel was lowered to.
    pub word_bits: u32,
    /// Static word-level operation counts (the cost model input).
    pub op_counts: OpCounts,
}

impl GeneratedKernel {
    fn new(spec: KernelSpec, lowered: Lowered) -> Self {
        GeneratedKernel {
            spec,
            op_counts: lowered.op_counts(),
            kernel: lowered.kernel,
            stages: lowered.stages,
            word_bits: lowered.word_bits,
        }
    }

    /// Emits the CUDA-like C source (what the paper's tool chain hands to nvcc).
    ///
    /// # Panics
    ///
    /// Panics if emission fails, which would indicate an incomplete lowering (a bug).
    pub fn cuda_source(&self) -> String {
        emit_cuda(&self.kernel).expect("lowered kernels are emittable")
    }

    /// Emits the Rust source: what the fixed kernel set is built from natively
    /// (`moma-gpu`'s build script compiles this emitter's output for the
    /// default-config modmul at 128 and 256 bits, and batch launches of those
    /// kernels run it).
    ///
    /// # Panics
    ///
    /// Panics if emission fails, which would indicate an incomplete lowering (a bug).
    pub fn rust_source(&self) -> String {
        emit_rust(&self.kernel).expect("lowered kernels are emittable")
    }

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
        (self.spec.padded_bits() / self.word_bits) as usize
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

    /// Generates and lowers one kernel; the sources are emitted on call
    /// ([`GeneratedKernel::cuda_source`], [`GeneratedKernel::rust_source`]).
    pub fn compile(&self, spec: &KernelSpec) -> GeneratedKernel {
        GeneratedKernel::new(*spec, lower(&builders::build(spec), &self.config))
    }

    /// Like [`Compiler::compile`], but also returns the per-stage rewrite trace
    /// (the §4 worked example as the tool performs it).
    pub fn compile_with_trace(
        &self,
        spec: &KernelSpec,
    ) -> (GeneratedKernel, Vec<(String, String)>) {
        let (lowered, trace) = lower_with_trace(&builders::build(spec), &self.config);
        (GeneratedKernel::new(*spec, lowered), trace)
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
        assert!(k.cuda_source().contains("moma_modmul_256"));
        assert!(k.rust_source().contains("pub fn moma_modmul_256"));
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
