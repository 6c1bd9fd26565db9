//! Native twins of the fixed generated-kernel set.
//!
//! `build.rs` lowers a fixed set of kernel specs with the default lowering
//! configuration, emits each with `moma_ir::emit::emit_rust`, and rustc builds
//! the emitted functions into this module, each with an element-major batch
//! loop, under a table keyed by [`moma_ir::Kernel::fingerprint`]. [`twin`] is
//! the only way in: [`crate::launch_compiled_batch`] asks it for every
//! compiled kernel it is handed, and runs the bytecode executor when it gets
//! nothing back.

use moma_ir::CompiledKernel;

/// A batch loop over element-major rows: `inputs` holds whole parameter rows,
/// `out` the matching output rows.
type BatchFn = fn(&[u64], &mut [u64]);

/// One member of the fixed set: the fingerprint of the lowered kernel it was
/// emitted from, and its batch loop.
struct Twin {
    fingerprint: u64,
    run: BatchFn,
}

include!(concat!(env!("OUT_DIR"), "/native_kernels.rs"));

/// The native batch loop built from the same lowered kernel as `compiled`, if
/// the fixed set has one.
pub(crate) fn twin(compiled: &CompiledKernel) -> Option<BatchFn> {
    TWINS
        .iter()
        .find(|t| t.fingerprint == compiled.fingerprint())
        .map(|t| t.run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::{launch_compiled_batch, NATIVE_MIN_RANGE};
    use moma::{KernelOp, KernelSpec, MulAlgorithm, Session};
    use moma_ir::{interp, Kernel};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The fixed set, as `build.rs` lists it.
    const FIXED_SET: [(KernelOp, u32); 2] = [(KernelOp::ModMul, 128), (KernelOp::ModMul, 256)];

    /// One parameter row: `word(operand, i)` gives word `i` (most significant
    /// first) of the operand a parameter belongs to — `a`, `b`, `q` or `mu`,
    /// the prefix of the parameter's name.
    fn row(kernel: &Kernel, word: impl Fn(&str, usize) -> u64) -> Vec<u64> {
        let mut seen = std::collections::HashMap::new();
        kernel
            .params
            .iter()
            .map(|&p| {
                let operand = kernel.var(p).name.split('_').next().expect("a name");
                let i = seen.entry(operand).or_insert(0);
                *i += 1;
                word(operand, *i - 1)
            })
            .collect()
    }

    /// Random rows, then the edges: all-ones words, `q = 2^bits − 1`, zero
    /// operands, and `a = b = q − 1`.
    fn batch(kernel: &Kernel, random: usize, rng: &mut StdRng) -> Vec<u64> {
        let mut flat: Vec<u64> = (0..random * kernel.params.len())
            .map(|_| rng.gen())
            .collect();
        let words = kernel.params.len() / 4;
        let q: Vec<u64> = (0..words).map(|_| rng.gen::<u64>() | 1).collect();
        let other: Vec<u64> = (0..4 * words).map(|_| rng.gen()).collect();
        flat.extend(row(kernel, |_, _| u64::MAX));
        flat.extend(row(kernel, |operand, i| match operand {
            "q" => u64::MAX,
            _ => other[i],
        }));
        flat.extend(row(kernel, |operand, i| match operand {
            "a" | "b" => 0,
            _ => other[words + i],
        }));
        flat.extend(row(kernel, |operand, i| match operand {
            "q" => q[i],
            "a" | "b" => q[i] - u64::from(i + 1 == words),
            _ => other[2 * words + i],
        }));
        flat
    }

    /// Launches `kernel` on a batch long enough for a twin to run on two
    /// ranges, checks every element against the tree interpreter, and returns
    /// how many ranges ran.
    fn assert_launch_matches_interpreter(kernel: &Kernel, rng: &mut StdRng) -> usize {
        let compiled = CompiledKernel::compile(kernel).expect("lowered kernels compile");
        let flat = batch(kernel, NATIVE_MIN_RANGE + 1021, rng);
        let (out, stats) = launch_compiled_batch(&compiled, &flat);
        let (p, o) = (compiled.param_count(), compiled.output_count());
        assert_eq!(stats.threads, flat.len() / p);
        for (i, (params, outputs)) in flat.chunks(p).zip(out.chunks(o)).enumerate() {
            let oracle = interp::run(kernel, params).expect("the interpreter runs it");
            assert_eq!(outputs, oracle.outputs, "{} element {i}", kernel.name);
        }
        stats.workers
    }

    #[test]
    fn every_twin_matches_the_interpreter_on_random_and_edge_inputs() {
        let session = Session::default();
        let mut rng = StdRng::seed_from_u64(7);
        assert_eq!(TWINS.len(), FIXED_SET.len());
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for (op, bits) in FIXED_SET {
            let kernel = &session.compile(&KernelSpec::new(op, bits)).kernel;
            let ranges = assert_launch_matches_interpreter(kernel, &mut rng);
            assert_eq!(
                ranges,
                cores.min(2),
                "{op:?} {bits}: one range per 8192 rows"
            );
        }
    }

    #[test]
    fn session_modmul_kernels_hit_the_native_table() {
        // `multiword_inline` compiles exactly these; a miss would put its two
        // batches back on the bytecode executor without failing anything else.
        let session = Session::default();
        for (op, bits) in FIXED_SET {
            let generated = session.compile(&KernelSpec::new(op, bits));
            let compiled = CompiledKernel::compile(&generated.kernel).expect("compiles");
            assert!(
                twin(&compiled).is_some(),
                "{op:?} {bits} has no native twin"
            );
        }
    }

    #[test]
    fn kernels_outside_the_set_miss_and_run_on_bytecode() {
        let session = Session::default();
        let mut rng = StdRng::seed_from_u64(11);
        let spec = KernelSpec::new(KernelOp::ModMul, 128);
        let karatsuba = session.compile_with_algorithm(&spec, MulAlgorithm::Karatsuba);
        let compiled = CompiledKernel::compile(&karatsuba.kernel).expect("compiles");
        assert!(twin(&compiled).is_none());
        assert_launch_matches_interpreter(&karatsuba.kernel, &mut rng);
    }
}
