//! `multiword_inline`: the paper's own regime. Set-up cold-compiles the
//! generated kernel set through the rewrite system; an operation runs the
//! generated 128- and 256-bit modular multiplications over a batch on the
//! launcher, then 128-bit `NttPlan<2>` transforms. The only workload that
//! executes rewrite-system output and `MpUint<L>` arithmetic, and the only
//! one with no RNS, ring or serving layer under it.

use super::{common_layers, inline_window, median_us, paired_windows, Traced, Workload};
use crate::metrics::Layers;
use crate::oracle;
use crate::stats::Window;
use crate::trace::{span_in, Scope, Span, Tracer};
use moma::bignum::BigUint;
use moma::gpu::launch_compiled_batch;
use moma::ir::compiled::CompiledKernel;
use moma::ir::interp;
use moma::mp::MpUint;
use moma::ntt::plan::NttPlan;
use moma::{GeneratedKernel, KernelOp, KernelSpec, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::time::{Duration, Instant};

const OPS: [KernelOp; 4] = [
    KernelOp::ModAdd,
    KernelOp::ModMul,
    KernelOp::Axpy,
    KernelOp::Butterfly,
];
const WIDTHS: [u32; 4] = [128, 256, 512, 1024];

// The three parts of an operation, sized on the 2-core host this was written
// on to about a third of the operation each.
const ELEMENTS_128: usize = 4096;
const ELEMENTS_256: usize = 1024;
const NTT_N: usize = 1024;
const NTT_VECTORS: usize = 8;

/// Every `STRIDE`-th batch element is checked against the tree interpreter (64 of the
/// larger batch).
const STRIDE: usize = ELEMENTS_128 / 64;
/// Transform outputs checked against the definition of the DFT.
const SAMPLED: [usize; 4] = [0, 1, NTT_N / 2 + 3, NTT_N - 1];
const WARM_UP_OPS: usize = 4;

/// A generated kernel, its executor, a batch of inputs, and (from `verify`)
/// the interpreter's outputs for the sampled elements.
struct Batch {
    generated: Arc<GeneratedKernel>,
    compiled: CompiledKernel,
    inputs: Vec<u64>,
    expected: Vec<Vec<u64>>,
}

impl Batch {
    fn new(generated: Arc<GeneratedKernel>, elements: usize, rng: &mut StdRng) -> Self {
        let kernel = &generated.kernel;
        let compiled = CompiledKernel::compile(kernel).expect("lowered kernels compile");
        // Any words of the right width will do: both executors compute the
        // same function of their inputs, modulus included.
        let masks: Vec<u64> = kernel
            .params
            .iter()
            .map(|p| u64::MAX >> (64 - kernel.ty(*p).bits().min(64)))
            .collect();
        let inputs: Vec<u64> = (0..elements * masks.len())
            .map(|i| rng.gen::<u64>() & masks[i % masks.len()])
            .collect();
        Batch {
            generated,
            compiled,
            inputs,
            expected: Vec::new(),
        }
    }

    fn interpret_samples(&mut self) {
        let p = self.compiled.param_count();
        self.expected = self
            .inputs
            .chunks(p)
            .step_by(STRIDE)
            .map(|row| {
                interp::run(&self.generated.kernel, row)
                    .expect("the interpreter accepts generated kernels")
                    .outputs
            })
            .collect();
    }

    fn matches(&self, outputs: &[u64]) -> bool {
        let w = self.compiled.output_count();
        self.expected
            .iter()
            .enumerate()
            .all(|(i, e)| outputs[i * STRIDE * w..(i * STRIDE + 1) * w] == e[..])
    }
}

pub struct MultiwordInline {
    session: Session,
    modmul128: Batch,
    modmul256: Batch,
    plan: Arc<NttPlan<2>>,
    vectors: Vec<Vec<MpUint<2>>>,
    /// Every kernel of the compiled set, and how long compiling them cold took.
    generated: Vec<Arc<GeneratedKernel>>,
    compile: Duration,
    cold_build: Duration,
}

fn to_big(x: &MpUint<2>) -> BigUint {
    BigUint::from_limbs_be(&x.to_limbs_be())
}

impl MultiwordInline {
    /// Both kernel batches, then every vector transformed forward and back.
    fn op(&mut self, scope: Option<Scope<'_>>) -> bool {
        let (out128, _) = span_in(scope, "gpu.launch_compiled_batch.modmul128", || {
            launch_compiled_batch(&self.modmul128.compiled, &self.modmul128.inputs)
        });
        let (out256, _) = span_in(scope, "gpu.launch_compiled_batch.modmul256", || {
            launch_compiled_batch(&self.modmul256.compiled, &self.modmul256.inputs)
        });
        let round_trips = span_in(scope, "ntt.mw128_forward_inverse", || {
            let plan = &self.plan;
            self.vectors.iter_mut().all(|v| {
                let before = v[SAMPLED[3]];
                plan.forward(v);
                plan.inverse(v);
                v[SAMPLED[3]] == before
            })
        });
        self.modmul128.matches(&out128) && self.modmul256.matches(&out256) && round_trips
    }

    /// Forward transform of the first vector against the DFT's definition at
    /// the sampled outputs, and a full round trip.
    fn check_transform(&self) {
        let q = to_big(&self.plan.ring.modulus());
        let omega = to_big(&self.plan.stage(true, NTT_N / 2)[1]);
        let input: Vec<BigUint> = self.vectors[0].iter().map(to_big).collect();
        let mut v = self.vectors[0].clone();
        self.plan.forward(&mut v);
        for k in SAMPLED {
            assert!(
                to_big(&v[k]) == oracle::dft_coeff(&q, &omega, &input, k),
                "128-bit transform output {k} diverged from the DFT definition"
            );
        }
        self.plan.inverse(&mut v);
        assert!(
            v == self.vectors[0],
            "128-bit transform does not round-trip"
        );
    }
}

impl Workload for MultiwordInline {
    fn setup(seed: u64) -> Self {
        let started = Instant::now();
        let session = Session::default();
        let generated: Vec<Arc<GeneratedKernel>> = OPS
            .iter()
            .flat_map(|&op| WIDTHS.map(|bits| session.compile(&KernelSpec::new(op, bits))))
            .collect();
        let compile = started.elapsed();

        let mut rng = StdRng::seed_from_u64(seed);
        let modmul = |bits| session.compile(&KernelSpec::new(KernelOp::ModMul, bits));
        let modmul128 = Batch::new(modmul(128), ELEMENTS_128, &mut rng);
        let modmul256 = Batch::new(modmul(256), ELEMENTS_256, &mut rng);
        let plan = session.ntt_multiword::<2>(128, NTT_N);
        let vectors = (0..NTT_VECTORS)
            .map(|_| {
                (0..NTT_N)
                    .map(|_| plan.ring.random_element(&mut rng))
                    .collect()
            })
            .collect();
        let mut this = MultiwordInline {
            session,
            modmul128,
            modmul256,
            plan,
            vectors,
            generated,
            compile,
            cold_build: Duration::ZERO,
        };
        this.op(None);
        this.cold_build = started.elapsed();
        for _ in 0..WARM_UP_OPS {
            this.op(None);
        }
        this
    }

    fn verify(&mut self) {
        self.modmul128.interpret_samples();
        self.modmul256.interpret_samples();
        assert!(
            self.op(None),
            "generated kernels diverged from the tree interpreter"
        );
        self.check_transform();
    }

    fn window(&mut self, length: Duration) -> Window {
        inline_window(length, |_| self.op(None))
    }

    fn trace(&mut self, length: Duration, layers: &mut Layers) -> (Window, Vec<Span>) {
        let session = self.session.clone();
        let tracer = Tracer::new();
        let (plain, traced, pool_allocs_per_op) = paired_windows(&session, length, |traced| {
            let Some(op) = traced else {
                return self.op(None);
            };
            let parent = tracer.begin("multiword", None, op);
            let correct = self.op(Some(Scope {
                tracer: &tracer,
                parent,
                op,
            }));
            tracer.end(parent);
            correct
        });
        let spans = tracer.into_spans();

        common_layers(
            layers,
            Traced {
                session: &session,
                cold_build: self.cold_build,
                // The two batches: the transforms run inline on the calling thread.
                launches_per_op: 2.0,
                pool_allocs_per_op,
                plain: &plain,
                traced: &traced,
            },
        );
        layers.set("rewrite.compile_ms", self.compile.as_secs_f64() * 1e3);
        // Size of the generated code, over the whole compiled set.
        let ops: u64 = self.generated.iter().map(|g| g.op_counts.total()).sum();
        let registers: usize = self
            .generated
            .iter()
            .map(|g| {
                CompiledKernel::compile(&g.kernel)
                    .expect("lowered kernels compile")
                    .register_count()
            })
            .sum();
        layers.set("ir.kernel_ops_total", ops as f64);
        layers.set("ir.kernel_registers_total", registers as f64);

        // The executors without the launcher, and the tree interpreter.
        for (metric, batch) in [
            ("ir.compiled_ns_per_elt.modmul128", &self.modmul128),
            ("ir.compiled_ns_per_elt.modmul256", &self.modmul256),
        ] {
            let elements = batch.inputs.len() / batch.compiled.param_count();
            let us = median_us(9, || {
                std::hint::black_box(batch.compiled.run_batch(&batch.inputs).expect("batch runs"));
            });
            layers.set(metric, us * 1e3 / elements as f64);
        }
        let kernel = &self.modmul128.generated.kernel;
        let p = self.modmul128.compiled.param_count();
        let interpreted = 256;
        let us = median_us(5, || {
            for row in self.modmul128.inputs[..interpreted * p].chunks(p) {
                std::hint::black_box(interp::run(kernel, row).expect("interpreter runs"));
            }
        });
        layers.set(
            "ir.interp_ns_per_elt.modmul128",
            us * 1e3 / interpreted as f64,
        );

        let butterflies = (NTT_N / 2 * NTT_N.trailing_zeros() as usize) as f64;
        let mut v = self.vectors[0].clone();
        let us = median_us(25, || self.plan.forward(&mut v));
        layers.set("ntt.mw128_ns_per_butterfly", us * 1e3 / butterflies);
        (traced, spans)
    }
}
