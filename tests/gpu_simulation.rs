//! Integration test: the simulated GPU — generated kernels executed one virtual thread
//! per element, and the analytical cost model's qualitative properties.

use moma::gpu::launch_compiled_batch;
use moma::gpu::{CostModel, DeviceSpec};
use moma::ir::CompiledKernel;
use moma::mp::{ModRing, MpUint};
use moma::ntt::params::paper_modulus;
use moma::{Compiler, KernelOp, KernelSpec, MulAlgorithm, Session};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[test]
fn generated_vecaddmod_on_simulated_gpu_matches_runtime_library() {
    // Generate the 128-bit modular-addition element kernel and launch it over a vector,
    // one virtual CUDA thread per element.
    let generated = Compiler::default().compile(&KernelSpec::new(KernelOp::ModAdd, 128));
    let q_big = paper_modulus(128);
    let q = MpUint::<2>::from_limbs_le(&q_big.to_limbs_le(2));
    let ring = ModRing::new(q);

    let n = 256;
    let mut rng = StdRng::seed_from_u64(11);
    let a: Vec<MpUint<2>> = (0..n).map(|_| ring.random_element(&mut rng)).collect();
    let b: Vec<MpUint<2>> = (0..n).map(|_| ring.random_element(&mut rng)).collect();

    let msb = |x: &MpUint<2>| {
        let l = x.limbs();
        [l[1], l[0]]
    };
    let compiled = CompiledKernel::compile(&generated.kernel).expect("generated kernel compiles");
    let inputs: Vec<u64> = (0..n)
        .flat_map(|i| [msb(&a[i]), msb(&b[i]), msb(&q)].concat())
        .collect();
    let (outputs, stats) = launch_compiled_batch(&compiled, &inputs);
    assert_eq!(stats.threads, n);
    // Outputs come back flat, `output_count` (here 2) words per element.
    for i in 0..n {
        let expected = ring.add(a[i], b[i]);
        let got = MpUint::<2>::from_limbs_le(&[outputs[2 * i + 1], outputs[2 * i]]);
        assert_eq!(got, expected, "element {i}");
    }
}

#[test]
fn cost_model_reproduces_figure_shapes() {
    // Per-butterfly time grows with bit-width (Figure 5a) ...
    let session = Session::default();
    let h100 = DeviceSpec::H100;
    let t128 = session.modelled_ntt_ns_per_butterfly(h100, 128, 12, MulAlgorithm::Schoolbook);
    let t256 = session.modelled_ntt_ns_per_butterfly(h100, 256, 12, MulAlgorithm::Schoolbook);
    let t512 = session.modelled_ntt_ns_per_butterfly(h100, 512, 12, MulAlgorithm::Schoolbook);
    let t1024 = session.modelled_ntt_ns_per_butterfly(h100, 1024, 12, MulAlgorithm::Schoolbook);
    assert!(t128 < t256 && t256 < t512 && t512 < t1024);
    // ... with super-linear slowdown factors (the paper reports 5.6x from 128 to 256,
    // 4.8x from 256 to 512, 4.7x from 512 to 1024 on H100).
    assert!(t256 / t128 > 2.0);
    assert!(t512 / t256 > 2.0);

    // The V100 is the slowest device at every width (Figure 3).
    for bits in [128u32, 256, 384] {
        let v = session.modelled_ntt_ns_per_butterfly(
            DeviceSpec::V100,
            bits,
            14,
            MulAlgorithm::Schoolbook,
        );
        let h = session.modelled_ntt_ns_per_butterfly(
            DeviceSpec::H100,
            bits,
            14,
            MulAlgorithm::Schoolbook,
        );
        assert!(v > h, "{bits}");
    }

    // The shared-memory cliff: V100 per-butterfly time jumps between 2^10 and 2^12
    // (Figure 3a shows the significant slowdown for sizes 2^11 and larger).
    let model = CostModel::new(DeviceSpec::V100);
    let counts = session.butterfly_op_counts(128, MulAlgorithm::Schoolbook);
    let small = model.ntt_time_per_butterfly_ns(&counts, 1 << 10, 128);
    let large = model.ntt_time_per_butterfly_ns(&counts, 1 << 12, 128);
    assert!(large > small);
}

#[test]
fn zero_pruning_reduces_modelled_time_for_padded_widths() {
    // 384-bit butterflies (stored in 512-bit containers) must be modelled as faster
    // than full 512-bit butterflies — this is what makes Figure 3c sit below a
    // hypothetical 512-bit curve.
    let session = Session::default();
    let t384 =
        session.modelled_ntt_ns_per_butterfly(DeviceSpec::H100, 384, 16, MulAlgorithm::Schoolbook);
    let t512 =
        session.modelled_ntt_ns_per_butterfly(DeviceSpec::H100, 512, 16, MulAlgorithm::Schoolbook);
    assert!(t384 < t512);
}

#[test]
fn launcher_handles_large_batches_deterministically() {
    let mut rng = StdRng::seed_from_u64(5);
    let data: Vec<u64> = (0..10_000).map(|_| rng.gen()).collect();
    let generated = Compiler::default().compile(&KernelSpec::new(KernelOp::ModAdd, 64));
    let q = paper_modulus(64).to_u64().unwrap();
    let compiled = CompiledKernel::compile(&generated.kernel).expect("generated kernel compiles");
    let inputs: Vec<u64> = (0..data.len())
        .flat_map(|i| [data[i] % q, data[(i + 1) % data.len()] % q, q])
        .collect();
    let (out1, _) = launch_compiled_batch(&compiled, &inputs);
    let (out2, _) = launch_compiled_batch(&compiled, &inputs);
    assert_eq!(out1, out2);
}
