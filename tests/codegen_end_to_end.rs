//! Integration test: code generation end to end.
//!
//! For every kernel the evaluation uses, at several bit-widths and both multiplication
//! algorithms, compile with the MoMA rewrite system, check the emitted artifacts, and
//! verify that interpreting the generated machine code agrees with the runtime library
//! (`moma-mp`) and the arbitrary-precision oracle (`moma-bignum`).

use moma::bignum::BigUint;
use moma::mp::{ModRing, MpUint};
use moma::{Compiler, KernelOp, KernelSpec, LoweringConfig, MulAlgorithm};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn to_msb_words(x: &BigUint, words: usize) -> Vec<u64> {
    let mut w = x.to_limbs_le(words);
    w.reverse();
    w
}

fn from_msb_words(words: &[u64]) -> BigUint {
    words
        .iter()
        .fold(BigUint::zero(), |acc, &w| (acc << 64) + BigUint::from(w))
}

/// Compiling emits no source text, so this is what proves every generated
/// kernel emits: both emitters run on every kernel shape at every width the
/// lowering output is pinned at.
#[test]
fn generated_artifacts_are_complete_for_all_kernels() {
    let compiler = Compiler::default();
    for op in KernelOp::all() {
        for bits in [128u32, 192, 256, 381, 384, 512, 753, 1024] {
            let generated = compiler.compile(&KernelSpec::new(op, bits));
            assert!(generated.kernel.is_machine_level(64), "{op:?} {bits}");
            assert!(generated.cuda_source().contains("__device__ void"));
            assert!(generated.rust_source().contains("pub fn"));
            assert!(generated.op_counts.total() > 0);
            assert!(moma::ir::validate::validate(&generated.kernel).is_ok());
        }
    }
}

#[test]
fn generated_modmul_matches_runtime_library_and_oracle_256() {
    let spec = KernelSpec::new(KernelOp::ModMul, 256);
    let q_big = moma::ntt::params::paper_modulus(256);
    let mu_big = (BigUint::from(1u64) << (2 * q_big.bits() + 3)) / &q_big;
    let q = MpUint::<4>::from_limbs_le(&q_big.to_limbs_le(4));
    let runtime = ModRing::new(q);

    let mut rng = StdRng::seed_from_u64(99);
    for alg in [MulAlgorithm::Schoolbook, MulAlgorithm::Karatsuba] {
        let compiler = Compiler::new(LoweringConfig {
            mul_algorithm: alg,
            ..LoweringConfig::default()
        });
        let generated = compiler.compile(&spec);
        for _ in 0..20 {
            let a_big = moma::bignum::random::random_below(&mut rng, &q_big);
            let b_big = moma::bignum::random::random_below(&mut rng, &q_big);
            let mut inputs = Vec::new();
            inputs.extend(to_msb_words(&a_big, 4));
            inputs.extend(to_msb_words(&b_big, 4));
            inputs.extend(to_msb_words(&q_big, 4));
            inputs.extend(to_msb_words(&mu_big, 4));
            let got = from_msb_words(&generated.run(&inputs).unwrap());

            // Oracle and runtime library must all agree with the generated code.
            let expected_oracle = a_big.mod_mul(&b_big, &q_big);
            let a_mp = MpUint::<4>::from_limbs_le(&a_big.to_limbs_le(4));
            let b_mp = MpUint::<4>::from_limbs_le(&b_big.to_limbs_le(4));
            let expected_runtime = runtime.mul(a_mp, b_mp);
            assert_eq!(got, expected_oracle, "{alg:?}");
            assert_eq!(
                BigUint::from_limbs_le(expected_runtime.limbs().to_vec()),
                expected_oracle
            );
        }
    }
}

#[test]
fn generated_butterfly_matches_oracle_381_bits() {
    // Non-power-of-two width with zero pruning: the headline §4 optimization.
    let spec = KernelSpec::new(KernelOp::Butterfly, 381);
    let compiler = Compiler::default();
    let generated = compiler.compile(&spec);

    let mbits = spec.modulus_bits();
    let q_big = {
        // Deterministic 377-bit odd modulus with the top bit set.
        let mut v = BigUint::from(1u64) << (mbits - 1);
        v = v + BigUint::from(0x2f0f_0f0f_0f0fu64);
        v
    };
    let mu_big = (BigUint::from(1u64) << (2 * mbits + 3)) / &q_big;

    let words = 8; // padded to 512 bits = 8 words
    let mut rng = StdRng::seed_from_u64(123);
    for _ in 0..10 {
        let x = moma::bignum::random::random_below(&mut rng, &q_big);
        let y = moma::bignum::random::random_below(&mut rng, &q_big);
        let w = moma::bignum::random::random_below(&mut rng, &q_big);

        // The pruned kernel has dropped the known-zero leading words from its
        // signature; feed the surviving words per original parameter.
        let packed: std::collections::HashMap<&str, Vec<u64>> = [
            ("x", to_msb_words(&x, words)),
            ("y", to_msb_words(&y, words)),
            ("w", to_msb_words(&w, words)),
            ("q", to_msb_words(&q_big, words)),
            ("mu", to_msb_words(&mu_big, words)),
        ]
        .into_iter()
        .collect();
        let mut remaining: std::collections::HashMap<&str, std::collections::VecDeque<u64>> =
            std::collections::HashMap::new();
        for p in &generated.kernel.params {
            let name = &generated.kernel.var(*p).name;
            let root = ["mu", "x", "y", "w", "q"]
                .into_iter()
                .find(|r| name == r || name.starts_with(&format!("{r}_")))
                .unwrap();
            remaining.entry(root).or_insert_with(|| {
                let full = &packed[root];
                let kept = generated
                    .kernel
                    .params
                    .iter()
                    .filter(|p| {
                        let n = &generated.kernel.var(**p).name;
                        n == root || n.starts_with(&format!("{root}_"))
                    })
                    .count();
                full[full.len() - kept..].iter().copied().collect()
            });
        }
        let mut inputs = Vec::new();
        for p in &generated.kernel.params {
            let name = &generated.kernel.var(*p).name;
            let root = ["mu", "x", "y", "w", "q"]
                .into_iter()
                .find(|r| name == r || name.starts_with(&format!("{r}_")))
                .unwrap();
            inputs.push(remaining.get_mut(root).unwrap().pop_front().unwrap());
        }
        let out = generated.run(&inputs).unwrap();
        let half = out.len() / 2;
        let x_out = from_msb_words(&out[..half]);
        let y_out = from_msb_words(&out[half..]);

        let wy = w.mod_mul(&y, &q_big);
        assert_eq!(x_out, x.mod_add(&wy, &q_big));
        assert_eq!(y_out, x.mod_sub(&wy, &q_big));
    }
}

#[test]
fn word_width_32_generates_twice_the_words() {
    let spec = KernelSpec::new(KernelOp::ModAdd, 128);
    let k64 = Compiler::default().compile(&spec);
    let k32 = Compiler::new(LoweringConfig::for_word_bits(32)).compile(&spec);
    assert!(k32.kernel.params.len() > k64.kernel.params.len());
    assert!(k32.op_counts.total() > k64.op_counts.total());
}
