//! Cross-check: the compiled bytecode executor must be observationally identical to
//! the tree interpreter — outputs *and* operation counts — on every kernel the
//! rewrite system produces, including the hand-built `daddmod` kernel of the
//! `smoke_daddmod` test.
//!
//! The interpreter is the semantic reference; both executors compute the same pure
//! function of the input words, so the check feeds random inputs at or below each
//! parameter's declared bound (or width) and requires bit-exact agreement. The
//! fused RNS chain kernels declare their residues below their moduli, and the
//! compiled executor runs most of their sums on word arms chosen from those
//! bounds; under overflow checks (`--profile test-checked`) an unsound choice
//! panics here instead of wrapping.

use moma::rns::{BaseConvPlan, RnsContext, RnsPlan};
use moma_ir::compiled::{BlockScratch, LANE_BLOCK};
use moma_ir::cost::OpCounts;
use moma_ir::{interp, validate, CompiledKernel, Kernel, KernelBuilder, Op, Operand, Ty};
use moma_rewrite::{lower, HighLevelKernel, KernelOp, KernelSpec, LoweringConfig, MulAlgorithm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The largest input each parameter accepts: its declared bound, else the
/// largest value of its width.
fn input_limits(kernel: &Kernel) -> Vec<u64> {
    kernel
        .params
        .iter()
        .map(|p| {
            let bits = kernel.ty(*p).bits();
            let ones = if bits >= 64 {
                u64::MAX
            } else {
                (1u64 << bits) - 1
            };
            kernel.bounds.get(p).map_or(ones, |&b| b.min(ones))
        })
        .collect()
}

/// Random inputs, each at or below its parameter's limit.
fn random_inputs(kernel: &Kernel, rng: &mut StdRng) -> Vec<u64> {
    input_limits(kernel)
        .into_iter()
        .map(|limit| {
            let v: u64 = rng.gen();
            limit.checked_add(1).map_or(v, |span| v % span)
        })
        .collect()
}

/// Elements per cross-check: one full lane block and a partial one, so every
/// kernel crosses a block boundary inside `run_batch`.
const ROUNDS: usize = LANE_BLOCK + 37;

/// Runs [`ROUNDS`] random elements through both executors (per-element
/// interpretation and one compiled `run_batch`) and demands identical outputs and
/// identical aggregated operation counts.
fn crosscheck(kernel: &Kernel, seed: u64) {
    validate::validate(kernel).expect("kernel must type-check");
    let compiled = CompiledKernel::compile(kernel)
        .unwrap_or_else(|e| panic!("{}: compile failed: {e}", kernel.name));
    let mut rng = StdRng::seed_from_u64(seed);
    // The two edge rows (every input 0, every input at its limit), then
    // random ones.
    let mut rows = vec![vec![0; kernel.params.len()], input_limits(kernel)];
    rows.extend((2..ROUNDS).map(|_| random_inputs(kernel, &mut rng)));
    let flat: Vec<u64> = rows.iter().flatten().copied().collect();

    let batch = compiled
        .run_batch(&flat)
        .unwrap_or_else(|e| panic!("{}: batch run failed: {e}", kernel.name));
    assert_eq!(batch.elements, ROUNDS);

    let mut interp_counts = OpCounts::new();
    for (i, row) in rows.iter().enumerate() {
        let oracle = interp::run(kernel, row)
            .unwrap_or_else(|e| panic!("{}: interpreter failed: {e}", kernel.name));
        assert_eq!(
            batch.element(i),
            &oracle.outputs[..],
            "{}: output mismatch on element {i} (inputs {row:x?})",
            kernel.name
        );
        interp_counts = interp_counts + oracle.counts;
    }
    assert_eq!(
        batch.counts, interp_counts,
        "{}: operation counts diverge from the interpreter",
        kernel.name
    );
}

#[test]
fn compiled_matches_interpreter_on_all_rewrite_kernels() {
    // Every kernel shape the rewrite system generates, at two widths and both
    // multiplication splitting rules.
    let ops = [
        KernelOp::ModAdd,
        KernelOp::ModSub,
        KernelOp::ModMul,
        KernelOp::Axpy,
        KernelOp::Butterfly,
    ];
    let mut seed = 0xc0de;
    for op in ops {
        for bits in [128u32, 256] {
            for alg in [MulAlgorithm::Schoolbook, MulAlgorithm::Karatsuba] {
                let hl = moma_rewrite::builders::build(&KernelSpec::new(op, bits));
                let config = LoweringConfig {
                    mul_algorithm: alg,
                    ..LoweringConfig::default()
                };
                let lowered = lower(&hl, &config);
                assert!(lowered.kernel.is_machine_level(64));
                crosscheck(&lowered.kernel, seed);
                seed += 1;
            }
        }
    }
}

#[test]
fn compiled_matches_interpreter_on_the_daddmod_smoke_kernel() {
    // The exact hand-built kernel of smoke_daddmod.rs: c = (a + b) mod q at 128 bits,
    // lowered by the rewrite system.
    let mut kb = KernelBuilder::new("daddmod_128");
    let a = kb.param("a", Ty::UInt(128));
    let b = kb.param("b", Ty::UInt(128));
    let q = kb.param("q", Ty::UInt(128));
    let c = kb.output("c", Ty::UInt(128));
    kb.push(
        vec![c],
        Op::AddMod {
            a: Operand::Var(a),
            b: Operand::Var(b),
            q: Operand::Var(q),
        },
    );
    let hl = HighLevelKernel {
        kernel: kb.build(),
        spec: KernelSpec::new(KernelOp::ModAdd, 128),
        zero_top_bits: 0,
    };
    let lowered = lower(&hl, &LoweringConfig::default());
    crosscheck(&lowered.kernel, 0x00da_0d0d);
}

#[test]
fn compiled_matches_interpreter_on_small_word_lowerings() {
    // 32-bit machine words double the statement count and exercise narrow masks.
    let hl = moma_rewrite::builders::build(&KernelSpec::new(KernelOp::ModMul, 128));
    let config = LoweringConfig {
        word_bits: 32,
        ..LoweringConfig::default()
    };
    let lowered = lower(&hl, &config);
    assert!(lowered.kernel.is_machine_level(32));
    crosscheck(&lowered.kernel, 0x3232);
}

#[test]
fn compiled_matches_interpreter_on_the_rns_chain_kernels() {
    // The three fused chain kernels at the 520-bit capacity basis (19 × 31-bit
    // moduli, where the word arms run) and on a mixed 31/40/52-bit basis
    // (where the wide rows stay on the u128 arm), each with its conversion
    // back and its rescale onto the basis without its last modulus.
    let capacity = RnsPlan::with_capacity_bits(520);
    let mixed = RnsPlan::new(&RnsContext::with_moduli(&[
        2_147_483_647,
        (1 << 40) - 87,
        (1 << 52) - 47,
        2_147_483_629,
    ]));
    let mut seed = 0x0c4a_1500;
    for src in [capacity, mixed] {
        let moduli: Vec<u64> = src.moduli().collect();
        let dst = RnsPlan::new(&RnsContext::with_moduli(&moduli[..moduli.len() - 1]));
        for kernel in [
            src.mul_axpy_kernel_ir(),
            src.rescale_extend_plan(&dst).mul_fused_kernel_ir(),
            BaseConvPlan::new(&dst, &src).fused_kernel_ir(),
        ] {
            crosscheck(&kernel, seed);
            seed += 1;
        }
    }
}

/// The name of `op`'s variant, as `Debug` spells it.
fn op_name(op: &Op) -> String {
    let text = format!("{op:?}");
    text.split([' ', '(', '{'])
        .next()
        .unwrap_or_default()
        .to_string()
}

#[test]
fn run_elements_crosses_block_boundaries_on_every_indexed_arm() {
    // The paper's kernel set, each op lowered to 64-bit words at 128 bits
    // under both multiplication rules (the word-level arms) and built at 64
    // bits (the modular arms, which need no splitting), as built and
    // optimized (fusion makes the axpy a `MulAddMod`), run element-major
    // through one reused scratch at lengths on both sides of a block
    // boundary and past a second one.
    let ops = [
        KernelOp::ModAdd,
        KernelOp::ModSub,
        KernelOp::ModMul,
        KernelOp::Axpy,
        KernelOp::Butterfly,
    ];
    let mut kernels = Vec::new();
    for op in ops {
        for alg in [MulAlgorithm::Schoolbook, MulAlgorithm::Karatsuba] {
            let hl = moma_rewrite::builders::build(&KernelSpec::new(op, 128));
            let config = LoweringConfig {
                mul_algorithm: alg,
                ..LoweringConfig::default()
            };
            kernels.push(lower(&hl, &config).kernel);
        }
        let word = moma_rewrite::builders::build(&KernelSpec::new(op, 64)).kernel;
        kernels.push(moma_rewrite::passes::optimize(word.clone()));
        kernels.push(word);
    }
    let arms: std::collections::BTreeSet<String> = kernels
        .iter()
        .flat_map(|k| k.body.iter().map(|s| op_name(&s.op)))
        .collect();
    for arm in [
        "AddWide",
        "Sub",
        "MulWide",
        "MulLow",
        "Eq",
        "ShrMulti",
        "AddMod",
        "MulModBarrett",
        "MulAddMod",
    ] {
        assert!(arms.contains(arm), "no kernel runs {arm}: {arms:?}");
    }
    assert!(
        arms.contains("BoolAnd") || arms.contains("BoolOr"),
        "no kernel runs a flag arm: {arms:?}"
    );
    let mut scratch = BlockScratch::default();
    let mut rng = StdRng::seed_from_u64(0xb10c);
    for kernel in &kernels {
        let compiled = CompiledKernel::compile(kernel).unwrap();
        let (p, oc) = (compiled.param_count(), compiled.output_count());
        let most = 2 * LANE_BLOCK + 37;
        // A word-width modular kernel takes its operands reduced below its
        // modulus parameter `q`; the lowered ones take any words.
        let q = (1u64 << 60) - 93;
        let names: Vec<&str> = kernel
            .params
            .iter()
            .map(|p| kernel.var(*p).name.as_str())
            .collect();
        let rows: Vec<Vec<u64>> = (0..most)
            .map(|_| {
                let row = random_inputs(kernel, &mut rng);
                if !names.contains(&"q") {
                    return row;
                }
                let reduced = row.iter().zip(&names);
                reduced
                    .map(|(&v, &name)| if name == "q" { q } else { v % q })
                    .collect()
            })
            .collect();
        let flat: Vec<u64> = rows.iter().flatten().copied().collect();
        for n in [LANE_BLOCK - 1, LANE_BLOCK + 1, most] {
            let mut out = vec![0; n * oc];
            compiled
                .run_elements(n, &flat[..n * p], &mut scratch, &mut out)
                .unwrap();
            for (e, row) in rows[..n].iter().enumerate() {
                assert_eq!(
                    &out[e * oc..(e + 1) * oc],
                    &interp::run(kernel, row).unwrap().outputs[..],
                    "{}: element {e} of {n}",
                    kernel.name
                );
            }
        }
    }
}
