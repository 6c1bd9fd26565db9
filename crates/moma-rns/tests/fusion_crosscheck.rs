//! Fusion cross-checks: every kernel that passes through the rewrite fusion
//! stage must stay **bit-for-bit** identical to its unfused form, with the
//! interpreter running the *unfused* program as the semantic oracle. Both the
//! fused interpretation and the fused compiled-bytecode execution are held to
//! the oracle, over random inputs at or below each parameter's declared bound
//! (or width), plus the edge rows where every input is 0 and where every
//! input is at its bound.
//!
//! Coverage: every kernel shape the rewrite system generates (both widths,
//! both multiplication splitting rules), plus the RNS chain kernels — the
//! all-rows conversion, the `mul→axpy` chain, and the `mul→rescale→extend`
//! chain — on random mixed narrow/wide bases, disjoint and sharing moduli
//! (the shared case is where fusion's dead-term and scaled-sum rules fire).

use moma_ir::{interp, validate, CompiledKernel, Kernel, Op};
use moma_rewrite::passes::optimize;
use moma_rewrite::{lower, KernelSpec, LoweringConfig, MulAlgorithm};
use moma_rns::{BaseConvPlan, RnsContext, RnsPlan};
use proptest::prelude::*;
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

/// How many accumulations of `compiled` run each arm, by arm name, read from
/// its `Debug` text.
fn arm_histogram(compiled: &CompiledKernel) -> Vec<(&'static str, usize)> {
    let text = format!("{compiled:?}");
    [
        "Reduced", "CondSub", "Word1", "Word1K", "Word2", "Word2K", "Wide",
    ]
    .into_iter()
    .map(|arm| (arm, text.matches(&format!("arm: {arm} ")).count()))
    .filter(|&(_, count)| count > 0)
    .collect()
}

/// Optimizes `unfused` and demands that both the interpreter and the compiled
/// executor running the fused program reproduce the unfused interpreter oracle
/// exactly, on the two edge rows (every input 0, every input at its limit) and
/// `rounds` random inputs.
fn fused_matches_unfused(unfused: &Kernel, rounds: usize, rng: &mut StdRng) {
    validate::validate(unfused).expect("unfused kernel must type-check");
    let fused = optimize(unfused.clone());
    validate::validate(&fused).expect("fused kernel must type-check");
    assert_eq!(
        fused.params.len(),
        unfused.params.len(),
        "{}: fusion must not change the parameter list",
        unfused.name
    );
    let compiled = CompiledKernel::compile(&fused)
        .unwrap_or_else(|e| panic!("{}: fused compile failed: {e}", unfused.name));
    let edges = [vec![0; unfused.params.len()], input_limits(unfused)];
    let random = (0..rounds).map(|_| random_inputs(unfused, rng));
    for inputs in edges.into_iter().chain(random.collect::<Vec<_>>()) {
        let oracle = interp::run(unfused, &inputs)
            .unwrap_or_else(|e| panic!("{}: unfused interp failed: {e}", unfused.name));
        let via_interp = interp::run(&fused, &inputs)
            .unwrap_or_else(|e| panic!("{}: fused interp failed: {e}", unfused.name));
        assert_eq!(
            via_interp.outputs, oracle.outputs,
            "{}: fused interpretation diverges (inputs {inputs:x?})",
            unfused.name
        );
        let batch = compiled
            .run_batch(&inputs)
            .unwrap_or_else(|e| panic!("{}: fused batch run failed: {e}", unfused.name));
        assert_eq!(
            batch.element(0),
            &oracle.outputs[..],
            "{}: fused compiled execution diverges (inputs {inputs:x?})",
            unfused.name
        );
    }
}

/// Builds a deterministic basis of `count` distinct primes whose widths cycle
/// through `widths` (31-bit narrow rows interleaved with 40/52-bit wide ones).
fn mixed_basis(seed: u64, count: usize, widths: &[u32]) -> Vec<u64> {
    let mut moduli = Vec::with_capacity(count);
    for (i, &bits) in widths.iter().cycle().take(count).enumerate() {
        let m = RnsContext::with_random_primes(1, bits, seed ^ ((i as u64 + 1) << 17)).moduli()[0];
        if !moduli.contains(&m) {
            moduli.push(m);
        }
    }
    let mut extra = 0u64;
    while moduli.len() < count {
        let m = RnsContext::with_random_primes(1, 31, seed ^ 0xdead ^ extra).moduli()[0];
        if !moduli.contains(&m) {
            moduli.push(m);
        }
        extra += 1;
    }
    moduli
}

/// Basis pairs that share moduli, cut from one basis `all` of at least four:
/// `dst ⊂ src`, `src ⊂ dst`, a partial overlap, and the rescale-then-extend
/// shape (`all` without its last modulus, and back).
fn shared_basis_pairs(all: &[u64]) -> Vec<(Vec<u64>, Vec<u64>)> {
    let n = all.len();
    let every_other: Vec<u64> = all.iter().step_by(2).copied().collect();
    vec![
        (all.to_vec(), every_other.clone()),
        (every_other, all.to_vec()),
        (all[..n - 1].to_vec(), all[1..].to_vec()),
        (all.to_vec(), all[..n - 1].to_vec()),
        (all[..n - 1].to_vec(), all.to_vec()),
    ]
}

fn plan(moduli: &[u64]) -> RnsPlan {
    RnsPlan::new(&RnsContext::with_moduli(moduli))
}

/// Product terms across every accumulation, and statement count.
fn shape(kernel: &Kernel) -> (usize, usize) {
    let pairs = kernel
        .body
        .iter()
        .map(|s| match &s.op {
            Op::MacReduceMod { pairs, .. } => pairs.len(),
            _ => 0,
        })
        .sum();
    (pairs, kernel.body.len())
}

/// The chain kernels at the 520-bit capacity basis (19 × 31-bit moduli) in
/// the shape `rns_chain_inline` runs: `mul→axpy` on the basis, the
/// `mul→rescale→extend` onto its first 18 moduli, and the conversion back.
/// Before the dead-term and scaled-sum rules the two cross-basis kernels were
/// 360 pairs / 37 statements and 397 pairs / 110 statements: every target
/// modulus is also a source modulus, so all but one entry of each target
/// row's cross table is `(M/m_r) mod m_s = 0`.
#[test]
fn chain_kernel_shapes_at_the_520_bit_capacity_basis() {
    let src = RnsPlan::with_capacity_bits(520);
    let moduli: Vec<u64> = src.moduli().collect();
    assert_eq!(moduli.len(), 19);
    let dst = plan(&moduli[..18]);
    // 18 pseudo-residues + 18 one-term shared rows + one 18-term row.
    assert_eq!(
        shape(&BaseConvPlan::new(&dst, &src).fused_kernel_ir()),
        (54, 37)
    );
    // Each one-term row absorbs its two-term pseudo-residue sum.
    assert_eq!(
        shape(&src.rescale_extend_plan(&dst).mul_fused_kernel_ir()),
        (73, 92)
    );
    // No zero constants and no constant-scaled sums: unchanged.
    assert_eq!(shape(&src.mul_axpy_kernel_ir()), (57, 38));
}

/// The arms the compiled executor runs the chain kernels on at the 520-bit
/// capacity basis: with every residue declared below its 31-bit modulus, all
/// one- and two-pair sums fit a word; the dropped row's residue, below
/// `q_k < 2·q_r`, needs one conditional subtraction per surviving row; only
/// the 18-term row of the conversion back stays on `u128`. In that
/// conversion each shared row's two constants compose to 1 (fusion rule 6),
/// so the row is a copy of its input residue.
#[test]
fn chain_kernel_arms_at_the_520_bit_capacity_basis() {
    let src = RnsPlan::with_capacity_bits(520);
    let moduli: Vec<u64> = src.moduli().collect();
    let dst = plan(&moduli[..18]);
    let arms = |k: Kernel| arm_histogram(&CompiledKernel::compile(&k).unwrap());
    assert_eq!(
        arms(src.mul_axpy_kernel_ir()),
        [("Word1", 19), ("Word2", 19)]
    );
    assert_eq!(
        arms(src.rescale_extend_plan(&dst).mul_fused_kernel_ir()),
        [("CondSub", 18), ("Word1", 19), ("Word2K", 18)]
    );
    assert_eq!(
        arms(BaseConvPlan::new(&dst, &src).fused_kernel_ir()),
        [("Reduced", 18), ("Word1K", 18), ("Wide", 1)]
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// All three chain kernels survive fusion bit for bit on basis pairs that
    /// share moduli, where the cross tables carry zeros.
    #[test]
    fn chain_kernels_survive_fusion_on_shared_bases(seed in any::<u64>(), count in 4usize..8) {
        let all = mixed_basis(seed, count, &[31, 52, 40]);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5a4e);
        for (src, dst) in shared_basis_pairs(&all) {
            let (src, dst) = (plan(&src), plan(&dst));
            fused_matches_unfused(&BaseConvPlan::new(&src, &dst).fused_kernel_ir_unfused(), 3, &mut rng);
            fused_matches_unfused(&src.rescale_extend_plan(&dst).mul_fused_kernel_ir_unfused(), 3, &mut rng);
            fused_matches_unfused(&src.mul_axpy_kernel_ir_unfused(), 2, &mut rng);
        }
    }

    /// Every kernel shape the rewrite system generates survives the optimizer
    /// (fusion included) bit for bit.
    #[test]
    fn rewrite_kernels_survive_fusion(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let ops = [
            moma_rewrite::KernelOp::ModAdd,
            moma_rewrite::KernelOp::ModSub,
            moma_rewrite::KernelOp::ModMul,
            moma_rewrite::KernelOp::Axpy,
            moma_rewrite::KernelOp::Butterfly,
        ];
        for op in ops {
            for bits in [128u32, 256] {
                for alg in [MulAlgorithm::Schoolbook, MulAlgorithm::Karatsuba] {
                    let hl = moma_rewrite::builders::build(&KernelSpec::new(op, bits));
                    let config = LoweringConfig { mul_algorithm: alg, ..LoweringConfig::default() };
                    let lowered = lower(&hl, &config);
                    fused_matches_unfused(&lowered.kernel, 3, &mut rng);
                }
            }
        }
    }

    /// The all-rows base-convert kernel (one `MulAddMod` chain per target row)
    /// survives fusion bit for bit on random mixed narrow/wide basis pairs.
    #[test]
    fn baseconv_kernels_survive_fusion(
        seed in any::<u64>(),
        src_count in 3usize..6,
        dst_count in 2usize..5,
    ) {
        let src = RnsPlan::new(&RnsContext::with_moduli(&mixed_basis(seed, src_count, &[31, 52, 40])));
        let dst = RnsPlan::new(&RnsContext::with_moduli(&mixed_basis(seed ^ 0xbc, dst_count, &[40, 31, 52])));
        let bc = BaseConvPlan::new(&src, &dst);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0bc0);
        fused_matches_unfused(&bc.fused_kernel_ir_unfused(), 4, &mut rng);
    }

    /// The `mul→axpy` chain kernel survives fusion bit for bit on random mixed
    /// narrow/wide bases.
    #[test]
    fn mul_axpy_chain_kernel_survives_fusion(seed in any::<u64>(), count in 2usize..7) {
        let moduli = mixed_basis(seed, count, &[31, 52, 40, 31]);
        let plan = RnsPlan::new(&RnsContext::with_moduli(&moduli));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa491);
        fused_matches_unfused(&plan.mul_axpy_kernel_ir_unfused(), 5, &mut rng);
        // The 40- and 52-bit rows' products do not fit a word: both of their
        // accumulations stay on the u128 arm, and only theirs.
        let wide_rows = moduli.iter().filter(|&&q| q > 1 << 32).count();
        let compiled = CompiledKernel::compile(&plan.mul_axpy_kernel_ir()).unwrap();
        let arms = arm_histogram(&compiled);
        let count_of = |arm| arms.iter().find(|(a, _)| *a == arm).map_or(0, |&(_, c)| c);
        prop_assert_eq!(count_of("Wide"), 2 * wide_rows);
        prop_assert_eq!(count_of("Word1") + count_of("Word2"), 2 * (moduli.len() - wide_rows));
    }

    /// The whole `mul→rescale→extend` chain kernel survives fusion bit for bit
    /// on random mixed narrow/wide basis pairs.
    #[test]
    fn mul_rescale_extend_chain_kernel_survives_fusion(
        seed in any::<u64>(),
        src_count in 3usize..6,
        dst_count in 2usize..5,
    ) {
        let src = RnsPlan::new(&RnsContext::with_moduli(&mixed_basis(seed, src_count, &[40, 31, 52])));
        let dst = RnsPlan::new(&RnsContext::with_moduli(&mixed_basis(seed ^ 0x5ca1e, dst_count, &[52, 40, 31])));
        let p = src.rescale_extend_plan(&dst);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x0e57);
        fused_matches_unfused(&p.mul_fused_kernel_ir_unfused(), 4, &mut rng);
    }
}
