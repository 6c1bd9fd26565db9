//! The lowering driver: expansion → recursive splitting → pruning → optimization.

use crate::builders::HighLevelKernel;
use crate::expand::expand_modular_ops;
use crate::passes::{drop_unused_params, optimize, prune_known_zeros};
use crate::split::split_once;
use crate::LoweringConfig;
use moma_ir::{cost, Kernel};

/// Statistics for one stage of the recursive lowering.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageInfo {
    /// The maximal integer width at the *end* of this stage.
    pub width: u32,
    /// Number of statements at the end of this stage.
    pub statements: usize,
}

/// The result of lowering a high-level kernel to machine words.
#[derive(Debug, Clone)]
pub struct Lowered {
    /// The machine-level kernel (every variable at most `word_bits` wide).
    pub kernel: Kernel,
    /// Per-stage statistics, outermost width first.
    pub stages: Vec<StageInfo>,
    /// The machine word width the kernel was lowered to.
    pub word_bits: u32,
}

impl Lowered {
    /// Static word-level operation counts of the final kernel.
    pub fn op_counts(&self) -> cost::OpCounts {
        cost::static_counts(&self.kernel)
    }
}

/// Lowers a high-level kernel to machine words according to `config`.
///
/// # Panics
///
/// Panics if the padded width is smaller than the machine word or the internal passes
/// produce an invalid kernel (which would be a bug; validation runs in debug builds).
pub fn lower(hl: &HighLevelKernel, config: &LoweringConfig) -> Lowered {
    let (lowered, _) = lower_impl(hl, config, false);
    lowered
}

/// Like [`lower`], but also returns a human-readable trace of the kernel after each
/// rewriting stage — the §4 worked example (Equations 30–34) as the tool actually
/// performs it.
pub fn lower_with_trace(
    hl: &HighLevelKernel,
    config: &LoweringConfig,
) -> (Lowered, Vec<(String, String)>) {
    lower_impl(hl, config, true)
}

fn lower_impl(
    hl: &HighLevelKernel,
    config: &LoweringConfig,
    trace: bool,
) -> (Lowered, Vec<(String, String)>) {
    assert!(
        hl.spec.padded_bits() >= config.word_bits,
        "kernel width {} is below the machine word width {}",
        hl.spec.padded_bits(),
        config.word_bits
    );
    let mut snapshots = Vec::new();
    let mut stages = Vec::new();

    if trace {
        snapshots.push((
            format!("input ({}-bit operands)", hl.spec.padded_bits()),
            hl.kernel.to_string(),
        ));
    }

    // Stage 0: expand the high-level modular operations (Equation 30 → Listing-style
    // word algebra at the full width).
    let mut kernel = expand_modular_ops(&hl.kernel);
    let mut zero_top = vec![0; kernel.vars.len()];
    for p in &hl.kernel.params {
        zero_top[p.0] = hl.zero_top_bits;
    }
    stages.push(StageInfo {
        width: kernel.max_width(),
        statements: kernel.len(),
    });
    if trace {
        snapshots.push((
            format!("after expansion at {} bits", kernel.max_width()),
            kernel.to_string(),
        ));
    }

    // Recursive splitting: rule (19) and friends until the machine word is reached.
    while kernel.max_width() > config.word_bits {
        let result = split_once(kernel, &zero_top, config.mul_algorithm);
        kernel = result.kernel;
        zero_top = result.zero_top_bits;
        stages.push(StageInfo {
            width: kernel.max_width(),
            statements: kernel.len(),
        });
        if trace {
            snapshots.push((
                format!("after splitting to {} bits", kernel.max_width()),
                kernel.to_string(),
            ));
        }
    }

    // Optimization: zero pruning (non-power-of-two widths) and cleanup.
    prune_known_zeros(&mut kernel, &zero_top);
    kernel = optimize(kernel);
    drop_unused_params(&mut kernel);
    stages.push(StageInfo {
        width: kernel.max_width(),
        statements: kernel.len(),
    });
    if trace {
        snapshots.push(("after optimization".to_string(), kernel.to_string()));
    }

    debug_assert!(
        moma_ir::validate::validate(&kernel).is_ok(),
        "lowering produced an invalid kernel: {:?}",
        moma_ir::validate::validate(&kernel)
    );

    (
        Lowered {
            kernel,
            stages,
            word_bits: config.word_bits,
        },
        snapshots,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders::{build, KernelOp, KernelSpec};
    use crate::{LoweringConfig, MulAlgorithm};
    use moma_ir::validate::validate;

    #[test]
    fn recursion_depth_matches_paper_example() {
        // §3.2: a 512-bit input on a 64-bit machine needs three recursion steps
        // (512 → 256 → 128 → 64).
        let hl = build(&KernelSpec::new(KernelOp::ModAdd, 512));
        let lowered = lower(&hl, &LoweringConfig::default());
        // Expansion, 3 splits, optimization.
        assert_eq!(lowered.stages.len(), 1 + 3 + 1);
        assert!(lowered.kernel.is_machine_level(64));
        let widths: Vec<u32> = lowered.stages.iter().map(|s| s.width).collect();
        assert_eq!(widths, vec![512, 256, 128, 64, 64]);
    }

    #[test]
    fn all_kernels_lower_and_validate_at_all_word_widths() {
        for op in KernelOp::all() {
            for bits in [128u32, 256, 384] {
                for word_bits in [64u32, 32] {
                    let hl = build(&KernelSpec::new(op, bits));
                    let lowered = lower(&hl, &LoweringConfig::for_word_bits(word_bits));
                    validate(&lowered.kernel)
                        .unwrap_or_else(|e| panic!("{op:?} {bits} w{word_bits}: {e}"));
                    assert!(lowered.kernel.is_machine_level(word_bits));
                }
            }
        }
    }

    #[test]
    fn statement_count_grows_with_recursion_depth() {
        let config = LoweringConfig::default();
        let counts: Vec<u64> = [128u32, 256, 512, 1024]
            .iter()
            .map(|bits| {
                let hl = build(&KernelSpec::new(KernelOp::ModMul, *bits));
                lower(&hl, &config).op_counts().total()
            })
            .collect();
        assert!(counts.windows(2).all(|w| w[1] > w[0] * 2), "{counts:?}");
    }

    #[test]
    fn zero_pruning_shrinks_padded_kernels() {
        // 384-bit inputs live in a 512-bit container; pruning must remove a substantial
        // part of the work (the paper's §4 discussion of 381/753-bit inputs), so the
        // pruned 384-bit kernel is cheaper than a full 512-bit one.
        let hl = build(&KernelSpec::new(KernelOp::ModMul, 384));
        let pruned = lower(&hl, &LoweringConfig::default());
        let full512 = lower(
            &build(&KernelSpec::new(KernelOp::ModMul, 512)),
            &LoweringConfig::default(),
        );
        assert!(pruned.op_counts().multiplications() < full512.op_counts().multiplications());
    }

    #[test]
    fn karatsuba_uses_fewer_multiplications() {
        let hl = build(&KernelSpec::new(KernelOp::ModMul, 256));
        let sb = lower(&hl, &LoweringConfig::default());
        let ka = lower(
            &hl,
            &LoweringConfig {
                mul_algorithm: MulAlgorithm::Karatsuba,
                ..LoweringConfig::default()
            },
        );
        assert!(ka.op_counts().multiplications() < sb.op_counts().multiplications());
        assert!(ka.op_counts().add_sub() > sb.op_counts().add_sub());
    }

    #[test]
    fn trace_contains_every_stage() {
        let hl = build(&KernelSpec::new(KernelOp::ModAdd, 128));
        let (_, trace) = lower_with_trace(&hl, &LoweringConfig::default());
        assert!(trace.len() >= 4);
        assert!(trace[0].0.contains("input"));
        assert!(trace.last().unwrap().0.contains("optimization"));
        assert!(trace.iter().all(|(_, text)| text.contains("kernel")));
    }
}
