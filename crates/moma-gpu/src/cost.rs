//! Analytical cost model: word-operation counts → estimated kernel time on a device.
//!
//! The model is deliberately simple and transparent:
//!
//! * each word-level operation class has a fixed cycle weight (multiplications are the
//!   dominant cost, as in the paper's §5.4 discussion);
//! * the per-thread cycle count is multiplied by the number of virtual threads and
//!   divided by the device's aggregate issue rate;
//! * a memory term models the data movement of the working set at the device's peak
//!   bandwidth;
//! * for NTT-style kernels, a penalty multiplies the compute term once the per-block
//!   working set exceeds the device's shared memory (the paper observes a 1.5× slowdown
//!   for H100/RTX 4090 and a much larger one for V100 at sizes above 2^10).

use crate::device::DeviceSpec;
use moma_ir::cost::OpCounts;
use std::time::Duration;

/// Cycle weights for one word-level operation, in units of a single-cycle 64-bit ALU
/// operation on the modelled device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpWeights {
    /// Widening word multiplication.
    pub mul: f64,
    /// Low-half word multiplication.
    pub mul_low: f64,
    /// Addition / subtraction (including carry handling).
    pub add_sub: f64,
    /// Comparison, boolean logic, select.
    pub logic: f64,
    /// Multi-word constant shift (per statement).
    pub shift: f64,
    /// Register move.
    pub copy: f64,
}

impl Default for OpWeights {
    fn default() -> Self {
        OpWeights {
            mul: 4.0,
            mul_low: 3.0,
            add_sub: 1.0,
            logic: 1.0,
            shift: 2.0,
            copy: 0.5,
        }
    }
}

impl OpWeights {
    /// Weighted cost of one kernel execution with the given operation counts, in
    /// whatever unit the weights are expressed in (device cycles for the default
    /// weights).
    ///
    /// High-level modular statements (`mulmod`, `addmod`, `submod`, and the
    /// fused `macmod`) are weighed by the operation mix of their single-word
    /// expansion — kernels that execute them *fused* (the interpreter, the
    /// compiled executor's generated RNS kernels) would otherwise weigh zero and
    /// silently estimate as free.
    pub fn weigh(&self, counts: &OpCounts) -> f64 {
        // Word-op mixes of the moma-rewrite expansions: a Barrett mulmod lowers
        // to 2 widening muls, 1 low mul, 2 shifts, 2 sub, 2 logic; an addmod to
        // 2 add/sub and 5 logic; a submod to 2 add/sub and 2 logic.
        let mulmod = 2.0 * self.mul
            + self.mul_low
            + 2.0 * self.shift
            + 2.0 * self.add_sub
            + 2.0 * self.logic;
        let addmod = 2.0 * self.add_sub + 5.0 * self.logic;
        let submod = 2.0 * self.add_sub + 2.0 * self.logic;
        // One accumulation-loop term (`macreduce`) is a widening multiply folded
        // into a 128-bit accumulator: 1 mul + 2 add/sub. The single deferred
        // reduction (`reducewide`) is two division-free word reductions (each
        // 1 mul + 1 low mul + 2 add/sub + 2 logic), one Barrett fold of the
        // high word, and the final conditional add — the
        // `SingleBarrett::reduce_wide` sequence the compiled executor runs.
        let macreduce = self.mul + 2.0 * self.add_sub;
        let reduce_word = self.mul + self.mul_low + 2.0 * self.add_sub + 2.0 * self.logic;
        let reducewide = 2.0 * reduce_word + mulmod + addmod;
        counts.get("mulwide") as f64 * self.mul
            + counts.get("mullow") as f64 * self.mul_low
            + counts.add_sub() as f64 * self.add_sub
            + counts.logic() as f64 * self.logic
            + counts.shifts() as f64 * self.shift
            + counts.get("copy") as f64 * self.copy
            + counts.get("mulmod") as f64 * mulmod
            + counts.get("addmod") as f64 * addmod
            + counts.get("submod") as f64 * submod
            + counts.get("macmod") as f64 * (mulmod + addmod)
            + counts.get("macreduce") as f64 * macreduce
            + counts.get("reducewide") as f64 * reducewide
    }
}

/// Result of a cost estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelCostEstimate {
    /// Estimated execution time of the whole launch.
    pub total: Duration,
    /// Compute component.
    pub compute: Duration,
    /// Memory-traffic component.
    pub memory: Duration,
    /// Cycles per virtual thread.
    pub cycles_per_thread: f64,
    /// Whether the shared-memory capacity was exceeded.
    pub spills_shared_memory: bool,
}

impl KernelCostEstimate {
    /// Total time in nanoseconds.
    pub fn nanos(&self) -> f64 {
        self.total.as_secs_f64() * 1e9
    }
}

/// Analytical cost model for one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// The device being modelled.
    pub device: DeviceSpec,
    /// Operation weights.
    pub weights: OpWeights,
    /// Sustained fraction of peak integer throughput that word-serial cryptographic
    /// kernels achieve (occupancy, memory stalls, synchronization). Calibrated so the
    /// per-butterfly times land in the same decade as the paper's measurements.
    pub utilization: f64,
}

impl CostModel {
    /// Creates a model with default weights.
    pub fn new(device: DeviceSpec) -> Self {
        CostModel {
            device,
            weights: OpWeights::default(),
            utilization: 0.01,
        }
    }

    /// Sustained word-operation throughput in ops/second.
    fn effective_ops_per_second(&self) -> f64 {
        // A 64-bit word operation retires at roughly half the 32-bit integer rate.
        self.device.peak_ops_per_second() / 2.0 * self.utilization
    }

    /// Cycles consumed by one execution of a kernel with the given operation counts.
    pub fn cycles_per_thread(&self, counts: &OpCounts) -> f64 {
        self.weights.weigh(counts)
    }

    /// Estimates a data-parallel launch of `threads` virtual threads, each executing a
    /// kernel with `counts_per_thread` word operations and touching
    /// `bytes_per_thread` bytes of global memory.
    pub fn estimate_launch(
        &self,
        counts_per_thread: &OpCounts,
        threads: u64,
        bytes_per_thread: u64,
    ) -> KernelCostEstimate {
        let cycles = self.cycles_per_thread(counts_per_thread);
        let effective_ops_per_second = self.effective_ops_per_second();
        let compute_s = cycles * threads as f64 / effective_ops_per_second;
        let memory_s = (bytes_per_thread as f64 * threads as f64)
            / (self.device.mem_bandwidth_gbs as f64 * 1e9);
        let total_s = compute_s.max(memory_s) + 2.0e-6; // fixed launch overhead
        KernelCostEstimate {
            total: Duration::from_secs_f64(total_s),
            compute: Duration::from_secs_f64(compute_s),
            memory: Duration::from_secs_f64(memory_s),
            cycles_per_thread: cycles,
            spills_shared_memory: false,
        }
    }

    /// Estimates a full `n`-point NTT at the given element width.
    ///
    /// `counts_per_butterfly` is the word-operation count of one generated butterfly
    /// kernel. The transform runs `log2(n)` stages of `n/2` butterflies; stages are
    /// serialized (grid synchronization between stages), and the whole stage-parallel
    /// workload is spread over the device. When the working set of one transform
    /// exceeds the per-SM shared memory, the compute term is multiplied by a
    /// generation-dependent spill penalty (the behaviour Figure 3a shows at 2^11).
    pub fn estimate_ntt(
        &self,
        counts_per_butterfly: &OpCounts,
        n: u64,
        element_bits: u32,
    ) -> KernelCostEstimate {
        assert!(
            n.is_power_of_two() && n >= 2,
            "NTT size must be a power of two"
        );
        let log_n = n.trailing_zeros() as u64;
        let butterflies = n / 2 * log_n;
        let cycles_bf = self.cycles_per_thread(counts_per_butterfly);

        // Steady-state (batched) throughput: the device retires butterflies at its
        // sustained word-operation rate (§5.1: one thread per butterfly, batches keep
        // every SM busy).
        let compute_per_bf = cycles_bf / self.effective_ops_per_second();

        // Working set of one transform: n elements of element_bits plus twiddles.
        let bytes = n * (element_bits as u64 / 8) * 2;
        let spills = bytes > self.device.shared_mem_bytes();
        // Once the transform no longer fits in shared memory each butterfly goes through
        // global memory (two loads, two stores, one twiddle) and the whole kernel slows
        // down by a generation-dependent factor (Figure 3a: ~1.5x on H100/RTX 4090, much
        // more on the V100).
        let spill_penalty = if spills {
            match self.device.name {
                "V100" => 4.0,
                _ => 1.5,
            }
        } else {
            1.0
        };
        let memory_per_bf = if spills {
            5.0 * (element_bits as f64 / 8.0) / (self.device.mem_bandwidth_gbs as f64 * 1e9)
        } else {
            0.0
        };
        let compute_s = compute_per_bf * spill_penalty * butterflies as f64;
        let memory_s = memory_per_bf * butterflies as f64;
        // One (batch-amortized) launch overhead; visible only at small transform sizes,
        // which is why the left edge of the Figure 3 curves sits higher.
        let total_s = compute_s + memory_s + 2.0e-6;
        KernelCostEstimate {
            total: Duration::from_secs_f64(total_s),
            compute: Duration::from_secs_f64(compute_s),
            memory: Duration::from_secs_f64(memory_s),
            cycles_per_thread: cycles_bf,
            spills_shared_memory: spills,
        }
    }

    /// Runtime per butterfly in nanoseconds for an `n`-point NTT (the y-axis of the
    /// paper's Figures 1 and 3: `2·t_single / (n·log2 n)`).
    pub fn ntt_time_per_butterfly_ns(
        &self,
        counts_per_butterfly: &OpCounts,
        n: u64,
        element_bits: u32,
    ) -> f64 {
        let est = self.estimate_ntt(counts_per_butterfly, n, element_bits);
        let butterflies = (n / 2) as f64 * (n.trailing_zeros() as f64);
        est.nanos() / butterflies
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moma_ir::{Op, Operand};

    fn counts(muls: u64, adds: u64) -> OpCounts {
        let mut c = OpCounts::new();
        for _ in 0..muls {
            c.record(&Op::MulWide {
                a: Operand::Const(1),
                b: Operand::Const(1),
            });
        }
        for _ in 0..adds {
            c.record(&Op::AddWide {
                a: Operand::Const(1),
                b: Operand::Const(1),
                carry_in: None,
            });
        }
        c
    }

    #[test]
    fn cycle_weights_add_up() {
        let model = CostModel::new(DeviceSpec::H100);
        assert_eq!(model.cycles_per_thread(&counts(2, 3)), 2.0 * 4.0 + 3.0);
    }

    #[test]
    fn more_work_costs_more() {
        let model = CostModel::new(DeviceSpec::H100);
        let small = model.estimate_launch(&counts(4, 8), 1 << 20, 64);
        let big = model.estimate_launch(&counts(16, 32), 1 << 20, 256);
        assert!(big.total > small.total);
        assert!(big.cycles_per_thread > small.cycles_per_thread);
    }

    #[test]
    fn v100_is_slower_than_h100() {
        let c = counts(30, 60);
        let h = CostModel::new(DeviceSpec::H100).estimate_ntt(&c, 1 << 16, 256);
        let v = CostModel::new(DeviceSpec::V100).estimate_ntt(&c, 1 << 16, 256);
        assert!(v.total > h.total);
    }

    #[test]
    fn shared_memory_cliff_appears_above_capacity() {
        let c = counts(10, 20);
        let model = CostModel::new(DeviceSpec::V100);
        // 96 KiB of shared memory: 2^11 elements of 256 bits (2*64 KiB with twiddles)
        // spill, 2^10 do not.
        let small = model.estimate_ntt(&c, 1 << 10, 256);
        let large = model.estimate_ntt(&c, 1 << 11, 256);
        assert!(!small.spills_shared_memory);
        assert!(large.spills_shared_memory);
        let per_bf_small = model.ntt_time_per_butterfly_ns(&c, 1 << 10, 256);
        let per_bf_large = model.ntt_time_per_butterfly_ns(&c, 1 << 11, 256);
        assert!(per_bf_large > per_bf_small);
    }

    #[test]
    fn per_butterfly_time_grows_with_bit_width_ops() {
        // More word ops per butterfly (wider inputs) must increase time per butterfly.
        let model = CostModel::new(DeviceSpec::RTX4090);
        let narrow = model.ntt_time_per_butterfly_ns(&counts(9, 20), 4096, 128);
        let wide = model.ntt_time_per_butterfly_ns(&counts(36, 80), 4096, 256);
        assert!(wide > narrow);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn ntt_size_must_be_power_of_two() {
        CostModel::new(DeviceSpec::H100).estimate_ntt(&counts(1, 1), 1000, 128);
    }

    #[test]
    fn high_level_modular_ops_weigh_their_expansion_mix() {
        let w = OpWeights::default();
        let mut fused = OpCounts::new();
        fused.record(&Op::MulModBarrett {
            a: Operand::Const(1),
            b: Operand::Const(1),
            q: Operand::Const(3),
            mu: Operand::Const(0),
            mbits: 2,
        });
        fused.record(&Op::MulAddMod {
            a: Operand::Const(1),
            b: Operand::Const(1),
            c: Operand::Const(0),
            q: Operand::Const(3),
            mu: Operand::Const(0),
            mbits: 2,
        });
        let weighed = w.weigh(&fused);
        assert!(weighed > 0.0, "fused modular ops must not weigh zero");
        // macmod = mulmod + addmod, so the pair weighs two mulmods plus one
        // addmod's worth of word ops.
        let mulmod = 2.0 * w.mul + w.mul_low + 2.0 * w.shift + 2.0 * w.add_sub + 2.0 * w.logic;
        let addmod = 2.0 * w.add_sub + 5.0 * w.logic;
        assert!((weighed - (2.0 * mulmod + addmod)).abs() < 1e-9);
    }

    #[test]
    fn accumulation_loops_weigh_less_than_the_macmod_chain_they_replace() {
        let w = OpWeights::default();
        let k = 4;
        let mut chain = OpCounts::new();
        for _ in 0..k {
            chain.record(&Op::MulAddMod {
                a: Operand::Const(1),
                b: Operand::Const(1),
                c: Operand::Const(0),
                q: Operand::Const(97),
                mu: Operand::Const(0),
                mbits: 7,
            });
        }
        let mut fused = OpCounts::new();
        fused.record(&Op::MacReduceMod {
            pairs: vec![(Operand::Const(1), Operand::Const(1)); k],
            q: 97,
        });
        let chain_cost = w.weigh(&chain);
        let fused_cost = w.weigh(&fused);
        assert!(fused_cost > 0.0, "accumulation loops must not weigh zero");
        assert!(
            fused_cost < chain_cost,
            "a {k}-term accumulation loop ({fused_cost}) must undercut the \
             macmod chain it replaces ({chain_cost}): one deferred reduction \
             instead of {k} full Barrett reductions"
        );
        // The exact mix: k widening MACs plus one deferred wide reduction.
        let mulmod = 2.0 * w.mul + w.mul_low + 2.0 * w.shift + 2.0 * w.add_sub + 2.0 * w.logic;
        let addmod = 2.0 * w.add_sub + 5.0 * w.logic;
        let macreduce = w.mul + 2.0 * w.add_sub;
        let reduce_word = w.mul + w.mul_low + 2.0 * w.add_sub + 2.0 * w.logic;
        let reducewide = 2.0 * reduce_word + mulmod + addmod;
        assert!((fused_cost - (k as f64 * macreduce + reducewide)).abs() < 1e-9);
    }
}
