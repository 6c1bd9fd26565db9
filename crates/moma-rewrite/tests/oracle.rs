//! End-to-end correctness of the rewrite system: for every kernel, every evaluated
//! bit-width, both multiplication algorithms, and machine word widths of 64 and 32
//! bits, interpreting the generated (lowered) code must agree with the
//! arbitrary-precision oracle.

use moma_bignum::BigUint;
use moma_ir::interp;
use moma_rewrite::{builders, lower, KernelOp, KernelSpec, LoweringConfig, MulAlgorithm};
use proptest::prelude::*;
use std::collections::HashMap;

/// Packs a BigUint into the words of a lowered kernel parameter list.
///
/// A parameter named `x` that was recursively split appears as machine words named
/// `x_hi_hi…`, in most-significant-first order. We therefore collect, for each original
/// parameter, its word variables in declaration order and fill them most significant
/// first. Pruned (dropped) words are simply skipped.
fn pack_param(
    value: &BigUint,
    word_names: &[String],
    word_bits: u32,
    padded_bits: u32,
) -> Vec<u64> {
    // Produce the padded value as words, most significant first.
    let total_words = (padded_bits / word_bits) as usize;
    let limbs64 = value.to_limbs_le(padded_bits.div_ceil(64) as usize);
    let mut words_lsb_first: Vec<u64> = Vec::new();
    match word_bits {
        64 => words_lsb_first = limbs64,
        32 => {
            for l in limbs64 {
                words_lsb_first.push(l & 0xffff_ffff);
                words_lsb_first.push(l >> 32);
            }
        }
        _ => panic!("unsupported word width"),
    }
    words_lsb_first.resize(total_words, 0);
    let mut msb_first: Vec<u64> = words_lsb_first;
    msb_first.reverse();
    // Now assign to surviving names: names are in most-significant-first order too, but
    // some may have been pruned. We rely on the fact that pruning only ever removes
    // *leading* (most significant, known-zero) words.
    let skip = total_words - word_names.len();
    msb_first[skip..].to_vec()
}

/// Groups the lowered kernel's parameters by original parameter name prefix.
fn group_params(kernel: &moma_ir::Kernel, original: &[&str]) -> HashMap<String, Vec<String>> {
    let mut groups: HashMap<String, Vec<String>> = HashMap::new();
    for p in &kernel.params {
        let name = kernel.var(*p).name.clone();
        let root = original
            .iter()
            .find(|o| name == **o || name.starts_with(&format!("{o}_")))
            .unwrap_or_else(|| panic!("parameter {name} has no known root"));
        groups.entry((*root).to_string()).or_default().push(name);
    }
    groups
}

/// Unpacks the outputs (most significant word first) into a BigUint.
fn unpack_outputs(outputs: &[u64], word_bits: u32) -> BigUint {
    let mut acc = BigUint::zero();
    for &w in outputs {
        acc = (acc << word_bits) + BigUint::from(w);
    }
    acc
}

/// Deterministic pseudo-random modulus of exactly `bits` bits (odd, top bit set).
fn test_modulus(bits: u32, seed: u64) -> BigUint {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let limbs = bits.div_ceil(64) as usize;
    let mut v: Vec<u64> = (0..limbs).map(|_| next()).collect();
    let top_bits = bits - (limbs as u32 - 1) * 64;
    let top = &mut v[limbs - 1];
    if top_bits < 64 {
        *top &= (1u64 << top_bits) - 1;
    }
    *top |= 1u64 << (top_bits - 1);
    v[0] |= 1;
    BigUint::from_limbs_le(v)
}

/// Computes the Barrett constant for a modulus of `mbits` bits.
fn barrett_mu(q: &BigUint, mbits: u32) -> BigUint {
    (BigUint::from(1u64) << (2 * mbits + 3)) / q
}

/// Runs one spec at one configuration against the oracle.
fn check(op: KernelOp, bits: u32, word_bits: u32, alg: MulAlgorithm, a: &BigUint, b: &BigUint) {
    let spec = KernelSpec::new(op, bits);
    let hl = builders::build(&spec);
    let config = LoweringConfig {
        word_bits,
        mul_algorithm: alg,
    };
    let lowered = lower(&hl, &config);
    let kernel = &lowered.kernel;

    let mbits = spec.modulus_bits();
    let q = test_modulus(mbits, 0x5eed ^ (bits as u64) << 8 ^ word_bits as u64);
    let mu = barrett_mu(&q, mbits);
    let a = a % &q;
    let b = b % &q;

    // Build the oracle expectation.
    let expected: Vec<BigUint> = match op {
        KernelOp::ModAdd => vec![a.mod_add(&b, &q)],
        KernelOp::ModSub => vec![a.mod_sub(&b, &q)],
        KernelOp::ModMul => vec![a.mod_mul(&b, &q)],
        KernelOp::Axpy => {
            // y' = a*x + y, with x := b and y := a (arbitrary but deterministic choice).
            vec![a.mod_mul(&b, &q).mod_add(&a, &q)]
        }
        KernelOp::Butterfly => {
            let wy = a.mod_mul(&b, &q); // w := a, y := b ... see argument packing below
            vec![b.mod_add(&wy, &q), b.mod_sub(&wy, &q)]
        }
    };

    // Assemble the original-parameter value map.
    let values: Vec<(&str, BigUint)> = match op {
        KernelOp::ModAdd | KernelOp::ModSub => {
            vec![("a", a.clone()), ("b", b.clone()), ("q", q.clone())]
        }
        KernelOp::ModMul => vec![
            ("a", a.clone()),
            ("b", b.clone()),
            ("q", q.clone()),
            ("mu", mu.clone()),
        ],
        KernelOp::Axpy => vec![
            ("a", a.clone()),
            ("x", b.clone()),
            ("y", a.clone()),
            ("q", q.clone()),
            ("mu", mu.clone()),
        ],
        KernelOp::Butterfly => vec![
            ("x", b.clone()),
            ("y", b.clone()),
            ("w", a.clone()),
            ("q", q.clone()),
            ("mu", mu.clone()),
        ],
    };
    // Butterfly oracle above uses x=b, y=b, w=a: x' = x + w*y = b + a*b; y' = b - a*b.
    let expected = if op == KernelOp::Butterfly {
        let wy = a.mod_mul(&b, &q);
        vec![b.mod_add(&wy, &q), b.mod_sub(&wy, &q)]
    } else {
        expected
    };

    let roots: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
    let groups = group_params(kernel, &roots);
    let mut inputs = Vec::new();
    for p in &kernel.params {
        let _ = p;
    }
    // Parameters appear grouped per original parameter, in original order; walk the
    // kernel's parameter list and fill values in order.
    let mut per_root_words: HashMap<String, std::collections::VecDeque<u64>> = HashMap::new();
    for (root, value) in &values {
        if let Some(names) = groups.get(*root) {
            let packed = pack_param(value, names, word_bits, spec.padded_bits());
            per_root_words.insert((*root).to_string(), packed.into());
        }
    }
    for p in &kernel.params {
        let name = kernel.var(*p).name.clone();
        let root = roots
            .iter()
            .find(|o| name == **o || name.starts_with(&format!("{o}_")))
            .unwrap();
        let w = per_root_words
            .get_mut(*root)
            .and_then(|dq| dq.pop_front())
            .unwrap_or_else(|| panic!("no value left for {name}"));
        inputs.push(w);
    }

    let result = interp::run(kernel, &inputs)
        .unwrap_or_else(|e| panic!("{op:?} {bits} w{word_bits} {alg:?}: {e}"));

    // Outputs: grouped per original output, most significant word first.
    let words_per_value = (spec.padded_bits() / word_bits) as usize;
    assert_eq!(result.outputs.len(), words_per_value * expected.len());
    for (i, exp) in expected.iter().enumerate() {
        let got = unpack_outputs(
            &result.outputs[i * words_per_value..(i + 1) * words_per_value],
            word_bits,
        );
        assert_eq!(
            &got, exp,
            "{op:?} bits={bits} word={word_bits} alg={alg:?} output {i}\n a={a:x}\n b={b:x}\n q={q:x}"
        );
    }
}

/// Strategy: a random value of at most `bits` bits.
fn value(bits: u32) -> impl Strategy<Value = BigUint> {
    prop::collection::vec(any::<u64>(), bits.div_ceil(64) as usize)
        .prop_map(move |v| BigUint::from_limbs_le(v).low_bits(bits))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn modadd_matches_oracle(a in value(256), b in value(256)) {
        for bits in [128u32, 256, 381] {
            check(KernelOp::ModAdd, bits, 64, MulAlgorithm::Schoolbook, &a, &b);
        }
        check(KernelOp::ModAdd, 128, 32, MulAlgorithm::Schoolbook, &a, &b);
    }

    #[test]
    fn modsub_matches_oracle(a in value(256), b in value(256)) {
        for bits in [128u32, 256, 384] {
            check(KernelOp::ModSub, bits, 64, MulAlgorithm::Schoolbook, &a, &b);
        }
        check(KernelOp::ModSub, 256, 32, MulAlgorithm::Schoolbook, &a, &b);
    }

    #[test]
    fn modmul_matches_oracle_schoolbook(a in value(512), b in value(512)) {
        for bits in [128u32, 256, 384, 512] {
            check(KernelOp::ModMul, bits, 64, MulAlgorithm::Schoolbook, &a, &b);
        }
    }

    #[test]
    fn modmul_matches_oracle_karatsuba(a in value(512), b in value(512)) {
        for bits in [128u32, 256, 512] {
            check(KernelOp::ModMul, bits, 64, MulAlgorithm::Karatsuba, &a, &b);
        }
    }

    #[test]
    fn modmul_matches_oracle_32_bit_words(a in value(256), b in value(256)) {
        check(KernelOp::ModMul, 128, 32, MulAlgorithm::Schoolbook, &a, &b);
        check(KernelOp::ModMul, 256, 32, MulAlgorithm::Karatsuba, &a, &b);
    }

    #[test]
    fn axpy_and_butterfly_match_oracle(a in value(256), b in value(256)) {
        for bits in [128u32, 256] {
            check(KernelOp::Axpy, bits, 64, MulAlgorithm::Schoolbook, &a, &b);
            check(KernelOp::Butterfly, bits, 64, MulAlgorithm::Schoolbook, &a, &b);
            check(KernelOp::Butterfly, bits, 64, MulAlgorithm::Karatsuba, &a, &b);
        }
    }

    #[test]
    fn non_power_of_two_widths_match_oracle(a in value(381), b in value(381)) {
        // The ZKP-style widths the paper highlights: 381 (BLS12-381) and 753 (MNT4753).
        check(KernelOp::ModMul, 381, 64, MulAlgorithm::Schoolbook, &a, &b);
        check(KernelOp::Butterfly, 381, 64, MulAlgorithm::Schoolbook, &a, &b);
    }
}

#[test]
fn large_widths_single_case() {
    // 768- and 1024-bit kernels are slower to lower; exercise them once outside proptest.
    let a = test_modulus(700, 42);
    let b = test_modulus(700, 43);
    check(KernelOp::ModMul, 768, 64, MulAlgorithm::Schoolbook, &a, &b);
    check(KernelOp::ModMul, 1024, 64, MulAlgorithm::Karatsuba, &a, &b);
    check(KernelOp::ModMul, 753, 64, MulAlgorithm::Schoolbook, &a, &b);
}
