//! The emitted Rust means what the IR means at a machine word narrower than
//! 64 bits. The package's build script lowers `ModAdd` 64, `ModMul` 64 and
//! `ModMul` 128 to 32-bit words and emits them with `emit_rust`; rustc builds
//! them into this test, which runs them beside the tree interpreter. Words
//! live in `u64`s, so every sub-64-bit result must be masked to its width: an
//! unmasked sum keeps its carry bit in the low word.

use moma_ir::{interp, Kernel};
use moma_rewrite::{builders, lower, KernelOp, KernelSpec, LoweringConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs one emitted kernel on one parameter row.
type RunRow = fn(&[u64]) -> Vec<u64>;

include!(concat!(env!("OUT_DIR"), "/emitted_w32.rs"));

const WORD: u64 = u32::MAX as u64;

/// One parameter row: `word(operand, i)` gives word `i` (most significant
/// first) of the operand a parameter belongs to — the prefix of its name.
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
fn rows(kernel: &Kernel, bits: u32, rng: &mut StdRng) -> Vec<Vec<u64>> {
    let words = (bits / 32) as usize;
    let random = |rng: &mut StdRng| rng.gen::<u64>() & WORD;
    let mut rows: Vec<Vec<u64>> = (0..2000)
        .map(|_| kernel.params.iter().map(|_| random(rng)).collect())
        .collect();
    let q: Vec<u64> = (0..words).map(|_| random(rng) | 1).collect();
    let other: Vec<u64> = (0..words).map(|_| random(rng)).collect();
    rows.push(row(kernel, |_, _| WORD));
    rows.push(row(kernel, |operand, i| match operand {
        "q" => WORD,
        _ => other[i],
    }));
    rows.push(row(kernel, |operand, i| match operand {
        "a" | "b" => 0,
        _ => other[i],
    }));
    rows.push(row(kernel, |operand, i| match operand {
        "q" => q[i],
        "a" | "b" => q[i] - u64::from(i + 1 == words),
        _ => other[i],
    }));
    rows
}

#[test]
fn emitted_rust_matches_the_interpreter_at_32_bit_words() {
    let mut rng = StdRng::seed_from_u64(7);
    let specs = [
        (KernelOp::ModAdd, 64),
        (KernelOp::ModMul, 64),
        (KernelOp::ModMul, 128),
    ];
    assert_eq!(EMITTED.len(), specs.len());
    for ((op, bits), (fingerprint, run)) in specs.into_iter().zip(EMITTED) {
        let hl = builders::build(&KernelSpec::new(op, bits));
        let kernel = lower(&hl, &LoweringConfig::for_word_bits(32)).kernel;
        assert_eq!(
            kernel.fingerprint(),
            fingerprint,
            "{op:?} {bits} lowers as built"
        );
        for params in rows(&kernel, bits, &mut rng) {
            let oracle = interp::run(&kernel, &params).expect("inputs fit 32-bit words");
            assert_eq!(run(&params), oracle.outputs, "{op:?} {bits} on {params:x?}");
        }
    }
}
