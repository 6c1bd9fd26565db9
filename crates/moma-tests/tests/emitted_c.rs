//! The emitted CUDA text is C that a C compiler accepts and that computes what
//! the IR means. Every kernel shape the evaluation generates at 128, 256 and
//! 381 bits on 64-bit words, under both multiplication rules (5 ops × 3 widths
//! × 2 rules = 30 kernels), goes through `emit_cuda` into one translation unit
//! behind a `<stdint.h>` + `#define __device__ static` prelude, with a driver
//! `main` that reads parameter rows on stdin and prints the outputs. The host
//! compiler (`$CC`, default `cc`) builds it; each kernel then runs edge rows
//! (every operand 0, 1, its maximum, its maximum − 1, and every word all-ones)
//! and seeded random rows beside the tree interpreter.

use moma_ir::emit::emit_cuda;
use moma_ir::{interp, Kernel, Ty};
use moma_rewrite::{builders, lower, KernelOp, KernelSpec, LoweringConfig, MulAlgorithm};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::io::Write as _;
use std::process::{Command, Stdio};

const PRELUDE: &str = "#include <stdint.h>\n#include <inttypes.h>\n#include <stdio.h>\n\
                       #define __device__ static\n";

/// Random rows per kernel, besides the five edge rows.
const RANDOM_ROWS: usize = 40;

/// The C type an output pointer points to.
fn c_out_ty(ty: Ty) -> &'static str {
    match ty {
        Ty::Flag => "int",
        Ty::UInt(64) => "uint64_t",
        Ty::UInt(w) => panic!("this check covers 64-bit words, not {w}-bit ones"),
    }
}

/// Where each parameter sits in its operand (the prefix of its name; words
/// come most significant first): `(is_top, is_bottom)`.
fn word_places(kernel: &Kernel) -> Vec<(bool, bool)> {
    let operand = |p: &moma_ir::VarId| kernel.var(*p).name.split('_').next().expect("a name");
    let operands: Vec<&str> = kernel.params.iter().map(operand).collect();
    (0..operands.len())
        .map(|i| {
            let is_top = i == 0 || operands[i - 1] != operands[i];
            let is_bottom = i + 1 == operands.len() || operands[i + 1] != operands[i];
            (is_top, is_bottom)
        })
        .collect()
}

/// The edge rows, then seeded random rows; every operand but the all-ones row
/// fits `bits`.
fn rows(kernel: &Kernel, bits: u32, rng: &mut StdRng) -> Vec<Vec<u64>> {
    let places = word_places(kernel);
    let row = |word: &mut dyn FnMut(bool, bool) -> u64| -> Vec<u64> {
        places
            .iter()
            .map(|&(top, bottom)| word(top, bottom))
            .collect()
    };
    let max = |top: bool| match bits % 64 {
        r if top && r > 0 => (1u64 << r) - 1,
        _ => u64::MAX,
    };
    let mut rows = vec![
        row(&mut |_, _| 0),
        row(&mut |_, bottom| u64::from(bottom)),
        row(&mut |top, _| max(top)),
        row(&mut |top, bottom| max(top) - u64::from(bottom)),
        row(&mut |_, _| u64::MAX),
    ];
    for _ in 0..RANDOM_ROWS {
        rows.push(row(&mut |top, _| rng.gen::<u64>() & max(top)));
    }
    rows
}

#[test]
fn emitted_c_compiles_and_matches_the_interpreter() {
    let mut kernels = Vec::new();
    for op in KernelOp::all() {
        for bits in [128u32, 256, 381] {
            for alg in [MulAlgorithm::Schoolbook, MulAlgorithm::Karatsuba] {
                let config = LoweringConfig {
                    mul_algorithm: alg,
                    ..LoweringConfig::default()
                };
                let kernel = lower(&builders::build(&KernelSpec::new(op, bits)), &config).kernel;
                kernels.push((format!("{op:?} {bits} {alg:?}"), bits, kernel));
            }
        }
    }
    assert_eq!(kernels.len(), 30);

    // One translation unit: kernel `i` is renamed `k{i}` (the two rules share a
    // kernel name), and `run` calls it on a parameter row.
    let mut source = String::from(PRELUDE);
    let mut dispatch = String::new();
    for (i, (label, _, kernel)) in kernels.iter().enumerate() {
        let text = emit_cuda(kernel).unwrap_or_else(|e| panic!("{label}: {e}"));
        let signature = format!("__device__ void {}(", kernel.name);
        assert!(text.contains(&signature), "{label}: one signature");
        source.push_str(&text.replacen(&signature, &format!("__device__ void k{i}("), 1));
        let outs: Vec<String> = (0..kernel.outputs.len())
            .map(|j| format!("&o{j}"))
            .collect();
        let params: Vec<String> = (0..kernel.params.len())
            .map(|j| format!("p[{j}]"))
            .collect();
        write!(dispatch, "  case {i}: {{").unwrap();
        for (j, &o) in kernel.outputs.iter().enumerate() {
            write!(dispatch, " {} o{j};", c_out_ty(kernel.ty(o))).unwrap();
        }
        write!(dispatch, " k{i}({});", [outs, params].concat().join(", ")).unwrap();
        for j in 0..kernel.outputs.len() {
            write!(dispatch, " out[{j}] = (uint64_t) o{j};").unwrap();
        }
        writeln!(dispatch, " return {}; }}", kernel.outputs.len()).unwrap();
    }
    write!(
        source,
        "\nstatic int run(int k, const uint64_t *p, uint64_t *out) {{\n  switch (k) {{\n{dispatch}  \
         default: return -1;\n  }}\n}}\n\n\
         int main(void) {{\n  int k, n;\n  uint64_t p[256], out[256];\n  \
         while (scanf(\"%d %d\", &k, &n) == 2) {{\n    \
         for (int i = 0; i < n; i++) if (scanf(\"%\" SCNx64, &p[i]) != 1) return 2;\n    \
         int m = run(k, p, out);\n    if (m < 0) return 3;\n    \
         for (int i = 0; i < m; i++) printf(\"%\" PRIx64 \" \", out[i]);\n    \
         printf(\"\\n\");\n  }}\n  return 0;\n}}\n"
    )
    .unwrap();

    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("emitted_c");
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    let c_file = dir.join("kernels.c");
    let exe = dir.join("kernels");
    std::fs::write(&c_file, &source).expect("write the C source");
    let cc = std::env::var("CC").unwrap_or_else(|_| "cc".to_string());
    let compiled = Command::new(&cc)
        .args(["-std=c99", "-O1", "-o"])
        .arg(&exe)
        .arg(&c_file)
        .output()
        .unwrap_or_else(|e| {
            panic!("this test needs a C compiler: running `{cc}` failed ({e}); set $CC to one")
        });
    assert!(
        compiled.status.success(),
        "`{cc}` rejected the emitted kernels ({}):\n{}",
        c_file.display(),
        String::from_utf8_lossy(&compiled.stderr)
    );

    let mut rng = StdRng::seed_from_u64(15);
    let mut input = String::new();
    let mut expected = Vec::new();
    for (i, (label, bits, kernel)) in kernels.iter().enumerate() {
        for params in rows(kernel, *bits, &mut rng) {
            let outputs = interp::run(kernel, &params).expect("parameters fit their words");
            write!(input, "{i} {}", params.len()).unwrap();
            for p in &params {
                write!(input, " {p:x}").unwrap();
            }
            input.push('\n');
            expected.push((label, params, outputs.outputs));
        }
    }
    let mut child = Command::new(&exe)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("run the compiled kernels");
    let mut stdin = child.stdin.take().expect("piped stdin");
    let writer = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
    let run = child
        .wait_with_output()
        .expect("the compiled kernels finish");
    writer
        .join()
        .expect("writer thread")
        .expect("write the rows");
    assert!(
        run.status.success(),
        "the driver exited with {}",
        run.status
    );
    let stdout = String::from_utf8(run.stdout).expect("hex output");
    let lines: Vec<&str> = stdout.lines().collect();
    assert_eq!(lines.len(), expected.len(), "one output line per row");
    for (line, (label, params, outputs)) in lines.iter().zip(&expected) {
        let got: Vec<u64> = line
            .split_whitespace()
            .map(|w| u64::from_str_radix(w, 16).expect("a hex word"))
            .collect();
        assert_eq!(&got, outputs, "{label} on {params:x?}");
    }
}
