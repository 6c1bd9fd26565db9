//! Pins the rewrite system's output: every generated kernel shape at the
//! evaluation's widths under both multiplication rules, and the three fused
//! RNS chain kernels at one fixed basis, each as `(statements, fingerprint)`.
//!
//! [`Kernel::fingerprint`] hashes the variable types, the signature and every
//! statement, so a pass that reorders, adds or drops a statement, or rewrites
//! one operand, changes it. A change to the passes that is meant to leave the
//! lowering alone must leave this table alone; one that means to change the
//! output regenerates the table (a failure prints the full current table) and
//! says why in the same commit.

use moma_ir::Kernel;
use moma_rewrite::{builders, lower, KernelOp, KernelSpec, LoweringConfig, MulAlgorithm};
use moma_rns::{BaseConvPlan, RnsContext, RnsPlan};

/// `(kernel, statements, fingerprint)`, in generation order.
const PINS: &[(&str, usize, u64)] = &[
    ("modmul/128/Schoolbook", 38, 0x6d6c9bd903739e44),
    ("modmul/128/Karatsuba", 82, 0x833327c88e205903),
    ("modmul/192/Schoolbook", 136, 0x0d7acaed08af5d93),
    ("modmul/192/Karatsuba", 401, 0x9e1aeed2e409036b),
    ("modmul/256/Schoolbook", 164, 0xfbc80a9a4f9998f9),
    ("modmul/256/Karatsuba", 438, 0xf2f1e9e141690669),
    ("modmul/381/Schoolbook", 519, 0x04cfe5e4586300d1),
    ("modmul/381/Karatsuba", 1728, 0x81aefc3332f011ce),
    ("modmul/384/Schoolbook", 519, 0xd6db1937c95bd327),
    ("modmul/384/Karatsuba", 1728, 0x9e491ed884d6b4e8),
    ("modmul/512/Schoolbook", 659, 0xb86fe20871f2b0dd),
    ("modmul/512/Karatsuba", 1891, 0x45260423ccc47147),
    ("modmul/753/Schoolbook", 1950, 0xa109fa3c315424fd),
    ("modmul/753/Karatsuba", 6633, 0xc90384b79c6a9b11),
    ("modmul/1024/Schoolbook", 2561, 0x7a3b76e2b647c761),
    ("modmul/1024/Karatsuba", 7292, 0x6443c09cf8f52d5c),
    ("modadd/128/Schoolbook", 17, 0x417173e25c97a175),
    ("modadd/128/Karatsuba", 17, 0x417173e25c97a175),
    ("modadd/192/Schoolbook", 46, 0xb9b1c2ddafefeb53),
    ("modadd/192/Karatsuba", 46, 0xb9b1c2ddafefeb53),
    ("modadd/256/Schoolbook", 46, 0x5934db40c2150bb6),
    ("modadd/256/Karatsuba", 46, 0x5934db40c2150bb6),
    ("modadd/381/Schoolbook", 121, 0x4dbc9eff8cbc705b),
    ("modadd/381/Karatsuba", 121, 0x4dbc9eff8cbc705b),
    ("modadd/384/Schoolbook", 121, 0x4dbc9eff8cbc705b),
    ("modadd/384/Karatsuba", 121, 0x4dbc9eff8cbc705b),
    ("modadd/512/Schoolbook", 123, 0x5014ec6f0fdec5ea),
    ("modadd/512/Karatsuba", 123, 0x5014ec6f0fdec5ea),
    ("modadd/753/Schoolbook", 308, 0x9b86a7cd71f72a94),
    ("modadd/753/Karatsuba", 308, 0x9b86a7cd71f72a94),
    ("modadd/1024/Schoolbook", 318, 0x72fc30b7a11d4c3e),
    ("modadd/1024/Karatsuba", 318, 0x72fc30b7a11d4c3e),
    ("modsub/128/Schoolbook", 12, 0xf0e03038dce0312c),
    ("modsub/128/Karatsuba", 12, 0xf0e03038dce0312c),
    ("modsub/192/Schoolbook", 31, 0x44c8e7e84721fe0c),
    ("modsub/192/Karatsuba", 31, 0x44c8e7e84721fe0c),
    ("modsub/256/Schoolbook", 37, 0x371589206ab20deb),
    ("modsub/256/Karatsuba", 37, 0x371589206ab20deb),
    ("modsub/381/Schoolbook", 88, 0x95e90dc145152e82),
    ("modsub/381/Karatsuba", 88, 0x95e90dc145152e82),
    ("modsub/384/Schoolbook", 88, 0x95e90dc145152e82),
    ("modsub/384/Karatsuba", 88, 0x95e90dc145152e82),
    ("modsub/512/Schoolbook", 106, 0xa3e7e36e2162b1c5),
    ("modsub/512/Karatsuba", 106, 0xa3e7e36e2162b1c5),
    ("modsub/753/Schoolbook", 235, 0x7bbec3da42c6113a),
    ("modsub/753/Karatsuba", 235, 0x7bbec3da42c6113a),
    ("modsub/1024/Schoolbook", 285, 0x87e31094e79c5c00),
    ("modsub/1024/Karatsuba", 285, 0x87e31094e79c5c00),
    ("axpy/128/Schoolbook", 55, 0x75d2f1c923d53507),
    ("axpy/128/Karatsuba", 99, 0x58888cb68c5c618d),
    ("axpy/192/Schoolbook", 182, 0x8c205a7c1f35811a),
    ("axpy/192/Karatsuba", 447, 0x66452e4a1bf3bd9b),
    ("axpy/256/Schoolbook", 210, 0xfef1cc08a3e4d5b4),
    ("axpy/256/Karatsuba", 484, 0x36062fc48644a1b7),
    ("axpy/381/Schoolbook", 640, 0x9137ae9fdc6b5328),
    ("axpy/381/Karatsuba", 1849, 0x94e1c23f41be652f),
    ("axpy/384/Schoolbook", 640, 0x78292ae34ed4664e),
    ("axpy/384/Karatsuba", 1849, 0x2ee92f95a135a98d),
    ("axpy/512/Schoolbook", 782, 0x777812183447c1b4),
    ("axpy/512/Karatsuba", 2014, 0xa225dc18f1379d55),
    ("axpy/753/Schoolbook", 2258, 0x348fd11d876abe65),
    ("axpy/753/Karatsuba", 6941, 0x7a5069b77d6a10b9),
    ("axpy/1024/Schoolbook", 2879, 0x09048fb35c725768),
    ("axpy/1024/Karatsuba", 7610, 0xb05f65cae4b47e00),
    ("butterfly/128/Schoolbook", 67, 0x5d56fa36645d3c40),
    ("butterfly/128/Karatsuba", 111, 0x42efa0f01e26a189),
    ("butterfly/192/Schoolbook", 219, 0xaed506f436822486),
    ("butterfly/192/Karatsuba", 484, 0x61a36c6f6af8371b),
    ("butterfly/256/Schoolbook", 247, 0xffaa8041de56e119),
    ("butterfly/256/Karatsuba", 521, 0x4a7e2e58edbee696),
    ("butterfly/381/Schoolbook", 746, 0x3f3eae4158926c52),
    ("butterfly/381/Karatsuba", 1955, 0xdb2c8d118eaacc17),
    ("butterfly/384/Schoolbook", 746, 0x7a16e706534f6151),
    ("butterfly/384/Karatsuba", 1955, 0xeaa354580b7eedf6),
    ("butterfly/512/Schoolbook", 888, 0xe8518dd028c54ac2),
    ("butterfly/512/Karatsuba", 2120, 0x37c1fc1f0b533f1a),
    ("butterfly/753/Schoolbook", 2543, 0x05fc4a508f6f22bd),
    ("butterfly/753/Karatsuba", 7226, 0x51c0b64bd3b4dacc),
    ("butterfly/1024/Schoolbook", 3164, 0x635ffea623260b21),
    ("butterfly/1024/Karatsuba", 7895, 0xb9b16a629b3e9ce8),
    ("mul_axpy", 38, 0x4dd05553020a08c3),
    ("base_convert", 37, 0xb1afd941b0e81582),
    ("mul_rescale_then_extend", 92, 0x16e2f0029ff94329),
];

/// Every pinned kernel, named, in the order of [`PINS`].
fn pinned_kernels() -> Vec<(String, Kernel)> {
    let mut kernels = Vec::new();
    for op in KernelOp::all() {
        for bits in [128u32, 192, 256, 381, 384, 512, 753, 1024] {
            for alg in [MulAlgorithm::Schoolbook, MulAlgorithm::Karatsuba] {
                let config = LoweringConfig {
                    mul_algorithm: alg,
                    ..LoweringConfig::default()
                };
                let hl = builders::build(&KernelSpec::new(op, bits));
                let name = format!("{}/{bits}/{alg:?}", op.name());
                kernels.push((name, lower(&hl, &config).kernel));
            }
        }
    }
    // The 520-bit capacity basis (19 moduli) and its first 18, the shape the
    // chain ops run in: every target modulus is also a source modulus, so
    // the fusion rules that drop zero terms and fold scaled sums all fire.
    let src = RnsPlan::with_capacity_bits(520);
    let moduli: Vec<u64> = src.moduli().collect();
    let dst = RnsPlan::new(&RnsContext::with_moduli(&moduli[..18]));
    kernels.push(("mul_axpy".into(), src.mul_axpy_kernel_ir()));
    let convert_back = BaseConvPlan::new(&dst, &src);
    kernels.push(("base_convert".into(), convert_back.fused_kernel_ir()));
    kernels.push((
        "mul_rescale_then_extend".into(),
        src.rescale_extend_plan(&dst).mul_fused_kernel_ir(),
    ));
    kernels
}

#[test]
fn lowered_and_fused_kernels_match_the_pinned_table() {
    let got: Vec<(String, usize, u64)> = pinned_kernels()
        .into_iter()
        .map(|(name, k)| (name, k.len(), k.fingerprint()))
        .collect();
    let expected: Vec<(String, usize, u64)> = PINS
        .iter()
        .map(|&(name, len, fp)| (name.to_string(), len, fp))
        .collect();
    if got != expected {
        let table: String = got
            .iter()
            .map(|(name, len, fp)| format!("    ({name:?}, {len}, {fp:#018x}),\n"))
            .collect();
        panic!("the lowering output moved; the current table is:\n{table}");
    }
}
