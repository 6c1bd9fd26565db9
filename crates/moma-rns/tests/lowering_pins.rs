//! Pins the rewrite system's output: every generated kernel shape at the
//! evaluation's widths under both multiplication rules, and the three fused
//! RNS chain kernels at one fixed basis, each as
//! `(statements, fingerprint, emitted text digest)`.
//!
//! [`Kernel::fingerprint`] hashes the variable types, the signature and every
//! statement, so a pass that reorders, adds or drops a statement, or rewrites
//! one operand, changes it. It leaves names and comments out; the third
//! column is an FNV-1a digest of `emit_cuda`'s text (the printed kernel for
//! a fused kernel the emitter refuses), which carries both, so a change to
//! how variables are named or statements annotated moves it.
//! A change to the passes that is meant to leave the lowering alone must
//! leave this table alone; one that means to change the output regenerates
//! the table (a failure prints the full current table) and says why in the
//! same commit.

use moma_ir::emit::emit_cuda;
use moma_ir::Kernel;
use moma_rewrite::{builders, lower, KernelOp, KernelSpec, LoweringConfig, MulAlgorithm};
use moma_rns::{BaseConvPlan, RnsContext, RnsPlan};

/// `(kernel, statements, fingerprint, emitted text digest)`, in generation order.
#[rustfmt::skip]
const PINS: &[(&str, usize, u64, u64)] = &[
    ("modmul/128/Schoolbook", 38, 0x6d6c9bd903739e44, 0x784b7e8f210382f9),
    ("modmul/128/Karatsuba", 82, 0x833327c88e205903, 0x4fb6564edca964ec),
    ("modmul/192/Schoolbook", 136, 0x0d7acaed08af5d93, 0x186accd6ee6d3dc3),
    ("modmul/192/Karatsuba", 401, 0x9e1aeed2e409036b, 0x3c016ed53856b9f7),
    ("modmul/256/Schoolbook", 164, 0xfbc80a9a4f9998f9, 0xcef6bef8b7fb2df5),
    ("modmul/256/Karatsuba", 438, 0xf2f1e9e141690669, 0x3a085e7b38040c99),
    ("modmul/381/Schoolbook", 519, 0x04cfe5e4586300d1, 0xef39752d0ee53c72),
    ("modmul/381/Karatsuba", 1728, 0x81aefc3332f011ce, 0x04dfd668aee8f93d),
    ("modmul/384/Schoolbook", 519, 0xd6db1937c95bd327, 0x20a5ec451068e6b3),
    ("modmul/384/Karatsuba", 1728, 0x9e491ed884d6b4e8, 0x0de5b33eeb93db22),
    ("modmul/512/Schoolbook", 659, 0xb86fe20871f2b0dd, 0x38fce1d6a419e34c),
    ("modmul/512/Karatsuba", 1891, 0x45260423ccc47147, 0x8462c8a4c945c9a0),
    ("modmul/753/Schoolbook", 1950, 0xa109fa3c315424fd, 0x1fb4ebfe37b94c0c),
    ("modmul/753/Karatsuba", 6633, 0xc90384b79c6a9b11, 0x4903dd12471453cf),
    ("modmul/1024/Schoolbook", 2561, 0x7a3b76e2b647c761, 0xef6902f6afbe5039),
    ("modmul/1024/Karatsuba", 7292, 0x6443c09cf8f52d5c, 0x96783b6c20437c1a),
    ("modadd/128/Schoolbook", 17, 0x417173e25c97a175, 0x8f475467df6eef6a),
    ("modadd/128/Karatsuba", 17, 0x417173e25c97a175, 0x8f475467df6eef6a),
    ("modadd/192/Schoolbook", 46, 0xb9b1c2ddafefeb53, 0xd4cdfe327dc66a8f),
    ("modadd/192/Karatsuba", 46, 0xb9b1c2ddafefeb53, 0xd4cdfe327dc66a8f),
    ("modadd/256/Schoolbook", 46, 0x5934db40c2150bb6, 0xa7575e2fe3658b64),
    ("modadd/256/Karatsuba", 46, 0x5934db40c2150bb6, 0xa7575e2fe3658b64),
    ("modadd/381/Schoolbook", 121, 0x4dbc9eff8cbc705b, 0x77206123205d7d78),
    ("modadd/381/Karatsuba", 121, 0x4dbc9eff8cbc705b, 0x77206123205d7d78),
    ("modadd/384/Schoolbook", 121, 0x4dbc9eff8cbc705b, 0x0ccee582c35e7e0f),
    ("modadd/384/Karatsuba", 121, 0x4dbc9eff8cbc705b, 0x0ccee582c35e7e0f),
    ("modadd/512/Schoolbook", 123, 0x5014ec6f0fdec5ea, 0x6687485c77f7e31f),
    ("modadd/512/Karatsuba", 123, 0x5014ec6f0fdec5ea, 0x6687485c77f7e31f),
    ("modadd/753/Schoolbook", 308, 0x9b86a7cd71f72a94, 0xb5c7f44c1e0aab62),
    ("modadd/753/Karatsuba", 308, 0x9b86a7cd71f72a94, 0xb5c7f44c1e0aab62),
    ("modadd/1024/Schoolbook", 318, 0x72fc30b7a11d4c3e, 0xb11b4e406c11be84),
    ("modadd/1024/Karatsuba", 318, 0x72fc30b7a11d4c3e, 0xb11b4e406c11be84),
    ("modsub/128/Schoolbook", 12, 0xf0e03038dce0312c, 0xda65aa431ffc42ca),
    ("modsub/128/Karatsuba", 12, 0xf0e03038dce0312c, 0xda65aa431ffc42ca),
    ("modsub/192/Schoolbook", 31, 0x44c8e7e84721fe0c, 0x68c25fb2552dbbd5),
    ("modsub/192/Karatsuba", 31, 0x44c8e7e84721fe0c, 0x68c25fb2552dbbd5),
    ("modsub/256/Schoolbook", 37, 0x371589206ab20deb, 0xee71268cf7182fee),
    ("modsub/256/Karatsuba", 37, 0x371589206ab20deb, 0xee71268cf7182fee),
    ("modsub/381/Schoolbook", 88, 0x95e90dc145152e82, 0x66f7d43ee0b5b287),
    ("modsub/381/Karatsuba", 88, 0x95e90dc145152e82, 0x66f7d43ee0b5b287),
    ("modsub/384/Schoolbook", 88, 0x95e90dc145152e82, 0xcbdee8f199682efa),
    ("modsub/384/Karatsuba", 88, 0x95e90dc145152e82, 0xcbdee8f199682efa),
    ("modsub/512/Schoolbook", 106, 0xa3e7e36e2162b1c5, 0x45ded91ab78ecec2),
    ("modsub/512/Karatsuba", 106, 0xa3e7e36e2162b1c5, 0x45ded91ab78ecec2),
    ("modsub/753/Schoolbook", 235, 0x7bbec3da42c6113a, 0x3b2bc0033946993d),
    ("modsub/753/Karatsuba", 235, 0x7bbec3da42c6113a, 0x3b2bc0033946993d),
    ("modsub/1024/Schoolbook", 285, 0x87e31094e79c5c00, 0x0939001f56e686d7),
    ("modsub/1024/Karatsuba", 285, 0x87e31094e79c5c00, 0x0939001f56e686d7),
    ("axpy/128/Schoolbook", 55, 0x75d2f1c923d53507, 0xac513db3d2ccf383),
    ("axpy/128/Karatsuba", 99, 0x58888cb68c5c618d, 0x735ce6c65ef63234),
    ("axpy/192/Schoolbook", 182, 0x8c205a7c1f35811a, 0x6017f67812762f47),
    ("axpy/192/Karatsuba", 447, 0x66452e4a1bf3bd9b, 0xb82c038ae3558184),
    ("axpy/256/Schoolbook", 210, 0xfef1cc08a3e4d5b4, 0xaa0355a319703b8e),
    ("axpy/256/Karatsuba", 484, 0x36062fc48644a1b7, 0x6088decb431424c3),
    ("axpy/381/Schoolbook", 640, 0x9137ae9fdc6b5328, 0xf1c9fcb8fb732393),
    ("axpy/381/Karatsuba", 1849, 0x94e1c23f41be652f, 0x6373df6162e4da67),
    ("axpy/384/Schoolbook", 640, 0x78292ae34ed4664e, 0xce4abf84da596e42),
    ("axpy/384/Karatsuba", 1849, 0x2ee92f95a135a98d, 0x4db00e72ebd34eca),
    ("axpy/512/Schoolbook", 782, 0x777812183447c1b4, 0x9b680c2d5b8e9a66),
    ("axpy/512/Karatsuba", 2014, 0xa225dc18f1379d55, 0x5e8fda278d2deb63),
    ("axpy/753/Schoolbook", 2258, 0x348fd11d876abe65, 0x3eae31581d487411),
    ("axpy/753/Karatsuba", 6941, 0x7a5069b77d6a10b9, 0xfd0f880162ed171c),
    ("axpy/1024/Schoolbook", 2879, 0x09048fb35c725768, 0xaf5d535ce411863c),
    ("axpy/1024/Karatsuba", 7610, 0xb05f65cae4b47e00, 0xbe3c9e09f6807602),
    ("butterfly/128/Schoolbook", 67, 0x5d56fa36645d3c40, 0xb798b77a0f448cf3),
    ("butterfly/128/Karatsuba", 111, 0x42efa0f01e26a189, 0x71c6486f6419e714),
    ("butterfly/192/Schoolbook", 219, 0xaed506f436822486, 0x18d593e376bf8c46),
    ("butterfly/192/Karatsuba", 484, 0x61a36c6f6af8371b, 0x7471b466e7ffed09),
    ("butterfly/256/Schoolbook", 247, 0xffaa8041de56e119, 0xf0f2db6ba0face79),
    ("butterfly/256/Karatsuba", 521, 0x4a7e2e58edbee696, 0xad7a8e6b21d071e7),
    ("butterfly/381/Schoolbook", 746, 0x3f3eae4158926c52, 0xf99c2c3f79594268),
    ("butterfly/381/Karatsuba", 1955, 0xdb2c8d118eaacc17, 0x5f4bcf89695fd45e),
    ("butterfly/384/Schoolbook", 746, 0x7a16e706534f6151, 0xe38b9248b01cf381),
    ("butterfly/384/Karatsuba", 1955, 0xeaa354580b7eedf6, 0xe81223315c2826dd),
    ("butterfly/512/Schoolbook", 888, 0xe8518dd028c54ac2, 0x18fe307ad4c8a63d),
    ("butterfly/512/Karatsuba", 2120, 0x37c1fc1f0b533f1a, 0xdef87fde0eaf2fbb),
    ("butterfly/753/Schoolbook", 2543, 0x05fc4a508f6f22bd, 0x6d2479562ca69e67),
    ("butterfly/753/Karatsuba", 7226, 0x51c0b64bd3b4dacc, 0x9f31eea7dbd1bda6),
    ("butterfly/1024/Schoolbook", 3164, 0x635ffea623260b21, 0x7f76f7c499276791),
    ("butterfly/1024/Karatsuba", 7895, 0xb9b16a629b3e9ce8, 0x1bff3cffbd0a01c5),
    ("mul_axpy", 38, 0x5233761eca3b111e, 0xd6e5210b2166479e),
    ("base_convert", 37, 0xe871a686df2d6e95, 0xd95cc3277694f8b1),
    ("mul_rescale_then_extend", 92, 0x45bfb19e07042998, 0x4f2a97e9a5c9448e),
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

/// 64-bit FNV-1a, spelled out so the digest does not depend on the standard
/// library's hasher.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[test]
fn lowered_and_fused_kernels_match_the_pinned_table() {
    let got: Vec<(String, usize, u64, u64)> = pinned_kernels()
        .into_iter()
        .map(|(name, k)| {
            let text = match emit_cuda(&k) {
                Ok(cuda) => cuda,
                // A fused chain kernel may keep a modular operation the emitter
                // does not spell; its printed form carries names and comments too.
                Err(e) => {
                    assert!(!name.contains('/'), "{name}: {e}");
                    k.to_string()
                }
            };
            (name, k.len(), k.fingerprint(), fnv1a(text.as_bytes()))
        })
        .collect();
    let expected: Vec<(String, usize, u64, u64)> = PINS
        .iter()
        .map(|&(name, len, fp, text)| (name.to_string(), len, fp, text))
        .collect();
    if got != expected {
        let table: String = got
            .iter()
            .map(|(name, len, fp, text)| {
                format!("    ({name:?}, {len}, {fp:#018x}, {text:#018x}),\n")
            })
            .collect();
        panic!("the lowering output moved; the current table is:\n{table}");
    }
}
