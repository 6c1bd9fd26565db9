//! Test fixture: emits the Rust for kernels lowered to a 32-bit machine word,
//! so the `emitted_rust` test can build them with rustc and compare them with
//! the tree interpreter. Nothing outside that test uses the output.

use moma_ir::emit::emit_rust;
use moma_rewrite::{builders, lower, KernelOp, KernelSpec, LoweringConfig};
use std::fmt::Write;
use std::path::Path;

/// The kernels, all lowered with `LoweringConfig::for_word_bits(32)`.
const SPECS: [(KernelOp, u32); 3] = [
    (KernelOp::ModAdd, 64),
    (KernelOp::ModMul, 64),
    (KernelOp::ModMul, 128),
];

fn main() {
    let mut source = String::new();
    let mut table = String::new();
    for (op, bits) in SPECS {
        let hl = builders::build(&KernelSpec::new(op, bits));
        let kernel = lower(&hl, &LoweringConfig::for_word_bits(32)).kernel;
        source.push_str(&emit_rust(&kernel).expect("lowered kernels are emittable"));
        let name = &kernel.name;
        writeln!(
            table,
            "    ({:#018x}, |row| {name}(row.try_into().expect(\"a full row\")).to_vec()),",
            kernel.fingerprint()
        )
        .expect("writing to a String");
    }
    source.push_str(&format!(
        "\n/// `(fingerprint, run one row)` per emitted kernel.\n\
         static EMITTED: [(u64, RunRow); {}] = [\n{table}];\n",
        SPECS.len()
    ));
    let out_dir = std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR");
    std::fs::write(Path::new(&out_dir).join("emitted_w32.rs"), source)
        .expect("write the emitted kernels");
    println!("cargo:rerun-if-changed=build.rs");
}
