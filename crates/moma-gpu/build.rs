//! Builds the native twins of the fixed generated-kernel set.
//!
//! Each spec below is lowered exactly as a `Session` lowers it (the default
//! `LoweringConfig`), emitted with `moma_ir::emit::emit_rust`, and given an
//! element-major batch loop. The table at the end keys each loop by the
//! fingerprint of the lowered kernel, so `launch_compiled_batch` runs the
//! native loop for a `CompiledKernel` built from the same kernel and the
//! bytecode executor for anything else.

use moma_ir::emit::emit_rust;
use moma_ir::Ty;
use moma_rewrite::{builders, lower, KernelOp, KernelSpec, LoweringConfig};
use std::fmt::Write;
use std::path::Path;

/// The fixed set. Each member has a measured caller: the repository
/// benchmark's `multiword_inline` workload launches both modmul batches.
const FIXED_SET: [(KernelOp, u32); 2] = [(KernelOp::ModMul, 128), (KernelOp::ModMul, 256)];

fn main() {
    let mut kernels = String::new();
    let mut table = String::new();
    for (op, bits) in FIXED_SET {
        let hl = builders::build(&KernelSpec::new(op, bits));
        let kernel = lower(&hl, &LoweringConfig::default()).kernel;
        // The bytecode executor rejects a lane wider than its parameter; with
        // every parameter a full word there is nothing for a twin to reject.
        assert!(
            kernel.params.iter().all(|&p| kernel.ty(p) == Ty::UInt(64)),
            "{}: a native twin takes full machine words only",
            kernel.name
        );
        let (name, p, o) = (&kernel.name, kernel.params.len(), kernel.outputs.len());
        kernels.push_str(&emit_rust(&kernel).expect("lowered kernels are emittable"));
        writeln!(
            kernels,
            "\nfn {name}_batch(inputs: &[u64], out: &mut [u64]) {{\n    \
             for (row, out) in inputs.chunks_exact({p}).zip(out.chunks_exact_mut({o})) {{\n        \
             out.copy_from_slice(&{name}(row.try_into().expect(\"a row holds {p} words\")));\n    \
             }}\n}}\n"
        )
        .expect("writing to a String");
        writeln!(
            table,
            "    Twin {{ fingerprint: {:#018x}, run: {name}_batch }},",
            kernel.fingerprint()
        )
        .expect("writing to a String");
    }
    let source = format!(
        "{kernels}\nstatic TWINS: [Twin; {}] = [\n{table}];\n",
        FIXED_SET.len()
    );
    let out_dir = std::env::var_os("OUT_DIR").expect("cargo sets OUT_DIR");
    std::fs::write(Path::new(&out_dir).join("native_kernels.rs"), source)
        .expect("write the native kernel module");
    println!("cargo:rerun-if-changed=build.rs");
}
