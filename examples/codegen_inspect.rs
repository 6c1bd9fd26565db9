//! Inspect the rewrite system itself: print the Table 1 rules, the §4 worked example
//! (rewriting a double-word modular addition step by step), and the generated CUDA
//! source for the paper's Listing 2/4 equivalents.
//!
//! Run with: `cargo run -p moma-examples --example codegen_inspect`

use moma::rewrite::rules::{CORE_RULES, EXTENDED_RULES};
use moma::{Compiler, KernelOp, KernelSpec};

fn main() {
    println!("=== Table 1: MoMA core rewrite rules ===\n");
    for rule in CORE_RULES {
        println!("({})  {}", rule.number, rule.lhs);
        println!("     -> {}", rule.rhs);
        println!("     implemented in {}\n", rule.implemented_in);
    }
    println!("=== Additional rules described in prose ===\n");
    for rule in EXTENDED_RULES {
        println!("     {}", rule.lhs);
        println!("     -> {}\n", rule.rhs);
    }

    // The §4 worked example: c^(2w) = (a + b) mod q at 128 bits, rewritten to 64-bit
    // machine words (Equations 30 -> 34, then concretized).
    println!("=== Worked example: 128-bit modular addition (Equation 30) ===\n");
    let compiler = Compiler::default();
    let (kernel, trace) = compiler.compile_with_trace(&KernelSpec::new(KernelOp::ModAdd, 128));
    for (stage, text) in &trace {
        println!("--- {stage} ---");
        println!("{text}\n");
    }

    println!("=== Emitted CUDA (the paper's Listing 2 _daddmod equivalent) ===\n");
    println!("{}", kernel.cuda_source());

    println!("=== Emitted CUDA for 128-bit Barrett modular multiplication (Listing 4) ===\n");
    let mulmod = compiler.compile(&KernelSpec::new(KernelOp::ModMul, 128));
    println!("{}", mulmod.cuda_source());
}
