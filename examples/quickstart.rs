//! Quickstart: open a `Session`, generate a 256-bit modular multiplication kernel
//! through its cache, look at the code the rewrite system produces, execute it, and
//! run a session-cached RNS chain.
//!
//! Run with: `cargo run -p moma-examples --example quickstart`

use moma::bignum::BigUint;
use moma::{KernelOp, KernelSpec, Session};

fn main() {
    // 1. One session owns every cache: generated kernels, compiled kernels, and
    //    the NTT/RNS execution plans. Everything below goes through it.
    let session = Session::default();

    // 2. Generate the kernel: (a * b) mod q for 256-bit operands, Barrett reduction,
    //    lowered to 64-bit machine words by the MoMA rewrite system.
    let kernel = session.compile(&KernelSpec::new(KernelOp::ModMul, 256));

    println!("Generated kernel: {}", kernel.kernel.name);
    println!(
        "  lowering stages (width -> statements): {:?}",
        kernel
            .stages
            .iter()
            .map(|s| (s.width, s.statements))
            .collect::<Vec<_>>()
    );
    println!("  word-level operations: {}", kernel.op_counts);
    println!();
    // The source is emitted from the kernel IR when asked for.
    let cuda = kernel.cuda_source();
    println!("--- CUDA-like source (first 20 lines) ---");
    for line in cuda.lines().take(20) {
        println!("{line}");
    }
    println!("... ({} lines total)\n", cuda.lines().count());

    // 3. Compile once, execute many: an identical request is served from the cache.
    let again = session.compile(&KernelSpec::new(KernelOp::ModMul, 256));
    assert!(std::sync::Arc::ptr_eq(&kernel, &again));
    println!(
        "generated-kernel cache: {} miss, {} hit (second request built nothing)\n",
        session.stats().generated.misses,
        session.stats().generated.hits
    );

    // 4. Execute the generated code on real values and check it against the
    //    arbitrary-precision oracle.
    let q = moma::ntt::params::paper_modulus(256);
    let mu = (BigUint::from(1u64) << (2 * q.bits() + 3)) / &q;
    let a = BigUint::from_hex("123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
        .unwrap()
        % &q;
    let b = BigUint::from_hex("fedcba9876543210fedcba9876543210fedcba9876543210fedcba987654321")
        .unwrap()
        % &q;

    let words = |x: &BigUint| {
        let mut w = x.to_limbs_le(4);
        w.reverse(); // the generated kernel takes words most-significant first
        w
    };
    let mut inputs = Vec::new();
    inputs.extend(words(&a));
    inputs.extend(words(&b));
    inputs.extend(words(&q));
    inputs.extend(words(&mu));
    let outputs = kernel.run(&inputs).expect("generated kernel runs");
    let got = outputs
        .iter()
        .fold(BigUint::zero(), |acc, &w| (acc << 64) + BigUint::from(w));

    let expected = a.mod_mul(&b, &q);
    println!("a * b mod q (generated code) = 0x{got:x}");
    println!("a * b mod q (oracle)         = 0x{expected:x}");
    assert_eq!(got, expected, "generated code must agree with the oracle");
    println!("The generated kernel agrees with the arbitrary-precision oracle.\n");

    // 5. The typed RNS handles: encode, square, and run the fused
    //    rescale-and-extend chain (BEHZ FastBConvSK), all through session caches.
    let space = session.rns_with_capacity(128);
    let values = [a % space.product(), b % space.product()];
    let vec = space.encode(&values);
    let extended = vec.mul(&vec).rescale_then_extend(&space);
    println!(
        "RNS chain over {} moduli: mul -> fused rescale_then_extend -> {} elements over {} target rows",
        space.moduli().len(),
        extended.len(),
        extended.matrix().row_count()
    );
    let stats = session.stats();
    println!(
        "plan caches after the chain: rns {}+{}, rescale_extend {}+{} (misses+hits)",
        stats.rns.misses, stats.rns.hits, stats.rescale_extend.misses, stats.rescale_extend.hits
    );
}
