//! `reproduce` — prints every table and figure of the paper's evaluation from this
//! reproduction: measured host numbers for the runtime-library kernels, modelled
//! per-device numbers from the analytical cost model fed with the generated kernels'
//! operation counts, and the published baseline values for comparison.
//!
//! Usage:
//!   cargo run -p moma-bench --bin reproduce --release            # everything
//!   cargo run -p moma-bench --bin reproduce --release -- fig3    # one item
//!   cargo run -p moma-bench --bin reproduce --release -- bench   # hot-path bench,
//!                                                                # writes BENCH_ntt_blas.json
//!   cargo run -p moma-bench --bin reproduce --release -- --quick # bench only, fast
//!
//! Items: table1, table2, codegen, fig1, fig2, fig3, fig4, fig5a, fig5b, claims, serve,
//! bench, all. `--quick` reduces the bench iteration counts (CI smoke mode); on its own
//! it implies the `serve` and `bench` items only. Any other argument is rejected with a
//! non-zero exit, so a mistyped item cannot pass for a run that printed nothing.
//!
//! `serve` runs the closed-loop batching-service bench: N simulated clients in a
//! closed loop against a `moma-serve` server over one shared session, batched
//! coalescing vs the one-request-at-a-time baseline (throughput, p50/p99 latency,
//! launches per op, cache hit rate). It also runs the open-loop overload bench:
//! arrival-rate-driven load at ≈2x measured capacity against a bounded-queue
//! server, recording goodput, shed rate, and the latency of *accepted* requests
//! — the robustness claim is that p99 stays bounded because excess load is shed
//! at admission instead of queueing. The numbers land in `BENCH_ntt_blas.json`
//! under `serve_closed_loop` and `serve_overload` when the `bench` item also runs.

use moma::bignum::BigUint;
use moma::blas::batch::{run_batch, Batch};
use moma::blas::gpu::run_batch_parallel;
use moma::blas::BlasOp;
use moma::gpu::{BufferPool, DeviceSpec};
use moma::ir::compiled::CompiledKernel;
use moma::ir::interp;
use moma::mp::{ModRing, MpUint, MulAlgorithm as RtMulAlgorithm};
use moma::ntt::params::{paper_modulus, NttParams};
use moma::ntt::plan::NttPlan;
use moma::ntt::transform::{butterfly_count, forward, Ntt64};
use moma::paper_data;
use moma::rewrite::rules::CORE_RULES;
use moma::rewrite::{builders, lower};
use moma::rns::{vector as rns_vec, BaseConvPlan, RnsContext, RnsMatrix, RnsPlan};
use moma::MulAlgorithm;
use moma::{Compiler, KernelOp, KernelSpec, LoweringConfig, RnsSpace, Session};
use moma_serve::{ServeConfig, ServeError, Server, Ticket, WorkItem};
use rand::{Rng, SeedableRng};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Every item name `reproduce` accepts on its command line.
const ITEMS: [&str; 13] = [
    "table1", "table2", "codegen", "fig1", "fig2", "fig3", "fig4", "fig5a", "fig5b", "claims",
    "serve", "bench", "all",
];

fn main() {
    let all_args: Vec<String> = std::env::args().skip(1).collect();
    let quick = all_args.iter().any(|a| a == "--quick");
    let args: Vec<String> = all_args.into_iter().filter(|a| a != "--quick").collect();
    if let Some(unknown) = args.iter().find(|a| !ITEMS.contains(&a.as_str())) {
        eprintln!(
            "reproduce: unknown item `{unknown}`; valid items: {} (and --quick)",
            ITEMS.join(", ")
        );
        std::process::exit(2);
    }
    // `--quick` with no explicit items means "bench smoke only"; otherwise the
    // item list (or its absence = everything) decides as before.
    let bench_only = quick && args.is_empty();
    let want = |name: &str| {
        if bench_only {
            name == "bench" || name == "serve"
        } else {
            args.is_empty() || args.iter().any(|a| a == name || a == "all")
        }
    };

    // One session serves every figure and bench: generated kernels, NTT plans,
    // and RNS plans are built once and shared across items.
    let session = Session::default();

    if want("table1") {
        table1();
    }
    if want("table2") {
        table2();
    }
    if want("codegen") {
        codegen_stats();
    }
    if want("fig2") {
        fig2(&session);
    }
    if want("fig1") || want("fig3") {
        fig3(&session);
    }
    if want("fig4") {
        fig4(&session);
    }
    if want("fig5a") {
        fig5a(&session);
    }
    if want("fig5b") {
        fig5b();
    }
    if want("claims") {
        claims(&session);
    }
    // The serve benches run once and feed both the printed sections and the
    // `serve_closed_loop` / `serve_overload` entries the `bench` item writes
    // to the JSON file.
    if want("serve") || want("bench") {
        let serve = bench_serve(quick);
        let overload = bench_serve_overload(quick);
        if want("bench") {
            bench(&session, quick, &serve, &overload);
        }
    }
}

fn heading(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

fn table1() {
    heading("Table 1: MoMA core rewrite rules");
    for rule in CORE_RULES {
        println!("({:>2})  {:<55} ->  {}", rule.number, rule.lhs, rule.rhs);
    }
}

fn table2() {
    heading("Table 2: GPUs used for benchmarking (simulated devices)");
    println!(
        "{:<10} {:>8} {:>12} {:>9} {:>9} {:>9}",
        "Model", "#Cores", "Max Freq.", "RAM", "Bus", "Toolkit"
    );
    for d in DeviceSpec::all() {
        println!(
            "{:<10} {:>8} {:>9} MHz {:>6} GB {:>9} {:>9}",
            d.name, d.cores, d.max_freq_mhz, d.ram_gb, d.bus, d.toolkit
        );
    }
}

fn codegen_stats() {
    heading("Code generation summary (word-level operations per generated kernel)");
    println!(
        "{:<12} {:>6} {:>10} {:>10} {:>10} {:>10}",
        "kernel", "bits", "word muls", "add/sub", "logic", "total"
    );
    let compiler = Compiler::default();
    for op in [KernelOp::ModMul, KernelOp::Butterfly] {
        for bits in [128u32, 256, 381, 384, 512, 768, 1024] {
            let k = compiler.compile(&KernelSpec::new(op, bits));
            let c = &k.op_counts;
            println!(
                "{:<12} {:>6} {:>10} {:>10} {:>10} {:>10}",
                op.name(),
                bits,
                c.multiplications(),
                c.add_sub(),
                c.logic(),
                c.total()
            );
        }
    }
}

/// Measures one BLAS operation in ns/element over the runtime library.
fn measure_blas<const L: usize>(bits: u32, op: BlasOp, elements: usize) -> f64 {
    let q = MpUint::<L>::from_limbs_le(&paper_modulus(bits).to_limbs_le(L));
    let ring = ModRing::new(q);
    let mut rng = rand::thread_rng();
    let x = Batch::<L>::random(&ring, &mut rng, 1, elements);
    let y = Batch::<L>::random(&ring, &mut rng, 1, elements);
    let a = ring.random_element(&mut rng);
    let start = Instant::now();
    let iters = 4;
    for _ in 0..iters {
        std::hint::black_box(run_batch(&ring, op, a, &x, &y));
    }
    start.elapsed().as_secs_f64() * 1e9 / (iters * elements) as f64
}

fn fig2(session: &Session) {
    heading("Figure 2: BLAS operations, ns per element (2^14 elements, host CPU)");
    let elements = 1 << 14;
    println!(
        "{:<26} {:>10} {:>10} {:>10} {:>10}",
        "system / operation", "128-bit", "256-bit", "512-bit", "1024-bit"
    );
    for op in BlasOp::all() {
        let moma: Vec<f64> = vec![
            measure_blas::<2>(128, op, elements),
            measure_blas::<4>(256, op, elements),
            measure_blas::<8>(512, op, elements),
            measure_blas::<16>(1024, op, elements),
        ];
        println!(
            "{:<26} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            format!("MoMA rt / {}", op.name()),
            moma[0],
            moma[1],
            moma[2],
            moma[3]
        );
    }
    // GMP stand-in and GRNS stand-in, multiplication and addition only (the paper's
    // qualitative comparison), at a reduced element count to keep this quick.
    let elements = 1 << 12;
    type BaselineRow<'a> = (&'a str, Box<dyn Fn(u32) -> f64>);
    let baseline_rows: Vec<BaselineRow> = vec![
        (
            "GMP stand-in / vec mul",
            Box::new(move |bits| measure_bignum_blas(bits, true, elements)),
        ),
        (
            "GMP stand-in / vec add",
            Box::new(move |bits| measure_bignum_blas(bits, false, elements)),
        ),
        (
            "GRNS stand-in / vec mul",
            Box::new(move |bits| measure_rns_blas(bits, true, elements)),
        ),
        (
            "GRNS stand-in / vec add",
            Box::new(move |bits| measure_rns_blas(bits, false, elements)),
        ),
        (
            "GRNS planned / vec mul",
            Box::new(move |bits| measure_rns_planned_blas(bits, true, elements)),
        ),
        (
            "GRNS planned / vec add",
            Box::new(move |bits| measure_rns_planned_blas(bits, false, elements)),
        ),
        (
            "GRNS planned / base conv",
            Box::new(move |bits| measure_rns_baseconv(bits, false, elements)),
        ),
        (
            "GRNS planned / rescale",
            Box::new(move |bits| measure_rns_baseconv(bits, true, elements)),
        ),
    ];
    for (label, f) in &baseline_rows {
        println!(
            "{:<26} {:>10.1} {:>10.1} {:>10.1} {:>10.1}",
            label,
            f(128),
            f(256),
            f(512),
            f(1024)
        );
    }
    println!("\nPublished baselines (paper, approximate):");
    for r in paper_data::BLAS_GMP
        .iter()
        .take(2)
        .chain(paper_data::BLAS_GRNS.iter().take(2))
    {
        let p: Vec<String> = r
            .points
            .iter()
            .map(|(b, ns)| format!("{b}: {ns} ns"))
            .collect();
        println!("  {:<6} {:<22} {}", r.system, r.op, p.join(", "));
    }
    println!("\nModelled MoMA-on-GPU vector multiplication, ns per element (2^20 elements):");
    for d in DeviceSpec::all() {
        print!("  {:<10}", d.name);
        for bits in [128u32, 256, 512, 1024] {
            print!(
                " {:>8.3}",
                session.modelled_blas_ns_per_element(d, KernelOp::ModMul, bits, 1 << 20)
            );
        }
        println!();
    }
}

fn measure_bignum_blas(bits: u32, mul: bool, elements: usize) -> f64 {
    let q = paper_modulus(bits);
    let mut rng = rand::thread_rng();
    let a: Vec<BigUint> = (0..elements)
        .map(|_| moma::bignum::random::random_below(&mut rng, &q))
        .collect();
    let b: Vec<BigUint> = (0..elements)
        .map(|_| moma::bignum::random::random_below(&mut rng, &q))
        .collect();
    let start = Instant::now();
    let out: Vec<BigUint> = a
        .iter()
        .zip(&b)
        .map(|(x, y)| {
            if mul {
                x.mod_mul(y, &q)
            } else {
                x.mod_add(y, &q)
            }
        })
        .collect();
    std::hint::black_box(out);
    start.elapsed().as_secs_f64() * 1e9 / elements as f64
}

fn measure_rns_blas(bits: u32, mul: bool, elements: usize) -> f64 {
    let ctx = RnsContext::with_capacity_bits(2 * bits + 8);
    let q = paper_modulus(bits);
    let mut rng = rand::thread_rng();
    let a: Vec<BigUint> = (0..elements)
        .map(|_| moma::bignum::random::random_below(&mut rng, &q))
        .collect();
    let b: Vec<BigUint> = (0..elements)
        .map(|_| moma::bignum::random::random_below(&mut rng, &q))
        .collect();
    let ra = rns_vec::RnsVector::from_biguints(&ctx, &a);
    let rb = rns_vec::RnsVector::from_biguints(&ctx, &b);
    let start = Instant::now();
    let out = if mul {
        rns_vec::vec_mul(&ctx, &ra, &rb)
    } else {
        rns_vec::vec_add(&ctx, &ra, &rb)
    };
    std::hint::black_box(out);
    start.elapsed().as_secs_f64() * 1e9 / elements as f64
}

/// The planned (SoA, launcher-routed) counterpart of [`measure_rns_blas`].
fn measure_rns_planned_blas(bits: u32, mul: bool, elements: usize) -> f64 {
    let plan = RnsPlan::with_capacity_bits(2 * bits + 8);
    let q = paper_modulus(bits);
    let mut rng = rand::thread_rng();
    let a: Vec<BigUint> = (0..elements)
        .map(|_| moma::bignum::random::random_below(&mut rng, &q))
        .collect();
    let b: Vec<BigUint> = (0..elements)
        .map(|_| moma::bignum::random::random_below(&mut rng, &q))
        .collect();
    let ma = RnsMatrix::from_biguints(&plan, &a);
    let mb = RnsMatrix::from_biguints(&plan, &b);
    let op = if mul { BlasOp::VecMul } else { BlasOp::VecAdd };
    let start = Instant::now();
    std::hint::black_box(plan.apply(op, None, &ma, &mb, &BufferPool::new()));
    start.elapsed().as_secs_f64() * 1e9 / elements as f64
}

/// A deterministic base-extension target: `count` distinct 31-bit primes drawn
/// from a seed distinct from the default basis generator's (a shared modulus
/// between the two bases would be harmless, but a fresh basis is the workload
/// Figure 2's pipelines chain).
fn baseconv_target_plan(count: usize, seed: u64) -> RnsPlan {
    RnsPlan::new(&RnsContext::with_random_primes(count, 31, seed))
}

/// [`baseconv_target_plan`] through the session's basis-keyed plan cache.
fn baseconv_target_space(session: &Session, count: usize, seed: u64) -> RnsSpace {
    let moduli = RnsContext::with_random_primes(count, 31, seed)
        .moduli()
        .to_vec();
    session.rns(&moduli)
}

/// Measures the planned RNS chain operations — fast base extension
/// (`rescale = false`) or approximate scaled rounding (`rescale = true`) —
/// returning ns per element.
fn measure_rns_baseconv(bits: u32, rescale: bool, elements: usize) -> f64 {
    let plan = RnsPlan::with_capacity_bits(2 * bits + 8);
    let q = paper_modulus(bits);
    let mut rng = rand::thread_rng();
    let a: Vec<BigUint> = (0..elements)
        .map(|_| moma::bignum::random::random_below(&mut rng, &q))
        .collect();
    let ma = RnsMatrix::from_biguints(&plan, &a);
    if rescale {
        let rp = plan.rescale_plan();
        let start = Instant::now();
        std::hint::black_box(plan.scale_and_round(&rp, &ma, &BufferPool::new()));
        start.elapsed().as_secs_f64() * 1e9 / elements as f64
    } else {
        let dst = baseconv_target_plan(plan.moduli_count(), 0xba5e_c0de);
        let bc = BaseConvPlan::new(&plan, &dst);
        let kernel = CompiledKernel::compile(&bc.fused_kernel_ir())
            .expect("generated conversion kernel compiles");
        let start = Instant::now();
        std::hint::black_box(plan.base_convert(&bc, &ma, &kernel, &BufferPool::new()));
        start.elapsed().as_secs_f64() * 1e9 / elements as f64
    }
}

/// Measures the host runtime-library NTT, returning ns per butterfly.
fn measure_ntt<const L: usize>(bits: u32, log_n: u32) -> f64 {
    let n = 1usize << log_n;
    let params = NttParams::<L>::for_paper_modulus(n, bits, RtMulAlgorithm::Schoolbook);
    let mut rng = rand::thread_rng();
    let data: Vec<_> = (0..n)
        .map(|_| params.ring.random_element(&mut rng))
        .collect();
    let start = Instant::now();
    let mut work = data;
    forward(&params, &mut work);
    std::hint::black_box(&work);
    start.elapsed().as_secs_f64() * 1e9 / butterfly_count(n) as f64
}

fn fig3(session: &Session) {
    heading("Figures 1 & 3: NTT runtime per butterfly (ns)");
    let log_sizes = [8u32, 10, 12, 14, 16, 18, 20, 22];
    for (bits, baselines) in [
        (128u32, &paper_data::NTT_128_BASELINES[..]),
        (256, &paper_data::NTT_256_BASELINES[..]),
        (384, &paper_data::NTT_384_BASELINES[..]),
        (768, &paper_data::NTT_768_BASELINES[..]),
    ] {
        println!("\n--- {bits}-bit inputs ---");
        print!("{:<28}", "log2(size)");
        for l in log_sizes {
            print!(" {l:>8}");
        }
        println!();
        // Modelled MoMA on each device.
        for series in session.ntt_series(bits, &log_sizes, MulAlgorithm::Schoolbook) {
            print!("{:<28}", format!("{} [{}]", series.system, series.platform));
            for (_, ns) in &series.points {
                print!(" {ns:>8.2}");
            }
            println!();
        }
        // Measured host butterflies at the small sizes (wall clock, this machine).
        let measured: Vec<(u32, f64)> = log_sizes
            .iter()
            .filter(|&&l| l <= 12)
            .map(|&l| {
                let ns = match bits {
                    128 => measure_ntt::<2>(bits, l),
                    256 => measure_ntt::<4>(bits, l),
                    384 => measure_ntt::<6>(bits, l),
                    _ => measure_ntt::<12>(bits, l),
                };
                (l, ns)
            })
            .collect();
        print!("{:<28}", "MoMA rt [host CPU, measured]");
        for l in log_sizes {
            match measured.iter().find(|(ml, _)| *ml == l) {
                Some((_, ns)) => print!(" {ns:>8.1}"),
                None => print!(" {:>8}", "-"),
            }
        }
        println!();
        // Published baselines.
        for r in baselines {
            print!("{:<28}", format!("{} [{}] (paper)", r.system, r.platform));
            for l in log_sizes {
                match r.points.iter().find(|(pl, _)| *pl == l) {
                    Some((_, ns)) => print!(" {ns:>8.1}"),
                    None => print!(" {:>8}", "-"),
                }
            }
            println!();
        }
    }
}

fn fig4(session: &Session) {
    heading("Figure 4: 2^16-point NTT across input bit-widths (modelled, ns per butterfly)");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "device", "128", "256", "384", "512", "640", "768", "1024"
    );
    for d in DeviceSpec::all() {
        print!("{:<12}", d.name);
        for bits in [128u32, 256, 384, 512, 640, 768, 1024] {
            print!(
                " {:>10.2}",
                session.modelled_ntt_ns_per_butterfly(d, bits, 16, MulAlgorithm::Schoolbook)
            );
        }
        println!();
    }
    println!("\nMeasured host cross-cut at 2^10 points (ns per butterfly):");
    print!("{:<12}", "host CPU");
    for (bits, ns) in [
        (128, measure_ntt::<2>(128, 10)),
        (256, measure_ntt::<4>(256, 10)),
        (384, measure_ntt::<6>(384, 10)),
        (512, measure_ntt::<8>(512, 10)),
        (768, measure_ntt::<12>(768, 10)),
        (1024, measure_ntt::<16>(1024, 10)),
    ] {
        print!(" {bits}:{ns:.0}ns");
    }
    println!();
}

fn fig5a(session: &Session) {
    heading("Figure 5a: 4096-point NTT runtime vs input bit-width (modelled per device, µs)");
    println!(
        "{:<12} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "device", "64", "128", "256", "512", "768", "1024"
    );
    for d in [DeviceSpec::H100, DeviceSpec::RTX4090] {
        print!("{:<12}", d.name);
        for bits in [64u32, 128, 256, 512, 768, 1024] {
            let ns = session.modelled_ntt_ns_per_butterfly(d, bits, 12, MulAlgorithm::Schoolbook);
            let total_us = ns * butterfly_count(4096) as f64 / 1e3;
            print!(" {total_us:>10.2}");
        }
        println!();
    }
}

fn fig5b() {
    heading("Figure 5b: Karatsuba vs schoolbook, 4096-point NTT (measured host, ms)");
    println!(
        "{:<14} {:>12} {:>12} {:>12}",
        "bit-width", "schoolbook", "karatsuba", "ratio"
    );
    for bits in [128u32, 256, 384, 768] {
        let measure = |alg: RtMulAlgorithm| -> f64 {
            match bits {
                128 => measure_ntt_alg::<2>(bits, alg),
                256 => measure_ntt_alg::<4>(bits, alg),
                384 => measure_ntt_alg::<6>(bits, alg),
                _ => measure_ntt_alg::<12>(bits, alg),
            }
        };
        let sb = measure(RtMulAlgorithm::Schoolbook);
        let ka = measure(RtMulAlgorithm::Karatsuba);
        println!(
            "{:<14} {:>12.2} {:>12.2} {:>12.2}",
            format!("{bits}-bit"),
            sb,
            ka,
            sb / ka
        );
    }
    println!("(ratio > 1 means Karatsuba is faster; the paper reports 2.1x at 128 bits");
    println!(" falling below 1 by 768 bits on the RTX 4090)");
}

fn measure_ntt_alg<const L: usize>(bits: u32, alg: RtMulAlgorithm) -> f64 {
    let n = 4096;
    let params = NttParams::<L>::for_paper_modulus(n, bits, alg);
    let mut rng = rand::thread_rng();
    let mut data: Vec<_> = (0..n)
        .map(|_| params.ring.random_element(&mut rng))
        .collect();
    let start = Instant::now();
    forward(&params, &mut data);
    std::hint::black_box(&data);
    start.elapsed().as_secs_f64() * 1e3
}

fn claims(session: &Session) {
    heading("Headline claims: paper vs this reproduction");
    // Claim: BLAS speedups over GMP/GRNS.
    let elements = 1 << 12;
    let moma_mul = measure_blas::<4>(256, BlasOp::VecMul, elements);
    let gmp_mul = measure_bignum_blas(256, true, elements);
    let rns_mul = measure_rns_blas(256, true, elements);
    let moma_add = measure_blas::<4>(256, BlasOp::VecAdd, elements);
    let gmp_add = measure_bignum_blas(256, false, elements);
    println!("256-bit vector multiplication: MoMA rt {moma_mul:.1} ns/elt, GMP stand-in {gmp_mul:.1} ns/elt ({:.1}x), GRNS stand-in {rns_mul:.1} ns/elt ({:.1}x)",
        gmp_mul / moma_mul, rns_mul / moma_mul);
    println!("256-bit vector addition:       MoMA rt {moma_add:.1} ns/elt, GMP stand-in {gmp_add:.1} ns/elt ({:.1}x)",
        gmp_add / moma_add);
    println!(
        "(paper: >= {}x over both baselines for every BLAS op; >= {}x over GMP for add/sub)",
        paper_data::claims::BLAS_MIN_SPEEDUP,
        paper_data::claims::BLAS_ADDSUB_VS_GMP
    );

    // Claim: 256-bit NTT vs ICICLE (modelled device vs published baseline).
    let moma_h100: f64 = [12u32, 14, 16, 18, 20, 22]
        .iter()
        .map(|&l| {
            session.modelled_ntt_ns_per_butterfly(
                DeviceSpec::H100,
                256,
                l,
                MulAlgorithm::Schoolbook,
            )
        })
        .sum::<f64>()
        / 6.0;
    let icicle: f64 = paper_data::NTT_256_BASELINES[0]
        .points
        .iter()
        .map(|(_, ns)| ns)
        .sum::<f64>()
        / paper_data::NTT_256_BASELINES[0].points.len() as f64;
    println!("\n256-bit NTT per butterfly: MoMA modelled H100 {moma_h100:.2} ns vs ICICLE (paper) {icicle:.1} ns -> {:.1}x (paper claims {}x)",
        icicle / moma_h100, paper_data::claims::NTT_256_VS_ICICLE);

    // Claim: Karatsuba vs schoolbook crossover.
    let counts_sb = session.butterfly_op_counts(128, MulAlgorithm::Schoolbook);
    let counts_ka = session.butterfly_op_counts(128, MulAlgorithm::Karatsuba);
    println!("\n128-bit butterfly multiplications: schoolbook {} vs Karatsuba {} (paper 5.4: 4 vs 3 per double word)",
        counts_sb.multiplications(), counts_ka.multiplications());
}

// ---------------------------------------------------------------------------
// Hot-path benchmark: naive vs planned NTT, interpreted vs compiled kernels.
// Emits BENCH_ntt_blas.json so later PRs have a perf trajectory to beat.
// ---------------------------------------------------------------------------

/// Runs `f` `iters` times on a fresh clone of `data` and returns the best
/// wall-clock seconds of one run (setup excluded from the timed region).
fn best_run<T: Clone>(iters: u32, data: &T, mut f: impl FnMut(&mut T)) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let mut work = data.clone();
        let start = Instant::now();
        f(&mut work);
        let elapsed = start.elapsed().as_secs_f64();
        std::hint::black_box(&work);
        best = best.min(elapsed);
    }
    best
}

struct NttBenchRow {
    path: &'static str,
    ns_per_butterfly: f64,
}

/// Benchmarks the 64-bit NTT: naive Barrett loop vs the session-cached
/// Shoup/lazy-reduction plan.
fn bench_ntt_u64(session: &Session, n: usize, iters: u32) -> (f64, Vec<NttBenchRow>) {
    let ntt = Ntt64::new(n);
    let space = session.ntt_default(n);
    let mut rng = rand::thread_rng();
    let data: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % ntt.ctx.q).collect();
    let butterflies = butterfly_count(n) as f64;
    let naive = best_run(iters, &data, |w| ntt.forward(w)) * 1e9 / butterflies;
    let planned = best_run(iters, &data, |w| space.forward(w)) * 1e9 / butterflies;
    (
        naive / planned,
        vec![
            NttBenchRow {
                path: "naive_u64",
                ns_per_butterfly: naive,
            },
            NttBenchRow {
                path: "planned_u64",
                ns_per_butterfly: planned,
            },
        ],
    )
}

/// Benchmarks the 128-bit (2-limb) NTT: naive loop vs the session-cached
/// precomputed-table plan.
fn bench_ntt_u128(session: &Session, n: usize, iters: u32) -> (f64, Vec<NttBenchRow>) {
    let params = NttParams::<2>::for_paper_modulus(n, 128, RtMulAlgorithm::Schoolbook);
    let plan: std::sync::Arc<NttPlan<2>> = session.ntt_multiword::<2>(128, n);
    let mut rng = rand::thread_rng();
    let data: Vec<_> = (0..n)
        .map(|_| params.ring.random_element(&mut rng))
        .collect();
    let butterflies = butterfly_count(n) as f64;
    let naive = best_run(iters, &data, |w| forward(&params, w)) * 1e9 / butterflies;
    let planned = best_run(iters, &data, |w| plan.forward(w)) * 1e9 / butterflies;
    (
        naive / planned,
        vec![
            NttBenchRow {
                path: "naive_u128",
                ns_per_butterfly: naive,
            },
            NttBenchRow {
                path: "planned_u128",
                ns_per_butterfly: planned,
            },
        ],
    )
}

/// Result of one interpreted-vs-compiled kernel batch measurement.
struct KernelBatchBench {
    name: String,
    interp_ns: f64,
    compiled_ns: f64,
    speedup: f64,
}

/// Benchmarks batch execution of a generated machine-level kernel: per-element
/// tree interpretation vs the compiled bytecode executor.
fn bench_kernel_batch(op: KernelOp, bits: u32, elements: usize, iters: u32) -> KernelBatchBench {
    let hl = builders::build(&KernelSpec::new(op, bits));
    let lowered = lower(&hl, &LoweringConfig::default());
    let kernel = &lowered.kernel;
    let compiled = CompiledKernel::compile(kernel).expect("lowered kernels compile");

    // Random inputs masked to each parameter's width; the two executors compute
    // the same function on any input, so correctness of the values is irrelevant
    // here (the cross-check tests cover it).
    let mut rng = rand::thread_rng();
    let widths: Vec<u32> = kernel.params.iter().map(|p| kernel.ty(*p).bits()).collect();
    let rows: Vec<u64> = (0..elements)
        .flat_map(|_| {
            widths
                .iter()
                .map(|&b| {
                    let v: u64 = rng.gen();
                    if b >= 64 {
                        v
                    } else {
                        v & ((1u64 << b) - 1)
                    }
                })
                .collect::<Vec<u64>>()
        })
        .collect();
    let p = widths.len();

    let interpreted = best_run(iters, &(), |_| {
        for row in 0..elements {
            let run = interp::run(kernel, &rows[row * p..(row + 1) * p])
                .expect("interpreter accepts generated kernels");
            std::hint::black_box(&run.outputs);
        }
    }) * 1e9
        / elements as f64;
    let compiled_ns = best_run(iters, &(), |_| {
        let batch = compiled.run_batch(&rows).expect("compiled batch runs");
        std::hint::black_box(&batch.outputs);
    }) * 1e9
        / elements as f64;
    KernelBatchBench {
        name: kernel.name.clone(),
        interp_ns: interpreted,
        compiled_ns,
        speedup: interpreted / compiled_ns,
    }
}

/// Benchmarks RNS vector multiplication: the `BigUint`-backed `RnsContext` path
/// (per-element residue `Vec`s, `u128 %` reduction) vs the planned SoA engine
/// (`RnsPlan`/`RnsMatrix`, per-residue-row Barrett kernels on the launcher).
/// Returns `(path, ns_per_element)` rows plus the vec_mul speedup.
fn bench_rns_blas(
    session: &Session,
    bits: u32,
    elements: usize,
    iters: u32,
) -> (Vec<(String, f64)>, f64) {
    let ctx = RnsContext::with_capacity_bits(2 * bits + 8);
    let space = session.rns_with_capacity(2 * bits + 8);
    let plan = space.plan();
    let q = paper_modulus(bits);
    let mut rng = rand::thread_rng();
    let a: Vec<BigUint> = (0..elements)
        .map(|_| moma::bignum::random::random_below(&mut rng, &q))
        .collect();
    let b: Vec<BigUint> = (0..elements)
        .map(|_| moma::bignum::random::random_below(&mut rng, &q))
        .collect();
    let va = rns_vec::RnsVector::from_biguints(&ctx, &a);
    let vb = rns_vec::RnsVector::from_biguints(&ctx, &b);
    let ma = RnsMatrix::from_biguints(plan, &a);
    let mb = RnsMatrix::from_biguints(plan, &b);
    let per_elt = 1e9 / elements as f64;
    let ctx_mul = best_run(iters, &(), |_| {
        std::hint::black_box(rns_vec::vec_mul(&ctx, &va, &vb));
    }) * per_elt;
    let planned_mul = best_run(iters, &(), |_| {
        std::hint::black_box(plan.apply(BlasOp::VecMul, None, &ma, &mb, &BufferPool::new()));
    }) * per_elt;
    let ctx_add = best_run(iters, &(), |_| {
        std::hint::black_box(rns_vec::vec_add(&ctx, &va, &vb));
    }) * per_elt;
    let planned_add = best_run(iters, &(), |_| {
        std::hint::black_box(plan.apply(BlasOp::VecAdd, None, &ma, &mb, &BufferPool::new()));
    }) * per_elt;
    let rows = vec![
        (format!("rns_ctx_{}", BlasOp::VecMul.key()), ctx_mul),
        (format!("rns_planned_{}", BlasOp::VecMul.key()), planned_mul),
        (format!("rns_ctx_{}", BlasOp::VecAdd.key()), ctx_add),
        (format!("rns_planned_{}", BlasOp::VecAdd.key()), planned_add),
    ];
    (rows, ctx_mul / planned_mul)
}

/// Benchmarks the RNS operations FHE pipelines chain between element-wise
/// stages, all on the planned engine: fast base extension (the generated
/// all-rows kernel, once on a fresh pool per call and once on the warm session
/// pool) and approximate scaled rounding. Returns
/// `(path, ns_per_element, launches_per_op, allocations_per_op)` rows.
fn bench_rns_baseconv(
    session: &Session,
    bits: u32,
    elements: usize,
    iters: u32,
) -> Vec<(String, f64, usize, usize)> {
    let src = session.rns_with_capacity(2 * bits + 8);
    let dst = baseconv_target_space(session, src.plan().moduli_count(), 0xba5e_c0de);
    let bc = src.conversion_to(&dst);
    let kernel = CompiledKernel::compile(&bc.fused_kernel_ir())
        .expect("generated conversion kernel compiles");
    let rp = src.rescale_plan();
    let q = paper_modulus(bits);
    let mut rng = rand::thread_rng();
    let a: Vec<BigUint> = (0..elements)
        .map(|_| moma::bignum::random::random_below(&mut rng, &q))
        .collect();
    let ma = RnsMatrix::from_biguints(src.plan(), &a);
    let plan = src.plan();
    // Probe runs record launches and plane allocations per op; the second
    // warm-pool probe is the steady state (same arithmetic, zero heap planes).
    let convert_stats = plan.base_convert(&bc, &ma, &kernel, &BufferPool::new()).1;
    let rescale_stats = plan.scale_and_round(&rp, &ma, &BufferPool::new()).1;
    let pool = session.pool();
    let warm_convert = || {
        let (mut out, stats) = plan.base_convert(&bc, &ma, &kernel, pool);
        pool.recycle(std::hint::black_box(&mut out).take_storage());
        stats
    };
    warm_convert();
    let warm_stats = warm_convert();
    let per_elt = 1e9 / elements as f64;
    let convert = best_run(iters, &(), |_| {
        std::hint::black_box(plan.base_convert(&bc, &ma, &kernel, &BufferPool::new()));
    }) * per_elt;
    let warm = best_run(iters, &(), |_| {
        warm_convert();
    }) * per_elt;
    let rescale = best_run(iters, &(), |_| {
        std::hint::black_box(plan.scale_and_round(&rp, &ma, &BufferPool::new()));
    }) * per_elt;
    [
        ("rns_base_convert", convert, convert_stats),
        ("rns_base_convert_warm_pool", warm, warm_stats),
        ("rns_rescale", rescale, rescale_stats),
    ]
    .map(|(path, ns, stats)| (path.to_string(), ns, stats.launches, stats.allocs))
    .to_vec()
}

/// Benchmarks the folded rescale-and-extend sweep over the session-cached
/// plan, returning ns per element.
fn bench_rescale_extend(session: &Session, bits: u32, elements: usize, iters: u32) -> f64 {
    let src = session.rns_with_capacity(2 * bits + 8);
    let dst = baseconv_target_space(session, src.plan().moduli_count() - 1, 0xf00d_cafe);
    let p = src.rescale_extend_to(&dst);
    let q = paper_modulus(bits);
    let mut rng = rand::thread_rng();
    let a: Vec<BigUint> = (0..elements)
        .map(|_| moma::bignum::random::random_below(&mut rng, &q))
        .collect();
    let ma = RnsMatrix::from_biguints(src.plan(), &a);
    best_run(iters, &(), |_| {
        std::hint::black_box(src.plan().rescale_then_extend(&p, &ma, &BufferPool::new()));
    }) * 1e9
        / elements as f64
}

/// Result of the fused-vs-unfused `mul→axpy` chain measurement.
struct MulChainBench {
    fused_ns: f64,
    unfused_ns: f64,
    speedup: f64,
    fused_launches: usize,
    unfused_launches: usize,
    /// Plane allocations of the session-level (pooled) chain on a warm pool.
    session_allocs: usize,
}

/// Benchmarks the generated all-rows `s·(a∘b) + z` chain kernel (one launch,
/// intermediates in registers) against the unfused sequence composed here from
/// two `apply` calls (two launches, one full intermediate matrix).
fn bench_fused_mul_chain(
    session: &Session,
    bits: u32,
    elements: usize,
    iters: u32,
) -> MulChainBench {
    let src = session.rns_with_capacity(2 * bits + 8);
    let plan = src.plan();
    let q = paper_modulus(bits);
    let mut rng = rand::thread_rng();
    let sample = |rng: &mut rand::rngs::ThreadRng| -> Vec<BigUint> {
        (0..elements)
            .map(|_| moma::bignum::random::random_below(rng, &q))
            .collect()
    };
    let a = sample(&mut rng);
    let b = sample(&mut rng);
    let z = sample(&mut rng);
    let s = moma::bignum::random::random_below(&mut rng, &q);
    let ma = RnsMatrix::from_biguints(plan, &a);
    let mb = RnsMatrix::from_biguints(plan, &b);
    let mz = RnsMatrix::from_biguints(plan, &z);
    let sres = plan.to_residues(&s);
    let kernel = CompiledKernel::compile(&plan.mul_axpy_kernel_ir())
        .expect("generated chain kernel compiles");
    let fused = || plan.mul_axpy(&ma, &mb, &sres, &mz, &kernel, &BufferPool::new());
    let unfused = || {
        let (prod, mut stats) = plan.apply(BlasOp::VecMul, None, &ma, &mb, &BufferPool::new());
        let (out, round) = plan.apply(BlasOp::Axpy, Some(&sres), &prod, &mz, &BufferPool::new());
        stats.accumulate(round);
        (out, stats)
    };
    let fused_launches = fused().1.launches;
    let unfused_launches = unfused().1.launches;
    let per_elt = 1e9 / elements as f64;
    let fused_ns = best_run(iters, &(), |_| {
        std::hint::black_box(fused());
    }) * per_elt;
    let unfused_ns = best_run(iters, &(), |_| {
        std::hint::black_box(unfused());
    }) * per_elt;
    // The session-level probe: the first call warms the session pool, the
    // second measures the steady state — every plane reused, zero heap
    // allocations.
    let va = src.encode(&a);
    let vb = src.encode(&b);
    let vz = src.encode(&z);
    va.mul_axpy(&vb, &s, &vz);
    let session_allocs = va.mul_axpy_with_stats(&vb, &s, &vz).1.allocs;
    MulChainBench {
        fused_ns,
        unfused_ns,
        speedup: unfused_ns / fused_ns,
        fused_launches,
        unfused_launches,
        session_allocs,
    }
}

/// Benchmarks the 64-bit planned NTT executed inline vs stage-by-stage on the
/// virtual-GPU launcher (one thread per butterfly, a launch barrier per stage;
/// a one-row [`moma::NttSpace::forward_batch`], so the working plane rides the
/// session pool). Returns `(inline_ns_per_butterfly, launcher_ns_per_butterfly)`.
fn bench_ntt_launcher(session: &Session, n: usize, iters: u32) -> (f64, f64) {
    let space = session.ntt_default(n);
    let mut rng = rand::thread_rng();
    let data: Vec<u64> = (0..n).map(|_| rng.gen::<u64>() % space.modulus()).collect();
    let butterflies = butterfly_count(n) as f64;
    let inline = best_run(iters, &data, |w| space.forward(w)) * 1e9 / butterflies;
    let launched = best_run(iters, &data, |w| {
        space.forward_batch(w);
    }) * 1e9
        / butterflies;
    (inline, launched)
}

/// Result of the batched-vs-single launcher NTT measurement: the ROADMAP
/// "batched transforms" item. The launch counts are the point: batching keeps
/// the per-stage launch count at `log2 n + 1` however many transforms ride
/// along, where one-by-one execution pays that per transform.
struct BatchedNttBench {
    batched_ns_per_butterfly: f64,
    single_ns_per_butterfly: f64,
    batched_launches: usize,
    single_launches: usize,
}

/// Benchmarks `batch` transforms of size `n` run through one stage-batched
/// launch sequence ([`moma::NttSpace::forward_batch`], grid = batch × n/2 per
/// stage) vs the same transforms launched one by one (a one-row
/// `forward_batch` each).
fn bench_ntt_batched(session: &Session, n: usize, batch: usize, iters: u32) -> BatchedNttBench {
    let space = session.ntt_default(n);
    let mut rng = rand::thread_rng();
    let data: Vec<u64> = (0..batch * n)
        .map(|_| rng.gen::<u64>() % space.modulus())
        .collect();
    let butterflies = (batch as u64 * butterfly_count(n)) as f64;
    let batched = best_run(iters, &data, |w| {
        space.forward_batch(w);
    }) * 1e9
        / butterflies;
    let single = best_run(iters, &data, |w| {
        for transform in w.chunks_exact_mut(n) {
            space.forward_batch(transform);
        }
    }) * 1e9
        / butterflies;
    // Launch counts are deterministic; read them off one run of each shape.
    let mut probe = data.clone();
    let batched_launches = space.forward_batch(&mut probe).launches;
    let mut single_launches = 0;
    for transform in probe.chunks_exact_mut(n) {
        single_launches += space.forward_batch(transform).launches;
    }
    BatchedNttBench {
        batched_ns_per_butterfly: batched,
        single_ns_per_butterfly: single,
        batched_launches,
        single_launches,
    }
}

/// Benchmarks the BLAS batch path: sequential loop vs scoped-thread parallel launch.
fn bench_blas_batch(batch_size: usize, vector_len: usize, iters: u32) -> (f64, f64, f64) {
    let q = MpUint::<4>::from_limbs_le(&paper_modulus(256).to_limbs_le(4));
    let ring = ModRing::new(q);
    let mut rng = rand::thread_rng();
    let x = Batch::<4>::random(&ring, &mut rng, batch_size, vector_len);
    let y = Batch::<4>::random(&ring, &mut rng, batch_size, vector_len);
    let a = ring.random_element(&mut rng);
    let elements = (batch_size * vector_len) as f64;
    let sequential = best_run(iters, &(), |_| {
        std::hint::black_box(run_batch(&ring, BlasOp::VecMul, a, &x, &y));
    }) * 1e9
        / elements;
    let parallel = best_run(iters, &(), |_| {
        let (out, _) = run_batch_parallel(&ring, BlasOp::VecMul, a, &x, &y);
        std::hint::black_box(out);
    }) * 1e9
        / elements;
    (sequential, parallel, sequential / parallel)
}

/// Aggregates of one closed-loop serve run plus its baseline comparison.
struct ServeBench {
    clients: usize,
    requests: usize,
    n: usize,
    throughput_ops_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
    launches_per_op: f64,
    baseline_launches_per_op: f64,
    avg_batch: f64,
    ntt_cache_hit_rate: f64,
    allocations_per_op: f64,
    baseline_allocations_per_op: f64,
    /// Allocations per op of the deterministic steady-state run: one client,
    /// one worker, no coalescing — after warm-up every plane comes from the
    /// pool, so this is exactly zero on a correct build.
    steady_state_allocations_per_op: f64,
}

/// One closed-loop run: `clients` threads each keep exactly one request in
/// flight against a fresh server/session pair; per-request latency and the
/// fair launch share (`batch_launches / batch_size`) are recorded at the
/// client.
struct ServeRun {
    elapsed_s: f64,
    latencies_us: Vec<f64>,
    launch_share_sum: f64,
    batch_sum: u64,
    ops: usize,
    ntt_cache_hit_rate: f64,
    /// Plane-sized heap allocations per measured request, after a per-shape
    /// warm-up stocked the plan caches and the buffer pool.
    allocations_per_op: f64,
}

fn serve_closed_loop_run(
    config: ServeConfig,
    clients: usize,
    per_client: usize,
    n: usize,
) -> ServeRun {
    // A fresh session per run keeps the cache-hit-rate measurement honest: the
    // first request of each kind builds, everything after must hit.
    let session = Session::default();
    let server = Server::new(session.clone(), config);
    let src_moduli = session.rns_with_capacity(128).moduli();
    let tenant = server.register_tenant(&src_moduli, &src_moduli[..4]);
    let product = session.rns(&src_moduli).product().clone();
    let q = session.ntt_default(n).modulus();

    // Warm-up, outside the measurement: one request of each shape builds the
    // plans and stocks the buffer pool, so `allocations_per_op` measures the
    // steady state (residual misses under concurrency, not cold start).
    {
        let client = server.client();
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x3a3a);
        let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
        client
            .call(WorkItem::NttForward { q, n, data })
            .expect("serve bench warm-up");
        let operand: Vec<BigUint> = (0..4)
            .map(|_| moma::bignum::random::random_below(&mut rng, &product))
            .collect();
        client
            .call(WorkItem::RnsMulRescaleExtend {
                tenant,
                a: operand.clone(),
                b: operand,
            })
            .expect("serve bench warm-up");
    }
    let warm_allocs = server.stats().plane_allocs;

    let start = Instant::now();
    let per_thread: Vec<(Vec<f64>, f64, u64)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let client = server.client();
                let product = &product;
                s.spawn(move || {
                    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0FFEE + c as u64);
                    let mut latencies = Vec::with_capacity(per_client);
                    let mut share = 0.0f64;
                    let mut batch_sum = 0u64;
                    for i in 0..per_client {
                        // Mixed workload: mostly NTT transforms, every eighth
                        // request the tenant's fused RNS chain.
                        let item = if i % 8 == 7 {
                            let mut operand = |seed_len: usize| -> Vec<BigUint> {
                                (0..seed_len)
                                    .map(|_| moma::bignum::random::random_below(&mut rng, product))
                                    .collect()
                            };
                            WorkItem::RnsMulRescaleExtend {
                                tenant,
                                a: operand(4),
                                b: operand(4),
                            }
                        } else {
                            WorkItem::NttForward {
                                q,
                                n,
                                data: (0..n).map(|_| rng.gen_range(0..q)).collect(),
                            }
                        };
                        let t0 = Instant::now();
                        let done = client.call(item).expect("serve bench request");
                        latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                        share += done.batch_launches as f64 / done.batch_size as f64;
                        batch_sum += done.batch_size as u64;
                    }
                    (latencies, share, batch_sum)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serve bench client"))
            .collect()
    });
    let elapsed_s = start.elapsed().as_secs_f64();

    let ntt = session.stats().ntt;
    let mut run = ServeRun {
        elapsed_s,
        latencies_us: Vec::new(),
        launch_share_sum: 0.0,
        batch_sum: 0,
        ops: clients * per_client,
        ntt_cache_hit_rate: ntt.hits as f64 / (ntt.hits + ntt.misses).max(1) as f64,
        allocations_per_op: (server.stats().plane_allocs - warm_allocs) as f64
            / (clients * per_client) as f64,
    };
    for (latencies, share, batch_sum) in per_thread {
        run.latencies_us.extend(latencies);
        run.launch_share_sum += share;
        run.batch_sum += batch_sum;
    }
    run.latencies_us
        .sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    run
}

fn percentile(sorted_us: &[f64], p: f64) -> f64 {
    let idx = ((sorted_us.len() as f64 - 1.0) * p).round() as usize;
    sorted_us[idx]
}

/// The closed-loop batching-service bench: 8 simulated clients over one shared
/// session, coalescing batcher vs the one-request-at-a-time baseline.
fn bench_serve(quick: bool) -> ServeBench {
    heading("Closed-loop serve bench (moma-serve batching front-end)");
    let clients = 8;
    let per_client = if quick { 24 } else { 96 };
    let n = 1024;
    let batched = serve_closed_loop_run(
        ServeConfig {
            workers: 2,
            max_batch: 64,
            min_batch: 4,
            batch_window: Duration::from_millis(5),
            ..ServeConfig::default()
        },
        clients,
        per_client,
        n,
    );
    // max_batch = 1 disables coalescing: every request is its own batch and
    // pays the full per-op launch count.
    let baseline = serve_closed_loop_run(
        ServeConfig {
            workers: 2,
            max_batch: 1,
            min_batch: 1,
            batch_window: Duration::ZERO,
            ..ServeConfig::default()
        },
        clients,
        per_client,
        n,
    );
    // The steady-state probe: serial traffic into a single worker with
    // coalescing off. After the per-shape warm-up nothing in the request path
    // allocates — this run's allocations_per_op must be exactly zero.
    let steady = serve_closed_loop_run(
        ServeConfig {
            workers: 1,
            max_batch: 1,
            min_batch: 1,
            batch_window: Duration::ZERO,
            ..ServeConfig::default()
        },
        1,
        if quick { 32 } else { 128 },
        n,
    );

    let result = ServeBench {
        clients,
        requests: batched.ops,
        n,
        throughput_ops_per_sec: batched.ops as f64 / batched.elapsed_s,
        p50_us: percentile(&batched.latencies_us, 0.50),
        p99_us: percentile(&batched.latencies_us, 0.99),
        launches_per_op: batched.launch_share_sum / batched.ops as f64,
        baseline_launches_per_op: baseline.launch_share_sum / baseline.ops as f64,
        avg_batch: batched.batch_sum as f64 / batched.ops as f64,
        ntt_cache_hit_rate: batched.ntt_cache_hit_rate,
        allocations_per_op: batched.allocations_per_op,
        baseline_allocations_per_op: baseline.allocations_per_op,
        steady_state_allocations_per_op: steady.allocations_per_op,
    };
    println!(
        "{clients} closed-loop clients x {per_client} requests (n = {n} NTT + fused RNS chains):"
    );
    println!(
        "  batched    {:>10.0} ops/s   p50 {:>8.1} us   p99 {:>8.1} us   {:.2} launches/op   avg batch {:.2}",
        result.throughput_ops_per_sec,
        result.p50_us,
        result.p99_us,
        result.launches_per_op,
        result.avg_batch
    );
    println!(
        "  baseline   {:>10.0} ops/s   p50 {:>8.1} us   p99 {:>8.1} us   {:.2} launches/op   (max_batch = 1)",
        baseline.ops as f64 / baseline.elapsed_s,
        percentile(&baseline.latencies_us, 0.50),
        percentile(&baseline.latencies_us, 0.99),
        result.baseline_launches_per_op
    );
    println!(
        "  coalescing cuts launches/op by {:.2}x; NTT plan cache hit rate {:.4}",
        result.baseline_launches_per_op / result.launches_per_op,
        result.ntt_cache_hit_rate
    );
    println!(
        "  heap plane allocations/op: batched {:.4}, baseline {:.4}, steady state {:.4}",
        result.allocations_per_op,
        result.baseline_allocations_per_op,
        result.steady_state_allocations_per_op
    );
    result
}

/// Result of the warm-start measurement: building a session's plan caches
/// from scratch vs restoring them from a snapshot.
struct WarmStartBench {
    cold_build_ms: f64,
    restore_ms: f64,
    speedup: f64,
    snapshot_bytes: usize,
    plans_restored: usize,
}

/// Populates every plan family the warm-start bench measures: a 64-bit NTT
/// plan and an RNS basis with its conversion, rescale, and fused-chain plans.
fn warm_start_workload(session: &Session) {
    let _ = session.ntt_default(1024);
    let src = session.rns_with_capacity(256);
    let src_moduli = src.moduli();
    let dst = session.rns(&src_moduli[..4]);
    let _ = src.conversion_to(&dst);
    let _ = src.rescale_plan();
    let _ = src.rescale_extend_to(&dst);
}

/// Measures precompute-once warm start: the time to build the plan caches
/// cold vs the time to [`Session::restore`] them from a snapshot. Restore
/// validates every table arithmetically but skips the expensive builds
/// (prime search, twiddle generation, CRT inverses), so it must win.
fn bench_session_warm_start(iters: u32) -> WarmStartBench {
    heading("Session warm start (snapshot/restore vs cold plan build)");
    let warm = Session::default();
    warm_start_workload(&warm);
    let bytes = warm.snapshot();
    let report = Session::default()
        .restore(&bytes)
        .expect("bench snapshot restores");
    let plans_restored = report.ntt_plans
        + report.multiword_plans
        + report.rns_plans
        + report.baseconv_plans
        + report.rescale_plans
        + report.rescale_extend_plans;

    let cold_build_ms = best_run(iters, &(), |_| {
        let session = Session::default();
        warm_start_workload(&session);
        std::hint::black_box(session);
    }) * 1e3;
    let restore_ms = best_run(iters, &(), |_| {
        let session = Session::default();
        session.restore(&bytes).expect("bench snapshot restores");
        std::hint::black_box(session);
    }) * 1e3;

    let result = WarmStartBench {
        cold_build_ms,
        restore_ms,
        speedup: cold_build_ms / restore_ms,
        snapshot_bytes: bytes.len(),
        plans_restored,
    };
    println!(
        "  cold build   {:>10.3} ms   ({} plans)",
        result.cold_build_ms, plans_restored
    );
    println!(
        "  restore      {:>10.3} ms   ({} snapshot bytes)",
        result.restore_ms, result.snapshot_bytes
    );
    println!("  warm-start speedup: {:.2}x", result.speedup);
    result
}

/// One point of the open-loop overload sweep: a fixed arrival schedule at
/// `load_factor` times the measured closed-loop capacity against a
/// bounded-queue server.
struct OverloadPoint {
    load_factor: f64,
    offered_qps: f64,
    attempts: u64,
    accepted: u64,
    shed: u64,
    expired: u64,
    shed_rate: f64,
    goodput_ops_per_sec: f64,
    p50_accepted_us: f64,
    p99_accepted_us: f64,
}

/// The open-loop overload sweep: the same server configuration driven at
/// ≈0.5x / 1x / 2x of measured capacity. Under capacity nothing should shed;
/// past capacity the bounded queue sheds the excess at admission and the
/// accepted-request latency stays bounded.
struct OverloadBench {
    n: usize,
    capacity_ops_per_sec: f64,
    sweep: Vec<OverloadPoint>,
}

impl OverloadBench {
    /// The saturated (2x) point — the headline row the CI invariants assert
    /// on, kept as the flat `serve_overload` fields in the JSON.
    fn headline(&self) -> &OverloadPoint {
        self.sweep
            .last()
            .expect("the sweep measured at least one rate")
    }
}

/// The overload server: deliberately capacity-capped (one worker, modest
/// batching) with a shallow bounded queue, so saturation — and the shedding
/// that keeps accepted-request latency flat — is reachable quickly.
fn overload_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        max_batch: 8,
        min_batch: 1,
        batch_window: Duration::from_millis(1),
        queue_depth: 64,
        ..ServeConfig::default()
    }
}

/// Saturating closed loop (pure NTT): enough clients to keep the worker busy;
/// their combined throughput is the capacity the open loop doubles.
fn overload_capacity_probe(clients: usize, per_client: usize, n: usize) -> f64 {
    let session = Session::default();
    let server = Server::new(session.clone(), overload_config());
    let q = session.ntt_default(n).modulus();
    let start = Instant::now();
    std::thread::scope(|s| {
        for c in 0..clients {
            let client = server.client();
            s.spawn(move || {
                let mut rng = rand::rngs::StdRng::seed_from_u64(0xFEED + c as u64);
                for _ in 0..per_client {
                    let data: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
                    client
                        .call(WorkItem::NttForward { q, n, data })
                        .expect("capacity probe request");
                }
            });
        }
    });
    (clients * per_client) as f64 / start.elapsed().as_secs_f64()
}

/// The open-loop overload bench: requests arrive on a fixed schedule at a
/// sweep of rates around the measured capacity (≈0.5x, 1x, 2x), regardless of
/// completions. Past capacity, the bounded submission queue sheds the excess
/// at admission ([`ServeError::Overloaded`]), so the latency of *accepted*
/// requests stays bounded instead of collapsing into an ever-growing queue.
fn bench_serve_overload(quick: bool) -> OverloadBench {
    heading("Open-loop overload sweep (admission control + load shedding)");
    let n = 1024;
    let capacity = overload_capacity_probe(16, if quick { 16 } else { 48 }, n);
    let duration_s = if quick { 0.6 } else { 1.25 };
    let sweep = [0.5, 1.0, 2.0]
        .into_iter()
        .map(|factor| overload_point(n, capacity, factor, duration_s))
        .collect();
    OverloadBench {
        n,
        capacity_ops_per_sec: capacity,
        sweep,
    }
}

/// Runs one fixed-rate open-loop point of the overload sweep against a fresh
/// capacity-capped server.
fn overload_point(n: usize, capacity: f64, load_factor: f64, duration_s: f64) -> OverloadPoint {
    let offered = load_factor * capacity;
    let total = (offered * duration_s).max(32.0) as u64;

    let session = Session::default();
    let server = Server::new(session.clone(), overload_config());
    let client = server.client();
    let q = session.ntt_default(n).modulus();
    // Warm the plan caches so the measured run starts from service steady
    // state, and pre-generate payloads so the generator thread stays cheap.
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x10AD);
    let warm: Vec<u64> = (0..n).map(|_| rng.gen_range(0..q)).collect();
    client
        .call(WorkItem::NttForward { q, n, data: warm })
        .expect("warmup request");
    let pool: Vec<Vec<u64>> = (0..32)
        .map(|_| (0..n).map(|_| rng.gen_range(0..q)).collect())
        .collect();

    let (done_tx, done_rx) = mpsc::channel::<(Ticket, Instant)>();
    let done_rx = Arc::new(Mutex::new(done_rx));
    let start = Instant::now();
    let (attempts, accepted, mut latencies_us) = std::thread::scope(|s| {
        // Waiter pool: resolves accepted tickets as they complete so the
        // generator never blocks on results (open loop, not closed loop).
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let done_rx = Arc::clone(&done_rx);
                s.spawn(move || {
                    let mut latencies = Vec::new();
                    loop {
                        let next = {
                            let rx = done_rx.lock().expect("waiter queue lock");
                            rx.recv()
                        };
                        let Ok((ticket, t0)) = next else { break };
                        if ticket.wait().is_ok() {
                            latencies.push(t0.elapsed().as_secs_f64() * 1e6);
                        }
                    }
                    latencies
                })
            })
            .collect();
        // Generator: fixed arrival schedule at the offered rate. A full queue
        // sheds instantly, which is exactly the behavior under test.
        let interval = Duration::from_secs_f64(1.0 / offered);
        let mut attempts = 0u64;
        let mut accepted = 0u64;
        for i in 0..total {
            let target = start + interval.mul_f64(i as f64);
            let now = Instant::now();
            if target > now {
                std::thread::sleep(target - now);
            }
            attempts += 1;
            let item = WorkItem::NttForward {
                q,
                n,
                data: pool[i as usize % pool.len()].clone(),
            };
            let t0 = Instant::now();
            match client.submit(item) {
                Ok(ticket) => {
                    accepted += 1;
                    done_tx.send((ticket, t0)).expect("waiter pool alive");
                }
                Err(ServeError::Overloaded) => {}
                Err(other) => panic!("unexpected submit error: {other}"),
            }
        }
        drop(done_tx);
        let latencies: Vec<f64> = waiters
            .into_iter()
            .flat_map(|h| h.join().expect("overload waiter"))
            .collect();
        (attempts, accepted, latencies)
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    latencies_us.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));

    let stats = server.stats();
    let result = OverloadPoint {
        load_factor,
        offered_qps: offered,
        attempts,
        accepted,
        shed: stats.shed,
        expired: stats.expired,
        shed_rate: stats.shed as f64 / attempts.max(1) as f64,
        goodput_ops_per_sec: latencies_us.len() as f64 / elapsed_s,
        p50_accepted_us: if latencies_us.is_empty() {
            0.0
        } else {
            percentile(&latencies_us, 0.50)
        },
        p99_accepted_us: if latencies_us.is_empty() {
            0.0
        } else {
            percentile(&latencies_us, 0.99)
        },
    };
    println!(
        "offered {:.0} req/s ({load_factor}x measured capacity {capacity:.0} ops/s) \
         for {duration_s:.2} s, n = {n}:",
        result.offered_qps
    );
    println!(
        "  attempted {} -> accepted {} / shed {} ({:.1}% shed rate), expired {}",
        result.attempts,
        result.accepted,
        result.shed,
        100.0 * result.shed_rate,
        result.expired,
    );
    println!(
        "  goodput {:>8.0} ops/s   accepted p50 {:>8.1} us   p99 {:>8.1} us \
         (bounded: excess load is shed at admission, not queued)",
        result.goodput_ops_per_sec, result.p50_accepted_us, result.p99_accepted_us
    );
    result
}

/// One measured FHE-style level ladder over the negacyclic ring layer:
/// ns/level, launches/level, warm allocations/level (must be zero), and a
/// bit-for-bit crosscheck against the `BigUint` schoolbook oracle.
struct LadderBench {
    n: usize,
    levels: usize,
    ns_per_level: f64,
    launches_per_level: f64,
    allocations_per_level: f64,
    crosscheck_n: usize,
    crosscheck_levels: usize,
    crosscheck_ok: bool,
}

/// Runs the full ladder — first step `a · b`, every later step squares the
/// running value (the shape [`moma::ring::oracle::ladder_replay`] mirrors) —
/// returning the floor-level result plus total launches and pool misses.
fn run_ladder(
    space: &moma::RingSpace,
    a: &moma::RingVec,
    b: &moma::RingVec,
) -> (moma::RingVec, u64, u64) {
    let (mut cur, first) = space.ladder_step(a, b);
    let mut launches = first.launches as u64;
    let mut allocs = first.allocs as u64;
    for _ in 1..space.steps() {
        let (next, stats) = space.ladder_step(&cur, &cur);
        launches += stats.launches as u64;
        allocs += stats.allocs as u64;
        cur = next;
    }
    (cur, launches, allocs)
}

fn ladder_operands(
    rng: &mut rand::rngs::StdRng,
    space: &moma::RingSpace,
) -> (Vec<BigUint>, Vec<BigUint>) {
    let coeffs = |rng: &mut rand::rngs::StdRng| -> Vec<BigUint> {
        (0..space.n())
            .map(|_| moma::bignum::random::random_below(rng, space.product(0)))
            .collect()
    };
    (coeffs(rng), coeffs(rng))
}

fn bench_fhe_ladder(session: &Session, quick: bool) -> LadderBench {
    heading("FHE level ladder (negacyclic ring over an RNS ladder)");
    let n = 4096;
    let levels = 8;
    let moduli = moma::ring::default_ladder(n, levels);
    let space = session.ring(n, &moduli);
    let mut rng = rand::rngs::StdRng::seed_from_u64(0x1adde7);
    let (a_coeffs, b_coeffs) = ladder_operands(&mut rng, &space);
    let a = space.encode(0, &a_coeffs);
    let b = space.encode(0, &b_coeffs);

    // Warm-up: one full ladder builds every negacyclic plan, level basis, and
    // rescale step, and stocks the pool with every plane the steady
    // state cycles through.
    let _ = run_ladder(&space, &a, &b);
    // Warm counters: launches are deterministic; allocations must be zero —
    // the whole ladder runs out of the session pool.
    let (_, launches, allocs) = run_ladder(&space, &a, &b);
    let iters = if quick { 2 } else { 5 };
    let mut best_ns = f64::INFINITY;
    for _ in 0..iters {
        let t0 = Instant::now();
        let (out, _, _) = run_ladder(&space, &a, &b);
        best_ns = best_ns.min(t0.elapsed().as_secs_f64() * 1e9);
        drop(out);
    }

    // Crosscheck against the schoolbook `X^n + 1` oracle. The full bench
    // replays the ladder at the bench size (slow but run once per emission);
    // quick mode crosschecks a small ladder so CI smoke stays fast.
    let crosscheck_n = if quick { 256 } else { n };
    let crosscheck_ok = if crosscheck_n == n {
        let (out, _, _) = run_ladder(&space, &a, &b);
        let expect = moma::ring::oracle::ladder_replay(&moduli, &a_coeffs, &b_coeffs, levels);
        space.decode(&out) == expect
    } else {
        let small_moduli = moma::ring::default_ladder(crosscheck_n, levels);
        let small = session.ring(crosscheck_n, &small_moduli);
        let (sa, sb) = ladder_operands(&mut rng, &small);
        let (out, _, _) = run_ladder(&small, &small.encode(0, &sa), &small.encode(0, &sb));
        let expect = moma::ring::oracle::ladder_replay(&small_moduli, &sa, &sb, levels);
        small.decode(&out) == expect
    };
    assert!(
        crosscheck_ok,
        "ladder result diverged from the BigUint oracle"
    );

    let result = LadderBench {
        n,
        levels,
        ns_per_level: best_ns / levels as f64,
        launches_per_level: launches as f64 / levels as f64,
        allocations_per_level: allocs as f64 / levels as f64,
        crosscheck_n,
        crosscheck_levels: levels,
        crosscheck_ok,
    };
    println!(
        "n = {n}, L = {levels} ({} moduli, {}..{} bits):",
        moduli.len(),
        64 - moduli.iter().map(|m| m.leading_zeros()).max().unwrap_or(0),
        64 - moduli.iter().map(|m| m.leading_zeros()).min().unwrap_or(0)
    );
    println!("  ns/level           {:>12.1}", result.ns_per_level);
    println!("  launches/level     {:>12.2}", result.launches_per_level);
    println!(
        "  allocations/level  {:>12.2}   (warm pool: every plane recycled)",
        result.allocations_per_level
    );
    println!(
        "  oracle crosscheck  bit-for-bit at n = {crosscheck_n}, L = {levels}: {}",
        if result.crosscheck_ok { "ok" } else { "FAILED" }
    );
    result
}

fn bench(session: &Session, quick: bool, serve: &ServeBench, overload: &OverloadBench) {
    heading(if quick {
        "Hot-path bench (quick mode) -> BENCH_ntt_blas.json"
    } else {
        "Hot-path bench -> BENCH_ntt_blas.json"
    });
    let iters = if quick { 3 } else { 10 };
    let n = 1024;
    let batch_size = 64;

    let (speedup_u64, rows_u64) = bench_ntt_u64(session, n, iters);
    let (speedup_u128, rows_u128) = bench_ntt_u128(session, n, iters);
    println!("NTT, n = {n} (ns per butterfly):");
    for r in rows_u64.iter().chain(&rows_u128) {
        println!("  {:<14} {:>10.2}", r.path, r.ns_per_butterfly);
    }
    println!("  planned-vs-naive speedup: u64 {speedup_u64:.2}x, u128 {speedup_u128:.2}x");

    let (ntt_inline, ntt_launched) = bench_ntt_launcher(session, n, iters);
    println!("\nLauncher-routed u64 NTT, n = {n} (ns per butterfly):");
    println!("  inline plan    {ntt_inline:>10.2}");
    println!("  launcher       {ntt_launched:>10.2}");
    println!(
        "  launcher-vs-inline ratio: {:.2}x (stage launches pay a barrier per stage; \
         > 1 means overhead on this host)",
        ntt_launched / ntt_inline
    );

    let ntt_batch = if quick { 8 } else { 16 };
    let batched = bench_ntt_batched(session, n, ntt_batch, iters);
    println!(
        "\nStage-batched u64 NTT on the launcher, batch {ntt_batch} x {n} (ns per butterfly):"
    );
    println!(
        "  one-by-one     {:>10.2}   ({} launches)",
        batched.single_ns_per_butterfly, batched.single_launches
    );
    println!(
        "  batched        {:>10.2}   ({} launches, independent of batch size)",
        batched.batched_ns_per_butterfly, batched.batched_launches
    );

    // The RNS sections keep the full element count even in quick mode: at
    // 2^10 elements the unfused chain's extra launch and the fused kernel's
    // VM dispatch cost land within noise of each other, which would make the
    // quick-mode rows too unstable for the CI ordering assertion. These
    // sections cost microseconds per run, so the larger count is free.
    let rns_elements = 1 << 12;
    let (rns_rows, rns_speedup) = bench_rns_blas(session, 256, rns_elements, iters);
    println!("\n256-bit RNS vector ops over {rns_elements} elements (ns per element):");
    for (path, ns) in &rns_rows {
        println!("  {path:<22} {ns:>10.2}");
    }
    println!("  planned-vs-context speedup on vec_mul: {rns_speedup:.2}x");

    let baseconv_rows = bench_rns_baseconv(session, 256, rns_elements, iters);
    println!(
        "\n256-bit RNS base extension / rescale over {rns_elements} elements (ns per element):"
    );
    for (path, ns, launches, allocs) in &baseconv_rows {
        println!("  {path:<26} {ns:>10.2}   ({launches} launches/op, {allocs} allocs/op)");
    }

    let chain = bench_fused_mul_chain(session, 256, rns_elements, iters);
    println!("\n256-bit fused mul->axpy chain over {rns_elements} elements (ns per element):");
    println!(
        "  unfused        {:>10.2}   ({} launches/op)",
        chain.unfused_ns, chain.unfused_launches
    );
    println!(
        "  fused          {:>10.2}   ({} launches/op)",
        chain.fused_ns, chain.fused_launches
    );
    println!(
        "  fused-vs-unfused speedup: {:.2}x; session path {} allocs/op on a warm pool",
        chain.speedup, chain.session_allocs
    );

    let warm_start = bench_session_warm_start(iters);

    let rescale_extend_ns = bench_rescale_extend(session, 256, rns_elements, iters);
    println!(
        "\n256-bit fused rescale-and-extend over {rns_elements} elements: \
         {rescale_extend_ns:.2} ns per element"
    );

    let kernel_elements = batch_size * n;
    let kernel_iters = if quick { 2 } else { 5 };
    let modmul = bench_kernel_batch(KernelOp::ModMul, 128, kernel_elements, kernel_iters);
    let butterfly = bench_kernel_batch(KernelOp::Butterfly, 128, kernel_elements, kernel_iters);
    for k in [&modmul, &butterfly] {
        println!(
            "\nGenerated kernel '{}' over {kernel_elements} elements (batch {batch_size} x {n}):",
            k.name
        );
        println!("  interpreted    {:>10.2} ns/element", k.interp_ns);
        println!("  compiled       {:>10.2} ns/element", k.compiled_ns);
        println!("  compiled-vs-interpreted speedup: {:.2}x", k.speedup);
    }

    let (blas_seq, blas_par, blas_speedup) = bench_blas_batch(batch_size, n, iters);
    println!("\n256-bit BLAS vector multiplication, batch {batch_size} x {n} (ns per element):");
    println!("  sequential     {blas_seq:>10.2}");
    println!("  parallel       {blas_par:>10.2}");
    println!("  parallel-vs-sequential speedup: {blas_speedup:.2}x");

    let ladder = bench_fhe_ladder(session, quick);

    let ov = overload.headline();
    let json = format!(
        "{{\n  \"generated_by\": \"reproduce bench\",\n  \"quick\": {quick},\n  \"ntt\": {{\n    \
         \"n\": {n},\n    \"rows\": [\n{ntt_rows}\n    ],\n    \
         \"planned_vs_naive_speedup_u64\": {speedup_u64:.3},\n    \
         \"planned_vs_naive_speedup_u128\": {speedup_u128:.3}\n  }},\n  \
         \"ntt_launcher\": {{\n    \"n\": {n},\n    \
         \"inline_ns_per_butterfly\": {ntt_inline:.2},\n    \
         \"launcher_ns_per_butterfly\": {ntt_launched:.2},\n    \
         \"launcher_vs_inline_ratio\": {launcher_ratio:.3}\n  }},\n  \
         \"ntt_launcher_batched\": {{\n    \"n\": {n},\n    \
         \"batch\": {ntt_batch},\n    \
         \"batched_ns_per_butterfly\": {batched_ns:.2},\n    \
         \"single_ns_per_butterfly\": {batched_single_ns:.2},\n    \
         \"batched_stage_launches\": {batched_launches},\n    \
         \"per_transform_stage_launches\": {single_launches}\n  }},\n  \
         \"rns_blas\": {{\n    \"bits\": 256,\n    \"elements\": {rns_elements},\n    \
         \"rows\": [\n{rns_rows_json}\n    ],\n    \
         \"planned_vs_ctx_speedup_{mul_key}\": {rns_speedup:.3}\n  }},\n  \
         \"rns_baseconv\": {{\n    \"bits\": 256,\n    \"elements\": {rns_elements},\n    \
         \"rows\": [\n{baseconv_rows_json}\n    ]\n  }},\n  \
         \"rns_fused_chain\": {{\n    \"bits\": 256,\n    \
         \"elements\": {rns_elements},\n    \"chain\": \"mul_axpy\",\n    \
         \"fused_ns_per_element\": {chain_fused_ns:.2},\n    \
         \"unfused_ns_per_element\": {chain_unfused_ns:.2},\n    \
         \"fused_vs_unfused_speedup\": {chain_speedup:.3},\n    \
         \"fused_launches_per_op\": {chain_fused_launches},\n    \
         \"unfused_launches_per_op\": {chain_unfused_launches},\n    \
         \"session_allocations_per_op\": {chain_session_allocs}\n  }},\n  \
         \"session_warm_start\": {{\n    \
         \"cold_build_ms\": {ws_cold:.3},\n    \
         \"restore_ms\": {ws_restore:.3},\n    \
         \"warm_start_speedup\": {ws_speedup:.3},\n    \
         \"snapshot_bytes\": {ws_bytes},\n    \
         \"plans_restored\": {ws_plans}\n  }},\n  \
         \"session_fused_rescale_extend\": {{\n    \"bits\": 256,\n    \
         \"elements\": {rns_elements},\n    \
         \"fused_ns_per_element\": {rescale_extend_ns:.2}\n  }},\n  \
         \"kernel_batch\": {{\n    \"kernel\": \"{kernel_name}\",\n    \
         \"elements\": {kernel_elements},\n    \
         \"interpreted_ns_per_element\": {interp_ns:.2},\n    \
         \"compiled_ns_per_element\": {compiled_ns:.2},\n    \
         \"compiled_vs_interpreted_speedup\": {kernel_speedup:.3}\n  }},\n  \
         \"blas_batch\": {{\n    \"bits\": 256,\n    \"op\": \"{mul_key}\",\n    \
         \"batch\": {batch_size},\n    \"vector_len\": {n},\n    \
         \"sequential_ns_per_element\": {blas_seq:.2},\n    \
         \"parallel_ns_per_element\": {blas_par:.2},\n    \
         \"parallel_vs_sequential_speedup\": {blas_speedup:.3}\n  }},\n  \
         \"serve_closed_loop\": {{\n    \"clients\": {serve_clients},\n    \
         \"requests\": {serve_requests},\n    \"n\": {serve_n},\n    \
         \"throughput_ops_per_sec\": {serve_throughput:.1},\n    \
         \"p50_us\": {serve_p50:.1},\n    \"p99_us\": {serve_p99:.1},\n    \
         \"launches_per_op\": {serve_lpo:.3},\n    \
         \"baseline_launches_per_op\": {serve_baseline_lpo:.3},\n    \
         \"avg_batch\": {serve_avg_batch:.3},\n    \
         \"ntt_cache_hit_rate\": {serve_hit_rate:.4},\n    \
         \"allocations_per_op\": {serve_apo:.4},\n    \
         \"baseline_allocations_per_op\": {serve_baseline_apo:.4},\n    \
         \"steady_state_allocations_per_op\": {serve_steady_apo:.4}\n  }},\n  \
         \"serve_overload\": {{\n    \"n\": {ov_n},\n    \
         \"capacity_ops_per_sec\": {ov_capacity:.1},\n    \
         \"offered_qps\": {ov_offered:.1},\n    \
         \"attempts\": {ov_attempts},\n    \"accepted\": {ov_accepted},\n    \
         \"shed\": {ov_shed},\n    \"expired\": {ov_expired},\n    \
         \"shed_rate\": {ov_shed_rate:.4},\n    \
         \"goodput_ops_per_sec\": {ov_goodput:.1},\n    \
         \"p50_accepted_us\": {ov_p50:.1},\n    \
         \"p99_accepted_us\": {ov_p99:.1},\n    \
         \"sweep\": [\n{ov_sweep}\n    ]\n  }},\n  \
         \"fhe_ladder\": {{\n    \"n\": {fl_n},\n    \"levels\": {fl_levels},\n    \
         \"ns_per_level\": {fl_ns:.1},\n    \
         \"launches_per_level\": {fl_launches:.2},\n    \
         \"allocations_per_level\": {fl_allocs:.2},\n    \
         \"crosscheck_n\": {fl_cn},\n    \
         \"crosscheck_levels\": {fl_clevels},\n    \
         \"crosscheck_ok\": {fl_ok}\n  }}\n}}\n",
        ntt_rows = rows_u64
            .iter()
            .chain(&rows_u128)
            .map(|r| format!(
                "      {{\"path\": \"{}\", \"ns_per_butterfly\": {:.2}}}",
                r.path, r.ns_per_butterfly
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        launcher_ratio = ntt_launched / ntt_inline,
        batched_ns = batched.batched_ns_per_butterfly,
        batched_single_ns = batched.single_ns_per_butterfly,
        batched_launches = batched.batched_launches,
        single_launches = batched.single_launches,
        rns_rows_json = rns_rows
            .iter()
            .map(|(path, ns)| format!(
                "      {{\"path\": \"{path}\", \"ns_per_element\": {ns:.2}}}"
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        baseconv_rows_json = baseconv_rows
            .iter()
            .map(|(path, ns, launches, allocs)| format!(
                "      {{\"path\": \"{path}\", \"ns_per_element\": {ns:.2}, \
                 \"launches_per_op\": {launches}, \"allocations_per_op\": {allocs}}}"
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        chain_fused_ns = chain.fused_ns,
        chain_unfused_ns = chain.unfused_ns,
        chain_speedup = chain.speedup,
        chain_fused_launches = chain.fused_launches,
        chain_unfused_launches = chain.unfused_launches,
        chain_session_allocs = chain.session_allocs,
        ws_cold = warm_start.cold_build_ms,
        ws_restore = warm_start.restore_ms,
        ws_speedup = warm_start.speedup,
        ws_bytes = warm_start.snapshot_bytes,
        ws_plans = warm_start.plans_restored,
        mul_key = BlasOp::VecMul.key(),
        kernel_name = modmul.name,
        interp_ns = modmul.interp_ns,
        compiled_ns = modmul.compiled_ns,
        kernel_speedup = modmul.speedup,
        serve_clients = serve.clients,
        serve_requests = serve.requests,
        serve_n = serve.n,
        serve_throughput = serve.throughput_ops_per_sec,
        serve_p50 = serve.p50_us,
        serve_p99 = serve.p99_us,
        serve_lpo = serve.launches_per_op,
        serve_baseline_lpo = serve.baseline_launches_per_op,
        serve_avg_batch = serve.avg_batch,
        serve_hit_rate = serve.ntt_cache_hit_rate,
        serve_apo = serve.allocations_per_op,
        serve_baseline_apo = serve.baseline_allocations_per_op,
        serve_steady_apo = serve.steady_state_allocations_per_op,
        ov_n = overload.n,
        ov_capacity = overload.capacity_ops_per_sec,
        ov_offered = ov.offered_qps,
        ov_attempts = ov.attempts,
        ov_accepted = ov.accepted,
        ov_shed = ov.shed,
        ov_expired = ov.expired,
        ov_shed_rate = ov.shed_rate,
        ov_goodput = ov.goodput_ops_per_sec,
        ov_p50 = ov.p50_accepted_us,
        ov_p99 = ov.p99_accepted_us,
        ov_sweep = overload
            .sweep
            .iter()
            .map(|p| format!(
                "      {{\"load_factor\": {:.2}, \"offered_qps\": {:.1}, \
                 \"attempts\": {}, \"accepted\": {}, \"shed\": {}, \
                 \"shed_rate\": {:.4}, \"goodput_ops_per_sec\": {:.1}, \
                 \"p50_accepted_us\": {:.1}, \"p99_accepted_us\": {:.1}}}",
                p.load_factor,
                p.offered_qps,
                p.attempts,
                p.accepted,
                p.shed,
                p.shed_rate,
                p.goodput_ops_per_sec,
                p.p50_accepted_us,
                p.p99_accepted_us
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        fl_n = ladder.n,
        fl_levels = ladder.levels,
        fl_ns = ladder.ns_per_level,
        fl_launches = ladder.launches_per_level,
        fl_allocs = ladder.allocations_per_level,
        fl_cn = ladder.crosscheck_n,
        fl_clevels = ladder.crosscheck_levels,
        fl_ok = ladder.crosscheck_ok,
    );
    std::fs::write("BENCH_ntt_blas.json", &json).expect("write BENCH_ntt_blas.json");
    println!("\nwrote BENCH_ntt_blas.json");
}
