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
//! Items: table1, table2, codegen, fig1, fig2, fig3, fig4, fig5a, fig5b, claims, bench,
//! all. `--quick` reduces the bench iteration counts (CI smoke mode); on its own it
//! implies the `bench` item only. Any other argument is rejected with a non-zero
//! exit, so a mistyped item cannot pass for a run that printed nothing.
//!
//! The figures live in [`figures`], the bench's micro sections in [`micro`]; what a
//! served request or a ring ladder costs end to end is measured by the repository
//! benchmark (`benchmark/`, `BENCHMARK.json`), not here.

mod figures;
mod json;
mod micro;

use moma::Session;

/// Every item name `reproduce` accepts on its command line.
const ITEMS: [&str; 12] = [
    "table1", "table2", "codegen", "fig1", "fig2", "fig3", "fig4", "fig5a", "fig5b", "claims",
    "bench", "all",
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
            name == "bench"
        } else {
            args.is_empty() || args.iter().any(|a| a == name || a == "all")
        }
    };

    // One session serves every figure and bench: generated kernels, NTT plans,
    // and RNS plans are built once and shared across items.
    let session = Session::default();

    if want("table1") {
        figures::table1();
    }
    if want("table2") {
        figures::table2();
    }
    if want("codegen") {
        figures::codegen_stats();
    }
    if want("fig2") {
        figures::fig2(&session);
    }
    if want("fig1") || want("fig3") {
        figures::fig3(&session);
    }
    if want("fig4") {
        figures::fig4(&session);
    }
    if want("fig5a") {
        figures::fig5a(&session);
    }
    if want("fig5b") {
        figures::fig5b();
    }
    if want("claims") {
        figures::claims(&session);
    }
    if want("bench") {
        micro::run(&session, quick);
    }
}

fn heading(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}
