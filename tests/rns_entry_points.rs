//! Each operation is run, and each launch shape launched, exactly one way.
//! `moma-rns` once exposed 22 execution entry points for 6 operations — {heap,
//! `_pooled`} × {plan-owned kernel, `_with`, `_with_pool`} × {direct,
//! `_compiled`, `_fused`, `_two_pass`} — and `moma-gpu` / `moma-ntt` nine
//! `launch_*` and ten launcher functions for four launch shapes and two
//! executors, most of them the losing side of a choice nobody made; `moma-ir`
//! kept a per-element copy of its bytecode loop beside the lane-block one; the
//! planned CRT codec ran on `BigUint` arithmetic until it was replaced, in
//! place, by word-level launches; the ring dropped a level through a base
//! extension onto the basis it was already in. These scans keep that matrix
//! from growing back: a new variant has to replace an entry point, not sit
//! beside it.

use std::path::Path;

/// Name endings that marked "the same operation, run another way".
const VARIANT_SUFFIXES: [&str; 6] = [
    "_pooled",
    "_with",
    "_with_pool",
    "_two_pass",
    "_compiled",
    "_fused",
];

/// `RnsMatrix`'s pooled storage constructors. They build or copy a matrix, they
/// do not execute an operation, and both they and their allocator twins
/// (`from_biguints`, `Clone`) have callers outside tests.
const STORAGE_CONSTRUCTORS: [&str; 2] = ["from_biguints_pooled", "clone_with_pool"];

/// One `pub fn` of a scanned source directory.
struct PubFn {
    /// Source file name (`launch.rs`).
    file: String,
    name: String,
    /// Everything between `pub fn ` and the body's opening brace.
    signature: String,
}

impl PubFn {
    fn is_variant(&self) -> bool {
        VARIANT_SUFFIXES.iter().any(|s| self.name.ends_with(s))
            && !STORAGE_CONSTRUCTORS.contains(&self.name.as_str())
    }
}

/// Every `pub fn` in the `.rs` files directly under `crates/<krate>/src`.
fn pub_fns(krate: &str) -> Vec<PubFn> {
    let src = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(krate)
        .join("src");
    let mut found = Vec::new();
    for entry in std::fs::read_dir(&src).unwrap_or_else(|e| panic!("{}: {e}", src.display())) {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("readable source file");
        for (at, _) in text.match_indices("pub fn ") {
            let signature = text[at + "pub fn ".len()..]
                .split_once('{')
                .map_or("", |(signature, _)| signature);
            let name = signature
                .split(|c: char| !c.is_alphanumeric() && c != '_')
                .next()
                .unwrap_or("");
            found.push(PubFn {
                file: path.file_name().unwrap().to_string_lossy().into_owned(),
                name: name.to_string(),
                signature: signature.to_string(),
            });
        }
    }
    found
}

/// The sorted names of the functions `keep` selects.
fn names_where(fns: &[PubFn], keep: impl Fn(&PubFn) -> bool) -> Vec<&str> {
    let mut names: Vec<&str> = fns
        .iter()
        .filter(|f| keep(f))
        .map(|f| f.name.as_str())
        .collect();
    names.sort_unstable();
    names
}

#[test]
fn moma_rns_keeps_one_entry_point_per_operation() {
    let fns = pub_fns("moma-rns");
    assert_eq!(
        names_where(&fns, PubFn::is_variant),
        Vec::<&str>::new(),
        "execution-variant entry points are back in moma-rns"
    );
    // Every execution entry point returns the result and its launches.
    assert_eq!(
        names_where(&fns, |f| f
            .signature
            .contains("-> (RnsMatrix, LaunchStats)")),
        [
            "apply",
            "base_convert",
            "mul_axpy",
            "mul_rescale_then_extend",
            "rescale_then_extend",
            "scale_and_round",
        ],
        "RnsPlan has one public execution entry point per operation"
    );
}

/// The text of the function `name` in `source`, from its `fn` to the closing
/// brace at the indentation of the line that declares it.
fn fn_text<'a>(source: &'a str, name: &str) -> &'a str {
    let at = source
        .find(&format!("fn {name}("))
        .unwrap_or_else(|| panic!("no `fn {name}`"));
    let line = source[..at].rfind('\n').map_or(0, |nl| nl + 1);
    let indent = source[line..].len() - source[line..].trim_start_matches(' ').len();
    let close = format!("\n{}}}\n", " ".repeat(indent));
    let end = source[at..]
        .find(&close)
        .expect("function has a closing brace");
    &source[at..at + end]
}

/// The names of the functions, private ones too, that `source` declares with
/// a name starting with `prefix`, in source order.
fn fn_names<'a>(source: &'a str, prefix: &str) -> Vec<&'a str> {
    source
        .match_indices(&format!("fn {prefix}"))
        .map(|(at, _)| {
            let name = &source[at + "fn ".len()..];
            &name[..name.find('(').unwrap_or(name.len())]
        })
        .collect()
}

#[test]
fn the_crt_codec_runs_on_machine_words_behind_five_entry_points() {
    // `RnsContext`/`RnsVector` (lib.rs, vector.rs) keep the `BigUint` forms of
    // the same names as the oracle; the planned codec is plan.rs's alone. A
    // word-level/fast/lazy twin would carry one of these names with a suffix.
    let fns = pub_fns("moma-rns");
    assert_eq!(
        names_where(&fns, |f| f.file == "plan.rs"
            && (f.name.contains("residues") || f.name.contains("biguints"))),
        [
            "from_biguints",
            "from_biguints_pooled",
            "from_residues",
            "to_biguints",
            "to_residues",
        ],
        "the planned codec has one encode and one decode, per matrix and per value"
    );
    // And what is behind them: no arbitrary-precision product, conversion or
    // remainder in reconstruction, no division of any kind in either direction.
    let plan = Path::new(env!("CARGO_MANIFEST_DIR")).join("../moma-rns/src/plan.rs");
    let text = std::fs::read_to_string(&plan).expect("readable source file");
    for name in ["to_biguints", "crt_reconstruct", "residue_of"] {
        let body = fn_text(&text, name);
        for banned in ["%", " / ", "* &", "BigUint::from("] {
            assert!(
                !body.contains(banned),
                "plan.rs `{name}` contains `{banned}`:\n{body}"
            );
        }
    }
}

#[test]
fn launches_and_launcher_transforms_keep_one_entry_point_per_shape() {
    let gpu = pub_fns("moma-gpu");
    let ntt = pub_fns("moma-ntt");
    // `BufferPool::{acquire_cells, recycle_cells}` sit beside `acquire` /
    // `recycle` as storage for a second element type, not as a second way to
    // execute anything; no suffix above catches them, on purpose.
    assert_eq!(
        names_where(&gpu, PubFn::is_variant),
        Vec::<&str>::new(),
        "execution-variant entry points are back in moma-gpu"
    );
    assert_eq!(
        names_where(&ntt, PubFn::is_variant),
        Vec::<&str>::new(),
        "execution-variant entry points are back in moma-ntt"
    );
    assert_eq!(
        names_where(&gpu, |f| f.name.starts_with("launch_")),
        [
            "launch_chunks",
            "launch_compiled_batch",
            "launch_compiled_rows",
            "launch_indexed",
        ],
        "moma-gpu has one launch function per launch shape"
    );
    assert_eq!(
        names_where(&ntt, |f| f.file == "launcher.rs"
            && (f.name.ends_with("_on_launcher") || f.name.ends_with("_rows"))),
        [
            "forward_batch_on_launcher",
            "forward_rows",
            "inverse_batch_on_launcher",
            "inverse_rows",
        ],
        "launcher.rs has one forward/inverse pair per executor"
    );
}

#[test]
fn compiled_kernels_run_on_one_executor() {
    let ir = pub_fns("moma-ir");
    assert_eq!(
        names_where(&ir, PubFn::is_variant),
        Vec::<&str>::new(),
        "execution-variant entry points are back in moma-ir"
    );
    assert_eq!(
        names_where(&ir, |f| f.file == "compiled.rs"
            && f.name.starts_with("run")),
        ["run", "run_batch", "run_elements", "run_lanes"],
        "CompiledKernel runs one element, a batch, an element-major range or a lane block"
    );
    // Private functions too: a second `exec*` is a second loop giving the
    // bytecode its meaning, to be kept in step with the first by hand.
    let compiled = Path::new(env!("CARGO_MANIFEST_DIR")).join("../moma-ir/src/compiled.rs");
    let text = std::fs::read_to_string(&compiled).expect("readable source file");
    assert_eq!(
        fn_names(&text, "exec"),
        ["exec_lanes"],
        "compiled.rs has one bytecode loop"
    );
}

/// Beside the one bytecode loop, a fixed kernel set runs as native twins that
/// `moma-gpu`'s build script emits from the rewrite system's output. They are
/// reachable only through a private fingerprint table: one crate-private
/// lookup, asked by one launch shape, and no public name in `moma-gpu` for any
/// of it.
#[test]
fn native_twins_sit_behind_one_private_table() {
    let gpu = Path::new(env!("CARGO_MANIFEST_DIR")).join("../moma-gpu");
    let read = |file: &str| {
        std::fs::read_to_string(gpu.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"))
    };
    let lib = read("src/lib.rs");
    assert!(lib.contains("\nmod native;\n") && !lib.contains("pub mod native"));
    let native = read("src/native.rs");
    let native = native.split("#[cfg(test)]").next().expect("some source");
    assert_eq!(fn_names(native, ""), ["twin"], "native.rs has one lookup");
    assert!(native.contains("pub(crate) fn twin("));
    assert_eq!(
        native.matches("include!(").count(),
        1,
        "the build script's module is included in one place"
    );
    let launch = read("src/launch.rs");
    let callers: Vec<&str> = fn_names(&launch, "")
        .into_iter()
        .filter(|name| fn_text(&launch, name).contains("native::twin("))
        .collect();
    assert_eq!(callers, ["launch_compiled_batch"], "one launch shape asks");
    assert!(
        read("build.rs").contains("emit_rust(&kernel)"),
        "the twins are the rewrite system's emitted Rust"
    );

    // The public surface: every `pub fn` and every public re-export.
    assert_eq!(
        names_where(&pub_fns("moma-gpu"), |_| true),
        [
            "accumulate",
            "acquire",
            "acquire_cells",
            "acquire_for_overwrite",
            "all",
            "cycles_per_thread",
            "estimate_launch",
            "estimate_ntt",
            "launch_chunks",
            "launch_compiled_batch",
            "launch_compiled_rows",
            "launch_indexed",
            "misses",
            "misses_since",
            "nanos",
            "nanos_per_element",
            "new",
            "new",
            "ntt_time_per_butterfly_ns",
            "peak_ops_per_second",
            "recycle",
            "recycle_cells",
            "shared_mem_bytes",
            "stats",
            "weigh",
        ],
        "moma-gpu's public functions"
    );
    let exports: Vec<&str> = lib.lines().filter(|l| l.starts_with("pub ")).collect();
    assert_eq!(
        exports,
        [
            "pub mod cost;",
            "pub mod launch;",
            "pub mod pool;",
            "pub use cost::{CostModel, KernelCostEstimate};",
            "pub use device::DeviceSpec;",
            "pub use launch::{",
            "pub use pool::{BufferPool, PoolStats};",
        ],
        "moma-gpu's public modules and re-exports"
    );
}

#[test]
fn the_ring_drops_a_level_without_a_base_conversion() {
    // A rescaled value already lives over the next level's basis: the ring
    // names no conversion and asks its plan source for no conversion plan.
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../moma-ring/src");
    let mut ring = String::new();
    for entry in std::fs::read_dir(&src).expect("moma-ring sources") {
        let path = entry.expect("directory entry").path();
        let text = std::fs::read_to_string(&path).expect("readable source file");
        for banned in ["RescaleExtendPlan", "rescale_then_extend", "base_convert"] {
            assert!(
                !text.contains(banned),
                "{} names `{banned}`",
                path.display()
            );
        }
        if path.ends_with("ring.rs") {
            ring = text;
        }
    }
    let (_, decl) = ring
        .split_once("pub trait RingPlanSource {")
        .expect("ring.rs declares RingPlanSource");
    let (decl, _) = decl.split_once("\n}\n").expect("trait has a closing brace");
    assert_eq!(
        fn_names(decl, ""),
        ["negacyclic_plan", "rns_plan", "rescale_plan"],
        "a ring is assembled from transform plans, level bases and rescale steps"
    );
}
