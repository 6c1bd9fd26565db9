//! `moma-rns` runs each operation exactly one way. It once exposed 22 execution
//! entry points for 6 operations — {heap, `_pooled`} × {plan-owned kernel,
//! `_with`, `_with_pool`} × {direct, `_compiled`, `_fused`, `_two_pass`} — most
//! of them the losing side of a choice nobody made. This scan keeps that matrix
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

#[test]
fn moma_rns_keeps_one_entry_point_per_operation() {
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("../moma-rns/src");
    let mut variants = Vec::new();
    let mut entry_points = Vec::new();
    for entry in std::fs::read_dir(&src).expect("crates/moma-rns/src") {
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
            if VARIANT_SUFFIXES.iter().any(|s| name.ends_with(s))
                && !STORAGE_CONSTRUCTORS.contains(&name)
            {
                variants.push(format!("{}: {name}", path.display()));
            }
            // Every execution entry point returns the result and its launches.
            if signature.contains("-> (RnsMatrix, LaunchStats)") {
                entry_points.push(name.to_string());
            }
        }
    }
    assert!(
        variants.is_empty(),
        "execution-variant entry points are back in moma-rns: {variants:#?}"
    );
    entry_points.sort();
    assert_eq!(
        entry_points,
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
