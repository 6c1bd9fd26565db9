//! Every library crate in the workspace forbids `unsafe` code: launch workers
//! share residue planes only as disjoint `&mut` chunks or atomics, and a
//! design that needs an unsafe view (a `[u64]` plane reinterpreted as
//! multi-word elements, say) is ruled out here rather than in review. A new
//! crate without the attribute fails this test.

use std::path::Path;

#[test]
fn every_library_crate_forbids_unsafe_code() {
    let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut checked = Vec::new();
    for entry in std::fs::read_dir(&crates).expect("crates directory") {
        let lib = entry.expect("directory entry").path().join("src/lib.rs");
        if !lib.is_file() {
            continue;
        }
        let text = std::fs::read_to_string(&lib).expect("readable lib.rs");
        assert!(
            text.lines()
                .any(|line| line.trim() == "#![forbid(unsafe_code)]"),
            "{} lacks `#![forbid(unsafe_code)]`",
            lib.display()
        );
        checked.push(lib);
    }
    assert!(
        checked.len() >= 13,
        "expected every library crate under crates/, found {checked:?}"
    );
}
