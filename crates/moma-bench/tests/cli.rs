//! `reproduce`'s command line: a mistyped item must fail the run, not pass for
//! a run that had nothing to print (a CI step naming it would stay green); and
//! the paper pipeline's deterministic items print exactly their committed
//! goldens.

use std::process::Command;

#[test]
fn unknown_item_is_rejected_before_anything_runs() {
    // A valid item first: the typo must still stop the whole run.
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["table1", "not-an-item"])
        .output()
        .expect("reproduce spawns");
    assert!(!out.status.success(), "exit status {:?}", out.status);
    assert!(out.stdout.is_empty(), "nothing runs before the rejection");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("`not-an-item`"), "{stderr}");
    assert!(
        stderr.contains("table1") && stderr.contains("bench"),
        "the valid items are listed: {stderr}"
    );
}

#[test]
fn the_retired_serve_item_is_rejected() {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .arg("serve")
        .output()
        .expect("reproduce spawns");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "nothing runs before the rejection");
    let stderr = String::from_utf8_lossy(&out.stderr);
    let items = stderr
        .split_once("valid items: ")
        .expect("the valid items are listed")
        .1;
    assert!(items.contains("bench"), "{stderr}");
    assert!(!items.contains("serve"), "{stderr}");
}

/// The deterministic items and their committed output. Each goes through the
/// whole paper pipeline (IR → type splitting → `optimize` → emitters → cost
/// model), so a change to any of those stages that moves a printed byte fails
/// here. An intended change updates the golden in the same commit and says
/// why. `fig1` carries host-measured rows, so it has no golden.
const GOLDENS: [(&str, &str); 4] = [
    ("table1", include_str!("golden/table1.txt")),
    ("table2", include_str!("golden/table2.txt")),
    ("codegen", include_str!("golden/codegen.txt")),
    ("fig5a", include_str!("golden/fig5a.txt")),
];

#[test]
fn deterministic_items_print_their_goldens() {
    for (item, golden) in GOLDENS {
        let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
            .arg(item)
            .output()
            .expect("reproduce spawns");
        assert!(out.status.success(), "{item}: exit status {:?}", out.status);
        let printed = String::from_utf8(out.stdout).expect("utf-8 output");
        if let Some((line, (got, want))) = printed
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (got, want))| got != want)
        {
            panic!(
                "{item}: line {} differs from tests/golden/{item}.txt\n  got:  {got}\n  want: {want}",
                line + 1
            );
        }
        assert_eq!(
            printed, golden,
            "{item}: output length differs from its golden"
        );
    }
}
