//! `reproduce`'s command line: a mistyped item must fail the run, not pass for
//! a run that had nothing to print (a CI step naming it would stay green).

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
