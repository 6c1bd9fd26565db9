//! A clean checkout must build: every workspace member the root manifest
//! lists has to be committed. (`vendor/criterion` once was not — an ignore
//! rule meant for Criterion's output directory swallowed the vendored crate,
//! and every fresh clone failed at `cargo metadata`.)

use std::path::Path;
use std::process::Command;

/// The `members = [...]` entries of the root manifest.
fn workspace_members(root: &Path) -> Vec<String> {
    let manifest = std::fs::read_to_string(root.join("Cargo.toml")).expect("root Cargo.toml");
    let list = manifest
        .split_once("members = [")
        .and_then(|(_, rest)| rest.split_once(']'))
        .expect("root manifest has a members list")
        .0;
    list.split(',')
        .map(|entry| entry.trim().trim_matches('"').to_string())
        .filter(|entry| !entry.is_empty())
        .collect()
}

#[test]
fn every_workspace_member_is_tracked_by_git() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let members = workspace_members(&root);
    assert!(!members.is_empty(), "no members parsed from the manifest");
    let git = |args: &[&str]| {
        Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(args)
            .output()
            .map(|out| out.status.success())
            .unwrap_or(false)
    };
    // An exported tree (no git, or not a work tree) holds committed files
    // only, so there the manifest being on disk is the same statement.
    let in_work_tree = git(&["rev-parse", "--is-inside-work-tree"]);
    for member in &members {
        let manifest = format!("{member}/Cargo.toml");
        assert!(root.join(&manifest).is_file(), "{manifest} is missing");
        if in_work_tree {
            assert!(
                git(&["ls-files", "--error-unmatch", &manifest]),
                "{manifest} is a workspace member but not tracked by git: \
                 a fresh clone cannot build (check .gitignore)"
            );
        }
    }
}
