//! The workspace's public surface is a committed list. Every `pub` item (`fn`,
//! `struct`, `enum`, `trait`, `type`, `const`, `static`, `mod`, `use`) declared
//! under `crates/*/src`, outside `#[cfg(test)]` code, is listed by a source scan
//! and compared with `tests/public_surface.txt`. A change that adds an entry
//! point adds its line there and says why in CHANGES.md; one that deletes or
//! demotes an item drops its line. Methods are qualified by the type their
//! `impl` block names, and a `pub use` is listed as its whole path.
//!
//! Golden lines read `<crate> <file> <kind> <name>`. Text after ` # ` is a note
//! (why an item that nothing in the workspace calls stays public) and is not
//! compared; lines that start with `#` are comments.

use std::path::{Path, PathBuf};

const KINDS: [&str; 9] = [
    "fn", "struct", "enum", "trait", "type", "const", "static", "mod", "use",
];

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Every `.rs` file under `dir`, sorted.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.expect("directory entry").path())
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|e| e == "rs") {
            files.push(path);
        }
    }
    files
}

fn indent(line: &str) -> usize {
    line.len() - line.trim_start().len()
}

/// The type an `impl` header names: `impl<..> Foo<..> {` and
/// `impl<..> Trait for Foo<..> {` both give `Foo`.
fn impl_type(header: &str) -> String {
    let mut rest = header.trim_start().trim_start_matches("impl").trim_start();
    if rest.starts_with('<') {
        let mut depth = 0;
        let end = rest
            .char_indices()
            .find(|&(_, c)| {
                depth += match c {
                    '<' => 1,
                    '>' => -1,
                    _ => 0,
                };
                depth == 0
            })
            .map_or(rest.len(), |(i, _)| i + 1);
        rest = &rest[end..];
    }
    let rest = rest.split(" for ").last().unwrap_or(rest).trim_start();
    rest.split(|c: char| !c.is_alphanumeric() && c != '_')
        .next()
        .unwrap_or("")
        .to_string()
}

/// The `pub` items of one source file, as `<kind> <name>` strings in file order.
fn pub_items(text: &str) -> Vec<String> {
    let lines: Vec<&str> = text.lines().collect();
    let mut items = Vec::new();
    // Open `impl` / inline `mod` blocks: (indent of the closing brace, prefix).
    let mut scopes: Vec<(usize, String)> = Vec::new();
    let mut i = 0;
    while i < lines.len() {
        let line = lines[i];
        let trimmed = line.trim_start();
        let depth = indent(line);
        if scopes
            .last()
            .is_some_and(|(d, _)| *d == depth && trimmed.starts_with('}'))
        {
            scopes.pop();
        }
        // Skip a `#[cfg(test)]` item: to its closing brace at the same indent if
        // it opens a block, otherwise the one line.
        if trimmed == "#[cfg(test)]" {
            let mut j = i + 1;
            while lines[j].trim_start().starts_with("#[") {
                j += 1;
            }
            if lines[j].trim_end().ends_with('{') {
                while !(indent(lines[j]) == depth && lines[j].trim_start().starts_with('}')) {
                    j += 1;
                }
            }
            i = j + 1;
            continue;
        }
        let prefix: String = scopes.iter().map(|(_, p)| p.as_str()).collect();
        if trimmed.starts_with("impl") && trimmed[4..].starts_with([' ', '<']) {
            // A header may run over several lines (`where` clauses).
            let mut header = String::from(trimmed);
            let mut j = i;
            while !lines[j].trim_end().ends_with(['{', '}', ';']) {
                j += 1;
                header.push(' ');
                header.push_str(lines[j].trim());
            }
            if header.ends_with('{') {
                scopes.push((depth, format!("{}{}::", prefix, impl_type(&header))));
            }
            i = j + 1;
            continue;
        }
        if let Some(decl) = trimmed.strip_prefix("pub ") {
            // `pub const fn` declares a fn, `pub const NAME` a const.
            let decl = decl
                .strip_prefix("const ")
                .filter(|d| d.starts_with("fn "))
                .unwrap_or(decl);
            let mut words = decl.split_whitespace();
            let kind = words.next().unwrap_or("");
            if KINDS.contains(&kind) {
                if kind == "use" {
                    let mut path = String::from(decl.trim_start_matches("use").trim());
                    let mut j = i;
                    while !path.ends_with(';') {
                        j += 1;
                        path.push(' ');
                        path.push_str(lines[j].trim());
                    }
                    let path = path.trim_end_matches(';').split_whitespace();
                    let path = path.collect::<Vec<_>>().join(" ");
                    let path = path
                        .replace("{ ", "{")
                        .replace(" }", "}")
                        .replace(", ", ",");
                    let path = path.replace(",}", "}").replace(',', ", ");
                    items.push(format!("use {prefix}{path}"));
                    i = j + 1;
                    continue;
                }
                let name: String = words
                    .next()
                    .unwrap_or("")
                    .chars()
                    .take_while(|c| c.is_alphanumeric() || *c == '_')
                    .collect();
                items.push(format!("{kind} {prefix}{name}"));
                if kind == "mod" && trimmed.ends_with('{') {
                    scopes.push((depth, format!("{prefix}{name}::")));
                }
            }
        } else if trimmed.starts_with("mod ") && trimmed.ends_with('{') {
            let name = trimmed[4..].trim_end_matches('{').trim();
            scopes.push((depth, format!("{prefix}{name}::")));
        }
        i += 1;
    }
    items
}

/// The current surface: one `<crate> <file> <kind> <name>` line per item.
fn surface() -> Vec<String> {
    let crates = workspace_root().join("crates");
    let mut names: Vec<PathBuf> = std::fs::read_dir(&crates)
        .expect("crates directory")
        .map(|e| e.expect("directory entry").path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    names.sort();
    let mut lines = Vec::new();
    for krate in names {
        let src = krate.join("src");
        let name = krate.file_name().unwrap().to_string_lossy().into_owned();
        for file in rust_files(&src) {
            let text = std::fs::read_to_string(&file).expect("readable source file");
            let rel = file
                .strip_prefix(&src)
                .unwrap()
                .to_string_lossy()
                .into_owned();
            for item in pub_items(&text) {
                lines.push(format!("{name} {rel} {item}"));
            }
        }
    }
    lines
}

/// The committed list, notes and comments stripped.
fn golden() -> Vec<String> {
    let path = workspace_root().join("tests/public_surface.txt");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|l| l.split(" # ").next().unwrap().trim_end().to_string())
        .collect()
}

#[test]
fn the_public_surface_matches_the_committed_list() {
    let current = surface();
    let committed = golden();
    if current != committed {
        let added: Vec<&String> = current.iter().filter(|l| !committed.contains(l)).collect();
        let removed: Vec<&String> = committed.iter().filter(|l| !current.contains(l)).collect();
        let listing = Path::new(env!("CARGO_TARGET_TMPDIR")).join("public_surface.txt");
        std::fs::write(&listing, current.join("\n") + "\n").expect("write the current listing");
        panic!(
            "the public surface differs from tests/public_surface.txt \
             (the current list, without notes, is in {}):\n\
             not in the list:\n  {}\nno longer declared:\n  {}\n\
             (an order-only difference shows neither)",
            listing.display(),
            added
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join("\n  "),
            removed
                .iter()
                .map(|s| s.as_str())
                .collect::<Vec<_>>()
                .join("\n  "),
        );
    }
}

/// The scan itself: impl qualification, `cfg(test)` skipping, `pub use`
/// paths over several lines, and `const fn` against `const`.
#[test]
fn the_scan_reads_items_the_way_rustfmt_lays_them_out() {
    let text = "\
pub use a::{
    B,
    C,
};
pub const fn f() {}
pub const N: usize = 1;
pub struct S;
impl<const L: usize> S<L>
where
    S<L>: Copy,
{
    pub fn new() -> Self {}
    fn private() {}
}
impl fmt::Display for S {
    fn fmt() {}
}
impl Error for S {}
pub use b as c;
pub mod inner {
    pub fn g() {}
}
#[cfg(test)]
mod tests {
    pub fn helper() {}
}
pub(crate) fn h() {}
";
    assert_eq!(
        pub_items(text),
        [
            "use a::{B, C}",
            "fn f",
            "const N",
            "struct S",
            "fn S::new",
            "use b as c",
            "mod inner",
            "fn inner::g",
        ]
    );
}
