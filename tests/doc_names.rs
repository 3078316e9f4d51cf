//! The docs that describe the tree name only what is in it. Every
//! backticked snake_case name with two or more underscores, and every
//! backticked `*.rs` path, in `DESIGN.md` and `README.md` must match an
//! identifier somewhere in the repository's `.rs` sources (read as text:
//! code, comments and strings alike), or a file under the tree. A name a
//! change deleted or renamed fails here until the doc is reworded.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

const DOCS: [&str; 2] = ["DESIGN.md", "README.md"];

/// Every file under `dir`, skipping build output and version control.
fn files_under(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).expect("readable directory").flatten() {
        let path = entry.path();
        let name = entry.file_name();
        if path.is_dir() {
            if name != "target" && name != ".git" {
                files_under(&path, out);
            }
        } else {
            out.push(path);
        }
    }
}

/// The identifier-like tokens of `text`.
fn tokens(text: &str) -> impl Iterator<Item = &str> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|t| !t.is_empty())
}

/// A lowercase snake_case name with at least two underscores.
fn is_checked_name(t: &str) -> bool {
    t.starts_with(|c: char| c.is_ascii_lowercase())
        && t.bytes()
            .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
        && t.matches('_').count() >= 2
        && !t.contains("__")
}

/// The inline code spans of a markdown text, fenced blocks left out.
fn code_spans(doc: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(str::to_owned)
        .collect()
}

/// What a doc names that the tree lacks: checked names that are neither an
/// identifier in `idents` nor a file stem in `files`, and `*.rs` paths that
/// are no file's path suffix. A name ending in `_` is a prefix (`oi_store_*`)
/// and matches any identifier it begins.
fn stale_names(doc: &str, idents: &BTreeSet<String>, files: &[String]) -> BTreeSet<String> {
    let mut stale = BTreeSet::new();
    let has_file = |suffix: &str| {
        files
            .iter()
            .any(|f| f == suffix || f.ends_with(&format!("/{suffix}")))
    };
    let is_stem = |name: &str| {
        files.iter().any(|f| {
            let base = f.rsplit('/').next().unwrap_or(f);
            base.split('.').next() == Some(name)
        })
    };
    for span in code_spans(doc) {
        for word in span.split_whitespace() {
            let path = word.trim_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '_'));
            if path.ends_with(".rs") && !path.contains('*') && !has_file(path) {
                stale.insert(path.to_owned());
            }
        }
        for name in tokens(&span).filter(|t| is_checked_name(t)) {
            let known = match name.ends_with('_') {
                true => idents.iter().any(|i| i.starts_with(name)),
                false => idents.contains(name) || is_stem(name),
            };
            if !known {
                stale.insert(name.to_owned());
            }
        }
    }
    stale
}

/// The identifiers of every `.rs` file under the tree, and every file's
/// path relative to the root.
fn tree() -> (PathBuf, BTreeSet<String>, Vec<String>) {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut paths = Vec::new();
    files_under(&root, &mut paths);
    let mut idents = BTreeSet::new();
    let mut files = Vec::new();
    for path in paths {
        let rel = path.strip_prefix(&root).expect("under the root");
        files.push(rel.to_string_lossy().replace('\\', "/"));
        if path.extension().is_some_and(|e| e == "rs") {
            let text = fs::read_to_string(&path).unwrap_or_default();
            idents.extend(tokens(&text).map(str::to_owned));
        }
    }
    (root, idents, files)
}

#[test]
fn the_docs_name_only_what_the_tree_has() {
    let (root, idents, files) = tree();
    for doc in DOCS {
        let text = fs::read_to_string(root.join(doc)).expect("doc present");
        let stale = stale_names(&text, &idents, &files);
        assert!(
            stale.is_empty(),
            "{doc} names what the tree lacks: {stale:?}"
        );
    }
}

#[test]
fn a_planted_stale_name_is_reported() {
    let (root, idents, files) = tree();
    let design = fs::read_to_string(root.join("DESIGN.md")).expect("doc present");
    // Built at run time: spelled out here, the names would be in the tree.
    let (name, path) = (
        ["decode", "with", "no", "helper"].join("_"),
        ["gone", "rs"].join("."),
    );
    let path = format!("crates/oi-raid/src/{path}");
    let planted = format!(
        "{design}\nSee `{name}` in `{path}`, beside `plan_closure`'s `run_fixpoint` \
         and `crates/oi-raid/src/store.rs`.\n"
    );
    let before = stale_names(&design, &idents, &files);
    let after = stale_names(&planted, &idents, &files);
    let new: BTreeSet<String> = after.difference(&before).cloned().collect();
    assert_eq!(new, BTreeSet::from([name, path]));
}
