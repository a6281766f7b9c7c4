//! The public API surface, checked two ways.
//!
//! **The snapshot.** Every `pub` item declaration in the library crates
//! (`crates/*/src`), one line each, diffed against a checked-in snapshot.
//! The point is not to freeze the API but to make changes to it
//! *deliberate*: the diff shows up in review next to the code that caused
//! it. To regenerate after an intentional change:
//!
//! ```text
//! RAMR_UPDATE_API_SNAPSHOT=1 cargo test -p mr-integration --test api_surface
//! ```
//!
//! **The caller rule.** Every public item needs a caller outside its own
//! file: a whole-word mention, comments included, in some other `.rs` file
//! of `crates/*/{src,tests,benches,examples}`, `tests/`, `examples/` or
//! `benchmark/src` (not this file, which names items only to exempt them).
//! - A `pub fn`, `const` or `static` (`pub const fn` is a `fn`) must be named
//!   outside a `pub use`: a re-export passes a function on, it calls nothing.
//! - A `pub struct`, `enum`, `trait` or `type` may be named anywhere, a
//!   re-export included: a type is often reachable only through the
//!   signature that returns it.
//! - Any other item needs an [`ALLOWED`] row with a one-line reason. A row
//!   whose item is gone, or now has a caller, fails the rule too.
//!
//! A flagged item is deleted, loses `pub`, or gets an `ALLOWED` row; the
//! snapshot regeneration never writes one. Once private, an item is kept
//! honest by rustc's `dead_code` and `private_interfaces` lints.

use std::collections::{BTreeSet, HashSet};
use std::fmt::Write as _;
use std::fs;
use std::path::{Path, PathBuf};

const SNAPSHOT: &str = "tests/api_surface.snap";

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..").canonicalize().unwrap()
}

/// All `.rs` files under `dir`, depth-first, sorted by path.
fn rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let mut entries: Vec<_> = fs::read_dir(dir).unwrap().map(|e| e.unwrap().path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// The item declarations visible outside the crate, one normalized line
/// each. A line counts when it starts (modulo indentation and the
/// `unsafe`/`const`/`async` qualifiers) with `pub <kind>`; `pub(crate)`
/// and friends are crate-internal and excluded. Only the first line of a
/// multi-line signature is recorded — enough to catch any edit to it.
fn public_items(source: &str) -> Vec<String> {
    const KINDS: [&str; 9] =
        ["fn ", "struct ", "enum ", "trait ", "type ", "const ", "static ", "mod ", "use "];
    let mut items = Vec::new();
    for line in source.lines() {
        let trimmed = line.trim();
        let Some(mut rest) = trimmed.strip_prefix("pub ") else { continue };
        // `unsafe`/`async` qualify `fn`/`trait` declarations; `const` is
        // itself a kind (`pub const LIMIT`), so `pub const fn` already
        // matches and needs no stripping.
        for qualifier in ["unsafe ", "async "] {
            if let Some(stripped) = rest.strip_prefix(qualifier) {
                rest = stripped;
            }
        }
        if KINDS.iter().any(|kind| rest.starts_with(kind)) {
            items.push(trimmed.trim_end_matches('{').trim_end().to_string());
        }
    }
    items
}

fn render_surface(root: &Path) -> String {
    let mut files = Vec::new();
    for crate_dir in crate_dirs(root) {
        rs_files(&crate_dir.join("src"), &mut files);
    }
    let mut rendered = String::from(
        "# Public API surface (generated by tests/api_surface.rs; do not edit by hand).\n\
         # Regenerate: RAMR_UPDATE_API_SNAPSHOT=1 cargo test -p mr-integration --test api_surface\n",
    );
    for file in files {
        let relative = file.strip_prefix(root).unwrap().display().to_string();
        let items = public_items(&fs::read_to_string(&file).unwrap());
        if items.is_empty() {
            continue;
        }
        writeln!(rendered, "\n## {relative}").unwrap();
        for item in items {
            writeln!(rendered, "{item}").unwrap();
        }
    }
    rendered
}

/// The library crates' directories, sorted: `crates/*` with a `src/`.
fn crate_dirs(root: &Path) -> Vec<PathBuf> {
    let mut dirs: Vec<_> = fs::read_dir(root.join("crates"))
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.join("src").is_dir())
        .collect();
    dirs.sort();
    dirs
}

/// Items exempt from the caller rule: `(item, reason)`, the item spelled
/// `path: kind name` as the failure message prints it.
const ALLOWED: &[(&str, &str)] = &[];

fn idents(line: &str) -> impl Iterator<Item = &str> {
    line.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')).filter(|w| !w.is_empty())
}

/// The kind and name of a line `public_items` returned, `pub const fn` read
/// as a `fn`; `None` for a `mod` or `use`.
fn kind_and_name(item: &str) -> Option<(&str, &str)> {
    let mut words = idents(item).skip(1).peekable();
    let kind = loop {
        match words.next()? {
            "unsafe" | "async" => {}
            "const" if words.peek().is_some_and(|w| matches!(*w, "fn" | "unsafe" | "async")) => {}
            kind => break kind,
        }
    };
    let checked = matches!(kind, "fn" | "const" | "static" | "struct" | "enum" | "trait" | "type");
    checked.then_some((kind, words.next()?))
}

/// The whole words of `text`, and those outside its `pub use` statements.
fn words(text: &str) -> (HashSet<&str>, HashSet<&str>) {
    let (mut named, mut called) = (HashSet::new(), HashSet::new());
    let mut in_reexport = false;
    for line in text.lines() {
        in_reexport |= line.trim_start().starts_with("pub use ");
        for word in idents(line) {
            named.insert(word);
            if !in_reexport {
                called.insert(word);
            }
        }
        in_reexport &= !line.contains(';');
    }
    (named, called)
}

/// The caller rule over `(path, text)` files: the items it flags, as `path:
/// kind name`, and the `allowed` rows that are stale. Items come from the
/// library sources (`crates/*/src/`); any file may be a caller.
fn caller_rule(files: &[(String, String)], allowed: &[(&str, &str)]) -> (Vec<String>, Vec<String>) {
    let words: Vec<_> = files.iter().map(|(_, text)| words(text)).collect();
    let mut uncalled = BTreeSet::new();
    for (own, (path, text)) in files.iter().enumerate() {
        if !(path.starts_with("crates/") && path.split('/').nth(2) == Some("src")) {
            continue;
        }
        for item in public_items(text) {
            let Some((kind, name)) = kind_and_name(&item) else { continue };
            let reexport_counts = !matches!(kind, "fn" | "const" | "static");
            let has_caller = words.iter().enumerate().any(|(other, (named, called))| {
                other != own && if reexport_counts { named } else { called }.contains(name)
            });
            if !has_caller {
                uncalled.insert(format!("{path}: {kind} {name}"));
            }
        }
    }
    let flagged = uncalled.iter().filter(|item| !allowed.iter().any(|(row, _)| row == item));
    let stale = allowed.iter().filter(|(row, _)| !uncalled.contains(*row));
    (flagged.cloned().collect(), stale.map(|(row, _)| row.to_string()).collect())
}

/// The files the caller rule reads, as `(path relative to root, text)`.
fn caller_corpus(root: &Path) -> Vec<(String, String)> {
    let dirs = crate_dirs(root)
        .into_iter()
        .flat_map(|dir| ["src", "tests", "benches", "examples"].map(|sub| dir.join(sub)))
        .chain(["tests", "examples", "benchmark/src"].map(|dir| root.join(dir)));
    let mut files = Vec::new();
    for dir in dirs.filter(|dir| dir.is_dir()) {
        rs_files(&dir, &mut files);
    }
    let relative = |file: &PathBuf| file.strip_prefix(root).unwrap().to_str().unwrap().to_string();
    files
        .iter()
        .map(|file| (relative(file), fs::read_to_string(file).unwrap()))
        .filter(|(path, _)| path != "tests/api_surface.rs")
        .collect()
}

#[test]
fn public_api_matches_the_checked_in_snapshot() {
    let root = workspace_root();
    let actual = render_surface(&root);
    let snapshot_path = root.join(SNAPSHOT);
    if std::env::var("RAMR_UPDATE_API_SNAPSHOT").is_ok_and(|v| v == "1") {
        fs::write(&snapshot_path, &actual).unwrap();
        return;
    }
    let expected = fs::read_to_string(&snapshot_path).unwrap_or_default();
    if actual != expected {
        let actual_lines: Vec<_> = actual.lines().collect();
        let expected_lines: Vec<_> = expected.lines().collect();
        let mut diff = String::new();
        for line in &actual_lines {
            if !expected_lines.contains(line) {
                writeln!(diff, "+ {line}").unwrap();
            }
        }
        for line in &expected_lines {
            if !actual_lines.contains(line) {
                writeln!(diff, "- {line}").unwrap();
            }
        }
        panic!(
            "public API surface drifted from {SNAPSHOT}:\n{diff}\n\
             If the change is intentional, regenerate with\n\
             RAMR_UPDATE_API_SNAPSHOT=1 cargo test -p mr-integration --test api_surface"
        );
    }
}

/// The extractor itself must not regress: qualifiers, restricted
/// visibility, and doc-comment lookalikes are the usual traps.
#[test]
fn extractor_recognizes_the_right_lines() {
    let source = "\
pub fn plain() {}
    pub unsafe fn qualified() {}
pub const fn const_fn() {}
pub const LIMIT: usize = 4;
pub(crate) fn internal() {}
/// pub fn doc_comment_lookalike()
pub struct Wide {
pub use config::RuntimeConfig;
fn private() {}
";
    let items = public_items(source);
    assert_eq!(
        items,
        [
            "pub fn plain() {}",
            "pub unsafe fn qualified() {}",
            "pub const fn const_fn() {}",
            "pub const LIMIT: usize = 4;",
            "pub struct Wide",
            "pub use config::RuntimeConfig;",
        ]
    );
}

#[test]
fn every_public_item_has_a_caller_outside_its_file() {
    let (flagged, stale) = caller_rule(&caller_corpus(&workspace_root()), ALLOWED);
    let mut failure = String::new();
    if !flagged.is_empty() {
        failure += &format!(
            "public items with no caller outside their own file:\n  {}\n\
             For each: delete it, drop `pub`, or add an ALLOWED row in \
             tests/api_surface.rs with a one-line reason it stays public.\n",
            flagged.join("\n  ")
        );
    }
    if !stale.is_empty() {
        failure += &format!(
            "ALLOWED rows whose item is gone or now has a caller; delete them:\n  {}\n",
            stale.join("\n  ")
        );
    }
    assert!(failure.is_empty(), "{failure}");
}

/// The rule itself, on made-up files: a `fn` named elsewhere only in a
/// `pub use` (one line or several) is flagged and a `struct` is not; `pub
/// const fn` is a `fn`; `fit_lines` does not name `fit_line`; a call in the
/// item's own file does not count; a row for an item that has a caller, or
/// for no item at all, is stale.
#[test]
fn caller_rule_flags_the_right_items() {
    let files = [
        (
            "crates/a/src/lib.rs",
            "pub use imp::{only_reexported, Returned};\npub use imp::{\n    constant_fn,\n};",
        ),
        (
            "crates/a/src/imp.rs",
            "pub fn only_reexported() {}\npub struct Returned;\n\
            pub const fn constant_fn() {}\npub fn fit_line() {}\npub fn own_file_only() {}\n\
            fn caller() { own_file_only() }\npub fn called() {}\npub mod not_checked {}",
        ),
        ("tests/t.rs", "fn t() { called(); fit_lines(); } // NowCalled"),
        ("crates/b/src/lib.rs", "pub struct Exempt;\npub struct NowCalled;"),
    ]
    .map(|(path, text)| (path.to_string(), text.to_string()));
    let allowed = [
        ("crates/b/src/lib.rs: struct Exempt", "kept for a reason"),
        ("crates/b/src/lib.rs: struct NowCalled", "now has a caller"),
        ("crates/b/src/lib.rs: fn deleted", "no such item"),
    ];
    let (flagged, stale) = caller_rule(&files, &allowed);
    let imp = ["constant_fn", "fit_line", "only_reexported", "own_file_only"];
    assert_eq!(flagged, imp.map(|name| format!("crates/a/src/imp.rs: fn {name}")));
    assert_eq!(stale, [allowed[1].0, allowed[2].0]);
}
