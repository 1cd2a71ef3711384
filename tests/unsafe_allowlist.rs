//! `unsafe` stays behind a short allowlist: every `unsafe` block, fn,
//! impl or trait under `crates/*/src` lives in one of [`ALLOWED`]. A new
//! file with `unsafe` fails here — move the cast behind a `plain.rs`
//! helper instead — and an allowlisted file that no longer needs it
//! fails too, so the list only shrinks.

use std::fs;
use std::path::{Path, PathBuf};

/// The files that may contain `unsafe`, relative to the repository root.
const ALLOWED: [&str; 2] = ["crates/mpi/src/plain.rs", "crates/mpi/src/sys.rs"];

/// Every `.rs` file under `dir`, recursively.
fn sources(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Whether `code` holds the `unsafe` keyword in front of a block, `fn`,
/// `impl`, `trait` or `extern` — outside `//` comments, so prose and
/// `// SAFETY:` lines do not count, and not as part of an identifier
/// such as `unsafe_code`.
fn has_unsafe(code: &str) -> bool {
    let code: String = code
        .lines()
        .map(|line| line.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join("\n");
    let ident = |c: char| c.is_alphanumeric() || c == '_';
    code.match_indices("unsafe").any(|(at, word)| {
        let before = code[..at].chars().next_back();
        let after = code[at + word.len()..].trim_start();
        let keyword = |k: &str| after.starts_with(k) && !after[k.len()..].starts_with(ident);
        !before.is_some_and(ident)
            && !code[at + word.len()..].starts_with(ident)
            && (after.starts_with('{')
                || ["fn", "impl", "trait", "extern"].into_iter().any(keyword))
    })
}

#[test]
fn the_detector_sees_every_unsafe_item_and_nothing_else() {
    for code in [
        "unsafe { x }",
        "let v = unsafe {\n x };",
        "pub unsafe fn f() {}",
        "unsafe impl Send for X {}",
        "pub unsafe trait Plain {}",
        "unsafe extern \"C\" {}",
    ] {
        assert!(has_unsafe(code), "{code}");
    }
    for code in [
        "// SAFETY: unsafe { x } is fine",
        "/// an unsafe fn elsewhere",
        "#![forbid(unsafe_code)]",
        "let unsafety = 1; not_unsafe { }",
        "the word unsafe in a sentence",
    ] {
        assert!(!has_unsafe(code), "{code}");
    }
}

#[test]
fn unsafe_lives_only_in_the_allowlisted_files() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    for krate in fs::read_dir(root.join("crates")).unwrap() {
        let src = krate.unwrap().path().join("src");
        if src.is_dir() {
            sources(&src, &mut files);
        }
    }
    let relative = |path: &Path| {
        let path = path.strip_prefix(root).unwrap().to_string_lossy();
        path.replace('\\', "/")
    };
    let mut with_unsafe: Vec<String> = (files.iter())
        .filter(|path| has_unsafe(&fs::read_to_string(path).unwrap()))
        .map(|path| relative(path))
        .collect();
    with_unsafe.sort();
    assert!(files.len() > 100, "scanned only {} files", files.len());
    assert_eq!(
        with_unsafe, ALLOWED,
        "files with `unsafe` under crates/*/src (left) against the allowlist (right)"
    );
}
