//! Loads the workspace into the model the rules operate on: one
//! [`CrateInfo`] per member crate, each holding its parsed manifest and the
//! lexed, test-masked source files under `src/`, plus a
//! reference corpus (crate `tests/`/`benches/` dirs, the root
//! `tests/`/`examples/` dirs and the `benchmark/` harness's sources) that the cross-reference rules (`dead-pub`,
//! `trace-coverage`) count identifier uses in without auditing it.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lex::{self, Lexed};
use crate::manifest::{self, Manifest};

/// One lexed source file.
pub struct SrcFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// Whether the file lives under `src/bin/` or is `src/main.rs` — CLI
    /// entry points, each its own rustc crate, so `dead-pub` counts their
    /// references to the library as cross-crate.
    pub is_bin: bool,
    /// The token stream plus allow-comment annotations.
    pub lexed: Lexed,
    /// `mask[i]` is true when token `i` sits inside `#[cfg(test)]` /
    /// `#[test]` gated code.
    mask: Vec<bool>,
}

impl SrcFile {
    /// Whether token `i` sits inside `#[cfg(test)]` / `#[test]` gated code.
    pub fn in_test(&self, i: usize) -> bool {
        self.mask.get(i).copied().unwrap_or(false)
    }
}

/// One file of the reference corpus: lexed but not audited. Used only to
/// count identifier references (is a pub item used cross-crate? is a
/// trace variant checked by a test?).
pub struct RefFile {
    /// Path relative to the workspace root, `/`-separated.
    pub rel: String,
    /// The token stream.
    pub lexed: Lexed,
}

/// One workspace member crate.
pub struct CrateInfo {
    /// Directory name under `crates/` (the identity the layering DAG uses).
    pub dir_name: String,
    /// Manifest path relative to the workspace root.
    pub manifest_rel: String,
    /// Parsed `Cargo.toml`.
    pub manifest: Manifest,
    /// Lexed files under `src/`, sorted by path.
    pub files: Vec<SrcFile>,
}

/// The loaded workspace.
pub struct Workspace {
    /// The root `Cargo.toml`, when present.
    pub root_manifest: Option<Manifest>,
    /// Member crates, sorted by directory name.
    pub crates: Vec<CrateInfo>,
    /// Reference corpus: crate `tests/`/`benches/` files plus root
    /// `tests/`/`examples/` and `benchmark/{src,tests}` files.
    pub ref_files: Vec<RefFile>,
}

/// Loads the workspace rooted at `root`. Only `crates/*/` directories
/// that contain a `Cargo.toml` become members; everything is read eagerly
/// so the rules run over a consistent snapshot.
pub fn load(root: &Path) -> io::Result<Workspace> {
    let root_manifest = match fs::read_to_string(root.join("Cargo.toml")) {
        Ok(text) => Some(manifest::parse(&text)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => None,
        Err(e) => return Err(e),
    };

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = Vec::new();
    for entry in fs::read_dir(&crates_dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() && path.join("Cargo.toml").is_file() {
            crate_dirs.push(path);
        }
    }
    crate_dirs.sort();

    let mut crates = Vec::new();
    let mut ref_files = Vec::new();
    for dir in &crate_dirs {
        let dir_name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        let manifest_text = fs::read_to_string(dir.join("Cargo.toml"))?;
        let mut files = Vec::new();
        for (rel, lexed) in lex_dir(root, &dir.join("src"))? {
            files.push(SrcFile {
                is_bin: rel.contains("/src/bin/") || rel.ends_with("/src/main.rs"),
                mask: lex::test_mask(&lexed.tokens),
                rel,
                lexed,
            });
        }
        for sub in ["tests", "benches"] {
            for (rel, lexed) in lex_dir(root, &dir.join(sub))? {
                ref_files.push(RefFile { rel, lexed });
            }
        }
        crates.push(CrateInfo {
            manifest_rel: rel_to(root, &dir.join("Cargo.toml")),
            dir_name,
            manifest: manifest::parse(&manifest_text),
            files,
        });
    }
    // ssbench is its own cargo workspace but calls the crates' pub API.
    for sub in ["tests", "examples", "benchmark/src", "benchmark/tests"] {
        for (rel, lexed) in lex_dir(root, &root.join(sub))? {
            ref_files.push(RefFile { rel, lexed });
        }
    }

    Ok(Workspace {
        root_manifest,
        crates,
        ref_files,
    })
}

/// Lexes every `.rs` file under `dir` (none when `dir` is absent), in
/// sorted path order, paired with its root-relative path.
fn lex_dir(root: &Path, dir: &Path) -> io::Result<Vec<(String, Lexed)>> {
    let mut paths = Vec::new();
    if dir.is_dir() {
        collect_rs(dir, &mut paths)?;
    }
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        out.push((rel_to(root, &path), lex::lex(&fs::read_to_string(&path)?)));
    }
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn rel_to(root: &Path, path: &Path) -> String {
    let rel = path.strip_prefix(root).unwrap_or(path);
    rel.to_string_lossy().replace('\\', "/")
}
