//! The API-surface snapshot: every `pub` item in the workspace, rendered
//! as one sorted, byte-deterministic text file.
//!
//! `odr-check api` extracts each crate's public items (path + signature)
//! via [`crate::items`] and renders them one per line:
//!
//! ```text
//! odr_core::regulator::FpsRegulator::new | pub fn new ( target_fps : f64 ) -> Self
//! ```
//!
//! The committed snapshot (`api-surface.txt` at the repo root) is golden:
//! `odr-check api --check` exits 1 when the tree's surface differs from
//! it, which turns every accidental public-API change into a visible
//! diff. Regenerate deliberately with `UPDATE_GOLDEN=1 odr-check api`
//! (same env convention as the PR 2/3 golden traces). On a `--check`
//! mismatch the freshly computed surface is written to
//! `api-surface.txt.new` (gitignored) for easy diffing.
//!
//! The surface is a deliberate *over-approximation*: items are listed at
//! their definition path whether or not the enclosing module is public
//! (re-exports are captured separately as `pub use` lines), trait impls
//! are skipped (their surface is the trait's), and `#[cfg(test)]` items
//! are excluded. Over-approximating keeps the extractor simple and errs
//! on the side of showing a diff.

use std::fs;
use std::path::{Path, PathBuf};

use odr_core::{OdrError, OdrResult};

use crate::items::{parse_items, Item, ItemKind, Vis};
use crate::lex::lex;

/// File name of the committed snapshot, relative to the repo root.
pub const SNAPSHOT_FILE: &str = "api-surface.txt";

/// File name of the scratch copy written when `--check` finds a diff.
pub const SCRATCH_FILE: &str = "api-surface.txt.new";

/// Reads the package name out of a crate's `Cargo.toml` (first
/// `name = "..."` in the `[package]` section).
fn package_name(manifest: &Path) -> Option<String> {
    let text = fs::read_to_string(manifest).ok()?;
    let mut in_package = false;
    for line in text.lines() {
        let line = line.trim();
        if line.starts_with('[') {
            in_package = line == "[package]";
            continue;
        }
        if in_package {
            if let Some(rest) = line.strip_prefix("name") {
                let rest = rest.trim_start();
                if let Some(rest) = rest.strip_prefix('=') {
                    return Some(rest.trim().trim_matches('"').to_string());
                }
            }
        }
    }
    None
}

/// The module path a source file roots at: `src/lib.rs` → crate root,
/// `src/foo.rs` → `foo`, `src/foo/mod.rs` → `foo`, `src/foo/bar.rs` →
/// `foo::bar`. Returns `None` for binary roots (`main.rs`, `src/bin/`),
/// which are not library API.
fn module_path_of(src_rel: &Path) -> Option<Vec<String>> {
    let mut parts: Vec<String> = Vec::new();
    let comps: Vec<&str> = src_rel.iter().filter_map(|c| c.to_str()).collect();
    for (i, comp) in comps.iter().enumerate() {
        let last = i + 1 == comps.len();
        if last {
            match *comp {
                "lib.rs" | "mod.rs" => {}
                "main.rs" => return None,
                file => parts.push(file.trim_end_matches(".rs").to_string()),
            }
        } else {
            if *comp == "bin" && i == 0 {
                return None;
            }
            parts.push((*comp).to_string());
        }
    }
    Some(parts)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
    paths.sort();
    for path in paths {
        if path.is_dir() {
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Emits the `pub` items of one parsed tree into `out` as
/// `path | signature` lines.
fn emit_items(prefix: &str, items: &[Item], out: &mut Vec<String>) {
    for item in items {
        if item.cfg_test {
            continue;
        }
        match item.kind {
            ItemKind::Mod => {
                let path = format!("{prefix}::{}", item.name);
                if item.vis == Vis::Pub {
                    out.push(format!("{path} | {}", item.signature));
                }
                emit_items(&path, &item.children, out);
            }
            ItemKind::Impl => {
                // Trait impls surface through the trait; inherent impls
                // surface their pub members under the Self type.
                if item.trait_impl {
                    continue;
                }
                let path = format!("{prefix}::{}", item.name);
                emit_items(&path, &item.children, out);
            }
            ItemKind::Use => {
                if item.vis == Vis::Pub {
                    out.push(format!("{prefix} | pub use {}", item.name));
                }
            }
            ItemKind::Macro => {}
            _ => {
                if item.vis == Vis::Pub {
                    out.push(format!("{prefix}::{} | {}", item.name, item.signature));
                }
            }
        }
    }
}

/// Collects one crate's surface given its package name and `src/` dir.
fn collect_crate(pkg: &str, src_dir: &Path, out: &mut Vec<String>) -> OdrResult<()> {
    let crate_root = pkg.replace('-', "_");
    let mut files = Vec::new();
    collect_rs_files(src_dir, &mut files);
    for file in files {
        let rel = file.strip_prefix(src_dir).unwrap_or(&file);
        let Some(mod_parts) = module_path_of(rel) else {
            continue;
        };
        let text = fs::read_to_string(&file)
            .map_err(|e| OdrError::io(file.display().to_string(), e))?;
        let lexed = lex(&text);
        let items = parse_items(&lexed);
        let mut prefix = crate_root.clone();
        for p in &mod_parts {
            prefix.push_str("::");
            prefix.push_str(p);
        }
        emit_items(&prefix, &items, out);
    }
    Ok(())
}

/// Extracts the whole workspace's public surface as the snapshot text:
/// sorted unique lines, LF-terminated. Byte-deterministic for a given
/// tree.
pub fn collect_api(root: &Path) -> OdrResult<String> {
    let mut out: Vec<String> = Vec::new();
    // Member crates under crates/, in sorted order.
    let crates_dir = root.join("crates");
    if let Ok(entries) = fs::read_dir(&crates_dir) {
        let mut dirs: Vec<PathBuf> = entries.filter_map(|e| e.ok().map(|e| e.path())).collect();
        dirs.sort();
        for dir in dirs {
            let manifest = dir.join("Cargo.toml");
            let Some(pkg) = package_name(&manifest) else {
                continue;
            };
            collect_crate(&pkg, &dir.join("src"), &mut out)?;
        }
    }
    // The root package.
    if let Some(pkg) = package_name(&root.join("Cargo.toml")) {
        collect_crate(&pkg, &root.join("src"), &mut out)?;
    }
    out.sort();
    out.dedup();
    let mut text = out.join("\n");
    if !text.is_empty() {
        text.push('\n');
    }
    Ok(text)
}

/// Extracts the public surface from a pre-scanned workspace (the shared
/// lex/item views of [`crate::lint::Workspace`]), avoiding a second lex
/// of every file. Byte-identical to [`collect_api`] on the same tree:
/// the same files are considered (crate and root `src/` trees; shims and
/// test/bench trees are not part of the API snapshot) and lines are
/// sorted and deduplicated the same way.
#[must_use]
pub fn collect_api_from(root: &Path, scans: &[crate::lint::FileScan]) -> String {
    let mut out: Vec<String> = Vec::new();
    let mut pkg_cache: std::collections::BTreeMap<String, Option<String>> =
        std::collections::BTreeMap::new();
    for scan in scans {
        let parts: Vec<&str> = scan.rel_path.split('/').collect();
        let (manifest_dir, src_rel) = match parts.first() {
            Some(&"crates") if parts.len() > 3 && parts.get(2) == Some(&"src") => {
                (format!("crates/{}", parts[1]), parts[3..].join("/"))
            }
            Some(&"src") if parts.len() > 1 => (String::new(), parts[1..].join("/")),
            _ => continue, // shims and anything else stay out of the snapshot
        };
        let manifest = if manifest_dir.is_empty() {
            root.join("Cargo.toml")
        } else {
            root.join(&manifest_dir).join("Cargo.toml")
        };
        let pkg = pkg_cache
            .entry(manifest_dir)
            .or_insert_with(|| package_name(&manifest));
        let Some(pkg) = pkg else {
            continue;
        };
        let Some(mod_parts) = module_path_of(Path::new(&src_rel)) else {
            continue;
        };
        let mut prefix = pkg.replace('-', "_");
        for p in &mod_parts {
            prefix.push_str("::");
            prefix.push_str(p);
        }
        emit_items(&prefix, &scan.items, &mut out);
    }
    out.sort();
    out.dedup();
    let mut text = out.join("\n");
    if !text.is_empty() {
        text.push('\n');
    }
    text
}

/// Outcome of comparing the tree against the committed snapshot.
#[derive(Debug)]
pub struct ApiDiff {
    /// Lines in the tree but not the snapshot.
    pub added: Vec<String>,
    /// Lines in the snapshot but not the tree.
    pub removed: Vec<String>,
}

impl ApiDiff {
    /// `true` when surface and snapshot are identical.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Diffs the current surface text against snapshot text (both in the
/// sorted line format produced by [`collect_api`]).
#[must_use]
pub fn diff_surface(current: &str, snapshot: &str) -> ApiDiff {
    let cur: std::collections::BTreeSet<&str> = current.lines().collect();
    let snap: std::collections::BTreeSet<&str> = snapshot.lines().collect();
    ApiDiff {
        added: cur.difference(&snap).map(|s| (*s).to_string()).collect(),
        removed: snap.difference(&cur).map(|s| (*s).to_string()).collect(),
    }
}

/// Checks the tree at `root` against the committed snapshot. On mismatch
/// the fresh surface is written to [`SCRATCH_FILE`] beside it. Returns
/// the diff; a missing snapshot file is reported as everything-added.
pub fn check_against_snapshot(root: &Path) -> OdrResult<ApiDiff> {
    let current = collect_api(root)?;
    check_surface(root, &current)
}

/// Checks an already-rendered surface against the committed snapshot
/// (the shared-workspace path). On mismatch the surface is written to
/// [`SCRATCH_FILE`].
pub fn check_surface(root: &Path, current: &str) -> OdrResult<ApiDiff> {
    let snap_path = root.join(SNAPSHOT_FILE);
    let snapshot = fs::read_to_string(&snap_path).unwrap_or_default();
    let diff = diff_surface(current, &snapshot);
    if !diff.is_empty() {
        let scratch = root.join(SCRATCH_FILE);
        fs::write(&scratch, current)
            .map_err(|e| OdrError::io(scratch.display().to_string(), e))?;
    }
    Ok(diff)
}

/// Writes the snapshot file for the tree at `root` (the
/// `UPDATE_GOLDEN=1` path).
pub fn update_snapshot(root: &Path) -> OdrResult<String> {
    let current = collect_api(root)?;
    write_surface(root, &current)?;
    Ok(current)
}

/// Writes an already-rendered surface as the committed snapshot.
pub fn write_surface(root: &Path, current: &str) -> OdrResult<()> {
    let snap_path = root.join(SNAPSHOT_FILE);
    fs::write(&snap_path, current).map_err(|e| OdrError::io(snap_path.display().to_string(), e))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn module_paths_map_files_to_modules() {
        let p = |s: &str| module_path_of(Path::new(s));
        assert_eq!(p("lib.rs"), Some(vec![]));
        assert_eq!(p("queue.rs"), Some(vec!["queue".to_string()]));
        assert_eq!(p("foo/mod.rs"), Some(vec!["foo".to_string()]));
        assert_eq!(
            p("foo/bar.rs"),
            Some(vec!["foo".to_string(), "bar".to_string()])
        );
        assert_eq!(p("main.rs"), None);
        assert_eq!(p("bin/tool.rs"), None);
    }

    #[test]
    fn emit_lists_pub_items_only_and_recurses() {
        let src = "pub fn visible() {}\n\
                   fn hidden() {}\n\
                   pub(crate) fn crate_only() {}\n\
                   pub mod sub { pub const N: u8 = 1; }\n\
                   impl Widget { pub fn draw(&self) {} fn helper() {} }\n\
                   impl Drop for Widget { fn drop(&mut self) {} }\n\
                   #[cfg(test)] mod tests { pub fn t() {} }\n";
        let items = parse_items(&lex(src));
        let mut out = Vec::new();
        emit_items("my_crate", &items, &mut out);
        out.sort();
        assert_eq!(
            out,
            [
                "my_crate::Widget::draw | pub fn draw ( & self )",
                "my_crate::sub | pub mod sub",
                "my_crate::sub::N | pub const N : u8",
                "my_crate::visible | pub fn visible ( )",
            ]
        );
    }

    #[test]
    fn pub_use_reexports_are_captured() {
        let items = parse_items(&lex("pub use crate::sync_queue::SyncQueue;\n"));
        let mut out = Vec::new();
        emit_items("odr_core", &items, &mut out);
        assert_eq!(out, ["odr_core | pub use crate::sync_queue::SyncQueue"]);
    }

    #[test]
    fn diff_reports_added_and_removed() {
        let d = diff_surface("a\nb\nc\n", "a\nc\nd\n");
        assert_eq!(d.added, ["b"]);
        assert_eq!(d.removed, ["d"]);
        assert!(!d.is_empty());
        assert!(diff_surface("a\n", "a\n").is_empty());
    }

    #[test]
    fn shared_scan_surface_matches_fresh_collection() {
        // The shared-workspace path must be byte-identical to a fresh
        // per-file lex of the real tree.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let fresh = collect_api(&root).unwrap();
        let (scans, _) = crate::lint::scan_tree(&root);
        assert_eq!(fresh, collect_api_from(&root, &scans));
    }
}
