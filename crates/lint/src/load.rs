//! The one loader: root discovery, one tree walk, each file read once.
//!
//! Everything after [`load()`] works on the in-memory [`Workspace`] — no
//! pass touches the file system.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// The sources of one workspace, read into memory.
#[derive(Debug, Default)]
pub struct Workspace {
    /// `(workspace-relative path with `/` separators, source text)` for
    /// every `.rs` file under `crates/*/src/` or the umbrella crate's
    /// `src/`, sorted by path.
    pub files: Vec<(String, String)>,
    /// The committed `proto.lock` text, when present.
    pub lock: Option<String>,
}

/// Walk the workspace rooted at `root` and read every `.rs` file under
/// `crates/*/src/` or `src/` — integration tests, benches and examples
/// are harness code, and the shims are external API stand-ins, not
/// replica logic — plus `proto.lock`.
pub fn load(root: &Path) -> io::Result<Workspace> {
    let mut rel_files = Vec::new();
    walk(root, root, &mut rel_files)?;
    rel_files.sort();
    let mut files = Vec::with_capacity(rel_files.len());
    for rel in rel_files {
        let text = fs::read_to_string(root.join(&rel))?;
        files.push((rel.to_string_lossy().replace('\\', "/"), text));
    }
    Ok(Workspace {
        files,
        lock: fs::read_to_string(root.join("proto.lock")).ok(),
    })
}

/// Recursively collect the `.rs` files of `crates/*/src/**` and
/// `src/**`, skipping VCS metadata and build output.
fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path);
            let mut dirs = rel.iter();
            let in_scope = match dirs.next().and_then(|d| d.to_str()) {
                Some("src") => true,
                Some("crates") => dirs.nth(1).is_some_and(|d| d == "src"),
                _ => false,
            };
            if in_scope {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

/// Locate the workspace root: walk up from `start` to the first
/// directory whose `Cargo.toml` has a `[workspace]` table with a
/// `members` key. A bare `[workspace]` (how a nested package opts out
/// of its parent workspace) or the word in a comment does not count.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    start
        .ancestors()
        .find(|dir| fs::read_to_string(dir.join("Cargo.toml")).is_ok_and(|t| declares_members(&t)))
        .map(Path::to_path_buf)
}

/// Does this manifest text have a `members` key inside `[workspace]`?
fn declares_members(manifest: &str) -> bool {
    let mut in_workspace = false;
    for line in manifest.lines().map(str::trim) {
        if line.starts_with('[') {
            in_workspace = line == "[workspace]";
        } else if in_workspace
            && line
                .strip_prefix("members")
                .is_some_and(|r| r.trim_start().starts_with('='))
        {
            return true;
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::declares_members;

    #[test]
    fn only_a_workspace_table_with_members_is_a_root() {
        assert!(declares_members(
            "[workspace]\nmembers = [\"crates/*\"]\nresolver = \"2\"\n"
        ));
        assert!(declares_members(
            "[package]\nname = \"x\"\n\n[workspace]\nresolver = \"2\"\nmembers=[]\n"
        ));
        // The nested benchmark package: empty table, and the word in a comment.
        assert!(!declares_members("# an empty [workspace]\n[package]\nname = \"b\"\n\n[workspace]\n\n[[bin]]\nname = \"b\"\n"));
        // `members` belongs to some other table.
        assert!(!declares_members(
            "[workspace]\n[workspace.metadata.x]\nmembers = []\n"
        ));
        assert!(!declares_members("[package]\nname = \"x\"\n"));
    }
}
